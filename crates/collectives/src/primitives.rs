//! Rooted primitives: Broadcast and Reduce.
//!
//! The AllReduce family covers training's steady state, but the system
//! also needs rooted operations — broadcasting the initial parameters from
//! rank 0 (how real launchers guarantee identical replicas without shared
//! seeds) and reducing metrics to a logger rank. Both use the binomial
//! tree over an arbitrary member subset.

use cloudtrain_tensor::ops;

use crate::group::{Peer, Transport};
use crate::ring::member_index;

/// Binomial-tree broadcast from `members[0]`: on return every member's `x`
/// equals the root's.
pub fn broadcast(peer: &Peer, x: &mut [f32], members: &[usize]) {
    let p = members.len();
    let pos = member_index(members, peer.rank());
    if p <= 1 {
        return;
    }
    // Receive once (non-roots), then forward down.
    let mut mask = 1;
    while mask < p {
        if pos & mask != 0 {
            let got = peer.recv_f32(members[pos ^ mask]);
            x.copy_from_slice(&got);
            break;
        }
        mask <<= 1;
    }
    mask >>= 1;
    while mask > 0 {
        let dst = pos | mask;
        if dst < p && dst != pos {
            peer.send_f32(members[dst], x.to_vec());
        }
        mask >>= 1;
    }
}

/// Binomial-tree reduce (sum) to `members[0]`: on return the root's `x`
/// holds the element-wise sum over all members; other members' buffers
/// hold partial sums and must be treated as garbage.
pub fn reduce(peer: &Peer, x: &mut [f32], members: &[usize]) {
    let p = members.len();
    let pos = member_index(members, peer.rank());
    let mut mask = 1;
    while mask < p {
        if pos & mask == 0 {
            let src = pos | mask;
            if src < p {
                let recv = peer.recv_f32(members[src]);
                ops::add_assign(x, &recv);
            }
        } else {
            peer.send_f32(members[pos ^ mask], x.to_vec());
            break;
        }
        mask <<= 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::group::run_on_group;

    #[test]
    fn broadcast_replicates_the_root() {
        for p in [1usize, 2, 5, 8] {
            let members: Vec<usize> = (0..p).collect();
            let results = run_on_group(p, |peer| {
                let mut x = if peer.rank() == 0 {
                    vec![3.25, -1.5, 7.0]
                } else {
                    vec![0.0; 3]
                };
                broadcast(peer, &mut x, &members);
                x
            });
            for (r, x) in results.iter().enumerate() {
                assert_eq!(x, &vec![3.25, -1.5, 7.0], "p={p} rank {r}");
            }
        }
    }

    #[test]
    fn reduce_sums_to_the_root() {
        for p in [1usize, 3, 8] {
            let members: Vec<usize> = (0..p).collect();
            let results = run_on_group(p, |peer| {
                let mut x = vec![peer.rank() as f32 + 1.0; 4];
                reduce(peer, &mut x, &members);
                x
            });
            let expect = (p * (p + 1) / 2) as f32;
            assert_eq!(results[0], vec![expect; 4], "p={p}");
        }
    }

    #[test]
    fn broadcast_then_reduce_roundtrip() {
        // Broadcast w from root, every rank adds its rank, reduce back:
        // root gets P*w + sum(ranks).
        let p = 4;
        let members: Vec<usize> = (0..p).collect();
        let results = run_on_group(p, |peer| {
            let mut x = if peer.rank() == 0 {
                vec![10.0]
            } else {
                vec![0.0]
            };
            broadcast(peer, &mut x, &members);
            x[0] += peer.rank() as f32;
            reduce(peer, &mut x, &members);
            x
        });
        assert_eq!(results[0][0], 4.0 * 10.0 + 6.0);
    }

    #[test]
    fn works_on_subsets_with_non_zero_root() {
        let members = vec![3usize, 1, 4];
        let results = run_on_group(6, |peer| {
            let mut x = vec![peer.rank() as f32];
            if members.contains(&peer.rank()) {
                broadcast(peer, &mut x, &members);
            }
            x
        });
        // Root is members[0] = rank 3.
        assert_eq!(results[1], vec![3.0]);
        assert_eq!(results[4], vec![3.0]);
        assert_eq!(results[0], vec![0.0]); // non-member untouched
    }
}
