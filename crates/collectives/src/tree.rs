//! Tree AllReduce ("TreeAR", the NCCL baseline of Fig. 7).
//!
//! NCCL's large-scale AllReduce uses the double-tree construction of Sanders
//! et al. (2009): two trees run concurrently, each carrying half of the
//! data, arranged so that (almost) every rank is interior in one tree and a
//! leaf in the other — doubling effective bandwidth over a single tree.
//!
//! We reproduce that structure with two binomial reduce+broadcast trees:
//! tree A over the natural member order (root = first member) carries the
//! first half of the vector, tree B over the *reversed* order (root = last
//! member) carries the second half, so rank roles swap between the halves.

use cloudtrain_tensor::ops;

use crate::group::Transport;

/// Binomial-tree reduce of `x` to the member at position 0 of `order`,
/// followed by a binomial broadcast back to all members. `pos` is the
/// calling peer's position within `order`.
fn binomial_reduce_broadcast<T: Transport + ?Sized>(
    peer: &T,
    x: &mut [f32],
    order: &[usize],
    pos: usize,
) {
    let p = order.len();
    if p <= 1 || x.is_empty() {
        return;
    }

    // Reduce phase: children (higher positions) fold into parents.
    let mut mask = 1;
    while mask < p {
        if pos & mask == 0 {
            let src = pos | mask;
            if src < p {
                let recv = peer.recv_f32(order[src]);
                ops::add_assign(x, &recv);
            }
        } else {
            peer.send_f32(order[pos ^ mask], x.to_vec());
            break;
        }
        mask <<= 1;
    }

    // Broadcast phase: mirror of the reduce.
    let mut mask = 1;
    while mask < p {
        if pos & mask != 0 {
            let got = peer.recv_f32(order[pos ^ mask]);
            x.copy_from_slice(&got);
            break;
        }
        mask <<= 1;
    }
    mask >>= 1;
    while mask > 0 {
        let dst = pos | mask;
        if dst < p && dst != pos {
            peer.send_f32(order[dst], x.to_vec());
        }
        mask >>= 1;
    }
}

/// Double-tree AllReduce over `members`: on return every member's `x` holds
/// the element-wise sum over all members.
///
/// The first half of `x` is reduced/broadcast over the natural member order
/// and the second half over the reversed order, mirroring NCCL's double
/// tree. Cost per half: `2 log2(P)` steps of `d/2` elements.
pub fn tree_all_reduce<T: Transport + ?Sized>(peer: &T, x: &mut [f32], members: &[usize]) {
    let p = members.len();
    #[expect(
        clippy::panic,
        reason = "a rank outside its own member list is a schedule construction bug; every collective would deadlock anyway"
    )]
    let pos = members
        .iter()
        .position(|&m| m == peer.rank())
        .unwrap_or_else(|| panic!("rank {} not in members", peer.rank()));
    if p == 1 {
        return;
    }
    let mid = x.len() / 2;
    let (lo, hi) = x.split_at_mut(mid);

    // Tree A: natural order, first half.
    binomial_reduce_broadcast(peer, lo, members, pos);

    // Tree B: reversed order, second half.
    let reversed: Vec<usize> = members.iter().rev().copied().collect();
    binomial_reduce_broadcast(peer, hi, &reversed, p - 1 - pos);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::group::run_on_group;
    use cloudtrain_tensor::init;

    fn vec_for(rank: usize, d: usize) -> Vec<f32> {
        let mut rng = init::rng_from_seed(2000 + rank as u64);
        init::uniform_tensor(d, -1.0, 1.0, &mut rng).into_vec()
    }

    fn expected_sum(p: usize, d: usize) -> Vec<f32> {
        let mut acc = vec![0.0; d];
        for r in 0..p {
            ops::add_assign(&mut acc, &vec_for(r, d));
        }
        acc
    }

    #[test]
    fn tree_all_reduce_matches_sum_for_many_sizes() {
        for (p, d) in [
            (2usize, 8usize),
            (3, 11),
            (4, 64),
            (5, 7),
            (8, 100),
            (16, 33),
        ] {
            let members: Vec<usize> = (0..p).collect();
            let expect = expected_sum(p, d);
            let results = run_on_group(p, |peer| {
                let mut x = vec_for(peer.rank(), d);
                tree_all_reduce(peer, &mut x, &members);
                x
            });
            for (r, x) in results.iter().enumerate() {
                assert!(
                    ops::approx_eq(x, &expect, 1e-4),
                    "p={p} d={d} rank {r} diverged"
                );
            }
        }
    }

    #[test]
    fn all_ranks_agree_bitwise() {
        let p = 8;
        let d = 501; // odd split: halves of 250 and 251
        let members: Vec<usize> = (0..p).collect();
        let results = run_on_group(p, |peer| {
            let mut x = vec_for(peer.rank(), d);
            tree_all_reduce(peer, &mut x, &members);
            x
        });
        for r in 1..p {
            assert_eq!(results[0], results[r]);
        }
    }

    #[test]
    fn works_on_member_subset() {
        let p = 5;
        let members = vec![0usize, 2, 4];
        let results = run_on_group(p, |peer| {
            let mut x = vec![peer.rank() as f32; 6];
            if members.contains(&peer.rank()) {
                tree_all_reduce(peer, &mut x, &members);
            }
            x
        });
        for &m in &members {
            assert_eq!(results[m], vec![6.0; 6]);
        }
        assert_eq!(results[1], vec![1.0; 6]);
    }

    #[test]
    fn tiny_vectors_and_single_member() {
        // d=1: second half is empty; d=0: both empty; p=1: identity.
        for d in [0usize, 1, 2] {
            let members: Vec<usize> = (0..2).collect();
            let results = run_on_group(2, |peer| {
                let mut x = vec![1.0f32; d];
                tree_all_reduce(peer, &mut x, &members);
                x
            });
            assert_eq!(results[0], vec![2.0f32; d]);
        }
        let r = run_on_group(1, |peer| {
            let mut x = vec![3.0f32; 4];
            tree_all_reduce(peer, &mut x, &[0]);
            x
        });
        assert_eq!(r[0], vec![3.0; 4]);
    }
}
