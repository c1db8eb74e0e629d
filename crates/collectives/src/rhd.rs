//! Recursive halving-doubling AllReduce (Thakur et al.'s classic MPI
//! algorithm; the basis of several of the large-scale ImageNet entries the
//! paper's related work surveys, e.g. Mikami et al.'s hybrid).
//!
//! `log₂ P` halving rounds of ReduceScatter (exchange half the working
//! vector with a partner at distance `P/2, P/4, …`) followed by `log₂ P`
//! doubling rounds of AllGather — bandwidth-optimal like the ring but with
//! logarithmic round count, so it wins the latency-bound regime.

use cloudtrain_tensor::ops;

use crate::group::{Peer, Transport};

/// Recursive halving-doubling AllReduce over the whole group: on return
/// every rank's `x` holds the element-wise sum.
///
/// # Panics
/// Panics unless the group size is a power of two.
pub fn rhd_all_reduce(peer: &Peer, x: &mut [f32]) {
    let p = peer.size();
    assert!(
        p.is_power_of_two(),
        "rhd_all_reduce: group size must be 2^m"
    );
    if p == 1 {
        return;
    }
    let rank = peer.rank();
    let d = x.len();

    // Halving (ReduceScatter): the owned window shrinks by half each
    // round; the half sent is the one the partner will own.
    let mut lo = 0usize;
    let mut hi = d;
    let mut mask = p / 2;
    while mask > 0 {
        let partner = rank ^ mask;
        let mid = lo + (hi - lo) / 2;
        // The rank whose bit is 0 keeps the lower half.
        let keep_low = rank & mask == 0;
        let (send_range, keep_range) = if keep_low {
            ((mid, hi), (lo, mid))
        } else {
            ((lo, mid), (mid, hi))
        };
        peer.send_f32(partner, x[send_range.0..send_range.1].to_vec());
        let recv = peer.recv_f32(partner);
        ops::add_assign(&mut x[keep_range.0..keep_range.1], &recv);
        lo = keep_range.0;
        hi = keep_range.1;
        mask >>= 1;
    }

    // Doubling (AllGather): windows merge back in reverse order.
    let mut mask = 1;
    while mask < p {
        let partner = rank ^ mask;
        peer.send_f32(partner, x[lo..hi].to_vec());
        let recv = peer.recv_f32(partner);
        // The partner owns the mirror half of the common parent window;
        // with odd parents its width differs from ours by one, so size
        // the splice by what actually arrived.
        let keep_low = rank & mask == 0;
        if keep_low {
            x[hi..hi + recv.len()].copy_from_slice(&recv);
            hi += recv.len();
        } else {
            x[lo - recv.len()..lo].copy_from_slice(&recv);
            lo -= recv.len();
        }
        mask <<= 1;
    }
    debug_assert_eq!((lo, hi), (0, d));
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::group::run_on_group;
    use cloudtrain_tensor::init;

    fn vec_for(rank: usize, d: usize) -> Vec<f32> {
        let mut rng = init::rng_from_seed(9100 + rank as u64);
        init::uniform_tensor(d, -1.0, 1.0, &mut rng).into_vec()
    }

    #[test]
    fn matches_sequential_sum_for_powers_of_two() {
        for (p, d) in [(2usize, 10usize), (4, 64), (8, 100), (16, 37)] {
            let expect = {
                let mut acc = vec![0.0; d];
                for r in 0..p {
                    ops::add_assign(&mut acc, &vec_for(r, d));
                }
                acc
            };
            let results = run_on_group(p, |peer| {
                let mut x = vec_for(peer.rank(), d);
                rhd_all_reduce(peer, &mut x);
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
    fn all_ranks_identical_bitwise() {
        let results = run_on_group(8, |peer| {
            let mut x = vec_for(peer.rank(), 501);
            rhd_all_reduce(peer, &mut x);
            x
        });
        for r in 1..8 {
            assert_eq!(results[0], results[r]);
        }
    }

    #[test]
    fn single_rank_is_identity() {
        let results = run_on_group(1, |peer| {
            let mut x = vec![1.0, 2.0, 3.0];
            rhd_all_reduce(peer, &mut x);
            x
        });
        assert_eq!(results[0], vec![1.0, 2.0, 3.0]);
    }

    #[test]
    #[should_panic(expected = "worker thread panicked")]
    fn non_power_of_two_panics() {
        run_on_group(3, |peer| {
            let mut x = vec![0.0f32; 8];
            rhd_all_reduce(peer, &mut x);
        });
    }
}
