//! gTop-k sparse AllReduce (Shi et al., ICDCS 2019 — cited by the paper as
//! the global-top-k alternative to per-worker top-k aggregation).
//!
//! Instead of gathering every worker's top-k (NaiveAG, whose output grows
//! with `P`), gTop-k keeps the result at *exactly k* entries: workers pair
//! up in `log₂ P` recursive-doubling rounds, exchange their current sparse
//! sets, merge-sum them, and re-select the top-k of the merge. Both pair
//! members compute the same deterministic merge, so all ranks converge to
//! an identical global selection. The selection is error-compensated: what
//! a worker does not send stays in its residual for the next step.

use cloudtrain_compress::{Compressor, ErrorFeedback, SparseGrad};
use cloudtrain_tensor::ops;

use crate::group::Transport;
use crate::scratch::CommScratch;

/// Merges two sparse gradients over the same dense space, summing values
/// on shared indices. Output indices are sorted.
///
/// # Panics
/// Panics if the dimensions differ.
pub fn merge_sparse(a: &SparseGrad, b: &SparseGrad) -> SparseGrad {
    assert_eq!(a.dim, b.dim, "merge_sparse: dimension mismatch");
    let mut values = Vec::with_capacity(a.len() + b.len());
    let mut indices = Vec::with_capacity(a.len() + b.len());
    let (mut i, mut j) = (0, 0);
    while i < a.len() || j < b.len() {
        let ai = a.indices.get(i).copied();
        let bj = b.indices.get(j).copied();
        match (ai, bj) {
            (Some(x), Some(y)) if x == y => {
                indices.push(x);
                values.push(a.values[i] + b.values[j]);
                i += 1;
                j += 1;
            }
            (Some(x), Some(y)) if x < y => {
                indices.push(x);
                values.push(a.values[i]);
                i += 1;
            }
            (Some(_), Some(y)) => {
                indices.push(y);
                values.push(b.values[j]);
                j += 1;
            }
            (Some(x), None) => {
                indices.push(x);
                values.push(a.values[i]);
                i += 1;
            }
            (None, Some(y)) => {
                indices.push(y);
                values.push(b.values[j]);
                j += 1;
            }
            (None, None) => unreachable!(),
        }
    }
    SparseGrad::new(values, indices, a.dim)
}

/// Trims a sparse gradient to its `k` largest-magnitude entries
/// (deterministic ties toward lower indices), keeping indices sorted.
pub fn trim_topk(s: &SparseGrad, k: usize) -> SparseGrad {
    if s.len() <= k {
        return s.clone();
    }
    let mut order: Vec<usize> = (0..s.len()).collect();
    order.sort_by(|&a, &b| {
        s.values[b]
            .abs()
            .partial_cmp(&s.values[a].abs())
            .unwrap_or(std::cmp::Ordering::Equal)
            .then(s.indices[a].cmp(&s.indices[b]))
    });
    order.truncate(k);
    order.sort_by_key(|&i| s.indices[i]);
    SparseGrad::new(
        order.iter().map(|&i| s.values[i]).collect(),
        order.iter().map(|&i| s.indices[i]).collect(),
        s.dim,
    )
}

/// gTop-k's one feasibility check: the recursive-doubling schedule pairs
/// every rank in each of its `log₂ P` rounds, so the world must be a power
/// of two. `Err` carries the one-line reason. The simulated schedule
/// prices any world, so every caller that prices or runs gTop-k on a
/// chosen world gates on this first; [`gtopk_all_reduce_ef`] asserts it.
pub fn check_world(world: usize) -> Result<(), String> {
    if world.is_power_of_two() {
        Ok(())
    } else {
        Err(format!(
            "gtopk needs a power-of-two world (recursive doubling pairs every rank), got {world} ranks"
        ))
    }
}

/// gTop-k AllReduce with error feedback, over whichever transport the
/// caller holds: the gradient is accumulated into the residual, the top
/// `k` of the residual selected and released from it, and `log₂ P`
/// recursive-doubling rounds each swap the current sparse set with the
/// partner, merge-sum it and re-select the top `k`. On return every rank's
/// `x` holds the same dense vector with (at most) `k` nonzeros — the
/// global top-k approximation of the sum. Returns the bytes this rank
/// sent.
///
/// A member whose transport withholds the contribution
/// ([`Transport::contribution_withheld`]) keeps its whole gradient in the
/// residual and contributes the empty set: merges against it are
/// identities, and every rank still runs all `log₂ P` rounds.
///
/// Each round takes two pooled buffers from `scratch` (the outgoing
/// value/index copies) and recycles the partner's received pair once
/// merged, so repeated invocations stop allocating on the wire path after
/// warmup.
///
/// # Panics
/// Panics unless the group size passes [`check_world`] (a power of two),
/// or if the residual dimension is not `x.len()`.
pub fn gtopk_all_reduce_ef<T: Transport + ?Sized, C: Compressor + ?Sized>(
    peer: &T,
    x: &mut [f32],
    k: usize,
    compressor: &mut C,
    ef: &mut ErrorFeedback,
    scratch: &mut CommScratch,
) -> usize {
    let p = peer.size();
    assert!(
        check_world(p).is_ok(),
        "gtopk_all_reduce_ef: group size must be 2^m"
    );
    assert_eq!(ef.dim(), x.len(), "gtopk ef: residual must match x");
    let mut current = if peer.contribution_withheld() {
        ef.withhold(x);
        SparseGrad::empty(x.len())
    } else {
        let selection = ef.select(x, k, compressor);
        ef.release(&selection);
        selection
    };
    let rank = peer.rank();
    let mut sent = 0;

    let mut mask = 1;
    while mask < p {
        let partner = rank ^ mask;
        // Both directions of the exchange; lower rank sends first to keep
        // the schedule deterministic (channels are pairwise ordered anyway).
        peer.send_f32(partner, scratch.copy_f32(&current.values));
        peer.send_u32(partner, scratch.copy_u32(&current.indices));
        sent += current.wire_bytes();
        let vals = peer.recv_f32(partner);
        let idxs = peer.recv_u32(partner);
        let theirs = SparseGrad::new(vals, idxs, current.dim);
        current = trim_topk(&merge_sparse(&current, &theirs), k);
        // The partner's pair balances the two takes above; the merge output
        // is a fresh selection, so recycling `theirs` (and not the old
        // `current`) keeps the pool at a fixed size.
        let SparseGrad {
            values, indices, ..
        } = theirs;
        scratch.put_f32(values);
        scratch.put_u32(indices);
        mask <<= 1;
    }

    ops::fill(x, 0.0);
    current.add_into(x);
    sent
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::group::{run_on_group, Peer};
    use cloudtrain_compress::exact::SortTopK;
    use cloudtrain_tensor::init;

    fn vec_for(rank: usize, d: usize) -> Vec<f32> {
        let mut rng = init::rng_from_seed(6000 + rank as u64);
        init::gradient_like_tensor(d, &mut rng).into_vec()
    }

    /// One gTop-k round over a fresh zero residual and arena.
    fn gtopk(peer: &Peer, x: &mut [f32], k: usize) -> usize {
        let mut ef = ErrorFeedback::new(x.len());
        gtopk_all_reduce_ef(peer, x, k, &mut SortTopK, &mut ef, &mut CommScratch::new())
    }

    #[test]
    fn merge_sums_shared_indices() {
        let a = SparseGrad::new(vec![1.0, 2.0], vec![1, 5], 8);
        let b = SparseGrad::new(vec![10.0, 20.0], vec![5, 7], 8);
        let m = merge_sparse(&a, &b);
        assert_eq!(m.indices, vec![1, 5, 7]);
        assert_eq!(m.values, vec![1.0, 12.0, 20.0]);
    }

    #[test]
    fn trim_keeps_largest_by_magnitude() {
        let s = SparseGrad::new(vec![1.0, -5.0, 3.0], vec![0, 4, 9], 10);
        let t = trim_topk(&s, 2);
        assert_eq!(t.indices, vec![4, 9]);
        assert_eq!(t.values, vec![-5.0, 3.0]);
        // k >= len is identity.
        assert_eq!(trim_topk(&s, 5), s);
    }

    #[test]
    fn all_ranks_agree_and_result_has_k_nonzeros() {
        for p in [2usize, 4, 8] {
            let d = 500;
            let k = 20;
            let results = run_on_group(p, |peer| {
                let mut x = vec_for(peer.rank(), d);
                let sent = gtopk(peer, &mut x, k);
                (x, sent)
            });
            for (x, sent) in &results {
                assert_eq!(x, &results[0].0, "p={p}: ranks diverged");
                assert!(x.iter().filter(|v| **v != 0.0).count() <= k);
                // log2(p) rounds x 8 bytes x k.
                assert_eq!(*sent, (p.trailing_zeros() as usize) * 8 * k);
            }
        }
    }

    #[test]
    fn well_separated_peaks_recover_exact_global_topk() {
        // Each rank contributes one huge coordinate; the global top-k must
        // contain all of them with their exact sums.
        let (p, d, k) = (4usize, 64usize, 4usize);
        let results = run_on_group(p, |peer| {
            let mut x = vec![0.01f32; d];
            x[peer.rank() * 10] = 100.0 + peer.rank() as f32;
            gtopk(peer, &mut x, k);
            x
        });
        for r in 0..p {
            let expect = 100.0 + r as f32;
            // Peaks are disjoint across ranks; partners' tiny filler
            // coordinates may leak into the sum, hence the tolerance.
            assert!(
                (results[0][r * 10] - expect).abs() < 0.1,
                "peak {r}: {} vs {expect}",
                results[0][r * 10]
            );
        }
    }

    #[test]
    fn scratch_variant_is_bitwise_identical_to_plain() {
        // A fresh arena per round against one reused across rounds, with
        // the residual carried over either way.
        let (p, d, k) = (4usize, 300usize, 15usize);
        let run = |reuse: bool| {
            run_on_group(p, move |peer| {
                let mut scratch = CommScratch::new();
                let mut ef = ErrorFeedback::new(d);
                let mut out = Vec::new();
                for round in 0..3 {
                    let mut x = vec_for(20 * round + peer.rank(), d);
                    let mut fresh = CommScratch::new();
                    let arena = if reuse { &mut scratch } else { &mut fresh };
                    let sent = gtopk_all_reduce_ef(peer, &mut x, k, &mut SortTopK, &mut ef, arena);
                    out.push((x, sent, ef.residual().to_vec()));
                }
                out
            })
        };
        assert_eq!(run(false), run(true));
    }

    #[test]
    fn gtopk_reaches_zero_miss_steady_state() {
        let (p, d, k) = (4usize, 200usize, 10usize);
        let miss_growth = run_on_group(p, |peer| {
            let mut scratch = CommScratch::new();
            let mut c = SortTopK;
            let mut ef = ErrorFeedback::new(d);
            let mut x = vec_for(peer.rank(), d);
            gtopk_all_reduce_ef(peer, &mut x, k, &mut c, &mut ef, &mut scratch);
            let warm = scratch.misses();
            for round in 1..4 {
                let mut y = vec_for(20 * round + peer.rank(), d);
                gtopk_all_reduce_ef(peer, &mut y, k, &mut c, &mut ef, &mut scratch);
            }
            (warm, scratch.misses())
        });
        for (r, (warm, total)) in miss_growth.iter().enumerate() {
            assert!(*warm > 0, "rank {r}: warmup should allocate");
            assert_eq!(total, warm, "rank {r}: steady-state gtopk allocated");
        }
    }

    #[test]
    #[should_panic(expected = "worker thread panicked")]
    fn non_power_of_two_panics() {
        // The "2^m" assertion fires inside the workers and surfaces as a
        // join failure in the harness.
        run_on_group(3, |peer| {
            let mut x = vec![0.0f32; 8];
            gtopk(peer, &mut x, 2);
        });
    }
}
