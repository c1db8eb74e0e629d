//! PTO: the parallel tensor operator (§4.2, Eqs. 12–14).
//!
//! After gradient aggregation every GPU holds identical tensors, yet the
//! traditional update path makes all of them redundantly compute the same
//! post-processing (e.g. the LARS layer-wise learning rates of Eq. 11).
//! PTO partitions any replicated-input / replicated-output operation over
//! the `P` workers — each computes one slice — and an AllGather shares the
//! results, trading `P×` less compute for one (tiny) collective.
//!
//! * [`pto_scalar_map`] — the generic operator over an indexed item set
//!   (items = model layers for LARS);
//! * [`pto_shard_map`] — the generic operator over a contiguous tensor
//!   partition (Eq. 13's `r^[p] = OP(g^[p])`);
//! * [`lars_rates`] — PTO applied to the LARS rate computation, the
//!   paper's flagship use;
//! * [`cost`] — the analytic win/lose model (PTO helps iff the AllGather
//!   costs less than the saved compute).

#![warn(missing_docs)]

pub mod cost;

use cloudtrain_collectives::ring::all_gather_f32;
use cloudtrain_collectives::Peer;
use cloudtrain_dnn::model::ParamRange;
use cloudtrain_optim::lars::{rate_for_layer, LarsConfig};
use cloudtrain_tensor::partition::{item_range_for, shard_for};

/// Applies `f` to each item index, with the items partitioned over all
/// ranks of the peer's group; returns the full result vector (identical on
/// every rank, in item order).
///
/// Requirement inherited from Eq. (12): `f` must be a pure function of the
/// item index and *replicated* state, so every rank would compute the same
/// value — PTO just avoids the redundancy.
pub fn pto_scalar_map<F>(peer: &Peer, item_count: usize, f: F) -> Vec<f32>
where
    F: Fn(usize) -> f32,
{
    let members: Vec<usize> = (0..peer.size()).collect();
    let mine: Vec<f32> = item_range_for(item_count, peer.size(), peer.rank())
        .map(f)
        .collect();
    let blocks = all_gather_f32(peer, &mine, &members);
    let mut out = Vec::with_capacity(item_count);
    for b in blocks {
        out.extend(b);
    }
    debug_assert_eq!(out.len(), item_count);
    out
}

/// Applies `f` to this rank's contiguous shard of `x` and AllGathers the
/// per-shard outputs; `f` must map a shard to an equally-sized output
/// (elementwise-class operations).
pub fn pto_shard_map<F>(peer: &Peer, x: &[f32], f: F) -> Vec<f32>
where
    F: Fn(&[f32]) -> Vec<f32>,
{
    let members: Vec<usize> = (0..peer.size()).collect();
    let shard = shard_for(x.len(), peer.size(), peer.rank());
    let mine = f(shard.slice(x));
    assert_eq!(
        mine.len(),
        shard.len(),
        "pto_shard_map: op must preserve shard length"
    );
    let blocks = all_gather_f32(peer, &mine, &members);
    let mut out = Vec::with_capacity(x.len());
    for b in blocks {
        out.extend(b);
    }
    out
}

/// Global L2 norm computed with PTO: each rank reduces its contiguous
/// shard to a partial sum of squares, one tiny AllGather shares the `P`
/// partials, and every rank finishes with the identical norm — the
/// distributed form of the gradient-clipping prologue (`optim::clip`).
pub fn pto_global_norm(peer: &Peer, x: &[f32]) -> f32 {
    let members: Vec<usize> = (0..peer.size()).collect();
    let shard = shard_for(x.len(), peer.size(), peer.rank());
    let partial: f32 = shard.slice(x).iter().map(|v| v * v).sum();
    let blocks = all_gather_f32(peer, &[partial], &members);
    blocks.iter().map(|b| b[0]).sum::<f32>().sqrt()
}

/// LARS layer-rate computation distributed with PTO: each rank computes
/// the rates of its slice of layers (exactly the paper's example: with 161
/// ResNet-50 layers on 128 GPUs, "the first GPU calculates 1 to 2 layers'
/// learning rates, the second one calculates layer 3 to 4, and so on").
pub fn lars_rates(
    peer: &Peer,
    params: &[f32],
    grads: &[f32],
    ranges: &[ParamRange],
    cfg: &LarsConfig,
) -> Vec<f32> {
    pto_scalar_map(peer, ranges.len(), |l| {
        rate_for_layer(params, grads, &ranges[l], cfg)
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use cloudtrain_collectives::group::run_on_group;
    use cloudtrain_optim::lars::compute_rates;
    use cloudtrain_tensor::init;

    #[test]
    fn scalar_map_matches_sequential() {
        let expect: Vec<f32> = (0..37).map(|i| (i as f32).sin()).collect();
        for p in [1usize, 3, 8] {
            let results = run_on_group(p, |peer| pto_scalar_map(peer, 37, |i| (i as f32).sin()));
            for r in &results {
                assert_eq!(r, &expect, "p={p}");
            }
        }
    }

    #[test]
    fn shard_map_matches_sequential_elementwise() {
        let mut rng = init::rng_from_seed(1);
        let x = init::uniform_tensor(100, -2.0, 2.0, &mut rng).into_vec();
        let expect: Vec<f32> = x.iter().map(|v| v * v + 1.0).collect();
        let results = run_on_group(4, |peer| {
            pto_shard_map(peer, &x, |shard| {
                shard.iter().map(|v| v * v + 1.0).collect()
            })
        });
        for r in &results {
            assert_eq!(r, &expect);
        }
    }

    #[test]
    fn pto_lars_matches_single_worker_lars() {
        // The paper's setup: ResNet-ish layer count spread over 8 workers.
        let mut rng = init::rng_from_seed(2);
        let params = init::gradient_like_tensor(10_000, &mut rng).into_vec();
        let grads = init::gradient_like_tensor(10_000, &mut rng).into_vec();
        // 20 uneven layer ranges tiling the vector.
        let mut ranges = Vec::new();
        let mut off = 0;
        for l in 0..20 {
            let len = if l == 19 { 10_000 - off } else { 100 + 35 * l };
            ranges.push(ParamRange { offset: off, len });
            off += len;
        }
        let cfg = LarsConfig::default();
        let expect = compute_rates(&params, &grads, &ranges, &cfg);
        let results = run_on_group(8, |peer| lars_rates(peer, &params, &grads, &ranges, &cfg));
        for r in &results {
            assert_eq!(r, &expect);
        }
    }

    #[test]
    fn global_norm_matches_sequential() {
        let mut rng = init::rng_from_seed(3);
        let x = init::gradient_like_tensor(5000, &mut rng).into_vec();
        let expect = cloudtrain_tensor::ops::l2_norm(&x);
        for p in [1usize, 3, 8] {
            let results = run_on_group(p, |peer| pto_global_norm(peer, &x));
            for r in &results {
                assert!(
                    (r - expect).abs() < 1e-2 * expect.max(1.0),
                    "p={p}: {r} vs {expect}"
                );
                assert_eq!(*r, results[0], "ranks must agree bitwise");
            }
        }
    }

    #[test]
    fn more_workers_than_items_still_works() {
        let results = run_on_group(8, |peer| pto_scalar_map(peer, 3, |i| i as f32));
        for r in &results {
            assert_eq!(r, &[0.0, 1.0, 2.0]);
        }
    }
}
