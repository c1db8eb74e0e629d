//! Fused compress–reduce collectives.
//!
//! The unfused HiTopKComm pipeline ([`crate::hierarchical`]) materializes
//! the full dense gradient between its hops: the intra-node ReduceScatter
//! accumulates partial sums *in place* across all of `x`, then the top-k
//! stage reads one shard back out of it. The fused variants here instead
//! thread one owned shard-sized buffer through the ring — each hop adds the
//! local contribution into the buffer that just arrived and forwards it —
//! so the reduction's working set is `d/P` elements instead of `d`, `x`
//! stays read-only until the sparse aggregate is scattered back, and the
//! compressor consumes the reduced shard straight out of the comm buffer
//! (the compress hop is *fused* onto the final reduce hop; cf. Li &
//! Hoefler, *Near-Optimal Sparse Allreduce*, on avoiding the dense
//! materialization between reduction and selection).
//!
//! Determinism contract: the fused schedule performs, per hop, the same
//! two-operand IEEE-754 addition as the unfused one with the operands
//! swapped (`recv + local` instead of `local + recv`). `f32` addition is
//! commutative bit for bit, so every fused collective is **bitwise
//! identical** to its unfused twin — the tests and the conformance oracle
//! enforce it, and the fault gauntlet holds the resilient variant to the
//! same mass ledger as the unfused path.

use cloudtrain_compress::{Compressor, ErrorFeedback, SparseGrad};
use cloudtrain_obs::{self as obs, Registry};
use cloudtrain_tensor::ops;
use cloudtrain_tensor::partition::{shard_for, shards, Shard};

use crate::group::Peer;
use crate::hierarchical::{group_wire_bytes, scatter_gathered, shard_k, HiTopKReport};
use crate::resilience::{
    all_gather_f32_resilient, all_gather_u32_resilient, ring_all_gather_resilient, ResilientPeer,
};
use crate::ring::{all_gather_pairs_scratch, member_index, ring_all_gather_scratch};
use crate::scratch::CommScratch;
use crate::torus::{grid_pos, inter_node_members, intra_node_members};

/// Fused ring ReduceScatter: like
/// [`crate::ring::ring_reduce_scatter_scratch`], but `x` is **read-only**
/// and the reduction state rides the ring in one owned shard-sized buffer.
/// Returns this member's shard descriptor and a pooled buffer holding the
/// fully reduced shard (bitwise equal to what the in-place variant leaves
/// in `x`'s own shard).
///
/// The caller owns the returned buffer and should `put_f32` it back once
/// consumed so the arena's take/put flow stays balanced.
///
/// Hops stay whole-chunk here, unlike the in-place variant's pieced hops:
/// the reduction state *is* the travelling buffer, which the caller gets
/// back shard-sized, and the resilient twin below charges its fault ladder
/// per message.
pub fn ring_reduce_scatter_fused(
    peer: &Peer,
    x: &[f32],
    members: &[usize],
    scratch: &mut CommScratch,
) -> (Shard, Vec<f32>) {
    let p = members.len();
    let me = member_index(members, peer.rank());
    let d = x.len();
    if p == 1 {
        return (shard_for(d, 1, 0), scratch.copy_f32(x));
    }
    let chunks = shards(d, p);
    let right = members[(me + 1) % p];
    let left = members[(me + p - 1) % p];

    // Same hop schedule as the in-place variant: step s forwards chunk
    // (me - s - 1) mod p and accumulates chunk (me - s - 2) mod p, but the
    // accumulation happens in the just-received buffer (`recv += local`
    // instead of `local += recv`; IEEE addition commutes bitwise). The
    // final received chunk index is `me`, so after p-1 hops `cur` holds
    // this member's fully reduced shard without ever writing `x`.
    let mut cur = scratch.copy_f32(chunks[(me + p - 1) % p].slice(x));
    for s in 0..p - 1 {
        peer.send_f32(right, cur);
        let recv_idx = (me + 2 * p - s - 2) % p;
        let mut recv = peer.recv_f32(left);
        ops::add_assign(&mut recv, chunks[recv_idx].slice(x));
        cur = recv;
    }
    (chunks[me], cur)
}

/// Fused ring ReduceScatter over a [`ResilientPeer`]: the schedule of
/// [`ring_reduce_scatter_fused`] with every hop charged through the
/// timeout/retry policy.
pub fn ring_reduce_scatter_fused_resilient(
    rp: &mut ResilientPeer,
    x: &[f32],
    members: &[usize],
    scratch: &mut CommScratch,
) -> (Shard, Vec<f32>) {
    let p = members.len();
    let me = member_index(members, rp.rank());
    let d = x.len();
    if p == 1 {
        return (shard_for(d, 1, 0), scratch.copy_f32(x));
    }
    let chunks = shards(d, p);
    let right = members[(me + 1) % p];
    let left = members[(me + p - 1) % p];

    let mut cur = scratch.copy_f32(chunks[(me + p - 1) % p].slice(x));
    for s in 0..p - 1 {
        rp.send_f32(right, cur);
        let recv_idx = (me + 2 * p - s - 2) % p;
        let mut recv = rp.recv_f32(left);
        ops::add_assign(&mut recv, chunks[recv_idx].slice(x));
        cur = recv;
    }
    (chunks[me], cur)
}

/// Fused HiTopKComm: [`crate::hierarchical::hitopk_all_reduce`] with the
/// intra-node reduction and the top-k selection fused — the compressor
/// reads the reduced shard straight out of the ring buffer, and the full
/// dense partial sums are never materialized in `x`.
///
/// Bitwise identical to the unfused collective on every rank.
///
/// # Panics
/// Panics if the group size is not `m * n`.
pub fn hitopk_all_reduce_fused<C: Compressor + ?Sized>(
    peer: &Peer,
    x: &mut [f32],
    m: usize,
    n: usize,
    rho: f64,
    compressor: &mut C,
) -> HiTopKReport {
    hitopk_all_reduce_fused_scratch(peer, x, m, n, rho, compressor, &mut CommScratch::new())
}

/// [`hitopk_all_reduce_fused`] drawing every communication buffer from
/// `scratch`.
pub fn hitopk_all_reduce_fused_scratch<C: Compressor + ?Sized>(
    peer: &Peer,
    x: &mut [f32],
    m: usize,
    n: usize,
    rho: f64,
    compressor: &mut C,
    scratch: &mut CommScratch,
) -> HiTopKReport {
    hitopk_fused_impl(peer, x, m, n, rho, compressor, None, scratch, None)
}

/// [`hitopk_all_reduce_fused_scratch`] with per-stage spans and counters
/// recorded into `reg`. The fused reduce+compress hop is charged as one
/// span (`hitopk/fused reduce-compress`, `d + d/n` logical units); the
/// remaining stages keep the unfused span names so trace consumers can
/// compare shapes directly.
#[allow(clippy::too_many_arguments)]
pub fn hitopk_all_reduce_fused_traced<C: Compressor + ?Sized>(
    peer: &Peer,
    x: &mut [f32],
    m: usize,
    n: usize,
    rho: f64,
    compressor: &mut C,
    scratch: &mut CommScratch,
    reg: &mut Registry,
) -> HiTopKReport {
    hitopk_fused_impl(peer, x, m, n, rho, compressor, None, scratch, Some(reg))
}

/// Fused HiTopKComm with error feedback: the residual accumulates, and the
/// selection is drawn from, the ring buffer holding the reduced shard (the
/// residual still lives at the sparsification point and has dimension
/// `d/n`).
///
/// Bitwise identical to [`crate::hierarchical::hitopk_all_reduce_ef`].
///
/// # Panics
/// Panics if the group size is not `m * n` or the residual dimension does
/// not match this rank's shard.
pub fn hitopk_all_reduce_ef_fused<C: Compressor + ?Sized>(
    peer: &Peer,
    x: &mut [f32],
    m: usize,
    n: usize,
    rho: f64,
    compressor: &mut C,
    ef: &mut ErrorFeedback,
) -> HiTopKReport {
    hitopk_all_reduce_ef_fused_scratch(peer, x, m, n, rho, compressor, ef, &mut CommScratch::new())
}

/// [`hitopk_all_reduce_ef_fused`] drawing every communication buffer from
/// `scratch`.
#[allow(clippy::too_many_arguments)]
pub fn hitopk_all_reduce_ef_fused_scratch<C: Compressor + ?Sized>(
    peer: &Peer,
    x: &mut [f32],
    m: usize,
    n: usize,
    rho: f64,
    compressor: &mut C,
    ef: &mut ErrorFeedback,
    scratch: &mut CommScratch,
) -> HiTopKReport {
    hitopk_fused_impl(peer, x, m, n, rho, compressor, Some(ef), scratch, None)
}

/// [`hitopk_all_reduce_ef_fused_scratch`] with per-stage spans and
/// counters recorded into `reg` (span names as in
/// [`hitopk_all_reduce_fused_traced`]).
#[allow(clippy::too_many_arguments)]
pub fn hitopk_all_reduce_ef_fused_traced<C: Compressor + ?Sized>(
    peer: &Peer,
    x: &mut [f32],
    m: usize,
    n: usize,
    rho: f64,
    compressor: &mut C,
    ef: &mut ErrorFeedback,
    scratch: &mut CommScratch,
    reg: &mut Registry,
) -> HiTopKReport {
    hitopk_fused_impl(peer, x, m, n, rho, compressor, Some(ef), scratch, Some(reg))
}

#[allow(clippy::too_many_arguments)]
fn hitopk_fused_impl<C: Compressor + ?Sized>(
    peer: &Peer,
    x: &mut [f32],
    m: usize,
    n: usize,
    rho: f64,
    compressor: &mut C,
    ef: Option<&mut ErrorFeedback>,
    scratch: &mut CommScratch,
    mut reg: Option<&mut Registry>,
) -> HiTopKReport {
    assert_eq!(peer.size(), m * n, "hitopk_all_reduce: group is not m*n");
    let d = x.len();
    let pos = grid_pos(peer.rank(), m, n);
    let intra = intra_node_members(pos.node, n);
    let inter = inter_node_members(pos.gpu, m, n);

    // Fused hop: intra-node ReduceScatter rides a shard-sized ring buffer
    // (x stays read-only) and the compressor consumes the reduced shard
    // straight out of it — no dense materialization in between.
    let span = obs::span_begin(&mut reg, "hitopk/fused reduce-compress");
    let (shard, reduced) = ring_reduce_scatter_fused(peer, x, &intra, scratch);
    debug_assert_eq!(shard, shard_for(d, n, pos.gpu));
    let k = shard_k(d, n, rho).min(shard.len());
    let selection: SparseGrad = match ef {
        Some(ef) => {
            assert_eq!(
                ef.dim(),
                shard.len(),
                "hitopk_all_reduce_ef: residual must match the shard"
            );
            let selection = ef.select(&reduced, k, compressor);
            ef.release(&selection);
            selection
        }
        None => compressor.compress(&reduced, k),
    };
    scratch.put_f32(reduced);
    obs::span_end(&mut reg, span, (d + shard.len()) as f64);

    // Inter-node AllGather of the selections, scattered into the (still
    // untouched) shard region of x. The fused path gathers the value and
    // index streams as one framed pair pipeline — m-1 ring hops instead of
    // the staged path's 2(m-1) — which is where fusion actually recoups
    // its bookkeeping: same bytes, half the messages, identical values.
    let span = obs::span_begin(&mut reg, "hitopk/inter all-gather");
    let blocks =
        all_gather_pairs_scratch(peer, &selection.values, &selection.indices, &inter, scratch);
    let inter_bytes_sent = group_wire_bytes(&selection, inter.len());

    ops::fill(shard.slice_mut(x), 0.0);
    let shard_nonzeros = scatter_gathered(shard.slice_mut(x), blocks, scratch);
    obs::span_end(&mut reg, span, (2 * m * k) as f64);

    // Intra-node AllGather overwrites every non-own chunk of x, so the
    // stale local values outside the shard never survive to the caller.
    let span = obs::span_begin(&mut reg, "hitopk/intra all-gather");
    ring_all_gather_scratch(peer, x, &intra, scratch);
    obs::span_end(&mut reg, span, d as f64);

    if let Some(reg) = reg.as_mut() {
        reg.counter_add("hitopk/invocations", 1);
        reg.counter_add("hitopk/fused_invocations", 1);
        reg.counter_add("hitopk/inter_bytes_sent", inter_bytes_sent as u64);
        reg.counter_add("hitopk/shard_nonzeros", shard_nonzeros as u64);
        reg.gauge_set("hitopk/k_per_shard", k as f64);
    }

    HiTopKReport {
        k_per_shard: k,
        shard_nonzeros,
        inter_bytes_sent,
    }
}

/// Fused HiTopKComm with error feedback over a [`ResilientPeer`]:
/// [`crate::resilience::hitopk_all_reduce_ef_resilient`] with the fused
/// reduce+compress hop. With clean faults it is bitwise identical to the
/// unfused resilient collective; a degraded member selects nothing and its
/// whole compensated shard survives in the residual, so the gradient-mass
/// ledger balances exactly as in the unfused path.
///
/// # Panics
/// Panics if the group size is not `m * n` or the residual dimension does
/// not match this rank's shard.
#[allow(clippy::too_many_arguments)] // mirrors hitopk_all_reduce_ef_resilient's signature
pub fn hitopk_all_reduce_ef_fused_resilient<C: Compressor + ?Sized>(
    rp: &mut ResilientPeer,
    x: &mut [f32],
    m: usize,
    n: usize,
    rho: f64,
    compressor: &mut C,
    ef: &mut ErrorFeedback,
    scratch: &mut CommScratch,
) -> HiTopKReport {
    assert_eq!(rp.size(), m * n, "hitopk_all_reduce_ef: group is not m*n");
    let d = x.len();
    let instance = rp.begin_instance();
    let pos = grid_pos(rp.rank(), m, n);
    let intra = intra_node_members(pos.node, n);
    let inter = inter_node_members(pos.gpu, m, n);

    let (shard, reduced) = ring_reduce_scatter_fused_resilient(rp, x, &intra, scratch);
    assert_eq!(
        ef.dim(),
        shard.len(),
        "hitopk_all_reduce_ef: residual must match the shard"
    );

    let k = shard_k(d, n, rho).min(shard.len());
    // Deadline check at the sparsification point: a degraded member selects
    // nothing and withholds its whole shard in the residual.
    let selection: SparseGrad = if rp.contribution_degraded(instance) {
        ef.withhold(&reduced);
        SparseGrad::empty(shard.len())
    } else {
        let selection = ef.select(&reduced, k, compressor);
        ef.release(&selection);
        selection
    };
    scratch.put_f32(reduced);

    let value_blocks = all_gather_f32_resilient(rp, &selection.values, &inter, scratch);
    let index_blocks = all_gather_u32_resilient(rp, &selection.indices, &inter, scratch);
    let inter_bytes_sent = group_wire_bytes(&selection, inter.len());

    let blocks = value_blocks.into_iter().zip(index_blocks);
    ops::fill(shard.slice_mut(x), 0.0);
    let shard_nonzeros = scatter_gathered(shard.slice_mut(x), blocks, scratch);

    ring_all_gather_resilient(rp, x, &intra, scratch);

    HiTopKReport {
        k_per_shard: k,
        shard_nonzeros,
        inter_bytes_sent,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::group::run_on_group;
    use crate::hierarchical::{hitopk_all_reduce, hitopk_all_reduce_ef, hitopk_all_reduce_traced};
    use crate::resilience::{hitopk_all_reduce_ef_resilient, CommFaults, ResiliencePolicy};
    use crate::ring::ring_reduce_scatter;
    use cloudtrain_compress::exact::SortTopK;
    use cloudtrain_compress::MsTopK;
    use cloudtrain_tensor::init;

    /// Per-rank deterministic test vector.
    fn vec_for(rank: usize, d: usize) -> Vec<f32> {
        let mut rng = init::rng_from_seed(12000 + rank as u64);
        init::gradient_like_tensor(d, &mut rng).into_vec()
    }

    #[test]
    fn fused_reduce_scatter_matches_in_place_bitwise() {
        for (p, d) in [(2usize, 10usize), (4, 37), (8, 64), (3, 5), (1, 7)] {
            let members: Vec<usize> = (0..p).collect();
            let in_place = run_on_group(p, |peer| {
                let mut x = vec_for(peer.rank(), d);
                let shard = ring_reduce_scatter(peer, &mut x, &members);
                (shard, shard.slice(&x).to_vec())
            });
            let fused = run_on_group(p, |peer| {
                let x = vec_for(peer.rank(), d);
                let mut scratch = CommScratch::new();
                let (shard, reduced) = ring_reduce_scatter_fused(peer, &x, &members, &mut scratch);
                // x must be untouched by the fused schedule.
                assert_eq!(x, vec_for(peer.rank(), d));
                (shard, reduced)
            });
            for (r, (a, b)) in in_place.iter().zip(&fused).enumerate() {
                assert_eq!(a.0, b.0, "p={p} d={d} rank {r}: shard descriptor");
                assert_eq!(a.1, b.1, "p={p} d={d} rank {r}: reduced shard bits");
            }
        }
    }

    #[test]
    fn fused_hitopk_matches_unfused_bitwise() {
        for (m, n, d, rho) in [
            (2usize, 2usize, 40usize, 0.2f64),
            (3, 2, 53, 0.1),
            (2, 4, 64, 0.5),
        ] {
            let unfused = run_on_group(m * n, |peer| {
                let mut x = vec_for(peer.rank(), d);
                let rep = hitopk_all_reduce(peer, &mut x, m, n, rho, &mut SortTopK);
                (x, rep)
            });
            let fused = run_on_group(m * n, |peer| {
                let mut x = vec_for(peer.rank(), d);
                let rep = hitopk_all_reduce_fused(peer, &mut x, m, n, rho, &mut SortTopK);
                (x, rep)
            });
            for (r, (a, b)) in unfused.iter().zip(&fused).enumerate() {
                assert_eq!(a.0, b.0, "m={m} n={n} rank {r}: vectors diverged");
                assert_eq!(a.1, b.1, "m={m} n={n} rank {r}: reports diverged");
            }
        }
    }

    #[test]
    fn fused_hitopk_with_mstopk_matches_unfused_bitwise() {
        let (m, n, d, rho) = (2usize, 2usize, 512usize, 0.05f64);
        let unfused = run_on_group(m * n, |peer| {
            let mut x = vec_for(peer.rank(), d);
            let mut c = MsTopK::new(3, 42);
            hitopk_all_reduce(peer, &mut x, m, n, rho, &mut c);
            x
        });
        let fused = run_on_group(m * n, |peer| {
            let mut x = vec_for(peer.rank(), d);
            let mut c = MsTopK::new(3, 42);
            hitopk_all_reduce_fused(peer, &mut x, m, n, rho, &mut c);
            x
        });
        assert_eq!(unfused, fused);
    }

    #[test]
    fn fused_ef_matches_unfused_over_rounds() {
        // Multi-round: residuals must track bit for bit across rounds.
        let (m, n, d, rho) = (2usize, 2usize, 60usize, 0.1f64);
        let shard_len = d.div_ceil(n);
        let run = |fused: bool| {
            run_on_group(m * n, |peer| {
                let mut ef = ErrorFeedback::new(shard_len);
                let mut scratch = CommScratch::new();
                let mut outs = Vec::new();
                for round in 0..3usize {
                    let mut x = vec_for(100 * round + peer.rank(), d);
                    if fused {
                        hitopk_all_reduce_ef_fused_scratch(
                            peer,
                            &mut x,
                            m,
                            n,
                            rho,
                            &mut SortTopK,
                            &mut ef,
                            &mut scratch,
                        );
                    } else {
                        hitopk_all_reduce_ef(peer, &mut x, m, n, rho, &mut SortTopK, &mut ef);
                    }
                    outs.push(x);
                }
                (outs, ef.residual().to_vec())
            })
        };
        assert_eq!(run(false), run(true));
    }

    #[test]
    fn fused_traced_is_bitwise_identical_and_spans_fused_hop() {
        let (m, n, d, rho) = (2usize, 2usize, 40usize, 0.25f64);
        let plain = run_on_group(m * n, |peer| {
            let mut x = vec_for(peer.rank(), d);
            hitopk_all_reduce_fused(peer, &mut x, m, n, rho, &mut SortTopK);
            x
        });
        let traced = run_on_group(m * n, |peer| {
            let mut x = vec_for(peer.rank(), d);
            let mut scratch = CommScratch::new();
            let mut reg = Registry::new();
            hitopk_all_reduce_fused_traced(
                peer,
                &mut x,
                m,
                n,
                rho,
                &mut SortTopK,
                &mut scratch,
                &mut reg,
            );
            (x, reg)
        });
        for (r, ((x, reg), p)) in traced.iter().zip(&plain).enumerate() {
            assert_eq!(x, p, "rank {r}: tracing perturbed the aggregation");
            let spans: Vec<&str> = reg.spans().iter().map(|s| s.name.as_str()).collect();
            assert_eq!(
                spans,
                vec![
                    "hitopk/fused reduce-compress",
                    "hitopk/inter all-gather",
                    "hitopk/intra all-gather",
                ],
                "rank {r}: span shape"
            );
            let shard_len = d.div_ceil(n);
            assert_eq!(reg.spans()[0].seconds(), (d + shard_len) as f64);
        }
    }

    #[test]
    fn fused_resilient_with_clean_faults_matches_unfused_bitwise() {
        let (m, n, d, rho) = (2usize, 2usize, 48usize, 0.2f64);
        let shard_len = d.div_ceil(n);
        let clean = CommFaults::new(7);
        let run = |fused: bool| {
            run_on_group(m * n, |peer| {
                let mut rp = ResilientPeer::new(peer, clean.clone(), ResiliencePolicy::default());
                let mut ef = ErrorFeedback::new(shard_len);
                let mut scratch = CommScratch::new();
                let mut x = vec_for(peer.rank(), d);
                if fused {
                    hitopk_all_reduce_ef_fused_resilient(
                        &mut rp,
                        &mut x,
                        m,
                        n,
                        rho,
                        &mut SortTopK,
                        &mut ef,
                        &mut scratch,
                    );
                } else {
                    hitopk_all_reduce_ef_resilient(
                        &mut rp,
                        &mut x,
                        m,
                        n,
                        rho,
                        &mut SortTopK,
                        &mut ef,
                        &mut scratch,
                    );
                }
                (x, ef.residual().to_vec())
            })
        };
        assert_eq!(run(false), run(true));
    }

    #[test]
    fn fused_resilient_conserves_mass_under_hostile_faults() {
        // transmitted + residual must equal each rank's compensated shard:
        // with degradation active, whatever a rank fails to send must
        // survive in its residual (checked via the aggregate identity
        // aggregated_shard + Σ residuals == Σ compensated shards).
        let (m, n, d, rho) = (2usize, 2usize, 48usize, 0.25f64);
        let shard_len = d.div_ceil(n);
        let faults = CommFaults::new(99).with_degrade(0.5);
        let results = run_on_group(m * n, |peer| {
            let mut rp = ResilientPeer::new(peer, faults.clone(), ResiliencePolicy::default());
            let mut ef = ErrorFeedback::new(shard_len);
            let mut scratch = CommScratch::new();
            let mut x = vec_for(peer.rank(), d);
            // Clean-fault pre-pass computes the compensated shard reference
            // (residual is zero on round 1, so it is just the reduced shard).
            let x_ref = {
                let x0 = vec_for(peer.rank(), d);
                let members = intra_node_members(grid_pos(peer.rank(), m, n).node, n);
                let (_, reduced) = ring_reduce_scatter_fused(peer, &x0, &members, &mut scratch);
                reduced
            };
            let rep = hitopk_all_reduce_ef_fused_resilient(
                &mut rp,
                &mut x,
                m,
                n,
                rho,
                &mut SortTopK,
                &mut ef,
                &mut scratch,
            );
            let report = rp.report();
            (x, ef.residual().to_vec(), x_ref, rep, report)
        });
        let degraded: usize = results
            .iter()
            .map(|(_, _, _, _, rep)| rep.degraded_members as usize)
            .sum();
        assert!(degraded > 0, "hostile seed must degrade someone");
        // Aggregate identity per shard: the aggregated value of shard j
        // (on any rank of the owning stream) plus both owners' residuals
        // equals the sum of both nodes' compensated shard-j sums.
        for gpu in 0..n {
            let shard = shard_for(d, n, gpu);
            let aggregated = shard.slice(&results[gpu].0); // rank `gpu` is node 0, gpu `gpu`
            let owners: Vec<usize> = (0..m).map(|node| node * n + gpu).collect();
            for (i, agg) in aggregated.iter().enumerate() {
                let compensated: f32 = owners.iter().map(|&r| results[r].2[i]).sum();
                let residuals: f32 = owners.iter().map(|&r| results[r].1[i]).sum();
                let diff = (agg + residuals - compensated).abs();
                assert!(
                    diff <= 1e-4 * compensated.abs().max(1.0),
                    "shard {gpu} elem {i}: mass leaked ({agg} + {residuals} != {compensated})"
                );
            }
        }
    }

    #[test]
    fn fused_path_reaches_zero_miss_steady_state() {
        let (m, n, d, rho) = (2usize, 2usize, 64usize, 0.2f64);
        let miss_growth = run_on_group(m * n, |peer| {
            let mut scratch = CommScratch::new();
            let shard_len = d.div_ceil(n);
            let mut ef = ErrorFeedback::new(shard_len);
            let mut x = vec_for(peer.rank(), d);
            hitopk_all_reduce_ef_fused_scratch(
                peer,
                &mut x,
                m,
                n,
                rho,
                &mut SortTopK,
                &mut ef,
                &mut scratch,
            );
            let warm = scratch.misses();
            for round in 1..4usize {
                let mut y = vec_for(50 * round + peer.rank(), d);
                hitopk_all_reduce_ef_fused_scratch(
                    peer,
                    &mut y,
                    m,
                    n,
                    rho,
                    &mut SortTopK,
                    &mut ef,
                    &mut scratch,
                );
            }
            (warm, scratch.misses())
        });
        for (r, (warm, total)) in miss_growth.iter().enumerate() {
            assert!(*warm > 0, "rank {r}: warmup should allocate");
            assert_eq!(total, warm, "rank {r}: fused steady state allocated");
        }
    }

    #[test]
    fn fused_traced_aggregation_matches_unfused_traced() {
        // Cross-check against the unfused traced variant too: same bits,
        // different span shape (4 spans unfused, 3 fused).
        let (m, n, d, rho) = (2usize, 2usize, 40usize, 0.25f64);
        let unfused = run_on_group(m * n, |peer| {
            let mut x = vec_for(peer.rank(), d);
            let mut scratch = CommScratch::new();
            let mut reg = Registry::new();
            hitopk_all_reduce_traced(
                peer,
                &mut x,
                m,
                n,
                rho,
                &mut SortTopK,
                &mut scratch,
                &mut reg,
            );
            (x, reg.spans().len())
        });
        let fused = run_on_group(m * n, |peer| {
            let mut x = vec_for(peer.rank(), d);
            let mut scratch = CommScratch::new();
            let mut reg = Registry::new();
            hitopk_all_reduce_fused_traced(
                peer,
                &mut x,
                m,
                n,
                rho,
                &mut SortTopK,
                &mut scratch,
                &mut reg,
            );
            (x, reg.spans().len())
        });
        for (r, ((xa, sa), (xb, sb))) in unfused.iter().zip(&fused).enumerate() {
            assert_eq!(xa, xb, "rank {r}: aggregation diverged");
            assert_eq!((*sa, *sb), (4, 3), "rank {r}: span counts");
        }
    }
}
