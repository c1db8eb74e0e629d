//! O(k) sparse allreduce — balanced index partitioning with split-and-merge
//! reduction (Li & Hoefler, *Near-Optimal Sparse Allreduce*, PPoPP 2022).
//!
//! HiTopKComm's inter-node step is a sparse All**Gather**: every member
//! broadcasts its whole `k̃`-selection to the other `m-1` members, costing
//! `O(m·k̃)` wire bytes per member. This module replaces that step with the
//! split-and-merge schedule:
//!
//! 1. **Partition.** The shard's index space is split into `m` balanced,
//!    contiguous ranges, one owned by each inter-group member (in member
//!    order). Each member *splits* its selection by owner.
//! 2. **Split.** Each member sends partition `t` of its selection to member
//!    `t` — point-to-point, `O(k̃)` bytes total per member.
//! 3. **Merge.** Each member reduces the `m` partition lists it holds (its
//!    own plus `m-1` received) into a dense accumulator over its range, in
//!    member order, then extracts the surviving nonzeros in ascending index
//!    order — the *merged* list, at most `range · 1` and typically `≈ k̃`
//!    entries thanks to selection overlap.
//! 4. **AllGather.** One sparse AllGather of the (already reduced) merged
//!    lists reassembles the aggregated shard everywhere.
//!
//! Total inter-node traffic per member is `≈ 8k̃` split bytes plus
//! `8·merged·(m-1)` gather bytes, where `merged ≈ nnz/m` and `nnz` is the
//! aggregated shard's nonzero count. When the members' selections overlap —
//! the steady state of error-feedback top-k training, whose heavy
//! coordinates are structural — `nnz` stays `O(k̃)` and the total is
//! `≈ 16k̃` *independent of `m`*, beating HiTopKComm's `8k̃(m-1)` from
//! `m ≥ 3`. With fully disjoint selections `nnz → m·k̃` and the schedule
//! degrades to HiTopKComm-like volume (never asymptotically worse). The
//! per-layer autotuner in `cloudtrain-engine` models exactly this with an
//! overlap parameter and picks the cheaper schedule per layer.
//!
//! **Determinism contract.** For every index, contributions accumulate in
//! inter-member order — the same order HiTopKComm's scatter-accumulate uses
//! — so with the same compressor state the aggregated vector is *bitwise
//! identical* to `hitopk_all_reduce*`'s. Only the wire schedule (and hence
//! the byte accounting) differs.
//!
//! Two entry points: [`ok_sparse_all_reduce`] and [`ok_sparse_all_reduce_ef`]
//! (error feedback at the sparsification point, over any transport — a
//! [`crate::resilience::ResilientPeer`] included, bitwise equal to the
//! plain peer under a clean plan).

use cloudtrain_compress::{Compressor, ErrorFeedback, SparseGrad};
use cloudtrain_tensor::ops;
use cloudtrain_tensor::partition::{shard_for, shards, Shard};

use crate::group::{Peer, Transport};
use crate::hierarchical::{pair_wire_bytes, scatter_and_all_gather, shard_k};
use crate::ring::{
    all_gather_pairs_scratch, frame_pair, member_index, ring_reduce_scatter_scratch, unframe_pair,
};
use crate::scratch::CommScratch;
use crate::torus::{grid_pos, inter_node_members, intra_node_members};

/// Per-invocation statistics of an O(k) sparse allreduce.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct OkSparseReport {
    /// Elements selected per shard (`k̃ = ρ·d/n`, same budget as HiTopKComm).
    pub k_per_shard: usize,
    /// Entries in this member's merged (reduced) partition list — the
    /// payload of its AllGather contribution. At most its range length.
    pub merged_len: usize,
    /// Distinct nonzero coordinates in this GPU's aggregated shard
    /// (identical to the HiTopKComm twin's by the determinism contract).
    pub shard_nonzeros: usize,
    /// Bytes this GPU sent over the inter-node links: split partitions
    /// plus the merged-list broadcast.
    pub inter_bytes_sent: usize,
}

/// What [`aggregate_selection`] measured while aggregating one selection.
struct AggregateStats {
    /// Selection entries sent away during the split (everything not in this
    /// member's own range).
    split_entries_sent: usize,
    /// Entries in this member's merged list.
    merged_len: usize,
}

/// Owner ordinal of shard-relative index `idx` under the balanced
/// contiguous partition `ranges`.
fn owner_of(ranges: &[Shard], idx: usize) -> usize {
    ranges.partition_point(|r| r.end <= idx)
}

/// Splits `selection` by owner range into `q` scratch-backed partition
/// pairs (selection order preserved within each partition).
fn split_by_owner(
    selection: &SparseGrad,
    ranges: &[Shard],
    scratch: &mut CommScratch,
) -> (Vec<Vec<f32>>, Vec<Vec<u32>>) {
    let q = ranges.len();
    let mut part_vals: Vec<Vec<f32>> = (0..q).map(|_| scratch.take_f32(0)).collect();
    let mut part_idxs: Vec<Vec<u32>> = (0..q).map(|_| scratch.take_u32(0)).collect();
    for (v, i) in selection.values.iter().zip(&selection.indices) {
        let t = owner_of(ranges, *i as usize);
        part_vals[t].push(*v);
        part_idxs[t].push(*i);
    }
    (part_vals, part_idxs)
}

/// Accumulates one partition list into the dense accumulator over
/// `my_range`.
fn merge_into_range(acc: &mut [f32], my_range: Shard, vals: &[f32], idxs: &[u32]) {
    for (v, i) in vals.iter().zip(idxs) {
        let off = *i as usize - my_range.start;
        acc[off] += v;
    }
}

/// The merge step, whatever the transport: accumulates the partition lists
/// for `my_range` in member order — this member's own partition (`parts`,
/// split by [`split_by_owner`]) at ordinal `me_ord`, every other ordinal's
/// framed list as `recv(t)` delivers it — returns all of them to the pool,
/// and extracts the merged nonzeros in ascending index order. Per index
/// this is the same member-order accumulation the hitopk scatter performs —
/// the bitwise-identity hinge. Returns `(merged_vals, merged_idxs)`, both
/// scratch-backed, indices shard-relative.
fn merge_and_extract(
    (part_vals, part_idxs): (Vec<Vec<f32>>, Vec<Vec<u32>>),
    me_ord: usize,
    my_range: Shard,
    mut recv: impl FnMut(usize) -> Vec<u32>,
    scratch: &mut CommScratch,
) -> (Vec<f32>, Vec<u32>) {
    let mut acc = scratch.take_f32(my_range.len());
    for t in 0..part_vals.len() {
        if t == me_ord {
            merge_into_range(&mut acc, my_range, &part_vals[t], &part_idxs[t]);
        } else {
            let (vals, idxs) = unframe_pair(recv(t), scratch);
            merge_into_range(&mut acc, my_range, &vals, &idxs);
            scratch.put_f32(vals);
            scratch.put_u32(idxs);
        }
    }
    for (vals, idxs) in part_vals.into_iter().zip(part_idxs) {
        scratch.put_f32(vals);
        scratch.put_u32(idxs);
    }
    let mut merged_vals = scratch.take_f32(0);
    let mut merged_idxs = scratch.take_u32(0);
    for (off, v) in acc.iter().enumerate() {
        if *v != 0.0 {
            merged_vals.push(*v);
            merged_idxs.push((my_range.start + off) as u32);
        }
    }
    scratch.put_f32(acc);
    (merged_vals, merged_idxs)
}

/// The split → merge → AllGather core of every O(k) path, over whichever
/// transport the caller holds. `selection` is this member's (possibly
/// empty) shard-relative contribution over a `shard_len`-element shard;
/// `inter` fixes both the member order of the reduction and the partition
/// ownership. Returns the gathered merged lists as value and index blocks
/// in member order — each strictly ascending, their ranges disjoint — for
/// step (iv) to scatter.
fn aggregate_selection<T: Transport + ?Sized>(
    peer: &T,
    shard_len: usize,
    selection: &SparseGrad,
    inter: &[usize],
    scratch: &mut CommScratch,
) -> (AggregateStats, Vec<Vec<f32>>, Vec<Vec<u32>>) {
    let q = inter.len();
    let me_ord = member_index(inter, peer.rank());
    let ranges = shards(shard_len, q);

    // Split: send partition `t` to inter member `t` (non-blocking sends,
    // so every member can post all q-1 sends before its first receive —
    // deadlock-free without any ordering between groups).
    let parts = split_by_owner(selection, &ranges, scratch);
    let split_entries_sent = selection.values.len() - parts.0[me_ord].len();
    for t in (0..q).filter(|&t| t != me_ord) {
        let frame = frame_pair(&parts.0[t], &parts.1[t], scratch);
        peer.send_u32(inter[t], frame);
    }

    let (merged_vals, merged_idxs) = merge_and_extract(
        parts,
        me_ord,
        ranges[me_ord],
        |t| peer.recv_u32(inter[t]),
        scratch,
    );
    let merged_len = merged_vals.len();

    // AllGather of the merged (already reduced) lists. Ranges are
    // disjoint, so scattering them writes each coordinate exactly once.
    let blocks = all_gather_pairs_scratch(peer, &merged_vals, &merged_idxs, inter, scratch);
    scratch.put_f32(merged_vals);
    scratch.put_u32(merged_idxs);
    let (value_blocks, index_blocks) = blocks.into_iter().unzip();

    let stats = AggregateStats {
        split_entries_sent,
        merged_len,
    };
    (stats, value_blocks, index_blocks)
}

/// Standard byte accounting for one O(k) invocation: split partitions out
/// (values + indices each) plus the merged broadcast to `q - 1` members.
fn ok_sparse_wire_bytes(stats: &AggregateStats, q: usize) -> usize {
    pair_wire_bytes(stats.split_entries_sent) + pair_wire_bytes(stats.merged_len) * (q - 1)
}

/// O(k) sparse allreduce over an `m × n` grid: HiTopKComm's hierarchy
/// (dense intra-node ReduceScatter, per-shard top-k, intra-node AllGather
/// of the gathered blocks) with the inter-node AllGather replaced by the
/// split-and-merge schedule. On return every rank's `x` holds the
/// identical aggregated vector — bitwise equal to
/// [`crate::hierarchical::hitopk_all_reduce`]'s with the same compressor
/// state. Like that entry, this is the error-feedback body over a fresh
/// zero residual, which selects from exactly the node-local shard sum; over
/// a plain [`Peer`] nothing is ever withheld.
///
/// # Examples
/// ```
/// use cloudtrain_collectives::group::run_on_group;
/// use cloudtrain_collectives::sparse_allreduce::ok_sparse_all_reduce;
/// use cloudtrain_compress::MsTopK;
///
/// // 2 nodes x 2 GPUs aggregate sparsified gradients at density 0.25.
/// let results = run_on_group(4, |peer| {
///     let mut grad = vec![peer.rank() as f32 + 1.0; 64];
///     grad[peer.rank()] = 100.0;
///     let mut topk = MsTopK::new(30, peer.rank() as u64);
///     ok_sparse_all_reduce(peer, &mut grad, 2, 2, 0.25, &mut topk);
///     grad
/// });
/// assert!(results.iter().all(|r| r == &results[0]));
/// ```
///
/// # Panics
/// Panics if the group size is not `m * n`.
pub fn ok_sparse_all_reduce<C: Compressor + ?Sized>(
    peer: &Peer,
    x: &mut [f32],
    m: usize,
    n: usize,
    rho: f64,
    compressor: &mut C,
) -> OkSparseReport {
    let shard = shard_for(x.len(), n, grid_pos(peer.rank(), m, n).gpu);
    let mut ef = ErrorFeedback::new(shard.len());
    ok_sparse_all_reduce_ef(
        peer,
        x,
        m,
        n,
        rho,
        compressor,
        &mut ef,
        &mut CommScratch::new(),
    )
}

/// O(k) sparse allreduce with error feedback at the sparsification point
/// (the shard owner's residual, exactly as in
/// [`crate::hierarchical::hitopk_all_reduce_ef`] — the two are bitwise
/// interchangeable, so the mass-conservation ledger verifies either),
/// drawing every communication buffer from `scratch`.
///
/// A member whose transport withholds its contribution
/// ([`Transport::contribution_withheld`], e.g. a degraded draw of a
/// [`crate::resilience::ResilientPeer`]'s fault plan, identical on all
/// ranks) transmits an empty selection — its whole reduced shard stays in
/// the residual and is re-injected next invocation. The transport's draw
/// is taken once per invocation, before selecting. This is the one body of
/// every O(k) path.
///
/// # Panics
/// Panics if the group size is not `m * n` or the residual dimension does
/// not match this rank's shard.
#[allow(clippy::too_many_arguments)]
pub fn ok_sparse_all_reduce_ef<T: Transport + ?Sized, C: Compressor + ?Sized>(
    peer: &T,
    x: &mut [f32],
    m: usize,
    n: usize,
    rho: f64,
    compressor: &mut C,
    ef: &mut ErrorFeedback,
    scratch: &mut CommScratch,
) -> OkSparseReport {
    assert_eq!(peer.size(), m * n, "ok_sparse_all_reduce: group is not m*n");
    let d = x.len();
    let pos = grid_pos(peer.rank(), m, n);
    let intra = intra_node_members(pos.node, n);
    let inter = inter_node_members(pos.gpu, m, n);

    let shard = ring_reduce_scatter_scratch(peer, x, &intra, scratch);
    debug_assert_eq!(shard, shard_for(d, n, pos.gpu));

    let k = shard_k(d, n, rho).min(shard.len());
    assert_eq!(
        ef.dim(),
        shard.len(),
        "ok_sparse_all_reduce_ef: residual must match the shard"
    );
    let selection = if peer.contribution_withheld() {
        ef.withhold(shard.slice(x));
        SparseGrad::empty(shard.len())
    } else {
        let sel = ef.select(shard.slice(x), k, compressor);
        ef.release(&sel);
        sel
    };

    let (stats, value_blocks, index_blocks) =
        aggregate_selection(peer, shard.len(), &selection, &inter, scratch);
    let inter_bytes_sent = ok_sparse_wire_bytes(&stats, inter.len());

    // The ReduceScatter left partial sums outside the shard.
    ops::fill(x, 0.0);
    let shard_nonzeros =
        scatter_and_all_gather(peer, x, &intra, value_blocks, index_blocks, scratch);

    OkSparseReport {
        k_per_shard: k,
        merged_len: stats.merged_len,
        shard_nonzeros,
        inter_bytes_sent,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::group::run_on_group;
    use crate::hierarchical::{group_wire_bytes, hitopk_all_reduce, hitopk_all_reduce_ef};
    use crate::resilience::{CommFaults, ResiliencePolicy, ResilientPeer};
    use cloudtrain_compress::exact::SortTopK;
    use cloudtrain_compress::MsTopK;
    use cloudtrain_tensor::init;

    fn vec_for(rank: usize, d: usize) -> Vec<f32> {
        let mut rng = init::rng_from_seed(14_000 + rank as u64);
        init::gradient_like_tensor(d, &mut rng).into_vec()
    }

    fn shard_len(d: usize, n: usize, rank: usize) -> usize {
        shard_for(d, n, rank % n).len()
    }

    /// `(m, n, d, rho)` grids both bitwise tests run: regular shapes, then
    /// the degenerate ones — shards shorter than `m` (empty owner ranges),
    /// `d < n` (empty shards), `d = 1` and a single node.
    const SHAPES: [(usize, usize, usize, f64); 8] = [
        (2, 4, 300, 0.05),
        (4, 2, 257, 0.1),
        (3, 2, 128, 0.2),
        (2, 2, 31, 0.5),
        (4, 2, 5, 0.5),
        (2, 4, 3, 0.5),
        (2, 2, 1, 0.5),
        (1, 3, 50, 0.2),
    ];

    /// The determinism contract: same compressor state → bitwise identical
    /// aggregate to the hitopk twin (only the wire schedule differs).
    #[test]
    fn matches_hitopk_bitwise() {
        for (m, n, d, rho) in SHAPES {
            let hitopk = run_on_group(m * n, |peer| {
                let mut x = vec_for(peer.rank(), d);
                let mut c = MsTopK::new(25, peer.rank() as u64);
                let rep = hitopk_all_reduce(peer, &mut x, m, n, rho, &mut c);
                (x, rep.shard_nonzeros)
            });
            let oksparse = run_on_group(m * n, |peer| {
                let mut x = vec_for(peer.rank(), d);
                let mut c = MsTopK::new(25, peer.rank() as u64);
                let rep = ok_sparse_all_reduce(peer, &mut x, m, n, rho, &mut c);
                assert!(rep.shard_nonzeros >= 1 || shard_len(d, n, peer.rank()) == 0);
                (x, rep.shard_nonzeros)
            });
            assert_eq!(hitopk, oksparse, "m={m} n={n} d={d}: schedules diverged");
        }
    }

    #[test]
    fn ef_matches_hitopk_ef_bitwise_over_rounds() {
        for (m, n, d, rho) in SHAPES {
            let run_hitopk = run_on_group(m * n, |peer| {
                let mut ef = ErrorFeedback::new(shard_len(d, n, peer.rank()));
                let mut c = SortTopK;
                let mut out = Vec::new();
                for round in 0..3 {
                    let mut x = vec_for(100 * round + peer.rank(), d);
                    hitopk_all_reduce_ef(peer, &mut x, m, n, rho, &mut c, &mut ef);
                    out.push(x);
                }
                (out, ef.residual().to_vec())
            });
            let run_oksparse = run_on_group(m * n, |peer| {
                let mut ef = ErrorFeedback::new(shard_len(d, n, peer.rank()));
                let mut c = SortTopK;
                let mut scratch = CommScratch::new();
                let mut out = Vec::new();
                for round in 0..3 {
                    let mut x = vec_for(100 * round + peer.rank(), d);
                    ok_sparse_all_reduce_ef(peer, &mut x, m, n, rho, &mut c, &mut ef, &mut scratch);
                    out.push(x);
                }
                (out, ef.residual().to_vec())
            });
            assert_eq!(run_hitopk, run_oksparse, "m={m} n={n} d={d}");
        }
    }

    /// Gradients in the regime sparse training targets: a shared set of
    /// structural heavy coordinates (the same layer positions are large on
    /// every node) plus small per-rank noise, so node selections largely
    /// coincide.
    fn heavy_hitter_vec(rank: usize, d: usize) -> Vec<f32> {
        let mut v = vec_for(rank, d);
        let heavies = d / 10;
        for j in 0..heavies {
            let i = (j * 613) % d;
            let sign = if j % 2 == 0 { 1.0 } else { -1.0 };
            v[i] += sign * 10.0 * ((j % 7) as f32 + 1.0);
        }
        v
    }

    /// The point of the schedule: past two nodes, with overlapping
    /// selections split-and-merge moves fewer inter-node bytes than
    /// hitopk's selection broadcast.
    #[test]
    fn beats_hitopk_traffic_from_three_nodes() {
        let (n, d, rho) = (2usize, 480usize, 0.05f64);
        for m in [3usize, 4, 6] {
            let pairs = run_on_group(m * n, move |peer| {
                let mut x = heavy_hitter_vec(peer.rank(), d);
                let mut c = SortTopK;
                let ok = ok_sparse_all_reduce(peer, &mut x, m, n, rho, &mut c);
                let mut y = heavy_hitter_vec(peer.rank(), d);
                let hi = hitopk_all_reduce(peer, &mut y, m, n, rho, &mut c);
                (ok, hi)
            });
            for (r, (ok, hi)) in pairs.iter().enumerate() {
                assert!(
                    ok.inter_bytes_sent < hi.inter_bytes_sent,
                    "m={m} rank {r}: O(k) sent {} >= hitopk's {}",
                    ok.inter_bytes_sent,
                    hi.inter_bytes_sent
                );
            }
        }
    }

    #[test]
    fn report_byte_accounting_is_exact() {
        let (m, n, d, rho) = (4usize, 2usize, 400usize, 0.1f64);
        let reports = run_on_group(m * n, |peer| {
            let mut x = vec_for(peer.rank(), d);
            let mut c = SortTopK;
            ok_sparse_all_reduce(peer, &mut x, m, n, rho, &mut c)
        });
        let k = shard_k(d, n, rho);
        for rep in &reports {
            assert_eq!(rep.k_per_shard, k);
            // Split sends at most the whole selection; merged entries are at
            // most the range, at least ceil(k/m) when selections collide.
            assert!(
                rep.inter_bytes_sent
                    <= pair_wire_bytes(k) + pair_wire_bytes(rep.merged_len) * (m - 1)
            );
            assert!(rep.merged_len >= 1);
            assert!(rep.shard_nonzeros <= m * k);
        }
    }

    /// `pair_wire_bytes` and `group_wire_bytes` agree on identical traffic,
    /// so O(k) and hitopk byte reports are directly comparable.
    #[test]
    fn wire_byte_helpers_agree() {
        let sel = SparseGrad {
            values: vec![1.0; 7],
            indices: (0..7).collect(),
            dim: 64,
        };
        for g in 1..6 {
            assert_eq!(
                group_wire_bytes(&sel, g),
                pair_wire_bytes(sel.values.len()) * g.saturating_sub(1)
            );
        }
    }

    #[test]
    fn resilient_clean_plan_is_bitwise_identical_to_plain() {
        let (m, n, d, rho) = (2usize, 4usize, 240usize, 0.05f64);
        let plain = run_on_group(m * n, |peer| {
            let mut ef = ErrorFeedback::new(shard_len(d, n, peer.rank()));
            let mut c = SortTopK;
            let mut scratch = CommScratch::new();
            let mut out = Vec::new();
            for round in 0..2 {
                let mut x = vec_for(60 * round + peer.rank(), d);
                ok_sparse_all_reduce_ef(peer, &mut x, m, n, rho, &mut c, &mut ef, &mut scratch);
                out.push(x);
            }
            (out, ef.residual().to_vec())
        });
        let resilient = run_on_group(m * n, |peer| {
            let rp = ResilientPeer::new(peer, CommFaults::new(7), ResiliencePolicy::default());
            let mut ef = ErrorFeedback::new(shard_len(d, n, peer.rank()));
            let mut c = SortTopK;
            let mut scratch = CommScratch::new();
            let mut out = Vec::new();
            for round in 0..2 {
                let mut x = vec_for(60 * round + peer.rank(), d);
                ok_sparse_all_reduce_ef(&rp, &mut x, m, n, rho, &mut c, &mut ef, &mut scratch);
                out.push(x);
            }
            (out, ef.residual().to_vec())
        });
        assert_eq!(plain, resilient);
    }

    #[test]
    fn hostile_faults_keep_replicas_identical_and_mass_in_residuals() {
        let (m, n, d, rho) = (2usize, 4usize, 240usize, 0.05f64);
        let faults = CommFaults::new(11).with_drops(0.2).straggle(5, 0.9);
        let results = run_on_group(m * n, move |peer| {
            let rp = ResilientPeer::new(peer, faults.clone(), ResiliencePolicy::default());
            let mut ef = ErrorFeedback::new(shard_len(d, n, peer.rank()));
            let mut c = SortTopK;
            let mut scratch = CommScratch::new();
            let mut x = Vec::new();
            for round in 0..3 {
                x = vec_for(60 * round + peer.rank(), d);
                ok_sparse_all_reduce_ef(&rp, &mut x, m, n, rho, &mut c, &mut ef, &mut scratch);
            }
            (x, ef.residual_norm(), rp.report())
        });
        for r in 1..m * n {
            assert_eq!(results[0].0, results[r].0, "rank {r} replica diverged");
        }
        // The straggler's degraded contributions stay in its residual.
        assert!(results[5].1 > 0.0, "straggler residual should hold mass");
        assert!(
            results.iter().any(|(_, _, rep)| rep.degraded_members > 0),
            "the plan should degrade someone"
        );
    }

    /// A caller-held arena, reused across rounds, hands back the bits a
    /// fresh arena per call does. (The traced twin this once also covered
    /// is gone; the arena path it shared is what remains.)
    #[test]
    fn scratch_and_traced_twins_are_bitwise_identical() {
        let (m, n, d, rho) = (2usize, 4usize, 300usize, 0.05f64);
        let plain = run_on_group(m * n, |peer| {
            let mut c = MsTopK::new(25, peer.rank() as u64);
            let mut out = Vec::new();
            for round in 0..3 {
                let mut x = vec_for(50 * round + peer.rank(), d);
                let rep = ok_sparse_all_reduce(peer, &mut x, m, n, rho, &mut c);
                out.push((x, rep));
            }
            out
        });
        let scratched = run_on_group(m * n, |peer| {
            let mut scratch = CommScratch::new();
            let mut c = MsTopK::new(25, peer.rank() as u64);
            let mut out = Vec::new();
            for round in 0..3 {
                let mut x = vec_for(50 * round + peer.rank(), d);
                let mut ef = ErrorFeedback::new(shard_len(d, n, peer.rank()));
                let rep =
                    ok_sparse_all_reduce_ef(peer, &mut x, m, n, rho, &mut c, &mut ef, &mut scratch);
                out.push((x, rep));
            }
            out
        });
        assert_eq!(plain, scratched);
    }

    #[test]
    fn reaches_zero_miss_steady_state() {
        let (m, n, d, rho) = (2usize, 4usize, 240usize, 0.05f64);
        let miss_growth = run_on_group(m * n, |peer| {
            let mut scratch = CommScratch::new();
            let mut c = SortTopK;
            let mut x = vec_for(peer.rank(), d);
            let mut ef = ErrorFeedback::new(shard_len(d, n, peer.rank()));
            ok_sparse_all_reduce_ef(peer, &mut x, m, n, rho, &mut c, &mut ef, &mut scratch);
            let warm = scratch.misses();
            for round in 1..4 {
                let mut y = vec_for(50 * round + peer.rank(), d);
                let mut ef = ErrorFeedback::new(shard_len(d, n, peer.rank()));
                ok_sparse_all_reduce_ef(peer, &mut y, m, n, rho, &mut c, &mut ef, &mut scratch);
            }
            (warm, scratch.misses())
        });
        for (r, (warm, total)) in miss_growth.iter().enumerate() {
            assert!(*warm > 0, "rank {r}: warmup should allocate");
            assert_eq!(
                total, warm,
                "rank {r}: steady-state oksparse allocated communication buffers"
            );
        }
    }

    #[test]
    fn single_node_degenerates_gracefully() {
        let (m, n, d, rho) = (1usize, 4usize, 96usize, 0.2f64);
        let hitopk = run_on_group(m * n, |peer| {
            let mut x = vec_for(peer.rank(), d);
            let mut c = SortTopK;
            hitopk_all_reduce(peer, &mut x, m, n, rho, &mut c);
            x
        });
        let oksparse = run_on_group(m * n, |peer| {
            let mut x = vec_for(peer.rank(), d);
            let mut c = SortTopK;
            ok_sparse_all_reduce(peer, &mut x, m, n, rho, &mut c);
            x
        });
        assert_eq!(hitopk, oksparse);
    }

    #[test]
    fn owner_lookup_covers_ranges() {
        let ranges = shards(10, 3); // [0,4) [4,7) [7,10)
        assert_eq!(owner_of(&ranges, 0), 0);
        assert_eq!(owner_of(&ranges, 3), 0);
        assert_eq!(owner_of(&ranges, 4), 1);
        assert_eq!(owner_of(&ranges, 6), 1);
        assert_eq!(owner_of(&ranges, 7), 2);
        assert_eq!(owner_of(&ranges, 9), 2);
    }
}
