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
//! the byte accounting) differs. The same twin discipline as the rest of
//! the crate applies: scratch, traced, identity-reordered, clean-resilient
//! and clean-deadline variants are all bitwise identical to the plain one.

use cloudtrain_compress::quantize::Quantizer;
use cloudtrain_compress::{Compressor, ErrorFeedback, SparseGrad};
use cloudtrain_obs::{self as obs, Registry};
use cloudtrain_tensor::ops;
use cloudtrain_tensor::partition::{shard_for, shards, Shard};

use crate::deadline::{DeadlineFaults, DeadlinePolicy, DeadlineReport};
use crate::group::Peer;
use crate::hierarchical::{pair_wire_bytes, scatter_gathered, shard_k};
use crate::reorder::inter_members_ordered;
use crate::resilience::{
    all_gather_f32_resilient, all_gather_u32_resilient, ring_all_gather_resilient,
    ring_reduce_scatter_resilient, ResilientPeer,
};
use crate::ring::{
    all_gather_pairs_scratch, frame_pair, member_index, ring_all_gather_scratch,
    ring_reduce_scatter_scratch, unframe_pair,
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
    /// Per-member split partition lengths (indexed by inter ordinal),
    /// for wire formats with per-message overhead.
    split_lens: Vec<usize>,
    /// Entries in this member's merged list.
    merged_len: usize,
    /// Nonzeros in the aggregated shard.
    shard_nonzeros: usize,
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

/// Merges partition lists into a dense accumulator over `my_range` (in the
/// order the closure yields them), then extracts the merged nonzero list in
/// ascending index order. Returns `(merged_vals, merged_idxs)` — both
/// scratch-backed, indices shard-relative.
fn merge_into_range(acc: &mut [f32], my_range: Shard, vals: &[f32], idxs: &[u32]) {
    for (v, i) in vals.iter().zip(idxs) {
        let off = *i as usize - my_range.start;
        acc[off] += v;
    }
}

/// The split → merge → AllGather → scatter core, shared by the plain, EF,
/// reordered, deadline and quantized variants. `selection` is this member's
/// (possibly empty, possibly lossy) shard-relative contribution; `inter`
/// fixes both the member order of the reduction and the partition
/// ownership.
fn aggregate_selection(
    peer: &Peer,
    x: &mut [f32],
    shard: Shard,
    selection: &SparseGrad,
    inter: &[usize],
    scratch: &mut CommScratch,
) -> AggregateStats {
    let q = inter.len();
    let me_ord = member_index(inter, peer.rank());
    let ranges = shards(shard.len(), q);
    let my_range = ranges[me_ord];

    // Split: send partition `t` to inter member `t` (non-blocking sends,
    // so every member can post all q-1 sends before its first receive —
    // deadlock-free without any ordering between groups).
    let (part_vals, part_idxs) = split_by_owner(selection, &ranges, scratch);
    let split_lens: Vec<usize> = part_vals.iter().map(Vec::len).collect();
    let split_entries_sent = selection.values.len() - split_lens[me_ord];
    for t in 0..q {
        if t == me_ord {
            continue;
        }
        let frame = frame_pair(&part_vals[t], &part_idxs[t], scratch);
        peer.send_u32(inter[t], frame);
    }

    // Merge: accumulate the q partition lists for my range in member order
    // (own partition at its ordinal), then extract ascending-index
    // nonzeros. Per index this is the same member-order accumulation the
    // hitopk scatter performs — the bitwise-identity hinge.
    let mut acc = scratch.take_f32(my_range.len());
    for (t, member) in inter.iter().enumerate() {
        if t == me_ord {
            merge_into_range(&mut acc, my_range, &part_vals[t], &part_idxs[t]);
        } else {
            let (vals, idxs) = unframe_pair(peer.recv_u32(*member), scratch);
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
    let merged_len = merged_vals.len();

    // AllGather of the merged (already reduced) lists, then one scatter per
    // block into the zeroed shard. Ranges are disjoint, so each coordinate
    // is written exactly once.
    let blocks = all_gather_pairs_scratch(peer, &merged_vals, &merged_idxs, inter, scratch);
    scratch.put_f32(merged_vals);
    scratch.put_u32(merged_idxs);
    ops::fill(shard.slice_mut(x), 0.0);
    let shard_nonzeros = scatter_gathered(shard.slice_mut(x), blocks, scratch);

    AggregateStats {
        split_entries_sent,
        split_lens,
        merged_len,
        shard_nonzeros,
    }
}

/// Standard byte accounting for one O(k) invocation: split partitions out
/// (values + indices each) plus the merged broadcast to `q - 1` members.
fn ok_sparse_wire_bytes(stats: &AggregateStats, q: usize) -> usize {
    pair_wire_bytes(stats.split_entries_sent) + pair_wire_bytes(stats.merged_len) * (q - 1)
}

#[allow(clippy::too_many_arguments)]
fn ok_sparse_impl<C: Compressor + ?Sized>(
    peer: &Peer,
    x: &mut [f32],
    m: usize,
    n: usize,
    rho: f64,
    compressor: &mut C,
    mut ef: Option<&mut ErrorFeedback>,
    node_order: Option<&[usize]>,
    scratch: &mut CommScratch,
    mut reg: Option<&mut Registry>,
) -> OkSparseReport {
    assert_eq!(peer.size(), m * n, "ok_sparse_all_reduce: group is not m*n");
    let d = x.len();
    let pos = grid_pos(peer.rank(), m, n);
    let intra = intra_node_members(pos.node, n);
    let inter = match node_order {
        Some(order) => inter_members_ordered(pos.gpu, order, n),
        None => inter_node_members(pos.gpu, m, n),
    };

    let span = obs::span_begin(&mut reg, "oksparse/intra reduce-scatter");
    let shard = ring_reduce_scatter_scratch(peer, x, &intra, scratch);
    obs::span_end(&mut reg, span, d as f64);
    debug_assert_eq!(shard, shard_for(d, n, pos.gpu));
    if let Some(ef) = ef.as_ref() {
        assert_eq!(
            ef.dim(),
            shard.len(),
            "ok_sparse_all_reduce_ef: residual must match the shard"
        );
    }

    let k = shard_k(d, n, rho).min(shard.len());
    let span = obs::span_begin(&mut reg, "oksparse/top-k compression");
    let selection: SparseGrad = match ef.as_mut() {
        Some(ef) => {
            let sel = ef.select(shard.slice(x), k, compressor);
            ef.release(&sel);
            sel
        }
        None => compressor.compress(shard.slice(x), k),
    };
    obs::span_end(&mut reg, span, shard.len() as f64);

    let span = obs::span_begin(&mut reg, "oksparse/inter split-merge");
    let stats = aggregate_selection(peer, x, shard, &selection, &inter, scratch);
    let inter_bytes_sent = ok_sparse_wire_bytes(&stats, inter.len());
    obs::span_end(
        &mut reg,
        span,
        (2 * (stats.split_entries_sent + stats.merged_len * inter.len())) as f64,
    );

    let span = obs::span_begin(&mut reg, "oksparse/intra all-gather");
    ring_all_gather_scratch(peer, x, &intra, scratch);
    obs::span_end(&mut reg, span, d as f64);

    if let Some(reg) = reg.as_mut() {
        reg.counter_add("oksparse/invocations", 1);
        reg.counter_add("oksparse/inter_bytes_sent", inter_bytes_sent as u64);
        reg.counter_add("oksparse/shard_nonzeros", stats.shard_nonzeros as u64);
        reg.counter_add("oksparse/merged_len", stats.merged_len as u64);
        reg.gauge_set("oksparse/k_per_shard", k as f64);
    }

    OkSparseReport {
        k_per_shard: k,
        merged_len: stats.merged_len,
        shard_nonzeros: stats.shard_nonzeros,
        inter_bytes_sent,
    }
}

/// O(k) sparse allreduce over an `m × n` grid: HiTopKComm's hierarchy
/// (dense intra-node ReduceScatter, per-shard top-k, dense intra-node
/// AllGather) with the inter-node AllGather replaced by the split-and-merge
/// schedule. On return every rank's `x` holds the identical aggregated
/// vector — bitwise equal to [`crate::hierarchical::hitopk_all_reduce`]'s
/// with the same compressor state.
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
    ok_sparse_all_reduce_scratch(peer, x, m, n, rho, compressor, &mut CommScratch::new())
}

/// [`ok_sparse_all_reduce`] drawing every communication buffer from
/// `scratch`; allocation-free on the wire path at steady state.
pub fn ok_sparse_all_reduce_scratch<C: Compressor + ?Sized>(
    peer: &Peer,
    x: &mut [f32],
    m: usize,
    n: usize,
    rho: f64,
    compressor: &mut C,
    scratch: &mut CommScratch,
) -> OkSparseReport {
    ok_sparse_impl(peer, x, m, n, rho, compressor, None, None, scratch, None)
}

/// [`ok_sparse_all_reduce_scratch`] with per-stage spans and counters
/// recorded into `reg` (logical work units; bitwise identical to the
/// untraced twin).
#[allow(clippy::too_many_arguments)]
pub fn ok_sparse_all_reduce_traced<C: Compressor + ?Sized>(
    peer: &Peer,
    x: &mut [f32],
    m: usize,
    n: usize,
    rho: f64,
    compressor: &mut C,
    scratch: &mut CommScratch,
    reg: &mut Registry,
) -> OkSparseReport {
    ok_sparse_impl(
        peer,
        x,
        m,
        n,
        rho,
        compressor,
        None,
        None,
        scratch,
        Some(reg),
    )
}

/// O(k) sparse allreduce with error feedback at the sparsification point
/// (the shard owner's residual, exactly as in
/// [`crate::hierarchical::hitopk_all_reduce_ef`] — the two are bitwise
/// interchangeable, so the mass-conservation ledger verifies either).
///
/// # Panics
/// Panics if the group size is not `m * n` or the residual dimension does
/// not match this rank's shard.
pub fn ok_sparse_all_reduce_ef<C: Compressor + ?Sized>(
    peer: &Peer,
    x: &mut [f32],
    m: usize,
    n: usize,
    rho: f64,
    compressor: &mut C,
    ef: &mut ErrorFeedback,
) -> OkSparseReport {
    ok_sparse_all_reduce_ef_scratch(peer, x, m, n, rho, compressor, ef, &mut CommScratch::new())
}

/// [`ok_sparse_all_reduce_ef`] drawing every communication buffer from
/// `scratch`.
#[allow(clippy::too_many_arguments)]
pub fn ok_sparse_all_reduce_ef_scratch<C: Compressor + ?Sized>(
    peer: &Peer,
    x: &mut [f32],
    m: usize,
    n: usize,
    rho: f64,
    compressor: &mut C,
    ef: &mut ErrorFeedback,
    scratch: &mut CommScratch,
) -> OkSparseReport {
    ok_sparse_impl(
        peer,
        x,
        m,
        n,
        rho,
        compressor,
        Some(ef),
        None,
        scratch,
        None,
    )
}

/// [`ok_sparse_all_reduce_ef_scratch`] with per-stage spans and counters
/// recorded into `reg`.
#[allow(clippy::too_many_arguments)]
pub fn ok_sparse_all_reduce_ef_traced<C: Compressor + ?Sized>(
    peer: &Peer,
    x: &mut [f32],
    m: usize,
    n: usize,
    rho: f64,
    compressor: &mut C,
    ef: &mut ErrorFeedback,
    scratch: &mut CommScratch,
    reg: &mut Registry,
) -> OkSparseReport {
    ok_sparse_impl(
        peer,
        x,
        m,
        n,
        rho,
        compressor,
        Some(ef),
        None,
        scratch,
        Some(reg),
    )
}

/// [`ok_sparse_all_reduce_ef_scratch`] with the inter-node group visited in
/// `node_order` (a topology-probed node permutation, as produced by
/// `crate::reorder`). All ranks must pass the same order. With the identity
/// order the result is bitwise identical to the plain EF twin; any other
/// order changes only the floating-point reduction order (and the
/// partition ownership), never the selected set.
///
/// # Panics
/// Panics if the group size is not `m * n`, `node_order` is not a
/// permutation of `0..m`, or the residual dimension does not match.
#[allow(clippy::too_many_arguments)]
pub fn ok_sparse_all_reduce_ef_reordered<C: Compressor + ?Sized>(
    peer: &Peer,
    x: &mut [f32],
    m: usize,
    n: usize,
    rho: f64,
    compressor: &mut C,
    ef: &mut ErrorFeedback,
    node_order: &[usize],
    scratch: &mut CommScratch,
) -> OkSparseReport {
    assert_eq!(
        node_order.len(),
        m,
        "ok_sparse_all_reduce_ef_reordered: order must cover all m nodes"
    );
    ok_sparse_impl(
        peer,
        x,
        m,
        n,
        rho,
        compressor,
        Some(ef),
        Some(node_order),
        scratch,
        None,
    )
}

/// Quantized-wire byte accounting: one scale word plus a 32-bit index and a
/// packed level code per entry (`ceil(log2(2s+1))` bits each), matching
/// [`cloudtrain_compress::QuantizedGrad::wire_bytes`]'s packing.
fn quantized_pair_wire_bytes(entries: usize, levels: u8) -> usize {
    let bits = (2 * levels as u32 + 1).next_power_of_two().trailing_zeros() as usize;
    4 + 4 * entries + (entries * bits).div_ceil(8)
}

/// O(k) sparse allreduce with error feedback and **quantized split values**:
/// the selection's values are quantized once with `quantizer` (one shared
/// scale), and the split partitions travel as packed level codes instead of
/// FP32 — compounding the sparsification with `compress::quantize`'s
/// value compression on the slowest hop.
///
/// The simulation transmits the *decoded* values (each partition's decode
/// is elementwise, so receivers decoding `(scale, codes)` would reconstruct
/// them bit-exactly), while `inter_bytes_sent` charges the packed wire
/// format. The merged lists are sums of decoded values and travel as FP32.
///
/// The residual is released with [`ErrorFeedback::release_lossy`] against the
/// decoded selection, so the per-coordinate quantization error stays in the
/// residual and the mass-conservation ledger holds exactly — the lossy wire
/// loses no gradient mass, it only defers it.
///
/// # Panics
/// Panics if the group size is not `m * n` or the residual dimension does
/// not match this rank's shard.
#[allow(clippy::too_many_arguments)]
pub fn ok_sparse_all_reduce_ef_quantized<C: Compressor + ?Sized, Q: Quantizer + ?Sized>(
    peer: &Peer,
    x: &mut [f32],
    m: usize,
    n: usize,
    rho: f64,
    compressor: &mut C,
    quantizer: &mut Q,
    ef: &mut ErrorFeedback,
    scratch: &mut CommScratch,
) -> OkSparseReport {
    assert_eq!(peer.size(), m * n, "ok_sparse_all_reduce: group is not m*n");
    let d = x.len();
    let pos = grid_pos(peer.rank(), m, n);
    let intra = intra_node_members(pos.node, n);
    let inter = inter_node_members(pos.gpu, m, n);

    let shard = ring_reduce_scatter_scratch(peer, x, &intra, scratch);
    assert_eq!(
        ef.dim(),
        shard.len(),
        "ok_sparse_all_reduce_ef: residual must match the shard"
    );

    let k = shard_k(d, n, rho).min(shard.len());
    let exact = ef.select(shard.slice(x), k, compressor);
    let q = quantizer.quantize(&exact.values);
    let levels = q.levels;
    let selection = SparseGrad {
        values: q.decode(),
        indices: exact.indices,
        dim: exact.dim,
    };
    ef.release_lossy(&selection);

    let stats = aggregate_selection(peer, x, shard, &selection, &inter, scratch);
    let me_ord = member_index(&inter, peer.rank());
    let split_bytes: usize = stats
        .split_lens
        .iter()
        .enumerate()
        .filter(|(t, _)| *t != me_ord)
        .map(|(_, len)| quantized_pair_wire_bytes(*len, levels))
        .sum();
    let inter_bytes_sent = split_bytes + pair_wire_bytes(stats.merged_len) * (inter.len() - 1);

    ring_all_gather_scratch(peer, x, &intra, scratch);

    OkSparseReport {
        k_per_shard: k,
        merged_len: stats.merged_len,
        shard_nonzeros: stats.shard_nonzeros,
        inter_bytes_sent,
    }
}

/// The split → merge → AllGather → scatter core over a [`ResilientPeer`]:
/// every hop charged through the fault plan and retry policy. The payloads
/// always arrive (drops cost retries, not data), so with any plan the
/// aggregation values match the plain core's bitwise.
fn aggregate_selection_resilient(
    rp: &mut ResilientPeer,
    x: &mut [f32],
    shard: Shard,
    selection: &SparseGrad,
    inter: &[usize],
    scratch: &mut CommScratch,
) -> AggregateStats {
    let q = inter.len();
    let me_ord = member_index(inter, rp.rank());
    let ranges = shards(shard.len(), q);
    let my_range = ranges[me_ord];

    let (part_vals, part_idxs) = split_by_owner(selection, &ranges, scratch);
    let split_lens: Vec<usize> = part_vals.iter().map(Vec::len).collect();
    let split_entries_sent = selection.values.len() - split_lens[me_ord];
    for t in 0..q {
        if t == me_ord {
            continue;
        }
        let frame = frame_pair(&part_vals[t], &part_idxs[t], scratch);
        rp.send_u32(inter[t], frame);
    }

    let mut acc = scratch.take_f32(my_range.len());
    for t in 0..q {
        if t == me_ord {
            merge_into_range(&mut acc, my_range, &part_vals[t], &part_idxs[t]);
        } else {
            let (vals, idxs) = unframe_pair(rp.recv_u32(inter[t]), scratch);
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
    let merged_len = merged_vals.len();

    // The resilient gathers are the crate's paired-variant-free ones; the
    // gathered *values* match the pairs gather's bitwise, only the message
    // framing differs.
    let value_blocks = all_gather_f32_resilient(rp, &merged_vals, inter, scratch);
    let index_blocks = all_gather_u32_resilient(rp, &merged_idxs, inter, scratch);
    scratch.put_f32(merged_vals);
    scratch.put_u32(merged_idxs);
    let blocks = value_blocks.into_iter().zip(index_blocks);
    ops::fill(shard.slice_mut(x), 0.0);
    let shard_nonzeros = scatter_gathered(shard.slice_mut(x), blocks, scratch);

    AggregateStats {
        split_entries_sent,
        split_lens,
        merged_len,
        shard_nonzeros,
    }
}

/// Resilient O(k) sparse allreduce with error feedback: every hop walks the
/// drop ladder, and a member whose contribution misses its deadline (per
/// the fault plan, decided identically on all ranks at the sparsification
/// point) transmits an empty selection — its whole compensated shard stays
/// in the residual and is re-injected next invocation. With a clean plan
/// the result is bitwise identical to [`ok_sparse_all_reduce_ef`].
///
/// # Panics
/// Panics if the group size is not `m * n` or the residual dimension does
/// not match this rank's shard.
#[allow(clippy::too_many_arguments)] // mirrors hitopk_all_reduce_ef_resilient's signature
pub fn ok_sparse_all_reduce_ef_resilient<C: Compressor + ?Sized>(
    rp: &mut ResilientPeer,
    x: &mut [f32],
    m: usize,
    n: usize,
    rho: f64,
    compressor: &mut C,
    ef: &mut ErrorFeedback,
    scratch: &mut CommScratch,
) -> OkSparseReport {
    assert_eq!(rp.size(), m * n, "ok_sparse_all_reduce: group is not m*n");
    let d = x.len();
    let instance = rp.begin_instance();
    let pos = grid_pos(rp.rank(), m, n);
    let intra = intra_node_members(pos.node, n);
    let inter = inter_node_members(pos.gpu, m, n);

    let shard = ring_reduce_scatter_resilient(rp, x, &intra, scratch);
    assert_eq!(
        ef.dim(),
        shard.len(),
        "ok_sparse_all_reduce_ef: residual must match the shard"
    );

    let k = shard_k(d, n, rho).min(shard.len());
    // Degradation at the sparsification point, exactly as in the hitopk
    // twin: a degraded member selects nothing and withholds its whole shard
    // in the residual.
    let selection: SparseGrad = if rp.contribution_degraded(instance) {
        ef.withhold(shard.slice(x));
        SparseGrad::empty(shard.len())
    } else {
        let selection = ef.select(shard.slice(x), k, compressor);
        ef.release(&selection);
        selection
    };

    let stats = aggregate_selection_resilient(rp, x, shard, &selection, &inter, scratch);
    let inter_bytes_sent = ok_sparse_wire_bytes(&stats, inter.len());

    ring_all_gather_resilient(rp, x, &intra, scratch);

    OkSparseReport {
        k_per_shard: k,
        merged_len: stats.merged_len,
        shard_nonzeros: stats.shard_nonzeros,
        inter_bytes_sent,
    }
}

/// Deadline-bounded O(k) sparse allreduce with error feedback: the data
/// flow of [`ok_sparse_all_reduce_ef_scratch`], with this rank's
/// contribution checked against the lateness budget at the sparsification
/// point (per *(instance, member)*, never per hop, so replicas stay
/// bitwise identical). A late member transmits an empty selection; its
/// compensated shard survives in the residual. With a clean plan the
/// result is bitwise identical to the plain EF twin.
///
/// # Panics
/// Panics if the group size is not `m * n` or the residual dimension does
/// not match this rank's shard.
#[allow(clippy::too_many_arguments)]
pub fn ok_sparse_all_reduce_ef_deadline<C: Compressor + ?Sized>(
    peer: &Peer,
    x: &mut [f32],
    m: usize,
    n: usize,
    rho: f64,
    compressor: &mut C,
    ef: &mut ErrorFeedback,
    instance: u64,
    faults: &DeadlineFaults,
    policy: &DeadlinePolicy,
    scratch: &mut CommScratch,
) -> (OkSparseReport, DeadlineReport) {
    assert_eq!(peer.size(), m * n, "ok_sparse_all_reduce: group is not m*n");
    let d = x.len();
    let pos = grid_pos(peer.rank(), m, n);
    let intra = intra_node_members(pos.node, n);
    let inter = inter_node_members(pos.gpu, m, n);

    let shard = ring_reduce_scatter_scratch(peer, x, &intra, scratch);
    assert_eq!(
        ef.dim(),
        shard.len(),
        "ok_sparse_all_reduce_ef: residual must match the shard"
    );

    let k = shard_k(d, n, rho).min(shard.len());
    // Same budget question as the hitopk deadline twin: would this member's
    // compressed block (k values + k indices) have landed inside the
    // budget? A miss selects nothing and withholds the shard.
    let mut report = DeadlineReport { hops: 1, missed: 0 };
    let lateness = faults.contribution_lateness(instance, peer.rank());
    let wire = pair_wire_bytes(k);
    let selection: SparseGrad = if policy.hop_missed(wire, lateness) {
        report.missed = 1;
        ef.withhold(shard.slice(x));
        SparseGrad::empty(shard.len())
    } else {
        let selection = ef.select(shard.slice(x), k, compressor);
        ef.release(&selection);
        selection
    };

    let stats = aggregate_selection(peer, x, shard, &selection, &inter, scratch);
    let inter_bytes_sent = ok_sparse_wire_bytes(&stats, inter.len());

    ring_all_gather_scratch(peer, x, &intra, scratch);

    (
        OkSparseReport {
            k_per_shard: k,
            merged_len: stats.merged_len,
            shard_nonzeros: stats.shard_nonzeros,
            inter_bytes_sent,
        },
        report,
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::group::run_on_group;
    use crate::hierarchical::{group_wire_bytes, hitopk_all_reduce, hitopk_all_reduce_ef};
    use crate::resilience::{CommFaults, ResiliencePolicy};
    use cloudtrain_compress::exact::SortTopK;
    use cloudtrain_compress::quantize::Qsgd;
    use cloudtrain_compress::MsTopK;
    use cloudtrain_tensor::init;
    use cloudtrain_tensor::ops;

    fn vec_for(rank: usize, d: usize) -> Vec<f32> {
        let mut rng = init::rng_from_seed(14_000 + rank as u64);
        init::gradient_like_tensor(d, &mut rng).into_vec()
    }

    fn shard_len(d: usize, n: usize, rank: usize) -> usize {
        shard_for(d, n, rank % n).len()
    }

    /// The determinism contract: same compressor state → bitwise identical
    /// aggregate to the hitopk twin (only the wire schedule differs).
    #[test]
    fn matches_hitopk_bitwise() {
        for (m, n, d, rho) in [
            (2usize, 4usize, 300usize, 0.05f64),
            (4, 2, 257, 0.1),
            (3, 2, 128, 0.2),
            (2, 2, 31, 0.5),
        ] {
            let hitopk = run_on_group(m * n, |peer| {
                let mut x = vec_for(peer.rank(), d);
                let mut c = MsTopK::new(25, peer.rank() as u64);
                hitopk_all_reduce(peer, &mut x, m, n, rho, &mut c);
                x
            });
            let oksparse = run_on_group(m * n, |peer| {
                let mut x = vec_for(peer.rank(), d);
                let mut c = MsTopK::new(25, peer.rank() as u64);
                let rep = ok_sparse_all_reduce(peer, &mut x, m, n, rho, &mut c);
                assert!(rep.shard_nonzeros >= 1);
                x
            });
            assert_eq!(hitopk, oksparse, "m={m} n={n}: schedules diverged");
        }
    }

    #[test]
    fn ef_matches_hitopk_ef_bitwise_over_rounds() {
        let (m, n, d, rho) = (2usize, 4usize, 300usize, 0.05f64);
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
            let mut out = Vec::new();
            for round in 0..3 {
                let mut x = vec_for(100 * round + peer.rank(), d);
                ok_sparse_all_reduce_ef(peer, &mut x, m, n, rho, &mut c, &mut ef);
                out.push(x);
            }
            (out, ef.residual().to_vec())
        });
        assert_eq!(run_hitopk, run_oksparse);
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
    fn scratch_and_traced_twins_are_bitwise_identical() {
        let (m, n, d, rho) = (2usize, 4usize, 300usize, 0.05f64);
        let plain = run_on_group(m * n, |peer| {
            let mut x = vec_for(peer.rank(), d);
            let mut c = MsTopK::new(25, peer.rank() as u64);
            let rep = ok_sparse_all_reduce(peer, &mut x, m, n, rho, &mut c);
            (x, rep)
        });
        let scratched = run_on_group(m * n, |peer| {
            let mut scratch = CommScratch::new();
            let mut x = vec_for(peer.rank(), d);
            let mut c = MsTopK::new(25, peer.rank() as u64);
            let rep = ok_sparse_all_reduce_scratch(peer, &mut x, m, n, rho, &mut c, &mut scratch);
            (x, rep)
        });
        assert_eq!(plain, scratched);
        let traced = run_on_group(m * n, |peer| {
            let mut scratch = CommScratch::new();
            let mut reg = Registry::new();
            let mut x = vec_for(peer.rank(), d);
            let mut c = MsTopK::new(25, peer.rank() as u64);
            let rep = ok_sparse_all_reduce_traced(
                peer,
                &mut x,
                m,
                n,
                rho,
                &mut c,
                &mut scratch,
                &mut reg,
            );
            ((x, rep), reg)
        });
        for ((p, (t, reg)), rank) in plain.iter().zip(&traced).zip(0..) {
            assert_eq!(p, t, "rank {rank}: tracing perturbed the result");
            assert_eq!(reg.spans().len(), 4);
            assert_eq!(reg.span_total("oksparse/intra reduce-scatter"), d as f64);
            assert_eq!(
                reg.span_total("oksparse/top-k compression") as usize,
                shard_len(d, n, rank)
            );
            assert!(reg.span_total("oksparse/inter split-merge") > 0.0);
            assert_eq!(reg.span_total("oksparse/intra all-gather"), d as f64);
            assert_eq!(reg.counter("oksparse/invocations"), 1);
            assert_eq!(
                reg.counter("oksparse/inter_bytes_sent") as usize,
                t.1.inter_bytes_sent
            );
            assert_eq!(
                reg.gauge("oksparse/k_per_shard"),
                Some(t.1.k_per_shard as f64)
            );
        }
    }

    #[test]
    fn reordered_identity_is_bitwise_identical() {
        let (m, n, d, rho) = (3usize, 2usize, 240usize, 0.1f64);
        let identity: Vec<usize> = (0..m).collect();
        let run = |order: Option<Vec<usize>>| {
            run_on_group(m * n, move |peer| {
                let mut ef = ErrorFeedback::new(shard_len(d, n, peer.rank()));
                let mut c = SortTopK;
                let mut scratch = CommScratch::new();
                let mut x = vec_for(peer.rank(), d);
                let rep = match &order {
                    Some(o) => ok_sparse_all_reduce_ef_reordered(
                        peer,
                        &mut x,
                        m,
                        n,
                        rho,
                        &mut c,
                        &mut ef,
                        o,
                        &mut scratch,
                    ),
                    None => ok_sparse_all_reduce_ef_scratch(
                        peer,
                        &mut x,
                        m,
                        n,
                        rho,
                        &mut c,
                        &mut ef,
                        &mut scratch,
                    ),
                };
                (x, ef.residual().to_vec(), rep)
            })
        };
        assert_eq!(run(None), run(Some(identity)));
    }

    #[test]
    fn reordered_rotation_keeps_replicas_identical_and_close_to_plain() {
        let (m, n, d, rho) = (3usize, 2usize, 240usize, 0.1f64);
        let rotated: Vec<usize> = (0..m).map(|i| (i + 1) % m).collect();
        let plain = run_on_group(m * n, |peer| {
            let mut ef = ErrorFeedback::new(shard_len(d, n, peer.rank()));
            let mut c = SortTopK;
            let mut x = vec_for(peer.rank(), d);
            ok_sparse_all_reduce_ef(peer, &mut x, m, n, rho, &mut c, &mut ef);
            x
        });
        let reordered = run_on_group(m * n, move |peer| {
            let mut ef = ErrorFeedback::new(shard_len(d, n, peer.rank()));
            let mut c = SortTopK;
            let mut scratch = CommScratch::new();
            let mut x = vec_for(peer.rank(), d);
            ok_sparse_all_reduce_ef_reordered(
                peer,
                &mut x,
                m,
                n,
                rho,
                &mut c,
                &mut ef,
                &rotated,
                &mut scratch,
            );
            x
        });
        for r in 1..m * n {
            assert_eq!(reordered[0], reordered[r], "rank {r} differs");
        }
        for (p, q) in plain.iter().zip(&reordered) {
            assert!(ops::approx_eq(p, q, 1e-4));
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
                ok_sparse_all_reduce_ef_scratch(
                    peer,
                    &mut x,
                    m,
                    n,
                    rho,
                    &mut c,
                    &mut ef,
                    &mut scratch,
                );
                out.push(x);
            }
            (out, ef.residual().to_vec())
        });
        let resilient = run_on_group(m * n, |peer| {
            let mut rp = ResilientPeer::new(peer, CommFaults::new(7), ResiliencePolicy::default());
            let mut ef = ErrorFeedback::new(shard_len(d, n, peer.rank()));
            let mut c = SortTopK;
            let mut scratch = CommScratch::new();
            let mut out = Vec::new();
            for round in 0..2 {
                let mut x = vec_for(60 * round + peer.rank(), d);
                ok_sparse_all_reduce_ef_resilient(
                    &mut rp,
                    &mut x,
                    m,
                    n,
                    rho,
                    &mut c,
                    &mut ef,
                    &mut scratch,
                );
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
            let mut rp = ResilientPeer::new(peer, faults.clone(), ResiliencePolicy::default());
            let mut ef = ErrorFeedback::new(shard_len(d, n, peer.rank()));
            let mut c = SortTopK;
            let mut scratch = CommScratch::new();
            let mut x = Vec::new();
            for round in 0..3 {
                x = vec_for(60 * round + peer.rank(), d);
                ok_sparse_all_reduce_ef_resilient(
                    &mut rp,
                    &mut x,
                    m,
                    n,
                    rho,
                    &mut c,
                    &mut ef,
                    &mut scratch,
                );
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

    #[test]
    fn deadline_clean_plan_is_bitwise_identical_to_plain() {
        let (m, n, d, rho) = (2usize, 4usize, 240usize, 0.05f64);
        // Generous budget, no jitter: nothing misses.
        let policy = DeadlinePolicy::from_link(5e-5, 4e-10, 8 * d, 1e6);
        let faults = DeadlineFaults::new(3);
        let plain = run_on_group(m * n, |peer| {
            let mut ef = ErrorFeedback::new(shard_len(d, n, peer.rank()));
            let mut c = SortTopK;
            let mut x = vec_for(peer.rank(), d);
            ok_sparse_all_reduce_ef(peer, &mut x, m, n, rho, &mut c, &mut ef);
            (x, ef.residual().to_vec())
        });
        let deadline = run_on_group(m * n, move |peer| {
            let mut ef = ErrorFeedback::new(shard_len(d, n, peer.rank()));
            let mut c = SortTopK;
            let mut scratch = CommScratch::new();
            let mut x = vec_for(peer.rank(), d);
            let (_, drep) = ok_sparse_all_reduce_ef_deadline(
                peer,
                &mut x,
                m,
                n,
                rho,
                &mut c,
                &mut ef,
                0,
                &faults,
                &policy,
                &mut scratch,
            );
            assert_eq!(drep.missed, 0, "clean plan should not miss");
            (x, ef.residual().to_vec())
        });
        assert_eq!(plain, deadline);
    }

    #[test]
    fn deadline_stragglers_miss_but_replicas_agree() {
        let (m, n, d, rho) = (2usize, 4usize, 240usize, 0.05f64);
        // Tight budget + a heavily multiplied straggler node: its members'
        // contributions miss, the clean members' jitter stays inside the
        // 5% slack.
        let policy = DeadlinePolicy::from_link(5e-5, 4e-10, 8 * shard_k(d, n, rho), 1.05);
        let faults = DeadlineFaults::new(9)
            .with_jitter(1e-6)
            .straggle(4, 1e4)
            .straggle(5, 1e4)
            .straggle(6, 1e4)
            .straggle(7, 1e4);
        let results = run_on_group(m * n, move |peer| {
            let mut ef = ErrorFeedback::new(shard_len(d, n, peer.rank()));
            let mut c = SortTopK;
            let mut scratch = CommScratch::new();
            let mut x = vec_for(peer.rank(), d);
            let (_, drep) = ok_sparse_all_reduce_ef_deadline(
                peer,
                &mut x,
                m,
                n,
                rho,
                &mut c,
                &mut ef,
                1,
                &faults,
                &policy,
                &mut scratch,
            );
            (x, drep.missed, ef.residual_norm())
        });
        for r in 1..m * n {
            assert_eq!(results[0].0, results[r].0, "rank {r} replica diverged");
        }
        let missed: u64 = results.iter().map(|(_, m, _)| *m).sum();
        assert!(missed > 0, "straggler node should miss the deadline");
        for (x, missed, rnorm) in &results {
            let _ = x;
            if *missed > 0 {
                assert!(*rnorm > 0.0, "a missing member keeps its mass");
            }
        }
    }

    #[test]
    fn quantized_replicas_agree_and_approximate_exact() {
        let (m, n, d, rho) = (2usize, 4usize, 240usize, 0.2f64);
        let exact = run_on_group(m * n, |peer| {
            let mut ef = ErrorFeedback::new(shard_len(d, n, peer.rank()));
            let mut c = SortTopK;
            let mut x = vec_for(peer.rank(), d);
            ok_sparse_all_reduce_ef(peer, &mut x, m, n, rho, &mut c, &mut ef);
            x
        });
        let quantized = run_on_group(m * n, |peer| {
            let mut ef = ErrorFeedback::new(shard_len(d, n, peer.rank()));
            let mut c = SortTopK;
            let mut q = Qsgd::new(127, 77);
            let mut scratch = CommScratch::new();
            let mut x = vec_for(peer.rank(), d);
            let rep = ok_sparse_all_reduce_ef_quantized(
                peer,
                &mut x,
                m,
                n,
                rho,
                &mut c,
                &mut q,
                &mut ef,
                &mut scratch,
            );
            (x, rep)
        });
        for r in 1..m * n {
            assert_eq!(quantized[0].0, quantized[r].0, "rank {r} differs");
        }
        // 8-bit levels keep the aggregate close to the exact-valued one.
        let norm = ops::l2_norm(&exact[0]).max(1e-6);
        let diff: f32 = exact[0]
            .iter()
            .zip(&quantized[0].0)
            .map(|(a, b)| (a - b) * (a - b))
            .sum::<f32>()
            .sqrt();
        assert!(
            diff / norm < 0.15,
            "quantized aggregate drifted: rel err {}",
            diff / norm
        );
        // Quantized split must be cheaper than the FP32 split it replaces.
        let (_, qrep) = (&quantized[0].0, &quantized[0].1);
        let exact_rep = run_on_group(m * n, |peer| {
            let mut ef = ErrorFeedback::new(shard_len(d, n, peer.rank()));
            let mut c = SortTopK;
            let mut x = vec_for(peer.rank(), d);
            ok_sparse_all_reduce_ef(peer, &mut x, m, n, rho, &mut c, &mut ef)
        });
        assert!(qrep.inter_bytes_sent <= exact_rep[0].inter_bytes_sent);
    }

    /// The lossy absorb keeps the ledger exact: decoded selection plus
    /// residual reconstructs the compensated shard bitwise-exactly (f32
    /// subtraction of a value from itself is exact).
    #[test]
    fn quantized_residual_holds_quantization_error() {
        let d = 64;
        let mut ef = ErrorFeedback::new(d);
        let mut g = vec_for(0, d);
        ef.compensate(&mut g);
        let mut c = SortTopK;
        let exact = c.compress(&g, 8);
        let mut q = Qsgd::new(127, 3);
        let quant = q.quantize(&exact.values);
        let decoded = SparseGrad {
            values: quant.decode(),
            indices: exact.indices.clone(),
            dim: d,
        };
        ef.absorb_lossy(&g, &decoded);
        let mut recon = decoded.densify();
        ops::add_assign(&mut recon, ef.residual());
        for (a, b) in recon.iter().zip(&g) {
            assert!((a - b).abs() <= 1e-6 * b.abs().max(1.0));
        }
    }

    #[test]
    fn reaches_zero_miss_steady_state() {
        let (m, n, d, rho) = (2usize, 4usize, 240usize, 0.05f64);
        let miss_growth = run_on_group(m * n, |peer| {
            let mut scratch = CommScratch::new();
            let mut c = SortTopK;
            let mut x = vec_for(peer.rank(), d);
            ok_sparse_all_reduce_scratch(peer, &mut x, m, n, rho, &mut c, &mut scratch);
            let warm = scratch.misses();
            for round in 1..4 {
                let mut y = vec_for(50 * round + peer.rank(), d);
                ok_sparse_all_reduce_scratch(peer, &mut y, m, n, rho, &mut c, &mut scratch);
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

    /// EF twin scratch/traced equivalence, mirroring the hitopk suite.
    #[test]
    fn ef_traced_twin_is_bitwise_identical() {
        let (m, n, d, rho) = (2usize, 2usize, 64usize, 0.1f64);
        let run = |trace: bool| {
            run_on_group(m * n, move |peer| {
                let mut ef = ErrorFeedback::new(shard_len(d, n, peer.rank()));
                let mut c = SortTopK;
                let mut scratch = CommScratch::new();
                let mut reg = Registry::new();
                let mut out = Vec::new();
                for round in 0..3 {
                    let mut x = vec_for(100 * round + peer.rank(), d);
                    if trace {
                        ok_sparse_all_reduce_ef_traced(
                            peer,
                            &mut x,
                            m,
                            n,
                            rho,
                            &mut c,
                            &mut ef,
                            &mut scratch,
                            &mut reg,
                        );
                    } else {
                        ok_sparse_all_reduce_ef_scratch(
                            peer,
                            &mut x,
                            m,
                            n,
                            rho,
                            &mut c,
                            &mut ef,
                            &mut scratch,
                        );
                    }
                    out.push(x);
                }
                if trace {
                    assert_eq!(reg.counter("oksparse/invocations"), 3);
                    assert_eq!(reg.spans().len(), 12);
                }
                (out, ef.residual_norm())
            })
        };
        assert_eq!(run(false), run(true));
    }
}
