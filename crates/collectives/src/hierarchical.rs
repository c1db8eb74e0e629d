//! HiTopKComm — hierarchical top-k sparse aggregation (§3.2, Algorithm 2) —
//! and the flat sparse AllGather baseline ("NaiveAG").
//!
//! HiTopKComm exploits the two-level cloud fabric: dense traffic stays on
//! the fast intra-node links, and only `ρ·d/n` sparsified elements per GPU
//! cross the slow inter-node links, in `n` concurrent streams:
//!
//! 1. intra-node ring ReduceScatter — GPU `j` of node `i` ends with the
//!    dense node-local sum of shard `j` (Eq. 4),
//! 2. top-k selection on the shard with `k̃ = ρ·d/n` (Eq. 5),
//! 3. inter-node AllGather of `(values, indices)` among the `j`-th GPUs of
//!    all nodes, followed by index-wise accumulation (Eq. 6),
//! 4. intra-node AllGather reassembling the full vector.
//!
//! Note the *semantic* difference from flat TopK-SGD: intra-node gradients
//! are aggregated densely (no information loss) before sparsification —
//! the paper credits MSTopK-SGD's small accuracy edge over TopK-SGD to
//! exactly this (§5.5.1).

use cloudtrain_compress::{Compressor, SparseGrad};
use cloudtrain_obs::{self as obs, Registry};
use cloudtrain_tensor::ops;
use cloudtrain_tensor::partition::shard_for;

use crate::group::Peer;
use crate::ring::{
    all_gather_f32, all_gather_f32_scratch, all_gather_u32, all_gather_u32_scratch,
    ring_all_gather_scratch, ring_reduce_scatter_ef, ring_reduce_scatter_scratch, HOP_PIECE,
};
use crate::scratch::CommScratch;
use crate::torus::{grid_pos, inter_node_members, intra_node_members};

/// Per-invocation statistics of a hierarchical sparse AllReduce.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HiTopKReport {
    /// Elements selected per shard (`k̃ = ρ·d/n`, Eq. 5).
    pub k_per_shard: usize,
    /// Distinct nonzero coordinates in this GPU's aggregated shard
    /// (at most `m · k̃`, fewer when selections overlap).
    pub shard_nonzeros: usize,
    /// Bytes this GPU sent over the inter-node links (values + indices).
    pub inter_bytes_sent: usize,
}

/// Number of elements each shard selects for density `rho` over a
/// `d`-element gradient split across `n` GPUs.
pub fn shard_k(d: usize, n: usize, rho: f64) -> usize {
    let shard = d.div_ceil(n);
    (((d as f64 * rho) / n as f64).round() as usize).clamp(1, shard.max(1))
}

/// Wire bytes a member pays to broadcast `selection` to the other
/// `group_len - 1` members of a sparse AllGather group.
///
/// Every hitopk-family variant (plain, reordered, resilient, deadline) and
/// the flat NaiveAG account their `inter_bytes_sent` through
/// this one expression, so identical traffic always reports identical
/// bytes — the conformance differential test pins it.
pub fn group_wire_bytes(selection: &SparseGrad, group_len: usize) -> usize {
    selection.wire_bytes() * group_len.saturating_sub(1)
}

/// Wire bytes of one framed `(values, indices)` pair message carrying
/// `entries` coordinates: an FP32 value plus a 32-bit index each.
///
/// The point-to-point counterpart of [`group_wire_bytes`]:
/// `group_wire_bytes(sel, g) == pair_wire_bytes(sel.values.len()) * (g-1)`
/// whenever values and indices pair up. The O(k) sparse allreduce accounts
/// its split and merged-broadcast traffic through this, so its bytes stay
/// directly comparable with the hitopk family's.
pub fn pair_wire_bytes(entries: usize) -> usize {
    8 * entries
}

/// The accumulate that ends the inter-node step of every hitopk- and
/// O(k)-family variant: scatter-adds the gathered `(values, indices)`
/// blocks in member order into `shard_buf`, which must be all zeros (the
/// error-feedback ReduceScatter leaves it so; other callers `fill` it),
/// returns the blocks to the pool, and reports
/// [`HiTopKReport::shard_nonzeros`].
///
/// The count visits the gathered indices — sorted and deduplicated, a few
/// percent of the shard at trained densities — instead of streaming the
/// shard: on a zeroed shard an untouched coordinate is exactly `0.0`, so
/// only a touched one can pass `!= 0.0`. The indices are collected in the
/// first block's own buffer before it goes back to the pool, so the pool's
/// take/put traffic is what it was. (The sort is the stable one on purpose:
/// selections arrive index-sorted, and it merges presorted runs in
/// `O(n log m)`.)
pub(crate) fn scatter_gathered(
    shard_buf: &mut [f32],
    blocks: impl IntoIterator<Item = (Vec<f32>, Vec<u32>)>,
    scratch: &mut CommScratch,
) -> usize {
    debug_assert!(shard_buf.iter().all(|v| *v == 0.0), "shard not zeroed");
    let mut touched: Option<Vec<u32>> = None;
    for (vals, idxs) in blocks {
        ops::scatter_add(shard_buf, &idxs, &vals);
        scratch.put_f32(vals);
        match touched.as_mut() {
            None => touched = Some(idxs),
            Some(touched) => {
                touched.extend_from_slice(&idxs);
                scratch.put_u32(idxs);
            }
        }
    }
    let Some(mut touched) = touched else {
        return 0;
    };
    touched.sort();
    touched.dedup();
    let nonzeros = touched
        .iter()
        .filter(|&&i| shard_buf[i as usize] != 0.0)
        .count();
    scratch.put_u32(touched);
    nonzeros
}

/// HiTopKComm (Algorithm 2): hierarchical sparse AllReduce over an
/// `m × n` grid. On return every rank's `x` holds
/// `Σ_nodes TopK(node-local dense sum)` per shard — identical on all ranks.
///
/// The `compressor` performs step 2's selection; the paper uses
/// [`cloudtrain_compress::MsTopK`], and tests use the exact operator for a
/// deterministic reference.
///
/// # Examples
/// ```
/// use cloudtrain_collectives::group::run_on_group;
/// use cloudtrain_collectives::hierarchical::hitopk_all_reduce;
/// use cloudtrain_compress::MsTopK;
///
/// // 2 nodes x 2 GPUs aggregate sparsified gradients at density 0.25.
/// let results = run_on_group(4, |peer| {
///     let mut grad = vec![peer.rank() as f32 + 1.0; 64];
///     grad[peer.rank()] = 100.0; // a large coordinate per worker
///     let mut topk = MsTopK::new(30, peer.rank() as u64);
///     hitopk_all_reduce(peer, &mut grad, 2, 2, 0.25, &mut topk);
///     grad
/// });
/// // Every rank holds the identical aggregated vector.
/// assert!(results.iter().all(|r| r == &results[0]));
/// ```
///
/// # Panics
/// Panics if the group size is not `m * n`.
pub fn hitopk_all_reduce<C: Compressor + ?Sized>(
    peer: &Peer,
    x: &mut [f32],
    m: usize,
    n: usize,
    rho: f64,
    compressor: &mut C,
) -> HiTopKReport {
    hitopk_all_reduce_scratch(peer, x, m, n, rho, compressor, &mut CommScratch::new())
}

/// [`hitopk_all_reduce`] drawing every communication buffer from `scratch`.
///
/// All four communication steps run through the pooled collectives, and the
/// gathered value/index blocks are recycled after the scatter-accumulate,
/// so each steady-state invocation is allocation-free on the wire path
/// (the compressor's selection is the only remaining allocation).
pub fn hitopk_all_reduce_scratch<C: Compressor + ?Sized>(
    peer: &Peer,
    x: &mut [f32],
    m: usize,
    n: usize,
    rho: f64,
    compressor: &mut C,
    scratch: &mut CommScratch,
) -> HiTopKReport {
    hitopk_impl(peer, x, m, n, rho, compressor, scratch, None)
}

/// [`hitopk_all_reduce_scratch`] with per-stage spans and counters recorded
/// into `reg`.
///
/// The correctness plane has no clock, so spans are charged in *logical
/// work units* (elements touched per stage: `d` for the dense intra-node
/// steps, the shard length for selection, `2·m·k̃` for the inter-node
/// gather-accumulate). The resulting breakdown has the same shape as the
/// performance plane's Fig. 8 decomposition and is byte-stable across runs.
/// Instrumentation does not perturb the aggregation: the traced variant is
/// bitwise-identical to the plain one.
#[allow(clippy::too_many_arguments)]
pub fn hitopk_all_reduce_traced<C: Compressor + ?Sized>(
    peer: &Peer,
    x: &mut [f32],
    m: usize,
    n: usize,
    rho: f64,
    compressor: &mut C,
    scratch: &mut CommScratch,
    reg: &mut Registry,
) -> HiTopKReport {
    hitopk_impl(peer, x, m, n, rho, compressor, scratch, Some(reg))
}

#[allow(clippy::too_many_arguments)]
fn hitopk_impl<C: Compressor + ?Sized>(
    peer: &Peer,
    x: &mut [f32],
    m: usize,
    n: usize,
    rho: f64,
    compressor: &mut C,
    scratch: &mut CommScratch,
    mut reg: Option<&mut Registry>,
) -> HiTopKReport {
    assert_eq!(peer.size(), m * n, "hitopk_all_reduce: group is not m*n");
    let d = x.len();
    let pos = grid_pos(peer.rank(), m, n);
    let intra = intra_node_members(pos.node, n);
    let inter = inter_node_members(pos.gpu, m, n);

    // Step 1: intra-node dense ReduceScatter (fast links).
    let span = obs::span_begin(&mut reg, "hitopk/intra reduce-scatter");
    let shard = ring_reduce_scatter_scratch(peer, x, &intra, scratch);
    obs::span_end(&mut reg, span, d as f64);
    debug_assert_eq!(shard, shard_for(d, n, pos.gpu));

    // Step 2: top-k on the node-local dense sum of my shard.
    let k = shard_k(d, n, rho).min(shard.len());
    let span = obs::span_begin(&mut reg, "hitopk/top-k compression");
    let selection: SparseGrad = compressor.compress(shard.slice(x), k);
    obs::span_end(&mut reg, span, shard.len() as f64);

    // Step 3: inter-node AllGather of values and indices (stream `gpu`),
    // then index-wise accumulation into a zeroed shard. The gathered
    // blocks go back to the pool once consumed, balancing the takes the
    // gathers made.
    let span = obs::span_begin(&mut reg, "hitopk/inter all-gather");
    let value_blocks = all_gather_f32_scratch(peer, &selection.values, &inter, scratch);
    let index_blocks = all_gather_u32_scratch(peer, &selection.indices, &inter, scratch);
    let inter_bytes_sent = group_wire_bytes(&selection, inter.len());

    let blocks = value_blocks.into_iter().zip(index_blocks);
    ops::fill(shard.slice_mut(x), 0.0);
    let shard_nonzeros = scatter_gathered(shard.slice_mut(x), blocks, scratch);
    obs::span_end(&mut reg, span, (2 * m * k) as f64);

    // Step 4: intra-node AllGather reassembles the (sparse-aggregated)
    // full vector.
    let span = obs::span_begin(&mut reg, "hitopk/intra all-gather");
    ring_all_gather_scratch(peer, x, &intra, scratch);
    obs::span_end(&mut reg, span, d as f64);

    if let Some(reg) = reg.as_mut() {
        reg.counter_add("hitopk/invocations", 1);
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

/// HiTopKComm with error feedback: like [`hitopk_all_reduce`], but the
/// shard owner accumulates its shard into a local residual, selects the
/// top-k from the sum and keeps the unselected remainder there for the next
/// invocation.
///
/// The residual lives at the *sparsification point*: after the intra-node
/// dense ReduceScatter, GPU `j` of node `i` owns the node-local dense sum
/// of shard `j`, so its residual has dimension `d/n` and tracks exactly
/// the information HiTopKComm discards. (Intra-node aggregation is dense
/// and loses nothing.)
///
/// # Panics
/// Panics if the group size is not `m * n` or the residual dimension does
/// not match this rank's shard.
pub fn hitopk_all_reduce_ef<C: Compressor + ?Sized>(
    peer: &Peer,
    x: &mut [f32],
    m: usize,
    n: usize,
    rho: f64,
    compressor: &mut C,
    ef: &mut cloudtrain_compress::ErrorFeedback,
) -> HiTopKReport {
    hitopk_all_reduce_ef_scratch(peer, x, m, n, rho, compressor, ef, &mut CommScratch::new())
}

/// [`hitopk_all_reduce_ef`] drawing every communication buffer from
/// `scratch` (see [`hitopk_all_reduce_scratch`]).
///
/// The error feedback rides the ReduceScatter: its last hop folds each
/// arriving piece of the node-local sum straight into the residual and
/// zeroes the shard behind it, so the sum is never written to `x` and read
/// back, and the selection runs on the accumulated residual. Output,
/// residual and report are bitwise those of reducing, then
/// [`ErrorFeedback::select`](cloudtrain_compress::ErrorFeedback::select) on
/// the shard.
#[allow(clippy::too_many_arguments)]
pub fn hitopk_all_reduce_ef_scratch<C: Compressor + ?Sized>(
    peer: &Peer,
    x: &mut [f32],
    m: usize,
    n: usize,
    rho: f64,
    compressor: &mut C,
    ef: &mut cloudtrain_compress::ErrorFeedback,
    scratch: &mut CommScratch,
) -> HiTopKReport {
    let inter = inter_node_members(grid_pos(peer.rank(), m, n).gpu, m, n);
    hitopk_ef_impl(
        peer, x, m, n, rho, compressor, ef, &inter, false, scratch, None, HOP_PIECE,
    )
}

/// [`hitopk_all_reduce_ef_scratch`] with per-stage spans and counters
/// recorded into `reg` (see [`hitopk_all_reduce_traced`] for the span
/// names and the logical work-unit clock).
#[allow(clippy::too_many_arguments)]
pub fn hitopk_all_reduce_ef_traced<C: Compressor + ?Sized>(
    peer: &Peer,
    x: &mut [f32],
    m: usize,
    n: usize,
    rho: f64,
    compressor: &mut C,
    ef: &mut cloudtrain_compress::ErrorFeedback,
    scratch: &mut CommScratch,
    reg: &mut Registry,
) -> HiTopKReport {
    let inter = inter_node_members(grid_pos(peer.rank(), m, n).gpu, m, n);
    hitopk_ef_impl(
        peer,
        x,
        m,
        n,
        rho,
        compressor,
        ef,
        &inter,
        false,
        scratch,
        Some(reg),
        HOP_PIECE,
    )
}

/// The one body of every error-feedback HiTopKComm path but the resilient
/// one (whose hops run over a `ResilientPeer`). `inter` is this rank's
/// inter-node group in the order the sparse AllGather visits it — natural
/// ([`inter_node_members`]) or a probed permutation
/// ([`crate::reorder::inter_members_ordered`]). A member that `withhold`s
/// its contribution selects nothing and sends an empty block: the
/// ReduceScatter has already folded the node sum into the residual, which
/// is `ErrorFeedback::withhold` on the reduced shard, bit for bit.
#[allow(clippy::too_many_arguments)]
pub(crate) fn hitopk_ef_impl<C: Compressor + ?Sized>(
    peer: &Peer,
    x: &mut [f32],
    m: usize,
    n: usize,
    rho: f64,
    compressor: &mut C,
    ef: &mut cloudtrain_compress::ErrorFeedback,
    inter: &[usize],
    withhold: bool,
    scratch: &mut CommScratch,
    mut reg: Option<&mut Registry>,
    piece: usize,
) -> HiTopKReport {
    assert_eq!(peer.size(), m * n, "hitopk_all_reduce_ef: group is not m*n");
    let d = x.len();
    let pos = grid_pos(peer.rank(), m, n);
    let intra = intra_node_members(pos.node, n);
    assert_eq!(
        ef.dim(),
        shard_for(d, n, pos.gpu).len(),
        "hitopk_all_reduce_ef: residual must match the shard"
    );

    // Error feedback on the shard: the ReduceScatter accumulates it into
    // the residual and leaves the shard zeroed for the gather below.
    let span = obs::span_begin(&mut reg, "hitopk/intra reduce-scatter");
    let shard = ring_reduce_scatter_ef(peer, x, &intra, ef.residual_mut(), scratch, piece);
    obs::span_end(&mut reg, span, d as f64);

    // Select from the accumulated residual, clear what goes on the wire.
    let k = shard_k(d, n, rho).min(shard.len());
    let span = obs::span_begin(&mut reg, "hitopk/top-k compression");
    let selection: SparseGrad = if withhold {
        SparseGrad::empty(shard.len())
    } else {
        let selection = compressor.compress(ef.residual(), k);
        ef.release(&selection);
        selection
    };
    obs::span_end(&mut reg, span, shard.len() as f64);

    let span = obs::span_begin(&mut reg, "hitopk/inter all-gather");
    let value_blocks = all_gather_f32_scratch(peer, &selection.values, inter, scratch);
    let index_blocks = all_gather_u32_scratch(peer, &selection.indices, inter, scratch);
    let inter_bytes_sent = group_wire_bytes(&selection, inter.len());

    let blocks = value_blocks.into_iter().zip(index_blocks);
    let shard_nonzeros = scatter_gathered(shard.slice_mut(x), blocks, scratch);
    obs::span_end(&mut reg, span, (2 * m * k) as f64);

    let span = obs::span_begin(&mut reg, "hitopk/intra all-gather");
    ring_all_gather_scratch(peer, x, &intra, scratch);
    obs::span_end(&mut reg, span, d as f64);

    if let Some(reg) = reg.as_mut() {
        reg.counter_add("hitopk/invocations", 1);
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

/// NaiveAG (TopK-SGD's aggregation; Renggli et al. 2019): every rank
/// sparsifies its *own full* gradient to `k` elements and a flat AllGather
/// over all `P` ranks accumulates the selections. On return every rank's
/// `x` holds `Σ_p TopK(g_p, k)`.
///
/// Returns the bytes this rank sent.
pub fn sparse_all_reduce_naive<C: Compressor + ?Sized>(
    peer: &Peer,
    x: &mut [f32],
    k: usize,
    compressor: &mut C,
) -> usize {
    let members: Vec<usize> = (0..peer.size()).collect();
    let selection = compressor.compress(x, k);
    let value_blocks = all_gather_f32(peer, &selection.values, &members);
    let index_blocks = all_gather_u32(peer, &selection.indices, &members);
    let sent = group_wire_bytes(&selection, members.len());

    ops::fill(x, 0.0);
    for (vals, idxs) in value_blocks.iter().zip(&index_blocks) {
        ops::scatter_add(x, idxs, vals);
    }
    sent
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::group::run_on_group;
    use cloudtrain_compress::exact::{topk_sort, SortTopK};
    use cloudtrain_compress::MsTopK;
    use cloudtrain_tensor::init;
    use cloudtrain_tensor::partition::shards;

    fn vec_for(rank: usize, d: usize) -> Vec<f32> {
        let mut rng = init::rng_from_seed(4000 + rank as u64);
        init::gradient_like_tensor(d, &mut rng).into_vec()
    }

    /// Sequential reference for Algorithm 2 with a deterministic (exact)
    /// selector.
    fn hitopk_reference(m: usize, n: usize, d: usize, rho: f64) -> Vec<f32> {
        let k = shard_k(d, n, rho);
        // Dense per-node sums.
        let node_sums: Vec<Vec<f32>> = (0..m)
            .map(|i| {
                let mut acc = vec![0.0; d];
                for j in 0..n {
                    ops::add_assign(&mut acc, &vec_for(i * n + j, d));
                }
                acc
            })
            .collect();
        // Per shard: sum of exact-top-k selections of each node's shard.
        let mut out = vec![0.0; d];
        for (j, sh) in shards(d, n).iter().enumerate() {
            let _ = j;
            let buf = sh.slice_mut(&mut out);
            for sums in &node_sums {
                let sel = topk_sort(sh.slice(sums), k.min(sh.len()));
                ops::scatter_add(buf, &sel.indices, &sel.values);
            }
        }
        out
    }

    #[test]
    fn matches_sequential_reference_with_exact_selector() {
        for (m, n, d, rho) in [
            (2usize, 4usize, 64usize, 0.1f64),
            (4, 2, 100, 0.05),
            (2, 2, 31, 0.2),
        ] {
            let expect = hitopk_reference(m, n, d, rho);
            let results = run_on_group(m * n, |peer| {
                let mut x = vec_for(peer.rank(), d);
                let mut c = SortTopK;
                hitopk_all_reduce(peer, &mut x, m, n, rho, &mut c);
                x
            });
            for (r, x) in results.iter().enumerate() {
                assert!(
                    ops::approx_eq(x, &expect, 1e-4),
                    "m={m} n={n} rank {r} diverged from reference"
                );
            }
        }
    }

    #[test]
    fn density_one_equals_dense_all_reduce() {
        let (m, n, d) = (2, 4, 48);
        let mut expect = vec![0.0; d];
        for r in 0..m * n {
            ops::add_assign(&mut expect, &vec_for(r, d));
        }
        let results = run_on_group(m * n, |peer| {
            let mut x = vec_for(peer.rank(), d);
            let mut c = SortTopK;
            hitopk_all_reduce(peer, &mut x, m, n, 1.0, &mut c);
            x
        });
        for x in &results {
            assert!(ops::approx_eq(x, &expect, 1e-4));
        }
    }

    #[test]
    fn all_ranks_agree_bitwise_with_mstopk() {
        let (m, n, d) = (4, 2, 1000);
        let results = run_on_group(m * n, |peer| {
            let mut x = vec_for(peer.rank(), d);
            // Seed per *shard owner group* must match: workers with the same
            // gpu index run the same selection on their own node's data, so
            // any per-rank seed works for agreement — selections are shared
            // via AllGather, never recomputed.
            let mut c = MsTopK::new(30, peer.rank() as u64);
            hitopk_all_reduce(peer, &mut x, m, n, 0.01, &mut c);
            x
        });
        for r in 1..m * n {
            assert_eq!(results[0], results[r], "rank {r} differs");
        }
    }

    #[test]
    fn report_counts_are_consistent() {
        let (m, n, d, rho) = (2, 4, 800, 0.05);
        let reports = run_on_group(m * n, |peer| {
            let mut x = vec_for(peer.rank(), d);
            let mut c = SortTopK;
            hitopk_all_reduce(peer, &mut x, m, n, rho, &mut c)
        });
        let k = shard_k(d, n, rho);
        for rep in &reports {
            assert_eq!(rep.k_per_shard, k);
            assert!(rep.shard_nonzeros <= m * k);
            assert!(rep.shard_nonzeros >= k);
            // 2 AllGathers × (m-1) forwards × k elements × 4 bytes.
            assert_eq!(rep.inter_bytes_sent, 8 * k * (m - 1));
        }
    }

    #[test]
    fn naive_ag_matches_sum_of_selections() {
        let (p, d, k) = (4usize, 60usize, 6usize);
        let mut expect = vec![0.0; d];
        for r in 0..p {
            let sel = topk_sort(&vec_for(r, d), k);
            sel.add_into(&mut expect);
        }
        let results = run_on_group(p, |peer| {
            let mut x = vec_for(peer.rank(), d);
            let mut c = SortTopK;
            let sent = sparse_all_reduce_naive(peer, &mut x, k, &mut c);
            (x, sent)
        });
        for (x, sent) in &results {
            assert!(ops::approx_eq(x, &expect, 1e-4));
            assert_eq!(*sent, 8 * k * (p - 1));
        }
    }

    #[test]
    fn ef_variant_with_full_density_matches_plain() {
        // With rho = 1 nothing is discarded, so residuals stay zero and the
        // EF variant must agree with the plain one.
        let (m, n, d) = (2, 2, 32);
        let results = run_on_group(m * n, |peer| {
            let mut x = vec_for(peer.rank(), d);
            let mut c = SortTopK;
            let mut ef =
                cloudtrain_compress::ErrorFeedback::new(shards(d, n)[peer.rank() % n].len());
            let rep = hitopk_all_reduce_ef(peer, &mut x, m, n, 1.0, &mut c, &mut ef);
            (x, ef.residual_norm(), rep)
        });
        let plain = run_on_group(m * n, |peer| {
            let mut x = vec_for(peer.rank(), d);
            let mut c = SortTopK;
            hitopk_all_reduce(peer, &mut x, m, n, 1.0, &mut c);
            x
        });
        for ((x, rnorm, _), px) in results.iter().zip(&plain) {
            assert_eq!(x, px);
            assert_eq!(*rnorm, 0.0);
        }
    }

    #[test]
    fn ef_variant_accumulates_discarded_mass() {
        // At low density the residual must pick up the unsent gradient and
        // re-inject it next round (the shard owner's residual norm is
        // nonzero after round 1 and influences round 2's selection count).
        let (m, n, d) = (2, 2, 64);
        let results = run_on_group(m * n, |peer| {
            let mut c = SortTopK;
            let shard_len = shards(d, n)[peer.rank() % n].len();
            let mut ef = cloudtrain_compress::ErrorFeedback::new(shard_len);
            let mut x = vec_for(peer.rank(), d);
            hitopk_all_reduce_ef(peer, &mut x, m, n, 0.1, &mut c, &mut ef);
            let after_round1 = ef.residual_norm();
            let mut x2 = vec_for(100 + peer.rank(), d);
            hitopk_all_reduce_ef(peer, &mut x2, m, n, 0.1, &mut c, &mut ef);
            after_round1
        });
        for r in &results {
            assert!(*r > 0.0, "residual should be nonzero at rho=0.1");
        }
    }

    #[test]
    fn scratch_variant_is_bitwise_identical_to_plain() {
        let (m, n, d, rho) = (2usize, 4usize, 300usize, 0.05f64);
        let plain = run_on_group(m * n, |peer| {
            let mut x = vec_for(peer.rank(), d);
            let mut c = MsTopK::new(25, peer.rank() as u64);
            let rep = hitopk_all_reduce(peer, &mut x, m, n, rho, &mut c);
            (x, rep)
        });
        let scratched = run_on_group(m * n, |peer| {
            let mut scratch = CommScratch::new();
            let mut x = vec_for(peer.rank(), d);
            let mut c = MsTopK::new(25, peer.rank() as u64);
            let rep = hitopk_all_reduce_scratch(peer, &mut x, m, n, rho, &mut c, &mut scratch);
            (x, rep)
        });
        assert_eq!(plain, scratched);
    }

    #[test]
    fn ef_scratch_variant_is_bitwise_identical_to_plain() {
        let (m, n, d, rho) = (2usize, 2usize, 64usize, 0.1f64);
        let run = |use_scratch: bool| {
            run_on_group(m * n, move |peer| {
                let shard_len = shards(d, n)[peer.rank() % n].len();
                let mut ef = cloudtrain_compress::ErrorFeedback::new(shard_len);
                let mut c = SortTopK;
                let mut scratch = CommScratch::new();
                let mut out = Vec::new();
                for round in 0..3 {
                    let mut x = vec_for(100 * round + peer.rank(), d);
                    if use_scratch {
                        hitopk_all_reduce_ef_scratch(
                            peer,
                            &mut x,
                            m,
                            n,
                            rho,
                            &mut c,
                            &mut ef,
                            &mut scratch,
                        );
                    } else {
                        hitopk_all_reduce_ef(peer, &mut x, m, n, rho, &mut c, &mut ef);
                    }
                    out.push(x);
                }
                (out, ef.residual_norm())
            })
        };
        assert_eq!(run(false), run(true));
    }

    #[test]
    fn traced_variant_is_bitwise_identical_and_records_stages() {
        let (m, n, d, rho) = (2usize, 4usize, 300usize, 0.05f64);
        let plain = run_on_group(m * n, |peer| {
            let mut scratch = CommScratch::new();
            let mut x = vec_for(peer.rank(), d);
            let mut c = MsTopK::new(25, peer.rank() as u64);
            let rep = hitopk_all_reduce_scratch(peer, &mut x, m, n, rho, &mut c, &mut scratch);
            (x, rep)
        });
        let traced = run_on_group(m * n, |peer| {
            let mut scratch = CommScratch::new();
            let mut reg = Registry::new();
            let mut x = vec_for(peer.rank(), d);
            let mut c = MsTopK::new(25, peer.rank() as u64);
            let rep =
                hitopk_all_reduce_traced(peer, &mut x, m, n, rho, &mut c, &mut scratch, &mut reg);
            scratch.publish_obs(&mut reg);
            ((x, rep), reg)
        });
        let k = shard_k(d, n, rho);
        for ((p, (t, reg)), peer_rank) in plain.iter().zip(&traced).zip(0..) {
            assert_eq!(p, t, "rank {peer_rank}: tracing perturbed the result");
            // Four stages, charged in logical work units, zero-gap.
            assert_eq!(reg.spans().len(), 4);
            assert_eq!(reg.span_total("hitopk/intra reduce-scatter"), d as f64);
            assert_eq!(reg.span_total("hitopk/top-k compression") as usize, d / n);
            assert_eq!(
                reg.span_total("hitopk/inter all-gather"),
                (2 * m * k) as f64
            );
            assert_eq!(reg.span_total("hitopk/intra all-gather"), d as f64);
            assert_eq!(reg.counter("hitopk/invocations"), 1);
            assert_eq!(
                reg.counter("hitopk/inter_bytes_sent") as usize,
                t.1.inter_bytes_sent
            );
            assert_eq!(reg.gauge("hitopk/k_per_shard"), Some(k as f64));
            assert!(reg.counter("scratch/f32_takes") > 0);
        }
    }

    #[test]
    fn ef_traced_variant_is_bitwise_identical_to_scratch() {
        let (m, n, d, rho) = (2usize, 2usize, 64usize, 0.1f64);
        let run = |trace: bool| {
            run_on_group(m * n, move |peer| {
                let shard_len = shards(d, n)[peer.rank() % n].len();
                let mut ef = cloudtrain_compress::ErrorFeedback::new(shard_len);
                let mut c = SortTopK;
                let mut scratch = CommScratch::new();
                let mut reg = Registry::new();
                let mut out = Vec::new();
                for round in 0..3 {
                    let mut x = vec_for(100 * round + peer.rank(), d);
                    if trace {
                        hitopk_all_reduce_ef_traced(
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
                        hitopk_all_reduce_ef_scratch(
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
                    assert_eq!(reg.counter("hitopk/invocations"), 3);
                    assert_eq!(reg.spans().len(), 12);
                }
                (out, ef.residual_norm())
            })
        };
        assert_eq!(run(false), run(true));
    }

    #[test]
    fn hitopk_reaches_zero_miss_steady_state() {
        let (m, n, d, rho) = (2usize, 4usize, 240usize, 0.05f64);
        let miss_growth = run_on_group(m * n, |peer| {
            let mut scratch = CommScratch::new();
            let mut c = SortTopK;
            let mut x = vec_for(peer.rank(), d);
            hitopk_all_reduce_scratch(peer, &mut x, m, n, rho, &mut c, &mut scratch);
            let warm = scratch.misses();
            for round in 1..4 {
                let mut y = vec_for(50 * round + peer.rank(), d);
                hitopk_all_reduce_scratch(peer, &mut y, m, n, rho, &mut c, &mut scratch);
            }
            (warm, scratch.misses())
        });
        for (r, (warm, total)) in miss_growth.iter().enumerate() {
            assert!(*warm > 0, "rank {r}: warmup should allocate");
            assert_eq!(
                total, warm,
                "rank {r}: steady-state hitopk allocated communication buffers"
            );
        }
    }

    fn bits(x: &[f32]) -> Vec<u32> {
        x.iter().map(|v| v.to_bits()).collect()
    }

    /// [`hitopk_all_reduce_ef_scratch`] recomposed over the whole-chunk
    /// reference ring loops.
    #[allow(clippy::too_many_arguments)]
    fn hitopk_ef_over_whole_chunk_hops(
        peer: &Peer,
        x: &mut [f32],
        m: usize,
        n: usize,
        rho: f64,
        c: &mut MsTopK,
        feedback: &mut cloudtrain_compress::ErrorFeedback,
        scratch: &mut CommScratch,
    ) -> HiTopKReport {
        use crate::ring::reference;
        let pos = grid_pos(peer.rank(), m, n);
        let intra = intra_node_members(pos.node, n);
        let inter = inter_node_members(pos.gpu, m, n);
        let shard = reference::reduce_scatter(peer, x, &intra);
        let k = shard_k(x.len(), n, rho).min(shard.len());
        let selection = feedback.select(shard.slice(x), k, c);
        feedback.release(&selection);
        let value_blocks = all_gather_f32_scratch(peer, &selection.values, &inter, scratch);
        let index_blocks = all_gather_u32_scratch(peer, &selection.indices, &inter, scratch);
        let blocks = value_blocks.into_iter().zip(index_blocks);
        ops::fill(shard.slice_mut(x), 0.0);
        let shard_nonzeros = scatter_gathered(shard.slice_mut(x), blocks, scratch);
        reference::all_gather(peer, x, &intra);
        HiTopKReport {
            k_per_shard: k,
            shard_nonzeros,
            inter_bytes_sent: group_wire_bytes(&selection, inter.len()),
        }
    }

    #[test]
    fn ef_over_pieced_hops_equals_whole_chunk_hops_across_rounds() {
        // Shards of two full pieces and a tail, one element apart, so the
        // residual carried from round to round has crossed piece
        // boundaries on both the ReduceScatter and the AllGather.
        let (m, n, rho) = (2usize, 2usize, 0.01f64);
        let d = 2 * (2 * ops::REDUCE_BLOCK + 1000) + 1;
        let run = |pieced: bool| {
            run_on_group(m * n, move |peer| {
                let shard_len = shards(d, n)[peer.rank() % n].len();
                let mut ef = cloudtrain_compress::ErrorFeedback::new(shard_len);
                let mut c = MsTopK::new(25, peer.rank() as u64);
                let mut scratch = CommScratch::new();
                let mut rounds = Vec::new();
                for round in 0..3 {
                    let mut x = vec_for(100 * round + peer.rank(), d);
                    let call = if pieced {
                        hitopk_all_reduce_ef_scratch
                    } else {
                        hitopk_ef_over_whole_chunk_hops
                    };
                    let rep = call(peer, &mut x, m, n, rho, &mut c, &mut ef, &mut scratch);
                    rounds.push((bits(&x), bits(ef.residual()), rep));
                }
                rounds
            })
        };
        // Not `assert_eq!`: a failure would print 400k-element vectors.
        assert!(run(true) == run(false), "pieced hops changed a bit");
    }

    #[test]
    fn arena_holds_pieces_not_shards() {
        let (m, n, d, rho) = (2usize, 2usize, 1_000_000usize, 0.01f64);
        run_on_group(m * n, |peer| {
            let mut ef = cloudtrain_compress::ErrorFeedback::new(d / n);
            let mut c = MsTopK::new(25, peer.rank() as u64);
            let mut scratch = CommScratch::new();
            let mut x = vec_for(peer.rank(), d);
            hitopk_all_reduce_ef_scratch(peer, &mut x, m, n, rho, &mut c, &mut ef, &mut scratch);
            let warm = scratch.misses();
            let mut y = vec_for(100 + peer.rank(), d);
            hitopk_all_reduce_ef_scratch(peer, &mut y, m, n, rho, &mut c, &mut ef, &mut scratch);
            assert_eq!(scratch.misses(), warm, "second round allocated");
            // A 2 MB shard crossed the ring four times; none of it stays.
            assert!(scratch.pooled_bytes() < 4 << 20, "{scratch:?}");
        });
    }

    #[test]
    fn scatter_gathered_counts_what_a_full_pass_would() {
        // Overlapping, unsorted and empty blocks; a coordinate that cancels
        // to zero (3) and one that receives an explicit zero (5).
        let blocks = vec![
            (vec![1.0, 2.0, 0.0, 4.0], vec![7u32, 3, 5, 0]),
            (vec![], vec![]),
            (vec![-2.0, 0.5, 1.5], vec![3u32, 7, 11]),
        ];
        let mut scratch = CommScratch::new();
        let mut buf = vec![0.0f32; 12];
        let nonzeros = scatter_gathered(&mut buf, blocks.clone(), &mut scratch);

        let mut want = vec![0.0f32; 12];
        for (vals, idxs) in &blocks {
            ops::scatter_add(&mut want, idxs, vals);
        }
        assert_eq!(buf, want);
        assert_eq!(nonzeros, want.iter().filter(|v| **v != 0.0).count());
        assert_eq!(nonzeros, 3, "coordinates 0, 7 and 11");
        // Every block went back to the pool and nothing was taken from it.
        assert_eq!(scratch.pooled(), 2 * blocks.len());
        assert_eq!(
            scratch.f32_stats().takes + scratch.u32_stats().takes,
            0,
            "the count must not add pool traffic"
        );

        // No contribution at all leaves a zeroed shard zero.
        let none: Vec<(Vec<f32>, Vec<u32>)> = Vec::new();
        ops::fill(&mut buf, 0.0);
        assert_eq!(scatter_gathered(&mut buf, none, &mut scratch), 0);
        assert!(buf.iter().all(|v| *v == 0.0));
    }

    /// The error-feedback sparsification point as it ran before the last
    /// ReduceScatter hop folded into the residual: the node sum is written
    /// to the shard, accumulated into the residual and selected from there
    /// (or, withheld, accumulated and nothing selected), and the shard
    /// zeroed for the gather over `inter`. The oracle the folded hop must
    /// equal bit for bit.
    mod reference {
        use super::*;

        #[allow(clippy::too_many_arguments)]
        pub(super) fn hitopk_ef(
            peer: &Peer,
            x: &mut [f32],
            m: usize,
            n: usize,
            rho: f64,
            c: &mut MsTopK,
            feedback: &mut cloudtrain_compress::ErrorFeedback,
            inter: &[usize],
            withhold: bool,
            scratch: &mut CommScratch,
        ) -> HiTopKReport {
            let intra = intra_node_members(grid_pos(peer.rank(), m, n).node, n);
            let shard = ring_reduce_scatter_scratch(peer, x, &intra, scratch);
            let k = shard_k(x.len(), n, rho).min(shard.len());
            let selection = if withhold {
                feedback.withhold(shard.slice(x));
                SparseGrad::empty(shard.len())
            } else {
                let selection = feedback.select(shard.slice(x), k, c);
                feedback.release(&selection);
                selection
            };
            let value_blocks = all_gather_f32_scratch(peer, &selection.values, inter, scratch);
            let index_blocks = all_gather_u32_scratch(peer, &selection.indices, inter, scratch);
            let blocks = value_blocks.into_iter().zip(index_blocks);
            ops::fill(shard.slice_mut(x), 0.0);
            let shard_nonzeros = scatter_gathered(shard.slice_mut(x), blocks, scratch);
            ring_all_gather_scratch(peer, x, &intra, scratch);
            HiTopKReport {
                k_per_shard: k,
                shard_nonzeros,
                inter_bytes_sent: group_wire_bytes(&selection, inter.len()),
            }
        }
    }

    /// Runs the folded hop at `piece` elements per message and the
    /// reference side by side on every rank of an `m × n` grid for three
    /// rounds, so the residual and the selection RNG carry over, and
    /// requires output, residual and report to agree bit for bit each
    /// round — and the folded side's arena to stop allocating after the
    /// first. The inter-node group is visited in natural or `reversed` node
    /// order, and in the second round the even ranks withhold their
    /// contribution.
    fn assert_folded_hop_equals_reference(
        m: usize,
        n: usize,
        d: usize,
        piece: usize,
        reversed: bool,
    ) {
        let rho = 0.1;
        let order: Vec<usize> = if reversed {
            (0..m).rev().collect()
        } else {
            (0..m).collect()
        };
        run_on_group(m * n, |peer| {
            let what = format!(
                "m={m} n={n} d={d} piece={piece} order={order:?} rank {}",
                peer.rank()
            );
            let inter = crate::reorder::inter_members_ordered(peer.rank() % n, &order, n);
            let shard_len = shards(d, n)[peer.rank() % n].len();
            let seed = peer.rank() as u64;
            let mut got = (
                MsTopK::new(30, seed),
                cloudtrain_compress::ErrorFeedback::new(shard_len),
                CommScratch::new(),
            );
            let mut want = (
                MsTopK::new(30, seed),
                cloudtrain_compress::ErrorFeedback::new(shard_len),
                CommScratch::new(),
            );
            let mut warm = 0;
            for round in 0..3 {
                let withhold = round == 1 && peer.rank() % 2 == 0;
                let mut x = vec_for(100 * round + peer.rank(), d);
                let mut y = x.clone();
                let (c, feedback, scratch) = &mut got;
                let rep = hitopk_ef_impl(
                    peer, &mut x, m, n, rho, c, feedback, &inter, withhold, scratch, None, piece,
                );
                let (c, feedback, scratch) = &mut want;
                let want_rep = reference::hitopk_ef(
                    peer, &mut y, m, n, rho, c, feedback, &inter, withhold, scratch,
                );
                assert_eq!(rep, want_rep, "report, round {round}, {what}");
                assert_eq!(bits(&x), bits(&y), "output, round {round}, {what}");
                assert_eq!(
                    bits(got.1.residual()),
                    bits(want.1.residual()),
                    "residual, round {round}, {what}"
                );
                if round == 0 {
                    warm = got.2.misses();
                }
            }
            assert_eq!(got.2.misses(), warm, "steady state allocated, {what}");
        });
    }

    #[test]
    fn folded_last_hop_equals_reduce_then_select_across_rounds() {
        // Three nodes, so that reversing them reorders a three-term sum.
        for m in [1usize, 2, 3] {
            for n in [1usize, 2, 3, 4] {
                // Fewer elements than GPUs (empty shards); shards one
                // element apart; shards of several 3-element pieces and a
                // tail, also one apart; and the shipped piece size — each
                // with the inter-node group in natural and reversed order.
                for (d, piece) in [
                    (n - 1, 3),
                    (5 * n + 1, HOP_PIECE),
                    (29 * n + n / 2, 3),
                    (29 * n + n / 2, HOP_PIECE),
                ] {
                    for reversed in [false, true] {
                        assert_folded_hop_equals_reference(m, n, d, piece, reversed);
                    }
                }
            }
        }
    }

    #[test]
    fn shard_k_formula() {
        // d=1000, n=8, rho=0.01 -> 1000*0.01/8 = 1.25 -> 1
        assert_eq!(shard_k(1000, 8, 0.01), 1);
        // d=25_000_000, n=8, rho=0.01 -> 31250
        assert_eq!(shard_k(25_000_000, 8, 0.01), 31_250);
        // clamps to at least 1 and at most the shard size
        assert_eq!(shard_k(100, 8, 1e-9), 1);
        assert_eq!(shard_k(16, 8, 1.0), 2);
    }
}
