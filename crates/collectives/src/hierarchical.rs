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
//! 3. inter-node combination of the `(values, indices)` selections among
//!    the `j`-th GPUs of all nodes ([`InterStep`]): the paper's AllGather
//!    followed by index-wise accumulation (Eq. 6), or Li & Hoefler's O(k)
//!    split-and-merge, which delivers bitwise the same sums,
//! 4. intra-node AllGather reassembling the full vector. Each shard holds at
//!    most `m·k̃` nonzeros, so the AllGather forwards the `m` gathered
//!    blocks themselves and every GPU scatter-adds them into its zeroed
//!    copy of the chunk — bitwise the owner's accumulation — instead of
//!    copying the dense shard around the ring.
//!
//! Note the *semantic* difference from flat TopK-SGD: intra-node gradients
//! are aggregated densely (no information loss) before sparsification —
//! the paper credits MSTopK-SGD's small accuracy edge over TopK-SGD to
//! exactly this (§5.5.1).

use cloudtrain_compress::{Compressor, ErrorFeedback, SparseGrad};
use cloudtrain_obs::Registry;
use cloudtrain_tensor::ops;
use cloudtrain_tensor::partition::shard_for;

use crate::group::{Peer, Transport};
use crate::ring::{
    all_gather_f32, all_gather_f32_scratch, all_gather_u32, all_gather_u32_scratch,
    ring_all_gather_blocks, ring_reduce_scatter_ef, HOP_PIECE,
};
use crate::scratch::CommScratch;
use crate::sparse_allreduce::split_merge;
use crate::torus::{grid_pos, inter_node_members, intra_node_members};

/// Per-invocation statistics of a hierarchical sparse AllReduce.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HiTopKReport {
    /// Elements selected per shard (`k̃ = ρ·d/n`, Eq. 5).
    pub k_per_shard: usize,
    /// Distinct nonzero coordinates in this GPU's aggregated shard
    /// (at most `m · k̃`, fewer when selections overlap).
    pub shard_nonzeros: usize,
    /// Bytes attributed to this GPU on the inter-node links (values +
    /// indices): its selection broadcast to the other `m - 1` members
    /// under [`InterStep::AllGatherPairs`]; its split partitions plus its
    /// merged list's broadcast under [`InterStep::SplitMerge`]. Summed over
    /// an inter-node group, this is the payload the group moves.
    pub inter_bytes_sent: usize,
}

impl HiTopKReport {
    /// Records one invocation into `reg`, Fig. 8's four stages in order,
    /// charged in logical work units (elements touched): `d` for each
    /// intra-node step, `shard_len` for the selection and `2·m·k̃` for the
    /// inter-node step. Counters `hitopk/invocations`,
    /// `hitopk/inter_bytes_sent` and `hitopk/shard_nonzeros`, gauge
    /// `hitopk/k_per_shard`. Every number is known once the call returns,
    /// so recording after it leaves the breakdown it would have had.
    pub fn record(&self, reg: &mut Registry, d: usize, shard_len: usize, m: usize) {
        reg.charge("hitopk/intra reduce-scatter", d as f64);
        reg.charge("hitopk/top-k compression", shard_len as f64);
        reg.charge("hitopk/inter all-gather", (2 * m * self.k_per_shard) as f64);
        reg.charge("hitopk/intra all-gather", d as f64);
        reg.counter_add("hitopk/invocations", 1);
        reg.counter_add("hitopk/inter_bytes_sent", self.inter_bytes_sent as u64);
        reg.counter_add("hitopk/shard_nonzeros", self.shard_nonzeros as u64);
        reg.gauge_set("hitopk/k_per_shard", self.k_per_shard as f64);
    }
}

/// Step (iii) of the sparse hierarchy: how the `m` shard owners of one GPU
/// index — one per node — combine their selections. Both steps accumulate
/// every coordinate in member order, so for the same compressor state they
/// leave bitwise the same output, residual and
/// [`HiTopKReport::shard_nonzeros`]; only the wire schedule, and hence
/// [`HiTopKReport::inter_bytes_sent`], differs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum InterStep {
    /// HiTopKComm's step (Algorithm 2): every member AllGathers its whole
    /// selection, `8·k̃·(m-1)` bytes per member.
    AllGatherPairs,
    /// O(k) split-and-merge (Li & Hoefler, *Near-Optimal Sparse
    /// Allreduce*, PPoPP 2022). The shard's index space splits into `m`
    /// balanced contiguous owner ranges; each member sends every other
    /// member the part of its selection that member owns, reduces the `m`
    /// parts of its own range into a merged list, and one AllGather of the
    /// merged lists reassembles the shard. That costs about `8·k̃` split
    /// bytes plus `8·merged·(m-1)` gather bytes per member, where `merged`
    /// is the member's share of the shard's non-zeros: when selections
    /// overlap — the steady state of error-feedback top-k, whose heavy
    /// coordinates are structural — the total stays `O(k̃)` whatever `m`,
    /// and beats the AllGather from `m ≥ 3`; disjoint selections degrade it
    /// to AllGather-like volume, never asymptotically worse.
    SplitMerge,
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
/// HiTopKComm (over any transport) and the flat NaiveAG account their
/// `inter_bytes_sent` through this one expression, so identical traffic
/// always reports identical bytes — the conformance differential test pins
/// it.
pub fn group_wire_bytes(selection: &SparseGrad, group_len: usize) -> usize {
    selection.wire_bytes() * group_len.saturating_sub(1)
}

/// Wire bytes of one framed `(values, indices)` pair message carrying
/// `entries` coordinates: an FP32 value plus a 32-bit index each.
///
/// The point-to-point counterpart of [`group_wire_bytes`]:
/// `group_wire_bytes(sel, g) == pair_wire_bytes(sel.values.len()) * (g-1)`
/// whenever values and indices pair up. [`InterStep::SplitMerge`] accounts
/// its split and merged-broadcast traffic through this, so its bytes stay
/// directly comparable with [`InterStep::AllGatherPairs`]'. A frame's
/// length word is framing, not payload, and is not charged.
pub fn pair_wire_bytes(entries: usize) -> usize {
    8 * entries
}

/// The accumulate that ends step (iii), whichever [`InterStep`] ran it:
/// scatter-adds the gathered `(values, indices)` blocks in member order
/// into `shard_buf`, which must be all `+0.0`, and reports
/// [`HiTopKReport::shard_nonzeros`]. The blocks are left intact, for step
/// (iv) to forward.
///
/// The count is kept inside the scatter-add ([`ops::scatter_add`] returns
/// each block's net change in non-zero slots) instead of by a second read
/// of the shard: on a zeroed shard an untouched coordinate is exactly
/// `+0.0`, so the running count ends at what a full `!= 0.0` pass would
/// find, `-0.0` and NaN included, and each `+=` touches its coordinate
/// once.
fn scatter_gathered(shard_buf: &mut [f32], values: &[Vec<f32>], indices: &[Vec<u32>]) -> usize {
    debug_assert!(shard_buf.iter().all(|v| v.to_bits() == 0), "shard not +0.0");
    let nonzeros: isize = values
        .iter()
        .zip(indices)
        .map(|(vals, idxs)| ops::scatter_add(shard_buf, idxs, vals))
        .sum();
    debug_assert!(nonzeros >= 0, "a zeroed shard lost non-zeros");
    nonzeros.unsigned_abs()
}

/// Returns gathered blocks to the pool.
fn recycle_blocks(values: Vec<Vec<f32>>, indices: Vec<Vec<u32>>, scratch: &mut CommScratch) {
    for (vals, idxs) in values.into_iter().zip(indices) {
        scratch.put_f32(vals);
        scratch.put_u32(idxs);
    }
}

/// HiTopKComm (Algorithm 2): hierarchical sparse AllReduce over an
/// `m × n` grid. On return every rank's `x` holds
/// `Σ_nodes TopK(node-local dense sum)` per shard — identical on all ranks.
///
/// The `compressor` performs step 2's selection; the paper uses
/// [`cloudtrain_compress::MsTopK`], and tests use the exact operator for a
/// deterministic reference. This is the error-feedback body over a fresh
/// zero residual, which selects from exactly the node-local shard sum; over
/// a plain [`Peer`] nothing is ever withheld.
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
    let shard = shard_for(x.len(), n, grid_pos(peer.rank(), m, n).gpu);
    let mut ef = ErrorFeedback::new(shard.len());
    hitopk_all_reduce_ef(
        peer,
        x,
        m,
        n,
        rho,
        InterStep::AllGatherPairs,
        compressor,
        &mut ef,
        &mut CommScratch::new(),
    )
}

/// The sparse hierarchy with error feedback, step (iii) named by `step`,
/// drawing every communication buffer from `scratch` (a reused arena makes
/// each steady-state invocation allocation-free on the wire path). Like
/// [`hitopk_all_reduce`], but the shard owner accumulates its shard into a
/// local residual, selects the top-k from the sum and keeps the unselected
/// remainder there for the next invocation. Over a fresh zero residual it
/// selects from exactly the node-local shard sum: that is a plain
/// HiTopKComm or O(k) run.
///
/// The residual lives at the *sparsification point*: after the intra-node
/// dense ReduceScatter, GPU `j` of node `i` owns the node-local dense sum
/// of shard `j`, so its residual has dimension `d/n` and tracks exactly
/// the information the hierarchy discards. (Intra-node aggregation is dense
/// and loses nothing.)
///
/// The error feedback rides the ReduceScatter: its last hop folds each
/// arriving piece of the node-local sum straight into the residual and
/// zeroes the shard behind it, so the sum is never written to `x` and read
/// back, and the selection runs on the accumulated residual. The
/// ReduceScatter also zeroes every piece it sends, so `x` comes back all
/// `+0.0` and step (iv) can scatter the forwarded blocks into it without a
/// separate pass. Output, residual and report are bitwise those of
/// reducing, then [`ErrorFeedback::select`] on the shard.
///
/// Over a transport that withholds the contribution
/// ([`Transport::contribution_withheld`], e.g. a
/// [`crate::resilience::ResilientPeer`] whose fault plan degrades this
/// member), the member sends an empty selection and its residual keeps the
/// whole reduced shard, to be re-injected next invocation. Every rank
/// still observes the same contributions, so replicas stay bitwise
/// identical.
///
/// # Examples
/// ```
/// use cloudtrain_collectives::group::run_on_group;
/// use cloudtrain_collectives::hierarchical::{hitopk_all_reduce_ef, InterStep};
/// use cloudtrain_collectives::CommScratch;
/// use cloudtrain_compress::{ErrorFeedback, MsTopK};
///
/// // 2 nodes x 2 GPUs, O(k) split-and-merge as step (iii), at density 0.25.
/// let results = run_on_group(4, |peer| {
///     let mut grad = vec![peer.rank() as f32 + 1.0; 64];
///     grad[peer.rank()] = 100.0;
///     let mut topk = MsTopK::new(30, peer.rank() as u64);
///     let mut ef = ErrorFeedback::new(32); // this GPU's half of the vector
///     let step = InterStep::SplitMerge;
///     let mut scratch = CommScratch::new();
///     hitopk_all_reduce_ef(peer, &mut grad, 2, 2, 0.25, step, &mut topk, &mut ef, &mut scratch);
///     grad
/// });
/// assert!(results.iter().all(|r| r == &results[0]));
/// ```
///
/// # Panics
/// Panics if the group size is not `m * n` or the residual dimension does
/// not match this rank's shard.
#[allow(clippy::too_many_arguments)]
pub fn hitopk_all_reduce_ef<T: Transport + ?Sized, C: Compressor + ?Sized>(
    peer: &T,
    x: &mut [f32],
    m: usize,
    n: usize,
    rho: f64,
    step: InterStep,
    compressor: &mut C,
    ef: &mut ErrorFeedback,
    scratch: &mut CommScratch,
) -> HiTopKReport {
    hitopk_ef_impl(peer, x, m, n, rho, step, compressor, ef, scratch, HOP_PIECE)
}

/// HiTopKComm proper: [`hitopk_all_reduce_ef`] with
/// [`InterStep::AllGatherPairs`].
#[allow(clippy::too_many_arguments)]
pub fn hitopk_all_reduce_ef_scratch<T: Transport + ?Sized, C: Compressor + ?Sized>(
    peer: &T,
    x: &mut [f32],
    m: usize,
    n: usize,
    rho: f64,
    compressor: &mut C,
    ef: &mut ErrorFeedback,
    scratch: &mut CommScratch,
) -> HiTopKReport {
    hitopk_all_reduce_ef(
        peer,
        x,
        m,
        n,
        rho,
        InterStep::AllGatherPairs,
        compressor,
        ef,
        scratch,
    )
}

/// The one body of every sparse-hierarchy path, HiTopKComm and O(k)
/// alike, over whichever transport the caller holds. The transport's
/// [`contribution_withheld`](Transport::contribution_withheld) draw is
/// taken once, before selecting: a member that withholds selects nothing
/// and contributes an empty selection — the ReduceScatter has already
/// folded the node sum into the residual, which is
/// `ErrorFeedback::withhold` on the reduced shard, bit for bit.
#[allow(clippy::too_many_arguments)]
fn hitopk_ef_impl<T: Transport + ?Sized, C: Compressor + ?Sized>(
    peer: &T,
    x: &mut [f32],
    m: usize,
    n: usize,
    rho: f64,
    step: InterStep,
    compressor: &mut C,
    ef: &mut ErrorFeedback,
    scratch: &mut CommScratch,
    piece: usize,
) -> HiTopKReport {
    assert_eq!(peer.size(), m * n, "hitopk_all_reduce_ef: group is not m*n");
    let d = x.len();
    let pos = grid_pos(peer.rank(), m, n);
    let intra = intra_node_members(pos.node, n);
    let inter = inter_node_members(pos.gpu, m, n);
    assert_eq!(
        ef.dim(),
        shard_for(d, n, pos.gpu).len(),
        "hitopk_all_reduce_ef: residual must match the shard"
    );

    // Error feedback on the shard: the ReduceScatter accumulates it into
    // the residual and leaves all of `x` +0.0 for step (iv) below. A member
    // that will select offers the last hop's fold to the compressor, which
    // may sweep the residual as it is written.
    let withheld = peer.contribution_withheld();
    let sink = if withheld {
        None
    } else {
        compressor.fold_sink(ef.dim())
    };
    let residual = ef.residual_mut();
    let shard = ring_reduce_scatter_ef(peer, x, &intra, residual, scratch, piece, sink);

    // Select from the accumulated residual, clear what goes on the wire.
    let k = shard_k(d, n, rho).min(shard.len());
    let selection: SparseGrad = if withheld {
        SparseGrad::empty(shard.len())
    } else {
        let selection = compressor.compress(ef.residual(), k);
        ef.release(&selection);
        selection
    };

    let (value_blocks, index_blocks, inter_bytes_sent) = match step {
        InterStep::AllGatherPairs => (
            all_gather_f32_scratch(peer, &selection.values, &inter, scratch),
            all_gather_u32_scratch(peer, &selection.indices, &inter, scratch),
            group_wire_bytes(&selection, inter.len()),
        ),
        InterStep::SplitMerge => split_merge(peer, shard.len(), &selection, &inter, scratch),
    };

    // Step (iv): scatter the blocks into this member's shard, then
    // reassemble the vector by forwarding the blocks themselves.
    let shard_nonzeros = scatter_gathered(shard.slice_mut(x), &value_blocks, &index_blocks);
    let (value_blocks, index_blocks) =
        ring_all_gather_blocks(peer, x, &intra, value_blocks, index_blocks);
    recycle_blocks(value_blocks, index_blocks, scratch);

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
pub fn sparse_all_reduce_naive<T: Transport + ?Sized, C: Compressor + ?Sized>(
    peer: &T,
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
    use crate::group::{run_on_group, Withholding};
    use crate::ring::{ring_all_gather_scratch, ring_reduce_scatter_scratch};
    use cloudtrain_compress::exact::{topk_sort, SortTopK};
    use cloudtrain_compress::mstopk::SAMPLE_FLOOR;
    use cloudtrain_compress::{FusedCounts, MsTopK};
    use cloudtrain_tensor::init;
    use cloudtrain_tensor::partition::shards;

    fn vec_for(rank: usize, d: usize) -> Vec<f32> {
        let mut rng = init::rng_from_seed(4000 + rank as u64);
        init::gradient_like_tensor(d, &mut rng).into_vec()
    }

    /// Reference for [`scatter_gathered`]'s count by another route:
    /// distinct coordinates named by the strictly ascending index `runs`
    /// that hold a non-zero in `shard`, in one merge of the runs.
    fn merged_nonzeros(shard: &[f32], runs: &[Vec<u32>]) -> usize {
        assert!(
            runs.iter().all(|run| run.is_sorted_by(|a, b| a < b)),
            "gathered indices not strictly ascending"
        );
        let mut heads = vec![0; runs.len()];
        let mut nonzeros = 0;
        loop {
            let next = runs
                .iter()
                .zip(&heads)
                .filter_map(|(run, &h)| run.get(h))
                .min();
            let Some(&i) = next else {
                return nonzeros;
            };
            for (run, head) in runs.iter().zip(&mut heads) {
                if run.get(*head) == Some(&i) {
                    *head += 1;
                }
            }
            nonzeros += usize::from(shard[i as usize] != 0.0);
        }
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
            let rep = hitopk_all_reduce_ef_scratch(
                peer,
                &mut x,
                m,
                n,
                1.0,
                &mut c,
                &mut ef,
                &mut CommScratch::new(),
            );
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
            hitopk_all_reduce_ef_scratch(
                peer,
                &mut x,
                m,
                n,
                0.1,
                &mut c,
                &mut ef,
                &mut CommScratch::new(),
            );
            let after_round1 = ef.residual_norm();
            let mut x2 = vec_for(100 + peer.rank(), d);
            hitopk_all_reduce_ef_scratch(
                peer,
                &mut x2,
                m,
                n,
                0.1,
                &mut c,
                &mut ef,
                &mut CommScratch::new(),
            );
            after_round1
        });
        for r in &results {
            assert!(*r > 0.0, "residual should be nonzero at rho=0.1");
        }
    }

    #[test]
    fn scratch_variant_is_bitwise_identical_to_plain() {
        // A fresh arena per call against one arena reused across rounds
        // (each round over a fresh zero residual, as the plain path runs):
        // recycled buffers must not change a bit.
        let (m, n, d, rho) = (2usize, 4usize, 300usize, 0.05f64);
        let run = |reuse: bool| {
            run_on_group(m * n, move |peer| {
                let mut scratch = CommScratch::new();
                let mut c = MsTopK::new(25, peer.rank() as u64);
                let shard_len = shards(d, n)[peer.rank() % n].len();
                let mut out = Vec::new();
                for round in 0..3 {
                    let mut x = vec_for(100 * round + peer.rank(), d);
                    let rep = if reuse {
                        let mut ef = ErrorFeedback::new(shard_len);
                        hitopk_all_reduce_ef_scratch(
                            peer,
                            &mut x,
                            m,
                            n,
                            rho,
                            &mut c,
                            &mut ef,
                            &mut scratch,
                        )
                    } else {
                        hitopk_all_reduce(peer, &mut x, m, n, rho, &mut c)
                    };
                    out.push((x, rep));
                }
                out
            })
        };
        assert_eq!(run(false), run(true));
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
                        let fresh = &mut CommScratch::new();
                        hitopk_all_reduce_ef_scratch(
                            peer, &mut x, m, n, rho, &mut c, &mut ef, fresh,
                        );
                    }
                    out.push(x);
                }
                (out, ef.residual_norm())
            })
        };
        assert_eq!(run(false), run(true));
    }

    /// The breakdown recorded from what the call returns: per invocation,
    /// the four stages in order with their work units, and the counters
    /// summing the reports.
    #[test]
    fn report_record_charges_the_four_stages() {
        let (m, n, d, rho) = (2usize, 4usize, 300usize, 0.05f64);
        let rounds = 3;
        let recorded = run_on_group(m * n, move |peer| {
            let shard_len = shards(d, n)[peer.rank() % n].len();
            let mut ef = cloudtrain_compress::ErrorFeedback::new(shard_len);
            let mut c = MsTopK::new(25, peer.rank() as u64);
            let mut scratch = CommScratch::new();
            let mut reg = Registry::new();
            let mut reports = Vec::new();
            for round in 0..rounds {
                let mut x = vec_for(100 * round + peer.rank(), d);
                let rep = hitopk_all_reduce_ef_scratch(
                    peer,
                    &mut x,
                    m,
                    n,
                    rho,
                    &mut c,
                    &mut ef,
                    &mut scratch,
                );
                rep.record(&mut reg, d, shard_len, m);
                reports.push(rep);
            }
            (shard_len, reports, reg)
        });
        let k = shard_k(d, n, rho);
        for (rank, (shard_len, reports, reg)) in recorded.iter().enumerate() {
            let stages = [
                ("hitopk/intra reduce-scatter", d),
                ("hitopk/top-k compression", *shard_len),
                ("hitopk/inter all-gather", 2 * m * k),
                ("hitopk/intra all-gather", d),
            ];
            let spans = reg.spans();
            assert_eq!(spans.len(), 4 * rounds, "rank {rank}");
            let mut clock = 0.0;
            for (span, (name, units)) in spans.iter().zip(stages.iter().cycle()) {
                assert_eq!(span.name, *name, "rank {rank}");
                assert_eq!((span.start, span.end), (clock, clock + *units as f64));
                assert_eq!(span.depth, 0);
                clock = span.end;
            }
            let sum = |f: fn(&HiTopKReport) -> usize| reports.iter().map(f).sum::<usize>() as u64;
            assert_eq!(reg.counter("hitopk/invocations"), rounds as u64);
            assert_eq!(
                reg.counter("hitopk/inter_bytes_sent"),
                sum(|r| r.inter_bytes_sent)
            );
            assert_eq!(
                reg.counter("hitopk/shard_nonzeros"),
                sum(|r| r.shard_nonzeros)
            );
            assert_eq!(reg.gauge("hitopk/k_per_shard"), Some(k as f64));
        }
    }

    #[test]
    fn hitopk_reaches_zero_miss_steady_state() {
        let (m, n, d, rho) = (2usize, 4usize, 240usize, 0.05f64);
        let miss_growth = run_on_group(m * n, |peer| {
            let mut scratch = CommScratch::new();
            let mut c = SortTopK;
            let mut ef = ErrorFeedback::new(shards(d, n)[peer.rank() % n].len());
            let mut x = vec_for(peer.rank(), d);
            hitopk_all_reduce_ef_scratch(peer, &mut x, m, n, rho, &mut c, &mut ef, &mut scratch);
            let warm = scratch.misses();
            for round in 1..4 {
                let mut y = vec_for(50 * round + peer.rank(), d);
                hitopk_all_reduce_ef_scratch(
                    peer,
                    &mut y,
                    m,
                    n,
                    rho,
                    &mut c,
                    &mut ef,
                    &mut scratch,
                );
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
        ops::fill(shard.slice_mut(x), 0.0);
        let shard_nonzeros = scatter_gathered(shard.slice_mut(x), &value_blocks, &index_blocks);
        recycle_blocks(value_blocks, index_blocks, scratch);
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
        // Each block strictly ascending, as every compressor returns its
        // selection. Across blocks: overlaps at 0, 3 and 7; a coordinate
        // that cancels to exactly +0.0 (3: 2 - 2) and one that is sent
        // -0.0 by two members (5: +0.0 + -0.0 + -0.0 stays +0.0 — from a
        // +0.0 start no sum of additions reaches -0.0); a NaN (9), which
        // counts as a non-zero; and an empty block, as a withheld member
        // sends.
        let candidates = [
            (vec![4.0f32, 2.0, -0.0, 1.0], vec![0u32, 3, 5, 7]),
            (vec![], vec![]),
            (vec![-2.0, -0.0, 0.5, 1.5], vec![3, 5, 7, 11]),
            (vec![-4.0, -1.0, -1.5, f32::NAN], vec![0, 1, 7, 9]),
        ];
        for m in 1..=3 {
            // Every run of m consecutive candidates, so each block leads
            // once and the empty one sits first, between and last.
            for first in 0..candidates.len() {
                let (values, indices): (Vec<_>, Vec<_>) = (0..m)
                    .map(|t| candidates[(first + t) % candidates.len()].clone())
                    .unzip();
                let mut buf = vec![0.0f32; 12];
                let nonzeros = scatter_gathered(&mut buf, &values, &indices);

                let mut want = vec![0.0f32; 12];
                for (vals, idxs) in values.iter().zip(&indices) {
                    for (&i, &v) in idxs.iter().zip(vals) {
                        want[i as usize] += v;
                    }
                }
                let what = format!("m={m} first={first}");
                assert_eq!(bits(&buf), bits(&want), "{what}");
                assert_eq!(
                    nonzeros,
                    want.iter().filter(|v| **v != 0.0).count(),
                    "{what}"
                );
                assert_eq!(nonzeros, merged_nonzeros(&buf, &indices), "{what}");
            }
        }

        // The cancellations by name: blocks 0 and 2 touch 0, 3, 5, 7 and
        // 11, and 3 and 5 come out +0.0.
        let (values, indices): (Vec<_>, Vec<_>) = [candidates[0].clone(), candidates[2].clone()]
            .into_iter()
            .unzip();
        let mut buf = vec![0.0f32; 12];
        assert_eq!(scatter_gathered(&mut buf, &values, &indices), 3);
        assert_eq!((buf[3].to_bits(), buf[5].to_bits()), (0, 0));

        // No contribution at all leaves a zeroed shard zero.
        let mut buf = vec![0.0f32; 12];
        assert_eq!(scatter_gathered(&mut buf, &[], &[]), 0);
        assert!(buf.iter().all(|v| v.to_bits() == 0));
    }

    /// The error-feedback sparsification point as it ran before the last
    /// ReduceScatter hop folded into the residual: the node sum is written
    /// to the shard, accumulated into the residual and selected from there
    /// (or, withheld, accumulated and nothing selected), and the shard
    /// zeroed for the inter-node gather. The oracle the folded hop must
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
            withhold: bool,
            scratch: &mut CommScratch,
        ) -> HiTopKReport {
            let pos = grid_pos(peer.rank(), m, n);
            let intra = intra_node_members(pos.node, n);
            let inter = inter_node_members(pos.gpu, m, n);
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
            let value_blocks = all_gather_f32_scratch(peer, &selection.values, &inter, scratch);
            let index_blocks = all_gather_u32_scratch(peer, &selection.indices, &inter, scratch);
            ops::fill(shard.slice_mut(x), 0.0);
            let shard_nonzeros = scatter_gathered(shard.slice_mut(x), &value_blocks, &index_blocks);
            recycle_blocks(value_blocks, index_blocks, scratch);
            ring_all_gather_scratch(peer, x, &intra, scratch);
            HiTopKReport {
                k_per_shard: k,
                shard_nonzeros,
                inter_bytes_sent: group_wire_bytes(&selection, inter.len()),
            }
        }
    }

    /// Runs the folded hop at `piece` elements per message with step (iii)
    /// `step` and the reference side by side on every rank of an `m × n`
    /// grid at density `rho` for three rounds, so the residual and the
    /// selection RNG carry over, and requires output, residual and report
    /// to agree bit for bit each round — and, under
    /// [`InterStep::AllGatherPairs`], the folded side's arena to stop
    /// allocating after the first. In the second round the even ranks
    /// withhold their contribution: the folded side draws that from its
    /// transport, the reference is told. The reference gathers whole
    /// selections, so its `inter_bytes_sent` is compared for
    /// [`InterStep::AllGatherPairs`] only.
    fn assert_folded_hop_equals_reference(
        shape: (usize, usize, usize, f64),
        piece: usize,
        step: InterStep,
    ) {
        let input = |round: usize, rank: usize, d: usize| vec_for(100 * round + rank, d);
        folded_hop_against_reference(shape, piece, step, 3, input, |_, _| {});
    }

    /// [`assert_folded_hop_equals_reference`] over `rounds` rounds of
    /// `input(round, rank, d)`, with `between(round, operator)` run on both
    /// sides' operators before each round. Returns each rank's
    /// [`MsTopK::fused_counts`] after each round.
    fn folded_hop_against_reference(
        (m, n, d, rho): (usize, usize, usize, f64),
        piece: usize,
        step: InterStep,
        rounds: usize,
        input: impl Fn(usize, usize, usize) -> Vec<f32> + Sync,
        between: impl Fn(usize, &mut MsTopK) + Sync,
    ) -> Vec<Vec<FusedCounts>> {
        let withheld = |round: u64, rank: usize| round == 1 && rank.is_multiple_of(2);
        run_on_group(m * n, |peer| {
            let what = format!(
                "m={m} n={n} d={d} rho={rho} piece={piece} {step:?} rank {}",
                peer.rank()
            );
            let transport = Withholding::new(peer, |call| withheld(call, peer.rank()));
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
            let mut counts = Vec::new();
            for round in 0..rounds {
                between(round, &mut got.0);
                between(round, &mut want.0);
                let mut x = input(round, peer.rank(), d);
                let mut y = x.clone();
                let (c, feedback, scratch) = &mut got;
                let mut rep = hitopk_ef_impl(
                    &transport, &mut x, m, n, rho, step, c, feedback, scratch, piece,
                );
                let (c, feedback, scratch) = &mut want;
                let withhold = withheld(round as u64, peer.rank());
                let want_rep =
                    reference::hitopk_ef(peer, &mut y, m, n, rho, c, feedback, withhold, scratch);
                if step == InterStep::SplitMerge {
                    rep.inter_bytes_sent = want_rep.inter_bytes_sent;
                }
                assert_eq!(rep, want_rep, "report, round {round}, {what}");
                assert!(bits(&x) == bits(&y), "output, round {round}, {what}");
                assert!(
                    bits(got.1.residual()) == bits(want.1.residual()),
                    "residual, round {round}, {what}"
                );
                if round == 0 {
                    warm = got.2.misses();
                }
                counts.push(got.0.fused_counts());
            }
            // Split-and-merge payloads follow the data (a merged list holds
            // its owner range's non-zeros), and pooled buffers of different
            // sizes trade places between ranks with them, so one round of
            // warm-up promises a fixed point only for the AllGather's
            // fixed-size blocks.
            if step == InterStep::AllGatherPairs {
                assert_eq!(got.2.misses(), warm, "steady state allocated, {what}");
            }
            counts
        })
    }

    #[test]
    fn folded_last_hop_equals_reduce_then_select_across_rounds() {
        // Three nodes, so the inter-node step accumulates a three-term
        // sum, and split-and-merge owner ranges that run empty when a
        // shard is shorter than m.
        for m in [1usize, 2, 3] {
            for n in [1usize, 2, 3, 4] {
                // Fewer elements than GPUs (empty shards); shards one
                // element apart; shards of several 3-element pieces and a
                // tail, also one apart; and the shipped piece size.
                // At rho = 0.5 the forwarded blocks outweigh the dense
                // shard (2·m·k̃ ≥ ⌊d/n⌋) on every shape; they must still
                // meet the reference's dense AllGather bit for bit.
                for (d, piece) in [
                    (n - 1, 3),
                    (5 * n + 1, HOP_PIECE),
                    (29 * n + n / 2, 3),
                    (29 * n + n / 2, HOP_PIECE),
                ] {
                    for rho in [0.1, 0.5] {
                        for step in [InterStep::AllGatherPairs, InterStep::SplitMerge] {
                            assert_folded_hop_equals_reference((m, n, d, rho), piece, step);
                        }
                    }
                }
            }
        }
    }

    /// The folded hop with an MSTopK that sweeps it: shards just below,
    /// at and just above the size the operator samples, and four times
    /// it, over rounds that take every path of the sink — none offered
    /// (first round; below the floor; withheld by the even ranks in round
    /// 1), hits, a round whose input is a thousandth of the residual's
    /// scale (the cutoff falls far under the hint: a miss), and an
    /// operator whose hint is stale, set between rounds by a selection on
    /// an unrelated tensor a thousand times larger (a miss). Every round is
    /// the reference's bit for bit.
    #[test]
    fn folded_hop_sweeping_for_mstopk_equals_reduce_then_select() {
        let (m, n, rho) = (2usize, 2usize, 0.01f64);
        let input = |round: usize, rank: usize, d: usize| {
            let scale = if round == 3 { 1e-3 } else { 1.0 };
            let mut v = vec_for(100 * round + rank, d);
            ops::scale(&mut v, scale);
            v
        };
        let between = |round: usize, c: &mut MsTopK| {
            if round == 4 {
                let mut unrelated = vec_for(7, 4 * SAMPLE_FLOOR);
                ops::scale(&mut unrelated, 1e3);
                c.compress(&unrelated, SAMPLE_FLOOR / 25);
            }
        };
        for shard in [
            SAMPLE_FLOOR - 1,
            SAMPLE_FLOOR,
            SAMPLE_FLOOR + 1,
            4 * SAMPLE_FLOOR + 3,
        ] {
            let d = n * shard;
            for step in [InterStep::AllGatherPairs, InterStep::SplitMerge] {
                let counts = folded_hop_against_reference(
                    (m, n, d, rho),
                    HOP_PIECE,
                    step,
                    5,
                    input,
                    between,
                );
                for (rank, counts) in counts.iter().enumerate() {
                    let what = format!("shard {shard} {step:?} rank {rank}");
                    let seen: Vec<(u64, u64)> = counts.iter().map(|c| (c.hits, c.misses)).collect();
                    let want = if shard < SAMPLE_FLOOR {
                        vec![(0, 0); 5]
                    } else if rank % 2 == 0 {
                        vec![(0, 0), (0, 0), (1, 0), (1, 1), (1, 2)]
                    } else {
                        vec![(0, 0), (1, 0), (2, 0), (2, 1), (2, 2)]
                    };
                    assert_eq!(seen, want, "(hits, misses) after each round, {what}");
                }
            }
        }
    }

    #[test]
    fn plain_forwarded_step_iv_equals_the_dense_all_gather() {
        // The plain path is the error-feedback body over a zero residual:
        // its folded ReduceScatter and forwarded step (iv) must meet the
        // plain ReduceScatter, selection and dense AllGather, recomposed,
        // bit for bit.
        for (m, n, d) in [(2usize, 2usize, 300usize), (3, 4, 1001), (2, 3, 64)] {
            let rho = 0.05;
            run_on_group(m * n, |peer| {
                let mut scratch = CommScratch::new();
                let mut x = vec_for(peer.rank(), d);
                let mut y = x.clone();
                let rep = hitopk_all_reduce(peer, &mut x, m, n, rho, &mut SortTopK);

                let pos = grid_pos(peer.rank(), m, n);
                let intra = intra_node_members(pos.node, n);
                let inter = inter_node_members(pos.gpu, m, n);
                let shard = ring_reduce_scatter_scratch(peer, &mut y, &intra, &mut scratch);
                let k = shard_k(d, n, rho).min(shard.len());
                let selection = SortTopK.compress(shard.slice(&y), k);
                let values = all_gather_f32_scratch(peer, &selection.values, &inter, &mut scratch);
                let indices =
                    all_gather_u32_scratch(peer, &selection.indices, &inter, &mut scratch);
                ops::fill(shard.slice_mut(&mut y), 0.0);
                let shard_nonzeros = scatter_gathered(shard.slice_mut(&mut y), &values, &indices);
                recycle_blocks(values, indices, &mut scratch);
                ring_all_gather_scratch(peer, &mut y, &intra, &mut scratch);

                let what = format!("m={m} n={n} d={d} rank {}", peer.rank());
                assert_eq!(bits(&x), bits(&y), "{what}");
                assert_eq!(rep.shard_nonzeros, shard_nonzeros, "{what}");
            });
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
