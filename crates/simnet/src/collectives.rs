//! Simulated timing of the paper's aggregation schemes (Figs. 7 and 8).
//!
//! Each function plays a collective's transfer schedule on a [`NetSim`] as
//! a list of labelled phases; one player times them (a span and a makespan
//! per phase, a barrier between phases). The rings run over a list of
//! member groups (a single ring is one group) and each hierarchical scheme
//! is one body over its inter-node streams. The schedules follow the real
//! implementations in `cloudtrain-collectives` except for the sparse
//! schemes' step (iv), priced `min(sparse, dense)` (see [`sim_hitopk`]).
//!
//! * **ring** ReduceScatter / AllGather — `P-1` dependent rounds;
//! * **TreeAR** — NCCL-style hierarchical tree AllReduce: a pipelined
//!   intra-node chain reduce to each node leader, a chunk-pipelined double
//!   binomial tree across the leaders, and a chain broadcast back. NCCL's
//!   tree protocol is known to reach only a fraction of line rate on
//!   TCP/Ethernet transports (it is tuned for InfiniBand and auto-switches
//!   to ring above a size threshold; the paper forces Tree), modelled by
//!   [`TREE_PROTO_EFFICIENCY`];
//! * **NaiveAG** — two flat ring AllGathers over all `P` ranks (values,
//!   then indices), the aggregation of TopK-SGD (Eq. 3);
//! * **2DTAR** — intra-node ReduceScatter, `n` concurrent inter-node ring
//!   AllReduces sharing each NIC, intra-node AllGather;
//! * **HiTopKComm** — the four steps of Algorithm 2 (Eqs. 7–10);
//! * **O(k)** — the same hierarchy with a split–merge–gather inter-node
//!   step in place of HiTopKComm's AllGather.

use crate::netsim::NetSim;
use crate::topology::ClusterSpec;

/// Fraction of Ethernet line rate NCCL's tree protocol sustains on
/// TCP transports (vs. ~full rate for rings). Calibrated constant — see
/// the module docs and EXPERIMENTS.md.
pub const TREE_PROTO_EFFICIENCY: f64 = 0.35;

/// Payload inflation of the naive sparse AllGather path: TensorFlow
/// `IndexedSlices` gathered through Horovod are staged through host memory
/// (no GPUDirect on cloud VMs) with extra copies and per-tensor
/// synchronisation — the very inefficiency §1 and §3.2 call out and
/// CommLib's packed GPU-buffer wire format removes. Calibrated constant;
/// see EXPERIMENTS.md.
pub const NAIVE_STAGING_FACTOR: f64 = 2.5;

/// Returns the pipelining granularity (bytes) for chunked tree/chain
/// schedules. NCCL-like: ~32 chunks in flight, clamped to [64 KiB, 1 MiB].
pub fn pipeline_chunk(total_bytes: usize) -> usize {
    (total_bytes / 32).clamp(64 * 1024, 1024 * 1024)
}

/// One labelled phase of a composite collective.
#[derive(Debug, Clone, PartialEq)]
pub struct PhaseTiming {
    /// Phase name (e.g. `"intra reduce-scatter"`).
    pub label: &'static str,
    /// Phase duration in seconds (makespan over participants).
    pub seconds: f64,
}

/// Timing result of one simulated collective.
#[derive(Debug, Clone, PartialEq)]
pub struct CollectiveTiming {
    /// Total makespan in seconds.
    pub total: f64,
    /// Per-phase breakdown (empty for single-phase collectives).
    pub phases: Vec<PhaseTiming>,
}

/// One labelled phase of a schedule: the transfers (or compute) it plays.
type Phase<'a> = (&'static str, &'a dyn Fn(&mut NetSim));

/// The phase player every collective runs on: plays `phases` in order with
/// a barrier between consecutive phases, each inside a `{prefix}/{label}`
/// span of the attached observability registry (if any) covering exactly
/// its virtual-time window. Returns the phases' makespans and their sum; a
/// single-phase collective reports no breakdown.
fn play(sim: &mut NetSim, prefix: &str, phases: &[Phase<'_>]) -> CollectiveTiming {
    let mut timings = Vec::with_capacity(phases.len());
    for (i, &(label, phase)) in phases.iter().enumerate() {
        if i > 0 {
            sim.barrier();
        }
        let span = sim.span_open(&format!("{prefix}/{label}"));
        let start = sim.makespan();
        phase(sim);
        let seconds = sim.makespan() - start;
        sim.span_close(span);
        timings.push(PhaseTiming { label, seconds });
    }
    let total = timings.iter().map(|p| p.seconds).sum();
    if timings.len() == 1 {
        timings.clear();
    }
    CollectiveTiming {
        total,
        phases: timings,
    }
}

fn chunk_bytes(total_bytes: usize, parts: usize) -> usize {
    total_bytes.div_ceil(parts)
}

/// Plays `P-1` ring rounds in every group of `groups` at once, a group of
/// `P` members sending `block(P)` bytes per member per round. The rounds
/// of all groups interleave, so groups sharing a resource (e.g. the `n`
/// inter-node streams sharing each node's NIC) contend round by round
/// instead of being falsely serialised; a one-member group plays nothing.
fn ring_rounds(sim: &mut NetSim, groups: &[Vec<usize>], block: impl Fn(usize) -> usize) {
    let rounds = groups
        .iter()
        .map(|g| g.len().saturating_sub(1))
        .max()
        .unwrap_or(0);
    for r in 0..rounds {
        let mut transfers = Vec::new();
        for g in groups {
            let p = g.len();
            if r + 1 < p {
                let bytes = block(p);
                transfers.extend((0..p).map(|i| (g[i], g[(i + 1) % p], bytes)));
            }
        }
        sim.round(&transfers);
    }
}

/// Ring ReduceScatter of a `total_bytes` vector within each member group
/// of `groups`, all groups concurrently (a single ring is one group):
/// `P-1` rounds of `total_bytes / P` each.
pub fn sim_ring_reduce_scatter(sim: &mut NetSim, groups: &[Vec<usize>], total_bytes: usize) {
    ring_rounds(sim, groups, |p| chunk_bytes(total_bytes, p));
}

/// Ring AllGather within each member group of `groups`, all groups
/// concurrently, where each member contributes `block_bytes`: `P-1`
/// rounds of `block_bytes` each.
pub fn sim_ring_all_gather(sim: &mut NetSim, groups: &[Vec<usize>], block_bytes: usize) {
    ring_rounds(sim, groups, |_| block_bytes);
}

/// Ring AllReduce of `total_bytes` within each member group of `groups` =
/// ReduceScatter + AllGather of the shards.
pub fn sim_ring_all_reduce(sim: &mut NetSim, groups: &[Vec<usize>], total_bytes: usize) {
    sim_ring_reduce_scatter(sim, groups, total_bytes);
    ring_rounds(sim, groups, |p| chunk_bytes(total_bytes, p));
}

/// Plays a chunk-pipelined schedule: `levels[l]` is the set of edges at
/// pipeline stage `l`; the payload is split into `ceil(total/chunk)` chunks
/// and chunk `c` traverses stage `l` in round `l + c` (systolic), so
/// contention (several edges of different stages sharing a NIC in the same
/// round) is charged naturally.
fn sim_pipelined_levels(
    sim: &mut NetSim,
    levels: &[Vec<(usize, usize)>],
    total_bytes: usize,
    chunk: usize,
) {
    if levels.is_empty() || total_bytes == 0 {
        return;
    }
    let chunks = total_bytes.div_ceil(chunk);
    let last = chunk_bytes(total_bytes, 1) - (chunks - 1) * chunk; // remainder
    let rounds = levels.len() + chunks - 1;
    for r in 0..rounds {
        let mut transfers = Vec::new();
        for (l, edges) in levels.iter().enumerate() {
            if r < l {
                continue;
            }
            let c = r - l;
            if c >= chunks {
                continue;
            }
            let bytes = if c + 1 == chunks { last } else { chunk };
            for &(src, dst) in edges {
                transfers.push((src, dst, bytes));
            }
        }
        if !transfers.is_empty() {
            sim.round(&transfers);
        }
    }
}

/// Levels of a pipelined chain `g_{k-1} -> ... -> g_0` (reduce direction).
fn chain_levels(members: &[usize], towards_head: bool) -> Vec<Vec<(usize, usize)>> {
    let p = members.len();
    let mut levels = Vec::new();
    if towards_head {
        for j in (1..p).rev() {
            levels.push(vec![(members[j], members[j - 1])]);
        }
    } else {
        for j in 0..p - 1 {
            levels.push(vec![(members[j], members[j + 1])]);
        }
    }
    levels
}

/// Parent of 1-indexed node `k` in the Sanders/NCCL double-binary-tree
/// structure (the Fenwick-tree shape): a node with `h` trailing zero bits
/// sits at height `h`; its parent flips bit `h` according to bit `h+1`, so
/// all odd `k` are leaves. Returns `None` for the root.
fn fenwick_parent(k: usize, p: usize) -> Option<usize> {
    debug_assert!(k >= 1 && k <= p);
    let h = k.trailing_zeros();
    let up = k + (1 << h); // sibling direction candidates
    let down = k - (1 << h);
    let parent = if (k >> (h + 1)) & 1 == 1 { down } else { up };
    // Clamp for non-power-of-two sizes: fall back to the in-range candidate.
    let parent = if parent == 0 || parent > p {
        if down >= 1 && down != k {
            down
        } else {
            up
        }
    } else {
        parent
    };
    if parent == 0 || parent > p || parent == k {
        None
    } else {
        Some(parent)
    }
}

/// Pipeline stages of one Sanders binary tree over `order`: reduce-up
/// levels (leaves first) followed by broadcast-down levels (root first), so
/// a chunk flows bottom-up then top-down in one systolic pass. Binary
/// fan-in keeps the per-round port load at 2 chunks — the reason NCCL trees
/// are binary, not binomial — and the all-odd-leaves shape is what lets the
/// second (shifted) tree make every interior node of the first a leaf.
fn binary_tree_levels(order: &[usize]) -> Vec<Vec<(usize, usize)>> {
    let p = order.len();
    if p <= 1 {
        return Vec::new();
    }
    // Depth of each node = hops to the root.
    let mut depth = vec![0usize; p + 1];
    let mut max_depth = 0;
    for (k, slot) in depth.iter_mut().enumerate().skip(1) {
        let mut d = 0;
        let mut cur = k;
        while let Some(par) = fenwick_parent(cur, p) {
            d += 1;
            cur = par;
            debug_assert!(d <= 2 * 64, "fenwick parent loop");
        }
        *slot = d;
        max_depth = max_depth.max(d);
    }
    let mut up = vec![Vec::new(); max_depth];
    let mut down = vec![Vec::new(); max_depth];
    for k in 1..=p {
        if let Some(par) = fenwick_parent(k, p) {
            let d = depth[k];
            up[max_depth - d].push((order[k - 1], order[par - 1]));
            down[d - 1].push((order[par - 1], order[k - 1]));
        }
    }
    up.extend(down);
    up
}

/// Merges two level stacks stage-wise (edges of both trees run in the same
/// pipeline stage, as NCCL's double tree does).
fn merge_levels(
    a: Vec<Vec<(usize, usize)>>,
    b: Vec<Vec<(usize, usize)>>,
) -> Vec<Vec<(usize, usize)>> {
    let len = a.len().max(b.len());
    let mut out = vec![Vec::new(); len];
    for (l, edges) in a.into_iter().enumerate() {
        out[l].extend(edges);
    }
    for (l, edges) in b.into_iter().enumerate() {
        out[l].extend(edges);
    }
    out
}

/// NCCL-style hierarchical tree AllReduce ("TreeAR").
///
/// Phase 1: pipelined intra-node chain reduce onto each node's leader GPU.
/// Phase 2: chunk-pipelined double binomial tree across the leaders (half
/// the vector per tree, the second tree over reversed node order), reduce
/// up then broadcast down, with the tree-protocol efficiency penalty on the
/// payload. Phase 3: pipelined intra-node chain broadcast.
pub fn sim_tree_all_reduce_hier(
    sim: &mut NetSim,
    spec: &ClusterSpec,
    total_bytes: usize,
) -> CollectiveTiming {
    let m = spec.nodes;
    let n = spec.gpus_per_node;
    let leaders: Vec<usize> = (0..m).map(|i| i * n).collect();
    // The chains of all nodes run in parallel, towards or from the leader.
    let chains = |sim: &mut NetSim, towards_head: bool| {
        for i in 0..m {
            let members = spec.node_members(i);
            sim_pipelined_levels(
                sim,
                &chain_levels(&members, towards_head),
                total_bytes,
                pipeline_chunk(total_bytes),
            );
        }
    };
    // Double binomial tree over the leaders, half the bytes per tree,
    // reduce then broadcast, chunk-pipelined. The protocol penalty inflates
    // the wire bytes.
    let double_tree = |sim: &mut NetSim| {
        if m > 1 {
            let eff_bytes = (total_bytes as f64 / 2.0 / TREE_PROTO_EFFICIENCY) as usize;
            // The second tree runs over a rotated leader order so that
            // interior/leaf roles differ between the trees (double tree).
            let rotated: Vec<usize> = leaders
                .iter()
                .skip(1)
                .chain(leaders.iter().take(1))
                .copied()
                .collect();
            let levels = merge_levels(binary_tree_levels(&leaders), binary_tree_levels(&rotated));
            sim_pipelined_levels(sim, &levels, eff_bytes, pipeline_chunk(eff_bytes));
        }
    };
    play(
        sim,
        "treear",
        &[
            ("intra chain reduce", &|sim| chains(sim, true)),
            ("inter double tree", &double_tree),
            ("intra chain broadcast", &|sim| chains(sim, false)),
        ],
    )
}

/// Flat sparse AllGather ("NaiveAG", Eq. 3): every rank contributes its
/// top-k as two payloads gathered by two sequential rings over all
/// `P = m·n` GPUs. This models the TensorFlow/Horovod sparse path the
/// paper baselines against: `IndexedSlices` carry FP32 values and **int64
/// indices** (8 bytes), unlike CommLib's packed FP16/int32 wire format —
/// one of the reasons the naive path is so expensive. Most hops cross the
/// slow inter-node links and the `P-1` dependent rounds pay the cloud
/// latency twice.
pub fn sim_naive_sparse_all_gather(
    sim: &mut NetSim,
    spec: &ClusterSpec,
    k: usize,
) -> CollectiveTiming {
    let world = [(0..spec.world()).collect::<Vec<usize>>()];
    let value_bytes = (k as f64 * 4.0 * NAIVE_STAGING_FACTOR) as usize;
    let index_bytes = (k as f64 * 8.0 * NAIVE_STAGING_FACTOR) as usize;
    play(
        sim,
        "naiveag",
        &[
            ("all-gather values", &|sim| {
                sim_ring_all_gather(sim, &world, value_bytes)
            }),
            ("all-gather indices", &|sim| {
                sim_ring_all_gather(sim, &world, index_bytes)
            }),
        ],
    )
}

/// gTop-k sparse AllReduce: `log2(P)` recursive-doubling rounds in which
/// every GPU exchanges its current `k`-entry sparse set (values + int32
/// indices) with its partner. Rounds with `mask >= n` pair GPUs on
/// different nodes, pushing `2 * n` sparse sets through every NIC per
/// round.
///
/// Any world is priced — on one that is not a power of two the unpaired
/// ranks sit a round out — although the executed collective needs a power
/// of two: callers gate feasibility (`collectives::gtopk::check_world`)
/// before they price a run.
pub fn sim_gtopk_all_reduce(
    sim: &mut NetSim,
    spec: &ClusterSpec,
    k: usize,
    elem_bytes: usize,
) -> CollectiveTiming {
    let p = spec.world();
    let block = k * (elem_bytes + 4);
    let recursive_doubling = |sim: &mut NetSim| {
        let mut mask = 1;
        while mask < p {
            // On non-power-of-two worlds the unpaired ranks sit a round
            // out (the standard virtual-rank folding); only in-range
            // pairs transfer, and rank 0's partner always is one.
            let transfers: Vec<(usize, usize, usize)> = (0..p)
                .filter(|r| r ^ mask < p)
                .map(|r| (r, r ^ mask, block))
                .collect();
            sim.round(&transfers);
            mask <<= 1;
        }
    };
    play(sim, "gtopk", &[("recursive doubling", &recursive_doubling)])
}

/// Quantized AllReduce: a flat ring AllGather of every rank's packed codes
/// (`bits_per_elem` bits each) plus its scale, then local decode-and-sum.
pub fn sim_quantized_all_reduce(
    sim: &mut NetSim,
    spec: &ClusterSpec,
    d_elems: usize,
    bits_per_elem: usize,
) -> CollectiveTiming {
    let world = [(0..spec.world()).collect::<Vec<usize>>()];
    let block = (d_elems * bits_per_elem).div_ceil(8) + 4;
    play(
        sim,
        "qsgd",
        &[("all-gather codes", &|sim| {
            sim_ring_all_gather(sim, &world, block)
        })],
    )
}

/// The members of every node: the intra-node ring groups.
fn node_groups(spec: &ClusterSpec) -> Vec<Vec<usize>> {
    (0..spec.nodes).map(|i| spec.node_members(i)).collect()
}

/// The inter-node communication streams of a hierarchical schedule
/// visiting nodes in `node_order`: stream `j` is the `j`-th GPUs of all
/// nodes, in that order.
///
/// # Panics
/// Panics if `node_order` is not a permutation of `0..spec.nodes`.
fn reordered_stream_members(spec: &ClusterSpec, node_order: &[usize]) -> Vec<Vec<usize>> {
    let mut sorted = node_order.to_vec();
    sorted.sort_unstable();
    assert!(
        sorted.into_iter().eq(0..spec.nodes),
        "node order is not a permutation of the nodes"
    );
    let n = spec.gpus_per_node;
    (0..n)
        .map(|j| node_order.iter().map(|&i| i * n + j).collect())
        .collect()
}

/// The inter-node streams in natural node order.
fn stream_groups(spec: &ClusterSpec) -> Vec<Vec<usize>> {
    (0..spec.gpus_per_node)
        .map(|j| spec.stream_members(j))
        .collect()
}

/// 2D-Torus AllReduce ("2DTAR"): intra-node ReduceScatter, `n` concurrent
/// inter-node ring AllReduces of the shards (sharing each node's NIC),
/// intra-node AllGather.
pub fn sim_torus_all_reduce(
    sim: &mut NetSim,
    spec: &ClusterSpec,
    total_bytes: usize,
) -> CollectiveTiming {
    torus(sim, spec, total_bytes, &stream_groups(spec))
}

/// [`sim_torus_all_reduce`] with the inter-node rings visiting nodes in
/// `node_order` (the topology-probed reordering): only the traversal order
/// of phase 2's rings changes, phases 1 and 3 are untouched. With the
/// identity order this is byte-for-byte the natural schedule.
///
/// # Panics
/// Panics if `node_order` is not a permutation of `0..spec.nodes`.
pub fn sim_torus_all_reduce_reordered(
    sim: &mut NetSim,
    spec: &ClusterSpec,
    total_bytes: usize,
    node_order: &[usize],
) -> CollectiveTiming {
    let streams = reordered_stream_members(spec, node_order);
    torus(sim, spec, total_bytes, &streams)
}

/// The one 2DTAR body, over the inter-node ring groups `streams`.
fn torus(
    sim: &mut NetSim,
    spec: &ClusterSpec,
    total_bytes: usize,
    streams: &[Vec<usize>],
) -> CollectiveTiming {
    let shard = chunk_bytes(total_bytes, spec.gpus_per_node);
    let nodes = node_groups(spec);
    play(
        sim,
        "2dtar",
        &[
            ("intra reduce-scatter", &|sim| {
                sim_ring_reduce_scatter(sim, &nodes, total_bytes)
            }),
            ("inter all-reduce", &|sim| {
                sim_ring_all_reduce(sim, streams, shard)
            }),
            ("intra all-gather", &|sim| {
                sim_ring_all_gather(sim, &nodes, shard)
            }),
        ],
    )
}

/// Elements each shard owner selects: `k̃ = ρ·d/n`, at least one.
fn shard_k(d_elems: usize, n: usize, rho: f64) -> usize {
    (((d_elems as f64 * rho) / n as f64).round() as usize).max(1)
}

/// The hierarchy HiTopKComm and O(k) share: a dense intra-node
/// ReduceScatter of the `d_elems`-element gradient, top-k compression on
/// every GPU in parallel (`topk_seconds` each), the scheme's `inter` phases
/// over the streams, and an intra-node AllGather of the aggregated shard —
/// sparse (`m·k̃` value+index pairs) when that is smaller than the dense
/// shard, else dense.
#[expect(
    clippy::too_many_arguments,
    reason = "one simulated hierarchy, its phases passed flat"
)]
fn sparse_hierarchy(
    sim: &mut NetSim,
    spec: &ClusterSpec,
    prefix: &str,
    d_elems: usize,
    elem_bytes: usize,
    k_shard: usize,
    topk_seconds: f64,
    inter: &[Phase<'_>],
) -> CollectiveTiming {
    let nodes = node_groups(spec);
    let dense_shard = chunk_bytes(d_elems, spec.gpus_per_node) * elem_bytes;
    let sparse_shard = spec.nodes * k_shard * (elem_bytes + 4);
    let reduce_scatter =
        |sim: &mut NetSim| sim_ring_reduce_scatter(sim, &nodes, d_elems * elem_bytes);
    let compress = |sim: &mut NetSim| {
        for g in 0..spec.world() {
            sim.compute(g, topk_seconds);
        }
    };
    let all_gather =
        |sim: &mut NetSim| sim_ring_all_gather(sim, &nodes, sparse_shard.min(dense_shard));
    let mut phases: Vec<Phase<'_>> = vec![
        ("intra reduce-scatter", &reduce_scatter),
        ("top-k compression", &compress),
    ];
    phases.extend_from_slice(inter);
    phases.push(("intra all-gather", &all_gather));
    play(sim, prefix, &phases)
}

/// HiTopKComm (Algorithm 2): the four steps of §3.2 with density `rho` —
/// intra-node dense ReduceScatter, MSTopK on every GPU, `n` concurrent
/// inter-node AllGathers of values then indices (stream `j` = the `j`-th
/// GPUs of all nodes), intra-node AllGather of the aggregated shard.
///
/// * `d_elems` — gradient dimension; `elem_bytes` — wire size per value
///   (4 for FP32, 2 for FP16); indices are always 4 bytes.
/// * `topk_seconds` — per-GPU compression time (step 2), typically from
///   `cloudtrain_compress::gpu_cost::mstopk_cost`.
///
/// The final intra-node AllGather is priced as the aggregated shard in
/// sparse form (`ρ·d·m/n` value+index pairs, Eq. 10) when that is smaller
/// than the dense shard, else dense. This diverges from the executed
/// `hitopk_all_reduce` body, whose step (iv) forwards the `m` gathered
/// `k̃`-pair blocks at every density: above the `2·m·k̃ ≥ ⌊d/n⌋` cut-over
/// the body moves more bytes than this schedule charges. Re-pricing step
/// (iv) everywhere it is modelled is the first step of ROADMAP.md item 5.
pub fn sim_hitopk(
    sim: &mut NetSim,
    spec: &ClusterSpec,
    d_elems: usize,
    elem_bytes: usize,
    rho: f64,
    topk_seconds: f64,
) -> CollectiveTiming {
    let k_shard = shard_k(d_elems, spec.gpus_per_node, rho);
    let streams = stream_groups(spec);
    let all_gather = |sim: &mut NetSim| {
        sim_ring_all_gather(sim, &streams, k_shard * elem_bytes);
        sim_ring_all_gather(sim, &streams, k_shard * 4);
    };
    sparse_hierarchy(
        sim,
        spec,
        "hitopk",
        d_elems,
        elem_bytes,
        k_shard,
        topk_seconds,
        &[("inter all-gather", &all_gather)],
    )
}

/// O(k) sparse allreduce (Li & Hoefler): HiTopKComm's hierarchy with a
/// *split–merge–gather* inter exchange instead of the full-selection
/// AllGather.
///
/// * **inter split** — each stream's k̃-entry selection (8 bytes per
///   value+index pair) is range-partitioned across the `m` members, a
///   ReduceScatter-shaped exchange moving `k̃·(1−1/m)` pairs per member;
/// * **inter gather-merged** — each member's merged sublist is gathered by
///   all members. `overlap` is the expected fraction of selected
///   coordinates shared across nodes: merged size per member is
///   `(k̃/m)·(1 + (1−overlap)·(m−1))` pairs, so at `overlap = 1` the
///   exchange moves `O(k̃)` total instead of hitopk's `O(k̃·m)`.
///
/// Other parameters, and the step (iv) divergence from the executed body,
/// as in [`sim_hitopk`].
pub fn sim_ok_sparse(
    sim: &mut NetSim,
    spec: &ClusterSpec,
    d_elems: usize,
    elem_bytes: usize,
    rho: f64,
    topk_seconds: f64,
    overlap: f64,
) -> CollectiveTiming {
    let m = spec.nodes;
    let k_shard = shard_k(d_elems, spec.gpus_per_node, rho);
    let streams = stream_groups(spec);
    let merged = (((k_shard as f64 / m as f64) * (1.0 + (1.0 - overlap) * (m - 1) as f64)).round()
        as usize)
        .max(1);
    sparse_hierarchy(
        sim,
        spec,
        "oksparse",
        d_elems,
        elem_bytes,
        k_shard,
        topk_seconds,
        &[
            ("inter split", &|sim| {
                sim_ring_reduce_scatter(sim, &streams, k_shard * (elem_bytes + 4))
            }),
            ("inter gather-merged", &|sim| {
                sim_ring_all_gather(sim, &streams, merged * (elem_bytes + 4))
            }),
        ],
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::clouds;

    #[test]
    fn single_node_ring_all_reduce_matches_alpha_beta_formula() {
        let spec = clouds::tencent(1);
        let mut sim = NetSim::new(spec);
        let members: Vec<usize> = (0..8).collect();
        let bytes = 8 << 20; // 8 MiB
        sim_ring_all_reduce(&mut sim, &[members], bytes);
        let total = sim.makespan();
        // 2(P-1) rounds of alpha + (V/P) * beta.
        let round = spec.intra.transfer_time(bytes / 8);
        let expect = 14.0 * round;
        assert!(
            (total - expect).abs() / expect < 0.05,
            "total {total} expect {expect}"
        );
    }

    #[test]
    fn flat_all_gather_is_bounded_by_nic_bytes_and_path_latency() {
        let spec = clouds::tencent(2);
        let mut sim = NetSim::new(spec);
        let k = 100_000;
        let t = sim_naive_sparse_all_gather(&mut sim, &spec, k);
        // Lower bound: each NIC forwards all 15 foreign blocks of each
        // gather (values 4B + indices 8B per element, times the host
        // staging factor).
        let nic_bytes = 15.0 * (k * 12) as f64 * NAIVE_STAGING_FACTOR * spec.inter.beta;
        // Upper bound: add the dependency path's per-round latency.
        let upper = nic_bytes + 2.0 * 16.0 * spec.inter.alpha + 1e-4;
        assert!(
            t.total >= nic_bytes,
            "total {} < bw bound {nic_bytes}",
            t.total
        );
        assert!(t.total <= upper, "total {} > upper {upper}", t.total);
        assert_eq!(t.phases.len(), 2);
    }

    #[test]
    fn torus_beats_flat_ring_all_reduce_across_nodes() {
        let spec = clouds::tencent(16);
        let bytes = 100 << 20; // 100 MiB (25M FP32 gradients)
        let mut sim = NetSim::new(spec);
        let torus = sim_torus_all_reduce(&mut sim, &spec, bytes);
        sim.reset();
        let all: Vec<usize> = (0..spec.world()).collect();
        sim_ring_all_reduce(&mut sim, &[all], bytes);
        let flat = sim.makespan();
        assert!(
            torus.total < flat,
            "torus {} !< flat ring {}",
            torus.total,
            flat
        );
    }

    #[test]
    fn fig7_ordering_hitopk_then_torus_then_tree_then_naiveag() {
        // FP16 elements, rho = 0.01, 16 nodes x 8 GPUs — the Fig. 7 setup.
        let spec = clouds::tencent(16);
        let elem = 2usize;
        // The paper's regime: gradients of real models (8M-110M params).
        // Below ~2M elements the latency-bound regime lets TreeAR beat the
        // ring-based schemes (which is exactly why NCCL picks Tree for
        // small messages); the paper's figure starts above that.
        for d in [8usize << 20, 25_000_000, 110_000_000] {
            let rho = 0.01;
            let mut sim = NetSim::new(spec);
            let hitopk = sim_hitopk(&mut sim, &spec, d, elem, rho, 1e-3);
            sim.reset();
            let torus = sim_torus_all_reduce(&mut sim, &spec, d * elem);
            sim.reset();
            let tree = sim_tree_all_reduce_hier(&mut sim, &spec, d * elem);
            sim.reset();
            let k = (d as f64 * rho) as usize;
            let naive = sim_naive_sparse_all_gather(&mut sim, &spec, k);
            assert!(
                hitopk.total < torus.total,
                "d={d}: hitopk {} !< 2dtar {}",
                hitopk.total,
                torus.total
            );
            assert!(
                torus.total < tree.total,
                "d={d}: 2dtar {} !< treear {}",
                torus.total,
                tree.total
            );
            assert!(
                tree.total < naive.total,
                "d={d}: treear {} !< naiveag {}",
                tree.total,
                naive.total
            );
        }
    }

    #[test]
    fn hitopk_breakdown_dominated_by_inter_all_gather() {
        // Fig. 8: inter-node AllGather dominates; compression is negligible.
        let spec = clouds::tencent(16);
        let mut sim = NetSim::new(spec);
        let t = sim_hitopk(&mut sim, &spec, 25_000_000, 4, 0.01, 2e-3);
        // BTreeMap so a failing assertion walks the phases in a stable
        // order run over run.
        let by_label: std::collections::BTreeMap<_, _> =
            t.phases.iter().map(|p| (p.label, p.seconds)).collect();
        let inter = by_label["inter all-gather"];
        for (label, secs) in &by_label {
            if *label != "inter all-gather" {
                assert!(
                    *secs < inter,
                    "{label} ({secs}) should be below inter AG ({inter})"
                );
            }
        }
        assert!((t.total - t.phases.iter().map(|p| p.seconds).sum::<f64>()).abs() < 1e-12);
    }

    #[test]
    fn hitopk_density_scales_inter_phase() {
        let spec = clouds::tencent(16);
        let mut sim = NetSim::new(spec);
        let lo = sim_hitopk(&mut sim, &spec, 25_000_000, 4, 0.001, 0.0);
        sim.reset();
        let hi = sim_hitopk(&mut sim, &spec, 25_000_000, 4, 0.05, 0.0);
        let inter_of = |t: &CollectiveTiming| {
            t.phases
                .iter()
                .find(|p| p.label == "inter all-gather")
                .unwrap()
                .seconds
        };
        // 50x the density costs well over 3x despite the shared latency
        // floor of the 15 dependent ring rounds.
        assert!(
            inter_of(&hi) > 3.0 * inter_of(&lo),
            "hi {} lo {}",
            inter_of(&hi),
            inter_of(&lo)
        );
    }

    #[test]
    fn tree_single_node_has_no_inter_phase_cost() {
        let spec = clouds::tencent(1);
        let mut sim = NetSim::new(spec);
        let t = sim_tree_all_reduce_hier(&mut sim, &spec, 1 << 20);
        assert_eq!(t.phases[1].seconds, 0.0);
        assert!(t.phases[0].seconds > 0.0);
        assert!(t.phases[2].seconds > 0.0);
    }

    #[test]
    fn pipelining_beats_store_and_forward_chain() {
        // A pipelined 8-GPU chain of V bytes should take ~V*beta, not
        // ~7*V*beta.
        let spec = clouds::tencent(1);
        let mut sim = NetSim::new(spec);
        let members: Vec<usize> = (0..8).collect();
        let v = 64 << 20;
        sim_pipelined_levels(
            &mut sim,
            &chain_levels(&members, true),
            v,
            pipeline_chunk(v),
        );
        let t = sim.makespan();
        let ideal = spec.intra.beta * v as f64;
        assert!(t < 1.6 * ideal, "t {t} vs ideal {ideal}");
        assert!(t > ideal);
    }

    #[test]
    fn reordered_twins_with_identity_order_match_natural_bitwise() {
        let spec = clouds::tencent(4);
        let identity: Vec<usize> = (0..4).collect();
        assert_eq!(
            reordered_stream_members(&spec, &identity),
            stream_groups(&spec)
        );
        let mut a = NetSim::new(spec);
        let t1 = sim_torus_all_reduce(&mut a, &spec, 1 << 20);
        let mut b = NetSim::new(spec);
        let t2 = sim_torus_all_reduce_reordered(&mut b, &spec, 1 << 20, &identity);
        assert_eq!(t1.total.to_bits(), t2.total.to_bits());
        assert_eq!(t1.phases, t2.phases);
        assert_eq!(a.makespan().to_bits(), b.makespan().to_bits());
    }

    #[test]
    fn reordered_twins_are_deterministic_under_a_permutation() {
        let spec = clouds::tencent(4);
        let order = vec![2usize, 0, 3, 1];
        let run = |order: &[usize]| {
            let mut sim = NetSim::new(spec);
            sim_torus_all_reduce_reordered(&mut sim, &spec, 1 << 20, order).total
        };
        assert_eq!(run(&order).to_bits(), run(&order).to_bits());
        assert_eq!(
            reordered_stream_members(&spec, &order)[3],
            vec![19, 3, 27, 11]
        );
    }

    #[test]
    #[should_panic(expected = "permutation")]
    fn reordered_twin_rejects_non_permutations() {
        let spec = clouds::tencent(4);
        let mut sim = NetSim::new(spec);
        sim_torus_all_reduce_reordered(&mut sim, &spec, 1 << 20, &[0, 0, 1, 2]);
    }

    #[test]
    fn hitopk_inter_phase_matches_eq9_scaling() {
        // Eq. 9: t3 grows linearly with (m-1) * rho * d / n.
        let spec = clouds::tencent(16);
        let mut sim = NetSim::new(spec);
        let a = sim_hitopk(&mut sim, &spec, 200_000_000, 4, 0.01, 0.0);
        sim.reset();
        let b = sim_hitopk(&mut sim, &spec, 400_000_000, 4, 0.01, 0.0);
        let inter_of = |t: &CollectiveTiming| {
            t.phases
                .iter()
                .find(|p| p.label == "inter all-gather")
                .unwrap()
                .seconds
        };
        // Doubling d doubles the bandwidth term of Eq. 9; the alpha term
        // (15 dependent rounds) is shared, so the ratio sits just under 2.
        let ratio = inter_of(&b) / inter_of(&a);
        assert!(ratio > 1.6 && ratio < 2.05, "ratio {ratio}");
    }
}
