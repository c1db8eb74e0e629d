//! Resilience policies for collectives on a faulty fabric.
//!
//! The correctness-plane twin of `cloudtrain-simnet`'s fault injection:
//! [`CommFaults`] decides — as a pure function of a seed — which hops are
//! dropped and which members' sparse contributions are degraded, and
//! [`ResilientPeer`] wraps a [`Peer`] to apply a timeout/retry/backoff
//! policy to every hop while counting what the policy paid. Because the
//! underlying channels are reliable, "drops" and "timeouts" are *virtual*:
//! every message physically arrives exactly once, the policy only charges
//! the time a real network would have lost. That keeps the resilient
//! collectives deadlock-free by construction while their accounting tells
//! the BSP-penalty-vs-resilience story.
//!
//! Two policies, keyed by traffic class:
//!
//! * **Dense collectives** (ring, torus) must deliver every byte, so a hop
//!   that keeps dropping is retried up to [`ResiliencePolicy::max_retries`]
//!   times and then *escalated* — the final attempt always lands. The sum
//!   is exact; the cost is the full retry ladder in the tail.
//! * **Sparse collectives** (HiTopKComm, gTop-k) may *degrade*: a member
//!   whose contribution misses its deadline transmits an **empty sparse
//!   block** instead. Error feedback makes this safe — the member's
//!   residual absorbs the entire compensated gradient (an empty selection
//!   zeroes nothing), so the skipped mass is re-queued next step and no
//!   information is lost, only delayed.
//!
//! Replica consistency: degradation is decided per *(collective instance,
//! contributing member)* — never per hop — so every rank observes the same
//! set of contributed blocks and replicas stay bitwise identical. Hop-drop
//! outcomes are derived from per-ordered-pair hop counters kept
//! symmetrically by sender and receiver (channels are FIFO, so the
//! counters agree), with the sender charging drops/retries/escalations and
//! the receiver charging the virtual wait — nothing is double-counted.

use cloudtrain_compress::{Compressor, ErrorFeedback, SparseGrad};
use cloudtrain_tensor::ops;
use cloudtrain_tensor::partition::{shard_for, shards, Shard};

use crate::group::Peer;
use crate::gtopk::{merge_sparse, trim_topk};
use crate::hierarchical::{
    group_wire_bytes, recycle_blocks, scatter_gathered, shard_k, HiTopKReport,
};
use crate::ring::member_index;
use crate::scratch::CommScratch;
use crate::torus::{grid_pos, inter_node_members, intra_node_members};

/// Seeded fault decisions for the correctness-plane collectives.
///
/// Mirrors `cloudtrain_simnet::FaultPlan` in spirit: every decision is a
/// pure function of `(seed, identifiers)`, so the same plan over the same
/// schedule faults the same hops on every run and on every rank.
#[derive(Debug, Clone, PartialEq)]
pub struct CommFaults {
    /// Master seed for all decisions.
    pub seed: u64,
    /// Per-attempt probability that a hop is (virtually) dropped.
    pub drop_prob: f64,
    /// Per-instance probability that a member's sparse contribution misses
    /// its deadline and degrades to an empty block.
    pub degrade_prob: f64,
    /// Ranks living on straggler nodes: their contributions miss deadlines
    /// with [`CommFaults::straggler_degrade_prob`] instead.
    pub stragglers: Vec<usize>,
    /// Elevated degradation probability of straggler ranks.
    pub straggler_degrade_prob: f64,
}

impl CommFaults {
    /// A fault-free plan under `seed` (builder entry point).
    pub fn new(seed: u64) -> Self {
        Self {
            seed,
            drop_prob: 0.0,
            degrade_prob: 0.0,
            stragglers: Vec::new(),
            straggler_degrade_prob: 0.0,
        }
    }

    /// Sets the per-attempt hop-drop probability.
    #[must_use]
    pub fn with_drops(mut self, prob: f64) -> Self {
        assert!((0.0..=1.0).contains(&prob), "drop_prob out of [0,1]");
        self.drop_prob = prob;
        self
    }

    /// Sets the per-instance member-degradation probability.
    #[must_use]
    pub fn with_degrade(mut self, prob: f64) -> Self {
        assert!((0.0..=1.0).contains(&prob), "degrade_prob out of [0,1]");
        self.degrade_prob = prob;
        self
    }

    /// Marks `rank` as living on a straggler node, degrading with
    /// probability `prob` (typically well above the baseline, but below 1
    /// so the rank's gradient mass still escapes via error feedback).
    #[must_use]
    pub fn straggle(mut self, rank: usize, prob: f64) -> Self {
        assert!((0.0..=1.0).contains(&prob), "straggler prob out of [0,1]");
        self.stragglers.push(rank);
        self.straggler_degrade_prob = prob;
        self
    }

    /// Whether the plan injects nothing.
    pub fn is_clean(&self) -> bool {
        self.drop_prob == 0.0 && self.degrade_prob == 0.0 && self.stragglers.is_empty()
    }

    /// Whether attempt `attempt` of the `hop`-th message on the ordered
    /// pair `src → dst` is dropped. Pure in all arguments; sender and
    /// receiver evaluate it with the same hop counter and agree.
    pub fn hop_dropped(&self, src: usize, dst: usize, hop: u64, attempt: u32) -> bool {
        if self.drop_prob == 0.0 {
            return false;
        }
        let pair = (src as u64) << 20 | dst as u64;
        let draw = hash3(
            self.seed ^ HOP_SALT,
            pair,
            hop.wrapping_mul(256).wrapping_add(attempt as u64),
        );
        unit(draw) < self.drop_prob
    }

    /// Whether `member`'s contribution to collective instance `instance`
    /// misses its deadline (straggler ranks use the elevated probability).
    pub fn member_degraded(&self, instance: u64, member: usize) -> bool {
        let prob = if self.stragglers.contains(&member) {
            self.straggler_degrade_prob
        } else {
            self.degrade_prob
        };
        prob > 0.0 && unit(hash3(self.seed ^ DEGRADE_SALT, instance, member as u64)) < prob
    }
}

/// Timeout/retry parameters a [`ResilientPeer`] charges faulted hops with.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ResiliencePolicy {
    /// Virtual seconds a sender waits before declaring an attempt lost.
    pub hop_timeout: f64,
    /// Re-transmissions allowed after the first attempt.
    pub max_retries: u32,
    /// Extra wait added per attempt number (linear backoff), seconds.
    pub backoff: f64,
}

impl Default for ResiliencePolicy {
    fn default() -> Self {
        Self {
            hop_timeout: 1e-3,
            max_retries: 3,
            backoff: 5e-4,
        }
    }
}

/// What the resilience policy paid over a [`ResilientPeer`]'s lifetime.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct ResilienceReport {
    /// Hops sent through the peer.
    pub hops: u64,
    /// Virtually dropped attempts (observed at the send side).
    pub drops: u64,
    /// Re-transmissions performed.
    pub retries: u64,
    /// Hops that exhausted the retry budget and were force-delivered.
    pub escalations: u64,
    /// Sparse contributions this rank degraded to empty blocks.
    pub degraded_members: u64,
    /// Virtual seconds of timeout + backoff this rank waited on receives.
    pub virtual_delay: f64,
}

/// A [`Peer`] wrapped with fault decisions and resilience accounting.
///
/// All sends physically deliver exactly once (drops are virtual), so any
/// schedule that is deadlock-free over a plain `Peer` stays deadlock-free
/// over a `ResilientPeer`.
#[derive(Debug)]
pub struct ResilientPeer<'a> {
    peer: &'a Peer,
    faults: CommFaults,
    policy: ResiliencePolicy,
    /// Per-destination count of messages sent (ordered-pair hop counter).
    sent: Vec<u64>,
    /// Per-source count of messages received (the mirror counter).
    received: Vec<u64>,
    /// Collective instances started via [`ResilientPeer::begin_instance`].
    instance: u64,
    report: ResilienceReport,
}

impl<'a> ResilientPeer<'a> {
    /// Wraps `peer` with a fault plan and policy.
    pub fn new(peer: &'a Peer, faults: CommFaults, policy: ResiliencePolicy) -> Self {
        let p = peer.size();
        Self {
            peer,
            faults,
            policy,
            sent: vec![0; p],
            received: vec![0; p],
            instance: 0,
            report: ResilienceReport::default(),
        }
    }

    /// This peer's rank.
    pub fn rank(&self) -> usize {
        self.peer.rank()
    }

    /// Group size.
    pub fn size(&self) -> usize {
        self.peer.size()
    }

    /// Starts a new collective instance and returns its id. Every rank
    /// executes the same collective sequence, so local instance counters
    /// agree across the group without communication.
    pub fn begin_instance(&mut self) -> u64 {
        let id = self.instance;
        self.instance += 1;
        id
    }

    /// Whether this rank's sparse contribution to instance `instance`
    /// misses its deadline (and must be sent as an empty block).
    pub fn contribution_degraded(&mut self, instance: u64) -> bool {
        let degraded = self.faults.member_degraded(instance, self.rank());
        if degraded {
            self.report.degraded_members += 1;
        }
        degraded
    }

    /// Cumulative resilience accounting.
    pub fn report(&self) -> ResilienceReport {
        self.report
    }

    /// Walks the drop ladder of one outgoing hop, charging drops, retries
    /// and escalations. Returns nothing: the payload always goes out.
    fn charge_send(&mut self, to: usize) {
        let hop = self.sent[to];
        self.sent[to] += 1;
        self.report.hops += 1;
        if self.faults.drop_prob == 0.0 {
            return;
        }
        let me = self.rank();
        let mut attempt = 0u32;
        while self.faults.hop_dropped(me, to, hop, attempt) {
            self.report.drops += 1;
            if attempt == self.policy.max_retries {
                self.report.escalations += 1;
                break;
            }
            self.report.retries += 1;
            attempt += 1;
        }
    }

    /// Replays the sender's drop ladder from the receiver's side (the
    /// counters agree because channels are FIFO) and charges the virtual
    /// wait the timeouts cost this rank.
    fn charge_recv(&mut self, from: usize) {
        let hop = self.received[from];
        self.received[from] += 1;
        if self.faults.drop_prob == 0.0 {
            return;
        }
        let me = self.rank();
        let mut wait = 0.0;
        let mut attempt = 0u32;
        while self.faults.hop_dropped(from, me, hop, attempt) {
            wait += self.policy.hop_timeout + self.policy.backoff * attempt as f64;
            if attempt == self.policy.max_retries {
                break;
            }
            attempt += 1;
        }
        self.report.virtual_delay += wait;
    }

    /// Sends a float payload, charging the hop's fault outcome.
    pub fn send_f32(&mut self, to: usize, data: Vec<f32>) {
        self.charge_send(to);
        self.peer.send_f32(to, data);
    }

    /// Sends an index payload, charging the hop's fault outcome.
    pub fn send_u32(&mut self, to: usize, data: Vec<u32>) {
        self.charge_send(to);
        self.peer.send_u32(to, data);
    }

    /// Receives a float payload, charging the virtual wait (blocks).
    pub fn recv_f32(&mut self, from: usize) -> Vec<f32> {
        self.charge_recv(from);
        self.peer.recv_f32(from)
    }

    /// Receives an index payload, charging the virtual wait (blocks).
    pub fn recv_u32(&mut self, from: usize) -> Vec<u32> {
        self.charge_recv(from);
        self.peer.recv_u32(from)
    }
}

/// Resilient ring ReduceScatter — the data flow of
/// [`crate::ring::ring_reduce_scatter_scratch`] with every hop charged
/// through the policy. Results are bitwise identical to the plain variant
/// (drops are virtual; every byte is delivered).
///
/// Unlike the plain variant this keeps whole-chunk hops on purpose: the
/// fault ladder is seeded per message, so piecing a hop would draw a
/// different fault sequence and move every pinned gauntlet result.
pub fn ring_reduce_scatter_resilient(
    rp: &mut ResilientPeer,
    x: &mut [f32],
    members: &[usize],
    scratch: &mut CommScratch,
) -> Shard {
    let p = members.len();
    let me = member_index(members, rp.rank());
    let d = x.len();
    if p == 1 {
        return shard_for(d, 1, 0);
    }
    let chunks = shards(d, p);
    let right = members[(me + 1) % p];
    let left = members[(me + p - 1) % p];
    for s in 0..p - 1 {
        let send_idx = (me + p - s - 1) % p;
        let recv_idx = (me + 2 * p - s - 2) % p;
        let send_chunk = scratch.copy_f32(chunks[send_idx].slice(x));
        rp.send_f32(right, send_chunk);
        let recv = rp.recv_f32(left);
        ops::add_assign(chunks[recv_idx].slice_mut(x), &recv);
        scratch.put_f32(recv);
    }
    chunks[me]
}

/// Resilient ring AllGather (see [`ring_reduce_scatter_resilient`], whole
/// chunks per hop included).
pub fn ring_all_gather_resilient(
    rp: &mut ResilientPeer,
    x: &mut [f32],
    members: &[usize],
    scratch: &mut CommScratch,
) {
    let p = members.len();
    let me = member_index(members, rp.rank());
    if p == 1 {
        return;
    }
    let chunks = shards(x.len(), p);
    let right = members[(me + 1) % p];
    let left = members[(me + p - 1) % p];
    for s in 0..p - 1 {
        let send_idx = (me + p - s) % p;
        let recv_idx = (me + 2 * p - s - 1) % p;
        let send_chunk = scratch.copy_f32(chunks[send_idx].slice(x));
        rp.send_f32(right, send_chunk);
        let recv = rp.recv_f32(left);
        chunks[recv_idx].slice_mut(x).copy_from_slice(&recv);
        scratch.put_f32(recv);
    }
}

/// Step (iv) over a [`ResilientPeer`]
/// ([`crate::hierarchical::scatter_and_all_gather`]'s twin): zeroes this
/// member's shard of `x`, scatter-adds the `m` gathered blocks into it,
/// recycles them, and reassembles the full vector across the node `intra`.
/// Returns the shard's nonzero count.
///
/// The reassembly stays the whole-chunk dense [`ring_all_gather_resilient`]
/// on purpose: the fault plan draws per message, so forwarding the blocks
/// instead would change the messages there are to fault, and with them
/// every draw after step (iv).
pub(crate) fn scatter_and_all_gather_resilient(
    rp: &mut ResilientPeer,
    x: &mut [f32],
    intra: &[usize],
    values: Vec<Vec<f32>>,
    indices: Vec<Vec<u32>>,
    scratch: &mut CommScratch,
) -> usize {
    let shard = shard_for(x.len(), intra.len(), member_index(intra, rp.rank()));
    ops::fill(shard.slice_mut(x), 0.0);
    let shard_nonzeros = scatter_gathered(shard.slice_mut(x), &values, &indices);
    recycle_blocks(values, indices, scratch);
    ring_all_gather_resilient(rp, x, intra, scratch);
    shard_nonzeros
}

/// Resilient ring AllReduce = resilient ReduceScatter + AllGather. Exact:
/// on return every member holds the dense sum, whatever the fault plan.
pub fn ring_all_reduce_resilient(
    rp: &mut ResilientPeer,
    x: &mut [f32],
    members: &[usize],
    scratch: &mut CommScratch,
) {
    ring_reduce_scatter_resilient(rp, x, members, scratch);
    ring_all_gather_resilient(rp, x, members, scratch);
}

/// Resilient AllGather of variable float payloads (ownership contract as
/// in [`crate::ring::all_gather_f32_scratch`]: the caller recycles blocks).
pub fn all_gather_f32_resilient(
    rp: &mut ResilientPeer,
    mine: &[f32],
    members: &[usize],
    scratch: &mut CommScratch,
) -> Vec<Vec<f32>> {
    let p = members.len();
    let me = member_index(members, rp.rank());
    let mut blocks: Vec<Option<Vec<f32>>> = vec![None; p];
    blocks[me] = Some(scratch.copy_f32(mine));
    if p == 1 {
        // lint:allow(panic_free, reason = "single-member ring: the only block was filled on the previous line")
        return blocks.into_iter().map(Option::unwrap).collect();
    }
    let right = members[(me + 1) % p];
    let left = members[(me + p - 1) % p];
    for s in 0..p - 1 {
        let send_idx = (me + p - s) % p;
        let recv_idx = (me + 2 * p - s - 1) % p;
        // lint:allow(panic_free, reason = "the ring schedule fills block s before step s sends it; a hole is an unconditional schedule bug")
        let src = blocks[send_idx].as_deref().expect("ring schedule hole");
        let payload = scratch.copy_f32(src);
        rp.send_f32(right, payload);
        blocks[recv_idx] = Some(rp.recv_f32(left));
    }
    // lint:allow(panic_free, reason = "after p-1 ring steps every block has been received; a hole is an unconditional schedule bug")
    blocks.into_iter().map(Option::unwrap).collect()
}

/// Resilient AllGather of variable index payloads (see
/// [`all_gather_f32_resilient`]).
pub fn all_gather_u32_resilient(
    rp: &mut ResilientPeer,
    mine: &[u32],
    members: &[usize],
    scratch: &mut CommScratch,
) -> Vec<Vec<u32>> {
    let p = members.len();
    let me = member_index(members, rp.rank());
    let mut blocks: Vec<Option<Vec<u32>>> = vec![None; p];
    blocks[me] = Some(scratch.copy_u32(mine));
    if p == 1 {
        // lint:allow(panic_free, reason = "single-member ring: the only block was filled on the previous line")
        return blocks.into_iter().map(Option::unwrap).collect();
    }
    let right = members[(me + 1) % p];
    let left = members[(me + p - 1) % p];
    for s in 0..p - 1 {
        let send_idx = (me + p - s) % p;
        let recv_idx = (me + 2 * p - s - 1) % p;
        // lint:allow(panic_free, reason = "the ring schedule fills block s before step s sends it; a hole is an unconditional schedule bug")
        let src = blocks[send_idx].as_deref().expect("ring schedule hole");
        let payload = scratch.copy_u32(src);
        rp.send_u32(right, payload);
        blocks[recv_idx] = Some(rp.recv_u32(left));
    }
    // lint:allow(panic_free, reason = "after p-1 ring steps every block has been received; a hole is an unconditional schedule bug")
    blocks.into_iter().map(Option::unwrap).collect()
}

/// Resilient 2D-Torus AllReduce: the dense baseline under the retry
/// policy. The sum is exact on every rank — dense traffic never degrades —
/// but the report shows what the BSP barrier paid for that guarantee.
///
/// # Panics
/// Panics if the group size is not `m * n`.
pub fn torus_all_reduce_resilient(
    rp: &mut ResilientPeer,
    x: &mut [f32],
    m: usize,
    n: usize,
    scratch: &mut CommScratch,
) {
    assert_eq!(rp.size(), m * n, "torus_all_reduce: group is not m*n");
    rp.begin_instance();
    let pos = grid_pos(rp.rank(), m, n);
    let intra = intra_node_members(pos.node, n);
    let inter = inter_node_members(pos.gpu, m, n);
    let shard = ring_reduce_scatter_resilient(rp, x, &intra, scratch);
    debug_assert_eq!(shard, shard_for(x.len(), n, pos.gpu));
    ring_all_reduce_resilient(rp, shard.slice_mut(x), &inter, scratch);
    ring_all_gather_resilient(rp, x, &intra, scratch);
}

/// Resilient HiTopKComm with error feedback: the data flow of
/// [`crate::hierarchical::hitopk_all_reduce_ef_scratch`] with hops charged
/// through the policy and *graceful degradation* — if this rank's
/// contribution misses its deadline, it transmits an empty sparse block.
///
/// Correctness under degradation: `ef.withhold` adds the member's entire
/// shard gradient to the residual and clears nothing, so it is re-injected
/// next invocation. All ranks observe the same contributed blocks (the
/// empty block physically travels through the AllGather), so replicas stay
/// bitwise identical.
///
/// Unlike the plain path, its ReduceScatter and step (iv) AllGather move
/// whole dense chunks, on purpose: the fault plan draws per message, so
/// piecing the hops or forwarding the gathered blocks would fault different
/// messages.
///
/// # Panics
/// Panics if the group size is not `m * n` or the residual dimension does
/// not match this rank's shard.
#[allow(clippy::too_many_arguments)]
pub fn hitopk_all_reduce_ef_resilient<C: Compressor + ?Sized>(
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

    let shard = ring_reduce_scatter_resilient(rp, x, &intra, scratch);
    assert_eq!(
        ef.dim(),
        shard.len(),
        "hitopk_all_reduce_ef: residual must match the shard"
    );

    let k = shard_k(d, n, rho).min(shard.len());
    // Deadline check at the sparsification point: a degraded member selects
    // nothing and withholds its whole shard in the residual.
    let selection: SparseGrad = if rp.contribution_degraded(instance) {
        ef.withhold(shard.slice(x));
        SparseGrad::empty(shard.len())
    } else {
        let selection = ef.select(shard.slice(x), k, compressor);
        ef.release(&selection);
        selection
    };

    let value_blocks = all_gather_f32_resilient(rp, &selection.values, &inter, scratch);
    let index_blocks = all_gather_u32_resilient(rp, &selection.indices, &inter, scratch);
    let inter_bytes_sent = group_wire_bytes(&selection, inter.len());

    let shard_nonzeros =
        scatter_and_all_gather_resilient(rp, x, &intra, value_blocks, index_blocks, scratch);

    HiTopKReport {
        k_per_shard: k,
        shard_nonzeros,
        inter_bytes_sent,
    }
}

/// Resilient gTop-k with error feedback: accumulate into the residual and
/// select from it (or degrade: withhold everything, select nothing) →
/// recursive-doubling exchange, all hops charged through the policy.
/// Returns the bytes this rank sent.
///
/// A degraded rank contributes the empty set; merges against it are
/// identities, every rank still runs all `log₂ P` rounds (no deadlock),
/// and the rank's gradient mass survives in its residual.
///
/// # Panics
/// Panics unless the group size is a power of two.
pub fn gtopk_all_reduce_ef_resilient<C: Compressor + ?Sized>(
    rp: &mut ResilientPeer,
    x: &mut [f32],
    k: usize,
    compressor: &mut C,
    ef: &mut ErrorFeedback,
    scratch: &mut CommScratch,
) -> usize {
    let p = rp.size();
    assert!(
        p.is_power_of_two(),
        "gtopk_all_reduce: group size must be 2^m"
    );
    assert_eq!(ef.dim(), x.len(), "gtopk ef: residual must match x");
    let instance = rp.begin_instance();
    let rank = rp.rank();

    let mut current = if rp.contribution_degraded(instance) {
        ef.withhold(x);
        SparseGrad::empty(x.len())
    } else {
        let selection = ef.select(x, k, compressor);
        ef.release(&selection);
        selection
    };
    let mut sent = 0;

    let mut mask = 1;
    while mask < p {
        let partner = rank ^ mask;
        rp.send_f32(partner, scratch.copy_f32(&current.values));
        rp.send_u32(partner, scratch.copy_u32(&current.indices));
        sent += current.wire_bytes();
        let vals = rp.recv_f32(partner);
        let idxs = rp.recv_u32(partner);
        let theirs = SparseGrad::new(vals, idxs, current.dim);
        current = trim_topk(&merge_sparse(&current, &theirs), k);
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

/// Domain-separation salts for the two decision streams.
const HOP_SALT: u64 = 0x40B5_40B5_40B5_40B5;
const DEGRADE_SALT: u64 = 0xDE6A_DE6A_DE6A_DE6A;

/// SplitMix64-style hash over three words (the construction every seeded
/// decision stream in this workspace shares — deterministic, no global
/// RNG).
pub(crate) fn hash3(a: u64, b: u64, c: u64) -> u64 {
    let mut x = a
        .wrapping_mul(0x9E37_79B9_7F4A_7C15)
        .wrapping_add(b.rotate_left(17))
        .wrapping_add(c.rotate_left(41));
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

/// Maps a hash to a uniform draw in `[0, 1)`.
pub(crate) fn unit(h: u64) -> f64 {
    (h >> 11) as f64 / (1u64 << 53) as f64
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::group::run_on_group;
    use crate::hierarchical::hitopk_all_reduce_ef_scratch;
    use crate::torus::torus_all_reduce;
    use cloudtrain_compress::exact::SortTopK;
    use cloudtrain_tensor::init;

    fn vec_for(rank: usize, d: usize) -> Vec<f32> {
        let mut rng = init::rng_from_seed(8000 + rank as u64);
        init::gradient_like_tensor(d, &mut rng).into_vec()
    }

    fn hostile(seed: u64) -> CommFaults {
        CommFaults::new(seed)
            .with_drops(0.05)
            .with_degrade(0.2)
            .straggle(1, 0.6)
    }

    #[test]
    fn clean_faults_leave_torus_bitwise_identical() {
        let (m, n, d) = (2usize, 4usize, 53usize);
        let plain = run_on_group(m * n, |peer| {
            let mut x = vec_for(peer.rank(), d);
            torus_all_reduce(peer, &mut x, m, n);
            x
        });
        let resilient = run_on_group(m * n, |peer| {
            let mut rp = ResilientPeer::new(peer, CommFaults::new(5), ResiliencePolicy::default());
            let mut scratch = CommScratch::new();
            let mut x = vec_for(peer.rank(), d);
            torus_all_reduce_resilient(&mut rp, &mut x, m, n, &mut scratch);
            assert_eq!(rp.report().drops, 0);
            assert_eq!(rp.report().virtual_delay, 0.0);
            x
        });
        assert_eq!(plain, resilient);
    }

    #[test]
    fn dense_sum_stays_exact_under_heavy_drops() {
        let (m, n, d) = (2usize, 4usize, 40usize);
        let plain = run_on_group(m * n, |peer| {
            let mut x = vec_for(peer.rank(), d);
            torus_all_reduce(peer, &mut x, m, n);
            x
        });
        let reports = run_on_group(m * n, |peer| {
            let faults = CommFaults::new(77).with_drops(0.3);
            let mut rp = ResilientPeer::new(peer, faults, ResiliencePolicy::default());
            let mut scratch = CommScratch::new();
            let mut x = vec_for(peer.rank(), d);
            torus_all_reduce_resilient(&mut rp, &mut x, m, n, &mut scratch);
            (x, rp.report())
        });
        let total_drops: u64 = reports.iter().map(|(_, r)| r.drops).sum();
        let total_delay: f64 = reports.iter().map(|(_, r)| r.virtual_delay).sum();
        assert!(total_drops > 0, "p=0.3 must drop something");
        assert!(total_delay > 0.0, "receivers must charge the waits");
        for (r, (x, rep)) in reports.iter().enumerate() {
            assert_eq!(*x, plain[r], "rank {r}: dense sum must stay exact");
            assert_eq!(rep.degraded_members, 0, "dense path never degrades");
            assert_eq!(rep.drops, rep.retries + rep.escalations);
        }
    }

    #[test]
    fn send_and_recv_sides_agree_on_fault_outcomes() {
        // Global reconciliation: a hop's drops charged at the sender
        // correspond to waits charged at the receiver, so across the whole
        // group (total drops > 0) <=> (total virtual delay > 0), and with a
        // symmetric all-to-all schedule each rank's numbers mirror its
        // partner's.
        let p = 4usize;
        let reports = run_on_group(p, |peer| {
            let faults = CommFaults::new(13).with_drops(0.5);
            let mut rp = ResilientPeer::new(peer, faults, ResiliencePolicy::default());
            let members: Vec<usize> = (0..p).collect();
            let mut scratch = CommScratch::new();
            for round in 0..5 {
                let mut x = vec_for(round * 10 + rp.rank(), 24);
                ring_all_reduce_resilient(&mut rp, &mut x, &members, &mut scratch);
            }
            rp.report()
        });
        let drops: u64 = reports.iter().map(|r| r.drops).sum();
        let policy = ResiliencePolicy::default();
        // Every drop causes exactly one timeout+backoff wait at its
        // receiver; reconstruct the total delay from the drop count bounds.
        let min_delay = drops as f64 * policy.hop_timeout;
        let max_delay =
            drops as f64 * (policy.hop_timeout + policy.backoff * policy.max_retries as f64);
        let delay: f64 = reports.iter().map(|r| r.virtual_delay).sum();
        assert!(
            delay >= min_delay - 1e-9 && delay <= max_delay + 1e-9,
            "delay {delay} outside [{min_delay}, {max_delay}] for {drops} drops"
        );
    }

    #[test]
    fn hitopk_resilient_clean_matches_plain_ef() {
        let (m, n, d, rho) = (2usize, 2usize, 64usize, 0.1f64);
        let run_plain = || {
            run_on_group(m * n, |peer| {
                let shard_len = shards(d, n)[peer.rank() % n].len();
                let mut ef = ErrorFeedback::new(shard_len);
                let mut c = SortTopK;
                let mut scratch = CommScratch::new();
                let mut out = Vec::new();
                for round in 0..3 {
                    let mut x = vec_for(100 * round + peer.rank(), d);
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
                    out.push(x);
                }
                (out, ef.residual_norm())
            })
        };
        let run_resilient = || {
            run_on_group(m * n, |peer| {
                let mut rp =
                    ResilientPeer::new(peer, CommFaults::new(9), ResiliencePolicy::default());
                let shard_len = shards(d, n)[peer.rank() % n].len();
                let mut ef = ErrorFeedback::new(shard_len);
                let mut c = SortTopK;
                let mut scratch = CommScratch::new();
                let mut out = Vec::new();
                for round in 0..3 {
                    let mut x = vec_for(100 * round + peer.rank(), d);
                    hitopk_all_reduce_ef_resilient(
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
                (out, ef.residual_norm())
            })
        };
        assert_eq!(run_plain(), run_resilient());
    }

    #[test]
    fn hitopk_degradation_keeps_ranks_bitwise_identical() {
        let (m, n, d, rho) = (2usize, 4usize, 120usize, 0.1f64);
        let results = run_on_group(m * n, |peer| {
            let mut rp = ResilientPeer::new(peer, hostile(21), ResiliencePolicy::default());
            let shard_len = shards(d, n)[peer.rank() % n].len();
            let mut ef = ErrorFeedback::new(shard_len);
            let mut c = SortTopK;
            let mut scratch = CommScratch::new();
            let mut out = Vec::new();
            for round in 0..4 {
                let mut x = vec_for(100 * round + peer.rank(), d);
                hitopk_all_reduce_ef_resilient(
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
            (out, rp.report().degraded_members)
        });
        let degraded_total: u64 = results.iter().map(|(_, g)| g).sum();
        assert!(
            degraded_total > 0,
            "hostile plan should degrade some contributions"
        );
        for (r, (out, _)) in results.iter().enumerate() {
            assert_eq!(*out, results[0].0, "rank {r} diverged under degradation");
        }
    }

    #[test]
    fn degraded_member_mass_lands_in_its_residual() {
        // Force every contribution of rank 1 to degrade; its compensated
        // shard must be fully preserved by the residual each round.
        let (m, n, d, rho) = (2usize, 2usize, 32usize, 0.25f64);
        let results = run_on_group(m * n, |peer| {
            let faults = CommFaults::new(3).straggle(1, 1.0);
            let mut rp = ResilientPeer::new(peer, faults, ResiliencePolicy::default());
            let shard_len = shards(d, n)[peer.rank() % n].len();
            let mut ef = ErrorFeedback::new(shard_len);
            let mut c = SortTopK;
            let mut scratch = CommScratch::new();
            let mut x = vec_for(peer.rank(), d);
            hitopk_all_reduce_ef_resilient(
                &mut rp,
                &mut x,
                m,
                n,
                rho,
                &mut c,
                &mut ef,
                &mut scratch,
            );
            (ef.residual_norm(), rp.report().degraded_members)
        });
        // Rank 1 degraded: nonzero residual holding the whole shard.
        assert_eq!(results[1].1, 1);
        assert!(results[1].0 > 0.0, "degraded rank must keep its mass");
        // Rank 0 (clean, rho high enough to select) has a residual from
        // normal truncation but no degradations.
        assert_eq!(results[0].1, 0);
    }

    #[test]
    fn gtopk_resilient_completes_and_ranks_agree_under_faults() {
        let (p, d, k) = (4usize, 200usize, 10usize);
        let results = run_on_group(p, |peer| {
            let mut rp = ResilientPeer::new(peer, hostile(31), ResiliencePolicy::default());
            let mut ef = ErrorFeedback::new(d);
            let mut c = SortTopK;
            let mut scratch = CommScratch::new();
            let mut out = Vec::new();
            for round in 0..4 {
                let mut x = vec_for(20 * round + peer.rank(), d);
                gtopk_all_reduce_ef_resilient(&mut rp, &mut x, k, &mut c, &mut ef, &mut scratch);
                out.push(x);
            }
            (out, ef.residual_norm())
        });
        for (r, (out, _)) in results.iter().enumerate() {
            assert_eq!(*out, results[0].0, "rank {r} diverged");
            for x in out {
                assert!(x.iter().filter(|v| **v != 0.0).count() <= k);
            }
        }
    }

    #[test]
    fn resilient_paths_reach_zero_miss_steady_state() {
        // The scratch pool must stay balanced under fault-retry and
        // degradation paths too: block sizes vary (empty blocks!), but the
        // take/put flow still nets to zero.
        let (m, n, d, rho) = (2usize, 4usize, 240usize, 0.05f64);
        let miss_growth = run_on_group(m * n, |peer| {
            let mut rp = ResilientPeer::new(peer, hostile(17), ResiliencePolicy::default());
            let shard_len = shards(d, n)[peer.rank() % n].len();
            let mut ef = ErrorFeedback::new(shard_len);
            let mut c = SortTopK;
            let mut scratch = CommScratch::new();
            let mut x = vec_for(peer.rank(), d);
            hitopk_all_reduce_ef_resilient(
                &mut rp,
                &mut x,
                m,
                n,
                rho,
                &mut c,
                &mut ef,
                &mut scratch,
            );
            let warm = scratch.misses();
            scratch.reset_stats();
            for round in 1..5 {
                let mut y = vec_for(50 * round + peer.rank(), d);
                hitopk_all_reduce_ef_resilient(
                    &mut rp,
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
        for (r, (warm, steady)) in miss_growth.iter().enumerate() {
            assert!(*warm > 0, "rank {r}: warmup should allocate");
            assert_eq!(
                *steady, 0,
                "rank {r}: steady-state resilient hitopk allocated"
            );
        }
    }

    #[test]
    fn fault_decisions_are_deterministic() {
        let f = hostile(99);
        for hop in 0..50u64 {
            assert_eq!(f.hop_dropped(0, 1, hop, 0), f.hop_dropped(0, 1, hop, 0));
        }
        for inst in 0..50u64 {
            assert_eq!(f.member_degraded(inst, 3), f.member_degraded(inst, 3));
        }
        // Straggler ranks degrade far more often than clean ranks.
        let straggler_hits = (0..1000u64).filter(|&i| f.member_degraded(i, 1)).count();
        let clean_hits = (0..1000u64).filter(|&i| f.member_degraded(i, 0)).count();
        assert!(
            straggler_hits > clean_hits,
            "straggler {straggler_hits} <= clean {clean_hits}"
        );
    }

    #[test]
    #[should_panic(expected = "out of [0,1]")]
    fn invalid_probability_panics() {
        let _ = CommFaults::new(0).with_drops(2.0);
    }
}
