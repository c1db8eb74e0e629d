//! Resilience policies for collectives on a faulty fabric.
//!
//! The correctness-plane twin of `cloudtrain-simnet`'s fault injection:
//! [`CommFaults`] decides — as a pure function of a seed — which messages
//! are dropped and which members' sparse contributions are degraded, and
//! [`ResilientPeer`] wraps a [`Peer`] as a [`Transport`] that applies a
//! timeout/retry/backoff policy to every message while counting what the
//! policy paid. Because the underlying channels are reliable, "drops" and
//! "timeouts" are *virtual*: every message physically arrives exactly once,
//! the policy only charges the time a real network would have lost. A fault
//! policy thus changes *when* bytes land, never *what* is summed, so there
//! are no resilient collective bodies: every collective runs its one body
//! over a `ResilientPeer` exactly as over a `Peer`, stays deadlock-free by
//! construction, and its accounting tells the BSP-penalty-vs-resilience
//! story. A hop, to the fault plan, is one message of whatever schedule the
//! body runs — a piece of a pieced ring hop, one forwarded block, one framed
//! pair.
//!
//! Two policies, keyed by traffic class:
//!
//! * **Dense collectives** (ring, torus) must deliver every byte, so a
//!   message that keeps dropping is retried up to
//!   [`ResiliencePolicy::max_retries`] times and then *escalated* — the
//!   final attempt always lands. The sum is exact; the cost is the full
//!   retry ladder in the tail.
//! * **Sparse collectives** (HiTopKComm, O(k), gTop-k) may *degrade*: a
//!   member whose contribution misses its deadline transmits an **empty
//!   sparse block** instead. Error feedback makes this safe — the member's
//!   residual absorbs the entire reduced gradient (an empty selection
//!   zeroes nothing), so the skipped mass is re-queued next step and no
//!   information is lost, only delayed. The peer draws this decision as
//!   its [`Transport::contribution_withheld`]: each of the three sparse
//!   error-feedback bodies takes it once per call, so the sparse entry
//!   points run over a `ResilientPeer` unchanged too.
//!
//! Replica consistency: degradation is decided per *(collective instance,
//! contributing member)* — never per message — so every rank observes the
//! same set of contributed blocks and replicas stay bitwise identical.
//! Drop outcomes are derived from per-ordered-pair message counters kept
//! symmetrically by sender and receiver (channels are FIFO, so the
//! counters agree), with the sender charging drops/retries/escalations and
//! the receiver charging the virtual wait — nothing is double-counted.

use std::cell::Cell;

use crate::group::{Peer, Transport};

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
    /// `(rank, prob)` pairs for ranks living on straggler nodes: each
    /// one's contributions miss deadlines with its own `prob` instead of
    /// [`CommFaults::degrade_prob`].
    pub stragglers: Vec<(usize, f64)>,
}

impl CommFaults {
    /// A fault-free plan under `seed` (builder entry point).
    pub fn new(seed: u64) -> Self {
        Self {
            seed,
            drop_prob: 0.0,
            degrade_prob: 0.0,
            stragglers: Vec::new(),
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
    /// Marking the same rank again replaces its probability.
    #[must_use]
    pub fn straggle(mut self, rank: usize, prob: f64) -> Self {
        assert!((0.0..=1.0).contains(&prob), "straggler prob out of [0,1]");
        self.stragglers.push((rank, prob));
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
    /// misses its deadline (a straggler rank uses its own probability).
    pub fn member_degraded(&self, instance: u64, member: usize) -> bool {
        let prob = self
            .stragglers
            .iter()
            .rfind(|(rank, _)| *rank == member)
            .map_or(self.degrade_prob, |&(_, prob)| prob);
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
    /// Messages sent through the peer: each is one hop to the fault plan,
    /// so the count follows the schedule the collective body runs (a
    /// pieced ring hop is one message per piece, a block forward one per
    /// block).
    pub hops: u64,
    /// Virtually dropped attempts (observed at the send side).
    pub drops: u64,
    /// Re-transmissions performed.
    pub retries: u64,
    /// Messages that exhausted the retry budget and were force-delivered.
    pub escalations: u64,
    /// Sparse contributions this rank degraded to empty blocks.
    pub degraded_members: u64,
    /// Virtual seconds of timeout + backoff this rank waited on receives.
    pub virtual_delay: f64,
}

/// A [`Peer`] wrapped with fault decisions and resilience accounting: the
/// [`Transport`] every collective body runs over when the fabric is faulty.
///
/// All sends physically deliver exactly once (drops are virtual), so any
/// schedule that is deadlock-free over a plain `Peer` stays deadlock-free
/// over a `ResilientPeer`, and computes the same bits.
#[derive(Debug)]
pub struct ResilientPeer<'a> {
    peer: &'a Peer,
    faults: CommFaults,
    policy: ResiliencePolicy,
    /// Per-destination count of messages sent (ordered-pair hop counter).
    sent: Vec<Cell<u64>>,
    /// Per-source count of messages received (the mirror counter).
    received: Vec<Cell<u64>>,
    /// Sparse contributions drawn so far: the next one's instance id.
    /// Every rank runs the same collective sequence, so the numbering
    /// agrees across the group without communication; dense collectives
    /// draw nothing and leave it unchanged.
    instance: Cell<u64>,
    report: Cell<ResilienceReport>,
}

impl<'a> ResilientPeer<'a> {
    /// Wraps `peer` with a fault plan and policy.
    pub fn new(peer: &'a Peer, faults: CommFaults, policy: ResiliencePolicy) -> Self {
        let p = peer.size();
        Self {
            peer,
            faults,
            policy,
            sent: vec![Cell::new(0); p],
            received: vec![Cell::new(0); p],
            instance: Cell::new(0),
            report: Cell::new(ResilienceReport::default()),
        }
    }

    /// Cumulative resilience accounting.
    pub fn report(&self) -> ResilienceReport {
        self.report.get()
    }

    /// Walks the drop ladder of one outgoing message, charging drops,
    /// retries and escalations. Returns nothing: the payload always goes
    /// out.
    fn charge_send(&self, to: usize) {
        let hop = self.sent[to].get();
        self.sent[to].set(hop + 1);
        let mut report = self.report.get();
        report.hops += 1;
        let me = self.peer.rank();
        let mut attempt = 0u32;
        while self.faults.hop_dropped(me, to, hop, attempt) {
            report.drops += 1;
            if attempt == self.policy.max_retries {
                report.escalations += 1;
                break;
            }
            report.retries += 1;
            attempt += 1;
        }
        self.report.set(report);
    }

    /// Replays the sender's drop ladder from the receiver's side (the
    /// counters agree because channels are FIFO) and charges the virtual
    /// wait the timeouts cost this rank.
    fn charge_recv(&self, from: usize) {
        let hop = self.received[from].get();
        self.received[from].set(hop + 1);
        let me = self.peer.rank();
        let mut wait = 0.0;
        let mut attempt = 0u32;
        while self.faults.hop_dropped(from, me, hop, attempt) {
            wait += self.policy.hop_timeout + self.policy.backoff * attempt as f64;
            if attempt == self.policy.max_retries {
                break;
            }
            attempt += 1;
        }
        let mut report = self.report.get();
        report.virtual_delay += wait;
        self.report.set(report);
    }
}

impl Transport for ResilientPeer<'_> {
    fn rank(&self) -> usize {
        self.peer.rank()
    }

    fn size(&self) -> usize {
        self.peer.size()
    }

    fn send_f32(&self, to: usize, data: Vec<f32>) {
        self.charge_send(to);
        self.peer.send_f32(to, data);
    }

    fn send_u32(&self, to: usize, data: Vec<u32>) {
        self.charge_send(to);
        self.peer.send_u32(to, data);
    }

    fn recv_f32(&self, from: usize) -> Vec<f32> {
        self.charge_recv(from);
        self.peer.recv_f32(from)
    }

    fn recv_u32(&self, from: usize) -> Vec<u32> {
        self.charge_recv(from);
        self.peer.recv_u32(from)
    }

    /// Numbers the sparse contribution and draws whether this rank's
    /// misses its deadline ([`CommFaults::member_degraded`]), counting the
    /// degraded ones.
    fn contribution_withheld(&self) -> bool {
        let instance = self.instance.get();
        self.instance.set(instance + 1);
        let degraded = self.faults.member_degraded(instance, self.peer.rank());
        if degraded {
            let mut report = self.report.get();
            report.degraded_members += 1;
            self.report.set(report);
        }
        degraded
    }
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
    use crate::group::{run_on_group, Withholding};
    use crate::gtopk::gtopk_all_reduce_ef;
    use crate::hierarchical::{hitopk_all_reduce_ef, hitopk_all_reduce_ef_scratch, InterStep};
    use crate::ring::{ring_all_reduce_scratch, HOP_PIECE};
    use crate::scratch::CommScratch;
    use crate::torus::torus_all_reduce;
    use cloudtrain_compress::exact::SortTopK;
    use cloudtrain_compress::{ErrorFeedback, MsTopK};
    use cloudtrain_tensor::init;
    use cloudtrain_tensor::partition::{shard_for, shards};

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
    fn each_straggler_degrades_at_its_own_probability() {
        let faults = CommFaults::new(21).straggle(1, 0.9).straggle(2, 0.1);
        let mut degraded = [0usize; 4];
        for instance in 0..2_000 {
            for (member, count) in degraded.iter_mut().enumerate() {
                *count += usize::from(faults.member_degraded(instance, member));
            }
        }
        // Expected 1,800 and 200; the non-stragglers never degrade.
        assert!(degraded[1] > 1_600, "{degraded:?}");
        assert!(degraded[2] < 300, "{degraded:?}");
        assert_eq!((degraded[0], degraded[3]), (0, 0), "{degraded:?}");
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
            let rp = ResilientPeer::new(peer, CommFaults::new(5), ResiliencePolicy::default());
            let mut x = vec_for(peer.rank(), d);
            torus_all_reduce(&rp, &mut x, m, n);
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
            let rp = ResilientPeer::new(peer, faults, ResiliencePolicy::default());
            let mut x = vec_for(peer.rank(), d);
            torus_all_reduce(&rp, &mut x, m, n);
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
        // Global reconciliation: every drop charged at a sender is one
        // timeout + backoff wait charged at its receiver, whatever shape
        // the message has — a dense ring piece, a forwarded step-(iv)
        // block, a framed O(k) pair, a gTop-k set, or the empty block a
        // degraded member sends — so across the group the total delay is
        // bracketed by the drop count.
        let (m, n, d, rho) = (2usize, 2usize, 24usize, 0.25f64);
        let p = m * n;
        let policy = ResiliencePolicy::default();
        for path in ["ring", "hitopk", "oksparse", "gtopk"] {
            let reports = run_on_group(p, |peer| {
                let faults = CommFaults::new(13).with_drops(0.5).with_degrade(0.3);
                let rp = ResilientPeer::new(peer, faults, policy);
                let members: Vec<usize> = (0..p).collect();
                let shard_len = shard_for(d, n, peer.rank() % n).len();
                let mut ef = ErrorFeedback::new(if path == "gtopk" { d } else { shard_len });
                let mut c = SortTopK;
                let mut scratch = CommScratch::new();
                for round in 0..5 {
                    let mut x = vec_for(round * 10 + peer.rank(), d);
                    match path {
                        "ring" => ring_all_reduce_scratch(&rp, &mut x, &members, &mut scratch),
                        "hitopk" => {
                            hitopk_all_reduce_ef_scratch(
                                &rp,
                                &mut x,
                                m,
                                n,
                                rho,
                                &mut c,
                                &mut ef,
                                &mut scratch,
                            );
                        }
                        "oksparse" => {
                            hitopk_all_reduce_ef(
                                &rp,
                                &mut x,
                                m,
                                n,
                                rho,
                                InterStep::SplitMerge,
                                &mut c,
                                &mut ef,
                                &mut scratch,
                            );
                        }
                        _ => {
                            gtopk_all_reduce_ef(&rp, &mut x, 6, &mut c, &mut ef, &mut scratch);
                        }
                    }
                }
                rp.report()
            });
            for (r, rep) in reports.iter().enumerate() {
                assert_eq!(rep.drops, rep.retries + rep.escalations, "{path} rank {r}");
            }
            let drops: u64 = reports.iter().map(|r| r.drops).sum();
            assert!(drops > 0, "{path}: p=0.5 must drop something");
            if path != "ring" {
                let degraded: u64 = reports.iter().map(|r| r.degraded_members).sum();
                assert!(degraded > 0, "{path}: some member must send an empty block");
            }
            let min_delay = drops as f64 * policy.hop_timeout;
            let max_delay =
                drops as f64 * (policy.hop_timeout + policy.backoff * policy.max_retries as f64);
            let delay: f64 = reports.iter().map(|r| r.virtual_delay).sum();
            assert!(
                delay >= min_delay - 1e-9 && delay <= max_delay + 1e-9,
                "{path}: delay {delay} outside [{min_delay}, {max_delay}] for {drops} drops"
            );
        }
    }

    fn bits(x: &[f32]) -> Vec<u32> {
        x.iter().map(|v| v.to_bits()).collect()
    }

    /// Per round: output bits, residual bits and the report (debug form);
    /// then the contributions the rank degraded.
    type Run = (Vec<(Vec<u32>, Vec<u32>, String)>, u64);

    /// Runs `rounds` rounds of one collective `path` on every rank of an
    /// `m × n` group — over a `ResilientPeer` under `faults` when
    /// `resilient`, otherwise over a plain `Peer` that withholds exactly
    /// the contributions the plan degrades.
    fn run_path(
        path: &str,
        (m, n, d): (usize, usize, usize),
        faults: &CommFaults,
        resilient: bool,
    ) -> Vec<Run> {
        let (rho, rounds) = (0.1f64, 3usize);
        let k = ((d as f64 * rho).round() as usize).max(1);
        let sparse = path != "ring" && path != "torus";
        run_on_group(m * n, |peer| {
            let rp = ResilientPeer::new(peer, faults.clone(), ResiliencePolicy::default());
            let replay = Withholding::new(peer, |call| faults.member_degraded(call, peer.rank()));
            let transport: &dyn Transport = if resilient { &rp } else { &replay };
            let members: Vec<usize> = (0..m * n).collect();
            let residual_len = match path {
                "gtopk" => d,
                _ => shard_for(d, n, peer.rank() % n).len(),
            };
            let mut ef = ErrorFeedback::new(residual_len);
            let mut c = MsTopK::new(30, 7 + peer.rank() as u64);
            let mut scratch = CommScratch::new();
            let mut replayed = 0;
            let mut out = Vec::new();
            for round in 0..rounds {
                let mut x = vec_for(100 * round + peer.rank(), d);
                replayed += u64::from(sparse && faults.member_degraded(round as u64, peer.rank()));
                let (x, ef, c, scratch) = (&mut x, &mut ef, &mut c, &mut scratch);
                let report = match path {
                    "hitopk" => {
                        let r =
                            hitopk_all_reduce_ef_scratch(transport, x, m, n, rho, c, ef, scratch);
                        format!("{r:?}")
                    }
                    "oksparse" => {
                        let step = InterStep::SplitMerge;
                        let r = hitopk_all_reduce_ef(transport, x, m, n, rho, step, c, ef, scratch);
                        format!("{r:?}")
                    }
                    "gtopk" => gtopk_all_reduce_ef(transport, x, k, c, ef, scratch).to_string(),
                    "ring" => {
                        ring_all_reduce_scratch(transport, x, &members, scratch);
                        String::new()
                    }
                    _ => {
                        torus_all_reduce(transport, x, m, n);
                        String::new()
                    }
                };
                out.push((bits(x), bits(ef.residual()), report));
            }
            let degraded = if resilient {
                rp.report().degraded_members
            } else {
                replayed
            };
            (out, degraded)
        })
    }

    #[test]
    fn hitopk_resilient_clean_matches_plain_ef() {
        // Faults are virtual: every path over a `ResilientPeer` computes
        // what the same body computes over a plain `Peer` that replays the
        // plan's degradation draws as withheld contributions —
        // outputs, residuals and reports bit for bit, round after round,
        // under a clean plan and a hostile one. Shapes: a chunk longer than
        // one hop piece, a single node, fewer elements than GPUs per node,
        // and regular grids.
        let shapes = [
            (2usize, 2usize, 2 * HOP_PIECE + 7),
            (1, 4, 50),
            (2, 4, 3),
            (2, 4, 240),
            (4, 2, 1000),
        ];
        for shape in shapes {
            for faults in [CommFaults::new(9), hostile(21)] {
                for path in ["hitopk", "oksparse", "gtopk", "ring", "torus"] {
                    let plain = run_path(path, shape, &faults, false);
                    let resilient = run_path(path, shape, &faults, true);
                    let what = format!("{path} {shape:?} clean={}", faults.is_clean());
                    assert!(
                        plain == resilient,
                        "{what}: the resilient run left the plain body"
                    );
                    let degraded: u64 = resilient.iter().map(|(_, g)| g).sum();
                    let sparse = path != "ring" && path != "torus";
                    assert_eq!(degraded > 0, sparse && !faults.is_clean(), "{what}");
                }
            }
        }
    }

    #[test]
    fn hitopk_degradation_keeps_ranks_bitwise_identical() {
        let (m, n, d, rho) = (2usize, 4usize, 120usize, 0.1f64);
        let results = run_on_group(m * n, |peer| {
            let rp = ResilientPeer::new(peer, hostile(21), ResiliencePolicy::default());
            let shard_len = shards(d, n)[peer.rank() % n].len();
            let mut ef = ErrorFeedback::new(shard_len);
            let mut c = SortTopK;
            let mut scratch = CommScratch::new();
            let mut out = Vec::new();
            for round in 0..4 {
                let mut x = vec_for(100 * round + peer.rank(), d);
                hitopk_all_reduce_ef_scratch(&rp, &mut x, m, n, rho, &mut c, &mut ef, &mut scratch);
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
            let rp = ResilientPeer::new(peer, faults, ResiliencePolicy::default());
            let shard_len = shards(d, n)[peer.rank() % n].len();
            let mut ef = ErrorFeedback::new(shard_len);
            let mut c = SortTopK;
            let mut scratch = CommScratch::new();
            let mut x = vec_for(peer.rank(), d);
            hitopk_all_reduce_ef_scratch(&rp, &mut x, m, n, rho, &mut c, &mut ef, &mut scratch);
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
    fn interleaved_dense_collectives_leave_the_sparse_numbering_unchanged() {
        // Dense collectives draw no degradation: a sparse run with a torus
        // AllReduce before every sparse call, over the one peer, withholds
        // the same contributions and computes the same bits as the sparse
        // run alone.
        let (m, n, d, rho) = (2usize, 2usize, 64usize, 0.1f64);
        let run = |interleave: bool| {
            run_on_group(m * n, move |peer| {
                let rp = ResilientPeer::new(peer, hostile(5), ResiliencePolicy::default());
                let mut ef = ErrorFeedback::new(shard_for(d, n, peer.rank() % n).len());
                let mut c = SortTopK;
                let mut scratch = CommScratch::new();
                let mut out = Vec::new();
                for round in 0..6 {
                    if interleave {
                        let mut dense = vec_for(500 + peer.rank(), d);
                        torus_all_reduce(&rp, &mut dense, m, n);
                    }
                    let mut x = vec_for(10 * round + peer.rank(), d);
                    let (c, ef, scratch) = (&mut c, &mut ef, &mut scratch);
                    hitopk_all_reduce_ef_scratch(&rp, &mut x, m, n, rho, c, ef, scratch);
                    out.push(bits(&x));
                }
                (out, bits(ef.residual()), rp.report().degraded_members)
            })
        };
        let alone = run(false);
        let degraded: u64 = alone.iter().map(|(_, _, g)| g).sum();
        assert!(degraded > 0, "the plan must degrade some contribution");
        assert!(alone == run(true), "a dense collective moved the numbering");
    }

    #[test]
    fn gtopk_resilient_completes_and_ranks_agree_under_faults() {
        let (p, d, k) = (4usize, 200usize, 10usize);
        let results = run_on_group(p, |peer| {
            let rp = ResilientPeer::new(peer, hostile(31), ResiliencePolicy::default());
            let mut ef = ErrorFeedback::new(d);
            let mut c = SortTopK;
            let mut scratch = CommScratch::new();
            let mut out = Vec::new();
            for round in 0..4 {
                let mut x = vec_for(20 * round + peer.rank(), d);
                gtopk_all_reduce_ef(&rp, &mut x, k, &mut c, &mut ef, &mut scratch);
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
            let rp = ResilientPeer::new(peer, hostile(17), ResiliencePolicy::default());
            let shard_len = shards(d, n)[peer.rank() % n].len();
            let mut ef = ErrorFeedback::new(shard_len);
            let mut c = SortTopK;
            let mut scratch = CommScratch::new();
            let mut x = vec_for(peer.rank(), d);
            hitopk_all_reduce_ef_scratch(&rp, &mut x, m, n, rho, &mut c, &mut ef, &mut scratch);
            let warm = scratch.misses();
            scratch.reset_stats();
            for round in 1..5 {
                let mut y = vec_for(50 * round + peer.rank(), d);
                hitopk_all_reduce_ef_scratch(&rp, &mut y, m, n, rho, &mut c, &mut ef, &mut scratch);
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
