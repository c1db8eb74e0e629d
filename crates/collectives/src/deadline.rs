//! Deadline-bounded collectives: ship what arrived, absorb the rest.
//!
//! The correctness-plane twin of the simulator's per-hop deadline budget
//! (`cloudtrain_simnet::SimResilience::deadline_bounded`). A retry ladder
//! bounds *loss* but not *latency* — one straggler hop in the tail drags
//! the whole BSP step (OptiReduce's observation). The deadline policy
//! inverts the contract: every hop gets a budget derived from the probed
//! clean link (`mult × (α + bytes·β)`), and a hop that would land after
//! the budget is treated as absent:
//!
//! * **Dense** ([`ring_all_reduce_deadline`]): a ReduceScatter hop that
//!   misses its deadline is *discarded by the receiver* — the partial sum
//!   proceeds without the upstream contributions. Misses only ever happen
//!   in the ReduceScatter phase; the AllGather that follows is reliable,
//!   so every member still ends with the *identical* (partial) vector.
//! * **Sparse** ([`hitopk_all_reduce_ef_deadline`]): the miss is decided
//!   at the sparsification point, per *(instance, member)* — a late member
//!   contributes an **empty sparse block** and its entire node-local shard
//!   sum stays in the residual, where HiTopKComm's folded ReduceScatter
//!   put it (`ErrorFeedback::withhold`). Nothing is lost,
//!   only delayed: the conformance mass-conservation ledger holds, and all
//!   ranks observe the same contributed blocks so replicas stay bitwise
//!   identical.
//!
//! Like the resilience module, lateness is *virtual*: every message
//! physically arrives exactly once (the schedule stays deadlock-free by
//! construction) and [`DeadlineFaults`] decides — as a pure function of a
//! seed — how late each hop or contribution *would have been*. A clean
//! plan therefore never misses (the budget covers the clean transfer time
//! for any `mult ≥ 1`), making the deadline twins bitwise identical to
//! their plain counterparts — the property the CI tail gate pins.

use cloudtrain_compress::{Compressor, ErrorFeedback};
use cloudtrain_tensor::ops;
use cloudtrain_tensor::partition::{shard_for, shards, Shard};

use crate::group::Peer;
use crate::hierarchical::{hitopk_ef_impl, pair_wire_bytes, shard_k, HiTopKReport};
use crate::resilience::{hash3, unit};
use crate::ring::{member_index, ring_all_gather_scratch, HOP_PIECE};
use crate::scratch::CommScratch;
use crate::torus::{grid_pos, inter_node_members};

/// Seeded virtual-lateness model: how many seconds past the clean transfer
/// time each hop (or sparse contribution) would have landed.
///
/// Every draw is a pure function of `(seed, identifiers)` — the same plan
/// over the same schedule is late on the same hops on every run and every
/// rank, mirroring `cloudtrain_simnet::FaultPlan`.
#[derive(Debug, Clone, PartialEq)]
pub struct DeadlineFaults {
    /// Master seed for all lateness draws.
    pub seed: u64,
    /// Scale of the per-hop lateness draws, seconds (`0.0` = never late).
    pub jitter: f64,
    /// `(rank, multiplier)` pairs: hops and contributions touching these
    /// ranks draw lateness scaled by the multiplier (a straggler node).
    pub stragglers: Vec<(usize, f64)>,
}

impl DeadlineFaults {
    /// A never-late plan under `seed` (builder entry point).
    pub fn new(seed: u64) -> Self {
        Self {
            seed,
            jitter: 0.0,
            stragglers: Vec::new(),
        }
    }

    /// Sets the lateness scale: each draw is uniform in `[0, seconds)`
    /// before straggler multipliers.
    #[must_use]
    pub fn with_jitter(mut self, seconds: f64) -> Self {
        assert!(seconds >= 0.0, "jitter must be non-negative");
        self.jitter = seconds;
        self
    }

    /// Marks `rank` as living on a straggler node: its lateness draws are
    /// scaled by `mult`.
    #[must_use]
    pub fn straggle(mut self, rank: usize, mult: f64) -> Self {
        assert!(mult >= 1.0, "straggler multiplier must be >= 1");
        self.stragglers.push((rank, mult));
        self
    }

    /// Whether the plan can never produce lateness.
    pub fn is_clean(&self) -> bool {
        self.jitter == 0.0
    }

    /// Straggler multiplier of `rank` (max of matching entries, 1.0 when
    /// none).
    fn mult_for(&self, rank: usize) -> f64 {
        self.stragglers
            .iter()
            .filter(|(r, _)| *r == rank)
            .map(|(_, m)| *m)
            .fold(1.0, f64::max)
    }

    /// Virtual lateness of the `hop`-th message on the ordered pair
    /// `src → dst`, seconds. Pure in all arguments; sender and receiver
    /// agree.
    pub fn hop_lateness(&self, src: usize, dst: usize, hop: u64) -> f64 {
        if self.is_clean() {
            return 0.0;
        }
        let pair = (src as u64) << 20 | dst as u64;
        let u = unit(hash3(self.seed ^ LATENESS_SALT, pair, hop));
        self.jitter * u * self.mult_for(src).max(self.mult_for(dst))
    }

    /// Virtual lateness of `member`'s sparse contribution to collective
    /// instance `instance`, seconds.
    pub fn contribution_lateness(&self, instance: u64, member: usize) -> f64 {
        if self.is_clean() {
            return 0.0;
        }
        let u = unit(hash3(self.seed ^ CONTRIB_SALT, instance, member as u64));
        self.jitter * u * self.mult_for(member)
    }
}

/// The per-hop deadline budget, derived from a probed clean link.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DeadlinePolicy {
    /// Probed clean per-message latency, seconds.
    pub alpha: f64,
    /// Probed clean per-byte transfer time, seconds.
    pub beta: f64,
    /// Absolute per-hop budget, seconds: a hop whose clean time plus
    /// lateness exceeds this is treated as absent.
    pub deadline: f64,
}

impl DeadlinePolicy {
    /// Sizes the budget at `mult` times the probed clean transfer time of
    /// a `bytes`-sized hop: `deadline = mult × (alpha + bytes·beta)`.
    ///
    /// # Panics
    /// Panics if `mult < 1` — a budget below the clean transfer time would
    /// discard fault-free traffic.
    pub fn from_link(alpha: f64, beta: f64, bytes: usize, mult: f64) -> Self {
        assert!(mult >= 1.0, "deadline multiplier must be >= 1");
        Self {
            alpha,
            beta,
            deadline: mult * (alpha + bytes as f64 * beta),
        }
    }

    /// Whether a `bytes`-sized hop arriving `lateness` seconds past its
    /// clean time misses the budget. Never true for `lateness = 0` when
    /// the policy was sized for at least `bytes` with `mult ≥ 1`.
    pub fn hop_missed(&self, bytes: usize, lateness: f64) -> bool {
        self.alpha + bytes as f64 * self.beta + lateness > self.deadline
    }
}

/// What a deadline-bounded collective paid.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct DeadlineReport {
    /// Deadline-checked hops (or sparse contributions) observed.
    pub hops: u64,
    /// Hops (or contributions) that missed their budget and were treated
    /// as absent.
    pub missed: u64,
}

/// Deadline-bounded ring ReduceScatter: the schedule of
/// [`crate::ring::ring_reduce_scatter_scratch`] with every received chunk
/// checked against the budget — a late chunk is discarded and the partial
/// sum proceeds without the upstream contributions. Hops stay whole-chunk
/// (the plain variant pieces them): lateness is drawn, and the budget
/// charged, per hop.
#[allow(clippy::too_many_arguments)]
fn ring_reduce_scatter_deadline(
    peer: &Peer,
    x: &mut [f32],
    members: &[usize],
    instance: u64,
    faults: &DeadlineFaults,
    policy: &DeadlinePolicy,
    scratch: &mut CommScratch,
    report: &mut DeadlineReport,
) -> Shard {
    let p = members.len();
    let me = member_index(members, peer.rank());
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
        peer.send_f32(right, send_chunk);
        let recv = peer.recv_f32(left);
        report.hops += 1;
        let hop = instance.wrapping_mul(4096).wrapping_add(s as u64);
        let lateness = faults.hop_lateness(left, peer.rank(), hop);
        if policy.hop_missed(recv.len() * 4, lateness) {
            // Late: the receiver proceeds without it. (The payload still
            // physically arrived — lateness is virtual — so the schedule
            // stays deadlock-free.)
            report.missed += 1;
        } else {
            ops::add_assign(chunks[recv_idx].slice_mut(x), &recv);
        }
        scratch.put_f32(recv);
    }
    chunks[me]
}

/// Deadline-bounded ring AllReduce over `members`: ReduceScatter with
/// per-hop deadline discards, then a *reliable* AllGather — so every
/// member ends with the identical vector (a partial sum when hops missed,
/// the exact sum otherwise). With a clean plan the result is bitwise
/// identical to [`crate::ring::ring_all_reduce`].
///
/// `instance` domain-separates the lateness draws of repeated invocations;
/// every rank must pass the same value.
pub fn ring_all_reduce_deadline(
    peer: &Peer,
    x: &mut [f32],
    members: &[usize],
    instance: u64,
    faults: &DeadlineFaults,
    policy: &DeadlinePolicy,
    scratch: &mut CommScratch,
) -> DeadlineReport {
    let mut report = DeadlineReport::default();
    ring_reduce_scatter_deadline(
        peer,
        x,
        members,
        instance,
        faults,
        policy,
        scratch,
        &mut report,
    );
    ring_all_gather_scratch(peer, x, members, scratch);
    report
}

/// Deadline-bounded HiTopKComm with error feedback:
/// [`crate::hierarchical::hitopk_all_reduce_ef_scratch`]'s one body, with
/// this rank's contribution checked against the budget at the
/// sparsification point. A late member transmits an empty sparse block and
/// its whole node-local shard sum stays in the residual
/// (`ErrorFeedback::withhold`) — the discarded mass is re-injected next
/// invocation (the mass-conservation ledger holds).
///
/// The miss decision is per *(instance, member)* — never per hop — so all
/// ranks observe the same contributed blocks and replicas stay bitwise
/// identical. With a clean plan no contribution misses and the result is
/// bitwise identical to the plain EF twin.
///
/// # Panics
/// Panics if the group size is not `m * n` or the residual dimension does
/// not match this rank's shard.
#[allow(clippy::too_many_arguments)]
pub fn hitopk_all_reduce_ef_deadline<C: Compressor + ?Sized>(
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
) -> (HiTopKReport, DeadlineReport) {
    let d = x.len();
    let pos = grid_pos(peer.rank(), m, n);
    // Would this member's compressed block (k values + k indices) have
    // landed inside the budget? Decided before the collective starts, from
    // the shard this rank will own.
    let k = shard_k(d, n, rho).min(shard_for(d, n, pos.gpu).len());
    let lateness = faults.contribution_lateness(instance, peer.rank());
    let missed = policy.hop_missed(pair_wire_bytes(k), lateness);
    let inter = inter_node_members(pos.gpu, m, n);
    let report = hitopk_ef_impl(
        peer, x, m, n, rho, compressor, ef, &inter, missed, scratch, None, HOP_PIECE,
    );
    (
        report,
        DeadlineReport {
            hops: 1,
            missed: u64::from(missed),
        },
    )
}

/// Domain-separation salts for the two lateness streams.
const LATENESS_SALT: u64 = 0x1A7E_1A7E_1A7E_1A7E;
const CONTRIB_SALT: u64 = 0xC0DE_C0DE_C0DE_C0DE;

#[cfg(test)]
mod tests {
    use super::*;
    use crate::group::run_on_group;
    use crate::hierarchical::hitopk_all_reduce_ef_scratch;
    use crate::ring::ring_all_reduce;
    use cloudtrain_compress::exact::SortTopK;
    use cloudtrain_tensor::init;

    /// A tencent-like inter link: 50 µs latency, ~25 Gbps.
    const ALPHA: f64 = 5e-5;
    const BETA: f64 = 4e-10;

    fn vec_for(rank: usize, d: usize) -> Vec<f32> {
        let mut rng = init::rng_from_seed(9500 + rank as u64);
        init::gradient_like_tensor(d, &mut rng).into_vec()
    }

    fn expected_sum(p: usize, d: usize) -> Vec<f32> {
        let mut acc = vec![0.0; d];
        for r in 0..p {
            ops::add_assign(&mut acc, &vec_for(r, d));
        }
        acc
    }

    fn chunk_policy(d: usize, p: usize, mult: f64) -> DeadlinePolicy {
        DeadlinePolicy::from_link(ALPHA, BETA, d.div_ceil(p) * 4, mult)
    }

    #[test]
    fn lateness_draws_are_deterministic_and_scaled() {
        let f = DeadlineFaults::new(7).with_jitter(1e-3).straggle(1, 10.0);
        for hop in 0..50u64 {
            assert_eq!(f.hop_lateness(0, 1, hop), f.hop_lateness(0, 1, hop));
            assert!(f.hop_lateness(2, 3, hop) < 1e-3);
        }
        for inst in 0..50u64 {
            assert_eq!(
                f.contribution_lateness(inst, 1),
                f.contribution_lateness(inst, 1)
            );
        }
        // Straggler draws dominate clean draws on average.
        let straggler: f64 = (0..200).map(|i| f.contribution_lateness(i, 1)).sum();
        let clean: f64 = (0..200).map(|i| f.contribution_lateness(i, 0)).sum();
        assert!(straggler > clean, "straggler {straggler} <= clean {clean}");
        assert_eq!(DeadlineFaults::new(7).hop_lateness(0, 1, 3), 0.0);
    }

    #[test]
    fn policy_boundary_is_the_budget() {
        let p = DeadlinePolicy::from_link(ALPHA, BETA, 1024, 1.5);
        assert!(!p.hop_missed(1024, 0.0), "clean hop must fit a 1.5x budget");
        let clean = ALPHA + 1024.0 * BETA;
        assert!(!p.hop_missed(1024, 0.5 * clean - 1e-12));
        assert!(p.hop_missed(1024, 0.5 * clean + 1e-12));
    }

    #[test]
    #[should_panic(expected = "must be >= 1")]
    fn sub_unit_multiplier_panics() {
        let _ = DeadlinePolicy::from_link(ALPHA, BETA, 1024, 0.9);
    }

    #[test]
    fn clean_plan_is_bitwise_identical_to_plain_ring() {
        let (p, d) = (4usize, 53usize);
        let members: Vec<usize> = (0..p).collect();
        let plain = run_on_group(p, |peer| {
            let mut x = vec_for(peer.rank(), d);
            ring_all_reduce(peer, &mut x, &members);
            x
        });
        let bounded = run_on_group(p, |peer| {
            let faults = DeadlineFaults::new(5);
            let policy = chunk_policy(d, p, 1.5);
            let mut scratch = CommScratch::new();
            let mut x = vec_for(peer.rank(), d);
            let rep =
                ring_all_reduce_deadline(peer, &mut x, &members, 0, &faults, &policy, &mut scratch);
            assert_eq!(rep.missed, 0);
            assert_eq!(rep.hops, (p - 1) as u64);
            x
        });
        assert_eq!(plain, bounded);
    }

    #[test]
    fn missed_hops_keep_ranks_bitwise_identical() {
        let (p, d) = (4usize, 64usize);
        let members: Vec<usize> = (0..p).collect();
        let results = run_on_group(p, |peer| {
            // Jitter far beyond the budget on half the draws.
            let faults = DeadlineFaults::new(11).with_jitter(1e-2);
            let policy = chunk_policy(d, p, 1.2);
            let mut scratch = CommScratch::new();
            let mut out = Vec::new();
            let mut missed = 0;
            for round in 0..4u64 {
                let mut x = vec_for(10 * round as usize + peer.rank(), d);
                let rep = ring_all_reduce_deadline(
                    peer,
                    &mut x,
                    &members,
                    round,
                    &faults,
                    &policy,
                    &mut scratch,
                );
                missed += rep.missed;
                out.push(x);
            }
            (out, missed)
        });
        let total_missed: u64 = results.iter().map(|(_, m)| m).sum();
        assert!(total_missed > 0, "1e-2 jitter must blow a ~100 µs budget");
        for (r, (out, _)) in results.iter().enumerate() {
            assert_eq!(*out, results[0].0, "rank {r} diverged under misses");
        }
        // A partial sum: never exceeding the exact sum's magnitude by more
        // than rounding, and differing from it (contributions were lost).
        let exact = expected_sum(p, d);
        assert_ne!(results[0].0[0], exact, "misses should change the sum");
    }

    #[test]
    fn hitopk_deadline_clean_is_bitwise_identical_to_plain_ef() {
        let (m, n, d, rho) = (2usize, 2usize, 64usize, 0.1f64);
        let run = |bounded: bool| {
            run_on_group(m * n, move |peer| {
                let shard_len = shards_len(d, n, peer.rank() % n);
                let mut ef = ErrorFeedback::new(shard_len);
                let mut c = SortTopK;
                let mut scratch = CommScratch::new();
                let faults = DeadlineFaults::new(3);
                let policy = DeadlinePolicy::from_link(ALPHA, BETA, 1 << 20, 1.5);
                let mut out = Vec::new();
                for round in 0..3u64 {
                    let mut x = vec_for(100 * round as usize + peer.rank(), d);
                    if bounded {
                        let (_, rep) = hitopk_all_reduce_ef_deadline(
                            peer,
                            &mut x,
                            m,
                            n,
                            rho,
                            &mut c,
                            &mut ef,
                            round,
                            &faults,
                            &policy,
                            &mut scratch,
                        );
                        assert_eq!(rep.missed, 0);
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
                (out, ef.residual_norm())
            })
        };
        assert_eq!(run(false), run(true));
    }

    #[test]
    fn late_member_mass_lands_in_its_residual_and_ranks_agree() {
        // Rank 1 is a heavy straggler under a tight budget: its
        // contributions miss, its residual keeps the mass, and replicas
        // stay bitwise identical (the empty block physically travels).
        let (m, n, d, rho) = (2usize, 2usize, 64usize, 0.25f64);
        let results = run_on_group(m * n, move |peer| {
            let shard_len = shards_len(d, n, peer.rank() % n);
            let mut ef = ErrorFeedback::new(shard_len);
            let mut c = SortTopK;
            let mut scratch = CommScratch::new();
            let faults = DeadlineFaults::new(13).with_jitter(1e-4).straggle(1, 100.0);
            let policy = DeadlinePolicy::from_link(ALPHA, BETA, 8 * shard_k(d, n, rho), 1.1);
            let mut out = Vec::new();
            let mut missed = 0;
            for round in 0..4u64 {
                let mut x = vec_for(100 * round as usize + peer.rank(), d);
                let (_, rep) = hitopk_all_reduce_ef_deadline(
                    peer,
                    &mut x,
                    m,
                    n,
                    rho,
                    &mut c,
                    &mut ef,
                    round,
                    &faults,
                    &policy,
                    &mut scratch,
                );
                missed += rep.missed;
                out.push(x);
            }
            (out, ef.residual_norm(), missed)
        });
        assert!(
            results[1].2 > 0,
            "the straggler's contributions should miss"
        );
        assert!(results[1].1 > 0.0, "missed mass must stay in the residual");
        for (r, (out, _, _)) in results.iter().enumerate() {
            assert_eq!(*out, results[0].0, "rank {r} diverged");
        }
    }

    /// Shard length of position `j` when `d` elements split over `n`.
    fn shards_len(d: usize, n: usize, j: usize) -> usize {
        cloudtrain_tensor::partition::shards(d, n)[j].len()
    }
}
