//! CI fault gauntlet: deterministic fault injection across seeds and
//! fault families.
//!
//! Three fault families (drops, latency spikes, stragglers) are each
//! replayed under 8 seeds against both resilience policies, checking on
//! every run that
//!
//! * the simulated timeline event log is **byte-identical** when the same
//!   `(plan, schedule)` pair is replayed,
//! * faults never make a schedule faster,
//! * the degrade policy's fault delay never exceeds the retry ladder's,
//! * the resilient collectives complete with all ranks bitwise in
//!   agreement, and the error-feedback ledger conserves gradient mass.
//!
//! The BSP-penalty-vs-resilience ablation rows (dense 2DTAR under the
//! retry ladder vs MSTopK/HiTopKComm under graceful degradation) are
//! emitted as JSON for the snapshot artifact.

use cloudtrain::prelude::*;
use cloudtrain::simnet::timeline::event_log;
use cloudtrain_bench::{emit_json, header};
use serde::Serialize;

const SEEDS: u64 = 8;

/// One fault family of the gauntlet.
struct Family {
    name: &'static str,
    plan: fn(u64) -> FaultPlan,
}

const FAMILIES: [Family; 3] = [
    Family {
        name: "drops",
        plan: |seed| FaultPlan::new(seed).with_drops(0.05),
    },
    Family {
        name: "spikes",
        plan: |seed| FaultPlan::new(seed).with_spikes(0.10, 2e-3),
    },
    Family {
        name: "stragglers",
        plan: |seed| {
            FaultPlan::new(seed)
                .straggle(0, 1.5)
                .straggle(1, 1.2)
                .degrade_link(0, 2.0, 0.0, 0.05)
        },
    },
];

#[derive(Serialize)]
struct Row {
    family: String,
    seed: u64,
    strategy: String,
    policy: String,
    makespan: f64,
    fault_delay: f64,
    drops: u64,
    retries: u64,
    escalations: u64,
    degraded: u64,
    spikes: u64,
    slowed: u64,
    straggler_seconds: f64,
    deterministic: bool,
}

/// Runs one (plan, policy, strategy) cell on the simulator and returns the
/// event log plus the makespan and counters.
fn run_sim(
    plan: &FaultPlan,
    policy: SimResilience,
    sparse: bool,
) -> (String, f64, cloudtrain::simnet::FaultCounters) {
    use cloudtrain::simnet::collectives::{sim_hitopk, sim_torus_all_reduce};
    let spec = clouds::tencent(4);
    let mut sim = NetSim::new(spec);
    sim.enable_trace();
    sim.inject_faults(plan.clone(), policy);
    if sparse {
        sim_hitopk(&mut sim, &spec, 1 << 18, 4, 0.01, 1e-4);
    } else {
        sim_torus_all_reduce(&mut sim, &spec, 1 << 20);
    }
    let log = event_log(sim.trace(), sim.fault_events());
    (log, sim.makespan(), sim.fault_counters())
}

/// Collectives-plane checks under the same seed: the sparse hierarchy over
/// a `ResilientPeer`, run with HiTopKComm's step (iii) and with O(k)'s,
/// completes, ranks agree bitwise, re-runs are identical, the two steps
/// agree bitwise with each other, and the error-feedback ledger conserves
/// mass.
fn check_collectives(seed: u64) {
    use cloudtrain::collectives::hierarchical::{hitopk_all_reduce_ef, InterStep};
    use cloudtrain::collectives::resilience::{ResiliencePolicy, ResilientPeer};
    use cloudtrain::collectives::{CommFaults, CommScratch};
    use cloudtrain::compress::exact::SortTopK;
    use cloudtrain::tensor::{init, ops};

    let (m, n, d, rounds) = (2usize, 4usize, 256usize, 3usize);
    let faults = CommFaults::new(seed)
        .with_drops(0.01)
        .straggle(1, 0.7)
        .straggle(5, 0.7);
    let run = |step: InterStep| {
        cloudtrain::collectives::group::run_on_group(m * n, |peer| {
            let rp = ResilientPeer::new(peer, faults.clone(), ResiliencePolicy::default());
            let shard_len = cloudtrain::tensor::partition::shard_for(d, n, peer.rank() % n).len();
            let mut ef = ErrorFeedback::new(shard_len);
            let mut c = SortTopK;
            let mut scratch = CommScratch::new();
            let mut applied = vec![0.0f32; d];
            for round in 0..rounds {
                let mut rng =
                    init::rng_from_seed(seed ^ ((peer.rank() as u64) << 8) ^ round as u64);
                let mut x = init::gradient_like_tensor(d, &mut rng).into_vec();
                let (c, ef, scratch) = (&mut c, &mut ef, &mut scratch);
                hitopk_all_reduce_ef(&rp, &mut x, m, n, 0.1, step, c, ef, scratch);
                ops::add_assign(&mut applied, &x);
            }
            (applied, ef.residual().to_vec(), rp.report())
        })
    };
    let a = run(InterStep::AllGatherPairs);
    let b = run(InterStep::AllGatherPairs);
    let o = run(InterStep::SplitMerge);
    let o2 = run(InterStep::SplitMerge);
    for (rank, (r1, r2)) in a.iter().zip(&b).enumerate() {
        assert_eq!(r1.0, r2.0, "seed {seed} rank {rank}: re-run diverged");
        assert_eq!(
            r1.1, r2.1,
            "seed {seed} rank {rank}: residual re-run diverged"
        );
    }
    for (rank, (r1, r2)) in o.iter().zip(&o2).enumerate() {
        assert_eq!(r1.0, r2.0, "seed {seed} rank {rank}: O(k) re-run diverged");
        assert_eq!(
            r1.1, r2.1,
            "seed {seed} rank {rank}: O(k) residual re-run diverged"
        );
    }
    // The O(k) path replays the same compressor selections over the same
    // degradation draws, so its aggregate and residuals must match the
    // HiTopKComm path bit for bit — the mass ledger below covers both.
    for (rank, (rh, ro)) in a.iter().zip(&o).enumerate() {
        assert_eq!(
            rh.0, ro.0,
            "seed {seed} rank {rank}: O(k) aggregate differs from HiTopKComm"
        );
        assert_eq!(
            rh.1, ro.1,
            "seed {seed} rank {rank}: O(k) residual differs from HiTopKComm"
        );
    }
    for (rank, r) in a.iter().enumerate() {
        assert_eq!(
            r.0, a[0].0,
            "seed {seed}: rank {rank} disagrees with rank 0"
        );
    }
    // Mass ledger over the shards (see the resilience property tests).
    let chunks = cloudtrain::tensor::partition::shards(d, n);
    let mut entered = vec![0.0f32; d];
    for round in 0..rounds {
        for rank in 0..m * n {
            let mut rng = init::rng_from_seed(seed ^ ((rank as u64) << 8) ^ round as u64);
            let g = init::gradient_like_tensor(d, &mut rng).into_vec();
            ops::add_assign(&mut entered, &g);
        }
    }
    let mut left = a[0].0.clone();
    for i in 0..m {
        for (j, chunk) in chunks.iter().enumerate() {
            ops::add_assign(chunk.slice_mut(&mut left), &a[i * n + j].1);
        }
    }
    for (idx, (e, l)) in entered.iter().zip(&left).enumerate() {
        assert!(
            (e - l).abs() <= 1e-3 * (1.0 + e.abs()),
            "seed {seed}: mass leaked at coordinate {idx}: {e} vs {l}"
        );
    }
}

fn main() {
    header("CI fault gauntlet: 8 seeds x {drops, spikes, stragglers}");
    println!(
        "{:<12} {:>4} {:<8} {:<8} {:>11} {:>10} {:>6} {:>6} {:>8} {:>8}",
        "family",
        "seed",
        "strategy",
        "policy",
        "makespan",
        "fault ms",
        "drops",
        "retry",
        "escalate",
        "degrade"
    );
    let mut rows = Vec::new();
    for family in &FAMILIES {
        for seed in 0..SEEDS {
            let plan = (family.plan)(seed);
            for (strategy, policy, sparse) in [
                ("2dtar", SimResilience::default(), false),
                ("mstopk", SimResilience::degrading(), true),
            ] {
                let (log1, makespan, counters) = run_sim(&plan, policy, sparse);
                let (log2, makespan2, _) = run_sim(&plan, policy, sparse);
                assert_eq!(
                    log1, log2,
                    "{} seed {seed} {strategy}: timeline not byte-identical",
                    family.name
                );
                assert_eq!(makespan, makespan2);
                let (_, clean_makespan, _) = run_sim(&FaultPlan::new(seed), policy, sparse);
                assert!(
                    makespan >= clean_makespan - 1e-12,
                    "{} seed {seed} {strategy}: faults sped the schedule up",
                    family.name
                );
                let policy_name = match policy.mode {
                    DeadlineMode::Retry => "retry",
                    DeadlineMode::Degrade => "degrade",
                };
                println!(
                    "{:<12} {:>4} {:<8} {:<8} {:>10.4}s {:>10.3} {:>6} {:>6} {:>8} {:>8}",
                    family.name,
                    seed,
                    strategy,
                    policy_name,
                    makespan,
                    counters.fault_delay * 1e3,
                    counters.drops,
                    counters.retries,
                    counters.escalations,
                    counters.degraded
                );
                rows.push(Row {
                    family: family.name.to_string(),
                    seed,
                    strategy: strategy.to_string(),
                    policy: policy_name.to_string(),
                    makespan,
                    fault_delay: counters.fault_delay,
                    drops: counters.drops,
                    retries: counters.retries,
                    escalations: counters.escalations,
                    degraded: counters.degraded,
                    spikes: counters.spikes,
                    slowed: counters.slowed,
                    straggler_seconds: counters.straggler_seconds,
                    deterministic: true,
                });
            }
            // On the *same* schedule, abandoning a dropped hop after one
            // timeout can never pay more than retrying it to completion.
            let (_, _, retry) = run_sim(&plan, SimResilience::default(), false);
            let (_, _, degrade) = run_sim(&plan, SimResilience::degrading(), false);
            assert!(
                degrade.fault_delay <= retry.fault_delay + 1e-12,
                "{} seed {seed}: degrade delay {} > retry delay {}",
                family.name,
                degrade.fault_delay,
                retry.fault_delay
            );
        }
    }
    for seed in 0..SEEDS {
        check_collectives(seed);
    }
    println!(
        "collectives plane: {SEEDS} seeds passed completion, rank-agreement,\n\
         re-run determinism, O(k)-vs-HiTopKComm bitwise identity and\n\
         mass-conservation checks"
    );
    emit_json("fault_gauntlet", &rows);
}
