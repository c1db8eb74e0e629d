//! CI tail gauntlet: p50/p95/p99 makespan under deadline-bounded
//! aggregation vs the retry ladder.
//!
//! The fault gauntlet (`fault_gauntlet.rs`) pins *correctness* under
//! faults; this harness pins the *tail*. Across the same 8-seed × 3-family
//! sweep it compares two policies on the simulator:
//!
//! * the reliable **retry** ladder (dense) / **degrade** timeout (sparse)
//!   — bounded loss, unbounded latency, and
//! * the **deadline** budget (`SimResilience::deadline_bounded`): every
//!   inter-node hop gets `mult × (α + bytes·β)` derived from a
//!   [`probe_pairwise`] pass over the clean fabric, and a hop that would
//!   land beyond the budget is abandoned at the boundary (partial
//!   aggregates; safe under error feedback on the sparse path).
//!
//! The straggler family here degrades a node's NIC 8× (a mild 2× slowdown
//! is cheaper to ride out than to abandon, and with the 1.5× budget it
//! correctly does *not* trip the deadline). p50/p95/p99 makespans are
//! published as first-class `cloudtrain-obs` gauges and snapshotted into
//! `BENCH_tails.json`, where `scripts/ci.sh gauntlet` enforces
//!
//! * byte-identical output across two runs,
//! * the dense deadline twin bitwise-matching the clean run when no
//!   deadline fires, and
//! * the pinned p99 ceiling: deadline p99 beats retry p99 on the dense
//!   straggler family by a fixed margin.
//!
//! The same probe feeds the rank-reordering optimizer on a rack-scrambled
//! cost model (interleaved placement: cross-rack links 2×α / 3×β); the
//! predicted ring-cost gain of the optimized order is reported alongside.

use cloudtrain::collectives::{optimize_ring_order, PairCost};
use cloudtrain::obs::{gauge_percentiles, percentile, Registry};
use cloudtrain::prelude::*;
use cloudtrain::simnet::collectives::{
    sim_hitopk, sim_torus_all_reduce, sim_torus_all_reduce_reordered,
};
use cloudtrain::simnet::probe_pairwise;
use cloudtrain::simnet::timeline::event_log;
use cloudtrain_bench::{emit_json, header};
use serde::Serialize;

const SEEDS: u64 = 8;
/// Deadline budget multiplier over the probed clean hop time.
const DEADLINE_MULT: f64 = 1.5;
/// Dense AllReduce payload (matches the fault gauntlet).
const DENSE_BYTES: usize = 1 << 20;
/// Sparse gradient dimension (matches the fault gauntlet).
const SPARSE_ELEMS: usize = 1 << 18;

/// One fault family of the tail sweep.
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
        // A heavy straggler: node 0's NIC at 1/8 line rate. (A 2x
        // slowdown costs less to ride out than its deadline budget, so it
        // would — correctly — never trip the 1.5x deadline.)
        plan: |seed| {
            FaultPlan::new(seed)
                .straggle(0, 1.5)
                .straggle(1, 1.2)
                .degrade_link(0, 8.0, 0.0, 0.05)
        },
    },
];

#[derive(Serialize)]
struct Row {
    family: String,
    seed: u64,
    workload: String,
    policy: String,
    makespan: f64,
    deadline_missed: u64,
    fault_delay: f64,
}

#[derive(Serialize)]
struct Summary {
    family: String,
    workload: String,
    baseline_policy: String,
    baseline_p50: f64,
    baseline_p95: f64,
    baseline_p99: f64,
    deadline_p50: f64,
    deadline_p95: f64,
    deadline_p99: f64,
    p99_improvement: f64,
}

#[derive(Serialize)]
struct ReorderReport {
    identity_cost: f64,
    optimized_cost: f64,
    predicted_gain: f64,
    order: Vec<usize>,
}

#[derive(Serialize)]
struct Snapshot {
    rows: Vec<Row>,
    summary: Vec<Summary>,
    dense_deadline_clean_bitwise: bool,
    straggler_dense_p99_baseline: f64,
    straggler_dense_p99_deadline: f64,
    straggler_dense_p99_improvement: f64,
    reorder: ReorderReport,
}

/// Runs one (plan, policy, workload) cell and returns the event log,
/// makespan, and fault counters.
fn run_sim(
    plan: &FaultPlan,
    policy: SimResilience,
    sparse: bool,
) -> (String, f64, cloudtrain::simnet::FaultCounters) {
    let spec = clouds::tencent(4);
    let mut sim = NetSim::new(spec);
    sim.enable_trace();
    sim.inject_faults(plan.clone(), policy);
    if sparse {
        sim_hitopk(&mut sim, &spec, SPARSE_ELEMS, 4, 0.01, 1e-4);
    } else {
        sim_torus_all_reduce(&mut sim, &spec, DENSE_BYTES);
    }
    let log = event_log(sim.trace(), sim.fault_events());
    (log, sim.makespan(), sim.fault_counters())
}

fn main() {
    header("CI tail gauntlet: p50/p95/p99 makespan, retry ladder vs deadline budget");

    // Probe the clean fabric: the deadline budget is mult x the probed
    // worst clean link, not a hand-tuned constant.
    let spec = clouds::tencent(4);
    let est = probe_pairwise(&spec, &FaultPlan::new(0));
    let (alpha, beta) = est.worst_link();
    println!(
        "probed clean link: alpha {:.3e}s beta {:.3e}s/B -> hop budget mult {DEADLINE_MULT}",
        alpha, beta
    );

    // Acceptance gate 1: with a clean plan the deadline policy never
    // fires, so the dense run is bitwise identical to the retry run.
    let mut clean_bitwise = true;
    for seed in 0..SEEDS {
        let clean = FaultPlan::new(seed);
        let (log_r, mk_r, _) = run_sim(&clean, SimResilience::default(), false);
        let (log_d, mk_d, c_d) = run_sim(
            &clean,
            SimResilience::deadline_bounded(DEADLINE_MULT, alpha, beta),
            false,
        );
        assert_eq!(c_d.deadline_missed, 0, "clean plan fired the deadline");
        clean_bitwise &= log_r == log_d && mk_r == mk_d;
    }
    assert!(
        clean_bitwise,
        "dense deadline twin diverged on a clean plan"
    );
    println!("clean-plan dense deadline twin: bitwise identical over {SEEDS} seeds");

    let mut rows = Vec::new();
    let mut summaries = Vec::new();
    let mut reg = Registry::new();
    println!(
        "\n{:<12} {:<8} {:<9} {:>11} {:>11} {:>11} {:>9}",
        "family", "workload", "policy", "p50", "p95", "p99", "missed"
    );
    for family in &FAMILIES {
        for sparse in [false, true] {
            let workload = if sparse { "mstopk" } else { "2dtar" };
            // Dense traffic must not lose bytes under the ladder, sparse
            // traffic may degrade — the same split the fault gauntlet uses.
            let (baseline_name, baseline_policy) = if sparse {
                ("degrade", SimResilience::degrading())
            } else {
                ("retry", SimResilience::default())
            };
            let deadline_policy = SimResilience::deadline_bounded(DEADLINE_MULT, alpha, beta);
            let mut spans: Vec<Vec<f64>> = vec![Vec::new(), Vec::new()];
            let mut missed: Vec<u64> = vec![0, 0];
            for seed in 0..SEEDS {
                let plan = (family.plan)(seed);
                for (slot, (policy_name, policy)) in [
                    (baseline_name, baseline_policy),
                    ("deadline", deadline_policy),
                ]
                .into_iter()
                .enumerate()
                {
                    let (log1, makespan, counters) = run_sim(&plan, policy, sparse);
                    let (log2, makespan2, _) = run_sim(&plan, policy, sparse);
                    assert_eq!(
                        log1, log2,
                        "{} seed {seed} {workload} {policy_name}: timeline not byte-identical",
                        family.name
                    );
                    assert_eq!(makespan, makespan2);
                    spans[slot].push(makespan);
                    missed[slot] += counters.deadline_missed;
                    rows.push(Row {
                        family: family.name.to_string(),
                        seed,
                        workload: workload.to_string(),
                        policy: policy_name.to_string(),
                        makespan,
                        deadline_missed: counters.deadline_missed,
                        fault_delay: counters.fault_delay,
                    });
                }
            }
            for (slot, policy_name) in [baseline_name, "deadline"].into_iter().enumerate() {
                gauge_percentiles(
                    &mut reg,
                    &format!("tails/{}/{workload}/{policy_name}", family.name),
                    &spans[slot],
                );
                println!(
                    "{:<12} {:<8} {:<9} {:>10.2}us {:>10.2}us {:>10.2}us {:>9}",
                    family.name,
                    workload,
                    policy_name,
                    percentile(&spans[slot], 0.50) * 1e6,
                    percentile(&spans[slot], 0.95) * 1e6,
                    percentile(&spans[slot], 0.99) * 1e6,
                    missed[slot]
                );
            }
            let baseline_p99 = percentile(&spans[0], 0.99);
            let deadline_p99 = percentile(&spans[1], 0.99);
            // Bounding the tail must never make it worse, on any family.
            assert!(
                deadline_p99 <= baseline_p99 + 1e-12,
                "{} {workload}: deadline p99 {deadline_p99} > {baseline_name} p99 {baseline_p99}",
                family.name
            );
            summaries.push(Summary {
                family: family.name.to_string(),
                workload: workload.to_string(),
                baseline_policy: baseline_name.to_string(),
                baseline_p50: percentile(&spans[0], 0.50),
                baseline_p95: percentile(&spans[0], 0.95),
                baseline_p99: percentile(&spans[0], 0.99),
                deadline_p50: percentile(&spans[1], 0.50),
                deadline_p95: percentile(&spans[1], 0.95),
                deadline_p99: percentile(&spans[1], 0.99),
                p99_improvement: baseline_p99 / deadline_p99,
            });
        }
    }

    // Acceptance gate 2: on the dense straggler family the deadline's p99
    // must beat the retry ladder's (the pinned margin lives in ci.sh).
    let straggler_dense = summaries
        .iter()
        .find(|s| s.family == "stragglers" && s.workload == "2dtar")
        .expect("straggler dense summary missing");
    assert!(
        straggler_dense.deadline_p99 < straggler_dense.baseline_p99,
        "deadline p99 {} did not beat retry p99 {} on dense stragglers",
        straggler_dense.deadline_p99,
        straggler_dense.baseline_p99
    );
    let straggler_missed: u64 = rows
        .iter()
        .filter(|r| r.family == "stragglers" && r.workload == "2dtar" && r.policy == "deadline")
        .map(|r| r.deadline_missed)
        .sum();
    assert!(straggler_missed > 0, "8x degradation must trip the budget");
    println!(
        "\ndense straggler p99: retry {:.2}us vs deadline {:.2}us ({:.2}x)",
        straggler_dense.baseline_p99 * 1e6,
        straggler_dense.deadline_p99 * 1e6,
        straggler_dense.p99_improvement
    );

    // Rank reordering on a rack-scrambled fabric: interleaved placement
    // (racks {0,2} and {1,3}) makes the identity ring cross racks on every
    // hop; the optimizer should recover the 2-crossing order.
    let m = spec.nodes;
    let mut cost =
        PairCost::from_matrices(m, est.alpha_matrix().to_vec(), est.beta_matrix().to_vec());
    for src in 0..m {
        for dst in 0..m {
            if src != dst && src % 2 != dst % 2 {
                cost.set_link(src, dst, 2.0 * alpha, 3.0 * beta);
            }
        }
    }
    let chunk = DENSE_BYTES / spec.gpus_per_node / m;
    let order = optimize_ring_order(&cost, chunk, 0);
    let identity: Vec<usize> = (0..m).collect();
    let identity_cost = cost.ring_cost(&identity, chunk);
    let optimized_cost = cost.ring_cost(&order, chunk);
    let predicted_gain = identity_cost / optimized_cost;
    assert!(
        predicted_gain > 1.0,
        "reordering should beat the identity on a scrambled fabric"
    );
    // The reordered sim twin is sane: on the uniform clean fabric any node
    // order has the same makespan as the natural ring.
    let natural = {
        let mut sim = NetSim::new(spec);
        sim_torus_all_reduce(&mut sim, &spec, DENSE_BYTES);
        sim.makespan()
    };
    let reordered = {
        let mut sim = NetSim::new(spec);
        sim_torus_all_reduce_reordered(&mut sim, &spec, DENSE_BYTES, &order);
        sim.makespan()
    };
    assert!(
        (natural - reordered).abs() < 1e-12,
        "uniform-fabric reorder changed the makespan: {natural} vs {reordered}"
    );
    println!(
        "reorder (rack-scrambled probe): identity {:.2}us -> {:?} {:.2}us ({:.2}x predicted)",
        identity_cost * 1e6,
        order,
        optimized_cost * 1e6,
        predicted_gain
    );

    println!("\nTAILS-OBS-BEGIN");
    print!("{}", reg.to_jsonl());
    println!("TAILS-OBS-END");

    emit_json(
        "tail_gauntlet",
        &Snapshot {
            straggler_dense_p99_baseline: straggler_dense.baseline_p99,
            straggler_dense_p99_deadline: straggler_dense.deadline_p99,
            straggler_dense_p99_improvement: straggler_dense.p99_improvement,
            rows,
            summary: summaries,
            dense_deadline_clean_bitwise: clean_bitwise,
            reorder: ReorderReport {
                identity_cost,
                optimized_cost,
                predicted_gain,
                order,
            },
        },
    );
}
