//! Deterministic autotuner snapshot: per-layer scheme decisions and
//! crossover points for every workload × topology cell, plus a *measured*
//! validation of the O(k)-vs-HiTopKComm traffic crossover on the real
//! collectives.
//!
//! Everything here is model-driven or byte-counting — no wall clock — so
//! two invocations must be byte-identical; `scripts/ci.sh gauntlet` runs
//! the binary twice, `cmp`s the full output, and snapshots
//! `BENCH_autotune.json`. The traffic-validation rows are the CI teeth:
//! at every (m, n, k̃) point where the cost model predicts an O(k) win
//! under overlapping selections, the real `hitopk_all_reduce_ef` with
//! `InterStep::SplitMerge` must move strictly fewer inter-node bytes than
//! with `InterStep::AllGatherPairs` on the same heavy-hitter payloads.
//!
//! Output markers: the deterministic section sits between
//! `AUTOTUNE-BEGIN` / `AUTOTUNE-END`; the snapshot JSON rides a
//! `JSON autotune_snapshot {...}` line.

use cloudtrain::collectives::group::run_on_group;
use cloudtrain::collectives::hierarchical::{hitopk_all_reduce_ef, InterStep};
use cloudtrain::collectives::CommScratch;
use cloudtrain::compress::exact::SortTopK;
use cloudtrain::compress::ErrorFeedback;
use cloudtrain::engine::autotune::{
    autotune_layers, wfbp_model_for, AutotuneConfig, CommModel, CommScheme, SCHEMES,
};
use cloudtrain::engine::trainer::{workload_layer_ranges, Workload};
use cloudtrain::prelude::*;
use cloudtrain::tensor::{init, partition};
use cloudtrain_bench::{emit_json, header};
use serde::Serialize;

#[derive(Serialize)]
struct CellRecord {
    workload: String,
    nodes: usize,
    gpus_per_node: usize,
    counts: [usize; SCHEMES.len()],
    forced_totals_ms: [f64; SCHEMES.len()],
    autotuned_total_ms: f64,
    global_choice: String,
    sparse_min_params: Option<usize>,
    oksparse_min_overlap: Option<f64>,
    wfbp_total_ms: f64,
}

#[derive(Serialize)]
struct TrafficRecord {
    nodes: usize,
    gpus_per_node: usize,
    dim: usize,
    rho: f64,
    k_per_shard: usize,
    predicted_hitopk_bytes: usize,
    predicted_oksparse_bytes: usize,
    measured_hitopk_bytes: usize,
    measured_oksparse_bytes: usize,
    oksparse_wins: bool,
}

#[derive(Serialize)]
struct Snapshot {
    benchmark: String,
    cells: Vec<CellRecord>,
    traffic: Vec<TrafficRecord>,
    crossover_points_validated: usize,
}

/// Gradient-like noise plus shared structural heavy hitters: every rank
/// boosts the same coordinate set, so the per-node top-k selections
/// overlap — the regime the autotuner's ω parameter models and the one
/// where O(k)'s merged lists stay O(k̃).
fn heavy_hitter_vec(rank: usize, d: usize) -> Vec<f32> {
    let mut rng = init::rng_from_seed(31_000 + rank as u64);
    let mut v = init::gradient_like_tensor(d, &mut rng).into_vec();
    for j in 0..d / 10 {
        let i = (j * 613) % d;
        let sign = if j % 2 == 0 { 1.0 } else { -1.0 };
        v[i] += sign * 10.0 * ((j % 7) as f32 + 1.0);
    }
    v
}

/// Runs both sparse collectives on identical heavy-hitter payloads and
/// returns each family's per-GPU inter-node bytes (rank 0's; the tests
/// prove all ranks agree).
fn measure_traffic(m: usize, n: usize, d: usize, rho: f64) -> (usize, usize, usize) {
    let reports = run_on_group(m * n, move |peer| {
        let shard_len = partition::shards(d, n)[peer.rank() % n].len();
        let mut scratch = CommScratch::new();
        let mut run = |step| {
            let mut x = heavy_hitter_vec(peer.rank(), d);
            let mut ef = ErrorFeedback::new(shard_len);
            let (c, ef, scratch) = (&mut SortTopK, &mut ef, &mut scratch);
            hitopk_all_reduce_ef(peer, &mut x, m, n, rho, step, c, ef, scratch)
        };
        let ok = run(InterStep::SplitMerge);
        let hi = run(InterStep::AllGatherPairs);
        (ok.inter_bytes_sent, hi.inter_bytes_sent, ok.k_per_shard)
    });
    reports[0]
}

fn main() {
    header("Per-layer autotuner snapshot (model-driven, deterministic)");

    let workloads = [
        ("mlp", Workload::Mlp),
        ("resnet", Workload::ResNetLite),
        ("vgg", Workload::VggLite),
        ("transformer", Workload::Transformer),
    ];
    let topologies = [(2usize, 4usize), (4, 4), (8, 8)];
    let cfg = AutotuneConfig::default();

    let mut cells = Vec::new();
    println!(
        "{:<12} {:>5} {:>5} {:>7} {:>7} {:>7} {:>14}",
        "workload", "m", "n", "dense", "staged", "ok", "choice"
    );
    for (name, workload) in workloads {
        let ranges = workload_layer_ranges(workload);
        for (m, n) in topologies {
            let mut spec = clouds::tencent(m);
            spec.gpus_per_node = n;
            let model = CommModel::new(spec);
            let report = autotune_layers(&ranges, &model, &cfg);
            let counts = report.counts();
            let wfbp = report.iteration_time(&wfbp_model_for(&ranges, &spec));
            println!(
                "{:<12} {:>5} {:>5} {:>7} {:>7} {:>7} {:>14}",
                name,
                m,
                n,
                counts[0],
                counts[1],
                counts[2],
                report.global_choice().label()
            );
            cells.push(CellRecord {
                workload: name.to_string(),
                nodes: m,
                gpus_per_node: n,
                counts,
                forced_totals_ms: report.forced_totals.map(|t| t * 1e3),
                autotuned_total_ms: report.autotuned_total * 1e3,
                global_choice: report.global_choice().label().to_string(),
                sparse_min_params: report.crossovers.sparse_min_params,
                oksparse_min_overlap: report.crossovers.oksparse_min_overlap,
                wfbp_total_ms: wfbp.total * 1e3,
            });
        }
    }

    header("O(k) vs HiTopKComm traffic at model-predicted crossover points");
    println!(
        "{:>3} {:>3} {:>6} {:>6} {:>6} {:>10} {:>10} {:>10} {:>10} {:>6}",
        "m", "n", "d", "rho", "k", "pred hi", "pred ok", "meas hi", "meas ok", "wins"
    );
    // Past the ω > 1/(m−1) crossover the model predicts an O(k) traffic
    // win from m ≥ 3; the heavy-hitter payloads realize high overlap, so
    // the measured byte counts must agree with the prediction's sign.
    let points = [
        (3usize, 2usize, 480usize, 0.05f64),
        (4, 2, 480, 0.05),
        (6, 2, 600, 0.05),
    ];
    let mut traffic = Vec::new();
    let mut validated = 0usize;
    for (m, n, d, rho) in points {
        let mut spec = clouds::tencent(m);
        spec.gpus_per_node = n;
        let model = CommModel::new(spec);
        let high_overlap = AutotuneConfig {
            rho,
            overlap: 0.9,
            ..cfg
        };
        let predicted_hi = model.inter_bytes(CommScheme::HiTopKStaged, d, &high_overlap) as usize;
        let predicted_ok = model.inter_bytes(CommScheme::OkSparse, d, &high_overlap) as usize;
        let (measured_ok, measured_hi, k) = measure_traffic(m, n, d, rho);
        let wins = measured_ok < measured_hi;
        println!(
            "{:>3} {:>3} {:>6} {:>6} {:>6} {:>10} {:>10} {:>10} {:>10} {:>6}",
            m, n, d, rho, k, predicted_hi, predicted_ok, measured_hi, measured_ok, wins
        );
        assert!(
            predicted_ok < predicted_hi,
            "model must predict an O(k) win at (m={m}, overlap 0.9)"
        );
        assert!(
            wins,
            "measured O(k) bytes {measured_ok} not below hitopk {measured_hi} at (m={m}, n={n}, d={d})"
        );
        validated += 1;
        traffic.push(TrafficRecord {
            nodes: m,
            gpus_per_node: n,
            dim: d,
            rho,
            k_per_shard: k,
            predicted_hitopk_bytes: predicted_hi,
            predicted_oksparse_bytes: predicted_ok,
            measured_hitopk_bytes: measured_hi,
            measured_oksparse_bytes: measured_ok,
            oksparse_wins: wins,
        });
    }

    // Deterministic fingerprint section for the CI double-run `cmp` (the
    // whole stdout is compared; the markers make the contract explicit).
    println!("AUTOTUNE-BEGIN");
    for c in &cells {
        println!(
            "{} m={} n={} counts={:?} choice={}",
            c.workload, c.nodes, c.gpus_per_node, c.counts, c.global_choice
        );
    }
    for t in &traffic {
        println!(
            "traffic m={} n={} d={} hi={} ok={} wins={}",
            t.nodes,
            t.gpus_per_node,
            t.dim,
            t.measured_hitopk_bytes,
            t.measured_oksparse_bytes,
            t.oksparse_wins
        );
    }
    println!("schemes={:?}", SCHEMES.map(|s| s.label()));
    println!("AUTOTUNE-END");

    let snapshot = Snapshot {
        benchmark: "autotune_snapshot".to_string(),
        cells,
        traffic,
        crossover_points_validated: validated,
    };
    emit_json("autotune_snapshot", &snapshot);
}
