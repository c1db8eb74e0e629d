//! End-to-end steps/sec snapshot: the speed gate of the raw-speed pass.
//!
//! Times real `DistTrainer` runs (all ranks, full forward/backward/
//! aggregate/update loop) on four configurations: dense 2D-torus
//! aggregation launched per layer (the α-heavy Fig.-1 pathology),
//! whole-tensor, and with the cost-model bucket plan, plus one MSTopK
//! HiTopKComm row.
//!
//! The headline number — `fusion_speedup`, cost-model-bucketed dense
//! steps/sec over the per-layer dense row of the same run — must stay
//! ≥ 1.5×; `scripts/ci.sh` enforces the ceiling.
//!
//! Wall-clock numbers are not byte-stable, so (like `obs_snapshot`) the
//! deterministic fingerprint of every configuration — final accuracy
//! and loss bits, bucket counts — is printed
//! between `E2E-BEGIN`/`E2E-END` markers for CI to slice out and `cmp`
//! across two invocations.
//!
//! Usage: `e2e_snapshot [out.json]`.

#![expect(
    clippy::disallowed_methods,
    reason = "a benchmark binary times real kernels by design; its output is a measurement, never a trace"
)]

use cloudtrain::prelude::*;
use cloudtrain_bench::{fmt_secs, header};
use serde::Serialize;
use std::time::Instant;

/// Measurement reps per configuration (plus one warmup run).
const REPS: usize = 3;

#[derive(Serialize)]
struct ConfigRecord {
    name: String,
    strategy: String,
    fusion: String,
    steps_per_sec: f64,
    best_run_s: f64,
    final_top1: f32,
    buckets: u64,
}

#[derive(Serialize)]
struct Snapshot {
    benchmark: String,
    reps: usize,
    global_steps: usize,
    configs: Vec<ConfigRecord>,
    /// Headline: dense cost-model buckets over dense per-layer — the
    /// α-pathology the raw-speed pass exists to kill.
    fusion_speedup: f64,
}

fn base_cfg(strategy: Strategy) -> DistConfig {
    DistConfig {
        nodes: 2,
        gpus_per_node: 4,
        epochs: 1,
        iters_per_epoch: 100,
        // Communication-bound regime (the cloud setting the paper
        // optimizes): per-rank compute is a batch-1 forward/backward,
        // the Transformer's many small parameter tensors make the
        // per-layer launch overhead (the Fig.-1 α pathology) visible,
        // and the optimizer is plain momentum so no PTO gathers dilute
        // the aggregation-path contrast. The lr is below the batch-1
        // divergence point of both aggregation families so every row
        // trains to the same clean fingerprint.
        local_batch: 1,
        eval_samples: 16,
        optimizer: OptimizerKind::Momentum,
        use_pto: false,
        lr: 0.02,
        ..DistConfig::small(strategy, Workload::Transformer)
    }
}

/// One configuration of the matrix.
struct Case {
    name: &'static str,
    cfg: DistConfig,
}

fn cases() -> Vec<Case> {
    let dense = |fusion| {
        let mut cfg = base_cfg(Strategy::DenseTorus);
        cfg.fusion = fusion;
        cfg
    };
    vec![
        Case {
            name: "dense_perlayer",
            cfg: dense(FusionMode::PerLayer),
        },
        Case {
            name: "dense_whole",
            cfg: dense(FusionMode::WholeTensor),
        },
        Case {
            name: "dense_costmodel",
            cfg: dense(FusionMode::CostModel),
        },
        Case {
            name: "mstopk",
            cfg: base_cfg(Strategy::mstopk_default()),
        },
    ]
}

fn fusion_label(mode: FusionMode) -> String {
    match mode {
        FusionMode::WholeTensor => "whole-tensor".to_string(),
        FusionMode::PerLayer => "per-layer".to_string(),
        FusionMode::Bucketed { threshold_bytes } => format!("bucketed({threshold_bytes})"),
        FusionMode::CostModel => "cost-model".to_string(),
    }
}

fn steps_per_sec(configs: &[ConfigRecord], name: &str) -> Option<f64> {
    configs
        .iter()
        .find(|c| c.name == name)
        .map(|c| c.steps_per_sec)
}

fn main() {
    let out_path = std::env::args()
        .nth(1)
        .unwrap_or_else(|| "BENCH_e2e.json".to_string());

    header("End-to-end steps/sec matrix");
    println!(
        "{:>16} {:>14} {:>14} {:>12} {:>10} {:>8}",
        "config", "strategy", "fusion", "best run", "steps/s", "top1"
    );

    let global_steps = {
        let c = base_cfg(Strategy::DenseTorus);
        c.epochs * c.iters_per_epoch
    };
    let mut configs = Vec::new();
    let mut fingerprints = Vec::new();
    for case in cases() {
        let trainer = DistTrainer::new(case.cfg.clone());
        // Fingerprint run: traced, bitwise identical to the timed runs,
        // also yields the bucket counters for the deterministic section.
        let (report, reg) = trainer.run_observed();
        let mut best = f64::INFINITY;
        for _ in 0..REPS {
            let t0 = Instant::now();
            let timed = trainer.run_all_ranks();
            best = best.min(t0.elapsed().as_secs_f64());
            assert_eq!(
                timed[0].final_top1(),
                report.final_top1(),
                "{}: timed run diverged from fingerprint run",
                case.name
            );
        }
        let record = ConfigRecord {
            name: case.name.to_string(),
            strategy: case.cfg.strategy.label().to_string(),
            fusion: fusion_label(case.cfg.fusion),
            steps_per_sec: global_steps as f64 / best,
            best_run_s: best,
            final_top1: report.final_top1(),
            buckets: reg.counter("fusion/buckets"),
        };
        println!(
            "{:>16} {:>14} {:>14} {:>12} {:>10.1} {:>8.3}",
            record.name,
            record.strategy,
            record.fusion,
            fmt_secs(best),
            record.steps_per_sec,
            record.final_top1
        );
        fingerprints.push(format!(
            "{} top1_bits=0x{:08x} loss_bits=0x{:08x} buckets={} messages_saved={}",
            case.name,
            report.final_top1().to_bits(),
            report
                .epochs
                .last()
                .map(|e| e.train_loss.to_bits())
                .unwrap_or(0),
            reg.counter("fusion/buckets"),
            reg.counter("fusion/messages_saved"),
        ));
        configs.push(record);
    }

    let fusion_speedup = {
        let get = |name: &str| steps_per_sec(&configs, name).expect("config row missing");
        get("dense_costmodel") / get("dense_perlayer")
    };
    let snapshot = Snapshot {
        benchmark: "e2e_steps_per_sec".to_string(),
        reps: REPS,
        global_steps,
        configs,
        fusion_speedup,
    };

    // Deterministic fingerprint section for the CI double-run `cmp`.
    println!("E2E-BEGIN");
    println!("global_steps={global_steps}");
    for line in &fingerprints {
        println!("{line}");
    }
    println!("E2E-END");

    println!(
        "\nfusion buckets speedup (cost-model vs per-layer): {:.2}x (ceiling: 1.5x)",
        snapshot.fusion_speedup
    );

    match serde_json::to_string(&snapshot) {
        Ok(json) => {
            std::fs::write(&out_path, json + "\n").expect("write snapshot file");
            println!("wrote {out_path}");
        }
        Err(e) => {
            eprintln!("snapshot serialization failed: {e}");
            std::process::exit(1);
        }
    }
}
