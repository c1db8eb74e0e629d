//! Observability-plane snapshot: one fixed-configuration run through all
//! three instrumented planes, exported as the byte-stable JSONL the CI
//! gauntlet `cmp`s across two invocations (the trace-plane analogue of
//! the `timeline::event_log` determinism check).
//!
//! * comm plane — HiTopKComm on the simulated 16-node Tencent cluster,
//!   spans in virtual seconds (Fig. 8's stage decomposition),
//! * data plane — two epochs plus a restart epoch through the real
//!   NFS → disk → memory path (Fig. 9's tier hit rates),
//! * training plane — a seeded 1×2-worker MSTopK run via
//!   `DistTrainer::run_observed` (epoch spans, nested hitopk stages).
//!
//! The JSONL lines are printed verbatim between `OBS-BEGIN`/`OBS-END`
//! markers (for `ci.sh` to slice out), and a compact summary goes through
//! the usual `JSON <experiment>` channel into `BENCH_obs.json`.

use cloudtrain::compress::gpu_cost::{mstopk_cost, GpuRates};
use cloudtrain::datacache::disk::DiskCache;
use cloudtrain::datacache::loader::LoaderConfig;
use cloudtrain::datacache::{CachedLoader, SyntheticNfs};
use cloudtrain::engine::trainer::Workload;
use cloudtrain::obs::Registry;
use cloudtrain::prelude::*;
use cloudtrain::simnet::collectives::sim_hitopk;
use cloudtrain_bench::{emit_json, header};
use serde::Serialize;

#[derive(Serialize)]
struct Summary {
    jsonl_lines: usize,
    jsonl_fnv1a: u64,
    hitopk_inter_ag_share: f64,
    cache_memory_hit_rate: f64,
    train_epochs: u64,
    final_top1: f64,
}

fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x100_0000_01b3);
    }
    h
}

fn main() {
    header("Observability snapshot (fixed config, byte-stable)");
    let mut reg = Registry::new();

    // Comm plane: Fig. 8's configuration — ResNet-50, rho = 0.01.
    let spec = clouds::tencent(16);
    let d = 25_000_000usize;
    let rho = 0.01;
    let n = spec.gpus_per_node;
    let shard = d.div_ceil(n);
    let k = ((d as f64 * rho / n as f64) as usize).max(1);
    let topk_s = mstopk_cost(shard, k, 30, &GpuRates::default()).seconds;
    let mut sim = NetSim::new(spec);
    sim.attach_obs();
    sim_hitopk(&mut sim, &spec, d, 4, rho, topk_s);
    sim.publish_obs();
    let comm = sim.take_obs().expect("registry was attached");
    // Computed on the comm plane alone: the merged registry also holds
    // the training plane's same-named hitopk spans (charged in logical
    // work units), which would pollute a virtual-seconds ratio.
    let stage_names = [
        "hitopk/intra reduce-scatter",
        "hitopk/top-k compression",
        "hitopk/inter all-gather",
        "hitopk/intra all-gather",
    ];
    let comm_total: f64 = stage_names.iter().map(|n| comm.span_total(n)).sum();
    let inter_ag_share = comm.span_total("hitopk/inter all-gather") / comm_total;
    println!("comm plane (virtual seconds, Fig. 8 view):");
    print!("{}", comm.breakdown_table());
    reg.merge(&comm);

    // Data plane: 2 epochs x 128 samples, then a restart epoch over the
    // warm disk tier.
    let cache_dir = std::env::temp_dir().join(format!("cloudtrain-obs-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&cache_dir);
    let pixels = 96 * 96 * 3;
    let mut loader = CachedLoader::new(
        SyntheticNfs::new(pixels, 9),
        Some(DiskCache::open(&cache_dir).expect("cache dir")),
        LoaderConfig::default(),
    );
    for _epoch in 0..2 {
        for id in 0..128u64 {
            let (_, by, t) = loader.load(id);
            reg.charge(by.span_name(), t);
        }
    }
    loader.publish_obs(&mut reg);
    let mut restarted = CachedLoader::new(
        SyntheticNfs::new(pixels, 9),
        Some(DiskCache::open(&cache_dir).expect("cache dir")),
        LoaderConfig::default(),
    );
    for id in 0..128u64 {
        let (_, by, t) = restarted.load(id);
        reg.charge(by.span_name(), t);
    }
    restarted.publish_obs(&mut reg);
    let _ = std::fs::remove_dir_all(&cache_dir);

    // Training plane: a tiny seeded MSTopK run, instrumented end to end.
    let cfg = DistConfig {
        epochs: 2,
        iters_per_epoch: 4,
        ..DistConfig::small(Strategy::mstopk_default(), Workload::Mlp)
    };
    let (report, train_reg) = DistTrainer::new(cfg).run_observed();
    reg.merge(&train_reg);

    let jsonl = reg.to_jsonl();
    println!("\nmerged registry (per-plane clock domains):");
    print!("{}", reg.breakdown_table());
    println!("OBS-BEGIN");
    print!("{jsonl}");
    println!("OBS-END");

    let loads = reg.counter("cache/from_memory")
        + reg.counter("cache/from_disk")
        + reg.counter("cache/from_nfs");
    let summary = Summary {
        jsonl_lines: jsonl.lines().count(),
        jsonl_fnv1a: fnv1a(jsonl.as_bytes()),
        hitopk_inter_ag_share: inter_ag_share,
        cache_memory_hit_rate: reg.counter("cache/from_memory") as f64 / loads.max(1) as f64,
        train_epochs: reg.counter("train/epochs"),
        final_top1: f64::from(report.final_top1()),
    };
    emit_json("obs_snapshot", &summary);
}
