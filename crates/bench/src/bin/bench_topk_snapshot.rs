//! Snapshot benchmark for the tentpole MSTopK change: single-pass
//! histogram threshold search vs the seed's N-pass bisection
//! (`MsTopKNaive`), at the paper's gradient scales (1M and 25M elements,
//! k = 0.001 d, N = 30 refinement steps).
//!
//! Run via `scripts/bench_snapshot.sh`; writes a machine-readable record
//! to `BENCH_topk.json` (or the path given as the first argument). The
//! acceptance bar for the PR is a >= 5x histogram speedup at d = 25M.

#![expect(
    clippy::disallowed_methods,
    reason = "a benchmark binary times real kernels by design; its output is a measurement, never a trace"
)]

use cloudtrain::compress::{Compressor, MsTopK, MsTopKNaive, SparseGrad};
use cloudtrain::tensor::init;
use cloudtrain_bench::{fmt_secs, header};
use serde::Serialize;
use std::time::Instant;

const SAMPLINGS: usize = 30;
const SEED: u64 = 3;

#[derive(Serialize)]
struct SizeRecord {
    elements: usize,
    k: usize,
    samplings: usize,
    reps: usize,
    naive_best_s: f64,
    histogram_best_s: f64,
    speedup: f64,
    selections_identical: bool,
}

#[derive(Serialize)]
struct Snapshot {
    benchmark: String,
    note: String,
    sizes: Vec<SizeRecord>,
}

/// Best-of-`reps` wall time of `f` after one warmup call.
fn best_of<F: FnMut() -> SparseGrad>(reps: usize, mut f: F) -> (f64, SparseGrad) {
    let mut sel = f(); // warmup (also the value we hand back)
    let mut best = f64::INFINITY;
    for _ in 0..reps {
        let t0 = Instant::now();
        sel = f();
        best = best.min(t0.elapsed().as_secs_f64());
    }
    (best, sel)
}

fn main() {
    let out_path = std::env::args()
        .nth(1)
        .unwrap_or_else(|| "BENCH_topk.json".to_string());

    header("MSTopK threshold search: histogram (1 pass) vs naive (N passes)");
    println!(
        "{:>12} {:>10} {:>14} {:>14} {:>9} {:>10}",
        "elements", "k", "naive", "histogram", "speedup", "identical"
    );

    let mut rng = init::rng_from_seed(11);
    let mut sizes = Vec::new();
    for d in [1_000_000usize, 25_000_000] {
        let x = init::gradient_like_tensor(d, &mut rng).into_vec();
        let k = d / 1000;
        let reps = 3;

        let (t_naive, sel_naive) = best_of(reps, || {
            let mut op = MsTopKNaive::new(SAMPLINGS, SEED);
            op.compress(&x, k)
        });
        let (t_hist, sel_hist) = best_of(reps, || {
            let mut op = MsTopK::new(SAMPLINGS, SEED);
            op.compress(&x, k)
        });

        // The histogram search is designed to be bitwise identical to the
        // naive bisection; record that the snapshot run confirms it.
        let identical =
            sel_naive.indices == sel_hist.indices && sel_naive.values == sel_hist.values;
        let speedup = t_naive / t_hist;
        println!(
            "{:>12} {:>10} {:>14} {:>14} {:>8.1}x {:>10}",
            d,
            k,
            fmt_secs(t_naive),
            fmt_secs(t_hist),
            speedup,
            identical
        );
        sizes.push(SizeRecord {
            elements: d,
            k,
            samplings: SAMPLINGS,
            reps,
            naive_best_s: t_naive,
            histogram_best_s: t_hist,
            speedup,
            selections_identical: identical,
        });
    }

    let snapshot = Snapshot {
        benchmark: "mstopk_histogram_vs_naive".to_string(),
        note: format!(
            "best-of-3 wall time, fresh operator per call (seed {SEED}), \
             N = {SAMPLINGS} refinement steps, k = 0.001 d"
        ),
        sizes,
    };
    match serde_json::to_string(&snapshot) {
        Ok(json) => {
            std::fs::write(&out_path, json + "\n").expect("write snapshot file");
            println!("\nwrote {out_path}");
        }
        Err(e) => {
            eprintln!("snapshot serialization failed: {e}");
            std::process::exit(1);
        }
    }

    let worst = snapshot_floor(&snapshot);
    println!("minimum speedup across sizes: {worst:.1}x");
}

/// Smallest speedup over the measured sizes (the acceptance number).
fn snapshot_floor(s: &Snapshot) -> f64 {
    s.sizes
        .iter()
        .map(|r| r.speedup)
        .fold(f64::INFINITY, f64::min)
}
