//! Figure 6: top-k operator time — `nn.topk` (exact) vs DGC
//! (double sampling) vs MSTopK — for vector lengths 256K to 128M with
//! k = 0.001 d.
//!
//! Two views are reported:
//! * the **V100 cost model** (the Fig. 6 substitute: pass counts at each
//!   access pattern's effective bandwidth — see
//!   `cloudtrain_compress::gpu_cost`), and
//! * **real CPU wall time** of this crate's implementations on smaller
//!   sizes, confirming the same ordering holds mechanically.

#![expect(
    clippy::disallowed_methods,
    reason = "a benchmark binary times real kernels by design; its output is a measurement, never a trace"
)]

use cloudtrain::compress::dgc::Dgc;
use cloudtrain::compress::exact::SortTopK;
use cloudtrain::compress::gpu_cost::{dgc_cost, exact_topk_cost, mstopk_cost, GpuRates};
use cloudtrain::compress::{Compressor, MsTopK};
use cloudtrain::tensor::init;
use cloudtrain_bench::{emit_json, fmt_secs, header};
use serde::Serialize;
use std::time::Instant;

#[derive(Serialize)]
struct ModelRow {
    elements: usize,
    exact_s: f64,
    dgc_s: f64,
    mstopk_s: f64,
}

fn main() {
    header("Figure 6 (modelled V100): top-k operator time, k = 0.001 d, N = 30");
    println!(
        "{:>12} {:>14} {:>14} {:>14}",
        "elements", "nn.topk", "DGC", "MSTopK"
    );
    let rates = GpuRates::default();
    let mut rows = Vec::new();
    let mut d = 256_000usize;
    while d <= 132_000_000 {
        let k = (d / 1000).max(1);
        let exact = exact_topk_cost(d, &rates).seconds;
        let dgc = dgc_cost(d, k, 0.01, &rates).seconds;
        let ms = mstopk_cost(d, k, 30, &rates).seconds;
        println!(
            "{:>12} {:>14} {:>14} {:>14}",
            d,
            fmt_secs(exact),
            fmt_secs(dgc),
            fmt_secs(ms)
        );
        rows.push(ModelRow {
            elements: d,
            exact_s: exact,
            dgc_s: dgc,
            mstopk_s: ms,
        });
        d *= 2;
    }
    emit_json("fig6_gpu_model", &rows);

    header("Figure 6 (real CPU wall time of this crate's implementations)");
    println!(
        "{:>12} {:>14} {:>14} {:>14} {:>10}",
        "elements", "sort-topk", "DGC", "MSTopK", "mass ratio"
    );
    let mut rng = init::rng_from_seed(6);
    for d in [256_000usize, 1_000_000, 4_000_000] {
        let x = init::gradient_like_tensor(d, &mut rng).into_vec();
        let k = d / 1000;

        let time_of = |f: &mut dyn FnMut() -> cloudtrain::compress::SparseGrad| {
            let start = Instant::now();
            let s = f();
            (start.elapsed().as_secs_f64(), s)
        };
        let (t_sort, exact_sel) = time_of(&mut || SortTopK.compress(&x, k));
        let mut dgc = Dgc::new(0.01, 1);
        let (t_dgc, _) = time_of(&mut || dgc.compress(&x, k));
        let mut ms = MsTopK::new(30, 2);
        let (t_ms, ms_sel) = time_of(&mut || ms.compress(&x, k));
        println!(
            "{:>12} {:>14} {:>14} {:>14} {:>9.3}",
            d,
            fmt_secs(t_sort),
            fmt_secs(t_dgc),
            fmt_secs(t_ms),
            ms_sel.abs_mass() / exact_sel.abs_mass()
        );
    }
    println!(
        "\nnote: on CPU the exact-selection penalty is much smaller than on a GPU\n\
         (quickselect is cache-friendly; there is no coalescing to lose), so DGC's\n\
         tiny sampled selection beats MSTopK's 32 full passes here — the paper's\n\
         ordering (MSTopK < DGC < nn.topk) is a GPU-memory-access effect, which\n\
         the cost model above reproduces. The full sort (`nn.topk`) is slowest\n\
         everywhere, and MSTopK captures ~100% of the exact top-k mass."
    );
}
