//! Criterion: real CPU wall time of the top-k operators (the Fig. 6
//! implementations) across vector sizes.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use std::hint::black_box;

use cloudtrain::compress::dgc::Dgc;
use cloudtrain::compress::exact::{QuickTopK, SortTopK};
use cloudtrain::compress::quantize::{Qsgd, Quantizer, ScaledSign, TernGrad};
use cloudtrain::compress::randomk::RandomK;
use cloudtrain::compress::{Compressor, ErrorFeedback, MsTopK, MsTopKNaive};
use cloudtrain::tensor::{init, ops};

fn bench_topk(c: &mut Criterion) {
    let mut group = c.benchmark_group("topk_ops");
    let mut rng = init::rng_from_seed(1);
    for d in [262_144usize, 1 << 21] {
        let x = init::gradient_like_tensor(d, &mut rng).into_vec();
        let k = (d / 1000).max(1);
        group.throughput(Throughput::Elements(d as u64));

        group.bench_with_input(BenchmarkId::new("sort_topk", d), &x, |b, x| {
            b.iter(|| black_box(SortTopK.compress(x, k)))
        });
        group.bench_with_input(BenchmarkId::new("quickselect_topk", d), &x, |b, x| {
            b.iter(|| black_box(QuickTopK.compress(x, k)))
        });
        group.bench_with_input(BenchmarkId::new("dgc", d), &x, |b, x| {
            let mut op = Dgc::new(0.01, 2);
            b.iter(|| black_box(op.compress(x, k)))
        });
        group.bench_with_input(BenchmarkId::new("mstopk_n30", d), &x, |b, x| {
            let mut op = MsTopK::new(30, 3);
            b.iter(|| black_box(op.compress(x, k)))
        });
        group.bench_with_input(BenchmarkId::new("mstopk_n10", d), &x, |b, x| {
            let mut op = MsTopK::new(10, 3);
            b.iter(|| black_box(op.compress(x, k)))
        });
        group.bench_with_input(BenchmarkId::new("randomk", d), &x, |b, x| {
            let mut op = RandomK::new(4);
            b.iter(|| black_box(op.compress(x, k)))
        });
    }
    group.finish();
}

/// Histogram-search MSTopK against the N-pass bisection it replaced, at
/// the paper's gradient scales (1M and 25M parameters). Both run the same
/// threshold refinement, so the gap is purely the count_ge pass count;
/// `scripts/bench_snapshot.sh` records the same comparison to
/// `BENCH_topk.json`.
fn bench_mstopk_search(c: &mut Criterion) {
    let mut group = c.benchmark_group("mstopk_search");
    // The naive searcher needs ~1 s per 25M-element call; keep samples low.
    group.sample_size(3);
    let mut rng = init::rng_from_seed(7);
    for d in [1 << 20, 25_000_000usize] {
        let x = init::gradient_like_tensor(d, &mut rng).into_vec();
        let k = (d / 1000).max(1);
        group.throughput(Throughput::Elements(d as u64));

        group.bench_with_input(BenchmarkId::new("histogram_n30", d), &x, |b, x| {
            let mut op = MsTopK::new(30, 3);
            b.iter(|| black_box(op.compress(x, k)))
        });
        group.bench_with_input(BenchmarkId::new("naive_n30", d), &x, |b, x| {
            let mut op = MsTopKNaive::new(30, 3);
            b.iter(|| black_box(op.compress(x, k)))
        });
    }
    group.finish();
}

/// MSTopK at the error-feedback sparsification point of `agg_sparse_25m`:
/// one rank's shard of a 25,557,032-element gradient over two GPUs, at
/// rho = 0.01. `select_release` is `ErrorFeedback::select` (the
/// accumulating sweep) then `release`; `fold_compress_release` is what
/// `hitopk_all_reduce_ef_scratch` runs once its last ReduceScatter hop has
/// folded the node sum into the residual — `compress` on the residual, then
/// `release` — with the fold done here as a plain `add_assign`. Two
/// gradients alternate and the residual carries over, as across rounds.
fn bench_mstopk_ef(c: &mut Criterion) {
    const SHARD: usize = 12_778_516;
    const K: usize = 127_785;
    let mut group = c.benchmark_group("mstopk_ef");
    group.sample_size(5);
    group.throughput(Throughput::Elements(SHARD as u64));
    let mut rng = init::rng_from_seed(11);
    let grads = [
        init::gradient_like_tensor(SHARD, &mut rng).into_vec(),
        init::gradient_like_tensor(SHARD, &mut rng).into_vec(),
    ];

    group.bench_function("select_release", |b| {
        let mut op = MsTopK::new(30, 3);
        let mut ef = ErrorFeedback::new(SHARD);
        let mut round = 0;
        b.iter(|| {
            round += 1;
            let sent = ef.select(&grads[round % 2], K, &mut op);
            ef.release(&sent);
            black_box(sent)
        })
    });
    group.bench_function("fold_compress_release", |b| {
        let mut op = MsTopK::new(30, 3);
        let mut ef = ErrorFeedback::new(SHARD);
        let mut round = 0;
        b.iter(|| {
            round += 1;
            ops::add_assign(ef.residual_mut(), &grads[round % 2]);
            let sent = op.compress(ef.residual(), K);
            ef.release(&sent);
            black_box(sent)
        })
    });
    group.finish();
}

fn bench_quantizers(c: &mut Criterion) {
    let mut group = c.benchmark_group("quantizers");
    let mut rng = init::rng_from_seed(2);
    let d = 1 << 20;
    let x = init::gradient_like_tensor(d, &mut rng).into_vec();
    group.throughput(Throughput::Elements(d as u64));

    group.bench_function("qsgd_127", |b| {
        let mut q = Qsgd::new(127, 1);
        b.iter(|| black_box(q.quantize(&x)))
    });
    group.bench_function("terngrad", |b| {
        let mut q = TernGrad::new(1);
        b.iter(|| black_box(q.quantize(&x)))
    });
    group.bench_function("scaled_sign", |b| {
        let mut q = ScaledSign;
        b.iter(|| black_box(q.quantize(&x)))
    });
    group.bench_function("decode", |b| {
        let g = Qsgd::new(127, 1).quantize(&x);
        b.iter(|| black_box(g.decode()))
    });
    group.finish();
}

criterion_group!(
    benches,
    bench_topk,
    bench_mstopk_search,
    bench_mstopk_ef,
    bench_quantizers
);
criterion_main!(benches);
