//! Criterion: the real in-process collectives (ring/tree/torus/HiTopKComm)
//! moving real bytes across 8 worker threads.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use std::hint::black_box;

use cloudtrain::collectives::group::run_on_group;
use cloudtrain::collectives::hierarchical::hitopk_all_reduce;
use cloudtrain::collectives::ring::ring_all_reduce;
use cloudtrain::collectives::torus::torus_all_reduce;
use cloudtrain::collectives::tree::tree_all_reduce;
use cloudtrain::compress::MsTopK;
use cloudtrain::tensor::init;

const WORLD: usize = 8;
const M: usize = 2;
const N: usize = 4;

fn data_for(rank: usize, d: usize) -> Vec<f32> {
    let mut rng = init::rng_from_seed(5000 + rank as u64);
    init::uniform_tensor(d, -1.0, 1.0, &mut rng).into_vec()
}

fn bench_collectives(c: &mut Criterion) {
    let mut group = c.benchmark_group("collectives");
    group.sample_size(20);
    for d in [1 << 14, 1 << 18] {
        group.throughput(Throughput::Elements((d * WORLD) as u64));

        group.bench_with_input(BenchmarkId::new("ring_all_reduce", d), &d, |b, &d| {
            let members: Vec<usize> = (0..WORLD).collect();
            b.iter(|| {
                run_on_group(WORLD, |peer| {
                    let mut x = data_for(peer.rank(), d);
                    ring_all_reduce(peer, &mut x, &members);
                    black_box(x[0])
                })
            })
        });
        group.bench_with_input(BenchmarkId::new("tree_all_reduce", d), &d, |b, &d| {
            let members: Vec<usize> = (0..WORLD).collect();
            b.iter(|| {
                run_on_group(WORLD, |peer| {
                    let mut x = data_for(peer.rank(), d);
                    tree_all_reduce(peer, &mut x, &members);
                    black_box(x[0])
                })
            })
        });
        group.bench_with_input(BenchmarkId::new("torus_all_reduce", d), &d, |b, &d| {
            b.iter(|| {
                run_on_group(WORLD, |peer| {
                    let mut x = data_for(peer.rank(), d);
                    torus_all_reduce(peer, &mut x, M, N);
                    black_box(x[0])
                })
            })
        });
        group.bench_with_input(BenchmarkId::new("hitopk_rho01", d), &d, |b, &d| {
            b.iter(|| {
                run_on_group(WORLD, |peer| {
                    let mut x = data_for(peer.rank(), d);
                    let mut c = MsTopK::new(30, peer.rank() as u64);
                    hitopk_all_reduce(peer, &mut x, M, N, 0.01, &mut c);
                    black_box(x[0])
                })
            })
        });
    }
    group.finish();
}

criterion_group!(benches, bench_collectives);
criterion_main!(benches);
