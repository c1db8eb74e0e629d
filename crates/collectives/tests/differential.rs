//! Differential tests: the torus AllReduce (2D-Torus, §2.2) is checked
//! **against the ring AllReduce** on the same per-rank payloads — two
//! independent implementations agreeing (and both agreeing with the
//! sequential sum) is much stronger evidence than either matching a
//! hand-derived value.
//!
//! Topology edge cases the proptest sweeps rarely pin down get named
//! tests: non-power-of-two worlds, single-node (`m = 1`) and
//! single-GPU-per-node (`n = 1`) degenerate torus grids, and the trivial
//! 1-rank world.

use cloudtrain_collectives::group::run_on_group;
use cloudtrain_collectives::ring::ring_all_reduce;
use cloudtrain_collectives::torus::torus_all_reduce;
use cloudtrain_tensor::{init, ops};
use proptest::prelude::*;

const TOL: f32 = 1e-3;

fn per_rank_data(p: usize, d: usize, seed: u64) -> Vec<Vec<f32>> {
    (0..p)
        .map(|r| {
            let mut rng = init::rng_from_seed(seed ^ (r as u64).wrapping_mul(0x9E37));
            init::uniform_tensor(d, -1.0, 1.0, &mut rng).into_vec()
        })
        .collect()
}

fn sequential_sum(data: &[Vec<f32>]) -> Vec<f32> {
    let mut acc = vec![0.0; data[0].len()];
    for x in data {
        ops::add_assign(&mut acc, x);
    }
    acc
}

/// Runs `ring_all_reduce` over the whole world on the given payloads.
fn ring_reference(data: &[Vec<f32>]) -> Vec<Vec<f32>> {
    let p = data.len();
    let members: Vec<usize> = (0..p).collect();
    let data = data.to_vec();
    run_on_group(p, move |peer| {
        let mut x = data[peer.rank()].clone();
        ring_all_reduce(peer, &mut x, &members);
        x
    })
}

/// Asserts the differential contract on one topology: every rank of
/// `results` matches rank 0 bitwise (the gather phases copy, never
/// recompute), and rank 0 matches both the ring reference and the
/// sequential sum within `TOL`.
fn assert_matches_ring(results: &[Vec<f32>], data: &[Vec<f32>], what: &str) {
    let ring = ring_reference(data);
    let expect = sequential_sum(data);
    for (r, x) in results.iter().enumerate() {
        assert_eq!(
            x.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
            results[0].iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
            "{what}: rank {r} disagrees bitwise with rank 0"
        );
    }
    assert!(
        ops::approx_eq(&results[0], &ring[0], TOL),
        "{what}: differs from ring AllReduce"
    );
    assert!(
        ops::approx_eq(&results[0], &expect, TOL),
        "{what}: differs from sequential sum"
    );
}

fn run_torus(m: usize, n: usize, d: usize, seed: u64) {
    let data = per_rank_data(m * n, d, seed);
    let results = {
        let data = data.clone();
        run_on_group(m * n, move |peer| {
            let mut x = data[peer.rank()].clone();
            torus_all_reduce(peer, &mut x, m, n);
            x
        })
    };
    assert_matches_ring(&results, &data, &format!("torus {m}x{n} d={d}"));
}

// ---- torus vs ring: named topology edge cases --------------------------

#[test]
fn torus_matches_ring_on_non_power_of_two_grid() {
    // 3 nodes x 5 GPUs: both grid axes odd, world size 15 (non-pow2),
    // and d = 509 (prime) leaves ragged shards at every level.
    run_torus(3, 5, 509, 0xD1FF_0001);
}

#[test]
fn torus_matches_ring_on_single_node_grid() {
    // m = 1 degenerates the inter-node phase to a no-op.
    run_torus(1, 6, 257, 0xD1FF_0002);
}

#[test]
fn torus_matches_ring_on_single_gpu_per_node_grid() {
    // n = 1 degenerates the intra-node phases to no-ops.
    run_torus(5, 1, 130, 0xD1FF_0003);
}

#[test]
fn torus_matches_ring_on_trivial_world() {
    run_torus(1, 1, 17, 0xD1FF_0004);
}

#[test]
fn torus_matches_ring_when_vector_shorter_than_world() {
    // d < m*n forces empty shards in both phases.
    run_torus(3, 4, 5, 0xD1FF_0005);
}

// ---- randomized differential sweep -------------------------------------

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Torus ≡ ring for arbitrary small grids and payload lengths.
    #[test]
    fn torus_vs_ring_differential(
        m in 1usize..4,
        n in 1usize..5,
        d in 1usize..300,
        seed in 0u64..1000,
    ) {
        run_torus(m, n, d, seed);
    }
}
