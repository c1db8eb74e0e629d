//! Property-based tests: every dense collective computes the same sum as a
//! sequential reference for arbitrary cluster shapes and payloads, and the
//! sparse collectives keep their structural invariants.

use cloudtrain_collectives::group::run_on_group;
use cloudtrain_collectives::gtopk::{gtopk_all_reduce_ef, merge_sparse, trim_topk};
use cloudtrain_collectives::hierarchical::{hitopk_all_reduce, shard_k};
use cloudtrain_collectives::ring::ring_all_reduce;
use cloudtrain_collectives::torus::torus_all_reduce;
use cloudtrain_collectives::tree::tree_all_reduce;
use cloudtrain_collectives::CommScratch;
use cloudtrain_compress::exact::SortTopK;
use cloudtrain_compress::{ErrorFeedback, SparseGrad};
use cloudtrain_tensor::{init, ops};
use proptest::prelude::*;

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

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Ring, tree, and torus AllReduce all match the sequential sum for
    /// arbitrary grid shapes and vector lengths.
    #[test]
    fn dense_collectives_match_sequential_sum(
        m in 1usize..4,
        n in 1usize..5,
        d in 1usize..200,
        seed in 0u64..1000,
    ) {
        let p = m * n;
        let data = per_rank_data(p, d, seed);
        let expect = sequential_sum(&data);
        let members: Vec<usize> = (0..p).collect();

        for algo in 0..3 {
            let data = data.clone();
            let members = members.clone();
            let results = run_on_group(p, move |peer| {
                let mut x = data[peer.rank()].clone();
                match algo {
                    0 => ring_all_reduce(peer, &mut x, &members),
                    1 => tree_all_reduce(peer, &mut x, &members),
                    _ => torus_all_reduce(peer, &mut x, m, n),
                }
                x
            });
            for (r, x) in results.iter().enumerate() {
                prop_assert!(
                    ops::approx_eq(x, &expect, 1e-3),
                    "algo {algo} rank {r} diverged (m={m}, n={n}, d={d})"
                );
                prop_assert_eq!(x, &results[0], "algo {} not identical across ranks", algo);
            }
        }
    }

    /// HiTopKComm at full density equals the dense sum; at any density all
    /// ranks agree and per-shard nonzeros stay within m*k.
    #[test]
    fn hitopk_invariants(
        m in 1usize..4,
        n in 1usize..5,
        d in 8usize..150,
        rho in 0.05f64..1.0,
        seed in 0u64..1000,
    ) {
        let p = m * n;
        let data = per_rank_data(p, d, seed);
        let expect = sequential_sum(&data);
        let results = {
            let data = data.clone();
            run_on_group(p, move |peer| {
                let mut x = data[peer.rank()].clone();
                let mut c = SortTopK;
                let rep = hitopk_all_reduce(peer, &mut x, m, n, rho, &mut c);
                (x, rep)
            })
        };
        let k = shard_k(d, n, rho);
        for (x, rep) in &results {
            prop_assert_eq!(x, &results[0].0);
            prop_assert!(rep.shard_nonzeros <= m * k);
        }
        if rho == 1.0 {
            prop_assert!(ops::approx_eq(&results[0].0, &expect, 1e-3));
        }
        // (No norm bound is asserted: truncation can *raise* the norm of
        // the sum when a dropped small entry would have cancelled a kept
        // large one.)
    }

    /// merge + trim keeps indices sorted/unique and the dense equivalence
    /// merge(a, b).densify() == a.densify() + b.densify().
    #[test]
    fn merge_sparse_is_dense_addition(
        d in 4usize..100,
        ka in 1usize..20,
        kb in 1usize..20,
        seed in 0u64..1000,
    ) {
        let data = per_rank_data(2, d, seed);
        let a = cloudtrain_compress::exact::topk_sort(&data[0], ka.min(d));
        let b = cloudtrain_compress::exact::topk_sort(&data[1], kb.min(d));
        let m: SparseGrad = merge_sparse(&a, &b);
        // Sorted unique indices.
        prop_assert!(m.indices.windows(2).all(|w| w[0] < w[1]));
        // Dense equivalence.
        let mut expect = a.densify();
        ops::add_assign(&mut expect, &b.densify());
        prop_assert_eq!(m.densify(), expect);
        // Trim invariants.
        let t = trim_topk(&m, 5);
        prop_assert!(t.len() <= 5);
        prop_assert!(t.indices.windows(2).all(|w| w[0] < w[1]));
    }

    /// gTop-k returns identical k-sparse results on all ranks for any
    /// power-of-two group.
    #[test]
    fn gtopk_agreement(
        log_p in 1u32..4,
        d in 16usize..150,
        k in 1usize..12,
        seed in 0u64..1000,
    ) {
        let p = 1usize << log_p;
        let data = per_rank_data(p, d, seed);
        let results = run_on_group(p, move |peer| {
            let mut x = data[peer.rank()].clone();
            let mut ef = ErrorFeedback::new(d);
            let mut scratch = CommScratch::new();
            gtopk_all_reduce_ef(peer, &mut x, k, &mut SortTopK, &mut ef, &mut scratch);
            x
        });
        for x in &results {
            prop_assert_eq!(x, &results[0]);
            prop_assert!(x.iter().filter(|v| **v != 0.0).count() <= k);
        }
    }
}

/// The shrunk counterexample from `properties.proptest-regressions`,
/// promoted to a named always-run test so the fix can never silently
/// regress even if the seed file is pruned: at m = 2, n = 4, d = 14 the
/// per-shard k rounds small enough that an off-by-one in `shard_k` once
/// let `shard_nonzeros` exceed `m * k`.
#[test]
fn regression_hitopk_invariants_shrunk_case() {
    let (m, n, d, rho, seed) = (2usize, 4usize, 14usize, 0.5682980775287474f64, 174u64);
    let p = m * n;
    let data = per_rank_data(p, d, seed);
    let results = {
        let data = data.clone();
        run_on_group(p, move |peer| {
            let mut x = data[peer.rank()].clone();
            let mut c = SortTopK;
            let rep = hitopk_all_reduce(peer, &mut x, m, n, rho, &mut c);
            (x, rep)
        })
    };
    let k = shard_k(d, n, rho);
    for (x, rep) in &results {
        assert_eq!(x, &results[0].0, "ranks disagree");
        assert!(
            rep.shard_nonzeros <= m * k,
            "shard_nonzeros {} > m*k {}",
            rep.shard_nonzeros,
            m * k
        );
    }
}
