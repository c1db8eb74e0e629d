//! Property-based tests for the network simulator: physical sanity must
//! hold for arbitrary cluster shapes and message sizes.

use cloudtrain_simnet::collectives::{
    sim_hitopk, sim_ring_all_reduce, sim_torus_all_reduce, sim_tree_all_reduce_hier,
};
use cloudtrain_simnet::{clouds, ClusterSpec, LinkSpec, NetSim};
use proptest::prelude::*;

fn cluster(m: usize, n: usize) -> ClusterSpec {
    ClusterSpec {
        nodes: m,
        gpus_per_node: n,
        ..clouds::tencent(m)
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Simulated time is monotone in message size for every collective.
    #[test]
    fn collective_time_is_monotone_in_size(
        m in 1usize..8,
        n in 1usize..8,
        bytes in 1024usize..(1 << 22),
    ) {
        let spec = cluster(m, n);
        let bigger = bytes * 2;
        let time = |b: usize, which: u8| {
            let mut sim = NetSim::new(spec);
            match which {
                0 => sim_tree_all_reduce_hier(&mut sim, &spec, b).total,
                1 => sim_torus_all_reduce(&mut sim, &spec, b).total,
                _ => {
                    let members: Vec<usize> = (0..spec.world()).collect();
                    sim_ring_all_reduce(&mut sim, &[members], b);
                    sim.makespan()
                }
            }
        };
        for which in 0..3u8 {
            let t1 = time(bytes, which);
            let t2 = time(bigger, which);
            prop_assert!(t2 >= t1, "which={which}: {t2} < {t1}");
            prop_assert!(t1 >= 0.0);
        }
    }

    /// A transfer can never beat the line rate: makespan of any dense
    /// AllReduce is at least the time to push the algorithm's minimum
    /// bytes (V * (P-1)/P per port) through the slowest link.
    #[test]
    fn allreduce_respects_bandwidth_lower_bound(
        m in 2usize..8,
        n in 1usize..8,
        kib in 64usize..4096,
    ) {
        let spec = cluster(m, n);
        let bytes = kib << 10;
        let members: Vec<usize> = (0..spec.world()).collect();
        let mut sim = NetSim::new(spec);
        sim_ring_all_reduce(&mut sim, &[members], bytes);
        let t = sim.makespan();
        // Each node's NIC must at least carry its shard contributions once
        // in and once out: >= bytes/P * (cross-boundary rounds ~ 2(P-1)/P).
        let p = spec.world();
        let min_bytes = (bytes as f64) * ((p - 1) as f64) / (p as f64);
        let bound = min_bytes * spec.inter.beta;
        prop_assert!(
            t >= bound * 0.99,
            "makespan {t} below physical bound {bound} (m={m}, n={n})"
        );
    }

    /// HiTopKComm phases are non-negative and sum to the total; the inter
    /// phase is monotone in density.
    #[test]
    fn hitopk_phase_accounting(
        m in 2usize..8,
        n in 1usize..8,
        d in 10_000usize..2_000_000,
        rho in 0.001f64..0.2,
    ) {
        let spec = cluster(m, n);
        let mut sim = NetSim::new(spec);
        let t = sim_hitopk(&mut sim, &spec, d, 4, rho, 1e-4);
        prop_assert_eq!(t.phases.len(), 4);
        let sum: f64 = t.phases.iter().map(|p| p.seconds).sum();
        prop_assert!((t.total - sum).abs() < 1e-9);
        for ph in &t.phases {
            prop_assert!(ph.seconds >= 0.0, "{} negative", ph.label);
        }
        sim.reset();
        let t2 = sim_hitopk(&mut sim, &spec, d, 4, (rho * 2.0).min(1.0), 1e-4);
        let inter = |t: &cloudtrain_simnet::collectives::CollectiveTiming| {
            t.phases.iter().find(|p| p.label == "inter all-gather").unwrap().seconds
        };
        prop_assert!(inter(&t2) >= inter(&t) * 0.99);
    }

    /// NIC serialisation: k concurrent cross-node transfers from one node
    /// take at least k times the bytes over the line rate.
    #[test]
    fn nic_serialises_proportionally(
        k in 1usize..8,
        kib in 16usize..1024,
    ) {
        let spec = cluster(2, 8);
        let mut sim = NetSim::new(spec);
        let bytes = kib << 10;
        let transfers: Vec<(usize, usize, usize)> =
            (0..k).map(|j| (j, 8 + j, bytes)).collect();
        let end = sim.round(&transfers);
        let expect = k as f64 * bytes as f64 * spec.inter.beta + spec.inter.alpha;
        prop_assert!((end - expect).abs() < 1e-9, "end {end} expect {expect}");
    }

    /// LinkSpec algebra: transfer time is affine in bytes.
    #[test]
    fn link_transfer_time_is_affine(
        alpha in 0.0f64..1e-3,
        bw in 1e6f64..1e12,
        a in 0usize..(1 << 20),
        b in 0usize..(1 << 20),
    ) {
        let l = LinkSpec::from_bandwidth(alpha, bw);
        let ta = l.transfer_time(a);
        let tb = l.transfer_time(b);
        let tab = l.transfer_time(a + b);
        prop_assert!((tab - (ta + tb - alpha)).abs() < 1e-9);
    }
}
