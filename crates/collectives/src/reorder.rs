//! Topology-aware rank reordering (Cloud Collectives, Luo et al.).
//!
//! On a public cloud the fabric under a job is opaque: VM placement decides
//! which node pairs share a rack switch and which cross an oversubscribed
//! spine, so the *default* rank order almost never matches the fastest
//! Hamiltonian cycle through the realized topology. This module closes that
//! gap deterministically:
//!
//! 1. a pairwise α–β cost model ([`PairCost`]) — filled from the
//!    performance plane's probe pass (`cloudtrain_simnet::probe_pairwise`)
//!    or built by hand,
//! 2. a seeded local-search optimizer ([`optimize_ring_order`]) minimizing
//!    the directed ring cost over node permutations.
//!
//! The performance plane prices a reordered schedule with
//! `cloudtrain_simnet::collectives::sim_torus_all_reduce_reordered` — the
//! one simulated 2D-torus body, run over the inter-node streams in the
//! given node order — which the `cloudtrain reorder` command and the tail
//! gauntlet's scrambled fabric use.
//! The correctness plane needs no reordered collective: a flat ring
//! ([`crate::ring::ring_all_reduce`]) visits its member list in the order
//! given, and the modelled clusters the trainer runs on have one uniform
//! inter-node link, on which the optimizer keeps the identity order.
//!
//! The optimizer is a pure function of `(cost, bytes, seed)`: greedy
//! position swaps to a local optimum from a handful of seeded restarts,
//! with the winner canonicalized to start at node 0 (ring cost is
//! rotation-invariant), so two runs over the same probe always emit the
//! same permutation — the property the CI determinism gate pins.

use crate::resilience::hash3;

/// Pairwise α–β cost model over the `m` nodes of a cluster (directed:
/// `src → dst` and `dst → src` are independent links).
#[derive(Debug, Clone, PartialEq)]
pub struct PairCost {
    nodes: usize,
    alpha: Vec<f64>,
    beta: Vec<f64>,
}

impl PairCost {
    /// A uniform fabric: every ordered pair costs `alpha + bytes·beta`.
    pub fn uniform(nodes: usize, alpha: f64, beta: f64) -> Self {
        assert!(nodes > 0, "PairCost: empty cluster");
        let mut c = Self {
            nodes,
            alpha: vec![alpha; nodes * nodes],
            beta: vec![beta; nodes * nodes],
        };
        for i in 0..nodes {
            c.alpha[i * nodes + i] = 0.0;
            c.beta[i * nodes + i] = 0.0;
        }
        c
    }

    /// Wraps probed row-major `m × m` α/β matrices (the layout
    /// `cloudtrain_simnet::ProbeEstimate` exposes).
    ///
    /// # Panics
    /// Panics if either matrix is not `nodes × nodes`.
    pub fn from_matrices(nodes: usize, alpha: Vec<f64>, beta: Vec<f64>) -> Self {
        assert!(nodes > 0, "PairCost: empty cluster");
        assert_eq!(alpha.len(), nodes * nodes, "alpha matrix is not m x m");
        assert_eq!(beta.len(), nodes * nodes, "beta matrix is not m x m");
        Self { nodes, alpha, beta }
    }

    /// Number of nodes.
    pub fn nodes(&self) -> usize {
        self.nodes
    }

    /// Overrides one directed link (builder for hand-made topologies).
    pub fn set_link(&mut self, src: usize, dst: usize, alpha: f64, beta: f64) {
        self.alpha[src * self.nodes + dst] = alpha;
        self.beta[src * self.nodes + dst] = beta;
    }

    /// Modelled seconds for `bytes` on the directed `src → dst` link.
    pub fn link_seconds(&self, src: usize, dst: usize, bytes: usize) -> f64 {
        self.alpha[src * self.nodes + dst] + bytes as f64 * self.beta[src * self.nodes + dst]
    }

    /// Directed ring cost of `order`: the sum of `link_seconds` over the
    /// cyclic consecutive pairs — what one `bytes`-sized ring step costs
    /// when every hop runs concurrently is the max, but the *sum* is the
    /// right objective for a pipelined ring where every link is traversed
    /// `P-1` times per phase.
    ///
    /// # Panics
    /// Panics unless `order` is a permutation of `0..nodes`.
    pub fn ring_cost(&self, order: &[usize], bytes: usize) -> f64 {
        assert_valid_order(order, self.nodes);
        let m = order.len();
        if m < 2 {
            return 0.0;
        }
        (0..m)
            .map(|i| self.link_seconds(order[i], order[(i + 1) % m], bytes))
            .sum()
    }
}

/// Asserts `node_order` is a permutation of `0..nodes`.
///
/// # Panics
/// Panics on wrong length or repeated/out-of-range entries.
fn assert_valid_order(node_order: &[usize], nodes: usize) {
    assert_eq!(node_order.len(), nodes, "node order has wrong length");
    let mut seen = vec![false; nodes];
    for &i in node_order {
        assert!(
            i < nodes && !seen[i],
            "node order {node_order:?} is not a permutation of 0..{nodes}"
        );
        seen[i] = true;
    }
}

/// Rotates `order` so node 0 is first (ring cost is rotation-invariant,
/// so this is the canonical representative the determinism gate compares).
fn canonicalize(mut order: Vec<usize>) -> Vec<usize> {
    #[expect(
        clippy::expect_used,
        reason = "assert_valid_order guarantees node 0 is present"
    )]
    let z = order.iter().position(|&i| i == 0).expect("0 not in order");
    order.rotate_left(z);
    order
}

/// Greedy position-swap descent to a local optimum of the ring cost.
fn improve(order: &mut [usize], cost: &PairCost, bytes: usize) {
    let m = order.len();
    let mut best = cost.ring_cost(order, bytes);
    loop {
        let mut improved = false;
        for i in 0..m {
            for j in i + 1..m {
                order.swap(i, j);
                let c = cost.ring_cost(order, bytes);
                if c + 1e-15 < best {
                    best = c;
                    improved = true;
                } else {
                    order.swap(i, j);
                }
            }
        }
        if !improved {
            return;
        }
    }
}

/// Deterministic seeded optimizer: minimizes the directed ring cost over
/// node permutations via greedy swap descent from the identity plus a
/// handful of seeded restarts, returning the canonicalized winner (rotated
/// to start at node 0).
///
/// Pure in `(cost, bytes, seed)` — two runs over the same probe produce the
/// identical permutation. A restart only replaces the incumbent on a
/// *strictly* better cost, so a uniform fabric always yields the identity.
pub fn optimize_ring_order(cost: &PairCost, bytes: usize, seed: u64) -> Vec<usize> {
    let m = cost.nodes();
    let mut best: Vec<usize> = (0..m).collect();
    if m <= 2 {
        return best;
    }
    improve(&mut best, cost, bytes);
    let mut best_cost = cost.ring_cost(&best, bytes);
    let restarts = m.max(4);
    for r in 1..restarts as u64 {
        let mut cand: Vec<usize> = (0..m).collect();
        // Seeded shuffle: order nodes by a hash of (seed, restart, node).
        cand.sort_by_key(|&i| hash3(seed, r, i as u64));
        improve(&mut cand, cost, bytes);
        let c = cost.ring_cost(&cand, bytes);
        if c + 1e-15 < best_cost {
            best = cand;
            best_cost = c;
        }
    }
    canonicalize(best)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::group::{run_on_group, Peer};
    use crate::ring::{ring_all_gather, ring_all_reduce, ring_reduce_scatter};
    use crate::torus::{grid_pos, intra_node_members, torus_all_reduce};
    use cloudtrain_tensor::init;
    use cloudtrain_tensor::ops;

    fn vec_for(rank: usize, d: usize) -> Vec<f32> {
        let mut rng = init::rng_from_seed(9000 + rank as u64);
        init::gradient_like_tensor(d, &mut rng).into_vec()
    }

    fn expected_sum(p: usize, d: usize) -> Vec<f32> {
        let mut acc = vec![0.0; d];
        for r in 0..p {
            ops::add_assign(&mut acc, &vec_for(r, d));
        }
        acc
    }

    #[test]
    fn ring_cost_matches_hand_computation() {
        let mut c = PairCost::uniform(3, 1.0, 0.5);
        c.set_link(0, 1, 2.0, 1.0);
        // order 0->1->2->0 with 4 bytes: (2+4) + (1+2) + (1+2) = 12
        assert_eq!(c.ring_cost(&[0, 1, 2], 4), 12.0);
        // order 0->2->1->0 avoids the expensive 0->1 link: 3*(1+2) = 9
        assert_eq!(c.ring_cost(&[0, 2, 1], 4), 9.0);
        assert_eq!(c.link_seconds(0, 1, 4), 6.0);
        assert_eq!(c.link_seconds(0, 0, 4), 0.0);
    }

    #[test]
    fn uniform_fabric_keeps_the_identity_order() {
        let c = PairCost::uniform(6, 5e-5, 4e-10);
        assert_eq!(optimize_ring_order(&c, 1 << 20, 7), vec![0, 1, 2, 3, 4, 5]);
    }

    #[test]
    fn optimizer_routes_around_a_slow_pair() {
        // Links 0<->1 are 10x slower in both directions: the optimal ring
        // must not place 0 and 1 adjacently.
        let mut c = PairCost::uniform(4, 5e-5, 4e-10);
        c.set_link(0, 1, 5e-4, 4e-9);
        c.set_link(1, 0, 5e-4, 4e-9);
        let order = optimize_ring_order(&c, 1 << 20, 3);
        let identity: Vec<usize> = (0..4).collect();
        assert!(
            c.ring_cost(&order, 1 << 20) < c.ring_cost(&identity, 1 << 20),
            "optimizer should beat the identity on a hostile fabric"
        );
        let m = order.len();
        for i in 0..m {
            let (a, b) = (order[i], order[(i + 1) % m]);
            assert!(
                !(a == 0 && b == 1 || a == 1 && b == 0),
                "slow pair left adjacent in {order:?}"
            );
        }
    }

    #[test]
    fn optimizer_is_deterministic_and_canonical() {
        let mut c = PairCost::uniform(5, 5e-5, 4e-10);
        c.set_link(2, 3, 1e-3, 4e-9);
        c.set_link(3, 2, 1e-3, 4e-9);
        let a = optimize_ring_order(&c, 1 << 18, 42);
        let b = optimize_ring_order(&c, 1 << 18, 42);
        assert_eq!(a, b);
        assert_eq!(a[0], 0, "canonical order starts at node 0");
    }

    #[test]
    #[should_panic(expected = "not a permutation")]
    fn ring_cost_rejects_non_permutations() {
        PairCost::uniform(3, 1.0, 1.0).ring_cost(&[0, 0, 1], 8);
    }

    #[test]
    fn reordered_ring_still_sums_under_a_permutation() {
        // The ring visits its member list in the order given, so a
        // permuted list is the reordered ring.
        let (p, d) = (4usize, 37usize);
        let permuted = vec![2usize, 0, 3, 1];
        let expect = expected_sum(p, d);
        let results = run_on_group(p, |peer| {
            let mut x = vec_for(peer.rank(), d);
            ring_all_reduce(peer, &mut x, &permuted);
            x
        });
        for (r, x) in results.iter().enumerate() {
            assert!(ops::approx_eq(x, &expect, 1e-4), "rank {r} diverged");
            assert_eq!(*x, results[0], "rank {r} broke replica agreement");
        }
    }

    /// 2D-Torus AllReduce with the inter-node rings visiting nodes in
    /// `node_order`: the torus schedule recomposed from the ring
    /// primitives, its phase-2 ring over a permuted member list.
    fn torus_over(peer: &Peer, x: &mut [f32], m: usize, n: usize, node_order: &[usize]) {
        let pos = grid_pos(peer.rank(), m, n);
        let intra = intra_node_members(pos.node, n);
        let inter: Vec<usize> = node_order.iter().map(|&i| i * n + pos.gpu).collect();
        let shard = ring_reduce_scatter(peer, x, &intra);
        ring_all_reduce(peer, shard.slice_mut(x), &inter);
        ring_all_gather(peer, x, &intra);
    }

    #[test]
    fn reordered_torus_identity_is_bitwise_identical() {
        let (m, n, d) = (4usize, 2usize, 100usize);
        let identity: Vec<usize> = (0..m).collect();
        let plain = run_on_group(m * n, |peer| {
            let mut x = vec_for(peer.rank(), d);
            torus_all_reduce(peer, &mut x, m, n);
            x
        });
        let reordered = run_on_group(m * n, |peer| {
            let mut x = vec_for(peer.rank(), d);
            torus_over(peer, &mut x, m, n, &identity);
            x
        });
        assert_eq!(plain, reordered);
    }

    #[test]
    fn reordered_torus_still_sums_under_a_permutation() {
        let (m, n, d) = (4usize, 2usize, 100usize);
        let order = [1usize, 3, 0, 2];
        let expect = expected_sum(m * n, d);
        let results = run_on_group(m * n, |peer| {
            let mut x = vec_for(peer.rank(), d);
            torus_over(peer, &mut x, m, n, &order);
            x
        });
        for (r, x) in results.iter().enumerate() {
            assert!(ops::approx_eq(x, &expect, 1e-4), "rank {r} diverged");
            assert_eq!(*x, results[0], "rank {r} broke replica agreement");
        }
    }
}
