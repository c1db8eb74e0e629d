//! Topology probing: pairwise α/β estimation over the virtual clock.
//!
//! Public-cloud VMs see a fabric they cannot introspect: placement decides
//! which node pairs share a rack switch, which cross an oversubscribed
//! spine, and which sit behind a noisy neighbour's NIC. *Cloud Collectives*
//! (Luo et al.) shows that probing the realized pairwise performance and
//! reordering ranks to match it recovers a large fraction of the bandwidth
//! a placement-oblivious ring leaves on the table.
//!
//! [`probe_pairwise`] is that probing pass, run entirely inside the
//! simulator: for every ordered node pair it replays a two-point
//! measurement (a small and a large transfer between the pair's leader
//! GPUs on a *fresh* [`NetSim`]) and solves the α–β model from the two
//! virtual completion times:
//!
//! ```text
//! β = (t₂ − t₁) / (b₂ − b₁)        α = t₁ − b₁·β
//! ```
//!
//! Everything is derived from the simulator's virtual clock — no wall time
//! anywhere (the `clippy.toml` wall-clock ban holds for this module like every
//! other library path) — and every fault decision inside the probe is a
//! pure function of the injected [`FaultPlan`] seed, so two probes of the
//! same `(spec, plan)` are bitwise identical. Degradation windows active at
//! virtual time zero are observed as inflated β, latency spikes and drop
//! ladders as inflated α: the estimate reflects the *hostile* fabric, which
//! is exactly what the reordering optimizer needs to route around.

use crate::faults::{FaultPlan, SimResilience};
use crate::netsim::NetSim;
use crate::topology::ClusterSpec;

/// Payload of the small probe transfer (latency-dominated point).
pub const PROBE_SMALL_BYTES: usize = 4 * 1024;
/// Payload of the large probe transfer (bandwidth-dominated point).
pub const PROBE_LARGE_BYTES: usize = 1 << 20;

/// Pairwise α/β estimate over the `m` nodes of a cluster.
///
/// Row-major `m × m` matrices; the diagonal is zero (a node does not probe
/// itself).
#[derive(Debug, Clone, PartialEq)]
pub struct ProbeEstimate {
    nodes: usize,
    alpha: Vec<f64>,
    beta: Vec<f64>,
}

impl ProbeEstimate {
    /// Number of nodes probed.
    pub fn nodes(&self) -> usize {
        self.nodes
    }

    /// Estimated per-message latency of the `src → dst` link, seconds.
    pub fn alpha(&self, src: usize, dst: usize) -> f64 {
        self.alpha[src * self.nodes + dst]
    }

    /// Estimated per-byte transfer time of the `src → dst` link, seconds.
    pub fn beta(&self, src: usize, dst: usize) -> f64 {
        self.beta[src * self.nodes + dst]
    }

    /// The full α matrix, row-major.
    pub fn alpha_matrix(&self) -> &[f64] {
        &self.alpha
    }

    /// The full β matrix, row-major.
    pub fn beta_matrix(&self) -> &[f64] {
        &self.beta
    }

    /// Estimated time for `bytes` over the `src → dst` link.
    pub fn pair_seconds(&self, src: usize, dst: usize, bytes: usize) -> f64 {
        self.alpha(src, dst) + bytes as f64 * self.beta(src, dst)
    }

    /// Worst off-diagonal `(α, β)` over all ordered pairs — the link a
    /// deadline budget must be sized against.
    pub fn worst_link(&self) -> (f64, f64) {
        let m = self.nodes;
        let mut worst = (0.0f64, 0.0f64);
        for src in 0..m {
            for dst in 0..m {
                if src != dst {
                    worst.0 = worst.0.max(self.alpha(src, dst));
                    worst.1 = worst.1.max(self.beta(src, dst));
                }
            }
        }
        worst
    }

    /// Best (minimum) off-diagonal β — the clean-link baseline a straggler
    /// multiplier scales from.
    pub fn best_beta(&self) -> f64 {
        let m = self.nodes;
        let mut best = f64::INFINITY;
        for src in 0..m {
            for dst in 0..m {
                if src != dst {
                    best = best.min(self.beta(src, dst));
                }
            }
        }
        if best.is_finite() {
            best
        } else {
            0.0
        }
    }
}

/// Times one leader-to-leader transfer on a fresh simulator so probe
/// traffic never contends with itself across pairs.
fn probe_once(spec: &ClusterSpec, plan: &FaultPlan, src: usize, dst: usize, bytes: usize) -> f64 {
    let mut sim = NetSim::new(*spec);
    sim.inject_faults(plan.clone(), SimResilience::default());
    let n = spec.gpus_per_node;
    sim.transfer(src * n, dst * n, bytes)
}

/// Probes every ordered node pair of `spec` under `plan` and returns the
/// recovered α/β matrices.
///
/// Each pair is measured with two transfers of [`PROBE_SMALL_BYTES`] and
/// [`PROBE_LARGE_BYTES`] on fresh simulators (the retry policy is the
/// default reliable ladder, so dropped probes inflate α instead of
/// vanishing). Deterministic: pure in `(spec, plan)`.
///
/// # Panics
/// Panics if the cluster has no nodes.
pub fn probe_pairwise(spec: &ClusterSpec, plan: &FaultPlan) -> ProbeEstimate {
    assert!(spec.nodes > 0, "probe_pairwise: empty cluster");
    let m = spec.nodes;
    let mut alpha = vec![0.0f64; m * m];
    let mut beta = vec![0.0f64; m * m];
    let (b1, b2) = (PROBE_SMALL_BYTES as f64, PROBE_LARGE_BYTES as f64);
    for src in 0..m {
        for dst in 0..m {
            if src == dst {
                continue;
            }
            let t1 = probe_once(spec, plan, src, dst, PROBE_SMALL_BYTES);
            let t2 = probe_once(spec, plan, src, dst, PROBE_LARGE_BYTES);
            let b = ((t2 - t1) / (b2 - b1)).max(0.0);
            let a = (t1 - b1 * b).max(0.0);
            alpha[src * m + dst] = a;
            beta[src * m + dst] = b;
        }
    }
    ProbeEstimate {
        nodes: m,
        alpha,
        beta,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::clouds;

    #[test]
    fn clean_probe_recovers_the_spec_link() {
        let spec = clouds::tencent(4);
        let est = probe_pairwise(&spec, &FaultPlan::new(1));
        for src in 0..4 {
            for dst in 0..4 {
                if src == dst {
                    assert_eq!(est.alpha(src, dst), 0.0);
                    assert_eq!(est.beta(src, dst), 0.0);
                    continue;
                }
                assert!(
                    (est.alpha(src, dst) - spec.inter.alpha).abs() < 1e-12,
                    "alpha {} vs {}",
                    est.alpha(src, dst),
                    spec.inter.alpha
                );
                assert!(
                    (est.beta(src, dst) - spec.inter.beta).abs() < 1e-18,
                    "beta {} vs {}",
                    est.beta(src, dst),
                    spec.inter.beta
                );
            }
        }
        let (wa, wb) = est.worst_link();
        assert!((wa - spec.inter.alpha).abs() < 1e-12);
        assert!((wb - spec.inter.beta).abs() < 1e-18);
        assert!((est.best_beta() - spec.inter.beta).abs() < 1e-18);
    }

    #[test]
    fn degraded_node_shows_up_as_inflated_beta() {
        let spec = clouds::tencent(4);
        // Node 2's NIC at one third line rate during the probe window.
        let plan = FaultPlan::new(7).degrade_link(2, 3.0, 0.0, f64::INFINITY);
        let est = probe_pairwise(&spec, &plan);
        // Every pair touching node 2 is ~3x slower; the rest are clean.
        for src in 0..4 {
            for dst in 0..4 {
                if src == dst {
                    continue;
                }
                let expect = if src == 2 || dst == 2 { 3.0 } else { 1.0 };
                let ratio = est.beta(src, dst) / spec.inter.beta;
                assert!(
                    (ratio - expect).abs() < 1e-6,
                    "{src}->{dst}: ratio {ratio} expect {expect}"
                );
            }
        }
    }

    #[test]
    fn spikes_inflate_alpha_not_beta() {
        let spec = clouds::tencent(2);
        let plan = FaultPlan::new(3).with_spikes(1.0, 0.01);
        let est = probe_pairwise(&spec, &plan);
        assert!(est.alpha(0, 1) > spec.inter.alpha + 0.009);
        assert!((est.beta(0, 1) - spec.inter.beta).abs() < 1e-15);
    }

    #[test]
    fn probe_is_deterministic() {
        let spec = clouds::tencent(3);
        let plan = FaultPlan::new(42).with_drops(0.3).with_spikes(0.2, 1e-3);
        let a = probe_pairwise(&spec, &plan);
        let b = probe_pairwise(&spec, &plan);
        assert_eq!(a, b);
    }

    #[test]
    fn pair_seconds_applies_the_model() {
        let spec = clouds::tencent(2);
        let est = probe_pairwise(&spec, &FaultPlan::new(1));
        let t = est.pair_seconds(0, 1, 1 << 20);
        assert!((t - spec.inter.transfer_time(1 << 20)).abs() < 1e-9);
    }
}
