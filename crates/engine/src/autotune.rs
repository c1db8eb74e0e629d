//! Per-layer communication autotuner: picks the aggregation scheme for
//! every layer from its size, the target density, and the probed α–β
//! topology, extending [`crate::fusion`]'s wait-free-backprop cost model
//! from "how big are the buckets" to "which collective family moves each
//! bucket".
//!
//! Three schemes compete per layer (DESIGN.md §13):
//!
//! * **Dense 2D-torus** — no compression cost, but the full FP32 payload
//!   crosses the inter-node NIC. Wins on tiny layers where the top-k
//!   selection's kernel passes cost more than the bytes they save.
//! * **HiTopKComm** — top-k per shard, then two inter-node AllGathers
//!   (values, indices): `2(m−1)` messages of `8k̃` bytes total.
//! * **O(k) sparse allreduce** — balanced index partitioning plus
//!   split-and-merge (Li & Hoefler 2022,
//!   `cloudtrain_collectives::sparse_allreduce`). Its merge phase moves
//!   `8·merged·(m−1)` bytes where `merged` shrinks as the per-node
//!   selections overlap, so the model carries an explicit **overlap**
//!   parameter ω: at ω→1 (error-feedback steady state, shared heavy
//!   coordinates) total traffic is `≈16k̃` independent of `m` and O(k)
//!   beats HiTopKComm from `m ≥ 3`; at ω→0 the merged lists grow like
//!   `m·k̃` and HiTopKComm keeps the crown. The crossover condition is
//!   `ω > 1/(m−1)` before α terms (see [`Crossovers::oksparse_min_overlap`]).
//!
//! The report composes back into the α–β [`WfbpModel`] recurrence:
//! [`AutotuneReport::iteration_time`] prices the autotuned schedule with
//! the same one-network-stream model `fusion::plan_buckets_cost_model`
//! uses, so "autotuned" and "hand-picked" plans are comparable numbers.

use crate::fusion::{WfbpModel, WfbpTiming, BACKWARD_SECONDS_PER_PARAM};
use cloudtrain_compress::gpu_cost::{mstopk_cost, GpuRates};
use cloudtrain_dnn::model::ParamRange;
use cloudtrain_obs::Registry;
use cloudtrain_simnet::ClusterSpec;
use serde::{Deserialize, Serialize};

/// The collective families the tuner chooses between, in deterministic
/// tie-break order (earlier wins on exactly equal cost).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum CommScheme {
    /// Dense FP32 2D-torus AllReduce (no compression).
    DenseTorus,
    /// HiTopKComm with staged inter-node gathers (values, then indices).
    HiTopKStaged,
    /// O(k) sparse allreduce (split-and-merge index partitioning).
    OkSparse,
}

/// All schemes, in the tie-break order the planner scans them.
pub const SCHEMES: [CommScheme; 3] = [
    CommScheme::DenseTorus,
    CommScheme::HiTopKStaged,
    CommScheme::OkSparse,
];

impl CommScheme {
    /// Short label used in tables and JSON snapshots.
    pub fn label(&self) -> &'static str {
        match self {
            CommScheme::DenseTorus => "dense-torus",
            CommScheme::HiTopKStaged => "hitopk-staged",
            CommScheme::OkSparse => "oksparse",
        }
    }
}

/// Tunables of the sparse schemes (the knobs the paper sweeps).
#[derive(Debug, Clone, Copy, Serialize, Deserialize)]
pub struct AutotuneConfig {
    /// Density ρ (fraction of coordinates each shard transmits).
    pub rho: f64,
    /// Selection-overlap fraction ω ∈ [0, 1]: how much of one node's
    /// top-k index set the other nodes also select. Error-feedback
    /// steady state on real gradients sits high (shared heavy
    /// coordinates); adversarially disjoint selections sit at 0.
    pub overlap: f64,
    /// MSTopK threshold-search iterations (`N`, paper uses 30).
    pub samplings: usize,
}

impl Default for AutotuneConfig {
    fn default() -> Self {
        Self {
            rho: 0.01,
            overlap: 0.75,
            samplings: 30,
        }
    }
}

/// The probed machine the tuner prices against: an α–β cluster plus GPU
/// kernel rates.
#[derive(Debug, Clone, Copy)]
pub struct CommModel {
    /// Two-level cluster (probed or preset α/β per link class).
    pub cluster: ClusterSpec,
    /// GPU kernel cost rates for the top-k selection passes.
    pub gpu: GpuRates,
}

impl CommModel {
    /// A model over the given cluster with default GPU rates.
    pub fn new(cluster: ClusterSpec) -> Self {
        Self {
            cluster,
            gpu: GpuRates::default(),
        }
    }

    /// Per-shard top-k elements for a `d`-parameter layer at density ρ
    /// (`k̃ = ρ·d/n`, Eq. 5; at least 1).
    pub fn k_per_shard(&self, d: usize, rho: f64) -> usize {
        let n = self.cluster.gpus_per_node;
        (((d as f64) * rho / n as f64) as usize).max(1)
    }

    /// Intra-node cost common to every scheme: ring ReduceScatter plus
    /// ring AllGather of the dense FP32 layer over the node's `n` GPUs.
    fn intra_seconds(&self, d: usize) -> f64 {
        let n = self.cluster.gpus_per_node;
        if n <= 1 {
            return 0.0;
        }
        let hop = self.cluster.intra.alpha + (4.0 * d as f64 / n as f64) * self.cluster.intra.beta;
        2.0 * (n - 1) as f64 * hop
    }

    /// Expected distinct nonzeros in one owner range after merging `m`
    /// node selections of `k̃` entries with overlap ω: each contributes
    /// `k̃/m` to the range; ω of the foreign mass lands on already-owned
    /// coordinates.
    fn merged_entries(&self, k: usize, overlap: f64) -> f64 {
        let m = self.cluster.nodes as f64;
        (k as f64 / m) * (1.0 + (1.0 - overlap) * (m - 1.0))
    }

    /// Predicted inter-node bytes one GPU sends for a `d`-parameter layer
    /// under `scheme` (the quantity `HiTopKReport::inter_bytes_sent`
    /// measures, under either step (iii)).
    pub fn inter_bytes(&self, scheme: CommScheme, d: usize, cfg: &AutotuneConfig) -> f64 {
        let m = self.cluster.nodes as f64;
        let n = self.cluster.gpus_per_node as f64;
        if m <= 1.0 {
            return 0.0;
        }
        let k = self.k_per_shard(d, cfg.rho) as f64;
        match scheme {
            // Ring AllReduce on the intra shard: 2(m−1) hops of d/(n·m)
            // FP32 elements.
            CommScheme::DenseTorus => 2.0 * (m - 1.0) * (4.0 * d as f64 / (n * m)),
            // 8 bytes per selected (index, value) pair, replicated to the
            // other m−1 node-group members.
            CommScheme::HiTopKStaged => 8.0 * k * (m - 1.0),
            // Split phase ships the k̃(1−1/m) foreign entries once; the
            // merge AllGather replicates the owner range's merged list.
            CommScheme::OkSparse => {
                8.0 * k * (1.0 - 1.0 / m)
                    + 8.0 * self.merged_entries(k as usize, cfg.overlap) * (m - 1.0)
            }
        }
    }

    /// Predicted seconds to aggregate one `d`-parameter layer under
    /// `scheme`: intra phases + compression + inter messages, α–β priced.
    pub fn layer_seconds(&self, scheme: CommScheme, d: usize, cfg: &AutotuneConfig) -> f64 {
        let m = self.cluster.nodes as f64;
        let n = self.cluster.gpus_per_node;
        let intra = self.intra_seconds(d);
        if m <= 1.0 {
            return intra;
        }
        let alpha = self.cluster.inter.alpha;
        let beta = self.cluster.inter.beta;
        let bytes = self.inter_bytes(scheme, d, cfg);
        let shard = d.div_ceil(n);
        let k = self.k_per_shard(d, cfg.rho);
        let topk = || mstopk_cost(shard, k, cfg.samplings, &self.gpu).seconds;
        match scheme {
            CommScheme::DenseTorus => intra + 2.0 * (m - 1.0) * alpha + bytes * beta,
            CommScheme::HiTopKStaged => intra + topk() + 2.0 * (m - 1.0) * alpha + bytes * beta,
            CommScheme::OkSparse => {
                // Split to m−1 owners, then the merge AllGather's m−1
                // pipeline hops: 2(m−1) messages total.
                intra + topk() + 2.0 * (m - 1.0) * alpha + bytes * beta
            }
        }
    }
}

/// The tuner's verdict for one layer.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct LayerPlan {
    /// Index into the backward-ordered layer list.
    pub layer: usize,
    /// Layer parameters.
    pub params: usize,
    /// Winning scheme.
    pub choice: CommScheme,
    /// Predicted seconds per scheme, in [`SCHEMES`] order.
    pub predicted_seconds: [f64; SCHEMES.len()],
}

/// Model-predicted crossover points for the probed topology — the
/// boundaries of each scheme's winning region.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Crossovers {
    /// Smallest layer size (params) where the best sparse scheme beats
    /// dense-torus, or `None` if dense wins everywhere scanned.
    pub sparse_min_params: Option<usize>,
    /// Smallest overlap ω (on a 1/64 grid) where O(k) inter bytes drop
    /// below HiTopKComm's for this node count, or `None` when `m < 3`
    /// (O(k)'s extra split never amortizes on 2 nodes).
    pub oksparse_min_overlap: Option<f64>,
}

/// The full autotuning outcome for one model on one probed topology.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct AutotuneReport {
    /// Per-layer verdicts, in backward order.
    pub layers: Vec<LayerPlan>,
    /// Summed predicted seconds per scheme had it been forced on every
    /// layer, in [`SCHEMES`] order.
    pub forced_totals: [f64; SCHEMES.len()],
    /// Summed predicted seconds of the per-layer argmin schedule.
    pub autotuned_total: f64,
    /// Winning-region boundaries for this topology.
    pub crossovers: Crossovers,
    /// The config the tuner priced.
    pub config: AutotuneConfig,
}

impl AutotuneReport {
    /// Per-layer verdict counts, in [`SCHEMES`] order.
    pub fn counts(&self) -> [usize; SCHEMES.len()] {
        let mut counts = [0usize; SCHEMES.len()];
        for p in &self.layers {
            for (slot, s) in SCHEMES.iter().enumerate() {
                if p.choice == *s {
                    counts[slot] += 1;
                }
            }
        }
        counts
    }

    /// The scheme that wins when one global choice must cover every layer
    /// (what a single `Strategy` knob can express): argmin of
    /// [`Self::forced_totals`], first on ties.
    pub fn global_choice(&self) -> CommScheme {
        let mut best = 0;
        for i in 1..SCHEMES.len() {
            if self.forced_totals[i] < self.forced_totals[best] {
                best = i;
            }
        }
        SCHEMES[best]
    }

    /// Prices the autotuned schedule through the [`WfbpModel`] recurrence
    /// (bucket `b` starts at `max(gradients ready, network free)`), with
    /// each layer charged its chosen scheme's predicted seconds.
    pub fn iteration_time(&self, model: &WfbpModel) -> WfbpTiming {
        assert_eq!(
            model.layer_backward_seconds.len(),
            self.layers.len(),
            "iteration_time: model/plan layer count mismatch"
        );
        let backward: f64 = model.layer_backward_seconds.iter().sum();
        let mut ready = 0.0f64;
        let mut net_free = 0.0f64;
        for (plan, bw) in self.layers.iter().zip(&model.layer_backward_seconds) {
            ready += bw;
            let slot = SCHEMES
                .iter()
                .position(|s| *s == plan.choice)
                .unwrap_or_default();
            let start = ready.max(net_free);
            net_free = start + plan.predicted_seconds[slot];
        }
        let total = net_free.max(backward);
        WfbpTiming {
            backward,
            total,
            exposed_comm: total - backward,
            collectives: self.layers.len(),
        }
    }

    /// Publishes the verdict counts and totals as gauges
    /// (`autotune/<scheme>`, `autotune/total_seconds`).
    pub fn publish(&self, reg: &mut Registry) {
        for (slot, s) in SCHEMES.iter().enumerate() {
            reg.gauge_set(
                &format!("autotune/{}", s.label()),
                self.counts()[slot] as f64,
            );
        }
        reg.gauge_set("autotune/total_seconds", self.autotuned_total);
    }
}

/// Scans layer sizes from 1 to `max_params` (powers of two) and returns
/// the crossover boundaries for this model and config.
fn find_crossovers(model: &CommModel, cfg: &AutotuneConfig, max_params: usize) -> Crossovers {
    let n = model.cluster.gpus_per_node;
    let mut sparse_min_params = None;
    let mut d = 1usize;
    while d <= max_params.max(1) {
        let dense = model.layer_seconds(CommScheme::DenseTorus, d, cfg);
        let staged = model.layer_seconds(CommScheme::HiTopKStaged, d, cfg);
        let oksparse = model.layer_seconds(CommScheme::OkSparse, d, cfg);
        if sparse_min_params.is_none() && staged.min(oksparse) < dense {
            sparse_min_params = Some(d);
        }
        d = d.saturating_mul(2);
    }
    let oksparse_min_overlap = (model.cluster.nodes >= 3).then(|| {
        let probe = AutotuneConfig { ..*cfg };
        // 1/64 grid: first ω where O(k) moves fewer inter bytes than
        // HiTopKComm on a reference fat layer.
        let d_ref = max_params.max(64 * n);
        (0..=64)
            .map(|i| i as f64 / 64.0)
            .find(|&omega| {
                let c = AutotuneConfig {
                    overlap: omega,
                    ..probe
                };
                model.inter_bytes(CommScheme::OkSparse, d_ref, &c)
                    < model.inter_bytes(CommScheme::HiTopKStaged, d_ref, &c)
            })
            .unwrap_or(1.0)
    });
    Crossovers {
        sparse_min_params,
        oksparse_min_overlap,
    }
}

/// Runs the tuner over a model's layers (forward-ordered ranges, as
/// [`cloudtrain_dnn::model::Model::layer_ranges`] returns them) on the
/// given probed topology. Deterministic: same inputs → same report.
pub fn autotune_layers(
    ranges: &[ParamRange],
    model: &CommModel,
    cfg: &AutotuneConfig,
) -> AutotuneReport {
    let mut layers = Vec::with_capacity(ranges.len());
    let mut forced_totals = [0.0f64; SCHEMES.len()];
    let mut autotuned_total = 0.0;
    // Backward order: the model's last layer finishes (and aggregates)
    // first, matching WfbpModel's layer convention.
    for (i, r) in ranges.iter().rev().enumerate() {
        let mut predicted = [0.0f64; SCHEMES.len()];
        for (slot, s) in SCHEMES.iter().enumerate() {
            predicted[slot] = model.layer_seconds(*s, r.len, cfg);
            forced_totals[slot] += predicted[slot];
        }
        let mut best = 0;
        for slot in 1..SCHEMES.len() {
            if predicted[slot] < predicted[best] {
                best = slot;
            }
        }
        autotuned_total += predicted[best];
        layers.push(LayerPlan {
            layer: i,
            params: r.len,
            choice: SCHEMES[best],
            predicted_seconds: predicted,
        });
    }
    let max_params = ranges.iter().map(|r| r.len).max().unwrap_or(1);
    AutotuneReport {
        layers,
        forced_totals,
        autotuned_total,
        crossovers: find_crossovers(model, cfg, max_params),
        config: *cfg,
    }
}

/// The [`WfbpModel`] twin of [`crate::fusion::cloud_calibrated_model`]
/// for an explicit cluster: per-layer backward seconds from parameter
/// counts, α/β from the cluster's inter link (the stream the autotuned
/// collectives share).
pub fn wfbp_model_for(ranges: &[ParamRange], cluster: &ClusterSpec) -> WfbpModel {
    WfbpModel {
        layer_backward_seconds: ranges
            .iter()
            .rev()
            .map(|r| r.len as f64 * BACKWARD_SECONDS_PER_PARAM)
            .collect(),
        comm_alpha: cluster.inter.alpha,
        comm_beta: 2.0 * cluster.inter.beta,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cloudtrain_simnet::clouds;

    fn ranges(sizes: &[usize]) -> Vec<ParamRange> {
        let mut out = Vec::new();
        let mut off = 0;
        for &len in sizes {
            out.push(ParamRange { offset: off, len });
            off += len;
        }
        out
    }

    fn model(nodes: usize) -> CommModel {
        CommModel::new(clouds::tencent(nodes))
    }

    #[test]
    fn tiny_layers_stay_dense_fat_layers_go_sparse() {
        let r = ranges(&[64, 20_000_000]);
        let rep = autotune_layers(&r, &model(4), &AutotuneConfig::default());
        // Backward order: the fat layer is scanned first.
        assert_eq!(rep.layers[0].params, 20_000_000);
        assert!(
            rep.layers[0].choice != CommScheme::DenseTorus,
            "20M-param layer should compress, got {:?}",
            rep.layers[0].choice
        );
        assert_eq!(
            rep.layers[1].choice,
            CommScheme::DenseTorus,
            "64-param layer should skip the top-k kernel passes"
        );
        let cross = rep
            .crossovers
            .sparse_min_params
            .expect("sparse must win somewhere");
        assert!(cross > 64 && cross <= 20_000_000, "crossover {cross}");
    }

    #[test]
    fn autotuned_total_never_worse_than_any_forced_scheme() {
        let r = ranges(&[100, 5_000, 200_000, 4_000_000, 32]);
        for nodes in [2usize, 4, 8] {
            let rep = autotune_layers(&r, &model(nodes), &AutotuneConfig::default());
            for (slot, total) in rep.forced_totals.iter().enumerate() {
                assert!(
                    rep.autotuned_total <= total + 1e-15,
                    "autotuned {} worse than forced {} ({})",
                    rep.autotuned_total,
                    total,
                    SCHEMES[slot].label()
                );
            }
            assert!(rep.forced_totals.contains(
                &rep.forced_totals[SCHEMES
                    .iter()
                    .position(|s| *s == rep.global_choice())
                    .unwrap()]
            ));
        }
    }

    #[test]
    fn overlap_raises_oksparse_into_the_winning_region() {
        // m = 4: the crossover model says O(k) needs ω > 1/(m−1) = 1/3.
        let m = model(4);
        let d = 8_000_000;
        let low = AutotuneConfig {
            overlap: 0.0,
            ..AutotuneConfig::default()
        };
        let high = AutotuneConfig {
            overlap: 1.0,
            ..AutotuneConfig::default()
        };
        let hitopk = m.inter_bytes(CommScheme::HiTopKStaged, d, &low);
        assert!(
            m.inter_bytes(CommScheme::OkSparse, d, &low) > hitopk,
            "disjoint selections must not beat hitopk"
        );
        assert!(
            m.inter_bytes(CommScheme::OkSparse, d, &high) < hitopk,
            "fully shared selections must beat hitopk"
        );
        let rep = autotune_layers(&ranges(&[d]), &m, &AutotuneConfig::default());
        let omega = rep.crossovers.oksparse_min_overlap.expect("m >= 3");
        assert!(
            (omega - 1.0 / 3.0).abs() < 0.1,
            "predicted crossover ω {omega} far from 1/(m−1)"
        );
    }

    #[test]
    fn two_nodes_never_predict_an_oksparse_win() {
        let rep = autotune_layers(
            &ranges(&[1_000_000]),
            &model(2),
            &AutotuneConfig {
                overlap: 1.0,
                ..AutotuneConfig::default()
            },
        );
        assert_eq!(rep.crossovers.oksparse_min_overlap, None);
        assert!(rep.layers[0].choice != CommScheme::OkSparse);
    }

    #[test]
    fn report_is_deterministic_and_serde_roundtrips() {
        let r = ranges(&[500, 2000, 100, 40_000, 3_000_000]);
        let cfg = AutotuneConfig::default();
        let a = autotune_layers(&r, &model(4), &cfg);
        let b = autotune_layers(&r, &model(4), &cfg);
        let ja = serde_json::to_string(&a).unwrap();
        assert_eq!(ja, serde_json::to_string(&b).unwrap());
        let back: AutotuneReport = serde_json::from_str(&ja).unwrap();
        assert_eq!(serde_json::to_string(&back).unwrap(), ja);
    }

    #[test]
    fn iteration_time_respects_the_wfbp_recurrence() {
        let r = ranges(&[10_000; 20]);
        let m = model(4);
        let cfg = AutotuneConfig::default();
        let rep = autotune_layers(&r, &m, &cfg);
        let wfbp = wfbp_model_for(&r, &m.cluster);
        let t = rep.iteration_time(&wfbp);
        assert!(t.total >= t.backward);
        assert!(t.exposed_comm >= 0.0);
        assert_eq!(t.collectives, 20);
        // Serial lower bound: total can never beat backward + last comm.
        let last = &rep.layers[rep.layers.len() - 1];
        let slot = SCHEMES.iter().position(|s| *s == last.choice).unwrap();
        assert!(t.total + 1e-15 >= t.backward.max(last.predicted_seconds[slot]));
    }

    #[test]
    fn publish_exports_counts_and_total() {
        let r = ranges(&[64, 4_000_000]);
        let rep = autotune_layers(&r, &model(4), &AutotuneConfig::default());
        let mut reg = Registry::new();
        rep.publish(&mut reg);
        let sum: f64 = SCHEMES
            .iter()
            .map(|s| reg.gauge(&format!("autotune/{}", s.label())).unwrap_or(0.0))
            .sum();
        assert_eq!(sum as usize, 2);
    }

    #[test]
    fn global_choice_is_the_forced_totals_argmin() {
        for nodes in [2usize, 4, 8] {
            let r = ranges(&[2000; 40]);
            let rep = autotune_layers(&r, &model(nodes), &AutotuneConfig::default());
            let slot = SCHEMES
                .iter()
                .position(|s| *s == rep.global_choice())
                .unwrap();
            for (other, total) in rep.forced_totals.iter().enumerate() {
                assert!(
                    rep.forced_totals[slot] < *total
                        || (rep.forced_totals[slot] == *total && slot <= other),
                    "{nodes} nodes: {} is not the first argmin of {:?}",
                    SCHEMES[slot].label(),
                    rep.forced_totals
                );
            }
        }
    }
}
