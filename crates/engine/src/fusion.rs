//! Tensor fusion and wait-free backpropagation (§2's pipelining
//! mechanisms: Zhang et al. 2017; Shi et al. 2019b/2020 — "the gradient
//! communication tasks ... may be executed in parallel if possible").
//!
//! Two cooperating ideas:
//!
//! * **Wait-free backprop**: a layer's gradient can be aggregated as soon
//!   as its backward pass finishes, overlapping communication with the
//!   backward computation of earlier layers.
//! * **Tensor fusion**: launching one collective per layer drowns in
//!   per-message latency (`α` × 161 for ResNet-50), so consecutive
//!   layers' gradients are fused into buckets up to a threshold; too much
//!   fusion destroys the overlap (one giant bucket can only start after
//!   the whole backward pass).
//!
//! [`plan_buckets`] builds the bucket schedule from a model's layer
//! ranges, and [`WfbpModel::iteration_time`] evaluates the classic
//! MG-WFBP-style timing recurrence: bucket `b`'s collective starts at
//! `max(gradients ready, previous collective done)`. The
//! `ablation_fusion` bench sweeps the threshold to expose the sweet spot
//! that justifies the engine-level overlap fraction.

use cloudtrain_dnn::model::ParamRange;
use serde::{Deserialize, Serialize};

/// How the trainer groups per-layer gradients into collectives on the
/// dense aggregation paths.
///
/// Sparse strategies always aggregate the whole compensated tensor (the
/// shard partition *is* their fusion), so this knob only routes
/// `DenseTreeAr` / `DenseTorus`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize, Default)]
pub enum FusionMode {
    /// One collective over the whole flat gradient (the seed behaviour).
    #[default]
    WholeTensor,
    /// One collective per layer: maximal overlap potential, maximal
    /// per-message `α` cost (the Fig.-1 pathology tensor fusion exists to
    /// fix).
    PerLayer,
    /// Greedy buckets of consecutive backward-order layers up to a fixed
    /// byte threshold (Horovod's `HOROVOD_FUSION_THRESHOLD`).
    Bucketed {
        /// Maximum fused payload per collective, bytes.
        threshold_bytes: usize,
    },
    /// Threshold chosen by sweeping candidate bucket sizes through the
    /// α–β [`WfbpModel`] and taking the argmin of modelled iteration time.
    CostModel,
}

/// One fused bucket of consecutive layers, in backward-completion order.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Bucket {
    /// Indices (into the backward-ordered layer list) fused together.
    pub first_layer: usize,
    /// One past the last fused layer.
    pub last_layer: usize,
    /// Total payload bytes of the bucket.
    pub bytes: usize,
}

impl Bucket {
    /// Number of layers fused.
    pub fn layer_count(&self) -> usize {
        self.last_layer - self.first_layer
    }
}

/// Groups layers (taken in backward order: last layer of the model first)
/// into buckets of at most `threshold_bytes`, never splitting a layer.
/// A single layer larger than the threshold gets its own bucket.
///
/// # Examples
/// ```
/// use cloudtrain_dnn::model::ParamRange;
/// use cloudtrain_engine::fusion::plan_buckets;
///
/// let ranges = vec![
///     ParamRange { offset: 0, len: 100 },
///     ParamRange { offset: 100, len: 100 },
///     ParamRange { offset: 200, len: 5000 },
/// ];
/// // FP32, 1 KiB threshold: the fat layer stands alone, the small two fuse.
/// let buckets = plan_buckets(&ranges, 4, 1024);
/// assert_eq!(buckets.len(), 2);
/// assert_eq!(buckets[0].bytes, 20_000); // backward order: fat layer first
/// assert_eq!(buckets[1].bytes, 800);
/// ```
///
/// # Panics
/// Panics if `threshold_bytes == 0`.
pub fn plan_buckets(
    ranges: &[ParamRange],
    elem_bytes: usize,
    threshold_bytes: usize,
) -> Vec<Bucket> {
    assert!(
        threshold_bytes > 0,
        "plan_buckets: threshold must be positive"
    );
    let mut buckets = Vec::new();
    let mut start = 0;
    let mut bytes = 0usize;
    // Backward order: reverse the forward-ordered ranges.
    let layer_bytes: Vec<usize> = ranges.iter().rev().map(|r| r.len * elem_bytes).collect();
    for (i, &lb) in layer_bytes.iter().enumerate() {
        if bytes > 0 && bytes + lb > threshold_bytes {
            buckets.push(Bucket {
                first_layer: start,
                last_layer: i,
                bytes,
            });
            start = i;
            bytes = 0;
        }
        bytes += lb;
    }
    if bytes > 0 || ranges.is_empty() {
        buckets.push(Bucket {
            first_layer: start,
            last_layer: layer_bytes.len(),
            bytes,
        });
    }
    buckets
}

/// Timing outcome of one wait-free, fused iteration.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct WfbpTiming {
    /// Pure backward-pass compute time.
    pub backward: f64,
    /// End-to-end time until the last bucket's collective completes.
    pub total: f64,
    /// Communication time not hidden behind the backward pass.
    pub exposed_comm: f64,
    /// Number of collectives launched.
    pub collectives: usize,
}

/// The analytic wait-free-backprop model.
#[derive(Debug, Clone)]
pub struct WfbpModel {
    /// Backward compute seconds of each layer, in backward order.
    pub layer_backward_seconds: Vec<f64>,
    /// Startup latency of one fused collective, seconds.
    pub comm_alpha: f64,
    /// Per-byte cost of the collective, seconds.
    pub comm_beta: f64,
}

impl WfbpModel {
    /// Evenly spreads a model's backward time over its layers — adequate
    /// when per-layer profiles are unavailable (the paper's models have
    /// hundreds of similar-cost layers).
    pub fn uniform(layers: usize, backward_seconds: f64, comm_alpha: f64, comm_beta: f64) -> Self {
        Self {
            layer_backward_seconds: vec![backward_seconds / layers.max(1) as f64; layers],
            comm_alpha,
            comm_beta,
        }
    }

    /// Evaluates the iteration under a bucket plan: bucket `b` becomes
    /// ready when the backward pass reaches past its last layer, and its
    /// collective runs after the previous bucket's finishes (one network
    /// stream).
    ///
    /// # Panics
    /// Panics if a bucket references layers outside the model.
    pub fn iteration_time(&self, buckets: &[Bucket]) -> WfbpTiming {
        let backward: f64 = self.layer_backward_seconds.iter().sum();
        let mut prefix = vec![0.0f64; self.layer_backward_seconds.len() + 1];
        for (i, t) in self.layer_backward_seconds.iter().enumerate() {
            prefix[i + 1] = prefix[i] + t;
        }
        let mut net_free = 0.0f64;
        for b in buckets {
            assert!(
                b.last_layer <= self.layer_backward_seconds.len(),
                "bucket exceeds layer count"
            );
            let ready = prefix[b.last_layer];
            let start = ready.max(net_free);
            net_free = start + self.comm_alpha + b.bytes as f64 * self.comm_beta;
        }
        let total = net_free.max(backward);
        WfbpTiming {
            backward,
            total,
            exposed_comm: total - backward,
            collectives: buckets.len(),
        }
    }
}

/// Backward-compute seconds charged per parameter when no measured
/// profile is available: V100 ResNet-50 backward ≈ 80 ms over 25.5 M
/// parameters (the paper's Table 2 workload) ≈ 3.2 ns/param.
pub const BACKWARD_SECONDS_PER_PARAM: f64 = 3.2e-9;

/// A [`WfbpModel`] calibrated to the paper's testbed instead of caller
/// guesses: per-layer backward time from the layer's parameter count at
/// [`BACKWARD_SECONDS_PER_PARAM`], per-collective `α` from the VPC
/// Ethernet latency plus two kernel launches
/// ([`cloudtrain_simnet::clouds::ETH_ALPHA`],
/// [`cloudtrain_compress::gpu_cost::GpuRates::launch`]), and `β` from the
/// 25 Gbps Tencent link at ring-AllReduce cost (≈ 2 bytes moved per
/// payload byte).
pub fn cloud_calibrated_model(ranges: &[ParamRange]) -> WfbpModel {
    use cloudtrain_compress::gpu_cost::GpuRates;
    use cloudtrain_simnet::clouds;

    let launch = GpuRates::default().launch;
    let inter = clouds::tencent(2).inter;
    WfbpModel {
        // Backward order: the model's last layer finishes first.
        layer_backward_seconds: ranges
            .iter()
            .rev()
            .map(|r| r.len as f64 * BACKWARD_SECONDS_PER_PARAM)
            .collect(),
        comm_alpha: inter.alpha + 2.0 * launch,
        comm_beta: 2.0 * inter.beta,
    }
}

/// Picks the fusion threshold by sweeping power-of-two candidates through
/// `model.iteration_time` and keeping the cheapest plan (first winner on
/// ties, so the result is deterministic). Returns the plan together with
/// the winning threshold in bytes.
///
/// # Panics
/// Panics if `model` has a different layer count than `ranges`.
pub fn plan_buckets_cost_model(
    ranges: &[ParamRange],
    elem_bytes: usize,
    model: &WfbpModel,
) -> (Vec<Bucket>, usize) {
    assert_eq!(
        model.layer_backward_seconds.len(),
        ranges.len(),
        "plan_buckets_cost_model: model/layer count mismatch"
    );
    let total_bytes: usize = ranges.iter().map(|r| r.len * elem_bytes).sum();
    let mut best: Option<(f64, Vec<Bucket>, usize)> = None;
    // 1 (per-layer) → smallest power of two covering everything (full
    // fusion); the sweep brackets both extremes of the U-curve.
    let mut threshold = 1usize;
    loop {
        let plan = plan_buckets(ranges, elem_bytes, threshold);
        let t = model.iteration_time(&plan).total;
        if best.as_ref().is_none_or(|(bt, _, _)| t < *bt) {
            best = Some((t, plan, threshold));
        }
        if threshold >= total_bytes.max(1) {
            break;
        }
        threshold = threshold.saturating_mul(2);
    }
    #[expect(
        clippy::expect_used,
        reason = "the loop body always runs at least once, so best is Some"
    )]
    let (_, plan, threshold) = best.expect("cost-model sweep evaluated no candidate");
    (plan, threshold)
}

/// Maps a backward-order bucket plan onto contiguous spans of the
/// *forward*-ordered flat parameter vector, in bucket (backward launch)
/// order. Consecutive backward-order layers are consecutive forward-order
/// layers, so every bucket is one contiguous slice of the gradient.
///
/// # Panics
/// Panics if a bucket references layers outside `ranges`.
pub fn bucket_spans(ranges: &[ParamRange], buckets: &[Bucket]) -> Vec<ParamRange> {
    buckets
        .iter()
        .filter(|b| b.layer_count() > 0)
        .map(|b| {
            assert!(b.last_layer <= ranges.len(), "bucket exceeds layer count");
            let lo = ranges.len() - b.last_layer;
            let hi = ranges.len() - b.first_layer;
            ParamRange {
                offset: ranges[lo].offset,
                len: ranges[lo..hi].iter().map(|r| r.len).sum(),
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ranges(sizes: &[usize]) -> Vec<ParamRange> {
        let mut out = Vec::new();
        let mut off = 0;
        for &len in sizes {
            out.push(ParamRange { offset: off, len });
            off += len;
        }
        out
    }

    #[test]
    fn buckets_respect_threshold_and_cover_all_layers() {
        let r = ranges(&[100, 200, 50, 400, 10]);
        let buckets = plan_buckets(&r, 4, 1000);
        let total_layers: usize = buckets.iter().map(Bucket::layer_count).sum();
        assert_eq!(total_layers, 5);
        let total_bytes: usize = buckets.iter().map(|b| b.bytes).sum();
        assert_eq!(total_bytes, 760 * 4);
        for b in &buckets {
            assert!(b.bytes <= 1000 || b.layer_count() == 1);
        }
        // Buckets tile the backward order.
        let mut pos = 0;
        for b in &buckets {
            assert_eq!(b.first_layer, pos);
            pos = b.last_layer;
        }
    }

    #[test]
    fn oversized_layer_gets_own_bucket() {
        let r = ranges(&[10, 5000, 10]);
        let buckets = plan_buckets(&r, 4, 100);
        assert!(buckets
            .iter()
            .any(|b| b.bytes == 20000 && b.layer_count() == 1));
    }

    #[test]
    fn one_big_bucket_with_huge_threshold() {
        let r = ranges(&[100, 200, 300]);
        let buckets = plan_buckets(&r, 4, usize::MAX);
        assert_eq!(buckets.len(), 1);
        assert_eq!(buckets[0].bytes, 2400);
    }

    #[test]
    fn full_fusion_has_zero_overlap() {
        // One bucket: comm starts only after all backward compute.
        let r = ranges(&[1000; 10]);
        let model = WfbpModel::uniform(10, 1.0, 0.01, 1e-6);
        let one = plan_buckets(&r, 4, usize::MAX);
        let t = model.iteration_time(&one);
        let comm = 0.01 + 40_000.0 * 1e-6;
        assert!((t.total - (1.0 + comm)).abs() < 1e-9);
        assert!((t.exposed_comm - comm).abs() < 1e-9);
    }

    #[test]
    fn per_layer_fusion_pays_latency_but_overlaps() {
        let r = ranges(&[1000; 10]);
        let model = WfbpModel::uniform(10, 1.0, 0.01, 1e-8);
        let per_layer = plan_buckets(&r, 4, 1);
        assert_eq!(per_layer.len(), 10);
        let t = model.iteration_time(&per_layer);
        // Comm is latency-bound (10 x 10 ms = 100 ms) but mostly hidden
        // behind the 1 s backward pass; only the tail bucket is exposed.
        assert!(t.total < 1.0 + 2.0 * 0.01 + 1e-6, "total {}", t.total);
        assert!(t.exposed_comm < 0.02);
    }

    #[test]
    fn moderate_fusion_beats_both_extremes_when_alpha_matters() {
        // 100 small layers, high per-collective latency, noticeable bytes:
        // the classic U-shape.
        let r = ranges(&[10_000; 100]);
        let model = WfbpModel::uniform(100, 0.2, 2e-3, 2e-10);
        let t_none = model.iteration_time(&plan_buckets(&r, 4, 1));
        let t_full = model.iteration_time(&plan_buckets(&r, 4, usize::MAX));
        let t_mid = model.iteration_time(&plan_buckets(&r, 4, 400_000));
        assert!(
            t_mid.total < t_none.total && t_mid.total < t_full.total,
            "mid {} none {} full {}",
            t_mid.total,
            t_none.total,
            t_full.total
        );
    }

    #[test]
    fn cost_model_picks_the_u_curve_minimum() {
        // Same shape as `moderate_fusion_beats_both_extremes_when_alpha_matters`:
        // the sweep must land at (or below) the hand-picked mid plan and
        // strictly beat both extremes.
        let r = ranges(&[10_000; 100]);
        let model = WfbpModel::uniform(100, 0.2, 2e-3, 2e-10);
        let (plan, threshold) = plan_buckets_cost_model(&r, 4, &model);
        let t_best = model.iteration_time(&plan).total;
        let t_none = model.iteration_time(&plan_buckets(&r, 4, 1)).total;
        let t_full = model.iteration_time(&plan_buckets(&r, 4, usize::MAX)).total;
        assert!(t_best < t_none, "sweep no better than per-layer");
        assert!(t_best < t_full, "sweep no better than full fusion");
        assert!(
            plan.len() > 1 && plan.len() < 100,
            "expected moderate fusion, got {} buckets at threshold {}",
            plan.len(),
            threshold
        );
    }

    #[test]
    fn cost_model_sweep_is_deterministic() {
        let r = ranges(&[500, 2000, 100, 40_000, 3000, 3000]);
        let model = cloud_calibrated_model(&r);
        let (p1, t1) = plan_buckets_cost_model(&r, 4, &model);
        let (p2, t2) = plan_buckets_cost_model(&r, 4, &model);
        assert_eq!(p1, p2);
        assert_eq!(t1, t2);
    }

    #[test]
    fn calibrated_model_follows_layer_structure() {
        let r = ranges(&[100, 300]);
        let m = cloud_calibrated_model(&r);
        assert_eq!(m.layer_backward_seconds.len(), 2);
        // Backward order: the 300-param layer (last in forward order) first.
        assert!(m.layer_backward_seconds[0] > m.layer_backward_seconds[1]);
        assert!(m.comm_alpha > 0.0 && m.comm_beta > 0.0);
    }

    #[test]
    fn bucket_spans_tile_the_forward_vector() {
        let r = ranges(&[100, 200, 50, 400, 10]);
        for threshold in [1usize, 1000, usize::MAX] {
            let buckets = plan_buckets(&r, 4, threshold);
            let spans = bucket_spans(&r, &buckets);
            let total: usize = spans.iter().map(|s| s.len).sum();
            assert_eq!(total, 760);
            // Sorted by offset, the spans tile [0, 760) with no gaps.
            let mut sorted = spans.clone();
            sorted.sort_by_key(|s| s.offset);
            let mut pos = 0;
            for s in &sorted {
                assert_eq!(s.offset, pos);
                pos += s.len;
            }
            // Launch order is backward: first span ends the vector, the
            // last starts it.
            assert_eq!(spans[0].offset + spans[0].len, 760);
            assert_eq!(spans.last().unwrap().offset, 0);
        }
    }

    #[test]
    fn total_never_below_backward() {
        let r = ranges(&[100; 4]);
        let model = WfbpModel::uniform(4, 2.0, 1e-9, 1e-12);
        let t = model.iteration_time(&plan_buckets(&r, 4, 200));
        assert!(t.total >= t.backward);
        assert!(t.exposed_comm >= 0.0);
    }
}
