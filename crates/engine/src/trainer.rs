//! The convergence plane: real synchronous data-parallel training over
//! worker threads (Fig. 10, Table 2).
//!
//! Every worker thread owns a full model replica (identically seeded), a
//! shard of the synthetic data stream, and — for sparse strategies — its
//! error-feedback residual. Gradients are aggregated with the *real*
//! collectives, the optimizer is LARS (rates optionally computed with
//! PTO), and determinism is end-to-end: replicas stay bitwise identical
//! across workers, which the test suite asserts.

use cloudtrain_collectives::group::{run_on_group, Transport};
use cloudtrain_collectives::gtopk::gtopk_all_reduce_ef;
use cloudtrain_collectives::hierarchical::{hitopk_all_reduce_ef_scratch, sparse_all_reduce_naive};
use cloudtrain_collectives::quantized::quantized_all_reduce;
use cloudtrain_collectives::resilience::ResilienceReport;
use cloudtrain_collectives::ring::all_gather_f32;
use cloudtrain_collectives::torus::torus_all_reduce;
use cloudtrain_collectives::tree::tree_all_reduce;
use cloudtrain_collectives::{CommFaults, CommScratch, Peer, ResiliencePolicy, ResilientPeer};
use cloudtrain_compress::exact::QuickTopK;
use cloudtrain_compress::quantize::Qsgd;
use cloudtrain_compress::{ErrorFeedback, MsTopK};
use cloudtrain_dnn::data::{Batch, SyntheticImages, SyntheticSeq};
use cloudtrain_dnn::loss::{softmax_cross_entropy, top_k_accuracy};
use cloudtrain_dnn::model::Model;
use cloudtrain_dnn::models::{mlp, resnet_lite, vgg_lite, TransformerModel};
use cloudtrain_obs::Registry;
use cloudtrain_optim::adam::{Adam, AdamConfig};
use cloudtrain_optim::lamb::{Lamb, LambConfig};
use cloudtrain_optim::lars::{apply_with_rates, compute_rates, LarsConfig};
use cloudtrain_optim::mixed::{fp16_wire, LossScaler};
use cloudtrain_optim::schedule::{LrSchedule, WarmupCosine};
use cloudtrain_optim::Optimizer;
use cloudtrain_tensor::{init, ops, partition};
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;

use crate::fusion::{
    bucket_spans, cloud_calibrated_model, plan_buckets, plan_buckets_cost_model, FusionMode,
};
use crate::strategy::Strategy;

/// Which reference workload to train.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum Workload {
    /// ResNet-lite on synthetic class-conditional images.
    ResNetLite,
    /// VGG-lite on synthetic class-conditional images.
    VggLite,
    /// MLP on synthetic class-conditional images (flattened).
    Mlp,
    /// TinyTransformer on synthetic marker sequences.
    Transformer,
}

/// Which optimizer drives the update step.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize, Default)]
pub enum OptimizerKind {
    /// LARS + momentum (the paper's large-batch recipe; rates via PTO when
    /// `use_pto` is set).
    #[default]
    Lars,
    /// Plain momentum SGD.
    Momentum,
    /// LAMB (the paper's choice for attention models).
    Lamb,
    /// Plain Adam.
    Adam,
}

/// Fault schedule of one run's communication plane (convergence side).
///
/// The decisions expand into a [`CommFaults`] plan: virtual hop drops are
/// absorbed by the retry ladder (dense traffic stays exact), and degraded
/// contributions collapse to empty sparse blocks that the error-feedback
/// residual re-injects on the next step — so a faulted run *completes every
/// step* and differs from the clean run only through the gradient subsets
/// that arrived late.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct FaultConfig {
    /// Seed of the fault decision stream (independent of the model seed).
    pub seed: u64,
    /// Per-hop virtual drop probability.
    pub drop_prob: f64,
    /// Baseline per-(step, member) degradation probability for sparse
    /// contributions.
    pub degrade_prob: f64,
    /// `(rank, prob)` pairs for ranks behaving as stragglers, each with
    /// its own elevated degradation probability.
    pub stragglers: Vec<(usize, f64)>,
}

impl FaultConfig {
    /// A clean plan under `seed` — decisions all come up "no fault".
    pub fn new(seed: u64) -> Self {
        Self {
            seed,
            drop_prob: 0.0,
            degrade_prob: 0.0,
            stragglers: Vec::new(),
        }
    }

    /// Sets the per-hop drop probability.
    pub fn with_drops(mut self, prob: f64) -> Self {
        self.drop_prob = prob;
        self
    }

    /// Sets the baseline degradation probability.
    pub fn with_degrade(mut self, prob: f64) -> Self {
        self.degrade_prob = prob;
        self
    }

    /// Marks `rank` as a straggler degrading with probability `prob`.
    pub fn straggle(mut self, rank: usize, prob: f64) -> Self {
        self.stragglers.push((rank, prob));
        self
    }

    /// Expands the schedule into the collectives-layer fault plan.
    pub fn comm_faults(&self) -> CommFaults {
        let mut f = CommFaults::new(self.seed)
            .with_drops(self.drop_prob)
            .with_degrade(self.degrade_prob);
        for &(rank, prob) in &self.stragglers {
            f = f.straggle(rank, prob);
        }
        f
    }
}

/// Configuration of one distributed training run.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct DistConfig {
    /// Number of simulated nodes (`m`).
    pub nodes: usize,
    /// Workers per node (`n`).
    pub gpus_per_node: usize,
    /// Aggregation strategy.
    pub strategy: Strategy,
    /// Workload to train.
    pub workload: Workload,
    /// Per-worker batch size.
    pub local_batch: usize,
    /// Training epochs.
    pub epochs: usize,
    /// Iterations per epoch.
    pub iters_per_epoch: usize,
    /// Peak learning rate.
    pub lr: f32,
    /// Optimizer for the update step.
    pub optimizer: OptimizerKind,
    /// Whether LARS rates are computed with PTO.
    pub use_pto: bool,
    /// Validation samples evaluated at the end of each epoch.
    pub eval_samples: usize,
    /// Number of classes in the synthetic task.
    pub classes: usize,
    /// Mixed precision: dynamic loss scaling around backprop (§5.5.2).
    pub mixed_precision: bool,
    /// Emulate the FP16 gradient wire on the dense aggregation paths
    /// (CommLib transmits FP16 elements, Fig. 7).
    pub fp16_wire: bool,
    /// Master seed (model init, data, compressor randomness).
    pub seed: u64,
    /// Communication fault schedule; `None` trains on the clean plane.
    /// When set, every strategy aggregates over one `ResilientPeer` per
    /// worker: every message walks the retry ladder (dense sums stay
    /// exact), and `MsTopKHiTopK` and `GTopK`, whose collectives carry the
    /// error feedback, also draw the plan's degradations, sending an empty
    /// block whose mass the residual keeps.
    pub faults: Option<FaultConfig>,
    /// How per-layer gradients are grouped into collectives on the dense
    /// aggregation paths (see [`FusionMode`]). Sparse strategies always
    /// aggregate the whole compensated tensor.
    #[serde(default)]
    pub fusion: FusionMode,
}

impl DistConfig {
    /// A small-but-real default: 2 nodes × 4 workers on ResNet-lite.
    pub fn small(strategy: Strategy, workload: Workload) -> Self {
        Self {
            nodes: 2,
            gpus_per_node: 4,
            strategy,
            workload,
            local_batch: 8,
            epochs: 3,
            iters_per_epoch: 12,
            lr: 0.08,
            optimizer: OptimizerKind::Lars,
            use_pto: true,
            eval_samples: 64,
            classes: 4,
            mixed_precision: false,
            fp16_wire: false,
            seed: 42,
            faults: None,
            fusion: FusionMode::WholeTensor,
        }
    }

    /// Total worker count (`P = m · n`).
    pub fn world(&self) -> usize {
        self.nodes * self.gpus_per_node
    }
}

/// End-of-epoch metrics (identical on every worker).
#[derive(Debug, Clone, Copy, Serialize, Deserialize)]
pub struct EpochMetrics {
    /// 0-indexed epoch.
    pub epoch: usize,
    /// Mean training loss over the epoch.
    pub train_loss: f32,
    /// Top-1 validation accuracy.
    pub val_top1: f32,
    /// Top-5 validation accuracy (the paper's CNN metric); equals top-1
    /// when fewer than 5 classes.
    pub val_top5: f32,
    /// L2 norm of this worker's error-feedback residual (0 for dense).
    pub residual_norm: f32,
    /// Hop retries this worker's resilience policy charged this epoch
    /// (0 on the clean plane).
    pub fault_retries: u64,
    /// Sparse contributions this worker degraded to empty blocks this
    /// epoch (0 on the clean plane).
    pub fault_degraded: u64,
    /// Allocating scratch-arena takes this epoch — must drop to 0 once
    /// the communication path reaches steady state, faults or not.
    pub scratch_misses: u64,
}

/// Result of one distributed run.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct TrainReport {
    /// Strategy label (e.g. `"MSTopK-SGD"`).
    pub strategy: String,
    /// Per-epoch metrics.
    pub epochs: Vec<EpochMetrics>,
}

impl TrainReport {
    /// Final validation top-1 accuracy.
    pub fn final_top1(&self) -> f32 {
        self.epochs.last().map(|e| e.val_top1).unwrap_or(0.0)
    }

    /// Final validation top-5 accuracy.
    pub fn final_top5(&self) -> f32 {
        self.epochs.last().map(|e| e.val_top5).unwrap_or(0.0)
    }
}

/// One worker's dataset view.
enum Data {
    Images(SyntheticImages),
    Seq(SyntheticSeq),
}

impl Data {
    fn train_batch(&self, cfg: &DistConfig, step: u64, rank: usize) -> Batch {
        let start = (step * cfg.world() as u64 + rank as u64) * cfg.local_batch as u64;
        match self {
            Data::Images(g) => g.batch(start, cfg.local_batch),
            Data::Seq(g) => g.batch(start, cfg.local_batch),
        }
    }

    fn val_batch(&self, cfg: &DistConfig) -> Batch {
        // Validation ids live far beyond any training id.
        let start = 1u64 << 40;
        match self {
            Data::Images(g) => g.batch(start, cfg.eval_samples),
            Data::Seq(g) => g.batch(start, cfg.eval_samples),
        }
    }
}

fn build_model(cfg: &DistConfig) -> Box<dyn Model> {
    let mut rng = init::rng_from_seed(cfg.seed);
    match cfg.workload {
        Workload::ResNetLite => Box::new(resnet_lite(8, cfg.classes, &mut rng)),
        Workload::VggLite => Box::new(vgg_lite(8, 16, cfg.classes, &mut rng)),
        Workload::Mlp => Box::new(mlp(3 * 16 * 16, 64, cfg.classes, &mut rng)),
        Workload::Transformer => {
            Box::new(TransformerModel::new(64, 16, 16, 2, cfg.classes, &mut rng))
        }
    }
}

/// Forward-ordered layer ranges of a workload's model as the trainer
/// builds it — what the autotuner and fusion planner price. The ranges
/// depend only on the architecture, not on the seed.
pub fn workload_layer_ranges(workload: Workload) -> Vec<cloudtrain_dnn::model::ParamRange> {
    let cfg = DistConfig::small(Strategy::DenseTreeAr, workload);
    build_model(&cfg).layer_ranges()
}

fn build_data(cfg: &DistConfig) -> Data {
    match cfg.workload {
        Workload::Transformer => Data::Seq(SyntheticSeq::new(cfg.classes, 64, 16, cfg.seed)),
        Workload::Mlp => Data::Images(SyntheticImages::new(cfg.classes, 3, 16, 0.6, cfg.seed)),
        _ => Data::Images(SyntheticImages::new(cfg.classes, 3, 16, 0.6, cfg.seed)),
    }
}

/// Reshapes an image batch for MLP consumption (flatten) — other models
/// take the batch as-is.
fn adapt_input(cfg: &DistConfig, mut batch: Batch) -> Batch {
    if cfg.workload == Workload::Mlp {
        if let cloudtrain_dnn::model::Input::Dense(t) = &mut batch.input {
            let b = t.shape()[0];
            let rest = t.len() / b;
            #[expect(
                clippy::expect_used,
                reason = "b * rest == t.len() by construction of rest on the previous line, so the reshape cannot fail"
            )]
            t.reshape(vec![b, rest]).expect("flatten for mlp");
        }
    }
    batch
}

/// Mid-run context threaded into one training segment by the elastic
/// runtime. The `Default` (epoch 0, step 0, no snapshot) reproduces a
/// from-scratch run bit for bit — the non-elastic entry points all pass
/// it.
#[derive(Debug, Clone, Default)]
pub(crate) struct SegmentCtx {
    /// Global epoch index the segment starts at.
    pub start_epoch: usize,
    /// Global step counter at segment start.
    pub start_step: u64,
    /// Total epochs of the full planned schedule, for the LR schedule;
    /// 0 means "use the phase sum" (the non-elastic paths).
    pub schedule_total_epochs: usize,
    /// Snapshot to resume from; `None` starts from the seeded init.
    pub init: Option<SegmentInit>,
    /// Stable node id backing each group of `gpus_per_node` ranks,
    /// ascending. Empty means the identity topology `0..nodes`.
    pub node_ids: Vec<usize>,
}

/// State restored at the start of a resumed segment.
#[derive(Debug, Clone)]
pub(crate) struct SegmentInit {
    /// Flat model parameters (identical on every rank).
    pub params: Vec<f32>,
    /// Optimizer velocity (identical on every rank).
    pub velocity: Vec<f32>,
    /// Error-feedback shard residuals keyed by `(node id, local rank)`.
    pub ef_shards: BTreeMap<(u64, u64), Vec<f32>>,
}

/// State a worker hands back at the end of a segment, from which the
/// elastic runtime cuts a sharded checkpoint.
#[derive(Debug, Clone)]
pub(crate) struct SegmentEnd {
    /// Flat model parameters after the segment's last step.
    pub params: Vec<f32>,
    /// Optimizer velocity after the segment's last step.
    pub velocity: Vec<f32>,
    /// This worker's error-feedback shard residual.
    pub ef_shard: Vec<f32>,
    /// Global step counter after the segment.
    pub step: u64,
}

/// Panics with [`Strategy::check_world`]'s reason if `strategy` cannot
/// run over `world` ranks.
pub(crate) fn assert_feasible(strategy: Strategy, world: usize) {
    let reason = strategy.check_world(world).err();
    assert!(reason.is_none(), "{}", reason.unwrap_or_default());
}

/// Runs one distributed training job and returns rank 0's report (all
/// ranks produce identical reports; the harness asserts so in tests).
#[derive(Debug, Clone)]
pub struct DistTrainer {
    /// Run configuration.
    pub cfg: DistConfig,
}

impl DistTrainer {
    /// Creates a trainer for the given configuration.
    pub fn new(cfg: DistConfig) -> Self {
        Self { cfg }
    }

    /// Executes the run; returns the per-rank reports in rank order.
    ///
    /// # Panics
    /// Panics, before any rank starts, if the strategy cannot run over
    /// the configured world ([`Strategy::check_world`]).
    pub fn run_all_ranks(&self) -> Vec<TrainReport> {
        let phases = [(self.cfg.strategy, self.cfg.epochs)];
        self.run_ranks(&phases)
            .into_iter()
            .map(|(report, _)| report)
            .collect()
    }

    /// Executes the run and returns rank 0's report.
    pub fn run(&self) -> TrainReport {
        self.run_all_ranks().remove(0)
    }

    /// Executes the run and returns rank 0's report together with its
    /// observability registry: per-epoch `train/epoch` spans (with the
    /// HiTopKComm stage spans nested inside on the MSTopK strategy),
    /// per-epoch fault/allocation counters, and final-accuracy gauges.
    /// The training outcome is bitwise identical to [`Self::run`] —
    /// instrumentation only records what the calls return.
    pub fn run_observed(&self) -> (TrainReport, Registry) {
        let phases = [(self.cfg.strategy, self.cfg.epochs)];
        self.run_ranks(&phases).remove(0)
    }

    /// Executes a multi-phase run — the DAWNBench mechanic (§5.6): the
    /// *same* model replicas continue across `(strategy, epochs)` phases,
    /// with error-feedback residuals dropped at each aggregation switch.
    /// `cfg.strategy`/`cfg.epochs` are ignored in favour of the phases.
    ///
    /// # Panics
    /// Panics if `phases` is empty, or as [`Self::run_all_ranks`] does for
    /// any phase's strategy.
    pub fn run_phases(&self, phases: &[(Strategy, usize)]) -> TrainReport {
        assert!(!phases.is_empty(), "run_phases: need at least one phase");
        self.run_ranks(phases).remove(0).0
    }

    /// Every rank's worker over `phases`, once each phase's strategy is
    /// known to run over the world — checked here, so an infeasible world
    /// fails with the check's message instead of inside a rank thread.
    fn run_ranks(&self, phases: &[(Strategy, usize)]) -> Vec<(TrainReport, Registry)> {
        for (strategy, _) in phases {
            assert_feasible(*strategy, self.cfg.world());
        }
        run_on_group(self.cfg.world(), |peer| self.worker(peer, phases))
    }

    fn worker(&self, peer: &Peer, phases: &[(Strategy, usize)]) -> (TrainReport, Registry) {
        let (report, reg, _) = self.worker_at(peer, phases, &SegmentCtx::default());
        (report, reg)
    }

    /// The worker body, parameterized by a [`SegmentCtx`] so the elastic
    /// runtime can resume mid-schedule from a sharded checkpoint. With the
    /// default context (epoch 0, step 0, no snapshot) this *is* the
    /// classic worker — the non-elastic entry points delegate here, so the
    /// two paths cannot drift.
    pub(crate) fn worker_at(
        &self,
        peer: &Peer,
        phases: &[(Strategy, usize)],
        seg: &SegmentCtx,
    ) -> (TrainReport, Registry, SegmentEnd) {
        let cfg = &self.cfg;
        let (m, n) = (cfg.nodes, cfg.gpus_per_node);
        let rank = peer.rank();
        let mut model = build_model(cfg);
        let data = build_data(cfg);
        let d = model.param_count();
        let ranges = model.layer_ranges();
        let world = cfg.world() as f32;

        // Per-strategy state.
        let mut ef_full = ErrorFeedback::new(d);
        let shard_len = partition::shard_for(d, n, rank % n).len();
        let mut ef_shard = ErrorFeedback::new(shard_len);
        let samplings = phases
            .iter()
            .find_map(|(s, _)| match s {
                Strategy::MsTopKHiTopK { samplings, .. } => Some(*samplings),
                _ => None,
            })
            .unwrap_or(30);
        let mut mstopk = MsTopK::new(samplings, cfg.seed);
        let mut exact = QuickTopK;
        let levels = phases
            .iter()
            .find_map(|(s, _)| match s {
                Strategy::Qsgd { levels } => Some(*levels),
                _ => None,
            })
            .unwrap_or(127);
        let mut qsgd = Qsgd::new(levels, cfg.seed ^ rank as u64);

        // Optimizer state.
        let lars_cfg = LarsConfig::default();
        let mut velocity = vec![0.0f32; d];
        let mut lamb = matches!(cfg.optimizer, OptimizerKind::Lamb)
            .then(|| Lamb::new(d, ranges.clone(), LambConfig::default()));
        let mut adam = matches!(cfg.optimizer, OptimizerKind::Adam)
            .then(|| Adam::new(d, AdamConfig::default()));
        // The LR schedule spans the *full* planned run — a resumed
        // segment must anneal exactly where the uninterrupted run would.
        let total_epochs: usize = if seg.schedule_total_epochs > 0 {
            seg.schedule_total_epochs
        } else {
            phases.iter().map(|(_, e)| e).sum()
        };
        let schedule = WarmupCosine {
            base: cfg.lr,
            warmup_steps: (cfg.iters_per_epoch / 2) as u64,
            total_steps: (total_epochs * cfg.iters_per_epoch) as u64,
            final_lr: cfg.lr * 0.01,
        };

        let mut scaler = LossScaler::default();
        let mut params = vec![0.0f32; d];
        let mut grads = vec![0.0f32; d];
        // One communication arena per worker: after the first iteration the
        // sparse collectives run without per-hop allocations.
        let mut scratch = CommScratch::new();
        // Every aggregation runs over one transport: the fault-charging peer
        // when a plan is set (its per-pair hop counters and sparse instance
        // numbering persist across steps, so sender and receiver replay
        // identical fault ladders), else the plain one.
        let resilient = cfg
            .faults
            .as_ref()
            .map(|f| ResilientPeer::new(peer, f.comm_faults(), ResiliencePolicy::default()));
        let transport: &dyn Transport = match &resilient {
            Some(rp) => rp,
            None => peer,
        };
        let mut fault_mark = ResilienceReport::default();
        let mut miss_mark = 0usize;
        let mut report = TrainReport {
            strategy: cfg.strategy.label().to_string(),
            epochs: Vec::new(),
        };
        // Observability journal: spans advance on a logical clock — one
        // unit per iteration plus the elements each HiTopKComm report
        // charges — so the trace is deterministic and byte-stable across
        // runs.
        let mut reg = Registry::new();

        // Tensor-fusion plan for the dense paths: backward-order buckets
        // map to contiguous forward spans of the flat gradient, so each
        // bucket is one collective over one slice. The plan is a function
        // of the model and the config — published to the registry once.
        let elem_bytes = std::mem::size_of::<f32>();
        let spans = match cfg.fusion {
            FusionMode::WholeTensor => None,
            FusionMode::PerLayer => Some((plan_buckets(&ranges, elem_bytes, 1), 1usize)),
            FusionMode::Bucketed { threshold_bytes } => Some((
                plan_buckets(&ranges, elem_bytes, threshold_bytes),
                threshold_bytes,
            )),
            FusionMode::CostModel => {
                let model = cloud_calibrated_model(&ranges);
                Some(plan_buckets_cost_model(&ranges, elem_bytes, &model))
            }
        };
        let spans = spans.map(|(buckets, threshold)| {
            let spans = bucket_spans(&ranges, &buckets);
            let saved = (ranges.len() - spans.len()) as u64;
            reg.counter_add("fusion/buckets", spans.len() as u64);
            reg.counter_add("fusion/layers", ranges.len() as u64);
            reg.counter_add("fusion/messages_saved", saved);
            reg.gauge_set("fusion/threshold_bytes", threshold as f64);
            reg.gauge_set("fusion/payload_bytes", (d * elem_bytes) as f64);
            // Launch-latency seconds the plan saves per iteration relative
            // to a per-layer launch schedule, under the calibrated model.
            reg.gauge_set(
                "fusion/modeled_alpha_saved_seconds",
                saved as f64 * cloud_calibrated_model(&ranges).comm_alpha,
            );
            spans
        });

        // Resume from a segment snapshot: model replicas, optimizer
        // velocity, and this worker's error-feedback shard residual —
        // keyed by the *stable node id*, so a survivor keeps its residual
        // across a world-size change while a joiner starts from zeros.
        if let Some(init) = &seg.init {
            model.write_params(&init.params);
            velocity.copy_from_slice(&init.velocity);
            let node = seg.node_ids.get(rank / n).copied().unwrap_or(rank / n) as u64;
            if let Some(residual) = init.ef_shards.get(&(node, (rank % n) as u64)) {
                if residual.len() == shard_len {
                    ef_shard.set_residual(residual);
                }
            }
        }

        // The validation batch is a pure function of the config (the same
        // on every rank and in every epoch): synthesise it once.
        let val = adapt_input(cfg, data.val_batch(cfg));

        let mut step = seg.start_step;
        let mut epoch = seg.start_epoch;
        for (phase_idx, &(strategy, phase_epochs)) in phases.iter().enumerate() {
            if phase_idx > 0 {
                // Strategy switch: drop stale residuals (their content was
                // meaningful only under the previous sparsifier) and open a
                // fresh allocation window — the new schedule's first epoch
                // legitimately warms the arena up again.
                ef_full.reset();
                ef_shard.reset();
                scratch.reset_stats();
                miss_mark = 0;
            }
            for _ in 0..phase_epochs {
                let epoch_span = reg.span_open("train/epoch", reg.now());
                let mut loss_sum = 0.0f32;
                for _ in 0..cfg.iters_per_epoch {
                    reg.advance(1.0);
                    let batch = adapt_input(cfg, data.train_batch(cfg, step, rank));
                    let logits = model.forward(&batch.input, true);
                    let (loss, mut dlogits) = softmax_cross_entropy(&logits, &batch.labels);
                    loss_sum += loss;
                    if cfg.mixed_precision {
                        // Backprop on the scaled loss (linear, so scaling the
                        // logits gradient is equivalent).
                        scaler.scale_grad(dlogits.as_mut_slice());
                    }
                    model.backward(dlogits);
                    model.read_grads(&mut grads);
                    model.zero_grads();
                    if cfg.fp16_wire && !strategy.is_sparse() {
                        fp16_wire(&mut grads);
                    }

                    match strategy {
                        Strategy::DenseTreeAr => {
                            let members: Vec<usize> = (0..peer.size()).collect();
                            match &spans {
                                // Per-element reduction order in the double
                                // binary tree depends only on the member
                                // list, so bucketed launches are bitwise
                                // identical to the whole-tensor launch.
                                Some(spans) => {
                                    for s in spans {
                                        tree_all_reduce(
                                            transport,
                                            &mut grads[s.offset..s.offset + s.len],
                                            &members,
                                        );
                                    }
                                }
                                None => tree_all_reduce(transport, &mut grads, &members),
                            }
                        }
                        Strategy::DenseTorus => {
                            let whole = [cloudtrain_dnn::model::ParamRange { offset: 0, len: d }];
                            for s in spans.as_deref().unwrap_or(&whole) {
                                let g = &mut grads[s.offset..s.offset + s.len];
                                torus_all_reduce(transport, g, m, n);
                            }
                        }
                        Strategy::TopKNaiveAg { rho } => {
                            ef_full.compensate(&mut grads);
                            let k = ((d as f64 * rho).round() as usize).max(1);
                            // The selection is recomputed inside the collective;
                            // absorb needs it too, so compress once here.
                            let sel =
                                cloudtrain_compress::Compressor::compress(&mut exact, &grads, k);
                            ef_full.absorb(&grads, &sel);
                            sparse_all_reduce_naive(transport, &mut grads, k, &mut exact);
                        }
                        Strategy::MsTopKHiTopK { rho, .. } => {
                            // A member whose contribution the transport
                            // withholds ships an empty block; its shard
                            // gradient survives in `ef_shard`.
                            let report = hitopk_all_reduce_ef_scratch(
                                transport,
                                &mut grads,
                                m,
                                n,
                                rho,
                                &mut mstopk,
                                &mut ef_shard,
                                &mut scratch,
                            );
                            report.record(&mut reg, d, shard_len, m);
                        }
                        Strategy::GTopK { rho } => {
                            let k = ((d as f64 * rho).round() as usize).max(1);
                            gtopk_all_reduce_ef(
                                transport,
                                &mut grads,
                                k,
                                &mut exact,
                                &mut ef_full,
                                &mut scratch,
                            );
                        }
                        Strategy::Qsgd { .. } => {
                            // Unbiased quantization needs no error feedback.
                            quantized_all_reduce(transport, &mut grads, &mut qsgd);
                        }
                    }
                    ops::scale(&mut grads, 1.0 / world);
                    if cfg.mixed_precision {
                        // Unscale *after* aggregation: the aggregated gradient
                        // is identical on every rank, so the overflow/skip
                        // decision is too, keeping replicas in lockstep.
                        if !scaler.unscale_and_update(&mut grads) {
                            step += 1;
                            continue; // skipped step (grads were zeroed)
                        }
                    }

                    // Update.
                    let lr = schedule.lr(step);
                    model.read_params(&mut params);
                    match cfg.optimizer {
                        OptimizerKind::Lars => {
                            let rates = if cfg.use_pto {
                                cloudtrain_pto::lars_rates(
                                    peer, &params, &grads, &ranges, &lars_cfg,
                                )
                            } else {
                                compute_rates(&params, &grads, &ranges, &lars_cfg)
                            };
                            apply_with_rates(
                                &mut params,
                                &grads,
                                &mut velocity,
                                &ranges,
                                &rates,
                                lr,
                                &lars_cfg,
                            );
                        }
                        OptimizerKind::Momentum => {
                            for ((w, g), v) in params.iter_mut().zip(&grads).zip(&mut velocity) {
                                *v = 0.9 * *v + g;
                                *w -= lr * *v;
                            }
                        }
                        #[expect(
                            clippy::expect_used,
                            reason = "lamb state is constructed above whenever the optimizer kind is Lamb; a None is an engine wiring bug"
                        )]
                        OptimizerKind::Lamb => {
                            lamb.as_mut()
                                .expect("lamb state")
                                .step(&mut params, &grads, lr)
                        }
                        #[expect(
                            clippy::expect_used,
                            reason = "adam state is constructed above whenever the optimizer kind is Adam; a None is an engine wiring bug"
                        )]
                        OptimizerKind::Adam => {
                            adam.as_mut()
                                .expect("adam state")
                                .step(&mut params, &grads, lr)
                        }
                    }
                    model.write_params(&params);
                    step += 1;
                }

                // Validation (same batch on every rank — no communication).
                let logits = model.forward(&val.input, false);
                let top1 = top_k_accuracy(&logits, &val.labels, 1);
                let top5 = top_k_accuracy(&logits, &val.labels, 5.min(cfg.classes));
                let residual_norm = match strategy {
                    Strategy::TopKNaiveAg { .. } | Strategy::GTopK { .. } => {
                        ef_full.residual_norm()
                    }
                    Strategy::MsTopKHiTopK { .. } => ef_shard.residual_norm(),
                    _ => 0.0,
                };
                // Fault accounting: per-epoch deltas of the cumulative
                // resilience report and the arena's allocation counter.
                let fr = resilient.as_ref().map(|rp| rp.report()).unwrap_or_default();
                let misses = scratch.misses();
                let metrics = EpochMetrics {
                    epoch,
                    train_loss: loss_sum / cfg.iters_per_epoch as f32,
                    val_top1: top1,
                    val_top5: top5,
                    residual_norm,
                    fault_retries: fr.retries - fault_mark.retries,
                    fault_degraded: fr.degraded_members - fault_mark.degraded_members,
                    scratch_misses: (misses - miss_mark) as u64,
                };
                reg.counter_add("train/fault_retries", metrics.fault_retries);
                reg.counter_add("train/fault_degraded", metrics.fault_degraded);
                reg.counter_add("train/scratch_misses", metrics.scratch_misses);
                report.epochs.push(metrics);
                reg.span_close(epoch_span, reg.now());
                fault_mark = fr;
                miss_mark = misses;
                epoch += 1;
                // Keep collective schedules aligned across ranks.
                let _ = all_gather_f32(peer, &[top1], &(0..peer.size()).collect::<Vec<_>>());
            }
        }
        reg.counter_add("train/epochs", report.epochs.len() as u64);
        reg.gauge_set("train/final_top1", report.final_top1() as f64);
        reg.gauge_set("train/final_top5", report.final_top5() as f64);
        if let Some(last) = report.epochs.last() {
            reg.gauge_set("train/final_loss", last.train_loss as f64);
            reg.gauge_set("train/residual_norm", last.residual_norm as f64);
        }
        scratch.publish_obs(&mut reg);
        model.read_params(&mut params);
        let end = SegmentEnd {
            params,
            velocity,
            ef_shard: ef_shard.residual().to_vec(),
            step,
        };
        (report, reg, end)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn quick(strategy: Strategy, workload: Workload) -> DistConfig {
        DistConfig {
            epochs: 2,
            iters_per_epoch: 8,
            ..DistConfig::small(strategy, workload)
        }
    }

    #[test]
    fn dense_training_learns_and_ranks_agree() {
        let trainer = DistTrainer::new(quick(Strategy::DenseTorus, Workload::Mlp));
        let reports = trainer.run_all_ranks();
        let first = &reports[0];
        assert!(
            first.final_top1() > 0.6,
            "val acc {} too low; losses {:?}",
            first.final_top1(),
            first.epochs
        );
        for r in &reports[1..] {
            assert_eq!(r.epochs.len(), first.epochs.len());
            for (a, b) in r.epochs.iter().zip(&first.epochs) {
                // Validation runs on the same batch with synced replicas,
                // so it must agree bitwise. Train loss is local to each
                // rank's data shard and legitimately differs.
                assert_eq!(a.val_top1, b.val_top1, "ranks diverged");
                assert_eq!(a.val_top5, b.val_top5);
            }
        }
    }

    #[test]
    fn tree_and_torus_dense_agree() {
        let a = DistTrainer::new(quick(Strategy::DenseTreeAr, Workload::Mlp)).run();
        let b = DistTrainer::new(quick(Strategy::DenseTorus, Workload::Mlp)).run();
        // Both are exact dense sums; training curves match to float noise.
        for (ea, eb) in a.epochs.iter().zip(&b.epochs) {
            assert!(
                (ea.train_loss - eb.train_loss).abs() < 1e-3,
                "dense variants diverged: {} vs {}",
                ea.train_loss,
                eb.train_loss
            );
        }
    }

    #[test]
    fn sparse_strategies_learn_with_error_feedback() {
        for strategy in [
            Strategy::TopKNaiveAg { rho: 0.05 },
            Strategy::MsTopKHiTopK {
                rho: 0.05,
                samplings: 20,
            },
        ] {
            let mut cfg = quick(strategy, Workload::Mlp);
            cfg.epochs = 3;
            let report = DistTrainer::new(cfg).run();
            assert!(
                report.final_top1() > 0.5,
                "{} failed to learn: {:?}",
                report.strategy,
                report.epochs
            );
            assert!(report.epochs.last().unwrap().residual_norm > 0.0);
        }
    }

    #[test]
    fn mstopk_ranks_stay_bitwise_synced() {
        let trainer = DistTrainer::new(quick(
            Strategy::MsTopKHiTopK {
                rho: 0.1,
                samplings: 15,
            },
            Workload::Mlp,
        ));
        let reports = trainer.run_all_ranks();
        for r in &reports[1..] {
            for (a, b) in r.epochs.iter().zip(&reports[0].epochs) {
                assert_eq!(a.val_top1, b.val_top1);
            }
        }
    }

    #[test]
    fn gtopk_learns_with_error_feedback() {
        let mut cfg = quick(Strategy::GTopK { rho: 0.05 }, Workload::Mlp);
        cfg.epochs = 3;
        let report = DistTrainer::new(cfg).run();
        assert!(
            report.final_top1() > 0.5,
            "gTopK failed to learn: {:?}",
            report.epochs
        );
        assert!(report.epochs.last().unwrap().residual_norm > 0.0);
    }

    #[test]
    #[should_panic(expected = "gtopk needs a power-of-two world")]
    fn gtopk_on_three_ranks_is_refused_before_any_rank_starts() {
        // Inside a rank the executed collective's own assert would surface
        // only as "worker thread panicked".
        let mut cfg = quick(Strategy::GTopK { rho: 0.05 }, Workload::Mlp);
        (cfg.nodes, cfg.gpus_per_node) = (3, 1);
        DistTrainer::new(cfg).run();
    }

    #[test]
    fn qsgd_learns_without_error_feedback() {
        let mut cfg = quick(Strategy::Qsgd { levels: 127 }, Workload::Mlp);
        cfg.epochs = 3;
        let report = DistTrainer::new(cfg).run();
        assert!(
            report.final_top1() > 0.5,
            "QSGD failed to learn: {:?}",
            report.epochs
        );
        // Unbiased quantization runs without a residual.
        assert_eq!(report.epochs.last().unwrap().residual_norm, 0.0);
    }

    #[test]
    fn qsgd_ranks_stay_synced_despite_stochastic_codes() {
        // Per-rank RNGs differ, but the aggregated (gathered + decoded)
        // gradient is identical everywhere, so replicas stay in lockstep.
        let trainer = DistTrainer::new(quick(Strategy::Qsgd { levels: 63 }, Workload::Mlp));
        let reports = trainer.run_all_ranks();
        for r in &reports[1..] {
            for (a, b) in r.epochs.iter().zip(&reports[0].epochs) {
                assert_eq!(a.val_top1, b.val_top1);
            }
        }
    }

    #[test]
    fn mixed_precision_with_fp16_wire_learns_and_stays_synced() {
        let mut cfg = quick(Strategy::DenseTorus, Workload::Mlp);
        cfg.mixed_precision = true;
        cfg.fp16_wire = true;
        cfg.epochs = 3;
        let reports = DistTrainer::new(cfg).run_all_ranks();
        assert!(
            reports[0].final_top1() > 0.6,
            "mixed precision failed to learn: {:?}",
            reports[0].epochs
        );
        for r in &reports[1..] {
            assert_eq!(
                r.final_top1(),
                reports[0].final_top1(),
                "loss-scaled replicas diverged"
            );
        }
    }

    #[test]
    fn fp16_wire_tracks_fp32_training() {
        let base = quick(Strategy::DenseTorus, Workload::Mlp);
        let fp32 = DistTrainer::new(base.clone()).run();
        let mut cfg = base;
        cfg.fp16_wire = true;
        let fp16 = DistTrainer::new(cfg).run();
        // Half-precision wire loses ~2^-11 relative per element; training
        // outcomes stay close.
        assert!(
            (fp16.final_top1() - fp32.final_top1()).abs() < 0.1,
            "fp16 wire diverged: {} vs {}",
            fp16.final_top1(),
            fp32.final_top1()
        );
    }

    #[test]
    fn fp16_wire_follows_the_running_phase_strategy() {
        // The FP16 wire is emulated on the dense paths only: a sparse phase
        // of a run configured dense must aggregate full-precision
        // gradients, so turning the wire on changes none of its bits.
        let base = quick(Strategy::DenseTorus, Workload::Mlp);
        let sparse = [(
            Strategy::MsTopKHiTopK {
                rho: 0.05,
                samplings: 20,
            },
            1,
        )];
        let fp32 = DistTrainer::new(base.clone()).run_phases(&sparse);
        let mut cfg = base;
        cfg.fp16_wire = true;
        let fp16 = DistTrainer::new(cfg).run_phases(&sparse);
        for (a, b) in fp16.epochs.iter().zip(&fp32.epochs) {
            assert_eq!(a.train_loss.to_bits(), b.train_loss.to_bits());
            assert_eq!(a.val_top1.to_bits(), b.val_top1.to_bits());
            assert_eq!(a.residual_norm.to_bits(), b.residual_norm.to_bits());
        }
    }

    #[test]
    fn phase_switching_continues_the_same_model() {
        // Warmup sparse, then dense — accuracy must carry over the switch
        // (the same replicas keep training), and the residual must reset.
        let cfg = quick(Strategy::DenseTorus, Workload::Mlp);
        let report = DistTrainer::new(cfg).run_phases(&[
            (
                Strategy::MsTopKHiTopK {
                    rho: 0.05,
                    samplings: 20,
                },
                2,
            ),
            (Strategy::DenseTorus, 2),
        ]);
        assert_eq!(report.epochs.len(), 4);
        // The sparse phase accumulates a residual; the dense phase has none.
        assert!(report.epochs[1].residual_norm > 0.0);
        assert_eq!(report.epochs[2].residual_norm, 0.0);
        // No catastrophic reset of learning across the switch.
        let before = report.epochs[1].val_top1;
        let after = report.epochs[2].val_top1;
        assert!(
            after >= before - 0.1,
            "switch destroyed progress: {before} -> {after}"
        );
        assert!(report.final_top1() > 0.6, "{:?}", report.epochs);
    }

    #[test]
    fn lamb_and_adam_optimizers_train_the_transformer() {
        for optimizer in [OptimizerKind::Lamb, OptimizerKind::Adam] {
            let mut cfg = quick(Strategy::DenseTorus, Workload::Transformer);
            cfg.optimizer = optimizer;
            cfg.lr = 0.01;
            cfg.epochs = 3;
            cfg.iters_per_epoch = 10;
            let report = DistTrainer::new(cfg).run();
            let first = report.epochs.first().unwrap().train_loss;
            let last = report.epochs.last().unwrap().train_loss;
            assert!(
                last < first,
                "{optimizer:?} failed to reduce loss: {first} -> {last}"
            );
        }
    }

    /// The acceptance scenario: 1% hop drops plus two stragglers whose
    /// contributions frequently degrade to empty blocks.
    fn hostile_faults() -> FaultConfig {
        FaultConfig::new(77)
            .with_drops(0.01)
            .straggle(1, 0.7)
            .straggle(5, 0.7)
    }

    #[test]
    fn resilient_hitopk_completes_and_converges_under_faults() {
        let mut clean_cfg = quick(
            Strategy::MsTopKHiTopK {
                rho: 0.05,
                samplings: 20,
            },
            Workload::Mlp,
        );
        clean_cfg.epochs = 3;
        let mut faulty_cfg = clean_cfg.clone();
        faulty_cfg.faults = Some(hostile_faults());

        let clean = DistTrainer::new(clean_cfg).run();
        let reports = DistTrainer::new(faulty_cfg).run_all_ranks();
        let faulty = &reports[0];

        // Every simulated step completed: full epoch roster, replicas in
        // lockstep despite per-rank degradation decisions.
        assert_eq!(faulty.epochs.len(), clean.epochs.len());
        for r in &reports[1..] {
            for (a, b) in r.epochs.iter().zip(&faulty.epochs) {
                assert_eq!(a.val_top1, b.val_top1, "faulted ranks diverged");
            }
        }
        // Converges within tolerance of the fault-free run.
        assert!(
            faulty.final_top1() > 0.5,
            "faulted run failed to learn: {:?}",
            faulty.epochs
        );
        assert!(
            (faulty.final_top1() - clean.final_top1()).abs() < 0.2,
            "faulted {} vs clean {} outside tolerance",
            faulty.final_top1(),
            clean.final_top1()
        );
        // The stragglers really did degrade (rank 1 is one of them), and the
        // retry ladder really did fire somewhere.
        let total_degraded: u64 = reports[1].epochs.iter().map(|e| e.fault_degraded).sum();
        assert!(total_degraded > 0, "straggler never degraded");
        let total_retries: u64 = reports
            .iter()
            .flat_map(|r| r.epochs.iter().map(|e| e.fault_retries))
            .sum();
        assert!(total_retries > 0, "1% drops never triggered a retry");
    }

    #[test]
    fn resilient_dense_torus_matches_clean_run_exactly() {
        // Hop drops are virtual: the retry ladder charges time but every
        // payload still arrives, so training under heavy drops is bitwise
        // the clean run — on every strategy that draws no degradation, so
        // a fault plan reaches each of them.
        for strategy in [
            Strategy::DenseTorus,
            Strategy::DenseTreeAr,
            Strategy::TopKNaiveAg { rho: 0.05 },
            Strategy::Qsgd { levels: 127 },
        ] {
            let base = quick(strategy, Workload::Mlp);
            let clean = DistTrainer::new(base.clone()).run();
            let mut cfg = base;
            cfg.faults = Some(FaultConfig::new(9).with_drops(0.3));
            let faulty = DistTrainer::new(cfg).run();
            for (a, b) in clean.epochs.iter().zip(&faulty.epochs) {
                assert_eq!(a.val_top1.to_bits(), b.val_top1.to_bits(), "{strategy:?}");
                assert_eq!(
                    a.train_loss.to_bits(),
                    b.train_loss.to_bits(),
                    "{strategy:?}"
                );
            }
            let retries: u64 = faulty.epochs.iter().map(|e| e.fault_retries).sum();
            assert!(
                retries > 0,
                "{strategy:?}: 30% drops must exercise the ladder"
            );
            assert_eq!(
                faulty.epochs.iter().map(|e| e.fault_degraded).sum::<u64>(),
                0,
                "{strategy:?}"
            );
        }
    }

    #[test]
    fn resilient_gtopk_learns_and_ranks_agree_under_faults() {
        let mut cfg = quick(Strategy::GTopK { rho: 0.05 }, Workload::Mlp);
        cfg.epochs = 3;
        cfg.faults = Some(FaultConfig::new(3).with_drops(0.02).with_degrade(0.2));
        let reports = DistTrainer::new(cfg).run_all_ranks();
        for r in &reports[1..] {
            for (a, b) in r.epochs.iter().zip(&reports[0].epochs) {
                assert_eq!(a.val_top1, b.val_top1, "gtopk faulted ranks diverged");
            }
        }
        assert!(
            reports[0].final_top1() > 0.5,
            "faulted gtopk failed to learn: {:?}",
            reports[0].epochs
        );
        assert!(reports[0].epochs.last().unwrap().residual_norm > 0.0);
    }

    #[test]
    fn scratch_misses_reach_zero_steady_state_under_faults() {
        let mut cfg = quick(
            Strategy::MsTopKHiTopK {
                rho: 0.1,
                samplings: 15,
            },
            Workload::Mlp,
        );
        cfg.epochs = 3;
        cfg.faults = Some(hostile_faults());
        let report = DistTrainer::new(cfg).run();
        assert!(report.epochs[0].scratch_misses > 0, "warmup must allocate");
        for e in &report.epochs[1..] {
            assert_eq!(
                e.scratch_misses, 0,
                "epoch {} allocated on the comm path under faults",
                e.epoch
            );
        }
    }

    #[test]
    fn faulted_phase_switch_keeps_training() {
        // DAWNBench mechanic under faults: sparse warmup phase, then dense —
        // the switch resets residuals and the allocation window, and the
        // model keeps converging.
        let mut cfg = quick(Strategy::DenseTorus, Workload::Mlp);
        cfg.faults = Some(hostile_faults());
        let report = DistTrainer::new(cfg).run_phases(&[
            (
                Strategy::MsTopKHiTopK {
                    rho: 0.05,
                    samplings: 20,
                },
                2,
            ),
            (Strategy::DenseTorus, 2),
        ]);
        assert_eq!(report.epochs.len(), 4);
        assert_eq!(report.epochs[2].residual_norm, 0.0);
        assert_eq!(report.epochs[2].fault_degraded, 0, "dense phase degraded");
        let before = report.epochs[1].val_top1;
        let after = report.epochs[2].val_top1;
        assert!(
            after >= before - 0.1,
            "faulted switch destroyed progress: {before} -> {after}"
        );
        assert!(report.final_top1() > 0.6, "{:?}", report.epochs);
    }

    #[test]
    fn observed_run_matches_plain_and_records_trace() {
        let cfg = quick(
            Strategy::MsTopKHiTopK {
                rho: 0.1,
                samplings: 15,
            },
            Workload::Mlp,
        );
        let plain = DistTrainer::new(cfg.clone()).run();
        let (observed, reg) = DistTrainer::new(cfg.clone()).run_observed();
        // Instrumentation must not perturb training.
        assert_eq!(plain.final_top1(), observed.final_top1());
        for (a, b) in plain.epochs.iter().zip(&observed.epochs) {
            assert_eq!(a.val_top1, b.val_top1);
            assert_eq!(a.train_loss, b.train_loss);
        }
        // One epoch span per epoch, HiTopKComm stage spans nested inside.
        let epoch_spans: Vec<_> = reg
            .spans()
            .iter()
            .filter(|s| s.name == "train/epoch")
            .collect();
        assert_eq!(epoch_spans.len(), cfg.epochs);
        assert!(epoch_spans.iter().all(|s| s.depth == 0));
        let hitopk_iters = cfg.epochs * cfg.iters_per_epoch;
        assert_eq!(
            reg.counter("hitopk/invocations"),
            hitopk_iters as u64,
            "one recorded hitopk per iteration"
        );
        assert!(reg
            .spans()
            .iter()
            .any(|s| s.name == "hitopk/inter all-gather" && s.depth == 1));
        // Each step charges rank 0's four stages in elements touched.
        let (m, n) = (cfg.nodes, cfg.gpus_per_node);
        let d = build_model(&cfg).param_count();
        let shard_len = partition::shard_for(d, n, 0).len();
        let k = cloudtrain_collectives::hierarchical::shard_k(d, n, 0.1).min(shard_len);
        for (name, units) in [
            ("hitopk/intra reduce-scatter", d),
            ("hitopk/top-k compression", shard_len),
            ("hitopk/inter all-gather", 2 * m * k),
            ("hitopk/intra all-gather", d),
        ] {
            assert_eq!(
                reg.span_total(name),
                (hitopk_iters * units) as f64,
                "{name}"
            );
        }
        assert_eq!(reg.counter("train/epochs"), cfg.epochs as u64);
        assert_eq!(
            reg.gauge("train/final_top1"),
            Some(observed.final_top1() as f64)
        );
        assert!(reg.counter("scratch/f32_takes") > 0);
        // Same-seed traces are byte-identical.
        let (_, reg2) = DistTrainer::new(cfg).run_observed();
        assert_eq!(reg.to_jsonl(), reg2.to_jsonl());
    }

    #[test]
    fn bucketed_tree_allreduce_is_bitwise_whole_tensor() {
        // The double binary tree reduces each element in a rank order fixed
        // by the member list alone, so bucketing cannot change bits.
        let base = quick(Strategy::DenseTreeAr, Workload::Mlp);
        let whole = DistTrainer::new(base.clone()).run();
        for fusion in [
            FusionMode::PerLayer,
            FusionMode::Bucketed {
                threshold_bytes: 16 * 1024,
            },
        ] {
            let mut cfg = base.clone();
            cfg.fusion = fusion;
            let bucketed = DistTrainer::new(cfg).run();
            for (a, b) in bucketed.epochs.iter().zip(&whole.epochs) {
                assert_eq!(a.train_loss, b.train_loss, "{fusion:?} changed training");
                assert_eq!(a.val_top1, b.val_top1);
            }
        }
    }

    #[test]
    fn bucketed_torus_tracks_whole_tensor_and_ranks_agree() {
        // Torus shard boundaries move with the launch length, so bucketing
        // reassociates the sum: equal within float noise, not bitwise.
        let base = quick(Strategy::DenseTorus, Workload::Mlp);
        let whole = DistTrainer::new(base.clone()).run();
        let mut cfg = base;
        cfg.fusion = FusionMode::CostModel;
        let reports = DistTrainer::new(cfg).run_all_ranks();
        for r in &reports[1..] {
            for (a, b) in r.epochs.iter().zip(&reports[0].epochs) {
                assert_eq!(a.val_top1, b.val_top1, "bucketed ranks diverged");
            }
        }
        for (a, b) in reports[0].epochs.iter().zip(&whole.epochs) {
            assert!(
                (a.train_loss - b.train_loss).abs() < 1e-3,
                "bucketed torus diverged: {} vs {}",
                a.train_loss,
                b.train_loss
            );
        }
        assert!(reports[0].final_top1() > 0.6, "{:?}", reports[0].epochs);
    }

    #[test]
    fn fusion_stats_reach_the_registry_and_stay_byte_stable() {
        let mut cfg = quick(Strategy::DenseTorus, Workload::Mlp);
        cfg.fusion = FusionMode::CostModel;
        let (_, reg) = DistTrainer::new(cfg.clone()).run_observed();
        let buckets = reg.counter("fusion/buckets");
        let layers = reg.counter("fusion/layers");
        assert!(buckets >= 1);
        assert!(layers >= buckets);
        assert_eq!(reg.counter("fusion/messages_saved"), layers - buckets);
        assert!(reg.gauge("fusion/threshold_bytes").unwrap_or(0.0) >= 1.0);
        assert!(reg.gauge("fusion/payload_bytes").unwrap_or(0.0) > 0.0);
        // Same-seed bucketed traces are byte-identical.
        let (_, reg2) = DistTrainer::new(cfg).run_observed();
        assert_eq!(reg.to_jsonl(), reg2.to_jsonl());
    }

    #[test]
    fn dist_config_without_fusion_fields_deserializes() {
        // Configs serialized before the fusion knobs existed must load
        // with the whole-tensor default; so must configs that still carry
        // the retired compress–reduce and rank-reorder knobs (fields are
        // looked up by name, extra keys are ignored).
        let mut v = Serialize::to_value(&quick(Strategy::DenseTorus, Workload::Mlp));
        let serde::Value::Object(entries) = &mut v else {
            panic!("DistConfig must serialize to an object");
        };
        entries.retain(|(k, _)| k != "fusion");
        let mut retired = entries.clone();
        retired.push(("fused_compress_reduce".into(), serde::Value::Bool(true)));
        retired.push(("rank_reorder".into(), serde::Value::Bool(true)));
        for v in [v, serde::Value::Object(retired)] {
            let cfg = DistConfig::from_value(&v).unwrap();
            assert_eq!(cfg.fusion, FusionMode::WholeTensor);
        }
    }

    #[test]
    fn transformer_workload_trains() {
        let mut cfg = quick(Strategy::DenseTorus, Workload::Transformer);
        cfg.lr = 0.02;
        cfg.epochs = 3;
        cfg.iters_per_epoch = 10;
        let report = DistTrainer::new(cfg).run();
        let first = report.epochs.first().unwrap().train_loss;
        let last = report.epochs.last().unwrap().train_loss;
        assert!(
            last < first,
            "transformer loss did not drop: {first} -> {last}"
        );
    }
}
