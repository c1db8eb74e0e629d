//! The two training workloads: `train_sparse_resnet` (the paper's recipe end
//! to end) and `train_dense_tfm` (the bypass for everything sparse).
//!
//! Untraced, a rep is one `DistTrainer::run_all_ranks` call. Traced, the
//! same schedule is also recomposed from the dnn / compress / collectives /
//! pto / optim layers' public functions with a span around each call; the
//! traced run fails unless the recomposition reproduces the trainer's loss
//! bit for bit, so the spans time the arithmetic the trainer runs.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::AtomicBool;
use std::time::Instant;

use cloudtrain::collectives::hierarchical::hitopk_all_reduce_ef_scratch;
use cloudtrain::collectives::torus::torus_all_reduce;
use cloudtrain::collectives::{CommScratch, Peer};
use cloudtrain::compress::{Compressor, ErrorFeedback, MsTopK};
use cloudtrain::dnn::data::{Batch, SyntheticImages, SyntheticSeq};
use cloudtrain::dnn::loss::softmax_cross_entropy;
use cloudtrain::dnn::model::ParamRange;
use cloudtrain::dnn::models::{resnet_lite, TransformerModel};
use cloudtrain::engine::fusion::{bucket_spans, cloud_calibrated_model, plan_buckets_cost_model};
use cloudtrain::engine::TrainReport;
use cloudtrain::obs::Registry;
use cloudtrain::optim::lars::{apply_with_rates, compute_rates, LarsConfig};
use cloudtrain::optim::schedule::{LrSchedule, WarmupCosine};
use cloudtrain::optim::sgd::Momentum;
use cloudtrain::optim::Optimizer;
use cloudtrain::prelude::*;
use cloudtrain::tensor::partition::shard_for;
use cloudtrain::tensor::{init, ops};

use crate::hitopk::hitopk_ef_recomposed;
use crate::inputs::{fnv1a, heavy_tailed};
use crate::report::Outcome;
use crate::stats::{median, tail};
use crate::sys::CpuClock;
use crate::trace::{per_step_ms, self_ns, Span, Tracer};
use crate::{agree, hitopk, Plan};

/// World shape of every threaded workload: the smallest two-level grid in
/// which no HiTopKComm stage degenerates, and 2× the cores of the box.
pub const NODES: usize = 2;
/// GPUs (rank threads) per node.
pub const GPUS: usize = 2;

/// Which of the two training workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TrainKind {
    /// ResNet-lite, MSTopK over HiTopKComm, LARS through PTO.
    SparseResnet,
    /// Transformer, dense 2D-torus with cost-model fusion, momentum SGD.
    DenseTfm,
}

impl TrainKind {
    /// The fixed configuration of one rep.
    pub fn config(self, seed: u64) -> DistConfig {
        let base = |strategy, workload| DistConfig {
            nodes: NODES,
            gpus_per_node: GPUS,
            local_batch: 8,
            seed,
            ..DistConfig::small(strategy, workload)
        };
        match self {
            TrainKind::SparseResnet => DistConfig {
                epochs: 2,
                iters_per_epoch: 24,
                optimizer: OptimizerKind::Lars,
                use_pto: true,
                ..base(Strategy::mstopk_default(), Workload::ResNetLite)
            },
            TrainKind::DenseTfm => DistConfig {
                epochs: 1,
                iters_per_epoch: 300,
                optimizer: OptimizerKind::Momentum,
                use_pto: false,
                lr: 0.02,
                fusion: FusionMode::CostModel,
                ..base(Strategy::DenseTorus, Workload::Transformer)
            },
        }
    }

    /// The same run with an exact aggregation, for `quality_gap`: the dense
    /// torus for the sparse workload, the tree AllReduce for the dense one,
    /// both unfused.
    fn reference_config(self, seed: u64) -> DistConfig {
        DistConfig {
            strategy: match self {
                TrainKind::SparseResnet => Strategy::DenseTorus,
                TrainKind::DenseTfm => Strategy::DenseTreeAr,
            },
            fusion: FusionMode::WholeTensor,
            ..self.config(seed)
        }
    }

    /// The performance plane's prediction of one iteration of the paper-size
    /// counterpart of this configuration on 16 Tencent nodes, ms.
    fn cloud_step_ms(self) -> f64 {
        let (system, profile) = match self {
            TrainKind::SparseResnet => (SystemConfig::paper_full(), ModelProfile::resnet50_96()),
            TrainKind::DenseTfm => (
                SystemConfig {
                    strategy: Strategy::DenseTorus,
                    datacache: true,
                    pto: false,
                },
                ModelProfile::transformer(),
            ),
        };
        IterationModel::new(clouds::tencent(16), system, profile)
            .breakdown()
            .total
            * 1e3
    }
}

fn steps_per_rep(cfg: &DistConfig) -> usize {
    cfg.epochs * cfg.iters_per_epoch
}

/// What is compared between reps: every number of one rank's report.
fn fingerprint(report: &TrainReport) -> u64 {
    let mut bytes = Vec::new();
    for e in &report.epochs {
        for v in [e.train_loss, e.val_top1, e.val_top5, e.residual_norm] {
            bytes.extend_from_slice(&v.to_bits().to_le_bytes());
        }
        bytes.extend_from_slice(&e.scratch_misses.to_le_bytes());
    }
    fnv1a(&bytes)
}

/// Mean training loss over the whole rep: how fast the run converged.
fn mean_loss(report: &TrainReport) -> f64 {
    let sum: f64 = report.epochs.iter().map(|e| f64::from(e.train_loss)).sum();
    sum / report.epochs.len() as f64
}

fn last_loss(report: &TrainReport) -> Result<f32, String> {
    let last = report.epochs.last().ok_or("report has no epoch")?;
    if report.epochs.iter().all(|e| e.train_loss.is_finite()) {
        Ok(last.train_loss)
    } else {
        Err("non-finite training loss".into())
    }
}

/// Replicas with synchronised parameters validate on one batch, so every
/// rank must report the same accuracies bit for bit (training loss is per
/// data shard and legitimately differs). Only for models whose evaluation
/// depends on parameters alone: ResNet-lite's batch norms keep per-rank
/// running statistics, which the trainer does not synchronise, so its ranks
/// legitimately validate differently; their replicas are compared in the
/// traced run instead, parameter by parameter.
fn ranks_agree(cfg: &DistConfig, reports: &[TrainReport]) -> Result<(), String> {
    if cfg.workload != Workload::Transformer {
        return Ok(());
    }
    let first = &reports[0];
    for (rank, r) in reports.iter().enumerate().skip(1) {
        let same = r.epochs.len() == first.epochs.len()
            && r.epochs.iter().zip(&first.epochs).all(|(a, b)| {
                a.val_top1.to_bits() == b.val_top1.to_bits()
                    && a.val_top5.to_bits() == b.val_top5.to_bits()
            });
        if !same {
            return Err(format!("rank {rank} diverged from rank 0"));
        }
    }
    Ok(())
}

/// One rep through the trainer's top-level entry point: its wall time, the
/// reports (every rank's, or rank 0's alone for an observed rep) and, for an
/// observed rep, rank 0's registry.
type Rep = (f64, Vec<TrainReport>, Option<Registry>);

fn run_rep(cfg: &DistConfig, observed: bool) -> Result<Rep, String> {
    let start = Instant::now();
    let run = catch_unwind(AssertUnwindSafe(|| {
        let trainer = DistTrainer::new(cfg.clone());
        if observed {
            let (report, reg) = trainer.run_observed();
            (vec![report], Some(reg))
        } else {
            (trainer.run_all_ranks(), None)
        }
    }));
    let wall = start.elapsed().as_secs_f64();
    let (reports, reg) = run.map_err(|_| "a rank panicked".to_string())?;
    ranks_agree(cfg, &reports)?;
    for r in &reports {
        last_loss(r)?;
    }
    Ok((wall, reports, reg))
}

/// Holds every rep of a run to its first: a rep's reports must reproduce,
/// rank by rank, the fingerprints of the reps before it.
#[derive(Default)]
struct Reps {
    reference: Vec<u64>,
    rank0: Option<TrainReport>,
}

impl Reps {
    fn record(
        &mut self,
        outcome: &mut Outcome,
        rep: Result<Rep, String>,
    ) -> Option<(f64, Option<Registry>)> {
        match rep {
            Ok((wall, mut reports, reg)) => {
                let mut same = true;
                for (rank, report) in reports.iter().enumerate() {
                    let fp = fingerprint(report);
                    match self.reference.get(rank) {
                        Some(want) => same &= *want == fp,
                        None => self.reference.push(fp),
                    }
                }
                outcome.check(if same {
                    Ok(())
                } else {
                    Err("a rep's reports differ from an earlier rep's".into())
                });
                self.rank0 = Some(reports.swap_remove(0));
                Some((wall, reg))
            }
            Err(why) => {
                outcome.check(Err(why));
                None
            }
        }
    }
}

/// Slow-link KB per rank per step, from the counters of one observed rep.
fn wire_kb_per_step(cfg: &DistConfig, reg: &Registry) -> f64 {
    let (m, n) = (cfg.nodes as f64, cfg.gpus_per_node as f64);
    let bytes = match cfg.strategy {
        Strategy::MsTopKHiTopK { .. } => {
            reg.counter("hitopk/inter_bytes_sent") as f64 / steps_per_rep(cfg) as f64
        }
        // The inter-node ring AllReduce of the 2D torus moves 2(m−1)/m of
        // each rank's 1/n shard.
        _ => reg.gauge("fusion/payload_bytes").unwrap_or(0.0) * 2.0 * (m - 1.0) / (m * n),
    };
    bytes / 1024.0
}

/// The untraced run: set-up reps, then timed reps until the budget is spent.
pub fn run_untraced(kind: TrainKind, plan: &Plan) -> Outcome {
    let cfg = kind.config(plan.seed);
    let steps = steps_per_rep(&cfg);
    let mut outcome = Outcome::default();
    let mut reps = Reps::default();

    // Set-up: a cold start is thread spawn, model and data construction,
    // scratch-arena first touch and one full rep. Observed reps run the same
    // worker code and also hand back the wire counters.
    let mut setup = Vec::new();
    let mut registry = None;
    for _ in 0..plan.setup_reps() {
        if let Some((wall, reg)) = reps.record(&mut outcome, run_rep(&cfg, true)) {
            setup.push(wall);
            registry = reg;
        }
    }

    // The exact-aggregation reference of the same seed, for `quality_gap`.
    let reference_loss = match run_rep(&kind.reference_config(plan.seed), false) {
        Ok((_, reports, _)) => {
            outcome.check(Ok(()));
            mean_loss(&reports[0])
        }
        Err(why) => {
            outcome.check(Err(format!("reference run: {why}")));
            return outcome;
        }
    };

    let timed = Instant::now();
    let (mut walls, mut cpus) = (Vec::new(), Vec::new());
    while walls.len() < plan.min_count(3) || timed.elapsed().as_secs_f64() < plan.seconds {
        let cpu = CpuClock::process();
        match reps.record(&mut outcome, run_rep(&cfg, false)) {
            Some((wall, _)) => {
                walls.push(wall);
                cpus.push(cpu.elapsed_s());
            }
            None => break,
        }
    }

    let (Some(report), Some(reg), false) = (&reps.rank0, &registry, walls.is_empty()) else {
        return outcome; // every rep failed; the failures are in the outcome
    };
    outcome.put("steps_per_s", steps as f64 / median(&walls), walls.len());
    outcome.put(
        "cpu_ms_per_step",
        median(&cpus) * 1e3 / steps as f64,
        cpus.len(),
    );
    outcome.put("setup_s", median(&setup), setup.len());
    outcome.put("quality_gap", mean_loss(report) / reference_loss, 1);
    outcome.put("cloud_step_ms", kind.cloud_step_ms(), 1);
    outcome.put("wire_kb_per_step", wire_kb_per_step(&cfg, reg), 1);
    outcome
}

/// One rank's data source, indexed as the trainer indexes it.
enum Data {
    Images(SyntheticImages),
    Seq(SyntheticSeq),
}

impl Data {
    fn batch(&self, cfg: &DistConfig, step: u64, rank: usize) -> Batch {
        let start = (step * cfg.world() as u64 + rank as u64) * cfg.local_batch as u64;
        match self {
            Data::Images(g) => g.batch(start, cfg.local_batch),
            Data::Seq(g) => g.batch(start, cfg.local_batch),
        }
    }
}

/// Per-rank state of the recomposed training step.
struct Replica {
    model: Box<dyn Model>,
    data: Data,
    ranges: Vec<ParamRange>,
    /// Forward spans of the fusion buckets (dense path).
    buckets: Vec<ParamRange>,
    params: Vec<f32>,
    grads: Vec<f32>,
    velocity: Vec<f32>,
    momentum: Momentum,
    mstopk: MsTopK,
    ef_shard: ErrorFeedback,
    scratch: CommScratch,
}

impl Replica {
    /// Builds what `DistTrainer`'s worker builds, from the same seeds.
    fn new(cfg: &DistConfig, rank: usize) -> Self {
        let mut rng = init::rng_from_seed(cfg.seed);
        let (model, data): (Box<dyn Model>, _) = match cfg.workload {
            Workload::ResNetLite => (
                Box::new(resnet_lite(8, cfg.classes, &mut rng)),
                Data::Images(SyntheticImages::new(cfg.classes, 3, 16, 0.6, cfg.seed)),
            ),
            Workload::Transformer => (
                Box::new(TransformerModel::new(64, 16, 16, 2, cfg.classes, &mut rng)),
                Data::Seq(SyntheticSeq::new(cfg.classes, 64, 16, cfg.seed)),
            ),
            other => panic!("no traced replica for {other:?}"),
        };
        let d = model.param_count();
        let ranges = model.layer_ranges();
        let buckets = match cfg.fusion {
            FusionMode::CostModel => {
                let (plan, _) =
                    plan_buckets_cost_model(&ranges, 4, &cloud_calibrated_model(&ranges));
                bucket_spans(&ranges, &plan)
            }
            _ => vec![ParamRange { offset: 0, len: d }],
        };
        let shard_len = shard_for(d, cfg.gpus_per_node, rank % cfg.gpus_per_node).len();
        Self {
            model,
            data,
            ranges,
            buckets,
            params: vec![0.0; d],
            grads: vec![0.0; d],
            velocity: vec![0.0; d],
            momentum: Momentum::new(d, 0.9, 0.0),
            mstopk: MsTopK::new(30, cfg.seed),
            ef_shard: ErrorFeedback::new(shard_len),
            scratch: CommScratch::new(),
        }
    }

    /// One training step, a span around every call into a layer. `gstep`
    /// numbers the step across reps; `step` is the schedule position.
    fn step(
        &mut self,
        peer: &Peer,
        cfg: &DistConfig,
        schedule: &WarmupCosine,
        tracer: &mut Tracer,
        step: u64,
        gstep: usize,
    ) -> f32 {
        let (m, n) = (cfg.nodes, cfg.gpus_per_node);
        let Self {
            model,
            ranges,
            params,
            grads,
            velocity,
            ..
        } = self;
        let whole = tracer.open("engine.step", gstep);
        let batch = self.data.batch(cfg, step, peer.rank());
        let (loss, dlogits) = tracer.time("dnn.forward", gstep, || {
            let logits = model.forward(&batch.input, true);
            softmax_cross_entropy(&logits, &batch.labels)
        });
        tracer.time("dnn.backward", gstep, || model.backward(dlogits));
        tracer.time("dnn.param_io", gstep, || {
            model.read_grads(grads);
            model.zero_grads();
        });

        match cfg.strategy {
            Strategy::MsTopKHiTopK { rho, .. } => {
                let span = tracer.open("collectives.hitopk", gstep);
                hitopk_ef_recomposed(
                    peer,
                    grads,
                    m,
                    n,
                    rho,
                    &mut self.mstopk,
                    &mut self.ef_shard,
                    &mut self.scratch,
                    tracer,
                    gstep,
                );
                tracer.close(span);
            }
            _ => {
                for b in &self.buckets {
                    let g = &mut grads[b.offset..b.offset + b.len];
                    tracer.time("collectives.torus", gstep, || {
                        torus_all_reduce(peer, g, m, n)
                    });
                }
            }
        }
        ops::scale(grads, 1.0 / cfg.world() as f32);

        let lr = schedule.lr(step);
        tracer.time("dnn.param_io", gstep, || model.read_params(params));
        match cfg.optimizer {
            OptimizerKind::Lars => {
                let lars = LarsConfig::default();
                let rates = tracer.time("pto.lars_rates", gstep, || {
                    cloudtrain::pto::lars_rates(peer, params, grads, ranges, &lars)
                });
                tracer.time("optim.apply", gstep, || {
                    apply_with_rates(params, grads, velocity, ranges, &rates, lr, &lars)
                });
            }
            _ => tracer.time("optim.apply", gstep, || {
                self.momentum.step(params, grads, lr)
            }),
        }
        tracer.time("dnn.param_io", gstep, || model.write_params(params));
        tracer.close(whole);
        loss
    }
}

/// What one rank brings back from the recomposed reps.
struct RankTrace {
    spans: Vec<Span>,
    /// Last-epoch mean training loss of each rep.
    losses: Vec<f32>,
    /// Final parameters (compared across ranks) and gradients (probe input).
    params: Vec<f32>,
    grads: Vec<f32>,
    ranges: Vec<ParamRange>,
}

/// Runs the full schedule, rep after rep, from the layers' public functions
/// until `seconds` have passed (rank 0 decides; a barrier publishes it).
fn recomposed_reps(cfg: &DistConfig, seconds: f64, min_reps: usize) -> Vec<RankTrace> {
    let origin = Instant::now();
    let stop = AtomicBool::new(false);
    let schedule = WarmupCosine {
        base: cfg.lr,
        warmup_steps: (cfg.iters_per_epoch / 2) as u64,
        total_steps: steps_per_rep(cfg) as u64,
        final_lr: cfg.lr * 0.01,
    };
    run_on_group(cfg.world(), |peer| {
        let mut tracer = Tracer::new(origin, peer.rank());
        let mut losses = Vec::new();
        let mut gstep = 0;
        loop {
            let mut replica = Replica::new(cfg, peer.rank());
            let mut step = 0u64;
            let mut epoch_loss = 0.0f32;
            for _ in 0..cfg.epochs {
                epoch_loss = 0.0;
                for _ in 0..cfg.iters_per_epoch {
                    epoch_loss += replica.step(peer, cfg, &schedule, &mut tracer, step, gstep);
                    step += 1;
                    gstep += 1;
                }
            }
            losses.push(epoch_loss / cfg.iters_per_epoch as f32);
            let enough = losses.len() >= min_reps && origin.elapsed().as_secs_f64() >= seconds;
            if agree(peer, &stop, enough) {
                let mut params = vec![0.0; replica.params.len()];
                replica.model.read_params(&mut params);
                return RankTrace {
                    spans: tracer.into_spans(),
                    losses,
                    params,
                    grads: replica.grads,
                    ranges: replica.ranges,
                };
            }
        }
    })
}

/// Median over ranks of each rank's median per-step total of `name`, ms.
pub fn layer_ms(ranks: &[Vec<Span>], name: &str) -> Option<(f64, usize)> {
    let per_rank: Vec<(f64, usize)> = ranks
        .iter()
        .map(|spans| per_step_ms(spans, name))
        .filter(|steps| !steps.is_empty())
        .map(|steps| (median(&steps), steps.len()))
        .collect();
    let medians: Vec<f64> = per_rank.iter().map(|(m, _)| *m).collect();
    (!medians.is_empty()).then(|| (median(&medians), per_rank[0].1))
}

fn median_us(mut f: impl FnMut(), calls: usize) -> f64 {
    let samples: Vec<f64> = (0..calls)
        .map(|_| {
            let t = Instant::now();
            f();
            t.elapsed().as_secs_f64() * 1e6
        })
        .collect();
    median(&samples)
}

/// Median time of `calls` back-to-back collectives on a `d`-element vector
/// over the 2×2 grid, timed on rank 0, µs.
fn collective_small_us(
    d: usize,
    calls: usize,
    seed: u64,
    f: impl Fn(&Peer, &mut [f32], &mut MsTopK, &mut ErrorFeedback, &mut CommScratch) + Sync,
) -> f64 {
    run_on_group(NODES * GPUS, |peer| {
        let input = heavy_tailed(d, seed ^ peer.rank() as u64);
        let mut x = input.clone();
        let mut mstopk = MsTopK::new(30, seed);
        let mut ef = ErrorFeedback::new(shard_for(d, GPUS, peer.rank() % GPUS).len());
        let mut scratch = CommScratch::new();
        median_us(
            || {
                x.copy_from_slice(&input);
                f(peer, &mut x, &mut mstopk, &mut ef, &mut scratch);
            },
            calls,
        )
    })[0]
}

/// The traced run: trainer reps (plain and observed, alternating), then the
/// recomposed reps, then the small-message probes.
pub fn run_traced(kind: TrainKind, plan: &Plan) -> (Outcome, Vec<Vec<Span>>) {
    let cfg = kind.config(plan.seed);
    let steps = steps_per_rep(&cfg);
    let mut outcome = Outcome::default();
    let mut reps = Reps::default();

    // The trainer itself: step time, and what observing a rep costs.
    let phase = Instant::now();
    let (mut plain, mut observed, mut registry) = (Vec::new(), Vec::new(), None);
    while plain.len() < plan.min_count(3) || phase.elapsed().as_secs_f64() < 0.4 * plan.seconds {
        let Some((wall, _)) = reps.record(&mut outcome, run_rep(&cfg, false)) else {
            return (outcome, Vec::new());
        };
        plain.push(wall * 1e3 / steps as f64);
        let Some((wall, reg)) = reps.record(&mut outcome, run_rep(&cfg, true)) else {
            return (outcome, Vec::new());
        };
        observed.push(wall * 1e3 / steps as f64);
        registry = reg;
    }
    let report = reps.rank0.as_ref().expect("a rep was recorded");
    let reg = registry.expect("an observed rep was recorded");
    let step_p50 = median(&plain);
    outcome.put("engine.step_ms_p50", step_p50, plain.len());
    outcome.put("engine.step_ms_tail", tail(&plain).value, plain.len());
    outcome.put(
        "obs.overhead_share",
        (median(&observed) - step_p50) / step_p50,
        observed.len(),
    );
    outcome.put("obs.jsonl_lines", reg.to_jsonl().lines().count() as f64, 1);
    outcome.put(
        "engine.fusion_buckets",
        reg.counter("fusion/buckets") as f64,
        1,
    );
    let calls = match kind {
        TrainKind::SparseResnet => reg.counter("hitopk/invocations") as f64 / steps as f64,
        TrainKind::DenseTfm => reg.counter("fusion/buckets") as f64,
    };
    outcome.put("collectives.calls_per_step", calls, 1);
    let steady = report.epochs.last().map_or(0, |e| e.scratch_misses);
    outcome.put("collectives.scratch_misses_steady", steady as f64, 1);

    // The same schedule from the layers' public functions.
    let want = last_loss(report).unwrap_or(f32::NAN);
    let traces = recomposed_reps(&cfg, 0.4 * plan.seconds, plan.min_count(2));
    for loss in &traces[0].losses {
        outcome.check(if loss.to_bits() == want.to_bits() {
            Ok(())
        } else {
            Err(format!("recomposed rep lost {loss}, the trainer {want}"))
        });
    }
    // Replicas must end bitwise in step: same aggregated gradient, same
    // update, on every rank.
    for (rank, t) in traces.iter().enumerate().skip(1) {
        let same = t.params.len() == traces[0].params.len()
            && t.params
                .iter()
                .zip(&traces[0].params)
                .all(|(a, b)| a.to_bits() == b.to_bits());
        outcome.check(if same {
            Ok(())
        } else {
            Err(format!("rank {rank}'s parameters differ from rank 0's"))
        });
    }
    let mut ranks = Vec::new();
    let mut probe_input = None;
    for (rank, t) in traces.into_iter().enumerate() {
        if rank == 0 {
            probe_input = Some((t.params, t.grads, t.ranges));
        }
        ranks.push(t.spans);
    }
    for (metric, span) in [
        ("dnn.forward_ms", "dnn.forward"),
        ("dnn.backward_ms", "dnn.backward"),
        ("dnn.param_io_ms", "dnn.param_io"),
        ("pto.lars_rates_ms", "pto.lars_rates"),
        ("optim.apply_ms", "optim.apply"),
        ("compress.ef_compensate_ms", hitopk::EF_COMPENSATE),
        ("compress.mstopk_select_ms", hitopk::MSTOPK_SELECT),
        ("compress.ef_absorb_ms", hitopk::EF_ABSORB),
        ("collectives.intra_rs_ms", hitopk::INTRA_RS),
        ("collectives.inter_ag_pairs_ms", hitopk::INTER_AG),
        ("collectives.scatter_add_ms", hitopk::SCATTER_ADD),
        ("collectives.intra_ag_ms", hitopk::INTRA_AG),
    ] {
        if let Some((ms, n)) = layer_ms(&ranks, span) {
            outcome.put(metric, ms, n);
        }
    }
    // What the trainer's step costs beyond the layer calls (batch synthesis,
    // gradient scaling, per-rep construction, fusion planning, end-of-epoch
    // evaluation): its median step minus what the layer spans cover of a
    // recomposed step. Taken per step, since medians of parts do not add.
    let covered: Vec<f64> = ranks
        .iter()
        .map(|spans| {
            let steps: Vec<f64> = (0..spans.len())
                .filter(|&i| spans[i].name == "engine.step")
                .map(|i| (spans[i].duration_ns() - self_ns(spans, i)) as f64 / 1e6)
                .collect();
            median(&steps)
        })
        .collect();
    outcome.put("engine.self_ms", step_p50 - median(&covered), plain.len());

    // Small-message probes at this workload's shapes.
    let (params, grads, ranges) = probe_input.expect("rank 0 returned its trace");
    let d = params.len();
    match kind {
        TrainKind::SparseResnet => {
            let lars = LarsConfig::default();
            let serial = median_us(
                || {
                    std::hint::black_box(compute_rates(&params, &grads, &ranges, &lars));
                },
                plan.min_count(300),
            );
            outcome.put(
                "optim.lars_rates_serial_ms",
                serial / 1e3,
                plan.min_count(300),
            );
            let shard = heavy_tailed(shard_for(d, GPUS, 0).len(), plan.seed);
            let k = cloudtrain::collectives::hierarchical::shard_k(d, GPUS, 0.01);
            let mut mstopk = MsTopK::new(30, plan.seed);
            let select = median_us(
                || {
                    std::hint::black_box(mstopk.compress(&shard, k));
                },
                plan.min_count(500),
            );
            outcome.put("compress.select_small_us", select, plan.min_count(500));
            let us = collective_small_us(d, plan.min_count(500), plan.seed, |p, x, c, ef, s| {
                hitopk_all_reduce_ef_scratch(p, x, NODES, GPUS, 0.01, c, ef, s);
            });
            outcome.put("collectives.hitopk_small_us", us, plan.min_count(500));
        }
        TrainKind::DenseTfm => {
            let us = collective_small_us(d, plan.min_count(2000), plan.seed, |p, x, _, _, _| {
                torus_all_reduce(p, x, NODES, GPUS);
            });
            outcome.put("collectives.torus_small_us", us, plan.min_count(2000));
        }
    }
    (outcome, ranks)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn configurations_are_the_fixed_sizings() {
        let s = TrainKind::SparseResnet.config(5);
        assert_eq!((s.world(), steps_per_rep(&s), s.seed), (4, 48, 5));
        assert!(s.use_pto && s.strategy.is_sparse());
        let d = TrainKind::DenseTfm.config(5);
        assert_eq!((d.world(), steps_per_rep(&d)), (4, 300));
        assert!(!d.use_pto && !d.strategy.is_sparse());
    }

    #[test]
    fn cloud_predictions_are_positive_and_differ() {
        let (a, b) = (
            TrainKind::SparseResnet.cloud_step_ms(),
            TrainKind::DenseTfm.cloud_step_ms(),
        );
        assert!(a > 0.0 && b > 0.0 && a != b);
    }
}
