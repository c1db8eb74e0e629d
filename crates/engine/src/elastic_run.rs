//! Elastic training runtime: membership-driven segmented runs.
//!
//! `DistTrainer::run_elastic` consumes a scripted [`ElasticScenario`],
//! folds it (through the `cloudtrain-elastic` coordinator) to an
//! epoch-level membership timeline, and trains each contiguous stretch of
//! epochs under its fixed membership as one *segment*. At every segment
//! boundary the runtime cuts a sharded v2 [`Checkpoint`] — flat replicas,
//! optimizer velocity, and per-`(node, local rank)` error-feedback
//! residuals — round-trips it through the wire format, re-plans the
//! autotuner and fusion buckets for the new world size, and resumes.
//!
//! Determinism contracts, both asserted by the elastic gauntlet:
//!
//! * **No membership event** → `run_elastic` is the single-segment
//!   delegate of the classic worker, so its loss trajectory is bitwise
//!   identical to [`DistTrainer::run`].
//! * **With events** → `run_elastic` (which round-trips every boundary
//!   checkpoint through bytes) is bitwise identical to
//!   [`DistTrainer::run_elastic_planned`], the in-memory twin that hands
//!   the same state across segments without serialization. Divergence
//!   means the checkpoint format lost information.
//!
//! Rollback semantics: epochs are the commit points. An eviction detected
//! during epoch `e` rolls the run back to the start of `e` (the last
//! committed checkpoint) and replays it with the survivors; a join
//! becomes effective at the next epoch boundary.

use std::collections::BTreeMap;

use cloudtrain_collectives::group::run_on_group;
use cloudtrain_elastic::{ElasticScenario, MembershipEvent, ReshardEvent};
use cloudtrain_obs::Registry;
use cloudtrain_simnet::clouds;
use serde::Serialize;

use crate::autotune::{autotune_layers, AutotuneConfig, CommModel};
use crate::checkpoint::{Checkpoint, ShardManifest};
use crate::fusion::{cloud_calibrated_model, plan_buckets, plan_buckets_cost_model, FusionMode};
use crate::strategy::Strategy;
use crate::trainer::{
    assert_feasible, workload_layer_ranges, DistConfig, DistTrainer, OptimizerKind, SegmentCtx,
    SegmentEnd, SegmentInit, TrainReport,
};

/// One contiguous stretch of epochs trained under a fixed membership.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct ElasticSegment {
    /// Global index of the segment's first epoch.
    pub start_epoch: usize,
    /// Number of epochs in the segment.
    pub epochs: usize,
    /// Active node ids, ascending.
    pub nodes: Vec<usize>,
}

/// Result of an elastic run: the stitched training report plus the
/// membership story that produced it.
#[derive(Debug, Clone)]
pub struct ElasticReport {
    /// Per-epoch metrics stitched across segments (global epoch indices;
    /// a rolled-back epoch appears once, from its replay).
    pub report: TrainReport,
    /// The segments the schedule folded to, in order.
    pub segments: Vec<ElasticSegment>,
    /// Membership events the coordinator logged (virtual time).
    pub events: Vec<MembershipEvent>,
    /// Consistent-hash resharding stats, one per topology change.
    pub resharding: Vec<ReshardEvent>,
    /// Final flat model parameters (identical on every rank).
    pub final_params: Vec<f32>,
    /// Global step counter after the last segment.
    pub final_step: u64,
    /// Control-plane + rank-0 worker observability, byte-stable.
    pub registry: Registry,
}

impl ElasticReport {
    /// Whether two runs of the same scenario produced bit-for-bit the same
    /// training trajectory: per-epoch metrics, final parameters, and the
    /// step counter. This is the replay-determinism gate — comparing a
    /// [`DistTrainer::run_elastic`] report against its
    /// [`DistTrainer::run_elastic_planned`] twin proves the checkpoint
    /// wire format lossless.
    pub fn bitwise_eq(&self, other: &Self) -> bool {
        self.final_step == other.final_step
            && self.final_params.len() == other.final_params.len()
            && self
                .final_params
                .iter()
                .zip(&other.final_params)
                .all(|(a, b)| a.to_bits() == b.to_bits())
            && self.report.epochs.len() == other.report.epochs.len()
            && self
                .report
                .epochs
                .iter()
                .zip(&other.report.epochs)
                .all(|(a, b)| {
                    a.epoch == b.epoch
                        && a.train_loss.to_bits() == b.train_loss.to_bits()
                        && a.val_top1.to_bits() == b.val_top1.to_bits()
                        && a.val_top5.to_bits() == b.val_top5.to_bits()
                        && a.residual_norm.to_bits() == b.residual_norm.to_bits()
                })
    }
}

impl DistTrainer {
    /// Runs the scenario elastically, round-tripping every segment
    /// boundary through the sharded checkpoint wire format — the
    /// production path.
    ///
    /// # Panics
    /// Panics if the config disagrees with the scenario's initial
    /// topology/epochs, uses optimizer state the checkpoint format does
    /// not carry (LAMB/Adam moments, the loss scaler), or names a strategy
    /// that cannot run over some segment's world
    /// ([`crate::Strategy::check_world`]) — checked before any segment
    /// runs.
    pub fn run_elastic(&self, scenario: &ElasticScenario) -> ElasticReport {
        self.run_membership(scenario, true)
    }

    /// The in-memory twin of [`Self::run_elastic`]: identical segmenting
    /// and replanning, but boundary state passes across segments without
    /// serialization. Bitwise equality of the two is the replay-
    /// determinism gate.
    ///
    /// # Panics
    /// Same conditions as [`Self::run_elastic`].
    pub fn run_elastic_planned(&self, scenario: &ElasticScenario) -> ElasticReport {
        self.run_membership(scenario, false)
    }

    fn run_membership(
        &self,
        scenario: &ElasticScenario,
        through_checkpoint: bool,
    ) -> ElasticReport {
        let cfg = &self.cfg;
        assert!(
            matches!(cfg.optimizer, OptimizerKind::Lars | OptimizerKind::Momentum),
            "run_elastic: only LARS/momentum state is checkpointed"
        );
        assert!(
            !cfg.mixed_precision,
            "run_elastic: loss-scaler state is not checkpointed"
        );
        assert_eq!(
            cfg.nodes, scenario.initial_nodes,
            "run_elastic: cfg.nodes must match the scenario's initial membership"
        );
        assert_eq!(
            cfg.epochs, scenario.epochs,
            "run_elastic: cfg.epochs must match the scenario schedule"
        );

        let timeline = scenario.simulate();
        let segments = timeline.segments();
        for (_, _, members) in &segments {
            assert_feasible(cfg.strategy, members.len() * cfg.gpus_per_node);
        }
        let resharding = timeline.reshard_events(scenario.seed, scenario.dataset_len);

        // Control-plane observability: membership events and spans from
        // the coordinator, then the datacache resharding ledger.
        let mut reg = Registry::new();
        timeline.coordinator.publish(&mut reg);
        for ev in &resharding {
            ev.publish(&mut reg);
        }
        reg.counter_add("elastic/segments", segments.len() as u64);

        let mut stitched = TrainReport {
            strategy: cfg.strategy.label().to_string(),
            epochs: Vec::new(),
        };
        let mut seg_infos = Vec::new();
        let mut init: Option<SegmentInit> = None;
        let mut last_end: Option<SegmentEnd> = None;
        let total = segments.len();
        for (si, (start_epoch, len, members)) in segments.into_iter().enumerate() {
            let mut seg_cfg = cfg.clone();
            seg_cfg.nodes = members.len();
            if si > 0 {
                // Epoch-boundary world-size change: re-plan the per-layer
                // autotuner and the fusion buckets for the new topology.
                publish_replan(&mut reg, &seg_cfg);
            }
            let ctx = SegmentCtx {
                start_epoch,
                start_step: (start_epoch * cfg.iters_per_epoch) as u64,
                schedule_total_epochs: scenario.epochs,
                init: init.take(),
                node_ids: members.clone(),
            };
            let phases = [(cfg.strategy, len)];
            let runner = DistTrainer::new(seg_cfg.clone());
            let mut outs = run_on_group(seg_cfg.world(), |peer| {
                runner.worker_at(peer, &phases, &ctx)
            });
            let ends: Vec<SegmentEnd> = outs.iter().map(|(_, _, e)| e.clone()).collect();
            let (seg_report, seg_reg, _) = outs.remove(0);
            stitched.epochs.extend(seg_report.epochs.iter().copied());
            reg.merge(&seg_reg);
            seg_infos.push(ElasticSegment {
                start_epoch,
                epochs: len,
                nodes: members.clone(),
            });
            if si + 1 < total {
                let ckpt = cut_checkpoint(&seg_cfg, start_epoch + len, &ends, &members);
                let ckpt = if through_checkpoint {
                    let bytes = ckpt.to_bytes();
                    reg.counter_add("elastic/checkpoint_bytes", bytes.len() as u64);
                    reg.counter_add("elastic/checkpoints_cut", 1);
                    // lint:allow(panic_free, reason = "decoding bytes this process just encoded can only fail on an engine bug; the gauntlet's bitwise twin would catch a silent miss")
                    Checkpoint::from_bytes(&bytes).expect("round-trip of a just-encoded checkpoint")
                } else {
                    ckpt
                };
                init = Some(segment_init(&ckpt));
            }
            last_end = ends.into_iter().next();
        }
        let end = last_end.unwrap_or(SegmentEnd {
            params: Vec::new(),
            velocity: Vec::new(),
            ef_shard: Vec::new(),
            step: 0,
        });
        reg.gauge_set(
            "elastic/final_world",
            stitched_world(&seg_infos, cfg) as f64,
        );
        ElasticReport {
            report: stitched,
            segments: seg_infos,
            events: timeline.events.clone(),
            resharding,
            final_params: end.params,
            final_step: end.step,
            registry: reg,
        }
    }
}

fn stitched_world(segments: &[ElasticSegment], cfg: &DistConfig) -> usize {
    segments
        .last()
        .map(|s| s.nodes.len() * cfg.gpus_per_node)
        .unwrap_or(0)
}

/// Assembles the sharded v2 checkpoint for a segment boundary from every
/// rank's segment-end state. Replicas are identical across ranks (the
/// trainer's core invariant), so rank 0 donates params/velocity; each
/// rank donates its error-feedback shard keyed by `(node id, local)`.
fn cut_checkpoint(
    cfg: &DistConfig,
    epoch: usize,
    ends: &[SegmentEnd],
    members: &[usize],
) -> Checkpoint {
    let n = cfg.gpus_per_node;
    let mut ef_shards = BTreeMap::new();
    for (rank, end) in ends.iter().enumerate() {
        let node = members.get(rank / n).copied().unwrap_or(rank / n) as u64;
        ef_shards.insert((node, (rank % n) as u64), end.ef_shard.clone());
    }
    let first = ends.first();
    let (step, params, velocity) = first
        .map(|e| (e.step, e.params.clone(), e.velocity.clone()))
        .unwrap_or((0, Vec::new(), Vec::new()));
    let ckpt = match Checkpoint::new(step, params, velocity) {
        Ok(c) => c,
        // The same worker donated both vectors, so dimensions agree.
        Err(_) => unreachable!("segment end state is dimension-consistent"),
    };
    ckpt.with_manifest(ShardManifest {
        epoch: epoch as u64,
        gpus_per_node: n as u64,
        nodes: members.iter().map(|&x| x as u64).collect(),
        ef_shards,
    })
}

/// Expands a boundary checkpoint into the next segment's init state.
fn segment_init(ckpt: &Checkpoint) -> SegmentInit {
    SegmentInit {
        params: ckpt.params.clone(),
        velocity: ckpt.velocity.clone(),
        ef_shards: ckpt
            .manifest
            .as_ref()
            .map(|m| m.ef_shards.clone())
            .unwrap_or_default(),
    }
}

/// Publishes the post-change plans: the per-layer autotuner re-run on the
/// new world size and the fusion bucket count for the new launch plan.
fn publish_replan(reg: &mut Registry, cfg: &DistConfig) {
    reg.counter_add("elastic/replans", 1);
    let ranges = workload_layer_ranges(cfg.workload);
    let mut spec = clouds::tencent(cfg.nodes);
    spec.gpus_per_node = cfg.gpus_per_node;
    let mut at = AutotuneConfig::default();
    match cfg.strategy {
        Strategy::MsTopKHiTopK { rho, samplings } => {
            at.rho = rho;
            at.samplings = samplings;
        }
        Strategy::TopKNaiveAg { rho } | Strategy::GTopK { rho } => at.rho = rho,
        _ => {}
    }
    autotune_layers(&ranges, &CommModel::new(spec), &at).publish(reg);
    let elem_bytes = std::mem::size_of::<f32>();
    let buckets = match cfg.fusion {
        FusionMode::WholeTensor => 1,
        FusionMode::PerLayer => plan_buckets(&ranges, elem_bytes, 1).len(),
        FusionMode::Bucketed { threshold_bytes } => {
            plan_buckets(&ranges, elem_bytes, threshold_bytes).len()
        }
        FusionMode::CostModel => {
            plan_buckets_cost_model(&ranges, elem_bytes, &cloud_calibrated_model(&ranges))
                .0
                .len()
        }
    };
    reg.gauge_set("elastic/fusion_buckets", buckets as f64);
    reg.gauge_set("elastic/world", cfg.world() as f64);
}
