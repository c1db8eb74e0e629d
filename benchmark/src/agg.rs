//! `agg_sparse_25m`: the communication library alone at paper scale —
//! barrier-aligned rounds of `hitopk_all_reduce_ef_scratch` on a
//! ResNet-50-sized gradient over the 2×2 grid, one `ErrorFeedback`,
//! `MsTopK` and `CommScratch` per rank kept across rounds.

use std::sync::atomic::AtomicBool;
use std::time::Instant;

use cloudtrain::collectives::group::run_on_group;
use cloudtrain::collectives::hierarchical::{
    hitopk_all_reduce_ef_scratch, pair_wire_bytes, shard_k, HiTopKReport,
};
use cloudtrain::collectives::torus::torus_all_reduce;
use cloudtrain::collectives::{CommScratch, Peer};
use cloudtrain::compress::exact::topk_quickselect;
use cloudtrain::compress::gpu_cost::{mstopk_cost, GpuRates};
use cloudtrain::compress::{ErrorFeedback, MsTopK};
use cloudtrain::engine::autotune::{AutotuneConfig, CommModel, CommScheme};
use cloudtrain::simnet::collectives::{sim_hitopk, sim_torus_all_reduce};
use cloudtrain::simnet::{clouds, NetSim};
use cloudtrain::tensor::ops;
use cloudtrain::tensor::partition::shard_for;

use crate::hitopk::{self, hitopk_ef_recomposed};
use crate::inputs::{checksum_f32, heavy_tailed};
use crate::report::Outcome;
use crate::stats::median;
use crate::sys::CpuClock;
use crate::trace::{self_ns, Span, Tracer};
use crate::train::{layer_ms, GPUS, NODES};
use crate::{agree, Plan};

/// Parameters of ResNet-50: the gradient the paper's Fig. 7 aggregates.
pub const D: usize = 25_557_032;
/// Selection density ρ.
const RHO: f64 = 0.01;
/// MSTopK threshold-search samplings `N`.
const SAMPLINGS: usize = 30;
/// Rounds whose outputs are summed into `quality_gap` and compared across
/// ranks; later rounds check the library's report only.
const QUALITY_ROUNDS: usize = 20;
const WORLD: usize = NODES * GPUS;

/// Two seeded input vectors per rank; round `t` aggregates variant `t % 2`.
struct Inputs {
    per_rank: Vec<[Vec<f32>; 2]>,
}

impl Inputs {
    fn generate(d: usize, seed: u64) -> Self {
        let per_rank = std::thread::scope(|s| {
            let handles: Vec<_> = (0..WORLD as u64)
                .map(|rank| {
                    s.spawn(move || {
                        [0u64, 1]
                            .map(|variant| heavy_tailed(d, seed ^ ((rank << 8 | variant) << 32)))
                    })
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("input generation panicked"))
                .collect()
        });
        Self { per_rank }
    }

    /// Σ over the first `rounds` rounds of the dense sum of all ranks.
    fn dense_total(&self, rounds: usize) -> Vec<f32> {
        let d = self.per_rank[0][0].len();
        let mut total = vec![0.0f32; d];
        for variant in 0..2 {
            let uses = (rounds + 1 - variant) / 2;
            let mut sum = vec![0.0f32; d];
            for rank in &self.per_rank {
                ops::add_assign(&mut sum, &rank[variant]);
            }
            ops::axpy(uses as f32, &sum, &mut total);
        }
        total
    }
}

/// Per-rank state that persists across rounds.
struct RankState {
    x: Vec<f32>,
    mstopk: MsTopK,
    ef: ErrorFeedback,
    scratch: CommScratch,
}

impl RankState {
    fn new(d: usize, rank: usize, seed: u64) -> Self {
        Self {
            x: vec![0.0; d],
            mstopk: MsTopK::new(SAMPLINGS, seed),
            ef: ErrorFeedback::new(shard_for(d, GPUS, rank % GPUS).len()),
            scratch: CommScratch::new(),
        }
    }

    fn library_round(&mut self, peer: &Peer) -> HiTopKReport {
        hitopk_all_reduce_ef_scratch(
            peer,
            &mut self.x,
            NODES,
            GPUS,
            RHO,
            &mut self.mstopk,
            &mut self.ef,
            &mut self.scratch,
        )
    }
}

fn check_report(report: &HiTopKReport, d: usize) -> Result<(), String> {
    let k = shard_k(d, GPUS, RHO);
    if report.k_per_shard != k {
        return Err(format!(
            "selected {} per shard, want {k}",
            report.k_per_shard
        ));
    }
    let wire = pair_wire_bytes(k) * (NODES - 1);
    if report.inter_bytes_sent != wire {
        return Err(format!("sent {} B, want {wire}", report.inter_bytes_sent));
    }
    Ok(())
}

/// What one rank saw of the rounds of one group. Every rank keeps the
/// clocks; the results use rank 0's.
#[derive(Default)]
struct RankRounds {
    /// Seconds from group start to the end of the first (cold) round.
    cold_s: f64,
    /// Wall time of each later round, between barriers, s.
    walls: Vec<f64>,
    /// This rank's CPU seconds inside each of those rounds' library call.
    cpus: Vec<f64>,
    wire_bytes: usize,
    checks: Vec<Result<(), String>>,
    /// Output checksum of each quality round.
    checksums: Vec<u64>,
    /// Rank 0 only: Σ of its outputs over the quality rounds.
    acc: Vec<f32>,
}

/// Runs one fresh group: a cold round, then — when `timed` gives a budget in
/// seconds and a minimum count — timed rounds until both are met.
fn run_group(inputs: &Inputs, d: usize, seed: u64, timed: Option<(f64, usize)>) -> Vec<RankRounds> {
    let start = Instant::now();
    let stop = AtomicBool::new(false);
    run_on_group(WORLD, |peer| {
        let rank = peer.rank();
        let mut state = RankState::new(d, rank, seed);
        let mut out = RankRounds::default();
        if rank == 0 && timed.is_some() {
            out.acc = vec![0.0; d];
        }
        let mut warm = Instant::now();
        for round in 0.. {
            state.x.copy_from_slice(&inputs.per_rank[rank][round % 2]);
            peer.barrier();
            let (t, cpu) = (Instant::now(), CpuClock::thread());
            let report = state.library_round(peer);
            let cpu_s = cpu.elapsed_s();
            peer.barrier();
            if round == 0 {
                out.cold_s = start.elapsed().as_secs_f64();
                out.wire_bytes = report.inter_bytes_sent;
                warm = Instant::now();
            } else {
                out.walls.push(t.elapsed().as_secs_f64());
                out.cpus.push(cpu_s);
            }
            out.checks.push(check_report(&report, d));
            if timed.is_some() && round < QUALITY_ROUNDS {
                out.checksums.push(checksum_f32(&state.x));
                if rank == 0 {
                    ops::add_assign(&mut out.acc, &state.x);
                }
            }
            let enough = timed.is_none_or(|(seconds, min_rounds)| {
                round + 1 >= min_rounds.max(QUALITY_ROUNDS)
                    && warm.elapsed().as_secs_f64() >= seconds
            });
            if agree(peer, &stop, enough) {
                return out;
            }
        }
        unreachable!("the round loop only ends by returning")
    })
}

fn l2(x: &[f32]) -> f64 {
    x.iter()
        .map(|v| f64::from(*v) * f64::from(*v))
        .sum::<f64>()
        .sqrt()
}

/// The performance plane's prediction for one HiTopKComm aggregation of `d`
/// FP32 elements on 16 Tencent nodes, s (virtual).
fn sim_hitopk_seconds(d: usize) -> f64 {
    let spec = clouds::tencent(16);
    let shard = d.div_ceil(spec.gpus_per_node);
    let k = shard_k(d, spec.gpus_per_node, RHO);
    let topk = mstopk_cost(shard, k, SAMPLINGS, &GpuRates::default()).seconds;
    sim_hitopk(&mut NetSim::new(spec), &spec, d, 4, RHO, topk).total
}

/// The untraced run.
pub fn run_untraced(plan: &Plan) -> Outcome {
    let d = plan.min_count(D);
    let mut outcome = Outcome::default();
    let inputs = Inputs::generate(d, plan.seed);
    let dense = inputs.dense_total(QUALITY_ROUNDS);

    // Set-up: a cold start is group and state construction plus the first
    // round (first touch of the gradient buffer, residual and scratch
    // arena). The last cold start's group goes on into the timed rounds.
    let mut setup = Vec::new();
    let check_all = |outcome: &mut Outcome, ranks: &mut [RankRounds]| {
        for r in ranks {
            r.checks.drain(..).for_each(|c| outcome.check(c));
        }
    };
    for _ in 1..plan.setup_reps() {
        let mut cold = run_group(&inputs, d, plan.seed, None);
        setup.push(cold[0].cold_s);
        check_all(&mut outcome, &mut cold);
    }
    let timed = Some((plan.seconds, plan.min_count(30)));
    let mut ranks = run_group(&inputs, d, plan.seed, timed);
    check_all(&mut outcome, &mut ranks);
    let rounds = &ranks[0];
    setup.push(rounds.cold_s);
    for (round, first) in rounds.checksums.iter().enumerate() {
        outcome.check(if ranks.iter().all(|r| r.checksums[round] == *first) {
            Ok(())
        } else {
            Err(format!("ranks differ after round {round}"))
        });
    }

    let mut gap = dense.clone();
    ops::sub_assign(&mut gap, &rounds.acc);
    outcome.put(
        "steps_per_s",
        1.0 / median(&rounds.walls),
        rounds.walls.len(),
    );
    // What the four ranks burn inside the library call of one round; the
    // benchmark's input copy and output checksum stay outside.
    let cpus: Vec<f64> = (0..rounds.cpus.len())
        .map(|round| ranks.iter().map(|r| r.cpus[round]).sum())
        .collect();
    outcome.put("cpu_ms_per_step", median(&cpus) * 1e3, cpus.len());
    outcome.put("setup_s", median(&setup), setup.len());
    outcome.put("quality_gap", l2(&gap) / l2(&dense), 1);
    outcome.put("cloud_step_ms", sim_hitopk_seconds(D) * 1e3, 1);
    outcome.put("wire_kb_per_step", rounds.wire_bytes as f64 / 1024.0, 1);
    outcome
}

fn bits_equal(a: &[f32], b: &[f32]) -> bool {
    a.len() == b.len() && a.iter().zip(b).all(|(p, q)| p.to_bits() == q.to_bits())
}

/// What one rank brings back from the traced group.
struct RankTrace {
    spans: Vec<Span>,
    /// Round walls by kind: `[library, recomposed]`, s.
    walls: [Vec<f64>; 2],
    checks: Vec<Result<(), String>>,
    passes: usize,
    selected: usize,
}

/// Rounds on one per-rank state, alternating between the library call and
/// the recomposition with spans (so both see the same machine weather and
/// both input variants), until `0.7 × seconds` have passed. The first two
/// rounds run both on twin states and compare them bit for bit.
fn traced_group(inputs: &Inputs, d: usize, plan: &Plan) -> Vec<RankTrace> {
    let origin = Instant::now();
    let stop = AtomicBool::new(false);
    let min_rounds = plan.min_count(20);
    run_on_group(WORLD, |peer| {
        let rank = peer.rank();
        let mut state = RankState::new(d, rank, plan.seed);
        let mut twin = Some(RankState::new(d, rank, plan.seed));
        let mut tracer = Tracer::new(origin, rank);
        let mut checks = Vec::new();
        let mut walls = [Vec::new(), Vec::new()];
        let (mut passes, mut selected) = (0, 0);
        let mut begun = Instant::now();
        for round in 0.. {
            // Rounds 2k and 2k+1 share an input variant: one for each kind.
            let input = &inputs.per_rank[rank][(round / 2) % 2];
            let traced = round % 2 == 1 || twin.is_some();
            state.x.copy_from_slice(input);
            let want = twin.as_mut().map(|twin| {
                twin.x.copy_from_slice(input);
                twin.library_round(peer)
            });
            peer.barrier();
            let t = Instant::now();
            let report = if traced {
                let span = tracer.open("agg.round", round);
                let (report, stats) = hitopk_ef_recomposed(
                    peer,
                    &mut state.x,
                    NODES,
                    GPUS,
                    RHO,
                    &mut state.mstopk,
                    &mut state.ef,
                    &mut state.scratch,
                    &mut tracer,
                    round,
                );
                peer.barrier();
                tracer.close(span);
                passes = stats.passes;
                selected = report.k_per_shard;
                report
            } else {
                let report = state.library_round(peer);
                peer.barrier();
                report
            };
            let wall = t.elapsed().as_secs_f64();
            checks.push(check_report(&report, d));
            match (&twin, want) {
                (Some(lib), Some(want)) => {
                    let same = report == want
                        && bits_equal(&state.x, &lib.x)
                        && bits_equal(state.ef.residual(), lib.ef.residual());
                    checks.push(if same {
                        Ok(())
                    } else {
                        Err(format!(
                            "round {round}: recomposed HiTopKComm differs from the library"
                        ))
                    });
                    if round == 1 {
                        twin = None; // both variants compared; the cold rounds are not timed
                        tracer = Tracer::new(origin, rank);
                        begun = Instant::now();
                    }
                }
                _ => walls[usize::from(traced)].push(wall),
            }
            let enough = walls[1].len() * 2 >= min_rounds
                && begun.elapsed().as_secs_f64() >= 0.7 * plan.seconds;
            if agree(peer, &stop, enough) {
                break;
            }
        }
        RankTrace {
            spans: tracer.into_spans(),
            walls,
            checks,
            passes,
            selected,
        }
    })
}

/// Median GB/s of `f` over `reps` runs, each moving `bytes`.
fn gbps(bytes: usize, reps: usize, mut f: impl FnMut()) -> f64 {
    let samples: Vec<f64> = (0..reps)
        .map(|_| {
            let t = Instant::now();
            f();
            bytes as f64 / t.elapsed().as_secs_f64() / 1e9
        })
        .collect();
    median(&samples)
}

/// Lane-kernel probes on one shard of the gradient, single-threaded.
fn tensor_probes(outcome: &mut Outcome, shard: &[f32], k: usize, reps: usize) {
    let n = shard.len();
    let mut y = vec![0.0f32; n];
    outcome.put(
        "tensor.memcpy_gbps",
        gbps(8 * n, reps, || {
            y.copy_from_slice(std::hint::black_box(shard))
        }),
        reps,
    );
    outcome.put(
        "tensor.add_assign_gbps",
        gbps(12 * n, reps, || {
            ops::add_assign(&mut y, std::hint::black_box(shard))
        }),
        reps,
    );
    outcome.put(
        "tensor.l2_norm_gbps",
        gbps(4 * n, reps, || {
            std::hint::black_box(ops::l2_norm(std::hint::black_box(shard)));
        }),
        reps,
    );
    // The scatter-add of a round: NODES selections of k coordinates each.
    let selection = topk_quickselect(shard, k);
    let samples: Vec<f64> = (0..reps)
        .map(|_| {
            let t = Instant::now();
            for _ in 0..NODES {
                ops::scatter_add(&mut y, &selection.indices, &selection.values);
            }
            (NODES * k) as f64 / t.elapsed().as_secs_f64() / 1e6
        })
        .collect();
    outcome.put("tensor.scatter_add_melem_s", median(&samples), reps);
}

/// Share of the metered collective spans' wall time a rank spent blocked
/// (neither running nor runnable) and waiting on a run queue, median over
/// ranks. `None` when `/proc/thread-self/schedstat` was unreadable.
fn wait_shares(ranks: &[Vec<Span>]) -> Option<(f64, f64)> {
    let per_rank: Vec<(f64, f64)> = ranks
        .iter()
        .filter_map(|spans| {
            let (mut wall, mut on_cpu, mut queued) = (0u64, 0u64, 0u64);
            for (span, sched) in spans.iter().filter_map(|s| Some((s, s.sched?))) {
                wall += span.duration_ns();
                on_cpu += sched.on_cpu_ns;
                queued += sched.runqueue_wait_ns;
            }
            (wall > 0).then(|| {
                let blocked = wall.saturating_sub(on_cpu + queued);
                (blocked as f64 / wall as f64, queued as f64 / wall as f64)
            })
        })
        .collect();
    (!per_rank.is_empty()).then(|| {
        let (blocked, queued): (Vec<f64>, Vec<f64>) = per_rank.into_iter().unzip();
        (median(&blocked), median(&queued))
    })
}

/// The traced run.
pub fn run_traced(plan: &Plan) -> (Outcome, Vec<Vec<Span>>) {
    let d = plan.min_count(D);
    let mut outcome = Outcome::default();
    let inputs = Inputs::generate(d, plan.seed);

    let traces = traced_group(&inputs, d, plan);
    let [untraced, traced] = traces[0].walls.clone();
    let (passes, selected) = (traces[0].passes, traces[0].selected);
    let mut ranks = Vec::new();
    for t in traces {
        t.checks.into_iter().for_each(|c| outcome.check(c));
        ranks.push(t.spans);
    }
    for (metric, span) in [
        ("compress.ef_compensate_ms", hitopk::EF_COMPENSATE),
        ("compress.mstopk_select_ms", hitopk::MSTOPK_SELECT),
        ("compress.ef_absorb_ms", hitopk::EF_ABSORB),
        ("collectives.intra_rs_ms", hitopk::INTRA_RS),
        ("collectives.inter_ag_pairs_ms", hitopk::INTER_AG),
        ("collectives.scatter_add_ms", hitopk::SCATTER_ADD),
        ("collectives.intra_ag_ms", hitopk::INTRA_AG),
    ] {
        let (ms, n) = layer_ms(&ranks, span).expect("every round has every stage");
        outcome.put(metric, ms, n);
    }
    outcome.put("compress.mstopk_passes", passes as f64, 1);
    outcome.put("compress.selected_k", selected as f64, 1);
    match wait_shares(&ranks) {
        Some((blocked, queued)) => {
            outcome.put("collectives.blocked_share", blocked, traced.len());
            outcome.put("collectives.runqueue_wait_share", queued, traced.len());
        }
        None => eprintln!("note: schedstat unreadable; blocked/runqueue shares omitted"),
    }
    // Rank 0's round span ends after the closing barrier; what its stage
    // spans leave uncovered is time spent waiting there for slower ranks.
    let rounds: Vec<usize> = (0..ranks[0].len())
        .filter(|&i| ranks[0][i].name == "agg.round")
        .collect();
    let covered: u64 = rounds
        .iter()
        .map(|&i| ranks[0][i].duration_ns() - self_ns(&ranks[0], i))
        .sum();
    let total: u64 = rounds.iter().map(|&i| ranks[0][i].duration_ns()).sum();
    outcome.put(
        "trace.round_coverage_share",
        covered as f64 / total as f64,
        rounds.len(),
    );
    outcome.put(
        "trace.overhead_share",
        (median(&traced) - median(&untraced)) / median(&untraced),
        traced.len(),
    );

    // Probes at this workload's shapes.
    let shard = shard_for(d, GPUS, 0).slice(&inputs.per_rank[0][0]);
    let k = shard_k(d, GPUS, RHO);
    let reps = plan.min_count(5);
    tensor_probes(&mut outcome, shard, k, reps);
    let approx = MsTopK::new(SAMPLINGS, plan.seed)
        .select_with_stats(shard, k)
        .0;
    let exact = topk_quickselect(shard, k);
    outcome.put(
        "compress.mass_ratio",
        f64::from(approx.abs_mass()) / f64::from(exact.abs_mass()),
        1,
    );
    let torus = run_on_group(WORLD, |peer| {
        let mut x = inputs.per_rank[peer.rank()][0].clone();
        let samples: Vec<f64> = (0..reps)
            .map(|_| {
                peer.barrier();
                let t = Instant::now();
                torus_all_reduce(peer, &mut x, NODES, GPUS);
                peer.barrier();
                (4 * d) as f64 / t.elapsed().as_secs_f64() / 1e9
            })
            .collect();
        median(&samples)
    });
    outcome.put("collectives.torus_large_gbps", torus[0], reps);

    // The performance plane at paper scale (virtual time, seed-independent).
    let spec = clouds::tencent(16);
    let wall = Instant::now();
    let makespan = sim_hitopk_seconds(D);
    outcome.put("simnet.sim_wall_ms", wall.elapsed().as_secs_f64() * 1e3, 1);
    outcome.put("simnet.hitopk_makespan_ms", makespan * 1e3, 1);
    let torus_s = sim_torus_all_reduce(&mut NetSim::new(spec), &spec, 4 * D).total;
    outcome.put("simnet.torus_makespan_ms", torus_s * 1e3, 1);
    let model = CommModel::new(spec).layer_seconds(
        CommScheme::HiTopKStaged,
        D,
        &AutotuneConfig {
            rho: RHO,
            samplings: SAMPLINGS,
            ..AutotuneConfig::default()
        },
    );
    outcome.put(
        "engine.model_err_share",
        (model - makespan).abs() / makespan,
        1,
    );
    (outcome, ranks)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn inputs_differ_by_rank_variant_and_seed() {
        let a = Inputs::generate(1000, 42);
        let mut sums: Vec<u64> = a
            .per_rank
            .iter()
            .flat_map(|r| r.iter().map(|v| checksum_f32(v)))
            .collect();
        let b = Inputs::generate(1000, 42);
        assert_eq!(
            sums,
            b.per_rank
                .iter()
                .flat_map(|r| r.iter().map(|v| checksum_f32(v)))
                .collect::<Vec<_>>()
        );
        sums.sort_unstable();
        sums.dedup();
        assert_eq!(sums.len(), 2 * WORLD);
        assert_ne!(
            checksum_f32(&a.per_rank[0][0]),
            checksum_f32(&Inputs::generate(1000, 43).per_rank[0][0])
        );
    }

    #[test]
    fn dense_total_weights_each_variant_by_its_rounds() {
        let inputs = Inputs::generate(64, 3);
        let total = inputs.dense_total(5); // variant 0 three times, variant 1 twice
        for i in 0..64 {
            let s = |v: usize| inputs.per_rank.iter().map(|r| r[v][i]).sum::<f32>();
            assert!((total[i] - (3.0 * s(0) + 2.0 * s(1))).abs() < 1e-5);
        }
    }

    #[test]
    fn a_small_group_passes_its_own_checks() {
        let d = 8192;
        let inputs = Inputs::generate(d, 11);
        let ranks = run_group(&inputs, d, 11, Some((0.0, 4)));
        for r in &ranks {
            assert_eq!(r.walls.len() + 1, QUALITY_ROUNDS);
            assert!(r.checks.iter().all(Result::is_ok));
            assert_eq!(r.checksums, ranks[0].checksums);
        }
        // Error feedback keeps the accumulated output close to the dense sum.
        let dense = inputs.dense_total(QUALITY_ROUNDS);
        let mut gap = dense.clone();
        ops::sub_assign(&mut gap, &ranks[0].acc);
        let rel = l2(&gap) / l2(&dense);
        assert!(rel > 0.0 && rel < 1.0, "relative gap {rel}");
    }
}
