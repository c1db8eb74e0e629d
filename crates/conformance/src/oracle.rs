//! Oracle differential engine: every collective in `cloudtrain-collectives`
//! run against a single-process dense reference.
//!
//! Check families (see DESIGN.md §10 for the tolerance table):
//!
//! * **determinism** — the whole collective run twice is bitwise identical;
//! * **replica-identity** — all ranks hold bitwise-identical results;
//! * **dense-sum** — dense paths match the sequential left-fold sum within
//!   [`DENSE_TOL`] (the two sides add in different orders, so equality is
//!   up to FP32 re-association, never structural);
//! * **retry-exactness** — resilient runs (the collective over a
//!   `ResilientPeer`) under drop faults (no degradation) are *bitwise*
//!   equal to their clean counterparts: the retry ladder must deliver
//!   identical bytes;
//! * **oracle-equivalence** — sparse paths match a reference that replays
//!   the algorithm's data flow sequentially with identically-seeded
//!   compressor replicas, within [`SPARSE_TOL`];
//! * **mass-ledger** — error-feedback paths conserve gradient mass: the
//!   telescoped identity `Σ_t Σ_i compensated_{i}(t) = Σ_t aggregated(t) +
//!   Σ_i residual_i(T)` holds elementwise within [`LEDGER_TOL`], including
//!   for degraded members (whose whole compensated shard must survive in
//!   their residual);
//! * **degraded** — a resilient error-feedback run with a nonzero
//!   degradation probability withholds at least one contribution, so its
//!   ledger is checked across steps that really skipped mass.

use std::collections::BTreeSet;

use cloudtrain_collectives::group::run_on_group;
use cloudtrain_collectives::gtopk::gtopk_all_reduce_ef;
use cloudtrain_collectives::hierarchical::{
    hitopk_all_reduce, hitopk_all_reduce_ef, hitopk_all_reduce_ef_scratch, shard_k,
    sparse_all_reduce_naive, InterStep,
};
use cloudtrain_collectives::quantized::quantized_all_reduce;
use cloudtrain_collectives::ring::{ring_all_reduce, ring_all_reduce_scratch};
use cloudtrain_collectives::torus::torus_all_reduce;
use cloudtrain_collectives::tree::tree_all_reduce;
use cloudtrain_collectives::{CommFaults, CommScratch, ResiliencePolicy, ResilientPeer};
use cloudtrain_compress::dgc::Dgc;
use cloudtrain_compress::exact::{QuickTopK, SortTopK};
use cloudtrain_compress::quantize::{Qsgd, Quantizer, ScaledSign, TernGrad};
use cloudtrain_compress::randomk::RandomK;
use cloudtrain_compress::{Compressor, ErrorFeedback, MsTopK};
use cloudtrain_tensor::partition::{shard_for, shards};
use cloudtrain_tensor::{init, ops};

use crate::corpus::OracleCase;
use crate::report::{CaseResult, Checks};

/// Absolute L∞ tolerance for dense sequential-sum equivalence (FP32
/// re-association over at most 16 ranks and 2048 elements).
pub const DENSE_TOL: f32 = 1e-4;

/// Absolute L∞ tolerance for sparse oracle equivalence: the oracle sums
/// node contributions in left-fold order while ring ReduceScatter adds in
/// rotation order, so selected values differ by FP32 re-association.
pub const SPARSE_TOL: f32 = 1e-3;

/// Absolute L∞ tolerance for error-feedback mass-conservation ledgers
/// (telescoped over [`EF_ITERS`] iterations).
pub const LEDGER_TOL: f32 = 1e-3;

/// Iterations for error-feedback cases: two, so the second iteration
/// exercises a non-zero residual compensation path.
pub const EF_ITERS: usize = 2;

/// QSGD positive levels used by the harness (8-bit codes).
pub const QSGD_LEVELS: u8 = 127;

/// MSTopK threshold-search iterations (the paper's N = 30).
const MSTOPK_SAMPLINGS: usize = 30;
/// DGC sample ratio: corpus dimensions are small, so sample densely.
const DGC_SAMPLE_RATIO: f64 = 0.25;

const GRAD_SALT: u64 = 0x9E37_79B9_7F4A_7C15;
const COMP_SALT: u64 = 0xC0DE_D00D_5EED_0001;
const ITER_SALT: u64 = 0x1717_1717_1717_1717;

/// Deterministic per-rank gradient for a case seed.
pub fn grad_for(seed: u64, rank: usize, d: usize) -> Vec<f32> {
    let mut rng = init::rng_from_seed(seed ^ (rank as u64).wrapping_mul(GRAD_SALT));
    init::uniform_tensor(d, -1.0, 1.0, &mut rng).into_vec()
}

fn grad_iter(seed: u64, iter: usize, rank: usize, d: usize) -> Vec<f32> {
    grad_for(seed ^ (iter as u64 + 1).wrapping_mul(ITER_SALT), rank, d)
}

/// Seed for the compressor replica owned by `rank` (the oracle constructs
/// an identically-seeded replica to replay the selection).
pub fn comp_seed(seed: u64, rank: usize) -> u64 {
    seed ^ COMP_SALT ^ (rank as u64).wrapping_mul(GRAD_SALT)
}

/// Instantiates a compressor by corpus name. Names are validated at parse
/// time; an unknown name falls back to the exact operator.
pub fn make_compressor(name: &str, seed: u64) -> Box<dyn Compressor> {
    match name {
        "quicktopk" => Box::new(QuickTopK),
        "mstopk" => Box::new(MsTopK::new(MSTOPK_SAMPLINGS, seed)),
        "dgc" => Box::new(Dgc::new(DGC_SAMPLE_RATIO, seed)),
        "randomk" => Box::new(RandomK::new(seed)),
        _ => Box::new(SortTopK),
    }
}

/// Global selection size for flat sparse collectives: `max(1, round(d·ρ))`.
pub fn global_k(d: usize, rho: f64) -> usize {
    (((d as f64) * rho).round() as usize).clamp(1, d)
}

fn bits_eq(a: &[f32], b: &[f32]) -> bool {
    a.len() == b.len() && a.iter().zip(b).all(|(x, y)| x.to_bits() == y.to_bits())
}

fn all_ranks_eq(rows: &[Vec<f32>]) -> bool {
    rows.iter().all(|r| bits_eq(r, &rows[0]))
}

fn dense_sum(seed: u64, p: usize, d: usize) -> Vec<f32> {
    let mut acc = vec![0.0f32; d];
    for r in 0..p {
        ops::add_assign(&mut acc, &grad_for(seed, r, d));
    }
    acc
}

/// Per-node dense left-fold shard sums: `sums[i]` is node `i`'s full-vector
/// sum over its `n` GPUs.
fn node_sums(seed: u64, m: usize, n: usize, d: usize) -> Vec<Vec<f32>> {
    (0..m)
        .map(|i| {
            let mut acc = vec![0.0f32; d];
            for j in 0..n {
                ops::add_assign(&mut acc, &grad_for(seed, i * n + j, d));
            }
            acc
        })
        .collect()
}

/// Runs one oracle case.
pub fn run(index: usize, case: &OracleCase) -> CaseResult {
    let mut ck = Checks::new();
    match case.collective.as_str() {
        "ring" | "tree" | "torus" => run_dense(case, &mut ck),
        "tree_bucketed" | "torus_bucketed" => run_dense_bucketed(case, &mut ck),
        "ring_res" | "torus_res" => run_dense_resilient(case, &mut ck),
        "hitopk" => run_hitopk(case, &mut ck),
        "hitopk_ef" => run_hitopk_ef(case, &mut ck),
        "hitopk_ef_res" => run_hitopk_ef_res(case, &mut ck),
        "gtopk" => run_gtopk(case, &mut ck),
        "gtopk_ef_res" => run_gtopk_ef_res(case, &mut ck),
        "naiveag" => run_naiveag(case, &mut ck),
        "oksparse" => run_oksparse(case, &mut ck),
        "oksparse_ef" => run_oksparse_ef(case, &mut ck),
        "oksparse_ef_res" => run_oksparse_ef_res(case, &mut ck),
        "qsgd" | "terngrad" | "scaledsign" => run_quantized(case, &mut ck),
        other => ck.fail("dispatch", format!("unhandled collective `{other}`")),
    }
    let params = params_of(case);
    ck.into_result(index, "oracle", &case.collective, &case.comp, params)
}

fn params_of(c: &OracleCase) -> String {
    let mut s = format!(
        "m={} n={} d={} rho={} seed={}",
        c.m, c.n, c.d, c.rho, c.seed
    );
    if c.drops > 0.0 {
        s.push_str(&format!(" drops={}", c.drops));
    }
    if c.degrade > 0.0 {
        s.push_str(&format!(" degrade={}", c.degrade));
    }
    s
}

fn linf(a: &[f32], b: &[f32]) -> f32 {
    ops::linf_distance(a, b)
}

fn run_dense(c: &OracleCase, ck: &mut Checks) {
    let p = c.m * c.n;
    let (m, n, d, seed) = (c.m, c.n, c.d, c.seed);
    let name = c.collective.clone();
    let run = || {
        run_on_group(p, |peer| {
            let mut x = grad_for(seed, peer.rank(), d);
            let members: Vec<usize> = (0..p).collect();
            match name.as_str() {
                "ring" => ring_all_reduce(peer, &mut x, &members),
                "tree" => tree_all_reduce(peer, &mut x, &members),
                _ => torus_all_reduce(peer, &mut x, m, n),
            }
            x
        })
    };
    let a = run();
    let b = run();
    ck.check("determinism", a == b, || {
        "second run differs from the first".to_string()
    });
    ck.check("replica-identity", all_ranks_eq(&a), || {
        "ranks hold different results".to_string()
    });
    let reference = dense_sum(seed, p, d);
    ck.check(
        "dense-sum",
        ops::approx_eq(&a[0], &reference, DENSE_TOL),
        || format!("linf={} tol={DENSE_TOL}", linf(&a[0], &reference)),
    );
}

/// Fusion spans per bucketed dense case: three uneven spans (via
/// [`shards`]) so bucket boundaries land mid-vector without aligning to
/// the collective's own internal partitioning.
const DENSE_BUCKETS: usize = 3;

fn run_dense_bucketed(c: &OracleCase, ck: &mut Checks) {
    let p = c.m * c.n;
    let (m, n, d, seed) = (c.m, c.n, c.d, c.seed);
    let name = c.collective.clone();
    let spans = shards(d, DENSE_BUCKETS.min(d));
    let bucketed = || {
        run_on_group(p, |peer| {
            let mut x = grad_for(seed, peer.rank(), d);
            let members: Vec<usize> = (0..p).collect();
            for sh in &spans {
                if sh.is_empty() {
                    continue;
                }
                let buf = sh.slice_mut(&mut x);
                if name == "tree_bucketed" {
                    tree_all_reduce(peer, buf, &members);
                } else {
                    torus_all_reduce(peer, buf, m, n);
                }
            }
            x
        })
    };
    let a = bucketed();
    let b = bucketed();
    ck.check("determinism", a == b, || {
        "second bucketed run differs from the first".to_string()
    });
    ck.check("replica-identity", all_ranks_eq(&a), || {
        "ranks hold different results".to_string()
    });
    let reference = dense_sum(seed, p, d);
    ck.check(
        "dense-sum",
        ops::approx_eq(&a[0], &reference, DENSE_TOL),
        || format!("linf={} tol={DENSE_TOL}", linf(&a[0], &reference)),
    );
    // Launching per fusion span must not change the result beyond the
    // collective's own reduction-order freedom. The tree reduces each
    // element along the same member tree regardless of the span extent, so
    // the bucketed launch is *bitwise* equal to the whole-tensor launch;
    // the torus re-partitions each span across ranks, which reorders the
    // FP32 accumulation, so equality there is within [`DENSE_TOL`].
    let whole = run_on_group(p, |peer| {
        let mut x = grad_for(seed, peer.rank(), d);
        let members: Vec<usize> = (0..p).collect();
        if name == "tree_bucketed" {
            tree_all_reduce(peer, &mut x, &members);
        } else {
            torus_all_reduce(peer, &mut x, m, n);
        }
        x
    });
    if name == "tree_bucketed" {
        ck.check("bucketed-whole-bitwise", bits_eq(&a[0], &whole[0]), || {
            format!(
                "bucketed tree differs from whole-tensor tree bitwise, linf={}",
                linf(&a[0], &whole[0])
            )
        });
    } else {
        ck.check(
            "bucketed-whole-close",
            ops::approx_eq(&a[0], &whole[0], DENSE_TOL),
            || format!("linf={} tol={DENSE_TOL}", linf(&a[0], &whole[0])),
        );
    }
}

fn run_dense_resilient(c: &OracleCase, ck: &mut Checks) {
    let p = c.m * c.n;
    let (m, n, d, seed, drops) = (c.m, c.n, c.d, c.seed, c.drops);
    let name = c.collective.clone();
    let faulted = || {
        run_on_group(p, |peer| {
            let faults = CommFaults::new(seed).with_drops(drops);
            let rp = ResilientPeer::new(peer, faults, ResiliencePolicy::default());
            let mut scratch = CommScratch::new();
            let mut x = grad_for(seed, peer.rank(), d);
            let members: Vec<usize> = (0..p).collect();
            match name.as_str() {
                "ring_res" => ring_all_reduce_scratch(&rp, &mut x, &members, &mut scratch),
                _ => torus_all_reduce(&rp, &mut x, m, n),
            }
            x
        })
    };
    let a = faulted();
    let b = faulted();
    ck.check("determinism", a == b, || {
        "second faulted run differs".to_string()
    });
    ck.check("replica-identity", all_ranks_eq(&a), || {
        "ranks hold different results".to_string()
    });
    // Dense traffic never degrades: the retry ladder must deliver the exact
    // bytes of the clean collective.
    let clean = run_on_group(p, |peer| {
        let mut x = grad_for(seed, peer.rank(), d);
        let members: Vec<usize> = (0..p).collect();
        if name == "ring_res" {
            ring_all_reduce(peer, &mut x, &members);
        } else {
            torus_all_reduce(peer, &mut x, m, n);
        }
        x
    });
    ck.check("retry-exactness", bits_eq(&a[0], &clean[0]), || {
        format!(
            "faulted result differs from clean bitwise, linf={}",
            linf(&a[0], &clean[0])
        )
    });
}

/// Sequential reference for HiTopKComm (Algorithm 2): per shard `j`, each
/// node's dense shard sum is compressed by an identically-seeded replica of
/// the owning rank's compressor (`rank = i·n + j`) and scatter-added in
/// node order — the same accumulation order the collective uses.
fn hitopk_oracle(c: &OracleCase) -> Vec<f32> {
    let sums = node_sums(c.seed, c.m, c.n, c.d);
    let k_full = shard_k(c.d, c.n, c.rho);
    let mut out = vec![0.0f32; c.d];
    for (j, sh) in shards(c.d, c.n).iter().enumerate() {
        if sh.is_empty() {
            continue;
        }
        let k = k_full.min(sh.len());
        let buf = sh.slice_mut(&mut out);
        for (i, sum) in sums.iter().enumerate() {
            let mut comp = make_compressor(&c.comp, comp_seed(c.seed, i * c.n + j));
            let sel = comp.compress(sh.slice(sum), k);
            ops::scatter_add(buf, &sel.indices, &sel.values);
        }
    }
    out
}

fn run_hitopk(c: &OracleCase, ck: &mut Checks) {
    let p = c.m * c.n;
    let (m, n, d, rho, seed) = (c.m, c.n, c.d, c.rho, c.seed);
    let comp_name = c.comp.clone();
    let run = || {
        run_on_group(p, |peer| {
            let mut x = grad_for(seed, peer.rank(), d);
            let mut comp = make_compressor(&comp_name, comp_seed(seed, peer.rank()));
            let rep = hitopk_all_reduce(peer, &mut x, m, n, rho, comp.as_mut());
            (x, rep)
        })
    };
    let a = run();
    let b = run();
    ck.check("determinism", a.iter().zip(&b).all(|(x, y)| x == y), || {
        "second run differs from the first".to_string()
    });
    let xs: Vec<Vec<f32>> = a.iter().map(|(x, _)| x.clone()).collect();
    ck.check("replica-identity", all_ranks_eq(&xs), || {
        "ranks hold different results".to_string()
    });
    let reference = hitopk_oracle(c);
    ck.check(
        "oracle-equivalence",
        ops::approx_eq(&xs[0], &reference, SPARSE_TOL),
        || format!("linf={} tol={SPARSE_TOL}", linf(&xs[0], &reference)),
    );
    let k_full = shard_k(d, n, rho);
    for (r, (_, rep)) in a.iter().enumerate() {
        let ok = rep.k_per_shard >= 1
            && rep.k_per_shard <= k_full
            && rep.shard_nonzeros <= m * rep.k_per_shard
            && rep.inter_bytes_sent <= 8 * rep.k_per_shard * m.saturating_sub(1);
        if !ok {
            ck.fail(
                "report-bounds",
                format!(
                    "rank {r}: k_per_shard={} shard_nonzeros={} inter_bytes={} (k_full={k_full}, m={m})",
                    rep.k_per_shard, rep.shard_nonzeros, rep.inter_bytes_sent
                ),
            );
            return;
        }
    }
    ck.check("report-bounds", true, || unreachable!());
}

/// Telescoped mass-conservation ledger shared by the EF variants: over all
/// iterations, per shard `j`, `Σ_t Σ_i compensated_{i,j}(t)` must equal
/// `Σ_t aggregated_j(t) + Σ_i residual_{i,j}(T)` elementwise. Compensated
/// mass telescopes to the raw node shard sums because each iteration's
/// compensation re-injects the previous residual.
#[allow(clippy::too_many_arguments)] // ledger identity is over exactly these inputs
fn check_ledger(
    ck: &mut Checks,
    seed: u64,
    m: usize,
    n: usize,
    d: usize,
    iters: usize,
    aggregated: &[f32],
    residuals: &[Vec<f32>],
) {
    let mut worst = 0.0f32;
    for (j, sh) in shards(d, n).iter().enumerate() {
        if sh.is_empty() {
            continue;
        }
        // Σ_t Σ_i node shard sums (mass in).
        let mut mass_in = vec![0.0f32; sh.len()];
        for t in 0..iters {
            let it_seed = if iters == 1 {
                seed
            } else {
                seed ^ (t as u64 + 1).wrapping_mul(ITER_SALT)
            };
            for sums in node_sums(it_seed, m, n, d) {
                ops::add_assign(&mut mass_in, sh.slice(&sums));
            }
        }
        // Aggregated output on this shard plus every owner's residual.
        let mut mass_out = sh.slice(aggregated).to_vec();
        for i in 0..m {
            ops::add_assign(&mut mass_out, &residuals[i * n + j]);
        }
        worst = worst.max(ops::linf_distance(&mass_in, &mass_out));
    }
    ck.check("mass-ledger", worst <= LEDGER_TOL, || {
        format!("linf={worst} tol={LEDGER_TOL}")
    });
}

fn run_hitopk_ef(c: &OracleCase, ck: &mut Checks) {
    let p = c.m * c.n;
    let (m, n, d, rho, seed) = (c.m, c.n, c.d, c.rho, c.seed);
    let comp_name = c.comp.clone();
    let run = || {
        run_on_group(p, |peer| {
            let shard_len = shards(d, n)[peer.rank() % n].len();
            let mut ef = ErrorFeedback::new(shard_len);
            let mut comp = make_compressor(&comp_name, comp_seed(seed, peer.rank()));
            let mut acc = vec![0.0f32; d];
            for t in 0..EF_ITERS {
                let mut x = grad_iter(seed, t, peer.rank(), d);
                hitopk_all_reduce_ef_scratch(
                    peer,
                    &mut x,
                    m,
                    n,
                    rho,
                    comp.as_mut(),
                    &mut ef,
                    &mut CommScratch::new(),
                );
                ops::add_assign(&mut acc, &x);
            }
            (acc, ef.residual().to_vec())
        })
    };
    let a = run();
    let b = run();
    ck.check("determinism", a.iter().zip(&b).all(|(x, y)| x == y), || {
        "second run differs from the first".to_string()
    });
    let accs: Vec<Vec<f32>> = a.iter().map(|(x, _)| x.clone()).collect();
    ck.check("replica-identity", all_ranks_eq(&accs), || {
        "ranks hold different accumulated results".to_string()
    });
    let residuals: Vec<Vec<f32>> = a.iter().map(|(_, r)| r.clone()).collect();
    // The per-iteration gradients use the iteration-salted seed, so pass the
    // base seed and let the ledger re-derive each iteration.
    check_ledger(ck, seed, m, n, d, EF_ITERS, &accs[0], &residuals);
}

fn run_hitopk_ef_res(c: &OracleCase, ck: &mut Checks) {
    let p = c.m * c.n;
    let (m, n, d, rho, seed) = (c.m, c.n, c.d, c.rho, c.seed);
    let (drops, degrade) = (c.drops, c.degrade);
    let comp_name = c.comp.clone();
    // Every iteration runs over the one `ResilientPeer`, which numbers the
    // instances, so a member degraded in one step re-sends its withheld
    // mass in a later one.
    let faulted = || {
        run_on_group(p, |peer| {
            let shard_len = shards(d, n)[peer.rank() % n].len();
            let mut ef = ErrorFeedback::new(shard_len);
            let mut comp = make_compressor(&comp_name, comp_seed(seed, peer.rank()));
            let faults = CommFaults::new(seed)
                .with_drops(drops)
                .with_degrade(degrade);
            let rp = ResilientPeer::new(peer, faults, ResiliencePolicy::default());
            let mut scratch = CommScratch::new();
            let mut acc = vec![0.0f32; d];
            for t in 0..EF_ITERS {
                let mut x = grad_iter(seed, t, peer.rank(), d);
                hitopk_all_reduce_ef_scratch(
                    &rp,
                    &mut x,
                    m,
                    n,
                    rho,
                    comp.as_mut(),
                    &mut ef,
                    &mut scratch,
                );
                ops::add_assign(&mut acc, &x);
            }
            (acc, ef.residual().to_vec(), rp.report().degraded_members)
        })
    };
    let a = faulted();
    let b = faulted();
    ck.check("determinism", a.iter().zip(&b).all(|(x, y)| x == y), || {
        "second faulted run differs".to_string()
    });
    let accs: Vec<Vec<f32>> = a.iter().map(|(x, _, _)| x.clone()).collect();
    ck.check("replica-identity", all_ranks_eq(&accs), || {
        "ranks hold different accumulated results".to_string()
    });
    // The ledger telescopes over every step: a degraded member's
    // compensated shard survives whole in its residual — nothing is lost,
    // only delayed.
    let residuals: Vec<Vec<f32>> = a.iter().map(|(_, r, _)| r.clone()).collect();
    check_ledger(ck, seed, m, n, d, EF_ITERS, &accs[0], &residuals);
    if degrade > 0.0 {
        let degraded: u64 = a.iter().map(|(_, _, dm)| *dm).sum();
        ck.check("degraded", degraded > 0, || {
            format!("degrade={degrade} withheld no contribution in {EF_ITERS} steps")
        });
    } else {
        // Pure drop faults: retries must reproduce the clean collective
        // bitwise (same compressor replicas, same residual start).
        let clean = run_on_group(p, |peer| {
            let shard_len = shards(d, n)[peer.rank() % n].len();
            let mut ef = ErrorFeedback::new(shard_len);
            let mut comp = make_compressor(&comp_name, comp_seed(seed, peer.rank()));
            let mut acc = vec![0.0f32; d];
            for t in 0..EF_ITERS {
                let mut x = grad_iter(seed, t, peer.rank(), d);
                hitopk_all_reduce_ef_scratch(
                    peer,
                    &mut x,
                    m,
                    n,
                    rho,
                    comp.as_mut(),
                    &mut ef,
                    &mut CommScratch::new(),
                );
                ops::add_assign(&mut acc, &x);
            }
            (acc, ef.residual().to_vec())
        });
        ck.check(
            "retry-exactness",
            bits_eq(&accs[0], &clean[0].0)
                && residuals
                    .iter()
                    .zip(&clean)
                    .all(|(r, (_, cr))| bits_eq(r, cr)),
            || "faulted EF run differs from clean bitwise".to_string(),
        );
    }
}

fn run_gtopk(c: &OracleCase, ck: &mut Checks) {
    let p = c.m * c.n;
    let (d, seed) = (c.d, c.seed);
    let k = global_k(d, c.rho);
    let comp_name = c.comp.clone();
    let run = || {
        run_on_group(p, |peer| {
            let mut x = grad_for(seed, peer.rank(), d);
            let mut comp = make_compressor(&comp_name, comp_seed(seed, peer.rank()));
            let mut ef = ErrorFeedback::new(d);
            let mut scratch = CommScratch::new();
            let sent = gtopk_all_reduce_ef(peer, &mut x, k, comp.as_mut(), &mut ef, &mut scratch);
            (x, sent)
        })
    };
    let a = run();
    let b = run();
    ck.check("determinism", a.iter().zip(&b).all(|(x, y)| x == y), || {
        "second run differs from the first".to_string()
    });
    let xs: Vec<Vec<f32>> = a.iter().map(|(x, _)| x.clone()).collect();
    ck.check("replica-identity", all_ranks_eq(&xs), || {
        "ranks hold different results".to_string()
    });
    let nnz = xs[0].iter().filter(|v| **v != 0.0).count();
    ck.check("k-bound", nnz <= k, || format!("nnz={nnz} k={k}"));
    // Every surviving coordinate must come from some rank's selection:
    // replay each rank's compressor replica and union the supports.
    let mut union: BTreeSet<u32> = BTreeSet::new();
    for r in 0..p {
        let g = grad_for(seed, r, d);
        let mut comp = make_compressor(&comp_name, comp_seed(seed, r));
        union.extend(comp.compress(&g, k.min(d)).indices.iter().copied());
    }
    let stray = xs[0]
        .iter()
        .enumerate()
        .filter(|(i, v)| **v != 0.0 && !union.contains(&(*i as u32)))
        .count();
    ck.check("support-subset", stray == 0, || {
        format!("{stray} nonzero coordinates outside the union of rank selections")
    });
    let wire_cap = (usize::BITS - p.leading_zeros() - 1) as usize * 8 * k;
    for (r, (_, sent)) in a.iter().enumerate() {
        if *sent > wire_cap {
            ck.fail(
                "wire-bound",
                format!("rank {r} sent {sent} bytes > cap {wire_cap}"),
            );
            return;
        }
    }
    ck.check("wire-bound", true, || unreachable!());
}

fn run_gtopk_ef_res(c: &OracleCase, ck: &mut Checks) {
    let p = c.m * c.n;
    let (d, seed) = (c.d, c.seed);
    let k = global_k(d, c.rho);
    let (drops, degrade) = (c.drops, c.degrade);
    let comp_name = c.comp.clone();
    let faulted = || {
        run_on_group(p, |peer| {
            let g0 = grad_for(seed, peer.rank(), d);
            let mut x = g0.clone();
            let mut ef = ErrorFeedback::new(d);
            let mut comp = make_compressor(&comp_name, comp_seed(seed, peer.rank()));
            let faults = CommFaults::new(seed)
                .with_drops(drops)
                .with_degrade(degrade);
            let rp = ResilientPeer::new(peer, faults, ResiliencePolicy::default());
            let mut scratch = CommScratch::new();
            gtopk_all_reduce_ef(&rp, &mut x, k, comp.as_mut(), &mut ef, &mut scratch);
            (x, ef.residual().to_vec(), g0)
        })
    };
    let a = faulted();
    let b = faulted();
    ck.check("determinism", a.iter().zip(&b).all(|(x, y)| x == y), || {
        "second faulted run differs".to_string()
    });
    let xs: Vec<Vec<f32>> = a.iter().map(|(x, _, _)| x.clone()).collect();
    ck.check("replica-identity", all_ranks_eq(&xs), || {
        "ranks hold different results".to_string()
    });
    let nnz = xs[0].iter().filter(|v| **v != 0.0).count();
    ck.check("k-bound", nnz <= k, || format!("nnz={nnz} k={k}"));
    // Per-rank absorb ledger: the compensated gradient is g0 (zero initial
    // residual), so residual must equal g0 exactly except on the selected
    // support, where it must be exactly zero — and a zero-sized support is
    // only legal for a degraded member.
    for (r, (_, residual, g0)) in a.iter().enumerate() {
        let mut selected = 0usize;
        let mut broken = 0usize;
        for i in 0..d {
            if residual[i].to_bits() == g0[i].to_bits() {
                continue;
            }
            selected += 1;
            if residual[i] != 0.0 {
                broken += 1;
            }
        }
        let count_ok = selected == k.min(d) || (degrade > 0.0 && selected == 0);
        if broken > 0 || !count_ok {
            ck.fail(
                "absorb-ledger",
                format!(
                    "rank {r}: selected={selected} expected={} broken={broken} (degrade={degrade})",
                    k.min(d)
                ),
            );
            return;
        }
    }
    ck.check("absorb-ledger", true, || unreachable!());
}

fn run_naiveag(c: &OracleCase, ck: &mut Checks) {
    let p = c.m * c.n;
    let (d, seed) = (c.d, c.seed);
    let k = global_k(d, c.rho);
    let comp_name = c.comp.clone();
    let run = || {
        run_on_group(p, |peer| {
            let mut x = grad_for(seed, peer.rank(), d);
            let mut comp = make_compressor(&comp_name, comp_seed(seed, peer.rank()));
            let sent = sparse_all_reduce_naive(peer, &mut x, k, comp.as_mut());
            (x, sent)
        })
    };
    let a = run();
    let b = run();
    ck.check("determinism", a.iter().zip(&b).all(|(x, y)| x == y), || {
        "second run differs from the first".to_string()
    });
    let xs: Vec<Vec<f32>> = a.iter().map(|(x, _)| x.clone()).collect();
    ck.check("replica-identity", all_ranks_eq(&xs), || {
        "ranks hold different results".to_string()
    });
    // The collective zero-fills and scatter-adds rank blocks in rank order;
    // the oracle replays the identical operation sequence, so equality is
    // bitwise, not approximate.
    let mut reference = vec![0.0f32; d];
    for r in 0..p {
        let g = grad_for(seed, r, d);
        let mut comp = make_compressor(&comp_name, comp_seed(seed, r));
        let sel = comp.compress(&g, k);
        ops::scatter_add(&mut reference, &sel.indices, &sel.values);
    }
    ck.check("oracle-equivalence", bits_eq(&xs[0], &reference), || {
        format!("linf={}", linf(&xs[0], &reference))
    });
    let expect_sent = 8 * k.min(d) * (p - 1);
    for (r, (_, sent)) in a.iter().enumerate() {
        if *sent != expect_sent {
            ck.fail(
                "wire-bytes",
                format!("rank {r} sent {sent}, expected {expect_sent}"),
            );
            return;
        }
    }
    ck.check("wire-bytes", true, || unreachable!());
}

/// The O(k) sparse allreduce's contract is *bitwise* identity with the
/// HiTopKComm twin under identical compressor replicas: both accumulate
/// member contributions in inter-member order, only the wire pattern
/// (split + merged gather vs full-selection gather) differs. Every
/// `oksparse*` runner therefore carries the hitopk check family plus a
/// `hitopk-bitwise` differential against the staged twin, and bounds the
/// wire bytes by the worst-case closed form `8·(k̃ + m·k̃·(m−1))` — split
/// entries never exceed k̃, and a merged range holds at most every
/// member's whole selection (`m·k̃`; the *expected* size under selection
/// overlap is what makes the scheme O(k̃), the bound is the disjoint
/// worst case).
fn ok_wire_cap(m: usize, k: usize) -> usize {
    8 * (k + m * k * m.saturating_sub(1))
}

fn run_oksparse(c: &OracleCase, ck: &mut Checks) {
    let p = c.m * c.n;
    let (m, n, d, rho, seed) = (c.m, c.n, c.d, c.rho, c.seed);
    let comp_name = c.comp.clone();
    // A plain O(k) run: the sparse hierarchy with split-and-merge over a
    // fresh zero residual. A member's merged-list length is read from the
    // output: the non-zeros of its owner range within its shard.
    let run = || {
        run_on_group(p, |peer| {
            let mut x = grad_for(seed, peer.rank(), d);
            let mut comp = make_compressor(&comp_name, comp_seed(seed, peer.rank()));
            let (node, gpu) = (peer.rank() / n, peer.rank() % n);
            let shard = shard_for(d, n, gpu);
            let mut ef = ErrorFeedback::new(shard.len());
            let rep = hitopk_all_reduce_ef(
                peer,
                &mut x,
                m,
                n,
                rho,
                InterStep::SplitMerge,
                comp.as_mut(),
                &mut ef,
                &mut CommScratch::new(),
            );
            let owned = shards(shard.len(), m)[node].slice(shard.slice(&x));
            let merged_len = owned.iter().filter(|v| **v != 0.0).count();
            (x, rep, merged_len)
        })
    };
    let a = run();
    let b = run();
    ck.check("determinism", a.iter().zip(&b).all(|(x, y)| x == y), || {
        "second run differs from the first".to_string()
    });
    let xs: Vec<Vec<f32>> = a.iter().map(|(x, _, _)| x.clone()).collect();
    ck.check("replica-identity", all_ranks_eq(&xs), || {
        "ranks hold different results".to_string()
    });
    let reference = hitopk_oracle(c);
    ck.check(
        "oracle-equivalence",
        ops::approx_eq(&xs[0], &reference, SPARSE_TOL),
        || format!("linf={} tol={SPARSE_TOL}", linf(&xs[0], &reference)),
    );
    let twin = run_on_group(p, |peer| {
        let mut x = grad_for(seed, peer.rank(), d);
        let mut comp = make_compressor(&comp_name, comp_seed(seed, peer.rank()));
        let rep = hitopk_all_reduce(peer, &mut x, m, n, rho, comp.as_mut());
        (x, rep)
    });
    ck.check(
        "hitopk-bitwise",
        a.iter().zip(&twin).all(|((x, rep, _), (hx, hrep))| {
            bits_eq(x, hx)
                && rep.k_per_shard == hrep.k_per_shard
                && rep.shard_nonzeros == hrep.shard_nonzeros
        }),
        || "O(k) aggregate differs from the HiTopKComm twin bitwise".to_string(),
    );
    let k_full = shard_k(d, n, rho);
    for (r, (_, rep, merged_len)) in a.iter().enumerate() {
        let ok = rep.k_per_shard >= 1
            && rep.k_per_shard <= k_full
            && *merged_len <= m * rep.k_per_shard
            && rep.inter_bytes_sent <= ok_wire_cap(m, rep.k_per_shard);
        if !ok {
            ck.fail(
                "wire-bound",
                format!(
                    "rank {r}: k_per_shard={} merged_len={} inter_bytes={} (k_full={k_full}, m={m})",
                    rep.k_per_shard, merged_len, rep.inter_bytes_sent
                ),
            );
            return;
        }
    }
    ck.check("wire-bound", true, || unreachable!());
}

fn run_oksparse_ef(c: &OracleCase, ck: &mut Checks) {
    let p = c.m * c.n;
    let (m, n, d, rho, seed) = (c.m, c.n, c.d, c.rho, c.seed);
    let comp_name = c.comp.clone();
    let run = |step: InterStep| {
        run_on_group(p, |peer| {
            let shard_len = shards(d, n)[peer.rank() % n].len();
            let mut ef = ErrorFeedback::new(shard_len);
            let mut comp = make_compressor(&comp_name, comp_seed(seed, peer.rank()));
            let mut scratch = CommScratch::new();
            let mut acc = vec![0.0f32; d];
            for t in 0..EF_ITERS {
                let mut x = grad_iter(seed, t, peer.rank(), d);
                let (comp, ef, scratch) = (comp.as_mut(), &mut ef, &mut scratch);
                hitopk_all_reduce_ef(peer, &mut x, m, n, rho, step, comp, ef, scratch);
                ops::add_assign(&mut acc, &x);
            }
            (acc, ef.residual().to_vec())
        })
    };
    let a = run(InterStep::SplitMerge);
    let b = run(InterStep::SplitMerge);
    ck.check("determinism", a.iter().zip(&b).all(|(x, y)| x == y), || {
        "second run differs from the first".to_string()
    });
    let accs: Vec<Vec<f32>> = a.iter().map(|(x, _)| x.clone()).collect();
    ck.check("replica-identity", all_ranks_eq(&accs), || {
        "ranks hold different accumulated results".to_string()
    });
    let residuals: Vec<Vec<f32>> = a.iter().map(|(_, r)| r.clone()).collect();
    check_ledger(ck, seed, m, n, d, EF_ITERS, &accs[0], &residuals);
    // Residual carry-over included: the O(k) EF pipeline must reproduce the
    // hitopk EF twin bitwise — accumulated output and final residuals both.
    let twin = run(InterStep::AllGatherPairs);
    ck.check(
        "hitopk-bitwise",
        a.iter()
            .zip(&twin)
            .all(|((acc, r), (hacc, hr))| bits_eq(acc, hacc) && bits_eq(r, hr)),
        || "O(k) EF pipeline differs from the HiTopKComm twin bitwise".to_string(),
    );
}

fn run_oksparse_ef_res(c: &OracleCase, ck: &mut Checks) {
    let p = c.m * c.n;
    let (m, n, d, rho, seed) = (c.m, c.n, c.d, c.rho, c.seed);
    let (drops, degrade) = (c.drops, c.degrade);
    let comp_name = c.comp.clone();
    let faulted = || {
        run_on_group(p, |peer| {
            let shard_len = shards(d, n)[peer.rank() % n].len();
            let mut ef = ErrorFeedback::new(shard_len);
            let mut comp = make_compressor(&comp_name, comp_seed(seed, peer.rank()));
            let faults = CommFaults::new(seed)
                .with_drops(drops)
                .with_degrade(degrade);
            let rp = ResilientPeer::new(peer, faults, ResiliencePolicy::default());
            let mut scratch = CommScratch::new();
            let mut x = grad_for(seed, peer.rank(), d);
            hitopk_all_reduce_ef(
                &rp,
                &mut x,
                m,
                n,
                rho,
                InterStep::SplitMerge,
                comp.as_mut(),
                &mut ef,
                &mut scratch,
            );
            (x, ef.residual().to_vec())
        })
    };
    let a = faulted();
    let b = faulted();
    ck.check("determinism", a.iter().zip(&b).all(|(x, y)| x == y), || {
        "second faulted run differs".to_string()
    });
    let xs: Vec<Vec<f32>> = a.iter().map(|(x, _)| x.clone()).collect();
    ck.check("replica-identity", all_ranks_eq(&xs), || {
        "ranks hold different results".to_string()
    });
    let residuals: Vec<Vec<f32>> = a.iter().map(|(_, r)| r.clone()).collect();
    check_ledger(ck, seed, m, n, d, 1, &xs[0], &residuals);
    if degrade == 0.0 {
        // Pure drop faults: retries must reproduce the clean O(k)
        // collective bitwise (same compressor replicas, same residuals).
        let clean = run_on_group(p, |peer| {
            let shard_len = shards(d, n)[peer.rank() % n].len();
            let mut ef = ErrorFeedback::new(shard_len);
            let mut comp = make_compressor(&comp_name, comp_seed(seed, peer.rank()));
            let mut scratch = CommScratch::new();
            let mut x = grad_for(seed, peer.rank(), d);
            hitopk_all_reduce_ef(
                peer,
                &mut x,
                m,
                n,
                rho,
                InterStep::SplitMerge,
                comp.as_mut(),
                &mut ef,
                &mut scratch,
            );
            (x, ef.residual().to_vec())
        });
        ck.check(
            "retry-exactness",
            bits_eq(&xs[0], &clean[0].0)
                && residuals
                    .iter()
                    .zip(&clean)
                    .all(|(r, (_, cr))| bits_eq(r, cr)),
            || "faulted O(k) EF run differs from clean bitwise".to_string(),
        );
    }
}

fn quantizer_bound(name: &str, g: &[f32]) -> f32 {
    match name {
        // QSGD rounds within adjacent levels of ‖x‖₂/s.
        "qsgd" => ops::l2_norm(g) / QSGD_LEVELS as f32,
        // TernGrad decodes to {0, ±max|x|}.
        "terngrad" => ops::max_abs(g),
        // ScaledSign decodes to ±mean|x|.
        _ => ops::max_abs(g) + ops::mean_abs(g),
    }
}

fn run_quantized(c: &OracleCase, ck: &mut Checks) {
    let p = c.m * c.n;
    let (d, seed) = (c.d, c.seed);
    let name = c.collective.clone();
    let run = || {
        run_on_group(p, |peer| {
            let mut x = grad_for(seed, peer.rank(), d);
            let mut q: Box<dyn Quantizer> = match name.as_str() {
                "qsgd" => Box::new(Qsgd::new(QSGD_LEVELS, comp_seed(seed, peer.rank()))),
                "terngrad" => Box::new(TernGrad::new(comp_seed(seed, peer.rank()))),
                _ => Box::new(ScaledSign),
            };
            let sent = quantized_all_reduce(peer, &mut x, q.as_mut());
            (x, sent)
        })
    };
    let a = run();
    let b = run();
    ck.check("determinism", a.iter().zip(&b).all(|(x, y)| x == y), || {
        "second run differs from the first".to_string()
    });
    let xs: Vec<Vec<f32>> = a.iter().map(|(x, _)| x.clone()).collect();
    ck.check("replica-identity", all_ranks_eq(&xs), || {
        "ranks hold different results".to_string()
    });
    // Elementwise quantization-error bound: the aggregate may deviate from
    // the dense sum by at most the sum of each rank's per-scheme bound.
    let reference = dense_sum(seed, p, d);
    let budget: f32 = (0..p)
        .map(|r| quantizer_bound(&c.collective, &grad_for(seed, r, d)))
        .sum();
    let err = linf(&xs[0], &reference);
    ck.check("quantization-bound", err <= budget + 1e-4, || {
        format!("linf={err} budget={budget}")
    });
}
