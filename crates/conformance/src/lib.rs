//! Cross-plane conformance harness: oracle differential fuzzing,
//! cost-model validation, and metamorphic compressor properties.
//!
//! The repo's two planes — the *correctness plane* (`cloudtrain-collectives`
//! moving real bytes between threads) and the *performance plane*
//! (`cloudtrain-simnet` charging α–β time for the same schedules) — evolved
//! in parallel. This crate is the harness that ties them together, driven by
//! a persisted seed corpus so every divergence ever found becomes a
//! permanent regression test. Three engines:
//!
//! * [`oracle`] — every collective is run against a single-process dense
//!   reference over the corpus's tensor shapes, topologies, compressor
//!   choices and fault parameters: bitwise cross-replica equality and
//!   determinism for all paths, sequential-sum equivalence for dense paths,
//!   and error-feedback *mass-conservation ledgers* (within documented
//!   tolerances) for sparse paths.
//! * [`costmodel`] — an executable encoding of the paper's cost model
//!   (Eqs. 7–10) cross-checked against `simnet` timeline makespans over the
//!   corpus's (nodes, GPUs, density, bandwidth) grid, failing on relative
//!   divergence outside a pinned per-phase tolerance table.
//! * [`metamorphic`] — permutation equivariance, scaling homogeneity and
//!   k-monotonicity for every compressor in `cloudtrain-compress`, with
//!   per-operator property strength documented in DESIGN.md §10.
//!
//! The harness is fully deterministic: no wall clocks, no unseeded RNG, and
//! all report containers are ordered, so two runs over the same corpus emit
//! byte-identical JSONL and table output (CI runs it twice and `cmp`s).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod corpus;
pub mod costmodel;
pub mod metamorphic;
pub mod oracle;
pub mod report;

pub use corpus::Case;
pub use report::{CaseResult, ConformanceReport};

/// The persisted seed corpus shipped with the crate.
///
/// Every line is a pinned regression case; divergences found by fuzzing are
/// appended here (with a comment naming the failure) so they re-run forever.
pub fn shipped_corpus() -> &'static str {
    include_str!("../corpus/seed.corpus")
}

/// Parses and runs a corpus, returning the assembled report.
///
/// # Errors
/// Returns a message naming the offending line when the corpus text does
/// not parse or a case fails validation (unknown collective, non-power-of-
/// two world for RHD/gTop-k, and so on). Check *failures* are not errors:
/// they are recorded per case in the report as divergences.
pub fn run_corpus(text: &str) -> Result<ConformanceReport, String> {
    let cases = corpus::parse(text)?;
    Ok(run_cases(&cases))
}

/// Runs an already-parsed case list in order.
pub fn run_cases(cases: &[Case]) -> ConformanceReport {
    let mut report = ConformanceReport::new();
    for (i, case) in cases.iter().enumerate() {
        let result = match case {
            Case::Oracle(c) => oracle::run(i, c),
            Case::Cost(c) => costmodel::run(i, c),
            Case::Meta(c) => metamorphic::run(i, c),
        };
        report.push(result);
    }
    report
}

/// Deterministically expands `count` extra oracle fuzz cases from `seed`.
///
/// Shapes, densities and compressors are drawn from a seeded RNG, so a
/// `(count, seed)` pair always names the same case list: a divergence found
/// under fuzzing is reproduced by re-running with the same pair, then
/// pinned by appending the printed corpus line to the seed corpus.
pub fn expand_fuzz(count: usize, seed: u64) -> Vec<Case> {
    use cloudtrain_tensor::init;
    let mut rng = init::rng_from_seed(seed ^ FUZZ_SALT);
    let mut out = Vec::with_capacity(count);
    let collectives = [
        "ring",
        "tree",
        "torus",
        "hitopk",
        "hitopk_ef",
        "gtopk",
        "naiveag",
        "oksparse",
        "oksparse_ef",
    ];
    let comps = ["sorttopk", "quicktopk", "mstopk", "dgc", "randomk"];
    for i in 0..count {
        let name = collectives[pick(&mut rng, collectives.len())];
        // gTop-k needs a power-of-two world; others take any grid.
        let (m, n) = match name {
            "gtopk" => {
                let m = 1usize << pick(&mut rng, 3);
                let n = 1usize << pick(&mut rng, 3);
                (m, n)
            }
            _ => (1 + pick(&mut rng, 4), 1 + pick(&mut rng, 4)),
        };
        let d = 8 + pick(&mut rng, 400);
        let rho = [0.02, 0.05, 0.1, 0.25][pick(&mut rng, 4)];
        let comp = comps[pick(&mut rng, comps.len())];
        let case_seed = seed
            .wrapping_mul(0x9E37_79B9_7F4A_7C15)
            .wrapping_add(i as u64);
        out.push(Case::Oracle(corpus::OracleCase {
            collective: name.to_string(),
            m,
            n,
            d,
            rho,
            comp: if matches!(name, "ring" | "tree" | "torus") {
                "-".to_string()
            } else {
                comp.to_string()
            },
            seed: case_seed,
            drops: 0.0,
            degrade: 0.0,
        }));
    }
    out
}

/// Uniform draw in `0..n` from a seeded RNG (no ambient randomness).
fn pick(rng: &mut rand::rngs::StdRng, n: usize) -> usize {
    use rand::RngExt;
    let f: f32 = rng.random();
    ((f * n as f32) as usize).min(n.saturating_sub(1))
}

/// Domain-separation salt for the fuzz RNG stream.
const FUZZ_SALT: u64 = 0xF0CC_A5E5_0000_0001;
