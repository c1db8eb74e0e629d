//! Workspace-pass tests: twin drift, conformance coverage, cast flow, and
//! float determinism, driven through the in-memory [`run_files`] core so
//! fixtures and mutated copies of the real tree can be linted without
//! touching disk.

use std::path::{Path, PathBuf};

use cloudtrain_lint::{collect_workspace, run_files, Config, FileInput, Report};

fn workspace_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .and_then(Path::parent)
        .expect("crates/lint has a workspace two levels up")
        .to_path_buf()
}

fn input(rel_path: &str, crate_name: &str, src: &str) -> FileInput {
    FileInput {
        rel_path: rel_path.to_string(),
        src: src.to_string(),
        crate_name: crate_name.to_string(),
        features: Vec::new(),
    }
}

fn rule_hits<'a>(report: &'a Report, rule: &str) -> Vec<&'a cloudtrain_lint::Finding> {
    report.findings.iter().filter(|f| f.rule == rule).collect()
}

// ---------------------------------------------------------------- twin_drift

fn twin_config() -> Config {
    Config {
        twin_crates: vec!["fixture-collectives".to_string()],
        ..Config::default()
    }
}

#[test]
fn twin_drift_flags_a_twin_missing_a_base_hop() {
    let src = "\
fn hop_a() {}\n\
fn hop_b() {}\n\
fn release() {}\n\
pub fn reduce_pair(x: &mut [f32]) { hop_a(); hop_b(); }\n\
pub fn reduce_pair_ef(x: &mut [f32]) { hop_a(); release(); }\n";
    let inputs = [input("crates/fix/src/lib.rs", "fixture-collectives", src)];
    let report = run_files(&inputs, &twin_config());
    let hits = rule_hits(&report, "twin_drift");
    assert_eq!(hits.len(), 1, "{:?}", report.findings);
    assert!(hits[0].message.contains("reduce_pair_ef"));
    assert!(
        hits[0].message.contains("missing base calls [hop_b]"),
        "{}",
        hits[0].message
    );
    assert_eq!(report.twin_families, 1);
}

#[test]
fn twin_drift_flags_unsanctioned_extra_calls() {
    let src = "\
fn hop_a() {}\n\
fn hop_b() {}\n\
fn rogue_stage() {}\n\
pub fn reduce_pair(x: &mut [f32]) { hop_a(); hop_b(); }\n\
pub fn reduce_pair_scratch(x: &mut [f32]) { hop_a(); hop_b(); rogue_stage(); }\n";
    let inputs = [input("crates/fix/src/lib.rs", "fixture-collectives", src)];
    let report = run_files(&inputs, &twin_config());
    let hits = rule_hits(&report, "twin_drift");
    assert_eq!(hits.len(), 1, "{:?}", report.findings);
    assert!(
        hits[0]
            .message
            .contains("unsanctioned extra calls [rogue_stage]"),
        "{}",
        hits[0].message
    );
}

#[test]
fn twin_drift_accepts_declared_rewrites_and_neutral_plumbing() {
    // The error-feedback twin adds release (sanctioned for `ef`); the
    // scratch twin only swaps allocation (pool traffic is neutral). Both
    // are clean.
    let src = "\
fn hop_a() {}\n\
fn hop_b() {}\n\
fn release() {}\n\
fn take_f32() {}\n\
pub fn reduce_pair(x: &mut [f32]) { hop_a(); hop_b(); }\n\
pub fn reduce_pair_scratch(x: &mut [f32]) { take_f32(); hop_a(); hop_b(); }\n\
pub fn reduce_pair_ef(x: &mut [f32]) { hop_a(); hop_b(); release(); }\n";
    let inputs = [input("crates/fix/src/lib.rs", "fixture-collectives", src)];
    let report = run_files(&inputs, &twin_config());
    assert_eq!(
        rule_hits(&report, "twin_drift").len(),
        0,
        "{:?}",
        report.findings
    );
    assert_eq!(report.twin_families, 2);
}

#[test]
fn twin_drift_follows_delegation_wrappers() {
    // The public twin delegates to an _impl; its skeleton must be the
    // impl's, so the missing hop still surfaces. The error-feedback twin
    // calls the base's impl itself, so it inherits the base's skeleton.
    let src = "\
fn hop_a() {}\n\
fn hop_b() {}\n\
fn release() {}\n\
fn reduce_impl(x: &mut [f32]) { hop_a(); hop_b(); }\n\
fn reduce_pooled_impl(x: &mut [f32]) { hop_a(); }\n\
pub fn reduce_pair(x: &mut [f32]) { reduce_impl(x); }\n\
pub fn reduce_pair_scratch(x: &mut [f32]) { reduce_pooled_impl(x); }\n\
pub fn reduce_pair_ef(x: &mut [f32]) { release(); reduce_impl(x); }\n";
    let inputs = [input("crates/fix/src/lib.rs", "fixture-collectives", src)];
    let report = run_files(&inputs, &twin_config());
    let hits = rule_hits(&report, "twin_drift");
    assert_eq!(hits.len(), 1, "{:?}", report.findings);
    assert!(hits[0].message.contains("hop_b"), "{}", hits[0].message);
}

/// Every HiTopKComm entry point — plain, error-feedback and staged — runs
/// the one error-feedback body, so a call dropped from it
/// (the selection, or the release of what was sent) reaches them all
/// together: no entry drifts from its base, and the behaviour tests
/// (`hitopk_reference`, the folded hop's reference, the conformance
/// ledgers) are what catch it. An entry that grew a body of its own would
/// keep the dropped call and drift here.
#[test]
fn mutation_dropping_an_error_feedback_call_reaches_every_hitopk_entry_point() {
    let config = Config::default();
    let pristine = collect_workspace(&workspace_root(), &config).expect("walk");
    let mutated = |from: &str, to: &str| {
        let mut inputs = pristine.clone();
        let file = inputs
            .iter_mut()
            .find(|i| i.rel_path == "crates/collectives/src/hierarchical.rs")
            .expect("hierarchical.rs present");
        assert_eq!(file.src.matches(from).count(), 1, "mutation anchor moved");
        file.src = file.src.replacen(from, to, 1);
        run_files(&inputs, &config)
    };

    for (from, to) in [
        (
            "compressor.compress(ef.residual(), k);",
            "SparseGrad::empty(shard.len());",
        ),
        ("ef.release(&selection);", ""),
    ] {
        let report = mutated(from, to);
        let drift = rule_hits(&report, "twin_drift");
        for entry in ["hitopk_all_reduce_ef", "hitopk_all_reduce_ef_scratch"] {
            assert!(
                !drift
                    .iter()
                    .any(|f| f.message.contains(&format!("`{entry}`"))),
                "`{entry}` shares the one body and must not drift; got {drift:?}"
            );
        }
    }
}

// ----------------------------------------------------- coverage_conformance

fn coverage_fixture(with_rogue: bool) -> Vec<FileInput> {
    let report_src = "\
pub fn expected_pairings() -> Vec<(&'static str, &'static str)> {\n\
    let mut out = Vec::new();\n\
    for coll in [\"ring\"] { out.push((coll, \"-\")); }\n\
    for coll in [\"gtopk\"] {\n\
        for comp in crate::corpus::COMPRESSORS { out.push((coll, *comp)); }\n\
    }\n\
    out\n\
}\n";
    let corpus_src = "pub const COMPRESSORS: &[&str] = &[\"sorttopk\", \"dgc\"];\n";
    let oracle_src = "\
pub fn run(name: &str) -> u32 {\n\
    match name {\n\
        \"ring\" => 1,\n\
        \"gtopk\" => 2,\n\
        _ => 0,\n\
    }\n\
}\n";
    let mut coll_src = String::from(
        "pub fn ring_all_reduce(x: &mut [f32]) {}\npub fn gtopk_all_reduce(x: &mut [f32]) {}\n",
    );
    if with_rogue {
        coll_src.push_str("pub fn rogue_all_reduce(x: &mut [f32]) {}\n");
    }
    vec![
        input(
            "crates/conformance/src/report.rs",
            "fixture-conformance",
            report_src,
        ),
        input(
            "crates/conformance/src/corpus.rs",
            "fixture-conformance",
            corpus_src,
        ),
        input(
            "crates/conformance/src/oracle.rs",
            "fixture-conformance",
            oracle_src,
        ),
        input(
            "crates/collectives/src/lib.rs",
            "fixture-collectives",
            &coll_src,
        ),
    ]
}

fn coverage_config() -> Config {
    Config {
        collectives_crate: "fixture-collectives".to_string(),
        ..Config::default()
    }
}

#[test]
fn coverage_conformance_accepts_a_closed_matrix() {
    let report = run_files(&coverage_fixture(false), &coverage_config());
    assert_eq!(
        rule_hits(&report, "coverage_conformance").len(),
        0,
        "{:?}",
        report.findings
    );
    // 1 dense + 1 sparse tag x 2 compressors.
    assert_eq!(report.pairings, 3);
}

#[test]
fn coverage_conformance_flags_an_unregistered_collective() {
    let report = run_files(&coverage_fixture(true), &coverage_config());
    let hits = rule_hits(&report, "coverage_conformance");
    assert_eq!(hits.len(), 1, "{:?}", report.findings);
    assert!(hits[0].message.contains("rogue_all_reduce"));
    assert!(hits[0].message.contains("rogue"), "{}", hits[0].message);
}

#[test]
fn coverage_conformance_flags_a_tag_without_an_oracle_arm() {
    let mut inputs = coverage_fixture(false);
    // Disable the gtopk dispatch arm: its registered pairings can no
    // longer execute, and the renamed arm is unregistered — both fire.
    inputs[2].src = inputs[2].src.replace("\"gtopk\" =>", "\"gtopk_off\" =>");
    let report = run_files(&inputs, &coverage_config());
    let hits = rule_hits(&report, "coverage_conformance");
    assert!(
        hits.iter().any(|f| f.message.contains("no dispatch arm")),
        "{:?}",
        report.findings
    );
    assert!(
        hits.iter().any(|f| f.message.contains("does not register")),
        "{:?}",
        report.findings
    );
}

/// Acceptance criterion: the matrix the analyzer re-derives from source
/// matches the 55 pairings `BENCH_conformance.json` snapshots, and
/// deleting any one registration turns the lint red.
#[test]
fn real_tree_pairings_match_the_conformance_snapshot() {
    let root = workspace_root();
    let config = Config::default();
    let inputs = collect_workspace(&root, &config).expect("walk");
    let report = run_files(&inputs, &config);
    assert_eq!(report.pairings, 55, "re-derived matrix size drifted");

    let snapshot = std::fs::read_to_string(root.join("BENCH_conformance.json"))
        .expect("conformance snapshot present");
    let expected: usize = snapshot
        .split("\"coverage_expected\":")
        .nth(1)
        .and_then(|s| s.trim_start().split(&[',', '}'][..]).next())
        .and_then(|s| s.trim().parse().ok())
        .expect("snapshot has coverage_expected");
    assert_eq!(report.pairings, expected, "source and snapshot disagree");
}

#[test]
fn deleting_a_conformance_registration_turns_lint_red() {
    let root = workspace_root();
    let config = Config::default();
    let mut inputs = collect_workspace(&root, &config).expect("walk");
    let report_rs = inputs
        .iter_mut()
        .find(|i| i.rel_path == "crates/conformance/src/report.rs")
        .expect("report.rs present");
    assert!(report_rs.src.contains("\"ring_res\","), "anchor moved");
    report_rs.src = report_rs.src.replacen("\"ring_res\",", "", 1);

    let report = run_files(&inputs, &config);
    let hits = rule_hits(&report, "coverage_conformance");
    assert!(
        hits.iter().any(|f| f.message.contains("ring_res")),
        "dropping the ring_res registration must be caught: {:?}",
        report.findings
    );
}

// ------------------------------------------------------------------ cast_flow

#[test]
fn cast_flow_flags_unchecked_length_casts_into_sinks() {
    let src = "\
pub fn build(frame_len: u32, buf: &[u8]) -> Vec<u8> {\n\
    let n = frame_len as usize * 4;\n\
    let mut v = Vec::with_capacity(n);\n\
    let b = buf[n];\n\
    v.push(b);\n\
    v\n\
}\n";
    let inputs = [input("crates/fix/src/wire.rs", "fixture-net", src)];
    let report = run_files(&inputs, &Config::default());
    let hits = rule_hits(&report, "cast_flow");
    assert_eq!(hits.len(), 2, "{:?}", report.findings);
    assert!(hits.iter().any(|f| f.message.contains("with_capacity")));
    assert!(hits.iter().any(|f| f.message.contains("indexes a slice")));
}

#[test]
fn cast_flow_accepts_guarded_and_call_wrapped_casts() {
    let src = "\
fn owner_of(i: usize) -> usize { i }\n\
pub fn build(frame_len: u32, cap: usize) -> Vec<u8> {\n\
    let n = (frame_len as usize).min(cap);\n\
    let t = owner_of(frame_len as usize);\n\
    let mut v = Vec::with_capacity(n);\n\
    v.reserve(t);\n\
    v\n\
}\n";
    let inputs = [input("crates/fix/src/wire.rs", "fixture-net", src)];
    let report = run_files(&inputs, &Config::default());
    assert_eq!(
        rule_hits(&report, "cast_flow").len(),
        0,
        "{:?}",
        report.findings
    );
}

#[test]
fn cast_flow_leaves_decode_paths_to_checked_decode() {
    let src = "\
pub fn decode_frame(len_field: u32) -> Vec<u8> {\n\
    let n = len_field as usize;\n\
    Vec::with_capacity(n)\n\
}\n";
    let inputs = [input("crates/fix/src/wire.rs", "fixture-net", src)];
    let report = run_files(&inputs, &Config::default());
    assert_eq!(
        rule_hits(&report, "cast_flow").len(),
        0,
        "{:?}",
        report.findings
    );
}

// ---------------------------------------------------------- float_determinism

fn float_config() -> Config {
    Config {
        float_crates: vec!["fixture-tensor".to_string()],
        ..Config::default()
    }
}

#[test]
fn float_determinism_flags_adhoc_reduction_loops() {
    let src = "\
pub fn norm(x: &[f32]) -> f32 {\n\
    let mut acc = 0.0;\n\
    for v in x { acc += v * v; }\n\
    acc\n\
}\n\
pub fn total(x: &[f32]) -> f32 { x.iter().map(|v| v + 1.0).sum::<f32>() }\n";
    let inputs = [input("crates/fix/src/ops.rs", "fixture-tensor", src)];
    let report = run_files(&inputs, &float_config());
    let hits = rule_hits(&report, "float_determinism");
    assert_eq!(hits.len(), 2, "{:?}", report.findings);
    assert!(hits.iter().any(|f| f.message.contains("acc")));
    assert!(hits.iter().any(|f| f.message.contains("sum::<float>")));
}

#[test]
fn float_determinism_accepts_block_chunked_kernels_and_other_crates() {
    let sanctioned = "\
const REDUCE_BLOCK: usize = 65536;\n\
fn block_sum(b: &[f32]) -> f32 { b[0] }\n\
pub fn norm(x: &[f32]) -> f32 {\n\
    let mut acc = 0.0;\n\
    for b in x.chunks(REDUCE_BLOCK) { acc += block_sum(b); }\n\
    acc\n\
}\n";
    let inputs = [input("crates/fix/src/ops.rs", "fixture-tensor", sanctioned)];
    let report = run_files(&inputs, &float_config());
    assert_eq!(
        rule_hits(&report, "float_determinism").len(),
        0,
        "{:?}",
        report.findings
    );

    // Same ad-hoc loop outside the kernel crates: out of jurisdiction.
    let adhoc = "pub fn norm(x: &[f32]) -> f32 { let mut a = 0.0; for v in x { a += v; } a }\n";
    let inputs = [input("crates/fix/src/ops.rs", "fixture-other", adhoc)];
    let report = run_files(&inputs, &float_config());
    assert_eq!(rule_hits(&report, "float_determinism").len(), 0);
}

// ------------------------------------------------------------- self-metrics

#[test]
fn analyzer_self_metrics_reflect_the_real_tree() {
    let config = Config::default();
    let inputs = collect_workspace(&workspace_root(), &config).expect("walk");
    let report = run_files(&inputs, &config);
    assert!(
        report.symbols > 1000,
        "symbol table too small: {}",
        report.symbols
    );
    assert!(
        report.call_edges > 2000,
        "call graph too sparse: {}",
        report.call_edges
    );
    assert!(
        report.twin_families >= 8,
        "twin discovery broke: {}",
        report.twin_families
    );
    let jsonl = report.to_jsonl();
    for counter in [
        "lint/symbols",
        "lint/call_edges",
        "lint/twin_families",
        "lint/pairings",
    ] {
        assert!(jsonl.contains(counter), "JSONL missing {counter}");
    }
}

#[test]
fn workspace_suppressions_cover_workspace_rules() {
    // A lint:allow at a fn flagged by a workspace rule must waive it like
    // any per-file rule finding.
    let src = "\
fn hop_a() {}\n\
fn hop_b() {}\n\
pub fn reduce_pair(x: &mut [f32]) { hop_a(); hop_b(); }\n\
// lint:allow(twin_drift, reason = \"fixture: intentional divergence\")\n\
pub fn reduce_pair_scratch(x: &mut [f32]) { hop_a(); }\n";
    let inputs = [input("crates/fix/src/lib.rs", "fixture-collectives", src)];
    let report = run_files(&inputs, &twin_config());
    assert_eq!(
        rule_hits(&report, "twin_drift").len(),
        0,
        "{:?}",
        report.findings
    );
    assert!(report.suppressed >= 1);
}

/// Code compiled outside tests is production code whatever its `cfg`
/// mentions: `not(test)` and `any(test, ..)` bodies stay under every rule.
#[test]
fn cfg_not_test_code_is_not_hidden_from_the_rules() {
    let src = "\
pub fn a(v: Option<u8>) -> u8 { v.unwrap() }\n\
#[cfg(not(test))]\n\
pub fn b(v: Option<u8>) -> u8 { v.unwrap() }\n\
#[cfg(any(test, unix))]\n\
pub fn c(v: Option<u8>) -> u8 { v.unwrap() }\n\
#[cfg(test)]\n\
pub fn d(v: Option<u8>) -> u8 { v.unwrap() }\n";
    let inputs = [input("crates/obs/src/lib.rs", "cloudtrain-obs", src)];
    let report = run_files(&inputs, &Config::default());
    let hits = rule_hits(&report, "panic_free");
    assert_eq!(hits.len(), 3, "{:?}", report.findings);
}
