//! Fixture-driven rule tests: every rule has at least one positive and one
//! negative fixture under `tests/fixtures/`. Fixtures are linted as if they
//! lived in a library crate named `cloudtrain-fixture` that is subject to the
//! panic-free and forbid-unsafe policies.

use cloudtrain_lint::{lint_source, Config, FileLint};

/// Lint one fixture file under a synthetic crate path.
///
/// `rel_path` is the pretend workspace-relative path of the fixture (the
/// rules key off path shape: `src/lib.rs` roots, `src/bin/` mains, bench
/// allowlist prefixes). `features` is the pretend manifest feature list.
fn lint_fixture(name: &str, rel_path: &str, features: &[&str]) -> FileLint {
    let disk = format!("{}/tests/fixtures/{name}", env!("CARGO_MANIFEST_DIR"));
    let src =
        std::fs::read_to_string(&disk).unwrap_or_else(|e| panic!("fixture {name} unreadable: {e}"));
    let mut config = Config::default();
    config
        .panic_free_crates
        .push("cloudtrain-fixture".to_string());
    config
        .forbid_unsafe_crates
        .push("cloudtrain-fixture".to_string());
    let features: Vec<String> = features.iter().map(|f| f.to_string()).collect();
    lint_source(rel_path, &src, "cloudtrain-fixture", &features, &config)
}

fn rule_hits(lint: &FileLint, rule: &str) -> usize {
    lint.findings.iter().filter(|f| f.rule == rule).count()
}

const LIB: &str = "crates/fixture/src/module.rs";

#[test]
fn wall_clock_positive_and_negative() {
    let pos = lint_fixture("wall_clock_pos.rs", LIB, &[]);
    assert!(
        rule_hits(&pos, "wall_clock") >= 3,
        "expected Instant::now, SystemTime, and .elapsed() hits: {:?}",
        pos.findings
    );
    let neg = lint_fixture("wall_clock_neg.rs", LIB, &[]);
    assert_eq!(rule_hits(&neg, "wall_clock"), 0, "{:?}", neg.findings);
}

#[test]
fn wall_clock_bench_bins_are_allowlisted() {
    let bench = lint_fixture("wall_clock_pos.rs", "crates/bench/src/bin/wall.rs", &[]);
    assert_eq!(rule_hits(&bench, "wall_clock"), 0, "{:?}", bench.findings);
}

#[test]
fn unordered_iter_positive_and_negative() {
    let pos = lint_fixture("unordered_iter_pos.rs", LIB, &[]);
    assert!(
        rule_hits(&pos, "unordered_iter") >= 2,
        "expected HashMap iter and HashSet into_iter hits: {:?}",
        pos.findings
    );
    let neg = lint_fixture("unordered_iter_neg.rs", LIB, &[]);
    assert_eq!(rule_hits(&neg, "unordered_iter"), 0, "{:?}", neg.findings);
}

#[test]
fn panic_free_positive_and_negative() {
    let pos = lint_fixture("panic_free_pos.rs", LIB, &[]);
    assert!(
        rule_hits(&pos, "panic_free") >= 3,
        "expected unwrap, literal index, and panic! hits: {:?}",
        pos.findings
    );
    let neg = lint_fixture("panic_free_neg.rs", LIB, &[]);
    assert_eq!(rule_hits(&neg, "panic_free"), 0, "{:?}", neg.findings);
    assert_eq!(
        neg.suppressed, 1,
        "the documented expect must count as suppressed, not clean"
    );
}

#[test]
fn panic_free_only_applies_to_listed_crates() {
    let disk = format!(
        "{}/tests/fixtures/panic_free_pos.rs",
        env!("CARGO_MANIFEST_DIR")
    );
    let src = std::fs::read_to_string(&disk).expect("fixture readable");
    // Default config: `cloudtrain-fixture` is NOT a panic-free crate.
    let lint = lint_source(LIB, &src, "cloudtrain-fixture", &[], &Config::default());
    assert_eq!(rule_hits(&lint, "panic_free"), 0, "{:?}", lint.findings);
}

#[test]
fn checked_decode_positive_and_negative() {
    let pos = lint_fixture("checked_decode_pos.rs", LIB, &[]);
    assert!(
        rule_hits(&pos, "checked_decode") >= 2,
        "expected `as usize` and unchecked mul/add hits: {:?}",
        pos.findings
    );
    let neg = lint_fixture("checked_decode_neg.rs", LIB, &[]);
    assert_eq!(rule_hits(&neg, "checked_decode"), 0, "{:?}", neg.findings);
}

#[test]
fn feature_gate_positive_and_negative() {
    let pos = lint_fixture("feature_gate_pos.rs", LIB, &["parallel"]);
    assert_eq!(
        rule_hits(&pos, "feature_gate"),
        1,
        "undeclared `warp_drive` must be flagged: {:?}",
        pos.findings
    );
    let neg = lint_fixture("feature_gate_neg.rs", LIB, &["parallel"]);
    assert_eq!(rule_hits(&neg, "feature_gate"), 0, "{:?}", neg.findings);
}

#[test]
fn ambient_positive_and_negative() {
    let pos = lint_fixture("ambient_pos.rs", LIB, &[]);
    assert!(
        rule_hits(&pos, "ambient") >= 2,
        "expected thread_rng and undocumented spawn hits: {:?}",
        pos.findings
    );
    let neg = lint_fixture("ambient_neg.rs", LIB, &[]);
    assert_eq!(rule_hits(&neg, "ambient"), 0, "{:?}", neg.findings);
    assert_eq!(
        neg.suppressed, 1,
        "the documented spawn must count as suppressed"
    );
}

#[test]
fn probe_timing_must_come_from_the_virtual_clock() {
    // A probe timed off the wall clock trips the rule at all three read
    // sites; the virtual-clock probe is clean.
    let pos = lint_fixture("probe_wall_clock_pos.rs", LIB, &[]);
    assert!(
        rule_hits(&pos, "wall_clock") >= 3,
        "expected Instant::now, SystemTime, and .elapsed() hits: {:?}",
        pos.findings
    );
    let neg = lint_fixture("probe_wall_clock_neg.rs", LIB, &[]);
    assert_eq!(rule_hits(&neg, "wall_clock"), 0, "{:?}", neg.findings);
}

#[test]
fn deadline_jitter_must_be_seeded_and_gated() {
    // Ambient entropy in the jitter draw and an undocumented probe thread
    // are both flagged; the seeded twin with a documented spawn is clean.
    let pos = lint_fixture("deadline_ambient_pos.rs", LIB, &[]);
    assert!(
        rule_hits(&pos, "ambient") >= 2,
        "expected thread_rng and undocumented spawn hits: {:?}",
        pos.findings
    );
    let neg = lint_fixture("deadline_ambient_neg.rs", LIB, &[]);
    assert_eq!(rule_hits(&neg, "ambient"), 0, "{:?}", neg.findings);
}

#[test]
fn forbid_unsafe_positive_and_negative() {
    let root = "crates/fixture/src/lib.rs";
    let pos = lint_fixture("lib_forbid_pos.rs", root, &[]);
    assert_eq!(
        rule_hits(&pos, "forbid_unsafe"),
        1,
        "crate root without the attribute must be flagged: {:?}",
        pos.findings
    );
    let neg = lint_fixture("lib_forbid_neg.rs", root, &[]);
    assert_eq!(rule_hits(&neg, "forbid_unsafe"), 0, "{:?}", neg.findings);
    // Non-root files never carry the obligation.
    let module = lint_fixture("lib_forbid_pos.rs", LIB, &[]);
    assert_eq!(
        rule_hits(&module, "forbid_unsafe"),
        0,
        "{:?}",
        module.findings
    );
}

#[test]
fn malformed_suppressions_are_findings_and_do_not_waive() {
    let pos = lint_fixture("suppression_pos.rs", LIB, &[]);
    assert_eq!(
        rule_hits(&pos, "suppression"),
        3,
        "missing reason, empty reason, and unknown rule must each be flagged: {:?}",
        pos.findings
    );
    assert_eq!(
        rule_hits(&pos, "panic_free"),
        3,
        "malformed suppressions must not waive the underlying findings: {:?}",
        pos.findings
    );
    assert_eq!(pos.suppressed, 0);
}
