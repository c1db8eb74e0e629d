//! Fixture-driven rule tests: every per-file analyzer rule has at least
//! one positive and one negative fixture under `tests/fixtures/`. A
//! fixture is linted as its own crate root, so it opts into `panic_free`
//! the way a crate does: with `#![warn(clippy::unwrap_used, ..)]`. The
//! rules the compiler states have their fixtures under `tests/compiler/`,
//! planted in a throwaway crate by `scripts/ci.sh lint`.

use cloudtrain_lint::{lint_source, FileLint};

fn read_fixture(name: &str) -> String {
    let disk = format!("{}/tests/fixtures/{name}", env!("CARGO_MANIFEST_DIR"));
    std::fs::read_to_string(&disk).unwrap_or_else(|e| panic!("fixture {name} unreadable: {e}"))
}

/// Lint one fixture file as the library module `LIB`.
fn lint_fixture(name: &str) -> FileLint {
    lint_source(LIB, &read_fixture(name))
}

fn rule_hits(lint: &FileLint, rule: &str) -> usize {
    lint.findings.iter().filter(|f| f.rule == rule).count()
}

const LIB: &str = "crates/fixture/src/module.rs";

#[test]
fn panic_free_positive_and_negative() {
    let pos = lint_fixture("panic_free_pos.rs");
    assert_eq!(
        rule_hits(&pos, "panic_free"),
        2,
        "expected the literal index and the `Option::unwrap` path (clippy has the \
         `.unwrap()` and the `panic!`): {:?}",
        pos.findings
    );
    let neg = lint_fixture("panic_free_neg.rs");
    assert_eq!(neg.findings, [], "{:?}", neg.findings);
    assert_eq!(
        neg.suppressed, 1,
        "the documented index must count as suppressed, not clean"
    );
}

#[test]
fn panic_free_only_applies_to_listed_crates() {
    // Without the crate-level `clippy::unwrap_used` attribute the file's
    // crate is not panic-free, for clippy and the analyzer alike.
    let src = read_fixture("panic_free_pos.rs").replace(
        "#![warn(clippy::unwrap_used, clippy::expect_used, clippy::panic)]",
        "",
    );
    let lint = lint_source(LIB, &src);
    assert_eq!(rule_hits(&lint, "panic_free"), 0, "{:?}", lint.findings);
    // Binaries are exempt even in a panic-free crate.
    let bin = lint_source(
        "crates/fixture/src/bin/tool.rs",
        &read_fixture("panic_free_pos.rs"),
    );
    assert_eq!(rule_hits(&bin, "panic_free"), 0, "{:?}", bin.findings);
}

#[test]
fn checked_decode_positive_and_negative() {
    let pos = lint_fixture("checked_decode_pos.rs");
    assert!(
        rule_hits(&pos, "checked_decode") >= 2,
        "expected `as usize` and unchecked mul/add hits: {:?}",
        pos.findings
    );
    let neg = lint_fixture("checked_decode_neg.rs");
    assert_eq!(rule_hits(&neg, "checked_decode"), 0, "{:?}", neg.findings);
}

#[test]
fn malformed_suppressions_are_findings_and_do_not_waive() {
    let pos = lint_fixture("suppression_pos.rs");
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

#[test]
fn a_suppression_that_waives_nothing_is_a_finding() {
    let pos = lint_fixture("suppression_stale_pos.rs");
    assert_eq!(pos.findings.len(), 1, "{:?}", pos.findings);
    assert_eq!(
        (pos.findings[0].rule, pos.findings[0].line),
        ("suppression", 8)
    );
    assert!(
        pos.findings[0].message.contains("waives no finding"),
        "{}",
        pos.findings[0].message
    );
}
