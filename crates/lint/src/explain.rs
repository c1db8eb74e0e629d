//! One-stop rule documentation, rendered by `cloudtrain lint --explain`.
//!
//! The table below is the single source for what each analyzer rule
//! protects, what a finding means, and how to fix or waive it (the rules
//! the compiler states are documented where they are configured: the
//! root `Cargo.toml`'s `[workspace.lints]` and `clippy.toml`). A unit test asserts every
//! entry of [`crate::RULES`] is documented, so adding a rule without docs
//! fails the build.

/// `(rule, documentation)` in [`crate::RULES`] order.
pub const RULE_DOCS: &[(&str, &str)] = &[
    (
        "panic_free",
        "Flags indexing by an integer literal (xs[1]) and unwrap/expect \
         named as a path (.map(Option::unwrap)) in the library code of \
         crates whose root carries #![warn(clippy::unwrap_used, ..)] \
         (collectives, compress, engine, ...). A panic in one rank \
         deadlocks the group. Method-call unwrap/expect and panic! are \
         clippy's unwrap_used, expect_used and panic in the same crates, \
         waived with #[expect(.., reason)]. Fix: .get(i) or a checked map; \
         tests and bins are exempt.",
    ),
    (
        "checked_decode",
        "Flags unchecked length arithmetic in wire-format decode paths \
         (from_bytes and *decode* fns). A crafted or truncated frame must \
         fail loudly, not over-allocate. Fix: usize::try_from + checked_mul \
         with explicit error returns.",
    ),
    (
        "twin_drift",
        "Structural diff between a suffix twin (_scratch/_ef) \
         and its base collective. The twin's call skeleton must equal the \
         base's modulo the suffix's declared rewrite set (see \
         crates/lint/src/twins.rs REWRITES); fault handling is not a twin \
         but a transport every body runs over. A finding means a hop or stage exists in one variant \
         but not the other - usually a fix applied to the base and \
         forgotten in a twin. Fix: port the change to the twin; if the \
         divergence is intentional, extend the suffix's reviewed rewrite \
         set or waive with lint:allow(twin_drift, reason) at the twin's fn.",
    ),
    (
        "coverage_conformance",
        "Cross-checks three sources of truth: the exported *all_reduce* \
         surface of the collectives crate, the expected_pairings() matrix \
         in the conformance crate, and the oracle::run dispatch arms. A \
         finding means a collective nobody tests, a registered tag with no \
         dispatch arm, or an arm with no registration. Fix: register the \
         pairing and add the oracle arm, or exercise the entry point from \
         a bench/gauntlet harness.",
    ),
    (
        "cast_flow",
        "Dataflow rule: a length-derived value that flows through an \
         unchecked `as` integer cast into an allocation or indexing sink \
         (Vec::with_capacity, reserve, vec![_; n], slice indexing) is \
         flagged workspace-wide. Truncating casts turn a huge length into \
         a small allocation and a later out-of-bounds. Fix: \
         usize::try_from / .min(bound) / checked_* before the sink. \
         Decode paths are covered by checked_decode instead.",
    ),
    (
        "float_determinism",
        "Flags order-sensitive float reductions (let mut acc = 0.0; acc += \
         .., and .sum::<f32>()) in the tensor/compress kernel crates \
         outside the sanctioned REDUCE_BLOCK-chunked kernels. Reduction \
         order is part of the bitwise contract; ad-hoc loops reduce in \
         traversal order and break cross-run/cross-shape stability. Fix: \
         route the reduction through the fixed-shape kernels, or waive a \
         reviewed scalar-sequential loop with lint:allow(float_determinism, \
         reason).",
    ),
    (
        "suppression",
        "Meta-rule: malformed lint:allow comments (unknown rule name, \
         missing reason) are findings themselves, so a typo cannot silently \
         disable a check; so is a well-formed one that waives no finding \
         of a rule that ran, so a fixed site cannot keep a dead waiver. \
         Fix: lint:allow(rule, reason) with a rule from --explain's list \
         and a non-empty reason, on or above the finding's line; delete a \
         stale one.",
    ),
];

/// Documentation for `rule`, if it exists.
pub fn explain(rule: &str) -> Option<&'static str> {
    RULE_DOCS
        .iter()
        .find(|(name, _)| *name == rule)
        .map(|(_, doc)| *doc)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_rule_is_documented_exactly_once() {
        for rule in crate::RULES {
            let n = RULE_DOCS.iter().filter(|(name, _)| name == rule).count();
            assert_eq!(n, 1, "rule `{rule}` must have exactly one doc entry");
        }
        assert_eq!(
            RULE_DOCS.len(),
            crate::RULES.len(),
            "RULE_DOCS must not document unknown rules"
        );
    }

    #[test]
    fn explain_finds_known_and_rejects_unknown() {
        assert!(explain("twin_drift").is_some_and(|d| d.contains("rewrite set")));
        assert!(explain("no_such_rule").is_none());
    }
}
