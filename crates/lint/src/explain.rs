//! One-stop rule documentation, rendered by `cloudtrain lint --explain`.
//!
//! The table below is the single source for what each rule protects, what
//! a finding means, and how to fix or waive it. A unit test asserts every
//! entry of [`crate::RULES`] is documented, so adding a rule without docs
//! fails the build.

/// `(rule, documentation)` in [`crate::RULES`] order.
pub const RULE_DOCS: &[(&str, &str)] = &[
    (
        "wall_clock",
        "Flags wall-clock reads (Instant::now, SystemTime) outside the bench \
         binaries. Traces and reports must be byte-stable across runs; time \
         belongs in the simnet clock or the bench harness, never in library \
         code. Fix: thread the virtual clock through, or move the timing \
         into crates/bench. Waive: lint:allow(wall_clock, reason) on the \
         offending line.",
    ),
    (
        "unordered_iter",
        "Flags iteration over HashMap/HashSet in library code. Hash order \
         varies across runs and platforms, so anything derived from it \
         (reduction order, report lines) breaks byte-stability. Fix: use \
         BTreeMap/BTreeSet, or collect-and-sort before iterating.",
    ),
    (
        "panic_free",
        "Flags unwrap/expect/panic!/index-free arithmetic hazards in crates \
         whose library code must be panic-free (collectives, compress, \
         engine, ...). A panic in one rank deadlocks the group. Fix: return \
         Result or use checked accessors; tests are exempt.",
    ),
    (
        "checked_decode",
        "Flags unchecked length arithmetic in wire-format decode paths \
         (from_bytes and *decode* fns). A crafted or truncated frame must \
         fail loudly, not over-allocate. Fix: usize::try_from + checked_mul \
         with explicit error returns.",
    ),
    (
        "feature_gate",
        "Flags references to feature-gated names outside a matching \
         #[cfg(feature = ...)] region, and cfg features the crate does not \
         declare. Fix: gate the use site or declare the feature.",
    ),
    (
        "ambient",
        "Flags ambient nondeterminism in library code: std::env reads, \
         thread spawns, rand::thread_rng and friends. All entropy must come \
         from seeded RNGs threaded through init::rng_from_seed. Fix: plumb \
         seeds/config explicitly; a spawn whose results cannot depend on \
         scheduling carries lint:allow(ambient, reason = \"..\") stating \
         why; bench binaries are exempt by path.",
    ),
    (
        "forbid_unsafe",
        "Checks that each listed crate's lib.rs keeps the \
         #![forbid(unsafe_code)] pragma. The workspace's soundness story is \
         'no unsafe outside shims'. Fix: restore the pragma.",
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
         disable a check. Fix: lint:allow(rule, reason) with a rule from \
         --explain's list and a non-empty reason.",
    ),
    (
        "baseline",
        "Meta-rule: lint-baseline.toml entries that no longer match any \
         finding are reported, keeping the baseline shrink-only. Fix: \
         delete the stale [[allow]] entry.",
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
