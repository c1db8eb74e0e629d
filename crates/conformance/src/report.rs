//! Byte-stable conformance report: per-case results, the coverage matrix,
//! and JSONL / human-table rendering through the `cloudtrain-obs` registry.
//!
//! Determinism contract: rows appear in corpus order with zero-padded ids,
//! the coverage matrix is a fixed enumeration (so omissions are visible as
//! `MISSING`, never silently absent), all floats are rendered with
//! [`cloudtrain_obs::fmt_f64`], and no wall-clock or environment state is
//! consulted — two runs over the same corpus are byte-identical.

use std::collections::BTreeMap;
use std::fmt::Write as _;

use cloudtrain_obs::Registry;

/// Outcome of one corpus case.
#[derive(Debug, Clone)]
pub struct CaseResult {
    /// Stable row id, `case-NNN` in corpus order.
    pub id: String,
    /// Engine that produced the row: `oracle`, `cost`, or `meta`.
    pub kind: &'static str,
    /// Collective or property under test.
    pub target: String,
    /// Compressor name, `-` when the case takes none.
    pub compressor: String,
    /// Canonical parameter string (the corpus line tail).
    pub params: String,
    /// Number of individual checks the case ran.
    pub checks: usize,
    /// Failed checks, in execution order; empty means the case passed.
    pub failures: Vec<String>,
}

impl CaseResult {
    /// Whether every check passed.
    pub fn passed(&self) -> bool {
        self.failures.is_empty()
    }
}

/// Accumulates one check sequence for a case; engines use this to record
/// pass/fail without panicking, so one divergence never hides the next.
#[derive(Debug, Default)]
pub struct Checks {
    count: usize,
    failures: Vec<String>,
}

impl Checks {
    /// New empty check sequence.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records one named check; `detail` is only rendered on failure.
    pub fn check(&mut self, name: &str, pass: bool, detail: impl FnOnce() -> String) {
        self.count += 1;
        if !pass {
            self.failures.push(format!("{name}: {}", detail()));
        }
    }

    /// Records an unconditional failure (e.g. a malformed intermediate).
    pub fn fail(&mut self, name: &str, detail: String) {
        self.count += 1;
        self.failures.push(format!("{name}: {detail}"));
    }

    /// Finalises into a [`CaseResult`].
    pub fn into_result(
        self,
        index: usize,
        kind: &'static str,
        target: &str,
        compressor: &str,
        params: String,
    ) -> CaseResult {
        CaseResult {
            id: format!("case-{index:03}"),
            kind,
            target: target.to_string(),
            compressor: compressor.to_string(),
            params,
            checks: self.count,
            failures: self.failures,
        }
    }
}

/// The full collective × compressor pairing matrix the harness must cover
/// (acceptance criterion: every pairing enumerated so omissions are
/// visible). Dense and quantized paths pair with `-`.
pub fn expected_pairings() -> Vec<(&'static str, &'static str)> {
    let mut out = Vec::new();
    for coll in [
        "ring",
        "tree",
        "torus",
        "tree_bucketed",
        "torus_bucketed",
        "ring_res",
        "torus_res",
        "qsgd",
        "terngrad",
        "scaledsign",
    ] {
        out.push((coll, "-"));
    }
    for coll in [
        "hitopk",
        "hitopk_ef",
        "hitopk_ef_res",
        "gtopk",
        "gtopk_ef_res",
        "naiveag",
        "oksparse",
        "oksparse_ef",
        "oksparse_ef_res",
    ] {
        for comp in crate::corpus::COMPRESSORS {
            out.push((coll, *comp));
        }
    }
    out
}

/// Assembled report over a whole corpus run.
#[derive(Debug, Default)]
pub struct ConformanceReport {
    results: Vec<CaseResult>,
}

impl ConformanceReport {
    /// New empty report.
    pub fn new() -> Self {
        Self::default()
    }

    /// Appends one case result.
    pub fn push(&mut self, result: CaseResult) {
        self.results.push(result);
    }

    /// All case rows in corpus order.
    pub fn results(&self) -> &[CaseResult] {
        &self.results
    }

    /// Number of cases whose checks all passed.
    pub fn passed(&self) -> usize {
        self.results.iter().filter(|r| r.passed()).count()
    }

    /// Number of diverging cases.
    pub fn divergences(&self) -> usize {
        self.results.len() - self.passed()
    }

    /// Total individual checks run.
    pub fn total_checks(&self) -> usize {
        self.results.iter().map(|r| r.checks).sum()
    }

    /// Coverage matrix: every expected pairing with its covered flag, in
    /// fixed enumeration order.
    pub fn coverage(&self) -> Vec<(&'static str, &'static str, bool)> {
        let mut seen: BTreeMap<(String, String), bool> = BTreeMap::new();
        for r in &self.results {
            if r.kind == "oracle" {
                seen.insert((r.target.clone(), r.compressor.clone()), true);
            }
        }
        expected_pairings()
            .into_iter()
            .map(|(coll, comp)| {
                let covered = seen.contains_key(&(coll.to_string(), comp.to_string()));
                (coll, comp, covered)
            })
            .collect()
    }

    /// Number of expected pairings not exercised by any oracle case.
    pub fn coverage_missing(&self) -> usize {
        self.coverage().iter().filter(|(_, _, c)| !c).count()
    }

    /// Summary counters published through the obs registry (the JSONL
    /// summary section is the registry's own byte-stable rendering).
    pub fn registry(&self) -> Registry {
        let mut reg = Registry::new();
        reg.counter_add("conformance/cases", self.results.len() as u64);
        reg.counter_add("conformance/cases_pass", self.passed() as u64);
        reg.counter_add("conformance/divergences", self.divergences() as u64);
        reg.counter_add("conformance/checks", self.total_checks() as u64);
        let cov = self.coverage();
        reg.counter_add("conformance/coverage_expected", cov.len() as u64);
        reg.counter_add(
            "conformance/coverage_covered",
            cov.iter().filter(|(_, _, c)| *c).count() as u64,
        );
        reg.counter_add(
            "conformance/coverage_missing",
            self.coverage_missing() as u64,
        );
        for (kind, key) in [
            ("oracle", "conformance/cases_oracle"),
            ("cost", "conformance/cases_cost"),
            ("meta", "conformance/cases_meta"),
        ] {
            reg.counter_add(
                key,
                self.results.iter().filter(|r| r.kind == kind).count() as u64,
            );
        }
        reg
    }

    /// Human-readable table: case rows, the coverage matrix, and a summary
    /// line. Byte-stable across runs.
    pub fn table(&self) -> String {
        let mut out = String::new();
        out.push_str("cloudtrain conformance report\n");
        out.push_str("=============================\n\n");
        let _ = writeln!(
            out,
            "{:<9} {:<7} {:<14} {:<10} {:>6}  {:<8} detail",
            "id", "kind", "target", "comp", "checks", "status"
        );
        let _ = writeln!(out, "{}", "-".repeat(72));
        for r in &self.results {
            let status = if r.passed() { "pass" } else { "DIVERGE" };
            let detail = r.failures.first().map(String::as_str).unwrap_or("");
            let _ = writeln!(
                out,
                "{:<9} {:<7} {:<14} {:<10} {:>6}  {:<8} {}",
                r.id, r.kind, r.target, r.compressor, r.checks, status, detail
            );
            for extra in r.failures.iter().skip(1) {
                let _ = writeln!(out, "{:>60}  {}", "", extra);
            }
        }
        out.push_str("\ncoverage (collective x compressor)\n");
        let _ = writeln!(out, "{}", "-".repeat(40));
        for (coll, comp, covered) in self.coverage() {
            let _ = writeln!(
                out,
                "{:<14} {:<10} {}",
                coll,
                comp,
                if covered { "covered" } else { "MISSING" }
            );
        }
        let _ = writeln!(
            out,
            "\nsummary: cases={} pass={} diverge={} checks={} coverage={}/{}",
            self.results.len(),
            self.passed(),
            self.divergences(),
            self.total_checks(),
            self.coverage().iter().filter(|(_, _, c)| *c).count(),
            self.coverage().len(),
        );
        out
    }

    /// JSONL export: one object per case, one per coverage cell, then the
    /// obs-registry summary lines. Byte-stable across runs.
    pub fn to_jsonl(&self) -> String {
        let mut out = String::new();
        for r in &self.results {
            let _ = write!(
                out,
                "{{\"case\":\"{}\",\"kind\":\"{}\",\"target\":\"{}\",\"comp\":\"{}\",\"params\":\"{}\",\"checks\":{},\"status\":\"{}\",\"failures\":[",
                json_escape(&r.id),
                json_escape(r.kind),
                json_escape(&r.target),
                json_escape(&r.compressor),
                json_escape(&r.params),
                r.checks,
                if r.passed() { "pass" } else { "diverge" },
            );
            for (i, f) in r.failures.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                let _ = write!(out, "\"{}\"", json_escape(f));
            }
            out.push_str("]}\n");
        }
        for (coll, comp, covered) in self.coverage() {
            let _ = writeln!(
                out,
                "{{\"coverage\":\"{coll}/{comp}\",\"covered\":{covered}}}"
            );
        }
        out.push_str(&self.registry().to_jsonl());
        out
    }
}

/// Minimal JSON string escaping for report fields (quotes, backslashes and
/// control characters; everything the harness emits is ASCII).
fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> ConformanceReport {
        let mut rep = ConformanceReport::new();
        let mut ok = Checks::new();
        ok.check("identity", true, || unreachable!());
        rep.push(ok.into_result(0, "oracle", "ring", "-", "m=2 n=2 d=16 seed=1".into()));
        let mut bad = Checks::new();
        bad.check("identity", false, || "rank 1 differs".to_string());
        rep.push(bad.into_result(1, "meta", "perm", "dgc", "d=64 k=8 seed=2".into()));
        rep
    }

    #[test]
    fn counts_and_status() {
        let rep = sample();
        assert_eq!(rep.passed(), 1);
        assert_eq!(rep.divergences(), 1);
        assert_eq!(rep.total_checks(), 2);
        let reg = rep.registry();
        assert_eq!(reg.counter("conformance/divergences"), 1);
    }

    #[test]
    fn rendering_is_deterministic_and_flags_divergence() {
        let rep = sample();
        assert_eq!(rep.table(), rep.table());
        assert_eq!(rep.to_jsonl(), rep.to_jsonl());
        assert!(rep.table().contains("DIVERGE"));
        assert!(rep.to_jsonl().contains("\"status\":\"diverge\""));
        // The coverage matrix enumerates missing pairings.
        assert!(rep.table().contains("MISSING"));
    }

    #[test]
    fn json_escape_handles_specials() {
        assert_eq!(json_escape("a\"b\\c\nd"), "a\\\"b\\\\c\\nd");
    }
}
