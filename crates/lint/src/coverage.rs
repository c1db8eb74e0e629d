//! Conformance-coverage cross-check (`coverage_conformance`).
//!
//! Three sources of truth must agree, and this rule re-derives each from
//! source tokens instead of trusting a generated artifact:
//!
//! 1. the **exported collective surface** — every `pub fn *all_reduce*`
//!    in the collectives crate, with `_scratch` allocation twins folded
//!    into their base entry;
//! 2. the **conformance matrix** — the dense/sparse tag arrays in
//!    `expected_pairings()` crossed with the `COMPRESSORS` list
//!    (the 55-pairing matrix `BENCH_conformance.json` snapshots);
//! 3. the **oracle dispatch** — the match arms of `oracle::run`.
//!
//! Findings: an exported collective whose derived tag is neither in the
//! matrix nor exercised by a bench harness; a matrix tag without an
//! oracle arm; an oracle arm without a matrix registration. Deleting any
//! one registration (tag, arm, or harness call) therefore turns the lint
//! job red instead of silently shrinking coverage.

use crate::lexer::{is_ident, is_punct, Tok};
use crate::symbols::SymbolTable;
use crate::{FileUnit, Finding};
use std::collections::{BTreeMap, BTreeSet};

/// What the pass extracted, exported as self-metrics and for tests.
#[derive(Debug, Default)]
pub struct CoverageStats {
    /// Dense tags (paired with `-`).
    pub dense_tags: usize,
    /// Sparse tags (crossed with every compressor).
    pub sparse_tags: usize,
    /// Compressors in the corpus list.
    pub compressors: usize,
}

impl CoverageStats {
    /// Total pairing count the matrix enumerates.
    pub fn pairings(&self) -> usize {
        self.dense_tags + self.sparse_tags * self.compressors
    }
}

/// One string-literal occurrence with its source line.
#[derive(Debug, Clone)]
struct TagAt {
    tag: String,
    line: u32,
}

/// Collects the matrix tags from `expected_pairings`: string literals in
/// the body. The dense array is pushed with the `"-"` placeholder, so the
/// `"-"` literal splits the body — tags before it are dense, tags after it
/// are sparse (they cross with `COMPRESSORS`).
fn matrix_tags(units: &[FileUnit], table: &SymbolTable) -> Option<(Vec<TagAt>, Vec<TagAt>)> {
    let idx = table
        .by_name
        .get("expected_pairings")?
        .iter()
        .copied()
        .find(|&i| !table.fns[i].in_test)?;
    let sym = &table.fns[idx];
    let unit = &units[sym.file];
    let (start, end) = sym.body;
    let mut dense = Vec::new();
    let mut sparse = Vec::new();
    let mut seen_dash = false;
    for i in start..=end {
        if let Tok::Str(s) = &unit.tokens[i].tok {
            if s == "-" {
                seen_dash = true;
                continue;
            }
            let at = TagAt {
                tag: s.clone(),
                line: unit.tokens[i].line,
            };
            if seen_dash {
                sparse.push(at);
            } else {
                dense.push(at);
            }
        }
    }
    Some((dense, sparse))
}

/// Counts the corpus `COMPRESSORS` list (string literals between the
/// const's `=` and its `;`).
fn compressor_count(units: &[FileUnit]) -> usize {
    for unit in units {
        if !unit.rel_path.ends_with("conformance/src/corpus.rs") {
            continue;
        }
        let toks = &unit.tokens;
        for i in 0..toks.len() {
            if !is_ident(&toks[i], "COMPRESSORS") {
                continue;
            }
            let mut n = 0usize;
            for t in toks.iter().skip(i + 1) {
                match &t.tok {
                    Tok::Punct(';') => return n,
                    Tok::Str(_) => n += 1,
                    _ => {}
                }
            }
        }
    }
    0
}

/// The oracle dispatch arms: string literals in `oracle::run`'s body that
/// are match patterns (followed by `=>` or `|`).
fn oracle_arms(units: &[FileUnit], table: &SymbolTable) -> BTreeMap<String, u32> {
    let mut arms = BTreeMap::new();
    let Some(run_idx) = table.by_name.get("run").and_then(|c| {
        c.iter().copied().find(|&i| {
            !table.fns[i].in_test && table.fns[i].path.ends_with("conformance/src/oracle.rs")
        })
    }) else {
        return arms;
    };
    let sym = &table.fns[run_idx];
    let unit = &units[sym.file];
    let toks = &unit.tokens;
    let (start, end) = sym.body;
    for i in start..=end {
        let Tok::Str(s) = &toks[i].tok else { continue };
        let arrow = matches!(toks.get(i + 1), Some(n) if is_punct(n, '='))
            && matches!(toks.get(i + 2), Some(n) if is_punct(n, '>'));
        let alt = matches!(toks.get(i + 1), Some(n) if is_punct(n, '|'));
        if arrow || alt {
            arms.entry(s.clone()).or_insert(toks[i].line);
        }
    }
    arms
}

/// Maps one exported collective fn name to the matrix tags that cover it.
/// Returns `None` for names outside the tag grammar (helpers).
fn tags_for(name: &str) -> Option<Vec<String>> {
    // Allocation twins are covered through their base entry.
    let mut base = name.to_string();
    while let Some(p) = base.strip_suffix("_scratch") {
        base = p.to_string();
    }
    if base == "sparse_all_reduce_naive" {
        return Some(vec!["naiveag".to_string()]);
    }
    // gTop-k has one entry, with error feedback; over a fresh residual it
    // is the plain exchange the `gtopk` tag drives.
    if base == "gtopk_all_reduce_ef" {
        return Some(vec!["gtopk".to_string(), "gtopk_ef".to_string()]);
    }
    // The sparse hierarchy's one entry names its step (iii): with
    // split-and-merge it is the O(k) collective, plain over a fresh
    // residual and with error feedback over a carried one.
    if base == "hitopk_all_reduce_ef" {
        return Some(
            ["hitopk_ef", "oksparse", "oksparse_ef"]
                .iter()
                .map(|s| s.to_string())
                .collect(),
        );
    }
    if base == "quantized_all_reduce" {
        return Some(
            ["qsgd", "terngrad", "scaledsign"]
                .iter()
                .map(|s| s.to_string())
                .collect(),
        );
    }
    let (prefix, rest) = base.split_once("_all_reduce")?;
    let mods: Vec<&str> = rest
        .trim_start_matches('_')
        .split('_')
        .filter(|m| !m.is_empty())
        .collect();
    let tag = if mods.is_empty() {
        prefix.to_string()
    } else {
        format!("{prefix}_{}", mods.join("_"))
    };
    Some(vec![tag])
}

/// Runs the coverage cross-check. `collectives_crate` names the crate
/// whose exported surface is checked; `harness_prefixes` are path
/// prefixes whose files count as exercising a collective by naming it.
pub fn check(
    units: &[FileUnit],
    table: &SymbolTable,
    collectives_crate: &str,
    harness_prefixes: &[String],
    findings: &mut Vec<Finding>,
) -> CoverageStats {
    let mut stats = CoverageStats::default();
    let Some((dense, sparse)) = matrix_tags(units, table) else {
        return stats;
    };
    stats.dense_tags = dense.len();
    stats.sparse_tags = sparse.len();
    stats.compressors = compressor_count(units);
    let matrix: BTreeMap<&str, u32> = dense
        .iter()
        .chain(sparse.iter())
        .map(|t| (t.tag.as_str(), t.line))
        .collect();
    let arms = oracle_arms(units, table);

    // Harness mentions: identifiers occurring in bench/gauntlet sources.
    let mut harness_names: BTreeSet<&str> = BTreeSet::new();
    for unit in units {
        if !harness_prefixes
            .iter()
            .any(|p| unit.rel_path.starts_with(p.as_str()))
        {
            continue;
        }
        for t in &unit.tokens {
            if let Tok::Ident(n) = &t.tok {
                harness_names.insert(n.as_str());
            }
        }
    }

    // Check 1: every exported collective entry is registered or exercised.
    let mut claimed: BTreeSet<String> = BTreeSet::new();
    for idx in table.crate_fns(collectives_crate) {
        let sym = &table.fns[idx];
        if !sym.is_pub || !sym.name.contains("all_reduce") {
            continue;
        }
        let Some(tags) = tags_for(&sym.name) else {
            continue;
        };
        let registered = tags.iter().any(|t| matrix.contains_key(t.as_str()));
        for t in &tags {
            claimed.insert(t.clone());
        }
        if !registered && !harness_names.contains(sym.name.as_str()) {
            findings.push(Finding {
                rule: "coverage_conformance",
                path: sym.path.clone(),
                line: sym.line,
                message: format!(
                    "exported collective `{}` has no conformance registration (expected tag \
                     `{}`) and no bench/gauntlet harness exercises it — add an oracle pairing \
                     or a harness case",
                    sym.name, tags[0]
                ),
            });
        }
    }
    // Bucketed execution drives the same collective through the fusion
    // bucket scheduler, and a resilient run is the same collective over a
    // fault-charging transport (which, under error feedback, also draws
    // the degradation); the base entry claims both tags.
    for (base, variant) in [
        ("tree", "bucketed"),
        ("torus", "bucketed"),
        ("ring", "res"),
        ("torus", "res"),
        ("hitopk_ef", "res"),
        ("oksparse_ef", "res"),
        ("gtopk_ef", "res"),
    ] {
        if claimed.contains(base) {
            claimed.insert(format!("{base}_{variant}"));
        }
    }

    // Check 2: every matrix tag is claimed by an exported collective and
    // has an oracle dispatch arm.
    let report_path = table
        .by_name
        .get("expected_pairings")
        .and_then(|c| c.first())
        .map(|&i| table.fns[i].path.clone())
        .unwrap_or_default();
    for (tag, line) in &matrix {
        if !claimed.contains(*tag) {
            findings.push(Finding {
                rule: "coverage_conformance",
                path: report_path.clone(),
                line: *line,
                message: format!(
                    "conformance tag `{tag}` is not claimed by any exported collective — \
                     stale registration or a renamed entry point"
                ),
            });
        }
        if !arms.contains_key(*tag) {
            findings.push(Finding {
                rule: "coverage_conformance",
                path: report_path.clone(),
                line: *line,
                message: format!(
                    "conformance tag `{tag}` has no dispatch arm in oracle::run — the matrix \
                     promises a pairing the oracle cannot execute"
                ),
            });
        }
    }

    // Check 3: every oracle arm is a registered tag (deleting a matrix
    // registration while the arm survives is exactly the silent-shrink
    // case this rule exists for).
    let oracle_path = table
        .by_name
        .get("run")
        .and_then(|c| {
            c.iter()
                .find(|&&i| table.fns[i].path.ends_with("conformance/src/oracle.rs"))
        })
        .map(|&i| table.fns[i].path.clone())
        .unwrap_or_default();
    for (arm, line) in &arms {
        if !matrix.contains_key(arm.as_str()) {
            findings.push(Finding {
                rule: "coverage_conformance",
                path: oracle_path.clone(),
                line: *line,
                message: format!(
                    "oracle::run dispatches `{arm}` but expected_pairings does not register \
                     it — the case would never be enumerated"
                ),
            });
        }
    }
    stats
}
