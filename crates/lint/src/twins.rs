//! Twin-family drift detection (`twin_drift`).
//!
//! Every hot collective ships as a family: a base path plus suffix twins
//! (`_scratch`, `_ef`, `_resilient`, `_deadline`, `_reordered`, `_traced`)
//! that must repeat the base's structural call skeleton modulo a
//! *declared* per-suffix rewrite. A fix applied to the
//! base but forgotten in one twin shows up here as an unexplained skeleton
//! difference, statically, instead of waiting for a differential test seed
//! to hit it.
//!
//! The comparison model:
//! 1. **Discovery** — for every non-test fn in a twin crate whose name
//!    ends in known suffixes, strip suffixes right-to-left until the
//!    remaining name is a fn in the same crate; that fn is the base and
//!    the stripped set is the twin's rewrite budget (so
//!    `gtopk_all_reduce_ef_resilient` pairs with `gtopk_all_reduce` under
//!    `{ef, resilient}`).
//! 2. **Skeleton** — the set of *significant* callee names in the body:
//!    names defined in the same crate or in the cross-crate vocabulary
//!    (compressor/error-feedback methods), excluding neutral plumbing
//!    (`new`, `len`, scratch-pool traffic, obs calls, grid positions and
//!    member lists — which ranks a stage talks to is an argument, not a
//!    stage). Callee names are normalised first: twin suffixes are
//!    stripped (`ring_reduce_scatter_scratch` and
//!    `ring_reduce_scatter_resilient` are the same hop) and declared
//!    aliases rewritten (error feedback's `select` ≡ `compress`).
//! 3. **Delegation inlining** — a body whose significant skeleton is a
//!    single resolvable same-crate call (`hitopk_all_reduce_ef` →
//!    `..._ef_scratch` → `hitopk_ef_impl`) is replaced by its
//!    target's skeleton, to a fixed depth.
//! 4. **Base expansion** — a twin that calls its own base, or the body its
//!    base delegates to (`ring_all_reduce_reordered` permutes then calls
//!    `ring_all_reduce`; `hitopk_all_reduce_ef_reordered` calls
//!    `hitopk_ef_impl`), absorbs the base's skeleton in place of that call.
//! 5. **Diff** — skeleton-set difference against the base, minus the
//!    union of the suffixes' sanctioned adds/removes. Anything left is a
//!    `twin_drift` finding at the twin's declaration line.
//!
//! Set (not multiset) semantics are deliberate: hops appear once
//! textually, so a dropped hop still surfaces, while incidental repeat
//! counts of helpers (`slice_mut`, `put_f32`) do not false-positive.

use std::collections::BTreeSet;

use crate::callgraph::CallGraph;
use crate::symbols::SymbolTable;
use crate::Finding;

/// The recognised twin suffixes, matched right-to-left at discovery.
pub const SUFFIXES: &[&str] = &[
    "traced",
    "scratch",
    "ef",
    "resilient",
    "deadline",
    "reordered",
];

/// Cross-crate callee names that count as structural even though they
/// resolve outside the twin crate: the compressor / error feedback surface
/// a collective's data flow is built from.
const VOCAB: &[&str] = &["select", "release", "withhold", "compress"];

/// Neutral plumbing names, never structural: constructors, accessors, the
/// scratch-pool take/put traffic (allocation strategy is exactly what
/// `_scratch` twins are allowed to change), obs instrumentation, and the
/// grid position and member lists a body addresses its stages with (a
/// reordered twin permutes them; a wrapper may compute them for its body).
const NEUTRAL: &[&str] = &[
    "new",
    "default",
    "len",
    "is_empty",
    "clone",
    "to_vec",
    "slice",
    "slice_mut",
    "take_f32",
    "take_u32",
    "put_f32",
    "put_u32",
    "copy_f32",
    "copy_u32",
    "counter_add",
    "gauge_set",
    "span",
    "publish_obs",
    "rank",
    "size",
    "dim",
    "min",
    "max",
    "unit",
    "grid_pos",
    "intra_node_members",
    "inter_node_members",
    "inter_members_ordered",
];

/// Callee-name aliases applied before comparison: the right-hand side is
/// the canonical form. Declared, not inferred — each line is a reviewed
/// equivalence.
const ALIASES: &[(&str, &str)] = &[
    // Error feedback's `select` *is* the base's compress call, made through
    // the residual (`Compressor::compress_accumulated`): a twin that drops
    // it has dropped the selection.
    ("select", "compress"),
];

/// Per-suffix sanctioned rewrites, over *normalised* callee names.
struct Rewrite {
    suffix: &'static str,
    adds: &'static [&'static str],
    removes: &'static [&'static str],
}

const REWRITES: &[Rewrite] = &[
    Rewrite {
        // Traced twins may only add obs instrumentation — which is
        // neutral, so nothing structural may change at all.
        suffix: "traced",
        adds: &[],
        removes: &[],
    },
    Rewrite {
        // Scratch twins swap allocation sites; pool traffic is neutral.
        suffix: "scratch",
        adds: &[],
        removes: &[],
    },
    Rewrite {
        // Error feedback wraps the sparsification point: what was selected
        // is released from the residual.
        suffix: "ef",
        adds: &["release", "shard_k", "empty"],
        removes: &[],
    },
    Rewrite {
        // Retry-ladder twins add fault bookkeeping and may degrade a
        // contribution to an empty selection, withholding it in the
        // residual; the O(k) family's framed pairs gather is replaced by
        // the resilient per-type gathers.
        suffix: "resilient",
        adds: &[
            "begin_instance",
            "contribution_degraded",
            "empty",
            "withhold",
            "all_gather_f32",
            "all_gather_u32",
            "report",
        ],
        removes: &["all_gather_pairs"],
    },
    Rewrite {
        // Deadline twins charge each hop (or a sparse contribution's
        // block) against a lateness budget.
        suffix: "deadline",
        adds: &[
            "hop_lateness",
            "hop_missed",
            "contribution_lateness",
            "pair_wire_bytes",
        ],
        removes: &[],
    },
    Rewrite {
        // Reordered twins validate and apply a node permutation.
        suffix: "reordered",
        adds: &["assert_valid_order"],
        removes: &[],
    },
];

/// Summary statistics for the analyzer self-metrics.
#[derive(Debug, Default)]
pub struct TwinStats {
    /// Twin pairs discovered and compared.
    pub families: usize,
}

/// Normalises one callee name: alias rewrite, then iterative suffix strip.
fn normalize(name: &str) -> String {
    let mut n = name.to_string();
    for (from, to) in ALIASES {
        if n == *from {
            n = to.to_string();
        }
    }
    loop {
        let mut stripped = false;
        for s in SUFFIXES {
            if let Some(prefix) = n.strip_suffix(&format!("_{s}")) {
                if !prefix.is_empty() {
                    n = prefix.to_string();
                    stripped = true;
                }
            }
        }
        if !stripped {
            break;
        }
    }
    n
}

/// Whether a normalised callee name is structural for a body in `crate_name`.
fn significant(table: &SymbolTable, crate_name: &str, raw: &str, normalized: &str) -> bool {
    if NEUTRAL.contains(&normalized) || NEUTRAL.contains(&raw) {
        return false;
    }
    VOCAB.contains(&raw)
        || VOCAB.contains(&normalized)
        || table.defined_in_crate(raw, crate_name)
        || table.defined_in_crate(normalized, crate_name)
}

/// The normalised significant skeleton of fn `idx`, with single-call
/// delegation chains inlined to `depth`; the normalised names of the fns
/// the chain passes through are appended to `chain`.
fn skeleton(
    table: &SymbolTable,
    graph: &CallGraph,
    idx: usize,
    depth: usize,
    chain: &mut Vec<String>,
) -> BTreeSet<String> {
    let sym = &table.fns[idx];
    let mut out = BTreeSet::new();
    let mut significant_raw: Vec<&str> = Vec::new();
    for site in &graph.calls[idx] {
        let norm = normalize(&site.callee);
        if site.callee != sym.name && significant(table, &sym.crate_name, &site.callee, &norm) {
            significant_raw.push(&site.callee);
            out.insert(norm);
        }
    }
    // Delegation: exactly one distinct significant callee, resolvable in
    // the same crate — use its skeleton instead (wrapper fns only differ
    // in how they thread scratch/registry arguments).
    if depth > 0 && out.len() == 1 {
        let raw = significant_raw[0];
        if let Some(target) = table.resolve(raw, &sym.crate_name) {
            if target != idx && table.fns[target].crate_name == sym.crate_name {
                chain.push(normalize(raw));
                return skeleton(table, graph, target, depth - 1, chain);
            }
        }
    }
    out
}

/// Runs twin discovery and drift comparison over `twin_crates`.
pub fn check(
    table: &SymbolTable,
    graph: &CallGraph,
    twin_crates: &[String],
    findings: &mut Vec<Finding>,
) -> TwinStats {
    let mut stats = TwinStats::default();
    for crate_name in twin_crates {
        for idx in table.crate_fns(crate_name) {
            let name = &table.fns[idx].name;
            let Some((base_idx, suffixes)) = discover_base(table, crate_name, name) else {
                continue;
            };
            stats.families += 1;
            let base_name = table.fns[base_idx].name.clone();
            let mut base_chain = vec![normalize(&base_name)];
            let base_skel = skeleton(table, graph, base_idx, 4, &mut base_chain);
            let mut twin_skel = skeleton(table, graph, idx, 4, &mut Vec::new());
            // Base expansion: a twin that calls its base, or a body its
            // base delegates to, inherits the base's whole skeleton through
            // that call.
            let calls = twin_skel.len();
            twin_skel.retain(|callee| !base_chain.contains(callee));
            if twin_skel.len() < calls {
                twin_skel.extend(base_skel.iter().cloned());
            }
            let allowed_adds: BTreeSet<&str> = REWRITES
                .iter()
                .filter(|r| suffixes.contains(&r.suffix))
                .flat_map(|r| r.adds.iter().copied())
                .collect();
            let allowed_removes: BTreeSet<&str> = REWRITES
                .iter()
                .filter(|r| suffixes.contains(&r.suffix))
                .flat_map(|r| r.removes.iter().copied())
                .collect();
            let extra: Vec<&String> = twin_skel
                .difference(&base_skel)
                .filter(|n| !allowed_adds.contains(n.as_str()))
                .collect();
            let missing: Vec<&String> = base_skel
                .difference(&twin_skel)
                .filter(|n| !allowed_removes.contains(n.as_str()))
                .collect();
            if extra.is_empty() && missing.is_empty() {
                continue;
            }
            let mut parts = Vec::new();
            if !missing.is_empty() {
                parts.push(format!(
                    "missing base calls [{}]",
                    missing
                        .iter()
                        .map(|s| s.as_str())
                        .collect::<Vec<_>>()
                        .join(", ")
                ));
            }
            if !extra.is_empty() {
                parts.push(format!(
                    "unsanctioned extra calls [{}]",
                    extra
                        .iter()
                        .map(|s| s.as_str())
                        .collect::<Vec<_>>()
                        .join(", ")
                ));
            }
            let sym = &table.fns[idx];
            findings.push(Finding {
                rule: "twin_drift",
                path: sym.path.clone(),
                line: sym.line,
                message: format!(
                    "twin `{name}` drifts from base `{base_name}` beyond the `{}` rewrite set: {}",
                    suffixes.join("`/`"),
                    parts.join("; ")
                ),
            });
        }
    }
    stats
}

/// Strips suffixes right-to-left until an existing non-test fn in
/// `crate_name` is found. Returns the base symbol index and the stripped
/// suffix set (discovery order).
fn discover_base(
    table: &SymbolTable,
    crate_name: &str,
    name: &str,
) -> Option<(usize, Vec<&'static str>)> {
    let mut current = name.to_string();
    let mut stripped: Vec<&'static str> = Vec::new();
    loop {
        let mut advanced = false;
        for s in SUFFIXES {
            if let Some(prefix) = current.strip_suffix(&format!("_{s}")) {
                if prefix.is_empty() {
                    continue;
                }
                stripped.push(s);
                current = prefix.to_string();
                advanced = true;
                break;
            }
        }
        if !advanced {
            return None;
        }
        if let Some(base) = resolve_non_test(table, crate_name, &current) {
            return Some((base, stripped));
        }
    }
}

/// Unique non-test definition of `name` in `crate_name`.
fn resolve_non_test(table: &SymbolTable, crate_name: &str, name: &str) -> Option<usize> {
    let candidates = table.by_name.get(name)?;
    let local: Vec<usize> = candidates
        .iter()
        .copied()
        .filter(|&i| !table.fns[i].in_test && table.fns[i].crate_name == crate_name)
        .collect();
    if local.len() == 1 {
        Some(local[0])
    } else {
        None
    }
}
