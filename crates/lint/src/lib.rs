//! `cloudtrain-lint` — determinism & safety static analyzer for the
//! cloudtrain workspace.
//!
//! Every plane of the reproduction stakes its correctness on byte-stable
//! determinism: the CI gauntlet `cmp`s twice-run traces, the obs plane
//! exports `{:.9e}` JSONL, and the paper's figures are only meaningful if
//! two same-seed runs emit identical bytes. This crate makes the
//! conventions machine-checked in two places. Every rule rustc or clippy
//! can state exactly is a compiler lint: the root `Cargo.toml`'s
//! `[workspace.lints]`, the root `clippy.toml`, and each panic-free
//! crate's `#![warn(clippy::unwrap_used, ..)]`, waived with
//! `#[expect(lint, reason = "..")]`. This crate holds the rest. It walks
//! every `crates/*/src` file with a hand-rolled lexer (no registry deps,
//! consistent with the `shims/` policy) and enforces the rules listed in
//! [`RULES`] — see [`rules`] for the per-file ones.
//!
//! The analyzer's own report is held to the same bar: file walk order,
//! finding order, and every formatted byte are deterministic, so CI runs
//! it twice and `cmp`s the output.
//!
//! A finding is waived inline, with a documented suppression comment —
//! see [`suppress`].

#![warn(missing_docs)]

pub mod callgraph;
pub mod coverage;
pub mod dataflow;
pub mod explain;
pub mod lexer;
pub mod regions;
pub mod rules;
pub mod suppress;
pub mod symbols;
pub mod twins;

use std::collections::BTreeMap;
use std::fs;
use std::path::{Path, PathBuf};

use rules::FileCtx;

/// Every rule the analyzer knows, in report order. The first two are
/// per-file token rules; `twin_drift` through `float_determinism` are the
/// workspace passes over the symbol table / call graph; `suppression` is
/// the meta-rule for malformed or stale waivers.
pub const RULES: &[&str] = &[
    "panic_free",
    "checked_decode",
    "twin_drift",
    "coverage_conformance",
    "cast_flow",
    "float_determinism",
    "suppression",
];

/// One lint finding.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Finding {
    /// Which rule fired (one of [`RULES`]).
    pub rule: &'static str,
    /// Workspace-relative path with `/` separators.
    pub path: String,
    /// 1-based line number (0 for file/workspace-level findings).
    pub line: u32,
    /// Human-readable description with the suggested fix.
    pub message: String,
}

/// Rule configuration. The default matches the cloudtrain workspace; the
/// fixture tests narrow or widen it per case.
#[derive(Debug, Clone)]
pub struct Config {
    /// Workspace-relative path prefixes the walker skips entirely —
    /// checked-in data corpora (e.g. the conformance seed corpus) are
    /// inputs to harnesses, not source code, and must never influence
    /// lint output. Matched against `/`-separated relative paths.
    pub excluded_path_prefixes: Vec<String>,
    /// Crates whose suffix twin families are held to the declared rewrite
    /// sets (rule `twin_drift`).
    pub twin_crates: Vec<String>,
    /// Crates whose float reductions must go through the sanctioned
    /// fixed-shape kernels (rule `float_determinism`).
    pub float_crates: Vec<String>,
    /// The crate whose exported `*all_reduce*` surface is cross-checked
    /// against the conformance matrix (rule `coverage_conformance`).
    pub collectives_crate: String,
    /// Path prefixes of bench/gauntlet harnesses: naming a collective in
    /// one of these files counts as exercising it.
    pub harness_path_prefixes: Vec<String>,
    /// When set, only this rule's findings are reported and workspace
    /// passes for other rules are skipped entirely (the CLI's `--rule`
    /// filter; CI uses it for per-rule timing rows).
    pub only_rule: Option<String>,
}

impl Default for Config {
    fn default() -> Self {
        let owned = |names: &[&str]| names.iter().map(|s| s.to_string()).collect();
        Self {
            excluded_path_prefixes: owned(&["crates/conformance/corpus/"]),
            twin_crates: owned(&["cloudtrain-collectives"]),
            float_crates: owned(&["cloudtrain-tensor", "cloudtrain-compress"]),
            collectives_crate: "cloudtrain-collectives".to_string(),
            harness_path_prefixes: owned(&["crates/bench/src/bin/"]),
            only_rule: None,
        }
    }
}

/// Per-file lint result.
#[derive(Debug, Default)]
pub struct FileLint {
    /// Findings that survived inline suppressions.
    pub findings: Vec<Finding>,
    /// Number of findings waived by valid inline suppressions.
    pub suppressed: usize,
}

/// One file's source text plus crate metadata, as handed to [`run_files`].
#[derive(Debug, Clone)]
pub struct FileInput {
    /// Workspace-relative path with `/` separators.
    pub rel_path: String,
    /// Full source text.
    pub src: String,
    /// Owning crate's `package.name`.
    pub crate_name: String,
}

/// A lexed and region-analyzed file — the unit the workspace passes
/// (symbol table, call graph, twin/coverage/dataflow rules) share.
#[derive(Debug)]
pub struct FileUnit {
    /// Workspace-relative path with `/` separators.
    pub rel_path: String,
    /// Owning crate's `package.name`.
    pub crate_name: String,
    /// Token stream.
    pub tokens: Vec<lexer::Token>,
    /// Comments (suppression carriers).
    pub comments: Vec<lexer::Comment>,
    /// Region analysis over `tokens`.
    pub regions: regions::Regions,
}

/// Lints one file's source text with the per-file rules only (the
/// workspace passes need the whole unit list; see [`run_files`]). The
/// file is its own crate root: `panic_free` applies when it carries the
/// crate-level `clippy::unwrap_used` attribute.
///
/// `rel_path` should be workspace-relative with `/` separators (the
/// rules key off its shape and report it verbatim).
pub fn lint_source(rel_path: &str, src: &str) -> FileLint {
    let (tokens, comments) = lexer::lex(src);
    let regions = regions::analyze(&tokens);
    let ctx = FileCtx {
        path: rel_path,
        panic_free: rules::denies_unwrap(&tokens),
        tokens: &tokens,
        regions: &regions,
    };
    let (sup, mut bad) = suppress::parse(rel_path, &comments, RULES);
    let mut used = vec![false; sup.len()];
    let (mut kept, suppressed) = suppress::apply(rules::run_all(&ctx), &sup, &mut used);
    kept.append(&mut bad);
    kept.extend(suppress::stale(rel_path, &sup, &used, |rule| {
        rules::PER_FILE_RULES.contains(&rule)
    }));
    FileLint {
        findings: kept,
        suppressed,
    }
}

/// The aggregate result of a workspace run.
#[derive(Debug, Default)]
pub struct Report {
    /// Findings after suppressions, sorted by
    /// `(path, line, rule, message)`.
    pub findings: Vec<Finding>,
    /// Findings waived by inline suppressions.
    pub suppressed: usize,
    /// Files scanned.
    pub files: usize,
    /// Crates scanned.
    pub crates: usize,
    /// Functions the symbol table indexed.
    pub symbols: usize,
    /// Call sites that resolved to a workspace symbol.
    pub call_edges: usize,
    /// Twin pairs discovered and compared by `twin_drift`.
    pub twin_families: usize,
    /// Conformance pairings the coverage pass re-derived from source.
    pub pairings: usize,
}

impl Report {
    /// Whether the run is clean (no findings survived).
    pub fn clean(&self) -> bool {
        self.findings.is_empty()
    }

    fn sort(&mut self) {
        self.findings.sort_by(|a, b| {
            (&a.path, a.line, a.rule, &a.message).cmp(&(&b.path, b.line, b.rule, &b.message))
        });
        // Two textually identical sinks on one line are one defect.
        self.findings.dedup();
    }

    /// Human-readable report table, byte-stable across runs.
    pub fn table(&self) -> String {
        let mut out = format!(
            "cloudtrain-lint: {} finding(s) across {} file(s) in {} crate(s) \
             ({} suppressed inline)\n\
             analyzer: {} symbols, {} resolved call edges, {} twin families, \
             {} conformance pairings\n",
            self.findings.len(),
            self.files,
            self.crates,
            self.suppressed,
            self.symbols,
            self.call_edges,
            self.twin_families,
            self.pairings
        );
        if !self.findings.is_empty() {
            out.push_str(&format!(
                "{:<15} {:<48} {}\n",
                "rule", "location", "message"
            ));
            for f in &self.findings {
                out.push_str(&format!(
                    "{:<15} {:<48} {}\n",
                    f.rule,
                    format!("{}:{}", f.path, f.line),
                    f.message
                ));
            }
        }
        out
    }

    /// Byte-stable JSONL export: summary counters in the
    /// `cloudtrain-obs` registry format, then one `finding` object per
    /// line in sorted order.
    pub fn to_jsonl(&self) -> String {
        let mut reg = cloudtrain_obs::Registry::new();
        reg.counter_add("lint/call_edges", self.call_edges as u64);
        reg.counter_add("lint/crates", self.crates as u64);
        reg.counter_add("lint/files", self.files as u64);
        reg.counter_add("lint/findings", self.findings.len() as u64);
        reg.counter_add("lint/pairings", self.pairings as u64);
        reg.counter_add("lint/suppressed", self.suppressed as u64);
        reg.counter_add("lint/symbols", self.symbols as u64);
        reg.counter_add("lint/twin_families", self.twin_families as u64);
        for rule in RULES {
            let n = self.findings.iter().filter(|f| f.rule == *rule).count();
            reg.counter_add(&format!("lint/rule/{rule}"), n as u64);
        }
        let mut out = reg.to_jsonl();
        for f in &self.findings {
            out.push_str(&format!(
                "{{\"type\":\"finding\",\"rule\":\"{}\",\"path\":\"{}\",\"line\":{},\"message\":\"{}\"}}\n",
                escape(f.rule),
                escape(&f.path),
                f.line,
                escape(&f.message)
            ));
        }
        out
    }
}

/// JSON string escaping, matching the `cloudtrain-obs` export convention.
fn escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

/// Error from a workspace run (I/O or malformed metadata).
#[derive(Debug)]
pub struct LintError(pub String);

impl std::fmt::Display for LintError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}", self.0)
    }
}

impl std::error::Error for LintError {}

/// Reads `key = value` under `[section]` from a `Cargo.toml`, the value
/// unquoted — the small slice of TOML the lint needs (`[package] name`,
/// and `[lints] workspace` for the manifest guard).
pub fn manifest_value(text: &str, section: &str, key: &str) -> Option<String> {
    let mut current = "";
    for raw in text.lines() {
        let line = raw.trim();
        if line.starts_with('[') {
            current = line;
        } else if let Some((k, v)) = line.split_once('=') {
            if current.strip_prefix('[').and_then(|c| c.strip_suffix(']')) == Some(section)
                && k.trim() == key
            {
                return Some(v.trim().trim_matches('"').to_string());
            }
        }
    }
    None
}

/// Recursively collects `.rs` files under `dir` in sorted order.
fn rust_files(dir: &Path, out: &mut Vec<PathBuf>) -> Result<(), LintError> {
    let mut entries: Vec<PathBuf> = fs::read_dir(dir)
        .map_err(|e| LintError(format!("read {}: {e}", dir.display())))?
        .filter_map(|e| e.ok().map(|e| e.path()))
        .collect();
    entries.sort();
    for path in entries {
        if path.is_dir() {
            rust_files(&path, out)?;
        } else if path.extension().is_some_and(|e| e == "rs") {
            out.push(path);
        }
    }
    Ok(())
}

/// Runs the full analyzer — per-file rules, then the workspace passes
/// (symbol table, call graph, twin drift, conformance coverage, dataflow)
/// — over an in-memory file set. This is the core both
/// [`run_workspace_with`] and the fixture tests drive; it never touches
/// the filesystem, so tests can lint mutated copies of real sources.
pub fn run_files(inputs: &[FileInput], config: &Config) -> Report {
    let mut report = Report::default();
    let mut findings = Vec::new();

    // Lex + region-analyze every file once; the units are shared by the
    // per-file rules and every workspace pass.
    let mut units: Vec<FileUnit> = Vec::with_capacity(inputs.len());
    for input in inputs {
        let (tokens, comments) = lexer::lex(&input.src);
        let regions = regions::analyze(&tokens);
        units.push(FileUnit {
            rel_path: input.rel_path.clone(),
            crate_name: input.crate_name.clone(),
            tokens,
            comments,
            regions,
        });
    }
    report.files = units.len();
    report.crates = {
        let mut names: Vec<&str> = units.iter().map(|u| u.crate_name.as_str()).collect();
        names.sort_unstable();
        names.dedup();
        names.len()
    };

    // A crate is panic-free when its root carries the crate-level
    // `clippy::unwrap_used` attribute clippy reads too.
    let panic_free_crates: Vec<&str> = units
        .iter()
        .filter(|u| u.rel_path.ends_with("/src/lib.rs") && rules::denies_unwrap(&u.tokens))
        .map(|u| u.crate_name.as_str())
        .collect();

    // Per-file stage, keeping each file's parsed suppressions (and which
    // of them waived something) for the workspace findings below.
    let mut waivers: Vec<(Vec<suppress::Suppression>, Vec<bool>)> = Vec::with_capacity(units.len());
    for unit in &units {
        let ctx = FileCtx {
            path: &unit.rel_path,
            panic_free: panic_free_crates.contains(&unit.crate_name.as_str()),
            tokens: &unit.tokens,
            regions: &unit.regions,
        };
        let (sup, mut bad) = suppress::parse(&unit.rel_path, &unit.comments, RULES);
        let mut used = vec![false; sup.len()];
        let (mut kept, suppressed) = suppress::apply(rules::run_all(&ctx), &sup, &mut used);
        report.suppressed += suppressed;
        kept.append(&mut bad);
        findings.extend(kept);
        waivers.push((sup, used));
    }

    // Workspace stage.
    let table = symbols::SymbolTable::build(&units);
    let graph = callgraph::CallGraph::build(&units, &table);
    report.symbols = table.fns.len();
    report.call_edges = graph.resolved_edges;

    let wants = |rule: &str| config.only_rule.as_deref().is_none_or(|r| r == rule);
    let mut ws_findings = Vec::new();
    if wants("twin_drift") {
        let twin_stats = twins::check(&table, &graph, &config.twin_crates, &mut ws_findings);
        report.twin_families = twin_stats.families;
    }
    if wants("coverage_conformance") {
        let cov_stats = coverage::check(
            &units,
            &table,
            &config.collectives_crate,
            &config.harness_path_prefixes,
            &mut ws_findings,
        );
        report.pairings = cov_stats.pairings();
    }
    if wants("cast_flow") {
        dataflow::cast_flow(&units, &table, &mut ws_findings);
    }
    if wants("float_determinism") {
        dataflow::float_determinism(&units, &table, &config.float_crates, &mut ws_findings);
    }

    // Workspace findings honour the same inline suppressions as per-file
    // ones; route each finding through its file's waiver list.
    let unit_index: BTreeMap<&str, usize> = units
        .iter()
        .enumerate()
        .map(|(i, u)| (u.rel_path.as_str(), i))
        .collect();
    let mut by_unit: BTreeMap<usize, Vec<Finding>> = BTreeMap::new();
    for f in ws_findings {
        match unit_index.get(f.path.as_str()) {
            Some(&i) => by_unit.entry(i).or_default().push(f),
            None => findings.push(f),
        }
    }
    for (i, group) in by_unit {
        let (sup, used) = &mut waivers[i];
        let (kept, suppressed) = suppress::apply(group, sup, used);
        report.suppressed += suppressed;
        findings.extend(kept);
    }

    // A waiver for a rule that ran and found nothing at its site is stale.
    let ran = |rule: &str| rules::PER_FILE_RULES.contains(&rule) || wants(rule);
    for (unit, (sup, used)) in units.iter().zip(&waivers) {
        findings.extend(suppress::stale(&unit.rel_path, sup, used, ran));
    }

    if let Some(rule) = &config.only_rule {
        findings.retain(|f| f.rule == *rule);
    }
    report.findings = findings;
    report.sort();
    report
}

/// Runs the analyzer over a workspace root (the directory holding
/// `crates/`), applying the default [`Config`].
///
/// # Errors
/// Returns a [`LintError`] for I/O failures, which fail the run loudly
/// rather than under-linting.
pub fn run_workspace(root: &Path) -> Result<Report, LintError> {
    run_workspace_with(root, &Config::default())
}

/// [`run_workspace`] with an explicit [`Config`] (fixture tests narrow or
/// widen the crate lists and path prefixes per case).
///
/// # Errors
/// Returns a [`LintError`] for I/O failures, which fail the run loudly
/// rather than under-linting.
pub fn run_workspace_with(root: &Path, config: &Config) -> Result<Report, LintError> {
    Ok(run_files(&collect_workspace(root, config)?, config))
}

/// Reads every lintable `.rs` file under `root/crates` into memory, in
/// deterministic (crate, path) order, with its crate metadata attached.
/// Exposed so tests can load the real workspace, mutate one file's text,
/// and re-run [`run_files`] on the altered snapshot.
///
/// # Errors
/// Returns a [`LintError`] for I/O failures.
pub fn collect_workspace(root: &Path, config: &Config) -> Result<Vec<FileInput>, LintError> {
    let crates_dir = root.join("crates");
    let mut crate_dirs: Vec<PathBuf> = fs::read_dir(&crates_dir)
        .map_err(|e| LintError(format!("read {}: {e}", crates_dir.display())))?
        .filter_map(|e| e.ok().map(|e| e.path()))
        .filter(|p| p.is_dir())
        .collect();
    crate_dirs.sort();

    let mut inputs = Vec::new();
    for crate_dir in crate_dirs {
        let manifest_path = crate_dir.join("Cargo.toml");
        let src_dir = crate_dir.join("src");
        if !manifest_path.is_file() || !src_dir.is_dir() {
            continue;
        }
        let manifest = fs::read_to_string(&manifest_path)
            .map_err(|e| LintError(format!("read {}: {e}", manifest_path.display())))?;
        let crate_name = manifest_value(&manifest, "package", "name").unwrap_or_default();

        let mut files = Vec::new();
        rust_files(&src_dir, &mut files)?;
        for file in files {
            let rel = file
                .strip_prefix(root)
                .unwrap_or(&file)
                .components()
                .map(|c| c.as_os_str().to_string_lossy())
                .collect::<Vec<_>>()
                .join("/");
            if config
                .excluded_path_prefixes
                .iter()
                .any(|p| rel.starts_with(p.as_str()))
            {
                continue;
            }
            let src = fs::read_to_string(&file)
                .map_err(|e| LintError(format!("read {}: {e}", file.display())))?;
            inputs.push(FileInput {
                rel_path: rel,
                src,
                crate_name: crate_name.clone(),
            });
        }
    }
    Ok(inputs)
}

/// Walks upward from `start` to the first directory whose `Cargo.toml`
/// declares `[workspace]` — the root `run_workspace` expects.
pub fn find_workspace_root(start: &Path) -> Option<PathBuf> {
    let mut dir = start.to_path_buf();
    loop {
        let manifest = dir.join("Cargo.toml");
        if manifest.is_file() {
            if let Ok(text) = fs::read_to_string(&manifest) {
                if text.contains("[workspace]") {
                    return Some(dir);
                }
            }
        }
        if !dir.pop() {
            return None;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn manifest_parsing_reads_a_key_of_one_section() {
        let toml = "[package]\nname = \"cloudtrain-tensor\"\nversion = \"0.1.0\"\n\n\
                    [dependencies]\nname = \"x\"\n\n[lints]\nworkspace = true\n";
        let get = |section, key| manifest_value(toml, section, key);
        assert_eq!(get("package", "name").as_deref(), Some("cloudtrain-tensor"));
        assert_eq!(get("lints", "workspace").as_deref(), Some("true"));
        assert_eq!(get("package", "workspace"), None);
        assert_eq!(get("features", "name"), None);
    }

    #[test]
    fn report_jsonl_counts_rules() {
        let mut r = Report::default();
        r.findings.push(Finding {
            rule: "panic_free",
            path: "crates/x/src/a.rs".to_string(),
            line: 3,
            message: "msg with \"quotes\"".to_string(),
        });
        r.files = 1;
        r.crates = 1;
        let jsonl = r.to_jsonl();
        assert!(jsonl.contains("\"name\":\"lint/rule/panic_free\",\"value\":1"));
        assert!(jsonl.contains("\"type\":\"finding\",\"rule\":\"panic_free\""));
        assert!(jsonl.contains("msg with \\\"quotes\\\""));
        assert!(!r.clean());
        assert!(Report::default().clean());
    }

    #[test]
    fn findings_sort_deterministically() {
        let mk = |path: &str, line, rule: &'static str| Finding {
            rule,
            path: path.to_string(),
            line,
            message: String::new(),
        };
        let mut r = Report {
            findings: vec![
                mk("b.rs", 1, "checked_decode"),
                mk("a.rs", 9, "checked_decode"),
                mk("a.rs", 2, "panic_free"),
                mk("a.rs", 2, "checked_decode"),
            ],
            ..Report::default()
        };
        r.sort();
        let order: Vec<(String, u32, &str)> = r
            .findings
            .iter()
            .map(|f| (f.path.clone(), f.line, f.rule))
            .collect();
        assert_eq!(
            order,
            vec![
                ("a.rs".to_string(), 2, "checked_decode"),
                ("a.rs".to_string(), 2, "panic_free"),
                ("a.rs".to_string(), 9, "checked_decode"),
                ("b.rs".to_string(), 1, "checked_decode"),
            ]
        );
    }
}
