//! The six determinism & safety rules, plus the `forbid(unsafe_code)`
//! attribute check.
//!
//! Every rule is a pure function over one file's token stream and region
//! table — no I/O, no global state — so rule order and file order fully
//! determine the report bytes.
//!
//! | rule            | protects                                            |
//! |-----------------|-----------------------------------------------------|
//! | `wall_clock`    | the three virtual clock domains (no `Instant::now`) |
//! | `unordered_iter`| exported output from hash-order nondeterminism      |
//! | `panic_free`    | library code of the core planes from panics         |
//! | `checked_decode`| decode paths from length-arithmetic overflow        |
//! | `feature_gate`  | `cfg(feature)` against undeclared feature names     |
//! | `ambient`       | against unseeded RNG and undocumented thread spawns |
//! | `forbid_unsafe` | leaf crates keep `#![forbid(unsafe_code)]`          |

use crate::lexer::{is_ident, is_punct, Tok, Token};
use crate::regions::Regions;
use crate::{Config, Finding};

/// Everything the rules need to know about one file.
pub struct FileCtx<'a> {
    /// Workspace-relative path with `/` separators.
    pub path: &'a str,
    /// Package name from the owning crate's `Cargo.toml`.
    pub crate_name: &'a str,
    /// Feature names declared by the owning crate.
    pub features: &'a [String],
    /// Lexed tokens.
    pub tokens: &'a [Token],
    /// Structural regions.
    pub regions: &'a Regions,
    /// Rule configuration.
    pub config: &'a Config,
}

impl FileCtx<'_> {
    fn is_bin(&self) -> bool {
        self.path.contains("/src/bin/") || self.path.ends_with("/main.rs")
    }

    fn finding(&self, rule: &'static str, line: u32, message: String) -> Finding {
        Finding {
            rule,
            path: self.path.to_string(),
            line,
            message,
        }
    }
}

/// Runs every rule over one file.
pub fn run_all(ctx: &FileCtx<'_>) -> Vec<Finding> {
    let mut out = Vec::new();
    wall_clock(ctx, &mut out);
    unordered_iter(ctx, &mut out);
    panic_free(ctx, &mut out);
    checked_decode(ctx, &mut out);
    feature_gate(ctx, &mut out);
    ambient(ctx, &mut out);
    forbid_unsafe(ctx, &mut out);
    out
}

/// Rule 1: wall-clock ban. `Instant::now`, `SystemTime`, and `.elapsed()`
/// are forbidden outside the bench-bin allowlist — every exported
/// timestamp must come from a virtual clock domain.
fn wall_clock(ctx: &FileCtx<'_>, out: &mut Vec<Finding>) {
    if ctx
        .config
        .wall_clock_allow_prefixes
        .iter()
        .any(|p| ctx.path.starts_with(p.as_str()))
    {
        return;
    }
    let toks = ctx.tokens;
    for i in 0..toks.len() {
        if ctx.regions.in_test(i) {
            continue;
        }
        let t = &toks[i];
        if is_ident(t, "Instant")
            && matches!(toks.get(i + 1), Some(n) if is_punct(n, ':'))
            && matches!(toks.get(i + 3), Some(n) if is_ident(n, "now"))
        {
            out.push(ctx.finding(
                "wall_clock",
                t.line,
                "Instant::now() reads the wall clock; charge time from the plane's virtual clock"
                    .to_string(),
            ));
        } else if is_ident(t, "SystemTime") {
            out.push(ctx.finding(
                "wall_clock",
                t.line,
                "SystemTime is wall-clock time; exported output must be derived from virtual time"
                    .to_string(),
            ));
        } else if is_ident(t, "elapsed")
            && i > 0
            && is_punct(&toks[i - 1], '.')
            && matches!(toks.get(i + 1), Some(n) if is_punct(n, '('))
        {
            out.push(
                ctx.finding(
                    "wall_clock",
                    t.line,
                    ".elapsed() measures wall time; use the registry's logical clock instead"
                        .to_string(),
                ),
            );
        }
    }
}

/// Iteration methods whose order is the hasher's, not the data's.
const UNORDERED_ITERS: &[&str] = &[
    "iter",
    "iter_mut",
    "keys",
    "values",
    "values_mut",
    "drain",
    "into_iter",
    "into_keys",
    "into_values",
    "retain",
];

/// Rule 2: unordered iteration. Finds identifiers bound to a
/// `HashMap`/`HashSet` in this file, then flags any order-observing
/// iteration over them (`for .. in &m`, `.iter()`, `.keys()`, ...). The
/// fix is a `BTreeMap`/`BTreeSet` or an explicit sort before export.
fn unordered_iter(ctx: &FileCtx<'_>, out: &mut Vec<Finding>) {
    let toks = ctx.tokens;
    // Pass 1: names bound to hash collections. Declarations considered:
    //   `name: HashMap<..>` (fields, params, typed lets) and
    //   `let [mut] name = .. HashMap/HashSet ..;` (constructor or collect).
    let mut hash_names: Vec<String> = Vec::new();
    let mut note = |name: &str| {
        if !hash_names.iter().any(|n| n == name) {
            hash_names.push(name.to_string());
        }
    };
    for i in 0..toks.len() {
        match &toks[i].tok {
            Tok::Ident(name) if matches!(toks.get(i + 1), Some(n) if is_punct(n, ':')) => {
                // Scan the type expression until a separator token.
                let mut depth = 0i32;
                for t in toks.iter().skip(i + 2) {
                    match &t.tok {
                        Tok::Punct('<') | Tok::Punct('(') => depth += 1,
                        Tok::Punct('>') | Tok::Punct(')') if depth > 0 => depth -= 1,
                        Tok::Punct(',')
                        | Tok::Punct(';')
                        | Tok::Punct('=')
                        | Tok::Punct('{')
                        | Tok::Punct(')')
                        | Tok::Punct('}') => break,
                        Tok::Ident(ty) if ty == "HashMap" || ty == "HashSet" => {
                            note(name);
                            break;
                        }
                        _ => {}
                    }
                }
            }
            Tok::Ident(kw) if kw == "let" => {
                let mut j = i + 1;
                if matches!(toks.get(j), Some(n) if is_ident(n, "mut")) {
                    j += 1;
                }
                let Some(Tok::Ident(name)) = toks.get(j).map(|t| &t.tok) else {
                    continue;
                };
                if !matches!(toks.get(j + 1), Some(n) if is_punct(n, '=')) {
                    continue;
                }
                for t in toks.iter().skip(j + 2) {
                    match &t.tok {
                        Tok::Punct(';') => break,
                        Tok::Ident(ty) if ty == "HashMap" || ty == "HashSet" => {
                            note(name);
                            break;
                        }
                        _ => {}
                    }
                }
            }
            _ => {}
        }
    }
    if hash_names.is_empty() {
        return;
    }
    let is_hash_name =
        |t: &Token| matches!(&t.tok, Tok::Ident(s) if hash_names.iter().any(|n| n == s));

    // Pass 2: order-observing uses.
    for i in 0..toks.len() {
        if ctx.regions.in_test(i) {
            continue;
        }
        let t = &toks[i];
        // `name.iter()` / `self.field.keys()` ...
        if let Tok::Ident(m) = &t.tok {
            if UNORDERED_ITERS.contains(&m.as_str())
                && i >= 2
                && is_punct(&toks[i - 1], '.')
                && is_hash_name(&toks[i - 2])
                && matches!(toks.get(i + 1), Some(n) if is_punct(n, '('))
            {
                out.push(ctx.finding(
                    "unordered_iter",
                    t.line,
                    format!(
                        "`.{m}()` on hash collection `{}` observes hasher order; use a BTree \
                         collection or sort before the result can reach exported output",
                        match &toks[i - 2].tok {
                            Tok::Ident(s) => s.clone(),
                            _ => String::new(),
                        }
                    ),
                ));
            }
        }
        // `for pat in &name {` / `for pat in name {`
        if is_ident(t, "in") {
            let mut j = i + 1;
            while matches!(toks.get(j), Some(n) if is_punct(n, '&') || is_ident(n, "mut")) {
                j += 1;
            }
            // `for .. in &self.field` — step to the field identifier.
            if matches!(toks.get(j), Some(n) if is_ident(n, "self"))
                && matches!(toks.get(j + 1), Some(n) if is_punct(n, '.'))
            {
                j += 2;
            }
            if let Some(n) = toks.get(j) {
                if is_hash_name(n) && matches!(toks.get(j + 1), Some(b) if is_punct(b, '{')) {
                    out.push(ctx.finding(
                        "unordered_iter",
                        n.line,
                        format!(
                            "`for .. in` over hash collection `{}` observes hasher order; use a \
                             BTree collection or an explicit sort",
                            match &n.tok {
                                Tok::Ident(s) => s.clone(),
                                _ => String::new(),
                            }
                        ),
                    ));
                }
            }
        }
    }
}

/// Rule 3: panic-free libraries. In the non-test library code of the
/// configured crates, `unwrap`, `expect`, `panic!`, and indexing by an
/// integer literal must be converted to `Result` or carry a documented
/// suppression.
fn panic_free(ctx: &FileCtx<'_>, out: &mut Vec<Finding>) {
    if !ctx
        .config
        .panic_free_crates
        .iter()
        .any(|c| c == ctx.crate_name)
        || ctx.is_bin()
    {
        return;
    }
    let toks = ctx.tokens;
    for i in 0..toks.len() {
        if ctx.regions.in_test(i) {
            continue;
        }
        let t = &toks[i];
        match &t.tok {
            Tok::Ident(m) if (m == "unwrap" || m == "expect") && i > 0 => {
                let called = matches!(toks.get(i + 1), Some(n) if is_punct(n, '('));
                // `.unwrap()` as a method call, or `Path::unwrap` passed as
                // a function reference (it panics just the same).
                let hit = (is_punct(&toks[i - 1], '.') && called) || is_punct(&toks[i - 1], ':');
                if hit {
                    out.push(ctx.finding(
                        "panic_free",
                        t.line,
                        format!(
                            "`{m}` can panic in library code; return a Result or document the \
                             invariant with a suppression"
                        ),
                    ));
                }
            }
            Tok::Ident(m) if m == "panic" => {
                if matches!(toks.get(i + 1), Some(n) if is_punct(n, '!')) {
                    out.push(
                        ctx.finding(
                            "panic_free",
                            t.line,
                            "`panic!` in library code; return a Result or document the invariant \
                         with a suppression"
                                .to_string(),
                        ),
                    );
                }
            }
            Tok::Punct('[')
                if i > 0
                    && matches!(&toks[i - 1].tok, Tok::Ident(_))
                    && matches!(toks.get(i + 1), Some(n) if matches!(n.tok, Tok::Int(_)))
                    && matches!(toks.get(i + 2), Some(n) if is_punct(n, ']')) =>
            {
                let name = match &toks[i - 1].tok {
                    Tok::Ident(s) => s.clone(),
                    _ => String::new(),
                };
                let idx = match &toks[i + 1].tok {
                    Tok::Int(s) => s.clone(),
                    _ => String::new(),
                };
                out.push(ctx.finding(
                    "panic_free",
                    t.line,
                    format!(
                        "`{name}[{idx}]` indexes by literal and can panic; use `.get({idx})` or \
                         document the bounds invariant with a suppression"
                    ),
                ));
            }
            _ => {}
        }
    }
}

/// Identifier fragments that mark a value as length-like for rule 4 (and
/// for the workspace-wide `cast_flow` dataflow pass, which shares the
/// taxonomy so the two rules agree on what "length-derived" means).
pub(crate) const LENGTHISH: &[&str] = &[
    "len", "size", "count", "off", "header", "declared", "dim", "bytes", "pixels",
];

pub(crate) fn is_lengthish(name: &str) -> bool {
    let lower = name.to_ascii_lowercase();
    LENGTHISH.iter().any(|frag| lower.contains(frag))
}

/// Rule 4: checked decode arithmetic. Inside `decode*`/`from_bytes`
/// functions, bare `+`/`*` on length-like operands and lossy `as usize`
/// casts are flagged — a crafted input can overflow the arithmetic into a
/// passing bounds check. Use `checked_add`/`checked_mul`/`usize::try_from`.
fn checked_decode(ctx: &FileCtx<'_>, out: &mut Vec<Finding>) {
    let toks = ctx.tokens;
    for i in 0..toks.len() {
        if ctx.regions.in_test(i) {
            continue;
        }
        let in_decode_fn = ctx
            .regions
            .enclosing_fns(i)
            .any(|n| n == "from_bytes" || n.contains("decode"));
        if !in_decode_fn {
            continue;
        }
        let t = &toks[i];
        match &t.tok {
            Tok::Ident(kw) if kw == "as" => {
                if matches!(toks.get(i + 1), Some(n) if is_ident(n, "usize")) {
                    out.push(ctx.finding(
                        "checked_decode",
                        t.line,
                        "lossy `as usize` in a decode path; use `usize::try_from(..)` so a huge \
                         declared length errors instead of truncating"
                            .to_string(),
                    ));
                }
            }
            Tok::Punct(op) if *op == '+' || *op == '*' => {
                // Compound assignment (`+=`) and unary contexts are skipped.
                if matches!(toks.get(i + 1), Some(n) if is_punct(n, '=')) {
                    continue;
                }
                // Look at the nearest identifiers on both sides (window of
                // three tokens) for a length-like operand.
                let window = |range: std::ops::Range<usize>| {
                    range.filter_map(|j| match toks.get(j).map(|t| &t.tok) {
                        Some(Tok::Ident(s)) => Some(s.clone()),
                        _ => None,
                    })
                };
                let lo = i.saturating_sub(3);
                let nearby: Vec<String> = window(lo..i).chain(window(i + 1..i + 4)).collect();
                // Float arithmetic cannot overflow into a passing bounds
                // check — cost models multiplying `bytes as f64` are fine.
                if nearby.iter().any(|n| n == "f64" || n == "f32") {
                    continue;
                }
                if nearby.iter().any(|n| is_lengthish(n)) {
                    out.push(ctx.finding(
                        "checked_decode",
                        t.line,
                        format!(
                            "bare `{op}` on a length-like value in a decode path; use \
                             `checked_{}` so crafted lengths fail cleanly",
                            if *op == '+' { "add" } else { "mul" }
                        ),
                    ));
                }
            }
            _ => {}
        }
    }
}

/// Rule 5: feature-gate hygiene. Every `feature = "x"` in a `cfg` must
/// name a feature the owning crate declares in its `Cargo.toml` — an
/// undeclared feature silently compiles the gated code out everywhere.
fn feature_gate(ctx: &FileCtx<'_>, out: &mut Vec<Finding>) {
    let toks = ctx.tokens;
    for i in 0..toks.len() {
        if !is_ident(&toks[i], "feature") {
            continue;
        }
        if !matches!(toks.get(i + 1), Some(n) if is_punct(n, '=')) {
            continue;
        }
        let Some(Tok::Str(name)) = toks.get(i + 2).map(|t| &t.tok) else {
            continue;
        };
        if !ctx.features.iter().any(|f| f == name) {
            out.push(ctx.finding(
                "feature_gate",
                toks[i].line,
                format!(
                    "cfg names feature `{name}` which `{}` does not declare in its Cargo.toml",
                    ctx.crate_name
                ),
            ));
        }
    }
}

/// RNG constructors that seed from the environment instead of the caller.
const UNSEEDED_RNG: &[&str] = &["thread_rng", "from_entropy", "from_os_rng", "OsRng"];

/// Rule 6: ambient nondeterminism. Unseeded RNG construction and thread
/// `spawn`s are flagged — both can make two same-seed runs diverge. A spawn
/// whose results cannot depend on scheduling says why in an inline
/// suppression.
fn ambient(ctx: &FileCtx<'_>, out: &mut Vec<Finding>) {
    if ctx
        .config
        .wall_clock_allow_prefixes
        .iter()
        .any(|p| ctx.path.starts_with(p.as_str()))
    {
        // Bench binaries may parallelise and self-seed; their output is
        // checked by the twice-run `cmp` gauntlet instead.
        return;
    }
    let toks = ctx.tokens;
    for i in 0..toks.len() {
        if ctx.regions.in_test(i) {
            continue;
        }
        let t = &toks[i];
        if let Tok::Ident(name) = &t.tok {
            if UNSEEDED_RNG.contains(&name.as_str()) {
                out.push(ctx.finding(
                    "ambient",
                    t.line,
                    format!(
                        "`{name}` draws ambient entropy; construct RNGs from an explicit seed \
                         (e.g. `seed_from_u64`)"
                    ),
                ));
            } else if name == "spawn"
                && i > 0
                && (is_punct(&toks[i - 1], '.') || is_punct(&toks[i - 1], ':'))
                && matches!(toks.get(i + 1), Some(n) if is_punct(n, '('))
            {
                out.push(
                    ctx.finding(
                        "ambient",
                        t.line,
                        "thread spawn: scheduling can leak into results; state the determinism \
                     argument in a `lint:allow(ambient, reason = \"..\")` at the spawn site"
                            .to_string(),
                    ),
                );
            }
        }
    }
}

/// Satellite rule: leaf library crates must carry `#![forbid(unsafe_code)]`
/// at the top of `lib.rs`.
fn forbid_unsafe(ctx: &FileCtx<'_>, out: &mut Vec<Finding>) {
    if !ctx
        .config
        .forbid_unsafe_crates
        .iter()
        .any(|c| c == ctx.crate_name)
        || !ctx.path.ends_with("src/lib.rs")
    {
        return;
    }
    let toks = ctx.tokens;
    let has = (0..toks.len()).any(|i| {
        is_punct(&toks[i], '#')
            && matches!(toks.get(i + 1), Some(n) if is_punct(n, '!'))
            && matches!(toks.get(i + 3), Some(n) if is_ident(n, "forbid"))
            && matches!(toks.get(i + 5), Some(n) if is_ident(n, "unsafe_code"))
    });
    if !has {
        out.push(ctx.finding(
            "forbid_unsafe",
            1,
            format!(
                "crate `{}` is a leaf library and must carry `#![forbid(unsafe_code)]` in lib.rs",
                ctx.crate_name
            ),
        ));
    }
}
