//! The per-file rules the compiler cannot state.
//!
//! Every rule is a pure function over one file's token stream and region
//! table — no I/O, no global state — so rule order and file order fully
//! determine the report bytes. The wall-clock, spawn, hash-order, unsafe
//! and `cfg(feature)` rules, and the `unwrap`/`expect`/`panic!` calls of
//! `panic_free`, are rustc and clippy lints (the root `Cargo.toml`'s
//! `[workspace.lints]`, `clippy.toml`, and each panic-free crate's
//! `#![warn(clippy::unwrap_used, ..)]`); what stays here is what clippy
//! does not see.
//!
//! | rule            | protects                                            |
//! |-----------------|-----------------------------------------------------|
//! | `panic_free`    | panic-free crates from literal indexing and from    |
//! |                 | `Option::unwrap` passed as a function path          |
//! | `checked_decode`| decode paths from length-arithmetic overflow        |

use crate::lexer::{is_ident, is_punct, Tok, Token};
use crate::regions::Regions;
use crate::Finding;

/// Everything the rules need to know about one file.
pub struct FileCtx<'a> {
    /// Workspace-relative path with `/` separators.
    pub path: &'a str,
    /// Whether the owning crate's root denies panics (see
    /// [`denies_unwrap`]).
    pub panic_free: bool,
    /// Lexed tokens.
    pub tokens: &'a [Token],
    /// Structural regions.
    pub regions: &'a Regions,
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

/// The rules [`run_all`] applies to every file; the others are workspace
/// passes that a `--rule` filter may skip.
pub(crate) const PER_FILE_RULES: &[&str] = &["panic_free", "checked_decode"];

/// Runs every per-file rule over one file.
pub fn run_all(ctx: &FileCtx<'_>) -> Vec<Finding> {
    let mut out = Vec::new();
    panic_free(ctx, &mut out);
    checked_decode(ctx, &mut out);
    out
}

/// Whether a crate root's tokens carry an inner lint attribute naming
/// `clippy::unwrap_used` — the one place a crate opts into `panic_free`
/// (`#![warn(clippy::unwrap_used, clippy::expect_used, clippy::panic)]`),
/// so clippy and this rule read the same crate set.
pub fn denies_unwrap(tokens: &[Token]) -> bool {
    (0..tokens.len()).any(|i| {
        is_punct(&tokens[i], '#')
            && matches!(tokens.get(i + 1), Some(n) if is_punct(n, '!'))
            && matches!(tokens.get(i + 3), Some(n)
                if is_ident(n, "warn") || is_ident(n, "deny") || is_ident(n, "forbid"))
            && tokens[i + 4..]
                .iter()
                .take_while(|t| !is_punct(t, ']'))
                .any(|t| is_ident(t, "unwrap_used"))
    })
}

/// Rule 1: panic-free libraries, the part clippy misses. In the non-test
/// library code of a crate whose root denies `clippy::unwrap_used`,
/// indexing by an integer literal and `unwrap`/`expect` named as a path
/// (`.map(Option::unwrap)`) must be converted to a checked form or carry
/// a documented suppression. Method calls (`.unwrap()`, `.expect(..)`)
/// and `panic!` are clippy's `unwrap_used`, `expect_used` and `panic`.
fn panic_free(ctx: &FileCtx<'_>, out: &mut Vec<Finding>) {
    if !ctx.panic_free || ctx.is_bin() {
        return;
    }
    let toks = ctx.tokens;
    for i in 1..toks.len() {
        if ctx.regions.in_test(i) {
            continue;
        }
        let t = &toks[i];
        match &t.tok {
            Tok::Ident(m) if (m == "unwrap" || m == "expect") && is_punct(&toks[i - 1], ':') => {
                out.push(ctx.finding(
                    "panic_free",
                    t.line,
                    format!(
                        "`{m}` passed as a function path can panic in library code; map to a \
                         Result or document the invariant with a suppression"
                    ),
                ));
            }
            Tok::Punct('[')
                if matches!(&toks[i - 1].tok, Tok::Ident(_))
                    && matches!(toks.get(i + 1), Some(n) if matches!(n.tok, Tok::Int(_)))
                    && matches!(toks.get(i + 2), Some(n) if is_punct(n, ']')) =>
            {
                let (Tok::Ident(name), Tok::Int(idx)) = (&toks[i - 1].tok, &toks[i + 1].tok) else {
                    continue;
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

/// Identifier fragments that mark a value as length-like for rule 2 (and
/// for the workspace-wide `cast_flow` dataflow pass, which shares the
/// taxonomy so the two rules agree on what "length-derived" means).
pub(crate) const LENGTHISH: &[&str] = &[
    "len", "size", "count", "off", "header", "declared", "dim", "bytes", "pixels",
];

pub(crate) fn is_lengthish(name: &str) -> bool {
    let lower = name.to_ascii_lowercase();
    LENGTHISH.iter().any(|frag| lower.contains(frag))
}

/// Rule 2: checked decode arithmetic. Inside `decode*`/`from_bytes`
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
