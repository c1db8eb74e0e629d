//! Structural regions over the token stream.
//!
//! The rules need two kinds of context a flat token stream does not
//! give: whether a token sits in test code (`#[cfg(test)]` items or
//! `#[test]` functions), and which named functions enclose it (the
//! checked-decode rule only applies inside `decode*`/`from_bytes`
//! bodies). Both are computed in one pass with brace matching — no full
//! parse.

use crate::lexer::{is_ident, is_punct, Tok, Token};

/// A half-open token-index range `[start, end]` (inclusive end).
pub type Span = (usize, usize);

/// One named function body.
#[derive(Debug, Clone)]
pub struct FnSpan {
    /// The function's name as written.
    pub name: String,
    /// Token-index span of the body braces, inclusive.
    pub body: Span,
    /// Token index of the `fn` keyword (the declaration site).
    pub decl: usize,
    /// Whether the item is exported (`pub`, not `pub(crate)`/`pub(super)`).
    pub is_pub: bool,
}

/// Structural facts about one file.
#[derive(Debug, Default)]
pub struct Regions {
    /// Spans of `#[cfg(test)]` items and `#[test]` functions.
    pub test: Vec<Span>,
    /// Every named `fn` body, in source order.
    pub fns: Vec<FnSpan>,
}

impl Regions {
    /// Whether token index `i` falls in test code.
    pub fn in_test(&self, i: usize) -> bool {
        self.test.iter().any(|&(a, b)| a <= i && i <= b)
    }

    /// Names of the functions whose bodies contain token index `i`,
    /// outermost first (closures inherit the named enclosing functions).
    pub fn enclosing_fns(&self, i: usize) -> impl Iterator<Item = &str> {
        self.fns
            .iter()
            .filter(move |f| f.body.0 <= i && i <= f.body.1)
            .map(|f| f.name.as_str())
    }
}

/// Matches `{`/`}` and `[`/`]` pairs; `close_of[i]` is the index of the
/// token closing the bracket opened at `i` (or `usize::MAX`).
fn match_pairs(tokens: &[Token], open: char, close: char) -> Vec<usize> {
    let mut out = vec![usize::MAX; tokens.len()];
    let mut stack = Vec::new();
    for (i, t) in tokens.iter().enumerate() {
        if is_punct(t, open) {
            stack.push(i);
        } else if is_punct(t, close) {
            if let Some(o) = stack.pop() {
                out[o] = i;
            }
        }
    }
    out
}

/// Whether the attribute tokens between `[` and its matching `]` mark test
/// code: a bare `#[test]`, or `cfg` / `cfg_attr` whose predicate holds only
/// under test — `test` itself or `all(.., test, ..)`. A predicate that can
/// hold outside tests (`not(test)`, `any(test, ..)`) marks production code.
fn is_test_attr(tokens: &[Token]) -> bool {
    match tokens {
        [t] => is_ident(t, "test"),
        [attr, open, pred @ ..] if is_punct(open, '(') => {
            (is_ident(attr, "cfg") || is_ident(attr, "cfg_attr")) && predicate_needs_test(pred)
        }
        _ => false,
    }
}

/// Whether the `cfg` predicate at the head of `tokens` — ended by `,` or
/// `)` — is `test`, or an `all(..)` with `test` among its arguments.
fn predicate_needs_test(tokens: &[Token]) -> bool {
    match tokens {
        [t, end, ..] if is_ident(t, "test") => is_punct(end, ',') || is_punct(end, ')'),
        [all, open, args @ ..] if is_ident(all, "all") && is_punct(open, '(') => {
            // Arguments at the `all(..)` depth, up to its closing paren.
            let mut depth = 0usize;
            let mut at_arg = true;
            for (i, t) in args.iter().enumerate() {
                if depth == 0 && at_arg && predicate_needs_test(&args[i..]) {
                    return true;
                }
                at_arg = false;
                if is_punct(t, '(') {
                    depth += 1;
                } else if is_punct(t, ')') {
                    if depth == 0 {
                        return false;
                    }
                    depth -= 1;
                } else if depth == 0 && is_punct(t, ',') {
                    at_arg = true;
                }
            }
            false
        }
        _ => false,
    }
}

/// Builds the region table for a token stream.
pub fn analyze(tokens: &[Token]) -> Regions {
    let braces = match_pairs(tokens, '{', '}');
    let brackets = match_pairs(tokens, '[', ']');
    let mut regions = Regions::default();

    // Attribute-driven regions: `#[...]` followed by an item.
    let mut i = 0;
    while i < tokens.len() {
        if !is_punct(&tokens[i], '#') || i + 1 >= tokens.len() {
            i += 1;
            continue;
        }
        // Inner attributes (`#![...]`) apply to the enclosing scope, not
        // a following item — skip them here.
        let open = if is_punct(&tokens[i + 1], '[') {
            i + 1
        } else {
            i += 1;
            continue;
        };
        let close = brackets[open];
        if close == usize::MAX {
            i += 1;
            continue;
        }
        let is_test = is_test_attr(&tokens[open + 1..close]);
        // Find where the attributed item ends: skip any further outer
        // attributes, then scan to the item's body `{...}` or to `;`.
        let mut j = close + 1;
        while j + 1 < tokens.len() && is_punct(&tokens[j], '#') && is_punct(&tokens[j + 1], '[') {
            let o = j + 1;
            let c = brackets[o];
            if c == usize::MAX {
                break;
            }
            j = c + 1;
        }
        let mut depth = 0i32;
        let mut end = None;
        let mut k = j;
        while k < tokens.len() {
            match &tokens[k].tok {
                Tok::Punct('(') | Tok::Punct('[') => depth += 1,
                Tok::Punct(')') | Tok::Punct(']') => depth -= 1,
                Tok::Punct('{') if depth == 0 => {
                    end = Some(braces[k]);
                    break;
                }
                Tok::Punct(';') if depth == 0 => {
                    end = Some(k);
                    break;
                }
                _ => {}
            }
            k += 1;
        }
        if let Some(end) = end {
            if is_test && end != usize::MAX {
                regions.test.push((i, end));
            }
        }
        i = close + 1;
    }

    // Named function bodies: `fn name ... {body}`. A lone `fn` with a
    // following `(` is a function-pointer type, not a definition.
    let mut i = 0;
    while i + 1 < tokens.len() {
        if is_ident(&tokens[i], "fn") {
            if let Tok::Ident(name) = &tokens[i + 1].tok {
                let mut depth = 0i32;
                let mut k = i + 2;
                while k < tokens.len() {
                    match &tokens[k].tok {
                        Tok::Punct('(') | Tok::Punct('[') => depth += 1,
                        Tok::Punct(')') | Tok::Punct(']') => depth -= 1,
                        Tok::Punct('{') if depth == 0 => {
                            let close = braces[k];
                            if close != usize::MAX {
                                regions.fns.push(FnSpan {
                                    name: name.clone(),
                                    body: (k, close),
                                    decl: i,
                                    is_pub: decl_is_pub(tokens, i),
                                });
                            }
                            break;
                        }
                        // Trait method declaration without a body.
                        Tok::Punct(';') if depth == 0 => break,
                        _ => {}
                    }
                    k += 1;
                }
            }
        }
        i += 1;
    }
    regions
}

/// Whether the declaration qualifiers directly before the `fn` keyword at
/// token index `i` export the item: a bare `pub` counts, `pub(crate)` /
/// `pub(super)` do not.
fn decl_is_pub(tokens: &[Token], i: usize) -> bool {
    // Walk back over the qualifier window (`pub const unsafe extern "C"`),
    // stopping at the first token that is not a declaration qualifier so a
    // preceding item's `pub` is never picked up.
    let mut j = i;
    while j > 0 {
        let prev = &tokens[j - 1];
        let qualifier = ["const", "unsafe", "async", "extern"]
            .iter()
            .any(|q| is_ident(prev, q))
            || matches!(prev.tok, Tok::Str(_));
        if qualifier {
            j -= 1;
            continue;
        }
        break;
    }
    if j == 0 {
        return false;
    }
    // `pub(crate)`/`pub(super)` end in `)` directly before the window.
    is_ident(&tokens[j - 1], "pub")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::lex;

    fn regions_of(src: &str) -> (Vec<Token>, Regions) {
        let (tokens, _) = lex(src);
        let r = analyze(&tokens);
        (tokens, r)
    }

    #[test]
    fn cfg_test_module_is_a_test_region() {
        let src = "fn live() {}\n#[cfg(test)]\nmod tests { fn t() { inner(); } }";
        let (tokens, r) = regions_of(src);
        let inner = tokens.iter().position(|t| is_ident(t, "inner")).unwrap();
        let live = tokens.iter().position(|t| is_ident(t, "live")).unwrap();
        assert!(r.in_test(inner));
        assert!(!r.in_test(live));
    }

    #[test]
    fn bare_test_attribute_marks_the_function() {
        let src = "#[test]\nfn check() { probe(); }\nfn other() { free(); }";
        let (tokens, r) = regions_of(src);
        let probe = tokens.iter().position(|t| is_ident(t, "probe")).unwrap();
        let free = tokens.iter().position(|t| is_ident(t, "free")).unwrap();
        assert!(r.in_test(probe));
        assert!(!r.in_test(free));
    }

    #[test]
    fn enclosing_fns_nest_through_closures() {
        let src = "fn from_bytes() { let f = |x: usize| { deep(x) }; f(1) }";
        let (tokens, r) = regions_of(src);
        let deep = tokens.iter().position(|t| is_ident(t, "deep")).unwrap();
        let names: Vec<&str> = r.enclosing_fns(deep).collect();
        assert_eq!(names, vec!["from_bytes"]);
    }

    #[test]
    fn stacked_attributes_reach_the_item() {
        let src = "#[cfg(test)]\n#[allow(dead_code)]\nmod m { fn t() { x(); } }";
        let (tokens, r) = regions_of(src);
        let x = tokens.iter().position(|t| is_ident(t, "x")).unwrap();
        assert!(r.in_test(x));
    }

    #[test]
    fn only_predicates_that_need_test_mark_test_code() {
        for (attr, test) in [
            ("#[test]", true),
            ("#[cfg(test)]", true),
            ("#[cfg_attr(test, allow(dead_code))]", true),
            ("#[cfg(all(test, unix))]", true),
            ("#[cfg(all(unix, test))]", true),
            ("#[cfg(all(unix, all(test, windows)))]", true),
            ("#[cfg(not(test))]", false),
            ("#[cfg_attr(not(test), inline)]", false),
            ("#[cfg(any(test, unix))]", false),
            ("#[cfg(all(unix, not(test)))]", false),
            ("#[cfg(feature = \"test\")]", false),
            ("#[allow(test)]", false),
        ] {
            let src = format!("{attr}\nfn f() {{ body(); }}");
            let (tokens, r) = regions_of(&src);
            let body = tokens.iter().position(|t| is_ident(t, "body")).unwrap();
            assert_eq!(r.in_test(body), test, "{attr}");
        }
    }
}
