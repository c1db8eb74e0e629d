//! Lexer/suppression edge-case regressions: a suppression comment on
//! the file's final line when the file has no trailing newline historically
//! risked silent suppression loss.

use cloudtrain_lint::{lexer, lint_source, suppress};

#[test]
fn final_line_suppression_without_trailing_newline_still_applies() {
    // Suppression comment on the final line, no trailing newline: the
    // lexer must still emit the comment at EOF and the waiver must apply.
    let src = "#![warn(clippy::unwrap_used)]\nfn f(m: &[u32]) -> u32 { m[0] } // lint:allow(panic_free, reason = \"fixture: callers pass a non-empty slice\")";
    assert!(!src.ends_with('\n'), "fixture must lack a trailing newline");
    let lint = lint_source("crates/x/src/a.rs", src);
    assert_eq!(lint.findings, [], "the panic_free finding must be waived");
    assert_eq!(lint.suppressed, 1);
}

#[test]
fn comment_only_final_line_without_newline_is_lexed_and_parsed() {
    let src = "// lint:allow(panic_free, reason = \"fixture\")";
    let (_, comments) = lexer::lex(src);
    assert_eq!(comments.len(), 1, "EOF must terminate the line comment");
    let (ok, bad) = suppress::parse("f.rs", &comments, &["panic_free"]);
    assert!(bad.is_empty());
    assert_eq!(ok.len(), 1);
    assert_eq!(ok[0].rule, "panic_free");
}
