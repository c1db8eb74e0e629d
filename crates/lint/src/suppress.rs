//! Inline suppressions of analyzer rules.
//!
//! A finding can be waived at the site with a comment spelled `lint:allow`
//! followed by `(panic_free, reason = "why the rule does not apply here")`,
//! placed on the finding's line or the line directly above it — the first
//! argument names the rule being waived. The reason is mandatory and must be
//! non-empty: an allow without a documented why is itself a finding
//! (rule `suppression`), and so is an allow that waives nothing, so
//! suppressions can never silently accumulate. Compiler lints are waived
//! with `#[expect(lint, reason = "..")]` instead, which rustc holds to the
//! same two conditions.

use crate::lexer::Comment;
use crate::Finding;

/// One parsed suppression.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Suppression {
    /// The rule this suppression waives.
    pub rule: String,
    /// 1-based line of the comment; waives findings on this line and the
    /// next one (so it can sit above a multi-line statement's trigger).
    pub line: u32,
    /// The documented justification.
    pub reason: String,
}

const MARKER: &str = "lint:allow(";

/// Extracts suppressions from a file's comments. Malformed suppressions
/// (missing rule, missing or empty reason, unknown rule name) are returned
/// as findings instead.
pub fn parse(
    path: &str,
    comments: &[Comment],
    known_rules: &[&str],
) -> (Vec<Suppression>, Vec<Finding>) {
    let mut ok = Vec::new();
    let mut bad = Vec::new();
    for c in comments {
        let Some(at) = c.text.find(MARKER) else {
            continue;
        };
        let rest = &c.text[at + MARKER.len()..];
        let mut fail = |msg: String| {
            bad.push(Finding {
                rule: "suppression",
                path: path.to_string(),
                line: c.line,
                message: msg,
            });
        };
        // Parsed left to right so a `)` inside the quoted reason — e.g. a
        // method call in the justification — does not truncate it.
        let Some((rule_part, after_comma)) = rest.split_once(',') else {
            if rest.contains(')') {
                fail("lint:allow needs `reason = \"...\"` after the rule".to_string());
            } else {
                fail("unterminated lint:allow — missing `)`".to_string());
            }
            continue;
        };
        let rule = rule_part.trim();
        if !known_rules.contains(&rule) {
            fail(format!(
                "lint:allow names unknown rule `{rule}` (known: {})",
                known_rules.join(", ")
            ));
            continue;
        }
        let quoted = after_comma
            .trim_start()
            .strip_prefix("reason")
            .map(str::trim_start)
            .and_then(|s| s.strip_prefix('='))
            .map(str::trim_start)
            .and_then(|s| s.strip_prefix('"'));
        let Some(quoted) = quoted else {
            fail("lint:allow needs `reason = \"...\"` after the rule".to_string());
            continue;
        };
        let Some((reason, tail)) = quoted.split_once('"') else {
            fail("unterminated reason string in lint:allow".to_string());
            continue;
        };
        let reason = reason.trim().to_string();
        if reason.is_empty() {
            fail(format!(
                "lint:allow({rule}) has an empty reason — document why the rule does not apply"
            ));
            continue;
        }
        if !tail.trim_start().starts_with(')') {
            fail("unterminated lint:allow — missing `)`".to_string());
            continue;
        }
        ok.push(Suppression {
            rule: rule.to_string(),
            line: c.line,
            reason,
        });
    }
    (ok, bad)
}

/// Splits `findings` into (kept, suppressed-count) by applying the
/// suppressions: a finding is waived when a suppression for its rule sits
/// on its line or the line above. `used[i]` is set for every suppression
/// `sup[i]` that waived a finding, so a caller applying several finding
/// sets to one file can report the waivers none of them used ([`stale`]).
pub fn apply(
    findings: Vec<Finding>,
    sup: &[Suppression],
    used: &mut [bool],
) -> (Vec<Finding>, usize) {
    let mut kept = Vec::new();
    let mut waived = 0usize;
    for f in findings {
        let mut hit = false;
        for (s, u) in sup.iter().zip(used.iter_mut()) {
            if s.rule == f.rule && (s.line == f.line || s.line + 1 == f.line) {
                *u = true;
                hit = true;
            }
        }
        if hit {
            waived += 1;
        } else {
            kept.push(f);
        }
    }
    (kept, waived)
}

/// One `suppression` finding per well-formed suppression that waived
/// nothing, counting only rules for which `ran` holds (a rule a `--rule`
/// filter skipped cannot have fulfilled its waivers).
pub fn stale(
    path: &str,
    sup: &[Suppression],
    used: &[bool],
    ran: impl Fn(&str) -> bool,
) -> Vec<Finding> {
    sup.iter()
        .zip(used)
        .filter(|&(s, &u)| !u && ran(&s.rule))
        .map(|(s, _)| Finding {
            rule: "suppression",
            path: path.to_string(),
            line: s.line,
            message: format!(
                "lint:allow({}) waives no finding on its line or the next; delete it",
                s.rule
            ),
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::lex;

    const RULES: &[&str] = &["panic_free", "checked_decode"];

    fn parse_src(src: &str) -> (Vec<Suppression>, Vec<Finding>) {
        let (_, comments) = lex(src);
        parse("f.rs", &comments, RULES)
    }

    #[test]
    fn well_formed_suppression_parses() {
        let (ok, bad) =
            parse_src("// lint:allow(panic_free, reason = \"invariant upheld by caller\")\nx();");
        assert!(bad.is_empty());
        assert_eq!(ok.len(), 1);
        assert_eq!(ok[0].rule, "panic_free");
        assert_eq!(ok[0].line, 1);
        assert!(ok[0].reason.contains("invariant"));
    }

    #[test]
    fn missing_or_empty_reason_is_a_finding() {
        let (ok, bad) =
            parse_src("// lint:allow(panic_free)\n// lint:allow(checked_decode, reason = \"\")");
        assert!(ok.is_empty());
        assert_eq!(bad.len(), 2);
        assert!(bad.iter().all(|f| f.rule == "suppression"));
    }

    #[test]
    fn unknown_rule_is_a_finding() {
        let (ok, bad) = parse_src("// lint:allow(nonsense, reason = \"because\")");
        assert!(ok.is_empty());
        assert_eq!(bad.len(), 1);
        assert!(bad[0].message.contains("nonsense"));
    }

    #[test]
    fn apply_waives_same_line_and_next_line() {
        let sup = vec![
            Suppression {
                rule: "panic_free".to_string(),
                line: 10,
                reason: "r".to_string(),
            },
            Suppression {
                rule: "panic_free".to_string(),
                line: 20,
                reason: "r".to_string(),
            },
        ];
        let mk = |rule: &'static str, line| Finding {
            rule,
            path: "f.rs".to_string(),
            line,
            message: String::new(),
        };
        let mut used = vec![false; 2];
        let (kept, waived) = apply(
            vec![
                mk("panic_free", 10),
                mk("panic_free", 11),
                mk("panic_free", 12),
                mk("checked_decode", 10),
            ],
            &sup,
            &mut used,
        );
        assert_eq!(waived, 2);
        assert_eq!(kept.len(), 2);
        assert_eq!(used, [true, false]);
        let stale_ran = stale("f.rs", &sup, &used, |_| true);
        assert_eq!(stale_ran.len(), 1);
        assert_eq!((stale_ran[0].rule, stale_ran[0].line), ("suppression", 20));
        assert!(stale("f.rs", &sup, &used, |_| false).is_empty());
    }
}
