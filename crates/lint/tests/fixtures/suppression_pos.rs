//! Positive fixture: malformed suppressions that must themselves be
//! findings, and must NOT waive the finding they sit on.

#![warn(clippy::unwrap_used)]

pub fn missing_reason(xs: &[u32]) -> u32 {
    // lint:allow(panic_free)
    xs[0]
}

pub fn empty_reason(xs: &[u32]) -> u32 {
    // lint:allow(panic_free, reason = "")
    xs[0]
}

pub fn unknown_rule(xs: &[u32]) -> u32 {
    // lint:allow(made_up_rule, reason = "not a rule the linter knows")
    xs[0]
}
