//! Positive fixture: an `#[expect]` that nothing fulfils — the waiver
//! outlived the code it waived.

#[expect(clippy::unwrap_used, reason = "fixture: the unwrap was removed")] //~ unfulfilled_lint_expectations
pub fn first(xs: &[u32]) -> Option<u32> {
    xs.first().copied()
}
