//! Negative fixture: Result-based library code, a documented waiver for
//! each of clippy and the analyzer, and panics confined to tests.

#![warn(clippy::unwrap_used, clippy::expect_used, clippy::panic)]

pub fn first(xs: &[u32]) -> Option<u32> {
    xs.first().copied()
}

pub fn documented(xs: &[u32]) -> u32 {
    #[expect(
        clippy::expect_used,
        reason = "fixture: the caller guarantees non-empty input"
    )]
    xs.first().copied().expect("non-empty")
}

pub fn documented_index(xs: &[u32]) -> u32 {
    // lint:allow(panic_free, reason = "fixture: the caller guarantees two elements")
    xs[1]
}

#[cfg(test)]
mod tests {
    #[test]
    fn unwrap_is_fine_in_tests() {
        let xs = [1u32];
        assert_eq!(*xs.first().unwrap(), 1);
    }
}
