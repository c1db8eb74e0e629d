//! Positive fixture: a well-formed suppression that waives nothing — the
//! indexing it documented was replaced by a checked read, and the waiver
//! stayed behind.

#![warn(clippy::unwrap_used)]

pub fn first(xs: &[u32]) -> Option<u32> {
    // lint:allow(panic_free, reason = "the caller guarantees non-empty input")
    xs.first().copied()
}
