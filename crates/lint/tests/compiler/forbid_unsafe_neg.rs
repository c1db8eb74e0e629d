//! Negative fixture: the same read, safe.

pub fn first(xs: &[u8]) -> Option<u8> {
    xs.first().copied()
}
