//! Positive fixture: panicking constructs in library code. clippy sees
//! the `.unwrap()` and the `panic!`; the analyzer sees the literal index
//! and the `Option::unwrap` passed as a path.

#![warn(clippy::unwrap_used, clippy::expect_used, clippy::panic)]

pub fn first(xs: &[u32]) -> u32 {
    let head = xs.first().unwrap(); //~ clippy::unwrap_used
    *head
}

pub fn second(xs: &[u32]) -> u32 {
    xs[1]
}

pub fn all(xs: Vec<Option<u32>>) -> Vec<u32> {
    xs.into_iter().map(Option::unwrap).collect()
}

pub fn explode(kind: u8) -> u8 {
    match kind {
        0 => 0,
        _ => panic!("unsupported kind"), //~ clippy::panic
    }
}
