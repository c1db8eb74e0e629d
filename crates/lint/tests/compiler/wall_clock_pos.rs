//! Positive fixture: wall-clock reads in library code.

pub fn timed() -> u128 {
    let t0 = std::time::Instant::now(); //~ clippy::disallowed_methods
    let st = std::time::SystemTime::now(); //~ clippy::disallowed_methods clippy::disallowed_types
    let _ = st;
    t0.elapsed().as_nanos() //~ clippy::disallowed_methods
}
