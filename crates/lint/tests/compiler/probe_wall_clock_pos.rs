//! Positive fixture: a pairwise probe timed off the wall clock — exactly
//! the drift `probe_pairwise` must avoid (two same-seed probes would
//! disagree, and the deadline budget derived from them would too).

pub fn probe_link(bytes: usize) -> (f64, f64) {
    let t0 = std::time::Instant::now(); //~ clippy::disallowed_methods
    let _epoch = std::time::SystemTime::now(); //~ clippy::disallowed_methods clippy::disallowed_types
    let span = t0.elapsed().as_secs_f64(); //~ clippy::disallowed_methods
    (span, span / bytes.max(1) as f64)
}
