//! Positive fixture: deadline-jitter faults drawn from ambient entropy.

pub fn jittered_budget(base: f64) -> f64 {
    let rng = rand::rngs::OsRng; //~ E0425
    let _ = rng;
    base * 1.5
}
