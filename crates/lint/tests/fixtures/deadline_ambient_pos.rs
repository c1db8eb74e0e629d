//! Positive fixture: deadline-jitter faults drawn from ambient entropy
//! and a probe helper on an undocumented thread — either one makes two
//! same-seed gauntlet runs diverge, which the twice-run `cmp` gate would
//! only catch after the fact.

pub fn jittered_budget(base: f64) -> f64 {
    let rng = rand::thread_rng();
    let _ = rng;
    base * 1.5
}

pub fn probe_in_background() -> i32 {
    let handle = std::thread::spawn(|| 42);
    handle.join().unwrap_or(0)
}
