//! Negative fixture: deadline jitter from a caller-seeded RNG (the
//! `DeadlineFaults::new(seed)` shape), and the probe thread documented
//! with an `#[expect]`.

use rand::SeedableRng;

pub fn jittered_budget(base: f64, seed: u64) -> f64 {
    let rng = rand::rngs::StdRng::seed_from_u64(seed);
    let _ = rng;
    base * 1.5
}

pub fn probe_in_background() -> i32 {
    #[expect(
        clippy::disallowed_methods,
        reason = "fixture: the probe is joined before its value is read"
    )]
    let handle = std::thread::spawn(|| 42);
    handle.join().unwrap_or(0)
}
