//! Negative fixture: seeded RNG, and a spawn that states its determinism
//! argument in a suppression.

pub fn seeded(seed: u64) -> u64 {
    let rng = rand::rngs::StdRng::seed_from_u64(seed);
    let _ = rng;
    seed
}

pub fn parallel_sum() -> i32 {
    // lint:allow(ambient, reason = "fixture: the one worker is joined before its value is read")
    let handle = std::thread::spawn(|| 1 + 1);
    handle.join().unwrap_or(0)
}
