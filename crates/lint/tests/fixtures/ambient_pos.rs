//! Positive fixture: unseeded RNG and an undocumented thread spawn.

pub fn entropy() -> u64 {
    let rng = rand::thread_rng();
    let _ = rng;
    0
}

pub fn parallel_sum() -> i32 {
    let handle = std::thread::spawn(|| 1 + 1);
    handle.join().unwrap_or(0)
}
