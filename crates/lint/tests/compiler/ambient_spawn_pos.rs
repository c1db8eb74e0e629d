//! Positive fixture: an undocumented thread spawn.

pub fn parallel_sum() -> i32 {
    let handle = std::thread::spawn(|| 1 + 1); //~ clippy::disallowed_methods
    handle.join().unwrap_or(0)
}
