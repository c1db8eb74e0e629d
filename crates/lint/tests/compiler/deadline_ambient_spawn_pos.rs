//! Positive fixture: a probe helper on an undocumented thread — it makes
//! two same-seed gauntlet runs diverge, which the twice-run `cmp` gate
//! would only catch after the fact.

pub fn probe_in_background() -> i32 {
    let handle = std::thread::spawn(|| 42); //~ clippy::disallowed_methods
    handle.join().unwrap_or(0)
}
