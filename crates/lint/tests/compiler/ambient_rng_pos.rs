//! Positive fixture: unseeded RNG. The `rand` shim defines no entropy
//! source, so name resolution refuses it.

pub fn entropy() -> u64 {
    let rng = rand::thread_rng(); //~ E0425
    let _ = rng;
    0
}
