//! Positive fixture: hash-order iteration reaching exported output. The
//! type ban also catches `names.into_iter().collect()`, which
//! `clippy::iter_over_hash_type` does not.

use std::collections::{HashMap, HashSet}; //~ clippy::disallowed_types

pub fn export(m: &HashMap<String, u64>) -> Vec<String> { //~ clippy::disallowed_types
    let mut out = Vec::new();
    for (k, v) in m.iter() {
        out.push(format!("{k}={v}"));
    }
    out
}

pub fn drain_all(names: HashSet<u32>) -> Vec<u32> { //~ clippy::disallowed_types
    names.into_iter().collect()
}
