//! Negative fixture: ordered collections for export and for point
//! lookups alike.

use std::collections::BTreeMap;

pub fn export(m: &BTreeMap<String, u64>) -> Vec<String> {
    m.iter().map(|(k, v)| format!("{k}={v}")).collect()
}

pub fn lookup(index: &BTreeMap<String, u64>, key: &str) -> Option<u64> {
    index.get(key).copied()
}
