//! Shared helpers for the table/figure harness binaries.
//!
//! Every binary under `src/bin/` regenerates one table or figure of the
//! paper (see DESIGN.md's experiment index) and prints (a) a
//! human-readable table and (b) a machine-readable JSON record via
//! [`emit_json`], so EXPERIMENTS.md can cite exact numbers.

#![warn(missing_docs)]

use serde::Serialize;

/// Prints a section header in a consistent style.
pub fn header(title: &str) {
    println!("\n=== {title} ===");
}

/// Prints a `key: value` JSON record on one line, prefixed so it is easy
/// to grep out of the harness output.
pub fn emit_json<T: Serialize>(experiment: &str, value: &T) {
    match serde_json::to_string(value) {
        Ok(json) => println!("JSON {experiment} {json}"),
        Err(e) => eprintln!("JSON {experiment} serialization failed: {e}"),
    }
}

/// Formats seconds adaptively (s / ms / µs).
pub fn fmt_secs(s: f64) -> String {
    if s >= 1.0 {
        format!("{s:.2} s")
    } else if s >= 1e-3 {
        format!("{:.2} ms", s * 1e3)
    } else {
        format!("{:.1} us", s * 1e6)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fmt_secs_picks_units() {
        assert_eq!(fmt_secs(2.5), "2.50 s");
        assert_eq!(fmt_secs(0.0025), "2.50 ms");
        assert_eq!(fmt_secs(2.5e-6), "2.5 us");
    }
}
