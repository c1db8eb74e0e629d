//! Running the whole benchmark: every workload in a process of its own,
//! `--repeat K` sets back to back, one `results.json`, and the self-check
//! that says whether two sets of one commit agree within the bounds.

use std::path::Path;
use std::process::{Command, ExitCode};

use serde::{Deserialize, Error, Value};

use crate::report::END_TO_END;
use crate::stats::median;
use crate::{Args, WORKLOADS};

/// A parsed JSON document (the `serde` stand-in keeps `Value` opaque to
/// `from_str`; this newtype lets it through unchanged).
struct Json(Value);

impl Deserialize for Json {
    fn from_value(v: &Value) -> Result<Self, Error> {
        Ok(Json(v.clone()))
    }
}

/// Parses JSON text.
pub fn parse_json(text: &str) -> Result<Value, String> {
    serde_json::from_str::<Json>(text)
        .map(|j| j.0)
        .map_err(|e| e.to_string())
}

/// Member `key` of an object.
pub fn field<'a>(v: &'a Value, key: &str) -> Option<&'a Value> {
    match v {
        Value::Object(members) => members.iter().find(|(k, _)| k == key).map(|(_, v)| v),
        _ => None,
    }
}

/// A number as `f64` (NaN for any other value).
pub fn number(v: &Value) -> f64 {
    match *v {
        Value::F64(f) => f,
        Value::I64(i) => i as f64,
        Value::U64(u) => u as f64,
        _ => f64::NAN,
    }
}

/// Runs one workload in a child process, echoes its report, and returns the
/// text of the result file it wrote.
fn run_child(args: &Args, workload: &str, traced: bool, out_dir: &Path) -> Result<String, String> {
    let mode = if traced { "layers" } else { "e2e" };
    let file = out_dir.join(format!("{workload}.{mode}.json"));
    let _ = std::fs::remove_file(&file);
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let mut cmd = Command::new(exe);
    cmd.args(["--workload", workload])
        .args(["--seed", &args.seed.to_string()])
        .args(["--seconds", &args.seconds.to_string()])
        .args(["--trace", if traced { "1" } else { "0" }]);
    if args.smoke {
        cmd.arg("--smoke");
    }
    // `output` waits for the child, so no process outlives this call.
    let out = cmd.output().map_err(|e| e.to_string())?;
    let stdout = String::from_utf8_lossy(&out.stdout);
    let report: Vec<&str> = stdout.lines().collect();
    // All but the machine-readable last line.
    for line in &report[..report.len().saturating_sub(1)] {
        println!("{line}");
    }
    eprint!("{}", String::from_utf8_lossy(&out.stderr));
    if !out.status.success() {
        return Err(format!("{workload} ({mode}) exited with {}", out.status));
    }
    std::fs::read_to_string(&file).map_err(|e| format!("{}: {e}", file.display()))
}

fn metric_value(result: &Value, name: &str) -> f64 {
    field(result, "metrics")
        .and_then(|m| field(m, name))
        .and_then(|m| field(m, "value"))
        .map_or(f64::NAN, number)
}

/// The verdict on one workload × end-to-end metric over `K` sets.
fn judge(values: &[f64], bound: f64, exact: bool) -> (f64, &'static str) {
    let (min, max) = values
        .iter()
        .fold((f64::INFINITY, f64::NEG_INFINITY), |(lo, hi), v| {
            (lo.min(*v), hi.max(*v))
        });
    let spread = (max - min) / median(values).abs();
    let verdict = if exact {
        if values.iter().all(|v| v.to_bits() == values[0].to_bits()) {
            "identical"
        } else {
            "DIFFERS"
        }
    } else if spread <= bound {
        "ok"
    } else {
        "unresolved"
    };
    (spread, verdict)
}

/// Runs `args.repeat` full sets and writes `results.json`.
pub fn run(args: &Args, out_dir: &Path) -> ExitCode {
    let stamp = if args.smoke {
        "smoke: not for claims"
    } else {
        "full"
    };
    println!(
        "benchmark: {} set(s), seed {}, {} s per run, {stamp}",
        args.repeat, args.seed, args.seconds
    );
    let mut sets_json = Vec::new();
    // e2e[workload][set] = parsed result file of the untraced run.
    let mut e2e: Vec<Vec<Value>> = vec![Vec::new(); WORKLOADS.len()];
    for set in 0..args.repeat {
        let mut members = Vec::new();
        for (w, workload) in WORKLOADS.iter().enumerate() {
            println!("--- set {}/{}: {workload}", set + 1, args.repeat);
            let modes: &[bool] = if args.traced {
                &[false, true]
            } else {
                &[false]
            };
            let mut parts = Vec::new();
            for &traced in modes {
                let text = match run_child(args, workload, traced, out_dir) {
                    Ok(text) => text,
                    Err(why) => {
                        eprintln!("benchmark: {why}");
                        return ExitCode::FAILURE;
                    }
                };
                if !traced {
                    match parse_json(&text) {
                        Ok(v) => e2e[w].push(v),
                        Err(why) => {
                            eprintln!("benchmark: {workload}: unreadable result file: {why}");
                            return ExitCode::FAILURE;
                        }
                    }
                }
                let key = if traced { "per_layer" } else { "end_to_end" };
                parts.push(format!("\"{key}\": {text}"));
            }
            members.push(format!("\"{workload}\": {{{}}}", parts.join(", ")));
        }
        sets_json.push(format!("{{{}}}", members.join(", ")));
    }
    let results = format!(
        "{{\"stamp\": \"{stamp}\", \"seed\": {}, \"seconds\": {}, \"sets\": [{}]}}\n",
        args.seed,
        args.seconds,
        sets_json.join(", ")
    );
    let path = out_dir.join("results.json");
    if let Err(why) = std::fs::write(&path, results) {
        eprintln!("benchmark: {}: {why}", path.display());
        return ExitCode::FAILURE;
    }
    println!("results -> {}", path.display());
    if args.repeat < 2 {
        return ExitCode::SUCCESS;
    }

    println!(
        "--- self-check over {} sets: (max - min) / median against the bound",
        args.repeat
    );
    let mut bad = 0;
    for (w, workload) in WORKLOADS.iter().enumerate() {
        for m in END_TO_END {
            let values: Vec<f64> = e2e[w].iter().map(|r| metric_value(r, m.name)).collect();
            let (spread, verdict) = judge(&values, m.bound, m.exact);
            bad += usize::from(verdict != "ok" && verdict != "identical");
            println!(
                "  {workload:<20} {:<18} spread {:>8.4} bound {:>5.2}  {verdict}",
                m.name, spread, m.bound
            );
        }
    }
    if bad > 0 {
        eprintln!("benchmark: {bad} workload x metric pair(s) did not hold");
        return ExitCode::FAILURE;
    }
    ExitCode::SUCCESS
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn json_helpers_walk_a_result_file() {
        let v = parse_json(
            "{\"correct\": true, \"metrics\": {\"setup_s\": {\"value\": 1.5, \"unit\": \"s\"}}, \
             \"list\": [1, 2]}",
        )
        .unwrap();
        assert_eq!(metric_value(&v, "setup_s"), 1.5);
        assert!(metric_value(&v, "absent").is_nan());
        assert!(number(field(&v, "list").unwrap()).is_nan());
        assert!(field(&v, "nope").is_none());
        assert!(parse_json("{").is_err());
    }

    #[test]
    fn spread_beyond_the_bound_is_unresolved_not_passed() {
        assert_eq!(judge(&[100.0, 104.0], 0.10, false).1, "ok");
        assert_eq!(judge(&[100.0, 120.0], 0.10, false).1, "unresolved");
        let (spread, _) = judge(&[90.0, 100.0, 110.0], 0.10, false);
        assert!((spread - 0.2).abs() < 1e-12);
    }

    #[test]
    fn exact_metrics_must_agree_bit_for_bit() {
        assert_eq!(judge(&[0.25, 0.25], 0.02, true).1, "identical");
        assert_eq!(judge(&[0.25, 0.25 + f64::EPSILON], 0.02, true).1, "DIFFERS");
    }
}
