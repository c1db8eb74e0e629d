//! `cloudtrain simulate`, `cloudtrain train` and `cloudtrain trace` refuse
//! gTop-k on a world that is not a power of two before pricing or running
//! anything: each exits non-zero with the same one-line message.
//! `cloudtrain sweep` prices the other strategies and names the reason in
//! gTop-k's row instead of a price.

use std::process::Command;

/// Exit code, stderr and stdout of one `cloudtrain` run.
fn run(args: &str) -> (Option<i32>, String, String) {
    let out = Command::new(env!("CARGO_BIN_EXE_cloudtrain"))
        .args(args.split_whitespace())
        .output()
        .unwrap();
    let text = |bytes| String::from_utf8(bytes).unwrap();
    (out.status.code(), text(out.stderr), text(out.stdout))
}

/// Exit code and stderr of one `cloudtrain` run.
fn cloudtrain(args: &str) -> (Option<i32>, String) {
    let (code, stderr, _) = run(args);
    (code, stderr)
}

const REFUSAL: &str =
    "error: gtopk needs a power-of-two world (recursive doubling pairs every rank), got 24 ranks\n";

#[test]
fn simulate_refuses_gtopk_on_three_nodes() {
    // 3 tencent nodes of 8 GPUs.
    assert_eq!(
        cloudtrain("simulate --strategy gtopk --nodes 3"),
        (Some(2), REFUSAL.to_string())
    );
}

#[test]
fn train_refuses_gtopk_on_three_nodes() {
    // 3 nodes of 8 workers, refused before any rank thread starts.
    assert_eq!(
        cloudtrain("train --strategy gtopk --nodes 3 --gpus 8"),
        (Some(2), REFUSAL.to_string())
    );
}

#[test]
fn trace_refuses_gtopk_on_three_nodes() {
    // Refused before the schedule is priced or the cache is touched.
    assert_eq!(
        cloudtrain("trace --strategy gtopk --nodes 3 --samples 4"),
        (Some(2), REFUSAL.to_string())
    );
}

#[test]
fn sweep_names_the_refusal_instead_of_pricing_gtopk() {
    let (code, stderr, stdout) = run("sweep --model resnet50-96 --nodes 3");
    assert_eq!((code, stderr.as_str()), (Some(0), ""));
    let gtopk: Vec<&str> = stdout
        .lines()
        .filter(|l| l.starts_with("gTopK-SGD"))
        .collect();
    let reason = REFUSAL.trim_start_matches("error: ").trim_end();
    assert_eq!(gtopk, [format!("{:<12} {reason}", "gTopK-SGD")], "{stdout}");
    // The other strategies are still priced.
    assert!(stdout.lines().any(|l| l.starts_with("MSTopK")), "{stdout}");
}

#[test]
fn feasible_worlds_and_other_strategies_still_run() {
    assert_eq!(cloudtrain("simulate --strategy gtopk --nodes 4").0, Some(0));
    assert_eq!(
        cloudtrain("simulate --strategy mstopk --nodes 3").0,
        Some(0)
    );
}
