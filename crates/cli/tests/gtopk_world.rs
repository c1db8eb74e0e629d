//! `cloudtrain simulate` and `cloudtrain train` refuse gTop-k on a world
//! that is not a power of two before pricing or running anything: both
//! exit non-zero with the same one-line message.

use std::process::Command;

/// Exit code and stderr of one `cloudtrain` run.
fn cloudtrain(args: &str) -> (Option<i32>, String) {
    let out = Command::new(env!("CARGO_BIN_EXE_cloudtrain"))
        .args(args.split_whitespace())
        .output()
        .unwrap();
    (out.status.code(), String::from_utf8(out.stderr).unwrap())
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
fn feasible_worlds_and_other_strategies_still_run() {
    assert_eq!(cloudtrain("simulate --strategy gtopk --nodes 4").0, Some(0));
    assert_eq!(
        cloudtrain("simulate --strategy mstopk --nodes 3").0,
        Some(0)
    );
}
