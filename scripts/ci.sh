#!/usr/bin/env bash
# CI entry point: format check, lints, docs, and the full test suite. The
# workspace declares no cargo feature, so there is one configuration to
# check. Every mode ends with a per-stage timing table.
#
# Usage:
#   scripts/ci.sh            # cloudtrain lint + fmt + clippy + docs +
#                            # doctests + tests
#   scripts/ci.sh lint       # cloudtrain lint only: runs the analyzer twice
#                            # with --deny and requires both the table and
#                            # the JSONL report to be byte-identical
#   scripts/ci.sh gauntlet   # deterministic fault gauntlet (8 seeds x
#                            # {drops, spikes, stragglers}); runs the
#                            # harness twice and requires byte-identical
#                            # output, then snapshots BENCH_faults.json;
#                            # then the observability snapshot, held to
#                            # the same twice-run byte-identical bar, and
#                            # snapshots BENCH_obs.json; then the e2e
#                            # steps/sec snapshot: run twice
#                            # (byte-identical fingerprints), the first
#                            # run kept as BENCH_e2e.json, and the
#                            # >= 1.5x fusion_speedup ceiling enforced
#                            # on it; the autotuner snapshot: run twice
#                            # with the full stdout byte-compared, snapshots
#                            # BENCH_autotune.json, and asserts the real
#                            # O(k) collective moves fewer inter-node
#                            # bytes than HiTopKComm at every
#                            # model-predicted crossover point; then the tail
#                            # gauntlet: run twice (byte-identical),
#                            # snapshots BENCH_tails.json, and enforces
#                            # the pinned tail ceilings (clean dense
#                            # deadline twin bitwise, straggler dense p99
#                            # improvement >= 1.3x, reorder predicted
#                            # gain >= 1.2x); then the elastic gauntlet
#                            # (8 seeds x {evict, evict-join, rack-loss}
#                            # x {replay, reshard}): run twice with the
#                            # full stdout and the extracted JSONL block
#                            # byte-compared, snapshots BENCH_elastic.json,
#                            # and enforces checkpoint replay bitwise on
#                            # every replay row plus < 5% moved / < 5%
#                            # excess on every resharding event
#   scripts/ci.sh conformance # conformance harness over the shipped seed
#                            # corpus: `cloudtrain conformance --deny` run
#                            # twice (table + JSONL byte-compared), then
#                            # the snapshot binary run twice the same way,
#                            # and snapshots BENCH_conformance.json
#   scripts/ci.sh bench      # the standing differential test of the
#                            # library calls against the staged public
#                            # functions: the benchmark package's unit
#                            # tests, then `benchmark/run.sh --smoke
#                            # --traced`, both for their bitwise
#                            # recomposition checks only (the traced run
#                            # fails unless HiTopKComm and the training
#                            # step recomposed from the layers' public
#                            # functions equal the library calls bit for
#                            # bit) — smoke sizes, so no timing is read;
#                            # speed claims go through scripts/bench_ab.sh
set -euo pipefail
cd "$(dirname "$0")/.."

# --- per-stage timing -------------------------------------------------------
# stage "name" opens a stage (closing the previous one); timing_summary
# closes the last stage and prints the table. Uses bash's $SECONDS, so the
# table survives even when individual tools swallow their own timing.
STAGE_NAMES=()
STAGE_SECS=()
CURRENT_STAGE=""
STAGE_T0=0

stage_close() {
    if [[ -n "$CURRENT_STAGE" ]]; then
        STAGE_NAMES+=("$CURRENT_STAGE")
        STAGE_SECS+=("$((SECONDS - STAGE_T0))")
        CURRENT_STAGE=""
    fi
}

stage() {
    stage_close
    CURRENT_STAGE="$1"
    STAGE_T0=$SECONDS
    echo "==> $1"
}

timing_summary() {
    stage_close
    echo ""
    echo "per-stage timing:"
    local i total=0
    printf '  %-60s %6s\n' "stage" "secs"
    for i in "${!STAGE_NAMES[@]}"; do
        printf '  %-60s %5ds\n' "${STAGE_NAMES[$i]}" "${STAGE_SECS[$i]}"
        total=$((total + STAGE_SECS[i]))
    done
    printf '  %-60s %5ds\n' "total" "$total"
}

run_lint_gate() {
    stage "cloudtrain lint: build"
    cargo build --release -q -p cloudtrain-cli

    stage "cloudtrain lint: assert the baseline carries zero entries"
    # The baseline is shrink-only and has been paid down to empty; any
    # reappearing [[allow]] entry is new debt and fails CI outright.
    if grep -q '^\[\[allow\]\]' lint-baseline.toml; then
        echo "lint-baseline.toml has [[allow]] entries; fix findings at the source" >&2
        exit 1
    fi

    stage "cloudtrain lint: run twice with --deny, require byte-identical reports"
    lint_a=$(mktemp)
    lint_b=$(mktemp)
    trap 'rm -f "$lint_a" "$lint_b" "$lint_a.jsonl" "$lint_b.jsonl"' EXIT
    ./target/release/cloudtrain lint --root . --out "$lint_a.jsonl" --deny > "$lint_a"
    ./target/release/cloudtrain lint --root . --out "$lint_b.jsonl" --deny > "$lint_b"
    cmp "$lint_a" "$lint_b"
    cmp "$lint_a.jsonl" "$lint_b.jsonl"
    cat "$lint_a"
    # Keep the canonical JSONL for the workflow's artifact upload.
    mkdir -p target
    cp "$lint_a.jsonl" target/lint-report.jsonl

    # One timing row per rule so the table localises analyzer cost (the
    # workspace passes dominate; --rule skips the others).
    local rule
    for rule in twin_drift coverage_conformance cast_flow float_determinism; do
        stage "cloudtrain lint: --rule $rule"
        ./target/release/cloudtrain lint --root . --rule "$rule" --deny > /dev/null
    done
}

if [[ "${1:-}" == "lint" ]]; then
    run_lint_gate
    timing_summary
    echo "==> cloudtrain lint: green"
    exit 0
fi

if [[ "${1:-}" == "bench" ]]; then
    stage "benchmark: unit tests"
    cargo test --offline -q --manifest-path benchmark/Cargo.toml

    stage "benchmark: smoke traced run, every correctness check must pass"
    # run.sh exits non-zero if any workload fails a check; the numbers it
    # prints are smoke-sized and stamped "not for claims".
    benchmark/run.sh --smoke --traced

    timing_summary
    echo "==> bench: green"
    exit 0
fi

if [[ "${1:-}" == "gauntlet" ]]; then
    stage "fault gauntlet: build"
    cargo build --release -q -p cloudtrain-bench --bin fault_gauntlet

    stage "fault gauntlet: run twice, require byte-identical output"
    out_a=$(mktemp)
    out_b=$(mktemp)
    trap 'rm -f "$out_a" "$out_b"' EXIT
    ./target/release/fault_gauntlet > "$out_a"
    ./target/release/fault_gauntlet > "$out_b"
    cmp "$out_a" "$out_b"

    stage "fault gauntlet: snapshot BENCH_faults.json"
    grep '^JSON fault_gauntlet ' "$out_a" | sed 's/^JSON fault_gauntlet //' \
        > BENCH_faults.json
    python3 -c 'import json,sys; rows=json.load(open("BENCH_faults.json")); \
print(f"  {len(rows)} gauntlet rows")' 2>/dev/null \
        || echo "  (python3 unavailable; snapshot written unvalidated)"

    stage "obs snapshot: build"
    cargo build --release -q -p cloudtrain-bench --bin obs_snapshot

    stage "obs snapshot: run twice, require byte-identical JSONL"
    obs_a=$(mktemp)
    obs_b=$(mktemp)
    trap 'rm -f "$out_a" "$out_b" "$obs_a" "$obs_b"' EXIT
    ./target/release/obs_snapshot > "$obs_a"
    ./target/release/obs_snapshot > "$obs_b"
    sed -n '/^OBS-BEGIN$/,/^OBS-END$/p' "$obs_a" > "$obs_a.jsonl"
    sed -n '/^OBS-BEGIN$/,/^OBS-END$/p' "$obs_b" > "$obs_b.jsonl"
    trap 'rm -f "$out_a" "$out_b" "$obs_a" "$obs_b" "$obs_a.jsonl" "$obs_b.jsonl"' EXIT
    cmp "$obs_a.jsonl" "$obs_b.jsonl"

    stage "obs snapshot: snapshot BENCH_obs.json"
    grep '^JSON obs_snapshot ' "$obs_a" | sed 's/^JSON obs_snapshot //' \
        > BENCH_obs.json
    python3 -c 'import json; s=json.load(open("BENCH_obs.json")); \
print("  {} trace lines, fnv1a {}".format(s["jsonl_lines"], s["jsonl_fnv1a"]))' 2>/dev/null \
        || echo "  (python3 unavailable; snapshot written unvalidated)"

    stage "e2e snapshot: build"
    cargo build --release -q -p cloudtrain-bench --bin e2e_snapshot

    stage "e2e snapshot: run twice, require byte-identical fingerprints -> BENCH_e2e.json"
    e2e_a=$(mktemp)
    e2e_b=$(mktemp)
    trap 'rm -f "$out_a" "$out_b" "$obs_a" "$obs_b" "$obs_a.jsonl" "$obs_b.jsonl" \
        "$e2e_a" "$e2e_b" "$e2e_b.json" "$e2e_a.fp" "$e2e_b.fp"' EXIT
    ./target/release/e2e_snapshot BENCH_e2e.json > "$e2e_a"
    ./target/release/e2e_snapshot "$e2e_b.json" > "$e2e_b"
    sed -n '/^E2E-BEGIN$/,/^E2E-END$/p' "$e2e_a" > "$e2e_a.fp"
    sed -n '/^E2E-BEGIN$/,/^E2E-END$/p' "$e2e_b" > "$e2e_b.fp"
    cmp "$e2e_a.fp" "$e2e_b.fp"
    grep -E 'speedup|E2E' "$e2e_a" | grep -v '^E2E-' || true

    stage "e2e snapshot: enforce the 1.5x steps/sec ceiling"
    if command -v python3 >/dev/null 2>&1; then
        python3 -c 'import json
s = json.load(open("BENCH_e2e.json"))
speedup = s["fusion_speedup"]
assert speedup >= 1.5, f"fusion speedup {speedup:.2f}x below the 1.5x ceiling"
print(f"  fusion speedup {speedup:.2f}x (ceiling 1.5x)")'
    else
        echo "  (python3 unavailable; ceiling not enforced)"
    fi

    stage "autotune snapshot: build"
    cargo build --release -q -p cloudtrain-bench --bin autotune_snapshot

    stage "autotune snapshot: run twice, require byte-identical output"
    at_a=$(mktemp)
    at_b=$(mktemp)
    trap 'rm -f "$out_a" "$out_b" "$obs_a" "$obs_b" "$obs_a.jsonl" "$obs_b.jsonl" \
        "$e2e_a" "$e2e_b" "$e2e_b.json" "$e2e_a.fp" "$e2e_b.fp" \
        "$at_a" "$at_b"' EXIT
    ./target/release/autotune_snapshot > "$at_a"
    ./target/release/autotune_snapshot > "$at_b"
    cmp "$at_a" "$at_b"

    stage "autotune snapshot: snapshot BENCH_autotune.json"
    grep '^JSON autotune_snapshot ' "$at_a" | sed 's/^JSON autotune_snapshot //' \
        > BENCH_autotune.json

    stage "autotune snapshot: enforce O(k) traffic wins at predicted crossovers"
    if command -v python3 >/dev/null 2>&1; then
        python3 -c 'import json
s = json.load(open("BENCH_autotune.json"))
n = s["crossover_points_validated"]
assert n >= 3, f"only {n} crossover points validated (need >= 3)"
for t in s["traffic"]:
    assert t["oksparse_wins"], t
    assert t["measured_oksparse_bytes"] < t["measured_hitopk_bytes"], t
    assert t["predicted_oksparse_bytes"] < t["predicted_hitopk_bytes"], t
cells = len(s["cells"])
print(f"  {cells} autotune cells, {n} O(k)-vs-HiTopKComm crossover points validated")'
    else
        echo "  (python3 unavailable; crossover gate not enforced)"
    fi

    stage "tail gauntlet: build"
    cargo build --release -q -p cloudtrain-bench --bin tail_gauntlet

    stage "tail gauntlet: run twice, require byte-identical output"
    tails_a=$(mktemp)
    tails_b=$(mktemp)
    trap 'rm -f "$out_a" "$out_b" "$obs_a" "$obs_b" "$obs_a.jsonl" "$obs_b.jsonl" \
        "$e2e_a" "$e2e_b" "$e2e_b.json" "$e2e_a.fp" "$e2e_b.fp" \
        "$at_a" "$at_b" "$tails_a" "$tails_b"' EXIT
    ./target/release/tail_gauntlet > "$tails_a"
    ./target/release/tail_gauntlet > "$tails_b"
    cmp "$tails_a" "$tails_b"

    stage "tail gauntlet: snapshot BENCH_tails.json"
    grep '^JSON tail_gauntlet ' "$tails_a" | sed 's/^JSON tail_gauntlet //' \
        > BENCH_tails.json

    stage "tail gauntlet: enforce the pinned tail ceilings"
    if command -v python3 >/dev/null 2>&1; then
        python3 -c 'import json
s = json.load(open("BENCH_tails.json"))
assert s["dense_deadline_clean_bitwise"] is True, "clean dense deadline twin diverged"
imp = s["straggler_dense_p99_improvement"]
assert imp >= 1.3, f"straggler dense p99 improvement {imp:.2f}x below the 1.3x ceiling"
gain = s["reorder"]["predicted_gain"]
assert gain >= 1.2, f"reorder predicted gain {gain:.2f}x below the 1.2x ceiling"
rows = s["rows"]
print(f"  {len(rows)} tail rows")
print(f"  straggler dense p99 improvement {imp:.2f}x (ceiling 1.3x)")
print(f"  reorder predicted gain {gain:.2f}x (ceiling 1.2x)")'
    else
        echo "  (python3 unavailable; ceilings not enforced)"
    fi

    stage "elastic gauntlet: build"
    cargo build --release -q -p cloudtrain-bench --bin elastic_gauntlet

    stage "elastic gauntlet: run twice, require byte-identical output"
    el_a=$(mktemp)
    el_b=$(mktemp)
    trap 'rm -f "$out_a" "$out_b" "$obs_a" "$obs_b" "$obs_a.jsonl" "$obs_b.jsonl" \
        "$e2e_a" "$e2e_b" "$e2e_b.json" "$e2e_a.fp" "$e2e_b.fp" \
        "$at_a" "$at_b" "$tails_a" "$tails_b" \
        "$el_a" "$el_b" "$el_a.jsonl" "$el_b.jsonl"' EXIT
    ./target/release/elastic_gauntlet > "$el_a"
    ./target/release/elastic_gauntlet > "$el_b"
    cmp "$el_a" "$el_b"
    sed -n '/^ELASTIC-JSONL-BEGIN$/,/^ELASTIC-JSONL-END$/p' "$el_a" > "$el_a.jsonl"
    sed -n '/^ELASTIC-JSONL-BEGIN$/,/^ELASTIC-JSONL-END$/p' "$el_b" > "$el_b.jsonl"
    cmp "$el_a.jsonl" "$el_b.jsonl"

    stage "elastic gauntlet: snapshot BENCH_elastic.json"
    grep '^JSON elastic_gauntlet ' "$el_a" | sed 's/^JSON elastic_gauntlet //' \
        > BENCH_elastic.json

    stage "elastic gauntlet: enforce replay-bitwise and the < 5% reshard bound"
    if command -v python3 >/dev/null 2>&1; then
        python3 -c 'import json
rows = json.load(open("BENCH_elastic.json"))
replay = [r for r in rows if r["mode"] == "replay"]
assert replay, "no replay rows in the snapshot"
for r in rows:
    assert r["max_moved_pct"] < 5.0, ("reshard moved >= 5% of the data set", r)
    assert r["max_excess_pct"] < 5.0, ("samples churned between survivors", r)
for r in replay:
    assert r["replay_bitwise"] is True, ("checkpoint replay diverged", r)
worst = max(r["max_moved_pct"] for r in rows)
print(f"  {len(rows)} rows ({len(replay)} replay), all bitwise; worst reshard {worst:.2f}% (< 5%)")'
    else
        echo "  (python3 unavailable; elastic gates not enforced)"
    fi

    timing_summary
    echo "==> fault gauntlet: green"
    exit 0
fi

if [[ "${1:-}" == "conformance" ]]; then
    stage "conformance: build"
    cargo build --release -q -p cloudtrain-cli
    cargo build --release -q -p cloudtrain-bench --bin conformance_snapshot

    stage "conformance: cloudtrain conformance --deny twice, require byte-identical reports"
    conf_a=$(mktemp)
    conf_b=$(mktemp)
    trap 'rm -f "$conf_a" "$conf_b" "$conf_a.jsonl" "$conf_b.jsonl"' EXIT
    ./target/release/cloudtrain conformance --deny --out "$conf_a.jsonl" > "$conf_a"
    ./target/release/cloudtrain conformance --deny --out "$conf_b.jsonl" > "$conf_b"
    cmp "$conf_a" "$conf_b"
    cmp "$conf_a.jsonl" "$conf_b.jsonl"
    cat "$conf_a"

    stage "conformance: snapshot twice, require byte-identical JSONL"
    snap_a=$(mktemp)
    snap_b=$(mktemp)
    trap 'rm -f "$conf_a" "$conf_b" "$conf_a.jsonl" "$conf_b.jsonl" \
        "$snap_a" "$snap_b" "$snap_a.jsonl" "$snap_b.jsonl"' EXIT
    ./target/release/conformance_snapshot > "$snap_a"
    ./target/release/conformance_snapshot > "$snap_b"
    sed -n '/^CONFORMANCE-BEGIN$/,/^CONFORMANCE-END$/p' "$snap_a" > "$snap_a.jsonl"
    sed -n '/^CONFORMANCE-BEGIN$/,/^CONFORMANCE-END$/p' "$snap_b" > "$snap_b.jsonl"
    cmp "$snap_a.jsonl" "$snap_b.jsonl"

    stage "conformance: snapshot BENCH_conformance.json"
    grep '^JSON conformance_snapshot ' "$snap_a" | sed 's/^JSON conformance_snapshot //' \
        > BENCH_conformance.json
    python3 -c 'import json; s=json.load(open("BENCH_conformance.json")); \
assert s["divergences"] == 0 and s["coverage_missing"] == 0, s; \
print("  {} cases, {} checks, fnv1a {}".format(s["cases"], s["checks"], s["jsonl_fnv1a"]))' 2>/dev/null \
        || echo "  (python3 unavailable; snapshot written unvalidated)"

    timing_summary
    echo "==> conformance: green"
    exit 0
fi

run_lint_gate

stage "cargo fmt --check"
cargo fmt --all -- --check

stage "cargo clippy"
cargo clippy --workspace --all-targets -- -D warnings

stage "cargo doc (warnings are errors)"
RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps -q

stage "cargo test --doc"
cargo test --workspace --doc -q

stage "cargo test"
cargo test --workspace -q

timing_summary
echo "==> ci.sh: all green"
