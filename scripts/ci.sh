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
#                            # the JSONL report to be byte-identical; fails
#                            # on any `fn *_traced` or parameter typed
#                            # `Option<&mut Registry>` under crates/*/src
#   scripts/ci.sh gauntlet   # deterministic fault gauntlet (8 seeds x
#                            # {drops, spikes, stragglers}); runs the
#                            # harness twice and requires byte-identical
#                            # output, then snapshots BENCH_faults.json;
#                            # then the observability snapshot, held to
#                            # the same twice-run byte-identical bar, and
#                            # snapshots BENCH_obs.json; then the e2e
#                            # steps/sec snapshot: run twice
#                            # (byte-identical fingerprints), the second
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
#                            # the pinned tail ceilings (simnet's clean
#                            # dense deadline run bitwise, straggler
#                            # dense p99 improvement >= 1.3x, reorder
#                            # predicted gain >= 1.2x); then the elastic
#                            # gauntlet
#                            # (8 seeds x {evict, evict-join, rack-loss}
#                            # x {replay, reshard}): run twice with the
#                            # full stdout (JSONL block included)
#                            # byte-compared, snapshots BENCH_elastic.json,
#                            # and enforces checkpoint replay bitwise on
#                            # every replay row plus < 5% moved / < 5%
#                            # excess on every resharding event; last,
#                            # the five deterministic snapshots it wrote
#                            # (all but the wall-clock BENCH_e2e.json)
#                            # must equal their committed versions
#   scripts/ci.sh conformance # conformance harness over the shipped seed
#                            # corpus: `cloudtrain conformance --deny` run
#                            # twice (table + JSONL byte-compared), then
#                            # the snapshot binary run twice the same way,
#                            # and snapshots BENCH_conformance.json,
#                            # which must equal its committed version
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

# --- twice-run byte-compare -------------------------------------------------
# Every mode works in one temporary directory, removed on exit.
TMP=$(mktemp -d)
trap 'rm -rf "$TMP"' EXIT

# twice NAME CMD...: runs CMD twice and requires the two runs to be
# byte-identical. Stdout lands in $TMP/NAME.1 and $TMP/NAME.2; an argument
# `{out}` becomes $TMP/NAME.1.out / $TMP/NAME.2.out (a report file the
# command writes), and those are compared too. With BLOCK=TAG set, only the
# stdout lines from TAG-BEGIN to TAG-END are compared.
twice() {
    local name=$1 i
    shift
    for i in 1 2; do
        "${@//\{out\}/$TMP/$name.$i.out}" > "$TMP/$name.$i"
        if [[ -n "${BLOCK:-}" ]]; then
            sed -n "/^$BLOCK-BEGIN\$/,/^$BLOCK-END\$/p" "$TMP/$name.$i" > "$TMP/$name.$i.cmp"
        else
            cp "$TMP/$name.$i" "$TMP/$name.$i.cmp"
        fi
    done
    cmp "$TMP/$name.1.cmp" "$TMP/$name.2.cmp"
    if [[ -e "$TMP/$name.1.out" ]]; then
        cmp "$TMP/$name.1.out" "$TMP/$name.2.out"
    fi
}

# snapshots_match_committed FILE...: fails if any deterministic snapshot
# the mode just wrote differs from its committed version — a change to one
# must be committed together with the code that causes it.
snapshots_match_committed() {
    if ! git rev-parse --is-inside-work-tree >/dev/null 2>&1; then
        echo "  (not a git checkout; snapshots not compared)"
        return
    fi
    if ! git diff --exit-code --stat HEAD -- "$@"; then
        echo "deterministic snapshots differ from their committed versions (above)" >&2
        exit 1
    fi
    echo "  $# snapshot(s) equal their committed versions"
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

    stage "cloudtrain lint: traced-twin guard"
    # A call returns what it did and the caller records it; a `_traced`
    # entry point or an optional-registry parameter is the old pattern.
    if grep -rEn 'fn [A-Za-z0-9_]*_traced\b|:[[:space:]]*(&mut[[:space:]]+)?Option<&mut[[:space:]]+Registry>' \
        crates/*/src; then
        echo "record from what the call returns instead (Registry::charge)" >&2
        exit 1
    fi

    stage "cloudtrain lint: run twice with --deny, require byte-identical reports"
    twice lint ./target/release/cloudtrain lint --root . --out '{out}' --deny
    cat "$TMP/lint.1"
    # Keep the canonical JSONL for the workflow's artifact upload.
    mkdir -p target
    cp "$TMP/lint.1.out" target/lint-report.jsonl

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
    twice faults ./target/release/fault_gauntlet

    stage "fault gauntlet: snapshot BENCH_faults.json"
    grep '^JSON fault_gauntlet ' "$TMP/faults.1" | sed 's/^JSON fault_gauntlet //' \
        > BENCH_faults.json
    python3 -c 'import json,sys; rows=json.load(open("BENCH_faults.json")); \
print(f"  {len(rows)} gauntlet rows")' 2>/dev/null \
        || echo "  (python3 unavailable; snapshot written unvalidated)"

    stage "obs snapshot: build"
    cargo build --release -q -p cloudtrain-bench --bin obs_snapshot

    stage "obs snapshot: run twice, require byte-identical JSONL"
    BLOCK=OBS twice obs ./target/release/obs_snapshot

    stage "obs snapshot: snapshot BENCH_obs.json"
    grep '^JSON obs_snapshot ' "$TMP/obs.1" | sed 's/^JSON obs_snapshot //' \
        > BENCH_obs.json
    python3 -c 'import json; s=json.load(open("BENCH_obs.json")); \
print("  {} trace lines, fnv1a {}".format(s["jsonl_lines"], s["jsonl_fnv1a"]))' 2>/dev/null \
        || echo "  (python3 unavailable; snapshot written unvalidated)"

    stage "e2e snapshot: build"
    cargo build --release -q -p cloudtrain-bench --bin e2e_snapshot

    stage "e2e snapshot: run twice, require byte-identical fingerprints -> BENCH_e2e.json"
    # Both runs write BENCH_e2e.json; the second one's wall times are kept.
    BLOCK=E2E twice e2e ./target/release/e2e_snapshot BENCH_e2e.json
    grep -E 'speedup|E2E' "$TMP/e2e.2" | grep -v '^E2E-' || true

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
    twice autotune ./target/release/autotune_snapshot

    stage "autotune snapshot: snapshot BENCH_autotune.json"
    grep '^JSON autotune_snapshot ' "$TMP/autotune.1" | sed 's/^JSON autotune_snapshot //' \
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
    twice tails ./target/release/tail_gauntlet

    stage "tail gauntlet: snapshot BENCH_tails.json"
    grep '^JSON tail_gauntlet ' "$TMP/tails.1" | sed 's/^JSON tail_gauntlet //' \
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
    # The whole stdout is compared, JSONL block included.
    twice elastic ./target/release/elastic_gauntlet

    stage "elastic gauntlet: snapshot BENCH_elastic.json"
    grep '^JSON elastic_gauntlet ' "$TMP/elastic.1" | sed 's/^JSON elastic_gauntlet //' \
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

    stage "gauntlet: deterministic snapshots equal their committed versions"
    snapshots_match_committed BENCH_faults.json BENCH_obs.json BENCH_tails.json \
        BENCH_autotune.json BENCH_elastic.json

    timing_summary
    echo "==> fault gauntlet: green"
    exit 0
fi

if [[ "${1:-}" == "conformance" ]]; then
    stage "conformance: build"
    cargo build --release -q -p cloudtrain-cli
    cargo build --release -q -p cloudtrain-bench --bin conformance_snapshot

    stage "conformance: cloudtrain conformance --deny twice, require byte-identical reports"
    twice conformance ./target/release/cloudtrain conformance --deny --out '{out}'
    cat "$TMP/conformance.1"

    stage "conformance: snapshot twice, require byte-identical JSONL"
    BLOCK=CONFORMANCE twice snapshot ./target/release/conformance_snapshot

    stage "conformance: snapshot BENCH_conformance.json"
    grep '^JSON conformance_snapshot ' "$TMP/snapshot.1" | sed 's/^JSON conformance_snapshot //' \
        > BENCH_conformance.json
    python3 -c 'import json; s=json.load(open("BENCH_conformance.json")); \
assert s["divergences"] == 0 and s["coverage_missing"] == 0, s; \
print("  {} cases, {} checks, fnv1a {}".format(s["cases"], s["checks"], s["jsonl_fnv1a"]))' 2>/dev/null \
        || echo "  (python3 unavailable; snapshot written unvalidated)"

    stage "conformance: BENCH_conformance.json equals its committed version"
    snapshots_match_committed BENCH_conformance.json

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
