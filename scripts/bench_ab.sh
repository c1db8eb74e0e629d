#!/usr/bin/env bash
# A/B the repo benchmark on one workload: a base revision against the
# working tree, in alternating pairs (choosing-metrics §8).
#
# Usage:
#   scripts/bench_ab.sh <base-ref> <workload> [pairs=10]
#
# The host drifts 10-20 % over minutes, which no single-run statistic
# removes; so each pair runs both sides back to back at the same seed,
# pairs alternate which side goes first, and every pair takes a fresh seed
# (43, 44, ...: none is the default 42 a change is written against). The
# base is exported with `git archive` into .bench_build/base-<sha>/ (nothing
# is registered in .git, unlike a worktree) and both sides are built once,
# each from its own sources into its own benchmark/target, with the
# benchmark's own command line; run length is the benchmark's (`run_seconds`
# of BENCHMARK.json).
#
# Prints per pair the two values and head/base of every end-to-end metric,
# then per metric: wins of the working tree (ties count for neither), both
# medians and quartiles, and the ratio of medians with its base. The last
# line is one JSON object holding those medians — the row format of
# BENCH_history.jsonl.
set -euo pipefail
cd "$(dirname "$0")/.."

if [[ $# -lt 2 ]]; then
    sed -n '2,7p' "$0" >&2
    exit 2
fi
base_ref=$1
workload=$2
pairs=${3:-10}
command -v python3 >/dev/null || { echo "bench_ab.sh needs python3 for the statistics" >&2; exit 1; }

sha=$(git rev-parse --short=12 "${base_ref}^{commit}")
base_dir=.bench_build/base-$sha
if [[ ! -d $base_dir ]]; then
    mkdir -p "$base_dir"
    git archive "$sha" | tar -x -C "$base_dir"
fi

build() { # <root>: the benchmark's own build, in that root's benchmark/target
    (cd "$1" && CARGO_TARGET_DIR=benchmark/target \
        cargo build --release --offline --quiet --manifest-path benchmark/Cargo.toml)
}
echo "building base $sha and the working tree" >&2
build "$base_dir"
build .

run_one() { # <root> <seed>: the result object, the run's last line
    (cd "$1" && benchmark/target/release/cloudtrain-benchmark \
        --workload "$workload" --seed "$2" --trace 0 2>/dev/null | tail -n 1)
}

results=$(mktemp)
trap 'rm -f "$results"' EXIT
for ((i = 0; i < pairs; i++)); do
    seed=$((43 + i))
    if ((i % 2 == 0)); then
        b=$(run_one "$base_dir" "$seed")
        h=$(run_one . "$seed")
    else
        h=$(run_one . "$seed")
        b=$(run_one "$base_dir" "$seed")
    fi
    echo "pair $i seed $seed done" >&2
    printf '%s\n%s\n' "$b" "$h" >> "$results"
done

python3 - "$results" "$workload" "$sha" "$pairs" <<'PY'
import json, statistics, sys

path, workload, sha, pairs = sys.argv[1], sys.argv[2], sys.argv[3], int(sys.argv[4])
lines = [json.loads(l) for l in open(path) if l.strip()]
base, head = lines[0::2], lines[1::2]
assert len(base) == len(head) == pairs, "a run printed no result object (did a check fail?)"
better = {m["name"]: m["better"] for m in json.load(open("BENCHMARK.json"))["end_to_end"]}

def quartiles(xs):
    q = statistics.quantiles(xs, n=4, method="inclusive") if len(xs) > 1 else [xs[0]] * 3
    return q[0], q[2]

row = {"base": sha, "workload": workload, "pairs": pairs, "metrics": {}}
failed = lambda runs: sum(r["failed"] for r in runs) / max(1, sum(r["attempted"] for r in runs))
print(f"{workload}: {pairs} alternating pairs, base {sha} vs working tree")
print(f"  failed_share  base {failed(base):.6f}  head {failed(head):.6f}")
for name, direction in better.items():
    b = [r["metrics"][name]["value"] for r in base]
    h = [r["metrics"][name]["value"] for r in head]
    unit = base[0]["metrics"][name]["unit"]
    print(f"\n{name} [{unit}] (better: {direction})")
    wins = 0
    for i, (x, y) in enumerate(zip(b, h)):
        first = "base" if i % 2 == 0 else "head"
        print(f"  pair {i:2d} ({first} first)  base {x:14.6f}  head {y:14.6f}  head/base {y / x:.4f}")
        wins += (y > x) if direction == "higher" else (y < x)
    ties = sum(x == y for x, y in zip(b, h))
    mb, mh = statistics.median(b), statistics.median(h)
    (bl, bu), (hl, hu) = quartiles(b), quartiles(h)
    print(f"  wins {wins}/{pairs} (ties {ties})")
    print(f"  base median {mb:.6f}  quartiles [{bl:.6f}, {bu:.6f}]  IQR {bu - bl:.6f}")
    print(f"  head median {mh:.6f}  quartiles [{hl:.6f}, {hu:.6f}]")
    print(f"  head/base of medians {mh / mb:.4f} (base {mb:.6f}); median gap {abs(mh - mb):.6f} vs base IQR {bu - bl:.6f}")
    row["metrics"][name] = {"base_median": mb, "head_median": mh, "base_iqr": bu - bl, "wins": wins, "ties": ties}
print()
print(json.dumps(row, sort_keys=True))
PY
