#!/usr/bin/env bash
# A/B the repo benchmark: a base revision against the working tree, in
# alternating pairs (choosing-metrics §8).
#
# Usage:
#   scripts/bench_ab.sh <base-ref> <workload|all> [pairs=10] [pr] [title]
#   scripts/bench_ab.sh --aa <ref> <workload|all> [pairs=10]
#
# `--aa` runs one revision against itself: both sides are `git archive`
# exports of <ref>, into .bench_build/base-<sha>/ and .bench_build/head-<sha>/
# (paths of one length), built, seeded and alternated exactly as in an A/B.
# Any `gain` or `regression` it prints is the tool's own asymmetry (build
# directory, layout, run order), not a code change.
#
# The host drifts 10-20 % over minutes, which no single-run statistic
# removes; so each pair runs both sides back to back at the same seed,
# pairs alternate which side goes first, and every pair takes a fresh seed
# (43, 44, ...: none is the default 42 a change is written against). The
# base is exported with `git archive` into .bench_build/base-<sha>/ (nothing
# is registered in .git, unlike a worktree) and both sides are built once,
# each from its own sources into its own benchmark/target, with the
# benchmark's own command line; run length is the benchmark's (`run_seconds`
# of BENCHMARK.json). `all` runs every workload of BENCHMARK.json in turn.
#
# Prints per pair the two values and head/base of every end-to-end metric,
# then per metric: wins of the working tree (ties count for neither), both
# medians and quartiles, the ratio of medians with its base, and the §8
# verdict — `gain` (`regression`) when the working tree wins (loses) at
# least 9/10 of the pairs and the medians differ by more than the base's
# IQR, `identical` when every pair ties, otherwise `unresolved`. Fewer
# than 6 pairs never read `gain` or `regression` (nine tenths of one to
# five pairs is every pair, which chance alone reaches too often): such a
# metric reads `unresolved (pairs < 6)` unless it ties. Separately, every
# metric prints its median move relative to the base median as a share of
# that metric's `bound` in BENCHMARK.json (the largest worsening the
# benchmark tolerates), flagged `beyond bound` when the head median is
# worse than the base median by more than the bound. The last
# line is one JSON object: for one workload its medians and verdicts, for
# `all` a complete row of BENCH_history.jsonl (keyed by the base commit and
# the optional PR number and title).
set -euo pipefail
cd "$(dirname "$0")/.."

aa=
if [[ ${1:-} == --aa ]]; then
    aa=1
    shift
fi
if [[ $# -lt 2 ]]; then
    sed -n '2,14p' "$0" >&2
    exit 2
fi
base_ref=$1
workload=$2
pairs=${3:-10}
pr=${4:-}
title=${5:-}
command -v python3 >/dev/null || { echo "bench_ab.sh needs python3 for the statistics" >&2; exit 1; }
if [[ $workload == all ]]; then
    mapfile -t workloads < <(python3 -c 'import json
for w in json.load(open("BENCHMARK.json"))["workloads"]: print(w["name"])')
else
    workloads=("$workload")
fi

sha=$(git rev-parse --short=12 "${base_ref}^{commit}")
export_to() { # <dir>: a `git archive` of the base revision, made once
    if [[ ! -d $1 ]]; then
        mkdir -p "$1"
        git archive "$sha" | tar -x -C "$1"
    fi
}
base_dir=.bench_build/base-$sha
export_to "$base_dir"
head_dir=.
head_name="the working tree"
if [[ -n $aa ]]; then
    head_dir=.bench_build/head-$sha
    head_name="a second export of $sha"
    export_to "$head_dir"
fi

build() { # <root>: the benchmark's own build, in that root's benchmark/target
    (cd "$1" && CARGO_TARGET_DIR=benchmark/target \
        cargo build --release --offline --quiet --manifest-path benchmark/Cargo.toml)
}
echo "building base $sha and $head_name" >&2
build "$base_dir"
build "$head_dir"

run_one() { # <root> <workload> <seed>: the result object, the run's last line
    (cd "$1" && benchmark/target/release/cloudtrain-benchmark \
        --workload "$2" --seed "$3" --trace 0 2>/dev/null | tail -n 1)
}

results=$(mktemp -d)
trap 'rm -rf "$results"' EXIT
for w in "${workloads[@]}"; do
    for ((i = 0; i < pairs; i++)); do
        seed=$((43 + i))
        if ((i % 2 == 0)); then
            b=$(run_one "$base_dir" "$w" "$seed")
            h=$(run_one "$head_dir" "$w" "$seed")
        else
            h=$(run_one "$head_dir" "$w" "$seed")
            b=$(run_one "$base_dir" "$w" "$seed")
        fi
        echo "$w: pair $i seed $seed done" >&2
        printf '%s\n%s\n' "$b" "$h" >> "$results/$w"
    done
done

python3 - "$results" "$workload" "$sha" "$pairs" "$pr" "$title" "$head_name" "${workloads[@]}" <<'PY'
import json, statistics, sys

results, workload, sha, pairs, pr, title, head_name, *workloads = sys.argv[1:]
pairs = int(pairs)
end_to_end = json.load(open("BENCHMARK.json"))["end_to_end"]
better = {m["name"]: m["better"] for m in end_to_end}
bound = {m["name"]: m["bound"] for m in end_to_end}

def quartiles(xs):
    q = statistics.quantiles(xs, n=4, method="inclusive") if len(xs) > 1 else [xs[0]] * 3
    return q[0], q[2]

MIN_PAIRS = 6

def verdict(wins, losses, gap, iqr):
    # choosing-metrics §8: nine tenths of all pairs run, ties counting for
    # neither side, and medians further apart than the base's own spread —
    # on at least MIN_PAIRS pairs.
    if wins == 0 and losses == 0:
        return "identical"
    if pairs < MIN_PAIRS:
        return f"unresolved (pairs < {MIN_PAIRS})"
    if gap > iqr and 10 * wins >= 9 * pairs:
        return "gain"
    if gap > iqr and 10 * losses >= 9 * pairs:
        return "regression"
    return "unresolved"

def bound_share(mb, mh, direction, bound):
    # The median move toward "worse", relative to the base median, as a
    # share of the bound: > 1 is beyond it, < 0 an improvement.
    if mb == 0:
        return None
    worse = (mh - mb) / mb if direction == "lower" else (mb - mh) / mb
    return worse / bound

def compare(workload):
    lines = [json.loads(l) for l in open(f"{results}/{workload}") if l.strip()]
    base, head = lines[0::2], lines[1::2]
    assert len(base) == len(head) == pairs, "a run printed no result object (did a check fail?)"
    failed = lambda runs: sum(r["failed"] for r in runs) / max(1, sum(r["attempted"] for r in runs))
    print(f"{workload}: {pairs} alternating pairs, base {sha} vs {head_name}")
    print(f"  failed_share  base {failed(base):.6f}  head {failed(head):.6f}")
    metrics = {}
    for name, direction in better.items():
        b = [r["metrics"][name]["value"] for r in base]
        h = [r["metrics"][name]["value"] for r in head]
        unit = base[0]["metrics"][name]["unit"]
        print(f"\n{name} [{unit}] (better: {direction})")
        wins = 0
        for i, (x, y) in enumerate(zip(b, h)):
            first = "base" if i % 2 == 0 else "head"
            ratio = f"{y / x:.4f}" if x else "n/a"
            print(f"  pair {i:2d} ({first} first)  base {x:14.6f}  head {y:14.6f}  head/base {ratio}")
            wins += (y > x) if direction == "higher" else (y < x)
        ties = sum(x == y for x, y in zip(b, h))
        mb, mh = statistics.median(b), statistics.median(h)
        (bl, bu), (hl, hu) = quartiles(b), quartiles(h)
        v = verdict(wins, pairs - wins - ties, abs(mh - mb), bu - bl)
        ratio = f"{mh / mb:.4f}" if mb else "n/a"
        print(f"  wins {wins}/{pairs} (ties {ties})")
        print(f"  base median {mb:.6f}  quartiles [{bl:.6f}, {bu:.6f}]  IQR {bu - bl:.6f}")
        print(f"  head median {mh:.6f}  quartiles [{hl:.6f}, {hu:.6f}]")
        print(f"  head/base of medians {ratio} (base {mb:.6f}); median gap {abs(mh - mb):.6f} vs base IQR {bu - bl:.6f}")
        print(f"  verdict: {v}")
        share = bound_share(mb, mh, direction, bound[name])
        beyond = share is not None and share > 1
        if share is None:
            print(f"  median move: n/a (base median 0); bound {bound[name]:.0%}")
        else:
            move = (mh - mb) / mb
            side = "worse" if share > 0 else "better" if share < 0 else "unmoved"
            flag = "  beyond bound" if beyond else ""
            print(f"  median move {move:+.2%} ({side}) = {abs(share):.3f} of its bound {bound[name]:.0%}{flag}")
        metrics[name] = {"base_median": mb, "head_median": mh, "base_iqr": bu - bl,
                         "wins": wins, "ties": ties, "verdict": v,
                         "bound_share": share, "beyond_bound": beyond}
    print()
    return metrics

rows = {w: {"pairs": pairs, "metrics": compare(w)} for w in workloads}
for w, row in rows.items():
    print(f"{w}: " + "  ".join(f"{m}={r['verdict']}" + (" (beyond bound)" if r["beyond_bound"] else "")
                              for m, r in row["metrics"].items()))
print()
if workload == "all":
    print(json.dumps({
        "parent": sha, "pr": int(pr) if pr else None, "title": title or None,
        "tool": "scripts/bench_ab.sh (alternating pairs, seeds 43..; medians per side)",
        "workloads": rows,
    }, sort_keys=True))
else:
    print(json.dumps({"base": sha, "workload": workload, **rows[workload]}, sort_keys=True))
PY
