#!/usr/bin/env bash
# Regenerates the wall-clock benchmark snapshots:
#
#  * BENCH_topk.json — histogram vs naive MSTopK threshold search at
#    d = 1M and d = 25M (best-of-3 release-mode wall time).
#  * BENCH_e2e.json — end-to-end steps/sec matrix: dense fusion buckets
#    (per-layer, whole-tensor, cost-model) plus one MSTopK row.
#
# Usage: scripts/bench_snapshot.sh [topk-path] [e2e-path]
#        (defaults: BENCH_topk.json BENCH_e2e.json)
set -euo pipefail
cd "$(dirname "$0")/.."

echo "==> BENCH_topk: histogram vs naive threshold search"
cargo build --release -q -p cloudtrain-bench --bin bench_topk_snapshot
cargo run --release -q -p cloudtrain-bench --bin bench_topk_snapshot -- \
    "${1:-BENCH_topk.json}"

echo "==> BENCH_e2e: end-to-end steps/sec matrix"
cargo build --release -q -p cloudtrain-bench --bin e2e_snapshot
./target/release/e2e_snapshot "${2:-BENCH_e2e.json}"
