#!/usr/bin/env bash
# The repo's benchmark, one command. Builds the stand-alone package under
# benchmark/ (release, offline) and hands every argument to it:
#
#   benchmark/run.sh                      all four workloads -> benchmark/out/results.json
#   benchmark/run.sh --traced             ... plus the per-layer metrics and traces
#   benchmark/run.sh --repeat 2           two full sets and the self-check
#   benchmark/run.sh --smoke              counts / 10, stamped "not for claims"
#   benchmark/run.sh --workload W --seed N --seconds S --trace 0|1
#                                         one workload; the last line is the result object
set -euo pipefail
cd "$(dirname "${BASH_SOURCE[0]}")/.."
export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-benchmark/target}"
cargo build --release --offline --quiet --manifest-path benchmark/Cargo.toml >&2
exec "$CARGO_TARGET_DIR/release/cloudtrain-benchmark" "$@"
