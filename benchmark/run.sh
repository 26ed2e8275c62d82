#!/usr/bin/env bash
# The benchmark's one command.
#
#   benchmark/run.sh                 build, run the four workloads untraced (one
#                                    fresh process each) and then traced, print
#                                    every metric, write benchmark/out/result.json
#   benchmark/run.sh --workload NAME --seed N --seconds S --trace 0|1
#                                    one run; the last line of standard output is
#                                    the result object BENCHMARK.json describes
#   benchmark/run.sh agree A.json B.json
#                                    compare two result files against the bounds
#
# Builds offline and in release mode, into $CARGO_TARGET_DIR when that is
# set (relative to the repository root) and into benchmark/target otherwise.
set -euo pipefail
cd "$(dirname "$0")/.."
cargo build --release --offline --quiet --manifest-path benchmark/Cargo.toml >&2
exec "${CARGO_TARGET_DIR:-benchmark/target}/release/tpcds-benchmark" "$@"
