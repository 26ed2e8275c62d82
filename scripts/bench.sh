#!/usr/bin/env sh
# Routing and differential gates (timing is the repository benchmark's
# job: benchmark/run.sh). Builds the release harness and regenerates
#  - COVERAGE_10.json: per-template batch-path row fraction, whether the
#    plan ran fallback-free, fallback reason codes and cardinality q-error
#    quantiles over all 99 templates (tpcds-bench coverage), gated on the
#    committed report — a template that ran fallback-free there and no
#    longer does fails the script — and on an absolute floor on the
#    fallback-free template count (MIN_COLUMNAR);
#  - COVERAGE_8.json: the synthesized-workload soak — SYNTH_BUDGET seeded
#    grammar-driven queries (FK-walked joins, histogram-steered
#    predicates, adversarial NULL-key / skew / empty / 64k-LIMIT shapes)
#    run concurrently against the four-way row-vs-columnar differential
#    while data maintenance commits mid-run, with per-shape-class routing
#    tallies (tpcds-bench synth). Any differential mismatch fails the
#    script and writes minimized reproducers under synth_failures/.
# Exits non-zero on any answer mismatch or coverage regression.
#
# Knobs:
#   TPCDS_THREADS      morsel worker count (default: available_parallelism)
#   BENCH_JOIN_SCALE   scale factor for both reports (default 0.01)
#   BENCH_COVERAGE_OUT COVERAGE_10 output path (default COVERAGE_10.json)
#   MIN_COLUMNAR       fallback-free template floor for the coverage gate
#                      (default 90, the committed report's count)
#   BENCH_SYNTH_OUT    COVERAGE_8 output path (default COVERAGE_8.json)
#   SYNTH_BUDGET       synthesized queries per soak (default 500)
#   SYNTH_TOLERANCE    columnar_frac slack for the COVERAGE_8 gate
#                      (default 0.05; mismatches are never tolerated)
set -eux

export CARGO_NET_OFFLINE=true

COVERAGE="${BENCH_COVERAGE_OUT:-COVERAGE_10.json}"
SYNTH="${BENCH_SYNTH_OUT:-COVERAGE_8.json}"

cargo build --release -p tpcds-bench --bin tpcds-bench

# With a committed report in place, gate the fresh one against it.
baseline() {
    if [ -f "$1" ]; then
        cp "$1" "$1.baseline"
        echo "--baseline $1.baseline"
    fi
}

status=0
# Routing is deterministic: no tolerance.
# shellcheck disable=SC2046
./target/release/tpcds-bench coverage \
    --scale "${BENCH_JOIN_SCALE:-0.01}" \
    --out "$COVERAGE" $(baseline "$COVERAGE") \
    --min-columnar "${MIN_COLUMNAR:-90}" || status=1

# A fixed default seed keeps the generated queries (and so the routing
# report) stable across runs; export TPCDS_TEST_SEED to explore, or replay
# a CI failure. Mismatches always fail; the baseline gate additionally
# fails on a class vanishing or its columnar fraction regressing.
# shellcheck disable=SC2046
./target/release/tpcds-bench synth \
    --scale "${BENCH_JOIN_SCALE:-0.01}" \
    --queries "${SYNTH_BUDGET:-500}" \
    --out "$SYNTH" $(baseline "$SYNTH") \
    --tolerance "${SYNTH_TOLERANCE:-0.05}" \
    --fail-dir synth_failures || status=1
rm -f "$COVERAGE.baseline" "$SYNTH.baseline"
exit "$status"
