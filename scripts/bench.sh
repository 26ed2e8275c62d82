#!/usr/bin/env sh
# Engine profiling reports (kernel throughput itself is measured by the
# repository benchmark, benchmark/run.sh, at 12 morsels instead of one):
# builds the release harness and emits
#  - BENCH_4.json: the profiling report — partitioned hash-join build /
#    probe / fused aggregate-over-join sections on store_sales ⋈ date_dim
#    plus histogram-derived per-query-class latency percentiles and
#    process peak memory (tpcds-bench profile);
#  - BENCH_5.json: parallel sort / Top-N throughput (the ORDER BY ...
#    LIMIT 100 template tail) for the serial row sort vs the morsel-driven
#    kernels at 1 and N workers (written by the same profile run);
#  - COVERAGE_10.json: per-template batch-path row fraction, whether the
#    plan ran fallback-free, fallback reason codes and cardinality q-error
#    quantiles over all 99 templates (tpcds-bench coverage), gated on an
#    absolute floor on the fallback-free template count (MIN_COLUMNAR,
#    default 28 of 99) on top of the baseline gate;
#  - BENCH_7.json: the client/server multi-stream report — 1/4/16 TCP
#    clients querying a live tpcds-server while data maintenance commits
#    snapshot versions mid-run: queries/s, a QphDS-style proxy,
#    per-stream latency histograms and snapshot-version churn
#    (tpcds-bench serve);
#  - COVERAGE_8.json: the synthesized-workload soak — SYNTH_BUDGET seeded
#    grammar-driven queries (FK-walked joins, histogram-steered
#    predicates, adversarial NULL-key / skew / empty / 64k-LIMIT shapes)
#    run concurrently against the four-way row-vs-columnar differential
#    while data maintenance commits mid-run, with per-shape-class routing
#    tallies (tpcds-bench synth). Any differential mismatch fails the
#    script and writes minimized reproducers under synth_failures/.
#  - BENCH_9.json: observer overhead — the same short query mix with the
#    per-query log + metrics registry enabled vs disabled, gated inline
#    by the profile run at OBS_TOLERANCE (default 5%);
#  - BENCH_10.json: expression-kernel throughput — computed projection,
#    expression ORDER BY key and residual-join microbenches for the
#    interpreted row path vs the compiled kernels at 1 and 8 workers,
#    gated inline at EXPR_MIN_SPEEDUP (default 3.0x, written by the same
#    profile run).
# The same script regenerates COVERAGE_10.json (which replaced the
# pre-expression-kernel COVERAGE_6.json report).
# After regenerating, each fresh perf report is gated against the
# committed baseline with `tpcds-bench compare` — a throughput drop (or
# latency rise) past BENCH_TOLERANCE fails the script — and the coverage
# report is gated on fallbacks: a template that ran fallback-free in the
# committed report and no longer does fails the script, as does the
# fallback-free template count dropping under MIN_COLUMNAR. Exits
# non-zero on any answer mismatch, perf regression, or coverage
# regression.
#
# Knobs:
#   TPCDS_THREADS      morsel worker count (default: available_parallelism)
#   BENCH_JOIN_SCALE   scale factor for every report (default 0.01)
#   BENCH_PROFILE_OUT  BENCH_4 output path (default BENCH_4.json)
#   BENCH_SORT_OUT     BENCH_5 output path (default BENCH_5.json)
#   BENCH_COVERAGE_OUT COVERAGE_10 output path (default COVERAGE_10.json)
#   MIN_COLUMNAR       fallback-free template floor for the coverage gate
#                      (default 28, the committed report's count)
#   BENCH_SERVE_OUT    BENCH_7 output path (default BENCH_7.json)
#   BENCH_SYNTH_OUT    COVERAGE_8 output path (default COVERAGE_8.json)
#   BENCH_OBS_OUT      BENCH_9 output path (default BENCH_9.json)
#   OBS_TOLERANCE      observer-overhead budget (default 0.05)
#   BENCH_EXPR_OUT     BENCH_10 output path (default BENCH_10.json)
#   EXPR_MIN_SPEEDUP   expression-kernel speedup floor (default 3.0)
#   SYNTH_BUDGET       synthesized queries per soak (default 500)
#   SYNTH_TOLERANCE    columnar_frac slack for the COVERAGE_8 gate
#                      (default 0.05; mismatches are never tolerated)
#   BENCH_TOLERANCE    relative regression slack for the gate (default 0.5 —
#                      generous, CI machines are noisy; tighten locally)
#   BENCH_SERVE_TOLERANCE  slack for the BENCH_7 gate (default 1.0 — tail
#                      latencies under 16-way contention are the noisiest
#                      numbers in the suite)
set -eux

export CARGO_NET_OFFLINE=true

TOLERANCE="${BENCH_TOLERANCE:-0.5}"
OUT4="${BENCH_PROFILE_OUT:-BENCH_4.json}"
OUT5="${BENCH_SORT_OUT:-BENCH_5.json}"
OUT6="${BENCH_COVERAGE_OUT:-COVERAGE_10.json}"
OUT7="${BENCH_SERVE_OUT:-BENCH_7.json}"
OUT8="${BENCH_SYNTH_OUT:-COVERAGE_8.json}"
OUT9="${BENCH_OBS_OUT:-BENCH_9.json}"
OUT10="${BENCH_EXPR_OUT:-BENCH_10.json}"
SERVE_TOLERANCE="${BENCH_SERVE_TOLERANCE:-1.0}"
SYNTH_TOLERANCE="${SYNTH_TOLERANCE:-0.05}"

cargo build --release -p tpcds-bench --bin tpcds-bench

# Snapshot committed baselines before the fresh runs overwrite them.
for f in "$OUT4" "$OUT5" "$OUT6" "$OUT7" "$OUT8" "$OUT10"; do
    if [ -f "$f" ]; then
        cp "$f" "$f.baseline"
    fi
done

# profile also measures observer overhead (BENCH_9, gated inline at
# OBS_TOLERANCE) and the expression-kernel microbench (BENCH_10, gated
# inline at EXPR_MIN_SPEEDUP vs the interpreted row path).
./target/release/tpcds-bench profile \
    --scale "${BENCH_JOIN_SCALE:-0.01}" \
    --out "$OUT4" \
    --sort-out "$OUT5" \
    --obs-out "$OUT9" \
    --obs-tolerance "${OBS_TOLERANCE:-0.05}" \
    --expr-out "$OUT10" \
    --expr-min-speedup "${EXPR_MIN_SPEEDUP:-3.0}"
./target/release/tpcds-bench serve \
    --scale "${BENCH_JOIN_SCALE:-0.01}" \
    --out "$OUT7"

# Regression gate: fresh numbers vs the committed baselines.
status=0
for f in "$OUT4" "$OUT5" "$OUT10"; do
    if [ -f "$f.baseline" ]; then
        ./target/release/tpcds-bench compare "$f.baseline" "$f" \
            --tolerance "$TOLERANCE" || status=1
        rm -f "$f.baseline"
    fi
done
# The client/server report gates with its own (wider) tolerance.
if [ -f "$OUT7.baseline" ]; then
    ./target/release/tpcds-bench compare "$OUT7.baseline" "$OUT7" \
        --tolerance "$SERVE_TOLERANCE" || status=1
    rm -f "$OUT7.baseline"
fi

# Routing coverage over all 99 templates, gated on the committed
# fallback-free set (no tolerance — routing is deterministic).
if [ -f "$OUT6.baseline" ]; then
    ./target/release/tpcds-bench coverage \
        --scale "${BENCH_JOIN_SCALE:-0.01}" \
        --out "$OUT6" --baseline "$OUT6.baseline" \
        --min-columnar "${MIN_COLUMNAR:-28}" || status=1
    rm -f "$OUT6.baseline"
else
    ./target/release/tpcds-bench coverage \
        --scale "${BENCH_JOIN_SCALE:-0.01}" \
        --out "$OUT6" \
        --min-columnar "${MIN_COLUMNAR:-28}" || status=1
fi

# Synthesized-workload soak + per-shape-class coverage gate: a fixed
# default seed keeps the generated queries (and so the routing report)
# stable across runs; export TPCDS_TEST_SEED to explore, or replay a CI
# failure. Mismatches always fail; the baseline gate additionally fails
# on a class vanishing or its columnar fraction regressing.
if [ -f "$OUT8.baseline" ]; then
    ./target/release/tpcds-bench synth \
        --scale "${BENCH_JOIN_SCALE:-0.01}" \
        --queries "${SYNTH_BUDGET:-500}" \
        --out "$OUT8" --baseline "$OUT8.baseline" \
        --tolerance "$SYNTH_TOLERANCE" \
        --fail-dir synth_failures || status=1
    rm -f "$OUT8.baseline"
else
    ./target/release/tpcds-bench synth \
        --scale "${BENCH_JOIN_SCALE:-0.01}" \
        --queries "${SYNTH_BUDGET:-500}" \
        --out "$OUT8" \
        --fail-dir synth_failures || status=1
fi
exit "$status"
