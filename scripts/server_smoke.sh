#!/usr/bin/env sh
# End-to-end smoke of the client/server subsystem, as CI runs it:
#  1. boot `tpcds serve` (SF 0.005) with the Prometheus endpoint on;
#  2. drive it with scripted `tpcds client` calls: ping, a plain query,
#     a snapshot-pinned query, explain, stats;
#  3. scrape /metrics and require the server.* gauges, snapshot.* and
#     engine.kernel.* series to be present, and no per-worker span;
#  4. shut it down over the wire and check the process exits cleanly.
#
# Knobs:
#   SERVE_ADDR    server bind address  (default 127.0.0.1:9955)
#   METRICS_ADDR  metrics bind address (default 127.0.0.1:9956)
set -eux

export CARGO_NET_OFFLINE=true

ADDR="${SERVE_ADDR:-127.0.0.1:9955}"
METRICS="${METRICS_ADDR:-127.0.0.1:9956}"
TPCDS=./target/release/tpcds

cargo build --release -p tpcds-cli

"$TPCDS" serve --scale 0.005 --addr "$ADDR" --metrics-addr "$METRICS" \
    >server_smoke.log 2>&1 &
SERVER_PID=$!
trap 'kill "$SERVER_PID" 2>/dev/null || true' EXIT

# Wait for the server to come up (the load takes a few seconds).
for _ in $(seq 1 120); do
    if "$TPCDS" client --addr "$ADDR" --ping >/dev/null 2>&1; then
        break
    fi
    sleep 1
done
"$TPCDS" client --addr "$ADDR" --ping

# A query against the head snapshot, and the version it ran at.
"$TPCDS" client --addr "$ADDR" --sql 'select count(*) c from store_sales' \
    | tee /dev/stderr | grep -q 'rows from snapshot v'

# Pin the current version explicitly and read it again.
VERSION=$("$TPCDS" client --addr "$ADDR" --sql 'select 1' \
    | sed -n 's/.*snapshot v\([0-9]*\).*/\1/p')
"$TPCDS" client --addr "$ADDR" --pin "$VERSION" \
    --sql 'select count(*) c from item' | grep -q "snapshot v$VERSION"

# Plans and server stats over the wire.
"$TPCDS" client --addr "$ADDR" --explain \
    --sql 'select d_year, count(*) from date_dim group by d_year' \
    | grep -q 'Scan date_dim'
"$TPCDS" client --addr "$ADDR" --stats | grep -q '"sessions_active"'

# Introspection over the wire: a client-assigned query_id must round-trip
# through the server and come back out of sys.query_log with a real
# (non-zero) wall time, and sys.sessions must show live connections.
"$TPCDS" client --addr "$ADDR" --query-id smoke-q1 \
    --sql 'select count(*) c from store_sales' \
    | grep -q 'query_id smoke-q1'
SESSIONS=$("$TPCDS" client --addr "$ADDR" \
    --sql 'select count(*) c from sys.sessions' \
    | sed -n '3s/^ *\([0-9][0-9]*\).*/\1/p')
test "$SESSIONS" -ge 1
LOGGED=$("$TPCDS" client --addr "$ADDR" \
    --sql "select wall_us from sys.query_log where query_id = 'smoke-q1'" \
    | sed -n '3s/^ *\([0-9][0-9]*\).*/\1/p')
test "$LOGGED" -gt 0
# The acceptance query shape, and the live-view CLI built on the same
# tables.
"$TPCDS" client --addr "$ADDR" \
    --sql 'select * from sys.query_log order by wall_us desc limit 5' \
    | grep -q 'smoke-q1'
"$TPCDS" top --addr "$ADDR" --once | grep -q 'SESSIONS'

# The Prometheus endpoint exports the server, snapshot and engine series
# (names are prefixed `tpcds_` and dots become underscores). The kernel
# counters, computed from each statement's profile, need no flag beyond
# --metrics-addr; the kernels themselves expose no per-worker series.
METRICS_OUT=$(curl -sf "http://$METRICS/metrics")
echo "$METRICS_OUT" | grep -q '^tpcds_server_sessions_active'
echo "$METRICS_OUT" | grep -q '^tpcds_server_queries_inflight'
echo "$METRICS_OUT" | grep -q '^tpcds_server_admission_wait_us'
echo "$METRICS_OUT" | grep -q '^tpcds_server_queries_total'
echo "$METRICS_OUT" | grep -q '^tpcds_snapshot_version'
echo "$METRICS_OUT" | grep -q '^tpcds_engine_kernel_rows_in'
if echo "$METRICS_OUT" | grep -q 'worker_us_'; then
    echo "per-worker span series still exposed" >&2
    exit 1
fi

# Clean shutdown over the wire: the serve process must exit by itself.
"$TPCDS" client --addr "$ADDR" --shutdown
for _ in $(seq 1 30); do
    if ! kill -0 "$SERVER_PID" 2>/dev/null; then
        break
    fi
    sleep 1
done
if kill -0 "$SERVER_PID" 2>/dev/null; then
    echo "server did not exit after shutdown" >&2
    exit 1
fi
trap - EXIT
grep -q 'server stopped' server_smoke.log
echo "server smoke OK"
