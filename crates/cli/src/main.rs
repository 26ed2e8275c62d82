//! The `tpcds` command-line toolkit — the ergonomic equivalents of the
//! TPC-DS kit's tools, built on this repository's crates:
//!
//! * `tpcds dsdgen`  — generate flat files (dsdgen)
//! * `tpcds dsqgen`  — generate query streams (dsqgen)
//! * `tpcds run`     — run the full benchmark and print the metric
//! * `tpcds query`   — load a data set and execute one query or SQL file
//! * `tpcds explain` — show a query's plan, optionally with actuals
//! * `tpcds shell`   — interactive SQL shell over a generated data set
//! * `tpcds schema`  — print the schema (DDL-ish) and statistics
//! * `tpcds serve`   — serve a loaded data set over TCP
//! * `tpcds client`  — query a running `tpcds serve`
//! * `tpcds top`     — live sessions/queries view of a running server
//! * `tpcds synth`   — soak a synthesized workload through the differential

mod commands;

use std::process::ExitCode;

// Count every allocation so EXPLAIN ANALYZE and `sys.query_log` can
// attribute memory (`mem_peak=`, `build_bytes=`). Library users are
// unaffected; only this binary pays the two-atomic-add cost.
#[global_allocator]
static ALLOC: tpcds_obs::mem::CountingAlloc = tpcds_obs::mem::CountingAlloc;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let (cmd, rest) = match args.split_first() {
        Some((c, r)) => (c.as_str(), r),
        None => {
            eprintln!("{}", usage());
            return ExitCode::FAILURE;
        }
    };
    let result = match cmd {
        "dsdgen" => commands::dsdgen(rest),
        "dsqgen" => commands::dsqgen(rest),
        "run" => commands::run(rest),
        "query" => commands::query(rest),
        "explain" => commands::explain(rest),
        "shell" => commands::shell(rest),
        "schema" => commands::schema(rest),
        "profile" => commands::profile(rest),
        "serve" => commands::serve(rest),
        "client" => commands::client(rest),
        "top" => commands::top(rest),
        "synth" => commands::synth(rest),
        "help" | "--help" | "-h" => {
            println!("{}", usage());
            Ok(())
        }
        other => Err(format!("unknown command {other:?}\n{}", usage())),
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}

fn usage() -> &'static str {
    "tpcds — TPC-DS reproduction toolkit

USAGE:
    tpcds dsdgen  [--scale SF] [--dir DIR] [--table NAME] [--parallel N]
    tpcds dsqgen  [--scale SF] [--streams N] [--query ID] [--dir DIR]
    tpcds run     [--scale SF] [--streams N] [--queries N] [--threads N] [--no-aux] [--via-server] [--json] [--metrics-addr HOST:PORT]
    tpcds query   [--scale SF] (--id QUERY_ID | --sql 'SELECT ...') [--explain]
    tpcds explain [--scale SF] (--id QUERY_ID | --sql 'SELECT ...') [--analyze]
    tpcds shell   [--scale SF]
    tpcds schema  [--stats | --dot | --ddl]
    tpcds profile [--scale SF] [--table NAME] [--limit N]
    tpcds serve   [--scale SF] [--addr HOST:PORT] [--max-queries N] [--idle-timeout SECS] [--slow-query-ms MS] [--no-aux] [--metrics-addr HOST:PORT]
    tpcds client  [--addr HOST:PORT] (--sql 'SELECT ...' [--pin VERSION] [--query-id ID] [--explain] | --ping | --stats | --shutdown)
    tpcds top     [--addr HOST:PORT] [--interval-ms MS] [--once]
    tpcds synth   [--scale SF] [--queries N] [--streams N] [--seed S] [--dm N] [--via-server]

Scale factors are GB of raw data; fractional values (default 0.01)
generate laptop-sized miniatures with the same shape.

--json prints the run's record: phase times, the metric, every query's
time, and each maintenance operation's rows, wall time and commit.

--metrics-addr HOST:PORT serves live Prometheus metrics (counters and
latency histograms) at http://HOST:PORT/metrics for the life of the
run.

The server exposes its own state as SQL: `sys.sessions`, `sys.queries`,
`sys.query_log`, `sys.counters`, `sys.gauges`, `sys.histograms` and
`sys.snapshots` answer to ordinary queries in-process and over the wire
(`tpcds client --sql 'select * from sys.query_log order by wall_us desc
limit 5'`); `tpcds top` polls them. --slow-query-ms MS re-describes
queries at or over the threshold on stderr at EXPLAIN ANALYZE detail.
See docs/OBSERVABILITY.md.

--threads N sets the morsel worker count for columnar scans (also via
the TPCDS_THREADS environment variable; default available_parallelism)."
}
