//! `tpcds-bench` — the profiling and regression-gate front end:
//!
//! * `tpcds-bench profile [--scale SF] [--out BENCH_4.json]
//!   [--sort-out BENCH_5.json] [--queries-per-class N]` — measures the
//!   columnar join microbench (build / join / join_agg sections) plus
//!   histogram-derived per-query-class latencies and process memory,
//!   writing one JSON report; the sort/Top-N microbench (the
//!   `ORDER BY … LIMIT 100` template tail vs the serial row sort) is
//!   written separately to the `--sort-out` report, and the observer
//!   overhead (the same query mix with the per-query log + metrics
//!   registry on vs off) to the `--obs-out` report, gated inline at
//!   `--obs-tolerance` (default 5%);
//! * `tpcds-bench compare OLD.json NEW.json [--tolerance 0.15]` — diffs
//!   two reports over their intersecting metrics and exits non-zero when
//!   any throughput dropped (or latency rose) past the tolerance — the
//!   CI perf-regression gate;
//! * `tpcds-bench coverage [--scale SF] [--out COVERAGE_10.json]
//!   [--baseline FILE] [--min-columnar N]` — runs all 99 templates under
//!   pinned default options and writes, per template, the fraction of
//!   operator output rows produced by batch operators, whether the plan
//!   ran fallback-free (no operator dropped to the serial interpreter),
//!   every fallback reason code, and cardinality q-error quantiles; with
//!   `--baseline` it exits non-zero when a template that was
//!   fallback-free in the committed report no longer is, and
//!   `--min-columnar` adds an absolute floor on the fallback-free
//!   template count — the CI routing-coverage gate. The profile
//!   run additionally writes the expression-kernel microbench (computed
//!   projection / expression sort key / residual join vs the interpreted
//!   row path) to `--expr-out`, gated inline at `--expr-min-speedup`.

use std::time::Instant;
use tpcds_bench::compare;
use tpcds_core::engine::{self, ColumnarMode, ExecOptions};
use tpcds_core::obs::hist::HistSnapshot;
use tpcds_core::obs::json::Json;
use tpcds_core::qgen::QueryClass;
use tpcds_core::{TpcDs, Workload};

// Count allocations so the profile report can include real peak-memory
// numbers (same wrapper the `tpcds` binary installs).
#[global_allocator]
static ALLOC: tpcds_core::obs::mem::CountingAlloc = tpcds_core::obs::mem::CountingAlloc;

const USAGE: &str = "usage:
  tpcds-bench profile [--scale SF] [--out BENCH_4.json] [--sort-out BENCH_5.json]
                      [--obs-out BENCH_9.json] [--obs-tolerance 0.05] [--queries-per-class N]
                      [--expr-out BENCH_10.json] [--expr-min-speedup 3.0]
  tpcds-bench compare OLD.json NEW.json [--tolerance 0.15]
  tpcds-bench coverage [--scale SF] [--out COVERAGE_10.json] [--baseline FILE]
                       [--min-columnar N]
  tpcds-bench serve [--scale SF] [--queries N] [--out BENCH_7.json]
  tpcds-bench synth [--scale SF] [--queries N] [--streams N] [--seed S] [--dm N]
                    [--via-server] [--out COVERAGE_8.json] [--baseline FILE]
                    [--tolerance 0.05] [--fail-dir DIR]";

const JOIN_SQL: &str = "select ss_item_sk, ss_ticket_number, d_year \
     from store_sales, date_dim where ss_sold_date_sk = d_date_sk and ss_quantity > 10";
const JOIN_AGG_SQL: &str = "select d_year, count(*), sum(ss_ext_sales_price) \
     from store_sales, date_dim where ss_sold_date_sk = d_date_sk group by d_year";
const BUILD_SQL: &str = "select d_year from store_sales, date_dim \
     where ss_sold_date_sk = d_date_sk and ss_sold_date_sk < 0";

/// The template tail every qgen query ends in: `ORDER BY … LIMIT 100`.
/// `(ss_item_sk, ss_ticket_number)` is the fact table's primary key, so
/// the answer is fully determined and the paths must agree byte-for-byte.
const TOPN_SQL: &str = "select ss_item_sk, ss_ticket_number, ss_net_paid from store_sales \
     order by ss_net_paid desc, ss_item_sk, ss_ticket_number limit 100";
/// Full ORDER BY without a limit: integer keys, so the parallel sort runs
/// on the encoded-key fast path end to end.
const SORT_SQL: &str = "select ss_sold_date_sk, ss_item_sk, ss_ticket_number from store_sales \
     order by ss_sold_date_sk, ss_item_sk, ss_ticket_number";

/// Computed SELECT list (arithmetic + CASE) fused into the scan — the
/// shape that used to drop the whole query to the serial row projector.
/// Runs over `date_dim` (73049 static rows at every scale factor), so the
/// per-row interpreter cost being vectorized away dominates the timing
/// instead of fixed query overhead.
const PROJECT_EXPR_SQL: &str = "select d_date_sk, \
     d_year * 100 + d_moy, \
     case when d_dow < 3 then d_year + 1 else d_year - 1 end \
     from date_dim";
/// Expression ORDER BY key (a hidden computed projection under the TopN);
/// the primary-key tie-break pins the answer byte-for-byte.
const SORT_EXPR_SQL: &str = "select d_date_sk from date_dim \
     order by case when d_dow < 3 then d_year * 12 + d_moy \
     else -(d_year * 12 + d_moy) end desc, d_date_sk limit 100";
/// Non-equi residual over both sides, evaluated inside the partitioned
/// hash-join probe loop (used to be the `residual` serial fallback).
const RESIDUAL_JOIN_SQL: &str = "select ss_item_sk, d_year from store_sales \
     join date_dim on ss_sold_date_sk = d_date_sk and ss_quantity + d_dow > 10";

fn flag(args: &[String], name: &str) -> Option<String> {
    args.iter()
        .position(|a| a == name)
        .and_then(|i| args.get(i + 1))
        .cloned()
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let code = match args.split_first() {
        Some((sub, rest)) if sub == "compare" => cmd_compare(rest),
        Some((sub, rest)) if sub == "profile" => cmd_profile(rest),
        Some((sub, rest)) if sub == "coverage" => cmd_coverage(rest),
        Some((sub, rest)) if sub == "serve" => cmd_serve(rest),
        Some((sub, rest)) if sub == "synth" => cmd_synth(rest),
        _ => {
            eprintln!("{USAGE}");
            2
        }
    };
    std::process::exit(code);
}

fn cmd_compare(args: &[String]) -> i32 {
    // Positionals: skip flag names and the value following each one.
    let files: Vec<&String> = args
        .iter()
        .enumerate()
        .filter(|(i, a)| {
            let follows_flag = *i > 0 && args[i - 1].starts_with("--");
            !a.starts_with("--") && !follows_flag
        })
        .map(|(_, a)| a)
        .collect();
    let tolerance: f64 = match flag(args, "--tolerance") {
        None => 0.15,
        Some(v) => match v.parse() {
            Ok(t) => t,
            Err(_) => {
                eprintln!("bad --tolerance {v:?}");
                return 2;
            }
        },
    };
    let (old_path, new_path) = match files.as_slice() {
        [a, b] => (a.as_str(), b.as_str()),
        _ => {
            eprintln!("{USAGE}");
            return 2;
        }
    };
    let load = |path: &str| -> Result<Json, String> {
        let text = std::fs::read_to_string(path).map_err(|e| format!("read {path:?}: {e}"))?;
        Json::parse(&text).map_err(|e| format!("parse {path:?}: {e}"))
    };
    let (old, new) = match (load(old_path), load(new_path)) {
        (Ok(o), Ok(n)) => (o, n),
        (Err(e), _) | (_, Err(e)) => {
            eprintln!("error: {e}");
            return 2;
        }
    };
    let report = compare::compare(&old, &new, tolerance);
    print!("{}", report.render());
    if report.rows.is_empty() {
        eprintln!("warning: no comparable metrics between {old_path} and {new_path}");
    }
    if report.regressions > 0 {
        1
    } else {
        0
    }
}

fn class_key(c: QueryClass) -> &'static str {
    match c {
        QueryClass::AdHoc => "adhoc",
        QueryClass::Reporting => "reporting",
        QueryClass::Hybrid => "hybrid",
        QueryClass::IterativeOlap => "iterative",
        QueryClass::DataMining => "mining",
    }
}

/// Median wall-clock of `iters` runs, seconds.
fn time_query(db: &tpcds_core::Database, sql: &str, o: ExecOptions, iters: usize) -> f64 {
    let _ = engine::query_with(db, sql, o).expect("warmup");
    let mut secs: Vec<f64> = (0..iters)
        .map(|_| {
            let t = Instant::now();
            let r = engine::query_with(db, sql, o).expect("bench query");
            std::hint::black_box(r.rows.len());
            t.elapsed().as_secs_f64()
        })
        .collect();
    secs.sort_by(|a, b| a.total_cmp(b));
    secs[secs.len() / 2]
}

fn rate_obj(db: &tpcds_core::Database, sql: &str, basis_rows: f64, threads: usize) -> Json {
    let iters = 5;
    let o = |mode, t| ExecOptions {
        columnar: mode,
        threads: Some(t),
    };
    let serial = time_query(db, sql, o(ColumnarMode::Off, 1), iters);
    let col1 = time_query(db, sql, o(ColumnarMode::Force, 1), iters);
    let coln = time_query(db, sql, o(ColumnarMode::Force, threads), iters);
    let rps = |s: f64| basis_rows / s.max(1e-9);
    Json::Obj(vec![
        ("serial_row_rows_per_s".into(), Json::Float(rps(serial))),
        ("columnar_1t_rows_per_s".into(), Json::Float(rps(col1))),
        ("columnar_nt_rows_per_s".into(), Json::Float(rps(coln))),
        (
            "speedup_nt_vs_row".into(),
            Json::Float(serial / coln.max(1e-9)),
        ),
    ])
}

fn cmd_profile(args: &[String]) -> i32 {
    let sf: f64 = flag(args, "--scale")
        .map(|v| v.parse().expect("bad --scale"))
        .unwrap_or(0.01);
    let out_path = flag(args, "--out").unwrap_or_else(|| "BENCH_4.json".to_string());
    let sort_out_path = flag(args, "--sort-out").unwrap_or_else(|| "BENCH_5.json".to_string());
    let per_class: usize = flag(args, "--queries-per-class")
        .map(|v| v.parse().expect("bad --queries-per-class"))
        .unwrap_or(usize::MAX);
    let threads = tpcds_core::storage::effective_threads();

    eprintln!("loading TPC-DS at SF {sf} ({threads} morsel workers)...");
    let tpcds = TpcDs::builder()
        .scale_factor(sf)
        .reporting_aux(true)
        .build()
        .expect("load");
    let workload = Workload::tpcds().expect("workload");
    let db = tpcds.database();
    let fact_rows = db.row_count("store_sales") as f64;
    let dim_rows = db.row_count("date_dim") as f64;

    // ---- Join microbench ----
    let build = rate_obj(db, BUILD_SQL, dim_rows, threads);
    let join = rate_obj(db, JOIN_SQL, fact_rows, threads);
    let join_agg = rate_obj(db, JOIN_AGG_SQL, fact_rows, threads);

    // ---- Sort/Top-N microbench (BENCH_5) ----
    // Guard: both queries must actually route through the parallel
    // kernels under Force, and agree byte-for-byte with the serial row
    // sort — a benchmark of the wrong code path is worse than none.
    let o = |mode, t| ExecOptions {
        columnar: mode,
        threads: Some(t),
    };
    let mut broken = false;
    for (name, sql, marker) in [
        ("topn", TOPN_SQL, "heap_rows="),
        ("sort", SORT_SQL, "merge_ways="),
    ] {
        let analyzed =
            engine::query_analyze_with(db, sql, o(ColumnarMode::Force, threads)).expect(name);
        if !analyzed.plan_text.contains(marker) {
            eprintln!(
                "{name}: fell back to the serial sort:\n{}",
                analyzed.plan_text
            );
            broken = true;
        }
        let row = engine::query_with(db, sql, o(ColumnarMode::Off, 1)).expect(name);
        if row.rows != analyzed.result.rows {
            eprintln!("{name}: parallel answer diverges from the row-path sort");
            broken = true;
        }
    }
    let topn = rate_obj(db, TOPN_SQL, fact_rows, threads);
    let sort = rate_obj(db, SORT_SQL, fact_rows, threads);
    let sort_report = Json::Obj(vec![
        ("scale_factor".into(), Json::Float(sf)),
        ("threads".into(), Json::Int(threads as i64)),
        ("store_sales_rows".into(), Json::Int(fact_rows as i64)),
        ("topn".into(), topn),
        ("sort".into(), sort),
    ]);
    std::fs::write(&sort_out_path, format!("{sort_report}\n")).expect("write sort report");
    println!("wrote {sort_out_path}");
    if broken {
        return 1;
    }

    // ---- Expression-kernel microbench (BENCH_10) ----
    // The three consumer shapes this vectorization retired from the
    // serial fallback: computed projections, expression ORDER BY keys and
    // residual join predicates. Same discipline as BENCH_5: each query
    // must show its kernel markers under Force and agree byte-for-byte
    // with the row path, and the 8-worker speedup over the interpreted
    // row path is gated inline.
    let expr_out = flag(args, "--expr-out").unwrap_or_else(|| "BENCH_10.json".to_string());
    let expr_min_speedup: f64 = flag(args, "--expr-min-speedup")
        .map(|v| v.parse().expect("bad --expr-min-speedup"))
        .unwrap_or(3.0);
    let expr_workers = 8usize;
    let mut expr_failed = false;
    let mut expr_sections: Vec<(String, Json)> = Vec::new();
    for (name, sql, basis, markers) in [
        (
            "computed_project",
            PROJECT_EXPR_SQL,
            dim_rows,
            &["expr_kernels=", "morsels="][..],
        ),
        (
            "expr_sort",
            SORT_EXPR_SQL,
            dim_rows,
            &["expr_kernels=", "heap_rows="],
        ),
        (
            "residual_join",
            RESIDUAL_JOIN_SQL,
            fact_rows,
            &["build_rows="],
        ),
    ] {
        let analyzed =
            engine::query_analyze_with(db, sql, o(ColumnarMode::Force, expr_workers)).expect(name);
        for m in markers {
            if !analyzed.plan_text.contains(m) {
                eprintln!(
                    "{name}: missing {m} — fell off the kernel path:\n{}",
                    analyzed.plan_text
                );
                expr_failed = true;
            }
        }
        let row = engine::query_with(db, sql, o(ColumnarMode::Off, 1)).expect(name);
        if row.rows != analyzed.result.rows {
            eprintln!("{name}: kernel answer diverges from the row path");
            expr_failed = true;
        }
        let rates = rate_obj(db, sql, basis, expr_workers);
        let speedup = rates
            .get("speedup_nt_vs_row")
            .and_then(|s| s.as_f64())
            .unwrap_or(0.0);
        eprintln!("{name:<17} {speedup:>6.2}x vs serial row path ({expr_workers} workers)");
        if speedup < expr_min_speedup {
            eprintln!("{name}: speedup {speedup:.2}x below the {expr_min_speedup:.1}x floor");
            expr_failed = true;
        }
        expr_sections.push((name.to_string(), rates));
    }
    let mut expr_fields = vec![
        ("scale_factor".into(), Json::Float(sf)),
        ("threads".into(), Json::Int(expr_workers as i64)),
        ("store_sales_rows".into(), Json::Int(fact_rows as i64)),
        ("min_speedup".into(), Json::Float(expr_min_speedup)),
    ];
    expr_fields.extend(expr_sections);
    let expr_report = Json::Obj(expr_fields);
    std::fs::write(&expr_out, format!("{expr_report}\n")).expect("write expr report");
    println!("wrote {expr_out}");
    if expr_failed {
        return 1;
    }

    // ---- Per-class latency histograms ----
    let seed = tpcds_types::rng::DEFAULT_SEED;
    let mut classes: Vec<(String, Json)> = Vec::new();
    for class in [
        QueryClass::AdHoc,
        QueryClass::Reporting,
        QueryClass::Hybrid,
        QueryClass::IterativeOlap,
        QueryClass::DataMining,
    ] {
        let mut hist = HistSnapshot::new();
        for t in workload.by_class(class).into_iter().take(per_class) {
            let sql = workload.instantiate(t.id, seed, 0).expect("instantiate");
            let started = Instant::now();
            let r = tpcds.query(&sql).expect("class query");
            std::hint::black_box(r.rows.len());
            hist.record(started.elapsed().as_micros() as u64);
        }
        eprintln!(
            "{:<10} {:>3} queries  p50 {:>9.3}ms  p95 {:>9.3}ms",
            class_key(class),
            hist.count,
            hist.percentile(50.0) as f64 / 1e3,
            hist.percentile(95.0) as f64 / 1e3,
        );
        classes.push((
            class_key(class).to_string(),
            Json::Obj(vec![
                ("queries".into(), Json::Int(hist.count as i64)),
                ("p50_us".into(), Json::Int(hist.percentile(50.0) as i64)),
                ("p95_us".into(), Json::Int(hist.percentile(95.0) as i64)),
                ("max_us".into(), Json::Int(hist.max() as i64)),
                ("total_us".into(), Json::Int(hist.sum as i64)),
            ]),
        ));
    }

    // ---- Observer overhead (BENCH_9): query log + metrics on vs off ----
    // The introspection subsystem must be cheap enough to leave on: run
    // the same short query mix with the per-query log and the metrics
    // registry enabled and disabled, and gate the throughput delta.
    let obs_out = flag(args, "--obs-out").unwrap_or_else(|| "BENCH_9.json".to_string());
    let obs_tolerance: f64 = flag(args, "--obs-tolerance")
        .map(|v| v.parse().expect("bad --obs-tolerance"))
        .unwrap_or(0.05);
    let obs_sqls = [
        "select d_year from date_dim where d_date_sk = 2450815",
        "select count(*) from date_dim where d_year = 1999",
        "select d_dow, count(*) from date_dim group by d_dow order by d_dow",
    ];
    let obs_iters = 40usize;
    let obs_round = |on: bool| -> f64 {
        db.query_log().set_enabled(on);
        if on {
            tpcds_core::obs::metrics::enable();
        } else {
            tpcds_core::obs::metrics::disable();
        }
        let t = Instant::now();
        for _ in 0..obs_iters {
            for sql in obs_sqls {
                let r = engine::query(db, sql).expect("obs query");
                std::hint::black_box(r.rows.len());
            }
        }
        (obs_iters * obs_sqls.len()) as f64 / t.elapsed().as_secs_f64().max(1e-9)
    };
    // Warm both paths, then alternate rounds and keep medians so a cache
    // or frequency wobble can't land entirely on one side.
    let _ = (obs_round(false), obs_round(true));
    let rounds = 5;
    let mut off_qps: Vec<f64> = Vec::new();
    let mut on_qps: Vec<f64> = Vec::new();
    for _ in 0..rounds {
        off_qps.push(obs_round(false));
        on_qps.push(obs_round(true));
    }
    tpcds_core::obs::metrics::disable();
    db.query_log().set_enabled(true);
    let median = |v: &mut Vec<f64>| {
        v.sort_by(|a, b| a.total_cmp(b));
        v[v.len() / 2]
    };
    let (off, on) = (median(&mut off_qps), median(&mut on_qps));
    let overhead = (off - on) / off.max(1e-9);
    eprintln!(
        "observers: {off:.0} qps off, {on:.0} qps on ({:.2}% overhead)",
        overhead * 100.0
    );
    let obs_report = Json::Obj(vec![
        ("bench".into(), Json::Str("observer_overhead".into())),
        ("scale_factor".into(), Json::Float(sf)),
        (
            "queries_per_round".into(),
            Json::Int((obs_iters * obs_sqls.len()) as i64),
        ),
        ("rounds".into(), Json::Int(rounds as i64)),
        ("off_qps".into(), Json::Float(off)),
        ("on_qps".into(), Json::Float(on)),
        ("overhead_frac".into(), Json::Float(overhead)),
        ("tolerance".into(), Json::Float(obs_tolerance)),
    ]);
    std::fs::write(&obs_out, format!("{obs_report}\n")).expect("write observer report");
    println!("wrote {obs_out}");
    // The on-vs-off comparison happens within one run, so the gate lives
    // here rather than in a `compare` pass against a committed baseline.
    let obs_failed = overhead > obs_tolerance;
    if obs_failed {
        eprintln!(
            "observer overhead {:.2}% exceeds the {:.1}% budget",
            overhead * 100.0,
            obs_tolerance * 100.0
        );
    }

    let mem = Json::Obj(vec![
        (
            "peak_bytes".into(),
            Json::Int(tpcds_core::obs::mem::peak_bytes() as i64),
        ),
        (
            "live_bytes".into(),
            Json::Int(tpcds_core::obs::mem::live_bytes() as i64),
        ),
        (
            "allocations".into(),
            Json::Int(tpcds_core::obs::mem::allocations() as i64),
        ),
    ]);

    let report = Json::Obj(vec![
        ("scale_factor".into(), Json::Float(sf)),
        ("threads".into(), Json::Int(threads as i64)),
        ("store_sales_rows".into(), Json::Int(fact_rows as i64)),
        ("date_dim_rows".into(), Json::Int(dim_rows as i64)),
        ("build".into(), build),
        ("join".into(), join),
        ("join_agg".into(), join_agg),
        ("classes".into(), Json::Obj(classes)),
        ("mem".into(), mem),
    ]);
    std::fs::write(&out_path, format!("{report}\n")).expect("write report");
    println!("wrote {out_path}");
    if obs_failed {
        1
    } else {
        0
    }
}

fn cmd_coverage(args: &[String]) -> i32 {
    let sf: f64 = flag(args, "--scale")
        .map(|v| v.parse().expect("bad --scale"))
        .unwrap_or(0.01);
    let out_path = flag(args, "--out").unwrap_or_else(|| "COVERAGE_10.json".to_string());
    let baseline_path = flag(args, "--baseline");
    let min_columnar: Option<i64> =
        flag(args, "--min-columnar").map(|v| v.parse().expect("bad --min-columnar"));
    // Pinned options: the report is a routing contract. Auto mode and the
    // machine-default worker count are what production queries run with,
    // and routing decisions don't depend on the worker count — so the
    // report is stable across CI machines.
    let opts = ExecOptions {
        columnar: ColumnarMode::Auto,
        threads: None,
    };
    let seed = tpcds_types::rng::DEFAULT_SEED;

    eprintln!("loading TPC-DS at SF {sf} for routing coverage...");
    let tpcds = TpcDs::builder()
        .scale_factor(sf)
        .reporting_aux(true)
        .build()
        .expect("load");
    let workload = Workload::tpcds().expect("workload");
    let db = tpcds.database();

    let mut templates: Vec<(String, Json)> = Vec::new();
    let mut fallback_free: Vec<u32> = Vec::new();
    let (mut all_rows, mut all_batch_rows) = (0u64, 0u64);
    for id in 1..=99u32 {
        let sql = workload.instantiate(id, seed, 0).expect("instantiate");
        let analyzed = engine::query_analyze_with(db, &sql, opts)
            .unwrap_or_else(|e| panic!("template {id}: {e}"));
        let executed = || analyzed.nodes.iter().filter(|n| n.executed);
        // Operator output rows, and the share a batch operator produced.
        let rows: u64 = executed().map(|n| n.rows).sum();
        let batch_rows: u64 = executed()
            .filter(|n| n.route == engine::RoutePath::Columnar)
            .map(|n| n.rows)
            .sum();
        let fallbacks: Vec<&str> = executed()
            .filter_map(|n| n.fallback)
            .collect::<std::collections::BTreeSet<_>>()
            .into_iter()
            .collect();
        if fallbacks.is_empty() {
            fallback_free.push(id);
        }
        all_rows += rows;
        all_batch_rows += batch_rows;
        // q-error quantiles via the log-bucketed histogram, recorded at
        // ×100 so the sub-decade resolution survives integer buckets.
        let mut qh = HistSnapshot::new();
        for n in &analyzed.nodes {
            if let Some(q) = n.qerr {
                qh.record((q * 100.0).round() as u64);
            }
        }
        let q = |p: f64| qh.percentile(p) as f64 / 100.0;
        templates.push((
            id.to_string(),
            Json::Obj(vec![
                ("fallback_free".into(), Json::Bool(fallbacks.is_empty())),
                (
                    "batch_rows_frac".into(),
                    Json::Float(batch_rows as f64 / rows.max(1) as f64),
                ),
                (
                    "fallbacks".into(),
                    Json::Arr(fallbacks.iter().map(|f| Json::Str(f.to_string())).collect()),
                ),
                ("nodes".into(), Json::Int(executed().count() as i64)),
                ("qerr_nodes".into(), Json::Int(qh.count as i64)),
                ("qerr_p50".into(), Json::Float(q(50.0))),
                ("qerr_p95".into(), Json::Float(q(95.0))),
                ("qerr_max".into(), Json::Float(qh.max() as f64 / 100.0)),
            ]),
        ));
    }
    let free = fallback_free.len() as i64;
    let frac = all_batch_rows as f64 / all_rows.max(1) as f64;
    println!("{free}/99 templates fallback-free; {frac:.3} of operator rows on the batch path");

    let report = Json::Obj(vec![
        ("scale_factor".into(), Json::Float(sf)),
        ("seed".into(), Json::Int(seed as i64)),
        ("fallback_free".into(), Json::Int(free)),
        ("batch_rows_frac".into(), Json::Float(frac)),
        ("templates".into(), Json::Obj(templates)),
    ]);
    std::fs::write(&out_path, format!("{report}\n")).expect("write coverage report");
    println!("wrote {out_path}");

    // ---- Fallback-free floor ----
    // An absolute contract independent of any baseline file: at least
    // this many of the 99 templates must run without a single operator
    // dropping to the serial interpreter.
    let mut status = 0;
    if let Some(floor) = min_columnar {
        if free < floor {
            eprintln!("only {free}/99 templates ran fallback-free (floor {floor})");
            status = 1;
        }
    }

    // ---- Regression gate: fallback-free templates stay fallback-free ----
    let Some(base_path) = baseline_path else {
        return status;
    };
    let base = match std::fs::read_to_string(&base_path)
        .map_err(|e| e.to_string())
        .and_then(|t| Json::parse(&t))
    {
        Ok(j) => j,
        Err(e) => {
            eprintln!("error: baseline {base_path}: {e}");
            return 2;
        }
    };
    for id in 1..=99u32 {
        let was_free = base
            .get("templates")
            .and_then(|t| t.get(&id.to_string()))
            .and_then(|t| t.get("fallback_free"))
            .is_some_and(|f| matches!(f, Json::Bool(true)));
        if was_free && !fallback_free.contains(&id) {
            eprintln!("template {id:>2}: no longer fallback-free");
            status = 1;
        }
    }
    if status == 0 {
        println!("every template fallback-free in {base_path} still is");
    }
    status
}

/// `tpcds-bench serve` — the BENCH_7 multi-stream client/server report:
/// loads one data set, then for 1, 4 and 16 TCP clients runs a query
/// burst through a real `tpcds-server` while data maintenance commits
/// snapshot versions mid-run. Reports a QphDS-style throughput proxy
/// (SF x queries/hour over the concurrent window), per-stream latency
/// histograms, admission configuration and snapshot-version churn.
fn cmd_serve(args: &[String]) -> i32 {
    use std::sync::Arc;
    use tpcds_core::obs::report::LatencyStats;
    use tpcds_core::server::{Client, Server, ServerConfig};

    let sf: f64 = flag(args, "--scale")
        .map(|v| v.parse().expect("bad --scale"))
        .unwrap_or(0.01);
    let per_client: usize = flag(args, "--queries")
        .map(|v| v.parse().expect("bad --queries"))
        .unwrap_or(8);
    let out_path = flag(args, "--out").unwrap_or_else(|| "BENCH_7.json".to_string());

    eprintln!("loading TPC-DS at SF {sf}...");
    let generator = tpcds_core::Generator::new(sf);
    let db = Arc::new(tpcds_core::Database::new());
    tpcds_core::maint::load_initial_population(&db, &generator).expect("load");
    tpcds_core::runner::build_reporting_aux(&db).expect("aux");
    // Keep the whole run's versions reachable for pinned reads.
    db.set_snapshot_retention(64);
    let workload = Workload::tpcds().expect("workload");
    let seed = tpcds_types::rng::DEFAULT_SEED;

    let mut runs: Vec<(String, Json)> = Vec::new();
    for (round, clients) in [1usize, 4, 16].into_iter().enumerate() {
        let server = Server::start(
            Arc::clone(&db),
            ServerConfig {
                max_concurrent_queries: clients,
                ..ServerConfig::default()
            },
        )
        .expect("server starts");
        let addr = server.local_addr();
        let version_before = db.version();
        eprintln!("round {clients}: {clients} clients x {per_client} queries + 1 DM sequence...");

        let started = Instant::now();
        // Writer: one maintenance sequence commits 12 versions mid-burst.
        let dm = {
            let db = Arc::clone(&db);
            let generator = tpcds_core::Generator::new(sf);
            let seq = round as u32;
            std::thread::spawn(move || {
                tpcds_core::maint::run_maintenance(&db, &generator, seq)
                    .expect("dm")
                    .total_rows()
            })
        };
        // Readers: one connection per stream, each with its own seeded
        // template permutation (offset per round so rounds differ).
        let streams: Vec<(Vec<u64>, Vec<u64>)> = std::thread::scope(|scope| {
            let handles: Vec<_> = (0..clients)
                .map(|s| {
                    let workload = &workload;
                    let stream_id = (round * 16 + s) as u64;
                    scope.spawn(move || {
                        let mut c = Client::connect(addr).expect("connect");
                        let mut lat_us = Vec::new();
                        let mut versions = Vec::new();
                        for id in workload
                            .stream_order(seed, stream_id)
                            .into_iter()
                            .take(per_client)
                        {
                            let sql = workload.instantiate(id, seed, stream_id).expect("sql");
                            let q = Instant::now();
                            let r = c.query(&sql).expect("query");
                            lat_us.push(q.elapsed().as_micros() as u64);
                            versions.push(r.version);
                        }
                        (lat_us, versions)
                    })
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("stream"))
                .collect()
        });
        let elapsed = started.elapsed();
        let dm_rows = dm.join().expect("dm thread");
        server.shutdown();

        let all_lat: Vec<u64> = streams
            .iter()
            .flat_map(|(l, _)| l.iter().copied())
            .collect();
        let mut versions: Vec<u64> = streams
            .iter()
            .flat_map(|(_, v)| v.iter().copied())
            .collect();
        versions.sort_unstable();
        versions.dedup();
        let total_queries = all_lat.len();
        let agg = LatencyStats::from_durations_us(all_lat);
        let per_stream: Vec<Json> = streams
            .iter()
            .enumerate()
            .map(|(s, (lat, _))| {
                let st = LatencyStats::from_durations_us(lat.clone());
                Json::Obj(vec![
                    ("stream".into(), Json::Int(s as i64)),
                    ("count".into(), Json::Int(st.count as i64)),
                    ("p50_us".into(), Json::Int(st.p50_us as i64)),
                    ("p95_us".into(), Json::Int(st.p95_us as i64)),
                    ("max_us".into(), Json::Int(st.max_us as i64)),
                ])
            })
            .collect();
        let secs = elapsed.as_secs_f64().max(1e-9);
        runs.push((
            format!("clients_{clients}"),
            Json::Obj(vec![
                ("clients".into(), Json::Int(clients as i64)),
                ("queries".into(), Json::Int(total_queries as i64)),
                ("wall_s".into(), Json::Float(secs)),
                (
                    "queries_per_s".into(),
                    Json::Float(total_queries as f64 / secs),
                ),
                // QphDS-style proxy over the concurrent window (the full
                // metric needs the complete Figure 11 phase sequence).
                (
                    "qphds_proxy".into(),
                    Json::Float(sf * total_queries as f64 * 3600.0 / secs),
                ),
                (
                    "latency".into(),
                    Json::Obj(vec![
                        ("p50_us".into(), Json::Int(agg.p50_us as i64)),
                        ("p95_us".into(), Json::Int(agg.p95_us as i64)),
                        ("max_us".into(), Json::Int(agg.max_us as i64)),
                    ]),
                ),
                ("per_stream".into(), Json::Arr(per_stream)),
                (
                    "snapshot_versions_observed".into(),
                    Json::Int(versions.len() as i64),
                ),
                (
                    "snapshot_commits".into(),
                    Json::Int((db.version() - version_before) as i64),
                ),
                ("dm_rows".into(), Json::Int(dm_rows as i64)),
            ]),
        ));
    }

    let report = Json::Obj(vec![
        ("bench".into(), Json::Str("server_multi_stream".into())),
        ("scale_factor".into(), Json::Float(sf)),
        ("queries_per_client".into(), Json::Int(per_client as i64)),
        (
            "threads".into(),
            Json::Int(tpcds_core::storage::effective_threads() as i64),
        ),
        ("runs".into(), Json::Obj(runs)),
    ]);
    std::fs::write(&out_path, format!("{report}\n")).expect("write report");
    eprintln!("wrote {out_path}");
    0
}

/// `tpcds-bench synth` — the grammar-driven differential soak and its
/// `COVERAGE_8.json` routing report: synthesizes `--queries` seeded SQL
/// queries over `--streams` concurrent streams (optionally through a real
/// TCP server) while `--dm` maintenance sequences commit mid-run, runs
/// the four-way row-vs-columnar differential on every one, shrinks any
/// mismatch to a minimal reproducer (written under `--fail-dir`), and
/// gates the per-shape-class routing report against `--baseline`.
/// The query budget defaults from `SYNTH_BUDGET` so CI legs scale it
/// without editing the workflow command.
fn cmd_synth(args: &[String]) -> i32 {
    use std::sync::Arc;
    use tpcds_core::synth::{coverage_report, gate, run_soak, SoakConfig, SynthConfig};

    let sf: f64 = flag(args, "--scale")
        .map(|v| v.parse().expect("bad --scale"))
        .unwrap_or(0.01);
    let queries: usize = flag(args, "--queries")
        .or_else(|| std::env::var("SYNTH_BUDGET").ok())
        .map(|v| v.trim().parse().expect("bad --queries / SYNTH_BUDGET"))
        .unwrap_or(500);
    let streams: usize = flag(args, "--streams")
        .map(|v| v.parse().expect("bad --streams"))
        .unwrap_or(4)
        .max(1);
    let seed: u64 = flag(args, "--seed")
        .map(|v| v.parse().expect("bad --seed"))
        .unwrap_or_else(|| tpcds_types::rng::test_seed(tpcds_types::rng::DEFAULT_SEED));
    let dm_commits: u32 = flag(args, "--dm")
        .map(|v| v.parse().expect("bad --dm"))
        .unwrap_or(1);
    let via_server = args.iter().any(|a| a == "--via-server");
    let out_path = flag(args, "--out").unwrap_or_else(|| "COVERAGE_8.json".to_string());
    let baseline_path = flag(args, "--baseline");
    let tolerance: f64 = flag(args, "--tolerance")
        .map(|v| v.parse().expect("bad --tolerance"))
        .unwrap_or(0.05);
    let fail_dir = flag(args, "--fail-dir");

    eprintln!("loading TPC-DS at SF {sf} for the synthesized soak...");
    let generator = tpcds_core::Generator::new(sf);
    let db = Arc::new(tpcds_core::Database::new());
    tpcds_core::maint::load_initial_population(&db, &generator).expect("load");
    db.build_columnar_shadows();

    let cfg = SoakConfig {
        streams,
        queries_per_stream: queries.div_ceil(streams),
        dm_commits,
        via_server,
        shrink: true,
        synth: SynthConfig {
            seed,
            ..SynthConfig::default()
        },
    };
    eprintln!(
        "soak: {} streams x {} queries (seed {seed}, dm {dm_commits}, server {via_server})...",
        cfg.streams, cfg.queries_per_stream
    );
    let outcome = run_soak(&db, Some(&generator), &cfg);

    let report = coverage_report(&outcome, &cfg);
    std::fs::write(&out_path, format!("{report}\n")).expect("write coverage report");
    println!(
        "wrote {out_path}: {} queries, {} mismatches, {} snapshot versions",
        outcome.queries_run,
        outcome.failures.len(),
        outcome.versions_observed.len()
    );
    for (class, stat) in &outcome.classes {
        println!(
            "  {class:<18} {:>5} queries  columnar {:>5.1}%  {:>9} oracle rows",
            stat.queries,
            stat.columnar_frac() * 100.0,
            stat.oracle_rows
        );
    }

    // Minimized reproducers: one .sql file per mismatch, replayable with
    // `tpcds --columnar force` vs `--columnar off` (or the shrink docs in
    // docs/TESTING.md).
    if !outcome.failures.is_empty() {
        if let Some(dir) = &fail_dir {
            std::fs::create_dir_all(dir).expect("create --fail-dir");
            for f in &outcome.failures {
                let path = format!("{dir}/q{}_{}.sql", f.qid, f.class);
                let body = format!(
                    "-- qid {} class {} seed {seed}\n-- {}\n-- original: {}\n{}\n",
                    f.qid, f.class, f.detail, f.sql, f.minimized
                );
                std::fs::write(&path, body).expect("write reproducer");
                eprintln!("wrote reproducer {path}");
            }
        }
        for f in &outcome.failures {
            eprintln!("MISMATCH qid {} ({}): {}", f.qid, f.class, f.detail);
            eprintln!("  minimized: {}", f.minimized);
        }
        eprintln!("{} differential mismatch(es)", outcome.failures.len());
        return 1;
    }

    // ---- Per-shape-class routing gate ----
    let Some(base_path) = baseline_path else {
        return 0;
    };
    let base = match std::fs::read_to_string(&base_path)
        .map_err(|e| e.to_string())
        .and_then(|t| Json::parse(&t))
    {
        Ok(j) => j,
        Err(e) => {
            eprintln!("error: baseline {base_path}: {e}");
            return 2;
        }
    };
    let violations = gate(&base, &report, tolerance);
    if violations.is_empty() {
        println!("shape-class coverage matches or improves on {base_path}");
        0
    } else {
        for v in &violations {
            eprintln!("gate: {v}");
        }
        eprintln!("{} violation(s) vs {base_path}", violations.len());
        1
    }
}
