//! `tpcds-bench` — the routing and differential gates (timing lives in
//! the repository benchmark, `benchmark/run.sh`):
//!
//! * `tpcds-bench coverage [--scale SF] [--out COVERAGE_10.json]
//!   [--baseline FILE] [--min-columnar N]` — runs all 99 templates under
//!   pinned default options and writes, per template, the fraction of
//!   operator output rows produced by batch operators, whether the plan
//!   ran fallback-free (every executed operator on the `columnar` or
//!   `index` route), and cardinality q-error quantiles; with
//!   `--baseline` it exits non-zero when a template that was
//!   fallback-free in the committed report no longer is, and
//!   `--min-columnar` adds an absolute floor on the fallback-free
//!   template count — the CI routing-coverage gate;
//! * `tpcds-bench synth …` — the synthesized-workload differential soak
//!   and its per-shape-class routing report (see [`cmd_synth`]).

use tpcds_core::engine::{self, ColumnarMode, ExecOptions};
use tpcds_core::obs::hist::HistSnapshot;
use tpcds_core::obs::json::Json;
use tpcds_core::{TpcDs, Workload};

const USAGE: &str = "usage:
  tpcds-bench coverage [--scale SF] [--out COVERAGE_10.json] [--baseline FILE]
                       [--min-columnar N]
  tpcds-bench synth [--scale SF] [--queries N] [--streams N] [--seed S] [--dm N]
                    [--via-server] [--out COVERAGE_8.json] [--baseline FILE]
                    [--tolerance 0.05] [--fail-dir DIR]";

fn flag(args: &[String], name: &str) -> Option<String> {
    args.iter()
        .position(|a| a == name)
        .and_then(|i| args.get(i + 1))
        .cloned()
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let code = match args.split_first() {
        Some((sub, rest)) if sub == "coverage" => cmd_coverage(rest),
        Some((sub, rest)) if sub == "synth" => cmd_synth(rest),
        _ => {
            eprintln!("{USAGE}");
            2
        }
    };
    std::process::exit(code);
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
        let free = executed().all(|n| {
            matches!(
                n.route,
                engine::RoutePath::Columnar | engine::RoutePath::Index
            )
        });
        if free {
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
                ("fallback_free".into(), Json::Bool(free)),
                (
                    "batch_rows_frac".into(),
                    Json::Float(batch_rows as f64 / rows.max(1) as f64),
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
    // this many of the 99 templates must run every operator on a batch
    // kernel or an index probe.
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
