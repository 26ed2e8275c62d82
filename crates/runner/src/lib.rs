//! # tpcds-runner
//!
//! The TPC-DS execution rules and metrics (paper §5): the benchmark test
//! is a database load test followed by a performance test of two
//! multi-stream query runs around one data maintenance run (Figure 11);
//! the primary metric is QphDS@SF with the 1%·S load-time term; companion
//! metrics are $/QphDS under a documented synthetic price model and the
//! legacy geometric-mean power metric used for the ablation study.

#![warn(missing_docs)]

pub mod metric;
pub mod pricing;
pub mod streams;
pub mod validation;

pub use metric::{power_metric, qphds, MetricInputs};
pub use pricing::{price_performance, PriceModel};
pub use streams::min_streams;
pub use validation::{fingerprint, qualify, AnswerFingerprint};

use std::sync::Mutex;
use std::time::{Duration, Instant};
use tpcds_dgen::Generator;
use tpcds_engine::Database;
use tpcds_maint::MaintenanceReport;
use tpcds_obs::hist::LatencyStats;
use tpcds_obs::json::Json;
use tpcds_qgen::Workload;

/// Which auxiliary data structures the load builds (paper §2.1: the
/// reporting part may use rich structures, the ad-hoc part only basic
/// ones).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AuxLevel {
    /// No secondary structures at all.
    None,
    /// The reporting (catalog) part's pre-aggregated summary — the
    /// configuration the execution rules intend.
    Reporting,
}

/// Benchmark configuration.
#[derive(Debug, Clone)]
pub struct BenchmarkConfig {
    /// Scale factor (GB of raw data; fractional "virtual" SFs supported).
    pub scale_factor: f64,
    /// RNG seed (dsdgen's default unless overridden).
    pub seed: u64,
    /// Number of concurrent query streams; `None` uses the Figure 12
    /// minimum for the scale factor.
    pub streams: Option<usize>,
    /// Restrict each stream to the first `n` queries of its permutation
    /// (full 99 when `None`) — useful for quick runs; the metric adjusts.
    pub queries_per_stream: Option<usize>,
    /// Auxiliary structures built during the load.
    pub aux: AuxLevel,
    /// Morsel worker count for columnar scans (`--threads N`); `None`
    /// defers to `TPCDS_THREADS` and then `available_parallelism()`.
    pub threads: Option<usize>,
    /// Route both query runs through real TCP connections: the runner
    /// starts a loopback [`tpcds_server::Server`] after the load and each
    /// stream becomes a connected client, giving the benchmark the
    /// client/server shape the TPC-DS throughput test describes.
    pub via_server: bool,
}

impl BenchmarkConfig {
    /// A small smoke-test configuration.
    pub fn tiny() -> Self {
        BenchmarkConfig {
            scale_factor: 0.01,
            seed: tpcds_types::rng::DEFAULT_SEED,
            streams: Some(2),
            queries_per_stream: Some(10),
            aux: AuxLevel::Reporting,
            threads: None,
            via_server: false,
        }
    }
}

/// Elapsed time of one executed query.
#[derive(Debug, Clone)]
pub struct QueryTiming {
    /// Query run (1 or 2; Figure 11 runs two).
    pub run: u32,
    /// Stream index (0-based).
    pub stream: usize,
    /// Query number (1..=99).
    pub query: u32,
    /// Wall-clock elapsed.
    pub elapsed: Duration,
    /// Result row count.
    pub rows: usize,
}

/// Result of a full benchmark test.
#[derive(Debug)]
pub struct BenchmarkResult {
    /// The configuration used.
    pub config: BenchmarkConfig,
    /// Streams actually run.
    pub streams: usize,
    /// Queries per stream actually run.
    pub queries_per_stream: usize,
    /// Elapsed database load (timed portion).
    pub t_load: Duration,
    /// Elapsed query run 1.
    pub t_qr1: Duration,
    /// Elapsed data maintenance run.
    pub t_dm: Duration,
    /// Elapsed query run 2.
    pub t_qr2: Duration,
    /// Per-query timings of both runs.
    pub query_timings: Vec<QueryTiming>,
    /// Data maintenance outcome.
    pub maintenance: MaintenanceReport,
    /// The loaded database (kept for inspection / follow-up queries;
    /// shared because server mode keeps a reference across threads).
    pub db: std::sync::Arc<Database>,
}

impl BenchmarkResult {
    /// The metric inputs this run produced.
    pub fn metric_inputs(&self) -> MetricInputs {
        MetricInputs {
            scale_factor: self.config.scale_factor,
            streams: self.streams,
            queries_per_stream: self.queries_per_stream,
            t_qr1: self.t_qr1,
            t_dm: self.t_dm,
            t_qr2: self.t_qr2,
            t_load: self.t_load,
        }
    }

    /// The primary performance metric. A completed run always measured
    /// positive elapsed time, so the metric is defined.
    pub fn qphds(&self) -> f64 {
        qphds(&self.metric_inputs()).expect("completed run has positive elapsed time")
    }

    /// Per-query latency distributions (p50/p95/max over both runs and all
    /// streams), keyed by query number.
    pub fn latency_summary(&self) -> std::collections::BTreeMap<u32, LatencyStats> {
        let mut durs: std::collections::BTreeMap<u32, Vec<u64>> = Default::default();
        for t in &self.query_timings {
            durs.entry(t.query)
                .or_default()
                .push(t.elapsed.as_micros() as u64);
        }
        durs.into_iter()
            .map(|(q, d)| (q, LatencyStats::from_durations_us(d)))
            .collect()
    }

    /// Serializes the whole result — config, phase timings, the metric,
    /// per-query timings and latency summaries, and the maintenance
    /// outcome (each operation's rows, wall time and commit profile) — as
    /// one JSON object (the CLI's `--json` output).
    pub fn to_json(&self) -> Json {
        let us = |d: Duration| Json::Int(d.as_micros() as i64);
        let timings: Vec<Json> = self
            .query_timings
            .iter()
            .map(|t| {
                Json::Obj(vec![
                    ("run".into(), Json::Int(t.run as i64)),
                    ("stream".into(), Json::Int(t.stream as i64)),
                    ("query".into(), Json::Int(t.query as i64)),
                    ("elapsed_us".into(), Json::Int(t.elapsed.as_micros() as i64)),
                    ("rows".into(), Json::Int(t.rows as i64)),
                ])
            })
            .collect();
        let latency: Vec<(String, Json)> = self
            .latency_summary()
            .into_iter()
            .map(|(q, s)| {
                (
                    format!("q{q}"),
                    Json::Obj(vec![
                        ("count".into(), Json::Int(s.count as i64)),
                        ("p50_us".into(), Json::Int(s.p50_us as i64)),
                        ("p95_us".into(), Json::Int(s.p95_us as i64)),
                        ("max_us".into(), Json::Int(s.max_us as i64)),
                    ]),
                )
            })
            .collect();
        let maintenance: Vec<Json> = self
            .maintenance
            .ops
            .iter()
            .map(|o| {
                let n = |v: usize| Json::Int(v as i64);
                let c = &o.commit;
                Json::Obj(vec![
                    ("name".into(), Json::Str(o.name.to_string())),
                    ("updated".into(), n(o.updated)),
                    ("inserted".into(), n(o.inserted)),
                    ("deleted".into(), n(o.deleted)),
                    ("elapsed_us".into(), us(o.elapsed)),
                    ("tables_changed".into(), n(c.tables_changed)),
                    ("segments_rebuilt".into(), n(c.segments_rebuilt)),
                    ("rows_masked".into(), n(c.rows_masked)),
                    ("segments_compacted".into(), n(c.segments_compacted)),
                    ("stats_cells_folded".into(), n(c.stats_cells_folded)),
                    ("stats_cells_retracted".into(), n(c.stats_cells_retracted)),
                ])
            })
            .collect();
        Json::Obj(vec![
            ("scale_factor".into(), Json::Float(self.config.scale_factor)),
            ("seed".into(), Json::Int(self.config.seed as i64)),
            ("streams".into(), Json::Int(self.streams as i64)),
            (
                "queries_per_stream".into(),
                Json::Int(self.queries_per_stream as i64),
            ),
            ("t_load_us".into(), us(self.t_load)),
            ("t_qr1_us".into(), us(self.t_qr1)),
            ("t_dm_us".into(), us(self.t_dm)),
            ("t_qr2_us".into(), us(self.t_qr2)),
            (
                "qphds".into(),
                qphds(&self.metric_inputs())
                    .map(Json::Float)
                    .unwrap_or(Json::Null),
            ),
            ("query_timings".into(), Json::Arr(timings)),
            ("latency".into(), Json::Obj(latency)),
            ("maintenance".into(), Json::Arr(maintenance)),
        ])
    }
}

/// Error type for benchmark runs.
#[derive(Debug)]
pub enum RunError {
    /// Engine failure, annotated with the query number (0 = load/DM).
    Engine(u32, tpcds_engine::EngineError),
    /// Query generation failure.
    Template(tpcds_qgen::TemplateError),
    /// Server-mode failure (start, connect, or remote query), annotated
    /// with the query number (0 = not query-specific).
    Server(u32, String),
}

impl std::fmt::Display for RunError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RunError::Engine(q, e) => write!(f, "query {q}: {e}"),
            RunError::Template(e) => write!(f, "{e}"),
            RunError::Server(0, e) => write!(f, "server: {e}"),
            RunError::Server(q, e) => write!(f, "query {q} via server: {e}"),
        }
    }
}
impl std::error::Error for RunError {}

/// Runs the complete benchmark test: load test, query run 1, data
/// maintenance, query run 2 (Figure 11).
pub fn run_benchmark(config: BenchmarkConfig) -> Result<BenchmarkResult, RunError> {
    tpcds_storage::set_threads(config.threads);
    let generator = Generator::with_seed(config.scale_factor, config.seed);
    let workload = Workload::tpcds().map_err(RunError::Template)?;
    let streams = config
        .streams
        .unwrap_or_else(|| min_streams(config.scale_factor) as usize)
        .max(1);
    let queries_per_stream = config.queries_per_stream.unwrap_or(99).clamp(1, 99);

    // ---- Load test (timed) ----
    let db = std::sync::Arc::new(Database::new());
    let phase = tpcds_obs::span("runner", "phase");
    let load_start = Instant::now();
    tpcds_maint::load_initial_population(&db, &generator).map_err(|e| RunError::Engine(0, e))?;
    if config.aux == AuxLevel::Reporting {
        build_reporting_aux(&db).map_err(|e| RunError::Engine(0, e))?;
    }
    let t_load = load_start.elapsed();
    phase.finish();

    // Server mode: the query runs go over loopback TCP. The untimed
    // server start sits between the load and QR1, mirroring a real
    // deployment bringing the database online before streams connect.
    let server = if config.via_server {
        let server_config = tpcds_server::ServerConfig {
            max_concurrent_queries: streams,
            ..tpcds_server::ServerConfig::default()
        };
        Some(
            tpcds_server::Server::start(std::sync::Arc::clone(&db), server_config)
                .map_err(|e| RunError::Server(0, e.to_string()))?,
        )
    } else {
        None
    };
    let server_addr = server.as_ref().map(|s| s.local_addr());

    // ---- Query run 1 ----
    let phase = tpcds_obs::span("runner", "phase");
    let (t_qr1, mut query_timings) = query_run(
        &db,
        &workload,
        &config,
        streams,
        queries_per_stream,
        1,
        server_addr,
    )?;
    phase.finish();

    // ---- Data maintenance run ----
    let phase = tpcds_obs::span("runner", "phase");
    let dm_start = Instant::now();
    let maintenance =
        tpcds_maint::run_maintenance(&db, &generator, 0).map_err(|e| RunError::Engine(0, e))?;
    let t_dm = dm_start.elapsed();
    phase.finish();

    // ---- Query run 2 ----
    let phase = tpcds_obs::span("runner", "phase");
    let (t_qr2, timings2) = query_run(
        &db,
        &workload,
        &config,
        streams,
        queries_per_stream,
        2,
        server_addr,
    )?;
    query_timings.extend(timings2);
    phase.finish();

    if let Some(server) = server {
        server.shutdown();
    }

    Ok(BenchmarkResult {
        config,
        streams,
        queries_per_stream,
        t_load,
        t_qr1,
        t_dm,
        t_qr2,
        query_timings,
        maintenance,
        db,
    })
}

/// Executes one query run: `streams` concurrent sessions, each running its
/// own permutation of the workload with stream-specific substitutions.
/// `run` is 1 or 2; run 2's sessions use fresh stream IDs so their
/// permutations and substitutions differ from run 1's. With `server_addr`
/// set, every stream opens its own TCP connection and the queries execute
/// remotely (`via_server` mode).
fn query_run(
    db: &Database,
    workload: &Workload,
    config: &BenchmarkConfig,
    streams: usize,
    queries_per_stream: usize,
    run: u32,
    server_addr: Option<std::net::SocketAddr>,
) -> Result<(Duration, Vec<QueryTiming>), RunError> {
    let stream_base = (run as u64 - 1) * streams as u64;
    let timings: Mutex<Vec<QueryTiming>> = Mutex::new(Vec::new());
    let failure: Mutex<Option<RunError>> = Mutex::new(None);
    let start = Instant::now();
    std::thread::scope(|scope| {
        for s in 0..streams {
            let timings = &timings;
            let failure = &failure;
            scope.spawn(move || {
                let mut client = match server_addr.map(tpcds_server::Client::connect) {
                    None => None,
                    Some(Ok(c)) => Some(c),
                    Some(Err(e)) => {
                        *failure.lock().expect("poisoned") =
                            Some(RunError::Server(0, e.to_string()));
                        return;
                    }
                };
                let stream_id = stream_base + s as u64;
                let order = workload.stream_order(config.seed, stream_id);
                for id in order.into_iter().take(queries_per_stream) {
                    let sql = match workload.instantiate(id, config.seed, stream_id) {
                        Ok(sql) => sql,
                        Err(e) => {
                            *failure.lock().expect("poisoned") = Some(RunError::Template(e));
                            return;
                        }
                    };
                    let span = tpcds_obs::span("runner", "query");
                    let q_start = Instant::now();
                    let rows = match &mut client {
                        None => tpcds_engine::query(db, &sql)
                            .map(|r| r.rows.len())
                            .map_err(|e| RunError::Engine(id, e)),
                        Some(c) => c
                            .query(&sql)
                            .map(|r| r.rows.len())
                            .map_err(|e| RunError::Server(id, e.to_string())),
                    };
                    match rows {
                        Ok(rows) => {
                            span.finish();
                            timings.lock().expect("poisoned").push(QueryTiming {
                                run,
                                stream: s,
                                query: id,
                                elapsed: q_start.elapsed(),
                                rows,
                            })
                        }
                        Err(e) => {
                            *failure.lock().expect("poisoned") = Some(e);
                            return;
                        }
                    }
                }
            });
        }
    });
    if let Some(e) = failure.into_inner().expect("poisoned") {
        return Err(e);
    }
    Ok((start.elapsed(), timings.into_inner().expect("poisoned")))
}

/// Builds the reporting part's auxiliary structure: a pre-aggregated
/// monthly revenue summary of the catalog channel (the
/// materialized-view-style structure that part is allowed; paper §2.1).
pub fn build_reporting_aux(db: &Database) -> tpcds_engine::Result<()> {
    if !db.has_table("catalog_monthly_summary") {
        tpcds_engine::create_table_as(
            db,
            "catalog_monthly_summary",
            "select d_year, d_moy, sum(cs_ext_sales_price) net_sales,
                    sum(cs_net_profit) net_profit, count(*) line_items
             from catalog_sales, date_dim
             where cs_sold_date_sk = d_date_sk
             group by d_year, d_moy",
        )?;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tiny_benchmark_completes_all_phases() {
        let result = run_benchmark(BenchmarkConfig::tiny()).unwrap();
        assert_eq!(result.streams, 2);
        assert_eq!(result.queries_per_stream, 10);
        // Two runs x streams x queries.
        assert_eq!(result.query_timings.len(), 2 * 2 * 10);
        assert!(result.t_load > Duration::ZERO);
        assert!(result.t_qr1 > Duration::ZERO);
        assert!(result.t_dm > Duration::ZERO);
        assert!(result.t_qr2 > Duration::ZERO);
        assert_eq!(result.maintenance.ops.len(), 12);
        assert!(result.qphds() > 0.0);
        // Both query runs are represented, 20 timings each.
        for run in [1u32, 2] {
            assert_eq!(
                result.query_timings.iter().filter(|t| t.run == run).count(),
                20
            );
        }
        // Latency summary covers every executed query with sane stats.
        let latency = result.latency_summary();
        let total: u64 = latency.values().map(|s| s.count).sum();
        assert_eq!(total, 40);
        for s in latency.values() {
            assert!(s.p50_us <= s.p95_us && s.p95_us <= s.max_us);
        }
        // JSON export round-trips through the obs parser.
        let json = result.to_json().to_string();
        let parsed = tpcds_obs::json::Json::parse(&json).unwrap();
        assert_eq!(parsed.get("streams").and_then(|j| j.as_i64()), Some(2));
        assert!(parsed.get("qphds").and_then(|j| j.as_f64()).unwrap() > 0.0);
        assert_eq!(
            parsed
                .get("query_timings")
                .and_then(|j| j.as_arr())
                .map(|a| a.len()),
            Some(40)
        );
        // Each maintenance entry carries its wall time and commit profile.
        let maintenance = parsed.get("maintenance").and_then(|j| j.as_arr()).unwrap();
        assert_eq!(maintenance.len(), 12);
        for (entry, op) in maintenance.iter().zip(&result.maintenance.ops) {
            let field = |k| entry.get(k).and_then(|j| j.as_i64()).unwrap();
            assert!(field("elapsed_us") > 0, "{}", op.name);
            assert_eq!(field("segments_rebuilt"), op.commit.segments_rebuilt as i64);
        }
    }

    #[test]
    fn server_mode_runs_the_query_streams_over_tcp() {
        let result = run_benchmark(BenchmarkConfig {
            scale_factor: 0.005,
            queries_per_stream: Some(5),
            via_server: true,
            ..BenchmarkConfig::tiny()
        })
        .unwrap();
        // Same shape as the in-process run: 2 runs x 2 streams x 5 queries.
        assert_eq!(result.query_timings.len(), 2 * 2 * 5);
        assert!(result.qphds() > 0.0);
        // The shared handle is still queryable after the server stopped.
        assert!(
            tpcds_engine::query(&result.db, "select count(*) from item")
                .unwrap()
                .rows[0][0]
                .as_int()
                .unwrap()
                > 0
        );
    }

    #[test]
    fn streams_use_different_orderings() {
        let cfg = BenchmarkConfig::tiny();
        let w = Workload::tpcds().unwrap();
        let o0 = w.stream_order(cfg.seed, 0);
        let o1 = w.stream_order(cfg.seed, 1);
        assert_ne!(o0[..5], o1[..5]);
    }
}
