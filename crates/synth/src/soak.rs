//! The differential soak harness.
//!
//! `run_soak` drives N concurrent query streams over one shared,
//! snapshot-isolated database while a data-maintenance writer commits
//! refresh sequences mid-run. Every stream pins each query to one
//! snapshot and runs the four-way differential ([`crate::diff`]); any
//! mismatch is shrunk to a minimal reproducer on the same snapshot and
//! reported. Every query is additionally executed once under
//! `ColumnarMode::Auto` with instrumentation, feeding per-shape-class
//! [`RoutePath`](tpcds_engine::RoutePath) routing tallies — the raw
//! material of `COVERAGE_8.json`.
//!
//! With `via_server` set, the oracle and forced runs travel over a real
//! TCP connection to a `tpcds-server` (one connection per stream), using
//! the wire protocol's per-query `pin` / `mode` / `threads` knobs; the
//! routing trace still comes from an in-process pinned run of the
//! same snapshot version.

use std::collections::BTreeMap;
use std::sync::{mpsc, Arc, Mutex};

use tpcds_dgen::Generator;
use tpcds_engine::{ColumnarMode, Database, DbSnapshot, ExecOptions, QueryMeta};
use tpcds_server::{Client, QueryOpts, Server, ServerConfig};

use crate::diff::{canon_equal, first_difference, run_differential, DiffError};
use crate::gen::{SynthConfig, Synthesizer};
use crate::shrink::shrink;
use crate::spec::QuerySpec;

/// Soak-run tunables.
#[derive(Clone, Debug)]
pub struct SoakConfig {
    /// Concurrent query streams.
    pub streams: usize,
    /// Queries per stream (total = streams × this).
    pub queries_per_stream: usize,
    /// Data-maintenance refresh sequences committed during the run.
    pub dm_commits: u32,
    /// Route queries through a real TCP server instead of in-process.
    pub via_server: bool,
    /// Shrink mismatches to minimal reproducers (disable for speed).
    pub shrink: bool,
    /// Generator configuration (seed, join depth, adversarial mix).
    pub synth: SynthConfig,
}

impl Default for SoakConfig {
    fn default() -> Self {
        SoakConfig {
            streams: 4,
            queries_per_stream: 125,
            dm_commits: 1,
            via_server: false,
            shrink: true,
            synth: SynthConfig::default(),
        }
    }
}

/// Routing + volume tallies for one shape class.
#[derive(Clone, Debug, Default)]
pub struct ClassStat {
    /// Queries synthesized in this class.
    pub queries: u64,
    /// Best [`RoutePath`](tpcds_engine::RoutePath) per query → count.
    pub routes: BTreeMap<&'static str, u64>,
    /// Fallback reason code → count (a query can carry several).
    pub fallbacks: BTreeMap<&'static str, u64>,
    /// Total oracle rows across the class.
    pub oracle_rows: u64,
    /// Queries whose oracle produced zero rows.
    pub empty_results: u64,
}

impl ClassStat {
    /// Fraction of this class's queries whose best route was columnar.
    pub fn columnar_frac(&self) -> f64 {
        if self.queries == 0 {
            return 0.0;
        }
        *self.routes.get("columnar").unwrap_or(&0) as f64 / self.queries as f64
    }
}

/// One differential failure, with its minimized reproducer.
#[derive(Clone, Debug)]
pub struct Failure {
    /// Query id within the seeded stream (`generate(qid)` replays it).
    pub qid: u64,
    /// Shape class name.
    pub class: &'static str,
    /// The original synthesized SQL.
    pub sql: String,
    /// The shrunk reproducer (equals `sql` when shrinking is off).
    pub minimized: String,
    /// Which comparison failed and how.
    pub detail: String,
}

/// Everything a soak run learned.
#[derive(Clone, Debug, Default)]
pub struct SoakOutcome {
    /// Total queries executed through the differential.
    pub queries_run: u64,
    /// Differential failures (empty on a healthy engine).
    pub failures: Vec<Failure>,
    /// Per-shape-class routing and volume tallies.
    pub classes: BTreeMap<&'static str, ClassStat>,
    /// Distinct snapshot versions queries executed against — > 1 proves
    /// the run really interleaved with DM commits.
    pub versions_observed: Vec<u64>,
    /// Rows touched by the data-maintenance writer.
    pub dm_rows: usize,
    /// Query-log records appended during the run (delta of the ring's
    /// cumulative counter) — zero when the log is disabled.
    pub log_records: u64,
}

fn auto_opts() -> ExecOptions {
    ExecOptions {
        columnar: ColumnarMode::Auto,
        threads: None,
    }
}

/// Runs one query through the differential + routing trace, in-process.
/// Returns `(oracle_rows, Option<failure detail>)`.
fn run_one_local(
    db: &Database,
    snap: &Arc<DbSnapshot>,
    spec: &QuerySpec,
    sql: &str,
    do_shrink: bool,
) -> (usize, Option<(String, String)>) {
    match run_differential(db, snap, sql) {
        Ok(r) => (r.oracle_rows, None),
        Err(DiffError::Oracle(e)) => (
            0,
            Some((
                format!("generator bug: row-path oracle rejected the SQL: {e}"),
                sql.to_string(),
            )),
        ),
        Err(DiffError::Mismatch { stage, detail }) => {
            let minimized = if do_shrink {
                shrink(db, snap, spec).sql()
            } else {
                sql.to_string()
            };
            (0, Some((format!("{stage}: {detail}"), minimized)))
        }
    }
}

/// Runs one query through the differential over the wire. The oracle run
/// is unpinned (it discovers the freshest version); every forced run pins
/// that version explicitly.
fn run_one_remote(
    client: &mut Client,
    db: &Database,
    qid: u64,
    spec: &QuerySpec,
    sql: &str,
    do_shrink: bool,
) -> (u64, usize, Option<(String, String)>) {
    let oracle = match client.query_with(
        sql,
        &QueryOpts {
            pin: None,
            mode: Some("off"),
            threads: Some(1),
            // End-to-end identity: this exact id must come back out of
            // `sys.query_log` (the outcome cross-check counts on it).
            query_id: Some(format!("soak-{qid}")),
        },
    ) {
        Ok(r) => r,
        Err(e) => {
            return (
                db.version(),
                0,
                Some((
                    format!("generator bug: remote row-path oracle rejected the SQL: {e:?}"),
                    sql.to_string(),
                )),
            )
        }
    };
    let version = oracle.version;
    let mut force1_rows: Option<Vec<tpcds_types::Row>> = None;
    for workers in [1usize, 2, 8] {
        let forced = match client.query_with(
            sql,
            &QueryOpts {
                pin: Some(version),
                mode: Some("force"),
                threads: Some(workers),
                query_id: Some(format!("soak-{qid}-force{workers}")),
            },
        ) {
            Ok(r) => r,
            Err(e) => {
                return (
                    version,
                    0,
                    Some((
                        format!("force@{workers}: remote columnar run errored: {e:?}"),
                        sql.to_string(),
                    )),
                )
            }
        };
        let failure = match &force1_rows {
            None => canon_equal(&oracle.rows, &forced.rows)
                .err()
                .map(|d| format!("force@1 vs oracle (remote): {d}")),
            Some(f1) if *f1 != forced.rows => Some(format!(
                "force@{workers} vs force@1 (remote): {}",
                first_difference(f1, &forced.rows)
            )),
            Some(_) => None,
        };
        if let Some(detail) = failure {
            let minimized = match (do_shrink, db.snapshot_at(version)) {
                (true, Some(snap)) => shrink(db, &snap, spec).sql(),
                _ => sql.to_string(),
            };
            return (version, 0, Some((detail, minimized)));
        }
        if force1_rows.is_none() {
            force1_rows = Some(forced.rows);
        }
    }
    (version, oracle.rows.len(), None)
}

/// Runs the soak. `generator` powers the data-maintenance writer; pass
/// `None` (or `dm_commits: 0`) for a read-only soak.
pub fn run_soak(
    db: &Arc<Database>,
    generator: Option<&Generator>,
    cfg: &SoakConfig,
) -> SoakOutcome {
    let span = tpcds_obs::span("synth", "run_soak")
        .field("streams", cfg.streams as i64)
        .field("queries", (cfg.streams * cfg.queries_per_stream) as i64);

    // Keep every mid-run version reachable for pinned replays: each DM
    // sequence commits 12 versions.
    db.set_snapshot_retention((cfg.dm_commits as usize * 12 + 16).max(64));
    let synth = Synthesizer::from_db(db, cfg.synth.clone());

    let server = if cfg.via_server {
        Some(
            Server::start(
                Arc::clone(db),
                ServerConfig {
                    max_concurrent_queries: cfg.streams.max(2),
                    ..ServerConfig::default()
                },
            )
            .expect("soak server starts"),
        )
    } else {
        None
    };
    let addr = server.as_ref().map(|s| s.local_addr());
    let log_before = db.query_log().total_recorded();

    let outcome = Mutex::new(SoakOutcome::default());
    // The writer starts once every stream has run its first query, and a
    // stream runs its last one once the writer is done, so the streams see
    // versions on both sides of the commits. Each signal is the drop of a
    // channel's senders: a thread that panics releases the others too.
    let (started_tx, started_rx) = mpsc::channel::<()>();
    let (done_txs, done_rxs): (Vec<_>, Vec<_>) =
        (0..cfg.streams).map(|_| mpsc::channel::<()>()).unzip();
    let dm_rows = std::thread::scope(|scope| {
        let dm = generator.filter(|_| cfg.dm_commits > 0).map(|g| {
            let db = Arc::clone(db);
            let commits = cfg.dm_commits;
            scope.spawn(move || {
                let _done = done_txs;
                while started_rx.recv().is_ok() {}
                let mut rows = 0usize;
                for seq in 0..commits {
                    rows += tpcds_maint::run_maintenance(&db, g, seq)
                        .expect("soak maintenance")
                        .total_rows();
                }
                rows
            })
        });

        let streams: Vec<_> = (done_rxs.into_iter().enumerate())
            .map(|(s, done)| {
                let synth = &synth;
                let outcome = &outcome;
                let mut started = Some(started_tx.clone());
                let first = (s * cfg.queries_per_stream) as u64;
                let end = first + cfg.queries_per_stream as u64;
                scope.spawn(move || {
                    let mut client = addr.map(|a| Client::connect(a).expect("soak client"));
                    for qid in first..end {
                        if qid + 1 == end && qid != first {
                            let _ = done.recv();
                        }
                        let spec = synth.generate(qid);
                        let sql = spec.sql();
                        let (version, snap, oracle_rows, failure) = match client.as_mut() {
                            Some(c) => {
                                let (version, rows, failure) =
                                    run_one_remote(c, db, qid, &spec, &sql, cfg.shrink);
                                let snap = db.snapshot_at(version).unwrap_or_else(|| db.snapshot());
                                (version, snap, rows, failure)
                            }
                            None => {
                                let snap = db.snapshot();
                                let (rows, failure) =
                                    run_one_local(db, &snap, &spec, &sql, cfg.shrink);
                                (snap.version(), snap, rows, failure)
                            }
                        };
                        // Routing trace under Auto on the same snapshot.
                        let (routed, profile) = tpcds_engine::run(
                            db,
                            &sql,
                            Some(&snap),
                            auto_opts(),
                            QueryMeta::default(),
                        );

                        let mut out = outcome.lock().unwrap();
                        out.queries_run += 1;
                        out.versions_observed.push(version);
                        let class = out.classes.entry(spec.class.as_str()).or_default();
                        class.queries += 1;
                        class.oracle_rows += oracle_rows as u64;
                        if oracle_rows == 0 && failure.is_none() {
                            class.empty_results += 1;
                        }
                        if routed.is_ok() {
                            *class
                                .routes
                                .entry(profile.best_route().as_str())
                                .or_insert(0) += 1;
                            for reason in profile.fallback_reasons() {
                                *class.fallbacks.entry(reason).or_insert(0) += 1;
                            }
                        }
                        if let Some((detail, minimized)) = failure {
                            out.failures.push(Failure {
                                qid,
                                class: spec.class.as_str(),
                                sql: sql.clone(),
                                minimized,
                                detail,
                            });
                        }
                        started.take();
                    }
                })
            })
            .collect();
        drop(started_tx);
        for h in streams {
            h.join().expect("soak stream");
        }
        dm.map(|h| h.join().expect("soak dm writer")).unwrap_or(0)
    });

    if let Some(server) = server {
        server.shutdown();
    }

    let mut out = outcome.into_inner().unwrap();
    out.dm_rows = dm_rows;
    out.versions_observed.sort_unstable();
    out.versions_observed.dedup();

    // Cross-check the query log against queries actually issued: every
    // soak query runs the differential (≥1 logged engine call, errors
    // included) plus one pinned routing run — so the ring's cumulative
    // counter must have advanced by at least 2× queries_run. An
    // undercount means an engine entry point stopped recording.
    if db.query_log().is_enabled() {
        out.log_records = db.query_log().total_recorded().saturating_sub(log_before);
        let expected = 2 * out.queries_run;
        if out.log_records < expected {
            out.failures.push(Failure {
                qid: 0,
                class: "query-log-undercount",
                sql: "select count(*) from sys.query_log".to_string(),
                minimized: String::new(),
                detail: format!(
                    "query log recorded {} entries for {} soak queries (expected >= {expected})",
                    out.log_records, out.queries_run
                ),
            });
        }
    }

    out.failures.sort_by_key(|f| f.qid);
    span.field("failures", out.failures.len() as i64).finish();
    out
}
