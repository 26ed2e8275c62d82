//! The untraced pass: each workload's closed loop against the server,
//! measured the way a user would see it, then a sample of the answers
//! re-run on the row path at the snapshot they were computed on.

use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use tpcds_core::engine::{DbSnapshot, QueryResult};
use tpcds_core::runner::{self, MetricInputs};
use tpcds_core::server::Client;
use tpcds_core::{maint, Workload};

use crate::check;
use crate::env;
use crate::setup::{self, Instance};
use crate::spec::{Metrics, Outcome};
use crate::stats;
use crate::workloads::{
    self, Kind, ShortMix, Stmt, WorkloadSpec, POWER_EXCLUDED, SHORT_ROUND, SMOKE_EVERY,
};

/// An answer to re-run on the row path: the statement, the snapshot the
/// server computed it on, and what came back.
struct Check {
    sql: String,
    snapshot: Arc<DbSnapshot>,
    got: QueryResult,
}

/// What a workload's timed phase accumulates.
#[derive(Default)]
struct Phase {
    /// Every client connection's samples, merged.
    all: Stream,
    /// QphDS of each round (one value for workloads of a single phase).
    qphds: Vec<f64>,
    /// Wall during which queries were being issued.
    query_wall_s: f64,
    cpu_user_s: f64,
    cpu_sys_s: f64,
    /// Answers already compared with the oracle while the phase ran.
    checked: usize,
    setup_samples: Vec<f64>,
    notes: Vec<String>,
}

impl Phase {
    fn completed(&self) -> u64 {
        self.all.latencies_ms.len() as u64
    }
}

/// What one client connection accumulates.
#[derive(Default)]
struct Stream {
    latencies_ms: Vec<f64>,
    /// Wall of each completed round of the workload's fixed unit of work.
    rounds_s: Vec<f64>,
    attempted: u64,
    failed: u64,
    /// Answers kept for the oracle.
    checks: Vec<Check>,
    /// Failed statements and answers the oracle disagreed with.
    mismatches: Vec<String>,
}

impl Stream {
    fn merge(&mut self, other: Stream) {
        self.latencies_ms.extend(other.latencies_ms);
        self.rounds_s.extend(other.rounds_s);
        self.attempted += other.attempted;
        self.failed += other.failed;
        self.checks.extend(other.checks);
        self.mismatches.extend(other.mismatches);
    }

    /// Sends `stmt`, waits for the answer and records the latency the
    /// client observed. Returns the answer and its snapshot version when
    /// `keep` is set and the statement succeeded.
    fn issue(
        &mut self,
        client: &mut Client,
        stmt: &Stmt,
        workers: usize,
        query_id: String,
        keep: bool,
    ) -> Option<(QueryResult, u64)> {
        self.attempted += 1;
        let opts = setup::query_opts(workers, query_id);
        let started = Instant::now();
        let answer = client.query_with(&stmt.sql, &opts);
        let latency = started.elapsed();
        match answer {
            Ok(remote) => {
                self.latencies_ms.push(latency.as_secs_f64() * 1e3);
                keep.then(|| {
                    let version = remote.version;
                    (setup::into_query_result(remote), version)
                })
            }
            Err(e) => {
                self.failed += 1;
                self.mismatches
                    .push(format!("statement {} failed: {e}", stmt.id));
                None
            }
        }
    }

    /// Issues `stmts` in order; one statement in `verify_every`, if any,
    /// is kept for the oracle, pinned to `snapshot`.
    fn run_list(
        &mut self,
        client: &mut Client,
        stmts: &[Stmt],
        workers: usize,
        tag: &str,
        verify_every: Option<usize>,
        snapshot: &Arc<DbSnapshot>,
    ) {
        for (i, stmt) in stmts.iter().enumerate() {
            let sampled = verify_every.is_some_and(|every| i % every == 0);
            let query_id = format!("{tag}-{i}");
            if let Some((got, _)) = self.issue(client, stmt, workers, query_id, sampled) {
                self.checks.push(Check {
                    sql: stmt.sql.clone(),
                    snapshot: Arc::clone(snapshot),
                    got,
                });
            }
        }
    }
}

/// Process CPU spent between construction and [`CpuClock::stop`].
struct CpuClock(f64, f64);

impl CpuClock {
    fn start() -> CpuClock {
        let (user, sys) = env::cpu_seconds();
        CpuClock(user, sys)
    }

    fn stop(self, phase: &mut Phase) {
        let (user, sys) = env::cpu_seconds();
        phase.cpu_user_s += user - self.0;
        phase.cpu_sys_s += sys - self.1;
    }
}

/// QphDS@SF by the paper's formula over whichever Figure 11 phases the
/// workload ran. `runner::qphds` counts 2 x queries_per_stream x streams
/// queries and is linear in that count, so a one-query-per-stream result
/// is scaled to the queries actually completed; for `fig11` that is the
/// paper's 198 x S exactly.
fn qphds(
    sf: f64,
    streams: usize,
    completed: u64,
    t_qr1: Duration,
    t_dm: Duration,
    t_qr2: Duration,
    t_load: Duration,
) -> f64 {
    let unit = runner::qphds(&MetricInputs {
        scale_factor: sf,
        streams,
        queries_per_stream: 1,
        t_qr1,
        t_dm,
        t_qr2,
        t_load,
    })
    .unwrap_or(0.0);
    unit * completed as f64 / (2.0 * streams as f64)
}

/// Whether another round of the usual length still fits in `seconds`.
fn another_round_fits(started: Instant, rounds_s: &[f64], seconds: f64) -> bool {
    started.elapsed().as_secs_f64() + stats::median(rounds_s) <= seconds
}

/// Runs `spec` once, untraced, for about `seconds` of measured load.
pub fn run(spec: &WorkloadSpec, seed: u64, seconds: f64, smoke: bool) -> Result<Outcome, String> {
    let w = env::nproc();
    let clients = spec.clients(w);
    let workers = spec.workers(w);
    let templates = Workload::tpcds().map_err(|e| format!("templates: {e}"))?;
    let every = if smoke { SMOKE_EVERY } else { 1 };

    let mut phase = Phase::default();
    let mut instance = None;
    for _ in 0..spec.setups {
        // Release the previous instance first, so two never coexist.
        drop(instance.take());
        let fresh = setup::set_up(spec.sf, seed, clients)?;
        phase.setup_samples.push(fresh.times.total_s());
        instance = Some(fresh);
    }
    let instance = instance.ok_or("a workload sets up at least once")?;
    let rows_per_table = instance.rows_per_table();

    let instance = match spec.kind {
        Kind::Fig11 => {
            let plan = Streams {
                templates: &templates,
                seed,
                streams: clients,
                every,
                verify_every: spec.verify_every,
            };
            fig11(spec, instance, &plan, seconds, &mut phase)?
        }
        Kind::Power => {
            let list = workloads::thin(
                workloads::stream_statements(&templates, seed, 0, &POWER_EXCLUDED)?,
                every,
            );
            power(spec, &instance, &list, workers, seconds, &mut phase)?;
            instance
        }
        Kind::DmMixed => {
            let cycle = workloads::read_cycle(&templates, seed)?;
            dm_mixed(spec, &instance, &cycle, seconds, &mut phase)?;
            instance
        }
        Kind::Short => {
            short(&instance, seed, clients, seconds, &mut phase)?;
            instance
        }
    };
    let peak_rss_mb = env::peak_rss_mb();

    // Outside the timed phase: the oracle.
    let oracle_started = Instant::now();
    let checked = phase.checked + phase.all.checks.len();
    for c in std::mem::take(&mut phase.all.checks) {
        if let Err(e) = check::against_oracle(&instance.db, &c.snapshot, &c.sql, &c.got) {
            phase.all.mismatches.push(e);
        }
    }
    let oracle_s = oracle_started.elapsed().as_secs_f64();
    instance.server.shutdown();
    if checked == 0 {
        phase
            .all
            .mismatches
            .push("no answer was checked".to_string());
    }

    let completed = phase.completed();
    if completed == 0 {
        return Err(format!("{}: no statement completed", spec.name));
    }
    let sorted = stats::sorted(&phase.all.latencies_ms);
    let cpu_s = phase.cpu_user_s + phase.cpu_sys_s;
    let mut metrics = Metrics::new();
    metrics.set(
        "setup_s",
        stats::median(&phase.setup_samples),
        phase.setup_samples.len(),
    );
    metrics.set("qphds", stats::median(&phase.qphds), phase.qphds.len());
    metrics.set(
        "queries_per_s",
        completed as f64 / phase.query_wall_s,
        completed as usize,
    );
    metrics.set(
        "round_s",
        stats::median(&phase.all.rounds_s),
        phase.all.rounds_s.len(),
    );
    metrics.set(
        "query_p50_ms",
        stats::percentile(&sorted, 50.0),
        sorted.len(),
    );
    metrics.set(
        "query_p90_ms",
        stats::percentile(&sorted, 90.0),
        sorted.len(),
    );

    let mut notes = phase.notes;
    notes.push(format!(
        "cpu over the timed phase: user {:.2} s, sys {:.2} s, {:.3} ms per query; peak RSS {peak_rss_mb:.0} MiB",
        phase.cpu_user_s,
        phase.cpu_sys_s,
        cpu_s * 1e3 / completed as f64
    ));
    match stats::tail_percentile(sorted.len()) {
        Some(p) => notes.push(format!(
            "highest percentile with ten samples beyond it: p{p} = {:.3} ms ({} samples)",
            stats::percentile(&sorted, p),
            sorted.len()
        )),
        None => notes.push(format!(
            "{} samples: fewer than ten lie beyond p90",
            sorted.len()
        )),
    }
    notes.push(format!(
        "{checked} answers re-run on the row path ({:.2} s after the timed phase), {} mismatches",
        oracle_s,
        phase.all.mismatches.len()
    ));
    notes.extend(phase.all.mismatches.iter().map(|m| format!("MISMATCH {m}")));

    Ok(Outcome {
        metrics,
        attempted: phase.all.attempted,
        failed: phase.all.failed,
        correct: phase.all.mismatches.is_empty(),
        notes,
        rows_per_table,
    })
}

/// What the query runs of `fig11` issue.
struct Streams<'a> {
    templates: &'a Workload,
    seed: u64,
    streams: usize,
    /// `--smoke` issues every n-th statement of a stream.
    every: usize,
    verify_every: usize,
}

/// One query run of Figure 11: every stream on its own connection,
/// concurrently, each in its own dsqgen order. Run 2 uses fresh stream
/// numbers, so its orders and substitutions differ from run 1's.
fn query_run(
    plan: &Streams,
    instance: &Instance,
    run: u64,
    phase: &mut Phase,
) -> Result<Duration, String> {
    let snapshot = instance.db.snapshot();
    let lists = (0..plan.streams as u64)
        .map(|s| {
            let stream = (run - 1) * plan.streams as u64 + s;
            workloads::stream_statements(plan.templates, plan.seed, stream, &[])
                .map(|list| workloads::thin(list, plan.every))
        })
        .collect::<Result<Vec<_>, _>>()?;
    let mut clients = (0..plan.streams)
        .map(|_| instance.connect())
        .collect::<Result<Vec<_>, _>>()?;
    let started = Instant::now();
    let results: Vec<Stream> = std::thread::scope(|scope| {
        let handles: Vec<_> = clients
            .iter_mut()
            .zip(&lists)
            .enumerate()
            .map(|(s, (client, list))| {
                let snapshot = &snapshot;
                scope.spawn(move || {
                    let mut stream = Stream::default();
                    let tag = format!("qr{run}-s{s}");
                    stream.run_list(client, list, 1, &tag, Some(plan.verify_every), snapshot);
                    stream
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("a query stream panicked"))
            .collect()
    });
    let wall = started.elapsed();
    for stream in results {
        phase.all.merge(stream);
    }
    Ok(wall)
}

/// `fig11`: each round is a whole Figure 11 sequence on a fresh
/// database. Returns the last instance, which the oracle reads.
fn fig11(
    spec: &WorkloadSpec,
    first: Instance,
    plan: &Streams,
    seconds: f64,
    phase: &mut Phase,
) -> Result<Instance, String> {
    let streams = plan.streams;
    let started = Instant::now();
    let mut instance = first;
    loop {
        let before = phase.completed();
        let cpu = CpuClock::start();
        let t_qr1 = query_run(plan, &instance, 1, phase)?;
        let dm_started = Instant::now();
        let report = maint::run_maintenance(&instance.db, &instance.generator, 0)
            .map_err(|e| format!("data maintenance: {e}"))?;
        let t_dm = dm_started.elapsed();
        let t_qr2 = query_run(plan, &instance, 2, phase)?;
        cpu.stop(phase);

        let t_load = instance.times.t_load();
        let completed = phase.completed() - before;
        phase.qphds.push(qphds(
            spec.sf, streams, completed, t_qr1, t_dm, t_qr2, t_load,
        ));
        phase
            .all
            .rounds_s
            .push((t_qr1 + t_dm + t_qr2).as_secs_f64());
        phase.query_wall_s += (t_qr1 + t_qr2).as_secs_f64();
        phase.notes.push(format!(
            "figure 11 round: T_load {:.3} s, T_QR1 {:.3} s, T_DM {:.3} s ({} rows), T_QR2 {:.3} s, {} queries",
            t_load.as_secs_f64(),
            t_qr1.as_secs_f64(),
            t_dm.as_secs_f64(),
            report.total_rows(),
            t_qr2.as_secs_f64(),
            completed
        ));
        if !another_round_fits(started, &phase.all.rounds_s, seconds) {
            return Ok(instance);
        }
        // The oracle of the finished round must run before its database
        // goes away; later rounds only add timing samples.
        phase.all.checks.clear();
        drop(instance);
        instance = setup::set_up(spec.sf, plan.seed, streams)?;
        phase.setup_samples.push(instance.times.total_s());
    }
}

/// `power`: one client walks the template list, every query on all
/// workers; a round is one pass.
fn power(
    spec: &WorkloadSpec,
    instance: &Instance,
    list: &[Stmt],
    workers: usize,
    seconds: f64,
    phase: &mut Phase,
) -> Result<(), String> {
    let snapshot = instance.db.snapshot();
    let mut client = instance.connect()?;
    let cpu = CpuClock::start();
    let started = Instant::now();
    loop {
        let mut stream = Stream::default();
        let round = phase.all.rounds_s.len();
        // The list repeats, so checking the first pass checks them all.
        let verify_every = (round == 0).then_some(spec.verify_every);
        let round_started = Instant::now();
        stream.run_list(
            &mut client,
            list,
            workers,
            &format!("p{round}"),
            verify_every,
            &snapshot,
        );
        stream.rounds_s.push(round_started.elapsed().as_secs_f64());
        phase.all.merge(stream);
        if !another_round_fits(started, &phase.all.rounds_s, seconds) {
            break;
        }
    }
    let wall = started.elapsed();
    cpu.stop(phase);
    phase.query_wall_s = wall.as_secs_f64();
    let zero = Duration::ZERO;
    let t_load = instance.times.t_load();
    phase.qphds.push(qphds(
        spec.sf,
        1,
        phase.completed(),
        wall,
        zero,
        zero,
        t_load,
    ));
    Ok(())
}

/// `dm_mixed`: an in-process writer commits refresh sets back to back
/// for `seconds` while one client loops the read cycle; a round is one
/// refresh set. The reader re-runs one answer in `verify_every` on the
/// row path at once, on the snapshot it pinned around the request.
fn dm_mixed(
    spec: &WorkloadSpec,
    instance: &Instance,
    cycle: &[Stmt],
    seconds: f64,
    phase: &mut Phase,
) -> Result<(), String> {
    let mut client = instance.connect()?;
    let rows_before = instance.db.total_rows() as i64;
    let writer_done = AtomicBool::new(false);
    let cpu = CpuClock::start();
    let started = Instant::now();
    let (written, read) = std::thread::scope(|scope| {
        let writer = scope.spawn(|| {
            let mut rounds_s = Vec::new();
            let mut reports = Vec::new();
            let mut outcome = Ok(());
            for seq in 0.. {
                let round_started = Instant::now();
                match maint::run_maintenance(&instance.db, &instance.generator, seq) {
                    Ok(report) => reports.push(report),
                    Err(e) => {
                        outcome = Err(format!("refresh set {seq}: {e}"));
                        break;
                    }
                }
                rounds_s.push(round_started.elapsed().as_secs_f64());
                if started.elapsed().as_secs_f64() >= seconds {
                    break;
                }
            }
            writer_done.store(true, Ordering::SeqCst);
            (rounds_s, reports, outcome)
        });
        let reader = scope.spawn(|| {
            let mut stream = Stream::default();
            let mut verified = 0usize;
            let mut moved_on = 0usize;
            let mut n = 0usize;
            while !writer_done.load(Ordering::SeqCst) {
                let stmt = &cycle[n % cycle.len()];
                // `Database::snapshot_at` would wait for the writer's open
                // transaction; pinning the head before and after does not.
                let before = n
                    .is_multiple_of(spec.verify_every)
                    .then(|| instance.db.snapshot());
                let issued = stream.issue(&mut client, stmt, 1, format!("r-{n}"), before.is_some());
                n += 1;
                let Some((got, version)) = issued else {
                    continue;
                };
                let pinned = [before, Some(instance.db.snapshot())]
                    .into_iter()
                    .flatten()
                    .find(|s| s.version() == version);
                let Some(snapshot) = pinned else {
                    moved_on += 1;
                    continue;
                };
                verified += 1;
                if let Err(e) = check::against_oracle(&instance.db, &snapshot, &stmt.sql, &got) {
                    stream.mismatches.push(format!("at version {version}: {e}"));
                }
            }
            (stream, verified, moved_on)
        });
        (
            writer.join().expect("the writer panicked"),
            reader.join().expect("the reader panicked"),
        )
    });
    let wall = started.elapsed();
    cpu.stop(phase);

    let (rounds_s, reports, outcome) = written;
    outcome?;
    let (stream, verified, moved_on) = read;
    phase.checked += verified;
    phase.all.merge(stream);
    phase.all.rounds_s = rounds_s;
    phase.query_wall_s = wall.as_secs_f64();
    let zero = Duration::ZERO;
    let t_load = instance.times.t_load();
    phase.qphds.push(qphds(
        spec.sf,
        1,
        phase.completed(),
        zero,
        wall,
        zero,
        t_load,
    ));

    // The reports must account for every row that came or went.
    let net: i64 = reports
        .iter()
        .flat_map(|r| &r.ops)
        .map(|op| op.inserted as i64 - op.deleted as i64)
        .sum();
    let rows_after = instance.db.total_rows() as i64;
    if rows_after - rows_before != net {
        phase.all.mismatches.push(format!(
            "refresh reports account for {net} rows, the tables changed by {}",
            rows_after - rows_before
        ));
    }
    let changed: Vec<usize> = reports.iter().map(|r| r.total_rows()).collect();
    phase.notes.push(format!(
        "{} refresh sets in {:.3} s, rows changed per set {changed:?}; \
         {verified} reads checked on the row path as they came, {moved_on} skipped \
         (computed on a version between the two pinned)",
        reports.len(),
        wall.as_secs_f64(),
    ));
    Ok(())
}

/// `short`: every client draws from its own seeded mix until the time is
/// up; a round is `SHORT_ROUND` consecutive statements of one client.
fn short(
    instance: &Instance,
    seed: u64,
    clients: usize,
    seconds: f64,
    phase: &mut Phase,
) -> Result<(), String> {
    let snapshot = instance.db.snapshot();
    let mut connections = (0..clients)
        .map(|_| instance.connect())
        .collect::<Result<Vec<_>, _>>()?;
    let cpu = CpuClock::start();
    let started = Instant::now();
    let results: Vec<(Stream, HashMap<String, QueryResult>)> = std::thread::scope(|scope| {
        let handles: Vec<_> = connections
            .iter_mut()
            .enumerate()
            .map(|(c, client)| {
                scope.spawn(move || {
                    let mut stream = Stream::default();
                    // The data does not change, so one statement has one answer.
                    let mut answers: HashMap<String, QueryResult> = HashMap::new();
                    let mut round_started = Instant::now();
                    for (n, stmt) in ShortMix::new(&instance.generator, seed, c).enumerate() {
                        if started.elapsed().as_secs_f64() >= seconds {
                            break;
                        }
                        let query_id = format!("c{c}-{n}");
                        if let Some((got, _)) = stream.issue(client, &stmt, 1, query_id, true) {
                            let again = runner::fingerprint(&got);
                            let first = answers.entry(stmt.sql.clone()).or_insert(got);
                            if runner::fingerprint(first) != again {
                                stream
                                    .mismatches
                                    .push(format!("two answers to one statement: {}", stmt.sql));
                            }
                        }
                        if (n + 1) % SHORT_ROUND == 0 {
                            stream.rounds_s.push(round_started.elapsed().as_secs_f64());
                            round_started = Instant::now();
                        }
                    }
                    (stream, answers)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("a client panicked"))
            .collect()
    });
    let wall = started.elapsed();
    cpu.stop(phase);
    for (stream, answers) in results {
        phase.all.merge(stream);
        phase
            .all
            .checks
            .extend(answers.into_iter().map(|(sql, got)| Check {
                sql,
                snapshot: Arc::clone(&snapshot),
                got,
            }));
    }
    if phase.all.rounds_s.is_empty() {
        // A run too short for one full round (`--smoke`) still reports one.
        phase.all.rounds_s.push(wall.as_secs_f64());
    }
    phase.query_wall_s = wall.as_secs_f64();
    let zero = Duration::ZERO;
    let t_load = instance.times.t_load();
    phase.qphds.push(qphds(
        instance.generator.scale_factor(),
        clients,
        phase.completed(),
        wall,
        zero,
        zero,
        t_load,
    ));
    Ok(())
}
