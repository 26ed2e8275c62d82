//! The traced pass: one client re-issues a thinned round of the
//! workload while the benchmark wraps every call into a public function
//! of the system in a span. It yields the per-layer metrics, checks
//! every answer on the row path, and writes the spans to
//! `out/trace-<workload>.json`.
//!
//! The sequence is the same for every workload, so every layer metric is
//! measured on each: generate, load, serve, ping, client pass A with the
//! in-process decomposition of each statement, refresh sets, client
//! pass B, storage probes.

use std::collections::BTreeMap;
use std::path::Path;
use std::sync::{mpsc, Arc};
use std::time::Instant;

use tpcds_core::engine::{self, Database, RoutePath};
use tpcds_core::obs::json::Json;
use tpcds_core::server::{protocol, Client};
use tpcds_core::types::Value;
use tpcds_core::{maint, runner, Generator, Workload};

use crate::check;
use crate::env;
use crate::setup::{self, Instance};
use crate::spec::{Metrics, Outcome, PROBES};
use crate::stats;
use crate::trace::Recorder;
use crate::workloads::{self, Stmt, WorkloadSpec, SMOKE_EVERY};

/// Round trips behind `server.ping.us_p50`.
const PINGS: usize = 50;
/// Repetitions behind each storage probe's median.
const PROBE_REPS: usize = 5;
/// Empty spans timed to estimate what recording one costs.
const CALIBRATION_SPANS: usize = 10_000;

/// Sums over the statements of client pass A, seconds unless noted.
#[derive(Default)]
struct Decomposition {
    client: Vec<f64>,
    wire: Vec<f64>,
    parse_s: f64,
    plan_s: f64,
    inproc_s: f64,
    exec_s: f64,
    encode_s: f64,
    decode_s: f64,
    result_bytes: usize,
    rows_out: usize,
    node_rows: u64,
    columnar_node_rows: u64,
    fallback_free: usize,
    class_wall_s: BTreeMap<&'static str, f64>,
    mismatches: Vec<String>,
    failed: u64,
}

/// A long-lived thread that does nothing but run the in-process calls,
/// as a server session does nothing but run its client's queries. At
/// the baseline commit a query measured 15-30 % faster on the thread
/// that had loaded the data than on a session thread, so timing the
/// in-process side anywhere else would compare unlike things.
struct Session {
    jobs: Option<mpsc::Sender<Box<dyn FnOnce() + Send>>>,
    thread: Option<std::thread::JoinHandle<()>>,
}

impl Session {
    fn start() -> Result<Session, String> {
        let (jobs, inbox) = mpsc::channel::<Box<dyn FnOnce() + Send>>();
        let thread = std::thread::Builder::new()
            .name("bench-inproc-session".to_string())
            .spawn(move || inbox.into_iter().for_each(|job| job()))
            .map_err(|e| format!("in-process session: {e}"))?;
        Ok(Session {
            jobs: Some(jobs),
            thread: Some(thread),
        })
    }

    /// Runs `f` on the session thread and waits for its result.
    fn run<T: Send + 'static>(&self, f: impl FnOnce() -> T + Send + 'static) -> T {
        let (done, result) = mpsc::channel();
        self.jobs
            .as_ref()
            .expect("the session runs until it is dropped")
            .send(Box::new(move || {
                let _ = done.send(f());
            }))
            .expect("the in-process session thread is alive");
        result.recv().expect("the in-process session ran the job")
    }
}

impl Drop for Session {
    fn drop(&mut self) {
        drop(self.jobs.take());
        if let Some(thread) = self.thread.take() {
            // A job that panicked has already failed its `run`.
            let _ = thread.join();
        }
    }
}

type Stopwatch = (Instant, Instant);

fn timed<T>(f: impl FnOnce() -> T) -> (T, Stopwatch) {
    let started = Instant::now();
    let out = f();
    (out, (started, Instant::now()))
}

/// One statement taken apart in-process.
struct InProcess {
    parse: Stopwatch,
    /// Parse + bind + optimize.
    plan_sql: Stopwatch,
    /// The whole query, with per-node routing.
    whole: Stopwatch,
    analyzed: engine::Result<engine::AnalyzedResult>,
}

fn in_process(db: &Database, sql: &str, workers: usize) -> InProcess {
    let (_, parse) = timed(|| engine::parser::parse(sql).map(drop));
    let (_, plan_sql) = timed(|| engine::plan_sql(db, sql).map(drop));
    let (analyzed, whole) =
        timed(|| engine::query_analyze_with(db, sql, setup::exec_opts(workers)));
    InProcess {
        parse,
        plan_sql,
        whole,
        analyzed,
    }
}

/// What the steps of a traced pass share.
struct Pass<'a> {
    rec: Recorder,
    instance: &'a Instance,
    /// Where the in-process calls run.
    session: Session,
    /// Morsel workers per query, over the wire and in-process alike.
    workers: usize,
    sums: Decomposition,
}

/// Issues `stmt` through the client and takes the same statement apart
/// in-process: parse, parse + bind + optimize, the whole query with
/// per-node routing; then the row-path oracle and the wire codec over
/// the rows that came back.
///
/// Whichever side runs a statement first pays for cold caches and fresh
/// allocations, so the sides take turns: summed over a pass, neither
/// the server's stopwatch nor the in-process one is the warmer.
fn decompose(pass: &mut Pass, parent: usize, index: usize, stmt: &Stmt, client: &mut Client) {
    let Pass {
        rec,
        instance,
        session,
        workers,
        sums,
    } = pass;
    let workers = *workers;
    let at = Some(index);
    let span = rec.open("bench.statement", Some(parent), at);
    let opts = setup::query_opts(workers, format!("a-{index}"));
    let mut over_wire = |rec: &mut Recorder| {
        let call = rec.open("server.client.query", Some(span), at);
        let answer = client.query_with(&stmt.sql, &opts);
        let client_s = rec.close(call);
        if let Ok(remote) = &answer {
            // The server reports how long admission and execution took,
            // not when; centred in the call, it leaves the wire overhead
            // as the call's self time.
            rec.record_inside("server.query.reported", call, at, remote.elapsed_us as f64);
        }
        (answer, client_s)
    };
    let take_apart = || {
        let (db, sql) = (Arc::clone(&instance.db), stmt.sql.clone());
        session.run(move || in_process(&db, &sql, workers))
    };
    let ((answer, client_s), inproc) = if index.is_multiple_of(2) {
        let wire = over_wire(rec);
        (wire, take_apart())
    } else {
        let inproc = take_apart();
        (over_wire(rec), inproc)
    };
    let parse_s = rec.record("engine.parse", Some(span), at, inproc.parse);
    let plan_sql_s = rec.record("engine.plan_sql", Some(span), at, inproc.plan_sql);
    let inproc_s = rec.record("engine.inproc", Some(span), at, inproc.whole);
    let analyzed = inproc.analyzed;
    let (remote, analyzed) = match (answer, analyzed) {
        (Ok(r), Ok(a)) => (r, a),
        (r, a) => {
            sums.failed += 1;
            let errors = [
                r.err().map(|e| e.to_string()),
                a.err().map(|e| e.to_string()),
            ];
            sums.mismatches
                .push(format!("statement {} failed: {errors:?}", stmt.id));
            rec.close(span);
            return;
        }
    };

    // The server's own stopwatch covers admission and execution; what
    // the client waited beyond it is the wire: framing, codec, transport.
    let wire_s = client_s - remote.elapsed_us as f64 / 1e6;
    let exec_s = (inproc_s - plan_sql_s).max(0.0);
    sums.client.push(client_s);
    sums.wire.push(wire_s);
    sums.parse_s += parse_s;
    sums.plan_s += (plan_sql_s - parse_s).max(0.0);
    sums.inproc_s += inproc_s;
    sums.exec_s += exec_s;
    if let Some(class) = stmt.class {
        *sums.class_wall_s.entry(class).or_default() += client_s;
    }

    let executed = analyzed.nodes.iter().filter(|n| n.executed);
    sums.node_rows += executed.clone().map(|n| n.rows).sum::<u64>();
    sums.columnar_node_rows += executed
        .clone()
        .filter(|n| n.route == RoutePath::Columnar)
        .map(|n| n.rows)
        .sum::<u64>();
    if executed.clone().all(|n| n.fallback.is_none()) {
        sums.fallback_free += 1;
    }
    sums.rows_out += analyzed.result.rows.len();

    let rows = &analyzed.result.rows;
    let (frame, encode_s) = rec.time("server.protocol.encode", Some(span), at, || encode(rows));
    let (decoded, decode_s) = rec.time("server.protocol.decode", Some(span), at, || decode(&frame));
    sums.encode_s += encode_s;
    sums.decode_s += decode_s;
    sums.result_bytes += frame.len();
    if decoded.as_deref() != Ok(rows.as_slice()) {
        sums.mismatches
            .push(format!("wire codec does not round-trip: {}", stmt.sql));
    }

    // Nothing commits during pass A, so the head is the snapshot both
    // answers were computed on.
    let snapshot = instance.db.snapshot();
    let over_wire = setup::into_query_result(remote);
    let mut answers = vec![("wire", &over_wire)];
    if runner::fingerprint(&over_wire) != runner::fingerprint(&analyzed.result) {
        answers.push(("in-process", &analyzed.result));
    }
    let ((), _) = rec.time("bench.oracle", Some(span), at, || {
        for (path, got) in answers {
            if let Err(e) = check::against_oracle(&instance.db, &snapshot, &stmt.sql, got) {
                sums.mismatches.push(format!("{path}: {e}"));
            }
        }
    });
    rec.close(span);
}

/// `protocol::encode_row` + `write_frame` of a result set into memory.
fn encode(rows: &[Vec<Value>]) -> Vec<u8> {
    let doc = Json::Arr(rows.iter().map(|r| protocol::encode_row(r)).collect());
    let mut frame = Vec::new();
    protocol::write_frame(&mut frame, &doc).expect("writing a frame to memory cannot fail");
    frame
}

/// `protocol::read_frame` + `decode_row` of what [`encode`] wrote.
fn decode(frame: &[u8]) -> Result<Vec<Vec<Value>>, String> {
    let doc = protocol::read_frame(&mut &frame[..])
        .map_err(|e| e.to_string())?
        .ok_or("empty frame")?;
    doc.as_arr()
        .ok_or("frame is not a row list")?
        .iter()
        .map(protocol::decode_row)
        .collect()
}

/// Input rows per second of one single-operator probe at `workers`:
/// median of [`PROBE_REPS`] runs.
fn probe(pass: &mut Pass, parent: usize, name: &str, workers: usize) -> Result<f64, String> {
    let Pass {
        rec,
        instance,
        session,
        ..
    } = pass;
    let sql = workloads::probe_sql(name);
    let mut walls = Vec::with_capacity(PROBE_REPS);
    for _ in 0..PROBE_REPS {
        let db = Arc::clone(&instance.db);
        let (result, stopwatch) =
            session.run(move || timed(|| engine::query_with(&db, sql, setup::exec_opts(workers))));
        std::hint::black_box(result.map_err(|e| format!("probe {name}: {e}"))?);
        walls.push(rec.record("storage.probe", Some(parent), None, stopwatch));
    }
    Ok(instance.db.row_count("store_sales") as f64 / stats::median(&walls))
}

/// Mean admission wait of the server's queries, microseconds, read the
/// way an operator would: from `sys.query_log` over the wire.
fn admission_wait_us_mean(client: &mut Client) -> Result<(f64, usize), String> {
    let log = client
        .query("select admission_wait_us from sys.query_log where session > 0")
        .map_err(|e| format!("sys.query_log: {e}"))?;
    let waits: Vec<f64> = log
        .rows
        .iter()
        .filter_map(|r| r.first().and_then(Value::as_int))
        .map(|us| us as f64)
        .collect();
    if waits.is_empty() {
        return Err("sys.query_log holds no server query".to_string());
    }
    Ok((waits.iter().sum::<f64>() / waits.len() as f64, waits.len()))
}

/// Runs the traced pass of `spec` and writes its spans under `out_dir`.
/// Pass A stops taking new statements after `seconds`, so a slow machine
/// cuts the list short instead of overrunning the run.
pub fn run(
    spec: &WorkloadSpec,
    seed: u64,
    seconds: f64,
    smoke: bool,
    out_dir: &Path,
) -> Result<Outcome, String> {
    let w = env::nproc();
    let workers = spec.workers(w);
    let templates = Workload::tpcds().map_err(|e| format!("templates: {e}"))?;
    let mut rec = Recorder::new();
    let root = rec.open("bench.traced", None, None);

    // Generation alone, on one thread; the load below generates again.
    let generator = Generator::with_seed(spec.sf, seed);
    let (generated, generate_s) = rec.time("dgen.generate", Some(root), None, || {
        generator
            .schema()
            .tables()
            .iter()
            .map(|t| generator.generate(t.name).len())
            .sum::<usize>()
    });

    let instance = setup::set_up(spec.sf, seed, 1)?;
    let t = instance.times;
    let load_s = rec.record("maint.load", Some(root), None, (t.started, t.loaded));
    let aux_s = rec.record("runner.aux", Some(root), None, (t.loaded, t.aux_built));
    let server_start_s = rec.record("server.start", Some(root), None, (t.aux_built, t.serving));
    let rows_loaded = instance.db.total_rows();
    let rows_per_table = instance.rows_per_table();

    let session = Session::start()?;
    let mut client = instance.connect()?;
    for _ in 0..PINGS / if smoke { SMOKE_EVERY } else { 1 } {
        let (pong, _) = rec.time("server.ping", Some(root), None, || client.ping());
        pong.map_err(|e| format!("ping: {e}"))?;
    }

    let every = spec.traced_every * if smoke { SMOKE_EVERY } else { 1 };
    let round = workloads::round_statements(spec, &templates, &instance.generator, seed)?;
    let list = workloads::thin(round, every);

    // Pass A: query run 1 of the traced sequence, decomposed.
    let mut pass = Pass {
        rec,
        instance: &instance,
        session,
        workers,
        sums: Decomposition::default(),
    };
    let qr1 = pass.rec.open("runner.qr1", Some(root), None);
    let pass_started = Instant::now();
    let mut issued = 0;
    for (i, stmt) in list.iter().enumerate() {
        if pass_started.elapsed().as_secs_f64() >= seconds {
            break;
        }
        decompose(&mut pass, qr1, i, stmt, &mut client);
        issued += 1;
    }
    pass.rec.close(qr1);
    if pass.sums.client.is_empty() {
        return Err(format!("{}: no traced statement completed", spec.name));
    }

    // Data maintenance between the passes.
    let dm = pass.rec.open("runner.dm", Some(root), None);
    let version_before = instance.db.version();
    let mut rows_changed = 0;
    for seq in 0..spec.traced_refresh_sets {
        let (report, _) = pass.rec.time("maint.refresh", Some(dm), None, || {
            maint::run_maintenance(&instance.db, &instance.generator, seq)
        });
        rows_changed += report
            .map_err(|e| format!("refresh set {seq}: {e}"))?
            .total_rows();
    }
    let commits = instance.db.version() - version_before;
    pass.rec.close(dm);

    // Pass B: the same statements after the commits, client side only.
    let qr2 = pass.rec.open("runner.qr2", Some(root), None);
    for (i, stmt) in list.iter().take(issued).enumerate() {
        let opts = setup::query_opts(workers, format!("b-{i}"));
        let (answer, _) = pass
            .rec
            .time("server.client.query", Some(qr2), Some(i), || {
                client.query_with(&stmt.sql, &opts)
            });
        if let Err(e) = answer {
            pass.sums.failed += 1;
            pass.sums.mismatches.push(format!(
                "statement {} failed after maintenance: {e}",
                stmt.id
            ));
        }
    }
    pass.rec.close(qr2);

    // Single-operator probes at one worker and at all of them.
    let probes = pass.rec.open("storage.probes", Some(root), None);
    let mut probe_rates = Vec::with_capacity(PROBES.len());
    for name in PROBES {
        let w1 = probe(&mut pass, probes, name, 1)?;
        let wn = probe(&mut pass, probes, name, w)?;
        probe_rates.push((w1, wn));
    }
    pass.rec.close(probes);

    let Pass { mut rec, sums, .. } = pass;

    // One client, one statement at a time: the peak is the hungriest
    // statement's, which the same seed reaches again.
    let peak_rss_mb = env::peak_rss_mb();
    let (admission_us, admission_samples) = admission_wait_us_mean(&mut client)?;
    drop(client);
    instance.server.shutdown();
    let traced_s = rec.close(root);

    // What the recording itself cost: an empty span's price times the
    // spans taken, as a share of the pass.
    let recorded = rec.spans().len();
    let mut calibration = Recorder::new();
    let calibration_started = Instant::now();
    for _ in 0..CALIBRATION_SPANS {
        calibration.time("bench.empty", None, None, || ());
    }
    let per_span_s = calibration_started.elapsed().as_secs_f64() / CALIBRATION_SPANS as f64;

    let trace_path = out_dir.join(format!("trace-{}.json", spec.name));
    std::fs::create_dir_all(out_dir)
        .and_then(|()| std::fs::write(&trace_path, rec.to_json().to_string()))
        .map_err(|e| format!("{}: {e}", trace_path.display()))?;

    let n = sums.client.len();
    let client_s: f64 = sums.client.iter().sum();
    let wire_s: f64 = sums.wire.iter().sum();
    let refresh = rec.durations("maint.refresh");
    let refresh_s: f64 = refresh.iter().sum();
    let pings_us: Vec<f64> = rec
        .durations("server.ping")
        .iter()
        .map(|s| s * 1e6)
        .collect();
    let wire_ms: Vec<f64> = sums.wire.iter().map(|s| s * 1e3).collect();
    let mb = sums.result_bytes as f64 / 1e6;

    let mut m = Metrics::new();
    m.set("dgen.generate.busy_s", generate_s, 1);
    m.set(
        "dgen.generate.rows_per_s",
        generated as f64 / generate_s,
        generated,
    );
    m.set("maint.load.busy_s", load_s, 1);
    m.set(
        "maint.load.rows_per_s",
        rows_loaded as f64 / load_s,
        rows_loaded,
    );
    m.set("runner.aux.busy_s", aux_s, 1);
    m.set("server.start.busy_ms", server_start_s * 1e3, 1);
    m.set(
        "maint.refresh.busy_s",
        stats::median(&refresh),
        refresh.len(),
    );
    m.set(
        "maint.refresh.rows_changed",
        rows_changed as f64,
        refresh.len(),
    );
    m.set(
        "maint.refresh.us_per_row",
        refresh_s * 1e6 / rows_changed.max(1) as f64,
        rows_changed,
    );
    m.set("engine.snapshot.commits", commits as f64, refresh.len());
    m.set("runner.load_s", load_s + aux_s, 1);
    m.set("runner.qr1_s", client_s, n);
    m.set("runner.dm_s", refresh_s, refresh.len());
    m.set(
        "runner.qr2_s",
        rec.busy("server.client.query") - client_s,
        issued,
    );
    m.set("engine.parse.busy_ms", sums.parse_s * 1e3, n);
    m.set("engine.plan.busy_ms", sums.plan_s * 1e3, n);
    m.set("engine.inproc.busy_s", sums.inproc_s, n);
    m.set("engine.exec.busy_s", sums.exec_s, n);
    m.set("engine.exec.share", sums.exec_s / sums.inproc_s, n);
    m.set("engine.rows_out", sums.rows_out as f64, n);
    m.set(
        "engine.route.columnar_rows_frac",
        sums.columnar_node_rows as f64 / sums.node_rows.max(1) as f64,
        n,
    );
    m.set(
        "engine.route.fallback_free_queries",
        sums.fallback_free as f64,
        n,
    );
    for (name, (w1, wn)) in PROBES.iter().zip(&probe_rates) {
        m.set(format!("storage.{name}.rows_per_s.w1"), *w1, PROBE_REPS);
        m.set(format!("storage.{name}.rows_per_s.wn"), *wn, PROBE_REPS);
        m.set(format!("storage.{name}.scaling"), wn / w1, PROBE_REPS);
    }
    m.set(
        "server.ping.us_p50",
        stats::median(&pings_us),
        pings_us.len(),
    );
    m.set("server.wire.overhead_ms_p50", stats::median(&wire_ms), n);
    m.set("server.wire.overhead_share", wire_s / client_s, n);
    m.set("server.protocol.encode_mb_per_s", mb / sums.encode_s, n);
    m.set("server.protocol.decode_mb_per_s", mb / sums.decode_s, n);
    m.set("server.result.bytes", sums.result_bytes as f64, n);
    m.set(
        "server.admission.wait_us_mean",
        admission_us,
        admission_samples,
    );
    m.set("bench.peak_rss_mb", peak_rss_mb, 1);
    m.set(
        "bench.closure_frac",
        (sums.parse_s + sums.plan_s + sums.exec_s + wire_s) / client_s,
        n,
    );
    m.set(
        "bench.trace.overhead_frac",
        per_span_s * recorded as f64 / traced_s,
        recorded,
    );

    let mut notes = vec![
        format!(
            "traced {issued} of {} statements (every {every} of a round), {} workers in-process",
            list.len(),
            workers
        ),
        format!("{recorded} spans written to {}", trace_path.display()),
    ];
    for (class, wall_s) in &sums.class_wall_s {
        notes.push(format!("runner.class.{class}.wall_s {wall_s:.6} s"));
    }
    notes.push(format!(
        "{n} answers checked on the row path, over the wire and in-process; {} mismatches",
        sums.mismatches.len()
    ));
    notes.extend(sums.mismatches.iter().map(|m| format!("MISMATCH {m}")));

    Ok(Outcome {
        metrics: m,
        attempted: (issued * 2) as u64,
        failed: sums.failed,
        correct: sums.mismatches.is_empty(),
        notes,
        rows_per_table,
    })
}
