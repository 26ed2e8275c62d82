//! `tpcds-server` — a concurrent multi-client TCP front end over the
//! snapshot-isolated engine.
//!
//! The TPC-DS throughput test runs S query streams *concurrently* with
//! data maintenance; a single-process harness can fake that with threads,
//! but the benchmark's client/server shape only appears once queries
//! arrive over real connections. This crate provides that shape with the
//! same zero-dependency discipline as the rest of the workspace: a
//! length-prefixed JSON protocol ([`protocol`]), thread-per-connection
//! sessions, and a bounded admission controller ([`admission`]) in front
//! of the executor.
//!
//! Isolation comes from the engine's snapshot catalog: each query pins
//! `Arc<DbSnapshot>` at dispatch and never takes a lock, so sixteen
//! clients read steadily while the maintenance writer publishes new
//! versions underneath them. Every response carries the snapshot version
//! it executed against, which is what makes the concurrent soak test
//! checkable — a client can hand that version to an oracle re-running the
//! same query serially via [`tpcds_engine::query_pinned`].

pub mod admission;
pub mod protocol;

mod client;

pub use admission::Admission;
pub use client::{Client, ClientError, QueryOpts, RemoteResult};

use std::collections::HashMap;
use std::io::Read;
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicI64, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, Weak};
use std::time::{Duration, Instant};

use tpcds_engine::{ColumnarMode, Database, ExecOptions, QueryMeta, QueryRecord};
use tpcds_obs::json::Json;
use tpcds_types::{Row, Value};

/// How a [`Server`] listens and admits work.
#[derive(Clone, Debug)]
pub struct ServerConfig {
    /// Bind address; port 0 picks a free port (see [`Server::local_addr`]).
    pub addr: String,
    /// Queries executing at once; further queries queue in admission.
    /// Zero clamps to one.
    pub max_concurrent_queries: usize,
    /// Sessions idle longer than this are closed by the server.
    pub idle_timeout: Duration,
    /// Queries whose wall time meets this threshold render their profile
    /// (EXPLAIN ANALYZE detail) on stderr and are counted under
    /// `server.slow_queries`. Zero (the default) disables.
    pub slow_query_ms: u64,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            addr: "127.0.0.1:0".to_string(),
            max_concurrent_queries: std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(4),
            idle_timeout: Duration::from_secs(30),
            slow_query_ms: 0,
        }
    }
}

/// Live per-connection state backing one `sys.sessions` row (and, while
/// a query runs, one `sys.queries` row).
struct SessionInfo {
    id: u64,
    peer: String,
    state: Mutex<&'static str>,
    queries: AtomicU64,
    bytes_in: AtomicU64,
    bytes_out: AtomicU64,
    current: Mutex<Option<InflightQuery>>,
}

impl SessionInfo {
    fn new(id: u64, peer: String) -> SessionInfo {
        SessionInfo {
            id,
            peer,
            state: Mutex::new("idle"),
            queries: AtomicU64::new(0),
            bytes_in: AtomicU64::new(0),
            bytes_out: AtomicU64::new(0),
            current: Mutex::new(None),
        }
    }

    fn set_state(&self, s: &'static str) {
        *self.state.lock().unwrap_or_else(|e| e.into_inner()) = s;
    }
}

/// One in-flight query as `sys.queries` reports it.
struct InflightQuery {
    query_id: String,
    sql: String,
    started: Instant,
    snapshot_version: u64,
    mode: String,
    state: &'static str,
}

/// State shared by the accept loop and every session thread.
struct Shared {
    db: Arc<Database>,
    admission: Admission,
    idle_timeout: Duration,
    slow_query_us: u64,
    shutdown: AtomicBool,
    sessions_active: AtomicI64,
    queries_inflight: AtomicI64,
    next_session: AtomicU64,
    sessions: Mutex<HashMap<u64, Arc<SessionInfo>>>,
}

impl Shared {
    fn session_opened(&self, info: &Arc<SessionInfo>) {
        let n = self.sessions_active.fetch_add(1, Ordering::SeqCst) + 1;
        tpcds_obs::metrics::gauge_set("server.sessions_active", n);
        tpcds_obs::counter("server", "connections", 1.0);
        self.sessions
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .insert(info.id, Arc::clone(info));
    }

    fn session_closed(&self, id: u64) {
        self.sessions
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .remove(&id);
        let n = self.sessions_active.fetch_sub(1, Ordering::SeqCst) - 1;
        tpcds_obs::metrics::gauge_set("server.sessions_active", n);
    }

    /// Sessions sorted by id — the `sys.sessions` provider.
    fn sessions_rows(&self) -> Vec<Row> {
        let mut infos: Vec<Arc<SessionInfo>> = self
            .sessions
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .values()
            .cloned()
            .collect();
        infos.sort_by_key(|s| s.id);
        infos
            .iter()
            .map(|s| {
                vec![
                    Value::Int(s.id as i64),
                    Value::str(&s.peer),
                    Value::str(*s.state.lock().unwrap_or_else(|e| e.into_inner())),
                    Value::Int(s.queries.load(Ordering::SeqCst) as i64),
                    Value::Int(s.bytes_in.load(Ordering::SeqCst) as i64),
                    Value::Int(s.bytes_out.load(Ordering::SeqCst) as i64),
                ]
            })
            .collect()
    }

    /// In-flight queries sorted by session — the `sys.queries` provider.
    fn queries_rows(&self) -> Vec<Row> {
        let mut infos: Vec<Arc<SessionInfo>> = self
            .sessions
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .values()
            .cloned()
            .collect();
        infos.sort_by_key(|s| s.id);
        let mut rows = Vec::new();
        for s in infos {
            let current = s.current.lock().unwrap_or_else(|e| e.into_inner());
            if let Some(q) = current.as_ref() {
                rows.push(vec![
                    Value::Int(s.id as i64),
                    Value::str(&q.query_id),
                    Value::str(&q.sql),
                    Value::Int(q.started.elapsed().as_micros() as i64),
                    Value::Int(q.snapshot_version as i64),
                    Value::str(&q.mode),
                    Value::str(q.state),
                ]);
            }
        }
        rows
    }
}

/// Decrements `sessions_active` (gauge and counter) and deregisters the
/// session on *every* exit path — clean EOF, idle timeout, protocol
/// error, or a panic unwinding out of query dispatch.
struct SessionGuard<'a> {
    shared: &'a Shared,
    id: u64,
}

impl Drop for SessionGuard<'_> {
    fn drop(&mut self) {
        self.shared.session_closed(self.id);
    }
}

/// Holds a `queries_inflight` increment and the session's `sys.queries`
/// row; drop (including panic unwind) decrements the gauge and clears
/// the row so a killed connection can never leak either.
struct InflightGuard<'a> {
    shared: &'a Shared,
    session: &'a SessionInfo,
}

impl<'a> InflightGuard<'a> {
    fn new(shared: &'a Shared, session: &'a SessionInfo) -> InflightGuard<'a> {
        let n = shared.queries_inflight.fetch_add(1, Ordering::SeqCst) + 1;
        tpcds_obs::metrics::gauge_set("server.queries_inflight", n);
        session.set_state("query");
        InflightGuard { shared, session }
    }
}

impl Drop for InflightGuard<'_> {
    fn drop(&mut self) {
        let n = self.shared.queries_inflight.fetch_sub(1, Ordering::SeqCst) - 1;
        tpcds_obs::metrics::gauge_set("server.queries_inflight", n);
        *self
            .session
            .current
            .lock()
            .unwrap_or_else(|e| e.into_inner()) = None;
        self.session.set_state("idle");
    }
}

/// A running server; dropping it (or calling [`Server::shutdown`]) stops
/// the accept loop and drains sessions.
pub struct Server {
    shared: Arc<Shared>,
    local_addr: SocketAddr,
    accept: Mutex<Option<std::thread::JoinHandle<()>>>,
}

impl Server {
    /// Binds, spawns the accept loop and returns. The engine warms up
    /// with `select 1` first so the binder's on-demand `__dual` relation
    /// exists in the head snapshot before any client pins one.
    pub fn start(db: Arc<Database>, config: ServerConfig) -> std::io::Result<Server> {
        let _ = tpcds_engine::query(&db, "select 1");
        let listener = TcpListener::bind(&config.addr)?;
        let local_addr = listener.local_addr()?;
        let shared = Arc::new(Shared {
            db,
            admission: Admission::new(config.max_concurrent_queries),
            idle_timeout: config.idle_timeout,
            slow_query_us: config.slow_query_ms.saturating_mul(1000),
            shutdown: AtomicBool::new(false),
            sessions_active: AtomicI64::new(0),
            queries_inflight: AtomicI64::new(0),
            next_session: AtomicU64::new(0),
            sessions: Mutex::new(HashMap::new()),
        });
        // `sys.sessions` / `sys.queries` read through a Weak so a stopped
        // server leaves empty tables behind (and a later server on the
        // same Database simply re-registers over it).
        let weak: Weak<Shared> = Arc::downgrade(&shared);
        shared.db.register_sys_provider("sys.sessions", move || {
            weak.upgrade()
                .map(|s| s.sessions_rows())
                .unwrap_or_default()
        });
        let weak: Weak<Shared> = Arc::downgrade(&shared);
        shared.db.register_sys_provider("sys.queries", move || {
            weak.upgrade().map(|s| s.queries_rows()).unwrap_or_default()
        });
        let accept_shared = Arc::clone(&shared);
        let accept = std::thread::Builder::new()
            .name("tpcds-accept".to_string())
            .spawn(move || accept_loop(listener, accept_shared))?;
        Ok(Server {
            shared,
            local_addr,
            accept: Mutex::new(Some(accept)),
        })
    }

    /// The bound address (resolves port 0).
    pub fn local_addr(&self) -> SocketAddr {
        self.local_addr
    }

    /// Sessions currently connected.
    pub fn sessions_active(&self) -> usize {
        self.shared.sessions_active.load(Ordering::SeqCst).max(0) as usize
    }

    /// Queries executing (or queued past admission) right now.
    pub fn queries_inflight(&self) -> usize {
        self.shared.queries_inflight.load(Ordering::SeqCst).max(0) as usize
    }

    /// Whether shutdown has been requested (by [`Server::shutdown`] or a
    /// client `shutdown` frame).
    pub fn is_shutting_down(&self) -> bool {
        self.shared.shutdown.load(Ordering::SeqCst)
    }

    /// Blocks until shutdown is requested — by [`Server::shutdown`] or a
    /// client `shutdown` frame — and all sessions have drained. This is
    /// what `tpcds serve` parks on.
    pub fn wait(&self) {
        while !self.shared.shutdown.load(Ordering::SeqCst) {
            std::thread::sleep(Duration::from_millis(50));
        }
        self.finish();
    }

    /// Requests shutdown and waits for the accept loop and sessions to
    /// finish. Idempotent.
    pub fn shutdown(&self) {
        self.shared.shutdown.store(true, Ordering::SeqCst);
        self.finish();
    }

    fn finish(&self) {
        // The accept loop blocks in accept(); a throwaway connection
        // wakes it so it can observe the flag and exit.
        let _ = TcpStream::connect(self.local_addr);
        if let Some(h) = self.accept.lock().unwrap_or_else(|e| e.into_inner()).take() {
            let _ = h.join();
        }
        self.drain();
    }

    /// Waits (bounded) for active sessions to notice the flag and exit.
    fn drain(&self) {
        let deadline = Instant::now() + Duration::from_secs(10);
        while self.shared.sessions_active.load(Ordering::SeqCst) > 0 && Instant::now() < deadline {
            std::thread::sleep(Duration::from_millis(10));
        }
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        if !self.shared.shutdown.load(Ordering::SeqCst) {
            self.shutdown();
        }
    }
}

fn accept_loop(listener: TcpListener, shared: Arc<Shared>) {
    for stream in listener.incoming() {
        if shared.shutdown.load(Ordering::SeqCst) {
            break;
        }
        let Ok(stream) = stream else { continue };
        let id = shared.next_session.fetch_add(1, Ordering::SeqCst) + 1;
        let session_shared = Arc::clone(&shared);
        let spawned = std::thread::Builder::new()
            .name(format!("tpcds-session-{id}"))
            .spawn(move || run_session(stream, id, session_shared));
        if spawned.is_err() {
            // Out of threads: refuse this client, keep serving others.
            continue;
        }
    }
}

/// One connection: framed request/response until EOF, idle timeout,
/// server shutdown or a fatal protocol error.
fn run_session(mut stream: TcpStream, id: u64, shared: Arc<Shared>) {
    let peer = stream
        .peer_addr()
        .map(|a| a.to_string())
        .unwrap_or_else(|_| "?".to_string());
    let info = Arc::new(SessionInfo::new(id, peer));
    shared.session_opened(&info);
    // From here on, every exit — return, break, or panic unwinding out of
    // dispatch — runs the guard: gauge decremented, registry row gone.
    let _guard = SessionGuard {
        shared: &shared,
        id,
    };
    let _span = tpcds_obs::span("server", "session");
    // Short read slices let the session poll the shutdown flag and its
    // idle deadline while parked between requests.
    let _ = stream.set_read_timeout(Some(Duration::from_millis(100)));
    let mut last_activity = Instant::now();
    loop {
        if shared.shutdown.load(Ordering::SeqCst) {
            break;
        }
        match read_request(&mut stream, &shared) {
            Ok(Some((req, nread))) => {
                last_activity = Instant::now();
                info.bytes_in.fetch_add(nread, Ordering::SeqCst);
                let (resp, close) = handle_request(&shared, &info, &req);
                match protocol::write_frame(&mut stream, &resp) {
                    Ok(nwritten) => {
                        info.bytes_out.fetch_add(nwritten as u64, Ordering::SeqCst);
                        if close {
                            break;
                        }
                    }
                    Err(_) => break,
                }
            }
            Ok(None) => break, // clean EOF or shutdown observed
            Err(Idle::Waiting) => {
                if last_activity.elapsed() >= shared.idle_timeout {
                    tpcds_obs::counter("server", "idle_closed", 1.0);
                    break;
                }
            }
            Err(Idle::Fatal(e)) => {
                let resp = error_response(format!("protocol error: {e}"));
                let _ = protocol::write_frame(&mut stream, &resp);
                break;
            }
        }
    }
    let _ = stream.shutdown(Shutdown::Both);
}

enum Idle {
    /// No request arrived within the poll slice; check deadlines and retry.
    Waiting,
    /// The connection is unusable (mid-frame EOF, bad frame, I/O error).
    Fatal(String),
}

fn is_timeout(e: &std::io::Error) -> bool {
    matches!(
        e.kind(),
        std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut
    )
}

/// Reads one frame without losing sync across poll timeouts: the timeout
/// only counts as "idle" before the first byte of a frame; once a frame
/// has started, the rest must arrive within a bounded window. Returns
/// the parsed request and its on-wire size (prefix + body).
fn read_request(stream: &mut TcpStream, shared: &Shared) -> Result<Option<(Json, u64)>, Idle> {
    let mut prefix = [0u8; 4];
    // First byte: this is where the session idles.
    match stream.read(&mut prefix[..1]) {
        Ok(0) => return Ok(None),
        Ok(_) => {}
        Err(e) if is_timeout(&e) => return Err(Idle::Waiting),
        Err(ref e) if e.kind() == std::io::ErrorKind::Interrupted => return Err(Idle::Waiting),
        Err(e) => return Err(Idle::Fatal(e.to_string())),
    }
    // A frame has started: finish it or fail, never "idle".
    let deadline = Instant::now() + Duration::from_secs(10);
    read_full(stream, &mut prefix[1..], deadline, shared)?;
    let len = u32::from_be_bytes(prefix);
    if len > protocol::MAX_FRAME {
        return Err(Idle::Fatal(format!(
            "frame of {len} bytes exceeds MAX_FRAME"
        )));
    }
    let mut body = vec![0u8; len as usize];
    read_full(stream, &mut body, deadline, shared)?;
    let text =
        String::from_utf8(body).map_err(|_| Idle::Fatal("frame is not UTF-8".to_string()))?;
    Json::parse(&text)
        .map(|j| Some((j, 4 + len as u64)))
        .map_err(|e| Idle::Fatal(format!("frame is not JSON: {e}")))
}

fn read_full(
    stream: &mut TcpStream,
    buf: &mut [u8],
    deadline: Instant,
    shared: &Shared,
) -> Result<(), Idle> {
    let mut filled = 0;
    while filled < buf.len() {
        if shared.shutdown.load(Ordering::SeqCst) {
            return Err(Idle::Fatal("server shutting down".to_string()));
        }
        match stream.read(&mut buf[filled..]) {
            Ok(0) => return Err(Idle::Fatal("eof mid-frame".to_string())),
            Ok(n) => filled += n,
            Err(e) if is_timeout(&e) || e.kind() == std::io::ErrorKind::Interrupted => {
                if Instant::now() >= deadline {
                    return Err(Idle::Fatal("frame stalled".to_string()));
                }
            }
            Err(e) => return Err(Idle::Fatal(e.to_string())),
        }
    }
    Ok(())
}

fn ok_base(version: u64) -> Vec<(String, Json)> {
    vec![
        ("ok".to_string(), Json::Bool(true)),
        ("version".to_string(), Json::Int(version as i64)),
    ]
}

fn error_response(msg: String) -> Json {
    Json::Obj(vec![
        ("ok".to_string(), Json::Bool(false)),
        ("error".to_string(), Json::Str(msg)),
    ])
}

/// Dispatches one request; returns the response and whether to close the
/// connection afterwards.
fn handle_request(shared: &Shared, session: &SessionInfo, req: &Json) -> (Json, bool) {
    let kind = req.get("type").and_then(Json::as_str).unwrap_or("");
    match kind {
        "ping" => {
            let mut fields = ok_base(shared.db.version());
            fields.push(("pong".to_string(), Json::Bool(true)));
            fields.push(("session".to_string(), Json::Int(session.id as i64)));
            (Json::Obj(fields), false)
        }
        "query" => {
            session.queries.fetch_add(1, Ordering::SeqCst);
            (run_query(shared, session, req), false)
        }
        "explain" => {
            let Some(sql) = req.get("sql").and_then(Json::as_str) else {
                return (error_response("explain without sql".to_string()), false);
            };
            match tpcds_engine::explain_sql(&shared.db, sql) {
                Ok(plan) => {
                    let mut fields = ok_base(shared.db.version());
                    fields.push(("plan".to_string(), Json::Str(plan)));
                    (Json::Obj(fields), false)
                }
                Err(e) => (error_response(e.to_string()), false),
            }
        }
        "stats" => {
            let snap = shared.db.snapshot();
            let mut fields = ok_base(snap.version());
            fields.push((
                "tables".to_string(),
                Json::Int(snap.table_names().len() as i64),
            ));
            fields.push(("rows".to_string(), Json::Int(snap.total_rows() as i64)));
            fields.push((
                "sessions_active".to_string(),
                Json::Int(shared.sessions_active.load(Ordering::SeqCst)),
            ));
            fields.push((
                "queries_inflight".to_string(),
                Json::Int(shared.queries_inflight.load(Ordering::SeqCst)),
            ));
            fields.push((
                "admission_limit".to_string(),
                Json::Int(shared.admission.limit() as i64),
            ));
            (Json::Obj(fields), false)
        }
        "shutdown" => {
            shared.shutdown.store(true, Ordering::SeqCst);
            let mut fields = ok_base(shared.db.version());
            fields.push(("shutting_down".to_string(), Json::Bool(true)));
            (Json::Obj(fields), true)
        }
        other => (
            error_response(format!("unknown request type {other:?}")),
            false,
        ),
    }
}

/// The execution options and the snapshot a `query` request names. A
/// queued query sees the freshest published version (this runs once
/// admitted), and an explicitly pinned one fails loudly when the version
/// has left the retention window.
fn query_target(
    db: &Database,
    req: &Json,
) -> Result<(ExecOptions, Arc<tpcds_engine::DbSnapshot>), String> {
    let mut opts = ExecOptions::default();
    match req.get("mode").and_then(Json::as_str) {
        None => {}
        Some("off") => opts.columnar = ColumnarMode::Off,
        Some("auto") => opts.columnar = ColumnarMode::Auto,
        Some(m) => return Err(format!("unknown columnar mode {m:?}")),
    }
    if let Some(t) = req.get("threads").and_then(Json::as_i64) {
        opts.threads = Some(t.max(1) as usize);
    }
    let snap = match req.get("pin").and_then(Json::as_i64) {
        Some(v) => (db.snapshot_at(v as u64)).ok_or(format!("version {v} is not retained"))?,
        None => db.snapshot(),
    };
    Ok((opts, snap))
}

fn run_query(shared: &Shared, session: &SessionInfo, req: &Json) -> Json {
    let Some(sql) = req.get("sql").and_then(Json::as_str) else {
        return error_response("query without sql".to_string());
    };
    // End-to-end identity: the client's query_id when sent, else one
    // minted here — either way the same id appears in the `server/query`
    // span, `sys.queries` while running, and `sys.query_log` after.
    let query_id = req
        .get("query_id")
        .and_then(Json::as_str)
        .map(str::to_string)
        .unwrap_or_else(tpcds_obs::qlog::next_query_id);

    let started = Instant::now();
    let span = tpcds_obs::span("server", "query");
    *session.current.lock().unwrap_or_else(|e| e.into_inner()) = Some(InflightQuery {
        query_id: query_id.clone(),
        sql: sql.to_string(),
        started,
        snapshot_version: 0,
        mode: (req.get("mode").and_then(Json::as_str).unwrap_or("auto")).to_string(),
        state: "queued",
    });
    // Guard from here: any exit restores the gauge and clears this
    // session's `sys.queries` row.
    let _inflight = InflightGuard::new(shared, session);
    let _permit = shared.admission.acquire();
    let identity = QueryMeta {
        query_id: Some(query_id.clone()),
        session: session.id,
        admission_wait_us: started.elapsed().as_micros() as u64,
    };

    // Every request that carries SQL ends in exactly one `sys.query_log`
    // record: the engine's when the statement reached it, else one made
    // here for what stopped it — a bad option, an unretained pin, a panic
    // (which costs this one response, not the session).
    let ran = query_target(&shared.db, req).and_then(|(opts, snap)| {
        if let Some(q) = (session.current.lock().unwrap_or_else(|e| e.into_inner())).as_mut() {
            q.snapshot_version = snap.version();
            q.state = "running";
        }
        let run = || tpcds_engine::run(&shared.db, sql, Some(&snap), opts, identity.clone());
        std::panic::catch_unwind(std::panic::AssertUnwindSafe(run)).map_err(|panic| {
            let msg = (panic.downcast_ref::<&str>().copied())
                .or_else(|| panic.downcast_ref::<String>().map(String::as_str));
            format!("internal error: {}", msg.unwrap_or("panic"))
        })
    });
    let elapsed_us = started.elapsed().as_micros() as u64;
    let (result, version) = match ran {
        Ok((result, profile)) => {
            if shared.slow_query_us > 0 && elapsed_us >= shared.slow_query_us {
                tpcds_obs::counter("server", "slow_queries", 1.0);
                let r = &profile.record;
                eprintln!(
                    "[slow-query] session={} query_id={} wall_us={elapsed_us} parse_us={} plan_us={} exec_us={} rows={} version={}\n  sql: {sql}\n{}",
                    session.id,
                    query_id,
                    r.parse_us,
                    r.plan_us,
                    r.exec_us,
                    r.rows,
                    r.snapshot_version,
                    profile.plan_text(&shared.db),
                );
            }
            let version = profile.record.snapshot_version;
            (result.map_err(|e| e.to_string()), version)
        }
        Err(e) => {
            shared.db.query_log().push(QueryRecord {
                query_id: query_id.clone(),
                session: session.id,
                sql: sql.to_string(),
                wall_us: elapsed_us,
                admission_wait_us: identity.admission_wait_us,
                error: Some(e.clone()),
                ..QueryRecord::default()
            });
            (Err(e), 0)
        }
    };
    match result {
        Ok(res) => {
            tpcds_obs::counter("server", "queries", 1.0);
            span.finish();
            let mut fields = ok_base(version);
            fields.push((
                "columns".to_string(),
                Json::Arr(res.columns.iter().map(|c| Json::Str(c.clone())).collect()),
            ));
            fields.push((
                "rows".to_string(),
                Json::Arr(res.rows.iter().map(|r| protocol::encode_row(r)).collect()),
            ));
            fields.push(("elapsed_us".to_string(), Json::Int(elapsed_us as i64)));
            fields.push(("query_id".to_string(), Json::Str(query_id)));
            Json::Obj(fields)
        }
        Err(e) => {
            tpcds_obs::counter("server", "errors", 1.0);
            span.finish();
            error_response(e)
        }
    }
}
