//! Server behavior over real sockets: framing, sessions, pinned
//! snapshots, admission, idle timeouts and graceful shutdown.

use std::sync::Arc;
use std::time::Duration;

use tpcds_engine::{ColumnMeta, Database};
use tpcds_server::{Client, ClientError, QueryOpts, Server, ServerConfig};
use tpcds_types::{DataType, Value};

fn tiny_db() -> Arc<Database> {
    let db = Arc::new(Database::new());
    let meta = vec![
        ColumnMeta {
            name: "a".to_string(),
            dtype: DataType::Int,
        },
        ColumnMeta {
            name: "b".to_string(),
            dtype: DataType::Str,
        },
    ];
    db.create_table_with_rows(
        "t",
        meta,
        vec![
            vec![Value::Int(1), Value::str("one")],
            vec![Value::Int(2), Value::str("two")],
            vec![Value::Int(3), Value::str("three")],
        ],
    )
    .unwrap();
    db
}

fn start(db: &Arc<Database>) -> Server {
    Server::start(
        Arc::clone(db),
        ServerConfig {
            max_concurrent_queries: 2,
            ..ServerConfig::default()
        },
    )
    .expect("server starts")
}

/// How many `sys.query_log` records carry an error mentioning `needle`.
fn logged_errors(db: &Database, needle: &str) -> usize {
    let log = db.query_log().snapshot();
    let hit = |r: &&Arc<tpcds_engine::QueryRecord>| {
        r.error.as_deref().is_some_and(|e| e.contains(needle))
    };
    log.iter().filter(hit).count()
}

/// The process-wide `server.<name>` counter (tests share it: compare with
/// `>=` against a reading taken before).
fn server_counter(name: &str) -> u64 {
    tpcds_obs::metrics::enable();
    tpcds_obs::metrics::counters_snapshot()
        .into_iter()
        .find(|(n, _)| n == &format!("server.{name}"))
        .map_or(0, |(_, v)| v)
}

#[test]
fn ping_query_explain_stats_roundtrip() {
    let db = tiny_db();
    let server = start(&db);
    let mut c = Client::connect(server.local_addr()).unwrap();

    let version = c.ping().unwrap();
    assert_eq!(version, db.version());

    let r = c
        .query("select a, b from t where a >= 2 order by a")
        .unwrap();
    assert_eq!(r.columns, vec!["a", "b"]);
    assert_eq!(r.rows.len(), 2);
    assert_eq!(r.rows[0][0].as_int(), Some(2));
    assert_eq!(r.rows[0][1].as_str(), Some("two"));
    assert_eq!(r.version, db.version());

    let plan = c.explain("select count(*) from t").unwrap();
    assert!(plan.contains("Scan t"), "unexpected plan: {plan}");

    let stats = c.stats().unwrap();
    assert!(stats.get("tables").and_then(|j| j.as_i64()).unwrap() >= 1);
    assert_eq!(
        stats.get("sessions_active").and_then(|j| j.as_i64()),
        Some(1)
    );

    server.shutdown();
}

#[test]
fn a_response_larger_than_a_socket_buffer_arrives_whole() {
    let db = Arc::new(Database::new());
    let meta = vec![ColumnMeta {
        name: "s".to_string(),
        dtype: DataType::Str,
    }];
    // ~4 MiB of result: many times any default loopback socket buffer.
    let rows: Vec<Vec<Value>> = (0..4096)
        .map(|i| vec![Value::str(format!("{i:04}{}", "y".repeat(1020)))])
        .collect();
    db.create_table_with_rows("big", meta, rows.clone())
        .unwrap();
    let server = start(&db);
    let mut c = Client::connect(server.local_addr()).unwrap();
    let r = c.query("select s from big").unwrap();
    assert_eq!(r.rows.len(), rows.len());
    for (got, want) in r.rows.iter().zip(&rows) {
        assert_eq!(got[0].as_str(), want[0].as_str());
    }
    // The session is still in frame sync afterwards.
    assert_eq!(c.ping().unwrap(), db.version());
    server.shutdown();
}

#[test]
fn sql_errors_come_back_as_remote_errors_and_session_survives() {
    let db = tiny_db();
    let server = start(&db);
    let mut c = Client::connect(server.local_addr()).unwrap();
    match c.query("select nope from missing_table") {
        Err(ClientError::Remote(msg)) => assert!(msg.contains("missing_table"), "{msg}"),
        other => panic!("expected remote error, got {other:?}"),
    }
    assert_eq!(logged_errors(&db, "missing_table"), 1);
    // The connection is still usable after a query error.
    assert_eq!(c.query("select a from t").unwrap().rows.len(), 3);
    server.shutdown();
}

#[test]
fn a_panicking_statement_costs_one_response_not_the_session() {
    let db = tiny_db();
    let server = start(&db);
    // Fault injection with what exists: replace the server's own provider.
    db.register_sys_provider("sys.queries", || panic!("injected"));
    let errors_before = server_counter("errors");
    let mut c = Client::connect(server.local_addr()).unwrap();
    match c.query("select * from sys.queries") {
        Err(ClientError::Remote(msg)) => assert_eq!(msg, "internal error: injected"),
        other => panic!("expected remote error, got {other:?}"),
    }
    assert!(server_counter("errors") > errors_before);
    assert_eq!(logged_errors(&db, "internal error: injected"), 1);
    // The same connection keeps serving, and nothing leaked.
    c.ping().unwrap();
    assert_eq!(c.query("select 1").unwrap().rows.len(), 1);
    assert_eq!(server.sessions_active(), 1);
    assert_eq!(server.queries_inflight(), 0);
    let sessions = c.query("select state from sys.sessions").unwrap();
    assert_eq!(sessions.rows.len(), 1);
    server.shutdown();
}

#[test]
fn pinned_queries_read_frozen_versions_while_head_moves() {
    let db = tiny_db();
    let server = start(&db);
    let mut c = Client::connect(server.local_addr()).unwrap();

    let pinned = c.ping().unwrap();
    db.insert("t", vec![vec![Value::Int(4), Value::str("four")]])
        .unwrap();

    // Head sees four rows, the pinned version still three.
    assert_eq!(c.query("select a from t").unwrap().rows.len(), 4);
    let frozen = c.query_pinned("select a from t", pinned).unwrap();
    assert_eq!(frozen.rows.len(), 3);
    assert_eq!(frozen.version, pinned);

    // A version outside the retention window fails loudly, and like
    // every request that carries SQL it leaves exactly one log record.
    let errors_before = server_counter("errors");
    match c.query_pinned("select a from t", 999_999) {
        Err(ClientError::Remote(msg)) => assert!(msg.contains("not retained"), "{msg}"),
        other => panic!("expected remote error, got {other:?}"),
    }
    assert!(server_counter("errors") > errors_before);
    assert_eq!(logged_errors(&db, "999999 is not retained"), 1);
    assert_eq!(db.query_log().snapshot().last().unwrap().session, 1);
    server.shutdown();
}

#[test]
fn concurrent_clients_each_get_their_own_session() {
    let db = tiny_db();
    let server = start(&db);
    let addr = server.local_addr();
    let handles: Vec<_> = (0..8)
        .map(|i| {
            std::thread::spawn(move || {
                let mut c = Client::connect(addr).unwrap();
                for _ in 0..5 {
                    let r = c
                        .query(&format!("select a from t where a > {}", i % 3))
                        .unwrap();
                    assert!(!r.rows.is_empty());
                }
            })
        })
        .collect();
    for h in handles {
        h.join().unwrap();
    }
    // All sessions drained back to zero.
    let deadline = std::time::Instant::now() + Duration::from_secs(5);
    while server.sessions_active() > 0 && std::time::Instant::now() < deadline {
        std::thread::sleep(Duration::from_millis(10));
    }
    assert_eq!(server.sessions_active(), 0);
    server.shutdown();
}

#[test]
fn idle_sessions_are_closed_by_the_server() {
    let db = tiny_db();
    let server = Server::start(
        Arc::clone(&db),
        ServerConfig {
            idle_timeout: Duration::from_millis(200),
            ..ServerConfig::default()
        },
    )
    .unwrap();
    let mut c = Client::connect(server.local_addr()).unwrap();
    c.ping().unwrap();
    std::thread::sleep(Duration::from_millis(800));
    // The server hung up; the next round trip fails.
    assert!(c.ping().is_err(), "idle session was not closed");
    server.shutdown();
}

#[test]
fn client_shutdown_frame_stops_the_server() {
    let db = tiny_db();
    let server = start(&db);
    let mut c = Client::connect(server.local_addr()).unwrap();
    c.shutdown().unwrap();
    // wait() returns because a client asked for shutdown.
    server.wait();
    assert!(server.is_shutting_down());
    assert!(
        Client::connect(server.local_addr()).is_err() || {
            // The OS may still accept briefly; a round trip must fail.
            let mut c2 = Client::connect(server.local_addr()).unwrap();
            c2.ping().is_err()
        }
    );
}

#[test]
fn sys_tables_answer_over_the_wire_with_client_identity() {
    let db = tiny_db();
    let server = start(&db);
    let mut c = Client::connect(server.local_addr()).unwrap();

    // A client-assigned query_id rides the request, comes back in the
    // response, and lands verbatim in sys.query_log.
    let r = c
        .query_with(
            "select a from t order by a",
            &QueryOpts {
                query_id: Some("wire-q1".to_string()),
                ..QueryOpts::default()
            },
        )
        .unwrap();
    assert_eq!(r.rows.len(), 3);
    assert_eq!(r.query_id.as_deref(), Some("wire-q1"));

    // sys.sessions shows this connection with its traffic counters.
    let sessions = c
        .query("select session, state, queries, bytes_in, bytes_out from sys.sessions")
        .unwrap();
    assert_eq!(sessions.rows.len(), 1, "exactly this connection");
    assert!(sessions.rows[0][0].as_int().unwrap() > 0);
    // The sys.sessions query itself is in-flight, so state is "query".
    assert_eq!(sessions.rows[0][1].as_str(), Some("query"));
    assert!(sessions.rows[0][2].as_int().unwrap() >= 1);
    assert!(
        sessions.rows[0][3].as_int().unwrap() > 0,
        "bytes_in counted"
    );
    assert!(
        sessions.rows[0][4].as_int().unwrap() > 0,
        "bytes_out counted"
    );

    // The scanning query sees itself in sys.queries, same identity.
    let inflight = c
        .query_with(
            "select query_id, state from sys.queries",
            &QueryOpts {
                query_id: Some("wire-q2".to_string()),
                ..QueryOpts::default()
            },
        )
        .unwrap();
    assert_eq!(inflight.rows.len(), 1);
    assert_eq!(inflight.rows[0][0].as_str(), Some("wire-q2"));
    assert_eq!(inflight.rows[0][1].as_str(), Some("running"));

    // The log tied the work to the wire identity, with real timings and
    // the session id (> 0 distinguishes server-side from in-process).
    let logged = c
        .query("select wall_us, session, rows from sys.query_log where query_id = 'wire-q1'")
        .unwrap();
    assert_eq!(logged.rows.len(), 1);
    assert!(
        logged.rows[0][0].as_int().unwrap() > 0,
        "non-zero wall time"
    );
    assert!(logged.rows[0][1].as_int().unwrap() > 0, "server session id");
    assert_eq!(logged.rows[0][2].as_int(), Some(3));

    // The acceptance query shape works end to end over TCP.
    let top = c
        .query("select query_id, wall_us from sys.query_log order by wall_us desc limit 5")
        .unwrap();
    assert!(!top.rows.is_empty());
    let walls: Vec<i64> = top.rows.iter().map(|r| r[1].as_int().unwrap()).collect();
    assert!(walls.windows(2).all(|w| w[0] >= w[1]), "{walls:?}");

    server.shutdown();
}

#[test]
fn killed_mid_query_connection_restores_gauges() {
    let db = Arc::new(Database::new());
    let meta = vec![ColumnMeta {
        name: "a".to_string(),
        dtype: DataType::Int,
    }];
    let rows: Vec<Vec<Value>> = (0..120).map(|i| vec![Value::Int(i)]).collect();
    db.create_table_with_rows("big", meta, rows).unwrap();
    let server = start(&db);

    // Hand-roll the frame so we can vanish without reading the response.
    {
        let mut raw = std::net::TcpStream::connect(server.local_addr()).unwrap();
        let req = tpcds_obs::json::Json::Obj(vec![
            (
                "type".to_string(),
                tpcds_obs::json::Json::Str("query".to_string()),
            ),
            (
                "sql".to_string(),
                tpcds_obs::json::Json::Str(
                    // ~1.7M-tuple cross join: long enough to still be
                    // running when the socket dies under it.
                    "select count(*) from big x, big y, big z".to_string(),
                ),
            ),
        ]);
        tpcds_server::protocol::write_frame(&mut raw, &req).unwrap();
        // Let the server pick the query up, then hang up mid-execution.
        let deadline = std::time::Instant::now() + Duration::from_secs(5);
        while server.queries_inflight() == 0 && std::time::Instant::now() < deadline {
            std::thread::sleep(Duration::from_millis(5));
        }
        assert!(server.queries_inflight() > 0, "query never started");
    } // drop = RST/FIN while the query runs

    // The RAII guards must walk both gauges back to zero even though the
    // session died on an error path, not a clean request/response cycle.
    let deadline = std::time::Instant::now() + Duration::from_secs(30);
    while (server.queries_inflight() > 0 || server.sessions_active() > 0)
        && std::time::Instant::now() < deadline
    {
        std::thread::sleep(Duration::from_millis(20));
    }
    assert_eq!(server.queries_inflight(), 0, "queries_inflight leaked");
    assert_eq!(server.sessions_active(), 0, "sessions_active leaked");
    // And the registry-backed sys tables agree (queried in-process).
    let r = tpcds_engine::query(&db, "select count(*) from sys.queries").unwrap();
    assert_eq!(r.rows[0][0].as_int(), Some(0));
    let r = tpcds_engine::query(&db, "select count(*) from sys.sessions").unwrap();
    assert_eq!(r.rows[0][0].as_int(), Some(0));
    server.shutdown();
}

#[test]
fn slow_queries_render_their_profile_and_are_counted() {
    let db = tiny_db();
    let server = Server::start(
        Arc::clone(&db),
        ServerConfig {
            slow_query_ms: 1, // every non-trivial query trips it
            ..ServerConfig::default()
        },
    )
    .unwrap();
    tpcds_obs::metrics::enable();
    let counter = |wanted: &str| {
        tpcds_obs::metrics::counters_snapshot()
            .into_iter()
            .find(|(name, _)| name == wanted)
            .map_or(0, |(_, v)| v)
    };
    let built_before = counter("engine.kernel.build_rows");
    let mut c = Client::connect(server.local_addr()).unwrap();
    // Heavy enough to clear 1ms: the statement runs like any other and
    // then renders its own profile (the `[slow-query]` block on stderr).
    // It reads a column of every table, so each join gathers one.
    let r = c
        .query(
            "select count(*), sum(a.a * b.a * c.a * d.a * e.a * f.a * g.a * h.a) \
             from t a, t b, t c, t d, t e, t f, t g, t h",
        )
        .unwrap();
    assert_eq!(r.rows[0][0].as_int(), Some(3i64.pow(8)));
    assert_eq!(r.rows[0][1].as_int(), Some(6i64.pow(8)));
    assert!(
        counter("server.slow_queries") >= 1,
        "slow query was not counted"
    );
    // The statement's kernel numbers reach the registry once it is
    // enabled; nothing else needs installing.
    assert!(
        counter("engine.kernel.build_rows") > built_before,
        "join build rows were not counted"
    );
    server.shutdown();
}

#[test]
fn query_options_cross_the_wire() {
    let db = tiny_db();
    let server = start(&db);
    let mut c = Client::connect(server.local_addr()).unwrap();
    let r = c
        .query_with(
            "select count(*) c from t",
            &QueryOpts {
                mode: Some("off"),
                threads: Some(1),
                ..QueryOpts::default()
            },
        )
        .unwrap();
    assert_eq!(r.rows[0][0].as_int(), Some(3));
    server.shutdown();
}

/// `off` and `auto` are the only executor modes: any other value, the
/// retired `force` included, is one error response, logged once, and the
/// session answers its next query.
#[test]
fn unknown_modes_cost_one_response_not_the_session() {
    let db = tiny_db();
    let server = start(&db);
    let mut c = Client::connect(server.local_addr()).unwrap();
    for mode in ["force", "bogus"] {
        match c.query_with(
            "select 1",
            &QueryOpts {
                mode: Some(mode),
                ..QueryOpts::default()
            },
        ) {
            Err(ClientError::Remote(msg)) => {
                assert!(
                    msg.contains(&format!("unknown columnar mode {mode:?}")),
                    "{msg}"
                )
            }
            other => panic!("mode {mode}: expected remote error, got {other:?}"),
        }
        assert_eq!(logged_errors(&db, &format!("{mode:?}")), 1, "mode {mode}");
        assert_eq!(c.query("select a from t").unwrap().rows.len(), 3);
    }
    server.shutdown();
}
