//! Virtual `sys.*` tables: live engine/server state exposed through the
//! normal query machinery.
//!
//! Each table has a fixed schema known to the binder ([`columns`]) and a
//! row producer ([`rows`]) that materializes ordinary `Vec<Row>` at scan
//! time — so filters, sorts, aggregates, EXPLAIN, the wire protocol and
//! every other layer work on introspection data for free. The tables
//! reflect **live** state at the moment of the scan, not the pinned
//! snapshot the rest of the query reads (a `sys.query_log` scan inside a
//! pinned query still sees the newest records; that is the point).
//!
//! Engine-owned tables (`sys.query_log`, `sys.snapshots`) read the
//! [`Database`] directly; registry tables (`sys.counters`, `sys.gauges`,
//! `sys.histograms`) snapshot the process-wide metrics registry; and
//! server-owned tables (`sys.sessions`, `sys.queries`) are filled by a
//! provider closure the server registers on its `Database`
//! ([`Database::register_sys_provider`]) — in-process, with no server
//! running, they are simply empty.
//!
//! See `docs/OBSERVABILITY.md` for the full column reference with units.

use crate::catalog::{ColumnMeta, Database};
use tpcds_types::{DataType, Row, Value};

/// Every virtual table, sorted.
pub const TABLES: &[&str] = &[
    "sys.counters",
    "sys.gauges",
    "sys.histograms",
    "sys.queries",
    "sys.query_log",
    "sys.sessions",
    "sys.snapshots",
];

fn col(name: &str, dtype: DataType) -> ColumnMeta {
    ColumnMeta {
        name: name.to_string(),
        dtype,
    }
}

/// The schema of a virtual table, or `None` when `name` is not one (the
/// binder then resolves it as an ordinary stored table).
pub fn columns(name: &str) -> Option<Vec<ColumnMeta>> {
    use DataType::{Int, Str};
    Some(match name {
        "sys.sessions" => vec![
            col("session", Int),
            col("peer", Str),
            col("state", Str),
            col("queries", Int),
            col("bytes_in", Int),
            col("bytes_out", Int),
        ],
        "sys.queries" => vec![
            col("session", Int),
            col("query_id", Str),
            col("sql", Str),
            col("elapsed_us", Int),
            col("snapshot_version", Int),
            col("mode", Str),
            col("state", Str),
        ],
        "sys.query_log" => vec![
            col("seq", Int),
            col("query_id", Str),
            col("session", Int),
            col("sql", Str),
            col("wall_us", Int),
            col("cpu_us", Int),
            col("rows", Int),
            col("mem_peak", Int),
            col("admission_wait_us", Int),
            col("best_route", Str),
            col("fallbacks", Str),
            col("snapshot_version", Int),
            col("error", Str),
            col("parse_us", Int),
            col("plan_us", Int),
            col("exec_us", Int),
        ],
        "sys.counters" => vec![col("name", Str), col("value", Int)],
        "sys.gauges" => vec![col("name", Str), col("value", Int)],
        "sys.histograms" => vec![
            col("name", Str),
            col("count", Int),
            col("sum", Int),
            col("p50", Int),
            col("p95", Int),
            col("p99", Int),
            col("max", Int),
        ],
        "sys.snapshots" => vec![
            col("version", Int),
            col("tables", Int),
            col("rows", Int),
            col("is_head", Int),
            col("retain", Int),
        ],
        _ => return None,
    })
}

/// True when `name` names a virtual table this module serves.
pub fn is_sys_table(name: &str) -> bool {
    columns(name).is_some()
}

fn int(v: u64) -> Value {
    Value::Int(v as i64)
}

/// Materializes the rows of a virtual table at this instant, or `None`
/// when `name` is not one. Row order is deterministic where the source
/// is (registry tables sort by name, `sys.query_log` is oldest-first,
/// `sys.snapshots` oldest-first); ORDER BY is for everything else.
pub fn rows(db: &Database, name: &str) -> Option<Vec<Row>> {
    let rows = match name {
        "sys.sessions" | "sys.queries" => db.sys_provider_rows(name).unwrap_or_default(),
        "sys.query_log" => db
            .query_log()
            .snapshot()
            .iter()
            .map(|r| {
                vec![
                    int(r.seq),
                    Value::str(&r.query_id),
                    int(r.session),
                    Value::str(&r.sql),
                    int(r.wall_us),
                    int(r.cpu_us),
                    int(r.rows),
                    int(r.mem_peak),
                    int(r.admission_wait_us),
                    Value::str(r.best_route),
                    Value::str(&r.fallbacks),
                    int(r.snapshot_version),
                    r.error.as_deref().map(Value::str).unwrap_or(Value::Null),
                    int(r.parse_us),
                    int(r.plan_us),
                    int(r.exec_us),
                ]
            })
            .collect(),
        "sys.counters" => tpcds_obs::metrics::counters_snapshot()
            .into_iter()
            .map(|(name, v)| vec![Value::str(&name), int(v)])
            .collect(),
        "sys.gauges" => tpcds_obs::metrics::gauges_snapshot()
            .into_iter()
            .map(|(name, v)| vec![Value::str(&name), Value::Int(v)])
            .collect(),
        "sys.histograms" => tpcds_obs::metrics::histograms_snapshot()
            .into_iter()
            .map(|(name, h)| {
                vec![
                    Value::str(&name),
                    int(h.count),
                    int(h.sum),
                    int(h.percentile(50.0)),
                    int(h.percentile(95.0)),
                    int(h.percentile(99.0)),
                    int(h.max()),
                ]
            })
            .collect(),
        "sys.snapshots" => {
            let (history, retain) = db.snapshot_history();
            history
                .into_iter()
                .map(|s| {
                    vec![
                        int(s.version),
                        int(s.tables as u64),
                        int(s.rows as u64),
                        Value::Int(s.is_head as i64),
                        int(retain as u64),
                    ]
                })
                .collect()
        }
        _ => return None,
    };
    Some(rows)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{query, Database};

    #[test]
    fn every_sys_table_has_matching_schema_and_rows() {
        let db = Database::new();
        for name in TABLES {
            let cols = columns(name).expect("schema");
            let rows = rows(&db, name).expect("rows");
            for row in &rows {
                assert_eq!(row.len(), cols.len(), "{name} arity");
            }
        }
        assert!(columns("sys.nope").is_none());
        assert!(rows(&db, "store_sales").is_none());
    }

    #[test]
    fn query_log_is_queryable_with_order_and_limit() {
        let db = Database::new();
        db.create_table_with_rows(
            "t",
            vec![ColumnMeta {
                name: "a".into(),
                dtype: DataType::Int,
            }],
            vec![vec![Value::Int(1)], vec![Value::Int(2)]],
        )
        .unwrap();
        query(&db, "select a from t where a > 1").unwrap();
        query(&db, "select count(*) from t").unwrap();
        // Errors are logged too, and so is the optimizer-ablation path.
        assert!(query(&db, "select nope from t").is_err());
        crate::query_unoptimized(&db, "select a from t").unwrap();

        let r = query(
            &db,
            "select sql, rows, error from sys.query_log order by seq",
        )
        .unwrap();
        assert_eq!(r.rows.len(), 4, "one record per statement");
        let texts: Vec<String> = r.rows.iter().map(|row| row[0].to_string()).collect();
        assert!(texts.iter().any(|s| s.contains("a > 1")), "{texts:?}");
        let errored: Vec<&Row> = r.rows.iter().filter(|row| !row[2].is_null()).collect();
        assert_eq!(errored.len(), 1, "exactly the bad query carries an error");
        assert_eq!(errored[0][1], Value::Int(0), "error rows produce 0 rows");

        // The acceptance query shape: machinery (filter/sort/limit) works.
        let top = query(
            &db,
            "select query_id, wall_us from sys.query_log order by wall_us desc limit 5",
        )
        .unwrap();
        assert!(!top.rows.is_empty());
        let walls: Vec<i64> = top.rows.iter().map(|r| r[1].as_int().unwrap()).collect();
        assert!(walls.windows(2).all(|w| w[0] >= w[1]), "{walls:?}");
    }

    #[test]
    fn snapshots_table_tracks_versions_and_head() {
        let db = Database::new();
        db.create_table("t", vec![]).unwrap();
        db.create_table("u", vec![]).unwrap();
        let r = query(
            &db,
            "select version, is_head from sys.snapshots order by version",
        )
        .unwrap();
        assert_eq!(r.rows.len(), 3, "v0 + two commits retained");
        assert_eq!(r.rows[2][0], Value::Int(2));
        assert_eq!(r.rows[2][1], Value::Int(1), "newest is head");
        assert_eq!(r.rows[0][1], Value::Int(0));
        let heads = query(&db, "select count(*) from sys.snapshots where is_head = 1").unwrap();
        assert_eq!(heads.rows[0][0], Value::Int(1));
    }

    #[test]
    fn provider_tables_are_empty_until_registered() {
        let db = Database::new();
        let r = query(&db, "select * from sys.sessions").unwrap();
        assert!(r.rows.is_empty());
        db.register_sys_provider("sys.sessions", || {
            vec![vec![
                Value::Int(1),
                Value::str("127.0.0.1:9"),
                Value::str("idle"),
                Value::Int(3),
                Value::Int(100),
                Value::Int(200),
            ]]
        });
        let r = query(
            &db,
            "select session, peer from sys.sessions where queries >= 3",
        )
        .unwrap();
        assert_eq!(r.rows.len(), 1);
        assert_eq!(r.rows[0][0], Value::Int(1));
    }

    #[test]
    fn registry_tables_reflect_metrics_with_aliases() {
        let db = Database::new();
        // The registry is process-global and may be disabled; exercise the
        // plumbing through a direct producer call plus a SQL alias query.
        let _ = rows(&db, "sys.counters").unwrap();
        let r = query(
            &db,
            "select c.name, c.value from sys.counters c order by c.name limit 3",
        )
        .unwrap();
        for row in &r.rows {
            assert!(matches!(row[0], Value::Str(_)));
        }
        let h = query(&db, "select name, p99, max from sys.histograms").unwrap();
        assert_eq!(h.columns, vec!["name", "p99", "max"]);
    }
}
