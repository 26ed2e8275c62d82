//! # tpcds-engine
//!
//! A from-scratch in-memory SQL engine sized for the TPC-DS workload:
//! lexer → parser → binder → optimizer (predicate pushdown + greedy join
//! ordering) → executor (hash joins, hash aggregation with ROLLUP, window
//! functions, set operations, correlated subqueries with memoization),
//! plus hash indexes — the "basic auxiliary data structures" the ad-hoc
//! part of the schema allows and the richer ones the reporting part
//! showcases.

#![warn(missing_docs)]

pub mod ast;
pub mod binder;
pub mod catalog;
pub mod error;
pub mod estimate;
pub mod exec;
pub mod expr;
pub mod lexer;
pub mod optimizer;
pub mod parser;
pub mod plan;
pub mod sync;
pub mod sys;

pub use binder::{Binder, Bound};
pub use catalog::{
    ColumnMeta, Commit, Database, DbSnapshot, Index, RowMut, SnapshotInfo, Table, WriteTxn,
};
pub use error::{EngineError, Result};
pub use exec::{ColumnarMode, ExecCtx, ExecOptions, RoutePath};
pub use plan::{NodeReport, Plan};
pub use tpcds_obs::qlog::{QueryMeta, QueryRecord};

use std::sync::Arc;
use std::time::Instant;
use tpcds_types::Row;

/// A query result: column names and rows.
#[derive(Debug, Clone, PartialEq)]
pub struct QueryResult {
    /// Output column names.
    pub columns: Vec<String>,
    /// Result rows.
    pub rows: Vec<Row>,
}

impl QueryResult {
    /// Formats the result as an aligned text table (for examples/demos).
    pub fn to_table(&self, max_rows: usize) -> String {
        let mut widths: Vec<usize> = self.columns.iter().map(|c| c.len()).collect();
        let shown = self.rows.iter().take(max_rows);
        for row in shown.clone() {
            for (i, v) in row.iter().enumerate() {
                widths[i] = widths[i].max(v.to_string().len());
            }
        }
        let mut out = String::new();
        for (i, c) in self.columns.iter().enumerate() {
            out.push_str(&format!("{:<w$}  ", c, w = widths[i]));
        }
        out.push('\n');
        for w in &widths {
            out.push_str(&"-".repeat(*w));
            out.push_str("  ");
        }
        out.push('\n');
        for row in shown {
            for (i, v) in row.iter().enumerate() {
                out.push_str(&format!("{:<w$}  ", v.to_string(), w = widths[i]));
            }
            out.push('\n');
        }
        if self.rows.len() > max_rows {
            out.push_str(&format!("... ({} rows total)\n", self.rows.len()));
        }
        out
    }
}

/// One finished statement, built once by [`run`]: the record
/// `sys.query_log` holds (identity, snapshot version, parse / plan / exec
/// phases, wall and CPU time, rows, memory peak, admission wait, routes,
/// error) plus the per-node actuals and the plan that keys them. EXPLAIN
/// ANALYZE, the coverage report and the server's slow-query block are
/// renderings of it, formatted on demand.
#[derive(Debug, Clone)]
pub struct Profile {
    /// The statement's `sys.query_log` record.
    pub record: Arc<QueryRecord>,
    /// `None` when the statement failed to parse or bind.
    plan: Option<Arc<Plan>>,
    actuals: exec::StatsMap,
}

impl Profile {
    /// The best route any node took, subquery bodies included — the
    /// statement's headline path (serial < index < columnar, per
    /// [`RoutePath`]'s derive order). `RoutePath::Unset` if nothing ran.
    pub fn best_route(&self) -> RoutePath {
        (self.actuals.values().map(|s| s.route).max()).unwrap_or_default()
    }

    /// Deduplicated, sorted fallback reason codes across every node that
    /// ran — why parts of the statement stayed off the columnar path.
    pub fn fallback_reasons(&self) -> Vec<&'static str> {
        let mut reasons: Vec<_> = (self.actuals.values()).filter_map(|s| s.fallback).collect();
        reasons.sort_unstable();
        reasons.dedup();
        reasons
    }

    /// The plan tree annotated with per-operator actuals and estimates
    /// (`rows=`, `est=`, `qerr=`, `elapsed=`, `loops=`, `route=`) — EXPLAIN
    /// ANALYZE. Empty when the statement never bound. Estimates come from
    /// `db`'s head statistics; they never affect results.
    pub fn plan_text(&self, db: &Database) -> String {
        self.plan.as_ref().map_or_else(String::new, |p| {
            p.explain_analyze(&self.actuals, &estimate::estimate_plan(p, db))
        })
    }

    /// Per-node machine-readable estimate/actual/routing reports, in
    /// pre-order (including CTE bodies) — what `tpcds-bench coverage`
    /// consumes.
    pub fn nodes(&self, db: &Database) -> Vec<NodeReport> {
        let mut out = Vec::new();
        if let Some(p) = &self.plan {
            p.node_reports(&self.actuals, &estimate::estimate_plan(p, db), &mut out);
        }
        out
    }
}

/// The one statement pipeline: parse → bind/optimize → execute → build the
/// [`Profile`] → push its record to [`Database::query_log`] (the
/// `sys.query_log` virtual table), success or error. Every other entry
/// point is a caller of this.
///
/// `snapshot` pins the version the statement reads regardless of
/// concurrent commits (the server's session dispatch, differential
/// oracles); `None` pins the head once the statement is bound. Binding
/// resolves names against the database head either way (DDL in this
/// engine is load-time only, so head and pinned schemas agree in
/// practice). `identity` is who asked — the server's query id, session and
/// admission wait; the default is an in-process caller, which gets a
/// generated `q-N` id and session 0.
pub fn run(
    db: &Database,
    sql: &str,
    snapshot: Option<&Arc<DbSnapshot>>,
    opts: ExecOptions,
    identity: QueryMeta,
) -> (Result<QueryResult>, Profile) {
    run_bound(db, Binder::new(db), sql, snapshot, opts, identity)
}

fn run_bound(
    db: &Database,
    mut binder: Binder<'_>,
    sql: &str,
    snapshot: Option<&Arc<DbSnapshot>>,
    opts: ExecOptions,
    identity: QueryMeta,
) -> (Result<QueryResult>, Profile) {
    let started = Instant::now();
    let cpu0 = tpcds_obs::qlog::thread_cpu_us();
    let watermark = tpcds_obs::mem::Watermark::start();
    let mut span = tpcds_obs::span("engine", "query");
    let us_since = |t: Instant| t.elapsed().as_micros() as u64;
    let mut record = QueryRecord {
        query_id: (identity.query_id).unwrap_or_else(tpcds_obs::qlog::next_query_id),
        session: identity.session,
        sql: sql.to_string(),
        admission_wait_us: identity.admission_wait_us,
        snapshot_version: snapshot.map_or_else(|| db.version(), |s| s.version()),
        ..QueryRecord::default()
    };
    let mut profile = Profile {
        record: Arc::default(),
        plan: None,
        actuals: exec::StatsMap::new(),
    };
    let result: Result<QueryResult> = (|| {
        let ast = parser::parse(sql);
        record.parse_us = us_since(started);
        let ast = ast?;
        let bind_started = Instant::now();
        let bound = binder.bind(&ast);
        record.plan_us = us_since(bind_started);
        let bound = bound?;
        // Pinned only now: binding may have published the on-demand
        // `__dual` relation.
        let ctx = ExecCtx::new(db, snapshot.cloned().unwrap_or_else(|| db.snapshot()), opts);
        record.snapshot_version = ctx.snapshot().version();
        let exec_started = Instant::now();
        let rows = exec::execute(&bound.plan, &ctx, None);
        record.exec_us = us_since(exec_started);
        profile.actuals = ctx.take_stats();
        profile.plan = Some(bound.plan);
        Ok(QueryResult {
            columns: bound.names,
            rows: rows?,
        })
    })();
    record.wall_us = us_since(started);
    record.cpu_us = tpcds_obs::qlog::thread_cpu_us().saturating_sub(cpu0);
    record.mem_peak = watermark.peak_delta();
    record.best_route = match profile.best_route() {
        RoutePath::Unset => "",
        r => r.as_str(),
    };
    record.fallbacks = profile.fallback_reasons().join(",");
    span.add_field("version", record.snapshot_version as i64);
    match &result {
        Ok(r) => {
            record.rows = r.rows.len() as u64;
            span.add_field("rows", r.rows.len() as i64);
        }
        Err(e) => record.error = Some(e.to_string()),
    }
    span.finish();
    profile.record = db.query_log().push(record);
    (result, profile)
}

/// Parses, binds, optimizes and executes one SQL statement.
pub fn query(db: &Database, sql: &str) -> Result<QueryResult> {
    query_with(db, sql, ExecOptions::default())
}

/// [`query`] with explicit execution options (columnar routing policy and
/// morsel worker count).
pub fn query_with(db: &Database, sql: &str, opts: ExecOptions) -> Result<QueryResult> {
    run(db, sql, None, opts, QueryMeta::default()).0
}

/// [`query_with`] against a caller-pinned snapshot: the statement reads
/// exactly that frozen version regardless of concurrent commits.
pub fn query_pinned(
    db: &Database,
    snap: &Arc<DbSnapshot>,
    sql: &str,
    opts: ExecOptions,
) -> Result<QueryResult> {
    run(db, sql, Some(snap), opts, QueryMeta::default()).0
}

/// A query result paired with its EXPLAIN ANALYZE rendering.
#[derive(Debug, Clone)]
pub struct AnalyzedResult {
    /// The executed result.
    pub result: QueryResult,
    /// [`Profile::plan_text`].
    pub plan_text: String,
    /// [`Profile::nodes`].
    pub nodes: Vec<NodeReport>,
    /// The profile both were rendered from.
    pub profile: Profile,
}

impl AnalyzedResult {
    /// [`Profile::best_route`].
    pub fn best_route(&self) -> RoutePath {
        self.profile.best_route()
    }

    /// [`Profile::fallback_reasons`].
    pub fn fallback_reasons(&self) -> Vec<&'static str> {
        self.profile.fallback_reasons()
    }
}

/// Executes one SQL statement and returns both the result and the
/// annotated plan tree (EXPLAIN ANALYZE).
pub fn query_analyze(db: &Database, sql: &str) -> Result<AnalyzedResult> {
    query_analyze_with(db, sql, ExecOptions::default())
}

/// [`query_analyze`] with explicit execution options. Columnar scans add
/// `morsels=`/`workers=` to their plan lines.
pub fn query_analyze_with(db: &Database, sql: &str, opts: ExecOptions) -> Result<AnalyzedResult> {
    let (result, profile) = run(db, sql, None, opts, QueryMeta::default());
    result.map(|result| AnalyzedResult {
        result,
        plan_text: profile.plan_text(db),
        nodes: profile.nodes(db),
        profile,
    })
}

/// Parses and binds one SQL statement without executing (EXPLAIN support).
pub fn plan_sql(db: &Database, sql: &str) -> Result<Bound> {
    let ast = parser::parse(sql)?;
    Binder::new(db).bind(&ast)
}

/// Renders a statement's plan tree with cardinality estimates but without
/// executing it — the plain `EXPLAIN` path. Every operator line carries
/// `est_rows=` derived from collected table statistics (or shape-based
/// defaults when a table has none).
pub fn explain_sql(db: &Database, sql: &str) -> Result<String> {
    let bound = plan_sql(db, sql)?;
    let est = estimate::estimate_plan(&bound.plan, db);
    Ok(bound.plan.explain_with_estimates(&est))
}

/// [`plan_sql`] with the optimizer disabled — the naive left-deep
/// cross-join plan, kept for the optimizer ablation study.
pub fn plan_sql_unoptimized(db: &Database, sql: &str) -> Result<Bound> {
    let ast = parser::parse(sql)?;
    Binder::new(db).without_optimizer().bind(&ast)
}

/// Executes a statement with the optimizer disabled.
pub fn query_unoptimized(db: &Database, sql: &str) -> Result<QueryResult> {
    let binder = Binder::new(db).without_optimizer();
    run_bound(
        db,
        binder,
        sql,
        None,
        ExecOptions::default(),
        QueryMeta::default(),
    )
    .0
}

/// Materializes a query's result as a new table — the engine's
/// CREATE TABLE AS, used for the reporting part's pre-aggregated summary
/// structures.
pub fn create_table_as(db: &Database, name: &str, sql: &str) -> Result<QueryResult> {
    let result = query(db, sql)?;
    let dtype_of = |col: usize| {
        result
            .rows
            .iter()
            .find_map(|r| r[col].data_type())
            .unwrap_or(tpcds_types::DataType::Int)
    };
    let columns = result
        .columns
        .iter()
        .enumerate()
        .map(|(i, c)| ColumnMeta {
            name: c.clone(),
            dtype: dtype_of(i),
        })
        .collect();
    db.create_table_with_rows(name, columns, result.rows.clone())?;
    Ok(result)
}

/// Creates all 24 TPC-DS tables (empty) in the database from the schema
/// definition.
pub fn create_tpcds_tables(db: &Database, schema: &tpcds_schema::Schema) -> Result<()> {
    for t in schema.tables() {
        let cols = t
            .columns
            .iter()
            .map(|c| ColumnMeta {
                name: c.name.to_string(),
                dtype: c.ctype.data_type(),
            })
            .collect();
        db.create_table(t.name, cols)?;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use tpcds_types::{Decimal, Value};

    fn db_with(table: &str, cols: &[&str], rows: Vec<Vec<i64>>) -> Database {
        let db = Database::new();
        let meta = cols
            .iter()
            .map(|c| ColumnMeta {
                name: c.to_string(),
                dtype: tpcds_types::DataType::Int,
            })
            .collect();
        let rows = rows
            .into_iter()
            .map(|r| r.into_iter().map(Value::Int).collect())
            .collect();
        db.create_table_with_rows(table, meta, rows).unwrap();
        db
    }

    fn ints(result: &QueryResult) -> Vec<Vec<i64>> {
        result
            .rows
            .iter()
            .map(|r| r.iter().map(|v| v.as_int().unwrap_or(i64::MIN)).collect())
            .collect()
    }

    #[test]
    fn select_filter_project() {
        let db = db_with(
            "t",
            &["a", "b"],
            vec![vec![1, 10], vec![2, 20], vec![3, 30]],
        );
        let r = query(&db, "select b, a + 1 from t where a >= 2 order by b desc").unwrap();
        assert_eq!(ints(&r), vec![vec![30, 4], vec![20, 3]]);
    }

    #[test]
    fn aggregation_with_group_by_and_having() {
        let db = db_with(
            "t",
            &["g", "v"],
            vec![
                vec![1, 10],
                vec![1, 20],
                vec![2, 5],
                vec![2, 6],
                vec![3, 100],
            ],
        );
        let r = query(
            &db,
            "select g, sum(v) s, count(*) c from t group by g having sum(v) > 20 order by g",
        )
        .unwrap();
        assert_eq!(ints(&r), vec![vec![1, 30, 2], vec![3, 100, 1]]);
    }

    #[test]
    fn global_aggregate_on_empty_input() {
        let db = db_with("t", &["a"], vec![]);
        let r = query(&db, "select count(*), sum(a), max(a) from t").unwrap();
        assert_eq!(r.rows.len(), 1);
        assert_eq!(r.rows[0][0], Value::Int(0));
        assert!(r.rows[0][1].is_null());
        assert!(r.rows[0][2].is_null());
    }

    #[test]
    fn joins_reorder_and_still_answer() {
        let db = Database::new();
        db.create_table_with_rows(
            "fact",
            vec![
                ColumnMeta {
                    name: "f_dim".into(),
                    dtype: tpcds_types::DataType::Int,
                },
                ColumnMeta {
                    name: "f_val".into(),
                    dtype: tpcds_types::DataType::Int,
                },
            ],
            (0..100)
                .map(|i| vec![Value::Int(i % 10), Value::Int(i)])
                .collect(),
        )
        .unwrap();
        db.create_table_with_rows(
            "dim",
            vec![
                ColumnMeta {
                    name: "d_id".into(),
                    dtype: tpcds_types::DataType::Int,
                },
                ColumnMeta {
                    name: "d_tag".into(),
                    dtype: tpcds_types::DataType::Int,
                },
            ],
            (0..10)
                .map(|i| vec![Value::Int(i), Value::Int(i * 100)])
                .collect(),
        )
        .unwrap();
        let r = query(
            &db,
            "select d_tag, count(*) from fact, dim where f_dim = d_id and d_tag >= 800 group by d_tag order by 1",
        )
        .unwrap();
        assert_eq!(ints(&r), vec![vec![800, 10], vec![900, 10]]);
    }

    #[test]
    fn left_join_pads_nulls() {
        let db = db_with("l", &["x"], vec![vec![1], vec![2]]);
        let meta = vec![ColumnMeta {
            name: "y".into(),
            dtype: tpcds_types::DataType::Int,
        }];
        db.create_table_with_rows("r", meta, vec![vec![Value::Int(2)]])
            .unwrap();
        let res = query(
            &db,
            "select x, y from l left join r on l.x = r.y order by x",
        )
        .unwrap();
        assert_eq!(res.rows[0][1], Value::Null);
        assert_eq!(res.rows[1][1], Value::Int(2));
    }

    #[test]
    fn subqueries_scalar_in_exists() {
        let db = db_with("t", &["a"], vec![vec![1], vec![2], vec![3]]);
        let r = query(
            &db,
            "select a from t where a > (select avg(a) from t) order by a",
        )
        .unwrap();
        assert_eq!(ints(&r), vec![vec![3]]);
        let r = query(
            &db,
            "select a from t where a in (select a from t where a < 3) order by a",
        )
        .unwrap();
        assert_eq!(ints(&r), vec![vec![1], vec![2]]);
        let r = query(
            &db,
            "select a from t where exists (select a from t where a > 10)",
        )
        .unwrap();
        assert!(r.rows.is_empty());
    }

    #[test]
    fn correlated_subquery() {
        let db = db_with(
            "sales",
            &["store", "amt"],
            vec![vec![1, 10], vec![1, 30], vec![2, 100], vec![2, 102]],
        );
        // rows above their store's average
        let r = query(
            &db,
            "select store, amt from sales s
             where amt > (select avg(amt) from sales i where i.store = s.store)
             order by store",
        )
        .unwrap();
        assert_eq!(ints(&r), vec![vec![1, 30], vec![2, 102]]);
    }

    #[test]
    fn window_functions() {
        let db = db_with(
            "t",
            &["p", "v"],
            vec![vec![1, 10], vec![1, 20], vec![2, 5], vec![2, 7], vec![2, 7]],
        );
        let r = query(
            &db,
            "select p, v, sum(v) over (partition by p) tot,
                    rank() over (partition by p order by v desc) rk
             from t order by p, v",
        )
        .unwrap();
        assert_eq!(
            ints(&r),
            vec![
                vec![1, 10, 30, 2],
                vec![1, 20, 30, 1],
                vec![2, 5, 19, 3],
                vec![2, 7, 19, 1],
                vec![2, 7, 19, 1],
            ]
        );
    }

    #[test]
    fn window_over_aggregate() {
        // The Query-20 shape: SUM(x) * 100 / SUM(SUM(x)) OVER (PARTITION BY g).
        let db = db_with(
            "t",
            &["cls", "item", "v"],
            vec![
                vec![1, 1, 30],
                vec![1, 2, 70],
                vec![2, 3, 50],
                vec![2, 3, 50],
            ],
        );
        let r = query(
            &db,
            "select cls, item, sum(v) rev,
                    sum(v) * 100 / sum(sum(v)) over (partition by cls) ratio
             from t group by cls, item order by cls, item",
        )
        .unwrap();
        assert_eq!(
            r.rows[0][3],
            Value::Decimal("30".parse::<Decimal>().unwrap())
        );
        assert_eq!(
            r.rows[1][3],
            Value::Decimal("70".parse::<Decimal>().unwrap())
        );
        assert_eq!(
            r.rows[2][3],
            Value::Decimal("100".parse::<Decimal>().unwrap())
        );
    }

    #[test]
    fn rollup_produces_grouping_sets() {
        let db = db_with(
            "t",
            &["a", "b", "v"],
            vec![vec![1, 1, 10], vec![1, 2, 20], vec![2, 1, 40]],
        );
        let r = query(
            &db,
            "select a, b, sum(v) from t group by rollup(a, b) order by 1, 2",
        )
        .unwrap();
        // 3 leaf rows + 2 subtotals + 1 grand total.
        assert_eq!(r.rows.len(), 6);
        let grand = r
            .rows
            .iter()
            .find(|row| row[0].is_null() && row[1].is_null())
            .expect("grand total row");
        assert_eq!(grand[2], Value::Int(70));
    }

    #[test]
    fn set_operations() {
        let db = db_with("t", &["a"], vec![vec![1], vec![2], vec![2], vec![3]]);
        let r = query(&db, "select a from t union select a from t order by 1").unwrap();
        assert_eq!(ints(&r), vec![vec![1], vec![2], vec![3]]);
        let r = query(
            &db,
            "select a from t where a < 3 intersect select a from t where a > 1",
        )
        .unwrap();
        assert_eq!(ints(&r), vec![vec![2]]);
        let r = query(&db, "select a from t except select a from t where a = 2").unwrap();
        let mut got = ints(&r);
        got.sort();
        assert_eq!(got, vec![vec![1], vec![3]]);
    }

    #[test]
    fn ctes_execute_once_and_are_referencable_twice() {
        let db = db_with("t", &["a"], vec![vec![1], vec![2], vec![3]]);
        let r = query(
            &db,
            "with big as (select a from t where a > 1)
             select x.a, y.a from big x, big y where x.a = y.a order by 1",
        )
        .unwrap();
        assert_eq!(ints(&r), vec![vec![2, 2], vec![3, 3]]);
    }

    #[test]
    fn distinct_and_limit() {
        let db = db_with("t", &["a"], vec![vec![2], vec![1], vec![2], vec![3]]);
        let r = query(&db, "select distinct a from t order by a limit 2").unwrap();
        assert_eq!(ints(&r), vec![vec![1], vec![2]]);
    }

    #[test]
    fn order_by_hidden_expression() {
        let db = db_with("t", &["a", "b"], vec![vec![1, 9], vec![2, 1], vec![3, 5]]);
        let r = query(&db, "select a from t order by b").unwrap();
        assert_eq!(ints(&r), vec![vec![2], vec![3], vec![1]]);
        assert_eq!(r.columns, vec!["a"]);
        assert_eq!(r.rows[0].len(), 1, "hidden sort column dropped");
    }

    #[test]
    fn count_distinct() {
        let db = db_with(
            "t",
            &["a"],
            vec![vec![1], vec![1], vec![2], vec![3], vec![3]],
        );
        let r = query(&db, "select count(distinct a) from t").unwrap();
        assert_eq!(ints(&r), vec![vec![3]]);
    }

    #[test]
    fn case_between_like_in() {
        let db = db_with("t", &["a"], vec![vec![1], vec![2], vec![3], vec![4]]);
        let r = query(
            &db,
            "select a, case when a between 2 and 3 then 1 else 0 end from t
             where a in (1, 2, 3) order by a",
        )
        .unwrap();
        assert_eq!(ints(&r), vec![vec![1, 0], vec![2, 1], vec![3, 1]]);
    }

    #[test]
    fn null_semantics_in_where() {
        let db = Database::new();
        db.create_table_with_rows(
            "t",
            vec![ColumnMeta {
                name: "a".into(),
                dtype: tpcds_types::DataType::Int,
            }],
            vec![vec![Value::Int(1)], vec![Value::Null], vec![Value::Int(3)]],
        )
        .unwrap();
        let r = query(&db, "select a from t where a > 0").unwrap();
        assert_eq!(r.rows.len(), 2, "NULL fails the predicate");
        let r = query(&db, "select a from t where a is null").unwrap();
        assert_eq!(r.rows.len(), 1);
        let r = query(&db, "select a from t where not (a > 0)").unwrap();
        assert_eq!(r.rows.len(), 0, "NOT UNKNOWN is UNKNOWN");
    }

    #[test]
    fn explain_renders() {
        let db = db_with("t", &["a"], vec![vec![1]]);
        let bound = plan_sql(&db, "select a from t where a = 1").unwrap();
        let text = bound.plan.explain();
        assert!(text.contains("Scan t"), "{text}");
    }

    #[test]
    fn errors_are_reported() {
        let db = db_with("t", &["a"], vec![vec![1]]);
        assert!(query(&db, "select nope from t").is_err());
        assert!(query(&db, "select * from missing").is_err());
        assert!(query(&db, "select a from t where").is_err());
        assert!(
            query(&db, "select sum(a), b from t").is_err(),
            "b not grouped"
        );
    }

    #[test]
    fn create_table_as_materializes_summaries() {
        let db = db_with("t", &["g", "v"], vec![vec![1, 10], vec![1, 20], vec![2, 5]]);
        create_table_as(&db, "summary", "select g, sum(v) total from t group by g").unwrap();
        let r = query(&db, "select total from summary where g = 1").unwrap();
        assert_eq!(ints(&r), vec![vec![30]]);
        // Name collisions are errors.
        assert!(create_table_as(&db, "summary", "select 1").is_err());
    }

    #[test]
    fn index_scan_matches_full_scan() {
        let db = db_with(
            "t",
            &["k", "v"],
            (0..1000).map(|i| vec![i % 50, i]).collect(),
        );
        let without = query(&db, "select count(*) from t where k = 7").unwrap();
        db.create_index("t", "k").unwrap();
        let with = query(&db, "select count(*) from t where k = 7").unwrap();
        assert_eq!(without, with);
        assert_eq!(ints(&with), vec![vec![20]]);
    }
}
