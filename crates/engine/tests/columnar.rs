//! Columnar-path integration tests: predicate compilation coverage,
//! EXPLAIN ANALYZE morsel annotations, aggregation, and what a
//! commit publishes.

use tpcds_engine::{ColumnMeta, ColumnarMode, Database, ExecOptions};
use tpcds_types::{DataType, Date, Decimal, Row, Value};

const OFF: ExecOptions = ExecOptions {
    columnar: ColumnarMode::Off,
    threads: None,
};
const BATCH: ExecOptions = ExecOptions {
    columnar: ColumnarMode::Auto,
    threads: Some(2),
};

/// A table exercising every column-buffer variant the compiler can probe:
/// ints with NULLs, decimals, dates and strings.
fn sales_db() -> Database {
    let db = Database::new();
    let meta = vec![
        ColumnMeta {
            name: "id".into(),
            dtype: DataType::Int,
        },
        ColumnMeta {
            name: "qty".into(),
            dtype: DataType::Int,
        },
        ColumnMeta {
            name: "price".into(),
            dtype: DataType::Decimal,
        },
        ColumnMeta {
            name: "sold".into(),
            dtype: DataType::Date,
        },
        ColumnMeta {
            name: "city".into(),
            dtype: DataType::Str,
        },
    ];
    let cities = ["Aberdeen", "Boston", "Chicago", "Denver"];
    let rows: Vec<Row> = (0..500i64)
        .map(|i| {
            vec![
                Value::Int(i),
                if i % 13 == 0 {
                    Value::Null
                } else {
                    Value::Int(i % 7)
                },
                Value::Decimal(Decimal::from_cents(i * 3)),
                Value::Date(Date::from_ymd(2000, 1, 1).add_days((i % 400) as i32)),
                Value::str(cities[(i % 4) as usize]),
            ]
        })
        .collect();
    db.create_table_with_rows("sales", meta, rows).unwrap();
    db
}

fn canon(rows: &[Row]) -> Vec<Row> {
    let mut v = rows.to_vec();
    v.sort_by(|a, b| {
        a.iter()
            .zip(b.iter())
            .map(|(x, y)| x.sort_cmp(y))
            .find(|o| o.is_ne())
            .unwrap_or(std::cmp::Ordering::Equal)
    });
    v
}

/// Runs `sql` under both routing modes, asserts identical answers, and
/// returns whether the batch run actually took the columnar path (its
/// analyzed plan carries `morsels=`).
fn check(db: &Database, sql: &str) -> bool {
    let row = tpcds_engine::query_with(db, sql, OFF).unwrap();
    let col = tpcds_engine::query_analyze_with(db, sql, BATCH).unwrap();
    assert_eq!(
        canon(&row.rows),
        canon(&col.result.rows),
        "columnar diverges for: {sql}"
    );
    col.plan_text.contains("morsels=")
}

#[test]
fn compiled_predicates_cover_the_filter_grammar() {
    let db = sales_db();
    // Every WHERE clause here must compile to a vectorized predicate: the
    // batch run's plan shows morsel actuals, proving the columnar kernel
    // (not the row fallback) produced the verified answer.
    let compilable = [
        "select id from sales where qty = 3",
        "select id from sales where 3 = qty", // literal-on-left flips
        "select id from sales where qty <> 3",
        "select id from sales where qty < 2",
        "select id from sales where qty <= 2",
        "select id from sales where qty > 4",
        "select id from sales where qty >= 4",
        "select id from sales where price >= 7.41",
        "select id from sales where id between 100 and 199",
        "select id from sales where id not between 10 and 489",
        "select id from sales where qty in (1, 3, 5)",
        "select id from sales where qty not in (1, 3, 5)",
        "select id from sales where qty is null",
        "select id from sales where qty is not null",
        "select id from sales where city like 'A%'",
        "select id from sales where city not like '%o_'",
        "select id from sales where sold = '2000-03-01'", // date vs string literal
        "select id from sales where sold < '2000-06-15' and qty = 2",
        "select id from sales where qty = 1 or city = 'Denver'",
        "select id from sales where not (qty = 1 or qty is null)",
    ];
    for sql in compilable {
        assert!(check(&db, sql), "expected columnar route for: {sql}");
    }
}

#[test]
fn expression_predicates_route_columnar() {
    let db = sales_db();
    // Arithmetic, column-to-column comparisons, CASE and scalar functions
    // compile through the expression kernels now — the batch run must
    // stay on the columnar path and agree with the row oracle.
    for sql in [
        "select id from sales where qty + 1 = 3",
        "select id from sales where id = qty",
        "select id from sales where qty * 2 - 1 > id / 10",
        "select id from sales where price * 2 >= 14.82",
        "select id from sales where coalesce(qty, 9) = 9",
        "select id from sales where nullif(qty, 3) is null",
        "select id from sales where case when qty > 3 then 'hi' else 'lo' end = 'hi'",
        "select id from sales where -qty < -4",
        "select id from sales where abs(qty - 4) <= 1",
    ] {
        assert!(check(&db, sql), "expected columnar route for: {sql}");
    }
}

#[test]
fn computed_projections_route_columnar() {
    let db = sales_db();
    // Computed SELECT lists fuse the Project into the scan: the batch
    // plan carries morsel actuals and expression-kernel counters.
    let sql = "select id + 1, qty * 2, price * 3, \
               case when qty is null then 'none' else city end from sales where id < 200";
    let row = tpcds_engine::query_with(&db, sql, OFF).unwrap();
    let col = tpcds_engine::query_analyze_with(&db, sql, BATCH).unwrap();
    assert_eq!(canon(&row.rows), canon(&col.result.rows), "{sql}");
    assert!(
        col.plan_text.contains("morsels="),
        "expected fused computed project:\n{}",
        col.plan_text
    );
    assert!(
        col.plan_text.contains("expr_kernels="),
        "expected expr kernel actuals:\n{}",
        col.plan_text
    );
}

#[test]
fn fused_aggregate_over_scan_takes_columnar_path() {
    let db = sales_db();
    for sql in [
        "select count(*), sum(price), min(id), max(qty), avg(price) from sales",
        "select city, count(*), sum(price) from sales group by city",
        "select qty, count(qty) from sales where id < 300 group by qty",
        // Filter node over a scan fuses too.
        "select city, avg(price) from sales where qty is not null group by city",
    ] {
        assert!(check(&db, sql), "expected fused aggregate for: {sql}");
    }
}

/// STDDEV_SAMP's state is exact (`n`, `Σx`, `Σx²`), so per-worker
/// partials merge in any order: over five morsels the aggregate runs the
/// kernel and its bytes do not depend on the worker count.
#[test]
fn stddev_samp_runs_columnar_at_any_worker_count() {
    let db = Database::new();
    let meta = ["k", "qty", "price"].map(|name| ColumnMeta {
        name: name.into(),
        dtype: if name == "price" {
            DataType::Decimal
        } else {
            DataType::Int
        },
    });
    let rows: Vec<Row> = (0..40_000i64)
        .map(|i| {
            let qty = match i % 11 {
                0 => Value::Null,
                _ => Value::Int((i * 7919) % 1000),
            };
            let price = Value::Decimal(Decimal::from_cents((i * 104_729) % 100_003));
            vec![Value::Int(i % 5), qty, price]
        })
        .collect();
    db.create_table_with_rows("t", meta.to_vec(), rows).unwrap();
    for sql in [
        "select stddev_samp(qty), stddev_samp(price) from t",
        "select k, stddev_samp(qty), stddev_samp(price * 3) from t group by k",
    ] {
        // The kernel emits groups in key order: every worker count must
        // produce these exact rows.
        let oracle = canon(&tpcds_engine::query_with(&db, sql, OFF).unwrap().rows);
        for threads in [1, 2, 8] {
            let opts = ExecOptions {
                columnar: ColumnarMode::Auto,
                threads: Some(threads),
            };
            let col = tpcds_engine::query_analyze_with(&db, sql, opts).unwrap();
            assert_eq!(col.result.rows, oracle, "{sql} @ {threads}");
            let agg_line = (col.plan_text.lines())
                .find(|l| l.contains("Aggregate"))
                .unwrap();
            assert!(
                agg_line.contains("route=columnar") && agg_line.contains("morsels="),
                "stddev aggregate must run the kernel: {agg_line}"
            );
        }
    }
}

#[test]
fn mutation_commit_publishes_current_segments() {
    let db = sales_db();
    let sql = "select count(*) from sales where qty = 3";
    assert!(check(&db, sql), "a base table should route columnar");
    let pinned = db.snapshot();
    let before = tpcds_engine::query_with(&db, sql, OFF).unwrap();

    db.insert(
        "sales",
        vec![vec![
            Value::Int(1000),
            Value::Int(3),
            Value::Decimal(Decimal::from_cents(1)),
            Value::Date(Date::from_ymd(2001, 1, 1)),
            Value::str("Erie"),
        ]],
    )
    .unwrap();
    // The insert built the new tail segment before publishing: the new
    // snapshot routes columnar immediately — and the columnar path sees
    // the new row.
    let col = tpcds_engine::query_analyze_with(&db, sql, BATCH).unwrap();
    assert!(
        col.plan_text.contains("morsels="),
        "published snapshot must route columnar:\n{}",
        col.plan_text
    );
    let row = tpcds_engine::query_with(&db, sql, OFF).unwrap();
    assert_eq!(col.result.rows, row.rows);
    assert_ne!(before.rows, row.rows, "new row must be visible at head");

    // A snapshot pinned before the mutation still answers from its own
    // (older) segments, byte-identical on both paths.
    let pin_col = tpcds_engine::query_pinned(&db, &pinned, sql, BATCH).unwrap();
    let pin_row = tpcds_engine::query_pinned(&db, &pinned, sql, OFF).unwrap();
    assert_eq!(pin_col.rows, pin_row.rows);
    assert_eq!(pin_row.rows, before.rows, "pinned snapshot is frozen");
}

/// Adds a small dimension table (k, name) to the sales fixture; k has a
/// NULL and duplicate values so join edge cases are exercised.
fn join_db() -> Database {
    let db = sales_db();
    let meta = vec![
        ColumnMeta {
            name: "k".into(),
            dtype: DataType::Int,
        },
        ColumnMeta {
            name: "name".into(),
            dtype: DataType::Str,
        },
    ];
    let mut rows: Vec<Row> = (0..6i64)
        .map(|i| vec![Value::Int(i), Value::str(format!("dim{i}"))])
        .collect();
    rows.push(vec![Value::Null, Value::str("dim-null")]);
    rows.push(vec![Value::Int(2), Value::str("dim2-dup")]);
    db.create_table_with_rows("dims", meta, rows).unwrap();
    db
}

/// Runs `sql` on the row path and on the batch executor, asserting
/// **byte-identical** output (the columnar join preserves probe order and
/// build insertion order, so no canonicalization is needed), and returns
/// the batch run's plan text.
fn check_join(db: &Database, sql: &str) -> String {
    let row = tpcds_engine::query_with(db, sql, OFF).unwrap();
    for threads in [1, 2, 8] {
        let col = tpcds_engine::query_with(
            db,
            sql,
            ExecOptions {
                columnar: ColumnarMode::Auto,
                threads: Some(threads),
            },
        )
        .unwrap();
        assert_eq!(
            row.rows, col.rows,
            "columnar join not byte-identical for: {sql} (threads={threads})"
        );
    }
    tpcds_engine::query_analyze_with(db, sql, BATCH)
        .unwrap()
        .plan_text
}

#[test]
fn hash_join_over_scans_takes_columnar_path() {
    let db = join_db();
    // Explicit JOIN ... ON binds HashJoin over two Scans directly.
    for sql in [
        "select s.id, d.name from sales s join dims d on s.qty = d.k",
        "select s.id, d.name from sales s left join dims d on s.qty = d.k",
        // Comma join: the optimizer pushes single-table predicates into
        // the scans, which fuse into the join's build/probe filters.
        "select s.id, d.name from sales s, dims d where s.qty = d.k and s.id < 100 and d.k > 1",
    ] {
        let plan = check_join(&db, sql);
        assert!(
            plan.contains("build_rows=") && plan.contains("partitions="),
            "expected columnar join for: {sql}\n{plan}"
        );
    }
}

#[test]
fn join_with_residual_routes_columnar() {
    let db = join_db();
    // The residual compares columns across the two sides: it now runs as a
    // compiled expression inside the partitioned probe loop, byte-identical
    // to the row path at every worker count.
    for sql in [
        "select s.id, d.name from sales s join dims d on s.qty = d.k and s.id > d.k",
        "select s.id, d.name from sales s left join dims d on s.qty = d.k and s.id + d.k > 7",
    ] {
        let plan = check_join(&db, sql);
        assert!(
            plan.contains("build_rows=") && plan.contains("partitions="),
            "expected columnar residual join for: {sql}\n{plan}"
        );
    }
}

/// An aggregate over a join folds the joined batch like any other: the
/// join gathers its rows, the aggregate groups them, and the answer is the
/// row path's (up to group order, which the row path does not fix) and
/// the same bytes at every worker count.
#[test]
fn aggregate_over_join_matches_the_row_path() {
    let db = join_db();
    for sql in [
        "select d.name, count(*), sum(s.price) \
         from sales s, dims d where s.qty = d.k group by d.name",
        "select d.name, count(s.id), max(s.price) \
         from sales s left join dims d on s.qty = d.k group by d.name",
        "select count(*), sum(s.price) from sales s, dims d where s.qty = d.k and s.id < 0",
    ] {
        let row = tpcds_engine::query_with(&db, sql, OFF).unwrap();
        let at = |threads| {
            let opts = ExecOptions {
                columnar: ColumnarMode::Auto,
                threads: Some(threads),
            };
            tpcds_engine::query_with(&db, sql, opts).unwrap().rows
        };
        let one = at(1);
        assert_eq!(canon(&row.rows), canon(&one), "{sql}");
        assert_eq!(at(2), one, "{sql}");
        assert_eq!(at(8), one, "{sql}");
        let plan = tpcds_engine::query_analyze_with(&db, sql, BATCH)
            .unwrap()
            .plan_text;
        let join = plan.lines().find(|l| l.contains("HashJoin"));
        assert!(
            join.is_some_and(|l| l.contains("build_rows=")),
            "expected the join kernel under the aggregate: {sql}\n{plan}"
        );
    }
}

#[test]
fn worker_counts_do_not_change_results() {
    let db = sales_db();
    let sql = "select city, qty, count(*), sum(price) from sales \
               where id >= 20 group by city, qty";
    let reference = tpcds_engine::query_with(
        &db,
        sql,
        ExecOptions {
            columnar: ColumnarMode::Auto,
            threads: Some(1),
        },
    )
    .unwrap();
    for threads in [2, 8] {
        let r = tpcds_engine::query_with(
            &db,
            sql,
            ExecOptions {
                columnar: ColumnarMode::Auto,
                threads: Some(threads),
            },
        )
        .unwrap();
        assert_eq!(r.rows, reference.rows, "threads={threads}");
    }
}

#[test]
fn topn_over_scan_takes_fused_path() {
    let db = sales_db();
    let sql = "select id, qty from sales where id >= 20 order by qty desc, id limit 10";
    let row = tpcds_engine::query_with(&db, sql, OFF).unwrap();
    let col = tpcds_engine::query_analyze_with(&db, sql, BATCH).unwrap();
    // ORDER BY output is fully determined (id breaks ties), so the two
    // paths must agree byte-for-byte, not just as multisets.
    assert_eq!(row.rows, col.result.rows, "{}", col.plan_text);
    assert!(col.plan_text.contains("TopN"), "{}", col.plan_text);
    assert!(col.plan_text.contains("heap_rows="), "{}", col.plan_text);
    assert!(col.plan_text.contains("pruned="), "{}", col.plan_text);
}

#[test]
fn full_sort_over_scan_takes_fused_path() {
    let db = sales_db();
    let sql = "select id, city from sales where qty <= 4 order by city, id desc";
    let row = tpcds_engine::query_with(&db, sql, OFF).unwrap();
    let col = tpcds_engine::query_analyze_with(&db, sql, BATCH).unwrap();
    assert_eq!(row.rows, col.result.rows, "{}", col.plan_text);
    assert!(col.plan_text.contains("merge_ways="), "{}", col.plan_text);
}

#[test]
fn limit_over_scan_short_circuits_on_both_paths() {
    let db = sales_db();
    for sql in [
        "select id from sales limit 7",
        "select id from sales where qty = 3 limit 7",
        "select id from sales where qty = 3 limit 0",
        "select id from sales where id < 3 limit 100",
    ] {
        let row = tpcds_engine::query_with(&db, sql, OFF).unwrap();
        let col = tpcds_engine::query_with(&db, sql, BATCH).unwrap();
        // LIMIT without ORDER BY pins no order in SQL, but both paths
        // emit the first n matches in table order — pinned here so the
        // differential suites can compare byte-for-byte.
        assert_eq!(row.rows, col.rows, "{sql}");
    }
}

/// Pins NULL placement for ORDER BY on every sort path: NULLs first on
/// ascending keys, last on descending keys (`Value::sort_cmp` ranks NULL
/// below all non-NULL values and DESC reverses the whole comparison).
#[test]
fn order_by_null_placement_is_pinned_on_all_paths() {
    let db = sales_db();
    // qty is NULL on id % 13 == 0; restrict to a window with known nulls.
    let asc = "select qty, id from sales where id < 30 order by qty, id";
    let desc = "select qty, id from sales where id < 30 order by qty desc, id";
    for opts in [OFF, BATCH] {
        let a = tpcds_engine::query_with(&db, asc, opts).unwrap();
        assert_eq!(a.rows[0][0], Value::Null, "NULLs first ascending");
        assert_eq!(a.rows[0][1], Value::Int(0));
        assert!(a.rows.last().unwrap()[0] != Value::Null);
        let d = tpcds_engine::query_with(&db, desc, opts).unwrap();
        assert_eq!(
            d.rows.last().unwrap()[0],
            Value::Null,
            "NULLs last descending"
        );
        assert!(d.rows[0][0] != Value::Null);
    }
}
