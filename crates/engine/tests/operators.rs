//! Engine integration tests: operator edge cases beyond the unit suite.
//!
//! Every test here runs twice: once on the row path (the correctness
//! oracle) and once on the batch executor, via the [`query`] wrapper
//! below. A divergence fails the test.

use tpcds_engine::{ColumnMeta, ColumnarMode, Database, ExecOptions, QueryResult};
use tpcds_types::{DataType, Decimal, Row, Value};

fn db() -> Database {
    Database::new()
}

/// Sorts rows lexicographically with the engine's total value order, so
/// results from differently-ordered hash aggregations compare as multisets.
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

/// Runs `sql` on the row path, then again on the batch executor, asserts
/// both agree, and returns the row-path result so
/// order-sensitive assertions check the oracle.
fn query(db: &Database, sql: &str) -> tpcds_engine::Result<QueryResult> {
    let row = tpcds_engine::query_with(
        db,
        sql,
        ExecOptions {
            columnar: ColumnarMode::Off,
            threads: None,
        },
    )?;
    let col = tpcds_engine::query_with(
        db,
        sql,
        ExecOptions {
            columnar: ColumnarMode::Auto,
            threads: Some(3),
        },
    )?;
    assert_eq!(
        canon(&row.rows),
        canon(&col.rows),
        "columnar path diverges for: {sql}"
    );
    Ok(row)
}

fn int_table(db: &Database, name: &str, cols: &[&str], rows: Vec<Vec<Option<i64>>>) {
    let meta = cols
        .iter()
        .map(|c| ColumnMeta {
            name: c.to_string(),
            dtype: DataType::Int,
        })
        .collect();
    let rows = rows
        .into_iter()
        .map(|r| {
            r.into_iter()
                .map(|v| v.map(Value::Int).unwrap_or(Value::Null))
                .collect()
        })
        .collect();
    db.create_table_with_rows(name, meta, rows).unwrap();
}

#[test]
fn join_on_null_keys_never_matches() {
    let d = db();
    int_table(&d, "l", &["a"], vec![vec![None], vec![Some(1)]]);
    int_table(&d, "r", &["b"], vec![vec![None], vec![Some(1)]]);
    let r = query(&d, "select count(*) from l, r where a = b").unwrap();
    assert_eq!(r.rows[0][0], Value::Int(1), "NULL = NULL must not join");
}

#[test]
fn left_join_preserves_multiplicity() {
    let d = db();
    int_table(
        &d,
        "l",
        &["a"],
        vec![vec![Some(1)], vec![Some(1)], vec![Some(2)]],
    );
    int_table(&d, "r", &["b"], vec![vec![Some(1)], vec![Some(1)]]);
    let r = query(&d, "select count(*) from l left join r on a = b").unwrap();
    // 2 left rows x 2 matches + 1 unmatched = 5
    assert_eq!(r.rows[0][0], Value::Int(5));
}

#[test]
fn left_join_null_left_key_pads() {
    let d = db();
    int_table(&d, "l", &["a"], vec![vec![None]]);
    int_table(&d, "r", &["b"], vec![vec![Some(1)]]);
    let r = query(&d, "select a, b from l left join r on a = b").unwrap();
    assert_eq!(r.rows.len(), 1);
    assert!(r.rows[0][1].is_null());
}

#[test]
fn aggregate_null_handling() {
    let d = db();
    int_table(
        &d,
        "t",
        &["v"],
        vec![vec![Some(1)], vec![None], vec![Some(3)]],
    );
    let r = query(
        &d,
        "select count(*), count(v), sum(v), avg(v), min(v), max(v) from t",
    )
    .unwrap();
    assert_eq!(r.rows[0][0], Value::Int(3), "count(*) counts NULLs");
    assert_eq!(r.rows[0][1], Value::Int(2), "count(v) skips NULLs");
    assert_eq!(r.rows[0][2], Value::Int(4));
    assert_eq!(
        r.rows[0][3],
        Value::Decimal("2".parse::<Decimal>().unwrap())
    );
    assert_eq!(r.rows[0][4], Value::Int(1));
    assert_eq!(r.rows[0][5], Value::Int(3));
}

#[test]
fn aggregates_take_exactly_one_argument() {
    let d = db();
    int_table(&d, "t", &["a", "b"], vec![vec![Some(1), Some(2)]]);
    for (sql, name) in [
        ("select sum(a, b) from t", "sum"),
        ("select count(distinct a, b) from t", "count"),
        ("select count() from t", "count"),
        ("select max(a, b, a) from t", "max"),
        ("select sum(*) from t", "sum"),
        (
            "select a from t group by rollup(a) having grouping(a, b) = 0",
            "grouping",
        ),
    ] {
        let err = query(&d, sql).unwrap_err().to_string();
        assert!(
            err.contains(&format!("{name} takes exactly one argument")),
            "{sql}: {err}"
        );
    }
    let r = query(&d, "select count(*), count(a), stddev_samp(b) from t").unwrap();
    assert_eq!(r.rows[0][..2], [Value::Int(1), Value::Int(1)]);
}

#[test]
fn non_numeric_sum_and_stddev_raise_on_both_executors() {
    let d = db();
    let meta = vec![ColumnMeta {
        name: "s".into(),
        dtype: DataType::Str,
    }];
    d.create_table_with_rows("t", meta, vec![vec![Value::str("Greenfield")]])
        .unwrap();
    for func in ["sum", "stddev_samp"] {
        for columnar in [ColumnarMode::Off, ColumnarMode::Auto] {
            let opts = ExecOptions {
                columnar,
                threads: Some(2),
            };
            let sql = format!("select {func}(s) from t");
            let err = tpcds_engine::query_with(&d, &sql, opts).unwrap_err();
            let want = format!("{func} of non-number Greenfield");
            assert!(err.to_string().contains(&want), "{columnar:?}: {err}");
        }
    }
}

#[test]
fn group_by_null_forms_its_own_group() {
    let d = db();
    int_table(
        &d,
        "t",
        &["g", "v"],
        vec![
            vec![None, Some(1)],
            vec![None, Some(2)],
            vec![Some(1), Some(5)],
        ],
    );
    let r = query(&d, "select g, sum(v) from t group by g order by g").unwrap();
    assert_eq!(r.rows.len(), 2);
    assert!(r.rows[0][0].is_null());
    assert_eq!(r.rows[0][1], Value::Int(3), "NULLs group together");
}

#[test]
fn having_without_group_by() {
    let d = db();
    int_table(&d, "t", &["v"], vec![vec![Some(1)], vec![Some(2)]]);
    let r = query(&d, "select sum(v) from t having sum(v) > 10").unwrap();
    assert!(r.rows.is_empty());
    let r = query(&d, "select sum(v) from t having sum(v) > 2").unwrap();
    assert_eq!(r.rows.len(), 1);
}

#[test]
fn rollup_with_having_filters_subtotals_too() {
    let d = db();
    int_table(
        &d,
        "t",
        &["a", "v"],
        vec![vec![Some(1), Some(10)], vec![Some(2), Some(1)]],
    );
    let r = query(
        &d,
        "select a, sum(v) from t group by rollup(a) having sum(v) >= 10 order by 1",
    )
    .unwrap();
    // leaf (1, 10) and grand total (NULL, 11) survive; (2, 1) filtered.
    assert_eq!(r.rows.len(), 2);
}

#[test]
fn window_rank_ties_and_gaps() {
    let d = db();
    int_table(
        &d,
        "t",
        &["v"],
        vec![vec![Some(10)], vec![Some(10)], vec![Some(5)], vec![Some(1)]],
    );
    let r = query(
        &d,
        "select v, rank() over (order by v desc) rk,
                dense_rank() over (order by v desc) drk,
                row_number() over (order by v desc) rn
         from t order by v desc, rn",
    )
    .unwrap();
    let got: Vec<Vec<i64>> = r
        .rows
        .iter()
        .map(|row| row.iter().map(|v| v.as_int().unwrap()).collect())
        .collect();
    assert_eq!(got[0][1], 1);
    assert_eq!(got[1][1], 1, "tie shares rank");
    assert_eq!(got[2][1], 3, "rank leaves a gap");
    assert_eq!(got[2][2], 2, "dense_rank does not");
    assert_eq!(got[3][3], 4);
}

#[test]
fn running_window_sum_includes_peers() {
    let d = db();
    int_table(
        &d,
        "t",
        &["k", "v"],
        vec![
            vec![Some(1), Some(10)],
            vec![Some(1), Some(20)],
            vec![Some(2), Some(30)],
        ],
    );
    let r = query(
        &d,
        "select k, v, sum(v) over (order by k) s from t order by k, v",
    )
    .unwrap();
    // k=1 rows are peers: both see 30; k=2 sees 60.
    assert_eq!(r.rows[0][2], Value::Int(30));
    assert_eq!(r.rows[1][2], Value::Int(30));
    assert_eq!(r.rows[2][2], Value::Int(60));
}

/// Window calls bind like aggregate calls: `count(*)` and `stddev_samp`
/// work, while DISTINCT, a wrong argument count and any frame but the
/// default are errors that name the function or the frame.
#[test]
fn window_calls_bind_like_aggregate_calls() {
    let d = db();
    int_table(
        &d,
        "t",
        &["p", "v"],
        vec![
            vec![Some(1), Some(10)],
            vec![Some(1), None],
            vec![Some(2), Some(5)],
            vec![None, Some(5)],
        ],
    );
    let r = query(
        &d,
        "select p, v, count(*) over (partition by p) c, count(v) over (partition by p) cv, \
         stddev_samp(v) over () sd from t order by p, v",
    )
    .unwrap();
    let counts: Vec<_> = r.rows.iter().map(|row| row[2..4].to_vec()).collect();
    let int = |a, b| vec![Value::Int(a), Value::Int(b)];
    assert_eq!(counts, [int(1, 1), int(2, 1), int(2, 1), int(1, 1)]);
    // 10, 5, 5: variance 25/3.
    let sd = r.rows[0][4].as_decimal().unwrap().to_f64();
    assert!((sd - (25.0f64 / 3.0).sqrt()).abs() < 1e-6, "{sd}");
    for (sql, want) in [
        (
            "select count(distinct v) over () from t",
            "DISTINCT is not supported in window function count",
        ),
        (
            "select sum(p, v) over (partition by p) from t",
            "sum takes exactly one argument",
        ),
        (
            "select rank(v) over (order by v) from t",
            "rank takes no arguments",
        ),
        (
            "select row_number(*) over (order by v) from t",
            "row_number takes no arguments",
        ),
        (
            "select sum(v) over (order by p rows between 1 preceding and current row) from t",
            "window frame `rows between 1 preceding and current row` is not supported",
        ),
    ] {
        let err = query(&d, sql).unwrap_err().to_string();
        assert!(err.contains(want), "{sql}: {err}");
    }
    // The default frame, written out, is the default.
    let written = "select v, sum(v) over (order by v range between unbounded preceding \
                   and current row) from t order by v";
    let default = "select v, sum(v) over (order by v) from t order by v";
    assert_eq!(
        query(&d, written).unwrap().rows,
        query(&d, default).unwrap().rows
    );
}

#[test]
fn scalar_subquery_multiple_rows_errors() {
    let d = db();
    int_table(&d, "t", &["a"], vec![vec![Some(1)], vec![Some(2)]]);
    let e = query(&d, "select (select a from t) from t").unwrap_err();
    assert!(e.to_string().contains("more than one row"), "{e}");
}

#[test]
fn scalar_subquery_empty_is_null() {
    let d = db();
    int_table(&d, "t", &["a"], vec![vec![Some(1)]]);
    let r = query(&d, "select (select a from t where a > 10) from t").unwrap();
    assert!(r.rows[0][0].is_null());
}

#[test]
fn not_in_with_nulls_in_list_is_unknown() {
    let d = db();
    int_table(&d, "t", &["a"], vec![vec![Some(1)], vec![Some(2)]]);
    let r = query(&d, "select a from t where a not in (2, null)").unwrap();
    // 1 NOT IN (2, NULL) is UNKNOWN -> excluded.
    assert!(r.rows.is_empty());
}

#[test]
fn union_deduplicates_including_nulls() {
    let d = db();
    int_table(&d, "t", &["a"], vec![vec![None], vec![None], vec![Some(1)]]);
    let r = query(&d, "select a from t union select a from t").unwrap();
    assert_eq!(r.rows.len(), 2);
}

#[test]
fn intersect_and_except_are_set_semantics() {
    let d = db();
    int_table(
        &d,
        "t",
        &["a"],
        vec![vec![Some(1)], vec![Some(1)], vec![Some(2)]],
    );
    let r = query(&d, "select a from t intersect select a from t").unwrap();
    assert_eq!(r.rows.len(), 2, "intersect deduplicates");
    let r = query(&d, "select a from t except select a from t where a = 99").unwrap();
    assert_eq!(r.rows.len(), 2, "except deduplicates left side");
}

#[test]
fn intersect_binds_tighter_than_union_and_except() {
    let d = db();
    let ints = |sql| canon(&query(&d, sql).unwrap().rows);
    let one_two = vec![vec![Value::Int(1)], vec![Value::Int(2)]];
    // 1 ∪ (2 ∩ 2), not (1 ∪ 2) ∩ 2.
    assert_eq!(
        ints("select 1 a union select 2 a intersect select 2 a"),
        one_two
    );
    // (1 ∪ 2) − (2 ∩ 3): the INTERSECT is the EXCEPT's right operand.
    assert_eq!(
        ints("select 1 a union select 2 a except select 2 a intersect select 3 a"),
        one_two
    );
    // Same level: left to right.
    assert_eq!(
        ints("select 1 a union select 2 a except select 2 a"),
        vec![vec![Value::Int(1)]]
    );
}

#[test]
fn intersect_all_and_except_all_are_rejected() {
    let d = db();
    int_table(&d, "t", &["a"], vec![vec![Some(1)], vec![Some(1)]]);
    for op in ["intersect", "except"] {
        let sql = format!("select a from t {op} all select a from t");
        let err = query(&d, &sql).unwrap_err().to_string();
        assert!(
            err.contains(&format!("{} ALL is not supported", op.to_uppercase())),
            "{sql}: {err}"
        );
    }
}

#[test]
fn limit_zero_and_beyond() {
    let d = db();
    int_table(&d, "t", &["a"], vec![vec![Some(1)], vec![Some(2)]]);
    assert!(query(&d, "select a from t limit 0")
        .unwrap()
        .rows
        .is_empty());
    assert_eq!(query(&d, "select a from t limit 99").unwrap().rows.len(), 2);
}

#[test]
fn order_by_nulls_positioning() {
    let d = db();
    int_table(
        &d,
        "t",
        &["a"],
        vec![vec![Some(2)], vec![None], vec![Some(1)]],
    );
    let asc = query(&d, "select a from t order by a").unwrap();
    assert!(asc.rows[0][0].is_null(), "NULLs first ascending");
    let desc = query(&d, "select a from t order by a desc").unwrap();
    assert!(desc.rows[2][0].is_null(), "NULLs last descending");
}

#[test]
fn cross_join_counts() {
    let d = db();
    int_table(&d, "a", &["x"], vec![vec![Some(1)], vec![Some(2)]]);
    int_table(
        &d,
        "b",
        &["y"],
        vec![vec![Some(1)], vec![Some(2)], vec![Some(3)]],
    );
    let r = query(&d, "select count(*) from a, b").unwrap();
    assert_eq!(r.rows[0][0], Value::Int(6));
    let r = query(&d, "select count(*) from a cross join b").unwrap();
    assert_eq!(r.rows[0][0], Value::Int(6));
}

#[test]
fn string_functions_compose() {
    let d = db();
    d.create_table_with_rows(
        "s",
        vec![ColumnMeta {
            name: "v".into(),
            dtype: DataType::Str,
        }],
        vec![vec![Value::str("Hello World")]],
    )
    .unwrap();
    let r = query(
        &d,
        "select substr(v, 1, 5), upper(substr(v, 7, 5)), char_length(v),
                lower(v) || '!' from s",
    )
    .unwrap();
    assert_eq!(r.rows[0][0], Value::str("Hello"));
    assert_eq!(r.rows[0][1], Value::str("WORLD"));
    assert_eq!(r.rows[0][2], Value::Int(11));
    assert_eq!(r.rows[0][3], Value::str("hello world!"));
}

#[test]
fn case_without_else_yields_null() {
    let d = db();
    int_table(&d, "t", &["a"], vec![vec![Some(1)]]);
    let r = query(&d, "select case when a = 2 then 7 end from t").unwrap();
    assert!(r.rows[0][0].is_null());
}

#[test]
fn simple_case_with_operand() {
    let d = db();
    int_table(
        &d,
        "t",
        &["a"],
        vec![vec![Some(1)], vec![Some(2)], vec![Some(3)]],
    );
    let r = query(
        &d,
        "select a, case a when 1 then 10 when 2 then 20 else 0 end from t order by a",
    )
    .unwrap();
    let vals: Vec<i64> = r.rows.iter().map(|x| x[1].as_int().unwrap()).collect();
    assert_eq!(vals, vec![10, 20, 0]);
}

#[test]
fn decimal_aggregation_is_exact() {
    let d = db();
    let meta = vec![ColumnMeta {
        name: "v".into(),
        dtype: DataType::Decimal,
    }];
    let rows: Vec<Vec<Value>> = (0..1000)
        .map(|_| vec![Value::Decimal(Decimal::from_cents(1))])
        .collect();
    d.create_table_with_rows("t", meta, rows).unwrap();
    let r = query(&d, "select sum(v) from t").unwrap();
    // 1000 cents = 10.00 exactly, no float drift.
    assert_eq!(
        r.rows[0][0],
        Value::Decimal("10.00".parse::<Decimal>().unwrap())
    );
}

#[test]
fn distinct_aggregate_interacts_with_groups() {
    let d = db();
    int_table(
        &d,
        "t",
        &["g", "v"],
        vec![
            vec![Some(1), Some(5)],
            vec![Some(1), Some(5)],
            vec![Some(1), Some(7)],
            vec![Some(2), Some(5)],
        ],
    );
    let r = query(
        &d,
        "select g, count(v), count(distinct v), sum(distinct v) from t group by g order by g",
    )
    .unwrap();
    assert_eq!(r.rows[0][1], Value::Int(3));
    assert_eq!(r.rows[0][2], Value::Int(2));
    assert_eq!(r.rows[0][3], Value::Int(12));
    assert_eq!(r.rows[1][2], Value::Int(1));
}

#[test]
fn derived_table_with_set_op_and_outer_aggregate() {
    let d = db();
    int_table(&d, "t", &["a"], vec![vec![Some(1)], vec![Some(2)]]);
    let r = query(
        &d,
        "select count(*) from (select a from t union all select a + 10 from t) x",
    )
    .unwrap();
    assert_eq!(r.rows[0][0], Value::Int(4));
}

#[test]
fn deeply_nested_subqueries() {
    let d = db();
    int_table(
        &d,
        "t",
        &["a"],
        vec![vec![Some(1)], vec![Some(2)], vec![Some(3)]],
    );
    let r = query(
        &d,
        "select a from t where a in (
            select a from t where a in (select a from t where a >= 2))
         order by a",
    )
    .unwrap();
    assert_eq!(r.rows.len(), 2);
}

#[test]
fn key_equalities_count_only_the_rows_left_after_a_delete() {
    let d = db();
    int_table(
        &d,
        "t",
        &["k"],
        (0..100).map(|i| vec![Some(i % 10)]).collect(),
    );
    // delete half: a key equality counts only the rows left
    let mut txn = d.begin();
    let t = txn.table_mut("t").unwrap();
    let gone = t.data().int_ids(0, |k| k < 5);
    t.change(&gone, None).unwrap();
    txn.commit();
    let kept = query(&d, "select count(*) from t where k = 7").unwrap();
    assert_eq!(kept.rows[0][0], Value::Int(10));
    let none = query(&d, "select count(*) from t where k = 3").unwrap();
    assert_eq!(none.rows[0][0], Value::Int(0));
}

#[test]
fn between_bounds_inclusive_and_reversed() {
    let d = db();
    int_table(&d, "t", &["a"], (1..=10).map(|i| vec![Some(i)]).collect());
    let r = query(&d, "select count(*) from t where a between 3 and 5").unwrap();
    assert_eq!(r.rows[0][0], Value::Int(3));
    // reversed bounds qualify nothing (SQL semantics)
    let r = query(&d, "select count(*) from t where a between 5 and 3").unwrap();
    assert_eq!(r.rows[0][0], Value::Int(0));
    let r = query(&d, "select count(*) from t where a not between 3 and 5").unwrap();
    assert_eq!(r.rows[0][0], Value::Int(7));
}
