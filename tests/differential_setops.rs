//! Differential set-operation harness: UNION / UNION ALL / INTERSECT /
//! EXCEPT and SELECT DISTINCT over NULL-bearing rows, checked against an
//! independent reference implementation of SQL set semantics (where
//! dedup treats NULL = NULL, unlike predicate equality), and then run
//! through the row-vs-columnar differential at 1/2/8 workers. The binder
//! lowers all of them onto UNION ALL and the hash aggregate, so every
//! node must also run the batch kernels (`route=columnar`) — the
//! reference below is the check that does not share that lowering.

use std::collections::BTreeSet;
use std::sync::Arc;

use tpcds_repro::engine::ColumnMeta;
use tpcds_repro::engine::{ColumnarMode, ExecOptions};
use tpcds_repro::synth::diff::{canon, run_differential};
use tpcds_repro::types::rng::{test_seed, SplitMix64};
use tpcds_repro::types::{DataType, Row, Value};
use tpcds_repro::Database;

fn int_meta(name: &str) -> ColumnMeta {
    ColumnMeta {
        name: name.into(),
        dtype: DataType::Int,
    }
}

/// Two small tables with heavy duplicate and NULL traffic in both
/// columns — every set operation outcome hinges on NULL dedup.
fn build_db(rng: &mut SplitMix64, rows: usize) -> Database {
    let db = Database::new();
    for (t, prefix) in [("ta", "a"), ("tb", "b")] {
        let meta = vec![
            int_meta(&format!("{prefix}_x")),
            int_meta(&format!("{prefix}_y")),
        ];
        let rows: Vec<Row> = (0..rows)
            .map(|_| {
                let gen = |rng: &mut SplitMix64| {
                    if rng.below(4) == 0 {
                        Value::Null
                    } else {
                        Value::Int(rng.below(4) as i64)
                    }
                };
                vec![gen(rng), gen(rng)]
            })
            .collect();
        db.create_table_with_rows(t, meta, rows).unwrap();
    }
    db
}

/// A total-order key for a row that treats NULL as a distinct, equal-to-
/// itself value — the dedup notion SQL set operations use.
fn key(row: &Row) -> Vec<Option<i64>> {
    row.iter()
        .map(|v| match v {
            Value::Null => None,
            Value::Int(x) => Some(*x),
            other => panic!("unexpected value {other:?}"),
        })
        .collect()
}

fn dedup_first_seen(rows: &[Row]) -> Vec<Row> {
    let mut seen = BTreeSet::new();
    rows.iter()
        .filter(|r| seen.insert(key(r)))
        .cloned()
        .collect()
}

/// Reference SQL set semantics over materialized inputs.
fn reference(op: &str, a: &[Row], b: &[Row]) -> Vec<Row> {
    match op {
        "union all" => a.iter().chain(b.iter()).cloned().collect(),
        "union" => {
            let all: Vec<Row> = a.iter().chain(b.iter()).cloned().collect();
            dedup_first_seen(&all)
        }
        "intersect" => {
            let right: BTreeSet<_> = b.iter().map(key).collect();
            dedup_first_seen(a)
                .into_iter()
                .filter(|r| right.contains(&key(r)))
                .collect()
        }
        "except" => {
            let right: BTreeSet<_> = b.iter().map(key).collect();
            dedup_first_seen(a)
                .into_iter()
                .filter(|r| !right.contains(&key(r)))
                .collect()
        }
        other => panic!("unknown op {other}"),
    }
}

fn row_path() -> ExecOptions {
    ExecOptions {
        columnar: ColumnarMode::Off,
        threads: Some(1),
    }
}

/// Every node of `sql`'s plan runs the batch kernels under `auto` and
/// `force`, and the answer bytes do not depend on the worker count.
fn assert_batch_routed(db: &Database, sql: &str) {
    for columnar in [ColumnarMode::Auto, ColumnarMode::Force] {
        let run = |threads| {
            let opts = ExecOptions {
                columnar,
                threads: Some(threads),
            };
            tpcds_repro::engine::query_analyze_with(db, sql, opts).expect("analyze")
        };
        let one = run(1);
        for line in one.plan_text.lines() {
            assert!(
                line.contains("route=columnar"),
                "{columnar:?}: {line}\nsql: {sql}\n{}",
                one.plan_text
            );
        }
        for threads in [2, 8] {
            assert_eq!(run(threads).result.rows, one.result.rows, "{sql}");
        }
    }
}

#[test]
fn set_ops_match_reference_semantics_and_both_paths() {
    let seed = test_seed(0x5E70);
    eprintln!("differential_setops seed: {seed} (override with TPCDS_TEST_SEED)");
    let mut rng = SplitMix64(seed);
    let db = Arc::new(build_db(&mut rng, 3_000));
    let snap = db.snapshot();

    let arms = [
        ("select a_x, a_y from ta", "select b_x, b_y from tb"),
        (
            "select a_x, a_y from ta where a_x is not null",
            "select b_x, b_y from tb where b_y is not null",
        ),
        (
            "select a_y, a_x from ta where a_y >= 1",
            "select b_y, b_x from tb",
        ),
    ];
    for op in ["union", "union all", "intersect", "except"] {
        for (left, right) in &arms {
            let sql = format!("{left} {op} {right}");

            // Reference check: materialize each arm on the row path, run
            // the op independently, compare as multisets.
            let a = tpcds_repro::engine::query_with(&db, left, row_path())
                .expect("left arm")
                .rows;
            let b = tpcds_repro::engine::query_with(&db, right, row_path())
                .expect("right arm")
                .rows;
            let expect = canon(reference(op, &a, &b));
            let got = canon(
                tpcds_repro::engine::query_with(&db, &sql, row_path())
                    .expect("set op")
                    .rows,
            );
            assert_eq!(
                got, expect,
                "row path disagrees with reference semantics for: {sql}"
            );

            // Differential check: columnar path at 1/2/8 workers.
            if let Err(e) = run_differential(&db, &snap, &sql) {
                panic!("differential failed: {e:?}\nsql: {sql}");
            }
            assert_batch_routed(&db, &sql);
        }
    }
}

/// Rows whose every column is NULL are one group on both sides:
/// INTERSECT keeps it when both sides have it, EXCEPT when only the left.
#[test]
fn null_only_rows_intersect_and_except() {
    let mut rng = SplitMix64(test_seed(0x2A11));
    let db = Arc::new(build_db(&mut rng, 500));
    let nulls = |t: &str, p: &str| {
        format!("select {p}_x, {p}_y from {t} where {p}_x is null and {p}_y is null")
    };
    let (a, b) = (nulls("ta", "a"), nulls("tb", "b"));
    let some_b = "select b_x, b_y from tb where b_x is not null";
    let null_row = vec![vec![Value::Null, Value::Null]];
    for (sql, expect) in [
        (format!("{a} intersect {b}"), null_row.clone()),
        (format!("{a} except {some_b}"), null_row.clone()),
        (format!("{a} except {b}"), vec![]),
        (
            "select null x intersect select null x".to_string(),
            vec![vec![Value::Null]],
        ),
        ("select null x except select null x".to_string(), vec![]),
    ] {
        let got = tpcds_repro::engine::query_with(&db, &sql, row_path()).expect("set op");
        assert_eq!(got.rows, expect, "{sql}");
        if let Err(e) = run_differential(&db, &db.snapshot(), &sql) {
            panic!("differential failed: {e:?}\nsql: {sql}");
        }
        assert_batch_routed(&db, &sql);
    }
}

/// A UNION ALL column whose sides type it differently (`1` vs `1.00`)
/// keeps each value as the row path does — the batch concatenation boxes
/// the column rather than converting it.
#[test]
fn union_all_keeps_mixed_int_and_decimal_values() {
    let mut rng = SplitMix64(test_seed(0x1D0C));
    let db = build_db(&mut rng, 50);
    for sql in [
        "select 1 v union all select 1.00 v",
        "select a_x v from ta where a_x = 1 union all select 1.00 v from tb where b_x = 1",
    ] {
        let shown = |opts| {
            let r = tpcds_repro::engine::query_with(&db, sql, opts).expect(sql);
            format!("{:?}", r.rows)
        };
        let oracle = shown(row_path());
        assert!(
            oracle.contains("Int(1)") && oracle.contains("Decimal"),
            "{oracle}"
        );
        for columnar in [ColumnarMode::Auto, ColumnarMode::Force] {
            for threads in [1, 2, 8] {
                let opts = ExecOptions {
                    columnar,
                    threads: Some(threads),
                };
                assert_eq!(shown(opts), oracle, "{sql} ({opts:?})");
            }
        }
        assert_batch_routed(&db, sql);
    }
}

/// DISTINCT is the one-armed dedup; NULL rows must collapse too.
#[test]
fn distinct_collapses_null_rows() {
    let seed = test_seed(0xD157);
    let mut rng = SplitMix64(seed);
    let db = Arc::new(build_db(&mut rng, 2_000));
    let snap = db.snapshot();

    for sql in [
        "select distinct a_x from ta",
        "select distinct a_x, a_y from ta",
        "select distinct a_x from ta where a_y is null",
    ] {
        let all = tpcds_repro::engine::query_with(&db, &sql.replace("distinct ", ""), row_path())
            .expect("plain")
            .rows;
        let expect = canon(dedup_first_seen(&all));
        let got = canon(
            tpcds_repro::engine::query_with(&db, sql, row_path())
                .expect("distinct")
                .rows,
        );
        assert_eq!(got, expect, "distinct semantics drifted for: {sql}");
        if let Err(e) = run_differential(&db, &snap, sql) {
            panic!("differential failed: {e:?}\nsql: {sql}");
        }
        assert_batch_routed(&db, sql);
    }
}
