//! Differential set-operation harness: UNION / UNION ALL / INTERSECT /
//! EXCEPT and SELECT DISTINCT over NULL-bearing rows, checked against an
//! independent reference implementation of SQL set semantics (where
//! dedup treats NULL = NULL, unlike predicate equality), and then run
//! through the row-vs-columnar differential at 1/2/8 workers. These
//! tails always route serial today (`NO_KERNEL`); this pins their
//! semantics before any kernel work touches them.

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
        }
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
    }
}
