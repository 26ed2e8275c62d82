//! Differential window-function harness: pins the serial
//! `exec.rs::window` semantics — PARTITION BY with NULL keys, the
//! default frame (range unbounded preceding → current peer group),
//! rank/dense_rank tie handling — before the planned parallelization
//! lands. A seeded generator produces window queries over a synthetic
//! NULL- and tie-heavy table; every query runs on the row path (the
//! oracle) and the columnar path (`force`) at 1/2/8 workers. Window
//! evaluation itself is serial on every path, but its *input* can come
//! from a columnar child, so the window functions used here are all
//! tie-stable (ranks, peer-group aggregates, ROW_NUMBER over a unique
//! key) — their output must not depend on child row order.

use std::sync::Arc;

use tpcds_repro::engine::{ColumnMeta, ColumnarMode, ExecOptions};
use tpcds_repro::synth::diff::run_differential;
use tpcds_repro::types::rng::{test_seed, SplitMix64};
use tpcds_repro::types::{DataType, Row, Value};
use tpcds_repro::Database;

fn int_meta(name: &str) -> ColumnMeta {
    ColumnMeta {
        name: name.into(),
        dtype: DataType::Int,
    }
}

/// One wide table past the inline-parallelism threshold: a unique pk, a
/// NULL-able low-NDV partition key, a NULL-able duplicate-heavy order
/// key (many ties), and a value column.
fn build_db(rng: &mut SplitMix64, rows: usize) -> Database {
    let db = Database::new();
    let meta = vec![
        int_meta("w_pk"),
        int_meta("w_part"),
        int_meta("w_ord"),
        int_meta("w_val"),
    ];
    let rows: Vec<Row> = (0..rows as i64)
        .map(|i| {
            let part = if rng.below(8) == 0 {
                Value::Null
            } else {
                Value::Int(rng.below(5) as i64)
            };
            let ord = if rng.below(10) == 0 {
                Value::Null
            } else {
                Value::Int(rng.below(7) as i64)
            };
            vec![Value::Int(i), part, ord, Value::Int(rng.below(100) as i64)]
        })
        .collect();
    db.create_table_with_rows("win_t", meta, rows).unwrap();
    db
}

fn gen_query(rng: &mut SplitMix64) -> String {
    let call = match rng.below(6) {
        0 => "sum(w_val) over (partition by w_part)",
        1 => "sum(w_val) over (partition by w_part order by w_ord)",
        2 => "count(w_val) over (partition by w_part order by w_ord)",
        3 => "rank() over (partition by w_part order by w_ord)",
        4 => "dense_rank() over (partition by w_part order by w_ord)",
        _ => "row_number() over (partition by w_part order by w_pk)",
    };
    let filter = match rng.below(3) {
        0 => "",
        1 => " where w_val <= 60",
        _ => " where w_ord is not null",
    };
    format!("select w_pk, w_part, w_ord, {call} from win_t{filter}")
}

#[test]
fn seeded_window_queries_match_across_paths_and_workers() {
    let seed = test_seed(0x5EED11);
    eprintln!("differential_window seed: {seed} (override with TPCDS_TEST_SEED)");
    let mut rng = SplitMix64(seed);
    let db = Arc::new(build_db(&mut rng, 20_000));
    let snap = db.snapshot();
    for q in 0..30 {
        let sql = gen_query(&mut rng);
        if let Err(e) = run_differential(&db, &snap, &sql) {
            panic!("query {q} diverged: {e:?}\nseed: {seed}\nsql: {sql}");
        }
    }
}

/// Hand-computed semantics on a six-row fixture, asserted exactly:
/// * NULL partition keys form one partition;
/// * aggregate windows with ORDER BY use the default frame — a running
///   aggregate where all peers (tied order keys) share one value;
/// * RANK leaves gaps after ties, DENSE_RANK does not.
#[test]
fn window_semantics_pinned_on_fixture() {
    let db = Database::new();
    let meta = vec![int_meta("f_pk"), int_meta("f_part"), int_meta("f_ord")];
    let rows: Vec<Row> = vec![
        vec![Value::Int(1), Value::Int(1), Value::Int(10)],
        vec![Value::Int(2), Value::Int(1), Value::Int(10)],
        vec![Value::Int(3), Value::Int(1), Value::Int(20)],
        vec![Value::Int(4), Value::Null, Value::Int(5)],
        vec![Value::Int(5), Value::Null, Value::Int(7)],
        vec![Value::Int(6), Value::Null, Value::Int(5)],
    ];
    db.create_table_with_rows("f", meta, rows).unwrap();

    let opts = ExecOptions {
        columnar: ColumnarMode::Off,
        threads: Some(1),
    };
    let sql = "select f_pk, \
               rank() over (partition by f_part order by f_ord), \
               dense_rank() over (partition by f_part order by f_ord), \
               sum(f_ord) over (partition by f_part order by f_ord) \
               from f order by 1";
    let got = tpcds_repro::engine::query_with(&db, sql, opts).expect("fixture query");
    let expect: Vec<Row> = vec![
        // f_part = 1: ords 10,10,20 → ranks 1,1,3; dense 1,1,2;
        // running peer-group sums 20,20,40.
        vec![Value::Int(1), Value::Int(1), Value::Int(1), Value::Int(20)],
        vec![Value::Int(2), Value::Int(1), Value::Int(1), Value::Int(20)],
        vec![Value::Int(3), Value::Int(3), Value::Int(2), Value::Int(40)],
        // f_part = NULL is ONE partition: ords 5,7,5 → ranks 1,3,1;
        // dense 1,2,1; running sums 10,17,10.
        vec![Value::Int(4), Value::Int(1), Value::Int(1), Value::Int(10)],
        vec![Value::Int(5), Value::Int(3), Value::Int(2), Value::Int(17)],
        vec![Value::Int(6), Value::Int(1), Value::Int(1), Value::Int(10)],
    ];
    assert_eq!(got.rows, expect, "window fixture semantics drifted");
}
