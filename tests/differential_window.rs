//! Differential window-function harness. Window calls run on a batch
//! kernel (`route=columnar`) under `auto`: each call sorts
//! its input by (partition keys, order keys, row position) and walks that
//! order once, folding the aggregate accumulators a GROUP BY uses; the
//! row interpreter (`off`) partitions by hash and sorts each partition.
//! A seeded generator produces window queries over a NULL- and tie-heavy
//! table; every query is checked against a plain-Rust reference computed
//! from the generated rows (NULL partition keys equal, peers — rows with
//! equal order keys — sharing one value), on every path and at 1 / 2 / 8
//! workers, where the answer bytes must not depend on the worker count.
//! A six-row fixture pins the semantics by hand, and a 50,000-row running
//! SUM pins that a running aggregate is linear on both executors.

use std::collections::HashMap;
use std::time::{Duration, Instant};

use tpcds_core::engine::{ColumnMeta, ColumnarMode, ExecOptions};
use tpcds_core::types::rng::{test_seed, SplitMix64};
use tpcds_core::types::{DataType, Decimal, Row, Value};
use tpcds_core::Database;

fn meta(name: &str, dtype: DataType) -> ColumnMeta {
    ColumnMeta {
        name: name.into(),
        dtype,
    }
}

fn int_meta(name: &str) -> ColumnMeta {
    meta(name, DataType::Int)
}

const PART: usize = 1;
const GRP: usize = 2;
const ORD: usize = 3;
const VAL: usize = 4;
const AMT: usize = 5;

/// `win_t(w_pk, w_part, w_grp, w_ord, w_val, w_amt)` past the
/// inline-parallelism threshold: a unique pk, two NULL-able low-NDV
/// partition keys (`w_grp` a string), a NULL-able duplicate-heavy order
/// key (many ties), an int value and a NULL-able decimal.
fn build_db(rng: &mut SplitMix64, rows: usize) -> Database {
    let db = Database::new();
    let cols = vec![
        int_meta("w_pk"),
        int_meta("w_part"),
        meta("w_grp", DataType::Str),
        int_meta("w_ord"),
        int_meta("w_val"),
        meta("w_amt", DataType::Decimal),
    ];
    let maybe = |rng: &mut SplitMix64, one_in: u64, v: Value| match rng.below(one_in) {
        0 => Value::Null,
        _ => v,
    };
    let rows: Vec<Row> = (0..rows as i64)
        .map(|i| {
            let part = Value::Int(rng.below(5) as i64);
            let grp = Value::str(["east", "west", "north"][rng.below(3) as usize]);
            let ord = Value::Int(rng.below(7) as i64);
            let amt = Value::Decimal(Decimal::from_cents(rng.below(20_000) as i64 - 5_000));
            vec![
                Value::Int(i),
                maybe(rng, 8, part),
                maybe(rng, 9, grp),
                maybe(rng, 10, ord),
                Value::Int(rng.below(100) as i64),
                maybe(rng, 6, amt),
            ]
        })
        .collect();
    db.create_table_with_rows("win_t", cols, rows).unwrap();
    db
}

/// A window function, as the reference computes it.
#[derive(Clone, Copy)]
enum F {
    CountStar,
    Count,
    Sum,
    Avg,
    Min,
    Max,
    Stddev,
    Rank,
    DenseRank,
    RowNumber,
}

/// One generated call: SQL text and what the reference needs.
struct Call {
    sql: &'static str,
    f: F,
    arg: usize,
    part: usize,
    /// ORDER BY column and DESC.
    order: Option<(usize, bool)>,
}

const fn call(
    sql: &'static str,
    f: F,
    arg: usize,
    part: usize,
    order: Option<(usize, bool)>,
) -> Call {
    Call {
        sql,
        f,
        arg,
        part,
        order,
    }
}

/// Calls partitioned by `w_part`.
const BY_PART: &[Call] = &[
    call(
        "sum(w_val) over (partition by w_part)",
        F::Sum,
        VAL,
        PART,
        None,
    ),
    call(
        "sum(w_val) over (partition by w_part order by w_ord)",
        F::Sum,
        VAL,
        PART,
        Some((ORD, false)),
    ),
    call(
        "count(w_amt) over (partition by w_part order by w_ord)",
        F::Count,
        AMT,
        PART,
        Some((ORD, false)),
    ),
    call(
        "rank() over (partition by w_part order by w_ord)",
        F::Rank,
        0,
        PART,
        Some((ORD, false)),
    ),
    call(
        "dense_rank() over (partition by w_part order by w_ord desc)",
        F::DenseRank,
        0,
        PART,
        Some((ORD, true)),
    ),
    call(
        "row_number() over (partition by w_part order by w_pk)",
        F::RowNumber,
        0,
        PART,
        Some((0, false)),
    ),
    call(
        "min(w_amt) over (partition by w_part)",
        F::Min,
        AMT,
        PART,
        None,
    ),
    call(
        "stddev_samp(w_amt) over (partition by w_part)",
        F::Stddev,
        AMT,
        PART,
        None,
    ),
];

/// Calls partitioned by `w_grp`.
const BY_GRP: &[Call] = &[
    call(
        "avg(w_amt) over (partition by w_grp)",
        F::Avg,
        AMT,
        GRP,
        None,
    ),
    call(
        "max(w_val) over (partition by w_grp)",
        F::Max,
        VAL,
        GRP,
        None,
    ),
    call(
        "count(*) over (partition by w_grp)",
        F::CountStar,
        0,
        GRP,
        None,
    ),
    call(
        "stddev_samp(w_val) over (partition by w_grp)",
        F::Stddev,
        VAL,
        GRP,
        None,
    ),
    call(
        "sum(w_amt) over (partition by w_grp order by w_ord desc)",
        F::Sum,
        AMT,
        GRP,
        Some((ORD, true)),
    ),
    call(
        "max(w_amt) over (partition by w_grp order by w_ord)",
        F::Max,
        AMT,
        GRP,
        Some((ORD, false)),
    ),
    call(
        "rank() over (partition by w_grp order by w_ord desc)",
        F::Rank,
        0,
        GRP,
        Some((ORD, true)),
    ),
];

/// Whether a WHERE clause admits a row.
type Admits = fn(&Row) -> bool;

/// The WHERE clauses, with the rows each admits.
const FILTERS: &[(&str, Admits)] = &[
    ("", |_| true),
    (" where w_val <= 60", |r| r[VAL].as_int().unwrap() <= 60),
    (" where w_ord is not null", |r| !r[ORD].is_null()),
];

/// The exact aggregate of `vals` (a frame's non-NULL argument values),
/// over `rows` rows.
fn fold(f: F, rows: usize, vals: &[Value]) -> Value {
    let dec = |v: &Value| v.as_decimal().unwrap();
    let total = || (vals.iter()).fold(Decimal::ZERO, |s, v| s.checked_add(&dec(v)).unwrap());
    let best = |o: std::cmp::Ordering| {
        let pick = |a: &Value, b: &Value| {
            if b.sort_cmp(a) == o {
                b.clone()
            } else {
                a.clone()
            }
        };
        vals.iter()
            .cloned()
            .reduce(|a, b| pick(&a, &b))
            .unwrap_or(Value::Null)
    };
    match f {
        F::CountStar => Value::Int(rows as i64),
        F::Count => Value::Int(vals.len() as i64),
        F::Sum if vals.is_empty() => Value::Null,
        F::Sum if matches!(vals[0], Value::Int(_)) => {
            Value::Int(vals.iter().map(|v| v.as_int().unwrap()).sum())
        }
        F::Sum => Value::Decimal(total()),
        F::Avg if vals.is_empty() => Value::Null,
        F::Avg => Value::Decimal(
            total()
                .checked_div(&Decimal::from_int(vals.len() as i64))
                .unwrap(),
        ),
        F::Min => best(std::cmp::Ordering::Less),
        F::Max => best(std::cmp::Ordering::Greater),
        F::Stddev if vals.len() < 2 => Value::Null,
        F::Stddev => {
            // Two-pass f64: a different algorithm from the engine's exact
            // moments, so cells compare to within the sixth decimal.
            let xs: Vec<f64> = vals.iter().map(|v| dec(v).to_f64()).collect();
            let mean = xs.iter().sum::<f64>() / xs.len() as f64;
            let ss: f64 = xs.iter().map(|x| (x - mean) * (x - mean)).sum();
            Value::Decimal(Decimal::from_f64((ss / (xs.len() - 1) as f64).sqrt(), 6))
        }
        F::Rank | F::DenseRank | F::RowNumber => unreachable!("not an aggregate"),
    }
}

/// The call's value for each of `rows`, in order: the rows grouped on
/// the partition column (NULLs equal), each partition stably sorted on
/// the order column, every peer group — equal order values — given its
/// rank or the aggregate of the partition's rows through its last peer.
fn reference(call: &Call, rows: &[Row]) -> Vec<Value> {
    let mut parts: HashMap<Value, Vec<usize>> = HashMap::new();
    for (i, r) in rows.iter().enumerate() {
        parts.entry(r[call.part].clone()).or_default().push(i);
    }
    let key = |i: usize| call.order.map(|(k, _)| rows[i][k].clone());
    let mut out = vec![Value::Null; rows.len()];
    for (_, mut idxs) in parts {
        if let Some((k, desc)) = call.order {
            idxs.sort_by(|&a, &b| {
                let o = rows[a][k].sort_cmp(&rows[b][k]);
                if desc {
                    o.reverse()
                } else {
                    o
                }
            });
        }
        let (mut before, mut dense) = (0, 0);
        for peers in idxs.chunk_by(|&a, &b| key(a) == key(b)) {
            dense += 1;
            let frame = &idxs[..before + peers.len()];
            let aggregate = || {
                let vals: Vec<Value> = (frame.iter())
                    .map(|&i| rows[i][call.arg].clone())
                    .filter(|v| !v.is_null())
                    .collect();
                fold(call.f, frame.len(), &vals)
            };
            let value = match call.f {
                F::Rank => Value::Int(before as i64 + 1),
                F::DenseRank => Value::Int(dense),
                F::RowNumber => Value::Null,
                _ => aggregate(),
            };
            for (j, &i) in peers.iter().enumerate() {
                out[i] = match call.f {
                    F::RowNumber => Value::Int((before + j) as i64 + 1),
                    _ => value.clone(),
                };
            }
            before += peers.len();
        }
    }
    out
}

/// One generated query: one call, or two over different partitions,
/// under one of the filters; rows come back in `w_pk` order.
fn gen_query(rng: &mut SplitMix64) -> (String, Vec<&'static Call>, Admits) {
    let mut calls = vec![rng.pick(BY_PART)];
    if rng.below(2) == 0 {
        calls.push(rng.pick(BY_GRP));
    }
    if rng.below(2) == 0 {
        calls.reverse();
    }
    let (filter, admits) = *rng.pick(FILTERS);
    let items: Vec<&str> = calls.iter().map(|c| c.sql).collect();
    let sql = format!(
        "select w_pk, {} from win_t{filter} order by w_pk",
        items.join(", ")
    );
    (sql, calls, admits)
}

/// Whether `got` is `expect`, STDDEV_SAMP cells to within the sixth
/// decimal.
fn agrees(got: &[Row], expect: &[Row], calls: &[&Call]) -> bool {
    got.len() == expect.len()
        && got.iter().zip(expect).all(|(g, e)| {
            (0..e.len()).all(|c| match (&g[c], &e[c]) {
                (Value::Decimal(a), Value::Decimal(b))
                    if c > 0 && matches!(calls[c - 1].f, F::Stddev) =>
                {
                    (a.to_f64() - b.to_f64()).abs() <= 1.5e-6
                }
                (a, b) => a == b && a.is_null() == b.is_null(),
            })
        })
}

fn opts(columnar: ColumnarMode, threads: usize) -> ExecOptions {
    ExecOptions {
        columnar,
        threads: Some(threads),
    }
}

#[test]
fn seeded_window_queries_match_across_paths_and_workers() {
    let seed = test_seed(0x5EED11);
    eprintln!("differential_window seed: {seed} (override with TPCDS_TEST_SEED)");
    let mut rng = SplitMix64(seed);
    let db = build_db(&mut rng, 20_000);
    let all = tpcds_core::engine::query(&db, "select * from win_t order by w_pk")
        .unwrap()
        .rows;
    for q in 0..30 {
        let (sql, calls, admits) = gen_query(&mut rng);
        let rows: Vec<Row> = all.iter().filter(|r| admits(r)).cloned().collect();
        let columns: Vec<Vec<Value>> = calls.iter().map(|c| reference(c, &rows)).collect();
        let expect: Vec<Row> = (rows.iter().enumerate())
            .map(|(i, r)| {
                [r[0].clone()]
                    .into_iter()
                    .chain(columns.iter().map(|c| c[i].clone()))
                    .collect()
            })
            .collect();
        let run = |columnar, threads| {
            tpcds_core::engine::query_analyze_with(&db, &sql, opts(columnar, threads))
                .unwrap_or_else(|e| panic!("query {q} failed: {e}\nsql: {sql}"))
        };
        let oracle = run(ColumnarMode::Off, 1).result.rows;
        assert!(
            agrees(&oracle, &expect, &calls),
            "off vs reference, query {q}: {sql}"
        );
        let columnar = ColumnarMode::Auto;
        let one = run(columnar, 1);
        for line in one.plan_text.lines() {
            assert!(
                line.contains("route=columnar"),
                "{columnar:?}: {sql}\n{}",
                one.plan_text
            );
        }
        let mode = format!("{columnar:?}");
        assert!(
            agrees(&one.result.rows, &expect, &calls),
            "{mode} vs reference: {sql}"
        );
        for threads in [2, 8] {
            let rows = run(columnar, threads).result.rows;
            assert_eq!(rows, one.result.rows, "{mode} @ {threads}: {sql}");
        }
    }
}

/// Hand-computed semantics on a six-row fixture, asserted exactly on
/// every path at 1 / 2 / 8 workers:
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

    let sql = "select f_pk, \
               rank() over (partition by f_part order by f_ord), \
               dense_rank() over (partition by f_part order by f_ord), \
               sum(f_ord) over (partition by f_part order by f_ord) \
               from f order by 1";
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
    for columnar in [ColumnarMode::Off, ColumnarMode::Auto] {
        for threads in [1, 2, 8] {
            let got = tpcds_core::engine::query_with(&db, sql, opts(columnar, threads))
                .expect("fixture query");
            assert_eq!(
                got.rows, expect,
                "{columnar:?} @ {threads}: window fixture drifted"
            );
        }
    }
}

/// A running SUM over 50,000 distinct order keys — 50,000 peer groups —
/// finishes in seconds on both executors, even in a debug build, only if
/// each folds every row once; the last running value is the column total.
#[test]
fn running_sum_is_linear_on_both_executors() {
    let db = Database::new();
    let rows: Vec<Row> = (0..50_000i64)
        .map(|i| vec![Value::Int((i * 7_919) % 50_000), Value::Int(i % 1_000)])
        .collect();
    let total: i64 = rows.iter().map(|r| r[1].as_int().unwrap()).sum();
    db.create_table_with_rows("big", vec![int_meta("k"), int_meta("v")], rows)
        .unwrap();
    let sql = "select k, sum(v) over (order by k) s from big order by k";
    for columnar in [ColumnarMode::Off, ColumnarMode::Auto] {
        let start = Instant::now();
        let r = tpcds_core::engine::query_with(&db, sql, opts(columnar, 2)).unwrap();
        let took = start.elapsed();
        assert_eq!(r.rows.len(), 50_000);
        assert_eq!(r.rows[49_999][1], Value::Int(total), "{columnar:?}");
        assert!(took < Duration::from_secs(10), "{columnar:?} took {took:?}");
    }
}

/// Strings whose order is byte order: multi-byte characters, the empty
/// string, and prefixes of one another.
const WORDS: [&str; 8] = ["", "a", "ab", "é", "éa", "日本", "日", "z"];

/// Partition and order keys that are strings with multi-byte, empty and
/// NULL cells, and MIN/MAX over a string argument: the batch kernel agrees
/// with the row path at 1 / 2 / 8 workers.
#[test]
fn multibyte_and_empty_string_keys_partition_and_order_identically() {
    let mut rng = SplitMix64(test_seed(0x57_12));
    let db = Database::new();
    let cols = vec![
        int_meta("s_pk"),
        meta("s_g", DataType::Str),
        meta("s_o", DataType::Str),
        int_meta("s_v"),
    ];
    let word = |rng: &mut SplitMix64| match rng.below(7) {
        0 => Value::Null,
        _ => Value::str(WORDS[rng.below(WORDS.len() as u64) as usize]),
    };
    let rows: Vec<Row> = (0..20_000i64)
        .map(|i| {
            let (g, o) = (word(&mut rng), word(&mut rng));
            vec![Value::Int(i), g, o, Value::Int(rng.below(50) as i64)]
        })
        .collect();
    db.create_table_with_rows("s_t", cols, rows).unwrap();
    for sql in [
        "select s_pk, rank() over (partition by s_g order by s_o), \
         min(s_o) over (partition by s_g), max(s_o) over (partition by s_g order by s_o desc) \
         from s_t order by s_pk",
        "select s_pk, dense_rank() over (order by s_o, s_g), \
         row_number() over (partition by s_o order by s_g desc, s_pk), \
         count(s_o) over (partition by s_g, s_o) from s_t order by s_pk",
        "select s_pk, sum(s_v) over (partition by s_o order by s_g), \
         max(s_g) over (order by s_v, s_pk) from s_t order by s_pk",
    ] {
        let oracle = tpcds_core::engine::query_with(&db, sql, opts(ColumnarMode::Off, 1))
            .unwrap_or_else(|e| panic!("row path: {e}\nsql: {sql}"))
            .rows;
        for threads in [1, 2, 8] {
            let got =
                tpcds_core::engine::query_analyze_with(&db, sql, opts(ColumnarMode::Auto, threads))
                    .unwrap_or_else(|e| panic!("batch @ {threads}: {e}\nsql: {sql}"));
            assert!(got.plan_text.contains("Window"), "{}", got.plan_text);
            assert_eq!(got.result.rows, oracle, "auto @ {threads}: {sql}");
        }
    }
}
