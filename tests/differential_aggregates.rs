//! Differential aggregate harness: ROLLUP with `GROUPING()`, DISTINCT
//! calls beside plain ones, STDDEV_SAMP and empty inputs, checked against
//! a plain-Rust reference that groups the generated rows itself (NULL keys
//! equal, each ROLLUP level grouped on its own prefix of the keys), then
//! run under `off` and `auto` at 1 / 2 / 8 workers. The binder
//! lowers all of these shapes onto plain hash aggregates, so every node
//! must also run the batch kernels (`route=columnar`) with answer bytes
//! that do not depend on the worker count — the reference is the check
//! that does not share that lowering.

use std::collections::{HashMap, HashSet};
use std::sync::Arc;

use tpcds_core::engine::{ColumnMeta, ColumnarMode, ExecOptions};
use tpcds_core::synth::diff::run_differential;
use tpcds_core::types::rng::{test_seed, SplitMix64};
use tpcds_core::types::{DataType, Decimal, Row, Value};
use tpcds_core::Database;

/// `t(a, b, c, d, x, y)`: four NULL-able low-NDV keys (`b` a string), a
/// duplicate-heavy NULL-able int `x` and a NULL-able decimal `y`, over
/// two morsels.
fn build_db(rng: &mut SplitMix64, rows: usize) -> Database {
    let db = Database::new();
    let meta = [
        ("a", DataType::Int),
        ("b", DataType::Str),
        ("c", DataType::Int),
        ("d", DataType::Int),
        ("x", DataType::Int),
        ("y", DataType::Decimal),
    ]
    .map(|(name, dtype)| ColumnMeta {
        name: name.into(),
        dtype,
    });
    let maybe = |rng: &mut SplitMix64, v: Value| match rng.below(7) {
        0 => Value::Null,
        _ => v,
    };
    let rows: Vec<Row> = (0..rows)
        .map(|_| {
            let a = Value::Int(rng.below(4) as i64);
            let b = Value::str(["north", "south"][rng.below(2) as usize]);
            let c = Value::Int(rng.below(3) as i64);
            let d = Value::Int(rng.below(2) as i64);
            let x = Value::Int(rng.below(50) as i64);
            let y = Value::Decimal(Decimal::from_cents(rng.below(20_000) as i64 - 5_000));
            [a, b, c, d, x, y].map(|v| maybe(rng, v)).to_vec()
        })
        .collect();
    db.create_table_with_rows("t", meta.to_vec(), rows).unwrap();
    db
}

/// One output column of the reference: an aggregate over a column of
/// `t`, or `GROUPING()` of the i-th ROLLUP key.
#[derive(Clone, Copy)]
enum F {
    CountStar,
    Count(usize),
    Sum(usize),
    Avg(usize),
    Stddev(usize),
    Grouping(usize),
}

struct Case {
    sql: &'static str,
    /// Group-key columns of `t`, in GROUP BY order.
    keys: &'static [usize],
    rollup: bool,
    /// The aggregate columns after the keys; `true` = DISTINCT.
    aggs: &'static [(F, bool)],
    having: Option<fn(&Row) -> bool>,
    /// The statement's WHERE clause admits no row.
    empty: bool,
}

const X: usize = 4;
const Y: usize = 5;

/// The exact aggregate of `vals` (non-NULL argument values of a group).
fn fold(f: F, rows: usize, vals: &[Value]) -> Value {
    let dec = |v: &Value| v.as_decimal().unwrap();
    let total = || (vals.iter()).fold(Decimal::ZERO, |s, v| s.checked_add(&dec(v)).unwrap());
    match f {
        F::CountStar => Value::Int(rows as i64),
        F::Count(_) => Value::Int(vals.len() as i64),
        F::Sum(_) if vals.is_empty() => Value::Null,
        F::Sum(_) if matches!(vals[0], Value::Int(_)) => {
            Value::Int(vals.iter().map(|v| v.as_int().unwrap()).sum())
        }
        F::Sum(_) => Value::Decimal(total()),
        F::Avg(_) if vals.is_empty() => Value::Null,
        F::Avg(_) => Value::Decimal(
            total()
                .checked_div(&Decimal::from_int(vals.len() as i64))
                .unwrap(),
        ),
        F::Stddev(_) if vals.len() < 2 => Value::Null,
        F::Stddev(_) => {
            // Two-pass f64: a different algorithm from the engine's exact
            // moments, so cells compare to within the sixth decimal.
            let xs: Vec<f64> = vals.iter().map(|v| dec(v).to_f64()).collect();
            let mean = xs.iter().sum::<f64>() / xs.len() as f64;
            let ss: f64 = xs.iter().map(|x| (x - mean) * (x - mean)).sum();
            Value::Decimal(Decimal::from_f64((ss / (xs.len() - 1) as f64).sqrt(), 6))
        }
        F::Grouping(_) => unreachable!("not an aggregate"),
    }
}

/// The case's answer computed from `rows` directly: for each ROLLUP
/// level (only the full key list without ROLLUP), group on the key prefix
/// with NULLs equal, fold every call, NULL the rolled-up keys.
fn reference(case: &Case, rows: &[Row]) -> Vec<Row> {
    let n = case.keys.len();
    let levels: Vec<usize> = match case.rollup {
        true => (0..=n).rev().collect(),
        false => vec![n],
    };
    let mut out = Vec::new();
    for l in levels {
        let mut groups: HashMap<Vec<Value>, Vec<&Row>> = HashMap::new();
        if l == 0 {
            groups.insert(Vec::new(), Vec::new()); // one row, even over no rows
        }
        for row in rows {
            let key = case.keys[..l].iter().map(|&k| row[k].clone()).collect();
            groups.entry(key).or_default().push(row);
        }
        for (key, members) in groups {
            let mut row: Row = key;
            row.resize(n, Value::Null);
            for &(f, distinct) in case.aggs {
                let col = match f {
                    F::CountStar => None,
                    F::Grouping(i) => {
                        row.push(Value::Int((i >= l) as i64));
                        continue;
                    }
                    F::Count(c) | F::Sum(c) | F::Avg(c) | F::Stddev(c) => Some(c),
                };
                let mut vals: Vec<Value> = (members.iter())
                    .filter_map(|r| col.map(|c| r[c].clone()))
                    .filter(|v| !v.is_null())
                    .collect();
                if distinct {
                    let mut seen = HashSet::new();
                    vals.retain(|v| seen.insert(v.clone()));
                }
                row.push(fold(f, members.len(), &vals));
            }
            out.push(row);
        }
    }
    out.retain(|r| case.having.is_none_or(|h| h(r)));
    out
}

/// Whether column `c` of the case's output is a STDDEV_SAMP.
fn is_stddev(case: &Case, c: usize) -> bool {
    let agg = c.checked_sub(case.keys.len()).map(|i| case.aggs[i].0);
    matches!(agg, Some(F::Stddev(_)))
}

/// Rows in a canonical order that ignores the STDDEV_SAMP cells (the keys
/// and GROUPING() values identify a row).
fn canon(case: &Case, mut rows: Vec<Row>) -> Vec<Row> {
    rows.sort_by(|a, b| {
        (0..a.len())
            .filter(|&c| !is_stddev(case, c))
            .map(|c| a[c].sort_cmp(&b[c]))
            .find(|o| o.is_ne())
            .unwrap_or(std::cmp::Ordering::Equal)
    });
    rows
}

fn assert_matches_reference(case: &Case, got: Vec<Row>, expect: &[Row], mode: &str) {
    let (got, expect) = (canon(case, got), canon(case, expect.to_vec()));
    assert_eq!(
        got.len(),
        expect.len(),
        "{mode}: row count\nsql: {}",
        case.sql
    );
    for (g, e) in got.iter().zip(&expect) {
        let same = (0..e.len()).all(|c| match (&g[c], &e[c]) {
            (Value::Decimal(a), Value::Decimal(b)) if is_stddev(case, c) => {
                (a.to_f64() - b.to_f64()).abs() <= 1.5e-6
            }
            (a, b) => a == b && a.is_null() == b.is_null(),
        });
        assert!(same, "{mode}: {g:?} vs reference {e:?}\nsql: {}", case.sql);
    }
}

const CASES: &[Case] = &[
    // ROLLUP over one to four keys; `a` holds real NULLs, which GROUPING
    // keeps apart from the rolled-up NULL.
    Case {
        sql: "select a, grouping(a), count(*), sum(x) from t group by rollup(a)",
        keys: &[0],
        rollup: true,
        aggs: &[
            (F::Grouping(0), false),
            (F::CountStar, false),
            (F::Sum(X), false),
        ],
        having: None,
        empty: false,
    },
    Case {
        sql: "select a, b, grouping(a), grouping(b), count(*), sum(x), avg(y) \
              from t group by rollup(a, b)",
        keys: &[0, 1],
        rollup: true,
        aggs: &[
            (F::Grouping(0), false),
            (F::Grouping(1), false),
            (F::CountStar, false),
            (F::Sum(X), false),
            (F::Avg(Y), false),
        ],
        having: None,
        empty: false,
    },
    Case {
        sql: "select c, b, a, grouping(a), count(x), sum(y) from t group by rollup(c, b, a)",
        keys: &[2, 1, 0],
        rollup: true,
        aggs: &[
            (F::Grouping(2), false),
            (F::Count(X), false),
            (F::Sum(Y), false),
        ],
        having: None,
        empty: false,
    },
    Case {
        sql: "select a, b, c, d, grouping(b), grouping(d), count(*), stddev_samp(x) \
              from t group by rollup(a, b, c, d)",
        keys: &[0, 1, 2, 3],
        rollup: true,
        aggs: &[
            (F::Grouping(1), false),
            (F::Grouping(3), false),
            (F::CountStar, false),
            (F::Stddev(X), false),
        ],
        having: None,
        empty: false,
    },
    // HAVING on GROUPING(): the subtotals only, then the real groups of
    // a large enough count.
    Case {
        sql: "select a, b, grouping(b), count(*) from t group by rollup(a, b) \
              having grouping(b) = 1",
        keys: &[0, 1],
        rollup: true,
        aggs: &[(F::Grouping(1), false), (F::CountStar, false)],
        having: Some(|r| r[2] == Value::Int(1)),
        empty: false,
    },
    Case {
        sql: "select a, b, grouping(a), count(*) from t group by rollup(a, b) \
              having grouping(a) = 0 and count(*) > 400",
        keys: &[0, 1],
        rollup: true,
        aggs: &[(F::Grouping(0), false), (F::CountStar, false)],
        having: Some(|r| r[2] == Value::Int(0) && r[3].as_int().unwrap() > 400),
        empty: false,
    },
    // NULL groups in multi-column keys: every key column holds NULLs.
    Case {
        sql: "select a, c, d, count(*), sum(x), avg(y) from t group by a, c, d",
        keys: &[0, 2, 3],
        rollup: false,
        aggs: &[
            (F::CountStar, false),
            (F::Sum(X), false),
            (F::Avg(Y), false),
        ],
        having: None,
        empty: false,
    },
    Case {
        sql: "select b, a, count(x), sum(y) from t group by b, a",
        keys: &[1, 0],
        rollup: false,
        aggs: &[(F::Count(X), false), (F::Sum(Y), false)],
        having: None,
        empty: false,
    },
    // DISTINCT over one argument, alone and beside plain calls.
    Case {
        sql: "select count(distinct x) from t",
        keys: &[],
        rollup: false,
        aggs: &[(F::Count(X), true)],
        having: None,
        empty: false,
    },
    Case {
        sql: "select a, count(distinct x), count(*), sum(x), avg(y), stddev_samp(y) \
              from t group by a",
        keys: &[0],
        rollup: false,
        aggs: &[
            (F::Count(X), true),
            (F::CountStar, false),
            (F::Sum(X), false),
            (F::Avg(Y), false),
            (F::Stddev(Y), false),
        ],
        having: None,
        empty: false,
    },
    // DISTINCT over two different arguments.
    Case {
        sql: "select b, count(distinct x), sum(distinct y), count(*), avg(x), stddev_samp(x) \
              from t group by b",
        keys: &[1],
        rollup: false,
        aggs: &[
            (F::Count(X), true),
            (F::Sum(Y), true),
            (F::CountStar, false),
            (F::Avg(X), false),
            (F::Stddev(X), false),
        ],
        having: None,
        empty: false,
    },
    Case {
        sql: "select c, d, count(distinct x), avg(distinct x), count(distinct y), \
              stddev_samp(distinct y) from t group by c, d",
        keys: &[2, 3],
        rollup: false,
        aggs: &[
            (F::Count(X), true),
            (F::Avg(X), true),
            (F::Count(Y), true),
            (F::Stddev(Y), true),
        ],
        having: None,
        empty: false,
    },
    // ROLLUP and DISTINCT together.
    Case {
        sql: "select a, b, grouping(b), count(distinct x), sum(y) from t group by rollup(a, b)",
        keys: &[0, 1],
        rollup: true,
        aggs: &[
            (F::Grouping(1), false),
            (F::Count(X), true),
            (F::Sum(Y), false),
        ],
        having: None,
        empty: false,
    },
    // Empty input: a global aggregate still yields its one row, a grouped
    // one none, a ROLLUP only the grand total.
    Case {
        sql: "select count(*), count(distinct x), sum(x), avg(y), stddev_samp(x) \
              from t where x > 1000",
        keys: &[],
        rollup: false,
        aggs: &[
            (F::CountStar, false),
            (F::Count(X), true),
            (F::Sum(X), false),
            (F::Avg(Y), false),
            (F::Stddev(X), false),
        ],
        having: None,
        empty: true,
    },
    Case {
        sql: "select a, count(distinct x), sum(y) from t where x > 1000 group by a",
        keys: &[0],
        rollup: false,
        aggs: &[(F::Count(X), true), (F::Sum(Y), false)],
        having: None,
        empty: true,
    },
    Case {
        sql: "select a, b, grouping(a), count(*), sum(x), count(distinct y) \
              from t where x > 1000 group by rollup(a, b)",
        keys: &[0, 1],
        rollup: true,
        aggs: &[
            (F::Grouping(0), false),
            (F::CountStar, false),
            (F::Sum(X), false),
            (F::Count(Y), true),
        ],
        having: None,
        empty: true,
    },
];

#[test]
fn aggregates_match_reference_on_every_path() {
    let seed = test_seed(0xA66);
    eprintln!("differential_aggregates seed: {seed} (override with TPCDS_TEST_SEED)");
    let mut rng = SplitMix64(seed);
    let db = Arc::new(build_db(&mut rng, 12_000));
    let all = tpcds_core::engine::query(&db, "select * from t")
        .unwrap()
        .rows;
    for case in CASES {
        let expect = reference(case, if case.empty { &[] } else { &all });
        let run = |columnar, threads| {
            let opts = ExecOptions {
                columnar,
                threads: Some(threads),
            };
            tpcds_core::engine::query_analyze_with(&db, case.sql, opts).expect(case.sql)
        };
        let oracle = run(ColumnarMode::Off, 1).result.rows;
        assert_matches_reference(case, oracle, &expect, "off");
        let columnar = ColumnarMode::Auto;
        let one = run(columnar, 1);
        for line in one.plan_text.lines() {
            assert!(
                line.contains("route=columnar"),
                "{columnar:?}: {line}\nsql: {}\n{}",
                case.sql,
                one.plan_text
            );
        }
        for threads in [2, 8] {
            let rows = run(columnar, threads).result.rows;
            assert_eq!(
                rows, one.result.rows,
                "{columnar:?} @ {threads}: {}",
                case.sql
            );
        }
        let mode = format!("{columnar:?}");
        assert_matches_reference(case, one.result.rows, &expect, &mode);
        if let Err(e) = run_differential(&db, &db.snapshot(), case.sql) {
            panic!("differential failed: {e:?}\nsql: {}", case.sql);
        }
    }
}

/// A real NULL key and the rolled-up NULL are two rows that only
/// `GROUPING()` tells apart.
#[test]
fn grouping_separates_a_null_key_from_the_rollup_total() {
    let mut rng = SplitMix64(test_seed(0x6A0));
    let db = build_db(&mut rng, 2_000);
    let sql = "select a, grouping(a) g, count(*) n from t where a is null or a = 1 \
               group by rollup(a) order by g, a";
    let nulls = (tpcds_core::engine::query(&db, "select count(*) from t where a is null"))
        .unwrap()
        .rows[0][0]
        .clone();
    for columnar in [ColumnarMode::Off, ColumnarMode::Auto] {
        let opts = ExecOptions {
            columnar,
            threads: Some(2),
        };
        let rows = tpcds_core::engine::query_with(&db, sql, opts).unwrap().rows;
        assert_eq!(rows.len(), 3, "{columnar:?}: {rows:?}");
        assert_eq!(rows[0][..3], [Value::Null, Value::Int(0), nulls.clone()]);
        assert_eq!(rows[1][..2], [Value::Int(1), Value::Int(0)]);
        assert_eq!(rows[2][..2], [Value::Null, Value::Int(1)]);
    }
}

/// Inside a correlated subquery, a ROLLUP's or DISTINCT call's input is
/// shared only when it cannot change with the outer row: a correlated
/// WHERE or an argument over an outer column is evaluated per outer row.
#[test]
fn correlated_inputs_are_evaluated_per_outer_row() {
    let mut rng = SplitMix64(test_seed(0xC0E));
    let db = build_db(&mut rng, 2_000);
    let per_a = |sql: &str| -> HashMap<i64, Value> {
        let rows = tpcds_core::engine::query(&db, sql).unwrap().rows;
        (rows.into_iter())
            .map(|r| (r[0].as_int().unwrap(), r[1].clone()))
            .collect()
    };
    let outer = "from (select distinct a from t where a is not null) t1";
    let distinct_x = per_a("select a, count(distinct x) from t where a is not null group by a");
    let per_group = per_a("select a, count(*) from t where a is not null group by a");
    let sum_x = tpcds_core::engine::query(&db, "select sum(distinct x) from t")
        .unwrap()
        .rows[0][0]
        .as_int()
        .unwrap();
    let cases: [(String, &dyn Fn(i64) -> Value); 3] = [
        (
            format!("select a, (select count(distinct t2.x) from t t2 where t2.a = t1.a) {outer}"),
            &|a| distinct_x[&a].clone(),
        ),
        (
            format!("select a, (select sum(distinct t2.x * t1.a) from t t2) {outer}"),
            &|a| Value::Int(a * sum_x),
        ),
        (
            format!(
                "select a, (select count(*) from t t2 where t2.a = t1.a group by rollup(t2.b) \
                 having grouping(t2.b) = 1) {outer}"
            ),
            &|a| per_group[&a].clone(),
        ),
    ];
    for (sql, expect) in &cases {
        for columnar in [ColumnarMode::Off, ColumnarMode::Auto] {
            let opts = ExecOptions {
                columnar,
                threads: Some(2),
            };
            let rows = tpcds_core::engine::query_with(&db, sql, opts).unwrap().rows;
            assert_eq!(rows.len(), 4, "{columnar:?}: {sql}");
            for r in rows {
                let a = r[0].as_int().unwrap();
                assert_eq!(r[1], expect(a), "{columnar:?} a = {a}: {sql}");
            }
        }
    }
}

/// Runs `sql` on the row path and at 1 / 2 / 8 workers on the batch
/// executor: the batch answers are byte-identical to each other and hold
/// the row path's rows (which come in no particular order). Returns the
/// batch answer.
fn agree_at_every_worker_count(db: &Database, sql: &str) -> Vec<Row> {
    let run = |columnar, threads| {
        let opts = ExecOptions {
            columnar,
            threads: Some(threads),
        };
        tpcds_core::engine::query_with(db, sql, opts)
            .expect(sql)
            .rows
    };
    let sorted = |mut rows: Vec<Row>| {
        rows.sort_by(|a, b| {
            (a.iter().zip(b))
                .map(|(x, y)| x.sort_cmp(y))
                .find(|o| o.is_ne())
                .unwrap_or(std::cmp::Ordering::Equal)
        });
        rows
    };
    let one = run(ColumnarMode::Auto, 1);
    assert_eq!(
        sorted(one.clone()),
        sorted(run(ColumnarMode::Off, 1)),
        "{sql}"
    );
    for threads in [2, 8] {
        assert_eq!(
            run(ColumnarMode::Auto, threads),
            one,
            "{threads} workers: {sql}"
        );
    }
    one
}

/// One group key fed `Int` cells by one side of a UNION ALL and equal
/// `Decimal` cells by the other: `1` and `1.00` are one group, keyed by
/// its first row's cell.
#[test]
fn a_key_mixing_int_and_decimal_cells_groups_them_together() {
    let mut rng = SplitMix64(test_seed(0xA66));
    let db = build_db(&mut rng, 12_000);
    let sql = "select k, count(*), sum(v) from \
               (select a k, x v from t union all select a * 1.00 k, y v from t) u \
               group by k order by k";
    let rows = agree_at_every_worker_count(&db, sql);
    let per_a = agree_at_every_worker_count(&db, "select a, count(*) from t group by a order by a");
    assert_eq!(rows.len(), per_a.len(), "{rows:?}");
    for (r, p) in rows.iter().zip(&per_a) {
        assert_eq!(r[0], p[0]);
        assert!(matches!(r[0], Value::Int(_) | Value::Null), "{r:?}");
        assert_eq!(r[1], Value::Int(2 * p[1].as_int().unwrap()), "{r:?}");
    }
}

/// 45,000 groups over 90,000 rows — more than a morsel per worker holds
/// — with NULLs in one key column: byte-identical at 1 / 2 / 8 workers.
#[test]
fn forty_five_thousand_groups_agree_at_every_worker_count() {
    let db = Database::new();
    let meta = [
        ("k1", DataType::Int),
        ("k2", DataType::Int),
        ("v", DataType::Decimal),
    ]
    .map(|(name, dtype)| ColumnMeta {
        name: name.into(),
        dtype,
    });
    let rows: Vec<Row> = (0..90_000i64)
        .map(|i| {
            let k2 = (i * 7_919) % 45_000;
            let k1 = if k2 % 1_000 == 0 {
                Value::Null
            } else {
                Value::Int(k2 % 3)
            };
            vec![
                k1,
                Value::Int(k2),
                Value::Decimal(Decimal::from_cents(i % 977)),
            ]
        })
        .collect();
    db.create_table_with_rows("g", meta.to_vec(), rows).unwrap();
    let sql = "select k1, k2, count(*), sum(v), min(v), max(k2), avg(v) from g group by k1, k2";
    let rows = agree_at_every_worker_count(&db, sql);
    assert_eq!(rows.len(), 45_000);
}
