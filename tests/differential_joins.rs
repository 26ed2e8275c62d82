//! Differential join harness: a seeded random generator produces join
//! queries over 2–3 tables — mixed inner/left joins, NULL-able keys,
//! filters (compilable and not), and aggregates — and every query runs on
//! the row path (`TPCDS_COLUMNAR=off`) and the columnar path (`force`) at
//! 1/2/8 workers. The row path is the correctness oracle: the columnar
//! answer must be canonically equal, and the forced runs must be
//! byte-identical to each other at every worker count (the determinism
//! guarantee of the partitioned join).

use tpcds_repro::engine::{ColumnMeta, ColumnarMode, ExecOptions};
use tpcds_repro::types::rng::{test_seed, SplitMix64};
use tpcds_repro::types::{DataType, Decimal, Row, Value};
use tpcds_repro::Database;

fn int_meta(name: &str) -> ColumnMeta {
    ColumnMeta {
        name: name.into(),
        dtype: DataType::Int,
    }
}

/// One fact table (large enough to exceed the inline threshold, so forced
/// runs really go parallel) and two dimension tables, all with NULL-able,
/// duplicate-heavy join keys.
fn build_db(rng: &mut SplitMix64) -> Database {
    let db = Database::new();

    let fact_meta = vec![
        int_meta("a_pk"),
        int_meta("a_k1"),
        int_meta("a_k2"),
        int_meta("a_val"),
        ColumnMeta {
            name: "a_amt".into(),
            dtype: DataType::Decimal,
        },
    ];
    let fact: Vec<Row> = (0..20_000i64)
        .map(|i| {
            let k1 = if rng.below(16) == 0 {
                Value::Null
            } else {
                Value::Int(rng.below(50) as i64)
            };
            let k2 = if rng.below(16) == 0 {
                Value::Null
            } else {
                Value::Int(rng.below(30) as i64)
            };
            vec![
                Value::Int(i),
                k1,
                k2,
                Value::Int(rng.below(1_000) as i64),
                Value::Decimal(Decimal::from_cents(rng.below(100_000) as i64)),
            ]
        })
        .collect();
    db.create_table_with_rows("t0", fact_meta, fact).unwrap();

    let dim1_meta = vec![
        int_meta("b_k"),
        int_meta("b_val"),
        ColumnMeta {
            name: "b_name".into(),
            dtype: DataType::Str,
        },
    ];
    // Duplicate keys (several rows per key value) and a few NULL keys.
    let dim1: Vec<Row> = (0..200)
        .map(|_| {
            let k = if rng.below(12) == 0 {
                Value::Null
            } else {
                Value::Int(rng.below(50) as i64)
            };
            vec![
                k,
                Value::Int(rng.below(500) as i64),
                Value::str(format!("name{}", rng.below(20))),
            ]
        })
        .collect();
    db.create_table_with_rows("t1", dim1_meta, dim1).unwrap();

    let dim2_meta = vec![int_meta("c_k"), int_meta("c_val")];
    let dim2: Vec<Row> = (0..100)
        .map(|_| {
            let k = if rng.below(12) == 0 {
                Value::Null
            } else {
                Value::Int(rng.below(30) as i64)
            };
            vec![k, Value::Int(rng.below(500) as i64)]
        })
        .collect();
    db.create_table_with_rows("t2", dim2_meta, dim2).unwrap();

    db
}

/// Random single-table filters. Most compile to the vectorized kernels;
/// the arithmetic ones deliberately do not, so the differential run also
/// covers the row-path fallback under Force.
fn fact_filter(rng: &mut SplitMix64) -> String {
    let n = rng.below(1_000);
    let pk = rng.below(20_000);
    match rng.below(6) {
        0 => format!("a_val > {n}"),
        1 => format!("a_pk < {pk}"),
        2 => format!("a_val between {} and {}", n / 2, n),
        3 => "a_k1 is not null".to_string(),
        4 => format!("a_amt >= {}.50", rng.below(500)),
        _ => format!("a_val + 0 <= {n}"), // uncompilable on purpose
    }
}

fn dim1_filter(rng: &mut SplitMix64) -> String {
    match rng.below(4) {
        0 => format!("b_val >= {}", rng.below(400)),
        1 => "b_name like 'name1%'".to_string(),
        2 => "b_k in (1, 3, 5, 7, 9, 11)".to_string(),
        _ => format!("b_val not between {} and {}", 100, 150 + rng.below(100)),
    }
}

fn projection(rng: &mut SplitMix64, three_tables: bool) -> String {
    let mut pool = vec!["a_pk", "a_k1", "a_val", "a_amt", "b_k", "b_val", "b_name"];
    if three_tables {
        pool.push("c_k");
        pool.push("c_val");
    }
    let n = 2 + rng.below(3) as usize;
    let mut cols = Vec::with_capacity(n);
    for _ in 0..n {
        let c = *rng.pick(&pool);
        if !cols.contains(&c) {
            cols.push(c);
        }
    }
    cols.join(", ")
}

/// One random join query. Shapes: comma inner joins, explicit
/// INNER/LEFT JOIN ... ON, a 3-table star, and grouped aggregates over a
/// join.
fn gen_query(rng: &mut SplitMix64) -> String {
    match rng.below(5) {
        0 => {
            // Comma inner join with pushed-down filters.
            let mut preds = vec!["a_k1 = b_k".to_string()];
            if rng.below(2) == 0 {
                preds.push(fact_filter(rng));
            }
            if rng.below(2) == 0 {
                preds.push(dim1_filter(rng));
            }
            format!(
                "select {} from t0, t1 where {}",
                projection(rng, false),
                preds.join(" and ")
            )
        }
        1 => {
            // Explicit inner or left join, optional WHERE above it.
            let kind = if rng.below(2) == 0 {
                "join"
            } else {
                "left join"
            };
            let where_clause = if rng.below(2) == 0 {
                format!(" where {}", fact_filter(rng))
            } else {
                String::new()
            };
            format!(
                "select {} from t0 {kind} t1 on a_k1 = b_k{where_clause}",
                projection(rng, false)
            )
        }
        2 => {
            // Three-table star.
            let mut preds = vec!["a_k1 = b_k".to_string(), "a_k2 = c_k".to_string()];
            if rng.below(2) == 0 {
                preds.push(fact_filter(rng));
            }
            format!(
                "select {} from t0, t1, t2 where {}",
                projection(rng, true),
                preds.join(" and ")
            )
        }
        3 => {
            // Grouped aggregate over a join.
            let filter = if rng.below(2) == 0 {
                format!(" and {}", fact_filter(rng))
            } else {
                String::new()
            };
            format!(
                "select b_name, count(*), sum(a_val), min(a_pk), max(a_amt), avg(a_val) \
                 from t0, t1 where a_k1 = b_k{filter} group by b_name"
            )
        }
        _ => {
            // Global aggregate over an explicit (possibly left) join.
            let kind = if rng.below(2) == 0 {
                "join"
            } else {
                "left join"
            };
            format!(
                "select count(*), count(b_k), sum(a_val), sum(b_val) \
                 from t0 {kind} t1 on a_k1 = b_k where {}",
                fact_filter(rng)
            )
        }
    }
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

fn opts(mode: ColumnarMode, threads: usize) -> ExecOptions {
    ExecOptions {
        columnar: mode,
        threads: Some(threads),
    }
}

#[test]
fn random_join_queries_agree_across_paths_and_worker_counts() {
    let seed = test_seed(0x7C05_D511);
    eprintln!("differential_joins seed: {seed} (override with TPCDS_TEST_SEED)");
    let mut rng = SplitMix64(seed);
    let db = build_db(&mut rng);

    let mut columnar_joins = 0usize;
    for q in 0..40 {
        let sql = gen_query(&mut rng);
        let row = tpcds_repro::engine::query_with(&db, &sql, opts(ColumnarMode::Off, 1))
            .unwrap_or_else(|e| panic!("row path failed for #{q} {sql}: {e}"));
        let reference = tpcds_repro::engine::query_with(&db, &sql, opts(ColumnarMode::Force, 1))
            .unwrap_or_else(|e| panic!("columnar path failed for #{q} {sql}: {e}"));
        assert_eq!(
            canon(&row.rows),
            canon(&reference.rows),
            "row vs columnar diverge for #{q}: {sql}"
        );
        for threads in [2, 8] {
            let r = tpcds_repro::engine::query_with(&db, &sql, opts(ColumnarMode::Force, threads))
                .unwrap();
            assert_eq!(
                r.rows, reference.rows,
                "worker count {threads} changed the bytes for #{q}: {sql}"
            );
        }
        // Count queries that actually exercised the columnar join, so a
        // silent routing regression fails the suite rather than passing
        // vacuously.
        let analyzed =
            tpcds_repro::engine::query_analyze_with(&db, &sql, opts(ColumnarMode::Force, 2))
                .unwrap();
        if analyzed.plan_text.contains("build_rows=") {
            columnar_joins += 1;
        }
    }
    assert!(
        columnar_joins >= 15,
        "only {columnar_joins}/40 generated queries routed through the columnar join"
    );
}

/// Operator chains whose inputs are *intermediate* batches rather than
/// base-table scans — join → join, join → Top-N, join → aggregate →
/// HAVING → sort, filter under and over a join — at 1/2/8 workers against
/// the serial interpreter. None of these shapes was a recognised fusion
/// before operators exchanged batches; now no node in them may leave the
/// batch path.
#[test]
fn operator_chains_over_joins_agree_across_paths_and_worker_counts() {
    let seed = test_seed(0x7C05_D511);
    let mut rng = SplitMix64(seed);
    let db = build_db(&mut rng);
    // (sql, fully ordered?) — ordered answers compare byte-for-byte.
    let chains = [
        // join → join: the second join keys on the first join's build side.
        (
            "select a_pk, b_val, c_val from t0, t1, t2 \
             where a_k1 = b_k and b_val = c_val and a_pk < 5000",
            false,
        ),
        // left join → join, with a residual on the outer join.
        (
            "select a_pk, b_name, c_val from t0 left join t1 on a_k1 = b_k and a_val > b_val \
             join t2 on a_k2 = c_k where a_pk < 3000",
            false,
        ),
        // join → Top-N (every projected column is a sort key).
        (
            "select a_pk, a_amt, b_name, b_val from t0, t1 where a_k1 = b_k \
             order by a_amt desc, a_pk, b_name, b_val limit 50",
            true,
        ),
        // join → join → full sort.
        (
            "select a_pk, b_val, c_val from t0, t1, t2 \
             where a_k1 = b_k and a_k2 = c_k and a_val < 40 \
             order by a_pk, b_val, c_val",
            true,
        ),
        // join → aggregate → HAVING → sort.
        (
            "select b_name, count(*) c, sum(a_val) s from t0, t1 where a_k1 = b_k \
             group by b_name having count(*) > 10 order by s desc, b_name",
            true,
        ),
        // join → join → aggregate → HAVING → Top-N.
        (
            "select b_name, c_val, count(*) c, max(a_amt) m from t0, t1, t2 \
             where a_k1 = b_k and a_k2 = c_k group by b_name, c_val \
             having max(a_amt) > 100.00 order by c desc, b_name, c_val limit 25",
            true,
        ),
        // Filter over a join's output feeding a computed projection.
        (
            "select a_pk, a_val + b_val from t0 left join t1 on a_k1 = b_k \
             where b_val is null or a_val + b_val > 900",
            false,
        ),
    ];
    for (sql, ordered) in chains {
        let oracle = tpcds_repro::engine::query_with(&db, sql, opts(ColumnarMode::Off, 1))
            .unwrap_or_else(|e| panic!("row path failed for {sql}: {e}"));
        assert!(!oracle.rows.is_empty(), "vacuous chain: {sql}");
        for threads in [1, 2, 8] {
            let a = tpcds_repro::engine::query_analyze_with(
                &db,
                sql,
                opts(ColumnarMode::Force, threads),
            )
            .unwrap_or_else(|e| panic!("batch path failed for {sql}: {e}"));
            if ordered {
                assert_eq!(oracle.rows, a.result.rows, "threads={threads}: {sql}");
            } else {
                assert_eq!(
                    canon(&oracle.rows),
                    canon(&a.result.rows),
                    "threads={threads}: {sql}"
                );
            }
            assert!(
                a.nodes.iter().all(|n| n.fallback.is_none()),
                "a node fell back to the serial interpreter for {sql}:\n{}",
                a.plan_text
            );
        }
    }
}

/// Joins without an equality — a cross join, inner and left joins on
/// `<`, and an empty side — are hash joins on no keys: byte-identical to
/// the row path at 1 / 2 / 8 workers, with every node on the batch path.
#[test]
fn keyless_joins_agree_across_paths_and_worker_counts() {
    let mut rng = SplitMix64(test_seed(0x7C05_D511));
    let db = build_db(&mut rng);
    let empty = "(select * from t2 where c_val < 0) e";
    let queries = [
        // Cross joins: explicit, and a comma join with no join predicate.
        "select c_k, c_val, b_name from t2 cross join t1 where b_val < 40".to_string(),
        "select c_k, b_k, c_val, b_val from t2, t1 where c_val < b_val and b_k = 7".to_string(),
        // Inner and left joins on `<`, over the whole fact table.
        "select a_pk, c_k, c_val from t0 join t2 on a_val < c_val - 470".to_string(),
        "select a_pk, a_val, c_k from (select * from t0 where a_pk < 3000) a \
         left join t2 on a_val < c_val and c_k = 3"
            .to_string(),
        "select count(*), sum(a_val), max(c_val) from t0, t2 where a_val > c_val + 900".to_string(),
        // An empty build side, inner and left, and an empty probe side.
        format!("select a_pk, c_k from t0 join {empty} on a_val < c_val"),
        format!("select a_pk, c_k from t0 left join {empty} on a_val < c_val where a_pk < 50"),
        format!("select count(*), count(b_k) from {empty} cross join t1"),
    ];
    for sql in &queries {
        let oracle = tpcds_repro::engine::query_with(&db, sql, opts(ColumnarMode::Off, 1))
            .unwrap_or_else(|e| panic!("row path failed for {sql}: {e}"));
        for threads in [1, 2, 8] {
            let a = tpcds_repro::engine::query_analyze_with(
                &db,
                sql,
                opts(ColumnarMode::Force, threads),
            )
            .unwrap_or_else(|e| panic!("batch path failed for {sql}: {e}"));
            assert_eq!(a.result.rows, oracle.rows, "threads={threads}: {sql}");
            assert!(
                a.plan_text.contains(" on 0 key(s)"),
                "{sql}\n{}",
                a.plan_text
            );
            // A join under a global aggregate is fused into it.
            for line in a
                .plan_text
                .lines()
                .filter(|l| !l.contains("never executed"))
            {
                assert!(line.contains("route=columnar"), "{sql}\n{}", a.plan_text);
            }
        }
    }
}
