//! Differential join harness: a seeded random generator produces join
//! queries over 2–3 tables — mixed inner/left joins, NULL-able keys,
//! filters (compilable and not), and aggregates — and every query runs on
//! the row path (`off`) and the batch executor (`auto`) at 1/2/8 workers.
//! The row path is the correctness oracle: the batch answer must be
//! canonically equal, and the batch runs must be
//! byte-identical to each other at every worker count (the determinism
//! guarantee of the partitioned join). Both of those run the optimized
//! plan, so a query whose unoptimized plan stays small is also checked
//! against `engine::query_unoptimized`: no pushdown, no reordering, no
//! column pruning.

use tpcds_core::engine::{parser, Binder, ColumnMeta, ColumnarMode, ExecOptions, Plan};
use tpcds_core::types::rng::{test_seed, SplitMix64};
use tpcds_core::types::{DataType, Decimal, Row, Value};
use tpcds_core::Database;

fn int_meta(name: &str) -> ColumnMeta {
    ColumnMeta {
        name: name.into(),
        dtype: DataType::Int,
    }
}

/// One fact table (large enough to exceed the inline threshold, so batch
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

/// Random single-table filters: comparisons and arithmetic, all on the
/// vectorized kernels.
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

/// Every node of `p`, CTE bodies included, in pre-order.
fn nodes(p: &Plan) -> Vec<&Plan> {
    let inputs: Vec<&Plan> = match p {
        Plan::Scan { .. } | Plan::Domain { .. } => vec![],
        Plan::Filter { input, .. }
        | Plan::Project { input, .. }
        | Plan::Aggregate { input, .. }
        | Plan::Window { input, .. }
        | Plan::Sort { input, .. }
        | Plan::TopN { input, .. }
        | Plan::Limit { input, .. } => vec![input],
        Plan::HashJoin { left, right, .. } | Plan::UnionAll { left, right } => vec![left, right],
        Plan::CteRef { plan, .. } => vec![plan],
    };
    std::iter::once(p)
        .chain(inputs.into_iter().flat_map(nodes))
        .collect()
}

/// Rows the largest cross join of `sql`'s unoptimized plan pairs up,
/// bounding each input by the product of the table sizes under it.
fn naive_cross_rows(db: &Database, sql: &str) -> u64 {
    let tables = |p: &Plan| {
        (nodes(p).into_iter())
            .filter_map(|n| match n {
                Plan::Scan { table, .. } => Some(db.row_count(table) as u64),
                _ => None,
            })
            .fold(1, u64::saturating_mul)
    };
    let naive = Binder::new(db)
        .without_optimizer()
        .bind(&parser::parse(sql).unwrap())
        .unwrap();
    (nodes(&naive.plan).into_iter())
        .filter_map(|n| match n {
            Plan::HashJoin {
                left,
                right,
                left_keys,
                ..
            } if left_keys.is_empty() => Some(tables(left).saturating_mul(tables(right))),
            _ => None,
        })
        .max()
        .unwrap_or(0)
}

/// The largest cross join the unoptimized oracle is asked to run.
const NAIVE_CROSS_LIMIT: u64 = 200_000;

/// `sql` under the optimizer-off plan, when that plan stays small.
fn unoptimized(db: &Database, sql: &str) -> Option<Vec<Row>> {
    (naive_cross_rows(db, sql) <= NAIVE_CROSS_LIMIT).then(|| {
        let r = tpcds_core::engine::query_unoptimized(db, sql)
            .unwrap_or_else(|e| panic!("unoptimized plan failed for {sql}: {e}"));
        canon(&r.rows)
    })
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

    let (mut columnar_joins, mut naive_checked) = (0usize, 0usize);
    for q in 0..40 {
        let sql = gen_query(&mut rng);
        let row = tpcds_core::engine::query_with(&db, &sql, opts(ColumnarMode::Off, 1))
            .unwrap_or_else(|e| panic!("row path failed for #{q} {sql}: {e}"));
        let reference = tpcds_core::engine::query_with(&db, &sql, opts(ColumnarMode::Auto, 1))
            .unwrap_or_else(|e| panic!("columnar path failed for #{q} {sql}: {e}"));
        assert_eq!(
            canon(&row.rows),
            canon(&reference.rows),
            "row vs columnar diverge for #{q}: {sql}"
        );
        if let Some(naive) = unoptimized(&db, &sql) {
            assert_eq!(canon(&row.rows), naive, "optimizer changed #{q}: {sql}");
            naive_checked += 1;
        }
        for threads in [2, 8] {
            let r = tpcds_core::engine::query_with(&db, &sql, opts(ColumnarMode::Auto, threads))
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
            tpcds_core::engine::query_analyze_with(&db, &sql, opts(ColumnarMode::Auto, 2)).unwrap();
        if analyzed.plan_text.contains("build_rows=") {
            columnar_joins += 1;
        }
    }
    assert!(
        columnar_joins >= 15,
        "only {columnar_joins}/40 generated queries routed through the columnar join"
    );
    assert!(
        naive_checked >= 8,
        "only {naive_checked}/40 generated queries were checked against the unoptimized plan"
    );
}

/// Queries that each leave a different subset of the columns to read,
/// against the unoptimized plan (which prunes nothing), the row path and
/// the batch executor at 1/2/8 workers. Each plan must narrow some scan.
#[test]
fn pruned_column_subsets_agree_with_the_unoptimized_plan() {
    let mut rng = SplitMix64(test_seed(0x7C05_D511));
    let db = build_db(&mut rng);
    let queries = [
        // One column out of a three-way join.
        "select c_val from t0 join t1 on a_k1 = b_k join t2 on a_k2 = c_k where a_pk < 3000",
        // b_val is read only by the join residual.
        "select a_pk from t0 join t1 on a_k1 = b_k and a_val > b_val where a_pk < 3000",
        // a_amt is read only by ORDER BY.
        "select a_pk, b_name from t0 join t1 on a_k1 = b_k where a_pk < 2000 \
         order by a_amt desc, a_pk, b_name",
        // b_name is read only by the window's PARTITION BY.
        "select a_pk, a_val, rank() over (partition by b_name order by a_val) r \
         from t0 join t1 on a_k1 = b_k where a_pk < 2000",
        // count(*) over joins: keys only, then no column at all.
        "select count(*) from t0 join t1 on a_k1 = b_k",
        "select count(*) from t1, t2",
        // One CTE, each reference reading different columns.
        "with c as (select a_pk, a_val, b_name, b_val from t0 join t1 on a_k1 = b_k \
                    where a_pk < 2000) \
         select x.a_pk, y.b_name from c x join c y on x.a_pk = y.a_pk and x.b_val = y.b_val \
         where x.a_val > 500",
    ];
    for sql in queries {
        let naive = unoptimized(&db, sql).unwrap_or_else(|| panic!("cross join too large: {sql}"));
        assert!(!naive.is_empty(), "vacuous: {sql}");
        let plan = tpcds_core::engine::plan_sql(&db, sql).unwrap().plan;
        assert!(
            nodes(&plan).into_iter().any(|n| matches!(
                n,
                Plan::Scan { cols, table_width, .. } if cols.len() < *table_width
            )),
            "no scan was narrowed: {sql}\n{}",
            plan.explain()
        );
        let row = tpcds_core::engine::query_with(&db, sql, opts(ColumnarMode::Off, 1)).unwrap();
        assert_eq!(canon(&row.rows), naive, "row path: {sql}");
        for threads in [1, 2, 8] {
            let r = tpcds_core::engine::query_with(&db, sql, opts(ColumnarMode::Auto, threads))
                .unwrap();
            assert_eq!(canon(&r.rows), naive, "threads={threads}: {sql}");
        }
    }
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
        let oracle = tpcds_core::engine::query_with(&db, sql, opts(ColumnarMode::Off, 1))
            .unwrap_or_else(|e| panic!("row path failed for {sql}: {e}"));
        assert!(!oracle.rows.is_empty(), "vacuous chain: {sql}");
        for threads in [1, 2, 8] {
            let a =
                tpcds_core::engine::query_analyze_with(&db, sql, opts(ColumnarMode::Auto, threads))
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
        let oracle = tpcds_core::engine::query_with(&db, sql, opts(ColumnarMode::Off, 1))
            .unwrap_or_else(|e| panic!("row path failed for {sql}: {e}"));
        for threads in [1, 2, 8] {
            let a =
                tpcds_core::engine::query_analyze_with(&db, sql, opts(ColumnarMode::Auto, threads))
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

/// Join-key shapes beside the single `Int` surrogate key: an `Int` key
/// against a `Decimal` one (`1 = 1.00` meets, `2 = 2.50` does not), NULL
/// in one column of a 2- and a 3-column key, string and date keys, a
/// 4-column key. Each query is checked against the row path and the
/// unoptimized plan, the batch executor at 1/2/8 workers.
#[test]
fn key_shapes_agree_across_paths_and_worker_counts() {
    let db = Database::new();
    let meta = |cols: &[(&str, DataType)]| -> Vec<ColumnMeta> {
        (cols.iter())
            .map(|&(name, dtype)| ColumnMeta {
                name: name.into(),
                dtype,
            })
            .collect()
    };
    let epoch = tpcds_core::types::Date::from_ymd(2001, 1, 1);
    let null_every = |i: i64, n: i64, v: Value| if i % n == 0 { Value::Null } else { v };
    // The probe side is past the inline threshold, so batch runs go
    // parallel; the build side repeats every key.
    let probe: Vec<Row> = (0..20_000i64)
        .map(|i| {
            vec![
                Value::Int(i),
                null_every(i, 23, Value::Int(i % 5)),
                null_every(i, 13, Value::Int(i % 4)),
                null_every(i, 17, Value::Int(i % 3)),
                null_every(i, 11, Value::str(format!("s{}", i % 6))),
                null_every(i, 19, Value::Date(epoch.add_days((i % 7) as i32))),
            ]
        })
        .collect();
    let probe_meta = [
        ("p_id", DataType::Int),
        ("p_k", DataType::Int),
        ("p_a", DataType::Int),
        ("p_b", DataType::Int),
        ("p_s", DataType::Str),
        ("p_d", DataType::Date),
    ];
    db.create_table_with_rows("p", meta(&probe_meta), probe)
        .unwrap();
    let dec = |s: &str| Value::Decimal(s.parse().unwrap());
    let keys = [dec("1.00"), dec("2.50"), dec("3"), Value::Null, dec("4.0")];
    let build: Vec<Row> = (0..300i64)
        .map(|i| {
            vec![
                keys[(i % 5) as usize].clone(),
                null_every(i, 7, Value::Int(i % 4)),
                null_every(i, 9, Value::Int(i % 3)),
                Value::str(format!("s{}", i % 8)),
                Value::Date(epoch.add_days((i % 9) as i32)),
                Value::Int(i),
            ]
        })
        .collect();
    let build_meta = [
        ("b_k", DataType::Decimal),
        ("b_a", DataType::Int),
        ("b_b", DataType::Int),
        ("b_s", DataType::Str),
        ("b_d", DataType::Date),
        ("b_v", DataType::Int),
    ];
    db.create_table_with_rows("b", meta(&build_meta), build)
        .unwrap();

    let on = [
        ("p_k = b_k", 1),
        ("p_a = b_a and p_b = b_b", 2),
        ("p_a = b_a and p_b = b_b and p_k = b_k", 3),
        ("p_s = b_s", 1),
        ("p_d = b_d", 1),
        ("p_a = b_a and p_b = b_b and p_s = b_s and p_d = b_d", 4),
    ];
    for (cond, nkeys) in on {
        for kind in ["join", "left join"] {
            let sql =
                format!("select p_id, p_k, b_k, b_v from p {kind} b on {cond} where p_id < 4000");
            let agg = format!(
                "select b_k, p_s, count(*), sum(b_v), min(p_d) from p {kind} b on {cond} \
                 group by b_k, p_s"
            );
            for sql in [sql, agg] {
                let oracle = tpcds_core::engine::query_with(&db, &sql, opts(ColumnarMode::Off, 1))
                    .unwrap_or_else(|e| panic!("row path failed for {sql}: {e}"));
                assert!(!oracle.rows.is_empty(), "vacuous: {sql}");
                let naive = unoptimized(&db, &sql).unwrap_or_else(|| panic!("too large: {sql}"));
                assert_eq!(canon(&oracle.rows), naive, "optimizer changed {sql}");
                for threads in [1, 2, 8] {
                    let a = tpcds_core::engine::query_analyze_with(
                        &db,
                        &sql,
                        opts(ColumnarMode::Auto, threads),
                    )
                    .unwrap_or_else(|e| panic!("batch path failed for {sql}: {e}"));
                    assert_eq!(
                        canon(&a.result.rows),
                        canon(&oracle.rows),
                        "threads={threads}: {sql}"
                    );
                    let keyed = format!(" on {nkeys} key(s)");
                    assert!(a.plan_text.contains(&keyed), "{sql}\n{}", a.plan_text);
                }
            }
        }
    }
    // `1 = 1.00` meets and `2 = 2.50` does not: the Int key 1 finds the
    // 60 build rows keyed 1.00, the Int key 2 none.
    let count = |k: i64| {
        let sql =
            format!("select count(*) from p join b on p_k = b_k where p_k = {k} and p_id < 5");
        let r = tpcds_core::engine::query_with(&db, &sql, opts(ColumnarMode::Auto, 2)).unwrap();
        r.rows[0][0].clone()
    };
    assert_eq!(count(1), Value::Int(60));
    assert_eq!(count(2), Value::Int(0));
}

/// An inner join whose probe side admits no row builds no hash table,
/// but still runs the build side's predicate: its deferred error surfaces
/// exactly as on the row path, which materializes both sides.
#[test]
fn an_empty_probe_side_hashes_nothing_but_raises_the_build_error() {
    let mut rng = SplitMix64(test_seed(0x7C05_D511));
    let db = build_db(&mut rng);
    // Derived tables keep each filter on its own side of the join.
    let poison = " where b_val * 9223372036854775807 > 1";
    let from = format!(
        "from (select * from t0 where a_pk < 0) a \
         join (select * from t1{poison}) b on a_k1 = b_k"
    );
    let shapes = [
        format!("select a_pk, b_name {from}"),
        format!("select count(*), sum(b_val) {from}"),
        format!("select b_name, count(*) {from} group by b_name"),
    ];
    for sql in &shapes {
        let oracle = tpcds_core::engine::query_with(&db, sql, opts(ColumnarMode::Off, 1))
            .expect_err(sql)
            .to_string();
        assert!(oracle.contains("overflow"), "{sql}: {oracle}");
        for threads in [1, 2, 8] {
            let got = tpcds_core::engine::query_with(&db, sql, opts(ColumnarMode::Auto, threads))
                .expect_err(sql)
                .to_string();
            assert_eq!(got, oracle, "threads={threads}: {sql}");
        }
    }
    // Without the poison the answer is empty (one default row when
    // global), and the join kept no build row.
    for sql in shapes.iter().map(|s| s.replace(poison, "")) {
        let oracle = tpcds_core::engine::query_with(&db, &sql, opts(ColumnarMode::Off, 1)).unwrap();
        for threads in [1, 2, 8] {
            let a = tpcds_core::engine::query_analyze_with(
                &db,
                &sql,
                opts(ColumnarMode::Auto, threads),
            )
            .unwrap();
            assert_eq!(a.result.rows, oracle.rows, "threads={threads}: {sql}");
            assert!(
                a.plan_text.contains("build_rows=0"),
                "{sql}\n{}",
                a.plan_text
            );
        }
    }
}
