//! Differential sort/Top-N harness: a seeded random generator produces
//! ORDER BY (and ORDER BY ... LIMIT) queries — duplicate-heavy keys, NULL
//! keys under both directions, multi-key mixed-direction sorts, LIMITs at
//! and past the input size — and every query runs on the row path
//! (`TPCDS_COLUMNAR=off`, the correctness oracle) and the columnar path
//! (`force`) at 1/2/8 workers. Unlike the join harness, answers here are
//! compared **byte-for-byte**: both paths tie-break equal keys by the
//! input row order (stable sort on the row path, global-row-index
//! tie-break in the parallel kernels), so the output is fully determined
//! at any worker count.

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

/// One wide table, large enough to exceed the inline threshold so forced
/// runs really go parallel: a unique pk, two duplicate-heavy NULL-able
/// int keys (many ties — the stability stressor), a decimal and a string
/// (both outside the encoded-key fast path), and a date (inside it).
fn build_db(rng: &mut SplitMix64, rows: usize) -> Database {
    let db = Database::new();
    let meta = vec![
        int_meta("s_pk"),
        int_meta("s_k1"),
        int_meta("s_k2"),
        ColumnMeta {
            name: "s_amt".into(),
            dtype: DataType::Decimal,
        },
        ColumnMeta {
            name: "s_name".into(),
            dtype: DataType::Str,
        },
        ColumnMeta {
            name: "s_d".into(),
            dtype: DataType::Date,
        },
    ];
    let epoch = tpcds_repro::types::Date::from_ymd(2001, 1, 1);
    let data: Vec<Row> = (0..rows as i64)
        .map(|i| {
            let k1 = if rng.below(16) == 0 {
                Value::Null
            } else {
                Value::Int(rng.below(25) as i64)
            };
            let k2 = if rng.below(16) == 0 {
                Value::Null
            } else {
                Value::Int(rng.below(8) as i64)
            };
            vec![
                Value::Int(i),
                k1,
                k2,
                Value::Decimal(Decimal::from_cents(rng.below(10_000) as i64)),
                Value::str(format!("n{}", rng.below(12))),
                Value::Date(epoch.add_days(rng.below(365) as i32)),
            ]
        })
        .collect();
    db.create_table_with_rows("s", meta, data).unwrap();
    db
}

/// A random ORDER BY clause: 1–3 keys over every column type, each with
/// a random direction. `s_pk` is appended as the last key half the time;
/// when it is absent the query has massive ties and the byte-for-byte
/// comparison is exercising stability, not just ordering.
fn order_clause(rng: &mut SplitMix64) -> String {
    let pool = ["s_k1", "s_k2", "s_amt", "s_name", "s_d"];
    let n = 1 + rng.below(3) as usize;
    let mut keys = Vec::with_capacity(n + 1);
    for _ in 0..n {
        let k = pool[rng.below(pool.len() as u64) as usize];
        if keys.iter().any(|s: &String| s.starts_with(k)) {
            continue;
        }
        let dir = if rng.below(2) == 0 { "" } else { " desc" };
        keys.push(format!("{k}{dir}"));
    }
    if rng.below(2) == 0 {
        let dir = if rng.below(2) == 0 { "" } else { " desc" };
        keys.push(format!("s_pk{dir}"));
    }
    keys.join(", ")
}

fn gen_query(rng: &mut SplitMix64, table_rows: usize) -> String {
    let proj = match rng.below(3) {
        0 => "s_pk, s_k1, s_amt",
        1 => "s_k1, s_k2, s_name, s_pk",
        _ => "s_pk, s_k1, s_k2, s_amt, s_name, s_d",
    };
    let filter = match rng.below(4) {
        0 => format!(" where s_pk < {}", rng.below(table_rows as u64 * 2)),
        1 => " where s_k1 is not null".to_string(),
        2 => String::new(),
        // Uncompilable on purpose: covers the rows-path kernels under
        // Force (the scan falls back to rows, the sort still goes
        // parallel over the materialized Vec<Row>).
        _ => format!(" where s_pk + 0 >= {}", rng.below(200)),
    };
    // LIMIT edge cases by construction: 0, tiny, around the input size,
    // and past it (TopN must degrade to a full sort of the survivors).
    let limit = match rng.below(6) {
        0 => String::new(),
        1 => " limit 0".to_string(),
        2 => format!(" limit {}", 1 + rng.below(20)),
        3 => format!(" limit {}", table_rows),
        4 => format!(" limit {}", table_rows + 10),
        _ => format!(" limit {}", 1 + rng.below(table_rows as u64)),
    };
    format!(
        "select {proj} from s{filter} order by {}{limit}",
        order_clause(rng)
    )
}

fn opts(mode: ColumnarMode, threads: usize) -> ExecOptions {
    ExecOptions {
        columnar: mode,
        threads: Some(threads),
    }
}

/// Runs `sql` on the row-path oracle and under Force at 1/2/8 workers,
/// asserting byte-identical answers everywhere. Returns the Force@2
/// analyzed plan text for routing assertions.
fn check(db: &Database, sql: &str, tag: &str) -> String {
    let oracle = tpcds_repro::engine::query_with(db, sql, opts(ColumnarMode::Off, 1))
        .unwrap_or_else(|e| panic!("row path failed for {tag} {sql}: {e}"));
    let mut plan_text = String::new();
    for threads in [1, 2, 8] {
        let a =
            tpcds_repro::engine::query_analyze_with(db, sql, opts(ColumnarMode::Force, threads))
                .unwrap_or_else(|e| panic!("columnar path failed for {tag} {sql}: {e}"));
        assert_eq!(
            oracle.rows, a.result.rows,
            "force@{threads} diverges from the row oracle for {tag}: {sql}\n{}",
            a.plan_text
        );
        if threads == 2 {
            plan_text = a.plan_text;
        }
    }
    plan_text
}

#[test]
fn random_order_by_queries_agree_across_paths_and_worker_counts() {
    let seed = test_seed(0x5EED_5027);
    eprintln!("differential_sort seed: {seed} (override with TPCDS_TEST_SEED)");
    let mut rng = SplitMix64(seed);
    let db = build_db(&mut rng, 20_000);

    let mut topn_routed = 0usize;
    let mut sort_routed = 0usize;
    for q in 0..40 {
        let sql = gen_query(&mut rng, 20_000);
        let plan = check(&db, &sql, &format!("#{q}"));
        // Routing coverage: a silent fall-back to the serial row sort
        // must fail the suite, not pass vacuously.
        if plan.contains("heap_rows=") {
            topn_routed += 1;
        }
        if plan.contains("merge_ways=") {
            sort_routed += 1;
        }
    }
    assert!(
        topn_routed >= 10,
        "only {topn_routed}/40 queries routed through the parallel Top-N"
    );
    assert!(
        sort_routed >= 3,
        "only {sort_routed}/40 queries routed through the parallel full sort"
    );
}

/// Row counts straddling the segment boundary (65_536 rows): the morsel
/// scheduler, the per-segment key encoder and the global-row-index
/// tie-break must all survive a partial, exact, and overflowing last
/// segment.
#[test]
fn segment_boundary_row_counts_sort_identically() {
    for rows in [65_535usize, 65_536, 65_537] {
        let mut rng = SplitMix64(rows as u64);
        let db = build_db(&mut rng, rows);
        for sql in [
            "select s_pk, s_k1 from s order by s_k1, s_pk desc limit 50",
            "select s_pk, s_k1, s_d from s order by s_d desc, s_k1, s_pk",
            &format!("select s_pk from s order by s_k2 desc, s_pk limit {rows}"),
        ] {
            check(&db, sql, &format!("rows={rows}"));
        }
    }
}

/// The fixed shapes the generator covers only probabilistically, pinned:
/// NULL keys under both directions, LIMIT 0, LIMIT past the input, and a
/// mixed-direction multi-key sort with massive ties.
#[test]
fn pinned_sort_shapes_agree() {
    let mut rng = SplitMix64(0xDEAD_BEEF);
    let db = build_db(&mut rng, 20_000);
    for sql in [
        "select s_k1, s_pk from s order by s_k1, s_pk",
        "select s_k1, s_pk from s order by s_k1 desc, s_pk",
        "select s_pk from s order by s_k1 limit 0",
        "select s_pk from s order by s_k1, s_pk limit 99999",
        "select s_k1, s_k2, s_pk from s order by s_k1 desc, s_k2, s_pk desc limit 777",
        "select s_k1, s_name from s order by s_k1, s_name",
        "select s_amt, s_pk from s where s_k2 = 3 order by s_amt desc, s_pk limit 25",
    ] {
        check(&db, sql, "pinned");
    }
}
