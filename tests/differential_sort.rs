//! Differential sort/Top-N harness: a seeded random generator produces
//! ORDER BY (and ORDER BY ... LIMIT) queries — duplicate-heavy keys, NULL
//! keys under both directions, multi-key mixed-direction sorts, LIMITs at
//! and past the input size — and every query runs on the row path
//! (`off`, the correctness oracle) and the batch executor (`auto`) at
//! 1/2/8 workers. Unlike the join harness, answers here are
//! compared **byte-for-byte**: both paths tie-break equal keys by the
//! input row order (stable sort on the row path, global-row-index
//! tie-break in the parallel kernels), so the output is fully determined
//! at any worker count.

use tpcds_core::engine::{ColumnMeta, ColumnarMode, ExecOptions};
use tpcds_core::types::rng::{test_seed, SplitMix64};
use tpcds_core::types::{DataType, Decimal, Row, Value};
use tpcds_core::Database;

fn int_meta(name: &str) -> ColumnMeta {
    ColumnMeta {
        name: name.into(),
        dtype: DataType::Int,
    }
}

/// One wide table, large enough to exceed the inline threshold so batch
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
    let epoch = tpcds_core::types::Date::from_ymd(2001, 1, 1);
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
        // An arithmetic filter: the expression kernels evaluate it before
        // the sort.
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

/// Runs `sql` on the row-path oracle and the batch executor at 1/2/8
/// workers, asserting byte-identical answers everywhere. Returns the
/// 2-worker analyzed plan text for routing assertions.
fn check(db: &Database, sql: &str, tag: &str) -> String {
    let oracle = tpcds_core::engine::query_with(db, sql, opts(ColumnarMode::Off, 1))
        .unwrap_or_else(|e| panic!("row path failed for {tag} {sql}: {e}"));
    let mut plan_text = String::new();
    for threads in [1, 2, 8] {
        let a = tpcds_core::engine::query_analyze_with(db, sql, opts(ColumnarMode::Auto, threads))
            .unwrap_or_else(|e| panic!("columnar path failed for {tag} {sql}: {e}"));
        assert_eq!(
            oracle.rows, a.result.rows,
            "auto@{threads} diverges from the row oracle for {tag}: {sql}\n{}",
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

/// Strings whose order is byte order, not character count: multi-byte
/// characters (`é` sorts after every ASCII letter, `日` after `é`), the
/// empty string, and strings that are prefixes of one another.
const WORDS: [&str; 10] = ["", "a", "ab", "é", "éa", "日本", "日", "Z", "a日", "z"];

/// `u(u_pk, u_s, u_t, u_k)`: two string keys drawn from [`WORDS`], one
/// in eight NULL, so an empty string and a NULL meet in every run; and a
/// small integer group key.
fn build_str_db(rows: usize) -> Database {
    let mut rng = SplitMix64(rows as u64 ^ 0x57B);
    let db = Database::new();
    let str_meta = |name: &str| ColumnMeta {
        name: name.into(),
        dtype: DataType::Str,
    };
    let meta = vec![
        int_meta("u_pk"),
        str_meta("u_s"),
        str_meta("u_t"),
        int_meta("u_k"),
    ];
    let word = |rng: &mut SplitMix64| match rng.below(8) {
        0 => Value::Null,
        _ => Value::str(WORDS[rng.below(WORDS.len() as u64) as usize]),
    };
    let data: Vec<Row> = (0..rows as i64)
        .map(|i| {
            let (s, t) = (word(&mut rng), word(&mut rng));
            vec![Value::Int(i), s, t, Value::Int(rng.below(7) as i64)]
        })
        .collect();
    db.create_table_with_rows("u", meta, data).unwrap();
    db
}

/// String sort keys — multi-byte, empty and NULL cells, ties everywhere —
/// and MIN/MAX over strings order and aggregate exactly as the row path
/// does, at 1/2/8 workers, in one segment and across a boundary.
#[test]
fn multibyte_and_empty_string_keys_sort_identically() {
    for rows in [20_000usize, 65_537] {
        let db = build_str_db(rows);
        for sql in [
            "select u_pk, u_s from u order by u_s, u_pk",
            "select u_s, u_t, u_pk from u order by u_s desc, u_t, u_pk desc",
            "select u_pk, u_s from u order by u_s desc limit 100",
            "select u_s, u_pk from u where u_s <> '' order by u_t, u_s limit 1000",
            "select u_pk, u_s || u_t from u order by u_s || u_t desc, u_k limit 50",
            "select min(u_s), max(u_s), min(u_t), max(u_t), count(u_s) from u",
            "select u_k, min(u_s), max(u_t), count(u_t) from u group by u_k order by u_k",
            "select u_s, count(*) from u group by u_s order by u_s desc",
        ] {
            check(&db, sql, &format!("strings, rows={rows}"));
        }
    }
}
