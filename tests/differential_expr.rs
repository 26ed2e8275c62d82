//! Differential expression harness: a seeded random generator produces
//! queries whose SELECT lists, WHERE clauses and ORDER BY keys are built
//! from a small arithmetic/CASE/COALESCE grammar over NULL-heavy columns —
//! including zero divisors (NULL, never an error) and mixed Int/Decimal
//! arithmetic — and every query runs on the row path (`off`, the
//! correctness oracle) and through the compiled expression kernels
//! (`force`) at 1/2/8 workers. Answers are compared **byte-for-byte**:
//! projection preserves input order and sorts tie-break on appended unique
//! keys, so the output is fully determined at any worker count.

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

/// One table tuned for expression edge cases: a unique pk, two NULL-heavy
/// small-int columns (`s_k1` includes negatives and zeros — the divisor
/// pool), a decimal amount crossing zero, and a string tag.
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
    ];
    let data: Vec<Row> = (0..rows as i64)
        .map(|i| {
            let k1 = if rng.below(5) == 0 {
                Value::Null
            } else {
                Value::Int(rng.below(9) as i64 - 4) // -4..=4, zeros included
            };
            let k2 = if rng.below(8) == 0 {
                Value::Null
            } else {
                Value::Int(rng.below(50) as i64)
            };
            vec![
                Value::Int(i),
                k1,
                k2,
                Value::Decimal(Decimal::from_cents(rng.below(20_000) as i64 - 10_000)),
                Value::str(format!("n{}", rng.below(10))),
            ]
        })
        .collect();
    db.create_table_with_rows("s", meta, data).unwrap();
    db
}

/// A random scalar expression from the kernel grammar: nested arithmetic
/// (division by possibly-zero and possibly-NULL columns on purpose),
/// searched CASE, COALESCE and NULLIF. Values stay small enough that i64
/// arithmetic cannot overflow — error parity has its own pinned suite.
fn gen_expr(rng: &mut SplitMix64, depth: u32) -> String {
    if depth == 0 {
        return match rng.below(5) {
            0 => "s_pk".into(),
            1 => "s_k1".into(),
            2 => "s_k2".into(),
            3 => "s_amt".into(),
            // Non-negative literals only: a unary minus over `-3` would
            // print `--3`, which lexes as a line comment.
            _ => format!("{}", rng.below(7)),
        };
    }
    let a = gen_expr(rng, depth - 1);
    let b = gen_expr(rng, depth - 1);
    match rng.below(8) {
        0 => format!("({a} + {b})"),
        1 => format!("({a} - {b})"),
        2 => format!("({a} * {b})"),
        3 => format!("({a} / {b})"), // zero divisors → NULL on both paths
        4 => format!("(-{a})"),
        5 => format!("coalesce({a}, {b})"),
        6 => format!("nullif({a}, {b})"),
        _ => format!("case when {a} > {b} then {a} else {b} end"),
    }
}

/// A random boolean predicate over generated scalar expressions.
fn gen_pred(rng: &mut SplitMix64) -> String {
    let l = gen_expr(rng, 2);
    let r = gen_expr(rng, 1);
    match rng.below(6) {
        0 => format!("{l} = {r}"),
        1 => format!("{l} <> {r}"),
        2 => format!("{l} < {r}"),
        3 => format!("{l} >= {r}"),
        4 => format!("{l} is null"),
        _ => format!("({l} > {r} or s_k1 is null)"),
    }
}

fn gen_query(rng: &mut SplitMix64) -> String {
    // Computed projection plus the pk so output order is checkable.
    let e1 = gen_expr(rng, 3);
    let e2 = gen_expr(rng, 2);
    let filter = match rng.below(3) {
        0 => String::new(),
        _ => format!(" where {}", gen_pred(rng)),
    };
    // Expression sort keys become hidden projection columns in the binder;
    // the pk tie-break pins the output byte-for-byte.
    let tail = match rng.below(4) {
        0 => String::new(),
        1 => format!(" order by {e2}, s_pk"),
        2 => format!(
            " order by {} desc, s_pk limit {}",
            gen_expr(rng, 2),
            1 + rng.below(100)
        ),
        _ => format!(" order by {e1}, s_pk limit 37"),
    };
    format!("select s_pk, {e1}, {e2} from s{filter}{tail}")
}

fn opts(mode: ColumnarMode, threads: usize) -> ExecOptions {
    ExecOptions {
        columnar: mode,
        threads: Some(threads),
    }
}

/// Row-path oracle vs Force at 1/2/8 workers, byte-identical everywhere.
/// Returns the Force@2 analyzed plan text for routing assertions.
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
fn random_expression_queries_agree_across_paths_and_worker_counts() {
    let seed = test_seed(0x5EED_EC5B);
    eprintln!("differential_expr seed: {seed} (override with TPCDS_TEST_SEED)");
    let mut rng = SplitMix64(seed);
    let db = build_db(&mut rng, 20_000);

    let mut kernel_routed = 0usize;
    for q in 0..40 {
        let sql = gen_query(&mut rng);
        let plan = check(&db, &sql, &format!("#{q}"));
        // Every generated query is inside the kernel grammar: a silent
        // fall-back to the expression row loop must fail the suite.
        assert!(
            !plan.contains("expr-unsupported"),
            "query #{q} fell off the vectorized path: {sql}\n{plan}"
        );
        if plan.contains("expr_kernels=") {
            kernel_routed += 1;
        }
    }
    assert!(
        kernel_routed >= 30,
        "only {kernel_routed}/40 queries show expression-kernel actuals"
    );
}

/// Row counts straddling the 65_536-row segment boundary: the expression
/// kernels' per-segment base offsets, the deferred-error cell's global row
/// keys and the null bitmaps of a partial last segment must all line up.
#[test]
fn segment_boundary_row_counts_evaluate_identically() {
    for rows in [65_535usize, 65_536, 65_537] {
        let mut rng = SplitMix64(rows as u64);
        let db = build_db(&mut rng, rows);
        for sql in [
            "select s_pk, s_pk * 2 + coalesce(s_k1, 0) from s",
            "select s_pk, s_amt / s_k1 from s where s_pk >= 65530",
            "select s_pk from s where s_pk + 1 > 65534 order by s_k2 * -1, s_pk",
            "select s_pk, case when s_k1 > 0 then s_amt else -s_amt end from s \
             where s_pk between 65520 and 65550",
        ] {
            check(&db, sql, &format!("rows={rows}"));
        }
    }
}

/// Shapes the generator covers only probabilistically, pinned: NULL-heavy
/// CASE chains, mixed Int/Decimal arithmetic, zero divisors in every
/// consumer position, and expression keys under both sort directions.
#[test]
fn pinned_expression_shapes_agree() {
    let mut rng = SplitMix64(0xEC5B_BEEF);
    let db = build_db(&mut rng, 20_000);
    for sql in [
        "select s_pk, s_k1 / s_k1 from s",
        "select s_pk, s_amt / s_k1, s_k2 % s_k1 from s",
        "select s_pk from s where s_k2 / s_k1 > 1",
        "select s_pk, case when s_k1 is null then 'null' when s_k1 = 0 then 'zero' \
         else s_name end from s",
        "select s_pk, coalesce(nullif(s_k1, 0), s_k2, -99) from s",
        "select s_pk, s_amt * 3 - s_k2 from s where s_amt * 2 > s_k2 + 10",
        "select s_pk from s order by s_amt * -1, s_pk limit 500",
        "select s_pk from s order by coalesce(s_k1, 99) desc, s_pk",
        "select s_pk, s_k1 + s_k2 from s where nullif(s_k1, s_k2) is null order by s_pk limit 100",
    ] {
        check(&db, sql, "pinned");
    }
}

/// A `LIMIT` stops its input at the same row on every path, so a row past
/// the cut can never raise: the same rows — or the same first error —
/// come back from the row oracle, from `auto` and from `force`, whether
/// the chain under the `LIMIT` is one lazy batch, an interpreted chain (a
/// subquery predicate), or a mix of the two.
#[test]
fn limits_stop_at_the_same_row_with_the_same_errors_on_every_path() {
    const POISON: &str = "case when s_pk >= 30 then s_pk * 9223372036854775807 else 1 end > 0";
    let queries = [
        // One lazy chain: scan filter, derived-table filter, LIMIT.
        format!(
            "select x.s_pk from (select s_pk from s where {POISON}) x where x.s_pk >= 1 limit 4"
        ),
        format!("select s_pk from s where {POISON} limit 4"),
        // The cut lies past the first poisoned row: everyone raises.
        format!("select s_pk from s where {POISON} limit 40"),
        format!(
            "select x.s_pk from (select s_pk from s where {POISON}) x where x.s_pk >= 1 limit 40"
        ),
        // A subquery predicate the compiler refuses, above and below the
        // poisoned one.
        format!(
            "select s_pk from s where {POISON} \
             and s_pk in (select s_pk from s where s_pk < 100) limit 4"
        ),
        format!(
            "select x.s_pk from (select s_pk from s \
             where exists (select 1 from s i where i.s_pk = s.s_pk)) x where {} limit 4",
            POISON.replace("s_pk", "x.s_pk")
        ),
        // A computed projection runs on every input row, on every path.
        "select case when s_pk >= 30 then s_pk * 9223372036854775807 else s_pk end from s limit 4"
            .to_string(),
        // A pipeline breaker under the LIMIT: the join runs whole, the
        // filter above it stops early.
        format!(
            "select a.s_pk from s a join s b on a.s_pk = b.s_pk where {} limit 4",
            POISON.replace("s_pk", "a.s_pk + b.s_pk")
        ),
        "select s_pk from s limit 0".to_string(),
    ];
    let db = build_db(&mut SplitMix64(0x11A1), 20_000);
    for sql in &queries {
        let run = |mode, threads| {
            tpcds_repro::engine::query_with(&db, sql, opts(mode, threads))
                .map(|r| r.rows)
                .map_err(|e| e.to_string())
        };
        let oracle = run(ColumnarMode::Off, 1);
        for mode in [ColumnarMode::Auto, ColumnarMode::Force] {
            for threads in [1, 2, 8] {
                assert_eq!(
                    oracle,
                    run(mode, threads),
                    "{mode:?}@{threads} diverges from the row oracle: {sql}"
                );
            }
        }
    }
}
