//! Differential expression harness: a seeded random generator produces
//! queries whose SELECT lists, WHERE clauses and ORDER BY keys are built
//! from a small arithmetic/CASE/COALESCE grammar over NULL-heavy columns —
//! including zero divisors (NULL, never an error) and mixed Int/Decimal
//! arithmetic — and every query runs on the row path (`off`, the
//! correctness oracle) and through the compiled expression kernels
//! (`auto`) at 1/2/8 workers. Answers are compared **byte-for-byte**:
//! projection preserves input order and sorts tie-break on appended unique
//! keys, so the output is fully determined at any worker count. Pinned
//! suites add segment-boundary row counts, `LIMIT` cut-offs, and every
//! kind of computed operand in every consumer of one.

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

/// Row-path oracle vs the batch executor at 1/2/8 workers, byte-identical
/// everywhere. Returns the 2-worker analyzed plan text for routing
/// assertions.
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
fn random_expression_queries_agree_across_paths_and_worker_counts() {
    let seed = test_seed(0x5EED_EC5B);
    eprintln!("differential_expr seed: {seed} (override with TPCDS_TEST_SEED)");
    let mut rng = SplitMix64(seed);
    let db = build_db(&mut rng, 20_000);

    let mut kernel_routed = 0usize;
    for q in 0..40 {
        let sql = gen_query(&mut rng);
        let plan = check(&db, &sql, &format!("#{q}"));
        // Every executed node ran a batch kernel: a silent fall-back to
        // the row interpreter must fail the suite.
        let executed = plan.lines().filter(|l| !l.contains("never executed"));
        assert!(
            executed.clone().all(|l| l.contains("route=columnar")),
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
/// come back from the row oracle and from `auto`, whether
/// the chain under the `LIMIT` is one lazy batch, a chain with subquery
/// predicates, or one over a pipeline breaker.
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
        // A subquery predicate above and below the poisoned one.
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
        same_outcome(&db, sql);
    }
}

/// The same rows, or the same first error, from the row oracle and from
/// the batch executor at 1/2/8 workers.
fn same_outcome(db: &Database, sql: &str) {
    let run = |mode, threads| {
        tpcds_core::engine::query_with(db, sql, opts(mode, threads))
            .map(|r| r.rows)
            .map_err(|e| e.to_string())
    };
    let oracle = run(ColumnarMode::Off, 1);
    let mode = ColumnarMode::Auto;
    for threads in [1, 2, 8] {
        assert_eq!(
            oracle,
            run(mode, threads),
            "{mode:?}@{threads} diverges from the row oracle: {sql}"
        );
    }
}

/// Every kind of computed operand — i64 arithmetic, integer division (a
/// decimal column), boxed `CASE`, `substr` and `||` results, NULLs
/// included — in every consumer: a comparison against a constant and
/// against a column, an `IN` list, `LIKE`, `BETWEEN` and an `IN` subquery
/// probe; and a deferred error that `AND`, `OR` or `CASE` masks (or, last,
/// does not). Row counts straddle the segment boundary.
#[test]
fn computed_operands_agree_in_every_consumer() {
    let computed = [
        "s_k1 * 2",
        "s_k2 / s_k1",
        "case when s_k1 > 0 then s_k2 end",
        "case when s_k1 > 0 then s_name end",
        "substr(s_name, 2, 1)",
        "s_name || 'x'",
    ];
    let consumers = [
        "{e} = 2",
        "{e} <> '3'",
        "{e} >= s_k1",
        "{e} < s_name",
        "{e} in (1, 2, null)",
        "{e} not in ('1', 'n3x', 4)",
        "{e} like '%3%'",
        "{e} between 1 and 3",
        "{e} in (select s_k2 from s where s_pk < 50)",
        "{e} not in (select substr(s_name, 2, 1) from s where s_pk < 50)",
    ];
    const MAX: &str = "9223372036854775807";
    let masked = [
        format!("select s_pk from s where s_pk + 1 < 0 and s_pk * {MAX} > 0"),
        format!("select s_pk from s where s_k2 / 1 >= 0 or s_k2 is null or s_pk * {MAX} > 0"),
        format!(
            "select s_pk, case when s_pk / 1 >= 2 then s_name || 'x' \
             else substr(s_name, s_pk * {MAX}, 1) end from s"
        ),
        format!("select s_pk from s where s_k1 * 2 > 0 and s_pk * {MAX} > 0"),
    ];
    for rows in [65_535usize, 65_536, 65_537] {
        let db = build_db(&mut SplitMix64(rows as u64), rows);
        for e in computed {
            for c in consumers {
                let sql = format!("select s_pk, {e} from s where {}", c.replace("{e}", e));
                same_outcome(&db, &sql);
            }
        }
        for sql in &masked {
            same_outcome(&db, sql);
        }
    }
}

/// `i64::MIN % -1` is 0 and `-i64::MIN` is an overflow error, on the row
/// path and in the kernels alike (the `%` fast path and the per-row `-`).
#[test]
fn the_smallest_integer_divides_and_negates_alike_on_every_path() {
    const MIN: &str = "(s_pk - s_pk - 9223372036854775807 - 1)";
    let db = build_db(&mut SplitMix64(0x5EED), 300);
    let remainders = format!("select s_pk, {MIN} % -1, {MIN} % s_k1, {MIN} % 7 from s");
    same_outcome(&db, &remainders);
    let rows = tpcds_core::engine::query_with(&db, &remainders, opts(ColumnarMode::Auto, 2))
        .expect("no remainder overflows")
        .rows;
    for row in &rows {
        assert_eq!(
            (&row[1], &row[3]),
            (&Value::Int(0), &Value::Int(-1)),
            "{row:?}"
        );
        assert!(
            matches!(row[2], Value::Int(0) | Value::Int(-2) | Value::Null),
            "{row:?}"
        );
    }
    for sql in [
        format!("select s_pk, -{MIN} from s"),
        format!("select s_pk from s where -{MIN} > 0"),
    ] {
        same_outcome(&db, &sql);
        let err = tpcds_core::engine::query_with(&db, &sql, opts(ColumnarMode::Auto, 2))
            .expect_err("-i64::MIN overflows");
        assert!(
            err.to_string().contains("integer overflow in -"),
            "{sql}: {err}"
        );
    }
    same_outcome(&db, &format!("select s_pk, -({MIN} + 1) from s"));
}
