//! Row-path vs expression-kernel conformance: the interpreted row path is
//! the correctness oracle, and every compiled kernel must reproduce its
//! results — and its *errors* — bit for bit, at every worker count.
//!
//! The cases here pin the arithmetic edge semantics the kernels share with
//! `tpcds_types::scalar`: checked i64 overflow (same message, first-row-wins
//! precedence), Decimal rescale through mixed-scale arithmetic, division and
//! modulo by zero yielding NULL (never an error), and NULL propagation
//! through CASE / COALESCE / NULLIF.

use tpcds_engine::{ColumnMeta, ColumnarMode, Database, ExecOptions};
use tpcds_types::{DataType, Decimal, Row, Value};

const OFF: ExecOptions = ExecOptions {
    columnar: ColumnarMode::Off,
    threads: None,
};

fn force(threads: usize) -> ExecOptions {
    ExecOptions {
        columnar: ColumnarMode::Force,
        threads: Some(threads),
    }
}

/// 300 well-behaved rows; `edge_db` swaps in poisoned values near the i64
/// boundaries when a test needs overflow to actually fire.
fn db_with(big: impl Fn(i64) -> Value) -> Database {
    let db = Database::new();
    let meta = vec![
        ColumnMeta {
            name: "id".into(),
            dtype: DataType::Int,
        },
        ColumnMeta {
            name: "n".into(),
            dtype: DataType::Int,
        },
        ColumnMeta {
            name: "big".into(),
            dtype: DataType::Int,
        },
        ColumnMeta {
            name: "amt".into(),
            dtype: DataType::Decimal,
        },
    ];
    let rows: Vec<Row> = (0..300i64)
        .map(|i| {
            vec![
                Value::Int(i),
                if i % 7 == 0 {
                    Value::Null
                } else {
                    Value::Int(i % 5 - 2) // includes zeros for div-by-zero
                },
                big(i),
                Value::Decimal(Decimal::from_cents(i * 17 - 400)),
            ]
        })
        .collect();
    db.create_table_with_rows("t", meta, rows).unwrap();
    db
}

fn plain_db() -> Database {
    db_with(|i| Value::Int(i * 1000))
}

/// Rows 100 and 200 carry i64::MAX / i64::MIN: any +/-/* over them traps.
fn edge_db() -> Database {
    db_with(|i| match i {
        100 => Value::Int(i64::MAX),
        200 => Value::Int(i64::MIN),
        _ => Value::Int(i),
    })
}

/// The kernel configurations every case runs under: with and without
/// index probes, at 1/2/8 workers.
fn kernel_runs() -> impl Iterator<Item = ExecOptions> {
    [1, 2, 8].into_iter().flat_map(|threads| {
        let auto = ExecOptions {
            columnar: ColumnarMode::Auto,
            threads: Some(threads),
        };
        [force(threads), auto]
    })
}

/// Oracle run (row path, single thread) vs kernels at 1/2/8 workers: all
/// runs must agree byte-for-byte.
fn assert_parity(db: &Database, sql: &str) {
    let oracle = tpcds_engine::query_with(db, sql, OFF).unwrap();
    for opts in kernel_runs() {
        let k = tpcds_engine::query_with(db, sql, opts).unwrap();
        assert_eq!(
            oracle.rows, k.rows,
            "kernel diverges from row path for: {sql} ({opts:?})"
        );
    }
}

/// Both paths must fail, with the *same* message, at every worker count —
/// the deferred-error cell keeps the lowest row key so parallel kernels
/// report the same first error the serial row loop hits.
fn assert_error_parity(db: &Database, sql: &str) {
    let oracle = tpcds_engine::query_with(db, sql, OFF)
        .unwrap_err()
        .to_string();
    for opts in kernel_runs() {
        let k = tpcds_engine::query_with(db, sql, opts)
            .unwrap_err()
            .to_string();
        assert_eq!(oracle, k, "error message diverges for: {sql} ({opts:?})");
    }
}

#[test]
fn integer_overflow_messages_match_the_row_path() {
    let db = edge_db();
    for sql in [
        "select big + 1 from t",
        "select big - 1 from t where id >= 150", // only the MIN row traps
        "select big * 3 from t",
        "select id from t where big + 1 > 0",
        "select id from t order by big * 2",
    ] {
        assert_error_parity(&db, sql);
    }
    // The overflow messages themselves are pinned to the shared scalar
    // vocabulary, not some kernel-specific wording.
    let e = tpcds_engine::query_with(&db, "select big + 1 from t", force(8)).unwrap_err();
    assert!(
        e.to_string().contains("integer overflow in +"),
        "unexpected message: {e}"
    );
}

#[test]
fn division_and_modulo_by_zero_yield_null_not_errors() {
    let db = plain_db();
    // n cycles through -2..=2, so zero divisors occur mid-segment.
    for sql in [
        "select id, id / n from t",
        "select id, id % n from t",
        "select id, amt / n from t",
        "select id from t where id / n > 10",
        "select id from t where id % n = 0",
    ] {
        assert_parity(&db, sql);
    }
    // And the NULL actually lands where the divisor is zero.
    let r = tpcds_engine::query_with(&db, "select id / n from t where n = 0", force(8)).unwrap();
    assert!(r.rows.iter().all(|row| row[0] == Value::Null));
}

#[test]
fn decimal_rescale_is_identical_across_paths() {
    let db = plain_db();
    for sql in [
        "select amt * 3, amt + 0.005, amt - 1.25 from t",
        "select amt * 1.5 from t where amt * 1.5 > 2.00",
        "select id / 4, amt / 7 from t", // Int / Int widens to Decimal too
        "select id from t order by amt * -1.01, id",
    ] {
        assert_parity(&db, sql);
    }
}

#[test]
fn null_propagation_through_case_coalesce_nullif() {
    let db = plain_db();
    for sql in [
        "select case when n > 0 then id else -id end from t",
        "select case when n + 1 > 0 then 'pos' end from t", // NULL arm via missing ELSE
        "select coalesce(n, id, 0) from t",
        "select nullif(n, 0), nullif(id, 5) from t",
        "select case when n is null then coalesce(n, -1) else nullif(n, 2) end from t",
        "select id from t where case when n = 0 then null else n end > 0",
    ] {
        assert_parity(&db, sql);
    }
}

#[test]
fn mixed_expression_shapes_agree_everywhere() {
    let db = plain_db();
    for sql in [
        "select id + n * 2 - 1 from t",
        "select -n, abs(n), abs(amt) from t",
        "select id from t where id + 1 between 50 and 60",
        "select id, n from t where n * n >= 4 order by id desc limit 25",
        "select id from t where coalesce(n, 0) * id < 100 and id > 10",
    ] {
        assert_parity(&db, sql);
    }
}

/// A predicate left *pending* on a join input is evaluated inside the
/// join kernel, over every row of that side — including rows the other
/// side would drop — so it must raise exactly what the row path raises
/// when it filters that input before joining: same text, probe side
/// before build side, both before the residual.
#[test]
fn pending_join_side_predicates_raise_the_row_paths_first_error() {
    let db = edge_db();
    // `d.k` covers 0..=2 only; row 100 of `t` (big = i64::MAX) has n = -2
    // and row 200 (big = i64::MIN) has n = -2 too: neither joins.
    let meta = ["k", "w"]
        .map(|name| ColumnMeta {
            name: name.into(),
            dtype: DataType::Int,
        })
        .to_vec();
    let rows: Vec<Row> = (0..3i64)
        .map(|k| vec![Value::Int(k), Value::Int(i64::MAX - k)])
        .collect();
    db.create_table_with_rows("d", meta, rows).unwrap();
    // Comma joins: the optimizer pushes each single-table conjunct into
    // its scan, which is what leaves it pending on that join input.
    for sql in [
        // Overflow pending on one side, on a row the join drops.
        "select t.id from t, d where t.n = d.k and t.big + 1 > 0",
        "select t.id, d.k from t, d where t.n = d.k and t.big - 1 < 0 and t.id >= 150",
        // ... on the other side (every `d.w * 2` overflows).
        "select t.id from t, d where t.n = d.k and d.w * 2 > 0",
        // Both sides and the residual overflow: one deterministic winner.
        "select t.id from t, d where t.n = d.k and t.big + d.w > 0 \
         and t.big + 1 > 0 and d.w * 2 > 0",
        // Under a fused aggregate the precedence is the same.
        "select d.k, count(*) from t, d where t.n = d.k and t.big * 3 > 0 group by d.k",
    ] {
        assert_error_parity(&db, sql);
    }
    // A WHERE that stays above an explicit join sees only joined rows:
    // the poisoned rows never reach it, on either path.
    assert_parity(
        &db,
        "select t.id from t join d on t.n = d.k where t.big + 1 > 0 order by t.id, d.k",
    );
    // With the poisoned rows filtered out first, the same joins succeed
    // and agree: the pending predicate only fires on rows it is asked.
    assert_parity(
        &db,
        "select t.id, d.k from t, d where t.n = d.k \
         and t.id < 100 and t.big + 1 > 0 order by t.id, d.k",
    );
}

/// Stacked filters fuse into one pending predicate, but the row path
/// evaluates them row by row: the first error is the one in the lowest
/// row, whichever filter raises it — here the outer filter (`+`, row 100)
/// ahead of the scan's own (`-`, row 200) — and the scan's on a tie. And
/// a row the inner filter did not admit never reaches the outer one, so
/// its error there never fires — whatever consumes the batch.
#[test]
fn stacked_filters_raise_the_lowest_rows_error() {
    let db = edge_db();
    let poisoned = |sql: &str, rows: usize| {
        assert_parity(&db, sql);
        let got = tpcds_engine::query_with(&db, sql, OFF).unwrap().rows;
        assert_eq!(got.len(), rows, "{sql}");
    };
    // Inner filter FALSE on row 100 (`big` = i64::MAX).
    poisoned(
        "select id from (select id, big from t where id < 50) s where big + 1 > 0",
        50,
    );
    poisoned(
        "select id from (select id, n, big from t where n + 0 > 0) s where big + 1 > 0",
        103,
    );
    poisoned(
        "select count(*), sum(id) from (select id, big from t where id <> 100) s \
         where big + 1 > 0",
        1,
    );
    poisoned(
        "select a.id, b.n from (select id, big from t where id < 50) a, t b \
         where a.big + 1 > 0 and a.id = b.id",
        50,
    );
    poisoned(
        "select id from (select id, big from t where id <> 100) s where big + 1 > 0 limit 120",
        120,
    );
    // Inner filter NULL on the poisoned row (105: `n` is NULL there).
    let null_db = db_with(|i| Value::Int(if i == 105 { i64::MAX } else { i }));
    let sql = "select id from (select id, n, big from t where n > 0) s where big + 1 > 0";
    assert_parity(&null_db, sql);
    // ...which one predicate does not mask: NULL AND <error> is an error.
    assert_error_parity(&null_db, "select id from t where n > 0 and big + 1 > 0");
    for (sql, op) in [
        (
            "select x.id from (select id, big from t where big - 1 > 0) x where x.big + 1 > 0",
            "+",
        ),
        (
            "select x.id from (select id, big from t where big + 1 > 0 or id = 100) x \
             where x.big - 1 > 0",
            "+",
        ),
        (
            "select x.id from (select id, big from t where big * 2 > 0) x where x.big + 1 > 0",
            "*",
        ),
    ] {
        assert_error_parity(&db, sql);
        let err = tpcds_engine::query_with(&db, sql, OFF).unwrap_err();
        assert!(
            err.to_string().ends_with(&format!("in {op}")),
            "{sql}: {err}"
        );
    }
}

// ---------- subqueries: evaluated once on the batch path ----------

fn sorted(mut rows: Vec<Row>) -> Vec<Row> {
    rows.sort_by(|a, b| {
        (a.iter().zip(b))
            .map(|(x, y)| x.sort_cmp(y))
            .find(|o| o.is_ne())
            .unwrap_or(std::cmp::Ordering::Equal)
    });
    rows
}

/// [`assert_parity`], plus the second reference: the unoptimized plan
/// (no pushdown, no join reordering) returns the same rows in some order.
/// Returns the oracle's rows.
fn assert_subquery_parity(db: &Database, sql: &str) -> Vec<Row> {
    assert_parity(db, sql);
    let oracle = tpcds_engine::query_with(db, sql, OFF).unwrap().rows;
    let naive = tpcds_engine::query_unoptimized(db, sql).unwrap().rows;
    assert_eq!(sorted(oracle.clone()), sorted(naive), "unoptimized: {sql}");
    oracle
}

fn count_of(rows: &[Row]) -> i64 {
    rows[0][0].as_int().expect("a count")
}

/// `subplan_runs=` as EXPLAIN ANALYZE prints it for the node that owns
/// the statement's subqueries.
fn subplan_runs(db: &Database, sql: &str, opts: ExecOptions) -> u64 {
    let plan = tpcds_engine::query_analyze_with(db, sql, opts)
        .unwrap()
        .plan_text;
    let at = plan
        .find("subplan_runs=")
        .unwrap_or_else(|| panic!("{plan}"));
    let digits: String = plan[at + "subplan_runs=".len()..]
        .chars()
        .take_while(char::is_ascii_digit)
        .collect();
    digits.parse().unwrap()
}

#[test]
fn uncorrelated_subqueries_agree_wherever_they_appear() {
    let db = plain_db();
    for sql in [
        // WHERE: scalar, IN, EXISTS / NOT EXISTS.
        "select id from t where n = (select min(n) from t) order by id",
        "select id from t where id in (select n + 100 from t) order by id",
        "select count(*) from t where exists (select id from t where id = 299)",
        "select count(*) from t where n > 0 and not exists (select id from t where id < 0)",
        // A select list (q9's shape): only the taken arm's subquery runs.
        "select id, case when (select count(*) from t where n = 1) > 10 \
         then (select avg(amt) from t where n = 1) \
         else (select avg(amt) from t where n = 2) end from t where id < 3 order by id",
        // HAVING and a join residual.
        "select n, count(*) from t group by n \
         having count(*) > (select count(*) / 10 from t) order by n",
        "select x.id, y.id from t x left join t y \
         on x.id = y.id and y.n > (select min(n) from t) where x.id < 20 order by 1",
        // Nested two deep (q58's shape).
        "select id from t where id in \
         (select id + 1 from t where n = (select max(n) from t)) order by id",
        // Next to a join, where the optimizer pushes it to its scan.
        "select x.id from t x, t y where x.id = y.id and y.n = 1 \
         and x.id in (select id from t where big >= 100000) order by 1",
    ] {
        assert!(!assert_subquery_parity(&db, sql).is_empty(), "{sql}");
    }
}

#[test]
fn a_failing_subquery_fails_only_when_a_row_reaches_it() {
    let db = plain_db();
    // Two rows where one is allowed — but no outer row ever asks.
    let lazy = "select id from t where id < 0 and n = (select n from t where id in (1, 2))";
    assert!(assert_subquery_parity(&db, lazy).is_empty());
    // The same subquery with rows in front of it: the same message on
    // every path, the unoptimized plan included.
    let eager = "select id from t where n = (select n from t where id in (1, 2))";
    assert_error_parity(&db, eager);
    let oracle = tpcds_engine::query_with(&db, eager, OFF).unwrap_err();
    assert_eq!(
        oracle.to_string(),
        "execution error: scalar subquery returned more than one row"
    );
    assert_eq!(tpcds_engine::query_unoptimized(&db, eager), Err(oracle));
}

#[test]
fn in_and_not_in_follow_sql_null_rules() {
    let db = plain_db();
    let count = |sql: &str| count_of(&assert_subquery_parity(&db, sql));
    // Empty sets.
    assert_eq!(
        count("select count(*) from t where id in (select id from t where id < 0)"),
        0
    );
    assert_eq!(
        count("select count(*) from t where id not in (select id from t where id < 0)"),
        300
    );
    // A NULL in the set turns every miss into UNKNOWN: NOT IN admits
    // nothing, exactly like the literal list.
    let set = "select case when id = 1 then null else id end from t where id <= 2";
    assert_eq!(
        count(&format!("select count(*) from t where id in ({set})")),
        2
    );
    assert_eq!(
        count(&format!("select count(*) from t where id not in ({set})")),
        0
    );
    assert_eq!(
        count("select count(*) from t where id not in (0, 2, null)"),
        0
    );
    // Without the NULL it admits the misses; a NULL operand stays UNKNOWN.
    assert_eq!(
        count("select count(*) from t where id not in (select id from t where id <= 2)"),
        297
    );
    let nulls = count("select count(*) from t where n is null");
    assert_eq!(
        count("select count(*) from t where n not in (select id from t where id = 1)"),
        300 - nulls - count("select count(*) from t where n = 1")
    );
    // Int against a Decimal set: `1 = 1.00`.
    assert_eq!(
        count("select count(*) from t where id in (select amt from t where id = 100)"),
        1
    );
}

#[test]
fn keyed_exists_is_a_set_probe_with_exists_null_rules() {
    let db = plain_db();
    let auto = ExecOptions {
        columnar: ColumnarMode::Auto,
        threads: Some(2),
    };
    let count = |sql: &str| count_of(&assert_subquery_parity(&db, sql));
    let nulls = count("select count(*) from t where n is null");
    // A NULL outer key matches nothing: NOT EXISTS is TRUE for it.
    let sql = "select count(*) from t x where not exists (select 1 from t y where y.id = x.n)";
    let in_range = count("select count(*) from t where n >= 0");
    assert_eq!(count(sql), 300 - in_range);
    assert!(300 - in_range > nulls);
    assert_eq!(
        subplan_runs(&db, sql, auto),
        1,
        "one body run, not one per key"
    );
    assert!(subplan_runs(&db, sql, OFF) > 1);
    // NULL inner keys are dropped, not matched.
    assert_eq!(
        count("select count(*) from t x where exists (select 1 from t y where y.n = x.id)"),
        3
    );
    // Under OR (q35's shape), with an uncorrelated conjunct in one body.
    let sql = "select count(*) from t x where x.id < 50 and \
               (exists (select 1 from t y where y.n = x.id) \
                or exists (select 1 from t y where y.id = x.n and y.id > 1))";
    assert!(count(sql) > 3);
    assert_eq!(subplan_runs(&db, sql, auto), 2);
    // Two key equalities: a tuple probe; a NULL in either key is a miss.
    let sql = "select count(*) from t x where exists \
               (select 1 from t y where y.id = x.id and y.n = x.n)";
    assert_eq!(count(sql), 300 - nulls);
    assert_eq!(subplan_runs(&db, sql, auto), 1);
    // A non-equality correlation keeps the per-key path, and agrees.
    let sql = "select count(*) from t x where x.id < 40 and exists \
               (select 1 from t y where y.n = x.n and y.id <> x.id)";
    assert_eq!(
        count(sql),
        40 - count("select count(*) from t where id < 40 and n is null")
    );
    assert!(subplan_runs(&db, sql, auto) > 1);
    // Int against Decimal keys compare numerically on the row path, not
    // as set members: not rewritten, and agrees.
    let sql = "select count(*) from t x where exists (select 1 from t y where y.amt = x.id)";
    assert!(count(sql) >= 1);
    assert!(subplan_runs(&db, sql, auto) > 1);
}

// ---------- expression keys: hidden columns on the batch path ----------

/// Every `op` line of `sql`'s analyzed plan ran the batch kernels, under
/// `force` and under `auto`.
fn assert_columnar(db: &Database, sql: &str, op: &str) {
    let auto = ExecOptions {
        columnar: ColumnarMode::Auto,
        threads: Some(2),
    };
    for opts in [force(2), auto] {
        let plan = tpcds_engine::query_analyze_with(db, sql, opts)
            .unwrap()
            .plan_text;
        let lines: Vec<&str> = (plan.lines())
            .filter(|l| l.trim_start().starts_with(op))
            .collect();
        assert!(!lines.is_empty(), "no {op} in:\n{plan}");
        for line in lines {
            assert!(line.contains("route=columnar"), "{sql}:\n{plan}");
        }
    }
}

#[test]
fn aggregate_keys_and_arguments_may_be_expressions() {
    let db = plain_db();
    for sql in [
        "select n % 3, count(*), sum(id * 2), min(-id) from t group by n % 3 order by 1",
        // Pivots (`SUM(CASE …)`) and literal arguments.
        "select sum(case when n > 0 then amt else 0 end), \
         count(case when n is null then 1 end), avg(id + n), sum(1) from t",
        "select n, sum(case n when 1 then id end), max(amt * 2) from t group by n order by n",
        // Division by zero: the zero-divisor rows form the NULL group.
        "select id / n, count(*) from t group by id / n order by 1",
        "select coalesce(n, -9) g, count(*) from t where id > 20 group by coalesce(n, -9) order by g",
    ] {
        assert_parity(&db, sql);
        assert_columnar(&db, sql, "Aggregate");
    }
    let r = tpcds_engine::query_with(
        &db,
        "select id / n, count(*) from t where n = 0 group by id / n",
        force(8),
    )
    .unwrap();
    // n = 0 on the 60 ids ≡ 2 (mod 5), minus the 9 of them where n is NULL.
    assert_eq!(r.rows, vec![vec![Value::Null, Value::Int(51)]]);
    // Overflow in a key or an argument: the row path's message.
    let edge = edge_db();
    for sql in [
        "select big + 1, count(*) from t group by big + 1",
        "select sum(big * 2) from t",
        "select n, max(big - 1) from t where id >= 150 group by n",
    ] {
        assert_error_parity(&edge, sql);
    }
    let e = tpcds_engine::query_with(&edge, "select sum(big * 2) from t", force(8)).unwrap_err();
    assert!(e.to_string().ends_with("in *"), "{e}");
}

/// `substr(a, 1, 2) = substr(b, 1, 2)` and `k - 53 = j` join keys, keys
/// that evaluate to NULL included, for inner and left joins.
#[test]
fn join_keys_may_be_expressions() {
    let db = plain_db();
    let meta = |names: [&str; 2]| {
        [(names[0], DataType::Str), (names[1], DataType::Int)]
            .map(|(name, dtype)| ColumnMeta {
                name: name.into(),
                dtype,
            })
            .to_vec()
    };
    let zips = |n: i64, off: i64| -> Vec<Row> {
        (0..n)
            .map(|i| {
                let zip = match i % 9 {
                    0 => Value::Null,
                    _ => Value::str(format!("{}{:03}", (i + off) % 13, i)),
                };
                vec![zip, Value::Int(i)]
            })
            .collect()
    };
    db.create_table_with_rows("s", meta(["s_zip", "s_k"]), zips(120, 0))
        .unwrap();
    db.create_table_with_rows("c", meta(["c_zip", "c_k"]), zips(40, 5))
        .unwrap();
    for sql in [
        "select s_k, c_k from s, c where substr(s_zip, 1, 2) = substr(c_zip, 1, 2) \
         order by 1, 2",
        "select s_k, c_k from s left join c on substr(s_zip, 1, 2) = substr(c_zip, 1, 2) \
         order by 1, 2",
        "select t.id, x.id from t, t x where t.id - 53 = x.id order by 1",
        // `n` is NULL on every 7th row: those keys match nothing.
        "select t.id, x.id from t left join t x on t.n - 53 = x.id - 53 + x.n \
         order by 1, 2",
        "select t.id, s_zip from t left join s on t.id + 0 = s_k and t.n > 0 order by 1",
    ] {
        assert_parity(&db, sql);
        assert_columnar(&db, sql, "HashJoin");
    }
    // Plain aggregate columns over expression keys: the fused kernel.
    let sql = "select s_k, count(*) from s join c on substr(s_zip, 1, 2) = substr(c_zip, 1, 2) \
               group by s_k order by 1";
    assert_parity(&db, sql);
    assert_columnar(&db, sql, "Aggregate");
}
