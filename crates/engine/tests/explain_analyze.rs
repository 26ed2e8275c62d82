//! EXPLAIN ANALYZE coverage: every `Plan` variant renders with executed
//! actuals (`rows=`, `elapsed=`, `loops=`), and the row counts agree with
//! the query's actual result.

use tpcds_engine::{query_analyze, ColumnMeta, ColumnarMode, Database, ExecOptions};
use tpcds_types::Value;

fn db_with(table: &str, cols: &[&str], rows: Vec<Vec<i64>>) -> Database {
    let db = Database::new();
    add_table(&db, table, cols, rows);
    db
}

fn add_table(db: &Database, table: &str, cols: &[&str], rows: Vec<Vec<i64>>) {
    let meta = cols
        .iter()
        .map(|c| ColumnMeta {
            name: c.to_string(),
            dtype: tpcds_types::DataType::Int,
        })
        .collect();
    let rows = rows
        .into_iter()
        .map(|r| r.into_iter().map(Value::Int).collect())
        .collect();
    db.create_table_with_rows(table, meta, rows).unwrap();
}

/// Runs EXPLAIN ANALYZE, checks every operator line carries actuals, and
/// returns (result row count, plan text).
fn analyze(db: &Database, sql: &str) -> (usize, String) {
    let a = query_analyze(db, sql).unwrap();
    for line in a.plan_text.lines() {
        assert!(
            line.contains("rows=") && line.contains("elapsed=") && line.contains("loops="),
            "line missing actuals: {line:?}\nfull plan:\n{}",
            a.plan_text
        );
    }
    (a.result.rows.len(), a.plan_text)
}

/// `rows=` value of the first (root) operator line.
fn root_rows(plan_text: &str) -> u64 {
    line_rows(plan_text.lines().next().expect("non-empty plan"))
}

/// Parses `rows=N` out of one operator line.
fn line_rows(line: &str) -> u64 {
    let tail = line.split("rows=").nth(1).expect("rows= present");
    tail.chars()
        .take_while(|c| c.is_ascii_digit())
        .collect::<String>()
        .parse()
        .expect("rows value")
}

/// `rows=` values of every line whose label contains `op`.
fn op_rows(plan_text: &str, op: &str) -> Vec<u64> {
    plan_text
        .lines()
        .filter(|l| l.trim_start().starts_with(op))
        .map(line_rows)
        .collect()
}

#[test]
fn scan_filter_sort_project_limit_carry_actuals() {
    let db = db_with("t", &["a", "b"], (0..20).map(|i| vec![i, i * 10]).collect());
    let (n, plan) = analyze(&db, "select a from t where a >= 10 order by a desc limit 3");
    assert_eq!(n, 3);
    assert_eq!(root_rows(&plan), 3, "{plan}");
    // Limit-over-Sort fuses into one TopN node producing the final 3 rows.
    assert_eq!(op_rows(&plan, "TopN"), vec![3], "{plan}");
    assert!(op_rows(&plan, "Limit").is_empty(), "{plan}");
    assert!(op_rows(&plan, "Sort").is_empty(), "{plan}");
    // The filter is pushed into the scan: 10 of 20 rows survive it.
    assert_eq!(op_rows(&plan, "Scan t [filtered]"), vec![10], "{plan}");
    assert!(plan.contains("loops=1"), "{plan}");
}

#[test]
fn topn_reports_heap_and_pruning_actuals() {
    let db = db_with("t", &["a", "b"], (0..100).map(|i| vec![i, i * 7]).collect());
    let (n, plan) = analyze(&db, "select a from t order by b desc limit 5");
    assert_eq!(n, 5);
    // The parallel Top-N kernel ran: heap occupancy and pruned-row
    // actuals render.
    assert!(plan.contains("heap_rows="), "{plan}");
    assert!(plan.contains("pruned="), "{plan}");
}

#[test]
fn bare_limit_short_circuits_the_scan() {
    let db = db_with("t", &["a"], (0..50).map(|i| vec![i]).collect());
    // The Limit declines rows once it holds 4, and the chain under it
    // stops there: the scan line carries the 4 rows it produced, not the
    // 40 that pass its filter — on the oracle (the interpreter's
    // decode-on-demand scan loop stops decoding) and on the lazy batch
    // (its ordered early exit; one morsel).
    let run = |sql, columnar| {
        let opts = ExecOptions {
            columnar,
            ..ExecOptions::default()
        };
        let a = tpcds_engine::query_analyze_with(&db, sql, opts).unwrap();
        assert_eq!(a.result.rows.len(), 4);
        a.plan_text
    };
    for columnar in [ColumnarMode::Off, ColumnarMode::Auto] {
        let plan = run("select a from t where a >= 10 limit 4", columnar);
        assert_eq!(op_rows(&plan, "Limit"), vec![4], "{plan}");
        let scanned = op_rows(&plan, "Scan t [filtered]");
        assert!(scanned[0] < 50, "{columnar:?}: {scanned:?}\n{plan}");
        if columnar == ColumnarMode::Off {
            assert_eq!(scanned, vec![4], "{plan}");
            assert!(plan.contains("route=serial"), "{plan}");
        }
        // A correlated subquery predicate is evaluated for the 14 rows the
        // Limit asked for, not for the table — which is all the oracle's
        // scan decodes; the batch path runs the body once, under the Filter,
        // over the domain of the rows the Filter reads.
        let sql =
            "select a from t x where (select count(*) from t y where y.a < x.a) >= 10 limit 4";
        let plan = run(sql, columnar);
        assert!(op_rows(&plan, "Filter")[0] < 50, "{plan}");
        if columnar == ColumnarMode::Off {
            assert_eq!(op_rows(&plan, "Filter")[0], 4, "{plan}");
            assert!(plan.contains("subplan_runs=14"), "{plan}");
            assert!(op_rows(&plan, "Scan t").contains(&14), "{plan}");
        } else {
            let domain = op_rows(&plan, "Domain");
            assert!(
                !domain.is_empty() && domain.iter().all(|&r| r == 50),
                "{plan}"
            );
        }
    }
}

#[test]
fn lazy_nodes_report_the_rows_their_consumer_counted() {
    let db = db_with("t", &["a", "b"], (0..20).map(|i| vec![i, i % 4]).collect());
    // The scan and the HAVING-style filter are lazy: their
    // predicates are evaluated, and their rows counted, by the kernels
    // that consume the batches (the join, the aggregate, the result edge).
    let (n, plan) = analyze(
        &db,
        "select x.a from t x, t y where x.a = y.a and x.a >= 10 and y.b = 1",
    );
    assert_eq!(n, 2, "{plan}");
    let mut scans = op_rows(&plan, "Scan t [filtered]");
    scans.sort_unstable();
    assert_eq!(scans, vec![5, 10], "{plan}");
    let (n, plan) = analyze(
        &db,
        "select b, count(*) c from t group by b having count(*) > 4",
    );
    assert_eq!(n, 4);
    assert_eq!(op_rows(&plan, "Filter"), vec![4], "{plan}");
    assert_eq!(op_rows(&plan, "Scan t"), vec![20], "{plan}");
}

#[test]
fn hash_join_actuals_match_matches() {
    let db = db_with("f", &["fk", "v"], (0..30).map(|i| vec![i % 3, i]).collect());
    db.create_table_with_rows(
        "d",
        vec![
            ColumnMeta {
                name: "id".into(),
                dtype: tpcds_types::DataType::Int,
            },
            ColumnMeta {
                name: "tag".into(),
                dtype: tpcds_types::DataType::Int,
            },
        ],
        (0..3)
            .map(|i| vec![Value::Int(i), Value::Int(i * 100)])
            .collect(),
    )
    .unwrap();
    let (n, plan) = analyze(&db, "select v, tag from f, d where fk = id");
    assert_eq!(n, 30);
    assert_eq!(op_rows(&plan, "HashJoin"), vec![30], "{plan}");
}

#[test]
fn keyless_hash_join_cross_and_non_equi() {
    let db = db_with("l", &["x"], vec![vec![1], vec![2], vec![3]]);
    db.create_table_with_rows(
        "r",
        vec![ColumnMeta {
            name: "y".into(),
            dtype: tpcds_types::DataType::Int,
        }],
        vec![vec![Value::Int(2)], vec![Value::Int(9)]],
    )
    .unwrap();
    // Non-equi: 3x2 pairs, x < y keeps (1,2),(1,9),(2,9),(3,9). Without
    // an equality the join is a hash join on no keys.
    let (n, plan) = analyze(&db, "select x, y from l, r where x < y");
    assert_eq!(n, 4);
    assert_eq!(
        op_rows(&plan, "HashJoin Inner on 0 key(s)"),
        vec![6],
        "{plan}"
    );
    // The join output (wherever the predicate is applied) reaches 4 rows
    // at the root.
    assert_eq!(root_rows(&plan), 4, "{plan}");
    // An ON condition without an equality is the residual: a left row
    // that keeps no pair pads — (1, NULL), (2, NULL), (3, 2).
    let (n, plan) = analyze(&db, "select x, y from l left join r on x > y");
    assert_eq!(n, 3, "{plan}");
    assert_eq!(
        op_rows(&plan, "HashJoin Left on 0 key(s)"),
        vec![3],
        "{plan}"
    );
}

#[test]
fn aggregate_and_having_filter() {
    let db = db_with(
        "t",
        &["g", "v"],
        vec![vec![1, 10], vec![1, 20], vec![2, 5], vec![3, 100]],
    );
    let (n, plan) = analyze(
        &db,
        "select g, sum(v) s from t group by g having sum(v) > 20",
    );
    assert_eq!(n, 2);
    assert_eq!(
        op_rows(&plan, "Aggregate"),
        vec![3],
        "3 groups before HAVING: {plan}"
    );
    assert_eq!(
        op_rows(&plan, "Filter"),
        vec![2],
        "2 groups after HAVING: {plan}"
    );
}

#[test]
fn window_actuals_preserve_input_count() {
    let db = db_with("t", &["p", "v"], vec![vec![1, 10], vec![1, 20], vec![2, 5]]);
    let (n, plan) = analyze(&db, "select p, v, sum(v) over (partition by p) s from t");
    assert_eq!(n, 3);
    assert_eq!(op_rows(&plan, "Window"), vec![3], "{plan}");
}

#[test]
fn distinct_dedupes() {
    let db = db_with(
        "t",
        &["a"],
        vec![vec![1], vec![1], vec![2], vec![2], vec![3]],
    );
    let (n, plan) = analyze(&db, "select distinct a from t");
    assert_eq!(n, 3);
    // DISTINCT groups on every column and computes nothing.
    let dedup = "Aggregate [1 group(s), 0 agg(s)]";
    assert_eq!(op_rows(&plan, dedup), vec![3], "{plan}");
}

#[test]
fn set_ops_union_intersect_except() {
    let db = db_with("a", &["x"], vec![vec![1], vec![2], vec![3]]);
    db.create_table_with_rows(
        "b",
        vec![ColumnMeta {
            name: "y".into(),
            dtype: tpcds_types::DataType::Int,
        }],
        vec![vec![Value::Int(2)], vec![Value::Int(4)]],
    )
    .unwrap();

    let (n, plan) = analyze(&db, "select x from a union all select y from b");
    assert_eq!(n, 5);
    assert_eq!(op_rows(&plan, "UnionAll"), vec![5], "{plan}");

    // INTERSECT / EXCEPT: the tagged union grouped on every column (four
    // distinct values, each with MIN and MAX of its side tags), filtered
    // to the groups both sides (or only the left) produced.
    let tagged = "Aggregate [1 group(s), 2 agg(s)]";
    for (sql, kept) in [
        ("select x from a intersect select y from b", 1),
        ("select x from a except select y from b", 2),
    ] {
        let (n, plan) = analyze(&db, sql);
        assert_eq!(n, kept);
        assert_eq!(op_rows(&plan, "UnionAll"), vec![5], "{plan}");
        assert_eq!(op_rows(&plan, tagged), vec![4], "{plan}");
        assert_eq!(op_rows(&plan, "Filter"), vec![kept as u64], "{plan}");
    }
}

#[test]
fn cte_ref_carries_actuals() {
    let db = db_with("t", &["a"], (0..10).map(|i| vec![i]).collect());
    let (n, plan) = analyze(
        &db,
        "with big as (select a from t where a >= 5)
         select a from big where a < 8",
    );
    assert_eq!(n, 3);
    assert!(plan.contains("CteRef"), "{plan}");
    assert_eq!(
        op_rows(&plan, "CteRef"),
        vec![5],
        "CTE body yields 5 rows: {plan}"
    );
}

/// A CTE referenced twice renders its body once, one level under the
/// first reference, with the actuals of its one execution; the second
/// reference is a bare line.
#[test]
fn cte_body_renders_once_under_its_first_reference() {
    let db = db_with("t", &["a"], (0..10).map(|i| vec![i]).collect());
    let (n, plan) = analyze(
        &db,
        "with big as (select a from t where a >= 5)
         select x.a from big x, big y where x.a = y.a",
    );
    assert_eq!(n, 5);
    let lines: Vec<&str> = plan.lines().collect();
    let depth = |l: &str| l.len() - l.trim_start().len();
    let refs: Vec<usize> = (0..lines.len())
        .filter(|&i| lines[i].trim_start().starts_with("CteRef #"))
        .collect();
    assert_eq!(refs.len(), 2, "{plan}");
    assert_eq!(op_rows(&plan, "CteRef"), vec![5, 5], "{plan}");
    let body = lines[refs[0] + 1];
    assert_eq!(depth(body), depth(lines[refs[0]]) + 2, "{plan}");
    assert!(body.contains("loops=1"), "{plan}");
    assert_eq!(op_rows(&plan, "Scan t [filtered]"), vec![5], "{plan}");
    let after = lines.get(refs[1] + 1);
    assert!(
        after.is_none_or(|l| depth(l) <= depth(lines[refs[1]])),
        "{plan}"
    );
}

#[test]
fn prefix_drops_hidden_sort_columns() {
    let db = db_with(
        "t",
        &["a", "b"],
        vec![vec![1, 30], vec![2, 10], vec![3, 20]],
    );
    // ORDER BY a non-projected column puts a plain-column Project over
    // the sort, keeping the visible prefix of each row.
    let (n, plan) = analyze(&db, "select a from t order by b");
    assert_eq!(n, 3);
    let root = plan.lines().next().unwrap_or_default();
    assert!(root.starts_with("Project [1 cols]"), "{plan}");
    assert_eq!(root_rows(&plan), 3, "{plan}");
}

#[test]
fn unexecuted_nodes_render_never_executed() {
    let db = db_with("t", &["a"], vec![vec![1]]);
    // Render one query's tree against another execution's stats: nothing
    // in the map matches, so every operator reports it never ran.
    let bound = tpcds_engine::plan_sql(&db, "select a from t").unwrap();
    let stats = tpcds_engine::exec::StatsMap::new();
    let est = tpcds_engine::estimate::estimate_plan(&bound.plan, &db);
    let text = bound.plan.explain_analyze(&stats, &est);
    for line in text.lines() {
        assert!(line.contains("never executed)"), "{text}");
    }
}

#[test]
fn plain_explain_has_no_actuals() {
    let db = db_with("t", &["a"], vec![vec![1]]);
    let bound = tpcds_engine::plan_sql(&db, "select a from t where a = 1").unwrap();
    let text = bound.plan.explain();
    assert!(!text.contains("rows="), "{text}");
    assert!(!text.contains("elapsed="), "{text}");
}

/// q35's WHERE clause: three equality-correlated EXISTS, two of them under
/// an OR. On the row interpreter the owning Filter's line says how many
/// subqueries it holds and how many times their bodies ran, once per
/// distinct customer reached; on the batch path each body runs once, its
/// nodes rendered under the Filter.
#[test]
fn subplan_runs_tell_once_from_once_per_key() {
    use tpcds_engine::query_analyze_with;
    let db = db_with(
        "customer",
        &["c_customer_sk"],
        (0..40).map(|i| vec![i]).collect(),
    );
    // Every `step`th customer bought on this channel, on date `c % 4`.
    let channel = |table: &str, cust: &str, date: &str, step: usize| {
        let sales = (0..40).step_by(step).map(|c| vec![c, c % 4]).collect();
        add_table(&db, table, &[cust, date], sales);
    };
    channel("store_sales", "ss_customer_sk", "ss_sold_date_sk", 2);
    channel("web_sales", "ws_bill_customer_sk", "ws_sold_date_sk", 3);
    channel("catalog_sales", "cs_ship_customer_sk", "cs_sold_date_sk", 5);
    let quarters = (0..4).map(|i| vec![i, i + 1]).collect();
    add_table(&db, "date_dim", &["d_date_sk", "d_qoy"], quarters);
    let sql = "select count(*) from customer c \
        where exists (select ss_sold_date_sk from store_sales, date_dim \
                      where c.c_customer_sk = ss_customer_sk \
                        and ss_sold_date_sk = d_date_sk and d_qoy < 4) \
          and (exists (select ws_sold_date_sk from web_sales, date_dim \
                       where c.c_customer_sk = ws_bill_customer_sk \
                         and ws_sold_date_sk = d_date_sk and d_qoy < 4) \
               or exists (select cs_sold_date_sk from catalog_sales, date_dim \
                          where c.c_customer_sk = cs_ship_customer_sk \
                            and cs_sold_date_sk = d_date_sk and d_qoy < 4))";
    let run = |columnar| {
        let opts = ExecOptions {
            columnar,
            threads: Some(2),
        };
        let a = query_analyze_with(&db, sql, opts).unwrap();
        (a.result.rows[0][0].clone(), a.plan_text)
    };
    let (batch_count, batch) = run(ColumnarMode::Auto);
    assert_eq!(op_rows(&batch, "Domain").len(), 3, "{batch}");
    assert!(
        batch.lines().all(|l| l.contains("loops=1 route=columnar")),
        "{batch}"
    );
    let (oracle_count, oracle) = run(ColumnarMode::Off);
    let oracle = oracle.lines().find(|l| l.contains("subplans=")).unwrap();
    assert_eq!(batch_count, oracle_count);
    // 40 customers reach the first EXISTS, the 20 it admits reach the
    // second, and the third runs for the 13 the second turned away.
    assert!(oracle.contains("subplans=3 subplan_runs=73"), "{oracle}");
    // q58's shape: a CTE body whose IN subquery holds a scalar one. The node reports carry the counts, and every
    // node of the statement stayed on the batch path.
    let sql = "with buyers as (select c_customer_sk from customer where c_customer_sk in \
               (select ss_customer_sk from store_sales where ss_sold_date_sk = \
                (select min(d_date_sk) from date_dim))) select count(*) from buyers";
    let opts = ExecOptions {
        columnar: ColumnarMode::Auto,
        threads: Some(2),
    };
    let a = query_analyze_with(&db, sql, opts).unwrap();
    // The CTE's scan holds both subqueries; the IN body's scan, rendered
    // under it, holds the scalar one.
    let owners: Vec<_> = (a.nodes.iter())
        .filter_map(|n| (n.subplans > 0).then_some(n.subplans))
        .collect();
    assert_eq!(owners, vec![2, 1], "{:?}", a.nodes);
    assert!(a.nodes.iter().all(|n| n.calls == 1), "{:?}", a.nodes);
    assert!(
        a.nodes.iter().all(|n| n.fallback.is_none()),
        "{:?}",
        a.nodes
    );
}
