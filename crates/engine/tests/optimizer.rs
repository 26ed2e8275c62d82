//! Tests of the join-reordering optimizer: plan shapes and, more
//! importantly, result equivalence between optimized plans and semantics.

use tpcds_engine::{plan_sql, query, ColumnMeta, Database, Plan};
use tpcds_types::{DataType, Value};

/// A miniature star schema: one fact, three dimensions of very different
/// sizes, with selective predicates on the smallest.
fn star_db() -> Database {
    let db = Database::new();
    let col = |n: &str| ColumnMeta {
        name: n.to_string(),
        dtype: DataType::Int,
    };
    db.create_table_with_rows(
        "fact",
        vec![col("f_d1"), col("f_d2"), col("f_d3"), col("f_v")],
        (0..5000)
            .map(|i| {
                vec![
                    Value::Int(i % 100),
                    Value::Int(i % 10),
                    Value::Int(i % 500),
                    Value::Int(i),
                ]
            })
            .collect(),
    )
    .unwrap();
    db.create_table_with_rows(
        "d1",
        vec![col("d1_id"), col("d1_attr")],
        (0..100)
            .map(|i| vec![Value::Int(i), Value::Int(i * 2)])
            .collect(),
    )
    .unwrap();
    db.create_table_with_rows(
        "d2",
        vec![col("d2_id"), col("d2_attr")],
        (0..10)
            .map(|i| vec![Value::Int(i), Value::Int(i * 3)])
            .collect(),
    )
    .unwrap();
    db.create_table_with_rows(
        "d3",
        vec![col("d3_id"), col("d3_attr")],
        (0..500)
            .map(|i| vec![Value::Int(i), Value::Int(i * 5)])
            .collect(),
    )
    .unwrap();
    db
}

fn count_nodes(plan: &Plan, pred: &impl Fn(&Plan) -> bool) -> usize {
    let mut n = usize::from(pred(plan));
    match plan {
        Plan::Filter { input, .. }
        | Plan::Project { input, .. }
        | Plan::Sort { input, .. }
        | Plan::TopN { input, .. }
        | Plan::Limit { input, .. }
        | Plan::Window { input, .. }
        | Plan::Aggregate { input, .. }
        | Plan::Prefix { input, .. } => n += count_nodes(input, pred),
        Plan::HashJoin { left, right, .. } | Plan::UnionAll { left, right } => {
            n += count_nodes(left, pred) + count_nodes(right, pred);
        }
        Plan::Scan { .. } | Plan::CteRef { .. } => {}
    }
    n
}

#[test]
fn comma_joins_become_hash_joins() {
    let db = star_db();
    let bound = plan_sql(
        &db,
        "select sum(f_v) from fact, d1, d2, d3
         where f_d1 = d1_id and f_d2 = d2_id and f_d3 = d3_id and d2_attr = 9",
    )
    .unwrap();
    let hash_joins = count_nodes(&bound.plan, &|p| matches!(p, Plan::HashJoin { .. }));
    let cross_joins = count_nodes(
        &bound.plan,
        &|p| matches!(p, Plan::HashJoin { left_keys, .. } if left_keys.is_empty()),
    );
    assert_eq!(hash_joins, 3, "{}", bound.plan.explain());
    assert_eq!(
        cross_joins,
        0,
        "no cartesian products left:\n{}",
        bound.plan.explain()
    );
}

#[test]
fn local_predicates_are_pushed_into_scans() {
    let db = star_db();
    let bound = plan_sql(
        &db,
        "select count(*) from fact, d2 where f_d2 = d2_id and d2_attr = 9 and f_v > 100",
    )
    .unwrap();
    let filtered_scans = count_nodes(&bound.plan, &|p| {
        matches!(
            p,
            Plan::Scan {
                filter: Some(_),
                ..
            }
        )
    });
    assert_eq!(filtered_scans, 2, "{}", bound.plan.explain());
}

#[test]
fn optimized_plan_equals_naive_semantics() {
    // Cross-check the join-reordered answer against a formulation that
    // forces the same semantics through explicit subqueries.
    let db = star_db();
    let optimized = query(
        &db,
        "select d1_attr, sum(f_v) s from fact, d1, d2, d3
         where f_d1 = d1_id and f_d2 = d2_id and f_d3 = d3_id
           and d2_attr >= 15 and d3_attr < 100
         group by d1_attr order by d1_attr",
    )
    .unwrap();
    let explicit = query(
        &db,
        "select d1_attr, sum(f_v) s
         from (select * from fact where f_d2 in (select d2_id from d2 where d2_attr >= 15)
                                    and f_d3 in (select d3_id from d3 where d3_attr < 100)) f
              join d1 on f_d1 = d1_id
         group by d1_attr order by d1_attr",
    )
    .unwrap();
    assert_eq!(optimized.rows, explicit.rows);
    assert!(!optimized.rows.is_empty());
}

#[test]
fn disconnected_relations_still_answer() {
    // A genuine cartesian product (no join edge) must survive reordering.
    let db = star_db();
    let r = query(&db, "select count(*) from d2, d1 where d2_attr = 0").unwrap();
    assert_eq!(r.rows[0][0], Value::Int(100));
}

#[test]
fn join_through_expressions() {
    // Equi-edges where one side is an expression (the q2/q31 pattern
    // `a.x = b.y - 53`).
    let db = star_db();
    let r = query(
        &db,
        "select count(*) from d2 a, d2 b where a.d2_id = b.d2_id - 1",
    )
    .unwrap();
    assert_eq!(r.rows[0][0], Value::Int(9));
}

#[test]
fn subquery_predicates_stay_above_joins() {
    let db = star_db();
    // The correlated subquery references the outer fact row; the plan must
    // still produce correct results after reordering around it.
    let r = query(
        &db,
        "select count(*) from fact, d2
         where f_d2 = d2_id
           and f_v > (select 2 * avg(d2_attr) from d2)
           and d2_attr = 9",
    )
    .unwrap();
    // avg(d2_attr) = (0..10)*3 avg = 13.5 -> f_v > 27; d2_attr = 9 -> d2_id 3 -> f_d2 = 3
    // fact rows with i % 10 == 3 and i > 27: i in {33, 43, ..., 4993}
    assert_eq!(r.rows[0][0], Value::Int(497));
}

#[test]
fn limit_over_sort_fuses_to_topn() {
    let db = star_db();
    let bound = plan_sql(&db, "select f_v from fact order by f_v desc limit 7").unwrap();
    assert_eq!(
        count_nodes(&bound.plan, &|p| matches!(p, Plan::TopN { .. })),
        1,
        "{}",
        bound.plan.explain()
    );
    assert_eq!(
        count_nodes(&bound.plan, &|p| matches!(
            p,
            Plan::Sort { .. } | Plan::Limit { .. }
        )),
        0,
        "Sort and Limit should both be fused away:\n{}",
        bound.plan.explain()
    );
}

#[test]
fn limit_over_prefix_over_sort_fuses_to_topn_under_prefix() {
    // ORDER BY a non-projected column forces a Prefix between Limit and
    // Sort; the fusion must commute through it.
    let db = star_db();
    let bound = plan_sql(&db, "select f_v from fact order by f_d1 limit 7").unwrap();
    let text = bound.plan.explain();
    assert_eq!(
        count_nodes(&bound.plan, &|p| matches!(p, Plan::TopN { .. })),
        1,
        "{text}"
    );
    assert_eq!(
        count_nodes(&bound.plan, &|p| matches!(
            p,
            Plan::Sort { .. } | Plan::Limit { .. }
        )),
        0,
        "{text}"
    );
    assert_eq!(
        count_nodes(&bound.plan, &|p| matches!(p, Plan::Prefix { .. })),
        1,
        "{text}"
    );
}

#[test]
fn sort_without_limit_does_not_fuse() {
    let db = star_db();
    let bound = plan_sql(&db, "select f_v from fact order by f_v").unwrap();
    assert_eq!(
        count_nodes(&bound.plan, &|p| matches!(p, Plan::TopN { .. })),
        0,
        "{}",
        bound.plan.explain()
    );
    assert_eq!(
        count_nodes(&bound.plan, &|p| matches!(p, Plan::Sort { .. })),
        1,
        "{}",
        bound.plan.explain()
    );
}

#[test]
fn explain_shows_fact_as_probe_side() {
    let db = star_db();
    let bound = plan_sql(&db, "select count(*) from fact, d2 where f_d2 = d2_id").unwrap();
    let text = bound.plan.explain();
    // The first (left) input of the hash join should be the larger fact
    // table — the greedy order builds on the small side.
    let fact_pos = text.find("Scan fact").expect("fact scanned");
    let d2_pos = text.find("Scan d2").expect("d2 scanned");
    assert!(
        fact_pos < d2_pos,
        "fact should be the probe (left) side:\n{text}"
    );
}
