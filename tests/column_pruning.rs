//! Column pruning over the 99 templates at SF 0.01: the pass reaches its
//! fixed point in one application, no plain-column projection is left
//! directly over another, and q48's scans emit exactly the columns its SQL
//! reads above them.

use std::collections::BTreeMap;
use tpcds_core::engine::expr::BExpr;
use tpcds_core::engine::{optimizer::prune_columns, plan_sql, Plan};
use tpcds_core::TpcDs;

/// Every node of `p`, CTE bodies and decorrelated subquery bodies
/// included, in pre-order.
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
        .chain(inputs.into_iter().chain(flat_bodies(p)).flat_map(nodes))
        .collect()
}

/// The decorrelated bodies of the subqueries in `p`'s own expressions.
fn flat_bodies(p: &Plan) -> Vec<&Plan> {
    let subs = p.exprs().into_iter().flat_map(BExpr::subqueries);
    subs.map(|b| &**b.flat).collect()
}

fn plain(exprs: &[BExpr]) -> bool {
    exprs.iter().all(|e| matches!(e, BExpr::Col(_)))
}

#[test]
fn pruning_is_a_fixed_point_and_composes_projections() {
    let tpcds = TpcDs::builder().scale_factor(0.01).build().expect("load");
    let db = tpcds.database();
    for id in 1..=99 {
        let sql = tpcds.benchmark_sql(id, 0).unwrap();
        let plan = plan_sql(db, &sql)
            .unwrap_or_else(|e| panic!("q{id}: {e}"))
            .plan;
        let again = prune_columns(&plan);
        assert_eq!(
            format!("{again:?}"),
            format!("{plan:?}"),
            "q{id}: a second pass changed the plan\n{}",
            plan.explain()
        );
        for p in nodes(&plan) {
            for body in flat_bodies(p) {
                assert_eq!(
                    format!("{:?}", prune_columns(body)),
                    format!("{body:?}"),
                    "q{id}: a second pass changed a subquery body\n{}",
                    plan.explain()
                );
            }
            if let Plan::Project { input, exprs } = p {
                if let Plan::Project { exprs: under, .. } = &**input {
                    assert!(
                        !(plain(exprs) && plain(under)),
                        "q{id}: plain Project over plain Project\n{}",
                        plan.explain()
                    );
                }
            }
        }
    }
}

#[test]
fn q48_scans_emit_only_the_columns_it_reads() {
    let tpcds = TpcDs::builder().scale_factor(0.01).build().expect("load");
    let db = tpcds.database();
    let plan = plan_sql(db, &tpcds.benchmark_sql(48, 0).unwrap())
        .unwrap()
        .plan;
    let emitted: BTreeMap<&str, usize> = (nodes(&plan).into_iter())
        .filter_map(|p| match p {
            Plan::Scan { table, cols, .. } => Some((table.as_str(), cols.len())),
            _ => None,
        })
        .collect();
    let want = BTreeMap::from([
        ("customer_address", 1),
        ("customer_demographics", 3),
        ("date_dim", 1),
        ("store", 1),
        ("store_sales", 6),
    ]);
    assert_eq!(emitted, want, "\n{}", plan.explain());
}

/// The subquery bodies in `p`'s own expressions in every form that runs:
/// the decorrelated body, and an uncorrelated one's nested body, which
/// the batch path folds once per statement.
fn bodies(p: &Plan) -> Vec<&Plan> {
    let subs = p.exprs().into_iter().flat_map(BExpr::subqueries);
    subs.flat_map(|b| {
        let nested = b.outer_refs.is_empty().then_some(&**b.plan);
        std::iter::once(&**b.flat).chain(nested)
    })
    .collect()
}

/// The nodes under `p`'s subquery bodies (of every form that runs), at
/// any depth, in pre-order.
fn under_subqueries(p: &Plan) -> Vec<&Plan> {
    let mut out = Vec::new();
    for node in nodes(p) {
        for body in bodies(node) {
            out.extend(nodes(body));
            out.extend(under_subqueries(body));
        }
    }
    out
}

#[test]
fn scans_under_subqueries_emit_only_what_is_read_above_them() {
    let tpcds = TpcDs::builder().scale_factor(0.01).build().expect("load");
    let db = tpcds.database();
    let plan = |id| {
        let sql = tpcds.benchmark_sql(id, 0).unwrap();
        plan_sql(db, &sql)
            .unwrap_or_else(|e| panic!("q{id}: {e}"))
            .plan
    };
    for id in 1..=99 {
        let plan = plan(id);
        for node in nodes(&plan).into_iter().chain(under_subqueries(&plan)) {
            for body in bodies(node) {
                assert_eq!(
                    format!("{:?}", prune_columns(body)),
                    format!("{body:?}"),
                    "q{id}: a subquery body is not pruned\n{}",
                    body.explain()
                );
            }
        }
    }
    // q9's bodies count or average one column of store_sales; q14's
    // `avg_sales` joins each channel's sales with date_dim on the date.
    for (id, widest) in [(9, 1), (14, 4)] {
        let plan = plan(id);
        for node in under_subqueries(&plan) {
            if let Plan::Scan { table, cols, .. } = node {
                assert!(
                    cols.len() <= widest,
                    "q{id}: {table} emits {} columns under a subquery\n{}",
                    cols.len(),
                    plan.explain()
                );
            }
        }
    }
}
