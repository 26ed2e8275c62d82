//! `/metrics` is computed from the finished profile: with the registry
//! on, one statement moves each `engine.kernel.<field>` counter by exactly
//! that field summed over the statement's [`Profile`] (subquery bodies
//! included), and `engine.route.<path>` by the number of executed nodes
//! that took the path. The statement joins, aggregates, ranks, cuts a
//! Top-N and probes a correlated subquery, whose decorrelated body runs as
//! nodes of its own — counted like every other node.
//!
//! Its own test binary: the registry is process-wide. The counting
//! allocator is installed so that `build_bytes` is measured too.

use std::collections::BTreeMap;
use tpcds_engine::{run, ColumnMeta, Database, ExecOptions, Profile, QueryMeta, RoutePath};
use tpcds_obs::metrics;
use tpcds_storage::KernelStats;
use tpcds_types::{DataType, Value};

#[global_allocator]
static ALLOC: tpcds_obs::mem::CountingAlloc = tpcds_obs::mem::CountingAlloc;

const SQL: &str = "select t.b + 1 b1, count(*) n, sum(u.c) s, \
     rank() over (order by count(*) desc, t.b) r \
     from t, u \
     where t.a = u.a and u.c > (select avg(u2.c) from u u2 where u2.a = t.a) \
     group by t.b \
     order by n desc, b1 \
     limit 3";

fn add_table(db: &Database, name: &str, cols: &[&str], rows: Vec<Vec<i64>>) {
    let meta = (cols.iter())
        .map(|c| ColumnMeta {
            name: c.to_string(),
            dtype: DataType::Int,
        })
        .collect();
    let rows = (rows.into_iter())
        .map(|r| r.into_iter().map(Value::Int).collect())
        .collect();
    db.create_table_with_rows(name, meta, rows).unwrap();
}

fn counters() -> BTreeMap<String, u64> {
    metrics::counters_snapshot().into_iter().collect()
}

fn moved(before: &BTreeMap<String, u64>, after: &BTreeMap<String, u64>, name: &str) -> u64 {
    let at = |m: &BTreeMap<String, u64>| m.get(name).copied().unwrap_or(0);
    at(after) - at(before)
}

fn kernel_sums(profile: &Profile) -> KernelStats {
    let mut sum = KernelStats::default();
    for s in profile.ops() {
        let k = &s.kernel;
        sum.morsels += k.morsels;
        sum.rows_in += k.rows_in;
        sum.bytes += k.bytes;
        sum.build_rows += k.build_rows;
        sum.pruned_rows += k.pruned_rows;
        sum.expr_kernels += k.expr_kernels;
        sum.expr_rows += k.expr_rows;
        sum.workers += k.workers;
        sum.partitions += k.partitions;
        sum.build_bytes += k.build_bytes;
        sum.merge_ways += k.merge_ways;
        sum.heap_rows += k.heap_rows;
    }
    sum
}

#[test]
fn registry_moves_by_the_statements_profile() {
    let db = Database::new();
    add_table(
        &db,
        "t",
        &["a", "b"],
        (0..30_000).map(|i| vec![i % 40, i % 13]).collect(),
    );
    add_table(
        &db,
        "u",
        &["a", "c"],
        (0..200).map(|i| vec![i % 40, i]).collect(),
    );
    metrics::enable();
    let before = counters();
    let (result, profile) = run(
        &db,
        SQL,
        None,
        ExecOptions {
            threads: Some(4),
            ..ExecOptions::default()
        },
        QueryMeta::default(),
    );
    let after = counters();
    metrics::disable();
    assert_eq!(result.unwrap().rows.len(), 3);
    assert!(
        profile.plan_text(&db).contains("Domain #"),
        "no subquery body ran:\n{}",
        profile.plan_text(&db)
    );

    let sums = kernel_sums(&profile);
    for (field, sum) in sums.fields() {
        // Every field is exercised, so a registry update that drops one
        // cannot pass.
        assert!(sum > 0, "{field} is 0:\n{}", profile.plan_text(&db));
        let name = format!("engine.kernel.{field}");
        assert_eq!(moved(&before, &after, &name), sum, "{name}");
    }
    let columnar = profile.ops().filter(|s| s.route == RoutePath::Columnar);
    assert_eq!(
        moved(&before, &after, "engine.route.columnar"),
        columnar.count() as u64
    );
    assert_eq!(moved(&before, &after, "engine.route.serial"), 0);
}
