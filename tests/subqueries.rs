//! Subqueries on the batch executor, over the 99 templates at SF 0.01:
//! each body runs as plan nodes of its own, once per call of the node that
//! holds it, and EXPLAIN ANALYZE renders those nodes under that node. The
//! interpreter's per-outer-tuple runs (`subplan_runs=`) never happen.

use tpcds_core::engine::{self, ExecOptions, SUBQUERY};
use tpcds_core::TpcDs;

/// The templates whose SQL holds a subquery.
const WITH_SUBQUERIES: [u32; 24] = [
    1, 6, 9, 10, 14, 16, 23, 24, 30, 32, 33, 35, 41, 45, 56, 58, 60, 69, 70, 81, 83, 92, 94, 95,
];

/// `field=` of an EXPLAIN ANALYZE line, as a number.
fn field(line: &str, name: &str) -> Option<f64> {
    let at = line.find(&format!(" {name}="))? + name.len() + 2;
    let digits: String = (line[at..].chars())
        .take_while(|c| c.is_ascii_digit() || *c == '.')
        .collect();
    digits.parse().ok()
}

fn depth(line: &str) -> usize {
    (line.len() - line.trim_start().len()) / 2
}

/// Every body rendered in `plan`: its lines, and the line of the node that
/// holds it (the nearest line above the body's root one level up).
fn bodies(plan: &str) -> Vec<(&str, Vec<&str>)> {
    let lines: Vec<&str> = plan.lines().collect();
    let mut out = Vec::new();
    for (i, root) in lines.iter().enumerate() {
        if !root.trim_start().starts_with(SUBQUERY) {
            continue;
        }
        let d = depth(root);
        let host = lines[..i].iter().rev().find(|l| depth(l) < d).unwrap();
        let end = (lines[i + 1..].iter())
            .position(|l| depth(l) <= d)
            .map_or(lines.len(), |n| i + 1 + n);
        out.push((*host, lines[i..end].to_vec()));
    }
    out
}

#[test]
fn every_body_runs_once_per_call_of_its_holder_under_it() {
    let tpcds = TpcDs::builder().scale_factor(0.01).build().expect("load");
    let db = tpcds.database();
    for id in 1..=99 {
        let sql = tpcds.benchmark_sql(id, 0).unwrap();
        let a = engine::query_analyze_with(db, &sql, ExecOptions::default())
            .unwrap_or_else(|e| panic!("q{id}: {e}"));
        let plan = &a.plan_text;
        assert!(
            a.nodes.iter().all(|n| n.subplan_runs == 0),
            "q{id}: a nested body ran per outer tuple\n{plan}"
        );
        let bodies = bodies(plan);
        if !WITH_SUBQUERIES.contains(&id) {
            assert!(bodies.is_empty(), "q{id}\n{plan}");
            continue;
        }
        // Some body ran, and is in the node reports too.
        let ran = |l: &&&str| !l.contains("never executed");
        assert!(bodies.iter().any(|(_, b)| ran(&&b[0])), "q{id}\n{plan}");
        let roots = a.nodes.iter().filter(|n| n.op.starts_with(SUBQUERY));
        assert!(roots.clone().any(|n| n.executed), "q{id}: {:?}", a.nodes);
        assert!(
            roots
                .filter(|n| n.executed)
                .all(|n| n.route == engine::RoutePath::Columnar),
            "q{id}: {:?}",
            a.nodes
        );
        for (host, body) in bodies {
            let calls = field(host, "loops").unwrap_or(0.0);
            for line in body.iter().filter(ran) {
                assert!(line.contains("route=columnar"), "q{id}: {line}\n{plan}");
                let loops = field(line, "loops").unwrap();
                assert!(loops <= calls, "q{id}: {line} under {host}\n{plan}");
            }
        }
    }
}

/// A body's domain leaf is estimated as the distinct tuples of the outer
/// columns it reads among its holder's input rows: what the estimator
/// says a GROUP BY on those columns over the same input returns.
#[test]
fn a_domain_is_estimated_as_its_group_count() {
    let tpcds = TpcDs::builder().scale_factor(0.01).build().expect("load");
    let db = tpcds.database();
    let est = |sql: &str, op: &str| {
        let plan = engine::explain_sql(db, sql).unwrap();
        let line = plan.lines().find(|l| l.contains(op)).unwrap().to_string();
        field(&line, "(est_rows").unwrap_or_else(|| panic!("{line}"))
    };
    let filter = "i_manufact_id between 700 and 740";
    let domain = est(
        &format!(
            "select count(*) from item i where {filter} and \
             (select count(*) from item j where j.i_manufact = i.i_manufact \
              and j.i_size = 'small') > 0"
        ),
        "Domain",
    );
    let groups = est(
        &format!("select i_manufact from item where {filter} group by i_manufact"),
        "Aggregate",
    );
    assert_eq!(domain, groups);
    assert!(domain > 1.0);
}
