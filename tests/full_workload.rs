//! Integration: every one of the 99 benchmark queries must execute on a
//! generated, loaded data set — and leave one profile behind, of which the
//! query log and EXPLAIN ANALYZE are two renderings that cannot disagree.

use tpcds_core::engine::{self, ExecOptions};
use tpcds_core::TpcDs;

#[test]
fn all_99_queries_execute_on_generated_data() {
    let tpcds = TpcDs::builder()
        .scale_factor(0.01)
        .reporting_aux(true)
        .build()
        .expect("generate + load");
    let db = tpcds.database();
    let snap = db.snapshot();
    let last_record = || db.query_log().snapshot().pop().expect("a record");
    let mut failures = Vec::new();
    let mut empty = 0;
    for id in 1..=99u32 {
        let sql = tpcds.benchmark_sql(id, 0).expect("instantiate");
        let opts = ExecOptions::default();
        let pinned = engine::query_pinned(db, &snap, &sql, opts);
        let logged = last_record();
        let analyzed = engine::query_analyze_with(db, &sql, opts);
        let relogged = last_record();
        let (rows, analyzed) = match (pinned, analyzed) {
            (Ok(r), Ok(a)) => (r.rows.len(), a),
            (Err(e), _) | (_, Err(e)) => {
                failures.push(format!("q{id}: {e}\n{sql}"));
                continue;
            }
        };
        if rows == 0 {
            empty += 1;
        }
        // Two runs of one pipeline on one snapshot: same record.
        let summary = |r: &engine::QueryRecord| (r.best_route, r.rows, r.snapshot_version);
        assert_eq!(summary(&logged), summary(&relogged), "q{id}");
        assert_eq!(logged.snapshot_version, snap.version(), "q{id}");
        assert_eq!(logged.rows, rows as u64, "q{id}");
        assert_eq!(relogged.seq, analyzed.profile.record.seq, "q{id}");
        // The log's routing column is what EXPLAIN ANALYZE reports,
        // and no executed node ran on the row interpreter.
        assert_eq!(logged.best_route, analyzed.best_route().as_str(), "q{id}");
        let serial = (analyzed.nodes.iter()).filter(|n| n.route == engine::RoutePath::Serial);
        assert_eq!(serial.count(), 0, "q{id}");
        // Phases are parts of the wall time, and every template scans.
        for r in [&logged, &relogged] {
            assert!(r.exec_us > 0, "q{id}: {r:?}");
            assert!(
                r.parse_us + r.plan_us + r.exec_us <= r.wall_us,
                "q{id}: {r:?}"
            );
            assert_eq!(r.error, None, "q{id}");
        }
    }
    assert!(
        failures.is_empty(),
        "{} queries failed:\n{}",
        failures.len(),
        failures.join("\n---\n")
    );
    // At a tiny scale factor many selective queries legitimately return
    // nothing, but the majority should produce rows.
    assert!(empty < 70, "{empty} of 99 queries returned no rows");

    // A statement that never parses still leaves its record: no later phase
    // ran, and the error says why.
    assert!(engine::query(db, "select from where").is_err());
    let r = last_record();
    assert_eq!((r.plan_us, r.exec_us, r.rows), (0, 0, 0), "{r:?}");
    assert!(r.error.is_some(), "{r:?}");
}
