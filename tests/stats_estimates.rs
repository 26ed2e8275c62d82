//! Integration: table statistics, cardinality estimates and routing
//! traces end to end — EXPLAIN carries `est_rows=`, EXPLAIN ANALYZE
//! carries `est=`/`qerr=`/`route=`, every executed operator has a routing
//! decision with a reason code on fallback, and data maintenance
//! refreshes the statistics (the differential gate CI runs).

use tpcds_repro::engine::RoutePath;
use tpcds_repro::TpcDs;

fn load(sf: f64) -> TpcDs {
    TpcDs::builder().scale_factor(sf).build().expect("load")
}

#[test]
fn plain_explain_renders_estimates() {
    let t = load(0.005);
    let text = t
        .explain(
            "select d_year, count(*) from store_sales, date_dim \
             where ss_sold_date_sk = d_date_sk and ss_quantity > 10 group by d_year",
        )
        .expect("explain");
    assert!(text.contains("est_rows="), "no estimates in:\n{text}");
    // Every operator line is annotated, not just the root.
    let annotated = text.lines().filter(|l| l.contains("est_rows=")).count();
    assert_eq!(
        annotated,
        text.lines().count(),
        "unannotated lines:\n{text}"
    );
}

#[test]
fn explain_analyze_renders_est_qerr_route() {
    let t = load(0.005);
    let analyzed = t
        .explain_analyze(
            "select d_year, count(*), sum(ss_ext_sales_price) from store_sales, date_dim \
             where ss_sold_date_sk = d_date_sk group by d_year order by d_year",
        )
        .expect("analyze");
    let text = &analyzed.plan_text;
    for marker in ["rows=", "est=", "qerr=", "route="] {
        assert!(
            marker_on_executed_lines(text, marker),
            "no {marker} in:\n{text}"
        );
    }
}

fn marker_on_executed_lines(text: &str, marker: &str) -> bool {
    text.lines()
        .filter(|l| !l.contains("never executed"))
        .all(|l| l.contains(marker))
        && text.lines().any(|l| !l.contains("never executed"))
}

#[test]
fn every_executed_node_has_a_route_and_fallbacks_carry_reasons() {
    let t = load(0.005);
    for sql in [
        "select ss_item_sk from store_sales where ss_quantity > 90",
        "select count(*) from store_sales",
        "select i_category, count(*) from item group by i_category \
         order by count(*) desc limit 5",
        "select c_first_name from customer where c_customer_sk = 17",
        "select d_year, count(*) from store_sales, date_dim \
         where ss_sold_date_sk = d_date_sk group by d_year",
    ] {
        let analyzed = t.explain_analyze(sql).expect(sql);
        let executed: Vec<_> = analyzed.nodes.iter().filter(|n| n.executed).collect();
        assert!(!executed.is_empty(), "{sql}: nothing executed");
        for n in executed {
            assert_ne!(n.route, RoutePath::Unset, "{sql}: {} has no route", n.op);
            if n.route != RoutePath::Columnar && n.route != RoutePath::Index {
                assert!(
                    n.fallback.is_some(),
                    "{sql}: {} took {:?} without a reason code",
                    n.op,
                    n.route
                );
            }
        }
    }
}

#[test]
fn maintenance_refreshes_statistics() {
    let t = load(0.01);
    let db = t.database();
    let before = db.table("store_sales").expect("table").stats();
    assert_eq!(
        before.rows,
        db.row_count("store_sales") as u64,
        "load-time stats must describe the loaded population"
    );

    // The refresh run bulk-deletes a date range and inserts new facts, so
    // the population — and with it the estimates — must change. Table
    // handles are frozen snapshot versions, so re-fetch from the new head.
    t.run_maintenance(1).expect("maintenance");
    let after = db.table("store_sales").expect("table").stats();
    assert!(
        !std::sync::Arc::ptr_eq(&before, &after),
        "stats refresh after data maintenance was skipped"
    );
    assert_eq!(
        after.rows,
        db.row_count("store_sales") as u64,
        "post-DM stats must describe the new population"
    );
    assert_ne!(
        before.rows, after.rows,
        "DM changed the table but not the statistics"
    );

    // And the estimator sees the change: the same unfiltered scan now
    // carries a different est_rows annotation.
    let explain = |t: &TpcDs| {
        t.explain("select ss_item_sk from store_sales")
            .expect("explain")
    };
    let text = explain(&t);
    assert!(
        text.contains(&format!("est_rows={}", after.rows)),
        "estimates don't track the refreshed stats:\n{text}"
    );
}
