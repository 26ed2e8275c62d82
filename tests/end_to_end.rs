//! Integration: the full Figure 11 benchmark flow — load, query run,
//! maintenance, query run — across all crates, plus metric sanity.

use tpcds_core::runner::{self, AuxLevel, BenchmarkConfig};
use tpcds_core::TpcDs;

#[test]
fn benchmark_flow_produces_consistent_metrics() {
    let config = BenchmarkConfig {
        scale_factor: 0.01,
        seed: tpcds_core::types::rng::DEFAULT_SEED,
        streams: Some(3),
        queries_per_stream: Some(8),
        aux: AuxLevel::Reporting,
        threads: None,
        via_server: false,
    };
    let result = runner::run_benchmark(config).expect("benchmark");
    assert_eq!(result.query_timings.len(), 2 * 3 * 8);
    // Every query produced a timing with non-zero elapsed.
    assert!(result
        .query_timings
        .iter()
        .all(|t| t.elapsed.as_nanos() > 0));
    let q = result.qphds();
    assert!(q.is_finite() && q > 0.0);
    // The database is usable after the benchmark (post-maintenance state).
    let r = tpcds_core::engine::query(&result.db, "select count(*) from item").unwrap();
    assert!(r.rows[0][0].as_int().unwrap() > 0);
}

#[test]
fn queries_survive_data_maintenance() {
    // The second query run "reveals any query performance changes due to
    // maintenance" — functionally, queries must still answer correctly.
    let tpcds = TpcDs::builder().scale_factor(0.01).build().expect("load");
    let before = tpcds
        .query("select count(*) c from store_sales")
        .unwrap()
        .rows[0][0]
        .as_int()
        .unwrap();
    let report = tpcds.run_maintenance(0).expect("maintenance");
    let after = tpcds
        .query("select count(*) c from store_sales")
        .unwrap()
        .rows[0][0]
        .as_int()
        .unwrap();
    let inserted: usize = report
        .ops
        .iter()
        .filter(|o| o.name == "insert_store_channel")
        .map(|o| o.inserted)
        .sum();
    assert!(inserted > 0);
    assert_ne!(before, after, "maintenance must visibly change fact data");

    // Re-run a benchmark query; it must still execute.
    let r = tpcds
        .run_benchmark_query(52, 3)
        .expect("q52 after maintenance");
    let _ = r.rows.len();
}

#[test]
fn surrogate_keys_stay_unique_after_maintenance() {
    let tpcds = TpcDs::builder().scale_factor(0.01).build().expect("load");
    tpcds.run_maintenance(0).expect("maintenance");
    for table in ["item", "store", "call_center", "web_site"] {
        let sql = format!(
            "select cnt from (select {0}, count(*) cnt from {1} group by {0}) x where cnt > 1",
            tpcds.generator().schema().table(table).unwrap().primary_key[0],
            table
        );
        let r = tpcds.query(&sql).expect("pk check");
        assert!(r.rows.is_empty(), "{table} has duplicate surrogate keys");
    }
}

#[test]
fn min_streams_enforced_shape() {
    // Larger scale factors must never require fewer streams.
    let mut prev = 0;
    for sf in [
        0.01, 1.0, 100.0, 300.0, 1000.0, 3000.0, 10_000.0, 30_000.0, 100_000.0,
    ] {
        let s = tpcds_core::min_streams(sf);
        assert!(s >= prev, "min streams decreased at SF {sf}");
        prev = s;
    }
}
