//! Integration: the flat-file ETL pipeline across crates — generate,
//! export, re-import, load into the engine, and confirm queries see
//! identical data as a direct in-memory load.

use tpcds_core::dgen::{flatfile, Generator};
use tpcds_core::engine::{self, Database};
use tpcds_core::schema::Schema;

#[test]
fn flat_file_load_equals_direct_load() {
    let g = Generator::new(0.005);
    let schema = Schema::tpcds();
    let dir = std::env::temp_dir().join(format!("tpcds_ff_{}", std::process::id()));

    // Direct load.
    let direct = Database::new();
    tpcds_core::maint::load_initial_population(&direct, &g).unwrap();

    // Flat-file round trip load.
    let via_files = Database::new();
    let mut txn = via_files.begin();
    engine::create_tpcds_tables(&mut txn, &schema).unwrap();
    txn.commit();
    for t in schema.tables() {
        let rows = g.generate(t.name);
        flatfile::write_table(&dir, t.name, &rows).unwrap();
        let back = flatfile::read_table(&dir, t).unwrap();
        via_files.insert(t.name, back).unwrap();
    }

    // Aggregates over every fact table must agree exactly.
    for sql in [
        "select count(*), sum(ss_quantity), sum(ss_net_paid) from store_sales",
        "select count(*), sum(cs_quantity), sum(cs_net_profit) from catalog_sales",
        "select count(*), sum(ws_quantity) from web_sales",
        "select count(*), sum(sr_return_amt) from store_returns",
        "select count(*), sum(inv_quantity_on_hand) from inventory",
        "select count(*), count(distinct c_customer_id) from customer",
    ] {
        let a = engine::query(&direct, sql).unwrap();
        let b = engine::query(&via_files, sql).unwrap();
        assert_eq!(a.rows, b.rows, "{sql}");
    }
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn engine_results_are_deterministic_across_runs() {
    // The same query against the same data set twice gives identical
    // results — the repeatability the benchmark's comparability needs.
    let t = tpcds_core::TpcDs::builder()
        .scale_factor(0.005)
        .build()
        .unwrap();
    for id in [3u32, 7, 20, 42, 52, 55, 96, 98] {
        let a = t.run_benchmark_query(id, 0).unwrap();
        let b = t.run_benchmark_query(id, 0).unwrap();
        assert_eq!(a.rows, b.rows, "q{id} unstable");
    }
}
