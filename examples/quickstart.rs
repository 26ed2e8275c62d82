//! Quickstart: generate a miniature TPC-DS data set, load it into the
//! bundled engine, and run a benchmark query.
//!
//! ```sh
//! cargo run --release --example quickstart
//! ```

use tpcds_core::TpcDs;

fn main() {
    // A "virtual" scale factor of 0.02 (~20 MB of raw data) keeps this
    // instant; the same API scales to the paper's published scale factors.
    let tpcds = TpcDs::builder()
        .scale_factor(0.02)
        .build()
        .expect("generate + load");

    println!("Loaded tables:");
    for t in tpcds.generator().schema().tables() {
        println!(
            "  {:<24} {:>8} rows",
            t.name,
            tpcds.database().row_count(t.name)
        );
    }

    // Query 52 — the paper's Figure 6 ad-hoc example.
    let sql = tpcds.benchmark_sql(52, 0).expect("template");
    println!("\nQuery 52 (ad-hoc, store channel):\n{sql}\n");
    let result = tpcds.run_benchmark_query(52, 0).expect("execute");
    println!("{}", result.to_table(10));

    // Ad-hoc SQL works too.
    let result = tpcds
        .query(
            "select i_category, count(*) items, avg(i_current_price) avg_price
             from item group by i_category order by i_category",
        )
        .expect("execute");
    println!("Item hierarchy summary:\n{}", result.to_table(12));
}
