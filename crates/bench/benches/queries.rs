//! Microbenchmarks of query execution: representative queries from each
//! class (the paper's Figures 6 & 7 among them).

use tpcds_bench::harness::bench;
use tpcds_core::TpcDs;

fn main() {
    let tpcds = TpcDs::builder()
        .scale_factor(0.01)
        .reporting_aux(true)
        .build()
        .expect("load");
    // One per class: 52 ad-hoc (Fig 6), 20 reporting (Fig 7), 5 hybrid
    // rollup, 96 point-ish count, 98 windowed store report.
    for id in [52u32, 20, 5, 96, 98] {
        let sql = tpcds.benchmark_sql(id, 0).expect("template");
        bench(&format!("queries/q{id}"), 10, || {
            tpcds.query(&sql).expect("query");
        });
    }
}
