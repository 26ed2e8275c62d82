//! Regenerates the golden answer fingerprints used by the
//! `golden_answers` integration test:
//!
//! ```sh
//! cargo run --release -p tpcds-bench --example make_golden > tests/golden_answers_sf001.txt
//! ```

use tpcds_core::engine::{query_analyze_with, ExecOptions};
use tpcds_core::runner::validation::fingerprint;
use tpcds_core::TpcDs;

fn main() {
    let tpcds = TpcDs::builder()
        .scale_factor(0.01)
        .reporting_aux(true)
        .build()
        .expect("load");
    println!("# query rows hash max-node-qerr — SF 0.01, seed 19620718, stream 0");
    for id in 1..=99u32 {
        let sql = tpcds.benchmark_sql(id, 0).expect("instantiate");
        let analyzed = query_analyze_with(tpcds.database(), &sql, ExecOptions::default())
            .unwrap_or_else(|e| panic!("q{id}: {e}"));
        let fp = fingerprint(&analyzed.result);
        let max_qerr = (analyzed.nodes.iter().filter_map(|n| n.qerr)).fold(0.0, f64::max);
        println!("{id} {} {:016x} {max_qerr:.2}", fp.rows, fp.hash);
    }
}
