//! A complete miniature benchmark test: load test, query run 1, data
//! maintenance run, query run 2 (the paper's Figure 11), scored with
//! QphDS@SF and $/QphDS.
//!
//! ```sh
//! cargo run --release --example full_benchmark
//! ```

use tpcds_core::runner::{self, AuxLevel, BenchmarkConfig, PriceModel};

fn main() {
    let config = BenchmarkConfig {
        scale_factor: 0.02,
        seed: tpcds_core::types::rng::DEFAULT_SEED,
        streams: Some(3), // the Figure 12 minimum for small scale factors
        queries_per_stream: Some(25),
        aux: AuxLevel::Reporting,
        threads: None,
        via_server: false,
    };
    println!(
        "Running benchmark: SF {}, {} streams, {} queries/stream",
        config.scale_factor,
        config.streams.unwrap(),
        config.queries_per_stream.unwrap()
    );

    let result = runner::run_benchmark(config).expect("benchmark");

    println!("\nPhase timings (Figure 11 execution order):");
    println!("  load test          {:>10.3?}", result.t_load);
    println!("  query run 1        {:>10.3?}", result.t_qr1);
    println!("  data maintenance   {:>10.3?}", result.t_dm);
    println!("  query run 2        {:>10.3?}", result.t_qr2);

    println!("\nData maintenance operations:");
    for op in &result.maintenance.ops {
        println!(
            "  {:<24} updated {:>6}  inserted {:>6}  deleted {:>6}",
            op.name, op.updated, op.inserted, op.deleted
        );
    }

    let mut slowest = result.query_timings.clone();
    slowest.sort_by_key(|t| std::cmp::Reverse(t.elapsed));
    println!("\nSlowest queries:");
    for t in slowest.iter().take(5) {
        println!(
            "  q{:<3} stream {}  {:>10.3?}  ({} rows)",
            t.query, t.stream, t.elapsed, t.rows
        );
    }

    let qphds = result.qphds();
    let price = PriceModel::default();
    let dollars =
        runner::price_performance(&price, result.config.scale_factor, result.streams, qphds);
    println!("\nQphDS@{}      = {:.1}", result.config.scale_factor, qphds);
    println!("$/QphDS@{}    = {:.4}", result.config.scale_factor, dollars);
    println!(
        "(3-year TCO under the synthetic price model: ${:.0})",
        price.tco(result.config.scale_factor, result.streams)
    );
}
