//! dsdgen-style flat-file export: generate the 24 tables in parallel,
//! write them as pipe-delimited `.dat` files, read them back, and verify
//! the round trip — the "E" of ETL that the benchmark assumes as
//! generated flat files (paper §4.2).
//!
//! ```sh
//! cargo run --release --example data_export [scale_factor] [out_dir]
//! ```

use tpcds_core::dgen::{flatfile, Generator};
use tpcds_core::schema::Schema;

fn main() {
    let mut args = std::env::args().skip(1);
    let sf: f64 = args
        .next()
        .map(|s| s.parse().expect("scale factor"))
        .unwrap_or(0.01);
    let dir = std::path::PathBuf::from(
        args.next()
            .unwrap_or_else(|| "target/tpcds_data".to_string()),
    );

    let generator = Generator::new(sf);
    let schema = Schema::tpcds();
    println!("Generating TPC-DS at SF {sf} into {}", dir.display());

    let mut total_rows = 0u64;
    let mut total_bytes = 0u64;
    for t in schema.tables() {
        let rows = generator.generate_parallel(t.name, 4);
        flatfile::write_table(&dir, t.name, &rows).expect("write");
        let bytes = std::fs::metadata(dir.join(format!("{}.dat", t.name)))
            .expect("stat")
            .len();
        println!(
            "  {:<24} {:>9} rows  {:>12} bytes  ({:>5.1} B/row avg)",
            t.name,
            rows.len(),
            bytes,
            bytes as f64 / rows.len().max(1) as f64
        );
        total_rows += rows.len() as u64;
        total_bytes += bytes;

        // Round-trip validation.
        let back = flatfile::read_table(&dir, t).expect("read");
        assert_eq!(rows, back, "{} does not round-trip", t.name);
    }
    println!("\nTotal: {total_rows} rows, {total_bytes} bytes — all tables verified round-trip.");
}
