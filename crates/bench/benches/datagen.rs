//! Microbenchmarks of the data generator: per-table row synthesis
//! throughput, serial vs parallel generation, flat-file serialization;
//! then `datagen/load`, the SF 0.2 bulk load at 1 and 2 workers, and
//! `datagen/fold`, the statistics fold per buffer type.
//!
//! `cargo bench --bench datagen -- load` runs only the benchmarks whose
//! name contains the argument; `-- load/sf0.2/2` runs the 2-worker loads
//! alone, so that the first of them is the process's first load.

use std::time::Instant;
use tpcds_bench::harness::bench;
use tpcds_core::obs::metrics;
use tpcds_core::storage::{self, segment_stats, ColumnTable, SEGMENT_ROWS};
use tpcds_core::types::{DataType, Date, Decimal, Value};
use tpcds_core::{maint, Database, Generator};

/// Loads `datagen/load` runs per worker count.
const LOADS: usize = 6;

/// Folds `datagen/fold` times per column.
const FOLDS: usize = 30;

/// The median of `xs`.
fn median(mut xs: Vec<f64>) -> f64 {
    xs.sort_by(f64::total_cmp);
    xs[xs.len() / 2]
}

/// [`LOADS`] in-process SF 0.2 loads at each worker count `wanted`:
/// prints the first load's wall time (cold: the process's first, when the
/// 1-worker loads are not wanted), the median of the others, and their
/// median busy time generating segments and folding their statistics
/// (`maint.load.generate_us` / `stats_us`, summed over the workers).
fn load(wanted: impl Fn(&str) -> bool) {
    let g = Generator::new(0.2);
    for workers in [1, 2] {
        let name = format!("datagen/load/sf0.2/{workers}");
        if !wanted(&name) {
            continue;
        }
        storage::set_threads(Some(workers));
        let (mut wall, mut generate, mut stats) = (Vec::new(), Vec::new(), Vec::new());
        for _ in 0..LOADS {
            metrics::reset();
            metrics::enable();
            let started = Instant::now();
            maint::load_initial_population(&Database::new(), &g).expect("load");
            wall.push(started.elapsed().as_secs_f64() * 1e3);
            let counters = metrics::counters_snapshot();
            let busy = |name: &str| {
                let us = counters.iter().find(|(n, _)| n == name).map_or(0, |c| c.1);
                us as f64 / 1e3
            };
            generate.push(busy("maint.load.generate_us"));
            stats.push(busy("maint.load.stats_us"));
        }
        let cold = wall.remove(0);
        println!(
            "{name:<44} n={LOADS:<3} first={cold:.1}ms p50={:.1}ms generate={:.1}ms stats={:.1}ms",
            median(wall),
            median(generate[1..].to_vec()),
            median(stats[1..].to_vec()),
        );
    }
    metrics::disable();
    storage::set_threads(None);
}

/// ns per cell of `segment_stats` over one full segment of each buffer
/// type: every cell one of 100 values (low NDV) or distinct (high NDV).
fn fold() {
    let cell = |dtype: DataType, v: i64| match dtype {
        DataType::Int => Value::Int(v),
        DataType::Decimal => Value::Decimal(Decimal::new(v as i128 * 7, 2)),
        DataType::Date => Value::Date(Date::from_day_number(v as i32)),
        _ => Value::str(format!("AAAAAAAA{v:08}")),
    };
    for dtype in [
        DataType::Int,
        DataType::Decimal,
        DataType::Date,
        DataType::Str,
    ] {
        for (ndv, distinct) in [("low", 100), ("high", SEGMENT_ROWS)] {
            let rows: Vec<Vec<Value>> = (0..SEGMENT_ROWS)
                .map(|i| vec![cell(dtype, ((i * 7_919) % distinct) as i64)])
                .collect();
            let t = ColumnTable::from_rows(vec![dtype], &rows);
            let times: Vec<f64> = (0..FOLDS)
                .map(|_| {
                    let started = Instant::now();
                    std::hint::black_box(segment_stats(&t.segments[0]));
                    started.elapsed().as_secs_f64() * 1e9 / SEGMENT_ROWS as f64
                })
                .collect();
            let name = format!("datagen/fold/{dtype}/{ndv}");
            println!("{name:<44} n={FOLDS:<3} p50={:>8.1} ns/cell", median(times));
        }
    }
}

fn main() {
    let filter = std::env::args().skip(1).find(|a| !a.starts_with('-'));
    let wanted = |name: &str| filter.as_deref().is_none_or(|f| name.contains(f));
    let g = Generator::new(0.01);
    for table in ["store_sales", "customer", "item", "date_dim", "inventory"] {
        let rows = g.row_count(table).min(5_000);
        let name = format!("datagen/table/{table} ({rows} rows)");
        if wanted(&name) {
            bench(&name, 10, || {
                g.generate_range(table, 0, rows);
            });
        }
    }

    let g2 = Generator::new(0.02);
    for threads in [1usize, 2, 4] {
        let name = format!("datagen/parallel_store_sales/{threads}");
        if wanted(&name) {
            bench(&name, 10, || {
                g2.generate_parallel("store_sales", threads);
            });
        }
    }

    if wanted("datagen/flatfile_write_customer") {
        let rows = g.generate("customer");
        bench("datagen/flatfile_write_customer", 10, || {
            let mut buf = Vec::new();
            tpcds_core::dgen::flatfile::write_rows(&mut buf, &rows).unwrap();
        });
    }
    load(wanted);
    if wanted("datagen/fold") {
        fold();
    }
}
