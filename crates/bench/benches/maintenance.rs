//! Microbenchmarks of the data maintenance operations (Figures 8-10):
//! dimension updates, fact inserts with surrogate resolution, and the
//! clustered delete; then `maint/refresh_sets`, whole refresh sets back to
//! back on one SF 0.2 database.
//!
//! `cargo bench --bench maintenance -- refresh_sets` runs only the
//! benchmarks whose name contains the argument; `--sets N` runs N refresh
//! sets instead of 200 (`-- refresh_sets --sets 700`: about what one
//! 16 s `dm_mixed` run commits).

use std::time::{Duration, Instant};
use tpcds_bench::harness::bench_with_setup;
use tpcds_core::obs::mem;
use tpcds_core::{maint, storage, TpcDs};

/// Counts live heap bytes, which `maint/refresh_sets` reports.
#[global_allocator]
static ALLOC: mem::CountingAlloc = mem::CountingAlloc;

fn load() -> TpcDs {
    TpcDs::builder().scale_factor(0.01).build().expect("load")
}

/// Refresh sets `maint/refresh_sets` runs, one after another, unless
/// `--sets N` says otherwise.
const SETS: u32 = 200;

/// Sets per window of the per-window medians.
const WINDOW: usize = 100;

/// The tables whose segments `maint/refresh_sets` reports: the largest
/// dimension refresh sets update, and the fact tables they append to.
const REPORTED: [&str; 7] = [
    "customer",
    "store_sales",
    "store_returns",
    "catalog_sales",
    "catalog_returns",
    "web_sales",
    "web_returns",
];

/// The exact median of `times`, in milliseconds.
fn median_ms(times: &[Duration]) -> f64 {
    let mut times = times.to_vec();
    times.sort_unstable();
    times[times.len() / 2].as_secs_f64() * 1e3
}

/// `sets` consecutive `run_maintenance` sets on one SF 0.2 database at 2
/// workers, as `dm_mixed`'s writer runs them: prints the median set, each
/// operation's median and the mean segments its commit built, the median
/// set of each window of [`WINDOW`] sets, the rows, segments and dead
/// share of each [`REPORTED`] table after the last set, and the live heap
/// then.
fn refresh_sets(sets: u32) {
    storage::set_threads(Some(2));
    let t = TpcDs::builder().scale_factor(0.2).build().expect("load");
    let mut times = Vec::new();
    let mut ops = vec![Vec::new(); maint::OPERATIONS.len()];
    let mut built = vec![0; maint::OPERATIONS.len()];
    for seq in 0..sets {
        let started = Instant::now();
        let report = maint::run_maintenance(t.database(), t.generator(), seq).expect("refresh set");
        times.push(started.elapsed());
        for ((times, built), op) in ops.iter_mut().zip(&mut built).zip(&report.ops) {
            times.push(op.elapsed);
            *built += op.commit.segments_rebuilt;
        }
    }
    storage::set_threads(None);
    println!(
        "{:<44} n={sets:<3} p50={:>11.3}ms",
        "maint/refresh_sets",
        median_ms(&times)
    );
    for ((name, times), built) in maint::OPERATIONS.iter().zip(ops).zip(built) {
        println!(
            "  {name:<42} p50={:>11.3}ms segments_rebuilt={:.2}",
            median_ms(&times),
            built as f64 / sets as f64
        );
    }
    for (w, window) in times.chunks(WINDOW).enumerate() {
        let sets = format!("sets {}-{}", w * WINDOW + 1, w * WINDOW + window.len());
        println!("  {sets:<42} p50={:>11.3}ms", median_ms(window));
    }
    for table in REPORTED {
        let data = t.database().table(table).expect("maintained table");
        let (rows, segments) = (data.data().rows, &data.data().segments);
        let stored: usize = segments.iter().map(|s| s.rows).sum();
        let dead = 100.0 * (stored - rows) as f64 / stored.max(1) as f64;
        println!(
            "  {table:<42} {rows} rows in {} segments, {dead:.1} % dead",
            segments.len()
        );
    }
    println!(
        "  {:<42} {}",
        "live heap after the sets",
        mem::fmt_bytes(mem::live_bytes())
    );
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let sets = match args.iter().position(|a| a == "--sets") {
        Some(i) => args
            .get(i + 1)
            .and_then(|n| n.parse().ok())
            .expect("--sets N"),
        None => SETS,
    };
    let filter = (args.iter().enumerate())
        .find(|&(i, a)| !a.starts_with('-') && (i == 0 || args[i - 1] != "--sets"))
        .map(|(_, a)| a.as_str());
    let wanted = |name: &str| filter.is_none_or(|f| name.contains(f));
    if wanted("maint/fig8_non_history_update") {
        bench_with_setup("maint/fig8_non_history_update", 10, load, |t| {
            maint::update_non_history_dimension(t.database(), t.generator(), "customer", 0)
                .expect("fig8");
        });
    }
    if wanted("maint/fig9_history_update") {
        bench_with_setup("maint/fig9_history_update", 10, load, |t| {
            let when = maint::refresh_date(t.generator(), 0);
            maint::update_history_dimension(t.database(), t.generator(), "item", 0, when)
                .expect("fig9");
        });
    }
    if wanted("maint/fig10_fact_insert") {
        bench_with_setup("maint/fig10_fact_insert", 10, load, |t| {
            maint::insert_channel(
                t.database(),
                t.generator(),
                "insert_store_channel",
                &["store_sales", "store_returns"],
                0,
            )
            .expect("fig10");
        });
    }
    if wanted("maint/clustered_delete") {
        bench_with_setup("maint/clustered_delete", 10, load, |t| {
            maint::delete_fact_range(t.database(), t.generator(), 0).expect("delete");
        });
    }
    if wanted("maint/refresh_sets") {
        refresh_sets(sets);
    }
}
