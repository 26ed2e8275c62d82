//! A small wall-clock micro-benchmark harness.
//!
//! Criterion cannot be resolved in the offline build environment, so the
//! `cargo bench` targets run on this ~80-line stand-in: fixed iteration
//! counts, warmup, and p50/p95 summaries via [`LatencyStats`]. It is
//! deliberately simple — the numbers feed trend tracking, not statistics
//! papers.

use std::time::Instant;
use tpcds_obs::hist::LatencyStats;

/// One benchmark's measured distribution.
#[derive(Debug, Clone)]
pub struct BenchResult {
    /// Benchmark name.
    pub name: String,
    /// Latency summary over the measured iterations (microseconds).
    pub stats: LatencyStats,
}

impl std::fmt::Display for BenchResult {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let s = &self.stats;
        write!(
            f,
            "{:<44} n={:<3} p50={:>11.3}ms p95={:>11.3}ms max={:>11.3}ms",
            self.name,
            s.count,
            s.p50_us as f64 / 1e3,
            s.p95_us as f64 / 1e3,
            s.max_us as f64 / 1e3,
        )
    }
}

/// Times `f` for `iters` iterations after one warmup call, printing and
/// returning the summary.
pub fn bench(name: &str, iters: usize, mut f: impl FnMut()) -> BenchResult {
    f(); // warmup
    let mut durs = Vec::with_capacity(iters);
    for _ in 0..iters {
        let t = Instant::now();
        f();
        durs.push(t.elapsed().as_micros() as u64);
    }
    let result = BenchResult {
        name: name.to_string(),
        stats: LatencyStats::from_durations_us(durs),
    };
    println!("{result}");
    result
}

/// Like [`bench`] but with untimed per-iteration setup (fresh state for
/// mutating workloads).
pub fn bench_with_setup<T>(
    name: &str,
    iters: usize,
    mut setup: impl FnMut() -> T,
    mut f: impl FnMut(T),
) -> BenchResult {
    f(setup()); // warmup
    let mut durs = Vec::with_capacity(iters);
    for _ in 0..iters {
        let input = setup();
        let t = Instant::now();
        f(input);
        durs.push(t.elapsed().as_micros() as u64);
    }
    let result = BenchResult {
        name: name.to_string(),
        stats: LatencyStats::from_durations_us(durs),
    };
    println!("{result}");
    result
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bench_measures_and_summarizes() {
        let mut calls = 0;
        let r = bench("noop", 5, || calls += 1);
        assert_eq!(calls, 6, "warmup + 5 measured");
        assert_eq!(r.stats.count, 5);
        assert!(r.stats.p50_us <= r.stats.max_us);
    }

    #[test]
    fn setup_is_untimed_but_runs_per_iteration() {
        let mut setups = 0;
        let r = bench_with_setup("s", 3, || setups += 1, |_| {});
        assert_eq!(setups, 4);
        assert_eq!(r.stats.count, 3);
    }
}
