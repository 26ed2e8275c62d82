//! # tpcds-obs
//!
//! Structured observability for the TPC-DS reproduction, std-only by
//! construction (the build resolves no third-party crates).
//!
//! The paper's execution rules (§5, Figure 11) define the QphDS metric
//! entirely from measured intervals. Those intervals live in the
//! benchmark's own records (`BenchmarkResult`, `MaintenanceReport`, the
//! engine's query log); this crate aggregates the work inside them into
//! one live registry:
//!
//! * [`counter`] adds a named quantity to the [`metrics`] registry under
//!   `layer.name`;
//! * [`span`] times an interval and, when it drops, records the duration
//!   into the `layer.name_us` histogram.
//!
//! Both are a single relaxed atomic load while the registry is off, so
//! instrumented code needs no feature gates.
//!
//! The supporting modules:
//!
//! * [`hist`] — log-bucketed latency histograms with lock-free sharded
//!   recording and commutative merge;
//! * [`mem`] — a counting global-allocator wrapper (live/peak bytes) with
//!   scoped watermarks for per-operator `mem_peak=`;
//! * [`metrics`] — the registry of counters, gauges and histograms,
//!   served as Prometheus text over a std-only HTTP endpoint;
//! * [`qlog`] — a fixed-capacity concurrent ring buffer of per-query
//!   records (the backing store of the engine's `sys.query_log` virtual
//!   table), plus the query identity the server passes to the engine;
//! * [`json`] — the JSON codec every machine-readable surface (and the
//!   server's wire protocol) uses.
//!
//! ## Counter naming
//!
//! Counter and metric names follow a documented `layer.name` scheme: the
//! `layer` is the emitting crate (`engine`, `snapshot`, `dgen`, `maint`,
//! `runner`, `server`) and `name` is a dot-separated path grouping related
//! metrics — `kernel.rows_in`, `route.columnar`, `gen.rows`. The storage
//! kernels emit nothing: the engine adds what they return to the registry
//! once per statement. See `docs/OBSERVABILITY.md`.

#![warn(missing_docs)]

pub mod hist;
pub mod json;
pub mod mem;
pub mod metrics;
pub mod ndv;
pub mod qlog;

use std::time::Instant;

/// Adds `value` to the registry counter `layer.name`. No-op while the
/// registry is off.
pub fn counter(layer: &'static str, name: &str, value: f64) {
    if metrics::is_enabled() {
        metrics::counter_add(&format!("{layer}.{name}"), value);
    }
}

/// Starts a span; when it drops (or at [`SpanGuard::finish`]) its
/// duration goes into the registry histogram `layer.name_us`. No-op while
/// the registry is off.
pub fn span(layer: &'static str, name: &'static str) -> SpanGuard {
    SpanGuard {
        layer,
        name,
        start: metrics::is_enabled().then(Instant::now),
    }
}

/// An in-flight span.
pub struct SpanGuard {
    layer: &'static str,
    name: &'static str,
    start: Option<Instant>,
}

impl SpanGuard {
    /// Ends the span now (equivalent to dropping it).
    pub fn finish(self) {}
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        if let Some(start) = self.start {
            metrics::observe(
                &format!("{}.{}_us", self.layer, self.name),
                start.elapsed().as_micros() as u64,
            );
        }
    }
}

#[cfg(test)]
pub(crate) fn test_lock() -> std::sync::MutexGuard<'static, ()> {
    // The registry is global; tests that enable it serialize on this.
    static LOCK: std::sync::Mutex<()> = std::sync::Mutex::new(());
    LOCK.lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_and_spans_feed_only_an_enabled_registry() {
        let _guard = test_lock();
        metrics::reset();
        counter("test", "dropped", 5.0);
        span("test", "dropped").finish();
        metrics::enable();
        counter("test", "rows", 40.0);
        counter("test", "rows", 2.0);
        span("test", "phase").finish();
        let counters = metrics::counters_snapshot();
        assert_eq!(counters, vec![("test.rows".to_string(), 42)]);
        let hists = metrics::histograms_snapshot();
        assert_eq!(hists.len(), 1);
        assert_eq!(hists[0].0, "test.phase_us");
        assert_eq!(hists[0].1.count, 1);
        metrics::reset();
    }
}
