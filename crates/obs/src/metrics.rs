//! Live metrics: a process-wide registry of named counters and
//! [histograms](crate::hist), rendered as Prometheus text exposition and
//! optionally served over a std-only HTTP endpoint mid-run.
//!
//! Metric names follow the repository's `layer.name` scheme (see
//! `docs/OBSERVABILITY.md`): the emitting layer, a dot, then a
//! dot-separated metric path — `engine.kernel.rows_in`,
//! `engine.route.columnar`, `runner.query_us`. [`crate::counter`] and [`crate::span`] feed it while
//! it is enabled; it is the only sink they have.
//!
//! The registry is **off by default**: recording functions are a single
//! relaxed atomic load until [`enable`] (or [`serve`], which implies it)
//! turns accumulation on.

use crate::hist::Histogram;
use crate::json::Json;
use std::collections::BTreeMap;
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicI64, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock, PoisonError};

static ENABLED: AtomicBool = AtomicBool::new(false);

struct Registry {
    counters: Mutex<BTreeMap<String, Arc<AtomicU64>>>,
    gauges: Mutex<BTreeMap<String, Arc<AtomicI64>>>,
    hists: Mutex<BTreeMap<String, Arc<Histogram>>>,
}

fn registry() -> &'static Registry {
    static REGISTRY: OnceLock<Registry> = OnceLock::new();
    REGISTRY.get_or_init(|| Registry {
        counters: Mutex::new(BTreeMap::new()),
        gauges: Mutex::new(BTreeMap::new()),
        hists: Mutex::new(BTreeMap::new()),
    })
}

/// Turns metric accumulation on.
pub fn enable() {
    ENABLED.store(true, Ordering::Relaxed);
}

/// Turns accumulation back off, keeping registered metrics (unlike
/// [`reset`]) — the observer-overhead benchmark toggles this.
pub fn disable() {
    ENABLED.store(false, Ordering::Relaxed);
}

/// Whether the registry is accumulating.
pub fn is_enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

/// Disables accumulation and drops all registered metrics (tests).
pub fn reset() {
    ENABLED.store(false, Ordering::Relaxed);
    let r = registry();
    r.counters
        .lock()
        .unwrap_or_else(PoisonError::into_inner)
        .clear();
    r.gauges
        .lock()
        .unwrap_or_else(PoisonError::into_inner)
        .clear();
    r.hists
        .lock()
        .unwrap_or_else(PoisonError::into_inner)
        .clear();
}

/// Adds `v` (rounded) to the named counter. No-op while disabled.
pub fn counter_add(name: &str, v: f64) {
    if !is_enabled() || v <= 0.0 || v.is_nan() {
        return;
    }
    let cell = {
        let mut map = registry()
            .counters
            .lock()
            .unwrap_or_else(PoisonError::into_inner);
        match map.get(name) {
            Some(c) => c.clone(),
            None => {
                let c = Arc::new(AtomicU64::new(0));
                map.insert(name.to_string(), c.clone());
                c
            }
        }
    };
    cell.fetch_add(v.round() as u64, Ordering::Relaxed);
}

/// The named gauge cell, registering it on first use. Gauges carry
/// point-in-time levels (sessions active, queries in flight, published
/// snapshot version) rather than monotone totals, so they may go down.
pub fn gauge(name: &str) -> Arc<AtomicI64> {
    let mut map = registry()
        .gauges
        .lock()
        .unwrap_or_else(PoisonError::into_inner);
    match map.get(name) {
        Some(g) => g.clone(),
        None => {
            let g = Arc::new(AtomicI64::new(0));
            map.insert(name.to_string(), g.clone());
            g
        }
    }
}

/// Sets the named gauge to `v`. No-op while disabled.
pub fn gauge_set(name: &str, v: i64) {
    if is_enabled() {
        gauge(name).store(v, Ordering::Relaxed);
    }
}

/// Adds `delta` (may be negative) to the named gauge. No-op while disabled.
pub fn gauge_add(name: &str, delta: i64) {
    if is_enabled() {
        gauge(name).fetch_add(delta, Ordering::Relaxed);
    }
}

/// The named histogram, registering it on first use. The `Arc` may be
/// cached by hot paths to skip the registry lookup.
pub fn histogram(name: &str) -> Arc<Histogram> {
    let mut map = registry()
        .hists
        .lock()
        .unwrap_or_else(PoisonError::into_inner);
    match map.get(name) {
        Some(h) => h.clone(),
        None => {
            let h = Arc::new(Histogram::new());
            map.insert(name.to_string(), h.clone());
            h
        }
    }
}

/// Records one sample into the named histogram. No-op while disabled.
pub fn observe(name: &str, v: u64) {
    if is_enabled() {
        histogram(name).record(v);
    }
}

/// A Prometheus-safe metric name: `tpcds_` + the `layer.name` with every
/// non-alphanumeric character folded to `_`.
fn prom_name(name: &str) -> String {
    let mut out = String::with_capacity(name.len() + 6);
    out.push_str("tpcds_");
    for c in name.chars() {
        out.push(if c.is_ascii_alphanumeric() { c } else { '_' });
    }
    out
}

/// Every registered counter as `(name, value)`, sorted by name.
pub fn counters_snapshot() -> Vec<(String, u64)> {
    registry()
        .counters
        .lock()
        .unwrap_or_else(PoisonError::into_inner)
        .iter()
        .map(|(k, v)| (k.clone(), v.load(Ordering::Relaxed)))
        .collect()
}

/// Every registered gauge as `(name, value)`, sorted by name.
pub fn gauges_snapshot() -> Vec<(String, i64)> {
    registry()
        .gauges
        .lock()
        .unwrap_or_else(PoisonError::into_inner)
        .iter()
        .map(|(k, v)| (k.clone(), v.load(Ordering::Relaxed)))
        .collect()
}

/// A point-in-time snapshot of every registered histogram, sorted by
/// name.
pub fn histograms_snapshot() -> Vec<(String, crate::hist::HistSnapshot)> {
    let hists: Vec<(String, Arc<Histogram>)> = registry()
        .hists
        .lock()
        .unwrap_or_else(PoisonError::into_inner)
        .iter()
        .map(|(k, v)| (k.clone(), v.clone()))
        .collect();
    hists.into_iter().map(|(k, h)| (k, h.snapshot())).collect()
}

/// Renders every registered metric in Prometheus text exposition format
/// (version 0.0.4): counters as `*_total`, histograms with cumulative
/// `_bucket{le=...}` series plus `_sum`/`_count`. Series are sorted by
/// metric name across all three kinds — not grouped by kind — so
/// successive scrapes diff cleanly line-by-line.
pub fn render_prometheus() -> String {
    // (sort key, rendered block) per metric; the per-kind snapshots are
    // each name-sorted already, so one merge-by-key sort is stable.
    let mut blocks: Vec<(String, String)> = Vec::new();
    for (name, v) in counters_snapshot() {
        let p = prom_name(&name);
        blocks.push((
            p.clone(),
            format!("# TYPE {p}_total counter\n{p}_total {v}\n"),
        ));
    }
    for (name, v) in gauges_snapshot() {
        let p = prom_name(&name);
        blocks.push((p.clone(), format!("# TYPE {p} gauge\n{p} {v}\n")));
    }
    for (name, snap) in histograms_snapshot() {
        let p = prom_name(&name);
        let mut b = format!("# TYPE {p} histogram\n");
        let mut cum = 0u64;
        for (bound, count) in snap.nonzero_buckets() {
            cum += count;
            b.push_str(&format!("{p}_bucket{{le=\"{bound}\"}} {cum}\n"));
        }
        b.push_str(&format!("{p}_bucket{{le=\"+Inf\"}} {}\n", snap.count));
        b.push_str(&format!("{p}_sum {}\n", snap.sum));
        b.push_str(&format!("{p}_count {}\n", snap.count));
        blocks.push((p, b));
    }
    blocks.sort_by(|a, b| a.0.cmp(&b.0));
    blocks.into_iter().map(|(_, b)| b).collect()
}

/// Serializes every registered metric as one JSON object (counters as
/// integers, histograms in their sparse form).
pub fn to_json() -> Json {
    let r = registry();
    let counters: Vec<(String, Json)> = r
        .counters
        .lock()
        .unwrap_or_else(PoisonError::into_inner)
        .iter()
        .map(|(k, v)| (k.clone(), Json::Int(v.load(Ordering::Relaxed) as i64)))
        .collect();
    let gauges: Vec<(String, Json)> = r
        .gauges
        .lock()
        .unwrap_or_else(PoisonError::into_inner)
        .iter()
        .map(|(k, v)| (k.clone(), Json::Int(v.load(Ordering::Relaxed))))
        .collect();
    let hists: Vec<(String, Json)> = r
        .hists
        .lock()
        .unwrap_or_else(PoisonError::into_inner)
        .iter()
        .map(|(k, v)| (k.clone(), v.snapshot().to_json()))
        .collect();
    Json::Obj(vec![
        ("counters".into(), Json::Obj(counters)),
        ("gauges".into(), Json::Obj(gauges)),
        ("histograms".into(), Json::Obj(hists)),
    ])
}

fn handle_conn(mut stream: TcpStream) {
    let mut buf = [0u8; 1024];
    let n = stream.read(&mut buf).unwrap_or(0);
    let request = String::from_utf8_lossy(&buf[..n]);
    let path = request
        .lines()
        .next()
        .and_then(|l| l.split_whitespace().nth(1))
        .unwrap_or("/");
    let (status, ctype, body) = if path == "/metrics" || path.starts_with("/metrics?") {
        (
            "200 OK",
            "text/plain; version=0.0.4; charset=utf-8",
            render_prometheus(),
        )
    } else {
        (
            "404 Not Found",
            "text/plain; charset=utf-8",
            "try /metrics\n".to_string(),
        )
    };
    let _ = write!(
        stream,
        "HTTP/1.1 {status}\r\nContent-Type: {ctype}\r\nContent-Length: {}\r\nConnection: close\r\n\r\n{body}",
        body.len()
    );
}

/// Starts the live metrics endpoint on `addr` (e.g. `127.0.0.1:9184`;
/// port 0 picks a free port), enables the registry, and returns the bound
/// address. The accept loop runs on a detached thread and serves
/// `GET /metrics` for the life of the process.
pub fn serve(addr: &str) -> std::io::Result<SocketAddr> {
    let listener = TcpListener::bind(addr)?;
    let local = listener.local_addr()?;
    enable();
    std::thread::Builder::new()
        .name("tpcds-metrics".into())
        .spawn(move || {
            for stream in listener.incoming().flatten() {
                handle_conn(stream);
            }
        })?;
    Ok(local)
}

#[cfg(test)]
mod tests {
    use super::*;

    // The registry is global; tests serialize on the recorder's lock too
    // since obs tests share the process.
    #[test]
    fn registry_accumulates_and_renders_prometheus() {
        let _guard = crate::test_lock();
        reset();
        counter_add("engine.kernel.rows_in", 100.0); // dropped: disabled
        enable();
        counter_add("engine.kernel.rows_in", 40.0);
        counter_add("engine.kernel.rows_in", 2.5);
        observe("runner.query_us", 300);
        observe("runner.query_us", 90_000);
        let text = render_prometheus();
        assert!(
            text.contains("tpcds_engine_kernel_rows_in_total 43"),
            "{text}"
        );
        assert!(text.contains("# TYPE tpcds_runner_query_us histogram"));
        assert!(text.contains("tpcds_runner_query_us_bucket{le=\"+Inf\"} 2"));
        assert!(text.contains("tpcds_runner_query_us_sum 90300"));
        assert!(text.contains("tpcds_runner_query_us_count 2"));
        // Cumulative buckets are non-decreasing.
        let cums: Vec<u64> = text
            .lines()
            .filter(|l| l.starts_with("tpcds_runner_query_us_bucket"))
            .map(|l| l.split_whitespace().last().unwrap().parse().unwrap())
            .collect();
        assert!(cums.windows(2).all(|w| w[0] <= w[1]), "{cums:?}");
        reset();
    }

    #[test]
    fn gauges_move_both_directions_and_render() {
        let _guard = crate::test_lock();
        reset();
        gauge_set("server.sessions_active", 5); // dropped: disabled
        enable();
        gauge_set("server.sessions_active", 3);
        gauge_add("server.sessions_active", 2);
        gauge_add("server.sessions_active", -4);
        let text = render_prometheus();
        assert!(
            text.contains("# TYPE tpcds_server_sessions_active gauge"),
            "{text}"
        );
        assert!(text.contains("tpcds_server_sessions_active 1"), "{text}");
        let json = to_json().to_string();
        assert!(json.contains("\"server.sessions_active\":1"), "{json}");
        reset();
    }

    #[test]
    fn prometheus_output_is_globally_name_sorted() {
        let _guard = crate::test_lock();
        reset();
        enable();
        // Registration order deliberately scrambled and interleaved
        // across kinds: a gauge that sorts first, a histogram in the
        // middle, counters either side.
        counter_add("zz.last_total_ever", 1.0);
        gauge_set("aa.first_gauge", 5);
        observe("mm.middle_hist_us", 42);
        counter_add("mm.aaa_counter", 2.0);
        let text = render_prometheus();
        let heads: Vec<&str> = text
            .lines()
            .filter(|l| l.starts_with("# TYPE "))
            .map(|l| l.split_whitespace().nth(2).unwrap())
            .collect();
        // One block per metric, in one global name order — counters,
        // gauges and histograms interleaved, not grouped by kind.
        let expected = [
            "tpcds_aa_first_gauge",
            "tpcds_mm_aaa_counter_total",
            "tpcds_mm_middle_hist_us",
            "tpcds_zz_last_total_ever_total",
        ];
        assert_eq!(heads, expected, "{text}");
        // Rendering twice diffs clean.
        assert_eq!(text, render_prometheus());
        // The snapshot accessors are name-sorted too.
        let names: Vec<String> = counters_snapshot().into_iter().map(|(n, _)| n).collect();
        let mut sorted = names.clone();
        sorted.sort();
        assert_eq!(names, sorted);
        reset();
    }

    #[test]
    fn metrics_endpoint_serves_prometheus_text() {
        let _guard = crate::test_lock();
        reset();
        let addr = serve("127.0.0.1:0").unwrap();
        counter_add("engine.queries", 7.0);
        let mut stream = TcpStream::connect(addr).unwrap();
        write!(stream, "GET /metrics HTTP/1.1\r\nHost: x\r\n\r\n").unwrap();
        let mut response = String::new();
        stream.read_to_string(&mut response).unwrap();
        assert!(response.starts_with("HTTP/1.1 200 OK"), "{response}");
        assert!(
            response.contains("tpcds_engine_queries_total 7"),
            "{response}"
        );

        // Unknown paths 404.
        let mut stream = TcpStream::connect(addr).unwrap();
        write!(stream, "GET /nope HTTP/1.1\r\nHost: x\r\n\r\n").unwrap();
        let mut response = String::new();
        stream.read_to_string(&mut response).unwrap();
        assert!(response.starts_with("HTTP/1.1 404"), "{response}");
        reset();
    }
}
