//! # tpcds-obs
//!
//! Structured observability for the TPC-DS reproduction, std-only by
//! construction (the build resolves no third-party crates).
//!
//! The paper's execution rules (§5, Figure 11) define the QphDS metric
//! entirely from measured intervals; this crate makes every one of those
//! intervals — and the operator-, table- and operation-level work inside
//! them — a recorded event instead of an opaque stopwatch reading.
//!
//! Three event kinds flow through a global [`Recorder`] into pluggable
//! [`Sink`]s:
//!
//! * **spans** — named intervals with a start offset, a duration and
//!   key/value fields (`runner/query`, `maint/op`, `engine/query`, …);
//! * **counters** — named quantities (`dgen/rows`, `dgen/bytes`, …);
//! * **points** — instantaneous markers (`runner/phase.start`, …).
//!
//! Bundled sinks: a JSON-lines trace file ([`install_jsonl`], one JSON
//! object per event — the schema is documented on [`Event::to_json`]) and
//! a human-readable stderr summary ([`install_stderr_summary`]). The
//! [`report`] module parses a trace file back and renders phase timelines
//! and latency summaries; the [`chrome`] module exports the same trace as
//! a Chrome Trace Event document (one timeline track per morsel worker).
//!
//! Beyond the event stream, the deep-profiling layer adds:
//!
//! * [`hist`] — log-bucketed latency histograms with lock-free sharded
//!   recording and commutative merge;
//! * [`mem`] — a counting global-allocator wrapper (live/peak bytes) with
//!   scoped watermarks for per-operator and per-phase `mem_peak=`;
//! * [`metrics`] — a live registry of counters and histograms served as
//!   Prometheus text over a std-only HTTP endpoint. While the registry is
//!   enabled, every [`counter`] feeds it under `layer.name`, and every
//!   finished span records its duration into the `layer.name_us`
//!   histogram;
//! * [`qlog`] — a fixed-capacity concurrent ring buffer of per-query
//!   records (the backing store of the engine's `sys.query_log` virtual
//!   table), plus the query identity the server passes to the engine.
//!
//! ## Counter naming
//!
//! Counter and metric names follow a documented `layer.name` scheme: the
//! `layer` is the emitting crate (`storage`, `engine`, `dgen`, `maint`,
//! `runner`, `cli`) and `name` is a dot-separated path grouping related
//! metrics — `scan.rows`, `scan.bytes`, `join.build_rows`,
//! `gen.rows`. Reports aggregate by subsystem (the path's first segment),
//! so all `join.*` counters roll up together. See `docs/OBSERVABILITY.md`.
//!
//! When no sink is installed and the registry is disabled, the whole API
//! is a handful of atomic loads — instrumented code needs no feature
//! gates.

#![warn(missing_docs)]

pub mod chrome;
pub mod hist;
pub mod json;
pub mod mem;
pub mod metrics;
pub mod ndv;
pub mod qlog;
pub mod report;

use json::Json;
use std::io::Write;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex, OnceLock, PoisonError};
use std::time::Instant;

/// A field value attached to an event.
#[derive(Debug, Clone, PartialEq)]
pub enum FieldValue {
    /// Integer field.
    Int(i64),
    /// Float field.
    Float(f64),
    /// String field.
    Str(String),
}

impl From<i64> for FieldValue {
    fn from(v: i64) -> Self {
        FieldValue::Int(v)
    }
}
impl From<u64> for FieldValue {
    fn from(v: u64) -> Self {
        FieldValue::Int(v as i64)
    }
}
impl From<u32> for FieldValue {
    fn from(v: u32) -> Self {
        FieldValue::Int(v as i64)
    }
}
impl From<usize> for FieldValue {
    fn from(v: usize) -> Self {
        FieldValue::Int(v as i64)
    }
}
impl From<f64> for FieldValue {
    fn from(v: f64) -> Self {
        FieldValue::Float(v)
    }
}
impl From<&str> for FieldValue {
    fn from(v: &str) -> Self {
        FieldValue::Str(v.to_string())
    }
}
impl From<String> for FieldValue {
    fn from(v: String) -> Self {
        FieldValue::Str(v)
    }
}

impl FieldValue {
    fn to_json(&self) -> Json {
        match self {
            FieldValue::Int(i) => Json::Int(*i),
            FieldValue::Float(f) => Json::Float(*f),
            FieldValue::Str(s) => Json::Str(s.clone()),
        }
    }
}

/// Event kinds.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EventKind {
    /// A named interval (has `dur_us`).
    Span,
    /// A named quantity (has `value`).
    Counter,
    /// An instantaneous marker.
    Point,
}

impl EventKind {
    fn as_str(self) -> &'static str {
        match self {
            EventKind::Span => "span",
            EventKind::Counter => "counter",
            EventKind::Point => "point",
        }
    }
}

/// One recorded event.
#[derive(Debug, Clone, PartialEq)]
pub struct Event {
    /// Microseconds since the recorder epoch. For spans this is the
    /// *start* of the interval.
    pub ts_us: u64,
    /// Kind.
    pub kind: EventKind,
    /// The emitting layer (`engine`, `dgen`, `maint`, `runner`, `cli`).
    pub layer: String,
    /// Event name within the layer.
    pub name: String,
    /// Span duration in microseconds (spans only).
    pub dur_us: Option<u64>,
    /// Counter value (counters only).
    pub value: Option<f64>,
    /// Key/value fields.
    pub fields: Vec<(String, FieldValue)>,
}

impl Event {
    /// Serializes the event as one JSON object — the trace JSONL schema:
    ///
    /// ```json
    /// {"ts_us":120,"kind":"span","layer":"runner","name":"query",
    ///  "dur_us":4500,"fields":{"stream":0,"query":52,"rows":100}}
    /// ```
    ///
    /// `dur_us` appears on spans, `value` on counters; `fields` is always
    /// present (possibly empty).
    pub fn to_json(&self) -> Json {
        let mut pairs = vec![
            ("ts_us".to_string(), Json::Int(self.ts_us as i64)),
            (
                "kind".to_string(),
                Json::Str(self.kind.as_str().to_string()),
            ),
            ("layer".to_string(), Json::Str(self.layer.clone())),
            ("name".to_string(), Json::Str(self.name.clone())),
        ];
        if let Some(d) = self.dur_us {
            pairs.push(("dur_us".to_string(), Json::Int(d as i64)));
        }
        if let Some(v) = self.value {
            pairs.push(("value".to_string(), Json::Float(v)));
        }
        let fields = self
            .fields
            .iter()
            .map(|(k, v)| (k.clone(), v.to_json()))
            .collect();
        pairs.push(("fields".to_string(), Json::Obj(fields)));
        Json::Obj(pairs)
    }

    /// Parses an event back from its JSON form.
    pub fn from_json(j: &Json) -> Result<Event, String> {
        let ts_us = j
            .get("ts_us")
            .and_then(Json::as_i64)
            .ok_or("missing ts_us")? as u64;
        let kind = match j.get("kind").and_then(Json::as_str) {
            Some("span") => EventKind::Span,
            Some("counter") => EventKind::Counter,
            Some("point") => EventKind::Point,
            other => return Err(format!("bad kind {other:?}")),
        };
        let layer = j
            .get("layer")
            .and_then(Json::as_str)
            .ok_or("missing layer")?
            .to_string();
        let name = j
            .get("name")
            .and_then(Json::as_str)
            .ok_or("missing name")?
            .to_string();
        let dur_us = j.get("dur_us").and_then(Json::as_i64).map(|d| d as u64);
        let value = j.get("value").and_then(Json::as_f64);
        let mut fields = Vec::new();
        if let Some(Json::Obj(pairs)) = j.get("fields") {
            for (k, v) in pairs {
                let fv = match v {
                    Json::Int(i) => FieldValue::Int(*i),
                    Json::Float(f) => FieldValue::Float(*f),
                    Json::Str(s) => FieldValue::Str(s.clone()),
                    other => return Err(format!("bad field value {other:?}")),
                };
                fields.push((k.clone(), fv));
            }
        }
        Ok(Event {
            ts_us,
            kind,
            layer,
            name,
            dur_us,
            value,
            fields,
        })
    }

    /// The value of an integer field, if present.
    pub fn int_field(&self, key: &str) -> Option<i64> {
        self.fields
            .iter()
            .find(|(k, _)| k == key)
            .and_then(|(_, v)| match v {
                FieldValue::Int(i) => Some(*i),
                _ => None,
            })
    }

    /// The value of a string field, if present.
    pub fn str_field(&self, key: &str) -> Option<&str> {
        self.fields
            .iter()
            .find(|(k, _)| k == key)
            .and_then(|(_, v)| match v {
                FieldValue::Str(s) => Some(s.as_str()),
                _ => None,
            })
    }
}

/// A destination for recorded events.
pub trait Sink: Send {
    /// Receives one event.
    fn record(&mut self, event: &Event);
    /// Flushes buffered state (writes, summary output).
    fn flush(&mut self) {}
}

/// The global recorder: an epoch for monotonic offsets plus the installed
/// sinks. Obtain it implicitly through the free functions ([`span`],
/// [`counter`], [`point`], [`install_jsonl`], …).
pub struct Recorder {
    epoch: Instant,
    enabled: AtomicBool,
    sinks: Mutex<Vec<Box<dyn Sink>>>,
}

fn recorder() -> &'static Recorder {
    static RECORDER: OnceLock<Recorder> = OnceLock::new();
    RECORDER.get_or_init(|| Recorder {
        epoch: Instant::now(),
        enabled: AtomicBool::new(false),
        sinks: Mutex::new(Vec::new()),
    })
}

/// Whether any sink is installed. Instrumented code may use this to skip
/// building expensive field sets; the record functions already no-op.
pub fn is_enabled() -> bool {
    recorder().enabled.load(Ordering::Relaxed)
}

/// Microseconds since the recorder epoch.
pub fn now_us() -> u64 {
    recorder().epoch.elapsed().as_micros() as u64
}

/// Installs any sink.
pub fn add_sink(sink: Box<dyn Sink>) {
    let r = recorder();
    r.sinks
        .lock()
        .unwrap_or_else(PoisonError::into_inner)
        .push(sink);
    r.enabled.store(true, Ordering::Relaxed);
}

/// Installs a JSONL trace sink writing to `path` (truncates).
pub fn install_jsonl(path: &std::path::Path) -> std::io::Result<()> {
    let file = std::fs::File::create(path)?;
    add_sink(Box::new(JsonlSink {
        out: std::io::BufWriter::new(file),
    }));
    Ok(())
}

/// Installs the human-readable stderr summary sink; it prints aggregated
/// span and counter tables when [`flush`] is called.
pub fn install_stderr_summary() {
    add_sink(Box::new(StderrSummary::default()));
}

/// Installs an in-memory sink and returns its shared buffer (tests,
/// programmatic inspection).
pub fn install_memory() -> Arc<Mutex<Vec<Event>>> {
    let buf = Arc::new(Mutex::new(Vec::new()));
    add_sink(Box::new(MemorySink(buf.clone())));
    buf
}

/// Removes all sinks and disables recording (tests).
pub fn reset() {
    let r = recorder();
    r.enabled.store(false, Ordering::Relaxed);
    r.sinks
        .lock()
        .unwrap_or_else(PoisonError::into_inner)
        .clear();
}

/// Flushes every sink (the stderr summary prints here).
pub fn flush() {
    let r = recorder();
    for s in r
        .sinks
        .lock()
        .unwrap_or_else(PoisonError::into_inner)
        .iter_mut()
    {
        s.flush();
    }
}

/// Records a fully formed event.
pub fn record(event: Event) {
    let r = recorder();
    if !r.enabled.load(Ordering::Relaxed) {
        return;
    }
    for s in r
        .sinks
        .lock()
        .unwrap_or_else(PoisonError::into_inner)
        .iter_mut()
    {
        s.record(&event);
    }
}

/// Records a counter event (and, while the [`metrics`] registry is
/// enabled, accumulates it there under `layer.name`).
pub fn counter(layer: &'static str, name: &str, value: f64, fields: &[(&str, FieldValue)]) {
    if metrics::is_enabled() {
        metrics::counter_add(&format!("{layer}.{name}"), value);
    }
    if !is_enabled() {
        return;
    }
    record(Event {
        ts_us: now_us(),
        kind: EventKind::Counter,
        layer: layer.to_string(),
        name: name.to_string(),
        dur_us: None,
        value: Some(value),
        fields: fields
            .iter()
            .map(|(k, v)| (k.to_string(), v.clone()))
            .collect(),
    });
}

/// Records an instantaneous point event.
pub fn point(layer: &'static str, name: &str, fields: &[(&str, FieldValue)]) {
    if !is_enabled() {
        return;
    }
    record(Event {
        ts_us: now_us(),
        kind: EventKind::Point,
        layer: layer.to_string(),
        name: name.to_string(),
        dur_us: None,
        value: None,
        fields: fields
            .iter()
            .map(|(k, v)| (k.to_string(), v.clone()))
            .collect(),
    });
}

/// Starts a span; it records itself when dropped (or at [`SpanGuard::finish`]).
pub fn span(layer: &'static str, name: &str) -> SpanGuard {
    SpanGuard {
        layer,
        name: name.to_string(),
        start_us: now_us(),
        start: Instant::now(),
        fields: Vec::new(),
        armed: is_enabled(),
    }
}

/// An in-flight span. Fields added before the guard drops are attached to
/// the recorded event.
pub struct SpanGuard {
    layer: &'static str,
    name: String,
    start_us: u64,
    start: Instant,
    fields: Vec<(String, FieldValue)>,
    armed: bool,
}

impl SpanGuard {
    /// Attaches a field (builder style).
    pub fn field(mut self, key: &str, value: impl Into<FieldValue>) -> Self {
        self.add_field(key, value);
        self
    }

    /// Attaches a field.
    pub fn add_field(&mut self, key: &str, value: impl Into<FieldValue>) {
        if self.armed {
            self.fields.push((key.to_string(), value.into()));
        }
    }

    /// Time elapsed since the span started.
    pub fn elapsed(&self) -> std::time::Duration {
        self.start.elapsed()
    }

    /// Ends the span now (equivalent to dropping it).
    pub fn finish(self) {}
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        if metrics::is_enabled() {
            metrics::observe(
                &format!("{}.{}_us", self.layer, self.name),
                self.start.elapsed().as_micros() as u64,
            );
        }
        if !self.armed {
            return;
        }
        record(Event {
            ts_us: self.start_us,
            kind: EventKind::Span,
            layer: self.layer.to_string(),
            name: std::mem::take(&mut self.name),
            dur_us: Some(self.start.elapsed().as_micros() as u64),
            value: None,
            fields: std::mem::take(&mut self.fields),
        });
    }
}

// ---------- bundled sinks ----------

struct JsonlSink {
    out: std::io::BufWriter<std::fs::File>,
}

impl Sink for JsonlSink {
    fn record(&mut self, event: &Event) {
        // A failed trace write must not fail the benchmark; drop the line.
        let _ = writeln!(self.out, "{}", event.to_json());
    }

    fn flush(&mut self) {
        let _ = self.out.flush();
    }
}

struct MemorySink(Arc<Mutex<Vec<Event>>>);

impl Sink for MemorySink {
    fn record(&mut self, event: &Event) {
        self.0
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .push(event.clone());
    }
}

#[derive(Default)]
struct SpanAgg {
    count: u64,
    total_us: u64,
    max_us: u64,
    rows: i64,
}

/// Aggregating stderr summary: one line per distinct (layer, name) span
/// and counter, printed on flush.
#[derive(Default)]
struct StderrSummary {
    spans: std::collections::BTreeMap<(String, String), SpanAgg>,
    counters: std::collections::BTreeMap<(String, String), (u64, f64)>,
}

impl Sink for StderrSummary {
    fn record(&mut self, event: &Event) {
        match event.kind {
            EventKind::Span => {
                let agg = self
                    .spans
                    .entry((event.layer.clone(), event.name.clone()))
                    .or_default();
                agg.count += 1;
                let d = event.dur_us.unwrap_or(0);
                agg.total_us += d;
                agg.max_us = agg.max_us.max(d);
                agg.rows += event.int_field("rows").unwrap_or(0);
            }
            EventKind::Counter => {
                let (n, sum) = self
                    .counters
                    .entry((event.layer.clone(), event.name.clone()))
                    .or_insert((0, 0.0));
                *n += 1;
                *sum += event.value.unwrap_or(0.0);
            }
            EventKind::Point => {}
        }
    }

    fn flush(&mut self) {
        if self.spans.is_empty() && self.counters.is_empty() {
            return;
        }
        let mut out = String::from("── obs summary ──────────────────────────────\n");
        for ((layer, name), agg) in &self.spans {
            out.push_str(&format!(
                "{layer:>7}/{name:<18} n={:<6} total={:>10.3}ms max={:>9.3}ms rows={}\n",
                agg.count,
                agg.total_us as f64 / 1e3,
                agg.max_us as f64 / 1e3,
                agg.rows,
            ));
        }
        for ((layer, name), (n, sum)) in &self.counters {
            out.push_str(&format!("{layer:>7}/{name:<18} n={n:<6} sum={sum}\n"));
        }
        eprint!("{out}");
        self.spans.clear();
        self.counters.clear();
    }
}

#[cfg(test)]
pub(crate) fn test_lock() -> std::sync::MutexGuard<'static, ()> {
    // The recorder is global; tests that install sinks serialize on this.
    static LOCK: Mutex<()> = Mutex::new(());
    LOCK.lock().unwrap_or_else(PoisonError::into_inner)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_recorder_drops_everything() {
        let _guard = test_lock();
        reset();
        counter("test", "c", 1.0, &[]);
        span("test", "s").finish();
        let buf = install_memory();
        point("test", "p", &[]);
        reset();
        let events = buf.lock().unwrap();
        assert_eq!(events.len(), 1, "only the event after install lands");
        assert_eq!(events[0].name, "p");
    }

    #[test]
    fn span_records_duration_and_fields() {
        let _guard = test_lock();
        reset();
        let buf = install_memory();
        {
            let mut s = span("engine", "query").field("query", 52u32);
            s.add_field("rows", 10usize);
            std::thread::sleep(std::time::Duration::from_millis(2));
        }
        reset();
        let events = buf.lock().unwrap();
        assert_eq!(events.len(), 1);
        let e = &events[0];
        assert_eq!(e.kind, EventKind::Span);
        assert_eq!(e.layer, "engine");
        assert!(
            e.dur_us.unwrap() >= 1_000,
            "slept 2ms, recorded {:?}",
            e.dur_us
        );
        assert_eq!(e.int_field("query"), Some(52));
        assert_eq!(e.int_field("rows"), Some(10));
    }

    #[test]
    fn events_round_trip_through_json() {
        let e = Event {
            ts_us: 123,
            kind: EventKind::Span,
            layer: "runner".into(),
            name: "query".into(),
            dur_us: Some(4500),
            value: None,
            fields: vec![
                ("stream".into(), FieldValue::Int(0)),
                ("table".into(), FieldValue::Str("store_sales".into())),
                ("ratio".into(), FieldValue::Float(0.5)),
            ],
        };
        let back = Event::from_json(&Json::parse(&e.to_json().to_string()).unwrap()).unwrap();
        assert_eq!(back, e);
    }

    #[test]
    fn jsonl_sink_writes_parseable_lines() {
        let _guard = test_lock();
        reset();
        let dir = std::env::temp_dir().join("tpcds_obs_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("trace.jsonl");
        install_jsonl(&path).unwrap();
        counter("dgen", "rows", 42.0, &[("table", "item".into())]);
        span("runner", "phase").field("phase", "load").finish();
        flush();
        reset();
        let text = std::fs::read_to_string(&path).unwrap();
        let events: Vec<Event> = text
            .lines()
            .map(|l| Event::from_json(&Json::parse(l).unwrap()).unwrap())
            .collect();
        assert_eq!(events.len(), 2);
        assert_eq!(events[0].value, Some(42.0));
        assert_eq!(events[1].str_field("phase"), Some("load"));
        std::fs::remove_file(&path).ok();
    }
}
