//! In-memory spans around calls into the system's public functions.
//!
//! The traced pass is single-threaded, so a recorder is a plain vector:
//! each span keeps {name, start, end, parent, statement} and is written
//! to `out/trace-<workload>.json` when the pass ends. A layer's self
//! time is its span minus the part of it its children cover.

use std::time::Instant;

use tpcds_core::obs::json::Json;

/// One timed call.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    /// Layer-qualified name, e.g. `engine.parse`.
    pub name: &'static str,
    /// Index of the span this one ran inside, if any.
    pub parent: Option<usize>,
    /// Position of the statement in the traced list; spans of one
    /// statement share it. `None` for set-up and maintenance spans.
    pub statement: Option<usize>,
    /// Microseconds since the recorder started.
    pub start_us: f64,
    /// Microseconds since the recorder started.
    pub end_us: f64,
}

impl Span {
    /// The span's duration in seconds.
    pub fn seconds(&self) -> f64 {
        (self.end_us - self.start_us) / 1e6
    }
}

/// Collects spans for one traced pass.
pub struct Recorder {
    origin: Instant,
    spans: Vec<Span>,
}

impl Recorder {
    /// An empty recorder whose clock starts now.
    pub fn new() -> Recorder {
        Recorder {
            origin: Instant::now(),
            spans: Vec::new(),
        }
    }

    fn us(&self, at: Instant) -> f64 {
        at.saturating_duration_since(self.origin).as_secs_f64() * 1e6
    }

    fn now_us(&self) -> f64 {
        self.us(Instant::now())
    }

    /// Adds a span whose ends were taken elsewhere.
    pub fn record(
        &mut self,
        name: &'static str,
        parent: Option<usize>,
        statement: Option<usize>,
        (start, end): (Instant, Instant),
    ) -> f64 {
        let span = Span {
            name,
            parent,
            statement,
            start_us: self.us(start),
            end_us: self.us(end),
        };
        let secs = span.seconds();
        self.spans.push(span);
        secs
    }

    /// Adds a child of `parent` of which only the duration is known,
    /// centred in its parent (and clipped to it).
    pub fn record_inside(
        &mut self,
        name: &'static str,
        parent: usize,
        statement: Option<usize>,
        duration_us: f64,
    ) {
        let (lo, hi) = (self.spans[parent].start_us, self.spans[parent].end_us);
        let duration_us = duration_us.min(hi - lo);
        let start_us = lo + (hi - lo - duration_us) / 2.0;
        self.spans.push(Span {
            name,
            parent: Some(parent),
            statement,
            start_us,
            end_us: start_us + duration_us,
        });
    }

    /// Opens a span; close it with [`Recorder::close`].
    pub fn open(
        &mut self,
        name: &'static str,
        parent: Option<usize>,
        statement: Option<usize>,
    ) -> usize {
        let start_us = self.now_us();
        self.spans.push(Span {
            name,
            parent,
            statement,
            start_us,
            end_us: start_us,
        });
        self.spans.len() - 1
    }

    /// Ends span `id` now and returns its duration in seconds.
    pub fn close(&mut self, id: usize) -> f64 {
        self.spans[id].end_us = self.now_us();
        self.spans[id].seconds()
    }

    /// Runs `f` inside a span and returns its result and duration.
    pub fn time<T>(
        &mut self,
        name: &'static str,
        parent: Option<usize>,
        statement: Option<usize>,
        f: impl FnOnce() -> T,
    ) -> (T, f64) {
        let id = self.open(name, parent, statement);
        let out = f();
        let secs = self.close(id);
        (out, secs)
    }

    /// Every span recorded so far.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Durations, in seconds, of every span called `name`.
    pub fn durations(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(Span::seconds)
            .collect()
    }

    /// Total seconds inside spans called `name`.
    pub fn busy(&self, name: &str) -> f64 {
        self.durations(name).iter().sum()
    }

    /// The trace as one JSON document.
    pub fn to_json(&self) -> Json {
        let selfs = self_times(&self.spans);
        Json::Arr(
            self.spans
                .iter()
                .zip(selfs)
                .enumerate()
                .map(|(id, (s, self_us))| {
                    let opt = |v: Option<usize>| v.map_or(Json::Null, |v| Json::Int(v as i64));
                    Json::Obj(vec![
                        ("id".to_string(), Json::Int(id as i64)),
                        ("name".to_string(), Json::Str(s.name.to_string())),
                        ("parent".to_string(), opt(s.parent)),
                        ("statement".to_string(), opt(s.statement)),
                        ("start_us".to_string(), Json::Float(s.start_us)),
                        ("end_us".to_string(), Json::Float(s.end_us)),
                        ("self_us".to_string(), Json::Float(self_us)),
                    ])
                })
                .collect(),
        )
    }
}

/// Self time of every span, in microseconds: its duration minus the part
/// of its interval that its direct children cover. Children are clipped
/// to the parent and overlapping children are counted once.
pub fn self_times(spans: &[Span]) -> Vec<f64> {
    let mut children: Vec<Vec<(f64, f64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            let lo = s.start_us.max(spans[p].start_us);
            let hi = s.end_us.min(spans[p].end_us);
            if hi > lo {
                children[p].push((lo, hi));
            }
        }
    }
    spans
        .iter()
        .zip(children)
        .map(|(s, mut kids)| {
            kids.sort_by(|a, b| a.partial_cmp(b).expect("span times are never NaN"));
            let mut covered = 0.0;
            let mut reach = s.start_us;
            for (lo, hi) in kids {
                if hi > reach {
                    covered += hi - lo.max(reach);
                    reach = hi;
                }
            }
            (s.end_us - s.start_us) - covered
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(parent: Option<usize>, start_us: f64, end_us: f64) -> Span {
        Span {
            name: "t",
            parent,
            statement: None,
            start_us,
            end_us,
        }
    }

    #[test]
    fn self_time_is_span_minus_children() {
        let spans = vec![
            span(None, 0.0, 100.0),
            span(Some(0), 10.0, 30.0),
            span(Some(0), 50.0, 90.0),
            span(Some(2), 60.0, 70.0),
        ];
        assert_eq!(self_times(&spans), vec![40.0, 20.0, 30.0, 10.0]);
    }

    #[test]
    fn overlapping_and_overhanging_children_count_once() {
        let spans = vec![
            span(None, 0.0, 100.0),
            span(Some(0), 10.0, 60.0),
            span(Some(0), 40.0, 80.0),
            span(Some(0), 90.0, 130.0),
        ];
        // Covered: [10, 80] and [90, 100] of the parent.
        assert_eq!(self_times(&spans)[0], 20.0);
    }

    #[test]
    fn recorder_nests_and_sums() {
        let mut r = Recorder::new();
        let outer = r.open("outer", None, Some(3));
        let ((), inner_s) = r.time("inner", Some(outer), Some(3), || {
            std::thread::sleep(std::time::Duration::from_millis(2))
        });
        let outer_s = r.close(outer);
        assert!(inner_s >= 0.002 && outer_s >= inner_s);
        assert_eq!(r.spans()[1].parent, Some(outer));
        assert!((r.busy("inner") - inner_s).abs() < 1e-9);
        let selfs = self_times(r.spans());
        assert!((selfs[0] / 1e6 - (outer_s - inner_s)).abs() < 1e-6);
        r.record_inside("reported", outer, Some(3), outer_s * 1e6 / 2.0);
        let reported = &r.spans()[2];
        assert!((reported.seconds() - outer_s / 2.0).abs() < 1e-9);
        assert!(reported.start_us > r.spans()[0].start_us && reported.end_us < r.spans()[0].end_us);
        let doc = r.to_json();
        assert_eq!(doc.as_arr().map(<[Json]>::len), Some(3));
    }
}
