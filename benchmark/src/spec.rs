//! The metric vocabulary: every name the binary emits, with its unit
//! and direction. `BENCHMARK.json` at the root of the repository
//! declares the same names (a unit test holds the two together) and
//! adds the regression bound of each end-to-end metric.

use tpcds_core::obs::json::Json;

/// Which way a metric improves.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

/// One declared metric.
#[derive(Debug, Clone, Copy)]
pub struct MetricDef {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
}

const fn lower(name: &'static str, unit: &'static str) -> MetricDef {
    MetricDef {
        name,
        unit,
        better: Better::Lower,
    }
}

const fn higher(name: &'static str, unit: &'static str) -> MetricDef {
    MetricDef {
        name,
        unit,
        better: Better::Higher,
    }
}

/// What a user of the system sees; measured with tracing off.
pub const END_TO_END: &[MetricDef] = &[
    lower("setup_s", "s"),
    higher("qphds", "queries/h"),
    higher("queries_per_s", "1/s"),
    lower("round_s", "s"),
    lower("query_p50_ms", "ms"),
    lower("query_p90_ms", "ms"),
];

/// The seven single-operator probes of `crates/storage` kernels.
pub const PROBES: [&str; 7] = [
    "filter", "agg", "join", "join_agg", "topn", "sort", "project",
];

/// One layer each; measured in the traced pass.
pub const PER_LAYER: &[MetricDef] = &[
    lower("dgen.generate.busy_s", "s"),
    higher("dgen.generate.rows_per_s", "1/s"),
    lower("maint.load.busy_s", "s"),
    higher("maint.load.rows_per_s", "1/s"),
    lower("runner.aux.busy_s", "s"),
    lower("server.start.busy_ms", "ms"),
    lower("maint.refresh.busy_s", "s"),
    lower("maint.refresh.rows_changed", "count"),
    lower("maint.refresh.us_per_row", "us"),
    lower("engine.snapshot.commits", "count"),
    lower("runner.load_s", "s"),
    lower("runner.qr1_s", "s"),
    lower("runner.dm_s", "s"),
    lower("runner.qr2_s", "s"),
    lower("engine.parse.busy_ms", "ms"),
    lower("engine.plan.busy_ms", "ms"),
    lower("engine.inproc.busy_s", "s"),
    lower("engine.exec.busy_s", "s"),
    lower("engine.exec.share", "ratio"),
    lower("engine.rows_out", "count"),
    higher("engine.route.columnar_rows_frac", "ratio"),
    higher("engine.route.fallback_free_queries", "count"),
    higher("storage.filter.rows_per_s.w1", "1/s"),
    higher("storage.filter.rows_per_s.wn", "1/s"),
    higher("storage.filter.scaling", "ratio"),
    higher("storage.agg.rows_per_s.w1", "1/s"),
    higher("storage.agg.rows_per_s.wn", "1/s"),
    higher("storage.agg.scaling", "ratio"),
    higher("storage.join.rows_per_s.w1", "1/s"),
    higher("storage.join.rows_per_s.wn", "1/s"),
    higher("storage.join.scaling", "ratio"),
    higher("storage.join_agg.rows_per_s.w1", "1/s"),
    higher("storage.join_agg.rows_per_s.wn", "1/s"),
    higher("storage.join_agg.scaling", "ratio"),
    higher("storage.topn.rows_per_s.w1", "1/s"),
    higher("storage.topn.rows_per_s.wn", "1/s"),
    higher("storage.topn.scaling", "ratio"),
    higher("storage.sort.rows_per_s.w1", "1/s"),
    higher("storage.sort.rows_per_s.wn", "1/s"),
    higher("storage.sort.scaling", "ratio"),
    higher("storage.project.rows_per_s.w1", "1/s"),
    higher("storage.project.rows_per_s.wn", "1/s"),
    higher("storage.project.scaling", "ratio"),
    lower("server.ping.us_p50", "us"),
    lower("server.wire.overhead_ms_p50", "ms"),
    lower("server.wire.overhead_share", "ratio"),
    higher("server.protocol.encode_mb_per_s", "MB/s"),
    higher("server.protocol.decode_mb_per_s", "MB/s"),
    lower("server.result.bytes", "bytes"),
    lower("server.admission.wait_us_mean", "us"),
    lower("bench.peak_rss_mb", "MiB"),
    lower("bench.closure_frac", "ratio"),
    lower("bench.trace.overhead_frac", "ratio"),
];

/// The closure check: parse + plan + exec + wire overhead must account
/// for the client-observed wall within a tenth.
pub fn closure_ok(closure_frac: f64) -> bool {
    (0.9..=1.1).contains(&closure_frac)
}

/// Measured values keyed by declared name, in emission order.
#[derive(Debug, Default)]
pub struct Metrics {
    values: Vec<(String, f64, usize)>,
}

impl Metrics {
    pub fn new() -> Metrics {
        Metrics::default()
    }

    /// Records `value`, taken from `samples` measurements.
    pub fn set(&mut self, name: impl Into<String>, value: f64, samples: usize) {
        self.values.push((name.into(), value, samples));
    }

    /// Checks the set against `defs` — every declared metric measured
    /// exactly once, nothing undeclared, every value finite — and
    /// returns (definition, value, samples) in declaration order.
    pub fn checked(
        &self,
        defs: &'static [MetricDef],
    ) -> Result<Vec<(MetricDef, f64, usize)>, String> {
        for (name, value, _) in &self.values {
            if !defs.iter().any(|d| d.name == name) {
                return Err(format!("metric {name} is not declared"));
            }
            if !value.is_finite() {
                return Err(format!("metric {name} is not finite: {value}"));
            }
        }
        defs.iter()
            .map(|d| {
                let mut hits = self.values.iter().filter(|(n, _, _)| n == d.name);
                match (hits.next(), hits.next()) {
                    (Some((_, v, n)), None) => Ok((*d, *v, *n)),
                    (None, _) => Err(format!("declared metric {} was not measured", d.name)),
                    _ => Err(format!("metric {} was measured twice", d.name)),
                }
            })
            .collect()
    }
}

/// What one run of a workload produced.
pub struct Outcome {
    pub metrics: Metrics,
    pub attempted: u64,
    pub failed: u64,
    /// Every checked answer matched the oracle.
    pub correct: bool,
    /// Human-readable lines: sample counts, tail percentile, findings.
    pub notes: Vec<String>,
    pub rows_per_table: Vec<(String, usize)>,
}

/// The `metrics` object of a result line: `{name: {value, unit}}`.
pub fn metrics_json(checked: &[(MetricDef, f64, usize)]) -> Json {
    Json::Obj(
        checked
            .iter()
            .map(|(d, v, _)| {
                (
                    d.name.to_string(),
                    Json::Obj(vec![
                        ("value".to_string(), Json::Float(*v)),
                        ("unit".to_string(), Json::Str(d.unit.to_string())),
                    ]),
                )
            })
            .collect(),
    )
}

/// Regression bounds of the end-to-end metrics, read from a
/// `BENCHMARK.json` document: (name, better, bound).
pub fn bounds(doc: &Json) -> Result<Vec<(String, Better, f64)>, String> {
    doc.get("end_to_end")
        .and_then(Json::as_arr)
        .ok_or("BENCHMARK.json has no end_to_end list")?
        .iter()
        .map(|m| {
            let name = m
                .get("name")
                .and_then(Json::as_str)
                .ok_or("end_to_end entry without a name")?;
            let better = match m.get("better").and_then(Json::as_str) {
                Some("lower") => Better::Lower,
                Some("higher") => Better::Higher,
                other => return Err(format!("{name}: bad direction {other:?}")),
            };
            let bound = m
                .get("bound")
                .and_then(Json::as_f64)
                .ok_or_else(|| format!("{name}: no bound"))?;
            Ok((name.to_string(), better, bound))
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workloads::WORKLOADS;

    fn name_ok(name: &str) -> bool {
        !name.is_empty()
            && name.len() <= 64
            && name.as_bytes()[0].is_ascii_alphanumeric()
            && name
                .bytes()
                .all(|b| b.is_ascii_alphanumeric() || matches!(b, b'_' | b'.' | b'-'))
    }

    fn unit_ok(unit: &str) -> bool {
        !unit.is_empty()
            && unit.len() <= 16
            && unit
                .bytes()
                .all(|b| b.is_ascii_alphanumeric() || matches!(b, b'_' | b'/' | b'%' | b'.' | b'-'))
    }

    fn benchmark_json() -> Json {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        assert!(text.len() <= 64 * 1024);
        Json::parse(&text).expect("BENCHMARK.json parses")
    }

    fn declared(doc: &Json, key: &str) -> Vec<(String, String, String)> {
        doc.get(key)
            .and_then(Json::as_arr)
            .unwrap_or_else(|| panic!("{key} is a list"))
            .iter()
            .map(|m| {
                let field = |f: &str| {
                    m.get(f)
                        .and_then(Json::as_str)
                        .unwrap_or_else(|| panic!("{key} entry without {f}"))
                        .to_string()
                };
                (field("name"), field("unit"), field("better"))
            })
            .collect()
    }

    fn emitted(defs: &[MetricDef]) -> Vec<(String, String, String)> {
        defs.iter()
            .map(|d| {
                (
                    d.name.to_string(),
                    d.unit.to_string(),
                    d.better.as_str().to_string(),
                )
            })
            .collect()
    }

    #[test]
    fn benchmark_json_declares_exactly_what_the_binary_emits() {
        let doc = benchmark_json();
        assert_eq!(declared(&doc, "end_to_end"), emitted(END_TO_END));
        assert_eq!(declared(&doc, "per_layer"), emitted(PER_LAYER));
        let workloads: Vec<&str> = doc
            .get("workloads")
            .and_then(Json::as_arr)
            .expect("workloads is a list")
            .iter()
            .map(|w| w.get("name").and_then(Json::as_str).expect("workload name"))
            .collect();
        let known: Vec<&str> = WORKLOADS.iter().map(|w| w.name).collect();
        assert_eq!(workloads, known);
    }

    #[test]
    fn benchmark_json_stays_inside_the_contract() {
        let doc = benchmark_json();
        let Json::Obj(pairs) = &doc else {
            panic!("BENCHMARK.json is an object")
        };
        let mut keys: Vec<&str> = pairs.iter().map(|(k, _)| k.as_str()).collect();
        keys.sort_unstable();
        assert_eq!(
            keys,
            [
                "command",
                "end_to_end",
                "paths",
                "per_layer",
                "run_seconds",
                "workloads"
            ]
        );
        let end_to_end = declared(&doc, "end_to_end");
        let per_layer = declared(&doc, "per_layer");
        let workloads = doc.get("workloads").and_then(Json::as_arr).expect("list");
        assert!((2..=8).contains(&workloads.len()));
        assert!((1..=16).contains(&end_to_end.len()));
        assert!((1..=128).contains(&per_layer.len()));
        let mut names: Vec<String> = Vec::new();
        for w in workloads {
            names.push(w.get("name").and_then(Json::as_str).expect("name").into());
            let why = w.get("why").and_then(Json::as_str).expect("why");
            assert!(why.len() <= 200 && !why.contains('\n'), "why: {why}");
        }
        for (name, unit, better) in end_to_end.iter().chain(&per_layer) {
            assert!(unit_ok(unit), "unit {unit:?} of {name}");
            assert!(better == "lower" || better == "higher");
            names.push(name.clone());
        }
        for name in &names {
            assert!(name_ok(name), "name {name:?}");
        }
        let distinct: std::collections::BTreeSet<&String> = names.iter().collect();
        assert_eq!(distinct.len(), names.len(), "a name is used twice");
        let bounds = bounds(&doc).expect("bounds parse");
        assert!(bounds.iter().all(|(_, _, b)| *b > 0.0 && *b <= 0.25));
        let setup = bounds
            .iter()
            .find(|(n, _, _)| n == "setup_s")
            .expect("setup_s");
        assert_eq!(setup.1, Better::Lower);
        assert!(bounds.iter().all(|(_, _, b)| *b <= setup.2));
        let seconds = doc
            .get("run_seconds")
            .and_then(Json::as_i64)
            .expect("run_seconds");
        assert!((1..=60).contains(&seconds));
    }

    #[test]
    fn probes_have_three_metrics_each() {
        for p in PROBES {
            for suffix in ["rows_per_s.w1", "rows_per_s.wn", "scaling"] {
                let name = format!("storage.{p}.{suffix}");
                assert!(PER_LAYER.iter().any(|d| d.name == name), "{name}");
            }
        }
    }

    #[test]
    fn metrics_must_match_the_declaration() {
        let mut m = Metrics::new();
        for d in END_TO_END {
            m.set(d.name, 1.5, 3);
        }
        assert_eq!(
            m.checked(END_TO_END).expect("complete").len(),
            END_TO_END.len()
        );
        m.set("setup_s", 2.0, 1);
        assert!(m.checked(END_TO_END).unwrap_err().contains("twice"));
        let mut m = Metrics::new();
        m.set("setup_s", 1.0, 1);
        assert!(m.checked(END_TO_END).unwrap_err().contains("not measured"));
        m.set("no.such.metric", 1.0, 1);
        assert!(m.checked(END_TO_END).unwrap_err().contains("not declared"));
    }

    #[test]
    fn closure_check_accepts_a_tenth_either_way() {
        assert!(closure_ok(0.9) && closure_ok(1.0) && closure_ok(1.1));
        assert!(!closure_ok(0.89) && !closure_ok(1.11) && !closure_ok(f64::NAN));
    }
}
