//! `COVERAGE_8.json` — per-shape-class routing coverage of synthesized
//! workloads, and the regression gate over it.
//!
//! Where `COVERAGE_10.json` tracks the 99 fixed templates, this report
//! tracks the synthesizer's shape classes: for each class, how many
//! queries were generated and which best route they took under
//! `ColumnarMode::Auto`.

use tpcds_obs::json::Json;

use crate::gen::SynthConfig;
use crate::soak::{SoakConfig, SoakOutcome};

/// Builds the `COVERAGE_8.json` document from a soak outcome.
pub fn coverage_report(outcome: &SoakOutcome, cfg: &SoakConfig) -> Json {
    let SynthConfig {
        seed,
        max_join_depth,
        adversarial_frac,
    } = cfg.synth.clone();
    let mut classes: Vec<(String, Json)> = Vec::new();
    for (name, stat) in &outcome.classes {
        let routes: Vec<(String, Json)> = stat
            .routes
            .iter()
            .map(|(r, n)| (r.to_string(), Json::Int(*n as i64)))
            .collect();
        classes.push((
            name.to_string(),
            Json::Obj(vec![
                ("queries".to_string(), Json::Int(stat.queries as i64)),
                ("routes".to_string(), Json::Obj(routes)),
                (
                    "columnar_frac".to_string(),
                    Json::Float(stat.columnar_frac()),
                ),
                (
                    "oracle_rows".to_string(),
                    Json::Int(stat.oracle_rows as i64),
                ),
                (
                    "empty_results".to_string(),
                    Json::Int(stat.empty_results as i64),
                ),
            ]),
        ));
    }
    Json::Obj(vec![
        ("report".to_string(), Json::Str("COVERAGE_8".to_string())),
        ("seed".to_string(), Json::Int(seed as i64)),
        (
            "max_join_depth".to_string(),
            Json::Int(max_join_depth as i64),
        ),
        (
            "adversarial_frac".to_string(),
            Json::Float(adversarial_frac),
        ),
        ("streams".to_string(), Json::Int(cfg.streams as i64)),
        ("via_server".to_string(), Json::Bool(cfg.via_server)),
        (
            "queries_run".to_string(),
            Json::Int(outcome.queries_run as i64),
        ),
        (
            "mismatches".to_string(),
            Json::Int(outcome.failures.len() as i64),
        ),
        (
            "versions_observed".to_string(),
            Json::Int(outcome.versions_observed.len() as i64),
        ),
        ("dm_rows".to_string(), Json::Int(outcome.dm_rows as i64)),
        ("classes".to_string(), Json::Obj(classes)),
    ])
}

/// Gates a fresh report against a committed baseline. Returns the list
/// of violations (empty = pass):
///
/// * `mismatches` must be zero;
/// * every class present in the baseline must still be generated;
/// * no class's `columnar_frac` may drop more than `tolerance` below its
///   baseline value (same seed → same queries, so real regressions show
///   up exactly; the tolerance only absorbs stats-dependent literals
///   shifting a handful of routing decisions).
pub fn gate(baseline: &Json, current: &Json, tolerance: f64) -> Vec<String> {
    let mut errors = Vec::new();
    let mismatches = current
        .get("mismatches")
        .and_then(Json::as_i64)
        .unwrap_or(-1);
    if mismatches != 0 {
        errors.push(format!(
            "differential mismatches: {mismatches} (must be 0; see minimized reproducers)"
        ));
    }
    let (Some(Json::Obj(base_classes)), Some(Json::Obj(cur_classes))) =
        (baseline.get("classes"), current.get("classes"))
    else {
        errors.push("baseline or current report has no classes object".to_string());
        return errors;
    };
    for (name, base) in base_classes {
        let Some(cur) = cur_classes.iter().find(|(n, _)| n == name).map(|(_, c)| c) else {
            errors.push(format!("shape class {name} disappeared from the report"));
            continue;
        };
        if cur.get("queries").and_then(Json::as_i64).unwrap_or(0) == 0 {
            errors.push(format!("shape class {name} generated no queries"));
            continue;
        }
        let base_frac = base
            .get("columnar_frac")
            .and_then(Json::as_f64)
            .unwrap_or(0.0);
        let cur_frac = cur
            .get("columnar_frac")
            .and_then(Json::as_f64)
            .unwrap_or(0.0);
        if cur_frac + tolerance < base_frac {
            errors.push(format!(
                "shape class {name}: columnar_frac regressed {base_frac:.3} -> {cur_frac:.3} \
                 (tolerance {tolerance:.3})"
            ));
        }
    }
    errors
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::soak::ClassStat;

    fn outcome_with(frac_num: u64, queries: u64) -> SoakOutcome {
        let mut o = SoakOutcome::default();
        let mut stat = ClassStat {
            queries,
            ..ClassStat::default()
        };
        stat.routes.insert("columnar", frac_num);
        stat.routes.insert("serial", queries - frac_num);
        o.classes.insert("join_agg", stat);
        o.queries_run = queries;
        o
    }

    #[test]
    fn gate_passes_identical_reports() {
        let cfg = SoakConfig::default();
        let report = coverage_report(&outcome_with(8, 10), &cfg);
        assert!(gate(&report, &report, 0.02).is_empty());
    }

    #[test]
    fn gate_flags_columnar_regression_and_mismatches() {
        let cfg = SoakConfig::default();
        let base = coverage_report(&outcome_with(8, 10), &cfg);
        let mut worse = outcome_with(4, 10);
        worse.failures.push(crate::soak::Failure {
            qid: 1,
            class: "join_agg",
            sql: "select 1".to_string(),
            minimized: "select 1".to_string(),
            detail: "boom".to_string(),
        });
        let cur = coverage_report(&worse, &cfg);
        let errors = gate(&base, &cur, 0.02);
        assert_eq!(errors.len(), 2, "{errors:?}");
        assert!(errors.iter().any(|e| e.contains("mismatches")));
        assert!(errors.iter().any(|e| e.contains("columnar_frac regressed")));
    }

    #[test]
    fn gate_flags_vanished_class() {
        let cfg = SoakConfig::default();
        let base = coverage_report(&outcome_with(8, 10), &cfg);
        let cur = coverage_report(&SoakOutcome::default(), &cfg);
        assert!(gate(&base, &cur, 0.02)
            .iter()
            .any(|e| e.contains("disappeared")));
    }
}
