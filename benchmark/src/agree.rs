//! `agree A.json B.json`: do two result files of the suite tell the same
//! story? Every (end-to-end metric, workload) pair gets a row: `ok`,
//! `worse` (B's median is worse than A's by more than the metric's bound
//! in `BENCHMARK.json`) or `unresolved` (the run-to-run spread of either
//! side is wider than the bound, so the medians decide nothing).

use std::path::Path;
use std::process::ExitCode;

use tpcds_core::obs::json::Json;

use crate::spec::{self, Better};
use crate::stats;

/// How one (metric, workload) pair compares.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    Ok,
    Worse,
    Unresolved,
}

/// Judges B's values against A's. The spread of a side is the distance
/// between its quartiles as a share of its median (0 for a single run).
pub fn judge(a: &[f64], b: &[f64], better: Better, bound: f64) -> (Verdict, f64, f64) {
    let (median_a, median_b) = (stats::median(a), stats::median(b));
    let spread = stats::quartile_spread(a).max(stats::quartile_spread(b));
    let worsening = match better {
        Better::Lower => (median_b - median_a) / median_a,
        Better::Higher => (median_a - median_b) / median_a,
    };
    let verdict = if spread > bound {
        Verdict::Unresolved
    } else if worsening > bound {
        Verdict::Worse
    } else {
        Verdict::Ok
    };
    (verdict, worsening, spread)
}

fn load(path: &Path) -> Result<Json, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
    Json::parse(&text).map_err(|e| format!("{}: {e}", path.display()))
}

fn runs(doc: &Json) -> Result<&[Json], String> {
    doc.get("runs")
        .and_then(Json::as_arr)
        .ok_or_else(|| "result file without runs".to_string())
}

/// The environment of a result file: its own header and every run's,
/// without the revision, which is what a comparison is allowed to vary.
fn environment(doc: &Json) -> Result<Vec<String>, String> {
    let mut lines = vec![doc.get("header").map(Json::to_string).unwrap_or_default()];
    for run in runs(doc)? {
        let Some(Json::Obj(fields)) = run.get("header") else {
            return Err("run without a header".to_string());
        };
        let kept: Vec<(String, Json)> = fields
            .iter()
            .filter(|(k, _)| k != "git_revision")
            .cloned()
            .collect();
        let trace = run.get("trace").map(Json::to_string).unwrap_or_default();
        lines.push(format!("trace={trace} {}", Json::Obj(kept)));
    }
    lines.sort();
    Ok(lines)
}

/// Untraced values of `metric` on `workload`, one per run.
fn values(doc: &Json, workload: &str, metric: &str) -> Result<Vec<f64>, String> {
    Ok(runs(doc)?
        .iter()
        .filter(|r| r.get("workload").and_then(Json::as_str) == Some(workload))
        .filter(|r| r.get("trace").and_then(Json::as_i64) == Some(0))
        .filter_map(|r| r.get("metrics")?.get(metric)?.get("value")?.as_f64())
        .collect())
}

fn workloads(doc: &Json) -> Result<Vec<String>, String> {
    let mut names: Vec<String> = Vec::new();
    for run in runs(doc)? {
        if let Some(name) = run.get("workload").and_then(Json::as_str) {
            if !names.iter().any(|n| n == name) {
                names.push(name.to_string());
            }
        }
    }
    Ok(names)
}

/// Compares two result files; non-zero when the environments differ or
/// any row is `worse`.
pub fn run(a_path: &Path, b_path: &Path, spec_path: &Path) -> Result<ExitCode, String> {
    let (a, b) = (load(a_path)?, load(b_path)?);
    let bounds = spec::bounds(&load(spec_path)?)?;
    let (env_a, env_b) = (environment(&a)?, environment(&b)?);
    if env_a != env_b {
        for (x, y) in env_a.iter().zip(&env_b).filter(|(x, y)| x != y) {
            eprintln!("A: {x}\nB: {y}");
        }
        return Err(format!(
            "environment headers differ ({} vs {} entries); refusing to compare",
            env_a.len(),
            env_b.len()
        ));
    }

    let mut worse = 0;
    println!("verdict workload metric median_a median_b worsening spread bound");
    for workload in workloads(&a)? {
        for (metric, better, bound) in &bounds {
            let (va, vb) = (
                values(&a, &workload, metric)?,
                values(&b, &workload, metric)?,
            );
            if va.is_empty() || vb.is_empty() {
                return Err(format!("{workload}: no untraced value of {metric}"));
            }
            let (verdict, worsening, spread) = judge(&va, &vb, *better, *bound);
            let word = match verdict {
                Verdict::Ok => "ok",
                Verdict::Worse => "worse",
                Verdict::Unresolved => "unresolved",
            };
            worse += usize::from(verdict == Verdict::Worse);
            println!(
                "{word} {workload} {metric} {} {} {worsening:+.4} {spread:.4} {bound}",
                stats::median(&va),
                stats::median(&vb),
            );
        }
    }
    Ok(if worse == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn judge_reads_direction_bound_and_spread() {
        let steady = [10.0, 10.1, 9.9, 10.0];
        let slower = [11.5, 11.6, 11.4, 11.5];
        let noisy = [6.0, 14.0, 8.0, 12.0];
        assert_eq!(judge(&steady, &steady, Better::Lower, 0.1).0, Verdict::Ok);
        assert_eq!(
            judge(&steady, &slower, Better::Lower, 0.1).0,
            Verdict::Worse
        );
        // More is better: the same move is an improvement.
        assert_eq!(judge(&steady, &slower, Better::Higher, 0.1).0, Verdict::Ok);
        assert_eq!(
            judge(&slower, &steady, Better::Higher, 0.1).0,
            Verdict::Worse
        );
        assert_eq!(
            judge(&steady, &noisy, Better::Lower, 0.1).0,
            Verdict::Unresolved
        );
        // A single run per side has no spread; the medians decide.
        assert_eq!(judge(&[10.0], &[10.5], Better::Lower, 0.1).0, Verdict::Ok);
        assert_eq!(
            judge(&[10.0], &[12.0], Better::Lower, 0.1).0,
            Verdict::Worse
        );
    }

    #[test]
    fn environment_ignores_only_the_revision() {
        let doc = |revision: &str, seed: i64| {
            Json::parse(&format!(
                r#"{{"header":{{"seed":{seed}}},"runs":[{{"workload":"short","trace":0,
                "header":{{"git_revision":"{revision}","seed":{seed}}},"metrics":{{}}}}]}}"#
            ))
            .expect("test document parses")
        };
        let base = environment(&doc("aaa", 1)).expect("has runs");
        assert_eq!(base, environment(&doc("bbb", 1)).expect("has runs"));
        assert_ne!(base, environment(&doc("aaa", 2)).expect("has runs"));
    }
}
