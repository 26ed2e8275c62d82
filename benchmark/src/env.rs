//! The environment header every result starts with, and the process
//! counters (`/proc/self`) behind `peak_rss_mb` and `cpu_ms_per_query`.

use std::process::Command;

use tpcds_core::obs::json::Json;

use crate::workloads::{WorkloadSpec, FIG12_MIN_STREAMS, POWER_EXCLUDED};

/// Cores the process may run on; the `W` every load size derives from.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

fn first_line(program: &str, args: &[&str]) -> String {
    Command::new(program)
        .args(args)
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .and_then(|s| s.lines().next().map(str::to_string))
        .unwrap_or_else(|| "unknown".to_string())
}

/// What a number depends on besides the code: cores, load shape, data
/// size, revision, build and seed. `agree` refuses to compare results
/// whose headers differ.
pub fn header(
    spec: &WorkloadSpec,
    seed: u64,
    seconds: f64,
    smoke: bool,
    rows_per_table: &[(String, usize)],
) -> Json {
    let w = nproc();
    let clients = spec.clients(w);
    let mut fields = vec![
        ("workload".to_string(), Json::Str(spec.name.to_string())),
        ("nproc".to_string(), Json::Int(w as i64)),
        ("clients".to_string(), Json::Int(clients as i64)),
        ("workers".to_string(), Json::Int(spec.workers(w) as i64)),
        ("scale_factor".to_string(), Json::Float(spec.sf)),
        ("seed".to_string(), Json::Int(seed as i64)),
        ("seconds".to_string(), Json::Float(seconds)),
        ("smoke".to_string(), Json::Bool(smoke)),
        (
            "git_revision".to_string(),
            Json::Str(first_line("git", &["rev-parse", "HEAD"])),
        ),
        (
            "build_profile".to_string(),
            Json::Str(
                if cfg!(debug_assertions) {
                    "debug"
                } else {
                    "release"
                }
                .to_string(),
            ),
        ),
        (
            "rustc".to_string(),
            Json::Str(first_line("rustc", &["--version"])),
        ),
        (
            "fig12_legal".to_string(),
            Json::Bool(clients >= FIG12_MIN_STREAMS),
        ),
        (
            "power_excluded_templates".to_string(),
            Json::Arr(
                POWER_EXCLUDED
                    .iter()
                    .map(|&id| Json::Int(id.into()))
                    .collect(),
            ),
        ),
    ];
    fields.push((
        "rows_per_table".to_string(),
        Json::Obj(
            rows_per_table
                .iter()
                .map(|(t, n)| (t.clone(), Json::Int(*n as i64)))
                .collect(),
        ),
    ));
    Json::Obj(fields)
}

/// `VmHWM` of this process in MiB: the most memory it ever held.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// (user, system) CPU seconds this process has used, all threads.
pub fn cpu_seconds() -> (f64, f64) {
    let Ok(stat) = std::fs::read_to_string("/proc/self/stat") else {
        return (0.0, 0.0);
    };
    // utime and stime are the 12th and 13th fields after the
    // parenthesized command name, in USER_HZ ticks of 10 ms.
    let Some((_, rest)) = stat.rsplit_once(')') else {
        return (0.0, 0.0);
    };
    let mut fields = rest.split_whitespace().skip(11);
    let mut ticks = || {
        fields
            .next()
            .and_then(|f| f.parse::<f64>().ok())
            .unwrap_or(0.0)
    };
    let (user, sys) = (ticks(), ticks());
    (user / 100.0, sys / 100.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn process_counters_read_something() {
        assert!(nproc() >= 1);
        assert!(peak_rss_mb() > 0.0);
        let (user, sys) = cpu_seconds();
        assert!(user >= 0.0 && sys >= 0.0);
    }
}
