//! The whole benchmark in one command: every workload untraced, one
//! fresh process each, then the traced pass of every workload; every
//! metric printed by name and everything written to `out/result.json`.

use std::process::{Child, Command, ExitCode, Stdio};

use tpcds_core::obs::json::Json;

use crate::spec;
use crate::workloads::WORKLOADS;
use crate::Options;

/// One child run as the result file keeps it.
struct Run {
    workload: &'static str,
    seed: u64,
    trace: bool,
    header: Json,
    result: Json,
}

impl Run {
    fn metric(&self, name: &str) -> Option<f64> {
        self.result
            .get("metrics")?
            .get(name)?
            .get("value")?
            .as_f64()
    }

    fn to_json(&self) -> Json {
        let mut fields = vec![
            ("workload".to_string(), Json::Str(self.workload.to_string())),
            ("seed".to_string(), Json::Int(self.seed as i64)),
            ("trace".to_string(), Json::Int(self.trace.into())),
            ("header".to_string(), self.header.clone()),
        ];
        if let Json::Obj(result) = &self.result {
            fields.extend(result.iter().cloned());
        }
        Json::Obj(fields)
    }
}

/// Starts this binary on one workload in a fresh process, so that the
/// allocator and `VmHWM` start clean.
fn launch(workload: &str, seed: u64, trace: bool, options: &Options) -> Result<Child, String> {
    let exe = std::env::current_exe().map_err(|e| format!("own path: {e}"))?;
    let mut command = Command::new(exe);
    command
        .args(["--workload", workload])
        .args(["--seed", &seed.to_string()])
        .args(["--seconds", &options.seconds.to_string()])
        .args(["--trace", if trace { "1" } else { "0" }])
        .arg("--out")
        .arg(&options.out)
        .stdin(Stdio::null())
        .stdout(Stdio::piped())
        .stderr(Stdio::inherit());
    if options.smoke {
        command.arg("--smoke");
    }
    command
        .spawn()
        .map_err(|e| format!("{workload}: cannot start: {e}"))
}

/// Waits for a launched run and reads its header and result.
fn collect(child: Child, workload: &'static str, seed: u64, trace: bool) -> Result<Run, String> {
    let output = child
        .wait_with_output()
        .map_err(|e| format!("{workload}: {e}"))?;
    let stdout = String::from_utf8_lossy(&output.stdout);
    for line in stdout.lines().filter(|l| l.starts_with("note ")) {
        println!("{workload} trace={} {line}", u8::from(trace));
    }
    let header = stdout
        .lines()
        .find_map(|l| l.strip_prefix("header "))
        .and_then(|h| Json::parse(h).ok());
    let result = stdout.lines().last().and_then(|l| Json::parse(l).ok());
    match (header, result) {
        (Some(header), Some(result)) if result.get("metrics").is_some() => Ok(Run {
            workload,
            seed,
            trace,
            header,
            result,
        }),
        _ => Err(format!(
            "{workload} (seed {seed}, trace {}) printed no result; exit {}",
            u8::from(trace),
            output.status
        )),
    }
}

/// Runs the suite and returns non-zero when an answer was wrong, a
/// statement failed, or (outside `--smoke`) a traced pass did not add
/// up to the client's wall within a tenth.
pub fn run(options: &Options) -> Result<ExitCode, String> {
    let mut plan = Vec::new();
    for spec in WORKLOADS {
        plan.extend((0..options.runs.max(1)).map(|n| (spec.name, options.seed + n, false)));
    }
    plan.extend(WORKLOADS.iter().map(|spec| (spec.name, options.seed, true)));

    // One run at a time, so that nothing else loads the cores it is
    // measured on. `--smoke` measures nothing and has set-up to pay
    // eight times over, so it runs a pass of the four workloads at once.
    let at_once = if options.smoke { WORKLOADS.len() } else { 1 };
    let mut runs = Vec::new();
    for batch in plan.chunks(at_once) {
        let launched: Vec<_> = batch
            .iter()
            .map(|&(workload, seed, trace)| launch(workload, seed, trace, options))
            .collect();
        // Wait for every child that started before giving up on any.
        let collected: Vec<_> = launched
            .into_iter()
            .zip(batch)
            .map(|(child, &(workload, seed, trace))| collect(child?, workload, seed, trace))
            .collect();
        for run in collected {
            runs.push(run?);
        }
    }

    let mut problems = Vec::new();
    for run in &runs {
        let units = if run.trace {
            spec::PER_LAYER
        } else {
            spec::END_TO_END
        };
        println!(
            "header {} trace={} {}",
            run.workload,
            u8::from(run.trace),
            run.header
        );
        for def in units {
            let value = run
                .metric(def.name)
                .ok_or_else(|| format!("{}: result without {}", run.workload, def.name))?;
            println!(
                "{} seed={} {} {value} {}",
                run.workload, run.seed, def.name, def.unit
            );
        }
        let failed = run.result.get("failed").and_then(Json::as_i64).unwrap_or(0);
        let attempted = run
            .result
            .get("attempted")
            .and_then(Json::as_i64)
            .unwrap_or(0);
        println!(
            "{} seed={} failed_frac {} ratio",
            run.workload,
            run.seed,
            failed as f64 / attempted.max(1) as f64
        );
        if run.result.get("correct") != Some(&Json::Bool(true)) {
            problems.push(format!("{}: an answer did not match", run.workload));
        }
        if failed > 0 {
            problems.push(format!("{}: {failed} statements failed", run.workload));
        }
        // `--smoke` times a handful of statements with four processes on
        // the cores at once: it checks answers, not sums of times.
        if let Some(closure) = run
            .metric("bench.closure_frac")
            .filter(|c| !options.smoke && !spec::closure_ok(*c))
        {
            problems.push(format!(
                "{}: bench.closure_frac {closure} is outside [0.9, 1.1]",
                run.workload
            ));
        }
    }

    let document = Json::Obj(vec![
        (
            "header".to_string(),
            Json::Obj(vec![
                ("seed".to_string(), Json::Int(options.seed as i64)),
                ("seconds".to_string(), Json::Float(options.seconds)),
                ("smoke".to_string(), Json::Bool(options.smoke)),
                ("runs".to_string(), Json::Int(options.runs.max(1) as i64)),
            ]),
        ),
        (
            "runs".to_string(),
            Json::Arr(runs.iter().map(Run::to_json).collect()),
        ),
    ]);
    let path = options.out.join("result.json");
    std::fs::create_dir_all(&options.out)
        .and_then(|()| std::fs::write(&path, document.to_string()))
        .map_err(|e| format!("{}: {e}", path.display()))?;
    println!("wrote {}", path.display());

    for problem in &problems {
        eprintln!("tpcds-benchmark: {problem}");
    }
    Ok(if problems.is_empty() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}
