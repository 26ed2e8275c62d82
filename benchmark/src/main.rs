//! `tpcds-benchmark` — the repository's benchmark.
//!
//! Four closed-loop workloads (`fig11`, `power`, `dm_mixed`, `short`)
//! drive an in-process `tpcds_server::Server` over loopback TCP from one
//! load-generating process, and every crate is timed from outside, by
//! wrapping calls into its public functions. `BENCHMARK.json` at the
//! root of the repository names the workloads and metrics; `README.md`
//! beside this package says what each one is for.
//!
//! ```text
//! tpcds-benchmark --workload NAME --seed N --seconds S --trace 0|1 [--smoke] [--out DIR]
//! tpcds-benchmark suite [--seed N] [--seconds S] [--runs N] [--smoke] [--out DIR]
//! tpcds-benchmark agree A.json B.json [--spec BENCHMARK.json]
//! ```

mod agree;
mod check;
mod env;
mod setup;
mod spec;
mod stats;
mod suite;
mod timed;
mod trace;
mod traced;
mod workloads;

use std::path::PathBuf;
use std::process::ExitCode;

use tpcds_core::obs::json::Json;

use crate::workloads::WorkloadSpec;

/// dsdgen's default seed.
pub const DEFAULT_SEED: u64 = 19_620_718;
/// `run_seconds` of `BENCHMARK.json`.
pub const DEFAULT_SECONDS: f64 = 16.0;

/// Command-line options shared by a single run and the suite.
pub struct Options {
    pub seed: u64,
    pub seconds: f64,
    pub smoke: bool,
    /// Where traces and the suite's result file go.
    pub out: PathBuf,
    /// Untraced runs per workload in the suite, each on the next seed.
    pub runs: u64,
}

const USAGE: &str = "usage:
  tpcds-benchmark --workload fig11|power|dm_mixed|short --seed N --seconds S --trace 0|1 [--smoke] [--out DIR]
  tpcds-benchmark suite [--seed N] [--seconds S] [--runs N] [--smoke] [--out DIR]
  tpcds-benchmark agree A.json B.json [--spec BENCHMARK.json]";

fn parse<T: std::str::FromStr>(flag: &str, value: Option<String>) -> Result<T, String> {
    let value = value.ok_or_else(|| format!("{flag} needs a value"))?;
    value
        .parse()
        .map_err(|_| format!("{flag}: cannot read {value:?}"))
}

fn real_main() -> Result<ExitCode, String> {
    let mut args = std::env::args().skip(1).peekable();
    let command = match args.peek().map(String::as_str) {
        Some("suite") | Some("agree") => args.next(),
        _ => None,
    };
    let mut options = Options {
        seed: DEFAULT_SEED,
        seconds: DEFAULT_SECONDS,
        smoke: false,
        out: PathBuf::from("benchmark/out"),
        runs: 1,
    };
    let mut workload: Option<String> = None;
    let mut trace = false;
    let mut spec_path = PathBuf::from("BENCHMARK.json");
    let mut files = Vec::new();
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--workload" => workload = Some(parse(&arg, args.next())?),
            "--seed" => options.seed = parse(&arg, args.next())?,
            "--seconds" => options.seconds = parse(&arg, args.next())?,
            "--runs" => options.runs = parse(&arg, args.next())?,
            "--out" => options.out = parse(&arg, args.next())?,
            "--spec" => spec_path = parse(&arg, args.next())?,
            "--smoke" => options.smoke = true,
            "--trace" => {
                trace = match parse::<u8>(&arg, args.next())? {
                    0 => false,
                    1 => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other}")),
                }
            }
            "-h" | "--help" => {
                println!("{}", USAGE);
                return Ok(ExitCode::SUCCESS);
            }
            file if command.as_deref() == Some("agree") && !file.starts_with("--") => {
                files.push(PathBuf::from(file))
            }
            other => return Err(format!("unknown argument {other:?}\n{}", USAGE)),
        }
    }
    if !(options.seconds > 0.0 && options.seconds.is_finite()) {
        return Err("--seconds must be positive".to_string());
    }

    if command.as_deref() == Some("agree") {
        return match files.as_slice() {
            [a, b] => agree::run(a, b, &spec_path),
            _ => Err(format!("agree takes two result files\n{}", USAGE)),
        };
    }
    match workload {
        Some(name) if command.is_none() => {
            let spec = WorkloadSpec::by_name(&name)
                .ok_or_else(|| format!("no workload called {name:?}\n{}", USAGE))?;
            single(spec, trace, &options)
        }
        Some(_) => Err(format!("suite runs every workload\n{}", USAGE)),
        None => suite::run(&options),
    }
}

/// One run of one workload: header, notes and `name value unit` lines,
/// then the result object as the last line of standard output.
fn single(spec: WorkloadSpec, trace: bool, options: &Options) -> Result<ExitCode, String> {
    // The morsel workers of the load inside the system, like everything
    // else that depends on the core count, are set here and not left to
    // the environment.
    tpcds_core::storage::set_threads(Some(env::nproc()));
    let spec = if options.smoke { spec.smoke() } else { spec };
    let seconds = if options.smoke {
        options.seconds.min(1.0)
    } else {
        options.seconds
    };
    let (outcome, defs) = if trace {
        (
            traced::run(&spec, options.seed, seconds, options.smoke, &options.out)?,
            spec::PER_LAYER,
        )
    } else {
        (
            timed::run(&spec, options.seed, seconds, options.smoke)?,
            spec::END_TO_END,
        )
    };
    let checked = outcome.metrics.checked(defs)?;

    let header = env::header(
        &spec,
        options.seed,
        seconds,
        options.smoke,
        &outcome.rows_per_table,
    );
    println!("header {header}");
    for note in &outcome.notes {
        println!("note {note}");
    }
    for (def, value, samples) in &checked {
        let better = def.better.as_str();
        println!(
            "{} {value} {} better={better} n={samples}",
            def.name, def.unit
        );
    }
    let failed_frac = outcome.failed as f64 / outcome.attempted.max(1) as f64;
    println!("failed_frac {failed_frac} ratio n={}", outcome.attempted);
    let result = Json::Obj(vec![
        ("correct".to_string(), Json::Bool(outcome.correct)),
        ("attempted".to_string(), Json::Int(outcome.attempted as i64)),
        ("failed".to_string(), Json::Int(outcome.failed as i64)),
        ("metrics".to_string(), spec::metrics_json(&checked)),
    ]);
    println!("{result}");
    Ok(if outcome.correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}

fn main() -> ExitCode {
    match real_main() {
        Ok(code) => code,
        Err(e) => {
            eprintln!("tpcds-benchmark: {e}");
            ExitCode::FAILURE
        }
    }
}
