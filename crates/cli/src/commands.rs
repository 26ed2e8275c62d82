//! Subcommand implementations for the `tpcds` binary.

use std::io::{BufRead, Write};
use std::path::PathBuf;
use tpcds_core::dgen::flatfile;
use tpcds_core::runner::{self, AuxLevel, BenchmarkConfig, PriceModel};
use tpcds_core::schema::{graph, Schema, SchemaStats};
use tpcds_core::{Generator, TpcDs, Workload};

type Result<T> = std::result::Result<T, String>;

/// Minimal flag parser: `--name value` pairs and `--flag` booleans.
struct Flags<'a> {
    args: &'a [String],
}

impl<'a> Flags<'a> {
    fn new(args: &'a [String]) -> Self {
        Flags { args }
    }

    fn value(&self, name: &str) -> Option<&str> {
        self.args
            .iter()
            .position(|a| a == name)
            .and_then(|i| self.args.get(i + 1))
            .map(|s| s.as_str())
    }

    fn has(&self, name: &str) -> bool {
        self.args.iter().any(|a| a == name)
    }

    fn parse<T: std::str::FromStr>(&self, name: &str, default: T) -> Result<T> {
        match self.value(name) {
            None => Ok(default),
            Some(v) => v
                .parse()
                .map_err(|_| format!("bad value for {name}: {v:?}")),
        }
    }
}

/// Installs the JSONL trace sink when `--trace FILE` was given. Returns
/// whether tracing is on; the caller must [`tpcds_core::obs::flush`] before
/// exiting so buffered events reach the file.
fn maybe_trace(flags: &Flags) -> Result<bool> {
    match flags.value("--trace") {
        None if flags.has("--trace") => Err("--trace requires a file argument".to_string()),
        None => Ok(false),
        Some(path) if path.starts_with("--") => Err("--trace requires a file argument".to_string()),
        Some(path) => {
            tpcds_core::obs::install_jsonl(std::path::Path::new(path))
                .map_err(|e| format!("cannot open trace file {path:?}: {e}"))?;
            Ok(true)
        }
    }
}

/// `tpcds dsdgen` — write flat files.
pub fn dsdgen(args: &[String]) -> Result<()> {
    let flags = Flags::new(args);
    let traced = maybe_trace(&flags)?;
    let sf: f64 = flags.parse("--scale", 0.01)?;
    let dir = PathBuf::from(flags.value("--dir").unwrap_or("tpcds_data"));
    let parallel: usize = flags.parse("--parallel", 4)?;
    let only = flags.value("--table");

    let generator = Generator::new(sf);
    let schema = Schema::tpcds();
    let started = std::time::Instant::now();
    let mut total = 0u64;
    for t in schema.tables() {
        if let Some(name) = only {
            if t.name != name {
                continue;
            }
        }
        let rows = generator.generate_parallel(t.name, parallel);
        flatfile::write_table(&dir, t.name, &rows).map_err(|e| e.to_string())?;
        println!("{:<24} {:>10} rows", t.name, rows.len());
        total += rows.len() as u64;
    }
    println!(
        "\n{total} rows at SF {sf} written to {} in {:.2?}",
        dir.display(),
        started.elapsed()
    );
    if traced {
        tpcds_core::obs::flush();
    }
    Ok(())
}

/// `tpcds dsqgen` — write query streams.
pub fn dsqgen(args: &[String]) -> Result<()> {
    let flags = Flags::new(args);
    let sf: f64 = flags.parse("--scale", 0.01)?;
    let streams: u64 = flags.parse("--streams", 1u64)?;
    let workload = Workload::tpcds().map_err(|e| e.to_string())?;
    let seed = tpcds_types::rng::DEFAULT_SEED;
    let _ = sf;

    if let Some(id) = flags.value("--query") {
        let id: u32 = id.parse().map_err(|_| format!("bad query id {id:?}"))?;
        for stream in 0..streams {
            println!("-- query {id}, stream {stream}");
            println!(
                "{};\n",
                workload
                    .instantiate(id, seed, stream)
                    .map_err(|e| e.to_string())?
            );
        }
        return Ok(());
    }

    match flags.value("--dir") {
        None => {
            // Print stream 0 to stdout.
            for (id, sql) in workload
                .stream_queries(seed, 0)
                .map_err(|e| e.to_string())?
            {
                println!("-- query {id}\n{sql};\n");
            }
        }
        Some(dir) => {
            let dir = PathBuf::from(dir);
            std::fs::create_dir_all(&dir).map_err(|e| e.to_string())?;
            for stream in 0..streams {
                let path = dir.join(format!("query_{stream}.sql"));
                let mut f = std::fs::File::create(&path).map_err(|e| e.to_string())?;
                for (id, sql) in workload
                    .stream_queries(seed, stream)
                    .map_err(|e| e.to_string())?
                {
                    writeln!(f, "-- query {id}\n{sql};\n").map_err(|e| e.to_string())?;
                }
                println!("wrote {}", path.display());
            }
        }
    }
    Ok(())
}

/// `tpcds run` — the full benchmark.
pub fn run(args: &[String]) -> Result<()> {
    let flags = Flags::new(args);
    let traced = maybe_trace(&flags)?;
    if let Some(addr) = flags.value("--metrics-addr") {
        let bound = tpcds_core::obs::metrics::serve(addr)
            .map_err(|e| format!("cannot bind metrics endpoint {addr:?}: {e}"))?;
        if !flags.has("--json") {
            println!("serving metrics at http://{bound}/metrics");
        }
    }
    let sf: f64 = flags.parse("--scale", 0.01)?;
    let streams: usize = flags.parse("--streams", 0usize)?;
    let queries: usize = flags.parse("--queries", 99usize)?;
    let threads = match flags.parse("--threads", 0usize)? {
        0 => None, // fall through to TPCDS_THREADS / available_parallelism
        n => Some(n),
    };
    let config = BenchmarkConfig {
        scale_factor: sf,
        seed: tpcds_types::rng::DEFAULT_SEED,
        streams: if streams == 0 { None } else { Some(streams) },
        queries_per_stream: Some(queries),
        aux: if flags.has("--no-aux") {
            AuxLevel::None
        } else {
            AuxLevel::Reporting
        },
        threads,
        via_server: flags.has("--via-server"),
    };
    if !flags.has("--json") {
        println!("running benchmark at SF {sf}...");
    }
    let result = runner::run_benchmark(config).map_err(|e| e.to_string())?;
    if traced {
        tpcds_core::obs::flush();
    }
    if flags.has("--json") {
        println!("{}", result.to_json());
        return Ok(());
    }
    println!("load test          {:?}", result.t_load);
    println!("query run 1        {:?}", result.t_qr1);
    println!("data maintenance   {:?}", result.t_dm);
    println!("query run 2        {:?}", result.t_qr2);
    let q = result.qphds();
    println!("\nQphDS@{sf} = {q:.2}");
    let price = PriceModel::default();
    println!(
        "$/QphDS@{sf} = {:.4}  (3-year TCO ${:.0}, synthetic model)",
        runner::price_performance(&price, sf, result.streams, q),
        price.tco(sf, result.streams)
    );
    let latency = result.latency_summary();
    if !latency.is_empty() {
        println!("\nper-query latency      runs    p50(ms)    p95(ms)    max(ms)");
        for (id, s) in latency {
            println!(
                "  q{id:<19} {:>5} {:>10.3} {:>10.3} {:>10.3}",
                s.count,
                s.p50_us as f64 / 1e3,
                s.p95_us as f64 / 1e3,
                s.max_us as f64 / 1e3,
            );
        }
    }
    Ok(())
}

/// Loads an instance and resolves `--id N` / `--sql '...'` into SQL text —
/// shared by `query` and `explain`.
fn load_and_resolve_sql(flags: &Flags) -> Result<(TpcDs, String)> {
    let sf: f64 = flags.parse("--scale", 0.01)?;
    let tpcds = TpcDs::builder()
        .scale_factor(sf)
        .reporting_aux(true)
        .build()
        .map_err(|e| e.to_string())?;
    let sql = if let Some(id) = flags.value("--id") {
        let id: u32 = id.parse().map_err(|_| format!("bad query id {id:?}"))?;
        tpcds.benchmark_sql(id, 0).map_err(|e| e.to_string())?
    } else if let Some(sql) = flags.value("--sql") {
        sql.to_string()
    } else {
        return Err("need --id N or --sql '...'".to_string());
    };
    Ok((tpcds, sql))
}

/// `tpcds query` — one query against a freshly loaded instance.
pub fn query(args: &[String]) -> Result<()> {
    let flags = Flags::new(args);
    let traced = maybe_trace(&flags)?;
    let (tpcds, sql) = load_and_resolve_sql(&flags)?;
    if flags.has("--explain") {
        println!("{}", tpcds.explain(&sql).map_err(|e| e.to_string())?);
    }
    let started = std::time::Instant::now();
    let result = tpcds.query(&sql).map_err(|e| e.to_string())?;
    if traced {
        tpcds_core::obs::flush();
    }
    println!("{}", result.to_table(40));
    println!("({} rows in {:.2?})", result.rows.len(), started.elapsed());
    Ok(())
}

/// `tpcds explain` — the plan tree; `--analyze` executes the statement and
/// annotates every operator with `rows=`, `elapsed=` and `loops=` actuals.
pub fn explain(args: &[String]) -> Result<()> {
    let flags = Flags::new(args);
    let (tpcds, sql) = load_and_resolve_sql(&flags)?;
    if flags.has("--analyze") {
        let analyzed = tpcds.explain_analyze(&sql).map_err(|e| e.to_string())?;
        print!("{}", analyzed.plan_text);
        println!("({} result rows)", analyzed.result.rows.len());
    } else {
        print!("{}", tpcds.explain(&sql).map_err(|e| e.to_string())?);
    }
    Ok(())
}

/// `tpcds report` — render a trace JSONL file as a phase timeline plus
/// span/query latency summaries.
pub fn report(args: &[String]) -> Result<()> {
    let path = args
        .iter()
        .find(|a| !a.starts_with("--"))
        .ok_or_else(|| "usage: tpcds report FILE.jsonl".to_string())?;
    let text = std::fs::read_to_string(path).map_err(|e| format!("read {path:?}: {e}"))?;
    print!("{}", tpcds_core::obs::report::summarize(&text)?);
    Ok(())
}

/// `tpcds trace` — trace-file conversions. Currently one form:
/// `tpcds trace export --chrome OUT.json FILE.jsonl` writes the trace as
/// a Chrome Trace Event file for Perfetto / `chrome://tracing`, with one
/// track per morsel worker.
pub fn trace(args: &[String]) -> Result<()> {
    const USAGE: &str = "usage: tpcds trace export --chrome OUT.json FILE.jsonl";
    let (sub, rest) = args.split_first().ok_or_else(|| USAGE.to_string())?;
    if sub != "export" {
        return Err(format!("unknown trace subcommand {sub:?}\n{USAGE}"));
    }
    let flags = Flags::new(rest);
    let out = flags
        .value("--chrome")
        .filter(|v| !v.starts_with("--"))
        .ok_or_else(|| USAGE.to_string())?;
    let input = rest
        .iter()
        .enumerate()
        .filter(|(i, a)| {
            // Skip flag names and the --chrome value.
            !a.starts_with("--") && *i != rest.iter().position(|x| x == "--chrome").unwrap() + 1
        })
        .map(|(_, a)| a.as_str())
        .next()
        .ok_or_else(|| USAGE.to_string())?;
    let text = std::fs::read_to_string(input).map_err(|e| format!("read {input:?}: {e}"))?;
    let chrome = tpcds_core::obs::chrome::export(&text)?;
    std::fs::write(out, chrome).map_err(|e| format!("write {out:?}: {e}"))?;
    println!("wrote {out} (load in Perfetto or chrome://tracing)");
    Ok(())
}

/// `tpcds shell` — interactive SQL.
pub fn shell(args: &[String]) -> Result<()> {
    let flags = Flags::new(args);
    let sf: f64 = flags.parse("--scale", 0.01)?;
    eprintln!("loading TPC-DS at SF {sf}...");
    let tpcds = TpcDs::builder()
        .scale_factor(sf)
        .reporting_aux(true)
        .build()
        .map_err(|e| e.to_string())?;
    eprintln!("ready. Commands: \\q quit, \\d tables, \\explain SQL, qNN for benchmark queries.");
    let stdin = std::io::stdin();
    let mut buffer = String::new();
    loop {
        if buffer.is_empty() {
            eprint!("tpcds> ");
        } else {
            eprint!("  ...> ");
        }
        std::io::stderr().flush().ok();
        let mut line = String::new();
        if stdin
            .lock()
            .read_line(&mut line)
            .map_err(|e| e.to_string())?
            == 0
        {
            return Ok(()); // EOF
        }
        let trimmed = line.trim();
        if buffer.is_empty() {
            match trimmed {
                "\\q" | "quit" | "exit" => return Ok(()),
                "\\d" => {
                    for t in tpcds.database().table_names() {
                        println!("{t:<24} {:>9} rows", tpcds.database().row_count(&t));
                    }
                    continue;
                }
                "" => continue,
                _ => {}
            }
            // qNN shortcut for benchmark queries.
            if let Some(id) = trimmed
                .strip_prefix('q')
                .and_then(|n| n.parse::<u32>().ok())
            {
                match tpcds.run_benchmark_query(id, 0) {
                    Ok(r) => println!("{}", r.to_table(25)),
                    Err(e) => eprintln!("error: {e}"),
                }
                continue;
            }
            if let Some(sql) = trimmed.strip_prefix("\\explain ") {
                match tpcds.explain(sql) {
                    Ok(p) => println!("{p}"),
                    Err(e) => eprintln!("error: {e}"),
                }
                continue;
            }
        }
        buffer.push_str(&line);
        if buffer.trim_end().ends_with(';') {
            let sql = std::mem::take(&mut buffer);
            let started = std::time::Instant::now();
            match tpcds.query(&sql) {
                Ok(r) => {
                    println!("{}", r.to_table(25));
                    println!("({} rows in {:.2?})", r.rows.len(), started.elapsed());
                }
                Err(e) => eprintln!("error: {e}"),
            }
        }
    }
}

/// `tpcds profile` — per-column data statistics.
pub fn profile(args: &[String]) -> Result<()> {
    let flags = Flags::new(args);
    let sf: f64 = flags.parse("--scale", 0.01)?;
    let limit: u64 = flags.parse("--limit", 10_000u64)?;
    let generator = Generator::new(sf);
    let tables: Vec<&str> = match flags.value("--table") {
        Some(t) => vec![Box::leak(t.to_string().into_boxed_str())],
        None => tpcds_core::schema::tables::TABLE_NAMES.to_vec(),
    };
    for t in tables {
        let p = tpcds_core::dgen::TableProfile::collect(&generator, t, limit);
        println!("{}", p.to_report());
    }
    Ok(())
}

/// `tpcds schema` — schema info.
pub fn schema(args: &[String]) -> Result<()> {
    let flags = Flags::new(args);
    let schema = Schema::tpcds();
    if flags.has("--ddl") {
        println!("{}", tpcds_core::schema::ddl::full_ddl(&schema));
        return Ok(());
    }
    if flags.has("--dot") {
        println!("{}", graph::to_dot(&schema, None));
        return Ok(());
    }
    if flags.has("--stats") {
        let s = SchemaStats::compute(&schema);
        println!("fact tables       {}", s.fact_tables);
        println!("dimension tables  {}", s.dimension_tables);
        println!(
            "columns min/max/avg  {}/{}/{}",
            s.min_columns, s.max_columns, s.avg_columns
        );
        println!("foreign keys      {}", s.foreign_keys);
        println!(
            "est. row bytes min/max/avg  {}/{}/{}",
            s.min_row_bytes, s.max_row_bytes, s.avg_row_bytes
        );
        return Ok(());
    }
    for t in schema.tables() {
        println!("{} ({:?}, {:?}, {:?})", t.name, t.kind, t.scd, t.part);
        for c in &t.columns {
            let null = if c.nullable { "" } else { " not null" };
            println!("    {:<28} {:?}{null}", c.name, c.ctype);
        }
        println!();
    }
    Ok(())
}

/// `tpcds serve` — load a data set and serve it over TCP until a client
/// sends `shutdown` (or the process is killed).
pub fn serve(args: &[String]) -> Result<()> {
    let flags = Flags::new(args);
    let traced = maybe_trace(&flags)?;
    if let Some(addr) = flags.value("--metrics-addr") {
        let bound = tpcds_core::obs::metrics::serve(addr)
            .map_err(|e| format!("cannot bind metrics endpoint {addr:?}: {e}"))?;
        println!("serving metrics at http://{bound}/metrics");
    }
    let sf: f64 = flags.parse("--scale", 0.01)?;
    let addr = flags
        .value("--addr")
        .unwrap_or("127.0.0.1:9955")
        .to_string();
    let max_queries: usize = flags.parse("--max-queries", 0usize)?;
    let idle_secs: u64 = flags.parse("--idle-timeout", 300u64)?;
    let slow_query_ms: Option<u64> = match flags.value("--slow-query-ms") {
        None => None,
        Some(v) => Some(
            v.parse()
                .map_err(|_| format!("bad value for --slow-query-ms: {v:?}"))?,
        ),
    };

    eprintln!("loading TPC-DS at SF {sf}...");
    let db = std::sync::Arc::new(tpcds_core::Database::new());
    let generator = Generator::new(sf);
    tpcds_core::maint::load_initial_population(&db, &generator).map_err(|e| e.to_string())?;
    if !flags.has("--no-aux") {
        runner::build_reporting_aux(&db).map_err(|e| e.to_string())?;
    }

    let mut config = tpcds_core::server::ServerConfig {
        addr,
        idle_timeout: std::time::Duration::from_secs(idle_secs),
        ..tpcds_core::server::ServerConfig::default()
    };
    if max_queries > 0 {
        config.max_concurrent_queries = max_queries;
    }
    // Flag wins over the TPCDS_SLOW_QUERY_MS default baked into the config.
    if let Some(ms) = slow_query_ms {
        config.slow_query_ms = ms;
    }
    let server = tpcds_core::server::Server::start(std::sync::Arc::clone(&db), config)
        .map_err(|e| format!("cannot start server: {e}"))?;
    println!(
        "serving TPC-DS (SF {sf}, snapshot v{}) at {} — stop with `tpcds client --addr {} --shutdown`",
        db.version(),
        server.local_addr(),
        server.local_addr()
    );
    server.wait();
    if traced {
        tpcds_core::obs::flush();
    }
    eprintln!("server stopped");
    Ok(())
}

/// `tpcds synth` — synthesize a seeded SQL workload and soak it through
/// the row-vs-columnar differential (optionally over TCP, with data
/// maintenance committing mid-run). Prints per-shape-class routing
/// tallies; any mismatch prints its minimized reproducer and fails.
pub fn synth(args: &[String]) -> Result<()> {
    use tpcds_core::synth::{coverage_report, run_soak, SoakConfig, SynthConfig};

    let flags = Flags::new(args);
    let sf: f64 = flags.parse("--scale", 0.01)?;
    let queries: usize = flags.parse("--queries", 100usize)?;
    let streams: usize = flags.parse("--streams", 2usize)?;
    let streams = streams.max(1);
    let seed: u64 = flags.parse(
        "--seed",
        tpcds_types::rng::test_seed(tpcds_types::rng::DEFAULT_SEED),
    )?;
    let dm_commits: u32 = flags.parse("--dm", 1u32)?;

    eprintln!("loading TPC-DS at SF {sf}...");
    let db = std::sync::Arc::new(tpcds_core::Database::new());
    let generator = Generator::new(sf);
    tpcds_core::maint::load_initial_population(&db, &generator).map_err(|e| e.to_string())?;

    let cfg = SoakConfig {
        streams,
        queries_per_stream: queries.div_ceil(streams),
        dm_commits,
        via_server: flags.has("--via-server"),
        shrink: true,
        synth: SynthConfig {
            seed,
            ..SynthConfig::default()
        },
    };
    eprintln!(
        "soaking {} streams x {} queries (seed {seed})...",
        cfg.streams, cfg.queries_per_stream
    );
    let outcome = run_soak(&db, Some(&generator), &cfg);

    println!(
        "{} queries, {} mismatches, {} snapshot versions, {} DM rows",
        outcome.queries_run,
        outcome.failures.len(),
        outcome.versions_observed.len(),
        outcome.dm_rows
    );
    for (class, stat) in &outcome.classes {
        println!(
            "  {class:<18} {:>5} queries  columnar {:>5.1}%  {:>9} oracle rows",
            stat.queries,
            stat.columnar_frac() * 100.0,
            stat.oracle_rows
        );
    }
    if let Some(out) = flags.value("--out") {
        let report = coverage_report(&outcome, &cfg);
        std::fs::write(out, format!("{report}\n"))
            .map_err(|e| format!("cannot write {out:?}: {e}"))?;
        println!("wrote {out}");
    }
    if outcome.failures.is_empty() {
        Ok(())
    } else {
        for f in &outcome.failures {
            eprintln!("MISMATCH qid {} ({}): {}", f.qid, f.class, f.detail);
            eprintln!("  minimized: {}", f.minimized);
        }
        Err(format!(
            "{} differential mismatch(es) at seed {seed}",
            outcome.failures.len()
        ))
    }
}

/// `tpcds client` — talk to a running `tpcds serve`: ping, one-shot
/// queries (optionally pinned to a snapshot version), plans, server
/// stats, shutdown.
pub fn client(args: &[String]) -> Result<()> {
    let flags = Flags::new(args);
    let addr = flags.value("--addr").unwrap_or("127.0.0.1:9955");
    let mut client = tpcds_core::server::Client::connect(addr)
        .map_err(|e| format!("cannot connect to {addr}: {e}"))?;

    if flags.has("--ping") {
        let version = client.ping().map_err(|e| e.to_string())?;
        println!("pong (snapshot v{version})");
        return Ok(());
    }
    if flags.has("--stats") {
        println!("{}", client.stats().map_err(|e| e.to_string())?);
        return Ok(());
    }
    if flags.has("--shutdown") {
        client.shutdown().map_err(|e| e.to_string())?;
        println!("server is shutting down");
        return Ok(());
    }
    let sql = flags
        .value("--sql")
        .ok_or_else(|| "need --sql '...' (or --ping / --stats / --shutdown)".to_string())?;
    if flags.has("--explain") {
        print!("{}", client.explain(sql).map_err(|e| e.to_string())?);
        return Ok(());
    }
    let mut opts = tpcds_core::server::QueryOpts::default();
    if let Some(pin) = flags.value("--pin") {
        opts.pin = Some(pin.parse().map_err(|_| format!("bad --pin {pin:?}"))?);
    }
    if let Some(qid) = flags.value("--query-id") {
        opts.query_id = Some(qid.to_string());
    }
    let started = std::time::Instant::now();
    let result = client.query_with(sql, &opts).map_err(|e| e.to_string())?;
    let qr = tpcds_core::QueryResult {
        columns: result.columns,
        rows: result.rows,
    };
    println!("{}", qr.to_table(40));
    println!(
        "({} rows from snapshot v{} in {:.2?}; server time {:.3}ms{})",
        qr.rows.len(),
        result.version,
        started.elapsed(),
        result.elapsed_us as f64 / 1e3,
        result
            .query_id
            .map(|q| format!("; query_id {q}"))
            .unwrap_or_default()
    );
    Ok(())
}

/// `tpcds top` — live view of a running server: its sessions, in-flight
/// queries and the tail of the query log, polled over one ordinary
/// client connection (everything shown comes from the `sys.*` virtual
/// tables, so `tpcds client --sql` can reproduce any pane by hand).
pub fn top(args: &[String]) -> Result<()> {
    let flags = Flags::new(args);
    let addr = flags.value("--addr").unwrap_or("127.0.0.1:9955");
    let interval_ms: u64 = flags.parse("--interval-ms", 2000u64)?;
    let once = flags.has("--once");
    let mut client = tpcds_core::server::Client::connect(addr)
        .map_err(|e| format!("cannot connect to {addr}: {e}"))?;

    loop {
        let sessions = client
            .query(
                "select session, peer, state, queries, bytes_in, bytes_out \
                 from sys.sessions order by session",
            )
            .map_err(|e| e.to_string())?;
        let inflight = client
            .query(
                "select session, query_id, state, elapsed_us, snapshot_version, mode, sql \
                 from sys.queries order by elapsed_us desc",
            )
            .map_err(|e| e.to_string())?;
        let recent = client
            .query(
                "select query_id, session, wall_us, rows, best_route, error \
                 from sys.query_log order by seq desc limit 10",
            )
            .map_err(|e| e.to_string())?;
        let stats = client.stats().map_err(|e| e.to_string())?;

        if !once {
            // Clear and home, like top(1); --once stays script-friendly.
            print!("\x1b[2J\x1b[H");
        }
        println!(
            "tpcds top — {addr}  snapshot v{}  sessions {}  inflight {}",
            stats.get("version").and_then(|j| j.as_i64()).unwrap_or(0),
            stats
                .get("sessions_active")
                .and_then(|j| j.as_i64())
                .unwrap_or(0),
            stats
                .get("queries_inflight")
                .and_then(|j| j.as_i64())
                .unwrap_or(0),
        );
        let render = |title: &str, r: &tpcds_core::server::RemoteResult| {
            let qr = tpcds_core::QueryResult {
                columns: r.columns.clone(),
                rows: r.rows.clone(),
            };
            println!("\n{title}");
            print!("{}", qr.to_table(20));
        };
        render("SESSIONS", &sessions);
        render("IN-FLIGHT QUERIES", &inflight);
        render("RECENT QUERIES (sys.query_log, newest first)", &recent);

        if once {
            return Ok(());
        }
        std::io::stdout().flush().ok();
        std::thread::sleep(std::time::Duration::from_millis(interval_ms.max(100)));
    }
}
