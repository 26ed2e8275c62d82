//! Subcommand implementations for the `tpcds` binary.

use std::io::{BufRead, Write};
use std::path::PathBuf;
use tpcds_core::dgen::flatfile;
use tpcds_core::runner::{self, AuxLevel, BenchmarkConfig, PriceModel};
use tpcds_core::schema::{graph, Schema, SchemaStats};
use tpcds_core::{Generator, TpcDs, Workload};

type Result<T> = std::result::Result<T, String>;

/// The flags of one subcommand: `--name value` pairs and `--flag`
/// switches, each declared by the subcommand. An argument it does not
/// declare, or a value flag without its value, is an error that shows the
/// subcommand's usage; `--help` / `-h` prints the usage and exits 0
/// before the subcommand does any work.
struct Flags<'a> {
    values: Vec<(&'a str, &'a str)>,
    switches: Vec<&'a str>,
}

impl<'a> Flags<'a> {
    /// Parses `args` of subcommand `cmd`, whose flags taking a value are
    /// `values` and whose switches are `switches`.
    fn new(cmd: &str, args: &'a [String], values: &[&str], switches: &[&str]) -> Result<Self> {
        let mut flags = Flags {
            values: Vec::new(),
            switches: Vec::new(),
        };
        let mut args = args.iter().map(String::as_str);
        while let Some(arg) = args.next() {
            if arg == "--help" || arg == "-h" {
                println!("{}", usage_of(cmd));
                std::process::exit(0);
            } else if values.contains(&arg) {
                let value = args
                    .next()
                    .ok_or_else(|| format!("{arg} needs a value\n\n{}", usage_of(cmd)))?;
                flags.values.push((arg, value));
            } else if switches.contains(&arg) {
                flags.switches.push(arg);
            } else {
                return Err(format!("unknown argument {arg:?}\n\n{}", usage_of(cmd)));
            }
        }
        Ok(flags)
    }

    fn value(&self, name: &str) -> Option<&'a str> {
        (self.values.iter())
            .find(|(flag, _)| *flag == name)
            .map(|(_, value)| *value)
    }

    fn has(&self, name: &str) -> bool {
        self.switches.contains(&name)
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

/// The usage of subcommand `cmd`: its line of the toolkit's usage.
fn usage_of(cmd: &str) -> String {
    let prefix = format!("tpcds {cmd} ");
    let line = (crate::usage().lines())
        .find(|l| l.trim_start().starts_with(&prefix))
        .unwrap_or("");
    format!("USAGE:\n{line}")
}

/// `tpcds dsdgen` — write flat files.
pub fn dsdgen(args: &[String]) -> Result<()> {
    let flags = Flags::new(
        "dsdgen",
        args,
        &["--scale", "--dir", "--table", "--parallel"],
        &[],
    )?;
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
    Ok(())
}

/// `tpcds dsqgen` — write query streams.
pub fn dsqgen(args: &[String]) -> Result<()> {
    let flags = Flags::new(
        "dsqgen",
        args,
        &["--scale", "--streams", "--query", "--dir"],
        &[],
    )?;
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
    let flags = Flags::new(
        "run",
        args,
        &[
            "--scale",
            "--streams",
            "--queries",
            "--threads",
            "--metrics-addr",
        ],
        &["--no-aux", "--via-server", "--json"],
    )?;
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
    let flags = Flags::new("query", args, &["--scale", "--id", "--sql"], &["--explain"])?;
    let (tpcds, sql) = load_and_resolve_sql(&flags)?;
    if flags.has("--explain") {
        println!("{}", tpcds.explain(&sql).map_err(|e| e.to_string())?);
    }
    let started = std::time::Instant::now();
    let result = tpcds.query(&sql).map_err(|e| e.to_string())?;
    println!("{}", result.to_table(40));
    println!("({} rows in {:.2?})", result.rows.len(), started.elapsed());
    Ok(())
}

/// `tpcds explain` — the plan tree; `--analyze` executes the statement and
/// annotates every operator with `rows=`, `elapsed=` and `loops=` actuals.
pub fn explain(args: &[String]) -> Result<()> {
    let flags = Flags::new(
        "explain",
        args,
        &["--scale", "--id", "--sql"],
        &["--analyze"],
    )?;
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

/// `tpcds shell` — interactive SQL.
pub fn shell(args: &[String]) -> Result<()> {
    let flags = Flags::new("shell", args, &["--scale"], &[])?;
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
    let flags = Flags::new("profile", args, &["--scale", "--table", "--limit"], &[])?;
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
    let flags = Flags::new("schema", args, &[], &["--stats", "--dot", "--ddl"])?;
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
    let flags = Flags::new(
        "serve",
        args,
        &[
            "--scale",
            "--addr",
            "--max-queries",
            "--idle-timeout",
            "--slow-query-ms",
            "--metrics-addr",
        ],
        &["--no-aux"],
    )?;
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
    let slow_query_ms: u64 = flags.parse("--slow-query-ms", 0)?;

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
        slow_query_ms,
        ..tpcds_core::server::ServerConfig::default()
    };
    if max_queries > 0 {
        config.max_concurrent_queries = max_queries;
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
    eprintln!("server stopped");
    Ok(())
}

/// `tpcds synth` — synthesize a seeded SQL workload and soak it through
/// the row-vs-batch differential (optionally over TCP, with data
/// maintenance committing mid-run). Prints per-shape-class tallies; any
/// mismatch prints its minimized reproducer on stderr and fails.
pub fn synth(args: &[String]) -> Result<()> {
    use tpcds_core::synth::{run_soak, SoakConfig, SynthConfig};

    let flags = Flags::new(
        "synth",
        args,
        &["--scale", "--queries", "--streams", "--seed", "--dm"],
        &["--via-server"],
    )?;
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
            "  {class:<18} {:>5} queries  {:>5} empty  {:>9} oracle rows",
            stat.queries, stat.empty_results, stat.oracle_rows
        );
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
    let flags = Flags::new(
        "client",
        args,
        &["--addr", "--sql", "--pin", "--query-id"],
        &["--explain", "--ping", "--stats", "--shutdown"],
    )?;
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
    let flags = Flags::new("top", args, &["--addr", "--interval-ms"], &["--once"])?;
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
