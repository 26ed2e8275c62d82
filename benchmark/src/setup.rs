//! Set-up: generate, load, build the reporting structures, start the
//! server. Each step is timed from outside; the sum is `setup_s`.

use std::sync::Arc;
use std::time::{Duration, Instant};

use tpcds_core::engine::{ColumnarMode, Database, ExecOptions, QueryResult};
use tpcds_core::server::{Client, QueryOpts, RemoteResult, Server, ServerConfig};
use tpcds_core::{maint, runner, Generator};

/// When each set-up step ended; a step starts where the last one ended.
#[derive(Debug, Clone, Copy)]
pub struct SetupTimes {
    pub started: Instant,
    /// `maint::load_initial_population` returned.
    pub loaded: Instant,
    /// `runner::build_reporting_aux` returned.
    pub aux_built: Instant,
    /// `Server::start` returned.
    pub serving: Instant,
}

impl SetupTimes {
    /// The load test of Figure 11: everything before the database can
    /// answer queries, without bringing the server up.
    pub fn t_load(&self) -> Duration {
        self.aux_built - self.started
    }

    pub fn total_s(&self) -> f64 {
        (self.serving - self.started).as_secs_f64()
    }
}

/// A loaded database behind a running loopback server.
pub struct Instance {
    pub generator: Generator,
    pub db: Arc<Database>,
    pub server: Server,
    pub times: SetupTimes,
}

/// Generates and loads `sf` under `seed`, then serves it on a free
/// loopback port with one admission permit per client.
pub fn set_up(sf: f64, seed: u64, clients: usize) -> Result<Instance, String> {
    let started = Instant::now();
    let generator = Generator::with_seed(sf, seed);
    let db = Arc::new(Database::new());
    maint::load_initial_population(&db, &generator).map_err(|e| format!("load: {e}"))?;
    let loaded = Instant::now();
    runner::build_reporting_aux(&db).map_err(|e| format!("reporting aux: {e}"))?;
    let aux_built = Instant::now();
    // Every field is set here, so no result depends on `ServerConfig`'s
    // environment-driven defaults.
    let config = ServerConfig {
        addr: "127.0.0.1:0".to_string(),
        max_concurrent_queries: clients,
        idle_timeout: Duration::from_secs(60),
        slow_query_ms: 0,
    };
    let server =
        Server::start(Arc::clone(&db), config).map_err(|e| format!("server start: {e}"))?;
    let serving = Instant::now();
    Ok(Instance {
        generator,
        db,
        server,
        times: SetupTimes {
            started,
            loaded,
            aux_built,
            serving,
        },
    })
}

impl Instance {
    pub fn connect(&self) -> Result<Client, String> {
        let mut client =
            Client::connect(self.server.local_addr()).map_err(|e| format!("connect: {e}"))?;
        client
            .set_timeout(Some(Duration::from_secs(120)))
            .map_err(|e| format!("client timeout: {e}"))?;
        Ok(client)
    }

    /// Rows of every table, in schema order, for the environment header.
    pub fn rows_per_table(&self) -> Vec<(String, usize)> {
        self.generator
            .schema()
            .tables()
            .iter()
            .map(|t| (t.name.to_string(), self.db.row_count(t.name)))
            .collect()
    }
}

/// How the load generator asks the server to run a query: columnar
/// routing left to the engine, worker count always explicit.
pub fn query_opts(workers: usize, query_id: String) -> QueryOpts {
    QueryOpts {
        pin: None,
        mode: Some("auto"),
        threads: Some(workers),
        query_id: Some(query_id),
    }
}

/// The same settings for an in-process call.
pub fn exec_opts(workers: usize) -> ExecOptions {
    ExecOptions {
        columnar: ColumnarMode::Auto,
        threads: Some(workers),
    }
}

/// The oracle: the row path on one worker, which shares no operator
/// code with the columnar kernels.
pub const ORACLE: ExecOptions = ExecOptions {
    columnar: ColumnarMode::Off,
    threads: Some(1),
};

/// A wire result in the shape `runner::fingerprint` takes.
pub fn into_query_result(remote: RemoteResult) -> QueryResult {
    QueryResult {
        columns: remote.columns,
        rows: remote.rows,
    }
}
