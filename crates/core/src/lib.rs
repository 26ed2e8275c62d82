//! # tpcds-core
//!
//! The one-stop facade over the TPC-DS reproduction: build a data set,
//! load it into the bundled SQL engine, run queries or the full benchmark,
//! and score it — everything *The Making of TPC-DS* (VLDB 2006) describes,
//! as a library.
//!
//! ```
//! use tpcds_core::TpcDs;
//!
//! let tpcds = TpcDs::builder().scale_factor(0.005).build().unwrap();
//! let result = tpcds
//!     .query("select count(*) cnt from store_sales")
//!     .unwrap();
//! assert_eq!(result.columns, vec!["cnt"]);
//! ```

#![warn(missing_docs)]

pub use tpcds_dgen as dgen;
pub use tpcds_engine as engine;
pub use tpcds_maint as maint;
pub use tpcds_obs as obs;
pub use tpcds_qgen as qgen;
pub use tpcds_runner as runner;
pub use tpcds_schema as schema;
pub use tpcds_server as server;
pub use tpcds_storage as storage;
pub use tpcds_synth as synth;
pub use tpcds_types as types;

pub use tpcds_dgen::{Generator, SalesDateDistribution, SalesZone};
pub use tpcds_engine::{Database, QueryResult};
pub use tpcds_qgen::{QueryClass, Workload};
pub use tpcds_runner::{
    min_streams, qphds, run_benchmark, AuxLevel, BenchmarkConfig, BenchmarkResult, PriceModel,
};
pub use tpcds_schema::{Schema, SchemaStats};

use tpcds_engine::Result;

/// A generated-and-loaded TPC-DS instance: schema + data + engine +
/// workload, ready to query.
#[derive(Debug)]
pub struct TpcDs {
    generator: Generator,
    workload: Workload,
    db: Database,
}

/// Builder for [`TpcDs`].
#[derive(Debug, Clone)]
pub struct TpcDsBuilder {
    scale_factor: f64,
    seed: u64,
    reporting_aux: bool,
}

impl Default for TpcDsBuilder {
    fn default() -> Self {
        TpcDsBuilder {
            scale_factor: 0.01,
            seed: tpcds_types::rng::DEFAULT_SEED,
            reporting_aux: false,
        }
    }
}

impl TpcDsBuilder {
    /// Sets the scale factor (GB of raw data; fractional values give
    /// laptop-sized "virtual" data sets).
    pub fn scale_factor(mut self, sf: f64) -> Self {
        self.scale_factor = sf;
        self
    }

    /// Sets the RNG seed.
    pub fn seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Builds the reporting part's monthly catalog summary
    /// (`catalog_monthly_summary`) after the load.
    pub fn reporting_aux(mut self, on: bool) -> Self {
        self.reporting_aux = on;
        self
    }

    /// Generates the data set and loads it into a fresh engine instance.
    pub fn build(self) -> Result<TpcDs> {
        let generator = Generator::with_seed(self.scale_factor, self.seed);
        let workload =
            Workload::tpcds().map_err(|e| tpcds_engine::EngineError::Catalog(e.to_string()))?;
        let db = Database::new();
        tpcds_maint::load_initial_population(&db, &generator)?;
        if self.reporting_aux {
            tpcds_runner::build_reporting_aux(&db)?;
        }
        Ok(TpcDs {
            generator,
            workload,
            db,
        })
    }
}

impl TpcDs {
    /// Starts building an instance.
    pub fn builder() -> TpcDsBuilder {
        TpcDsBuilder::default()
    }

    /// The loaded database.
    pub fn database(&self) -> &Database {
        &self.db
    }

    /// The data generator behind this instance.
    pub fn generator(&self) -> &Generator {
        &self.generator
    }

    /// The 99-query workload.
    pub fn workload(&self) -> &Workload {
        &self.workload
    }

    /// Runs arbitrary SQL against the instance.
    pub fn query(&self, sql: &str) -> Result<QueryResult> {
        tpcds_engine::query(&self.db, sql)
    }

    /// Instantiates and runs one of the 99 benchmark queries for a stream.
    pub fn run_benchmark_query(&self, id: u32, stream: u64) -> Result<QueryResult> {
        let sql = self
            .workload
            .instantiate(id, self.generator.seed(), stream)
            .map_err(|e| tpcds_engine::EngineError::Catalog(e.to_string()))?;
        self.query(&sql)
    }

    /// The SQL text of one benchmark query for a stream.
    pub fn benchmark_sql(&self, id: u32, stream: u64) -> Result<String> {
        self.workload
            .instantiate(id, self.generator.seed(), stream)
            .map_err(|e| tpcds_engine::EngineError::Catalog(e.to_string()))
    }

    /// Applies one data-maintenance refresh run (the 12 operations).
    pub fn run_maintenance(&self, refresh_seq: u32) -> Result<maint::MaintenanceReport> {
        tpcds_maint::run_maintenance(&self.db, &self.generator, refresh_seq)
    }

    /// EXPLAIN output for a SQL statement: the plan tree with `est_rows=`
    /// cardinality estimates from the collected table statistics.
    pub fn explain(&self, sql: &str) -> Result<String> {
        tpcds_engine::explain_sql(&self.db, sql)
    }

    /// EXPLAIN ANALYZE: executes the statement and returns the plan tree
    /// annotated with per-operator actuals plus the result itself.
    pub fn explain_analyze(&self, sql: &str) -> Result<tpcds_engine::AnalyzedResult> {
        tpcds_engine::query_analyze(&self.db, sql)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn build_load_query() {
        let t = TpcDs::builder().scale_factor(0.005).build().unwrap();
        let r = t.query("select count(*) c from customer").unwrap();
        assert_eq!(
            r.rows[0][0].as_int().unwrap() as u64,
            t.generator().row_count("customer")
        );
    }

    #[test]
    fn benchmark_query_runs() {
        let t = TpcDs::builder().scale_factor(0.005).build().unwrap();
        let r = t.run_benchmark_query(52, 0).unwrap();
        assert!(!r.columns.is_empty());
    }

    #[test]
    fn explain_shows_plan() {
        let t = TpcDs::builder().scale_factor(0.005).build().unwrap();
        let plan = t
            .explain("select count(*) from store_sales, item where ss_item_sk = i_item_sk")
            .unwrap();
        assert!(plan.contains("HashJoin"), "{plan}");
    }

    #[test]
    fn maintenance_applies() {
        let t = TpcDs::builder().scale_factor(0.005).build().unwrap();
        let rep = t.run_maintenance(0).unwrap();
        assert_eq!(rep.ops.len(), 12);
    }
}
