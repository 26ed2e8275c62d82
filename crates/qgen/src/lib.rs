//! # tpcds-qgen
//!
//! The TPC-DS query generator ("dsqgen"): a template mini-language with
//! comparability-zone-aware substitution generators, the 99-query workload
//! re-created from the public query set, and per-stream query permutations
//! for the multi-stream execution rules.

#![warn(missing_docs)]

pub mod distributions;
pub mod iterative;
pub mod template;
mod templates_a;
mod templates_b;
mod templates_c;
mod templates_d;

pub use iterative::IterativeSequence;
pub use template::{GenExpr, QueryClass, Template, TemplateError};

use tpcds_dgen::SalesDateDistribution;
use tpcds_types::rng::ColumnRng;

/// The full 99-template TPC-DS workload.
#[derive(Debug, Clone)]
pub struct Workload {
    templates: Vec<Template>,
    dates: SalesDateDistribution,
}

impl Workload {
    /// Parses and returns the canonical 99-query workload.
    pub fn tpcds() -> Result<Workload, TemplateError> {
        let mut templates = Vec::with_capacity(99);
        for (id, src) in templates_a::sources()
            .into_iter()
            .chain(templates_b::sources())
            .chain(templates_c::sources())
            .chain(templates_d::sources())
        {
            templates.push(Template::parse(id, src)?);
        }
        templates.sort_by_key(|t| t.id);
        Ok(Workload {
            templates,
            dates: SalesDateDistribution::tpcds(),
        })
    }

    /// All templates, ordered by query number.
    pub fn templates(&self) -> &[Template] {
        &self.templates
    }

    /// The template for one query number.
    pub fn template(&self, id: u32) -> Option<&Template> {
        self.templates.iter().find(|t| t.id == id)
    }

    /// Number of distinct queries (99).
    pub fn len(&self) -> usize {
        self.templates.len()
    }

    /// Whether the workload is empty (never, for the canonical build).
    pub fn is_empty(&self) -> bool {
        self.templates.is_empty()
    }

    /// Instantiates one query for `(seed, stream)`.
    pub fn instantiate(&self, id: u32, seed: u64, stream: u64) -> Result<String, TemplateError> {
        let t = self
            .template(id)
            .ok_or_else(|| TemplateError(format!("no template {id}")))?;
        t.instantiate(seed, stream, &self.dates)
    }

    /// The query execution order for one stream: a seeded permutation of
    /// all 99 queries, different per stream, identical across runs — the
    /// dsqgen stream-ordering discipline.
    pub fn stream_order(&self, seed: u64, stream: u64) -> Vec<u32> {
        let mut rng = ColumnRng::at(seed, 0x5745_2545_414d, stream);
        rng.permutation(self.templates.len())
            .into_iter()
            .map(|i| self.templates[i].id)
            .collect()
    }

    /// Generates the full, ordered query sequence for one stream.
    pub fn stream_queries(
        &self,
        seed: u64,
        stream: u64,
    ) -> Result<Vec<(u32, String)>, TemplateError> {
        self.stream_order(seed, stream)
            .into_iter()
            .map(|id| Ok((id, self.instantiate(id, seed, stream)?)))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tpcds_types::rng::DEFAULT_SEED;

    #[test]
    fn ninety_nine_distinct_templates() {
        let w = Workload::tpcds().unwrap();
        assert_eq!(w.len(), 99);
        let ids: Vec<u32> = w.templates().iter().map(|t| t.id).collect();
        assert_eq!(ids, (1..=99).collect::<Vec<u32>>());
    }

    #[test]
    fn every_template_instantiates_without_leftover_placeholders() {
        let w = Workload::tpcds().unwrap();
        for t in w.templates() {
            for stream in 0..3 {
                let sql = w.instantiate(t.id, DEFAULT_SEED, stream).unwrap();
                assert!(!sql.contains('['), "q{} leaked a placeholder:\n{sql}", t.id);
                assert!(sql.len() > 50, "q{} suspiciously short", t.id);
            }
        }
    }

    #[test]
    fn every_template_parses_on_the_engine() {
        // Parse-only check: no catalog needed.
        let w = Workload::tpcds().unwrap();
        for t in w.templates() {
            let sql = w.instantiate(t.id, DEFAULT_SEED, 0).unwrap();
            tpcds_engine::parser::parse(&sql)
                .unwrap_or_else(|e| panic!("q{} does not parse: {e}\n{sql}", t.id));
        }
    }

    #[test]
    fn every_template_binds_against_the_schema() {
        let db = tpcds_engine::Database::new();
        let mut txn = db.begin();
        tpcds_engine::create_tpcds_tables(&mut txn, &tpcds_schema::Schema::tpcds()).unwrap();
        txn.commit();
        let w = Workload::tpcds().unwrap();
        for t in w.templates() {
            let sql = w.instantiate(t.id, DEFAULT_SEED, 0).unwrap();
            tpcds_engine::plan_sql(&db, &sql)
                .unwrap_or_else(|e| panic!("q{} does not bind: {e}\n{sql}", t.id));
        }
    }

    #[test]
    fn all_query_classes_represented() {
        use std::collections::HashMap;
        let w = Workload::tpcds().unwrap();
        let mut by_class: HashMap<QueryClass, usize> = HashMap::new();
        for t in w.templates() {
            *by_class.entry(t.class).or_default() += 1;
        }
        for class in [
            QueryClass::AdHoc,
            QueryClass::Reporting,
            QueryClass::Hybrid,
            QueryClass::IterativeOlap,
            QueryClass::DataMining,
        ] {
            assert!(by_class.contains_key(&class), "no {class:?} queries");
        }
        // The ad-hoc part (store + web) should dominate, as in TPC-DS where
        // the catalog channel is 25% of the data set.
        assert!(by_class[&QueryClass::AdHoc] > by_class[&QueryClass::Reporting]);
    }

    #[test]
    fn stream_orders_are_permutations_and_differ() {
        let w = Workload::tpcds().unwrap();
        let s0 = w.stream_order(DEFAULT_SEED, 0);
        let s1 = w.stream_order(DEFAULT_SEED, 1);
        assert_ne!(s0, s1);
        let mut sorted = s0.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (1..=99).collect::<Vec<u32>>());
        // Deterministic.
        assert_eq!(s0, w.stream_order(DEFAULT_SEED, 0));
    }

    #[test]
    fn substitutions_vary_across_streams() {
        let w = Workload::tpcds().unwrap();
        let a = w.instantiate(3, DEFAULT_SEED, 0).unwrap();
        let b = w.instantiate(3, DEFAULT_SEED, 1).unwrap();
        assert_ne!(a, b, "bind variables should differ between streams");
    }
}

#[cfg(test)]
mod classification_tests {
    use super::*;

    /// Derives which parts of the schema a template's SQL references.
    fn referenced_parts(sql: &str) -> (bool, bool) {
        let sql = sql.to_lowercase();
        // Inventory is shared between the catalog and web channels
        // (paper §2.2); the q21/q22-style pure-inventory reports are
        // classified with the reporting part here.
        let reporting = [
            "catalog_sales",
            "catalog_returns",
            "catalog_page",
            "call_center",
            "inventory",
        ]
        .iter()
        .any(|t| sql.contains(t));
        let adhoc = [
            "store_sales",
            "store_returns",
            "web_sales",
            "web_returns",
            "web_site",
            "web_page",
            " store ",
            " store,",
            ", store",
            "store\n",
        ]
        .iter()
        .any(|t| sql.contains(t));
        (adhoc, reporting)
    }

    #[test]
    fn class_tags_match_referenced_channels() {
        // Paper §2.2: "queries referencing the Catalog channel are
        // reporting queries" (with hybrids touching both). Check the
        // explicit tags against the tables each template actually names.
        let w = Workload::tpcds().unwrap();
        for t in w.templates() {
            let sql = w
                .instantiate(t.id, tpcds_types::rng::DEFAULT_SEED, 0)
                .unwrap();
            let (adhoc, reporting) = referenced_parts(&sql);
            match t.class {
                QueryClass::Reporting => assert!(
                    reporting,
                    "q{} tagged reporting but touches no catalog table",
                    t.id
                ),
                QueryClass::AdHoc => assert!(
                    !reporting,
                    "q{} tagged ad-hoc but touches the catalog channel",
                    t.id
                ),
                QueryClass::Hybrid => assert!(
                    adhoc && reporting,
                    "q{} tagged hybrid but does not touch both parts",
                    t.id
                ),
                // Iterative and mining classifications are orthogonal to
                // the channel split (paper: "can be classified as either
                // ad-hoc or reporting").
                QueryClass::IterativeOlap | QueryClass::DataMining => {}
            }
        }
    }

    #[test]
    fn templates_collectively_cover_every_table() {
        // Paper §4.1: the query set covers "the entire data set of all
        // TPC-DS tables".
        let w = Workload::tpcds().unwrap();
        let mut all_sql = String::new();
        for t in w.templates() {
            all_sql.push_str(&w.instantiate(t.id, 1, 0).unwrap().to_lowercase());
            all_sql.push('\n');
        }
        for table in tpcds_schema::tables::TABLE_NAMES {
            assert!(all_sql.contains(table), "no query references {table}");
        }
    }

    #[test]
    fn aggregate_exchange_varies_the_function() {
        // Paper §4.1: "more complex text substitutions ... such as
        // exchanging aggregations, such as max, min".
        let w = Workload::tpcds().unwrap();
        let mut seen = std::collections::HashSet::new();
        for stream in 0..40 {
            let sql = w
                .instantiate(25, tpcds_types::rng::DEFAULT_SEED, stream)
                .unwrap();
            for f in [
                "sum(ss_net_profit)",
                "min(ss_net_profit)",
                "max(ss_net_profit)",
                "avg(ss_net_profit)",
            ] {
                if sql.contains(f) {
                    seen.insert(f);
                }
            }
        }
        assert!(seen.len() >= 3, "aggregate exchange too narrow: {seen:?}");
    }
}

impl Workload {
    /// Templates of one classification (ad-hoc, reporting, ...).
    pub fn by_class(&self, class: QueryClass) -> Vec<&Template> {
        self.templates.iter().filter(|t| t.class == class).collect()
    }

    /// Count of templates per classification, ordered ad-hoc, reporting,
    /// hybrid, iterative, mining.
    pub fn class_census(&self) -> [(QueryClass, usize); 5] {
        let count = |c| self.by_class(c).len();
        [
            (QueryClass::AdHoc, count(QueryClass::AdHoc)),
            (QueryClass::Reporting, count(QueryClass::Reporting)),
            (QueryClass::Hybrid, count(QueryClass::Hybrid)),
            (QueryClass::IterativeOlap, count(QueryClass::IterativeOlap)),
            (QueryClass::DataMining, count(QueryClass::DataMining)),
        ]
    }
}

#[cfg(test)]
mod census_tests {
    use super::*;

    #[test]
    fn class_census_sums_to_99() {
        let w = Workload::tpcds().unwrap();
        let total: usize = w.class_census().iter().map(|(_, n)| n).sum();
        assert_eq!(total, 99);
    }

    #[test]
    fn by_class_filters() {
        let w = Workload::tpcds().unwrap();
        for t in w.by_class(QueryClass::Reporting) {
            assert_eq!(t.class, QueryClass::Reporting);
        }
        assert!(!w.by_class(QueryClass::AdHoc).is_empty());
    }
}
