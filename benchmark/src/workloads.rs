//! The four workloads: what each one issues, at which size, with how
//! many clients and morsel workers. Everything here is derived from the
//! seed; the system under test only ever sees the generated SQL.

use tpcds_core::{Generator, Workload};

/// Which of the four load shapes a workload runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// The full Figure 11 sequence: load, query run 1, data maintenance,
    /// query run 2.
    Fig11,
    /// One client, all workers per query, one pass over the templates.
    Power,
    /// One in-process writer committing refresh sets beside one reader.
    DmMixed,
    /// Many tiny statements: per-request overhead only.
    Short,
}

/// Size and shape of one workload.
#[derive(Debug, Clone, Copy)]
pub struct WorkloadSpec {
    pub name: &'static str,
    pub kind: Kind,
    /// Scale factor of the generated data.
    pub sf: f64,
    /// Set-ups per run; `setup_s` is their median. Two at SF 0.2, where
    /// one set-up takes 4 s and the run has to stay inside its share of
    /// the driver's total time.
    pub setups: usize,
    /// The untraced pass re-runs one statement in this many on the row
    /// path; the traced pass re-runs every one it issues.
    pub verify_every: usize,
    /// The traced pass issues one statement of a round in this many (see
    /// [`thin`]), so that its three executions of each fit the run.
    pub traced_every: usize,
    /// Refresh sets the traced pass commits between its two client passes.
    pub traced_refresh_sets: u32,
}

/// The workloads in the order `BENCHMARK.json` lists them.
///
/// Sizes are the largest that keep a run inside its share of the
/// driver's total time on the 2-core reference box: `fig11` at SF 0.02
/// (one round is 16 s, 9 s of which is the wire floor) and the two
/// fact-heavy workloads at SF 0.2 (store_sales 93,897 rows = 12 morsels).
pub const WORKLOADS: [WorkloadSpec; 4] = [
    WorkloadSpec {
        name: "fig11",
        kind: Kind::Fig11,
        sf: 0.02,
        setups: 3,
        verify_every: 8,
        traced_every: 2,
        traced_refresh_sets: 1,
    },
    WorkloadSpec {
        name: "power",
        kind: Kind::Power,
        sf: 0.2,
        setups: 2,
        verify_every: 4,
        traced_every: 3,
        traced_refresh_sets: 1,
    },
    WorkloadSpec {
        name: "dm_mixed",
        kind: Kind::DmMixed,
        sf: 0.2,
        setups: 2,
        verify_every: 16,
        traced_every: 1,
        traced_refresh_sets: 3,
    },
    WorkloadSpec {
        name: "short",
        kind: Kind::Short,
        sf: 0.01,
        setups: 3,
        verify_every: 1,
        traced_every: 4,
        traced_refresh_sets: 1,
    },
];

/// Scale factor of every workload under `--smoke`.
pub const SMOKE_SF: f64 = 0.01;
/// `--smoke` issues every n-th statement of a round.
pub const SMOKE_EVERY: usize = 10;

impl WorkloadSpec {
    pub fn by_name(name: &str) -> Option<WorkloadSpec> {
        WORKLOADS.iter().copied().find(|w| w.name == name)
    }

    /// The smoke variant: tiny data, a tenth of the statements, one
    /// set-up. It checks schema and answers, not speed.
    pub fn smoke(self) -> WorkloadSpec {
        WorkloadSpec {
            sf: SMOKE_SF,
            setups: 1,
            traced_refresh_sets: 1,
            ..self
        }
    }

    /// Concurrent TCP clients, given `w` cores. Never more runnable load
    /// threads than cores: `w` clients of one worker, or one client of
    /// `w` workers.
    pub fn clients(&self, w: usize) -> usize {
        match self.kind {
            // Figure 12 asks three streams at the smallest scale factor.
            Kind::Fig11 => w.min(FIG12_MIN_STREAMS),
            Kind::Power | Kind::DmMixed => 1,
            Kind::Short => w,
        }
    }

    /// Morsel workers per query, given `w` cores.
    pub fn workers(&self, w: usize) -> usize {
        match self.kind {
            Kind::Power => w,
            Kind::Fig11 | Kind::DmMixed | Kind::Short => 1,
        }
    }
}

/// The fewest streams Figure 12 allows at any scale factor.
pub const FIG12_MIN_STREAMS: usize = 3;

/// Templates `power` leaves out. q72 clones rows through ten serial
/// hash joins and peaks above 3 GiB at SF 0.05; the other eighteen each
/// took over 0.45 s at SF 0.2 with two workers at the baseline commit
/// and together cost 20 s, twice the eighty that remain.
pub const POWER_EXCLUDED: [u32; 19] = [
    2, 4, 11, 13, 24, 31, 35, 47, 58, 61, 67, 70, 72, 74, 75, 78, 85, 95, 99,
];

/// The fact-scanning templates `dm_mixed`'s reader cycles through.
pub const READ_CYCLE: [u32; 8] = [3, 12, 20, 42, 52, 55, 96, 98];

/// Consecutive statements of one client that make a `short` round.
pub const SHORT_ROUND: usize = 50;

/// Statements of client 0's mix the traced pass draws from.
pub const SHORT_TRACED: usize = 600;

/// One statement of a workload.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Stmt {
    /// Template number, or the shape index of a `short` statement.
    pub id: u32,
    /// Paper §4 query class of a template; `None` for `short` shapes.
    pub class: Option<&'static str>,
    pub sql: String,
}

fn class_name(class: tpcds_core::QueryClass) -> &'static str {
    use tpcds_core::QueryClass::*;
    match class {
        AdHoc => "adhoc",
        Reporting => "reporting",
        Hybrid => "hybrid",
        IterativeOlap => "iterative",
        DataMining => "datamining",
    }
}

/// Keeps one statement of a round in `every`: templates by number, so
/// that every seed keeps the same templates, `short` statements by
/// position. The traced pass and `--smoke` thin their lists with it.
pub fn thin(round: Vec<Stmt>, every: usize) -> Vec<Stmt> {
    let every = every.max(1);
    round
        .into_iter()
        .enumerate()
        .filter(|(i, s)| match s.class {
            Some(_) => (s.id as usize).is_multiple_of(every),
            None => i % every == 0,
        })
        .map(|(_, s)| s)
        .collect()
}

/// The templates of `stream` in dsqgen's stream order, with that
/// stream's substitutions, minus `excluded`.
pub fn stream_statements(
    templates: &Workload,
    seed: u64,
    stream: u64,
    excluded: &[u32],
) -> Result<Vec<Stmt>, String> {
    templates
        .stream_order(seed, stream)
        .into_iter()
        .filter(|id| !excluded.contains(id))
        .map(|id| template_statement(templates, seed, stream, id))
        .collect()
}

fn template_statement(
    templates: &Workload,
    seed: u64,
    stream: u64,
    id: u32,
) -> Result<Stmt, String> {
    let template = templates
        .template(id)
        .ok_or_else(|| format!("no template {id}"))?;
    let sql = templates
        .instantiate(id, seed, stream)
        .map_err(|e| format!("template {id}: {e}"))?;
    Ok(Stmt {
        id,
        class: Some(class_name(template.class)),
        sql,
    })
}

/// `dm_mixed`'s fixed read cycle with stream-0 substitutions.
pub fn read_cycle(templates: &Workload, seed: u64) -> Result<Vec<Stmt>, String> {
    READ_CYCLE
        .iter()
        .map(|&id| template_statement(templates, seed, 0, id))
        .collect()
}

/// What one client issues in one round of `spec`: the list the traced
/// pass thins and decomposes.
pub fn round_statements(
    spec: &WorkloadSpec,
    templates: &Workload,
    generator: &Generator,
    seed: u64,
) -> Result<Vec<Stmt>, String> {
    match spec.kind {
        Kind::Fig11 => stream_statements(templates, seed, 0, &[]),
        Kind::Power => stream_statements(templates, seed, 0, &POWER_EXCLUDED),
        Kind::DmMixed => read_cycle(templates, seed),
        Kind::Short => Ok(ShortMix::new(generator, seed, 0)
            .take(SHORT_TRACED)
            .collect()),
    }
}

/// SplitMix64: the load generator's own random stream, so that the mix
/// does not depend on the generator crate it measures.
#[derive(Debug, Clone)]
pub struct SplitMix64(u64);

impl SplitMix64 {
    pub fn new(seed: u64) -> SplitMix64 {
        SplitMix64(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n`; `n` is far below 2^64, so the modulo bias is
    /// immaterial for a load mix.
    pub fn below(&mut self, n: u64) -> u64 {
        self.next_u64() % n.max(1)
    }
}

/// The six statement shapes of `short`, in shape-index order.
pub const SHORT_SHAPES: [&str; 6] = [
    "select_1",
    "item_by_pk",
    "store_by_pk",
    "date_by_pk",
    "count_store",
    "demographics_group_by",
];

/// Statements of each shape in one shuffled deck of the `short` mix.
const SHORT_DECK_PER_SHAPE: usize = 5;

/// The seeded `short` statement sequence of one client. Shapes come
/// from a deck holding each of the six equally often, reshuffled when it
/// runs out, so every seed issues the same multiset of shapes in its own
/// order; the point lookups draw surrogate keys that exist in the
/// generated data.
pub struct ShortMix<'a> {
    generator: &'a Generator,
    rng: SplitMix64,
    deck: Vec<u32>,
}

impl<'a> ShortMix<'a> {
    pub fn new(generator: &'a Generator, seed: u64, client: usize) -> ShortMix<'a> {
        let mut rng = SplitMix64::new(seed ^ 0x0053_484f_5254); // "SHORT"
        for _ in 0..=client {
            // Each client continues from a different point of the stream.
            rng = SplitMix64::new(rng.next_u64());
        }
        ShortMix {
            generator,
            rng,
            deck: Vec::new(),
        }
    }

    fn draw_shape(&mut self) -> u32 {
        if self.deck.is_empty() {
            let shapes = 0..SHORT_SHAPES.len() as u32;
            self.deck = shapes
                .cycle()
                .take(SHORT_SHAPES.len() * SHORT_DECK_PER_SHAPE)
                .collect();
            // Fisher-Yates.
            for i in (1..self.deck.len()).rev() {
                let j = self.rng.below(i as u64 + 1) as usize;
                self.deck.swap(i, j);
            }
        }
        self.deck.pop().expect("the deck was just refilled")
    }

    fn key(&mut self, table: &str) -> String {
        let row = self.rng.below(self.generator.row_count(table));
        self.generator.row(table, row)[0].to_string()
    }
}

impl Iterator for ShortMix<'_> {
    type Item = Stmt;

    fn next(&mut self) -> Option<Stmt> {
        let id = self.draw_shape();
        let sql = match id {
            0 => "select 1".to_string(),
            1 => format!(
                "select i_item_id, i_current_price from item where i_item_sk = {}",
                self.key("item")
            ),
            2 => format!(
                "select s_store_id, s_store_name from store where s_store_sk = {}",
                self.key("store")
            ),
            3 => format!(
                "select d_date, d_year, d_moy from date_dim where d_date_sk = {}",
                self.key("date_dim")
            ),
            4 => "select count(*) cnt from store".to_string(),
            _ => format!(
                "select cd_marital_status, cd_education_status, count(*) cnt \
                 from customer_demographics \
                 where cd_gender = 'F' and cd_dep_count = {} \
                 group by cd_marital_status, cd_education_status",
                self.rng.below(7)
            ),
        };
        Some(Stmt {
            id,
            class: None,
            sql,
        })
    }
}

/// One single-operator probe of a `crates/storage` kernel over
/// `store_sales` (joined to `date_dim` for the joins). SQL rather than
/// direct `par_*` calls, so the probes survive a change of the operator
/// contract.
pub fn probe_sql(probe: &str) -> &'static str {
    match probe {
        "filter" => {
            "select count(*) cnt from store_sales \
             where ss_quantity < 50 and ss_sales_price > 20"
        }
        "agg" => {
            "select ss_store_sk, sum(ss_ext_sales_price) total, count(*) cnt \
             from store_sales group by ss_store_sk"
        }
        "join" => {
            "select count(*) cnt from store_sales, date_dim \
             where ss_sold_date_sk = d_date_sk and d_moy = 11"
        }
        "join_agg" => {
            "select d_year, sum(ss_ext_sales_price) total from store_sales, date_dim \
             where ss_sold_date_sk = d_date_sk group by d_year"
        }
        "topn" => {
            "select ss_ticket_number, ss_item_sk, ss_net_paid from store_sales \
             order by ss_net_paid desc, ss_ticket_number, ss_item_sk limit 100"
        }
        "sort" => {
            "select ss_ticket_number, ss_item_sk from store_sales \
             order by ss_net_profit, ss_ticket_number, ss_item_sk"
        }
        "project" => "select ss_quantity * ss_sales_price + ss_ext_tax amount from store_sales",
        other => panic!("no probe called {other}"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn mix(seed: u64, client: usize, n: usize) -> Vec<Stmt> {
        let generator = Generator::with_seed(SMOKE_SF, seed);
        ShortMix::new(&generator, seed, client).take(n).collect()
    }

    #[test]
    fn short_mix_repeats_for_a_seed_and_differs_across_seeds_and_clients() {
        assert_eq!(mix(7, 0, 200), mix(7, 0, 200));
        assert_ne!(mix(7, 0, 200), mix(8, 0, 200));
        assert_ne!(mix(7, 0, 200), mix(7, 1, 200));
        // Every deck of thirty holds each shape five times, whatever the seed.
        for seed in [7, 8] {
            for deck in mix(seed, 0, 90).chunks(30) {
                for shape in 0..SHORT_SHAPES.len() as u32 {
                    assert_eq!(deck.iter().filter(|s| s.id == shape).count(), 5);
                }
            }
        }
    }

    #[test]
    fn read_cycle_repeats_for_a_seed_and_differs_across_seeds() {
        let templates = Workload::tpcds().expect("templates parse");
        let a = read_cycle(&templates, 7).expect("instantiates");
        assert_eq!(a, read_cycle(&templates, 7).expect("instantiates"));
        assert_ne!(a, read_cycle(&templates, 8).expect("instantiates"));
        assert_eq!(a.iter().map(|s| s.id).collect::<Vec<_>>(), READ_CYCLE);
    }

    #[test]
    fn power_list_is_the_stream_order_minus_the_excluded() {
        let templates = Workload::tpcds().expect("templates parse");
        let list = stream_statements(&templates, 7, 0, &POWER_EXCLUDED).expect("instantiates");
        assert_eq!(list.len(), 99 - POWER_EXCLUDED.len());
        assert!(list.iter().all(|s| !POWER_EXCLUDED.contains(&s.id)));
        assert!(list.iter().all(|s| s.class.is_some()));
        let all = stream_statements(&templates, 7, 0, &[]).expect("instantiates");
        assert_eq!(all.len(), 99);
    }

    #[test]
    fn load_never_exceeds_the_cores() {
        for w in [1, 2, 8] {
            for spec in WORKLOADS {
                assert!(spec.clients(w) * spec.workers(w) <= w, "{}", spec.name);
            }
        }
    }

    #[test]
    fn thin_keeps_the_same_templates_under_every_seed() {
        let templates = Workload::tpcds().expect("templates parse");
        let ids = |seed| {
            let round = stream_statements(&templates, seed, 0, &[]).expect("instantiates");
            let mut ids: Vec<u32> = thin(round, 3).iter().map(|s| s.id).collect();
            ids.sort_unstable();
            ids
        };
        assert_eq!(ids(7), ids(8));
        assert_eq!(
            ids(7),
            (1..=99).filter(|id| id % 3 == 0).collect::<Vec<u32>>()
        );
        let generator = Generator::with_seed(SMOKE_SF, 7);
        let mix: Vec<Stmt> = ShortMix::new(&generator, 7, 0).take(40).collect();
        let every_fourth: Vec<Stmt> = mix.iter().step_by(4).cloned().collect();
        assert_eq!(thin(mix.clone(), 4), every_fourth);
        assert_eq!(thin(mix.clone(), 0), mix);
    }

    #[test]
    fn every_probe_has_sql() {
        for p in crate::spec::PROBES {
            assert!(probe_sql(p).contains("store_sales"));
        }
    }
}
