//! The rule-based query synthesizer.
//!
//! A [`Synthesizer`] is built once from a loaded database: it captures
//! the TPC-DS schema's FK graph plus a frozen copy of every table's
//! [`ColumnStats`], then turns `(seed, qid)` coordinates into
//! [`QuerySpec`]s deterministically — the same counter-based RNG
//! discipline the data generator uses, so query `qid` of a stream is the
//! same SQL on every machine and every rerun regardless of thread
//! interleaving.
//!
//! Joins are walked along declared FK edges with tunable depth;
//! predicate literals come from the column histograms, so a requested
//! selectivity (50% / 20% / 5% / 1%) lands near its target instead of
//! degenerating to always-empty or always-full scans. Four adversarial
//! classes deliberately break the statistics' assumptions: provably
//! empty predicates, `NULLIF`-poisoned join keys, modulo-collapsed skew
//! joins, and LIMITs pinned to the 64k segment boundary.

use std::collections::BTreeMap;
use std::sync::Arc;

use tpcds_engine::Database;
use tpcds_schema::{Column, ColumnType, Schema, TableDef, TableKind};
use tpcds_storage::stats::{ColumnStats, TableStats};
use tpcds_types::rng::ColumnRng;
use tpcds_types::{Date, Value};

use crate::spec::{sql_literal, Item, JoinEdge, OnMode, QuerySpec, ShapeClass};

/// Logical RNG stream id for query synthesis (distinct from every table
/// stream, which live at `(idx + 1) << 16`).
pub const SYNTH_STREAM: u64 = 0x5EED_0008;

/// Tunables for the synthesizer. All defaults are what `tpcds-bench
/// synth` and CI run with.
#[derive(Clone, Debug)]
pub struct SynthConfig {
    /// RNG seed; `(seed, qid)` fully determines a query.
    pub seed: u64,
    /// Maximum FK-join depth for walked joins.
    pub max_join_depth: usize,
    /// Fraction of queries drawn from the adversarial classes.
    pub adversarial_frac: f64,
}

impl Default for SynthConfig {
    fn default() -> Self {
        SynthConfig {
            seed: tpcds_types::rng::DEFAULT_SEED,
            max_join_depth: 3,
            adversarial_frac: 0.3,
        }
    }
}

/// Frozen per-table facts captured at construction time. Statistics are
/// immutable `Arc` snapshots, so synthesis stays deterministic even
/// while concurrent DM commits publish fresher stats.
struct TableInfo {
    rows: u64,
    stats: Arc<TableStats>,
}

/// The seeded, deterministic SQL generator.
pub struct Synthesizer {
    schema: Schema,
    info: BTreeMap<&'static str, TableInfo>,
    cfg: SynthConfig,
}

impl Synthesizer {
    /// Captures schema + statistics from the database head snapshot.
    pub fn from_db(db: &Database, cfg: SynthConfig) -> Synthesizer {
        let schema = Schema::tpcds();
        let snap = db.snapshot();
        let mut info = BTreeMap::new();
        for t in schema.tables() {
            if let Ok(table) = snap.table(t.name) {
                info.insert(
                    t.name,
                    TableInfo {
                        rows: table.data().rows as u64,
                        stats: table.stats(),
                    },
                );
            }
        }
        Synthesizer { schema, info, cfg }
    }

    /// The configuration this synthesizer was built with.
    pub fn config(&self) -> &SynthConfig {
        &self.cfg
    }

    fn rows(&self, table: &str) -> u64 {
        self.info.get(table).map(|i| i.rows).unwrap_or(0)
    }

    fn stats(&self, table: &str) -> Option<&TableStats> {
        self.info.get(table).map(|i| &*i.stats)
    }

    fn def(&self, table: &str) -> &TableDef {
        self.schema.table(table).expect("known table")
    }

    /// Column + stats pairs of `table`, in DDL order.
    fn columns_with_stats(&self, table: &str) -> Vec<(&Column, Option<&ColumnStats>)> {
        let def = self.def(table);
        let stats = self.stats(table);
        def.columns
            .iter()
            .enumerate()
            .map(|(i, c)| (c, stats.and_then(|s| s.column(i))))
            .collect()
    }

    /// Generates query `qid` of the stream. Same `(seed, qid)` → same
    /// spec, independent of call order.
    pub fn generate(&self, qid: u64) -> QuerySpec {
        let mut rng = ColumnRng::at(self.cfg.seed, SYNTH_STREAM, qid);
        let class = self.pick_class(&mut rng);
        match class {
            ShapeClass::ScanFilter => self.gen_scan_filter(&mut rng),
            ShapeClass::JoinChain => self.gen_join_chain(&mut rng),
            ShapeClass::JoinAgg => self.gen_join_agg(&mut rng),
            ShapeClass::AggSort => self.gen_agg_sort(&mut rng),
            ShapeClass::Window => self.gen_window(&mut rng),
            ShapeClass::SetOp => self.gen_set_op(&mut rng),
            ShapeClass::DistinctTail => self.gen_distinct(&mut rng),
            ShapeClass::ExprCompute => self.gen_expr_compute(&mut rng),
            ShapeClass::EmptyResult => self.gen_empty_result(&mut rng),
            ShapeClass::NullKeyJoin => self.gen_null_key_join(&mut rng),
            ShapeClass::SkewJoin => self.gen_skew_join(&mut rng),
            ShapeClass::LimitBoundary => self.gen_limit_boundary(&mut rng),
        }
    }

    fn pick_class(&self, rng: &mut ColumnRng) -> ShapeClass {
        if rng.chance(self.cfg.adversarial_frac) {
            let adversarial = [
                ShapeClass::EmptyResult,
                ShapeClass::NullKeyJoin,
                ShapeClass::SkewJoin,
                ShapeClass::LimitBoundary,
            ];
            adversarial[rng.uniform_i64(0, 3) as usize]
        } else {
            // Join-bearing shapes get most of the weight: they are where
            // routing and differential bugs live.
            let weights = [1.0, 2.0, 3.0, 1.5, 1.5, 1.0, 1.0, 2.0];
            let organic = [
                ShapeClass::ScanFilter,
                ShapeClass::JoinChain,
                ShapeClass::JoinAgg,
                ShapeClass::AggSort,
                ShapeClass::Window,
                ShapeClass::SetOp,
                ShapeClass::DistinctTail,
                ShapeClass::ExprCompute,
            ];
            organic[rng.weighted_index(&weights)]
        }
    }

    // ----- table / column pickers -------------------------------------

    /// Fact tables present with at least one row.
    fn facts(&self) -> Vec<&'static str> {
        self.schema
            .tables()
            .iter()
            .filter(|t| t.kind == TableKind::Fact && self.rows(t.name) > 0)
            .map(|t| t.name)
            .collect()
    }

    /// Any populated table (dimensions included) with enough rows for
    /// predicates to be interesting.
    fn populated(&self, min_rows: u64) -> Vec<&'static str> {
        self.schema
            .tables()
            .iter()
            .filter(|t| self.rows(t.name) >= min_rows)
            .map(|t| t.name)
            .collect()
    }

    fn pick_fact(&self, rng: &mut ColumnRng) -> &'static str {
        let facts = self.facts();
        if facts.is_empty() {
            return "date_dim";
        }
        facts[rng.uniform_i64(0, facts.len() as i64 - 1) as usize]
    }

    fn pick_table(&self, rng: &mut ColumnRng) -> &'static str {
        let tables = self.populated(50);
        if tables.is_empty() {
            return "date_dim";
        }
        tables[rng.uniform_i64(0, tables.len() as i64 - 1) as usize]
    }

    /// Walks FK edges outward from `base`, avoiding duplicate tables (the
    /// dialect has no aliases to disambiguate a twice-joined dimension).
    fn walk_joins(&self, rng: &mut ColumnRng, base: &str, depth: usize) -> Vec<JoinEdge> {
        let mut used: Vec<&str> = vec![self.def(base).name];
        let mut edges = Vec::new();
        for _ in 0..depth {
            // Candidate edges from every table already in the query.
            let mut cands: Vec<(&'static str, &'static str, &'static str, &'static str)> =
                Vec::new();
            for &t in &used {
                for fk in &self.def(t).foreign_keys {
                    if used.contains(&fk.ref_table) || self.rows(fk.ref_table) == 0 {
                        continue;
                    }
                    if cands.iter().any(|c| c.1 == fk.ref_table) {
                        continue;
                    }
                    cands.push((self.def(t).name, fk.ref_table, fk.column, fk.ref_column));
                }
            }
            if cands.is_empty() {
                break;
            }
            let (fk_table, table, fk_col, pk_col) =
                cands[rng.uniform_i64(0, cands.len() as i64 - 1) as usize];
            used.push(table);
            edges.push(JoinEdge {
                table: table.to_string(),
                fk_table: fk_table.to_string(),
                fk_col: fk_col.to_string(),
                pk_col: pk_col.to_string(),
                left: rng.chance(0.2),
                on: OnMode::Plain,
            });
        }
        edges
    }

    /// Renders a histogram-axis key back to a literal of the column's
    /// type (the axis is ints-as-themselves, decimals truncated, dates as
    /// surrogate keys — see `tpcds_storage::stats::hist_key`).
    fn axis_literal(ctype: ColumnType, key: u64) -> String {
        match ctype {
            ColumnType::Date => {
                let sk = i64::try_from(key).unwrap_or(i64::MAX);
                format!("date '{}'", Date::from_date_sk(sk))
            }
            _ => key.to_string(),
        }
    }

    /// A selectivity-steered predicate over one histogram-covered column
    /// of `table`, or a NULL-test fallback when nothing is covered.
    fn steered_predicate(&self, rng: &mut ColumnRng, table: &str) -> Item {
        let rows = self.rows(table);
        let covered: Vec<(&Column, &ColumnStats)> = self
            .columns_with_stats(table)
            .into_iter()
            .filter_map(|(c, s)| s.map(|s| (c, s)))
            .filter(|(_, s)| s.hist_covers_column(rows) && s.ndv >= 2)
            .collect();
        if covered.is_empty() {
            return self.null_test_predicate(rng, table);
        }
        let (col, stats) = covered[rng.uniform_i64(0, covered.len() as i64 - 1) as usize];
        let sel = *rng.pick_of(&[50.0, 20.0, 5.0, 1.0]);
        let pred = match rng.uniform_i64(0, 2) {
            0 => {
                let lit = Self::axis_literal(col.ctype, stats.hist.percentile(sel));
                format!("{} <= {lit}", col.name)
            }
            1 => {
                let lit = Self::axis_literal(col.ctype, stats.hist.percentile(100.0 - sel));
                format!("{} >= {lit}", col.name)
            }
            _ => {
                let lo = rng.uniform_f64() * (100.0 - sel);
                let a = Self::axis_literal(col.ctype, stats.hist.percentile(lo));
                let b = Self::axis_literal(col.ctype, stats.hist.percentile(lo + sel));
                format!("{} between {a} and {b}", col.name)
            }
        };
        Item::on(table, pred)
    }

    /// `IS [NOT] NULL` over a nullable column (or the first column when
    /// none is nullable) — the fallback predicate and a NULL-filter
    /// stressor in its own right.
    fn null_test_predicate(&self, rng: &mut ColumnRng, table: &str) -> Item {
        let def = self.def(table);
        let nullable: Vec<&Column> = def.columns.iter().filter(|c| c.nullable).collect();
        let col = if nullable.is_empty() {
            &def.columns[0]
        } else {
            nullable[rng.uniform_i64(0, nullable.len() as i64 - 1) as usize]
        };
        let test = if rng.chance(0.8) {
            "is not null"
        } else {
            "is null"
        };
        Item::on(table, format!("{} {test}", col.name))
    }

    /// A predicate provably selecting zero rows at synthesis time:
    /// strictly above the column's observed maximum (`1 = 0` when no
    /// stats exist).
    fn empty_predicate(&self, rng: &mut ColumnRng, table: &str) -> Item {
        let with_max: Vec<(&Column, &Value)> = self
            .columns_with_stats(table)
            .into_iter()
            .filter_map(|(c, s)| s.and_then(|s| s.max.as_ref()).map(|m| (c, m)))
            .filter(|(_, m)| !matches!(m, Value::Time(_) | Value::Null))
            .collect();
        if with_max.is_empty() {
            return Item::free("1 = 0".to_string());
        }
        let (col, max) = with_max[rng.uniform_i64(0, with_max.len() as i64 - 1) as usize];
        Item::on(table, format!("{} > {}", col.name, sql_literal(max)))
    }

    /// 2–4 projection columns drawn across the query's tables.
    fn pick_projection(&self, rng: &mut ColumnRng, tables: &[&str]) -> Vec<Item> {
        let n = rng.uniform_i64(2, 4) as usize;
        let mut items = Vec::new();
        for _ in 0..n {
            let t = tables[rng.uniform_i64(0, tables.len() as i64 - 1) as usize];
            let def = self.def(t);
            let col = &def.columns[rng.uniform_i64(0, def.width() as i64 - 1) as usize];
            if items.iter().any(|i: &Item| i.text == col.name) {
                continue;
            }
            items.push(Item::on(t, col.name));
        }
        if items.is_empty() {
            let def = self.def(tables[0]);
            items.push(Item::on(tables[0], def.columns[0].name));
        }
        items
    }

    /// Grouping-key candidates: low-NDV columns (2..=64 distinct values)
    /// so aggregates produce comparable-sized results.
    fn group_key_candidates(&self, table: &str) -> Vec<&'static str> {
        self.columns_with_stats(table)
            .into_iter()
            .filter_map(|(c, s)| s.map(|s| (c, s)))
            .filter(|(_, s)| s.ndv >= 2 && s.ndv <= 64)
            .map(|(c, _)| c.name)
            .collect()
    }

    /// Numeric (Int / Id / Decimal) column names of `table`.
    fn numeric_columns(&self, table: &str) -> Vec<&'static str> {
        self.def(table)
            .columns
            .iter()
            .filter(|c| {
                matches!(
                    c.ctype,
                    ColumnType::Id | ColumnType::Int | ColumnType::Dec(_, _)
                )
            })
            .map(|c| c.name)
            .collect()
    }

    /// 1–2 aggregate select items over the given tables. AVG and
    /// STDDEV_SAMP are restricted to decimal columns.
    fn pick_aggs(&self, rng: &mut ColumnRng, tables: &[&str]) -> Vec<Item> {
        let mut aggs = vec![Item::free("count(*)")];
        let t = tables[rng.uniform_i64(0, tables.len() as i64 - 1) as usize];
        let nums = self.numeric_columns(t);
        if !nums.is_empty() && rng.chance(0.9) {
            let col = nums[rng.uniform_i64(0, nums.len() as i64 - 1) as usize];
            let is_dec = matches!(
                self.def(t).column(col).map(|c| c.ctype),
                Some(ColumnType::Dec(_, _))
            );
            let func = match rng.uniform_i64(0, if is_dec { 5 } else { 3 }) {
                0 => "sum",
                1 => "min",
                2 => "max",
                3 => "count",
                4 => "avg",
                _ => "stddev_samp",
            };
            aggs.push(Item::on(t, format!("{func}({col})")));
        }
        if rng.chance(0.25) {
            let def = self.def(t);
            let col = &def.columns[rng.uniform_i64(0, def.width() as i64 - 1) as usize];
            aggs.push(Item::on(t, format!("count(distinct {})", col.name)));
        }
        aggs
    }

    // ----- class generators -------------------------------------------

    fn gen_scan_filter(&self, rng: &mut ColumnRng) -> QuerySpec {
        let base = self.pick_table(rng);
        let mut s = QuerySpec::new(ShapeClass::ScanFilter, base);
        s.projection = self.pick_projection(rng, &[base]);
        s.predicates.push(self.steered_predicate(rng, base));
        if rng.chance(0.4) {
            s.predicates.push(self.null_test_predicate(rng, base));
        }
        s
    }

    fn gen_join_chain(&self, rng: &mut ColumnRng) -> QuerySpec {
        let base = self.pick_fact(rng);
        let mut s = QuerySpec::new(ShapeClass::JoinChain, base);
        let depth = rng.uniform_i64(1, self.cfg.max_join_depth.max(1) as i64) as usize;
        s.joins = self.walk_joins(rng, base, depth);
        let tables = s.tables().iter().map(|t| t.to_string()).collect::<Vec<_>>();
        let refs: Vec<&str> = tables.iter().map(|t| t.as_str()).collect();
        s.projection = self.pick_projection(rng, &refs);
        s.predicates.push(self.steered_predicate(rng, base));
        if let Some(j) = s.joins.first() {
            if !j.left && rng.chance(0.6) {
                let t = j.table.clone();
                s.predicates.push(self.steered_predicate(rng, &t));
            }
        }
        s
    }

    fn gen_join_agg(&self, rng: &mut ColumnRng) -> QuerySpec {
        let base = self.pick_fact(rng);
        let mut s = QuerySpec::new(ShapeClass::JoinAgg, base);
        let depth = rng.uniform_i64(1, self.cfg.max_join_depth.max(1) as i64) as usize;
        s.joins = self.walk_joins(rng, base, depth);
        // Group on a key from one of the joined dimensions when possible
        // (the classic star-schema rollup), else on the base table.
        let tables = s.tables().iter().map(|t| t.to_string()).collect::<Vec<_>>();
        let mut group_tables: Vec<&str> = tables.iter().skip(1).map(|t| t.as_str()).collect();
        if group_tables.is_empty() {
            group_tables.push(base);
        }
        for _ in 0..rng.uniform_i64(1, 2) {
            let t = group_tables[rng.uniform_i64(0, group_tables.len() as i64 - 1) as usize];
            let keys = self.group_key_candidates(t);
            if keys.is_empty() {
                continue;
            }
            let k = keys[rng.uniform_i64(0, keys.len() as i64 - 1) as usize];
            if s.group_by.iter().any(|g| g.text == k) {
                continue;
            }
            s.group_by.push(Item::on(t, k));
        }
        if s.group_by.is_empty() {
            // Degenerate to a global aggregate (rendered via projection).
            s.projection = self.pick_aggs(rng, &[base]);
            s.predicates.push(self.steered_predicate(rng, base));
            return s;
        }
        s.aggs = self.pick_aggs(rng, &[base]);
        s.predicates.push(self.steered_predicate(rng, base));
        if rng.chance(0.3) {
            s.having = Some(format!("count(*) > {}", rng.uniform_i64(0, 10)));
        }
        // Ordering by every group key makes rows unique, so LIMIT is
        // deterministic across paths.
        s.order_by = (1..=s.group_by.len()).collect();
        if rng.chance(0.3) {
            s.limit = Some(rng.uniform_i64(1, 100) as u64);
        }
        s
    }

    fn gen_agg_sort(&self, rng: &mut ColumnRng) -> QuerySpec {
        let base = self.pick_table(rng);
        let mut s = QuerySpec::new(ShapeClass::AggSort, base);
        let keys = self.group_key_candidates(base);
        if keys.is_empty() {
            s.projection = self.pick_aggs(rng, &[base]);
            return s;
        }
        let n = rng.uniform_i64(1, 2).min(keys.len() as i64) as usize;
        for _ in 0..n {
            let k = keys[rng.uniform_i64(0, keys.len() as i64 - 1) as usize];
            if s.group_by.iter().any(|g| g.text == k) {
                continue;
            }
            s.group_by.push(Item::on(base, k));
        }
        s.aggs = self.pick_aggs(rng, &[base]);
        if rng.chance(0.5) {
            s.predicates.push(self.steered_predicate(rng, base));
        }
        s.order_by = (1..=s.group_by.len()).collect();
        if rng.chance(0.4) {
            s.limit = Some(rng.uniform_i64(1, 50) as u64);
        }
        s
    }

    fn gen_window(&self, rng: &mut ColumnRng) -> QuerySpec {
        let base = self.pick_table(rng);
        let mut s = QuerySpec::new(ShapeClass::Window, base);
        let def = self.def(base);
        let parts = {
            // Prefer nullable low-NDV partition keys: the NULL partition
            // is the semantics we are pinning.
            let keys = self.group_key_candidates(base);
            let nullable: Vec<&'static str> = keys
                .iter()
                .copied()
                .filter(|k| def.column(k).map(|c| c.nullable).unwrap_or(false))
                .collect();
            if !nullable.is_empty() && rng.chance(0.7) {
                nullable
            } else if !keys.is_empty() {
                keys
            } else {
                vec![def.columns[0].name]
            }
        };
        let part = parts[rng.uniform_i64(0, parts.len() as i64 - 1) as usize];
        let nums = self.numeric_columns(base);
        let num = if nums.is_empty() {
            def.primary_key[0]
        } else {
            nums[rng.uniform_i64(0, nums.len() as i64 - 1) as usize]
        };
        let order = if nums.is_empty() {
            def.primary_key[0]
        } else {
            nums[rng.uniform_i64(0, nums.len() as i64 - 1) as usize]
        };
        let pk = def.primary_key.join(", ");
        // Tie-stable forms only: ranks and peer-group aggregates give
        // every tied row the same value, and ROW_NUMBER orders by the
        // (unique) primary key — so results do not depend on the input
        // order the columnar child happens to produce.
        s.window = Some(match rng.uniform_i64(0, 4) {
            0 => format!("sum({num}) over (partition by {part})"),
            1 => format!("sum({num}) over (partition by {part} order by {order})"),
            2 => format!("rank() over (partition by {part} order by {order})"),
            3 => format!("dense_rank() over (partition by {part} order by {order})"),
            _ => format!("row_number() over (partition by {part} order by {pk})"),
        });
        let mut proj = vec![Item::on(base, part)];
        for c in &def.primary_key {
            if *c != part {
                proj.push(Item::on(base, *c));
            }
        }
        s.projection = proj;
        if rng.chance(0.5) {
            s.predicates.push(self.steered_predicate(rng, base));
        }
        s
    }

    fn gen_set_op(&self, rng: &mut ColumnRng) -> QuerySpec {
        let base = self.pick_table(rng);
        let mut s = QuerySpec::new(ShapeClass::SetOp, base);
        // Project a mix that includes nullable columns, so dedup has NULL
        // rows to disambiguate.
        let def = self.def(base);
        let nullable: Vec<&'static str> = def
            .columns
            .iter()
            .filter(|c| c.nullable)
            .map(|c| c.name)
            .collect();
        let mut proj = self.pick_projection(rng, &[base]);
        proj.truncate(2);
        if !nullable.is_empty() {
            let n = nullable[rng.uniform_i64(0, nullable.len() as i64 - 1) as usize];
            if !proj.iter().any(|i| i.text == n) {
                proj.push(Item::on(base, n));
            }
        }
        s.projection = proj;
        s.predicates.push(self.steered_predicate(rng, base));
        let mut arm = s.clone();
        arm.set_op = None;
        arm.predicates = vec![self.steered_predicate(rng, base)];
        let op = *rng.pick_of(&["union", "union all", "intersect", "except"]);
        s.set_op = Some((op.to_string(), Box::new(arm)));
        s
    }

    fn gen_distinct(&self, rng: &mut ColumnRng) -> QuerySpec {
        let base = self.pick_table(rng);
        let mut s = QuerySpec::new(ShapeClass::DistinctTail, base);
        s.distinct = true;
        let keys = self.group_key_candidates(base);
        if keys.is_empty() {
            s.projection = self.pick_projection(rng, &[base]);
        } else {
            for _ in 0..rng.uniform_i64(1, 2) {
                let k = keys[rng.uniform_i64(0, keys.len() as i64 - 1) as usize];
                if !s.projection.iter().any(|i| i.text == k) {
                    s.projection.push(Item::on(base, k));
                }
            }
        }
        if rng.chance(0.6) {
            s.predicates.push(self.steered_predicate(rng, base));
        }
        s
    }

    /// Computed projections, expression predicates and an expression sort
    /// key, all inside the compiled-kernel grammar. Constants stay small
    /// and products only pair a column with a constant, so i64 arithmetic
    /// cannot overflow at any scale factor (error parity has its own
    /// pinned suites); division keeps possibly-zero divisors on purpose —
    /// `x / 0` is NULL, identically, on both paths.
    fn gen_expr_compute(&self, rng: &mut ColumnRng) -> QuerySpec {
        let base = self.pick_table(rng);
        let mut s = QuerySpec::new(ShapeClass::ExprCompute, base);
        let def = self.def(base);
        let nums = self.numeric_columns(base);
        if nums.is_empty() {
            s.projection = self.pick_projection(rng, &[base]);
            s.predicates.push(self.steered_predicate(rng, base));
            return s;
        }
        // The primary key anchors every output row.
        for pk in &def.primary_key {
            s.projection.push(Item::on(base, *pk));
        }
        let pick = |rng: &mut ColumnRng| nums[rng.uniform_i64(0, nums.len() as i64 - 1) as usize];
        for _ in 0..rng.uniform_i64(1, 2) {
            let a = pick(rng);
            let b = pick(rng);
            let k = rng.uniform_i64(1, 9);
            let text = match rng.uniform_i64(0, 6) {
                0 => format!("{a} + {k}"),
                1 => format!("{a} * {k} - {b}"),
                2 => format!("case when {a} > {k} then {a} else -{a} end"),
                3 => format!("coalesce({a}, {k})"),
                4 => format!("nullif({a}, {b})"),
                5 => format!("{a} / {k}"),
                _ => format!("abs({a} - {k})"),
            };
            if !s.projection.iter().any(|i| i.text == text) {
                s.projection.push(Item::on(base, text));
            }
        }
        // An expression predicate — arithmetic-wrapped comparisons that
        // used to be the `pred-shape` serial fallback. Modulo stays on
        // integer columns: `decimal % int` is an error on both paths.
        if rng.chance(0.8) {
            let a = pick(rng);
            let b = pick(rng);
            let k = rng.uniform_i64(1, 9);
            let ints: Vec<&'static str> = self
                .def(base)
                .columns
                .iter()
                .filter(|c| matches!(c.ctype, ColumnType::Id | ColumnType::Int))
                .map(|c| c.name)
                .collect();
            let pred = match rng.uniform_i64(0, 3) {
                0 => format!("{a} + {k} > {b}"),
                1 if !ints.is_empty() => {
                    let m = ints[rng.uniform_i64(0, ints.len() as i64 - 1) as usize];
                    format!("{m} % {k} = 0")
                }
                2 => format!("coalesce({a}, 0) <= {b} * {k}"),
                _ => format!("case when {a} is null then 1 else 0 end = 0"),
            };
            s.predicates.push(Item::on(base, pred));
        }
        // Ordering by every output ordinal (computed items included, the
        // old `sort-key-shape` fallback) pins the answer byte-for-byte:
        // rows that compare equal on all columns are indistinguishable.
        if rng.chance(0.7) {
            s.order_by = (1..=s.select_items().len()).collect();
            if rng.chance(0.5) {
                s.limit = Some(rng.uniform_i64(1, 500) as u64);
            }
        }
        s
    }

    fn gen_empty_result(&self, rng: &mut ColumnRng) -> QuerySpec {
        // An otherwise-ordinary query whose WHERE selects nothing: zero
        // rows must flow through joins, aggregates and sorts identically
        // on both paths.
        let mut s = match rng.uniform_i64(0, 2) {
            0 => self.gen_scan_filter(rng),
            1 => self.gen_join_chain(rng),
            _ => self.gen_join_agg(rng),
        };
        s.class = ShapeClass::EmptyResult;
        let base = s.base.clone();
        s.predicates.push(self.empty_predicate(rng, &base));
        s
    }

    fn gen_null_key_join(&self, rng: &mut ColumnRng) -> QuerySpec {
        let base = self.pick_fact(rng);
        let mut s = QuerySpec::new(ShapeClass::NullKeyJoin, base);
        let depth = rng.uniform_i64(1, 2) as usize;
        s.joins = self.walk_joins(rng, base, depth);
        if s.joins.is_empty() {
            s.projection = vec![Item::free("count(*)")];
            return s;
        }
        let poisoned = rng.uniform_i64(0, s.joins.len() as i64 - 1) as usize;
        s.joins[poisoned].on = OnMode::NullKey;
        s.joins[poisoned].left = rng.chance(0.5);
        let probe_table = s.joins[poisoned].table.clone();
        let pk = self.def(&probe_table).primary_key[0];
        if rng.chance(0.5) {
            // Global aggregate: count of survivors + count of non-NULL
            // right-side keys (zero for the poisoned edge).
            s.projection = vec![
                Item::free("count(*)"),
                Item::on(&probe_table, format!("count({pk})")),
            ];
        } else {
            let tables = s.tables().iter().map(|t| t.to_string()).collect::<Vec<_>>();
            let refs: Vec<&str> = tables.iter().map(|t| t.as_str()).collect();
            s.projection = self.pick_projection(rng, &refs);
            s.predicates.push(self.steered_predicate(rng, base));
        }
        s
    }

    fn gen_skew_join(&self, rng: &mut ColumnRng) -> QuerySpec {
        let base = self.pick_fact(rng);
        let mut s = QuerySpec::new(ShapeClass::SkewJoin, base);
        // Only small dimensions: a modulo join multiplies cardinalities.
        let small: Vec<&tpcds_schema::ForeignKey> = self
            .def(base)
            .foreign_keys
            .iter()
            .filter(|fk| {
                let r = self.rows(fk.ref_table);
                r > 0 && r <= 2500
            })
            .collect();
        if small.is_empty() {
            s.projection = vec![Item::free("count(*)")];
            s.predicates.push(self.steered_predicate(rng, base));
            return s;
        }
        let fk = small[rng.uniform_i64(0, small.len() as i64 - 1) as usize];
        let m = rng.uniform_i64(2, 7);
        s.joins.push(JoinEdge {
            table: fk.ref_table.to_string(),
            fk_table: base.to_string(),
            fk_col: fk.column.to_string(),
            pk_col: fk.ref_column.to_string(),
            left: false,
            on: OnMode::SkewMod(m),
        });
        // Keep the fact side selective so the residue blowup stays
        // bounded, then aggregate the flood down to a handful of rows.
        s.predicates.push(self.steered_predicate(rng, base));
        s.projection = vec![
            Item::free("count(*)"),
            Item::on(base, format!("min({})", fk.column)),
            Item::on(fk.ref_table, format!("max({})", fk.ref_column)),
        ];
        s
    }

    fn gen_limit_boundary(&self, rng: &mut ColumnRng) -> QuerySpec {
        // date_dim is the one table guaranteed past the 64k segment
        // boundary at every scale factor (73049 static rows).
        let base = if self.rows("date_dim") > 65_537 {
            "date_dim"
        } else {
            self.pick_table(rng)
        };
        let mut s = QuerySpec::new(ShapeClass::LimitBoundary, base);
        let def = self.def(base);
        // Project and order by the full primary key: the ordered prefix a
        // LIMIT cuts is only well-defined when the sort key is unique.
        for pk in &def.primary_key {
            s.projection.push(Item::on(base, *pk));
        }
        if rng.chance(0.5) && def.width() > 1 {
            let extra = &def.columns[rng.uniform_i64(1, def.width() as i64 - 1) as usize];
            if !s.projection.iter().any(|i| i.text == extra.name) {
                s.projection.push(Item::on(base, extra.name));
            }
        }
        s.order_by = (1..=def.primary_key.len()).collect();
        s.limit = Some(*rng.pick_of(&[65_535u64, 65_536, 65_537]));
        s
    }
}

/// `ColumnRng` lacks a slice picker; local helper so generators read
/// naturally.
trait PickOf {
    fn pick_of<'a, T>(&mut self, xs: &'a [T]) -> &'a T;
}

impl PickOf for ColumnRng {
    fn pick_of<'a, T>(&mut self, xs: &'a [T]) -> &'a T {
        &xs[self.uniform_i64(0, xs.len() as i64 - 1) as usize]
    }
}
