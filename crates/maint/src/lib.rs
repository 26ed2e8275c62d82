//! # tpcds-maint
//!
//! The ETL data maintenance workload (paper §4.2): twelve operations —
//! four non-history dimension updates (Figure 8), four history-keeping
//! dimension updates (Figure 9), three channel fact-insert operations with
//! business-key → surrogate-key resolution (Figure 10), and one logically
//! clustered fact delete.

#![warn(missing_docs)]

use std::collections::{HashMap, HashSet};
use std::sync::Arc;
use std::time::{Duration, Instant};
use tpcds_dgen::refresh::RESOLVED_DIMENSIONS;
use tpcds_dgen::Generator;
use tpcds_engine::{Commit, Database, EngineError, Result, Table};
use tpcds_schema::{ScdClass, TableDef};
use tpcds_storage::{Column, ColumnTable, ColumnTableBuilder, Segment, TableStats, SEGMENT_ROWS};
use tpcds_types::{DataType, Date, Value};

/// The twelve maintenance operations, in execution order.
pub const OPERATIONS: [&str; 12] = [
    "update_customer",
    "update_customer_address",
    "update_warehouse",
    "update_promotion",
    "update_item",
    "update_store",
    "update_call_center",
    "update_web_site",
    "insert_store_channel",
    "insert_catalog_channel",
    "insert_web_channel",
    "delete_fact_range",
];

/// Outcome of one maintenance operation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct OpReport {
    /// Operation name (see [`OPERATIONS`]).
    pub name: &'static str,
    /// Rows updated.
    pub updated: usize,
    /// Rows inserted.
    pub inserted: usize,
    /// Rows deleted.
    pub deleted: usize,
    /// What the operation's one write transaction published.
    pub commit: Commit,
    /// The operation's wall time, commit included (also observed into
    /// the `maint.op_us` histogram).
    pub elapsed: Duration,
}

/// Outcome of a whole data maintenance run.
#[derive(Debug, Clone, Default)]
pub struct MaintenanceReport {
    /// Per-operation outcomes.
    pub ops: Vec<OpReport>,
}

impl MaintenanceReport {
    /// Total rows touched.
    pub fn total_rows(&self) -> usize {
        self.ops
            .iter()
            .map(|o| o.updated + o.inserted + o.deleted)
            .sum()
    }
}

/// The date a refresh run is applied (rec_start_date of new revisions):
/// one day past the sales window per refresh sequence.
pub fn refresh_date(generator: &Generator, refresh_seq: u32) -> Date {
    generator
        .sales_dates()
        .last_day()
        .add_days(1 + refresh_seq as i32)
}

/// Runs the full 12-operation data maintenance workload against the
/// database (refresh sequence `refresh_seq`).
pub fn run_maintenance(
    db: &Database,
    generator: &Generator,
    refresh_seq: u32,
) -> Result<MaintenanceReport> {
    let _span = tpcds_obs::span("maint", "run_maintenance");
    let mut report = MaintenanceReport::default();
    let when = refresh_date(generator, refresh_seq);

    for table in ["customer", "customer_address", "warehouse", "promotion"] {
        report.ops.push(update_non_history_dimension(
            db,
            generator,
            table,
            refresh_seq,
        )?);
    }
    for table in ["item", "store", "call_center", "web_site"] {
        report.ops.push(update_history_dimension(
            db,
            generator,
            table,
            refresh_seq,
            when,
        )?);
    }
    // The dimension operations are done: what a business key resolves to
    // cannot change again before the set ends, so the three channels
    // share one set of maps.
    let dimensions = Resolvers::pin(db)?;
    let resolvers = Resolvers::new(&dimensions, generator);
    for (name, tables) in [
        ("insert_store_channel", ["store_sales", "store_returns"]),
        (
            "insert_catalog_channel",
            ["catalog_sales", "catalog_returns"],
        ),
        ("insert_web_channel", ["web_sales", "web_returns"]),
    ] {
        report.ops.push(insert_resolved(
            db,
            generator,
            name,
            &tables,
            refresh_seq,
            &resolvers,
        )?);
    }
    report
        .ops
        .push(delete_fact_range(db, generator, refresh_seq)?);
    // Each operation above ran as one write transaction: it built only
    // the segments whose columns it changed, in the tables it mutated,
    // changed their statistics by the rows it moved, and published a new
    // snapshot version — in-flight queries keep reading the versions they
    // pinned.
    Ok(report)
}

/// Observes one finished operation's wall time into the `maint.op_us`
/// histogram and returns the report unchanged.
fn record_op(report: OpReport) -> OpReport {
    tpcds_obs::metrics::observe("maint.op_us", report.elapsed.as_micros() as u64);
    report
}

fn op_name(table: &str) -> &'static str {
    match table {
        "customer" => "update_customer",
        "customer_address" => "update_customer_address",
        "warehouse" => "update_warehouse",
        "promotion" => "update_promotion",
        "item" => "update_item",
        "store" => "update_store",
        "call_center" => "update_call_center",
        "web_site" => "update_web_site",
        other => panic!("no maintenance operation for {other}"),
    }
}

/// Business key → the row of `updates`, a refresh set's dimension batch
/// ([`Generator::refresh_dimension`]), that revises it, the key borrowed
/// from the batch's string buffer; a key revised twice maps to its last
/// row.
fn revisions_by_key(updates: &ColumnTable, bk_idx: usize) -> HashMap<&str, usize> {
    let mut wanted = HashMap::with_capacity(updates.rows);
    for id in updates.live_ids() {
        let bk = updates
            .str_at(id, bk_idx)
            .expect("updates carry business keys");
        wanted.insert(bk, id);
    }
    wanted
}

/// The live rows of `data` whose business key `wanted` revises, each with
/// the row of the batch that revises it, in id order; with `open`, only
/// the rows whose cell of that column (rec_end_date) is NULL. A row is
/// passed over on its typed cells.
fn revised(
    data: &ColumnTable,
    bk_idx: usize,
    wanted: &HashMap<&str, usize>,
    open: Option<usize>,
) -> Vec<(usize, usize)> {
    let mut found = Vec::new();
    for (si, seg) in data.segments.iter().enumerate() {
        let closed = |i: usize| open.is_some_and(|c| !seg.columns[c].nulls.get(i));
        for i in seg.live_offsets().filter(|&i| !closed(i)) {
            let key = seg.columns[bk_idx].str_at(i);
            if let Some(&new) = key.and_then(|bk| wanted.get(bk)) {
                found.push((si * SEGMENT_ROWS + i, new));
            }
        }
    }
    found
}

/// The segment holding the row with id `id` of `table`, and its offset.
fn cells(table: &ColumnTable, id: usize) -> (&Segment, usize) {
    (&table.segments[id / SEGMENT_ROWS], id % SEGMENT_ROWS)
}

/// Whether cell `j` of `new` differs from cell `i` of `old`; a string
/// cell is compared where it lies.
fn differs(old: &Column, i: usize, new: &Column, j: usize) -> bool {
    match new.str_at(j) {
        Some(s) => old.str_at(i) != Some(s),
        None => old.value_at(i) != new.value_at(j),
    }
}

/// Figure 8: for every row to be updated, find the row for the business
/// key and update all changed fields.
pub fn update_non_history_dimension(
    db: &Database,
    generator: &Generator,
    table: &str,
    refresh_seq: u32,
) -> Result<OpReport> {
    let started = Instant::now();
    let def = generator
        .schema()
        .table(table)
        .ok_or_else(|| EngineError::Catalog(format!("unknown table {table}")))?;
    debug_assert_eq!(def.scd, ScdClass::NonHistory);
    let bk_idx = def
        .column_index(
            def.business_key
                .expect("non-history dims have business keys"),
        )
        .expect("bk col");
    let updates = generator.refresh_dimension(table, refresh_seq);
    let wanted = revisions_by_key(&updates, bk_idx);
    let mut txn = db.begin();
    let t = txn.table_mut(table)?;
    let data = Arc::clone(t.data());
    // A row some field of which its revision changes — all but the
    // surrogate key and the business key — gets a new version: its own
    // cells, the changed ones the revision's.
    let field = |c: usize| c != 0 && c != bk_idx;
    let (mut ids, mut changed) = (Vec::new(), Vec::new());
    let mut versions = ColumnTableBuilder::new(data.dtypes.clone());
    for (id, new) in revised(&data, bk_idx, &wanted, None) {
        let ((old, i), (rev, j)) = (cells(&data, id), cells(&updates, new));
        changed.clear();
        changed.extend(
            (0..data.width()).map(|c| field(c) && differs(&old.columns[c], i, &rev.columns[c], j)),
        );
        if changed.contains(&true) {
            ids.push(id as u32);
            versions.push_row_with(|columns| {
                for (c, column) in columns.iter_mut().enumerate() {
                    match changed[c] {
                        true => column.push_from(&rev.columns[c], j),
                        false => column.push_from(&old.columns[c], i),
                    }
                }
            });
        }
    }
    t.change(&ids, Some(&versions.finish()))?;
    let commit = txn.commit();
    Ok(record_op(OpReport {
        name: op_name(table),
        updated: ids.len(),
        inserted: 0,
        deleted: 0,
        commit,
        elapsed: started.elapsed(),
    }))
}

/// Figure 9: close the current revision (rec_end_date := update date - 1)
/// and insert a new revision with an open rec_end_date.
pub fn update_history_dimension(
    db: &Database,
    generator: &Generator,
    table: &str,
    refresh_seq: u32,
    when: Date,
) -> Result<OpReport> {
    let started = Instant::now();
    let def = generator
        .schema()
        .table(table)
        .ok_or_else(|| EngineError::Catalog(format!("unknown table {table}")))?;
    debug_assert_eq!(def.scd, ScdClass::History);
    let bk_idx = def
        .column_index(def.business_key.expect("history dims have business keys"))
        .expect("bk col");
    let end_idx = def
        .columns
        .iter()
        .position(|c| c.name.ends_with("rec_end_date"))
        .expect("history dims have rec_end_date");
    let start_idx = def
        .columns
        .iter()
        .position(|c| c.name.ends_with("rec_start_date"))
        .expect("history dims have rec_start_date");

    let updates = generator.refresh_dimension(table, refresh_seq);
    let wanted = revisions_by_key(&updates, bk_idx);

    let mut txn = db.begin();
    let t = txn.table_mut(table)?;
    // The statistics' max is exact: a change that takes the max away
    // looks for the next one among the rows left.
    let max_sk = t.stats().columns[0].max.as_ref().and_then(Value::as_int);
    debug_assert_eq!(
        max_sk,
        t.data().column(0).filter_map(|sk| sk.as_int()).max(),
        "{table}: statistics max of the surrogate key"
    );
    let data = Arc::clone(t.data());
    let revised = revised(&data, bk_idx, &wanted, Some(end_idx));
    // One batch: the current revisions of the keys updated, closed, then
    // their successors in the same order — the update's cells with the
    // next surrogate keys, opening on `when`.
    let mut batch = ColumnTableBuilder::new(data.dtypes.clone());
    batch.reserve(2 * revised.len());
    for &(id, _) in &revised {
        let (seg, i) = cells(&data, id);
        batch.push_row_with(|columns| {
            for (c, column) in columns.iter_mut().enumerate() {
                match c {
                    c if c == end_idx => column.push_date(when.add_days(-1)),
                    c => column.push_from(&seg.columns[c], i),
                }
            }
        });
    }
    for (sk, &(_, new)) in (max_sk.unwrap_or(0) + 1..).zip(&revised) {
        let (seg, i) = cells(&updates, new);
        batch.push_row_with(|columns| {
            for (c, column) in columns.iter_mut().enumerate() {
                match c {
                    0 => column.push_int(sk),
                    c if c == start_idx => column.push_date(when),
                    c if c == end_idx => column.push_null(),
                    c => column.push_from(&seg.columns[c], i),
                }
            }
        });
    }
    let ids: Vec<u32> = revised.iter().map(|&(id, _)| id as u32).collect();
    t.change(&ids, Some(&batch.finish()))?;
    let commit = txn.commit();
    Ok(record_op(OpReport {
        name: op_name(table),
        updated: revised.len(),
        inserted: revised.len(),
        deleted: 0,
        commit,
        elapsed: started.elapsed(),
    }))
}

/// Business-key → current-surrogate maps for the
/// [`RESOLVED_DIMENSIONS`], keyed on business keys borrowed from the
/// tables' string buffers: building them copies no string.
struct Resolvers<'a>(HashMap<&'static str, HashMap<&'a str, i64>>);

impl<'a> Resolvers<'a> {
    /// The [`RESOLVED_DIMENSIONS`] as the head snapshot holds them.
    fn pin(db: &Database) -> Result<Vec<Arc<Table>>> {
        RESOLVED_DIMENSIONS
            .iter()
            .map(|table| db.table(table))
            .collect()
    }

    /// The maps over `tables`, the [`RESOLVED_DIMENSIONS`] in order.
    fn new(tables: &'a [Arc<Table>], generator: &Generator) -> Resolvers<'a> {
        let maps = (RESOLVED_DIMENSIONS.iter().zip(tables)).map(|(&name, t)| {
            let def = generator
                .schema()
                .table(name)
                .expect("maintained dimension");
            (name, current_surrogates(t.data(), def))
        });
        Resolvers(maps.collect())
    }
}

/// Figure 10: insert fact rows, resolving business keys to the most
/// current surrogate key (rec_end_date IS NULL for history-keeping
/// dimensions).
pub fn insert_channel(
    db: &Database,
    generator: &Generator,
    name: &'static str,
    tables: &[&str],
    refresh_seq: u32,
) -> Result<OpReport> {
    let dimensions = Resolvers::pin(db)?;
    let resolvers = Resolvers::new(&dimensions, generator);
    insert_resolved(db, generator, name, tables, refresh_seq, &resolvers)
}

/// [`insert_channel`] against maps the caller already built.
fn insert_resolved(
    db: &Database,
    generator: &Generator,
    name: &'static str,
    tables: &[&str],
    refresh_seq: u32,
    resolvers: &Resolvers<'_>,
) -> Result<OpReport> {
    let started = Instant::now();
    let mut inserted = 0;
    // One transaction covers the channel's sales + returns tables, so a
    // snapshot either has both inserts or neither.
    let mut txn = db.begin();
    for table in tables {
        let def = generator
            .schema()
            .table(table)
            .ok_or_else(|| EngineError::Catalog(format!("unknown table {table}")))?;
        // Each business-key column of the batch becomes the surrogate
        // keys it resolves to; a row with a key that resolves to none is
        // dropped.
        let mut batch = generator.refresh_fact_inserts(table, refresh_seq);
        let mut unresolved = Vec::new();
        for f in &def.foreign_keys {
            let Some(resolver) = resolvers.0.get(f.ref_table) else {
                continue;
            };
            let col = def.column_index(f.column).expect("fk col");
            let surrogates = (batch.segments.iter().enumerate())
                .map(|(si, seg)| {
                    let missing = |i| unresolved.push((si * SEGMENT_ROWS + i) as u32);
                    resolve(&seg.columns[col], resolver, missing)
                })
                .collect();
            batch.set_column(col, DataType::Int, surrogates);
        }
        if !unresolved.is_empty() {
            unresolved.sort_unstable();
            unresolved.dedup();
            batch = batch.change(&unresolved, None, 1).0;
        }
        inserted += batch.rows;
        txn.table_mut(table)?.change(&[], Some(&batch))?;
    }
    let commit = txn.commit();
    Ok(record_op(OpReport {
        name,
        updated: 0,
        inserted,
        deleted: 0,
        commit,
        elapsed: started.elapsed(),
    }))
}

/// The surrogate keys `map` resolves the business keys of `keys` to, as
/// an integer column: NULL where a key is NULL, or resolves to nothing —
/// the rows `missing` is told of.
fn resolve(keys: &Column, map: &HashMap<&str, i64>, mut missing: impl FnMut(usize)) -> Column {
    let mut surrogates = Column::for_type(DataType::Int);
    for i in 0..keys.len() {
        match keys.str_at(i).map(|bk| map.get(bk)) {
            Some(Some(&sk)) => surrogates.push_int(sk),
            Some(None) => {
                missing(i);
                surrogates.push_null();
            }
            None => surrogates.push_null(),
        }
    }
    surrogates
}

/// Business key → current surrogate key of the dimension `def` whose rows
/// are `data`, the keys borrowed from its string buffers. For
/// history-keeping dimensions only open revisions (rec_end_date IS NULL)
/// resolve; non-history dimensions have one row per key.
pub fn current_surrogates<'a>(data: &'a ColumnTable, def: &TableDef) -> HashMap<&'a str, i64> {
    let bk_idx = def
        .column_index(
            def.business_key
                .expect("maintained dims have business keys"),
        )
        .expect("bk col");
    let end_idx = def
        .columns
        .iter()
        .position(|c| c.name.ends_with("rec_end_date"));
    let mut map = HashMap::with_capacity(data.rows);
    for seg in &data.segments {
        let (sks, bks) = (&seg.columns[0], &seg.columns[bk_idx]);
        let open = |&i: &usize| end_idx.is_none_or(|c| seg.columns[c].nulls.get(i));
        for i in seg.live_offsets().filter(open) {
            if let (Some(bk), Some(sk)) = (bks.str_at(i), sks.value_at(i).as_int()) {
                map.insert(bk, sk);
            }
        }
    }
    map
}

/// The logically clustered fact delete: removes all sales dated in the
/// refresh run's two-week range, and the returns of those sales,
/// mirroring drop-partition-style maintenance.
pub fn delete_fact_range(
    db: &Database,
    generator: &Generator,
    refresh_seq: u32,
) -> Result<OpReport> {
    let started = Instant::now();
    let (lo, hi) = generator.refresh_delete_range(refresh_seq);
    let (lo_sk, hi_sk) = (lo.date_sk(), hi.date_sk());
    let column = |table, name| {
        let def = generator.schema().table(table).expect("fact table");
        def.column_index(name).expect("fact column")
    };
    let mut deleted = 0;
    // All six tables change in one transaction, and a return goes with the
    // ticket or order of its sale: a snapshot never shows a sale deleted
    // while its return survives.
    let mut txn = db.begin();
    for (sales, [sold, sale_key], returns, return_key) in [
        (
            "store_sales",
            ["ss_sold_date_sk", "ss_ticket_number"],
            "store_returns",
            "sr_ticket_number",
        ),
        (
            "catalog_sales",
            ["cs_sold_date_sk", "cs_order_number"],
            "catalog_returns",
            "cr_order_number",
        ),
        (
            "web_sales",
            ["ws_sold_date_sk", "ws_order_number"],
            "web_returns",
            "wr_order_number",
        ),
    ] {
        let (sold, sale_key) = (column(sales, sold), column(sales, sale_key));
        let t = txn.table_mut(sales)?;
        let gone = t.data().int_ids(sold, |sk| sk >= lo_sk && sk <= hi_sk);
        let keys: HashSet<i64> = (gone.iter())
            .filter_map(|&id| t.data().value(id as usize, sale_key).as_int())
            .collect();
        t.change(&gone, None)?;
        let t = txn.table_mut(returns)?;
        let returned = t
            .data()
            .int_ids(column(returns, return_key), |key| keys.contains(&key));
        t.change(&returned, None)?;
        deleted += gone.len() + returned.len();
    }
    let commit = txn.commit();
    Ok(record_op(OpReport {
        name: "delete_fact_range",
        updated: 0,
        inserted: 0,
        deleted,
        commit,
        elapsed: started.elapsed(),
    }))
}

/// Loads the initial population of every table into the database,
/// creating the tables first.
///
/// The unit of work is one segment of one table: a task generates its
/// rows straight into a segment builder, then folds the segment's
/// statistics. The tasks of all tables share one list, largest first, and
/// every worker pulls from it; a table is then its segments and statistics
/// in segment order — the same whoever ran which task — and the whole load
/// publishes as one commit. The registry counters `maint.load.generate_us`
/// and `maint.load.stats_us` say where the time went: the workers' busy
/// time in each step.
pub fn load_initial_population(db: &Database, generator: &Generator) -> Result<()> {
    let _span = tpcds_obs::span("maint", "load");
    let schema = generator.schema();
    let tables: Vec<&str> = schema.tables().iter().map(|t| t.name).collect();
    let cells = |&(t, k): &(usize, usize)| {
        let rows = generator.row_count(tables[t]) as usize;
        let segment = rows.saturating_sub(k * SEGMENT_ROWS).min(SEGMENT_ROWS);
        segment * schema.table(tables[t]).expect("schema table").width()
    };
    let mut tasks: Vec<(usize, usize)> = (0..tables.len())
        .flat_map(|t| (0..generator.segments(tables[t])).map(move |k| (t, k)))
        .collect();
    tasks.sort_by_key(|task| std::cmp::Reverse(cells(task)));
    let workers = tpcds_storage::effective_threads().clamp(1, tasks.len().max(1));
    let parts = tpcds_storage::run_chunks(tasks.len(), workers, |i| {
        let (table, k) = (tables[tasks[i].0], tasks[i].1);
        let clock = Instant::now();
        let segment = generator.generate_segment(table, k);
        let generated = clock.elapsed();
        let stats = tpcds_storage::segment_stats(&segment);
        (segment, stats, [generated, clock.elapsed() - generated])
    });

    let mut busy = [Duration::ZERO; 2];
    let mut loads: Vec<Load> = tables.iter().map(|_| Load::default()).collect();
    let mut done: Vec<_> = tasks.into_iter().zip(parts).collect();
    done.sort_by_key(|(task, _)| *task);
    for ((t, _), (segment, stats, took)) in done {
        busy.iter_mut().zip(took).for_each(|(sum, d)| *sum += d);
        loads[t].segments.push(segment);
        loads[t].stats.push(stats);
    }
    let mut txn = db.begin();
    tpcds_engine::create_tpcds_tables(&mut txn, schema)?;
    for (table, load) in tables.iter().zip(loads) {
        let t = txn.table_mut(table)?;
        let dtypes = t.data().dtypes.clone();
        let stats = tpcds_storage::merge_segment_stats(dtypes.len(), &load.stats);
        let data = ColumnTable {
            dtypes,
            segments: load.segments,
            rows: stats.rows as usize,
        };
        t.load(data, stats)?;
    }
    txn.commit();
    for (name, d) in ["load.generate_us", "load.stats_us"].into_iter().zip(busy) {
        tpcds_obs::counter("maint", name, d.as_micros() as f64);
    }
    Ok(())
}

/// What the load tasks built of one table, in segment order: the
/// segments and their statistics.
#[derive(Default)]
struct Load {
    segments: Vec<Arc<Segment>>,
    stats: Vec<TableStats>,
}

#[cfg(test)]
mod tests {
    use super::*;

    fn loaded() -> (Database, Generator) {
        let g = Generator::new(0.01);
        let db = Database::new();
        load_initial_population(&db, &g).unwrap();
        (db, g)
    }

    #[test]
    fn no_base_table_column_is_boxed() {
        // A declared-vs-generated type mismatch would promote a whole
        // segment to 48-byte boxed `Value`s and off the typed kernels.
        let (db, g) = loaded();
        run_maintenance(&db, &g, 0).unwrap();
        let mut boxed = Vec::new();
        for def in g.schema().tables() {
            let t = db.table(def.name).unwrap();
            for segment in &t.data().segments {
                for (column, meta) in segment.columns.iter().zip(&def.columns) {
                    if matches!(column.data, tpcds_storage::ColumnData::Other(_)) {
                        boxed.push(format!("{}.{}", def.name, meta.name));
                    }
                }
            }
        }
        assert!(boxed.is_empty(), "boxed columns: {boxed:#?}");
    }

    #[test]
    fn twelve_operations_run() {
        let (db, g) = loaded();
        let report = run_maintenance(&db, &g, 0).unwrap();
        assert_eq!(report.ops.len(), 12);
        let names: Vec<&str> = report.ops.iter().map(|o| o.name).collect();
        assert_eq!(names, OPERATIONS.to_vec());
        assert!(report.total_rows() > 0);
    }

    #[test]
    fn non_history_update_changes_rows_in_place() {
        let (db, g) = loaded();
        let before = db.row_count("customer");
        let rep = update_non_history_dimension(&db, &g, "customer", 0).unwrap();
        assert!(rep.updated > 0, "no customers updated");
        assert_eq!(rep.inserted, 0);
        assert_eq!(
            db.row_count("customer"),
            before,
            "row count must not change"
        );
    }

    #[test]
    fn history_update_versions_rows() {
        let (db, g) = loaded();
        let before = db.row_count("item");
        let when = refresh_date(&g, 0);
        let rep = update_history_dimension(&db, &g, "item", 0, when).unwrap();
        assert!(rep.updated > 0);
        assert_eq!(rep.updated, rep.inserted, "one new revision per closed one");
        assert_eq!(db.row_count("item"), before + rep.inserted);

        // Exactly one open revision per business key, still.
        let def = g.schema().table("item").unwrap();
        let end_idx = def.column_index("i_rec_end_date").unwrap();
        let t = db.table("item").unwrap();
        let mut open: HashMap<String, u32> = HashMap::new();
        for row in t.data().iter_rows() {
            if row[end_idx].is_null() {
                *open
                    .entry(row[1].as_str().unwrap().to_string())
                    .or_default() += 1;
            }
        }
        assert!(open.values().all(|&c| c == 1), "broken revision chains");
        // New revisions carry the refresh date.
        let start_idx = def.column_index("i_rec_start_date").unwrap();
        assert!(t.data().column(start_idx).any(|d| d == Value::Date(when)));
    }

    #[test]
    fn fact_insert_resolves_to_current_surrogates() {
        let (db, g) = loaded();
        // First version some items so "current" differs from "any".
        let when = refresh_date(&g, 0);
        update_history_dimension(&db, &g, "item", 0, when).unwrap();
        let ss_before = db.row_count("store_sales");
        let rep = insert_channel(
            &db,
            &g,
            "insert_store_channel",
            &["store_sales", "store_returns"],
            0,
        )
        .unwrap();
        assert!(rep.inserted > 0);
        // All inserted item keys resolve to open revisions.
        let item = db.table("item").unwrap();
        let current = current_surrogates(item.data(), g.schema().table("item").unwrap());
        let valid: std::collections::HashSet<i64> = current.values().copied().collect();
        let def = g.schema().table("store_sales").unwrap();
        let item_col = def.column_index("ss_item_sk").unwrap();
        let t = db.table("store_sales").unwrap();
        assert!(t.data().rows > ss_before, "no store_sales inserted");
        for sk in t.data().column(item_col).skip(ss_before) {
            let sk = sk.as_int().unwrap();
            assert!(
                valid.contains(&sk),
                "inserted fact references closed revision {sk}"
            );
        }
    }

    /// Columns `cols` of every row of `table`, as integers.
    fn ints(db: &Database, g: &Generator, table: &str, cols: &[String]) -> Vec<Vec<Option<i64>>> {
        let def = g.schema().table(table).unwrap();
        let cols: Vec<usize> = cols.iter().map(|c| def.column_index(c).unwrap()).collect();
        let t = db.table(table).unwrap();
        let row = |id| {
            cols.iter()
                .map(|&c| t.data().value(id, c).as_int())
                .collect()
        };
        t.data().live_ids().map(row).collect()
    }

    /// Per channel: the returns whose sale — same ticket or order, same
    /// item — is not there, and the sales dated in `range`.
    fn orphans_and_sales_in(db: &Database, g: &Generator, range: (Date, Date)) -> Vec<[usize; 2]> {
        let (lo, hi) = (range.0.date_sk(), range.1.date_sk());
        let channels = [
            ("store", "ss", "sr", "ticket_number"),
            ("catalog", "cs", "cr", "order_number"),
            ("web", "ws", "wr", "order_number"),
        ];
        let channel = |(channel, s, r, key): (&str, &str, &str, &str)| {
            let cols = |p: &str| [key, "item_sk", "sold_date_sk"].map(|c| format!("{p}_{c}"));
            let sales = ints(db, g, &format!("{channel}_sales"), &cols(s));
            let returns = ints(db, g, &format!("{channel}_returns"), &cols(r)[..2]);
            let sold: HashSet<_> = sales.iter().map(|row| (row[0], row[1])).collect();
            let orphans = returns
                .iter()
                .filter(|row| !sold.contains(&(row[0], row[1])));
            let in_range = sales
                .iter()
                .filter(|row| row[2].is_some_and(|d| d >= lo && d <= hi));
            [orphans.count(), in_range.count()]
        };
        channels.into_iter().map(channel).collect()
    }

    #[test]
    fn delete_removes_exactly_the_date_range() {
        let (db, g) = loaded();
        let orphans = |db: &Database| {
            let counts = orphans_and_sales_in(db, &g, g.refresh_delete_range(0));
            counts
                .into_iter()
                .map(|[orphans, _]| orphans)
                .collect::<Vec<_>>()
        };
        let at_load = orphans(&db);
        let mut deleted = [0; 3];
        // At SF 0.01 a two-week range holds a few dozen sales of a channel
        // at most, and of some none: several sets cover all three.
        for seq in 0..8 {
            let range = g.refresh_delete_range(seq);
            let before = orphans_and_sales_in(&db, &g, range);
            let rep = delete_fact_range(&db, &g, seq).unwrap();
            assert!(rep.deleted >= before.iter().map(|[_, sales]| sales).sum());
            let after = orphans_and_sales_in(&db, &g, range);
            for (channel, (b, a)) in before.iter().zip(&after).enumerate() {
                let what = format!("set {seq}, channel {channel}");
                // The returns of the sales deleted go with them.
                assert!(a[0] <= b[0], "{what}: orphan returns {} -> {}", b[0], a[0]);
                assert_eq!(a[1], 0, "{what}: sales in the range survived");
                deleted[channel] += b[1];
            }
        }
        assert!(deleted.iter().all(|&n| n > 0), "{deleted:?}");
        // A refresh set inserts the returns of the sales it inserts.
        for seq in 0..8 {
            run_maintenance(&db, &g, seq).unwrap();
        }
        let after = orphans(&db);
        for (channel, (a, l)) in after.iter().zip(&at_load).enumerate() {
            assert!(
                a <= l,
                "channel {channel}: orphan returns {l} at load, {a} after"
            );
        }
    }

    #[test]
    fn maintenance_commits_one_version_per_op_and_rebuilds_only_mutated() {
        let (db, g) = loaded();
        let v0 = db.version();
        // date_dim is never touched by DM: its segments must survive the
        // whole refresh run as the very same Arc (no global rebuild).
        let date_dim_before = std::sync::Arc::clone(db.table("date_dim").unwrap().data());
        let report = run_maintenance(&db, &g, 0).unwrap();
        assert_eq!(
            db.version(),
            v0 + report.ops.len() as u64,
            "each op commits exactly one snapshot version"
        );
        assert!(std::sync::Arc::ptr_eq(
            db.table("date_dim").unwrap().data(),
            &date_dim_before
        ));
        // A mutated table's published snapshot carries current
        // statistics — nothing left stale to refresh.
        let cust = db.table("customer").unwrap();
        assert_eq!(cust.stats().rows as usize, cust.data().rows);
    }

    #[test]
    fn failed_op_mid_run_leaves_published_snapshot_untouched() {
        let (db, g) = loaded();
        run_maintenance(&db, &g, 0).unwrap();
        let v = db.version();
        let rows = db.total_rows();
        let item_before = std::sync::Arc::clone(db.table("item").unwrap().data());
        // A writer that dies half-way through staging a batch: the panic
        // unwinds out of the transaction without committing.
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let mut txn = db.begin();
            let t = txn.table_mut("item").unwrap();
            let half: Vec<u32> = (t.data().live_ids().step_by(2))
                .map(|id| id as u32)
                .collect();
            t.change(&half, None).unwrap();
            panic!("DM writer dies mid-batch");
        }));
        assert!(result.is_err());
        assert_eq!(db.version(), v, "aborted DM must not publish");
        assert_eq!(db.total_rows(), rows);
        assert!(std::sync::Arc::ptr_eq(
            db.table("item").unwrap().data(),
            &item_before
        ));
        // The writer lock recovered: the next refresh commits normally.
        let rep = run_maintenance(&db, &g, 1).unwrap();
        assert_eq!(rep.ops.len(), 12);
        assert_eq!(db.version(), v + 12);
    }

    #[test]
    fn second_refresh_differs_and_still_works() {
        let (db, g) = loaded();
        let r1 = run_maintenance(&db, &g, 1).unwrap();
        let r2 = run_maintenance(&db, &g, 2).unwrap();
        assert_eq!(r1.ops.len(), r2.ops.len());
        assert!(r1.total_rows() > 0 && r2.total_rows() > 0);
    }
}
