//! # tpcds-maint
//!
//! The ETL data maintenance workload (paper §4.2): twelve operations —
//! four non-history dimension updates (Figure 8), four history-keeping
//! dimension updates (Figure 9), three channel fact-insert operations with
//! business-key → surrogate-key resolution (Figure 10), and one logically
//! clustered fact delete.

#![warn(missing_docs)]

use std::collections::{HashMap, HashSet};
use tpcds_dgen::Generator;
use tpcds_engine::{Commit, Database, EngineError, Result};
use tpcds_schema::ScdClass;
use tpcds_types::{Date, Value};

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
    /// Rows updated in place.
    pub updated: usize,
    /// Rows inserted.
    pub inserted: usize,
    /// Rows deleted.
    pub deleted: usize,
    /// What the operation's one write transaction published.
    pub commit: Commit,
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
    let span = tpcds_obs::span("maint", "run_maintenance").field("refresh_seq", refresh_seq);
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
    let resolvers = Resolvers::current(db, generator)?;
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
    span.field("rows", report.total_rows())
        .field("versions_committed", report.ops.len() as i64)
        .field("head_version", db.version() as i64)
        .finish();
    Ok(report)
}

/// Records one finished operation as a `maint/op` span carrying the
/// operation's row actuals, and returns the report unchanged.
fn record_op(span: tpcds_obs::SpanGuard, report: OpReport) -> OpReport {
    span.field("op", report.name)
        .field("updated", report.updated)
        .field("inserted", report.inserted)
        .field("deleted", report.deleted)
        .finish();
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

/// Figure 8: for every row to be updated, find the row for the business
/// key and update all changed fields.
pub fn update_non_history_dimension(
    db: &Database,
    generator: &Generator,
    table: &str,
    refresh_seq: u32,
) -> Result<OpReport> {
    let span = tpcds_obs::span("maint", "op");
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
    let mut wanted: HashMap<String, tpcds_types::Row> = HashMap::new();
    for u in updates {
        wanted.insert(u.business_key.clone(), u.row);
    }
    let mut txn = db.begin();
    let t = txn.table_mut(table)?;
    let wanted_at = |data: &tpcds_storage::ColumnTable, id| {
        let bk = data.value(id, bk_idx);
        bk.as_str().is_some_and(|bk| wanted.contains_key(bk))
    };
    let updated = t.update_at(wanted_at, |row| {
        let bk = match row[bk_idx].as_str() {
            Some(s) => s,
            None => return false,
        };
        if let Some(new_row) = wanted.get(bk) {
            // Update all changed fields, preserving the surrogate key and
            // the business key.
            let mut changed = false;
            for (i, v) in new_row.iter().enumerate() {
                if i == 0 || i == bk_idx {
                    continue;
                }
                if row[i] != *v {
                    row[i] = v.clone();
                    changed = true;
                }
            }
            changed
        } else {
            false
        }
    });
    let commit = txn.commit();
    Ok(record_op(
        span,
        OpReport {
            name: op_name(table),
            updated,
            inserted: 0,
            deleted: 0,
            commit,
        },
    ))
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
    let span = tpcds_obs::span("maint", "op");
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
    let mut wanted: HashMap<String, tpcds_types::Row> = HashMap::new();
    for u in updates {
        wanted.insert(u.business_key.clone(), u.row);
    }

    let mut txn = db.begin();
    let t = txn.table_mut(table)?;
    // The statistics' max is exact: a delete or update that takes the max
    // away looks for the next one among the rows left.
    let max_sk = t.stats().columns[0].max.as_ref().and_then(Value::as_int);
    debug_assert_eq!(
        max_sk,
        t.data().column(0).filter_map(|sk| sk.as_int()).max(),
        "{table}: statistics max of the surrogate key"
    );
    let mut next_sk = max_sk.unwrap_or(0) + 1;
    // Close current revisions and queue their replacements.
    let mut to_insert = Vec::new();
    let open_at = |data: &tpcds_storage::ColumnTable, id| data.value(id, end_idx).is_null();
    let closed = t.update_at(open_at, |row| {
        let bk = match row[bk_idx].as_str() {
            Some(s) => s.to_string(),
            None => return false,
        };
        if let Some(new_row) = wanted.get(&bk) {
            row[end_idx] = Value::Date(when.add_days(-1));
            let mut rev = new_row.clone();
            rev[0] = Value::Int(next_sk);
            next_sk += 1;
            rev[bk_idx] = Value::str(&bk);
            rev[start_idx] = Value::Date(when);
            rev[end_idx] = Value::Null;
            to_insert.push(rev);
            true
        } else {
            false
        }
    });
    let inserted = to_insert.len();
    t.insert(to_insert)?;
    let commit = txn.commit();
    Ok(record_op(
        span,
        OpReport {
            name: op_name(table),
            updated: closed,
            inserted,
            deleted: 0,
            commit,
        },
    ))
}

/// Business-key → current-surrogate maps for the maintained dimensions
/// the fact tables reference.
struct Resolvers(HashMap<&'static str, HashMap<String, i64>>);

impl Resolvers {
    fn current(db: &Database, generator: &Generator) -> Result<Resolvers> {
        let mut maps = HashMap::new();
        for table in ["item", "customer", "store"] {
            maps.insert(table, current_surrogates(db, generator, table)?);
        }
        Ok(Resolvers(maps))
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
    let resolvers = Resolvers::current(db, generator)?;
    insert_resolved(db, generator, name, tables, refresh_seq, &resolvers)
}

/// [`insert_channel`] against maps the caller already built.
fn insert_resolved(
    db: &Database,
    generator: &Generator,
    name: &'static str,
    tables: &[&str],
    refresh_seq: u32,
    resolvers: &Resolvers,
) -> Result<OpReport> {
    let span = tpcds_obs::span("maint", "op");
    let mut inserted = 0;
    // One transaction covers the channel's sales + returns tables, so a
    // snapshot either has both inserts or neither.
    let mut txn = db.begin();
    for table in tables {
        let def = generator
            .schema()
            .table(table)
            .ok_or_else(|| EngineError::Catalog(format!("unknown table {table}")))?;
        let conversions: Vec<(usize, &HashMap<String, i64>)> = def
            .foreign_keys
            .iter()
            .filter_map(|f| {
                let resolver = resolvers.0.get(f.ref_table)?;
                Some((def.column_index(f.column).expect("fk col"), resolver))
            })
            .collect();
        let rows = generator.refresh_fact_inserts(table, refresh_seq);
        let mut resolved = Vec::with_capacity(rows.len());
        for mut row in rows {
            let mut ok = true;
            for (col, resolver) in &conversions {
                if let Some(bk) = row[*col].as_str() {
                    match resolver.get(bk) {
                        Some(sk) => row[*col] = Value::Int(*sk),
                        None => {
                            ok = false;
                            break;
                        }
                    }
                }
            }
            if ok {
                resolved.push(row);
            }
        }
        inserted += resolved.len();
        txn.table_mut(table)?.insert(resolved)?;
    }
    let commit = txn.commit();
    Ok(record_op(
        span,
        OpReport {
            name,
            updated: 0,
            inserted,
            deleted: 0,
            commit,
        },
    ))
}

/// Business key → current surrogate key. For history-keeping dimensions
/// only open revisions (rec_end_date IS NULL) resolve; non-history
/// dimensions have one row per key.
pub fn current_surrogates(
    db: &Database,
    generator: &Generator,
    table: &str,
) -> Result<HashMap<String, i64>> {
    let def = generator
        .schema()
        .table(table)
        .ok_or_else(|| EngineError::Catalog(format!("unknown table {table}")))?;
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
    let t = db.table(table)?;
    let data = t.data();
    let mut ends = end_idx.map(|c| data.column(c));
    let mut map = HashMap::with_capacity(data.rows);
    for (sk, bk) in data.column(0).zip(data.column(bk_idx)) {
        let open = (ends.as_mut()).is_none_or(|e| e.next().is_some_and(|end| end.is_null()));
        if let (true, Some(bk), Some(sk)) = (open, bk.as_str(), sk.as_int()) {
            map.insert(bk.to_string(), sk);
        }
    }
    Ok(map)
}

/// The logically clustered fact delete: removes all sales dated in the
/// refresh run's two-week range, and the returns of those sales,
/// mirroring drop-partition-style maintenance.
pub fn delete_fact_range(
    db: &Database,
    generator: &Generator,
    refresh_seq: u32,
) -> Result<OpReport> {
    let span = tpcds_obs::span("maint", "op");
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
        let mut keys = HashSet::new();
        deleted += txn.table_mut(sales)?.delete_at(|data, id| {
            let sk = data.value(id, sold).as_int();
            let gone = sk.is_some_and(|sk| sk >= lo_sk && sk <= hi_sk);
            if gone {
                keys.extend(data.value(id, sale_key).as_int());
            }
            gone
        });
        let return_key = column(returns, return_key);
        deleted += txn.table_mut(returns)?.delete_at(|data, id| {
            let key = data.value(id, return_key).as_int();
            key.is_some_and(|key| keys.contains(&key))
        });
    }
    let commit = txn.commit();
    Ok(record_op(
        span,
        OpReport {
            name: "delete_fact_range",
            updated: 0,
            inserted: 0,
            deleted,
            commit,
        },
    ))
}

/// Loads the initial population of every table into the database
/// (creating the tables first), together with the *basic* auxiliary
/// structures the implementation rules allow on every part of the schema:
/// single-column hash indexes on surrogate keys and the most-probed
/// foreign keys (the richer reporting-only structures are opt-in via
/// `tpcds_runner::build_reporting_aux`).
pub fn load_initial_population(db: &Database, generator: &Generator) -> Result<()> {
    tpcds_engine::create_tpcds_tables(db, generator.schema())?;
    let threads = tpcds_storage::effective_threads();
    for (table, indexed) in basic_index_columns(generator) {
        // Rows stream out of the generator through a segment builder and
        // never exist as a row list. One transaction lands segments and
        // indexes, so the table is staged once and its commit collects
        // the statistics (NDV/histograms) the estimator reads from the
        // first query on.
        let segments = generator.generate_table_columnar(table, threads.max(4));
        let mut txn = db.begin();
        txn.table_mut(table)?.load(segments)?;
        txn.create_indexes(table, &indexed)?;
        txn.commit();
    }
    Ok(())
}

/// Every table with the columns that get a single-column key index at
/// load: dimension surrogate keys, the fact tables' customer / item /
/// order columns (probed by correlated subqueries), and `d_year` (the most
/// common dimension filter).
fn basic_index_columns(generator: &Generator) -> Vec<(&'static str, Vec<&'static str>)> {
    const PROBED: [(&str, &str); 11] = [
        ("store_sales", "ss_customer_sk"),
        ("store_sales", "ss_item_sk"),
        ("store_sales", "ss_ticket_number"),
        ("store_returns", "sr_ticket_number"),
        ("web_sales", "ws_bill_customer_sk"),
        ("web_sales", "ws_order_number"),
        ("web_returns", "wr_order_number"),
        ("catalog_sales", "cs_ship_customer_sk"),
        ("catalog_sales", "cs_order_number"),
        ("catalog_returns", "cr_order_number"),
        ("date_dim", "d_year"),
    ];
    let tables = generator.schema().tables().iter();
    tables
        .map(|t| {
            let key = (t.kind == tpcds_schema::TableKind::Dimension && t.primary_key.len() == 1)
                .then(|| t.primary_key[0]);
            let probed = PROBED.iter().filter(|(table, _)| *table == t.name);
            (t.name, key.into_iter().chain(probed.map(|p| p.1)).collect())
        })
        .collect()
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
        let current = current_surrogates(&db, &g, "item").unwrap();
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
            let half = t.data().rows / 2;
            let mut n = 0;
            t.update_each(|row| {
                n += 1;
                if n > half {
                    panic!("DM writer dies mid-batch");
                }
                row[0] = Value::Int(-1);
                true
            });
            txn.commit();
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
