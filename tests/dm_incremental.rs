//! Integration: the segments are the table, and a table changes by one
//! call, `Table::change`. The rows it removes are marked dead in the masks
//! of the segments they sit in, and a segment is rebuilt only once a
//! quarter of it is dead; the rows it appends copy at most a morsel of
//! tail, and a tail is built once; an update is one change, the old
//! versions removed and the new ones appended; and every change revises
//! the statistics by the rows it moves. The invariant, checked after
//! commits:
//!
//! - the live rows are the rows the table should hold, in order;
//! - no segment is a quarter or more dead;
//! - the statistics are a rebuild's over the live rows, except the NDV
//!   estimates, which also count every row version the table held;
//! - a commit's `segments_rebuilt` counts exactly the segments whose
//!   columns it built: appended and compacted ones;
//! - a pinned snapshot's segments and masks never change.
//!
//! "The rows it should hold" is a model the test mutates itself wherever
//! the test drives the changes — in which an updated row's new version
//! follows the table's other live rows, as the table appends it; after
//! real refresh sets it is the decoded rows, cross-checked against the
//! `OpReport`s' counts. Each test names
//! the cases it covers: mutations around 65,535 / 65,536 / 65,537 rows and
//! across a `MORSEL_ROWS` tail, or twenty refresh sets at 1 / 2 / 8
//! threads. Also checked: what versions share, and that a commit's
//! statistics work is bounded by the cells it changed.

use std::collections::{HashMap, HashSet};
use std::sync::Arc;
use tpcds_core::engine::{ColumnMeta, Commit, Database, DbSnapshot, Table};
use tpcds_core::storage::{
    collect_stats, ColumnTable, ColumnTableBuilder, Segment, COMPACT_DEAD_SHARE, MORSEL_ROWS,
    SEGMENT_ROWS,
};
use tpcds_core::types::{DataType, Date, Decimal, Row, Value};
use tpcds_core::{maint, Generator, TpcDs};

/// The tables data maintenance writes.
const MAINTAINED: [&str; 14] = [
    "customer",
    "customer_address",
    "warehouse",
    "promotion",
    "item",
    "store",
    "call_center",
    "web_site",
    "store_sales",
    "store_returns",
    "catalog_sales",
    "catalog_returns",
    "web_sales",
    "web_returns",
];

/// No segment of `t` is a quarter or more dead.
fn assert_compact(t: &Table, what: &str) {
    for (si, seg) in t.data().segments.iter().enumerate() {
        let dead = seg.rows - seg.live();
        assert!(
            dead == 0 || (dead as f64) < COMPACT_DEAD_SHARE * seg.rows as f64,
            "{what}: segment {si} has {dead} of {} rows dead",
            seg.rows
        );
    }
}

/// The invariant: `t`'s live rows are `rows`, in order, and its segments
/// and statistics are as if built from scratch over them — except
/// the NDV estimates, which are a build's over `rows` and `removed`, the
/// row versions the table held before and no longer does.
fn assert_as_if_built_from<'a>(
    t: &Table,
    rows: &'a [Row],
    removed: impl IntoIterator<Item = &'a Row>,
    what: &str,
) {
    let dtypes: Vec<DataType> = t.columns.iter().map(|c| c.dtype).collect();
    let data = t.data();
    assert_eq!(data.rows, rows.len(), "{what}: row count");
    for (i, (got, want)) in data.iter_rows().zip(rows).enumerate() {
        // Not `==`: that equates a decimal with the integer it equals.
        assert_eq!(format!("{got:?}"), format!("{want:?}"), "{what}: row {i}");
    }
    assert_compact(t, what);

    let stats = t.stats();
    let expect = collect_stats(&ColumnTable::from_rows(dtypes.clone(), rows), 1);
    let mut held = ColumnTableBuilder::new(dtypes);
    rows.iter()
        .chain(removed)
        .for_each(|row| held.push_row(row));
    let held = collect_stats(&held.finish(), 1);
    assert_eq!(stats.rows, expect.rows, "{what}: stats rows");
    for (c, (got, want)) in stats.columns.iter().zip(&expect.columns).enumerate() {
        let col = &t.columns[c].name;
        assert_eq!(got.nulls, want.nulls, "{what}.{col}: nulls");
        assert_eq!(got.min, want.min, "{what}.{col}: min");
        assert_eq!(got.max, want.max, "{what}.{col}: max");
        assert!(got.hist == want.hist, "{what}.{col}: histogram");
        assert_eq!(got.ndv, held.columns[c].ndv, "{what}.{col}: ndv");
    }
}

/// The segments of `new` whose columns `old` does not hold at the same
/// place: the segments a commit between them built.
fn built(old: &Table, new: &Table) -> usize {
    let (old, new) = (&old.data().segments, &new.data().segments);
    let shared = |si: usize, seg: &Arc<Segment>| {
        (old.get(si)).is_some_and(|o| Arc::ptr_eq(&o.columns, &seg.columns))
    };
    (new.iter().enumerate())
        .filter(|(si, seg)| !shared(*si, seg))
        .count()
}

/// What a reader pinning `t` holds: its segments, and how many rows each
/// masks.
fn segments_of(t: &Table) -> Vec<(Arc<Segment>, usize)> {
    let segments = t.data().segments.iter();
    segments
        .map(|s| (Arc::clone(s), s.rows - s.live()))
        .collect()
}

fn assert_unchanged(held: &[(Arc<Segment>, usize)], t: &Table, what: &str) {
    assert_eq!(held.len(), t.data().segments.len(), "{what}: segments");
    for (si, ((old, dead), now)) in held.iter().zip(&t.data().segments).enumerate() {
        assert!(Arc::ptr_eq(old, now), "{what}: pinned segment {si} moved");
        assert_eq!(
            *dead,
            now.rows - now.live(),
            "{what}: pinned mask {si} moved"
        );
    }
}

/// The tables data-maintenance operation `op` writes.
fn written_by(op: &str) -> Vec<&'static str> {
    let fact = |t: &str| t.ends_with("_sales") || t.ends_with("_returns");
    let channel = (op.strip_prefix("insert_")).and_then(|op| op.strip_suffix("_channel"));
    let writes = |t: &&str| match channel {
        Some(channel) => fact(t) && t.starts_with(channel),
        None if op == "delete_fact_range" => fact(t),
        None => op == format!("update_{t}"),
    };
    MAINTAINED.into_iter().filter(writes).collect()
}

/// Covers twenty refresh sets at 1 / 2 / 8 threads: every check of the
/// invariant, each commit's `segments_rebuilt`, `rows_masked` and
/// statistics cells, and the snapshot pinned before each set.
#[test]
fn refresh_sets_publish_what_a_rebuild_would_at_any_worker_count() {
    let g = Generator::new(0.01);
    for threads in [1, 2, 8] {
        tpcds_core::storage::set_threads(Some(threads));
        let db = Database::new();
        maint::load_initial_population(&db, &g).unwrap();
        // A set commits twelve versions; the one before it stays too.
        db.set_snapshot_retention(13);
        let count = |tables: &[&str]| tables.iter().map(|t| db.row_count(t)).sum::<usize>();
        let width = |table: &str| db.table(table).unwrap().columns.len();
        // Every row version each table has held, decoded at every commit.
        let decoded = |snap: &DbSnapshot, table: &str| -> Vec<Row> {
            snap.table(table).unwrap().data().iter_rows().collect()
        };
        let mut held: HashMap<&str, HashSet<Row>> = (MAINTAINED.iter())
            .map(|&table| (table, decoded(&db.snapshot(), table).into_iter().collect()))
            .collect();
        // A two-week range holds no sale of any channel in some sets.
        let mut deleted_in_all = 0;
        for seq in 0..20 {
            let (v, before) = (db.version(), MAINTAINED.map(|t| db.row_count(t)));
            let pinned = db.snapshot();
            let pinned_segments = MAINTAINED.map(|t| segments_of(&pinned.table(t).unwrap()));
            let report = maint::run_maintenance(&db, &g, seq).unwrap();
            assert_eq!(db.version(), v + 12, "twelve commits per set");
            assert!(report.total_rows() > 0);
            for (op, version) in report.ops.iter().zip(v + 1..=v + 12) {
                let what = format!("{} in set {seq} at {threads} threads", op.name);
                let (old, new) = (db.snapshot_at(version - 1), db.snapshot_at(version));
                let (old, new) = (old.unwrap(), new.unwrap());
                let mut rebuilt = 0;
                for table in MAINTAINED {
                    let (was, is) = (old.table(table).unwrap(), new.table(table).unwrap());
                    if !Arc::ptr_eq(was.data(), is.data()) {
                        let rows = held.get_mut(table).unwrap();
                        rows.extend(decoded(&new, table));
                        assert_compact(&is, &format!("{table} after {what}"));
                    }
                    rebuilt += built(&was, &is);
                }
                assert_eq!(op.commit.version, version, "{what}");
                assert_eq!(
                    op.commit.segments_rebuilt, rebuilt,
                    "{what}: segments built"
                );
                assert_eq!(
                    op.commit.rows_masked,
                    op.deleted + op.updated,
                    "{what}: rows masked"
                );
                assert!(
                    op.commit.segments_compacted <= rebuilt,
                    "{what}: compactions"
                );
            }
            for (table, before) in MAINTAINED.iter().zip(before) {
                let what = format!("{table} after set {seq} at {threads} threads");
                let t = db.table(table).unwrap();
                let decoded: Vec<Row> = t.data().iter_rows().collect();
                assert_as_if_built_from(&t, &decoded, &held[table], &what);
                // A dimension has an operation, and so a report, to itself.
                if let Some(op) =
                    (report.ops.iter()).find(|op| op.name == format!("update_{table}"))
                {
                    assert_eq!(decoded.len(), before + op.inserted, "{what}: row count");
                }
            }
            for (table, segments) in MAINTAINED.iter().zip(&pinned_segments) {
                let what = format!("{table} pinned before set {seq} at {threads} threads");
                assert_unchanged(segments, &pinned.table(table).unwrap(), &what);
            }
            // A commit folds in and takes out the cells it changed and no
            // more: an update's row goes out and comes back in.
            for op in &report.ops {
                let width = (written_by(op.name).into_iter()).map(width).max().unwrap();
                let cells = op.commit.stats_cells_folded + op.commit.stats_cells_retracted;
                let changed = op.inserted + op.deleted + 2 * op.updated;
                assert!(
                    cells <= changed * width,
                    "{} in set {seq} at {threads} threads: {cells} statistics cells for \
                     {changed} rows changed of at most {width} columns",
                    op.name
                );
            }
            // The fact operations each write several tables: the counts
            // add up over all of them.
            let (inserted, deleted) =
                (report.ops.iter()).fold((0, 0), |(i, d), op| (i + op.inserted, d + op.deleted));
            assert!(inserted > 0);
            deleted_in_all += deleted;
            assert_eq!(
                count(&MAINTAINED) + deleted,
                before.iter().sum::<usize>() + inserted,
                "set {seq} at {threads} threads: rows inserted and deleted"
            );
        }
        assert!(deleted_in_all > 0);
    }
    tpcds_core::storage::set_threads(None);
}

/// Covers set 0 at SF 0.01: each of the eight dimension updates is one
/// change, and builds one segment, the tail its new versions join — not
/// a compaction of that tail first, nor a second copy of it for a history
/// dimension's new revisions.
#[test]
fn each_dimension_update_builds_its_tail_once() {
    let g = Generator::new(0.01);
    let db = Database::new();
    maint::load_initial_population(&db, &g).unwrap();
    let report = maint::run_maintenance(&db, &g, 0).unwrap();
    let updates: Vec<(&str, usize)> = (report.ops.iter())
        .filter(|op| op.name.starts_with("update_"))
        .map(|op| (op.name, op.commit.segments_rebuilt))
        .collect();
    assert_eq!(updates.len(), 8);
    for (name, built) in updates {
        assert_eq!(built, 1, "{name}: segments built");
    }
}

/// What a table should hold, and every row version it held and no longer
/// does: deleted, or the old version of an updated row.
struct Model {
    rows: Vec<Row>,
    removed: Vec<Row>,
}

impl Model {
    fn new(rows: Vec<Row>) -> Model {
        let removed = Vec::new();
        Model { rows, removed }
    }

    /// Deletes the rows `gone` selects; returns how many.
    fn delete(&mut self, gone: impl Fn(&[Value]) -> bool) -> usize {
        let (removed, kept): (Vec<Row>, _) =
            (std::mem::take(&mut self.rows).into_iter()).partition(|r| gone(r));
        let deleted = removed.len();
        self.rows = kept;
        self.removed.extend(removed);
        deleted
    }

    /// Applies `f` to every row; each row `f` reports writing to is a new
    /// version, which moves to the end, in the rows' order, and its old
    /// version is kept as removed. Returns how many.
    fn update(&mut self, mut f: impl FnMut(&mut Row) -> bool) -> usize {
        let (mut kept, mut moved) = (Vec::new(), Vec::new());
        for mut row in std::mem::take(&mut self.rows) {
            let old = row.clone();
            match f(&mut row) {
                true => {
                    self.removed.push(old);
                    moved.push(row);
                }
                false => kept.push(row),
            }
        }
        let updated = moved.len();
        kept.extend(moved);
        self.rows = kept;
        updated
    }

    fn check(&self, t: &Table, what: &str) {
        assert_as_if_built_from(t, &self.rows, &self.removed, what);
    }
}

/// A table of `n` rows, loaded in full segments, whose first column is the
/// row's position: a key, a group, a money column, a string with NULLs, a
/// date.
fn synthetic(n: usize) -> Database {
    let db = Database::new();
    let columns = [
        ("id", DataType::Int),
        ("grp", DataType::Int),
        ("amount", DataType::Decimal),
        ("label", DataType::Str),
        ("day", DataType::Date),
    ];
    let meta = columns
        .iter()
        .map(|(name, dtype)| ColumnMeta {
            name: name.to_string(),
            dtype: *dtype,
        })
        .collect();
    let dtypes = columns.iter().map(|(_, dtype)| *dtype).collect();
    let mut txn = db.begin();
    txn.create_table("t", meta).unwrap();
    let t = txn.table_mut("t").unwrap();
    let data = ColumnTable::from_rows(dtypes, &rows_from(0, n));
    let stats = collect_stats(&data, 1);
    t.load(data, stats).unwrap();
    txn.commit();
    db
}

fn rows_from(first: usize, n: usize) -> Vec<Row> {
    (first..first + n)
        .map(|i| {
            let label = match i % 7 {
                0 => Value::Null,
                k => Value::str(format!("label-{k}-{}", i % 1000)),
            };
            vec![
                Value::Int(i as i64),
                Value::Int((i % 97) as i64),
                Value::Decimal(Decimal::from_cents((i * 37 % 100_000) as i64)),
                label,
                Value::Date(Date::from_ymd(2000, 1, 1).add_days((i % 2000) as i32)),
            ]
        })
        .collect()
}

fn id(row: &[Value]) -> usize {
    row[0].as_int().unwrap() as usize
}

/// Sets `row[col]` when `hit`, and reports `hit`.
fn set_if(row: &mut Row, hit: bool, col: usize, v: Value) -> bool {
    if hit {
        row[col] = v;
    }
    hit
}

/// Removes the live rows of `t` that `gone` admits: one `Table::change`
/// of their ids. Returns how many.
fn delete_where(t: &mut Table, gone: impl Fn(&[Value]) -> bool) -> usize {
    let data = Arc::clone(t.data());
    let ids: Vec<u32> = (data.live_ids())
        .filter(|&id| gone(&data.row(id)))
        .map(|id| id as u32)
        .collect();
    t.change(&ids, None).unwrap();
    ids.len()
}

/// Applies `f` to each live row of `t`, decoded; each row `f` reports
/// writing to is a new version. One `Table::change` removes the old
/// versions and appends the new ones, in id order. Returns how many.
fn update_each(t: &mut Table, mut f: impl FnMut(&mut Row) -> bool) -> usize {
    let data = Arc::clone(t.data());
    let (mut ids, mut versions) = (Vec::new(), Vec::new());
    for id in data.live_ids() {
        let mut row = data.row(id);
        if f(&mut row) {
            ids.push(id as u32);
            versions.push(row);
        }
    }
    let versions = ColumnTable::from_rows(data.dtypes.clone(), &versions);
    t.change(&ids, Some(&versions)).unwrap();
    ids.len()
}

/// Covers mutations around 65,535 / 65,536 / 65,537 rows and across a
/// `MORSEL_ROWS` tail — 65,536 + 8,191 rows, a tail an append copies, and
/// 65,536 + 8,192, one it leaves alone: every check of the invariant, how
/// many segments each shape builds, and the rows it masks and statistics
/// cells it moves.
#[test]
fn every_mutation_shape_around_the_segment_boundary() {
    // Each operation is applied to the staged table and, by the test's own
    // code, to the model; it returns how many segments it must build, and
    // how many segments of the new version do not share the old one's
    // columns: fewer where a later change of the transaction builds again
    // a segment an earlier one built. The table's segments start full, but
    // for the last.
    type Op = fn(&mut Table, &mut Model) -> (usize, usize);
    fn append(t: &mut Table, model: &mut Model, n: usize) {
        let first = model.rows.len();
        model.rows.extend(rows_from(first, n));
        t.insert(rows_from(first, n)).unwrap();
    }
    fn delete(t: &mut Table, model: &mut Model, gone: impl Fn(&[Value]) -> bool) {
        let deleted = model.delete(&gone);
        assert!(deleted > 0 && delete_where(t, gone) == deleted);
    }
    fn update(t: &mut Table, model: &mut Model, f: impl Fn(&mut Row) -> bool) {
        let updated = model.update(&f);
        assert!(updated > 0 && update_each(t, f) == updated);
    }
    let ops: [(&str, Op); 10] = [
        ("append 1", |t, model| {
            append(t, model, 1);
            (1, 1)
        }),
        ("append 70,000", |t, model| {
            // A tail under a morsel is copied; what is placed fills
            // segments, then whole morsels, then a short tail.
            let tail = model.rows.len() % SEGMENT_ROWS;
            let placed = 70_000 + if tail < MORSEL_ROWS { tail } else { 0 };
            let last = placed % SEGMENT_ROWS;
            append(t, model, 70_000);
            let builds = placed / SEGMENT_ROWS
                + usize::from(last >= MORSEL_ROWS)
                + usize::from(!last.is_multiple_of(MORSEL_ROWS));
            (builds, builds)
        }),
        ("scattered delete", |t, model| {
            delete(t, model, |r| id(r) % 83 == 5);
            (0, 0)
        }),
        ("delete of a quarter of each segment", |t, model| {
            let n = model.rows.len();
            let quarter = |lo: usize| {
                let ids = lo..n.min(lo + SEGMENT_ROWS);
                let len = ids.len();
                4 * ids.filter(|i| i % 4 == 1).count() >= len
            };
            let compacted = (0..n).step_by(SEGMENT_ROWS).filter(|&lo| quarter(lo));
            let compacted = compacted.count();
            delete(t, model, |r| id(r) % 4 == 1);
            (compacted, compacted)
        }),
        ("delete of the tail segment", |t, model| {
            let tail = (model.rows.len() - 1) / SEGMENT_ROWS * SEGMENT_ROWS;
            delete(t, model, |r| id(r) >= tail);
            assert_eq!(model.rows.len(), tail);
            (1, 1)
        }),
        ("delete of everything", |t, model| {
            let segments = model.rows.len().div_ceil(SEGMENT_ROWS);
            delete(t, model, |_| true);
            (segments, segments)
        }),
        // An update of two rows, in the first and last segment, builds the
        // segment its new versions are appended to, and that alone: a
        // one-row last segment it empties is copied, not compacted first.
        ("update in the first and last segment", |t, model| {
            let n = model.rows.len();
            // A key column and a plain one.
            update(t, model, |row| {
                let hit = id(row) == 3 || id(row) == n - 1;
                if hit {
                    row[1] = Value::Int(1_000_000);
                    row[3] = Value::str("updated");
                }
                hit
            });
            assert_eq!(model.removed.len(), 2);
            (1, 1)
        }),
        ("update of the rows holding extremes", |t, model| {
            // Rows 0 and n - 1 alone hold the id's min and max, and their
            // new versions still do; row 0 alone holds the amount's min,
            // which its new version gives up, and the new versions hold
            // the amount's new max and min.
            let n = model.rows.len();
            update(t, model, |row| {
                let hit = id(row) == 0 || id(row) == n - 1;
                if hit {
                    let cents = if id(row) == 0 { 10_000_000 } else { -1 };
                    row[2] = Value::Decimal(Decimal::from_cents(cents));
                }
                hit
            });
            (1, 1)
        }),
        ("a change of nothing", |t, _| {
            // No row removed and an empty batch: nothing moves.
            t.change(&[], None).unwrap();
            let empty = ColumnTable::from_rows::<Row>(t.data().dtypes.clone(), &[]);
            t.change(&[], Some(&empty)).unwrap();
            (0, 0)
        }),
        (
            "update of rows an earlier update moved into the tail",
            |t, model| {
                let n = model.rows.len();
                update(t, model, |row| {
                    set_if(row, [3, 10].contains(&id(row)), 1, Value::Int(-1))
                });
                update(t, model, |row| set_if(row, id(row) == 3, 1, Value::Int(-2)));
                // Each update builds the tail its new versions join, once:
                // the second copies the two- or three-row tail holding row
                // 3's version without compacting it first. Past an
                // 8,191-row tail, row 3's first version seals a full
                // morsel and row 10's starts the next segment: the first
                // update builds both, and the second masks the one and
                // copies the other.
                let sealed = usize::from(n % SEGMENT_ROWS == MORSEL_ROWS - 1);
                (2 + sealed, 1 + sealed)
            },
        ),
    ];
    let sizes = [
        SEGMENT_ROWS - 1,
        SEGMENT_ROWS,
        SEGMENT_ROWS + 1,
        SEGMENT_ROWS + MORSEL_ROWS - 1,
        SEGMENT_ROWS + MORSEL_ROWS,
    ];
    for n in sizes {
        for (name, op) in &ops {
            let what = format!("{n} rows, {name}");
            let (db, mut model) = (synthetic(n), Model::new(rows_from(0, n)));
            let before = db.table("t").unwrap();
            model.check(&before, &format!("{n} rows"));
            let pinned = segments_of(&before);
            let mut txn = db.begin();
            let (builds, not_shared) = op(txn.table_mut("t").unwrap(), &mut model);
            let commit = txn.commit();
            let after = db.table("t").unwrap();
            model.check(&after, &what);
            assert_eq!(commit.segments_rebuilt, builds, "{what}: segments built");
            assert_eq!(
                built(&before, &after),
                not_shared,
                "{what}: columns not shared"
            );
            assert_unchanged(&pinned, &before, &what);
            // Deleted rows and old versions of updated ones are masked and
            // leave the statistics; appended rows and new versions of
            // updated ones come in.
            let width = before.columns.len();
            let removed = model.removed.len();
            let appended = model.rows.len() + removed - n;
            assert_eq!(commit.rows_masked, removed, "{what}: rows masked");
            let cells = (commit.stats_cells_folded, commit.stats_cells_retracted);
            assert_eq!(cells, (appended * width, removed * width), "{what}: cells");
        }
    }
}

/// Covers one transaction over 65,536 + 100 rows: appends, updates and
/// deletes staged on top of each other, checked before and after the
/// commit, and what the commit counts.
#[test]
fn one_transaction_composes_every_kind_of_change() {
    let n = SEGMENT_ROWS + 100;
    let (db, mut model) = (synthetic(n), Model::new(rows_from(0, n)));
    let mut txn = db.begin();
    let t = txn.table_mut("t").unwrap();

    t.insert(rows_from(n, 50)).unwrap();
    model.rows.extend(rows_from(n, 50));

    let nulled = update_each(t, |row| set_if(row, id(row) % 1000 == 1, 2, Value::Null));
    assert_eq!(nulled, n.div_ceil(1000));
    assert_eq!(
        model.update(|row| set_if(row, id(row) % 1000 == 1, 2, Value::Null)),
        nulled
    );

    // Takes out base rows, updated rows and rows this transaction added.
    let gone = |r: &[Value]| id(r) % 501 == 1 || id(r) == n + 7;
    let deleted = delete_where(t, gone);
    assert_eq!(deleted, model.delete(gone));

    t.insert(rows_from(n + 50, 3)).unwrap();
    model.rows.extend(rows_from(n + 50, 3));

    let hit = |r: &[Value]| id(r) == 10 || id(r) == n + 51;
    assert_eq!(
        update_each(t, |row| set_if(row, hit(row), 1, Value::Int(-1))),
        2
    );
    model.update(|row| set_if(row, hit(row), 1, Value::Int(-1)));

    // The staged table is consistent before the commit, statistics aside.
    let staged: Vec<Row> = t.data().iter_rows().collect();
    assert_eq!(staged, model.rows);
    let width = t.columns.len();
    let commit = txn.commit();
    assert_eq!((commit.tables_changed, commit.tables_rebuilt), (1, 1));
    // Segments built, change by change: the 100-row tail, copied; the
    // tail again, the new versions appended (the old ones are masked in
    // the first segment: the 150 rows past it hold no id ending in 001);
    // none (the delete masks both); the tail again, its dead rows dropped;
    // the tail again.
    assert_eq!(commit.segments_rebuilt, 1 + 1 + 1 + 1);
    let updated = nulled + 2;
    assert_eq!(
        (commit.rows_masked, commit.segments_compacted),
        (deleted + updated, 0)
    );
    // Statistics cells: the 53 appended rows and the updates' new versions
    // in; the deleted rows and the updates' old versions out.
    assert_eq!(commit.stats_cells_folded, (53 + updated) * width);
    assert_eq!(commit.stats_cells_retracted, (deleted + updated) * width);
    model.check(&db.table("t").unwrap(), "composed");
}

/// Covers 2 × 65,536 + 100 rows: which segments and columns an append, an
/// update and a delete share with the version before.
#[test]
fn versions_share_what_the_transaction_left_alone() {
    let n = 2 * SEGMENT_ROWS + 100;
    let (db, mut model) = (synthetic(n), Model::new(rows_from(0, n)));
    db.create_table_with_rows(
        "u",
        vec![ColumnMeta {
            name: "a".into(),
            dtype: DataType::Int,
        }],
        vec![vec![Value::Int(1)]],
    )
    .unwrap();
    let base = db.snapshot();
    let (base_t, base_u) = (base.table("t").unwrap(), base.table("u").unwrap());

    // A 10-row append builds the tail segment, nothing else.
    let mut txn = db.begin();
    txn.table_mut("t")
        .unwrap()
        .insert(rows_from(n, 10))
        .unwrap();
    model.rows.extend(rows_from(n, 10));
    let commit = txn.commit();
    assert_eq!((commit.tables_rebuilt, commit.segments_rebuilt), (1, 1));
    let appended = db.table("t").unwrap();
    let (old, new) = (base_t.data(), appended.data());
    assert_eq!(new.segments.len(), 3);
    assert!(Arc::ptr_eq(&new.segments[0], &old.segments[0]));
    assert!(Arc::ptr_eq(&new.segments[1], &old.segments[1]));
    assert!(!Arc::ptr_eq(&new.segments[2], &old.segments[2]));
    model.check(&appended, "after a 10-row append");

    // The untouched table is the same table: segments, statistics and all.
    let u = db.table("u").unwrap();
    assert!(Arc::ptr_eq(&u, &base_u));
    assert!(Arc::ptr_eq(&u.stats(), &base_u.stats()));

    // An update masks the row it hits, a new mask over the same columns,
    // and builds the tail its new version is appended to.
    let hit = |r: &[Value]| id(r) == SEGMENT_ROWS + 5;
    let mut txn = db.begin();
    update_each(txn.table_mut("t").unwrap(), |row| {
        set_if(row, hit(row), 1, Value::Int(-5))
    });
    txn.commit();
    model.update(|row| set_if(row, hit(row), 1, Value::Int(-5)));
    let t = db.table("t").unwrap();
    let updated = Arc::clone(t.data());
    assert!(Arc::ptr_eq(&updated.segments[0], &new.segments[0]));
    assert!(!Arc::ptr_eq(&updated.segments[1], &new.segments[1]));
    assert!(Arc::ptr_eq(
        &updated.segments[1].columns,
        &new.segments[1].columns
    ));
    assert!(!Arc::ptr_eq(&updated.segments[2], &new.segments[2]));
    // A delete builds nothing: the segment it hits is a new mask over the
    // same columns.
    let mut txn = db.begin();
    let gone = |r: &[Value]| id(r) == SEGMENT_ROWS + 6;
    delete_where(txn.table_mut("t").unwrap(), gone);
    model.delete(gone);
    let commit = txn.commit();
    assert_eq!((commit.segments_rebuilt, commit.rows_masked), (0, 1));
    let after = db.table("t").unwrap();
    let deleted = after.data();
    assert!(Arc::ptr_eq(&deleted.segments[0], &updated.segments[0]));
    assert!(!Arc::ptr_eq(&deleted.segments[1], &updated.segments[1]));
    assert!(Arc::ptr_eq(
        &deleted.segments[1].columns,
        &updated.segments[1].columns
    ));
    assert!(Arc::ptr_eq(&deleted.segments[2], &updated.segments[2]));
    model.check(&after, "after update and delete");
}

/// What a reader of `snapshot` sees of table `t`: its rows, and the
/// statistics' row count and `id` bounds.
type Seen = (Vec<Row>, u64, Option<Value>, Option<Value>);

fn seen(snapshot: &DbSnapshot) -> Seen {
    let t = snapshot.table("t").unwrap();
    let stats = t.stats();
    (
        t.data().iter_rows().collect(),
        stats.rows,
        stats.columns[0].min.clone(),
        stats.columns[0].max.clone(),
    )
}

/// Covers 1,000 rows, one short segment: a pinned reader's rows,
/// statistics, segments and masks across an append, a delete and an
/// update.
#[test]
fn a_pinned_snapshot_keeps_its_rows_and_statistics() {
    // A partial tail segment, so an append has a shared tail to not write
    // through.
    let (db, mut model) = (synthetic(1_000), Model::new(rows_from(0, 1_000)));
    let pinned = db.snapshot();
    let before = seen(&pinned);
    let segments = segments_of(&pinned.table("t").unwrap());
    assert_eq!(before.0, rows_from(0, 1_000));
    assert_eq!(before.1, 1_000);
    let unchanged = |what: &str| {
        assert_eq!(seen(&pinned), before, "{what} moved a pinned snapshot");
        assert_unchanged(&segments, &pinned.table("t").unwrap(), what);
    };

    let commit = |f: &dyn Fn(&mut Table)| -> Commit {
        let mut txn = db.begin();
        f(txn.table_mut("t").unwrap());
        txn.commit()
    };
    commit(&|t| t.insert(rows_from(1_000, 10)).unwrap());
    model.rows.extend(rows_from(1_000, 10));
    unchanged("append");
    let gone = |r: &[Value]| id(r) < 10 || id(r) > 1_005;
    let deleted = commit(&|t| assert_eq!(delete_where(t, gone), 14));
    assert_eq!((deleted.rows_masked, deleted.segments_rebuilt), (14, 0));
    model.delete(gone);
    unchanged("delete");
    let negate = |row: &mut Row| {
        row[0] = Value::Int(-(id(row) as i64));
        true
    };
    commit(&|t| assert_eq!(update_each(t, negate), 996));
    model.update(negate);
    unchanged("update");

    let head = seen(&db.snapshot());
    assert_eq!(head.1, 996);
    assert_eq!(head.2, Some(Value::Int(-1_005)));
    assert_eq!(head.3, Some(Value::Int(-10)));
    model.check(&db.table("t").unwrap(), "head");
}

/// Covers twenty SF 0.01 refresh sets, without an oracle: each of the 99
/// templates answers byte for byte alike on the database the sets left —
/// masks, short segments — and on one loaded fresh from its live rows.
#[test]
fn the_99_templates_answer_alike_on_masked_and_freshly_loaded_rows() {
    let tpcds = TpcDs::builder().scale_factor(0.01).build().unwrap();
    for seq in 0..20 {
        tpcds.run_maintenance(seq).unwrap();
    }
    let masked = tpcds.database();
    let fresh = Database::new();
    let mut dead = 0;
    for name in masked.table_names() {
        let t = masked.table(&name).unwrap();
        let data = t.data();
        dead += data
            .segments
            .iter()
            .map(|s| s.rows - s.live())
            .sum::<usize>();
        let rows: Vec<Row> = data.iter_rows().collect();
        fresh
            .create_table_with_rows(&name, t.columns.clone(), rows)
            .unwrap();
    }
    assert!(dead > 0, "twenty sets left no dead row to skip");
    let answer = |db: &Database, sql: &str| match tpcds_core::engine::query(db, sql) {
        Ok(r) => format!("{:?}", r.rows),
        Err(e) => format!("error: {e}"),
    };
    let differ: Vec<u32> = (1..=99)
        .filter(|&id| {
            let sql = tpcds.benchmark_sql(id, 0).unwrap();
            answer(masked, &sql) != answer(&fresh, &sql)
        })
        .collect();
    assert!(
        differ.is_empty(),
        "templates answering differently: {differ:?}"
    );
}
