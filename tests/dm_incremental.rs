//! Integration: the segments are the table. A delete marks its rows dead
//! in the masks of the segments it hits and rebuilds a segment only once a
//! quarter of it is dead, an append copies at most a morsel of tail, an
//! index is one map per segment, and every mutator revises the statistics
//! by the rows it moves. The invariant, checked after commits:
//!
//! - the live rows are the rows the table should hold, in order;
//! - no segment is a quarter or more dead;
//! - every segment's index map is the one built from its live rows, and a
//!   lookup finds exactly the rows holding its key;
//! - the statistics are a rebuild's over the live rows, except the NDV
//!   estimates, which also count every row version the table held;
//! - a commit's `segments_rebuilt` counts exactly the segments whose
//!   columns it built: appended, replaced and compacted ones;
//! - a pinned snapshot's segments and masks never change.
//!
//! "The rows it should hold" is a model the test mutates itself wherever
//! the test drives the mutators; after real refresh sets it is the decoded
//! rows, cross-checked against the `OpReport`s' counts. Each test names
//! the cases it covers: mutations around 65,535 / 65,536 / 65,537 rows and
//! across a `MORSEL_ROWS` tail, or twenty refresh sets at 1 / 2 / 8
//! threads. Also checked: what versions share, and that a commit's
//! statistics work is bounded by the cells it changed.

use std::collections::{HashMap, HashSet};
use std::ops::DerefMut;
use std::sync::Arc;
use tpcds_repro::engine::{ColumnMeta, Commit, Database, DbSnapshot, Index, Table};
use tpcds_repro::storage::{
    collect_stats, ColumnTable, ColumnTableBuilder, Segment, COMPACT_DEAD_SHARE, MORSEL_ROWS,
    SEGMENT_ROWS,
};
use tpcds_repro::types::{DataType, Date, Decimal, Row, Value};
use tpcds_repro::{maint, Generator, TpcDs};

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

/// The invariant: `t`'s live rows are `rows`, in order, and its segments,
/// statistics and indexes are as if built from scratch over them — except
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

    let position: HashMap<usize, usize> = (data.live_ids().enumerate())
        .map(|(pos, id)| (id, pos))
        .collect();
    for (&col, index) in &t.indexes {
        for (si, seg) in data.segments.iter().enumerate() {
            let live = |(key, offsets): (&Value, &Vec<u32>)| {
                let offsets: Vec<u32> = (offsets.iter().copied())
                    .filter(|&i| !seg.is_dead(i as usize))
                    .collect();
                (!offsets.is_empty()).then(|| (key.clone(), offsets))
            };
            let map: HashMap<Value, Vec<u32>> = index.segment(si).iter().filter_map(live).collect();
            assert!(
                map == Index::postings(seg, col),
                "{what}: index {col}, segment {si}"
            );
        }
        let mut expect: HashMap<&Value, Vec<usize>> = HashMap::new();
        for (pos, row) in rows.iter().enumerate() {
            expect.entry(&row[col]).or_default().push(pos);
        }
        for (key, positions) in expect {
            let found: Vec<usize> = index.lookup(data, key).map(|id| position[&id]).collect();
            assert_eq!(found, positions, "{what}: index {col} at {key:?}");
        }
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
        tpcds_repro::storage::set_threads(Some(threads));
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
                // A history-keeping update closes revisions, then appends
                // their successors: the two may build the same tail.
                if op.updated > 0 && op.inserted > 0 {
                    assert!(
                        op.commit.segments_rebuilt >= rebuilt,
                        "{what}: segments built"
                    );
                } else {
                    assert_eq!(
                        op.commit.segments_rebuilt, rebuilt,
                        "{what}: segments built"
                    );
                }
                assert_eq!(op.commit.rows_masked, op.deleted, "{what}: rows masked");
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
    tpcds_repro::storage::set_threads(None);
}

/// What a table should hold, and every row version it held and no longer
/// does: deleted, or overwritten by an update.
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

    /// Applies `f` to every row, keeping the old version of each row `f`
    /// reports writing to; returns how many.
    fn update(&mut self, mut f: impl FnMut(&mut Row) -> bool) -> usize {
        let before = self.removed.len();
        for row in &mut self.rows {
            let old = row.clone();
            if f(row) {
                self.removed.push(old);
            }
        }
        self.removed.len() - before
    }

    fn check(&self, t: &Table, what: &str) {
        assert_as_if_built_from(t, &self.rows, &self.removed, what);
    }
}

/// A table of `n` rows, loaded in full segments, whose first column is the
/// row's position: an indexed key, an indexed group, a money column, a
/// string with NULLs, a date.
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
    t.load(ColumnTable::from_rows(dtypes, &rows_from(0, n)))
        .unwrap();
    txn.create_indexes("t", &["id", "grp"]).unwrap();
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

/// Sets `row[col]` when `hit`, through whatever holds the row — the
/// table's `RowMut` or the model's `Vec` — and reports `hit`. A row that
/// is not hit is not written through.
fn set_if(row: &mut impl DerefMut<Target = [Value]>, hit: bool, col: usize, v: Value) -> bool {
    if hit {
        row[col] = v;
    }
    hit
}

/// Covers mutations around 65,535 / 65,536 / 65,537 rows and across a
/// `MORSEL_ROWS` tail — 65,536 + 8,191 rows, a tail an append copies, and
/// 65,536 + 8,192, one it leaves alone: every check of the invariant, and
/// how many segments each shape builds.
#[test]
fn every_mutation_shape_around_the_segment_boundary() {
    // Each operation is applied to the staged table and, by the test's own
    // code, to the model; it returns how many segments it must build. The
    // table's segments start full, but for the last.
    type Op = fn(&mut Table, &mut Model) -> usize;
    fn append(t: &mut Table, model: &mut Model, n: usize) {
        let first = model.rows.len();
        model.rows.extend(rows_from(first, n));
        t.insert(rows_from(first, n)).unwrap();
    }
    fn delete(t: &mut Table, model: &mut Model, gone: impl Fn(&[Value]) -> bool) {
        let deleted = model.delete(&gone);
        assert!(deleted > 0 && t.delete_where(gone) == deleted);
    }
    let ops: [(&str, Op); 7] = [
        ("append 1", |t, model| {
            append(t, model, 1);
            1
        }),
        ("append 70,000", |t, model| {
            // A tail under a morsel is copied; what is placed fills
            // segments, then whole morsels, then a short tail.
            let tail = model.rows.len() % SEGMENT_ROWS;
            let placed = 70_000 + if tail < MORSEL_ROWS { tail } else { 0 };
            let last = placed % SEGMENT_ROWS;
            append(t, model, 70_000);
            placed / SEGMENT_ROWS
                + usize::from(last >= MORSEL_ROWS)
                + usize::from(!last.is_multiple_of(MORSEL_ROWS))
        }),
        ("scattered delete", |t, model| {
            delete(t, model, |r| id(r) % 83 == 5);
            0
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
            compacted
        }),
        ("delete of the tail segment", |t, model| {
            let tail = (model.rows.len() - 1) / SEGMENT_ROWS * SEGMENT_ROWS;
            delete(t, model, |r| id(r) >= tail);
            assert_eq!(model.rows.len(), tail);
            1
        }),
        ("delete of everything", |t, model| {
            let segments = model.rows.len().div_ceil(SEGMENT_ROWS);
            delete(t, model, |_| true);
            segments
        }),
        ("update in the first and last segment", |t, model| {
            let n = model.rows.len();
            // A key column and a plain one.
            let update = |row: &mut dyn DerefMut<Target = [Value]>| {
                let hit = id(row) == 3 || id(row) == n - 1;
                if hit {
                    row[1] = Value::Int(1_000_000);
                    row[3] = Value::str("updated");
                }
                hit
            };
            let changed = model.update(|r| update(r));
            assert_eq!(t.update_each(|row| update(row)), changed);
            assert_eq!(changed, 2);
            n.div_ceil(SEGMENT_ROWS)
        }),
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
            let builds = op(txn.table_mut("t").unwrap(), &mut model);
            let commit = txn.commit();
            let after = db.table("t").unwrap();
            model.check(&after, &what);
            assert_eq!(commit.segments_rebuilt, builds, "{what}: segments built");
            assert_eq!(built(&before, &after), builds, "{what}: columns not shared");
            assert_unchanged(&pinned, &before, &what);
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

    let nulled = t.update_each(|row| set_if(row, id(row) % 1000 == 1, 2, Value::Null));
    assert_eq!(nulled, n.div_ceil(1000));
    assert_eq!(
        model.update(|row| set_if(row, id(row) % 1000 == 1, 2, Value::Null)),
        nulled
    );

    // Takes out base rows, updated rows and rows this transaction added.
    let gone = |r: &[Value]| id(r) % 501 == 1 || id(r) == n + 7;
    let deleted = t.delete_where(gone);
    assert_eq!(deleted, model.delete(gone));

    t.insert(rows_from(n + 50, 3)).unwrap();
    model.rows.extend(rows_from(n + 50, 3));

    let hit = |r: &[Value]| id(r) == 10 || id(r) == n + 51;
    assert_eq!(
        t.update_each(|row| set_if(row, hit(row), 1, Value::Int(-1))),
        2
    );
    model.update(|row| set_if(row, hit(row), 1, Value::Int(-1)));

    // The staged table is consistent before the commit, statistics aside.
    let staged: Vec<Row> = t.data().iter_rows().collect();
    assert_eq!(staged, model.rows);
    let width = t.columns.len();
    let commit = txn.commit();
    assert_eq!((commit.tables_changed, commit.tables_rebuilt), (1, 1));
    // Segments built, mutator by mutator: the 100-row tail, copied; the
    // first (the 150 rows past it hold no id ending in 001); none (the
    // delete masks both); the tail again, its dead rows dropped; both.
    assert_eq!(commit.segments_rebuilt, 1 + 1 + 1 + 2);
    assert_eq!(
        (commit.rows_masked, commit.segments_compacted),
        (deleted, 0)
    );
    // Statistics cells: the 53 appended rows and the updates' new versions
    // in; the deleted rows and the updates' old versions out.
    let updated = nulled + 2;
    assert_eq!(commit.stats_cells_folded, (53 + updated) * width);
    assert_eq!(commit.stats_cells_retracted, (deleted + updated) * width);
    model.check(&db.table("t").unwrap(), "composed");
}

/// Covers 2 × 65,536 + 100 rows: which segments, columns and index maps
/// an index, an append, an update and a delete share with the version
/// before.
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

    // An index touches no row: the segments themselves are shared.
    db.create_index("t", "amount").unwrap();
    let indexed = db.table("t").unwrap();
    assert!(Arc::ptr_eq(indexed.data(), base_t.data()));
    assert!(Arc::ptr_eq(&indexed.stats(), &base_t.stats()));

    // A 10-row append builds the tail segment and its maps, nothing else.
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
    let map = |t: &Table, col: usize, si: usize| Arc::clone(t.indexes[&col].segment(si));
    for col in [0, 1, 2] {
        assert!(Arc::ptr_eq(&map(&appended, col, 1), &map(&indexed, col, 1)));
        assert!(!Arc::ptr_eq(
            &map(&appended, col, 2),
            &map(&indexed, col, 2)
        ));
    }
    model.check(&appended, "after a 10-row append");

    // The untouched table is the same table: segments, statistics and all.
    let u = db.table("u").unwrap();
    assert!(Arc::ptr_eq(&u, &base_u));
    assert!(Arc::ptr_eq(&u.stats(), &base_u.stats()));

    // An update rebuilds the segment it lands in, and the maps there of
    // the columns it changed only.
    let hit = |r: &[Value]| id(r) == SEGMENT_ROWS + 5;
    db.update_each("t", |row| set_if(row, hit(row), 1, Value::Int(-5)))
        .unwrap();
    model.update(|row| set_if(row, hit(row), 1, Value::Int(-5)));
    let t = db.table("t").unwrap();
    let updated = Arc::clone(t.data());
    assert!(Arc::ptr_eq(&updated.segments[0], &new.segments[0]));
    assert!(!Arc::ptr_eq(&updated.segments[1], &new.segments[1]));
    assert!(Arc::ptr_eq(&updated.segments[2], &new.segments[2]));
    assert!(Arc::ptr_eq(&map(&t, 0, 1), &map(&appended, 0, 1)));
    assert!(!Arc::ptr_eq(&map(&t, 1, 1), &map(&appended, 1, 1)));
    // A delete builds nothing: the segment it hits is a new mask over the
    // same columns, and every index map is shared.
    let mut txn = db.begin();
    let gone = |r: &[Value]| id(r) == SEGMENT_ROWS + 6;
    txn.table_mut("t").unwrap().delete_where(gone);
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
    for (col, si) in [0, 1, 2]
        .into_iter()
        .flat_map(|c| (0..3).map(move |s| (c, s)))
    {
        assert!(Arc::ptr_eq(&map(&after, col, si), &map(&t, col, si)));
    }
    model.check(&after, "after update and delete");
}

/// What a reader of `snapshot` sees of table `t`: its rows, the
/// statistics' row count and `id` bounds, and where the `id` index finds
/// ids 5 and 1,003.
type Seen = (Vec<Row>, u64, Option<Value>, Option<Value>, [Vec<usize>; 2]);

fn seen(snapshot: &DbSnapshot) -> Seen {
    let t = snapshot.table("t").unwrap();
    let stats = t.stats();
    let lookup = |id: i64| t.indexes[&0].lookup(t.data(), &Value::Int(id)).collect();
    (
        t.data().iter_rows().collect(),
        stats.rows,
        stats.columns[0].min.clone(),
        stats.columns[0].max.clone(),
        [5, 1_003].map(lookup),
    )
}

/// Covers 1,000 rows, one short segment: a pinned reader's rows,
/// statistics, index lookups, segments and masks across an append, a
/// delete and an update.
#[test]
fn a_pinned_snapshot_keeps_its_rows_statistics_and_indexes() {
    // A partial tail segment, so an append has a shared tail to not write
    // through.
    let (db, mut model) = (synthetic(1_000), Model::new(rows_from(0, 1_000)));
    let pinned = db.snapshot();
    let before = seen(&pinned);
    let segments = segments_of(&pinned.table("t").unwrap());
    assert_eq!(before.0, rows_from(0, 1_000));
    assert_eq!(before.1, 1_000);
    assert_eq!(before.4, [vec![5], vec![]]);
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
    let deleted = commit(&|t| assert_eq!(t.delete_where(gone), 14));
    assert_eq!((deleted.rows_masked, deleted.segments_rebuilt), (14, 0));
    model.delete(gone);
    unchanged("delete");
    let negate = |row: &mut dyn DerefMut<Target = [Value]>| {
        row[0] = Value::Int(-(id(row) as i64));
        true
    };
    commit(&|t| assert_eq!(t.update_each(|row| negate(row)), 996));
    model.update(|row| negate(row));
    unchanged("update");

    let head = seen(&db.snapshot());
    assert_eq!(head.1, 996);
    assert_eq!(head.2, Some(Value::Int(-1_005)));
    assert_eq!(head.3, Some(Value::Int(-10)));
    model.check(&db.table("t").unwrap(), "head");
}

/// Covers twenty SF 0.01 refresh sets, without an oracle: each of the 99
/// templates answers byte for byte alike on the database the sets left —
/// masks, short segments, per-segment index maps — and on one loaded fresh
/// from its live rows, with the same indexes.
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
        let indexed: Vec<&str> = (t.indexes.keys())
            .map(|&c| t.columns[c].name.as_str())
            .collect();
        fresh.create_indexes(&name, &indexed).unwrap();
    }
    assert!(dead > 0, "twenty sets left no dead row to skip");
    let answer = |db: &Database, sql: &str| match tpcds_repro::engine::query(db, sql) {
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
