//! Integration: the segments are the table, and every mutator builds the
//! segments it changes and revises the statistics by the rows it moves —
//! so what a transaction publishes must be indistinguishable from
//! segments, statistics and indexes built from scratch over the rows it
//! should hold, except that the NDV sketch also remembers the rows the
//! table held before. "The rows it should hold" is a model the test
//! mutates itself wherever the test drives the mutators; after real
//! refresh sets it is the decoded rows, cross-checked against the
//! `OpReport`s' counts. Also checked: what versions share, what a pinned
//! reader keeps, and that a commit's statistics work is bounded by the
//! cells it changed.

use std::collections::{HashMap, HashSet};
use std::ops::DerefMut;
use std::sync::Arc;
use tpcds_repro::engine::{ColumnMeta, Database, DbSnapshot, Table};
use tpcds_repro::storage::{collect_stats, ColumnTable, ColumnTableBuilder, SEGMENT_ROWS};
use tpcds_repro::types::{DataType, Date, Decimal, Row, Value};
use tpcds_repro::{maint, Generator};

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

/// The invariant: `t` holds exactly `rows`, and its segments, statistics
/// and indexes are what a build from scratch over `rows` gives — except
/// the NDV estimates, which are a build's over `rows` and `removed`, the
/// row versions the table held before and no longer does.
fn assert_as_if_built_from<'a>(
    t: &Table,
    rows: &'a [Row],
    removed: impl IntoIterator<Item = &'a Row>,
    what: &str,
) {
    let dtypes: Vec<DataType> = t.columns.iter().map(|c| c.dtype).collect();
    let fresh = ColumnTable::from_rows(dtypes.clone(), rows);
    let data = t.data();
    assert_eq!(data.rows, rows.len(), "{what}: row count");
    let extents = |ct: &ColumnTable| ct.segments.iter().map(|s| s.rows).collect::<Vec<_>>();
    assert_eq!(extents(data), extents(&fresh), "{what}: segment geometry");
    for (i, (got, want)) in data.iter_rows().zip(rows).enumerate() {
        // Not `==`: that equates a decimal with the integer it equals.
        assert_eq!(format!("{got:?}"), format!("{want:?}"), "{what}: row {i}");
    }

    let stats = t.stats();
    let expect = collect_stats(&fresh, 1);
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

    for (&col, index) in &t.indexes {
        let mut expect: HashMap<&Value, Vec<usize>> = HashMap::new();
        for (pos, row) in rows.iter().enumerate() {
            expect.entry(&row[col]).or_default().push(pos);
        }
        assert_eq!(
            index.distinct_keys(),
            expect.len(),
            "{what}: index {col} keys"
        );
        for (key, positions) in expect {
            assert_eq!(
                index.lookup(key),
                positions,
                "{what}: index {col} at {key:?}"
            );
        }
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
            let report = maint::run_maintenance(&db, &g, seq).unwrap();
            assert_eq!(db.version(), v + 12, "twelve commits per set");
            assert!(report.total_rows() > 0);
            for version in v + 1..=v + 12 {
                let (old, new) = (db.snapshot_at(version - 1), db.snapshot_at(version));
                let (old, new) = (old.unwrap(), new.unwrap());
                for table in MAINTAINED {
                    let (was, is) = (old.table(table).unwrap(), new.table(table).unwrap());
                    if !Arc::ptr_eq(was.data(), is.data()) {
                        let rows = held.get_mut(table).unwrap();
                        rows.extend(decoded(&new, table));
                    }
                }
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

/// A table of `n` rows whose first column is the row's position: an
/// indexed key, a money column, a string with NULLs, a date.
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
    db.create_table_with_rows("t", meta, rows_from(0, n))
        .unwrap();
    db.create_indexes("t", &["id", "grp"]).unwrap();
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

#[test]
fn every_mutation_shape_around_the_segment_boundary() {
    // Each operation is applied to the table and, by the test's own code,
    // to the model.
    type Op = fn(&Database, &mut Model);
    fn append(db: &Database, model: &mut Model, n: usize) {
        let first = model.rows.len();
        model.rows.extend(rows_from(first, n));
        db.insert("t", rows_from(first, n)).unwrap();
    }
    fn delete(db: &Database, model: &mut Model, gone: impl Fn(&[Value]) -> bool) {
        let deleted = model.delete(&gone);
        assert!(deleted > 0 && db.delete_where("t", gone).unwrap() == deleted);
    }
    let ops: [(&str, Op); 6] = [
        ("append 1", |db, model| append(db, model, 1)),
        ("append 70,000", |db, model| append(db, model, 70_000)),
        ("scattered delete", |db, model| {
            delete(db, model, |r| id(r) % 83 == 5)
        }),
        ("delete of the tail segment", |db, model| {
            let tail = (model.rows.len() - 1) / SEGMENT_ROWS * SEGMENT_ROWS;
            delete(db, model, |r| id(r) >= tail);
            assert_eq!(model.rows.len(), tail);
        }),
        ("delete of everything", |db, model| {
            delete(db, model, |_| true)
        }),
        ("update in the first and last segment", |db, model| {
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
            assert_eq!(db.update_each("t", |row| update(row)).unwrap(), changed);
            assert_eq!(changed, 2);
        }),
    ];
    for n in [SEGMENT_ROWS - 1, SEGMENT_ROWS, SEGMENT_ROWS + 1] {
        for (name, op) in &ops {
            let (db, mut model) = (synthetic(n), Model::new(rows_from(0, n)));
            model.check(&db.table("t").unwrap(), &format!("{n} rows"));
            op(&db, &mut model);
            model.check(&db.table("t").unwrap(), &format!("{n} rows, {name}"));
        }
    }
}

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
    // Segments built, mutator by mutator: the tail; the first (the 100
    // rows past it hold no id ending in 001); both (the first gap is in
    // the first); the tail; both.
    assert_eq!(commit.segments_rebuilt, 1 + 1 + 2 + 1 + 2);
    // Statistics cells: the 53 appended rows and the updates' new versions
    // in; the deleted rows and the updates' old versions out.
    let updated = nulled + 2;
    assert_eq!(commit.stats_cells_folded, (53 + updated) * width);
    assert_eq!(commit.stats_cells_retracted, (deleted + updated) * width);
    model.check(&db.table("t").unwrap(), "composed");
}

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

    // A 10-row append builds the tail segment and nothing else.
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

    // An update rebuilds the segment it lands in; a delete, every segment
    // from the first gap on.
    let hit = |r: &[Value]| id(r) == SEGMENT_ROWS + 5;
    db.update_each("t", |row| set_if(row, hit(row), 3, Value::Null))
        .unwrap();
    model.update(|row| set_if(row, hit(row), 3, Value::Null));
    let updated = Arc::clone(db.table("t").unwrap().data());
    assert!(Arc::ptr_eq(&updated.segments[0], &new.segments[0]));
    assert!(!Arc::ptr_eq(&updated.segments[1], &new.segments[1]));
    assert!(Arc::ptr_eq(&updated.segments[2], &new.segments[2]));
    db.delete_where("t", |r| id(r) == SEGMENT_ROWS + 6).unwrap();
    model.delete(|r| id(r) == SEGMENT_ROWS + 6);
    let deleted = Arc::clone(db.table("t").unwrap().data());
    assert!(Arc::ptr_eq(&deleted.segments[0], &updated.segments[0]));
    assert!(!Arc::ptr_eq(&deleted.segments[1], &updated.segments[1]));
    assert!(!Arc::ptr_eq(&deleted.segments[2], &updated.segments[2]));
    model.check(&db.table("t").unwrap(), "after update and delete");
}

/// What a reader of `snapshot` sees of table `t`: its rows, the
/// statistics' row count and `id` bounds, and where the `id` index finds
/// ids 5 and 1,003.
type Seen = (Vec<Row>, u64, Option<Value>, Option<Value>, [Vec<usize>; 2]);

fn seen(snapshot: &DbSnapshot) -> Seen {
    let t = snapshot.table("t").unwrap();
    let stats = t.stats();
    (
        t.data().iter_rows().collect(),
        stats.rows,
        stats.columns[0].min.clone(),
        stats.columns[0].max.clone(),
        [5, 1_003].map(|id| t.indexes[&0].lookup(&Value::Int(id)).to_vec()),
    )
}

#[test]
fn a_pinned_snapshot_keeps_its_rows_statistics_and_indexes() {
    // A partial tail segment, so an append has a shared tail to not write
    // through.
    let (db, mut model) = (synthetic(1_000), Model::new(rows_from(0, 1_000)));
    let pinned = db.snapshot();
    let before = seen(&pinned);
    assert_eq!(before.0, rows_from(0, 1_000));
    assert_eq!(before.1, 1_000);
    assert_eq!(before.4, [vec![5], vec![]]);

    db.insert("t", rows_from(1_000, 10)).unwrap();
    model.rows.extend(rows_from(1_000, 10));
    assert_eq!(seen(&pinned), before, "append moved a pinned snapshot");
    let gone = |r: &[Value]| id(r) < 10 || id(r) > 1_005;
    db.delete_where("t", gone).unwrap();
    model.delete(gone);
    assert_eq!(seen(&pinned), before, "delete moved a pinned snapshot");
    let negate = |row: &mut dyn DerefMut<Target = [Value]>| {
        row[0] = Value::Int(-(id(row) as i64));
        true
    };
    db.update_each("t", |row| negate(row)).unwrap();
    model.update(|row| negate(row));
    assert_eq!(seen(&pinned), before, "update moved a pinned snapshot");

    let head = seen(&db.snapshot());
    assert_eq!(head.1, 996);
    assert_eq!(head.2, Some(Value::Int(-1_005)));
    assert_eq!(head.3, Some(Value::Int(-10)));
    model.check(&db.table("t").unwrap(), "head");
}
