//! Integration: the segments are the table, and every mutator builds the
//! segments it changes while a commit folds the statistics — so what a
//! transaction publishes must be indistinguishable from segments,
//! statistics and indexes built from scratch over the rows it should
//! hold. "The rows it should hold" is a `Vec<Row>` model the test mutates
//! itself wherever the test drives the mutators; after real refresh sets
//! it is the decoded rows, cross-checked against the `OpReport`s' counts.
//! Also checked: what versions share, and what a pinned reader keeps.

use std::collections::HashMap;
use std::ops::DerefMut;
use std::sync::Arc;
use tpcds_repro::engine::{ColumnMeta, Database, DbSnapshot, Table};
use tpcds_repro::storage::{collect_stats, ColumnTable, SEGMENT_ROWS};
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
/// and indexes are what a build from scratch over `rows` gives.
fn assert_as_if_built_from(t: &Table, rows: &[Row], what: &str) {
    let dtypes: Vec<DataType> = t.columns.iter().map(|c| c.dtype).collect();
    let fresh = ColumnTable::from_rows(dtypes, rows);
    let data = t.data();
    assert_eq!(data.rows, rows.len(), "{what}: row count");
    let extents = |ct: &ColumnTable| ct.segments.iter().map(|s| s.rows).collect::<Vec<_>>();
    assert_eq!(extents(data), extents(&fresh), "{what}: segment geometry");
    for (i, (got, want)) in data.iter_rows().zip(rows).enumerate() {
        // Not `==`: that equates a decimal with the integer it equals.
        assert_eq!(format!("{got:?}"), format!("{want:?}"), "{what}: row {i}");
    }

    let stats = t.stats().unwrap_or_else(|| panic!("{what}: no statistics"));
    let expect = collect_stats(&fresh, 1);
    assert_eq!(stats.rows, expect.rows, "{what}: stats rows");
    for (c, (got, want)) in stats.columns.iter().zip(&expect.columns).enumerate() {
        let col = &t.columns[c].name;
        assert_eq!(got.nulls, want.nulls, "{what}.{col}: nulls");
        assert_eq!(got.min, want.min, "{what}.{col}: min");
        assert_eq!(got.max, want.max, "{what}.{col}: max");
        assert_eq!(got.ndv, want.ndv, "{what}.{col}: ndv");
        assert!(got.hist == want.hist, "{what}.{col}: histogram");
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

#[test]
fn refresh_sets_publish_what_a_rebuild_would_at_any_worker_count() {
    let g = Generator::new(0.01);
    for threads in [1, 2, 8] {
        tpcds_repro::storage::set_threads(Some(threads));
        let db = Database::new();
        maint::load_initial_population(&db, &g).unwrap();
        let count = |tables: &[&str]| tables.iter().map(|t| db.row_count(t)).sum::<usize>();
        for seq in 0..5 {
            let (v, before) = (db.version(), MAINTAINED.map(|t| db.row_count(t)));
            let report = maint::run_maintenance(&db, &g, seq).unwrap();
            assert_eq!(db.version(), v + 12, "twelve commits per set");
            assert!(report.total_rows() > 0);
            for (table, before) in MAINTAINED.iter().zip(before) {
                let what = format!("{table} after set {seq} at {threads} threads");
                let t = db.table(table).unwrap();
                let decoded: Vec<Row> = t.data().iter_rows().collect();
                assert_as_if_built_from(&t, &decoded, &what);
                // A dimension has an operation, and so a report, to itself.
                if let Some(op) =
                    (report.ops.iter()).find(|op| op.name == format!("update_{table}"))
                {
                    assert_eq!(decoded.len(), before + op.inserted, "{what}: row count");
                }
            }
            // The fact operations each write several tables: the counts
            // add up over all of them.
            let (inserted, deleted) =
                (report.ops.iter()).fold((0, 0), |(i, d), op| (i + op.inserted, d + op.deleted));
            assert!(inserted > 0 && deleted > 0);
            assert_eq!(
                count(&MAINTAINED) + deleted,
                before.iter().sum::<usize>() + inserted,
                "set {seq} at {threads} threads: rows inserted and deleted"
            );
        }
    }
    tpcds_repro::storage::set_threads(None);
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
    type Op = fn(&Database, &mut Vec<Row>);
    fn append(db: &Database, model: &mut Vec<Row>, n: usize) {
        model.extend(rows_from(model.len(), n));
        db.insert("t", rows_from(model.len() - n, n)).unwrap();
    }
    fn delete(db: &Database, model: &mut Vec<Row>, gone: impl Fn(&[Value]) -> bool) {
        let before = model.len();
        model.retain(|r| !gone(r));
        let deleted = db.delete_where("t", gone).unwrap();
        assert!(deleted > 0 && deleted == before - model.len());
    }
    let ops: [(&str, Op); 6] = [
        ("append 1", |db, model| append(db, model, 1)),
        ("append 70,000", |db, model| append(db, model, 70_000)),
        ("scattered delete", |db, model| {
            delete(db, model, |r| id(r) % 83 == 5)
        }),
        ("delete of the tail segment", |db, model| {
            let tail = (model.len() - 1) / SEGMENT_ROWS * SEGMENT_ROWS;
            delete(db, model, |r| id(r) >= tail);
            assert_eq!(model.len(), tail);
        }),
        ("delete of everything", |db, model| {
            delete(db, model, |_| true)
        }),
        ("update in the first and last segment", |db, model| {
            let n = model.len();
            // A key column and a plain one.
            let update = |row: &mut dyn DerefMut<Target = [Value]>| {
                let hit = id(row) == 3 || id(row) == n - 1;
                if hit {
                    row[1] = Value::Int(1_000_000);
                    row[3] = Value::str("updated");
                }
                hit
            };
            let changed = model
                .iter_mut()
                .filter_map(|r| update(r).then_some(()))
                .count();
            assert_eq!(db.update_each("t", |row| update(row)).unwrap(), changed);
            assert_eq!(changed, 2);
        }),
    ];
    for n in [SEGMENT_ROWS - 1, SEGMENT_ROWS, SEGMENT_ROWS + 1] {
        for (name, op) in &ops {
            let (db, mut model) = (synthetic(n), rows_from(0, n));
            assert_as_if_built_from(&db.table("t").unwrap(), &model, &format!("{n} rows"));
            op(&db, &mut model);
            let what = format!("{n} rows, {name}");
            assert_as_if_built_from(&db.table("t").unwrap(), &model, &what);
        }
    }
}

#[test]
fn one_transaction_composes_every_kind_of_change() {
    let n = SEGMENT_ROWS + 100;
    let (db, mut model) = (synthetic(n), rows_from(0, n));
    let mut txn = db.begin();
    let t = txn.table_mut("t").unwrap();

    t.insert(rows_from(n, 50)).unwrap();
    model.extend(rows_from(n, 50));

    let nulled = t.update_each(|row| set_if(row, id(row) % 1000 == 1, 2, Value::Null));
    for row in &mut model {
        set_if(row, id(row) % 1000 == 1, 2, Value::Null);
    }
    assert_eq!(nulled, n.div_ceil(1000));

    // Takes out base rows, updated rows and rows this transaction added.
    let gone = |r: &[Value]| id(r) % 501 == 1 || id(r) == n + 7;
    let deleted = t.delete_where(gone);
    model.retain(|r| !gone(r));
    assert_eq!(deleted, n + 50 - model.len());

    t.insert(rows_from(n + 50, 3)).unwrap();
    model.extend(rows_from(n + 50, 3));

    let hit = |r: &[Value]| id(r) == 10 || id(r) == n + 51;
    assert_eq!(
        t.update_each(|row| set_if(row, hit(row), 1, Value::Int(-1))),
        2
    );
    for row in &mut model {
        set_if(row, hit(row), 1, Value::Int(-1));
    }

    // The staged table is consistent before the commit, statistics aside.
    let staged: Vec<Row> = t.data().iter_rows().collect();
    assert_eq!(staged, model);
    let commit = txn.commit();
    assert_eq!((commit.tables_changed, commit.tables_rebuilt), (1, 1));
    // Segments built, mutator by mutator: the tail; the first (the 100
    // rows past it hold no id ending in 001); both (the first gap is in
    // the first); the tail; both.
    assert_eq!(commit.segments_rebuilt, 1 + 1 + 2 + 1 + 2);
    assert_as_if_built_from(&db.table("t").unwrap(), &model, "composed");
}

#[test]
fn versions_share_what_the_transaction_left_alone() {
    let n = 2 * SEGMENT_ROWS + 100;
    let (db, mut model) = (synthetic(n), rows_from(0, n));
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
    assert!(Arc::ptr_eq(
        &indexed.stats().unwrap(),
        &base_t.stats().unwrap()
    ));

    // A 10-row append builds the tail segment and nothing else.
    let mut txn = db.begin();
    txn.table_mut("t")
        .unwrap()
        .insert(rows_from(n, 10))
        .unwrap();
    model.extend(rows_from(n, 10));
    let commit = txn.commit();
    assert_eq!((commit.tables_rebuilt, commit.segments_rebuilt), (1, 1));
    let appended = db.table("t").unwrap();
    let (old, new) = (base_t.data(), appended.data());
    assert_eq!(new.segments.len(), 3);
    assert!(Arc::ptr_eq(&new.segments[0], &old.segments[0]));
    assert!(Arc::ptr_eq(&new.segments[1], &old.segments[1]));
    assert!(!Arc::ptr_eq(&new.segments[2], &old.segments[2]));
    assert_as_if_built_from(&appended, &model, "after a 10-row append");

    // The untouched table is the same table: segments, statistics and all.
    let u = db.table("u").unwrap();
    assert!(Arc::ptr_eq(&u, &base_u));
    assert!(Arc::ptr_eq(&u.stats().unwrap(), &base_u.stats().unwrap()));

    // An update rebuilds the segment it lands in; a delete, every segment
    // from the first gap on.
    let hit = |r: &[Value]| id(r) == SEGMENT_ROWS + 5;
    db.update_each("t", |row| set_if(row, hit(row), 3, Value::Null))
        .unwrap();
    model[SEGMENT_ROWS + 5][3] = Value::Null;
    let updated = Arc::clone(db.table("t").unwrap().data());
    assert!(Arc::ptr_eq(&updated.segments[0], &new.segments[0]));
    assert!(!Arc::ptr_eq(&updated.segments[1], &new.segments[1]));
    assert!(Arc::ptr_eq(&updated.segments[2], &new.segments[2]));
    db.delete_where("t", |r| id(r) == SEGMENT_ROWS + 6).unwrap();
    model.remove(SEGMENT_ROWS + 6);
    let deleted = Arc::clone(db.table("t").unwrap().data());
    assert!(Arc::ptr_eq(&deleted.segments[0], &updated.segments[0]));
    assert!(!Arc::ptr_eq(&deleted.segments[1], &updated.segments[1]));
    assert!(!Arc::ptr_eq(&deleted.segments[2], &updated.segments[2]));
    assert_as_if_built_from(&db.table("t").unwrap(), &model, "after update and delete");
}

/// What a reader of `snapshot` sees of table `t`: its rows, the
/// statistics' row count and `id` bounds, and where the `id` index finds
/// ids 5 and 1,003.
type Seen = (Vec<Row>, u64, Option<Value>, Option<Value>, [Vec<usize>; 2]);

fn seen(snapshot: &DbSnapshot) -> Seen {
    let t = snapshot.table("t").unwrap();
    let stats = t.stats().unwrap();
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
    let db = synthetic(1_000);
    let pinned = db.snapshot();
    let before = seen(&pinned);
    assert_eq!(before.0, rows_from(0, 1_000));
    assert_eq!(before.1, 1_000);
    assert_eq!(before.4, [vec![5], vec![]]);

    db.insert("t", rows_from(1_000, 10)).unwrap();
    assert_eq!(seen(&pinned), before, "append moved a pinned snapshot");
    db.delete_where("t", |r| id(r) < 10 || id(r) > 1_005)
        .unwrap();
    assert_eq!(seen(&pinned), before, "delete moved a pinned snapshot");
    db.update_each("t", |row| {
        row[0] = Value::Int(-(id(row) as i64));
        true
    })
    .unwrap();
    assert_eq!(seen(&pinned), before, "update moved a pinned snapshot");

    let head = seen(&db.snapshot());
    assert_eq!(head.1, 996);
    assert_eq!(head.2, Some(Value::Int(-1_005)));
    assert_eq!(head.3, Some(Value::Int(-10)));
    let mut model = rows_from(10, 996);
    for row in &mut model {
        row[0] = Value::Int(-(id(row) as i64));
    }
    assert_as_if_built_from(&db.table("t").unwrap(), &model, "head");
}
