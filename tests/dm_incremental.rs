//! Integration: a commit derives the next version's rows, shadow,
//! statistics and indexes from the base version plus what the transaction
//! changed — and what it publishes must be indistinguishable from building
//! all of them from scratch over the published rows. Checked after real
//! refresh sets, around the segment boundary, for what versions share and
//! for what a pinned reader keeps.

use std::collections::HashMap;
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

/// The invariant: shadow, statistics and indexes of `t` are what a build
/// from scratch over `t.rows()` gives.
fn assert_as_if_rebuilt(t: &Table, what: &str) {
    let dtypes: Vec<DataType> = t.columns.iter().map(|c| c.dtype).collect();
    let fresh = ColumnTable::from_rows(dtypes, t.rows());
    let shadow = t.columnar().unwrap_or_else(|| panic!("{what}: no shadow"));
    assert_eq!(shadow.rows, t.rows().len(), "{what}: shadow row count");
    let extents = |ct: &ColumnTable| ct.segments.iter().map(|s| s.rows).collect::<Vec<_>>();
    assert_eq!(
        extents(&shadow),
        extents(&fresh),
        "{what}: segment geometry"
    );
    for (i, row) in t.rows().iter().enumerate() {
        assert_eq!(shadow.row(i)[..], row[..], "{what}: shadow row {i}");
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
        for (pos, row) in t.rows().iter().enumerate() {
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
        for seq in 0..5 {
            let v = db.version();
            let report = maint::run_maintenance(&db, &g, seq).unwrap();
            assert_eq!(db.version(), v + 12, "twelve commits per set");
            assert!(report.total_rows() > 0);
            for table in MAINTAINED {
                let what = format!("{table} after set {seq} at {threads} threads");
                assert_as_if_rebuilt(&db.table(table).unwrap(), &what);
            }
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
    db.build_columnar_shadows();
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

#[test]
fn every_delta_shape_around_the_segment_boundary() {
    type Op = fn(&Database, usize);
    let ops: [(&str, Op); 6] = [
        ("append 1", |db, n| db.insert("t", rows_from(n, 1)).unwrap()),
        ("append 70,000", |db, n| {
            db.insert("t", rows_from(n, 70_000)).unwrap()
        }),
        ("scattered delete", |db, _| {
            let deleted = db.delete_where("t", |r| id(r) % 83 == 5).unwrap();
            assert!(deleted > 0);
        }),
        ("delete of the tail segment", |db, n| {
            let tail = (n - 1) / SEGMENT_ROWS * SEGMENT_ROWS;
            let deleted = db.delete_where("t", |r| id(r) >= tail).unwrap();
            assert_eq!(deleted, n - tail);
        }),
        ("delete of everything", |db, n| {
            assert_eq!(db.delete_where("t", |_| true).unwrap(), n);
        }),
        ("update in the first and last segment", |db, n| {
            let changed = db
                .update_each("t", |row| {
                    if id(row) != 3 && id(row) != n - 1 {
                        return false;
                    }
                    // A key column and a plain one.
                    row[1] = Value::Int(1_000_000);
                    row[3] = Value::str("updated");
                    true
                })
                .unwrap();
            assert_eq!(changed, 2);
        }),
    ];
    for n in [SEGMENT_ROWS - 1, SEGMENT_ROWS, SEGMENT_ROWS + 1] {
        for (name, op) in &ops {
            let db = synthetic(n);
            assert_as_if_rebuilt(&db.table("t").unwrap(), &format!("{n} rows"));
            op(&db, n);
            assert_as_if_rebuilt(&db.table("t").unwrap(), &format!("{n} rows, {name}"));
        }
    }
}

#[test]
fn one_transaction_composes_every_kind_of_change() {
    let n = SEGMENT_ROWS + 100;
    let db = synthetic(n);
    let mut txn = db.begin();
    let t = txn.table_mut("t").unwrap();
    t.insert(rows_from(n, 50)).unwrap();
    t.update_each(|row| {
        let hit = id(row) % 1000 == 1;
        if hit {
            row[2] = Value::Null;
        }
        hit
    });
    // Takes out base rows, updated rows and rows this transaction added.
    t.delete_where(|r| id(r) % 501 == 1 || id(r) == n + 7);
    t.insert(rows_from(n + 50, 3)).unwrap();
    t.update_each(|row| {
        let hit = id(row) == 10 || id(row) == n + 51;
        if hit {
            row[1] = Value::Int(-1);
        }
        hit
    });
    let commit = txn.commit();
    assert_eq!((commit.tables_changed, commit.tables_rebuilt), (1, 1));
    assert_eq!(commit.segments_rebuilt, 2);
    assert_as_if_rebuilt(&db.table("t").unwrap(), "composed");
}

#[test]
fn versions_share_what_the_transaction_left_alone() {
    let db = synthetic(2 * SEGMENT_ROWS + 100);
    db.create_table_with_rows(
        "u",
        vec![ColumnMeta {
            name: "a".into(),
            dtype: DataType::Int,
        }],
        vec![vec![Value::Int(1)]],
    )
    .unwrap();
    db.build_columnar_shadows();
    let base = db.snapshot();
    let (base_t, base_u) = (base.table("t").unwrap(), base.table("u").unwrap());

    // An index touches no row: the row list itself is shared.
    db.create_index("t", "amount").unwrap();
    let indexed = db.table("t").unwrap();
    assert!(std::ptr::eq(indexed.rows(), base_t.rows()));
    assert!(Arc::ptr_eq(
        &indexed.columnar().unwrap(),
        &base_t.columnar().unwrap()
    ));
    assert!(Arc::ptr_eq(
        &indexed.stats().unwrap(),
        &base_t.stats().unwrap()
    ));

    // A 10-row append builds the tail segment and nothing else, and
    // copies no row.
    let mut txn = db.begin();
    let n = base_t.rows().len();
    txn.table_mut("t")
        .unwrap()
        .insert(rows_from(n, 10))
        .unwrap();
    let commit = txn.commit();
    assert_eq!((commit.tables_rebuilt, commit.segments_rebuilt), (1, 1));
    let appended = db.table("t").unwrap();
    let (old, new) = (base_t.columnar().unwrap(), appended.columnar().unwrap());
    assert_eq!(new.segments.len(), 3);
    assert!(Arc::ptr_eq(&new.segments[0], &old.segments[0]));
    assert!(Arc::ptr_eq(&new.segments[1], &old.segments[1]));
    assert!(!Arc::ptr_eq(&new.segments[2], &old.segments[2]));
    for (was, is) in base_t.rows().iter().zip(appended.rows()) {
        assert!(Arc::ptr_eq(was, is));
    }
    assert_as_if_rebuilt(&appended, "after a 10-row append");

    // The untouched table is the same table: shadow, statistics and all.
    let u = db.table("u").unwrap();
    assert!(Arc::ptr_eq(&u, &base_u));
    assert!(Arc::ptr_eq(&u.stats().unwrap(), &base_u.stats().unwrap()));

    // An update rebuilds the segment it lands in; a delete, every segment
    // from the first gap on.
    db.update_each("t", |row| {
        let hit = id(row) == SEGMENT_ROWS + 5;
        if hit {
            row[3] = Value::Null;
        }
        hit
    })
    .unwrap();
    let updated = db.table("t").unwrap().columnar().unwrap();
    assert!(Arc::ptr_eq(&updated.segments[0], &new.segments[0]));
    assert!(!Arc::ptr_eq(&updated.segments[1], &new.segments[1]));
    assert!(Arc::ptr_eq(&updated.segments[2], &new.segments[2]));
    db.delete_where("t", |r| id(r) == SEGMENT_ROWS + 6).unwrap();
    let deleted = db.table("t").unwrap().columnar().unwrap();
    assert!(Arc::ptr_eq(&deleted.segments[0], &updated.segments[0]));
    assert!(!Arc::ptr_eq(&deleted.segments[1], &updated.segments[1]));
    assert!(!Arc::ptr_eq(&deleted.segments[2], &updated.segments[2]));
    assert_as_if_rebuilt(&db.table("t").unwrap(), "after update and delete");
}

/// What a reader of `snapshot` sees of table `t`: rows through the row
/// store, rows through the shadow, and the statistics' row count and
/// `id` bounds.
type Seen = (Vec<Row>, Vec<Row>, u64, Option<Value>, Option<Value>);

fn seen(snapshot: &DbSnapshot) -> Seen {
    let t = snapshot.table("t").unwrap();
    let shadow = t.columnar().unwrap();
    let stats = t.stats().unwrap();
    (
        t.rows().iter().map(|r| r.to_vec()).collect(),
        (0..shadow.rows).map(|i| shadow.row(i)).collect(),
        stats.rows,
        stats.columns[0].min.clone(),
        stats.columns[0].max.clone(),
    )
}

#[test]
fn a_pinned_snapshot_keeps_its_rows_shadow_and_statistics() {
    // A partial tail segment, so an append has a shared tail to not write
    // through.
    let db = synthetic(1_000);
    let pinned = db.snapshot();
    let before = seen(&pinned);
    assert_eq!(before.0, before.1);
    assert_eq!(before.2, 1_000);

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
    assert_eq!(head.2, 996);
    assert_eq!(head.3, Some(Value::Int(-1_005)));
    assert_eq!(head.4, Some(Value::Int(-10)));
    assert_as_if_rebuilt(&db.table("t").unwrap(), "head");
}
