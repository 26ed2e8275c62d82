//! Integration: data maintenance writes typed cells. A refresh set's fact
//! inserts and dimension updates are generated into typed batches, their
//! business keys resolved on borrowed strings and the batches appended
//! typed buffer to typed buffer; none of it may change a bit of what the
//! boxed row path it replaced builds.
//!
//! The oracle here is that boxed path: every refresh row generated as
//! [`Value`]s (`Generator::row`), business keys turned into `String`s and
//! resolved on the rows, each dimension row updated decoded (`read_row`)
//! and its new version built as a row, and every operation's rows
//! committed as one `Table::change` of `ColumnTable::from_rows` — the
//! closed revisions and their successors in one batch — in the order
//! `run_maintenance` runs them. After 20 sets at SF 0.01 and 5 at SF 0.2,
//! each at 1, 2 and 8 workers, every table of the two databases matches:
//!
//! * segment for segment: boundaries, heap bytes, dead masks, and cell for
//!   cell — buffer type, NULLs, decimal scale and string bytes;
//! * statistics field for field: nulls, min, max, ndv, histogram buckets
//!   and NDV sketch registers;
//!
//! and every operation reports the same rows updated, inserted and
//! deleted, and the same commit.

use std::collections::HashMap;
use std::sync::Mutex;
use tpcds_core::dgen::refresh::RESOLVED_DIMENSIONS;
use tpcds_core::engine::{Commit, Database};
use tpcds_core::storage::{Column, ColumnData, ColumnTable, Segment, TableStats};
use tpcds_core::types::{Date, Row, Value};
use tpcds_core::{maint, Generator};

const WORKERS: [usize; 3] = [1, 2, 8];

/// The worker count is process-wide: one test sets it at a time.
static WORKER_COUNT: Mutex<()> = Mutex::new(());

/// What an operation reports: rows updated, inserted and deleted, and its
/// commit.
type Outcome = (usize, usize, usize, Commit);

/// Asserts that two columns hold the same cells in the same buffer.
fn same_cells(got: &Column, want: &Column, what: &str) {
    assert_eq!(got.len(), want.len(), "{what}: length");
    let nulls = |c: &Column| (0..c.len()).filter(|&i| c.nulls.get(i)).collect::<Vec<_>>();
    assert_eq!(nulls(got), nulls(want), "{what}: NULLs");
    match (&got.data, &want.data) {
        (ColumnData::I64(a), ColumnData::I64(b)) => assert!(a == b, "{what}: integers"),
        (ColumnData::Decimal(a), ColumnData::Decimal(b)) => {
            assert_eq!(a.scale(), b.scale(), "{what}: decimal scale");
            assert!(a.mantissas() == b.mantissas(), "{what}: mantissas");
        }
        (ColumnData::Date(a), ColumnData::Date(b)) => assert!(a == b, "{what}: dates"),
        (ColumnData::Str(a), ColumnData::Str(b)) => {
            assert_eq!(a.byte_len(), b.byte_len(), "{what}: string bytes");
            assert!(
                (0..a.len()).all(|i| a.get(i) == b.get(i)),
                "{what}: strings"
            );
        }
        (a, b) => panic!("{what}: buffers differ:\n{a:.200?}\n{b:.200?}"),
    }
}

/// Asserts that two segments hold the same cells and the same dead rows.
fn same_segment(got: &Segment, want: &Segment, what: &str) {
    assert_eq!((got.rows, got.bytes), (want.rows, want.bytes), "{what}");
    let dead = |s: &Segment| (0..s.rows).filter(|&i| s.is_dead(i)).collect::<Vec<_>>();
    assert_eq!(dead(got), dead(want), "{what}: dead rows");
    for (c, (got, want)) in got.columns.iter().zip(want.columns.iter()).enumerate() {
        same_cells(got, want, &format!("{what}, column {c}"));
    }
}

/// Asserts that two statistics are equal field for field.
fn same_stats(got: &TableStats, want: &TableStats, what: &str) {
    assert_eq!(got.rows, want.rows, "{what}: rows");
    for (c, (got, want)) in got.columns.iter().zip(&want.columns).enumerate() {
        let what = format!("{what}, column {c}");
        assert_eq!(got.nulls, want.nulls, "{what}: nulls");
        // Rendered with the type, so 1.5 and 1.50 differ.
        assert_eq!(
            format!("{:?}", got.min),
            format!("{:?}", want.min),
            "{what}: min"
        );
        assert_eq!(
            format!("{:?}", got.max),
            format!("{:?}", want.max),
            "{what}: max"
        );
        assert_eq!(got.ndv, want.ndv, "{what}: ndv");
        assert!(got.hist == want.hist, "{what}: histogram");
        assert!(got.sketch() == want.sketch(), "{what}: sketch registers");
    }
}

/// Asserts that every table of `got` equals its namesake in `want`.
fn same_tables(g: &Generator, got: &Database, want: &Database, what: &str) {
    for def in g.schema().tables() {
        let (got, want) = (got.table(def.name).unwrap(), want.table(def.name).unwrap());
        let what = format!("{} {what}", def.name);
        let (a, b) = (got.data(), want.data());
        assert_eq!(
            (a.rows, a.segments.len()),
            (b.rows, b.segments.len()),
            "{what}"
        );
        assert_eq!(a.dtypes, b.dtypes, "{what}: column types");
        for (k, (a, b)) in a.segments.iter().zip(&b.segments).enumerate() {
            same_segment(a, b, &format!("{what}, segment {k}"));
        }
        same_stats(&got.stats(), &want.stats(), &what);
    }
}

fn business_key_column(g: &Generator, table: &str) -> usize {
    let def = g.schema().table(table).unwrap();
    def.column_index(def.business_key.unwrap()).unwrap()
}

/// `Generator::refresh_dimension`, boxed: each update's business key and
/// replacement row.
fn boxed_dimension(g: &Generator, table: &str, seq: u32) -> HashMap<String, Row> {
    let bk_idx = business_key_column(g, table);
    let update = |(target, source)| {
        let business_key = g.row(table, target)[bk_idx].as_str().unwrap().to_string();
        let mut row = g.row(table, source);
        row[bk_idx] = Value::str(&business_key);
        (business_key, row)
    };
    g.refresh_revisions(table, seq).map(update).collect()
}

/// `Generator::refresh_fact_inserts`, boxed: the rows, each key into a
/// resolved dimension a business-key string.
fn boxed_fact_inserts(g: &Generator, table: &str, seq: u32) -> Vec<Row> {
    let def = g.schema().table(table).unwrap();
    let keys: Vec<(usize, &str)> = (def.foreign_keys.iter())
        .filter(|f| RESOLVED_DIMENSIONS.contains(&f.ref_table))
        .map(|f| (def.column_index(f.column).unwrap(), f.ref_table))
        .collect();
    let row = |r| {
        let mut row = g.row(table, r);
        for &(col, dimension) in &keys {
            if let Value::Int(sk) = row[col] {
                row[col] = Value::str(g.business_key_of(dimension, sk));
            }
        }
        row
    };
    g.refresh_fact_rows(table, seq).map(row).collect()
}

/// The live rows of `data` whose business key `wanted` revises and, with
/// `open`, whose cell of that column is NULL: their ids, and each row
/// decoded.
fn boxed_revised(
    data: &ColumnTable,
    bk_idx: usize,
    wanted: &HashMap<String, Row>,
    open: Option<usize>,
) -> Vec<(u32, Row)> {
    let selected = |&id: &usize| {
        open.is_none_or(|c| data.is_null(id, c))
            && (data.str_at(id, bk_idx)).is_some_and(|bk| wanted.contains_key(bk))
    };
    let mut row = Row::new();
    let decode = |id: usize| {
        data.read_row(id, &mut row);
        (id as u32, row.clone())
    };
    data.live_ids().filter(selected).map(decode).collect()
}

/// Commits one change of `table`: the rows at `ids` removed, `rows`
/// appended.
fn commit_change(db: &Database, table: &str, ids: &[u32], rows: &[Row]) -> Commit {
    let mut txn = db.begin();
    let t = txn.table_mut(table).unwrap();
    let batch = ColumnTable::from_rows(t.data().dtypes.clone(), rows);
    t.change(ids, Some(&batch)).unwrap();
    txn.commit()
}

/// Figure 8 on boxed rows.
fn update_non_history(db: &Database, g: &Generator, table: &str, seq: u32) -> Outcome {
    let bk_idx = business_key_column(g, table);
    let wanted = boxed_dimension(g, table, seq);
    let data = db.table(table).unwrap().data().clone();
    let (mut ids, mut versions) = (Vec::new(), Vec::new());
    for (id, mut row) in boxed_revised(&data, bk_idx, &wanted, None) {
        let new_row = &wanted[row[bk_idx].as_str().unwrap()];
        let mut changed = false;
        for (i, v) in new_row.iter().enumerate() {
            if i != 0 && i != bk_idx && row[i] != *v {
                row[i] = v.clone();
                changed = true;
            }
        }
        if changed {
            ids.push(id);
            versions.push(row);
        }
    }
    (ids.len(), 0, 0, commit_change(db, table, &ids, &versions))
}

/// Figure 9 on boxed rows: the closed revisions, then their successors,
/// in one batch.
fn update_history(db: &Database, g: &Generator, table: &str, seq: u32, when: Date) -> Outcome {
    let bk_idx = business_key_column(g, table);
    let def = g.schema().table(table).unwrap();
    let ending = |suffix| def.columns.iter().position(|c| c.name.ends_with(suffix));
    let (start_idx, end_idx) = (
        ending("rec_start_date").unwrap(),
        ending("rec_end_date").unwrap(),
    );
    let wanted = boxed_dimension(g, table, seq);
    let t = db.table(table).unwrap();
    let max_sk = t.stats().columns[0].max.as_ref().and_then(Value::as_int);
    let revised = boxed_revised(t.data(), bk_idx, &wanted, Some(end_idx));
    let (mut ids, mut closed, mut revisions) = (Vec::new(), Vec::new(), Vec::new());
    for ((id, mut row), sk) in revised.into_iter().zip(max_sk.unwrap_or(0) + 1..) {
        let mut rev = wanted[row[bk_idx].as_str().unwrap()].clone();
        rev[0] = Value::Int(sk);
        rev[bk_idx] = row[bk_idx].clone();
        rev[start_idx] = Value::Date(when);
        rev[end_idx] = Value::Null;
        row[end_idx] = Value::Date(when.add_days(-1));
        ids.push(id);
        closed.push(row);
        revisions.push(rev);
    }
    let inserted = revisions.len();
    closed.extend(revisions);
    (
        ids.len(),
        inserted,
        0,
        commit_change(db, table, &ids, &closed),
    )
}

/// Figure 10 on boxed rows: business keys resolved on the rows, a row
/// whose key resolves to nothing dropped.
fn insert_channel(db: &Database, g: &Generator, tables: [&str; 2], seq: u32) -> Outcome {
    let dimensions: Vec<_> = RESOLVED_DIMENSIONS.map(|t| db.table(t).unwrap()).into();
    let resolvers: HashMap<&str, HashMap<&str, i64>> = (RESOLVED_DIMENSIONS.iter())
        .zip(&dimensions)
        .map(|(&name, t)| {
            let def = g.schema().table(name).unwrap();
            (name, maint::current_surrogates(t.data(), def))
        })
        .collect();
    let mut inserted = 0;
    let mut txn = db.begin();
    for table in tables {
        let def = g.schema().table(table).unwrap();
        let conversions: Vec<(usize, &HashMap<&str, i64>)> = (def.foreign_keys.iter())
            .filter_map(|f| Some((def.column_index(f.column)?, resolvers.get(f.ref_table)?)))
            .collect();
        let mut resolved = Vec::new();
        'rows: for mut row in boxed_fact_inserts(g, table, seq) {
            for (col, resolver) in &conversions {
                if let Some(bk) = row[*col].as_str() {
                    match resolver.get(bk) {
                        Some(sk) => row[*col] = Value::Int(*sk),
                        None => continue 'rows,
                    }
                }
            }
            resolved.push(row);
        }
        inserted += resolved.len();
        txn.table_mut(table).unwrap().insert(resolved).unwrap();
    }
    (0, inserted, 0, txn.commit())
}

/// One refresh set down the boxed path, operation by operation as
/// `run_maintenance` runs them.
fn boxed_set(db: &Database, g: &Generator, seq: u32) -> Vec<Outcome> {
    let when = maint::refresh_date(g, seq);
    let mut out = Vec::new();
    for table in ["customer", "customer_address", "warehouse", "promotion"] {
        out.push(update_non_history(db, g, table, seq));
    }
    for table in ["item", "store", "call_center", "web_site"] {
        out.push(update_history(db, g, table, seq, when));
    }
    for channel in ["store", "catalog", "web"] {
        let tables = ["sales", "returns"].map(|t| format!("{channel}_{t}"));
        out.push(insert_channel(db, g, [&tables[0], &tables[1]], seq));
    }
    let delete = maint::delete_fact_range(db, g, seq).unwrap();
    out.push((0, 0, delete.deleted, delete.commit));
    out
}

/// Runs `sets` refresh sets typed and boxed at each worker count and
/// checks that both databases hold the same tables after them.
fn typed_sets_match_the_boxed_path(sf: f64, sets: u32) {
    let _serial = WORKER_COUNT.lock().unwrap_or_else(|e| e.into_inner());
    let g = Generator::new(sf);
    for workers in WORKERS {
        tpcds_core::storage::set_threads(Some(workers));
        let [typed, boxed] = [(); 2].map(|_| {
            let db = Database::new();
            maint::load_initial_population(&db, &g).unwrap();
            db
        });
        for seq in 0..sets {
            let what = format!("set {seq} at SF {sf}, {workers} workers");
            let report = maint::run_maintenance(&typed, &g, seq).unwrap();
            let got: Vec<Outcome> = (report.ops.iter())
                .map(|op| (op.updated, op.inserted, op.deleted, op.commit))
                .collect();
            let want = boxed_set(&boxed, &g, seq);
            for ((got, want), op) in got.iter().zip(&want).zip(maint::OPERATIONS) {
                assert_eq!(got, want, "{op} in {what}");
            }
        }
        same_tables(
            &g,
            &typed,
            &boxed,
            &format!("after {sets} sets at {workers} workers"),
        );
    }
    tpcds_core::storage::set_threads(None);
}

#[test]
fn twenty_sets_at_sf_001_match_the_boxed_path() {
    typed_sets_match_the_boxed_path(0.01, 20);
}

#[test]
fn five_sets_at_sf_02_match_the_boxed_path() {
    typed_sets_match_the_boxed_path(0.2, 5);
}
