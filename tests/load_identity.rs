//! Integration: the load writes each generated row's typed cells straight
//! into a segment's columns, and folds statistics one loop per buffer type
//! with a memo of the values met. Neither may change a bit of what the
//! row path builds. For every table at SF 0.01, and for `store_sales`,
//! `date_dim`, `time_dim` and `customer_demographics` at SF 0.2, at 1, 2
//! and 8 workers:
//!
//! * each segment `Generator::generate_segment` builds equals
//!   `ColumnTable::from_rows` of the generator's rows, cell for cell:
//!   buffer type, NULLs, decimal scale and string bytes;
//! * the statistics folded from the typed columns equal those folded from
//!   the same rows boxed as values — a table whose columns are all
//!   declared `Bool` keeps every cell as a `Value`, and its fold is the
//!   one the typed fold replaced — field for field, the NDV sketch's
//!   registers and the histogram's buckets included, through
//!   `segment_stats`, `extend_stats`, `collect_stats_at` and
//!   `removed_stats_at`, and again once a delete has masked rows.
//!
//! `date_dim` and `time_dim` hold the same rows at every scale factor, so
//! the SF 0.2 test checks them for both.

use tpcds_core::storage::{
    collect_stats_at, extend_stats, merge_segment_stats, removed_stats_at, run_chunks,
    segment_stats, Column, ColumnData, ColumnTable, ColumnTableBuilder, Segment, TableStats,
};
use tpcds_core::types::DataType;
use tpcds_core::Generator;

const WORKERS: [usize; 3] = [1, 2, 8];

/// Tables whose rows do not depend on the scale factor.
const FIXED: [&str; 2] = ["date_dim", "time_dim"];

fn dtypes(g: &Generator, table: &str) -> Vec<DataType> {
    let def = g.schema().table(table).unwrap();
    def.columns.iter().map(|c| c.ctype.data_type()).collect()
}

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

/// Asserts that two segments hold the same cells.
fn same_segment(got: &Segment, want: &Segment, what: &str) {
    assert_eq!((got.rows, got.bytes), (want.rows, want.bytes), "{what}");
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

/// Checks every segment of `table` at each worker count against the rows
/// the generator yields; returns the table as built.
fn check_segments(g: &Generator, table: &str) -> ColumnTable {
    let dtypes = dtypes(g, table);
    let want: Vec<ColumnTable> = (0..g.segments(table))
        .map(|k| {
            ColumnTable::from_rows(
                dtypes.clone(),
                &g.segment_rows(table, k).collect::<Vec<_>>(),
            )
        })
        .collect();
    let mut built = Vec::new();
    for workers in WORKERS {
        built = run_chunks(want.len(), workers, |k| g.generate_segment(table, k));
        for (k, (got, want)) in built.iter().zip(&want).enumerate() {
            assert_eq!(want.segments.len(), 1);
            let what = format!("{table} segment {k}, {workers} workers");
            same_segment(got, &want.segments[0], &what);
        }
    }
    ColumnTable {
        rows: built.iter().map(|s| s.rows).sum(),
        dtypes,
        segments: built,
    }
}

/// `table`'s rows with every cell boxed, cut into the same segments.
fn boxed(table: &ColumnTable) -> ColumnTable {
    let mut b = ColumnTableBuilder::new(vec![DataType::Bool; table.width()]);
    for seg in &table.segments {
        (0..seg.rows).for_each(|i| b.push_row(&seg.row(i)));
    }
    let boxed = b.finish();
    let columns = boxed.segments.iter().flat_map(|s| s.columns.iter());
    assert!(columns
        .clone()
        .all(|c| matches!(c.data, ColumnData::Other(_))));
    boxed
}

/// Checks each way of folding `typed`'s statistics against the fold of
/// `boxed`, which holds the same rows and dead rows boxed.
fn check_stats(typed: &ColumnTable, boxed: &ColumnTable, what: &str) {
    let width = typed.width();
    let segments = |t: &ColumnTable| -> Vec<TableStats> {
        t.segments.iter().map(|s| segment_stats(s)).collect()
    };
    let (parts, want_parts) = (segments(typed), segments(boxed));
    for (k, (got, want)) in parts.iter().zip(&want_parts).enumerate() {
        same_stats(got, want, &format!("{what}: segment_stats of segment {k}"));
    }
    // Every live row, then all but the first segment's onto its statistics.
    let empty = TableStats::empty(width);
    let first = |parts: &[TableStats]| merge_segment_stats(width, &parts[..1]);
    let ids: Vec<u32> = (typed.live_ids().step_by(7))
        .chain(typed.live_ids().last())
        .map(|id| id as u32)
        .collect();
    let want = [
        extend_stats(&empty, boxed, 1),
        extend_stats(&first(&want_parts), boxed, 1),
        collect_stats_at(boxed, &ids, 1),
        removed_stats_at(boxed, &ids, 1),
    ];
    for workers in WORKERS {
        let got = [
            extend_stats(&empty, typed, workers),
            extend_stats(&first(&parts), typed, workers),
            collect_stats_at(typed, &ids, workers),
            removed_stats_at(typed, &ids, workers),
        ];
        let names = ["all rows", "past segment 0", "at ids", "removed at ids"];
        for ((got, want), name) in got.iter().zip(&want).zip(names) {
            same_stats(got, want, &format!("{what}, {workers} workers: {name}"));
        }
    }
}

/// Checks `table`'s segments, then its statistics: as built, and with
/// every eleventh row of its first segment from the sixth on deleted —
/// under a quarter, so masked, not compacted.
fn check_table(g: &Generator, table: &str) {
    let typed = check_segments(g, table);
    let boxed = boxed(&typed);
    check_stats(&typed, &boxed, table);
    let gone: Vec<u32> = (5..typed.segments[0].rows as u32).step_by(11).collect();
    if !gone.is_empty() {
        let (typed, compacted) = typed.delete(&gone, 2);
        assert!(compacted.is_empty() && typed.has_dead(), "{table}: a mask");
        check_stats(
            &typed,
            &boxed.delete(&gone, 2).0,
            &format!("{table}, masked"),
        );
    }
}

#[test]
fn every_table_loads_as_its_rows_at_sf_001() {
    let g = Generator::new(0.01);
    for def in g.schema().tables() {
        if !FIXED.contains(&def.name) {
            check_table(&g, def.name);
        }
    }
}

#[test]
fn the_largest_tables_load_as_their_rows_at_sf_02() {
    let g = Generator::new(0.2);
    for table in ["store_sales", "customer_demographics"]
        .into_iter()
        .chain(FIXED)
    {
        check_table(&g, table);
    }
}
