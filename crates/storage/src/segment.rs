//! Row-group segments: the storage of a table.
//!
//! A [`ColumnTable`] holds the rows of one engine table as a list of
//! fixed-size [`Segment`]s, each [`SEGMENT_ROWS`] rows long (the last may
//! be short). Fixed segment size keeps global-row → (segment, offset)
//! arithmetic trivial and lets a morsel never straddle a segment boundary
//! (the morsel size divides the segment size).
//!
//! Segments are immutable and shared (`Arc`) between successive versions
//! of a table: [`ColumnTable::append`], [`ColumnTable::retain`] and
//! [`ColumnTable::replace`] build only the segments the change reaches and
//! hand every other one on, so a pinned reader's segments never move
//! under it. Rows decode on demand ([`ColumnTable::read_row`]): a cell is
//! a copy or an `Arc<str>` bump, and the codec is lossless because a value
//! that does not fit its typed buffer boxes the column into
//! [`crate::ColumnData::Other`].

use crate::batch::gather_column;
use crate::column::Column;
use crate::morsel::{run_chunks, worker_count};
use std::sync::Arc;
use tpcds_types::{DataType, Row, Value};

/// Rows per segment. A power of two that [`crate::MORSEL_ROWS`] divides.
pub const SEGMENT_ROWS: usize = 65_536;

/// One fixed-size row group: one [`Column`] per attribute.
#[derive(Clone, Debug)]
pub struct Segment {
    /// One column per table attribute, all the same length.
    pub columns: Vec<Column>,
    /// Number of rows (== every column's length).
    pub rows: usize,
    /// Approximate heap bytes, computed once when the segment is sealed.
    pub bytes: usize,
}

impl Segment {
    /// Seals `rows`-long finished columns into a segment.
    pub(crate) fn seal(columns: Vec<Column>, rows: usize) -> Segment {
        debug_assert!(columns.iter().all(|c| c.len() == rows));
        Segment {
            bytes: columns.iter().map(Column::heap_bytes).sum(),
            columns,
            rows,
        }
    }

    /// Materializes row `i` of the segment.
    pub fn row(&self, i: usize) -> Row {
        self.columns.iter().map(|c| c.value_at(i)).collect()
    }

    /// Materializes columns `cols` of row `i` (every column when `None`).
    pub fn row_of(&self, i: usize, cols: Option<&[usize]>) -> Row {
        match cols {
            None => self.row(i),
            Some(cols) => cols.iter().map(|&c| self.columns[c].value_at(i)).collect(),
        }
    }
}

/// The rows of one table, or of one operator's output.
#[derive(Clone, Debug)]
pub struct ColumnTable {
    /// Declared type of each column (drives buffer selection).
    pub dtypes: Vec<DataType>,
    /// The sealed segments, all [`SEGMENT_ROWS`] long except possibly the
    /// last; shared with every other version of the table that holds the
    /// same rows at the same positions.
    pub segments: Vec<Arc<Segment>>,
    /// Total row count.
    pub rows: usize,
}

impl ColumnTable {
    /// Builds a table from materialized rows.
    pub fn from_rows<R: AsRef<[Value]>>(dtypes: Vec<DataType>, rows: &[R]) -> ColumnTable {
        ColumnTableBuilder::new(dtypes).extended(rows).0
    }

    /// Number of columns.
    pub fn width(&self) -> usize {
        self.dtypes.len()
    }

    /// Total approximate heap bytes across segments.
    pub fn bytes(&self) -> usize {
        self.segments.iter().map(|s| s.bytes).sum()
    }

    /// Materializes global row `i`.
    pub fn row(&self, i: usize) -> Row {
        self.segments[i / SEGMENT_ROWS].row(i % SEGMENT_ROWS)
    }

    /// Decodes global row `i` into `out`, reusing its allocation.
    pub fn read_row(&self, i: usize, out: &mut Row) {
        let (seg, i) = (&self.segments[i / SEGMENT_ROWS], i % SEGMENT_ROWS);
        out.clear();
        out.extend(seg.columns.iter().map(|c| c.value_at(i)));
    }

    /// Streams the rows, in position order, through `keep` and then
    /// `sink`. `keep` sees a row with only `cols` decoded — the columns a
    /// filter reads; every other cell is NULL — and a row it admits is
    /// decoded whole and moved into `sink`, which returns `false` to stop.
    /// A scan that keeps little therefore reads little.
    pub fn scan_rows<E>(
        &self,
        cols: &[usize],
        mut keep: impl FnMut(&[Value]) -> Result<bool, E>,
        mut sink: impl FnMut(Row) -> Result<bool, E>,
    ) -> Result<(), E> {
        let mut row = Row::new();
        for pos in 0..self.rows {
            row.resize(self.width(), Value::Null);
            for &c in cols {
                row[c] = self.value(pos, c);
            }
            if keep(&row)? {
                self.read_row(pos, &mut row);
                if !sink(std::mem::take(&mut row))? {
                    break;
                }
            }
        }
        Ok(())
    }

    /// The cell at global row `i`, column `col`.
    pub fn value(&self, i: usize, col: usize) -> Value {
        self.segments[i / SEGMENT_ROWS].columns[col].value_at(i % SEGMENT_ROWS)
    }

    /// Every row, decoded, in position order.
    pub fn iter_rows(&self) -> impl Iterator<Item = Row> + '_ {
        (0..self.rows).map(|i| self.row(i))
    }

    /// Column `col` of every row, in position order.
    pub fn column(&self, col: usize) -> impl Iterator<Item = Value> + '_ {
        (self.segments.iter())
            .flat_map(move |s| (0..s.rows).map(move |i| s.columns[col].value_at(i)))
    }

    /// This table with `rows` appended: the full segments are the very
    /// `Arc`s of `self`, a short tail segment is copied and grown. Also
    /// returns how many segments were built rather than shared, as
    /// [`ColumnTable::retain`] and [`ColumnTable::replace`] do.
    pub fn append<R: AsRef<[Value]>>(&self, rows: &[R]) -> (ColumnTable, usize) {
        let full = self.rows / SEGMENT_ROWS;
        let mut b = ColumnTableBuilder::new(self.dtypes.clone());
        b.segments = self.segments[..full].to_vec();
        if let Some(tail) = self.segments.get(full) {
            // Each copy grows right behind its allocation, where the
            // allocator can still extend it in place: growing all of them
            // later, on the first pushed row, copies every column twice.
            let room = rows.len().min(SEGMENT_ROWS - tail.rows);
            let grown = tail.columns.iter().map(|column| {
                let mut column = column.clone();
                column.reserve(room);
                column
            });
            b.current = grown.collect();
        }
        b.rows = self.rows;
        b.extended(rows)
    }

    /// `self`'s rows, then `other`'s (UNION ALL). An empty side hands the
    /// other on; otherwise `self`'s full segments are shared and the rest
    /// is rebuilt cell by cell with `self`'s column types, so a column the
    /// two sides type differently boxes into [`crate::ColumnData::Other`]
    /// without loss.
    pub fn concat(&self, other: &ColumnTable) -> ColumnTable {
        if self.rows == 0 || other.rows == 0 {
            return if self.rows == 0 { other } else { self }.clone();
        }
        let rows = self.rows + other.rows;
        let cell = |i: usize, c: usize| match i.checked_sub(self.rows) {
            None => self.value(i, c),
            Some(i) => other.value(i, c),
        };
        let full = self.rows / SEGMENT_ROWS;
        let built = (full..rows.div_ceil(SEGMENT_ROWS)).map(|k| {
            let (lo, hi) = (k * SEGMENT_ROWS, rows.min((k + 1) * SEGMENT_ROWS));
            let columns = (0..self.width()).map(|c| {
                let mut column = Column::for_type(self.dtypes[c]);
                (lo..hi).for_each(|i| column.push(&cell(i, c)));
                column
            });
            Arc::new(Segment::seal(columns.collect(), hi - lo))
        });
        ColumnTable {
            dtypes: self.dtypes.clone(),
            segments: self.segments[..full].iter().cloned().chain(built).collect(),
            rows,
        }
    }

    /// The rows at `survivors` (ascending positions), in that order: what
    /// a delete leaves. Segments before the first gap are shared; every
    /// later one gathers its rows out of `self`, column by typed column,
    /// one segment per unit of parallel work.
    pub fn retain(&self, survivors: &[u32], threads: usize) -> (ColumnTable, usize) {
        let n = survivors.len();
        let n_segs = n.div_ceil(SEGMENT_ROWS);
        let extent = |k: usize| (k * SEGMENT_ROWS, n.min((k + 1) * SEGMENT_ROWS));
        // Shared: every row up to its end is where it was, and none of its
        // own is gone.
        let stays = |&k: &usize| {
            let (lo, hi) = extent(k);
            survivors[hi - 1] as usize == hi - 1 && self.segments[k].rows == hi - lo
        };
        let first = (0..n_segs).take_while(stays).count();
        let moved = n.saturating_sub(first * SEGMENT_ROWS);
        let workers = worker_count(moved, threads, n_segs - first);
        let built = run_chunks("segment_worker", n_segs - first, workers, |task| {
            let (lo, hi) = extent(first + task);
            let columns = (0..self.width()).map(|c| gather_column(self, c, &survivors[lo..hi]));
            Arc::new(Segment::seal(columns.collect(), hi - lo))
        });
        let shared = self.segments[..first].iter().cloned();
        let table = ColumnTable {
            dtypes: self.dtypes.clone(),
            segments: shared.chain(built).collect(),
            rows: n,
        };
        (table, n_segs - first)
    }

    /// This table with the row at each `(position, row)` of `rows`
    /// (ascending positions) replaced: the segments hit are rebuilt, cell
    /// by cell, and every other one is shared.
    pub fn replace(&self, rows: &[(usize, Row)], threads: usize) -> (ColumnTable, usize) {
        let hit: Vec<_> =
            (rows.chunk_by(|a, b| a.0 / SEGMENT_ROWS == b.0 / SEGMENT_ROWS)).collect();
        let workers = worker_count(hit.len() * SEGMENT_ROWS, threads, hit.len());
        let built = run_chunks("segment_worker", hit.len(), workers, |task| {
            let old = &self.segments[hit[task][0].0 / SEGMENT_ROWS];
            let columns = (0..self.width()).map(|c| {
                let mut column = Column::for_type(self.dtypes[c]);
                let mut new = hit[task].iter().peekable();
                for i in 0..old.rows {
                    match new.next_if(|(pos, _)| pos % SEGMENT_ROWS == i) {
                        Some((_, row)) => column.push(&row[c]),
                        None => column.push(&old.columns[c].value_at(i)),
                    }
                }
                column
            });
            Arc::new(Segment::seal(columns.collect(), old.rows))
        });
        let mut table = self.clone();
        for (group, segment) in hit.iter().zip(built) {
            table.segments[group[0].0 / SEGMENT_ROWS] = segment;
        }
        (table, hit.len())
    }
}

/// Streaming builder: push rows (e.g. straight out of the data generator),
/// segments seal themselves every [`SEGMENT_ROWS`] rows.
pub struct ColumnTableBuilder {
    dtypes: Vec<DataType>,
    /// The open segment's columns, `rows % SEGMENT_ROWS` long.
    current: Vec<Column>,
    segments: Vec<Arc<Segment>>,
    rows: usize,
}

impl ColumnTableBuilder {
    /// A builder for a table with the given column types.
    pub fn new(dtypes: Vec<DataType>) -> ColumnTableBuilder {
        let current = dtypes.iter().map(|t| Column::for_type(*t)).collect();
        ColumnTableBuilder {
            dtypes,
            current,
            segments: Vec::new(),
            rows: 0,
        }
    }

    /// Appends one row. Short rows are padded with NULL and long rows
    /// truncated, mirroring how lenient the row engine's metadata is;
    /// callers that care validate arity before pushing.
    pub fn push_row(&mut self, row: &[Value]) {
        for (i, col) in self.current.iter_mut().enumerate() {
            col.push(row.get(i).unwrap_or(&Value::Null));
        }
        self.rows += 1;
        if self.rows.is_multiple_of(SEGMENT_ROWS) {
            self.seal(SEGMENT_ROWS);
        }
    }

    fn seal(&mut self, rows: usize) {
        let fresh: Vec<Column> = self.dtypes.iter().map(|t| Column::for_type(*t)).collect();
        let cols = std::mem::replace(&mut self.current, fresh);
        self.segments.push(Arc::new(Segment::seal(cols, rows)));
    }

    /// Pushes `rows` and finishes; also returns how many segments that
    /// sealed.
    fn extended<R: AsRef<[Value]>>(mut self, rows: &[R]) -> (ColumnTable, usize) {
        let shared = self.segments.len();
        for r in rows {
            self.push_row(r.as_ref());
        }
        let table = self.finish();
        let built = table.segments.len() - shared;
        (table, built)
    }

    /// Seals the trailing partial segment and returns the finished table.
    pub fn finish(mut self) -> ColumnTable {
        if !self.rows.is_multiple_of(SEGMENT_ROWS) {
            self.seal(self.rows % SEGMENT_ROWS);
        }
        ColumnTable {
            dtypes: self.dtypes,
            segments: self.segments,
            rows: self.rows,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn int_rows(n: usize) -> Vec<Row> {
        (0..n)
            .map(|i| vec![Value::Int(i as i64), Value::str(format!("s{i}"))])
            .collect()
    }

    #[test]
    fn segments_split_at_fixed_size() {
        let rows = int_rows(SEGMENT_ROWS + 17);
        let t = ColumnTable::from_rows(vec![DataType::Int, DataType::Str], &rows);
        assert_eq!(t.rows, SEGMENT_ROWS + 17);
        assert_eq!(t.segments.len(), 2);
        assert_eq!(t.segments[0].rows, SEGMENT_ROWS);
        assert_eq!(t.segments[1].rows, 17);
        assert_eq!(t.row(0), rows[0]);
        assert_eq!(t.row(SEGMENT_ROWS), rows[SEGMENT_ROWS]);
        assert_eq!(t.row(SEGMENT_ROWS + 16), rows[SEGMENT_ROWS + 16]);
        assert!(t.bytes() > 0);
    }

    #[test]
    fn concat_shares_full_segments_and_boxes_mixed_columns() {
        let left_rows = int_rows(SEGMENT_ROWS + 5);
        let left = ColumnTable::from_rows(vec![DataType::Int, DataType::Str], &left_rows);
        let right_rows: Vec<Row> = (0..10)
            .map(|i| {
                vec![
                    Value::Decimal(tpcds_types::Decimal::from_cents(i)),
                    Value::Null,
                ]
            })
            .collect();
        let right = ColumnTable::from_rows(vec![DataType::Decimal, DataType::Str], &right_rows);
        let both = left.concat(&right);
        assert_eq!(both.rows, SEGMENT_ROWS + 15);
        assert!(Arc::ptr_eq(&both.segments[0], &left.segments[0]));
        let expect: Vec<Row> = left_rows.iter().chain(&right_rows).cloned().collect();
        assert_eq!(both.iter_rows().collect::<Vec<_>>(), expect);
        let tail = &both.segments[1].columns[0].data;
        assert!(matches!(tail, crate::ColumnData::Other(_)), "{tail:?}");
        // An empty side hands the other on.
        let empty = ColumnTable::from_rows(vec![DataType::Int, DataType::Str], &[] as &[Row]);
        assert_eq!(
            empty.concat(&right).iter_rows().collect::<Vec<_>>(),
            right_rows
        );
        assert_eq!(right.concat(&empty).rows, 10);
    }

    #[test]
    fn short_rows_pad_with_null() {
        let mut b = ColumnTableBuilder::new(vec![DataType::Int, DataType::Int]);
        b.push_row(&[Value::Int(1)]);
        let t = b.finish();
        assert_eq!(t.row(0), vec![Value::Int(1), Value::Null]);
    }
}
