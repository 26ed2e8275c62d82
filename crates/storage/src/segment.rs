//! Row-group segments, the streaming table builder, and the [`Delta`]
//! that derives a table's next shadow from its current one.
//!
//! A [`ColumnTable`] is the columnar shadow of one engine table: a list of
//! fixed-size [`Segment`]s, each holding [`SEGMENT_ROWS`] rows (the last
//! may be short). Fixed segment size keeps global-row → (segment, offset)
//! arithmetic trivial and lets a morsel never straddle a segment boundary
//! (the morsel size divides the segment size).
//!
//! Segments are immutable and shared (`Arc`) between the shadows of
//! successive table versions: [`ColumnTable::apply`] rebuilds only the
//! segments a [`Delta`] reaches and hands every other one on, so a pinned
//! reader's segments never move under it.

use crate::batch::gather_column;
use crate::column::Column;
use crate::morsel::{run_chunks, worker_count};
use std::collections::BTreeSet;
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

/// The columnar shadow of one table.
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
    /// Builds a shadow by scanning existing row storage.
    pub fn from_rows<R: AsRef<[Value]>>(dtypes: Vec<DataType>, rows: &[R]) -> ColumnTable {
        let mut b = ColumnTableBuilder::new(dtypes);
        for r in rows {
            b.push_row(r.as_ref());
        }
        b.finish()
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
        let seg = &self.segments[i / SEGMENT_ROWS];
        seg.row(i % SEGMENT_ROWS)
    }

    /// The shadow of `rows`, where `delta` records how `rows` differs from
    /// the rows `self` shadows. A segment the delta does not reach is the
    /// very `Arc` of `self`; one that holds a replaced row is rebuilt from
    /// `rows`; any other takes its surviving rows from `self` by typed
    /// column gather and pushes the appended ones behind them. The result
    /// reads exactly like `from_rows(rows)`. Built segments are the unit
    /// of parallel work. Also returns how many were built rather than
    /// shared.
    pub fn apply<R: AsRef<[Value]> + Sync>(
        &self,
        delta: &Delta,
        rows: &[R],
        threads: usize,
    ) -> (ColumnTable, usize) {
        let (width, n_segs) = (self.width(), rows.len().div_ceil(SEGMENT_ROWS));
        let survivors = delta.survivors.as_deref();
        let extent = |k: usize| (k * SEGMENT_ROWS, rows.len().min((k + 1) * SEGMENT_ROWS));
        // Segments to build, each with where its rows come from: `lo..split`
        // gathered out of `self`, `split..hi` pushed from `rows`.
        let built: Vec<(usize, usize)> = (0..n_segs)
            .filter_map(|k| {
                let (lo, hi) = extent(k);
                if delta.updated.range(lo..hi).next().is_some() {
                    return Some((k, lo));
                }
                let split = hi.min(delta.kept).max(lo);
                let shared = split == hi
                    && self.segments[k].rows == hi - lo
                    && survivors.is_none_or(|s| s[hi - 1] as usize == hi - 1);
                (!shared).then_some((k, split))
            })
            .collect();
        let built_rows = built.iter().map(|&(k, _)| extent(k).1 - extent(k).0).sum();
        let workers = worker_count(built_rows, threads, built.len());
        let rebuilt = run_chunks("apply_worker", built.len(), workers, |task| {
            let (k, split) = built[task];
            let (lo, hi) = extent(k);
            let columns = (0..width).map(|c| {
                let mut column = match survivors {
                    _ if split == lo => Column::for_type(self.dtypes[c]),
                    Some(s) => gather_column(self, c, &s[lo..split]),
                    // Nothing deleted: `lo..split` is all of segment `k`.
                    None => self.segments[k].columns[c].clone(),
                };
                for row in &rows[split..hi] {
                    column.push(row.as_ref().get(c).unwrap_or(&Value::Null));
                }
                column
            });
            Arc::new(Segment::seal(columns.collect(), hi - lo))
        });
        let mut segments: Vec<Arc<Segment>> = self.segments.iter().take(n_segs).cloned().collect();
        for (&(k, _), segment) in built.iter().zip(rebuilt) {
            match segments.get_mut(k) {
                Some(slot) => *slot = segment,
                None => segments.push(segment),
            }
        }
        let table = ColumnTable {
            dtypes: self.dtypes.clone(),
            segments,
            rows: rows.len(),
        };
        (table, built.len())
    }
}

/// How a table's rows changed since its shadow was built: which shadowed
/// rows survive (and where), which were replaced in place, and that every
/// row past them was appended. The table's mutators record into it;
/// [`ColumnTable::apply`] turns it into the next shadow.
#[derive(Clone, Debug, Default)]
pub struct Delta {
    /// Rows the shadow holds.
    base: usize,
    /// Rows `0..kept` descend from the shadow; later rows were appended.
    kept: usize,
    /// The shadow row behind each of the `kept` rows, ascending, once a
    /// shadowed row was deleted; `None` while row `i` is shadow row `i`.
    survivors: Option<Vec<u32>>,
    /// Positions below `kept` whose row was replaced.
    updated: BTreeSet<usize>,
}

impl Delta {
    /// No change to a shadow of `rows` rows.
    pub fn clean(rows: usize) -> Delta {
        Delta {
            base: rows,
            kept: rows,
            ..Delta::default()
        }
    }

    /// Rows deleted, replaced or appended since, when the table now has
    /// `rows` rows.
    pub fn rows_changed(&self, rows: usize) -> usize {
        (self.base - self.kept) + self.updated.len() + (rows - self.kept)
    }

    /// True when a table of `rows` rows still is what the shadow holds.
    pub fn is_clean(&self, rows: usize) -> bool {
        self.kept == rows && self.is_append_only()
    }

    /// True when every shadowed row is still in place and unchanged, so
    /// whatever was computed over them (statistics) still holds for them.
    pub fn is_append_only(&self) -> bool {
        self.survivors.is_none() && self.updated.is_empty()
    }

    /// Number of leading rows that descend from the shadow.
    pub fn kept(&self) -> usize {
        self.kept
    }

    /// Records that the row at `pos` was replaced.
    pub fn update(&mut self, pos: usize) {
        if pos < self.kept {
            self.updated.insert(pos);
        }
    }

    /// Records a stable compaction: the row at `p` moved to `remap[p]`,
    /// or was deleted when that is `usize::MAX`.
    pub fn delete(&mut self, remap: &[usize]) {
        let gone = |p: &usize| remap[*p] == usize::MAX;
        if (0..self.kept).any(|p| gone(&p)) {
            let live = (0..self.kept).filter(|p| !gone(p));
            let live: Vec<u32> = match &self.survivors {
                Some(s) => live.map(|p| s[p]).collect(),
                None => live.map(|p| p as u32).collect(),
            };
            self.kept = live.len();
            self.survivors = Some(live);
        }
        self.updated = (self.updated.iter())
            .filter(|p| !gone(p))
            .map(|&p| remap[p])
            .collect();
    }
}

/// Streaming builder: push rows (e.g. straight out of the data generator),
/// segments seal themselves every [`SEGMENT_ROWS`] rows.
pub struct ColumnTableBuilder {
    dtypes: Vec<DataType>,
    current: Vec<Column>,
    current_rows: usize,
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
            current_rows: 0,
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
        self.current_rows += 1;
        self.rows += 1;
        if self.current_rows == SEGMENT_ROWS {
            self.seal();
        }
    }

    fn seal(&mut self) {
        let fresh: Vec<Column> = self.dtypes.iter().map(|t| Column::for_type(*t)).collect();
        let cols = std::mem::replace(&mut self.current, fresh);
        self.segments
            .push(Arc::new(Segment::seal(cols, self.current_rows)));
        self.current_rows = 0;
    }

    /// Seals the trailing partial segment and returns the finished table.
    pub fn finish(mut self) -> ColumnTable {
        if self.current_rows > 0 {
            self.seal();
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
    fn short_rows_pad_with_null() {
        let mut b = ColumnTableBuilder::new(vec![DataType::Int, DataType::Int]);
        b.push_row(&[Value::Int(1)]);
        let t = b.finish();
        assert_eq!(t.row(0), vec![Value::Int(1), Value::Null]);
    }
}
