//! Row-group segments: the storage of a table.
//!
//! A [`ColumnTable`] holds the rows of one engine table as a list of
//! [`Segment`]s of at most [`SEGMENT_ROWS`] rows. A row's id is `segment ×
//! SEGMENT_ROWS + offset` — the arithmetic every kernel does — and a
//! segment may be short anywhere: an append seals a short tail, a
//! compaction shrinks a segment in place. A morsel never straddles a
//! segment (the morsel size divides the segment size).
//!
//! Segments are immutable and shared (`Arc`) between successive versions of
//! a table, and a segment's columns are shared again between versions of
//! the segment that differ only in their dead-row mask. A table changes by
//! one call, [`ColumnTable::change`]: rows die and rows are appended, and
//! column data is copied only for the segments appended to or compacted. A
//! dying row is marked in a new mask over the same columns, and a segment
//! is rebuilt only once [`COMPACT_DEAD_SHARE`] of it is dead; an append
//! copies the tail's live rows, once, only while it is shorter than a
//! morsel. Nothing is overwritten in place: an update removes the old
//! version and appends the new one, in one change. A copy is typed buffer
//! to typed buffer, one slice per run of rows kept (for a string column,
//! one byte copy). A pinned reader's segments never move under it.
//!
//! `rows` counts live rows, and every row accessor ([`ColumnTable::live_ids`],
//! [`ColumnTable::iter_rows`], [`ColumnTable::column`],
//! [`ColumnTable::scan_rows`]) skips dead ones. Kernels need nothing of
//! their own: a batch over a table with dead rows carries a pending
//! predicate, whose evaluation starts from the mask ([`crate::Pred::eval`]).
//! Rows decode on demand ([`ColumnTable::read_row`]): a cell is a copy, a
//! string cell a copy of its bytes into a new [`Value::Str`], and the codec
//! is lossless because a value that does not fit its typed buffer boxes
//! the column into [`crate::ColumnData::Other`].

use crate::batch::NO_ROW;
use crate::column::{Bitmap, Column, ColumnData};
use crate::morsel::{run_chunks, worker_count, MORSEL_ROWS};
use std::ops::Range;
use std::sync::Arc;
use tpcds_types::{DataType, Row, Value};

/// Rows per segment at most. A power of two that [`crate::MORSEL_ROWS`]
/// divides.
pub const SEGMENT_ROWS: usize = 65_536;

/// A change that leaves this share of a segment's rows dead, or more,
/// rebuilds the segment without them. Below it a removal only masks. At
/// SF 0.2 a refresh set deletes about 0.8 % of each fact segment, so a
/// fact segment compacts about once every 30 sets: over a 16 s `dm_mixed`
/// run (219 sets, 2 cores) that was 0.42 compactions per set at 4.3 ms
/// each at most, against the 37 ms per set that compacting the whole
/// table on every delete cost.
pub const COMPACT_DEAD_SHARE: f64 = 0.25;

/// One row group: one [`Column`] per attribute, and which rows are dead.
#[derive(Clone, Debug)]
pub struct Segment {
    /// One column per table attribute, all `rows` long; shared by the
    /// versions of the segment that differ only in their mask.
    pub columns: Arc<[Column]>,
    /// Number of rows stored, dead ones included (== every column's length).
    pub rows: usize,
    /// Approximate heap bytes of the columns, computed once when sealed.
    pub bytes: usize,
    /// Bit `i` set ⇒ row `i` is dead; `None` while no row is.
    dead: Option<Bitmap>,
}

impl Segment {
    /// Seals `rows`-long finished columns into a segment.
    pub(crate) fn seal(columns: Vec<Column>, rows: usize) -> Segment {
        debug_assert!(columns.iter().all(|c| c.len() == rows));
        Segment {
            bytes: columns.iter().map(Column::heap_bytes).sum(),
            ..Segment::scratch(columns, rows)
        }
    }

    /// A segment of a kernel's own, which no byte counter reads.
    pub(crate) fn scratch(columns: Vec<Column>, rows: usize) -> Segment {
        Segment {
            columns: columns.into(),
            rows,
            bytes: 0,
            dead: None,
        }
    }

    /// The dead-row mask, when some row is dead.
    pub(crate) fn dead(&self) -> Option<&Bitmap> {
        self.dead.as_ref()
    }

    /// Whether row `i` is dead.
    #[inline]
    pub fn is_dead(&self, i: usize) -> bool {
        self.dead.as_ref().is_some_and(|d| d.get(i))
    }

    /// Number of live rows.
    pub fn live(&self) -> usize {
        self.rows - self.dead.as_ref().map_or(0, Bitmap::count_set)
    }

    /// The offsets of the live rows, ascending.
    pub fn live_offsets(&self) -> impl Iterator<Item = usize> + Clone + '_ {
        (0..self.rows).filter(|&i| !self.is_dead(i))
    }

    /// The live rows as maximal runs of offsets, ascending.
    pub(crate) fn live_runs(&self) -> Vec<Range<usize>> {
        let mut runs = Vec::new();
        let mut i = 0;
        while i < self.rows {
            let start = i;
            while i < self.rows && !self.is_dead(i) {
                i += 1;
            }
            if i > start {
                runs.push(start..i);
            }
            while i < self.rows && self.is_dead(i) {
                i += 1;
            }
        }
        runs
    }

    /// Copies of the columns holding only the live rows, in order, each
    /// allocated once with room for `room` more rows: a slice copy per run
    /// of live rows. A boxed column whose live cells all fit its declared
    /// type comes back typed, as rebuilding it from those cells would.
    pub(crate) fn live_columns(&self, dtypes: &[DataType], room: usize) -> Vec<Column> {
        let runs = self.live_runs();
        let copy = |(column, &dtype): (&Column, &DataType)| {
            let mut copy = column.copy_runs(&runs, room);
            copy.unbox(dtype);
            copy
        };
        self.columns.iter().zip(dtypes).map(copy).collect()
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
    /// The sealed segments, in id order; shared with every other version
    /// of the table that holds the same rows at the same ids.
    pub segments: Vec<Arc<Segment>>,
    /// Live row count.
    pub rows: usize,
}

impl ColumnTable {
    /// Builds a table from materialized rows.
    pub fn from_rows<R: AsRef<[Value]>>(dtypes: Vec<DataType>, rows: &[R]) -> ColumnTable {
        let mut b = ColumnTableBuilder::new(dtypes);
        rows.iter().for_each(|row| b.push_row(row.as_ref()));
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

    /// One past the largest row id.
    pub fn id_end(&self) -> usize {
        self.segments
            .last()
            .map_or(0, |s| (self.segments.len() - 1) * SEGMENT_ROWS + s.rows)
    }

    /// Whether some row is dead, so a scan must consult the masks.
    pub fn has_dead(&self) -> bool {
        self.segments.iter().any(|s| s.dead.is_some())
    }

    /// Materializes the row with id `i`.
    pub fn row(&self, i: usize) -> Row {
        self.segments[i / SEGMENT_ROWS].row(i % SEGMENT_ROWS)
    }

    /// Decodes the row with id `i` into `out`, reusing its allocation.
    pub fn read_row(&self, i: usize, out: &mut Row) {
        let (seg, i) = (&self.segments[i / SEGMENT_ROWS], i % SEGMENT_ROWS);
        out.clear();
        out.extend(seg.columns.iter().map(|c| c.value_at(i)));
    }

    /// The cell of column `col` in the row with id `i`.
    pub fn value(&self, i: usize, col: usize) -> Value {
        self.segments[i / SEGMENT_ROWS].columns[col].value_at(i % SEGMENT_ROWS)
    }

    /// Whether the cell of column `col` in the row with id `i` is NULL.
    pub fn is_null(&self, i: usize, col: usize) -> bool {
        self.segments[i / SEGMENT_ROWS].columns[col]
            .nulls
            .get(i % SEGMENT_ROWS)
    }

    /// The cell of column `col` in the row with id `i`, when it holds a
    /// string, borrowed from its buffer.
    pub fn str_at(&self, i: usize, col: usize) -> Option<&str> {
        self.segments[i / SEGMENT_ROWS].columns[col].str_at(i % SEGMENT_ROWS)
    }

    /// The ids of the live rows whose cell of column `col` is an integer
    /// that `keep` admits, ascending: one pass per segment over its `i64`
    /// buffer, then the null bit and the dead mask of each cell admitted.
    pub fn int_ids(&self, col: usize, mut keep: impl FnMut(i64) -> bool) -> Vec<u32> {
        let mut ids = Vec::new();
        for (si, seg) in self.segments.iter().enumerate() {
            let (column, base) = (&seg.columns[col], si * SEGMENT_ROWS);
            let at = |i: usize| (base + i) as u32;
            match &column.data {
                ColumnData::I64(buf) => ids.extend(
                    (0..seg.rows)
                        .filter(|&i| keep(buf[i]) && !column.nulls.get(i) && !seg.is_dead(i))
                        .map(at),
                ),
                _ => ids.extend(
                    (seg.live_offsets())
                        .filter(|&i| column.value_at(i).as_int().is_some_and(&mut keep))
                        .map(at),
                ),
            }
        }
        ids
    }

    /// The ids of the live rows, ascending.
    pub fn live_ids(&self) -> impl Iterator<Item = usize> + '_ {
        let segments = self.segments.iter().enumerate();
        segments.flat_map(|(si, s)| s.live_offsets().map(move |i| si * SEGMENT_ROWS + i))
    }

    /// Streams the live rows, in id order, through `keep` and then `sink`.
    /// `keep` sees a row with only `cols` decoded — the columns a filter
    /// reads; every other cell is NULL — and a row it admits is decoded
    /// whole and moved into `sink`, which returns `false` to stop. A scan
    /// that keeps little therefore reads little.
    pub fn scan_rows<E>(
        &self,
        cols: &[usize],
        mut keep: impl FnMut(&[Value]) -> Result<bool, E>,
        mut sink: impl FnMut(Row) -> Result<bool, E>,
    ) -> Result<(), E> {
        let mut row = Row::new();
        for id in self.live_ids() {
            row.resize(self.width(), Value::Null);
            for &c in cols {
                row[c] = self.value(id, c);
            }
            if keep(&row)? {
                self.read_row(id, &mut row);
                if !sink(std::mem::take(&mut row))? {
                    break;
                }
            }
        }
        Ok(())
    }

    /// Every live row, decoded, in id order.
    pub fn iter_rows(&self) -> impl Iterator<Item = Row> + '_ {
        self.live_ids().map(|i| self.row(i))
    }

    /// Column `col` of every live row, in id order.
    pub fn column(&self, col: usize) -> impl Iterator<Item = Value> + '_ {
        (self.segments.iter())
            .flat_map(move |s| s.live_offsets().map(move |i| s.columns[col].value_at(i)))
    }

    /// This table with the live rows at `removed` (ascending ids) dead and
    /// the live rows of `appended` after its own: the one way a table
    /// changes. A segment `removed` hits gets a new mask over its shared
    /// columns, unless that leaves it [`COMPACT_DEAD_SHARE`] dead: then it
    /// is rebuilt from its live rows, short, their ids shifting inside it
    /// only. Appended rows are copied typed buffer to typed buffer, a slice
    /// per run and column (a cell that does not fit this table's column
    /// type boxes the column, as pushing its value would): into a copy of
    /// the tail's live rows while the tail, once compacted, is shorter than
    /// a morsel — and then it is not compacted first — else into new
    /// segments. So an append copies fewer than [`MORSEL_ROWS`] rows
    /// besides its own, and the segments it seals hold whole morsels.
    /// Every other segment is the very `Arc` of `self`. Also returns how
    /// many segments were built, and how many of those are compactions.
    pub fn change(
        &self,
        removed: &[u32],
        appended: Option<&ColumnTable>,
        threads: usize,
    ) -> (ColumnTable, usize, usize) {
        let batch = appended.filter(|batch| batch.rows > 0);
        let mut table = self.clone();
        let mut compacted = table.mask(removed);
        let compacts_tail = compacted.last() == table.segments.len().checked_sub(1).as_ref();
        let tail = (table.segments.last()).map(|tail| match compacts_tail {
            true => tail.live(),
            false => tail.rows,
        });
        let copy_tail = batch.is_some() && tail.is_some_and(|rows| rows < MORSEL_ROWS);
        if copy_tail && compacts_tail {
            compacted.pop();
        }
        table.compact(&compacted, threads);
        let built = batch.map_or(0, |batch| table.append(batch, copy_tail));
        (table, compacted.len() + built, compacted.len())
    }

    /// Marks the live rows at `ids` (ascending) dead, a new mask per
    /// segment hit; returns the segments that leaves
    /// [`COMPACT_DEAD_SHARE`] dead, ascending.
    fn mask(&mut self, ids: &[u32]) -> Vec<usize> {
        self.rows -= ids.len();
        let mut full = Vec::new();
        for group in ids.chunk_by(|a, b| a / SEGMENT_ROWS as u32 == b / SEGMENT_ROWS as u32) {
            let si = group[0] as usize / SEGMENT_ROWS;
            let seg = &self.segments[si];
            let mut dead = seg.dead.clone().unwrap_or_else(|| Bitmap::zeros(seg.rows));
            group
                .iter()
                .for_each(|&id| dead.set(id as usize % SEGMENT_ROWS));
            if dead.count_set() as f64 >= COMPACT_DEAD_SHARE * seg.rows as f64 {
                full.push(si);
            }
            self.segments[si] = Arc::new(Segment {
                columns: Arc::clone(&seg.columns),
                rows: seg.rows,
                bytes: seg.bytes,
                dead: Some(dead),
            });
        }
        full
    }

    /// Rebuilds the segments at `at` from their live rows.
    fn compact(&mut self, at: &[usize], threads: usize) {
        let workers = worker_count(at.len() * SEGMENT_ROWS, threads, at.len());
        let built = run_chunks(at.len(), workers, |k| {
            let seg = &self.segments[at[k]];
            Arc::new(Segment::seal(seg.live_columns(&self.dtypes, 0), seg.live()))
        });
        for (&si, segment) in at.iter().zip(built) {
            self.segments[si] = segment;
        }
    }

    /// Appends `batch`'s live rows, copying the tail first when
    /// `copy_tail`; returns how many segments it built: the last ones.
    fn append(&mut self, batch: &ColumnTable, copy_tail: bool) -> usize {
        let n = batch.rows;
        let mut b = ColumnTableBuilder::new(self.dtypes.clone());
        (b.segments, b.rows) = (std::mem::take(&mut self.segments), self.rows);
        if let Some(tail) = b.segments.pop_if(|_| copy_tail) {
            // Each copy is allocated once, with room for the rows joining
            // it: growing it later, on the first pushed row, would copy
            // every column twice.
            let room = n.min(SEGMENT_ROWS - tail.live());
            b.current = tail.live_columns(&self.dtypes, room);
            b.open = tail.live();
        }
        let shared = b.segments.len();
        let whole = n.saturating_sub((b.open + n) % SEGMENT_ROWS % MORSEL_ROWS);
        b.push_live(batch, 0..whole);
        if b.open >= MORSEL_ROWS {
            b.seal();
        }
        b.push_live(batch, whole..n);
        *self = b.finish();
        self.segments.len() - shared
    }

    /// Replaces column `col` by `columns`, one per segment and as long as
    /// it, typed `dtype`: how a batch readied for [`ColumnTable::change`]
    /// turns a column into another type (business keys into surrogate
    /// keys, say). A segment shared with another table is copied first, so
    /// that table keeps its column.
    pub fn set_column(&mut self, col: usize, dtype: DataType, columns: Vec<Column>) {
        assert_eq!(columns.len(), self.segments.len(), "one column per segment");
        self.dtypes[col] = dtype;
        for (seg, column) in self.segments.iter_mut().zip(columns) {
            assert_eq!(column.len(), seg.rows, "one cell per row");
            let seg = Arc::make_mut(seg);
            Arc::make_mut(&mut seg.columns)[col] = column;
            seg.bytes = seg.columns.iter().map(Column::heap_bytes).sum();
        }
    }

    /// `self`'s live rows, then `other`'s (UNION ALL). An empty side hands
    /// the other on; otherwise `self`'s segments are shared up to a last
    /// one that is short or masked, and the rest is copied a run of live
    /// rows at a time into `self`'s column types, so a column the two
    /// sides type differently boxes into [`crate::ColumnData::Other`]
    /// without loss.
    pub fn concat(&self, other: &ColumnTable) -> ColumnTable {
        if self.rows == 0 || other.rows == 0 {
            return if self.rows == 0 { other } else { self }.clone();
        }
        let mut b = ColumnTableBuilder::new(self.dtypes.clone());
        b.segments = self.segments.clone();
        b.segments
            .pop_if(|last| last.rows < SEGMENT_ROWS || last.dead.is_some());
        b.rows = b.segments.iter().map(|s| s.live()).sum();
        let rest = self.segments[b.segments.len()..].iter();
        for seg in rest.chain(&other.segments) {
            b.push_runs(&seg.columns, &seg.live_runs());
        }
        b.finish()
    }
}

/// Streaming builder: push rows (e.g. straight out of the data generator),
/// segments seal themselves every [`SEGMENT_ROWS`] rows.
pub struct ColumnTableBuilder {
    dtypes: Vec<DataType>,
    /// The open segment's columns, `open` rows long.
    current: Vec<Column>,
    open: usize,
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
            open: 0,
            segments: Vec::new(),
            rows: 0,
        }
    }

    /// Appends one row. Short rows are padded with NULL and long rows
    /// truncated, mirroring how lenient the row engine's metadata is;
    /// callers that care validate arity before pushing.
    pub fn push_row(&mut self, row: &[Value]) {
        self.push_row_with(|columns| {
            for (i, col) in columns.iter_mut().enumerate() {
                col.push(row.get(i).unwrap_or(&Value::Null));
            }
        });
    }

    /// Appends one row whose cells `fill` pushes, one into each column of
    /// the open segment, through the typed pushes ([`Column::push_int`],
    /// …) — a row that never exists as [`Value`]s.
    pub fn push_row_with(&mut self, fill: impl FnOnce(&mut [Column])) {
        fill(&mut self.current);
        debug_assert!(
            self.current.iter().all(|c| c.len() == self.open + 1),
            "one cell per column"
        );
        self.rows += 1;
        self.open += 1;
        if self.open == SEGMENT_ROWS {
            self.seal();
        }
    }

    /// Appends the rows at offsets `runs` of `columns` (one per column
    /// of the table), as pushing them row by row would: a copy per run
    /// and column, split where a segment seals.
    pub(crate) fn push_runs(&mut self, columns: &[Column], runs: &[Range<usize>]) {
        for run in runs {
            let mut at = run.start;
            while at < run.end {
                let take = (run.end - at).min(SEGMENT_ROWS - self.open);
                for (column, src) in self.current.iter_mut().zip(columns) {
                    column.extend_runs(src, std::slice::from_ref(&(at..at + take)));
                }
                (self.open, self.rows, at) = (self.open + take, self.rows + take, at + take);
                if self.open == SEGMENT_ROWS {
                    self.seal();
                }
            }
        }
    }

    /// Appends the live rows of `table` whose ranks among its live rows
    /// fall in `ranks`, as pushing them row by row would.
    fn push_live(&mut self, table: &ColumnTable, ranks: Range<usize>) {
        let mut rank = 0;
        for seg in &table.segments {
            let runs: Vec<Range<usize>> = (seg.live_runs().into_iter())
                .filter_map(|run| {
                    let first = rank;
                    rank += run.len();
                    let (lo, hi) = (ranks.start.max(first), ranks.end.min(rank));
                    (lo < hi).then(|| run.start + (lo - first)..run.start + (hi - first))
                })
                .collect();
            self.push_runs(&seg.columns, &runs);
        }
    }

    /// Makes room in the open segment's columns for `rows` more cells
    /// each (not for a string column's bytes), so a caller that knows how
    /// many rows it will push allocates each buffer once, to size.
    pub fn reserve(&mut self, rows: usize) {
        let rows = rows.min(SEGMENT_ROWS - self.open);
        self.current.iter_mut().for_each(|c| c.reserve(rows));
    }

    fn seal(&mut self) {
        let fresh: Vec<Column> = self.dtypes.iter().map(|t| Column::for_type(*t)).collect();
        let cols = std::mem::replace(&mut self.current, fresh);
        self.segments.push(Arc::new(Segment::seal(cols, self.open)));
        self.open = 0;
        debug_assert!(
            self.segments.len() * SEGMENT_ROWS <= NO_ROW as usize,
            "row ids stay below NO_ROW"
        );
    }

    /// Seals the trailing partial segment and returns the finished table.
    pub fn finish(mut self) -> ColumnTable {
        if self.open > 0 {
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

    fn table(n: usize) -> ColumnTable {
        ColumnTable::from_rows(vec![DataType::Int, DataType::Str], &int_rows(n))
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
        // Dead rows stay out, on either side.
        let (masked, ..) = left.change(&[1, SEGMENT_ROWS as u32 + 1], None, 1);
        let both = masked.concat(&masked);
        let live: Vec<Row> = masked.iter_rows().collect();
        assert_eq!(
            both.iter_rows().collect::<Vec<_>>(),
            [&live[..], &live].concat()
        );
        assert!(Arc::ptr_eq(&both.segments[0], &masked.segments[0]));
    }

    #[test]
    fn a_delete_masks_until_a_quarter_of_a_segment_is_dead() {
        let n = SEGMENT_ROWS + 1_000;
        let t = table(n);
        let every = |step: usize, lo: usize, hi: usize| -> Vec<u32> {
            (lo..hi).step_by(step).map(|i| i as u32).collect()
        };
        // A tenth of the first segment: masked, the columns shared.
        let (masked, built, _) = t.change(&every(10, 0, SEGMENT_ROWS), None, 2);
        assert_eq!(built, 0);
        assert_eq!(masked.rows, n - SEGMENT_ROWS / 10 - 1);
        assert!(Arc::ptr_eq(&masked.segments[1], &t.segments[1]));
        let first = &masked.segments[0];
        assert!(Arc::ptr_eq(&first.columns, &t.segments[0].columns));
        assert_eq!(first.live(), SEGMENT_ROWS - SEGMENT_ROWS / 10 - 1);
        assert!(first.is_dead(0) && !first.is_dead(1) && masked.has_dead());
        let live = |t: &ColumnTable| -> Vec<usize> {
            (t.column(0).map(|v| v.as_int().unwrap() as usize)).collect()
        };
        let expect: Vec<usize> = (0..n)
            .filter(|&i| i >= SEGMENT_ROWS || i % 10 != 0)
            .collect();
        assert_eq!(live(&masked), expect);
        assert_eq!(masked.iter_rows().count(), masked.rows);

        // Another 15 %: the first segment is compacted, short, and the
        // ids past it do not move.
        let more = (0..SEGMENT_ROWS).filter(|i| i % 10 == 1 || i % 20 == 2);
        let more: Vec<u32> = more.map(|i| i as u32).collect();
        let (compact, built, compacted) = masked.change(&more, None, 2);
        assert_eq!((built, compacted), (1, 1));
        assert!(!compact.has_dead());
        assert_eq!(compact.segments[0].rows, compact.rows - 1_000);
        assert!(Arc::ptr_eq(&compact.segments[1], &t.segments[1]));
        assert_eq!(compact.row(SEGMENT_ROWS + 7), t.row(SEGMENT_ROWS + 7));
        let kept = |i: &usize| *i >= SEGMENT_ROWS || (i % 10 > 1 && i % 20 != 2);
        let expect: Vec<usize> = (0..n).filter(kept).collect();
        assert_eq!(live(&compact), expect);
    }

    #[test]
    fn an_append_copies_at_most_a_morsel_of_tail() {
        // A tail shorter than a morsel is copied and grown, its dead rows
        // dropped.
        let t = table(SEGMENT_ROWS + 100);
        let (grown, built, _) = t.change(&[SEGMENT_ROWS as u32 + 3], Some(&table(10)), 1);
        assert_eq!(
            (built, grown.segments.len(), grown.rows),
            (1, 2, t.rows + 9)
        );
        assert!(Arc::ptr_eq(&grown.segments[0], &t.segments[0]));
        assert_eq!((grown.segments[1].rows, grown.has_dead()), (109, false));
        // A tail of a morsel or more is left alone: the rows start a new,
        // short segment, and ids past a short segment still address it.
        let t = table(MORSEL_ROWS);
        let (grown, built, _) = t.change(&[], Some(&table(5)), 1);
        assert_eq!((built, grown.segments.len()), (1, 2));
        assert!(Arc::ptr_eq(&grown.segments[0], &t.segments[0]));
        assert_eq!(grown.row(SEGMENT_ROWS + 4), int_rows(5)[4]);
        assert_eq!(grown.id_end(), SEGMENT_ROWS + 5);
        let ids: Vec<usize> = grown.live_ids().collect();
        assert_eq!(
            ids[MORSEL_ROWS - 1..],
            [
                MORSEL_ROWS - 1,
                SEGMENT_ROWS,
                SEGMENT_ROWS + 1,
                SEGMENT_ROWS + 2,
                SEGMENT_ROWS + 3,
                SEGMENT_ROWS + 4
            ]
        );
        // An append that carries a copied tail past a morsel seals whole
        // morsels and leaves the rest as the next tail.
        let (grown, built, _) = table(8_000).change(&[], Some(&table(300)), 1);
        let extents: Vec<usize> = grown.segments.iter().map(|s| s.rows).collect();
        assert_eq!((built, extents), (2, vec![MORSEL_ROWS, 108]));
        let (grown, built, _) = table(100).change(&[], Some(&table(70_000)), 1);
        let extents: Vec<usize> = grown.segments.iter().map(|s| s.rows).collect();
        assert_eq!((built, extents), (2, vec![SEGMENT_ROWS, 4_564]));
        let (grown, ..) = table(0).change(&[], Some(&table(20_000)), 1);
        let extents: Vec<usize> = grown.segments.iter().map(|s| s.rows).collect();
        assert_eq!(extents, [2 * MORSEL_ROWS, 3_616]);
    }

    /// Asserts `got` holds what `want` does: every column's buffer
    /// variant, slots and null bits, and the segment's `bytes`. The masks
    /// are the caller's to check.
    fn assert_same_cells(got: &Segment, want: &Segment, what: &str) {
        assert_eq!(
            (got.rows, got.bytes),
            (want.rows, want.bytes),
            "{what}: rows, bytes"
        );
        let slots = |c: &Column| -> Vec<String> {
            let slot = |i: usize| match &c.data {
                ColumnData::I64(b) => format!("I64 {:?}", b[i]),
                ColumnData::Decimal(b) => format!("Decimal {:?}", b.get(i)),
                ColumnData::Date(b) => format!("Date {:?}", b[i]),
                ColumnData::Str(b) => format!("Str {:?}", &b[i]),
                ColumnData::Other(b) => format!("Other {:?}", b[i]),
            };
            (0..c.len())
                .map(|i| format!("{} null={}", slot(i), c.nulls.get(i)))
                .collect()
        };
        for (c, (g, w)) in got.columns.iter().zip(want.columns.iter()).enumerate() {
            assert_eq!(
                g.nulls.count_set(),
                w.nulls.count_set(),
                "{what}: column {c}"
            );
            for (i, (g, w)) in slots(g).iter().zip(&slots(w)).enumerate() {
                assert_eq!(g, w, "{what}: column {c}, offset {i}");
            }
        }
    }

    #[test]
    fn an_append_to_a_masked_tail_keeps_exactly_its_live_rows() {
        let dtypes = vec![DataType::Int, DataType::Str];
        // NULL cells next to the tail's dead offsets 0, 49 and 99; the
        // string at offset 0 boxes the tail's integer column.
        let row = |i: usize| -> Row {
            match i % SEGMENT_ROWS {
                _ if i == SEGMENT_ROWS => vec![Value::str("boxed"), Value::Null],
                1 | 48 | 50 | 98 => vec![Value::Null, Value::Null],
                _ => vec![Value::Int(i as i64), Value::str(format!("s{i}"))],
            }
        };
        let n = SEGMENT_ROWS + 100;
        let rows: Vec<Row> = (0..n).map(row).collect();
        let t = ColumnTable::from_rows(dtypes.clone(), &rows);
        let dead = [0, 49, 99];
        let (masked, ..) = t.change(&dead.map(|i| (SEGMENT_ROWS + i) as u32), None, 1);
        let added: Vec<Row> = [1, 7, 50].map(row).into();
        let tail = |t: &ColumnTable| -> Vec<Row> {
            let rows = rows[SEGMENT_ROWS..].iter().enumerate();
            let live = rows.filter(|(i, _)| !t.has_dead() || !dead.contains(i));
            live.map(|(_, r)| r.clone()).chain(added.clone()).collect()
        };
        // Masked or not, the grown tail is a rebuild of its live rows and
        // the rows appended, with no mask: typed again once the cell that
        // boxed it is dead.
        let added_rows = ColumnTable::from_rows(dtypes.clone(), &added);
        for from in [&masked, &t] {
            let (grown, built, _) = from.change(&[], Some(&added_rows), 1);
            assert_eq!((built, grown.segments.len()), (1, 2));
            assert!(Arc::ptr_eq(&grown.segments[0], &t.segments[0]));
            assert!(!grown.has_dead());
            let want = ColumnTable::from_rows(dtypes.clone(), &tail(from));
            assert_same_cells(&grown.segments[1], &want.segments[0], "grown tail");
            let typed = matches!(grown.segments[1].columns[0].data, ColumnData::I64(_));
            assert_eq!(typed, from.has_dead());
            assert_eq!(grown.rows, from.rows + added.len());
        }

        // A full segment and a tail empty, short, at a morsel and past one,
        // the first rows of each just under or just over a quarter dead,
        // and batches of 0 rows to more than a segment: the live rows, then
        // the batch's; each segment built holds what pushing its rows
        // builds, with no mask, and is built once; a segment a quarter dead
        // is compacted unless the append copies it.
        for tail in [0, 100, MORSEL_ROWS, MORSEL_ROWS + 300] {
            let n = SEGMENT_ROWS + tail;
            let t =
                ColumnTable::from_rows(dtypes.clone(), &(0..n).map(string_row).collect::<Vec<_>>());
            for over in [false, true] {
                let dead = |rows: usize| {
                    (rows as f64 * COMPACT_DEAD_SHARE).ceil() as usize - usize::from(!over)
                };
                let live = |i: &usize| {
                    i % SEGMENT_ROWS
                        >= dead(if *i < SEGMENT_ROWS {
                            SEGMENT_ROWS
                        } else {
                            tail
                        })
                };
                let removed: Vec<u32> = (0..n).filter(|i| !live(i)).map(|i| i as u32).collect();
                for m in [0, 1, 20_000, SEGMENT_ROWS + 70] {
                    let what = format!("{m} rows onto {tail}, over a quarter dead: {over}");
                    let rows: Vec<Row> = (n..n + m).map(string_row).collect();
                    let batch = ColumnTable::from_rows(dtypes.clone(), &rows);
                    let (got, built, compacted) = t.change(&removed, Some(&batch), 1);
                    let want = (0..n).filter(live).map(string_row).chain(rows);
                    assert!(got.iter_rows().eq(want), "{what}: rows");
                    let shared = |si: usize| {
                        (t.segments.get(si))
                            .is_some_and(|s| Arc::ptr_eq(&s.columns, &got.segments[si].columns))
                    };
                    let fresh: Vec<usize> =
                        (0..got.segments.len()).filter(|&si| !shared(si)).collect();
                    assert_eq!(built, fresh.len(), "{what}: segments built");
                    for &si in &fresh {
                        let seg = &got.segments[si];
                        let pushed = ColumnTable::from_rows(
                            dtypes.clone(),
                            &(0..seg.rows).map(|i| seg.row(i)).collect::<Vec<_>>(),
                        );
                        assert!(seg.dead().is_none(), "{what}: segment {si} masked");
                        assert_same_cells(
                            seg,
                            &pushed.segments[0],
                            &format!("{what}, segment {si}"),
                        );
                    }
                    let quarter_dead = |s: &Arc<Segment>| {
                        (s.rows - s.live()) as f64 >= COMPACT_DEAD_SHARE * s.rows as f64
                    };
                    assert!(
                        !got.segments.iter().any(quarter_dead),
                        "{what}: a quarter dead"
                    );
                    // The first segment is compacted when a quarter dead:
                    // an append copies no full segment. A tail is compacted
                    // only when no append copies it.
                    assert_eq!(shared(0), !over, "{what}: first segment");
                    let tail_compacted = over && tail > 0 && m == 0;
                    assert_eq!(
                        compacted,
                        usize::from(over) + usize::from(tail_compacted),
                        "{what}: compactions"
                    );
                }
            }
        }
    }

    #[test]
    fn a_typed_append_builds_what_pushing_its_rows_builds() {
        use tpcds_types::Decimal;
        let dtypes = vec![DataType::Int, DataType::Str, DataType::Decimal];
        let row = |i: usize| -> Row {
            let mut row = string_row(i);
            row.push(match i % 5 {
                0 => Value::Null,
                _ => Value::Decimal(Decimal::new(i as i128, 2)),
            });
            row
        };
        let rows = |ids: Range<usize>| -> Vec<Row> { ids.map(row).collect() };
        // Each segment an append builds holds what pushing its rows, the
        // tail's live rows and then the batch's, builds: the same buffers,
        // NULLs and bytes, and no mask.
        let check = |t: &ColumnTable, batch: &ColumnTable, what: &str| {
            let (got, built, _) = t.change(&[], Some(batch), 1);
            let want: Vec<Row> = t.iter_rows().chain(batch.iter_rows()).collect();
            assert_eq!(got.rows, want.len(), "{what}");
            assert_eq!(got.iter_rows().collect::<Vec<_>>(), want, "{what}");
            let shared = got.segments.len() - built;
            let mut at: usize = got.segments[..shared].iter().map(|s| s.live()).sum();
            for (k, seg) in got.segments[shared..].iter().enumerate() {
                let pushed = ColumnTable::from_rows(t.dtypes.clone(), &want[at..at + seg.rows]);
                assert!(seg.dead().is_none(), "{what}, segment {k}");
                assert_same_cells(seg, &pushed.segments[0], &format!("{what}, segment {k}"));
                at += seg.rows;
            }
        };
        // Tails empty, short, just under and just over a morsel; batches
        // of one row, across a morsel and longer than a segment; a third
        // of each tail and an eleventh of each batch dead.
        for (tail, n) in [
            (0, 1),
            (5, 20_000),
            (MORSEL_ROWS - 1, 2),
            (MORSEL_ROWS + 3, 300),
            (100, SEGMENT_ROWS + 70),
        ] {
            let t = ColumnTable::from_rows(dtypes.clone(), &rows(0..tail));
            let (t, ..) = t.change(&(0..tail as u32).step_by(3).collect::<Vec<_>>(), None, 1);
            let batch = ColumnTable::from_rows(dtypes.clone(), &rows(tail..tail + n));
            let dead: Vec<u32> = (batch.live_ids().step_by(11)).map(|i| i as u32).collect();
            let (batch, ..) = batch.change(&dead, None, 1);
            check(&t, &batch, &format!("{n} rows onto {tail}"));
        }
        // A cell that does not fit the table's column type boxes the
        // column, as pushing its value does.
        let batch = ColumnTable::from_rows(
            vec![DataType::Str, DataType::Str],
            &[vec![Value::str("x"), Value::str("y")]],
        );
        check(&table(10), &batch, "boxed");
        let (got, ..) = table(10).change(&[], Some(&batch), 1);
        assert!(matches!(
            got.segments[0].columns[0].data,
            ColumnData::Other(_)
        ));
    }

    #[test]
    fn set_column_leaves_a_shared_segment_alone() {
        let t = table(SEGMENT_ROWS + 3);
        let mut retyped = t.clone();
        let lengths = retyped.segments.iter().map(|s| s.rows);
        let columns = lengths
            .map(|n| {
                let mut c = Column::for_type(DataType::Str);
                (0..n).for_each(|i| c.push_str(&i.to_string()));
                c
            })
            .collect();
        retyped.set_column(0, DataType::Str, columns);
        assert_eq!(retyped.dtypes, [DataType::Str, DataType::Str]);
        assert_eq!(retyped.row(SEGMENT_ROWS + 2)[0], Value::str("2"));
        assert_eq!(
            t.row(SEGMENT_ROWS + 2)[0],
            Value::Int(SEGMENT_ROWS as i64 + 2)
        );
        let bytes: usize = retyped.segments[1]
            .columns
            .iter()
            .map(Column::heap_bytes)
            .sum();
        assert_eq!(retyped.segments[1].bytes, bytes);
    }

    /// Row `i`: its id, and a string cell cycling through multi-byte
    /// characters, empty strings and NULLs, so every run a copy cuts and
    /// every segment boundary falls beside one of each.
    fn string_row(i: usize) -> Row {
        let cell = match i % 7 {
            0 => Value::str("é"),
            1 | 6 => Value::str(""),
            2 | 5 => Value::Null,
            3 => Value::str(format!("日本{i}")),
            _ => Value::str(format!("s{i}")),
        };
        vec![Value::Int(i as i64), cell]
    }

    #[test]
    fn strings_survive_masks_appends_replaces_and_gathers() {
        let dtypes = vec![DataType::Int, DataType::Str];
        let n = SEGMENT_ROWS + 40;
        let rows: Vec<Row> = (0..n).map(string_row).collect();
        let t = ColumnTable::from_rows(dtypes.clone(), &rows);

        // An append copies the live runs of a masked tail.
        let dead = [0, 3, 4, 17, 39].map(|i| (SEGMENT_ROWS + i) as u32);
        let (masked, ..) = t.change(&dead, None, 1);
        let added: Vec<Row> = (100..105).map(string_row).collect();
        let added_rows = ColumnTable::from_rows(dtypes.clone(), &added);
        let (grown, ..) = masked.change(&[], Some(&added_rows), 1);
        let live: Vec<Row> = masked.iter_rows().chain(added).collect();
        let want = ColumnTable::from_rows(dtypes.clone(), &live);
        assert_same_cells(&grown.segments[1], &want.segments[1], "grown tail");

        // Rows replaced by new versions — the old ones removed and the new
        // ones appended in one change — from offsets 0 and 65,535 and past
        // the boundary; in the second set an integer boxes the tail's
        // strings.
        for (k, edits) in [
            vec![
                (0, Value::str("日本")),
                (SEGMENT_ROWS - 1, Value::Null),
                (SEGMENT_ROWS + 1, Value::str("é")),
            ],
            vec![(0, Value::str("")), (SEGMENT_ROWS - 1, Value::Int(7))],
        ]
        .into_iter()
        .enumerate()
        {
            let ids: Vec<u32> = edits.iter().map(|(id, _)| *id as u32).collect();
            let versions: Vec<Row> = (edits.into_iter())
                .map(|(id, v)| vec![Value::Int(-(id as i64)), v])
                .collect();
            let versions = ColumnTable::from_rows(dtypes.clone(), &versions);
            let (replaced, ..) = t.change(&ids, Some(&versions), 2);
            let tail: Vec<Row> = (SEGMENT_ROWS..n)
                .filter(|&i| !ids.contains(&(i as u32)))
                .map(|i| rows[i].clone())
                .chain(versions.iter_rows())
                .collect();
            let want = ColumnTable::from_rows(dtypes.clone(), &tail);
            assert_same_cells(
                &replaced.segments[1],
                &want.segments[0],
                &format!("set {k}"),
            );
            let first = &replaced.segments[0];
            assert!(Arc::ptr_eq(&first.columns, &t.segments[0].columns));
            let boxed = matches!(replaced.segments[1].columns[1].data, ColumnData::Other(_));
            assert_eq!(boxed, k == 1, "edit set {k}");
        }

        // A gather pads with NULL cells, across the boundary.
        let ids = [
            SEGMENT_ROWS as u32 + 3,
            NO_ROW,
            3,
            SEGMENT_ROWS as u32 - 1,
            NO_ROW,
            0,
            2,
        ];
        let out = crate::batch::gather_column(&t, 1, &ids);
        assert!(matches!(out.data, ColumnData::Str(_)));
        let got: Vec<Value> = (0..ids.len()).map(|i| out.value_at(i)).collect();
        let want: Vec<Value> = (ids.iter())
            .map(|&id| match id {
                NO_ROW => Value::Null,
                id => rows[id as usize][1].clone(),
            })
            .collect();
        assert_eq!(got, want);
        assert!(out.nulls.get(1) && out.nulls.get(4) && !out.nulls.get(5));
    }

    #[test]
    fn int_ids_select_live_non_null_cells_in_one_pass() {
        // The ids `int_ids` picks equal a row-at-a-time selection over the
        // live rows, with dead and NULL cells on both sides of a boundary
        // and a boxed segment taking the decoded route.
        for n in [SEGMENT_ROWS - 1, SEGMENT_ROWS, SEGMENT_ROWS + 1] {
            let row = |i: usize| -> Row {
                vec![match i % 9 {
                    4 => Value::Null,
                    _ if i == 5 => Value::str("boxed"),
                    _ => Value::Int((i % 50) as i64),
                }]
            };
            let t =
                ColumnTable::from_rows(vec![DataType::Int], &(0..n).map(row).collect::<Vec<_>>());
            let dead: Vec<u32> = (0..n as u32)
                .filter(|i| i % 11 == 3 || *i + 1 == n as u32)
                .collect();
            let (masked, ..) = t.change(&dead, None, 1);
            let keep = |x: i64| (10..20).contains(&x) || x == 0;
            let old: Vec<u32> = (masked.live_ids())
                .filter(|&id| masked.value(id, 0).as_int().is_some_and(keep))
                .map(|id| id as u32)
                .collect();
            assert_eq!(masked.int_ids(0, keep), old, "{n} rows");
            assert!(old.len() > n / 10);
        }
    }

    #[test]
    fn short_rows_pad_with_null() {
        let mut b = ColumnTableBuilder::new(vec![DataType::Int, DataType::Int]);
        b.push_row(&[Value::Int(1)]);
        let t = b.finish();
        assert_eq!(t.row(0), vec![Value::Int(1), Value::Null]);
    }
}
