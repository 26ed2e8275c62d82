//! The operator contract: a lazy column [`Batch`], and the typed gather
//! that builds a new table from row ids (join, sort and Top-N output).
//!
//! A batch is a table plus what has been *asked* of it so far: the
//! filters stacked on it ([`Pred`], a chain of boolean [`Expr`]s) and a
//! pending output projection. Nothing is evaluated until a kernel consumes
//! the batch, so `Filter` and plain-column `Project` cost nothing and fuse
//! into whatever runs next. Kernel arguments (keys, group columns,
//! compiled expressions, the filters themselves) always address the
//! table's **physical** columns; `proj` only shapes what a kernel emits.

use crate::column::{Bitmap, Column, ColumnData, DecBuf, StrBuf};
use crate::expr::Expr;
use crate::morsel::{run_chunks, worker_count};
use crate::pred::Pred;
use crate::segment::{ColumnTable, Segment, SEGMENT_ROWS};
use std::sync::atomic::AtomicU64;
use std::sync::Arc;
use tpcds_types::{DataType, Date, Value};

/// What every plan operator returns and every kernel consumes.
#[derive(Clone, Debug)]
pub struct Batch {
    /// The backing table (a base table's segments, or an operator's output).
    pub table: Arc<ColumnTable>,
    /// Rows qualify only where every stacked filter is TRUE. Deferred
    /// expression errors surface through [`Batch::take_err`] after the
    /// consuming kernel ran.
    pub pred: Option<Pred>,
    /// Physical column behind each visible column; `None` = all, in order.
    pub proj: Option<Vec<usize>>,
}

impl Batch {
    /// Every live row and every column of `table`. Over a table with dead
    /// rows the batch carries a pending predicate of no steps, which every
    /// kernel already evaluates once per morsel: that is how dead rows
    /// stay out of every kernel without code of its own.
    pub fn new(table: Arc<ColumnTable>) -> Batch {
        Batch {
            pred: table.has_dead().then(Pred::live),
            table,
            proj: None,
        }
    }

    /// Number of visible columns.
    pub fn width(&self) -> usize {
        self.proj.as_ref().map_or(self.table.width(), Vec::len)
    }

    /// The physical column behind visible column `c`.
    pub fn phys(&self, c: usize) -> usize {
        self.proj.as_ref().map_or(c, |p| p[c])
    }

    /// The physical columns behind the visible ones, in order.
    pub fn cols(&self) -> Vec<usize> {
        (0..self.width()).map(|c| self.phys(c)).collect()
    }

    /// Stacks the filter `expr` (over physical columns) on the pending
    /// predicate: as in a serial filter chain, it — and any error it
    /// raises — only sees the rows the earlier filters admit.
    pub fn filter(mut self, expr: Expr) -> Batch {
        match &mut self.pred {
            Some(p) => p.push(expr),
            None => self.pred = Some(Pred::new(expr)),
        }
        self
    }

    /// Narrows/reorders the visible columns (`cols` index the current
    /// visible row).
    pub fn project(mut self, cols: &[usize]) -> Batch {
        self.proj = Some(cols.iter().map(|&c| self.phys(c)).collect());
        self
    }

    /// The same qualifying rows with every physical column visible, under
    /// a copy of the predicate that feeds neither its counters nor its
    /// error cell: those stay the consuming kernel's.
    pub fn peek(&self) -> Batch {
        Batch {
            table: Arc::clone(&self.table),
            pred: self.pred.as_ref().map(Pred::detached),
            proj: None,
        }
    }

    /// A counter to which every kernel evaluating the pending predicate
    /// adds the rows the filters stacked *so far* admit; `None` when
    /// nothing is pending (every row qualifies: none is dead). The count is
    /// exact because every kernel evaluates a batch's predicate exactly
    /// once per morsel it visits — an invariant the kernels owe the
    /// deferred-error cell anyway, pinned for all of them by
    /// `tests::every_kernel_evaluates_a_pending_predicate_once`.
    pub fn counted(&mut self) -> Option<Arc<AtomicU64>> {
        self.pred.as_mut().map(Pred::counted)
    }

    /// Drains the pending predicate's first deferred error, if any. Call
    /// after every kernel that consumed the batch, before trusting its
    /// output.
    pub fn take_err(&self) -> Option<String> {
        self.pred.as_ref().and_then(Pred::take_err)
    }
}

/// Row id meaning "no source row": gathers a NULL (left-outer padding).
pub(crate) const NO_ROW: u32 = u32::MAX;

/// One input of [`gather`]: emit `cols` of `table` at global row `ids`.
pub(crate) struct Take<'a> {
    pub table: &'a ColumnTable,
    pub cols: Vec<usize>,
    pub ids: &'a [u32],
}

/// Builds a table whose row `r` is the concatenation, over `takes`, of
/// the chosen columns at `ids[r]`. One task per (output segment, column),
/// so wide or long outputs both spread over the workers.
pub(crate) fn gather(takes: &[Take<'_>], threads: usize) -> ColumnTable {
    let rows = takes.first().map_or(0, |t| t.ids.len());
    debug_assert!(takes.iter().all(|t| t.ids.len() == rows));
    let sources: Vec<(&Take<'_>, usize)> = takes
        .iter()
        .flat_map(|t| t.cols.iter().map(move |&c| (t, c)))
        .collect();
    let width = sources.len();
    let nseg = rows.div_ceil(SEGMENT_ROWS);
    let workers = worker_count(rows, threads, nseg * width);
    let mut columns = run_chunks(nseg * width, workers, |task| {
        let (k, (take, col)) = (task / width, sources[task % width]);
        let ids = &take.ids[k * SEGMENT_ROWS..rows.min((k + 1) * SEGMENT_ROWS)];
        gather_column(take.table, col, ids)
    })
    .into_iter();
    let segments = (0..nseg)
        .map(|k| {
            let len = rows.min((k + 1) * SEGMENT_ROWS) - k * SEGMENT_ROWS;
            Arc::new(Segment::seal(columns.by_ref().take(width).collect(), len))
        })
        .collect();
    ColumnTable {
        dtypes: sources.iter().map(|(t, c)| t.table.dtypes[*c]).collect(),
        segments,
        rows,
    }
}

/// Gathers one column at `ids`. Dense typed buffers copy natively; a
/// column boxed in any segment falls back to per-value pushes.
pub(crate) fn gather_column(src: &ColumnTable, col: usize, ids: &[u32]) -> Column {
    let typed = match src.dtypes[col] {
        DataType::Int => typed(src, col, ids, 0i64, |d| match d {
            ColumnData::I64(b) => Some(b),
            _ => None,
        })
        .map(|(b, n)| (ColumnData::I64(b), n)),
        DataType::Decimal => decimals(src, col, ids).map(|(b, n)| (ColumnData::Decimal(b), n)),
        DataType::Date => typed(src, col, ids, Date::from_ymd(1900, 1, 1), |d| match d {
            ColumnData::Date(b) => Some(b),
            _ => None,
        })
        .map(|(b, n)| (ColumnData::Date(b), n)),
        DataType::Str => strings(src, col, ids).map(|(b, n)| (ColumnData::Str(b), n)),
        DataType::Time | DataType::Bool => None,
    };
    if let Some((data, nulls)) = typed {
        return Column { data, nulls };
    }
    let mut out = Column::for_type(src.dtypes[col]);
    for &id in ids {
        if id == NO_ROW {
            out.push(&Value::Null);
        } else {
            let (si, i) = (id as usize / SEGMENT_ROWS, id as usize % SEGMENT_ROWS);
            out.push(&src.segments[si].columns[col].value_at(i));
        }
    }
    out
}

/// The native-buffer gather; `None` when some segment holds the column in
/// another buffer variant.
fn typed<T: Clone>(
    src: &ColumnTable,
    col: usize,
    ids: &[u32],
    pad: T,
    buf_of: fn(&ColumnData) -> Option<&[T]>,
) -> Option<(Vec<T>, Bitmap)> {
    let bufs: Vec<(&[T], &Bitmap)> = src
        .segments
        .iter()
        .map(|s| buf_of(&s.columns[col].data).map(|b| (b, &s.columns[col].nulls)))
        .collect::<Option<_>>()?;
    let mut out = Vec::with_capacity(ids.len());
    let mut nulls = Bitmap::new();
    for &id in ids {
        if id == NO_ROW {
            out.push(pad.clone());
            nulls.push(true);
        } else {
            let (buf, n) = bufs[id as usize / SEGMENT_ROWS];
            let i = id as usize % SEGMENT_ROWS;
            out.push(buf[i].clone());
            nulls.push(n.get(i));
        }
    }
    Some((out, nulls))
}

/// [`typed`] for a decimal column: its mantissas, when every segment holds
/// them at one scale (a segment of NULLs has none).
fn decimals(src: &ColumnTable, col: usize, ids: &[u32]) -> Option<(DecBuf, Bitmap)> {
    let mut scale = None;
    for seg in &src.segments {
        let ColumnData::Decimal(b) = &seg.columns[col].data else {
            return None;
        };
        match (scale, b.scale()) {
            (Some(x), Some(y)) if x != y => return None,
            (None, s) => scale = s,
            _ => {}
        }
    }
    let (mantissas, nulls) = typed(src, col, ids, 0, |d| match d {
        ColumnData::Decimal(b) => Some(b.mantissas()),
        _ => None,
    })?;
    Some((DecBuf::gathered(mantissas, scale, &nulls), nulls))
}

/// [`typed`] for a string column: each cell's bytes copied into one
/// buffer allocated once, a pad an empty cell. `None` also when the buffer
/// would pass `u32::MAX` bytes, so the column boxes.
fn strings(src: &ColumnTable, col: usize, ids: &[u32]) -> Option<(StrBuf, Bitmap)> {
    let bufs: Vec<(&StrBuf, &Bitmap)> = (src.segments.iter())
        .map(|s| match &s.columns[col].data {
            ColumnData::Str(b) => Some((b, &s.columns[col].nulls)),
            _ => None,
        })
        .collect::<Option<_>>()?;
    let cell = |id: u32| match id {
        NO_ROW => ("", true),
        id => {
            let (buf, n) = bufs[id as usize / SEGMENT_ROWS];
            let i = id as usize % SEGMENT_ROWS;
            (buf.get(i), n.get(i))
        }
    };
    let bytes = ids.iter().map(|&id| cell(id).0.len()).sum();
    let mut out = StrBuf::with_capacity(ids.len(), bytes);
    let mut nulls = Bitmap::new();
    for &id in ids {
        let (cell, null) = cell(id);
        if !out.push(cell) {
            return None;
        }
        nulls.push(null);
    }
    Some((out, nulls))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::CmpKind;
    use tpcds_types::Row;

    fn rows(n: i64) -> Vec<Row> {
        (0..n)
            .map(|i| {
                let s = if i % 3 == 0 {
                    Value::Null
                } else {
                    Value::str(format!("s{i}"))
                };
                vec![Value::Int(i), s, Value::Bool(i % 2 == 0)]
            })
            .collect()
    }

    fn table(rows: &[Row]) -> ColumnTable {
        ColumnTable::from_rows(vec![DataType::Int, DataType::Str, DataType::Bool], rows)
    }

    #[test]
    fn from_rows_round_trips_and_composes() {
        let src = rows(10);
        let b = Batch::new(Arc::new(table(&src)));
        assert!(matches!(
            b.table.segments[0].columns[1].data,
            ColumnData::Str(_)
        ));
        assert_eq!(crate::par_filter(&b, 1).0, src);
        let b = b
            .project(&[2, 0])
            .filter(Expr::cmp(CmpKind::Ge, 0, Value::Int(8)))
            .project(&[1]);
        assert_eq!((b.width(), b.phys(0), b.cols()), (1, 0, vec![0]));
        let mut b = b;
        let admitted = b.counted().expect("a predicate is pending");
        assert_eq!(
            crate::par_filter(&b, 1).0,
            vec![vec![Value::Int(8)], vec![Value::Int(9)]]
        );
        assert_eq!(admitted.load(std::sync::atomic::Ordering::Relaxed), 2);
        assert!(Batch::new(Arc::new(table(&src))).counted().is_none());
    }

    #[test]
    fn every_kernel_evaluates_a_pending_predicate_once() {
        use crate::{AggKind, AggSpec, Expr, JoinType, SortKey};
        // Three morsels; the predicate admits every other row.
        let n = 20_000i64;
        let dtypes = vec![DataType::Int, DataType::Int];
        let rows: Vec<Row> = (0..n)
            .map(|i| vec![Value::Int(i), Value::Int(i % 2)])
            .collect();
        let t = Arc::new(ColumnTable::from_rows(dtypes.clone(), &rows));
        // The same rows with every seventh dead — masked, short of a
        // compaction — and the rows left, compacted.
        let dead: Vec<u32> = (0..n as u32).step_by(7).collect();
        let (masked, built, _) = t.change(&dead, None, 1);
        assert!(built == 0 && masked.has_dead());
        let masked = Arc::new(masked);
        let live: Vec<Row> = masked.iter_rows().collect();
        let compact = Arc::new(ColumnTable::from_rows(dtypes, &live));
        let even = live.iter().filter(|r| r[1] == Value::Int(0)).count() as u64;
        let counted = |table: &Arc<ColumnTable>| {
            let mut b =
                Batch::new(Arc::clone(table)).filter(Expr::cmp(CmpKind::Eq, 1, Value::Int(0)));
            let rows = b.counted().unwrap();
            (b, rows)
        };
        let plain = Batch::new(Arc::clone(&t));
        let count = [AggSpec {
            kind: AggKind::CountStar,
            col: None,
        }];
        let key = [SortKey { col: 0, desc: true }];
        let table_rows = |t: ColumnTable| t.iter_rows().collect::<Vec<_>>();
        type Kernel<'a> = (&'a str, Box<dyn Fn(&Batch, usize) -> Vec<Row> + 'a>);
        let kernels: Vec<Kernel<'_>> = vec![
            ("par_filter", Box::new(|b, w| crate::par_filter(b, w).0)),
            (
                "scan_until",
                Box::new(|b, _| {
                    let mut out = Vec::new();
                    crate::scan_until(b, |row| {
                        out.push(row);
                        Ok::<_, ()>(true)
                    })
                    .unwrap();
                    out
                }),
            ),
            (
                "par_aggregate",
                Box::new(|b, w| table_rows(crate::par_aggregate(b, &[1], &count, w).unwrap().0)),
            ),
            (
                "par_project_table",
                Box::new(|b, w| {
                    let out = crate::par_project_table(b, &[Expr::Col(0)], w);
                    table_rows(out.unwrap().0)
                }),
            ),
            (
                "par_hash_join probe",
                Box::new(|b, w| {
                    let out = crate::par_hash_join(b, &[0], &plain, &[0], JoinType::Left, None, w);
                    table_rows(out.unwrap().0)
                }),
            ),
            (
                "par_hash_join build",
                Box::new(|b, w| {
                    let out = crate::par_hash_join(&plain, &[0], b, &[0], JoinType::Inner, None, w);
                    table_rows(out.unwrap().0)
                }),
            ),
            (
                "par_sort",
                Box::new(|b, w| table_rows(crate::par_sort(b, &key, None, w).0)),
            ),
            (
                "par_sort limit",
                Box::new(|b, w| table_rows(crate::par_sort(b, &key, Some(10), w).0)),
            ),
            (
                "par_window",
                Box::new(|b, w| {
                    let call = |func| crate::WinSpec {
                        func,
                        arg: None,
                        keys: key.to_vec(),
                        partition: 0,
                    };
                    let calls = [call(crate::WinFunc::RowNumber), call(crate::WinFunc::Rank)];
                    table_rows(crate::par_window(b, &calls, w).unwrap().0)
                }),
            ),
        ];
        let admitted = |rows: Arc<AtomicU64>| rows.load(std::sync::atomic::Ordering::Relaxed);
        for (name, kernel) in &kernels {
            for workers in [1, 4] {
                let what = format!("{name} at {workers} workers");
                let (b, rows) = counted(&t);
                kernel(&b, workers);
                assert_eq!(admitted(rows), n as u64 / 2, "{what}");
                // Over dead rows, filtered or not: the output over the rows
                // left, compacted, and each live row evaluated once.
                let (b, rows) = counted(&masked);
                let over_compact = kernel(&counted(&compact).0, workers);
                assert_eq!(kernel(&b, workers), over_compact, "{what}, filtered");
                assert_eq!(admitted(rows), even, "{what}, filtered");
                let mut b = Batch::new(Arc::clone(&masked));
                let rows = b.counted().expect("dead rows are a pending predicate");
                let over_compact = kernel(&Batch::new(Arc::clone(&compact)), workers);
                assert_eq!(kernel(&b, workers), over_compact, "{what}");
                assert_eq!(admitted(rows), live.len() as u64, "{what}");
            }
        }
    }

    #[test]
    fn gather_pads_and_crosses_segments() {
        let n = SEGMENT_ROWS as i64 + 5;
        let t = table(&rows(n));
        let ids: Vec<u32> = vec![n as u32 - 1, NO_ROW, 0, SEGMENT_ROWS as u32, 4];
        let take = |cols: &[usize]| Take {
            table: &t,
            cols: cols.to_vec(),
            ids: &ids,
        };
        let out = gather(&[take(&[1, 0]), take(&[2])], 4);
        assert_eq!(out.dtypes, [DataType::Str, DataType::Int, DataType::Bool]);
        let expect: Vec<Row> = ids
            .iter()
            .map(|&id| match id {
                NO_ROW => vec![Value::Null; 3],
                id => {
                    let r = t.row(id as usize);
                    vec![r[1].clone(), r[0].clone(), r[2].clone()]
                }
            })
            .collect();
        assert_eq!(crate::par_filter(&Batch::new(Arc::new(out)), 1).0, expect);
        assert_eq!(gather(&[take(&[0])], 1).segments[0].rows, ids.len());
        assert_eq!(gather(&[], 1).rows, 0);
    }
}
