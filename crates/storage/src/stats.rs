//! Per-column table statistics, collected in parallel over segments once
//! and from then on changed only by the rows a change touches.
//!
//! [`collect_stats`] walks a [`ColumnTable`] with the same
//! worker-count policy as the scan kernels: workers claim whole segments
//! off a shared cursor and fold per-column accumulators (null count,
//! min/max, an HLL NDV sketch, a log-bucketed value histogram); the
//! partials merge commutatively, in segment order — so the result is
//! deterministic regardless of worker count or claim order.
//!
//! [`ColumnStats`] keeps its sketch, so published statistics change
//! without a rescan: [`extend_stats`] folds just the live rows appended
//! past the ones already counted, [`collect_stats_at`] collects those of
//! the rows a delete or an update moves, [`TableStats::merge`] folds them
//! in and [`TableStats::retract`] takes them out. Dead rows are never
//! counted. Row and NULL counts and the histogram subtract exactly; a min
//! or max that a removed value equals is looked up among the rows left,
//! and recomputed over that one column only when no row left holds it. Every field then equals a
//! rebuild's except `ndv`: an HLL register cannot be lowered, so the
//! sketch keeps every row version the table has held, and `ndv` estimates
//! the distinct values of the live rows together with every row deleted
//! or overwritten since the table was created.
//!
//! The fold is typed: one match on the column's buffer, then a loop over
//! native values — no boxed [`Value`] per cell, no `Arc<str>` refcount
//! traffic, min/max compared on the native type. What it feeds the sketch
//! is bit for bit what hashing the boxed value would.
//!
//! The histogram only covers values with a natural non-negative integer
//! key (see [`hist_key`]); [`ColumnStats::hist_covers_column`] tells the
//! cardinality estimator whether the histogram saw every non-NULL value
//! and can therefore be trusted for range selectivity.

use crate::column::{Bitmap, Column, ColumnData};
use crate::morsel::{run_chunks, worker_count};
use crate::segment::{ColumnTable, Segment, SEGMENT_ROWS};
use std::cmp::Ordering;
use std::collections::hash_map::DefaultHasher;
use std::hash::{Hash, Hasher};
use std::sync::Arc;
use tpcds_obs::hist::HistSnapshot;
use tpcds_obs::ndv::NdvSketch;
use tpcds_types::{Decimal, Value};

/// Statistics for one column of one table.
#[derive(Clone, Debug)]
pub struct ColumnStats {
    /// Number of NULL values.
    pub nulls: u64,
    /// Smallest non-NULL value (by [`Value::sort_cmp`]), if any.
    pub min: Option<Value>,
    /// Largest non-NULL value, if any.
    pub max: Option<Value>,
    /// Estimated number of distinct non-NULL values (HLL sketch).
    pub ndv: u64,
    /// Log-bucketed histogram over [`hist_key`]-mappable values.
    pub hist: HistSnapshot,
    /// The sketch `ndv` was read off, kept so more rows can be merged in.
    sketch: NdvSketch,
}

impl ColumnStats {
    fn empty() -> ColumnStats {
        ColumnStats {
            nulls: 0,
            min: None,
            max: None,
            ndv: 0,
            hist: HistSnapshot::new(),
            sketch: NdvSketch::new(),
        }
    }

    /// True when every non-NULL value landed in the histogram — i.e. the
    /// histogram's sample count equals `rows - nulls`, so range
    /// selectivities read off it describe the whole column.
    pub fn hist_covers_column(&self, table_rows: u64) -> bool {
        self.hist.count > 0 && self.hist.count == table_rows - self.nulls
    }

    /// Widens min/max to cover `lo` and `hi`; an equal value keeps the
    /// one already held.
    fn cover(&mut self, lo: Option<&Value>, hi: Option<&Value>) {
        let beats = |v: &Value, held: &Option<Value>, wins: Ordering| {
            held.as_ref().is_none_or(|m| v.sort_cmp(m) == wins)
        };
        if let Some(v) = lo.filter(|v| beats(v, &self.min, Ordering::Less)) {
            self.min = Some(v.clone());
        }
        if let Some(v) = hi.filter(|v| beats(v, &self.max, Ordering::Greater)) {
            self.max = Some(v.clone());
        }
    }

    /// Folds `other` in; `ndv` is stale until re-read off the sketch.
    fn merge(&mut self, other: &ColumnStats) {
        self.nulls += other.nulls;
        self.sketch.merge(&other.sketch);
        self.hist.merge(&other.hist);
        self.cover(other.min.as_ref(), other.max.as_ref());
    }

    /// Takes out `removed`, which was folded in; column `c` of the live
    /// rows of `left` is what is left. The sketch keeps the removed values.
    fn retract<'a>(
        &mut self,
        removed: &ColumnStats,
        c: usize,
        left: impl Iterator<Item = &'a Segment> + Clone,
    ) {
        self.nulls -= removed.nulls;
        self.hist.subtract(&removed.hist);
        // Only a removed value equal to an extreme can have taken it away,
        // and only when no row left holds the same value.
        let lost = |held: &Option<Value>, gone: &Option<Value>| match held {
            Some(v) => held == gone && !left.clone().any(|seg| holds(seg, c, v)),
            None => false,
        };
        let (min_lost, max_lost) = (lost(&self.min, &removed.min), lost(&self.max, &removed.max));
        if min_lost || max_lost {
            let mut rescan = ColumnStats::empty();
            left.for_each(|seg| rescan.cover_column(&seg.columns[c], seg.live_offsets()));
            if min_lost {
                self.min = rescan.min;
            }
            if max_lost {
                self.max = rescan.max;
            }
        }
    }

    /// Folds the cells at offsets `rows` of one segment's column in.
    fn fold(&mut self, col: &Column, rows: impl Iterator<Item = usize> + Clone) {
        let observe = |v: &Value| (ndv_hash(v), hist_key(v));
        let (nulls, cells) = (&col.nulls, rows.clone());
        match &col.data {
            ColumnData::I64(buf) => {
                self.fold_cells(buf, nulls, cells, |x| observe(&Value::Int(*x)))
            }
            ColumnData::Decimal(buf) => {
                self.fold_cells(buf, nulls, cells, |x| observe(&Value::Decimal(*x)))
            }
            ColumnData::Date(buf) => {
                self.fold_cells(buf, nulls, cells, |x| observe(&Value::Date(*x)))
            }
            ColumnData::Str(buf) => self.fold_cells(buf, nulls, cells, |s| {
                let mut h = DefaultHasher::new();
                Value::hash_str(s, &mut h);
                (h.finish(), None)
            }),
            ColumnData::Other(buf) => self.fold_cells(buf, nulls, cells, observe),
        }
        self.cover_column(col, rows);
    }

    /// Counts NULLs and feeds every other cell of `buf` at `rows` to the
    /// sketch and the histogram: `observe` returns the cell's
    /// [`ndv_hash`] and its histogram key.
    fn fold_cells<T>(
        &mut self,
        buf: &[T],
        nulls: &Bitmap,
        rows: impl Iterator<Item = usize>,
        observe: impl Fn(&T) -> (u64, Option<u64>),
    ) {
        for i in rows {
            if nulls.get(i) {
                self.nulls += 1;
                continue;
            }
            let (hash, key) = observe(&buf[i]);
            self.sketch.insert_hash(hash);
            if let Some(k) = key {
                self.hist.record(k);
            }
        }
    }

    /// Widens min/max over the non-NULL cells of `col` at `rows`, compared
    /// on the native type — which agrees with [`Value::sort_cmp`] within
    /// one buffer variant — so only the two winners are boxed.
    fn cover_column(&mut self, col: &Column, rows: impl Iterator<Item = usize>) {
        fn extremes<'b, T: Ord, V>(
            buf: &'b [T],
            cells: impl Iterator<Item = usize>,
            boxed: impl Fn(&'b T) -> V,
        ) -> (Option<V>, Option<V>) {
            let (mut lo, mut hi): (Option<&T>, Option<&T>) = (None, None);
            for x in cells.map(|i| &buf[i]) {
                if lo.is_none_or(|m| x < m) {
                    lo = Some(x);
                }
                if hi.is_none_or(|m| x > m) {
                    hi = Some(x);
                }
            }
            (lo.map(&boxed), hi.map(&boxed))
        }
        let cells = rows.filter(|&i| !col.nulls.get(i));
        let (lo, hi) = match &col.data {
            ColumnData::I64(buf) => extremes(buf, cells, |x| Value::Int(*x)),
            ColumnData::Decimal(buf) => extremes(buf, cells, |x| Value::Decimal(*x)),
            ColumnData::Date(buf) => extremes(buf, cells, |x| Value::Date(*x)),
            ColumnData::Str(buf) => extremes(buf, cells, |s| Value::Str(Arc::clone(s))),
            ColumnData::Other(buf) => {
                cells.for_each(|i| self.cover(Some(&buf[i]), Some(&buf[i])));
                return;
            }
        };
        self.cover(lo.as_ref(), hi.as_ref());
    }
}

/// Whether a live non-NULL cell of column `c` of `seg` equals `v`; stops
/// at the first. Typed where the buffer holds `v`'s type, through
/// [`Value`]'s `==` otherwise.
fn holds(seg: &Segment, c: usize, v: &Value) -> bool {
    let col = &seg.columns[c];
    let mut cells = seg.live_offsets().filter(|&i| !col.nulls.get(i));
    match (&col.data, v) {
        (ColumnData::I64(buf), Value::Int(x)) => cells.any(|i| buf[i] == *x),
        (ColumnData::Decimal(buf), Value::Decimal(x)) => cells.any(|i| buf[i] == *x),
        (ColumnData::Date(buf), Value::Date(x)) => cells.any(|i| buf[i] == *x),
        (ColumnData::Str(buf), Value::Str(x)) => cells.any(|i| buf[i] == *x),
        _ => cells.any(|i| col.value_at(i) == *v),
    }
}

/// Statistics for one table: total rows plus per-column detail.
#[derive(Clone, Debug)]
pub struct TableStats {
    /// Total row count at collection time.
    pub rows: u64,
    /// One entry per column, in declaration order.
    pub columns: Vec<ColumnStats>,
}

impl TableStats {
    /// The statistics of a table of `width` columns and no rows.
    pub fn empty(width: usize) -> TableStats {
        TableStats {
            rows: 0,
            columns: vec![ColumnStats::empty(); width],
        }
    }

    /// Folds in `added`: the statistics of rows the table now holds
    /// besides the ones counted. Exact, since no accumulator shrinks.
    pub fn merge(&mut self, added: &TableStats) {
        self.rows += added.rows;
        for (into, from) in self.columns.iter_mut().zip(&added.columns) {
            into.merge(from);
            into.ndv = into.sketch.estimate_u64();
        }
    }

    /// Takes out `removed`: the statistics of counted rows that are gone
    /// from `table`'s live rows, which are the rest. Costs the removed
    /// rows, plus a search of one column's cells where a removed value
    /// equals its min or max; every field but `ndv` then equals
    /// [`collect_stats`] of `table` (see the module doc).
    pub fn retract(&mut self, removed: &TableStats, table: &ColumnTable) {
        debug_assert_eq!(self.rows - removed.rows, table.rows as u64);
        self.rows -= removed.rows;
        for (c, (into, gone)) in self.columns.iter_mut().zip(&removed.columns).enumerate() {
            into.retract(gone, c, table.segments.iter().map(|s| &**s));
        }
    }

    /// The stats for column `i`, if the table has that many columns.
    pub fn column(&self, i: usize) -> Option<&ColumnStats> {
        self.columns.get(i)
    }

    /// Fraction of NULLs in column `i` (0 when out of range or empty).
    pub fn null_fraction(&self, i: usize) -> f64 {
        if self.rows == 0 {
            return 0.0;
        }
        self.column(i)
            .map(|c| c.nulls as f64 / self.rows as f64)
            .unwrap_or(0.0)
    }
}

/// Maps a value onto the non-negative integer axis the histogram indexes:
/// non-negative integers map to themselves, decimals to their truncated
/// magnitude, dates to their surrogate key. Strings, booleans, times and
/// negative numbers get no key — columns containing them fall back to
/// NDV-only selectivity.
pub fn hist_key(v: &Value) -> Option<u64> {
    match v {
        Value::Int(x) if *x >= 0 => Some(*x as u64),
        Value::Decimal(d) => {
            let f = d.to_f64();
            if f.is_finite() && f >= 0.0 {
                Some(f as u64)
            } else {
                None
            }
        }
        Value::Date(d) => u64::try_from(d.date_sk()).ok(),
        _ => None,
    }
}

/// What the NDV sketch is fed for `v`: `DefaultHasher`'s digest of
/// [`Value::hash`] (SipHash-1-3 under the zero key), so an estimate does
/// not depend on how a cell reached the sketch. Numbers — nearly every
/// cell of a fact table — hash one fixed 18-byte message (tag, normalized
/// mantissa, scale); that case is computed directly, because the
/// streaming hasher spends several times more on buffering three short
/// writes than on the six mixing rounds. `tests::ndv_hash_is_the_default_hashers`
/// holds the two together.
fn ndv_hash(v: &Value) -> u64 {
    let d = match v {
        Value::Int(x) => Decimal::from_int(*x),
        Value::Decimal(d) => d.normalize(),
        _ => {
            let mut h = DefaultHasher::new();
            v.hash(&mut h);
            return h.finish();
        }
    };
    // The message in 64-bit little-endian words, as the hasher reads it:
    // tag and mantissa bytes 0..7, mantissa bytes 7..15, then mantissa
    // byte 15, the scale, and the message length in the top byte.
    let m = u128::from_le_bytes(d.mantissa().to_ne_bytes());
    let words = [
        2 | (m as u64) << 8,
        (m >> 56) as u64,
        (m >> 120) as u64 | (d.scale() as u64) << 8 | 18 << 56,
    ];
    let mut v = [
        0x736f_6d65_7073_6575u64,
        0x646f_7261_6e64_6f6d,
        0x6c79_6765_6e65_7261,
        0x7465_6462_7974_6573,
    ];
    for w in words {
        v[3] ^= w;
        sip_round(&mut v);
        v[0] ^= w;
    }
    v[2] ^= 0xff;
    (0..3).for_each(|_| sip_round(&mut v));
    v[0] ^ v[1] ^ v[2] ^ v[3]
}

#[inline(always)]
fn sip_round(v: &mut [u64; 4]) {
    v[0] = v[0].wrapping_add(v[1]);
    v[1] = v[1].rotate_left(13) ^ v[0];
    v[0] = v[0].rotate_left(32);
    v[2] = v[2].wrapping_add(v[3]);
    v[3] = v[3].rotate_left(16) ^ v[2];
    v[0] = v[0].wrapping_add(v[3]);
    v[3] = v[3].rotate_left(21) ^ v[0];
    v[2] = v[2].wrapping_add(v[1]);
    v[1] = v[1].rotate_left(17) ^ v[2];
    v[2] = v[2].rotate_left(32);
}

/// Collects full per-column statistics of `table`'s live rows, using up
/// to `threads` workers (whole segments are the unit of work; small
/// tables run inline on the caller's thread).
pub fn collect_stats(table: &ColumnTable, threads: usize) -> TableStats {
    extend_stats(&TableStats::empty(table.width()), table, threads)
}

/// The statistics of `table`, given `base`: those of all its live rows
/// but the last `table.rows - base.rows` — the rows appended since. Walks
/// back over the segments to where those start, folds only them and
/// merges — exact, because no accumulator ever shrinks — so appending to
/// a table costs the appended cells, not the table's.
pub fn extend_stats(base: &TableStats, table: &ColumnTable, threads: usize) -> TableStats {
    debug_assert!(base.rows as usize <= table.rows && base.columns.len() == table.width());
    let added = table.rows - base.rows as usize;
    let (mut first, mut from, mut left) = (table.segments.len(), 0, added);
    while left > 0 {
        first -= 1;
        let seg = &table.segments[first];
        match seg.live().checked_sub(left) {
            Some(skip) => (from, left) = (seg.live_offsets().nth(skip).expect("live"), 0),
            None => left -= seg.live(),
        }
    }
    let n_segs = table.segments.len() - first;
    let workers = worker_count(added, threads, n_segs);
    let partials = run_chunks("stats_worker", n_segs, workers, |k| {
        let seg = &table.segments[first + k];
        let from = if k == 0 { from } else { 0 };
        match seg.dead() {
            None => partial(seg, from..seg.rows),
            Some(dead) => partial(seg, (from..seg.rows).filter(|&i| !dead.get(i))),
        }
    });
    merged(base, &partials, table.rows)
}

/// The statistics of the live rows at `ids` (ascending) of `table`: what
/// a delete or an update takes out or puts in, at the cost of those rows.
pub fn collect_stats_at(table: &ColumnTable, ids: &[u32], threads: usize) -> TableStats {
    let groups: Vec<&[u32]> =
        (ids.chunk_by(|a, b| a / SEGMENT_ROWS as u32 == b / SEGMENT_ROWS as u32)).collect();
    let workers = worker_count(ids.len(), threads, groups.len());
    let partials = run_chunks("stats_worker", groups.len(), workers, |k| {
        let seg = &table.segments[groups[k][0] as usize / SEGMENT_ROWS];
        partial(seg, groups[k].iter().map(|&id| id as usize % SEGMENT_ROWS))
    });
    merged(&TableStats::empty(table.width()), &partials, ids.len())
}

/// One accumulator per column over the cells of `seg` at `rows`.
fn partial(seg: &Segment, rows: impl Iterator<Item = usize> + Clone) -> Vec<ColumnStats> {
    let fold = |col| {
        let mut acc = ColumnStats::empty();
        acc.fold(col, rows.clone());
        acc
    };
    seg.columns.iter().map(fold).collect()
}

/// `base` with the per-segment `partials` merged in, in segment order —
/// which value stands for a tie at min or max does not depend on who ran
/// what — as the statistics of `rows` rows.
fn merged(base: &TableStats, partials: &[Vec<ColumnStats>], rows: usize) -> TableStats {
    let mut columns = base.columns.clone();
    for part in partials {
        for (into, from) in columns.iter_mut().zip(part) {
            into.merge(from);
        }
    }
    for c in &mut columns {
        c.ndv = c.sketch.estimate_u64();
    }
    TableStats {
        rows: rows as u64,
        columns,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::segment::SEGMENT_ROWS;
    use tpcds_types::{DataType, Row};

    fn table(rows: Vec<Row>, dtypes: Vec<DataType>) -> ColumnTable {
        ColumnTable::from_rows(dtypes, &rows)
    }

    #[test]
    fn empty_table_stats() {
        let t = table(vec![], vec![DataType::Int]);
        let s = collect_stats(&t, 4);
        assert_eq!(s.rows, 0);
        assert_eq!(s.columns.len(), 1);
        assert_eq!(s.columns[0].nulls, 0);
        assert_eq!(s.columns[0].ndv, 0);
        assert!(s.columns[0].min.is_none());
        assert!(s.columns[0].max.is_none());
    }

    #[test]
    fn all_null_column() {
        let rows: Vec<Row> = (0..100).map(|_| vec![Value::Null]).collect();
        let s = collect_stats(&table(rows, vec![DataType::Int]), 4);
        let c = &s.columns[0];
        assert_eq!(c.nulls, 100);
        assert_eq!(c.ndv, 0);
        assert!(c.min.is_none() && c.max.is_none());
        assert!(!c.hist_covers_column(s.rows));
        assert!((s.null_fraction(0) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn single_value_column() {
        let rows: Vec<Row> = (0..1_000).map(|_| vec![Value::Int(7)]).collect();
        let s = collect_stats(&table(rows, vec![DataType::Int]), 4);
        let c = &s.columns[0];
        assert_eq!(c.ndv, 1);
        assert_eq!(c.min, Some(Value::Int(7)));
        assert_eq!(c.max, Some(Value::Int(7)));
        assert!(c.hist_covers_column(s.rows));
    }

    #[test]
    fn mixed_column_stats_and_parallel_determinism() {
        // > SEGMENT_ROWS rows so the parallel path really has 2+ segments.
        let n = SEGMENT_ROWS + 5_000;
        let rows: Vec<Row> = (0..n)
            .map(|i| {
                let v = if i % 10 == 0 {
                    Value::Null
                } else {
                    Value::Int((i % 500) as i64)
                };
                vec![v, Value::str(format!("s{}", i % 37))]
            })
            .collect();
        let t = table(rows, vec![DataType::Int, DataType::Str]);
        let serial = collect_stats(&t, 1);
        let parallel = collect_stats(&t, 8);

        for s in [&serial, &parallel] {
            assert_eq!(s.rows, n as u64);
            let c0 = &s.columns[0];
            assert_eq!(c0.nulls, (n as u64).div_ceil(10));
            assert_eq!(c0.min, Some(Value::Int(1)));
            assert_eq!(c0.max, Some(Value::Int(499)));
            // 500 possible residues minus the multiples of 10 (NULLed out).
            let exact = 500 - 50;
            let rel = (c0.ndv as f64 - exact as f64).abs() / (exact as f64);
            assert!(rel < 0.05, "ndv {} vs exact {exact}", c0.ndv);
            assert!(c0.hist_covers_column(s.rows));
            let c1 = &s.columns[1];
            assert_eq!(c1.nulls, 0);
            assert!((c1.ndv as f64 - 37.0).abs() / 37.0 < 0.05, "ndv {}", c1.ndv);
            // Strings get no histogram key.
            assert!(!c1.hist_covers_column(s.rows));
        }
        // Worker count must not change the result.
        assert_eq!(serial.columns[0].ndv, parallel.columns[0].ndv);
        assert_eq!(serial.columns[0].hist.count, parallel.columns[0].hist.count);
    }

    /// Row `i`: a unique id (rows 0 and `n - 1` alone hold its extremes),
    /// a key every extreme of which many rows hold, a decimal and a unique
    /// string with NULLs, and a repeated string.
    fn row(i: usize) -> Row {
        let null_or = |null: bool, v: Value| if null { Value::Null } else { v };
        vec![
            Value::Int(i as i64),
            Value::Int((i % 10) as i64),
            null_or(i % 7 == 3, Value::Decimal(Decimal::new(i as i128 * 37, 2))),
            null_or(i % 5 == 1, Value::str(format!("s{i:06}"))),
            Value::str(format!("g{}", i % 3)),
        ]
    }

    /// Takes the rows `gone` selects out of `0..n` rows' statistics and
    /// folds `added` in; checks the result against a rebuild and returns
    /// it.
    fn retract_and_fold(n: usize, gone: impl Fn(usize) -> bool, added: &[Row]) -> TableStats {
        let table = |rows: &[Row]| {
            use DataType::{Decimal, Int, Str};
            ColumnTable::from_rows(vec![Int, Int, Decimal, Str, Str], rows)
        };
        let (removed, kept): (Vec<_>, Vec<_>) = (0..n).partition(|&i| gone(i));
        let removed: Vec<Row> = removed.into_iter().map(row).collect();
        let result: Vec<Row> = kept.into_iter().map(row).chain(added.to_vec()).collect();
        let mut stats = collect_stats(&table(&(0..n).map(row).collect::<Vec<_>>()), 2);
        stats.merge(&collect_stats(&table(added), 2));
        stats.retract(&collect_stats(&table(&removed), 2), &table(&result));

        let rebuilt = collect_stats(&table(&result), 2);
        let union = collect_stats(&table(&[result, removed].concat()), 2);
        assert_eq!(stats.rows, rebuilt.rows, "{n} rows");
        for (c, got) in stats.columns.iter().enumerate() {
            let want = &rebuilt.columns[c];
            assert_eq!(got.nulls, want.nulls, "{n} rows, column {c}: nulls");
            assert_eq!(got.min, want.min, "{n} rows, column {c}: min");
            assert_eq!(got.max, want.max, "{n} rows, column {c}: max");
            assert_eq!(got.hist, want.hist, "{n} rows, column {c}: histogram");
            assert_eq!(got.ndv, union.columns[c].ndv, "{n} rows, column {c}: ndv");
        }
        stats
    }

    #[test]
    fn retract_then_fold_equals_a_rebuild_around_the_segment_boundary() {
        for n in [SEGMENT_ROWS - 1, SEGMENT_ROWS, SEGMENT_ROWS + 1] {
            let updated = |i: usize| {
                let mut r = row(i);
                r[3] = Value::str("s5-updated");
                r
            };
            // The only holders of the id's, the decimal's and the unique
            // string's extremes: the min/max pass over the rows left.
            let s = retract_and_fold(n, |i| i == 0 || i == n - 1, &[updated(n / 2)]);
            assert_eq!(s.columns[0].min, Some(Value::Int(1)));
            // One of several rows holding the key's extremes and one of the
            // repeated strings: the search stops at the next holder.
            let s = retract_and_fold(n, |i| i == 10 || i == 19 || i == 2, &[updated(7)]);
            assert_eq!(s.columns[1].min, Some(Value::Int(0)));
            // A whole segment's worth, and an extreme the folded row holds.
            retract_and_fold(n, |i| i % 2 == 0, &[updated(0)]);
            // Everything.
            let s = retract_and_fold(n, |_| true, &[]);
            assert_eq!(s.rows, 0);
            for c in &s.columns {
                assert_eq!((c.nulls, c.hist.is_empty()), (0, true));
                assert!(c.min.is_none() && c.max.is_none());
            }
        }
    }

    #[test]
    fn ndv_hash_is_the_default_hashers() {
        let mut values = vec![Value::str("abc"), Value::Bool(true)];
        for m in [
            0i64,
            1,
            -1,
            7,
            10,
            1200,
            -4500,
            99_999_999,
            i64::MAX,
            i64::MIN,
        ] {
            values.push(Value::Int(m));
            for scale in [0u8, 1, 2, 7] {
                values.push(Value::Decimal(Decimal::new(m as i128, scale)));
                values.push(Value::Decimal(Decimal::new(
                    m as i128 * 1_000_000_007,
                    scale,
                )));
            }
        }
        values.push(Value::Decimal(Decimal::new(i128::MAX / 10 * 10, 3)));
        for v in &values {
            let mut h = DefaultHasher::new();
            v.hash(&mut h);
            assert_eq!(ndv_hash(v), h.finish(), "{v:?}");
        }
    }

    #[test]
    fn hist_key_mapping() {
        assert_eq!(hist_key(&Value::Int(42)), Some(42));
        assert_eq!(hist_key(&Value::Int(-1)), None);
        assert_eq!(hist_key(&Value::str("abc")), None);
        assert_eq!(hist_key(&Value::Null), None);
    }
}
