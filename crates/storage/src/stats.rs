//! Per-column table statistics, collected in parallel over segments and
//! extended — not recollected — when rows are appended.
//!
//! [`collect_stats`] walks a [`ColumnTable`] with the same
//! worker-count policy as the scan kernels: workers claim whole segments
//! off a shared cursor and fold per-column accumulators (null count,
//! min/max, an HLL NDV sketch, a log-bucketed value histogram); the
//! partials merge commutatively, in segment order — so the result is
//! deterministic regardless of worker count or claim order. Every accumulator only ever grows, and [`ColumnStats`] keeps
//! its sketch, so published statistics merge too: [`extend_stats`] folds
//! just the rows past the ones already counted.
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
use crate::segment::{ColumnTable, SEGMENT_ROWS};
use std::cmp::Ordering;
use std::collections::hash_map::DefaultHasher;
use std::hash::{Hash, Hasher};
use std::ops::Range;
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

    /// Folds rows `rows` of one segment's column in.
    fn fold(&mut self, col: &Column, rows: Range<usize>) {
        let nulls = &col.nulls;
        match &col.data {
            ColumnData::I64(buf) => self.fold_typed(buf, nulls, rows, |x| Value::Int(*x)),
            ColumnData::Decimal(buf) => self.fold_typed(buf, nulls, rows, |x| Value::Decimal(*x)),
            ColumnData::Date(buf) => self.fold_typed(buf, nulls, rows, |x| Value::Date(*x)),
            ColumnData::Str(buf) => {
                let (lo, hi) = self.fold_cells(buf, nulls, rows, |s| {
                    let mut h = DefaultHasher::new();
                    Value::hash_str(s, &mut h);
                    (h.finish(), None)
                });
                let boxed = |s: &Arc<str>| Value::Str(Arc::clone(s));
                self.cover(lo.map(boxed).as_ref(), hi.map(boxed).as_ref());
            }
            ColumnData::Other(buf) => {
                for v in buf[rows].iter() {
                    if v.is_null() {
                        self.nulls += 1;
                        continue;
                    }
                    self.sketch.insert_hash(ndv_hash(v));
                    hist_key(v).into_iter().for_each(|k| self.hist.record(k));
                    self.cover(Some(v), Some(v));
                }
            }
        }
    }

    /// [`fold_cells`](Self::fold_cells) for buffers whose values box for
    /// free (`Copy` payloads): hash and histogram key come off the boxed
    /// value itself.
    fn fold_typed<T: Ord>(
        &mut self,
        buf: &[T],
        nulls: &Bitmap,
        rows: Range<usize>,
        boxed: impl Fn(&T) -> Value,
    ) {
        let (lo, hi) = self.fold_cells(buf, nulls, rows, |x| {
            let v = boxed(x);
            (ndv_hash(&v), hist_key(&v))
        });
        self.cover(lo.map(&boxed).as_ref(), hi.map(&boxed).as_ref());
    }

    /// Counts NULLs and feeds every other cell of `buf[rows]` to the
    /// sketch and the histogram: `observe` returns the cell's
    /// [`ndv_hash`] and its histogram key. Returns the smallest and
    /// largest cell (first seen among equals), compared on the native
    /// type — which agrees with [`Value::sort_cmp`] within one buffer
    /// variant.
    fn fold_cells<'b, T: Ord>(
        &mut self,
        buf: &'b [T],
        nulls: &Bitmap,
        rows: Range<usize>,
        observe: impl Fn(&T) -> (u64, Option<u64>),
    ) -> (Option<&'b T>, Option<&'b T>) {
        let (mut lo, mut hi) = (None, None);
        for i in rows {
            if nulls.get(i) {
                self.nulls += 1;
                continue;
            }
            let x = &buf[i];
            let (hash, key) = observe(x);
            self.sketch.insert_hash(hash);
            if let Some(k) = key {
                self.hist.record(k);
            }
            if lo.is_none_or(|m| x < m) {
                lo = Some(x);
            }
            if hi.is_none_or(|m| x > m) {
                hi = Some(x);
            }
        }
        (lo, hi)
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

/// Collects full per-column statistics for `table`, using up to
/// `threads` workers (whole segments are the unit of work; small tables
/// run inline on the caller's thread).
pub fn collect_stats(table: &ColumnTable, threads: usize) -> TableStats {
    let none = TableStats {
        rows: 0,
        columns: vec![ColumnStats::empty(); table.width()],
    };
    extend_stats(&none, table, threads)
}

/// The statistics of `table`, given `base`: those of its first
/// `base.rows` rows. Folds only the rows past them and merges — exact,
/// because no accumulator ever shrinks — so appending to a table costs
/// the appended cells, not the table's.
pub fn extend_stats(base: &TableStats, table: &ColumnTable, threads: usize) -> TableStats {
    let from = base.rows as usize;
    debug_assert!(from <= table.rows && base.columns.len() == table.width());
    let first = from / SEGMENT_ROWS;
    let n_segs = table.segments.len().saturating_sub(first);
    let workers = worker_count(table.rows - from, threads, n_segs);
    // One partial per segment, merged in segment order: which value
    // stands for a tie at min or max does not depend on who ran what.
    let partials = run_chunks("stats_worker", n_segs, workers, |k| {
        let seg = &table.segments[first + k];
        let rows = from.saturating_sub((first + k) * SEGMENT_ROWS)..seg.rows;
        let mut accs = vec![ColumnStats::empty(); table.width()];
        for (acc, col) in accs.iter_mut().zip(&seg.columns) {
            acc.fold(col, rows.clone());
        }
        accs
    });
    let mut columns = base.columns.clone();
    for part in &partials {
        for (into, from) in columns.iter_mut().zip(part) {
            into.merge(from);
        }
    }
    for c in &mut columns {
        c.ndv = c.sketch.estimate_u64();
    }
    TableStats {
        rows: table.rows as u64,
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
