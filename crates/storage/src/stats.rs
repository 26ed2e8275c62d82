//! Per-column table statistics, collected in parallel over segments once
//! and from then on changed only by the rows a change touches.
//!
//! [`collect_stats`] walks a [`ColumnTable`] with the same
//! worker-count policy as the scan kernels: each worker folds one
//! contiguous run of segments into one set of per-column accumulators
//! (null count, min/max, an HLL NDV sketch, a log-bucketed value
//! histogram), and the accumulators merge in run order — so the result is
//! the same at any worker count.
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
//! native values — no boxed [`Value`] per cell, min/max compared on the
//! native type. A small direct-mapped memo of the values met answers a
//! repeated value with its histogram bucket, so it costs one compare and
//! the histogram's adds: hashing it into the sketch again could not raise
//! a register. Only a new value is hashed — numbers, dates and strings by
//! SipHash-1-3 computed over the message `Value::hash` writes — so what
//! the fold feeds the sketch is bit for bit what hashing the boxed value
//! would. A boxed column ([`ColumnData::Other`]) is folded value by value.
//!
//! The histogram only covers values with a natural non-negative integer
//! key (see [`hist_key`]); [`ColumnStats::hist_covers_column`] tells the
//! cardinality estimator whether the histogram saw every non-NULL value
//! and can therefore be trusted for range selectivity.

use crate::column::{Bitmap, Column, ColumnData};
use crate::morsel::{run_chunks, worker_count};
use crate::segment::{ColumnTable, Segment, SEGMENT_ROWS};
use std::borrow::Borrow;
use std::cmp::Ordering;
use std::collections::hash_map::DefaultHasher;
use std::hash::{Hash, Hasher};
use tpcds_obs::hist::HistSnapshot;
use tpcds_obs::ndv::NdvSketch;
use tpcds_types::{Date, Decimal, Value};

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
    /// True once a register of `sketch` rose after `ndv` was read off it:
    /// until then `ndv` is the sketch's estimate and is not read again.
    stale: bool,
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
            stale: false,
        }
    }

    /// True when every non-NULL value landed in the histogram — i.e. the
    /// histogram's sample count equals `rows - nulls`, so range
    /// selectivities read off it describe the whole column.
    pub fn hist_covers_column(&self, table_rows: u64) -> bool {
        self.hist.count > 0 && self.hist.count == table_rows - self.nulls
    }

    /// The sketch `ndv` is read off: the hash of every value folded in.
    pub fn sketch(&self) -> &NdvSketch {
        &self.sketch
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

    /// Reads `ndv` off the sketch, if a register rose since it last was.
    fn estimate(&mut self) {
        if std::mem::take(&mut self.stale) {
            self.ndv = self.sketch.estimate_u64();
        }
    }

    /// Folds `other` in; `ndv` is stale until re-read off the sketch.
    fn merge(&mut self, other: &ColumnStats) {
        self.nulls += other.nulls;
        self.stale |= self.sketch.merge(&other.sketch);
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

    /// Folds the cells at offsets `rows` of one segment's column in; the
    /// sketch too unless `sketch` is false, for rows taken out (see
    /// [`removed_stats_at`]). One loop per buffer type, over native cells.
    fn fold(&mut self, col: &Column, rows: impl Iterator<Item = usize>, sketch: bool) {
        let nulls = &col.nulls;
        let (lo, hi) = match &col.data {
            ColumnData::I64(buf) => {
                let (lo, hi) = self.fold_cells(nulls, rows, sketch, |i| buf[i]);
                (lo.map(Value::Int), hi.map(Value::Int))
            }
            ColumnData::Decimal(buf) => {
                let scale = buf.scale().unwrap_or(0);
                let cell = |i| Scaled(buf.mantissas()[i], scale);
                let (lo, hi) = self.fold_cells(nulls, rows, sketch, cell);
                let boxed = |m: Scaled| Value::Decimal(m.decimal());
                (lo.map(boxed), hi.map(boxed))
            }
            ColumnData::Date(buf) => {
                let (lo, hi) = self.fold_cells(nulls, rows, sketch, |i| buf[i]);
                (lo.map(Value::Date), hi.map(Value::Date))
            }
            ColumnData::Str(buf) => {
                let (lo, hi) = self.fold_cells(nulls, rows, sketch, |i| buf.get(i));
                (lo.map(Value::str), hi.map(Value::str))
            }
            ColumnData::Other(buf) => return self.fold_values(nulls, rows, sketch, |i| &buf[i]),
        };
        self.cover(lo.as_ref(), hi.as_ref());
    }

    /// Counts NULLs and feeds every other cell at `rows`, `cell(i)`, to the
    /// sketch (when `sketch` is set) and the histogram; returns the least
    /// and greatest cell. A [`Memo`] of the cells met so far answers a
    /// repeated cell with its histogram bucket: it was hashed into the
    /// sketch and compared with the extremes when first met, and hashing
    /// it again could not raise a register, so only a new cell is hashed,
    /// given a bucket and compared. The memo is asked while it answers a
    /// quarter of the cells of each [`Memo::PROBE`] rows; past that the
    /// fold meets every cell as new, which costs the lookups less.
    fn fold_cells<K: Native>(
        &mut self,
        nulls: &Bitmap,
        mut rows: impl Iterator<Item = usize>,
        sketch: bool,
        cell: impl Fn(usize) -> K,
    ) -> (Option<K>, Option<K>) {
        let mut memo = Memo::sized(rows.size_hint().1.unwrap_or(SEGMENT_ROWS));
        let mut extremes = (None, None);
        loop {
            let run = rows.by_ref().take(Memo::<K>::PROBE);
            let (met, hits) =
                self.fold_run(nulls, run, sketch, &cell, Some(&mut memo), &mut extremes);
            if met < Memo::<K>::PROBE {
                return extremes;
            }
            if hits < met / 4 {
                self.fold_run(nulls, rows, sketch, &cell, None, &mut extremes);
                return extremes;
            }
        }
    }

    /// [`ColumnStats::fold_cells`] over `rows`, asking `memo` when there
    /// is one and widening `extremes`; returns the rows met and how many
    /// the memo answered.
    #[inline(always)]
    fn fold_run<K: Native>(
        &mut self,
        nulls: &Bitmap,
        rows: impl Iterator<Item = usize>,
        sketch: bool,
        cell: impl Fn(usize) -> K,
        mut memo: Option<&mut Memo<K>>,
        (lo, hi): &mut (Option<K>, Option<K>),
    ) -> (usize, usize) {
        let buckets = tpcds_obs::hist::buckets();
        let (mut met, mut hits) = (0, 0);
        for i in rows {
            met += 1;
            if nulls.get(i) {
                self.nulls += 1;
                continue;
            }
            let x = cell(i);
            let at = memo.as_ref().map_or(0, |memo| memo.slot(x.word()));
            if let Some(seen) = memo.as_ref().and_then(|m| m.slots.get(at)) {
                if seen.cell == x {
                    if seen.bucket != NO_BUCKET {
                        self.hist.record_in(seen.bucket as usize, seen.key);
                    }
                    hits += 1;
                    continue;
                }
            }
            if sketch {
                self.stale |= self.sketch.insert_hash(x.ndv_hash());
            }
            let key = x.hist_key();
            let bucket = key.map_or(NO_BUCKET, |k| buckets.index(k) as u32);
            if let Some(k) = key {
                self.hist.record_in(bucket as usize, k);
            }
            if lo.is_none_or(|m| x < m) {
                *lo = Some(x);
            }
            if hi.is_none_or(|m| x > m) {
                *hi = Some(x);
            }
            if let Some(memo) = memo.as_mut() {
                let seen = Seen {
                    cell: x,
                    bucket,
                    key: key.unwrap_or(0),
                };
                memo.remember(at, seen);
            }
        }
        (met, hits)
    }

    /// Folds boxed cells `cell(i)` at `rows`: each non-NULL value's
    /// [`ndv_hash`] into the sketch (when `sketch` is set), its
    /// [`hist_key`] into the histogram and its place among the extremes.
    fn fold_values<V: Borrow<Value>>(
        &mut self,
        nulls: &Bitmap,
        rows: impl Iterator<Item = usize>,
        sketch: bool,
        cell: impl Fn(usize) -> V,
    ) {
        for i in rows {
            if nulls.get(i) {
                self.nulls += 1;
                continue;
            }
            let v = cell(i);
            let v = v.borrow();
            if sketch {
                self.stale |= self.sketch.insert_hash(ndv_hash(v));
            }
            if let Some(k) = hist_key(v) {
                self.hist.record(k);
            }
            self.cover(Some(v), Some(v));
        }
    }

    /// The fold before it was typed, kept as the oracle of [`ColumnStats::fold`]:
    /// every cell boxed and folded as a [`ColumnData::Other`] cell is.
    #[cfg(test)]
    fn fold_boxed(&mut self, col: &Column, rows: impl Iterator<Item = usize>, sketch: bool) {
        self.fold_values(&col.nulls, rows, sketch, |i| col.value_at(i));
    }

    /// Widens min/max over the non-NULL cells of `col` at `rows`, compared
    /// on the native type — which agrees with [`Value::sort_cmp`] within
    /// one buffer variant — so only the two winners are boxed.
    fn cover_column(&mut self, col: &Column, rows: impl Iterator<Item = usize>) {
        fn extremes<'b, T: Ord + ?Sized + 'b, V>(
            cells: impl Iterator<Item = usize>,
            cell: impl Fn(usize) -> &'b T,
            boxed: impl Fn(&'b T) -> V,
        ) -> (Option<V>, Option<V>) {
            let (mut lo, mut hi): (Option<&T>, Option<&T>) = (None, None);
            for x in cells.map(cell) {
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
            ColumnData::I64(buf) => extremes(cells, |i| &buf[i], |x| Value::Int(*x)),
            // One scale: the mantissas order as the numbers do.
            ColumnData::Decimal(buf) => extremes(
                cells,
                |i| &buf.mantissas()[i],
                |m| Value::Decimal(Decimal::new(*m as i128, buf.scale().unwrap_or(0))),
            ),
            ColumnData::Date(buf) => extremes(cells, |i| &buf[i], |x| Value::Date(*x)),
            ColumnData::Str(buf) => extremes(cells, |i| buf.get(i), Value::str),
            ColumnData::Other(buf) => {
                cells.for_each(|i| self.cover(Some(&buf[i]), Some(&buf[i])));
                return;
            }
        };
        self.cover(lo.as_ref(), hi.as_ref());
    }
}

/// A cell of a typed buffer as [`ColumnStats::fold`] reads it: ordered as
/// its [`Value`] is, with the word that places it in a [`Memo`], the
/// [`ndv_hash`] and the [`hist_key`] of that value.
trait Native: Copy + Ord {
    /// Spread over a memo's slots by a multiplicative hash.
    fn word(self) -> u64;
    /// [`ndv_hash`] of the cell's value.
    fn ndv_hash(self) -> u64;
    /// [`hist_key`] of the cell's value.
    fn hist_key(self) -> Option<u64>;
}

impl Native for i64 {
    fn word(self) -> u64 {
        self as u64
    }
    fn ndv_hash(self) -> u64 {
        number_hash(Decimal::from_int(self))
    }
    fn hist_key(self) -> Option<u64> {
        u64::try_from(self).ok()
    }
}

/// A decimal cell: its mantissa at its column's scale, so cells of one
/// column order by mantissa.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
struct Scaled(i64, u8);

impl Scaled {
    fn decimal(self) -> Decimal {
        Decimal::new(self.0 as i128, self.1)
    }
}

impl Native for Scaled {
    fn word(self) -> u64 {
        self.0 as u64
    }
    /// Normalized in 64-bit arithmetic, as [`Decimal::normalize`] does a
    /// mantissa that fits.
    fn ndv_hash(self) -> u64 {
        let Scaled(mut m, mut scale) = self;
        while scale > 0 && m % 10 == 0 {
            m /= 10;
            scale -= 1;
        }
        number_hash(Decimal::new(m as i128, scale))
    }
    /// [`Decimal::to_f64`]'s quotient, the power of ten read off a table.
    fn hist_key(self) -> Option<u64> {
        let Scaled(m, scale) = self;
        match POW10_F64.get(scale as usize) {
            Some(pow) if m >= 0 => Some((m as f64 / pow) as u64),
            Some(_) => None,
            None => decimal_key(&self.decimal()),
        }
    }
}

/// `10^s` for the scales whose power of ten [`Decimal::to_f64`] divides
/// by as an `i64` converted to `f64` (exactly: every power up to `10^18`
/// is an `f64`).
const POW10_F64: [f64; 19] = {
    let mut table = [1.0; 19];
    let mut s = 1;
    while s < 19 {
        table[s] = table[s - 1] * 10.0;
        s += 1;
    }
    table
};

impl Native for Date {
    fn word(self) -> u64 {
        self.day_number() as u64
    }
    fn ndv_hash(self) -> u64 {
        date_hash(self)
    }
    fn hist_key(self) -> Option<u64> {
        u64::try_from(self.date_sk()).ok()
    }
}

impl Native for &str {
    /// The length and the first and last eight bytes: enough to part the
    /// generated strings (keys differ at the end, words at the start).
    fn word(self) -> u64 {
        let b = self.as_bytes();
        let (head, tail) = match b.len() {
            n if n >= 8 => (le_word(&b[..8]), le_word(&b[n - 8..])),
            _ => (le_word(b), 0),
        };
        head ^ tail.rotate_left(29) ^ b.len() as u64
    }
    fn ndv_hash(self) -> u64 {
        str_hash(self)
    }
    fn hist_key(self) -> Option<u64> {
        None
    }
}

/// Up to eight bytes as a little-endian word, zero-padded: two
/// overlapping loads where there are four or more, since a copy of a
/// length known only at run time is a library call.
#[inline]
fn le_word(b: &[u8]) -> u64 {
    let n = b.len();
    let u32_at = |i: usize| u32::from_le_bytes([b[i], b[i + 1], b[i + 2], b[i + 3]]) as u64;
    match n {
        8.. => u64::from_le_bytes(b[..8].try_into().expect("eight bytes")),
        4..=7 => u32_at(0) | u32_at(n - 4) << (8 * (n - 4)),
        _ => b.iter().rev().fold(0, |w, &x| w << 8 | x as u64),
    }
}

/// [`Seen::bucket`] of a cell with no histogram key.
const NO_BUCKET: u32 = u32::MAX;

/// What a [`Memo`] slot remembers of a cell: the cell, its histogram
/// bucket and key.
#[derive(Clone, Copy)]
struct Seen<K> {
    cell: K,
    bucket: u32,
    key: u64,
}

/// A direct-mapped memo of the cells one fold has met: slot
/// `word · φ >> shift` holds the last cell met there. Empty until the
/// first cell, which then fills every slot, so a slot always holds a cell
/// the fold has met. Sized from the rows folded: a 94-row update gets 128
/// slots, a segment [`Memo::MAX_SLOTS`].
struct Memo<K> {
    slots: Vec<Seen<K>>,
    len: usize,
    shift: u32,
}

impl<K: Copy> Memo<K> {
    /// Slots for a segment: as many as the distinct values of most
    /// generated columns, and a cache-sized array.
    const MAX_SLOTS: usize = 4096;

    /// Rows over which the memo must answer a quarter of the cells to be
    /// asked on.
    const PROBE: usize = 4096;

    /// An empty memo for a fold of up to `rows` cells.
    fn sized(rows: usize) -> Memo<K> {
        let len = rows.next_power_of_two().clamp(16, Self::MAX_SLOTS);
        Memo {
            slots: Vec::new(),
            len,
            shift: 64 - len.trailing_zeros(),
        }
    }

    /// The slot of a cell whose word is `word`.
    #[inline]
    fn slot(&self, word: u64) -> usize {
        (word.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> self.shift) as usize
    }

    /// Remembers `seen` at slot `at`; the first cell fills every slot.
    #[inline]
    fn remember(&mut self, at: usize, seen: Seen<K>) {
        match self.slots.is_empty() {
            true => self.slots = vec![seen; self.len],
            false => self.slots[at] = seen,
        }
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
        (ColumnData::Decimal(buf), Value::Decimal(x)) => match buf.mantissa_of(x) {
            Some(m) => cells.any(|i| buf.mantissas()[i] == m),
            None => false,
        },
        (ColumnData::Date(buf), Value::Date(x)) => cells.any(|i| buf[i] == *x),
        (ColumnData::Str(buf), Value::Str(x)) => cells.any(|i| buf.get(i) == &**x),
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
            into.estimate();
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
        Value::Decimal(d) => decimal_key(d),
        Value::Date(d) => u64::try_from(d.date_sk()).ok(),
        _ => None,
    }
}

/// [`hist_key`] of a decimal.
fn decimal_key(d: &Decimal) -> Option<u64> {
    let f = d.to_f64();
    (f.is_finite() && f >= 0.0).then_some(f as u64)
}

/// What the NDV sketch is fed for `v`: `DefaultHasher`'s digest of
/// [`Value::hash`] (SipHash-1-3 under the zero key), so an estimate does
/// not depend on how a cell reached the sketch. The streaming hasher
/// spends several times more on buffering short writes than on the
/// mixing rounds, so the messages of numbers, dates and strings — every
/// cell of a generated table — are hashed directly ([`number_hash`],
/// [`date_hash`], [`str_hash`]); `tests::ndv_hash_is_the_default_hashers`
/// holds them to the hasher.
fn ndv_hash(v: &Value) -> u64 {
    match v {
        Value::Int(x) => number_hash(Decimal::from_int(*x)),
        Value::Decimal(d) => number_hash(d.normalize()),
        _ => {
            let mut h = DefaultHasher::new();
            v.hash(&mut h);
            h.finish()
        }
    }
}

/// The hash of a number, `d` normalized: one fixed 18-byte message (tag,
/// mantissa, scale).
fn number_hash(d: Decimal) -> u64 {
    // The message in 64-bit little-endian words, as the hasher reads it:
    // tag and mantissa bytes 0..7, mantissa bytes 7..15, then mantissa
    // byte 15, the scale, and the message length in the top byte.
    let m = u128::from_le_bytes(d.mantissa().to_ne_bytes());
    sip13([
        2 | (m as u64) << 8,
        (m >> 56) as u64,
        (m >> 120) as u64 | (d.scale() as u64) << 8 | 18 << 56,
    ])
}

/// The hash of a date: the 5-byte message of tag 3 and the day number.
fn date_hash(d: Date) -> u64 {
    sip13([3 | (d.day_number() as u32 as u64) << 8 | 5 << 56])
}

/// The hash of a string: the message of tag 5, the bytes and `0xff`,
/// read eight message bytes at a time.
fn str_hash(s: &str) -> u64 {
    let (b, n) = (s.as_bytes(), s.len());
    let len = n + 2;
    // Message bytes `p..p + 8` (fewer at the end): the tag at 0, string
    // byte `j` at `j + 1`, 0xff at `n + 1`.
    let word = |p: usize| {
        let end = (p + 8).min(len);
        let (from, to) = (p.max(1), end.min(n + 1));
        let mut w = match from < to {
            true => le_word(&b[from - 1..to - 1]) << (8 * (from - p)),
            false => 0,
        };
        if p == 0 {
            w |= 5;
        }
        if (p..end).contains(&(n + 1)) {
            w |= 0xff << (8 * (n + 1 - p));
        }
        w
    };
    let whole = len / 8;
    sip13(
        (0..whole)
            .map(|k| word(8 * k))
            .chain([word(8 * whole) | (len as u64) << 56]),
    )
}

/// SipHash-1-3 under the zero key of a message given as its 64-bit words,
/// the last holding the message's tail bytes and its length in the top
/// byte.
fn sip13(words: impl IntoIterator<Item = u64>) -> u64 {
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

/// `stats` with each column's `ndv` read off its sketch: done where
/// statistics are published, not for the deltas a change moves.
fn estimated(mut stats: TableStats) -> TableStats {
    stats.columns.iter_mut().for_each(ColumnStats::estimate);
    stats
}

/// Collects full per-column statistics of `table`'s live rows, using up
/// to `threads` workers (whole segments are the unit of work; small
/// tables run inline on the caller's thread).
pub fn collect_stats(table: &ColumnTable, threads: usize) -> TableStats {
    extend_stats(&TableStats::empty(table.width()), table, threads)
}

/// The statistics of `table`, given `base`: those of all its live rows
/// but the last `table.rows - base.rows` — the rows appended since. Walks
/// back over the segments to where those start and folds only them into a
/// copy of `base` — exact, because no accumulator ever shrinks — so
/// appending to a table costs the appended cells, not the table's.
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
    estimated(fold_runs(base, table.rows, n_segs, workers, |k, acc| {
        fold_live(
            acc,
            &table.segments[first + k],
            if k == 0 { from } else { 0 },
        )
    }))
}

/// The statistics of `seg`'s live rows: one segment's share of
/// [`collect_stats`], for a caller that schedules the segments itself
/// (the bulk load folds each in the task that built it).
pub fn segment_stats(seg: &Segment) -> TableStats {
    let mut columns = vec![ColumnStats::empty(); seg.columns.len()];
    fold_live(&mut columns, seg, 0);
    TableStats {
        rows: seg.live() as u64,
        columns,
    }
}

/// The statistics of a `width`-column table whose segments'
/// [`segment_stats`] are `parts`, in segment order: equal to
/// [`collect_stats`] of the table, whoever folded which part.
pub fn merge_segment_stats(width: usize, parts: &[TableStats]) -> TableStats {
    let rows = parts.iter().map(|p| p.rows as usize).sum();
    let columns = parts.iter().map(|p| p.columns.as_slice());
    estimated(merged(vec![ColumnStats::empty(); width], columns, rows))
}

/// The statistics of the live rows at `ids` (ascending) of `table`: what
/// an update puts in, at the cost of those rows. No `ndv` is read off
/// them: [`TableStats::merge`] estimates once it has folded them in.
pub fn collect_stats_at(table: &ColumnTable, ids: &[u32], threads: usize) -> TableStats {
    stats_at(table, ids, threads, true)
}

/// [`collect_stats_at`] of rows a delete or an update takes out: their
/// NULLs, histogram and extremes, which is all [`TableStats::retract`]
/// reads — their cells are not hashed, as no sketch can lose them.
pub fn removed_stats_at(table: &ColumnTable, ids: &[u32], threads: usize) -> TableStats {
    stats_at(table, ids, threads, false)
}

fn stats_at(table: &ColumnTable, ids: &[u32], threads: usize, sketch: bool) -> TableStats {
    let groups: Vec<&[u32]> =
        (ids.chunk_by(|a, b| a / SEGMENT_ROWS as u32 == b / SEGMENT_ROWS as u32)).collect();
    let workers = worker_count(ids.len(), threads, groups.len());
    let empty = TableStats::empty(table.width());
    fold_runs(&empty, ids.len(), groups.len(), workers, |k, acc| {
        let seg = &table.segments[groups[k][0] as usize / SEGMENT_ROWS];
        let rows = groups[k].iter().map(|&id| id as usize % SEGMENT_ROWS);
        fold_at(acc, seg, rows, sketch)
    })
}

/// `base` with the parts `0..n` folded in by `fold`, as the statistics of
/// `rows` rows. Each of `workers` workers folds one contiguous run of
/// parts into one accumulator — the first worker into a copy of `base` —
/// and the accumulators merge in run order: parts fold in order whatever
/// the worker count, so which value stands for a tie at min or max does
/// not depend on it.
fn fold_runs(
    base: &TableStats,
    rows: usize,
    n: usize,
    workers: usize,
    fold: impl Fn(usize, &mut [ColumnStats]) + Sync,
) -> TableStats {
    let mut accs = run_chunks(workers, workers, |w| {
        let mut acc = match w {
            0 => base.columns.clone(),
            _ => vec![ColumnStats::empty(); base.columns.len()],
        };
        (n * w / workers..n * (w + 1) / workers).for_each(|k| fold(k, &mut acc));
        acc
    });
    let first = accs.remove(0);
    merged(first, accs.iter().map(Vec::as_slice), rows)
}

/// Folds the cells of `seg` at offsets `rows` into `acc`, column by
/// column; into the sketches too when `sketch` is set.
fn fold_at(
    acc: &mut [ColumnStats],
    seg: &Segment,
    rows: impl Iterator<Item = usize> + Clone,
    sketch: bool,
) {
    for (acc, col) in acc.iter_mut().zip(seg.columns.iter()) {
        acc.fold(col, rows.clone(), sketch);
    }
}

/// [`fold_at`] over `seg`'s live rows from offset `from` on.
fn fold_live(acc: &mut [ColumnStats], seg: &Segment, from: usize) {
    match seg.dead() {
        None => fold_at(acc, seg, from..seg.rows, true),
        Some(dead) => fold_at(acc, seg, (from..seg.rows).filter(|&i| !dead.get(i)), true),
    }
}

/// `columns` with the `partials` merged in, in order, as the statistics
/// of `rows` rows; each `ndv` is left as `columns` had it.
fn merged<'a>(
    mut columns: Vec<ColumnStats>,
    partials: impl IntoIterator<Item = &'a [ColumnStats]>,
    rows: usize,
) -> TableStats {
    for part in partials {
        for (into, from) in columns.iter_mut().zip(part) {
            into.merge(from);
        }
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

    #[test]
    fn segment_parts_merge_to_the_table_stats() {
        use DataType::{Decimal, Int, Str};
        let rows: Vec<Row> = (0..2 * SEGMENT_ROWS + 300).map(row).collect();
        let t = ColumnTable::from_rows(vec![Int, Int, Decimal, Str, Str], &rows);
        let parts: Vec<TableStats> = t.segments.iter().map(|s| segment_stats(s)).collect();
        let (got, want) = (merge_segment_stats(t.width(), &parts), collect_stats(&t, 2));
        assert_eq!(got.rows, want.rows);
        for (c, (got, want)) in got.columns.iter().zip(&want.columns).enumerate() {
            assert_eq!(got.nulls, want.nulls, "column {c}: nulls");
            assert_eq!(got.min, want.min, "column {c}: min");
            assert_eq!(got.max, want.max, "column {c}: max");
            assert_eq!(got.ndv, want.ndv, "column {c}: ndv");
            assert_eq!(got.hist, want.hist, "column {c}: histogram");
        }
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
    fn statistics_do_not_depend_on_the_worker_count() {
        use crate::ColumnData;
        // Column 1 is boxed in every segment by an integer at offset 3, and
        // its min, 1, ties across segments: 1.0 in the first, 1.00 in the
        // second, an integer after. The first segment's must stand.
        let one = |seg: usize| match seg {
            0 => Value::Decimal(Decimal::new(10, 1)),
            1 => Value::Decimal(Decimal::new(100, 2)),
            _ => Value::Int(1),
        };
        let row = |i: usize| -> Row {
            let boxed = match i % SEGMENT_ROWS {
                3 => Value::Int(50),
                7 => one(i / SEGMENT_ROWS),
                _ => Value::Decimal(Decimal::new(200 + (i % 1_000) as i128, 2)),
            };
            let name = match i % 13 {
                0 => Value::Null,
                _ => Value::str(format!("s{}", i % 301)),
            };
            vec![Value::Int(i as i64), boxed, name]
        };
        let n = 3 * SEGMENT_ROWS + 500;
        let rows: Vec<Row> = (0..n).map(row).collect();
        let dtypes = vec![DataType::Int, DataType::Decimal, DataType::Str];
        let t = table(rows.clone(), dtypes.clone());
        assert!(t
            .segments
            .iter()
            .all(|s| matches!(s.columns[1].data, ColumnData::Other(_))));
        let at: Vec<u32> = (0..n as u32)
            .filter(|i| i % 3 == 1 || i % SEGMENT_ROWS as u32 == 7)
            .collect();
        let base = collect_stats(&table(rows[..30_000].to_vec(), dtypes), 1);
        let stats = |workers| {
            let (at, grown) = (
                collect_stats_at(&t, &at, workers),
                extend_stats(&base, &t, workers),
            );
            for s in [&at, &grown] {
                assert_eq!(
                    format!("{:?}", s.columns[1].min),
                    format!("{:?}", Some(one(0)))
                );
            }
            (format!("{at:?}"), format!("{grown:?}"))
        };
        let one_worker = stats(1);
        for workers in [2, 8] {
            assert!(stats(workers) == one_worker, "{workers} workers");
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
        let digest = |v: &Value| {
            let mut h = DefaultHasher::new();
            v.hash(&mut h);
            h.finish()
        };
        for v in &values {
            assert_eq!(ndv_hash(v), digest(v), "{v:?}");
        }
        // Dates and strings the typed fold hashes directly: every length
        // across three words, multi-byte characters cut at any offset.
        for day in [i32::MIN, -1, 0, 1, 36_524, 2_450_000, i32::MAX] {
            let d = Date::from_day_number(day);
            assert_eq!(date_hash(d), digest(&Value::Date(d)), "{d:?}");
        }
        let text = "AAAAAAAAAAAAABCDé日本語 of the ÿ item, 0123456789 ".repeat(3);
        let cuts = text.char_indices().map(|(i, _)| i);
        for (start, end) in cuts.clone().flat_map(|a| cuts.clone().map(move |b| (a, b))) {
            if start <= end && end - start <= 40 {
                let s = &text[start..end];
                assert_eq!(str_hash(s), digest(&Value::str(s)), "{s:?}");
            }
        }
    }

    /// Column `c` of a segment of `n` rows: ints, decimals, dates and
    /// strings, each at a low and a high NDV, with NULLs; the repeated
    /// strings alike in length and in their first and last eight bytes.
    fn typed_column(c: usize, n: usize) -> (DataType, Vec<Value>) {
        let cell = |i: usize| -> Value {
            let (k, low) = ((i * 7_919) % n.max(1), (i * 31) % 211);
            match c {
                0 => Value::Int(low as i64 * 37 - 500),
                1 => Value::Int((k * 1_000_003) as i64 - 5),
                2 => Value::Decimal(Decimal::new(low as i128 * 25 - 300, 2)),
                3 => Value::Decimal(Decimal::new(k as i128 * 101 - 40_000, 2)),
                4 => Value::Date(Date::from_day_number(36_000 + 3 * low as i32)),
                5 => Value::Date(Date::from_day_number(k as i32 - 100)),
                6 => match low % 5 {
                    0 => Value::str(["Y", "N", "", "Unknown"][i % 4]),
                    _ => Value::str(format!("AAAAAAAA{low:04}é日ZZZZZZZZ")),
                },
                _ => Value::str(format!("s{k:07}é{}", "x".repeat(k % 11))),
            }
        };
        let dtype = match c {
            0 | 1 => DataType::Int,
            2 | 3 => DataType::Decimal,
            4 | 5 => DataType::Date,
            _ => DataType::Str,
        };
        let values = (0..n).map(|i| if i % 9 == 4 { Value::Null } else { cell(i) });
        (dtype, values.collect())
    }

    fn same(got: &ColumnStats, want: &ColumnStats, what: &str) {
        assert_eq!(got.nulls, want.nulls, "{what}: nulls");
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
        assert_eq!(got.hist, want.hist, "{what}: histogram");
        assert!(got.sketch == want.sketch, "{what}: sketch registers");
        assert_eq!(got.stale, want.stale, "{what}: stale");
    }

    #[test]
    fn typed_fold_equals_the_boxed_fold() {
        for n in [1, 94, 5_000, SEGMENT_ROWS] {
            for c in 0..8 {
                let (dtype, values) = typed_column(c, n);
                let mut col = Column::for_type(dtype);
                values.iter().for_each(|v| col.push(v));
                assert!(!matches!(col.data, ColumnData::Other(_)), "column {c}");
                // From empty accumulators and from ones already holding
                // cells; every row, a masked subset, and rows at ids.
                let mut held = ColumnStats::empty();
                held.fold_boxed(&col, (0..n).step_by(5), true);
                let live = |i: &usize| i % 3 != 1;
                for (start, sketch) in [(ColumnStats::empty(), true), (held, true)] {
                    for (rows, name) in [
                        ((0..n).collect::<Vec<_>>(), "all"),
                        ((0..n).filter(live).collect(), "masked"),
                        ((0..n).rev().step_by(17).collect(), "at"),
                    ] {
                        for sketch in [sketch, false] {
                            let (mut got, mut want) = (start.clone(), start.clone());
                            got.fold(&col, rows.iter().copied(), sketch);
                            want.fold_boxed(&col, rows.iter().copied(), sketch);
                            same(
                                &got,
                                &want,
                                &format!("{n} rows, column {c}, {name}, {sketch}"),
                            );
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn memo_slots_follow_the_rows_folded() {
        assert_eq!(Memo::<i64>::sized(94).len, 128);
        assert_eq!(Memo::<i64>::sized(1).len, 16);
        assert_eq!(Memo::<i64>::sized(SEGMENT_ROWS).len, Memo::<i64>::MAX_SLOTS);
        let memo = Memo::<i64>::sized(94);
        assert!((0..1_000).all(|w| memo.slot(w) < 128));
    }

    #[test]
    fn hist_key_mapping() {
        assert_eq!(hist_key(&Value::Int(42)), Some(42));
        assert_eq!(hist_key(&Value::Int(-1)), None);
        assert_eq!(hist_key(&Value::str("abc")), None);
        assert_eq!(hist_key(&Value::Null), None);
    }
}
