//! Typed column vectors with a word-packed null bitmap.
//!
//! A [`Column`] stores one attribute of one segment. The common TPC-DS
//! types get dense native buffers (`i64`, a [`DecBuf`] for decimals,
//! [`Date`], and a [`StrBuf`] for strings); anything else — or a column
//! whose values turn out not to match the declared type, which the
//! dynamically-typed engine permits — falls back to a boxed [`Value`]
//! buffer ([`ColumnData::Other`]). NULLs are recorded in the bitmap and
//! occupy a default slot in the typed buffer (mantissa 0 in a [`DecBuf`],
//! an empty string in a [`StrBuf`]), so kernels can iterate the native
//! vector without branching on an enum per row.
//!
//! A decimal column is one `i64` mantissa per cell at one scale: the scale
//! of its first non-NULL cell. Every money column of the generated data
//! has one (`decimal(7,2)` cells are cents), so a cell takes 8 bytes, not
//! the 32 of a [`Decimal`]. A cell of another scale, or a mantissa outside
//! `i64`, boxes the column into [`ColumnData::Other`] without loss;
//! [`DecBuf::get`] rebuilds each cell's [`Decimal`] at the column's scale,
//! so `1.50` renders as `1.50` and `1.5` as `1.5`.
//!
//! A string column is one UTF-8 byte buffer plus one `u32` end offset per
//! cell, not a pointer per cell: copying, patching, gathering or dropping
//! it is a byte copy or one free, never a refcount per cell. Kernels read
//! cells as borrowed `&str` ([`StrBuf::get`]); [`Column::value_at`] builds
//! an owned [`Value::Str`] and is for the result edge and the row
//! interpreter. A column whose bytes would pass `u32::MAX` boxes into
//! [`ColumnData::Other`], as a value of another type does.

use std::ops::{Index, Range};
use tpcds_types::{DataType, Date, Decimal, Value};

/// A word-packed bitmap; bit `i` set marks row `i` — NULL in a column's
/// bitmap, dead in a segment's mask.
#[derive(Clone, Debug, Default)]
pub struct Bitmap {
    words: Vec<u64>,
    len: usize,
    set: usize,
}

impl Bitmap {
    /// An empty bitmap.
    pub fn new() -> Self {
        Bitmap::default()
    }

    /// `len` clear bits.
    pub(crate) fn zeros(len: usize) -> Self {
        Bitmap {
            words: vec![0; len.div_ceil(64)],
            len,
            set: 0,
        }
    }

    /// Sets bit `i`, which must be clear.
    pub(crate) fn set(&mut self, i: usize) {
        debug_assert!(i < self.len && !self.get(i));
        self.words[i / 64] |= 1u64 << (i % 64);
        self.set += 1;
    }

    /// Appends one bit.
    pub fn push(&mut self, bit: bool) {
        let word = self.len / 64;
        if word == self.words.len() {
            self.words.push(0);
        }
        if bit {
            self.words[word] |= 1u64 << (self.len % 64);
            self.set += 1;
        }
        self.len += 1;
    }

    /// Appends bits `range` of `src`, a word at a time once this bitmap
    /// ends on a word boundary.
    pub(crate) fn extend_from(&mut self, src: &Bitmap, range: Range<usize>) {
        let mut i = range.start;
        self.words
            .reserve((self.len + range.len()).div_ceil(64) - self.words.len());
        while i < range.end && !self.len.is_multiple_of(64) {
            self.push(src.get(i));
            i += 1;
        }
        while range.end - i >= 64 {
            let (w, shift) = (i / 64, i % 64);
            let word = match shift {
                0 => src.words[w],
                _ => src.words[w] >> shift | src.words[w + 1] << (64 - shift),
            };
            self.words.push(word);
            self.set += word.count_ones() as usize;
            self.len += 64;
            i += 64;
        }
        (i..range.end).for_each(|i| self.push(src.get(i)));
    }

    /// Reads bit `i`.
    #[inline]
    pub fn get(&self, i: usize) -> bool {
        debug_assert!(i < self.len);
        self.words[i / 64] & (1u64 << (i % 64)) != 0
    }

    /// Number of bits stored.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True when no bits are stored.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Number of set bits.
    pub fn count_set(&self) -> usize {
        self.set
    }

    /// True when at least one bit is set.
    pub fn any(&self) -> bool {
        self.set > 0
    }

    /// Heap bytes held by the bitmap.
    pub fn heap_bytes(&self) -> usize {
        self.words.len() * 8
    }

    /// Appends one byte per bit of `start..start + len` to `out`: 1 where
    /// the bit is clear, 0 where it is set. Eight bits at a time through a
    /// table, because a mask is expanded once per morsel scanned.
    pub(crate) fn extend_clear(&self, start: usize, len: usize, out: &mut Vec<u8>) {
        /// Byte `b` → eight bytes, byte `k` 1 where bit `k` of `b` is clear.
        const CLEAR: [u64; 256] = {
            let mut table = [0u64; 256];
            let mut b = 0;
            while b < 256 {
                let mut k = 0;
                while k < 8 {
                    if b >> k & 1 == 0 {
                        table[b] |= 1 << (8 * k);
                    }
                    k += 1;
                }
                b += 1;
            }
            table
        };
        let (end, mut i) = (start + len, start);
        out.reserve(len);
        while i < end && (i % 8 != 0 || end - i < 8) {
            out.push(u8::from(!self.get(i)));
            i += 1;
        }
        while end - i >= 8 {
            let byte = (self.words[i / 64] >> (i % 64)) as u8;
            out.extend_from_slice(&CLEAR[byte as usize].to_le_bytes());
            i += 8;
        }
        while i < end {
            out.push(u8::from(!self.get(i)));
            i += 1;
        }
    }
}

/// The strings of one column: every cell's UTF-8 bytes back to back in
/// one buffer, and the offset where each cell ends. Cell `i` is
/// `bytes[ends[i - 1]..ends[i]]` (from 0 for the first), a slice whose
/// bounds `String` checks in O(1).
#[derive(Clone, Debug, Default)]
pub struct StrBuf {
    ends: Vec<u32>,
    bytes: String,
}

impl StrBuf {
    /// An empty buffer with room for `cells` cells of `bytes` bytes in all.
    pub(crate) fn with_capacity(cells: usize, bytes: usize) -> StrBuf {
        StrBuf {
            ends: Vec::with_capacity(cells),
            bytes: String::with_capacity(bytes),
        }
    }

    /// Number of cells.
    pub fn len(&self) -> usize {
        self.ends.len()
    }

    /// True when the buffer holds no cell.
    pub fn is_empty(&self) -> bool {
        self.ends.is_empty()
    }

    /// Bytes held by all cells together.
    pub fn byte_len(&self) -> usize {
        self.bytes.len()
    }

    /// Where cell `i` starts in `bytes`: where cell `i - 1` ends.
    #[inline]
    fn offset(&self, i: usize) -> usize {
        match i {
            0 => 0,
            i => self.ends[i - 1] as usize,
        }
    }

    /// The byte range of cells `cells`.
    #[inline]
    fn span(&self, cells: Range<usize>) -> Range<usize> {
        self.offset(cells.start)..self.offset(cells.end)
    }

    /// Cell `i`, borrowed.
    #[inline]
    pub fn get(&self, i: usize) -> &str {
        &self.bytes[self.offset(i)..self.ends[i] as usize]
    }

    /// Appends `s`. Returns false, and appends nothing, when the buffer
    /// would pass `u32::MAX` bytes.
    #[must_use]
    pub(crate) fn push(&mut self, s: &str) -> bool {
        let Ok(end) = u32::try_from(self.bytes.len() + s.len()) else {
            return false;
        };
        self.bytes.push_str(s);
        self.ends.push(end);
        true
    }

    /// Appends cells `runs` of `src`, in order: one byte copy per run.
    /// Returns false, and appends nothing, when the buffer would pass
    /// `u32::MAX` bytes.
    #[must_use]
    pub(crate) fn extend_runs(&mut self, src: &StrBuf, runs: &[Range<usize>]) -> bool {
        let added: usize = runs.iter().map(|r| src.span(r.clone()).len()).sum();
        if u32::try_from(self.bytes.len() + added).is_err() {
            return false;
        }
        self.bytes.reserve(added);
        self.ends
            .reserve(runs.iter().map(ExactSizeIterator::len).sum());
        for run in runs {
            let span = src.span(run.clone());
            // Each end shifts by where the run lands less where it began.
            let shift = self.bytes.len() as i64 - span.start as i64;
            self.bytes.push_str(&src.bytes[span]);
            let ends = src.ends[run.clone()].iter();
            self.ends.extend(ends.map(|&e| (e as i64 + shift) as u32));
        }
        true
    }

    /// Heap bytes the cells occupy: the bytes plus four per end offset.
    pub fn heap_bytes(&self) -> usize {
        self.bytes.len() + self.ends.len() * std::mem::size_of::<u32>()
    }
}

impl Index<usize> for StrBuf {
    type Output = str;

    fn index(&self, i: usize) -> &str {
        self.get(i)
    }
}

/// The decimals of one column: one `i64` mantissa per cell, every cell at
/// `scale` fractional digits. The scale is set by the first non-NULL cell
/// and is `None` while the column holds only NULLs.
#[derive(Clone, Debug, Default)]
pub struct DecBuf {
    mantissas: Vec<i64>,
    scale: Option<u8>,
}

impl DecBuf {
    /// An empty buffer with room for `cells` cells.
    pub(crate) fn with_capacity(cells: usize) -> DecBuf {
        DecBuf {
            mantissas: Vec::with_capacity(cells),
            scale: None,
        }
    }

    /// Number of cells.
    pub fn len(&self) -> usize {
        self.mantissas.len()
    }

    /// True when the buffer holds no cell.
    pub fn is_empty(&self) -> bool {
        self.mantissas.is_empty()
    }

    /// The scale of every non-NULL cell; `None` while there is none.
    pub fn scale(&self) -> Option<u8> {
        self.scale
    }

    /// The mantissas, at [`DecBuf::scale`]; a NULL cell holds 0.
    pub fn mantissas(&self) -> &[i64] {
        &self.mantissas
    }

    /// Cell `i`.
    #[inline]
    pub fn get(&self, i: usize) -> Decimal {
        Decimal::new(self.mantissas[i] as i128, self.scale.unwrap_or(0))
    }

    /// `d` as a mantissa at this buffer's scale, when it has one there.
    pub(crate) fn mantissa_of(&self, d: &Decimal) -> Option<i64> {
        i64::try_from(d.mantissa_at(self.scale?)?).ok()
    }

    /// Appends `mantissa` at `scale`. Returns false, and appends nothing,
    /// when the cells already held have another scale.
    #[must_use]
    #[inline]
    fn push(&mut self, mantissa: i64, scale: u8) -> bool {
        if *self.scale.get_or_insert(scale) != scale {
            return false;
        }
        self.mantissas.push(mantissa);
        true
    }

    /// `mantissas` at `scale`, gathered beside `nulls`: no scale when
    /// every cell is NULL, as pushing them would leave it.
    pub(crate) fn gathered(mantissas: Vec<i64>, scale: Option<u8>, nulls: &Bitmap) -> DecBuf {
        let mut buf = DecBuf {
            mantissas,
            scale: None,
        };
        buf.adopt(scale, nulls);
        buf
    }

    /// Takes `scale` when this buffer has none yet and `nulls`, its cells'
    /// bitmap, shows a value among them.
    fn adopt(&mut self, scale: Option<u8>, nulls: &Bitmap) {
        if self.scale.is_none() && nulls.count_set() < nulls.len() {
            self.scale = scale;
        }
    }

    /// Whether `src`'s mantissas mean the same at this buffer's scale:
    /// one scale, or no scale on one side (only NULLs there).
    fn joins(&self, src: &DecBuf) -> bool {
        self.scale.is_none() || src.scale.is_none() || self.scale == src.scale
    }
}

/// The physical buffer of a column: one dense native vector per common
/// type, or boxed values for everything else.
#[derive(Clone, Debug)]
pub enum ColumnData {
    /// 64-bit integers (surrogate keys, counts).
    I64(Vec<i64>),
    /// Exact fixed-point decimals, as `i64` mantissas at one scale.
    Decimal(DecBuf),
    /// Calendar dates.
    Date(Vec<Date>),
    /// Strings, in one byte buffer.
    Str(StrBuf),
    /// Fallback: any value type, including mixed-type columns.
    Other(Vec<Value>),
}

/// One column of one segment: a typed buffer plus the null bitmap.
#[derive(Clone, Debug)]
pub struct Column {
    /// The typed buffer. NULL rows hold a default slot.
    pub data: ColumnData,
    /// Bit `i` set ⇒ row `i` is NULL.
    pub nulls: Bitmap,
}

impl Column {
    /// An empty column whose buffer variant is chosen from the declared
    /// type. `Time`/`Bool` (never stored by TPC-DS tables) use the boxed
    /// fallback.
    pub fn for_type(dtype: DataType) -> Column {
        let data = match dtype {
            DataType::Int => ColumnData::I64(Vec::new()),
            DataType::Decimal => ColumnData::Decimal(DecBuf::default()),
            DataType::Date => ColumnData::Date(Vec::new()),
            DataType::Str => ColumnData::Str(StrBuf::default()),
            DataType::Time | DataType::Bool => ColumnData::Other(Vec::new()),
        };
        Column {
            data,
            nulls: Bitmap::new(),
        }
    }

    /// A boxed column of `values`, NULL where a value is.
    pub(crate) fn boxed(values: Vec<Value>) -> Column {
        let mut nulls = Bitmap::new();
        values.iter().for_each(|v| nulls.push(v.is_null()));
        Column {
            data: ColumnData::Other(values),
            nulls,
        }
    }

    /// An empty column of this one's buffer variant with room for `cells`
    /// cells; a string buffer also for their bytes, at this column's mean
    /// cell length.
    pub(crate) fn empty_like(&self, cells: usize) -> Column {
        let data = match &self.data {
            ColumnData::I64(_) => ColumnData::I64(Vec::with_capacity(cells)),
            ColumnData::Decimal(_) => ColumnData::Decimal(DecBuf::with_capacity(cells)),
            ColumnData::Date(_) => ColumnData::Date(Vec::with_capacity(cells)),
            ColumnData::Str(buf) => {
                let bytes = (buf.byte_len() * cells).div_ceil(buf.len().max(1));
                ColumnData::Str(StrBuf::with_capacity(cells, bytes))
            }
            ColumnData::Other(_) => ColumnData::Other(Vec::with_capacity(cells)),
        };
        Column {
            data,
            nulls: Bitmap::new(),
        }
    }

    /// Number of rows stored.
    pub fn len(&self) -> usize {
        self.nulls.len()
    }

    /// True when the column holds no rows.
    pub fn is_empty(&self) -> bool {
        self.nulls.is_empty()
    }

    /// Makes room for `additional` more values.
    pub(crate) fn reserve(&mut self, additional: usize) {
        match &mut self.data {
            ColumnData::I64(buf) => buf.reserve(additional),
            ColumnData::Decimal(buf) => buf.mantissas.reserve(additional),
            ColumnData::Date(buf) => buf.reserve(additional),
            ColumnData::Str(buf) => buf.ends.reserve(additional),
            ColumnData::Other(buf) => buf.reserve(additional),
        }
    }

    /// The cells at offsets `runs`, in order, in buffers allocated once
    /// with room for `room` more values ([`Column::empty_like`]): each run
    /// is one slice copy.
    pub(crate) fn copy_runs(&self, runs: &[Range<usize>], room: usize) -> Column {
        let cells = runs.iter().map(ExactSizeIterator::len).sum::<usize>();
        let mut out = self.empty_like(cells + room);
        out.extend_runs(self, runs);
        out
    }

    /// Appends the cells at offsets `runs` of `src`, in order, exactly as
    /// pushing each of them would: one slice copy per run when both
    /// columns hold the same buffer variant (decimals at one scale, and a
    /// string buffer under `u32::MAX` bytes), a push per cell otherwise.
    pub(crate) fn extend_runs(&mut self, src: &Column, runs: &[Range<usize>]) {
        fn copy<T: Clone>(out: &mut Vec<T>, buf: &[T], runs: &[Range<usize>]) -> bool {
            runs.iter()
                .for_each(|r| out.extend_from_slice(&buf[r.clone()]));
            true
        }
        let copied = match (&mut self.data, &src.data) {
            (ColumnData::I64(out), ColumnData::I64(buf)) => copy(out, buf, runs),
            (ColumnData::Decimal(out), ColumnData::Decimal(buf)) if out.joins(buf) => {
                copy(&mut out.mantissas, &buf.mantissas, runs)
            }
            (ColumnData::Date(out), ColumnData::Date(buf)) => copy(out, buf, runs),
            (ColumnData::Str(out), ColumnData::Str(buf)) => out.extend_runs(buf, runs),
            (ColumnData::Other(out), ColumnData::Other(buf)) => copy(out, buf, runs),
            _ => false,
        };
        if copied {
            runs.iter()
                .for_each(|r| self.nulls.extend_from(&src.nulls, r.clone()));
            // A column that held only NULLs takes the scale of the first
            // value copied in.
            if let (ColumnData::Decimal(out), ColumnData::Decimal(buf)) =
                (&mut self.data, &src.data)
            {
                out.adopt(buf.scale, &self.nulls);
            }
        } else {
            (runs.iter().flat_map(Range::clone)).for_each(|i| self.push(&src.value_at(i)));
        }
    }

    /// Appends one value, promoting the buffer to [`ColumnData::Other`] if
    /// the value does not fit the current variant (the engine is
    /// dynamically typed, so declared and actual types can disagree).
    pub fn push(&mut self, v: &Value) {
        match (&self.data, v) {
            (ColumnData::Other(_), _) => self.push_boxed(v),
            (_, Value::Null) => self.push_null(),
            (_, Value::Int(x)) => self.push_int(*x),
            (_, Value::Decimal(d)) => match i64::try_from(d.mantissa()) {
                Ok(m) => self.push_decimal(m, d.scale()),
                Err(_) => self.push_boxed(v),
            },
            (_, Value::Date(d)) => self.push_date(*d),
            (_, Value::Str(s)) => self.push_str(s),
            _ => self.push_boxed(v),
        }
    }

    /// Appends an integer: [`Column::push`] of [`Value::Int`], without
    /// building the value unless the column is not an `i64` buffer.
    #[inline]
    pub fn push_int(&mut self, x: i64) {
        match &mut self.data {
            ColumnData::I64(buf) => buf.push(x),
            _ => return self.push_boxed(&Value::Int(x)),
        }
        self.nulls.push(false);
    }

    /// Appends the decimal `mantissa` at `scale`, as [`Column::push`] of
    /// that [`Value::Decimal`] would.
    #[inline]
    pub fn push_decimal(&mut self, mantissa: i64, scale: u8) {
        let pushed = match &mut self.data {
            ColumnData::Decimal(buf) => buf.push(mantissa, scale),
            _ => false,
        };
        match pushed {
            true => self.nulls.push(false),
            false => self.push_boxed(&Value::Decimal(Decimal::new(mantissa as i128, scale))),
        }
    }

    /// Appends a date, as [`Column::push`] of [`Value::Date`] would.
    #[inline]
    pub fn push_date(&mut self, d: Date) {
        match &mut self.data {
            ColumnData::Date(buf) => buf.push(d),
            _ => return self.push_boxed(&Value::Date(d)),
        }
        self.nulls.push(false);
    }

    /// Appends a string, as [`Column::push`] of [`Value::Str`] would: a
    /// byte copy into a string buffer, no [`Value`] unless it boxes.
    #[inline]
    pub fn push_str(&mut self, s: &str) {
        let pushed = match &mut self.data {
            ColumnData::Str(buf) => buf.push(s),
            _ => false,
        };
        match pushed {
            true => self.nulls.push(false),
            false => self.push_boxed(&Value::str(s)),
        }
    }

    /// Appends `v` to a boxed buffer, boxing the column first.
    fn push_boxed(&mut self, v: &Value) {
        if !matches!(self.data, ColumnData::Other(_)) {
            self.promote_to_other();
        }
        if let ColumnData::Other(buf) = &mut self.data {
            buf.push(v.clone());
        }
        self.nulls.push(v.is_null());
    }

    /// Rewrites a boxed buffer as `dtype`'s typed one when every non-NULL
    /// cell is of that type, so a column holds what pushing its cells into
    /// [`Column::for_type`] would build however its cells got there (boxed
    /// again where those pushes box: decimals of two scales).
    pub(crate) fn unbox(&mut self, dtype: DataType) {
        let ColumnData::Other(buf) = &self.data else {
            return;
        };
        let fits = |v: &Value| match v {
            Value::Null => true,
            Value::Int(_) => dtype == DataType::Int,
            Value::Decimal(_) => dtype == DataType::Decimal,
            Value::Date(_) => dtype == DataType::Date,
            Value::Str(_) => dtype == DataType::Str,
            Value::Time(_) | Value::Bool(_) => false,
        };
        if buf.iter().all(fits) {
            let mut typed = Column::for_type(dtype);
            buf.iter().for_each(|v| typed.push(v));
            *self = typed;
        }
    }

    /// Appends a NULL: a default slot in the buffer and a set bit.
    #[inline]
    pub fn push_null(&mut self) {
        match &mut self.data {
            ColumnData::I64(buf) => buf.push(0),
            ColumnData::Decimal(buf) => buf.mantissas.push(0),
            ColumnData::Date(buf) => buf.push(Date::from_ymd(1900, 1, 1)),
            ColumnData::Str(buf) => {
                let pushed = buf.push("");
                debug_assert!(pushed, "an empty cell adds no byte");
            }
            ColumnData::Other(buf) => buf.push(Value::Null),
        }
        self.nulls.push(true);
    }

    /// Rewrites the buffer as boxed values (keeps the bitmap).
    fn promote_to_other(&mut self) {
        let n = self.len();
        let mut boxed: Vec<Value> = Vec::with_capacity(n + 1);
        for i in 0..n {
            boxed.push(self.value_at(i));
        }
        self.data = ColumnData::Other(boxed);
    }

    /// Materializes row `i` as a [`Value`] (NULL when the bitmap says so).
    /// A string cell is copied into a new [`Value::Str`]: kernels read
    /// [`Column::str_at`] or the [`StrBuf`] instead.
    #[inline]
    pub fn value_at(&self, i: usize) -> Value {
        if self.nulls.get(i) {
            return Value::Null;
        }
        match &self.data {
            ColumnData::I64(buf) => Value::Int(buf[i]),
            ColumnData::Decimal(buf) => Value::Decimal(buf.get(i)),
            ColumnData::Date(buf) => Value::Date(buf[i]),
            ColumnData::Str(buf) => Value::str(buf.get(i)),
            ColumnData::Other(buf) => buf[i].clone(),
        }
    }

    /// Row `i` as a string, when it holds one, borrowed from the buffer.
    pub fn str_at(&self, i: usize) -> Option<&str> {
        match &self.data {
            _ if self.nulls.get(i) => None,
            ColumnData::Str(buf) => Some(buf.get(i)),
            ColumnData::Other(buf) => buf[i].as_str(),
            _ => None,
        }
    }

    /// Approximate heap bytes held by the column (used for scan byte
    /// counters, not allocation accounting).
    pub fn heap_bytes(&self) -> usize {
        let data = match &self.data {
            ColumnData::I64(buf) => buf.len() * 8,
            ColumnData::Decimal(buf) => buf.len() * std::mem::size_of::<i64>(),
            ColumnData::Date(buf) => buf.len() * std::mem::size_of::<Date>(),
            ColumnData::Str(buf) => buf.heap_bytes(),
            ColumnData::Other(buf) => buf.len() * std::mem::size_of::<Value>(),
        };
        data + self.nulls.heap_bytes()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bitmap_packs_words() {
        let mut b = Bitmap::new();
        for i in 0..130 {
            b.push(i % 3 == 0);
        }
        assert_eq!(b.len(), 130);
        for i in 0..130 {
            assert_eq!(b.get(i), i % 3 == 0, "bit {i}");
        }
        assert_eq!(b.count_set(), (0..130).filter(|i| i % 3 == 0).count());
        // Expanded to bytes from any start, over any length.
        for (start, len) in [(0, 130), (64, 66), (3, 0), (5, 7), (7, 100), (120, 10)] {
            let mut out = vec![9];
            b.extend_clear(start, len, &mut out);
            let want = (start..start + len).map(|i| u8::from(i % 3 != 0));
            assert_eq!(out[1..], want.collect::<Vec<_>>(), "{start}+{len}");
        }
    }

    #[test]
    fn bitmap_extends_from_any_offset() {
        let bit = |i: usize| i.is_multiple_of(7) || i % 5 == 1;
        let mut src = Bitmap::new();
        (0..300).for_each(|i| src.push(bit(i)));
        for held in [0, 3, 64, 70] {
            for (start, end) in [(0, 300), (1, 300), (63, 200), (64, 128), (5, 9), (130, 130)] {
                let mut b = Bitmap::new();
                (0..held).for_each(|_| b.push(true));
                b.extend_from(&src, start..end);
                let want: Vec<bool> = (0..held)
                    .map(|_| true)
                    .chain((start..end).map(bit))
                    .collect();
                let got: Vec<bool> = (0..b.len()).map(|i| b.get(i)).collect();
                assert_eq!(got, want, "{held} bits, then {start}..{end}");
                assert_eq!(b.count_set(), want.iter().filter(|&&x| x).count());
            }
        }
    }

    #[test]
    fn typed_pushes_round_trip() {
        let mut c = Column::for_type(DataType::Int);
        c.push(&Value::Int(7));
        c.push(&Value::Null);
        c.push(&Value::Int(-2));
        assert_eq!(c.value_at(0), Value::Int(7));
        assert!(c.value_at(1).is_null());
        assert_eq!(c.value_at(2), Value::Int(-2));
    }

    /// Cells with multi-byte characters, an empty string beside a NULL,
    /// and plain ASCII.
    fn strings() -> Vec<Value> {
        ["é", "", "", "日本", "a", "日本語é", "", "bc"]
            .iter()
            .enumerate()
            .map(|(i, s)| match i {
                2 | 6 => Value::Null,
                _ => Value::str(s),
            })
            .collect()
    }

    fn pushed(values: &[Value]) -> Column {
        let mut c = Column::for_type(DataType::Str);
        values.iter().for_each(|v| c.push(v));
        c
    }

    fn cells(c: &Column) -> Vec<Value> {
        (0..c.len()).map(|i| c.value_at(i)).collect()
    }

    #[test]
    fn strings_round_trip_multibyte_empty_and_null_cells() {
        let values = strings();
        let c = pushed(&values);
        let ColumnData::Str(buf) = &c.data else {
            panic!("a string column stays typed: {c:?}");
        };
        assert_eq!(cells(&c), values);
        // A NULL is an empty cell plus its bit; an empty string only the
        // empty cell.
        assert_eq!((&buf[1], &buf[2]), ("", ""));
        assert_eq!((c.str_at(1), c.str_at(2)), (Some(""), None));
        assert_eq!((buf.get(3), &buf[5]), ("日本", "日本語é"));
        let bytes = "é日本a日本語ébc".len();
        assert_eq!((buf.len(), buf.byte_len()), (8, bytes));
        assert_eq!(c.heap_bytes(), bytes + 8 * 4 + c.nulls.heap_bytes());
    }

    #[test]
    fn strings_copy_runs_cut_between_multibyte_cells() {
        let values = strings();
        let c = pushed(&values);
        for runs in [
            vec![0..1, 3..4],
            vec![1..3, 5..8],
            vec![0..0, 3..6, 7..8],
            vec![0..5, 5..8],
            vec![],
        ] {
            let picked: Vec<Value> = (runs.iter().flat_map(Range::clone))
                .map(|i| values[i].clone())
                .collect();
            let copy = c.copy_runs(&runs, 3);
            assert!(matches!(copy.data, ColumnData::Str(_)), "{runs:?}");
            assert_eq!(cells(&copy), picked, "{runs:?}");
            // Onto cells already there: the ends shift by what they hold.
            let mut grown = pushed(&values[3..6]);
            grown.extend_runs(&c, &runs);
            let want: Vec<Value> = values[3..6].iter().cloned().chain(picked).collect();
            assert_eq!(cells(&grown), want, "{runs:?} onto three cells");
            assert_eq!(grown.nulls.count_set(), pushed(&want).nulls.count_set());
        }
    }

    #[test]
    fn strings_copied_into_another_variant_box_as_pushes_would() {
        let values = strings();
        let c = pushed(&values);
        let mut ints = Column::for_type(DataType::Int);
        ints.push(&Value::Int(4));
        ints.extend_runs(&c, &[2..3, 3..4]);
        let mut want = Column::for_type(DataType::Int);
        [Value::Int(4), Value::Null, Value::str("日本")]
            .iter()
            .for_each(|v| want.push(v));
        assert!(matches!(ints.data, ColumnData::Other(_)));
        assert_eq!(cells(&ints), cells(&want));
        // A NULL alone fits the typed buffer.
        let mut ints = Column::for_type(DataType::Int);
        ints.extend_runs(&c, &[2..2, 2..3]);
        assert!(matches!(ints.data, ColumnData::I64(_)));
        // A boxed column of strings unboxes into one byte buffer.
        let mut boxed = Column::for_type(DataType::Bool);
        values.iter().for_each(|v| boxed.push(v));
        boxed.unbox(DataType::Str);
        assert!(matches!(boxed.data, ColumnData::Str(_)));
        assert_eq!(cells(&boxed), values);
    }

    fn dec(m: i128, scale: u8) -> Value {
        Value::Decimal(Decimal::new(m, scale))
    }

    fn decimals(values: &[Value]) -> Column {
        let mut c = Column::for_type(DataType::Decimal);
        values.iter().for_each(|v| c.push(v));
        c
    }

    /// The cells as rendered, so `1.5` and `1.50` differ.
    fn rendered(c: &Column) -> Vec<String> {
        cells(c).iter().map(|v| format!("{v:?} {v}")).collect()
    }

    fn typed_at(c: &Column) -> Option<u8> {
        match &c.data {
            ColumnData::Decimal(buf) => buf.scale(),
            other => panic!("a decimal column stays typed: {other:?}"),
        }
    }

    #[test]
    fn decimals_take_the_scale_of_the_first_non_null_cell() {
        let values = [
            Value::Null,
            Value::Null,
            dec(150, 2),
            Value::Null,
            dec(-7, 2),
        ];
        let c = decimals(&values[..2]);
        assert_eq!(typed_at(&c), None, "only NULLs: no scale yet");
        let c = decimals(&values);
        assert_eq!(typed_at(&c), Some(2));
        assert_eq!(cells(&c), values);
        let ColumnData::Decimal(buf) = &c.data else {
            unreachable!()
        };
        assert_eq!(buf.mantissas(), [0, 0, 150, 0, -7]);
        assert_eq!(c.heap_bytes(), 5 * 8 + c.nulls.heap_bytes());
    }

    #[test]
    fn decimals_of_a_second_scale_box_the_column() {
        let values = [dec(150, 2), Value::Null, dec(15, 1), dec(3, 0)];
        let c = decimals(&values);
        assert!(matches!(c.data, ColumnData::Other(_)), "{c:?}");
        assert_eq!(rendered(&c), rendered(&Column::boxed(values.to_vec())));
        // The integral decimal equal to a cell is not the cell: scale 0.
        let c = decimals(&[dec(100, 2), dec(1, 0)]);
        assert!(matches!(c.data, ColumnData::Other(_)), "{c:?}");
    }

    #[test]
    fn decimals_outside_i64_box_the_column() {
        let big = i64::MAX as i128 + 1;
        for values in [
            vec![dec(1, 2), dec(big, 2)],
            vec![dec(-big - 1, 2), dec(1, 2)],
            vec![Value::Null, dec(big, 0)],
        ] {
            let c = decimals(&values);
            assert!(matches!(c.data, ColumnData::Other(_)), "{values:?}");
            assert_eq!(cells(&c), values);
        }
        // The ends of `i64` fit.
        let ends = [dec(i64::MAX as i128, 2), dec(i64::MIN as i128, 2)];
        let c = decimals(&ends);
        assert_eq!((typed_at(&c), cells(&c)), (Some(2), ends.to_vec()));
    }

    #[test]
    fn decimals_copied_between_scales_box_as_pushes_would() {
        let cents = [dec(150, 2), Value::Null, dec(-25, 2), Value::Null];
        let tenths = [dec(15, 1), Value::Null, dec(7, 1)];
        let (c2, c1) = (decimals(&cents), decimals(&tenths));
        // Each copy against pushing the same cells one at a time; `true`
        // where the result is boxed.
        for (onto, src, runs, boxed) in [
            (&tenths[..], &c2, [0..1, 2..4], true),
            (&cents[..], &c1, [0..0, 0..3], true),
            // NULLs alone fit a column of any scale.
            (&tenths[..], &c2, [1..2, 3..4], false),
            (&cents[..], &c1, [1..2, 2..2], false),
            // A column of NULLs takes the scale of the first value.
            (&[][..], &c2, [1..2, 1..1], false),
            (&[Value::Null][..], &c2, [0..0, 0..3], false),
            (&[Value::Null][..], &c1, [1..2, 0..3], false),
            (&cents[..], &c2, [0..4, 2..3], false),
        ] {
            let mut got = decimals(onto);
            got.extend_runs(src, &runs);
            let mut want = decimals(onto);
            (runs.iter().flat_map(Range::clone)).for_each(|i| want.push(&src.value_at(i)));
            let what = format!("{onto:?} + {runs:?}");
            assert_eq!(matches!(got.data, ColumnData::Other(_)), boxed, "{what}");
            assert_eq!(rendered(&got), rendered(&want), "{what}");
            assert_eq!(
                format!("{:?}", got.data),
                format!("{:?}", want.data),
                "{what}"
            );
        }
        // A copy into a new column keeps the source's scale, and has none
        // when it copies only NULLs.
        let copy = c2.copy_runs(&[0..1, 2..4], 2);
        let want = decimals(&[dec(150, 2), dec(-25, 2), Value::Null]);
        assert_eq!(typed_at(&copy), Some(2));
        assert_eq!(rendered(&copy), rendered(&want));
        assert_eq!(typed_at(&c2.copy_runs(&[1..2, 3..4], 0)), None);
    }

    #[test]
    fn decimals_patched_by_a_replace_stay_typed_at_one_scale() {
        use crate::segment::ColumnTable;
        let row = |i: usize| match i % 5 {
            0 => vec![Value::Null],
            _ => vec![dec(i as i128 * 101 - 3_000, 2)],
        };
        let rows: Vec<Vec<Value>> = (0..70_000).map(row).collect();
        let t = ColumnTable::from_rows(vec![DataType::Decimal], &rows);
        let data = |t: &ColumnTable, seg: usize| t.segments[seg].columns[0].data.clone();
        // Same-scale cells, a NULL and a value over a NULL, at offset 0
        // and at the last offset of the first segment.
        let patch = [(0, dec(99, 2)), (5, Value::Null), (65_535, dec(-1, 2))];
        let rows_in: Vec<(usize, Vec<Value>)> =
            patch.iter().map(|(i, v)| (*i, vec![v.clone()])).collect();
        let (patched, built) = t.replace(&rows_in, 2);
        assert_eq!(built, 1);
        assert!(matches!(data(&patched, 0), ColumnData::Decimal(_)));
        for (i, v) in &patch {
            assert_eq!(format!("{}", patched.value(*i, 0)), format!("{v}"));
        }
        assert_eq!(patched.value(1, 0), rows[1][0]);
        assert_eq!(patched.value(65_534, 0), rows[65_534][0]);
        // A cell of another scale boxes that segment only, without loss.
        let (patched, _) = t.replace(&[(7, vec![dec(5, 1)])], 1);
        assert!(matches!(data(&patched, 0), ColumnData::Other(_)));
        assert!(matches!(data(&patched, 1), ColumnData::Decimal(_)));
        assert_eq!(format!("{}", patched.value(7, 0)), "0.5");
        assert_eq!(format!("{}", patched.value(8, 0)), "-21.92");
    }

    #[test]
    fn decimals_render_as_pushed() {
        for values in [
            vec![dec(15, 1), dec(-5, 1), Value::Null],
            vec![dec(150, 2), Value::Null, dec(-1, 2), dec(0, 2)],
            vec![dec(-42, 0), dec(7, 0)],
            vec![dec(123_456, 6)],
        ] {
            let c = decimals(&values);
            let want: Vec<String> = values.iter().map(|v| format!("{v:?} {v}")).collect();
            assert_eq!(rendered(&c), want);
            assert_eq!(rendered(&c.copy_runs(&[0..1, 1..values.len()], 0)), want);
        }
        assert_eq!(decimals(&[dec(15, 1)]).value_at(0).to_string(), "1.5");
        assert_eq!(decimals(&[dec(150, 2)]).value_at(0).to_string(), "1.50");
    }

    #[test]
    fn decimals_fold_the_statistics_of_their_values() {
        use crate::segment::ColumnTable;
        use crate::stats::collect_stats;
        // Repeated values, both signs, NULLs, and one extreme held twice.
        let value = |i: usize| match i % 11 {
            0 => Value::Null,
            3 => dec(-99_999, 2),
            _ => dec(((i * 7_919) % 50_000) as i128 - 1_000, 2),
        };
        let rows: Vec<Vec<Value>> = (0..70_000).map(|i| vec![value(i)]).collect();
        let typed = ColumnTable::from_rows(vec![DataType::Decimal], &rows);
        let boxed = ColumnTable::from_rows(vec![DataType::Bool], &rows);
        assert!(matches!(
            typed.segments[0].columns[0].data,
            ColumnData::Decimal(_)
        ));
        assert!(matches!(
            boxed.segments[0].columns[0].data,
            ColumnData::Other(_)
        ));
        let (got, want) = (collect_stats(&typed, 2), collect_stats(&boxed, 2));
        let (got, want) = (&got.columns[0], &want.columns[0]);
        assert_eq!((got.nulls, got.ndv), (want.nulls, want.ndv));
        assert_eq!(
            format!("{:?} {:?}", got.min, got.max),
            format!("{:?} {:?}", want.min, want.max)
        );
        assert_eq!(got.hist, want.hist);
        assert_eq!(got.min, Some(dec(-99_999, 2)));
    }

    #[test]
    fn mismatch_promotes_to_other() {
        let mut c = Column::for_type(DataType::Int);
        c.push(&Value::Int(1));
        c.push(&Value::Null);
        c.push(&Value::str("surprise"));
        assert!(matches!(c.data, ColumnData::Other(_)));
        assert_eq!(c.value_at(0), Value::Int(1));
        assert!(c.value_at(1).is_null());
        assert_eq!(c.value_at(2), Value::str("surprise"));
    }
}
