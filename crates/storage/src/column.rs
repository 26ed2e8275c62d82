//! Typed column vectors with a word-packed null bitmap.
//!
//! A [`Column`] stores one attribute of one segment. The common TPC-DS
//! types get dense native buffers (`i64`, [`Decimal`], [`Date`],
//! `Arc<str>`); anything else — or a column whose values turn out not to
//! match the declared type, which the dynamically-typed engine permits —
//! falls back to a boxed [`Value`] buffer ([`ColumnData::Other`]). NULLs
//! are recorded in the bitmap and occupy a default slot in the typed
//! buffer, so kernels can iterate the native vector without branching on
//! an enum per row.

use std::ops::Range;
use std::sync::Arc;
use tpcds_types::{DataType, Date, Decimal, Value};

thread_local! {
    /// The slot every NULL string cell pushed on this thread holds, so a
    /// NULL costs its 16-byte slot and no allocation of its own.
    static EMPTY_STR: Arc<str> = Arc::from("");
}

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

    /// Sets bit `i` to `bit`.
    pub(crate) fn put(&mut self, i: usize, bit: bool) {
        if self.get(i) != bit {
            self.words[i / 64] ^= 1u64 << (i % 64);
            self.set = if bit { self.set + 1 } else { self.set - 1 };
        }
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

/// The physical buffer of a column: one dense native vector per common
/// type, or boxed values for everything else.
#[derive(Clone, Debug)]
pub enum ColumnData {
    /// 64-bit integers (surrogate keys, counts).
    I64(Vec<i64>),
    /// Exact fixed-point decimals.
    Decimal(Vec<Decimal>),
    /// Calendar dates.
    Date(Vec<Date>),
    /// Strings (shared so materializing rows is a refcount bump).
    Str(Vec<Arc<str>>),
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
            DataType::Decimal => ColumnData::Decimal(Vec::new()),
            DataType::Date => ColumnData::Date(Vec::new()),
            DataType::Str => ColumnData::Str(Vec::new()),
            DataType::Time | DataType::Bool => ColumnData::Other(Vec::new()),
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
            ColumnData::Decimal(buf) => buf.reserve(additional),
            ColumnData::Date(buf) => buf.reserve(additional),
            ColumnData::Str(buf) => buf.reserve(additional),
            ColumnData::Other(buf) => buf.reserve(additional),
        }
    }

    /// The cells at offsets `runs`, in order, in buffers allocated once
    /// with room for `room` more values: each run is one slice copy.
    pub(crate) fn copy_runs(&self, runs: &[Range<usize>], room: usize) -> Column {
        let capacity = runs.iter().map(ExactSizeIterator::len).sum::<usize>() + room;
        fn copy<T: Clone>(buf: &[T], runs: &[Range<usize>], capacity: usize) -> Vec<T> {
            let mut out = Vec::with_capacity(capacity);
            runs.iter()
                .for_each(|r| out.extend_from_slice(&buf[r.clone()]));
            out
        }
        let data = match &self.data {
            ColumnData::I64(buf) => ColumnData::I64(copy(buf, runs, capacity)),
            ColumnData::Decimal(buf) => ColumnData::Decimal(copy(buf, runs, capacity)),
            ColumnData::Date(buf) => ColumnData::Date(copy(buf, runs, capacity)),
            ColumnData::Str(buf) => ColumnData::Str(copy(buf, runs, capacity)),
            ColumnData::Other(buf) => ColumnData::Other(copy(buf, runs, capacity)),
        };
        let mut nulls = Bitmap::new();
        runs.iter()
            .for_each(|r| nulls.extend_from(&self.nulls, r.clone()));
        Column { data, nulls }
    }

    /// Appends one value, promoting the buffer to [`ColumnData::Other`] if
    /// the value does not fit the current variant (the engine is
    /// dynamically typed, so declared and actual types can disagree).
    pub fn push(&mut self, v: &Value) {
        if v.is_null() {
            self.push_null();
            return;
        }
        match (&mut self.data, v) {
            (ColumnData::I64(buf), Value::Int(x)) => buf.push(*x),
            (ColumnData::Decimal(buf), Value::Decimal(x)) => buf.push(*x),
            (ColumnData::Date(buf), Value::Date(x)) => buf.push(*x),
            (ColumnData::Str(buf), Value::Str(x)) => buf.push(Arc::clone(x)),
            (ColumnData::Other(buf), x) => buf.push(x.clone()),
            _ => {
                self.promote_to_other();
                if let ColumnData::Other(buf) = &mut self.data {
                    buf.push(v.clone());
                }
            }
        }
        self.nulls.push(false);
    }

    /// Overwrites row `i` with `v`: NULL takes the slot [`Column::push`]
    /// gives it, and a value that does not fit the buffer boxes the column
    /// into [`ColumnData::Other`] as `push` would.
    pub(crate) fn set(&mut self, i: usize, v: &Value) {
        match (&mut self.data, v) {
            (ColumnData::I64(buf), Value::Null) => buf[i] = 0,
            (ColumnData::Decimal(buf), Value::Null) => buf[i] = Decimal::ZERO,
            (ColumnData::Date(buf), Value::Null) => buf[i] = Date::from_ymd(1900, 1, 1),
            (ColumnData::Str(buf), Value::Null) => buf[i] = EMPTY_STR.with(Arc::clone),
            (ColumnData::I64(buf), Value::Int(x)) => buf[i] = *x,
            (ColumnData::Decimal(buf), Value::Decimal(x)) => buf[i] = *x,
            (ColumnData::Date(buf), Value::Date(x)) => buf[i] = *x,
            (ColumnData::Str(buf), Value::Str(x)) => buf[i] = Arc::clone(x),
            (ColumnData::Other(buf), x) => buf[i] = x.clone(),
            _ => {
                self.promote_to_other();
                if let ColumnData::Other(buf) = &mut self.data {
                    buf[i] = v.clone();
                }
            }
        }
        self.nulls.put(i, v.is_null());
    }

    /// Rewrites a boxed buffer as `dtype`'s typed one when every non-NULL
    /// cell fits it, so a column holds what pushing its cells into
    /// [`Column::for_type`] would build however its cells got there.
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

    fn push_null(&mut self) {
        match &mut self.data {
            ColumnData::I64(buf) => buf.push(0),
            ColumnData::Decimal(buf) => buf.push(Decimal::ZERO),
            ColumnData::Date(buf) => buf.push(Date::from_ymd(1900, 1, 1)),
            ColumnData::Str(buf) => buf.push(EMPTY_STR.with(Arc::clone)),
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
    #[inline]
    pub fn value_at(&self, i: usize) -> Value {
        if self.nulls.get(i) {
            return Value::Null;
        }
        match &self.data {
            ColumnData::I64(buf) => Value::Int(buf[i]),
            ColumnData::Decimal(buf) => Value::Decimal(buf[i]),
            ColumnData::Date(buf) => Value::Date(buf[i]),
            ColumnData::Str(buf) => Value::Str(Arc::clone(&buf[i])),
            ColumnData::Other(buf) => buf[i].clone(),
        }
    }

    /// Row `i` as a string, when it holds one, borrowed from the buffer.
    pub fn str_at(&self, i: usize) -> Option<&str> {
        match &self.data {
            _ if self.nulls.get(i) => None,
            ColumnData::Str(buf) => Some(&buf[i]),
            ColumnData::Other(buf) => buf[i].as_str(),
            _ => None,
        }
    }

    /// Approximate heap bytes held by the column (used for scan byte
    /// counters, not allocation accounting).
    pub fn heap_bytes(&self) -> usize {
        let data = match &self.data {
            ColumnData::I64(buf) => buf.len() * 8,
            ColumnData::Decimal(buf) => buf.len() * std::mem::size_of::<Decimal>(),
            ColumnData::Date(buf) => buf.len() * std::mem::size_of::<Date>(),
            ColumnData::Str(buf) => buf
                .iter()
                .map(|s| s.len() + std::mem::size_of::<Arc<str>>())
                .sum(),
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
