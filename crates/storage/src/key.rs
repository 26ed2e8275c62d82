//! The one key path of every join build, join probe and group-by.
//!
//! A row's key cells are hashed, compared and ordered straight from the
//! typed column buffers ([`Cell`]); no `Vec<Value>` is built per row.
//! Cells follow [`Value`]'s grouping semantics — NULL equals NULL (a join
//! keeps NULL keys out itself), `Int(1)` equals `Decimal(1.00)`, cells of
//! other differing types differ, and the order is [`Value::sort_cmp`]'s —
//! so an integral decimal hashes as the integer it equals, and a key
//! column typed `Int` meets one typed `Decimal`. The hash is a std-only
//! multiplicative mix per cell, avalanched once per key.
//!
//! [`KeyTable`] maps a key, handed over as its hash plus an equality test,
//! to a dense entry id. It backs the join's [`JoinTable`] (key → ascending
//! build row ids), the aggregates' [`GroupTable`] (key → group, its
//! lowest row and its accumulators) and the subquery sets that
//! `Expr::Sub` probes (`expr::SubResult`, `expr::KeySet`).

use crate::agg::{AggSpec, PAcc};
use crate::batch::gather_column;
use crate::column::{Column, ColumnData};
use crate::morsel::{run_chunks, worker_count};
use crate::segment::{ColumnTable, Segment, SEGMENT_ROWS};
use crate::StorageError;
use std::cmp::Ordering;
use std::hash::{Hash, Hasher};
use std::sync::{Arc, Mutex};
use tpcds_types::{DataType, Date, Decimal, Value};

const MUL: u64 = 0x9E37_79B9_7F4A_7C15;
const NULL_SEED: u64 = 0x5851_F42D_4C95_7F2D;
const DATE_SEED: u64 = 0x1405_7B7E_F767_814F;
const DEC_SEED: u64 = 0x2545_F491_4F6C_DD1D;
const STR_SEED: u64 = 0x6C62_272E_07BB_0142;

#[inline]
fn mix(h: u64, x: u64) -> u64 {
    (h.rotate_left(5) ^ x).wrapping_mul(MUL)
}

/// Spreads every bit of a key's mixed cells over the whole word: the
/// join partition and the table slot read different bits.
#[inline]
fn avalanche(mut h: u64) -> u64 {
    h ^= h >> 33;
    h = h.wrapping_mul(0xFF51_AFD7_ED55_8CCD);
    h ^ h >> 33
}

/// [`mix`] as a [`Hasher`]: strings' bytes, and boxed `Bool` and `Time`
/// cells through their `Hash`.
struct Mix(u64);

impl Hasher for Mix {
    fn write(&mut self, bytes: &[u8]) {
        let mut words = bytes.chunks_exact(8);
        for w in &mut words {
            self.0 = mix(
                self.0,
                u64::from_le_bytes(w.try_into().expect("an 8-byte chunk")),
            );
        }
        let mut last = [0u8; 8];
        last[..words.remainder().len()].copy_from_slice(words.remainder());
        self.0 = mix(mix(self.0, u64::from_le_bytes(last)), bytes.len() as u64);
    }

    fn finish(&self) -> u64 {
        self.0
    }
}

/// One key cell, read from a typed buffer without building a [`Value`].
#[derive(Clone, Copy, Debug)]
pub(crate) enum Cell<'a> {
    Null,
    Int(i64),
    Dec(Decimal),
    Date(Date),
    Str(&'a str),
    /// A boxed `Bool` or `Time`.
    Other(&'a Value),
}

impl<'a> Cell<'a> {
    /// Row `i` of `col`.
    #[inline]
    pub(crate) fn of(col: &'a Column, i: usize) -> Cell<'a> {
        if col.nulls.get(i) {
            return Cell::Null;
        }
        match &col.data {
            ColumnData::I64(b) => Cell::Int(b[i]),
            ColumnData::Decimal(b) => Cell::Dec(b.get(i)),
            ColumnData::Date(b) => Cell::Date(b[i]),
            ColumnData::Str(b) => Cell::Str(b.get(i)),
            ColumnData::Other(b) => Cell::value(&b[i]),
        }
    }

    /// A boxed value's cell.
    #[inline]
    pub(crate) fn value(v: &'a Value) -> Cell<'a> {
        match v {
            Value::Null => Cell::Null,
            Value::Int(x) => Cell::Int(*x),
            Value::Decimal(d) => Cell::Dec(*d),
            Value::Date(d) => Cell::Date(*d),
            Value::Str(s) => Cell::Str(s),
            v => Cell::Other(v),
        }
    }

    /// Equal cells hash equal: a decimal equal to an integer hashes as
    /// that integer.
    #[inline]
    fn hash(self) -> u64 {
        match self {
            Cell::Null => NULL_SEED,
            Cell::Int(x) => x as u64,
            Cell::Dec(d) => {
                let n = d.normalize();
                match i64::try_from(n.mantissa()) {
                    Ok(m) if n.scale() == 0 => m as u64,
                    _ => mix(
                        mix(DEC_SEED, n.mantissa() as u64),
                        (n.mantissa() >> 64) as u64 ^ n.scale() as u64,
                    ),
                }
            }
            Cell::Date(d) => DATE_SEED ^ d.day_number() as u64,
            Cell::Str(s) => {
                let mut h = Mix(STR_SEED);
                h.write(s.as_bytes());
                h.0
            }
            Cell::Other(v) => {
                let mut h = Mix(0);
                v.hash(&mut h);
                h.0
            }
        }
    }

    /// [`Value::sort_cmp`]'s type rank.
    fn rank(self) -> u8 {
        match self {
            Cell::Null => 0,
            Cell::Int(_) | Cell::Dec(_) => 2,
            Cell::Date(_) => 3,
            Cell::Str(_) => 5,
            Cell::Other(Value::Time(_)) => 4,
            Cell::Other(_) => 1,
        }
    }

    /// [`Value::sort_cmp`]: NULL first, then by type rank, then by value.
    pub(crate) fn cmp(self, other: Cell<'_>) -> Ordering {
        match (self, other) {
            (Cell::Int(a), Cell::Int(b)) => a.cmp(&b),
            (Cell::Dec(a), Cell::Dec(b)) => a.cmp(&b),
            (Cell::Int(a), Cell::Dec(b)) => Decimal::from_int(a).cmp(&b),
            (Cell::Dec(a), Cell::Int(b)) => a.cmp(&Decimal::from_int(b)),
            (Cell::Date(a), Cell::Date(b)) => a.cmp(&b),
            (Cell::Str(a), Cell::Str(b)) => a.cmp(b),
            (Cell::Other(a), Cell::Other(b)) => a.sort_cmp(b),
            (a, b) => a.rank().cmp(&b.rank()),
        }
    }

    /// `Value` equality (NULL equals NULL).
    #[inline]
    pub(crate) fn eq(self, other: Cell<'_>) -> bool {
        match (self, other) {
            (Cell::Int(a), Cell::Int(b)) => a == b,
            (Cell::Str(a), Cell::Str(b)) => a == b,
            (Cell::Date(a), Cell::Date(b)) => a == b,
            (a, b) => a.cmp(b).is_eq(),
        }
    }
}

/// The hash of a key given as its cells: what [`KeyCols::hashes`] gives
/// the same key read from a table.
#[inline]
pub(crate) fn hash_cells<'c>(cells: impl IntoIterator<Item = Cell<'c>>) -> u64 {
    avalanche(cells.into_iter().fold(0, |h, c| mix(h, c.hash())))
}

#[inline]
fn split(id: u32) -> (usize, usize) {
    (id as usize / SEGMENT_ROWS, id as usize % SEGMENT_ROWS)
}

/// One column of a key, per segment.
struct KeyCol<'a> {
    table: &'a ColumnTable,
    col: usize,
    segs: Vec<&'a Column>,
    /// The dense `i64` buffers when every segment has one: the
    /// surrogate-key case, read without a [`Cell`].
    ints: Option<Vec<&'a [i64]>>,
    /// Some segment holds a NULL.
    any_null: bool,
}

impl<'a> KeyCol<'a> {
    #[inline]
    fn is_null(&self, id: u32) -> bool {
        let (s, i) = split(id);
        self.any_null && self.segs[s].nulls.get(i)
    }

    #[inline]
    fn cell(&self, id: u32) -> Cell<'a> {
        let (s, i) = split(id);
        match &self.ints {
            _ if self.is_null(id) => Cell::Null,
            Some(b) => Cell::Int(b[s][i]),
            None => Cell::of(self.segs[s], i),
        }
    }

    #[inline]
    fn eq(&self, a: u32, other: &KeyCol<'_>, b: u32) -> bool {
        if let (Some(p), Some(q)) = (&self.ints, &other.ints) {
            let (na, nb) = (self.is_null(a), other.is_null(b));
            let ((sa, ia), (sb, ib)) = (split(a), split(b));
            return if na || nb {
                na == nb
            } else {
                p[sa][ia] == q[sb][ib]
            };
        }
        self.cell(a).eq(other.cell(b))
    }

    /// 65 bits that order like [`Cell::cmp`] over an `i64` column: NULL
    /// first.
    fn int_word(&self, id: u32) -> u128 {
        let (s, i) = split(id);
        match &self.ints {
            Some(b) if !self.is_null(id) => 1 << 64 | (b[s][i] as u64 ^ 1 << 63) as u128,
            _ => 0,
        }
    }
}

/// Columns of one table read at a global row id: a key, sort keys, or an
/// aggregate's arguments.
pub(crate) struct KeyCols<'a> {
    cols: Vec<KeyCol<'a>>,
}

impl<'a> KeyCols<'a> {
    /// Columns `cols` of `table`.
    pub(crate) fn of(table: &'a ColumnTable, cols: &[usize]) -> KeyCols<'a> {
        let key_col = |col: usize| {
            let segs: Vec<&Column> = table.segments.iter().map(|g| &g.columns[col]).collect();
            let ints = (segs.iter())
                .map(|c| match &c.data {
                    ColumnData::I64(b) => Some(b.as_slice()),
                    _ => None,
                })
                .collect();
            KeyCol {
                table,
                col,
                any_null: segs.iter().any(|c| c.nulls.any()),
                segs,
                ints,
            }
        };
        KeyCols {
            cols: cols.iter().map(|&c| key_col(c)).collect(),
        }
    }

    /// Column `k`'s cell at row `id`.
    #[inline]
    pub(crate) fn cell(&self, k: usize, id: u32) -> Cell<'a> {
        self.cols[k].cell(id)
    }

    /// Column `k`'s segment column and offset at row `id`.
    #[inline]
    pub(crate) fn at(&self, k: usize, id: u32) -> (&'a Column, usize) {
        let (s, i) = split(id);
        (self.cols[k].segs[s], i)
    }

    /// The keys' hashes at rows `ids` into `out`, column by column.
    pub(crate) fn hashes(&self, ids: &[u32], out: &mut Vec<u64>) {
        out.clear();
        out.resize(ids.len(), 0);
        for c in &self.cols {
            match &c.ints {
                Some(b) => {
                    for (h, &id) in out.iter_mut().zip(ids) {
                        let (s, i) = split(id);
                        *h = mix(
                            *h,
                            if c.is_null(id) {
                                NULL_SEED
                            } else {
                                b[s][i] as u64
                            },
                        );
                    }
                }
                None => {
                    for (h, &id) in out.iter_mut().zip(ids) {
                        *h = mix(*h, c.cell(id).hash());
                    }
                }
            }
        }
        out.iter_mut().for_each(|h| *h = avalanche(*h));
    }

    /// Whether a key cell at `id` is NULL: a join key that meets nothing.
    #[inline]
    pub(crate) fn has_null(&self, id: u32) -> bool {
        self.cols.iter().any(|c| c.is_null(id))
    }

    /// Whether the key at `a` equals `other`'s at `b`, cell by cell.
    #[inline]
    pub(crate) fn eq(&self, a: u32, other: &KeyCols<'_>, b: u32) -> bool {
        (self.cols.iter().zip(&other.cols)).all(|(x, y)| x.eq(a, y, b))
    }
}

/// Open addressing from a key's hash to a dense entry id, ids in
/// first-seen order. The table never sees a key: the caller's equality
/// test tells keys of one hash apart.
#[derive(Debug)]
pub(crate) struct KeyTable {
    /// Linear-probed slots: 0 is empty, else the hash's high half over
    /// the entry's id + 1.
    slots: Vec<u64>,
    /// Each entry's hash, by id.
    hashes: Vec<u64>,
}

impl KeyTable {
    pub(crate) fn with_capacity(n: usize) -> KeyTable {
        KeyTable {
            slots: vec![0; (2 * n).next_power_of_two().max(16)],
            hashes: Vec::with_capacity(n),
        }
    }

    pub(crate) fn len(&self) -> usize {
        self.hashes.len()
    }

    /// The entry hashed `h` that `eq` accepts, else the empty slot where
    /// it would go.
    #[inline]
    fn probe(&self, h: u64, mut eq: impl FnMut(usize) -> bool) -> Result<usize, usize> {
        let mask = self.slots.len() - 1;
        let mut s = h as usize & mask;
        loop {
            match self.slots[s] {
                0 => return Err(s),
                slot if slot >> 32 == h >> 32 && eq((slot as u32 - 1) as usize) => {
                    return Ok((slot as u32 - 1) as usize)
                }
                _ => s = (s + 1) & mask,
            }
        }
    }

    /// The entry hashed `h` that `eq` accepts.
    #[inline]
    pub(crate) fn find(&self, h: u64, eq: impl FnMut(usize) -> bool) -> Option<usize> {
        self.probe(h, eq).ok()
    }

    /// The entry hashed `h` that `eq` accepts, or a new one; true when new.
    #[inline]
    pub(crate) fn entry(&mut self, h: u64, eq: impl FnMut(usize) -> bool) -> (usize, bool) {
        if 2 * (self.hashes.len() + 1) > self.slots.len() {
            self.grow();
        }
        self.probe(h, eq).map(|id| (id, false)).unwrap_or_else(|s| {
            let id = self.hashes.len();
            self.slots[s] = (h >> 32 << 32) | (id as u64 + 1);
            self.hashes.push(h);
            (id, true)
        })
    }

    /// Doubles the slots, placing every entry again by its stored hash.
    fn grow(&mut self) {
        let mut slots = vec![0u64; 2 * self.slots.len()];
        let mask = slots.len() - 1;
        for (id, &h) in self.hashes.iter().enumerate() {
            let mut s = h as usize & mask;
            while slots[s] != 0 {
                s = (s + 1) & mask;
            }
            slots[s] = (h >> 32 << 32) | (id as u64 + 1);
        }
        self.slots = slots;
    }
}

/// One join partition's build table: each key's build rows, ascending.
pub(crate) struct JoinTable {
    keys: KeyTable,
    /// Entry `e`'s rows are `rows[start[e]..start[e + 1]]`.
    start: Vec<u32>,
    rows: Vec<u32>,
}

impl JoinTable {
    /// The table over `(row, hash)` pairs in ascending row order; `eq(a,
    /// b)` tells whether build rows `a` and `b` hold equal keys.
    pub(crate) fn build(list: &[(u32, u64)], eq: impl Fn(u32, u32) -> bool) -> JoinTable {
        let mut keys = KeyTable::with_capacity(list.len());
        let mut first: Vec<u32> = Vec::new();
        let entry_of: Vec<u32> = (list.iter())
            .map(|&(r, h)| {
                let (e, new) = keys.entry(h, |e| eq(first[e], r));
                if new {
                    first.push(r);
                }
                e as u32
            })
            .collect();
        // A counting sort by entry keeps each key's rows ascending.
        let mut start = vec![0u32; keys.len() + 1];
        for &e in &entry_of {
            start[e as usize + 1] += 1;
        }
        for e in 0..keys.len() {
            start[e + 1] += start[e];
        }
        let mut fill = start.clone();
        let mut rows = vec![0u32; list.len()];
        for (&e, &(r, _)) in entry_of.iter().zip(list) {
            rows[fill[e as usize] as usize] = r;
            fill[e as usize] += 1;
        }
        JoinTable { keys, start, rows }
    }

    /// The build rows of the key hashed `h` that `eq` accepts; `eq` is
    /// handed one build row of each candidate key.
    #[inline]
    pub(crate) fn get(&self, h: u64, eq: impl Fn(u32) -> bool) -> Option<&[u32]> {
        let span = |e: usize| self.start[e] as usize..self.start[e + 1] as usize;
        (self.keys.find(h, |e| eq(self.rows[span(e).start]))).map(|e| &self.rows[span(e)])
    }
}

/// Partitions of a [`GroupTable`] filled by more than one worker.
const MERGE_PARTS: usize = 16;

/// One hash partition of a [`GroupTable`]: key → group id, each group's
/// lowest input row (where its key is read) and its accumulators.
struct Groups {
    keys: KeyTable,
    reps: Vec<u32>,
    /// One accumulator per aggregate, group by group.
    accs: Vec<PAcc>,
}

impl Groups {
    /// The group of the key hashed `h` at `row`, created with fresh
    /// accumulators when new. `eq(rep, row)` tells whether the group whose
    /// lowest row is `rep` holds `row`'s key. Rows must come in ascending
    /// order, so a group's first row is its lowest.
    #[inline]
    fn id(&mut self, h: u64, row: u32, aggs: &[AggSpec], eq: impl Fn(u32, u32) -> bool) -> usize {
        let reps = &self.reps;
        let (g, new) = self.keys.entry(h, |g| eq(reps[g], row));
        if new {
            self.reps.push(row);
            self.accs.extend(aggs.iter().map(|a| PAcc::new(a.kind)));
        }
        g
    }

    /// Folds `other` in by its stored hashes, never re-hashing a key: a
    /// group both hold merges its `width` accumulators and keeps the lower
    /// row.
    fn merge(
        &mut self,
        other: Groups,
        width: usize,
        eq: impl Fn(u32, u32) -> bool,
    ) -> Result<(), StorageError> {
        let mut accs = other.accs.into_iter();
        for (og, &row) in other.reps.iter().enumerate() {
            let reps = &self.reps;
            let (g, new) = (self.keys).entry(other.keys.hashes[og], |g| eq(reps[g], row));
            let theirs = accs.by_ref().take(width);
            if new {
                self.reps.push(row);
                self.accs.extend(theirs);
            } else {
                self.reps[g] = self.reps[g].min(row);
                for (a, b) in self.accs[g * width..].iter_mut().zip(theirs) {
                    a.merge(b)?;
                }
            }
        }
        Ok(())
    }
}

/// The groups of one aggregate, in hash partitions so that the tables of
/// several workers merge partition by partition, in parallel.
pub(crate) struct GroupTable {
    parts: Vec<Groups>,
    /// Aggregates per group.
    width: usize,
}

impl GroupTable {
    /// One worker's table, when `workers` fill one each, for `width`
    /// aggregates.
    pub(crate) fn new(workers: usize, width: usize) -> GroupTable {
        let groups = || Groups {
            keys: KeyTable::with_capacity(0),
            reps: Vec::new(),
            accs: Vec::new(),
        };
        let parts = if workers > 1 { MERGE_PARTS } else { 1 };
        GroupTable {
            parts: (0..parts).map(|_| groups()).collect(),
            width,
        }
    }

    /// The accumulators of the group of the key hashed `h` at `row`: see
    /// [`Groups::id`].
    #[inline]
    fn group(
        &mut self,
        h: u64,
        row: u32,
        aggs: &[AggSpec],
        eq: impl Fn(u32, u32) -> bool,
    ) -> &mut [PAcc] {
        let w = self.width;
        let n = self.parts.len();
        let part = &mut self.parts[(h >> 32) as usize & (n - 1)];
        let g = part.id(h, row, aggs, eq);
        &mut part.accs[g * w..(g + 1) * w]
    }

    /// Folds the input rows `ids`, in ascending order, into their groups:
    /// the key read through `keys` (none for a global aggregate: one
    /// group), each aggregate's argument through `args` (one column per
    /// aggregate that has one, in order). `hashes` is scratch.
    pub(crate) fn fold(
        &mut self,
        ids: &[u32],
        keys: &KeyCols<'_>,
        args: &KeyCols<'_>,
        aggs: &[AggSpec],
        hashes: &mut Vec<u64>,
    ) -> Result<(), StorageError> {
        keys.hashes(ids, hashes);
        for (&row, &h) in ids.iter().zip(hashes.iter()) {
            let accs = self.group(h, row, aggs, |a, b| keys.eq(a, keys, b));
            let mut k = 0;
            for (acc, spec) in accs.iter_mut().zip(aggs) {
                match spec.col {
                    None => acc.update(None)?,
                    Some(_) => {
                        let (col, i) = args.at(k, row);
                        acc.fold(col, i)?;
                        k += 1;
                    }
                }
            }
        }
        Ok(())
    }

    /// The groups as a table sorted by key: the columns of `keys` gathered
    /// at each group's lowest row in their declared types, then one column
    /// per aggregate, typed by its function over its column of `args`. A
    /// global aggregate (no key) over no rows still yields its one row of
    /// defaults.
    pub(crate) fn finish(
        self,
        keys: &KeyCols<'_>,
        args: &KeyCols<'_>,
        aggs: &[AggSpec],
    ) -> ColumnTable {
        let mut arg = args.cols.iter();
        let agg_types: Vec<DataType> = (aggs.iter())
            .map(|a| {
                a.output_type(
                    a.col
                        .and_then(|_| arg.next())
                        .map(|c| c.table.dtypes[c.col]),
                )
            })
            .collect();
        let n: usize = self.parts.iter().map(|p| p.reps.len()).sum();
        let (mut reps, mut accs) = (Vec::with_capacity(n), Vec::with_capacity(n * self.width));
        for mut part in self.parts {
            reps.append(&mut part.reps);
            accs.append(&mut part.accs);
        }
        if keys.cols.is_empty() && reps.is_empty() {
            reps.push(0);
            accs.extend(aggs.iter().map(|a| PAcc::new(a.kind)));
        }
        // Least significant column first, each pass stable: an `i64`
        // column sorts by a word per group, any other by its gathered cells.
        let mut order: Vec<u32> = (0..reps.len() as u32).collect();
        for c in keys.cols.iter().rev() {
            if c.ints.is_some() {
                // A word and the group's place so far, in one `u128`: no two
                // are equal, so the unstable sort is the stable one.
                let mut words: Vec<u128> = (order.iter().enumerate())
                    .map(|(at, &g)| c.int_word(reps[g as usize]) << 31 | at as u128)
                    .collect();
                words.sort_unstable();
                order = (words.iter())
                    .map(|w| order[(*w as u32 & !(1 << 31)) as usize])
                    .collect();
            } else {
                let col = gather_column(c.table, c.col, &reps);
                order.sort_by(|&a, &b| Cell::of(&col, a as usize).cmp(Cell::of(&col, b as usize)));
            }
        }
        let segments = (order.chunks(SEGMENT_ROWS))
            .map(|part| {
                let mut columns: Vec<Column> = (keys.cols.iter())
                    .map(|c| {
                        let ids: Vec<u32> = part.iter().map(|&g| reps[g as usize]).collect();
                        gather_column(c.table, c.col, &ids)
                    })
                    .collect();
                for (a, &dtype) in agg_types.iter().enumerate() {
                    let mut col = Column::for_type(dtype);
                    col.reserve(part.len());
                    for &g in part {
                        let acc = &mut accs[g as usize * self.width + a];
                        col.push(&std::mem::replace(acc, PAcc::Count(0)).finish());
                    }
                    columns.push(col);
                }
                Arc::new(Segment::seal(columns, part.len()))
            })
            .collect();
        let key_types = keys.cols.iter().map(|c| c.table.dtypes[c.col]);
        ColumnTable {
            dtypes: key_types.chain(agg_types.iter().copied()).collect(),
            segments,
            rows: reps.len(),
        }
    }
}

/// The argument columns of the calls that have one, in order: what
/// [`GroupTable::fold`] reads through its `args`.
pub(crate) fn arg_cols(aggs: &[AggSpec]) -> Vec<usize> {
    aggs.iter().filter_map(|a| a.col).collect()
}

/// Merges the per-worker group tables partition by partition, on up to
/// `workers` threads (inline when the groups are few).
pub(crate) fn merge_groups(
    partials: Vec<Result<GroupTable, StorageError>>,
    keys: &KeyCols<'_>,
    workers: usize,
) -> Result<GroupTable, StorageError> {
    let tables: Vec<GroupTable> = partials.into_iter().collect::<Result<_, _>>()?;
    let width = tables[0].width;
    let groups = tables
        .iter()
        .flat_map(|t| &t.parts)
        .map(|p| p.reps.len())
        .sum();
    let mut columns: Vec<Vec<Groups>> = Vec::new();
    for t in tables {
        columns.resize_with(t.parts.len(), Vec::new);
        for (p, part) in t.parts.into_iter().enumerate() {
            columns[p].push(part);
        }
    }
    let columns: Vec<Mutex<Vec<Groups>>> = columns.into_iter().map(Mutex::new).collect();
    let workers = worker_count(groups, workers, columns.len());
    let parts = run_chunks(columns.len(), workers, |p| {
        let mut taken = columns[p]
            .lock()
            .expect("no merge task panicked holding it");
        let mut list = std::mem::take(&mut *taken).into_iter();
        let mut merged = list.next().expect("one table per worker");
        for other in list {
            merged.merge(other, width, |a, b| keys.eq(a, keys, b))?;
        }
        Ok(merged)
    });
    Ok(GroupTable {
        parts: parts.into_iter().collect::<Result<_, StorageError>>()?,
        width,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::agg::AggKind;

    fn cell_hash(v: &Value) -> u64 {
        let mut c = Column::for_type(DataType::Int);
        c.push(v);
        Cell::of(&c, 0).hash()
    }

    #[test]
    fn equal_cells_hash_equal_across_types() {
        let dec = |s: &str| Value::Decimal(s.parse().unwrap());
        assert_eq!(cell_hash(&Value::Int(1)), cell_hash(&dec("1.00")));
        assert_eq!(cell_hash(&dec("2.5")), cell_hash(&dec("2.50")));
        assert_eq!(cell_hash(&Value::Int(-7)), cell_hash(&dec("-7.0")));
        assert_ne!(cell_hash(&Value::Int(2)), cell_hash(&dec("2.50")));
        assert_ne!(cell_hash(&Value::Null), cell_hash(&Value::Int(0)));
        assert_ne!(cell_hash(&Value::str("ab")), cell_hash(&Value::str("ab\0")));
        assert_eq!(cell_hash(&Value::Bool(true)), cell_hash(&Value::Bool(true)));
    }

    #[test]
    fn cells_order_and_compare_like_values() {
        let vals = [
            Value::Null,
            Value::Bool(false),
            Value::Int(-3),
            Value::Decimal("-2.50".parse().unwrap()),
            Value::Int(1),
            Value::Decimal("1.00".parse().unwrap()),
            Value::Date(Date::from_ymd(2000, 1, 2)),
            Value::Time(tpcds_types::Time::from_hms(1, 2, 3)),
            Value::str("a"),
            Value::str("b"),
        ];
        let mut col = Column::for_type(DataType::Int);
        vals.iter().for_each(|v| col.push(v));
        for (i, a) in vals.iter().enumerate() {
            for (j, b) in vals.iter().enumerate() {
                let (x, y) = (Cell::of(&col, i), Cell::of(&col, j));
                assert_eq!(x.cmp(y), a.sort_cmp(b), "{a:?} vs {b:?}");
                assert_eq!(x.eq(y), a == b, "{a:?} vs {b:?}");
            }
        }
    }

    /// Two distinct keys handed the same hash stay two join buckets and
    /// two groups: only the equality tells them apart.
    #[test]
    fn colliding_keys_stay_apart() {
        // Rows 0..6 hold keys 0, 1, 0, 1, 2, 0; every hash is 42.
        let key = [0u32, 1, 0, 1, 2, 0];
        let same = |a: u32, b: u32| key[a as usize] == key[b as usize];
        let list: Vec<(u32, u64)> = (0..6).map(|r| (r, 42)).collect();
        let t = JoinTable::build(&list, same);
        assert_eq!(t.keys.len(), 3);
        assert_eq!(t.get(42, |b| same(b, 0)), Some(&[0, 2, 5][..]));
        assert_eq!(t.get(42, |b| same(b, 1)), Some(&[1, 3][..]));
        assert_eq!(t.get(42, |b| same(b, 4)), Some(&[4][..]));
        assert_eq!(t.get(7, |b| same(b, 0)), None);

        let count = [AggSpec {
            kind: AggKind::CountStar,
            col: None,
        }];
        let fill = |rows: &[u32]| {
            let mut g = GroupTable::new(1, 1);
            for &r in rows {
                g.group(42, r, &count, same)[0].update(None).unwrap();
            }
            g.parts.pop().unwrap()
        };
        let mut g = fill(&[3, 4, 5]);
        g.merge(fill(&[0, 1, 2]), 1, same).unwrap();
        assert_eq!(g.reps, [1, 4, 0], "each group keeps its lowest row");
        let counts: Vec<Value> = g.accs.into_iter().map(PAcc::finish).collect();
        assert_eq!(counts, [Value::Int(2), Value::Int(1), Value::Int(3)]);
    }

    #[test]
    fn tables_grow_past_their_capacity() {
        let mut t = KeyTable::with_capacity(0);
        for i in 0..10_000u64 {
            let h = avalanche(i);
            assert_eq!(t.entry(h, |e| e as u64 == i), (i as usize, true));
        }
        for i in 0..10_000u64 {
            assert_eq!(t.find(avalanche(i), |e| e as u64 == i), Some(i as usize));
        }
    }
}
