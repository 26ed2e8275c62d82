//! Vectorized expression kernels over 64k-row segments — the one
//! evaluator for predicates, projections, sort keys and join residuals.
//!
//! [`Expr`] is the compiled, subquery-free form of the engine's scalar
//! expression AST. Evaluation is batch-at-a-time over one morsel of a
//! [`Segment`]: columns are borrowed, a subtree that reads no column is
//! evaluated once, and a comparison leaf of a column against constants
//! runs a loop pre-resolved for that (buffer, constant type) pair
//! ([`Probe`]); every other operand shape runs the generic per-value loop.
//!
//! The engine's row-at-a-time evaluator is the correctness oracle; both
//! paths call the *same* scalar functions (`tpcds_types::scalar`). The one
//! batch-specific subtlety is error timing: the row path stops at the
//! first row whose expression errors, while a kernel evaluates whole
//! vectors eagerly. Kernels therefore **defer** per-row errors
//! ([`Evaled`]) and mask them wherever the row path would never have
//! evaluated that subexpression (short-circuit AND/OR, untaken CASE arms,
//! IN-list items after a hit, rows a filter rejects).

use crate::batch::Batch;
use crate::column::{Bitmap, Column, ColumnData};
use crate::morsel::{emit_counters, morsels_of, run_chunks, worker_count, ScanStats};
use crate::pred::{CmpKind, P_FALSE, P_NULL, P_TRUE};
use crate::segment::{ColumnTable, ColumnTableBuilder, Segment, SEGMENT_ROWS};
use crate::StorageError;
use std::cmp::Ordering;
use std::collections::{BTreeMap, HashSet};
use std::sync::{Arc, Mutex};
use tpcds_types::scalar;
use tpcds_types::{like_match, ArithOp, DataType, Date, Decimal, Row, ScalarFunc, Value};

/// A compiled scalar expression over the columns of one input relation.
///
/// Mirrors the engine's expression AST minus subqueries and outer-column
/// references (the engine refuses to compile those shapes).
#[derive(Clone, Debug)]
pub enum Expr {
    /// Input column by index.
    Col(usize),
    /// A literal constant.
    Lit(Value),
    /// `l <op> r` under `Value::sql_cmp` semantics.
    Cmp(CmpKind, Box<Expr>, Box<Expr>),
    /// Kleene AND (short-circuit masking matches the row path).
    And(Box<Expr>, Box<Expr>),
    /// Kleene OR (short-circuit masking matches the row path).
    Or(Box<Expr>, Box<Expr>),
    /// Kleene NOT.
    Not(Box<Expr>),
    /// Arithmetic via [`tpcds_types::scalar::arith`].
    Arith(ArithOp, Box<Expr>, Box<Expr>),
    /// Unary minus via [`tpcds_types::scalar::neg`].
    Neg(Box<Expr>),
    /// `e IS [NOT] NULL`; the bool is the NOT.
    IsNull(Box<Expr>, bool),
    /// `e [NOT] LIKE pattern`; the bool is the NOT.
    Like(Box<Expr>, Box<Expr>, bool),
    /// `e [NOT] IN (items…)`; the bool is the NOT. Items are consumed
    /// lazily per row, like the row path.
    InList(Box<Expr>, Vec<Expr>, bool),
    /// `e [NOT] BETWEEN lo AND hi`; the bool is the NOT.
    Between(Box<Expr>, Box<Expr>, Box<Expr>, bool),
    /// Simple or searched CASE.
    Case {
        /// Simple-CASE operand (`CASE x WHEN …`); `None` for searched.
        operand: Option<Box<Expr>>,
        /// `(WHEN condition, THEN result)` pairs in order.
        branches: Vec<(Expr, Expr)>,
        /// `ELSE` result; missing means NULL.
        else_branch: Option<Box<Expr>>,
    },
    /// `CAST(e AS ty)` via [`tpcds_types::scalar::cast`].
    Cast(Box<Expr>, DataType),
    /// Scalar function call via [`tpcds_types::scalar::scalar_func`].
    Func(ScalarFunc, Vec<Expr>),
    /// `l || r` via [`tpcds_types::scalar::concat`].
    Concat(Box<Expr>, Box<Expr>),
    /// Membership of the key tuple in a constant set built once — a
    /// subquery's result — under the NULL rules of the given [`SetTest`];
    /// the bool is the NOT.
    InSet(Vec<Expr>, Arc<KeySet>, SetTest, bool),
}

/// Which SQL construct an [`Expr::InSet`] answers. They differ only in
/// what a NULL does.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SetTest {
    /// `x IN (subquery)`: a NULL operand is UNKNOWN, and so is a miss
    /// against a set that contained a NULL.
    In,
    /// `EXISTS (… WHERE outer = inner …)` probed by its outer keys: a NULL
    /// key equals nothing, on either side, so it is simply a miss.
    Exists,
}

/// The distinct non-NULL key tuples a subquery produced, built once and
/// shared by every morsel that probes it. Keys compare like `Value`
/// equality (`1 = 1.0`; values of different kinds never match), which is
/// the rule the row interpreter's per-row evaluation applies — it probes
/// this same type.
#[derive(Debug)]
pub struct KeySet {
    keys: Keys,
    has_null: bool,
}

/// Single integer or date keys — surrogate keys, in practice — are kept
/// sorted so an `i64` or date buffer probes them without boxing a value.
#[derive(Debug)]
enum Keys {
    Ints(Vec<i64>),
    Dates(Vec<Date>),
    Rows(HashSet<Row>),
}

impl KeySet {
    /// The set of `rows`; a row with a NULL in it is dropped and
    /// remembered ([`SetTest::In`] needs to know).
    pub fn new(mut rows: Vec<Row>) -> KeySet {
        let before = rows.len();
        rows.retain(|r| !r.iter().any(Value::is_null));
        let has_null = rows.len() < before;
        /// Every row as one `pick`ed value, sorted and distinct.
        fn single<T: Ord>(rows: &[Row], pick: fn(&Value) -> Option<T>) -> Option<Vec<T>> {
            let picked = rows.iter().map(|r| match r.as_slice() {
                [v] => pick(v),
                _ => None,
            });
            let mut ks = picked.collect::<Option<Vec<T>>>()?;
            ks.sort_unstable();
            ks.dedup();
            Some(ks)
        }
        let keys = if let Some(ks) = single(&rows, Value::as_int) {
            Keys::Ints(ks)
        } else if let Some(ks) = single(&rows, Value::as_date) {
            Keys::Dates(ks)
        } else {
            Keys::Rows(rows.into_iter().collect())
        };
        KeySet { keys, has_null }
    }

    /// Whether the NULL-free `key` is in the set.
    fn contains(&self, key: &[Value]) -> bool {
        match (&self.keys, key) {
            (Keys::Ints(ks), [Value::Int(x)]) => ks.binary_search(x).is_ok(),
            (Keys::Ints(ks), [Value::Decimal(d)]) => ks
                .binary_search_by(|k| Decimal::from_int(*k).cmp(d))
                .is_ok(),
            (Keys::Dates(ks), [Value::Date(d)]) => ks.binary_search(d).is_ok(),
            (Keys::Rows(ks), key) => ks.contains(key),
            _ => false,
        }
    }

    /// The verdict of `test` for one key tuple before any NOT; `None` is
    /// UNKNOWN.
    pub fn test(&self, test: SetTest, key: &[Value]) -> Option<bool> {
        let null_key = key.iter().any(Value::is_null);
        self.verdict(test, (!null_key).then(|| self.contains(key)))
    }

    /// The NULL rules: what `test` makes of a hit, a miss, or (`None`) a
    /// key with a NULL in it.
    fn verdict(&self, test: SetTest, hit: Option<bool>) -> Option<bool> {
        match (test, hit) {
            (SetTest::In, None) => None,
            (SetTest::In, Some(false)) if self.has_null => None,
            (SetTest::Exists, None) => Some(false),
            (_, hit) => hit,
        }
    }

    /// [`KeySet::test`] of one segment column from row `start` on into
    /// `t`, when the keys have a sorted form that column's buffer can
    /// probe natively; `false` = no such form, `t` untouched.
    fn test_column(
        &self,
        test: SetTest,
        negated: bool,
        col: &Column,
        start: usize,
        t: &mut [u8],
    ) -> bool {
        fn probe(
            t: &mut [u8],
            on: [u8; 3],
            nulls: &Bitmap,
            start: usize,
            hit: impl Fn(usize) -> bool,
        ) {
            for (j, o) in t.iter_mut().enumerate() {
                let i = start + j;
                *o = on[if nulls.get(i) {
                    0
                } else {
                    1 + usize::from(hit(i))
                }];
            }
        }
        // What a NULL cell, a miss and a hit read as.
        let on = [None, Some(false), Some(true)]
            .map(|hit| (self.verdict(test, hit)).map_or(P_NULL, |b| tri_u8(b != negated)));
        match (&self.keys, &col.data) {
            (Keys::Ints(ks), ColumnData::I64(buf)) => probe(t, on, &col.nulls, start, |i| {
                ks.binary_search(&buf[i]).is_ok()
            }),
            (Keys::Dates(ks), ColumnData::Date(buf)) => probe(t, on, &col.nulls, start, |i| {
                ks.binary_search(&buf[i]).is_ok()
            }),
            _ => return false,
        }
        true
    }
}

/// A typed batch of values: a borrowed window of a segment column, dense
/// native buffers with a null bitmap for computed numbers, a tri-state
/// byte vector for boolean subtrees, a single constant, and boxed values
/// as the fallback.
enum Vect<'a> {
    /// The segment column from row `.1` on.
    Col(&'a Column, usize),
    I64(Vec<i64>, Bitmap),
    Dec(Vec<Decimal>, Bitmap),
    Tri(Vec<u8>),
    Const(Value),
    Val(Vec<Value>),
}

impl Vect<'_> {
    /// Materializes element `i` as a [`Value`].
    fn get(&self, i: usize) -> Value {
        match self {
            Vect::Col(col, start) => col.value_at(start + i),
            Vect::I64(buf, n) => tern(n.get(i), Value::Int(buf[i])),
            Vect::Dec(buf, n) => tern(n.get(i), Value::Decimal(buf[i])),
            Vect::Tri(t) => match t[i] {
                P_TRUE => Value::Bool(true),
                P_FALSE => Value::Bool(false),
                _ => Value::Null,
            },
            Vect::Const(v) => v.clone(),
            Vect::Val(vs) => vs[i].clone(),
        }
    }

    /// Whether element `i` is NULL, without materializing it.
    fn is_null_at(&self, i: usize) -> bool {
        match self {
            Vect::Col(col, start) => col.nulls.get(start + i),
            Vect::I64(_, n) | Vect::Dec(_, n) => n.get(i),
            Vect::Tri(t) => t[i] == P_NULL,
            Vect::Const(v) => v.is_null(),
            Vect::Val(vs) => vs[i].is_null(),
        }
    }
}

#[inline]
fn tern(null: bool, v: Value) -> Value {
    if null {
        Value::Null
    } else {
        v
    }
}

#[inline]
fn tri_u8(b: bool) -> u8 {
    if b {
        P_TRUE
    } else {
        P_FALSE
    }
}

/// The tri-state a value has when used as a condition: exactly the row
/// path's `as_bool()` plus its `== Bool(false)` / `== Bool(true)`
/// short-circuit tests (non-boolean, non-NULL values act as UNKNOWN).
#[inline]
fn value_tri(v: &Value) -> u8 {
    match v {
        Value::Bool(true) => P_TRUE,
        Value::Bool(false) => P_FALSE,
        _ => P_NULL,
    }
}

/// Renders any vector as tri-state condition bytes.
fn into_tri(v: Vect<'_>, len: usize) -> Vec<u8> {
    match v {
        Vect::Tri(t) => t,
        Vect::Const(c) => vec![value_tri(&c); len],
        _ => (0..len).map(|i| value_tri(&v.get(i))).collect(),
    }
}

/// A batch result: the value vector plus **deferred** per-row errors
/// (local row index → message). An errored row holds a NULL placeholder
/// in `v`; consumers must either propagate the error or be a context in
/// which the row path provably never evaluates this subexpression.
struct Evaled<'a> {
    v: Vect<'a>,
    errs: BTreeMap<usize, String>,
}

impl<'a> Evaled<'a> {
    fn ok(v: Vect<'a>) -> Evaled<'a> {
        Evaled {
            v,
            errs: BTreeMap::new(),
        }
    }
}

/// Merges `src` errors into `dst`, keeping `dst`'s message on conflict
/// (callers merge in row-path evaluation order, so first-in wins).
fn merge_errs(dst: &mut BTreeMap<usize, String>, src: BTreeMap<usize, String>) {
    for (k, v) in src {
        dst.entry(k).or_insert(v);
    }
}

/// Every operand's deferred errors, the earliest operand's message kept
/// per row.
fn first_errs(evs: &[Evaled<'_>]) -> BTreeMap<usize, String> {
    let mut errs = BTreeMap::new();
    for e in evs {
        for (&j, m) in &e.errs {
            errs.entry(j).or_insert_with(|| m.clone());
        }
    }
    errs
}

/// Pre-resolved i64 access for the arithmetic/comparison fast paths:
/// either a dense buffer with its bitmap or a constant.
enum I64Src<'a> {
    /// The buffer from its window's first row on, and the bitmap with the
    /// offset of that row in it.
    Buf(&'a [i64], &'a Bitmap, usize),
    Cst(Option<i64>),
}

impl I64Src<'_> {
    #[inline]
    fn at(&self, i: usize) -> Option<i64> {
        match self {
            I64Src::Buf(buf, n, off) => {
                if n.get(off + i) {
                    None
                } else {
                    Some(buf[i])
                }
            }
            I64Src::Cst(o) => *o,
        }
    }
}

fn i64_src<'v>(v: &'v Vect<'_>) -> Option<I64Src<'v>> {
    match v {
        Vect::Col(col, start) => match &col.data {
            ColumnData::I64(buf) => Some(I64Src::Buf(&buf[*start..], &col.nulls, *start)),
            _ => None,
        },
        Vect::I64(buf, n) => Some(I64Src::Buf(buf, n, 0)),
        Vect::Const(Value::Int(x)) => Some(I64Src::Cst(Some(*x))),
        Vect::Const(Value::Null) => Some(I64Src::Cst(None)),
        _ => None,
    }
}

/// How one segment column compares with one constant, resolved once per
/// morsel from (buffer variant, constant type) so the per-row loop does no
/// type dispatch. Every arm is `Value::sql_cmp` specialized.
enum Probe<'a> {
    /// `sql_cmp` is `None` for every (even non-NULL) row: NULL constant or
    /// incomparable types.
    Incomparable,
    /// i64 buffer vs integer.
    IntInt(i64),
    /// i64 buffer vs decimal (each cell widened).
    IntDec(Decimal),
    /// Decimal buffer vs number (an integer pre-widened).
    DecDec(Decimal),
    /// Date buffer vs date (a string pre-parsed; a parse failure is
    /// `Incomparable`, exactly like `sql_cmp`).
    DateDate(Date),
    /// String buffer vs string.
    StrStr(&'a str),
    /// String buffer vs date: each cell is parsed, per `sql_cmp`.
    StrDate(Date),
    /// Boxed buffer: generic `sql_cmp` against the constant.
    Other(&'a Value),
}

fn probe<'a>(col: &Column, k: &'a Value) -> Probe<'a> {
    if k.is_null() {
        return Probe::Incomparable;
    }
    match (&col.data, k) {
        (ColumnData::I64(_), Value::Int(x)) => Probe::IntInt(*x),
        (ColumnData::I64(_), Value::Decimal(d)) => Probe::IntDec(*d),
        (ColumnData::Decimal(_), Value::Decimal(d)) => Probe::DecDec(*d),
        (ColumnData::Decimal(_), Value::Int(x)) => Probe::DecDec(Decimal::from_int(*x)),
        (ColumnData::Date(_), Value::Date(d)) => Probe::DateDate(*d),
        (ColumnData::Date(_), Value::Str(s)) => match s.parse::<Date>() {
            Ok(d) => Probe::DateDate(d),
            Err(_) => Probe::Incomparable,
        },
        (ColumnData::Str(_), Value::Str(s)) => Probe::StrStr(s),
        (ColumnData::Str(_), Value::Date(d)) => Probe::StrDate(*d),
        (ColumnData::Other(_), v) => Probe::Other(v),
        _ => Probe::Incomparable,
    }
}

/// `sql_cmp(column[i], constant)` through a pre-resolved probe.
#[inline]
fn cmp_at(col: &Column, p: &Probe<'_>, i: usize) -> Option<Ordering> {
    if col.nulls.get(i) {
        return None;
    }
    match (p, &col.data) {
        (Probe::Incomparable, _) => None,
        (Probe::IntInt(x), ColumnData::I64(buf)) => Some(buf[i].cmp(x)),
        (Probe::IntDec(d), ColumnData::I64(buf)) => Some(Decimal::from_int(buf[i]).cmp(d)),
        (Probe::DecDec(d), ColumnData::Decimal(buf)) => Some(buf[i].cmp(d)),
        (Probe::DateDate(d), ColumnData::Date(buf)) => Some(buf[i].cmp(d)),
        (Probe::StrStr(s), ColumnData::Str(buf)) => Some(buf[i].as_ref().cmp(*s)),
        (Probe::StrDate(d), ColumnData::Str(buf)) => {
            buf[i].parse::<Date>().ok().map(|pd| pd.cmp(d))
        }
        (Probe::Other(v), ColumnData::Other(buf)) => buf[i].sql_cmp(v),
        // A probe is only built for the matching buffer variant.
        _ => unreachable!("probe/buffer variant mismatch"),
    }
}

/// Sets `t[j]` from `test(start + j)` wherever the column is not NULL.
#[inline]
fn fill(t: &mut [u8], nulls: &Bitmap, start: usize, test: impl Fn(usize) -> bool) {
    for (j, o) in t.iter_mut().enumerate() {
        if !nulls.get(start + j) {
            *o = tri_u8(test(start + j));
        }
    }
}

/// `col <op> k` into `t` (all `P_NULL` on entry). The common pairs get a
/// loop of their own: no per-row `Value`, no per-row dispatch.
fn cmp_const(op: CmpKind, col: &Column, start: usize, k: &Value, t: &mut [u8]) {
    let p = probe(col, k);
    match (&p, &col.data) {
        (Probe::Incomparable, _) => {}
        (Probe::IntInt(x), ColumnData::I64(buf)) => {
            fill(t, &col.nulls, start, |i| op.test(buf[i].cmp(x)))
        }
        (Probe::DecDec(d), ColumnData::Decimal(buf)) => {
            fill(t, &col.nulls, start, |i| op.test(buf[i].cmp(d)))
        }
        (Probe::DateDate(d), ColumnData::Date(buf)) => {
            fill(t, &col.nulls, start, |i| op.test(buf[i].cmp(d)))
        }
        (Probe::StrStr(s), ColumnData::Str(buf)) => {
            fill(t, &col.nulls, start, |i| op.test(buf[i].as_ref().cmp(*s)))
        }
        _ => {
            for (j, o) in t.iter_mut().enumerate() {
                if let Some(ord) = cmp_at(col, &p, start + j) {
                    *o = tri_u8(op.test(ord));
                }
            }
        }
    }
}

/// `[NOT] BETWEEN` into `t` (all `P_NULL` on entry) from each row's two
/// bound comparisons: UNKNOWN unless both are defined.
#[inline]
fn between(
    t: &mut [u8],
    negated: bool,
    bounds: impl Fn(usize) -> (Option<Ordering>, Option<Ordering>),
) {
    for (i, o) in t.iter_mut().enumerate() {
        if let (Some(lo), Some(hi)) = bounds(i) {
            let inside = lo != Ordering::Less && hi != Ordering::Greater;
            *o = tri_u8(inside != negated);
        }
    }
}

/// `col [NOT] IN (items…)` over constants into `t` (all `P_NULL` on
/// entry): a NULL item turns a miss into UNKNOWN.
fn in_consts(col: &Column, start: usize, items: &[&Value], negated: bool, t: &mut [u8]) {
    let probes: Vec<(Probe<'_>, bool)> =
        (items.iter().map(|k| (probe(col, k), k.is_null()))).collect();
    for (j, o) in t.iter_mut().enumerate() {
        let i = start + j;
        if col.nulls.get(i) {
            continue;
        }
        let mut saw_null = false;
        let mut hit = false;
        for (p, item_null) in &probes {
            match cmp_at(col, p, i) {
                Some(Ordering::Equal) => {
                    hit = true;
                    break;
                }
                None if *item_null => saw_null = true,
                _ => {}
            }
        }
        *o = match (hit, saw_null) {
            (true, _) => tri_u8(!negated),
            (false, true) => P_NULL,
            (false, false) => tri_u8(negated),
        };
    }
}

/// `col [NOT] LIKE pattern` over a constant pattern into `t` (all
/// `P_NULL` on entry); UNKNOWN unless both sides are strings.
fn like_const(col: &Column, start: usize, pattern: &Value, negated: bool, t: &mut [u8]) {
    let Some(pat) = pattern.as_str() else {
        return;
    };
    match &col.data {
        ColumnData::Str(buf) => fill(t, &col.nulls, start, |i| {
            like_match(&buf[i], pat) != negated
        }),
        ColumnData::Other(buf) => {
            for (j, o) in t.iter_mut().enumerate() {
                if let Some(s) = buf[start + j].as_str() {
                    *o = tri_u8(like_match(s, pat) != negated);
                }
            }
        }
        _ => {}
    }
}

impl Expr {
    /// `col <op> lit`, the commonest filter.
    pub fn cmp(op: CmpKind, col: usize, lit: Value) -> Expr {
        Expr::Cmp(op, Box::new(Expr::Col(col)), Box::new(Expr::Lit(lit)))
    }

    /// Evaluates the expression over rows `start .. start+len`, returning
    /// the batch with deferred errors. A subtree that reads no column is
    /// evaluated over one row and the value stands for all of them —
    /// unless that errors: then it stays per-row, so the error still fires
    /// only where a consumer actually evaluates the row.
    fn eval_vect<'a>(&self, input: &'a Segment, start: usize, len: usize) -> Evaled<'a> {
        match self {
            Expr::Col(ci) => return Evaled::ok(Vect::Col(&input.columns[*ci], start)),
            Expr::Lit(v) => return Evaled::ok(Vect::Const(v.clone())),
            _ => {}
        }
        let mut reads_column = false;
        self.visit_cols(&mut |_| reads_column = true);
        if !reads_column {
            let one = self.eval_node(input, start, 1);
            if one.errs.is_empty() {
                return Evaled::ok(Vect::Const(one.v.get(0)));
            }
        }
        self.eval_node(input, start, len)
    }

    /// [`Expr::eval_vect`] for an operator node: operands first, then the
    /// loop their representation selects.
    fn eval_node<'a>(&self, input: &'a Segment, start: usize, len: usize) -> Evaled<'a> {
        match self {
            Expr::Col(_) | Expr::Lit(_) => unreachable!("leaves are eval_vect's"),
            Expr::Cmp(op, l, r) => {
                let le = l.eval_vect(input, start, len);
                let re = r.eval_vect(input, start, len);
                let mut errs = le.errs;
                merge_errs(&mut errs, re.errs);
                let mut t = vec![P_NULL; len];
                match (&le.v, &re.v) {
                    (Vect::Col(col, s), Vect::Const(k)) => cmp_const(*op, col, *s, k, &mut t),
                    (Vect::Const(k), Vect::Col(col, s)) => cmp_const(op.flip(), col, *s, k, &mut t),
                    (x, y) => match (i64_src(x), i64_src(y)) {
                        (Some(x), Some(y)) => {
                            for (i, o) in t.iter_mut().enumerate() {
                                if let (Some(a), Some(b)) = (x.at(i), y.at(i)) {
                                    *o = tri_u8(op.test(a.cmp(&b)));
                                }
                            }
                        }
                        _ => {
                            for (i, o) in t.iter_mut().enumerate() {
                                if let Some(ord) = x.get(i).sql_cmp(&y.get(i)) {
                                    *o = tri_u8(op.test(ord));
                                }
                            }
                        }
                    },
                }
                Evaled {
                    v: Vect::Tri(t),
                    errs,
                }
            }
            Expr::And(l, r) => {
                let le = l.eval_vect(input, start, len);
                let re = r.eval_vect(input, start, len);
                let mut t = into_tri(le.v, len);
                let mut errs = le.errs;
                // The row path only evaluates the rhs when the lhs is not
                // FALSE — rhs errors on FALSE-lhs rows never fire.
                for (j, m) in re.errs {
                    if t[j] != P_FALSE {
                        errs.entry(j).or_insert(m);
                    }
                }
                for (o, b) in t.iter_mut().zip(into_tri(re.v, len)) {
                    *o = match (*o, b) {
                        (P_FALSE, _) | (_, P_FALSE) => P_FALSE,
                        (P_TRUE, P_TRUE) => P_TRUE,
                        _ => P_NULL,
                    };
                }
                Evaled {
                    v: Vect::Tri(t),
                    errs,
                }
            }
            Expr::Or(l, r) => {
                let le = l.eval_vect(input, start, len);
                let re = r.eval_vect(input, start, len);
                let mut t = into_tri(le.v, len);
                let mut errs = le.errs;
                // Row path short-circuits on a TRUE lhs.
                for (j, m) in re.errs {
                    if t[j] != P_TRUE {
                        errs.entry(j).or_insert(m);
                    }
                }
                for (o, b) in t.iter_mut().zip(into_tri(re.v, len)) {
                    *o = match (*o, b) {
                        (P_TRUE, _) | (_, P_TRUE) => P_TRUE,
                        (P_FALSE, P_FALSE) => P_FALSE,
                        _ => P_NULL,
                    };
                }
                Evaled {
                    v: Vect::Tri(t),
                    errs,
                }
            }
            Expr::Not(c) => {
                let ce = c.eval_vect(input, start, len);
                let mut t = into_tri(ce.v, len);
                for o in t.iter_mut() {
                    *o = match *o {
                        P_TRUE => P_FALSE,
                        P_FALSE => P_TRUE,
                        _ => P_NULL,
                    };
                }
                Evaled {
                    v: Vect::Tri(t),
                    errs: ce.errs,
                }
            }
            Expr::Arith(op, l, r) => {
                let le = l.eval_vect(input, start, len);
                let re = r.eval_vect(input, start, len);
                let mut errs = le.errs;
                merge_errs(&mut errs, re.errs);
                if let (Some(x), Some(y)) = (i64_src(&le.v), i64_src(&re.v)) {
                    return arith_i64(*op, &x, &y, len, errs);
                }
                let mut vals = Vec::with_capacity(len);
                for i in 0..len {
                    if errs.contains_key(&i) {
                        vals.push(Value::Null);
                        continue;
                    }
                    match scalar::arith(*op, &le.v.get(i), &re.v.get(i)) {
                        Ok(v) => vals.push(v),
                        Err(m) => {
                            errs.insert(i, m);
                            vals.push(Value::Null);
                        }
                    }
                }
                Evaled {
                    v: Vect::Val(vals),
                    errs,
                }
            }
            Expr::Neg(c) => {
                let ce = c.eval_vect(input, start, len);
                let mut errs = ce.errs;
                let mut vals = Vec::with_capacity(len);
                for i in 0..len {
                    if errs.contains_key(&i) {
                        vals.push(Value::Null);
                        continue;
                    }
                    match scalar::neg(&ce.v.get(i)) {
                        Ok(v) => vals.push(v),
                        Err(m) => {
                            errs.insert(i, m);
                            vals.push(Value::Null);
                        }
                    }
                }
                Evaled {
                    v: Vect::Val(vals),
                    errs,
                }
            }
            Expr::IsNull(c, negated) => {
                let ce = c.eval_vect(input, start, len);
                let t = (0..len)
                    .map(|i| tri_u8(ce.v.is_null_at(i) != *negated))
                    .collect();
                Evaled {
                    v: Vect::Tri(t),
                    errs: ce.errs,
                }
            }
            Expr::Like(l, p, negated) => {
                let le = l.eval_vect(input, start, len);
                let pe = p.eval_vect(input, start, len);
                let mut errs = le.errs;
                merge_errs(&mut errs, pe.errs);
                let mut t = vec![P_NULL; len];
                if let (Vect::Col(col, s), Vect::Const(pat)) = (&le.v, &pe.v) {
                    like_const(col, *s, pat, *negated, &mut t);
                } else {
                    for (i, o) in t.iter_mut().enumerate() {
                        let lv = le.v.get(i);
                        let pv = pe.v.get(i);
                        if let (Some(s), Some(pat)) = (lv.as_str(), pv.as_str()) {
                            *o = tri_u8(like_match(s, pat) != *negated);
                        }
                    }
                }
                Evaled {
                    v: Vect::Tri(t),
                    errs,
                }
            }
            Expr::InList(op_e, items, negated) => {
                let oe = op_e.eval_vect(input, start, len);
                let mut errs = oe.errs;
                // Items are batch-evaluated eagerly but *consumed* lazily
                // per row below, so an item error past a hit — or past a
                // NULL operand — is dropped exactly like the row path,
                // which never evaluates that item.
                let its: Vec<Evaled> = items
                    .iter()
                    .map(|it| it.eval_vect(input, start, len))
                    .collect();
                let mut t = vec![P_NULL; len];
                let consts: Option<Vec<&Value>> = (its.iter())
                    .map(|it| match &it.v {
                        Vect::Const(k) => Some(k),
                        _ => None,
                    })
                    .collect();
                if let (Vect::Col(col, s), Some(ks)) = (&oe.v, &consts) {
                    in_consts(col, *s, ks, *negated, &mut t);
                    return Evaled {
                        v: Vect::Tri(t),
                        errs,
                    };
                }
                for (j, o) in t.iter_mut().enumerate() {
                    if errs.contains_key(&j) {
                        continue; // operand errored: stays UNKNOWN, error kept
                    }
                    let v = oe.v.get(j);
                    if v.is_null() {
                        continue; // NULL operand: items never consumed
                    }
                    let mut saw_null = false;
                    let mut res: Option<u8> = None;
                    for it in &its {
                        if let Some(m) = it.errs.get(&j) {
                            errs.entry(j).or_insert_with(|| m.clone());
                            res = Some(P_NULL);
                            break;
                        }
                        let iv = it.v.get(j);
                        match v.sql_cmp(&iv) {
                            Some(Ordering::Equal) => {
                                res = Some(tri_u8(!*negated));
                                break;
                            }
                            None if iv.is_null() => saw_null = true,
                            _ => {}
                        }
                    }
                    *o = res.unwrap_or(if saw_null { P_NULL } else { tri_u8(*negated) });
                }
                Evaled {
                    v: Vect::Tri(t),
                    errs,
                }
            }
            Expr::Between(v_e, lo_e, hi_e, negated) => {
                let ve = v_e.eval_vect(input, start, len);
                let le = lo_e.eval_vect(input, start, len);
                let he = hi_e.eval_vect(input, start, len);
                let mut errs = ve.errs;
                merge_errs(&mut errs, le.errs);
                merge_errs(&mut errs, he.errs);
                let mut t = vec![P_NULL; len];
                if let (Vect::Col(col, s), Vect::Const(lo), Vect::Const(hi)) = (&ve.v, &le.v, &he.v)
                {
                    let (lo, hi) = (probe(col, lo), probe(col, hi));
                    between(&mut t, *negated, |i| {
                        (cmp_at(col, &lo, s + i), cmp_at(col, &hi, s + i))
                    });
                } else {
                    between(&mut t, *negated, |i| {
                        let v = ve.v.get(i);
                        (v.sql_cmp(&le.v.get(i)), v.sql_cmp(&he.v.get(i)))
                    });
                }
                Evaled {
                    v: Vect::Tri(t),
                    errs,
                }
            }
            Expr::Case {
                operand,
                branches,
                else_branch,
            } => {
                let mut errs: BTreeMap<usize, String> = BTreeMap::new();
                let mut decided = vec![false; len];
                let mut vals = vec![Value::Null; len];
                let op_ev = operand.as_ref().map(|o| o.eval_vect(input, start, len));
                if let Some(oe) = &op_ev {
                    for (&j, m) in &oe.errs {
                        errs.entry(j).or_insert_with(|| m.clone());
                        decided[j] = true;
                    }
                }
                for (cond, res) in branches {
                    if decided.iter().all(|d| *d) {
                        break;
                    }
                    let ce = cond.eval_vect(input, start, len);
                    let mut hits = Vec::new();
                    for (j, d) in decided.iter_mut().enumerate() {
                        if *d {
                            continue; // earlier branch took this row:
                                      // this condition never runs there
                        }
                        if let Some(m) = ce.errs.get(&j) {
                            errs.entry(j).or_insert_with(|| m.clone());
                            *d = true;
                            continue;
                        }
                        let hit = match &op_ev {
                            Some(oe) => oe.v.get(j).sql_cmp(&ce.v.get(j)) == Some(Ordering::Equal),
                            None => ce.v.get(j) == Value::Bool(true),
                        };
                        if hit {
                            hits.push(j);
                        }
                    }
                    if hits.is_empty() {
                        continue;
                    }
                    // Only the taken branch's result is consumed per row.
                    let re = res.eval_vect(input, start, len);
                    for j in hits {
                        if let Some(m) = re.errs.get(&j) {
                            errs.entry(j).or_insert_with(|| m.clone());
                        } else {
                            vals[j] = re.v.get(j);
                        }
                        decided[j] = true;
                    }
                }
                if let Some(eb) = else_branch {
                    if !decided.iter().all(|d| *d) {
                        let ee = eb.eval_vect(input, start, len);
                        for (j, d) in decided.iter_mut().enumerate() {
                            if *d {
                                continue;
                            }
                            if let Some(m) = ee.errs.get(&j) {
                                errs.entry(j).or_insert_with(|| m.clone());
                            } else {
                                vals[j] = ee.v.get(j);
                            }
                            *d = true;
                        }
                    }
                }
                Evaled {
                    v: Vect::Val(vals),
                    errs,
                }
            }
            Expr::Cast(c, ty) => {
                let ce = c.eval_vect(input, start, len);
                let mut errs = ce.errs;
                let mut vals = Vec::with_capacity(len);
                for i in 0..len {
                    if errs.contains_key(&i) {
                        vals.push(Value::Null);
                        continue;
                    }
                    match scalar::cast(ce.v.get(i), *ty) {
                        Ok(v) => vals.push(v),
                        Err(m) => {
                            errs.insert(i, m);
                            vals.push(Value::Null);
                        }
                    }
                }
                Evaled {
                    v: Vect::Val(vals),
                    errs,
                }
            }
            Expr::Func(f, args) => {
                let evs: Vec<Evaled> = args
                    .iter()
                    .map(|a| a.eval_vect(input, start, len))
                    .collect();
                let mut errs = first_errs(&evs);
                let mut vals = Vec::with_capacity(len);
                let mut argv: Vec<Value> = Vec::with_capacity(evs.len());
                for j in 0..len {
                    if errs.contains_key(&j) {
                        vals.push(Value::Null);
                        continue;
                    }
                    argv.clear();
                    argv.extend(evs.iter().map(|e| e.v.get(j)));
                    match scalar::scalar_func(*f, &argv) {
                        Ok(v) => vals.push(v),
                        Err(m) => {
                            errs.insert(j, m);
                            vals.push(Value::Null);
                        }
                    }
                }
                Evaled {
                    v: Vect::Val(vals),
                    errs,
                }
            }
            Expr::Concat(l, r) => {
                let le = l.eval_vect(input, start, len);
                let re = r.eval_vect(input, start, len);
                let mut errs = le.errs;
                merge_errs(&mut errs, re.errs);
                let mut vals = Vec::with_capacity(len);
                for i in 0..len {
                    if errs.contains_key(&i) {
                        vals.push(Value::Null);
                        continue;
                    }
                    vals.push(scalar::concat(&le.v.get(i), &re.v.get(i)));
                }
                Evaled {
                    v: Vect::Val(vals),
                    errs,
                }
            }
            Expr::InSet(keys, set, test, negated) => {
                let evs: Vec<Evaled> = keys
                    .iter()
                    .map(|k| k.eval_vect(input, start, len))
                    .collect();
                let mut t = vec![P_NULL; len];
                if let [Evaled {
                    v: Vect::Col(col, s),
                    ..
                }] = &evs[..]
                {
                    if set.test_column(*test, *negated, col, *s, &mut t) {
                        return Evaled::ok(Vect::Tri(t));
                    }
                }
                let errs = first_errs(&evs);
                let mut key: Vec<Value> = Vec::with_capacity(evs.len());
                for (j, o) in t.iter_mut().enumerate() {
                    if errs.contains_key(&j) {
                        continue;
                    }
                    key.clear();
                    key.extend(evs.iter().map(|e| e.v.get(j)));
                    if let Some(b) = set.test(*test, &key) {
                        *o = tri_u8(b != *negated);
                    }
                }
                Evaled {
                    v: Vect::Tri(t),
                    errs,
                }
            }
        }
    }

    /// Evaluates to one [`Value`] per row, or the first error in row
    /// order as `(local row index, message)` — the error the row path
    /// raises.
    pub fn eval_values(
        &self,
        input: &Segment,
        start: usize,
        len: usize,
    ) -> Result<Vec<Value>, (usize, String)> {
        let Evaled { v, errs } = self.eval_vect(input, start, len);
        if let Some((j, msg)) = errs.into_iter().next() {
            return Err((j, msg));
        }
        Ok((0..len).map(|i| v.get(i)).collect())
    }

    /// Evaluates as a predicate into tri-state bytes (strict-TRUE admits,
    /// like the row path's `== Bool(true)` match test) plus every
    /// deferred error by local row; an errored row reads FALSE.
    pub(crate) fn eval_cond(
        &self,
        input: &Segment,
        start: usize,
        len: usize,
    ) -> (Vec<u8>, BTreeMap<usize, String>) {
        let Evaled { v, errs } = self.eval_vect(input, start, len);
        let mut t = into_tri(v, len);
        for &j in errs.keys() {
            t[j] = P_FALSE;
        }
        (t, errs)
    }

    /// [`Expr::eval_cond`] into `out`, which is always fully filled, with
    /// only the first error in row order returned so callers can decide
    /// whether it survives (e.g. a LIMIT that stops before the erroring
    /// row).
    pub fn eval_tri(
        &self,
        input: &Segment,
        start: usize,
        len: usize,
        out: &mut Vec<u8>,
    ) -> Result<(), (usize, String)> {
        let (t, errs) = self.eval_cond(input, start, len);
        *out = t;
        errs.into_iter().next().map_or(Ok(()), Err)
    }

    /// Calls `f` with every input column the expression reads.
    pub fn visit_cols(&self, f: &mut impl FnMut(usize)) {
        match self {
            Expr::Col(c) => f(*c),
            Expr::Lit(_) => {}
            Expr::Not(a) | Expr::Neg(a) | Expr::IsNull(a, _) | Expr::Cast(a, _) => a.visit_cols(f),
            Expr::Cmp(_, a, b)
            | Expr::And(a, b)
            | Expr::Or(a, b)
            | Expr::Arith(_, a, b)
            | Expr::Like(a, b, _)
            | Expr::Concat(a, b) => {
                a.visit_cols(f);
                b.visit_cols(f);
            }
            Expr::Between(a, b, c, _) => {
                a.visit_cols(f);
                b.visit_cols(f);
                c.visit_cols(f);
            }
            Expr::InList(a, items, _) => {
                a.visit_cols(f);
                items.iter().for_each(|e| e.visit_cols(f));
            }
            Expr::Func(_, args) | Expr::InSet(args, ..) => {
                args.iter().for_each(|e| e.visit_cols(f))
            }
            Expr::Case {
                operand,
                branches,
                else_branch,
            } => {
                operand
                    .iter()
                    .chain(else_branch)
                    .for_each(|e| e.visit_cols(f));
                for (w, t) in branches {
                    w.visit_cols(f);
                    t.visit_cols(f);
                }
            }
        }
    }

    /// Best-effort output type, used to pick column buffers when a
    /// computed projection feeds [`par_project_table`]. A wrong hint is
    /// safe (the column promotes to a boxed buffer); a right `Int`/`Date`
    /// hint is what keeps computed sort keys u64-encodable.
    pub fn dtype_hint(&self, input: &[DataType]) -> DataType {
        match self {
            Expr::Col(ci) => input.get(*ci).copied().unwrap_or(DataType::Int),
            Expr::Lit(v) => v.data_type().unwrap_or(DataType::Int),
            Expr::Cmp(..)
            | Expr::And(..)
            | Expr::Or(..)
            | Expr::Not(..)
            | Expr::IsNull(..)
            | Expr::Like(..)
            | Expr::InList(..)
            | Expr::InSet(..)
            | Expr::Between(..) => DataType::Bool,
            Expr::Arith(op, l, r) => {
                if *op == ArithOp::Div {
                    return DataType::Decimal;
                }
                match (l.dtype_hint(input), r.dtype_hint(input)) {
                    (DataType::Date, DataType::Date) => DataType::Int,
                    (DataType::Date, _) | (_, DataType::Date) => DataType::Date,
                    (DataType::Decimal, _) | (_, DataType::Decimal) => DataType::Decimal,
                    _ => DataType::Int,
                }
            }
            Expr::Neg(c) => c.dtype_hint(input),
            Expr::Case {
                branches,
                else_branch,
                ..
            } => branches
                .first()
                .map(|(_, r)| r.dtype_hint(input))
                .or_else(|| else_branch.as_ref().map(|e| e.dtype_hint(input)))
                .unwrap_or(DataType::Int),
            Expr::Cast(_, ty) => *ty,
            Expr::Func(f, args) => match f {
                ScalarFunc::Substr | ScalarFunc::Lower | ScalarFunc::Upper => DataType::Str,
                ScalarFunc::Length => DataType::Int,
                _ => args
                    .first()
                    .map(|a| a.dtype_hint(input))
                    .unwrap_or(DataType::Int),
            },
            Expr::Concat(..) => DataType::Str,
        }
    }
}

/// The i64 arithmetic fast path: dense checked loops, no `Value` boxing.
fn arith_i64(
    op: ArithOp,
    x: &I64Src<'_>,
    y: &I64Src<'_>,
    len: usize,
    mut errs: BTreeMap<usize, String>,
) -> Evaled<'static> {
    match op {
        ArithOp::Add | ArithOp::Sub | ArithOp::Mul => {
            let sym = match op {
                ArithOp::Add => "+",
                ArithOp::Sub => "-",
                _ => "*",
            };
            let mut buf = Vec::with_capacity(len);
            let mut nulls = Bitmap::new();
            for i in 0..len {
                match (x.at(i), y.at(i)) {
                    (Some(a), Some(b)) => {
                        let res = match op {
                            ArithOp::Add => a.checked_add(b),
                            ArithOp::Sub => a.checked_sub(b),
                            _ => a.checked_mul(b),
                        };
                        match res {
                            Some(v) => {
                                buf.push(v);
                                nulls.push(false);
                            }
                            None => {
                                errs.entry(i)
                                    .or_insert_with(|| format!("integer overflow in {sym}"));
                                buf.push(0);
                                nulls.push(true);
                            }
                        }
                    }
                    _ => {
                        buf.push(0);
                        nulls.push(true);
                    }
                }
            }
            Evaled {
                v: Vect::I64(buf, nulls),
                errs,
            }
        }
        ArithOp::Div => {
            // Integer division widens to exact decimals; /0 is NULL.
            let mut buf = Vec::with_capacity(len);
            let mut nulls = Bitmap::new();
            for i in 0..len {
                let d = match (x.at(i), y.at(i)) {
                    (Some(a), Some(b)) => Decimal::from_int(a).checked_div(&Decimal::from_int(b)),
                    _ => None,
                };
                match d {
                    Some(d) => {
                        buf.push(d);
                        nulls.push(false);
                    }
                    None => {
                        buf.push(Decimal::ZERO);
                        nulls.push(true);
                    }
                }
            }
            Evaled {
                v: Vect::Dec(buf, nulls),
                errs,
            }
        }
        ArithOp::Mod => {
            let mut buf = Vec::with_capacity(len);
            let mut nulls = Bitmap::new();
            for i in 0..len {
                match (x.at(i), y.at(i)) {
                    (Some(a), Some(b)) if b != 0 => {
                        buf.push(a % b);
                        nulls.push(false);
                    }
                    _ => {
                        buf.push(0);
                        nulls.push(true);
                    }
                }
            }
            Evaled {
                v: Vect::I64(buf, nulls),
                errs,
            }
        }
    }
}

/// A first-error cell shared across kernel workers: keeps the error with
/// the **lowest key** (global row order), which is the error a serial
/// row-at-a-time run would raise first.
#[derive(Debug, Default)]
pub struct ErrCell(Mutex<Option<(u64, String)>>);

impl ErrCell {
    /// An empty cell.
    pub fn new() -> Self {
        Self::default()
    }

    /// Offers an error; kept only if its key is lower than the stored one.
    pub fn offer(&self, key: u64, msg: String) {
        let mut g = self.0.lock().unwrap();
        match &*g {
            Some((k, _)) if *k <= key => {}
            _ => *g = Some((key, msg)),
        }
    }

    /// Takes the stored error message, leaving the cell empty.
    pub fn take(&self) -> Option<String> {
        self.0.lock().unwrap().take().map(|(_, m)| m)
    }

    /// Drops the stored error if its key is `>= key` — used when an
    /// ordered early exit (LIMIT) stops before the erroring row, which
    /// the row path would therefore never have evaluated.
    pub fn clear_from(&self, key: u64) {
        let mut g = self.0.lock().unwrap();
        if let Some((k, _)) = &*g {
            if *k >= key {
                *g = None;
            }
        }
    }
}

/// What the expression kernels of one operator did — surfaced in EXPLAIN
/// ANALYZE (`expr_kernels=`/`expr_rows=`) and obs counters.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ExprStats {
    /// Kernel launches: one per (expression, morsel) pair.
    pub kernels: u64,
    /// Total row-evaluations across kernels.
    pub rows: u64,
}

impl ExprStats {
    /// Accumulates another operator's kernel stats into this one.
    pub fn absorb(&mut self, other: ExprStats) {
        self.kernels += other.kernels;
        self.rows += other.rows;
    }
}

/// Computed projection: evaluates `exprs` over the batch's qualifying
/// rows into a fresh [`ColumnTable`] (one column per expression, table
/// order) whose column types come from [`Expr::dtype_hint`] — right
/// `Int`/`Date` hints are what keep computed sort keys u64-encodable.
/// Errors follow row-path timing: the first *surviving* deferred error in
/// (row, expression) order; filtered-out rows' errors never fire.
pub fn par_project_table(
    batch: &Batch,
    exprs: &[Expr],
    threads: usize,
) -> Result<(ColumnTable, ScanStats, ExprStats), StorageError> {
    let (table, pred) = (&*batch.table, batch.pred.as_ref());
    let morsels = morsels_of(table);
    let workers = worker_count(table.rows, threads, morsels.len());
    let cell = ErrCell::new();
    let parts: Vec<Vec<Row>> = run_chunks("expr_worker", morsels.len(), workers, |m| {
        let (si, off, len) = morsels[m];
        let seg = &table.segments[si];
        let base = (si * SEGMENT_ROWS + off) as u64;
        let mut sel = Vec::new();
        let sel_slice: Option<&[u8]> = match pred {
            None => None,
            Some(p) => {
                p.eval(seg, off, len, base, &mut sel);
                Some(sel.as_slice())
            }
        };
        let evaled: Vec<Evaled> = exprs.iter().map(|e| e.eval_vect(seg, off, len)).collect();
        let live = |j: usize| sel_slice.is_none_or(|s| s[j] == P_TRUE);
        let mut first: Option<(usize, &str)> = None;
        for ev in &evaled {
            for (&j, msg) in &ev.errs {
                if live(j) {
                    if first.is_none_or(|(fj, _)| j < fj) {
                        first = Some((j, msg));
                    }
                    break; // keys ascend: later errors in this expr are later rows
                }
            }
        }
        if let Some((j, msg)) = first {
            cell.offer(base + j as u64, msg.to_string());
        }
        (0..len)
            .filter(|&j| live(j))
            .map(|j| evaled.iter().map(|ev| ev.v.get(j)).collect())
            .collect()
    });
    if let Some(msg) = cell.take() {
        return Err(StorageError(msg));
    }
    let dtypes = exprs.iter().map(|e| e.dtype_hint(&table.dtypes)).collect();
    let mut b = ColumnTableBuilder::new(dtypes);
    for r in parts.iter().flatten() {
        b.push_row(r);
    }
    let out = b.finish();
    let stats = ScanStats {
        morsels: morsels.len() as u64,
        workers: workers as u64,
        rows_scanned: table.rows as u64,
        rows_out: out.rows as u64,
        bytes: table.bytes() as u64,
    };
    let estats = ExprStats {
        kernels: (morsels.len() * exprs.len()) as u64,
        rows: (table.rows * exprs.len()) as u64,
    };
    emit_counters(&stats);
    Ok((out, stats, estats))
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    fn table_of(dtypes: Vec<DataType>, rows: &[Row]) -> Arc<ColumnTable> {
        Arc::new(ColumnTable::from_rows(dtypes, rows))
    }

    fn batch(t: &Arc<ColumnTable>, pred: Option<Expr>) -> Batch {
        let b = Batch::new(Arc::clone(t));
        match pred {
            Some(p) => b.filter(p),
            None => b,
        }
    }

    /// [`par_project_table`], materialized for comparison.
    fn project(
        t: &Arc<ColumnTable>,
        pred: Option<Expr>,
        exprs: &[Expr],
        threads: usize,
    ) -> Result<(Vec<Row>, ColumnTable, ScanStats, ExprStats), StorageError> {
        let (ct, cs, es) = par_project_table(&batch(t, pred), exprs, threads)?;
        let rows = crate::par_filter(&Batch::new(Arc::new(ct.clone())), 1).0;
        Ok((rows, ct, cs, es))
    }

    fn col(i: usize) -> Box<Expr> {
        Box::new(Expr::Col(i))
    }

    fn lit(v: Value) -> Box<Expr> {
        Box::new(Expr::Lit(v))
    }

    fn int(x: i64) -> Value {
        Value::Int(x)
    }

    /// Evaluating over typed buffers (the fast paths) and over the same
    /// rows in boxed buffers (generic Value path) must agree
    /// value-for-value.
    #[test]
    fn typed_and_boxed_segments_agree() {
        let dec = |s: &str| Value::Decimal(s.parse().unwrap());
        let date = |d: u32| Value::Date(Date::from_ymd(2000, 5, d));
        let rows: Vec<Row> = vec![
            vec![
                int(3),
                dec("1.50"),
                Value::str("abc"),
                date(1),
                Value::str("2000-05-01"),
            ],
            vec![Value::Null; 5],
            vec![
                int(-4),
                dec("2.25"),
                Value::str("xyz"),
                date(20),
                Value::str("not-a-date"),
            ],
        ];
        let dtypes = vec![
            DataType::Int,
            DataType::Decimal,
            DataType::Str,
            DataType::Date,
            DataType::Str,
        ];
        let t = table_of(dtypes, &rows);
        let seg = &t.segments[0];
        let boxed = table_of(vec![DataType::Bool; 5], &rows);
        assert!(matches!(
            boxed.segments[0].columns[0].data,
            ColumnData::Other(_)
        ));
        let mut exprs = vec![
            Expr::Arith(
                ArithOp::Add,
                Box::new(Expr::Arith(ArithOp::Mul, col(0), lit(int(2)))),
                lit(int(1)),
            ),
            Expr::Arith(ArithOp::Div, col(0), lit(int(2))),
            Expr::Arith(ArithOp::Mul, col(1), lit(int(3))),
            Expr::Cmp(CmpKind::Gt, col(0), lit(int(0))),
            Expr::Concat(
                Box::new(Expr::Func(ScalarFunc::Upper, vec![Expr::Col(2)])),
                lit(Value::str("!")),
            ),
            Expr::Func(ScalarFunc::Coalesce, vec![Expr::Col(0), Expr::Lit(int(99))]),
            Expr::Neg(col(0)),
            Expr::Cast(col(0), DataType::Str),
        ];
        // The comparison leaves: every (buffer variant, constant type)
        // pair a probe is resolved for, plus NULL and incomparable
        // constants. `via` builds the constant operand: as a literal (the
        // probe loop on `seg`, `sql_cmp` per boxed cell on `boxed`) or
        // hidden behind a column read (the generic per-value loop).
        let pairs = [
            (0, int(3)),
            (0, dec("3.00")),
            (0, Value::Null),
            (0, Value::str("3")),
            (1, dec("2.25")),
            (1, int(2)),
            (2, Value::str("abc")),
            (2, date(1)),
            (3, date(20)),
            (3, Value::str("2000-05-01")),
            (3, Value::str("not-a-date")),
            (4, date(1)),
        ];
        let leaves = |via: &dyn Fn(Value) -> Box<Expr>| {
            let mut out = Vec::new();
            for (c, k) in &pairs {
                let k = || via(k.clone());
                for op in [CmpKind::Eq, CmpKind::Ne, CmpKind::Lt, CmpKind::Ge] {
                    out.push(Expr::Cmp(op, col(*c), k()));
                    out.push(Expr::Cmp(op, k(), col(*c)));
                }
                out.push(Expr::Between(col(*c), k(), k(), false));
                out.push(Expr::Between(col(*c), via(Value::Null), k(), true));
                out.push(Expr::InList(col(*c), vec![*k(), *via(Value::Null)], false));
                out.push(Expr::InList(col(*c), vec![*k()], true));
                out.push(Expr::Like(col(*c), k(), false));
            }
            // A bound that is constant arithmetic folds to one constant.
            let three = Box::new(Expr::Arith(ArithOp::Add, via(int(1)), via(int(2))));
            out.push(Expr::Between(col(0), via(int(-4)), three.clone(), false));
            out.push(Expr::Cmp(CmpKind::Le, three, col(0)));
            out.push(Expr::Like(col(2), via(Value::str("a%")), true));
            out.push(Expr::IsNull(col(3), true));
            out
        };
        let probed = leaves(&|k| lit(k));
        let generic = leaves(&|k| {
            Box::new(Expr::Case {
                operand: None,
                branches: vec![(Expr::IsNull(col(0), false), Expr::Lit(k.clone()))],
                else_branch: Some(lit(k)),
            })
        });
        for (p, g) in probed.iter().zip(&generic) {
            let a = p.eval_values(seg, 0, rows.len()).unwrap();
            let b = g.eval_values(seg, 0, rows.len()).unwrap();
            assert_eq!(a, b, "probe vs generic loop: {p:?}");
        }
        exprs.extend(probed);
        for e in &exprs {
            let a = e.eval_values(seg, 0, rows.len()).unwrap();
            let b = e.eval_values(&boxed.segments[0], 0, rows.len()).unwrap();
            assert_eq!(a, b, "expr {e:?}");
        }
        // Spot-check values against hand arithmetic.
        let doubled = exprs[0].eval_values(seg, 0, 3).unwrap();
        assert_eq!(doubled, vec![int(7), Value::Null, int(-7)]);
        let t = Value::Bool(true);
        let f = Value::Bool(false);
        let le3 = Expr::Cmp(
            CmpKind::Le,
            Box::new(Expr::Arith(ArithOp::Add, lit(int(1)), lit(int(2)))),
            col(0),
        );
        assert_eq!(
            le3.eval_values(seg, 0, 3).unwrap(),
            vec![t.clone(), Value::Null, f.clone()]
        );
        let str_vs_date = Expr::Cmp(CmpKind::Eq, col(4), lit(date(1)));
        assert_eq!(
            str_vs_date.eval_values(seg, 0, 3).unwrap(),
            vec![t, Value::Null, Value::Null]
        );
    }

    /// A subtree that reads no column is one constant — unless it errors,
    /// and then only rows a consumer evaluates raise.
    #[test]
    fn constant_subtrees_fold_unless_they_error() {
        let rows: Vec<Row> = vec![vec![int(-1)], vec![int(1)]];
        let t = table_of(vec![DataType::Int], &rows);
        let seg = &t.segments[0];
        let sum = |a: i64, b: i64| Expr::Arith(ArithOp::Add, lit(int(a)), lit(int(b)));
        let folded = sum(1, 2).eval_vect(seg, 0, 2);
        assert!(matches!(folded.v, Vect::Const(Value::Int(3))));
        let boom = || Box::new(sum(i64::MAX, 1));
        let err = boom().eval_values(seg, 0, 2).unwrap_err();
        assert_eq!(err, (0, "integer overflow in +".to_string()));
        // `c0 > 0 AND c0 < <overflow>`: row 0 never evaluates the bound.
        let e = Expr::And(
            Box::new(Expr::cmp(CmpKind::Gt, 0, int(0))),
            Box::new(Expr::Cmp(CmpKind::Lt, col(0), boom())),
        );
        let mut out = Vec::new();
        assert_eq!(e.eval_tri(seg, 0, 1, &mut out), Ok(()));
        assert_eq!(e.eval_tri(seg, 0, 2, &mut out).unwrap_err().0, 1);
    }

    #[test]
    fn overflow_is_deferred_and_positional() {
        let rows: Vec<Row> = vec![vec![int(1)], vec![int(i64::MAX)], vec![int(5)]];
        let t = table_of(vec![DataType::Int], &rows);
        let e = Expr::Arith(ArithOp::Add, col(0), lit(int(1)));
        let err = e.eval_values(&t.segments[0], 0, 3).unwrap_err();
        assert_eq!(err, (1, "integer overflow in +".to_string()));
        // A pred that filters out the overflowing row masks its error.
        let pred = Expr::cmp(CmpKind::Lt, 0, int(100));
        let (out, _, _, estats) = project(&t, Some(pred), std::slice::from_ref(&e), 1).unwrap();
        assert_eq!(out, vec![vec![int(2)], vec![int(6)]]);
        assert_eq!(estats.kernels, 1);
        assert_eq!(estats.rows, 3);
        // Without the filter the kernel surfaces the row-path error.
        let err = project(&t, None, &[e], 1).unwrap_err();
        assert_eq!(err.0, "integer overflow in +");
    }

    #[test]
    fn division_and_modulo_by_zero_are_null() {
        let rows: Vec<Row> = vec![vec![int(7), int(0)], vec![int(7), int(2)]];
        let t = table_of(vec![DataType::Int, DataType::Int], &rows);
        let seg = &t.segments[0];
        let div = Expr::Arith(ArithOp::Div, col(0), col(1));
        let got = div.eval_values(seg, 0, 2).unwrap();
        assert!(got[0].is_null());
        assert_eq!(
            got[1],
            scalar::arith(ArithOp::Div, &int(7), &int(2)).unwrap()
        );
        let md = Expr::Arith(ArithOp::Mod, col(0), col(1));
        let got = md.eval_values(seg, 0, 2).unwrap();
        assert_eq!(got, vec![Value::Null, int(1)]);
    }

    #[test]
    fn short_circuit_masks_errors_like_the_row_path() {
        let rows: Vec<Row> = vec![vec![int(-5)], vec![int(1)]];
        let t = table_of(vec![DataType::Int], &rows);
        let seg = &t.segments[0];
        let boom = || {
            Box::new(Expr::Cmp(
                CmpKind::Gt,
                Box::new(Expr::Arith(ArithOp::Add, col(0), lit(int(i64::MAX)))),
                lit(int(0)),
            ))
        };
        // AND: FALSE lhs short-circuits, so only row 1 errors.
        let e = Expr::And(
            Box::new(Expr::Cmp(CmpKind::Gt, col(0), lit(int(0)))),
            boom(),
        );
        let mut out = Vec::new();
        let err = e.eval_tri(seg, 0, 2, &mut out).unwrap_err();
        assert_eq!(err.0, 1);
        assert_eq!(out[0], P_FALSE);
        // OR: TRUE lhs short-circuits; row 0 (-5 < 0 TRUE) masks, row 1 errors.
        let e = Expr::Or(
            Box::new(Expr::Cmp(CmpKind::Lt, col(0), lit(int(0)))),
            boom(),
        );
        let err = e.eval_tri(seg, 0, 2, &mut out).unwrap_err();
        assert_eq!(err.0, 1);
        assert_eq!(out[0], P_TRUE);
    }

    #[test]
    fn case_consumes_only_taken_arms() {
        let rows: Vec<Row> = vec![vec![int(5)], vec![int(-1)], vec![int(i64::MAX)]];
        let t = table_of(vec![DataType::Int], &rows);
        let seg = &t.segments[0];
        // ELSE overflows for row 0 and row 2, but both take the WHEN arm.
        let e = Expr::Case {
            operand: None,
            branches: vec![(
                Expr::Cmp(CmpKind::Gt, col(0), lit(int(0))),
                Expr::Lit(int(1)),
            )],
            else_branch: Some(Box::new(Expr::Arith(
                ArithOp::Add,
                col(0),
                lit(int(i64::MAX)),
            ))),
        };
        let got = e.eval_values(seg, 0, 3).unwrap();
        assert_eq!(got, vec![int(1), int(i64::MAX - 1), int(1)]);
        // Simple CASE with operand, no else: misses yield NULL.
        let e = Expr::Case {
            operand: Some(col(0)),
            branches: vec![(Expr::Lit(int(5)), Expr::Lit(Value::str("five")))],
            else_branch: None,
        };
        let got = e.eval_values(seg, 0, 3).unwrap();
        assert_eq!(got, vec![Value::str("five"), Value::Null, Value::Null]);
    }

    #[test]
    fn in_list_consumes_items_lazily() {
        let rows: Vec<Row> = vec![vec![int(1)], vec![Value::Null], vec![int(3)]];
        let t = table_of(vec![DataType::Int], &rows);
        let seg = &t.segments[0];
        let boom = Expr::Arith(ArithOp::Add, col(0), lit(int(i64::MAX)));
        // Row 0 hits item 1 before the overflowing item; row 1's NULL
        // operand never consumes items; row 2 reaches the overflow.
        let e = Expr::InList(col(0), vec![Expr::Lit(int(1)), boom], false);
        let mut out = Vec::new();
        let err = e.eval_tri(seg, 0, 3, &mut out).unwrap_err();
        assert_eq!(err.0, 2);
        assert_eq!(&out[..2], &[P_TRUE, P_NULL]);
        // Pure-literal lists follow SQL NULL semantics.
        let e = Expr::InList(
            col(0),
            vec![Expr::Lit(int(1)), Expr::Lit(Value::Null)],
            true,
        );
        e.eval_tri(seg, 0, 3, &mut out).unwrap();
        assert_eq!(out, vec![P_FALSE, P_NULL, P_NULL]);
    }

    /// Every (test, NOT, NULL-in-set) combination, over typed buffers (the
    /// sorted probe), boxed buffers and a computed operand (the generic
    /// loop): all agree with [`KeySet::test`] row by row.
    #[test]
    fn set_membership_null_rules_hold_on_every_path() {
        let date = |d: u32| Value::Date(Date::from_ymd(2000, 5, d));
        let rows: Vec<Row> = vec![
            vec![int(1), date(1), Value::str("a")],
            vec![Value::Null, Value::Null, Value::Null],
            vec![int(5), date(5), Value::str("e")],
        ];
        let dtypes = vec![DataType::Int, DataType::Date, DataType::Str];
        let typed = table_of(dtypes, &rows);
        let boxed = table_of(vec![DataType::Bool; 3], &rows);
        for with_null in [false, true] {
            let set_of = |vals: [Value; 2]| {
                let mut keys: Vec<Row> = vals.into_iter().map(|v| vec![v]).collect();
                keys.extend(with_null.then(|| vec![Value::Null]));
                Arc::new(KeySet::new(keys))
            };
            let sets = [
                set_of([int(1), int(9)]),
                set_of([date(1), date(9)]),
                set_of([Value::str("a"), Value::str("z")]),
            ];
            for (c, set) in sets.iter().enumerate() {
                for (test, negated) in [
                    (SetTest::In, false),
                    (SetTest::In, true),
                    (SetTest::Exists, false),
                    (SetTest::Exists, true),
                ] {
                    let want: Vec<Value> = (rows.iter())
                        .map(|r| match set.test(test, &r[c..=c]) {
                            Some(b) => Value::Bool(b != negated),
                            None => Value::Null,
                        })
                        .collect();
                    let leaf = |key: Expr| Expr::InSet(vec![key], Arc::clone(set), test, negated);
                    let computed = Expr::Func(ScalarFunc::Coalesce, vec![Expr::Col(c)]);
                    for (e, t) in [
                        (leaf(Expr::Col(c)), &typed),
                        (leaf(Expr::Col(c)), &boxed),
                        (leaf(computed), &typed),
                    ] {
                        let got = e.eval_values(&t.segments[0], 0, rows.len()).unwrap();
                        assert_eq!(
                            got, want,
                            "{test:?} negated={negated} null={with_null} col {c}"
                        );
                    }
                }
            }
        }
        // The rules themselves: IN is UNKNOWN for a NULL operand and for a
        // miss against a set that held a NULL; the EXISTS form just misses.
        let set = KeySet::new(vec![vec![int(1)], vec![Value::Null]]);
        assert_eq!(set.test(SetTest::In, &[int(1)]), Some(true));
        assert_eq!(set.test(SetTest::In, &[int(2)]), None);
        assert_eq!(set.test(SetTest::In, &[Value::Null]), None);
        assert_eq!(set.test(SetTest::Exists, &[int(2)]), Some(false));
        assert_eq!(set.test(SetTest::Exists, &[Value::Null]), Some(false));
        // `1 = 1.00`, as everywhere else values are compared for equality.
        let one = Value::Decimal("1.00".parse().unwrap());
        assert_eq!(
            set.test(SetTest::Exists, std::slice::from_ref(&one)),
            Some(true)
        );
        // Tuples: a NULL in any position is a NULL key.
        let pairs = KeySet::new(vec![vec![int(1), one], vec![int(2), Value::Null]]);
        assert_eq!(pairs.test(SetTest::Exists, &[int(1), int(1)]), Some(true));
        assert_eq!(
            pairs.test(SetTest::Exists, &[int(2), Value::Null]),
            Some(false)
        );
    }

    #[test]
    fn boolean_tails_between_like_isnull() {
        let rows: Vec<Row> = vec![
            vec![int(4), Value::str("widget")],
            vec![Value::Null, Value::Null],
            vec![int(9), Value::str("gadget")],
        ];
        let t = table_of(vec![DataType::Int, DataType::Str], &rows);
        let seg = &t.segments[0];
        let mut out = Vec::new();
        let e = Expr::Between(col(0), lit(int(2)), lit(int(6)), false);
        e.eval_tri(seg, 0, 3, &mut out).unwrap();
        assert_eq!(out, vec![P_TRUE, P_NULL, P_FALSE]);
        let e = Expr::Like(col(1), lit(Value::str("%dget")), false);
        e.eval_tri(seg, 0, 3, &mut out).unwrap();
        assert_eq!(out, vec![P_TRUE, P_NULL, P_TRUE]);
        let e = Expr::Not(Box::new(Expr::IsNull(col(0), false)));
        e.eval_tri(seg, 0, 3, &mut out).unwrap();
        assert_eq!(out, vec![P_TRUE, P_FALSE, P_TRUE]);
    }

    /// ~1.5 segments so kernels cross a segment boundary; every worker
    /// count must produce byte-identical output.
    #[test]
    fn par_project_is_thread_invariant_across_segments() {
        let n = SEGMENT_ROWS + SEGMENT_ROWS / 2 + 3;
        let rows: Vec<Row> = (0..n as i64)
            .map(|i| {
                let v = if i % 7 == 0 {
                    Value::Null
                } else {
                    int(i % 100)
                };
                vec![int(i), v]
            })
            .collect();
        let t = table_of(vec![DataType::Int, DataType::Int], &rows);
        let pred = Expr::cmp(CmpKind::Lt, 1, int(50));
        let exprs = vec![
            Expr::Col(0),
            Expr::Arith(ArithOp::Mul, col(1), lit(int(3))),
            Expr::Case {
                operand: None,
                branches: vec![(
                    Expr::Cmp(CmpKind::Ge, col(1), lit(int(25))),
                    Expr::Lit(Value::str("hi")),
                )],
                else_branch: Some(Box::new(Expr::Lit(Value::str("lo")))),
            },
        ];
        let (serial, _, s1, e1) = project(&t, Some(pred.clone()), &exprs, 1).unwrap();
        assert_eq!(e1.kernels, s1.morsels * exprs.len() as u64);
        let pass = |r: &&Row| r[1].as_int().is_some_and(|v| v < 50);
        assert_eq!(serial.len(), rows.iter().filter(pass).count());
        assert_eq!(serial[0], vec![int(1), int(3), Value::str("lo")]);
        for threads in [2, 8] {
            let (par, ct, _, _) = project(&t, Some(pred.clone()), &exprs, threads).unwrap();
            assert_eq!(par, serial, "threads={threads}");
            // The Int hints survive, so computed keys stay u64-encodable.
            assert_eq!(ct.dtypes[..2], [DataType::Int, DataType::Int]);
        }
    }

    /// An expression predicate and a computed projection over an
    /// *intermediate* multi-morsel table (rows wrapped by an operator, not
    /// a base table): same survivors at any worker count, and the
    /// first erroring row wins across morsels.
    #[test]
    fn expr_kernels_over_wrapped_rows_are_thread_invariant() {
        let rows: Vec<Row> = (0..20_000i64)
            .map(|i| {
                let v = if i % 5 == 0 { Value::Null } else { int(i) };
                vec![int(i), v]
            })
            .collect();
        let wrapped = Batch::from_rows(2, &rows);
        let keep = Expr::Cmp(
            CmpKind::Eq,
            Box::new(Expr::Arith(ArithOp::Mod, col(1), lit(int(2)))),
            lit(int(0)),
        );
        let expected: Vec<Row> = rows
            .iter()
            .filter(|r| r[1].as_int().is_some_and(|v| v % 2 == 0))
            .cloned()
            .collect();
        for threads in [1, 8] {
            let b = wrapped.clone().filter(keep.clone());
            assert_eq!(crate::par_filter(&b, threads).0, expected);
            assert_eq!(b.take_err(), None);
        }
        let exprs = vec![Expr::Arith(ArithOp::Add, col(0), lit(int(1)))];
        let (a, _, _, e1) = project(&wrapped.table, None, &exprs, 1).unwrap();
        let (b, _, _, _) = project(&wrapped.table, None, &exprs, 8).unwrap();
        assert!(e1.kernels >= 2);
        assert_eq!(a, b);
        assert_eq!(a[7], vec![int(8)]);
        let mut bad = rows.clone();
        bad[9_000][0] = int(i64::MAX);
        bad[15_000][0] = int(i64::MAX);
        let err = project(&Batch::from_rows(2, &bad).table, None, &exprs, 8).unwrap_err();
        assert_eq!(err.0, "integer overflow in +");
    }

    #[test]
    fn err_cell_keeps_lowest_key() {
        let c = ErrCell::new();
        c.offer(40, "later".into());
        c.offer(7, "first".into());
        c.offer(12, "middle".into());
        c.clear_from(8); // stored key 7 < 8: survives
        assert_eq!(c.take(), Some("first".into()));
        c.offer(9, "gone".into());
        c.clear_from(9);
        assert_eq!(c.take(), None);
    }

    #[test]
    fn dtype_hints_keep_sort_keys_encodable() {
        let input = [
            DataType::Int,
            DataType::Decimal,
            DataType::Date,
            DataType::Str,
        ];
        let e = Expr::Arith(ArithOp::Add, col(0), lit(int(30)));
        assert_eq!(e.dtype_hint(&input), DataType::Int);
        let e = Expr::Arith(ArithOp::Add, Box::new(Expr::Col(2)), lit(int(30)));
        assert_eq!(e.dtype_hint(&input), DataType::Date);
        let e = Expr::Arith(ArithOp::Sub, Box::new(Expr::Col(2)), Box::new(Expr::Col(2)));
        assert_eq!(e.dtype_hint(&input), DataType::Int);
        let e = Expr::Arith(ArithOp::Div, col(0), lit(int(2)));
        assert_eq!(e.dtype_hint(&input), DataType::Decimal);
        let e = Expr::Func(ScalarFunc::Length, vec![Expr::Col(3)]);
        assert_eq!(e.dtype_hint(&input), DataType::Int);
        assert_eq!(
            Expr::Concat(col(0), col(3)).dtype_hint(&input),
            DataType::Str
        );
    }
}
