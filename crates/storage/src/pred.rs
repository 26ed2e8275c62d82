//! Vectorized predicate kernels with SQL three-valued logic.
//!
//! A [`Pred`] is the compiled form of the engine predicates the columnar
//! path accepts: comparisons of a column against a literal, BETWEEN,
//! IN-list, IS \[NOT\] NULL, LIKE, and AND/OR/NOT combinations. Evaluation
//! fills a tri-state byte per row — [`P_FALSE`], [`P_TRUE`], [`P_NULL`] —
//! and combines sub-results with Kleene logic, matching the engine's
//! row-at-a-time evaluator (`BExpr::eval`) case for case: the row path is
//! the oracle, and any divergence here is a bug.

use crate::column::{Column, ColumnData};
use crate::expr::{ErrCell, Expr};
use crate::segment::Segment;
use std::cmp::Ordering;
use std::sync::atomic::{AtomicU64, Ordering as AtomicOrdering};
use std::sync::Arc;
use tpcds_types::{like_match, Date, Decimal, Value};

/// Predicate evaluated to SQL FALSE for this row.
pub const P_FALSE: u8 = 0;
/// Predicate evaluated to SQL TRUE for this row.
pub const P_TRUE: u8 = 1;
/// Predicate evaluated to SQL NULL (UNKNOWN) for this row.
pub const P_NULL: u8 = 2;

/// Comparison operator (mirrors the engine's `CmpOp`).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum CmpKind {
    /// `=`
    Eq,
    /// `<>`
    Ne,
    /// `<`
    Lt,
    /// `<=`
    Le,
    /// `>`
    Gt,
    /// `>=`
    Ge,
}

impl CmpKind {
    /// Whether an ordering between the two operands satisfies the operator.
    #[inline]
    pub fn test(self, ord: Ordering) -> bool {
        match self {
            CmpKind::Eq => ord == Ordering::Equal,
            CmpKind::Ne => ord != Ordering::Equal,
            CmpKind::Lt => ord == Ordering::Less,
            CmpKind::Le => ord != Ordering::Greater,
            CmpKind::Gt => ord == Ordering::Greater,
            CmpKind::Ge => ord != Ordering::Less,
        }
    }
}

/// A compiled predicate over one segment's columns.
#[derive(Clone, Debug)]
pub enum Pred {
    /// `col <op> literal` under `Value::sql_cmp` semantics (NULL on either
    /// side or incomparable types ⇒ UNKNOWN).
    Cmp(CmpKind, usize, Value),
    /// `col [NOT] BETWEEN lo AND hi`: UNKNOWN unless both bound
    /// comparisons are defined.
    Between {
        /// Column index.
        col: usize,
        /// Inclusive lower bound literal.
        lo: Value,
        /// Inclusive upper bound literal.
        hi: Value,
        /// True for `NOT BETWEEN`.
        negated: bool,
    },
    /// `col [NOT] IN (literals…)` with SQL NULL semantics (a NULL element
    /// turns a miss into UNKNOWN).
    InList {
        /// Column index.
        col: usize,
        /// Literal list elements.
        list: Vec<Value>,
        /// True for `NOT IN`.
        negated: bool,
    },
    /// `col IS [NOT] NULL` — the only predicate that never yields UNKNOWN.
    IsNull {
        /// Column index.
        col: usize,
        /// True for `IS NOT NULL`.
        negated: bool,
    },
    /// `col [NOT] LIKE pattern`; UNKNOWN unless both sides are strings.
    Like {
        /// Column index.
        col: usize,
        /// Pattern literal (UNKNOWN for every row if not a string).
        pattern: Value,
        /// True for `NOT LIKE`.
        negated: bool,
    },
    /// A full compiled scalar expression (arithmetic, CASE, functions…)
    /// evaluated as a predicate — the shape that used to force the serial
    /// `pred-shape` fallback. Runtime errors are deferred into the shared
    /// cell keyed by global row id; callers drain it with
    /// [`Pred::take_err`] after the scan.
    Expr(ExprPred),
    /// Kleene AND.
    And(Box<Pred>, Box<Pred>),
    /// Kleene OR.
    Or(Box<Pred>, Box<Pred>),
    /// Kleene NOT.
    Not(Box<Pred>),
    /// The inner predicate, adding the number of rows it admits to a
    /// shared counter on every evaluation — how EXPLAIN ANALYZE learns a
    /// lazy node's row count from whichever kernel evaluates its batch.
    Counted(Box<Pred>, Arc<AtomicU64>),
}

/// A compiled expression predicate plus its shared first-error cell.
///
/// Clones share the cell, so a predicate captured by several scan workers
/// still reports the single lowest-row error.
#[derive(Clone, Debug)]
pub struct ExprPred {
    /// The compiled expression (evaluated with strict-TRUE admits).
    pub expr: Arc<Expr>,
    /// First deferred runtime error, keyed by global row id.
    pub err: Arc<ErrCell>,
}

impl ExprPred {
    /// Wraps a compiled expression with a fresh error cell.
    pub fn new(expr: Expr) -> ExprPred {
        ExprPred {
            expr: Arc::new(expr),
            err: Arc::new(ErrCell::new()),
        }
    }
}

/// A comparison strategy pre-resolved from (column buffer variant, literal
/// type), so the per-row loop does no type dispatch.
enum Probe<'a> {
    /// `sql_cmp` is `None` for every (even non-NULL) row: NULL literal or
    /// incomparable types.
    Incomparable,
    /// i64 buffer vs integer literal.
    IntInt(i64),
    /// i64 buffer vs decimal literal (each cell widened).
    IntDec(Decimal),
    /// Decimal buffer vs numeric literal (integer literal pre-widened).
    DecDec(Decimal),
    /// Date buffer vs date literal (string literals pre-parsed; a parse
    /// failure is `Incomparable`, exactly like `sql_cmp`).
    DateDate(Date),
    /// String buffer vs string literal.
    StrStr(&'a str),
    /// String buffer vs date literal: each cell is parsed, per `sql_cmp`.
    StrDate(Date),
    /// Boxed buffer: generic `sql_cmp` against the literal.
    Other(&'a Value),
}

fn probe<'a>(col: &Column, lit: &'a Value) -> Probe<'a> {
    if lit.is_null() {
        return Probe::Incomparable;
    }
    match (&col.data, lit) {
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

/// `sql_cmp(column[i], literal)` through a pre-resolved probe.
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

#[inline]
fn tri(b: bool) -> u8 {
    if b {
        P_TRUE
    } else {
        P_FALSE
    }
}

impl Pred {
    /// Evaluates the predicate over rows `start .. start+len` of one
    /// segment, writing one tri-state byte per row into `out` (which is
    /// resized to `len`). `base` is the global row id of `start`, used
    /// only to key deferred [`Pred::Expr`] errors; legacy variants are
    /// infallible and ignore it.
    pub fn eval(&self, seg: &Segment, start: usize, len: usize, base: u64, out: &mut Vec<u8>) {
        out.clear();
        out.resize(len, P_NULL);
        match self {
            Pred::Cmp(op, ci, lit) => {
                let col = &seg.columns[*ci];
                let p = probe(col, lit);
                // Tight loops per strategy: the common shapes avoid
                // per-row Value materialization entirely.
                match (&p, &col.data) {
                    (Probe::Incomparable, _) => {} // stays P_NULL
                    (Probe::IntInt(x), ColumnData::I64(buf)) => {
                        for (j, o) in out.iter_mut().enumerate() {
                            let i = start + j;
                            if !col.nulls.get(i) {
                                *o = tri(op.test(buf[i].cmp(x)));
                            }
                        }
                    }
                    (Probe::DecDec(d), ColumnData::Decimal(buf)) => {
                        for (j, o) in out.iter_mut().enumerate() {
                            let i = start + j;
                            if !col.nulls.get(i) {
                                *o = tri(op.test(buf[i].cmp(d)));
                            }
                        }
                    }
                    (Probe::DateDate(d), ColumnData::Date(buf)) => {
                        for (j, o) in out.iter_mut().enumerate() {
                            let i = start + j;
                            if !col.nulls.get(i) {
                                *o = tri(op.test(buf[i].cmp(d)));
                            }
                        }
                    }
                    (Probe::StrStr(s), ColumnData::Str(buf)) => {
                        for (j, o) in out.iter_mut().enumerate() {
                            let i = start + j;
                            if !col.nulls.get(i) {
                                *o = tri(op.test(buf[i].as_ref().cmp(*s)));
                            }
                        }
                    }
                    _ => {
                        for (j, o) in out.iter_mut().enumerate() {
                            if let Some(ord) = cmp_at(col, &p, start + j) {
                                *o = tri(op.test(ord));
                            }
                        }
                    }
                }
            }
            Pred::Between {
                col: ci,
                lo,
                hi,
                negated,
            } => {
                let col = &seg.columns[*ci];
                let lo_p = probe(col, lo);
                let hi_p = probe(col, hi);
                for (j, o) in out.iter_mut().enumerate() {
                    let i = start + j;
                    if let (Some(a), Some(b)) = (cmp_at(col, &lo_p, i), cmp_at(col, &hi_p, i)) {
                        let inside = a != Ordering::Less && b != Ordering::Greater;
                        *o = tri(inside != *negated);
                    }
                }
            }
            Pred::InList {
                col: ci,
                list,
                negated,
            } => {
                let col = &seg.columns[*ci];
                let probes: Vec<(Probe<'_>, bool)> =
                    list.iter().map(|v| (probe(col, v), v.is_null())).collect();
                for (j, o) in out.iter_mut().enumerate() {
                    let i = start + j;
                    if col.nulls.get(i) {
                        continue; // stays P_NULL
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
                    *o = if hit {
                        tri(!*negated)
                    } else if saw_null {
                        P_NULL
                    } else {
                        tri(*negated)
                    };
                }
            }
            Pred::IsNull { col: ci, negated } => {
                let col = &seg.columns[*ci];
                for (j, o) in out.iter_mut().enumerate() {
                    *o = tri(col.nulls.get(start + j) != *negated);
                }
            }
            Pred::Like {
                col: ci,
                pattern,
                negated,
            } => {
                let col = &seg.columns[*ci];
                let Some(pat) = pattern.as_str() else {
                    return; // non-string pattern: UNKNOWN everywhere
                };
                match &col.data {
                    ColumnData::Str(buf) => {
                        for (j, o) in out.iter_mut().enumerate() {
                            let i = start + j;
                            if !col.nulls.get(i) {
                                *o = tri(like_match(&buf[i], pat) != *negated);
                            }
                        }
                    }
                    ColumnData::Other(buf) => {
                        for (j, o) in out.iter_mut().enumerate() {
                            if let Some(s) = buf[start + j].as_str() {
                                *o = tri(like_match(s, pat) != *negated);
                            }
                        }
                    }
                    // Non-string buffer: `v.as_str()` is None ⇒ UNKNOWN.
                    _ => {}
                }
            }
            Pred::Expr(ep) => {
                if let Err((j, msg)) = ep.expr.eval_tri(seg, start, len, out) {
                    ep.err.offer(base + j as u64, msg);
                }
            }
            Pred::And(l, r) => {
                l.eval(seg, start, len, base, out);
                let mut rhs = Vec::new();
                r.eval(seg, start, len, base, &mut rhs);
                for (o, b) in out.iter_mut().zip(&rhs) {
                    *o = match (*o, *b) {
                        (P_FALSE, _) | (_, P_FALSE) => P_FALSE,
                        (P_TRUE, P_TRUE) => P_TRUE,
                        _ => P_NULL,
                    };
                }
            }
            Pred::Or(l, r) => {
                l.eval(seg, start, len, base, out);
                let mut rhs = Vec::new();
                r.eval(seg, start, len, base, &mut rhs);
                for (o, b) in out.iter_mut().zip(&rhs) {
                    *o = match (*o, *b) {
                        (P_TRUE, _) | (_, P_TRUE) => P_TRUE,
                        (P_FALSE, P_FALSE) => P_FALSE,
                        _ => P_NULL,
                    };
                }
            }
            Pred::Not(e) => {
                e.eval(seg, start, len, base, out);
                for o in out.iter_mut() {
                    *o = match *o {
                        P_TRUE => P_FALSE,
                        P_FALSE => P_TRUE,
                        _ => P_NULL,
                    };
                }
            }
            Pred::Counted(p, rows) => {
                p.eval(seg, start, len, base, out);
                let admitted = out.iter().filter(|&&o| o == P_TRUE).count();
                rows.fetch_add(admitted as u64, AtomicOrdering::Relaxed);
            }
        }
    }

    /// Drains the first deferred runtime error from any [`Pred::Expr`]
    /// nodes: the lowest global row id, the left operand's on a tie — a
    /// chain of serial filters evaluates row by row, each row through
    /// the filters in order. Callers check this after a scan: a present
    /// error is exactly what the serial row path would have raised.
    /// Legacy predicate shapes are infallible.
    pub fn take_err(&self) -> Option<String> {
        self.take_keyed_err().map(|(_, msg)| msg)
    }

    fn take_keyed_err(&self) -> Option<(u64, String)> {
        match self {
            Pred::Expr(ep) => ep.err.take_keyed(),
            Pred::And(l, r) | Pred::Or(l, r) => match (l.take_keyed_err(), r.take_keyed_err()) {
                (Some(l), Some(r)) => Some(if r.0 < l.0 { r } else { l }),
                (l, r) => l.or(r),
            },
            Pred::Not(p) | Pred::Counted(p, _) => p.take_keyed_err(),
            _ => None,
        }
    }

    /// Drops deferred errors at global row id `>= gid` — for ordered
    /// early exits (LIMIT) that stop before the erroring row, which the
    /// row path would therefore never have evaluated.
    pub fn clear_err_from(&self, gid: u64) {
        match self {
            Pred::Expr(ep) => ep.err.clear_from(gid),
            Pred::And(l, r) | Pred::Or(l, r) => {
                l.clear_err_from(gid);
                r.clear_err_from(gid);
            }
            Pred::Not(p) | Pred::Counted(p, _) => p.clear_err_from(gid),
            _ => {}
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::segment::ColumnTableBuilder;
    use tpcds_types::DataType;

    fn seg_of(dtypes: Vec<DataType>, rows: Vec<Vec<Value>>) -> std::sync::Arc<Segment> {
        let mut b = ColumnTableBuilder::new(dtypes);
        for r in &rows {
            b.push_row(r);
        }
        b.finish().segments.into_iter().next().unwrap()
    }

    fn run(p: &Pred, seg: &Segment) -> Vec<u8> {
        let mut out = Vec::new();
        p.eval(seg, 0, seg.rows, 0, &mut out);
        out
    }

    #[test]
    fn cmp_int_with_nulls() {
        let seg = seg_of(
            vec![DataType::Int],
            vec![vec![Value::Int(1)], vec![Value::Null], vec![Value::Int(5)]],
        );
        let p = Pred::Cmp(CmpKind::Gt, 0, Value::Int(2));
        assert_eq!(run(&p, &seg), vec![P_FALSE, P_NULL, P_TRUE]);
        // NULL literal: UNKNOWN everywhere, including non-null rows.
        let p = Pred::Cmp(CmpKind::Eq, 0, Value::Null);
        assert_eq!(run(&p, &seg), vec![P_NULL, P_NULL, P_NULL]);
        // Incomparable literal type: UNKNOWN everywhere.
        let p = Pred::Cmp(CmpKind::Eq, 0, Value::str("x"));
        assert_eq!(run(&p, &seg), vec![P_NULL, P_NULL, P_NULL]);
    }

    #[test]
    fn cmp_cross_numeric_and_date_string() {
        let seg = seg_of(
            vec![DataType::Int, DataType::Date],
            vec![vec![Value::Int(3), Value::Date(Date::from_ymd(2000, 5, 1))]],
        );
        let p = Pred::Cmp(CmpKind::Eq, 0, Value::Decimal("3.00".parse().unwrap()));
        assert_eq!(run(&p, &seg), vec![P_TRUE]);
        let p = Pred::Cmp(CmpKind::Lt, 1, Value::str("2000-06-01"));
        assert_eq!(run(&p, &seg), vec![P_TRUE]);
        // Unparseable date string mirrors sql_cmp: UNKNOWN.
        let p = Pred::Cmp(CmpKind::Lt, 1, Value::str("not-a-date"));
        assert_eq!(run(&p, &seg), vec![P_NULL]);
    }

    #[test]
    fn between_and_in_list_null_semantics() {
        let seg = seg_of(
            vec![DataType::Int],
            vec![vec![Value::Int(1)], vec![Value::Int(5)], vec![Value::Null]],
        );
        let p = Pred::Between {
            col: 0,
            lo: Value::Int(2),
            hi: Value::Int(6),
            negated: false,
        };
        assert_eq!(run(&p, &seg), vec![P_FALSE, P_TRUE, P_NULL]);
        // NULL bound ⇒ UNKNOWN for every row (engine takes the same
        // shortcut: either side undefined ⇒ NULL).
        let p = Pred::Between {
            col: 0,
            lo: Value::Null,
            hi: Value::Int(6),
            negated: false,
        };
        assert_eq!(run(&p, &seg), vec![P_NULL, P_NULL, P_NULL]);
        // IN with a NULL element: hits stay TRUE, misses become UNKNOWN.
        let p = Pred::InList {
            col: 0,
            list: vec![Value::Int(1), Value::Null],
            negated: false,
        };
        assert_eq!(run(&p, &seg), vec![P_TRUE, P_NULL, P_NULL]);
        // NOT IN with a hit is FALSE, miss-with-null UNKNOWN.
        let p = Pred::InList {
            col: 0,
            list: vec![Value::Int(1), Value::Null],
            negated: true,
        };
        assert_eq!(run(&p, &seg), vec![P_FALSE, P_NULL, P_NULL]);
    }

    #[test]
    fn like_and_is_null() {
        let seg = seg_of(
            vec![DataType::Str],
            vec![
                vec![Value::str("widget")],
                vec![Value::Null],
                vec![Value::str("gadget")],
            ],
        );
        let p = Pred::Like {
            col: 0,
            pattern: Value::str("%dget"),
            negated: false,
        };
        assert_eq!(run(&p, &seg), vec![P_TRUE, P_NULL, P_TRUE]);
        let p = Pred::Like {
            col: 0,
            pattern: Value::str("wid%"),
            negated: true,
        };
        assert_eq!(run(&p, &seg), vec![P_FALSE, P_NULL, P_TRUE]);
        let p = Pred::IsNull {
            col: 0,
            negated: false,
        };
        assert_eq!(run(&p, &seg), vec![P_FALSE, P_TRUE, P_FALSE]);
        let p = Pred::IsNull {
            col: 0,
            negated: true,
        };
        assert_eq!(run(&p, &seg), vec![P_TRUE, P_FALSE, P_TRUE]);
    }

    #[test]
    fn kleene_combinators() {
        let seg = seg_of(
            vec![DataType::Int],
            vec![vec![Value::Int(1)], vec![Value::Int(5)], vec![Value::Null]],
        );
        let gt2 = || Box::new(Pred::Cmp(CmpKind::Gt, 0, Value::Int(2)));
        let lt0 = || Box::new(Pred::Cmp(CmpKind::Lt, 0, Value::Int(0)));
        // gt2: F,T,N  lt0: F,F,N
        assert_eq!(
            run(&Pred::And(gt2(), lt0()), &seg),
            vec![P_FALSE, P_FALSE, P_NULL]
        );
        assert_eq!(
            run(&Pred::Or(gt2(), lt0()), &seg),
            vec![P_FALSE, P_TRUE, P_NULL]
        );
        assert_eq!(run(&Pred::Not(gt2()), &seg), vec![P_TRUE, P_FALSE, P_NULL]);
        // NULL AND FALSE = FALSE; NULL OR TRUE = TRUE.
        let isnull = || {
            Box::new(Pred::IsNull {
                col: 0,
                negated: false,
            })
        };
        let null_pred = || Box::new(Pred::Cmp(CmpKind::Eq, 0, Value::Null));
        assert_eq!(
            run(&Pred::And(null_pred(), lt0()), &seg),
            vec![P_FALSE, P_FALSE, P_NULL]
        );
        assert_eq!(
            run(&Pred::Or(null_pred(), isnull()), &seg),
            vec![P_NULL, P_NULL, P_TRUE]
        );
    }

    #[test]
    fn mixed_type_column_falls_back_generically() {
        // An Int-declared column that actually holds a string promotes to
        // Other; comparisons still follow sql_cmp.
        let seg = seg_of(
            vec![DataType::Int],
            vec![
                vec![Value::Int(10)],
                vec![Value::str("ten")],
                vec![Value::Null],
            ],
        );
        let p = Pred::Cmp(CmpKind::Ge, 0, Value::Int(10));
        assert_eq!(run(&p, &seg), vec![P_TRUE, P_NULL, P_NULL]);
    }
}
