//! A batch's pending predicate: the filters stacked on it, in order, each
//! a compiled boolean [`Expr`], with one deferred-error cell. Evaluation
//! fills a tri-state byte per row — [`P_FALSE`], [`P_TRUE`], [`P_NULL`].
//!
//! A chain is not a Kleene AND. Row at a time, filter k+1 only sees rows
//! filter k admitted, so a later step's deferred error survives only where
//! every earlier step read TRUE (inside one filter, `a AND b` evaluates
//! `b` unless `a` is FALSE); the lowest surviving row is offered to the
//! cell — the error the row path (`BExpr::eval`, the oracle) raises.
//!
//! Evaluation starts from the segment's dead-row mask: a dead row reads
//! FALSE before any step runs, so it never qualifies and never raises. A
//! chain of no steps ([`Pred::live`]) admits exactly the live rows — what
//! a batch over a table with dead rows carries.

use crate::expr::{ErrCell, Expr};
use crate::segment::Segment;
use std::cmp::Ordering;
use std::sync::atomic::{AtomicU64, Ordering as AtomicOrdering};
use std::sync::Arc;

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

    /// The operator `op'` with `a op b == b op' a`.
    pub(crate) fn flip(self) -> CmpKind {
        match self {
            CmpKind::Eq | CmpKind::Ne => self,
            CmpKind::Lt => CmpKind::Gt,
            CmpKind::Le => CmpKind::Ge,
            CmpKind::Gt => CmpKind::Lt,
            CmpKind::Ge => CmpKind::Le,
        }
    }
}

/// The pending predicate of a [`crate::Batch`]: live rows qualify where
/// every step reads TRUE. Built only by [`crate::Batch`].
///
/// Clones share the error cell and the counters, so a predicate captured
/// by several scan workers still reports the single lowest-row error.
#[derive(Clone, Debug)]
pub struct Pred {
    steps: Vec<Step>,
    /// Counters of the chain before its first step: the live rows.
    admitted: Vec<Arc<AtomicU64>>,
    err: Arc<ErrCell>,
}

/// One stacked filter.
#[derive(Clone, Debug)]
struct Step {
    expr: Arc<Expr>,
    /// Each receives the number of rows admitted by the chain up to and
    /// including this step, on every evaluation ([`Pred::counted`]).
    admitted: Vec<Arc<AtomicU64>>,
}

impl Pred {
    /// The chain of no steps: it admits the live rows.
    pub(crate) fn live() -> Pred {
        Pred {
            steps: Vec::new(),
            admitted: Vec::new(),
            err: Arc::new(ErrCell::new()),
        }
    }

    /// A one-step chain.
    pub(crate) fn new(expr: Expr) -> Pred {
        let mut pred = Pred::live();
        pred.push(expr);
        pred
    }

    /// Stacks `expr` on top: it sees only the rows the chain admits so far.
    pub(crate) fn push(&mut self, expr: Expr) {
        self.steps.push(Step {
            expr: Arc::new(expr),
            admitted: Vec::new(),
        });
    }

    /// A counter of the rows the chain *as it stands* admits, fed by every
    /// evaluation — how EXPLAIN ANALYZE learns a lazy node's row count
    /// from whichever kernel evaluates its batch.
    pub(crate) fn counted(&mut self) -> Arc<AtomicU64> {
        let rows = Arc::new(AtomicU64::new(0));
        let counters = match self.steps.last_mut() {
            Some(last) => &mut last.admitted,
            None => &mut self.admitted,
        };
        counters.push(Arc::clone(&rows));
        rows
    }

    /// Evaluates the chain over rows `start .. start+len` of one segment,
    /// writing one tri-state byte per row into `out`: [`P_FALSE`] where
    /// the row is dead, [`P_TRUE`] where every step is TRUE, otherwise
    /// what the first step that was not TRUE read (an errored row reads
    /// FALSE). `base` is the global row id of `start` and keys the
    /// deferred error. Later steps still run over the whole morsel; only
    /// their errors are masked.
    pub fn eval(&self, seg: &Segment, start: usize, len: usize, base: u64, out: &mut Vec<u8>) {
        out.clear();
        match seg.dead() {
            None => out.resize(len, P_TRUE),
            Some(dead) => {
                const { assert!(P_TRUE == 1 && P_FALSE == 0) };
                dead.extend_clear(start, len, out);
            }
        }
        count(&self.admitted, out);
        let mut first: Option<(usize, String)> = None;
        for step in &self.steps {
            let (tri, errs) = step.expr.eval_cond(seg, start, len);
            // Keys ascend, and an earlier step's errored row is not TRUE,
            // so two steps never report the same row.
            if let Some((j, msg)) = errs.into_iter().find(|(j, _)| out[*j] == P_TRUE) {
                if first.as_ref().is_none_or(|(fj, _)| j < *fj) {
                    first = Some((j, msg));
                }
            }
            for (o, t) in out.iter_mut().zip(tri) {
                if *o == P_TRUE {
                    *o = t;
                }
            }
            count(&step.admitted, out);
        }
        if let Some((j, msg)) = first {
            self.err.offer(base + j as u64, msg);
        }
    }

    /// Drains the first deferred runtime error: the lowest global row id
    /// any evaluation offered. Callers check this after a scan: a present
    /// error is exactly what the serial row path would have raised.
    pub fn take_err(&self) -> Option<String> {
        self.err.take()
    }

    /// Drops a deferred error at global row id `>= gid` — for ordered
    /// early exits (LIMIT) that stop before the erroring row, which the
    /// row path would therefore never have evaluated.
    pub fn clear_err_from(&self, gid: u64) {
        self.err.clear_from(gid);
    }
}

/// Adds the rows `out` admits to each of `counters`.
fn count(counters: &[Arc<AtomicU64>], out: &[u8]) {
    if !counters.is_empty() {
        let admitted = out.iter().filter(|&&o| o == P_TRUE).count() as u64;
        for rows in counters {
            rows.fetch_add(admitted, AtomicOrdering::Relaxed);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::segment::ColumnTableBuilder;
    use tpcds_types::{ArithOp, DataType, Date, Value};

    fn seg_of(dtypes: Vec<DataType>, rows: Vec<Vec<Value>>) -> std::sync::Arc<Segment> {
        let mut b = ColumnTableBuilder::new(dtypes);
        for r in &rows {
            b.push_row(r);
        }
        b.finish().segments.into_iter().next().unwrap()
    }

    fn run(e: Expr, seg: &Segment) -> Vec<u8> {
        let mut out = Vec::new();
        let p = Pred::new(e);
        p.eval(seg, 0, seg.rows, 0, &mut out);
        assert_eq!(p.take_err(), None);
        out
    }

    fn col(i: usize) -> Box<Expr> {
        Box::new(Expr::Col(i))
    }

    fn lit(v: Value) -> Box<Expr> {
        Box::new(Expr::Lit(v))
    }

    fn between(lo: Value, hi: Value) -> Expr {
        Expr::Between(col(0), lit(lo), lit(hi), false)
    }

    fn in_list(items: &[Value], negated: bool) -> Expr {
        let items = items.iter().cloned().map(Expr::Lit).collect();
        Expr::InList(col(0), items, negated)
    }

    #[test]
    fn cmp_int_with_nulls() {
        let seg = seg_of(
            vec![DataType::Int],
            vec![vec![Value::Int(1)], vec![Value::Null], vec![Value::Int(5)]],
        );
        let p = Expr::cmp(CmpKind::Gt, 0, Value::Int(2));
        assert_eq!(run(p, &seg), vec![P_FALSE, P_NULL, P_TRUE]);
        // The constant on the left runs the same loop, flipped.
        let p = Expr::Cmp(CmpKind::Lt, lit(Value::Int(2)), col(0));
        assert_eq!(run(p, &seg), vec![P_FALSE, P_NULL, P_TRUE]);
        // NULL literal: UNKNOWN everywhere, including non-null rows.
        let p = Expr::cmp(CmpKind::Eq, 0, Value::Null);
        assert_eq!(run(p, &seg), vec![P_NULL, P_NULL, P_NULL]);
        // Incomparable literal type: UNKNOWN everywhere.
        let p = Expr::cmp(CmpKind::Eq, 0, Value::str("x"));
        assert_eq!(run(p, &seg), vec![P_NULL, P_NULL, P_NULL]);
    }

    #[test]
    fn cmp_cross_numeric_and_date_string() {
        let seg = seg_of(
            vec![DataType::Int, DataType::Date],
            vec![vec![Value::Int(3), Value::Date(Date::from_ymd(2000, 5, 1))]],
        );
        let p = Expr::cmp(CmpKind::Eq, 0, Value::Decimal("3.00".parse().unwrap()));
        assert_eq!(run(p, &seg), vec![P_TRUE]);
        let p = Expr::cmp(CmpKind::Lt, 1, Value::str("2000-06-01"));
        assert_eq!(run(p, &seg), vec![P_TRUE]);
        // Unparseable date string mirrors sql_cmp: UNKNOWN.
        let p = Expr::cmp(CmpKind::Lt, 1, Value::str("not-a-date"));
        assert_eq!(run(p, &seg), vec![P_NULL]);
    }

    #[test]
    fn between_and_in_list_null_semantics() {
        let seg = seg_of(
            vec![DataType::Int],
            vec![vec![Value::Int(1)], vec![Value::Int(5)], vec![Value::Null]],
        );
        let p = between(Value::Int(2), Value::Int(6));
        assert_eq!(run(p, &seg), vec![P_FALSE, P_TRUE, P_NULL]);
        // NULL bound ⇒ UNKNOWN for every row (engine takes the same
        // shortcut: either side undefined ⇒ NULL).
        let p = between(Value::Null, Value::Int(6));
        assert_eq!(run(p, &seg), vec![P_NULL, P_NULL, P_NULL]);
        // IN with a NULL element: hits stay TRUE, misses become UNKNOWN.
        let p = in_list(&[Value::Int(1), Value::Null], false);
        assert_eq!(run(p, &seg), vec![P_TRUE, P_NULL, P_NULL]);
        // NOT IN with a hit is FALSE, miss-with-null UNKNOWN.
        let p = in_list(&[Value::Int(1), Value::Null], true);
        assert_eq!(run(p, &seg), vec![P_FALSE, P_NULL, P_NULL]);
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
        let p = Expr::Like(col(0), lit(Value::str("%dget")), false);
        assert_eq!(run(p, &seg), vec![P_TRUE, P_NULL, P_TRUE]);
        let p = Expr::Like(col(0), lit(Value::str("wid%")), true);
        assert_eq!(run(p, &seg), vec![P_FALSE, P_NULL, P_TRUE]);
        // Non-string pattern: UNKNOWN everywhere.
        let p = Expr::Like(col(0), lit(Value::Int(1)), false);
        assert_eq!(run(p, &seg), vec![P_NULL, P_NULL, P_NULL]);
        let p = Expr::IsNull(col(0), false);
        assert_eq!(run(p, &seg), vec![P_FALSE, P_TRUE, P_FALSE]);
        let p = Expr::IsNull(col(0), true);
        assert_eq!(run(p, &seg), vec![P_TRUE, P_FALSE, P_TRUE]);
    }

    #[test]
    fn kleene_combinators() {
        let seg = seg_of(
            vec![DataType::Int],
            vec![vec![Value::Int(1)], vec![Value::Int(5)], vec![Value::Null]],
        );
        let gt2 = || Box::new(Expr::cmp(CmpKind::Gt, 0, Value::Int(2)));
        let lt0 = || Box::new(Expr::cmp(CmpKind::Lt, 0, Value::Int(0)));
        // gt2: F,T,N  lt0: F,F,N
        assert_eq!(
            run(Expr::And(gt2(), lt0()), &seg),
            vec![P_FALSE, P_FALSE, P_NULL]
        );
        assert_eq!(
            run(Expr::Or(gt2(), lt0()), &seg),
            vec![P_FALSE, P_TRUE, P_NULL]
        );
        assert_eq!(run(Expr::Not(gt2()), &seg), vec![P_TRUE, P_FALSE, P_NULL]);
        // NULL AND FALSE = FALSE; NULL OR TRUE = TRUE.
        let isnull = || Box::new(Expr::IsNull(col(0), false));
        let null_pred = || Box::new(Expr::cmp(CmpKind::Eq, 0, Value::Null));
        assert_eq!(
            run(Expr::And(null_pred(), lt0()), &seg),
            vec![P_FALSE, P_FALSE, P_NULL]
        );
        assert_eq!(
            run(Expr::Or(null_pred(), isnull()), &seg),
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
        let p = Expr::cmp(CmpKind::Ge, 0, Value::Int(10));
        assert_eq!(run(p, &seg), vec![P_TRUE, P_NULL, P_NULL]);
    }

    /// A chain is not `AND`: a later step's error survives only where
    /// every earlier step was TRUE, while inside one step `a AND b` masks
    /// `b` only where `a` is FALSE.
    #[test]
    fn a_chain_masks_errors_on_rows_an_earlier_step_did_not_admit() {
        // (n, big): row 1 is poisoned; n is FALSE / NULL / TRUE there.
        let seg_with = |n: Value| {
            seg_of(
                vec![DataType::Int, DataType::Int],
                vec![
                    vec![Value::Int(1), Value::Int(7)],
                    vec![n, Value::Int(i64::MAX)],
                    vec![Value::Int(2), Value::Int(i64::MAX)],
                ],
            )
        };
        let admits = || Expr::cmp(CmpKind::Gt, 0, Value::Int(0));
        let boom = || {
            let sum = Expr::Arith(ArithOp::Add, col(1), lit(Value::Int(1)));
            Expr::Cmp(CmpKind::Gt, Box::new(sum), lit(Value::Int(0)))
        };
        let chain = |n: Value, base: u64| {
            let mut p = Pred::new(admits());
            let inner = p.counted();
            p.push(boom());
            let outer = p.counted();
            let mut out = Vec::new();
            p.eval(&seg_with(n), 0, 3, base, &mut out);
            let load = |c: Arc<AtomicU64>| c.load(AtomicOrdering::Relaxed);
            (out, p, load(inner), load(outer))
        };
        for hidden in [Value::Int(-1), Value::Null] {
            // Row 1 is masked; row 2 reaches the second step and errors.
            let (out, p, inner, outer) = chain(hidden, 100);
            assert_eq!((out[0], out[2]), (P_TRUE, P_FALSE));
            assert_ne!(out[1], P_TRUE);
            assert_eq!((inner, outer), (2, 1));
            p.clear_err_from(103);
            let kept = p.clone();
            assert_eq!(p.take_err().as_deref(), Some("integer overflow in +"));
            assert_eq!(kept.take_err(), None, "clones share the cell");
            let (_, p, ..) = chain(Value::Int(-1), 100);
            p.clear_err_from(102);
            assert_eq!(p.take_err(), None, "a LIMIT stopped before row 2");
        }
        // The same two conditions in one step: NULL AND <error> raises.
        let seg = seg_with(Value::Null);
        let p = Pred::new(Expr::And(Box::new(admits()), Box::new(boom())));
        p.eval(&seg, 0, 1, 0, &mut Vec::new());
        assert_eq!(p.take_err(), None);
        p.eval(&seg, 1, 2, 1, &mut Vec::new());
        assert_eq!(p.take_err().as_deref(), Some("integer overflow in +"));
    }

    #[test]
    fn a_dead_row_reads_false_before_any_step_and_never_raises() {
        // One row in five dead: masked, short of compaction.
        let rows: Vec<Vec<Value>> = [1, i64::MAX, 3, 4, 5]
            .map(|x| vec![Value::Int(x)])
            .into_iter()
            .collect();
        let t = crate::ColumnTable::from_rows(vec![DataType::Int], &rows);
        let (t, _) = t.delete(&[1], 1);
        let seg = &t.segments[0];
        let mut live = Pred::live();
        let admitted = live.counted();
        let mut out = Vec::new();
        live.eval(seg, 0, 3, 0, &mut out);
        assert_eq!(out, [P_TRUE, P_FALSE, P_TRUE]);
        assert_eq!(admitted.load(AtomicOrdering::Relaxed), 2);
        // Row 1 would overflow; dead, it is never offered to the cell.
        let sum = Expr::Arith(ArithOp::Add, col(0), lit(Value::Int(1)));
        let p = Pred::new(Expr::Cmp(CmpKind::Gt, Box::new(sum), lit(Value::Int(0))));
        p.eval(seg, 0, 3, 0, &mut out);
        assert_eq!((out, p.take_err()), (vec![P_TRUE, P_FALSE, P_TRUE], None));
    }
}
