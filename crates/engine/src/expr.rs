//! Bound (name-resolved) expressions and their evaluation.
//!
//! Evaluation follows SQL three-valued logic: comparisons over NULL yield
//! NULL, AND/OR use Kleene logic, and a WHERE predicate admits a row only
//! when it evaluates to exactly TRUE.

use crate::error::{EngineError, Result};
use crate::exec::ExecCtx;
use crate::plan::Plan;
use crate::sync::Mutex;
use std::cmp::Ordering;
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering::Relaxed};
use std::sync::Arc;
use tpcds_storage::KeySet;
use tpcds_types::{DataType, Row, Value};

// Comparison and arithmetic operators and scalar functions are defined in
// `tpcds-types` so the columnar expression kernels share the exact same
// semantics (checked overflow, decimal rescale, NULL-on-zero-divide);
// re-exported here for existing callers.
pub use tpcds_types::scalar::{ArithOp, CmpKind, ScalarFunc};

/// A correlated or uncorrelated subplan embedded in an expression, in two
/// forms: the nested body the row interpreter runs per outer row, with
/// what it has evaluated to so far this statement (`T`: the scalar, the
/// IN set, or whether any row came back), and the decorrelated body the
/// batch executor runs once per call of the node that holds it.
#[derive(Clone)]
pub struct SubPlan<T> {
    /// The bound plan.
    pub plan: Arc<Plan>,
    /// Outer-scope column positions the plan references (`OuterCol`
    /// indexes); the memo key is the tuple of these values.
    pub outer_refs: Vec<usize>,
    /// The decorrelated body ([`crate::unnest`]): it reads the outer
    /// values from the [`Plan::Domain`] leaves numbered `domain`, and its
    /// output is the domain's columns (the `outer_refs` tuple, then a row
    /// id; none when uncorrelated) followed by the body's result columns.
    pub flat: Arc<Plan>,
    /// The [`Plan::Domain`] id `flat` reads.
    pub domain: usize,
    /// A scalar body's final projection, over `flat`'s output: the host
    /// evaluates it per domain tuple, so its errors reach only the rows
    /// that ask.
    pub pick: Option<Arc<BExpr>>,
    memo: Arc<Memo<T>>,
}

/// Results by outer-value tuple — an error is a result like any other —
/// and how many times the interpreter actually ran the body for them.
struct Memo<T> {
    results: Mutex<HashMap<Vec<Value>, Result<T>>>,
    runs: AtomicU64,
}

impl<T> std::fmt::Debug for SubPlan<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "SubPlan(outer_refs={:?})", self.outer_refs)
    }
}

impl<T: Clone> SubPlan<T> {
    /// A subplan that has not run yet.
    pub fn new(plan: Plan, outer_refs: Vec<usize>, unnested: crate::unnest::Unnested) -> Self {
        SubPlan {
            plan: Arc::new(plan),
            outer_refs,
            flat: Arc::new(unnested.0),
            domain: unnested.1,
            pick: unnested.2.map(Arc::new),
            memo: Arc::new(Memo {
                results: Mutex::new(HashMap::new()),
                runs: AtomicU64::new(0),
            }),
        }
    }

    /// True when the body reads nothing of the enclosing row: it has one
    /// result per statement.
    pub fn uncorrelated(&self) -> bool {
        self.outer_refs.is_empty()
    }

    /// Times the interpreter has executed the body (memo misses) this
    /// statement.
    pub fn runs(&self) -> u64 {
        self.memo.runs.load(Relaxed)
    }

    /// The same subplan (and memo) reading its outer values from remapped
    /// columns.
    fn remap(&self, map: &impl Fn(usize) -> usize) -> Self {
        SubPlan {
            outer_refs: self.outer_refs.iter().map(|i| map(*i)).collect(),
            ..self.clone()
        }
    }

    /// The result for `row`: the body runs once per distinct tuple of the
    /// outer values it reads (once per statement when uncorrelated). On
    /// the batch path only a row-independent subtree gets here, folded to
    /// a literal.
    fn eval(
        &self,
        row: &[Value],
        ctx: &ExecCtx<'_>,
        fold: impl FnOnce(Vec<Row>) -> Result<T>,
    ) -> Result<T> {
        let key: Vec<Value> = self.outer_refs.iter().map(|&i| row[i].clone()).collect();
        if let Some(hit) = self.memo.results.lock().get(&key) {
            return hit.clone();
        }
        if ctx.opts.columnar == crate::exec::ColumnarMode::Off {
            self.memo.runs.fetch_add(1, Relaxed);
        }
        let out = crate::exec::execute(&self.plan, ctx, Some(row)).and_then(fold);
        self.memo.results.lock().insert(key, out.clone());
        out
    }
}

/// One subquery's two bodies, as [`BExpr::subqueries`] lists them.
pub struct Body<'e> {
    /// The nested body.
    pub plan: &'e Arc<Plan>,
    /// The decorrelated body.
    pub flat: &'e Arc<Plan>,
    /// The host-input columns whose distinct tuples are the domain.
    pub outer_refs: &'e [usize],
    /// Times the interpreter ran the nested body.
    pub runs: u64,
}

/// Folds a body's rows into the set `IN` probes.
fn key_set(rows: Vec<Row>) -> Result<Arc<KeySet>> {
    Ok(Arc::new(KeySet::new(rows)))
}

/// A bound scalar expression, evaluated against a row.
#[derive(Debug, Clone)]
pub enum BExpr {
    /// Column of the current row.
    Col(usize),
    /// Column of the enclosing query's row (correlated subqueries).
    OuterCol(usize),
    /// Literal.
    Lit(Value),
    /// Comparison.
    Cmp(CmpKind, Box<BExpr>, Box<BExpr>),
    /// Kleene AND.
    And(Box<BExpr>, Box<BExpr>),
    /// Kleene OR.
    Or(Box<BExpr>, Box<BExpr>),
    /// NOT.
    Not(Box<BExpr>),
    /// Arithmetic.
    Arith(ArithOp, Box<BExpr>, Box<BExpr>),
    /// Unary minus.
    Neg(Box<BExpr>),
    /// `IS [NOT] NULL`.
    IsNull(Box<BExpr>, bool),
    /// `[NOT] LIKE`.
    Like(Box<BExpr>, Box<BExpr>, bool),
    /// `[NOT] IN (values...)`.
    InList(Box<BExpr>, Vec<BExpr>, bool),
    /// `[NOT] BETWEEN`.
    Between(Box<BExpr>, Box<BExpr>, Box<BExpr>, bool),
    /// CASE.
    Case {
        /// CASE operand (simple form).
        operand: Option<Box<BExpr>>,
        /// WHEN/THEN pairs.
        branches: Vec<(BExpr, BExpr)>,
        /// ELSE.
        else_branch: Option<Box<BExpr>>,
    },
    /// CAST to a runtime type.
    Cast(Box<BExpr>, DataType),
    /// Scalar function.
    Func(ScalarFunc, Vec<BExpr>),
    /// `||`.
    Concat(Box<BExpr>, Box<BExpr>),
    /// Scalar subquery with memoization over correlated values.
    ScalarSubquery(SubPlan<Value>),
    /// `[NOT] IN (subquery)`.
    InSubquery(Box<BExpr>, SubPlan<Arc<KeySet>>, bool),
    /// `[NOT] EXISTS (subquery)`.
    Exists(SubPlan<bool>, bool),
}

impl BExpr {
    /// Boxed helper.
    pub fn boxed(self) -> Box<BExpr> {
        Box::new(self)
    }

    /// Evaluates against `row`; `outer` is the enclosing query's row when
    /// evaluating inside a correlated subplan.
    pub fn eval(&self, row: &[Value], ctx: &ExecCtx<'_>, outer: Option<&[Value]>) -> Result<Value> {
        match self {
            BExpr::Col(i) => Ok(row
                .get(*i)
                .cloned()
                .ok_or_else(|| EngineError::exec(format!("column index {i} out of range")))?),
            BExpr::OuterCol(i) => {
                let o = outer.ok_or_else(|| EngineError::exec("no outer row in scope"))?;
                Ok(o.get(*i)
                    .cloned()
                    .ok_or_else(|| EngineError::exec(format!("outer column {i} out of range")))?)
            }
            BExpr::Lit(v) => Ok(v.clone()),
            BExpr::Cmp(op, l, r) => {
                let lv = l.eval(row, ctx, outer)?;
                let rv = r.eval(row, ctx, outer)?;
                Ok(match lv.sql_cmp(&rv) {
                    None => Value::Null,
                    Some(ord) => Value::Bool(op.test(ord)),
                })
            }
            BExpr::And(l, r) => {
                let lv = l.eval(row, ctx, outer)?;
                if lv == Value::Bool(false) {
                    return Ok(Value::Bool(false));
                }
                let rv = r.eval(row, ctx, outer)?;
                Ok(match (lv.as_bool(), rv.as_bool()) {
                    (_, Some(false)) => Value::Bool(false),
                    (Some(true), Some(true)) => Value::Bool(true),
                    _ => Value::Null,
                })
            }
            BExpr::Or(l, r) => {
                let lv = l.eval(row, ctx, outer)?;
                if lv == Value::Bool(true) {
                    return Ok(Value::Bool(true));
                }
                let rv = r.eval(row, ctx, outer)?;
                Ok(match (lv.as_bool(), rv.as_bool()) {
                    (_, Some(true)) => Value::Bool(true),
                    (Some(false), Some(false)) => Value::Bool(false),
                    _ => Value::Null,
                })
            }
            BExpr::Not(e) => Ok(match e.eval(row, ctx, outer)?.as_bool() {
                Some(b) => Value::Bool(!b),
                None => Value::Null,
            }),
            BExpr::Arith(op, l, r) => {
                let lv = l.eval(row, ctx, outer)?;
                let rv = r.eval(row, ctx, outer)?;
                arith(*op, &lv, &rv)
            }
            BExpr::Neg(e) => {
                tpcds_types::scalar::neg(&e.eval(row, ctx, outer)?).map_err(EngineError::exec)
            }
            BExpr::IsNull(e, negated) => {
                let v = e.eval(row, ctx, outer)?;
                Ok(Value::Bool(v.is_null() != *negated))
            }
            BExpr::Like(e, p, negated) => {
                let v = e.eval(row, ctx, outer)?;
                let pat = p.eval(row, ctx, outer)?;
                match (v.as_str(), pat.as_str()) {
                    (Some(s), Some(pat)) => Ok(Value::Bool(like_match(s, pat) != *negated)),
                    _ => Ok(Value::Null),
                }
            }
            BExpr::InList(e, list, negated) => {
                let v = e.eval(row, ctx, outer)?;
                if v.is_null() {
                    return Ok(Value::Null);
                }
                let mut saw_null = false;
                for item in list {
                    let iv = item.eval(row, ctx, outer)?;
                    match v.sql_cmp(&iv) {
                        Some(Ordering::Equal) => return Ok(Value::Bool(!*negated)),
                        None if iv.is_null() => saw_null = true,
                        _ => {}
                    }
                }
                if saw_null {
                    Ok(Value::Null)
                } else {
                    Ok(Value::Bool(*negated))
                }
            }
            BExpr::Between(e, lo, hi, negated) => {
                let v = e.eval(row, ctx, outer)?;
                let lov = lo.eval(row, ctx, outer)?;
                let hiv = hi.eval(row, ctx, outer)?;
                match (v.sql_cmp(&lov), v.sql_cmp(&hiv)) {
                    (Some(a), Some(b)) => {
                        let inside = a != Ordering::Less && b != Ordering::Greater;
                        Ok(Value::Bool(inside != *negated))
                    }
                    _ => Ok(Value::Null),
                }
            }
            BExpr::Case {
                operand,
                branches,
                else_branch,
            } => {
                let op_val = operand
                    .as_ref()
                    .map(|o| o.eval(row, ctx, outer))
                    .transpose()?;
                for (cond, result) in branches {
                    let hit = match &op_val {
                        Some(v) => {
                            let cv = cond.eval(row, ctx, outer)?;
                            v.sql_cmp(&cv) == Some(Ordering::Equal)
                        }
                        None => cond.eval(row, ctx, outer)?.as_bool().unwrap_or(false),
                    };
                    if hit {
                        return result.eval(row, ctx, outer);
                    }
                }
                match else_branch {
                    Some(e) => e.eval(row, ctx, outer),
                    None => Ok(Value::Null),
                }
            }
            BExpr::Cast(e, ty) => cast(e.eval(row, ctx, outer)?, *ty),
            BExpr::Func(f, args) => {
                let vals: Result<Vec<Value>> =
                    args.iter().map(|a| a.eval(row, ctx, outer)).collect();
                scalar_func(*f, &vals?)
            }
            BExpr::Concat(l, r) => {
                let lv = l.eval(row, ctx, outer)?;
                let rv = r.eval(row, ctx, outer)?;
                Ok(tpcds_types::scalar::concat(&lv, &rv))
            }
            BExpr::ScalarSubquery(sub) => sub.eval(row, ctx, |rows| {
                if rows.len() > 1 {
                    return Err(EngineError::exec(
                        "scalar subquery returned more than one row",
                    ));
                }
                let first = rows.into_iter().next();
                Ok(first
                    .and_then(|r| r.into_iter().next())
                    .unwrap_or(Value::Null))
            }),
            BExpr::InSubquery(e, sub, negated) => {
                let v = e.eval(row, ctx, outer)?;
                if v.is_null() {
                    return Ok(Value::Null);
                }
                let set = sub.eval(row, ctx, key_set)?;
                Ok(set
                    .test(&[v])
                    .map_or(Value::Null, |b| Value::Bool(b != *negated)))
            }
            BExpr::Exists(sub, negated) => {
                let any = sub.eval(row, ctx, |rows| Ok(!rows.is_empty()))?;
                Ok(Value::Bool(any != *negated))
            }
        }
    }

    /// True when the predicate admits the row (strict TRUE).
    pub fn matches(
        &self,
        row: &[Value],
        ctx: &ExecCtx<'_>,
        outer: Option<&[Value]>,
    ) -> Result<bool> {
        Ok(self.eval(row, ctx, outer)? == Value::Bool(true))
    }

    /// Visits all column indexes referenced by this expression.
    pub fn visit_columns(&self, f: &mut impl FnMut(usize)) {
        match self {
            BExpr::Col(i) => f(*i),
            BExpr::ScalarSubquery(sub) => sub.outer_refs.iter().for_each(|i| f(*i)),
            BExpr::Exists(sub, _) => sub.outer_refs.iter().for_each(|i| f(*i)),
            BExpr::InSubquery(_, sub, _) => sub.outer_refs.iter().for_each(|i| f(*i)),
            _ => {}
        }
        for c in self.children() {
            c.visit_columns(f);
        }
    }

    /// Rewrites column indexes through `map` (old index → new index).
    /// Used when pushing predicates below projections or to join sides.
    pub fn remap_columns(&self, map: &impl Fn(usize) -> usize) -> BExpr {
        self.rebind(map, &BExpr::OuterCol)
    }

    /// [`BExpr::remap_columns`], with each outer reference replaced by
    /// `outer` of its index.
    pub(crate) fn rebind(
        &self,
        map: &impl Fn(usize) -> usize,
        outer: &impl Fn(usize) -> BExpr,
    ) -> BExpr {
        let rm = |e: &BExpr| e.rebind(map, outer).boxed();
        let all = |es: &[BExpr]| es.iter().map(|e| e.rebind(map, outer)).collect();
        match self {
            BExpr::Col(i) => BExpr::Col(map(*i)),
            BExpr::OuterCol(i) => outer(*i),
            BExpr::Lit(v) => BExpr::Lit(v.clone()),
            BExpr::Cmp(op, a, b) => BExpr::Cmp(*op, rm(a), rm(b)),
            BExpr::And(a, b) => BExpr::And(rm(a), rm(b)),
            BExpr::Or(a, b) => BExpr::Or(rm(a), rm(b)),
            BExpr::Not(a) => BExpr::Not(rm(a)),
            BExpr::Arith(op, a, b) => BExpr::Arith(*op, rm(a), rm(b)),
            BExpr::Neg(a) => BExpr::Neg(rm(a)),
            BExpr::IsNull(a, n) => BExpr::IsNull(rm(a), *n),
            BExpr::Like(a, b, n) => BExpr::Like(rm(a), rm(b), *n),
            BExpr::InList(a, list, n) => BExpr::InList(rm(a), all(list), *n),
            BExpr::Between(a, lo, hi, n) => BExpr::Between(rm(a), rm(lo), rm(hi), *n),
            BExpr::Case {
                operand,
                branches,
                else_branch,
            } => BExpr::Case {
                operand: operand.as_ref().map(|o| rm(o)),
                branches: (branches.iter())
                    .map(|(c, r)| (c.rebind(map, outer), r.rebind(map, outer)))
                    .collect(),
                else_branch: else_branch.as_ref().map(|e| rm(e)),
            },
            BExpr::Cast(a, t) => BExpr::Cast(rm(a), *t),
            BExpr::Func(f, args) => BExpr::Func(*f, all(args)),
            BExpr::Concat(a, b) => BExpr::Concat(rm(a), rm(b)),
            BExpr::ScalarSubquery(sub) => BExpr::ScalarSubquery(sub.remap(map)),
            BExpr::InSubquery(a, sub, n) => BExpr::InSubquery(rm(a), sub.remap(map), *n),
            BExpr::Exists(sub, n) => BExpr::Exists(sub.remap(map), *n),
        }
    }

    /// True when `test` holds for this node or one below it (subquery
    /// plans are not entered).
    fn any(&self, test: &impl Fn(&BExpr) -> bool) -> bool {
        test(self) || self.children().into_iter().any(|e| e.any(test))
    }

    /// The operands, in evaluation order (an `IN` subquery's operand; no
    /// subquery plan).
    fn children(&self) -> Vec<&BExpr> {
        match self {
            BExpr::Col(_) | BExpr::OuterCol(_) | BExpr::Lit(_) => vec![],
            BExpr::ScalarSubquery(..) | BExpr::Exists(..) => vec![],
            BExpr::Cmp(_, a, b)
            | BExpr::And(a, b)
            | BExpr::Or(a, b)
            | BExpr::Arith(_, a, b)
            | BExpr::Concat(a, b)
            | BExpr::Like(a, b, _) => vec![a, b],
            BExpr::Not(a)
            | BExpr::Neg(a)
            | BExpr::IsNull(a, _)
            | BExpr::Cast(a, _)
            | BExpr::InSubquery(a, ..) => vec![a],
            BExpr::InList(a, list, _) => std::iter::once(&**a).chain(list).collect(),
            BExpr::Between(a, lo, hi, _) => vec![a, lo, hi],
            BExpr::Case {
                operand,
                branches,
                else_branch,
            } => (operand.as_deref().into_iter())
                .chain(branches.iter().flat_map(|(c, r)| [c, r]))
                .chain(else_branch.as_deref())
                .collect(),
            BExpr::Func(_, args) => args.iter().collect(),
        }
    }

    /// True when the expression contains a subquery (which may be
    /// correlated against columns that a remap cannot chase into the plan).
    pub fn has_subquery(&self) -> bool {
        self.any(&|e| {
            matches!(
                e,
                BExpr::ScalarSubquery(..) | BExpr::InSubquery(..) | BExpr::Exists(..)
            )
        })
    }

    /// True when a subquery in the expression reads the enclosing row:
    /// column remaps cannot chase those references into its plan, so the
    /// expression has to stay where the binder put it.
    pub fn has_correlated_subquery(&self) -> bool {
        self.any(&|e| match e {
            BExpr::ScalarSubquery(sub) => !sub.uncorrelated(),
            BExpr::InSubquery(_, sub, _) => !sub.uncorrelated(),
            BExpr::Exists(sub, _) => !sub.uncorrelated(),
            _ => false,
        })
    }

    /// True when the value depends on no row — neither the one it is
    /// evaluated against (no column, no correlated subquery) nor an
    /// enclosing one.
    pub fn is_constant(&self) -> bool {
        let mut reads_column = false;
        self.visit_columns(&mut |_| reads_column = true);
        !reads_column && !self.reads_outer()
    }

    /// True when the expression itself (not a subquery body under it)
    /// references the enclosing query's row.
    pub(crate) fn reads_outer(&self) -> bool {
        self.any(&|e| matches!(e, BExpr::OuterCol(_)))
    }

    /// `(subqueries, interpreter body runs so far)` under this
    /// expression, nested bodies included — EXPLAIN ANALYZE's `subplans=`
    /// / `subplan_runs=` under `ColumnarMode::Off`.
    pub fn subplans(&self) -> (u64, u64) {
        (self.subqueries().iter()).fold((0, 0), |(n, runs), b| {
            let (bn, bruns) = b.plan.subplans_deep();
            (n + 1 + bn, runs + b.runs + bruns)
        })
    }

    /// The subqueries directly under this expression (not those inside
    /// their bodies), in evaluation order, with their interpreter runs.
    pub fn subqueries(&self) -> Vec<Body<'_>> {
        let mut out = Vec::new();
        self.visit_subqueries(&mut |b| out.push(b));
        out
    }

    fn visit_subqueries<'e>(&'e self, f: &mut impl FnMut(Body<'e>)) {
        let (plan, flat, outer_refs, runs) = match self {
            BExpr::ScalarSubquery(s) => (&s.plan, &s.flat, &s.outer_refs, s.runs()),
            BExpr::InSubquery(_, s, _) => (&s.plan, &s.flat, &s.outer_refs, s.runs()),
            BExpr::Exists(s, _) => (&s.plan, &s.flat, &s.outer_refs, s.runs()),
            _ => {
                return self
                    .children()
                    .into_iter()
                    .for_each(|c| c.visit_subqueries(f))
            }
        };
        self.children()
            .into_iter()
            .for_each(|c| c.visit_subqueries(f));
        f(Body {
            plan,
            flat,
            outer_refs,
            runs,
        })
    }
}

/// Arithmetic with numeric widening, date arithmetic and NULL propagation
/// (shared implementation in [`tpcds_types::scalar`]).
pub fn arith(op: ArithOp, l: &Value, r: &Value) -> Result<Value> {
    tpcds_types::scalar::arith(op, l, r).map_err(EngineError::exec)
}

/// CAST implementation (shared implementation in [`tpcds_types::scalar`]).
pub fn cast(v: Value, ty: DataType) -> Result<Value> {
    tpcds_types::scalar::cast(v, ty).map_err(EngineError::exec)
}

// SQL LIKE with `%` and `_` wildcards. The implementation lives in
// `tpcds-types` so the columnar kernels share it; re-exported here for
// existing callers.
pub use tpcds_types::like_match;

fn scalar_func(f: ScalarFunc, args: &[Value]) -> Result<Value> {
    tpcds_types::scalar::scalar_func(f, args).map_err(EngineError::exec)
}

#[cfg(test)]
mod tests {
    use super::*;
    use tpcds_types::Date;

    #[test]
    fn like_semantics() {
        assert!(like_match("hello", "h%"));
        assert!(like_match("hello", "%llo"));
        assert!(like_match("hello", "h_llo"));
        assert!(like_match("hello", "%"));
        assert!(!like_match("hello", "h_y%"));
        assert!(like_match("", "%"));
        assert!(!like_match("", "_"));
        assert!(like_match("abc", "a%c"));
        assert!(like_match("a%c", "a%c"));
        assert!(!like_match("ab", "a"));
    }

    #[test]
    fn arith_widening() {
        let five = Value::Int(5);
        let half = Value::Decimal("0.5".parse().unwrap());
        assert_eq!(
            arith(ArithOp::Add, &five, &half).unwrap(),
            Value::Decimal("5.5".parse().unwrap())
        );
        // int/int is exact decimal
        assert_eq!(
            arith(ArithOp::Div, &Value::Int(1), &Value::Int(4)).unwrap(),
            Value::Decimal("0.25".parse().unwrap())
        );
        assert_eq!(
            arith(ArithOp::Div, &five, &Value::Int(0)).unwrap(),
            Value::Null
        );
    }

    #[test]
    fn date_arith() {
        let d = Value::Date(Date::from_ymd(1999, 2, 21));
        let plus = arith(ArithOp::Add, &d, &Value::Int(30)).unwrap();
        assert_eq!(plus.to_flat(), "1999-03-23");
        let diff = arith(ArithOp::Sub, &plus, &d).unwrap();
        assert_eq!(diff, Value::Int(30));
    }

    #[test]
    fn null_propagation() {
        assert_eq!(
            arith(ArithOp::Add, &Value::Null, &Value::Int(1)).unwrap(),
            Value::Null
        );
    }

    #[test]
    fn casts() {
        assert_eq!(
            cast(Value::str("42"), DataType::Int).unwrap(),
            Value::Int(42)
        );
        assert_eq!(
            cast(Value::str("1999-01-02"), DataType::Date)
                .unwrap()
                .to_flat(),
            "1999-01-02"
        );
        assert_eq!(
            cast(Value::Decimal("3.99".parse().unwrap()), DataType::Int).unwrap(),
            Value::Int(3)
        );
        assert!(cast(Value::str("zip"), DataType::Int).is_err());
        assert_eq!(cast(Value::Null, DataType::Int).unwrap(), Value::Null);
    }

    #[test]
    fn scalar_functions() {
        assert_eq!(
            scalar_func(
                ScalarFunc::Substr,
                &[Value::str("customer"), Value::Int(1), Value::Int(4)]
            )
            .unwrap(),
            Value::str("cust")
        );
        assert_eq!(
            scalar_func(ScalarFunc::Coalesce, &[Value::Null, Value::Int(2)]).unwrap(),
            Value::Int(2)
        );
        assert_eq!(
            scalar_func(ScalarFunc::Nullif, &[Value::Int(2), Value::Int(2)]).unwrap(),
            Value::Null
        );
        assert_eq!(
            scalar_func(
                ScalarFunc::Round,
                &[Value::Decimal("2.675".parse().unwrap()), Value::Int(2)]
            )
            .unwrap(),
            Value::Decimal("2.68".parse().unwrap())
        );
        assert_eq!(
            scalar_func(ScalarFunc::Length, &[Value::str("abc")]).unwrap(),
            Value::Int(3)
        );
    }
}
