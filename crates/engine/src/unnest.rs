//! Subquery decorrelation (Neumann & Kemper, "Unnesting Arbitrary
//! Queries", BTW 2015): a body that reads the enclosing row becomes a plan
//! over a [`Plan::Domain`] leaf — the distinct tuples of the outer columns
//! it reads, each numbered — that the batch executor runs once per call of
//! the node holding the subquery. The domain is joined in where the
//! correlation sits (a `Filter` that reads the outer row filters the
//! domain × its input, which [`crate::optimizer::optimize`] turns into
//! keyed hash joins) and carried up: every node above emits the domain's columns
//! first, groups and partitions by its number, joins two sides that both
//! carry it on that number, left-joins a global aggregate to it (a tuple
//! without rows still gets its one row: `count(*)` 0) and cuts a `LIMIT`
//! per tuple by `row_number()`.

use crate::catalog::Database;
use crate::expr::{BExpr, CmpKind, ScalarFunc};
use crate::optimizer::{and_all, split_conjuncts};
use crate::plan::{AggCall, Plan, WindowCall};
use std::sync::Arc;
use tpcds_storage::{agg::PAcc, JoinType, WinFunc};
use tpcds_types::Value;

/// A subquery body in its batch form (see [`crate::expr::SubPlan`]): the
/// decorrelated body, whose output is the domain's columns and then the
/// result's, the [`Plan::Domain`] id it reads, and a scalar body's final
/// projection over that output.
pub struct Unnested(pub Plan, pub usize, pub Option<BExpr>);

/// What a subquery answers, which fixes its result columns.
#[derive(Clone, Copy, PartialEq, Eq)]
pub enum Answers {
    /// `EXISTS`: none.
    Rows,
    /// `IN`: the body's one column.
    Values,
    /// A scalar: the columns under its final projection.
    Scalar,
}

/// `body`, which reads the enclosing row through `OuterCol(refs[k])`, in
/// its batch form over domain `id`. An uncorrelated body is its own batch
/// form (less a scalar's final projection): its domain is one empty tuple.
/// With `db`, each block the domain joins is optimized and the result's
/// columns pruned.
pub fn unnest(
    body: &Plan,
    refs: &[usize],
    id: usize,
    answers: Answers,
    db: Option<&Database>,
) -> Unnested {
    let u = Unnest { id, refs, db };
    let d = if refs.is_empty() { 0 } else { u.dw() };
    let scalar = answers == Answers::Scalar;
    let (pre, pick) = match body {
        Plan::Project { input, exprs } if scalar && exprs.len() == 1 => {
            (&**input, u.shift(&exprs[0], d))
        }
        _ => (body, BExpr::Col(d)),
    };
    let n = if answers == Answers::Rows {
        0
    } else {
        pre.width()
    };
    let flat = match refs.is_empty() {
        true => pre.clone(),
        false => project(
            u.carry(&crate::optimizer::fuse_topn(pre)),
            (0..d + n).map(BExpr::Col).collect(),
        ),
    };
    let flat = if db.is_some() {
        crate::optimizer::prune_columns(&flat)
    } else {
        flat
    };
    Unnested(flat, id, scalar.then_some(pick))
}

struct Unnest<'a> {
    id: usize,
    refs: &'a [usize],
    db: Option<&'a Database>,
}

impl Unnest<'_> {
    /// The domain's width: the outer tuple, then its number.
    fn dw(&self) -> usize {
        self.refs.len() + 1
    }

    fn dom(&self) -> Plan {
        Plan::Domain {
            id: self.id,
            width: self.dw(),
        }
    }

    /// The domain's number column.
    fn did(&self) -> BExpr {
        BExpr::Col(self.refs.len())
    }

    /// The domain's columns, then `rest`.
    fn dcols(&self, rest: impl IntoIterator<Item = BExpr>) -> Vec<BExpr> {
        (0..self.dw()).map(BExpr::Col).chain(rest).collect()
    }

    /// `e` with its columns moved up `by` and each outer reference reading
    /// the domain's column for it.
    fn shift(&self, e: &BExpr, by: usize) -> BExpr {
        let at = |i| {
            self.refs
                .iter()
                .position(|&r| r == i)
                .expect("an outer reference")
        };
        e.rebind(&|c| c + by, &|i| BExpr::Col(at(i)))
    }

    /// `predicate` over `input`, a block the domain was joined into: an
    /// equality common to both arms of an OR is lifted out of it, so that
    /// it can key a join, and the block is optimized when planning is.
    fn block(&self, input: Plan, predicate: BExpr) -> Plan {
        let mut conjuncts = Vec::new();
        split_conjuncts(predicate, &mut conjuncts);
        let plan = input.filtered(Some(and_all(
            conjuncts.into_iter().flat_map(factor).collect(),
        )));
        match self.db {
            Some(db) => crate::optimizer::optimize(plan, db),
            None => plan,
        }
    }

    /// `p`'s rows for each domain tuple: the domain's columns, then `p`'s.
    fn carry(&self, p: &Plan) -> Plan {
        let d = self.dw();
        if !p.reads_outer() {
            return crate::binder::cross_join(self.dom(), p.clone());
        }
        let s = |e: &BExpr| self.shift(e, d);
        let all = |es: &[BExpr]| es.iter().map(s).collect::<Vec<_>>();
        let keys = |ks: &[(BExpr, bool)]| ks.iter().map(|(k, desc)| (s(k), *desc)).collect();
        let c = |p: &Arc<Plan>| Arc::new(self.carry(p));
        match p {
            Plan::Filter { input, predicate } => self.block(self.carry(input), s(predicate)),
            Plan::Project { input, exprs } => project(self.carry(input), self.dcols(all(exprs))),
            Plan::HashJoin {
                left,
                right,
                kind,
                left_keys,
                right_keys,
                residual,
            } => {
                let (lw, rw) = (left.width(), right.width());
                let reads =
                    |p: &Plan, ks: &[BExpr]| p.reads_outer() || ks.iter().any(BExpr::reads_outer);
                // The residual reads the combined row, the domain first.
                let res = |map: &dyn Fn(usize) -> usize| {
                    residual
                        .as_ref()
                        .map(|r| r.rebind(&map, &|i| self.shift(&BExpr::OuterCol(i), 0)))
                };
                let cols = |r: [std::ops::Range<usize>; 2]| {
                    r.into_iter().flatten().map(BExpr::Col).collect()
                };
                if !reads(right, right_keys) {
                    let (l, lk) = (self.carry(left), all(left_keys));
                    return join(
                        l,
                        (**right).clone(),
                        *kind,
                        lk,
                        right_keys.clone(),
                        res(&|c| c + d),
                    );
                }
                if *kind == JoinType::Inner && !reads(left, left_keys) {
                    let (r, rk) = (self.carry(right), all(right_keys));
                    let res = res(&|c| if c < lw { d + rw + c } else { d + c - lw });
                    let j = join(r, (**left).clone(), *kind, rk, left_keys.clone(), res);
                    return project(j, self.dcols(cols([d + rw..d + rw + lw, d..d + rw])));
                }
                // Both sides carry the domain: they join on its number.
                let lk = [vec![self.did()], all(left_keys)].concat();
                let rk = [vec![self.did()], all(right_keys)].concat();
                let res = res(&|c| if c < lw { d + c } else { 2 * d + c });
                let j = join(self.carry(left), self.carry(right), *kind, lk, rk, res);
                project(j, cols([0..d + lw, 2 * d + lw..2 * d + lw + rw]))
            }
            Plan::Aggregate {
                input,
                groups,
                aggs,
            } => {
                let aggs: Vec<AggCall> = (aggs.iter())
                    .map(|a| AggCall {
                        func: a.func,
                        arg: a.arg.as_ref().map(s),
                    })
                    .collect();
                let agg = Plan::Aggregate {
                    input: c(input),
                    groups: self.dcols(all(groups)),
                    aggs: aggs.clone(),
                };
                if !groups.is_empty() {
                    return agg;
                }
                // One row per tuple: a tuple without input rows gets the
                // aggregates of none.
                let j = join(
                    self.dom(),
                    agg,
                    JoinType::Left,
                    vec![self.did()],
                    vec![self.did()],
                    None,
                );
                let empty =
                    aggs.iter()
                        .enumerate()
                        .map(|(i, a)| match PAcc::new(a.func).finish() {
                            Value::Null => BExpr::Col(2 * d + i),
                            v => BExpr::Func(
                                ScalarFunc::Coalesce,
                                vec![BExpr::Col(2 * d + i), BExpr::Lit(v)],
                            ),
                        });
                project(j, self.dcols(empty))
            }
            Plan::Window { input, calls } => {
                let call = |w: &WindowCall| WindowCall {
                    func: w.func,
                    arg: w.arg.as_ref().map(s),
                    partition: [vec![self.did()], all(&w.partition)].concat(),
                    order: keys(&w.order),
                };
                Plan::Window {
                    input: c(input),
                    calls: calls.iter().map(call).collect(),
                }
            }
            Plan::Sort { input, keys: k } => Plan::Sort {
                input: c(input),
                keys: keys(k),
            },
            Plan::TopN { input, keys, n } => self.first(input, keys, *n),
            Plan::Limit { input, n } => self.first(input, &[], *n),
            Plan::UnionAll { left, right } => Plan::UnionAll {
                left: c(left),
                right: c(right),
            },
            // The optimizer keeps a conjunct that reads the outer row out
            // of scan filters; CTE bodies cannot read it.
            Plan::Scan { .. } | Plan::CteRef { .. } | Plan::Domain { .. } => {
                unreachable!("reads no outer row")
            }
        }
    }

    /// The first `n` rows of `input` in `keys` order, per domain tuple.
    fn first(&self, input: &Arc<Plan>, keys: &[(BExpr, bool)], n: u64) -> Plan {
        let (d, w) = (self.dw(), input.width());
        let order = keys
            .iter()
            .map(|(k, desc)| (self.shift(k, d), *desc))
            .collect();
        let call = WindowCall {
            func: WinFunc::RowNumber,
            arg: None,
            partition: vec![self.did()],
            order,
        };
        let numbered = Plan::Window {
            input: Arc::new(self.carry(input)),
            calls: vec![call],
        };
        let n = BExpr::Lit(Value::Int(n as i64)).boxed();
        let kept = numbered.filtered(Some(BExpr::Cmp(CmpKind::Le, BExpr::Col(d + w).boxed(), n)));
        project(kept, (0..d + w).map(BExpr::Col).collect())
    }
}

/// `c` as conjuncts, those that both arms of an OR share lifted out of it:
/// `(a AND b) OR (a AND c)` is `a AND (b OR c)` under three-valued logic.
fn factor(c: BExpr) -> Vec<BExpr> {
    let BExpr::Or(l, r) = &c else {
        return vec![c];
    };
    let (mut a, mut b) = (Vec::new(), Vec::new());
    split_conjuncts((**l).clone(), &mut a);
    split_conjuncts((**r).clone(), &mut b);
    let key = |e: &BExpr| format!("{e:?}");
    let shared = |x: &BExpr| !x.has_subquery() && b.iter().any(|y| key(x) == key(y));
    let common: Vec<BExpr> = a.iter().filter(|x| shared(x)).cloned().collect();
    let rest = |side: Vec<BExpr>| -> Vec<BExpr> {
        (side.into_iter())
            .filter(|x| !common.iter().any(|y| key(x) == key(y)))
            .collect()
    };
    let (a, b) = (rest(a), rest(b));
    if common.is_empty() || a.is_empty() || b.is_empty() {
        return vec![c];
    }
    common
        .into_iter()
        .chain([BExpr::Or(and_all(a).boxed(), and_all(b).boxed())])
        .collect()
}

fn project(input: Plan, exprs: Vec<BExpr>) -> Plan {
    Plan::Project {
        input: Arc::new(input),
        exprs,
    }
}

fn join(
    l: Plan,
    r: Plan,
    kind: JoinType,
    lk: Vec<BExpr>,
    rk: Vec<BExpr>,
    res: Option<BExpr>,
) -> Plan {
    let (left, right) = (Arc::new(l), Arc::new(r));
    Plan::HashJoin {
        left,
        right,
        kind,
        left_keys: lk,
        right_keys: rk,
        residual: res,
    }
}
