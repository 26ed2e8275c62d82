//! Name resolution and plan construction: AST → bound [`Plan`].
//!
//! The binder produces a *naive* join tree (cross-join chain + filter) that
//! [`crate::optimizer`] then reorders into selective hash joins. Aggregates
//! are resolved with the classic "aggregate environment" rewrite: group
//! expressions and aggregate calls become columns of the Aggregate node,
//! and the projection / HAVING / ORDER BY expressions are rewritten on top.
//! ROLLUP, `GROUPING()` and DISTINCT calls are lowered onto plain
//! aggregates ([`Binder::lower_aggregate`]).

use crate::ast;
use crate::catalog::Database;
use crate::error::{EngineError, Result};
use crate::expr::{ArithOp, BExpr, CmpOp, ScalarFunc, SubPlan};
use crate::plan::{AggCall, JoinKind, Plan, WindowCall};
use std::collections::HashMap;
use std::sync::Arc;
use tpcds_storage::{AggKind, KeySet, WinFunc};
use tpcds_types::{DataType, Value};

/// Sentinel base for window-result column references: window columns are
/// appended after the (not yet final) aggregate output, so the binder
/// records `WIN_SENTINEL + k` and patches it once the aggregate width is
/// known.
const WIN_SENTINEL: usize = usize::MAX / 2;

/// A bound statement: the plan plus output column names.
#[derive(Debug, Clone)]
pub struct Bound {
    /// Executable plan.
    pub plan: Arc<Plan>,
    /// Output column names.
    pub names: Vec<String>,
}

/// One visible column during binding.
#[derive(Debug, Clone)]
struct ScopeCol {
    qualifier: Option<String>,
    name: String,
    /// The declared type, for a stored table's column.
    dtype: Option<DataType>,
}

/// The columns visible to expressions at some point in the pipeline.
#[derive(Debug, Clone, Default)]
struct Scope {
    cols: Vec<ScopeCol>,
}

impl Scope {
    /// Adds a column whose type is not known at bind time (computed).
    fn push(&mut self, qualifier: Option<String>, name: impl Into<String>) {
        self.cols.push(ScopeCol {
            qualifier,
            name: name.into(),
            dtype: None,
        });
    }

    /// The type `e` is declared to have: a stored column's, or a cast's.
    fn type_of(&self, e: &BExpr) -> Option<DataType> {
        match e {
            BExpr::Col(i) => self.cols[*i].dtype,
            BExpr::Cast(_, ty) => Some(*ty),
            _ => None,
        }
    }

    fn resolve(&self, qualifier: Option<&str>, name: &str) -> Result<Option<usize>> {
        let mut found = None;
        for (i, c) in self.cols.iter().enumerate() {
            let q_ok = match qualifier {
                None => true,
                Some(q) => c.qualifier.as_deref() == Some(q),
            };
            if q_ok && c.name == name {
                if found.is_some() {
                    return Err(EngineError::bind(format!("ambiguous column {name}")));
                }
                found = Some(i);
            }
        }
        Ok(found)
    }

    fn merged(mut self, other: Scope) -> Scope {
        self.cols.extend(other.cols);
        self
    }
}

struct CteEntry {
    plan: Arc<Plan>,
    names: Vec<String>,
    id: usize,
}

/// The binder.
pub struct Binder<'a> {
    db: &'a Database,
    ctes: Vec<HashMap<String, Arc<CteEntry>>>,
    next_cte_id: usize,
    optimize: bool,
}

impl<'a> Binder<'a> {
    /// Creates a binder over the database catalog.
    pub fn new(db: &'a Database) -> Self {
        Binder {
            db,
            ctes: vec![HashMap::new()],
            next_cte_id: 0,
            optimize: true,
        }
    }

    /// Disables the join-reordering / predicate-pushdown pass, leaving the
    /// binder's naive left-deep cross-join plan (used by the optimizer
    /// ablation study).
    pub fn without_optimizer(mut self) -> Self {
        self.optimize = false;
        self
    }

    /// Binds a full query (the public entry point).
    pub fn bind(&mut self, q: &ast::Query) -> Result<Bound> {
        let (plan, _scope, names) = self.bind_query(q, None, &mut Vec::new())?;
        let plan = if self.optimize {
            crate::optimizer::fuse_topn(plan)
        } else {
            plan
        };
        Ok(Bound {
            plan: Arc::new(plan),
            names,
        })
    }

    /// Binds a query, possibly correlated against `outer`. `outer_refs`
    /// collects outer column indexes used.
    fn bind_query(
        &mut self,
        q: &ast::Query,
        outer: Option<&Scope>,
        outer_refs: &mut Vec<usize>,
    ) -> Result<(Plan, Scope, Vec<String>)> {
        // Register CTEs in a fresh layer.
        self.ctes.push(HashMap::new());
        let result = self.bind_query_inner(q, outer, outer_refs);
        self.ctes.pop();
        result
    }

    fn bind_query_inner(
        &mut self,
        q: &ast::Query,
        outer: Option<&Scope>,
        outer_refs: &mut Vec<usize>,
    ) -> Result<(Plan, Scope, Vec<String>)> {
        for (name, cte_q) in &q.ctes {
            let (plan, _scope, names) = self.bind_query(cte_q, None, &mut Vec::new())?;
            let id = self.next_cte_id;
            self.next_cte_id += 1;
            let entry = CteEntry {
                plan: Arc::new(plan),
                names,
                id,
            };
            self.ctes
                .last_mut()
                .expect("cte layer")
                .insert(name.clone(), Arc::new(entry));
        }
        match &q.body {
            ast::SetExpr::Select(sel) => {
                self.bind_select(sel, &q.order_by, q.limit, outer, outer_refs)
            }
            body @ ast::SetExpr::SetOp { .. } => {
                let (plan, names) = self.bind_set_expr(body, outer, outer_refs)?;
                // ORDER BY over a set operation binds to output names or
                // ordinals only.
                let mut scope = Scope::default();
                for n in &names {
                    scope.push(None, n.clone());
                }
                let mut plan = plan;
                if !q.order_by.is_empty() {
                    let mut keys = Vec::new();
                    for item in &q.order_by {
                        let idx = self.output_ordinal(&item.expr, &names)?.ok_or_else(|| {
                            EngineError::bind(
                                "ORDER BY over a set operation must use output names or ordinals",
                            )
                        })?;
                        keys.push((BExpr::Col(idx), item.desc));
                    }
                    plan = Plan::Sort {
                        input: Arc::new(plan),
                        keys,
                    };
                }
                if let Some(n) = q.limit {
                    plan = Plan::Limit {
                        input: Arc::new(plan),
                        n,
                    };
                }
                Ok((plan, scope, names))
            }
            ast::SetExpr::Query(inner) => self.bind_query(inner, outer, outer_refs),
        }
    }

    fn bind_set_expr(
        &mut self,
        e: &ast::SetExpr,
        outer: Option<&Scope>,
        outer_refs: &mut Vec<usize>,
    ) -> Result<(Plan, Vec<String>)> {
        match e {
            ast::SetExpr::Select(sel) => {
                let (plan, _scope, names) = self.bind_select(sel, &[], None, outer, outer_refs)?;
                Ok((plan, names))
            }
            ast::SetExpr::Query(q) => {
                let (plan, _scope, names) = self.bind_query(q, outer, outer_refs)?;
                Ok((plan, names))
            }
            ast::SetExpr::SetOp {
                op,
                all,
                left,
                right,
            } => {
                let (l, lnames) = self.bind_set_expr(left, outer, outer_refs)?;
                let (r, rnames) = self.bind_set_expr(right, outer, outer_refs)?;
                if l.width() != r.width() {
                    return Err(EngineError::bind(format!(
                        "set operands have {} vs {} columns",
                        l.width(),
                        r.width()
                    )));
                }
                let _ = rnames;
                Ok((set_op(*op, *all, l, r)?, lnames))
            }
        }
    }

    // ---------- FROM ----------

    fn bind_table_ref(
        &mut self,
        t: &ast::TableRef,
        outer: Option<&Scope>,
        outer_refs: &mut Vec<usize>,
    ) -> Result<(Plan, Scope)> {
        match t {
            ast::TableRef::Table { name, alias } => {
                // CTE reference?
                for layer in self.ctes.iter().rev() {
                    if let Some(entry) = layer.get(name) {
                        let q = alias.clone().unwrap_or_else(|| name.clone());
                        let mut scope = Scope::default();
                        for n in &entry.names {
                            scope.push(Some(q.clone()), n.clone());
                        }
                        return Ok((
                            Plan::CteRef {
                                id: entry.id,
                                plan: entry.plan.clone(),
                                width: entry.names.len(),
                            },
                            scope,
                        ));
                    }
                }
                // Virtual `sys.*` tables have fixed schemas and resolve
                // ahead of the stored catalog; the executor materializes
                // their rows at scan time.
                let cols = match crate::sys::columns(name) {
                    Some(cols) => cols,
                    None => self.db.columns(name)?,
                };
                let q = alias.clone().unwrap_or_else(|| name.clone());
                let mut scope = Scope::default();
                for c in &cols {
                    scope.cols.push(ScopeCol {
                        qualifier: Some(q.clone()),
                        name: c.name.clone(),
                        dtype: Some(c.dtype),
                    });
                }
                Ok((
                    Plan::Scan {
                        table: name.clone(),
                        width: cols.len(),
                        filter: None,
                    },
                    scope,
                ))
            }
            ast::TableRef::Subquery { query, alias } => {
                let (plan, _scope, names) = self.bind_query(query, outer, outer_refs)?;
                let mut scope = Scope::default();
                for n in &names {
                    scope.push(Some(alias.clone()), n.clone());
                }
                Ok((plan, scope))
            }
            ast::TableRef::Join {
                left,
                right,
                kind,
                on,
            } => {
                let (lp, ls) = self.bind_table_ref(left, outer, outer_refs)?;
                let (rp, rs) = self.bind_table_ref(right, outer, outer_refs)?;
                let scope = ls.merged(rs);
                let jk = match kind {
                    ast::JoinKind::Cross => return Ok((cross_join(lp, rp), scope)),
                    ast::JoinKind::Inner => JoinKind::Inner,
                    ast::JoinKind::Left => JoinKind::Left,
                };
                let on_expr = on
                    .as_ref()
                    .ok_or_else(|| EngineError::bind("JOIN requires ON"))?;
                let pred = self.bind_expr(on_expr, &scope, outer, outer_refs, None)?;
                // Extract equi keys split across the two sides; without
                // one, the whole ON condition is the residual.
                let lw = lp.width();
                let (keys, residual) = split_equi_keys(&pred, lw);
                let residual = if keys.is_empty() {
                    Some(pred)
                } else {
                    residual
                };
                let (lk, rk): (Vec<BExpr>, Vec<BExpr>) = keys.into_iter().unzip();
                let join = Plan::HashJoin {
                    left: Arc::new(lp),
                    right: Arc::new(rp),
                    kind: jk,
                    left_keys: lk,
                    right_keys: (rk.iter()).map(|k| k.remap_columns(&|c| c - lw)).collect(),
                    residual,
                };
                Ok((join, scope))
            }
        }
    }

    /// Binds a FROM list to its cross-join chain and the scope it exposes.
    fn bind_from(
        &mut self,
        from: &[ast::TableRef],
        outer: Option<&Scope>,
        outer_refs: &mut Vec<usize>,
    ) -> Result<(Plan, Scope)> {
        let mut plan: Option<Plan> = None;
        let mut scope = Scope::default();
        for t in from {
            let (p, s) = self.bind_table_ref(t, outer, outer_refs)?;
            plan = Some(match plan {
                None => p,
                Some(acc) => cross_join(acc, p),
            });
            scope = scope.merged(s);
        }
        let plan = plan.unwrap_or(Plan::Scan {
            // SELECT without FROM: a one-row dummy scan.
            table: "__dual".to_string(),
            width: 0,
            filter: None,
        });
        if from.is_empty() && !self.db.has_table("__dual") {
            self.db.create_table("__dual", vec![])?;
            self.db.insert("__dual", vec![vec![]])?;
        }
        Ok((plan, scope))
    }

    /// The keyed form of `EXISTS (q)` against `scope` (see
    /// [`BExpr::Exists`]), when `q` is a plain `SELECT … FROM … WHERE`
    /// block whose outer references all sit in top-level
    /// `outer_col = inner_expr` conjuncts with both sides declared the same
    /// type — the case where "some body row equals this key" is a set
    /// probe under `Value` equality. Anything else has none.
    fn bind_keyed_exists(
        &mut self,
        q: &ast::Query,
        scope: &Scope,
    ) -> Result<Option<SubPlan<Arc<KeySet>>>> {
        let ast::SetExpr::Select(sel) = &q.body else {
            return Ok(None);
        };
        let aggregates = sel.items.iter().any(|i| match i {
            ast::SelectItem::Expr { expr, .. } => contains_aggregate(expr),
            _ => false,
        });
        let plain = q.ctes.is_empty()
            && q.limit.is_none()
            && sel.group_by.is_empty()
            && sel.having.is_none()
            && !aggregates;
        let Some(w) = sel.where_clause.as_ref().filter(|_| plain) else {
            return Ok(None);
        };
        let mut refs = Vec::new();
        let (mut body, inner) = self.bind_from(&sel.from, Some(scope), &mut refs)?;
        if !refs.is_empty() {
            return Ok(None); // a derived table reads the outer row
        }
        let pred = self.bind_expr(w, &inner, Some(scope), &mut refs, None)?;
        let mut conjuncts = Vec::new();
        crate::optimizer::split_conjuncts(pred, &mut conjuncts);
        let (mut outer_keys, mut inner_keys, mut rest) = (Vec::new(), Vec::new(), Vec::new());
        for c in conjuncts {
            let key = match &c {
                BExpr::Cmp(CmpOp::Eq, a, b) => match (a.as_ref(), b.as_ref()) {
                    (BExpr::OuterCol(o), i) | (i, BExpr::OuterCol(o)) if !i.reads_outer() => {
                        let ty = scope.cols[*o].dtype;
                        (ty.is_some() && ty == inner.type_of(i)).then(|| (*o, i.clone()))
                    }
                    _ => None,
                },
                _ => None,
            };
            match key {
                Some((o, i)) => {
                    outer_keys.push(o);
                    inner_keys.push(i);
                }
                None if c.reads_outer() => return Ok(None),
                None => rest.push(c),
            }
        }
        if outer_keys.is_empty() {
            return Ok(None);
        }
        if !rest.is_empty() {
            body = Plan::Filter {
                input: Arc::new(body),
                predicate: crate::optimizer::and_all(rest),
            };
        }
        if self.optimize {
            body = crate::optimizer::optimize(body, self.db);
        }
        let keyed = Plan::Project {
            input: Arc::new(body),
            exprs: inner_keys,
        };
        Ok(Some(SubPlan::new(keyed, outer_keys)))
    }

    // ---------- SELECT ----------

    fn bind_select(
        &mut self,
        sel: &ast::Select,
        order_by: &[ast::OrderItem],
        limit: Option<u64>,
        outer: Option<&Scope>,
        outer_refs: &mut Vec<usize>,
    ) -> Result<(Plan, Scope, Vec<String>)> {
        let (mut plan, scope) = self.bind_from(&sel.from, outer, outer_refs)?;

        // WHERE.
        if let Some(w) = &sel.where_clause {
            let pred = self.bind_expr(w, &scope, outer, outer_refs, None)?;
            plan = Plan::Filter {
                input: Arc::new(plan),
                predicate: pred,
            };
        }

        // Reorder joins & push predicates before aggregation.
        if self.optimize {
            plan = crate::optimizer::optimize(plan, self.db);
        }

        // Detect aggregation.
        let has_aggs = sel.items.iter().any(|i| match i {
            ast::SelectItem::Expr { expr, .. } => contains_aggregate(expr),
            _ => false,
        }) || sel.having.as_ref().map(contains_aggregate).unwrap_or(false)
            || order_by.iter().any(|o| contains_aggregate(&o.expr));
        let grouped = !sel.group_by.is_empty() || has_aggs;

        let mut agg_env: Option<AggEnv> = None;
        if grouped {
            // Bind group expressions over the FROM scope.
            let mut groups = Vec::new();
            for g in &sel.group_by {
                groups.push(self.bind_expr(g, &scope, outer, outer_refs, None)?);
            }
            agg_env = Some(AggEnv {
                groups,
                group_keys: Vec::new(),
                aggs: Vec::new(),
                agg_keys: Vec::new(),
                rollup: sel.rollup,
            });
            let env = agg_env.as_mut().expect("just set");
            env.group_keys = env.groups.iter().map(|g| format!("{g:?}")).collect();
        }

        // Bind select items (collecting aggregates into the env).
        let mut proj_exprs: Vec<BExpr> = Vec::new();
        let mut names: Vec<String> = Vec::new();
        let mut window_calls: Vec<WindowCall> = Vec::new();
        let mut item_sources: Vec<(ast::Expr, Option<String>)> = Vec::new();
        for item in &sel.items {
            match item {
                ast::SelectItem::Wildcard => {
                    if agg_env.is_some() {
                        return Err(EngineError::bind("SELECT * with GROUP BY is not supported"));
                    }
                    for (i, c) in scope.cols.iter().enumerate() {
                        proj_exprs.push(BExpr::Col(i));
                        names.push(c.name.clone());
                        item_sources.push((
                            ast::Expr::Column {
                                qualifier: c.qualifier.clone(),
                                name: c.name.clone(),
                            },
                            None,
                        ));
                    }
                }
                ast::SelectItem::QualifiedWildcard(q) => {
                    if agg_env.is_some() {
                        return Err(EngineError::bind(
                            "SELECT t.* with GROUP BY is not supported",
                        ));
                    }
                    let mut any = false;
                    for (i, c) in scope.cols.iter().enumerate() {
                        if c.qualifier.as_deref() == Some(q) {
                            proj_exprs.push(BExpr::Col(i));
                            names.push(c.name.clone());
                            item_sources.push((
                                ast::Expr::Column {
                                    qualifier: c.qualifier.clone(),
                                    name: c.name.clone(),
                                },
                                None,
                            ));
                            any = true;
                        }
                    }
                    if !any {
                        return Err(EngineError::bind(format!("unknown qualifier {q}")));
                    }
                }
                ast::SelectItem::Expr { expr, alias } => {
                    let bound = self.bind_projection(
                        expr,
                        &scope,
                        outer,
                        outer_refs,
                        &mut agg_env,
                        &mut window_calls,
                    )?;
                    proj_exprs.push(bound);
                    names.push(alias.clone().unwrap_or_else(|| derive_name(expr)));
                    item_sources.push((expr.clone(), alias.clone()));
                }
            }
        }

        // HAVING.
        let having = sel
            .having
            .as_ref()
            .map(|h| {
                self.bind_projection(
                    h,
                    &scope,
                    outer,
                    outer_refs,
                    &mut agg_env,
                    &mut window_calls,
                )
            })
            .transpose()?;

        // ORDER BY: output name / ordinal / projected expression / hidden
        // column, bound while the aggregate environment is still open so
        // new group/agg references resolve.
        let visible = proj_exprs.len();
        let mut all_exprs = proj_exprs;
        let mut sort_keys: Vec<(BExpr, bool)> = Vec::new();
        for item in order_by {
            if let Some(idx) = self.output_ordinal(&item.expr, &names)? {
                sort_keys.push((BExpr::Col(idx), item.desc));
                continue;
            }
            // Identical projected expression → its output column.
            if let Some(i) = item_sources.iter().position(|(src, _)| src == &item.expr) {
                sort_keys.push((BExpr::Col(i), item.desc));
                continue;
            }
            // Hidden projection column bound in the same context as the
            // select items.
            let bound = self.bind_projection(
                &item.expr,
                &scope,
                outer,
                outer_refs,
                &mut agg_env,
                &mut window_calls,
            )?;
            all_exprs.push(bound);
            sort_keys.push((BExpr::Col(all_exprs.len() - 1), item.desc));
        }

        // Assemble: Aggregate → Having → Window → Project.
        let mut agg_width = scope.cols.len();
        if let Some(env) = agg_env {
            agg_width = env.groups.len() + env.aggs.len();
            plan = self.lower_aggregate(plan, env);
        }
        // Patch window-result sentinels now that the aggregate width is
        // final.
        let patch = |c: usize| {
            if c >= WIN_SENTINEL {
                agg_width + (c - WIN_SENTINEL)
            } else {
                c
            }
        };
        let all_exprs: Vec<BExpr> = all_exprs.iter().map(|e| e.remap_columns(&patch)).collect();
        let having = having.map(|h| h.remap_columns(&patch));
        if let Some(h) = having {
            // HAVING may not reference window results.
            plan = Plan::Filter {
                input: Arc::new(plan),
                predicate: h,
            };
        }
        if !window_calls.is_empty() {
            plan = Plan::Window {
                input: Arc::new(plan),
                calls: window_calls,
            };
        }

        plan = Plan::Project {
            input: Arc::new(plan),
            exprs: all_exprs,
        };
        if sel.distinct {
            if all_hidden_sorts_visible(&sort_keys, visible) {
                plan = group_first(plan, visible, vec![]);
            } else {
                return Err(EngineError::bind(
                    "SELECT DISTINCT with ORDER BY on non-projected expressions",
                ));
            }
        }
        if !sort_keys.is_empty() {
            plan = Plan::Sort {
                input: Arc::new(plan),
                keys: sort_keys,
            };
        }
        if plan.width() != visible {
            plan = Plan::Prefix {
                input: Arc::new(plan),
                keep: visible,
            };
        }
        if let Some(n) = limit {
            plan = Plan::Limit {
                input: Arc::new(plan),
                n,
            };
        }

        let mut out_scope = Scope::default();
        for n in &names {
            out_scope.push(None, n.clone());
        }
        Ok((plan, out_scope, names))
    }

    /// `input` aggregated as `env` says, as plain [`Plan::Aggregate`]s with
    /// the output row `groups ++ aggs`. ROLLUP(k1..kn) is the UNION ALL of
    /// its n+1 levels, finest first: level l groups on k1..kl and projects
    /// NULL for each rolled-up key and 0/1 for each `GROUPING()`. DISTINCT
    /// calls are [`grouped`]'s. Both read the input more than once, so
    /// they read the group keys and arguments computed once, by a CTE —
    /// unless that reads the outer row, and changes with it.
    fn lower_aggregate(&mut self, input: Plan, env: AggEnv) -> Plan {
        let AggEnv {
            groups,
            aggs,
            rollup,
            ..
        } = env;
        let calls = (aggs.iter()).filter_map(|a| match a {
            AggItem::Call(call, distinct) => Some((call.clone(), *distinct)),
            AggItem::Grouping(_) => None,
        });
        if !rollup && calls.clone().all(|(_, distinct)| !distinct) {
            let aggs = calls.map(|(call, _)| call).collect();
            return Plan::Aggregate {
                input: Arc::new(input),
                groups,
                aggs,
            };
        }
        // What every reading needs — the group keys, then each argument.
        let (n, mut exprs) = (groups.len(), groups);
        let calls: Vec<_> = (calls.map(|(AggCall { func, arg }, distinct)| {
            let arg = arg.map(|e| BExpr::Col(slot(&mut exprs, e)));
            (AggCall { func, arg }, distinct)
        }))
        .collect();
        let width = exprs.len();
        let mut input = Arc::new(Plan::Project {
            input: Arc::new(input),
            exprs,
        });
        if !input.reads_outer() {
            let id = self.next_cte_id;
            self.next_cte_id += 1;
            input = Arc::new(Plan::CteRef {
                id,
                plan: input,
                width,
            });
        }
        let level = |l: usize| {
            let level = grouped(&input, l, calls.clone());
            if !rollup {
                return level;
            }
            let mut call = l..;
            let keys = (0..n).map(|i| match i < l {
                true => BExpr::Col(i),
                false => BExpr::Lit(Value::Null),
            });
            let items = (aggs.iter()).map(|a| match a {
                AggItem::Call(..) => BExpr::Col(call.next().expect("a call column")),
                AggItem::Grouping(g) => BExpr::Lit(Value::Int((*g >= l) as i64)),
            });
            Plan::Project {
                input: Arc::new(level),
                exprs: keys.chain(items).collect(),
            }
        };
        // Coarsest innermost: each concatenation copies the coarser
        // levels, which are the smaller ones.
        let first = if rollup { 0 } else { n };
        (first..=n)
            .map(level)
            .reduce(|coarser, finer| union_all(finer, coarser))
            .expect("at least one level")
    }

    /// Resolves an ORDER BY item as an output alias or 1-based ordinal.
    fn output_ordinal(&self, expr: &ast::Expr, names: &[String]) -> Result<Option<usize>> {
        match expr {
            ast::Expr::Literal(tpcds_types::Value::Int(n)) => {
                let i = *n as usize;
                if i == 0 || i > names.len() {
                    return Err(EngineError::bind(format!(
                        "ORDER BY ordinal {n} out of range"
                    )));
                }
                Ok(Some(i - 1))
            }
            ast::Expr::Column {
                qualifier: None,
                name,
            } => Ok(names.iter().position(|n| n == name)),
            _ => Ok(None),
        }
    }

    // ---------- expression binding ----------

    /// Binds a projection/HAVING expression: group expressions and
    /// aggregate calls become references into the Aggregate output; window
    /// calls are collected and become references past the aggregate
    /// columns.
    fn bind_projection(
        &mut self,
        e: &ast::Expr,
        scope: &Scope,
        outer: Option<&Scope>,
        outer_refs: &mut Vec<usize>,
        env: &mut Option<AggEnv>,
        windows: &mut Vec<WindowCall>,
    ) -> Result<BExpr> {
        if let Some(env) = env.as_mut() {
            self.bind_agg_expr(e, scope, outer, outer_refs, env, windows)
        } else {
            // Window functions allowed over plain rows.
            self.bind_plain_with_windows(e, scope, outer, outer_refs, windows)
        }
    }

    fn bind_plain_with_windows(
        &mut self,
        e: &ast::Expr,
        scope: &Scope,
        outer: Option<&Scope>,
        outer_refs: &mut Vec<usize>,
        windows: &mut Vec<WindowCall>,
    ) -> Result<BExpr> {
        if let ast::Expr::Window { .. } = e {
            let call = self.build_window_call(e, &mut |b, ast_e| {
                b.bind_expr(ast_e, scope, outer, outer_refs, None)
            })?;
            let idx = WIN_SENTINEL + windows.len();
            windows.push(call);
            return Ok(BExpr::Col(idx));
        }
        // Recurse structurally so nested windows are found.
        self.rebuild(e, &mut |b, sub| {
            b.bind_plain_with_windows(sub, scope, outer, outer_refs, windows)
        })
        .or_else(|_| self.bind_expr(e, scope, outer, outer_refs, None))
    }

    /// Binds an expression in an aggregate query.
    #[allow(clippy::too_many_arguments)]
    fn bind_agg_expr(
        &mut self,
        e: &ast::Expr,
        scope: &Scope,
        outer: Option<&Scope>,
        outer_refs: &mut Vec<usize>,
        env: &mut AggEnv,
        windows: &mut Vec<WindowCall>,
    ) -> Result<BExpr> {
        // 1. Does it match a group expression?
        if let Ok(bound) = self.bind_expr(e, scope, outer, outer_refs, None) {
            let key = format!("{bound:?}");
            if let Some(i) = env.group_keys.iter().position(|k| *k == key) {
                return Ok(BExpr::Col(i));
            }
        }
        // 2. Aggregate call? COUNT(*) takes no argument, every other
        //    aggregate exactly one.
        if let ast::Expr::Function {
            name,
            args,
            star,
            distinct,
        } = e
        {
            if is_aggregate(name) {
                let func = aggregate_kind(name, *star);
                let arg = match (func, args.as_slice()) {
                    (Some(AggKind::CountStar), _) => None,
                    (_, [a]) => Some(self.bind_expr(a, scope, outer, outer_refs, None)?),
                    _ => {
                        return Err(EngineError::bind(format!(
                            "{name} takes exactly one argument"
                        )))
                    }
                };
                let item = match func {
                    Some(func) => AggItem::Call(AggCall { func, arg }, *distinct),
                    None => {
                        // grouping(expr): locate the group expression; it
                        // is rolled up only on a ROLLUP's coarser levels.
                        let key = format!("{:?}", arg.expect("one argument"));
                        let gi =
                            (env.group_keys.iter().position(|k| *k == key)).ok_or_else(|| {
                                EngineError::bind("GROUPING() argument is not a group column")
                            })?;
                        if !env.rollup {
                            return Ok(BExpr::Lit(Value::Int(0)));
                        }
                        AggItem::Grouping(gi)
                    }
                };
                return Ok(BExpr::Col(env.groups.len() + env.push(item)));
            }
        }
        // 3. Window call: arguments/partitions are bound in the aggregate
        //    environment (so SUM(SUM(x)) OVER (...) works).
        if let ast::Expr::Window { .. } = e {
            // Window binding may add aggregate calls to env, shifting the
            // aggregate width — record a sentinel and patch later.
            let call = self.build_window_call(e, &mut |b, ast_e| {
                b.bind_agg_expr(ast_e, scope, outer, outer_refs, env, &mut Vec::new())
            })?;
            let idx = WIN_SENTINEL + windows.len();
            windows.push(call);
            return Ok(BExpr::Col(idx));
        }
        // 4. Subqueries in aggregate contexts (HAVING, projections) bind
        //    against the FROM scope; they are uncorrelated with respect to
        //    the grouped output.
        if matches!(
            e,
            ast::Expr::Subquery(_) | ast::Expr::InSubquery { .. } | ast::Expr::Exists { .. }
        ) {
            return self.bind_expr(e, scope, outer, outer_refs, None);
        }
        // 5. Recurse structurally.
        self.rebuild(e, &mut |b, sub| {
            b.bind_agg_expr(sub, scope, outer, outer_refs, env, windows)
        })
        .map_err(|err| match e {
            ast::Expr::Column { name, .. } => EngineError::bind(format!(
                "column {name} must appear in GROUP BY or inside an aggregate"
            )),
            _ => err,
        })
    }

    /// Rebuilds a composite AST node by binding each child with `f`;
    /// errors on leaves (which the callers handle specially).
    fn rebuild(
        &mut self,
        e: &ast::Expr,
        f: &mut impl FnMut(&mut Self, &ast::Expr) -> Result<BExpr>,
    ) -> Result<BExpr> {
        Ok(match e {
            ast::Expr::Literal(v) => BExpr::Lit(v.clone()),
            ast::Expr::Binary { op, left, right } => {
                let l = f(self, left)?;
                let r = f(self, right)?;
                bin_op(*op, l, r)
            }
            ast::Expr::Neg(x) => BExpr::Neg(f(self, x)?.boxed()),
            ast::Expr::Not(x) => BExpr::Not(f(self, x)?.boxed()),
            ast::Expr::IsNull { expr, negated } => BExpr::IsNull(f(self, expr)?.boxed(), *negated),
            ast::Expr::Between {
                expr,
                low,
                high,
                negated,
            } => BExpr::Between(
                f(self, expr)?.boxed(),
                f(self, low)?.boxed(),
                f(self, high)?.boxed(),
                *negated,
            ),
            ast::Expr::InList {
                expr,
                list,
                negated,
            } => {
                let b = f(self, expr)?;
                let items: Result<Vec<BExpr>> = list.iter().map(|i| f(self, i)).collect();
                BExpr::InList(b.boxed(), items?, *negated)
            }
            ast::Expr::Like {
                expr,
                pattern,
                negated,
            } => BExpr::Like(f(self, expr)?.boxed(), f(self, pattern)?.boxed(), *negated),
            ast::Expr::Case {
                operand,
                branches,
                else_branch,
            } => {
                let op = operand
                    .as_ref()
                    .map(|o| f(self, o))
                    .transpose()?
                    .map(BExpr::boxed);
                let mut bs = Vec::new();
                for (c, r) in branches {
                    bs.push((f(self, c)?, f(self, r)?));
                }
                let el = else_branch
                    .as_ref()
                    .map(|x| f(self, x))
                    .transpose()?
                    .map(BExpr::boxed);
                BExpr::Case {
                    operand: op,
                    branches: bs,
                    else_branch: el,
                }
            }
            ast::Expr::Cast { expr, ty } => BExpr::Cast(f(self, expr)?.boxed(), cast_type(ty)?),
            ast::Expr::Function {
                name,
                args,
                star,
                distinct,
            } => {
                if *star || *distinct || is_aggregate(name) {
                    return Err(EngineError::bind(format!(
                        "aggregate {name} not valid in this context"
                    )));
                }
                let func = scalar_fn(name)?;
                let bound: Result<Vec<BExpr>> = args.iter().map(|a| f(self, a)).collect();
                BExpr::Func(func, bound?)
            }
            other => {
                return Err(EngineError::bind(format!(
                    "cannot bind {other:?} in this context"
                )))
            }
        })
    }

    /// Binds the window call `e`: the rank family, or any aggregate a
    /// GROUP BY computes ([`aggregate_kind`]), whose arguments are checked
    /// as an aggregate call's — but DISTINCT is refused.
    fn build_window_call(
        &mut self,
        e: &ast::Expr,
        bind: &mut impl FnMut(&mut Self, &ast::Expr) -> Result<BExpr>,
    ) -> Result<WindowCall> {
        let ast::Expr::Window {
            name,
            args,
            star,
            distinct,
            partition_by,
            order_by,
        } = e
        else {
            unreachable!("not a window call: {e:?}")
        };
        let func = match name.as_str() {
            "rank" => WinFunc::Rank,
            "dense_rank" => WinFunc::DenseRank,
            "row_number" => WinFunc::RowNumber,
            _ => WinFunc::Agg(
                aggregate_kind(name, *star)
                    .ok_or_else(|| EngineError::bind(format!("unknown window function {name}")))?,
            ),
        };
        if *distinct {
            return Err(EngineError::bind(format!(
                "DISTINCT is not supported in window function {name}"
            )));
        }
        let arg = match (func, args.as_slice()) {
            (WinFunc::Agg(AggKind::CountStar), _) => None,
            (WinFunc::Agg(_), [a]) => Some(bind(self, a)?),
            (WinFunc::Agg(_), _) => {
                let msg = format!("{name} takes exactly one argument");
                return Err(EngineError::bind(msg));
            }
            (_, []) if !star => None,
            _ => return Err(EngineError::bind(format!("{name} takes no arguments"))),
        };
        let mut partition = Vec::new();
        for p in partition_by {
            partition.push(bind(self, p)?);
        }
        let mut order = Vec::new();
        for o in order_by {
            order.push((bind(self, &o.expr)?, o.desc));
        }
        if !matches!(func, WinFunc::Agg(_)) && order.is_empty() {
            return Err(EngineError::bind(format!("{name}() requires ORDER BY")));
        }
        Ok(WindowCall {
            func,
            arg,
            partition,
            order,
        })
    }

    /// Binds a scalar expression over a scope. `env` is unused here but
    /// kept for symmetry (plain contexts).
    fn bind_expr(
        &mut self,
        e: &ast::Expr,
        scope: &Scope,
        outer: Option<&Scope>,
        outer_refs: &mut Vec<usize>,
        _env: Option<()>,
    ) -> Result<BExpr> {
        match e {
            ast::Expr::Column { qualifier, name } => {
                if let Some(i) = scope.resolve(qualifier.as_deref(), name)? {
                    return Ok(BExpr::Col(i));
                }
                if let Some(outer_scope) = outer {
                    if let Some(i) = outer_scope.resolve(qualifier.as_deref(), name)? {
                        if !outer_refs.contains(&i) {
                            outer_refs.push(i);
                        }
                        return Ok(BExpr::OuterCol(i));
                    }
                }
                Err(EngineError::bind(format!(
                    "unknown column {}{}",
                    qualifier
                        .as_ref()
                        .map(|q| format!("{q}."))
                        .unwrap_or_default(),
                    name
                )))
            }
            ast::Expr::Subquery(q) => {
                let mut refs = Vec::new();
                let (plan, _s, _n) = self.bind_query(q, Some(scope), &mut refs)?;
                if plan.width() != 1 {
                    return Err(EngineError::bind("scalar subquery must return one column"));
                }
                Ok(BExpr::ScalarSubquery(SubPlan::new(plan, refs)))
            }
            ast::Expr::InSubquery {
                expr,
                query,
                negated,
            } => {
                let b = self.bind_expr(expr, scope, outer, outer_refs, None)?;
                let mut refs = Vec::new();
                let (plan, _s, _n) = self.bind_query(query, Some(scope), &mut refs)?;
                if plan.width() != 1 {
                    return Err(EngineError::bind("IN subquery must return one column"));
                }
                Ok(BExpr::InSubquery(
                    b.boxed(),
                    SubPlan::new(plan, refs),
                    *negated,
                ))
            }
            ast::Expr::Exists { query, negated } => {
                let mut refs = Vec::new();
                let (plan, _s, _n) = self.bind_query(query, Some(scope), &mut refs)?;
                let keyed = if refs.is_empty() {
                    None
                } else {
                    self.bind_keyed_exists(query, scope)?
                };
                Ok(BExpr::Exists(SubPlan::new(plan, refs), *negated, keyed))
            }
            ast::Expr::Window { .. } => Err(EngineError::bind(
                "window function not allowed in this context",
            )),
            ast::Expr::Function {
                name,
                args,
                star,
                distinct,
            } => {
                if is_aggregate(name) || *star || *distinct {
                    return Err(EngineError::bind(format!(
                        "aggregate {name} not allowed in this context"
                    )));
                }
                let func = scalar_fn(name)?;
                let bound: Result<Vec<BExpr>> = args
                    .iter()
                    .map(|a| self.bind_expr(a, scope, outer, outer_refs, None))
                    .collect();
                Ok(BExpr::Func(func, bound?))
            }
            other => self.rebuild(other, &mut |b, sub| {
                b.bind_expr(sub, scope, outer, outer_refs, None)
            }),
        }
    }
}

/// The aggregate environment: group expressions and collected aggregates.
struct AggEnv {
    groups: Vec<BExpr>,
    group_keys: Vec<String>,
    aggs: Vec<AggItem>,
    agg_keys: Vec<String>,
    rollup: bool,
}

/// One aggregate output column before [`Binder::lower_aggregate`].
#[derive(Debug)]
enum AggItem {
    /// A call, over its argument's distinct values when `true`.
    Call(AggCall, bool),
    /// `GROUPING(groups[i])` under ROLLUP.
    Grouping(usize),
}

impl AggEnv {
    /// Adds (or reuses) an aggregate column; returns its index.
    fn push(&mut self, item: AggItem) -> usize {
        let key = format!("{item:?}");
        if let Some(i) = self.agg_keys.iter().position(|k| *k == key) {
            return i;
        }
        self.aggs.push(item);
        self.agg_keys.push(key);
        self.aggs.len() - 1
    }
}

fn contains_aggregate(e: &ast::Expr) -> bool {
    match e {
        ast::Expr::Function { name, .. } => is_aggregate(name),
        ast::Expr::Window { .. } => false, // window args handled separately
        ast::Expr::Binary { left, right, .. } => {
            contains_aggregate(left) || contains_aggregate(right)
        }
        ast::Expr::Neg(x) | ast::Expr::Not(x) => contains_aggregate(x),
        ast::Expr::IsNull { expr, .. } => contains_aggregate(expr),
        ast::Expr::Between {
            expr, low, high, ..
        } => contains_aggregate(expr) || contains_aggregate(low) || contains_aggregate(high),
        ast::Expr::InList { expr, list, .. } => {
            contains_aggregate(expr) || list.iter().any(contains_aggregate)
        }
        ast::Expr::Like { expr, pattern, .. } => {
            contains_aggregate(expr) || contains_aggregate(pattern)
        }
        ast::Expr::Case {
            operand,
            branches,
            else_branch,
        } => {
            operand
                .as_ref()
                .map(|o| contains_aggregate(o))
                .unwrap_or(false)
                || branches
                    .iter()
                    .any(|(c, r)| contains_aggregate(c) || contains_aggregate(r))
                || else_branch
                    .as_ref()
                    .map(|x| contains_aggregate(x))
                    .unwrap_or(false)
        }
        ast::Expr::Cast { expr, .. } => contains_aggregate(expr),
        _ => false,
    }
}

/// Whether `name` is an aggregate: one with a kernel ([`aggregate_kind`]) or
/// `grouping`, which lowers to literals.
fn is_aggregate(name: &str) -> bool {
    name == "grouping" || aggregate_kind(name, false).is_some()
}

/// The aggregate `name(…)` computes (`count(*)` when `star`).
fn aggregate_kind(name: &str, star: bool) -> Option<AggKind> {
    Some(match name {
        "count" if star => AggKind::CountStar,
        "count" => AggKind::Count,
        "sum" => AggKind::Sum,
        "min" => AggKind::Min,
        "max" => AggKind::Max,
        "avg" => AggKind::Avg,
        "stddev_samp" => AggKind::StddevSamp,
        _ => return None,
    })
}

fn scalar_fn(name: &str) -> Result<ScalarFunc> {
    Ok(match name {
        "substr" | "substring" => ScalarFunc::Substr,
        "coalesce" => ScalarFunc::Coalesce,
        "nullif" => ScalarFunc::Nullif,
        "abs" => ScalarFunc::Abs,
        "round" => ScalarFunc::Round,
        "lower" => ScalarFunc::Lower,
        "upper" => ScalarFunc::Upper,
        "char_length" | "length" => ScalarFunc::Length,
        other => return Err(EngineError::bind(format!("unknown function {other}"))),
    })
}

fn cast_type(ty: &str) -> Result<DataType> {
    Ok(match ty {
        "int" | "integer" | "bigint" | "smallint" => DataType::Int,
        "decimal" | "numeric" | "dec" | "float" | "double" => DataType::Decimal,
        "date" => DataType::Date,
        "char" | "varchar" | "character" | "text" => DataType::Str,
        other => return Err(EngineError::bind(format!("unknown cast target {other}"))),
    })
}

fn bin_op(op: ast::BinOp, l: BExpr, r: BExpr) -> BExpr {
    use ast::BinOp::*;
    match op {
        Add => BExpr::Arith(ArithOp::Add, l.boxed(), r.boxed()),
        Sub => BExpr::Arith(ArithOp::Sub, l.boxed(), r.boxed()),
        Mul => BExpr::Arith(ArithOp::Mul, l.boxed(), r.boxed()),
        Div => BExpr::Arith(ArithOp::Div, l.boxed(), r.boxed()),
        Mod => BExpr::Arith(ArithOp::Mod, l.boxed(), r.boxed()),
        Eq => BExpr::Cmp(CmpOp::Eq, l.boxed(), r.boxed()),
        Ne => BExpr::Cmp(CmpOp::Ne, l.boxed(), r.boxed()),
        Lt => BExpr::Cmp(CmpOp::Lt, l.boxed(), r.boxed()),
        Le => BExpr::Cmp(CmpOp::Le, l.boxed(), r.boxed()),
        Gt => BExpr::Cmp(CmpOp::Gt, l.boxed(), r.boxed()),
        Ge => BExpr::Cmp(CmpOp::Ge, l.boxed(), r.boxed()),
        And => BExpr::And(l.boxed(), r.boxed()),
        Or => BExpr::Or(l.boxed(), r.boxed()),
        Concat => BExpr::Concat(l.boxed(), r.boxed()),
    }
}

/// Splits an ON condition into equi-key pairs (left expr, right expr in
/// combined coordinates) and a residual. Only top-level AND conjuncts of
/// the form `left_col = right_col` split; everything else is residual.
fn split_equi_keys(pred: &BExpr, left_width: usize) -> (Vec<(BExpr, BExpr)>, Option<BExpr>) {
    let mut keys = Vec::new();
    let mut residual: Option<BExpr> = None;
    let mut stack = vec![pred.clone()];
    while let Some(e) = stack.pop() {
        match e {
            BExpr::And(a, b) => {
                stack.push(*a);
                stack.push(*b);
            }
            BExpr::Cmp(CmpOp::Eq, a, b) => {
                let side = |x: &BExpr| -> Option<bool> {
                    // Some(true) = all columns from left; Some(false) = all right.
                    let mut left_only = true;
                    let mut right_only = true;
                    let mut any = false;
                    x.visit_columns(&mut |c| {
                        any = true;
                        if c < left_width {
                            right_only = false;
                        } else {
                            left_only = false;
                        }
                    });
                    if !any || x.has_subquery() {
                        return None;
                    }
                    if left_only {
                        Some(true)
                    } else if right_only {
                        Some(false)
                    } else {
                        None
                    }
                };
                match (side(&a), side(&b)) {
                    (Some(true), Some(false)) => keys.push((*a, *b)),
                    (Some(false), Some(true)) => keys.push((*b, *a)),
                    _ => {
                        let e = BExpr::Cmp(CmpOp::Eq, a, b);
                        residual = Some(match residual {
                            None => e,
                            Some(r) => BExpr::And(r.boxed(), e.boxed()),
                        });
                    }
                }
            }
            other => {
                residual = Some(match residual {
                    None => other,
                    Some(r) => BExpr::And(r.boxed(), other.boxed()),
                });
            }
        }
    }
    (keys, residual)
}

/// Groups `input` on its first `w` columns, `aggs` after them. Grouping
/// treats NULLs as equal — the set-operation rule — so over every column
/// and with no calls this is duplicate elimination (`SELECT DISTINCT`,
/// `UNION`).
fn group_first(input: Plan, w: usize, aggs: Vec<AggCall>) -> Plan {
    Plan::Aggregate {
        input: Arc::new(input),
        groups: (0..w).map(BExpr::Col).collect(),
        aggs,
    }
}

/// Every pair of `l`'s and `r`'s rows: a hash join on no keys.
fn cross_join(l: Plan, r: Plan) -> Plan {
    Plan::HashJoin {
        left: Arc::new(l),
        right: Arc::new(r),
        kind: JoinKind::Inner,
        left_keys: vec![],
        right_keys: vec![],
        residual: None,
    }
}

/// `l`'s rows, then `r`'s.
fn union_all(l: Plan, r: Plan) -> Plan {
    Plan::UnionAll {
        left: Arc::new(l),
        right: Arc::new(r),
    }
}

/// `e`'s position in `exprs`, where it is appended unless already there.
fn slot(exprs: &mut Vec<BExpr>, e: BExpr) -> usize {
    let key = format!("{e:?}");
    (exprs.iter().position(|x| format!("{x:?}") == key)).unwrap_or_else(|| {
        exprs.push(e);
        exprs.len() - 1
    })
}

/// `input` grouped on its first `n` columns with `calls` (`true` =
/// DISTINCT): one [`Plan::Aggregate`] unless a call is DISTINCT. With k
/// distinct arguments, an aggregate on those keys G over the UNION ALL of
/// copy 0 — the input as (G, NULL × k, each plain call's argument;
/// COUNT(*) counts a literal 1), left out without plain calls — and the
/// deduplicated copies i = 1..k, the input as (G, argument i in the i-th
/// of the k columns and NULL in the others, NULL…). Each call aggregates
/// its own column: only its copies fill it.
fn grouped(input: &Arc<Plan>, n: usize, calls: Vec<(AggCall, bool)>) -> Plan {
    use tpcds_types::Value::{Int, Null};
    let arg = |call: &AggCall| call.arg.clone().unwrap_or(BExpr::Lit(Int(1)));
    let mut distinct = Vec::new();
    for (call, _) in calls.iter().filter(|(_, d)| *d) {
        slot(&mut distinct, arg(call));
    }
    if distinct.is_empty() {
        let aggs = calls.into_iter().map(|(call, _)| call).collect();
        return group_first(Plan::clone(input), n, aggs);
    }
    let plain: Vec<BExpr> = (calls.iter().filter(|(_, d)| !d))
        .map(|(call, _)| arg(call))
        .collect();
    let k = distinct.len();
    let copy = |i: usize, rest: Vec<BExpr>| Plan::Project {
        input: Arc::clone(input),
        exprs: ((0..n).map(BExpr::Col))
            .chain((1..=k).map(|j| match j == i {
                true => distinct[j - 1].clone(),
                false => BExpr::Lit(Null),
            }))
            .chain(rest)
            .collect(),
    };
    let nulls = vec![BExpr::Lit(Null); plain.len()];
    let copies = (1..=k).map(|i| copy(i, nulls.clone()));
    let copies = copies.reduce(union_all).expect("a DISTINCT call");
    let mut both = group_first(copies, n + k + plain.len(), vec![]);
    if !plain.is_empty() {
        both = union_all(copy(0, plain), both);
    }
    let mut plain_cols = n + k..;
    let aggs = (calls.into_iter())
        .map(|(call, d)| {
            let col = match d {
                true => n + slot(&mut distinct, arg(&call)),
                false => plain_cols.next().expect("a plain column"),
            };
            let func = match call.func {
                AggKind::CountStar => AggKind::Count,
                f => f,
            };
            let arg = Some(BExpr::Col(col));
            AggCall { func, arg }
        })
        .collect();
    group_first(both, n, aggs)
}

/// Lowers a set operator onto [`Plan::UnionAll`] and grouping. INTERSECT
/// and EXCEPT tag the two sides' rows 0 and 1, group their union keeping
/// `MIN(tag)` and `MAX(tag)`, and keep the groups found on both sides
/// (`min = 0 AND max = 1`) or on the left only (`max = 0`).
fn set_op(op: ast::SetOpKind, all: bool, left: Plan, right: Plan) -> Result<Plan> {
    use tpcds_types::Value::Int;
    let w = left.width();
    match (op, all) {
        (ast::SetOpKind::Union, true) => return Ok(union_all(left, right)),
        (ast::SetOpKind::Union, false) => {
            return Ok(group_first(union_all(left, right), w, vec![]))
        }
        (_, true) => {
            let name = format!("{op:?}").to_uppercase();
            return Err(EngineError::bind(format!("{name} ALL is not supported")));
        }
        _ => {}
    }
    let tagged = |p: Plan, tag: i64| Plan::Project {
        input: Arc::new(p),
        exprs: (0..w)
            .map(BExpr::Col)
            .chain([BExpr::Lit(Int(tag))])
            .collect(),
    };
    let tag = |func| AggCall {
        func,
        arg: Some(BExpr::Col(w)),
    };
    let is = |col: usize, tag: i64| bin_op(ast::BinOp::Eq, BExpr::Col(col), BExpr::Lit(Int(tag)));
    let keep = match op {
        ast::SetOpKind::Intersect => BExpr::And(is(w, 0).boxed(), is(w + 1, 1).boxed()),
        _ => is(w + 1, 0),
    };
    let tags = vec![tag(AggKind::Min), tag(AggKind::Max)];
    let grouped = group_first(union_all(tagged(left, 0), tagged(right, 1)), w, tags);
    Ok(Plan::Prefix {
        input: Arc::new(grouped.filtered(Some(keep))),
        keep: w,
    })
}

fn derive_name(e: &ast::Expr) -> String {
    match e {
        ast::Expr::Column { name, .. } => name.clone(),
        ast::Expr::Function { name, .. } => name.clone(),
        ast::Expr::Window { name, .. } => name.clone(),
        _ => "?column?".to_string(),
    }
}

fn all_hidden_sorts_visible(keys: &[(BExpr, bool)], visible: usize) -> bool {
    keys.iter().all(|(k, _)| match k {
        BExpr::Col(i) => *i < visible,
        _ => true,
    })
}
