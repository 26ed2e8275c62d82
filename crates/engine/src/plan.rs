//! The bound logical/physical plan. With full materialization between
//! operators, logical and physical plans coincide.

use crate::expr::BExpr;
use std::sync::Arc;
use tpcds_storage::{AggKind, JoinType, WinFunc};

/// One aggregate call. DISTINCT, ROLLUP and `GROUPING()` never reach a
/// plan: the binder lowers them onto plain calls.
#[derive(Debug, Clone)]
pub struct AggCall {
    /// Function.
    pub func: AggKind,
    /// Argument (None for `count(*)`).
    pub arg: Option<BExpr>,
}

/// One window-function call; the executor appends its result column.
#[derive(Debug, Clone)]
pub struct WindowCall {
    /// Function: any aggregate a GROUP BY computes, or the rank family.
    pub func: WinFunc,
    /// Argument (None for `count(*)` and rank-family functions).
    pub arg: Option<BExpr>,
    /// PARTITION BY keys.
    pub partition: Vec<BExpr>,
    /// ORDER BY keys with descending flags. When non-empty, aggregate
    /// window functions use the default frame (unbounded preceding through
    /// current peer group); when empty, the whole partition.
    pub order: Vec<(BExpr, bool)>,
}

/// The plan tree.
#[derive(Debug, Clone)]
pub enum Plan {
    /// Base-table scan with an optional pushed-down filter.
    Scan {
        /// Table name in the catalog.
        table: String,
        /// The table columns the scan emits, in output order (all of them
        /// until [`crate::optimizer::prune_columns`] narrows the list).
        cols: Vec<usize>,
        /// The table's column count.
        table_width: usize,
        /// Filter applied during the scan, over the table's columns.
        filter: Option<BExpr>,
    },
    /// Row filter.
    Filter {
        /// Input.
        input: Arc<Plan>,
        /// Predicate.
        predicate: BExpr,
    },
    /// Projection: computes `exprs` over each input row.
    Project {
        /// Input.
        input: Arc<Plan>,
        /// Output expressions.
        exprs: Vec<BExpr>,
    },
    /// Hash join. Output rows are `left ++ right`. Without keys every pair
    /// of rows matches: a cross join, or with a residual a non-equi join.
    HashJoin {
        /// Left (probe) input.
        left: Arc<Plan>,
        /// Right (build) input.
        right: Arc<Plan>,
        /// Join kind.
        kind: JoinType,
        /// Equi-key expressions over the left input.
        left_keys: Vec<BExpr>,
        /// Equi-key expressions over the right input.
        right_keys: Vec<BExpr>,
        /// Residual predicate over the combined row.
        residual: Option<BExpr>,
    },
    /// Hash aggregation: one group per distinct key (NULLs equal), or one
    /// row when there are no keys.
    Aggregate {
        /// Input.
        input: Arc<Plan>,
        /// Group-key expressions.
        groups: Vec<BExpr>,
        /// Aggregate calls; output row = group values ++ aggregate values.
        aggs: Vec<AggCall>,
    },
    /// Window computation: appends one column per call.
    Window {
        /// Input.
        input: Arc<Plan>,
        /// The calls.
        calls: Vec<WindowCall>,
    },
    /// Sort.
    Sort {
        /// Input.
        input: Arc<Plan>,
        /// (key, descending) pairs. NULLs sort first ascending, last
        /// descending.
        keys: Vec<(BExpr, bool)>,
    },
    /// Fused Sort + Limit (the `ORDER BY … LIMIT n` template tail),
    /// produced by the optimizer rewrite [`crate::optimizer::fuse_topn`].
    /// Equivalent to a stable sort by `keys` followed by `LIMIT n`, but
    /// executable with per-worker buffers cut to the limit.
    TopN {
        /// Input.
        input: Arc<Plan>,
        /// (key, descending) pairs, as in [`Plan::Sort`].
        keys: Vec<(BExpr, bool)>,
        /// Maximum rows.
        n: u64,
    },
    /// Row-count limit.
    Limit {
        /// Input.
        input: Arc<Plan>,
        /// Maximum rows.
        n: u64,
    },
    /// UNION ALL: the left input's rows, then the right's. The binder
    /// lowers DISTINCT, UNION, INTERSECT, EXCEPT, ROLLUP and DISTINCT
    /// aggregates onto this and [`Plan::Aggregate`].
    UnionAll {
        /// Left input.
        left: Arc<Plan>,
        /// Right input.
        right: Arc<Plan>,
    },
    /// Reference to a shared CTE plan, executed once per statement and
    /// cached in the execution context.
    CteRef {
        /// Cache slot.
        id: usize,
        /// The CTE's plan.
        plan: Arc<Plan>,
        /// Output width.
        width: usize,
    },
    /// A decorrelated subquery body's domain ([`crate::unnest`]): the
    /// distinct tuples of the outer columns the body reads among its
    /// host's input rows, each followed by its row id. The executor fills
    /// it before each run of the body.
    Domain {
        /// Which body's domain.
        id: usize,
        /// Output width: the tuple, then the row id.
        width: usize,
    },
}

impl Plan {
    /// Number of columns this plan produces.
    pub fn width(&self) -> usize {
        match self {
            Plan::Scan { cols, .. } => cols.len(),
            Plan::Filter { input, .. }
            | Plan::Sort { input, .. }
            | Plan::TopN { input, .. }
            | Plan::Limit { input, .. } => input.width(),
            Plan::Project { exprs, .. } => exprs.len(),
            Plan::HashJoin { left, right, .. } => left.width() + right.width(),
            Plan::Aggregate { groups, aggs, .. } => groups.len() + aggs.len(),
            Plan::Window { input, calls } => input.width() + calls.len(),
            Plan::UnionAll { left, .. } => left.width(),
            Plan::CteRef { width, .. } | Plan::Domain { width, .. } => *width,
        }
    }

    /// Wraps in a filter unless the predicate is trivially absent.
    pub fn filtered(self, predicate: Option<BExpr>) -> Plan {
        match predicate {
            None => self,
            Some(p) => Plan::Filter {
                input: Arc::new(self),
                predicate: p,
            },
        }
    }

    /// Pretty-prints the plan tree (EXPLAIN output).
    pub fn explain(&self) -> String {
        let mut out = String::new();
        self.explain_into(&mut out, 0, None, None, &mut Vec::new());
        out
    }

    /// Pretty-prints the plan tree with cardinality estimates (EXPLAIN
    /// over a database with collected statistics): every operator line
    /// carries `est_rows=` from [`crate::estimate::estimate_plan`].
    pub fn explain_with_estimates(&self, est: &crate::estimate::EstMap) -> String {
        let mut out = String::new();
        self.explain_into(&mut out, 0, None, Some(est), &mut Vec::new());
        out
    }

    /// Pretty-prints the plan tree annotated with a finished statement's
    /// per-node actuals (EXPLAIN ANALYZE — [`crate::Profile::plan_text`]):
    /// every executed operator line carries `rows=` (total rows produced),
    /// `est=` / `qerr=` (estimated rows and the q-error factor
    /// `max(est/actual, actual/est)` against per-call actuals), `elapsed=`
    /// (inclusive wall clock), `loops=` (times the node ran — a subquery
    /// body once per call of the node that holds it, or on the interpreter
    /// once per outer tuple) and `route=` (the execution path
    /// taken: `serial` only under `ColumnarMode::Off`).
    pub fn explain_analyze(
        &self,
        stats: &crate::exec::StatsMap,
        est: &crate::estimate::EstMap,
    ) -> String {
        let mut out = String::new();
        self.explain_into(&mut out, 0, Some(stats), Some(est), &mut Vec::new());
        out
    }

    /// The operator's name (the `op` field of routing counters and spans).
    pub fn op_name(&self) -> &'static str {
        match self {
            Plan::Scan { .. } => "Scan",
            Plan::Filter { .. } => "Filter",
            Plan::Project { .. } => "Project",
            Plan::HashJoin { .. } => "HashJoin",
            Plan::Aggregate { .. } => "Aggregate",
            Plan::Window { .. } => "Window",
            Plan::Sort { .. } => "Sort",
            Plan::TopN { .. } => "TopN",
            Plan::Limit { .. } => "Limit",
            Plan::UnionAll { .. } => "UnionAll",
            Plan::CteRef { .. } => "CteRef",
            Plan::Domain { .. } => "Domain",
        }
    }

    /// This node's one-line label, without annotations.
    fn label(&self) -> String {
        match self {
            Plan::Scan {
                table,
                cols,
                table_width,
                filter,
            } => {
                let f = if filter.is_some() { " [filtered]" } else { "" };
                format!("Scan {table}{f} [{}/{table_width} cols]", cols.len())
            }
            Plan::Filter { .. } => "Filter".to_string(),
            Plan::Project { exprs, .. } => format!("Project [{} cols]", exprs.len()),
            Plan::HashJoin {
                kind, left_keys, ..
            } => {
                format!("HashJoin {kind:?} on {} key(s)", left_keys.len())
            }
            Plan::Aggregate { groups, aggs, .. } => format!(
                "Aggregate [{} group(s), {} agg(s)]",
                groups.len(),
                aggs.len()
            ),
            Plan::Window { calls, .. } => format!("Window [{} call(s)]", calls.len()),
            Plan::Sort { keys, .. } => format!("Sort [{} key(s)]", keys.len()),
            Plan::TopN { keys, n, .. } => format!("TopN {n} [{} key(s)]", keys.len()),
            Plan::Limit { n, .. } => format!("Limit {n}"),
            Plan::UnionAll { .. } => "UnionAll".to_string(),
            Plan::CteRef { id, .. } => format!("CteRef #{id}"),
            Plan::Domain { id, width } => format!("Domain #{id} [{width} cols]"),
        }
    }

    /// Inputs in display order. A CTE body is not a child of its
    /// references: EXPLAIN renders it once, under the first.
    pub(crate) fn children(&self) -> Vec<&Plan> {
        match self {
            Plan::Scan { .. } => vec![],
            Plan::Filter { input, .. }
            | Plan::Project { input, .. }
            | Plan::Aggregate { input, .. }
            | Plan::Window { input, .. }
            | Plan::Sort { input, .. }
            | Plan::TopN { input, .. }
            | Plan::Limit { input, .. } => vec![input],
            Plan::HashJoin { left, right, .. } | Plan::UnionAll { left, right } => {
                vec![left, right]
            }
            Plan::CteRef { .. } | Plan::Domain { .. } => vec![],
        }
    }

    /// This node over new inputs: `f` maps each input in display order,
    /// a CTE reference's body included (each reference gets its own copy).
    pub(crate) fn map_inputs(&self, mut f: impl FnMut(&Plan) -> Plan) -> Plan {
        let mut f = |p: &Arc<Plan>| Arc::new(f(p));
        match self {
            Plan::Scan { .. } | Plan::Domain { .. } => self.clone(),
            Plan::Filter { input, predicate } => Plan::Filter {
                input: f(input),
                predicate: predicate.clone(),
            },
            Plan::Project { input, exprs } => Plan::Project {
                input: f(input),
                exprs: exprs.clone(),
            },
            Plan::HashJoin {
                left,
                right,
                kind,
                left_keys,
                right_keys,
                residual,
            } => Plan::HashJoin {
                left: f(left),
                right: f(right),
                kind: *kind,
                left_keys: left_keys.clone(),
                right_keys: right_keys.clone(),
                residual: residual.clone(),
            },
            Plan::Aggregate {
                input,
                groups,
                aggs,
            } => Plan::Aggregate {
                input: f(input),
                groups: groups.clone(),
                aggs: aggs.clone(),
            },
            Plan::Window { input, calls } => Plan::Window {
                input: f(input),
                calls: calls.clone(),
            },
            Plan::Sort { input, keys } => Plan::Sort {
                input: f(input),
                keys: keys.clone(),
            },
            Plan::TopN { input, keys, n } => Plan::TopN {
                input: f(input),
                keys: keys.clone(),
                n: *n,
            },
            Plan::Limit { input, n } => Plan::Limit {
                input: f(input),
                n: *n,
            },
            Plan::UnionAll { left, right } => Plan::UnionAll {
                left: f(left),
                right: f(right),
            },
            Plan::CteRef { id, plan, width } => Plan::CteRef {
                id: *id,
                plan: f(plan),
                width: *width,
            },
        }
    }

    /// The expressions this node itself evaluates (a window's in call
    /// order: argument, partition keys, order keys).
    pub fn exprs(&self) -> Vec<&BExpr> {
        match self {
            Plan::Scan { filter, .. } => filter.iter().collect(),
            Plan::Filter { predicate, .. } => vec![predicate],
            Plan::Project { exprs, .. } => exprs.iter().collect(),
            Plan::HashJoin {
                left_keys,
                right_keys,
                residual,
                ..
            } => (left_keys.iter().chain(right_keys).chain(residual)).collect(),
            Plan::Aggregate { groups, aggs, .. } => (groups.iter())
                .chain(aggs.iter().filter_map(|a| a.arg.as_ref()))
                .collect(),
            Plan::Window { calls, .. } => (calls.iter())
                .flat_map(|c| {
                    let order = c.order.iter().map(|(e, _)| e);
                    c.arg.iter().chain(&c.partition).chain(order)
                })
                .collect(),
            Plan::Sort { keys, .. } | Plan::TopN { keys, .. } => {
                keys.iter().map(|(e, _)| e).collect()
            }
            Plan::Limit { .. } | Plan::UnionAll { .. } | Plan::CteRef { .. } => vec![],
            Plan::Domain { .. } => vec![],
        }
    }

    /// Whether some node's own expressions read the enclosing query's row
    /// (a subquery or CTE body cannot: correlation is one level deep).
    pub(crate) fn reads_outer(&self) -> bool {
        (self.exprs().iter()).any(|e| e.reads_outer())
            || self.children().iter().any(|c| c.reads_outer())
    }

    /// `(subqueries, interpreter body runs so far)` in this node's own
    /// expressions, nested subquery bodies included
    /// ([`BExpr::subplans`]).
    pub fn subplans(&self) -> (u64, u64) {
        (self.exprs().iter()).fold((0, 0), |(n, runs), e| {
            let (en, eruns) = e.subplans();
            (n + en, runs + eruns)
        })
    }

    /// [`Plan::subplans`] summed over this node and everything below it.
    pub(crate) fn subplans_deep(&self) -> (u64, u64) {
        (self.children().iter()).fold(self.subplans(), |(n, runs), c| {
            let (cn, cruns) = c.subplans_deep();
            (n + cn, runs + cruns)
        })
    }

    /// Renders this node and its inputs; `ctes` holds the ids of the CTE
    /// bodies already rendered, so each renders once, under the first
    /// reference in display order.
    fn explain_into(
        &self,
        out: &mut String,
        depth: usize,
        stats: Option<&crate::exec::StatsMap>,
        est: Option<&crate::estimate::EstMap>,
        ctes: &mut Vec<usize>,
    ) {
        use std::fmt::Write;
        let pad = "  ".repeat(depth);
        let node = self as *const Plan as usize;
        let est_rows = est.and_then(|m| m.get(&node).copied());
        let suffix = match stats {
            None => match est_rows {
                // Plain EXPLAIN over a database with statistics.
                Some(e) => format!(" (est_rows={})", e.round() as u64),
                None => String::new(),
            },
            Some(map) => match map.get(&node) {
                Some(s) => {
                    let k = &s.kernel;
                    let mut columnar = if k.partitions > 0 {
                        format!(
                            " build_rows={} probe_morsels={} partitions={} workers={}",
                            k.build_rows, k.morsels, k.partitions, k.workers
                        )
                    } else if k.morsels > 0 {
                        format!(" morsels={} workers={}", k.morsels, k.workers)
                    } else {
                        String::new()
                    };
                    if k.build_bytes > 0 {
                        columnar.push_str(&format!(
                            " build_bytes={}",
                            tpcds_obs::mem::fmt_bytes(k.build_bytes)
                        ));
                    }
                    // Sort/Top-N kernel actuals. A Top-N that ran the
                    // kernel always reports the rows its cut kept and
                    // dropped, even when both are 0 (LIMIT 0).
                    if k.merge_ways > 0 {
                        columnar.push_str(&format!(" merge_ways={}", k.merge_ways));
                    }
                    if matches!(self, Plan::TopN { .. }) && k.workers > 0 {
                        columnar.push_str(&format!(
                            " heap_rows={} pruned={}",
                            k.heap_rows, k.pruned_rows
                        ));
                    }
                    // Vectorized expression kernel actuals: invocation
                    // count (one per morsel per expression) and rows fed
                    // through those kernels.
                    if k.expr_kernels > 0 {
                        columnar.push_str(&format!(
                            " expr_kernels={} expr_rows={}",
                            k.expr_kernels, k.expr_rows
                        ));
                    }
                    // mem_peak needs the counting allocator installed in
                    // the running binary; without it the delta is 0 and
                    // the annotation is omitted.
                    // Subqueries in this node's expressions and how many
                    // times the interpreter ran their nested bodies (the
                    // batch path runs each body as plan nodes, rendered
                    // below this one).
                    if let (n @ 1.., runs @ 1..) = self.subplans() {
                        columnar.push_str(&format!(" subplans={n} subplan_runs={runs}"));
                    }
                    let mem = if s.mem_peak > 0 {
                        format!(" mem_peak={}", tpcds_obs::mem::fmt_bytes(s.mem_peak))
                    } else {
                        String::new()
                    };
                    // Estimator annotations: estimated rows, q-error vs
                    // per-call actuals, and the routing decision.
                    let est_part = match est_rows {
                        Some(e) => {
                            let per_call = s.rows_out / s.calls.max(1);
                            let q = crate::estimate::q_error(e, per_call);
                            format!(" est={} qerr={q:.2}", e.round() as u64)
                        }
                        None => String::new(),
                    };
                    format!(
                        " (rows={}{est_part} elapsed={:.3}ms loops={} route={}{columnar}{mem})",
                        s.rows_out,
                        s.elapsed.as_secs_f64() * 1e3,
                        s.calls,
                        s.route.as_str()
                    )
                }
                None => match est_rows {
                    Some(e) => format!(" (est_rows={} never executed)", e.round() as u64),
                    None => " (never executed)".to_string(),
                },
            },
        };
        writeln!(out, "{pad}{}{suffix}", self.label()).unwrap();
        let body = match self {
            Plan::CteRef { id, plan, .. } if !ctes.contains(id) => {
                ctes.push(*id);
                Some(&**plan)
            }
            _ => None,
        };
        for child in self.children().into_iter().chain(body) {
            child.explain_into(out, depth + 1, stats, est, ctes);
        }
        for sub in self.bodies(stats) {
            let at = out.len() + 2 * (depth + 1);
            sub.explain_into(out, depth + 1, stats, est, ctes);
            out.insert_str(at, SUBQUERY);
        }
    }

    /// The bodies of the subqueries in this node's own expressions, each
    /// in the form that ran: the decorrelated body, unless only the nested
    /// one did (the interpreter, or a row-independent fold) — which is also
    /// the one shown for an uncorrelated subquery that did not run.
    pub(crate) fn bodies(&self, stats: Option<&crate::exec::StatsMap>) -> Vec<&Plan> {
        let ran = |p: &Plan| stats.is_some_and(|m| m.contains_key(&(p as *const Plan as usize)));
        (self.exprs().into_iter().flat_map(BExpr::subqueries))
            .map(
                |b| match ran(b.flat) || !(ran(b.plan) || b.outer_refs.is_empty()) {
                    true => &**b.flat,
                    false => &**b.plan,
                },
            )
            .collect()
    }

    /// Flattens the tree (including CTE bodies, under every reference, and
    /// subquery bodies, each under its holder as EXPLAIN renders it) into
    /// per-node machine-readable reports pairing
    /// the estimator's view with executed actuals, appended to `out` in
    /// pre-order.
    pub fn node_reports(
        &self,
        stats: &crate::exec::StatsMap,
        est: &crate::estimate::EstMap,
        out: &mut Vec<NodeReport>,
    ) {
        let node = self as *const Plan as usize;
        let est_rows = est.get(&node).copied();
        let s = stats.get(&node);
        let (rows, calls) = s.map(|s| (s.rows_out, s.calls)).unwrap_or((0, 0));
        let qerr = match (est_rows, s) {
            (Some(e), Some(s)) if s.calls > 0 => {
                Some(crate::estimate::q_error(e, s.rows_out / s.calls))
            }
            _ => None,
        };
        let (subplans, subplan_runs) = self.subplans();
        let route = s.map(|s| s.route).unwrap_or_default();
        out.push(NodeReport {
            op: self.label(),
            subplans,
            subplan_runs,
            est: est_rows,
            rows,
            calls,
            qerr,
            route,
            fallback: (route == crate::exec::RoutePath::Serial).then_some("columnar-off"),
            executed: s.is_some(),
        });
        for child in self.children() {
            child.node_reports(stats, est, out);
        }
        if let Plan::CteRef { plan, .. } = self {
            plan.node_reports(stats, est, out);
        }
        for sub in self.bodies(Some(stats)) {
            let at = out.len();
            sub.node_reports(stats, est, out);
            out[at].op.insert_str(0, SUBQUERY);
        }
    }
}

/// What EXPLAIN puts before the root of a subquery body, which renders
/// under the node that holds the subquery, after that node's inputs.
pub const SUBQUERY: &str = "Subquery: ";

/// One plan node's estimate/actual/routing summary, in pre-order. The
/// machine-readable counterpart of an EXPLAIN ANALYZE line.
#[derive(Debug, Clone)]
pub struct NodeReport {
    /// Operator label (same text as the EXPLAIN line).
    pub op: String,
    /// Subqueries in the node's own expressions, nested bodies included.
    pub subplans: u64,
    /// Times the interpreter ran those subqueries' nested bodies (0 on the
    /// batch path, whose bodies report as nodes of their own).
    pub subplan_runs: u64,
    /// Estimated output rows, if the estimator annotated this node.
    pub est: Option<f64>,
    /// Total rows produced across all calls.
    pub rows: u64,
    /// Times the node executed (0 = never reached).
    pub calls: u64,
    /// q-error factor `max(est/actual, actual/est)` vs per-call actuals.
    pub qerr: Option<f64>,
    /// The best execution path any call took.
    pub route: crate::exec::RoutePath,
    /// `Some("columnar-off")` exactly when the node ran the serial
    /// interpreter, which only `ColumnarMode::Off` runs.
    pub fallback: Option<&'static str>,
    /// Whether the node executed at all (pruned subplans don't).
    pub executed: bool,
}
