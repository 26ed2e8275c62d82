//! The bound logical/physical plan. With full materialization between
//! operators, logical and physical plans coincide.

use crate::expr::BExpr;
use std::sync::Arc;
use tpcds_storage::{AggKind, WinFunc};

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

/// Join kinds (bound form).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum JoinKind {
    /// Inner join.
    Inner,
    /// Left outer join.
    Left,
}

/// The plan tree.
#[derive(Debug, Clone)]
pub enum Plan {
    /// Base-table scan with an optional pushed-down filter.
    Scan {
        /// Table name in the catalog.
        table: String,
        /// Number of columns (scan output width).
        width: usize,
        /// Filter applied during the scan.
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
        kind: JoinKind,
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
    /// executable with bounded per-worker heaps.
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
    /// Keep only the first `keep` columns of each row (drops hidden sort
    /// columns after an ORDER BY over non-projected expressions).
    Prefix {
        /// Input.
        input: Arc<Plan>,
        /// Visible column count.
        keep: usize,
    },
}

impl Plan {
    /// Number of columns this plan produces. `db_width` resolves scan
    /// widths eagerly, so this is exact.
    pub fn width(&self) -> usize {
        match self {
            Plan::Scan { width, .. } => *width,
            Plan::Filter { input, .. }
            | Plan::Sort { input, .. }
            | Plan::TopN { input, .. }
            | Plan::Limit { input, .. } => input.width(),
            Plan::Project { exprs, .. } => exprs.len(),
            Plan::HashJoin { left, right, .. } => left.width() + right.width(),
            Plan::Aggregate { groups, aggs, .. } => groups.len() + aggs.len(),
            Plan::Window { input, calls } => input.width() + calls.len(),
            Plan::UnionAll { left, .. } => left.width(),
            Plan::CteRef { width, .. } => *width,
            Plan::Prefix { keep, .. } => *keep,
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
    /// (inclusive wall clock), `loops=` (times the node ran — correlated
    /// subplans run once per outer row) and `route=` (the execution path
    /// taken, with the fallback reason code in brackets for non-columnar
    /// routes).
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
            Plan::Prefix { .. } => "Prefix",
        }
    }

    /// This node's one-line label, without annotations.
    fn label(&self) -> String {
        match self {
            Plan::Scan { table, filter, .. } => {
                let f = if filter.is_some() { " [filtered]" } else { "" };
                format!("Scan {table}{f}")
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
            Plan::Prefix { keep, .. } => format!("Prefix keep={keep}"),
        }
    }

    /// Inputs in display order. A CTE body is not a child of its
    /// references: EXPLAIN renders it once, under the first.
    fn children(&self) -> Vec<&Plan> {
        match self {
            Plan::Scan { .. } => vec![],
            Plan::Filter { input, .. }
            | Plan::Project { input, .. }
            | Plan::Aggregate { input, .. }
            | Plan::Window { input, .. }
            | Plan::Sort { input, .. }
            | Plan::TopN { input, .. }
            | Plan::Limit { input, .. }
            | Plan::Prefix { input, .. } => vec![input],
            Plan::HashJoin { left, right, .. } | Plan::UnionAll { left, right } => {
                vec![left, right]
            }
            Plan::CteRef { .. } => vec![],
        }
    }

    /// The expressions this node itself evaluates (a window's in call
    /// order: argument, partition keys, order keys).
    pub(crate) fn exprs(&self) -> Vec<&BExpr> {
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
            Plan::Limit { .. }
            | Plan::UnionAll { .. }
            | Plan::CteRef { .. }
            | Plan::Prefix { .. } => vec![],
        }
    }

    /// Whether some node's own expressions read the enclosing query's row
    /// (a subquery or CTE body cannot: correlation is one level deep).
    pub(crate) fn reads_outer(&self) -> bool {
        (self.exprs().iter()).any(|e| e.reads_outer())
            || self.children().iter().any(|c| c.reads_outer())
    }

    /// `(subqueries, body executions so far)` in this node's own
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
                    let mut columnar = if s.partitions > 0 {
                        format!(
                            " build_rows={} probe_morsels={} partitions={} workers={}",
                            s.build_rows, s.morsels, s.partitions, s.workers
                        )
                    } else if s.morsels > 0 {
                        format!(" morsels={} workers={}", s.morsels, s.workers)
                    } else {
                        String::new()
                    };
                    if s.build_bytes > 0 {
                        columnar.push_str(&format!(
                            " build_bytes={}",
                            tpcds_obs::mem::fmt_bytes(s.build_bytes)
                        ));
                    }
                    // Sort/Top-N kernel actuals. A Top-N that ran the
                    // kernel always reports its heap occupancy and prune
                    // count, even when both are 0 (LIMIT 0).
                    if s.merge_ways > 0 {
                        columnar.push_str(&format!(" merge_ways={}", s.merge_ways));
                    }
                    if matches!(self, Plan::TopN { .. }) && s.workers > 0 {
                        columnar.push_str(&format!(
                            " heap_rows={} pruned={}",
                            s.heap_rows, s.pruned_rows
                        ));
                    }
                    // Vectorized expression kernel actuals: invocation
                    // count (one per morsel per expression) and rows fed
                    // through those kernels.
                    if s.expr_kernels > 0 {
                        columnar.push_str(&format!(
                            " expr_kernels={} expr_rows={}",
                            s.expr_kernels, s.expr_rows
                        ));
                    }
                    // mem_peak needs the counting allocator installed in
                    // the running binary; without it the delta is 0 and
                    // the annotation is omitted.
                    // Subqueries in this node's expressions and how many
                    // times their bodies ran: the whole cost of a
                    // correlated subquery sits on this line, so the count
                    // is what tells once from once-per-row.
                    if let (n @ 1.., runs) = self.subplans() {
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
                    let route = match (s.route, s.fallback) {
                        (r, Some(why)) if r != crate::exec::RoutePath::Columnar => {
                            format!(" route={}[{why}]", r.as_str())
                        }
                        (r, _) => format!(" route={}", r.as_str()),
                    };
                    format!(
                        " (rows={}{est_part} elapsed={:.3}ms loops={}{route}{columnar}{mem})",
                        s.rows_out,
                        s.elapsed.as_secs_f64() * 1e3,
                        s.calls
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
    }

    /// Flattens the tree (including CTE bodies, under every reference)
    /// into per-node machine-readable reports pairing
    /// the estimator's view with executed actuals, appended to `out` in
    /// pre-order — the data behind the coverage report.
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
        out.push(NodeReport {
            op: self.label(),
            subplans,
            subplan_runs,
            est: est_rows,
            rows,
            calls,
            qerr,
            route: s.map(|s| s.route).unwrap_or_default(),
            fallback: s.and_then(|s| s.fallback),
            executed: s.is_some(),
        });
        for child in self.children() {
            child.node_reports(stats, est, out);
        }
        if let Plan::CteRef { plan, .. } = self {
            plan.node_reports(stats, est, out);
        }
    }
}

/// One plan node's estimate/actual/routing summary, in pre-order. The
/// machine-readable counterpart of an EXPLAIN ANALYZE line, consumed by
/// the `tpcds-bench coverage` report.
#[derive(Debug, Clone)]
pub struct NodeReport {
    /// Operator label (same text as the EXPLAIN line).
    pub op: String,
    /// Subqueries in the node's own expressions, nested bodies included.
    pub subplans: u64,
    /// Times those subqueries' bodies executed.
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
    /// Reason code for the first non-columnar routing decision, if any.
    pub fallback: Option<&'static str>,
    /// Whether the node executed at all (pruned subplans don't).
    pub executed: bool,
}
