//! Plan execution. Operators exchange lazy column batches
//! ([`tpcds_storage::Batch`]: a table, a pending predicate, a pending
//! projection) and rows are materialized once, at the result edge
//! ([`execute`]). Every node has a batch kernel. The serial row
//! interpreter ([`serial_node`]) is kept as the oracle: it is what
//! [`ColumnarMode::Off`] runs end to end, and what a node runs through
//! one adapter ([`adapt`]) when an expression it evaluates needs a row no
//! kernel can see. It pushes rows into a [`Sink`] that can decline more,
//! which is how a `LIMIT` stops its input early — on both executors
//! ([`stream`]).

use crate::catalog::Database;
use crate::error::{EngineError, Result};
use crate::expr::BExpr;
use crate::plan::{AggCall, JoinKind, Plan, WindowCall};
use crate::sync::Mutex;
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};
use tpcds_storage::{Batch, WinFunc};
use tpcds_types::{Row, Value};

/// Which execution path an operator actually took. Ordered by how
/// accelerated the path is, so folding multiple calls keeps the best.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum RoutePath {
    /// Not executed / no routing decision recorded yet.
    #[default]
    Unset,
    /// The serial row interpreter.
    Serial,
    /// Hash-index probe.
    Index,
    /// Batch in, batch out: a morsel-driven kernel, or a lazy composition
    /// that a later kernel evaluates.
    Columnar,
}

impl RoutePath {
    /// Stable lower-case label (`route=` in EXPLAIN ANALYZE, `route.*`
    /// counter suffix, coverage-report key).
    pub fn as_str(self) -> &'static str {
        match self {
            RoutePath::Unset => "unset",
            RoutePath::Serial => "serial",
            RoutePath::Index => "index",
            RoutePath::Columnar => "columnar",
        }
    }
}

/// Machine-readable reason codes attached to every node that ran the
/// serial interpreter instead of a batch kernel. The vocabulary is closed:
/// coverage baselines and dashboards match on these exact strings. Every
/// member of an interpreted chain (`exec::interpreted`) carries the
/// reason of the first member that needs the interpreter. Every node has
/// a kernel, so with the executor on only an expression or a virtual
/// table sends a node to the interpreter.
pub mod reason {
    /// Columnar routing disabled (`TPCDS_COLUMNAR=off` / ExecOptions).
    pub const COLUMNAR_OFF: &str = "columnar-off";
    /// An expression contains a shape no kernel can evaluate — an
    /// outer-column reference, a correlated subquery other than a keyed
    /// `EXISTS`, or a subquery whose one evaluation raised — the only
    /// reason an expression ever falls off the vectorized path.
    pub const EXPR_UNSUPPORTED: &str = "expr-unsupported";
    /// A `sys.*` virtual table: rows materialize at scan time, so there
    /// are no segments to route through.
    pub const SYS_VIRTUAL: &str = "sys-virtual";
}

/// `Err(reason)` = the batch kernel cannot run this node, and why.
type Routed<T> = std::result::Result<T, &'static str>;

/// Accumulated actuals for one plan node (EXPLAIN ANALYZE). Elapsed time
/// is inclusive of the node's inputs, like `actual time` in other engines
/// — except that a lazy node's pending predicate is evaluated (and timed)
/// by the kernel that consumes it, and a row-at-a-time interpreter
/// operator's time also covers the sinks it pushes into; `calls` counts
/// executions (correlated subplans run once per outer row).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct OpStats {
    /// The best execution path any call of this node took.
    pub route: RoutePath,
    /// Reason code for the first non-columnar routing decision, if any.
    pub fallback: Option<&'static str>,
    /// Times the node was executed.
    pub calls: u64,
    /// Total rows produced across all calls.
    pub rows_out: u64,
    /// Total wall-clock time across all calls (inclusive of inputs).
    pub elapsed: Duration,
    /// Morsels scanned, when the node ran on the columnar path (probe
    /// morsels for a columnar join).
    pub morsels: u64,
    /// Peak worker count used by the columnar path (0 = row path).
    pub workers: u64,
    /// Build rows kept in the hash tables, when the node ran on the
    /// columnar join path.
    pub build_rows: u64,
    /// Hash-table partition count, when the node ran on the columnar join
    /// path (0 = not a columnar join).
    pub partitions: u64,
    /// Peak live-memory growth across all calls, bytes (inclusive of
    /// inputs). 0 unless the process installed the counting allocator.
    pub mem_peak: u64,
    /// Join build-side hash-table footprint, bytes. 0 unless the node is
    /// a columnar join and the counting allocator is installed.
    pub build_bytes: u64,
    /// Peak total rows held across all Top-N worker heaps, when the node
    /// ran on the parallel sort path (0 = not a parallel Top-N).
    pub heap_rows: u64,
    /// Sorted-run count fed to the k-way merge, when the node ran on the
    /// parallel full-sort path (0 = not a parallel full sort).
    pub merge_ways: u64,
    /// Qualifying rows discarded by Top-N heap bounds without ever being
    /// materialized, across all calls.
    pub pruned_rows: u64,
    /// Vectorized expression kernel invocations (one per morsel per
    /// expression), when the node evaluated compiled expressions.
    pub expr_kernels: u64,
    /// Rows processed by those expression kernels across all calls.
    pub expr_rows: u64,
}

/// Per-node actuals keyed by plan-node address — stable for the lifetime
/// of the `Bound` statement that owns the tree.
pub type StatsMap = HashMap<usize, OpStats>;

/// Which executor runs the statement.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ColumnarMode {
    /// The serial row interpreter end to end — the differential oracle.
    Off,
    /// Batch execution; scans with an indexable equality filter take the
    /// hash-index probe. The default.
    Auto,
    /// Batch execution without index probes — the setting the
    /// equivalence tests use to force kernel coverage.
    Force,
}

impl ColumnarMode {
    /// The process default: `TPCDS_COLUMNAR=off|0` disables the columnar
    /// path, `TPCDS_COLUMNAR=force` forces it, anything else means Auto.
    pub fn from_env() -> ColumnarMode {
        use std::sync::OnceLock;
        static MODE: OnceLock<ColumnarMode> = OnceLock::new();
        *MODE.get_or_init(|| match std::env::var("TPCDS_COLUMNAR").as_deref() {
            Ok("off") | Ok("0") => ColumnarMode::Off,
            Ok("force") => ColumnarMode::Force,
            _ => ColumnarMode::Auto,
        })
    }
}

/// Per-statement execution knobs.
#[derive(Debug, Clone, Copy)]
pub struct ExecOptions {
    /// Columnar routing policy.
    pub columnar: ColumnarMode,
    /// Worker count for morsel-driven scans; `None` defers to
    /// [`tpcds_storage::effective_threads`] (`TPCDS_THREADS` /
    /// `available_parallelism`).
    pub threads: Option<usize>,
}

impl Default for ExecOptions {
    fn default() -> Self {
        ExecOptions {
            columnar: ColumnarMode::from_env(),
            threads: None,
        }
    }
}

/// Per-statement execution context: the pinned snapshot the statement
/// reads, the CTE result cache, execution options, and the per-node
/// actuals every statement collects (the cost is per node call and per
/// morsel, never per row).
///
/// The snapshot is pinned once at construction: every table lookup for
/// the statement's lifetime resolves against that frozen version, so
/// concurrent commits never change what a running query sees.
pub struct ExecCtx<'a> {
    /// The database (the statement's snapshot is already pinned; this
    /// handle exists for callers that need catalog-level context).
    pub db: &'a Database,
    /// The immutable snapshot every table lookup resolves against.
    snap: Arc<crate::catalog::DbSnapshot>,
    /// CTE results by slot id: each CTE executes once per statement and
    /// every reference shares the batch's `Arc`.
    pub cte_cache: Mutex<HashMap<usize, Batch>>,
    /// The interpreter's own CTE results: the oracle never touches the
    /// column codec, so a statement fills this cache or the one above.
    cte_rows: Mutex<HashMap<usize, Arc<Vec<Row>>>>,
    /// Execution options (columnar routing, worker count).
    pub opts: ExecOptions,
    stats: Mutex<StatsMap>,
    /// Per lazy node, the counter its pending predicate feeds as kernels
    /// evaluate it ([`Batch::counted`]).
    lazy_rows: Mutex<Vec<(usize, Arc<AtomicU64>)>>,
}

impl<'a> ExecCtx<'a> {
    /// Fresh context for one statement reading `snap`.
    pub fn new(db: &'a Database, snap: Arc<crate::catalog::DbSnapshot>, opts: ExecOptions) -> Self {
        ExecCtx {
            db,
            snap,
            cte_cache: Mutex::new(HashMap::new()),
            cte_rows: Mutex::new(HashMap::new()),
            opts,
            stats: Mutex::new(HashMap::new()),
            lazy_rows: Mutex::new(Vec::new()),
        }
    }

    /// The snapshot this statement reads.
    pub fn snapshot(&self) -> &Arc<crate::catalog::DbSnapshot> {
        &self.snap
    }

    /// A table handle from the pinned snapshot (lock-free).
    pub fn table(&self, name: &str) -> Result<Arc<crate::catalog::Table>> {
        self.snap.table(name)
    }

    /// Consumes the context, yielding the collected per-node actuals.
    pub fn take_stats(self) -> StatsMap {
        let mut map = self.stats.into_inner();
        for (node, rows) in self.lazy_rows.into_inner() {
            map.entry(node).or_default().rows_out += rows.load(Ordering::Relaxed);
        }
        map
    }

    /// Folds one kernel's numbers into `node`'s actuals.
    fn fold(&self, node: usize, f: impl FnOnce(&mut OpStats)) {
        f(self.stats.lock().entry(node).or_default());
    }

    /// The morsel worker count this statement runs with.
    fn threads(&self) -> usize {
        self.opts
            .threads
            .unwrap_or_else(tpcds_storage::effective_threads)
    }

    /// Records which path an operator took and (for the serial path)
    /// why, in the node's actuals. A decision that changes them — once per
    /// distinct decision per statement, however often a correlated subplan
    /// repeats it — also emits an `engine.route.<path>` counter, an
    /// `engine.route.fallback.<reason>` counter, and an `engine/route`
    /// span (visible in the Chrome trace).
    fn record_route(
        &self,
        node: usize,
        op: &'static str,
        route: RoutePath,
        fallback: Option<&'static str>,
    ) {
        let mut fresh = false;
        self.fold(node, |s| {
            fresh = route > s.route || (fallback.is_some() && s.fallback.is_none());
            s.route = s.route.max(route);
            s.fallback = s.fallback.or(fallback);
        });
        if !fresh {
            return;
        }
        let op_field = [("op", tpcds_obs::FieldValue::Str(op.to_string()))];
        tpcds_obs::counter(
            "engine",
            &format!("route.{}", route.as_str()),
            1.0,
            &op_field,
        );
        let mut span = tpcds_obs::span("engine", "route")
            .field("op", op)
            .field("path", route.as_str());
        if let Some(r) = fallback {
            tpcds_obs::counter("engine", &format!("route.fallback.{r}"), 1.0, &op_field);
            if r == reason::EXPR_UNSUPPORTED {
                tpcds_obs::counter("engine", "expr.fallback", 1.0, &op_field);
            }
            span.add_field("reason", r);
        }
        span.finish();
    }

    /// A columnar scan's morsel/worker numbers.
    fn record_columnar(&self, node: usize, cs: &tpcds_storage::ScanStats) {
        self.fold(node, |s| {
            s.morsels += cs.morsels;
            s.workers = s.workers.max(cs.workers);
        });
    }

    /// A parallel sort/Top-N kernel's morsel/heap/merge numbers.
    fn record_sort(&self, node: usize, ss: &tpcds_storage::SortStats) {
        self.fold(node, |s| {
            s.morsels += ss.morsels;
            s.workers = s.workers.max(ss.workers);
            s.merge_ways = s.merge_ways.max(ss.merge_ways);
            s.heap_rows = s.heap_rows.max(ss.heap_rows);
            s.pruned_rows += ss.pruned_rows;
        });
    }

    /// A vectorized expression kernel's invocation/row counts; also emits
    /// the `expr.compiled` / `expr.rows` counters.
    fn record_expr(&self, node: usize, es: &tpcds_storage::ExprStats) {
        tpcds_obs::counter("engine", "expr.compiled", 1.0, &[]);
        tpcds_obs::counter("engine", "expr.rows", es.rows as f64, &[]);
        self.fold(node, |s| {
            s.expr_kernels += es.kernels;
            s.expr_rows += es.rows;
        });
    }

    /// A columnar join's build/probe/partition numbers.
    fn record_join(&self, node: usize, js: &tpcds_storage::JoinStats) {
        self.fold(node, |s| {
            s.morsels += js.probe_morsels;
            s.workers = s.workers.max(js.workers);
            s.build_rows += js.build_rows;
            s.partitions = s.partitions.max(js.partitions);
            s.build_bytes = s.build_bytes.max(js.build_bytes);
        });
    }
}

/// Executes a plan to rows — the result edge, and the only place a column
/// batch is turned into `Vec<Row>` on behalf of a caller (the statement
/// entry points and subquery evaluation). `outer` carries the enclosing
/// row when this plan is a correlated subquery body. Each node's calls,
/// output rows, elapsed time and memory peak accumulate in the context.
///
/// [`ColumnarMode::Off`] runs the serial row interpreter end to end — the
/// oracle every differential compares against; the other modes run
/// [`batch_node`] and materialize its batch once (an [`interpreted`]
/// chain's rows are collected as they stream, never wrapped).
pub fn execute(plan: &Plan, ctx: &ExecCtx<'_>, outer: Option<&[Value]>) -> Result<Vec<Row>> {
    if interpreted(plan, ctx).is_none() {
        return rows_of(plan, ctx, outer);
    }
    let mut rows = Vec::new();
    stream(plan, ctx, outer, &mut |row| {
        rows.push(row);
        Ok(true)
    })?;
    Ok(rows)
}

/// Runs one node and folds its actuals into the context. A lazy batch
/// defers its work to whichever kernel consumes it, so a node's elapsed
/// time covers what the node itself ran.
fn observed<T>(
    plan: &Plan,
    ctx: &ExecCtx<'_>,
    run: impl FnOnce() -> Result<T>,
    rows: impl FnOnce(&T) -> u64,
) -> Result<T> {
    let wm = tpcds_obs::mem::Watermark::start();
    let start = Instant::now();
    let out = run()?;
    let (elapsed, mem_peak) = (start.elapsed(), wm.peak_delta());
    let rows = rows(&out);
    ctx.fold(plan as *const Plan as usize, |s| {
        s.calls += 1;
        s.rows_out += rows;
        s.elapsed += elapsed;
        s.mem_peak = s.mem_peak.max(mem_peak);
    });
    Ok(out)
}

/// Receives an operator's rows in order; `Ok(false)` declines the rest.
type Sink<'s> = &'s mut dyn FnMut(Row) -> Result<bool>;

/// Pushes `rows` into `sink` until it declines.
fn feed(rows: impl IntoIterator<Item = Row>, sink: Sink<'_>) -> Result<()> {
    for row in rows {
        if !sink(row)? {
            break;
        }
    }
    Ok(())
}

/// Feeds `plan`'s rows, in order, to `sink` until it declines — one node,
/// children included, on whichever executor runs it. Rows after the one
/// the sink declined at are never evaluated, so they cannot raise errors:
/// a lazy batch clears its deferred errors past that row
/// ([`tpcds_storage::scan_until`]), and the interpreter's row-at-a-time
/// operators ([`interpreted`]) simply stop.
fn stream(plan: &Plan, ctx: &ExecCtx<'_>, outer: Option<&[Value]>, sink: Sink<'_>) -> Result<()> {
    let Some(why) = interpreted(plan, ctx) else {
        let b = batch(plan, ctx, outer)?;
        let res = tpcds_storage::scan_until(&b, sink);
        // A pending-predicate error at or before the stopping row
        // outranks the sink's own: the row path filters first.
        check_err(&b)?;
        let cs = res?;
        if b.pred.is_some() {
            ctx.record_columnar(plan as *const Plan as usize, &cs);
        }
        return Ok(());
    };
    let run = || {
        let mut rows = 0;
        let mut counting = |row| {
            rows += 1;
            sink(row)
        };
        serial_node(plan, ctx, outer, why, &mut counting)?;
        Ok(rows)
    };
    observed(plan, ctx, run, |&rows| rows).map(drop)
}

/// Why `plan` itself runs on the serial interpreter, streaming: always
/// under [`ColumnarMode::Off`]; otherwise when it belongs to a chain of
/// row-at-a-time operators — `Filter`, plain-column `Project`, `Prefix`,
/// down to a `Scan` — one of which cannot be part of a lazy batch. The
/// whole chain then streams, so a `LIMIT` above it stops at the same row,
/// with the same errors, as under `Off`. `None` = [`batch_node`] runs it.
/// Nothing executes to decide this except the subqueries a predicate needs
/// evaluated once ([`compilable`]).
fn interpreted(plan: &Plan, ctx: &ExecCtx<'_>) -> Option<&'static str> {
    if ctx.opts.columnar == ColumnarMode::Off {
        return Some(reason::COLUMNAR_OFF);
    }
    match plan {
        Plan::Scan { table, filter, .. } => {
            if crate::sys::is_sys_table(table) {
                return Some(reason::SYS_VIRTUAL);
            }
            // An unknown table is `batch_node`'s error to raise.
            let t = ctx.table(table).ok()?;
            if index_for(&t, filter.as_ref(), ctx).is_some() {
                None
            } else {
                (filter.as_ref().is_some_and(|f| !compilable(f, ctx)))
                    .then_some(reason::EXPR_UNSUPPORTED)
            }
        }
        Plan::Filter { predicate, .. } if !compilable(predicate, ctx) => {
            Some(reason::EXPR_UNSUPPORTED)
        }
        Plan::Filter { input, .. } => interpreted(input, ctx),
        Plan::Project { input, exprs } if plain_cols(exprs).is_some() => interpreted(input, ctx),
        Plan::Prefix { input, .. } => interpreted(input, ctx),
        _ => None,
    }
}

/// One node of the batch executor, children included. A node whose
/// batch carries a pending predicate reports its rows later: whichever
/// kernel evaluates the predicate counts what it admits (so a `LIMIT`
/// that stops early reports the rows actually read).
fn batch(plan: &Plan, ctx: &ExecCtx<'_>, outer: Option<&[Value]>) -> Result<Batch> {
    let pending = |b: &Batch| b.pred.as_ref().map_or(b.table.rows as u64, |_| 0);
    let mut b = observed(plan, ctx, || batch_node(plan, ctx, outer), pending)?;
    if let Some(rows) = b.counted() {
        let node = plan as *const Plan as usize;
        ctx.lazy_rows.lock().push((node, rows));
    }
    Ok(b)
}

/// Executes `plan` as a batch and materializes it. The scan numbers land
/// on `plan`'s node when a pending predicate made this the pass that
/// actually read the table.
fn rows_of(plan: &Plan, ctx: &ExecCtx<'_>, outer: Option<&[Value]>) -> Result<Vec<Row>> {
    let b = batch(plan, ctx, outer)?;
    let (rows, cs) = tpcds_storage::par_filter(&b, ctx.threads());
    check_err(&b)?;
    if b.pred.is_some() {
        ctx.record_columnar(plan as *const Plan as usize, &cs);
    }
    Ok(rows)
}

/// The one adapter between the two executors: runs the serial
/// interpreter's operator for `plan` over its children's materialized
/// batches and re-wraps the result. Every node with an expression the
/// compiler refuses comes through here, recorded as `route=serial[why]`.
fn adapt(
    plan: &Plan,
    ctx: &ExecCtx<'_>,
    outer: Option<&[Value]>,
    why: &'static str,
) -> Result<Batch> {
    let mut rows = Vec::new();
    serial_node(plan, ctx, outer, why, &mut |row| {
        rows.push(row);
        Ok(true)
    })?;
    Ok(Batch::from_rows(plan.width(), &rows))
}

/// The first `n` rows of `plan`, which stops there (`LIMIT`).
fn take(plan: &Plan, n: usize, ctx: &ExecCtx<'_>, outer: Option<&[Value]>) -> Result<Vec<Row>> {
    let mut rows = Vec::new();
    if n > 0 {
        stream(plan, ctx, outer, &mut |row| {
            rows.push(row);
            Ok(rows.len() < n)
        })?;
    }
    Ok(rows)
}

/// Surfaces a deferred per-row error left behind by the batch's pending
/// predicate after a kernel consumed it. Must be called after every such
/// kernel, before trusting its output.
fn check_err(b: &Batch) -> Result<()> {
    b.take_err()
        .map_or(Ok(()), |msg| Err(EngineError::exec(msg)))
}

fn storage_err(e: tpcds_storage::StorageError) -> EngineError {
    EngineError::exec(e.0)
}

/// Compiles `e`, which [`compilable`] accepted, for a kernel over `b`:
/// against the physical columns behind `b`'s visible row.
fn compile_over(b: &Batch, e: &BExpr, ctx: &ExecCtx<'_>) -> tpcds_storage::Expr {
    compile_expr(e, &|c| b.phys(c), Some(ctx)).expect("checked: compilable")
}

/// Whether `e` has a kernel form ([`compile_expr`]). An expression with
/// subqueries has one when each can be evaluated once for the whole
/// statement and that evaluation — which happens here, through the
/// subquery's memo — did not raise; if it did, the interpreter keeps the
/// node and raises the error only if a row reaches the subquery.
fn compilable(e: &BExpr, ctx: &ExecCtx<'_>) -> bool {
    !e.needs_context() || (!e.reads_outer() && compile_expr(e, &|c| c, Some(ctx)).is_some())
}

/// The column indexes when every expression is a plain column reference.
fn plain_cols<'e>(exprs: impl IntoIterator<Item = &'e BExpr>) -> Option<Vec<usize>> {
    exprs
        .into_iter()
        .map(|e| match e {
            BExpr::Col(i) => Some(*i),
            _ => None,
        })
        .collect()
}

/// The batch executor: every node returns a lazy [`Batch`]. `Scan` yields
/// the segments untouched, a compilable `Filter` ANDs into the pending
/// predicate, a plain-column `Project`/`Prefix` composes the pending
/// projection; joins, aggregates, windows, sorts and limits hand whatever
/// batch their child produced to a morsel kernel. A node with an
/// expression no kernel evaluates, and [`interpreted`] chains, go through
/// [`adapt`].
fn batch_node(plan: &Plan, ctx: &ExecCtx<'_>, outer: Option<&[Value]>) -> Result<Batch> {
    if let Some(why) = interpreted(plan, ctx) {
        return adapt(plan, ctx, outer, why);
    }
    let node = plan as *const Plan as usize;
    let threads = ctx.threads();
    let columnar = || ctx.record_route(node, plan.op_name(), RoutePath::Columnar, None);
    match plan {
        Plan::Scan { table, filter, .. } => {
            let t = ctx.table(table)?;
            if let Some(rows) = index_probe(&t, filter.as_ref(), ctx, outer)? {
                ctx.record_route(node, "Scan", RoutePath::Index, None);
                return Ok(Batch::from_rows(plan.width(), &rows));
            }
            columnar();
            let b = Batch::new(Arc::clone(t.data()));
            Ok(match filter.as_ref().map(|f| compile_over(&b, f, ctx)) {
                Some(f) => b.filter(f),
                None => b,
            })
        }
        Plan::Filter { input, predicate } => {
            columnar();
            let b = batch(input, ctx, outer)?;
            let pred = compile_over(&b, predicate, ctx);
            Ok(b.filter(pred))
        }
        Plan::Project { input, exprs } => {
            if let Some(cols) = plain_cols(exprs) {
                columnar();
                return Ok(batch(input, ctx, outer)?.project(&cols));
            }
            if !exprs.iter().all(|e| compilable(e, ctx)) {
                return adapt(plan, ctx, outer, reason::EXPR_UNSUPPORTED);
            }
            columnar();
            let b = batch(input, ctx, outer)?;
            let cexprs: Vec<_> = exprs.iter().map(|e| compile_over(&b, e, ctx)).collect();
            Ok(Batch::new(project_table(&b, &cexprs, node, ctx)?))
        }
        Plan::HashJoin { kind, .. } => {
            let j = match join_sides(plan, node, ctx, outer)? {
                Ok(j) => j,
                Err(why) => return adapt(plan, ctx, outer, why),
            };
            columnar();
            let res = tpcds_storage::par_hash_join(
                &j.probe,
                &j.probe_keys,
                &j.build,
                &j.build_keys,
                join_type(*kind),
                j.residual.as_ref(),
                threads,
            );
            j.check_err()?;
            let (table, js) = res.map_err(storage_err)?;
            ctx.record_join(node, &js);
            Ok(Batch::new(Arc::new(table)))
        }
        Plan::Aggregate {
            input,
            groups,
            aggs,
        } => {
            let specs = agg_specs(groups.len(), aggs);
            let args = aggs.iter().filter_map(|a| a.arg.as_ref());
            let keys: Vec<&BExpr> = groups.iter().chain(args).collect();
            if !keys.iter().all(|e| compilable(e, ctx)) {
                return adapt(plan, ctx, outer, reason::EXPR_UNSUPPORTED);
            }
            columnar();
            // The calls with their key positions mapped to key columns.
            let rebased = |cols: &[usize]| -> Vec<_> {
                let at = |s: tpcds_storage::AggSpec| s.col.map(|k| cols[k]);
                (specs.iter())
                    .map(|&s| tpcds_storage::AggSpec { col: at(s), ..s })
                    .collect()
            };
            // Plain columns directly over a hash join: the fused kernel
            // folds matches into the partials; joined rows are never
            // gathered.
            if let (Some(cols), Plan::HashJoin { kind, .. }) =
                (plain_cols(keys.iter().copied()), &**input)
            {
                if let Ok(j) = join_sides(input, node, ctx, outer)? {
                    let cols: Vec<usize> = cols.into_iter().map(|c| j.phys(c)).collect();
                    let res = tpcds_storage::par_hash_join_agg(
                        &j.probe,
                        &j.probe_keys,
                        &j.build,
                        &j.build_keys,
                        join_type(*kind),
                        j.residual.as_ref(),
                        &cols[..groups.len()],
                        &rebased(&cols),
                        threads,
                    );
                    j.check_err()?;
                    let (rows, js) = res.map_err(storage_err)?;
                    ctx.record_join(node, &js);
                    return Ok(Batch::from_rows(plan.width(), &rows));
                }
            }
            let (b, cols) = key_columns(batch(input, ctx, outer)?, &keys, false, node, ctx)?;
            let specs = rebased(&cols);
            let res = tpcds_storage::par_aggregate(&b, &cols[..groups.len()], &specs, threads);
            // Deferred predicate errors outrank aggregate errors: the row
            // path filters before it folds.
            check_err(&b)?;
            let (rows, cs) = res.map_err(storage_err)?;
            ctx.record_columnar(node, &cs);
            Ok(Batch::from_rows(plan.width(), &rows))
        }
        Plan::Sort { input, keys } | Plan::TopN { input, keys, .. } => {
            if !keys.iter().all(|(e, _)| compilable(e, ctx)) {
                return adapt(plan, ctx, outer, reason::EXPR_UNSUPPORTED);
            }
            columnar();
            let exprs: Vec<&BExpr> = keys.iter().map(|(e, _)| e).collect();
            let (b, cols) = key_columns(batch(input, ctx, outer)?, &exprs, true, node, ctx)?;
            let skeys: Vec<_> = (cols.into_iter().zip(keys))
                .map(|(col, &(_, desc))| tpcds_storage::SortKey { col, desc })
                .collect();
            let (table, ss) = match plan {
                Plan::TopN { n, .. } => tpcds_storage::par_topn(&b, &skeys, *n as usize, threads),
                _ => tpcds_storage::par_sort(&b, &skeys, threads),
            };
            check_err(&b)?;
            ctx.record_sort(node, &ss);
            Ok(Batch::new(Arc::new(table)))
        }
        Plan::Limit { input, n } => {
            columnar();
            let rows = take(input, *n as usize, ctx, outer)?;
            Ok(Batch::from_rows(plan.width(), &rows))
        }
        Plan::CteRef { id, plan: body, .. } => {
            columnar();
            if let Some(b) = ctx.cte_cache.lock().get(id) {
                return Ok(b.clone());
            }
            let mut b = batch(body, ctx, outer)?;
            if b.pred.is_some() {
                // The body runs once: force its pending predicate here
                // rather than once per reference.
                b = Batch::new(dense(b, node, ctx)?);
            }
            ctx.cte_cache.lock().insert(*id, b.clone());
            Ok(b)
        }
        Plan::Prefix { input, keep } => {
            columnar();
            let visible: Vec<usize> = (0..*keep).collect();
            Ok(batch(input, ctx, outer)?.project(&visible))
        }
        Plan::UnionAll { left, right } => {
            columnar();
            // The left side runs, and raises, before the right one.
            let l = dense(batch(left, ctx, outer)?, node, ctx)?;
            let r = dense(batch(right, ctx, outer)?, node, ctx)?;
            Ok(Batch::new(Arc::new(l.concat(&r))))
        }
        Plan::Window { input, calls } => {
            // Each call's argument, partition keys and order keys, in turn.
            let exprs = plan.exprs();
            if !exprs.iter().all(|e| compilable(e, ctx)) {
                return adapt(plan, ctx, outer, reason::EXPR_UNSUPPORTED);
            }
            columnar();
            let (b, cols) = key_columns(batch(input, ctx, outer)?, &exprs, true, node, ctx)?;
            let mut cols = cols.into_iter();
            let specs: Vec<_> = (calls.iter())
                .map(|c| {
                    let arg = c.arg.as_ref().and_then(|_| cols.next());
                    let desc =
                        (c.partition.iter().map(|_| false)).chain(c.order.iter().map(|k| k.1));
                    let keys = desc.map(|desc| tpcds_storage::SortKey {
                        col: cols.next().expect("a key column"),
                        desc,
                    });
                    tpcds_storage::WinSpec {
                        func: c.func,
                        arg,
                        keys: keys.collect(),
                        partition: c.partition.len(),
                    }
                })
                .collect();
            let res = tpcds_storage::par_window(&b, &specs, threads);
            check_err(&b)?;
            let (table, ss) = res.map_err(storage_err)?;
            ctx.record_sort(node, &ss);
            Ok(Batch::new(Arc::new(table)))
        }
    }
}

fn join_type(kind: JoinKind) -> tpcds_storage::JoinType {
    match kind {
        JoinKind::Inner => tpcds_storage::JoinType::Inner,
        JoinKind::Left => tpcds_storage::JoinType::Left,
    }
}

/// Both inputs of a hash join as batches, with the keys and the residual
/// compiled against their physical columns (the residual against the
/// combined `probe.table ++ build.table` row).
struct JoinSides {
    probe: Batch,
    probe_keys: Vec<usize>,
    build: Batch,
    build_keys: Vec<usize>,
    residual: Option<tpcds_storage::Expr>,
}

impl JoinSides {
    /// Combined visible column → combined physical column.
    fn phys(&self, c: usize) -> usize {
        match c.checked_sub(self.probe.width()) {
            None => self.probe.phys(c),
            Some(b) => self.probe.table.width() + self.build.phys(b),
        }
    }

    /// Pending-predicate errors, in the row path's evaluation order: the
    /// probe side materializes first, then the build side; the residual
    /// (the kernel's own result) comes after both.
    fn check_err(&self) -> Result<()> {
        check_err(&self.probe)?;
        check_err(&self.build)
    }
}

/// Executes a hash join's inputs for the join kernels, each side's keys
/// as physical columns ([`key_columns`], computed for `node`). `Err(reason)`
/// — returned before either input runs — when a key or the residual has
/// no kernel form.
fn join_sides(
    join: &Plan,
    node: usize,
    ctx: &ExecCtx<'_>,
    outer: Option<&[Value]>,
) -> Result<Routed<JoinSides>> {
    let Plan::HashJoin {
        left,
        right,
        left_keys,
        right_keys,
        residual,
        ..
    } = join
    else {
        unreachable!("join_sides of a {}", join.op_name())
    };
    let exprs = left_keys.iter().chain(right_keys).chain(residual);
    if !exprs.into_iter().all(|e| compilable(e, ctx)) {
        return Ok(Err(reason::EXPR_UNSUPPORTED));
    }
    let side = |p: &Plan, keys: &[BExpr]| {
        let keys: Vec<&BExpr> = keys.iter().collect();
        key_columns(batch(p, ctx, outer)?, &keys, true, node, ctx)
    };
    let (probe, probe_keys) = side(left, left_keys)?;
    let (build, build_keys) = side(right, right_keys)?;
    let mut j = JoinSides {
        probe,
        probe_keys,
        build,
        build_keys,
        residual: None,
    };
    j.residual = (residual.as_ref()).and_then(|r| compile_expr(r, &|c| j.phys(c), Some(ctx)));
    Ok(Ok(j))
}

/// `b` with every key addressable as a physical column — what the sort,
/// aggregate and join kernels take. A plain column key is the column
/// behind it; any other key, which [`compilable`] accepted, becomes a
/// hidden column computed by the projection kernel (typed, so a computed
/// sort key keeps the u64 key encoding) after the visible columns, which
/// the result keeps visible when `carry` (a sort, a join side) and drops
/// otherwise (an aggregate reads nothing but its keys).
fn key_columns(
    b: Batch,
    keys: &[&BExpr],
    carry: bool,
    node: usize,
    ctx: &ExecCtx<'_>,
) -> Result<(Batch, Vec<usize>)> {
    if let Some(cols) = plain_cols(keys.iter().copied()) {
        let cols = cols.into_iter().map(|c| b.phys(c)).collect();
        return Ok((b, cols));
    }
    let visible: Vec<usize> = (0..if carry { b.width() } else { 0 }).collect();
    let mut exprs: Vec<_> = (visible.iter())
        .map(|&c| tpcds_storage::Expr::Col(b.phys(c)))
        .collect();
    let cols = (keys.iter())
        .map(|k| match k {
            BExpr::Col(c) if *c < visible.len() => *c,
            k => {
                exprs.push(compile_over(&b, k, ctx));
                exprs.len() - 1
            }
        })
        .collect();
    let table = project_table(&b, &exprs, node, ctx)?;
    Ok((Batch::new(table).project(&visible), cols))
}

/// `b`'s visible qualifying rows as a table of their own: the table
/// itself when nothing is pending, else one pass of the projection kernel.
fn dense(b: Batch, node: usize, ctx: &ExecCtx<'_>) -> Result<Arc<tpcds_storage::ColumnTable>> {
    if b.pred.is_none() && b.proj.is_none() {
        return Ok(b.table);
    }
    let cols: Vec<_> = b.cols().into_iter().map(tpcds_storage::Expr::Col).collect();
    project_table(&b, &cols, node, ctx)
}

/// `exprs` over `b`'s qualifying rows, as a fresh table (the projection
/// kernel), with `b`'s deferred predicate errors first.
fn project_table(
    b: &Batch,
    exprs: &[tpcds_storage::Expr],
    node: usize,
    ctx: &ExecCtx<'_>,
) -> Result<Arc<tpcds_storage::ColumnTable>> {
    let res = tpcds_storage::par_project_table(b, exprs, ctx.threads());
    check_err(b)?;
    let (table, cs, es) = res.map_err(storage_err)?;
    ctx.record_columnar(node, &cs);
    ctx.record_expr(node, &es);
    Ok(Arc::new(table))
}

/// The hash index a scan can probe instead of reading the table: a
/// `Col(i) = <row-independent expr>` conjunct over an indexed column. The
/// probe side may be a literal or a correlated outer reference — the
/// latter is what makes per-outer-row EXISTS/IN subplans cheap. Force
/// mode never probes, so tests exercise the kernels.
fn index_for<'t>(
    t: &'t crate::catalog::Table,
    filter: Option<&BExpr>,
    ctx: &ExecCtx<'_>,
) -> Option<(&'t crate::catalog::Index, BExpr)> {
    let f = filter.filter(|_| ctx.opts.columnar != ColumnarMode::Force)?;
    index_probe_key(f).and_then(|(col, key)| Some((t.indexes.get(&col)?, key)))
}

/// Runs the [`index_for`] probe: the matching rows that pass the whole
/// filter, or `None` when no probe applies.
fn index_probe(
    t: &crate::catalog::Table,
    filter: Option<&BExpr>,
    ctx: &ExecCtx<'_>,
    outer: Option<&[Value]>,
) -> Result<Option<Vec<Row>>> {
    let Some((idx, key_expr)) = index_for(t, filter, ctx) else {
        return Ok(None);
    };
    let key = key_expr.eval(&[], ctx, outer)?;
    let mut out = Vec::new();
    if !key.is_null() {
        for id in idx.lookup(t.data(), &key) {
            let row = t.data().row(id);
            if filter.map_or(Ok(true), |f| f.matches(&row, ctx, outer))? {
                out.push(row);
            }
        }
    }
    Ok(Some(out))
}

/// The serial scan operator. Virtual `sys.*` tables materialize live
/// state at scan time; they bypass the snapshot (introspection reads the
/// present, not the pinned version). Base tables try the index probe,
/// then decode row after row — the filter's columns first, the rest only
/// for a row that passes — until `sink` declines. `route` is overwritten
/// when the scan did not run as the caller's `serial[why]`.
fn scan_rows(
    table: &str,
    filter: Option<&BExpr>,
    ctx: &ExecCtx<'_>,
    outer: Option<&[Value]>,
    route: &mut (RoutePath, Option<&'static str>),
    sink: Sink<'_>,
) -> Result<()> {
    let keep = |row: &[Value]| filter.map_or(Ok(true), |f| f.matches(row, ctx, outer));
    if let Some(rows) = crate::sys::rows(ctx.db, table) {
        *route = (RoutePath::Serial, Some(reason::SYS_VIRTUAL));
        for row in rows {
            if keep(&row)? && !sink(row)? {
                break;
            }
        }
        return Ok(());
    }
    let t = ctx.table(table)?;
    if let Some(rows) = index_probe(&t, filter, ctx, outer)? {
        *route = (RoutePath::Index, None);
        return feed(rows, sink);
    }
    let mut cols = Vec::new();
    if let Some(f) = filter {
        f.visit_columns(&mut |c| cols.push(c));
    }
    t.data().scan_rows(&cols, keep, sink)
}

/// The serial row interpreter: `plan`'s operator over its children's
/// rows ([`execute`]d — by recursion under `ColumnarMode::Off`, from
/// their batches under [`adapt`]), recorded as `route=serial[why]`. This
/// is the oracle; it has no routing of its own beyond the scan's index
/// probe.
///
/// Output is pushed into `sink`. The row-at-a-time operators — `Scan`,
/// `Filter`, plain-column `Project`, `Prefix` — [`stream`] their input
/// and stop the moment the sink declines; every other operator runs to
/// completion and [`feed`]s its result.
fn serial_node(
    plan: &Plan,
    ctx: &ExecCtx<'_>,
    outer: Option<&[Value]>,
    why: &'static str,
    sink: Sink<'_>,
) -> Result<()> {
    let child = |p: &Plan| execute(p, ctx, outer);
    let mut route = (RoutePath::Serial, Some(why));
    match plan {
        Plan::Scan { table, filter, .. } => {
            scan_rows(table, filter.as_ref(), ctx, outer, &mut route, sink)
        }
        Plan::Filter { input, predicate } => stream(input, ctx, outer, &mut |row| {
            Ok(!predicate.matches(&row, ctx, outer)? || sink(row)?)
        }),
        Plan::Project { input, exprs } => match plain_cols(exprs) {
            Some(cols) => stream(input, ctx, outer, &mut |row| {
                sink(cols.iter().map(|&c| row[c].clone()).collect())
            }),
            // Computed expressions run (and may fail) on every input row,
            // as `par_project_table` does.
            None => feed(
                (child(input)?.iter())
                    .map(|row| exprs.iter().map(|e| e.eval(row, ctx, outer)).collect())
                    .collect::<Result<Vec<Row>>>()?,
                sink,
            ),
        },
        Plan::HashJoin {
            left,
            right,
            kind,
            left_keys,
            right_keys,
            residual,
        } => feed(
            hash_join(
                child(left)?,
                child(right)?,
                right.width(),
                *kind,
                left_keys,
                right_keys,
                residual.as_ref(),
                ctx,
                outer,
            )?,
            sink,
        ),
        Plan::Aggregate {
            input,
            groups,
            aggs,
        } => feed(aggregate(child(input)?, groups, aggs, ctx, outer)?, sink),
        Plan::Window { input, calls } => feed(window(child(input)?, calls, ctx, outer)?, sink),
        Plan::Sort { input, keys } => feed(sort_rows(child(input)?, keys, ctx, outer)?, sink),
        Plan::TopN { input, keys, n } => {
            let rows = sort_rows(child(input)?, keys, ctx, outer)?;
            feed(rows.into_iter().take(*n as usize), sink)
        }
        Plan::Limit { input, n } => feed(take(input, *n as usize, ctx, outer)?, sink),
        Plan::UnionAll { left, right } => feed(child(left)?.into_iter().chain(child(right)?), sink),
        Plan::CteRef { id, plan: body, .. } => {
            // Bind before matching: the cache lock must not be held while
            // the body (which may reference other CTEs) executes.
            let hit = ctx.cte_rows.lock().get(id).cloned();
            let rows = match hit {
                Some(rows) => rows,
                None => {
                    let rows = Arc::new(child(body)?);
                    ctx.cte_rows.lock().insert(*id, Arc::clone(&rows));
                    rows
                }
            };
            feed(rows.iter().cloned(), sink)
        }
        Plan::Prefix { input, keep } => stream(input, ctx, outer, &mut |mut row| {
            row.truncate(*keep);
            sink(row)
        }),
    }?;
    let node = plan as *const Plan as usize;
    ctx.record_route(node, plan.op_name(), route.0, route.1);
    Ok(())
}

/// Maps the engine's comparison operator onto the kernel vocabulary.
fn cmp_kind(op: crate::expr::CmpOp) -> tpcds_storage::CmpKind {
    use tpcds_storage::CmpKind;
    match op {
        crate::expr::CmpOp::Eq => CmpKind::Eq,
        crate::expr::CmpOp::Ne => CmpKind::Ne,
        crate::expr::CmpOp::Lt => CmpKind::Lt,
        crate::expr::CmpOp::Le => CmpKind::Le,
        crate::expr::CmpOp::Gt => CmpKind::Gt,
        crate::expr::CmpOp::Ge => CmpKind::Ge,
    }
}

/// Compiles a bound scalar expression — a projection, a sort key, a
/// filter, a join residual alike — to the vectorized kernel AST
/// ([`tpcds_storage::Expr`]), column `c` becoming `phys(c)`. The kernels
/// share the row path's scalar semantics ([`tpcds_types::scalar`]), so
/// everything compiles that does not depend on a row the kernel cannot see.
/// A subquery that reads no outer row does not: it is evaluated once per
/// statement, through its memo, and its result compiled in — a
/// row-independent subtree becomes the literal the interpreter computes for
/// it (so an untaken CASE arm's subquery never runs), `x IN (subquery)` and
/// a keyed `EXISTS` become a probe of the set their body produced. `None` =
/// stay on the row path: an outer-column reference, any other correlated
/// subquery, or a subquery whose evaluation raised.
fn compile_expr(
    e: &BExpr,
    phys: &impl Fn(usize) -> usize,
    ctx: Option<&ExecCtx<'_>>,
) -> Option<tpcds_storage::Expr> {
    use crate::expr::key_set;
    use tpcds_storage::{Expr as X, SetTest};
    // Carried only along paths that lead to a subquery.
    let ctx = ctx.filter(|_| e.has_subquery());
    if let Some(ctx) = ctx.filter(|_| e.is_constant()) {
        return e.eval(&[], ctx, None).ok().map(X::Lit);
    }
    let c = |x: &BExpr| compile_expr(x, phys, ctx).map(Box::new);
    let all = |xs: &[BExpr]| -> Option<Vec<X>> {
        xs.iter().map(|x| compile_expr(x, phys, ctx)).collect()
    };
    Some(match e {
        BExpr::Col(i) => X::Col(phys(*i)),
        BExpr::Lit(v) => X::Lit(v.clone()),
        BExpr::Cmp(op, l, r) => X::Cmp(cmp_kind(*op), c(l)?, c(r)?),
        BExpr::And(l, r) => X::And(c(l)?, c(r)?),
        BExpr::Or(l, r) => X::Or(c(l)?, c(r)?),
        BExpr::Not(x) => X::Not(c(x)?),
        BExpr::Arith(op, l, r) => X::Arith(*op, c(l)?, c(r)?),
        BExpr::Neg(x) => X::Neg(c(x)?),
        BExpr::IsNull(x, negated) => X::IsNull(c(x)?, *negated),
        BExpr::Like(x, p, negated) => X::Like(c(x)?, c(p)?, *negated),
        BExpr::InList(x, list, negated) => X::InList(c(x)?, all(list)?, *negated),
        BExpr::Between(x, lo, hi, negated) => X::Between(c(x)?, c(lo)?, c(hi)?, *negated),
        BExpr::Case {
            operand,
            branches,
            else_branch,
        } => X::Case {
            operand: match operand {
                Some(o) => Some(c(o)?),
                None => None,
            },
            branches: branches
                .iter()
                .map(|(w, t)| Some((compile_expr(w, phys, ctx)?, compile_expr(t, phys, ctx)?)))
                .collect::<Option<Vec<_>>>()?,
            else_branch: match else_branch {
                Some(eb) => Some(c(eb)?),
                None => None,
            },
        },
        BExpr::Cast(x, ty) => X::Cast(c(x)?, *ty),
        BExpr::Func(f, args) => X::Func(*f, all(args)?),
        BExpr::Concat(l, r) => X::Concat(c(l)?, c(r)?),
        BExpr::InSubquery(x, sub, negated) if sub.uncorrelated() => {
            let set = sub.once(ctx?, key_set).ok()?;
            X::InSet(vec![*c(x)?], set, SetTest::In, *negated)
        }
        BExpr::Exists(_, negated, Some(keyed)) => {
            let set = keyed.once(ctx?, key_set).ok()?;
            let keys = keyed.outer_refs.iter().map(|&k| X::Col(phys(k)));
            X::InSet(keys.collect(), set, SetTest::Exists, *negated)
        }
        BExpr::OuterCol(_)
        | BExpr::ScalarSubquery(..)
        | BExpr::InSubquery(..)
        | BExpr::Exists(..) => return None,
    })
}

/// The kernels' calls for `aggs`. An argument's column is its position
/// among the aggregate's keys — the `groups` group keys, then the
/// arguments — which may be any compilable expression ([`key_columns`]).
fn agg_specs(groups: usize, aggs: &[AggCall]) -> Vec<tpcds_storage::AggSpec> {
    let mut args = groups..;
    (aggs.iter())
        .map(|a| tpcds_storage::AggSpec {
            kind: a.func,
            col: a.arg.as_ref().and_then(|_| args.next()),
        })
        .collect()
}

/// Finds an indexable `Col = expr` conjunct where `expr` is independent of
/// the scanned row (no local column references, no subqueries).
fn index_probe_key(e: &BExpr) -> Option<(usize, BExpr)> {
    fn row_independent(e: &BExpr) -> bool {
        if e.has_subquery() {
            return false;
        }
        let mut any = false;
        e.visit_columns(&mut |_| any = true);
        !any
    }
    match e {
        BExpr::Cmp(crate::expr::CmpOp::Eq, l, r) => match (l.as_ref(), r.as_ref()) {
            (BExpr::Col(i), v) if row_independent(v) => Some((*i, v.clone())),
            (v, BExpr::Col(i)) if row_independent(v) => Some((*i, v.clone())),
            _ => None,
        },
        BExpr::And(l, r) => index_probe_key(l).or_else(|| index_probe_key(r)),
        _ => None,
    }
}

#[allow(clippy::too_many_arguments)]
fn hash_join(
    left_rows: Vec<Row>,
    right_rows: Vec<Row>,
    right_width: usize,
    kind: JoinKind,
    left_keys: &[BExpr],
    right_keys: &[BExpr],
    residual: Option<&BExpr>,
    ctx: &ExecCtx<'_>,
    outer: Option<&[Value]>,
) -> Result<Vec<Row>> {
    // Build on the right side.
    let mut table: HashMap<Vec<Value>, Vec<usize>> = HashMap::with_capacity(right_rows.len());
    'build: for (i, row) in right_rows.iter().enumerate() {
        let mut key = Vec::with_capacity(right_keys.len());
        for k in right_keys {
            let v = k.eval(row, ctx, outer)?;
            if v.is_null() {
                continue 'build; // NULL keys never join
            }
            key.push(v);
        }
        table.entry(key).or_default().push(i);
    }
    let mut out = Vec::new();
    'probe: for lrow in &left_rows {
        let mut key = Vec::with_capacity(left_keys.len());
        for k in left_keys {
            let v = k.eval(lrow, ctx, outer)?;
            if v.is_null() {
                if kind == JoinKind::Left {
                    let mut row = lrow.clone();
                    row.extend(std::iter::repeat_n(Value::Null, right_width));
                    out.push(row);
                }
                continue 'probe;
            }
            key.push(v);
        }
        let mut matched = false;
        if let Some(matches) = table.get(&key) {
            for &i in matches {
                let mut row = lrow.clone();
                row.extend(right_rows[i].iter().cloned());
                let keep = match residual {
                    Some(p) => p.matches(&row, ctx, outer)?,
                    None => true,
                };
                if keep {
                    matched = true;
                    out.push(row);
                }
            }
        }
        if !matched && kind == JoinKind::Left {
            let mut row = lrow.clone();
            row.extend(std::iter::repeat_n(Value::Null, right_width));
            out.push(row);
        }
    }
    Ok(out)
}

// ---------- aggregation ----------

/// The serial hash aggregate: per group, the kernels' own accumulators
/// folded one value at a time. Without group keys there is exactly one
/// row, empty input included.
fn aggregate(
    rows: Vec<Row>,
    groups: &[BExpr],
    aggs: &[AggCall],
    ctx: &ExecCtx<'_>,
    outer: Option<&[Value]>,
) -> Result<Vec<Row>> {
    use tpcds_storage::agg::PAcc;
    let fresh = || aggs.iter().map(|a| PAcc::new(a.func)).collect::<Vec<_>>();
    let mut map: HashMap<Vec<Value>, Vec<PAcc>> = HashMap::new();
    if groups.is_empty() {
        map.insert(Vec::new(), fresh());
    }
    for row in &rows {
        let key: Vec<Value> = (groups.iter())
            .map(|g| g.eval(row, ctx, outer))
            .collect::<Result<_>>()?;
        let accs = map.entry(key).or_insert_with(fresh);
        for (a, acc) in aggs.iter().zip(accs) {
            let v = a
                .arg
                .as_ref()
                .map(|e| e.eval(row, ctx, outer))
                .transpose()?;
            acc.update(v.as_ref()).map_err(storage_err)?;
        }
    }
    let finish = |(mut row, accs): (Row, Vec<PAcc>)| {
        row.extend(accs.into_iter().map(PAcc::finish));
        row
    };
    Ok(map.into_iter().map(finish).collect())
}

// ---------- window functions ----------

/// The serial window operator: `rows` in input order, each with one value
/// appended per call.
fn window(
    mut rows: Vec<Row>,
    calls: &[WindowCall],
    ctx: &ExecCtx<'_>,
    outer: Option<&[Value]>,
) -> Result<Vec<Row>> {
    let columns = (calls.iter())
        .map(|call| window_column(&rows, call, ctx, outer))
        .collect::<Result<Vec<_>>>()?;
    for (i, row) in rows.iter_mut().enumerate() {
        row.extend(columns.iter().map(|col| col[i].clone()));
    }
    Ok(rows)
}

/// One call's value for every row: the rows partitioned by hash, each
/// partition stably sorted by the order keys and walked one peer group
/// (rows with equal order keys) at a time — ranks from positions,
/// aggregates a running [`PAcc`](tpcds_storage::agg::PAcc) finished once
/// per peer group, which without ORDER BY is the whole partition.
fn window_column(
    rows: &[Row],
    call: &WindowCall,
    ctx: &ExecCtx<'_>,
    outer: Option<&[Value]>,
) -> Result<Vec<Value>> {
    use tpcds_storage::agg::PAcc;
    let mut partitions: HashMap<Vec<Value>, Vec<(Vec<Value>, usize)>> = HashMap::new();
    for (i, row) in rows.iter().enumerate() {
        let eval = |e: &BExpr| e.eval(row, ctx, outer);
        let order = (call.order.iter())
            .map(|(e, _)| eval(e))
            .collect::<Result<_>>()?;
        let key = call.partition.iter().map(eval).collect::<Result<_>>()?;
        partitions.entry(key).or_default().push((order, i));
    }
    let mut result = vec![Value::Null; rows.len()];
    for (_, mut part) in partitions {
        part.sort_by(|a, b| cmp_keys(&a.0, &b.0, &call.order));
        let (mut acc, mut at, mut dense) = (None, 0, 0);
        for peers in part.chunk_by(|a, b| a.0 == b.0) {
            dense += 1;
            let value = match call.func {
                WinFunc::Agg(kind) => {
                    let acc = acc.get_or_insert_with(|| PAcc::new(kind));
                    for (_, i) in peers {
                        let v = (call.arg.as_ref().map(|e| e.eval(&rows[*i], ctx, outer)))
                            .transpose()?;
                        acc.update(v.as_ref()).map_err(storage_err)?;
                    }
                    acc.clone().finish()
                }
                WinFunc::Rank => Value::Int(at as i64 + 1),
                WinFunc::DenseRank => Value::Int(dense),
                WinFunc::RowNumber => Value::Null,
            };
            for (j, (_, i)) in peers.iter().enumerate() {
                result[*i] = match call.func {
                    WinFunc::RowNumber => Value::Int((at + j) as i64 + 1),
                    _ => value.clone(),
                };
            }
            at += peers.len();
        }
    }
    Ok(result)
}

// ---------- sorting ----------

/// Sorts rows stably by the given keys.
///
/// NULL ordering matches [`cmp_keys`] / [`Value::sort_cmp`]: NULL ranks
/// below every non-NULL value, so NULLs sort **first on ascending keys
/// and last on descending keys** (descending reverses the whole
/// comparison, rank included). The parallel kernels in `tpcds-storage`
/// pin the same placement, so every sort path agrees byte-for-byte.
pub fn sort_rows(
    rows: Vec<Row>,
    keys: &[(BExpr, bool)],
    ctx: &ExecCtx<'_>,
    outer: Option<&[Value]>,
) -> Result<Vec<Row>> {
    // Fast path: every key is a plain column reference — compare row
    // slots in place (still stable) instead of materializing a key vector
    // per row through the expression evaluator.
    let plain: Option<Vec<(usize, bool)>> = keys
        .iter()
        .map(|(e, desc)| match e {
            BExpr::Col(i) => Some((*i, *desc)),
            _ => None,
        })
        .collect();
    if let Some(cols) = plain {
        let mut rows = rows;
        rows.sort_by(|a, b| {
            for &(c, desc) in &cols {
                let ord = a[c].sort_cmp(&b[c]);
                let ord = if desc { ord.reverse() } else { ord };
                if ord != std::cmp::Ordering::Equal {
                    return ord;
                }
            }
            std::cmp::Ordering::Equal
        });
        return Ok(rows);
    }
    let mut keyed: Vec<(Vec<Value>, Row)> = Vec::with_capacity(rows.len());
    for row in rows {
        let mut k = Vec::with_capacity(keys.len());
        for (e, _) in keys {
            k.push(e.eval(&row, ctx, outer)?);
        }
        keyed.push((k, row));
    }
    keyed.sort_by(|a, b| cmp_keys(&a.0, &b.0, keys));
    Ok(keyed.into_iter().map(|(_, r)| r).collect())
}

fn cmp_keys<T>(a: &[Value], b: &[Value], keys: &[(T, bool)]) -> std::cmp::Ordering {
    for (i, (_, desc)) in keys.iter().enumerate() {
        let ord = a[i].sort_cmp(&b[i]);
        let ord = if *desc { ord.reverse() } else { ord };
        if ord != std::cmp::Ordering::Equal {
            return ord;
        }
    }
    std::cmp::Ordering::Equal
}
