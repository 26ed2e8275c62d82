//! Plan execution. Operators exchange lazy column batches
//! ([`tpcds_storage::Batch`]: a table, a pending predicate, a pending
//! projection) and rows are materialized once, at the result edge
//! ([`execute`]). Every node has a batch kernel and every expression a
//! kernel form ([`Compiler`]): a subquery runs before the kernel that
//! reads it, once per distinct tuple of the columns it reads among the
//! rows that reach it. The serial row interpreter ([`serial_node`]) is
//! kept as the oracle, and is what [`ColumnarMode::Off`] runs end to end.
//! It pushes rows into a [`Sink`] that can decline more, which is how a
//! `LIMIT` stops its input early; the batch executor stops at the same row
//! ([`take`]).

use crate::catalog::Database;
use crate::error::{EngineError, Result};
use crate::expr::{BExpr, CmpKind};
use crate::plan::{AggCall, Plan, WindowCall};
use crate::sync::Mutex;
use std::cell::{OnceCell, RefCell};
use std::collections::HashMap;
use std::convert::Infallible;
use std::ops::Range;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};
use tpcds_storage::{Batch, ColumnTable, JoinType, KernelStats, WinFunc};
use tpcds_types::{DataType, Row, Value};

/// Which execution path an operator actually took. Ordered by how
/// accelerated the path is, so folding multiple calls keeps the best.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum RoutePath {
    /// Not executed / no routing decision recorded yet.
    #[default]
    Unset,
    /// The serial row interpreter.
    Serial,
    /// Batch in, batch out: a morsel-driven kernel, or a lazy composition
    /// that a later kernel evaluates.
    Columnar,
}

impl RoutePath {
    /// Stable lower-case label (`route=` in EXPLAIN ANALYZE, `route.*`
    /// counter suffix).
    pub fn as_str(self) -> &'static str {
        match self {
            RoutePath::Unset => "unset",
            RoutePath::Serial => "serial",
            RoutePath::Columnar => "columnar",
        }
    }
}

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
    /// Times the node was executed.
    pub calls: u64,
    /// Total rows produced across all calls.
    pub rows_out: u64,
    /// Total wall-clock time across all calls (inclusive of inputs).
    pub elapsed: Duration,
    /// Peak live-memory growth across all calls, bytes (inclusive of
    /// inputs). 0 unless the process installed the counting allocator.
    pub mem_peak: u64,
    /// What the storage kernels did for this node, merged over its calls
    /// ([`KernelStats::merge`]).
    pub kernel: KernelStats,
}

/// Per-node actuals keyed by plan-node address — stable for the lifetime
/// of the `Bound` statement that owns the tree.
pub type StatsMap = HashMap<usize, OpStats>;

/// Which executor runs the statement.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub enum ColumnarMode {
    /// The serial row interpreter end to end — the differential oracle.
    Off,
    /// Batch execution. The default.
    #[default]
    Auto,
}

/// Per-statement execution knobs.
#[derive(Debug, Clone, Copy, Default)]
pub struct ExecOptions {
    /// The executor.
    pub columnar: ColumnarMode,
    /// Worker count for morsel-driven scans; `None` defers to
    /// [`tpcds_storage::effective_threads`] (`TPCDS_THREADS` /
    /// `available_parallelism`).
    pub threads: Option<usize>,
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

    /// Records which path an operator took in the node's actuals.
    fn record_route(&self, node: usize, route: RoutePath) {
        self.fold(node, |s| s.route = s.route.max(route));
    }

    /// Folds one kernel call's numbers into `node`'s actuals.
    fn record(&self, node: usize, ks: &KernelStats) {
        self.fold(node, |s| s.kernel.merge(ks));
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
/// [`batch_node`] and materialize its batch once.
pub fn execute(plan: &Plan, ctx: &ExecCtx<'_>, outer: Option<&[Value]>) -> Result<Vec<Row>> {
    if ctx.opts.columnar != ColumnarMode::Off {
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

/// Feeds `plan`'s rows, in order, to `sink` until it declines — one node
/// of the interpreter, children included. Rows after the one the sink
/// declined at are never evaluated, so they cannot raise errors.
fn stream(plan: &Plan, ctx: &ExecCtx<'_>, outer: Option<&[Value]>, sink: Sink<'_>) -> Result<()> {
    let run = || {
        let mut rows = 0;
        let mut counting = |row| {
            rows += 1;
            sink(row)
        };
        serial_node(plan, ctx, outer, &mut counting)?;
        Ok(rows)
    };
    observed(plan, ctx, run, |&rows| rows).map(drop)
}

/// One node of the batch executor, children included. A node whose
/// batch carries a pending predicate reports its rows later: whichever
/// kernel evaluates the predicate counts what it admits (so a `LIMIT`
/// that stops early reports the rows actually read).
fn batch(plan: &Plan, ctx: &ExecCtx<'_>, outer: Option<&[Value]>) -> Result<Batch> {
    chain(plan, ctx, outer, None)
}

/// [`batch`]; with `defer`, the lookups compiled for the row-at-a-time
/// nodes at the top of `plan` (`Scan`, `Filter`, plain `Project`) are
/// left empty and their fills queued there, for [`take`].
fn chain(
    plan: &Plan,
    ctx: &ExecCtx<'_>,
    outer: Option<&[Value]>,
    defer: Option<&Fills>,
) -> Result<Batch> {
    let pending = |b: &Batch| b.pred.as_ref().map_or(b.table.rows as u64, |_| 0);
    let mut b = observed(plan, ctx, || batch_node(plan, ctx, outer, defer), pending)?;
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
    let (rows, ks) = tpcds_storage::par_filter(&b, ctx.threads());
    check_err(&b)?;
    if b.pred.is_some() {
        ctx.record(plan as *const Plan as usize, &ks);
    }
    Ok(rows)
}

/// The first `n` rows of `plan`, which stops there (the batch `LIMIT`; the
/// interpreter's stops pulling). The row-at-a-time nodes under the limit
/// are one lazy batch, scanned in row order. A lookup among them fills range by range ahead of
/// the scan, each range no longer than the rows still wanted: every row a
/// body runs for is one the interpreter reads too. Rows past the stopping
/// row are never evaluated ([`tpcds_storage::scan_range`]). The rows come
/// back as a table in the declared types of `plan`'s columns; `LIMIT 0`
/// runs nothing, and its empty columns are typed `Int`.
fn take(plan: &Plan, n: usize, ctx: &ExecCtx<'_>, outer: Option<&[Value]>) -> Result<ColumnTable> {
    let mut rows = Vec::new();
    if n == 0 {
        return Ok(ColumnTable::from_rows(
            vec![DataType::Int; plan.width()],
            &rows,
        ));
    }
    let fills = Fills::default();
    let b = chain(plan, ctx, outer, Some(&fills))?;
    let (fills, end, mut at) = (fills.into_inner(), b.table.id_end(), 0);
    while rows.len() < n && at < end {
        let to = if fills.is_empty() {
            end
        } else {
            end.min(at.saturating_add(n - rows.len()))
        };
        for f in &fills {
            f.fill(at..to, ctx, outer);
        }
        let res = tpcds_storage::scan_range(&b, at..to, |row| {
            rows.push(row);
            Ok::<_, Infallible>(rows.len() < n)
        });
        check_err(&b)?;
        let Ok(ks) = res;
        if b.pred.is_some() {
            ctx.record(plan as *const Plan as usize, &ks);
        }
        at = to;
    }
    let dtypes = b.cols().into_iter().map(|c| b.table.dtypes[c]).collect();
    Ok(ColumnTable::from_rows(dtypes, &rows))
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

/// Compiles `e` for a kernel over `b`'s rows: against the physical
/// columns behind `b`'s visible row.
fn compile_over(
    b: &Batch,
    e: &BExpr,
    ctx: &ExecCtx<'_>,
    outer: Option<&[Value]>,
    defer: Option<&Fills>,
) -> Result<tpcds_storage::Expr> {
    let (phys, rows) = (&|c| b.phys(c), &|| Ok(b.peek()));
    Compiler {
        ctx,
        outer,
        phys,
        rows,
        defer,
        reach: true,
    }
    .compile(e, &[])
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
/// the segments untouched with its emitted columns as the pending
/// projection (a `sys.*` table its rows of the moment, typed as
/// [`crate::sys::columns`] declares), a `Filter` ANDs into the pending
/// predicate, a plain-column `Project` composes the pending
/// projection; joins, aggregates, windows, sorts and limits hand whatever
/// batch their child produced to a morsel kernel.
fn batch_node(
    plan: &Plan,
    ctx: &ExecCtx<'_>,
    outer: Option<&[Value]>,
    defer: Option<&Fills>,
) -> Result<Batch> {
    let node = plan as *const Plan as usize;
    let threads = ctx.threads();
    let columnar = || ctx.record_route(node, RoutePath::Columnar);
    match plan {
        Plan::Scan {
            table,
            cols,
            table_width,
            filter,
        } => {
            let b = match crate::sys::table(ctx.db, table) {
                Some(t) => Batch::new(Arc::new(t)),
                None => Batch::new(Arc::clone(ctx.table(table)?.data())),
            };
            columnar();
            let f = (filter.as_ref()).map(|f| compile_over(&b, f, ctx, outer, defer));
            let b = match f.transpose()? {
                Some(f) => b.filter(f),
                None => b,
            };
            Ok(match cols.iter().copied().eq(0..*table_width) {
                true => b,
                false => b.project(cols),
            })
        }
        Plan::Filter { input, predicate } => {
            columnar();
            let b = chain(input, ctx, outer, defer)?;
            let pred = compile_over(&b, predicate, ctx, outer, defer)?;
            Ok(b.filter(pred))
        }
        Plan::Project { input, exprs } => {
            columnar();
            if let Some(cols) = plain_cols(exprs) {
                return Ok(chain(input, ctx, outer, defer)?.project(&cols));
            }
            let b = batch(input, ctx, outer)?;
            let cexprs = (exprs.iter())
                .map(|e| compile_over(&b, e, ctx, outer, None))
                .collect::<Result<Vec<_>>>()?;
            Ok(Batch::new(project_table(&b, &cexprs, node, ctx)?))
        }
        Plan::HashJoin { kind, .. } => {
            columnar();
            let j = join_sides(plan, node, ctx, outer)?;
            let res = tpcds_storage::par_hash_join(
                &j.probe,
                &j.probe_keys,
                &j.build,
                &j.build_keys,
                *kind,
                j.residual.as_ref(),
                threads,
            );
            j.check_err()?;
            let (table, ks) = res.map_err(storage_err)?;
            ctx.record(node, &ks);
            Ok(Batch::new(Arc::new(table)))
        }
        Plan::Aggregate {
            input,
            groups,
            aggs,
        } => {
            columnar();
            let specs = agg_specs(groups.len(), aggs);
            let args = aggs.iter().filter_map(|a| a.arg.as_ref());
            let keys: Vec<&BExpr> = groups.iter().chain(args).collect();
            let input = batch(input, ctx, outer)?;
            let (b, cols) = key_columns(input, &keys, false, node, ctx, outer)?;
            // The calls with their key positions mapped to key columns.
            let specs: Vec<_> = (specs.iter())
                .map(|&s| tpcds_storage::AggSpec {
                    col: s.col.map(|k| cols[k]),
                    ..s
                })
                .collect();
            let res = tpcds_storage::par_aggregate(&b, &cols[..groups.len()], &specs, threads);
            // Deferred predicate errors outrank aggregate errors: the row
            // path filters before it folds.
            check_err(&b)?;
            let (table, ks) = res.map_err(storage_err)?;
            ctx.record(node, &ks);
            Ok(Batch::new(Arc::new(table)))
        }
        Plan::Sort { input, keys } | Plan::TopN { input, keys, .. } => {
            columnar();
            let exprs: Vec<&BExpr> = keys.iter().map(|(e, _)| e).collect();
            let input = batch(input, ctx, outer)?;
            let (b, cols) = key_columns(input, &exprs, true, node, ctx, outer)?;
            let skeys: Vec<_> = (cols.into_iter().zip(keys))
                .map(|(col, &(_, desc))| tpcds_storage::SortKey { col, desc })
                .collect();
            let (table, ks) = match plan {
                Plan::TopN { n, .. } => tpcds_storage::par_topn(&b, &skeys, *n as usize, threads),
                _ => tpcds_storage::par_sort(&b, &skeys, threads),
            };
            check_err(&b)?;
            ctx.record(node, &ks);
            Ok(Batch::new(Arc::new(table)))
        }
        Plan::Limit { input, n } => {
            columnar();
            Ok(Batch::new(Arc::new(take(input, *n as usize, ctx, outer)?)))
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
        Plan::UnionAll { left, right } => {
            columnar();
            // The left side runs, and raises, before the right one.
            let l = dense(batch(left, ctx, outer)?, node, ctx)?;
            let r = dense(batch(right, ctx, outer)?, node, ctx)?;
            Ok(Batch::new(Arc::new(l.concat(&r))))
        }
        Plan::Window { input, calls } => {
            columnar();
            // Each call's argument, partition keys and order keys, in turn.
            let exprs = plan.exprs();
            let input = batch(input, ctx, outer)?;
            let (b, cols) = key_columns(input, &exprs, true, node, ctx, outer)?;
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
            let (table, ks) = res.map_err(storage_err)?;
            ctx.record(node, &ks);
            Ok(Batch::new(Arc::new(table)))
        }
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
/// as physical columns ([`key_columns`], computed for `node`). The
/// residual runs over equi-matched pairs, so that is where a lookup in it
/// gathers its keys: the pairs of an inner join without it, over every
/// physical column of both sides, joined once if a lookup asks.
fn join_sides(
    join: &Plan,
    node: usize,
    ctx: &ExecCtx<'_>,
    outer: Option<&[Value]>,
) -> Result<JoinSides> {
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
    let side = |p: &Plan, keys: &[BExpr]| {
        let keys: Vec<&BExpr> = keys.iter().collect();
        key_columns(batch(p, ctx, outer)?, &keys, true, node, ctx, outer)
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
    if let Some(r) = residual {
        let pairs = OnceCell::new();
        let rows = || {
            let join = || {
                let (probe, build, threads) = (j.probe.peek(), j.build.peek(), ctx.threads());
                let (pk, bk) = (&j.probe_keys, &j.build_keys);
                let inner = JoinType::Inner;
                let res =
                    tpcds_storage::par_hash_join(&probe, pk, &build, bk, inner, None, threads);
                Ok(Batch::new(Arc::new(res.map_err(storage_err)?.0)))
            };
            pairs.get_or_init(join).clone()
        };
        let phys = &|c| j.phys(c);
        j.residual = Some(
            Compiler {
                ctx,
                outer,
                phys,
                rows: &rows,
                defer: None,
                reach: false,
            }
            .compile(r, &[])?,
        );
    }
    Ok(j)
}

/// `b` with every key addressable as a physical column — what the sort,
/// aggregate and join kernels take. A plain column key is the column
/// behind it; any other key becomes a hidden column computed by the
/// projection kernel (typed, so a computed integer key gets an `i64`
/// buffer the kernels read raw) after the visible columns, which the
/// result keeps visible when `carry` (a sort, a join side) and drops
/// otherwise (an aggregate reads nothing but its keys).
fn key_columns(
    b: Batch,
    keys: &[&BExpr],
    carry: bool,
    node: usize,
    ctx: &ExecCtx<'_>,
    outer: Option<&[Value]>,
) -> Result<(Batch, Vec<usize>)> {
    if let Some(cols) = plain_cols(keys.iter().copied()) {
        let cols = cols.into_iter().map(|c| b.phys(c)).collect();
        return Ok((b, cols));
    }
    let visible: Vec<usize> = (0..if carry { b.width() } else { 0 }).collect();
    let mut exprs: Vec<_> = (visible.iter())
        .map(|&c| tpcds_storage::Expr::Col(b.phys(c)))
        .collect();
    let mut cols = Vec::with_capacity(keys.len());
    for k in keys {
        cols.push(match k {
            BExpr::Col(c) if *c < visible.len() => *c,
            k => {
                exprs.push(compile_over(&b, k, ctx, outer, None)?);
                exprs.len() - 1
            }
        });
    }
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
    let (table, ks) = res.map_err(storage_err)?;
    ctx.record(node, &ks);
    Ok(Arc::new(table))
}

/// The `cols` of a table row, in order.
fn emitted(row: Row, cols: &[usize]) -> Row {
    match cols.iter().copied().eq(0..row.len()) {
        true => row,
        false => cols.iter().map(|&c| row[c].clone()).collect(),
    }
}

/// The serial scan operator. Virtual `sys.*` tables materialize live
/// state at scan time; they bypass the snapshot (introspection reads the
/// present, not the pinned version). Base tables decode row after row —
/// the filter's columns first, the rest only for a row that passes —
/// until `sink` declines. Each row is cut to the emitted `cols`.
fn scan_rows(
    table: &str,
    cols: &[usize],
    filter: Option<&BExpr>,
    ctx: &ExecCtx<'_>,
    outer: Option<&[Value]>,
    sink: Sink<'_>,
) -> Result<()> {
    let keep = |row: &[Value]| filter.map_or(Ok(true), |f| f.matches(row, ctx, outer));
    if let Some(rows) = crate::sys::rows(ctx.db, table) {
        for row in rows {
            if keep(&row)? && !sink(emitted(row, cols))? {
                break;
            }
        }
        return Ok(());
    }
    let t = ctx.table(table)?;
    let mut read = Vec::new();
    if let Some(f) = filter {
        f.visit_columns(&mut |c| read.push(c));
    }
    t.data()
        .scan_rows(&read, keep, |row| sink(emitted(row, cols)))
}

/// The serial row interpreter, which [`ColumnarMode::Off`] runs end to
/// end: `plan`'s operator over its children's [`execute`]d rows,
/// recorded as `route=serial`. This is the oracle; it has no routing of
/// its own.
///
/// Output is pushed into `sink`. The row-at-a-time operators — `Scan`,
/// `Filter`, plain-column `Project` — [`stream`] their input
/// and stop the moment the sink declines; every other operator runs to
/// completion and [`feed`]s its result.
fn serial_node(
    plan: &Plan,
    ctx: &ExecCtx<'_>,
    outer: Option<&[Value]>,
    sink: Sink<'_>,
) -> Result<()> {
    let child = |p: &Plan| execute(p, ctx, outer);
    match plan {
        Plan::Scan {
            table,
            cols,
            filter,
            ..
        } => scan_rows(table, cols, filter.as_ref(), ctx, outer, sink),
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
        Plan::Limit { input, n } => {
            let mut rows = Vec::new();
            if *n > 0 {
                stream(input, ctx, outer, &mut |row| {
                    rows.push(row);
                    Ok(rows.len() < *n as usize)
                })?;
            }
            feed(rows, sink)
        }
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
    }?;
    let node = plan as *const Plan as usize;
    ctx.record_route(node, RoutePath::Serial);
    Ok(())
}

/// Compiles bound scalar expressions — a projection, a sort key, a
/// filter, a join residual alike — to the vectorized kernel AST
/// ([`tpcds_storage::Expr`]) for one kernel's input, column `c` becoming
/// `phys(c)`. The kernels share the row path's scalar semantics
/// ([`tpcds_types::scalar`]), so every expression compiles. A subquery
/// runs first, through its memo: a row-independent subtree becomes the
/// literal the interpreter computes for it, `x IN (subquery)` and a keyed
/// `EXISTS` a probe of the set their body produced, any other an
/// [`Expr::Lookup`](tpcds_storage::Expr::Lookup) of its result per tuple
/// of the columns it reads. An outer reference (in a correlated body) is
/// the literal of the outer row. An error stays a result: the rows that
/// ask for it raise it, where the interpreter would.
struct Compiler<'c, 'a> {
    ctx: &'c ExecCtx<'a>,
    outer: Option<&'c [Value]>,
    phys: &'c dyn Fn(usize) -> usize,
    /// The kernel's input rows, addressed by the same physical columns:
    /// where a lookup gathers its keys.
    rows: &'c dyn Fn() -> Result<Batch>,
    /// Where a lookup's fill waits for [`take`]'s scan; `None` fills it
    /// over every input row it compiles against.
    defer: Option<&'c Fills>,
    /// Whether `rows` is the kernel's own input, cheap enough to look for
    /// a row that gets past a gate; a join's pairs are built only for a
    /// lookup.
    reach: bool,
}

/// Lookup fills queued for [`take`], in compile order: the order they
/// fill in, since a later one's rows pass the earlier ones' kernels.
type Fills = RefCell<Vec<Fill>>;

/// What fills one [`Expr::Lookup`](tpcds_storage::Expr::Lookup): `e`,
/// evaluated once per distinct tuple of the columns `cols` it reads, over
/// `rows` — those columns of the input rows that reach it.
struct Fill {
    e: BExpr,
    cols: Vec<usize>,
    rows: Batch,
    results: Arc<tpcds_storage::LookupMap>,
}

impl Fill {
    /// Evaluates `e`, in row order, for each key tuple among the `rows`
    /// with ids in `ids` that has no result yet — through `SubPlan`'s
    /// memo, so a body runs once per distinct tuple it reads.
    fn fill(&self, ids: Range<usize>, ctx: &ExecCtx<'_>, outer: Option<&[Value]>) {
        let mut row = vec![Value::Null; self.cols.last().map_or(0, |&c| c + 1)];
        let mut results = self.results.write().expect("lookup lock");
        let Ok(_) = tpcds_storage::scan_range(&self.rows, ids, |key| {
            results.entry(key).or_insert_with_key(|key| {
                for (&c, v) in self.cols.iter().zip(key) {
                    row[c] = v.clone();
                }
                self.e.eval(&row, ctx, outer).map_err(|e| match e {
                    EngineError::Exec(m) => m,
                    e => e.to_string(),
                })
            });
            Ok::<_, Infallible>(true)
        });
    }
}

impl Compiler<'_, '_> {
    /// `e` compiled. `gate` holds the conditions a row passed to reach
    /// `e` — the lhs of each enclosing AND (not FALSE) and OR (not TRUE),
    /// each earlier WHEN of an enclosing CASE (not TRUE) and the WHEN of
    /// its arm (TRUE) — so no body runs for a row the interpreter never
    /// asks.
    fn compile(&self, e: &BExpr, gate: &[tpcds_storage::Expr]) -> Result<tpcds_storage::Expr> {
        use crate::expr::key_set;
        use tpcds_storage::{Expr as X, SetTest};
        if e.has_subquery() && e.is_constant() {
            return match e.eval(&[], self.ctx, self.outer) {
                Ok(v) => Ok(X::Lit(v)),
                Err(_) => self.lookup(e, gate),
            };
        }
        let c = |x: &BExpr| self.compile(x, gate).map(Box::new);
        let all =
            |xs: &[BExpr]| -> Result<Vec<X>> { xs.iter().map(|x| self.compile(x, gate)).collect() };
        // `r`, which runs where `l` did not read `stop`.
        let unless = |l: &X, stop: bool, r: &BExpr| {
            if !r.has_subquery() {
                return c(r);
            }
            let gate = [gate, &[not_read(l, stop)]].concat();
            self.compile(r, &gate).map(Box::new)
        };
        // A set probe: its body runs once — behind an operand or a WHEN,
        // only if some row gets past it.
        let sets = |set: &dyn Fn() -> Result<_>, keys: Vec<X>, test, negated| {
            if !self.reached(gate)? {
                return Ok(X::Lit(Value::Null));
            }
            match set() {
                Ok(set) => Ok(X::InSet(keys, set, test, negated)),
                Err(_) => self.lookup(e, gate),
            }
        };
        Ok(match e {
            BExpr::Col(i) => X::Col((self.phys)(*i)),
            BExpr::OuterCol(i) => match self.outer.and_then(|o| o.get(*i)) {
                Some(v) => X::Lit(v.clone()),
                None => self.lookup(e, gate)?,
            },
            BExpr::Lit(v) => X::Lit(v.clone()),
            BExpr::Cmp(op, l, r) => X::Cmp(*op, c(l)?, c(r)?),
            BExpr::And(l, r) => {
                let l = c(l)?;
                X::And(l.clone(), unless(&l, false, r)?)
            }
            BExpr::Or(l, r) => {
                let l = c(l)?;
                X::Or(l.clone(), unless(&l, true, r)?)
            }
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
            } => {
                let operand = operand.as_deref().map(c).transpose()?;
                // Past each WHEN, the rows it did not take.
                let (mut past, mut arms) = (gate.to_vec(), Vec::new());
                for (w, t) in branches {
                    let w = self.compile(w, &past)?;
                    let hit = match &operand {
                        Some(o) => X::Cmp(CmpKind::Eq, o.clone(), Box::new(w.clone())),
                        None => w.clone(),
                    };
                    let t = match t.has_subquery() {
                        true => {
                            self.compile(t, &[&past[..], std::slice::from_ref(&hit)].concat())?
                        }
                        false => self.compile(t, gate)?,
                    };
                    arms.push((w, t));
                    past.push(not_read(&hit, true));
                }
                X::Case {
                    operand,
                    branches: arms,
                    else_branch: (else_branch.as_deref())
                        .map(|x| self.compile(x, &past).map(Box::new))
                        .transpose()?,
                }
            }
            BExpr::Cast(x, ty) => X::Cast(c(x)?, *ty),
            BExpr::Func(f, args) => X::Func(*f, all(args)?),
            BExpr::Concat(l, r) => X::Concat(c(l)?, c(r)?),
            BExpr::InSubquery(x, sub, negated) if sub.uncorrelated() => {
                let set = || sub.once(self.ctx, key_set);
                sets(&set, vec![*c(x)?], SetTest::In, *negated)?
            }
            BExpr::Exists(_, negated, Some(keyed)) => {
                let keys = keyed.outer_refs.iter().map(|&k| X::Col((self.phys)(k)));
                let set = || keyed.once(self.ctx, key_set);
                sets(&set, keys.collect(), SetTest::Exists, *negated)?
            }
            BExpr::ScalarSubquery(..) | BExpr::InSubquery(..) | BExpr::Exists(..) => {
                self.lookup(e, gate)?
            }
        })
    }

    /// `e` as a lookup of its result by the columns it reads, evaluated
    /// once per distinct tuple among the input rows `gate` admits — now,
    /// or as [`take`]'s scan reaches them.
    fn lookup(&self, e: &BExpr, gate: &[tpcds_storage::Expr]) -> Result<tpcds_storage::Expr> {
        let mut cols = Vec::new();
        e.visit_columns(&mut |c| cols.push(c));
        cols.sort_unstable();
        cols.dedup();
        let phys: Vec<usize> = cols.iter().map(|&c| (self.phys)(c)).collect();
        let fill = Fill {
            e: e.clone(),
            cols,
            rows: self.gated(gate)?.project(&phys),
            results: Arc::default(),
        };
        let results = Arc::clone(&fill.results);
        match self.defer {
            Some(fills) => fills.borrow_mut().push(fill),
            None => fill.fill(0..fill.rows.table.id_end(), self.ctx, self.outer),
        }
        let keys = phys.into_iter().map(tpcds_storage::Expr::Col).collect();
        Ok(tpcds_storage::Expr::Lookup(keys, results))
    }

    /// Whether some input row passes `gate`. With no gate, ahead of
    /// [`take`]'s scan (the gate's lookups are not filled yet) or over a
    /// join's pairs, every row counts as reaching.
    fn reached(&self, gate: &[tpcds_storage::Expr]) -> Result<bool> {
        if gate.is_empty() || self.defer.is_some() || !self.reach {
            return Ok(true);
        }
        let mut any = false;
        let _ = tpcds_storage::scan_until(&self.gated(gate)?.project(&[]), |_| {
            any = true;
            Ok::<_, Infallible>(false)
        });
        Ok(any)
    }

    /// The input rows `gate` admits.
    fn gated(&self, gate: &[tpcds_storage::Expr]) -> Result<Batch> {
        Ok((gate.iter()).fold((self.rows)()?, |b, g| b.filter(g.clone())))
    }
}

/// A condition that holds where `l` did not read `stop` (NULL included).
fn not_read(l: &tpcds_storage::Expr, stop: bool) -> tpcds_storage::Expr {
    let lit = |b| tpcds_storage::Expr::Lit(Value::Bool(b));
    tpcds_storage::Expr::Case {
        operand: Some(Box::new(l.clone())),
        branches: vec![(lit(stop), lit(false))],
        else_branch: Some(Box::new(lit(true))),
    }
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

#[allow(clippy::too_many_arguments)]
fn hash_join(
    left_rows: Vec<Row>,
    right_rows: Vec<Row>,
    right_width: usize,
    kind: JoinType,
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
                if kind == JoinType::Left {
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
        if !matched && kind == JoinType::Left {
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::catalog::ColumnMeta;
    use tpcds_types::Decimal;

    /// A `LIMIT` hands its parent a table in the declared types of its
    /// input's columns, also when every value it keeps of a column is
    /// NULL: no type is guessed from the values.
    #[test]
    fn limit_keeps_declared_column_types() {
        let db = Database::new();
        let meta = |name: &str, dtype| ColumnMeta {
            name: name.into(),
            dtype,
        };
        let rows: Vec<Row> = (0..10i64)
            .map(|i| {
                let price = match i < 4 {
                    true => Value::Null,
                    false => Value::Decimal(Decimal::from_cents(i * 125)),
                };
                vec![Value::Int(i), price]
            })
            .collect();
        let cols = vec![meta("id", DataType::Int), meta("price", DataType::Decimal)];
        db.create_table_with_rows("t", cols, rows).unwrap();
        let bound = crate::plan_sql(&db, "select price, id from t limit 3").unwrap();
        let ctx = ExecCtx::new(&db, db.snapshot(), ExecOptions::default());
        let b = batch(&bound.plan, &ctx, None).unwrap();
        let dtypes: Vec<DataType> = b.cols().into_iter().map(|c| b.table.dtypes[c]).collect();
        assert_eq!(dtypes, [DataType::Decimal, DataType::Int]);
        assert_eq!(b.table.rows, 3);
    }
}
