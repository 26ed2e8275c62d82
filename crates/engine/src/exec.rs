//! Plan execution. Operators exchange lazy column batches
//! ([`tpcds_storage::Batch`]: a table, a pending predicate, a pending
//! projection) and rows are materialized once, at the result edge
//! ([`execute`]). Every node has a batch kernel and every expression a
//! kernel form ([`Compiler`]): a subquery's decorrelated body runs as plan
//! nodes before the kernel that reads it, once per call of that node, over
//! the distinct tuples of the outer columns it reads among the node's
//! input rows. The serial row interpreter ([`serial_node`]) is kept as the
//! oracle, and is what [`ColumnarMode::Off`] runs end to end, nested
//! subquery bodies per outer row.
//! It pushes rows into a [`Sink`] that can decline more, which is how a
//! `LIMIT` stops its input early; the batch executor stops at the same row
//! ([`take`]).

use crate::catalog::Database;
use crate::error::{EngineError, Result};
use crate::expr::{BExpr, SubPlan};
use crate::plan::{AggCall, Plan, WindowCall};
use crate::sync::Mutex;
use std::collections::HashMap;
use std::convert::Infallible;
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
/// executions (on the interpreter, a correlated subquery's nested body once
/// per outer tuple).
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
    /// Each [`Plan::Domain`] id's rows while its body runs.
    domains: Mutex<HashMap<usize, Batch>>,
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
            domains: Mutex::new(HashMap::new()),
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

    /// Folds one kernel call's numbers into `node`'s actuals.
    fn record(&self, node: usize, ks: &KernelStats) {
        self.fold(node, |s| s.kernel.merge(ks));
    }
}

/// Executes a plan to rows — the result edge, and the only place a column
/// batch is turned into `Vec<Row>` on behalf of a caller (the statement
/// entry points and the interpreter's subquery evaluation). `outer`
/// carries the enclosing row when the interpreter runs a correlated
/// subquery body; no batch plan reads one. Each node's calls, output rows,
/// elapsed time and memory peak accumulate in the context.
///
/// [`ColumnarMode::Off`] runs the serial row interpreter end to end — the
/// oracle every differential compares against; the other modes run
/// [`batch_node`] and materialize its batch once.
pub fn execute(plan: &Plan, ctx: &ExecCtx<'_>, outer: Option<&[Value]>) -> Result<Vec<Row>> {
    if ctx.opts.columnar != ColumnarMode::Off {
        return rows_of(plan, ctx);
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
        // Only a node that ran to the end reports the interpreter's path.
        ctx.fold(plan as *const Plan as usize, |s| {
            s.route = RoutePath::Serial
        });
        Ok(rows)
    };
    observed(plan, ctx, run, |&rows| rows).map(drop)
}

/// One node of the batch executor, children included. A node whose
/// batch carries a pending predicate reports its rows later: whichever
/// kernel evaluates the predicate counts what it admits (so a `LIMIT`
/// that stops early reports the rows actually read).
fn batch(plan: &Plan, ctx: &ExecCtx<'_>) -> Result<Batch> {
    let node = plan as *const Plan as usize;
    // Any node that starts reports the batch path, one that fails too.
    ctx.fold(node, |s| s.route = RoutePath::Columnar);
    let pending = |b: &Batch| b.pred.as_ref().map_or(b.table.rows as u64, |_| 0);
    let mut b = observed(plan, ctx, || batch_node(plan, ctx), pending)?;
    if let Some(rows) = b.counted() {
        ctx.lazy_rows.lock().push((node, rows));
    }
    Ok(b)
}

/// Executes `plan` as a batch and materializes it. The scan numbers land
/// on `plan`'s node when a pending predicate made this the pass that
/// actually read the table.
fn rows_of(plan: &Plan, ctx: &ExecCtx<'_>) -> Result<Vec<Row>> {
    collect(plan, &batch(plan, ctx)?, ctx)
}

/// [`rows_of`] for `plan`'s batch `b`.
fn collect(plan: &Plan, b: &Batch, ctx: &ExecCtx<'_>) -> Result<Vec<Row>> {
    let (rows, ks) = tpcds_storage::par_filter(b, ctx.threads());
    check_err(b)?;
    if b.pred.is_some() {
        ctx.record(plan as *const Plan as usize, &ks);
    }
    Ok(rows)
}

/// The first `n` rows of `plan`, which stops there (the batch `LIMIT`; the
/// interpreter's stops pulling). The row-at-a-time nodes under the limit
/// are one lazy batch, scanned in row order; rows past the stopping row
/// are never evaluated ([`tpcds_storage::scan_until`]). The rows come back
/// as a table in the declared types of `plan`'s columns; `LIMIT 0` runs
/// nothing, and its empty columns are typed `Int`.
fn take(plan: &Plan, n: usize, ctx: &ExecCtx<'_>) -> Result<ColumnTable> {
    let mut rows = Vec::new();
    if n == 0 {
        let dtypes = vec![DataType::Int; plan.width()];
        return Ok(ColumnTable::from_rows(dtypes, &rows));
    }
    let b = batch(plan, ctx)?;
    let res = tpcds_storage::scan_until(&b, |row| {
        rows.push(row);
        Ok::<_, Infallible>(rows.len() < n)
    });
    check_err(&b)?;
    let Ok(ks) = res;
    if b.pred.is_some() {
        ctx.record(plan as *const Plan as usize, &ks);
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
fn compile_over(b: &Batch, e: &BExpr, ctx: &ExecCtx<'_>) -> Result<tpcds_storage::Expr> {
    let (phys, rows) = (&|c| b.phys(c), &|| Ok(b.peek()));
    Compiler { ctx, phys, rows }.compile(e)
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
fn batch_node(plan: &Plan, ctx: &ExecCtx<'_>) -> Result<Batch> {
    let node = plan as *const Plan as usize;
    let threads = ctx.threads();
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
            let f = (filter.as_ref()).map(|f| compile_over(&b, f, ctx));
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
            let b = batch(input, ctx)?;
            let pred = compile_over(&b, predicate, ctx)?;
            Ok(b.filter(pred))
        }
        Plan::Project { input, exprs } => {
            if let Some(cols) = plain_cols(exprs) {
                return Ok(batch(input, ctx)?.project(&cols));
            }
            let b = batch(input, ctx)?;
            let cexprs = (exprs.iter())
                .map(|e| compile_over(&b, e, ctx))
                .collect::<Result<Vec<_>>>()?;
            Ok(Batch::new(project_table(&b, &cexprs, node, ctx)?))
        }
        Plan::HashJoin { kind, .. } => {
            let j = join_sides(plan, node, ctx)?;
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
            let specs = agg_specs(groups.len(), aggs);
            let args = aggs.iter().filter_map(|a| a.arg.as_ref());
            let keys: Vec<&BExpr> = groups.iter().chain(args).collect();
            let input = batch(input, ctx)?;
            let (b, cols) = key_columns(input, &keys, false, node, ctx)?;
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
            let exprs: Vec<&BExpr> = keys.iter().map(|(e, _)| e).collect();
            let input = batch(input, ctx)?;
            let (b, cols) = key_columns(input, &exprs, true, node, ctx)?;
            let skeys: Vec<_> = (cols.into_iter().zip(keys))
                .map(|(col, &(_, desc))| tpcds_storage::SortKey { col, desc })
                .collect();
            let limit = match plan {
                Plan::TopN { n, .. } => Some(*n as usize),
                _ => None,
            };
            let (table, ks) = tpcds_storage::par_sort(&b, &skeys, limit, threads);
            check_err(&b)?;
            ctx.record(node, &ks);
            Ok(Batch::new(Arc::new(table)))
        }
        Plan::Limit { input, n } => Ok(Batch::new(Arc::new(take(input, *n as usize, ctx)?))),
        Plan::CteRef { id, plan: body, .. } => {
            if let Some(b) = ctx.cte_cache.lock().get(id) {
                return Ok(b.clone());
            }
            let mut b = batch(body, ctx)?;
            if b.pred.is_some() {
                // The body runs once: force its pending predicate here
                // rather than once per reference.
                b = Batch::new(dense(b, node, ctx)?);
            }
            ctx.cte_cache.lock().insert(*id, b.clone());
            Ok(b)
        }
        Plan::UnionAll { left, right } => {
            // The left side runs, and raises, before the right one.
            let l = dense(batch(left, ctx)?, node, ctx)?;
            let r = dense(batch(right, ctx)?, node, ctx)?;
            Ok(Batch::new(Arc::new(l.concat(&r))))
        }
        Plan::Domain { id, .. } => {
            let b = ctx.domains.lock().get(id).cloned();
            b.ok_or_else(|| EngineError::exec("a subquery domain outside its body's run"))
        }
        Plan::Window { input, calls } => {
            // Each call's argument, partition keys and order keys, in turn.
            let exprs = plan.exprs();
            let input = batch(input, ctx)?;
            let (b, cols) = key_columns(input, &exprs, true, node, ctx)?;
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
/// residual runs over equi-matched pairs, so that is where a correlated
/// subquery in it takes its domain from: the pairs of an inner join
/// without it, over every physical column of both sides.
fn join_sides(join: &Plan, node: usize, ctx: &ExecCtx<'_>) -> Result<JoinSides> {
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
        key_columns(batch(p, ctx)?, &keys, true, node, ctx)
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
        let pairs = match r.has_correlated_subquery() {
            false => j.probe.peek(),
            true => {
                let (probe, build, threads) = (j.probe.peek(), j.build.peek(), ctx.threads());
                let (pk, bk, inner) = (&j.probe_keys, &j.build_keys, JoinType::Inner);
                let res =
                    tpcds_storage::par_hash_join(&probe, pk, &build, bk, inner, None, threads);
                Batch::new(Arc::new(res.map_err(storage_err)?.0))
            }
        };
        let (phys, rows) = (&|c| j.phys(c), &|| Ok(pairs.clone()));
        j.residual = Some(Compiler { ctx, phys, rows }.compile(r)?);
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
                exprs.push(compile_over(&b, k, ctx)?);
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
        Plan::Domain { .. } => Err(EngineError::exec("the interpreter runs nested bodies")),
    }
}

/// Compiles bound scalar expressions — a projection, a sort key, a
/// filter, a join residual alike — to the vectorized kernel AST
/// ([`tpcds_storage::Expr`]) for one kernel's input, column `c` becoming
/// `phys(c)`. The kernels share the row path's scalar semantics
/// ([`tpcds_types::scalar`]), so every expression compiles. A
/// row-independent subtree that holds a subquery folds to the literal the
/// interpreter computes for it; any other subquery becomes an
/// [`Expr::Sub`](tpcds_storage::Expr::Sub) probe of its decorrelated
/// body's result ([`Compiler::subquery`]). An error stays a result: the
/// rows that ask for it raise it, where the interpreter would.
struct Compiler<'c, 'a> {
    ctx: &'c ExecCtx<'a>,
    phys: &'c dyn Fn(usize) -> usize,
    /// The kernel's input rows, addressed by the same physical columns:
    /// where a subquery takes its domain from.
    rows: &'c dyn Fn() -> Result<Batch>,
}

impl Compiler<'_, '_> {
    /// `e` compiled.
    fn compile(&self, e: &BExpr) -> Result<tpcds_storage::Expr> {
        use tpcds_storage::Expr as X;
        if e.has_subquery() && e.is_constant() {
            if let Ok(v) = e.eval(&[], self.ctx, None) {
                return Ok(X::Lit(v));
            }
        }
        let c = |x: &BExpr| self.compile(x).map(Box::new);
        let all = |xs: &[BExpr]| -> Result<Vec<X>> { xs.iter().map(|x| self.compile(x)).collect() };
        Ok(match e {
            BExpr::Col(i) => X::Col((self.phys)(*i)),
            BExpr::OuterCol(_) => return Err(EngineError::exec("an outer column in a batch plan")),
            BExpr::Lit(v) => X::Lit(v.clone()),
            BExpr::Cmp(op, l, r) => X::Cmp(*op, c(l)?, c(r)?),
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
                operand: operand.as_deref().map(c).transpose()?,
                branches: (branches.iter())
                    .map(|(w, t)| Ok((self.compile(w)?, self.compile(t)?)))
                    .collect::<Result<_>>()?,
                else_branch: else_branch.as_deref().map(c).transpose()?,
            },
            BExpr::Cast(x, ty) => X::Cast(c(x)?, *ty),
            BExpr::Func(f, args) => X::Func(*f, all(args)?),
            BExpr::Concat(l, r) => X::Concat(c(l)?, c(r)?),
            BExpr::ScalarSubquery(sub) => self.subquery(sub, None, false)?,
            BExpr::InSubquery(x, sub, negated) => self.subquery(sub, Some(*c(x)?), *negated)?,
            BExpr::Exists(sub, negated) => self.subquery(sub, None, *negated)?,
        })
    }

    /// `sub` as a probe of its answers for the *domain*: the distinct
    /// tuples of the outer columns it reads among the kernel's input rows,
    /// each numbered by its position (one empty tuple when uncorrelated).
    /// The decorrelated body runs once over them, as plan nodes with their
    /// own actuals; a scalar's final projection and its one-row check run
    /// here, per tuple, so their errors reach only the rows that ask.
    fn subquery<T: Clone>(
        &self,
        sub: &SubPlan<T>,
        operand: Option<tpcds_storage::Expr>,
        negated: bool,
    ) -> Result<tpcds_storage::Expr> {
        use tpcds_storage::{Answer, KeySet};
        let (ctx, k) = (self.ctx, sub.outer_refs.len());
        let refs: Vec<usize> = sub.outer_refs.iter().map(|&c| (self.phys)(c)).collect();
        let (domain, out) = match k {
            0 => (vec![vec![]], batch(&sub.flat, ctx)?),
            _ => {
                let res = tpcds_storage::par_aggregate(&(self.rows)()?, &refs, &[], ctx.threads());
                let tuples = res.map_err(storage_err)?.0;
                let numbered = (tuples.iter_rows().enumerate())
                    .map(|(d, t)| t.into_iter().chain([Value::Int(d as i64)]).collect::<Row>());
                let dtypes = tuples
                    .dtypes
                    .iter()
                    .copied()
                    .chain([DataType::Int])
                    .collect();
                let table = ColumnTable::from_rows(dtypes, &numbered.collect::<Vec<_>>());
                ctx.domains
                    .lock()
                    .insert(sub.domain, Batch::new(Arc::new(table)));
                let out = batch(&sub.flat, ctx);
                ctx.domains.lock().remove(&sub.domain);
                (tuples.iter_rows().collect(), out?)
            }
        };
        let results = collect(&sub.flat, &out, ctx)?;
        // An uncorrelated body's rows all answer its one tuple, number 0.
        let did = |r: &Row| r.get(k).filter(|_| k > 0).and_then(Value::as_int);
        let did = |r: &Row| did(r).unwrap_or(0) as usize;
        let answer = match (&sub.pick, &operand) {
            (Some(pick), _) => {
                let mut values = vec![(0, Ok(Value::Null)); domain.len()];
                let dtypes = out.cols().into_iter().map(|c| out.table.dtypes[c]);
                let table = ColumnTable::from_rows(dtypes.collect(), &results);
                let pick = compile_over(&Batch::new(Arc::new(table.clone())), pick, ctx)?;
                let pick = pick.eval_each(&table);
                for (r, v) in results.iter().zip(pick) {
                    let (n, slot) = &mut values[did(r)];
                    *n += 1;
                    if slot.is_ok() {
                        *slot = v;
                    }
                }
                let many = "scalar subquery returned more than one row";
                Answer::Scalar(
                    (values.into_iter())
                        .map(|(n, v)| v.and_then(|v| if n > 1 { Err(many.into()) } else { Ok(v) }))
                        .collect(),
                )
            }
            (None, Some(_)) => {
                let mut sets = vec![Vec::new(); domain.len()];
                for r in &results {
                    sets[did(r)].push(r[r.len() - 1..].to_vec());
                }
                Answer::In(sets.into_iter().map(KeySet::new).collect())
            }
            (None, None) => {
                let mut hits = vec![false; domain.len()];
                results.iter().for_each(|r| hits[did(r)] = true);
                Answer::Exists(hits)
            }
        };
        let keys = refs
            .into_iter()
            .map(tpcds_storage::Expr::Col)
            .chain(operand);
        let res = tpcds_storage::SubResult::new(domain, answer);
        Ok(tpcds_storage::Expr::Sub(
            keys.collect(),
            Arc::new(res),
            negated,
        ))
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
    let key = |row: &Row| -> Result<Vec<Value>> {
        keys.iter().map(|(e, _)| e.eval(row, ctx, outer)).collect()
    };
    let mut keyed = (rows.into_iter())
        .map(|row| Ok((key(&row)?, row)))
        .collect::<Result<Vec<(Vec<Value>, Row)>>>()?;
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
        let b = batch(&bound.plan, &ctx).unwrap();
        let dtypes: Vec<DataType> = b.cols().into_iter().map(|c| b.table.dtypes[c]).collect();
        assert_eq!(dtypes, [DataType::Decimal, DataType::Int]);
        assert_eq!(b.table.rows, 3);
    }
}
