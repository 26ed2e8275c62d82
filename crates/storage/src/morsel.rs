//! Morsel-driven parallel scan and aggregate execution.
//!
//! A table's segments are cut into fixed-size **morsels** ([`MORSEL_ROWS`]
//! rows; the size divides [`crate::SEGMENT_ROWS`], so a morsel never
//! straddles a segment). A shared [`AtomicUsize`] cursor hands morsels to
//! `std::thread::scope` workers: fast workers simply pull more morsels, so
//! skew self-balances without work stealing — the scheme of Leis et al.'s
//! morsel-driven parallelism, sized down to this engine.
//!
//! Determinism: filter output preserves table order (per-morsel result
//! buffers are reassembled in morsel order), and aggregate output is
//! sorted by group key, so results are identical for any worker count.

use crate::agg::{AggSpec, PAcc};
use crate::batch::Batch;
use crate::pred::{Pred, P_TRUE};
use crate::segment::{ColumnTable, SEGMENT_ROWS};
use crate::StorageError;
use std::collections::HashMap;
use std::sync::atomic::{AtomicUsize, Ordering};
use tpcds_types::{Row, Value};

/// Rows per morsel. Divides [`crate::SEGMENT_ROWS`].
pub const MORSEL_ROWS: usize = 8_192;

/// Below this row count the scan runs inline on the calling thread: the
/// work is smaller than the cost of spawning workers.
pub(crate) const INLINE_ROWS: usize = 16_384;

/// Whether per-morsel detail spans are on (`TPCDS_OBS_DETAIL=1`/`on`).
/// One span per 8k-row morsel is too hot for routine runs, but gives the
/// Chrome trace export morsel-granularity bars on each worker track.
pub(crate) fn detail_enabled() -> bool {
    use std::sync::OnceLock;
    static DETAIL: OnceLock<bool> = OnceLock::new();
    *DETAIL.get_or_init(|| {
        std::env::var("TPCDS_OBS_DETAIL")
            .map(|v| v == "1" || v.eq_ignore_ascii_case("on"))
            .unwrap_or(false)
    })
}

/// What one columnar scan did — surfaced in obs counters and in the
/// engine's EXPLAIN ANALYZE output.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ScanStats {
    /// Morsels processed.
    pub morsels: u64,
    /// Workers that ran (1 for inline execution).
    pub workers: u64,
    /// Rows scanned (the whole table).
    pub rows_scanned: u64,
    /// Rows produced (after filtering / number of groups).
    pub rows_out: u64,
    /// Approximate bytes of column data read.
    pub bytes: u64,
}

/// The morsel list for a table: each entry is `(segment, start, len)`.
/// Shared with the join pipeline in [`crate::join`].
pub(crate) fn morsels_of(table: &ColumnTable) -> Vec<(usize, usize, usize)> {
    let mut out = Vec::new();
    for (si, seg) in table.segments.iter().enumerate() {
        let mut off = 0;
        while off < seg.rows {
            let len = MORSEL_ROWS.min(seg.rows - off);
            out.push((si, off, len));
            off += len;
        }
    }
    out
}

/// Worker-count policy: inline below [`INLINE_ROWS`] total rows, else the
/// requested thread count capped by the number of morsels.
pub(crate) fn worker_count(rows: usize, threads: usize, n_morsels: usize) -> usize {
    if rows <= INLINE_ROWS {
        return 1;
    }
    threads.max(1).min(n_morsels.max(1))
}

pub(crate) fn emit_counters(stats: &ScanStats) {
    if !tpcds_obs::is_enabled() {
        return;
    }
    let w = [("workers", tpcds_obs::FieldValue::Int(stats.workers as i64))];
    tpcds_obs::counter("storage", "scan.morsels", stats.morsels as f64, &w);
    tpcds_obs::counter("storage", "scan.rows", stats.rows_scanned as f64, &w);
    tpcds_obs::counter("storage", "scan.bytes", stats.bytes as f64, &w);
}

/// Hands the chunk indexes `0..n` to workers, each exactly once: fast
/// workers simply pull more.
pub(crate) struct Chunks {
    cursor: AtomicUsize,
    n: usize,
}

impl Chunks {
    pub(crate) fn next(&self) -> Option<usize> {
        let m = self.cursor.fetch_add(1, Ordering::Relaxed);
        (m < self.n).then_some(m)
    }
}

/// Runs `worker(w, chunks)` on `workers` scoped threads sharing one
/// [`Chunks`] cursor over `0..n` (inline on the calling thread when one
/// worker suffices), for kernels that fold chunks into per-worker state.
/// Returns one result per worker.
pub(crate) fn run_workers<T: Send>(
    n: usize,
    workers: usize,
    worker: impl Fn(usize, &Chunks) -> T + Sync,
) -> Vec<T> {
    let chunks = Chunks {
        cursor: AtomicUsize::new(0),
        n,
    };
    if workers <= 1 {
        return vec![worker(0, &chunks)];
    }
    std::thread::scope(|s| {
        let handles: Vec<_> = (0..workers)
            .map(|w| {
                let (worker, chunks) = (&worker, &chunks);
                s.spawn(move || worker(w, chunks))
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    })
}

/// [`run_workers`] for kernels whose chunks are independent: runs
/// `f(chunk_index)` for chunks `0..n`, returning results in chunk order.
/// `span` names the per-worker obs span.
pub(crate) fn run_chunks<T: Send, F: Fn(usize) -> T + Sync>(
    span: &'static str,
    n: usize,
    workers: usize,
    f: F,
) -> Vec<T> {
    let slots: Vec<std::sync::Mutex<Option<T>>> =
        (0..n).map(|_| std::sync::Mutex::new(None)).collect();
    run_workers(n, workers, |w, chunks| {
        let mut span = tpcds_obs::span("storage", span).field("worker", w);
        let mut done = 0usize;
        while let Some(m) = chunks.next() {
            *slots[m].lock().unwrap() = Some(f(m));
            done += 1;
        }
        span.add_field("chunks", done);
    });
    slots
        .into_iter()
        .map(|m| m.into_inner().unwrap().expect("chunk ran"))
        .collect()
}

/// Materializes the batch: the rows passing its predicate, narrowed to
/// its visible columns, **in table order**, plus scan statistics. This is
/// the result edge — the one place column batches become rows.
pub fn par_filter(batch: &Batch, threads: usize) -> (Vec<Row>, ScanStats) {
    let (table, pred, proj) = (&*batch.table, batch.pred.as_ref(), batch.proj.as_deref());
    let morsels = morsels_of(table);
    let workers = worker_count(table.rows, threads, morsels.len());
    let detail = tpcds_obs::is_enabled() && detail_enabled();
    // Per-morsel output buffers, reassembled in morsel order so the
    // result is byte-identical to a serial scan.
    let parts = run_chunks("scan_worker", morsels.len(), workers, |m| {
        let _detail_span =
            detail.then(|| tpcds_obs::span("storage", "scan_morsel").field("morsel", m));
        let (si, off, len) = morsels[m];
        filter_morsel(table, si, off, len, pred, proj)
    });
    let rows_out: usize = parts.iter().map(|p| p.len()).sum();
    let mut out = Vec::with_capacity(rows_out);
    for p in parts {
        out.extend(p);
    }
    let stats = ScanStats {
        morsels: morsels.len() as u64,
        workers: workers as u64,
        rows_scanned: table.rows as u64,
        rows_out: rows_out as u64,
        bytes: table.bytes() as u64,
    };
    emit_counters(&stats);
    (out, stats)
}

/// Feeds the batch's qualifying rows (visible columns) to `visit` **in
/// table order on the calling thread** until it returns `Ok(false)` or
/// fails — the ordered early exit behind `LIMIT`, which touches so few
/// morsels that worker fan-out would cost more than it saves. The rows
/// visited are exactly a prefix of what [`par_filter`] produces. Rows past
/// the stopping row are never reported: their deferred predicate errors
/// are cleared, as a serial row loop would never have evaluated them (an
/// error at or before it stays in the batch and outranks `visit`'s own).
/// `rows_scanned` and `bytes` count only what was actually visited.
pub fn scan_until<E>(
    batch: &Batch,
    mut visit: impl FnMut(Row) -> Result<bool, E>,
) -> Result<ScanStats, E> {
    let (table, pred, proj) = (&*batch.table, batch.pred.as_ref(), batch.proj.as_deref());
    let _span = tpcds_obs::span("storage", "scan_worker").field("worker", 0usize);
    let mut stats = ScanStats {
        workers: 1,
        ..ScanStats::default()
    };
    let mut sel = Vec::new();
    let mut verdict = Ok(true);
    'scan: for (si, off, len) in morsels_of(table) {
        let seg = &table.segments[si];
        let base = (si * SEGMENT_ROWS + off) as u64;
        stats.morsels += 1;
        stats.rows_scanned += len as u64;
        stats.bytes += (seg.bytes * len / seg.rows.max(1)) as u64;
        match pred {
            Some(p) => p.eval(seg, off, len, base, &mut sel),
            None => {
                sel.clear();
                sel.resize(len, P_TRUE);
            }
        }
        for (j, _) in sel.iter().enumerate().filter(|(_, &s)| s == P_TRUE) {
            stats.rows_out += 1;
            verdict = visit(seg.row_of(off + j, proj));
            if !matches!(verdict, Ok(true)) {
                if let Some(p) = pred {
                    p.clear_err_from(base + j as u64 + 1);
                }
                break 'scan;
            }
        }
    }
    emit_counters(&stats);
    verdict.map(|_| stats)
}

fn filter_morsel(
    table: &ColumnTable,
    si: usize,
    off: usize,
    len: usize,
    pred: Option<&Pred>,
    proj: Option<&[usize]>,
) -> Vec<Row> {
    let seg = &table.segments[si];
    match pred {
        None => (off..off + len).map(|i| seg.row_of(i, proj)).collect(),
        Some(p) => {
            let mut sel = Vec::new();
            p.eval(seg, off, len, (si * SEGMENT_ROWS + off) as u64, &mut sel);
            (sel.iter().enumerate())
                .filter(|(_, &s)| s == P_TRUE)
                .map(|(j, _)| seg.row_of(off + j, proj))
                .collect()
        }
    }
}

/// Grouped (or global) aggregation over the batch's qualifying rows.
///
/// `groups` are column indexes forming the key; `aggs` the aggregate
/// calls. Output rows are `key columns ++ aggregate values`, sorted by
/// key (so any worker count yields the same bytes). A global aggregate
/// (`groups` empty) over zero matching rows still yields one default row,
/// mirroring the engine.
pub fn par_aggregate(
    batch: &Batch,
    groups: &[usize],
    aggs: &[AggSpec],
    threads: usize,
) -> Result<(Vec<Row>, ScanStats), StorageError> {
    let (table, pred) = (&*batch.table, batch.pred.as_ref());
    let morsels = morsels_of(table);
    let workers = worker_count(table.rows, threads, morsels.len());

    let partials = run_workers(morsels.len(), workers, |w, chunks| {
        let mut span = tpcds_obs::span("storage", "agg_worker").field("worker", w);
        let detail = tpcds_obs::is_enabled() && detail_enabled();
        let mut map: GroupMap = HashMap::new();
        let mut sel = Vec::new();
        let mut done = 0usize;
        let mut failed: Option<StorageError> = None;
        while let Some(m) = chunks.next() {
            let _detail_span = detail.then(|| {
                tpcds_obs::span("storage", "agg_morsel")
                    .field("worker", w)
                    .field("morsel", m)
            });
            let (si, off, len) = morsels[m];
            if failed.is_some() {
                // An aggregate already failed, but the caller reports a
                // deferred *predicate* error first (the row path hits it
                // earlier): keep evaluating preds so the error cell ends
                // up complete, skipping the folds.
                if let Some(p) = pred {
                    let seg = &table.segments[si];
                    p.eval(seg, off, len, (si * SEGMENT_ROWS + off) as u64, &mut sel);
                }
                continue;
            }
            if let Err(e) = agg_morsel(table, si, off, len, pred, groups, aggs, &mut map, &mut sel)
            {
                failed = Some(e);
                continue;
            }
            done += 1;
        }
        span.add_field("morsels", done);
        failed.map_or(Ok(map), Err)
    });

    let merged = merge_partials(partials)?;
    let out = finish_groups(merged, groups.is_empty(), aggs);

    let stats = ScanStats {
        morsels: morsels.len() as u64,
        workers: workers as u64,
        rows_scanned: table.rows as u64,
        rows_out: out.len() as u64,
        bytes: table.bytes() as u64,
    };
    emit_counters(&stats);
    Ok((out, stats))
}

/// Group key → partial accumulators. Shared by the aggregate and
/// join-aggregate workers.
pub(crate) type GroupMap = HashMap<Vec<Value>, Vec<PAcc>>;

/// Merges per-worker group maps (commutative and exact, so merge order
/// does not affect the result).
pub(crate) fn merge_partials(
    partials: Vec<Result<GroupMap, StorageError>>,
) -> Result<GroupMap, StorageError> {
    let mut merged: GroupMap = HashMap::new();
    for part in partials {
        for (key, accs) in part? {
            match merged.entry(key) {
                std::collections::hash_map::Entry::Vacant(e) => {
                    e.insert(accs);
                }
                std::collections::hash_map::Entry::Occupied(mut e) => {
                    for (a, b) in e.get_mut().iter_mut().zip(accs) {
                        a.merge(b)?;
                    }
                }
            }
        }
    }
    Ok(merged)
}

/// Finalizes a merged group map into output rows sorted by key (so any
/// worker count yields the same bytes). A global aggregate (`global`)
/// over zero input rows still yields one default row, mirroring the
/// engine.
pub(crate) fn finish_groups(mut merged: GroupMap, global: bool, aggs: &[AggSpec]) -> Vec<Row> {
    if global {
        merged
            .entry(Vec::new())
            .or_insert_with(|| aggs.iter().map(|a| PAcc::new(a.kind)).collect());
    }
    let mut keyed: Vec<(Vec<Value>, Vec<PAcc>)> = merged.into_iter().collect();
    keyed.sort_by(|(a, _), (b, _)| {
        a.iter()
            .zip(b.iter())
            .map(|(x, y)| x.sort_cmp(y))
            .find(|o| *o != std::cmp::Ordering::Equal)
            .unwrap_or(std::cmp::Ordering::Equal)
    });
    let mut out = Vec::with_capacity(keyed.len());
    for (key, accs) in keyed {
        let mut row = key;
        for acc in accs {
            row.push(acc.finish());
        }
        out.push(row);
    }
    out
}

#[allow(clippy::too_many_arguments)]
fn agg_morsel(
    table: &ColumnTable,
    si: usize,
    off: usize,
    len: usize,
    pred: Option<&Pred>,
    groups: &[usize],
    aggs: &[AggSpec],
    map: &mut HashMap<Vec<Value>, Vec<PAcc>>,
    sel: &mut Vec<u8>,
) -> Result<(), StorageError> {
    let seg = &table.segments[si];
    let sel_slice: Option<&[u8]> = match pred {
        None => None,
        Some(p) => {
            p.eval(seg, off, len, (si * SEGMENT_ROWS + off) as u64, sel);
            Some(sel.as_slice())
        }
    };
    if groups.is_empty() {
        // Global aggregate: columnar fast path over the whole morsel.
        let accs = map
            .entry(Vec::new())
            .or_insert_with(|| aggs.iter().map(|a| PAcc::new(a.kind)).collect());
        for (spec, acc) in aggs.iter().zip(accs.iter_mut()) {
            let col = spec.col.map(|c| &seg.columns[c]);
            acc.update_range(col, off, len, sel_slice)?;
        }
        return Ok(());
    }
    for j in 0..len {
        if let Some(s) = sel_slice {
            if s[j] != P_TRUE {
                continue;
            }
        }
        let i = off + j;
        let key: Vec<Value> = groups.iter().map(|&g| seg.columns[g].value_at(i)).collect();
        let accs = map
            .entry(key)
            .or_insert_with(|| aggs.iter().map(|a| PAcc::new(a.kind)).collect());
        for (spec, acc) in aggs.iter().zip(accs.iter_mut()) {
            match spec.col {
                Some(c) => acc.update(Some(&seg.columns[c].value_at(i)))?,
                None => acc.update(None)?,
            }
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::agg::AggKind;
    use crate::pred::CmpKind;
    use crate::segment::{ColumnTableBuilder, SEGMENT_ROWS};
    use crate::Expr;
    use std::sync::Arc;
    use tpcds_types::{DataType, Decimal};

    fn batch(t: &Arc<ColumnTable>, pred: &Expr) -> Batch {
        Batch::new(Arc::clone(t)).filter(pred.clone())
    }

    /// ~1.5 segments of (id, bucket, amount, maybe-null flag) rows.
    fn table() -> Arc<ColumnTable> {
        let n = SEGMENT_ROWS + SEGMENT_ROWS / 2;
        let mut b = ColumnTableBuilder::new(vec![
            DataType::Int,
            DataType::Int,
            DataType::Decimal,
            DataType::Int,
        ]);
        for i in 0..n as i64 {
            let flag = if i % 11 == 0 {
                Value::Null
            } else {
                Value::Int(i % 3)
            };
            b.push_row(&[
                Value::Int(i),
                Value::Int(i % 10),
                Value::Decimal(Decimal::from_cents(i * 7)),
                flag,
            ]);
        }
        Arc::new(b.finish())
    }

    #[test]
    fn filter_is_order_preserving_and_thread_invariant() {
        let t = table();
        let pred = Expr::cmp(CmpKind::Lt, 1, Value::Int(3));
        let (serial, s1) = par_filter(&batch(&t, &pred), 1);
        for threads in [2, 5, 8] {
            let (par, sp) = par_filter(&batch(&t, &pred), threads);
            assert_eq!(par, serial, "threads={threads}");
            assert_eq!(sp.rows_out, s1.rows_out);
        }
        assert_eq!(s1.rows_scanned, t.rows as u64);
        assert!(s1.morsels >= (t.rows / MORSEL_ROWS) as u64);
        // Result really is table order.
        let ids: Vec<i64> = serial.iter().map(|r| r[0].as_int().unwrap()).collect();
        assert!(ids.windows(2).all(|w| w[0] < w[1]));
    }

    /// The first `limit` rows via [`scan_until`].
    fn first(b: &Batch, limit: usize) -> (Vec<Row>, ScanStats) {
        let mut out = Vec::new();
        let stats = scan_until(b, |row| {
            out.push(row);
            Ok::<_, ()>(out.len() < limit)
        });
        (out, stats.unwrap())
    }

    #[test]
    fn scan_until_visits_a_prefix_of_the_full_filter() {
        let t = table();
        let pred = Expr::cmp(CmpKind::Lt, 1, Value::Int(3));
        let (full, _) = par_filter(&batch(&t, &pred), 1);
        for limit in [1, 100, full.len(), full.len() + 10] {
            let (prefix, stats) = first(&batch(&t, &pred), limit);
            assert_eq!(prefix, full[..limit.min(full.len())], "limit={limit}");
            assert_eq!(stats.rows_out, prefix.len() as u64);
            if limit <= MORSEL_ROWS {
                assert!(
                    stats.rows_scanned < t.rows as u64,
                    "limit={limit} should short-circuit: {stats:?}"
                );
            }
        }
        // Unfiltered: the first rows of the table, without a full scan.
        let (prefix, stats) = first(&Batch::new(Arc::clone(&t)), 10);
        let ids: Vec<i64> = prefix.iter().map(|r| r[0].as_int().unwrap()).collect();
        assert_eq!(ids, (0..10).collect::<Vec<_>>());
        assert_eq!(stats.morsels, 1);
        // The visitor's own failure stops the scan and comes back as is.
        let mut seen = 0;
        let stop = scan_until(&batch(&t, &pred), |_| {
            seen += 1;
            if seen == 3 {
                Err("boom")
            } else {
                Ok(true)
            }
        });
        assert_eq!((stop, seen), (Err("boom"), 3));
    }

    #[test]
    fn aggregate_matches_serial_reference_at_any_worker_count() {
        let t = table();
        let pred = Expr::cmp(CmpKind::Ge, 0, Value::Int(5));
        let groups = [1usize];
        let aggs = [
            AggSpec {
                kind: AggKind::CountStar,
                col: None,
            },
            AggSpec {
                kind: AggKind::Sum,
                col: Some(2),
            },
            AggSpec {
                kind: AggKind::Count,
                col: Some(3),
            },
            AggSpec {
                kind: AggKind::Min,
                col: Some(0),
            },
            AggSpec {
                kind: AggKind::Avg,
                col: Some(2),
            },
        ];
        let (serial, _) = par_aggregate(&batch(&t, &pred), &groups, &aggs, 1).unwrap();
        assert_eq!(serial.len(), 10);
        for threads in [2, 4, 8] {
            let (par, _) = par_aggregate(&batch(&t, &pred), &groups, &aggs, threads).unwrap();
            assert_eq!(par, serial, "threads={threads}");
        }
    }

    #[test]
    fn global_aggregate_over_empty_selection_yields_default_row() {
        let t = table();
        let pred = Expr::cmp(CmpKind::Lt, 0, Value::Int(-1));
        let aggs = [
            AggSpec {
                kind: AggKind::CountStar,
                col: None,
            },
            AggSpec {
                kind: AggKind::Sum,
                col: Some(2),
            },
        ];
        let (rows, _) = par_aggregate(&batch(&t, &pred), &[], &aggs, 4).unwrap();
        assert_eq!(rows, vec![vec![Value::Int(0), Value::Null]]);
        // Grouped aggregate over an empty selection yields no rows.
        let (rows, _) = par_aggregate(&batch(&t, &pred), &[0], &aggs, 4).unwrap();
        assert!(rows.is_empty());
    }
}
