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

use crate::agg::AggSpec;
use crate::batch::Batch;
use crate::key::{arg_cols, merge_groups, GroupTable, KeyCols};
use crate::pred::{Pred, P_TRUE};
use crate::segment::{ColumnTable, SEGMENT_ROWS};
use crate::StorageError;
use std::sync::atomic::{AtomicUsize, Ordering};
use tpcds_types::Row;

/// Rows per morsel. Divides [`crate::SEGMENT_ROWS`].
pub const MORSEL_ROWS: usize = 8_192;

/// Below this row count the scan runs inline on the calling thread: the
/// work is smaller than the cost of spawning workers.
pub(crate) const INLINE_ROWS: usize = 16_384;

/// What one kernel call did — the one record every `par_*` kernel
/// returns. The engine folds it into the plan node's actuals (EXPLAIN
/// ANALYZE), and from there into the metrics registry.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct KernelStats {
    /// Morsels processed (probe-side morsels for a join).
    pub morsels: u64,
    /// Rows read: the whole table for a scan, the qualifying rows offered
    /// to a sort or Top-N.
    pub rows_in: u64,
    /// Approximate bytes of column data read.
    pub bytes: u64,
    /// Build rows kept in a join's hash tables (filter passed, no NULL
    /// key).
    pub build_rows: u64,
    /// Qualifying rows a Top-N's limit cut dropped without gathering
    /// them: cut from a worker's buffer, or worse than the worst it kept.
    pub pruned_rows: u64,
    /// Expression kernel launches: one per (expression, morsel) pair.
    pub expr_kernels: u64,
    /// Row-evaluations across those expression kernels.
    pub expr_rows: u64,
    /// Peak worker count (1 for inline execution).
    pub workers: u64,
    /// Hash-table partitions of a join.
    pub partitions: u64,
    /// Live-memory growth across a join's build phase, bytes — the
    /// hash-table footprint. 0 unless the process installed the counting
    /// allocator (`tpcds_obs::mem::CountingAlloc`).
    pub build_bytes: u64,
    /// Non-empty sorted runs a sort without a limit merged: one per
    /// morsel (per window call, the most any call merged).
    pub merge_ways: u64,
    /// Entries a Top-N's workers kept for the merge: each worker's buffer,
    /// cut to the limit.
    pub heap_rows: u64,
}

impl KernelStats {
    /// Folds another call's numbers into these: counts add, shapes
    /// (`workers`, `partitions`, `build_bytes`, `merge_ways`,
    /// `heap_rows`) keep the maximum.
    pub fn merge(&mut self, o: &KernelStats) {
        self.morsels += o.morsels;
        self.rows_in += o.rows_in;
        self.bytes += o.bytes;
        self.build_rows += o.build_rows;
        self.pruned_rows += o.pruned_rows;
        self.expr_kernels += o.expr_kernels;
        self.expr_rows += o.expr_rows;
        self.workers = self.workers.max(o.workers);
        self.partitions = self.partitions.max(o.partitions);
        self.build_bytes = self.build_bytes.max(o.build_bytes);
        self.merge_ways = self.merge_ways.max(o.merge_ways);
        self.heap_rows = self.heap_rows.max(o.heap_rows);
    }

    /// Every field with its name, in declaration order.
    pub fn fields(&self) -> [(&'static str, u64); 12] {
        [
            ("morsels", self.morsels),
            ("rows_in", self.rows_in),
            ("bytes", self.bytes),
            ("build_rows", self.build_rows),
            ("pruned_rows", self.pruned_rows),
            ("expr_kernels", self.expr_kernels),
            ("expr_rows", self.expr_rows),
            ("workers", self.workers),
            ("partitions", self.partitions),
            ("build_bytes", self.build_bytes),
            ("merge_ways", self.merge_ways),
            ("heap_rows", self.heap_rows),
        ]
    }

    /// A scan of the whole of `table` by `workers` workers.
    pub(crate) fn scan(table: &ColumnTable, morsels: usize, workers: usize) -> KernelStats {
        KernelStats {
            morsels: morsels as u64,
            workers: workers as u64,
            rows_in: table.rows as u64,
            bytes: table.bytes() as u64,
            ..KernelStats::default()
        }
    }
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

/// Runs `worker(chunks)` on `workers` scoped threads sharing one
/// [`Chunks`] cursor over `0..n` (inline on the calling thread when one
/// worker suffices), for kernels that fold chunks into per-worker state.
/// Returns one result per worker.
pub(crate) fn run_workers<T: Send>(
    n: usize,
    workers: usize,
    worker: impl Fn(&Chunks) -> T + Sync,
) -> Vec<T> {
    let chunks = Chunks {
        cursor: AtomicUsize::new(0),
        n,
    };
    if workers <= 1 {
        return vec![worker(&chunks)];
    }
    std::thread::scope(|s| {
        let handles: Vec<_> = (0..workers).map(|_| s.spawn(|| worker(&chunks))).collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    })
}

/// Runs `f(chunk_index)` for the independent chunks `0..n` on `workers`
/// threads pulling from one cursor (`run_workers`), returning the results
/// in chunk order. Work that is not a scan uses it too: the bulk load
/// runs one chunk per segment of every table.
pub fn run_chunks<T: Send, F: Fn(usize) -> T + Sync>(n: usize, workers: usize, f: F) -> Vec<T> {
    let slots: Vec<std::sync::Mutex<Option<T>>> =
        (0..n).map(|_| std::sync::Mutex::new(None)).collect();
    run_workers(n, workers, |chunks| {
        while let Some(m) = chunks.next() {
            *slots[m].lock().unwrap() = Some(f(m));
        }
    });
    slots
        .into_iter()
        .map(|m| m.into_inner().unwrap().expect("chunk ran"))
        .collect()
}

/// Materializes the batch: the rows passing its predicate, narrowed to
/// its visible columns, **in table order**, plus scan statistics. This is
/// the result edge — the one place column batches become rows.
pub fn par_filter(batch: &Batch, threads: usize) -> (Vec<Row>, KernelStats) {
    let (table, pred, proj) = (&*batch.table, batch.pred.as_ref(), batch.proj.as_deref());
    let morsels = morsels_of(table);
    let workers = worker_count(table.rows, threads, morsels.len());
    // Per-morsel output buffers, reassembled in morsel order so the
    // result is byte-identical to a serial scan.
    let parts = run_chunks(morsels.len(), workers, |m| {
        let (si, off, len) = morsels[m];
        filter_morsel(table, si, off, len, pred, proj)
    });
    let rows_out: usize = parts.iter().map(|p| p.len()).sum();
    let mut out = Vec::with_capacity(rows_out);
    for p in parts {
        out.extend(p);
    }
    (out, KernelStats::scan(table, morsels.len(), workers))
}

/// Feeds the batch's qualifying rows (visible columns) to `visit` **in
/// table order on the calling thread** until it returns `Ok(false)` or
/// fails — the ordered early exit behind `LIMIT`, which touches so few
/// morsels that worker fan-out would cost more than it saves. The rows
/// visited are exactly a prefix of what [`par_filter`] produces. Rows past
/// the stopping row are never reported: their deferred predicate errors
/// are cleared, as a serial row loop would never have evaluated them (an
/// error at or before it stays in the batch and outranks `visit`'s own).
/// `rows_in` and `bytes` count only what was actually visited.
pub fn scan_until<E>(
    batch: &Batch,
    mut visit: impl FnMut(Row) -> Result<bool, E>,
) -> Result<KernelStats, E> {
    let (table, pred, proj) = (&*batch.table, batch.pred.as_ref(), batch.proj.as_deref());
    let mut stats = KernelStats {
        workers: 1,
        ..KernelStats::default()
    };
    let mut sel = Vec::new();
    let mut verdict = Ok(true);
    'scan: for (si, off, len) in morsels_of(table) {
        let seg = &table.segments[si];
        let base = (si * SEGMENT_ROWS + off) as u64;
        stats.morsels += 1;
        stats.rows_in += len as u64;
        stats.bytes += (seg.bytes * len / seg.rows.max(1)) as u64;
        match pred {
            Some(p) => p.eval(seg, off, len, base, &mut sel),
            None => {
                sel.clear();
                sel.resize(len, P_TRUE);
            }
        }
        for (j, _) in sel.iter().enumerate().filter(|(_, &s)| s == P_TRUE) {
            verdict = visit(seg.row_of(off + j, proj));
            if !matches!(verdict, Ok(true)) {
                if let Some(p) = pred {
                    p.clear_err_from(base + j as u64 + 1);
                }
                break 'scan;
            }
        }
    }
    verdict.map(|_| stats)
}

/// The global ids of a morsel's rows that `sel` admits (all when `None`);
/// `base` is the morsel's first id.
pub(crate) fn selected(base: usize, len: usize, sel: Option<&[u8]>) -> Vec<u32> {
    (0..len)
        .filter(|&j| sel.is_none_or(|s| s[j] == P_TRUE))
        .map(|j| (base + j) as u32)
        .collect()
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
/// calls. The output table is `key columns ++ aggregate values`, sorted by
/// key (so any worker count yields the same bytes): each key column in its
/// declared type, read at the group's lowest row, and each aggregate typed
/// by its function. A global aggregate (`groups` empty) over zero matching
/// rows still yields one default row, mirroring the engine.
pub fn par_aggregate(
    batch: &Batch,
    groups: &[usize],
    aggs: &[AggSpec],
    threads: usize,
) -> Result<(ColumnTable, KernelStats), StorageError> {
    let (table, pred) = (&*batch.table, batch.pred.as_ref());
    let morsels = morsels_of(table);
    let workers = worker_count(table.rows, threads, morsels.len());
    let keys = KeyCols::of(table, groups);
    let args = KeyCols::of(table, &arg_cols(aggs));

    let partials = run_workers(morsels.len(), workers, |chunks| {
        let mut t = GroupTable::new(workers, aggs.len());
        let (mut sel, mut hashes) = (Vec::new(), Vec::new());
        let mut failed: Option<StorageError> = None;
        while let Some(m) = chunks.next() {
            let (si, off, len) = morsels[m];
            let seg = &table.segments[si];
            let base = si * SEGMENT_ROWS + off;
            // After an aggregate failed the predicate still runs, skipping
            // the folds: the caller reports a deferred *predicate* error
            // first (the row path hits it earlier), so its cell must end
            // up complete.
            let sel = pred.map(|p| {
                p.eval(seg, off, len, base as u64, &mut sel);
                sel.as_slice()
            });
            if failed.is_none() {
                let ids = selected(base, len, sel);
                failed = t.fold(&ids, &keys, &args, aggs, &mut hashes).err();
            }
        }
        failed.map_or(Ok(t), Err)
    });

    let out = merge_groups(partials, &keys, workers)?.finish(&keys, &args, aggs);
    Ok((out, KernelStats::scan(table, morsels.len(), workers)))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::agg::AggKind;
    use crate::segment::{ColumnTableBuilder, SEGMENT_ROWS};
    use crate::CmpKind;
    use crate::Expr;
    use std::sync::Arc;
    use tpcds_types::{DataType, Decimal, Value};

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
            assert_eq!(sp.rows_in, s1.rows_in);
        }
        assert_eq!(s1.rows_in, t.rows as u64);
        assert!(s1.morsels >= (t.rows / MORSEL_ROWS) as u64);
        // Result really is table order.
        let ids: Vec<i64> = serial.iter().map(|r| r[0].as_int().unwrap()).collect();
        assert!(ids.windows(2).all(|w| w[0] < w[1]));
    }

    /// The first `limit` rows via [`scan_until`].
    fn first(b: &Batch, limit: usize) -> (Vec<Row>, KernelStats) {
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
            if limit <= MORSEL_ROWS {
                assert!(
                    stats.rows_in < t.rows as u64,
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
        let rows = |threads| {
            let (out, _) = par_aggregate(&batch(&t, &pred), &groups, &aggs, threads).unwrap();
            out.iter_rows().collect::<Vec<_>>()
        };
        let serial = rows(1);
        assert_eq!(serial.len(), 10);
        for threads in [2, 4, 8] {
            assert_eq!(rows(threads), serial, "threads={threads}");
        }
    }

    /// The output is typed by its inputs, not guessed from its values:
    /// a `Decimal` key whose first (NULL) group sorts first stays a
    /// `Decimal` column, and each aggregate is typed by its function.
    #[test]
    fn aggregate_columns_keep_their_declared_types() {
        let mut b = crate::segment::ColumnTableBuilder::new(vec![DataType::Decimal, DataType::Int]);
        for i in 0..100i64 {
            let key = match i % 4 {
                0 => Value::Null,
                k => Value::Decimal(Decimal::from_cents(k * 150)),
            };
            b.push_row(&[key, Value::Int(i)]);
        }
        let t = Arc::new(b.finish());
        let call = |kind, col| AggSpec {
            kind,
            col: Some(col),
        };
        let aggs = [
            call(AggKind::Count, 0),
            call(AggKind::Sum, 1),
            call(AggKind::Sum, 0),
            call(AggKind::Max, 0),
            call(AggKind::Avg, 1),
        ];
        let (out, _) = par_aggregate(&Batch::new(t), &[0], &aggs, 1).unwrap();
        let rows: Vec<Row> = out.iter_rows().collect();
        assert_eq!(rows.len(), 4);
        assert_eq!(
            rows[0][..2],
            [Value::Null, Value::Int(0)],
            "NULL sorts first"
        );
        use DataType::{Decimal as D, Int as I};
        assert_eq!(out.dtypes, [D, I, I, D, D, D]);
        let col = &out.segments[0].columns[0];
        assert!(matches!(col.data, crate::ColumnData::Decimal(_)));
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
        let (out, _) = par_aggregate(&batch(&t, &pred), &[], &aggs, 4).unwrap();
        let rows: Vec<Row> = out.iter_rows().collect();
        assert_eq!(rows, vec![vec![Value::Int(0), Value::Null]]);
        assert_eq!(out.dtypes, [DataType::Int, DataType::Decimal]);
        // Grouped aggregate over an empty selection yields no rows.
        let (out, _) = par_aggregate(&batch(&t, &pred), &[0], &aggs, 4).unwrap();
        assert_eq!(out.rows, 0);
    }
}
