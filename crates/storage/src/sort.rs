//! Morsel-driven parallel Top-N, full sort and window functions.
//!
//! Every TPC-DS template ends in `ORDER BY … LIMIT 100`, so the ordering
//! tail must scale like the scan/join/aggregate kernels. Three kernels:
//!
//! * **Top-N** ([`par_topn`]): each worker keeps a bounded heap of the
//!   best `limit` entries seen across the morsels it pulls; heaps merge
//!   commutatively at the end (concatenate + sort + truncate). Rows that
//!   never displace a heap entry are pruned without ever being gathered.
//! * **Full sort** ([`par_sort`]): each morsel becomes one sorted run in
//!   parallel; a serial k-way merge zips the runs.
//! * **Window** ([`par_window`]): per call, the full sort's runs and
//!   merge over (partition keys, order keys), then one serial walk of
//!   that order folding [`PAcc`] per peer group.
//!
//! All sort row ids and emit a fresh table by typed column gather
//! ([`crate::batch`]), so the results stay columnar for whatever
//! consumes them.
//!
//! Determinism: entries compare by encoded/extracted key first and by
//! **global row index** on ties, which is a total order — so any worker
//! count (and any morsel arrival order) produces exactly the bytes a
//! stable serial sort of the input would. Sort-key comparison mirrors
//! `Value::sort_cmp` (NULLs first ascending, last descending); dense
//! `i64`/date key columns are encoded into order-preserving `u64` words
//! compared memcmp-style, everything else falls back to the
//! [`Value`]-comparator path.

use crate::agg::{AggKind, PAcc};
use crate::batch::{gather, Batch, Take, NO_ROW};
use crate::column::ColumnData;
use crate::morsel::{detail_enabled, morsels_of, run_chunks, run_workers, worker_count, Chunks};
use crate::pred::{Pred, P_TRUE};
use crate::segment::{ColumnTable, Segment, SEGMENT_ROWS};
use crate::{StorageError, MORSEL_ROWS};
use std::cmp::Ordering;
use tpcds_types::Value;

/// One sort key: a column index plus direction.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct SortKey {
    /// Physical column index into the batch's table.
    pub col: usize,
    /// Descending order.
    pub desc: bool,
}

/// A window function.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum WinFunc {
    /// An aggregate over the partition — or, with ORDER BY, over the
    /// partition's rows up to the current row's last peer (the default
    /// frame).
    Agg(AggKind),
    /// RANK(): one more than the partition's rows ahead of the peer group.
    Rank,
    /// DENSE_RANK(): the peer group's number within the partition.
    DenseRank,
    /// ROW_NUMBER(): the row's number within the partition.
    RowNumber,
}

/// One window call over a batch's physical columns.
#[derive(Clone, Debug)]
pub struct WinSpec {
    /// The function.
    pub func: WinFunc,
    /// Argument column; `None` for COUNT(*) and the rank family.
    pub arg: Option<usize>,
    /// The PARTITION BY columns (ascending), then the ORDER BY keys.
    pub keys: Vec<SortKey>,
    /// How many leading `keys` are PARTITION BY columns.
    pub partition: usize,
}

/// What one sort/Top-N kernel invocation did — surfaced in obs counters
/// and the engine's EXPLAIN ANALYZE output.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct SortStats {
    /// Morsels processed.
    pub morsels: u64,
    /// Workers that ran (1 for inline execution).
    pub workers: u64,
    /// Rows that qualified (passed the predicate) and were offered to the
    /// sort.
    pub rows_in: u64,
    /// Rows produced.
    pub rows_out: u64,
    /// Sorted runs fed to the k-way merge (0 for Top-N).
    pub merge_ways: u64,
    /// Total entries held across all per-worker Top-N heaps at the merge
    /// point (0 for full sort).
    pub heap_rows: u64,
    /// Qualifying rows the bounded heaps rejected without materializing
    /// (0 for full sort).
    pub pruned_rows: u64,
}

/// One candidate row: its sort key plus an id that breaks ties (making
/// the comparison a total order — the determinism argument): the global
/// row index, or for a window the row's output position, which orders
/// rows the same way.
struct Entry {
    key: Key,
    gid: usize,
}

/// A per-row sort key. One kernel invocation uses a single variant for
/// every row, decided up front by [`encodable`].
enum Key {
    /// Order-preserving `u64` words, two per sort key (null rank, then
    /// value), direction folded in by bitwise inversion. Compared
    /// memcmp-style.
    Enc(Vec<u64>),
    /// Extracted values compared with [`Value::sort_cmp`] per key.
    Val(Vec<Value>),
}

fn cmp_vals(a: &[Value], b: &[Value], keys: &[SortKey]) -> Ordering {
    for (i, k) in keys.iter().enumerate() {
        let ord = a[i].sort_cmp(&b[i]);
        let ord = if k.desc { ord.reverse() } else { ord };
        if ord != Ordering::Equal {
            return ord;
        }
    }
    Ordering::Equal
}

fn cmp_entries(a: &Entry, b: &Entry, keys: &[SortKey]) -> Ordering {
    let ord = match (&a.key, &b.key) {
        (Key::Enc(x), Key::Enc(y)) => x.cmp(y),
        (Key::Val(x), Key::Val(y)) => cmp_vals(x, y, keys),
        // One invocation never mixes variants.
        _ => Ordering::Equal,
    };
    ord.then(a.gid.cmp(&b.gid))
}

/// Whether every key column is a dense fixed-width buffer in every
/// segment, so keys can be encoded as order-preserving `u64` words.
/// Variable-length strings and scale-carrying decimals keep the value
/// comparator.
fn encodable(table: &ColumnTable, keys: &[SortKey]) -> bool {
    table.segments.iter().all(|s| {
        keys.iter().all(|k| {
            matches!(
                s.columns[k.col].data,
                ColumnData::I64(_) | ColumnData::Date(_)
            )
        })
    })
}

/// Builds the key for row `i` of `seg`. Encoded form: per key a null-rank
/// word (NULL = 0, so NULLs sort first ascending — matching
/// `Value::sort_cmp`) then a sign-flipped value word; descending keys
/// invert both words, which reverses their order (and puts NULLs last).
fn key_of(seg: &Segment, i: usize, keys: &[SortKey], enc: bool) -> Key {
    if enc {
        let mut words = Vec::with_capacity(keys.len() * 2);
        for k in keys {
            let col = &seg.columns[k.col];
            let (mut rank, mut word) = if col.nulls.get(i) {
                (0u64, 0u64)
            } else {
                let raw = match &col.data {
                    ColumnData::I64(buf) => buf[i],
                    ColumnData::Date(buf) => buf[i].day_number() as i64,
                    // `encodable` checked every segment.
                    _ => unreachable!("non-encodable key column"),
                };
                (1u64, (raw as u64) ^ (1u64 << 63))
            };
            if k.desc {
                rank = !rank;
                word = !word;
            }
            words.push(rank);
            words.push(word);
        }
        Key::Enc(words)
    } else {
        Key::Val(
            keys.iter()
                .map(|k| seg.columns[k.col].value_at(i))
                .collect(),
        )
    }
}

/// Whether two keys agree on their first `n` sort keys under `Value`
/// equality (NULL equals NULL, as in grouping): equal words, or equal
/// values.
fn same_key(a: &Key, b: &Key, n: usize) -> bool {
    match (a, b) {
        (Key::Enc(x), Key::Enc(y)) => x[..2 * n] == y[..2 * n],
        (Key::Val(x), Key::Val(y)) => x[..n] == y[..n],
        _ => false,
    }
}

/// The batch's visible columns at row `ids`.
fn take<'a>(batch: &'a Batch, ids: &'a [u32]) -> Take<'a> {
    Take {
        table: &batch.table,
        cols: batch.cols(),
        ids,
    }
}

// ---------- bounded heap (Top-N) ----------

/// Offers an entry to a bounded worst-at-root heap of capacity `cap`.
/// Returns whether the entry was kept.
fn heap_offer(heap: &mut Vec<Entry>, cap: usize, e: Entry, keys: &[SortKey]) -> bool {
    if cap == 0 {
        return false;
    }
    if heap.len() < cap {
        heap.push(e);
        let last = heap.len() - 1;
        sift_up(heap, last, keys);
        return true;
    }
    if cmp_entries(&e, &heap[0], keys) == Ordering::Less {
        heap[0] = e;
        sift_down(heap, 0, keys);
        return true;
    }
    false
}

fn sift_up(heap: &mut [Entry], mut i: usize, keys: &[SortKey]) {
    while i > 0 {
        let parent = (i - 1) / 2;
        if cmp_entries(&heap[i], &heap[parent], keys) == Ordering::Greater {
            heap.swap(i, parent);
            i = parent;
        } else {
            break;
        }
    }
}

fn sift_down(heap: &mut [Entry], mut i: usize, keys: &[SortKey]) {
    loop {
        let (l, r) = (2 * i + 1, 2 * i + 2);
        let mut biggest = i;
        if l < heap.len() && cmp_entries(&heap[l], &heap[biggest], keys) == Ordering::Greater {
            biggest = l;
        }
        if r < heap.len() && cmp_entries(&heap[r], &heap[biggest], keys) == Ordering::Greater {
            biggest = r;
        }
        if biggest == i {
            break;
        }
        heap.swap(i, biggest);
        i = biggest;
    }
}

// ---------- k-way merge (full sort) ----------

/// One sorted run being consumed by the merge.
struct RunCursor {
    head: Option<Entry>,
    rest: std::vec::IntoIter<Entry>,
}

/// Merges sorted runs into one sorted sequence with a min-heap of run
/// cursors. Entry comparison is a total order (gid tie-break), so the
/// output is independent of run arrival order.
fn kway_merge(runs: Vec<Vec<Entry>>, keys: &[SortKey]) -> Vec<Entry> {
    let total: usize = runs.iter().map(|r| r.len()).sum();
    let mut cursors: Vec<RunCursor> = runs
        .into_iter()
        .filter_map(|r| {
            let mut rest = r.into_iter();
            rest.next().map(|head| RunCursor {
                head: Some(head),
                rest,
            })
        })
        .collect();
    let less = |cursors: &[RunCursor], a: usize, b: usize| {
        let (ha, hb) = (
            cursors[a].head.as_ref().expect("live cursor"),
            cursors[b].head.as_ref().expect("live cursor"),
        );
        cmp_entries(ha, hb, keys) == Ordering::Less
    };
    let sift = |heap: &mut [usize], cursors: &[RunCursor], mut i: usize| loop {
        let (l, r) = (2 * i + 1, 2 * i + 2);
        let mut smallest = i;
        if l < heap.len() && less(cursors, heap[l], heap[smallest]) {
            smallest = l;
        }
        if r < heap.len() && less(cursors, heap[r], heap[smallest]) {
            smallest = r;
        }
        if smallest == i {
            break;
        }
        heap.swap(i, smallest);
        i = smallest;
    };

    let mut heap: Vec<usize> = (0..cursors.len()).collect();
    for i in (0..heap.len() / 2).rev() {
        sift(&mut heap, &cursors, i);
    }
    let mut out = Vec::with_capacity(total);
    while let Some(&top) = heap.first() {
        let next = cursors[top].rest.next();
        let done = std::mem::replace(&mut cursors[top].head, next);
        out.push(done.expect("live cursor"));
        if cursors[top].head.is_none() {
            let last = heap.pop().expect("non-empty heap");
            if !heap.is_empty() {
                heap[0] = last;
            }
        }
        if !heap.is_empty() {
            sift(&mut heap, &cursors, 0);
        }
    }
    out
}

// ---------- observability ----------

fn emit_counters(stats: &SortStats, topn: bool) {
    if !tpcds_obs::is_enabled() {
        return;
    }
    let w = [("workers", tpcds_obs::FieldValue::Int(stats.workers as i64))];
    tpcds_obs::counter("storage", "sort.rows", stats.rows_in as f64, &w);
    if topn {
        tpcds_obs::counter("storage", "topn.heap_peak", stats.heap_rows as f64, &w);
        tpcds_obs::counter("storage", "topn.pruned_rows", stats.pruned_rows as f64, &w);
    } else {
        tpcds_obs::counter("storage", "sort.merge_ways", stats.merge_ways as f64, &w);
    }
}

// ---------- Top-N over a column table ----------

/// What one Top-N worker hands back for the commutative merge.
struct TopNPart {
    entries: Vec<Entry>,
    qualifying: u64,
}

#[allow(clippy::too_many_arguments)]
fn topn_worker(
    w: usize,
    chunks: &Chunks,
    table: &ColumnTable,
    morsels: &[(usize, usize, usize)],
    pred: Option<&Pred>,
    keys: &[SortKey],
    enc: bool,
    limit: usize,
) -> TopNPart {
    let mut span = tpcds_obs::span("storage", "topn_worker").field("worker", w);
    let detail = tpcds_obs::is_enabled() && detail_enabled();
    let mut heap: Vec<Entry> = Vec::with_capacity(limit.min(4096));
    let mut qualifying = 0u64;
    let mut sel = Vec::new();
    let mut done = 0usize;
    while let Some(m) = chunks.next() {
        let _detail_span = detail.then(|| {
            tpcds_obs::span("storage", "topn_morsel")
                .field("worker", w)
                .field("morsel", m)
        });
        let (si, off, len) = morsels[m];
        let seg = &table.segments[si];
        let sel_slice: Option<&[u8]> = match pred {
            None => None,
            Some(p) => {
                p.eval(seg, off, len, (si * SEGMENT_ROWS + off) as u64, &mut sel);
                Some(sel.as_slice())
            }
        };
        for j in 0..len {
            if let Some(s) = sel_slice {
                if s[j] != P_TRUE {
                    continue;
                }
            }
            qualifying += 1;
            let i = off + j;
            let gid = si * SEGMENT_ROWS + i;
            heap_offer(
                &mut heap,
                limit,
                Entry {
                    key: key_of(seg, i, keys, enc),
                    gid,
                },
                keys,
            );
        }
        done += 1;
    }
    span.add_field("morsels", done);
    TopNPart {
        entries: heap,
        qualifying,
    }
}

/// Parallel Top-N: the first `limit` of the batch's qualifying rows under
/// a stable sort by `keys`, as a table of the batch's visible columns.
///
/// Output is byte-identical at any worker count: entries order by (key,
/// global row index), a total order, and the heap merge is a full sort of
/// the union of the per-worker survivors.
pub fn par_topn(
    batch: &Batch,
    keys: &[SortKey],
    limit: usize,
    threads: usize,
) -> (ColumnTable, SortStats) {
    assert!(batch.table.id_end() <= NO_ROW as usize, "row ids are u32");
    let (table, pred) = (&*batch.table, batch.pred.as_ref());
    let morsels = morsels_of(table);
    let workers = worker_count(table.rows, threads, morsels.len());
    let enc = encodable(table, keys);

    let parts = run_workers(morsels.len(), workers, |w, chunks| {
        topn_worker(w, chunks, table, &morsels, pred, keys, enc, limit)
    });

    let qualifying: u64 = parts.iter().map(|p| p.qualifying).sum();
    let heap_rows: u64 = parts.iter().map(|p| p.entries.len() as u64).sum();
    let mut entries: Vec<Entry> = Vec::with_capacity(heap_rows as usize);
    for p in parts {
        entries.extend(p.entries);
    }
    entries.sort_unstable_by(|a, b| cmp_entries(a, b, keys));
    entries.truncate(limit);

    let stats = SortStats {
        morsels: morsels.len() as u64,
        workers: workers as u64,
        rows_in: qualifying,
        rows_out: entries.len() as u64,
        merge_ways: 0,
        heap_rows,
        pruned_rows: qualifying - heap_rows,
    };
    emit_counters(&stats, true);
    let ids: Vec<u32> = entries.iter().map(|e| e.gid as u32).collect();
    (gather(&[take(batch, &ids)], threads), stats)
}

// ---------- full sort over a column table ----------

/// Sorts each of `chunks` lists of `(id, global row)` pairs — `rows(c)` —
/// into a run by key and id, in parallel, then k-way merges the runs.
/// Returns the merged entries (each carrying its id) and how many runs
/// were non-empty.
fn merged_runs(
    table: &ColumnTable,
    keys: &[SortKey],
    chunks: usize,
    workers: usize,
    rows: impl Fn(usize) -> Vec<(usize, usize)> + Sync,
) -> (Vec<Entry>, u64) {
    let enc = encodable(table, keys);
    let runs = run_chunks("sort_worker", chunks, workers, |c| {
        let mut run: Vec<Entry> = (rows(c).into_iter())
            .map(|(gid, row)| Entry {
                key: key_of(
                    &table.segments[row / SEGMENT_ROWS],
                    row % SEGMENT_ROWS,
                    keys,
                    enc,
                ),
                gid,
            })
            .collect();
        run.sort_unstable_by(|a, b| cmp_entries(a, b, keys));
        run
    });
    let merge_ways = runs.iter().filter(|r| !r.is_empty()).count() as u64;
    (kway_merge(runs, keys), merge_ways)
}

/// The global ids of the batch's qualifying rows sorted by `keys`, ties
/// in table order: per-morsel sorted runs in parallel, then a serial k-way
/// merge. The pending predicate runs once per morsel.
fn sorted_ids(batch: &Batch, keys: &[SortKey], threads: usize) -> (Vec<u32>, SortStats) {
    assert!(batch.table.id_end() <= NO_ROW as usize, "row ids are u32");
    let (table, pred) = (&*batch.table, batch.pred.as_ref());
    let morsels = morsels_of(table);
    let workers = worker_count(table.rows, threads, morsels.len());
    let detail = tpcds_obs::is_enabled() && detail_enabled();
    let (merged, merge_ways) = merged_runs(table, keys, morsels.len(), workers, |m| {
        let _detail_span =
            detail.then(|| tpcds_obs::span("storage", "sort_morsel").field("morsel", m));
        let (si, off, len) = morsels[m];
        let mut sel = Vec::new();
        if let Some(p) = pred {
            let base = (si * SEGMENT_ROWS + off) as u64;
            p.eval(&table.segments[si], off, len, base, &mut sel);
        }
        (off..off + len)
            .filter(|i| pred.is_none() || sel[i - off] == P_TRUE)
            .map(|i| (si * SEGMENT_ROWS + i, si * SEGMENT_ROWS + i))
            .collect()
    });
    let stats = SortStats {
        morsels: morsels.len() as u64,
        workers: workers as u64,
        rows_in: merged.len() as u64,
        rows_out: merged.len() as u64,
        merge_ways,
        heap_rows: 0,
        pruned_rows: 0,
    };
    (merged.iter().map(|e| e.gid as u32).collect(), stats)
}

/// Parallel full sort of the batch's qualifying rows ([`sorted_ids`]);
/// emits a table of the batch's visible columns. Byte-identical at any
/// worker count (total entry order, and run `m` always holds morsel `m`'s
/// rows regardless of which worker sorted it).
pub fn par_sort(batch: &Batch, keys: &[SortKey], threads: usize) -> (ColumnTable, SortStats) {
    let (ids, stats) = sorted_ids(batch, keys, threads);
    emit_counters(&stats, false);
    (gather(&[take(batch, &ids)], threads), stats)
}

// ---------- window functions over a column table ----------

/// Window functions: the batch's qualifying rows — its visible columns
/// plus one column per call — in table order, as the row operator
/// returns them. Each call sorts the rows by its keys, ties in table
/// order, through [`par_sort`]'s runs and merge over morsel-sized chunks,
/// and walks that order once ([`walk`]). Byte-identical at any worker
/// count.
pub fn par_window(
    batch: &Batch,
    calls: &[WinSpec],
    threads: usize,
) -> Result<(ColumnTable, SortStats), StorageError> {
    // The rows in table order (a sort on no keys): the predicate runs
    // once, and a row's index here is its output position.
    let (ids, mut stats) = sorted_ids(batch, &[], threads);
    let table = &*batch.table;
    let chunks = ids.len().div_ceil(MORSEL_ROWS);
    let workers = worker_count(ids.len(), threads, chunks);
    let mut rows = vec![vec![Value::Null; calls.len()]; ids.len()];
    for (c, call) in calls.iter().enumerate() {
        let (order, ways) = merged_runs(table, &call.keys, chunks, workers, |k| {
            let at = k * MORSEL_ROWS..ids.len().min((k + 1) * MORSEL_ROWS);
            at.map(|p| (p, ids[p] as usize)).collect()
        });
        stats.merge_ways = stats.merge_ways.max(ways);
        let arg = |p: usize| call.arg.map(|col| table.value(ids[p] as usize, col));
        walk(call, &order, arg, |p, v| rows[p][c] = v)?;
    }
    emit_counters(&stats, false);
    let values = Batch::from_rows(calls.len(), &rows);
    let all: Vec<u32> = (0..ids.len() as u32).collect();
    let computed = Take {
        table: &values.table,
        cols: (0..calls.len()).collect(),
        ids: &all,
    };
    Ok((gather(&[take(batch, &ids), computed], threads), stats))
}

/// One call's values along `order` — its rows sorted by its keys, each
/// entry's id the row's output position — handed to `put`. A partition
/// (rows equal on the PARTITION BY keys) restarts ranks and the
/// accumulator; a peer group (rows equal on every key) shares one value:
/// the rank of its first row, or the aggregate folded through its last,
/// which without ORDER BY is the whole partition. `arg` reads a row's
/// argument (`None` for COUNT(*)).
fn walk(
    call: &WinSpec,
    order: &[Entry],
    arg: impl Fn(usize) -> Option<Value>,
    mut put: impl FnMut(usize, Value),
) -> Result<(), StorageError> {
    let (mut start, mut at, mut dense) = (0, 0, 0);
    let mut acc = None;
    for peers in order.chunk_by(|a, b| same_key(&a.key, &b.key, call.keys.len())) {
        if at == 0 || !same_key(&order[at - 1].key, &peers[0].key, call.partition) {
            (start, dense, acc) = (at, 0, None);
        }
        dense += 1;
        let value = match call.func {
            WinFunc::Agg(kind) => {
                let acc = acc.get_or_insert_with(|| PAcc::new(kind));
                for e in peers {
                    acc.update(arg(e.gid).as_ref())?;
                }
                acc.clone().finish()
            }
            WinFunc::Rank => Value::Int((at - start + 1) as i64),
            WinFunc::DenseRank => Value::Int(dense),
            WinFunc::RowNumber => Value::Null,
        };
        for (j, e) in peers.iter().enumerate() {
            put(
                e.gid,
                match call.func {
                    WinFunc::RowNumber => Value::Int((at + j - start + 1) as i64),
                    _ => value.clone(),
                },
            );
        }
        at += peers.len();
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pred::CmpKind;
    use crate::segment::ColumnTableBuilder;
    use crate::Expr;
    use std::sync::Arc;
    use tpcds_types::{DataType, Decimal, Row};

    /// ~1.5 segments of (id, bucket, amount, flag) rows: heavy key
    /// duplication in `bucket`, NULLs in `flag`.
    fn table() -> Batch {
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
                Value::Int((i * 37) % 10),
                Value::Decimal(Decimal::from_cents((i * 7) % 1000)),
                flag,
            ]);
        }
        Batch::new(Arc::new(b.finish()))
    }

    fn rows_of(t: ColumnTable) -> Vec<Row> {
        crate::par_filter(&Batch::new(Arc::new(t)), 1).0
    }

    fn topn(b: &Batch, keys: &[SortKey], limit: usize, threads: usize) -> (Vec<Row>, SortStats) {
        let (t, stats) = par_topn(b, keys, limit, threads);
        (rows_of(t), stats)
    }

    fn sort(b: &Batch, keys: &[SortKey], threads: usize) -> (Vec<Row>, SortStats) {
        let (t, stats) = par_sort(b, keys, threads);
        (rows_of(t), stats)
    }

    /// Serial oracle: filter in table order, stable sort on the physical
    /// key columns, project, truncate.
    fn reference(b: &Batch, keys: &[SortKey], limit: Option<usize>) -> Vec<Row> {
        let unprojected = Batch {
            proj: None,
            ..b.clone()
        };
        let (mut rows, _) = crate::par_filter(&unprojected, 1);
        rows.sort_by(|a, b| {
            keys.iter()
                .map(|k| {
                    let o = a[k.col].sort_cmp(&b[k.col]);
                    if k.desc {
                        o.reverse()
                    } else {
                        o
                    }
                })
                .find(|o| *o != Ordering::Equal)
                .unwrap_or(Ordering::Equal)
        });
        rows.truncate(limit.unwrap_or(usize::MAX));
        rows.iter()
            .map(|r| b.cols().iter().map(|&c| r[c].clone()).collect())
            .collect()
    }

    #[test]
    fn topn_matches_stable_reference_at_any_worker_count() {
        let keys = [
            SortKey { col: 1, desc: true },
            SortKey {
                col: 3,
                desc: false,
            },
        ];
        let t = table().filter(Expr::cmp(CmpKind::Ge, 0, Value::Int(5)));
        let expect = reference(&t, &keys, Some(100));
        for threads in [1, 2, 8] {
            let (rows, stats) = topn(&t, &keys, 100, threads);
            assert_eq!(rows, expect, "threads={threads}");
            assert_eq!(stats.rows_out, 100);
            assert!(stats.pruned_rows > 0, "heaps should prune: {stats:?}");
            assert_eq!(stats.rows_in, stats.heap_rows + stats.pruned_rows);
        }
    }

    #[test]
    fn topn_emits_only_the_projected_columns() {
        // Project (amount, id); sort by amount desc — a physical column
        // the projection reorders. Decimal keys use the value comparator.
        let t = table().project(&[2, 0]);
        let keys = [SortKey { col: 2, desc: true }];
        let expect = reference(&t, &keys, Some(50));
        assert_eq!(expect[0].len(), 2);
        for threads in [1, 4] {
            let (rows, _) = topn(&t, &keys, 50, threads);
            assert_eq!(rows, expect, "threads={threads}");
        }
    }

    #[test]
    fn topn_limit_edge_cases() {
        let t = table();
        let keys = [SortKey {
            col: 0,
            desc: false,
        }];
        let (rows, stats) = topn(&t, &keys, 0, 4);
        assert!(rows.is_empty());
        assert_eq!(stats.heap_rows, 0);
        let n = t.table.rows;
        let (rows, stats) = topn(&t, &keys, n + 10, 4);
        assert_eq!(rows.len(), n);
        assert_eq!(stats.pruned_rows, 0);
        assert_eq!(rows, reference(&t, &keys, None));
    }

    #[test]
    fn full_sort_matches_reference_and_counts_merge_ways() {
        let keys = [
            SortKey {
                col: 1,
                desc: false,
            },
            SortKey { col: 0, desc: true },
        ];
        let t = table().filter(Expr::cmp(CmpKind::Lt, 1, Value::Int(7)));
        let expect = reference(&t, &keys, None);
        for threads in [1, 2, 8] {
            let (rows, stats) = sort(&t, &keys, threads);
            assert_eq!(rows, expect, "threads={threads}");
            assert!(stats.merge_ways > 1, "{stats:?}");
            assert_eq!(stats.rows_out as usize, expect.len());
        }
    }

    #[test]
    fn null_keys_sort_first_asc_last_desc() {
        let t = table();
        let asc = [SortKey {
            col: 3,
            desc: false,
        }];
        let (rows, _) = topn(&t, &asc, 5, 4);
        assert!(rows.iter().all(|r| r[3].is_null()), "NULLs first asc");
        let desc = [SortKey { col: 3, desc: true }];
        let (rows, _) = sort(&t, &desc, 4);
        assert!(rows.last().unwrap()[3].is_null(), "NULLs last desc");
        assert!(!rows[0][3].is_null());
    }

    #[test]
    fn encoded_and_value_paths_agree() {
        // Same logical data once as dense i64 (encoded path) and once as
        // the Other buffer (value path): identical output.
        let n = 10_000i64;
        let mut dense = ColumnTableBuilder::new(vec![DataType::Int, DataType::Int]);
        let mut boxed = ColumnTableBuilder::new(vec![DataType::Bool, DataType::Bool]);
        for i in 0..n {
            let v = if i % 13 == 0 {
                Value::Null
            } else {
                Value::Int((i * 31) % 97 - 48)
            };
            let row = [v, Value::Int(i)];
            dense.push_row(&row);
            boxed.push_row(&row);
        }
        let dense = Batch::new(Arc::new(dense.finish()));
        let boxed = Batch::new(Arc::new(boxed.finish()));
        assert!(matches!(
            boxed.table.segments[0].columns[0].data,
            ColumnData::Other(_)
        ));
        for desc in [false, true] {
            let keys = [SortKey { col: 0, desc }];
            let (a, _) = topn(&dense, &keys, 200, 4);
            let (b, _) = topn(&boxed, &keys, 200, 4);
            assert_eq!(a, b, "desc={desc}");
            let (a, _) = sort(&dense, &keys, 4);
            let (b, _) = sort(&boxed, &keys, 4);
            assert_eq!(a, b, "desc={desc}");
        }
    }

    /// An operator's wrapped rows (an intermediate batch, not a base table)
    /// sort like a stable serial sort, at any worker count.
    #[test]
    fn wrapped_rows_match_stable_sort() {
        let rows: Vec<Row> = (0..40_000i64)
            .map(|i| {
                vec![
                    Value::Int((i * 17) % 23),
                    if i % 7 == 0 {
                        Value::Null
                    } else {
                        Value::Int(i)
                    },
                ]
            })
            .collect();
        let keys = [
            SortKey { col: 0, desc: true },
            SortKey {
                col: 1,
                desc: false,
            },
        ];
        let t = Batch::from_rows(2, &rows);
        let expect = reference(&t, &keys, None);
        for threads in [1, 2, 8] {
            let (sorted, stats) = sort(&t, &keys, threads);
            assert_eq!(sorted, expect, "threads={threads}");
            assert!(stats.merge_ways >= 1);
            let (top, stats) = topn(&t, &keys, 123, threads);
            assert_eq!(top, expect[..123], "threads={threads}");
            assert_eq!(stats.rows_out, 123);
        }
    }
}
