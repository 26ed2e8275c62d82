//! Morsel-driven parallel sort (with or without a limit) and window
//! functions.
//!
//! Every TPC-DS template ends in `ORDER BY … LIMIT 100`, so the ordering
//! tail must scale like the scan/join/aggregate kernels. One kernel,
//! [`par_sort`], does both jobs on std's sorts:
//!
//! * **Runs.** Each morsel's qualifying rows become a run of row-id
//!   entries, sorted in parallel.
//! * **The limit cut.** With a limit `n`, a worker keeps one buffer over
//!   the morsels it pulls instead. When the buffer reaches `2n` entries it
//!   is cut to the best `n` (`select_nth_unstable_by`); until the next cut
//!   a row worse than the worst kept is dropped with one compare, never
//!   gathered. The buffer, cut to `n` and sorted, is the worker's run.
//! * **The merge.** The runs, concatenated, are merged by std's stable
//!   `sort_by`, which finds presorted runs and merges them; the result is
//!   truncated to the limit.
//!
//! [`par_window`] sorts each call through the same runs and merge over
//! (partition keys, order keys), then walks that order once, folding
//! [`PAcc`] per peer group. Both emit a fresh table by typed column
//! gather ([`crate::batch`]), so the results stay columnar for whatever
//! consumes them.
//!
//! Determinism: entries compare by key first and by **global row index**
//! on ties, which is a total order — so any worker count (and any morsel
//! arrival order) produces exactly the bytes a stable serial sort of the
//! input would, and a cut never drops a row of the first `n`. Sort-key
//! comparison mirrors `Value::sort_cmp` (NULLs first ascending, last
//! descending): an entry is a row id, and two entries compare their rows'
//! cells in the typed buffers (`key::Cell`: an `i64` read raw, a string as
//! a borrowed `&str`), as joins and group-bys do.

use crate::agg::{AggKind, AggSpec, PAcc};
use crate::batch::{gather, Batch, Take, NO_ROW};
use crate::key::KeyCols;
use crate::morsel::{morsels_of, run_chunks, run_workers, worker_count, KernelStats};
use crate::pred::{Pred, P_TRUE};
use crate::segment::{ColumnTable, ColumnTableBuilder, SEGMENT_ROWS};
use crate::{StorageError, MORSEL_ROWS};
use std::cmp::Ordering;
use tpcds_types::{DataType, Value};

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

/// One candidate row: its global row id, whose key cells are read from
/// the typed buffers (`key::Cell`) when two entries meet, plus an id that
/// breaks ties (making the comparison a total order — the determinism
/// argument): the global row id again, or for a window the row's output
/// position, which orders rows the same way.
#[derive(Clone, Copy)]
struct Entry {
    row: u32,
    gid: u32,
}

/// How one invocation orders its entries: by each sort key's cells under
/// `key::Cell`'s order — [`Value::sort_cmp`]'s — then by id.
struct Order<'a> {
    keys: &'a [SortKey],
    cells: KeyCols<'a>,
}

impl<'a> Order<'a> {
    fn new(table: &'a ColumnTable, keys: &'a [SortKey]) -> Order<'a> {
        let cols: Vec<usize> = keys.iter().map(|k| k.col).collect();
        Order {
            keys,
            cells: KeyCols::of(table, &cols),
        }
    }

    /// The order of two rows on their first `n` sort keys.
    fn cmp_rows(&self, a: u32, b: u32, n: usize) -> Ordering {
        (self.keys[..n].iter().enumerate())
            .map(|(k, key)| {
                let ord = self.cells.cell(k, a).cmp(self.cells.cell(k, b));
                if key.desc {
                    ord.reverse()
                } else {
                    ord
                }
            })
            .find(|ord| ord.is_ne())
            .unwrap_or(Ordering::Equal)
    }

    /// Entries in key order, then by id.
    fn cmp(&self, a: &Entry, b: &Entry) -> Ordering {
        (self.cmp_rows(a.row, b.row, self.keys.len())).then(a.gid.cmp(&b.gid))
    }

    /// Whether two rows agree on their first `n` sort keys under `Value`
    /// equality (NULL equals NULL, as in grouping).
    fn same(&self, a: &Entry, b: &Entry, n: usize) -> bool {
        self.cmp_rows(a.row, b.row, n).is_eq()
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

// ---------- the sort kernel ----------

/// The qualifying rows of morsel `(si, off, len)` of `table` as entries:
/// the pending predicate, if any, evaluated once into `sel`.
fn morsel_entries<'a>(
    table: &ColumnTable,
    pred: Option<&Pred>,
    (si, off, len): (usize, usize, usize),
    sel: &'a mut Vec<u8>,
) -> impl Iterator<Item = Entry> + 'a {
    if let Some(p) = pred {
        let base = (si * SEGMENT_ROWS + off) as u64;
        p.eval(&table.segments[si], off, len, base, sel);
    }
    let (filtered, sel) = (pred.is_some(), &*sel);
    (0..len)
        .filter(move |&j| !filtered || sel[j] == P_TRUE)
        .map(move |j| {
            let row = (si * SEGMENT_ROWS + off + j) as u32;
            Entry { row, gid: row }
        })
}

/// The runs concatenated in order and merged by std's stable sort, which
/// finds each presorted run and merges them. Returns the merged entries
/// and how many runs were non-empty.
fn merged(runs: Vec<Vec<Entry>>, order: &Order<'_>) -> (Vec<Entry>, u64) {
    let ways = runs.iter().filter(|r| !r.is_empty()).count() as u64;
    let mut all = runs.concat();
    all.sort_by(|a, b| order.cmp(a, b));
    (all, ways)
}

/// Sorts each of `chunks` entry lists — `entries(c)` — into a run by
/// `order`, in parallel, then merges the runs ([`merged`]).
fn merged_runs(
    order: &Order<'_>,
    chunks: usize,
    workers: usize,
    entries: impl Fn(usize) -> Vec<Entry> + Sync,
) -> (Vec<Entry>, u64) {
    let runs = run_chunks(chunks, workers, |c| {
        let mut run = entries(c);
        run.sort_unstable_by(|a, b| order.cmp(a, b));
        run
    });
    merged(runs, order)
}

/// Cuts `run` to its best `n` entries by `order`; returns the last one
/// kept, which is the worst of them when `run` held more than `n`.
fn cut(run: &mut Vec<Entry>, n: usize, order: &Order<'_>) -> Option<Entry> {
    if let Some(nth) = n.checked_sub(1).filter(|&nth| nth < run.len()) {
        run.select_nth_unstable_by(nth, |a, b| order.cmp(a, b));
    }
    run.truncate(n);
    run.last().copied()
}

/// The global ids of the batch's qualifying rows sorted by `keys`, ties
/// in table order, the first `limit` of them: per-morsel sorted runs in
/// parallel — with a limit, per-worker buffers under the cut — then one
/// merge. The pending predicate runs once per morsel.
fn sorted_ids(
    batch: &Batch,
    keys: &[SortKey],
    limit: Option<usize>,
    threads: usize,
) -> (Vec<u32>, KernelStats) {
    assert!(batch.table.id_end() <= NO_ROW as usize, "row ids are u32");
    let (table, pred) = (&*batch.table, batch.pred.as_ref());
    let morsels = morsels_of(table);
    let workers = worker_count(table.rows, threads, morsels.len());
    let order = Order::new(table, keys);
    let mut stats = KernelStats {
        morsels: morsels.len() as u64,
        workers: workers as u64,
        ..KernelStats::default()
    };
    let merged = match limit {
        None => {
            let (merged, ways) = merged_runs(&order, morsels.len(), workers, |m| {
                morsel_entries(table, pred, morsels[m], &mut Vec::new()).collect()
            });
            (stats.rows_in, stats.merge_ways) = (merged.len() as u64, ways);
            merged
        }
        Some(n) => {
            let parts = run_workers(morsels.len(), workers, |chunks| {
                let (mut run, mut sel, mut worst, mut offered) = (Vec::new(), Vec::new(), None, 0);
                while let Some(m) = chunks.next() {
                    for e in morsel_entries(table, pred, morsels[m], &mut sel) {
                        offered += 1;
                        if worst.is_some_and(|w| order.cmp(&e, &w).is_gt()) {
                            continue;
                        }
                        run.push(e);
                        if run.len() >= n.saturating_mul(2) {
                            worst = cut(&mut run, n, &order);
                        }
                    }
                }
                cut(&mut run, n, &order);
                run.sort_unstable_by(|a, b| order.cmp(a, b));
                (run, offered)
            });
            stats.rows_in = parts.iter().map(|p| p.1).sum();
            stats.heap_rows = parts.iter().map(|p| p.0.len() as u64).sum();
            stats.pruned_rows = stats.rows_in - stats.heap_rows;
            let (mut merged, _) = merged(parts.into_iter().map(|p| p.0).collect(), &order);
            merged.truncate(n);
            merged
        }
    };
    (merged.iter().map(|e| e.row).collect(), stats)
}

/// Parallel sort of the batch's qualifying rows by `keys`, the first
/// `limit` of them when there is one ([`sorted_ids`]); emits a table of
/// the batch's visible columns. Byte-identical at any worker count: the
/// entry order is total, so every run and every cut keeps what a stable
/// serial sort would put first.
pub fn par_sort(
    batch: &Batch,
    keys: &[SortKey],
    limit: Option<usize>,
    threads: usize,
) -> (ColumnTable, KernelStats) {
    let (ids, stats) = sorted_ids(batch, keys, limit, threads);
    (gather(&[take(batch, &ids)], threads), stats)
}

// ---------- window functions over a column table ----------

/// Window functions: the batch's qualifying rows — its visible columns
/// plus one column per call — in table order, as the row operator
/// returns them. Each call sorts the rows by its keys, ties in table
/// order, through [`par_sort`]'s runs and merge over morsel-sized chunks,
/// and walks that order once ([`walk`]), pushing its values into a column
/// typed by the call (an aggregate's [`AggSpec::output_type`], `Int` for
/// the rank family); the output gathers them back into table order.
/// Byte-identical at any worker count.
pub fn par_window(
    batch: &Batch,
    calls: &[WinSpec],
    threads: usize,
) -> Result<(ColumnTable, KernelStats), StorageError> {
    // The rows in table order (a sort on no keys): the predicate runs
    // once, and a row's index here is its output position.
    let (ids, mut stats) = sorted_ids(batch, &[], None, threads);
    let table = &*batch.table;
    let chunks = ids.len().div_ceil(MORSEL_ROWS);
    let workers = worker_count(ids.len(), threads, chunks);
    // Per call: its values in its sort order, and where each output
    // position's value sits among them.
    let mut values = Vec::with_capacity(calls.len());
    for call in calls {
        let order = Order::new(table, &call.keys);
        let (sorted, ways) = merged_runs(&order, chunks, workers, |k| {
            let at = k * MORSEL_ROWS..ids.len().min((k + 1) * MORSEL_ROWS);
            at.map(|p| Entry {
                row: ids[p],
                gid: p as u32,
            })
            .collect()
        });
        stats.merge_ways = stats.merge_ways.max(ways);
        let dtype = match call.func {
            WinFunc::Agg(kind) => AggSpec {
                kind,
                col: call.arg,
            }
            .output_type(call.arg.map(|c| table.dtypes[c])),
            _ => DataType::Int,
        };
        let mut column = ColumnTableBuilder::new(vec![dtype]);
        let args = KeyCols::of(table, call.arg.as_slice());
        walk(call, &order, &sorted, &args, |v| {
            column.push_row(std::slice::from_ref(&v))
        })?;
        let mut at = vec![0u32; ids.len()];
        for (k, e) in sorted.iter().enumerate() {
            at[e.gid as usize] = k as u32;
        }
        values.push((column.finish(), at));
    }
    let mut takes = vec![take(batch, &ids)];
    takes.extend(values.iter().map(|(t, at)| Take {
        table: t,
        cols: vec![0],
        ids: at,
    }));
    Ok((gather(&takes, threads), stats))
}

/// One call's values along `sorted` — its rows in `order` — handed to
/// `push` in that order. A partition (rows equal on the PARTITION BY
/// keys) restarts ranks and the accumulator; a peer group (rows equal on
/// every key) shares one value: the rank of its first row, or the
/// aggregate folded through its last, which without ORDER BY is the whole
/// partition. The argument cell (none for COUNT(*)) is read through
/// `args` and folded straight from its buffer.
fn walk(
    call: &WinSpec,
    order: &Order<'_>,
    sorted: &[Entry],
    args: &KeyCols<'_>,
    mut push: impl FnMut(Value),
) -> Result<(), StorageError> {
    let (mut start, mut at, mut dense) = (0, 0, 0);
    let mut acc = None;
    let same = |a: &Entry, b: &Entry, n| order.same(a, b, n);
    for peers in sorted.chunk_by(|a, b| same(a, b, call.keys.len())) {
        if at == 0 || !same(&sorted[at - 1], &peers[0], call.partition) {
            (start, dense, acc) = (at, 0, None);
        }
        dense += 1;
        let value = match call.func {
            WinFunc::Agg(kind) => {
                let acc = acc.get_or_insert_with(|| PAcc::new(kind));
                for e in peers {
                    match call.arg {
                        Some(_) => {
                            let (col, i) = args.at(0, e.row);
                            acc.fold(col, i)?
                        }
                        None => acc.update(None)?,
                    }
                }
                acc.clone().finish()
            }
            WinFunc::Rank => Value::Int((at - start + 1) as i64),
            WinFunc::DenseRank => Value::Int(dense),
            WinFunc::RowNumber => Value::Null,
        };
        for j in 0..peers.len() {
            push(match call.func {
                WinFunc::RowNumber => Value::Int((at + j - start + 1) as i64),
                _ => value.clone(),
            });
        }
        at += peers.len();
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::column::ColumnData;
    use crate::segment::ColumnTableBuilder;
    use crate::CmpKind;
    use crate::Expr;
    use std::sync::Arc;
    use tpcds_types::{Date, Decimal, Row};

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

    fn topn(b: &Batch, keys: &[SortKey], limit: usize, threads: usize) -> (Vec<Row>, KernelStats) {
        let (t, stats) = par_sort(b, keys, Some(limit), threads);
        (rows_of(t), stats)
    }

    fn sort(b: &Batch, keys: &[SortKey], threads: usize) -> (Vec<Row>, KernelStats) {
        let (t, stats) = par_sort(b, keys, None, threads);
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
            assert_eq!(rows.len(), 100);
            assert!(stats.pruned_rows > 0, "heaps should prune: {stats:?}");
            assert_eq!(stats.rows_in, stats.heap_rows + stats.pruned_rows);
        }
        // Over two and a half segments: strictly falling keys sorted
        // ascending, where every row displaces a kept one and the cut runs
        // again and again, and all-equal keys, where ties fall to row id.
        let n = 2 * SEGMENT_ROWS + SEGMENT_ROWS / 2;
        let rows: Vec<Row> = (0..n as i64)
            .map(|i| vec![Value::Int(-i), Value::Int(7), Value::Int(i)])
            .collect();
        let t = Batch::new(Arc::new(ColumnTable::from_rows(
            vec![DataType::Int; 3],
            &rows,
        )));
        for col in [0, 1] {
            let keys = [SortKey { col, desc: false }];
            let expect = reference(&t, &keys, None);
            for limit in [1, 100, 2 * MORSEL_ROWS + 1] {
                for threads in [1, 2, 8] {
                    let what = format!("col={col} limit={limit} threads={threads}");
                    let (rows, stats) = topn(&t, &keys, limit, threads);
                    assert_eq!(rows, expect[..limit], "{what}");
                    assert_eq!(stats.rows_in, stats.heap_rows + stats.pruned_rows, "{what}");
                }
            }
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
            assert_eq!(stats.rows_in as usize, expect.len());
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
    fn typed_and_boxed_keys_agree() {
        // Same logical data once as a dense i64 buffer and once as the
        // boxed Other buffer: identical output.
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
        let t = Batch::new(Arc::new(ColumnTable::from_rows(
            vec![DataType::Int, DataType::Int],
            &rows,
        )));
        let expect = reference(&t, &keys, None);
        for threads in [1, 2, 8] {
            let (sorted, stats) = sort(&t, &keys, threads);
            assert_eq!(sorted, expect, "threads={threads}");
            assert!(stats.merge_ways >= 1);
            let (top, _) = topn(&t, &keys, 123, threads);
            assert_eq!(top, expect[..123], "threads={threads}");
        }
    }
    /// `I64` and `Date` keys with NULLs, each direction, over tables one
    /// row short of, exactly at and one row past a segment: the sort and
    /// the Top-N agree with the stable reference at every worker count.
    #[test]
    fn int_and_date_keys_with_nulls_match_reference_across_segment_edges() {
        let day0 = Date::from_ymd(1998, 1, 1);
        for n in [SEGMENT_ROWS - 1, SEGMENT_ROWS, SEGMENT_ROWS + 1] {
            let rows: Vec<Row> = (0..n as i64)
                .map(|i| {
                    let null = |m: i64, v: Value| if i % m == 0 { Value::Null } else { v };
                    vec![
                        null(9, Value::Int((i * 7_919) % 501 - 250)),
                        null(11, Value::Date(day0.add_days(((i * 31) % 730) as i32))),
                        Value::Int(i),
                    ]
                })
                .collect();
            let dtypes = vec![DataType::Int, DataType::Date, DataType::Int];
            let t = Batch::new(Arc::new(ColumnTable::from_rows(dtypes, &rows)));
            for (a, b) in [(false, false), (false, true), (true, false), (true, true)] {
                let keys = [SortKey { col: 0, desc: a }, SortKey { col: 1, desc: b }];
                let expect = reference(&t, &keys, None);
                let dates = reference(&t, &keys[1..], Some(100));
                for threads in [1, 2, 8] {
                    let what = format!("n={n} desc=({a}, {b}) threads={threads}");
                    assert_eq!(sort(&t, &keys, threads).0, expect, "{what}");
                    let (top, _) = topn(&t, &keys[1..], 100, threads);
                    assert_eq!(top, dates, "{what}");
                    let (top, _) = topn(&t, &keys, 100, threads);
                    assert_eq!(top, expect[..100], "{what}");
                }
            }
        }
    }
}
