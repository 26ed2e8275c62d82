//! Partitioned, morsel-driven parallel hash join.
//!
//! **Build phase** — the (smaller) build side's morsels are scanned in
//! parallel; each worker hashes its morsel's qualifying rows (filter
//! passes, no NULL key). The partition count follows from how many rows
//! qualified, and the per-morsel lists are split by key hash **in morsel
//! order**, so every partition's row list is sorted by global row id. The
//! per-partition [`JoinTable`]s are then built in parallel from those
//! lists — each key's match list ends up in table order, exactly the
//! insertion order of the engine's serial row-path `hash_join`.
//!
//! **Probe phase** — the probe side's pending predicate runs first, once
//! per morsel: when it admits no row, no build key is hashed (the build
//! side's predicate still runs, so its deferred error surfaces as on the
//! row path, which materializes both sides). Probe-side morsels then
//! stream through a shared atomic cursor ([`crate::morsel`]'s scheduler);
//! per-morsel output buffers are reassembled in morsel order. Together
//! with the ordered build lists this makes the join output byte-identical
//! to the serial row path at any worker count.
//!
//! NULL-key semantics mirror SQL (and the row path): a NULL in any key
//! column keeps a build row out of the hash tables and makes a probe row
//! match nothing — dropped for inner joins, padded with NULLs for left
//! outer joins. With no keys at all every build row shares the one empty
//! key, in table order, so each probe row meets the whole build side: a
//! cross join, or with a residual a non-equi join, in nested-loop order.
//!
//! Keys hash and compare straight from the typed buffers ([`crate::key`])
//! under `Value`'s grouping semantics (`Int(1)` meets `Decimal(1.00)`), so
//! both paths agree on every match by construction.
//!
//! **Output** — the probe phase produces only `(probe row, build row)` id
//! pairs; the joined table is then built by typed column gather
//! ([`crate::batch`]) over each side's visible columns, NULL-padded where a
//! left-outer probe row found no partner. Joined rows never exist as
//! `Vec<Value>`, so a join feeds the next join, sort or aggregate as a
//! batch.

use crate::batch::{gather, gather_column, Batch, Take, NO_ROW};
use crate::column::Column;
use crate::expr::{ErrCell, Expr};
use crate::key::{JoinTable, KeyCols};
use crate::morsel::{morsels_of, run_chunks, selected, worker_count, KernelStats};
use crate::pred::{Pred, P_TRUE};
use crate::segment::{ColumnTable, Segment, SEGMENT_ROWS};
use crate::StorageError;
use tpcds_types::DataType;

/// Join kinds the columnar path executes.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum JoinType {
    /// Inner join: probe rows without a match are dropped.
    Inner,
    /// Left outer join: probe rows without a match pad build-side NULLs.
    Left,
}

/// Partition count policy: a function of the rows the build side keeps
/// **only** (so partitioning is identical at any worker count), one
/// partition per ~4k kept rows, capped at 64.
fn partition_count(build_rows: usize) -> usize {
    (build_rows / 4_096).next_power_of_two().clamp(1, 64)
}

#[inline]
fn part_of(h: u64, mask: u64) -> usize {
    ((h >> 32) & mask) as usize
}

/// Builds the partitioned hash tables from the build side. With `hash`
/// false nothing will probe them: the pending predicate still runs on
/// every morsel, but no key is hashed.
fn build_phase(
    build: &ColumnTable,
    pred: Option<&Pred>,
    keys: &KeyCols<'_>,
    hash: bool,
    threads: usize,
) -> (Vec<JoinTable>, u64, usize, usize) {
    let morsels = morsels_of(build);
    let workers = worker_count(build.rows, threads, morsels.len());

    // Phase A: per-morsel (global row, hash) lists in row order.
    let per_morsel = run_chunks(morsels.len(), workers, |m| {
        let (si, off, len) = morsels[m];
        let base = si * SEGMENT_ROWS + off;
        let mut sel = Vec::new();
        if let Some(p) = pred {
            p.eval(&build.segments[si], off, len, base as u64, &mut sel);
        }
        if !hash {
            return Vec::new();
        }
        let rows = selected(base, len, pred.map(|_| sel.as_slice()));
        let mut hashes = Vec::new();
        keys.hashes(&rows, &mut hashes);
        (rows.into_iter().zip(hashes))
            .filter(|&(r, _)| !keys.has_null(r)) // NULL keys never join
            .collect::<Vec<_>>()
    });

    // Phase B: size the partitions by the rows kept, not the rows stored,
    // and split in morsel order, so each partition's row list is sorted by
    // global row id — the serial build insertion order.
    let kept: usize = per_morsel.iter().map(Vec::len).sum();
    let npart = partition_count(kept);
    let mask = (npart - 1) as u64;
    let mut part_rows: Vec<Vec<(u32, u64)>> = vec![Vec::new(); npart];
    for (r, h) in per_morsel.into_iter().flatten() {
        part_rows[part_of(h, mask)].push((r, h));
    }

    // Phase C: per-partition table construction, parallel over partitions.
    let tables = run_chunks(npart, workers.min(npart), |p| {
        JoinTable::build(&part_rows[p], |a, b| keys.eq(a, keys, b))
    });
    (tables, kept as u64, npart, workers)
}

/// One probe row's contribution to a residual-carrying morsel: either a
/// span `[start, end)` of candidate pairs in the morsel's candidate list,
/// or an already-padded left-outer row (NULL equi key or empty bucket —
/// the row path never evaluates the residual on these).
enum CandItem {
    Span(usize, usize),
    Pad(u32),
}

/// Output row ids of one probe morsel (or of the whole join, once
/// concatenated): `probe[r]` joined `build[r]`, [`NO_ROW`] = NULL pad.
#[derive(Default)]
struct Pairs {
    probe: Vec<u32>,
    build: Vec<u32>,
}

impl Pairs {
    fn push(&mut self, p: u32, b: u32) {
        self.probe.push(p);
        self.build.push(b);
    }
}

/// Everything the probe loop needs.
struct Probe<'a> {
    probe: &'a ColumnTable,
    morsels: Vec<(usize, usize, usize)>,
    /// Each probe morsel's predicate verdicts; `None`: every row qualifies.
    sels: Vec<Option<Vec<u8>>>,
    keys: KeyCols<'a>,
    build: &'a ColumnTable,
    build_keys: KeyCols<'a>,
    tables: Vec<JoinTable>,
    /// Build rows in the tables.
    build_rows: u64,
    mask: u64,
    kind: JoinType,
    residual: Option<&'a Expr>,
    /// Combined-row columns the residual reads (sorted, unique).
    residual_cols: Vec<usize>,
    rerr: ErrCell,
}

impl Probe<'_> {
    /// Probe morsel `m`'s equi-matches in probe order (build matches
    /// ascending), before any residual. Without a residual the pairs are
    /// final — left-outer pads included — and no items are recorded.
    fn candidates(&self, m: usize) -> (Pairs, Vec<CandItem>) {
        let (si, off, len) = self.morsels[m];
        let pids = selected(si * SEGMENT_ROWS + off, len, self.sels[m].as_deref());
        // An empty build side meets nothing: no probe key is hashed.
        let empty = self.build_rows == 0;
        let mut hashes = Vec::new();
        if !empty {
            self.keys.hashes(&pids, &mut hashes);
        }
        let deferred = self.residual.is_some();
        let mut cands = Pairs::default();
        let mut items = Vec::new();
        for (k, &pid) in pids.iter().enumerate() {
            let bucket = match empty || self.keys.has_null(pid) {
                true => None,
                false => self.tables[part_of(hashes[k], self.mask)]
                    .get(hashes[k], |b| self.keys.eq(pid, &self.build_keys, b)),
            };
            match bucket {
                Some(bucket) => {
                    let start = cands.probe.len();
                    for &bid in bucket {
                        cands.push(pid, bid);
                    }
                    if deferred {
                        items.push(CandItem::Span(start, cands.probe.len()));
                    }
                }
                None if self.kind == JoinType::Inner => {}
                None if deferred => items.push(CandItem::Pad(pid)),
                None => cands.push(pid, NO_ROW),
            }
        }
        (cands, items)
    }

    /// Probe morsel `m` → its output pairs, in row-path order. With a
    /// residual, the candidate pairs' referenced columns are gathered into
    /// a scratch segment, the residual runs over it as one batched kernel,
    /// and only strict-TRUE candidates survive (a left-outer probe row
    /// whose every candidate fails pads).
    fn morsel(&self, m: usize) -> Pairs {
        let (cands, items) = self.candidates(m);
        let Some(rexpr) = self.residual else {
            return cands;
        };
        let pw = self.probe.width();
        let mut columns: Vec<Column> = (0..pw + self.build.width())
            .map(|_| Column::for_type(DataType::Int))
            .collect();
        for &c in &self.residual_cols {
            columns[c] = if c < pw {
                gather_column(self.probe, c, &cands.probe)
            } else {
                gather_column(self.build, c - pw, &cands.build)
            };
        }
        let scratch = Segment::scratch(columns, cands.probe.len());
        let (tri, errs) = rexpr.eval_cond(&scratch, 0, scratch.rows);
        if let Some((j, msg)) = errs.into_iter().next() {
            // Morsels are probe-ordered and candidates probe-ordered
            // within, so this key ranks errors exactly as the row path
            // visits combined rows.
            self.rerr.offer(((m as u64) << 40) | j as u64, msg);
        }
        let mut out = Pairs::default();
        for item in items {
            match item {
                CandItem::Span(s0, s1) => {
                    let before = out.probe.len();
                    for j in (s0..s1).filter(|&j| tri[j] == P_TRUE) {
                        out.push(cands.probe[j], cands.build[j]);
                    }
                    if out.probe.len() == before && self.kind == JoinType::Left {
                        out.push(cands.probe[s0], NO_ROW);
                    }
                }
                CandItem::Pad(pid) => out.push(pid, NO_ROW),
            }
        }
        out
    }
}

/// Partitioned parallel hash join: `probe ⋈ build` on
/// `probe_keys[i] = build_keys[i]` (every pair when there are no keys),
/// each side pre-filtered by its pending
/// predicate. Output rows are `probe visible columns ++ build visible
/// columns`, in probe-table order with each probe row's matches in
/// build-table order — byte-identical to the engine's serial row-path
/// join at any `threads`.
///
/// `residual` is an optional non-equi tail over the **combined** physical
/// row (`probe.table ++ build.table`), evaluated batched inside the probe
/// loop: an equi match survives
/// only where the residual is strictly TRUE, and a left-outer probe row
/// whose every candidate fails it pads with NULLs — the row path's
/// ON-clause semantics. Residual errors are deferred per candidate and
/// surface in row-path order as `Err`.
pub fn par_hash_join(
    probe: &Batch,
    probe_keys: &[usize],
    build: &Batch,
    build_keys: &[usize],
    kind: JoinType,
    residual: Option<&Expr>,
    threads: usize,
) -> Result<(ColumnTable, KernelStats), StorageError> {
    let (ptable, btable) = (&*probe.table, &*build.table);
    assert!(
        ptable.id_end().max(btable.id_end()) <= NO_ROW as usize,
        "row ids are u32"
    );
    let morsels = morsels_of(ptable);
    let sels = match probe.pred.as_ref() {
        None => vec![None; morsels.len()],
        Some(p) => run_chunks(
            morsels.len(),
            worker_count(ptable.rows, threads, morsels.len()),
            |m| {
                let (si, off, len) = morsels[m];
                let mut sel = Vec::new();
                let base = (si * SEGMENT_ROWS + off) as u64;
                p.eval(&ptable.segments[si], off, len, base, &mut sel);
                Some(sel)
            },
        ),
    };
    let probe_empty = (sels.iter()).all(|s| s.as_ref().is_some_and(|s| !s.contains(&P_TRUE)));
    let build_keys = KeyCols::of(btable, build_keys);
    let build_live0 = tpcds_obs::mem::live_bytes();
    let (tables, build_rows, npart, build_workers) = build_phase(
        btable,
        build.pred.as_ref(),
        &build_keys,
        !probe_empty,
        threads,
    );
    let build_bytes = tpcds_obs::mem::live_bytes().saturating_sub(build_live0);
    let mut residual_cols = Vec::new();
    if let Some(r) = residual {
        r.visit_cols(&mut |c| residual_cols.push(c));
        residual_cols.sort_unstable();
        residual_cols.dedup();
    }
    let p = Probe {
        probe: ptable,
        morsels,
        sels,
        keys: KeyCols::of(ptable, probe_keys),
        build: btable,
        build_keys,
        tables,
        build_rows,
        mask: (npart - 1) as u64,
        kind,
        residual,
        residual_cols,
        rerr: ErrCell::new(),
    };
    // The probe side's rows plus the build rows in the tables.
    let rows = ptable.rows + build_rows as usize;
    let workers = worker_count(rows, threads, p.morsels.len());
    // Per-morsel pair lists, reassembled in morsel order.
    let parts = run_chunks(p.morsels.len(), workers, |m| p.morsel(m));
    if let Some(msg) = p.rerr.take() {
        return Err(StorageError(msg));
    }
    let mut pairs = Pairs::default();
    for part in parts {
        pairs.probe.extend(part.probe);
        pairs.build.extend(part.build);
    }
    let out = gather(
        &[
            Take {
                table: ptable,
                cols: probe.cols(),
                ids: &pairs.probe,
            },
            Take {
                table: btable,
                cols: build.cols(),
                ids: &pairs.build,
            },
        ],
        threads,
    );
    let stats = KernelStats {
        build_rows,
        partitions: npart as u64,
        workers: build_workers.max(workers) as u64,
        build_bytes,
        morsels: p.morsels.len() as u64,
        ..KernelStats::default()
    };
    Ok((out, stats))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::segment::ColumnTableBuilder;
    use crate::CmpKind;
    use std::collections::HashMap;
    use std::sync::Arc;
    use tpcds_types::{Row, Value};

    fn filtered(b: &Batch, pred: &Expr) -> Batch {
        b.clone().filter(pred.clone())
    }

    /// [`par_hash_join`] on single-column keys, materialized.
    fn join(
        probe: &Batch,
        pk: usize,
        build: &Batch,
        bk: usize,
        kind: JoinType,
        residual: Option<&Expr>,
        threads: usize,
    ) -> Result<(Vec<Row>, KernelStats), StorageError> {
        let (t, stats) = par_hash_join(probe, &[pk], build, &[bk], kind, residual, threads)?;
        Ok((crate::par_filter(&Batch::new(Arc::new(t)), 1).0, stats))
    }

    /// Probe table: (id, key, val) with every 7th key NULL. Large enough
    /// to exceed the inline threshold and span segments.
    fn probe_table(n: usize) -> Batch {
        let mut b = ColumnTableBuilder::new(vec![DataType::Int, DataType::Int, DataType::Int]);
        for i in 0..n as i64 {
            let key = if i % 7 == 0 {
                Value::Null
            } else {
                Value::Int(i % 101)
            };
            b.push_row(&[Value::Int(i), key, Value::Int(i * 3)]);
        }
        Batch::new(Arc::new(b.finish()))
    }

    /// Build table: (key, name-ish) with every 5th key NULL and duplicate
    /// keys (two rows per key value).
    fn build_table(n: usize) -> Batch {
        let mut b = ColumnTableBuilder::new(vec![DataType::Int, DataType::Int]);
        for i in 0..n as i64 {
            let key = if i % 5 == 0 {
                Value::Null
            } else {
                Value::Int(i % 80)
            };
            b.push_row(&[key, Value::Int(i + 1000)]);
        }
        Batch::new(Arc::new(b.finish()))
    }

    /// Serial reference mirroring the engine's row-path `hash_join`.
    fn reference_join(
        probe: &Batch,
        pk: usize,
        build: &Batch,
        bk: usize,
        kind: JoinType,
    ) -> Vec<Row> {
        let (prows, _) = crate::par_filter(probe, 1);
        let (brows, _) = crate::par_filter(build, 1);
        let mut table: HashMap<Value, Vec<usize>> = HashMap::new();
        for (i, r) in brows.iter().enumerate() {
            if !r[bk].is_null() {
                table.entry(r[bk].clone()).or_default().push(i);
            }
        }
        let bw = build.width();
        let mut out = Vec::new();
        for pr in &prows {
            if pr[pk].is_null() {
                if kind == JoinType::Left {
                    let mut row = pr.clone();
                    row.extend(std::iter::repeat_n(Value::Null, bw));
                    out.push(row);
                }
                continue;
            }
            let mut matched = false;
            if let Some(ids) = table.get(&pr[pk]) {
                for &i in ids {
                    matched = true;
                    let mut row = pr.clone();
                    row.extend(brows[i].iter().cloned());
                    out.push(row);
                }
            }
            if !matched && kind == JoinType::Left {
                let mut row = pr.clone();
                row.extend(std::iter::repeat_n(Value::Null, bw));
                out.push(row);
            }
        }
        out
    }

    #[test]
    fn join_matches_reference_at_any_worker_count() {
        let probe = filtered(
            &probe_table(70_000),
            &Expr::cmp(CmpKind::Lt, 0, Value::Int(60_000)),
        );
        let build = filtered(
            &build_table(500),
            &Expr::cmp(CmpKind::Ge, 1, Value::Int(1_100)),
        );
        for kind in [JoinType::Inner, JoinType::Left] {
            let expect = reference_join(&probe, 1, &build, 0, kind);
            for threads in [1, 2, 8] {
                let (got, stats) = join(&probe, 1, &build, 0, kind, None, threads).unwrap();
                assert_eq!(got, expect, "{kind:?} threads={threads}");
                assert!(stats.partitions >= 1);
                assert!(stats.build_rows > 0);
            }
        }
    }

    /// A build side stored large but filtered small (a `date_dim` under a
    /// year filter) gets one partition: the count follows the rows the
    /// filter keeps, not the rows stored.
    #[test]
    fn partitions_follow_the_build_rows_the_filter_keeps() {
        let probe = probe_table(70_000);
        // Payloads 1000..1030: 30 rows, 6 of them with a NULL key.
        let build = filtered(
            &build_table(70_000),
            &Expr::cmp(CmpKind::Lt, 1, Value::Int(1_030)),
        );
        let expect = reference_join(&probe, 1, &build, 0, JoinType::Inner);
        assert!(!expect.is_empty());
        for threads in [1, 2, 8] {
            let (got, stats) = join(&probe, 1, &build, 0, JoinType::Inner, None, threads).unwrap();
            assert_eq!(got, expect, "threads={threads}");
            assert_eq!((stats.partitions, stats.build_rows), (1, 24));
        }
    }

    #[test]
    fn boxed_key_column_joins_like_a_typed_one() {
        // Promote the build key column to Other by mixing in a string row,
        // then filter it back out: the boxed cells hash and compare like
        // the probe side's typed ones.
        let probe = probe_table(20_000);
        let mut b = ColumnTableBuilder::new(vec![DataType::Int, DataType::Int]);
        b.push_row(&[Value::str("zz"), Value::Int(-1)]);
        for i in 0..300i64 {
            let key = if i % 5 == 0 {
                Value::Null
            } else {
                Value::Int(i % 80)
            };
            b.push_row(&[key, Value::Int(i + 1000)]);
        }
        let build_gen =
            Batch::new(Arc::new(b.finish())).filter(Expr::cmp(CmpKind::Ge, 1, Value::Int(0)));
        let expect = reference_join(&probe, 1, &build_gen, 0, JoinType::Inner);
        let (got, _) = join(&probe, 1, &build_gen, 0, JoinType::Inner, None, 4).unwrap();
        assert_eq!(got, expect);
    }

    /// Serial residual reference: equi matches kept only where `keep`
    /// holds on the combined row; left probe rows pad when nothing
    /// survives (including NULL-key probe rows).
    fn reference_residual(
        probe: &Batch,
        pk: usize,
        build: &Batch,
        bk: usize,
        kind: JoinType,
        keep: &dyn Fn(&Row) -> bool,
    ) -> Vec<Row> {
        let (prows, _) = crate::par_filter(probe, 1);
        let (brows, _) = crate::par_filter(build, 1);
        let mut table: HashMap<Value, Vec<usize>> = HashMap::new();
        for (i, r) in brows.iter().enumerate() {
            if !r[bk].is_null() {
                table.entry(r[bk].clone()).or_default().push(i);
            }
        }
        let bw = build.width();
        let mut out = Vec::new();
        for pr in &prows {
            let mut matched = false;
            if !pr[pk].is_null() {
                if let Some(ids) = table.get(&pr[pk]) {
                    for &i in ids {
                        let mut row = pr.clone();
                        row.extend(brows[i].iter().cloned());
                        if keep(&row) {
                            matched = true;
                            out.push(row);
                        }
                    }
                }
            }
            if !matched && kind == JoinType::Left {
                let mut row = pr.clone();
                row.extend(std::iter::repeat_n(Value::Null, bw));
                out.push(row);
            }
        }
        out
    }

    #[test]
    fn residual_filters_matches_and_pads_left_rows() {
        use crate::expr::Expr;
        use std::cmp::Ordering;
        let probe = probe_table(40_000);
        let build = build_table(400);
        // Combined row: probe (id, key, val) ++ build (key, payload);
        // residual keeps pairs where probe.val > build.payload.
        let residual = Expr::Cmp(CmpKind::Gt, Box::new(Expr::Col(2)), Box::new(Expr::Col(4)));
        let keep = |row: &Row| row[2].sql_cmp(&row[4]) == Some(Ordering::Greater);
        for kind in [JoinType::Inner, JoinType::Left] {
            let expect = reference_residual(&probe, 1, &build, 0, kind, &keep);
            for threads in [1, 2, 8] {
                let (got, _) = join(&probe, 1, &build, 0, kind, Some(&residual), threads).unwrap();
                assert_eq!(got, expect, "{kind:?} threads={threads}");
            }
        }
    }

    /// With no keys the join is a nested loop: every probe row against
    /// every build row in table order, kept where the residual holds, a
    /// left probe row that kept none padded — also over an empty build
    /// side.
    #[test]
    fn zero_keys_join_like_a_nested_loop() {
        use std::cmp::Ordering;
        let probe = filtered(
            &probe_table(20_000),
            &Expr::cmp(CmpKind::Lt, 0, Value::Int(3_000)),
        );
        let build = build_table(40);
        let empty = filtered(&build, &Expr::cmp(CmpKind::Lt, 1, Value::Int(0)));
        // probe.val > build.payload: false for the first ~350 probe rows.
        let gt = Expr::Cmp(CmpKind::Gt, Box::new(Expr::Col(2)), Box::new(Expr::Col(4)));
        let nested_loop = |build: &Batch, kind: JoinType, residual: Option<&Expr>| {
            let (brows, _) = crate::par_filter(build, 1);
            let mut out = Vec::new();
            for pr in crate::par_filter(&probe, 1).0 {
                let before = out.len();
                for br in &brows {
                    let row: Row = pr.iter().chain(br).cloned().collect();
                    if residual.is_none() || row[2].sql_cmp(&row[4]) == Some(Ordering::Greater) {
                        out.push(row);
                    }
                }
                if out.len() == before && kind == JoinType::Left {
                    out.push(
                        pr.iter()
                            .cloned()
                            .chain([Value::Null, Value::Null])
                            .collect(),
                    );
                }
            }
            out
        };
        for kind in [JoinType::Inner, JoinType::Left] {
            for (build, residual) in [(&build, None), (&build, Some(&gt)), (&empty, None)] {
                let expect = nested_loop(build, kind, residual);
                for threads in [1, 2, 8] {
                    let (t, _) =
                        par_hash_join(&probe, &[], build, &[], kind, residual, threads).unwrap();
                    let got = crate::par_filter(&Batch::new(Arc::new(t)), 1).0;
                    assert_eq!(got, expect, "{kind:?} {residual:?} threads={threads}");
                }
            }
        }
    }

    #[test]
    fn residual_errors_are_deferred_and_deterministic() {
        use crate::expr::Expr;
        use tpcds_types::scalar::ArithOp;
        let probe = probe_table(40_000);
        let build = build_table(300);
        // probe.val + i64::MAX overflows for every probe row with val > 0;
        // the surviving error must be the first combined row the serial
        // row path would evaluate, at any worker count.
        let residual = Expr::Cmp(
            CmpKind::Gt,
            Box::new(Expr::Arith(
                ArithOp::Add,
                Box::new(Expr::Col(2)),
                Box::new(Expr::Lit(Value::Int(i64::MAX))),
            )),
            Box::new(Expr::Col(4)),
        );
        let mut msgs = Vec::new();
        for threads in [1, 2, 8] {
            let err = join(
                &probe,
                1,
                &build,
                0,
                JoinType::Inner,
                Some(&residual),
                threads,
            )
            .unwrap_err();
            msgs.push(err.0);
        }
        assert_eq!(msgs[0], "integer overflow in +");
        assert!(msgs.iter().all(|m| *m == msgs[0]));
    }
}
