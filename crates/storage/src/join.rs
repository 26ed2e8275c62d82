//! Partitioned, morsel-driven parallel hash join.
//!
//! **Build phase** — the (smaller) build side's morsels are scanned in
//! parallel; each worker partitions its morsel's qualifying rows (filter
//! passes, no NULL key) by key hash. The per-morsel partition lists are
//! concatenated **in morsel order**, so every partition's row list is
//! sorted by global row id, and the per-partition hash tables are then
//! built in parallel from those lists — each key's match list ends up in
//! table order, exactly the insertion order of the engine's serial
//! row-path `hash_join`.
//!
//! **Probe phase** — probe-side morsels stream through a shared atomic
//! cursor ([`crate::morsel`]'s scheduler); per-morsel output buffers are
//! reassembled in morsel order. Together with the ordered build lists this
//! makes the join output byte-identical to the serial row path at any
//! worker count.
//!
//! NULL-key semantics mirror SQL (and the row path): a NULL in any key
//! column keeps a build row out of the hash tables and makes a probe row
//! match nothing — dropped for inner joins, padded with NULLs for left
//! outer joins. With no keys at all every build row shares the one empty
//! key, in table order, so each probe row meets the whole build side: a
//! cross join, or with a residual a non-equi join, in nested-loop order.
//!
//! Keys hash and compare as [`Value`]s, whose `Hash`/`Eq` already encode
//! the engine's grouping semantics (`Int(1)` equals `Decimal(1.0)`), so
//! both paths agree on every match by construction. When both key columns
//! are dense `i64` buffers (the TPC-DS surrogate-key case) the kernel
//! switches to a raw `i64` table and skips `Value` boxing entirely.
//!
//! **Output** — the probe phase produces only `(probe row, build row)` id
//! pairs; the joined table is then built by typed column gather
//! ([`crate::batch`]) over each side's visible columns, NULL-padded where a
//! left-outer probe row found no partner. Joined rows never exist as
//! `Vec<Value>`, so a join feeds the next join, sort or aggregate as a
//! batch.

use crate::agg::{AggSpec, PAcc};
use crate::batch::{gather, gather_column, Batch, Take, NO_ROW};
use crate::column::{Column, ColumnData};
use crate::expr::{ErrCell, Expr};
use crate::morsel::{
    finish_groups, merge_partials, morsels_of, run_chunks, run_workers, worker_count, GroupMap,
};
use crate::pred::{Pred, P_TRUE};
use crate::segment::{ColumnTable, Segment, SEGMENT_ROWS};
use crate::StorageError;
use std::collections::hash_map::DefaultHasher;
use std::collections::HashMap;
use std::hash::{Hash, Hasher};
use tpcds_types::{DataType, Row, Value};

/// Join kinds the columnar path executes.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum JoinType {
    /// Inner join: probe rows without a match are dropped.
    Inner,
    /// Left outer join: probe rows without a match pad build-side NULLs.
    Left,
}

/// What one partitioned hash join did — surfaced in obs counters and in
/// the engine's EXPLAIN ANALYZE output.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct JoinStats {
    /// Build rows kept in the hash tables (filter passed, no NULL key).
    pub build_rows: u64,
    /// Number of hash-table partitions.
    pub partitions: u64,
    /// Probe-side morsels processed.
    pub probe_morsels: u64,
    /// Peak worker count across the build and probe phases.
    pub workers: u64,
    /// Output rows (joined rows, or groups for the fused aggregate).
    pub rows_out: u64,
    /// Live-memory growth across the build phase, bytes — the hash-table
    /// footprint. 0 unless the process installed the counting allocator
    /// (`tpcds_obs::mem::CountingAlloc`).
    pub build_bytes: u64,
}

/// Partition count policy: a function of the build-side size **only** (so
/// partitioning is identical at any worker count), one partition per
/// ~4k build rows, capped at 64.
fn partition_count(build_rows: usize) -> usize {
    (build_rows / 4_096).next_power_of_two().clamp(1, 64)
}

/// Multiplicative mix for the `i64` fast path. The partition index is
/// taken from the high bits, where the product is well mixed.
#[inline]
fn mix_i64(x: i64) -> u64 {
    (x as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15)
}

/// Partition hash of a generic key (consistent with `Value::eq`, which
/// `Value::hash` mirrors).
#[inline]
fn hash_key(key: &[Value]) -> u64 {
    let mut h = DefaultHasher::new();
    for v in key {
        v.hash(&mut h);
    }
    h.finish()
}

#[inline]
fn part_of(h: u64, mask: u64) -> usize {
    ((h >> 32) & mask) as usize
}

/// True when the key column is a dense `i64` buffer in every segment.
fn all_i64(table: &ColumnTable, col: usize) -> bool {
    table
        .segments
        .iter()
        .all(|s| matches!(s.columns[col].data, ColumnData::I64(_)))
}

/// The per-partition hash tables. Values are global build-row ids in
/// ascending (table) order.
enum BuildTables {
    /// Single-`i64`-key fast path.
    Int(Vec<HashMap<i64, Vec<u32>>>),
    /// Generic `Value`-keyed path.
    Gen(Vec<HashMap<Vec<Value>, Vec<u32>>>),
}

/// Builds the partitioned hash tables from the build side.
fn build_phase(
    build: &ColumnTable,
    pred: Option<&Pred>,
    keys: &[usize],
    int_path: bool,
    threads: usize,
) -> (BuildTables, u64, usize, usize) {
    let npart = partition_count(build.rows);
    let mask = (npart - 1) as u64;
    let morsels = morsels_of(build);
    let workers = worker_count(build.rows, threads, morsels.len());

    // Phase A: per-morsel (partition, global row) lists in row order.
    let per_morsel = run_chunks("join_build_worker", morsels.len(), workers, |m| {
        let (si, off, len) = morsels[m];
        let seg = &build.segments[si];
        let mut sel = Vec::new();
        let sel_slice: Option<&[u8]> = pred.map(|p| {
            p.eval(seg, off, len, (si * SEGMENT_ROWS + off) as u64, &mut sel);
            sel.as_slice()
        });
        let base = (si * SEGMENT_ROWS + off) as u32;
        let mut out = Vec::new();
        if int_path {
            let col = &seg.columns[keys[0]];
            let ColumnData::I64(buf) = &col.data else {
                unreachable!("int path requires i64 key buffers");
            };
            for j in 0..len {
                if let Some(s) = sel_slice {
                    if s[j] != P_TRUE {
                        continue;
                    }
                }
                let i = off + j;
                if !col.nulls.get(i) {
                    let part = part_of(mix_i64(buf[i]), mask) as u32;
                    out.push((part, base + j as u32));
                }
            }
        } else {
            let mut key = Vec::with_capacity(keys.len());
            for j in 0..len {
                if let Some(s) = sel_slice {
                    if s[j] != P_TRUE {
                        continue;
                    }
                }
                let i = off + j;
                key.clear();
                let mut has_null = false;
                for &c in keys {
                    let v = seg.columns[c].value_at(i);
                    if v.is_null() {
                        has_null = true;
                        break;
                    }
                    key.push(v);
                }
                if has_null {
                    continue; // NULL keys never join
                }
                let part = part_of(hash_key(&key), mask) as u32;
                out.push((part, base + j as u32));
            }
        }
        out
    });

    // Phase B: concatenate in morsel order, so each partition's row list
    // is sorted by global row id — the serial build insertion order.
    let mut part_rows: Vec<Vec<u32>> = vec![Vec::new(); npart];
    let mut kept = 0u64;
    for list in per_morsel {
        kept += list.len() as u64;
        for (p, r) in list {
            part_rows[p as usize].push(r);
        }
    }

    // Phase C: per-partition table construction, parallel over partitions.
    let build_int = |rows: &[u32]| -> HashMap<i64, Vec<u32>> {
        let mut map: HashMap<i64, Vec<u32>> = HashMap::with_capacity(rows.len());
        for &r in rows {
            let (si, i) = ((r as usize) / SEGMENT_ROWS, (r as usize) % SEGMENT_ROWS);
            let ColumnData::I64(buf) = &build.segments[si].columns[keys[0]].data else {
                unreachable!("int path requires i64 key buffers");
            };
            map.entry(buf[i]).or_default().push(r);
        }
        map
    };
    let build_gen = |rows: &[u32]| -> HashMap<Vec<Value>, Vec<u32>> {
        let mut map: HashMap<Vec<Value>, Vec<u32>> = HashMap::with_capacity(rows.len());
        for &r in rows {
            let (si, i) = ((r as usize) / SEGMENT_ROWS, (r as usize) % SEGMENT_ROWS);
            let seg = &build.segments[si];
            let key: Vec<Value> = keys.iter().map(|&c| seg.columns[c].value_at(i)).collect();
            map.entry(key).or_default().push(r);
        }
        map
    };
    let part_workers = workers.min(npart);
    let span = "join_table_worker";
    let tables = if int_path {
        BuildTables::Int(run_chunks(span, npart, part_workers, |p| {
            build_int(&part_rows[p])
        }))
    } else {
        BuildTables::Gen(run_chunks(span, npart, part_workers, |p| {
            build_gen(&part_rows[p])
        }))
    };
    (tables, kept, npart, workers)
}

/// Streams one probe morsel against the build tables, calling
/// `emit(row_in_segment, matches)` for every output-producing probe row:
/// `Some(bucket)` carries the matching build rows (ascending global ids),
/// `None` means a left-outer NULL pad. `base` is the morsel's global row
/// id offset, threaded into deferred predicate errors.
#[allow(clippy::too_many_arguments)]
fn probe_rows_morsel<F: FnMut(usize, Option<&[u32]>)>(
    seg: &Segment,
    off: usize,
    len: usize,
    pred: Option<&Pred>,
    keys: &[usize],
    tables: &BuildTables,
    mask: u64,
    kind: JoinType,
    base: u64,
    sel: &mut Vec<u8>,
    mut emit: F,
) {
    let sel_slice: Option<&[u8]> = match pred {
        None => None,
        Some(p) => {
            p.eval(seg, off, len, base, sel);
            Some(sel.as_slice())
        }
    };
    match tables {
        BuildTables::Int(parts) => {
            let col = &seg.columns[keys[0]];
            let ColumnData::I64(buf) = &col.data else {
                unreachable!("int path requires i64 key buffers");
            };
            for j in 0..len {
                if let Some(s) = sel_slice {
                    if s[j] != P_TRUE {
                        continue;
                    }
                }
                let i = off + j;
                if col.nulls.get(i) {
                    if kind == JoinType::Left {
                        emit(i, None);
                    }
                    continue;
                }
                let x = buf[i];
                match parts[part_of(mix_i64(x), mask)].get(&x) {
                    Some(bucket) => emit(i, Some(bucket)),
                    None if kind == JoinType::Left => emit(i, None),
                    None => {}
                }
            }
        }
        BuildTables::Gen(parts) => {
            let mut key = Vec::with_capacity(keys.len());
            for j in 0..len {
                if let Some(s) = sel_slice {
                    if s[j] != P_TRUE {
                        continue;
                    }
                }
                let i = off + j;
                key.clear();
                let mut has_null = false;
                for &c in keys {
                    let v = seg.columns[c].value_at(i);
                    if v.is_null() {
                        has_null = true;
                        break;
                    }
                    key.push(v);
                }
                if has_null {
                    if kind == JoinType::Left {
                        emit(i, None);
                    }
                    continue;
                }
                match parts[part_of(hash_key(&key), mask)].get(key.as_slice()) {
                    Some(bucket) => emit(i, Some(bucket)),
                    None if kind == JoinType::Left => emit(i, None),
                    None => {}
                }
            }
        }
    }
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

/// Everything the probe loop needs, shared by the join and the fused
/// join-aggregate.
struct Probe<'a> {
    probe: &'a ColumnTable,
    pred: Option<&'a Pred>,
    keys: &'a [usize],
    build: &'a ColumnTable,
    tables: BuildTables,
    mask: u64,
    kind: JoinType,
    residual: Option<&'a Expr>,
    /// Combined-row columns the residual reads (sorted, unique).
    residual_cols: Vec<usize>,
    rerr: ErrCell,
}

impl Probe<'_> {
    /// One probe morsel's equi-matches in probe order (build matches
    /// ascending), before any residual. Without a residual the pairs are
    /// final — left-outer pads included — and no items are recorded.
    fn candidates(&self, m: (usize, usize, usize), sel: &mut Vec<u8>) -> (Pairs, Vec<CandItem>) {
        let (si, off, len) = m;
        let base = (si * SEGMENT_ROWS + off) as u64;
        let deferred = self.residual.is_some();
        let mut cands = Pairs::default();
        let mut items = Vec::new();
        probe_rows_morsel(
            &self.probe.segments[si],
            off,
            len,
            self.pred,
            self.keys,
            &self.tables,
            self.mask,
            self.kind,
            base,
            sel,
            |i, bucket| {
                let pid = (si * SEGMENT_ROWS + i) as u32;
                let start = cands.probe.len();
                for &bid in bucket.unwrap_or(&[]) {
                    cands.push(pid, bid);
                }
                match bucket {
                    Some(_) if deferred => items.push(CandItem::Span(start, cands.probe.len())),
                    None if deferred => items.push(CandItem::Pad(pid)),
                    None => cands.push(pid, NO_ROW),
                    Some(_) => {}
                }
            },
        );
        (cands, items)
    }

    /// Probe morsel `mi` → its output pairs, in row-path order. With a
    /// residual, the candidate pairs' referenced columns are gathered into
    /// a scratch segment, the residual runs over it as one batched kernel,
    /// and only strict-TRUE candidates survive (a left-outer probe row
    /// whose every candidate fails pads).
    fn morsel(&self, mi: usize, m: (usize, usize, usize), sel: &mut Vec<u8>) -> Pairs {
        let (cands, items) = self.candidates(m, sel);
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
        let mut tri = Vec::new();
        if let Err((j, msg)) = rexpr.eval_tri(&scratch, 0, scratch.rows, &mut tri) {
            // Morsels are probe-ordered and candidates probe-ordered
            // within, so this key ranks errors exactly as the row path
            // visits combined rows.
            self.rerr.offer(((mi as u64) << 40) | j as u64, msg);
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

/// Builds the hash tables and the shared probe state. Keys, predicates
/// and the residual address physical columns (the residual the combined
/// `probe.table ++ build.table` row).
fn prepare<'a>(
    probe: &'a Batch,
    probe_keys: &'a [usize],
    build: &'a Batch,
    build_keys: &[usize],
    kind: JoinType,
    residual: Option<&'a Expr>,
    threads: usize,
) -> (Probe<'a>, JoinStats) {
    assert!(
        probe.table.id_end().max(build.table.id_end()) <= NO_ROW as usize,
        "row ids are u32"
    );
    let int_path = probe_keys.len() == 1
        && build_keys.len() == 1
        && all_i64(&probe.table, probe_keys[0])
        && all_i64(&build.table, build_keys[0]);
    let build_live0 = tpcds_obs::mem::live_bytes();
    let (tables, build_rows, npart, workers) = build_phase(
        &build.table,
        build.pred.as_ref(),
        build_keys,
        int_path,
        threads,
    );
    let mut residual_cols = Vec::new();
    if let Some(r) = residual {
        r.visit_cols(&mut |c| residual_cols.push(c));
        residual_cols.sort_unstable();
        residual_cols.dedup();
    }
    let stats = JoinStats {
        build_rows,
        partitions: npart as u64,
        workers: workers as u64,
        build_bytes: tpcds_obs::mem::live_bytes().saturating_sub(build_live0),
        ..JoinStats::default()
    };
    let p = Probe {
        probe: &probe.table,
        pred: probe.pred.as_ref(),
        keys: probe_keys,
        build: &build.table,
        tables,
        mask: (npart - 1) as u64,
        kind,
        residual,
        residual_cols,
        rerr: ErrCell::new(),
    };
    (p, stats)
}

fn emit_counters(stats: &JoinStats) {
    if !tpcds_obs::is_enabled() {
        return;
    }
    let w = [("workers", tpcds_obs::FieldValue::Int(stats.workers as i64))];
    tpcds_obs::counter("storage", "join.build_rows", stats.build_rows as f64, &w);
    tpcds_obs::counter("storage", "join.partitions", stats.partitions as f64, &w);
    tpcds_obs::counter(
        "storage",
        "join.probe_morsels",
        stats.probe_morsels as f64,
        &w,
    );
    tpcds_obs::counter("storage", "join.rows", stats.rows_out as f64, &w);
    tpcds_obs::counter("storage", "join.build_bytes", stats.build_bytes as f64, &w);
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
/// row, evaluated batched inside the probe loop: an equi match survives
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
) -> Result<(ColumnTable, JoinStats), StorageError> {
    let (p, mut stats) = prepare(
        probe, probe_keys, build, build_keys, kind, residual, threads,
    );
    let morsels = morsels_of(p.probe);
    let workers = worker_count(p.probe.rows + p.build.rows, threads, morsels.len());
    // Per-morsel pair lists, reassembled in morsel order.
    let parts = run_chunks("join_probe_worker", morsels.len(), workers, |m| {
        p.morsel(m, morsels[m], &mut Vec::new())
    });
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
                table: p.probe,
                cols: probe.cols(),
                ids: &pairs.probe,
            },
            Take {
                table: p.build,
                cols: build.cols(),
                ids: &pairs.build,
            },
        ],
        threads,
    );
    stats.probe_morsels = morsels.len() as u64;
    stats.workers = stats.workers.max(workers as u64);
    stats.rows_out = out.rows as u64;
    emit_counters(&stats);
    Ok((out, stats))
}

/// Fused join + grouped aggregation: like [`par_hash_join`] but instead of
/// gathering joined rows, each probe worker folds its pairs straight into
/// per-worker aggregate partials. `groups` and the [`AggSpec`] argument
/// columns index the **combined** physical row (`probe.table ++
/// build.table`); on a left-outer pad every build-side column reads as
/// NULL. Output rows are `key columns ++ aggregate values`, sorted by
/// key, and a global aggregate over zero joined rows still yields one
/// default row — mirroring the engine's aggregate over the row-path join.
/// Residual errors outrank aggregate errors.
#[allow(clippy::too_many_arguments)]
pub fn par_hash_join_agg(
    probe: &Batch,
    probe_keys: &[usize],
    build: &Batch,
    build_keys: &[usize],
    kind: JoinType,
    residual: Option<&Expr>,
    groups: &[usize],
    aggs: &[AggSpec],
    threads: usize,
) -> Result<(Vec<Row>, JoinStats), StorageError> {
    let (p, mut stats) = prepare(
        probe, probe_keys, build, build_keys, kind, residual, threads,
    );
    let morsels = morsels_of(p.probe);
    let workers = worker_count(p.probe.rows + p.build.rows, threads, morsels.len());
    let pw = p.probe.width();

    // Reads combined-row column `c` of an output pair.
    let combined = |pid: u32, bid: u32, c: usize| -> Value {
        let (table, id, c) = if c < pw {
            (p.probe, pid, c)
        } else {
            (p.build, bid, c - pw)
        };
        if id == NO_ROW {
            return Value::Null;
        }
        let (si, i) = (id as usize / SEGMENT_ROWS, id as usize % SEGMENT_ROWS);
        table.segments[si].columns[c].value_at(i)
    };

    let partials = run_workers(morsels.len(), workers, |w, chunks| {
        let mut span = tpcds_obs::span("storage", "join_agg_worker").field("worker", w);
        let mut map: GroupMap = HashMap::new();
        let mut sel = Vec::new();
        let mut done = 0usize;
        // The first aggregate failure stops folding, but the worker keeps
        // draining morsels so predicate and residual kernels still see
        // every row — their deferred-error cells stay complete and
        // deterministic, and the engine reports them ahead of agg errors.
        let mut failed: Option<StorageError> = None;
        while let Some(m) = chunks.next() {
            let pairs = p.morsel(m, morsels[m], &mut sel);
            if failed.is_none() {
                failed = pairs
                    .probe
                    .iter()
                    .zip(&pairs.build)
                    .try_for_each(|(&pid, &bid)| {
                        let key: Vec<Value> =
                            groups.iter().map(|&g| combined(pid, bid, g)).collect();
                        let accs = map
                            .entry(key)
                            .or_insert_with(|| aggs.iter().map(|a| PAcc::new(a.kind)).collect());
                        aggs.iter()
                            .zip(accs.iter_mut())
                            .try_for_each(|(spec, acc)| match spec.col {
                                Some(c) => acc.update(Some(&combined(pid, bid, c))),
                                None => acc.update(None),
                            })
                    })
                    .err();
            }
            done += 1;
        }
        span.add_field("morsels", done);
        failed.map_or(Ok(map), Err)
    });

    let merged = merge_partials(partials);
    if let Some(msg) = p.rerr.take() {
        return Err(StorageError(msg));
    }
    let out = finish_groups(merged?, groups.is_empty(), aggs);
    stats.probe_morsels = morsels.len() as u64;
    stats.workers = stats.workers.max(workers as u64);
    stats.rows_out = out.len() as u64;
    emit_counters(&stats);
    Ok((out, stats))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::agg::AggKind;
    use crate::pred::CmpKind;
    use crate::segment::ColumnTableBuilder;
    use std::sync::Arc;

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
    ) -> Result<(Vec<Row>, JoinStats), StorageError> {
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
                assert_eq!(stats.rows_out as usize, expect.len());
                assert!(stats.partitions >= 1);
                assert!(stats.build_rows > 0);
            }
        }
    }

    #[test]
    fn generic_path_matches_int_fast_path() {
        // Promote the build key column to Other by mixing in a string row,
        // then filter it back out: forces the generic Value path over the
        // same data the int path would see.
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

    #[test]
    fn fused_aggregate_equals_join_then_aggregate() {
        let probe = probe_table(70_000);
        let build = build_table(400);
        let groups = [3usize]; // build-side key column
        let aggs = [
            AggSpec {
                kind: AggKind::CountStar,
                col: None,
            },
            AggSpec {
                kind: AggKind::Sum,
                col: Some(2), // probe-side val
            },
            AggSpec {
                kind: AggKind::Max,
                col: Some(4), // build-side payload
            },
        ];
        for kind in [JoinType::Inner, JoinType::Left] {
            // Reference: materialize the join, then aggregate serially.
            let (joined, _) = join(&probe, 1, &build, 0, kind, None, 1).unwrap();
            let mut map: GroupMap = HashMap::new();
            for row in &joined {
                let key = vec![row[groups[0]].clone()];
                let accs = map
                    .entry(key)
                    .or_insert_with(|| aggs.iter().map(|a| PAcc::new(a.kind)).collect());
                for (spec, acc) in aggs.iter().zip(accs.iter_mut()) {
                    match spec.col {
                        Some(c) => acc.update(Some(&row[c])).unwrap(),
                        None => acc.update(None).unwrap(),
                    }
                }
            }
            let expect = finish_groups(map, false, &aggs);
            for threads in [1, 2, 8] {
                let (got, _) = par_hash_join_agg(
                    &probe,
                    &[1],
                    &build,
                    &[0],
                    kind,
                    None,
                    &groups,
                    &aggs,
                    threads,
                )
                .unwrap();
                assert_eq!(got, expect, "{kind:?} threads={threads}");
            }
        }
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
                let (got, stats) =
                    join(&probe, 1, &build, 0, kind, Some(&residual), threads).unwrap();
                assert_eq!(got, expect, "{kind:?} threads={threads}");
                assert_eq!(stats.rows_out as usize, expect.len());
            }
        }
    }

    #[test]
    fn fused_aggregate_honors_residual() {
        use crate::expr::Expr;
        let probe = probe_table(40_000);
        let build = build_table(300);
        let residual = Expr::Cmp(CmpKind::Gt, Box::new(Expr::Col(2)), Box::new(Expr::Col(4)));
        let groups = [3usize];
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
        for kind in [JoinType::Inner, JoinType::Left] {
            let (joined, _) = join(&probe, 1, &build, 0, kind, Some(&residual), 1).unwrap();
            let mut map: GroupMap = HashMap::new();
            for row in &joined {
                let key = vec![row[groups[0]].clone()];
                let accs = map
                    .entry(key)
                    .or_insert_with(|| aggs.iter().map(|a| PAcc::new(a.kind)).collect());
                for (spec, acc) in aggs.iter().zip(accs.iter_mut()) {
                    match spec.col {
                        Some(c) => acc.update(Some(&row[c])).unwrap(),
                        None => acc.update(None).unwrap(),
                    }
                }
            }
            let expect = finish_groups(map, false, &aggs);
            for threads in [1, 2, 8] {
                let (got, _) = par_hash_join_agg(
                    &probe,
                    &[1],
                    &build,
                    &[0],
                    kind,
                    Some(&residual),
                    &groups,
                    &aggs,
                    threads,
                )
                .unwrap();
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
        let err = par_hash_join_agg(
            &probe,
            &[1],
            &build,
            &[0],
            JoinType::Inner,
            Some(&residual),
            &[3],
            &[AggSpec {
                kind: AggKind::CountStar,
                col: None,
            }],
            8,
        )
        .unwrap_err();
        assert_eq!(err.0, "integer overflow in +");
    }

    #[test]
    fn global_fused_aggregate_over_empty_join_yields_default_row() {
        let probe = probe_table(100);
        let build = build_table(50);
        // Predicate nothing passes: empty probe side.
        let ppred = Expr::cmp(CmpKind::Lt, 0, Value::Int(-1));
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
        let (rows, _) = par_hash_join_agg(
            &filtered(&probe, &ppred),
            &[1],
            &build,
            &[0],
            JoinType::Inner,
            None,
            &[],
            &aggs,
            4,
        )
        .unwrap();
        assert_eq!(rows, vec![vec![Value::Int(0), Value::Null]]);
    }
}
