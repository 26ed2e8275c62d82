//! Per-column table statistics, collected in parallel over segments.
//!
//! [`collect_stats`] walks a [`ColumnTable`] shadow with the same
//! worker-count policy as the scan kernels: each worker claims whole
//! segments off a shared cursor, folds per-column accumulators (row/null
//! counts, min/max, an HLL NDV sketch, a log-bucketed value histogram),
//! and the partials merge commutatively at the end — so the result is
//! deterministic regardless of worker count or claim order.
//!
//! The histogram only covers values with a natural non-negative integer
//! key (see [`hist_key`]); [`ColumnStats::hist_covers_column`] tells the
//! cardinality estimator whether the histogram saw every non-NULL value
//! and can therefore be trusted for range selectivity.

use crate::morsel::{run_workers, worker_count};
use crate::segment::{ColumnTable, Segment};
use std::cmp::Ordering;
use std::hash::{Hash, Hasher};
use tpcds_obs::hist::HistSnapshot;
use tpcds_obs::ndv::NdvSketch;
use tpcds_types::Value;

/// Statistics for one column of one table.
#[derive(Clone, Debug)]
pub struct ColumnStats {
    /// Number of NULL values.
    pub nulls: u64,
    /// Smallest non-NULL value (by [`Value::sort_cmp`]), if any.
    pub min: Option<Value>,
    /// Largest non-NULL value, if any.
    pub max: Option<Value>,
    /// Estimated number of distinct non-NULL values (HLL sketch).
    pub ndv: u64,
    /// Log-bucketed histogram over [`hist_key`]-mappable values.
    pub hist: HistSnapshot,
}

impl ColumnStats {
    /// True when every non-NULL value landed in the histogram — i.e. the
    /// histogram's sample count equals `rows - nulls`, so range
    /// selectivities read off it describe the whole column.
    pub fn hist_covers_column(&self, table_rows: u64) -> bool {
        self.hist.count > 0 && self.hist.count == table_rows - self.nulls
    }
}

/// Statistics for one table: total rows plus per-column detail.
#[derive(Clone, Debug)]
pub struct TableStats {
    /// Total row count at collection time.
    pub rows: u64,
    /// One entry per column, in declaration order.
    pub columns: Vec<ColumnStats>,
}

impl TableStats {
    /// The stats for column `i`, if the table has that many columns.
    pub fn column(&self, i: usize) -> Option<&ColumnStats> {
        self.columns.get(i)
    }

    /// Fraction of NULLs in column `i` (0 when out of range or empty).
    pub fn null_fraction(&self, i: usize) -> f64 {
        if self.rows == 0 {
            return 0.0;
        }
        self.column(i)
            .map(|c| c.nulls as f64 / self.rows as f64)
            .unwrap_or(0.0)
    }
}

/// Maps a value onto the non-negative integer axis the histogram indexes:
/// non-negative integers map to themselves, decimals to their truncated
/// magnitude, dates to their surrogate key. Strings, booleans, times and
/// negative numbers get no key — columns containing them fall back to
/// NDV-only selectivity.
pub fn hist_key(v: &Value) -> Option<u64> {
    match v {
        Value::Int(x) if *x >= 0 => Some(*x as u64),
        Value::Decimal(d) => {
            let f = d.to_f64();
            if f.is_finite() && f >= 0.0 {
                Some(f as u64)
            } else {
                None
            }
        }
        Value::Date(d) => u64::try_from(d.date_sk()).ok(),
        _ => None,
    }
}

/// One worker's in-flight accumulator for one column.
struct ColAcc {
    nulls: u64,
    min: Option<Value>,
    max: Option<Value>,
    ndv: NdvSketch,
    hist: HistSnapshot,
}

impl ColAcc {
    fn new() -> ColAcc {
        ColAcc {
            nulls: 0,
            min: None,
            max: None,
            ndv: NdvSketch::new(),
            hist: HistSnapshot::new(),
        }
    }

    #[inline]
    fn observe(&mut self, v: Value) {
        if v.is_null() {
            self.nulls += 1;
            return;
        }
        let mut h = std::collections::hash_map::DefaultHasher::new();
        v.hash(&mut h);
        self.ndv.insert_hash(h.finish());
        if let Some(k) = hist_key(&v) {
            self.hist.record(k);
        }
        match &self.min {
            Some(m) if v.sort_cmp(m) != Ordering::Less => {}
            _ => self.min = Some(v.clone()),
        }
        match &self.max {
            Some(m) if v.sort_cmp(m) != Ordering::Greater => {}
            _ => self.max = Some(v),
        }
    }

    fn merge(&mut self, other: ColAcc) {
        self.nulls += other.nulls;
        self.ndv.merge(&other.ndv);
        self.hist.merge(&other.hist);
        if let Some(v) = other.min {
            match &self.min {
                Some(m) if v.sort_cmp(m) != Ordering::Less => {}
                _ => self.min = Some(v),
            }
        }
        if let Some(v) = other.max {
            match &self.max {
                Some(m) if v.sort_cmp(m) != Ordering::Greater => {}
                _ => self.max = Some(v),
            }
        }
    }

    fn finish(self) -> ColumnStats {
        ColumnStats {
            nulls: self.nulls,
            min: self.min,
            max: self.max,
            ndv: self.ndv.estimate_u64(),
            hist: self.hist,
        }
    }
}

fn fold_segment(seg: &Segment, accs: &mut [ColAcc]) {
    for (c, col) in seg.columns.iter().enumerate() {
        let acc = &mut accs[c];
        for i in 0..seg.rows {
            acc.observe(col.value_at(i));
        }
    }
}

/// Collects full per-column statistics for `table`, using up to
/// `threads` workers (whole segments are the unit of work; small tables
/// run inline on the caller's thread).
pub fn collect_stats(table: &ColumnTable, threads: usize) -> TableStats {
    let width = table.width();
    let n_segs = table.segments.len();
    let workers = worker_count(table.rows, threads, n_segs);
    let partials = run_workers(n_segs, workers, |_, chunks| {
        let mut accs: Vec<ColAcc> = (0..width).map(|_| ColAcc::new()).collect();
        while let Some(si) = chunks.next() {
            fold_segment(&table.segments[si], &mut accs);
        }
        accs
    });

    let mut merged: Vec<ColAcc> = (0..width).map(|_| ColAcc::new()).collect();
    for part in partials {
        for (into, from) in merged.iter_mut().zip(part) {
            into.merge(from);
        }
    }
    TableStats {
        rows: table.rows as u64,
        columns: merged.into_iter().map(ColAcc::finish).collect(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::segment::SEGMENT_ROWS;
    use tpcds_types::{DataType, Row};

    fn table(rows: Vec<Row>, dtypes: Vec<DataType>) -> ColumnTable {
        ColumnTable::from_rows(dtypes, &rows)
    }

    #[test]
    fn empty_table_stats() {
        let t = table(vec![], vec![DataType::Int]);
        let s = collect_stats(&t, 4);
        assert_eq!(s.rows, 0);
        assert_eq!(s.columns.len(), 1);
        assert_eq!(s.columns[0].nulls, 0);
        assert_eq!(s.columns[0].ndv, 0);
        assert!(s.columns[0].min.is_none());
        assert!(s.columns[0].max.is_none());
    }

    #[test]
    fn all_null_column() {
        let rows: Vec<Row> = (0..100).map(|_| vec![Value::Null]).collect();
        let s = collect_stats(&table(rows, vec![DataType::Int]), 4);
        let c = &s.columns[0];
        assert_eq!(c.nulls, 100);
        assert_eq!(c.ndv, 0);
        assert!(c.min.is_none() && c.max.is_none());
        assert!(!c.hist_covers_column(s.rows));
        assert!((s.null_fraction(0) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn single_value_column() {
        let rows: Vec<Row> = (0..1_000).map(|_| vec![Value::Int(7)]).collect();
        let s = collect_stats(&table(rows, vec![DataType::Int]), 4);
        let c = &s.columns[0];
        assert_eq!(c.ndv, 1);
        assert_eq!(c.min, Some(Value::Int(7)));
        assert_eq!(c.max, Some(Value::Int(7)));
        assert!(c.hist_covers_column(s.rows));
    }

    #[test]
    fn mixed_column_stats_and_parallel_determinism() {
        // > SEGMENT_ROWS rows so the parallel path really has 2+ segments.
        let n = SEGMENT_ROWS + 5_000;
        let rows: Vec<Row> = (0..n)
            .map(|i| {
                let v = if i % 10 == 0 {
                    Value::Null
                } else {
                    Value::Int((i % 500) as i64)
                };
                vec![v, Value::str(format!("s{}", i % 37))]
            })
            .collect();
        let t = table(rows, vec![DataType::Int, DataType::Str]);
        let serial = collect_stats(&t, 1);
        let parallel = collect_stats(&t, 8);

        for s in [&serial, &parallel] {
            assert_eq!(s.rows, n as u64);
            let c0 = &s.columns[0];
            assert_eq!(c0.nulls, (n as u64).div_ceil(10));
            assert_eq!(c0.min, Some(Value::Int(1)));
            assert_eq!(c0.max, Some(Value::Int(499)));
            // 500 possible residues minus the multiples of 10 (NULLed out).
            let exact = 500 - 50;
            let rel = (c0.ndv as f64 - exact as f64).abs() / (exact as f64);
            assert!(rel < 0.05, "ndv {} vs exact {exact}", c0.ndv);
            assert!(c0.hist_covers_column(s.rows));
            let c1 = &s.columns[1];
            assert_eq!(c1.nulls, 0);
            assert!((c1.ndv as f64 - 37.0).abs() / 37.0 < 0.05, "ndv {}", c1.ndv);
            // Strings get no histogram key.
            assert!(!c1.hist_covers_column(s.rows));
        }
        // Worker count must not change the result.
        assert_eq!(serial.columns[0].ndv, parallel.columns[0].ndv);
        assert_eq!(serial.columns[0].hist.count, parallel.columns[0].hist.count);
    }

    #[test]
    fn hist_key_mapping() {
        assert_eq!(hist_key(&Value::Int(42)), Some(42));
        assert_eq!(hist_key(&Value::Int(-1)), None);
        assert_eq!(hist_key(&Value::str("abc")), None);
        assert_eq!(hist_key(&Value::Null), None);
    }
}
