//! The differential oracle.
//!
//! One synthesized query runs four times against one pinned snapshot:
//!
//! * row path, 1 worker (`ColumnarMode::Off`) — the correctness oracle;
//! * batch executor, 1 worker (`Auto`) — must be canonically equal to
//!   the oracle (same multiset of rows; order may legitimately differ);
//! * batch executor, 2 and 8 workers — must be **byte-identical** to the
//!   1-worker batch run (the engine's determinism guarantee: worker
//!   count never changes output order).
//!
//! A row-path *error* is treated as a synthesizer bug, not an engine
//! finding: the generator's contract is to emit only dialect-valid SQL.

use std::cmp::Ordering;
use std::sync::Arc;

use tpcds_engine::{query_pinned, ColumnarMode, Database, DbSnapshot, ExecOptions};
use tpcds_types::Row;

/// A passed differential check.
#[derive(Debug, Clone)]
pub struct DiffReport {
    /// Rows the oracle produced.
    pub oracle_rows: usize,
}

/// A failed differential check.
#[derive(Debug, Clone)]
pub enum DiffError {
    /// The row-path oracle itself errored — the generator emitted SQL the
    /// engine rejects, which is a synthesizer bug to fix, not a finding.
    Oracle(String),
    /// The columnar path disagreed with the oracle (or with itself across
    /// worker counts), or errored where the oracle succeeded.
    Mismatch {
        /// Which comparison failed (`"auto@1 vs oracle"`, …).
        stage: String,
        /// Human-readable evidence.
        detail: String,
    },
}

impl DiffError {
    /// True for real findings (not generator bugs).
    pub fn is_mismatch(&self) -> bool {
        matches!(self, DiffError::Mismatch { .. })
    }
}

fn opts(mode: ColumnarMode, threads: usize) -> ExecOptions {
    ExecOptions {
        columnar: mode,
        threads: Some(threads),
    }
}

/// Sorts rows into the canonical order used for multiset comparison.
pub fn canon(mut rows: Vec<Row>) -> Vec<Row> {
    rows.sort_by(|a, b| {
        for (x, y) in a.iter().zip(b.iter()) {
            match x.sort_cmp(y) {
                Ordering::Equal => continue,
                other => return other,
            }
        }
        a.len().cmp(&b.len())
    });
    rows
}

/// Describes where two row vectors first diverge (compared positionally).
pub fn first_difference(a: &[Row], b: &[Row]) -> String {
    if a.len() != b.len() {
        return format!("row counts differ: {} vs {}", a.len(), b.len());
    }
    for (i, (x, y)) in a.iter().zip(b.iter()).enumerate() {
        if x != y {
            return format!("first differing row #{i}: {x:?} vs {y:?}");
        }
    }
    "results equal".to_string()
}

/// Compares `got` to `oracle` as multisets (canonical order).
pub fn canon_equal(oracle: &[Row], got: &[Row]) -> Result<(), String> {
    let a = canon(oracle.to_vec());
    let b = canon(got.to_vec());
    if a == b {
        Ok(())
    } else {
        Err(first_difference(&a, &b))
    }
}

/// Runs the full four-way differential for `sql` against one pinned
/// snapshot. Worker counts: oracle at 1, columnar at 1/2/8.
pub fn run_differential(
    db: &Database,
    snap: &Arc<DbSnapshot>,
    sql: &str,
) -> Result<DiffReport, DiffError> {
    let oracle = query_pinned(db, snap, sql, opts(ColumnarMode::Off, 1))
        .map_err(|e| DiffError::Oracle(e.to_string()))?;

    let auto1 = query_pinned(db, snap, sql, opts(ColumnarMode::Auto, 1)).map_err(|e| {
        DiffError::Mismatch {
            stage: "auto@1 vs oracle".to_string(),
            detail: format!("columnar path errored where the row path succeeded: {e}"),
        }
    })?;
    canon_equal(&oracle.rows, &auto1.rows).map_err(|detail| DiffError::Mismatch {
        stage: "auto@1 vs oracle".to_string(),
        detail,
    })?;

    for workers in [2usize, 8] {
        let batch =
            query_pinned(db, snap, sql, opts(ColumnarMode::Auto, workers)).map_err(|e| {
                DiffError::Mismatch {
                    stage: format!("auto@{workers} vs auto@1"),
                    detail: format!("errored: {e}"),
                }
            })?;
        if batch.rows != auto1.rows {
            return Err(DiffError::Mismatch {
                stage: format!("auto@{workers} vs auto@1"),
                detail: format!(
                    "worker count changed the output: {}",
                    first_difference(&auto1.rows, &batch.rows)
                ),
            });
        }
    }

    Ok(DiffReport {
        oracle_rows: oracle.rows.len(),
    })
}
