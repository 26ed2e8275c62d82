//! # tpcds-storage
//!
//! A columnar storage subsystem for the TPC-DS reproduction: typed column
//! vectors ([`column::Column`]) with a word-packed null bitmap, grouped into
//! fixed-size row-group segments ([`segment::Segment`]), plus vectorized
//! filter ([`pred::Pred`]), expression ([`expr::Expr`]), join, sort and
//! partial-aggregate ([`agg::AggSpec`]) kernels driven by a
//! **morsel-driven scheduler** ([`morsel`]): segments are split into
//! morsels handed to `std::thread::scope` workers through a shared atomic
//! cursor.
//!
//! Every kernel consumes a lazy [`Batch`] — a table, a pending predicate
//! and a pending projection — which is also what the engine's operators
//! hand each other; a base table *is* a [`ColumnTable`]. The engine
//! keeps its serial interpreter, which decodes rows from the segments on
//! demand, as the correctness oracle: every kernel mirrors its
//! row-at-a-time SQL semantics (three-valued logic, exact decimal
//! accumulation) so the two paths produce identical results.

#![warn(missing_docs)]

pub mod agg;
pub mod batch;
pub mod column;
pub mod expr;
pub mod join;
mod key;
pub mod morsel;
pub mod pred;
pub mod segment;
pub mod sort;
pub mod stats;

pub use agg::{AggKind, AggSpec};
pub use batch::Batch;
pub use column::{Bitmap, Column, ColumnData, DecBuf, StrBuf};
pub use expr::{par_project_table, Answer, ErrCell, Expr, KeySet, SubResult};
pub use join::{par_hash_join, JoinType};
pub use morsel::{par_aggregate, par_filter, run_chunks, scan_until, KernelStats, MORSEL_ROWS};
pub use pred::Pred;
pub use segment::{ColumnTable, ColumnTableBuilder, Segment, COMPACT_DEAD_SHARE, SEGMENT_ROWS};
pub use sort::{par_sort, par_window, SortKey, WinFunc, WinSpec};
pub use stats::{
    collect_stats, merge_segment_stats, removed_stats_at, segment_stats, ColumnStats, TableStats,
};
pub use tpcds_types::CmpKind;

use std::fmt;
use std::sync::atomic::{AtomicUsize, Ordering};

/// An error raised by a storage kernel (today only aggregate kernels can
/// fail: numeric overflow or aggregation over a non-numeric column).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StorageError(pub String);

impl StorageError {
    /// Builds an error from any displayable message.
    pub fn new(msg: impl Into<String>) -> Self {
        StorageError(msg.into())
    }
}

impl fmt::Display for StorageError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.0)
    }
}

impl std::error::Error for StorageError {}

/// Process-wide worker-count override set programmatically (CLI/runner
/// `--threads`); `0` means "not set".
static THREAD_OVERRIDE: AtomicUsize = AtomicUsize::new(0);

/// Sets (or with `None` clears) the process-wide worker-count override.
///
/// Precedence for the effective count is: this override, then the
/// `TPCDS_THREADS` environment variable, then
/// [`std::thread::available_parallelism`].
pub fn set_threads(n: Option<usize>) {
    THREAD_OVERRIDE.store(n.unwrap_or(0), Ordering::Relaxed);
}

/// The worker count morsel scans use: the [`set_threads`] override if set,
/// else `TPCDS_THREADS` if it parses to a positive integer, else
/// [`std::thread::available_parallelism`] (1 when unavailable).
pub fn effective_threads() -> usize {
    let o = THREAD_OVERRIDE.load(Ordering::Relaxed);
    if o > 0 {
        return o;
    }
    if let Ok(s) = std::env::var("TPCDS_THREADS") {
        if let Ok(n) = s.trim().parse::<usize>() {
            if n > 0 {
                return n;
            }
        }
    }
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn thread_override_takes_precedence() {
        set_threads(Some(3));
        assert_eq!(effective_threads(), 3);
        set_threads(None);
        assert!(effective_threads() >= 1);
    }
}
