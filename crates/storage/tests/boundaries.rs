//! Property tests at exact segment boundaries (65535/65536/65537 rows) —
//! the off-by-one territory the word-packed bitmap, the predicate
//! kernels, and the morsel scheduler must all survive — for base tables
//! and for *intermediate* batches (a join's gathered output feeding the
//! next kernel) — plus empty-build-side and empty-probe-side joins.

use std::sync::Arc;
use tpcds_storage::{
    par_aggregate, par_filter, par_hash_join, par_sort, AggKind, AggSpec, Batch, Bitmap, CmpKind,
    ColumnTable, ColumnTableBuilder, Expr, JoinType, SortKey, SEGMENT_ROWS,
};
use tpcds_types::{DataType, Row, Value};

/// [`par_hash_join`] on single-column keys without a residual,
/// materialized for comparison.
fn join(
    probe: &Batch,
    pk: usize,
    build: &Batch,
    bk: usize,
    kind: JoinType,
    threads: usize,
) -> (Vec<Row>, tpcds_storage::KernelStats) {
    let (t, stats) = par_hash_join(probe, &[pk], build, &[bk], kind, None, threads).unwrap();
    (par_filter(&Batch::new(Arc::new(t)), 1).0, stats)
}

fn batch(t: ColumnTable) -> Batch {
    Batch::new(Arc::new(t))
}

/// (id, key, flag) rows; `key` NULL every 9th row, `flag` cycles 0..4.
fn table(n: usize) -> ColumnTable {
    let mut b = ColumnTableBuilder::new(vec![DataType::Int, DataType::Int, DataType::Int]);
    for i in 0..n as i64 {
        let key = if i % 9 == 0 {
            Value::Null
        } else {
            Value::Int(i % 13)
        };
        b.push_row(&[Value::Int(i), key, Value::Int(i % 5)]);
    }
    b.finish()
}

const BOUNDARY_SIZES: [usize; 3] = [SEGMENT_ROWS - 1, SEGMENT_ROWS, SEGMENT_ROWS + 1];

#[test]
fn bitmap_tracks_nulls_across_word_and_segment_boundaries() {
    for n in BOUNDARY_SIZES {
        let t = table(n);
        assert_eq!(t.rows, n);
        let expected_segments = n.div_ceil(SEGMENT_ROWS);
        assert_eq!(t.segments.len(), expected_segments, "n={n}");
        // Per-segment null counts must add up to the per-row rule.
        let nulls: usize = t
            .segments
            .iter()
            .map(|s| s.columns[1].nulls.count_set())
            .sum();
        assert_eq!(nulls, n.div_ceil(9), "n={n}");
        // The very last row materializes correctly.
        let last = t.row(n - 1);
        assert_eq!(last[0], Value::Int(n as i64 - 1));
    }
    // A raw bitmap straddling the last word: set/get agree at every index.
    let mut bm = Bitmap::new();
    for i in 0..(64 * 3 + 1) {
        bm.push(i % 7 == 0);
    }
    for i in 0..bm.len() {
        assert_eq!(bm.get(i), i % 7 == 0, "bit {i}");
    }
}

#[test]
fn predicate_and_filter_agree_with_serial_rule_at_boundaries() {
    for n in BOUNDARY_SIZES {
        let t = table(n);
        let b = batch(t.clone()).filter(Expr::cmp(CmpKind::Eq, 2, Value::Int(3)));
        for threads in [1, 4] {
            let (rows, stats) = par_filter(&b, threads);
            let expect: Vec<Row> = (0..n as i64)
                .filter(|i| i % 5 == 3)
                .map(|i| t.row(i as usize))
                .collect();
            assert_eq!(rows, expect, "n={n} threads={threads}");
            assert_eq!(stats.rows_in, n as u64);
        }
    }
}

#[test]
fn aggregate_counts_exact_at_boundaries() {
    for n in BOUNDARY_SIZES {
        let t = batch(table(n));
        let aggs = [
            AggSpec {
                kind: AggKind::CountStar,
                col: None,
            },
            AggSpec {
                kind: AggKind::Count,
                col: Some(1), // NULL every 9th row
            },
            AggSpec {
                kind: AggKind::Min,
                col: Some(0),
            },
            AggSpec {
                kind: AggKind::Max,
                col: Some(0),
            },
        ];
        for threads in [1, 4] {
            let (out, _) = par_aggregate(&t, &[], &aggs, threads).unwrap();
            assert_eq!(
                out.iter_rows().collect::<Vec<_>>(),
                vec![vec![
                    Value::Int(n as i64),
                    Value::Int((n - n.div_ceil(9)) as i64),
                    Value::Int(0),
                    Value::Int(n as i64 - 1),
                ]],
                "n={n} threads={threads}"
            );
        }
    }
}

#[test]
fn join_probe_spanning_boundary_matches_serial() {
    let build = {
        let mut b = ColumnTableBuilder::new(vec![DataType::Int, DataType::Int]);
        for i in 0..13i64 {
            b.push_row(&[Value::Int(i), Value::Int(i * 100)]);
        }
        batch(b.finish())
    };
    for n in BOUNDARY_SIZES {
        let probe = batch(table(n));
        let (serial, s1) = join(&probe, 1, &build, 0, JoinType::Left, 1);
        // Every probe row appears exactly once (unique build keys; NULL
        // keys pad).
        assert_eq!(serial.len(), n, "n={n}");
        assert_eq!(s1.morsels, n.div_ceil(8_192) as u64);
        for threads in [2, 8] {
            let (par, _) = join(&probe, 1, &build, 0, JoinType::Left, threads);
            assert_eq!(par, serial, "n={n} threads={threads}");
        }
    }
}

#[test]
fn empty_build_side_joins() {
    let probe = batch(table(1_000));
    let empty = batch(ColumnTableBuilder::new(vec![DataType::Int, DataType::Int]).finish());
    // Inner: nothing matches, nothing out.
    let (rows, stats) = join(&probe, 1, &empty, 0, JoinType::Inner, 4);
    assert!(rows.is_empty());
    assert_eq!(stats.build_rows, 0);
    // Left: every probe row padded with build-width NULLs.
    let (rows, _) = join(&probe, 1, &empty, 0, JoinType::Left, 4);
    assert_eq!(rows.len(), probe.table.rows);
    assert!(rows
        .iter()
        .all(|r| r.len() == 5 && r[3].is_null() && r[4].is_null()));
    // A build side whose rows all fail the filter behaves like empty too.
    let none = Expr::cmp(CmpKind::Lt, 0, Value::Int(-1));
    let build = batch(table(100)).filter(none);
    let (rows, stats) = join(&probe, 1, &build, 0, JoinType::Inner, 4);
    assert!(rows.is_empty());
    assert_eq!(stats.build_rows, 0);
}

#[test]
fn empty_probe_side_joins() {
    let build = batch(table(100));
    let empty =
        batch(ColumnTableBuilder::new(vec![DataType::Int, DataType::Int, DataType::Int]).finish());
    for kind in [JoinType::Inner, JoinType::Left] {
        let (rows, stats) = join(&empty, 1, &build, 0, kind, 4);
        assert!(rows.is_empty(), "{kind:?}");
        assert_eq!(stats.morsels, 0);
    }
    // Probe filtered down to nothing.
    let none = Expr::cmp(CmpKind::Lt, 0, Value::Int(-1));
    let probe = batch(table(1_000)).filter(none);
    let (rows, _) = join(&probe, 1, &build, 0, JoinType::Left, 4);
    assert!(rows.is_empty());
}

/// A join's gathered output as the *input* of the next kernels, at
/// exactly 65,535 / 65,536 / 65,537 rows and empty: the intermediate
/// table must segment, filter, join again, aggregate and sort like a base
/// table of that size, at any worker count.
#[test]
fn intermediate_batches_at_boundaries_feed_every_kernel() {
    // dim: 13 keys → (key, key * 100). Every non-NULL-key fact row
    // matches exactly one, so a left join preserves the probe row count.
    let dim = {
        let mut b = ColumnTableBuilder::new(vec![DataType::Int, DataType::Int]);
        for i in 0..13i64 {
            b.push_row(&[Value::Int(i), Value::Int(i * 100)]);
        }
        batch(b.finish())
    };
    for n in [0, SEGMENT_ROWS - 1, SEGMENT_ROWS, SEGMENT_ROWS + 1] {
        let fact = batch(table(n)).project(&[1, 0]); // (key, id)
        let (mid, _) = par_hash_join(&fact, &[1], &dim, &[0], JoinType::Left, None, 4).unwrap();
        // (key, id, dim.key, dim.payload), probe order.
        assert_eq!(mid.rows, n);
        assert_eq!(mid.width(), 4);
        assert_eq!(mid.segments.len(), n.div_ceil(SEGMENT_ROWS), "n={n}");
        let mid = batch(mid);
        let oracle = par_filter(&mid, 1).0;
        for (i, r) in oracle.iter().enumerate().step_by(4_099) {
            let key = r[0].as_int();
            assert_eq!(r[1], Value::Int(i as i64), "n={n}");
            assert_eq!(r[2].as_int(), key, "n={n} row {i}");
            assert_eq!(r[3].as_int(), key.map(|k| k * 100), "n={n} row {i}");
        }
        let last_id = Value::Int(n as i64 - 1);
        assert!(n == 0 || oracle[n - 1][1] == last_id, "n={n}");

        for threads in [1, 2, 8] {
            // A predicate pending on the intermediate batch.
            let tail = mid
                .clone()
                .filter(Expr::cmp(CmpKind::Ge, 1, Value::Int(n as i64 - 3)));
            let (rows, _) = par_filter(&tail, threads);
            assert_eq!(
                rows,
                oracle[n.saturating_sub(3)..],
                "n={n} threads={threads}"
            );

            // Join → join: the intermediate probes the dimension again.
            let (again, _) = join(&mid, 0, &dim, 0, JoinType::Inner, threads);
            let matched = oracle.iter().filter(|r| !r[0].is_null()).count();
            assert_eq!(again.len(), matched, "n={n} threads={threads}");
            assert!(again.iter().all(|r| r.len() == 6 && r[4] == r[0]));

            // Join → aggregate.
            let count = [AggSpec {
                kind: AggKind::CountStar,
                col: None,
            }];
            let (groups, _) = par_aggregate(&mid, &[3], &count, threads).unwrap();
            let total: i64 = groups.column(1).map(|c| c.as_int().unwrap()).sum();
            assert_eq!(total, n as i64, "n={n} threads={threads}");

            // Join → sort / Top-N on the last row's side of the boundary.
            let by_id_desc = [SortKey { col: 1, desc: true }];
            let (sorted, _) = par_sort(&mid, &by_id_desc, None, threads);
            let (top, _) = par_sort(&mid, &by_id_desc, Some(2), threads);
            assert_eq!(sorted.rows, n);
            let sorted = par_filter(&batch(sorted), 1).0;
            let expect: Vec<Row> = oracle.iter().rev().cloned().collect();
            assert_eq!(sorted, expect, "n={n} threads={threads}");
            assert_eq!(par_filter(&batch(top), 1).0, expect[..n.min(2)]);
        }
    }
}
