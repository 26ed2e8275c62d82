//! The storage kernels have one output channel for what they did: the
//! [`KernelStats`] they return. With the metrics registry enabled, a call
//! of every `par_*` kernel (and of the ordered scans) over a multi-morsel
//! table on several workers leaves every registry counter and histogram
//! as it was.
//!
//! Its own test binary: the registry is process-wide.

use std::sync::Arc;
use tpcds_obs::metrics;
use tpcds_storage::{
    par_aggregate, par_filter, par_hash_join, par_project_table, par_sort, par_window, scan_until,
    AggKind, AggSpec, Batch, CmpKind, ColumnTableBuilder, Expr, JoinType, KernelStats, SortKey,
    WinFunc, WinSpec,
};
use tpcds_types::{ArithOp, DataType, Value};

const THREADS: usize = 4;

/// (id, id % 13, id % 7) over `n` rows.
fn table(n: i64) -> Batch {
    let mut b = ColumnTableBuilder::new(vec![DataType::Int; 3]);
    for i in 0..n {
        b.push_row(&[Value::Int(i), Value::Int(i % 13), Value::Int(i % 7)]);
    }
    Batch::new(Arc::new(b.finish()))
}

/// Runs one kernel call and checks the registry did not move.
fn silent(name: &str, call: impl FnOnce() -> KernelStats) {
    let (counters, hists) = (metrics::counters_snapshot(), metrics::histograms_snapshot());
    let stats = call();
    assert!(stats.workers >= 1, "{name}: {stats:?}");
    assert_eq!(
        metrics::counters_snapshot(),
        counters,
        "{name} emitted a counter"
    );
    let samples = |h: Vec<(String, tpcds_obs::hist::HistSnapshot)>| -> Vec<(String, u64)> {
        h.into_iter().map(|(n, s)| (n, s.count)).collect()
    };
    assert_eq!(
        samples(metrics::histograms_snapshot()),
        samples(hists),
        "{name} observed a histogram"
    );
}

#[test]
fn kernels_leave_the_registry_untouched() {
    metrics::enable();
    let fact = table(40_000).filter(Expr::cmp(CmpKind::Lt, 2, Value::Int(5)));
    let dim = table(13);
    let count = [AggSpec {
        kind: AggKind::CountStar,
        col: None,
    }];
    let by_id = [SortKey { col: 0, desc: true }];

    silent("par_filter", || par_filter(&fact, THREADS).1);
    silent("par_aggregate", || {
        par_aggregate(&fact, &[1], &count, THREADS).unwrap().1
    });
    silent("par_hash_join", || {
        par_hash_join(&fact, &[1], &dim, &[0], JoinType::Inner, None, THREADS)
            .unwrap()
            .1
    });
    silent("par_sort limit", || {
        par_sort(&fact, &by_id, Some(10), THREADS).1
    });
    silent("par_sort", || par_sort(&fact, &by_id, None, THREADS).1);
    silent("par_window", || {
        let rank = WinSpec {
            func: WinFunc::Rank,
            arg: None,
            keys: vec![
                SortKey {
                    col: 1,
                    desc: false,
                },
                SortKey {
                    col: 0,
                    desc: false,
                },
            ],
            partition: 1,
        };
        par_window(&fact, &[rank], THREADS).unwrap().1
    });
    silent("par_project_table", || {
        let sum = Expr::Arith(ArithOp::Add, Box::new(Expr::Col(0)), Box::new(Expr::Col(1)));
        par_project_table(&fact, &[sum], THREADS).unwrap().1
    });
    silent("scan_until", || {
        scan_until(&fact, |_| Ok::<_, ()>(true)).unwrap()
    });
    metrics::disable();
}
