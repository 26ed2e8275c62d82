//! Integration: the bulk load is one task per segment of every table, run
//! by however many workers there are, and published as one commit. What
//! it builds must not depend on the worker count: at 1, 2 and 8 workers
//! the SF 0.02 load yields the same segments (the generator's rows, cut at
//! the same boundaries), the same statistics and the same EXPLAIN for all
//! 99 templates — and the statistics are the ones built serially from
//! those segments.

use tpcds_core::engine::{explain_sql, Database};
use tpcds_core::storage::{collect_stats, set_threads, TableStats, SEGMENT_ROWS};
use tpcds_core::types::rng::DEFAULT_SEED;
use tpcds_core::types::Row;
use tpcds_core::{maint, Generator, Workload};

/// Everything of a loaded table a query can read, decoded: each segment's
/// rows and the statistics.
#[derive(Debug, PartialEq)]
struct Loaded {
    segments: Vec<Vec<Row>>,
    stats: String,
}

/// A stable rendering of statistics: rows, then per column nulls, min,
/// max, NDV and every histogram bucket.
fn render(stats: &TableStats) -> String {
    let mut out = format!("rows {}\n", stats.rows);
    for (c, s) in stats.columns.iter().enumerate() {
        let buckets: Vec<(u64, u64)> = s.hist.nonzero_buckets().collect();
        out += &format!(
            "{c}: nulls {} min {:?} max {:?} ndv {} hist {} {} {buckets:?}\n",
            s.nulls, s.min, s.max, s.ndv, s.hist.count, s.hist.sum
        );
    }
    out
}

fn loaded(db: &Database, generator: &Generator) -> Vec<(String, Loaded)> {
    let tables = generator.schema().tables().iter();
    tables
        .map(|def| {
            let t = db.table(def.name).unwrap();
            let data = t.data();
            let segments: Vec<Vec<Row>> = (data.segments.iter())
                .map(|seg| (0..seg.rows).map(|i| seg.row(i)).collect())
                .collect();
            let stats = render(&t.stats());
            assert_eq!(
                stats,
                render(&collect_stats(data, 1)),
                "{}: the statistics of its segments folded serially",
                def.name
            );
            let name = def.name.to_string();
            (name, Loaded { segments, stats })
        })
        .collect()
}

#[test]
fn the_load_is_the_same_at_any_worker_count() {
    let generator = Generator::new(0.02);
    let workload = Workload::tpcds().unwrap();
    let mut runs = Vec::new();
    for workers in [1, 2, 8] {
        set_threads(Some(workers));
        let db = Database::new();
        maint::load_initial_population(&db, &generator).unwrap();
        assert_eq!(db.version(), 1, "{workers} workers: the load is one commit");
        let tables = loaded(&db, &generator);
        let explains: Vec<String> = (1..=99)
            .map(|id| {
                let sql = workload.instantiate(id, DEFAULT_SEED, 0).unwrap();
                explain_sql(&db, &sql).unwrap_or_else(|e| panic!("q{id}: {e}"))
            })
            .collect();
        runs.push((workers, tables, explains));
    }
    set_threads(None);

    // The segments are the generator's rows, cut every SEGMENT_ROWS rows.
    let (_, first, first_explains) = &runs[0];
    for (name, load) in first {
        let rows = generator.generate(name);
        let sizes: Vec<usize> = load.segments.iter().map(Vec::len).collect();
        let want: Vec<usize> = (rows.chunks(SEGMENT_ROWS)).map(<[Row]>::len).collect();
        assert_eq!(sizes, want, "{name}: segment boundaries");
        assert!(load.segments.concat() == rows, "{name}: rows");
    }
    for (workers, tables, explains) in &runs[1..] {
        for ((name, got), (_, want)) in tables.iter().zip(first) {
            let segments = got.segments == want.segments;
            assert!(segments, "{name}: segments at {workers} workers");
            assert_eq!(
                got.stats, want.stats,
                "{name}: statistics at {workers} workers"
            );
        }
        for (id, (got, want)) in explains.iter().zip(first_explains).enumerate() {
            assert_eq!(got, want, "q{}: EXPLAIN at {workers} workers", id + 1);
        }
    }
}
