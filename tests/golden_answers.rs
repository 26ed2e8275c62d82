//! Golden answer-set regression: the fingerprints of all 99 query answers
//! at SF 0.01 / default seed / stream 0 are pinned. Any change to the data
//! generator, the templates or the engine that alters an answer shows up
//! here.
//!
//! Regenerate the golden file after an *intentional* change:
//!
//! ```sh
//! cargo run --release -p tpcds-bench --example make_golden \
//!     > tests/golden_answers_sf001.txt
//! ```
//!
//! The hash component relies on `DefaultHasher`, which is stable for a
//! given Rust release; if a toolchain upgrade shifts it, regenerate.

use tpcds_repro::engine::{ColumnarMode, ExecOptions};
use tpcds_repro::runner::validation::fingerprint;
use tpcds_repro::TpcDs;

fn load_golden() -> std::collections::BTreeMap<u32, (usize, u64)> {
    let golden_src = include_str!("golden_answers_sf001.txt");
    let mut golden = std::collections::BTreeMap::new();
    for line in golden_src.lines().filter(|l| !l.starts_with('#')) {
        let mut it = line.split_whitespace();
        let id: u32 = it.next().unwrap().parse().unwrap();
        let rows: usize = it.next().unwrap().parse().unwrap();
        let hash = u64::from_str_radix(it.next().unwrap(), 16).unwrap();
        golden.insert(id, (rows, hash));
    }
    golden
}

#[test]
fn answers_match_golden_fingerprints() {
    let golden = load_golden();
    assert_eq!(golden.len(), 99);

    let tpcds = TpcDs::builder()
        .scale_factor(0.01)
        .reporting_aux(true)
        .build()
        .expect("load");
    let mut mismatches = Vec::new();
    for (&id, &(rows, hash)) in &golden {
        let r = tpcds
            .run_benchmark_query(id, 0)
            .unwrap_or_else(|e| panic!("q{id}: {e}"));
        let fp = fingerprint(&r);
        if fp.rows != rows || fp.hash != hash {
            mismatches.push(format!(
                "q{id}: rows {} -> {}, hash {hash:016x} -> {:016x}",
                rows, fp.rows, fp.hash
            ));
        }
    }
    assert!(
        mismatches.is_empty(),
        "{} answers drifted from golden:\n{}",
        mismatches.len(),
        mismatches.join("\n")
    );
}

/// Join-heavy templates (multi-way star joins over the fact tables) run
/// under `TPCDS_COLUMNAR=force` at 1 and 8 workers must reproduce the
/// pinned golden fingerprints, so golden coverage exercises the columnar
/// join path, not just scans and aggregates. Templates whose row-path
/// answer is not self-reproducible (tie-breaking under LIMIT) are compared
/// by row count only.
#[test]
fn join_heavy_templates_match_golden_under_forced_columnar() {
    const JOIN_HEAVY: [u32; 10] = [7, 19, 25, 29, 42, 52, 55, 68, 79, 96];
    let golden = load_golden();

    let tpcds = TpcDs::builder()
        .scale_factor(0.01)
        .reporting_aux(true)
        .build()
        .expect("load");
    let db = tpcds.database();
    let off = ExecOptions {
        columnar: ColumnarMode::Off,
        threads: Some(1),
    };
    let force = |threads: usize| ExecOptions {
        columnar: ColumnarMode::Force,
        threads: Some(threads),
    };

    let mut routed = 0usize;
    for id in JOIN_HEAVY {
        let sql = tpcds.benchmark_sql(id, 0).unwrap();
        let row = tpcds_repro::engine::query_with(db, &sql, off)
            .unwrap_or_else(|e| panic!("q{id} row path: {e}"));
        let row_again = tpcds_repro::engine::query_with(db, &sql, off).unwrap();
        let self_reproducible = fingerprint(&row) == fingerprint(&row_again);
        let &(g_rows, g_hash) = golden.get(&id).unwrap();
        if self_reproducible {
            let fp = fingerprint(&row);
            assert_eq!(
                (fp.rows, fp.hash),
                (g_rows, g_hash),
                "q{id}: row path drifted from golden"
            );
        }
        for threads in [1usize, 8] {
            let col = tpcds_repro::engine::query_with(db, &sql, force(threads))
                .unwrap_or_else(|e| panic!("q{id} columnar x{threads}: {e}"));
            if self_reproducible {
                let fp = fingerprint(&col);
                assert_eq!(
                    (fp.rows, fp.hash),
                    (g_rows, g_hash),
                    "q{id}: columnar x{threads} drifted from golden"
                );
            } else {
                assert_eq!(
                    row.rows.len(),
                    col.rows.len(),
                    "q{id}: columnar x{threads} row count diverged (tie-limited template)"
                );
            }
        }
        // The coverage claim is only real if these templates actually take
        // the partitioned join: count the ones whose analyzed plan shows
        // join actuals.
        let analyzed = tpcds_repro::engine::query_analyze_with(db, &sql, force(2))
            .unwrap_or_else(|e| panic!("q{id} analyze: {e}"));
        if analyzed.plan_text.contains("build_rows=") {
            routed += 1;
        }
    }
    assert!(
        routed >= 3,
        "only {routed}/{} join-heavy templates routed through the columnar join",
        JOIN_HEAVY.len()
    );
}
