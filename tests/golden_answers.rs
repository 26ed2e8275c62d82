//! Golden answer-set regression: the fingerprints of all 99 query answers
//! at SF 0.01 / default seed / stream 0 are pinned, each with the largest
//! q-error of any node in its plan. Any change to the data generator, the
//! templates or the engine that alters an answer — or to the estimator
//! that alters a q-error — shows up here.
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

use std::collections::BTreeMap;

use tpcds_core::engine::{self, ColumnarMode, ExecOptions, RoutePath};
use tpcds_core::runner::validation::fingerprint;
use tpcds_core::TpcDs;

/// Query id → (rows, hash, max node q-error as printed).
fn load_golden() -> BTreeMap<u32, (usize, u64, String)> {
    let golden_src = include_str!("golden_answers_sf001.txt");
    let mut golden = BTreeMap::new();
    for line in golden_src.lines().filter(|l| !l.starts_with('#')) {
        let mut it = line.split_whitespace();
        let id: u32 = it.next().unwrap().parse().unwrap();
        let rows: usize = it.next().unwrap().parse().unwrap();
        let hash = u64::from_str_radix(it.next().unwrap(), 16).unwrap();
        let qerr = it.next().unwrap().to_string();
        golden.insert(id, (rows, hash, qerr));
    }
    golden
}

fn load() -> TpcDs {
    TpcDs::builder()
        .scale_factor(0.01)
        .reporting_aux(true)
        .build()
        .expect("load")
}

/// The 99 templates on the batch executor: every answer and every
/// template's largest q-error match the golden file, and every executed
/// node ran a batch kernel.
#[test]
fn answers_match_golden_fingerprints() {
    let golden = load_golden();
    assert_eq!(golden.len(), 99);

    let tpcds = load();
    let db = tpcds.database();
    let mut mismatches = Vec::new();
    for (&id, (rows, hash, qerr)) in &golden {
        let sql = tpcds.benchmark_sql(id, 0).unwrap();
        let analyzed = engine::query_analyze_with(db, &sql, ExecOptions::default())
            .unwrap_or_else(|e| panic!("q{id}: {e}"));
        for n in analyzed.nodes.iter().filter(|n| n.executed) {
            if n.route != RoutePath::Columnar {
                mismatches.push(format!("q{id}: {} ran {:?}", n.op, n.route));
            }
        }
        let fp = fingerprint(&analyzed.result);
        let max_qerr = (analyzed.nodes.iter().filter_map(|n| n.qerr)).fold(0.0, f64::max);
        let got = (fp.rows, fp.hash, format!("{max_qerr:.2}"));
        if got != (*rows, *hash, qerr.clone()) {
            mismatches.push(format!(
                "q{id}: rows {rows} -> {}, hash {hash:016x} -> {:016x}, qerr {qerr} -> {}",
                got.0, got.1, got.2
            ));
        }
    }
    assert!(
        mismatches.is_empty(),
        "{} templates drifted from golden:\n{}",
        mismatches.len(),
        mismatches.join("\n")
    );
}

/// Join-heavy templates (multi-way star joins over the fact tables) on
/// the row path and on the batch executor at 1 and 8 workers must
/// reproduce the pinned golden fingerprints, and at least three of them
/// must take the partitioned hash join. Templates whose row-path answer
/// is not self-reproducible (tie-breaking under LIMIT) are compared by
/// row count only.
#[test]
fn join_heavy_templates_match_golden_on_the_batch_executor() {
    const JOIN_HEAVY: [u32; 10] = [7, 19, 25, 29, 42, 52, 55, 68, 79, 96];
    let golden = load_golden();

    let tpcds = load();
    let db = tpcds.database();
    let off = ExecOptions {
        columnar: ColumnarMode::Off,
        threads: Some(1),
    };
    let batch = |threads: usize| ExecOptions {
        columnar: ColumnarMode::Auto,
        threads: Some(threads),
    };

    let mut routed = 0usize;
    for id in JOIN_HEAVY {
        let sql = tpcds.benchmark_sql(id, 0).unwrap();
        let row =
            engine::query_with(db, &sql, off).unwrap_or_else(|e| panic!("q{id} row path: {e}"));
        let row_again = engine::query_with(db, &sql, off).unwrap();
        let self_reproducible = fingerprint(&row) == fingerprint(&row_again);
        let (g_rows, g_hash, _) = golden[&id];
        if self_reproducible {
            let fp = fingerprint(&row);
            assert_eq!(
                (fp.rows, fp.hash),
                (g_rows, g_hash),
                "q{id}: row path drifted from golden"
            );
        }
        for threads in [1usize, 8] {
            let col = engine::query_with(db, &sql, batch(threads))
                .unwrap_or_else(|e| panic!("q{id} batch x{threads}: {e}"));
            if self_reproducible {
                let fp = fingerprint(&col);
                assert_eq!(
                    (fp.rows, fp.hash),
                    (g_rows, g_hash),
                    "q{id}: batch x{threads} drifted from golden"
                );
            } else {
                assert_eq!(
                    row.rows.len(),
                    col.rows.len(),
                    "q{id}: batch x{threads} row count diverged (tie-limited template)"
                );
            }
        }
        // The coverage claim is only real if these templates actually take
        // the partitioned join: count the ones whose analyzed plan shows
        // join actuals.
        let analyzed = engine::query_analyze_with(db, &sql, batch(2))
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
