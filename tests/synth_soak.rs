//! Small-scale soak: concurrent synthesized streams over the shared
//! snapshot-isolated catalog, interleaved with data-maintenance commits,
//! with the four-way row-vs-batch differential as the oracle — both
//! in-process and through a real TCP server. CI's larger budgets run
//! `tpcds synth`; this test keeps the harness itself honest.

use std::sync::Arc;

use tpcds_core::synth::{run_soak, SoakConfig, SynthConfig};
use tpcds_core::types::rng::test_seed;
use tpcds_core::{Database, Generator};

fn loaded_db(sf: f64) -> (Arc<Database>, Generator) {
    let db = Arc::new(Database::new());
    let generator = Generator::new(sf);
    tpcds_core::maint::load_initial_population(&db, &generator).expect("load");
    (db, generator)
}

#[test]
fn soak_with_dm_interleaving_is_clean() {
    let (db, generator) = loaded_db(0.005);
    let seed = test_seed(0x50AC);
    eprintln!("synth_soak seed: {seed} (override with TPCDS_TEST_SEED)");
    let cfg = SoakConfig {
        streams: 2,
        queries_per_stream: 12,
        dm_commits: 1,
        via_server: false,
        shrink: true,
        synth: SynthConfig {
            seed,
            ..SynthConfig::default()
        },
    };
    let outcome = run_soak(&db, Some(&generator), &cfg);

    assert_eq!(outcome.queries_run, 24);
    assert!(
        outcome.failures.is_empty(),
        "differential mismatches:\n{}",
        outcome
            .failures
            .iter()
            .map(|f| format!(
                "qid {} ({}): {}\n  minimized: {}",
                f.qid, f.class, f.detail, f.minimized
            ))
            .collect::<Vec<_>>()
            .join("\n")
    );
    // The DM writer really committed mid-run: one maintenance sequence
    // publishes 12 versions, and streams must have seen more than one.
    assert!(outcome.dm_rows > 0, "dm writer did nothing");
    assert!(
        outcome.versions_observed.len() > 1,
        "no snapshot churn observed: {:?}",
        outcome.versions_observed
    );
    // Every query is tallied under exactly one class.
    for (class, stat) in &outcome.classes {
        assert!(stat.queries > 0, "class {class} tallied without queries");
    }
    let tallied: u64 = outcome.classes.values().map(|s| s.queries).sum();
    assert_eq!(tallied, outcome.queries_run);
}

#[test]
fn soak_via_server_matches_in_process_semantics() {
    let (db, generator) = loaded_db(0.005);
    let seed = test_seed(0x5E4E);
    eprintln!("synth_soak via-server seed: {seed} (override with TPCDS_TEST_SEED)");
    let cfg = SoakConfig {
        streams: 2,
        queries_per_stream: 6,
        dm_commits: 1,
        via_server: true,
        shrink: true,
        synth: SynthConfig {
            seed,
            ..SynthConfig::default()
        },
    };
    let outcome = run_soak(&db, Some(&generator), &cfg);
    assert_eq!(outcome.queries_run, 12);
    assert!(
        outcome.failures.is_empty(),
        "remote differential mismatches: {:?}",
        outcome.failures
    );
    // `run_soak` commits between each stream's first and last query.
    assert!(outcome.versions_observed.len() > 1);
}
