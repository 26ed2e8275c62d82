//! End-to-end checks of the synthesizer against a real loaded database:
//! determinism, dialect validity of every shape class (including the
//! adversarial ones), and the four-way differential oracle over a
//! seeded batch.

use std::collections::BTreeSet;
use std::sync::Arc;

use tpcds_dgen::Generator;
use tpcds_engine::Database;
use tpcds_synth::diff::run_differential;
use tpcds_synth::{ShapeClass, SynthConfig, Synthesizer};
use tpcds_types::rng::test_seed;

fn small_db() -> Arc<Database> {
    let db = Arc::new(Database::new());
    let generator = Generator::new(0.005);
    tpcds_maint::load_initial_population(&db, &generator).expect("load");
    db
}

#[test]
fn synthesized_batch_is_deterministic_valid_and_differentially_clean() {
    let db = small_db();
    let seed = test_seed(0xC0FFEE);
    eprintln!("synth_end_to_end seed: {seed} (override with TPCDS_TEST_SEED)");
    let cfg = SynthConfig {
        seed,
        ..SynthConfig::default()
    };
    let synth = Synthesizer::from_db(&db, cfg.clone());
    let synth2 = Synthesizer::from_db(&db, cfg);

    let snap = db.snapshot();
    let mut classes_seen = BTreeSet::new();
    for qid in 0..60 {
        let spec = synth.generate(qid);
        // Determinism: a second synthesizer over the same db yields the
        // same SQL, and out-of-order generation agrees with in-order.
        assert_eq!(spec.sql(), synth2.generate(qid).sql(), "qid {qid}");
        classes_seen.insert(spec.class);

        let sql = spec.sql();
        if let Err(e) = run_differential(&db, &snap, &sql) {
            panic!(
                "qid {qid} ({}) failed the differential: {e:?}\nsql: {sql}",
                spec.class.as_str()
            );
        }
    }
    // The batch must exercise a healthy spread of shapes, including at
    // least one adversarial class.
    assert!(
        classes_seen.len() >= 6,
        "only {} shape classes in 60 queries: {:?}",
        classes_seen.len(),
        classes_seen
    );
    assert!(
        classes_seen.iter().any(|c| c.is_adversarial()),
        "no adversarial query in 60: {classes_seen:?}"
    );
}

#[test]
fn every_shape_class_is_reachable_and_valid() {
    let db = small_db();
    let synth = Synthesizer::from_db(
        &db,
        SynthConfig {
            seed: 7,
            adversarial_frac: 0.5,
            ..SynthConfig::default()
        },
    );
    let snap = db.snapshot();
    let mut remaining: BTreeSet<ShapeClass> = ShapeClass::ALL.into_iter().collect();
    for qid in 0..400 {
        if remaining.is_empty() {
            break;
        }
        let spec = synth.generate(qid);
        if remaining.remove(&spec.class) {
            // First specimen of the class: it must at least run on the
            // row-path oracle (dialect validity).
            let sql = spec.sql();
            if let Err(e) = run_differential(&db, &snap, &sql) {
                panic!("class {} invalid: {e:?}\nsql: {sql}", spec.class.as_str());
            }
        }
    }
    assert!(
        remaining.is_empty(),
        "classes never generated in 400 draws: {remaining:?}"
    );
}
