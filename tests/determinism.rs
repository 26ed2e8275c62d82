//! Integration: the determinism guarantees the paper's comparability
//! argument rests on — identical seeds give identical data sets, queries
//! and metric inputs.

use tpcds_core::{Generator, Workload};

#[test]
fn same_seed_same_dataset() {
    let a = Generator::new(0.01);
    let b = Generator::new(0.01);
    for table in ["store_sales", "customer", "item", "web_returns"] {
        assert_eq!(a.generate(table), b.generate(table), "{table} differs");
    }
}

#[test]
fn different_seed_different_dataset() {
    let a = Generator::new(0.01);
    let b = Generator::with_seed(0.01, 12345);
    assert_ne!(a.generate("customer"), b.generate("customer"));
}

#[test]
fn same_seed_same_queries() {
    let w1 = Workload::tpcds().unwrap();
    let w2 = Workload::tpcds().unwrap();
    for id in [1u32, 20, 52, 99] {
        for stream in 0..3 {
            assert_eq!(
                w1.instantiate(id, 7, stream).unwrap(),
                w2.instantiate(id, 7, stream).unwrap()
            );
        }
    }
}

#[test]
fn scale_factor_monotonicity_in_generated_data() {
    let small = Generator::new(0.005);
    let large = Generator::new(0.02);
    for table in ["store_sales", "customer", "item"] {
        assert!(
            small.row_count(table) < large.row_count(table),
            "{table} does not grow with SF"
        );
    }
}

#[test]
fn comparability_zones_hold_on_generated_data() {
    // The F4 property as a pass/fail test: qualifying-row counts for
    // same-zone 28-day windows must be much closer to each other than to
    // other zones' counts.
    let tpcds = tpcds_core::TpcDs::builder()
        .scale_factor(0.02)
        .build()
        .expect("load");
    let dates = tpcds_core::SalesDateDistribution::tpcds();
    let count_window = |d1: tpcds_core::types::Date| {
        let d2 = d1.add_days(27);
        let sql = format!(
            "select count(*) c from store_sales, date_dim \
             where ss_sold_date_sk = d_date_sk and d_date between '{d1}' and '{d2}'"
        );
        tpcds.query(&sql).unwrap().rows[0][0].as_int().unwrap() as f64
    };
    let zone_counts = |zone| -> Vec<f64> {
        (0..6)
            .map(|s| {
                let days = dates.zone_days(1998 + (s % 3), zone);
                count_window(days[(s as usize * 997) % (days.len() - 28)])
            })
            .collect()
    };
    let low = zone_counts(tpcds_core::SalesZone::Low);
    let high = zone_counts(tpcds_core::SalesZone::High);
    let mean = |v: &[f64]| v.iter().sum::<f64>() / v.len() as f64;
    let spread = |v: &[f64]| {
        let m = mean(v);
        v.iter().map(|x| (x - m).abs()).fold(0.0f64, f64::max) / m
    };
    // Within-zone spread is small; across zones the high zone draws
    // ~2.2x the low zone's density.
    assert!(
        spread(&low) < 0.35,
        "low-zone counts too dispersed: {low:?}"
    );
    assert!(
        spread(&high) < 0.35,
        "high-zone counts too dispersed: {high:?}"
    );
    let ratio = mean(&high) / mean(&low);
    assert!(
        (1.6..=3.0).contains(&ratio),
        "zone weight ratio {ratio} outside expectations (want ~2.2)"
    );
}
