//! Property-based integration tests over the cross-crate invariants.
//!
//! Cases are drawn from the repo's deterministic [`ColumnRng`] (no
//! third-party property-testing crate: the build must resolve offline);
//! each failure reproduces from its (property, case) coordinate.

use tpcds_core::types::rng::ColumnRng;
use tpcds_core::types::{Date, Decimal, Value};

/// Per-case RNG: seed fixed, stream selects the property, row is the case.
fn rng(property: u64, case: u64) -> ColumnRng {
    ColumnRng::at(0xD1CE_F00D, property, case)
}

const CASES: u64 = 256;

#[test]
fn decimal_add_commutes() {
    for case in 0..CASES {
        let mut r = rng(1, case);
        let x = Decimal::new(
            r.uniform_i64(-1_000_000_000, 1_000_000_000) as i128,
            r.uniform_i64(0, 5) as u8,
        );
        let y = Decimal::new(
            r.uniform_i64(-1_000_000_000, 1_000_000_000) as i128,
            r.uniform_i64(0, 5) as u8,
        );
        assert_eq!(x.checked_add(&y), y.checked_add(&x), "x={x} y={y}");
    }
}

#[test]
fn decimal_add_sub_round_trips() {
    for case in 0..CASES {
        let mut r = rng(2, case);
        let x = Decimal::new(
            r.uniform_i64(-1_000_000_000, 1_000_000_000) as i128,
            r.uniform_i64(0, 5) as u8,
        );
        let y = Decimal::new(
            r.uniform_i64(-1_000_000_000, 1_000_000_000) as i128,
            r.uniform_i64(0, 5) as u8,
        );
        let there = x.checked_add(&y).unwrap();
        let back = there.checked_sub(&y).unwrap();
        assert_eq!(back, x, "x={x} y={y}");
    }
}

#[test]
fn decimal_parse_display_round_trips() {
    for case in 0..CASES {
        let mut r = rng(3, case);
        let d = Decimal::new(
            r.uniform_i64(-10_000_000_000, 10_000_000_000) as i128,
            r.uniform_i64(0, 7) as u8,
        );
        let parsed: Decimal = d.to_string().parse().unwrap();
        assert_eq!(parsed, d);
    }
}

#[test]
fn date_day_number_round_trips() {
    for case in 0..CASES {
        let mut r = rng(4, case);
        let days = r.uniform_i64(0, 73_048) as i32;
        let d = Date::from_day_number(days);
        let (y, m, dd) = d.ymd();
        assert_eq!(Date::from_ymd(y, m, dd), d);
        assert_eq!(d.date_sk(), Date::from_date_sk(d.date_sk()).date_sk());
    }
}

#[test]
fn date_add_days_is_additive() {
    for case in 0..CASES {
        let mut r = rng(5, case);
        let d = Date::from_day_number(r.uniform_i64(0, 69_999) as i32);
        let a = r.uniform_i64(-500, 499) as i32;
        let b = r.uniform_i64(-500, 499) as i32;
        assert_eq!(d.add_days(a).add_days(b), d.add_days(a + b), "{d} {a} {b}");
    }
}

#[test]
fn value_sort_cmp_is_antisymmetric() {
    for case in 0..CASES {
        let mut r = rng(6, case);
        let va = Value::Int(r.next_u64() as i64);
        let vb = Value::Int(r.next_u64() as i64);
        assert_eq!(va.sort_cmp(&vb), vb.sort_cmp(&va).reverse(), "{va} {vb}");
    }
}

#[test]
fn generator_chunks_compose() {
    let g = tpcds_core::Generator::new(0.005);
    let n = g.row_count("customer");
    let full = g.generate("customer");
    for case in 0..48 {
        let mut r = rng(7, case);
        let lo = (r.uniform_i64(0, 49) as u64).min(n.saturating_sub(1));
        let hi = (lo + r.uniform_i64(1, 49) as u64).min(n);
        let chunk = g.generate_range("customer", lo, hi);
        assert_eq!(
            &full[lo as usize..hi as usize],
            chunk.as_slice(),
            "lo={lo} hi={hi}"
        );
    }
}

#[test]
fn scd_position_inverts_consistently() {
    for case in 0..CASES {
        let mut r = rng(8, case);
        let sk = r.uniform_i64(0, 99_999) as u64;
        let pos = tpcds_core::Generator::scd_position(sk);
        assert!(pos.revision < pos.revision_count);
        assert!(pos.revision_count >= 1 && pos.revision_count <= 3);
        // Consecutive surrogates never skip business keys.
        let next = tpcds_core::Generator::scd_position(sk + 1);
        assert!(next.business_key == pos.business_key || next.business_key == pos.business_key + 1);
    }
}

#[test]
fn like_match_agrees_with_definition() {
    // Reference implementation via recursive definition.
    fn reference(s: &[char], p: &[char]) -> bool {
        match (s, p) {
            ([], []) => true,
            ([], [f, rest @ ..]) => *f == '%' && reference(&[], rest),
            (_, []) => false,
            ([sc, srest @ ..], [pc, prest @ ..]) => match pc {
                '%' => reference(s, prest) || reference(srest, p),
                '_' => reference(srest, prest),
                c => *c == *sc && reference(srest, prest),
            },
        }
    }
    let s_pool = ['a', 'b', 'c'];
    let p_pool = ['a', 'b', 'c', '%', '_'];
    for case in 0..2048 {
        let mut r = rng(9, case);
        let s: String = (0..r.uniform_i64(0, 6))
            .map(|_| s_pool[r.uniform_i64(0, 2) as usize])
            .collect();
        let p: String = (0..r.uniform_i64(0, 4))
            .map(|_| p_pool[r.uniform_i64(0, 4) as usize])
            .collect();
        let sc: Vec<char> = s.chars().collect();
        let pc: Vec<char> = p.chars().collect();
        assert_eq!(
            tpcds_core::engine::expr::like_match(&s, &p),
            reference(&sc, &pc),
            "s={s:?} p={p:?}"
        );
    }
}
