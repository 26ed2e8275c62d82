//! Fixed-point decimal arithmetic.
//!
//! TPC-DS monetary columns are `decimal(7,2)`; derived quantities in the
//! query set (ratios, averages) need more precision. We store an `i128`
//! mantissa with an explicit decimal scale (number of fractional digits),
//! which comfortably covers every aggregate the 99 queries can produce at
//! the scale factors we execute.

use std::cmp::Ordering;
use std::fmt;
use std::str::FromStr;

/// Maximum scale we ever normalize to. Division results are produced at
/// this scale, matching the "at least 6 fractional digits" behaviour most
/// engines give `decimal / decimal`.
pub const DIV_SCALE: u8 = 6;

const POW10: [i128; 39] = {
    let mut t = [1i128; 39];
    let mut i = 1;
    while i < 39 {
        t[i] = t[i - 1] * 10;
        i += 1;
    }
    t
};

/// A fixed-point decimal number: `mantissa * 10^-scale`.
///
/// Equality and ordering are *numeric*: `1.50 == 1.5`. Hashing is consistent
/// with equality because values are normalized (trailing zeros stripped)
/// before hashing.
#[derive(Clone, Copy, Debug)]
pub struct Decimal {
    mantissa: i128,
    scale: u8,
}

impl Decimal {
    /// Zero with scale 0.
    pub const ZERO: Decimal = Decimal {
        mantissa: 0,
        scale: 0,
    };

    /// Builds a decimal from a raw mantissa and scale. `1234, 2` is `12.34`.
    pub fn new(mantissa: i128, scale: u8) -> Self {
        debug_assert!((scale as usize) < POW10.len());
        Decimal { mantissa, scale }
    }

    /// Builds a decimal representing `cents / 100` — the natural constructor
    /// for TPC-DS `decimal(7,2)` money columns.
    pub fn from_cents(cents: i64) -> Self {
        Decimal::new(cents as i128, 2)
    }

    /// Builds a decimal from an integer.
    pub fn from_int(v: i64) -> Self {
        Decimal::new(v as i128, 0)
    }

    /// The raw mantissa.
    pub fn mantissa(&self) -> i128 {
        self.mantissa
    }

    /// The number of fractional digits.
    pub fn scale(&self) -> u8 {
        self.scale
    }

    /// Converts to `f64` (used only for display-level work such as
    /// histograms; all query arithmetic stays exact).
    pub fn to_f64(&self) -> f64 {
        let pow = POW10[self.scale as usize];
        // Same roundings as the 128-bit conversions, without their
        // library calls, whenever both operands fit 64 bits.
        match (i64::try_from(self.mantissa), i64::try_from(pow)) {
            (Ok(m), Ok(p)) => m as f64 / p as f64,
            _ => self.mantissa as f64 / pow as f64,
        }
    }

    /// Builds the closest decimal of the given scale from an `f64`.
    pub fn from_f64(v: f64, scale: u8) -> Self {
        let m = (v * POW10[scale as usize] as f64).round() as i128;
        Decimal::new(m, scale)
    }

    /// Re-expresses the value at exactly `scale` fractional digits,
    /// truncating toward zero if digits are dropped.
    pub fn rescale(&self, scale: u8) -> Self {
        match scale.cmp(&self.scale) {
            Ordering::Equal => *self,
            Ordering::Greater => {
                Decimal::new(self.mantissa * POW10[(scale - self.scale) as usize], scale)
            }
            Ordering::Less => {
                Decimal::new(self.mantissa / POW10[(self.scale - scale) as usize], scale)
            }
        }
    }

    /// Strips trailing fractional zeros so equal values share one
    /// representation (needed for hashing).
    pub fn normalize(&self) -> Self {
        let mut s = self.scale;
        // `i128 % 10` is a library call; money-sized mantissas strip in
        // 64-bit arithmetic.
        if let Ok(mut m) = i64::try_from(self.mantissa) {
            while s > 0 && m % 10 == 0 {
                m /= 10;
                s -= 1;
            }
            return Decimal::new(m as i128, s);
        }
        let mut m = self.mantissa;
        while s > 0 && m % 10 == 0 {
            m /= 10;
            s -= 1;
        }
        Decimal::new(m, s)
    }

    fn align(a: &Decimal, b: &Decimal) -> (i128, i128, u8) {
        let scale = a.scale.max(b.scale);
        (
            a.mantissa * POW10[(scale - a.scale) as usize],
            b.mantissa * POW10[(scale - b.scale) as usize],
            scale,
        )
    }

    /// Checked addition; `None` on overflow.
    pub fn checked_add(&self, other: &Decimal) -> Option<Decimal> {
        let (a, b, s) = Decimal::align(self, other);
        a.checked_add(b).map(|m| Decimal::new(m, s))
    }

    /// Checked subtraction; `None` on overflow.
    pub fn checked_sub(&self, other: &Decimal) -> Option<Decimal> {
        let (a, b, s) = Decimal::align(self, other);
        a.checked_sub(b).map(|m| Decimal::new(m, s))
    }

    /// Checked multiplication; the result scale is the sum of the operand
    /// scales, clamped to [`DIV_SCALE`] by truncation when it would exceed
    /// twice `DIV_SCALE` (keeps repeated products bounded).
    pub fn checked_mul(&self, other: &Decimal) -> Option<Decimal> {
        let m = self.mantissa.checked_mul(other.mantissa)?;
        let s = self.scale + other.scale;
        let d = Decimal::new(m, s);
        if s > 2 * DIV_SCALE {
            Some(d.rescale(DIV_SCALE))
        } else {
            Some(d)
        }
    }

    /// Checked division at [`DIV_SCALE`] fractional digits; `None` when the
    /// divisor is zero or the scaling overflows.
    pub fn checked_div(&self, other: &Decimal) -> Option<Decimal> {
        if other.mantissa == 0 {
            return None;
        }
        // numerator * 10^(DIV_SCALE + other.scale - self.scale) / other.mantissa
        let target = DIV_SCALE as i32 + other.scale as i32 - self.scale as i32;
        let num = if target >= 0 {
            self.mantissa.checked_mul(POW10[target as usize])?
        } else {
            self.mantissa / POW10[(-target) as usize]
        };
        Some(Decimal::new(num / other.mantissa, DIV_SCALE))
    }

    /// Negation.
    pub fn neg(&self) -> Decimal {
        Decimal::new(-self.mantissa, self.scale)
    }

    /// Absolute value.
    pub fn abs(&self) -> Decimal {
        Decimal::new(self.mantissa.abs(), self.scale)
    }

    /// True when the value is exactly zero.
    pub fn is_zero(&self) -> bool {
        self.mantissa == 0
    }
}

impl PartialEq for Decimal {
    fn eq(&self, other: &Self) -> bool {
        let (a, b, _) = Decimal::align(self, other);
        a == b
    }
}
impl Eq for Decimal {}

impl PartialOrd for Decimal {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for Decimal {
    fn cmp(&self, other: &Self) -> Ordering {
        let (a, b, _) = Decimal::align(self, other);
        a.cmp(&b)
    }
}

impl std::hash::Hash for Decimal {
    fn hash<H: std::hash::Hasher>(&self, state: &mut H) {
        let n = self.normalize();
        n.mantissa.hash(state);
        n.scale.hash(state);
    }
}

impl fmt::Display for Decimal {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.scale == 0 {
            return write!(f, "{}", self.mantissa);
        }
        let sign = if self.mantissa < 0 { "-" } else { "" };
        let abs = self.mantissa.unsigned_abs();
        let p = POW10[self.scale as usize] as u128;
        write!(
            f,
            "{}{}.{:0width$}",
            sign,
            abs / p,
            abs % p,
            width = self.scale as usize
        )
    }
}

/// Error returned by [`Decimal::from_str`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseDecimalError(pub String);

impl fmt::Display for ParseDecimalError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "invalid decimal literal: {}", self.0)
    }
}
impl std::error::Error for ParseDecimalError {}

impl FromStr for Decimal {
    type Err = ParseDecimalError;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        let t = s.trim();
        let bad = || ParseDecimalError(s.to_string());
        let (sign, rest) = match t.strip_prefix('-') {
            Some(r) => (-1i128, r),
            None => (1i128, t.strip_prefix('+').unwrap_or(t)),
        };
        if rest.is_empty() {
            return Err(bad());
        }
        let (int_part, frac_part) = match rest.split_once('.') {
            Some((i, fr)) => (i, fr),
            None => (rest, ""),
        };
        if int_part.is_empty() && frac_part.is_empty() {
            return Err(bad());
        }
        if frac_part.len() >= POW10.len() {
            return Err(bad());
        }
        let mut mantissa: i128 = 0;
        for c in int_part.chars().chain(frac_part.chars()) {
            let d = c.to_digit(10).ok_or_else(bad)? as i128;
            mantissa = mantissa.checked_mul(10).ok_or_else(bad)?;
            mantissa = mantissa.checked_add(d).ok_or_else(bad)?;
        }
        Ok(Decimal::new(sign * mantissa, frac_part.len() as u8))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn dec(s: &str) -> Decimal {
        s.parse().unwrap()
    }

    #[test]
    fn parse_and_display_round_trip() {
        for s in ["0", "1", "-1", "12.34", "-0.05", "1000.00", "0.000001"] {
            let d = dec(s);
            assert_eq!(d.to_string(), s, "round trip of {s}");
        }
    }

    #[test]
    fn parse_rejects_garbage() {
        for s in ["", "-", ".", "1.2.3", "abc", "1e5", "--3"] {
            assert!(s.parse::<Decimal>().is_err(), "{s} should not parse");
        }
    }

    #[test]
    fn numeric_equality_ignores_scale() {
        assert_eq!(dec("1.50"), dec("1.5"));
        assert_eq!(dec("-0.0"), dec("0"));
        assert_ne!(dec("1.50"), dec("1.51"));
    }

    #[test]
    fn add_aligns_scales() {
        assert_eq!(dec("1.5").checked_add(&dec("0.25")).unwrap(), dec("1.75"));
        assert_eq!(dec("-1").checked_add(&dec("0.5")).unwrap(), dec("-0.5"));
    }

    #[test]
    fn sub_and_neg() {
        assert_eq!(dec("3.00").checked_sub(&dec("4.5")).unwrap(), dec("-1.5"));
        assert_eq!(dec("2.5").neg(), dec("-2.5"));
        assert_eq!(dec("-2.5").abs(), dec("2.5"));
    }

    #[test]
    fn mul_scales_add() {
        let p = dec("1.5").checked_mul(&dec("2.5")).unwrap();
        assert_eq!(p, dec("3.75"));
        assert_eq!(p.scale(), 2);
    }

    #[test]
    fn div_gives_six_digits() {
        let q = dec("1").checked_div(&dec("3")).unwrap();
        assert_eq!(q, dec("0.333333"));
        assert!(dec("1").checked_div(&Decimal::ZERO).is_none());
    }

    #[test]
    fn div_with_mixed_scales() {
        let q = dec("100.00").checked_div(&dec("8")).unwrap();
        assert_eq!(q, dec("12.5"));
    }

    #[test]
    fn ordering_is_numeric() {
        assert!(dec("1.5") < dec("1.50001"));
        assert!(dec("-2") < dec("-1.999"));
        assert!(dec("10") > dec("9.999999"));
    }

    #[test]
    fn rescale_truncates_toward_zero() {
        assert_eq!(dec("1.987").rescale(2).to_string(), "1.98");
        assert_eq!(dec("-1.987").rescale(2).to_string(), "-1.98");
        assert_eq!(dec("1.5").rescale(4).to_string(), "1.5000");
    }

    #[test]
    fn hash_consistent_with_eq() {
        use std::collections::hash_map::DefaultHasher;
        use std::hash::{Hash, Hasher};
        let h = |d: &Decimal| {
            let mut s = DefaultHasher::new();
            d.hash(&mut s);
            s.finish()
        };
        assert_eq!(h(&dec("1.50")), h(&dec("1.5")));
        assert_eq!(h(&dec("0.0")), h(&dec("0")));
    }

    #[test]
    fn from_cents_and_int() {
        assert_eq!(Decimal::from_cents(1234).to_string(), "12.34");
        assert_eq!(Decimal::from_int(-7).to_string(), "-7");
    }

    #[test]
    fn f64_conversion_close() {
        let d = Decimal::from_f64(1.23456, 4);
        assert_eq!(d.to_string(), "1.2346");
        assert!((dec("2.5").to_f64() - 2.5).abs() < 1e-12);
    }
}
