//! Partial aggregate accumulators with exact merge semantics.
//!
//! [`PAcc`] is the one accumulator of every aggregate function —
//! COUNT(*)/COUNT/SUM/MIN/MAX/AVG/STDDEV_SAMP — on both executors: the
//! kernels fold a cell straight from its typed buffer ([`PAcc::fold`]) and
//! the row interpreter folds one value at a time ([`PAcc::update`]). Each state is
//! associative and commutative (integer sums in `i128`, decimal sums and
//! STDDEV_SAMP's `{n, Σx, Σx²}` exact, MIN/MAX a comparison lattice), so
//! per-worker partials merge into exactly the value the serial row path
//! produces. DISTINCT, ROLLUP and GROUPING are the binder's to lower onto
//! plain calls.

use crate::column::{Column, ColumnData};
use crate::StorageError;
use std::cmp::Ordering;
use tpcds_types::{DataType, Decimal, Value};

/// The aggregate functions the columnar path computes.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum AggKind {
    /// `COUNT(*)` — counts rows.
    CountStar,
    /// `COUNT(col)` — counts non-NULL values.
    Count,
    /// `SUM(col)` — exact, integer fast path with decimal promotion.
    Sum,
    /// `MIN(col)`.
    Min,
    /// `MAX(col)`.
    Max,
    /// `AVG(col)` — exact decimal sum divided at finish.
    Avg,
    /// `STDDEV_SAMP(col)` — exact count, sum and sum of squares; the
    /// variance is taken once, at finish.
    StddevSamp,
}

/// One aggregate call: the function and its column argument
/// (`None` only for `COUNT(*)`).
#[derive(Clone, Copy, Debug)]
pub struct AggSpec {
    /// Which aggregate to compute.
    pub kind: AggKind,
    /// Argument column index; `None` for `COUNT(*)`.
    pub col: Option<usize>,
}

impl AggSpec {
    /// The result column's type, given the argument column's: a count is
    /// an `Int`, a sum an `Int` over `Int` and otherwise a `Decimal`, an
    /// average or deviation a `Decimal`, MIN and MAX the argument's.
    pub(crate) fn output_type(&self, arg: Option<DataType>) -> DataType {
        match (self.kind, arg) {
            (AggKind::Min | AggKind::Max, Some(t)) | (AggKind::Sum, Some(t @ DataType::Int)) => t,
            (AggKind::Sum | AggKind::Avg | AggKind::StddevSamp, _) => DataType::Decimal,
            _ => DataType::Int,
        }
    }
}

/// A partial accumulator; the row path and the kernels share it, so
/// `finish` yields byte-identical values on both.
#[derive(Clone, Debug)]
pub enum PAcc {
    /// COUNT / COUNT(*).
    Count(i64),
    /// SUM: integers accumulate in `int`, decimals in `dec`; `any_dec`
    /// decides the result type, `seen` whether the result is NULL.
    Sum {
        /// Exact decimal partial sum, if any decimal was seen.
        dec: Option<Decimal>,
        /// Integer partial sum (kept exact in i128).
        int: i128,
        /// True once a decimal value contributed.
        any_dec: bool,
        /// True once any non-NULL value contributed.
        seen: bool,
    },
    /// MIN / MAX.
    MinMax {
        /// Best value so far (`None` until a non-NULL value is seen).
        best: Option<Value>,
        /// True for MIN, false for MAX.
        is_min: bool,
    },
    /// AVG and STDDEV_SAMP: the number of non-NULL values, their exact
    /// sum and (STDDEV_SAMP only) exact sum of squares, combined at finish.
    Moments(i64, Decimal, Option<Decimal>),
}

impl PAcc {
    /// A fresh accumulator for the function.
    pub fn new(kind: AggKind) -> PAcc {
        match kind {
            AggKind::CountStar | AggKind::Count => PAcc::Count(0),
            AggKind::Sum => PAcc::Sum {
                dec: None,
                int: 0,
                any_dec: false,
                seen: false,
            },
            AggKind::Min => PAcc::MinMax {
                best: None,
                is_min: true,
            },
            AggKind::Max => PAcc::MinMax {
                best: None,
                is_min: false,
            },
            AggKind::Avg => PAcc::Moments(0, Decimal::ZERO, None),
            AggKind::StddevSamp => PAcc::Moments(0, Decimal::ZERO, Some(Decimal::ZERO)),
        }
    }

    /// Folds one value in. `None` means `COUNT(*)` (no argument).
    pub fn update(&mut self, v: Option<&Value>) -> Result<(), StorageError> {
        match self {
            PAcc::Count(c) => match v {
                None => *c += 1,
                Some(v) if !v.is_null() => *c += 1,
                _ => {}
            },
            PAcc::Sum {
                dec,
                int,
                any_dec,
                seen,
            } => {
                if let Some(v) = v {
                    match v {
                        Value::Null => {}
                        Value::Int(i) => {
                            *int += *i as i128;
                            *seen = true;
                        }
                        Value::Decimal(d) => add_dec(dec, any_dec, seen, d)?,
                        other => {
                            return Err(StorageError::new(format!("sum of non-number {other}")))
                        }
                    }
                }
            }
            PAcc::MinMax { best, is_min } => {
                if let Some(v) = v {
                    if !v.is_null() {
                        let replace = match best {
                            None => true,
                            Some(b) => match v.sql_cmp(b) {
                                Some(o) => {
                                    if *is_min {
                                        o == std::cmp::Ordering::Less
                                    } else {
                                        o == std::cmp::Ordering::Greater
                                    }
                                }
                                None => false,
                            },
                        };
                        if replace {
                            *best = Some(v.clone());
                        }
                    }
                }
            }
            PAcc::Moments(n, sum, sq) => {
                if let Some(v) = v {
                    if let Some(d) = v.as_decimal() {
                        add_moment(n, sum, sq, &d)?;
                    } else if !v.is_null() {
                        let name = moments_name(sq);
                        return Err(StorageError::new(format!("{name} of non-number {v}")));
                    }
                }
            }
        }
        Ok(())
    }

    /// Folds row `i` of `col` in, straight from the typed buffer: an
    /// `I64`, `Decimal` or `Date` cell builds no [`Value`], and a string
    /// cell only when it becomes a MIN or MAX.
    #[inline]
    pub(crate) fn fold(&mut self, col: &Column, i: usize) -> Result<(), StorageError> {
        if col.nulls.get(i) {
            return Ok(());
        }
        match (&mut *self, &col.data) {
            (PAcc::Count(c), _) => *c += 1,
            (PAcc::Sum { int, seen, .. }, ColumnData::I64(b)) => {
                *int += b[i] as i128;
                *seen = true;
            }
            (
                PAcc::Sum {
                    dec, any_dec, seen, ..
                },
                ColumnData::Decimal(b),
            ) => add_dec(dec, any_dec, seen, &b.get(i))?,
            (PAcc::Moments(n, sum, sq), ColumnData::I64(b)) => {
                add_moment(n, sum, sq, &Decimal::from_int(b[i]))?
            }
            (PAcc::Moments(n, sum, sq), ColumnData::Decimal(b)) => {
                add_moment(n, sum, sq, &b.get(i))?
            }
            (
                PAcc::MinMax {
                    best: Some(best),
                    is_min,
                },
                data,
            ) => {
                let o = match (data, &*best) {
                    (ColumnData::I64(b), Value::Int(x)) => b[i].cmp(x),
                    (ColumnData::Decimal(b), Value::Decimal(x)) => b.get(i).cmp(x),
                    (ColumnData::Date(b), Value::Date(x)) => b[i].cmp(x),
                    (ColumnData::Str(b), Value::Str(x)) => b.get(i).cmp(x),
                    _ => return self.update(Some(&col.value_at(i))),
                };
                if o == [Ordering::Greater, Ordering::Less][*is_min as usize] {
                    *best = col.value_at(i);
                }
            }
            _ => self.update(Some(&col.value_at(i)))?,
        }
        Ok(())
    }

    /// Merges another partial into this one (commutative, exact).
    pub fn merge(&mut self, other: PAcc) -> Result<(), StorageError> {
        match (&mut *self, other) {
            (PAcc::Count(a), PAcc::Count(b)) => *a += b,
            (
                PAcc::Sum {
                    dec,
                    int,
                    any_dec,
                    seen,
                },
                PAcc::Sum {
                    dec: od,
                    int: oi,
                    any_dec: oad,
                    seen: os,
                },
            ) => {
                *int += oi;
                if let Some(d) = od {
                    add_dec(dec, any_dec, seen, &d)?;
                }
                *any_dec |= oad;
                *seen |= os;
            }
            (PAcc::MinMax { .. }, PAcc::MinMax { best: ob, .. }) => {
                if let Some(v) = ob {
                    self.update(Some(&v))?;
                }
            }
            (PAcc::Moments(n, sum, sq), PAcc::Moments(on, os, osq)) => {
                let name = moments_name(sq);
                let overflow = || StorageError::new(format!("{name} overflow"));
                if let (Some(sq), Some(osq)) = (sq.as_mut(), osq) {
                    *sq = sq.checked_add(&osq).ok_or_else(overflow)?;
                }
                *sum = sum.checked_add(&os).ok_or_else(overflow)?;
                *n += on;
            }
            _ => unreachable!("merging mismatched accumulators"),
        }
        Ok(())
    }

    /// Final value.
    pub fn finish(self) -> Value {
        match self {
            PAcc::Count(c) => Value::Int(c),
            PAcc::Sum {
                dec,
                int,
                any_dec,
                seen,
            } => {
                if !seen {
                    Value::Null
                } else if any_dec {
                    let mut total = dec.unwrap_or(Decimal::ZERO);
                    if int != 0 {
                        total = total.checked_add(&Decimal::new(int, 0)).unwrap_or(total);
                    }
                    Value::Decimal(total)
                } else {
                    Value::Int(int as i64)
                }
            }
            PAcc::MinMax { best, .. } => best.unwrap_or(Value::Null),
            PAcc::Moments(0, _, None) => Value::Null,
            PAcc::Moments(n, sum, None) => sum
                .checked_div(&Decimal::from_int(n))
                .map(Value::Decimal)
                .unwrap_or(Value::Null),
            PAcc::Moments(..=1, _, _) => Value::Null,
            PAcc::Moments(n, sum, Some(sq)) => {
                // n·Σx² − (Σx)², exactly when it fits; the variance is the
                // one f64 step, so any merge order gives the same bytes.
                let nf = n as f64;
                let exact = (Decimal::from_int(n).checked_mul(&sq))
                    .zip(sum.checked_mul(&sum))
                    .and_then(|(a, b)| a.checked_sub(&b));
                let num = match exact {
                    Some(d) => d.normalize().to_f64(),
                    None => nf * sq.to_f64() - sum.to_f64().powi(2),
                };
                let var = (num / (nf * (nf - 1.0))).max(0.0);
                Value::Decimal(Decimal::from_f64(var.sqrt(), 6))
            }
        }
    }
}

/// Adds a decimal to a [`PAcc::Sum`].
fn add_dec(
    dec: &mut Option<Decimal>,
    any_dec: &mut bool,
    seen: &mut bool,
    d: &Decimal,
) -> Result<(), StorageError> {
    let cur = dec.unwrap_or(Decimal::ZERO);
    *dec = Some(
        cur.checked_add(d)
            .ok_or_else(|| StorageError::new("sum overflow"))?,
    );
    *any_dec = true;
    *seen = true;
    Ok(())
}

/// Adds one value to a [`PAcc::Moments`].
fn add_moment(
    n: &mut i64,
    sum: &mut Decimal,
    sq: &mut Option<Decimal>,
    d: &Decimal,
) -> Result<(), StorageError> {
    let name = moments_name(sq);
    let overflow = || StorageError::new(format!("{name} overflow"));
    if let Some(sq) = sq {
        let d2 = d.checked_mul(d).ok_or_else(overflow)?;
        *sq = sq.checked_add(&d2).ok_or_else(overflow)?;
    }
    *sum = sum.checked_add(d).ok_or_else(overflow)?;
    *n += 1;
    Ok(())
}

/// The SQL name of a [`PAcc::Moments`] accumulator, for its errors.
fn moments_name(sq: &Option<Decimal>) -> &'static str {
    ["avg", "stddev_samp"][sq.is_some() as usize]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sum_int_then_decimal_promotes() {
        let mut a = PAcc::new(AggKind::Sum);
        a.update(Some(&Value::Int(2))).unwrap();
        a.update(Some(&Value::Decimal("0.50".parse().unwrap())))
            .unwrap();
        a.update(Some(&Value::Null)).unwrap();
        assert_eq!(a.finish(), Value::Decimal("2.50".parse().unwrap()));
    }

    #[test]
    fn empty_aggregates_finish_like_engine_defaults() {
        assert_eq!(PAcc::new(AggKind::Count).finish(), Value::Int(0));
        assert!(PAcc::new(AggKind::Sum).finish().is_null());
        assert!(PAcc::new(AggKind::Min).finish().is_null());
        assert!(PAcc::new(AggKind::Avg).finish().is_null());
        let mut one = PAcc::new(AggKind::StddevSamp);
        one.update(Some(&Value::Int(4))).unwrap();
        assert!(one.finish().is_null(), "stddev_samp of one value");
    }

    #[test]
    fn stddev_samp_is_exact_until_finish() {
        let mut a = PAcc::new(AggKind::StddevSamp);
        for v in ["2.50", "4.00", "4.00", "5.25", "7.00", "9.75"] {
            a.update(Some(&Value::Decimal(v.parse().unwrap()))).unwrap();
        }
        a.update(Some(&Value::Null)).unwrap();
        // n = 6, Σx = 32.5, Σx² = 209.875: variance (6·Σx² − (Σx)²) / 30.
        let want = (203.0f64 / 30.0).sqrt();
        assert_eq!(a.finish(), Value::Decimal(Decimal::from_f64(want, 6)));
    }

    #[test]
    fn split_merge_equals_serial() {
        let vals: Vec<Value> = (0..100)
            .map(|i| {
                if i % 7 == 0 {
                    Value::Null
                } else {
                    Value::Int(i)
                }
            })
            .collect();
        for kind in [
            AggKind::Count,
            AggKind::Sum,
            AggKind::Min,
            AggKind::Max,
            AggKind::Avg,
            AggKind::StddevSamp,
        ] {
            let mut serial = PAcc::new(kind);
            for v in &vals {
                serial.update(Some(v)).unwrap();
            }
            let (mut a, mut b) = (PAcc::new(kind), PAcc::new(kind));
            for v in &vals[..37] {
                a.update(Some(v)).unwrap();
            }
            for v in &vals[37..] {
                b.update(Some(v)).unwrap();
            }
            a.merge(b).unwrap();
            assert_eq!(a.finish(), serial.finish(), "{kind:?}");
        }
    }

    /// [`PAcc::fold`] over a typed buffer (an `Int`, a `Decimal` and a
    /// string column, NULLs included) finishes like [`PAcc::update`] over
    /// the same values.
    #[test]
    fn fold_matches_update() {
        let ints = (0..50).map(|i| Value::Int(i - 20));
        let decs = (0..50).map(|i| Value::Decimal(Decimal::from_cents(i * 37 - 900)));
        let strs = (0..50).map(|i| Value::str(format!("s{}", (i * 7) % 13)));
        for (dtype, vals) in [
            (DataType::Int, ints.collect::<Vec<_>>()),
            (DataType::Decimal, decs.collect()),
            (DataType::Str, strs.collect()),
        ] {
            let vals: Vec<Value> = (vals.into_iter().enumerate())
                .map(|(i, v)| if i % 5 == 0 { Value::Null } else { v })
                .collect();
            let mut col = Column::for_type(dtype);
            vals.iter().for_each(|v| col.push(v));
            let numeric = [AggKind::Sum, AggKind::Avg, AggKind::StddevSamp];
            let kinds = [AggKind::Count, AggKind::Min, AggKind::Max];
            let kinds = match dtype {
                DataType::Str => kinds.to_vec(),
                _ => kinds.into_iter().chain(numeric).collect(),
            };
            for kind in kinds {
                let (mut typed, mut boxed) = (PAcc::new(kind), PAcc::new(kind));
                for (i, v) in vals.iter().enumerate() {
                    typed.fold(&col, i).unwrap();
                    boxed.update(Some(v)).unwrap();
                }
                assert_eq!(typed.finish(), boxed.finish(), "{dtype:?} {kind:?}");
            }
        }
    }

    #[test]
    fn sum_of_string_errors_like_engine() {
        let mut a = PAcc::new(AggKind::Sum);
        let err = a.update(Some(&Value::str("x"))).unwrap_err();
        assert!(err.0.contains("sum of non-number"));
        let mut s = PAcc::new(AggKind::StddevSamp);
        let err = s.update(Some(&Value::str("x"))).unwrap_err();
        assert_eq!(err.0, "stddev_samp of non-number x");
    }
}
