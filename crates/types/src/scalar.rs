//! Scalar expression semantics shared by the engine's row-at-a-time
//! evaluator and the columnar expression kernels in `tpcds-storage`.
//!
//! Both paths call these exact functions, so arithmetic edge cases —
//! checked i64 overflow, decimal rescale on `*`/`/`, division by zero
//! yielding NULL, NULL propagation — agree by construction rather than by
//! parallel implementation. Errors are plain strings; the engine wraps
//! them into its own error type, the kernels defer them per row.

use crate::date::Date;
use crate::decimal::Decimal;
use crate::value::{DataType, Value};
use std::cmp::Ordering;

/// Arithmetic operators.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ArithOp {
    /// `+`
    Add,
    /// `-`
    Sub,
    /// `*`
    Mul,
    /// `/`
    Div,
    /// `%`
    Mod,
}

/// Comparison operators.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CmpKind {
    /// `=`
    Eq,
    /// `<>`
    Ne,
    /// `<`
    Lt,
    /// `<=`
    Le,
    /// `>`
    Gt,
    /// `>=`
    Ge,
}

impl CmpKind {
    /// Whether an ordering between the two operands satisfies the operator.
    #[inline]
    pub fn test(self, ord: Ordering) -> bool {
        match self {
            CmpKind::Eq => ord == Ordering::Equal,
            CmpKind::Ne => ord != Ordering::Equal,
            CmpKind::Lt => ord == Ordering::Less,
            CmpKind::Le => ord != Ordering::Greater,
            CmpKind::Gt => ord == Ordering::Greater,
            CmpKind::Ge => ord != Ordering::Less,
        }
    }

    /// The operator `op'` with `a op b == b op' a`.
    pub fn flip(self) -> CmpKind {
        match self {
            CmpKind::Eq | CmpKind::Ne => self,
            CmpKind::Lt => CmpKind::Gt,
            CmpKind::Le => CmpKind::Ge,
            CmpKind::Gt => CmpKind::Lt,
            CmpKind::Ge => CmpKind::Le,
        }
    }
}

/// Scalar functions.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ScalarFunc {
    /// `substr(s, start [, len])`, 1-based.
    Substr,
    /// `coalesce(a, b, ...)`.
    Coalesce,
    /// `nullif(a, b)`.
    Nullif,
    /// `abs(x)`.
    Abs,
    /// `round(x [, digits])`.
    Round,
    /// `lower(s)`.
    Lower,
    /// `upper(s)`.
    Upper,
    /// `char_length(s)` / `length(s)`.
    Length,
}

/// Arithmetic with numeric widening, date arithmetic and NULL propagation.
///
/// Integer `+`/`-`/`*` are checked (overflow is an error); `/` widens to
/// exact decimals and yields NULL on division by zero; `%` yields NULL on
/// a zero divisor.
pub fn arith(op: ArithOp, l: &Value, r: &Value) -> Result<Value, String> {
    use Value::*;
    if l.is_null() || r.is_null() {
        return Ok(Null);
    }
    // Date arithmetic: date ± int days, date - date.
    match (l, r, op) {
        (Date(d), Int(n), ArithOp::Add) => return Ok(Date(d.add_days(*n as i32))),
        (Date(d), Int(n), ArithOp::Sub) => return Ok(Date(d.add_days(-*n as i32))),
        (Int(n), Date(d), ArithOp::Add) => return Ok(Date(d.add_days(*n as i32))),
        (Date(a), Date(b), ArithOp::Sub) => return Ok(Int(a.days_since(b) as i64)),
        _ => {}
    }
    match (l, r) {
        (Int(a), Int(b)) => match op {
            ArithOp::Add => a
                .checked_add(*b)
                .map(Int)
                .ok_or_else(|| "integer overflow in +".to_string()),
            ArithOp::Sub => a
                .checked_sub(*b)
                .map(Int)
                .ok_or_else(|| "integer overflow in -".to_string()),
            ArithOp::Mul => a
                .checked_mul(*b)
                .map(Int)
                .ok_or_else(|| "integer overflow in *".to_string()),
            ArithOp::Div => {
                // Exact rational results at decimal scale (the TPC-DS
                // ratio queries rely on this); division by zero yields
                // NULL so predicate guards need not dominate evaluation
                // order.
                let ld = crate::Decimal::from_int(*a);
                let rd = crate::Decimal::from_int(*b);
                Ok(ld.checked_div(&rd).map(Value::Decimal).unwrap_or(Null))
            }
            ArithOp::Mod => {
                if *b == 0 {
                    Ok(Null)
                } else {
                    // `i64::MIN % -1` is 0, which `%` cannot compute.
                    Ok(Int(a.wrapping_rem(*b)))
                }
            }
        },
        _ => {
            let a = l
                .as_decimal()
                .ok_or_else(|| format!("non-numeric operand {l}"))?;
            let b = r
                .as_decimal()
                .ok_or_else(|| format!("non-numeric operand {r}"))?;
            if op == ArithOp::Div {
                // NULL on division by zero, matching the integer path.
                return Ok(a.checked_div(&b).map(Value::Decimal).unwrap_or(Null));
            }
            let res = match op {
                ArithOp::Add => a.checked_add(&b),
                ArithOp::Sub => a.checked_sub(&b),
                ArithOp::Mul => a.checked_mul(&b),
                ArithOp::Div | ArithOp::Mod => None,
            };
            res.map(Value::Decimal)
                .ok_or_else(|| format!("decimal arithmetic failed: {l} {op:?} {r}"))
        }
    }
}

/// Unary minus: NULL passes through, integers negate checked (`-i64::MIN`
/// is an overflow error, as in `0 - i64::MIN`), decimals negate exactly.
pub fn neg(v: &Value) -> Result<Value, String> {
    match v {
        Value::Null => Ok(Value::Null),
        Value::Int(v) => v
            .checked_neg()
            .map(Value::Int)
            .ok_or_else(|| "integer overflow in -".to_string()),
        Value::Decimal(d) => Ok(Value::Decimal(d.neg())),
        other => Err(format!("cannot negate {other}")),
    }
}

/// CAST implementation. NULL casts to NULL; decimal→int truncates toward
/// zero; string sources parse after trimming.
pub fn cast(v: Value, ty: DataType) -> Result<Value, String> {
    if v.is_null() {
        return Ok(Value::Null);
    }
    match (ty, &v) {
        (DataType::Int, Value::Int(_)) => Ok(v),
        (DataType::Int, Value::Decimal(d)) => Ok(Value::Int(d.rescale(0).mantissa() as i64)),
        (DataType::Int, Value::Str(s)) => s
            .trim()
            .parse::<i64>()
            .map(Value::Int)
            .map_err(|e| format!("cannot cast {s:?} to integer: {e}")),
        (DataType::Decimal, Value::Decimal(_)) => Ok(v),
        (DataType::Decimal, Value::Int(i)) => Ok(Value::Decimal(Decimal::from_int(*i))),
        (DataType::Decimal, Value::Str(s)) => s
            .trim()
            .parse::<Decimal>()
            .map(Value::Decimal)
            .map_err(|e| format!("cannot cast {s:?} to decimal: {e}")),
        (DataType::Date, Value::Date(_)) => Ok(v),
        (DataType::Date, Value::Str(s)) => s
            .trim()
            .parse::<Date>()
            .map(Value::Date)
            .map_err(|e| format!("cannot cast {s:?} to date: {e}")),
        (DataType::Str, other) => Ok(Value::str(other.to_flat())),
        (want, have) => Err(format!("cannot cast {have} to {want}")),
    }
}

/// `||`: NULL if either side is NULL, else the flat renderings joined.
pub fn concat(l: &Value, r: &Value) -> Value {
    if l.is_null() || r.is_null() {
        return Value::Null;
    }
    Value::str(format!("{}{}", l.to_flat(), r.to_flat()))
}

/// Evaluates a scalar function over already-evaluated arguments.
///
/// COALESCE and NULLIF see NULL arguments; every other function
/// NULL-propagates before looking at its arguments (the row path
/// evaluates all arguments eagerly first, and so do the kernels).
pub fn scalar_func(f: ScalarFunc, args: &[Value]) -> Result<Value, String> {
    match f {
        ScalarFunc::Coalesce => {
            for a in args {
                if !a.is_null() {
                    return Ok(a.clone());
                }
            }
            Ok(Value::Null)
        }
        ScalarFunc::Nullif => {
            if args.len() != 2 {
                return Err("nullif takes 2 arguments".to_string());
            }
            if args[0].sql_cmp(&args[1]) == Some(Ordering::Equal) {
                Ok(Value::Null)
            } else {
                Ok(args[0].clone())
            }
        }
        _ if args.iter().any(|a| a.is_null()) => Ok(Value::Null),
        ScalarFunc::Substr => {
            let s = args[0]
                .as_str()
                .ok_or_else(|| "substr needs a string".to_string())?;
            let start = args
                .get(1)
                .and_then(|v| v.as_int())
                .ok_or_else(|| "substr needs a start".to_string())?;
            let chars: Vec<char> = s.chars().collect();
            let from = (start.max(1) as usize - 1).min(chars.len());
            let to = match args.get(2).and_then(|v| v.as_int()) {
                Some(len) => (from + len.max(0) as usize).min(chars.len()),
                None => chars.len(),
            };
            Ok(Value::str(chars[from..to].iter().collect::<String>()))
        }
        ScalarFunc::Abs => match &args[0] {
            Value::Int(v) => Ok(Value::Int(v.abs())),
            Value::Decimal(d) => Ok(Value::Decimal(d.abs())),
            other => Err(format!("abs of non-number {other}")),
        },
        ScalarFunc::Round => {
            let digits = args.get(1).and_then(|v| v.as_int()).unwrap_or(0).max(0) as u8;
            match &args[0] {
                Value::Int(v) => Ok(Value::Int(*v)),
                Value::Decimal(d) => {
                    // rescale with rounding: add half an ulp then truncate
                    let target = d.rescale(digits + 1);
                    let m = target.mantissa();
                    let rounded = if m >= 0 { (m + 5) / 10 } else { (m - 5) / 10 };
                    Ok(Value::Decimal(Decimal::new(rounded, digits)))
                }
                other => Err(format!("round of non-number {other}")),
            }
        }
        ScalarFunc::Lower => Ok(Value::str(
            args[0]
                .as_str()
                .ok_or_else(|| "lower needs a string".to_string())?
                .to_lowercase(),
        )),
        ScalarFunc::Upper => Ok(Value::str(
            args[0]
                .as_str()
                .ok_or_else(|| "upper needs a string".to_string())?
                .to_uppercase(),
        )),
        ScalarFunc::Length => Ok(Value::Int(
            args[0]
                .as_str()
                .ok_or_else(|| "length needs a string".to_string())?
                .chars()
                .count() as i64,
        )),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn checked_int_overflow_is_an_error() {
        let err = arith(ArithOp::Add, &Value::Int(i64::MAX), &Value::Int(1)).unwrap_err();
        assert_eq!(err, "integer overflow in +");
        let err = arith(ArithOp::Mul, &Value::Int(i64::MAX), &Value::Int(2)).unwrap_err();
        assert_eq!(err, "integer overflow in *");
    }

    #[test]
    fn division_by_zero_is_null_in_both_numeric_domains() {
        assert!(arith(ArithOp::Div, &Value::Int(5), &Value::Int(0))
            .unwrap()
            .is_null());
        assert!(arith(
            ArithOp::Div,
            &Value::Decimal("1.50".parse().unwrap()),
            &Value::Decimal("0.00".parse().unwrap()),
        )
        .unwrap()
        .is_null());
        assert!(arith(ArithOp::Mod, &Value::Int(5), &Value::Int(0))
            .unwrap()
            .is_null());
    }

    #[test]
    fn concat_null_propagates() {
        assert!(concat(&Value::Null, &Value::str("x")).is_null());
        assert_eq!(concat(&Value::str("a"), &Value::Int(1)), Value::str("a1"));
    }

    #[test]
    fn neg_matches_row_path() {
        assert_eq!(neg(&Value::Int(3)).unwrap(), Value::Int(-3));
        assert!(neg(&Value::Null).unwrap().is_null());
        assert!(neg(&Value::str("x")).is_err());
        assert_eq!(neg(&Value::Int(i64::MAX)).unwrap(), Value::Int(-i64::MAX));
        assert_eq!(
            neg(&Value::Int(i64::MIN)).unwrap_err(),
            "integer overflow in -"
        );
    }

    #[test]
    fn remainder_of_the_smallest_integer_by_minus_one_is_zero() {
        let (min, m1) = (Value::Int(i64::MIN), Value::Int(-1));
        assert_eq!(arith(ArithOp::Mod, &min, &m1).unwrap(), Value::Int(0));
        assert_eq!(
            arith(ArithOp::Mod, &min, &Value::Int(7)).unwrap(),
            Value::Int(-1)
        );
        assert!(arith(ArithOp::Mod, &min, &Value::Int(0)).unwrap().is_null());
    }
}
