//! The dynamic value model shared by the data generator, the SQL engine and
//! the flat-file format.
//!
//! SQL three-valued comparisons live in the engine's expression evaluator;
//! here we provide a *total* order (`sort_cmp`) used by ORDER BY, grouping
//! and index structures, where NULL sorts first (the choice most engines
//! make for `NULLS FIRST`, and the one TPC-DS answer sets assume for
//! ascending sorts).

use crate::date::{Date, Time};
use crate::decimal::Decimal;
use std::cmp::Ordering;
use std::fmt;
use std::sync::Arc;

/// Logical column types of the TPC-DS schema plus the types query
/// expressions can produce.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum DataType {
    /// 64-bit signed integer (all `*_sk` surrogate keys, counts, `integer`).
    Int,
    /// Fixed-point decimal (`decimal(p,s)` columns and derived ratios).
    Decimal,
    /// Variable-length string (`char(n)` / `varchar(n)`; the engine does not
    /// pad — dsdgen flat files are unpadded too).
    Str,
    /// Calendar date.
    Date,
    /// Time of day.
    Time,
    /// Boolean (produced by predicates; no TPC-DS column stores one).
    Bool,
}

impl fmt::Display for DataType {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            DataType::Int => "integer",
            DataType::Decimal => "decimal",
            DataType::Str => "varchar",
            DataType::Date => "date",
            DataType::Time => "time",
            DataType::Bool => "boolean",
        };
        f.write_str(s)
    }
}

/// A single cell value.
///
/// Strings are `Arc<str>` so rows can be cloned cheaply during joins and
/// aggregations (the engine clones values freely).
#[derive(Clone, Debug)]
pub enum Value {
    /// SQL NULL.
    Null,
    /// Integer.
    Int(i64),
    /// Fixed-point decimal.
    Decimal(Decimal),
    /// String.
    Str(Arc<str>),
    /// Date.
    Date(Date),
    /// Time of day.
    Time(Time),
    /// Boolean.
    Bool(bool),
}

impl Value {
    /// Convenience constructor for strings.
    pub fn str(s: impl AsRef<str>) -> Value {
        Value::Str(Arc::from(s.as_ref()))
    }

    /// True when the value is SQL NULL.
    pub fn is_null(&self) -> bool {
        matches!(self, Value::Null)
    }

    /// The value's runtime type; `None` for NULL.
    pub fn data_type(&self) -> Option<DataType> {
        match self {
            Value::Null => None,
            Value::Int(_) => Some(DataType::Int),
            Value::Decimal(_) => Some(DataType::Decimal),
            Value::Str(_) => Some(DataType::Str),
            Value::Date(_) => Some(DataType::Date),
            Value::Time(_) => Some(DataType::Time),
            Value::Bool(_) => Some(DataType::Bool),
        }
    }

    /// Integer view; `None` for non-integers.
    pub fn as_int(&self) -> Option<i64> {
        match self {
            Value::Int(v) => Some(*v),
            _ => None,
        }
    }

    /// String view; `None` for non-strings.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::Str(s) => Some(s),
            _ => None,
        }
    }

    /// Decimal view, widening integers; `None` otherwise.
    pub fn as_decimal(&self) -> Option<Decimal> {
        match self {
            Value::Decimal(d) => Some(*d),
            Value::Int(v) => Some(Decimal::from_int(*v)),
            _ => None,
        }
    }

    /// Boolean view; `None` otherwise.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Value::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// Numeric comparison across Int/Decimal; identical-type comparison
    /// otherwise. Returns `None` when types are incomparable or either side
    /// is NULL (SQL UNKNOWN).
    pub fn sql_cmp(&self, other: &Value) -> Option<Ordering> {
        use Value::*;
        match (self, other) {
            (Null, _) | (_, Null) => None,
            (Int(a), Int(b)) => Some(a.cmp(b)),
            (Decimal(a), Decimal(b)) => Some(a.cmp(b)),
            (Int(a), Decimal(b)) => Some(crate::decimal::Decimal::from_int(*a).cmp(b)),
            (Decimal(a), Int(b)) => Some(a.cmp(&crate::decimal::Decimal::from_int(*b))),
            (Str(a), Str(b)) => Some(a.as_ref().cmp(b.as_ref())),
            (Date(a), Date(b)) => Some(a.cmp(b)),
            (Date(a), Str(b)) => b.parse::<crate::date::Date>().ok().map(|d| a.cmp(&d)),
            (Str(a), Date(b)) => a.parse::<crate::date::Date>().ok().map(|d| d.cmp(b)),
            (Time(a), Time(b)) => Some(a.cmp(b)),
            (Bool(a), Bool(b)) => Some(a.cmp(b)),
            _ => None,
        }
    }

    /// Total order for sorting and grouping: NULL first, then by type rank,
    /// then by value. Numeric types are merged into one rank so
    /// `1 == 1.0` groups together.
    pub fn sort_cmp(&self, other: &Value) -> Ordering {
        fn rank(v: &Value) -> u8 {
            match v {
                Value::Null => 0,
                Value::Bool(_) => 1,
                Value::Int(_) | Value::Decimal(_) => 2,
                Value::Date(_) => 3,
                Value::Time(_) => 4,
                Value::Str(_) => 5,
            }
        }
        match (rank(self), rank(other)) {
            (a, b) if a != b => a.cmp(&b),
            (0, 0) => Ordering::Equal,
            _ => self.sql_cmp(other).unwrap_or(Ordering::Equal),
        }
    }

    /// Feeds `state` exactly what hashing [`Value::Str`] of `s` feeds it,
    /// for callers that hold the string without its `Arc` (typed column
    /// buffers).
    pub fn hash_str<H: std::hash::Hasher>(s: &str, state: &mut H) {
        use std::hash::Hash;
        5u8.hash(state);
        s.hash(state);
    }

    /// Equality under the grouping semantics of [`Value::sort_cmp`]
    /// (NULL == NULL, `1 == 1.0`).
    pub fn group_eq(&self, other: &Value) -> bool {
        self.sort_cmp(other) == Ordering::Equal
    }

    /// Renders the value the way dsdgen's flat files and our answer sets do:
    /// NULL as the empty string, dates ISO, decimals with their scale.
    pub fn to_flat(&self) -> String {
        match self {
            Value::Null => String::new(),
            Value::Int(v) => v.to_string(),
            Value::Decimal(d) => d.to_string(),
            Value::Str(s) => s.to_string(),
            Value::Date(d) => d.to_string(),
            Value::Time(t) => t.to_string(),
            Value::Bool(b) => if *b { "true" } else { "false" }.to_string(),
        }
    }
}

impl PartialEq for Value {
    fn eq(&self, other: &Self) -> bool {
        self.group_eq(other)
    }
}
impl Eq for Value {}

impl std::hash::Hash for Value {
    fn hash<H: std::hash::Hasher>(&self, state: &mut H) {
        match self {
            Value::Null => 0u8.hash(state),
            Value::Bool(b) => {
                1u8.hash(state);
                b.hash(state);
            }
            // Int and Decimal must hash identically when numerically equal.
            Value::Int(v) => {
                2u8.hash(state);
                Decimal::from_int(*v).hash(state);
            }
            Value::Decimal(d) => {
                2u8.hash(state);
                d.hash(state);
            }
            Value::Date(d) => {
                3u8.hash(state);
                d.hash(state);
            }
            Value::Time(t) => {
                4u8.hash(state);
                t.hash(state);
            }
            Value::Str(s) => Value::hash_str(s, state),
        }
    }
}

impl fmt::Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Value::Null => f.write_str("NULL"),
            other => f.write_str(&other.to_flat()),
        }
    }
}

impl From<i64> for Value {
    fn from(v: i64) -> Self {
        Value::Int(v)
    }
}
impl From<Decimal> for Value {
    fn from(v: Decimal) -> Self {
        Value::Decimal(v)
    }
}
impl From<&str> for Value {
    fn from(v: &str) -> Self {
        Value::str(v)
    }
}
impl From<String> for Value {
    fn from(v: String) -> Self {
        Value::Str(Arc::from(v.as_str()))
    }
}
impl From<Date> for Value {
    fn from(v: Date) -> Self {
        Value::Date(v)
    }
}
impl From<Time> for Value {
    fn from(v: Time) -> Self {
        Value::Time(v)
    }
}
impl From<bool> for Value {
    fn from(v: bool) -> Self {
        Value::Bool(v)
    }
}
impl<T: Into<Value>> From<Option<T>> for Value {
    fn from(v: Option<T>) -> Self {
        v.map(Into::into).unwrap_or(Value::Null)
    }
}

/// A row of values. The engine and the generator both use this shape.
pub type Row = Vec<Value>;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn null_propagates_in_sql_cmp() {
        assert_eq!(Value::Null.sql_cmp(&Value::Int(1)), None);
        assert_eq!(Value::Int(1).sql_cmp(&Value::Null), None);
    }

    #[test]
    fn cross_numeric_compare() {
        let one = Value::Int(1);
        let one_d = Value::Decimal("1.0".parse().unwrap());
        assert_eq!(one.sql_cmp(&one_d), Some(Ordering::Equal));
        assert!(one.group_eq(&one_d));
        let two = Value::Decimal("2.00".parse().unwrap());
        assert_eq!(one.sql_cmp(&two), Some(Ordering::Less));
    }

    #[test]
    fn date_string_compare() {
        let d = Value::Date(Date::from_ymd(1999, 2, 21));
        let s = Value::str("1999-03-21");
        assert_eq!(d.sql_cmp(&s), Some(Ordering::Less));
    }

    #[test]
    fn sort_cmp_total_with_null_first() {
        let mut vals = [
            Value::str("b"),
            Value::Null,
            Value::Int(3),
            Value::Decimal("2.5".parse().unwrap()),
            Value::str("a"),
        ];
        vals.sort_by(|a, b| a.sort_cmp(b));
        assert!(vals[0].is_null());
        assert_eq!(vals[1], Value::Decimal("2.5".parse().unwrap()));
        assert_eq!(vals[2], Value::Int(3));
        assert_eq!(vals[3], Value::str("a"));
    }

    #[test]
    fn hash_matches_group_eq_for_numerics() {
        use std::collections::hash_map::DefaultHasher;
        use std::hash::{Hash, Hasher};
        let h = |v: &Value| {
            let mut s = DefaultHasher::new();
            v.hash(&mut s);
            s.finish()
        };
        assert_eq!(
            h(&Value::Int(5)),
            h(&Value::Decimal("5.00".parse().unwrap()))
        );
    }

    #[test]
    fn flat_rendering() {
        assert_eq!(Value::Null.to_flat(), "");
        assert_eq!(Value::Int(42).to_flat(), "42");
        assert_eq!(
            Value::Date(Date::from_ymd(2000, 1, 2)).to_flat(),
            "2000-01-02"
        );
        assert_eq!(Value::from("x").to_flat(), "x");
    }

    #[test]
    fn option_into_value() {
        let v: Value = Option::<i64>::None.into();
        assert!(v.is_null());
        let v: Value = Some(7i64).into();
        assert_eq!(v, Value::Int(7));
    }
}
