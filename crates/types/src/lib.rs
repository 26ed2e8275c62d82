//! # tpcds-types
//!
//! Shared primitives for the TPC-DS reproduction: the dynamic [`Value`]
//! model, exact fixed-point [`Decimal`] arithmetic, proleptic-Gregorian
//! [`Date`]/[`Time`], and the deterministic counter-based RNG streams
//! ([`rng::ColumnRng`]) that replace dsdgen's 48-bit LCG streams.

#![warn(missing_docs)]

pub mod date;
pub mod decimal;
pub mod like;
pub mod rng;
pub mod scalar;
pub mod value;

pub use date::{Date, Time};
pub use decimal::Decimal;
pub use like::like_match;
pub use rng::ColumnRng;
pub use scalar::{ArithOp, CmpKind, ScalarFunc};
pub use value::{DataType, Row, Value};
