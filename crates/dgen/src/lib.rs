//! # tpcds-dgen
//!
//! The TPC-DS data generator ("dsdgen"): deterministic, random-access,
//! parallel synthesis of all 24 tables; the hybrid synthetic/real
//! distributions of paper §3.2 with census-calibrated comparability zones;
//! slowly changing dimensions with up to three revisions per business key;
//! and dsdgen-compatible flat-file output.

#![warn(missing_docs)]

pub mod distributions;
pub mod facts;
pub mod flatfile;
pub mod generator;
pub mod profile;
pub mod refresh;
mod rowbuf;
pub mod words;

pub use distributions::{SalesDateDistribution, SalesZone, SyntheticSalesDistribution};
pub use generator::{Generator, ScdPosition};
pub use profile::TableProfile;
