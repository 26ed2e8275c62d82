//! Refresh-set generation for the data maintenance workload (paper §4.2).
//!
//! The extraction step of ETL "is assumed and represented in the benchmark
//! in the form of generated flat files". This module generates those
//! files' contents: dimension update rows keyed by *business key* (the
//! OLTP key), and fact insert rows whose maintained-dimension references
//! carry business keys that the load step must resolve to surrogate keys
//! (Figure 10). Keys into static dimensions stay pre-resolved surrogates,
//! as in dsdgen's update set.

use crate::generator::{Generator, Table};
use tpcds_types::{Row, Value};

/// How many dimension rows a refresh run updates at minimum (1% of the
/// table otherwise).
pub const MIN_DIM_UPDATES: u64 = 5;

/// Fraction of a fact table inserted per refresh run.
pub const FACT_INSERT_FRACTION: f64 = 0.01;

/// A dimension update row: the business key plus the full replacement row
/// (surrogate key and business key columns included; the surrogate key
/// value is a placeholder the maintenance step ignores).
#[derive(Debug, Clone)]
pub struct DimensionUpdate {
    /// Business key of the entity to update.
    pub business_key: String,
    /// Replacement attribute values, in table column order.
    pub row: Row,
}

impl Generator {
    /// Number of update rows for a dimension at this scale factor.
    pub fn refresh_update_count(&self, table: &str) -> u64 {
        (self.row_count(table) / 100).max(MIN_DIM_UPDATES)
    }

    /// Generates the update set for a maintained dimension. Every update
    /// targets an existing business key; the replacement row is a freshly
    /// generated revision (deterministic in `refresh_seq`).
    pub fn refresh_dimension(&self, table: &str, refresh_seq: u32) -> Vec<DimensionUpdate> {
        let t = self
            .schema()
            .table(table)
            .unwrap_or_else(|| panic!("unknown table {table}"));
        let bk_col = t
            .business_key
            .unwrap_or_else(|| panic!("{table} has no business key"));
        let bk_idx = t.column_index(bk_col).expect("business key exists");
        let rows = self.row_count(table);
        let n = self.refresh_update_count(table);
        let mut out = Vec::with_capacity(n as usize);
        for k in 0..n {
            // Pick an existing surrogate deterministically, then rewrite
            // that entity's attributes by regenerating the row at a
            // refresh-specific coordinate.
            let mut rng = self.rng(self.table(table), 100 + refresh_seq as u64, k);
            let target = rng.uniform_i64(0, rows as i64 - 1) as u64;
            let base = self.row(table, target);
            let business_key = base[bk_idx]
                .as_str()
                .expect("business keys are strings")
                .to_string();
            // New attribute values: the same entity generated at a shifted
            // coordinate (beyond the initial population) gives a plausible
            // changed revision.
            let shift = (refresh_seq as u64 + 1) * rows + target;
            let mut row = self.row(table, rows + shift % rows);
            // Preserve identity columns.
            row[bk_idx] = Value::str(&business_key);
            out.push(DimensionUpdate { business_key, row });
        }
        out
    }

    /// Generates fact insert rows for a refresh run: the next 1% slice of
    /// a sales table beyond the initial population, or the returns of
    /// exactly the sales that slice holds, with maintained dimension keys
    /// (item / customer / store) replaced by business keys for the load
    /// step to resolve.
    pub fn refresh_fact_inserts(&self, table: &str, refresh_seq: u32) -> Vec<Row> {
        let sales_slice = |sales: &str| {
            let base_rows = self.row_count(sales);
            let n = ((base_rows as f64 * FACT_INSERT_FRACTION) as u64).max(10);
            let start = base_rows + refresh_seq as u64 * n;
            start..start + n
        };
        let rows = match table.strip_suffix("_returns") {
            None => sales_slice(table),
            Some(channel) => {
                // Return `r` copies sale `r * sales / returns`: the returns
                // of sales `[a, b)` are `[⌈a·returns/sales⌉, ⌈b·returns/sales⌉)`.
                let sales = format!("{channel}_sales");
                let ratio = (self.row_count(table), self.row_count(&sales).max(1));
                let first = |sale: u64| (sale as u128 * ratio.0 as u128).div_ceil(ratio.1 as u128);
                let sold = sales_slice(&sales);
                first(sold.start) as u64..first(sold.end) as u64
            }
        };
        let t = self.schema().table(table).expect("known table");
        let conversions: Vec<(usize, &str)> = t
            .foreign_keys
            .iter()
            .filter(|f| matches!(f.ref_table, "item" | "customer" | "store"))
            .map(|f| (t.column_index(f.column).expect("fk column"), f.ref_table))
            .collect();
        self.rows_in(self.table(table), rows)
            .map(|mut row| {
                for (col, ref_table) in &conversions {
                    if let Value::Int(sk) = row[*col] {
                        row[*col] = Value::str(self.business_key_of(ref_table, sk));
                    }
                }
                row
            })
            .collect()
    }

    /// The business key of surrogate `sk` in `table` (1-based surrogates).
    pub fn business_key_of(&self, table: &str, sk: i64) -> String {
        let idx = (sk - 1).max(0) as u64;
        let t = self.schema().table(table).expect("known table");
        if t.is_history_keeping() {
            Generator::business_id(Generator::scd_position(idx).business_key)
        } else {
            Generator::business_id(idx)
        }
    }

    /// The logically clustered date range a refresh run deletes from the
    /// fact tables (paper: "according to a randomly picked date range,
    /// fact table data are deleted"): two weeks, deterministic per
    /// refresh sequence.
    pub fn refresh_delete_range(&self, refresh_seq: u32) -> (tpcds_types::Date, tpcds_types::Date) {
        let mut rng = self.rng(Table::DateDim, 900 + refresh_seq as u64, 0);
        let start = self
            .sales_dates
            .first_day()
            .add_days(rng.uniform_i64(0, 1700) as i32);
        (start, start.add_days(13))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;

    #[test]
    fn dimension_updates_target_existing_business_keys() {
        let g = Generator::new(0.01);
        let existing: HashSet<String> = g
            .generate("customer")
            .into_iter()
            .map(|r| r[1].as_str().unwrap().to_string())
            .collect();
        for u in g.refresh_dimension("customer", 0) {
            assert!(
                existing.contains(&u.business_key),
                "{} unknown",
                u.business_key
            );
            assert_eq!(u.row.len(), g.schema().table("customer").unwrap().width());
        }
    }

    #[test]
    fn history_dimension_updates_work_too() {
        let g = Generator::new(0.01);
        let updates = g.refresh_dimension("item", 1);
        assert!(!updates.is_empty());
        let existing: HashSet<String> = g
            .generate("item")
            .into_iter()
            .map(|r| r[1].as_str().unwrap().to_string())
            .collect();
        for u in &updates {
            assert!(existing.contains(&u.business_key));
        }
    }

    #[test]
    fn refresh_is_deterministic_and_varies_by_seq() {
        let g = Generator::new(0.01);
        let a = g.refresh_dimension("customer", 0);
        let b = g.refresh_dimension("customer", 0);
        assert_eq!(a.len(), b.len());
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(x.business_key, y.business_key);
            assert_eq!(x.row, y.row);
        }
        let c = g.refresh_dimension("customer", 1);
        let keys_a: Vec<_> = a.iter().map(|u| &u.business_key).collect();
        let keys_c: Vec<_> = c.iter().map(|u| &u.business_key).collect();
        assert_ne!(keys_a, keys_c);
    }

    #[test]
    fn fact_inserts_carry_business_keys() {
        let g = Generator::new(0.01);
        let t = g.schema().table("store_sales").unwrap();
        let item_col = t.column_index("ss_item_sk").unwrap();
        let cust_col = t.column_index("ss_customer_sk").unwrap();
        let rows = g.refresh_fact_inserts("store_sales", 0);
        assert!(!rows.is_empty());
        for row in &rows {
            assert!(row[item_col].as_str().is_some(), "item key not converted");
            // customer may be NULL (nullable FK); if present it is a string
            if !row[cust_col].is_null() {
                assert!(row[cust_col].as_str().is_some());
            }
        }
    }

    #[test]
    fn fact_inserts_disjoint_across_refresh_seqs() {
        let g = Generator::new(0.01);
        let t = g.schema().table("store_sales").unwrap();
        let ticket = t.column_index("ss_ticket_number").unwrap();
        let item = t.column_index("ss_item_sk").unwrap();
        // Primary-key pairs (item business key, ticket) must be disjoint
        // across refresh slices; bare tickets may straddle a boundary.
        let key = |r: &tpcds_types::Row| {
            (
                r[item].as_str().unwrap().to_string(),
                r[ticket].as_int().unwrap(),
            )
        };
        let a: HashSet<_> = g
            .refresh_fact_inserts("store_sales", 0)
            .iter()
            .map(key)
            .collect();
        let b: HashSet<_> = g
            .refresh_fact_inserts("store_sales", 1)
            .iter()
            .map(key)
            .collect();
        assert!(a.is_disjoint(&b), "refresh slices overlap");
    }

    #[test]
    fn delete_range_is_two_weeks_inside_window() {
        let g = Generator::new(0.01);
        let (lo, hi) = g.refresh_delete_range(0);
        assert_eq!(hi.days_since(&lo), 13);
        assert!(lo >= g.sales_dates().first_day());
        assert!(hi <= g.sales_dates().last_day());
        let (lo2, _) = g.refresh_delete_range(1);
        assert_ne!(lo, lo2);
    }

    #[test]
    fn business_key_of_matches_generated_rows() {
        let g = Generator::new(0.01);
        for table in ["customer", "item", "store"] {
            let rows = g.generate(table);
            for (i, row) in rows.iter().enumerate().take(200) {
                let sk = i as i64 + 1;
                assert_eq!(
                    g.business_key_of(table, sk),
                    row[1].as_str().unwrap(),
                    "{table} sk {sk}"
                );
            }
        }
    }
}
