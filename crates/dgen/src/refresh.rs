//! Refresh-set generation for the data maintenance workload (paper §4.2).
//!
//! The extraction step of ETL "is assumed and represented in the benchmark
//! in the form of generated flat files". This module generates those
//! files' contents: dimension update rows keyed by *business key* (the
//! OLTP key), and fact insert rows whose maintained-dimension references
//! carry business keys that the load step must resolve to surrogate keys
//! (Figure 10). Keys into static dimensions stay pre-resolved surrogates,
//! as in dsdgen's update set.
//!
//! A refresh set is generated as the bulk load is: each row written into
//! one reused [`RowBuf`] and pushed from it into the typed columns of a
//! batch, a [`ColumnTable`] — no row is boxed into [`Value`]s, and a
//! business key is text in the buffer until it lands in its column.
//!
//! [`Value`]: tpcds_types::Value

use crate::generator::{Generator, Table};
use std::ops::Range;
use tpcds_storage::ColumnTable;
use tpcds_types::DataType;

/// How many dimension rows a refresh run updates at minimum (1% of the
/// table otherwise).
pub const MIN_DIM_UPDATES: u64 = 5;

/// Fraction of a fact table inserted per refresh run.
pub const FACT_INSERT_FRACTION: f64 = 0.01;

/// The maintained dimensions whose surrogate keys a fact insert carries
/// as business keys.
pub const RESOLVED_DIMENSIONS: [&str; 3] = ["item", "customer", "store"];

impl Generator {
    /// Number of update rows for a dimension at this scale factor.
    pub fn refresh_update_count(&self, table: &str) -> u64 {
        (self.row_count(table) / 100).max(MIN_DIM_UPDATES)
    }

    /// The revisions a refresh run writes into a maintained dimension, as
    /// `(target, source)` row pairs: update `k` rewrites the entity of
    /// existing row `target` (picked deterministically) with the
    /// attributes of row `source` = `(refresh_seq + 1) × rows + target`,
    /// the same entity generated at a coordinate beyond the initial
    /// population and beyond every earlier run's — a plausible changed
    /// revision, and a new one each run.
    pub fn refresh_revisions(
        &self,
        table: &str,
        refresh_seq: u32,
    ) -> impl Iterator<Item = (u64, u64)> + '_ {
        let (t, rows) = (self.table(table), self.row_count(table));
        (0..self.refresh_update_count(table)).map(move |k| {
            let mut rng = self.rng(t, 100 + refresh_seq as u64, k);
            let target = rng.uniform_i64(0, rows as i64 - 1) as u64;
            (target, (refresh_seq as u64 + 1) * rows + target)
        })
    }

    /// Generates the update set for a maintained dimension: one row per
    /// [`Generator::refresh_revisions`] pair, the source row with the
    /// target's business key, in the table's column types. Every update
    /// targets an existing business key, which the row's business-key
    /// column holds; the surrogate key is a placeholder the maintenance
    /// step ignores.
    pub fn refresh_dimension(&self, table: &str, refresh_seq: u32) -> ColumnTable {
        let t = self.table(table);
        let def = &self.schema().tables()[t as usize];
        let bk_col = def
            .business_key
            .unwrap_or_else(|| panic!("{table} has no business key"));
        let bk_idx = def.column_index(bk_col).expect("business key exists");
        let history = def.is_history_keeping();
        let revisions = self.refresh_revisions(table, refresh_seq);
        self.batch(
            t,
            self.dtypes(t),
            revisions,
            |(target, source), row, buf| {
                row(self, source, buf);
                let key =
                    buf.write(|text| Self::write_business_key(history, target as i64 + 1, text));
                buf.set(bk_idx, key);
            },
        )
    }

    /// The rows of `table` a refresh run inserts: the next 1% slice of a
    /// sales table beyond the initial population, or the returns of
    /// exactly the sales that slice holds.
    pub fn refresh_fact_rows(&self, table: &str, refresh_seq: u32) -> Range<u64> {
        let sales_slice = |sales: &str| {
            let base_rows = self.row_count(sales);
            let n = ((base_rows as f64 * FACT_INSERT_FRACTION) as u64).max(10);
            let start = base_rows + refresh_seq as u64 * n;
            start..start + n
        };
        match table.strip_suffix("_returns") {
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
        }
    }

    /// Generates the fact insert rows of a refresh run
    /// ([`Generator::refresh_fact_rows`]) in the table's column types,
    /// except that each key into a [`RESOLVED_DIMENSIONS`] table is a
    /// string column holding the business key for the load step to
    /// resolve (NULL where the key is).
    pub fn refresh_fact_inserts(&self, table: &str, refresh_seq: u32) -> ColumnTable {
        let t = self.table(table);
        let def = &self.schema().tables()[t as usize];
        let mut dtypes = self.dtypes(t);
        let keys: Vec<(usize, bool)> = (def.foreign_keys.iter())
            .filter(|f| RESOLVED_DIMENSIONS.contains(&f.ref_table))
            .map(|f| {
                let col = def.column_index(f.column).expect("fk column");
                dtypes[col] = DataType::Str;
                let dimension = self.schema().table(f.ref_table).expect("known table");
                (col, dimension.is_history_keeping())
            })
            .collect();
        let rows = self.refresh_fact_rows(table, refresh_seq);
        self.batch(t, dtypes, rows, |r, row, buf| {
            row(self, r, buf);
            for &(col, history) in &keys {
                if let Some(sk) = buf.cells()[col].as_int() {
                    let key = buf.write(|text| Self::write_business_key(history, sk, text));
                    buf.set(col, key);
                }
            }
        })
    }

    /// The business key of surrogate `sk` in `table` (1-based surrogates).
    pub fn business_key_of(&self, table: &str, sk: i64) -> String {
        let t = self.schema().table(table).expect("known table");
        let mut key = String::with_capacity(16);
        Self::write_business_key(t.is_history_keeping(), sk, &mut key);
        key
    }

    /// Appends the business key of surrogate `sk` (1-based) of a
    /// dimension, history-keeping or not, to `out`.
    fn write_business_key(history: bool, sk: i64, out: &mut String) {
        let idx = (sk - 1).max(0) as u64;
        match history {
            true => Generator::write_business_id(Generator::scd_position(idx).business_key, out),
            false => Generator::write_business_id(idx, out),
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
    use std::collections::{HashMap, HashSet};
    use tpcds_types::Value;

    /// Column `col` of every row of `batch`, as strings.
    fn keys(batch: &ColumnTable, col: usize) -> Vec<String> {
        let key = |id| batch.str_at(id, col).expect("a business key").to_string();
        batch.live_ids().map(key).collect()
    }

    fn existing_keys(g: &Generator, table: &str) -> HashSet<String> {
        g.generate(table)
            .into_iter()
            .map(|r| r[1].as_str().unwrap().to_string())
            .collect()
    }

    #[test]
    fn dimension_updates_target_existing_business_keys() {
        let g = Generator::new(0.01);
        let existing = existing_keys(&g, "customer");
        let updates = g.refresh_dimension("customer", 0);
        assert_eq!(updates.rows as u64, g.refresh_update_count("customer"));
        assert_eq!(
            updates.width(),
            g.schema().table("customer").unwrap().width()
        );
        for key in keys(&updates, 1) {
            assert!(existing.contains(&key), "{key} unknown");
        }
    }

    #[test]
    fn history_dimension_updates_work_too() {
        let g = Generator::new(0.01);
        let updates = g.refresh_dimension("item", 1);
        assert!(updates.rows > 0);
        let existing = existing_keys(&g, "item");
        for key in keys(&updates, 1) {
            assert!(existing.contains(&key));
        }
    }

    #[test]
    fn refresh_is_deterministic_and_varies_by_seq() {
        let g = Generator::new(0.01);
        let a = g.refresh_dimension("customer", 0);
        let b = g.refresh_dimension("customer", 0);
        assert_eq!(a.rows, b.rows);
        assert!(a.iter_rows().eq(b.iter_rows()));
        let c = g.refresh_dimension("customer", 1);
        assert_ne!(keys(&a, 1), keys(&c, 1));
    }

    #[test]
    fn each_refresh_run_writes_new_values_for_a_key() {
        // A key sets 0 and 1 both revise (warehouse has a handful of rows
        // and five updates a set) gets other non-key cells from each.
        let g = Generator::new(0.01);
        let by_key = |seq| -> HashMap<String, Vec<Value>> {
            let batch = g.refresh_dimension("warehouse", seq);
            let rows = batch.iter_rows();
            rows.map(|row| (row[1].as_str().unwrap().to_string(), row))
                .collect()
        };
        let (first, second) = (by_key(0), by_key(1));
        let both: Vec<&String> = first.keys().filter(|k| second.contains_key(*k)).collect();
        assert!(!both.is_empty(), "no key revised by both sets");
        for key in both {
            assert_ne!(first[key][2..], second[key][2..], "{key}");
        }
        // Set 0 takes its values from where it always did.
        let rows = g.row_count("customer");
        let sources = g.refresh_revisions("customer", 0);
        assert!(sources
            .into_iter()
            .all(|(target, source)| source == rows + target));
    }

    #[test]
    fn fact_inserts_carry_business_keys() {
        let g = Generator::new(0.01);
        let t = g.schema().table("store_sales").unwrap();
        let item_col = t.column_index("ss_item_sk").unwrap();
        let cust_col = t.column_index("ss_customer_sk").unwrap();
        let batch = g.refresh_fact_inserts("store_sales", 0);
        assert!(batch.rows > 0);
        assert_eq!(
            batch.dtypes[item_col],
            DataType::Str,
            "item key not converted"
        );
        assert_eq!(batch.dtypes[cust_col], DataType::Str);
        for id in batch.live_ids() {
            assert!(
                batch.str_at(id, item_col).is_some(),
                "item key not converted"
            );
            // customer may be NULL (nullable FK); if present it is a string
            assert!(batch.is_null(id, cust_col) || batch.str_at(id, cust_col).is_some());
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
        let pairs = |seq| -> HashSet<(String, i64)> {
            let batch = g.refresh_fact_inserts("store_sales", seq);
            let tickets = batch.column(ticket).map(|v| v.as_int().unwrap());
            keys(&batch, item).into_iter().zip(tickets).collect()
        };
        assert!(pairs(0).is_disjoint(&pairs(1)), "refresh slices overlap");
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
