//! The data generator core: deterministic, random-access row synthesis for
//! all 24 tables.
//!
//! Every row of every table is a pure function of `(seed, table, row index)`
//! — the property that makes generation embarrassingly parallel and lets
//! the returns generators re-derive the sale a return refers to in O(1)
//! (dsdgen achieves the same with LCG jump-ahead).

use crate::distributions::SalesDateDistribution;
use crate::words;
use std::sync::Arc;
use tpcds_schema::Schema;
use tpcds_types::rng::{table_stream, ColumnRng, DEFAULT_SEED};
use tpcds_types::{Date, Decimal, Row, Value};

/// First calendar day covered by revision histories of slowly changing
/// dimensions (rec_start_date of revision 0).
pub const SCD_START: (i32, u32, u32) = (1997, 1, 1);
/// Last day of the SCD revision window.
pub const SCD_END: (i32, u32, u32) = (2001, 12, 31);

/// The deterministic TPC-DS data generator (our dsdgen).
#[derive(Clone)]
pub struct Generator {
    schema: Arc<Schema>,
    sf: f64,
    seed: u64,
    pub(crate) sales_dates: Arc<SalesDateDistribution>,
}

impl std::fmt::Debug for Generator {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "Generator(sf={}, seed={})", self.sf, self.seed)
    }
}

/// Position of one slowly-changing-dimension row within its business key's
/// revision chain. See [`Generator::scd_position`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ScdPosition {
    /// 0-based business-key index.
    pub business_key: u64,
    /// 0-based revision number within the chain.
    pub revision: u32,
    /// Total revisions of this business key (1..=3).
    pub revision_count: u32,
}

impl Generator {
    /// Builds a generator for the given scale factor with the canonical
    /// dsdgen seed.
    pub fn new(sf: f64) -> Self {
        Self::with_seed(sf, DEFAULT_SEED)
    }

    /// Builds a generator with an explicit seed (non-default seeds produce
    /// data sets that are *not* comparable to published ones).
    pub fn with_seed(sf: f64, seed: u64) -> Self {
        assert!(sf > 0.0, "scale factor must be positive");
        Generator {
            schema: Arc::new(Schema::tpcds()),
            sf,
            seed,
            sales_dates: Arc::new(SalesDateDistribution::tpcds()),
        }
    }

    /// The schema being generated.
    pub fn schema(&self) -> &Schema {
        &self.schema
    }

    /// The scale factor.
    pub fn scale_factor(&self) -> f64 {
        self.sf
    }

    /// The seed.
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// The sales-date distribution used for fact dates.
    pub fn sales_dates(&self) -> &SalesDateDistribution {
        &self.sales_dates
    }

    /// Number of rows this generator will produce for `table`. Mostly the
    /// scaling model's count; inventory is rounded to whole snapshot cells.
    pub fn row_count(&self, table: &str) -> u64 {
        match table {
            "inventory" => {
                let (weeks, warehouses, items_per_cell) = self.inventory_layout();
                weeks * warehouses * items_per_cell
            }
            _ => self.schema.rows(table, self.sf),
        }
    }

    /// The (weeks, warehouses, items-per-cell) layout of the inventory
    /// snapshot fact table.
    pub(crate) fn inventory_layout(&self) -> (u64, u64, u64) {
        let weeks = 261; // five years of weekly snapshots
        let warehouses = self.row_count("warehouse");
        let target = self.schema.rows("inventory", self.sf);
        let per_cell = (target / (weeks * warehouses)).max(1);
        (weeks, warehouses, per_cell)
    }

    /// A fresh RNG stream positioned at `(table, purpose, row)`.
    pub(crate) fn rng(&self, table: &str, purpose: u64, row: u64) -> ColumnRng {
        let t = self.schema.table_index(table).expect("known table");
        ColumnRng::at(self.seed, table_stream(t) + purpose, row)
    }

    /// Generates every row of `table`.
    pub fn generate(&self, table: &str) -> Vec<Row> {
        let span = tpcds_obs::span("dgen", "generate").field("table", table);
        let rows = self.generate_range(table, 0, self.row_count(table));
        Self::record_rate(span, table, rows.len());
        rows
    }

    /// Closes a generation span with row/throughput actuals and bumps the
    /// per-table `gen.rows` counter.
    fn record_rate(mut span: tpcds_obs::SpanGuard, table: &str, rows: usize) {
        if !tpcds_obs::is_enabled() {
            return;
        }
        let secs = span.elapsed().as_secs_f64();
        span.add_field("rows", rows as i64);
        if secs > 0.0 {
            span.add_field("rows_per_s", rows as f64 / secs);
        }
        span.finish();
        tpcds_obs::counter("dgen", "gen.rows", rows as f64, &[("table", table.into())]);
    }

    /// Generates rows `lo..hi` (0-based) of `table`. Chunks generated
    /// separately concatenate to exactly the rows of a single pass.
    pub fn generate_range(&self, table: &str, lo: u64, hi: u64) -> Vec<Row> {
        let hi = hi.min(self.row_count(table));
        if lo >= hi {
            return Vec::new();
        }
        (lo..hi).map(|r| self.row(table, r)).collect()
    }

    /// Generates every row of `table` using `threads` worker threads.
    pub fn generate_parallel(&self, table: &str, threads: usize) -> Vec<Row> {
        let span = tpcds_obs::span("dgen", "generate_parallel")
            .field("table", table)
            .field("threads", threads);
        let n = self.row_count(table);
        let threads = threads.max(1).min(n.max(1) as usize);
        let chunk = n.div_ceil(threads as u64);
        let mut out: Vec<Vec<Row>> = Vec::new();
        std::thread::scope(|s| {
            let mut handles = Vec::new();
            for t in 0..threads as u64 {
                let lo = t * chunk;
                let hi = ((t + 1) * chunk).min(n);
                handles.push(s.spawn(move || self.generate_range(table, lo, hi)));
            }
            for h in handles {
                out.push(h.join().expect("generator worker panicked"));
            }
        });
        let rows: Vec<Row> = out.into_iter().flatten().collect();
        Self::record_rate(span, table, rows.len());
        rows
    }

    /// Generates every row of `table` with `threads` workers, streaming
    /// them through a [`tpcds_storage::ColumnTableBuilder`] into the
    /// segments a table is stored as. Generation proceeds in segment-sized
    /// chunks, so no more than one segment of the table ever exists as
    /// rows.
    pub fn generate_table_columnar(
        &self,
        table: &str,
        threads: usize,
    ) -> tpcds_storage::ColumnTable {
        let span = tpcds_obs::span("dgen", "generate_columnar")
            .field("table", table)
            .field("threads", threads);
        let dtypes: Vec<tpcds_types::DataType> = self
            .schema
            .table(table)
            .expect("known table")
            .columns
            .iter()
            .map(|c| c.ctype.data_type())
            .collect();
        let mut builder = tpcds_storage::ColumnTableBuilder::new(dtypes);
        let n = self.row_count(table);
        let chunk = tpcds_storage::SEGMENT_ROWS as u64;
        let mut lo = 0;
        while lo < n {
            let hi = (lo + chunk).min(n);
            let piece = if threads > 1 && hi - lo > 4096 {
                self.generate_chunk_parallel(table, lo, hi, threads)
            } else {
                self.generate_range(table, lo, hi)
            };
            for row in &piece {
                builder.push_row(row);
            }
            lo = hi;
        }
        Self::record_rate(span, table, n as usize);
        builder.finish()
    }

    /// Parallel generation of one chunk `lo..hi`, preserving row order.
    fn generate_chunk_parallel(&self, table: &str, lo: u64, hi: u64, threads: usize) -> Vec<Row> {
        let n = hi - lo;
        let threads = threads.max(1).min(n.max(1) as usize);
        let per = n.div_ceil(threads as u64);
        let mut out: Vec<Vec<Row>> = Vec::new();
        std::thread::scope(|s| {
            let mut handles = Vec::new();
            for t in 0..threads as u64 {
                let a = lo + t * per;
                let b = (lo + (t + 1) * per).min(hi);
                handles.push(s.spawn(move || self.generate_range(table, a, b)));
            }
            for h in handles {
                out.push(h.join().expect("generator worker panicked"));
            }
        });
        out.into_iter().flatten().collect()
    }

    /// Generates one row of `table` (0-based index). The workhorse — pure
    /// in `(seed, table, row)`.
    pub fn row(&self, table: &str, r: u64) -> Row {
        match table {
            "date_dim" => self.date_dim_row(r),
            "time_dim" => self.time_dim_row(r),
            "reason" => self.reason_row(r),
            "ship_mode" => self.ship_mode_row(r),
            "income_band" => self.income_band_row(r),
            "customer_demographics" => self.customer_demographics_row(r),
            "household_demographics" => self.household_demographics_row(r),
            "customer_address" => self.customer_address_row(r),
            "customer" => self.customer_row(r),
            "item" => self.item_row(r),
            "store" => self.store_row(r),
            "call_center" => self.call_center_row(r),
            "web_site" => self.web_site_row(r),
            "web_page" => self.web_page_row(r),
            "catalog_page" => self.catalog_page_row(r),
            "warehouse" => self.warehouse_row(r),
            "promotion" => self.promotion_row(r),
            "store_sales" => self.store_sales_row(r),
            "store_returns" => self.store_returns_row(r),
            "catalog_sales" => self.catalog_sales_row(r),
            "catalog_returns" => self.catalog_returns_row(r),
            "web_sales" => self.web_sales_row(r),
            "web_returns" => self.web_returns_row(r),
            "inventory" => self.inventory_row(r),
            other => panic!("unknown table {other}"),
        }
    }

    // ---------- shared helpers ----------

    /// 16-character business key (`*_id`) for 0-based entity index `n`.
    pub fn business_id(n: u64) -> String {
        let mut bytes = [b'A'; 16];
        let mut v = n;
        let mut i = 15;
        loop {
            bytes[i] = b'A' + (v % 26) as u8;
            v /= 26;
            if v == 0 || i == 0 {
                break;
            }
            i -= 1;
        }
        String::from_utf8(bytes.to_vec()).expect("ascii")
    }

    /// Maps a 0-based surrogate index of a history-keeping dimension to its
    /// (business key, revision, revision count). The revision-count pattern
    /// cycles [1, 2, 3], so the initial population "contains the effects of
    /// previous data maintenance operations ... up to 3 revisions of any
    /// dimension entry" (paper §3.3.2), averaging 2 revisions per key.
    pub fn scd_position(sk0: u64) -> ScdPosition {
        let block = sk0 / 6;
        let r = sk0 % 6;
        let (which, revision, revision_count) = match r {
            0 => (0, 0, 1),
            1 | 2 => (1, (r - 1) as u32, 2),
            _ => (2, (r - 3) as u32, 3),
        };
        ScdPosition {
            business_key: 3 * block + which,
            revision,
            revision_count,
        }
    }

    /// rec_start_date / rec_end_date for an SCD position: the revision
    /// window [SCD_START, SCD_END] split evenly among the revisions; the
    /// most recent revision has a NULL rec_end_date.
    pub fn scd_dates(pos: ScdPosition) -> (Date, Option<Date>) {
        let start = Date::from_ymd(SCD_START.0, SCD_START.1, SCD_START.2);
        let end = Date::from_ymd(SCD_END.0, SCD_END.1, SCD_END.2);
        let span = end.days_since(&start);
        let k = pos.revision_count as i32;
        let j = pos.revision as i32;
        let rec_start = start.add_days(span * j / k);
        let rec_end = if j + 1 == k {
            None
        } else {
            Some(start.add_days(span * (j + 1) / k - 1))
        };
        (rec_start, rec_end)
    }

    /// [`Generator::scd_dates`] with truncation repair: when a history
    /// dimension's row count cuts a revision chain mid-way, the final
    /// generated row is forced open (NULL rec_end_date) so every business
    /// key has exactly one current revision. Rows beyond the initial
    /// population (refresh data) are never clamped.
    pub fn scd_dates_clamped(&self, table: &str, r: u64) -> (Date, Option<Date>) {
        let (start, end) = Self::scd_dates(Self::scd_position(r));
        if r + 1 == self.row_count(table) {
            (start, None)
        } else {
            (start, end)
        }
    }

    /// Uniform pick from a word list.
    pub(crate) fn pick<'a>(rng: &mut ColumnRng, list: &[&'a str]) -> &'a str {
        list[rng.uniform_i64(0, list.len() as i64 - 1) as usize]
    }

    /// NULL with probability `p`, else the value.
    pub(crate) fn nullable(rng: &mut ColumnRng, p: f64, v: Value) -> Value {
        if rng.chance(p) {
            Value::Null
        } else {
            v
        }
    }

    /// Uniform surrogate key into another table at this scale factor
    /// (1-based, matching generated `*_sk` values).
    pub(crate) fn fk(&self, rng: &mut ColumnRng, table: &str) -> i64 {
        let n = self.row_count(table) as i64;
        rng.uniform_i64(1, n.max(1))
    }

    /// Street address fragment: (street number, street name, street type,
    /// suite number).
    pub(crate) fn street(rng: &mut ColumnRng) -> (String, String, String, Value) {
        let number = rng.uniform_i64(1, 999).to_string();
        let name = if rng.chance(0.3) {
            format!(
                "{} {}",
                Self::pick(rng, words::STREET_NAMES),
                Self::pick(rng, words::STREET_NAMES)
            )
        } else {
            Self::pick(rng, words::STREET_NAMES).to_string()
        };
        let ty = Self::pick(rng, words::STREET_TYPES).to_string();
        let suite = if rng.chance(0.5) {
            Value::str(format!("Suite {}", rng.uniform_i64(0, 49) * 10))
        } else {
            Value::str(format!(
                "Suite {}",
                (b'A' + rng.uniform_i64(0, 25) as u8) as char
            ))
        };
        (number, name, ty, suite)
    }

    /// Geographic fragment shared by stores/centers/sites/addresses:
    /// (city, county, state, zip, country, gmt offset).
    pub(crate) fn geography(
        rng: &mut ColumnRng,
    ) -> (String, String, String, String, String, Decimal) {
        let city = Self::pick(rng, words::CITIES).to_string();
        let county = Self::pick(rng, words::COUNTIES).to_string();
        let state = Self::pick(rng, words::STATES).to_string();
        let zip = format!("{:05}", rng.uniform_i64(600, 99998));
        let gmt = Decimal::from_int(-rng.uniform_i64(5, 8));
        (city, county, state, zip, "United States".to_string(), gmt)
    }

    /// Synthesized prose of `lo..=hi` words (item descriptions, market
    /// blurbs).
    pub(crate) fn prose(rng: &mut ColumnRng, lo: i64, hi: i64) -> String {
        let n = rng.uniform_i64(lo, hi);
        let mut out = String::new();
        for i in 0..n {
            if i > 0 {
                out.push(' ');
            }
            if i % 3 == 0 {
                out.push_str(Self::pick(rng, words::DESC_ADJECTIVES));
            } else {
                out.push_str(Self::pick(rng, words::DESC_WORDS));
            }
        }
        out
    }

    // ---------- static dimensions ----------

    fn date_dim_row(&self, r: u64) -> Row {
        let d = Date::from_day_number(r as i32);
        let (y, m, dom) = d.ymd();
        let dow = d.day_of_week();
        let month_seq = (y - 1900) * 12 + m as i32 - 1;
        let quarter_seq = (y - 1900) * 4 + d.quarter() as i32 - 1;
        let first_dom = Date::from_ymd(y, m, 1);
        let last_dom = first_dom.add_days(tpcds_types::date::days_in_month(y, m) - 1);
        let day_names = [
            "Sunday",
            "Monday",
            "Tuesday",
            "Wednesday",
            "Thursday",
            "Friday",
            "Saturday",
        ];
        let holiday = (m == 12 && dom >= 24)
            || (m == 1 && dom == 1)
            || (m == 7 && dom == 4)
            || (m == 11 && (22..=28).contains(&dom) && dow == 4);
        let weekend = dow == 0 || dow == 6;
        let flag = |b: bool| Value::str(if b { "Y" } else { "N" });
        vec![
            Value::Int(d.date_sk()),
            Value::str(format!("D{:015}", d.date_sk())),
            Value::Date(d),
            Value::Int(month_seq as i64),
            Value::Int(d.week_seq() as i64),
            Value::Int(quarter_seq as i64),
            Value::Int(y as i64),
            Value::Int(dow as i64),
            Value::Int(m as i64),
            Value::Int(dom as i64),
            Value::Int(d.quarter() as i64),
            Value::Int(y as i64),
            Value::Int(quarter_seq as i64),
            Value::Int(d.week_seq() as i64),
            Value::str(day_names[dow as usize]),
            Value::str(format!("{}Q{}", y, d.quarter())),
            flag(holiday),
            flag(weekend),
            flag(holiday && dow < 6),
            Value::Int(first_dom.date_sk()),
            Value::Int(last_dom.date_sk()),
            Value::Int(d.add_days(-365).date_sk()),
            Value::Int(d.add_days(-91).date_sk()),
            Value::str("N"),
            Value::str("N"),
            Value::str("N"),
            Value::str("N"),
            Value::str("N"),
        ]
    }

    fn time_dim_row(&self, r: u64) -> Row {
        let t = tpcds_types::Time::from_seconds(r as u32);
        vec![
            Value::Int(r as i64),
            Value::str(format!("T{:015}", r)),
            Value::Int(r as i64),
            Value::Int(t.hour() as i64),
            Value::Int(t.minute() as i64),
            Value::Int(t.second() as i64),
            Value::str(t.am_pm()),
            Value::str(t.shift()),
            Value::str(t.sub_shift()),
            t.meal_time().map(Value::str).unwrap_or(Value::Null),
        ]
    }

    fn reason_row(&self, r: u64) -> Row {
        vec![
            Value::Int(r as i64 + 1),
            Value::str(Self::business_id(r)),
            Value::str(words::RETURN_REASONS[r as usize % words::RETURN_REASONS.len()]),
        ]
    }

    fn ship_mode_row(&self, r: u64) -> Row {
        let ty = words::SHIP_MODE_TYPES[r as usize % 5];
        let code = ["AIR", "SURFACE", "SEA"][r as usize % 3];
        let carrier = words::SHIP_MODE_CARRIERS[r as usize % words::SHIP_MODE_CARRIERS.len()];
        let mut rng = self.rng("ship_mode", 1, r);
        vec![
            Value::Int(r as i64 + 1),
            Value::str(Self::business_id(r)),
            Value::str(ty),
            Value::str(code),
            Value::str(carrier),
            Value::str(format!(
                "{}{}",
                (b'A' + (r % 26) as u8) as char,
                rng.uniform_i64(100_000, 999_999)
            )),
        ]
    }

    fn income_band_row(&self, r: u64) -> Row {
        let lower = r as i64 * 10_000 + if r > 0 { 1 } else { 0 };
        vec![
            Value::Int(r as i64 + 1),
            Value::Int(lower),
            Value::Int((r as i64 + 1) * 10_000),
        ]
    }

    fn customer_demographics_row(&self, r: u64) -> Row {
        // Mixed-radix decode of the cartesian product:
        // gender(2) x marital(5) x education(7) x purchase_estimate(20)
        // x credit(4) x dep(7) x dep_employed(7) x dep_college(7).
        let mut v = r;
        let gender = v % 2;
        v /= 2;
        let marital = v % 5;
        v /= 5;
        let education = v % 7;
        v /= 7;
        let purchase = v % 20;
        v /= 20;
        let credit = v % 4;
        v /= 4;
        let dep = v % 7;
        v /= 7;
        let dep_emp = v % 7;
        v /= 7;
        let dep_col = v % 7;
        vec![
            Value::Int(r as i64 + 1),
            Value::str(if gender == 0 { "M" } else { "F" }),
            Value::str(words::MARITAL_STATUSES[marital as usize]),
            Value::str(words::EDUCATION_STATUSES[education as usize]),
            Value::Int((purchase as i64 + 1) * 500),
            Value::str(words::CREDIT_RATINGS[credit as usize]),
            Value::Int(dep as i64),
            Value::Int(dep_emp as i64),
            Value::Int(dep_col as i64),
        ]
    }

    fn household_demographics_row(&self, r: u64) -> Row {
        // income_band(20) x buy_potential(6) x dep_count(10) x vehicle(6).
        let mut v = r;
        let ib = v % 20;
        v /= 20;
        let bp = v % 6;
        v /= 6;
        let dep = v % 10;
        v /= 10;
        let veh = v % 6;
        vec![
            Value::Int(r as i64 + 1),
            Value::Int(ib as i64 + 1),
            Value::str(words::BUY_POTENTIALS[bp as usize]),
            Value::Int(dep as i64),
            Value::Int(veh as i64),
        ]
    }

    // ---------- customer-cluster dimensions ----------

    fn customer_address_row(&self, r: u64) -> Row {
        let mut rng = self.rng("customer_address", 1, r);
        let (number, name, ty, suite) = Self::street(&mut rng);
        let (city, county, state, zip, country, gmt) = Self::geography(&mut rng);
        let loc = ["apartment", "condo", "single family"][rng.uniform_i64(0, 2) as usize];
        vec![
            Value::Int(r as i64 + 1),
            Value::str(Self::business_id(r)),
            Value::str(number),
            Value::str(name),
            Value::str(ty),
            suite,
            Value::str(city),
            Value::str(county),
            Value::str(state),
            Value::str(zip),
            Value::str(country),
            Value::Decimal(gmt),
            Value::str(loc),
        ]
    }

    fn customer_row(&self, r: u64) -> Row {
        let mut rng = self.rng("customer", 1, r);
        let weights: Vec<f64> = words::FIRST_NAMES.iter().map(|(_, w)| *w).collect();
        let (first, _) = words::FIRST_NAMES[rng.weighted_index(&weights)];
        let last = Self::pick(&mut rng, words::LAST_NAMES);
        let (salutation, _) =
            words::SALUTATIONS[rng.uniform_i64(0, words::SALUTATIONS.len() as i64 - 1) as usize];
        let birth_year = rng.uniform_i64(1924, 1992);
        let birth_month = rng.uniform_i64(1, 12);
        let birth_day = rng.uniform_i64(1, 28);
        let first_sales = self
            .sales_dates
            .first_day()
            .add_days(rng.uniform_i64(0, 700) as i32);
        let first_shipto = first_sales.add_days(rng.uniform_i64(0, 60) as i32);
        let last_review = first_sales.add_days(rng.uniform_i64(0, 900) as i32);
        let email = format!(
            "{}.{}@{}.{}",
            first,
            last,
            Self::pick(&mut rng, words::DESC_WORDS),
            ["com", "org", "edu"][rng.uniform_i64(0, 2) as usize]
        );
        vec![
            Value::Int(r as i64 + 1),
            Value::str(Self::business_id(r)),
            {
                let v = Value::Int(self.fk(&mut rng, "customer_demographics"));
                Self::nullable(&mut rng, 0.02, v)
            },
            {
                let v = Value::Int(self.fk(&mut rng, "household_demographics"));
                Self::nullable(&mut rng, 0.02, v)
            },
            {
                let v = Value::Int(self.fk(&mut rng, "customer_address"));
                Self::nullable(&mut rng, 0.02, v)
            },
            Value::Int(first_shipto.date_sk()),
            Value::Int(first_sales.date_sk()),
            Self::nullable(&mut rng, 0.01, Value::str(salutation)),
            Self::nullable(&mut rng, 0.01, Value::str(first)),
            Self::nullable(&mut rng, 0.01, Value::str(last)),
            Value::str(if rng.chance(0.5) { "Y" } else { "N" }),
            Value::Int(birth_day),
            Value::Int(birth_month),
            Value::Int(birth_year),
            Value::str(Self::pick(&mut rng, words::COUNTRIES)),
            Value::Null,
            Value::str(email),
            Value::Int(last_review.date_sk()),
        ]
    }

    // ---------- item & promotion ----------

    fn item_row(&self, r: u64) -> Row {
        let pos = Self::scd_position(r);
        let (rec_start, rec_end) = Self::scd_dates(pos);
        // Stable per-business-key attributes come from a bk-keyed stream so
        // revisions share identity; revision-keyed stream varies the rest.
        let mut bk_rng = self.rng("item", 1, pos.business_key);
        let mut rev_rng = self.rng("item", 2, r);

        let cat_idx = bk_rng.uniform_i64(0, words::CATEGORIES.len() as i64 - 1) as usize;
        let (category, classes) = words::CATEGORIES[cat_idx];
        let class_idx = bk_rng.uniform_i64(0, classes.len() as i64 - 1) as usize;
        let class = classes[class_idx];
        let brand_syl = Self::pick(&mut bk_rng, words::CORP_SYLLABLES);
        let brand_syl2 = Self::pick(&mut bk_rng, words::CORP_SYLLABLES);
        let brand_num = bk_rng.uniform_i64(1, 10);
        let brand_id = (cat_idx as i64 + 1) * 1_000_000 + (class_idx as i64 + 1) * 1000 + brand_num;
        let brand = format!("{}{} #{}", brand_syl, brand_syl2, brand_num);
        let manufact_id = bk_rng.uniform_i64(1, 1000);
        let manufact = format!(
            "{}{}",
            Self::pick(&mut bk_rng, words::CORP_SYLLABLES),
            manufact_id
        );

        let wholesale_cents = rev_rng.uniform_i64(100, 8_800);
        let markup = rev_rng.uniform_i64(120, 300); // percent of wholesale
        let price_cents = wholesale_cents * markup / 100;
        let manager = rev_rng.uniform_i64(1, 100);
        vec![
            Value::Int(r as i64 + 1),
            Value::str(Self::business_id(pos.business_key)),
            Value::Date(rec_start),
            rec_end.map(Value::Date).unwrap_or(Value::Null),
            {
                let v = Value::str(Self::prose(&mut rev_rng, 5, 25));
                Self::nullable(&mut rev_rng, 0.005, v)
            },
            Value::Decimal(Decimal::from_cents(price_cents)),
            Value::Decimal(Decimal::from_cents(wholesale_cents)),
            Value::Int(brand_id),
            Value::str(brand),
            Value::Int(class_idx as i64 + 1),
            Value::str(class),
            Value::Int(cat_idx as i64 + 1),
            Value::str(category),
            Value::Int(manufact_id),
            Value::str(manufact),
            Value::str(Self::pick(&mut rev_rng, words::SIZES)),
            Value::str(format!(
                "{}{}{}",
                rev_rng.uniform_i64(10000, 99999),
                ["ot", "me", "ese", "anti"][rev_rng.uniform_i64(0, 3) as usize],
                rev_rng.uniform_i64(1, 9)
            )),
            Value::str(Self::pick(&mut rev_rng, words::COLORS)),
            Value::str(Self::pick(&mut rev_rng, words::UNITS)),
            Value::str(Self::pick(&mut rev_rng, words::CONTAINERS)),
            Value::Int(manager),
            Value::str(Self::prose(&mut rev_rng, 2, 4)),
        ]
    }

    fn promotion_row(&self, r: u64) -> Row {
        let mut rng = self.rng("promotion", 1, r);
        let start = self
            .sales_dates
            .first_day()
            .add_days(rng.uniform_i64(0, 1700) as i32);
        let end = start.add_days(rng.uniform_i64(10, 120) as i32);
        let flag = |rng: &mut ColumnRng| Value::str(if rng.chance(0.5) { "Y" } else { "N" });
        vec![
            Value::Int(r as i64 + 1),
            Value::str(Self::business_id(r)),
            Value::Int(start.date_sk()),
            Value::Int(end.date_sk()),
            Value::Int(self.fk(&mut rng, "item")),
            Value::Decimal(Decimal::from_int(1000)),
            Value::Int(1),
            Value::str(format!(
                "{}{}",
                Self::pick(&mut rng, words::CORP_SYLLABLES),
                r
            )),
            flag(&mut rng),
            flag(&mut rng),
            flag(&mut rng),
            flag(&mut rng),
            flag(&mut rng),
            flag(&mut rng),
            flag(&mut rng),
            flag(&mut rng),
            Value::str(Self::prose(&mut rng, 5, 15)),
            Value::str(Self::pick(&mut rng, words::PROMO_PURPOSES)),
            Value::str(if rng.chance(0.5) { "Y" } else { "N" }),
        ]
    }

    // ---------- channel dimensions ----------

    fn store_row(&self, r: u64) -> Row {
        let pos = Self::scd_position(r);
        let (rec_start, rec_end) = self.scd_dates_clamped("store", r);
        let mut bk_rng = self.rng("store", 1, pos.business_key);
        let mut rev_rng = self.rng("store", 2, r);
        let name = Self::pick(&mut bk_rng, words::CITIES);
        let (number, sname, stype, suite) = Self::street(&mut bk_rng);
        let (city, county, state, zip, country, gmt) = Self::geography(&mut bk_rng);
        let manager = format!(
            "{} {}",
            words::FIRST_NAMES
                [rev_rng.uniform_i64(0, words::FIRST_NAMES.len() as i64 - 1) as usize]
                .0,
            Self::pick(&mut rev_rng, words::LAST_NAMES)
        );
        vec![
            Value::Int(r as i64 + 1),
            Value::str(Self::business_id(pos.business_key)),
            Value::Date(rec_start),
            rec_end.map(Value::Date).unwrap_or(Value::Null),
            {
                let v = Value::Int(self.closed_date(&mut rev_rng));
                Self::nullable(&mut rev_rng, 0.9, v)
            },
            Value::str(name),
            Value::Int(rev_rng.uniform_i64(200, 300)),
            Value::Int(rev_rng.uniform_i64(5_000_000, 9_999_999)),
            Value::str(["8AM-8PM", "8AM-4PM", "8AM-12AM"][rev_rng.uniform_i64(0, 2) as usize]),
            Value::str(manager),
            Value::Int(rev_rng.uniform_i64(1, 10)),
            Value::str("Unknown"),
            Value::str(Self::prose(&mut rev_rng, 6, 15)),
            Value::str(format!(
                "{} {}",
                words::FIRST_NAMES
                    [rev_rng.uniform_i64(0, words::FIRST_NAMES.len() as i64 - 1) as usize]
                    .0,
                Self::pick(&mut rev_rng, words::LAST_NAMES)
            )),
            Value::Int(1),
            Value::str("Unknown"),
            Value::Int(1),
            Value::str("Unknown"),
            Value::str(number),
            Value::str(sname),
            Value::str(stype),
            suite,
            Value::str(city),
            Value::str(county),
            Value::str(state),
            Value::str(zip),
            Value::str(country),
            Value::Decimal(gmt),
            Value::Decimal(Decimal::from_cents(rev_rng.uniform_i64(0, 11))),
        ]
    }

    fn closed_date(&self, rng: &mut ColumnRng) -> i64 {
        self.sales_dates
            .first_day()
            .add_days(rng.uniform_i64(0, 1500) as i32)
            .date_sk()
    }

    fn call_center_row(&self, r: u64) -> Row {
        let pos = Self::scd_position(r);
        let (rec_start, rec_end) = self.scd_dates_clamped("call_center", r);
        let mut bk_rng = self.rng("call_center", 1, pos.business_key);
        let mut rev_rng = self.rng("call_center", 2, r);
        let name = format!("{} {}", Self::pick(&mut bk_rng, words::CITIES), "center");
        let (number, sname, stype, suite) = Self::street(&mut bk_rng);
        let (city, county, state, zip, country, gmt) = Self::geography(&mut bk_rng);
        let open = self
            .sales_dates
            .first_day()
            .add_days(-bk_rng.uniform_i64(100, 3000) as i32);
        let person = |rng: &mut ColumnRng| {
            format!(
                "{} {}",
                words::FIRST_NAMES
                    [rng.uniform_i64(0, words::FIRST_NAMES.len() as i64 - 1) as usize]
                    .0,
                Self::pick(rng, words::LAST_NAMES)
            )
        };
        vec![
            Value::Int(r as i64 + 1),
            Value::str(Self::business_id(pos.business_key)),
            Value::Date(rec_start),
            rec_end.map(Value::Date).unwrap_or(Value::Null),
            Value::Null,
            Value::Int(open.date_sk()),
            Value::str(name),
            Value::str(["small", "medium", "large"][rev_rng.uniform_i64(0, 2) as usize]),
            Value::Int(rev_rng.uniform_i64(50, 700)),
            Value::Int(rev_rng.uniform_i64(1_000, 40_000)),
            Value::str(["8AM-8PM", "8AM-4PM", "8AM-12AM"][rev_rng.uniform_i64(0, 2) as usize]),
            Value::str(person(&mut rev_rng)),
            Value::Int(rev_rng.uniform_i64(1, 6)),
            Value::str(Self::prose(&mut rev_rng, 3, 6)),
            Value::str(Self::prose(&mut rev_rng, 6, 15)),
            Value::str(person(&mut rev_rng)),
            Value::Int(rev_rng.uniform_i64(1, 5)),
            Value::str(Self::pick(&mut rev_rng, words::DESC_WORDS)),
            Value::Int(rev_rng.uniform_i64(1, 5)),
            Value::str(Self::pick(&mut rev_rng, words::DESC_WORDS)),
            Value::str(number),
            Value::str(sname),
            Value::str(stype),
            suite,
            Value::str(city),
            Value::str(county),
            Value::str(state),
            Value::str(zip),
            Value::str(country),
            Value::Decimal(gmt),
            Value::Decimal(Decimal::from_cents(rev_rng.uniform_i64(0, 11))),
        ]
    }

    fn web_site_row(&self, r: u64) -> Row {
        let pos = Self::scd_position(r);
        let (rec_start, rec_end) = self.scd_dates_clamped("web_site", r);
        let mut bk_rng = self.rng("web_site", 1, pos.business_key);
        let mut rev_rng = self.rng("web_site", 2, r);
        let name = format!("site_{}", pos.business_key);
        let (number, sname, stype, suite) = Self::street(&mut bk_rng);
        let (city, county, state, zip, country, gmt) = Self::geography(&mut bk_rng);
        let open = self
            .sales_dates
            .first_day()
            .add_days(-bk_rng.uniform_i64(100, 2000) as i32);
        let person = |rng: &mut ColumnRng| {
            format!(
                "{} {}",
                words::FIRST_NAMES
                    [rng.uniform_i64(0, words::FIRST_NAMES.len() as i64 - 1) as usize]
                    .0,
                Self::pick(rng, words::LAST_NAMES)
            )
        };
        vec![
            Value::Int(r as i64 + 1),
            Value::str(Self::business_id(pos.business_key)),
            Value::Date(rec_start),
            rec_end.map(Value::Date).unwrap_or(Value::Null),
            Value::str(name),
            Value::Int(open.date_sk()),
            Value::Null,
            Value::str(Self::pick(&mut rev_rng, words::DESC_WORDS)),
            Value::str(person(&mut rev_rng)),
            Value::Int(rev_rng.uniform_i64(1, 6)),
            Value::str(Self::prose(&mut rev_rng, 3, 6)),
            Value::str(Self::prose(&mut rev_rng, 6, 15)),
            Value::str(person(&mut rev_rng)),
            Value::Int(rev_rng.uniform_i64(1, 6)),
            Value::str(format!(
                "{}{}",
                Self::pick(&mut rev_rng, words::CORP_SYLLABLES),
                "co"
            )),
            Value::str(number),
            Value::str(sname),
            Value::str(stype),
            suite,
            Value::str(city),
            Value::str(county),
            Value::str(state),
            Value::str(zip),
            Value::str(country),
            Value::Decimal(gmt),
            Value::Decimal(Decimal::from_cents(rev_rng.uniform_i64(0, 11))),
        ]
    }

    fn web_page_row(&self, r: u64) -> Row {
        let pos = Self::scd_position(r);
        let (rec_start, rec_end) = self.scd_dates_clamped("web_page", r);
        let mut rng = self.rng("web_page", 2, r);
        let creation = self
            .sales_dates
            .first_day()
            .add_days(rng.uniform_i64(0, 1000) as i32);
        let access = creation.add_days(rng.uniform_i64(0, 100) as i32);
        let autogen = rng.chance(0.3);
        vec![
            Value::Int(r as i64 + 1),
            Value::str(Self::business_id(pos.business_key)),
            Value::Date(rec_start),
            rec_end.map(Value::Date).unwrap_or(Value::Null),
            Value::Int(creation.date_sk()),
            Value::Int(access.date_sk()),
            Value::str(if autogen { "Y" } else { "N" }),
            if autogen {
                Value::Int(self.fk(&mut rng, "customer"))
            } else {
                Value::Null
            },
            Value::str(format!("http://www.foo.com/page_{r}.html")),
            Value::str(Self::pick(&mut rng, words::WEB_PAGE_TYPES)),
            Value::Int(rng.uniform_i64(100, 7000)),
            Value::Int(rng.uniform_i64(2, 25)),
            Value::Int(rng.uniform_i64(1, 7)),
            Value::Int(rng.uniform_i64(0, 4)),
        ]
    }

    fn catalog_page_row(&self, r: u64) -> Row {
        let mut rng = self.rng("catalog_page", 1, r);
        // Pages grouped into monthly catalogs.
        let pages_per_catalog = 108;
        let catalog_number = (r / pages_per_catalog) as i64 + 1;
        let page_number = (r % pages_per_catalog) as i64 + 1;
        let start = self
            .sales_dates
            .first_day()
            .add_days(((catalog_number - 1) * 30) as i32 % 1800);
        let end = start.add_days(30);
        vec![
            Value::Int(r as i64 + 1),
            Value::str(Self::business_id(r)),
            Value::Int(start.date_sk()),
            Value::Int(end.date_sk()),
            Value::str(words::DEPARTMENTS[0]),
            Value::Int(catalog_number),
            Value::Int(page_number),
            Value::str(Self::prose(&mut rng, 4, 12)),
            Value::str(["bi-annual", "quarterly", "monthly"][rng.uniform_i64(0, 2) as usize]),
        ]
    }

    fn warehouse_row(&self, r: u64) -> Row {
        let mut rng = self.rng("warehouse", 1, r);
        let (number, sname, stype, suite) = Self::street(&mut rng);
        let (city, county, state, zip, country, gmt) = Self::geography(&mut rng);
        vec![
            Value::Int(r as i64 + 1),
            Value::str(Self::business_id(r)),
            Value::str(Self::prose(&mut rng, 2, 3)),
            Value::Int(rng.uniform_i64(50_000, 999_999)),
            Value::str(number),
            Value::str(sname),
            Value::str(stype),
            suite,
            Value::str(city),
            Value::str(county),
            Value::str(state),
            Value::str(zip),
            Value::str(country),
            Value::Decimal(gmt),
        ]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn business_ids_unique_and_fixed_width() {
        let mut seen = std::collections::HashSet::new();
        for n in 0..10_000u64 {
            let id = Generator::business_id(n);
            assert_eq!(id.len(), 16);
            assert!(seen.insert(id));
        }
    }

    #[test]
    fn scd_position_pattern() {
        // sk 0..6 covers one [1,2,3] block.
        let p: Vec<_> = (0..6).map(Generator::scd_position).collect();
        assert_eq!(
            (p[0].business_key, p[0].revision, p[0].revision_count),
            (0, 0, 1)
        );
        assert_eq!(
            (p[1].business_key, p[1].revision, p[1].revision_count),
            (1, 0, 2)
        );
        assert_eq!(
            (p[2].business_key, p[2].revision, p[2].revision_count),
            (1, 1, 2)
        );
        assert_eq!(
            (p[3].business_key, p[3].revision, p[3].revision_count),
            (2, 0, 3)
        );
        assert_eq!(
            (p[5].business_key, p[5].revision, p[5].revision_count),
            (2, 2, 3)
        );
        assert_eq!(Generator::scd_position(6).business_key, 3);
    }

    #[test]
    fn scd_dates_chain_correctly() {
        // A 3-revision chain tiles the window with no gaps or overlaps.
        let p3: Vec<_> = (3..6).map(Generator::scd_position).collect();
        let dates: Vec<_> = p3.into_iter().map(Generator::scd_dates).collect();
        assert!(dates[0].1.is_some() && dates[1].1.is_some());
        assert_eq!(dates[2].1, None, "latest revision is open-ended");
        assert_eq!(
            dates[0].1.unwrap().add_days(1),
            dates[1].0,
            "revision 1 starts the day after revision 0 ends"
        );
        assert_eq!(dates[1].1.unwrap().add_days(1), dates[2].0);
    }

    #[test]
    fn chunked_equals_single_pass() {
        let g = Generator::new(0.01);
        let all = g.generate("customer");
        let mut chunks = g.generate_range("customer", 0, 10);
        chunks.extend(g.generate_range("customer", 10, all.len() as u64));
        assert_eq!(all, chunks);
    }

    #[test]
    fn parallel_equals_serial() {
        let g = Generator::new(0.01);
        let serial = g.generate("item");
        let parallel = g.generate_parallel("item", 4);
        assert_eq!(serial, parallel);
    }

    #[test]
    fn columnar_generation_matches_row_generation() {
        let g = Generator::new(0.01);
        for table in ["customer", "store_sales"] {
            let rows = g.generate(table);
            let segments = g.generate_table_columnar(table, 4);
            assert_eq!(segments.rows, rows.len(), "{table} row count");
            assert!(segments.iter_rows().eq(rows), "{table} rows differ");
        }
    }

    #[test]
    fn rows_match_schema_widths() {
        let g = Generator::new(0.01);
        for t in tpcds_schema::tables::TABLE_NAMES {
            let n = g.row_count(t).min(50);
            let rows = g.generate_range(t, 0, n);
            let width = g.schema().table(t).unwrap().width();
            for row in &rows {
                assert_eq!(row.len(), width, "width mismatch in {t}");
            }
        }
    }

    #[test]
    fn surrogate_keys_are_dense_from_one() {
        let g = Generator::new(0.01);
        for t in ["customer", "item", "store", "customer_address"] {
            let rows = g.generate(t);
            for (i, row) in rows.iter().enumerate() {
                assert_eq!(row[0], Value::Int(i as i64 + 1), "{t} row {i}");
            }
        }
    }

    #[test]
    fn item_hierarchy_single_inheritance() {
        // Figure 5: every brand belongs to exactly one class, every class to
        // exactly one category (within a business key, and globally for the
        // class -> category edge since classes are category-scoped names).
        let g = Generator::new(0.02);
        let rows = g.generate("item");
        let mut class_to_cat = std::collections::HashMap::new();
        let mut brand_to_class = std::collections::HashMap::new();
        for row in &rows {
            let class_id = (
                row[9].as_int().unwrap(),
                row[12].as_str().unwrap().to_string(),
            );
            let cat = row[12].as_str().unwrap().to_string();
            let prev = class_to_cat.insert(class_id.clone(), cat.clone());
            if let Some(p) = prev {
                assert_eq!(p, cat, "class maps to two categories");
            }
            let brand = row[7].as_int().unwrap();
            let prev = brand_to_class.insert(brand, class_id.clone());
            if let Some(p) = prev {
                assert_eq!(p, class_id, "brand id {brand} maps to two classes");
            }
        }
    }

    #[test]
    fn customer_demographics_is_cartesian() {
        let g = Generator::new(0.01);
        let rows = g.generate("customer_demographics");
        let mut seen = std::collections::HashSet::new();
        for row in &rows {
            let key: Vec<String> = row[1..].iter().map(|v| v.to_flat()).collect();
            assert!(seen.insert(key), "duplicate demographic combination");
        }
    }

    #[test]
    fn income_bands_tile_income_space() {
        let g = Generator::new(0.01);
        let rows = g.generate("income_band");
        assert_eq!(rows.len(), 20);
        for w in rows.windows(2) {
            let upper_prev = w[0][2].as_int().unwrap();
            let lower_next = w[1][1].as_int().unwrap();
            assert_eq!(lower_next, upper_prev + 1);
        }
    }

    #[test]
    fn history_dims_have_at_most_three_revisions() {
        let g = Generator::new(0.05);
        let rows = g.generate("store");
        let mut counts: std::collections::HashMap<String, u32> = std::collections::HashMap::new();
        for row in &rows {
            *counts
                .entry(row[1].as_str().unwrap().to_string())
                .or_default() += 1;
        }
        assert!(counts.values().all(|&c| (1..=3).contains(&c)));
        // And at least one business key with each multiplicity, given
        // enough rows.
        if rows.len() >= 6 {
            assert!(counts.values().any(|&c| c == 1));
            assert!(counts.values().any(|&c| c == 2));
            assert!(counts.values().any(|&c| c == 3));
        }
    }

    #[test]
    fn exactly_one_open_revision_per_business_key() {
        for sf in [0.01, 0.05] {
            let g = Generator::new(sf);
            for table in ["item", "store", "call_center", "web_site", "web_page"] {
                let t = g.schema().table(table).unwrap();
                let end_idx = t
                    .columns
                    .iter()
                    .position(|c| c.name.ends_with("rec_end_date"))
                    .unwrap();
                let mut open: std::collections::HashMap<String, u32> = Default::default();
                for row in g.generate(table) {
                    let bk = row[1].as_str().unwrap().to_string();
                    let e = open.entry(bk).or_default();
                    if row[end_idx].is_null() {
                        *e += 1;
                    }
                }
                assert!(
                    open.values().all(|&c| c == 1),
                    "{table} at SF {sf}: business keys without exactly one open revision"
                );
            }
        }
    }
}
