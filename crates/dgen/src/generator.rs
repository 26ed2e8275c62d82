//! The data generator core: deterministic, random-access row synthesis for
//! all 24 tables.
//!
//! Every row of every table is a pure function of `(seed, table, row index)`
//! — the property that makes generation embarrassingly parallel and lets
//! the returns generators re-derive the sale a return refers to in O(1)
//! (dsdgen achieves the same with LCG jump-ahead).
//!
//! Each table has one row function, which writes its row as typed cells
//! into a reusable [`RowBuf`]: the bulk load pushes those into a segment
//! ([`Generator::generate_segment`]), the row API boxes them into a
//! [`Row`] ([`Generator::row`], [`Generator::generate`]).

use crate::distributions::SalesDateDistribution;
use crate::rowbuf::{Cell, RowBuf};
use crate::words;
use std::ops::Range;
use std::sync::{Arc, LazyLock};
use tpcds_schema::Schema;
use tpcds_types::rng::{table_stream, ColumnRng, DEFAULT_SEED};
use tpcds_types::{DataType, Date, Row};

/// First calendar day covered by revision histories of slowly changing
/// dimensions (rec_start_date of revision 0).
pub const SCD_START: (i32, u32, u32) = (1997, 1, 1);
/// Last day of the SCD revision window.
pub const SCD_END: (i32, u32, u32) = (2001, 12, 31);

/// The 24 tables, in schema order: `t as usize` is the table's schema
/// index, which also places its RNG streams.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum Table {
    DateDim,
    TimeDim,
    Reason,
    ShipMode,
    IncomeBand,
    CustomerDemographics,
    HouseholdDemographics,
    CustomerAddress,
    Customer,
    Item,
    Store,
    CallCenter,
    WebSite,
    WebPage,
    CatalogPage,
    Warehouse,
    Promotion,
    StoreSales,
    StoreReturns,
    CatalogSales,
    CatalogReturns,
    WebSales,
    WebReturns,
    Inventory,
}

impl Table {
    /// Every table, in schema order.
    const ALL: [Table; 24] = [
        Table::DateDim,
        Table::TimeDim,
        Table::Reason,
        Table::ShipMode,
        Table::IncomeBand,
        Table::CustomerDemographics,
        Table::HouseholdDemographics,
        Table::CustomerAddress,
        Table::Customer,
        Table::Item,
        Table::Store,
        Table::CallCenter,
        Table::WebSite,
        Table::WebPage,
        Table::CatalogPage,
        Table::Warehouse,
        Table::Promotion,
        Table::StoreSales,
        Table::StoreReturns,
        Table::CatalogSales,
        Table::CatalogReturns,
        Table::WebSales,
        Table::WebReturns,
        Table::Inventory,
    ];
}

/// A table's row function: writes row `r` into the buffer.
pub(crate) type RowFn = fn(&Generator, u64, &mut RowBuf);

/// The weights of [`words::FIRST_NAMES`], for weighted picks.
static FIRST_NAME_WEIGHTS: LazyLock<Vec<f64>> =
    LazyLock::new(|| words::FIRST_NAMES.iter().map(|(_, w)| *w).collect());

/// The deterministic TPC-DS data generator (our dsdgen).
#[derive(Clone)]
pub struct Generator {
    schema: Arc<Schema>,
    sf: f64,
    seed: u64,
    pub(crate) sales_dates: Arc<SalesDateDistribution>,
    /// Each table's row count, by [`Table`]: computed once, read per draw.
    rows: [u64; Table::ALL.len()],
    /// The (weeks, warehouses, items-per-cell) layout of `inventory`.
    inventory: (u64, u64, u64),
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
        let schema = Schema::tpcds();
        let mut rows = std::array::from_fn(|t| schema.rows(schema.tables()[t].name, sf));
        // Inventory is rounded to whole snapshot cells: five years of
        // weekly snapshots of every warehouse.
        let (weeks, warehouses) = (261, rows[Table::Warehouse as usize]);
        let per_cell = (rows[Table::Inventory as usize] / (weeks * warehouses)).max(1);
        rows[Table::Inventory as usize] = weeks * warehouses * per_cell;
        Generator {
            schema: Arc::new(schema),
            sf,
            seed,
            sales_dates: Arc::new(SalesDateDistribution::tpcds()),
            rows,
            inventory: (weeks, warehouses, per_cell),
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
        self.count(self.table(table))
    }

    /// [`Generator::row_count`] of a [`Table`].
    #[inline]
    pub(crate) fn count(&self, table: Table) -> u64 {
        self.rows[table as usize]
    }

    /// The [`Table`] named `name`.
    pub(crate) fn table(&self, name: &str) -> Table {
        let index = self.schema.table_index(name);
        Table::ALL[index.unwrap_or_else(|| panic!("unknown table {name}"))]
    }

    /// The (weeks, warehouses, items-per-cell) layout of the inventory
    /// snapshot fact table.
    pub(crate) fn inventory_layout(&self) -> (u64, u64, u64) {
        self.inventory
    }

    /// A fresh RNG stream positioned at `(table, purpose, row)`.
    #[inline]
    pub(crate) fn rng(&self, table: Table, purpose: u64, row: u64) -> ColumnRng {
        ColumnRng::at(self.seed, table_stream(table as usize) + purpose, row)
    }

    /// Generates every row of `table`.
    pub fn generate(&self, table: &str) -> Vec<Row> {
        let _span = tpcds_obs::span("dgen", "generate");
        let rows = self.generate_range(table, 0, self.row_count(table));
        tpcds_obs::counter("dgen", "gen.rows", rows.len() as f64);
        rows
    }

    /// Generates rows `lo..hi` (0-based) of `table`. Chunks generated
    /// separately concatenate to exactly the rows of a single pass.
    pub fn generate_range(&self, table: &str, lo: u64, hi: u64) -> Vec<Row> {
        let t = self.table(table);
        self.rows_in(t, lo..hi.min(self.count(t))).collect()
    }

    /// Rows `rows` of `table`, through one buffer — also past the initial
    /// population (refresh data).
    pub(crate) fn rows_in(&self, table: Table, rows: Range<u64>) -> impl Iterator<Item = Row> + '_ {
        let (row, mut buf) = (Self::row_fn(table), RowBuf::default());
        rows.map(move |r| {
            buf.clear();
            row(self, r, &mut buf);
            buf.to_row()
        })
    }

    /// Generates every row of `table` on up to `threads` workers, one
    /// [`Generator::segment_rows`] task per segment, concatenated in order.
    pub fn generate_parallel(&self, table: &str, threads: usize) -> Vec<Row> {
        let _span = tpcds_obs::span("dgen", "generate_parallel");
        let segments = self.segments(table);
        let workers = threads.clamp(1, segments.max(1));
        let parts = tpcds_storage::run_chunks(segments, workers, |k| {
            self.segment_rows(table, k).collect::<Vec<Row>>()
        });
        let rows = parts.concat();
        tpcds_obs::counter("dgen", "gen.rows", rows.len() as f64);
        rows
    }

    /// How many segments `table`'s rows fill: the unit of parallel
    /// generation and of the bulk load.
    pub fn segments(&self, table: &str) -> usize {
        (self.row_count(table) as usize).div_ceil(tpcds_storage::SEGMENT_ROWS)
    }

    /// The rows of segment `k` of `table`: `k·SEGMENT_ROWS ..`, at most
    /// [`tpcds_storage::SEGMENT_ROWS`] of them.
    fn segment_range(&self, table: Table, k: usize) -> Range<u64> {
        let (per, lo) = (tpcds_storage::SEGMENT_ROWS as u64, k as u64);
        lo * per..(lo * per + per).min(self.count(table))
    }

    /// The rows of segment `k` of `table`: rows `k·SEGMENT_ROWS ..`, at
    /// most [`tpcds_storage::SEGMENT_ROWS`] of them. Any segment can be
    /// generated alone, in any order, on any thread.
    pub fn segment_rows(&self, table: &str, k: usize) -> impl Iterator<Item = Row> + '_ {
        let t = self.table(table);
        self.rows_in(t, self.segment_range(t, k))
    }

    /// Segment `k` of `table` as stored: each row written into one reused
    /// buffer and pushed from it into the segment's typed columns — never
    /// a [`Row`]. Counts its rows in the `gen.rows` counter.
    pub fn generate_segment(&self, table: &str, k: usize) -> Arc<tpcds_storage::Segment> {
        let t = self.table(table);
        let rows = self.segment_range(t, k);
        let mut batch = self.batch(t, self.dtypes(t), rows, |r, row, buf| row(self, r, buf));
        let segment =
            (batch.segments.pop()).unwrap_or_else(|| panic!("{table} has no segment {k}"));
        tpcds_obs::counter("dgen", "gen.rows", segment.rows as f64);
        segment
    }

    /// The declared type of each of `table`'s columns.
    pub(crate) fn dtypes(&self, table: Table) -> Vec<DataType> {
        let def = &self.schema.tables()[table as usize];
        def.columns.iter().map(|c| c.ctype.data_type()).collect()
    }

    /// A table of `dtypes` columns holding one row per item of `rows`,
    /// which `fill` writes into one reused buffer with `table`'s row
    /// function; the buffer's cells are pushed from there into the typed
    /// columns.
    pub(crate) fn batch<I: Iterator>(
        &self,
        table: Table,
        dtypes: Vec<DataType>,
        rows: I,
        mut fill: impl FnMut(I::Item, RowFn, &mut RowBuf),
    ) -> tpcds_storage::ColumnTable {
        let (row, mut buf) = (Self::row_fn(table), RowBuf::default());
        let mut builder = tpcds_storage::ColumnTableBuilder::new(dtypes);
        builder.reserve(rows.size_hint().0);
        for item in rows {
            buf.clear();
            fill(item, row, &mut buf);
            builder.push_row_with(|columns| buf.push_into(columns));
        }
        builder.finish()
    }

    /// Generates one row of `table` (0-based index). The workhorse — pure
    /// in `(seed, table, row)`.
    pub fn row(&self, table: &str, r: u64) -> Row {
        let mut buf = RowBuf::default();
        Self::row_fn(self.table(table))(self, r, &mut buf);
        buf.to_row()
    }

    /// The row function of `table`, looked up once per range of rows.
    pub(crate) fn row_fn(table: Table) -> RowFn {
        match table {
            Table::DateDim => Self::date_dim_row,
            Table::TimeDim => Self::time_dim_row,
            Table::Reason => Self::reason_row,
            Table::ShipMode => Self::ship_mode_row,
            Table::IncomeBand => Self::income_band_row,
            Table::CustomerDemographics => Self::customer_demographics_row,
            Table::HouseholdDemographics => Self::household_demographics_row,
            Table::CustomerAddress => Self::customer_address_row,
            Table::Customer => Self::customer_row,
            Table::Item => Self::item_row,
            Table::Store => Self::store_row,
            Table::CallCenter => Self::call_center_row,
            Table::WebSite => Self::web_site_row,
            Table::WebPage => Self::web_page_row,
            Table::CatalogPage => Self::catalog_page_row,
            Table::Warehouse => Self::warehouse_row,
            Table::Promotion => Self::promotion_row,
            Table::StoreSales => Self::store_sales_row,
            Table::StoreReturns => Self::store_returns_row,
            Table::CatalogSales => Self::catalog_sales_row,
            Table::CatalogReturns => Self::catalog_returns_row,
            Table::WebSales => Self::web_sales_row,
            Table::WebReturns => Self::web_returns_row,
            Table::Inventory => Self::inventory_row,
        }
    }

    // ---------- shared helpers ----------

    /// 16-character business key (`*_id`) for 0-based entity index `n`.
    pub fn business_id(n: u64) -> String {
        let mut id = String::with_capacity(16);
        Self::write_business_id(n, &mut id);
        id
    }

    /// Appends [`Generator::business_id`] of `n` to `out`.
    pub(crate) fn write_business_id(n: u64, out: &mut String) {
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
        bytes.iter().for_each(|&b| out.push(b as char));
    }

    /// Appends the business key of entity `n` to `out`.
    fn business_id_cell(n: u64, out: &mut RowBuf) {
        out.text_with(|text| Self::write_business_id(n, text));
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
    pub(crate) fn scd_dates_clamped(&self, table: Table, r: u64) -> (Date, Option<Date>) {
        let (start, end) = Self::scd_dates(Self::scd_position(r));
        if r + 1 == self.count(table) {
            (start, None)
        } else {
            (start, end)
        }
    }

    /// Appends the revision window of a history-keeping dimension row:
    /// rec_start_date, then rec_end_date (NULL for the open revision).
    fn scd_cells(out: &mut RowBuf, (start, end): (Date, Option<Date>)) {
        out.date(start);
        out.push(end.map_or(Cell::Null, Cell::Date));
    }

    /// Uniform pick from a word list.
    pub(crate) fn pick<'a>(rng: &mut ColumnRng, list: &[&'a str]) -> &'a str {
        list[rng.uniform_i64(0, list.len() as i64 - 1) as usize]
    }

    /// Uniform surrogate key into another table at this scale factor
    /// (1-based, matching generated `*_sk` values).
    #[inline]
    pub(crate) fn fk(&self, rng: &mut ColumnRng, table: Table) -> i64 {
        rng.uniform_i64(1, (self.count(table) as i64).max(1))
    }

    /// Street address fragment, written into `out`'s text: (street
    /// number, street name, street type, suite number).
    fn street(rng: &mut ColumnRng, out: &mut RowBuf) -> [Cell; 4] {
        let number = out.format(format_args!("{}", rng.uniform_i64(1, 999)));
        let name = if rng.chance(0.3) {
            let first = Self::pick(rng, words::STREET_NAMES);
            out.format(format_args!(
                "{first} {}",
                Self::pick(rng, words::STREET_NAMES)
            ))
        } else {
            Cell::Word(Self::pick(rng, words::STREET_NAMES))
        };
        let ty = Cell::Word(Self::pick(rng, words::STREET_TYPES));
        let suite = if rng.chance(0.5) {
            out.format(format_args!("Suite {}", rng.uniform_i64(0, 49) * 10))
        } else {
            let letter = (b'A' + rng.uniform_i64(0, 25) as u8) as char;
            out.format(format_args!("Suite {letter}"))
        };
        [number, name, ty, suite]
    }

    /// Geographic fragment shared by stores/centers/sites/addresses:
    /// (city, county, state, zip, country, gmt offset).
    fn geography(rng: &mut ColumnRng, out: &mut RowBuf) -> [Cell; 6] {
        let city = Self::pick(rng, words::CITIES);
        let county = Self::pick(rng, words::COUNTIES);
        let state = Self::pick(rng, words::STATES);
        let zip = out.format(format_args!("{:05}", rng.uniform_i64(600, 99998)));
        let gmt = Cell::Dec(-rng.uniform_i64(5, 8), 0);
        let country = Cell::Word("United States");
        [
            Cell::Word(city),
            Cell::Word(county),
            Cell::Word(state),
            zip,
            country,
            gmt,
        ]
    }

    /// A person's full name drawn from the name lists, written into
    /// `out`'s text.
    fn person(rng: &mut ColumnRng, out: &mut RowBuf) -> Cell {
        let n = words::FIRST_NAMES.len() as i64;
        let (first, _) = words::FIRST_NAMES[rng.uniform_i64(0, n - 1) as usize];
        out.format(format_args!(
            "{first} {}",
            Self::pick(rng, words::LAST_NAMES)
        ))
    }

    /// Appends synthesized prose of `lo..=hi` words (item descriptions,
    /// market blurbs) to `out`.
    fn prose(rng: &mut ColumnRng, lo: i64, hi: i64, out: &mut String) {
        let n = rng.uniform_i64(lo, hi);
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
    }

    /// Appends a prose cell of `lo..=hi` words.
    fn prose_cell(rng: &mut ColumnRng, lo: i64, hi: i64, out: &mut RowBuf) {
        out.text_with(|text| Self::prose(rng, lo, hi, text));
    }

    /// `"Y"` or `"N"`.
    fn flag(yes: bool) -> &'static str {
        if yes {
            "Y"
        } else {
            "N"
        }
    }

    // ---------- static dimensions ----------

    fn date_dim_row(&self, r: u64, out: &mut RowBuf) {
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
        out.int(d.date_sk());
        out.text(format_args!("D{:015}", d.date_sk()));
        out.date(d);
        out.int(month_seq as i64);
        out.int(d.week_seq() as i64);
        out.int(quarter_seq as i64);
        out.int(y as i64);
        out.int(dow as i64);
        out.int(m as i64);
        out.int(dom as i64);
        out.int(d.quarter() as i64);
        out.int(y as i64);
        out.int(quarter_seq as i64);
        out.int(d.week_seq() as i64);
        out.word(day_names[dow as usize]);
        out.text(format_args!("{}Q{}", y, d.quarter()));
        out.word(Self::flag(holiday));
        out.word(Self::flag(weekend));
        out.word(Self::flag(holiday && dow < 6));
        out.int(first_dom.date_sk());
        out.int(last_dom.date_sk());
        out.int(d.add_days(-365).date_sk());
        out.int(d.add_days(-91).date_sk());
        (0..5).for_each(|_| out.word("N"));
    }

    fn time_dim_row(&self, r: u64, out: &mut RowBuf) {
        let t = tpcds_types::Time::from_seconds(r as u32);
        out.int(r as i64);
        out.text(format_args!("T{:015}", r));
        out.int(r as i64);
        out.int(t.hour() as i64);
        out.int(t.minute() as i64);
        out.int(t.second() as i64);
        out.word(t.am_pm());
        out.word(t.shift());
        out.word(t.sub_shift());
        out.push(t.meal_time().map_or(Cell::Null, Cell::Word));
    }

    fn reason_row(&self, r: u64, out: &mut RowBuf) {
        out.int(r as i64 + 1);
        Self::business_id_cell(r, out);
        out.word(words::RETURN_REASONS[r as usize % words::RETURN_REASONS.len()]);
    }

    fn ship_mode_row(&self, r: u64, out: &mut RowBuf) {
        let ty = words::SHIP_MODE_TYPES[r as usize % 5];
        let code = ["AIR", "SURFACE", "SEA"][r as usize % 3];
        let carrier = words::SHIP_MODE_CARRIERS[r as usize % words::SHIP_MODE_CARRIERS.len()];
        let mut rng = self.rng(Table::ShipMode, 1, r);
        out.int(r as i64 + 1);
        Self::business_id_cell(r, out);
        out.word(ty);
        out.word(code);
        out.word(carrier);
        let letter = (b'A' + (r % 26) as u8) as char;
        out.text(format_args!(
            "{letter}{}",
            rng.uniform_i64(100_000, 999_999)
        ));
    }

    fn income_band_row(&self, r: u64, out: &mut RowBuf) {
        let lower = r as i64 * 10_000 + if r > 0 { 1 } else { 0 };
        out.int(r as i64 + 1);
        out.int(lower);
        out.int((r as i64 + 1) * 10_000);
    }

    fn customer_demographics_row(&self, r: u64, out: &mut RowBuf) {
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
        out.int(r as i64 + 1);
        out.word(if gender == 0 { "M" } else { "F" });
        out.word(words::MARITAL_STATUSES[marital as usize]);
        out.word(words::EDUCATION_STATUSES[education as usize]);
        out.int((purchase as i64 + 1) * 500);
        out.word(words::CREDIT_RATINGS[credit as usize]);
        out.int(dep as i64);
        out.int(dep_emp as i64);
        out.int(dep_col as i64);
    }

    fn household_demographics_row(&self, r: u64, out: &mut RowBuf) {
        // income_band(20) x buy_potential(6) x dep_count(10) x vehicle(6).
        let mut v = r;
        let ib = v % 20;
        v /= 20;
        let bp = v % 6;
        v /= 6;
        let dep = v % 10;
        v /= 10;
        let veh = v % 6;
        out.int(r as i64 + 1);
        out.int(ib as i64 + 1);
        out.word(words::BUY_POTENTIALS[bp as usize]);
        out.int(dep as i64);
        out.int(veh as i64);
    }

    // ---------- customer-cluster dimensions ----------

    fn customer_address_row(&self, r: u64, out: &mut RowBuf) {
        let mut rng = self.rng(Table::CustomerAddress, 1, r);
        let street = Self::street(&mut rng, out);
        let geography = Self::geography(&mut rng, out);
        let loc = ["apartment", "condo", "single family"][rng.uniform_i64(0, 2) as usize];
        out.int(r as i64 + 1);
        Self::business_id_cell(r, out);
        out.extend(street);
        out.extend(geography);
        out.word(loc);
    }

    fn customer_row(&self, r: u64, out: &mut RowBuf) {
        let mut rng = self.rng(Table::Customer, 1, r);
        let (first, _) = words::FIRST_NAMES[rng.weighted_index(&FIRST_NAME_WEIGHTS)];
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
        let host = Self::pick(&mut rng, words::DESC_WORDS);
        let domain = ["com", "org", "edu"][rng.uniform_i64(0, 2) as usize];
        let email = out.format(format_args!("{first}.{last}@{host}.{domain}"));
        out.int(r as i64 + 1);
        Self::business_id_cell(r, out);
        for table in [
            Table::CustomerDemographics,
            Table::HouseholdDemographics,
            Table::CustomerAddress,
        ] {
            out.int(self.fk(&mut rng, table));
            out.null_last_if(rng.chance(0.02));
        }
        out.int(first_shipto.date_sk());
        out.int(first_sales.date_sk());
        for name in [salutation, first, last] {
            out.word(name);
            out.null_last_if(rng.chance(0.01));
        }
        out.word(Self::flag(rng.chance(0.5)));
        out.int(birth_day);
        out.int(birth_month);
        out.int(birth_year);
        out.word(Self::pick(&mut rng, words::COUNTRIES));
        out.null();
        out.push(email);
        out.int(last_review.date_sk());
    }

    // ---------- item & promotion ----------

    fn item_row(&self, r: u64, out: &mut RowBuf) {
        let pos = Self::scd_position(r);
        // Stable per-business-key attributes come from a bk-keyed stream so
        // revisions share identity; revision-keyed stream varies the rest.
        let mut bk_rng = self.rng(Table::Item, 1, pos.business_key);
        let mut rev_rng = self.rng(Table::Item, 2, r);

        let cat_idx = bk_rng.uniform_i64(0, words::CATEGORIES.len() as i64 - 1) as usize;
        let (category, classes) = words::CATEGORIES[cat_idx];
        let class_idx = bk_rng.uniform_i64(0, classes.len() as i64 - 1) as usize;
        let class = classes[class_idx];
        let brand_syl = Self::pick(&mut bk_rng, words::CORP_SYLLABLES);
        let brand_syl2 = Self::pick(&mut bk_rng, words::CORP_SYLLABLES);
        let brand_num = bk_rng.uniform_i64(1, 10);
        let brand_id = (cat_idx as i64 + 1) * 1_000_000 + (class_idx as i64 + 1) * 1000 + brand_num;
        let brand = out.format(format_args!("{brand_syl}{brand_syl2} #{brand_num}"));
        let manufact_id = bk_rng.uniform_i64(1, 1000);
        let manufact_syl = Self::pick(&mut bk_rng, words::CORP_SYLLABLES);
        let manufact = out.format(format_args!("{manufact_syl}{manufact_id}"));

        let wholesale_cents = rev_rng.uniform_i64(100, 8_800);
        let markup = rev_rng.uniform_i64(120, 300); // percent of wholesale
        let price_cents = wholesale_cents * markup / 100;
        let manager = rev_rng.uniform_i64(1, 100);
        out.int(r as i64 + 1);
        Self::business_id_cell(pos.business_key, out);
        Self::scd_cells(out, Self::scd_dates(pos));
        Self::prose_cell(&mut rev_rng, 5, 25, out);
        out.null_last_if(rev_rng.chance(0.005));
        out.cents(price_cents);
        out.cents(wholesale_cents);
        out.int(brand_id);
        out.push(brand);
        out.int(class_idx as i64 + 1);
        out.word(class);
        out.int(cat_idx as i64 + 1);
        out.word(category);
        out.int(manufact_id);
        out.push(manufact);
        out.word(Self::pick(&mut rev_rng, words::SIZES));
        let number = rev_rng.uniform_i64(10000, 99999);
        let infix = ["ot", "me", "ese", "anti"][rev_rng.uniform_i64(0, 3) as usize];
        out.text(format_args!("{number}{infix}{}", rev_rng.uniform_i64(1, 9)));
        out.word(Self::pick(&mut rev_rng, words::COLORS));
        out.word(Self::pick(&mut rev_rng, words::UNITS));
        out.word(Self::pick(&mut rev_rng, words::CONTAINERS));
        out.int(manager);
        Self::prose_cell(&mut rev_rng, 2, 4, out);
    }

    fn promotion_row(&self, r: u64, out: &mut RowBuf) {
        let mut rng = self.rng(Table::Promotion, 1, r);
        let start = self
            .sales_dates
            .first_day()
            .add_days(rng.uniform_i64(0, 1700) as i32);
        let end = start.add_days(rng.uniform_i64(10, 120) as i32);
        out.int(r as i64 + 1);
        Self::business_id_cell(r, out);
        out.int(start.date_sk());
        out.int(end.date_sk());
        out.int(self.fk(&mut rng, Table::Item));
        out.push(Cell::Dec(1000, 0));
        out.int(1);
        let syllable = Self::pick(&mut rng, words::CORP_SYLLABLES);
        out.text(format_args!("{syllable}{r}"));
        (0..8).for_each(|_| out.word(Self::flag(rng.chance(0.5))));
        Self::prose_cell(&mut rng, 5, 15, out);
        out.word(Self::pick(&mut rng, words::PROMO_PURPOSES));
        out.word(Self::flag(rng.chance(0.5)));
    }

    // ---------- channel dimensions ----------

    fn store_row(&self, r: u64, out: &mut RowBuf) {
        let pos = Self::scd_position(r);
        let dates = self.scd_dates_clamped(Table::Store, r);
        let mut bk_rng = self.rng(Table::Store, 1, pos.business_key);
        let mut rev_rng = self.rng(Table::Store, 2, r);
        let name = Self::pick(&mut bk_rng, words::CITIES);
        let street = Self::street(&mut bk_rng, out);
        let geography = Self::geography(&mut bk_rng, out);
        let manager = Self::person(&mut rev_rng, out);
        out.int(r as i64 + 1);
        Self::business_id_cell(pos.business_key, out);
        Self::scd_cells(out, dates);
        out.int(self.closed_date(&mut rev_rng));
        out.null_last_if(rev_rng.chance(0.9));
        out.word(name);
        out.int(rev_rng.uniform_i64(200, 300));
        out.int(rev_rng.uniform_i64(5_000_000, 9_999_999));
        out.word(["8AM-8PM", "8AM-4PM", "8AM-12AM"][rev_rng.uniform_i64(0, 2) as usize]);
        out.push(manager);
        out.int(rev_rng.uniform_i64(1, 10));
        out.word("Unknown");
        Self::prose_cell(&mut rev_rng, 6, 15, out);
        let market_manager = Self::person(&mut rev_rng, out);
        out.push(market_manager);
        out.int(1);
        out.word("Unknown");
        out.int(1);
        out.word("Unknown");
        out.extend(street);
        out.extend(geography);
        out.cents(rev_rng.uniform_i64(0, 11));
    }

    fn closed_date(&self, rng: &mut ColumnRng) -> i64 {
        self.sales_dates
            .first_day()
            .add_days(rng.uniform_i64(0, 1500) as i32)
            .date_sk()
    }

    fn call_center_row(&self, r: u64, out: &mut RowBuf) {
        let pos = Self::scd_position(r);
        let dates = self.scd_dates_clamped(Table::CallCenter, r);
        let mut bk_rng = self.rng(Table::CallCenter, 1, pos.business_key);
        let mut rev_rng = self.rng(Table::CallCenter, 2, r);
        let city = Self::pick(&mut bk_rng, words::CITIES);
        let name = out.format(format_args!("{city} center"));
        let street = Self::street(&mut bk_rng, out);
        let geography = Self::geography(&mut bk_rng, out);
        let open = self
            .sales_dates
            .first_day()
            .add_days(-bk_rng.uniform_i64(100, 3000) as i32);
        out.int(r as i64 + 1);
        Self::business_id_cell(pos.business_key, out);
        Self::scd_cells(out, dates);
        out.null();
        out.int(open.date_sk());
        out.push(name);
        out.word(["small", "medium", "large"][rev_rng.uniform_i64(0, 2) as usize]);
        out.int(rev_rng.uniform_i64(50, 700));
        out.int(rev_rng.uniform_i64(1_000, 40_000));
        out.word(["8AM-8PM", "8AM-4PM", "8AM-12AM"][rev_rng.uniform_i64(0, 2) as usize]);
        let manager = Self::person(&mut rev_rng, out);
        out.push(manager);
        out.int(rev_rng.uniform_i64(1, 6));
        Self::prose_cell(&mut rev_rng, 3, 6, out);
        Self::prose_cell(&mut rev_rng, 6, 15, out);
        let market_manager = Self::person(&mut rev_rng, out);
        out.push(market_manager);
        out.int(rev_rng.uniform_i64(1, 5));
        out.word(Self::pick(&mut rev_rng, words::DESC_WORDS));
        out.int(rev_rng.uniform_i64(1, 5));
        out.word(Self::pick(&mut rev_rng, words::DESC_WORDS));
        out.extend(street);
        out.extend(geography);
        out.cents(rev_rng.uniform_i64(0, 11));
    }

    fn web_site_row(&self, r: u64, out: &mut RowBuf) {
        let pos = Self::scd_position(r);
        let dates = self.scd_dates_clamped(Table::WebSite, r);
        let mut bk_rng = self.rng(Table::WebSite, 1, pos.business_key);
        let mut rev_rng = self.rng(Table::WebSite, 2, r);
        let name = out.format(format_args!("site_{}", pos.business_key));
        let street = Self::street(&mut bk_rng, out);
        let geography = Self::geography(&mut bk_rng, out);
        let open = self
            .sales_dates
            .first_day()
            .add_days(-bk_rng.uniform_i64(100, 2000) as i32);
        out.int(r as i64 + 1);
        Self::business_id_cell(pos.business_key, out);
        Self::scd_cells(out, dates);
        out.push(name);
        out.int(open.date_sk());
        out.null();
        out.word(Self::pick(&mut rev_rng, words::DESC_WORDS));
        let manager = Self::person(&mut rev_rng, out);
        out.push(manager);
        out.int(rev_rng.uniform_i64(1, 6));
        Self::prose_cell(&mut rev_rng, 3, 6, out);
        Self::prose_cell(&mut rev_rng, 6, 15, out);
        let market_manager = Self::person(&mut rev_rng, out);
        out.push(market_manager);
        out.int(rev_rng.uniform_i64(1, 6));
        let syllable = Self::pick(&mut rev_rng, words::CORP_SYLLABLES);
        out.text(format_args!("{syllable}co"));
        out.extend(street);
        out.extend(geography);
        out.cents(rev_rng.uniform_i64(0, 11));
    }

    fn web_page_row(&self, r: u64, out: &mut RowBuf) {
        let pos = Self::scd_position(r);
        let dates = self.scd_dates_clamped(Table::WebPage, r);
        let mut rng = self.rng(Table::WebPage, 2, r);
        let creation = self
            .sales_dates
            .first_day()
            .add_days(rng.uniform_i64(0, 1000) as i32);
        let access = creation.add_days(rng.uniform_i64(0, 100) as i32);
        let autogen = rng.chance(0.3);
        out.int(r as i64 + 1);
        Self::business_id_cell(pos.business_key, out);
        Self::scd_cells(out, dates);
        out.int(creation.date_sk());
        out.int(access.date_sk());
        out.word(Self::flag(autogen));
        match autogen {
            true => out.int(self.fk(&mut rng, Table::Customer)),
            false => out.null(),
        }
        out.text(format_args!("http://www.foo.com/page_{r}.html"));
        out.word(Self::pick(&mut rng, words::WEB_PAGE_TYPES));
        out.int(rng.uniform_i64(100, 7000));
        out.int(rng.uniform_i64(2, 25));
        out.int(rng.uniform_i64(1, 7));
        out.int(rng.uniform_i64(0, 4));
    }

    fn catalog_page_row(&self, r: u64, out: &mut RowBuf) {
        let mut rng = self.rng(Table::CatalogPage, 1, r);
        // Pages grouped into monthly catalogs.
        let pages_per_catalog = 108;
        let catalog_number = (r / pages_per_catalog) as i64 + 1;
        let page_number = (r % pages_per_catalog) as i64 + 1;
        let start = self
            .sales_dates
            .first_day()
            .add_days(((catalog_number - 1) * 30) as i32 % 1800);
        let end = start.add_days(30);
        out.int(r as i64 + 1);
        Self::business_id_cell(r, out);
        out.int(start.date_sk());
        out.int(end.date_sk());
        out.word(words::DEPARTMENTS[0]);
        out.int(catalog_number);
        out.int(page_number);
        Self::prose_cell(&mut rng, 4, 12, out);
        out.word(["bi-annual", "quarterly", "monthly"][rng.uniform_i64(0, 2) as usize]);
    }

    fn warehouse_row(&self, r: u64, out: &mut RowBuf) {
        let mut rng = self.rng(Table::Warehouse, 1, r);
        let street = Self::street(&mut rng, out);
        let geography = Self::geography(&mut rng, out);
        out.int(r as i64 + 1);
        Self::business_id_cell(r, out);
        Self::prose_cell(&mut rng, 2, 3, out);
        out.int(rng.uniform_i64(50_000, 999_999));
        out.extend(street);
        out.extend(geography);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tpcds_types::Value;

    #[test]
    fn tables_are_in_schema_order() {
        let g = Generator::new(0.01);
        for (t, def) in Table::ALL.iter().zip(g.schema().tables()) {
            assert_eq!(g.table(def.name), *t, "{}", def.name);
            let want = match def.name {
                "inventory" => g.row_count("inventory"),
                name => g.schema().rows(name, 0.01),
            };
            assert_eq!(g.count(*t), want, "{}", def.name);
        }
        assert_eq!(Table::ALL.len(), g.schema().tables().len());
    }

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
        // date_dim fills a segment and a short one.
        for table in ["item", "date_dim"] {
            let serial = g.generate(table);
            for threads in [1, 4] {
                assert_eq!(serial, g.generate_parallel(table, threads), "{table}");
            }
        }
    }

    #[test]
    fn columnar_generation_matches_row_generation() {
        let g = Generator::new(0.01);
        for table in ["date_dim", "store_sales"] {
            let rows = g.generate(table);
            let segments: Vec<_> = (0..g.segments(table))
                .map(|k| g.generate_segment(table, k))
                .collect();
            let sizes: Vec<usize> = segments.iter().map(|s| s.rows).collect();
            let full = rows.len() / tpcds_storage::SEGMENT_ROWS;
            assert!(sizes[..full]
                .iter()
                .all(|&n| n == tpcds_storage::SEGMENT_ROWS));
            assert_eq!(sizes.iter().sum::<usize>(), rows.len(), "{table} row count");
            let got = segments.iter().flat_map(|s| (0..s.rows).map(|i| s.row(i)));
            assert!(got.eq(rows), "{table} rows differ");
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
