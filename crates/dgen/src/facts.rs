//! Fact-table row synthesis: the sales, returns and inventory tables.
//!
//! Sales rows are grouped into tickets/orders whose sizes cycle through a
//! fixed pattern averaging 10.5 items (the paper's "on average each
//! shopping cart contains 10.5 items"), giving an O(1) arithmetic mapping
//! from row index to (ticket, line number). Returns rows re-derive the
//! sold row they return in O(1) and copy its keys — the fact-to-fact
//! relationship of paper §2.2.

use crate::generator::{Generator, Table};
use crate::rowbuf::{Cell, RowBuf};
use tpcds_types::{ColumnRng, Date};

/// Ticket-size pattern: sums to 105 over 10 tickets, i.e. an average cart
/// of 10.5 items.
pub const TICKET_PATTERN: [u64; 10] = [8, 13, 10, 11, 9, 12, 10, 11, 10, 11];
const TICKET_BLOCK: u64 = 105;

/// Prefix sums of [`TICKET_PATTERN`].
const fn prefix() -> [u64; 11] {
    let mut p = [0u64; 11];
    let mut i = 0;
    while i < 10 {
        p[i + 1] = p[i] + TICKET_PATTERN[i];
        i += 1;
    }
    p
}
const PREFIX: [u64; 11] = prefix();

/// Maps a fact-row index to `(ticket id, line number, items in ticket)`.
pub fn ticket_of_row(row: u64) -> (u64, u64, u64) {
    let block = row / TICKET_BLOCK;
    let off = row % TICKET_BLOCK;
    let mut pos = 0;
    while PREFIX[pos + 1] <= off {
        pos += 1;
    }
    (
        block * 10 + pos as u64,
        off - PREFIX[pos],
        TICKET_PATTERN[pos],
    )
}

/// The per-row money columns shared by all sales channels, in cents.
struct Pricing {
    quantity: i64,
    wholesale: i64,
    list: i64,
    sales: i64,
    ext_discount: i64,
    ext_sales: i64,
    ext_wholesale: i64,
    ext_list: i64,
    ext_tax: i64,
    coupon: i64,
    net_paid: i64,
    net_paid_inc_tax: i64,
    net_profit: i64,
}

fn pricing(rng: &mut ColumnRng) -> Pricing {
    let quantity = rng.uniform_i64(1, 100);
    let wholesale = rng.uniform_i64(100, 10_000);
    let markup = rng.uniform_i64(100, 300);
    let list = wholesale * (100 + markup) / 100;
    let discount = rng.uniform_i64(0, 70);
    let sales = list * (100 - discount) / 100;
    let ext_discount = (list - sales) * quantity;
    let ext_sales = sales * quantity;
    let ext_wholesale = wholesale * quantity;
    let ext_list = list * quantity;
    let tax_rate = rng.uniform_i64(0, 9);
    let ext_tax = ext_sales * tax_rate / 100;
    let coupon = if rng.chance(0.1) {
        rng.uniform_i64(0, ext_sales.max(1) / 2)
    } else {
        0
    };
    let net_paid = ext_sales - coupon;
    Pricing {
        quantity,
        wholesale,
        list,
        sales,
        ext_discount,
        ext_sales,
        ext_wholesale,
        ext_list,
        ext_tax,
        coupon,
        net_paid,
        net_paid_inc_tax: net_paid + ext_tax,
        net_profit: net_paid - ext_wholesale,
    }
}

impl Pricing {
    /// Appends the money columns every channel's sales row holds, from
    /// the wholesale cost through the coupon.
    fn cells(&self, out: &mut RowBuf) {
        out.cents(self.wholesale);
        out.cents(self.list);
        out.cents(self.sales);
        out.cents(self.ext_discount);
        out.cents(self.ext_sales);
        out.cents(self.ext_wholesale);
        out.cents(self.ext_list);
        out.cents(self.ext_tax);
        out.cents(self.coupon);
    }
}

/// `x`, or NULL when `null` holds.
fn int_or_null(null: bool, x: i64) -> Cell {
    if null {
        Cell::Null
    } else {
        Cell::Int(x)
    }
}

/// The refund amounts of one return, in cents, split across cash,
/// reversed charge and store credit.
struct Refund {
    amt: i64,
    tax: i64,
    fee: i64,
    ship: i64,
    cash: i64,
    charge: i64,
    credit: i64,
}

impl Refund {
    /// Draws the refund of `qty` items sold at `sales_price` cents each.
    fn draw(rng: &mut ColumnRng, qty: i64, sales_price: i64) -> Refund {
        let amt = sales_price * qty;
        let tax = amt * rng.uniform_i64(0, 9) / 100;
        let fee = rng.uniform_i64(50, 10_000);
        let ship = rng.uniform_i64(0, amt.max(1) / 2);
        let cash_share = rng.uniform_i64(0, 100);
        let charge_share = rng.uniform_i64(0, 100 - cash_share);
        let cash = amt * cash_share / 100;
        let charge = amt * charge_share / 100;
        Refund {
            amt,
            tax,
            fee,
            ship,
            cash,
            charge,
            credit: amt - cash - charge,
        }
    }

    /// Appends the amount columns every returns row ends with.
    fn cells(&self, out: &mut RowBuf) {
        let Refund {
            amt,
            tax,
            fee,
            ship,
            cash,
            charge,
            credit,
        } = *self;
        for cents in [amt, tax, amt + tax, fee, ship, cash, charge, credit] {
            out.cents(cents);
        }
        out.cents(amt + tax + fee + ship - cash);
    }
}

impl Generator {
    /// Picks an item surrogate key for `line` of a ticket such that lines
    /// of one ticket never collide (the (item_sk, ticket) PK).
    fn ticket_item(&self, rng: &mut ColumnRng, line: u64) -> i64 {
        let n = self.count(Table::Item) as i64;
        let base = rng.uniform_i64(0, n - 1);
        let step = rng.uniform_i64(1, (n / 16).max(1));
        (base + line as i64 * step) % n + 1
    }

    /// The sale return `r` of `returns` copies, written into `out`: returns
    /// spread evenly over the sold rows. Returns its cells, and leaves
    /// `out` empty.
    fn returned_sale<const W: usize>(
        &self,
        (sales, returns): (Table, Table),
        r: u64,
        out: &mut RowBuf,
    ) -> [Cell; W] {
        let (sold, returned) = (self.count(sales), self.count(returns));
        let sale_row = (r as u128 * sold as u128 / returned.max(1) as u128) as u64;
        Self::row_fn(sales)(self, sale_row, out);
        let sale = out.cells().try_into().expect("a sales row");
        out.clear();
        sale
    }

    pub(crate) fn store_sales_row(&self, r: u64, out: &mut RowBuf) {
        let (ticket, line, _) = ticket_of_row(r);
        // Per-ticket draws: every line of the ticket shares these.
        let mut trng = self.rng(Table::StoreSales, 1, ticket);
        let sold_date = self.sales_dates.sample(&mut trng);
        let sold_time = trng.uniform_i64(8 * 3600, 21 * 3600); // store hours
        let customer = self.fk(&mut trng, Table::Customer);
        let cdemo = self.fk(&mut trng, Table::CustomerDemographics);
        let hdemo = self.fk(&mut trng, Table::HouseholdDemographics);
        let addr = self.fk(&mut trng, Table::CustomerAddress);
        let store = self.fk(&mut trng, Table::Store);
        let null_date = trng.chance(0.02);
        let null_cust = trng.chance(0.035);
        // Per-line draws.
        let mut rng = self.rng(Table::StoreSales, 2, r);
        let item = self.ticket_item(&mut trng, line);
        let promo = self.fk(&mut rng, Table::Promotion);
        let p = pricing(&mut rng);
        let null_promo = rng.chance(0.035);
        out.push(int_or_null(null_date, sold_date.date_sk()));
        out.push(int_or_null(null_date, sold_time));
        out.int(item);
        for key in [customer, cdemo, hdemo, addr] {
            out.push(int_or_null(null_cust, key));
        }
        out.int(store);
        out.push(int_or_null(null_promo, promo));
        out.int(ticket as i64 + 1);
        out.int(p.quantity);
        p.cells(out);
        out.cents(p.net_paid);
        out.cents(p.net_paid_inc_tax);
        out.cents(p.net_profit);
    }

    pub(crate) fn store_returns_row(&self, r: u64, out: &mut RowBuf) {
        let sale: [Cell; 23] = self.returned_sale((Table::StoreSales, Table::StoreReturns), r, out);
        let mut rng = self.rng(Table::StoreReturns, 1, r);
        let sold_date = sale[0]
            .as_int()
            .map(Date::from_date_sk)
            .unwrap_or_else(|| self.sales_dates.first_day());
        let returned = sold_date.add_days(rng.uniform_i64(1, 90) as i32);
        let ret_time = rng.uniform_i64(8 * 3600, 21 * 3600);
        let sold_qty = sale[10].as_int().unwrap_or(1);
        let qty = rng.uniform_i64(1, sold_qty);
        let refund = Refund::draw(&mut rng, qty, sale[13].mantissa().unwrap_or(0));
        out.int(returned.date_sk());
        out.int(ret_time);
        out.extend(sale[2..8].iter().copied());
        out.int(self.fk(&mut rng, Table::Reason));
        out.push(sale[9]);
        out.int(qty);
        refund.cells(out);
    }

    pub(crate) fn catalog_sales_row(&self, r: u64, out: &mut RowBuf) {
        let (order, line, _) = ticket_of_row(r);
        let mut orng = self.rng(Table::CatalogSales, 1, order);
        let sold_date = self.sales_dates.sample(&mut orng);
        let sold_time = orng.uniform_i64(0, 86_399);
        let ship_date = sold_date.add_days(orng.uniform_i64(2, 60) as i32);
        // 85% of orders ship to the billing customer.
        let (bill, ship) = self.bill_and_ship(&mut orng, 0.85);
        let call_center = self.fk(&mut orng, Table::CallCenter);
        let catalog_page = self.fk(&mut orng, Table::CatalogPage);
        let ship_mode = self.fk(&mut orng, Table::ShipMode);
        let warehouse = self.fk(&mut orng, Table::Warehouse);
        let null_date = orng.chance(0.02);
        let null_cust = orng.chance(0.02);
        let item = self.ticket_item(&mut orng, line);

        let mut rng = self.rng(Table::CatalogSales, 2, r);
        let promo = self.fk(&mut rng, Table::Promotion);
        let p = pricing(&mut rng);
        let ship_cost = rng.uniform_i64(0, p.ext_sales.max(1) / 4);
        out.push(int_or_null(null_date, sold_date.date_sk()));
        out.push(int_or_null(null_date, sold_time));
        out.int(ship_date.date_sk());
        out.extend(bill.map(|key| int_or_null(null_cust, key)));
        out.extend(ship.map(Cell::Int));
        for key in [call_center, catalog_page, ship_mode, warehouse, item, promo] {
            out.int(key);
        }
        out.int(order as i64 + 1);
        out.int(p.quantity);
        p.cells(out);
        Self::shipped_cells(&p, ship_cost, out);
    }

    /// Draws an order's bill-to customer, demographics and address, then
    /// its ship-to ones: the same with probability `same`, else drawn
    /// anew.
    fn bill_and_ship(&self, rng: &mut ColumnRng, same: f64) -> ([i64; 4], [i64; 4]) {
        const PARTY: [Table; 4] = [
            Table::Customer,
            Table::CustomerDemographics,
            Table::HouseholdDemographics,
            Table::CustomerAddress,
        ];
        let bill = PARTY.map(|table| self.fk(rng, table));
        let same = rng.chance(same);
        let mut ship = bill;
        if !same {
            for (key, table) in ship.iter_mut().zip(PARTY) {
                *key = self.fk(rng, table);
            }
        }
        (bill, ship)
    }

    /// Appends the columns a shipped order's row ends with: ship cost and
    /// the net amounts with and without it.
    fn shipped_cells(p: &Pricing, ship_cost: i64, out: &mut RowBuf) {
        out.cents(ship_cost);
        out.cents(p.net_paid);
        out.cents(p.net_paid_inc_tax);
        out.cents(p.net_paid + ship_cost);
        out.cents(p.net_paid_inc_tax + ship_cost);
        out.cents(p.net_profit);
    }

    pub(crate) fn catalog_returns_row(&self, r: u64, out: &mut RowBuf) {
        let sale: [Cell; 34] =
            self.returned_sale((Table::CatalogSales, Table::CatalogReturns), r, out);
        let mut rng = self.rng(Table::CatalogReturns, 1, r);
        let sold_date = sale[0]
            .as_int()
            .map(Date::from_date_sk)
            .unwrap_or_else(|| self.sales_dates.first_day());
        let returned = sold_date.add_days(rng.uniform_i64(5, 120) as i32);
        let sold_qty = sale[18].as_int().unwrap_or(1);
        let qty = rng.uniform_i64(1, sold_qty);
        let refund = Refund::draw(&mut rng, qty, sale[21].mantissa().unwrap_or(0));
        out.int(returned.date_sk());
        out.int(rng.uniform_i64(0, 86_399));
        out.push(sale[15]);
        out.extend(sale[3..15].iter().copied());
        out.int(self.fk(&mut rng, Table::Reason));
        out.push(sale[17]);
        out.int(qty);
        refund.cells(out);
    }

    pub(crate) fn web_sales_row(&self, r: u64, out: &mut RowBuf) {
        let (order, line, _) = ticket_of_row(r);
        let mut orng = self.rng(Table::WebSales, 1, order);
        let sold_date = self.sales_dates.sample(&mut orng);
        let sold_time = orng.uniform_i64(0, 86_399);
        let ship_date = sold_date.add_days(orng.uniform_i64(1, 30) as i32);
        let (bill, ship) = self.bill_and_ship(&mut orng, 0.8);
        let web_page = self.fk(&mut orng, Table::WebPage);
        let web_site = self.fk(&mut orng, Table::WebSite);
        let ship_mode = self.fk(&mut orng, Table::ShipMode);
        let warehouse = self.fk(&mut orng, Table::Warehouse);
        let null_date = orng.chance(0.02);
        let item = self.ticket_item(&mut orng, line);

        let mut rng = self.rng(Table::WebSales, 2, r);
        let promo = self.fk(&mut rng, Table::Promotion);
        let p = pricing(&mut rng);
        let ship_cost = rng.uniform_i64(0, p.ext_sales.max(1) / 4);
        out.push(int_or_null(null_date, sold_date.date_sk()));
        out.push(int_or_null(null_date, sold_time));
        out.int(ship_date.date_sk());
        out.int(item);
        out.extend(bill.map(Cell::Int));
        out.extend(ship.map(Cell::Int));
        for key in [web_page, web_site, ship_mode, warehouse, promo] {
            out.int(key);
        }
        out.int(order as i64 + 1);
        out.int(p.quantity);
        p.cells(out);
        Self::shipped_cells(&p, ship_cost, out);
    }

    pub(crate) fn web_returns_row(&self, r: u64, out: &mut RowBuf) {
        let sale: [Cell; 34] = self.returned_sale((Table::WebSales, Table::WebReturns), r, out);
        let mut rng = self.rng(Table::WebReturns, 1, r);
        let sold_date = sale[0]
            .as_int()
            .map(Date::from_date_sk)
            .unwrap_or_else(|| self.sales_dates.first_day());
        let returned = sold_date.add_days(rng.uniform_i64(3, 100) as i32);
        let sold_qty = sale[18].as_int().unwrap_or(1);
        let qty = rng.uniform_i64(1, sold_qty);
        let refund = Refund::draw(&mut rng, qty, sale[21].mantissa().unwrap_or(0));
        out.int(returned.date_sk());
        out.int(rng.uniform_i64(0, 86_399));
        out.extend(sale[3..13].iter().copied());
        out.int(self.fk(&mut rng, Table::Reason));
        out.push(sale[17]);
        out.int(qty);
        refund.cells(out);
    }

    pub(crate) fn inventory_row(&self, r: u64, out: &mut RowBuf) {
        let (_weeks, warehouses, per_cell) = self.inventory_layout();
        let week = r / (warehouses * per_cell);
        let rem = r % (warehouses * per_cell);
        let warehouse = rem / per_cell;
        let slot = rem % per_cell;
        // Snapshot date: consecutive Mondays from the window start.
        let first_monday = self.sales_dates.first_day().add_days(4); // 1998-01-05
        let date = first_monday.add_days(week as i32 * 7);
        // Deterministic stride over items so each cell samples a stable,
        // collision-free subset.
        let items = self.count(Table::Item);
        let item = (slot * (items / per_cell).max(1)) % items + 1;
        let mut rng = self.rng(Table::Inventory, 1, r);
        out.int(date.date_sk());
        out.int(item as i64);
        out.int(warehouse as i64 + 1);
        match rng.chance(0.05) {
            true => out.null(),
            false => out.int(rng.uniform_i64(0, 1000)),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;

    #[test]
    fn ticket_pattern_averages_ten_and_a_half() {
        let total: u64 = TICKET_PATTERN.iter().sum();
        assert_eq!(total, 105);
        assert_eq!(TICKET_PATTERN.len(), 10);
    }

    #[test]
    fn ticket_mapping_is_consistent() {
        // Walking rows sequentially must walk tickets sequentially with the
        // right sizes.
        let mut expect_ticket = 0;
        let mut expect_line = 0;
        for r in 0..2 * TICKET_BLOCK {
            let (t, l, n) = ticket_of_row(r);
            assert_eq!((t, l), (expect_ticket, expect_line), "row {r}");
            expect_line += 1;
            if expect_line == n {
                expect_line = 0;
                expect_ticket += 1;
            }
        }
    }

    #[test]
    fn store_sales_pk_unique() {
        let g = Generator::new(0.01);
        let rows = g.generate("store_sales");
        let mut seen = HashSet::new();
        for row in &rows {
            let key = (row[2].as_int().unwrap(), row[9].as_int().unwrap());
            assert!(seen.insert(key), "duplicate (item, ticket) {key:?}");
        }
    }

    #[test]
    fn lines_of_a_ticket_share_customer_and_date() {
        let g = Generator::new(0.01);
        let rows = g.generate_range("store_sales", 0, 105);
        for w in rows.windows(2) {
            let same_ticket = w[0][9] == w[1][9];
            if same_ticket {
                assert_eq!(w[0][3], w[1][3], "customer differs within ticket");
                assert_eq!(w[0][0], w[1][0], "date differs within ticket");
                assert_eq!(w[0][7], w[1][7], "store differs within ticket");
            }
        }
    }

    #[test]
    fn pricing_identities_hold() {
        let g = Generator::new(0.01);
        for row in g.generate_range("store_sales", 0, 500) {
            let qty = row[10].as_int().unwrap();
            let sales = row[13].as_decimal().unwrap().mantissa() as i64;
            let ext_sales = row[15].as_decimal().unwrap().mantissa() as i64;
            assert_eq!(ext_sales, sales * qty, "ext_sales = sales * qty");
            let coupon = row[19].as_decimal().unwrap().mantissa() as i64;
            let net_paid = row[20].as_decimal().unwrap().mantissa() as i64;
            assert_eq!(net_paid, ext_sales - coupon);
            let tax = row[18].as_decimal().unwrap().mantissa() as i64;
            let inc_tax = row[21].as_decimal().unwrap().mantissa() as i64;
            assert_eq!(inc_tax, net_paid + tax);
            let ext_wholesale = row[16].as_decimal().unwrap().mantissa() as i64;
            let profit = row[22].as_decimal().unwrap().mantissa() as i64;
            assert_eq!(profit, net_paid - ext_wholesale);
        }
    }

    #[test]
    fn returns_reference_real_sales() {
        let g = Generator::new(0.01);
        let sales = g.generate("store_sales");
        let mut sold: HashSet<(i64, i64)> = HashSet::new();
        for row in &sales {
            sold.insert((row[2].as_int().unwrap(), row[9].as_int().unwrap()));
        }
        let returns = g.generate("store_returns");
        assert!(!returns.is_empty());
        for row in &returns {
            let key = (row[2].as_int().unwrap(), row[9].as_int().unwrap());
            assert!(sold.contains(&key), "return for unsold {key:?}");
        }
    }

    #[test]
    fn return_quantity_bounded_by_sale() {
        let g = Generator::new(0.01);
        let sales = g.generate("store_sales");
        let mut qty: std::collections::HashMap<(i64, i64), i64> = Default::default();
        for row in &sales {
            qty.insert(
                (row[2].as_int().unwrap(), row[9].as_int().unwrap()),
                row[10].as_int().unwrap(),
            );
        }
        for row in g.generate("store_returns") {
            let key = (row[2].as_int().unwrap(), row[9].as_int().unwrap());
            let rq = row[10].as_int().unwrap();
            assert!(
                rq >= 1 && rq <= qty[&key],
                "return qty {rq} > sold {}",
                qty[&key]
            );
        }
    }

    #[test]
    fn returned_after_sold() {
        let g = Generator::new(0.01);
        let sales = g.generate("store_sales");
        let mut sold_date: std::collections::HashMap<(i64, i64), i64> = Default::default();
        for row in &sales {
            if let Some(d) = row[0].as_int() {
                sold_date.insert((row[2].as_int().unwrap(), row[9].as_int().unwrap()), d);
            }
        }
        for row in g.generate("store_returns") {
            let key = (row[2].as_int().unwrap(), row[9].as_int().unwrap());
            if let Some(&sd) = sold_date.get(&key) {
                let rd = row[0].as_int().unwrap();
                assert!(rd > sd, "returned on/before sale date");
            }
        }
    }

    #[test]
    fn inventory_pk_unique_and_weekly() {
        let g = Generator::new(0.01);
        let rows = g.generate("inventory");
        let mut seen = HashSet::new();
        for row in &rows {
            let key: Vec<i64> = row[..3].iter().map(|v| v.as_int().unwrap()).collect();
            assert!(seen.insert(key.clone()), "duplicate inventory key {key:?}");
            // Snapshot dates are Mondays.
            let d = Date::from_date_sk(key[0]);
            assert_eq!(d.day_of_week(), 1, "inventory date {d} not a Monday");
        }
    }

    #[test]
    fn fact_dates_inside_sales_window() {
        let g = Generator::new(0.01);
        let dist = g.sales_dates();
        for t in ["store_sales", "catalog_sales", "web_sales"] {
            for row in g.generate_range(t, 0, 300) {
                if let Some(sk) = row[0].as_int() {
                    let d = Date::from_date_sk(sk);
                    assert!(d >= dist.first_day() && d <= dist.last_day(), "{t}: {d}");
                }
            }
        }
    }

    #[test]
    fn december_heavier_than_february() {
        let g = Generator::new(0.02);
        let mut dec = 0;
        let mut feb = 0;
        for row in g.generate("store_sales") {
            if let Some(sk) = row[0].as_int() {
                match Date::from_date_sk(sk).month() {
                    12 => dec += 1,
                    2 => feb += 1,
                    _ => {}
                }
            }
        }
        assert!(
            dec as f64 > 1.5 * feb as f64,
            "comparability zones missing: dec {dec} vs feb {feb}"
        );
    }
}
