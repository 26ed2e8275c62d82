//! Retail analytics: the business questions the paper's intro motivates,
//! asked through the public API — an ad-hoc store query, a reporting
//! catalog query with a window function, and a cross-channel comparison,
//! with EXPLAIN output showing how the optimizer treats the snowstorm
//! schema.
//!
//! ```sh
//! cargo run --release --example retail_analytics
//! ```

use tpcds_core::TpcDs;

fn main() {
    let tpcds = TpcDs::builder()
        .scale_factor(0.02)
        .reporting_aux(true)
        .build()
        .expect("generate + load");

    // 1. Ad-hoc: holiday-season brand revenue (query 52 family).
    let q52 = tpcds.benchmark_sql(52, 1).expect("template");
    println!("=== Ad-hoc (store channel): brand revenue ===");
    let r = tpcds.query(&q52).expect("q52");
    println!("{}", r.to_table(5));

    // 2. Reporting: revenue share within the item class (query 20 —
    //    the paper's Figure 7, with the SQL-99 window function).
    let q20 = tpcds.benchmark_sql(20, 1).expect("template");
    println!("=== Reporting (catalog channel): class revenue ratio ===");
    let r = tpcds.query(&q20).expect("q20");
    println!("{}", r.to_table(5));
    println!("Plan:\n{}", tpcds.explain(&q20).expect("explain"));

    // 3. Cross-channel: store vs web revenue by category, exploiting the
    //    shared item dimension (the "joins on mutual dimensions" of §2.2).
    let cross = "
        select i_category,
               sum(case when channel = 's' then rev else 0 end) store_rev,
               sum(case when channel = 'w' then rev else 0 end) web_rev
        from (select 's' channel, i_category, ss_ext_sales_price rev
              from store_sales, item where ss_item_sk = i_item_sk
              union all
              select 'w' channel, i_category, ws_ext_sales_price rev
              from web_sales, item where ws_item_sk = i_item_sk) x
        group by i_category
        order by i_category";
    println!("=== Cross-channel: store vs web revenue by category ===");
    let r = tpcds.query(cross).expect("cross-channel");
    println!("{}", r.to_table(12));

    // 4. The fact-to-fact join of §2.2: sales joined to their returns.
    let returns = "
        select count(*) returned_line_items,
               sum(sr_return_amt) total_returned
        from store_sales, store_returns
        where ss_item_sk = sr_item_sk and ss_ticket_number = sr_ticket_number";
    println!("=== Fact-to-fact join: sales with their returns ===");
    let r = tpcds.query(returns).expect("fact-to-fact");
    println!("{}", r.to_table(3));
}
