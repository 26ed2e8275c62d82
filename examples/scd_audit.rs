//! Slowly-changing-dimension audit: show the revision chains of the item
//! dimension (paper §3.3.2 — "up to 3 revisions of any dimension entry"),
//! run a history-keeping maintenance pass (Figure 9), and show the chains
//! afterwards.
//!
//! ```sh
//! cargo run --release --example scd_audit
//! ```

use tpcds_core::TpcDs;

fn main() {
    let tpcds = TpcDs::builder().scale_factor(0.01).build().expect("load");

    let audit = "
        select cnt revisions, count(*) business_keys
        from (select i_item_id, count(*) cnt from item group by i_item_id) x
        group by cnt order by cnt";
    println!("=== Revision-chain census before maintenance ===");
    println!("{}", tpcds.query(audit).expect("audit").to_table(5));

    let open = "
        select count(*) open_revisions from item where i_rec_end_date is null";
    println!("Open revisions: {}", tpcds.query(open).unwrap().rows[0][0]);

    println!("\nApplying data maintenance (Figures 8-10)...");
    let report = tpcds.run_maintenance(0).expect("maintenance");
    for op in &report.ops {
        if op.updated + op.inserted + op.deleted > 0 {
            println!(
                "  {:<24} updated {:>5}  inserted {:>5}  deleted {:>5}",
                op.name, op.updated, op.inserted, op.deleted
            );
        }
    }

    println!("\n=== Revision-chain census after maintenance ===");
    println!("{}", tpcds.query(audit).expect("audit").to_table(6));

    // A versioned entity: pick one item with more than one revision and
    // show its full history.
    let sample = tpcds
        .query(
            "select i_item_id from item
             group by i_item_id having count(*) >= 3 order by i_item_id limit 1",
        )
        .expect("sample");
    if let Some(row) = sample.rows.first() {
        let id = row[0].to_flat();
        let history = tpcds
            .query(&format!(
                "select i_item_sk, i_rec_start_date, i_rec_end_date, i_current_price
                 from item where i_item_id = '{id}' order by i_rec_start_date"
            ))
            .expect("history");
        println!("History of item {id}:");
        println!("{}", history.to_table(6));
    }
}
