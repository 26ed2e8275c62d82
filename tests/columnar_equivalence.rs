//! Columnar-path equivalence on generated TPC-DS data: the parallel
//! morsel kernels must return byte-identical results at any worker count,
//! and canonically equal results to the row-path oracle.

use tpcds_core::engine::{ColumnarMode, ExecOptions};
use tpcds_core::types::Row;
use tpcds_core::{Database, Generator};

fn opts(mode: ColumnarMode, threads: usize) -> ExecOptions {
    ExecOptions {
        columnar: mode,
        threads: Some(threads),
    }
}

fn canon(rows: &[Row]) -> Vec<Row> {
    let mut v = rows.to_vec();
    v.sort_by(|a, b| {
        a.iter()
            .zip(b.iter())
            .map(|(x, y)| x.sort_cmp(y))
            .find(|o| o.is_ne())
            .unwrap_or(std::cmp::Ordering::Equal)
    });
    v
}

/// Queries served end-to-end by the columnar kernels (filtered scans keep
/// table order; fused aggregates sort by group key), so their answers are
/// byte-identical at any worker count.
const QUERIES: &[&str] = &[
    "select ss_item_sk, ss_ticket_number from store_sales where ss_quantity > 90",
    "select count(*), sum(ss_ext_sales_price), avg(ss_net_profit) from store_sales",
    "select ss_store_sk, count(*), sum(ss_net_paid), min(ss_sold_date_sk), \
            max(ss_quantity) from store_sales group by ss_store_sk",
    "select i_category, count(*) from item where i_current_price between 1 and 50 \
     group by i_category",
    "select c_birth_year, count(c_email_address) from customer \
     where c_preferred_cust_flag = 'Y' group by c_birth_year",
];

/// An aggregate over a join. On the batch executor this fuses into the partitioned
/// columnar join (see `tests/differential_joins.rs` for the full join
/// harness); against the row path — whose hash-aggregate output order is
/// not deterministic — it is compared canonically, not byte-for-byte.
const JOIN_QUERY: &str = "select d_year, sum(ss_ext_sales_price) from store_sales, date_dim \
     where ss_sold_date_sk = d_date_sk and ss_quantity < 10 group by d_year";

#[test]
fn columnar_results_byte_identical_across_worker_counts() {
    let g = Generator::new(0.01); // fixed default dsdgen seed
    let db = Database::new();
    tpcds_core::maint::load_initial_population(&db, &g).unwrap();

    for sql in QUERIES {
        let reference =
            tpcds_core::engine::query_with(&db, sql, opts(ColumnarMode::Auto, 1)).unwrap();
        for threads in [2, 8] {
            let r = tpcds_core::engine::query_with(&db, sql, opts(ColumnarMode::Auto, threads))
                .unwrap();
            assert_eq!(
                r.rows, reference.rows,
                "worker count {threads} changed the answer bytes for: {sql}"
            );
        }
        // And the row path agrees as a multiset.
        let row = tpcds_core::engine::query_with(&db, sql, opts(ColumnarMode::Off, 1)).unwrap();
        assert_eq!(
            canon(&row.rows),
            canon(&reference.rows),
            "columnar diverges from row oracle for: {sql}"
        );
    }

    // Row-path operators above a columnar scan still agree canonically.
    for threads in [1, 2, 8] {
        let col =
            tpcds_core::engine::query_with(&db, JOIN_QUERY, opts(ColumnarMode::Auto, threads))
                .unwrap();
        let row =
            tpcds_core::engine::query_with(&db, JOIN_QUERY, opts(ColumnarMode::Off, 1)).unwrap();
        assert_eq!(
            canon(&col.rows),
            canon(&row.rows),
            "join query diverges at {threads} workers"
        );
    }
}
