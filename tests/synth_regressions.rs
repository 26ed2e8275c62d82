//! The synthesized-workload regression corpus.
//!
//! Every query here is a minimized reproducer shape the shrinker
//! produces from the adversarial generators — all-NULL join keys,
//! modulo-collapsed skew joins, provably-empty predicates, segment-
//! boundary LIMITs, NULL-bearing set operations and window tails. Each
//! one replays on the row path (the oracle) and the batch executor at
//! 1/2/8 workers, forever: a mismatch that is found once must never
//! come back.
//!
//! Policy: when `tpcds synth` or the soak harness finds and fixes a real
//! mismatch, its minimized SQL is appended to `CORPUS` below.

use std::sync::Arc;

use tpcds_core::synth::diff::run_differential;
use tpcds_core::{Database, Generator};

/// Shapes the shrinker converges to, by adversarial family.
const CORPUS: &[(&str, &str)] = &[
    // --- all-NULL join keys (NULLIF-poisoned probe side) -------------
    (
        "null_key_left_join_counts",
        "select count(*), count(d_date_sk) from store_sales \
         left join date_dim on nullif(ss_sold_date_sk, ss_sold_date_sk) = d_date_sk",
    ),
    (
        "null_key_inner_join_is_empty",
        "select count(*) from store_sales \
         join date_dim on nullif(ss_sold_date_sk, ss_sold_date_sk) = d_date_sk",
    ),
    (
        "null_key_join_under_aggregate",
        "select ss_store_sk, count(*) from store_sales \
         left join store on nullif(ss_store_sk, ss_store_sk) = s_store_sk \
         group by ss_store_sk order by 1",
    ),
    // --- pathological modulo skew ------------------------------------
    (
        "skew_mod_join_small_dim",
        "select count(*), min(ss_store_sk), max(s_store_sk) from store_sales \
         join store on ss_store_sk % 3 = s_store_sk % 3 \
         where ss_quantity <= 5",
    ),
    (
        "skew_mod_join_residue_two",
        "select count(*) from store_sales \
         join promotion on ss_promo_sk % 2 = p_promo_sk % 2 \
         where ss_quantity <= 2",
    ),
    // --- provably empty predicates -----------------------------------
    (
        "empty_pred_through_join_agg",
        "select d_year, count(*) from store_sales \
         join date_dim on ss_sold_date_sk = d_date_sk \
         where ss_quantity > 100000 group by d_year order by 1",
    ),
    (
        "empty_pred_contradiction",
        "select ss_item_sk, ss_ticket_number from store_sales where 1 = 0",
    ),
    // --- LIMIT at 64k segment boundaries -----------------------------
    (
        "limit_just_below_segment",
        "select d_date_sk from date_dim order by 1 limit 65535",
    ),
    (
        "limit_at_segment",
        "select d_date_sk from date_dim order by 1 limit 65536",
    ),
    (
        "limit_just_past_segment",
        "select d_date_sk, d_date from date_dim order by 1 limit 65537",
    ),
    // --- set operations with NULL rows -------------------------------
    (
        "union_dedups_null_rows",
        "select ss_store_sk, ss_promo_sk from store_sales \
         union select ss_store_sk, ss_promo_sk from store_sales",
    ),
    (
        "except_with_null_keys",
        "select ss_store_sk from store_sales \
         except select ss_store_sk from store_sales where ss_quantity <= 10",
    ),
    (
        "intersect_null_rows_survive",
        "select ss_promo_sk from store_sales where ss_quantity <= 50 \
         intersect select ss_promo_sk from store_sales",
    ),
    // --- distinct / grouped-HAVING row-path tails --------------------
    (
        "distinct_nullable_key",
        "select distinct ss_store_sk from store_sales",
    ),
    (
        "having_tail_over_join",
        "select ss_store_sk, count(*) from store_sales group by ss_store_sk \
         having count(*) > 10 order by 1",
    ),
    (
        "anti_join_via_left_null_filter",
        "select count(*) from store_sales \
         left join promotion on ss_promo_sk = p_promo_sk \
         where p_promo_sk is null",
    ),
    // --- compiled expression kernels (PR 10 minimized shapes) --------
    (
        "expr_pred_arithmetic_on_nullable_key",
        "select ss_item_sk, ss_ticket_number from store_sales \
         where ss_quantity + 1 = 3 and ss_store_sk * 2 > ss_promo_sk",
    ),
    (
        "expr_divide_by_zero_column_is_null",
        "select ss_item_sk, ss_quantity / (ss_quantity - ss_quantity) \
         from store_sales where ss_quantity <= 3",
    ),
    (
        "expr_case_projection_over_segment_boundary",
        "select d_date_sk, case when d_date_sk % 2 = 0 then d_year else -d_year end \
         from date_dim order by 1 limit 65537",
    ),
    (
        "expr_sort_key_shifts_null_ordering",
        "select ss_store_sk, ss_item_sk, ss_ticket_number from store_sales \
         where ss_quantity <= 2 order by coalesce(ss_promo_sk, 0) desc, 2, 3",
    ),
    (
        "residual_join_cross_side_arithmetic",
        "select count(*) from store_sales \
         join store on ss_store_sk = s_store_sk and ss_quantity + s_store_sk > 5",
    ),
    (
        "expr_having_tail_on_computed_group",
        "select ss_store_sk, sum(ss_quantity) from store_sales group by ss_store_sk \
         having sum(ss_quantity) * 2 > 100 order by 1",
    ),
    // --- stacked filters: a row the inner one rejects never reaches --
    // --- the outer one, so its overflow there must not fire (PR 17) ---
    (
        "stacked_filter_false_hides_outer_error",
        "select ss_item_sk, ss_ticket_number from (select ss_item_sk, ss_ticket_number, \
         ss_quantity from store_sales where ss_quantity <= 50) s \
         where ss_quantity + 9223372036854775757 > 0",
    ),
    (
        "stacked_filter_null_hides_outer_error",
        "select ss_item_sk, ss_ticket_number from (select ss_item_sk, ss_ticket_number, \
         ss_promo_sk from store_sales where ss_promo_sk > 0) s \
         where coalesce(ss_promo_sk, 9223372036854775807) + 1 > 0",
    ),
    (
        "stacked_filter_inner_is_an_expression",
        "select ss_item_sk, ss_ticket_number from (select ss_item_sk, ss_ticket_number, \
         ss_quantity from store_sales where ss_quantity + 0 <= 50) s \
         where ss_quantity + 9223372036854775757 > 0",
    ),
    (
        "stacked_filter_under_aggregate",
        "select count(*), sum(ss_quantity) from (select ss_quantity from store_sales \
         where ss_quantity <= 50) s where ss_quantity + 9223372036854775757 > 0",
    ),
    (
        "stacked_filter_on_a_join_side",
        "select count(*), min(i_item_sk) from (select ss_item_sk, ss_quantity from store_sales \
         where ss_quantity <= 50) s, item \
         where ss_quantity + 9223372036854775757 > 0 and ss_item_sk = i_item_sk",
    ),
    (
        "stacked_filter_under_limit",
        "select ss_item_sk, ss_ticket_number from (select ss_item_sk, ss_ticket_number, \
         ss_quantity from store_sales where ss_quantity <= 50) s \
         where ss_quantity + 9223372036854775757 > 0 limit 10",
    ),
    // --- subqueries the batch path evaluates once (PR 18) -------------
    (
        "scalar_subquery_pushed_to_its_scan",
        "select d_date_sk from date_dim where d_week_seq = \
         (select d_week_seq from date_dim where d_date = '2000-01-03') order by 1",
    ),
    (
        "in_subquery_nested_two_deep_beside_a_join",
        "select count(*), min(ss_item_sk) from store_sales, date_dim \
         where ss_sold_date_sk = d_date_sk and d_date in (select d_date from date_dim \
         where d_week_seq = (select d_week_seq from date_dim where d_date = '2000-01-03'))",
    ),
    (
        "select_list_case_over_scalar_subqueries",
        "select r_reason_sk, case when (select count(*) from store_sales \
         where ss_quantity between 1 and 20) > 100 \
         then (select avg(ss_ext_discount_amt) from store_sales where ss_quantity between 1 and 20) \
         else (select avg(ss_net_paid) from store_sales where ss_quantity between 1 and 20) end \
         from reason order by 1",
    ),
    (
        "having_against_a_scalar_subquery",
        "select ss_store_sk, count(*) from store_sales group by ss_store_sk \
         having count(*) > (select count(*) / 20 from store_sales) order by 1",
    ),
    (
        "join_residual_with_a_scalar_subquery",
        "select count(*), count(s_store_sk) from store_sales left join store \
         on ss_store_sk = s_store_sk and s_store_sk > (select min(s_store_sk) from store)",
    ),
    (
        "two_row_scalar_subquery_no_row_reaches",
        "select i_item_sk from item where i_item_sk < 0 \
         and i_item_sk = (select i_item_sk from item)",
    ),
    (
        "in_and_not_in_an_empty_set",
        "select count(*) from item where i_item_sk not in (select i_item_sk from item \
         where i_item_sk < 0) and i_manufact_id in (select i_item_sk from item where i_item_sk < 0)",
    ),
    (
        "not_in_a_set_with_a_null_admits_nothing",
        "select count(*) from item where i_item_sk not in (select case when i_item_sk = 1 \
         then null else i_item_sk end from item where i_item_sk <= 2)",
    ),
    (
        "keyed_exists_under_or",
        "select count(*) from customer c where exists (select ss_sold_date_sk \
         from store_sales, date_dim where c.c_customer_sk = ss_customer_sk \
         and ss_sold_date_sk = d_date_sk and d_year = 2000) \
         or exists (select ws_sold_date_sk from web_sales \
         where c.c_customer_sk = ws_bill_customer_sk)",
    ),
    (
        "not_exists_with_null_outer_keys",
        "select count(*) from store_sales s where not exists \
         (select p_promo_sk from promotion where p_promo_sk = s.ss_promo_sk)",
    ),
    (
        "exists_with_null_inner_keys",
        "select count(*) from promotion p where exists \
         (select ss_item_sk from store_sales where ss_promo_sk = p.p_promo_sk)",
    ),
    (
        "exists_on_two_key_equalities",
        "select count(*) from store_returns r where sr_return_quantity <= 5 and exists \
         (select ss_item_sk from store_sales where ss_item_sk = r.sr_item_sk \
         and ss_ticket_number = r.sr_ticket_number)",
    ),
    (
        "exists_with_a_non_equality_correlation_stays_per_key",
        "select count(*) from web_sales ws1 where ws1.ws_quantity <= 3 and exists \
         (select ws2.ws_order_number from web_sales ws2 \
         where ws1.ws_order_number = ws2.ws_order_number \
         and ws1.ws_warehouse_sk <> ws2.ws_warehouse_sk)",
    ),
    (
        "exists_on_int_against_decimal_keys_is_not_rewritten",
        "select count(*) from item i where exists \
         (select ss_item_sk from store_sales where ss_list_price = i.i_item_sk)",
    ),
    // --- window tails over columnar children -------------------------
    (
        "rank_with_null_partition_keys",
        "select ss_store_sk, ss_item_sk, ss_ticket_number, \
         rank() over (partition by ss_store_sk order by ss_quantity) \
         from store_sales where ss_quantity <= 3",
    ),
    (
        "running_sum_peer_groups",
        "select ss_store_sk, ss_item_sk, ss_ticket_number, \
         sum(ss_quantity) over (partition by ss_store_sk order by ss_sold_date_sk) \
         from store_sales where ss_quantity <= 2",
    ),
];

#[test]
fn regression_corpus_replays_clean_on_both_paths() {
    let db = Arc::new(Database::new());
    let generator = Generator::new(0.005);
    tpcds_core::maint::load_initial_population(&db, &generator).expect("load");
    let snap = db.snapshot();

    let mut failures = Vec::new();
    for (name, sql) in CORPUS {
        if let Err(e) = run_differential(&db, &snap, sql) {
            failures.push(format!("{name}: {e:?}\n  sql: {sql}"));
        }
    }
    assert!(
        failures.is_empty(),
        "corpus regressions:\n{}",
        failures.join("\n")
    );
}
