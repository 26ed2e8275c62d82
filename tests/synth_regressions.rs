//! The synthesized-workload regression corpus.
//!
//! Every query here is a minimized reproducer shape the shrinker
//! produces from the adversarial generators — all-NULL join keys,
//! modulo-collapsed skew joins, provably-empty predicates, segment-
//! boundary LIMITs, NULL-bearing set operations and window tails. Each
//! one replays on the row path (the oracle) and the columnar path at
//! 1/2/8 workers, forever: a mismatch that is found once must never
//! come back.
//!
//! Policy: when `tpcds-bench synth` or the soak harness finds and fixes
//! a real mismatch, its minimized SQL is appended to `CORPUS` below.

use std::sync::Arc;

use tpcds_repro::synth::diff::run_differential;
use tpcds_repro::{Database, Generator};

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
    tpcds_repro::maint::load_initial_population(&db, &generator).expect("load");
    db.build_columnar_shadows();
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
