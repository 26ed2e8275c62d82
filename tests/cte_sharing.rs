//! A CTE referenced k times executes its body once and every reference
//! shares the cached batch. This is the only test of its binary: memory
//! watermarks share one process-wide peak register, so a concurrently
//! running test would disturb the `mem_peak=` readings compared here.

use tpcds_core::TpcDs;

// `mem_peak=` reads 0 unless the binary counts allocations.
#[global_allocator]
static ALLOC: tpcds_core::obs::mem::CountingAlloc = tpcds_core::obs::mem::CountingAlloc;

/// One EXPLAIN ANALYZE line's `mem_peak=` in bytes (0 when the node's
/// live memory never grew and the annotation is omitted).
fn mem_peak(line: &str) -> f64 {
    let Some(field) = line.split("mem_peak=").nth(1) else {
        return 0.0;
    };
    let field = field.trim_end_matches(')');
    let digits = field.trim_end_matches(|c: char| c.is_ascii_alphabetic());
    let unit = match &field[digits.len()..] {
        "B" => 1.0,
        "KiB" => 1024.0,
        "MiB" => 1024.0 * 1024.0,
        other => panic!("unexpected unit {other:?} in {line}"),
    };
    digits.parse::<f64>().expect("mem_peak value") * unit
}

/// A CTE's body runs once per statement however often it is referenced,
/// and every reference shares the one cached batch: a cache hit allocates
/// next to nothing (it used to deep-copy the body's rows, as did the
/// miss), so the statement's peak memory does not grow with the
/// reference count.
#[test]
fn cte_body_runs_once_and_references_share_its_batch() {
    let t = TpcDs::builder().scale_factor(0.005).build().expect("load");
    let sql = |refs: usize| {
        let branches: Vec<String> = (0..refs)
            .map(|i| format!("select count(*) from c where p > {i}"))
            .collect();
        format!(
            "with c as (select ss_item_sk k, ss_ext_sales_price * 2 p from store_sales) {}",
            branches.join(" union all ")
        )
    };
    // (root peak, first CteRef = the miss, largest later CteRef = a hit).
    let peaks = |refs: usize| {
        let plan = t.explain_analyze(&sql(refs)).expect("analyze").plan_text;
        let cte: Vec<f64> = plan
            .lines()
            .filter(|l| l.trim_start().starts_with("CteRef"))
            .map(mem_peak)
            .collect();
        let hits = cte[1..].iter().copied().fold(0.0, f64::max);
        [mem_peak(plan.lines().next().expect("root")), cte[0], hits]
    };

    let twice = t.explain_analyze(&sql(2)).expect("analyze");
    assert_eq!(twice.result.rows.len(), 2);
    let refs: Vec<_> = twice
        .nodes
        .iter()
        .filter(|n| n.op.starts_with("CteRef"))
        .collect();
    assert_eq!(refs.len(), 2, "{}", twice.plan_text);
    assert!(refs
        .iter()
        .all(|n| n.executed && n.calls == 1 && n.rows == refs[0].rows));
    // The body is reported under each reference, but only one copy of
    // it ever ran, once: the second reference was served from the cache.
    for op in ["Scan store_sales", "Project [2 cols]"] {
        let calls: Vec<u64> = twice
            .nodes
            .iter()
            .filter(|n| n.op.starts_with(op))
            .map(|n| n.calls)
            .collect();
        assert_eq!(calls.iter().sum::<u64>(), 1, "{op} ran {calls:?} times");
        assert_eq!(calls.len(), 2, "{op} is reported under both references");
    }

    let ([one, ..], [four, miss, hit]) = (peaks(1), peaks(4));
    assert!(miss > 0.0, "counting allocator not installed?");
    assert!(
        hit < miss * 0.05,
        "a cache hit allocated {hit} B; materializing the body took {miss} B"
    );
    assert!(
        four < one * 1.5,
        "mem_peak grew with the reference count: {one} B for 1 reference, {four} B for 4"
    );
}
