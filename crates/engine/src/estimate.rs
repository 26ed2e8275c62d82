//! Cardinality estimation: annotates every plan node with an estimated
//! output row count (`est_rows`).
//!
//! Estimates come from per-column [`TableStats`] where available —
//! NDV-based equality selectivity, histogram interpolation for ranges,
//! null fractions for `IS NULL` — and fall back to the classic textbook
//! constants (the same ones the join-order heuristic always used) when a
//! column's statistics can't be resolved, e.g. above a join where output
//! positions no longer map to one base table.
//!
//! The estimates are rendered by EXPLAIN (`est_rows=`) and EXPLAIN
//! ANALYZE (`est=` with a `qerr=` factor against the actual `rows=`); each
//! template's largest q-error is pinned in `tests/golden_answers_sf001.txt`.
//! The map is keyed by node address, exactly like
//! [`crate::exec::StatsMap`], so the two align node-for-node in the
//! rendered plan.

use crate::catalog::Database;
use crate::expr::{BExpr, CmpKind};
use crate::plan::Plan;
use std::collections::HashMap;
use std::sync::Arc;
use tpcds_storage::stats::{hist_key, TableStats};
use tpcds_storage::ColumnStats;
use tpcds_storage::JoinType;
use tpcds_types::Value;

/// Estimated output rows per plan node, keyed by node address (the same
/// key [`crate::exec::StatsMap`] uses).
pub type EstMap = HashMap<usize, f64>;

/// Default equality selectivity when the column's NDV is unknown.
const SEL_EQ: f64 = 0.05;
/// Default range (`<`, `>`, …) selectivity.
const SEL_RANGE: f64 = 0.3;
/// Default BETWEEN selectivity.
const SEL_BETWEEN: f64 = 0.2;
/// Default LIKE selectivity.
const SEL_LIKE: f64 = 0.25;
/// Default IS NULL selectivity.
const SEL_IS_NULL: f64 = 0.1;
/// Per-item IN-list selectivity.
const SEL_IN_ITEM: f64 = 0.03;
/// Selectivity for predicates we can't analyze (subqueries, arithmetic).
const SEL_OTHER: f64 = 0.5;

/// Walks `plan` bottom-up and returns the estimate for every node.
pub fn estimate_plan(plan: &Plan, db: &Database) -> EstMap {
    let mut map = EstMap::new();
    walk(plan, db, &mut map, 1.0);
    map
}

/// The q-error of an estimate against an actual row count: the factor by
/// which the estimate is off, `max(est/actual, actual/est)`, with both
/// sides floored at one row so zero-row operators don't divide by zero.
/// 1.0 is a perfect estimate.
pub fn q_error(est: f64, actual: u64) -> f64 {
    let e = est.max(1.0);
    let a = (actual as f64).max(1.0);
    (e / a).max(a / e)
}

/// The statistics of the base table a plan node scans, when the node's
/// output rows are that table's rows (a bare scan, or a filter directly
/// over one), with the table column behind each output column.
pub(crate) struct Scanned<'p> {
    stats: Arc<TableStats>,
    cols: &'p [usize],
}

impl Scanned<'_> {
    /// The statistics of output column `c`.
    fn column(&self, c: usize) -> Option<&ColumnStats> {
        self.stats.column(self.cols[c])
    }

    /// `e`, read over the scan's output columns, over the table's.
    fn to_table(&self, e: &BExpr) -> BExpr {
        e.remap_columns(&|c| self.cols[c])
    }
}

/// The table `plan` scans, when its output rows are that table's rows.
pub(crate) fn scanned_table<'p>(plan: &'p Plan, db: &Database) -> Option<Scanned<'p>> {
    match plan {
        Plan::Scan { table, cols, .. } => Some(Scanned {
            stats: db.table(table).ok()?.stats(),
            cols,
        }),
        Plan::Filter { input, .. } => scanned_table(input, db),
        _ => None,
    }
}

/// [`predicate_selectivity`] of `e` over `input`'s output columns, with the
/// statistics of the table `input` scans when it scans one.
pub(crate) fn selectivity_over(e: &BExpr, input: &Plan, db: &Database) -> f64 {
    match scanned_table(input, db) {
        Some(s) => predicate_selectivity(&s.to_table(e), Some(&s.stats), db),
        None => predicate_selectivity(e, None, db),
    }
}

/// Estimates `plan` and everything under it, subquery bodies included;
/// `dom` is the estimate of the domain the body being walked reads.
fn walk(plan: &Plan, db: &Database, map: &mut EstMap, dom: f64) -> f64 {
    let est = match plan {
        Plan::Scan { table, filter, .. } => {
            let stats = db.table(table).ok().map(|t| t.stats());
            let rows = stats
                .as_ref()
                .map(|s| s.rows as f64)
                .unwrap_or_else(|| db.row_count(table) as f64);
            let sel = filter
                .as_ref()
                .map(|f| predicate_selectivity(f, stats.as_deref(), db))
                .unwrap_or(1.0);
            rows * sel
        }
        Plan::Filter { input, predicate } => {
            let in_est = walk(input, db, map, dom);
            // Coordinates only line up with base-table stats directly
            // above a scan; elsewhere fall back to the crude constants.
            in_est * selectivity_over(predicate, input, db)
        }
        Plan::Project { input, .. } | Plan::Window { input, .. } | Plan::Sort { input, .. } => {
            walk(input, db, map, dom)
        }
        Plan::HashJoin {
            left,
            right,
            kind,
            left_keys,
            right_keys,
            residual,
        } => {
            let l = walk(left, db, map, dom);
            let r = walk(right, db, map, dom);
            let mut est = equi_join_rows(l, r, left, right, left_keys, right_keys, db);
            if let Some(res) = residual {
                est *= predicate_selectivity(res, None, db);
            }
            if *kind == JoinType::Left {
                est = est.max(l);
            }
            est
        }
        Plan::Aggregate { input, groups, .. } => {
            let in_est = walk(input, db, map, dom);
            if groups.is_empty() {
                1.0
            } else {
                group_count(groups, input, in_est, db)
            }
        }
        Plan::TopN { input, n, .. } | Plan::Limit { input, n } => {
            let in_est = walk(input, db, map, dom);
            in_est.min(*n as f64)
        }
        Plan::UnionAll { left, right } => walk(left, db, map, dom) + walk(right, db, map, dom),
        Plan::CteRef { plan, .. } => walk(plan, db, map, 1.0),
        Plan::Domain { .. } => dom,
    };
    let est = if est.is_finite() { est.max(0.0) } else { 0.0 };
    map.insert(plan as *const Plan as usize, est);
    for b in plan.exprs().into_iter().flat_map(BExpr::subqueries) {
        let dom = domain_rows(plan, b.outer_refs, db, map);
        walk(b.flat, db, map, dom);
        walk(b.plan, db, map, 1.0);
    }
    est
}

/// A subquery's domain estimate: the [`group_count`] of the outer columns
/// `refs` it reads over the input rows of `host`, the node that holds it
/// (a join's output; a scan's filter holds no correlated subquery, since
/// the optimizer leaves those above it).
fn domain_rows(host: &Plan, refs: &[usize], db: &Database, map: &EstMap) -> f64 {
    let input = match host.children()[..] {
        [input] => input,
        _ => host,
    };
    let rows = map.get(&(input as *const Plan as usize)).copied();
    let groups: Vec<BExpr> = refs.iter().map(|&c| BExpr::Col(c)).collect();
    match refs.is_empty() {
        true => 1.0,
        false => group_count(&groups, input, rows.unwrap_or(1.0), db),
    }
}

/// Classic equi-join estimate: `|L| * |R| / max-key-NDV`, per key pair,
/// falling back to the primary-key assumption `max(|L|, |R|)` when no
/// side's key NDV can be resolved from base-table statistics. Without
/// keys, every pair: `|L| * |R|`.
fn equi_join_rows(
    l: f64,
    r: f64,
    left: &Plan,
    right: &Plan,
    left_keys: &[BExpr],
    right_keys: &[BExpr],
    db: &Database,
) -> f64 {
    let ls = scanned_table(left, db);
    let rs = scanned_table(right, db);
    let mut denom = 1.0f64;
    let mut resolved = left_keys.is_empty();
    for (lk, rk) in left_keys.iter().zip(right_keys) {
        let ln = key_ndv(lk, ls.as_ref());
        let rn = key_ndv(rk, rs.as_ref());
        if let Some(n) = match (ln, rn) {
            (Some(a), Some(b)) => Some(a.max(b)),
            (Some(a), None) => Some(a),
            (None, Some(b)) => Some(b),
            (None, None) => None,
        } {
            denom *= n.max(1.0);
            resolved = true;
        }
    }
    if resolved {
        l * r / denom
    } else {
        l.max(r).max(1.0)
    }
}

fn key_ndv(key: &BExpr, scan: Option<&Scanned<'_>>) -> Option<f64> {
    match (key, scan) {
        (BExpr::Col(i), Some(s)) => s.column(*i).map(|c| c.ndv as f64),
        _ => None,
    }
}

/// Estimated number of distinct group keys: product of group-column NDVs
/// when every group expression is a plain column over a scanned table,
/// clamped to the input row estimate; otherwise a 10% heuristic.
fn group_count(groups: &[BExpr], input: &Plan, in_est: f64, db: &Database) -> f64 {
    let cap = in_est.max(1.0);
    let scan = scanned_table(input, db);
    let mut prod = 1.0f64;
    let mut resolved = scan.is_some();
    if let Some(s) = &scan {
        for g in groups {
            match g {
                BExpr::Col(i) => match s.column(*i) {
                    Some(c) => prod *= (c.ndv as f64).max(1.0),
                    None => {
                        resolved = false;
                        break;
                    }
                },
                _ => {
                    resolved = false;
                    break;
                }
            }
        }
    }
    if resolved {
        prod.min(cap)
    } else {
        (in_est * 0.1).clamp(1.0, cap)
    }
}

/// Selectivity of `e` in `0.0..=1.0`. With `stats`, column-vs-literal
/// comparisons use NDV, histogram and null-fraction information; without
/// (or for unanalyzable shapes) the classic constants apply. An
/// uncorrelated subquery is a constant nobody knows yet: `col = (subquery)`
/// selects one of the column's distinct values, `col IN (subquery)` as many
/// of them as the subquery (estimated against `db`) returns rows.
pub fn predicate_selectivity(e: &BExpr, stats: Option<&TableStats>, db: &Database) -> f64 {
    let s = match e {
        BExpr::Lit(Value::Bool(b)) => {
            if *b {
                1.0
            } else {
                0.0
            }
        }
        BExpr::And(a, b) => {
            predicate_selectivity(a, stats, db) * predicate_selectivity(b, stats, db)
        }
        BExpr::Or(a, b) => {
            let x = predicate_selectivity(a, stats, db);
            let y = predicate_selectivity(b, stats, db);
            x + y - x * y
        }
        BExpr::Not(inner) => 1.0 - predicate_selectivity(inner, stats, db),
        BExpr::Cmp(op, a, b) => cmp_selectivity(*op, a, b, stats),
        BExpr::IsNull(inner, negated) => {
            let frac = match (col_of(inner), stats) {
                (Some(i), Some(s)) => s.null_fraction(i),
                _ => SEL_IS_NULL,
            };
            if *negated {
                1.0 - frac
            } else {
                frac
            }
        }
        BExpr::Like(_, _, negated) => {
            if *negated {
                1.0 - SEL_LIKE
            } else {
                SEL_LIKE
            }
        }
        BExpr::InList(inner, items, negated) => {
            let per = match (col_of(inner), stats) {
                (Some(i), Some(s)) => eq_selectivity(i, s),
                _ => SEL_IN_ITEM,
            };
            let sel = (per * items.len() as f64).min(1.0);
            if *negated {
                1.0 - sel
            } else {
                sel
            }
        }
        BExpr::InSubquery(inner, sub, negated) => {
            let sel = match (col_of(inner), stats) {
                (Some(i), Some(s)) if sub.uncorrelated() => {
                    let rows = walk(&sub.plan, db, &mut EstMap::new(), 1.0);
                    (eq_selectivity(i, s) * rows).min(1.0)
                }
                _ => SEL_OTHER,
            };
            if *negated {
                1.0 - sel
            } else {
                sel
            }
        }
        BExpr::Between(inner, lo, hi, negated) => {
            let sel = match (col_of(inner), lit_of(lo), lit_of(hi), stats) {
                (Some(i), Some(lo), Some(hi), Some(s)) => range_between(i, lo, hi, s),
                _ => SEL_BETWEEN,
            };
            if *negated {
                1.0 - sel
            } else {
                sel
            }
        }
        _ => SEL_OTHER,
    };
    s.clamp(0.0, 1.0)
}

fn col_of(e: &BExpr) -> Option<usize> {
    match e {
        BExpr::Col(i) => Some(*i),
        _ => None,
    }
}

fn lit_of(e: &BExpr) -> Option<&Value> {
    match e {
        BExpr::Lit(v) => Some(v),
        _ => None,
    }
}

/// `col = const` selectivity: uniform over the distinct values among the
/// non-NULL fraction of the column.
fn eq_selectivity(col: usize, s: &TableStats) -> f64 {
    match s.column(col) {
        Some(c) if s.rows > 0 => {
            let non_null = 1.0 - s.null_fraction(col);
            if c.ndv == 0 {
                0.0
            } else {
                non_null / c.ndv as f64
            }
        }
        _ => SEL_EQ,
    }
}

fn cmp_selectivity(op: CmpKind, a: &BExpr, b: &BExpr, stats: Option<&TableStats>) -> f64 {
    // Normalize to column-vs-literal; flip the operator when the literal
    // is on the left.
    let (col, lit, op) = match (col_of(a), lit_of(b), col_of(b), lit_of(a)) {
        (Some(c), Some(l), _, _) => (Some(c), Some(l), op),
        (_, _, Some(c), Some(l)) => (Some(c), Some(l), op.flip()),
        _ => {
            // `col ± k <op> v` estimates like the shifted range
            // `col <op> v ∓ k` — arithmetic-wrapped comparisons would
            // otherwise all fall to the SEL_OTHER guess even though the
            // histogram answers them exactly.
            if let Some((c, shifted)) = shifted_int_cmp(a, b) {
                return cmp_selectivity(op, &BExpr::Col(c), &BExpr::Lit(shifted), stats);
            }
            if let Some((c, shifted)) = shifted_int_cmp(b, a) {
                return cmp_selectivity(op.flip(), &BExpr::Col(c), &BExpr::Lit(shifted), stats);
            }
            // `col <op> (uncorrelated subquery)`: a constant, value unknown.
            let unknown = |e: &BExpr| e.has_subquery() && e.is_constant();
            match (col_of(a), col_of(b)) {
                (Some(c), _) if unknown(b) => (Some(c), None, op),
                (_, Some(c)) if unknown(a) => (Some(c), None, op),
                _ => (None, None, op),
            }
        }
    };
    match (col, lit, stats) {
        (Some(c), _, Some(s)) if op == CmpKind::Eq => eq_selectivity(c, s),
        (Some(c), _, Some(s)) if op == CmpKind::Ne => 1.0 - eq_selectivity(c, s),
        (Some(c), Some(l), Some(s)) => range_selectivity(c, op, l, s),
        _ => match op {
            CmpKind::Eq => SEL_EQ,
            CmpKind::Ne => 1.0 - SEL_EQ,
            _ => SEL_RANGE,
        },
    }
}

/// Matches `Col ± IntLit` (or `IntLit + Col`) compared against an integer
/// literal `other`, returning the column and the literal translated to the
/// column's own scale, so `qty + 1 = 3` estimates exactly like `qty = 2`.
fn shifted_int_cmp(arith_side: &BExpr, other: &BExpr) -> Option<(usize, Value)> {
    let BExpr::Arith(aop, l, r) = arith_side else {
        return None;
    };
    let Some(Value::Int(v)) = lit_of(other) else {
        return None;
    };
    let int_lit = |e: &BExpr| match lit_of(e) {
        Some(Value::Int(k)) => Some(*k),
        _ => None,
    };
    match aop {
        tpcds_types::scalar::ArithOp::Add => match (col_of(l), int_lit(r), col_of(r), int_lit(l)) {
            (Some(c), Some(k), _, _) | (_, _, Some(c), Some(k)) => {
                Some((c, Value::Int(v.checked_sub(k)?)))
            }
            _ => None,
        },
        tpcds_types::scalar::ArithOp::Sub => match (col_of(l), int_lit(r)) {
            // Only `col - k`: `k - col` flips monotonicity, which a pure
            // literal shift cannot express.
            (Some(c), Some(k)) => Some((c, Value::Int(v.checked_add(k)?))),
            _ => None,
        },
        _ => None,
    }
}

/// Range selectivity for `col <op> lit` from the histogram (preferred) or
/// a min/max linear interpolation; ranges entirely outside the observed
/// min/max estimate zero.
fn range_selectivity(col: usize, op: CmpKind, lit: &Value, s: &TableStats) -> f64 {
    let Some(c) = s.column(col) else {
        return SEL_RANGE;
    };
    if s.rows == 0 {
        return 0.0;
    }
    let non_null = 1.0 - s.null_fraction(col);
    let frac_le = fraction_le(c, lit, s.rows);
    match (frac_le, op) {
        (Some(f), CmpKind::Lt | CmpKind::Le) => f * non_null,
        (Some(f), CmpKind::Gt | CmpKind::Ge) => (1.0 - f) * non_null,
        _ => SEL_RANGE,
    }
}

/// `BETWEEN lo AND hi` via two cumulative-fraction reads.
fn range_between(col: usize, lo: &Value, hi: &Value, s: &TableStats) -> f64 {
    let Some(c) = s.column(col) else {
        return SEL_BETWEEN;
    };
    if s.rows == 0 {
        return 0.0;
    }
    let non_null = 1.0 - s.null_fraction(col);
    match (fraction_le(c, hi, s.rows), fraction_le(c, lo, s.rows)) {
        (Some(h), Some(l)) => ((h - l) * non_null).max(0.0),
        _ => SEL_BETWEEN,
    }
}

/// Fraction of non-NULL values `<= lit`, from the histogram when it
/// covers the whole column, else from a min/max interpolation. `None`
/// when the column has no usable numeric axis (e.g. strings).
fn fraction_le(c: &tpcds_storage::ColumnStats, lit: &Value, table_rows: u64) -> Option<f64> {
    // Out-of-range shortcuts from exact min/max (work for strings too).
    if let (Some(min), Some(max)) = (&c.min, &c.max) {
        if lit.sort_cmp(min) == std::cmp::Ordering::Less {
            return Some(0.0);
        }
        if lit.sort_cmp(max) != std::cmp::Ordering::Less {
            return Some(1.0);
        }
    }
    let key = hist_key(lit)?;
    if c.hist_covers_column(table_rows) {
        return Some(c.hist.fraction_le(key));
    }
    // Histogram unusable: interpolate linearly between min and max.
    let lo = c.min.as_ref().and_then(hist_key)?;
    let hi = c.max.as_ref().and_then(hist_key)?;
    if hi <= lo {
        return Some(1.0);
    }
    Some((key.saturating_sub(lo)) as f64 / (hi - lo) as f64)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::catalog::ColumnMeta;
    use tpcds_types::DataType;

    fn db_with(name: &str, col: &str, values: Vec<Value>) -> Database {
        let db = Database::new();
        let rows: Vec<Vec<Value>> = values.into_iter().map(|v| vec![v]).collect();
        db.create_table_with_rows(
            name,
            vec![ColumnMeta {
                name: col.into(),
                dtype: DataType::Int,
            }],
            rows,
        )
        .unwrap();
        db
    }

    fn scan(db: &Database, table: &str, filter: Option<BExpr>) -> Plan {
        let width = db.columns(table).unwrap().len();
        Plan::Scan {
            table: table.into(),
            cols: (0..width).collect(),
            table_width: width,
            filter,
        }
    }

    fn eq_lit(col: usize, v: i64) -> BExpr {
        BExpr::Cmp(
            CmpKind::Eq,
            Box::new(BExpr::Col(col)),
            Box::new(BExpr::Lit(Value::Int(v))),
        )
    }

    fn est_of(plan: &Plan, db: &Database) -> f64 {
        estimate_plan(plan, db)[&(plan as *const Plan as usize)]
    }

    #[test]
    fn empty_table_estimates_zero() {
        let db = db_with("t", "a", vec![]);
        let p = scan(&db, "t", Some(eq_lit(0, 5)));
        assert_eq!(est_of(&p, &db), 0.0);
    }

    #[test]
    fn all_null_column_boundaries() {
        let db = db_with("t", "a", (0..100).map(|_| Value::Null).collect());
        // a = 5 can never match a NULL.
        let p = scan(&db, "t", Some(eq_lit(0, 5)));
        assert_eq!(est_of(&p, &db), 0.0);
        // a IS NULL matches everything.
        let p = scan(
            &db,
            "t",
            Some(BExpr::IsNull(Box::new(BExpr::Col(0)), false)),
        );
        assert!((est_of(&p, &db) - 100.0).abs() < 1e-9);
        // a IS NOT NULL matches nothing.
        let p = scan(&db, "t", Some(BExpr::IsNull(Box::new(BExpr::Col(0)), true)));
        assert_eq!(est_of(&p, &db), 0.0);
    }

    #[test]
    fn single_value_column_eq_estimates_all_rows() {
        let db = db_with("t", "a", (0..1000).map(|_| Value::Int(7)).collect());
        let p = scan(&db, "t", Some(eq_lit(0, 7)));
        let est = est_of(&p, &db);
        assert!((est - 1000.0).abs() / 1000.0 < 0.05, "est {est}");
    }

    #[test]
    fn range_outside_min_max_estimates_zero() {
        let db = db_with("t", "a", (100..200).map(Value::Int).collect());
        for pred in [
            BExpr::Cmp(
                CmpKind::Lt,
                Box::new(BExpr::Col(0)),
                Box::new(BExpr::Lit(Value::Int(50))),
            ),
            BExpr::Cmp(
                CmpKind::Gt,
                Box::new(BExpr::Col(0)),
                Box::new(BExpr::Lit(Value::Int(500))),
            ),
            BExpr::Between(
                Box::new(BExpr::Col(0)),
                Box::new(BExpr::Lit(Value::Int(500))),
                Box::new(BExpr::Lit(Value::Int(600))),
                false,
            ),
        ] {
            let p = scan(&db, "t", Some(pred.clone()));
            let est = est_of(&p, &db);
            assert!(est < 1.0, "pred {pred:?} est {est}");
        }
        // And a range covering everything estimates all rows.
        let p = scan(
            &db,
            "t",
            Some(BExpr::Between(
                Box::new(BExpr::Col(0)),
                Box::new(BExpr::Lit(Value::Int(0))),
                Box::new(BExpr::Lit(Value::Int(1000))),
                false,
            )),
        );
        let est = est_of(&p, &db);
        assert!((est - 100.0).abs() / 100.0 < 0.05, "est {est}");
    }

    #[test]
    fn histogram_range_selectivity_tracks_uniform_data() {
        let db = db_with("t", "a", (0..10_000).map(Value::Int).collect());
        let p = scan(
            &db,
            "t",
            Some(BExpr::Cmp(
                CmpKind::Lt,
                Box::new(BExpr::Col(0)),
                Box::new(BExpr::Lit(Value::Int(2_500))),
            )),
        );
        let est = est_of(&p, &db);
        assert!(
            (est - 2_500.0).abs() / 2_500.0 < 0.3,
            "est {est}, want ~2500"
        );
    }

    /// Estimates read a narrowed scan's output columns through to the
    /// table's: joining, filtering and grouping a scan that emits only the
    /// columns read above it estimates exactly like the wide scan.
    #[test]
    fn narrowed_scans_estimate_like_wide_ones() {
        let db = Database::new();
        let int = |name: &str| ColumnMeta {
            name: name.into(),
            dtype: DataType::Int,
        };
        db.create_table_with_rows(
            "fact",
            vec![int("v"), int("fk")],
            (0..1000)
                .map(|i| vec![Value::Int(i), Value::Int(i % 100)])
                .collect(),
        )
        .unwrap();
        db.create_table_with_rows(
            "dim",
            vec![int("attr"), int("pk")],
            (0..100)
                .map(|i| vec![Value::Int(i % 7), Value::Int(i)])
                .collect(),
        )
        .unwrap();
        // fact ⋈ dim on fk = pk, filtered on attr = 3, grouped by attr.
        let plan = |fact: Plan, dim: Plan, fk: usize, pk: usize, attr: usize| {
            let dim = Plan::Filter {
                input: Arc::new(dim),
                predicate: eq_lit(attr, 3),
            };
            let join = Plan::HashJoin {
                left: Arc::new(fact),
                right: Arc::new(dim.clone()),
                kind: JoinType::Inner,
                left_keys: vec![BExpr::Col(fk)],
                right_keys: vec![BExpr::Col(pk)],
                residual: None,
            };
            let groups = Plan::Aggregate {
                input: Arc::new(dim),
                groups: vec![BExpr::Col(attr)],
                aggs: vec![],
            };
            (est_of(&join, &db), est_of(&groups, &db))
        };
        let narrowed = |table: &str, cols: Vec<usize>| Plan::Scan {
            table: table.into(),
            cols,
            table_width: 2,
            filter: None,
        };
        let wide = plan(scan(&db, "fact", None), scan(&db, "dim", None), 1, 1, 0);
        let narrow = plan(
            narrowed("fact", vec![1]),
            narrowed("dim", vec![1, 0]),
            0,
            0,
            1,
        );
        assert_eq!(wide, narrow);
        // The wide estimates resolved every column's statistics.
        assert!((wide.0 - 1000.0 / 7.0).abs() < 20.0, "{wide:?}");
        assert_eq!(wide.1, 7.0, "{wide:?}");
    }

    #[test]
    fn join_estimate_uses_key_ndv() {
        // Fact (1000 rows, key uniform over 100) ⋈ dim (100 rows, unique
        // key): expect ~1000 output rows.
        let db = Database::new();
        db.create_table_with_rows(
            "fact",
            vec![ColumnMeta {
                name: "fk".into(),
                dtype: DataType::Int,
            }],
            (0..1000).map(|i| vec![Value::Int(i % 100)]).collect(),
        )
        .unwrap();
        db.create_table_with_rows(
            "dim",
            vec![ColumnMeta {
                name: "pk".into(),
                dtype: DataType::Int,
            }],
            (0..100).map(|i| vec![Value::Int(i)]).collect(),
        )
        .unwrap();
        let p = Plan::HashJoin {
            left: Arc::new(scan(&db, "fact", None)),
            right: Arc::new(scan(&db, "dim", None)),
            kind: JoinType::Inner,
            left_keys: vec![BExpr::Col(0)],
            right_keys: vec![BExpr::Col(0)],
            residual: None,
        };
        let est = est_of(&p, &db);
        assert!((est - 1000.0).abs() / 1000.0 < 0.1, "est {est}");
    }

    #[test]
    fn shifted_arithmetic_cmp_matches_plain_range() {
        let db = db_with("t", "a", (0..10_000).map(Value::Int).collect());
        let arith = |aop, k: i64, op, v: i64| {
            BExpr::Cmp(
                op,
                Box::new(BExpr::Arith(
                    aop,
                    Box::new(BExpr::Col(0)),
                    Box::new(BExpr::Lit(Value::Int(k))),
                )),
                Box::new(BExpr::Lit(Value::Int(v))),
            )
        };
        use tpcds_types::scalar::ArithOp;
        // a + 500 < 3000 ≡ a < 2500; a - 500 < 2000 ≡ a < 2500.
        let plain = scan(
            &db,
            "t",
            Some(BExpr::Cmp(
                CmpKind::Lt,
                Box::new(BExpr::Col(0)),
                Box::new(BExpr::Lit(Value::Int(2_500))),
            )),
        );
        let want = est_of(&plain, &db);
        for pred in [
            arith(ArithOp::Add, 500, CmpKind::Lt, 3_000),
            arith(ArithOp::Sub, 500, CmpKind::Lt, 2_000),
        ] {
            let p = scan(&db, "t", Some(pred));
            let est = est_of(&p, &db);
            assert!((est - want).abs() < 1e-9, "est {est}, want {want}");
        }
        // Literal-on-left variant: 3000 > a + 500 ≡ a < 2500.
        let flipped = BExpr::Cmp(
            CmpKind::Gt,
            Box::new(BExpr::Lit(Value::Int(3_000))),
            Box::new(BExpr::Arith(
                ArithOp::Add,
                Box::new(BExpr::Col(0)),
                Box::new(BExpr::Lit(Value::Int(500))),
            )),
        );
        let p = scan(&db, "t", Some(flipped));
        let est = est_of(&p, &db);
        assert!((est - want).abs() < 1e-9, "est {est}, want {want}");
        // `k - col` must NOT shift (monotonicity flips): it stays at the
        // generic range guess rather than producing a wrong exact number.
        let ksub = BExpr::Cmp(
            CmpKind::Lt,
            Box::new(BExpr::Arith(
                ArithOp::Sub,
                Box::new(BExpr::Lit(Value::Int(500))),
                Box::new(BExpr::Col(0)),
            )),
            Box::new(BExpr::Lit(Value::Int(100))),
        );
        let p = scan(&db, "t", Some(ksub));
        let est = est_of(&p, &db);
        assert!(
            (est - 10_000.0 * SEL_RANGE).abs() < 1e-9,
            "k - col must use the generic guess, got {est}"
        );
    }

    #[test]
    fn q_error_basics() {
        assert_eq!(q_error(100.0, 100), 1.0);
        assert_eq!(q_error(200.0, 100), 2.0);
        assert_eq!(q_error(50.0, 100), 2.0);
        // Floors keep zero-row nodes finite.
        assert_eq!(q_error(0.0, 0), 1.0);
        assert_eq!(q_error(0.0, 10), 10.0);
    }
}
