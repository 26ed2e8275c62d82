//! The answer check: a result the server returned must equal what the
//! row path computes for the same statement on the same snapshot.

use std::collections::HashMap;
use std::sync::Arc;

use tpcds_core::engine::{self, Database, DbSnapshot, QueryResult};
use tpcds_core::runner;
use tpcds_core::types::Value;

use crate::setup::ORACLE;

/// Splits a trailing `limit N` off `sql`.
pub fn split_limit(sql: &str) -> Option<(&str, usize)> {
    let trimmed = sql.trim_end().trim_end_matches(';').trim_end();
    let digits = trimmed.len() - trimmed.trim_end_matches(|c: char| c.is_ascii_digit()).len();
    let (head, n) = trimmed.split_at(trimmed.len() - digits);
    let head = head.trim_end();
    let keyword = head.get(head.len().checked_sub(5)?..)?;
    if !keyword.eq_ignore_ascii_case("limit") {
        return None;
    }
    let body = &head[..head.len() - 5];
    body.ends_with(char::is_whitespace)
        .then(|| n.parse().ok().map(|n| (body.trim_end(), n)))
        .flatten()
}

/// Whether every row of `part` occurs in `whole` at least as often.
pub fn is_sub_multiset(part: &[Vec<Value>], whole: &[Vec<Value>]) -> bool {
    let mut left: HashMap<&[Value], usize> = HashMap::new();
    for row in whole {
        *left.entry(row).or_default() += 1;
    }
    part.iter().all(|row| match left.get_mut(row.as_slice()) {
        Some(n) if *n > 0 => {
            *n -= 1;
            true
        }
        _ => false,
    })
}

/// Compares `got` with the row path's answer to `sql` on `snapshot`,
/// fingerprint to fingerprint. Where they differ and the statement ends
/// in `limit N`, ORDER BY keys that tie at the cut leave the choice of
/// rows to the plan; then `got` must hold `N` rows (or all there are),
/// each a row of the row path's answer without the limit.
pub fn against_oracle(
    db: &Database,
    snapshot: &Arc<DbSnapshot>,
    sql: &str,
    got: &QueryResult,
) -> Result<(), String> {
    let run = |sql: &str| {
        engine::query_pinned(db, snapshot, sql, ORACLE)
            .map_err(|e| format!("row path failed ({e}): {sql}"))
    };
    let oracle = run(sql)?;
    if runner::fingerprint(&oracle) == runner::fingerprint(got) {
        return Ok(());
    }
    if let Some((unlimited, limit)) = split_limit(sql) {
        let all = run(unlimited)?;
        if got.rows.len() == limit.min(all.rows.len()) && is_sub_multiset(&got.rows, &all.rows) {
            return Ok(());
        }
    }
    Err(format!(
        "answer differs from the row path ({} rows vs {}): {sql}",
        got.rows.len(),
        oracle.rows.len()
    ))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn split_limit_finds_only_a_trailing_limit() {
        assert_eq!(
            split_limit("select a from t limit 100"),
            Some(("select a from t", 100))
        );
        assert_eq!(
            split_limit("select a from t\nLIMIT 5 ;\n"),
            Some(("select a from t", 5))
        );
        assert_eq!(split_limit("select a from t"), None);
        assert_eq!(
            split_limit("select a from (select b from u limit 3) x"),
            None
        );
        assert_eq!(split_limit("select nolimit 3"), None);
        assert_eq!(split_limit("limit 3"), None);
    }

    #[test]
    fn sub_multiset_counts_duplicates() {
        let row = |n: i64| vec![Value::Int(n)];
        let whole = vec![row(1), row(1), row(2)];
        assert!(is_sub_multiset(&[row(1), row(2)], &whole));
        assert!(is_sub_multiset(&[row(1), row(1)], &whole));
        assert!(!is_sub_multiset(&[row(2), row(2)], &whole));
        assert!(!is_sub_multiset(&[row(3)], &whole));
        assert!(is_sub_multiset(&[], &whole));
    }
}
