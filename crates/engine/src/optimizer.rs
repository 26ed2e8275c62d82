//! Join reordering and predicate pushdown.
//!
//! The binder emits `Filter(cross-join chain)` for comma-joined FROM
//! clauses. This pass flattens that shape into a relation list plus a
//! conjunct list, pushes single-relation predicates into their scans,
//! extracts equi-join edges, and rebuilds a greedy left-deep hash-join
//! tree: the largest relation (the fact table, in star queries) is the
//! probe side and the smallest connected relation joins next — exactly the
//! "star transformation vs hash join" decision space the paper says
//! optimizers must navigate (§2.1).

use crate::catalog::Database;
use crate::expr::{BExpr, CmpOp};
use crate::plan::{JoinKind, Plan};
use std::collections::HashSet;
use std::sync::Arc;

/// Optimizes one FROM/WHERE block. Safe to call on any plan; only the
/// flattenable prefix is rewritten.
pub fn optimize(plan: Plan, db: &Database) -> Plan {
    let mut relations: Vec<Plan> = Vec::new();
    let mut conjuncts: Vec<BExpr> = Vec::new();
    flatten(plan, &mut relations, &mut conjuncts);

    if relations.len() == 1 && conjuncts.is_empty() {
        return relations.pop().expect("one relation");
    }

    // Column ranges of each relation within the flattened row.
    let widths: Vec<usize> = relations.iter().map(|r| r.width()).collect();
    let mut offsets = Vec::with_capacity(widths.len());
    let mut acc = 0;
    for w in &widths {
        offsets.push(acc);
        acc += w;
    }
    let total_width = acc;

    // Classify conjuncts.
    let mut local: Vec<Vec<BExpr>> = vec![Vec::new(); relations.len()];
    let mut edges: Vec<(usize, usize, BExpr, BExpr)> = Vec::new(); // (rel_a, rel_b, a_expr, b_expr)
    let mut residual: Vec<BExpr> = Vec::new();
    for c in conjuncts {
        let rels = referenced_relations(&c, &offsets, &widths);
        // A correlated subquery's plan reads outer columns by position, and
        // a remap cannot chase those into it: the conjunct stays in the
        // original coordinates. One whose subqueries are all uncorrelated
        // is a predicate over the columns it names, like any other.
        if c.has_correlated_subquery() {
            residual.push(c);
            continue;
        }
        match rels.len() {
            0 => residual.push(c), // constant predicate: evaluate at the top
            1 => {
                let r = *rels.iter().next().expect("one relation");
                local[r].push(c.remap_columns(&|i| i - offsets[r]));
            }
            2 if !c.has_subquery() => {
                if let BExpr::Cmp(CmpOp::Eq, a, b) = &c {
                    let ra = referenced_relations(a, &offsets, &widths);
                    let rb = referenced_relations(b, &offsets, &widths);
                    if ra.len() == 1 && rb.len() == 1 && ra != rb {
                        let ia = *ra.iter().next().expect("rel");
                        let ib = *rb.iter().next().expect("rel");
                        edges.push((
                            ia,
                            ib,
                            a.remap_columns(&|i| i - offsets[ia]),
                            b.remap_columns(&|i| i - offsets[ib]),
                        ));
                        continue;
                    }
                }
                residual.push(c);
            }
            _ => residual.push(c),
        }
    }

    // Push local predicates into the relations.
    let mut rels: Vec<Option<Plan>> = relations
        .into_iter()
        .zip(local.iter())
        .map(|(r, preds)| {
            let mut r = r;
            if !preds.is_empty() {
                let combined = and_all(preds.clone());
                r = push_into(r, combined);
            }
            Some(r)
        })
        .collect();

    // Cardinality estimates (after filtering). Selectivities come from
    // the statistics-backed estimator when the relation's base table has
    // collected stats (local predicates are in relation-local column
    // coordinates, matching the table's column order); tables without
    // stats degrade to the same shape-based defaults as before.
    let est: Vec<f64> = rels
        .iter()
        .enumerate()
        .map(|(i, r)| {
            let r = r.as_ref().expect("present");
            let base = base_rows(r, db).max(1) as f64;
            let stats = crate::estimate::scanned_table(r, db).map(|t| t.stats());
            let mut sel = 1.0;
            for p in &local[i] {
                sel *= crate::estimate::predicate_selectivity(p, stats.as_deref(), db);
            }
            base * sel
        })
        .collect();

    // Greedy left-deep join order starting from the largest relation.
    let n = rels.len();
    let start = (0..n)
        .max_by(|&a, &b| est[a].partial_cmp(&est[b]).expect("finite estimate"))
        .expect("non-empty");
    let mut joined: Vec<usize> = vec![start];
    let mut in_tree: HashSet<usize> = HashSet::from([start]);
    let mut tree = rels[start].take().expect("start relation");
    // new layout: map relation -> offset in the join output
    let mut new_offsets = vec![0usize; n];
    new_offsets[start] = 0;
    let mut tree_width = widths[start];

    while in_tree.len() < n {
        // Pick the connected relation with the smallest estimate; fall back
        // to the smallest disconnected one (cross join).
        let connected: Vec<usize> = (0..n)
            .filter(|i| !in_tree.contains(i))
            .filter(|i| {
                edges.iter().any(|(a, b, _, _)| {
                    (a == i && in_tree.contains(b)) || (b == i && in_tree.contains(a))
                })
            })
            .collect();
        let next = connected
            .iter()
            .copied()
            .min_by(|&a, &b| est[a].partial_cmp(&est[b]).expect("finite estimate"))
            .or_else(|| {
                (0..n)
                    .filter(|i| !in_tree.contains(i))
                    .min_by(|&a, &b| est[a].partial_cmp(&est[b]).expect("finite estimate"))
            })
            .expect("some relation left");
        let right = rels[next].take().expect("unjoined relation");

        // Gather all equi edges between the tree and `next`.
        let mut left_keys = Vec::new();
        let mut right_keys = Vec::new();
        for (a, b, ea, eb) in &edges {
            if *a == next && in_tree.contains(b) {
                // tree side is b
                left_keys.push(eb.remap_columns(&|i| i + new_offsets[*b]));
                right_keys.push(ea.clone());
            } else if *b == next && in_tree.contains(a) {
                left_keys.push(ea.remap_columns(&|i| i + new_offsets[*a]));
                right_keys.push(eb.clone());
            }
        }
        // Without an edge to `next` there are no keys: a cross join.
        tree = Plan::HashJoin {
            left: Arc::new(tree),
            right: Arc::new(right),
            kind: JoinKind::Inner,
            left_keys,
            right_keys,
            residual: None,
        };
        new_offsets[next] = tree_width;
        tree_width += widths[next];
        in_tree.insert(next);
        joined.push(next);
    }

    // Restore the original column order.
    let mut order: Vec<usize> = Vec::with_capacity(total_width);
    for (rel, (off, w)) in offsets.iter().zip(&widths).enumerate() {
        let _ = off;
        for c in 0..*w {
            order.push(new_offsets[rel] + c);
        }
    }
    let identity = order.iter().enumerate().all(|(i, &c)| i == c);
    if !identity {
        tree = Plan::Project {
            input: Arc::new(tree),
            exprs: order.into_iter().map(BExpr::Col).collect(),
        };
    }

    // Residual predicates (original coordinates, incl. correlated-subquery
    // filters).
    if !residual.is_empty() {
        tree = Plan::Filter {
            input: Arc::new(tree),
            predicate: and_all(residual),
        };
    }
    tree
}

/// Fuses `Limit`-over-`Sort` into a [`Plan::TopN`] node, recursing
/// through the whole tree (subquery bodies live inside expressions and
/// are left alone — they rarely carry ORDER BY + LIMIT). A `Prefix`
/// between the two (hidden sort columns) commutes with the fusion:
/// `Limit(Prefix(Sort))` becomes `Prefix(TopN)`, since `Prefix` only
/// drops trailing columns row-by-row.
///
/// Applied by the binder after planning (and skipped by
/// `without_optimizer`, so the ablation study measures the unfused tail).
pub fn fuse_topn(plan: Plan) -> Plan {
    fn unwrap(p: Arc<Plan>) -> Plan {
        Arc::try_unwrap(p).unwrap_or_else(|a| a.as_ref().clone())
    }
    fn recurse(p: Arc<Plan>) -> Arc<Plan> {
        Arc::new(fuse_topn(unwrap(p)))
    }
    match plan {
        Plan::Limit { input, n } => match unwrap(input) {
            Plan::Sort { input, keys } => Plan::TopN {
                input: recurse(input),
                keys,
                n,
            },
            Plan::Prefix { input, keep } => match unwrap(input) {
                Plan::Sort { input, keys } => Plan::Prefix {
                    input: Arc::new(Plan::TopN {
                        input: recurse(input),
                        keys,
                        n,
                    }),
                    keep,
                },
                other => Plan::Limit {
                    input: Arc::new(Plan::Prefix {
                        input: Arc::new(fuse_topn(other)),
                        keep,
                    }),
                    n,
                },
            },
            other => Plan::Limit {
                input: Arc::new(fuse_topn(other)),
                n,
            },
        },
        Plan::Scan { .. } => plan,
        Plan::Filter { input, predicate } => Plan::Filter {
            input: recurse(input),
            predicate,
        },
        Plan::Project { input, exprs } => Plan::Project {
            input: recurse(input),
            exprs,
        },
        Plan::HashJoin {
            left,
            right,
            kind,
            left_keys,
            right_keys,
            residual,
        } => Plan::HashJoin {
            left: recurse(left),
            right: recurse(right),
            kind,
            left_keys,
            right_keys,
            residual,
        },
        Plan::Aggregate {
            input,
            groups,
            aggs,
        } => Plan::Aggregate {
            input: recurse(input),
            groups,
            aggs,
        },
        Plan::Window { input, calls } => Plan::Window {
            input: recurse(input),
            calls,
        },
        Plan::Sort { input, keys } => Plan::Sort {
            input: recurse(input),
            keys,
        },
        Plan::TopN { input, keys, n } => Plan::TopN {
            input: recurse(input),
            keys,
            n,
        },
        Plan::UnionAll { left, right } => Plan::UnionAll {
            left: recurse(left),
            right: recurse(right),
        },
        Plan::CteRef { id, plan, width } => Plan::CteRef {
            id,
            plan: recurse(plan),
            width,
        },
        Plan::Prefix { input, keep } => Plan::Prefix {
            input: recurse(input),
            keep,
        },
    }
}

/// Flattens inner cross-join chains (keyless hash joins without a
/// residual) and filters.
fn flatten(plan: Plan, relations: &mut Vec<Plan>, conjuncts: &mut Vec<BExpr>) {
    match plan {
        Plan::HashJoin {
            left,
            right,
            kind: JoinKind::Inner,
            left_keys,
            residual: None,
            ..
        } if left_keys.is_empty() => {
            let l = Arc::try_unwrap(left).unwrap_or_else(|a| a.as_ref().clone());
            let r = Arc::try_unwrap(right).unwrap_or_else(|a| a.as_ref().clone());
            flatten(l, relations, conjuncts);
            // Conjuncts discovered inside the right subtree would have
            // right-local coordinates; the binder only nests filters above
            // the join chain, so right subtrees contain no filters.
            let before = conjuncts.len();
            flatten(r, relations, conjuncts);
            debug_assert_eq!(before, conjuncts.len(), "filter below right join input");
        }
        Plan::Filter { input, predicate } => {
            let i = Arc::try_unwrap(input).unwrap_or_else(|a| a.as_ref().clone());
            // Only filters directly over the join chain flatten; collect
            // this predicate in post-flatten (full-row) coordinates.
            flatten(i, relations, conjuncts);
            split_conjuncts(predicate, conjuncts);
        }
        other => relations.push(other),
    }
}

/// Splits nested ANDs.
pub fn split_conjuncts(e: BExpr, out: &mut Vec<BExpr>) {
    match e {
        BExpr::And(a, b) => {
            split_conjuncts(*a, out);
            split_conjuncts(*b, out);
        }
        other => out.push(other),
    }
}

/// ANDs a non-empty list.
pub(crate) fn and_all(mut preds: Vec<BExpr>) -> BExpr {
    let mut acc = preds.pop().expect("non-empty");
    while let Some(p) = preds.pop() {
        acc = BExpr::And(p.boxed(), acc.boxed());
    }
    acc
}

/// Which relations a predicate references (by flattened column ranges).
fn referenced_relations(e: &BExpr, offsets: &[usize], widths: &[usize]) -> HashSet<usize> {
    let mut rels = HashSet::new();
    e.visit_columns(&mut |c| {
        for (i, (off, w)) in offsets.iter().zip(widths).enumerate() {
            if c >= *off && c < off + w {
                rels.insert(i);
                break;
            }
        }
    });
    rels
}

/// Pushes a predicate into a scan filter when possible, else wraps.
fn push_into(plan: Plan, pred: BExpr) -> Plan {
    match plan {
        Plan::Scan {
            table,
            width,
            filter,
        } => {
            let combined = match filter {
                None => pred,
                Some(f) => BExpr::And(f.boxed(), pred.boxed()),
            };
            Plan::Scan {
                table,
                width,
                filter: Some(combined),
            }
        }
        other => Plan::Filter {
            input: Arc::new(other),
            predicate: pred,
        },
    }
}

/// Rows of the underlying base table (pre-filter).
fn base_rows(plan: &Plan, db: &Database) -> usize {
    match plan {
        Plan::Scan { table, .. } => db.row_count(table),
        Plan::Filter { input, .. } => base_rows(input, db),
        Plan::CteRef { .. } => 1_000, // CTE results: assume modest
        _ => 10_000,
    }
}
