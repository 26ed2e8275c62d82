//! Join reordering and predicate pushdown, Top-N fusion and column
//! pruning.
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
use crate::expr::{BExpr, CmpKind};
use crate::plan::{AggCall, Plan, WindowCall};
use std::collections::{BTreeSet, HashSet};
use std::sync::Arc;
use tpcds_storage::JoinType;

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
                if let BExpr::Cmp(CmpKind::Eq, a, b) = &c {
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
            // A conjunct that reads the enclosing row stays above the
            // scan, where decorrelation (`crate::unnest`) joins it.
            let (outer, local): (Vec<_>, Vec<_>) =
                preds.iter().cloned().partition(BExpr::reads_outer);
            let r = if local.is_empty() {
                r
            } else {
                push_into(r, and_all(local))
            };
            Some(r.filtered((!outer.is_empty()).then(|| and_all(outer))))
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
            let sel = local[i]
                .iter()
                .map(|p| crate::estimate::selectivity_over(p, r, db));
            base * sel.product::<f64>()
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
            kind: JoinType::Inner,
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
/// are left alone — they rarely carry ORDER BY + LIMIT). A plain-column
/// `Project` between the two (dropping hidden sort columns) commutes with
/// the fusion: `Limit(Project(Sort))` becomes `Project(TopN)`, since such
/// a `Project` maps each row on its own.
///
/// Applied by the binder after planning (and skipped by
/// `without_optimizer`, so the ablation study measures the unfused tail).
pub fn fuse_topn(plan: &Plan) -> Plan {
    let topn = |input: &Plan, keys: &[(BExpr, bool)], n: u64| Plan::TopN {
        input: Arc::new(fuse_topn(input)),
        keys: keys.to_vec(),
        n,
    };
    if let Plan::Limit { input, n } = plan {
        match &**input {
            Plan::Sort { input, keys } => return topn(input, keys, *n),
            Plan::Project { input, exprs } if exprs.iter().all(|e| matches!(e, BExpr::Col(_))) => {
                if let Plan::Sort { input, keys } = &**input {
                    return Plan::Project {
                        input: Arc::new(topn(input, keys, *n)),
                        exprs: exprs.clone(),
                    };
                }
            }
            _ => {}
        }
    }
    plan.map_inputs(fuse_topn)
}

/// Narrows every node to the columns read above it, so a scan emits only
/// the table columns the query names and a join gathers only those. Runs
/// once, last, over the statement's tree; subquery bodies inside
/// expressions are left as bound. Each node asks its input for the
/// columns it or its parent reads:
///
/// - a `Scan` emits just the asked columns (its filter reads the table's,
///   so a pushed predicate costs no emitted column);
/// - a `Project` drops the columns and literals nobody reads; a computed
///   expression may raise, so it stays;
/// - `Filter`, `Sort`, `TopN`, a `HashJoin`'s keys and residual, and an
///   `Aggregate`'s or a `Window`'s arguments and keys add what they read;
/// - a node whose own expressions hold a correlated subquery, and each
///   side of a `UnionAll`, keep their input whole: the subquery reads the
///   input row by position, and both sides of a union line up column for
///   column;
/// - a CTE body is pruned with all its outputs needed, so every reference
///   (each holds its own copy of the body) still reads the one result
///   cached per CTE id.
///
/// A node returns at least the asked columns; its parent remaps its own
/// expressions to what came back. A plain-column `Project` directly over
/// another composes into one. Applied by the binder after
/// [`fuse_topn`] and skipped by `without_optimizer`.
pub fn prune_columns(plan: &Plan) -> Plan {
    prune(plan, &all(plan)).0
}

/// Every output column of `plan`.
fn all(plan: &Plan) -> Vec<usize> {
    (0..plan.width()).collect()
}

/// `need` and every column `exprs` read, ascending.
fn with_reads<'e>(need: &[usize], exprs: impl IntoIterator<Item = &'e BExpr>) -> Vec<usize> {
    let mut cols: BTreeSet<usize> = need.iter().copied().collect();
    for e in exprs {
        e.visit_columns(&mut |c| {
            cols.insert(c);
        });
    }
    cols.into_iter().collect()
}

/// Remaps `e` from an input's old columns to the ones it still emits
/// (`kept`, ascending).
fn rebase(e: &BExpr, kept: &[usize]) -> BExpr {
    e.remap_columns(&|c| kept.binary_search(&c).expect("a read column is kept"))
}

/// `plan` emitting at least the columns `need` (ascending), with the
/// old position of each column it still emits (ascending).
fn prune(plan: &Plan, need: &[usize]) -> (Plan, Vec<usize>) {
    let narrow = |p: &Plan, need: &[usize]| {
        let (p, kept) = prune(p, need);
        (Arc::new(p), kept)
    };
    let correlated = plan.exprs().iter().any(|e| e.has_correlated_subquery());
    if correlated
        || matches!(
            plan,
            Plan::UnionAll { .. } | Plan::CteRef { .. } | Plan::Domain { .. }
        )
    {
        let whole = plan.map_inputs(|p| prune(p, &all(p)).0);
        return (whole, all(plan));
    }
    match plan {
        Plan::Scan {
            table,
            cols,
            table_width,
            filter,
        } => {
            let scan = Plan::Scan {
                table: table.clone(),
                cols: need.iter().map(|&c| cols[c]).collect(),
                table_width: *table_width,
                filter: filter.clone(),
            };
            (scan, need.to_vec())
        }
        Plan::Filter { input, predicate } => {
            let (input, kept) = narrow(input, &with_reads(need, [predicate]));
            let predicate = rebase(predicate, &kept);
            (Plan::Filter { input, predicate }, kept)
        }
        Plan::Project { input, exprs } => {
            let keep: Vec<usize> = (0..exprs.len())
                .filter(|c| need.contains(c) || !matches!(exprs[*c], BExpr::Col(_) | BExpr::Lit(_)))
                .collect();
            let (input, kept) = narrow(input, &with_reads(&[], keep.iter().map(|&c| &exprs[c])));
            let exprs = keep.iter().map(|&c| rebase(&exprs[c], &kept)).collect();
            (project(input, exprs), keep)
        }
        Plan::HashJoin {
            left,
            right,
            kind,
            left_keys,
            right_keys,
            residual,
        } => {
            let lw = left.width();
            let need = with_reads(need, residual);
            let (lneed, rneed) = need.split_at(need.partition_point(|&c| c < lw));
            let rneed: Vec<usize> = rneed.iter().map(|&c| c - lw).collect();
            let (left, lkept) = narrow(left, &with_reads(lneed, left_keys));
            let (right, rkept) = narrow(right, &with_reads(&rneed, right_keys));
            let kept: Vec<usize> = lkept
                .iter()
                .copied()
                .chain(rkept.iter().map(|&c| c + lw))
                .collect();
            let join = Plan::HashJoin {
                left,
                right,
                kind: *kind,
                left_keys: left_keys.iter().map(|k| rebase(k, &lkept)).collect(),
                right_keys: right_keys.iter().map(|k| rebase(k, &rkept)).collect(),
                residual: residual.as_ref().map(|r| rebase(r, &kept)),
            };
            (join, kept)
        }
        Plan::Aggregate {
            input,
            groups,
            aggs,
        } => {
            let (input, kept) = narrow(input, &with_reads(&[], plan.exprs()));
            let agg = Plan::Aggregate {
                input,
                groups: groups.iter().map(|g| rebase(g, &kept)).collect(),
                aggs: (aggs.iter())
                    .map(|a| AggCall {
                        func: a.func,
                        arg: a.arg.as_ref().map(|e| rebase(e, &kept)),
                    })
                    .collect(),
            };
            (agg, all(plan))
        }
        Plan::Window { input, calls } => {
            let w = input.width();
            let passed = &need[..need.partition_point(|&c| c < w)];
            let (input, mut kept) = narrow(input, &with_reads(passed, plan.exprs()));
            let calls = (calls.iter())
                .map(|c| WindowCall {
                    func: c.func,
                    arg: c.arg.as_ref().map(|e| rebase(e, &kept)),
                    partition: c.partition.iter().map(|k| rebase(k, &kept)).collect(),
                    order: (c.order.iter())
                        .map(|(k, desc)| (rebase(k, &kept), *desc))
                        .collect(),
                })
                .collect();
            kept.extend(w..plan.width());
            (Plan::Window { input, calls }, kept)
        }
        Plan::Sort { input, keys } | Plan::TopN { input, keys, .. } => {
            let (input, kept) = narrow(input, &with_reads(need, keys.iter().map(|(k, _)| k)));
            let keys = (keys.iter())
                .map(|(k, desc)| (rebase(k, &kept), *desc))
                .collect();
            let sorted = match plan {
                Plan::TopN { n, .. } => Plan::TopN { input, keys, n: *n },
                _ => Plan::Sort { input, keys },
            };
            (sorted, kept)
        }
        Plan::Limit { input, n } => {
            let (input, kept) = narrow(input, need);
            (Plan::Limit { input, n: *n }, kept)
        }
        Plan::CteRef { .. } | Plan::UnionAll { .. } | Plan::Domain { .. } => {
            unreachable!("kept whole above")
        }
    }
}

/// `Project(exprs)` over `input`, composed into `input` when both are
/// plain column lists.
fn project(input: Arc<Plan>, exprs: Vec<BExpr>) -> Plan {
    let plain = |exprs: &[BExpr]| exprs.iter().all(|e| matches!(e, BExpr::Col(_)));
    if let Plan::Project {
        input: inner,
        exprs: under,
    } = &*input
    {
        if plain(&exprs) && plain(under) {
            let exprs = (exprs.iter())
                .map(|e| match e {
                    BExpr::Col(c) => under[*c].clone(),
                    _ => unreachable!("plain"),
                })
                .collect();
            return Plan::Project {
                input: Arc::clone(inner),
                exprs,
            };
        }
    }
    Plan::Project { input, exprs }
}

/// Flattens inner cross-join chains (keyless hash joins without a
/// residual) and filters, each filter's conjuncts in the coordinates of
/// the flattened row.
fn flatten(plan: Plan, relations: &mut Vec<Plan>, conjuncts: &mut Vec<BExpr>) {
    let take = |p: Arc<Plan>| Arc::try_unwrap(p).unwrap_or_else(|a| a.as_ref().clone());
    match plan {
        Plan::HashJoin {
            left,
            right,
            kind: JoinType::Inner,
            left_keys,
            residual: None,
            ..
        } if left_keys.is_empty() => {
            flatten(take(left), relations, conjuncts);
            flatten(take(right), relations, conjuncts);
        }
        Plan::Filter { input, predicate } => {
            let at: usize = relations.iter().map(Plan::width).sum();
            flatten(take(input), relations, conjuncts);
            split_conjuncts(predicate.remap_columns(&|c| c + at), conjuncts);
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
            cols,
            table_width,
            filter,
        } => {
            let pred = pred.remap_columns(&|c| cols[c]);
            let combined = match filter {
                None => pred,
                Some(f) => BExpr::And(f.boxed(), pred.boxed()),
            };
            Plan::Scan {
                table,
                cols,
                table_width,
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
