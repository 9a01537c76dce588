//! Filter-containment rewriting (the compensation case of \[15\]).
//!
//! Exact semantic matches miss the commonest evolution in the workload: the
//! analyst *tightens* a predicate. If a view materializes
//! `σ_C(π_E(log))` and a query needs `σ_{C∪R}(π_E(log))`, the view answers
//! the query with a compensation filter `σ_R(view)` — conjunct-set
//! containment over the same input subtree.
//!
//! This module recognizes exactly that pattern (the shape every lowered
//! branch has: filters directly over extraction projections or UDF/join
//! outputs). Broader containment — projection subsetting, range subsumption,
//! aggregate rollup — is future work, as it is for the paper's \[15\].

use crate::view::ViewCatalog;
use miso_common::ids::NodeId;
use miso_plan::{Expr, LogicalPlan, Operator};
use std::collections::{HashMap, HashSet};

/// A view in "filter over base" normal form.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FilterView {
    /// View name.
    pub name: String,
    /// Fingerprint of the subtree *below* the view's root filter.
    pub input_fp: u64,
    /// Digests of the view filter's conjuncts.
    pub conjuncts: HashSet<u64>,
}

impl FilterView {
    /// The normal form of a view named `name` defined by `plan`; `None`
    /// unless the plan's root is a filter. [`crate::ViewDef::from_plan`]
    /// computes this once per view, so rewriting never re-fingerprints a
    /// definition.
    pub(crate) fn of(name: &str, plan: &LogicalPlan) -> Option<FilterView> {
        let root = plan.root_node();
        let Operator::Filter { .. } = &root.op else {
            return None;
        };
        Some(FilterView {
            name: name.to_string(),
            input_fp: plan.fingerprint(root.inputs[0]).0,
            conjuncts: plan.conjunct_digests(root.id).iter().copied().collect(),
        })
    }
}

/// The filter-over-base normal form of every available view that has one,
/// in name order (the order ties between equally subsuming views break in).
pub fn filter_views<'a>(
    catalog: &'a ViewCatalog,
    available: &HashSet<String>,
) -> Vec<&'a FilterView> {
    let mut out: Vec<&FilterView> = available
        .iter()
        .filter_map(|name| catalog.get(name)?.filter_form.as_ref())
        .collect();
    out.sort_by(|a, b| a.name.cmp(&b.name));
    out
}

/// One applicable containment rewrite.
#[derive(Debug, Clone)]
pub struct ContainmentMatch {
    /// The query's filter node to replace.
    pub node: NodeId,
    /// The subsuming view.
    pub view: String,
    /// Compensation predicate (conjuncts the view does not enforce);
    /// `None` when the view matches exactly (callers should prefer the
    /// exact-match path, but this keeps the result total).
    pub residual: Option<Expr>,
    /// How many query conjuncts the view already enforces (tie-breaker:
    /// more subsumed conjuncts = less residual work).
    pub subsumed: usize,
}

/// Finds the best containment rewrite for each rewritable filter node of
/// `plan` (deepest wins when nested; callers apply one at a time).
pub fn find_containment_matches(
    plan: &LogicalPlan,
    views: &[&FilterView],
) -> Vec<ContainmentMatch> {
    containment_matches(plan, views, |_| true).collect()
}

/// [`find_containment_matches`] over the filter nodes `live` admits, in
/// plan order, lazily. Reads the fingerprints and conjunct digests the plan
/// carries; a filter no view shares an input with costs one comparison per
/// view.
pub(crate) fn containment_matches<'a>(
    plan: &'a LogicalPlan,
    views: &'a [&FilterView],
    live: impl Fn(NodeId) -> bool + 'a,
) -> impl Iterator<Item = ContainmentMatch> + 'a {
    plan.nodes().iter().filter_map(move |node| {
        let Operator::Filter { predicate } = &node.op else {
            return None;
        };
        let input_fp = plan.fingerprint(node.inputs[0]).0;
        if !live(node.id) || views.iter().all(|v| v.input_fp != input_fp) {
            return None;
        }
        // In predicate order, one entry per distinct conjunct, so the
        // residual below is a function of the plan and the view alone.
        let mut query_conjuncts: Vec<(u64, &Expr)> = Vec::new();
        for (&d, c) in plan
            .conjunct_digests(node.id)
            .iter()
            .zip(predicate.conjuncts())
        {
            if query_conjuncts.iter().all(|(seen, _)| *seen != d) {
                query_conjuncts.push((d, c));
            }
        }
        let mut best: Option<ContainmentMatch> = None;
        for view in views {
            if view.input_fp != input_fp {
                continue;
            }
            if !view
                .conjuncts
                .iter()
                .all(|d| query_conjuncts.iter().any(|(q, _)| q == d))
            {
                continue; // the view filters *more* than the query: unusable
            }
            let subsumed = view.conjuncts.len();
            if best.as_ref().is_none_or(|b| subsumed > b.subsumed) {
                let residual: Vec<Expr> = query_conjuncts
                    .iter()
                    .filter(|(d, _)| !view.conjuncts.contains(d))
                    .map(|(_, e)| (*e).clone())
                    .collect();
                best = Some(ContainmentMatch {
                    node: node.id,
                    view: view.name.clone(),
                    residual: Expr::conjoin(residual),
                    subsumed,
                });
            }
        }
        best
    })
}

/// Applies one containment match, producing the rewritten plan.
pub fn apply_containment(
    plan: &LogicalPlan,
    m: &ContainmentMatch,
) -> miso_common::Result<LogicalPlan> {
    // Replace the filter subtree with ScanView, then re-add the residual
    // filter above the scan if any.
    let replaced = plan.replace_with_view(m.node, &m.view)?;
    let Some(residual) = &m.residual else {
        return Ok(replaced);
    };
    // The ScanView node that replaced the subtree: find it by name.
    let scan_id = replaced
        .nodes()
        .iter()
        .find(|n| matches!(&n.op, Operator::ScanView { view, .. } if *view == m.view))
        .expect("replacement inserted the scan")
        .id;
    // Rebuild with a filter spliced above the scan.
    let mut b = miso_plan::PlanBuilder::new();
    let mut mapping: HashMap<NodeId, NodeId> = HashMap::new();
    for node in replaced.nodes() {
        let inputs: Vec<NodeId> = node.inputs.iter().map(|i| mapping[i]).collect();
        let new_id = b.add(node.op.clone(), inputs)?;
        let new_id = if node.id == scan_id {
            b.add(
                Operator::Filter {
                    predicate: residual.clone(),
                },
                vec![new_id],
            )?
        } else {
            new_id
        };
        mapping.insert(node.id, new_id);
    }
    b.finish(mapping[&replaced.root()])
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::view::ViewDef;
    use miso_common::ids::QueryId;
    use miso_common::ByteSize;
    use miso_data::DataType;
    use miso_plan::PlanBuilder;

    /// scan → project(a,b) → filter(conjuncts) [→ limit]
    fn branch(conjunct_values: &[i64], with_limit: bool) -> LogicalPlan {
        let mut b = PlanBuilder::new();
        let scan = b
            .add(
                Operator::ScanLog {
                    log: "twitter".into(),
                },
                vec![],
            )
            .unwrap();
        let proj = b
            .add(
                Operator::Project {
                    exprs: vec![
                        ("a".into(), Expr::col(0).get("a").cast(DataType::Int)),
                        ("b".into(), Expr::col(0).get("b").cast(DataType::Int)),
                    ],
                },
                vec![scan],
            )
            .unwrap();
        let pred = conjunct_values
            .iter()
            .enumerate()
            .map(|(i, &v)| {
                let col = i % 2;
                Expr::Binary {
                    op: miso_plan::BinOp::Gt,
                    left: Box::new(Expr::col(col)),
                    right: Box::new(Expr::lit(v)),
                }
            })
            .reduce(|acc, e| acc.and(e))
            .unwrap();
        let f = b
            .add(Operator::Filter { predicate: pred }, vec![proj])
            .unwrap();
        let root = if with_limit {
            b.add(Operator::Limit { n: 10 }, vec![f]).unwrap()
        } else {
            f
        };
        b.finish(root).unwrap()
    }

    fn view_of(plan: &LogicalPlan, node: NodeId) -> ViewDef {
        ViewDef::from_plan(plan.subplan(node), ByteSize::from_kib(10), 100, QueryId(0))
    }

    #[test]
    fn superset_filter_matches_with_residual() {
        let v_plan = branch(&[5], false);
        let view = view_of(&v_plan, NodeId(2));
        let vname = view.name.clone();
        let mut catalog = ViewCatalog::new();
        catalog.register(view);

        let query = branch(&[5, 7], true);
        let available: HashSet<String> = [vname.clone()].into_iter().collect();
        let fviews = filter_views(&catalog, &available);
        assert_eq!(fviews.len(), 1);
        let matches = find_containment_matches(&query, &fviews);
        assert_eq!(matches.len(), 1);
        let m = &matches[0];
        assert_eq!(m.view, vname);
        assert!(m.residual.is_some());
        assert_eq!(m.subsumed, 1);

        let rewritten = apply_containment(&query, m).unwrap();
        assert_eq!(rewritten.scanned_views(), vec![vname]);
        assert!(rewritten.base_logs().is_empty());
        // scanview → residual filter → limit
        assert_eq!(rewritten.len(), 3);
        assert_eq!(rewritten.schema(), query.schema());
    }

    #[test]
    fn view_with_extra_conjuncts_is_rejected() {
        // View filters MORE than the query → cannot answer it.
        let v_plan = branch(&[5, 7], false);
        let view = view_of(&v_plan, NodeId(2));
        let mut catalog = ViewCatalog::new();
        let name = view.name.clone();
        catalog.register(view);
        let query = branch(&[5], false);
        let fviews = filter_views(&catalog, &[name].into_iter().collect());
        assert!(find_containment_matches(&query, &fviews).is_empty());
    }

    #[test]
    fn mismatched_base_is_rejected() {
        let v_plan = branch(&[5], false);
        let view = view_of(&v_plan, NodeId(2));
        let name = view.name.clone();
        let mut catalog = ViewCatalog::new();
        catalog.register(view);
        // Different extraction (field c instead of a/b).
        let mut b = PlanBuilder::new();
        let scan = b
            .add(
                Operator::ScanLog {
                    log: "twitter".into(),
                },
                vec![],
            )
            .unwrap();
        let proj = b
            .add(
                Operator::Project {
                    exprs: vec![("c".into(), Expr::col(0).get("c").cast(DataType::Int))],
                },
                vec![scan],
            )
            .unwrap();
        let f = b
            .add(
                Operator::Filter {
                    predicate: Expr::Binary {
                        op: miso_plan::BinOp::Gt,
                        left: Box::new(Expr::col(0)),
                        right: Box::new(Expr::lit(5i64)),
                    },
                },
                vec![proj],
            )
            .unwrap();
        let query = b.finish(f).unwrap();
        let fviews = filter_views(&catalog, &[name].into_iter().collect());
        assert!(find_containment_matches(&query, &fviews).is_empty());
    }

    #[test]
    fn most_subsuming_view_wins() {
        let v1 = view_of(&branch(&[5], false), NodeId(2));
        let v2 = view_of(&branch(&[5, 7], false), NodeId(2));
        let n2 = v2.name.clone();
        let mut catalog = ViewCatalog::new();
        let available: HashSet<String> = [v1.name.clone(), v2.name.clone()].into_iter().collect();
        catalog.register(v1);
        catalog.register(v2);
        let query = branch(&[5, 7, 9], false);
        let fviews = filter_views(&catalog, &available);
        let matches = find_containment_matches(&query, &fviews);
        assert_eq!(matches.len(), 1);
        assert_eq!(matches[0].view, n2, "two subsumed conjuncts beat one");
    }

    #[test]
    fn exact_match_yields_no_residual() {
        let v_plan = branch(&[5, 7], false);
        let view = view_of(&v_plan, NodeId(2));
        let name = view.name.clone();
        let mut catalog = ViewCatalog::new();
        catalog.register(view);
        let query = branch(&[7, 5], false); // same conjuncts, other order
        let fviews = filter_views(&catalog, &[name].into_iter().collect());
        let matches = find_containment_matches(&query, &fviews);
        // conjunct digests are order-insensitive... but note col alternation
        // in `branch` pins values to columns, so [7,5] differs from [5,7].
        // Build a genuinely identical query instead:
        let query2 = branch(&[5, 7], false);
        let matches2 = find_containment_matches(&query2, &fviews);
        assert_eq!(matches2.len(), 1);
        assert!(matches2[0].residual.is_none());
        let _ = matches;
    }
}
