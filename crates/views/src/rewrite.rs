//! Semantic view matching and plan rewriting.
//!
//! Given a query plan and the set of views available in some store, replace
//! every maximal subtree whose fingerprint matches a view with a `ScanView`
//! leaf. Matching is *exact-semantic*: the subtree must compute precisely
//! the view's expression (modulo the canonicalizations in
//! `miso_plan::fingerprint`). Containment-based rewriting (view ⊇ query
//! fragment plus compensation) is future work in the paper's \[15\] lineage;
//! exact matching is what the evolutionary workload's shared subexpressions
//! need.
//!
//! Matching is top-down: if a node matches, its descendants are not
//! considered (the larger the replaced subtree, the more computation is
//! reused).

use crate::containment::{apply_containment, containment_matches, filter_views, FilterView};
use crate::view::ViewCatalog;
use miso_common::ids::NodeId;
use miso_plan::fingerprint::parse_view_fingerprint;
use miso_plan::{LogicalPlan, Operator};
use std::collections::HashSet;

/// The result of a rewrite pass: which views it consumes and, on request,
/// the rewritten plan.
///
/// Finding `used` builds nothing. The exact matches found last stay
/// pending as nodes of `base`, and [`Rewrite::plan`] builds the rewritten
/// plan from them on request — a what-if probe whose costing is already
/// memoised never does.
#[derive(Debug, Clone)]
pub struct Rewrite {
    /// Names of the views the rewrite consumed, in use order.
    pub used: Vec<String>,
    /// The plan the pending matches apply to: the input, or the plan the
    /// last containment match built.
    base: LogicalPlan,
    /// Nodes of `base` each replaced by a scan of its own view, outermost
    /// first.
    scans: Vec<NodeId>,
}

impl Rewrite {
    /// The rewritten plan (the input itself when `used` is empty), built on
    /// each call.
    pub fn plan(&self) -> LogicalPlan {
        if self.scans.is_empty() {
            return self.base.clone();
        }
        let names: Vec<String> = self
            .scans
            .iter()
            .map(|&id| self.base.fingerprint(id).view_name())
            .collect();
        let targets: Vec<(NodeId, &str)> = self
            .scans
            .iter()
            .zip(&names)
            .map(|(&id, name)| (id, name.as_str()))
            .collect();
        self.base
            .replace_with_views(&targets)
            .expect("replacing subtrees of a valid plan")
    }

    /// The exact pass over `base`: one backward pass over the fingerprints
    /// it carries. Root last in the arena, so from the end the first match
    /// is the largest; a match hides its subtree, and a `ScanView` under
    /// its canonical name is a match already made, not a new one. This is
    /// what replacing the last match and scanning again, to a fixpoint,
    /// finds: a replaced node's consumers keep their fingerprints.
    fn match_exact(&mut self, wanted: &[u64]) {
        let mut hidden: Vec<bool> = Vec::new();
        for (i, node) in self.base.nodes().iter().enumerate().rev() {
            if hidden.get(i).copied().unwrap_or(false) {
                for input in &node.inputs {
                    hidden[input.raw() as usize] = true;
                }
                continue;
            }
            let fp = self.base.fingerprints()[i];
            let already = || {
                matches!(&node.op, Operator::ScanView { view, .. }
                    if parse_view_fingerprint(view).is_some())
            };
            if wanted.binary_search(&fp.0).is_err() || already() {
                continue;
            }
            self.scans.push(node.id);
            self.used.push(fp.view_name());
            hidden.resize(self.base.len(), false);
            for input in &node.inputs {
                hidden[input.raw() as usize] = true;
            }
        }
    }
}

/// The fingerprints canonical view names spell, sorted: a name that is not
/// canonical can match no node.
fn wanted_of(available: &HashSet<String>) -> Vec<u64> {
    let mut wanted: Vec<u64> = available
        .iter()
        .filter_map(|name| parse_view_fingerprint(name))
        .collect();
    wanted.sort_unstable();
    wanted
}

/// Rewrites `plan` over the views in `available`, using both exact semantic
/// matches and filter-containment matches with compensation (see
/// [`crate::containment`]). The catalog supplies view structure for the
/// containment pass; exact matches are always preferred.
pub fn rewrite_with_catalog(
    plan: &LogicalPlan,
    available: &HashSet<String>,
    catalog: &ViewCatalog,
) -> Rewrite {
    rewrite_over(
        plan,
        &wanted_of(available),
        &filter_views(catalog, available),
    )
}

/// Rewrites `plan` over the views in `available` (canonical view names).
///
/// Returns the rewritten plan and which views it uses. Scanning an available
/// view is always preferred over recomputing the subtree; when nested
/// matches exist the outermost wins.
pub fn rewrite_with_views(plan: &LogicalPlan, available: &HashSet<String>) -> Rewrite {
    rewrite_over(plan, &wanted_of(available), &[])
}

/// The rewrite both entry points run, over views given as the sorted
/// fingerprints their canonical names spell (`wanted`) and the
/// filter-over-base forms of those that have one (`fviews`, in name order;
/// empty for exact matching only). A caller that probes many view sets —
/// the tuner — keeps both per view instead of per call.
pub fn rewrite_over(plan: &LogicalPlan, wanted: &[u64], fviews: &[&FilterView]) -> Rewrite {
    let mut rewrite = Rewrite {
        used: Vec::new(),
        base: plan.clone(),
        scans: Vec::new(),
    };
    rewrite.match_exact(wanted);
    if fviews.is_empty() {
        return rewrite;
    }
    // Alternate containment and exact passes to fixpoint (each containment
    // application strictly shrinks the plan or its conjunct count).
    for _ in 0..32 {
        // Search the plan the pending scans would build: a node they hide is
        // gone, a node they replace is a scan, and a surviving filter keeps
        // its input's fingerprint. Skip "matches" that exact rewriting
        // already declined (a ScanView of the same name is already in
        // place).
        let hidden = rewrite.base.strictly_below(rewrite.scans.iter().copied());
        let live = |id: NodeId| !hidden[id.raw() as usize] && !rewrite.scans.contains(&id);
        let Some(mut m) =
            containment_matches(&rewrite.base, fviews, live).find(|m| m.residual.is_some())
        else {
            break;
        };
        // Its id in the built plan: the nodes kept before it.
        let kept_before = hidden[..m.node.raw() as usize]
            .iter()
            .filter(|h| !**h)
            .count();
        m.node = NodeId(kept_before as u64);
        let Ok(applied) = apply_containment(&rewrite.plan(), &m) else {
            break;
        };
        rewrite.used.push(m.view);
        rewrite.base = applied;
        rewrite.scans.clear();
        // New exact opportunities may open above the spliced scan.
        rewrite.match_exact(wanted);
    }
    rewrite
}

#[cfg(test)]
mod tests {
    use super::*;
    use miso_common::ids::NodeId;
    use miso_data::DataType;
    use miso_plan::{AggExpr, AggFunc, Expr, PlanBuilder};

    /// scan → project(uid) → filter(uid = k) → aggregate(count)
    fn plan(k: i64) -> LogicalPlan {
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
                    exprs: vec![(
                        "uid".into(),
                        Expr::col(0).get("user_id").cast(DataType::Int),
                    )],
                },
                vec![scan],
            )
            .unwrap();
        let filt = b
            .add(
                Operator::Filter {
                    predicate: Expr::col(0).eq(Expr::lit(k)),
                },
                vec![proj],
            )
            .unwrap();
        let agg = b
            .add(
                Operator::Aggregate {
                    group_by: vec![],
                    aggs: vec![AggExpr::new(AggFunc::Count, None, "n")],
                },
                vec![filt],
            )
            .unwrap();
        b.finish(agg).unwrap()
    }

    fn name_of(plan: &LogicalPlan, id: NodeId) -> String {
        plan.fingerprint(id).view_name()
    }

    #[test]
    fn no_views_no_change() {
        let p = plan(1);
        let rw = rewrite_with_views(&p, &HashSet::new());
        assert!(rw.used.is_empty());
        assert_eq!(rw.plan(), p);
    }

    #[test]
    fn matching_subtree_is_replaced() {
        let p = plan(1);
        let filt_view = name_of(&p, NodeId(2));
        let available: HashSet<String> = [filt_view.clone()].into_iter().collect();
        let rw = rewrite_with_views(&p, &available);
        assert_eq!(rw.used, vec![filt_view.clone()]);
        assert_eq!(rw.plan().len(), 2, "ScanView + Aggregate");
        assert_eq!(rw.plan().scanned_views(), vec![filt_view]);
        assert_eq!(rw.plan().schema(), p.schema());
    }

    #[test]
    fn outermost_match_wins() {
        let p = plan(1);
        let proj_view = name_of(&p, NodeId(1));
        let filt_view = name_of(&p, NodeId(2));
        let available: HashSet<String> = [proj_view, filt_view.clone()].into_iter().collect();
        let rw = rewrite_with_views(&p, &available);
        assert_eq!(rw.used, vec![filt_view], "larger subtree preferred");
        assert_eq!(rw.plan().len(), 2);
    }

    #[test]
    fn non_matching_views_are_ignored() {
        let p = plan(1);
        let other = name_of(&plan(2), NodeId(2));
        let available: HashSet<String> = [other].into_iter().collect();
        let rw = rewrite_with_views(&p, &available);
        assert!(rw.used.is_empty());
    }

    #[test]
    fn whole_plan_match_collapses_to_single_scan() {
        let p = plan(3);
        let root_view = p.fingerprint(p.root()).view_name();
        let available: HashSet<String> = [root_view.clone()].into_iter().collect();
        let rw = rewrite_with_views(&p, &available);
        assert_eq!(rw.plan().len(), 1);
        assert!(matches!(
            rw.plan().root_node().op,
            Operator::ScanView { .. }
        ));
        assert_eq!(rw.used, vec![root_view]);
    }

    #[test]
    fn rewrite_is_idempotent_over_scan_views() {
        let p = plan(4);
        let root_view = p.fingerprint(p.root()).view_name();
        let available: HashSet<String> = [root_view].into_iter().collect();
        let rw1 = rewrite_with_views(&p, &available);
        let rw2 = rewrite_with_views(&rw1.plan(), &available);
        assert!(rw2.used.is_empty(), "no infinite self-replacement");
        assert_eq!(rw2.plan(), rw1.plan());
    }

    #[test]
    fn multiple_branches_both_rewritten() {
        // join of two identical-shape branches over different logs
        let mut b = PlanBuilder::new();
        let s1 = b
            .add(
                Operator::ScanLog {
                    log: "twitter".into(),
                },
                vec![],
            )
            .unwrap();
        let p1 = b
            .add(
                Operator::Project {
                    exprs: vec![(
                        "uid".into(),
                        Expr::col(0).get("user_id").cast(DataType::Int),
                    )],
                },
                vec![s1],
            )
            .unwrap();
        let s2 = b
            .add(
                Operator::ScanLog {
                    log: "foursquare".into(),
                },
                vec![],
            )
            .unwrap();
        let p2 = b
            .add(
                Operator::Project {
                    exprs: vec![(
                        "uid".into(),
                        Expr::col(0).get("user_id").cast(DataType::Int),
                    )],
                },
                vec![s2],
            )
            .unwrap();
        let j = b
            .add(Operator::Join { on: vec![(0, 0)] }, vec![p1, p2])
            .unwrap();
        let p = b.finish(j).unwrap();
        let v1 = name_of(&p, NodeId(1));
        let v2 = name_of(&p, NodeId(3));
        let available: HashSet<String> = [v1.clone(), v2.clone()].into_iter().collect();
        let rw = rewrite_with_views(&p, &available);
        assert_eq!(rw.used.len(), 2);
        assert_eq!(rw.plan().len(), 3, "two ScanViews + Join");
        let mut scanned = rw.plan().scanned_views();
        scanned.sort();
        let mut expect = vec![v1, v2];
        expect.sort();
        assert_eq!(scanned, expect);
    }
}
