//! Delta maintainability analysis for materialized views.
//!
//! Given a view's defining plan and what just grew — the base log, and the
//! views the plan scans that maintenance already refreshed in this batch —
//! this module decides whether the view can be maintained **incrementally**
//! from the appended delta, and if so produces the rewritten *delta plan*
//! the executor runs over just the new rows. The per-operator algebra (for
//! append-only deltas; logs never see in-place updates):
//!
//! | operator            | delta rule                                       |
//! |---------------------|--------------------------------------------------|
//! | `ScanLog` (changed) | Δout = parse(Δlines)                             |
//! | `ScanView` (parent appended to in this batch) | Δout = the parent's Δrows |
//! | `ScanView` (parent patched or rebuilt) | **full refresh** from the refreshed parent |
//! | `Filter`/`Project`/`Udf` | per-record: Δout = op(Δin)                  |
//! | `Join` (Δ on probe/left side) | Δout = Δleft ⋈ stored build side       |
//! | `Join` (Δ on build/right side) | **full refresh** (output interleaves) |
//! | `Aggregate` (topmost, under `Project`s only) | fold Δin into the open-morsel state |
//! | `Aggregate` (mid-plan), `Sort`, `Limit` | **full refresh**             |
//!
//! An aggregate may sit under a chain of `Project`s (lowering always adds a
//! final SELECT-list projection): projects are 1:1 per row, so a group
//! update stays position-stable through them — the maintainer re-evaluates
//! the projection over just the changed aggregate rows and patches the view
//! in place. A `Filter` above the aggregate would *remove* rows when a
//! group's updated value leaves the predicate, which append-only
//! maintenance cannot express — full refresh.
//!
//! The rules are chosen so a delta-applied view is **bit-identical** to a
//! full rebuild, not merely set-equal: the engine emits join output in
//! left-row × right-insertion order and aggregate groups in first-seen
//! order, both of which are prefix-stable under appends to the probe side.
//! A delta on the build side would interleave new matches among old output
//! rows, and a mid-plan aggregate would feed *changed* (not appended) rows
//! downstream — both fall back to recomputation, with the reason reported.
//! For the same reason a view over a parent that was *patched* (an
//! aggregate) or rebuilt has no Δrows to take and rebuilds from the
//! refreshed parent.
//!
//! Every aggregate folds, float accumulation (`AVG`, `SUM` over floats)
//! included: IEEE 754 addition is not associative, but the fold state
//! (`miso_exec::AggState`) keeps the engine's own morsel structure — the
//! merged complete morsels and the open one — and so adds the same partial
//! sums in the same order as a rebuild over the grown input.

use miso_common::ids::NodeId;
use miso_plan::expr::{AggExpr, Expr};
use miso_plan::{Fingerprint, LogicalPlan, Operator, PlanBuilder};
use std::collections::HashSet;

/// Name of the synthetic `ScanView` leaf standing in for a join's stored
/// build side in a delta plan. The `§` prefix keeps it disjoint from real
/// view names (fingerprint strings); `view` is the *defining* plan's root
/// fingerprint and `node` the right input's id in it, so no two views'
/// build sides share a name — a sub-plan memo keys a view scan by it.
pub fn build_side_name(view: Fingerprint, node: NodeId) -> String {
    format!("§ivm:{view}:{}", node.raw())
}

/// A join build side the maintainer must snapshot: the right input's rows,
/// captured when maintenance state is built and probed on every delta.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BuildSide {
    /// The right input node in the defining plan.
    pub node: NodeId,
    /// The `ScanView` name the delta plan references it by.
    pub name: String,
}

/// How a view that a plan scans changed in the current append batch.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ViewChange {
    /// Not derived from the grown log (or not refreshed): reads as before.
    Unchanged,
    /// Rows were appended at its end and nothing else moved.
    Appended,
    /// Patched in place or rebuilt: there is no delta to take from it.
    Rewritten,
}

/// A per-record delta pipeline: run `plan` over just the delta (join build
/// sides resolved from stored state) and append its output rows to the
/// view.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DeltaAppend {
    /// The rewritten delta plan (build sides replaced by `ScanView`s).
    pub plan: LogicalPlan,
    /// The scanned view whose Δrows of this batch are the delta; `None`
    /// when the delta is the log's appended lines.
    pub parent: Option<String>,
    /// Build sides the plan references, in first-use order (deduplicated).
    pub builds: Vec<BuildSide>,
}

/// A topmost-aggregate fold: run `input` over the delta, fold its rows
/// into the view's stored accumulator state, then push the changed
/// aggregate rows through the `post` projection layers and patch the view.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DeltaAggregate {
    /// Delta pipeline for the aggregate's input subtree.
    pub input: DeltaAppend,
    /// The aggregate node in the defining plan.
    pub agg: NodeId,
    /// Grouping columns.
    pub group_by: Vec<usize>,
    /// Aggregates computed per group.
    pub aggs: Vec<AggExpr>,
    /// Projection layers between the aggregate and the root, bottom-up
    /// (often exactly one: the lowered SELECT-list projection). Each layer
    /// maps one aggregate output row to one view row.
    pub post: Vec<Vec<(String, Expr)>>,
}

/// How a view can be maintained from an append-only delta.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum MaintPlan {
    /// Delta rows append to the stored view.
    Append(DeltaAppend),
    /// Delta rows fold into stored aggregate state.
    Aggregate(Box<DeltaAggregate>),
}

impl MaintPlan {
    /// The delta pipeline to execute (the aggregate's input for folds).
    pub fn delta_plan(&self) -> &LogicalPlan {
        &self.input().plan
    }

    /// The per-record pipeline under the fold (the whole plan for appends).
    pub fn input(&self) -> &DeltaAppend {
        match self {
            MaintPlan::Append(a) => a,
            MaintPlan::Aggregate(a) => &a.input,
        }
    }

    /// Build sides the delta pipeline references.
    pub fn builds(&self) -> &[BuildSide] {
        &self.input().builds
    }
}

/// Why a view must be fully recomputed instead of delta-maintained. The
/// first four are structural (decided from the plan and how its scanned
/// views are maintained); the rest are
/// runtime policy decisions made by the maintenance layer and carried here
/// so reports use one vocabulary.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FullReason {
    /// The view does not scan the changed log at all.
    Unaffected,
    /// The view scans a view that was patched or rebuilt in this batch, so
    /// it rebuilds from the refreshed parent.
    ViewOverView,
    /// An operator on the delta path has no append-only delta rule.
    NonMaintainableOp(String),
    /// The changed log feeds a join's build (right) side.
    DeltaOnBuildSide,
    /// Policy: the delta is too large a fraction of the base for the
    /// delta path to win.
    DeltaTooLarge {
        /// Rows in the delta batch.
        delta_rows: u64,
        /// Rows in the base log before the append.
        base_rows: u64,
    },
    /// The view is quarantined; repair goes through the integrity path.
    Quarantined,
    /// No maintenance state yet — this refresh builds it (warm-up).
    StateCold,
    /// Stored maintenance state disagrees with the catalog checksum.
    StateStale,
}

impl std::fmt::Display for FullReason {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FullReason::Unaffected => write!(f, "view does not scan the changed log"),
            FullReason::ViewOverView => write!(f, "view scans a patched or rebuilt view"),
            FullReason::NonMaintainableOp(op) => write!(f, "non-maintainable operator {op}"),
            FullReason::DeltaOnBuildSide => write!(f, "delta reaches a join build side"),
            FullReason::DeltaTooLarge {
                delta_rows,
                base_rows,
            } => write!(f, "delta too large ({delta_rows} rows vs {base_rows} base)"),
            FullReason::Quarantined => write!(f, "view is quarantined"),
            FullReason::StateCold => write!(f, "no maintenance state yet"),
            FullReason::StateStale => write!(f, "maintenance state out of date"),
        }
    }
}

impl FullReason {
    /// Short machine-readable tag for reports and trace spans.
    pub fn tag(&self) -> &'static str {
        self.names().0
    }

    /// The `maint.full.<tag>` counter that tallies this reason.
    pub fn counter(&self) -> &'static str {
        self.names().1
    }

    fn names(&self) -> (&'static str, &'static str) {
        match self {
            FullReason::Unaffected => ("unaffected", "maint.full.unaffected"),
            FullReason::ViewOverView => ("view_over_view", "maint.full.view_over_view"),
            FullReason::NonMaintainableOp(_) => {
                ("non_maintainable_op", "maint.full.non_maintainable_op")
            }
            FullReason::DeltaOnBuildSide => {
                ("delta_on_build_side", "maint.full.delta_on_build_side")
            }
            FullReason::DeltaTooLarge { .. } => ("delta_too_large", "maint.full.delta_too_large"),
            FullReason::Quarantined => ("quarantined", "maint.full.quarantined"),
            FullReason::StateCold => ("state_cold", "maint.full.state_cold"),
            FullReason::StateStale => ("state_stale", "maint.full.state_stale"),
        }
    }

    /// Whether this full refresh is a *fallback* — the plan shape is
    /// maintainable but a runtime condition forced recomputation this time.
    pub fn is_fallback(&self) -> bool {
        matches!(
            self,
            FullReason::DeltaTooLarge { .. }
                | FullReason::Quarantined
                | FullReason::StateCold
                | FullReason::StateStale
        )
    }
}

/// Classifies how (whether) `plan` can be maintained when `changed_log`
/// grows by an append-only delta and the views it scans changed as
/// `view_change` says. On success, the returned [`MaintPlan`] carries the
/// rewritten delta pipeline; on failure, the [`FullReason`] says exactly
/// why a full recomputation is required.
pub fn analyze_maintenance(
    plan: &LogicalPlan,
    changed_log: &str,
    view_change: &dyn Fn(&str) -> ViewChange,
) -> Result<MaintPlan, FullReason> {
    let reachable = plan.descendants(plan.root());
    // Taint pass: a node is tainted iff its subtree scans the changed log.
    // Arena order is topological, so one forward sweep suffices.
    let mut tainted: HashSet<NodeId> = HashSet::new();
    for node in plan.nodes() {
        if !reachable.contains(&node.id) {
            continue;
        }
        let t = match &node.op {
            Operator::ScanLog { log } => log == changed_log,
            Operator::ScanView { view, .. } => match view_change(view) {
                ViewChange::Unchanged => false,
                ViewChange::Appended => true,
                ViewChange::Rewritten => return Err(FullReason::ViewOverView),
            },
            _ => node.inputs.iter().any(|i| tainted.contains(i)),
        };
        if t {
            tainted.insert(node.id);
        }
    }
    if !tainted.contains(&plan.root()) {
        return Err(FullReason::Unaffected);
    }
    // Rule pass: every tainted (delta-path) operator must have a delta rule.
    let root = plan.root();
    let mut tainted_aggs: Vec<NodeId> = Vec::new();
    for node in plan.nodes() {
        if !tainted.contains(&node.id) {
            continue;
        }
        match &node.op {
            Operator::ScanLog { .. }
            | Operator::ScanView { .. }
            | Operator::Filter { .. }
            | Operator::Project { .. }
            | Operator::Udf { .. } => {}
            Operator::Join { .. } => {
                if tainted.contains(&node.inputs[1]) {
                    return Err(FullReason::DeltaOnBuildSide);
                }
            }
            Operator::Aggregate { .. } => tainted_aggs.push(node.id),
            op @ (Operator::Sort { .. } | Operator::Limit { .. }) => {
                return Err(FullReason::NonMaintainableOp(op.label()));
            }
        }
    }
    // At most one aggregate, and it must hang off the root through a chain
    // of per-row projections (the lowered SELECT-list projection): a group
    // update then stays position-stable all the way to the stored view.
    type AggSpine = (NodeId, Vec<usize>, Vec<AggExpr>, Vec<Vec<(String, Expr)>>);
    let root_agg: Option<AggSpine> = match tainted_aggs.as_slice() {
        [] => None,
        [agg] => {
            let mut post: Vec<Vec<(String, Expr)>> = Vec::new();
            let mut cur = root;
            while cur != *agg {
                match &plan.node(cur).op {
                    Operator::Project { exprs } => {
                        post.push(exprs.clone());
                        cur = plan.node(cur).inputs[0];
                    }
                    op => {
                        return Err(FullReason::NonMaintainableOp(format!(
                            "{} above the aggregate",
                            op.label()
                        )))
                    }
                }
            }
            post.reverse();
            let Operator::Aggregate { group_by, aggs } = &plan.node(*agg).op else {
                unreachable!("collected from Aggregate arms only");
            };
            Some((*agg, group_by.clone(), aggs.clone(), post))
        }
        _ => {
            return Err(FullReason::NonMaintainableOp(
                "multiple aggregates on the delta path".into(),
            ))
        }
    };
    // Rewrite pass: copy the tainted spine below the aggregate (or the
    // whole spine for per-record views), replacing every join's (clean)
    // build side with a ScanView over the stored snapshot. The aggregate
    // and its post-projections are not part of the delta plan — the fold
    // into stored accumulators happens outside the engine.
    let delta_root = match &root_agg {
        Some((agg, ..)) => plan.node(*agg).inputs[0],
        None => root,
    };
    let skip_above: HashSet<NodeId> = match &root_agg {
        Some((agg, ..)) => {
            let below = plan.descendants(*agg);
            tainted
                .iter()
                .copied()
                .filter(|id| *id == *agg || !below.contains(id))
                .collect()
        }
        None => HashSet::new(),
    };
    let view = plan.fingerprint(root);
    let mut b = PlanBuilder::new();
    let mut mapping = std::collections::HashMap::new();
    let mut builds: Vec<BuildSide> = Vec::new();
    // Joins only ever carry the delta on their left, so the tainted spine
    // ends in exactly one leaf: the log, or one appended-to view.
    let mut parent = None;
    let fail = |e: miso_common::MisoError| {
        FullReason::NonMaintainableOp(format!("delta plan construction: {e}"))
    };
    for node in plan.nodes() {
        if !tainted.contains(&node.id) || skip_above.contains(&node.id) {
            continue;
        }
        let new_id = match &node.op {
            Operator::Join { on } => {
                let left = mapping[&node.inputs[0]];
                let right = plan.node(node.inputs[1]);
                let name = build_side_name(view, right.id);
                if !builds.iter().any(|bs| bs.node == right.id) {
                    builds.push(BuildSide {
                        node: right.id,
                        name: name.clone(),
                    });
                }
                let rv = b
                    .add(
                        Operator::ScanView {
                            view: name,
                            schema: right.schema.clone(),
                        },
                        vec![],
                    )
                    .map_err(fail)?;
                b.add(Operator::Join { on: on.clone() }, vec![left, rv])
                    .map_err(fail)?
            }
            op => {
                if let Operator::ScanView { view, .. } = op {
                    parent = Some(view.clone());
                }
                let inputs: Vec<NodeId> = node.inputs.iter().map(|i| mapping[i]).collect();
                b.add(op.clone(), inputs).map_err(fail)?
            }
        };
        mapping.insert(node.id, new_id);
    }
    let delta_plan = b.finish(mapping[&delta_root]).map_err(fail)?;
    let append = DeltaAppend {
        plan: delta_plan,
        parent,
        builds,
    };
    Ok(match root_agg {
        Some((agg, group_by, aggs, post)) => MaintPlan::Aggregate(Box::new(DeltaAggregate {
            input: append,
            agg,
            group_by,
            aggs,
            post,
        })),
        None => MaintPlan::Append(append),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use miso_lang::{compile, Catalog};

    fn plan(sql: &str) -> LogicalPlan {
        compile(sql, &Catalog::standard()).expect("compiles")
    }

    /// Only the log grew; no scanned view changed.
    fn analyze(plan: &LogicalPlan, log: &str) -> Result<MaintPlan, FullReason> {
        analyze_maintenance(plan, log, &|_| ViewChange::Unchanged)
    }

    #[test]
    fn per_record_pipeline_is_appendable() {
        let p =
            plan("SELECT t.user_id AS uid, t.city AS city FROM twitter t WHERE t.followers > 10");
        match analyze(&p, "twitter") {
            Ok(MaintPlan::Append(a)) => {
                assert!(a.builds.is_empty());
                assert_eq!(a.plan.schema().names(), p.schema().names());
                assert_eq!(a.plan.base_logs(), vec!["twitter"]);
            }
            other => panic!("expected Append, got {other:?}"),
        }
    }

    #[test]
    fn unaffected_log_is_reported() {
        let p = plan("SELECT t.city AS city FROM twitter t");
        assert_eq!(analyze(&p, "landmarks"), Err(FullReason::Unaffected));
    }

    #[test]
    fn root_aggregate_folds() {
        let p = plan(
            "SELECT t.city AS city, COUNT(*) AS n, MIN(t.followers) AS lo \
             FROM twitter t GROUP BY t.city",
        );
        match analyze(&p, "twitter") {
            Ok(MaintPlan::Aggregate(a)) => {
                assert_eq!(a.group_by, vec![0]);
                assert_eq!(a.aggs.len(), 2);
                // The delta plan is the aggregate's input, not the aggregate.
                assert!(!a
                    .input
                    .plan
                    .nodes()
                    .iter()
                    .any(|n| matches!(n.op, Operator::Aggregate { .. })));
            }
            other => panic!("expected Aggregate, got {other:?}"),
        }
    }

    #[test]
    fn probe_side_join_delta_is_maintainable_build_side_is_not() {
        let sql = "SELECT t.city AS city, COUNT(*) AS n FROM twitter t \
                   JOIN foursquare f ON t.user_id = f.user_id GROUP BY t.city";
        let p = plan(sql);
        // Twitter is the left (probe) side: maintainable with one build.
        match analyze(&p, "twitter") {
            Ok(mp @ MaintPlan::Aggregate(_)) => {
                assert_eq!(mp.builds().len(), 1);
                let dp = mp.delta_plan();
                assert_eq!(dp.scanned_views(), vec![mp.builds()[0].name.clone()]);
                assert_eq!(dp.base_logs(), vec!["twitter"]);
            }
            other => panic!("expected Aggregate, got {other:?}"),
        }
        // Foursquare feeds the build side: full refresh.
        assert_eq!(analyze(&p, "foursquare"), Err(FullReason::DeltaOnBuildSide));
    }

    #[test]
    fn order_sensitive_shapes_fall_back() {
        let sorted = plan("SELECT t.city AS city FROM twitter t ORDER BY t.city");
        assert!(matches!(
            analyze(&sorted, "twitter"),
            Err(FullReason::NonMaintainableOp(_))
        ));
    }

    #[test]
    fn float_aggregates_fold_like_any_other() {
        for sql in [
            "SELECT AVG(t.followers) AS a FROM twitter t",
            "SELECT SUM(t.sentiment) AS s FROM twitter t",
            "SELECT SUM(t.retweets) AS s FROM twitter t",
        ] {
            assert!(
                matches!(analyze(&plan(sql), "twitter"), Ok(MaintPlan::Aggregate(_))),
                "{sql}"
            );
        }
    }

    /// A view over a view takes the parent's Δrows when the parent was
    /// appended to, rebuilds when it was patched or rebuilt, and is
    /// untouched when the parent is.
    #[test]
    fn a_scanned_view_is_a_delta_source_only_when_appended_to() {
        let p = plan(
            "SELECT t.city AS city, COUNT(*) AS n FROM twitter t \
             WHERE t.followers > 10 GROUP BY t.city",
        );
        let filter = p
            .nodes()
            .iter()
            .find(|n| matches!(n.op, Operator::Filter { .. }))
            .unwrap()
            .id;
        let over_view = p.replace_with_view(filter, "v_x").unwrap();
        assert!(over_view.base_logs().is_empty());
        let change =
            |c: ViewChange| move |v: &str| if v == "v_x" { c } else { ViewChange::Unchanged };
        match analyze_maintenance(&over_view, "twitter", &change(ViewChange::Appended)) {
            Ok(mp @ MaintPlan::Aggregate(_)) => {
                assert_eq!(mp.input().parent.as_deref(), Some("v_x"));
                assert_eq!(mp.delta_plan().scanned_views(), vec!["v_x"]);
                assert!(mp.builds().is_empty());
            }
            other => panic!("expected Aggregate, got {other:?}"),
        }
        assert_eq!(
            analyze_maintenance(&over_view, "twitter", &change(ViewChange::Rewritten)),
            Err(FullReason::ViewOverView)
        );
        assert_eq!(
            analyze_maintenance(&over_view, "twitter", &change(ViewChange::Unchanged)),
            Err(FullReason::Unaffected)
        );
        // The log's own delta has no parent.
        assert_eq!(analyze(&p, "twitter").unwrap().input().parent, None);
    }

    #[test]
    fn reason_tags_are_stable() {
        assert_eq!(FullReason::DeltaOnBuildSide.tag(), "delta_on_build_side");
        assert_eq!(FullReason::StateCold.counter(), "maint.full.state_cold");
        assert!(FullReason::StateCold.is_fallback());
        assert!(!FullReason::DeltaOnBuildSide.is_fallback());
        assert!(FullReason::DeltaTooLarge {
            delta_rows: 10,
            base_rows: 20
        }
        .is_fallback());
        let text = format!(
            "{}",
            FullReason::DeltaTooLarge {
                delta_rows: 10,
                base_rows: 20
            }
        );
        assert!(text.contains("10 rows"));
    }
}
