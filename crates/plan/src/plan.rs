//! Plan DAGs.
//!
//! A [`LogicalPlan`] is an arena of [`PlanNode`]s in topological order
//! (inputs always precede consumers) with a designated root. The arena form
//! makes the multistore analyses cheap: split enumeration walks node sets,
//! view rewriting replaces a subtree with a `ScanView` leaf, and fingerprints
//! memoize per node.

use crate::fingerprint::{digest_arena, parse_view_fingerprint, Digests, Fingerprint};
use crate::op::Operator;
use miso_common::ids::NodeId;
use miso_common::{MisoError, Result};
use miso_data::Schema;
use std::collections::HashSet;
use std::fmt;
use std::sync::Arc;

/// One node of a plan DAG.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PlanNode {
    /// This node's id (== its index in the arena).
    pub id: NodeId,
    /// The operator.
    pub op: Operator,
    /// Input node ids (length = `op.input_arity()`).
    pub inputs: Vec<NodeId>,
    /// Output schema, derived at construction.
    pub schema: Schema,
}

/// An immutable logical plan. The arena is shared, so a clone — the
/// optimizer's per-variant candidates, a rewrite that found nothing to
/// replace, the tuner's history window — copies no node.
///
/// The plan also carries its digests: every node's fingerprint and every
/// filter's conjunct digests, computed once when the arena is built and
/// shared by clones. A plan derived from this one keeps the digests of the
/// nodes it keeps ([`LogicalPlan::subplan`], and
/// [`LogicalPlan::replace_with_views`] when each new scan is named after the
/// subtree it replaces, since a scan of `v_X` fingerprints as `X`). The
/// digests are a function of the nodes, so `==` and `{:?}` ignore them.
#[derive(Clone)]
pub struct LogicalPlan {
    nodes: Arc<[PlanNode]>,
    root: NodeId,
    digests: Arc<Digests>,
}

impl PartialEq for LogicalPlan {
    fn eq(&self, other: &Self) -> bool {
        self.nodes == other.nodes && self.root == other.root
    }
}

impl Eq for LogicalPlan {}

impl fmt::Debug for LogicalPlan {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("LogicalPlan")
            .field("nodes", &self.nodes)
            .field("root", &self.root)
            .finish()
    }
}

impl LogicalPlan {
    /// The root node id.
    pub fn root(&self) -> NodeId {
        self.root
    }

    /// The root node.
    pub fn root_node(&self) -> &PlanNode {
        self.node(self.root)
    }

    /// Node lookup.
    pub fn node(&self, id: NodeId) -> &PlanNode {
        &self.nodes[id.raw() as usize]
    }

    /// All nodes in topological order (inputs before consumers).
    pub fn nodes(&self) -> &[PlanNode] {
        &self.nodes
    }

    /// Node count.
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// True iff the plan has no nodes (never constructible via the builder).
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// The output schema of the whole plan.
    pub fn schema(&self) -> &Schema {
        &self.root_node().schema
    }

    /// Every node's fingerprint in arena order (a node's id is its index),
    /// as computed when the arena was built.
    pub fn fingerprints(&self) -> &[Fingerprint] {
        &self.digests.fps
    }

    /// The fingerprint of the subtree rooted at `id`.
    pub fn fingerprint(&self, id: NodeId) -> Fingerprint {
        self.digests.fps[id.raw() as usize]
    }

    /// The digests of filter `id`'s conjuncts, in predicate order (empty
    /// for any other operator).
    pub fn conjunct_digests(&self, id: NodeId) -> &[u64] {
        self.digests.conjuncts(id.raw() as usize)
    }

    /// Ids of all nodes in the subtree rooted at `id` (including `id`).
    pub fn descendants(&self, id: NodeId) -> HashSet<NodeId> {
        let mut seen = HashSet::new();
        let mut stack = vec![id];
        while let Some(n) = stack.pop() {
            if seen.insert(n) {
                stack.extend(self.node(n).inputs.iter().copied());
            }
        }
        seen
    }

    /// Whether any node in the subtree rooted at `id` is HV-pinned (a UDF).
    pub fn subtree_has_udf(&self, id: NodeId) -> bool {
        self.descendants(id)
            .iter()
            .any(|&n| self.node(n).op.hv_only())
    }

    /// Whether the whole plan references any UDF.
    pub fn has_udf(&self) -> bool {
        self.subtree_has_udf(self.root)
    }

    /// The base logs this plan scans (deduplicated, sorted).
    pub fn base_logs(&self) -> Vec<String> {
        let mut logs: Vec<String> = self
            .nodes
            .iter()
            .filter_map(|n| match &n.op {
                Operator::ScanLog { log } => Some(log.clone()),
                _ => None,
            })
            .collect();
        logs.sort();
        logs.dedup();
        logs
    }

    /// The views this plan scans (after rewriting).
    pub fn scanned_views(&self) -> Vec<String> {
        let mut views: Vec<String> = self
            .nodes
            .iter()
            .filter_map(|n| match &n.op {
                Operator::ScanView { view, .. } => Some(view.clone()),
                _ => None,
            })
            .collect();
        views.sort();
        views.dedup();
        views
    }

    /// Extracts the subtree rooted at `id` as a standalone plan.
    pub fn subplan(&self, id: NodeId) -> LogicalPlan {
        self.rebuild(&self.subtree(id), &[], id)
            .expect("a subtree of a valid plan is closed")
    }

    /// Where [`LogicalPlan::subplan`]`(id)`'s nodes sit in this plan: its
    /// node `k` is this plan's `subplan_nodes(id)[k]`.
    pub fn subplan_nodes(&self, id: NodeId) -> Vec<NodeId> {
        let keep = self.subtree(id);
        let kept = keep.iter().enumerate().filter(|&(_, &k)| k);
        kept.map(|(i, _)| NodeId(i as u64)).collect()
    }

    /// Marks, by node index, `id` and every node below it.
    fn subtree(&self, id: NodeId) -> Vec<bool> {
        let mut keep = self.strictly_below([id]);
        keep[id.raw() as usize] = true;
        keep
    }

    /// Returns a new plan in which the subtree rooted at `target` is replaced
    /// by a `ScanView` leaf over `view_name` (whose schema must equal the
    /// replaced node's schema — the caller, i.e. the rewriter, guarantees
    /// semantic equivalence).
    pub fn replace_with_view(&self, target: NodeId, view_name: &str) -> Result<LogicalPlan> {
        self.replace_with_views(&[(target, view_name)])
    }

    /// [`LogicalPlan::replace_with_view`] for several `(target, view)`
    /// pairs at once, no target inside another's subtree: the plan that
    /// replacing them one after another would build.
    pub fn replace_with_views(&self, targets: &[(NodeId, &str)]) -> Result<LogicalPlan> {
        let dropped = self.strictly_below(targets.iter().map(|&(target, _)| target));
        let keep: Vec<bool> = dropped.iter().map(|d| !d).collect();
        self.rebuild(&keep, targets, self.root)
    }

    /// Marks, by node index, the nodes strictly inside the subtrees rooted
    /// at `tops` (the tops themselves unmarked unless below another).
    pub fn strictly_below(&self, tops: impl IntoIterator<Item = NodeId>) -> Vec<bool> {
        let mut top = vec![false; self.len()];
        for t in tops {
            top[t.raw() as usize] = true;
        }
        let mut below = vec![false; self.len()];
        // Consumers come after their inputs, so one backward pass suffices.
        for (i, node) in self.nodes.iter().enumerate().rev() {
            if top[i] || below[i] {
                for input in &node.inputs {
                    below[input.raw() as usize] = true;
                }
            }
        }
        below
    }

    /// The nodes `keep` marks, renumbered in arena order, each of `scans`
    /// turned into a scan of the named view under the schema it replaces;
    /// `root` is the old id of the new root. Kept nodes keep their digests
    /// unless a scan is named after anything but the subtree it replaces —
    /// that changes its consumers' fingerprints, so the new arena is then
    /// digested afresh.
    fn rebuild(
        &self,
        keep: &[bool],
        scans: &[(NodeId, &str)],
        root: NodeId,
    ) -> Result<LogicalPlan> {
        let mut mapping: Vec<Option<NodeId>> = vec![None; self.len()];
        let mut nodes: Vec<PlanNode> = Vec::with_capacity(keep.iter().filter(|&&k| k).count());
        let mut digests = Digests::default();
        let mut carried = true;
        for (i, node) in self.nodes.iter().enumerate() {
            if !keep[i] {
                continue;
            }
            let fp = self.digests.fps[i];
            let (op, inputs, conjuncts) = match scans.iter().find(|(t, _)| *t == node.id) {
                Some(&(_, view)) => {
                    carried &= parse_view_fingerprint(view) == Some(fp.0);
                    let scan = Operator::ScanView {
                        view: view.to_string(),
                        schema: node.schema.clone(),
                    };
                    (scan, Vec::new(), &[][..])
                }
                None => {
                    let inputs = node
                        .inputs
                        .iter()
                        .map(|input| {
                            mapping[input.raw() as usize].ok_or_else(|| {
                                MisoError::Plan(format!(
                                    "node {input} consumed by multiple branches was dropped"
                                ))
                            })
                        })
                        .collect::<Result<_>>()?;
                    (node.op.clone(), inputs, self.digests.conjuncts(i))
                }
            };
            let id = NodeId(nodes.len() as u64);
            mapping[i] = Some(id);
            digests.push(fp, conjuncts);
            nodes.push(PlanNode {
                id,
                op,
                inputs,
                schema: node.schema.clone(),
            });
        }
        if !carried {
            digests = digest_arena(&nodes);
        }
        Ok(LogicalPlan {
            root: mapping[root.raw() as usize].expect("the new root is kept"),
            nodes: nodes.into(),
            digests: Arc::new(digests),
        })
    }

    /// Renders the plan as an indented tree (children under parents).
    pub fn render(&self) -> String {
        let mut out = String::new();
        self.render_node(self.root, 0, &mut out);
        out
    }

    fn render_node(&self, id: NodeId, depth: usize, out: &mut String) {
        let node = self.node(id);
        out.push_str(&"  ".repeat(depth));
        out.push_str(&format!("{} [{}]\n", node.op.label(), node.id));
        for &input in &node.inputs {
            self.render_node(input, depth + 1, out);
        }
    }
}

impl fmt::Display for LogicalPlan {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.render())
    }
}

/// Constructs plans bottom-up, validating arity and deriving schemas.
#[derive(Debug, Default)]
pub struct PlanBuilder {
    nodes: Vec<PlanNode>,
}

impl PlanBuilder {
    /// An empty builder.
    pub fn new() -> Self {
        PlanBuilder { nodes: Vec::new() }
    }

    /// Adds a node; inputs must already exist (ids returned by prior `add`
    /// calls), which makes arena order topological by construction.
    pub fn add(&mut self, op: Operator, inputs: Vec<NodeId>) -> Result<NodeId> {
        if inputs.len() != op.input_arity() {
            return Err(MisoError::Plan(format!(
                "operator {} expects {} inputs, got {}",
                op.label(),
                op.input_arity(),
                inputs.len()
            )));
        }
        for input in &inputs {
            if input.raw() as usize >= self.nodes.len() {
                return Err(MisoError::Plan(format!("input {input} does not exist yet")));
            }
        }
        let input_schemas: Vec<&Schema> = inputs
            .iter()
            .map(|i| &self.nodes[i.raw() as usize].schema)
            .collect();
        // Validate expression column references against input schemas.
        Self::validate_columns(&op, &input_schemas)?;
        let schema = op.derive_schema(&input_schemas);
        let id = NodeId(self.nodes.len() as u64);
        self.nodes.push(PlanNode {
            id,
            op,
            inputs,
            schema,
        });
        Ok(id)
    }

    fn validate_columns(op: &Operator, inputs: &[&Schema]) -> Result<()> {
        let check_expr = |e: &crate::expr::Expr, arity: usize| -> Result<()> {
            let mut bad = None;
            e.visit(&mut |sub| {
                if let crate::expr::Expr::Column(i) = sub {
                    if *i >= arity && bad.is_none() {
                        bad = Some(*i);
                    }
                }
            });
            match bad {
                Some(i) => Err(MisoError::Plan(format!(
                    "column ${i} out of range (arity {arity})"
                ))),
                None => Ok(()),
            }
        };
        match op {
            Operator::Filter { predicate } => check_expr(predicate, inputs[0].arity()),
            Operator::Project { exprs } => {
                for (_, e) in exprs {
                    check_expr(e, inputs[0].arity())?;
                }
                Ok(())
            }
            Operator::Join { on } => {
                for &(l, r) in on {
                    if l >= inputs[0].arity() || r >= inputs[1].arity() {
                        return Err(MisoError::Plan(format!(
                            "join key (l{l}, r{r}) out of range"
                        )));
                    }
                }
                Ok(())
            }
            Operator::Aggregate { group_by, aggs } => {
                for &g in group_by {
                    if g >= inputs[0].arity() {
                        return Err(MisoError::Plan(format!("group-by column {g} out of range")));
                    }
                }
                for agg in aggs {
                    if let Some(e) = &agg.input {
                        check_expr(e, inputs[0].arity())?;
                    }
                }
                Ok(())
            }
            Operator::Sort { keys } => {
                for &(k, _) in keys {
                    if k >= inputs[0].arity() {
                        return Err(MisoError::Plan(format!("sort column {k} out of range")));
                    }
                }
                Ok(())
            }
            _ => Ok(()),
        }
    }

    /// Finalizes the plan with the given root.
    pub fn finish(self, root: NodeId) -> Result<LogicalPlan> {
        if root.raw() as usize >= self.nodes.len() {
            return Err(MisoError::Plan(format!("root {root} does not exist")));
        }
        Ok(LogicalPlan {
            digests: Arc::new(digest_arena(&self.nodes)),
            nodes: self.nodes.into(),
            root,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::expr::{AggExpr, AggFunc, Expr};
    use miso_data::DataType;

    /// scan(twitter) -> project(uid, city) -> filter(uid=1) -> agg
    fn sample() -> LogicalPlan {
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
                        (
                            "uid".into(),
                            Expr::col(0).get("user_id").cast(DataType::Int),
                        ),
                        ("city".into(), Expr::col(0).get("city").cast(DataType::Str)),
                    ],
                },
                vec![scan],
            )
            .unwrap();
        let filt = b
            .add(
                Operator::Filter {
                    predicate: Expr::col(0).eq(Expr::lit(1i64)),
                },
                vec![proj],
            )
            .unwrap();
        let agg = b
            .add(
                Operator::Aggregate {
                    group_by: vec![1],
                    aggs: vec![AggExpr::new(AggFunc::Count, None, "n")],
                },
                vec![filt],
            )
            .unwrap();
        b.finish(agg).unwrap()
    }

    #[test]
    fn builder_derives_schemas() {
        let p = sample();
        assert_eq!(p.len(), 4);
        assert_eq!(p.schema().names(), vec!["city", "n"]);
        assert_eq!(p.base_logs(), vec!["twitter"]);
    }

    #[test]
    fn builder_rejects_bad_arity_and_refs() {
        let mut b = PlanBuilder::new();
        assert!(b.add(Operator::Limit { n: 1 }, vec![]).is_err());
        let scan = b
            .add(Operator::ScanLog { log: "t".into() }, vec![])
            .unwrap();
        assert!(b
            .add(
                Operator::Filter {
                    predicate: Expr::col(5).eq(Expr::lit(1i64))
                },
                vec![scan]
            )
            .is_err());
        assert!(b.add(Operator::Limit { n: 1 }, vec![NodeId(99)]).is_err());
    }

    #[test]
    fn descendants_and_subplan() {
        let p = sample();
        let filt_id = NodeId(2);
        let desc = p.descendants(filt_id);
        assert_eq!(desc.len(), 3);
        let sub = p.subplan(filt_id);
        assert_eq!(sub.len(), 3);
        assert_eq!(sub.schema().names(), vec!["uid", "city"]);
    }

    /// `subplan_nodes` names each subplan node's origin, also for a subtree
    /// whose nodes are not a prefix of the arena.
    #[test]
    fn subplan_nodes_map_back() {
        let mut b = PlanBuilder::new();
        let left = b
            .add(Operator::ScanLog { log: "l".into() }, vec![])
            .unwrap();
        let right = b
            .add(Operator::ScanLog { log: "r".into() }, vec![])
            .unwrap();
        let field = |key: &str| Expr::FieldGet {
            input: Box::new(Expr::col(0)),
            key: key.into(),
        };
        let project = |b: &mut PlanBuilder, input| {
            let exprs = vec![("k".to_string(), field("k"))];
            b.add(Operator::Project { exprs }, vec![input]).unwrap()
        };
        let pl = project(&mut b, left);
        let pr = project(&mut b, right);
        let join = b
            .add(Operator::Join { on: vec![(0, 0)] }, vec![pl, pr])
            .unwrap();
        let p = b.finish(join).unwrap();
        assert_eq!(p.subplan_nodes(pr), vec![right, pr]);
        for id in [left, pl, pr, join] {
            let sub = p.subplan(id);
            let nodes = p.subplan_nodes(id);
            assert_eq!(sub.len(), nodes.len());
            for (k, &at) in nodes.iter().enumerate() {
                assert_eq!(sub.nodes()[k].op, p.node(at).op, "{id} node {k}");
            }
        }
    }

    #[test]
    fn replace_with_view_swaps_subtree() {
        let p = sample();
        let filt_id = NodeId(2);
        let rewritten = p.replace_with_view(filt_id, "v_abc").unwrap();
        assert_eq!(
            rewritten.len(),
            2,
            "scan+project+filter collapse to ScanView"
        );
        assert_eq!(rewritten.scanned_views(), vec!["v_abc"]);
        assert_eq!(rewritten.schema().names(), vec!["city", "n"]);
        assert!(rewritten.base_logs().is_empty());
    }

    #[test]
    fn udf_detection() {
        let mut b = PlanBuilder::new();
        let scan = b
            .add(Operator::ScanLog { log: "t".into() }, vec![])
            .unwrap();
        let udf = b
            .add(
                Operator::Udf {
                    name: "extract_sentiment".into(),
                    output: Schema::new(vec![miso_data::Field::new("s", DataType::Float)]),
                },
                vec![scan],
            )
            .unwrap();
        let p = b.finish(udf).unwrap();
        assert!(p.has_udf());
        assert!(p.subtree_has_udf(udf));
        assert!(!sample().has_udf());
    }

    #[test]
    fn join_plan_two_inputs() {
        let mut b = PlanBuilder::new();
        let t = b
            .add(
                Operator::ScanLog {
                    log: "twitter".into(),
                },
                vec![],
            )
            .unwrap();
        let tp = b
            .add(
                Operator::Project {
                    exprs: vec![(
                        "uid".into(),
                        Expr::col(0).get("user_id").cast(DataType::Int),
                    )],
                },
                vec![t],
            )
            .unwrap();
        let f = b
            .add(
                Operator::ScanLog {
                    log: "foursquare".into(),
                },
                vec![],
            )
            .unwrap();
        let fp = b
            .add(
                Operator::Project {
                    exprs: vec![(
                        "uid".into(),
                        Expr::col(0).get("user_id").cast(DataType::Int),
                    )],
                },
                vec![f],
            )
            .unwrap();
        let join = b
            .add(Operator::Join { on: vec![(0, 0)] }, vec![tp, fp])
            .unwrap();
        let p = b.finish(join).unwrap();
        assert_eq!(p.base_logs(), vec!["foursquare", "twitter"]);
        assert_eq!(p.schema().names(), vec!["uid", "r_uid"]);
    }

    #[test]
    fn render_shows_tree() {
        let text = sample().render();
        assert!(text.contains("Aggregate"));
        assert!(text.contains("ScanLog(twitter)"));
        let agg_line = text.lines().next().unwrap();
        assert!(!agg_line.starts_with(' '), "root is unindented");
    }
}
