//! The set-based stage compiler `miso_hv::Stages` replaced, kept as the
//! oracle the mask walk is checked against: a `HashSet` per sub-plan and
//! consumers gathered into a `HashMap`. Included by the tests that use it
//! with `#[path = "support/stages.rs"] mod stages;`.

use miso::common::ids::NodeId;
use miso::hv::stages::is_boundary;
use miso::plan::LogicalPlan;
use std::collections::{HashMap, HashSet};

/// One MapReduce-style job.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Stage {
    /// Nodes fused into this job, in plan (topological) order.
    pub nodes: Vec<NodeId>,
    /// The node whose output this job materializes.
    pub output: NodeId,
    /// External inputs: upstream stage outputs this job reads (base-log and
    /// view scans are *inside* `nodes` and read storage directly).
    pub upstream: Vec<NodeId>,
}

/// Compiles the sub-plan consisting of `subset` (default: all nodes) into
/// stages, in execution (topological) order.
///
/// The subset must be input-closed *within the plan* except where nodes'
/// outputs are provided externally — callers executing a DW-side remainder
/// pass only their nodes and list the working-set boundary via
/// `external_inputs`.
pub fn compile_stages(
    plan: &LogicalPlan,
    subset: Option<&HashSet<NodeId>>,
    external_inputs: &HashSet<NodeId>,
) -> Vec<Stage> {
    let in_subset = |id: NodeId| subset.is_none_or(|s| s.contains(&id));

    // A node's output is materialized if it is a boundary op, or it is the
    // last node of the executed subset feeding nothing inside the subset
    // (the sub-plan's result), or it feeds a node outside the subset (a cut).
    let mut consumers: HashMap<NodeId, Vec<NodeId>> = HashMap::new();
    for node in plan.nodes() {
        for input in &node.inputs {
            consumers.entry(*input).or_default().push(node.id);
        }
    }
    let mut boundary: HashSet<NodeId> = HashSet::new();
    for node in plan.nodes() {
        if !in_subset(node.id) || external_inputs.contains(&node.id) {
            continue;
        }
        let cons = consumers.get(&node.id);
        let feeds_inside = cons
            .map(|c| c.iter().any(|x| in_subset(*x)))
            .unwrap_or(false);
        let feeds_outside = cons
            .map(|c| c.iter().any(|x| !in_subset(*x)))
            .unwrap_or(false);
        if is_boundary(&node.op) || !feeds_inside || feeds_outside {
            boundary.insert(node.id);
        }
    }

    // Build one stage per boundary node: walk up through inputs, stopping at
    // other boundary nodes and external inputs (both are this stage's
    // upstream reads).
    let mut stages = Vec::new();
    let mut ordered_boundaries: Vec<NodeId> = plan
        .nodes()
        .iter()
        .map(|n| n.id)
        .filter(|id| boundary.contains(id))
        .collect();
    ordered_boundaries.sort_by_key(|id| id.raw());
    for &b in &ordered_boundaries {
        let mut nodes = Vec::new();
        let mut upstream = Vec::new();
        let mut stack = vec![b];
        let mut seen = HashSet::new();
        while let Some(id) = stack.pop() {
            if !seen.insert(id) {
                continue;
            }
            if id != b && (boundary.contains(&id) || external_inputs.contains(&id)) {
                upstream.push(id);
                continue;
            }
            if external_inputs.contains(&id) {
                upstream.push(id);
                continue;
            }
            nodes.push(id);
            stack.extend(plan.node(id).inputs.iter().copied());
        }
        nodes.sort_by_key(|id| id.raw());
        upstream.sort_by_key(|id| id.raw());
        upstream.dedup();
        stages.push(Stage {
            nodes,
            output: b,
            upstream,
        });
    }
    stages
}
