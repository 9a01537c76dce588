//! Split-point enumeration.
//!
//! A multistore execution plan "may contain split points, denoting a cut in
//! the plan graph whereby data and computation is migrated from one store to
//! the other" (paper §3.1). Because DW only accelerates HV queries, data
//! moves in one direction: HV → DW.
//!
//! We model a split as the set of nodes evaluated in HV; the complement runs
//! in DW. Validity requires:
//!
//! * **downward closure** — if a node runs in HV, so do all its inputs
//!   (otherwise data would flow DW → HV);
//! * **UDF pinning** — `Udf` nodes, and hence their subtrees, run in HV;
//! * **base-log pinning** — `ScanLog` reads HDFS and must be in HV.
//!   `ScanView` leaves may run on either side; whether the view is actually
//!   *present* in that store is a placement question the optimizer checks.
//!
//! The **cut** of a split is the set of HV nodes with at least one DW
//! consumer; their outputs are the working sets dumped, transferred, and
//! loaded into DW — the green/yellow bars of the paper's Figure 3. A plan
//! run wholly in HV has no cut: its root's output is the answer.
//!
//! Splits are enumerated and costed as node masks ([`mask`]): bit `i % 64`
//! of word `i / 64` is node `i`. [`NodeMasks`] holds what every split of
//! one plan reads — each node's consumers and the pinned nodes — derived
//! once per plan; a [`Split`] (a `BTreeSet` of node ids) is built only for
//! the split a caller keeps.

use crate::plan::LogicalPlan;
use miso_common::ids::NodeId;
use std::collections::BTreeSet;
use std::ops::RangeInclusive;

/// Node sets as bitmasks: node `i` is bit `i % 64` of word `i / 64`, and a
/// mask over an `n`-node plan has [`mask::words`]`(n)` words.
pub mod mask {
    /// Words in a mask over `n` nodes (at least one).
    pub fn words(n: usize) -> usize {
        n.div_ceil(64).max(1)
    }

    /// Whether node `i` is in `mask`.
    pub fn has(mask: &[u64], i: usize) -> bool {
        mask[i / 64] >> (i % 64) & 1 != 0
    }

    /// Adds node `i` to `mask`.
    pub fn insert(mask: &mut [u64], i: usize) {
        mask[i / 64] |= 1 << (i % 64);
    }

    /// Whether `a` and `b` share a node.
    pub fn meets(a: &[u64], b: &[u64]) -> bool {
        a.iter().zip(b).any(|(x, y)| x & y != 0)
    }

    /// Whether every node of `a` is in `b`.
    pub fn within(a: &[u64], b: &[u64]) -> bool {
        a.iter().zip(b).all(|(x, y)| x & !y == 0)
    }

    /// The nodes of `mask`, ascending.
    pub fn ones(mask: &[u64]) -> impl Iterator<Item = usize> + '_ {
        mask.iter().enumerate().flat_map(|(w, &word)| {
            let mut rest = word;
            std::iter::from_fn(move || {
                (rest != 0).then(|| {
                    let bit = rest.trailing_zeros() as usize;
                    rest &= rest - 1;
                    w * 64 + bit
                })
            })
        })
    }
}

/// A candidate multistore split: which nodes execute in HV.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Split {
    hv_nodes: BTreeSet<NodeId>,
}

impl Split {
    /// Builds a split from the HV-side node set. The caller must guarantee
    /// validity; use [`enumerate_splits`] for generated candidates or
    /// [`Split::validate`] to check.
    pub fn new(hv_nodes: BTreeSet<NodeId>) -> Self {
        Split { hv_nodes }
    }

    /// The split whose HV side is the node mask `hv`.
    pub fn from_mask(hv: &[u64]) -> Self {
        Split {
            hv_nodes: mask::ones(hv).map(|i| NodeId(i as u64)).collect(),
        }
    }

    /// The HV side as a mask over a plan of `n` nodes (ids past the plan
    /// name no node and are left out).
    pub fn mask(&self, n: usize) -> Vec<u64> {
        let mut hv = vec![0; mask::words(n)];
        for id in self
            .hv_nodes
            .iter()
            .take_while(|id| (id.raw() as usize) < n)
        {
            mask::insert(&mut hv, id.raw() as usize);
        }
        hv
    }

    /// The split that executes everything in HV.
    pub fn all_hv(plan: &LogicalPlan) -> Self {
        Split {
            hv_nodes: plan.nodes().iter().map(|n| n.id).collect(),
        }
    }

    /// Nodes executing in HV.
    pub fn hv_nodes(&self) -> &BTreeSet<NodeId> {
        &self.hv_nodes
    }

    /// Whether `id` executes in HV.
    pub fn in_hv(&self, id: NodeId) -> bool {
        self.hv_nodes.contains(&id)
    }

    /// Whether every node executes in HV.
    pub fn is_hv_only(&self, plan: &LogicalPlan) -> bool {
        self.hv_nodes.len() == plan.len()
    }

    /// Whether every node executes in DW.
    pub fn is_dw_only(&self) -> bool {
        self.hv_nodes.is_empty()
    }

    /// The HV nodes whose outputs cross to DW (deduplicated, in plan order).
    ///
    /// Empty for HV-only plans (nothing crosses) and DW-only plans (nothing
    /// starts in HV).
    pub fn cut_nodes(&self, plan: &LogicalPlan) -> Vec<NodeId> {
        let hv = self.mask(plan.len());
        NodeMasks::of(plan)
            .cut(&hv)
            .map(|i| NodeId(i as u64))
            .collect()
    }

    /// Validates downward closure and operator pinning against `plan`.
    pub fn validate(&self, plan: &LogicalPlan) -> Result<(), String> {
        for node in plan.nodes() {
            if self.in_hv(node.id) {
                for input in &node.inputs {
                    if !self.in_hv(*input) {
                        return Err(format!(
                            "node {} in HV consumes {} in DW (reverse flow)",
                            node.id, input
                        ));
                    }
                }
            } else if node.op.hv_only() {
                return Err(format!("UDF node {} assigned to DW", node.id));
            } else if matches!(node.op, crate::op::Operator::ScanLog { .. }) {
                return Err(format!("base-log scan {} assigned to DW", node.id));
            }
        }
        Ok(())
    }
}

/// Plans of at most this many nodes enumerate every valid split; larger
/// ones the topological prefixes.
const EXHAUSTIVE_LIMIT: usize = 14;

/// What every split of one plan reads, as node masks: each node's
/// consumers and the nodes pinned to HV (UDF subtrees and base-log scans).
#[derive(Debug, Clone)]
pub struct NodeMasks {
    n: usize,
    words: usize,
    /// Node `i`'s consumers at `[i * words..][..words]`, then the pinned
    /// nodes.
    bits: Vec<u64>,
}

impl NodeMasks {
    /// The masks of `plan`.
    pub fn of(plan: &LogicalPlan) -> Self {
        let n = plan.len();
        let words = mask::words(n);
        let mut bits = vec![0; (n + 1) * words];
        let (consumers, pinned) = bits.split_at_mut(n * words);
        // Consumers come after their inputs: one backward pass. A pinned
        // node pins its inputs (a log scan has none, a UDF's subtree is
        // pinned with it).
        for (i, node) in plan.nodes().iter().enumerate().rev() {
            if node.op.hv_only() || matches!(node.op, crate::op::Operator::ScanLog { .. }) {
                mask::insert(pinned, i);
            }
            let pins = mask::has(pinned, i);
            for input in &node.inputs {
                let j = input.raw() as usize;
                mask::insert(&mut consumers[j * words..(j + 1) * words], i);
                if pins {
                    mask::insert(pinned, j);
                }
            }
        }
        NodeMasks { n, words, bits }
    }

    /// Words per mask.
    pub fn words(&self) -> usize {
        self.words
    }

    /// The nodes reading node `i`.
    pub fn consumers(&self, i: usize) -> &[u64] {
        &self.bits[i * self.words..(i + 1) * self.words]
    }

    /// The nodes pinned to HV.
    fn pinned(&self) -> &[u64] {
        &self.bits[self.n * self.words..]
    }

    /// The cut of the split whose HV side is `hv`: its HV nodes with a
    /// consumer outside it, ascending.
    pub fn cut<'a>(&'a self, hv: &'a [u64]) -> impl Iterator<Item = usize> + 'a {
        mask::ones(hv).filter(move |&i| !mask::within(self.consumers(i), hv))
    }

    /// Every valid split of the plan, in ascending mask order.
    ///
    /// For plans of at most 14 nodes this is every
    /// downward-closed node set holding the pinned nodes (the paper's
    /// Figure 3 profiles "all possible plans" of a query). Larger plans fall
    /// back to the topological-prefix family, which always contains the
    /// HV-only split and the best "late-single-cut" splits that the paper
    /// observes winning in practice.
    pub fn splits(&self) -> Splits {
        let splits = if self.n <= EXHAUSTIVE_LIMIT {
            let mut masks = Vec::new();
            self.closed_sets(self.n, 0, &mut masks);
            Splits::Masks(masks)
        } else {
            // Arena order is topological, so every prefix is downward-closed.
            let min = mask::ones(self.pinned()).last().map_or(0, |i| i + 1);
            Splits::Prefixes {
                lens: min..=self.n,
                words: self.words,
            }
        };
        miso_obs::count("plan.split_enumerations", 1);
        miso_obs::observe("plan.splits_per_plan", splits.len() as u64);
        splits
    }

    /// Pushes every downward-closed, pinned-holding extension of `chosen`
    /// (a decision on the nodes from `below` up) to `out`, ascending:
    /// deciding the highest node first and leaving it out first. A node
    /// must be in when it is pinned or an included node consumes it.
    fn closed_sets(&self, below: usize, chosen: u64, out: &mut Vec<u64>) {
        let Some(i) = below.checked_sub(1) else {
            out.push(chosen);
            return;
        };
        let forced = mask::has(self.pinned(), i) || self.consumers(i)[0] & chosen != 0;
        if !forced {
            self.closed_sets(i, chosen, out);
        }
        self.closed_sets(i, chosen | 1 << i, out);
    }
}

/// The valid splits of one plan ([`NodeMasks::splits`]), in ascending mask
/// order.
#[derive(Debug, Clone)]
pub enum Splits {
    /// Each split's HV mask, one word (plans of at most 14 nodes).
    Masks(Vec<u64>),
    /// Each split's HV prefix length, over masks `words` wide — no width
    /// limit.
    Prefixes {
        /// The prefix lengths, shortest first.
        lens: RangeInclusive<usize>,
        /// Words per mask.
        words: usize,
    },
}

impl Splits {
    /// How many splits there are.
    pub(crate) fn len(&self) -> usize {
        match self {
            Splits::Masks(masks) => masks.len(),
            Splits::Prefixes { lens, .. } => lens.clone().count(),
        }
    }

    /// Calls `f` with each split's HV mask, in order.
    pub fn visit(&self, mut f: impl FnMut(&[u64])) {
        match self {
            Splits::Masks(masks) => masks.iter().for_each(|m| f(std::slice::from_ref(m))),
            Splits::Prefixes { lens, words } => {
                let mut hv = vec![0; *words];
                let mut filled = 0;
                for len in lens.clone() {
                    while filled < len {
                        mask::insert(&mut hv, filled);
                        filled += 1;
                    }
                    f(&hv);
                }
            }
        }
    }
}

/// Enumerates every valid split of `plan` ([`NodeMasks::splits`]), each
/// built as a [`Split`].
pub fn enumerate_splits(plan: &LogicalPlan) -> Vec<Split> {
    let splits = NodeMasks::of(plan).splits();
    let mut out = Vec::with_capacity(splits.len());
    splits.visit(|hv| out.push(Split::from_mask(hv)));
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::expr::{AggExpr, AggFunc, Expr};
    use crate::op::Operator;
    use crate::plan::PlanBuilder;
    use miso_data::{DataType, Field, Schema};

    /// Linear plan: scan -> project -> filter -> aggregate.
    fn linear() -> LogicalPlan {
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
                    predicate: Expr::col(0).eq(Expr::lit(1i64)),
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

    #[test]
    fn linear_plan_has_one_split_per_prefix() {
        let p = linear();
        let splits = enumerate_splits(&p);
        // scan is pinned to HV, so valid HV sets are prefixes of length 1..=4.
        assert_eq!(splits.len(), 4);
        assert!(splits.iter().all(|s| s.validate(&p).is_ok()));
        assert_eq!(splits.iter().filter(|s| s.is_hv_only(&p)).count(), 1);
        assert!(!splits.iter().any(|s| s.is_dw_only()));
    }

    #[test]
    fn cut_nodes_identify_crossing_edges() {
        let p = linear();
        // HV = {scan, project}; cut = {project}.
        let split = Split::new([NodeId(0), NodeId(1)].into_iter().collect());
        assert!(split.validate(&p).is_ok());
        assert_eq!(split.cut_nodes(&p), vec![NodeId(1)]);
        // HV-only: no cut.
        assert!(Split::all_hv(&p).cut_nodes(&p).is_empty());
    }

    #[test]
    fn reverse_flow_is_invalid() {
        let p = linear();
        // HV = {scan, filter} without project: filter consumes project in DW.
        let split = Split::new([NodeId(0), NodeId(2)].into_iter().collect());
        assert!(split.validate(&p).is_err());
    }

    #[test]
    fn udf_pins_subtree_to_hv() {
        let mut b = PlanBuilder::new();
        let scan = b
            .add(Operator::ScanLog { log: "t".into() }, vec![])
            .unwrap();
        let udf = b
            .add(
                Operator::Udf {
                    name: "u".into(),
                    output: Schema::new(vec![Field::new("x", DataType::Int)]),
                },
                vec![scan],
            )
            .unwrap();
        let lim = b.add(Operator::Limit { n: 10 }, vec![udf]).unwrap();
        let p = b.finish(lim).unwrap();
        let splits = enumerate_splits(&p);
        // UDF (and its scan) must be in HV: only splits are {scan,udf} and all.
        assert_eq!(splits.len(), 2);
        assert!(splits.iter().all(|s| s.in_hv(NodeId(1))));
    }

    #[test]
    fn view_only_plan_allows_dw_only() {
        let mut b = PlanBuilder::new();
        let sv = b
            .add(
                Operator::ScanView {
                    view: "v_x".into(),
                    schema: Schema::new(vec![Field::new("a", DataType::Int)]),
                },
                vec![],
            )
            .unwrap();
        let lim = b.add(Operator::Limit { n: 1 }, vec![sv]).unwrap();
        let p = b.finish(lim).unwrap();
        let splits = enumerate_splits(&p);
        assert!(splits.iter().any(|s| s.is_dw_only()));
        assert_eq!(splits.len(), 3); // {}, {scan}, {scan, limit}
    }

    #[test]
    fn bushy_plan_enumerates_all_ideals() {
        // Two scan->project branches joined, then aggregated: 6 nodes.
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
        let agg = b
            .add(
                Operator::Aggregate {
                    group_by: vec![],
                    aggs: vec![AggExpr::new(AggFunc::Count, None, "n")],
                },
                vec![j],
            )
            .unwrap();
        let plan = b.finish(agg).unwrap();
        let splits = enumerate_splits(&plan);
        // Scans pinned; branches independent: HV sets are products of
        // per-branch prefixes plus join/agg tail choices.
        // Branch A: {s1} or {s1,p1}; Branch B: {s2} or {s2,p2} -> 4 bases;
        // join in HV requires both projects; agg requires join.
        // Valid sets: 4 (no join) + 1 (join) + 1 (join+agg) = 6.
        assert_eq!(splits.len(), 6);
        for s in &splits {
            assert!(s.validate(&plan).is_ok());
        }
        // A split cutting both branches transfers two working sets (the
        // paper's third panel in the §3.1 figure).
        let two_cut = Split::new(
            [NodeId(0), NodeId(1), NodeId(2), NodeId(3)]
                .into_iter()
                .collect(),
        );
        assert_eq!(two_cut.cut_nodes(&plan).len(), 2);
    }

    #[test]
    fn consumer_masks_invert_the_inputs() {
        let p = linear();
        let masks = NodeMasks::of(&p);
        for node in p.nodes() {
            let consumers: Vec<usize> = p
                .nodes()
                .iter()
                .filter(|c| c.inputs.contains(&node.id))
                .map(|c| c.id.raw() as usize)
                .collect();
            let i = node.id.raw() as usize;
            assert_eq!(
                mask::ones(masks.consumers(i)).collect::<Vec<_>>(),
                consumers
            );
        }
        assert_eq!(masks.consumers(3), &[0]);
        // The scan is pinned; a mask round-trips through a `Split`.
        let split = Split::from_mask(&[0b0011]);
        assert_eq!(split.mask(p.len()), vec![0b0011]);
        assert_eq!(masks.cut(&[0b0011]).collect::<Vec<_>>(), vec![1]);
    }

    #[test]
    fn masks_past_one_word_enumerate_and_cut() {
        // A 70-node chain: prefixes past one mask word.
        let mut b = PlanBuilder::new();
        let mut prev = b
            .add(Operator::ScanLog { log: "t".into() }, vec![])
            .unwrap();
        for i in 0..69 {
            prev = b.add(Operator::Limit { n: 1000 - i }, vec![prev]).unwrap();
        }
        let p = b.finish(prev).unwrap();
        let splits = enumerate_splits(&p);
        assert_eq!(splits.len(), 70);
        for (k, s) in splits.iter().enumerate() {
            assert_eq!(s.hv_nodes().len(), k + 1);
            assert!(s.validate(&p).is_ok());
            let expect = if k + 1 < 70 {
                vec![NodeId(k as u64)]
            } else {
                vec![]
            };
            assert_eq!(s.cut_nodes(&p), expect);
        }
    }

    #[test]
    fn prefix_fallback_used_for_large_plans() {
        // Build a 25-node chain to cross the exhaustive limit.
        let mut b = PlanBuilder::new();
        let mut prev = b
            .add(Operator::ScanLog { log: "t".into() }, vec![])
            .unwrap();
        for i in 0..24 {
            prev = b.add(Operator::Limit { n: 1000 - i }, vec![prev]).unwrap();
        }
        let p = b.finish(prev).unwrap();
        let splits = enumerate_splits(&p);
        assert_eq!(splits.len(), 25);
        assert!(splits.iter().all(|s| s.validate(&p).is_ok()));
    }
}
