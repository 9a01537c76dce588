//! MapReduce stage compilation.
//!
//! Hive turns a logical plan into a DAG of MR jobs: map-side operators
//! (scan, SerDe projection, filter, limit) fuse into the job of their
//! downstream blocking operator; joins, aggregates, and sorts force a
//! shuffle and end a job; UDF transformers run as their own streaming job.
//! Every job's output lands in HDFS — these are the opportunistic view
//! candidates.
//!
//! [`Stages`] is the one place this rule is written. A job — a *stage* —
//! ends at each of its *output* nodes, whose rows get written; it holds
//! every node its output reaches through inputs short of another output,
//! and reads those upstream outputs plus the storage of its log and view
//! scans. The optimizer prices a split's HV side through it over size
//! estimates, and [`crate::HvStore`] charges a run through it over measured
//! sizes.

use crate::cost::HvCostModel;
use miso_common::{ByteSize, SimDuration};
use miso_plan::split::{mask, NodeMasks};
use miso_plan::{LogicalPlan, Operator};

/// Whether `op` forces a stage boundary (its output is materialized).
pub fn is_boundary(op: &Operator) -> bool {
    matches!(
        op,
        Operator::Join { .. }
            | Operator::Aggregate { .. }
            | Operator::Sort { .. }
            | Operator::Udf { .. }
    )
}

/// The stage rule over one plan: its node masks, which operators end a
/// stage in any split and which nodes read storage, derived once per plan,
/// plus scratch masks, so a walk allocates nothing.
pub struct Stages {
    masks: NodeMasks,
    /// Joins, aggregates, sorts and UDFs: they end a stage wherever they run.
    boundary: Vec<u64>,
    /// Log and view scans: a stage reads their bytes from storage.
    scans: Vec<u64>,
    /// Scratch masks: the HV side's stage outputs, one stage's nodes, and
    /// the stage outputs that stage reads.
    outputs: Vec<u64>,
    stage: Vec<u64>,
    upstream: Vec<u64>,
}

impl Stages {
    /// The stage rule over `plan`.
    pub fn of(plan: &LogicalPlan) -> Self {
        let masks = NodeMasks::of(plan);
        let words = masks.words();
        let (mut boundary, mut scans) = (vec![0; words], vec![0; words]);
        for (i, node) in plan.nodes().iter().enumerate() {
            if is_boundary(&node.op) {
                mask::insert(&mut boundary, i);
            }
            if node.op.is_scan() {
                mask::insert(&mut scans, i);
            }
        }
        Stages {
            masks,
            boundary,
            scans,
            outputs: vec![0; words],
            stage: vec![0; words],
            upstream: vec![0; words],
        }
    }

    /// The plan's node masks.
    pub fn masks(&self) -> &NodeMasks {
        &self.masks
    }

    /// The stage outputs of the downward-closed HV side `hv`: an HV node's
    /// output is materialized — a stage ends there — if its operator is a
    /// boundary, it feeds nothing in HV, or it feeds DW.
    pub fn outputs(&mut self, hv: &[u64]) -> &[u64] {
        self.outputs.fill(0);
        for i in mask::ones(hv) {
            let consumers = self.masks.consumers(i);
            if mask::has(&self.boundary, i)
                || !mask::meets(consumers, hv)
                || !mask::within(consumers, hv)
            {
                mask::insert(&mut self.outputs, i);
            }
        }
        &self.outputs
    }

    /// Prices each stage of the downward-closed HV side `hv`, in ascending
    /// output order, handing `charge` its [`HvCostModel::stage_cost`]: it
    /// reads `read(j)` of each scan among its nodes and `written(j)` of each
    /// upstream output, writes `written` of its output, and processes the
    /// `rows` of its nodes. Every sum runs over nodes in ascending order, as
    /// staged execution meets them; sizes and counts summed as `f64` are
    /// exact below 2^53.
    pub fn price(
        &mut self,
        hv: &[u64],
        model: &HvCostModel,
        rows: impl Fn(usize) -> f64,
        read: impl Fn(usize) -> f64,
        written: impl Fn(usize) -> f64,
        mut charge: impl FnMut(SimDuration),
    ) {
        self.outputs(hv);
        let Stages {
            masks,
            scans,
            outputs,
            stage,
            upstream,
            ..
        } = self;
        for b in mask::ones(outputs) {
            walk(masks, outputs, b, stage, upstream);
            let mut bytes_in = 0.0f64;
            let mut stage_rows = 0.0f64;
            for j in mask::ones(stage) {
                if mask::has(scans, j) {
                    bytes_in += read(j);
                }
                stage_rows += rows(j);
            }
            for j in mask::ones(upstream) {
                bytes_in += written(j);
            }
            charge(model.stage_cost(
                ByteSize::from_bytes(bytes_in as u64),
                ByteSize::from_bytes(written(b) as u64),
                stage_rows as u64,
            ));
        }
    }
}

/// Fills `stage` with the stage ending at output `b` — every node it
/// reaches through inputs short of another of the `outputs` — and
/// `upstream` with the outputs it stops at, which it reads.
fn walk(masks: &NodeMasks, outputs: &[u64], b: usize, stage: &mut [u64], upstream: &mut [u64]) {
    stage.fill(0);
    upstream.fill(0);
    mask::insert(stage, b);
    for j in (0..b).rev() {
        if !mask::meets(masks.consumers(j), stage) {
            continue;
        }
        if mask::has(outputs, j) {
            mask::insert(upstream, j);
        } else {
            mask::insert(stage, j);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use miso_common::ids::NodeId;
    use miso_data::DataType;
    use miso_plan::{AggExpr, AggFunc, Expr, PlanBuilder};

    /// One job as the walk finds it.
    struct Job {
        nodes: Vec<NodeId>,
        output: NodeId,
        upstream: Vec<NodeId>,
    }

    /// The jobs of `plan`'s HV side `subset` (every node when `None`), in
    /// execution order.
    fn jobs(plan: &LogicalPlan, subset: Option<&[usize]>) -> Vec<Job> {
        let mut hv = vec![0; mask::words(plan.len())];
        for i in (0..plan.len()).filter(|i| subset.is_none_or(|s| s.contains(i))) {
            mask::insert(&mut hv, i);
        }
        let mut s = Stages::of(plan);
        s.outputs(&hv);
        let Stages {
            masks,
            outputs,
            stage,
            upstream,
            ..
        } = &mut s;
        let outputs: &[u64] = outputs;
        let ids = |m: &[u64]| mask::ones(m).map(|i| NodeId(i as u64)).collect();
        mask::ones(outputs)
            .map(|b| {
                walk(masks, outputs, b, stage, upstream);
                Job {
                    nodes: ids(stage),
                    output: NodeId(b as u64),
                    upstream: ids(upstream),
                }
            })
            .collect()
    }

    fn proj(field: &str) -> Operator {
        Operator::Project {
            exprs: vec![(
                field.to_string(),
                Expr::col(0).get(field).cast(DataType::Int),
            )],
        }
    }

    /// scan → project → filter → aggregate → limit
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
        let p = b.add(proj("user_id"), vec![scan]).unwrap();
        let f = b
            .add(
                Operator::Filter {
                    predicate: Expr::col(0).eq(Expr::lit(1i64)),
                },
                vec![p],
            )
            .unwrap();
        let a = b
            .add(
                Operator::Aggregate {
                    group_by: vec![0],
                    aggs: vec![AggExpr::new(AggFunc::Count, None, "n")],
                },
                vec![f],
            )
            .unwrap();
        let l = b.add(Operator::Limit { n: 10 }, vec![a]).unwrap();
        b.finish(l).unwrap()
    }

    #[test]
    fn map_side_chain_fuses_into_aggregate_job() {
        let p = linear();
        let stages = jobs(&p, None);
        // Stage 1: scan+proj+filter+agg (agg is boundary); stage 2: limit
        // (plan result).
        assert_eq!(stages.len(), 2);
        assert_eq!(stages[0].output, NodeId(3));
        assert_eq!(
            stages[0].nodes,
            vec![NodeId(0), NodeId(1), NodeId(2), NodeId(3)]
        );
        assert!(stages[0].upstream.is_empty());
        assert_eq!(stages[1].output, NodeId(4));
        assert_eq!(stages[1].nodes, vec![NodeId(4)]);
        assert_eq!(stages[1].upstream, vec![NodeId(3)]);
    }

    #[test]
    fn join_plan_three_jobs() {
        let mut b = PlanBuilder::new();
        let s1 = b
            .add(
                Operator::ScanLog {
                    log: "twitter".into(),
                },
                vec![],
            )
            .unwrap();
        let p1 = b.add(proj("user_id"), vec![s1]).unwrap();
        let s2 = b
            .add(
                Operator::ScanLog {
                    log: "foursquare".into(),
                },
                vec![],
            )
            .unwrap();
        let p2 = b.add(proj("user_id"), vec![s2]).unwrap();
        let j = b
            .add(Operator::Join { on: vec![(0, 0)] }, vec![p1, p2])
            .unwrap();
        let a = b
            .add(
                Operator::Aggregate {
                    group_by: vec![],
                    aggs: vec![AggExpr::new(AggFunc::Count, None, "n")],
                },
                vec![j],
            )
            .unwrap();
        let plan = b.finish(a).unwrap();
        let stages = jobs(&plan, None);
        // join job (both scan chains fuse as map inputs), then agg job.
        assert_eq!(stages.len(), 2);
        assert_eq!(stages[0].output, NodeId(4));
        assert_eq!(stages[0].nodes.len(), 5);
        assert_eq!(stages[1].upstream, vec![NodeId(4)]);
    }

    #[test]
    fn udf_is_its_own_job() {
        let mut b = PlanBuilder::new();
        let scan = b
            .add(Operator::ScanLog { log: "t".into() }, vec![])
            .unwrap();
        let u = b
            .add(
                Operator::Udf {
                    name: "u".into(),
                    output: miso_data::Schema::new(vec![miso_data::Field::new("x", DataType::Int)]),
                },
                vec![scan],
            )
            .unwrap();
        let f = b
            .add(
                Operator::Filter {
                    predicate: Expr::col(0).eq(Expr::lit(1i64)),
                },
                vec![u],
            )
            .unwrap();
        let plan = b.finish(f).unwrap();
        let stages = jobs(&plan, None);
        assert_eq!(stages.len(), 2);
        assert_eq!(stages[0].output, NodeId(1), "UDF job");
        assert_eq!(stages[1].output, NodeId(2), "result job");
    }

    #[test]
    fn subset_compilation_marks_cut_as_output() {
        let p = linear();
        // HV side: scan+project+filter (cut feeds the DW-side aggregate).
        let stages = jobs(&p, Some(&[0, 1, 2]));
        assert_eq!(stages.len(), 1);
        assert_eq!(stages[0].output, NodeId(2), "cut node output materialized");
    }

    #[test]
    fn price_charges_each_stage_its_reads_writes_and_rows() {
        let p = linear();
        let model = HvCostModel::paper_default();
        let mut charged = Vec::new();
        Stages::of(&p).price(
            &[0b11111],
            &model,
            |j| (j + 1) as f64,
            |j| 1000.0 * (j + 1) as f64,
            |j| 10.0 * (j + 1) as f64,
            |c| charged.push(c),
        );
        let bytes = ByteSize::from_bytes;
        // Job 1 reads the scan and writes the aggregate; job 2 reads that
        // and writes the limit.
        assert_eq!(
            charged,
            vec![
                model.stage_cost(bytes(1000), bytes(40), 1 + 2 + 3 + 4),
                model.stage_cost(bytes(40), bytes(50), 5),
            ]
        );
    }

    #[test]
    fn single_scan_project_is_one_job() {
        let mut b = PlanBuilder::new();
        let scan = b
            .add(Operator::ScanLog { log: "t".into() }, vec![])
            .unwrap();
        let pr = b.add(proj("x"), vec![scan]).unwrap();
        let plan = b.finish(pr).unwrap();
        let stages = jobs(&plan, None);
        assert_eq!(stages.len(), 1);
        assert_eq!(stages[0].nodes, vec![NodeId(0), NodeId(1)]);
    }
}
