//! Split costing in normalized units.
//!
//! [`SplitCoster::cost`] charges what the execution layer will — HV
//! staged execution, the HV→DW move of every cut working set
//! ([`TransferModel::ship_cost`], the one formula both sides call), DW
//! execution — but over size *estimates* instead of actual row counts, so
//! the optimizer can compare splits (and the tuner can probe hypothetical
//! designs) without running anything. A split is a node mask
//! (`miso_plan::split::mask`); what every split of a plan reads is derived
//! once per plan, and [`estimate_split_cost`] is the same body for one
//! [`Split`].

use miso_common::ids::NodeId;
use miso_common::{ByteSize, SimDuration};
use miso_dw::DwCostModel;
use miso_hv::{HvCostModel, Stages};
use miso_plan::estimate::SizeEstimate;
use miso_plan::split::{mask, NodeMasks};
use miso_plan::{LogicalPlan, Operator, Split};
use std::collections::HashMap;

/// Network transfer between the two clusters (adjacent racks, 1 GbE in the
/// paper's setup), in effective seconds per actual byte at our data scale.
#[derive(Debug, Clone, PartialEq)]
pub struct TransferModel {
    /// Seconds per byte moved across the wire.
    pub network_secs_per_byte: f64,
}

impl Default for TransferModel {
    fn default() -> Self {
        TransferModel::paper_default()
    }
}

impl TransferModel {
    /// Calibrated alongside the store models (see `DESIGN.md` §5).
    pub fn paper_default() -> Self {
        TransferModel {
            network_secs_per_byte: 0.6e-4,
        }
    }

    /// Wire time for `bytes`.
    pub fn transfer_cost(&self, bytes: ByteSize) -> SimDuration {
        SimDuration::from_secs_f64(bytes.as_bytes() as f64 * self.network_secs_per_byte)
    }

    /// Moving `bytes` from HV into DW: dump out of HV, cross the wire, load
    /// into DW. Every HV→DW move — a cut working set, a view migration, a
    /// refreshed DW view — is estimated and charged by this one sum.
    pub fn ship_cost(&self, hv: &HvCostModel, dw: &DwCostModel, bytes: ByteSize) -> SimDuration {
        hv.dump_cost(bytes) + self.transfer_cost(bytes) + dw.load_cost(bytes)
    }
}

/// The three cost components of a multistore plan (paper Figure 3's stacked
/// bars, with DUMP+TRANSFER+LOAD folded into `transfer`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct CostBreakdown {
    /// Time executing in HV.
    pub hv: SimDuration,
    /// Time dumping, moving, and loading working sets.
    pub transfer: SimDuration,
    /// Time executing in DW.
    pub dw: SimDuration,
}

impl CostBreakdown {
    /// Total normalized cost.
    pub fn total(&self) -> SimDuration {
        self.hv + self.transfer + self.dw
    }
}

/// Estimates the cost of executing `plan` under `split`.
///
/// `estimates` must cover every node (from `miso_plan::estimate`).
pub fn estimate_split_cost(
    plan: &LogicalPlan,
    split: &Split,
    estimates: &HashMap<NodeId, SizeEstimate>,
    hv: &HvCostModel,
    dw: &DwCostModel,
    transfer: &TransferModel,
) -> CostBreakdown {
    SplitCoster::new(plan, estimates, hv, dw, transfer).cost(&split.mask(plan.len()))
}

/// What costing a split reads of one plan, derived once: its stage rule
/// ([`Stages`], node masks included), which nodes are view scans, and each
/// node's estimate as an array.
pub struct SplitCoster<'a> {
    plan: &'a LogicalPlan,
    stages: Stages,
    /// View scans: DW reads their bytes from its own tables.
    views: Vec<u64>,
    rows: Vec<f64>,
    bytes: Vec<f64>,
    hv_model: &'a HvCostModel,
    dw_model: &'a DwCostModel,
    transfer: &'a TransferModel,
}

impl<'a> SplitCoster<'a> {
    /// The coster of `plan`; `estimates` must cover every node.
    pub fn new(
        plan: &'a LogicalPlan,
        estimates: &HashMap<NodeId, SizeEstimate>,
        hv_model: &'a HvCostModel,
        dw_model: &'a DwCostModel,
        transfer: &'a TransferModel,
    ) -> Self {
        let stages = Stages::of(plan);
        let mut views = vec![0; stages.masks().words()];
        for (i, node) in plan.nodes().iter().enumerate() {
            if matches!(node.op, Operator::ScanView { .. }) {
                mask::insert(&mut views, i);
            }
        }
        let estimate = |n: &miso_plan::PlanNode| estimates[&n.id];
        SplitCoster {
            plan,
            stages,
            views,
            rows: plan.nodes().iter().map(|n| estimate(n).rows).collect(),
            bytes: plan.nodes().iter().map(|n| estimate(n).bytes).collect(),
            hv_model,
            dw_model,
            transfer,
        }
    }

    /// The plan's node masks.
    pub fn masks(&self) -> &NodeMasks {
        self.stages.masks()
    }

    /// Estimates the cost of the split whose HV side is the mask `hv`.
    /// Every sum runs over nodes in ascending order, as staged execution
    /// meets them.
    pub fn cost(&mut self, hv: &[u64]) -> CostBreakdown {
        let mut breakdown = CostBreakdown::default();

        // --- HV side: staged execution, each stage reading and writing its
        // nodes' estimated bytes.
        let (rows, bytes) = (&self.rows, &self.bytes);
        self.stages.price(
            hv,
            self.hv_model,
            |j| rows[j],
            |j| bytes[j],
            |j| bytes[j],
            |c| breakdown.hv += c,
        );

        // --- Transfer: every cut node's output crosses the wire.
        for cut in self.stages.masks().cut(hv) {
            let bytes = ByteSize::from_bytes(self.bytes[cut] as u64);
            breakdown.transfer += self.transfer.ship_cost(self.hv_model, self.dw_model, bytes);
        }

        // --- DW side: remaining nodes.
        let mut dw_bytes_in = 0.0f64;
        let mut dw_rows = 0.0f64;
        let mut any_dw = false;
        for (i, node) in self.plan.nodes().iter().enumerate() {
            if mask::has(hv, i) {
                continue;
            }
            any_dw = true;
            if mask::has(&self.views, i) {
                dw_bytes_in += self.bytes[i];
            } else {
                // Working sets read from temp space.
                for input in &node.inputs {
                    let j = input.raw() as usize;
                    if mask::has(hv, j) {
                        dw_bytes_in += self.bytes[j];
                    }
                }
            }
            dw_rows += self.rows[i];
        }
        if any_dw {
            breakdown.dw += self
                .dw_model
                .exec_cost(ByteSize::from_bytes(dw_bytes_in as u64), dw_rows as u64);
        }
        breakdown
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use miso_data::DataType;
    use miso_plan::estimate::{estimate_plan, MapStats};
    use miso_plan::{AggExpr, AggFunc, Expr, Operator, PlanBuilder};

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

    fn setup() -> (LogicalPlan, HashMap<NodeId, SizeEstimate>) {
        let plan = linear();
        let mut stats = MapStats::new();
        stats.set_log("twitter", 100_000.0, 100_000.0 * 300.0);
        let est = estimate_plan(&plan, &stats);
        (plan, est)
    }

    #[test]
    fn hv_only_has_no_transfer_or_dw() {
        let (plan, est) = setup();
        let split = Split::all_hv(&plan);
        let c = estimate_split_cost(
            &plan,
            &split,
            &est,
            &HvCostModel::paper_default(),
            &DwCostModel::paper_default(),
            &TransferModel::paper_default(),
        );
        assert!(c.hv > SimDuration::ZERO);
        assert_eq!(c.transfer, SimDuration::ZERO);
        assert_eq!(c.dw, SimDuration::ZERO);
    }

    #[test]
    fn early_split_transfers_more_than_late_split() {
        let (plan, est) = setup();
        let hvm = HvCostModel::paper_default();
        let dwm = DwCostModel::paper_default();
        let tm = TransferModel::paper_default();
        let early = Split::new([NodeId(0)].into_iter().collect());
        let late = Split::new([NodeId(0), NodeId(1), NodeId(2)].into_iter().collect());
        let c_early = estimate_split_cost(&plan, &early, &est, &hvm, &dwm, &tm);
        let c_late = estimate_split_cost(&plan, &late, &est, &hvm, &dwm, &tm);
        assert!(
            c_early.transfer > c_late.transfer,
            "working set shrinks late"
        );
        assert!(
            c_early.total() > c_late.total(),
            "early ETL-style split loses"
        );
    }

    #[test]
    fn late_split_beats_hv_only_modestly() {
        // The Figure 3 shape, on a realistically-shaped join query with a
        // multi-stage tail: the best (late) split is modestly faster than
        // HV-only; the earliest split (ship raw data) is far worse.
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
                    exprs: vec![
                        (
                            "uid".into(),
                            Expr::col(0).get("user_id").cast(DataType::Int),
                        ),
                        ("text".into(), Expr::col(0).get("text").cast(DataType::Str)),
                    ],
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
                    exprs: vec![
                        (
                            "uid".into(),
                            Expr::col(0).get("user_id").cast(DataType::Int),
                        ),
                        ("city".into(), Expr::col(0).get("city").cast(DataType::Str)),
                    ],
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
                    group_by: vec![3],
                    aggs: vec![AggExpr::new(AggFunc::Count, None, "n")],
                },
                vec![j],
            )
            .unwrap();
        let sort = b
            .add(
                Operator::Sort {
                    keys: vec![(1, true)],
                },
                vec![agg],
            )
            .unwrap();
        let plan = b.finish(sort).unwrap();

        let mut stats = MapStats::new();
        stats.set_log("twitter", 100_000.0, 100_000.0 * 300.0);
        stats.set_log("foursquare", 50_000.0, 50_000.0 * 150.0);
        let est = estimate_plan(&plan, &stats);
        let hvm = HvCostModel::paper_default();
        let dwm = DwCostModel::paper_default();
        let tm = TransferModel::paper_default();

        let hv_only = estimate_split_cost(&plan, &Split::all_hv(&plan), &est, &hvm, &dwm, &tm);
        // Late split: after the join, once the working set has shrunk.
        let late = Split::new(
            [NodeId(0), NodeId(1), NodeId(2), NodeId(3), NodeId(4)]
                .into_iter()
                .collect(),
        );
        let c_late = estimate_split_cost(&plan, &late, &est, &hvm, &dwm, &tm);
        // Earliest split: ship the raw scans.
        let early = Split::new([NodeId(0), NodeId(2)].into_iter().collect());
        let c_early = estimate_split_cost(&plan, &early, &est, &hvm, &dwm, &tm);

        assert!(c_late.total() < hv_only.total(), "late split wins");
        let improvement = 1.0 - c_late.total().as_secs_f64() / hv_only.total().as_secs_f64();
        assert!(
            (0.0..0.5).contains(&improvement),
            "single-query multistore gain must be modest, got {improvement}"
        );
        assert!(
            c_early.total() > hv_only.total(),
            "ETL-style early split is worse than staying in HV"
        );
    }

    #[test]
    fn transfer_model_is_linear() {
        let tm = TransferModel::paper_default();
        let one = tm.transfer_cost(ByteSize::from_mib(1));
        let two = tm.transfer_cost(ByteSize::from_mib(2));
        assert_eq!(two.as_micros(), one.as_micros() * 2);
    }
}
