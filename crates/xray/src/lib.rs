//! miso-xray: per-query EXPLAIN ANALYZE.
//!
//! Joins three views of the same query into one plan-shaped artifact:
//!
//! * what the optimizer **predicted** — the per-node size estimates and the
//!   [`CostBreakdown`] from the exact what-if path the tuner costs designs
//!   with ([`miso_optimizer::optimize`]);
//! * what the engine **measured** — the [`OpProfile`] its driver loop keeps
//!   of every node of every run (wall time, rows in/out, morsels, parallel
//!   fraction, whether a log scan fused into its consumer and over which
//!   columns, and the output's bytes where the run read them anyway).
//!
//! Nothing runs differently to produce one: the caller hands [`analyze`] the
//! records of a run that has already happened. [`explain_analyze`] renders the annotated tree (the multistore analogue
//! of `EXPLAIN ANALYZE`); [`QueryXray::to_value`] emits the same data as
//! JSON for `results/<bin>.report.json`. Store-level drift accounting built
//! on these artifacts lives in `miso_core::calibration`.

use miso_common::ids::NodeId;
use miso_common::SimDuration;
use miso_data::Value;
use miso_dw::DwCostModel;
use miso_exec::OpProfile;
use miso_hv::HvCostModel;
use miso_obs::MetricsSnapshot;
use miso_optimizer::{CostBreakdown, PlannedQuery, TransferModel};
use miso_plan::estimate::SizeEstimate;
use std::collections::HashMap;
use std::fmt::Write;

/// One plan node, annotated with prediction and measurement.
#[derive(Debug, Clone)]
pub struct NodeXray {
    /// The plan node.
    pub id: NodeId,
    /// Operator label (e.g. `Join(on=[0=0])`).
    pub label: String,
    /// Input node ids, for tree rendering.
    pub inputs: Vec<NodeId>,
    /// Whether the split placed this node in HV (else DW).
    pub hv: bool,
    /// Whether this node's working set crosses the wire to DW.
    pub cut: bool,
    /// Optimizer cardinality estimate.
    pub est_rows: f64,
    /// Optimizer size estimate.
    pub est_bytes: f64,
    /// Predicted *marginal* cost of this node: its per-row CPU charge, its
    /// per-byte scan charge if it is a leaf, and its dump+transfer+load
    /// charge if it is a cut. Stage-level constants (HV job startup, DW
    /// query startup) are amortized over whole stages by the cost model and
    /// are deliberately not re-attributed to single nodes here — the query
    /// header carries the authoritative [`CostBreakdown`].
    pub predicted: SimDuration,
    /// What the node did; `None` if it did not run.
    pub profile: Option<OpProfile>,
}

/// A whole query's EXPLAIN ANALYZE artifact.
#[derive(Debug, Clone)]
pub struct QueryXray {
    /// Caller-supplied name (query id, view name, ...).
    pub label: String,
    /// Root node of the (possibly view-rewritten) plan.
    pub root: NodeId,
    /// Every plan node in plan order.
    pub nodes: Vec<NodeXray>,
    /// The optimizer's whole-query prediction, from the tuner's what-if path.
    pub predicted: CostBreakdown,
    /// Views the rewrite consumed.
    pub used_views: Vec<String>,
}

/// The three per-store cost models a query was priced with, borrowed
/// together so callers hand [`analyze`] one coherent pricing context.
#[derive(Debug, Clone, Copy)]
pub struct CostModels<'a> {
    /// The HV (MapReduce-style) model.
    pub hv: &'a HvCostModel,
    /// The DW (warehouse) model.
    pub dw: &'a DwCostModel,
    /// The HV→DW network model.
    pub transfer: &'a TransferModel,
}

/// Marginal predicted cost of one node under the split's placement (see
/// [`NodeXray::predicted`]).
fn node_predicted(
    planned: &PlannedQuery,
    id: NodeId,
    est: &SizeEstimate,
    cut: bool,
    models: &CostModels<'_>,
) -> SimDuration {
    let node = planned.plan.node(id);
    let in_hv = planned.split.in_hv(id);
    let scan_bytes = if node.op.is_scan() { est.bytes } else { 0.0 };
    let mut secs = if in_hv {
        scan_bytes * models.hv.read_secs_per_byte + est.rows * models.hv.cpu_secs_per_row
    } else {
        scan_bytes * models.dw.read_secs_per_byte + est.rows * models.dw.cpu_secs_per_row
    };
    if cut {
        secs += est.bytes
            * (models.hv.dump_secs_per_byte
                + models.transfer.network_secs_per_byte
                + models.dw.load_secs_per_byte);
    }
    SimDuration::from_secs_f64(secs)
}

/// Builds the EXPLAIN ANALYZE artifact for one planned-and-executed query.
///
/// * `estimates` — per-node sizes from `miso_plan::estimate::estimate_plan`
///   over the same stats the optimizer used;
/// * `profiles` — the run's per-node [`OpProfile`]s, the HV and the DW
///   execution's merged to one per plan node.
pub fn analyze(
    label: impl Into<String>,
    planned: &PlannedQuery,
    estimates: &HashMap<NodeId, SizeEstimate>,
    profiles: &HashMap<NodeId, OpProfile>,
    models: &CostModels<'_>,
) -> QueryXray {
    let cuts = planned.split.cut_nodes(&planned.plan);
    let nodes = planned
        .plan
        .nodes()
        .iter()
        .map(|node| {
            let est = estimates.get(&node.id).copied().unwrap_or(SizeEstimate {
                rows: 0.0,
                bytes: 0.0,
            });
            let cut = cuts.contains(&node.id);
            NodeXray {
                id: node.id,
                label: node.op.label(),
                inputs: node.inputs.clone(),
                hv: planned.split.in_hv(node.id),
                cut,
                est_rows: est.rows,
                est_bytes: est.bytes,
                predicted: node_predicted(planned, node.id, &est, cut, models),
                profile: profiles.get(&node.id).copied(),
            }
        })
        .collect();
    QueryXray {
        label: label.into(),
        root: planned.plan.root(),
        nodes,
        predicted: planned.est,
        used_views: planned.used_views.clone(),
    }
}

/// Formats real nanoseconds compactly (`812ns`, `4.1µs`, `23.5ms`, `1.20s`).
fn fmt_ns(ns: u64) -> String {
    if ns < 1_000 {
        format!("{ns}ns")
    } else if ns < 1_000_000 {
        format!("{:.1}µs", ns as f64 / 1e3)
    } else if ns < 1_000_000_000 {
        format!("{:.1}ms", ns as f64 / 1e6)
    } else {
        format!("{:.2}s", ns as f64 / 1e9)
    }
}

/// Renders the annotated plan tree.
pub fn explain_analyze(x: &QueryXray) -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "explain analyze [{}]: predicted total {} (HV {}, transfer {}, DW {})",
        x.label,
        x.predicted.total(),
        x.predicted.hv,
        x.predicted.transfer,
        x.predicted.dw
    );
    if x.used_views.is_empty() {
        let _ = writeln!(out, "views: none");
    } else {
        let _ = writeln!(out, "views: {}", x.used_views.join(", "));
    }
    let by_id: HashMap<NodeId, &NodeXray> = x.nodes.iter().map(|n| (n.id, n)).collect();
    render_node(&by_id, x.root, 0, &mut out);
    out
}

/// [`explain_analyze`] plus an operator-latency tail footer sourced from the
/// `exec.op_ns` histogram of `snapshot` (when it recorded anything).
pub fn explain_analyze_with_metrics(x: &QueryXray, snapshot: &MetricsSnapshot) -> String {
    let mut out = explain_analyze(x);
    if let Some((p50, p95, p99)) = snapshot.tail("exec.op_ns") {
        let _ = writeln!(
            out,
            "operator latency: p50 {} · p95 {} · p99 {}",
            fmt_ns(p50),
            fmt_ns(p95),
            fmt_ns(p99)
        );
    }
    out
}

fn render_node(by_id: &HashMap<NodeId, &NodeXray>, id: NodeId, depth: usize, out: &mut String) {
    let Some(n) = by_id.get(&id) else { return };
    let store = if n.hv { "HV" } else { "DW" };
    let _ = write!(
        out,
        "  [{store}] {}{}  pred {} · est {} rows",
        "  ".repeat(depth),
        n.label,
        n.predicted,
        n.est_rows.round() as u64
    );
    match &n.profile {
        Some(p) => {
            let _ = write!(
                out,
                " · act {} rows · {} · {} morsels · par {:.0}%",
                p.rows_out,
                fmt_ns(p.wall_ns),
                p.morsels,
                p.parallel_fraction() * 100.0
            );
            if let Some(bytes) = p.bytes_out {
                let _ = write!(out, " · {bytes} B");
            }
            if let Some((hit, parsed)) = p.fused {
                let _ = write!(out, " · fused: {hit} cols held, {parsed} parsed");
            }
        }
        None => {
            let _ = write!(out, " · act -");
        }
    }
    if n.cut {
        let _ = write!(out, "  <== working set ships to DW");
    }
    let _ = writeln!(out);
    for &input in &n.inputs {
        render_node(by_id, input, depth + 1, out);
    }
}

impl QueryXray {
    /// The JSON form, for embedding in bench reports.
    pub fn to_value(&self) -> Value {
        let nodes = self
            .nodes
            .iter()
            .map(|n| {
                let mut obj = vec![
                    ("id".into(), Value::Int(n.id.raw() as i64)),
                    ("op".into(), Value::str(&n.label)),
                    ("store".into(), Value::str(if n.hv { "HV" } else { "DW" })),
                    ("cut".into(), Value::Bool(n.cut)),
                    ("est_rows".into(), Value::Float(n.est_rows)),
                    ("est_bytes".into(), Value::Float(n.est_bytes)),
                    ("pred_s".into(), Value::Float(n.predicted.as_secs_f64())),
                ];
                if let Some(p) = &n.profile {
                    obj.push(("act_rows".into(), Value::Int(p.rows_out as i64)));
                    obj.push(("wall_ns".into(), Value::Int(p.wall_ns as i64)));
                    obj.push(("rows_in".into(), Value::Int(p.rows_in as i64)));
                    if let Some(bytes) = p.bytes_out {
                        obj.push(("bytes_out".into(), Value::Int(bytes as i64)));
                    }
                    if let Some((hit, parsed)) = p.fused {
                        obj.push(("cols_hit".into(), Value::Int(hit as i64)));
                        obj.push(("cols_parsed".into(), Value::Int(parsed as i64)));
                    }
                    obj.push(("morsels".into(), Value::Int(p.morsels as i64)));
                    obj.push(("par_rows".into(), Value::Int(p.par_rows as i64)));
                    obj.push((
                        "parallel_fraction".into(),
                        Value::Float(p.parallel_fraction()),
                    ));
                }
                Value::object(obj)
            })
            .collect();
        Value::object(vec![
            ("label".into(), Value::str(&self.label)),
            (
                "predicted".into(),
                Value::object(vec![
                    ("hv_s".into(), Value::Float(self.predicted.hv.as_secs_f64())),
                    (
                        "transfer_s".into(),
                        Value::Float(self.predicted.transfer.as_secs_f64()),
                    ),
                    ("dw_s".into(), Value::Float(self.predicted.dw.as_secs_f64())),
                ]),
            ),
            (
                "views".into(),
                Value::Array(self.used_views.iter().map(Value::str).collect()),
            ),
            ("nodes".into(), Value::Array(nodes)),
        ])
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use miso_exec::engine::{execute, execute_subset, MemSource};
    use miso_exec::UdfRegistry;
    use miso_lang::{compile, Catalog};
    use miso_optimizer::optimize::{optimize, Design, OptimizerEnv};
    use miso_plan::estimate::{estimate_plan, MapStats};
    use std::collections::HashSet;

    fn lines(n: usize) -> Vec<String> {
        (0..n)
            .map(|i| {
                format!(
                    "{{\"user_id\": {}, \"city\": \"c{}\", \"followers\": {}, \"likes\": {}, \"text\": \"t\"}}",
                    i,
                    i % 7,
                    (i * 37) % 2000,
                    i % 10
                )
            })
            .collect()
    }

    fn build() -> (PlannedQuery, HashMap<NodeId, SizeEstimate>, MemSource) {
        let plan = compile(
            "SELECT t.city AS c, COUNT(*) AS n FROM twitter t \
             WHERE t.followers > 500 GROUP BY t.city",
            &Catalog::standard(),
        )
        .unwrap();
        let mut stats = MapStats::new();
        stats.set_log("twitter", 2_000.0, 2_000.0 * 90.0);
        let hv = HvCostModel::paper_default();
        let dw = DwCostModel::paper_default();
        let tm = TransferModel::paper_default();
        let env = OptimizerEnv {
            stats: &stats,
            hv: &hv,
            dw: &dw,
            transfer: &tm,
            catalog: None,
        };
        let planned = optimize(&plan, &Design::new(), &env).unwrap();
        let est = estimate_plan(&planned.plan, &stats);
        let mut source = MemSource::new();
        source.add_log("twitter", lines(2_000));
        (planned, est, source)
    }

    fn xray(
        label: &str,
        planned: &PlannedQuery,
        est: &HashMap<NodeId, SizeEstimate>,
        profiles: &HashMap<NodeId, OpProfile>,
    ) -> String {
        let models = CostModels {
            hv: &HvCostModel::paper_default(),
            dw: &DwCostModel::paper_default(),
            transfer: &TransferModel::paper_default(),
        };
        let x = analyze(label, planned, est, profiles, &models);
        // JSON form round-trips through the repo's own JSON.
        let json = miso_data::json::to_json(&x.to_value());
        let v = miso_data::json::parse_json(&json).unwrap();
        assert_eq!(v.get_field("label"), Some(&Value::str(label)));
        assert!(v.get_field("nodes").is_some());
        explain_analyze(&x)
    }

    #[test]
    fn explain_analyze_renders_pred_and_act_per_node() {
        let (planned, est, source) = build();
        let exec = execute(&planned.plan, &source, &UdfRegistry::new()).unwrap();
        let text = xray("q1", &planned, &est, exec.profiles());
        assert!(text.contains("explain analyze [q1]"), "{text}");
        assert!(text.contains("ScanLog(twitter)"), "{text}");
        // Every node line carries a prediction, a measurement and the
        // morsel structure.
        let nodes: Vec<&str> = text.lines().filter(|l| l.contains("pred ")).collect();
        assert_eq!(nodes.len(), planned.plan.len());
        for line in nodes {
            assert!(
                line.contains(" rows · ") && line.contains("morsels"),
                "{line}"
            );
        }
    }

    /// A node no store ran has no record, and says so.
    #[test]
    fn explain_analyze_of_a_partial_run_marks_the_nodes_that_did_not_run() {
        let (planned, est, source) = build();
        let root = planned.plan.root();
        let ids = planned.plan.nodes().iter().map(|n| n.id);
        let below: HashSet<NodeId> = ids.filter(|id| *id != root).collect();
        let udfs = UdfRegistry::new();
        let exec =
            execute_subset(&planned.plan, Some(&below), HashMap::new(), &source, &udfs).unwrap();
        let text = xray("q2", &planned, &est, exec.profiles());
        let unrun: Vec<&str> = text.lines().filter(|l| l.contains("act -")).collect();
        assert_eq!(unrun.len(), 1, "{text}");
        assert!(!unrun[0].contains("morsels"), "{text}");
        assert_eq!(text.matches("morsels").count(), below.len(), "{text}");
    }

    #[test]
    fn fmt_ns_scales() {
        assert_eq!(fmt_ns(812), "812ns");
        assert_eq!(fmt_ns(4_100), "4.1µs");
        assert_eq!(fmt_ns(23_500_000), "23.5ms");
        assert_eq!(fmt_ns(1_200_000_000), "1.20s");
    }
}
