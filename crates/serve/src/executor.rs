//! Read-only split-plan execution against an epoch snapshot.
//!
//! [`SnapExecutor`] replays the serial driver's split-execution pipeline
//! (optimize → HV stages → ship cuts → DW finish) against an immutable
//! [`EpochSnapshot`], with two differences that make it safe to run from
//! many concurrent sessions:
//!
//! 1. **No mutation.** Working sets are handed to DW through the engine's
//!    `provided` map instead of temp-table loads, and harvesting/retention
//!    come back as *candidates* for the engine to apply to the master copy —
//!    the snapshot is never written.
//! 2. **No fault handling.** Base runs are computed with chaos suspended
//!    ([`miso_chaos::suspend`] preserves the storm's RNG stream); the engine
//!    polls the fail points itself per dispatch and applies the resulting
//!    cost/kill envelope on top of the cached base run.
//!
//! Because a snapshot is immutable, a (label, banned-view set) pair always
//! produces the same base run within an epoch. The executor memoizes on
//! exactly that key, so a thousand sessions issuing the same 32 workload
//! templates cost one real execution each per epoch — the discrete-event
//! serving loop then scales to large session counts.

use std::collections::{BTreeSet, HashMap, HashSet};
use std::sync::Arc;

use miso_common::ids::{NodeId, QueryId};
use miso_common::{ByteSize, MisoError, QueryGuard, Result, SimDuration};
use miso_data::{checksum_rows, Checksum, Row, Schema};
use miso_exec::UdfRegistry;
use miso_optimizer::optimize::OptimizerEnv;
use miso_optimizer::{optimize, Design};
use miso_plan::fingerprint::{fingerprint_all, fnv1a_str, fnv1a_words};
use miso_plan::LogicalPlan;
use miso_views::ViewDef;

use crate::snapshot::EpochSnapshot;

/// A materialized HV by-product the engine may install into the master
/// catalog (the concurrent analogue of the serial driver's view harvest).
#[derive(Debug, Clone)]
pub struct HarvestCandidate {
    /// Catalog definition (fingerprint name, size, rows, checksum).
    pub def: ViewDef,
    /// Output schema.
    pub schema: Schema,
    /// Materialized rows (shared with the execution that produced them).
    pub rows: Arc<Vec<Row>>,
}

/// One fault-free execution of a query against a snapshot: the costs,
/// result identity, and by-products the engine needs to serve dispatches.
#[derive(Debug)]
pub struct BaseRun {
    /// Simulated HV execution time (zero for DW-only plans).
    pub hv_cost: SimDuration,
    /// Per-cut ship time (dump + wire + load), in cut order.
    pub cut_costs: Vec<SimDuration>,
    /// Simulated DW execution time (zero for HV-only plans).
    pub dw_cost: SimDuration,
    /// Total bytes shipped HV→DW.
    pub bytes_transferred: ByteSize,
    /// Peak bytes a guard charges for this run (join/aggregate scratch +
    /// materializations), measured with an unlimited-budget guard.
    pub charged_bytes: u64,
    /// Root row count.
    pub result_rows: u64,
    /// Order-insensitive multiset checksum of the root rows — compared
    /// against the serial oracle on delivery.
    pub checksum: Checksum,
    /// Views the chosen plan reads, tagged with whether the HV copy is the
    /// one read (`true`) or the DW copy (`false`).
    pub used_views: Vec<(String, bool)>,
    /// Harvestable HV stage outputs not already in the snapshot catalog.
    pub harvest: Vec<HarvestCandidate>,
}

impl BaseRun {
    /// End-to-end fault-free service time.
    pub fn service(&self) -> SimDuration {
        self.hv_cost + self.cut_costs.iter().copied().sum::<SimDuration>() + self.dw_cost
    }
}

/// Memoizing snapshot executor. One per engine; not itself thread-safe —
/// the engine's event loop serializes access.
#[derive(Debug)]
pub struct SnapExecutor {
    udfs: UdfRegistry,
    memo: HashMap<(u64, u64, u64, bool), Arc<BaseRun>>,
}

impl SnapExecutor {
    /// An executor evaluating UDFs from `udfs`.
    pub fn new(udfs: UdfRegistry) -> Self {
        SnapExecutor {
            udfs,
            memo: HashMap::new(),
        }
    }

    /// Memoized base runs computed so far (test/diagnostic hook).
    pub fn memo_len(&self) -> usize {
        self.memo.len()
    }

    /// Drops base runs for epochs older than `epoch` (published snapshots
    /// that no in-flight query references any more).
    pub fn retire_before(&mut self, epoch: u64) {
        self.memo.retain(|(e, _, _, _), _| *e >= epoch);
    }

    /// The fault-free run of `raw` against `snap`, excluding `banned` views
    /// from planning. With `hv_only`, DW is out of the design entirely (the
    /// concurrent analogue of the serial driver's HV fallback).
    pub fn run(
        &mut self,
        snap: &EpochSnapshot,
        label: &str,
        raw: &LogicalPlan,
        banned: &BTreeSet<String>,
        hv_only: bool,
    ) -> Result<Arc<BaseRun>> {
        let banned_fp = fnv1a_words(banned.iter().map(|n| fnv1a_str(n)));
        let key = (snap.epoch, fnv1a_str(label), banned_fp, hv_only);
        if let Some(hit) = self.memo.get(&key) {
            return Ok(hit.clone());
        }
        // Base runs are fault-free by definition; the storm's RNG stream and
        // hit counters pass through untouched.
        let was_on = miso_chaos::suspend();
        let computed = self.compute(snap, raw, banned, hv_only);
        miso_chaos::resume(was_on);
        let run = Arc::new(computed?);
        self.memo.insert(key, run.clone());
        Ok(run)
    }

    fn compute(
        &self,
        snap: &EpochSnapshot,
        raw: &LogicalPlan,
        banned: &BTreeSet<String>,
        hv_only: bool,
    ) -> Result<BaseRun> {
        let usable = |name: &String| !banned.contains(name) && !snap.catalog.is_quarantined(name);
        let design = Design {
            hv_views: snap.hv.view_names().into_iter().filter(usable).collect(),
            dw_views: if hv_only {
                HashSet::new()
            } else {
                snap.dw.view_names().into_iter().filter(usable).collect()
            },
        };
        let stats = miso_core::system::map_stats(&snap.hv, &snap.dw, &snap.catalog);
        let planned = {
            let env = OptimizerEnv {
                stats: &stats,
                hv: &snap.hv.cost_model,
                dw: &snap.dw.cost_model,
                transfer: &snap.transfer,
                catalog: Some(&snap.catalog),
            };
            optimize(raw, &design, &env)?
        };
        let plan = &planned.plan;
        let hv_set: HashSet<NodeId> = planned.split.hv_nodes().iter().copied().collect();
        let dw_set: HashSet<NodeId> = plan
            .nodes()
            .iter()
            .map(|n| n.id)
            .filter(|id| !hv_set.contains(id))
            .collect();
        if hv_only && !dw_set.is_empty() {
            return Err(MisoError::Plan(
                "hv_only planning produced DW-side nodes".to_string(),
            ));
        }

        // Unlimited budget: this guard only *measures* what a real per-query
        // guard would charge, so the engine can replay the charge cheaply.
        let meter = QueryGuard::new(None, 0);
        let mut hv_cost = SimDuration::ZERO;
        let mut cut_costs = Vec::new();
        let mut bytes_transferred = ByteSize::ZERO;
        let mut provided: HashMap<NodeId, Arc<Vec<Row>>> = HashMap::new();
        let mut harvest = Vec::new();
        let mut root: Option<(u64, Checksum)> = None;

        if !hv_set.is_empty() {
            let run = snap
                .hv
                .execute_guarded(plan, Some(&hv_set), &self.udfs, &meter)?;
            hv_cost = run.cost;
            for cut in planned.split.cut_nodes(plan) {
                let rows = run.execution.retained_output(cut)?.clone();
                let bytes = run.execution.output_bytes(cut);
                bytes_transferred += bytes;
                cut_costs.push(
                    snap.hv.dump_cost(bytes)
                        + snap.transfer.transfer_cost(bytes)
                        + snap.dw.load_cost(bytes),
                );
                provided.insert(cut, rows);
            }
            if planned.split.is_hv_only(plan) {
                let rows = run.execution.root_rows()?;
                root = Some((rows.len() as u64, checksum_rows(rows)));
            }
            let fps = fingerprint_all(plan);
            for m in &run.materialized {
                if plan.node(m.node).op.is_scan() {
                    continue;
                }
                let Some(fp) = fps.get(&m.node) else { continue };
                let name = fp.view_name();
                if snap.catalog.contains(&name) {
                    continue;
                }
                let def = ViewDef::from_plan(
                    plan.subplan(m.node),
                    m.size,
                    m.rows.len() as u64,
                    QueryId(0),
                )
                .with_checksum(checksum_rows(&m.rows));
                harvest.push(HarvestCandidate {
                    def,
                    schema: m.schema.clone(),
                    rows: m.rows.clone(),
                });
            }
        }

        let mut dw_cost = SimDuration::ZERO;
        if !dw_set.is_empty() {
            let run = snap.dw.execute_guarded(
                plan,
                Some(&dw_set),
                provided.clone(),
                &self.udfs,
                &meter,
            )?;
            dw_cost = run.cost;
            let rows = run.execution.root_rows()?;
            root = Some((rows.len() as u64, checksum_rows(rows)));
        }
        let (result_rows, checksum) = root
            .ok_or_else(|| MisoError::Plan("split produced neither HV nor DW root".to_string()))?;

        let used_views = planned
            .used_views
            .iter()
            .map(|v| (v.clone(), snap.hv.has_view(v)))
            .collect();
        Ok(BaseRun {
            hv_cost,
            cut_costs,
            dw_cost,
            bytes_transferred,
            charged_bytes: meter.peak(),
            result_rows,
            checksum,
            used_views,
            harvest,
        })
    }
}
