//! Read-only split-plan execution against an epoch snapshot.
//!
//! [`SnapExecutor`] walks the one split pipeline — place the query, run the
//! HV side, hand each cut to DW, finish there — against an immutable
//! [`EpochSnapshot`]. Every decision on that path is [`miso_core::split`]'s,
//! the functions the serial driver composes too; this module adds what lets
//! many concurrent sessions share the walk:
//!
//! * **No mutation.** Working sets reach DW through its `provided` map, not
//!   temp tables, and harvests come back as *candidates* for the engine to
//!   install in the master copy — the snapshot is never written.
//! * **No faults.** Base runs are computed with chaos suspended; the engine
//!   polls the fail points per dispatch and lays the resulting cost/kill
//!   envelope over the cached base run.
//! * **A memo.** A snapshot is immutable, so (plan, banned views, hv-only)
//!   fixes the base run: 32 templates cost 32 real executions per epoch.
//!   The plan is keyed by its fingerprint beside the caller's label, so two
//!   templates that share a label never share a run.

use std::collections::{BTreeSet, HashMap};
use std::sync::Arc;

use miso_common::ids::QueryId;
use miso_common::{ByteSize, QueryGuard, Result, SimDuration};
use miso_core::split::{self, HarvestCandidate};
use miso_data::Checksum;
use miso_exec::UdfRegistry;
use miso_plan::fingerprint::{fnv1a_str, fnv1a_words};
use miso_plan::LogicalPlan;

use crate::snapshot::EpochSnapshot;

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
    /// Peak bytes a guard is charged (scratch + materializations), metered.
    pub charged_bytes: u64,
    /// Root row count.
    pub result_rows: u64,
    /// Multiset checksum of the root rows (checked against the oracle).
    pub checksum: Checksum,
    /// Views the plan reads; `true` when the HV copy is the one read.
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

    /// The fault-free run of `raw` against `snap`, planned without `banned`
    /// views; `hv_only` places it as the driver's HV fallback is placed.
    pub fn run(
        &mut self,
        snap: &EpochSnapshot,
        label: &str,
        raw: &LogicalPlan,
        banned: &BTreeSet<String>,
        hv_only: bool,
    ) -> Result<Arc<BaseRun>> {
        let banned_fp = fnv1a_words(banned.iter().map(|n| fnv1a_str(n)));
        let plan_fp = fnv1a_words([fnv1a_str(label), raw.fingerprint(raw.root()).0]);
        let key = (snap.epoch, plan_fp, banned_fp, hv_only);
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
        let stores = snap.stores();
        let usable = |name: &String| !banned.contains(name) && !snap.catalog.is_quarantined(name);
        let (planned, _) = split::place(stores, raw, usable, hv_only)?;
        let plan = &planned.plan;
        // Unlimited budget: this guard only *measures* what a real per-query
        // guard would charge, so the engine can replay the charge cheaply.
        let meter = QueryGuard::new(None, 0);
        let (hv_set, dw_set) = split::node_sets(&planned);
        let (hv, dw) = (&snap.hv, &snap.dw);
        let hv_run = if hv_set.is_empty() {
            None
        } else {
            Some(hv.execute_guarded(plan, Some(&hv_set), &self.udfs, &meter, &[])?)
        };
        let cuts = match &hv_run {
            Some(run) => split::cuts(stores, &planned, run)?,
            None => Vec::new(),
        };
        let shipped = cuts.iter().map(|c| (c.node, c.batch.clone())).collect();
        let dw_run = if dw_set.is_empty() {
            None
        } else {
            Some(dw.execute_guarded(plan, Some(&dw_set), shipped, &self.udfs, &meter)?)
        };
        let (result_rows, checksum) = split::answer(hv_run.as_ref(), dw_run.as_ref())?;
        let harvest = hv_run
            .iter()
            .flat_map(|run| split::harvestable(plan, run))
            .filter(|(name, _)| !snap.catalog.contains(name))
            .map(|(_, out)| HarvestCandidate::of(plan, out, QueryId(0)))
            .collect();
        let used = planned.used_views.iter();
        Ok(BaseRun {
            hv_cost: hv_run.as_ref().map_or(SimDuration::ZERO, |run| run.cost),
            cut_costs: cuts.iter().map(|c| c.ship_cost).collect(),
            dw_cost: dw_run.as_ref().map_or(SimDuration::ZERO, |run| run.cost),
            bytes_transferred: cuts.iter().map(|c| c.bytes).sum(),
            charged_bytes: meter.peak(),
            result_rows,
            checksum,
            used_views: used.map(|v| (v.clone(), hv.views.contains(v))).collect(),
            harvest,
        })
    }
}
