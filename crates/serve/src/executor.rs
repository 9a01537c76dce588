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
//!   fixes the base run: each key is computed once per snapshot. The memo
//!   keys on the snapshot's id, not its epoch number, which two images
//!   taken around a growth step can share. The plan is keyed by its
//!   fingerprint beside the caller's label, so two templates that share a
//!   label never share a *run* — they may share sub-plans inside a wave
//!   (next point), each still charged as if it ran alone.
//! * **A wave.** Because a base run is a pure function of its key,
//!   [`SnapExecutor::prefetch`] computes a whole workload's fault-free runs
//!   as one pool batch, one query per task, instead of one at a time as
//!   dispatches ask for them. The wave places every template first, counts
//!   the sub-plans the placed plans repeat, and runs them over one
//!   [`SubplanMemo`]: a repeated sub-plan — in either store — runs once per
//!   wave, and every other run replays it with the charges of running it,
//!   so each base run equals a run of its own. The memo lives for the wave;
//!   single dispatches ([`SnapExecutor::run`]) share nothing.

use std::collections::{BTreeSet, HashMap};
use std::sync::Arc;

use miso_common::ids::QueryId;
use miso_common::prehash::{fnv1a_str, fnv1a_words};
use miso_common::{pool, ByteSize, QueryGuard, Result, SimDuration};
use miso_core::split::{self, HarvestCandidate};
use miso_data::Checksum;
use miso_exec::{MemoKey, SubplanMemo, UdfRegistry};
use miso_optimizer::optimize::PlannedQuery;
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

/// Memo key: (epoch, snapshot id, plan fingerprint, banned-views
/// fingerprint, hv-only). The epoch is there to retire by.
type Key = (u64, u64, u64, u64, bool);

/// A memoized base run, and whether a dispatch has read it (a prefetched
/// run may never be).
#[derive(Debug)]
struct Memo {
    run: Arc<BaseRun>,
    read: bool,
}

/// Memoizing snapshot executor. One per engine: its methods take
/// `&mut self`, so the engine's event loop serializes access, and the tasks
/// of a [`SnapExecutor::prefetch`] wave share only the snapshot and the
/// UDFs.
#[derive(Debug)]
pub struct SnapExecutor {
    udfs: UdfRegistry,
    memo: HashMap<Key, Memo>,
}

impl SnapExecutor {
    /// An executor evaluating UDFs from `udfs`.
    pub fn new(udfs: UdfRegistry) -> Self {
        SnapExecutor {
            udfs,
            memo: HashMap::new(),
        }
    }

    /// Memoized base runs of the retained epochs that a [`SnapExecutor::run`]
    /// has returned: what the engine reports as its base runs. A prefetched
    /// run no dispatch asked for is not counted.
    pub fn runs_read(&self) -> usize {
        self.memo.values().filter(|m| m.read).count()
    }

    /// Drops base runs for epochs older than `epoch` (published snapshots
    /// that no in-flight query references any more).
    pub fn retire_before(&mut self, epoch: u64) {
        self.memo.retain(|(e, ..), _| *e >= epoch);
    }

    fn key(
        snap: &EpochSnapshot,
        label: &str,
        raw: &LogicalPlan,
        banned: &BTreeSet<String>,
        hv_only: bool,
    ) -> Key {
        let banned_fp = fnv1a_words(banned.iter().map(|n| fnv1a_str(n)));
        let plan_fp = fnv1a_words([fnv1a_str(label), raw.fingerprint(raw.root()).0]);
        (snap.epoch, snap.id(), plan_fp, banned_fp, hv_only)
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
        let key = Self::key(snap, label, raw, banned, hv_only);
        if let Some(hit) = self.memo.get_mut(&key) {
            hit.read = true;
            return Ok(hit.run.clone());
        }
        // Base runs are fault-free by definition; the storm's RNG stream and
        // hit counters pass through untouched.
        let was_on = miso_chaos::suspend();
        let computed = compute(&self.udfs, snap, raw, banned, hv_only);
        miso_chaos::resume(was_on);
        miso_obs::count("serve.base_runs_computed", 1);
        let run = Arc::new(computed?);
        let memo = Memo {
            run: run.clone(),
            read: true,
        };
        self.memo.insert(key, memo);
        Ok(run)
    }

    /// Computes and memoizes the fault-free run — no banned views, split
    /// placement — of every template in `workload` that `snap`'s epoch has
    /// not memoized yet, with chaos suspended once around it: the templates
    /// are placed as one pool batch, a serial pass counts the sub-plan keys
    /// of the placed plans (`planned_keys`) into a [`SubplanMemo`] with a
    /// cell per repeated key, and the runs are a second pool batch over that
    /// memo. Each task is one query; the morsel batches it dispatches run
    /// inline on its thread. A run that errors is not memoized, so the
    /// dispatch that asks for it computes it again, alone, and meets the
    /// same error. Banned-view re-plans and HV-only runs stay to
    /// [`Self::run`].
    pub fn prefetch(&mut self, snap: &EpochSnapshot, workload: &[(String, LogicalPlan)]) {
        let none = BTreeSet::new();
        let todo: Vec<(Key, &LogicalPlan)> = (workload.iter())
            .map(|(label, raw)| (Self::key(snap, label, raw, &none, false), raw))
            .filter(|(key, _)| !self.memo.contains_key(key))
            .collect();
        let mut span = miso_obs::span("serve.prefetch");
        let udfs = &self.udfs;
        let was_on = miso_chaos::suspend();
        let placed = pool::run_batch(todo.len(), |i| place(snap, todo[i].1, &none, false));
        let runs = placed.and_then(|placed| {
            let keys: Vec<Vec<MemoKey>> = (placed.iter())
                .map(|p| {
                    p.as_ref()
                        .map_or_else(|_| Vec::new(), |p| planned_keys(udfs, snap, p))
                })
                .collect();
            let memo = SubplanMemo::planned(keys.iter().flatten().copied());
            let order = stagger(&keys, &memo);
            let runs = pool::run_batch(order.len(), |j| match &placed[order[j]] {
                Ok(planned) => run_placed(udfs, snap, planned, Some(&memo)),
                Err(e) => Err(e.clone()),
            });
            if span.is_active() {
                span.push_field("cells", miso_obs::FieldValue::U64(memo.cells() as u64));
                span.push_field("hits", miso_obs::FieldValue::U64(memo.hits()));
            }
            Ok(order.into_iter().zip(runs?))
        });
        miso_chaos::resume(was_on);
        if span.is_active() {
            span.push_field("epoch", miso_obs::FieldValue::U64(snap.epoch));
            span.push_field("templates", miso_obs::FieldValue::U64(todo.len() as u64));
        }
        miso_obs::count("serve.base_runs_computed", todo.len() as u64);
        // A task that panicked leaves the whole wave unmemoized: every
        // dispatch then computes its own run, as without a wave.
        let Ok(runs) = runs else { return };
        for (i, run) in runs {
            if let Ok(run) = run {
                let run = Arc::new(run);
                self.memo.insert(todo[i].0, Memo { run, read: false });
            }
        }
    }
}

/// The order a wave starts its runs in. Two runs that reach the same cell
/// side by side wait for each other, and the templates of one analyst come
/// in a row and share their first sub-plans; so the runs are grouped by the
/// first cell each reads and the groups dealt out one run at a time. Any
/// order computes the same runs.
fn stagger(keys: &[Vec<MemoKey>], memo: &SubplanMemo) -> Vec<usize> {
    let mut groups: Vec<(Option<MemoKey>, Vec<usize>)> = Vec::new();
    for (i, keys) in keys.iter().enumerate() {
        let lead = keys.iter().copied().find(|&key| memo.shares(key));
        match groups
            .iter_mut()
            .find(|(first, _)| first.is_some() && *first == lead)
        {
            Some((_, runs)) => runs.push(i),
            None => groups.push((lead, vec![i])),
        }
    }
    let rounds = groups.iter().map(|(_, runs)| runs.len()).max().unwrap_or(0);
    let dealt =
        (0..rounds).flat_map(|round| groups.iter().filter_map(move |(_, runs)| runs.get(round)));
    dealt.copied().collect()
}

/// One fault-free walk of the split pipeline for `raw` over `snap`.
fn compute(
    udfs: &UdfRegistry,
    snap: &EpochSnapshot,
    raw: &LogicalPlan,
    banned: &BTreeSet<String>,
    hv_only: bool,
) -> Result<BaseRun> {
    run_placed(udfs, snap, &place(snap, raw, banned, hv_only)?, None)
}

/// `raw` placed over `snap`, planned without `banned` views.
fn place(
    snap: &EpochSnapshot,
    raw: &LogicalPlan,
    banned: &BTreeSet<String>,
    hv_only: bool,
) -> Result<PlannedQuery> {
    let usable = |name: &String| !banned.contains(name) && !snap.catalog.is_quarantined(name);
    Ok(split::place(snap.stores(), raw, usable, hv_only)?.0)
}

/// The sub-plan memo keys a run of `planned` executes, HV side then DW
/// side: what [`run_placed`] will ask a memo for.
fn planned_keys(udfs: &UdfRegistry, snap: &EpochSnapshot, planned: &PlannedQuery) -> Vec<MemoKey> {
    let plan = &planned.plan;
    let (hv_set, dw_set) = split::node_sets(planned);
    // The cuts HV ships in are the DW run's seeds.
    let seeds = planned.split.cut_nodes(plan).into_iter().collect();
    let hv = (!hv_set.is_empty()).then(|| snap.hv.memo_keys(plan, Some(&hv_set), udfs));
    let dw = (!dw_set.is_empty()).then(|| snap.dw.memo_keys(plan, Some(&dw_set), &seeds, udfs));
    hv.into_iter().chain(dw).flatten().flatten().collect()
}

/// The walk of `planned` over `snap`: its HV side, the cuts, its DW side,
/// sharing the sub-plans `memo` holds.
fn run_placed(
    udfs: &UdfRegistry,
    snap: &EpochSnapshot,
    planned: &PlannedQuery,
    memo: Option<&SubplanMemo>,
) -> Result<BaseRun> {
    let stores = snap.stores();
    let plan = &planned.plan;
    // Unlimited budget: this guard only *measures* what a real per-query
    // guard would charge, so the engine can replay the charge cheaply.
    let meter = QueryGuard::new(None, 0);
    let (hv_set, dw_set) = split::node_sets(planned);
    let (hv, dw) = (&snap.hv, &snap.dw);
    let hv_run = if hv_set.is_empty() {
        None
    } else {
        let none = |_: &[_]| Vec::new();
        Some(hv.execute_keeping(plan, Some(&hv_set), udfs, &meter, none, memo)?)
    };
    let cuts = match &hv_run {
        Some(run) => split::cuts(stores, planned, run)?,
        None => Vec::new(),
    };
    let shipped = cuts.iter().map(|c| (c.node, c.batch.clone())).collect();
    let dw_run = if dw_set.is_empty() {
        None
    } else {
        Some(dw.execute_guarded(plan, Some(&dw_set), shipped, udfs, &meter, memo)?)
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
