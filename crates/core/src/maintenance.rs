//! Opportunistic-view maintenance under append-only log growth.
//!
//! The paper defers updates to future work but sketches the shape of the
//! problem (§6): views are created opportunistically (recreating one is
//! free next time its subexpression runs), the domain is exploratory (stale
//! answers over logs are often acceptable until the analyst re-queries),
//! and HDFS updates are **append-only**. This module implements the two
//! natural policies those observations suggest:
//!
//! * [`MaintenancePolicy::Invalidate`] — drop every view derived from the
//!   appended log. Zero maintenance cost; the views regrow as by-products
//!   of the next queries (the "opportunistic" answer).
//! * [`MaintenancePolicy::Refresh`] — keep the design warm, in **one pass
//!   per batch**. The appended lines become a [`LogBatch`]: HV extends the
//!   log's kept columns from it, and every view derived from the log —
//!   directly or through other views ([`ViewCatalog::derived_from`]) — is
//!   refreshed against it in dependency order, so each field of the batch
//!   is parsed once, whoever asks. A view the delta-maintenance analyzer
//!   ([`miso_views::analyze_maintenance`]) accepts — filters, projections,
//!   UDFs, joins with the delta on the probe side, a topmost aggregate of
//!   any type — runs its delta plan lean over the batch (or over the Δrows
//!   of the parent view it scans) and folds the result into live state
//!   ([`miso_exec::AggState`], stored join build sides) in O(|delta|),
//!   re-stamping the integrity checksum incrementally through
//!   [`RowSetDigest`] (bit-identical to a full re-checksum). That state is
//!   captured when the view is harvested: under a `Refresh` growth
//!   schedule the HV run that produces a view keeps its fold inputs (the
//!   join build sides, the aggregate's input) beside the harvest, and the
//!   view enters the catalog warm (`HarvestFold`), so even its first
//!   growth step folds. Everything else — and every fallback
//!   ([`FullReason`]) — recomputes in full and recaptures the state from
//!   that run; a view over a patched or rebuilt parent recomputes from the
//!   refreshed parent, and a view whose parent is gone is dropped with it.
//!
//! Either way the system's query results always reflect the appended data
//! (stale views are never silently served), and a delta-maintained view is
//! row- and checksum-identical to a freshly recomputed one.
//!
//! [`ViewCatalog::derived_from`]: miso_views::ViewCatalog::derived_from

use crate::split::Site;
use crate::system::MultistoreSystem;
use miso_common::guard::QueryGuard;
use miso_common::ids::NodeId;
use miso_common::{ByteSize, MisoError, Result, SimClock, SimDuration};
use miso_data::checksum::RowSetDigest;
use miso_data::logs::LogKind;
use miso_data::{ColBatch, Delta, StoredView};
use miso_dw::DwActivity;
use miso_exec::engine::{
    execute_subset_guarded, DataSource, Execution, LogColumns, LogLines, Retention,
};
use miso_exec::{AggState, FusedField};
use miso_hv::LogBatch;
use miso_plan::LogicalPlan;
use miso_views::{analyze_maintenance, FullReason, MaintPlan, ViewCatalog, ViewChange, ViewDef};
use std::collections::HashMap;
use std::sync::Arc;
use std::time::Instant;

/// How to treat views derived from a log that just grew.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MaintenancePolicy {
    /// Drop affected views; let them regrow opportunistically.
    Invalidate,
    /// Keep affected views current (incremental where maintainable).
    Refresh,
}

/// What happened to one affected view during an append.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MaintAction {
    /// The delta was folded into the stored view (and its checksum
    /// re-stamped) without touching the base data.
    Delta,
    /// The view was recomputed from its defining plan.
    Full,
    /// The view was dropped (policy, or refresh inputs unavailable).
    Invalidated,
}

/// One per-view maintenance decision, with the *why* when the delta path
/// was not taken.
#[derive(Debug, Clone)]
pub struct MaintDecision {
    /// The view.
    pub view: String,
    /// What was done.
    pub action: MaintAction,
    /// Why a full rebuild (or invalidation) was chosen instead of a delta
    /// apply. `None` exactly when `action == Delta`, and for
    /// invalidations.
    pub reason: Option<FullReason>,
    /// Raw delta lines this append carried.
    pub delta_rows: u64,
    /// Simulated maintenance time charged for this view.
    pub cost: SimDuration,
}

/// What one append did to the physical design.
#[derive(Debug, Clone, Default)]
pub struct MaintenanceReport {
    /// Bytes appended to the base log.
    pub appended: ByteSize,
    /// Views dropped (Invalidate, or Refresh fallback when a view's inputs
    /// are unavailable for recomputation).
    pub invalidated: Vec<String>,
    /// Views refreshed incrementally (delta-only execution).
    pub delta_refreshed: Vec<String>,
    /// Views recomputed in full.
    pub recomputed: Vec<String>,
    /// Per-view decisions, in maintenance order, each carrying the reason
    /// when the delta path was not taken.
    pub decisions: Vec<MaintDecision>,
    /// Simulated maintenance time charged.
    pub cost: SimDuration,
}

/// Live incremental-maintenance state for one view: the running content
/// digest (finishes to the catalog checksum), the stored join build sides
/// the delta plan probes, and the aggregate fold state when the view ends
/// in an aggregate.
pub(crate) struct IvmViewState {
    /// Incremental multiset digest of the stored batch. Checked against the
    /// catalog checksum before every delta apply: any out-of-band rebuild
    /// (reorg repair, harvest refresh) makes the state read as stale and
    /// forces a rebuild instead of a wrong fold.
    digest: RowSetDigest,
    /// Materialized right (build) inputs of delta-on-probe-side joins,
    /// keyed by their synthetic `§ivm:` view names.
    builds: HashMap<String, Arc<ColBatch>>,
    /// Aggregate fold state; `None` for append-only views.
    agg: Option<AggState>,
}

impl IvmViewState {
    /// The fold state of a view stored as `view`, taken from the run that
    /// computed it: `output` answers the kept output of a node of the
    /// view's defining plan `def_plan` — one of [`fold_inputs`]. The build
    /// sides are shared, the aggregate's input is replayed into fresh
    /// [`AggState`], and the digest is the view's own.
    fn capture<'r>(
        mplan: &MaintPlan,
        def_plan: &LogicalPlan,
        view: &ColBatch,
        output: impl Fn(NodeId) -> Result<&'r Arc<ColBatch>>,
    ) -> Result<IvmViewState> {
        let mut builds = HashMap::new();
        for b in mplan.builds() {
            builds.insert(b.name.clone(), output(b.node)?.clone());
        }
        let agg = match mplan {
            MaintPlan::Aggregate(da) => {
                let input = output(def_plan.node(da.agg).inputs[0])?;
                Some(AggState::build(input, &da.group_by, &da.aggs)?)
            }
            MaintPlan::Append(_) => None,
        };
        Ok(IvmViewState {
            digest: RowSetDigest::from_batch(view),
            builds,
            agg,
        })
    }
}

/// The interior outputs of a view's defining plan its fold state is built
/// from, which HV would pipeline away: the join build sides, then the
/// aggregate's input.
fn fold_inputs(mplan: &MaintPlan, def_plan: &LogicalPlan) -> Vec<NodeId> {
    let agg_input = match mplan {
        MaintPlan::Aggregate(da) => Some(def_plan.node(da.agg).inputs[0]),
        MaintPlan::Append(_) => None,
    };
    mplan
        .builds()
        .iter()
        .map(|b| b.node)
        .chain(agg_input)
        .collect()
}

/// How `view` changes when `log` grows, every state warm: appended to when
/// its plan folds per record, rewritten when it folds into an aggregate or
/// recomputes, unchanged when the log does not reach it — what
/// `append_log` does to it, parents first, when no fallback fires.
fn warm_change(catalog: &ViewCatalog, log: &str, view: &str) -> ViewChange {
    let Some(def) = catalog.get(view).filter(|def| def.lineage.contains(log)) else {
        return ViewChange::Unchanged;
    };
    match analyze_maintenance(&def.plan, log, &|v| warm_change(catalog, log, v)) {
        Ok(MaintPlan::Append(_)) => ViewChange::Appended,
        _ => ViewChange::Rewritten,
    }
}

/// A view an HV run is about to harvest whose fold state the run can
/// capture: its maintenance plan, and where the nodes of its defining plan
/// sit in the query plan.
pub(crate) struct HarvestFold {
    /// The harvested node of the query plan.
    pub(crate) node: NodeId,
    mplan: MaintPlan,
    /// The query-plan node of each defining-plan node, by defining-plan id.
    nodes: Vec<NodeId>,
    /// The query-plan nodes of the fold inputs ([`fold_inputs`]).
    inputs: Vec<NodeId>,
}

impl HarvestFold {
    /// The views among `harvest` — nodes of `plan` HV is about to harvest
    /// — whose fold state a growth step would otherwise rebuild in full
    /// over the log: new to the catalog, delta-maintainable when `log`
    /// grows (parents as [`warm_change`] has them), and keeping more than
    /// a digest (join build sides, aggregate state).
    pub(crate) fn plan(
        catalog: &ViewCatalog,
        log: &str,
        plan: &LogicalPlan,
        harvest: &[NodeId],
    ) -> Vec<HarvestFold> {
        let fps = plan.fingerprints();
        let known = |node: NodeId| {
            let fp = fps.get(node.raw() as usize);
            fp.is_none_or(|fp| catalog.contains(&fp.view_name()))
        };
        let mut folds = Vec::new();
        for &node in harvest {
            if plan.node(node).op.is_scan() || known(node) {
                continue;
            }
            let def_plan = plan.subplan(node);
            let of = |v: &str| warm_change(catalog, log, v);
            let Ok(mplan) = analyze_maintenance(&def_plan, log, &of) else {
                continue;
            };
            let inputs = fold_inputs(&mplan, &def_plan);
            if inputs.is_empty() {
                // Its whole state is the digest, re-seeded from the stored
                // rows at the first growth step.
                continue;
            }
            let nodes = plan.subplan_nodes(node);
            let inputs = inputs.iter().map(|n| nodes[n.raw() as usize]).collect();
            folds.push(HarvestFold {
                node,
                mplan,
                nodes,
                inputs,
            });
        }
        folds
    }

    /// The query-plan nodes a run keeps for `folds`.
    pub(crate) fn keep(folds: &[HarvestFold]) -> Vec<NodeId> {
        folds
            .iter()
            .flat_map(|f| f.inputs.iter().copied())
            .collect()
    }

    /// The state of the view harvested from this node, `def_plan` its
    /// defining plan, out of the run that harvested it.
    pub(crate) fn capture(
        &self,
        def_plan: &LogicalPlan,
        view: &ColBatch,
        run: &Execution,
    ) -> Result<IvmViewState> {
        let output = |n: NodeId| run.retained_batch(self.nodes[n.raw() as usize]);
        IvmViewState::capture(&self.mplan, def_plan, view, output)
    }
}

/// What one append batch hands every view it reaches.
struct BatchDelta<'a> {
    /// The log that grew, its pre-append row count, and the batch's bytes.
    log: &'a str,
    base_rows: u64,
    bytes: ByteSize,
    /// The appended lines, each field parsed at most once for all views.
    batch: &'a LogBatch<'a>,
    /// Views refreshed so far in this batch: the rows appended to them when
    /// that is all that changed, `None` when patched or rebuilt.
    refreshed: HashMap<String, Option<Arc<ColBatch>>>,
}

impl BatchDelta<'_> {
    fn change_of(&self, view: &str) -> ViewChange {
        match self.refreshed.get(view) {
            None => ViewChange::Unchanged,
            Some(Some(_)) => ViewChange::Appended,
            Some(None) => ViewChange::Rewritten,
        }
    }
}

/// What a view's delta plan reads: of the grown log only the batch, of a
/// parent appended to in this batch only its Δrows, the stored join build
/// sides under their synthetic names, and otherwise the HV store's views.
struct DeltaSource<'a> {
    hv: &'a miso_hv::HvStore,
    delta: &'a BatchDelta<'a>,
    builds: &'a HashMap<String, Arc<ColBatch>>,
}

impl DeltaSource<'_> {
    /// A stored build side, or the Δrows of a parent appended to.
    fn pinned(&self, view: &str) -> Option<&Arc<ColBatch>> {
        let delta_of = || self.delta.refreshed.get(view)?.as_ref();
        self.builds.get(view).or_else(delta_of)
    }

    fn batch_of(&self, log: &str) -> Result<&LogBatch<'_>> {
        if log == self.delta.log {
            Ok(self.delta.batch)
        } else {
            // Clean inputs are join build sides, which a delta plan reads
            // from the stored snapshot.
            Err(MisoError::Execution(format!(
                "delta plan scans `{log}`, which did not grow"
            )))
        }
    }
}

impl DataSource for DeltaSource<'_> {
    fn log_lines(&self, log: &str) -> Result<LogLines<'_>> {
        Ok(self.batch_of(log)?.image())
    }

    fn log_columns(&self, log: &str, fields: &[FusedField<'_>]) -> Result<LogColumns> {
        self.batch_of(log)?.columns(fields)
    }

    fn view_batch(&self, view: &str) -> Result<Arc<ColBatch>> {
        match self.pinned(view) {
            Some(batch) => Ok(batch.clone()),
            None => self.hv.view_batch(view),
        }
    }
}

/// What refreshing one view did.
struct Refreshed {
    /// `None` exactly when the delta folded.
    reason: Option<FullReason>,
    cost: SimDuration,
    /// The rows appended to the view, when nothing else about it changed.
    appended: Option<Arc<ColBatch>>,
}

impl Refreshed {
    fn full(cost: SimDuration, reason: FullReason) -> Refreshed {
        Refreshed {
            reason: Some(reason),
            cost,
            appended: None,
        }
    }
}

fn bytes_of(batch: &ColBatch) -> ByteSize {
    ByteSize::from_bytes(batch.row_bytes())
}

impl MultistoreSystem {
    /// Ingests one append-only [`Delta`] batch: appends its lines to the
    /// target base log and maintains affected views per `policy`. This is
    /// the epoch-loop growth step — the corpus grows, the design keeps up.
    pub fn grow(
        &mut self,
        delta: &Delta,
        policy: MaintenancePolicy,
        clock: &mut SimClock,
    ) -> Result<MaintenanceReport> {
        let kind = LogKind::from_table_name(&delta.log)
            .ok_or_else(|| MisoError::Store(format!("no base log `{}`", delta.log)))?;
        self.append_log(kind, &delta.lines, policy, clock)
    }

    /// Appends `lines` to the given base log and maintains, in one pass,
    /// every view derived from it per `policy`. Maintenance time is charged
    /// to the TTI `tune` bucket (it is physical-design upkeep) and to the
    /// background-contention timeline as view-transfer activity where DW is
    /// touched.
    pub fn append_log(
        &mut self,
        kind: LogKind,
        lines: &[String],
        policy: MaintenancePolicy,
        clock: &mut SimClock,
    ) -> Result<MaintenanceReport> {
        let log = kind.table_name();
        let mut span = miso_obs::span("maint.batch");
        let batch = LogBatch::new(lines);
        let base_rows = self.hv.log_rows(log).unwrap_or(0);
        let mut report = MaintenanceReport {
            appended: self.hv.append_log(log, &batch)?,
            ..Default::default()
        };
        let delta_rows = lines.len() as u64;
        miso_obs::count("maint.delta_rows", delta_rows);
        // Drop state for views that no longer exist (evicted, dropped by a
        // reorg); surviving stale state is caught by the digest check.
        {
            let catalog = &self.catalog;
            self.ivm_state.retain(|name, _| catalog.contains(name));
        }
        // Parents before children: a view over a view takes its delta from
        // what this pass just did to the parent.
        let affected: Vec<ViewDef> = self
            .catalog
            .derived_from(log)
            .into_iter()
            .cloned()
            .collect();
        let mut delta = BatchDelta {
            log,
            base_rows,
            bytes: report.appended,
            batch: &batch,
            refreshed: HashMap::new(),
        };
        for def in affected {
            let wall = Instant::now();
            let mut view_span = miso_obs::span("maint.refresh");
            let refreshed = match policy {
                MaintenancePolicy::Invalidate => None,
                // An error means the inputs are unavailable (a parent is
                // gone, or lives only in DW): invalidate rather than serve
                // stale rows.
                MaintenancePolicy::Refresh => {
                    let refreshed = self.refresh_view(&def, &delta, clock).ok();
                    if refreshed.is_none() {
                        miso_obs::count("maint.fallbacks", 1);
                    }
                    refreshed
                }
            };
            let name = def.name;
            let (action, reason, cost) = match refreshed {
                Some(done) => {
                    delta.refreshed.insert(name.clone(), done.appended);
                    report.cost += done.cost;
                    let action = match &done.reason {
                        None => {
                            miso_obs::count("maint.delta_applies", 1);
                            report.delta_refreshed.push(name.clone());
                            MaintAction::Delta
                        }
                        Some(why) => {
                            miso_obs::count("maint.full_refreshes", 1);
                            miso_obs::count(why.counter(), 1);
                            if why.is_fallback() {
                                miso_obs::count("maint.fallbacks", 1);
                            }
                            report.recomputed.push(name.clone());
                            MaintAction::Full
                        }
                    };
                    (action, done.reason, done.cost)
                }
                None => {
                    for site in Site::ALL {
                        self.shelf_mut(site).take(&name);
                    }
                    self.catalog.remove(&name);
                    self.ivm_state.remove(&name);
                    report.invalidated.push(name.clone());
                    (MaintAction::Invalidated, None, SimDuration::ZERO)
                }
            };
            miso_obs::observe("ivm.refresh_ns", wall.elapsed().as_nanos() as u64);
            if view_span.is_active() {
                use miso_obs::FieldValue::{Str, U64};
                view_span.push_field("view", Str(name.clone()));
                view_span.push_field("action", Str(format!("{action:?}")));
                let tag = reason.as_ref().map_or("", FullReason::tag);
                view_span.push_field("reason", Str(tag.into()));
                view_span.push_field("delta_rows", U64(delta_rows));
                let rows_out = self.catalog.get(&name).map_or(0, |d| d.rows);
                view_span.push_field("rows_out", U64(rows_out));
            }
            report.decisions.push(MaintDecision {
                view: name,
                action,
                reason,
                delta_rows,
                cost,
            });
        }
        if span.is_active() {
            use miso_obs::FieldValue::{Str, U64};
            span.push_field("log", Str(log.into()));
            span.push_field("delta_rows", U64(delta_rows));
            span.push_field("views", U64(report.decisions.len() as u64));
            span.push_field("cost_us", U64(report.cost.as_micros()));
        }
        Ok(report)
    }

    /// Refreshes one view against the batch: delta-fold when the view is
    /// maintainable and its state is warm and verified, full recompute
    /// (rebuilding state as a side effect) otherwise, with its
    /// [`FullReason`]. An error leaves the view for the caller to drop.
    fn refresh_view(
        &mut self,
        def: &ViewDef,
        delta: &BatchDelta<'_>,
        clock: &mut SimClock,
    ) -> Result<Refreshed> {
        let name = &def.name;
        if self.catalog.is_quarantined(name) {
            // A quarantined view has no store copies to refresh (they were
            // dropped at quarantine time), and its eventual repair — the
            // reorg's recompute path — re-executes the defining plan over
            // the already-grown base log. Deferring the rebuild there is
            // safe (nothing stale is servable) and costs nothing now.
            self.ivm_state.remove(name);
            return Ok(Refreshed::full(SimDuration::ZERO, FullReason::Quarantined));
        }
        for parent in def.plan.scanned_views() {
            // A parent that was dropped, or that waits for repair, cannot
            // say what this batch did to it.
            if !self.catalog.contains(&parent) || self.catalog.is_quarantined(&parent) {
                return Err(MisoError::Store(format!(
                    "`{name}` scans `{parent}`, which is gone"
                )));
            }
        }
        let mplan = match analyze_maintenance(&def.plan, delta.log, &|v| delta.change_of(v)) {
            Ok(mplan) => mplan,
            Err(reason) => return Ok(Refreshed::full(self.rebuild(def, None, clock)?, reason)),
        };
        // Delta-size policy: past the threshold a rebuild is at least as
        // cheap as folding (and resets any state drift), so prefer it.
        let delta_rows = delta.batch.lines().len() as u64;
        let base_rows = delta.base_rows;
        if delta_rows as f64 > self.config.ivm_max_delta_frac * base_rows as f64 {
            let cost = self.rebuild(def, Some(&mplan), clock)?;
            let reason = FullReason::DeltaTooLarge {
                delta_rows,
                base_rows,
            };
            return Ok(Refreshed::full(cost, reason));
        }
        // State check: cold (never built) or stale (the stored view was
        // rebuilt out of band — the digest no longer matches the catalog
        // checksum) forces a rebuild that recaptures fresh state.
        let stamp = self.catalog.get(name).and_then(|d| d.checksum);
        let mut state = self.ivm_state.remove(name);
        let stale = state.is_some();
        state = state.filter(|st| Some(st.digest.finish()) == stamp);
        // A pure per-record plan's entire fold state is the running digest,
        // which can be re-seeded from the resident cells without executing
        // the plan — only if the reconstruction matches the catalog stamp
        // (a mismatch means the copy is suspect and the rebuild resets it).
        if state.is_none() && matches!(mplan, MaintPlan::Append(_)) && mplan.builds().is_empty() {
            if let Some(view) = Site::ALL
                .iter()
                .find_map(|&site| self.shelf(site).get(name))
            {
                let digest = RowSetDigest::from_batch(&view.batch);
                state = (Some(digest.finish()) == stamp).then(|| IvmViewState {
                    digest,
                    builds: HashMap::new(),
                    agg: None,
                });
            }
        }
        let Some(mut state) = state else {
            let cost = self.rebuild(def, Some(&mplan), clock)?;
            let reason = if stale {
                FullReason::StateStale
            } else {
                FullReason::StateCold
            };
            return Ok(Refreshed::full(cost, reason));
        };
        let folded = self.fold_delta(def, &mplan, &mut state, delta, clock)?;
        self.ivm_state.insert(name.clone(), state);
        Ok(folded)
    }

    /// Folds the batch into warm state: runs the delta plan — lean, fused,
    /// columnar — over the batch image or the parent's Δrows (stored build
    /// sides resolve the join probes), then either extends the stored
    /// columns by the produced ones or patches the aggregate's changed
    /// groups, re-stamping the content checksum incrementally in O(changed
    /// rows). One delta-scale stage is charged.
    fn fold_delta(
        &mut self,
        def: &ViewDef,
        mplan: &MaintPlan,
        state: &mut IvmViewState,
        delta: &BatchDelta<'_>,
        clock: &mut SimClock,
    ) -> Result<Refreshed> {
        let name = def.name.as_str();
        let plan = mplan.delta_plan();
        let src = DeltaSource {
            hv: &self.hv,
            delta,
            builds: &state.builds,
        };
        let exec = execute_subset_guarded(
            plan,
            None,
            HashMap::new(),
            &src,
            self.udf_registry(),
            Retention::ROOT_ONLY,
            QueryGuard::inert_ref(),
        )?;
        let new_rows = exec.root_batch()?.clone();
        let scan_bytes = match &mplan.input().parent {
            None => delta.bytes,
            Some(parent) => bytes_of(src.view_batch(parent)?.as_ref()),
        };
        let site = self.holder(name);
        let mut stored = self
            .shelf_mut(site)
            .take(name)
            .ok_or_else(|| MisoError::integrity(name, "view resident nowhere at refresh time"))?;
        let changed = match mplan {
            MaintPlan::Append(_) => {
                state.digest.add_batch(&new_rows);
                // Sole owner of the batch (the stores gave it up): its
                // columns are extended in place, O(|delta|).
                Arc::make_mut(&mut stored.batch).append(ColBatch::clone(&new_rows));
                let added = bytes_of(&new_rows);
                stored.size += added;
                added
            }
            MaintPlan::Aggregate(da) => {
                let agg = state.agg.as_mut().ok_or_else(|| {
                    MisoError::integrity(name, "aggregate view without fold state")
                })?;
                let applied = agg.apply(&new_rows, &da.group_by, &da.aggs)?;
                let (patched, changed) =
                    applied.patch(&stored.batch, &da.post, &mut state.digest)?;
                // Aggregate views are group-sized: an O(groups) size rescan
                // is cheap and exact (updated groups change their width).
                stored.size = bytes_of(&patched);
                stored.batch = Arc::new(patched);
                ByteSize::from_bytes(changed)
            }
        };
        stored.checksum = state.digest.finish();
        let (size, checksum) = (stored.size, stored.checksum);
        let row_count = stored.batch.len() as u64;
        let mut cost = self
            .hv
            .cost_model
            .stage_cost(scan_bytes, changed, new_rows.len() as u64);
        if site == Site::Dw {
            let move_cost =
                self.transfer_model().transfer_cost(changed) + self.dw.load_cost(changed);
            cost += self.stretch_for_maintenance(move_cost, clock);
        }
        self.shelf_mut(site).put(name, stored);
        self.catalog.set_checksum(name, checksum);
        self.catalog.update_stats(name, size, row_count);
        clock.advance(cost);
        Ok(Refreshed {
            reason: None,
            cost,
            appended: matches!(mplan, MaintPlan::Append(_)).then_some(new_rows),
        })
    }

    /// Recomputes a view in full — in HV, over the grown corpus and the
    /// already refreshed views — charging its plan's stage costs. With a
    /// maintenance plan it captures fresh state from the same run
    /// ([`MultistoreSystem::recompute`]); without one any state is dropped.
    fn rebuild(
        &mut self,
        def: &ViewDef,
        mplan: Option<&MaintPlan>,
        clock: &mut SimClock,
    ) -> Result<SimDuration> {
        let name = &def.name;
        let site = self.holder(name);
        let (view, state, mut cost) = self.recompute(def, mplan)?;
        self.ivm_state.remove(name);
        if let Some(state) = state {
            self.ivm_state.insert(name.clone(), state);
        }
        if site == Site::Dw {
            let move_cost = self.stores().ship_cost(view.size);
            cost += self.stretch_for_maintenance(move_cost, clock);
        }
        let (size, rows, checksum) = (view.size, view.batch.len() as u64, view.checksum);
        self.shelf_mut(site).put(name, view);
        self.catalog.set_checksum(name, checksum);
        self.catalog.update_stats(name, size, rows);
        clock.advance(cost);
        Ok(cost)
    }

    /// Runs a view's defining plan in HV over the stores as they stand:
    /// the view as it would be stored, its fold state when `mplan` is given
    /// — captured from the same run, which keeps the fold inputs HV would
    /// pipeline away — and the run's stage costs.
    pub(crate) fn recompute(
        &self,
        def: &ViewDef,
        mplan: Option<&MaintPlan>,
    ) -> Result<(StoredView, Option<IvmViewState>, SimDuration)> {
        let keep = mplan.map_or_else(Vec::new, |mplan| fold_inputs(mplan, &def.plan));
        let run = self.hv.execute_guarded(
            &def.plan,
            None,
            self.udf_registry(),
            QueryGuard::inert_ref(),
            &keep,
        )?;
        let root = def.plan.root();
        let out = run
            .materialized
            .iter()
            .find(|m| m.node == root)
            .ok_or_else(|| MisoError::Execution("refresh produced no output".into()))?;
        let state = mplan
            .map(|mplan| {
                let output = |n: NodeId| run.execution.retained_batch(n);
                IvmViewState::capture(mplan, &def.plan, &out.batch, output)
            })
            .transpose()?;
        let view = match &state {
            Some(state) => StoredView {
                schema: out.schema.clone(),
                batch: out.batch.clone(),
                size: out.size,
                checksum: state.digest.finish(),
            },
            None => out.stored(),
        };
        Ok((view, state, run.cost))
    }

    fn stretch_for_maintenance(&mut self, raw: SimDuration, clock: &SimClock) -> SimDuration {
        self.stretch(raw, DwActivity::ViewTransfer, clock)
    }

    /// Estimated per-window upkeep cost (simulated seconds) of each catalog
    /// view under the configured growth schedule, for the tuner's
    /// maintenance-aware benefit charging: delta-maintainable views cost a
    /// delta-scale map stage, everything else a full recompute over what it
    /// scans — the grown base log, the views it is derived through. Empty
    /// when no growth is configured, which keeps the tuner's arithmetic
    /// untouched.
    pub(crate) fn maintenance_costs(&self) -> HashMap<String, f64> {
        let mut costs = HashMap::new();
        let Some(growth) = &self.config.growth else {
            return costs;
        };
        let log_name = growth.kind.table_name();
        let (Some(rows), Some(log_bytes)) =
            (self.hv.log_rows(log_name), self.hv.log_size(log_name))
        else {
            return costs;
        };
        if rows == 0 {
            return costs;
        }
        let log_bytes = log_bytes.as_bytes();
        let delta_rows = growth.records_per_epoch as u64;
        let delta_bytes = ByteSize::from_bytes((log_bytes / rows).max(1) * delta_rows);
        // The delta-size policy `refresh_view` applies: past it, everything
        // rebuilds.
        let too_large = delta_rows as f64 > self.config.ivm_max_delta_frac * rows as f64;
        // Each parent changes as `append_log` changes it with every state
        // warm.
        let of = |v: &str| warm_change(&self.catalog, log_name, v);
        for def in self.catalog.derived_from(log_name) {
            let folds = !too_large && analyze_maintenance(&def.plan, log_name, &of).is_ok();
            let cost = if folds {
                // Delta fold: scan |Δ| input bytes, write at most |Δ|-scale
                // output.
                self.hv
                    .cost_model
                    .stage_cost(delta_bytes, delta_bytes, delta_rows)
            } else {
                let scanned = self.catalog.total_size(&def.plan.scanned_views());
                let scans_log = def.plan.base_logs().iter().any(|l| l == log_name);
                let log = ByteSize::from_bytes(if scans_log { log_bytes } else { 0 });
                self.hv
                    .cost_model
                    .stage_cost(log + scanned, def.size, def.rows)
            };
            costs.insert(def.name.clone(), cost.as_secs_f64());
        }
        costs
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::system::{GrowthConfig, SystemConfig};
    use crate::variants::Variant;
    use miso_common::{pool, Budgets};
    use miso_data::logs::{generate_delta, Corpus, LogsConfig};
    use miso_exec::engine::execute;
    use miso_lang::compile;
    use miso_plan::LogicalPlan;
    use miso_workload::{standard_udfs, workload_catalog};

    fn system() -> (MultistoreSystem, LogsConfig) {
        let cfg = LogsConfig::tiny();
        let corpus = Corpus::generate(&cfg);
        let budgets = Budgets::new(
            ByteSize::from_mib(64),
            ByteSize::from_mib(8),
            ByteSize::from_mib(4),
        )
        .with_discretization(ByteSize::from_kib(16));
        (
            MultistoreSystem::new(
                &corpus,
                workload_catalog(),
                standard_udfs(),
                SystemConfig::paper_default(budgets),
            ),
            cfg,
        )
    }

    fn count_query() -> (String, LogicalPlan) {
        let catalog = workload_catalog();
        (
            "ids".to_string(),
            compile(
                "SELECT t.tweet_id AS id FROM twitter t WHERE t.tweet_id >= 0",
                &catalog,
            )
            .unwrap(),
        )
    }

    #[test]
    fn appended_rows_are_visible_to_queries() {
        let (mut sys, cfg) = system();
        let q = count_query();
        let before = sys
            .run_workload(Variant::HvOnly, std::slice::from_ref(&q))
            .unwrap()
            .records[0]
            .result_rows;

        let delta = generate_delta(&cfg, LogKind::Twitter, 0, 100);
        let mut clock = SimClock::new();
        sys.append_log(
            LogKind::Twitter,
            &delta,
            MaintenancePolicy::Invalidate,
            &mut clock,
        )
        .unwrap();
        let after = sys.run_workload(Variant::HvOnly, &[q]).unwrap().records[0].result_rows;
        assert_eq!(after, before + 100, "{after} vs {before}");
    }

    #[test]
    fn invalidate_drops_only_affected_views() {
        let (mut sys, cfg) = system();
        // Create views over twitter and foursquare via MS-MISO runs.
        let catalog = workload_catalog();
        let queries = vec![
            (
                "tw".to_string(),
                compile(
                    "SELECT t.city AS c, COUNT(*) AS n FROM twitter t \
                     WHERE t.followers > 10 GROUP BY t.city",
                    &catalog,
                )
                .unwrap(),
            ),
            (
                "fs".to_string(),
                compile(
                    "SELECT f.city AS c, COUNT(*) AS n FROM foursquare f \
                     WHERE f.likes > 0 GROUP BY f.city",
                    &catalog,
                )
                .unwrap(),
            ),
        ];
        sys.run_workload(Variant::MsMiso, &queries).unwrap();
        let twitter_views: Vec<String> = sys
            .catalog
            .defs()
            .iter()
            .filter(|d| d.plan.base_logs().contains(&"twitter".to_string()))
            .map(|d| d.name.clone())
            .collect();
        let foursquare_views: Vec<String> = sys
            .catalog
            .defs()
            .iter()
            .filter(|d| d.plan.base_logs().contains(&"foursquare".to_string()))
            .map(|d| d.name.clone())
            .collect();
        assert!(!twitter_views.is_empty() && !foursquare_views.is_empty());

        let delta = generate_delta(&cfg, LogKind::Twitter, 0, 50);
        let mut clock = SimClock::new();
        let report = sys
            .append_log(
                LogKind::Twitter,
                &delta,
                MaintenancePolicy::Invalidate,
                &mut clock,
            )
            .unwrap();
        assert_eq!(report.invalidated.len(), twitter_views.len());
        assert_eq!(report.decisions.len(), twitter_views.len());
        assert!(report
            .decisions
            .iter()
            .all(|d| d.action == MaintAction::Invalidated));
        for v in &twitter_views {
            assert!(!sys.catalog.contains(v), "{v} should be gone");
        }
        for v in &foursquare_views {
            assert!(sys.catalog.contains(v), "{v} should survive");
        }
    }

    #[test]
    fn refresh_keeps_views_current_and_correct() {
        let (mut sys, cfg) = system();
        let catalog = workload_catalog();
        // A query whose filter view is distributive.
        let q = (
            "filtered".to_string(),
            compile(
                "SELECT t.city AS c, COUNT(*) AS n FROM twitter t \
                 WHERE t.followers > 10 GROUP BY t.city",
                &catalog,
            )
            .unwrap(),
        );
        sys.run_workload(Variant::MsMiso, std::slice::from_ref(&q))
            .unwrap();
        assert!(!sys.catalog.is_empty());

        let delta = generate_delta(&cfg, LogKind::Twitter, 1, 200);
        let mut clock = SimClock::new();
        let report = sys
            .append_log(
                LogKind::Twitter,
                &delta,
                MaintenancePolicy::Refresh,
                &mut clock,
            )
            .unwrap();
        assert!(
            !report.delta_refreshed.is_empty() || !report.recomputed.is_empty(),
            "{report:?}"
        );
        assert!(report.cost > SimDuration::ZERO);
        // Every full rebuild carries a reason.
        assert!(report
            .decisions
            .iter()
            .filter(|d| d.action == MaintAction::Full)
            .all(|d| d.reason.is_some()));

        // Post-refresh, a rerun reusing views must agree with a from-scratch
        // system over the same (grown) corpus.
        let reuse = sys
            .run_workload(Variant::MsMiso, std::slice::from_ref(&q))
            .unwrap();
        let mut fresh_corpus = Corpus::generate(&cfg);
        let delta_again = generate_delta(&cfg, LogKind::Twitter, 1, 200);
        Arc::make_mut(&mut fresh_corpus.twitter.lines).extend(delta_again);
        let budgets = Budgets::new(
            ByteSize::from_mib(64),
            ByteSize::from_mib(8),
            ByteSize::from_mib(4),
        )
        .with_discretization(ByteSize::from_kib(16));
        let mut fresh = MultistoreSystem::new(
            &fresh_corpus,
            workload_catalog(),
            standard_udfs(),
            SystemConfig::paper_default(budgets),
        );
        let scratch = fresh.run_workload(Variant::HvOnly, &[q]).unwrap();
        assert_eq!(
            reuse.records[0].result_rows, scratch.records[0].result_rows,
            "refreshed views must yield the same answer as recomputation"
        );
    }

    #[test]
    fn second_refresh_takes_the_delta_path() {
        let (mut sys, cfg) = system();
        let catalog = workload_catalog();
        let q = (
            "filtered".to_string(),
            compile(
                "SELECT t.city AS c, COUNT(*) AS n FROM twitter t \
                 WHERE t.followers > 10 GROUP BY t.city",
                &catalog,
            )
            .unwrap(),
        );
        sys.run_workload(Variant::MsMiso, std::slice::from_ref(&q))
            .unwrap();
        let mut clock = SimClock::new();
        // First append: aggregate fold state is cold and rebuilds (with a
        // reason); per-record views may already fold — their digest is
        // re-seeded from the resident rows without executing the plan.
        let first = sys
            .append_log(
                LogKind::Twitter,
                &generate_delta(&cfg, LogKind::Twitter, 1, 100),
                MaintenancePolicy::Refresh,
                &mut clock,
            )
            .unwrap();
        assert!(first
            .decisions
            .iter()
            .any(|d| d.reason == Some(FullReason::StateCold)));
        // Second append: warm state, maintainable views fold the delta.
        let second = sys
            .append_log(
                LogKind::Twitter,
                &generate_delta(&cfg, LogKind::Twitter, 2, 100),
                MaintenancePolicy::Refresh,
                &mut clock,
            )
            .unwrap();
        assert!(
            !second.delta_refreshed.is_empty(),
            "warm maintainable views must take the delta path: {second:?}"
        );
        // And the delta-applied result matches a from-scratch recompute.
        let reuse = sys
            .run_workload(Variant::MsMiso, std::slice::from_ref(&q))
            .unwrap();
        let mut fresh_corpus = Corpus::generate(&cfg);
        let lines = Arc::make_mut(&mut fresh_corpus.twitter.lines);
        lines.extend(generate_delta(&cfg, LogKind::Twitter, 1, 100));
        lines.extend(generate_delta(&cfg, LogKind::Twitter, 2, 100));
        let budgets = Budgets::new(
            ByteSize::from_mib(64),
            ByteSize::from_mib(8),
            ByteSize::from_mib(4),
        )
        .with_discretization(ByteSize::from_kib(16));
        let mut fresh = MultistoreSystem::new(
            &fresh_corpus,
            workload_catalog(),
            standard_udfs(),
            SystemConfig::paper_default(budgets),
        );
        let scratch = fresh
            .run_workload(Variant::HvOnly, std::slice::from_ref(&q))
            .unwrap();
        assert_eq!(reuse.records[0].result_rows, scratch.records[0].result_rows);
    }

    /// `rebuild` names the interior outputs it needs (HV keeps
    /// only what it harvests): the captured join build sides and aggregate
    /// fold state must be those a keep-all run of the plan yields.
    #[test]
    fn rebuild_captures_state_equal_to_a_keep_all_run() {
        let (mut sys, _) = system();
        let udfs = standard_udfs();
        let workload = miso_workload::compile_workload(&workload_catalog()).unwrap();
        let (mut with_builds, mut with_agg) = (0, 0);
        for (label, plan) in workload {
            let Ok(mplan) = analyze_maintenance(&plan, "twitter", &|_| ViewChange::Unchanged)
            else {
                continue;
            };
            let def = miso_views::ViewDef::from_plan(
                plan,
                ByteSize::ZERO,
                0,
                miso_common::ids::QueryId(0),
            );
            sys.rebuild(&def, Some(&mplan), &mut SimClock::new())
                .unwrap();
            let all = execute(&def.plan, &sys.hv, &udfs).unwrap();
            let state = &sys.ivm_state[&def.name];
            assert_eq!(state.builds.len(), mplan.builds().len(), "{label}");
            for b in mplan.builds() {
                assert_eq!(
                    state.builds[&b.name].to_rows(),
                    **all.output(b.node),
                    "{label}"
                );
                with_builds += 1;
            }
            if let MaintPlan::Aggregate(da) = &mplan {
                let input = all.batch(def.plan.node(da.agg).inputs[0]).unwrap();
                let want = AggState::build(input, &da.group_by, &da.aggs).unwrap();
                assert_eq!(
                    state.agg.as_ref().map(|agg| agg.output().to_rows()),
                    Some(want.output().to_rows()),
                    "{label}"
                );
                with_agg += 1;
            }
        }
        assert!(with_builds > 0 && with_agg > 0, "{with_builds} {with_agg}");
    }

    /// The benchmark's growth schedule at a quarter of its scale (the
    /// twitter log grows 2 % before each of 10 reorganizations,
    /// `Refresh`), at one worker and eight. Every view the MS-MISO stream
    /// harvests that folds into more than a digest holds, from its harvest
    /// on, the state `rebuild` captures from a full run of its definition:
    /// the same digest, build-side rows and aggregate output rows. No
    /// growth step then rebuilds a view cold, and after every step each
    /// folded view holds exactly the rows (by float bit pattern) and the
    /// checksum of its definition run from scratch over the grown logs.
    #[test]
    fn harvest_captures_the_state_a_rebuild_captures() {
        let base = LogsConfig::experiment();
        let logs = LogsConfig {
            users: base.users / 4,
            venues: base.venues / 4,
            tweets: base.tweets / 4,
            checkins: base.checkins / 4,
            landmarks: base.landmarks / 4,
            seed: 7,
        };
        let corpus = Corpus::generate(&logs);
        let size = corpus.total_size();
        let budgets = Budgets::new(size.scale(2.0), size.scale(0.2), size.scale(0.02))
            .with_discretization(ByteSize::from_kib(8));
        let stream = miso_workload::compile_workload(&workload_catalog()).unwrap();
        let growth = GrowthConfig {
            kind: LogKind::Twitter,
            records_per_epoch: logs.tweets / 50,
            policy: MaintenancePolicy::Refresh,
            logs: logs.clone(),
        };
        let rows = |batch: &ColBatch| format!("{:?}", batch.to_rows());
        let threads = pool::threads();
        for width in [1, 8] {
            pool::set_threads(width);
            let mut config = SystemConfig::paper_default(budgets);
            config.growth = Some(growth.clone());
            let (every, history_len) = (config.reorg_every, config.history_len);
            let mut sys =
                MultistoreSystem::new(&corpus, workload_catalog(), standard_udfs(), config);
            let mut history: Vec<LogicalPlan> = Vec::new();
            let (mut with_builds, mut with_agg, mut folded) = (0, 0, 0);
            for (q, query) in stream.iter().enumerate() {
                if q > 0 && q % every == 0 {
                    let batch = (q / every) as u64;
                    let delta = Delta::generated(&logs, LogKind::Twitter, batch, logs.tweets / 50);
                    let report = sys
                        .grow(&delta, MaintenancePolicy::Refresh, &mut SimClock::new())
                        .unwrap();
                    for d in &report.decisions {
                        let what = format!("{} after batch {batch} ({width} threads)", d.view);
                        assert_ne!(d.reason, Some(FullReason::StateCold), "{what}");
                        if d.action != MaintAction::Delta {
                            continue;
                        }
                        folded += 1;
                        let def = sys.catalog.get(&d.view).expect("a folded view stays");
                        let from_logs = sys.catalog.inlined(&def.plan).expect("parents stay");
                        let run = sys
                            .hv
                            .execute(&from_logs, None, sys.udf_registry())
                            .unwrap();
                        let want = run.execution.root_batch().unwrap();
                        let stored = Site::ALL.iter().find_map(|&s| sys.shelf(s).get(&d.view));
                        let stored = stored.expect("a folded view is resident");
                        assert_eq!(rows(&stored.batch), rows(want), "{what}: rows");
                        let checksum = miso_data::checksum_batch(want);
                        assert_eq!(stored.checksum, checksum, "{what}: stored stamp");
                        assert_eq!(def.checksum, Some(checksum), "{what}: catalog stamp");
                    }
                    let window = &history[history.len().saturating_sub(history_len)..];
                    sys.reorg_now(window, &mut SimClock::new()).unwrap();
                }
                let known: Vec<String> =
                    sys.catalog.defs().iter().map(|d| d.name.clone()).collect();
                sys.run_workload(Variant::MsMiso, std::slice::from_ref(query))
                    .unwrap();
                history.push(query.1.clone());
                let of = |v: &str| warm_change(&sys.catalog, "twitter", v);
                for def in sys.catalog.defs() {
                    if known.contains(&def.name) {
                        continue;
                    }
                    let what = format!("{} harvested by {} ({width} threads)", def.name, query.0);
                    let Ok(mplan) = analyze_maintenance(&def.plan, "twitter", &of) else {
                        continue;
                    };
                    if fold_inputs(&mplan, &def.plan).is_empty() {
                        continue;
                    }
                    let state = sys.ivm_state.get(&def.name);
                    let state = state.unwrap_or_else(|| panic!("{what}: no state captured"));
                    let (view, rebuilt, _) = sys.recompute(def, Some(&mplan)).unwrap();
                    let rebuilt = rebuilt.expect("a maintenance plan captures state");
                    assert_eq!(state.digest, rebuilt.digest, "{what}: digest");
                    assert_eq!(def.checksum, Some(view.checksum), "{what}: stamp");
                    let mut names: Vec<_> = state.builds.keys().collect();
                    names.sort();
                    let mut want: Vec<_> = rebuilt.builds.keys().collect();
                    want.sort();
                    assert_eq!(names, want, "{what}: build sides");
                    for (name, build) in &state.builds {
                        let want = &rebuilt.builds[name];
                        assert_eq!(rows(build), rows(want), "{what}: build side {name}");
                    }
                    let agg = |st: &IvmViewState| st.agg.as_ref().map(|a| rows(&a.output()));
                    assert_eq!(agg(state), agg(&rebuilt), "{what}: aggregate state");
                    with_builds += usize::from(!state.builds.is_empty());
                    with_agg += usize::from(state.agg.is_some());
                }
            }
            assert!(with_builds > 0 && with_agg > 0, "{with_builds} {with_agg}");
            assert!(folded > 20, "{folded} folds");
        }
        pool::set_threads(threads);
    }

    #[test]
    fn oversized_delta_falls_back_with_reason() {
        let (mut sys, cfg) = system();
        sys.config.ivm_max_delta_frac = 0.0; // force the fallback
        let catalog = workload_catalog();
        let q = (
            "filtered".to_string(),
            compile(
                "SELECT t.city AS c FROM twitter t WHERE t.followers > 10",
                &catalog,
            )
            .unwrap(),
        );
        sys.run_workload(Variant::HvOp, std::slice::from_ref(&q))
            .unwrap();
        let mut clock = SimClock::new();
        // Warm the state despite frac 0.0? No: frac 0.0 rejects before the
        // state check, so every append reports DeltaTooLarge.
        let report = sys
            .append_log(
                LogKind::Twitter,
                &generate_delta(&cfg, LogKind::Twitter, 3, 10),
                MaintenancePolicy::Refresh,
                &mut clock,
            )
            .unwrap();
        assert!(report
            .decisions
            .iter()
            .any(|d| matches!(d.reason, Some(FullReason::DeltaTooLarge { .. }))));
    }

    #[test]
    fn grow_routes_by_table_name() {
        let (mut sys, cfg) = system();
        let mut clock = SimClock::new();
        let delta = Delta::generated(&cfg, LogKind::Twitter, 7, 25);
        let before = sys.hv.log_lines("twitter").unwrap().len();
        let report = sys
            .grow(&delta, MaintenancePolicy::Refresh, &mut clock)
            .unwrap();
        assert_eq!(report.appended, delta.size());
        assert_eq!(sys.hv.log_lines("twitter").unwrap().len(), before + 25);
        let bogus = Delta::new("instagram", vec!["{}".into()]);
        assert!(sys
            .grow(&bogus, MaintenancePolicy::Refresh, &mut clock)
            .is_err());
    }

    #[test]
    fn append_to_unknown_log_errors() {
        let (mut sys, _) = system();
        let mut clock = SimClock::new();
        // Landmarks exists; craft a bogus call via direct store access.
        let err = sys
            .hv
            .append_log("instagram", &LogBatch::new(&["{}".into()]))
            .unwrap_err();
        assert!(err.to_string().contains("instagram"));
        // And a legitimate empty append is a no-op.
        let report = sys
            .append_log(
                LogKind::Landmarks,
                &[],
                MaintenancePolicy::Refresh,
                &mut clock,
            )
            .unwrap();
        assert!(report.appended.is_zero());
    }
}
