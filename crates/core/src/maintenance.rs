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
//!   is parsed once, whoever asks. A planning pass first settles, parents
//!   first and before any plan runs, what each view does: a view the
//!   delta-maintenance analyzer ([`miso_views::analyze_maintenance`])
//!   accepts — filters, projections, UDFs, joins with the delta on the
//!   probe side, a topmost aggregate of any type — and whose state is warm
//!   and verified folds; the rest rebuild, defer or drop. The folds then
//!   run as **one HV job**: each delta plan runs lean over the batch (or
//!   over the Δrows of the parent view it scans), a sub-plan two folds of
//!   the batch repeat runs once through a [`SubplanMemo`] planned over
//!   every fold's delta plan, and each result folds into live
//!   state ([`miso_exec::AggState`], stored join build sides) in
//!   O(|delta|), re-stamping the integrity checksum incrementally through
//!   [`RowSetDigest`] (bit-identical to a full re-checksum). The job is
//!   charged one start-up and one scan of the batch
//!   ([`MaintenanceReport::job`]), and each folding view its marginal share
//!   (`fold_share`, the rule the tuner prices a fold with too). Fold
//!   state is captured when the view is harvested: under a `Refresh`
//!   growth schedule the HV run that produces a view keeps its fold inputs
//!   (the join build sides, the aggregate's input) beside the harvest, and
//!   the view enters the catalog warm (`HarvestFold`), so even its first
//!   growth step folds. Everything else — and every fallback
//!   ([`FullReason`]) — recomputes in full in an HV run of its own and
//!   recaptures the state from that run; a view over a patched or rebuilt
//!   parent recomputes from the refreshed parent, and a view whose parent
//!   is gone is dropped with it.
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
use miso_exec::{memo, AggState, FusedField, SubplanMemo};
use miso_hv::{HvCostModel, LogBatch};
use miso_plan::LogicalPlan;
use miso_views::{analyze_maintenance, FullReason, MaintPlan, ViewCatalog, ViewChange, ViewDef};
use std::collections::{HashMap, HashSet};
use std::sync::Arc;

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
    /// The fixed part of the batch's fold job — one start-up and one scan
    /// of the batch, however many views fold — which no single view's
    /// decision carries. Zero when no view folds.
    pub job: SimDuration,
    /// Simulated maintenance time charged: `job` plus every decision's
    /// cost.
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
    /// How each view the batch reaches changes, as the planning pass
    /// settled it before any plan ran; a dropped view is absent.
    changes: HashMap<String, ViewChange>,
    /// The rows the fold job appended to each view it folded per record:
    /// what a child's delta plan scans of that view.
    appended: HashMap<String, Arc<ColBatch>>,
}

impl BatchDelta<'_> {
    fn change_of(&self, view: &str) -> ViewChange {
        let change = self.changes.get(view).copied();
        change.unwrap_or(ViewChange::Unchanged)
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
        let delta_of = || self.delta.appended.get(view);
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

/// What the planning pass settles for one view a batch reaches, before any
/// plan runs.
enum Settled {
    /// Fold the batch into the view's warm, verified state, in the batch's
    /// fold job.
    Fold(MaintPlan, Box<IvmViewState>),
    /// Recompute in full, in an HV run of its own, capturing fresh state
    /// when the view has a maintenance plan.
    Rebuild(FullReason, Option<MaintPlan>),
    /// Quarantined: the reorg's repair path rebuilds it, nothing runs now.
    Defer,
}

impl Settled {
    /// How the view has changed once this is done.
    fn change(&self) -> ViewChange {
        match self {
            Settled::Fold(MaintPlan::Append(_), _) => ViewChange::Appended,
            _ => ViewChange::Rewritten,
        }
    }
}

/// What maintenance did to one view.
#[derive(Clone)]
enum Outcome {
    /// Folded in the batch's job: the view's marginal share of it, any
    /// move into DW included.
    Folded(SimDuration),
    /// Recomputed in full (or deferred), why, and at what cost.
    Full(FullReason, SimDuration),
    /// Dropped: by the policy, or — a fallback — because its inputs are
    /// unavailable.
    Dropped { fallback: bool },
}

/// The fixed part of a batch's fold job: one HV start-up and one scan of
/// the batch's `bytes`, charged once however many views fold.
fn fold_job_fixed(model: &HvCostModel, bytes: ByteSize) -> SimDuration {
    model.stage_cost(bytes, ByteSize::ZERO, 0)
}

/// One view's marginal share of its batch's fold job: the read of its
/// parent's Δrows (`parent_delta`; zero for a view over the log, whose
/// batch the job scans once), its writes and the rows it produces — a
/// stage without the start-up. `append_log` charges a fold this, and
/// `maintenance_costs` prices one with it, so the tuner weighs what a
/// growth step charges.
fn fold_share(
    model: &HvCostModel,
    parent_delta: ByteSize,
    written: ByteSize,
    rows: u64,
) -> SimDuration {
    model.stage_cost(parent_delta, written, rows) - model.job_startup
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
        // what this pass does to the parent.
        let affected: Vec<ViewDef> = self
            .catalog
            .derived_from(log)
            .into_iter()
            .cloned()
            .collect();
        let outcomes = match policy {
            MaintenancePolicy::Invalidate => {
                for def in &affected {
                    self.drop_view(&def.name);
                }
                vec![Outcome::Dropped { fallback: false }; affected.len()]
            }
            MaintenancePolicy::Refresh => {
                let mut delta = BatchDelta {
                    log,
                    base_rows,
                    bytes: report.appended,
                    batch: &batch,
                    changes: HashMap::new(),
                    appended: HashMap::new(),
                };
                let (outcomes, job) = self.refresh_all(&affected, &mut delta, clock);
                report.job = job;
                outcomes
            }
        };
        report.cost = report.job;
        for (def, outcome) in affected.into_iter().zip(outcomes) {
            let mut view_span = miso_obs::span("maint.refresh");
            let name = def.name;
            let (action, reason, cost) = match outcome {
                Outcome::Folded(cost) => {
                    miso_obs::count("maint.delta_applies", 1);
                    report.delta_refreshed.push(name.clone());
                    (MaintAction::Delta, None, cost)
                }
                Outcome::Full(why, cost) => {
                    miso_obs::count("maint.full_refreshes", 1);
                    miso_obs::count(why.counter(), 1);
                    if why.is_fallback() {
                        miso_obs::count("maint.fallbacks", 1);
                    }
                    report.recomputed.push(name.clone());
                    (MaintAction::Full, Some(why), cost)
                }
                Outcome::Dropped { fallback } => {
                    if fallback {
                        miso_obs::count("maint.fallbacks", 1);
                    }
                    report.invalidated.push(name.clone());
                    (MaintAction::Invalidated, None, SimDuration::ZERO)
                }
            };
            report.cost += cost;
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

    /// `Refresh` over `affected`, parents first: settles every view's
    /// change before any plan runs, runs the folds as one job, then the
    /// rebuilds in order. A view whose inputs are unavailable — a parent
    /// gone, a run that fails — is dropped, and the views over it with it.
    /// Returns each view's outcome and the job's fixed part.
    fn refresh_all(
        &mut self,
        affected: &[ViewDef],
        delta: &mut BatchDelta<'_>,
        clock: &mut SimClock,
    ) -> (Vec<Outcome>, SimDuration) {
        let mut outcomes = vec![Outcome::Dropped { fallback: true }; affected.len()];
        let (mut folds, mut rebuilds) = (Vec::new(), Vec::new());
        for (i, def) in affected.iter().enumerate() {
            let Ok(settled) = self.settle_view(def, delta) else {
                // Its children see the parent gone.
                self.drop_view(&def.name);
                continue;
            };
            delta.changes.insert(def.name.clone(), settled.change());
            match settled {
                Settled::Fold(mplan, state) => folds.push((i, mplan, state)),
                Settled::Rebuild(reason, mplan) => rebuilds.push((i, reason, mplan)),
                Settled::Defer => {
                    outcomes[i] = Outcome::Full(FullReason::Quarantined, SimDuration::ZERO)
                }
            }
        }
        // A fold reads only the batch, its own build sides, views the log
        // does not reach and its folded parents' Δrows — never what a
        // rebuild writes — so the job runs first, and every rebuild then
        // reads its parents refreshed.
        let job = self.run_folds(affected, folds, delta, &mut outcomes, clock);
        for (i, reason, mplan) in rebuilds {
            let def = &affected[i];
            let rebuilt = self.parents_present(def);
            outcomes[i] = match rebuilt.and_then(|()| self.rebuild(def, mplan.as_ref(), clock)) {
                Ok(cost) => Outcome::Full(reason, cost),
                Err(_) => {
                    self.drop_view(&def.name);
                    Outcome::Dropped { fallback: true }
                }
            };
        }
        (outcomes, job)
    }

    /// Settles what the batch does to one view, its parents' changes as
    /// the planning pass settled them. Every check is pure — no plan runs:
    /// a quarantined view defers; a view the analyzer accepts folds when
    /// its delta is small enough and its state warm and verified; every
    /// other view rebuilds, with its [`FullReason`]. An error (a parent is
    /// gone) leaves the view for the caller to drop.
    fn settle_view(&mut self, def: &ViewDef, delta: &BatchDelta<'_>) -> Result<Settled> {
        let name = &def.name;
        if self.catalog.is_quarantined(name) {
            // A quarantined view has no store copies to refresh (they were
            // dropped at quarantine time), and its eventual repair — the
            // reorg's recompute path — re-executes the defining plan over
            // the already-grown base log. Deferring the rebuild there is
            // safe (nothing stale is servable) and costs nothing now.
            self.ivm_state.remove(name);
            return Ok(Settled::Defer);
        }
        self.parents_present(def)?;
        let mplan = match analyze_maintenance(&def.plan, delta.log, &|v| delta.change_of(v)) {
            Ok(mplan) => mplan,
            Err(reason) => return Ok(Settled::Rebuild(reason, None)),
        };
        // Delta-size policy: past the threshold a rebuild is at least as
        // cheap as folding (and resets any state drift), so prefer it.
        let delta_rows = delta.batch.lines().len() as u64;
        let base_rows = delta.base_rows;
        if delta_rows as f64 > self.config.ivm_max_delta_frac * base_rows as f64 {
            let reason = FullReason::DeltaTooLarge {
                delta_rows,
                base_rows,
            };
            return Ok(Settled::Rebuild(reason, Some(mplan)));
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
        Ok(match state {
            Some(state) => Settled::Fold(mplan, Box::new(state)),
            None if stale => Settled::Rebuild(FullReason::StateStale, Some(mplan)),
            None => Settled::Rebuild(FullReason::StateCold, Some(mplan)),
        })
    }

    /// Errs when a view `def` scans is gone or waits for repair: such a
    /// parent cannot say what this batch did to it.
    fn parents_present(&self, def: &ViewDef) -> Result<()> {
        for parent in def.plan.scanned_views() {
            if !self.catalog.contains(&parent) || self.catalog.is_quarantined(&parent) {
                return Err(MisoError::Store(format!(
                    "`{}` scans `{parent}`, which is gone",
                    def.name
                )));
            }
        }
        Ok(())
    }

    /// Drops a view from both stores, the catalog and the fold state.
    fn drop_view(&mut self, name: &str) {
        for site in Site::ALL {
            self.shelf_mut(site).take(name);
        }
        self.catalog.remove(name);
        self.ivm_state.remove(name);
    }

    /// Runs the batch's folds — each `(index into affected, plan, state)`,
    /// parents first — as one job, recording each view's outcome: its
    /// marginal share ([`fold_share`]) when it folds, a drop when it fails.
    /// A delta sub-plan two folds repeat — the same sub-plan over the same
    /// batch and the same parents' Δrows — runs once, through a
    /// [`SubplanMemo`] planned over every fold's delta plan. The job is
    /// charged once, its fixed part ([`fold_job_fixed`]) plus every share,
    /// and that fixed part is returned — zero when nothing folds.
    fn run_folds(
        &mut self,
        affected: &[ViewDef],
        folds: Vec<(usize, MaintPlan, Box<IvmViewState>)>,
        delta: &mut BatchDelta<'_>,
        outcomes: &mut [Outcome],
        clock: &mut SimClock,
    ) -> SimDuration {
        if folds.is_empty() {
            return SimDuration::ZERO;
        }
        let mut span = miso_obs::span("maint.fold_job");
        let count = folds.len() as u64;
        // Each fold's keys as its run below computes them.
        let memo = {
            let src = DeltaSource {
                hv: &self.hv,
                delta,
                builds: &HashMap::new(),
            };
            let (seeds, udfs) = (HashSet::new(), self.udf_registry());
            let keys = folds.iter().flat_map(|(_, mplan, _)| {
                let plan = mplan.delta_plan();
                let store = src.store_name();
                memo::node_keys(plan, None, &seeds, Retention::ROOT_ONLY, udfs, store)
            });
            SubplanMemo::planned(keys.flatten())
        };
        let fixed = fold_job_fixed(&self.hv.cost_model, delta.bytes);
        let mut charged = fixed;
        for (i, mplan, state) in folds {
            let def = &affected[i];
            // A parent whose own fold failed is gone by now.
            let folded = self
                .parents_present(def)
                .and_then(|()| {
                    let src = DeltaSource {
                        hv: &self.hv,
                        delta,
                        builds: &state.builds,
                    };
                    let exec = execute_subset_guarded(
                        mplan.delta_plan(),
                        None,
                        HashMap::new(),
                        &src,
                        self.udf_registry(),
                        Retention::ROOT_ONLY,
                        QueryGuard::inert_ref(),
                        Some(&memo),
                    )?;
                    Ok(exec.root_batch()?.clone())
                })
                .and_then(|rows| self.apply_fold(def, &mplan, *state, rows, delta, clock));
            outcomes[i] = match folded {
                Ok(cost) => {
                    charged += cost;
                    Outcome::Folded(cost)
                }
                Err(_) => {
                    self.drop_view(&def.name);
                    Outcome::Dropped { fallback: true }
                }
            };
        }
        clock.advance(charged);
        if span.is_active() {
            use miso_obs::FieldValue::U64;
            span.push_field("folds", U64(count));
            span.push_field("shared", U64(memo.hits()));
            span.push_field("cost_us", U64(charged.as_micros()));
        }
        fixed
    }

    /// Folds `new_rows` — what the view's delta plan produced over the
    /// batch or its parent's Δrows — into its warm state: extends the
    /// stored columns by them, or patches the aggregate's changed groups,
    /// re-stamping the content checksum incrementally in O(changed rows).
    /// Returns the view's share of the batch's job plus any move into DW.
    fn apply_fold(
        &mut self,
        def: &ViewDef,
        mplan: &MaintPlan,
        mut state: IvmViewState,
        new_rows: Arc<ColBatch>,
        delta: &mut BatchDelta<'_>,
        clock: &SimClock,
    ) -> Result<SimDuration> {
        let name = def.name.as_str();
        let parent_delta = match &mplan.input().parent {
            None => ByteSize::ZERO,
            Some(parent) => bytes_of(delta.appended.get(parent).ok_or_else(|| {
                MisoError::Execution(format!("`{name}` folds `{parent}`, which has no Δrows"))
            })?),
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
        let rows = new_rows.len() as u64;
        let mut cost = fold_share(&self.hv.cost_model, parent_delta, changed, rows);
        if site == Site::Dw {
            let move_cost =
                self.transfer_model().transfer_cost(changed) + self.dw.load_cost(changed);
            cost += self.stretch(move_cost, DwActivity::ViewTransfer, clock);
        }
        self.shelf_mut(site).put(name, stored);
        self.catalog.set_checksum(name, checksum);
        self.catalog.update_stats(name, size, row_count);
        self.ivm_state.insert(name.to_string(), state);
        if matches!(mplan, MaintPlan::Append(_)) {
            delta.appended.insert(name.to_string(), new_rows);
        }
        Ok(cost)
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
            cost += self.stretch(move_cost, DwActivity::ViewTransfer, clock);
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

    /// Estimated per-window upkeep cost (simulated seconds) of each catalog
    /// view under the configured growth schedule, for the tuner's
    /// maintenance-aware benefit charging: a delta-maintainable view costs
    /// its marginal share of a batch's fold job ([`fold_share`], what
    /// `append_log` charges it — the job's start-up and batch scan go to no
    /// single view), everything else a full recompute over what it
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
        // The delta-size policy `settle_view` applies: past it, everything
        // rebuilds.
        let too_large = delta_rows as f64 > self.config.ivm_max_delta_frac * rows as f64;
        // Each parent changes as `append_log` changes it with every state
        // warm.
        let of = |v: &str| warm_change(&self.catalog, log_name, v);
        for def in self.catalog.derived_from(log_name) {
            let mplan = (!too_large).then(|| analyze_maintenance(&def.plan, log_name, &of));
            let cost = if let Some(Ok(mplan)) = mplan {
                // A fold's share of the batch's job: it writes at most
                // |Δ|-scale output, and reads at most |Δ| of a parent's
                // Δrows (the batch scan and the start-up are the job's).
                let parent_delta = match mplan.input().parent {
                    Some(_) => delta_bytes,
                    None => ByteSize::ZERO,
                };
                fold_share(&self.hv.cost_model, parent_delta, delta_bytes, delta_rows)
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
    use miso_hv::HvCostModel;
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
    /// growth step then rebuilds a view cold; after every step — its folds
    /// run as one job, sharing their common delta sub-plans — each folded
    /// view holds exactly the rows (by float bit pattern) and the checksum
    /// of its definition run from scratch over the grown logs, and the
    /// step's charge is its job's fixed part plus every decision's cost.
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
                    assert_eq!(
                        report.cost,
                        charged(&report),
                        "batch {batch}: the charge adds up"
                    );
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

    /// What a batch's charge should be: its fold job's fixed part — one
    /// start-up and one scan of the batch when anything folds, nothing
    /// otherwise — plus every decision's cost.
    fn charged(report: &MaintenanceReport) -> SimDuration {
        let folds = report
            .decisions
            .iter()
            .any(|d| d.action == MaintAction::Delta);
        let model = HvCostModel::paper_default();
        let job = match folds {
            true => fold_job_fixed(&model, report.appended),
            false => SimDuration::ZERO,
        };
        assert_eq!(report.job, job, "the job's fixed part");
        job + report.decisions.iter().map(|d| d.cost).sum::<SimDuration>()
    }

    /// The two derived-view queries: the second is answered from the first
    /// one's filter view, so the aggregate view it leaves scans that view.
    fn derived_views(sys: &mut MultistoreSystem) {
        let catalog = workload_catalog();
        let queries = [
            "SELECT t.city AS c, COUNT(*) AS n FROM twitter t \
             WHERE t.followers > 10 GROUP BY t.city",
            "SELECT t.city AS c, MAX(t.followers) AS top FROM twitter t \
             WHERE t.followers > 10 GROUP BY t.city",
        ];
        let queries = queries.map(|sql| (sql.to_string(), compile(sql, &catalog).unwrap()));
        sys.run_workload(Variant::HvOp, &queries).unwrap();
    }

    /// The folds of a batch are one job: its start-up and batch scan are
    /// charged once, in `report.job`, and each view's decision carries
    /// its marginal share alone — a child folding its parent's Δrows pays
    /// no start-up of its own — so `report.cost` is the job's part plus
    /// every decision's.
    #[test]
    fn a_batch_charges_one_fold_job() {
        let (mut sys, cfg) = system();
        derived_views(&mut sys);
        let mut clock = SimClock::new();
        // The first batch warms the aggregates' fold state.
        let delta = generate_delta(&cfg, LogKind::Twitter, 1, 80);
        sys.append_log(
            LogKind::Twitter,
            &delta,
            MaintenancePolicy::Refresh,
            &mut clock,
        )
        .unwrap();
        let delta = generate_delta(&cfg, LogKind::Twitter, 2, 80);
        let before = clock.now();
        let report = sys
            .append_log(
                LogKind::Twitter,
                &delta,
                MaintenancePolicy::Refresh,
                &mut clock,
            )
            .unwrap();
        assert_eq!(report.cost, charged(&report));
        assert_eq!(
            clock.now().duration_since(before),
            report.cost,
            "the clock moves by the charge"
        );
        let startup = sys.hv.cost_model.job_startup;
        let mut children = 0;
        for d in &report.decisions {
            assert_eq!(d.action, MaintAction::Delta, "{}: {:?}", d.view, d.reason);
            assert!(
                d.cost < startup,
                "{}: a fold's share carries no start-up",
                d.view
            );
            let def = sys.catalog.get(&d.view).unwrap();
            children += usize::from(!def.plan.scanned_views().is_empty());
        }
        assert!(report.decisions.len() >= 2 && children > 0, "{report:?}");
    }

    /// A batch in which nothing folds runs no fold job and charges none:
    /// under `Invalidate` nothing at all, and when every view rebuilds,
    /// exactly each rebuild's own HV run.
    #[test]
    fn a_batch_without_folds_charges_no_job() {
        let (mut sys, cfg) = system();
        derived_views(&mut sys);
        sys.config.ivm_max_delta_frac = 0.0; // every view rebuilds
        let mut clock = SimClock::new();
        let delta = generate_delta(&cfg, LogKind::Twitter, 1, 80);
        let report = sys
            .append_log(
                LogKind::Twitter,
                &delta,
                MaintenancePolicy::Refresh,
                &mut clock,
            )
            .unwrap();
        assert!(!report.decisions.is_empty());
        assert_eq!(report.job, SimDuration::ZERO);
        assert_eq!(report.cost, charged(&report));
        for d in &report.decisions {
            assert_eq!(d.action, MaintAction::Full, "{}", d.view);
            let def = sys.catalog.get(&d.view).unwrap().clone();
            let of = |v: &str| warm_change(&sys.catalog, "twitter", v);
            let mplan = analyze_maintenance(&def.plan, "twitter", &of).ok();
            let (view, _, mut run) = sys.recompute(&def, mplan.as_ref()).unwrap();
            if sys.holder(&d.view) == Site::Dw {
                run += sys.stores().ship_cost(view.size);
            }
            assert_eq!(d.cost, run, "{}: a rebuild is charged its own run", d.view);
        }

        let delta = generate_delta(&cfg, LogKind::Twitter, 2, 80);
        let report = sys
            .append_log(
                LogKind::Twitter,
                &delta,
                MaintenancePolicy::Invalidate,
                &mut clock,
            )
            .unwrap();
        assert!(!report.decisions.is_empty());
        assert_eq!(
            (report.job, report.cost),
            (SimDuration::ZERO, SimDuration::ZERO)
        );
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
