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
//!   [`RowSetDigest`] (bit-identical to a full re-checksum). Everything
//!   else — and every fallback ([`FullReason`]) — recomputes in full,
//!   rebuilding the maintenance state as a side effect; a view over a
//!   patched or rebuilt parent recomputes from the refreshed parent, and a
//!   view whose parent is gone is dropped with it.
//!
//! Either way the system's query results always reflect the appended data
//! (stale views are never silently served), and a delta-maintained view is
//! row- and checksum-identical to a freshly recomputed one.
//!
//! [`ViewCatalog::derived_from`]: miso_views::ViewCatalog::derived_from

use crate::split::Site;
use crate::system::MultistoreSystem;
use miso_common::guard::QueryGuard;
use miso_common::{ByteSize, MisoError, Result, SimClock, SimDuration};
use miso_data::checksum::RowSetDigest;
use miso_data::logs::LogKind;
use miso_data::{ColBatch, Delta, StoredView};
use miso_dw::DwActivity;
use miso_exec::engine::{execute_subset_guarded, DataSource, LogColumns, Retention};
use miso_exec::{AggState, FusedField};
use miso_hv::LogBatch;
use miso_views::{analyze_maintenance, FullReason, MaintPlan, ViewChange, ViewDef};
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
    fn log_lines(&self, log: &str) -> Result<&[String]> {
        Ok(self.batch_of(log)?.lines())
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
            base_rows: self.hv.log_lines(log)?.len() as u64 - delta_rows,
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
    /// maintenance plan it captures fresh state from the same run: the
    /// content digest, the materialized join build sides, and the aggregate
    /// fold state (replayed from the aggregate's input); without one any
    /// state is dropped.
    fn rebuild(
        &mut self,
        def: &ViewDef,
        mplan: Option<&MaintPlan>,
        clock: &mut SimClock,
    ) -> Result<SimDuration> {
        let name = &def.name;
        let site = self.holder(name);
        // Interior outputs HV would pipeline away but the fold state is
        // built from: the join build sides and the aggregate's input.
        let fold = match mplan {
            Some(MaintPlan::Aggregate(da)) => Some((da, def.plan.node(da.agg).inputs[0])),
            _ => None,
        };
        let builds = mplan.map_or(&[][..], MaintPlan::builds);
        let state_nodes: Vec<_> = builds
            .iter()
            .map(|b| b.node)
            .chain(fold.map(|(_, input)| input))
            .collect();
        let run = self.hv.execute_guarded(
            &def.plan,
            None,
            self.udf_registry(),
            QueryGuard::inert_ref(),
            &state_nodes,
        )?;
        let root = def.plan.root();
        let out = run
            .materialized
            .iter()
            .find(|m| m.node == root)
            .ok_or_else(|| MisoError::Execution("refresh produced no output".into()))?;
        let digest = RowSetDigest::from_batch(&out.batch);
        let checksum = digest.finish();
        let view = StoredView {
            schema: out.schema.clone(),
            batch: out.batch.clone(),
            size: out.size,
            checksum,
        };
        self.ivm_state.remove(name);
        if mplan.is_some() {
            let mut state = IvmViewState {
                digest,
                builds: HashMap::new(),
                agg: None,
            };
            for b in builds {
                let build = run.execution.retained_batch(b.node)?.clone();
                state.builds.insert(b.name.clone(), build);
            }
            if let Some((da, input)) = fold {
                let input = run.execution.retained_batch(input)?;
                state.agg = Some(AggState::build(input, &da.group_by, &da.aggs)?);
            }
            self.ivm_state.insert(name.clone(), state);
        }
        let mut cost = run.cost;
        if site == Site::Dw {
            let move_cost = self.stores().ship_cost(out.size);
            cost += self.stretch_for_maintenance(move_cost, clock);
        }
        self.shelf_mut(site).put(name, view);
        self.catalog.set_checksum(name, checksum);
        self.catalog
            .update_stats(name, out.size, out.batch.len() as u64);
        clock.advance(cost);
        Ok(cost)
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
        let Ok(lines) = self.hv.log_lines(log_name) else {
            return costs;
        };
        let rows = lines.len() as u64;
        if rows == 0 {
            return costs;
        }
        let log_bytes: u64 = lines.iter().map(|l| l.len() as u64 + 1).sum();
        let delta_rows = growth.records_per_epoch as u64;
        let delta_bytes = ByteSize::from_bytes((log_bytes / rows).max(1) * delta_rows);
        // The delta-size policy `refresh_view` applies: past it, everything
        // rebuilds.
        let too_large = delta_rows as f64 > self.config.ivm_max_delta_frac * rows as f64;
        // How each view would change, parents before children — as
        // `append_log` walks them, with every state warm.
        let mut change: HashMap<&str, ViewChange> = HashMap::new();
        for def in self.catalog.derived_from(log_name) {
            let of = |v: &str| change.get(v).copied().unwrap_or(ViewChange::Unchanged);
            let mplan = if too_large {
                None
            } else {
                analyze_maintenance(&def.plan, log_name, &of).ok()
            };
            let cost = if mplan.is_some() {
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
            let grew = match mplan {
                Some(MaintPlan::Append(_)) => ViewChange::Appended,
                _ => ViewChange::Rewritten,
            };
            change.insert(&def.name, grew);
            costs.insert(def.name.clone(), cost.as_secs_f64());
        }
        costs
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::system::SystemConfig;
    use crate::variants::Variant;
    use miso_common::Budgets;
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
