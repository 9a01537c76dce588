//! Opportunistic-view maintenance under append-only log growth.
//!
//! The paper defers updates to future work but sketches the shape of the
//! problem (§6): views are created opportunistically (recreating one is
//! free next time its subexpression runs), the domain is exploratory (stale
//! answers over logs are often acceptable until the analyst re-queries),
//! and HDFS updates are **append-only**. This module implements the two
//! natural policies those observations suggest:
//!
//! * [`MaintenancePolicy::Invalidate`] — drop every view over the appended
//!   log. Zero maintenance cost; the views regrow as by-products of the
//!   next queries (the "opportunistic" answer).
//! * [`MaintenancePolicy::Refresh`] — keep the design warm. With IVM on
//!   (`SystemConfig::ivm`, default; `MISO_IVM` overrides), each affected
//!   view goes through the delta-maintenance analyzer
//!   ([`miso_views::analyze_maintenance`]): maintainable views — filters,
//!   projections, UDFs, joins with the delta on the probe side, and a
//!   topmost aggregate — fold the appended delta into live state
//!   ([`miso_exec::AggState`], stored join build sides) in O(|delta|),
//!   re-stamping the integrity checksum incrementally through
//!   [`RowSetDigest`] (bit-identical to a full re-checksum). Everything
//!   else — and every fallback ([`FullReason`]) — recomputes in full,
//!   rebuilding the maintenance state as a side effect. With IVM off, the
//!   original distributive-union path runs unchanged.
//!
//! Either way the system's query results always reflect the appended data
//! (stale views are never silently served), and a delta-maintained view is
//! row- and checksum-identical to a freshly recomputed one.

use crate::system::MultistoreSystem;
use miso_common::guard::QueryGuard;
use miso_common::{ByteSize, MisoError, Result, SimClock, SimDuration};
use miso_data::checksum::RowSetDigest;
use miso_data::logs::LogKind;
use miso_data::{Delta, Row};
use miso_dw::{DwActivity, TableSpace};
use miso_exec::engine::{execute, DataSource};
use miso_exec::{apply_projection, AggState, FoldOutcome};
use miso_plan::{LogicalPlan, Operator};
use miso_views::{analyze_maintenance, FullReason, MaintPlan};
use std::collections::HashMap;
use std::sync::Arc;
use std::time::Instant;

/// How to treat views over a log that just grew.
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
    /// policy-driven invalidations.
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
    /// Incremental multiset digest of the stored rows. Checked against the
    /// catalog checksum before every delta apply: any out-of-band rebuild
    /// (reorg repair, harvest refresh) makes the state read as stale and
    /// forces a rebuild instead of a wrong fold.
    digest: RowSetDigest,
    /// Materialized right (build) inputs of delta-on-probe-side joins,
    /// keyed by their synthetic `§ivm:` view names.
    builds: HashMap<String, Arc<Vec<Row>>>,
    /// Aggregate fold state, `None` for append-only views and for
    /// aggregates that resolved to float accumulation.
    agg: Option<AggState>,
}

/// A data source that exposes only the appended lines of one log, the
/// stored join build sides under their synthetic names, and the HV store's
/// views (so defining plans over earlier views still resolve).
struct DeltaSource<'a> {
    hv: &'a miso_hv::HvStore,
    log: &'a str,
    delta: &'a [String],
    builds: &'a HashMap<String, Arc<Vec<Row>>>,
}

impl DataSource for DeltaSource<'_> {
    fn log_lines(&self, log: &str) -> Result<&[String]> {
        if log == self.log {
            Ok(self.delta)
        } else {
            // Other logs did not change: their contribution to the delta
            // plan is empty.
            Ok(&[])
        }
    }

    fn view_rows(&self, view: &str) -> Result<&[Row]> {
        if let Some(rows) = self.builds.get(view) {
            Ok(rows)
        } else {
            self.hv.view_rows_slice(view)
        }
    }

    fn view_rows_shared(&self, view: &str) -> Option<Arc<Vec<Row>>> {
        self.builds
            .get(view)
            .cloned()
            .or_else(|| self.hv.view_rows(view))
    }
}

/// True iff `plan` is per-record over its scans: every operator distributes
/// over unions of the input log (so `P(old ∪ Δ) = P(old) ∪ P(Δ)`).
pub fn is_distributive(plan: &LogicalPlan) -> bool {
    plan.nodes().iter().all(|n| {
        matches!(
            n.op,
            Operator::ScanLog { .. }
                | Operator::ScanView { .. }
                | Operator::Filter { .. }
                | Operator::Project { .. }
                | Operator::Udf { .. }
        )
    }) && plan.scanned_views().is_empty()
    // Views-of-views are conservatively non-distributive here: their base
    // views refresh in the same pass and ordering is not tracked.
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
        self.append_log(kind, delta.lines.clone(), policy, clock)
    }

    /// Appends `lines` to the given base log and maintains affected views
    /// per `policy`. Maintenance time is charged to the TTI `tune` bucket
    /// (it is physical-design upkeep) and to the background-contention
    /// timeline as view-transfer activity where DW is touched.
    pub fn append_log(
        &mut self,
        kind: LogKind,
        lines: Vec<String>,
        policy: MaintenancePolicy,
        clock: &mut SimClock,
    ) -> Result<MaintenanceReport> {
        let log_name = kind.table_name();
        let mut report = MaintenanceReport {
            appended: self.hv.append_log(log_name, lines.clone())?,
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

        // Which views are defined (transitively) over this log? Refresh in
        // dependency order: a view scanning another affected view goes after
        // its dependency (Kahn-style passes over the small affected set).
        let mut affected: Vec<String> = self
            .catalog
            .defs()
            .iter()
            .filter(|def| def.plan.base_logs().iter().any(|l| l == log_name))
            .map(|def| def.name.clone())
            .collect();
        {
            let affected_set: std::collections::HashSet<String> =
                affected.iter().cloned().collect();
            let mut ordered = Vec::with_capacity(affected.len());
            let mut remaining = affected.clone();
            while !remaining.is_empty() {
                let ready: Vec<String> = remaining
                    .iter()
                    .filter(|name| {
                        let def = self.catalog.get(name).expect("affected view");
                        def.plan
                            .scanned_views()
                            .iter()
                            .all(|dep| !affected_set.contains(dep) || ordered.contains(dep))
                    })
                    .cloned()
                    .collect();
                if ready.is_empty() {
                    // Cycle cannot happen (views are DAG-shaped), but guard.
                    ordered.extend(remaining);
                    break;
                }
                remaining.retain(|n| !ready.contains(n));
                ordered.extend(ready);
            }
            affected = ordered;
        }

        for name in affected {
            let def = self.catalog.get(&name).expect("listed above").clone();
            match policy {
                MaintenancePolicy::Invalidate => {
                    self.hv.remove_view(&name);
                    self.dw.evict_view(&name);
                    self.catalog.remove(&name);
                    self.ivm_state.remove(&name);
                    report.invalidated.push(name.clone());
                    report.decisions.push(MaintDecision {
                        view: name,
                        action: MaintAction::Invalidated,
                        reason: None,
                        delta_rows,
                        cost: SimDuration::ZERO,
                    });
                }
                MaintenancePolicy::Refresh => {
                    let wall = Instant::now();
                    let outcome = if self.config.ivm {
                        self.refresh_view_ivm(&def, log_name, &lines, clock)
                    } else {
                        // IVM off: the original distributive-union /
                        // full-recompute path, byte-identical to before.
                        self.refresh_view(&def, log_name, &lines, clock)
                            .map(|o| match o {
                                RefreshOutcome::Delta(cost) => IvmOutcome::Applied {
                                    cost,
                                    rows: delta_rows,
                                },
                                RefreshOutcome::Full(cost) => IvmOutcome::Fallback {
                                    cost,
                                    reason: FullReason::IvmDisabled,
                                },
                            })
                    };
                    miso_obs::observe("ivm.refresh_ns", wall.elapsed().as_nanos() as u64);
                    match outcome {
                        Ok(IvmOutcome::Applied { cost, rows }) => {
                            miso_obs::count("maint.delta_applies", 1);
                            report.cost += cost;
                            report.delta_refreshed.push(name.clone());
                            report.decisions.push(MaintDecision {
                                view: name,
                                action: MaintAction::Delta,
                                reason: None,
                                delta_rows: rows,
                                cost,
                            });
                        }
                        Ok(IvmOutcome::Fallback { cost, reason }) => {
                            miso_obs::count("maint.full_refreshes", 1);
                            if reason.is_fallback() {
                                miso_obs::count("maint.fallbacks", 1);
                            }
                            report.cost += cost;
                            report.recomputed.push(name.clone());
                            report.decisions.push(MaintDecision {
                                view: name,
                                action: MaintAction::Full,
                                reason: Some(reason),
                                delta_rows,
                                cost,
                            });
                        }
                        Err(_) => {
                            // Inputs unavailable (e.g. defining plan scans a
                            // view that only lives in DW): fall back to
                            // invalidation rather than serving stale rows.
                            self.hv.remove_view(&name);
                            self.dw.evict_view(&name);
                            self.catalog.remove(&name);
                            self.ivm_state.remove(&name);
                            miso_obs::count("maint.fallbacks", 1);
                            report.invalidated.push(name.clone());
                            report.decisions.push(MaintDecision {
                                view: name,
                                action: MaintAction::Invalidated,
                                reason: None,
                                delta_rows,
                                cost: SimDuration::ZERO,
                            });
                        }
                    }
                }
            }
        }
        Ok(report)
    }
}

enum RefreshOutcome {
    Delta(SimDuration),
    Full(SimDuration),
}

/// Outcome of the IVM-aware refresh of one view.
enum IvmOutcome {
    /// The delta folded into the stored view.
    Applied { cost: SimDuration, rows: u64 },
    /// A full recompute ran instead, for the given reason.
    Fallback {
        cost: SimDuration,
        reason: FullReason,
    },
}

/// Outcome of one delta-apply attempt against live state.
enum ApplyResult {
    Applied(SimDuration),
    /// The aggregate resolved to float accumulation: fold would not be
    /// bit-identical to a rebuild, fall back to full.
    Float,
}

impl MultistoreSystem {
    /// The IVM-aware refresh: delta-fold when the view is maintainable and
    /// its state is warm and verified, full recompute (rebuilding state as
    /// a side effect) otherwise. Every full path carries its [`FullReason`].
    fn refresh_view_ivm(
        &mut self,
        def: &miso_views::ViewDef,
        log_name: &str,
        delta: &[String],
        clock: &mut SimClock,
    ) -> Result<IvmOutcome> {
        let name = &def.name;
        let full_old = |sys: &mut Self, reason: FullReason, clock: &mut SimClock| {
            // Fall back to the pre-IVM path (distributive union or full
            // recompute); it does not maintain IVM state, so drop any.
            sys.ivm_state.remove(name);
            sys.refresh_view(def, log_name, delta, clock)
                .map(|o| match o {
                    RefreshOutcome::Delta(cost) => IvmOutcome::Applied {
                        cost,
                        rows: delta.len() as u64,
                    },
                    RefreshOutcome::Full(cost) => IvmOutcome::Fallback { cost, reason },
                })
        };
        if self.catalog.is_quarantined(name) {
            // A quarantined view has no store copies to refresh (they were
            // dropped at quarantine time), and its eventual repair — the
            // reorg's recompute path — re-executes the defining plan over
            // the already-grown base log. Deferring the rebuild there is
            // safe (nothing stale is servable) and costs nothing now.
            self.ivm_state.remove(name);
            return Ok(IvmOutcome::Fallback {
                cost: SimDuration::ZERO,
                reason: FullReason::Quarantined,
            });
        }
        let mplan = match analyze_maintenance(&def.plan, log_name) {
            Ok(p) => p,
            Err(reason) => return full_old(self, reason, clock),
        };
        // Delta-size policy: past the threshold a rebuild is at least as
        // cheap as folding (and resets any state drift), so prefer it.
        let delta_rows = delta.len() as u64;
        let base_rows = (self.hv.log_lines(log_name)?.len() as u64).saturating_sub(delta_rows);
        if delta_rows as f64 > self.config.ivm_max_delta_frac * base_rows as f64 {
            let cost = self.rebuild_with_state(def, &mplan, clock)?;
            return Ok(IvmOutcome::Fallback {
                cost,
                reason: FullReason::DeltaTooLarge {
                    delta_rows,
                    base_rows,
                },
            });
        }
        // State check: cold (never built) or stale (the stored view was
        // rebuilt out of band — the digest no longer matches the catalog
        // checksum) forces a rebuild that recaptures fresh state.
        let mut warm = match self.ivm_state.get(name) {
            Some(st) => Some(st.digest.finish()) == self.catalog.get(name).and_then(|d| d.checksum),
            None => false,
        };
        // A pure per-record plan's entire fold state is the running digest,
        // which can be re-seeded from the resident rows without executing
        // the plan — only if the reconstruction matches the catalog stamp
        // (a mismatch means the copy is suspect and the rebuild resets it).
        if !warm && matches!(mplan, MaintPlan::Append(_)) && mplan.builds().is_empty() {
            if let Some(rows) = self
                .hv
                .view_rows(name)
                .or_else(|| self.dw.view_rows_arc(name))
            {
                let digest = RowSetDigest::from_rows(&rows);
                if Some(digest.finish()) == self.catalog.get(name).and_then(|d| d.checksum) {
                    self.ivm_state.insert(
                        name.clone(),
                        IvmViewState {
                            digest,
                            builds: HashMap::new(),
                            agg: None,
                        },
                    );
                    warm = true;
                }
            }
        }
        if !warm {
            let reason = if self.ivm_state.contains_key(name) {
                FullReason::StateStale
            } else {
                FullReason::StateCold
            };
            let cost = self.rebuild_with_state(def, &mplan, clock)?;
            return Ok(IvmOutcome::Fallback { cost, reason });
        }
        let mut state = self.ivm_state.remove(name).expect("state verified warm");
        match self.apply_delta(def, &mplan, &mut state, log_name, delta, clock)? {
            ApplyResult::Applied(cost) => {
                self.ivm_state.insert(name.clone(), state);
                Ok(IvmOutcome::Applied {
                    cost,
                    rows: delta_rows,
                })
            }
            ApplyResult::Float => {
                let cost = self.rebuild_with_state(def, &mplan, clock)?;
                Ok(IvmOutcome::Fallback {
                    cost,
                    reason: FullReason::FloatAggregate,
                })
            }
        }
    }

    /// Folds one delta into warm state: runs the delta plan over just the
    /// appended lines (stored build sides resolve the join probes), then
    /// either appends the produced rows or patches the aggregate's changed
    /// groups — re-stamping the content checksum incrementally in
    /// O(changed rows).
    fn apply_delta(
        &mut self,
        def: &miso_views::ViewDef,
        mplan: &MaintPlan,
        state: &mut IvmViewState,
        log_name: &str,
        delta: &[String],
        clock: &mut SimClock,
    ) -> Result<ApplyResult> {
        let name = &def.name;
        let in_dw = self.dw.has_view(name);
        let udfs = self.udf_registry().clone();
        let scan_bytes = ByteSize::from_bytes(delta.iter().map(|l| l.len() as u64 + 1).sum());
        match mplan {
            MaintPlan::Append(_) => {
                let exec = {
                    let src = DeltaSource {
                        hv: &self.hv,
                        log: log_name,
                        delta,
                        builds: &state.builds,
                    };
                    execute(mplan.delta_plan(), &src, &udfs)?
                };
                let new_rows = exec.root_rows()?.to_vec();
                let added = ByteSize::from_bytes(new_rows.iter().map(Row::approx_bytes).sum());
                for r in &new_rows {
                    state.digest.add_row(r);
                }
                let checksum = state.digest.finish();
                let row_count = state.digest.count();
                let mut cost =
                    self.hv
                        .cost_model
                        .stage_cost(scan_bytes, added, new_rows.len() as u64);
                let size = if in_dw {
                    let (schema, mut rows, size) = self.dw.evict_view(name).ok_or_else(|| {
                        MisoError::integrity(name.as_str(), "DW copy vanished during refresh")
                    })?;
                    Arc::make_mut(&mut rows).extend(new_rows);
                    let move_cost =
                        self.transfer_model().transfer_cost(added) + self.dw.load_cost(added);
                    cost += self.stretch_for_maintenance(move_cost, clock);
                    self.dw
                        .load_view_with_checksum(name, schema, rows, size + added, checksum);
                    size + added
                } else {
                    let (schema, mut rows, size) = self.hv.take_view(name).ok_or_else(|| {
                        MisoError::integrity(name.as_str(), "view resident nowhere at refresh time")
                    })?;
                    Arc::make_mut(&mut rows).extend(new_rows);
                    self.hv
                        .install_view_with_checksum(name, schema, rows, size + added, checksum);
                    size + added
                };
                self.catalog.set_checksum(name, checksum);
                self.catalog.update_stats(name, size, row_count);
                clock.advance(cost);
                Ok(ApplyResult::Applied(cost))
            }
            MaintPlan::Aggregate(da) => {
                let Some(agg) = state.agg.as_mut() else {
                    // Built as non-foldable (float accumulation).
                    return Ok(ApplyResult::Float);
                };
                let exec = {
                    let src = DeltaSource {
                        hv: &self.hv,
                        log: log_name,
                        delta,
                        builds: &state.builds,
                    };
                    execute(mplan.delta_plan(), &src, &udfs)?
                };
                let fold = agg.apply(exec.root_rows()?, &da.group_by, &da.aggs)?;
                let applied = match fold {
                    FoldOutcome::Applied(a) => a,
                    FoldOutcome::FloatSum => return Ok(ApplyResult::Float),
                };
                let delta_in = exec.root_rows()?.len() as u64;
                let (schema, mut rows_arc) = if in_dw {
                    let (schema, rows, _) = self.dw.evict_view(name).ok_or_else(|| {
                        MisoError::integrity(name.as_str(), "DW copy vanished during refresh")
                    })?;
                    (schema, rows)
                } else {
                    let (schema, rows, _) = self.hv.take_view(name).ok_or_else(|| {
                        MisoError::integrity(name.as_str(), "view resident nowhere at refresh time")
                    })?;
                    (schema, rows)
                };
                let rows = Arc::make_mut(&mut rows_arc);
                let mut changed_bytes = 0u64;
                for (slot, agg_row) in &applied.updated {
                    let new_row = apply_projection(&da.post, agg_row)?;
                    changed_bytes += new_row.approx_bytes();
                    let old = &rows[*slot];
                    if *old != new_row {
                        state.digest.replace_row(old, &new_row);
                        rows[*slot] = new_row;
                    }
                }
                for agg_row in &applied.appended {
                    let new_row = apply_projection(&da.post, agg_row)?;
                    changed_bytes += new_row.approx_bytes();
                    state.digest.add_row(&new_row);
                    rows.push(new_row);
                }
                let checksum = state.digest.finish();
                let row_count = rows.len() as u64;
                // Aggregate views are group-sized: an O(groups) size rescan
                // is cheap and exact (updated groups change their width).
                let size = ByteSize::from_bytes(rows.iter().map(Row::approx_bytes).sum());
                let changed = ByteSize::from_bytes(changed_bytes);
                let mut cost = self.hv.cost_model.stage_cost(scan_bytes, changed, delta_in);
                if in_dw {
                    let move_cost =
                        self.transfer_model().transfer_cost(changed) + self.dw.load_cost(changed);
                    cost += self.stretch_for_maintenance(move_cost, clock);
                    self.dw
                        .load_view_with_checksum(name, schema, rows_arc, size, checksum);
                } else {
                    self.hv
                        .install_view_with_checksum(name, schema, rows_arc, size, checksum);
                }
                self.catalog.set_checksum(name, checksum);
                self.catalog.update_stats(name, size, row_count);
                clock.advance(cost);
                Ok(ApplyResult::Applied(cost))
            }
        }
    }

    /// Recomputes a maintainable view in full — in HV, over the grown
    /// corpus — and captures fresh maintenance state from the same run:
    /// the content digest, the materialized join build sides, and the
    /// aggregate fold state (replayed serially from the aggregate's input).
    fn rebuild_with_state(
        &mut self,
        def: &miso_views::ViewDef,
        mplan: &MaintPlan,
        clock: &mut SimClock,
    ) -> Result<SimDuration> {
        let name = &def.name;
        let in_dw = self.dw.has_view(name);
        let udfs = self.udf_registry().clone();
        // Interior outputs HV would pipeline away but the fold state is
        // built from: the join build sides and the aggregate's input.
        let fold = match mplan {
            MaintPlan::Aggregate(da) => Some((da, def.plan.node(da.agg).inputs[0])),
            MaintPlan::Append(_) => None,
        };
        let state_nodes: Vec<_> = mplan
            .builds()
            .iter()
            .map(|b| b.node)
            .chain(fold.map(|(_, input)| input))
            .collect();
        let run = self.hv.execute_retaining(
            &def.plan,
            None,
            &udfs,
            QueryGuard::inert_ref(),
            &state_nodes,
        )?;
        let root = def.plan.root();
        let out = run
            .materialized
            .iter()
            .find(|m| m.node == root)
            .ok_or_else(|| MisoError::Execution("refresh produced no output".into()))?;
        let mut builds = HashMap::new();
        for b in mplan.builds() {
            builds.insert(
                b.name.clone(),
                run.execution.retained_output(b.node)?.clone(),
            );
        }
        let agg = match fold {
            Some((da, input)) => AggState::build(
                run.execution.retained_output(input)?,
                &da.group_by,
                &da.aggs,
            )?,
            None => None,
        };
        let digest = RowSetDigest::from_rows(&out.rows);
        let checksum = digest.finish();
        let mut cost = run.cost;
        if in_dw {
            self.dw.evict_view(name);
            let move_cost = self.hv.dump_cost(out.size)
                + self.transfer_model().transfer_cost(out.size)
                + self.dw.load_cost(out.size);
            cost += self.stretch_for_maintenance(move_cost, clock);
            self.dw.load_view_with_checksum(
                name,
                out.schema.clone(),
                out.rows.clone(),
                out.size,
                checksum,
            );
        } else {
            self.hv.install_view_with_checksum(
                name,
                out.schema.clone(),
                out.rows.clone(),
                out.size,
                checksum,
            );
        }
        self.catalog.set_checksum(name, checksum);
        self.catalog
            .update_stats(name, out.size, out.rows.len() as u64);
        clock.advance(cost);
        self.ivm_state.insert(
            name.clone(),
            IvmViewState {
                digest,
                builds,
                agg,
            },
        );
        Ok(cost)
    }

    /// The pre-IVM refresh path: distributive plans union a delta-only
    /// execution, everything else recomputes in full. Kept verbatim as the
    /// `ivm = false` behavior and as the fallback target for reasons that
    /// leave no usable state (quarantine, non-maintainable shapes).
    fn refresh_view(
        &mut self,
        def: &miso_views::ViewDef,
        log_name: &str,
        delta: &[String],
        clock: &mut SimClock,
    ) -> Result<RefreshOutcome> {
        let in_dw = self.dw.has_view(&def.name);
        let udfs = self.udf_registry().clone();
        if is_distributive(&def.plan) {
            // Run the defining plan over the delta only and union the rows.
            let empty = HashMap::new();
            let src = DeltaSource {
                hv: &self.hv,
                log: log_name,
                delta,
                builds: &empty,
            };
            let exec = execute(&def.plan, &src, &udfs)?;
            let new_rows = exec.root_rows()?.to_vec();
            let delta_bytes = ByteSize::from_bytes(new_rows.iter().map(Row::approx_bytes).sum());
            let scan_bytes = ByteSize::from_bytes(delta.iter().map(|l| l.len() as u64 + 1).sum());
            let mut cost =
                self.hv
                    .cost_model
                    .stage_cost(scan_bytes, delta_bytes, new_rows.len() as u64);
            // Union into the resident copy.
            if in_dw {
                let (schema, rows, _) = self.dw.evict_view(&def.name).ok_or_else(|| {
                    MisoError::integrity(&def.name, "DW copy vanished during refresh")
                })?;
                let mut all = rows.as_ref().clone();
                all.extend(new_rows);
                let move_cost = self.transfer_model().transfer_cost(delta_bytes)
                    + self.dw.load_cost(delta_bytes);
                cost += self.stretch_for_maintenance(move_cost, clock);
                self.dw
                    .load_view(&def.name, schema, Arc::new(all), TableSpace::Permanent);
            } else if let Some(rows) = self.hv.view_rows(&def.name) {
                let mut all = rows.as_ref().clone();
                all.extend(new_rows);
                self.hv
                    .install_view(&def.name, def.schema.clone(), Arc::new(all));
            } else {
                return Err(MisoError::integrity(
                    &def.name,
                    "view resident nowhere at refresh time",
                ));
            }
            self.bump_view_stats(&def.name)?;
            clock.advance(cost);
            Ok(RefreshOutcome::Delta(cost))
        } else {
            // Full recomputation in HV (the defining plan's scans must be
            // resolvable there).
            let run = self.hv.execute(&def.plan, None, &udfs)?;
            let root = def.plan.root();
            let out = run
                .materialized
                .iter()
                .find(|m| m.node == root)
                .ok_or_else(|| MisoError::Execution("refresh produced no output".into()))?;
            let mut cost = run.cost;
            if in_dw {
                self.dw.evict_view(&def.name);
                let move_cost = self.hv.dump_cost(out.size)
                    + self.transfer_model().transfer_cost(out.size)
                    + self.dw.load_cost(out.size);
                cost += self.stretch_for_maintenance(move_cost, clock);
                self.dw.load_view(
                    &def.name,
                    out.schema.clone(),
                    out.rows.clone(),
                    TableSpace::Permanent,
                );
            } else {
                self.hv
                    .install_view(&def.name, out.schema.clone(), out.rows.clone());
            }
            self.bump_view_stats(&def.name)?;
            clock.advance(cost);
            Ok(RefreshOutcome::Full(cost))
        }
    }

    /// Updates catalog size/rowcount metadata — and the authoritative
    /// content checksum — after a refresh: the refreshed rows are the new
    /// materialization-time truth (without the re-stamp, the scrubber and
    /// read-time verification would falsely quarantine every refreshed
    /// view).
    fn bump_view_stats(&mut self, name: &str) -> Result<()> {
        let rows = self
            .hv
            .view_rows(name)
            .or_else(|| self.dw.view_rows_arc(name))
            .ok_or_else(|| MisoError::integrity(name, "refreshed view resident nowhere"))?;
        let size = self
            .hv
            .view_size(name)
            .or_else(|| self.dw.view_size(name))
            .unwrap_or(ByteSize::ZERO);
        self.catalog.update_stats(name, size, rows.len() as u64);
        self.catalog
            .set_checksum(name, miso_data::checksum_rows(&rows));
        Ok(())
    }

    fn stretch_for_maintenance(&mut self, raw: SimDuration, clock: &SimClock) -> SimDuration {
        self.stretch_public(raw, DwActivity::ViewTransfer, clock)
    }

    /// Estimated per-window upkeep cost (simulated seconds) of each catalog
    /// view under the configured growth schedule, for the tuner's
    /// maintenance-aware benefit charging: delta-maintainable views cost a
    /// delta-scale map stage, everything else a full recompute over the
    /// grown base log. Empty when no growth is configured, which keeps the
    /// tuner's arithmetic untouched.
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
        for def in self.catalog.defs() {
            if !def.plan.base_logs().iter().any(|l| l == log_name) {
                continue;
            }
            let cost = if self.config.ivm && miso_views::is_maintainable(&def.plan, log_name) {
                // Delta fold: scan |Δ| input bytes, write at most |Δ|-scale
                // output.
                self.hv
                    .cost_model
                    .stage_cost(delta_bytes, delta_bytes, delta_rows)
            } else {
                // Full recompute over the grown base log.
                self.hv
                    .cost_model
                    .stage_cost(ByteSize::from_bytes(log_bytes), def.size, def.rows)
            };
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
    use miso_lang::compile;
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
            .run_workload(Variant::HvOnly, &[q.clone()])
            .unwrap()
            .records[0]
            .result_rows;

        let delta = generate_delta(&cfg, LogKind::Twitter, 0, 100);
        let mut clock = SimClock::new();
        sys.append_log(
            LogKind::Twitter,
            delta,
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
                delta,
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
                delta,
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
        fresh_corpus.twitter.lines.extend(delta_again);
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
        assert!(sys.config().ivm, "IVM defaults on");
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
                generate_delta(&cfg, LogKind::Twitter, 1, 100),
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
                generate_delta(&cfg, LogKind::Twitter, 2, 100),
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
        fresh_corpus
            .twitter
            .lines
            .extend(generate_delta(&cfg, LogKind::Twitter, 1, 100));
        fresh_corpus
            .twitter
            .lines
            .extend(generate_delta(&cfg, LogKind::Twitter, 2, 100));
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

    /// `rebuild_with_state` names the interior outputs it needs (HV keeps
    /// only what it harvests): the captured join build sides and aggregate
    /// fold state must be those a keep-all run of the plan yields.
    #[test]
    fn rebuild_captures_state_equal_to_a_keep_all_run() {
        let (mut sys, _) = system();
        let udfs = standard_udfs();
        let workload = miso_workload::compile_workload(&workload_catalog()).unwrap();
        let (mut with_builds, mut with_agg) = (0, 0);
        for (label, plan) in workload {
            let Ok(mplan) = analyze_maintenance(&plan, "twitter") else {
                continue;
            };
            let def = miso_views::ViewDef::from_plan(
                plan,
                ByteSize::ZERO,
                0,
                miso_common::ids::QueryId(0),
            );
            sys.rebuild_with_state(&def, &mplan, &mut SimClock::new())
                .unwrap();
            let all = execute(&def.plan, &sys.hv, &udfs).unwrap();
            let state = &sys.ivm_state[&def.name];
            assert_eq!(state.builds.len(), mplan.builds().len(), "{label}");
            for b in mplan.builds() {
                assert_eq!(&state.builds[&b.name], all.output(b.node), "{label}");
                with_builds += 1;
            }
            if let MaintPlan::Aggregate(da) = &mplan {
                let input = all.output(def.plan.node(da.agg).inputs[0]);
                let want = AggState::build(input, &da.group_by, &da.aggs).unwrap();
                assert_eq!(
                    state.agg.as_ref().map(AggState::output_rows),
                    want.as_ref().map(AggState::output_rows),
                    "{label}"
                );
                with_agg += usize::from(want.is_some());
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
                generate_delta(&cfg, LogKind::Twitter, 3, 10),
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
    fn distributivity_classification() {
        let catalog = workload_catalog();
        let spj = compile(
            "SELECT t.city AS c FROM twitter t WHERE t.followers > 5",
            &catalog,
        )
        .unwrap();
        assert!(is_distributive(&spj));
        let agg = compile(
            "SELECT t.city AS c, COUNT(*) AS n FROM twitter t GROUP BY t.city",
            &catalog,
        )
        .unwrap();
        assert!(!is_distributive(&agg));
        let join = compile(
            "SELECT t.user_id AS u FROM twitter t \
             JOIN foursquare f ON t.user_id = f.user_id WHERE t.followers > 1",
            &catalog,
        )
        .unwrap();
        assert!(!is_distributive(&join));
    }

    #[test]
    fn append_to_unknown_log_errors() {
        let (mut sys, _) = system();
        let mut clock = SimClock::new();
        // Landmarks exists; craft a bogus call via direct store access.
        let err = sys
            .hv
            .append_log("instagram", vec!["{}".into()])
            .unwrap_err();
        assert!(err.to_string().contains("instagram"));
        // And a legitimate empty append is a no-op.
        let report = sys
            .append_log(
                LogKind::Landmarks,
                vec![],
                MaintenancePolicy::Refresh,
                &mut clock,
            )
            .unwrap();
        assert!(report.appended.is_zero());
    }
}
