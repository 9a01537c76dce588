//! The stream driver: every §5 variant runs a workload through the one
//! loop here, a step at a time, reading each decision from its row of the
//! policy table ([`Variant::policy`]). The steps, in order:
//!
//! 1. the variant's [`Prelude`], once: DW-ONLY's ETL, or MS-OFF's uncharged
//!    planning pass and offline tune;
//! 2. before query `i > 0` with `i % reorg_every == 0`: a *growth* step when
//!    [`crate::SystemConfig::growth`] is set, then a *reorganization* with
//!    its audit when the variant tunes;
//! 3. each query: admission → run per the variant's [`Placement`] → settle
//!    the guard → retain per its [`Retention`].

use crate::etl::{run_etl, DEFAULT_ETL_OVERHEAD};
use crate::metrics::{ExperimentResult, QueryFailure, QueryRecord};
use crate::split::{self, Site};
use crate::system::{MultistoreSystem, WorkloadQuery};
use crate::tuner::{MisoTuner, NewDesign, TunerConfig};
use crate::variants::{Placement, Policy, Prelude, Retention, Tuning, Variant};
use miso_common::guard::QueryGuard;
use miso_common::ids::QueryId;
use miso_common::{Budgets, MisoError, Result, SimClock, SimDuration};
use miso_dw::DwActivity;
use miso_plan::LogicalPlan;
use std::collections::VecDeque;

/// What one [`Stream::step`] did.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StepKind {
    /// The variant's prelude.
    Prelude,
    /// A delta batch appended, the views it reaches maintained.
    Growth,
    /// A reorganization phase, with its audit.
    Reorg,
    /// One query, answered, shed or killed.
    Query,
}

/// One step and the simulated time it advanced the stream's clock by.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Step {
    /// What the step did.
    pub kind: StepKind,
    /// Simulated time the step took.
    pub sim: SimDuration,
}

/// One workload under one variant, run a step at a time.
pub struct Stream<'a> {
    sys: &'a mut MultistoreSystem,
    policy: Policy,
    queries: &'a [WorkloadQuery],
    clock: SimClock,
    result: ExperimentResult,
    /// The position of the next query.
    next: usize,
    /// The steps due up to the query at `next`.
    due: VecDeque<StepKind>,
    /// MS-OFF's static design, once its prelude has run.
    design: NewDesign,
}

impl MultistoreSystem {
    /// Runs a full workload under `variant`, returning all measurements:
    /// every step of a [`Stream`] over it.
    ///
    /// The system should be freshly constructed per run; repeated calls keep
    /// accumulated views (useful for continuation experiments, but not what
    /// the paper's comparisons do).
    pub fn run_workload(
        &mut self,
        variant: Variant,
        queries: &[WorkloadQuery],
    ) -> Result<ExperimentResult> {
        use miso_obs::FieldValue::{Str, U64};
        let mut obs = miso_obs::span("workload.run");
        if obs.is_active() {
            obs.push_field("variant", Str(variant.name().to_string()));
            obs.push_field("queries", U64(queries.len() as u64));
        }
        let mut stream = Stream::new(self, variant, queries)?;
        while stream.step()?.is_some() {}
        obs.set_sim_us(stream.clock.elapsed().as_micros());
        Ok(stream.finish())
    }
}

/// The plans of `queries`.
fn plans(queries: &[WorkloadQuery]) -> Vec<LogicalPlan> {
    queries.iter().map(|(_, plan)| plan.clone()).collect()
}

impl<'a> Stream<'a> {
    /// A stream of `queries` through `sys` under `variant`, before its
    /// first step. DW-ONLY refuses a growth schedule: its ETL'd tables
    /// cannot follow an append.
    pub fn new(
        sys: &'a mut MultistoreSystem,
        variant: Variant,
        queries: &'a [WorkloadQuery],
    ) -> Result<Self> {
        let policy = variant.policy();
        if policy.prelude == Prelude::Etl && sys.config.growth.is_some() {
            let why = "cannot grow: its ETL'd tables do not follow appends";
            return Err(MisoError::Config(format!("{variant} {why}")));
        }
        let due = (policy.prelude != Prelude::None).then_some(StepKind::Prelude);
        let variant = policy.name.to_string();
        Ok(Stream {
            sys,
            policy,
            queries,
            clock: SimClock::new(),
            result: ExperimentResult {
                variant,
                ..Default::default()
            },
            next: 0,
            due: due.into_iter().collect(),
            design: NewDesign::default(),
        })
    }

    /// Takes the next step; `None` once every query has been taken.
    pub fn step(&mut self) -> Result<Option<Step>> {
        let i = self.next;
        if self.due.is_empty() && i < self.queries.len() {
            if i > 0 && i.is_multiple_of(self.sys.config.reorg_every) {
                if self.sys.config.growth.is_some() {
                    self.due.push_back(StepKind::Growth);
                }
                if self.window().is_some() {
                    self.due.push_back(StepKind::Reorg);
                }
            }
            self.due.push_back(StepKind::Query);
        }
        let Some(kind) = self.due.pop_front() else {
            return Ok(None);
        };
        let before = self.clock.elapsed();
        match kind {
            StepKind::Prelude => self.prelude()?,
            StepKind::Growth => self.grow()?,
            StepKind::Reorg => self.reorg()?,
            StepKind::Query => self.query()?,
        }
        let sim = self.clock.elapsed() - before;
        Ok(Some(Step { kind, sim }))
    }

    /// The system as the steps so far have left it.
    pub fn system(&self) -> &MultistoreSystem {
        self.sys
    }

    /// The measurements, once the stream is done with.
    pub fn finish(self) -> ExperimentResult {
        self.result
    }

    /// The queries the next reorganization tunes on; `None` when the
    /// variant does not tune.
    fn window(&self) -> Option<&'a [WorkloadQuery]> {
        let (i, len, all) = (self.next, self.sys.config.history_len, self.queries);
        match self.policy.tuning {
            Tuning::None => None,
            Tuning::History => Some(&all[i.saturating_sub(len)..i]),
            Tuning::Future => Some(&all[i..(i + len).min(all.len())]),
        }
    }

    fn prelude(&mut self) -> Result<()> {
        let sys = &mut *self.sys;
        match self.policy.prelude {
            Prelude::None => {}
            Prelude::Etl => {
                let mut obs = miso_obs::span("system.etl");
                let (plans, catalog, udfs) = (plans(self.queries), &sys.lang_catalog, &sys.udfs);
                let (hv, dw) = (&sys.hv, &mut sys.dw);
                let etl = run_etl(&plans, catalog, hv, dw, udfs, DEFAULT_ETL_OVERHEAD)?;
                if obs.is_active() {
                    obs.push_field("cost_us", miso_obs::FieldValue::U64(etl.cost.as_micros()));
                }
                self.result.tti.etl += etl.cost;
                self.clock.advance(etl.cost);
            }
            Prelude::OfflineTune => {
                // The planning pass is not part of the run: it runs fault
                // free, and the fault sequence around it does not move.
                let was_on = miso_chaos::suspend();
                let planned = self.planning_pass();
                miso_chaos::resume(was_on);
                planned?;
                self.design = self.offline_tune();
                // Views are opportunistic by-products: none exist, in the
                // stores or the catalog, before the workload runs. The
                // queries retain the static design's views as they appear.
                for site in Site::ALL {
                    for name in self.sys.shelf(site).names() {
                        self.sys.drop_copy(site, &name);
                    }
                }
            }
        }
        Ok(())
    }

    /// Dry-runs every query HV-only to discover the views the workload
    /// would create: the "workload known up-front" premise of an offline
    /// design tool.
    fn planning_pass(&mut self) -> Result<()> {
        let sys = &mut *self.sys;
        for (i, (_, raw)) in self.queries.iter().enumerate() {
            let plan = split::place(sys.stores(), raw, |_| true, true)?.0.plan;
            let run = sys.hv.execute(&plan, None, &sys.udfs)?;
            sys.harvest_views(&plan, &run, QueryId(i as u64), &[]);
        }
        Ok(())
    }

    /// One tune over the whole workload with uniform weights.
    fn offline_tune(&self) -> NewDesign {
        let (sys, n) = (&*self.sys, self.queries.len().max(1));
        let budgets = sys.config.budgets;
        // The static design is installed incrementally as views appear, so
        // the per-phase transfer budget does not bind.
        let unbound = budgets.hv_storage + budgets.dw_storage;
        let tuner = MisoTuner::new(TunerConfig {
            budgets: Budgets::new(budgets.hv_storage, budgets.dw_storage, unbound)
                .with_discretization(budgets.discretization),
            history_len: n,
            epoch_len: n,
            decay: 1.0,
            doi_threshold: sys.config.doi_threshold,
        });
        let (hv, dw) = (sys.hv.views.names(), sys.dw.views.names());
        let (hv, dw) = (hv.into_iter().collect(), dw.into_iter().collect());
        let (hv_cost, dw_cost) = (&sys.hv.cost_model, &sys.dw.cost_model);
        let (stats, window) = (sys.build_stats(), plans(self.queries));
        tuner.tune(
            &hv,
            &dw,
            &sys.catalog,
            &window,
            &stats,
            hv_cost,
            dw_cost,
            &sys.transfer,
        )
    }

    /// The growth step at this boundary: the corpus grows before the
    /// reorganization, so the tuner sees post-append statistics and
    /// maintenance costs.
    fn grow(&mut self) -> Result<()> {
        let batch = (self.next / self.sys.config.reorg_every) as u64;
        let Some(growth) = &self.sys.config.growth else {
            return Ok(());
        };
        let (kind, records, policy) = (growth.kind, growth.records_per_epoch, growth.policy);
        let delta = miso_data::Delta::generated(&growth.logs, kind, batch, records);
        let report = self.sys.grow(&delta, policy, &mut self.clock)?;
        self.result.tti.tune += report.cost;
        self.result.maintenance.push(report);
        Ok(())
    }

    /// The reorganization at this boundary, then the between-epoch
    /// integrity audit (invariants plus a budget-bounded checksum scrub,
    /// charged like tuner work).
    fn reorg(&mut self) -> Result<()> {
        let window = plans(self.window().unwrap_or_default());
        let reorg = self.sys.reorg_now(&window, &mut self.clock)?;
        self.result.tti.tune += reorg.duration;
        self.result.reorgs.push(reorg);
        if let Some(audit) = self.sys.config.audit.clone() {
            let report = self.sys.audit_pass(&audit)?;
            self.result.tti.tune += report.cost;
            self.clock.advance(report.cost);
        }
        Ok(())
    }

    /// One query. A shed query and one its guard killed are recorded as
    /// failures, and the stream moves on.
    fn query(&mut self) -> Result<()> {
        let i = self.next;
        self.next += 1;
        let (label, raw) = &self.queries[i];
        let qid = QueryId(i as u64);
        let Some(guard) = self.admit(qid, label) else {
            return Ok(());
        };
        let sys = &mut *self.sys;
        sys.active_guard = guard.clone();
        let (clock, tti) = (&mut self.clock, &mut self.result.tti);
        let outcome = match self.policy.placement {
            Placement::DwOnly => sys.execute_in_dw(qid, label, raw, clock, tti),
            Placement::HvOnly => sys
                .execute_placed(qid, label, raw, clock, tti, true, false)
                .map(|ran| ran.record),
            Placement::Split { keep_working_sets } => sys
                .execute_one(qid, label, raw, clock, tti, keep_working_sets)
                .map(|ran| ran.record),
        };
        sys.active_guard = QueryGuard::inert();
        if let Some(record) = self.settle(qid, label, &guard, outcome)? {
            self.retain();
            self.result.records.push(record);
        }
        Ok(())
    }

    /// Admission control for one query. Returns the query's guard — the
    /// shared inert one when the guard layer is off — or `None` when the
    /// query was shed (its failure has already been recorded).
    fn admit(&mut self, qid: QueryId, label: &str) -> Option<QueryGuard> {
        let sys = &mut *self.sys;
        let cfg = &sys.config.guard;
        if !cfg.enabled {
            return Some(QueryGuard::inert());
        }
        let now = self.clock.now();
        // One query at a time: only a capacity of 0 binds.
        let over_capacity = cfg.max_inflight == 0;
        if over_capacity || !sys.guard_breaker.allow(now) {
            miso_obs::count("guard.shed", 1);
            let what = match over_capacity {
                true => "admission capacity",
                false => "overload shedding",
            };
            let shed = QueryFailure::shed(qid, label, what, cfg.shed_cooldown, now);
            self.result.failures.push(shed);
            return None;
        }
        miso_obs::count("guard.admitted", 1);
        let deadline = cfg.deadline.map(|d| now + d);
        Some(QueryGuard::new(deadline, cfg.mem_budget.as_bytes()))
    }

    /// Post-execution guard bookkeeping: folds the query's peak charged
    /// bytes into the run high-water mark, classifies guard kills into
    /// [`QueryFailure`]s (returning `Ok(None)`), and feeds the overload
    /// breaker. Non-guard errors pass through untouched; with an inert
    /// guard this is the identity.
    fn settle(
        &mut self,
        qid: QueryId,
        label: &str,
        guard: &QueryGuard,
        outcome: Result<QueryRecord>,
    ) -> Result<Option<QueryRecord>> {
        if !guard.is_active() {
            return outcome.map(Some);
        }
        let sys = &mut *self.sys;
        sys.guard_peak_bytes = sys.guard_peak_bytes.max(guard.peak());
        miso_obs::gauge("guard.peak_bytes", sys.guard_peak_bytes as f64);
        let e = match outcome {
            Ok(record) => {
                sys.guard_breaker.record_success();
                return Ok(Some(record));
            }
            Err(e) if matches!(e.kind(), "cancelled" | "resource_exhausted") => e,
            Err(e) => return Err(e),
        };
        // A guard kill must never half-publish: working sets staged in DW
        // temp space die here, and view harvesting / working-set retention
        // are deferred past the last fallible step of a split attempt, so
        // catalog and stores hold no trace of the dead query.
        sys.dw.temp.clear();
        let counter = match &e {
            MisoError::Cancelled { reason, .. } if *reason == "deadline" => {
                "guard.deadline_exceeded"
            }
            MisoError::Cancelled { .. } => "guard.cancelled",
            _ => "guard.mem_exceeded",
        };
        miso_obs::count(counter, 1);
        let now = self.clock.now();
        if sys.guard_breaker.record_failure(now) {
            miso_obs::count("guard.overload_opened", 1);
        }
        let killed = QueryFailure::killed(qid, label, e.kind(), e.to_string(), now);
        self.result.failures.push(killed);
        Ok(None)
    }

    /// Applies the variant's retention policy after a query.
    fn retain(&mut self) {
        let sys = &mut *self.sys;
        match self.policy.retention {
            Retention::None => {
                for name in sys.hv.views.names() {
                    sys.catalog.remove(&name);
                }
                sys.hv.views.clear();
            }
            Retention::LruHv => sys.lru_evict(Site::Hv),
            Retention::LruBoth => {
                sys.lru_evict(Site::Hv);
                sys.lru_evict(Site::Dw);
            }
            Retention::UntilReorg => {}
            Retention::StaticDesign => {
                let (keep_hv, keep_dw) = (&self.design.hv, &self.design.dw);
                for name in sys.hv.views.names() {
                    if !keep_hv.contains(&name) && !keep_dw.contains(&name) {
                        sys.drop_copy(Site::Hv, &name);
                    }
                    if !keep_dw.contains(&name) || sys.dw.views.contains(&name) {
                        continue;
                    }
                    let Some(view) = sys.hv.views.take(&name) else {
                        continue;
                    };
                    let cost = sys.stores().ship_cost(view.size);
                    let cost = sys.stretch(cost, DwActivity::ViewTransfer, &self.clock);
                    self.result.tti.tune += cost;
                    self.clock.advance(cost);
                    sys.dw.views.put(&name, view);
                }
            }
        }
    }
}
