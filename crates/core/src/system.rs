//! The multistore system: execution layer + query-stream driver.
//!
//! This is the runtime of Figure 2: queries arrive one at a time; the
//! multistore optimizer plans each against the current physical design; the
//! execution layer runs the HV side, dumps/transfers/loads cut working sets
//! into DW temp space, and resumes in DW; by-products become opportunistic
//! views; and (for tuned variants) the MISO tuner periodically reorganizes
//! the placement of views across the stores.
//!
//! All eight §5 variants run through [`MultistoreSystem::run_workload`];
//! the [`crate::variants::Variant`] flags select the retention, splitting,
//! and tuning policies.

use crate::audit::AuditConfig;
use crate::etl::{rewrite_for_dw, run_etl, DEFAULT_ETL_OVERHEAD};
use crate::metrics::{ExperimentResult, QueryFailure, QueryRecord, ReorgRecord, TtiBreakdown};
use crate::reorg::{stage_name, JournalEntry, ReorgJournal, ReorgPlan, MAX_REORG_RECOVERIES};
use crate::split::{self, HarvestCandidate, Stores};
use crate::tuner::{MisoTuner, NewDesign, TunerConfig};
use crate::variants::Variant;
use miso_chaos::Strike;
use miso_common::guard::QueryGuard;
use miso_common::ids::{NodeId, QueryId};
use miso_common::{
    Budgets, ByteSize, CircuitBreaker, DetRng, MisoError, Result, Retry, RetryPolicy, SimClock,
    SimDuration, Turn,
};
use miso_data::logs::Corpus;
use miso_data::{checksum_batch, ColBatch, StoredView};
use miso_dw::{BackgroundSim, DwActivity, DwStore, TableSpace};
use miso_exec::{OpProfile, UdfRegistry};
use miso_hv::HvStore;
use miso_optimizer::cost::TransferModel;
use miso_optimizer::optimize::{Design, PlannedQuery};
use miso_plan::estimate::{estimate_plan, MapStats};
use miso_plan::LogicalPlan;
use miso_views::ViewCatalog;
use miso_xray::QueryXray;
use std::collections::{BTreeSet, HashMap, HashSet};
use std::sync::Arc;

/// Fixed simulated time to compute a new design during a reorg phase.
const TUNE_COMPUTE: SimDuration = SimDuration::from_secs(5);
/// Consecutive DW failures before the DW circuit breaker opens.
const DW_BREAKER_THRESHOLD: u32 = 3;
/// Cooldown before an open DW breaker lets a probe through.
const DW_BREAKER_COOLDOWN: SimDuration = SimDuration::from_secs(300);

/// System-level configuration shared by all variants.
#[derive(Debug, Clone)]
pub struct SystemConfig {
    /// View storage/transfer budgets.
    pub budgets: Budgets,
    /// Queries per reorganization phase (paper: every 3 of 32).
    pub reorg_every: usize,
    /// Tuner history window (paper: 6).
    pub history_len: usize,
    /// Benefit-decay epoch length (paper: 3).
    pub epoch_len: usize,
    /// Per-epoch decay factor.
    pub decay: f64,
    /// doi significance threshold.
    pub doi_threshold: f64,
    /// Optional DW background reporting workload (§5.4).
    pub background: Option<BackgroundSim>,
    /// Optional between-epoch integrity audit (checksum scrubbing +
    /// catalog↔store invariants). `None` (the default) skips the auditor
    /// entirely, keeping fault-free runs byte-identical.
    pub audit: Option<AuditConfig>,
    /// Query-lifecycle guard settings (miso-guard): admission control,
    /// per-query deadlines, memory budgets, and overload shedding.
    /// Disabled by default, keeping guard-free runs byte-identical.
    pub guard: GuardConfig,
    /// Re-verify each view's content checksum whenever a plan is about to
    /// read it (the integrity layer's read-time defence; checksums are always
    /// *computed* at materialization and transfer time). Default **off**:
    /// no checksum is recomputed on the query path.
    pub verify_on_read: bool,
    /// Delta-apply size policy of incremental view maintenance (miso-ivm):
    /// maintainable views fold appended deltas into live state in
    /// O(|delta|), but when a delta carries more than this fraction of the
    /// base log's pre-append rows, maintenance falls back to a full rebuild
    /// (which also resets fold state). `0.0` rebuilds always — the reference
    /// delta folding is compared against.
    pub ivm_max_delta_frac: f64,
    /// Optional streaming-growth schedule for the online stream: when set,
    /// every reorganization boundary first ingests a generated append-only
    /// delta batch through [`crate::MaintenancePolicy`]-driven maintenance,
    /// so the corpus grows across epochs. `None` (the default) keeps
    /// growth-free runs byte-identical.
    pub growth: Option<GrowthConfig>,
}

/// Streaming-growth schedule for `MultistoreSystem::run_stream`.
#[derive(Debug, Clone)]
pub struct GrowthConfig {
    /// Which base log grows.
    pub kind: miso_data::logs::LogKind,
    /// Appended records per growth step (one step per reorg boundary).
    pub records_per_epoch: usize,
    /// How affected views are maintained.
    pub policy: crate::MaintenancePolicy,
    /// Generator parameters for the delta batches (normally the same
    /// config that generated the corpus, so schemas line up).
    pub logs: miso_data::logs::LogsConfig,
}

/// Settings for the miso-guard control plane.
///
/// When active, every query admitted into the online stream carries a
/// [`QueryGuard`] with the configured deadline and memory budget; queries
/// the guard kills are reported as [`crate::metrics::QueryFailure`]s
/// instead of aborting the workload, and a dedicated overload breaker
/// sheds new arrivals while recent guard kills indicate pressure.
#[derive(Debug, Clone)]
pub struct GuardConfig {
    /// Master switch for this system.
    pub enabled: bool,
    /// Default per-query deadline, relative to admission time. `None` =
    /// no deadline.
    pub deadline: Option<SimDuration>,
    /// Per-query memory budget charged by the execution engine (join
    /// builds, aggregate accumulators, materialization buffers).
    /// `ByteSize::ZERO` = unlimited.
    pub mem_budget: ByteSize,
    /// Maximum queries admitted concurrently. The stream driver runs one
    /// query at a time, so values ≥ 1 never bind there; `0` sheds
    /// everything (a drain/maintenance mode, and the admission-path test
    /// hook).
    pub max_inflight: usize,
    /// Consecutive guard kills before the overload breaker opens and new
    /// arrivals are shed.
    pub shed_threshold: u32,
    /// How long the overload breaker sheds before letting a probe query
    /// through; also the `retry_after` hint attached to shed failures.
    pub shed_cooldown: SimDuration,
}

impl GuardConfig {
    /// Guards fully off (the paper-faithful default).
    pub fn disabled() -> Self {
        GuardConfig {
            enabled: false,
            deadline: None,
            mem_budget: ByteSize::ZERO,
            max_inflight: usize::MAX,
            shed_threshold: 3,
            shed_cooldown: SimDuration::from_secs(60),
        }
    }
}

impl SystemConfig {
    /// Paper-default settings under the given budgets.
    pub fn paper_default(budgets: Budgets) -> Self {
        SystemConfig {
            budgets,
            reorg_every: 3,
            history_len: 6,
            epoch_len: 3,
            decay: 0.5,
            doi_threshold: 1.0,
            background: None,
            audit: None,
            guard: GuardConfig::disabled(),
            verify_on_read: false,
            ivm_max_delta_frac: 0.25,
            growth: None,
        }
    }
}

/// One workload query: display label plus its raw (un-rewritten) plan.
pub type WorkloadQuery = (String, LogicalPlan);

/// One walk down the split pipeline: the query's record and — for a caller
/// that wants to look ([`MultistoreSystem::explain_analyze`]) — what the
/// walk already held when it finished. Nothing in it is built for looking.
struct PlacedRun {
    record: QueryRecord,
    /// The placement that ran; its `used_views` moved into `record`.
    planned: PlannedQuery,
    /// The stats the optimizer placed it with (`None` for an HV-only
    /// placement, which estimates nothing).
    stats: Option<MapStats>,
    hv: Option<miso_hv::HvRun>,
    dw: Option<miso_dw::DwRun>,
}

/// The multistore system.
pub struct MultistoreSystem {
    /// The Hive-like store (owns the base logs).
    pub hv: HvStore,
    /// The warehouse store.
    pub dw: DwStore,
    /// Tuner-visible view metadata.
    pub catalog: ViewCatalog,
    udfs: UdfRegistry,
    lang_catalog: miso_lang::Catalog,
    pub(crate) config: SystemConfig,
    background: Option<BackgroundSim>,
    transfer: TransferModel,
    /// LRU recency order (oldest first) for LRU-managed variants.
    lru: Vec<String>,
    /// Circuit breaker guarding the DW store (graceful degradation).
    dw_breaker: CircuitBreaker,
    /// Jitter source for retry backoff. Only consulted when a fault
    /// actually fires, so fault-free runs never draw from it.
    retry_rng: DetRng,
    /// The journal of the most recent reorganization (the auditor checks
    /// it drained).
    pub(crate) last_reorg_journal: Option<ReorgJournal>,
    /// Rotating scrub position over the sorted catalog (the auditor
    /// resumes where the previous epoch's scrub budget ran out).
    pub(crate) scrub_cursor: usize,
    /// The guard of the query currently executing (inert between queries
    /// and whenever the guard layer is off). Store calls clone it — an
    /// `Arc` bump — and pass it down into the vex engine.
    active_guard: QueryGuard,
    /// Overload breaker: consecutive guard kills open it, shedding new
    /// arrivals at admission for `GuardConfig::shed_cooldown`.
    guard_breaker: CircuitBreaker,
    /// Queries currently admitted (0 or 1 under the serial stream driver).
    inflight: usize,
    /// High-water mark of guard-charged bytes across all queries so far.
    guard_peak_bytes: u64,
    /// Live incremental-maintenance state per view (digest, join build
    /// sides, aggregate fold state). Populated lazily by Refresh-policy
    /// maintenance; views without entries simply rebuild on first refresh.
    pub(crate) ivm_state: HashMap<String, crate::maintenance::IvmViewState>,
    /// The tuner every reorganization of this system runs — the stream
    /// driver's and the serving layer's alike — so its what-if memo lives
    /// as long as the views and logs its entries are keyed by.
    tuner: MisoTuner,
}

impl MultistoreSystem {
    /// Builds a system over a generated corpus.
    pub fn new(
        corpus: &Corpus,
        lang_catalog: miso_lang::Catalog,
        udfs: UdfRegistry,
        config: SystemConfig,
    ) -> Self {
        let mut hv = HvStore::new();
        hv.add_log(corpus.twitter.clone());
        hv.add_log(corpus.foursquare.clone());
        hv.add_log(corpus.landmarks.clone());
        let background = config.background.clone();
        let dw_breaker = CircuitBreaker::new(DW_BREAKER_THRESHOLD, DW_BREAKER_COOLDOWN);
        let guard_breaker =
            CircuitBreaker::new(config.guard.shed_threshold, config.guard.shed_cooldown);
        let tuner = MisoTuner::new(TunerConfig {
            budgets: config.budgets,
            history_len: config.history_len,
            epoch_len: config.epoch_len,
            decay: config.decay,
            doi_threshold: config.doi_threshold,
        });
        MultistoreSystem {
            tuner,
            hv,
            dw: DwStore::new(),
            catalog: ViewCatalog::new(),
            udfs,
            lang_catalog,
            config,
            background,
            transfer: TransferModel::paper_default(),
            lru: Vec::new(),
            dw_breaker,
            retry_rng: DetRng::new(0x5245_5452),
            last_reorg_journal: None,
            scrub_cursor: 0,
            active_guard: QueryGuard::inert(),
            guard_breaker,
            inflight: 0,
            guard_peak_bytes: 0,
            ivm_state: HashMap::new(),
        }
    }

    /// The overload (guard) breaker's current state (for tests and
    /// reports).
    pub fn guard_breaker_state(&self) -> miso_common::BreakerState {
        self.guard_breaker.state()
    }

    /// High-water mark of guard-charged bytes across all queries so far.
    /// Never exceeds the configured per-query budget: over-budget charges
    /// are refused before they are recorded.
    pub fn guard_peak_bytes(&self) -> u64 {
        self.guard_peak_bytes
    }

    /// The DW circuit breaker's current state (for tests and reports).
    pub fn dw_breaker_state(&self) -> miso_common::BreakerState {
        self.dw_breaker.state()
    }

    /// The background simulator's recorded timeline, if §5.4 mode is on.
    pub fn background(&self) -> Option<&BackgroundSim> {
        self.background.as_ref()
    }

    /// The UDF registry this system executes with.
    pub fn udf_registry(&self) -> &UdfRegistry {
        &self.udfs
    }

    /// The inter-store transfer model.
    pub fn transfer_model(&self) -> &TransferModel {
        &self.transfer
    }

    /// The configuration this system was built with.
    pub fn config(&self) -> &SystemConfig {
        &self.config
    }

    /// The tuner this system reorganizes with (its what-if memo statistics
    /// are how a caller sees whether probes are being reused).
    pub fn tuner(&self) -> &MisoTuner {
        &self.tuner
    }

    /// EXPLAIN ANALYZE: runs `raw` the way the MS-MISO stream would run it
    /// next — same placement, same stores, same by-products, so its
    /// [`QueryRecord`] is the stream's — and joins what the optimizer
    /// predicted with the per-operator records of what ran
    /// ([`miso_xray::analyze`]). A call, not an arrival: it passes no
    /// admission and carries no guard.
    pub fn explain_analyze(
        &mut self,
        label: &str,
        raw: &LogicalPlan,
    ) -> Result<(QueryRecord, QueryXray)> {
        let mut clock = SimClock::new();
        let mut tti = TtiBreakdown::default();
        let mut ran = self.execute_one(QueryId(0), label, raw, &mut clock, &mut tti, false)?;
        ran.planned.used_views.clone_from(&ran.record.used_views);
        // DW resumes from HV's cuts: where both hold a record of a node,
        // DW's is of the hand-over and HV's, merged in last, of the run.
        let dw = ran.dw.iter().flat_map(|run| run.execution.profiles());
        let hv = ran.hv.iter().flat_map(|run| run.execution.profiles());
        let mut profiles: HashMap<NodeId, OpProfile> =
            dw.chain(hv).map(|(id, op)| (*id, *op)).collect();
        // The sizes the simulated cost was charged on.
        for out in ran.hv.iter().flat_map(|run| &run.materialized) {
            if let Some(op) = profiles.get_mut(&out.node) {
                op.bytes_out = Some(out.size.as_bytes());
            }
        }
        let models = miso_xray::CostModels {
            hv: &self.hv.cost_model,
            dw: &self.dw.cost_model,
            transfer: &self.transfer,
        };
        let estimate = |stats: &MapStats| estimate_plan(&ran.planned.plan, stats);
        let estimates = ran.stats.as_ref().map(estimate).unwrap_or_default();
        let xray = miso_xray::analyze(label, &ran.planned, &estimates, &profiles, &models);
        Ok((ran.record, xray))
    }

    /// Runs a full workload under `variant`, returning all measurements.
    ///
    /// The system should be freshly constructed per run; repeated calls keep
    /// accumulated views (useful for continuation experiments, but not what
    /// the paper's comparisons do).
    pub fn run_workload(
        &mut self,
        variant: Variant,
        queries: &[WorkloadQuery],
    ) -> Result<ExperimentResult> {
        let mut obs = miso_obs::span("workload.run");
        if obs.is_active() {
            obs.push_field(
                "variant",
                miso_obs::FieldValue::Str(variant.name().to_string()),
            );
            obs.push_field("queries", miso_obs::FieldValue::U64(queries.len() as u64));
        }
        let mut clock = SimClock::new();
        let mut result = ExperimentResult {
            variant: variant.name().to_string(),
            ..Default::default()
        };

        match variant {
            Variant::DwOnly => self.run_dw_only(queries, &mut clock, &mut result)?,
            Variant::MsOff => self.run_ms_off(queries, &mut clock, &mut result)?,
            _ => self.run_stream(variant, queries, &mut clock, &mut result)?,
        }
        obs.set_sim_us(clock.now().elapsed_since_epoch().as_micros());
        Ok(result)
    }

    // ---- DW-ONLY -------------------------------------------------------

    fn run_dw_only(
        &mut self,
        queries: &[WorkloadQuery],
        clock: &mut SimClock,
        result: &mut ExperimentResult,
    ) -> Result<()> {
        let plans: Vec<LogicalPlan> = queries.iter().map(|(_, p)| p.clone()).collect();
        let manifest = {
            let mut obs = miso_obs::span("system.etl");
            let manifest = run_etl(
                &plans,
                &self.lang_catalog,
                &self.hv,
                &mut self.dw,
                &self.udfs,
                DEFAULT_ETL_OVERHEAD,
            )?;
            if obs.is_active() {
                obs.push_field(
                    "cost_us",
                    miso_obs::FieldValue::U64(manifest.cost.as_micros()),
                );
            }
            manifest
        };
        result.tti.etl += manifest.cost;
        clock.advance(manifest.cost);
        for (i, (label, raw)) in queries.iter().enumerate() {
            let dw_plan = rewrite_for_dw(raw, &self.lang_catalog, &self.dw)?;
            // DW-ONLY has no other store to fall back to: retry is the only
            // defense, and exhausted retries surface as errors.
            let run = self.dw_execute_retry(
                &dw_plan,
                None,
                &HashMap::new(),
                clock,
                &mut result.tti.dw_exe,
            )?;
            let stretched = self.stretch(run.cost, DwActivity::QueryExec, clock);
            result.tti.dw_exe += stretched;
            clock.advance(stretched);
            result.records.push(QueryRecord {
                query: QueryId(i as u64),
                label: label.clone(),
                hv: SimDuration::ZERO,
                dw: stretched,
                transfer: SimDuration::ZERO,
                result_rows: run.execution.root_batch()?.len() as u64,
                used_views: dw_plan.scanned_views(),
                hv_ops: 0,
                dw_ops: dw_plan.len(),
                bytes_transferred: ByteSize::ZERO,
                finished_at: clock.now(),
            });
        }
        Ok(())
    }

    // ---- MS-OFF --------------------------------------------------------

    fn run_ms_off(
        &mut self,
        queries: &[WorkloadQuery],
        clock: &mut SimClock,
        result: &mut ExperimentResult,
    ) -> Result<()> {
        // Pass 1 (uncharged planning pass): dry-run every query HV-only to
        // discover the candidate views the workload would create — this is
        // the "workload known up-front" premise of an offline design tool.
        for (i, (_, raw)) in queries.iter().enumerate() {
            let plan = split::place(self.stores(), raw, |_| true, true)?.0.plan;
            let run = self.hv.execute(&plan, None, &self.udfs)?;
            self.harvest_views(&plan, &run, QueryId(i as u64));
        }
        // One-shot tune over the whole workload with uniform weights: the
        // chosen sets become the *static retention policy*.
        let tuner_cfg = TunerConfig {
            budgets: Budgets::new(
                self.config.budgets.hv_storage,
                self.config.budgets.dw_storage,
                // The static design is installed incrementally as views
                // appear, so the per-phase transfer budget does not bind.
                self.config.budgets.hv_storage + self.config.budgets.dw_storage,
            )
            .with_discretization(self.config.budgets.discretization),
            history_len: queries.len().max(1),
            epoch_len: queries.len().max(1),
            decay: 1.0,
            doi_threshold: self.config.doi_threshold,
        };
        let tuner = MisoTuner::new(tuner_cfg);
        let plans: Vec<LogicalPlan> = queries.iter().map(|(_, p)| p.clone()).collect();
        let current_hv: BTreeSet<String> = self.hv.view_names().into_iter().collect();
        let current_dw: BTreeSet<String> = self.dw.view_names().into_iter().collect();
        let stats = self.build_stats();
        let offline_design = tuner.tune(
            &current_hv,
            &current_dw,
            &self.catalog,
            &plans,
            &stats,
            &self.hv.cost_model,
            &self.dw.cost_model,
            &self.transfer,
        );

        // Views are opportunistic by-products: none exist before the
        // workload runs. Reset the stores; pass 2 retains exactly the views
        // the static design selected, as they are (re)created, moving
        // DW-designated ones at creation time (charged as TUNE).
        for name in self.hv.view_names() {
            self.hv.remove_view(&name);
        }
        for name in self.dw.view_names() {
            self.dw.evict_view(&name);
        }
        let keep_dw = offline_design.dw.clone();
        let keep_any: BTreeSet<String> = offline_design
            .hv
            .iter()
            .chain(offline_design.dw.iter())
            .cloned()
            .collect();
        for (i, (label, raw)) in queries.iter().enumerate() {
            let record = self
                .execute_one(QueryId(i as u64), label, raw, clock, &mut result.tti, false)?
                .record;
            // Enforce the static design: drop non-selected views, migrate
            // DW-designated ones.
            for name in self.hv.view_names() {
                if !keep_any.contains(&name) {
                    self.hv.remove_view(&name);
                    if !self.dw.has_view(&name) {
                        self.catalog.remove(&name);
                    }
                } else if keep_dw.contains(&name) && !self.dw.has_view(&name) {
                    let view = self.hv.take_view(&name).ok_or_else(|| {
                        MisoError::Store(format!("HV lost view `{name}` during MS-OFF retention"))
                    })?;
                    let raw_cost = self.stores().ship_cost(view.size);
                    let stretched = self.stretch(raw_cost, DwActivity::ViewTransfer, clock);
                    result.tti.tune += stretched;
                    clock.advance(stretched);
                    self.dw.load(&name, view, TableSpace::Permanent);
                }
            }
            result.records.push(record);
        }
        Ok(())
    }

    // ---- The online stream (all other variants) -------------------------

    fn run_stream(
        &mut self,
        variant: Variant,
        queries: &[WorkloadQuery],
        clock: &mut SimClock,
        result: &mut ExperimentResult,
    ) -> Result<()> {
        let mut history: Vec<LogicalPlan> = Vec::new();

        for (i, (label, raw)) in queries.iter().enumerate() {
            // Streaming growth: at every reorganization boundary the corpus
            // may grow first, so the tuner below sees post-append statistics
            // and maintenance costs. Runs for *all* variants (the base data
            // grows regardless of who is tuning).
            if i > 0 && i % self.config.reorg_every == 0 {
                if let Some(growth) = self.config.growth.clone() {
                    let batch = (i / self.config.reorg_every) as u64;
                    let delta = miso_data::Delta::generated(
                        &growth.logs,
                        growth.kind,
                        batch,
                        growth.records_per_epoch,
                    );
                    let report = self.grow(&delta, growth.policy, clock)?;
                    result.tti.tune += report.cost;
                    result.maintenance.push(report);
                }
            }
            // Reorganization phase every `reorg_every` queries (not before
            // the first query: there is nothing to tune yet).
            if variant.uses_miso_tuner() && i > 0 && i % self.config.reorg_every == 0 {
                let window: Vec<LogicalPlan> = if variant == Variant::MsOra {
                    // Oracle: the *actual* next window.
                    queries
                        .iter()
                        .skip(i)
                        .take(self.config.history_len)
                        .map(|(_, p)| p.clone())
                        .collect()
                } else {
                    history
                        .iter()
                        .rev()
                        .take(self.config.history_len)
                        .rev()
                        .cloned()
                        .collect()
                };
                let reorg = self.reorg_now(&window, clock)?;
                result.tti.tune += reorg.duration;
                result.reorgs.push(reorg);
                // Between-epoch integrity audit: invariants plus a
                // budget-bounded checksum scrub, charged like tuner work.
                if let Some(audit_cfg) = self.config.audit.clone() {
                    let report = self.audit_pass(&audit_cfg)?;
                    result.tti.tune += report.cost;
                    clock.advance(report.cost);
                }
            }

            let qid = QueryId(i as u64);

            // Admission control (miso-guard). With guards off this whole
            // block reduces to constructing the shared inert guard.
            let guard = match self.admit(qid, label, clock, result) {
                Some(g) => g,
                None => {
                    // Shed at admission: the failure is recorded, the
                    // stream (and the tuner's history — the query *did*
                    // arrive) moves on.
                    history.push(raw.clone());
                    continue;
                }
            };
            self.active_guard = guard.clone();
            let tti = &mut result.tti;
            let outcome = match variant {
                // HV-ONLY harvests like HV-OP and retains nothing (below),
                // as MS-BASIC does beside MS-MISO.
                Variant::HvOnly | Variant::HvOp => {
                    self.execute_placed(qid, label, raw, clock, tti, true, false)
                }
                _ => self.execute_one(qid, label, raw, clock, tti, variant == Variant::MsLru),
            };
            let outcome = outcome.map(|ran| ran.record);
            self.active_guard = QueryGuard::inert();
            let record = match self.settle(qid, label, &guard, outcome, clock, result) {
                Ok(Some(record)) => record,
                Ok(None) => {
                    // Guard kill (deadline / cancel / memory): classified,
                    // reported, absorbed. The process and every other
                    // query stay healthy.
                    history.push(raw.clone());
                    continue;
                }
                Err(e) => return Err(e),
            };

            // Retention policies.
            match variant {
                Variant::MsMiso | Variant::MsOra => {
                    // Opportunistic views accumulate until the next reorg.
                }
                Variant::HvOp | Variant::MsLru => {
                    self.lru_evict_hv();
                    if variant == Variant::MsLru {
                        self.lru_evict_dw();
                    }
                }
                _ => {}
            }
            if variant == Variant::MsBasic || variant == Variant::HvOnly {
                // Nothing retained.
                for name in self.hv.view_names() {
                    self.hv.remove_view(&name);
                    self.catalog.remove(&name);
                }
            }

            history.push(raw.clone());
            result.records.push(record);
        }
        Ok(())
    }

    // ---- Admission & guard lifecycle --------------------------------------

    /// Admission control for one stream query. Returns the query's guard —
    /// the shared inert one when the guard layer is off — or `None` when
    /// the query was shed (its failure has already been recorded).
    fn admit(
        &mut self,
        qid: QueryId,
        label: &str,
        clock: &SimClock,
        result: &mut ExperimentResult,
    ) -> Option<QueryGuard> {
        if !self.config.guard.enabled {
            return Some(QueryGuard::inert());
        }
        let now = clock.now();
        let over_capacity = self.inflight >= self.config.guard.max_inflight;
        let overloaded = !self.guard_breaker.allow(now);
        if over_capacity || overloaded {
            miso_obs::count("guard.shed", 1);
            let what = if over_capacity {
                "admission capacity"
            } else {
                "overload shedding"
            };
            result.failures.push(QueryFailure::shed(
                qid,
                label,
                what,
                self.config.guard.shed_cooldown,
                now,
            ));
            return None;
        }
        self.inflight += 1;
        miso_obs::count("guard.admitted", 1);
        let deadline = self.config.guard.deadline.map(|d| now + d);
        Some(QueryGuard::new(
            deadline,
            self.config.guard.mem_budget.as_bytes(),
        ))
    }

    /// Post-execution guard bookkeeping: releases the admission slot,
    /// folds the query's peak charged bytes into the run high-water mark,
    /// classifies guard kills into [`QueryFailure`]s (returning
    /// `Ok(None)`), and feeds the overload breaker. Non-guard errors pass
    /// through untouched; with an inert guard this is the identity.
    fn settle(
        &mut self,
        qid: QueryId,
        label: &str,
        guard: &QueryGuard,
        outcome: Result<QueryRecord>,
        clock: &SimClock,
        result: &mut ExperimentResult,
    ) -> Result<Option<QueryRecord>> {
        if !guard.is_active() {
            return outcome.map(Some);
        }
        self.inflight = self.inflight.saturating_sub(1);
        self.guard_peak_bytes = self.guard_peak_bytes.max(guard.peak());
        miso_obs::gauge("guard.peak_bytes", self.guard_peak_bytes as f64);
        match outcome {
            Ok(record) => {
                self.guard_breaker.record_success();
                Ok(Some(record))
            }
            Err(e) if matches!(e.kind(), "cancelled" | "resource_exhausted") => {
                // A guard kill must never half-publish: working sets staged
                // in DW temp space die here, and view harvesting /
                // working-set retention are deferred past the last fallible
                // step of a split attempt, so catalog and stores hold no
                // trace of the dead query.
                self.dw.clear_temp();
                match &e {
                    MisoError::Cancelled {
                        reason: "deadline", ..
                    } => miso_obs::count("guard.deadline_exceeded", 1),
                    MisoError::Cancelled { .. } => miso_obs::count("guard.cancelled", 1),
                    _ => miso_obs::count("guard.mem_exceeded", 1),
                }
                if self.guard_breaker.record_failure(clock.now()) {
                    miso_obs::count("guard.overload_opened", 1);
                }
                result.failures.push(QueryFailure::killed(
                    qid,
                    label,
                    e.kind(),
                    e.to_string(),
                    clock.now(),
                ));
                Ok(None)
            }
            Err(e) => Err(e),
        }
    }

    // ---- Execution paths -------------------------------------------------

    /// Executes a multistore query; with `retain_ws`, transferred working
    /// sets are kept as permanent DW views (MS-LRU's passive tuning).
    ///
    /// Graceful degradation: while the DW circuit breaker is open, split
    /// planning is skipped and the query runs HV-only; when a split attempt
    /// exhausts its DW/transfer retries, the failure is recorded against the
    /// breaker, partial DW state is discarded, and the query re-runs
    /// HV-only. Queries never error out because DW is unhealthy.
    fn execute_one(
        &mut self,
        qid: QueryId,
        label: &str,
        raw: &LogicalPlan,
        clock: &mut SimClock,
        tti: &mut TtiBreakdown,
        retain_ws: bool,
    ) -> Result<PlacedRun> {
        if !self.dw_breaker.allow(clock.now()) {
            // DW is unhealthy and still cooling down: don't even plan a
            // split. The first allowed call after the cooldown is the probe.
            miso_obs::count("query.hv_fallback", 1);
            return self.execute_placed(qid, label, raw, clock, tti, true, false);
        }
        match self.execute_placed(qid, label, raw, clock, tti, false, retain_ws) {
            Ok(ran) => Ok(ran),
            Err(e) if e.is_transient() && matches!(e.source(), Some("dw") | Some("transfer")) => {
                // DW-side retries exhausted: mark the store unhealthy,
                // discard any partially staged working sets, and fall back
                // to an HV-only run. Time already spent on the failed
                // attempt stays charged — it really elapsed.
                if self.dw_breaker.record_failure(clock.now()) {
                    miso_obs::count("store.circuit_open", 1);
                }
                self.dw.clear_temp();
                miso_obs::count("query.hv_fallback", 1);
                self.execute_placed(qid, label, raw, clock, tti, true, false)
            }
            Err(e) => Err(e),
        }
    }

    /// Walks one query down the split pipeline: place it ([`split::place`]),
    /// run the HV side, ship each cut, finish in DW, publish the by-products.
    /// With `hv_only` every node is placed in HV (HV-ONLY, HV-OP and the
    /// degradation above), so the walk has no cuts and no DW side. DW-side
    /// transient errors escape to [`Self::execute_one`], which degrades to
    /// HV-only.
    #[allow(clippy::too_many_arguments)]
    fn execute_placed(
        &mut self,
        qid: QueryId,
        label: &str,
        raw: &LogicalPlan,
        clock: &mut SimClock,
        tti: &mut TtiBreakdown,
        hv_only: bool,
        retain_ws: bool,
    ) -> Result<PlacedRun> {
        let mut obs = miso_obs::span("query");
        if obs.is_active() {
            obs.push_field("label", miso_obs::FieldValue::Str(label.to_string()));
            obs.push_field("qid", miso_obs::FieldValue::U64(qid.raw()));
        }
        let (mut planned, stats) = loop {
            let (planned, stats) = split::place(self.stores(), raw, |_| true, hv_only)?;
            if self.verify_used_views(&planned.used_views).is_empty() {
                break (planned, stats);
            }
            // A planned view failed verification and was quarantined:
            // re-plan against the shrunken design. Each pass removes at
            // least one view from the stores, so this terminates.
            miso_obs::count("query.view_fallback", 1);
        };
        let (hv_set, dw_set) = split::node_sets(&planned);
        let plan = &planned.plan;

        let mut hv_time = SimDuration::ZERO;
        let mut transfer_time = SimDuration::ZERO;
        let mut dw_time = SimDuration::ZERO;
        let mut bytes_transferred = ByteSize::ZERO;
        let mut provided: HashMap<NodeId, Arc<ColBatch>> = HashMap::new();

        // HV side. Publishing of by-products (working-set retention, view
        // harvesting) is deferred until the split attempt is past its last
        // fallible step — a query the guard kills mid-flight must not
        // half-publish catalog or view state.
        let mut hv_run: Option<miso_hv::HvRun> = None;
        if !hv_set.is_empty() {
            let run = self.hv_execute_retry(plan, Some(&hv_set), clock, &mut tti.hv_exe)?;
            hv_time = run.cost;
            self.record_bg(DwActivity::Idle, hv_time, clock);
            tti.hv_exe += hv_time;
            clock.advance(hv_time);
            self.active_guard.check_deadline(clock.now())?;

            // Ship each cut working set.
            for cut in split::cuts(self.stores(), &planned, &run)? {
                let (id, bytes) = (cut.node, cut.bytes);
                bytes_transferred += bytes;
                miso_obs::count("system.bytes_transferred", bytes.as_bytes());
                miso_obs::instant(
                    "query.transfer",
                    vec![
                        ("cut", miso_obs::FieldValue::U64(id.raw())),
                        ("bytes", miso_obs::FieldValue::U64(bytes.as_bytes())),
                    ],
                );
                let node = plan.node(id);
                let ws_name = format!("ws_{qid}_{id}");
                // The shipment checksum is taken once, from the batch HV
                // materialized, and loaded with it; the DW copy is verified
                // against it after every (re-)load so a corrupted wire
                // transfer is re-shipped — and re-charged — rather than
                // silently computed on.
                let staged = StoredView {
                    schema: node.schema.clone(),
                    batch: cut.batch.clone(),
                    size: bytes,
                    checksum: checksum_batch(&cut.batch),
                };
                // A copy that arrives corrupt is re-shipped at once, on a
                // budget of its own: each ship retries its failures afresh.
                // Re-ships draw no backoff, so their RNG is never consulted.
                RetryPolicy::STANDARD.run(&mut DetRng::new(0), |turn| {
                    if turn == Turn::Now {
                        miso_obs::count("transfer.reshipped", 1);
                    }
                    let mut waited = SimDuration::ZERO;
                    let strike = self.ship_attempt(clock, &mut waited)?;
                    transfer_time += waited;
                    tti.transfer += waited;
                    let raw_cost = strike.slowed(cut.ship_cost);
                    let stretched = self.stretch(raw_cost, DwActivity::WorkingSetTransfer, clock);
                    transfer_time += stretched;
                    tti.transfer += stretched;
                    clock.advance(stretched);
                    self.active_guard.check_deadline(clock.now())?;
                    // Working sets live in temp table space for the query
                    // only.
                    self.dw
                        .load(&ws_name, staged.clone(), TableSpace::Temporary);
                    if strike.corrupt {
                        self.dw.corrupt_temp(&ws_name);
                    }
                    if self.dw.verify_temp(&ws_name, staged.checksum) != Some(false) {
                        return Ok(());
                    }
                    miso_obs::count("integrity.checksum_failures", 1);
                    let e = MisoError::transient("transfer", "working set corrupted after retries");
                    Err(Retry::Now(e))
                })?;
                provided.insert(id, cut.batch);
            }
            hv_run = Some(run);
        }

        // DW side.
        let mut dw_run: Option<miso_dw::DwRun> = None;
        if !dw_set.is_empty() {
            let run =
                self.dw_execute_retry(plan, Some(&dw_set), &provided, clock, &mut tti.dw_exe)?;
            let stretched = self.stretch(run.cost, DwActivity::QueryExec, clock);
            dw_time = stretched;
            tti.dw_exe += stretched;
            clock.advance(stretched);
            self.active_guard.check_deadline(clock.now())?;
            // DW answered: the store is healthy again.
            self.dw_breaker.record_success();
            dw_run = Some(run);
        }
        let result_rows = split::root_batch(hv_run.as_ref(), dw_run.as_ref())?.len() as u64;
        self.dw.clear_temp();

        // Publish by-products. Every fallible step is behind us: retained
        // working sets become permanent DW views and HV-side stage outputs
        // become opportunistic views, exactly as they would have mid-flight
        // in the guard-free ordering (same LRU touch order, no charges).
        if let Some(run) = &hv_run {
            if retain_ws {
                for cut in planned.split.cut_nodes(plan) {
                    // Every cut is a stage output of the HV side.
                    if let Some(out) = run.materialized.iter().find(|m| m.node == cut) {
                        self.retain_working_set(plan, out, qid);
                    }
                }
            }
            self.harvest_views(plan, run, qid);
        }

        for v in &planned.used_views {
            self.lru_touch(v);
        }
        if obs.is_active() {
            obs.set_sim_us(clock.now().elapsed_since_epoch().as_micros());
            obs.push_field("hv_us", miso_obs::FieldValue::U64(hv_time.as_micros()));
            obs.push_field("dw_us", miso_obs::FieldValue::U64(dw_time.as_micros()));
            obs.push_field(
                "transfer_us",
                miso_obs::FieldValue::U64(transfer_time.as_micros()),
            );
            obs.push_field(
                "bytes_transferred",
                miso_obs::FieldValue::U64(bytes_transferred.as_bytes()),
            );
            obs.push_field("rows", miso_obs::FieldValue::U64(result_rows));
            obs.push_field(
                "used_views",
                miso_obs::FieldValue::U64(planned.used_views.len() as u64),
            );
        }
        let record = QueryRecord {
            query: qid,
            label: label.to_string(),
            hv: hv_time,
            dw: dw_time,
            transfer: transfer_time,
            result_rows,
            hv_ops: hv_set.len(),
            dw_ops: dw_set.len(),
            used_views: std::mem::take(&mut planned.used_views),
            bytes_transferred,
            finished_at: clock.now(),
        };
        Ok(PlacedRun {
            record,
            planned,
            stats,
            hv: hv_run,
            dw: dw_run,
        })
    }

    // ---- Tuning ----------------------------------------------------------

    /// Runs one reorganization phase right now against the given history
    /// window — M-KNAPSACK tune, journaled two-phase migration, quarantine
    /// repair — charging TUNE time. The stream driver runs it at every epoch
    /// boundary; miso-serve stages one on its master copy while queries keep
    /// reading a published snapshot, then publishes the result atomically.
    pub fn reorg_now(
        &mut self,
        window: &[LogicalPlan],
        clock: &mut SimClock,
    ) -> Result<ReorgRecord> {
        let mut obs = miso_obs::span("tuner.reorg");
        miso_obs::count("tuner.reorgs", 1);
        let start = clock.now();
        let mut current_hv: BTreeSet<String> = self.hv.view_names().into_iter().collect();
        let current_dw: BTreeSet<String> = self.dw.view_names().into_iter().collect();
        // Self-healing: quarantined views are offered to the tuner as if
        // they were still HV-resident, so M-KNAPSACK decides whether each
        // one earns its recompute cost in the new design.
        let quarantined = self.catalog.quarantined_names();
        let mut tune_hv = current_hv.clone();
        tune_hv.extend(quarantined.iter().cloned());
        let stats = self.build_stats();
        // Under a growth schedule, keeping a view costs upkeep too: charge
        // each candidate its estimated per-window maintenance cost so
        // delta-maintainable views out-compete equal-benefit views that
        // need full recomputation. Without growth the map is empty and the
        // tuner's arithmetic is untouched.
        let maint_cost = self.maintenance_costs();
        let mut new_design = self.tuner.tune_with_maintenance(
            &tune_hv,
            &current_dw,
            &self.catalog,
            window,
            &stats,
            &self.hv.cost_model,
            &self.dw.cost_model,
            &self.transfer,
            &maint_cost,
        );
        let mut duration = TUNE_COMPUTE;
        let mut repaired = Vec::new();
        let mut dropped_pre = Vec::new();
        for name in &quarantined {
            if new_design.hv.contains(name) || new_design.dw.contains(name) {
                // Worth keeping: recompute from base data in HV, charged
                // to this phase like any other tuner work.
                match self.recompute_quarantined(name, clock, &mut duration) {
                    Ok(()) => {
                        current_hv.insert(name.clone());
                        repaired.push(name.clone());
                    }
                    Err(_) => {
                        // Recompute failed (e.g. HV unhealthy or the
                        // defining plan reads a view that is gone): give
                        // the view up rather than fail the reorg.
                        new_design.hv.remove(name);
                        new_design.dw.remove(name);
                        self.catalog.remove(name);
                        dropped_pre.push(name.clone());
                    }
                }
            } else {
                // Not worth its recompute cost: drop it from the catalog.
                self.catalog.remove(name);
                dropped_pre.push(name.clone());
            }
        }
        // Apply the design through the crash-safe two-phase journal (see
        // the [`crate::reorg`] module docs). Fault-free runs take the same
        // steps, in the same order, with the same charges as a direct
        // apply would.
        let plan = ReorgPlan::diff(&current_hv, &current_dw, &new_design.hv, &new_design.dw);
        let mut bytes_moved = ByteSize::ZERO;
        let mut journal = ReorgJournal::new();
        let mut recoveries = 0u64;
        let mut rolled_back = false;
        let (moved_to_dw, moved_to_hv, mut dropped) = loop {
            let poll_chaos = recoveries <= MAX_REORG_RECOVERIES;
            match self.reorg_pass(
                &plan,
                &new_design,
                &mut journal,
                clock,
                &mut duration,
                &mut bytes_moved,
                poll_chaos,
            ) {
                Ok(lists) => break lists,
                Err(e) if e.is_crash() => {
                    // The reorg "process" died: volatile DW temp space is
                    // gone; the journal, HV, and DW permanent space
                    // survive.
                    self.dw.clear_temp();
                    recoveries += 1;
                    miso_obs::count("tuner.reorg_recovered", 1);
                    if !journal.committed() {
                        // Pre-commit: roll back. Staging copies are
                        // discarded and the old design stands.
                        self.reorg_rollback(&journal);
                        rolled_back = true;
                        break (Vec::new(), Vec::new(), Vec::new());
                    }
                    // Post-commit: replay. The next pass resumes from the
                    // journal; past the recovery cap it runs with fault
                    // injection suppressed (liveness backstop).
                }
                Err(e) => return Err(e),
            }
        };
        // The design-computation time itself.
        self.record_bg(DwActivity::Idle, TUNE_COMPUTE, clock);
        clock.advance(TUNE_COMPUTE);
        dropped.extend(dropped_pre);
        miso_obs::count(
            "tuner.views_moved",
            (moved_to_dw.len() + moved_to_hv.len()) as u64,
        );
        miso_obs::count("tuner.views_dropped", dropped.len() as u64);
        if obs.is_active() {
            obs.set_sim_us(clock.now().elapsed_since_epoch().as_micros());
            obs.push_field(
                "moved_to_dw",
                miso_obs::FieldValue::U64(moved_to_dw.len() as u64),
            );
            obs.push_field(
                "moved_to_hv",
                miso_obs::FieldValue::U64(moved_to_hv.len() as u64),
            );
            obs.push_field("dropped", miso_obs::FieldValue::U64(dropped.len() as u64));
            obs.push_field(
                "bytes_moved",
                miso_obs::FieldValue::U64(bytes_moved.as_bytes()),
            );
            obs.push_field(
                "duration_us",
                miso_obs::FieldValue::U64(duration.as_micros()),
            );
            obs.push_field("repaired", miso_obs::FieldValue::U64(repaired.len() as u64));
        }
        self.last_reorg_journal = Some(journal);
        Ok(ReorgRecord {
            at: start,
            duration,
            moved_to_dw,
            moved_to_hv,
            dropped,
            repaired,
            bytes_moved,
            recoveries,
            rolled_back,
        })
    }

    /// One resumable pass over the journaled reorganization. Steps already
    /// recorded in the journal are skipped; volatile staging copies lost to
    /// a crash are re-staged (and re-charged — recovery work is real work).
    /// An injected crash escapes as [`MisoError::Crash`] for the recovery
    /// loop in [`Self::reorg_now`].
    #[allow(clippy::too_many_arguments)]
    fn reorg_pass(
        &mut self,
        plan: &ReorgPlan,
        design: &NewDesign,
        journal: &mut ReorgJournal,
        clock: &mut SimClock,
        duration: &mut SimDuration,
        bytes_moved: &mut ByteSize,
        poll_chaos: bool,
    ) -> Result<(Vec<String>, Vec<String>, Vec<String>)> {
        // Intent: log the full plan before anything moves.
        if !journal.started() {
            self.reorg_step_poll(poll_chaos, clock, duration)?;
            journal.append(JournalEntry::Intent {
                to_dw: plan.to_dw.clone(),
                to_hv: plan.to_hv.clone(),
            });
        }

        // Stage HV → DW: copy into DW temp space; the HV source stays.
        for name in &plan.to_dw {
            if journal.applied(name)
                || (journal.staged(name) && self.dw.has_temp(&stage_name(name)))
            {
                continue;
            }
            let strike = self.reorg_step_poll(poll_chaos, clock, duration)?;
            // The staged copy is the HV view itself, shared: the batch, with
            // the size and checksum recorded when it was materialized.
            let Some(view) = self.hv.view(name).cloned() else {
                return Err(MisoError::Tuning(format!(
                    "tuner placed `{name}` in DW but no store holds it"
                )));
            };
            let size = view.size;
            let raw_cost = strike.slowed(self.stores().ship_cost(size));
            let stretched = self.stretch(raw_cost, DwActivity::ViewTransfer, clock);
            *duration += stretched;
            clock.advance(stretched);
            *bytes_moved += size;
            self.dw.load(&stage_name(name), view, TableSpace::Temporary);
            if strike.corrupt {
                self.dw.corrupt_temp(&stage_name(name));
            }
            if !journal.staged(name) {
                journal.append(JournalEntry::Staged {
                    view: name.clone(),
                    to_dw: true,
                });
            }
        }

        // Stage DW → HV: install under the final name in (durable) HV; the
        // DW source stays until the flip.
        for name in &plan.to_hv {
            if journal.applied(name) || (journal.staged(name) && self.hv.has_view(name)) {
                continue;
            }
            let strike = self.reorg_step_poll(poll_chaos, clock, duration)?;
            let Some(view) = self.dw.view(name).cloned() else {
                // The DW source vanished (dropped by an earlier design):
                // nothing to migrate.
                continue;
            };
            let size = view.size;
            let raw_cost =
                strike.slowed(self.transfer.transfer_cost(size) + self.hv.dump_cost(size));
            let stretched = self.stretch(raw_cost, DwActivity::ViewTransfer, clock);
            *duration += stretched;
            clock.advance(stretched);
            *bytes_moved += size;
            self.hv.install(name, view);
            if strike.corrupt {
                self.hv.corrupt_view(name);
            }
            journal.append(JournalEntry::Staged {
                view: name.clone(),
                to_dw: false,
            });
        }

        // Commit: the new design becomes authoritative.
        if !journal.committed() {
            self.reorg_step_poll(poll_chaos, clock, duration)?;
            journal.append(JournalEntry::Commit);
        }

        // Apply: flip each staged copy into the design (atomic per view).
        let mut moved_to_dw = Vec::new();
        let mut moved_to_hv = Vec::new();
        for name in &plan.to_dw {
            if !journal.applied(name) {
                self.reorg_step_poll(poll_chaos, clock, duration)?;
                if self.dw.promote_temp(&stage_name(name), name).is_none() {
                    return Err(MisoError::integrity(
                        name.as_str(),
                        "reorg staging copy vanished before apply",
                    ));
                }
                // Verify the promoted copy against its materialization-time
                // checksum before dropping the HV source; a torn copy is
                // evicted and the view simply does not move this phase.
                if self.verify_moved_copy(name, true) {
                    self.hv.remove_view(name);
                }
                journal.append(JournalEntry::Applied {
                    view: name.clone(),
                    to_dw: true,
                });
            }
            if self.dw.has_view(name) {
                moved_to_dw.push(name.clone());
            }
        }
        for name in &plan.to_hv {
            if !journal.applied(name) {
                self.reorg_step_poll(poll_chaos, clock, duration)?;
                // The copy already sits in HV under the final name; verify
                // it survived the wire before dropping the DW source (a
                // no-op when there was nothing to stage).
                if self.verify_moved_copy(name, false) {
                    self.dw.evict_view(name);
                }
                journal.append(JournalEntry::Applied {
                    view: name.clone(),
                    to_dw: false,
                });
            }
            if self.hv.has_view(name) {
                moved_to_hv.push(name.clone());
            }
        }

        // Enforce the new design. DW is tightly managed: exactly the packed
        // set. HV "may have more spare capacity" (paper §3.1): non-design
        // views survive as long as the HV storage budget holds, oldest
        // evicted first beyond it.
        let mut dropped = Vec::new();
        if !journal.done() {
            self.reorg_step_poll(poll_chaos, clock, duration)?;
            let hv_budget = self.config.budgets.hv_storage;
            let mut extras: Vec<String> = self
                .hv
                .view_names()
                .into_iter()
                .filter(|n| !design.hv.contains(n) && !design.dw.contains(n))
                .collect();
            // LRU order: least-recently-used extras go first.
            extras.sort_by_key(|n| self.lru.iter().position(|x| x == n).unwrap_or(0));
            let mut i = 0;
            while self.hv.total_view_bytes() > hv_budget && i < extras.len() {
                let name = &extras[i];
                self.hv.remove_view(name);
                if !self.dw.has_view(name) {
                    self.catalog.remove(name);
                    dropped.push(name.clone());
                }
                i += 1;
            }
            for name in self.dw.view_names() {
                if !design.dw.contains(&name) {
                    self.dw.evict_view(&name);
                    if !self.hv.has_view(&name) {
                        self.catalog.remove(&name);
                        dropped.push(name);
                    }
                }
            }
            journal.append(JournalEntry::Done);
        }
        Ok((moved_to_dw, moved_to_hv, dropped))
    }

    /// Polls the `reorg.step` fail point between journal steps. An injected
    /// failure is retried with backoff (charged to the phase duration) and a
    /// crash escapes to the recovery loop; whatever else fired comes back
    /// for the step to apply. Reorg work has no per-query deadline, so a
    /// stall is just a very slow movement, a hog a no-op.
    fn reorg_step_poll(
        &mut self,
        poll: bool,
        clock: &mut SimClock,
        duration: &mut SimDuration,
    ) -> Result<Strike> {
        if !poll {
            return Ok(Strike::NONE);
        }
        RetryPolicy::STANDARD.run(&mut self.retry_rng, |turn| {
            charge_wait(turn, clock, duration);
            miso_chaos::strike("reorg.step", "tuner").map_err(Retry::transient)
        })
    }

    /// Undoes a pre-commit reorganization: staged DW→HV copies are removed
    /// from HV (their DW sources are intact); staged HV→DW copies lived in
    /// volatile DW temp space and died with the crash. No view is lost —
    /// every source is still in place.
    fn reorg_rollback(&mut self, journal: &ReorgJournal) {
        for view in journal.staged_views(false) {
            if self.dw.has_view(view) {
                self.hv.remove_view(view);
            }
        }
    }

    // ---- Integrity ---------------------------------------------------------

    /// Polls the per-store `*.view_read` fail points for every view a plan
    /// is about to serve — `corrupt` is the one kind a read honours — and,
    /// when verify-on-read is enabled, checks each stored copy against its
    /// materialization-time checksum. Corrupt copies are dropped from their
    /// store and the view is quarantined in the catalog, never to be served
    /// again until repaired. Returns the quarantined names; an empty list
    /// means the plan is safe to run.
    ///
    /// With chaos disabled and verify-on-read off this is a store probe
    /// per view — no checksum is recomputed on the query path.
    fn verify_used_views(&mut self, used: &[String]) -> Vec<String> {
        let mut quarantined = Vec::new();
        for name in used {
            let in_dw = self.dw.has_view(name);
            let read = if in_dw {
                miso_chaos::strike("dw.view_read", "dw")
            } else {
                miso_chaos::strike("hv.view_read", "hv")
            };
            if read.is_ok_and(|strike| strike.corrupt) {
                if in_dw {
                    self.dw.corrupt_view(name);
                } else {
                    self.hv.corrupt_view(name);
                }
            }
            if !self.config.verify_on_read {
                continue;
            }
            let Some(expected) = self.catalog.get(name).and_then(|d| d.checksum) else {
                continue;
            };
            let bad = self.hv.verify_view(name, expected) == Some(false)
                || self.dw.verify_view(name, expected) == Some(false);
            if bad {
                self.quarantine_view(name);
                quarantined.push(name.clone());
            }
        }
        quarantined
    }

    /// Drops every stored copy of a corrupt view and quarantines it in the
    /// catalog (shared by read-time verification and the scrubber).
    pub(crate) fn quarantine_view(&mut self, name: &str) {
        miso_obs::count("integrity.checksum_failures", 1);
        self.hv.remove_view(name);
        self.dw.evict_view(name);
        if self.catalog.quarantine(name) {
            miso_obs::count("integrity.quarantined", 1);
        }
    }

    /// Verifies a view copy that just crossed a store boundary against its
    /// materialization-time checksum. On mismatch the torn copy is dropped
    /// (the counter ticks) and `false` comes back so the caller keeps the
    /// surviving source in place. Views without a recorded checksum pass.
    fn verify_moved_copy(&mut self, name: &str, in_dw: bool) -> bool {
        let Some(expected) = self.catalog.get(name).and_then(|d| d.checksum) else {
            return true;
        };
        let ok = if in_dw {
            self.dw.verify_view(name, expected)
        } else {
            self.hv.verify_view(name, expected)
        };
        if ok == Some(false) {
            miso_obs::count("integrity.checksum_failures", 1);
            if in_dw {
                self.dw.evict_view(name);
            } else {
                self.hv.remove_view(name);
            }
            return false;
        }
        true
    }

    /// Recomputes a quarantined view from its defining plan in HV,
    /// reinstalls the fresh copy with a fresh checksum, and lifts the
    /// quarantine. The HV compute cost is charged to the reorganization
    /// phase (`duration`) and the simulated clock.
    fn recompute_quarantined(
        &mut self,
        name: &str,
        clock: &mut SimClock,
        duration: &mut SimDuration,
    ) -> Result<()> {
        let def =
            self.catalog.get(name).cloned().ok_or_else(|| {
                MisoError::integrity(name, "quarantined view missing from catalog")
            })?;
        let run = self.hv.execute(&def.plan, None, &self.udfs)?;
        let view = StoredView::new(def.schema.clone(), run.execution.root_batch()?.clone());
        self.record_bg(DwActivity::Idle, run.cost, clock);
        *duration += run.cost;
        clock.advance(run.cost);
        self.catalog.set_checksum(name, view.checksum);
        self.catalog
            .update_stats(name, view.size, view.batch.len() as u64);
        self.hv.install(name, view);
        self.catalog.clear_quarantine(name);
        miso_obs::count("integrity.repaired", 1);
        self.lru_touch(name);
        Ok(())
    }

    // ---- Shared plumbing ---------------------------------------------------

    /// This system's stores, borrowed for the [`crate::split`] functions.
    pub fn stores(&self) -> Stores<'_> {
        Stores {
            hv: &self.hv,
            dw: &self.dw,
            catalog: &self.catalog,
            transfer: &self.transfer,
        }
    }

    /// The design implied by what the stores actually hold.
    pub fn current_design(&self) -> Design {
        self.stores().design(|_| true)
    }

    /// The stats source over this system's stores and catalog.
    pub fn build_stats(&self) -> MapStats {
        self.stores().stats()
    }

    /// Registers the materialized stage outputs of an HV run as
    /// opportunistic views.
    fn harvest_views(&mut self, plan: &LogicalPlan, run: &miso_hv::HvRun, qid: QueryId) {
        for (name, m) in split::harvestable(plan, run) {
            if self.catalog.contains(&name) {
                // Same semantics already known; refresh HV residency if the
                // contents were dropped from both stores — which happens
                // exactly when the view was quarantined (or lost) and this
                // query just recomputed it as a by-product: the free
                // self-healing path.
                if !self.hv.has_view(&name) && !self.dw.has_view(&name) {
                    let view = m.stored();
                    self.catalog.set_checksum(&name, view.checksum);
                    self.catalog
                        .update_stats(&name, m.size, m.batch.len() as u64);
                    self.hv.install(&name, view);
                    if self.catalog.clear_quarantine(&name) {
                        miso_obs::count("integrity.repaired", 1);
                    }
                    self.lru_touch(&name);
                }
                continue;
            }
            let cand = HarvestCandidate::of(plan, m, qid);
            debug_assert_eq!(cand.def.name, name, "fingerprint consistency");
            self.install_harvest(cand);
            self.lru_touch(&name);
        }
    }

    /// Publishes a harvested by-product as an opportunistic view: its
    /// definition enters the catalog and its batch becomes HV-resident. The
    /// caller has checked the catalog does not know the name yet.
    pub fn install_harvest(&mut self, cand: HarvestCandidate) {
        let name = cand.def.name.clone();
        self.catalog.register(cand.def);
        self.hv.install(&name, cand.view);
    }

    fn lru_touch(&mut self, name: &str) {
        self.lru.retain(|n| n != name);
        self.lru.push(name.to_string());
    }

    /// Evicts least-recently-used HV views until within `B_h`.
    fn lru_evict_hv(&mut self) {
        let budget = self.config.budgets.hv_storage;
        let mut i = 0;
        while self.hv.total_view_bytes() > budget && i < self.lru.len() {
            let name = self.lru[i].clone();
            if self.hv.has_view(&name) {
                self.hv.remove_view(&name);
                if !self.dw.has_view(&name) {
                    self.catalog.remove(&name);
                }
            }
            i += 1;
        }
        self.gc_lru();
    }

    /// Evicts least-recently-used DW views until within `B_d` (MS-LRU).
    fn lru_evict_dw(&mut self) {
        let budget = self.config.budgets.dw_storage;
        let mut i = 0;
        while self.dw.total_view_bytes() > budget && i < self.lru.len() {
            let name = self.lru[i].clone();
            if self.dw.has_view(&name) {
                self.dw.evict_view(&name);
                if !self.hv.has_view(&name) {
                    self.catalog.remove(&name);
                }
            }
            i += 1;
        }
        self.gc_lru();
    }

    fn gc_lru(&mut self) {
        let hv = &self.hv;
        let dw = &self.dw;
        self.lru.retain(|n| hv.has_view(n) || dw.has_view(n));
    }

    /// MS-LRU's passive DW tuning: retain a transferred working set as a
    /// permanent DW view.
    fn retain_working_set(
        &mut self,
        plan: &LogicalPlan,
        out: &miso_hv::MaterializedOutput,
        qid: QueryId,
    ) {
        let cand = HarvestCandidate::of(plan, out, qid);
        let name = cand.def.name.clone();
        if self.dw.has_view(&name) {
            return;
        }
        if !self.catalog.contains(&name) {
            self.catalog.register(cand.def);
        }
        self.dw.load(&name, cand.view, TableSpace::Permanent);
        self.lru_touch(&name);
    }

    // ---- Failure handling -------------------------------------------------

    /// Runs an HV call under the retry policy; backoff waits are charged to
    /// the clock and `bucket`.
    fn hv_execute_retry(
        &mut self,
        plan: &LogicalPlan,
        subset: Option<&HashSet<NodeId>>,
        clock: &mut SimClock,
        bucket: &mut SimDuration,
    ) -> Result<miso_hv::HvRun> {
        let hv = &self.hv;
        let udfs = &self.udfs;
        let guard = &self.active_guard;
        retry_store(&mut self.retry_rng, guard, clock, bucket, || {
            hv.execute_guarded(plan, subset, udfs, guard)
        })
    }

    /// Runs a DW call under the retry policy; backoff waits are charged to
    /// the clock and `bucket`. Working sets are re-provided on each attempt
    /// (cheap: `Arc` clones).
    fn dw_execute_retry(
        &mut self,
        plan: &LogicalPlan,
        subset: Option<&HashSet<NodeId>>,
        provided: &HashMap<NodeId, Arc<ColBatch>>,
        clock: &mut SimClock,
        bucket: &mut SimDuration,
    ) -> Result<miso_dw::DwRun> {
        let dw = &self.dw;
        let udfs = &self.udfs;
        let guard = &self.active_guard;
        retry_store(&mut self.retry_rng, guard, clock, bucket, || {
            dw.execute_guarded(plan, subset, provided.clone(), udfs, guard)
        })
    }

    /// Polls the `transfer.ship` fail point, retrying injected transient
    /// failures with backoff charged to the clock and `waited`; the caller
    /// applies whatever else fired to the shipment.
    fn ship_attempt(&mut self, clock: &mut SimClock, waited: &mut SimDuration) -> Result<Strike> {
        RetryPolicy::STANDARD.run(&mut self.retry_rng, |turn| {
            charge_wait(turn, clock, waited);
            miso_chaos::strike("transfer.ship", "transfer").map_err(Retry::transient)
        })
    }

    // ---- Background interference ------------------------------------------

    /// Stretches a DW-side duration under background contention and records
    /// the interval.
    pub(crate) fn stretch(
        &mut self,
        raw: SimDuration,
        activity: DwActivity,
        clock: &SimClock,
    ) -> SimDuration {
        match &mut self.background {
            Some(bg) => {
                let stretched = raw * bg.stretch_factor(activity);
                bg.record(clock.now(), stretched, activity);
                stretched
            }
            None => raw,
        }
    }

    fn record_bg(&mut self, activity: DwActivity, duration: SimDuration, clock: &SimClock) {
        if let Some(bg) = &mut self.background {
            bg.record(clock.now(), duration, activity);
        }
    }
}

/// Runs a store call under the standard retry policy: a transient failure
/// goes again after a backoff charged to the clock and `bucket`, unless the
/// query is past its deadline (or already cancelled) — backoff waits count
/// against the deadline like any other time.
fn retry_store<T>(
    rng: &mut DetRng,
    guard: &QueryGuard,
    clock: &mut SimClock,
    bucket: &mut SimDuration,
    mut op: impl FnMut() -> Result<T>,
) -> Result<T> {
    RetryPolicy::STANDARD.run(rng, |turn| {
        charge_wait(turn, clock, bucket);
        guard.check_deadline(clock.now())?;
        op().map_err(Retry::transient)
    })
}

/// Charges the backoff a retry waited, if it did, to the clock and `bucket`.
fn charge_wait(turn: Turn, clock: &mut SimClock, bucket: &mut SimDuration) {
    if let Turn::Waited(backoff) = turn {
        *bucket += backoff;
        clock.advance(backoff);
        miso_obs::count("store.retries", 1);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use miso_data::logs::LogsConfig;
    use miso_lang::compile;

    fn tiny_system(budget_kib: u64) -> MultistoreSystem {
        let corpus = Corpus::generate(&LogsConfig::tiny());
        let budgets = Budgets::new(
            ByteSize::from_kib(budget_kib),
            ByteSize::from_kib(budget_kib),
            ByteSize::from_kib(budget_kib),
        )
        .with_discretization(ByteSize::from_kib(16));
        MultistoreSystem::new(
            &corpus,
            miso_lang::Catalog::standard(),
            UdfRegistry::new(),
            SystemConfig::paper_default(budgets),
        )
    }

    fn queries() -> Vec<WorkloadQuery> {
        let c = miso_lang::Catalog::standard();
        [
            "SELECT t.city AS city, COUNT(*) AS n FROM twitter t \
             WHERE t.followers > 100 GROUP BY t.city",
            "SELECT t.city AS city, COUNT(*) AS n, AVG(t.sentiment) AS s FROM twitter t \
             WHERE t.followers > 100 GROUP BY t.city",
            "SELECT t.city AS city, COUNT(*) AS n FROM twitter t \
             WHERE t.followers > 100 GROUP BY t.city ORDER BY n DESC LIMIT 5",
            "SELECT f.city AS city, COUNT(*) AS n FROM foursquare f \
             WHERE f.likes > 2 GROUP BY f.city",
        ]
        .iter()
        .enumerate()
        .map(|(i, sql)| (format!("q{i}"), compile(sql, &c).unwrap()))
        .collect()
    }

    #[test]
    fn hv_only_runs_and_retains_nothing() {
        let mut sys = tiny_system(10_000);
        let result = sys.run_workload(Variant::HvOnly, &queries()).unwrap();
        assert_eq!(result.records.len(), 4);
        assert!(result.tti.hv_exe > SimDuration::ZERO);
        assert_eq!(result.tti.dw_exe, SimDuration::ZERO);
        assert!(sys.hv.view_names().is_empty());
        assert!(sys.catalog.is_empty());
    }

    #[test]
    fn hv_op_reuses_views_and_speeds_up_repeats() {
        let mut sys = tiny_system(100_000);
        let result = sys.run_workload(Variant::HvOp, &queries()).unwrap();
        assert!(
            !sys.hv.view_names().is_empty(),
            "opportunistic views retained"
        );
        // q2 (same prefix as q0/q1) should reuse a view and be much cheaper
        // than q0.
        let q0 = &result.records[0];
        let q2 = &result.records[2];
        assert!(!q2.used_views.is_empty(), "rewrite found a matching view");
        assert!(q2.hv < q0.hv, "view reuse must cut HV time");
    }

    #[test]
    fn ms_miso_reorganizes_and_accelerates() {
        let mut sys = tiny_system(100_000);
        let result = sys.run_workload(Variant::MsMiso, &queries()).unwrap();
        assert!(!result.reorgs.is_empty(), "reorg every 3 queries");
        assert!(result.tti.tune > SimDuration::ZERO);
        // After the reorg (before q3), beneficial views should be in DW.
        assert!(
            !sys.dw.view_names().is_empty(),
            "tuner moved views into DW: {:?}",
            result.reorgs
        );
    }

    #[test]
    fn dw_only_pays_etl_once_then_fast_queries() {
        let mut sys = tiny_system(1_000_000);
        let result = sys.run_workload(Variant::DwOnly, &queries()).unwrap();
        assert!(result.tti.etl > SimDuration::ZERO);
        assert!(
            result.tti.etl > result.tti.dw_exe * 10.0,
            "ETL dominates: {} vs {}",
            result.tti.etl,
            result.tti.dw_exe
        );
        assert_eq!(result.records.len(), 4);
        assert!(result.records.iter().all(|r| r.hv.is_zero()));
    }

    #[test]
    fn results_identical_across_variants() {
        // Every variant must compute the same answers.
        let qs = queries();
        let mut counts: Vec<Vec<u64>> = Vec::new();
        for variant in [
            Variant::HvOnly,
            Variant::DwOnly,
            Variant::MsBasic,
            Variant::HvOp,
            Variant::MsMiso,
        ] {
            let mut sys = tiny_system(100_000);
            let result = sys.run_workload(variant, &qs).unwrap();
            counts.push(result.records.iter().map(|r| r.result_rows).collect());
        }
        for other in &counts[1..] {
            assert_eq!(&counts[0], other);
        }
    }

    #[test]
    fn ms_basic_never_keeps_views() {
        let mut sys = tiny_system(100_000);
        sys.run_workload(Variant::MsBasic, &queries()).unwrap();
        assert!(sys.hv.view_names().is_empty());
        assert!(sys.dw.view_names().is_empty());
    }

    #[test]
    fn background_contention_slows_dw_side() {
        let corpus = Corpus::generate(&LogsConfig::tiny());
        let budgets = Budgets::new(
            ByteSize::from_kib(100_000),
            ByteSize::from_kib(100_000),
            ByteSize::from_kib(100_000),
        )
        .with_discretization(ByteSize::from_kib(16));
        let mut cfg = SystemConfig::paper_default(budgets);
        cfg.background = Some(BackgroundSim::paper_config(miso_dw::Resource::Io, 40));
        let mut sys = MultistoreSystem::new(
            &corpus,
            miso_lang::Catalog::standard(),
            UdfRegistry::new(),
            cfg,
        );
        let with_bg = sys.run_workload(Variant::MsMiso, &queries()).unwrap();
        assert!(!sys.background().unwrap().samples().is_empty());

        let mut sys2 = tiny_system(100_000);
        let without = sys2.run_workload(Variant::MsMiso, &queries()).unwrap();
        assert!(
            with_bg.tti_total() >= without.tti_total(),
            "contention can only slow the multistore workload"
        );
    }
}
