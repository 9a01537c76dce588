//! The multistore system: the two stores, the catalog, and the execution
//! layer.
//!
//! This is the runtime of Figure 2: the multistore optimizer plans each
//! query against the current physical design; the execution layer runs the
//! HV side, dumps/transfers/loads cut working sets into DW temp space, and
//! resumes in DW; by-products become opportunistic views. The stream driver
//! ([`crate::stream`]) feeds it queries one at a time under each §5
//! variant's policies; [`crate::reorg`] reorganizes the placement of views
//! across the stores, and [`crate::audit`] keeps their contents honest.

use crate::audit::AuditConfig;
use crate::etl::rewrite_for_dw;
use crate::maintenance::HarvestFold;
use crate::metrics::{QueryRecord, TtiBreakdown};
use crate::reorg::ReorgJournal;
use crate::split::{self, HarvestCandidate, Site, Stores};
use crate::tuner::{MisoTuner, TunerConfig};
use miso_chaos::Strike;
use miso_common::guard::QueryGuard;
use miso_common::ids::{NodeId, QueryId};
use miso_common::{
    Budgets, ByteSize, CircuitBreaker, DetRng, MisoError, Result, Retry, RetryPolicy, SimClock,
    SimDuration, Turn,
};
use miso_data::logs::Corpus;
use miso_data::{checksum_batch, ColBatch, Shelf, StoredView};
use miso_dw::{BackgroundSim, DwActivity, DwStore};
use miso_exec::{OpProfile, UdfRegistry};
use miso_hv::HvStore;
use miso_optimizer::cost::TransferModel;
use miso_optimizer::optimize::{Design, PlannedQuery};
use miso_plan::estimate::{estimate_plan, MapStats};
use miso_plan::LogicalPlan;
use miso_views::ViewCatalog;
use miso_xray::QueryXray;
use std::collections::{HashMap, HashSet};
use std::sync::Arc;

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

/// Streaming-growth schedule of the stream driver ([`crate::stream`]).
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
pub(crate) struct PlacedRun {
    pub(crate) record: QueryRecord,
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
    pub(crate) udfs: UdfRegistry,
    pub(crate) lang_catalog: miso_lang::Catalog,
    pub(crate) config: SystemConfig,
    background: Option<BackgroundSim>,
    pub(crate) transfer: TransferModel,
    /// LRU recency order (oldest first) for LRU-managed variants.
    pub(crate) lru: Vec<String>,
    /// Circuit breaker guarding the DW store (graceful degradation).
    dw_breaker: CircuitBreaker,
    /// Jitter source for retry backoff. Only consulted when a fault
    /// actually fires, so fault-free runs never draw from it.
    pub(crate) retry_rng: DetRng,
    /// The journal of the most recent reorganization (the auditor checks
    /// it drained).
    pub(crate) last_reorg_journal: Option<ReorgJournal>,
    /// Rotating scrub position over the sorted catalog (the auditor
    /// resumes where the previous epoch's scrub budget ran out).
    pub(crate) scrub_cursor: usize,
    /// The guard of the query currently executing (inert between queries
    /// and whenever the guard layer is off). Store calls clone it — an
    /// `Arc` bump — and pass it down into the vex engine.
    pub(crate) active_guard: QueryGuard,
    /// Overload breaker: consecutive guard kills open it, shedding new
    /// arrivals at admission for `GuardConfig::shed_cooldown`.
    pub(crate) guard_breaker: CircuitBreaker,
    /// High-water mark of guard-charged bytes across all queries so far.
    pub(crate) guard_peak_bytes: u64,
    /// Live incremental-maintenance state per view (digest, join build
    /// sides, aggregate fold state). Captured when a view is harvested
    /// under a `Refresh` growth schedule, and by every maintenance rebuild;
    /// a view without an entry rebuilds at its first refresh.
    pub(crate) ivm_state: HashMap<String, crate::maintenance::IvmViewState>,
    /// The tuner every reorganization of this system runs — the stream
    /// driver's and the serving layer's alike — so its what-if memo lives
    /// as long as the views and logs its entries are keyed by.
    pub(crate) tuner: MisoTuner,
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
            guard_peak_bytes: 0,
            ivm_state: HashMap::new(),
        }
    }

    /// High-water mark of guard-charged bytes across all queries so far.
    /// Never exceeds the configured per-query budget: over-budget charges
    /// are refused before they are recorded.
    pub fn guard_peak_bytes(&self) -> u64 {
        self.guard_peak_bytes
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

    // ---- Execution paths -------------------------------------------------

    /// Executes a multistore query; with `retain_ws`, transferred working
    /// sets are kept as permanent DW views (MS-LRU's passive tuning).
    ///
    /// Graceful degradation: while the DW circuit breaker is open, split
    /// planning is skipped and the query runs HV-only; when a split attempt
    /// exhausts its DW/transfer retries, the failure is recorded against the
    /// breaker, partial DW state is discarded, and the query re-runs
    /// HV-only. Queries never error out because DW is unhealthy.
    pub(crate) fn execute_one(
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
                self.dw.temp.clear();
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
    pub(crate) fn execute_placed(
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
        let mut folds = Vec::new();
        if !hv_set.is_empty() {
            let run =
                self.hv_execute_retry(plan, Some(&hv_set), clock, &mut tti.hv_exe, &mut folds)?;
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
                    self.dw.temp.put(&ws_name, staged.clone());
                    if strike.corrupt {
                        self.dw.temp.corrupt(&ws_name);
                    }
                    if self.dw.temp.verify(&ws_name, staged.checksum) != Some(false) {
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
        self.dw.temp.clear();

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
            self.harvest_views(plan, run, qid, &folds);
        }

        for v in &planned.used_views {
            self.lru_touch(v);
        }
        if obs.is_active() {
            obs.set_sim_us(clock.now().elapsed_since_epoch().as_micros());
            for (name, value) in [
                ("hv_us", hv_time.as_micros()),
                ("dw_us", dw_time.as_micros()),
                ("transfer_us", transfer_time.as_micros()),
                ("bytes_transferred", bytes_transferred.as_bytes()),
                ("rows", result_rows),
                ("used_views", planned.used_views.len() as u64),
            ] {
                obs.push_field(name, miso_obs::FieldValue::U64(value));
            }
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

    /// Runs one query entirely in DW over the tables the ETL prelude
    /// loaded (DW-ONLY). DW has no other store to fall back to: retry is
    /// the only defense, and exhausted retries surface as errors.
    pub(crate) fn execute_in_dw(
        &mut self,
        qid: QueryId,
        label: &str,
        raw: &LogicalPlan,
        clock: &mut SimClock,
        tti: &mut TtiBreakdown,
    ) -> Result<QueryRecord> {
        let plan = rewrite_for_dw(raw, &self.lang_catalog, &self.dw)?;
        let run = self.dw_execute_retry(&plan, None, &HashMap::new(), clock, &mut tti.dw_exe)?;
        let stretched = self.stretch(run.cost, DwActivity::QueryExec, clock);
        tti.dw_exe += stretched;
        clock.advance(stretched);
        self.active_guard.check_deadline(clock.now())?;
        Ok(QueryRecord {
            query: qid,
            label: label.to_string(),
            hv: SimDuration::ZERO,
            dw: stretched,
            transfer: SimDuration::ZERO,
            result_rows: run.execution.root_batch()?.len() as u64,
            used_views: plan.scanned_views(),
            hv_ops: 0,
            dw_ops: plan.len(),
            bytes_transferred: ByteSize::ZERO,
            finished_at: clock.now(),
        })
    }

    // ---- Shared plumbing ---------------------------------------------------

    /// The views `site` holds (DW's permanent design, not its temp space).
    pub fn shelf(&self, site: Site) -> &Shelf {
        match site {
            Site::Hv => &self.hv.views,
            Site::Dw => &self.dw.views,
        }
    }

    /// [`Self::shelf`], to change.
    pub fn shelf_mut(&mut self, site: Site) -> &mut Shelf {
        match site {
            Site::Hv => &mut self.hv.views,
            Site::Dw => &mut self.dw.views,
        }
    }

    /// Whether either store holds a copy of `name`.
    pub fn resident(&self, name: &str) -> bool {
        Site::ALL
            .iter()
            .any(|&site| self.shelf(site).contains(name))
    }

    /// The store a read of `name` goes to: DW when it holds the view, HV
    /// otherwise.
    pub fn holder(&self, name: &str) -> Site {
        if self.dw.views.contains(name) {
            Site::Dw
        } else {
            Site::Hv
        }
    }

    /// Drops `site`'s copy of `name`; when the other store holds none
    /// either, the view leaves the catalog too, and `true` comes back.
    pub fn drop_copy(&mut self, site: Site, name: &str) -> bool {
        self.shelf_mut(site).take(name);
        let gone = !self.shelf(site.other()).contains(name);
        if gone {
            self.catalog.remove(name);
        }
        gone
    }

    /// The storage budget of `site`'s views (`B_h` or `B_d`).
    pub(crate) fn storage_budget(&self, site: Site) -> ByteSize {
        match site {
            Site::Hv => self.config.budgets.hv_storage,
            Site::Dw => self.config.budgets.dw_storage,
        }
    }

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
    /// opportunistic views, each with the fold state `folds` says the run
    /// kept for it.
    pub(crate) fn harvest_views(
        &mut self,
        plan: &LogicalPlan,
        run: &miso_hv::HvRun,
        qid: QueryId,
        folds: &[HarvestFold],
    ) {
        for (name, m) in split::harvestable(plan, run) {
            if self.catalog.contains(&name) {
                // Same semantics already known; refresh HV residency if the
                // contents were dropped from both stores — which happens
                // exactly when the view was quarantined (or lost) and this
                // query just recomputed it as a by-product: the free
                // self-healing path.
                if !self.resident(&name) {
                    self.restore(Site::Hv, &name, m.stored());
                }
                continue;
            }
            let cand = HarvestCandidate::of(plan, m, qid);
            debug_assert_eq!(cand.def.name, name, "fingerprint consistency");
            // Capture keeps what the run computed: it is charged nothing,
            // and a view it fails for warms up at its first refresh.
            let state = folds
                .iter()
                .find(|fold| fold.node == m.node)
                .and_then(|fold| fold.capture(&cand.def.plan, &m.batch, &run.execution).ok());
            self.install_harvest(cand);
            if let Some(state) = state {
                self.ivm_state.insert(name.clone(), state);
            }
            self.lru_touch(&name);
        }
    }

    /// Publishes a harvested by-product as an opportunistic view: its
    /// definition enters the catalog and its batch becomes HV-resident. The
    /// caller has checked the catalog does not know the name yet.
    pub fn install_harvest(&mut self, cand: HarvestCandidate) {
        let name = cand.def.name.clone();
        self.catalog.register(cand.def);
        self.hv.views.put(&name, cand.view);
    }

    pub(crate) fn lru_touch(&mut self, name: &str) {
        self.lru.retain(|n| n != name);
        self.lru.push(name.to_string());
    }

    /// Evicts least-recently-used views from `site` until its views fit
    /// its storage budget, then forgets the recency of views no store holds.
    pub(crate) fn lru_evict(&mut self, site: Site) {
        let budget = self.storage_budget(site);
        let mut i = 0;
        while self.shelf(site).total_bytes() > budget && i < self.lru.len() {
            let name = self.lru[i].clone();
            if self.shelf(site).contains(&name) {
                self.drop_copy(site, &name);
            }
            i += 1;
        }
        let (hv, dw) = (&self.hv.views, &self.dw.views);
        self.lru.retain(|n| hv.contains(n) || dw.contains(n));
    }

    /// MS-LRU's passive DW tuning: retain a transferred working set as a
    /// permanent DW view. A view the catalog knows but no store holds — a
    /// quarantined one — is restored by the fresh copy.
    fn retain_working_set(
        &mut self,
        plan: &LogicalPlan,
        out: &miso_hv::MaterializedOutput,
        qid: QueryId,
    ) {
        let cand = HarvestCandidate::of(plan, out, qid);
        let name = cand.def.name.clone();
        if self.dw.views.contains(&name) {
            return;
        }
        if !self.catalog.contains(&name) {
            self.catalog.register(cand.def);
        } else if !self.resident(&name) {
            self.restore(Site::Dw, &name, cand.view);
            return;
        }
        self.dw.views.put(&name, cand.view);
        self.lru_touch(&name);
    }

    // ---- Failure handling -------------------------------------------------

    /// Runs an HV call under the retry policy; backoff waits are charged to
    /// the clock and `bucket`. Under a `Refresh` growth schedule the run
    /// also keeps the fold inputs of the views it harvests that the growing
    /// log reaches, and `folds` says which they are
    /// ([`HarvestFold::plan`]).
    fn hv_execute_retry(
        &mut self,
        plan: &LogicalPlan,
        subset: Option<&HashSet<NodeId>>,
        clock: &mut SimClock,
        bucket: &mut SimDuration,
        folds: &mut Vec<HarvestFold>,
    ) -> Result<miso_hv::HvRun> {
        let hv = &self.hv;
        let udfs = &self.udfs;
        let guard = &self.active_guard;
        let catalog = &self.catalog;
        let growing = self.config.growth.as_ref();
        let growing = growing.filter(|g| g.policy == crate::MaintenancePolicy::Refresh);
        retry_store(&mut self.retry_rng, guard, clock, bucket, || {
            hv.execute_keeping(
                plan,
                subset,
                udfs,
                guard,
                |harvest| {
                    if let Some(growth) = growing {
                        *folds =
                            HarvestFold::plan(catalog, growth.kind.table_name(), plan, harvest);
                    }
                    HarvestFold::keep(folds)
                },
                None,
            )
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
            dw.execute_guarded(plan, subset, provided.clone(), udfs, guard, None)
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

    pub(crate) fn record_bg(
        &mut self,
        activity: DwActivity,
        duration: SimDuration,
        clock: &SimClock,
    ) {
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
pub(crate) fn charge_wait(turn: Turn, clock: &mut SimClock, bucket: &mut SimDuration) {
    if let Turn::Waited(backoff) = turn {
        *bucket += backoff;
        clock.advance(backoff);
        miso_obs::count("store.retries", 1);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::variants::Variant;
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
        assert!(sys.hv.views.names().is_empty());
        assert!(sys.catalog.is_empty());
    }

    #[test]
    fn hv_op_reuses_views_and_speeds_up_repeats() {
        let mut sys = tiny_system(100_000);
        let result = sys.run_workload(Variant::HvOp, &queries()).unwrap();
        assert!(
            !sys.hv.views.names().is_empty(),
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
            !sys.dw.views.names().is_empty(),
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
        assert!(sys.hv.views.names().is_empty());
        assert!(sys.dw.views.names().is_empty());
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
