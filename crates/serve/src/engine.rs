//! The serving engine: a deterministic discrete-event simulation of N
//! concurrent client sessions over W worker slots.
//!
//! # Why discrete-event
//!
//! Store execution in this repo charges *simulated* time, so host threads
//! cannot change a measured figure (and the host may have a single core).
//! The engine therefore simulates concurrency the same way the stores
//! simulate cost: arrivals, dispatches, completions, reorg publishes, and
//! drain kills are events on one totally ordered queue `(instant,
//! sequence)`, and W worker slots bound how many queries occupy sim-time
//! concurrently. Identical configs replay bit-identically on any host.
//!
//! Host threads do shorten the wall clock. A base run is a pure function of
//! its snapshot and key, so the first dispatch of an epoch computes every
//! template's fault-free run as one pool batch
//! ([`SnapExecutor::prefetch`]), and the first delivery computes every
//! template's oracle answer as another. The event loop itself stays on one
//! thread and only reads the results.
//!
//! # Epoch lifecycle
//!
//! 1. Queries load the published [`EpochSnapshot`] once, at dispatch, and
//!    execute against it for their whole lifetime.
//! 2. When `reorg_every` completions have accumulated, harvested view
//!    candidates are folded into the master copy and the tuner runs against
//!    it ([`MultistoreSystem::reorg_now`] — journaled, crash-recoverable).
//!    Serving continues on the old snapshot meanwhile.
//! 3. The reorganized image is published atomically at `now + duration`.
//!    In-flight queries keep their admission-time snapshot; any that would
//!    outlive `drain` past the publish are killed at the drain deadline with
//!    a classified `cancelled` loss, so a reorg can never be wedged open by
//!    a straggler.
//!
//! # Loss classification
//!
//! Every query the engine accepts ends in exactly one of: a delivered
//! result (checked against the serial oracle), a shed (with `retry_after`),
//! or a classified kill (`cancelled`, `resource_exhausted`, `transient`,
//! `crash`, …) recorded as a [`QueryFailure`] with tenant/session
//! attribution. Nothing panics the process; unclassified losses are a
//! reported invariant violation.

use std::cmp::Reverse;
use std::collections::{BTreeMap, BTreeSet, BinaryHeap, HashMap};
use std::sync::Arc;

use miso_common::ids::QueryId;
use miso_common::{
    pool, CircuitBreaker, DetRng, QueryGuard, Retry, RetryPolicy, SimClock, SimDuration,
    SimInstant, Turn,
};
use miso_core::{GuardConfig, MultistoreSystem, QueryFailure};
use miso_data::Checksum;
use miso_exec::UdfRegistry;
use miso_plan::LogicalPlan;

use crate::executor::{BaseRun, SnapExecutor};
use crate::scheduler::{Admission, FairScheduler, Lane, QueryReq};
use crate::snapshot::{EpochSnapshot, SnapshotCell};

/// Serving-layer configuration.
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Simulated worker slots (queries occupying sim-time concurrently).
    pub workers: usize,
    /// Client sessions.
    pub sessions: u64,
    /// Tenants; session `s` belongs to tenant `s % tenants`.
    pub tenants: u64,
    /// Queries each session submits.
    pub queries_per_session: usize,
    /// Master seed for arrivals and query choice.
    pub seed: u64,
    /// Mean think time between a session's submissions.
    pub mean_think: SimDuration,
    /// Completions between reorganizations (0 = never reorganize).
    pub reorg_every: usize,
    /// Drain deadline: how long after a publish old-epoch queries may keep
    /// running before they are killed.
    pub drain: SimDuration,
    /// Per-tenant pending-queue cap (excess submissions are shed).
    pub queue_cap: usize,
    /// Per-tenant in-flight cap (dispatch skips tenants at the cap).
    pub tenant_inflight_cap: usize,
    /// Guard knobs: deadline, memory budget, admission capacity, overload
    /// breaker. `max_inflight` bounds queued + running queries.
    pub guard: GuardConfig,
    /// Arrival-rate multiplier for tenant 0 (the "hog"); 1.0 = no hog.
    pub hog_factor: f64,
}

impl ServeConfig {
    /// A small, fast default: tune per bench/test.
    pub fn standard() -> Self {
        ServeConfig {
            workers: 4,
            sessions: 32,
            tenants: 4,
            queries_per_session: 2,
            seed: 7,
            mean_think: SimDuration::from_secs(30),
            reorg_every: 0,
            drain: SimDuration::from_secs(600),
            queue_cap: 1_000_000,
            tenant_inflight_cap: 1_000_000,
            guard: GuardConfig::disabled(),
            hog_factor: 1.0,
        }
    }
}

/// Per-tenant serving outcomes.
#[derive(Debug, Clone, Default)]
pub struct TenantReport {
    /// Queries the tenant's sessions submitted.
    pub submitted: u64,
    /// Delivered results.
    pub delivered: u64,
    /// Sheds (admission-time, with `retry_after`).
    pub shed: u64,
    /// Classified mid-flight kills.
    pub killed: u64,
    /// p99 latency over the tenant's delivered queries.
    pub p99: SimDuration,
}

/// End-of-run serving report.
#[derive(Debug)]
pub struct ServeReport {
    /// Queries submitted across all sessions.
    pub submitted: u64,
    /// Delivered results (oracle-checked).
    pub delivered: u64,
    /// Delivered results whose rows did not match the serial oracle.
    pub wrong_answers: u64,
    /// Admission-time sheds.
    pub shed: u64,
    /// Classified mid-flight kills (includes drains).
    pub killed: u64,
    /// Kills from epoch-boundary drains (subset of `killed`).
    pub drained: u64,
    /// Losses with no classified failure record (must be zero).
    pub unclassified: u64,
    /// Transparent HV-only fallbacks after DW/transfer fault exhaustion.
    pub hv_fallbacks: u64,
    /// Reorganizations staged and published.
    pub reorgs: u64,
    /// Reorganizations abandoned (recovery cap exceeded under chaos).
    pub reorg_failures: u64,
    /// Final published epoch.
    pub final_epoch: u64,
    /// Sim time from first arrival to last settle.
    pub makespan: SimDuration,
    /// Delivered queries per simulated second.
    pub qps: f64,
    /// Median delivered latency.
    pub p50: SimDuration,
    /// 99th-percentile delivered latency.
    pub p99: SimDuration,
    /// Classified failure records (sheds + kills), tenant/session tagged.
    pub failures: Vec<QueryFailure>,
    /// Per-tenant breakdown.
    pub tenants: BTreeMap<String, TenantReport>,
    /// Distinct base runs of the retained epochs that a dispatch read
    /// (runs a prefetch computed and no dispatch asked for are not counted;
    /// the `serve.base_runs_computed` counter counts those too).
    pub base_runs: usize,
}

#[derive(Debug)]
enum EvKind {
    Arrive(QueryReq),
    Finish { token: u64, version: u32 },
    Publish,
}

#[derive(Debug)]
struct Ev {
    at: SimInstant,
    seq: u64,
    kind: EvKind,
}

impl PartialEq for Ev {
    fn eq(&self, other: &Self) -> bool {
        self.at == other.at && self.seq == other.seq
    }
}
impl Eq for Ev {}
impl PartialOrd for Ev {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for Ev {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        (self.at, self.seq).cmp(&(other.at, other.seq))
    }
}

/// How a dispatched query ends (decided at dispatch; settled at finish).
#[derive(Debug)]
enum Outcome {
    Deliver {
        rows: u64,
        checksum: Checksum,
        base: Arc<BaseRun>,
    },
    Loss {
        kind: &'static str,
        message: String,
        guard_kill: bool,
        drained: bool,
    },
}

impl Outcome {
    fn loss(kind: &'static str, message: String, guard_kill: bool) -> Outcome {
        Outcome::Loss {
            kind,
            message,
            guard_kill,
            drained: false,
        }
    }
}

/// The chaos/guard envelope around one dispatched query's phases.
struct Envelope<'a> {
    guard: &'a QueryGuard,
    rng: &'a mut DetRng,
    /// Service time the query has cost so far.
    service: SimDuration,
}

impl Envelope<'_> {
    /// Strikes `point` (on behalf of `source`) until the phase goes
    /// through, adding what that cost to `service`: the phase itself
    /// (stretched by a delay or stall), retry backoffs, and — a ship
    /// checksums its payload — every ship that arrived corrupt, which goes
    /// again at once. Failures and re-ships count against one retry budget.
    /// A hog transiently charges `(f − 1) × hog_bytes` to the guard.
    /// `Err(None)` is the retry budget spent, which the caller gives its
    /// meaning; `Err(Some(..))` is the loss that ends the query.
    fn phase(
        &mut self,
        point: &'static str,
        source: &'static str,
        cost: SimDuration,
        hog_bytes: u64,
    ) -> Result<(), Option<Outcome>> {
        let ship = point == "transfer.ship";
        let (guard, service) = (self.guard, &mut self.service);
        RetryPolicy::STANDARD.run(self.rng, |turn| {
            match turn {
                Turn::First => {}
                Turn::Waited(backoff) => {
                    *service += backoff;
                    miso_obs::count("store.retries", 1);
                }
                Turn::Now => miso_obs::count("transfer.reshipped", 1),
            }
            let strike = miso_chaos::strike(point, source).map_err(|e| {
                if e.is_transient() {
                    Retry::Backoff(None)
                } else {
                    Retry::Fail(Some(Outcome::loss(e.kind(), e.to_string(), false)))
                }
            })?;
            if ship && strike.corrupt {
                // Paid for, then caught by the checksum on arrival.
                miso_obs::count("integrity.checksum_failures", 1);
                *service += cost;
                return Err(Retry::Now(None));
            }
            strike
                .spike(guard, || hog_bytes)
                .map_err(|e| Some(Outcome::loss(e.kind(), e.to_string(), true)))?;
            *service += strike.slowed(cost);
            Ok(())
        })
    }

    /// Ships `base`'s cuts and runs its DW statement, phase by phase, as
    /// [`Envelope::phase`] reports.
    fn dw_side(&mut self, base: &BaseRun) -> Result<(), Option<Outcome>> {
        for &cut in &base.cut_costs {
            self.phase("transfer.ship", "transfer", cut, 0)?;
        }
        if base.dw_cost > SimDuration::ZERO {
            let hog = base.charged_bytes;
            self.phase("dw.execute", "dw", base.dw_cost, hog)?;
        }
        Ok(())
    }
}

#[derive(Debug)]
struct Inflight {
    req: QueryReq,
    epoch: u64,
    finish_at: SimInstant,
    outcome: Outcome,
    version: u32,
}

struct SessionState {
    rng: DetRng,
    remaining: usize,
    tenant: String,
    lane: Lane,
    think: SimDuration,
}

/// The serving engine. Owns the master multistore copy and the publication
/// cell; drives everything from one deterministic event loop.
pub struct ServeEngine {
    cfg: ServeConfig,
    master: MultistoreSystem,
    master_clock: SimClock,
    cell: SnapshotCell,
    exec: SnapExecutor,
    udfs: UdfRegistry,
    sched: FairScheduler,
    plans: Vec<(String, LogicalPlan)>,
    events: BinaryHeap<Reverse<Ev>>,
    seq: u64,
    epoch: u64,
    busy: usize,
    next_token: u64,
    inflight: HashMap<u64, Inflight>,
    sessions: Vec<SessionState>,
    breaker: CircuitBreaker,
    backoff_rng: DetRng,
    banned: BTreeSet<String>,
    /// The epoch whose fault-free base runs have been prefetched.
    prefetched: Option<u64>,
    /// Per plan index: the serial answer's row count and checksum (empty
    /// until the first delivery computes all of them).
    oracle: Vec<(u64, Checksum)>,
    /// Plan indices of the latest deliveries, at most `history_len`.
    history: Vec<usize>,
    harvest: Vec<miso_core::HarvestCandidate>,
    harvest_seen: BTreeSet<String>,
    staged: Option<EpochSnapshot>,
    reorg_inflight: bool,
    completions_since_reorg: usize,
    // report accumulators
    submitted: u64,
    delivered: u64,
    wrong: u64,
    shed: u64,
    killed: u64,
    drained: u64,
    hv_fallbacks: u64,
    reorgs: u64,
    reorg_failures: u64,
    latencies: Vec<SimDuration>,
    failures: Vec<QueryFailure>,
    tenant_stats: BTreeMap<String, TenantReport>,
    tenant_latencies: BTreeMap<String, Vec<SimDuration>>,
    last_settle: SimInstant,
}

impl ServeEngine {
    /// Builds an engine over a freshly constructed system and workload.
    /// The system's current state becomes epoch 0.
    pub fn new(
        cfg: ServeConfig,
        master: MultistoreSystem,
        plans: Vec<(String, LogicalPlan)>,
        udfs: UdfRegistry,
    ) -> Self {
        assert!(cfg.workers > 0, "need at least one worker slot");
        assert!(!plans.is_empty(), "need a workload");
        let snap0 = EpochSnapshot::of(&master, 0);
        let sched = FairScheduler::new(
            cfg.queue_cap,
            cfg.tenant_inflight_cap,
            cfg.guard.shed_cooldown,
        );
        let exec = SnapExecutor::new(udfs.clone());
        let breaker = CircuitBreaker::new(cfg.guard.shed_threshold, cfg.guard.shed_cooldown);
        let backoff_rng = DetRng::new(cfg.seed ^ 0xB0FF);
        ServeEngine {
            master,
            master_clock: SimClock::new(),
            cell: SnapshotCell::new(snap0),
            exec,
            udfs,
            sched,
            plans,
            events: BinaryHeap::new(),
            seq: 0,
            epoch: 0,
            busy: 0,
            next_token: 0,
            inflight: HashMap::new(),
            sessions: Vec::new(),
            breaker,
            backoff_rng,
            banned: BTreeSet::new(),
            prefetched: None,
            oracle: Vec::new(),
            history: Vec::new(),
            harvest: Vec::new(),
            harvest_seen: BTreeSet::new(),
            staged: None,
            reorg_inflight: false,
            completions_since_reorg: 0,
            submitted: 0,
            delivered: 0,
            wrong: 0,
            shed: 0,
            killed: 0,
            drained: 0,
            hv_fallbacks: 0,
            reorgs: 0,
            reorg_failures: 0,
            latencies: Vec::new(),
            failures: Vec::new(),
            tenant_stats: BTreeMap::new(),
            tenant_latencies: BTreeMap::new(),
            last_settle: SimInstant::EPOCH,
            cfg,
        }
    }

    fn push_event(&mut self, at: SimInstant, kind: EvKind) {
        self.seq += 1;
        self.events.push(Reverse(Ev {
            at,
            seq: self.seq,
            kind,
        }));
    }

    /// Exponential-ish think time with mean `mean` (inverse-CDF over a
    /// deterministic uniform draw, clamped away from zero).
    fn draw_think(rng: &mut DetRng, mean: SimDuration) -> SimDuration {
        let u = rng.f64().clamp(1e-9, 1.0 - 1e-9);
        let factor = -(1.0 - u).ln();
        SimDuration::from_secs_f64((mean.as_secs_f64() * factor).max(1e-6))
    }

    fn seed_sessions(&mut self) {
        let root = DetRng::new(self.cfg.seed);
        for s in 0..self.cfg.sessions {
            let mut rng = root.fork(s);
            let tenant_idx = s % self.cfg.tenants.max(1);
            let tenant = format!("t{tenant_idx}");
            let lane = match tenant_idx % 3 {
                0 => Lane::Normal,
                1 => Lane::High,
                _ => Lane::Low,
            };
            let mut think = self.cfg.mean_think;
            if tenant_idx == 0 && self.cfg.hog_factor > 1.0 {
                think = think / self.cfg.hog_factor;
            }
            let first = SimInstant::EPOCH + Self::draw_think(&mut rng, think);
            self.sessions.push(SessionState {
                rng,
                remaining: self.cfg.queries_per_session,
                tenant,
                lane,
                think,
            });
            self.schedule_arrival(s as usize, first);
        }
    }

    fn schedule_arrival(&mut self, session: usize, at: SimInstant) {
        let state = &mut self.sessions[session];
        if state.remaining == 0 {
            return;
        }
        state.remaining -= 1;
        let plan_idx = state.rng.below(self.plans.len() as u64) as usize;
        let req = QueryReq {
            seq: self.seq, // unique enough: bumped by push_event below
            tenant: state.tenant.clone(),
            session: session as u64,
            lane: state.lane,
            label: self.plans[plan_idx].0.clone(),
            plan_idx,
            arrived: at,
        };
        self.push_event(at, EvKind::Arrive(req));
    }

    /// Runs the simulation to completion and reports.
    pub fn run(mut self) -> ServeReport {
        miso_obs::gauge("serve.epoch", 0.0);
        self.seed_sessions();
        while let Some(Reverse(ev)) = self.events.pop() {
            let now = ev.at;
            match ev.kind {
                EvKind::Arrive(req) => self.on_arrive(req, now),
                EvKind::Finish { token, version } => self.on_finish(token, version, now),
                EvKind::Publish => self.on_publish(now),
            }
        }
        self.report()
    }

    // ---- Arrival / admission ---------------------------------------------

    fn on_arrive(&mut self, req: QueryReq, now: SimInstant) {
        // Schedule the session's next submission first (open-loop within the
        // session's think-time process, independent of this query's fate).
        let session = req.session as usize;
        let think = self.sessions[session].think;
        let next_at = now + Self::draw_think(&mut self.sessions[session].rng, think);
        self.schedule_arrival(session, next_at);

        self.submitted += 1;
        let tstats = self.tenant_stats.entry(req.tenant.clone()).or_default();
        tstats.submitted += 1;

        // Global admission gates, then the fair scheduler's tenant quota.
        let verdict = if self.cfg.guard.enabled && !self.breaker.allow(now) {
            Admission::Shed {
                reason: "overload shedding",
                retry_after: self.cfg.guard.shed_cooldown,
            }
        } else if self.cfg.guard.enabled
            && self.sched.pending() + self.busy >= self.cfg.guard.max_inflight
        {
            Admission::Shed {
                reason: "admission capacity",
                retry_after: self.cfg.guard.shed_cooldown,
            }
        } else {
            self.sched.submit(req.clone())
        };
        match verdict {
            Admission::Queued => {
                miso_obs::count("serve.admitted", 1);
            }
            Admission::Shed {
                reason,
                retry_after,
            } => {
                miso_obs::count("serve.shed", 1);
                self.shed += 1;
                self.tenant_stats.get_mut(&req.tenant).expect("tenant").shed += 1;
                self.failures.push(QueryFailure {
                    tenant: Some(req.tenant.clone()),
                    session: Some(req.session),
                    ..QueryFailure::shed(QueryId(req.seq), &req.label, reason, retry_after, now)
                });
            }
        }
        self.dispatch_ready(now);
    }

    // ---- Dispatch ---------------------------------------------------------

    fn dispatch_ready(&mut self, now: SimInstant) {
        while self.busy < self.cfg.workers {
            let Some(req) = self.sched.pop_next() else {
                break;
            };
            self.busy += 1;
            miso_obs::gauge("serve.inflight", self.busy as f64);
            let (finish_at, outcome) = self.execute_dispatch(&req, now);
            self.next_token += 1;
            let token = self.next_token;
            self.inflight.insert(
                token,
                Inflight {
                    req,
                    epoch: self.epoch,
                    finish_at,
                    outcome,
                    version: 0,
                },
            );
            self.push_event(finish_at, EvKind::Finish { token, version: 0 });
        }
    }

    /// Decides a dispatched query's whole fate: base run + chaos/guard
    /// envelope → (finish instant, outcome). Never panics; every error path
    /// becomes a classified loss.
    fn execute_dispatch(&mut self, req: &QueryReq, now: SimInstant) -> (SimInstant, Outcome) {
        let snap = self.cell.load();
        let (label, raw) = &self.plans[req.plan_idx];
        let deadline = if self.cfg.guard.enabled {
            self.cfg.guard.deadline.map(|d| now + d)
        } else {
            None
        };
        let budget = if self.cfg.guard.enabled {
            self.cfg.guard.mem_budget.as_bytes()
        } else {
            0
        };
        let guard = QueryGuard::new(deadline, budget);
        let mut env = Envelope {
            guard: &guard,
            rng: &mut self.backoff_rng,
            service: SimDuration::ZERO,
        };

        macro_rules! loss {
            ($kind:expr, $msg:expr, $guard_kill:expr) => {
                return (now + env.service, Outcome::loss($kind, $msg, $guard_kill))
            };
        }

        if self.prefetched != Some(snap.epoch) {
            self.prefetched = Some(snap.epoch);
            self.exec.prefetch(&snap, &self.plans);
        }
        let mut base = match self.exec.run(&snap, label, raw, &self.banned, false) {
            Ok(b) => b,
            Err(e) => loss!(e.kind(), e.to_string(), false),
        };
        if let Err(e) = guard.try_charge(base.charged_bytes) {
            loss!(e.kind(), e.to_string(), true);
        }

        if base.hv_cost > SimDuration::ZERO {
            let hog = base.charged_bytes;
            match env.phase("hv.execute", "hv", base.hv_cost, hog) {
                Ok(()) => {}
                Err(Some(lost)) => return (now + env.service, lost),
                Err(None) => {
                    let message = "hv.execute retries exhausted".to_string();
                    loss!("transient", message, false)
                }
            }
        }

        // View reads honour `corrupt` only, as in the serial driver: a
        // detected corruption quarantines the copy for the rest of the epoch
        // and transparently re-plans without it — the query pays for both
        // the torn read and the recomputation, but the answer stays right.
        let mut corrupted = Vec::new();
        for (view, is_hv) in &base.used_views {
            let read = if *is_hv {
                miso_chaos::strike("hv.view_read", "hv")
            } else {
                miso_chaos::strike("dw.view_read", "dw")
            };
            if read.is_ok_and(|strike| strike.corrupt) {
                miso_obs::count("integrity.checksum_failures", 1);
                corrupted.push(view.clone());
            }
        }
        if !corrupted.is_empty() {
            self.banned.extend(corrupted);
            miso_obs::count("query.view_fallback", 1);
            match self.exec.run(&snap, label, raw, &self.banned, false) {
                Ok(b) => {
                    // The original (partial) work plus the full re-plan.
                    env.service += b.service();
                    base = b;
                }
                Err(e) => loss!(e.kind(), e.to_string(), false),
            }
        }

        // Transfer + DW phase; transient exhaustion degrades to HV-only.
        let fell_back = match env.dw_side(&base) {
            Ok(()) => false,
            Err(None) => true,
            Err(Some(lost)) => return (now + env.service, lost),
        };
        if fell_back {
            // DW-side faults exhausted: transparently re-run HV-only, as the
            // serial driver does. Time already spent stays charged.
            miso_obs::count("query.hv_fallback", 1);
            self.hv_fallbacks += 1;
            match self.exec.run(&snap, label, raw, &self.banned, true) {
                Ok(b) => {
                    env.service += b.service();
                    base = b;
                }
                Err(e) => loss!(e.kind(), e.to_string(), false),
            }
        }
        let service = env.service;

        // Deadline gate: the query finishes (and frees its worker) exactly
        // at its deadline instant if the envelope pushed it past.
        if let Some(d) = deadline {
            if now + service > d {
                return (
                    d,
                    Outcome::Loss {
                        kind: "cancelled",
                        message: "query exceeded its deadline".to_string(),
                        guard_kill: true,
                        drained: false,
                    },
                );
            }
        }
        (
            now + service,
            Outcome::Deliver {
                rows: base.result_rows,
                checksum: base.checksum,
                base,
            },
        )
    }

    // ---- Settle -----------------------------------------------------------

    fn on_finish(&mut self, token: u64, version: u32, now: SimInstant) {
        let stale = self
            .inflight
            .get(&token)
            .is_none_or(|inf| inf.version != version);
        if stale {
            return;
        }
        let inf = self.inflight.remove(&token).expect("checked above");
        self.busy -= 1;
        miso_obs::gauge("serve.inflight", self.busy as f64);
        self.sched.finished(&inf.req.tenant);
        self.last_settle = self.last_settle.max(now);
        let tstats = self.tenant_stats.entry(inf.req.tenant.clone()).or_default();
        match inf.outcome {
            Outcome::Deliver {
                rows,
                checksum,
                base,
            } => {
                let (orows, osum) = self.oracle_for(inf.req.plan_idx);
                if rows != orows || checksum != osum {
                    self.wrong += 1;
                    miso_obs::count("serve.wrong_answers", 1);
                }
                self.delivered += 1;
                self.tenant_stats
                    .get_mut(&inf.req.tenant)
                    .expect("tenant")
                    .delivered += 1;
                let latency = now.duration_since(inf.req.arrived);
                self.latencies.push(latency);
                self.tenant_latencies
                    .entry(inf.req.tenant.clone())
                    .or_default()
                    .push(latency);
                self.breaker.record_success();
                for cand in base.harvest.iter() {
                    if self.harvest_seen.insert(cand.def.name.clone()) {
                        self.harvest.push(cand.clone());
                    }
                }
                self.history.push(inf.req.plan_idx);
                let window = self.master.config().history_len.max(1);
                if self.history.len() > window {
                    let excess = self.history.len() - window;
                    self.history.drain(..excess);
                }
                self.completions_since_reorg += 1;
            }
            Outcome::Loss {
                kind,
                message,
                guard_kill,
                drained,
            } => {
                self.killed += 1;
                tstats.killed += 1;
                if drained {
                    self.drained += 1;
                    miso_obs::count("serve.drained", 1);
                }
                if guard_kill && self.breaker.record_failure(now) {
                    miso_obs::count("guard.overload_opened", 1);
                }
                let req = &inf.req;
                self.failures.push(QueryFailure {
                    tenant: Some(req.tenant.clone()),
                    session: Some(req.session),
                    ..QueryFailure::killed(QueryId(req.seq), &req.label, kind, message, now)
                });
            }
        }
        self.maybe_reorg(now);
        self.dispatch_ready(now);
    }

    fn oracle_for(&mut self, plan_idx: usize) -> (u64, Checksum) {
        if self.oracle.is_empty() {
            self.oracle = self.oracle_answers();
        }
        self.oracle[plan_idx]
    }

    /// Every template's oracle answer, as one pool batch. The oracle is the
    /// raw plan over base logs only — no views, no split, no faults: the
    /// answer any single serial client would get. Serving never appends to
    /// a log, so the master's logs at the first delivery are the logs of
    /// every epoch.
    fn oracle_answers(&self) -> Vec<(u64, Checksum)> {
        // An oracle failure would itself be a bug; make it impossible to
        // confuse with a real match by using an empty sentinel.
        let failed = (u64::MAX, Checksum(0));
        let (hv, plans, udfs) = (&self.master.hv, &self.plans, &self.udfs);
        let mut span = miso_obs::span("serve.oracle");
        if span.is_active() {
            span.push_field("templates", miso_obs::FieldValue::U64(plans.len() as u64));
        }
        let was_on = miso_chaos::suspend();
        let answers = pool::run_batch(plans.len(), |i| {
            let run = hv.execute(&plans[i].1, None, udfs);
            run.and_then(|r| miso_core::split::answer(Some(&r), None))
                .unwrap_or(failed)
        });
        miso_chaos::resume(was_on);
        answers.unwrap_or_else(|_| vec![failed; plans.len()])
    }

    // ---- Reorg / publish --------------------------------------------------

    fn maybe_reorg(&mut self, now: SimInstant) {
        if self.cfg.reorg_every == 0
            || self.reorg_inflight
            || self.completions_since_reorg < self.cfg.reorg_every
        {
            return;
        }
        self.completions_since_reorg = 0;
        self.reorg_inflight = true;
        // Fold harvested by-products into the master so the tuner can place
        // them; queries keep reading the published snapshot meanwhile.
        for cand in self.harvest.drain(..) {
            if !self.master.catalog.contains(&cand.def.name) {
                self.master.install_harvest(cand);
            }
        }
        let delta = now.duration_since(self.master_clock.now());
        self.master_clock.advance(delta);
        let window: Vec<LogicalPlan> = (self.history.iter())
            .map(|&i| self.plans[i].1.clone())
            .collect();
        match self.master.reorg_now(&window, &mut self.master_clock) {
            Ok(rec) => {
                self.staged = Some(EpochSnapshot::of(&self.master, self.epoch + 1));
                self.push_event(now + rec.duration, EvKind::Publish);
            }
            Err(e) => {
                // The journaled recovery loop gave up (possible only under a
                // sustained chaos storm): stay on the old epoch, classified.
                miso_obs::count("serve.reorg_failed", 1);
                let _ = e;
                self.reorg_failures += 1;
                self.reorg_inflight = false;
            }
        }
    }

    fn on_publish(&mut self, now: SimInstant) {
        self.reorg_inflight = false;
        let Some(snap) = self.staged.take() else {
            return;
        };
        let new_epoch = snap.epoch;
        self.cell.publish(snap);
        self.epoch = new_epoch;
        self.reorgs += 1;
        miso_obs::gauge("serve.epoch", new_epoch as f64);
        // Epoch-local quarantines die with the epoch (the reorg either
        // repaired or dropped the corrupted copies).
        self.banned.clear();
        self.exec.retire_before(new_epoch);
        // Bounded drain: old-epoch stragglers get until `drain` past the
        // publish, then are killed with a classified loss.
        let drain_by = now + self.cfg.drain;
        let mut to_kill: Vec<u64> = Vec::new();
        for (&token, inf) in self.inflight.iter() {
            if inf.epoch < new_epoch && inf.finish_at > drain_by {
                to_kill.push(token);
            }
        }
        to_kill.sort_unstable();
        for token in to_kill {
            let inf = self.inflight.get_mut(&token).expect("live token");
            inf.version += 1;
            inf.finish_at = drain_by;
            inf.outcome = Outcome::Loss {
                kind: "cancelled",
                message: format!("drained at epoch {new_epoch} boundary"),
                guard_kill: false,
                drained: true,
            };
            let version = inf.version;
            self.push_event(drain_by, EvKind::Finish { token, version });
        }
        self.dispatch_ready(now);
    }

    // ---- Report -----------------------------------------------------------

    fn report(mut self) -> ServeReport {
        fn pct(sorted: &[SimDuration], p: f64) -> SimDuration {
            if sorted.is_empty() {
                return SimDuration::ZERO;
            }
            let idx = ((sorted.len() as f64 - 1.0) * p).round() as usize;
            sorted[idx.min(sorted.len() - 1)]
        }
        self.latencies.sort_unstable();
        for (tenant, lats) in self.tenant_latencies.iter_mut() {
            lats.sort_unstable();
            if let Some(stats) = self.tenant_stats.get_mut(tenant) {
                stats.p99 = pct(lats, 0.99);
            }
        }
        let makespan = self.last_settle.duration_since(SimInstant::EPOCH);
        let qps = if makespan > SimDuration::ZERO {
            self.delivered as f64 / makespan.as_secs_f64()
        } else {
            0.0
        };
        // Every loss must carry a classified failure record.
        let losses = self.shed + self.killed;
        let unclassified = losses.saturating_sub(self.failures.len() as u64);
        ServeReport {
            submitted: self.submitted,
            delivered: self.delivered,
            wrong_answers: self.wrong,
            shed: self.shed,
            killed: self.killed,
            drained: self.drained,
            unclassified,
            hv_fallbacks: self.hv_fallbacks,
            reorgs: self.reorgs,
            reorg_failures: self.reorg_failures,
            final_epoch: self.epoch,
            makespan,
            qps,
            p50: pct(&self.latencies, 0.50),
            p99: pct(&self.latencies, 0.99),
            failures: self.failures,
            tenants: self.tenant_stats,
            base_runs: self.exec.runs_read(),
        }
    }
}
