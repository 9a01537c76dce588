//! The only module that calls into the program.
//!
//! Everything the benchmark asks of the multistore goes through the
//! functions and re-exported types below, so a refactor that changes a
//! public signature knows exactly which file a preceding benchmark change
//! must re-point. Only `pub` items of the program's crates are used: no
//! environment switch is read or set, and no `MISO_*` variable is touched
//! (the worker pool keeps its default, `available_parallelism`).

use std::collections::{BTreeSet, HashMap, HashSet};
use std::sync::Arc;

pub use miso_common::{Budgets, SimDuration};
pub use miso_core::system::WorkloadQuery;
pub use miso_core::{ExperimentResult, GrowthConfig, MaintAction, MultistoreSystem};
pub use miso_data::logs::Corpus;
pub use miso_obs::MetricsSnapshot;
pub use miso_optimizer::optimize::{Design, PlannedQuery};
pub use miso_plan::LogicalPlan;
pub use miso_serve::ServeReport;

use miso_common::ids::NodeId;
use miso_common::{ByteSize, SimClock};
use miso_core::{
    GuardConfig, MaintenancePolicy, MaintenanceReport, MisoTuner, NewDesign, SystemConfig,
    TunerConfig, Variant,
};
use miso_data::logs::{LogKind, LogsConfig};
use miso_data::{Checksum, Row};
use miso_optimizer::optimize::OptimizerEnv;
use miso_plan::estimate::MapStats;
use miso_serve::{EpochSnapshot, ServeConfig, SnapExecutor};
use miso_workload::{compile_workload, standard_udfs, workload_catalog};

/// `LogsConfig::experiment()` with every cardinality multiplied by `scale`
/// (scale 1 ≈ 12 MB of JSON) and the benchmark's seed.
pub fn logs_config(scale: f64, seed: u64) -> LogsConfig {
    let base = LogsConfig::experiment();
    let times = |n: u64| (n as f64 * scale).round() as u64;
    LogsConfig {
        users: times(base.users),
        venues: times(base.venues),
        tweets: times(base.tweets as u64) as usize,
        checkins: times(base.checkins as u64) as usize,
        landmarks: times(base.landmarks as u64) as usize,
        seed,
    }
}

pub fn generate_corpus(cfg: &LogsConfig) -> Corpus {
    Corpus::generate(cfg)
}

/// Compiles the 32 HiveQL workload texts.
pub fn compile_queries() -> Vec<WorkloadQuery> {
    compile_workload(&workload_catalog()).expect("the standard workload compiles")
}

/// The evaluation harness's budget convention: B_h = 2 × corpus,
/// B_d = 2 × 10 % corpus, B_t = 2 % corpus, 8 KiB discretisation.
pub fn harness_budgets(corpus: &Corpus) -> Budgets {
    let hv_base = corpus.total_size();
    let dw_base = hv_base.scale(0.1);
    Budgets::new(hv_base.scale(2.0), dw_base.scale(2.0), hv_base.scale(0.02))
        .with_discretization(ByteSize::from_kib(8))
}

/// A fresh `paper_default` system (columnar on, IVM on, guards, chaos and
/// audit off), optionally with a streaming-growth schedule.
pub fn new_system(
    corpus: &Corpus,
    budgets: Budgets,
    growth: Option<GrowthConfig>,
) -> MultistoreSystem {
    let mut config = SystemConfig::paper_default(budgets);
    config.growth = growth;
    MultistoreSystem::new(corpus, workload_catalog(), standard_udfs(), config)
}

/// `Refresh`-policy growth of the twitter log, `records` per reorg boundary.
pub fn twitter_growth(logs: &LogsConfig, records: usize) -> GrowthConfig {
    GrowthConfig {
        kind: LogKind::Twitter,
        records_per_epoch: records,
        policy: MaintenancePolicy::Refresh,
        logs: logs.clone(),
    }
}

/// MS-MISO over `queries` in one call.
pub fn run_stream(sys: &mut MultistoreSystem, queries: &[WorkloadQuery]) -> ExperimentResult {
    sys.run_workload(Variant::MsMiso, queries)
        .expect("the MS-MISO stream runs")
}

/// One growth step exactly as the stream driver takes it at reorg
/// boundary `batch`.
pub fn grow(sys: &mut MultistoreSystem, growth: &GrowthConfig, batch: u64) -> MaintenanceReport {
    let delta =
        miso_data::Delta::generated(&growth.logs, growth.kind, batch, growth.records_per_epoch);
    sys.grow(&delta, growth.policy, &mut SimClock::new())
        .expect("growth step applies")
}

/// One reorganization phase over `window`; returns its simulated duration.
pub fn reorg_now(sys: &mut MultistoreSystem, window: &[LogicalPlan]) -> SimDuration {
    sys.reorg_now(window, &mut SimClock::new())
        .expect("reorganization runs")
        .duration
}

/// `(reorg_every, history_len)` of the system's configuration.
pub fn reorg_cadence(sys: &MultistoreSystem) -> (usize, usize) {
    (sys.config().reorg_every, sys.config().history_len)
}

/// A query's answer: its row count and order-insensitive row checksum.
#[derive(Clone, Copy, PartialEq, Eq)]
pub struct Answer {
    pub rows: u64,
    pub checksum: Checksum,
}

impl Answer {
    fn of(rows: &[Row]) -> Answer {
        Answer {
            rows: rows.len() as u64,
            checksum: miso_data::checksum::checksum_rows(rows),
        }
    }
}

/// The oracle answer of `raw`: executed in HV on the base logs, no views.
pub fn oracle_answer(sys: &MultistoreSystem, raw: &LogicalPlan) -> Answer {
    let run = sys
        .hv
        .execute(raw, None, sys.udf_registry())
        .expect("oracle run on raw logs");
    Answer::of(run.execution.root_rows().expect("oracle root rows"))
}

pub fn build_stats(sys: &MultistoreSystem) -> MapStats {
    sys.build_stats()
}

pub fn current_design(sys: &MultistoreSystem) -> Design {
    sys.current_design()
}

pub fn optimize(
    sys: &MultistoreSystem,
    raw: &LogicalPlan,
    design: &Design,
    stats: &MapStats,
) -> PlannedQuery {
    let env = OptimizerEnv {
        stats,
        hv: &sys.hv.cost_model,
        dw: &sys.dw.cost_model,
        transfer: sys.transfer_model(),
        catalog: Some(&sys.catalog),
    };
    miso_optimizer::optimize::optimize(raw, design, &env).expect("a feasible plan exists")
}

/// The HV and DW node sets of a planned split.
pub fn split_sets(planned: &PlannedQuery) -> (HashSet<NodeId>, HashSet<NodeId>) {
    let hv: HashSet<NodeId> = planned.split.hv_nodes().iter().copied().collect();
    let dw = planned
        .plan
        .nodes()
        .iter()
        .map(|n| n.id)
        .filter(|id| !hv.contains(id))
        .collect();
    (hv, dw)
}

/// What the HV side of a split hands on: the cut working sets and, when
/// the plan ran entirely in HV, the root answer.
pub struct HvSide {
    pub provided: HashMap<NodeId, Arc<Vec<Row>>>,
    pub root: Option<Answer>,
}

pub fn hv_execute(
    sys: &MultistoreSystem,
    planned: &PlannedQuery,
    hv_set: &HashSet<NodeId>,
) -> HvSide {
    let plan = &planned.plan;
    let run = sys
        .hv
        .execute(plan, Some(hv_set), sys.udf_registry())
        .expect("HV side runs");
    let provided = planned
        .split
        .cut_nodes(plan)
        .into_iter()
        .map(|cut| (cut, run.execution.output(cut).clone()))
        .collect();
    let root = planned
        .split
        .is_hv_only(plan)
        .then(|| Answer::of(run.execution.root_rows().expect("HV root rows")));
    HvSide { provided, root }
}

pub fn dw_execute(
    sys: &MultistoreSystem,
    planned: &PlannedQuery,
    dw_set: &HashSet<NodeId>,
    provided: HashMap<NodeId, Arc<Vec<Row>>>,
) -> Answer {
    let run = sys
        .dw
        .execute(&planned.plan, Some(dw_set), provided, sys.udf_registry())
        .expect("DW side runs");
    Answer::of(run.execution.root_rows().expect("DW root rows"))
}

/// View rewriting over everything the design holds; returns views used.
pub fn rewrite_with_catalog(sys: &MultistoreSystem, raw: &LogicalPlan, design: &Design) -> usize {
    miso_views::rewrite_with_catalog(raw, &design.all_views(), &sys.catalog)
        .used
        .len()
}

pub fn enumerate_splits(plan: &LogicalPlan) -> usize {
    miso_plan::split::enumerate_splits(plan).len()
}

/// `MisoTuner::tune` against the system's current state, as a reorg would
/// call it (without the growth schedule's maintenance-cost term).
pub fn tune(sys: &MultistoreSystem, window: &[LogicalPlan]) -> NewDesign {
    let cfg = sys.config();
    let tuner = MisoTuner::new(TunerConfig {
        budgets: cfg.budgets,
        history_len: cfg.history_len,
        epoch_len: cfg.epoch_len,
        decay: cfg.decay,
        doi_threshold: cfg.doi_threshold,
    });
    let hv: BTreeSet<String> = sys.hv.view_names().into_iter().collect();
    let dw: BTreeSet<String> = sys.dw.view_names().into_iter().collect();
    tuner.tune(
        &hv,
        &dw,
        &sys.catalog,
        window,
        &sys.build_stats(),
        &sys.hv.cost_model,
        &sys.dw.cost_model,
        sys.transfer_model(),
    )
}

pub fn catalog_size(sys: &MultistoreSystem) -> usize {
    sys.catalog.len()
}

/// One `parse_json` pass over every line; returns bytes parsed.
pub fn parse_json_pass(lines: &[String]) -> u64 {
    let mut bytes = 0u64;
    for line in lines {
        let value = miso_data::json::parse_json(line).expect("generated lines are valid JSON");
        std::hint::black_box(&value);
        bytes += line.len() as u64 + 1;
    }
    bytes
}

/// `checksum_rows` over every view either store holds; returns bytes
/// covered (the stores' own size accounting).
pub fn checksum_views_pass(sys: &MultistoreSystem) -> u64 {
    let mut bytes = 0u64;
    for name in sys.hv.view_names() {
        let rows = sys.hv.view_rows(&name).expect("listed HV view");
        std::hint::black_box(miso_data::checksum::checksum_rows(&rows));
        bytes += sys.hv.view_size(&name).expect("listed HV view").as_bytes();
    }
    for name in sys.dw.view_names() {
        let rows = sys.dw.view_rows_arc(&name).expect("listed DW view");
        std::hint::black_box(miso_data::checksum::checksum_rows(&rows));
        bytes += sys.dw.view_size(&name).expect("listed DW view").as_bytes();
    }
    bytes
}

/// An immutable image of the system's stores and catalog.
pub fn snapshot(sys: &MultistoreSystem, epoch: u64) -> EpochSnapshot {
    EpochSnapshot {
        epoch,
        hv: sys.hv.clone(),
        dw: sys.dw.clone(),
        catalog: sys.catalog.clone(),
        transfer: sys.transfer_model().clone(),
    }
}

pub fn snap_executor() -> SnapExecutor {
    SnapExecutor::new(standard_udfs())
}

/// The read-only split pipeline's answer for `raw` on `snap`, plus whether
/// the chosen plan read at least one view.
pub fn snap_run(
    exec: &mut SnapExecutor,
    snap: &EpochSnapshot,
    label: &str,
    raw: &LogicalPlan,
) -> (Answer, bool) {
    let run = exec
        .run(snap, label, raw, &BTreeSet::new(), false)
        .expect("snapshot run");
    let answer = Answer {
        rows: run.result_rows,
        checksum: run.checksum,
    };
    (answer, !run.used_views.is_empty())
}

/// The `serve_warm` configuration: 8 simulated workers, 4 tenants, two
/// queries per session, 1 s mean think time, an online reorg every 256
/// completions, guards off, and a drain long enough that nothing is killed.
/// The arrival trace (think times, which template each session asks for)
/// is part of the workload, not of the seeded inputs: its seed is fixed,
/// because the makespan moves by 15 % between arrival traces and by 0.2 %
/// between corpora, and `sim_s` is there to catch a worse design.
pub fn serve_config(sessions: u64) -> ServeConfig {
    ServeConfig {
        workers: 8,
        sessions,
        tenants: 4,
        queries_per_session: 2,
        seed: 0x5EED_2014,
        mean_think: SimDuration::from_secs(1),
        reorg_every: 256,
        drain: SimDuration::from_secs(1_000_000_000),
        guard: GuardConfig::disabled(),
        ..ServeConfig::standard()
    }
}

pub fn serve_run(
    cfg: ServeConfig,
    master: MultistoreSystem,
    queries: &[WorkloadQuery],
) -> ServeReport {
    miso_serve::ServeEngine::new(cfg, master, queries.to_vec(), standard_udfs()).run()
}

/// Worker-pool size the program resolved for itself.
pub fn pool_threads() -> usize {
    miso_common::pool::threads()
}

/// Turns `miso_obs` on with an in-memory ring sink and clears its metrics;
/// the returned sink counts the events recorded.
pub fn obs_ring_on(capacity: usize) -> Arc<miso_obs::RingSink> {
    miso_obs::init(miso_obs::ObsConfig::ring(capacity));
    let sink = Arc::new(miso_obs::RingSink::new(capacity));
    miso_obs::set_sink(sink.clone());
    miso_obs::reset_metrics();
    sink
}

pub fn obs_off() {
    miso_obs::init(miso_obs::ObsConfig::disabled());
}

pub fn obs_snapshot() -> MetricsSnapshot {
    miso_obs::snapshot()
}
