//! End-to-end incremental-maintenance guarantees, exercised through the
//! public `MultistoreSystem` API:
//!
//! * delta-applied views are row- and **checksum-identical** to fully
//!   rebuilt views (the incrementally re-stamped digest equals a
//!   from-scratch `checksum_rows` over the stored rows);
//! * results and checksums are the same whether deltas fold or every
//!   refresh rebuilds (`ivm_max_delta_frac = 0.0`) — on every maintainable
//!   shape, a view over a view included, the one side folding and the
//!   other not — and under the worker-pool thread count;
//! * over the whole 32-template stream, after every growth batch, every
//!   catalog view — float aggregates and views over views included — holds
//!   exactly the rows a from-scratch run over the grown logs computes, at
//!   one worker and eight;
//! * a corrupted view quarantines through the integrity path, appends
//!   defer its rebuild (reason `Quarantined`, no resurrection behind the
//!   auditor's back), the reorg repair path recomputes it over the grown
//!   log, and maintenance then resumes folding deltas;
//! * a growth schedule threaded through `run_stream` grows the corpus
//!   between epochs and surfaces per-batch maintenance reports.

use miso_common::{pool, Budgets, ByteSize, SimClock};
use miso_core::{
    AuditConfig, GrowthConfig, MaintAction, MaintenancePolicy, MultistoreSystem, SystemConfig,
    Variant,
};
use miso_data::checksum_rows;
use miso_data::logs::{Corpus, LogKind, LogsConfig};
use miso_data::Delta;
use miso_exec::engine::DataSource;
use miso_lang::compile;
use miso_plan::{LogicalPlan, Operator};
use miso_views::{analyze_maintenance, FullReason, MaintPlan, ViewChange};
use miso_workload::{compile_workload, standard_udfs, workload_catalog};
use std::collections::BTreeMap;
use std::sync::{Mutex, MutexGuard};

/// The pool width is process-global: every test here takes this lock.
fn globals_lock() -> MutexGuard<'static, ()> {
    static LOCK: Mutex<()> = Mutex::new(());
    LOCK.lock().unwrap_or_else(|e| e.into_inner())
}

fn budgets() -> Budgets {
    Budgets::new(
        ByteSize::from_mib(64),
        ByteSize::from_mib(8),
        ByteSize::from_mib(4),
    )
    .with_discretization(ByteSize::from_kib(16))
}

fn system_with(corpus: &Corpus, config: SystemConfig) -> MultistoreSystem {
    MultistoreSystem::new(corpus, workload_catalog(), standard_udfs(), config)
}

const FILTERED: &str =
    "SELECT t.tweet_id AS id, t.city AS city FROM twitter t WHERE t.followers > 10";
const GROUPED: &str = "SELECT t.city AS c, COUNT(*) AS n, SUM(t.followers) AS s FROM twitter t \
                       WHERE t.followers > 10 GROUP BY t.city";

/// Each maintainable view shape, as the queries whose opportunistic run
/// leaves its views.
const SHAPES: [(&str, &[&str]); 6] = [
    ("filter", &[FILTERED]),
    (
        "project",
        &["SELECT t.user_id AS u, t.followers + 1 AS f1 FROM twitter t WHERE t.tweet_id >= 0"],
    ),
    ("aggregate", &[GROUPED]),
    (
        "join+aggregate",
        &["SELECT f.city AS c, COUNT(*) AS n FROM twitter t \
           JOIN foursquare f ON t.user_id = f.user_id WHERE t.followers > 1 GROUP BY f.city"],
    ),
    (
        "float-aggregate",
        &[
            "SELECT t.city AS c, AVG(t.sentiment) AS mood, SUM(t.sentiment) AS s \
           FROM twitter t WHERE t.followers > 10 GROUP BY t.city",
        ],
    ),
    // The second query is answered from the first one's filter view, so the
    // aggregate it leaves behind scans that view, not the log.
    (
        "derived-view",
        &[
            "SELECT t.city AS c, COUNT(*) AS n FROM twitter t \
             WHERE t.followers > 10 GROUP BY t.city",
            "SELECT t.city AS c, MAX(t.followers) AS top FROM twitter t \
             WHERE t.followers > 10 GROUP BY t.city",
        ],
    ),
];

fn compiled<'a>(
    labelled: impl IntoIterator<Item = (&'a str, &'a str)>,
) -> Vec<(String, LogicalPlan)> {
    let catalog = workload_catalog();
    labelled
        .into_iter()
        .map(|(label, sql)| (label.to_string(), compile(sql, &catalog).unwrap()))
        .collect()
}

fn queries() -> Vec<(String, LogicalPlan)> {
    compiled([("filtered", FILTERED), ("grouped", GROUPED)])
}

/// Creates views with `queries`, appends `batches` delta batches under
/// Refresh, and returns the per-view catalog checksums afterwards and how
/// many refreshes folded a delta.
fn grow_and_fingerprint(
    cfg: &LogsConfig,
    config: SystemConfig,
    queries: &[(String, LogicalPlan)],
    batches: u64,
) -> (MultistoreSystem, BTreeMap<String, u64>, usize) {
    let corpus = Corpus::generate(cfg);
    let mut sys = system_with(&corpus, config);
    sys.run_workload(Variant::HvOp, queries).unwrap();
    let mut clock = SimClock::new();
    let mut folds = 0;
    for batch in 0..batches {
        let delta = Delta::generated(cfg, LogKind::Twitter, batch, 80);
        let report = sys
            .grow(&delta, MaintenancePolicy::Refresh, &mut clock)
            .unwrap();
        let folded = report
            .decisions
            .iter()
            .filter(|d| d.action == MaintAction::Delta);
        folds += folded.count();
    }
    let sums = sys
        .catalog
        .defs()
        .iter()
        .filter_map(|d| d.checksum.map(|c| (d.name.clone(), c.0)))
        .collect();
    (sys, sums, folds)
}

#[test]
fn delta_applied_checksum_equals_full_rebuild_checksum() {
    let _globals = globals_lock();
    let cfg = LogsConfig::tiny();
    let config = SystemConfig::paper_default(budgets());
    let (sys, _, _) = grow_and_fingerprint(&cfg, config, &queries(), 3);
    // After warm-state folds, every view's catalog checksum — stamped
    // incrementally through the running digest — must equal a from-scratch
    // checksum of the rows actually stored.
    let mut checked = 0;
    for def in sys.catalog.defs() {
        let rows = sys
            .hv
            .view_rows(&def.name)
            .or_else(|| sys.dw.view_rows_arc(&def.name))
            .expect("maintained view is resident");
        assert_eq!(
            def.checksum,
            Some(checksum_rows(&rows)),
            "{}: incremental stamp diverged from full rebuild",
            def.name
        );
        checked += 1;
    }
    assert!(checked > 0, "no views were maintained");
}

/// Per view shape, and for the filter and aggregate queries together: the
/// folding side applies deltas, the rebuild side none, and both end with
/// the same views, checksums and answers.
#[test]
fn ivm_toggle_does_not_change_results_or_checksums() {
    let _globals = globals_lock();
    let cfg = LogsConfig::tiny();
    let on = SystemConfig::paper_default(budgets());
    assert!(on.ivm_max_delta_frac > 0.0, "delta folding is the default");
    // The always-rebuild reference: every delta is past the size policy.
    let mut off = on.clone();
    off.ivm_max_delta_frac = 0.0;
    let shapes =
        SHAPES.map(|(shape, sqls)| (shape, compiled(sqls.iter().map(|sql| (shape, *sql)))));
    for (shape, qs) in [("filter, aggregate", queries())].into_iter().chain(shapes) {
        let (mut sys_on, sums_on, folds_on) = grow_and_fingerprint(&cfg, on.clone(), &qs, 3);
        let (mut sys_off, sums_off, folds_off) = grow_and_fingerprint(&cfg, off.clone(), &qs, 3);
        assert!(!sums_on.is_empty(), "{shape}: no views were maintained");
        assert_eq!(
            sums_on, sums_off,
            "{shape}: checksums diverge between fold and rebuild"
        );
        assert!(folds_on > 0, "{shape}: the folding side applied no delta");
        assert_eq!(folds_off, 0, "{shape}: the rebuild side folded a delta");
        if shape == "derived-view" {
            let defs = sys_on.catalog.defs();
            let over_views = defs.iter().any(|d| !d.plan.scanned_views().is_empty());
            assert!(over_views, "{shape}: no view over a view was left");
        }
        // And the answers over the maintained views agree.
        let r_on = sys_on.run_workload(Variant::HvOp, &qs).unwrap();
        let r_off = sys_off.run_workload(Variant::HvOp, &qs).unwrap();
        for (a, b) in r_on.records.iter().zip(&r_off.records) {
            assert_eq!(a.result_rows, b.result_rows, "{shape}: {}", a.label);
        }
    }
}

#[test]
fn thread_count_does_not_change_maintained_views() {
    let _globals = globals_lock();
    let cfg = LogsConfig::tiny();
    let config = SystemConfig::paper_default(budgets());
    let before = pool::threads();
    pool::set_threads(1);
    let (_, serial, _) = grow_and_fingerprint(&cfg, config.clone(), &queries(), 3);
    pool::set_threads(8);
    let (_, parallel, _) = grow_and_fingerprint(&cfg, config, &queries(), 3);
    pool::set_threads(before);
    assert_eq!(
        serial, parallel,
        "maintained view checksums must be thread-count invariant"
    );
}

#[test]
fn corruption_quarantines_then_reorg_repairs_and_folding_resumes() {
    let _globals = globals_lock();
    let cfg = LogsConfig::tiny();
    let corpus = Corpus::generate(&cfg);
    let mut sys = system_with(&corpus, SystemConfig::paper_default(budgets()));
    let qs = queries();
    sys.run_workload(Variant::MsMiso, &qs).unwrap();
    let mut clock = SimClock::new();
    // Warm the fold state.
    for batch in 0..2u64 {
        let delta = Delta::generated(&cfg, LogKind::Twitter, batch, 60);
        sys.grow(&delta, MaintenancePolicy::Refresh, &mut clock)
            .unwrap();
    }

    // Corrupt one maintained HV view; the audit scrub must quarantine it.
    let victim = sys
        .hv
        .view_names()
        .into_iter()
        .find(|v| sys.catalog.contains(v))
        .expect("an HV-resident catalog view exists");
    assert!(sys.hv.views.corrupt(&victim));
    let report = sys
        .audit_pass(&AuditConfig::strict(ByteSize::from_mib(64)))
        .unwrap();
    assert_eq!(report.quarantined, vec![victim.clone()]);
    assert!(sys.catalog.is_quarantined(&victim));

    // Appends while quarantined: the rebuild is deferred (reported, not
    // resurrected — the store must stay clean for the auditor).
    let delta = Delta::generated(&cfg, LogKind::Twitter, 2, 60);
    let mreport = sys
        .grow(&delta, MaintenancePolicy::Refresh, &mut clock)
        .unwrap();
    let decision = mreport
        .decisions
        .iter()
        .find(|d| d.view == victim)
        .expect("quarantined view is still an affected view");
    assert_eq!(decision.reason, Some(FullReason::Quarantined));
    assert!(
        !sys.hv.views.contains(&victim),
        "must not resurrect behind audit"
    );
    let audit_again = sys
        .audit_pass(&AuditConfig::strict(ByteSize::from_mib(64)))
        .unwrap();
    assert!(audit_again.violations.is_empty());

    // The existing repair path: reorganizations offer quarantined views to
    // the tuner and recompute the keepers over the (grown) base log.
    sys.run_workload(Variant::MsMiso, &qs).unwrap();
    assert!(
        !sys.catalog.is_quarantined(&victim),
        "reorg must repair or drop the quarantined view"
    );
    if let Some(def) = sys.catalog.get(&victim) {
        let rows = sys
            .hv
            .view_rows(&victim)
            .or_else(|| sys.dw.view_rows_arc(&victim))
            .expect("repaired view is resident");
        assert_eq!(def.checksum, Some(checksum_rows(&rows)));
    }

    // Maintenance resumes: the next appends fold deltas again.
    let mut folded = 0;
    for batch in 3..5u64 {
        let delta = Delta::generated(&cfg, LogKind::Twitter, batch, 60);
        let r = sys
            .grow(&delta, MaintenancePolicy::Refresh, &mut clock)
            .unwrap();
        folded += r
            .decisions
            .iter()
            .filter(|d| d.action == MaintAction::Delta)
            .count();
    }
    assert!(folded > 0, "delta folding must resume after repair");
}

#[test]
fn growth_schedule_feeds_the_stream() {
    let _globals = globals_lock();
    let cfg = LogsConfig::tiny();
    let corpus = Corpus::generate(&cfg);
    let mut config = SystemConfig::paper_default(budgets());
    config.growth = Some(miso_core::GrowthConfig {
        kind: LogKind::Twitter,
        records_per_epoch: 100,
        policy: MaintenancePolicy::Refresh,
        logs: cfg.clone(),
    });
    let mut sys = system_with(&corpus, config);
    // 8 queries at reorg_every=3 → growth steps before queries 3 and 6.
    let qs: Vec<_> = (0..4).flat_map(|_| queries()).collect();
    let result = sys.run_workload(Variant::MsMiso, &qs).unwrap();
    assert_eq!(result.maintenance.len(), 2, "one report per growth step");
    let grown: u64 = result
        .maintenance
        .iter()
        .map(|r| r.appended.as_bytes())
        .sum();
    assert!(grown > 0);
    assert_eq!(
        sys.hv.log_lines("twitter").unwrap().len(),
        cfg.tweets + 200,
        "corpus grew by records_per_epoch per boundary"
    );

    // Identical run without growth: corpus untouched, no reports.
    let mut baseline = system_with(&corpus, SystemConfig::paper_default(budgets()));
    let base_result = baseline.run_workload(Variant::MsMiso, &qs).unwrap();
    assert!(base_result.maintenance.is_empty());
    assert_eq!(baseline.hv.log_lines("twitter").unwrap().len(), cfg.tweets);
}

/// The 32-template MS-MISO stream under the benchmark's growth schedule
/// (the twitter log grows 2 % before each of 10 reorganizations, `Refresh`):
/// after every batch, every view in the catalog — whatever query harvested
/// it, float aggregates and views over views included — holds exactly the
/// rows, by float bit pattern, and carries exactly the checksum of its
/// definition run from scratch over the grown logs. One worker and eight:
/// the first run is checked against the recompute, the second must stamp
/// every view, batch by batch, as the first did.
#[test]
fn every_view_equals_a_from_scratch_recompute_after_every_batch() {
    let _globals = globals_lock();
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
    let stream = compile_workload(&workload_catalog()).unwrap();
    let growth = GrowthConfig {
        kind: LogKind::Twitter,
        records_per_epoch: logs.tweets / 50,
        policy: MaintenancePolicy::Refresh,
        logs: logs.clone(),
    };
    let mut per_mode: Vec<Vec<(String, u64)>> = Vec::new();
    let before = pool::threads();
    for threads in [1, 8] {
        let first = per_mode.is_empty();
        pool::set_threads(threads);
        let mut config = SystemConfig::paper_default(budgets);
        config.growth = Some(growth.clone());
        let (every, history_len) = (config.reorg_every, config.history_len);
        let mut sys = system_with(&corpus, config);
        let mut history: Vec<LogicalPlan> = Vec::new();
        let mut stamps: Vec<(String, u64)> = Vec::new();
        let (mut folded, mut float_views, mut over_views) = (0, 0, 0);
        for (q, query) in stream.iter().enumerate() {
            if q > 0 && q % every == 0 {
                let batch = (q / every) as u64;
                let delta = Delta::generated(&logs, LogKind::Twitter, batch, logs.tweets / 50);
                let report = sys
                    .grow(&delta, MaintenancePolicy::Refresh, &mut SimClock::new())
                    .unwrap();
                for d in &report.decisions {
                    folded += usize::from(d.action == MaintAction::Delta);
                    let reason = d.reason.as_ref().map_or("", FullReason::tag);
                    assert!(!reason.contains("float"), "{}: {reason}", d.view);
                }
                for def in sys.catalog.defs() {
                    let what = format!("{} after batch {batch} ({threads} threads)", def.name);
                    let stored = sys
                        .hv
                        .view_rows(&def.name)
                        .or_else(|| sys.dw.view_rows_arc(&def.name))
                        .expect("catalog view is resident");
                    stamps.push((def.name.clone(), def.checksum.expect("stamped").0));
                    if !first {
                        continue;
                    }
                    let Some(from_logs) = sys.catalog.inlined(&def.plan) else {
                        // Only a view the log's growth cannot reach may
                        // outlive a view it scans.
                        assert!(!def.lineage.contains("twitter"), "{what}: orphan kept");
                        continue;
                    };
                    let run = sys
                        .hv
                        .execute(&from_logs, None, sys.udf_registry())
                        .unwrap();
                    let want = run.execution.root_rows().unwrap();
                    assert_eq!(format!("{stored:?}"), format!("{want:?}"), "{what}: rows");
                    assert_eq!(def.checksum, Some(checksum_rows(want)), "{what}: stamp");
                    assert_eq!(def.rows, want.len() as u64, "{what}: row count");
                    over_views += usize::from(!def.plan.scanned_views().is_empty());
                    float_views += usize::from(def.plan.nodes().iter().any(|n| {
                        matches!(&n.op, Operator::Aggregate { aggs, .. }
                            if aggs.iter().any(|a| a.func == miso_plan::AggFunc::Avg))
                    }));
                }
                let window = &history[history.len().saturating_sub(history_len)..];
                sys.reorg_now(window, &mut SimClock::new()).unwrap();
            }
            sys.run_workload(Variant::MsMiso, std::slice::from_ref(query))
                .unwrap();
            history.push(query.1.clone());
        }
        assert!(folded > 20, "{folded} delta folds");
        assert!(
            !first || (float_views > 0 && over_views > 0),
            "{float_views} {over_views}"
        );
        per_mode.push(stamps);
    }
    pool::set_threads(before);
    for stamps in &per_mode[1..] {
        assert_eq!(
            stamps, &per_mode[0],
            "maintained views depend on the pool width"
        );
    }
}

/// How `view` changes when the twitter log grows and every fold state is
/// warm: what a growth step's planning pass settles for it.
fn warm_change(catalog: &miso_views::ViewCatalog, view: &str) -> ViewChange {
    let Some(def) = catalog.get(view).filter(|d| d.lineage.contains("twitter")) else {
        return ViewChange::Unchanged;
    };
    match analyze_maintenance(&def.plan, "twitter", &|v| warm_change(catalog, v)) {
        Ok(MaintPlan::Append(_)) => ViewChange::Appended,
        _ => ViewChange::Rewritten,
    }
}

/// The folds of a batch run as one job, and a delta sub-plan two of them
/// share runs once: over a batch where every view folds, each operator a
/// later plan repeats is replayed (`exec.ops_shared`) and every other node
/// of the folds' delta plans — leaf scans included — runs
/// (`exec.ops_executed`), and every folded view still holds its
/// definition's rows run from scratch over the grown log. At one worker
/// and eight.
#[test]
fn a_shared_delta_sub_plan_runs_once_per_batch() {
    let _globals = globals_lock();
    let cfg = LogsConfig::tiny();
    let corpus = Corpus::generate(&cfg);
    let before = pool::threads();
    for threads in [1, 8] {
        pool::set_threads(threads);
        let mut sys = system_with(&corpus, SystemConfig::paper_default(budgets()));
        let stream = compile_workload(&workload_catalog()).unwrap();
        // Three templates whose HV runs harvest views along one chain: the
        // delta plan of each is a prefix of the next one's.
        sys.run_workload(Variant::HvOp, &stream[..3]).unwrap();
        let mut clock = SimClock::new();
        // The first batch warms every fold state.
        let warm = Delta::generated(&cfg, LogKind::Twitter, 0, 60);
        sys.grow(&warm, MaintenancePolicy::Refresh, &mut clock)
            .unwrap();

        miso_obs::init(miso_obs::ObsConfig::ring(16));
        miso_obs::reset_metrics();
        let delta = Delta::generated(&cfg, LogKind::Twitter, 1, 60);
        let report = sys
            .grow(&delta, MaintenancePolicy::Refresh, &mut clock)
            .unwrap();
        let counters = miso_obs::snapshot().counters;
        let ops = counters["exec.ops_executed"];
        let shared = counters.get("exec.ops_shared").copied().unwrap_or(0);
        miso_obs::init(miso_obs::ObsConfig::disabled());

        let mut fps_seen = std::collections::HashMap::new();
        let (mut held, mut repeated) = (0, 0);
        for d in &report.decisions {
            assert_eq!(d.action, MaintAction::Delta, "{}: {:?}", d.view, d.reason);
            let def = sys.catalog.get(&d.view).unwrap();
            let of = |v: &str| warm_change(&sys.catalog, v);
            let plan = analyze_maintenance(&def.plan, "twitter", &of).unwrap();
            let plan = plan.delta_plan();
            let reach = plan.descendants(plan.root());
            held += reach.len();
            // A stored build side is the view's own, whatever its name.
            let build = |id| match &plan.node(id).op {
                Operator::ScanView { view, .. } => view.starts_with('§'),
                _ => false,
            };
            for id in reach {
                if plan.node(id).inputs.is_empty() || plan.descendants(id).into_iter().any(build) {
                    continue;
                }
                let seen = fps_seen.entry(plan.fingerprint(id)).or_insert(0);
                *seen += 1;
                repeated += usize::from(*seen > 1);
            }
        }
        assert!(
            repeated > 0,
            "no delta sub-plan repeats across the batch's folds"
        );
        assert!(
            ops as usize <= held - repeated,
            "{ops} operators ran of {held} held, {repeated} repeated"
        );
        assert_eq!(shared as usize, repeated, "every repeat is replayed");
        assert_eq!(
            ops as usize,
            held - repeated,
            "every node but the repeats runs"
        );
        for d in &report.decisions {
            let def = sys.catalog.get(&d.view).unwrap();
            let from_logs = sys.catalog.inlined(&def.plan).unwrap();
            let run = sys.hv.execute(&from_logs, None, sys.udf_registry());
            let want = run.unwrap().execution.root_rows().unwrap().to_vec();
            let stored = sys
                .hv
                .view_rows(&d.view)
                .or_else(|| sys.dw.view_rows_arc(&d.view));
            assert_eq!(
                *stored.expect("a folded view is resident"),
                want,
                "{}",
                d.view
            );
        }
    }
    pool::set_threads(before);
}
