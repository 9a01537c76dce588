//! Epoch-publish correctness: atomic snapshot visibility, admission-time
//! pinning, drain classification, and crash-safe reorg commit.
//!
//! These tests exercise the promises DESIGN.md §15 makes about the serving
//! layer's epoch lifecycle:
//!
//! * a reader racing a reorg commit observes *either* the old image *or*
//!   the new one, never a mixed catalog (real-thread race + deterministic
//!   crash-at-every-step sweep through the engine);
//! * in-flight queries finish against their admission-time snapshot;
//! * queries killed at the drain deadline are classified losses;
//! * a crash mid-commit recovers through the reorg journal and converges to
//!   the same design a crash-free run commits;
//! * the snapshot executor and the serial driver are one split pipeline:
//!   same costs, bytes, answer, views read and views harvested per query,
//!   and the same HV-only degradation when DW is down.

use std::collections::{BTreeSet, HashSet};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};

use miso_common::ids::QueryId;
use miso_common::{pool, Budgets, ByteSize, SimClock, SimDuration};
use miso_core::{GuardConfig, MultistoreSystem, SystemConfig, Variant};
use miso_data::logs::{Corpus, LogsConfig};
use miso_data::StoredView;
use miso_dw::DwStore;
use miso_exec::UdfRegistry;
use miso_hv::HvStore;
use miso_lang::compile;
use miso_optimizer::TransferModel;
use miso_plan::LogicalPlan;
use miso_serve::{BaseRun, EpochSnapshot, ServeConfig, ServeEngine, SnapExecutor, SnapshotCell};
use miso_views::{ViewCatalog, ViewDef};

/// Chaos state (plans, RNG, hit counters, the enabled flag toggled by
/// suspend/resume) is process-global; tests that install, disable, or rely
/// on suspended chaos must not interleave. Poisoning is ignored — a failed
/// test must not cascade.
static CHAOS_LOCK: Mutex<()> = Mutex::new(());

fn chaos_guard() -> std::sync::MutexGuard<'static, ()> {
    CHAOS_LOCK.lock().unwrap_or_else(|e| e.into_inner())
}

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

fn queries() -> Vec<(String, LogicalPlan)> {
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

/// A reader racing reorg commits never observes a half-updated image: the
/// catalog and the HV view residency always agree, and the view count always
/// matches the epoch number. If publish updated its parts non-atomically,
/// the racing loads below would catch a mix.
#[test]
fn racing_reader_never_observes_mixed_snapshot() {
    const EPOCHS: u64 = 200;
    let lang = miso_lang::Catalog::standard();
    // Epoch k's image carries exactly views v_1..v_k, registered in the
    // catalog AND installed in HV as one unit.
    let mut staged = Vec::new();
    let mut hv = HvStore::new();
    let mut catalog = ViewCatalog::new();
    for k in 1..=EPOCHS {
        let sql = format!(
            "SELECT t.city AS city, COUNT(*) AS n FROM twitter t \
             WHERE t.followers > {k} GROUP BY t.city"
        );
        let plan = compile(&sql, &lang).unwrap();
        let schema = plan.schema().clone();
        let def = ViewDef::from_plan(plan, ByteSize::from_kib(1), 0, QueryId(k));
        let name = def.name.clone();
        catalog.register(def);
        hv.views
            .put(&name, StoredView::from_rows(&name, schema, &[]).unwrap());
        staged.push(EpochSnapshot {
            epoch: k,
            hv: hv.clone(),
            dw: DwStore::new(),
            catalog: catalog.clone(),
            transfer: TransferModel::default(),
        });
    }

    let cell = Arc::new(SnapshotCell::new(EpochSnapshot {
        epoch: 0,
        hv: HvStore::new(),
        dw: DwStore::new(),
        catalog: ViewCatalog::new(),
        transfer: TransferModel::default(),
    }));
    let done = Arc::new(AtomicBool::new(false));
    let readers: Vec<_> = (0..2)
        .map(|_| {
            let cell = cell.clone();
            let done = done.clone();
            std::thread::spawn(move || {
                let mut loads = 0u64;
                while !done.load(Ordering::Relaxed) {
                    let snap = cell.load();
                    let hv_views = snap.hv.view_names();
                    assert_eq!(
                        snap.catalog.len() as u64,
                        snap.epoch,
                        "epoch {} published with {} catalog entries",
                        snap.epoch,
                        snap.catalog.len()
                    );
                    assert_eq!(
                        hv_views.len(),
                        snap.catalog.len(),
                        "catalog and HV residency diverged within one epoch"
                    );
                    for def in snap.catalog.defs() {
                        assert!(
                            snap.hv.views.contains(&def.name),
                            "catalog lists {} but HV does not carry it",
                            def.name
                        );
                    }
                    loads += 1;
                }
                loads
            })
        })
        .collect();

    for snap in staged {
        cell.publish(snap);
    }
    assert_eq!(cell.epoch(), EPOCHS);
    done.store(true, Ordering::Relaxed);
    for r in readers {
        let loads = r.join().expect("reader never panics");
        assert!(loads > 0, "reader must have raced at least one load");
    }
}

/// An in-flight query's `Arc`-held admission snapshot is bit-for-bit
/// unaffected by a concurrent publish: re-running it after the reorg commits
/// reproduces the admission-time base run exactly — answer *and* costs.
#[test]
fn drained_inflight_work_uses_admission_snapshot() {
    let _chaos = chaos_guard();
    let mut sys = tiny_system(100_000);
    let workload = queries();
    let snap0 = Arc::new(EpochSnapshot::of(&sys, 0));
    let none = BTreeSet::new();

    let mut exec = SnapExecutor::new(UdfRegistry::new());
    let (label, plan) = &workload[0];
    let before = exec.run(&snap0, label, plan, &none, false).unwrap();

    // "Reorg commits" — the serial driver harvests views and retunes,
    // changing catalog/HV/DW state; epoch 1 is published from it.
    sys.run_workload(Variant::MsMiso, &workload).unwrap();
    let cell = SnapshotCell::new(EpochSnapshot {
        epoch: 0,
        ..(*snap0).clone()
    });
    let held = cell.load();
    cell.publish(EpochSnapshot::of(&sys, 1));
    assert_eq!(cell.epoch(), 1);
    assert_eq!(held.epoch, 0, "in-flight query keeps its admission image");

    // A fresh executor (no memo carry-over) against the held snapshot
    // reproduces the admission-time run exactly.
    let mut fresh = SnapExecutor::new(UdfRegistry::new());
    let after = fresh.run(&held, label, plan, &none, false).unwrap();
    assert_eq!(after.result_rows, before.result_rows);
    assert_eq!(after.checksum, before.checksum);
    assert_eq!(after.service(), before.service());
    assert_eq!(after.bytes_transferred, before.bytes_transferred);

    // And the *published* epoch still returns the same answer (views only
    // ever rewrite, never change semantics), even if its costs differ.
    let published = fresh.run(&cell.load(), label, plan, &none, false).unwrap();
    assert_eq!(published.result_rows, before.result_rows);
    assert_eq!(published.checksum, before.checksum);
}

fn sweep_config() -> ServeConfig {
    ServeConfig {
        workers: 2,
        sessions: 8,
        tenants: 2,
        queries_per_session: 3,
        seed: 5,
        mean_think: SimDuration::from_secs(5),
        reorg_every: 4,
        drain: SimDuration::from_secs(1),
        ..ServeConfig::standard()
    }
}

fn sweep_engine() -> ServeEngine {
    let sys = tiny_system(100_000);
    ServeEngine::new(sweep_config(), sys, queries(), UdfRegistry::new())
}

/// Templates that share a label are still distinct templates: each has its
/// own base runs and its own oracle, so giving all four one label serves
/// exactly what distinct labels do — and a shared answer would show as a
/// wrong one.
#[test]
fn templates_sharing_a_label_keep_their_own_answers() {
    let _chaos = chaos_guard();
    miso_chaos::disable();
    let control = sweep_engine().run();
    let relabelled = queries()
        .into_iter()
        .map(|(_, plan)| ("q".to_string(), plan));
    let relabelled = relabelled.collect();
    let sys = tiny_system(100_000);
    let report = ServeEngine::new(sweep_config(), sys, relabelled, UdfRegistry::new()).run();
    assert_eq!(control.wrong_answers, 0);
    assert_eq!(report.wrong_answers, 0);
    assert_eq!(report.base_runs, control.base_runs);
    assert_eq!(report.delivered, control.delivered);
}

/// Deterministic interleaving sweep: crash the reorg at every individual
/// step (chaos `reorg.step=crash@n{k}` fires on exactly the k-th step) while
/// the engine is serving. Whatever the interleaving, every delivered answer
/// matches the serial oracle, every loss is classified, and the published
/// epoch advances only by whole commits.
#[test]
fn crash_at_every_reorg_step_never_mixes_epochs() {
    let _chaos = chaos_guard();
    // Crash-free control: fixes the sweep's expected delivery totals.
    miso_chaos::disable();
    let control = sweep_engine().run();
    assert!(control.reorgs >= 1, "control run must reorganize");
    assert_eq!(control.wrong_answers, 0);
    assert_eq!(control.unclassified, 0);

    for k in 1..=8u64 {
        let spec = format!("seed=7;reorg.step=crash@n{k}");
        let plan = miso_chaos::parse_spec(&spec).expect("sweep spec parses");
        miso_chaos::install(plan);
        let report = sweep_engine().run();
        miso_chaos::disable();

        assert_eq!(
            report.wrong_answers, 0,
            "crash at reorg step {k} produced wrong answers"
        );
        assert_eq!(
            report.unclassified, 0,
            "crash at reorg step {k} left unclassified losses"
        );
        assert_eq!(
            report.submitted,
            report.delivered + report.shed + report.killed,
            "crash at reorg step {k} lost track of a query"
        );
        // Epochs advance only by whole published reorgs; an abandoned reorg
        // leaves the epoch untouched.
        assert_eq!(report.final_epoch, report.reorgs);
        assert!(
            report.reorgs + report.reorg_failures >= 1,
            "crash at reorg step {k}: the reorg must commit or fail classified"
        );
        // Recovery costs sim time (shifting drain boundaries), so delivery
        // totals may differ from the control — but the server must keep
        // serving through the crash.
        assert!(
            report.delivered > 0,
            "crash at reorg step {k} starved delivery entirely"
        );
    }
}

/// The same serving config replays bit-identically: the discrete-event loop
/// is deterministic, so epoch boundaries, drains, and latencies reproduce.
#[test]
fn serving_replays_deterministically() {
    let _chaos = chaos_guard();
    miso_chaos::disable();
    let a = sweep_engine().run();
    let b = sweep_engine().run();
    assert_eq!(a.submitted, b.submitted);
    assert_eq!(a.delivered, b.delivered);
    assert_eq!(a.shed, b.shed);
    assert_eq!(a.killed, b.killed);
    assert_eq!(a.drained, b.drained);
    assert_eq!(a.reorgs, b.reorgs);
    assert_eq!(a.final_epoch, b.final_epoch);
    assert_eq!(a.makespan, b.makespan);
    assert_eq!(a.p50, b.p50);
    assert_eq!(a.p99, b.p99);
}

/// Queries killed at the drain deadline are classified `cancelled` losses
/// with tenant/session attribution — and everything that was delivered is
/// still oracle-correct.
#[test]
fn drain_kills_are_classified_cancellations() {
    let _chaos = chaos_guard();
    miso_chaos::disable();
    let cfg = ServeConfig {
        // Zero-length drain window: any old-epoch straggler at publish time
        // is killed immediately at the boundary.
        drain: SimDuration::ZERO,
        mean_think: SimDuration::from_secs(1),
        ..sweep_config()
    };
    let sys = tiny_system(100_000);
    let report = ServeEngine::new(cfg, sys, queries(), UdfRegistry::new()).run();
    assert!(report.reorgs >= 1, "run must publish at least one epoch");
    assert!(
        report.drained > 0,
        "zero drain window with saturated workers must drain stragglers"
    );
    assert_eq!(report.wrong_answers, 0);
    assert_eq!(report.unclassified, 0);
    let drains: Vec<_> = report
        .failures
        .iter()
        .filter(|f| f.message.contains("drained at epoch"))
        .collect();
    assert_eq!(drains.len() as u64, report.drained);
    for f in drains {
        assert_eq!(f.kind, "cancelled");
        assert!(f.tenant.is_some() && f.session.is_some());
        assert!(!f.shed);
    }
}

fn sorted(mut v: Vec<String>) -> Vec<String> {
    v.sort();
    v
}

/// Crash-during-commit, journal variant: the reorg journal is two-phase, so
/// a crash **before** the commit record rolls the migration back (the
/// pre-reorg design survives untouched) and a crash **after** it rolls
/// forward (the crashed twin converges to exactly the design a crash-free
/// twin commits). Either way the resulting image is a consistent, atomic
/// epoch that serves the same answers.
#[test]
fn crashed_commit_recovers_to_the_crash_free_design() {
    let _chaos = chaos_guard();
    let workload = queries();
    let window: Vec<LogicalPlan> = workload.iter().map(|(_, p)| p.clone()).collect();
    // Three twin systems with identical workload history.
    let twin = || {
        miso_chaos::disable();
        let mut sys = tiny_system(100_000);
        sys.run_workload(Variant::MsMiso, &workload).unwrap();
        sys
    };
    let mut control = twin();
    let mut pre_commit = twin();
    let mut post_commit = twin();
    let pre_reorg_hv = sorted(control.hv.view_names());
    let pre_reorg_dw = sorted(control.dw.view_names());

    miso_chaos::disable();
    let mut clock = SimClock::new();
    let rec = control.reorg_now(&window, &mut clock).unwrap();
    assert_eq!(rec.recoveries, 0, "crash-free commit needs no recovery");
    assert!(!rec.rolled_back);
    assert!(
        !rec.moved_to_dw.is_empty(),
        "the tuner must migrate something for the crash sweep to mean anything"
    );

    // Crash on step 2: mid-staging, before the journal's Commit record —
    // recovery must roll the whole migration back.
    let plan = miso_chaos::parse_spec("seed=3;reorg.step=crash@n2").unwrap();
    miso_chaos::install(plan);
    let mut clock = SimClock::new();
    let rec = pre_commit.reorg_now(&window, &mut clock).unwrap();
    miso_chaos::disable();
    assert!(
        rec.recoveries >= 1,
        "the crash must force a journal recovery"
    );
    assert!(rec.rolled_back, "a pre-commit crash rolls back");
    assert!(rec.moved_to_dw.is_empty() && rec.moved_to_hv.is_empty());
    assert_eq!(sorted(pre_commit.hv.view_names()), pre_reorg_hv);
    assert_eq!(sorted(pre_commit.dw.view_names()), pre_reorg_dw);

    // Crash on step 4: mid-apply, after the Commit record — recovery must
    // roll forward to exactly the crash-free design.
    let plan = miso_chaos::parse_spec("seed=3;reorg.step=crash@n4").unwrap();
    miso_chaos::install(plan);
    let mut clock = SimClock::new();
    let rec = post_commit.reorg_now(&window, &mut clock).unwrap();
    miso_chaos::disable();
    assert!(
        rec.recoveries >= 1,
        "the crash must force a journal recovery"
    );
    assert!(!rec.rolled_back, "a post-commit crash rolls forward");
    assert_eq!(post_commit.catalog.names(), control.catalog.names());
    assert_eq!(
        sorted(post_commit.hv.view_names()),
        sorted(control.hv.view_names())
    );
    assert_eq!(
        sorted(post_commit.dw.view_names()),
        sorted(control.dw.view_names())
    );

    // Whichever side of the commit the crash landed on, the recovered image
    // is a publishable epoch serving the same answers as the control's.
    let none = BTreeSet::new();
    let snap_control = EpochSnapshot::of(&control, 1);
    for sys in [&pre_commit, &post_commit] {
        let snap = EpochSnapshot::of(sys, 1);
        let mut exec_a = SnapExecutor::new(UdfRegistry::new());
        let mut exec_b = SnapExecutor::new(UdfRegistry::new());
        for (label, plan) in &workload {
            let a = exec_a
                .run(&snap_control, label, plan, &none, false)
                .unwrap();
            let b = exec_b.run(&snap, label, plan, &none, false).unwrap();
            assert_eq!(
                a.result_rows, b.result_rows,
                "{label} diverged after recovery"
            );
            assert_eq!(a.checksum, b.checksum, "{label} diverged after recovery");
        }
    }
}

/// Streaming growth across serving epochs: the corpus grows and views are
/// incrementally maintained *between* snapshots, so a session pinned to the
/// pre-growth image keeps answering over the old corpus bit-for-bit, while
/// sessions admitted after the growth epoch publishes see the appended
/// data.
#[test]
fn growth_publishes_new_epoch_old_snapshots_keep_old_answers() {
    use miso_core::MaintenancePolicy;
    use miso_data::logs::{LogKind, LogsConfig};
    use miso_data::Delta;

    let _chaos = chaos_guard();
    let mut sys = tiny_system(100_000);
    let workload = queries();
    // Materialize opportunistic views so maintenance has something to keep
    // current across the growth step.
    sys.run_workload(Variant::MsMiso, &workload).unwrap();

    let c = miso_lang::Catalog::standard();
    let count_all = compile(
        "SELECT t.tweet_id AS id FROM twitter t WHERE t.tweet_id >= 0",
        &c,
    )
    .unwrap();
    let none = BTreeSet::new();
    let cell = SnapshotCell::new(EpochSnapshot::of(&sys, 0));
    let held = cell.load();
    let mut exec = SnapExecutor::new(UdfRegistry::new());
    let before = exec
        .run(&held, "count_all", &count_all, &none, false)
        .unwrap();

    // The corpus grows: one delta batch ingested under Refresh, views
    // delta-maintained, then the grown image is published as epoch 1.
    let mut clock = SimClock::new();
    let delta = Delta::generated(&LogsConfig::tiny(), LogKind::Twitter, 0, 150);
    sys.grow(&delta, MaintenancePolicy::Refresh, &mut clock)
        .unwrap();
    cell.publish(EpochSnapshot::of(&sys, 1));
    assert_eq!(cell.epoch(), 1);

    // The held pre-growth snapshot still answers over the old corpus.
    let mut fresh = SnapExecutor::new(UdfRegistry::new());
    let old = fresh
        .run(&held, "count_all", &count_all, &none, false)
        .unwrap();
    assert_eq!(old.result_rows, before.result_rows);
    assert_eq!(old.checksum, before.checksum);

    // The published epoch sees every appended record.
    let grown = fresh
        .run(&cell.load(), "count_all", &count_all, &none, false)
        .unwrap();
    assert_eq!(grown.result_rows, before.result_rows + 150);

    // And the maintained views inside the published image answer the same
    // workload queries as the pre-growth image *plus* the delta — spot
    // check: every workload query still runs cleanly against epoch 1.
    for (label, plan) in &workload {
        fresh.run(&cell.load(), label, plan, &none, false).unwrap();
    }
}

/// Retirement is by epoch number alone: two images taken under one epoch
/// around a growth step are memoized apart, kept together while their epoch
/// is retained, and dropped together when it is retired, after which the
/// grown image's run is computed afresh.
#[test]
fn same_epoch_snapshots_around_growth_retire_together() {
    use miso_core::MaintenancePolicy;
    use miso_data::logs::LogKind;
    use miso_data::Delta;

    let _chaos = chaos_guard();
    let mut sys = tiny_system(100_000);
    let c = miso_lang::Catalog::standard();
    let count_all = compile(
        "SELECT t.tweet_id AS id FROM twitter t WHERE t.tweet_id >= 0",
        &c,
    )
    .unwrap();
    let none = BTreeSet::new();
    let epoch = 3;
    let mut exec = SnapExecutor::new(UdfRegistry::new());
    let before = EpochSnapshot::of(&sys, epoch);
    let old = exec
        .run(&before, "count_all", &count_all, &none, false)
        .unwrap();
    let delta = Delta::generated(&LogsConfig::tiny(), LogKind::Twitter, 0, 150);
    (sys.grow(&delta, MaintenancePolicy::Refresh, &mut SimClock::new())).unwrap();
    let after = EpochSnapshot::of(&sys, epoch);
    let grown = exec
        .run(&after, "count_all", &count_all, &none, false)
        .unwrap();
    assert_eq!(exec.runs_read(), 2);

    exec.retire_before(epoch);
    assert_eq!(
        exec.runs_read(),
        2,
        "retiring older epochs keeps both images"
    );
    let kept = exec
        .run(&after, "count_all", &count_all, &none, false)
        .unwrap();
    assert!(Arc::ptr_eq(&kept, &grown));

    exec.retire_before(epoch + 1);
    assert_eq!(exec.runs_read(), 0, "retiring the epoch drops both images");
    let recomputed = exec
        .run(&after, "count_all", &count_all, &none, false)
        .unwrap();
    assert!(!Arc::ptr_eq(&recomputed, &grown));
    assert_eq!(recomputed.result_rows, old.result_rows + 150);
    assert_eq!(recomputed.checksum, grown.checksum);
}

/// Two images taken under one epoch number around a growth step are two
/// snapshots: one executor asked the same query on each answers each over
/// its own corpus, not the first image's memoized run.
#[test]
fn same_epoch_snapshots_around_growth_keep_their_own_answers() {
    use miso_core::MaintenancePolicy;
    use miso_data::logs::LogKind;
    use miso_data::Delta;

    let _chaos = chaos_guard();
    let mut sys = tiny_system(100_000);
    let c = miso_lang::Catalog::standard();
    let count_all = compile(
        "SELECT t.tweet_id AS id FROM twitter t WHERE t.tweet_id >= 0",
        &c,
    )
    .unwrap();
    let none = BTreeSet::new();
    let mut exec = SnapExecutor::new(UdfRegistry::new());
    let before = EpochSnapshot::of(&sys, 0);
    let old = exec
        .run(&before, "count_all", &count_all, &none, false)
        .unwrap();

    let delta = Delta::generated(&LogsConfig::tiny(), LogKind::Twitter, 0, 150);
    (sys.grow(&delta, MaintenancePolicy::Refresh, &mut SimClock::new())).unwrap();
    let after = EpochSnapshot::of(&sys, 0);
    assert_ne!(before.id(), after.id());
    let grown = exec
        .run(&after, "count_all", &count_all, &none, false)
        .unwrap();
    let fresh = SnapExecutor::new(UdfRegistry::new())
        .run(&after, "count_all", &count_all, &none, false)
        .unwrap();
    assert_eq!(grown.result_rows, old.result_rows + 150);
    assert_eq!(grown.checksum, fresh.checksum);
    assert_ne!(grown.checksum, old.checksum);
    // The first image is still memoized under its own id.
    let again = exec
        .run(&before, "count_all", &count_all, &none, false)
        .unwrap();
    assert!(Arc::ptr_eq(&again, &old));
}

/// A `tiny` system over the standard 32-template workload (its catalog and
/// UDFs), and the templates.
fn workload_system(corpus: &Corpus) -> MultistoreSystem {
    let kib = ByteSize::from_kib(100_000);
    let budgets = Budgets::new(kib, kib, kib).with_discretization(ByteSize::from_kib(16));
    MultistoreSystem::new(
        corpus,
        miso_workload::workload_catalog(),
        miso_workload::standard_udfs(),
        SystemConfig::paper_default(budgets),
    )
}

fn templates() -> Vec<(String, LogicalPlan)> {
    miso_workload::compile_workload(&miso_workload::workload_catalog()).unwrap()
}

/// Cold, and warmed by one full MS-MISO stream over the 32 templates.
fn cold_and_warm(corpus: &Corpus, workload: &[(String, LogicalPlan)]) -> [MultistoreSystem; 2] {
    let mut warm = workload_system(corpus);
    warm.run_workload(Variant::MsMiso, workload).unwrap();
    [workload_system(corpus), warm]
}

/// The refactor's premise, pinned: the snapshot executor and the serial
/// driver walk one pipeline. For every template, on a cold and on a warm
/// design, a base run over a snapshot and the driver's record for the same
/// query over a copy of the same stores agree on every cost, the bytes
/// shipped, the answer size and the views read — and the executor's harvest
/// candidates are exactly the views the driver newly registers.
#[test]
fn snapshot_run_and_serial_driver_agree_on_every_template() {
    let _chaos = chaos_guard();
    miso_chaos::disable();
    let corpus = Corpus::generate(&LogsConfig::tiny());
    let workload = templates();
    assert_eq!(workload.len(), 32);
    let none = BTreeSet::new();
    for (state, sys) in ["cold", "warm"]
        .iter()
        .zip(cold_and_warm(&corpus, &workload))
    {
        let snap = EpochSnapshot::of(&sys, 0);
        let mut exec = SnapExecutor::new(miso_workload::standard_udfs());
        for (label, plan) in &workload {
            let base = exec.run(&snap, label, plan, &none, false).unwrap();

            let mut twin = workload_system(&corpus);
            twin.hv = sys.hv.clone();
            twin.dw = sys.dw.clone();
            twin.catalog = sys.catalog.clone();
            let known: BTreeSet<String> = twin.catalog.names().into_iter().collect();
            let one = [(label.clone(), plan.clone())];
            let result = twin.run_workload(Variant::MsMiso, &one).unwrap();
            let rec = &result.records[0];

            let at = format!("{label} ({state})");
            assert_eq!(base.hv_cost, rec.hv, "{at}: hv");
            let shipped: SimDuration = base.cut_costs.iter().copied().sum();
            assert_eq!(shipped, rec.transfer, "{at}: transfer");
            assert_eq!(base.dw_cost, rec.dw, "{at}: dw");
            assert_eq!(base.bytes_transferred, rec.bytes_transferred, "{at}: bytes");
            assert_eq!(base.result_rows, rec.result_rows, "{at}: rows");
            let read: Vec<&String> = base.used_views.iter().map(|(v, _)| v).collect();
            assert_eq!(
                read,
                rec.used_views.iter().collect::<Vec<_>>(),
                "{at}: views"
            );
            let harvested: BTreeSet<String> =
                base.harvest.iter().map(|c| c.def.name.clone()).collect();
            let registered: BTreeSet<String> = (twin.catalog.names().into_iter())
                .filter(|n| !known.contains(n))
                .collect();
            assert_eq!(harvested, registered, "{at}: harvest");
        }
    }
}

/// DW down hard (`dw.execute` fails on every hit): the serving engine
/// degrades exactly as the serial driver does — every query it admits is
/// answered by an HV-only base run, correctly. The HV-only placement itself
/// is a rewrite over HV-resident views with every node in HV, so it can
/// neither fail to plan nor cost a transfer, on a cold or a warm design.
#[test]
fn dw_down_serving_degrades_to_hv_only_like_the_driver() {
    let _chaos = chaos_guard();
    miso_chaos::disable();
    let corpus = Corpus::generate(&LogsConfig::tiny());
    let workload = templates();
    let none = BTreeSet::new();
    for (state, sys) in ["cold", "warm"]
        .iter()
        .zip(cold_and_warm(&corpus, &workload))
    {
        let snap = EpochSnapshot::of(&sys, 0);
        let mut exec = SnapExecutor::new(miso_workload::standard_udfs());
        for (label, plan) in &workload {
            let oracle = sys
                .hv
                .execute(plan, None, sys.udf_registry())
                .and_then(|run| miso_core::split::answer(Some(&run), None))
                .unwrap();
            let base = exec
                .run(&snap, label, plan, &none, true)
                .unwrap_or_else(|e| panic!("{label} ({state}) has no HV-only run: {e}"));
            assert_eq!(base.dw_cost, SimDuration::ZERO, "{label} ({state})");
            assert!(base.cut_costs.is_empty(), "{label} ({state})");
            assert_eq!(
                (base.result_rows, base.checksum),
                oracle,
                "{label} ({state})"
            );
        }
    }

    let plan = miso_chaos::parse_spec("seed=1;dw.execute=error").expect("spec parses");
    miso_chaos::install(plan);
    let report = ServeEngine::new(
        ServeConfig::standard(),
        workload_system(&corpus),
        workload,
        miso_workload::standard_udfs(),
    )
    .run();
    miso_chaos::disable();
    assert_eq!(report.submitted, 64, "32 sessions x 2 queries");
    assert_eq!(report.delivered, report.submitted, "{:?}", report.failures);
    assert_eq!(report.wrong_answers, 0);
    assert!(report.failures.iter().all(|f| f.kind != "plan"));
    assert_eq!(report.hv_fallbacks, report.delivered);
}

/// A view read honours `corrupt` only, in serving as in the serial driver:
/// an `error` or a `crash` fired at a `*.view_read` point is counted as
/// injected and changes nothing — no backoff is charged, no query is lost.
#[test]
fn view_reads_honour_corruption_only() {
    let _chaos = chaos_guard();
    miso_chaos::disable();
    let corpus = Corpus::generate(&LogsConfig::tiny());
    let workload = templates();
    let warm = || {
        cold_and_warm(&corpus, &workload)
            .into_iter()
            .nth(1)
            .unwrap()
    };
    let serve = |master| {
        let udfs = miso_workload::standard_udfs();
        ServeEngine::new(ServeConfig::standard(), master, workload.clone(), udfs).run()
    };
    let clean = serve(warm());

    let master = warm();
    miso_obs::init(miso_obs::ObsConfig::ring(4096));
    miso_obs::reset_metrics();
    let plan = miso_chaos::parse_spec("seed=1;hv.view_read=error;dw.view_read=crash");
    miso_chaos::install(plan.expect("spec parses"));
    let faulted = serve(master);
    let reads = ["hv.view_read", "dw.view_read"].map(miso_chaos::hit_count);
    miso_chaos::disable();
    let counters = miso_obs::snapshot().counters;
    miso_obs::init(miso_obs::ObsConfig::disabled());

    assert!(
        reads.iter().all(|&n| n > 0),
        "both stores' views read: {reads:?}"
    );
    let counter = |name: &str| counters.get(name).copied().unwrap_or(0);
    assert!(counter("chaos.errors_injected") > 0 && counter("chaos.crashes_injected") > 0);
    let outcome = |r: &miso_serve::ServeReport| (r.delivered, r.killed, r.p50, r.p99);
    assert_eq!(outcome(&faulted), outcome(&clean), "{:?}", faulted.failures);
    assert_eq!(counter("store.retries"), 0);
}

/// Runs `f` at pool width `threads`, restoring the width after.
fn at_width<T>(threads: usize, f: impl FnOnce() -> T) -> T {
    let before = pool::threads();
    pool::set_threads(threads);
    let out = f();
    pool::set_threads(before);
    out
}

/// A base run's every field, harvest candidates by name.
fn base_run_fields(run: &BaseRun) -> String {
    let harvest: Vec<&String> = run.harvest.iter().map(|c| &c.def.name).collect();
    format!(
        "hv {:?} cuts {:?} dw {:?} bytes {:?} charged {} rows {} checksum {:?} views {:?} \
         harvest {harvest:?}",
        run.hv_cost,
        run.cut_costs,
        run.dw_cost,
        run.bytes_transferred,
        run.charged_bytes,
        run.result_rows,
        run.checksum,
        run.used_views,
    )
}

/// A wave computes what one dispatch at a time computes: on a cold and a
/// warm design, at pool widths 1 and 8, every template's prefetched base
/// run equals a fresh executor's serial run of the same key field by field,
/// the wave computes each template exactly once, and the dispatches that
/// read it compute nothing more.
#[test]
fn prefetched_runs_equal_serial_computes_at_every_width() {
    let _chaos = chaos_guard();
    miso_chaos::disable();
    let corpus = Corpus::generate(&LogsConfig::tiny());
    let workload = templates();
    let none = BTreeSet::new();
    let udfs = miso_workload::standard_udfs;
    miso_obs::init(miso_obs::ObsConfig::ring(4096));
    let computed = || {
        let counters = miso_obs::snapshot().counters;
        counters
            .get("serve.base_runs_computed")
            .copied()
            .unwrap_or(0)
    };
    for (epoch, sys) in cold_and_warm(&corpus, &workload).iter().enumerate() {
        let snap = EpochSnapshot::of(sys, epoch as u64);
        for threads in [1, 8] {
            let at = |label: &str| format!("{label} (epoch {epoch}, width {threads})");
            miso_obs::reset_metrics();
            let mut exec = SnapExecutor::new(udfs());
            at_width(threads, || exec.prefetch(&snap, &workload));
            assert_eq!(computed(), workload.len() as u64, "{}", at("wave"));
            assert_eq!(exec.runs_read(), 0, "{}", at("nothing read yet"));
            for (label, plan) in &workload {
                let waved = exec.run(&snap, label, plan, &none, false).unwrap();
                let serial = SnapExecutor::new(udfs())
                    .run(&snap, label, plan, &none, false)
                    .unwrap();
                assert_eq!(
                    base_run_fields(&waved),
                    base_run_fields(&serial),
                    "{}",
                    at(label)
                );
            }
            assert_eq!(exec.runs_read(), workload.len(), "{}", at("all read"));
            // The serial reference runs computed one each; the reads none.
            let serial = workload.len() as u64;
            assert_eq!(
                computed(),
                workload.len() as u64 + serial,
                "{}",
                at("reads")
            );
        }
    }
    miso_obs::init(miso_obs::ObsConfig::disabled());
}

/// The memo keys of every node each template's fault-free run executes,
/// placed as a wave places it, and the plan node each key stands for.
fn planned_keys(snap: &EpochSnapshot, workload: &[(String, LogicalPlan)]) -> Vec<(u64, String)> {
    let udfs = miso_workload::standard_udfs();
    let usable = |name: &String| !snap.catalog.is_quarantined(name);
    let mut keys = Vec::new();
    for (_, raw) in workload {
        let (planned, _) = miso_core::split::place(snap.stores(), raw, usable, false).unwrap();
        let plan = &planned.plan;
        let (hv_set, dw_set) = miso_core::split::node_sets(&planned);
        let seeds = planned.split.cut_nodes(plan).into_iter().collect();
        let hv = (!hv_set.is_empty()).then(|| snap.hv.memo_keys(plan, Some(&hv_set), &udfs));
        let dw =
            (!dw_set.is_empty()).then(|| snap.dw.memo_keys(plan, Some(&dw_set), &seeds, &udfs));
        for side in hv.into_iter().chain(dw) {
            let nodes = side.into_iter().zip(plan.nodes());
            keys.extend(nodes.filter_map(|(key, node)| Some((key?, node.op.label()))));
        }
    }
    keys
}

/// A sub-plan the templates repeat runs once per wave. On a cold and a warm
/// design, at pool widths 1 and 8, the wave executes each distinct memo key
/// once — the `buzz_score` UDF once per distinct key it heads — and replays
/// every other occurrence, so its `exec.ops_executed` is what the templates'
/// serial runs execute minus the repeats, the same at both widths.
#[test]
fn a_shared_node_runs_once_per_wave() {
    let _chaos = chaos_guard();
    miso_chaos::disable();
    let corpus = Corpus::generate(&LogsConfig::tiny());
    let workload = templates();
    let none = BTreeSet::new();
    let udfs = miso_workload::standard_udfs;
    miso_obs::init(miso_obs::ObsConfig::ring(1 << 16));
    let counter = |name: &str| {
        let counters = miso_obs::snapshot().counters;
        counters.get(name).copied().unwrap_or(0)
    };
    const BUZZ: &str = "Udf(buzz_score)";
    for (epoch, sys) in cold_and_warm(&corpus, &workload).iter().enumerate() {
        let snap = EpochSnapshot::of(sys, epoch as u64);
        let keys = planned_keys(&snap, &workload);
        let distinct: HashSet<u64> = keys.iter().map(|(key, _)| *key).collect();
        let repeats = (keys.len() - distinct.len()) as u64;
        let buzz: HashSet<u64> = (keys.iter())
            .filter(|(_, op)| op == BUZZ)
            .map(|(key, _)| *key)
            .collect();
        assert!(repeats > 0, "epoch {epoch}: the templates repeat sub-plans");
        miso_obs::reset_metrics();
        for (label, plan) in &workload {
            SnapExecutor::new(udfs())
                .run(&snap, label, plan, &none, false)
                .unwrap();
        }
        let serial = counter("exec.ops_executed");
        assert_eq!(
            counter("exec.ops_shared"),
            0,
            "a single dispatch shares nothing"
        );
        for threads in [1, 8] {
            let at = format!("epoch {epoch}, width {threads}");
            let sink = Arc::new(miso_obs::RingSink::new(1 << 16));
            miso_obs::set_sink(sink.clone());
            miso_obs::reset_metrics();
            at_width(threads, || {
                SnapExecutor::new(udfs()).prefetch(&snap, &workload)
            });
            assert_eq!(counter("exec.ops_shared"), repeats, "{at}: replays");
            assert_eq!(
                counter("exec.ops_executed"),
                serial - repeats,
                "{at}: executed"
            );
            let ran_buzz = (sink.events().iter())
                .filter(|e| e.kind == miso_obs::EventKind::SpanEnd && e.name == "exec.op")
                .filter(|e| e.fields.iter().all(|(k, _)| *k != "shared"))
                .filter(|e| {
                    (e.fields.iter())
                        .any(|(k, v)| *k == "op" && *v == miso_obs::FieldValue::Str(BUZZ.into()))
                })
                .count();
            assert!(sink.recorded() <= sink.capacity(), "{at}: every event held");
            assert_eq!(
                ran_buzz,
                buzz.len(),
                "{at}: buzz_score once per distinct key"
            );
        }
    }
    miso_obs::init(miso_obs::ObsConfig::disabled());
}

/// A guarded chaos storm with online reorgs serves the same report, every
/// failure and tenant included, whether a wave runs on one thread or many.
#[test]
fn chaos_storm_report_is_identical_at_widths_1_and_8() {
    let _chaos = chaos_guard();
    let storm = || {
        let spec = "seed=3;hv.execute=error@p0.2;hv.execute=stall@p0.05;\
                    dw.execute=error@p0.2;transfer.ship=error@p0.2;transfer.ship=corrupt@p0.1;\
                    dw.view_read=corrupt@p0.1;hv.view_read=corrupt@p0.1;reorg.step=crash@p0.1";
        miso_chaos::install(miso_chaos::parse_spec(spec).expect("storm spec parses"));
        let cfg = ServeConfig {
            workers: 3,
            sessions: 16,
            tenants: 4,
            queries_per_session: 3,
            reorg_every: 6,
            drain: SimDuration::from_secs(5),
            guard: GuardConfig {
                enabled: true,
                deadline: Some(SimDuration::from_secs(3_000)),
                max_inflight: 12,
                ..GuardConfig::disabled()
            },
            ..sweep_config()
        };
        let report =
            ServeEngine::new(cfg, tiny_system(100_000), queries(), UdfRegistry::new()).run();
        miso_chaos::disable();
        report
    };
    let one = at_width(1, storm);
    let eight = at_width(8, storm);
    assert!(one.killed > 0 && one.delivered > 0, "a storm: {one:?}");
    assert!(one.reorgs > 0, "a storm that reorganizes: {one:?}");
    assert_eq!(one.wrong_answers, 0);
    assert_eq!(one.unclassified, 0);
    assert_eq!(format!("{one:?}"), format!("{eight:?}"));
}

/// One query by one session reads one base run, however many templates
/// the wave computed for its epoch.
#[test]
fn one_query_engine_reports_one_base_run() {
    let _chaos = chaos_guard();
    miso_chaos::disable();
    let cfg = ServeConfig {
        sessions: 1,
        tenants: 1,
        queries_per_session: 1,
        ..ServeConfig::standard()
    };
    let report = ServeEngine::new(cfg, tiny_system(100_000), queries(), UdfRegistry::new()).run();
    assert_eq!((report.submitted, report.delivered), (1, 1));
    assert_eq!(report.wrong_answers, 0);
    assert_eq!(report.base_runs, 1);
}

/// A template whose plan cannot run fails its wave task, is not memoized,
/// and ends every dispatch that asks for it in the loss a serial run of the
/// same key classifies; the template beside it is delivered correctly.
#[test]
fn a_failing_template_ends_in_the_same_classified_loss() {
    let _chaos = chaos_guard();
    miso_chaos::disable();
    // A UDF template served with no UDFs registered.
    let bad = templates()
        .into_iter()
        .find(|(label, _)| label == "A3v1")
        .expect("A3v1 applies buzz_score");
    let workload = vec![queries().remove(0), bad.clone()];
    let sys = tiny_system(100_000);
    let snap = EpochSnapshot::of(&sys, 0);
    let err = SnapExecutor::new(UdfRegistry::new())
        .run(&snap, &bad.0, &bad.1, &BTreeSet::new(), false)
        .expect_err("the UDF is not registered");
    // No reorgs, so no drain kills either.
    let cfg = ServeConfig {
        reorg_every: 0,
        ..sweep_config()
    };
    let report = ServeEngine::new(cfg, sys, workload, UdfRegistry::new()).run();
    assert!(report.killed > 0, "{report:?}");
    assert!(report.delivered > 0, "{report:?}");
    assert_eq!(report.wrong_answers, 0);
    assert_eq!(report.unclassified, 0);
    assert_eq!(report.failures.len() as u64, report.killed);
    for f in &report.failures {
        assert_eq!(f.label, bad.0);
        assert_eq!((f.kind, f.message.clone()), (err.kind(), err.to_string()));
    }
}
