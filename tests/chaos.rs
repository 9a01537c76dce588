//! Chaos integration tests: fault injection at the engine's fail points
//! must never produce wrong answers, lose views, or violate budgets.
//!
//! The chaos registry is process-global, so every test serializes on
//! `CHAOS_LOCK` and disables injection before releasing it (including on
//! panic, via `ChaosGuard`).

use std::sync::Mutex;

use miso::chaos::{FaultKind, FaultPlan, FaultRule, Trigger};
use miso::common::{Budgets, ByteSize, SimDuration};
use miso::core::{ExperimentResult, MultistoreSystem, SystemConfig, Variant};
use miso::data::logs::{Corpus, LogsConfig};
use miso::lang::compile;
use miso::plan::LogicalPlan;
use miso::workload::{standard_udfs, workload_catalog};

static CHAOS_LOCK: Mutex<()> = Mutex::new(());

/// Disables injection when dropped, so a panicking test cannot leak an
/// installed fault plan into the next one.
struct ChaosGuard;

impl Drop for ChaosGuard {
    fn drop(&mut self) {
        miso::chaos::disable();
    }
}

fn tiny_corpus() -> Corpus {
    Corpus::generate(&LogsConfig::tiny())
}

fn budgets() -> Budgets {
    Budgets::new(
        ByteSize::from_mib(32),
        ByteSize::from_mib(4),
        ByteSize::from_mib(2),
    )
    .with_discretization(ByteSize::from_kib(16))
}

fn system(corpus: &Corpus) -> MultistoreSystem {
    MultistoreSystem::new(
        corpus,
        workload_catalog(),
        standard_udfs(),
        SystemConfig::paper_default(budgets()),
    )
}

/// The same evolving stream the end-to-end tests drive: joins, UDFs,
/// refinement, drift — enough to trigger split plans and reorganizations.
fn stream() -> Vec<(String, LogicalPlan)> {
    let catalog = workload_catalog();
    [
        "SELECT t.city AS city, COUNT(*) AS n, AVG(t.sentiment) AS mood FROM twitter t \
         WHERE t.followers > 50 GROUP BY t.city",
        "SELECT t.city AS city, COUNT(*) AS n, AVG(t.sentiment) AS mood FROM twitter t \
         WHERE t.followers > 50 GROUP BY t.city HAVING COUNT(*) > 2 ORDER BY n DESC",
        "SELECT l.category AS cat, COUNT(*) AS n \
         FROM foursquare f JOIN landmarks l ON f.venue_id = l.venue_id \
         WHERE f.likes > 1 GROUP BY l.category",
        "SELECT b.city AS city, MAX(b.buzz) AS peak FROM APPLY(buzz_score, twitter) b \
         WHERE b.buzz > 0.1 GROUP BY b.city",
        "SELECT t.city AS city, COUNT(*) AS n, AVG(t.sentiment) AS mood FROM twitter t \
         WHERE t.followers > 50 GROUP BY t.city ORDER BY mood DESC LIMIT 3",
        "SELECT l.category AS cat, COUNT(*) AS n \
         FROM foursquare f JOIN landmarks l ON f.venue_id = l.venue_id \
         WHERE f.likes > 1 GROUP BY l.category ORDER BY n DESC",
    ]
    .iter()
    .enumerate()
    .map(|(i, sql)| (format!("q{i}"), compile(sql, &catalog).unwrap()))
    .collect()
}

fn result_rows(result: &ExperimentResult) -> Vec<u64> {
    result.records.iter().map(|r| r.result_rows).collect()
}

/// Every catalog view must be resident in at least one store, and the DW
/// design must fit its storage budget — chaos or not.
fn assert_design_consistent(sys: &MultistoreSystem, context: &str) {
    for name in sys.catalog.names() {
        assert!(
            sys.resident(&name),
            "{context}: catalog view `{name}` lost from both stores"
        );
    }
    assert!(
        sys.dw.views.total_bytes() <= budgets().dw_storage,
        "{context}: DW design exceeds B_d: {}",
        sys.dw.views.total_bytes()
    );
}

#[test]
fn chaos_disabled_runs_are_deterministic() {
    let _lock = CHAOS_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    let _guard = ChaosGuard;
    miso::chaos::disable();

    let corpus = tiny_corpus();
    let queries = stream();
    let run = || {
        let mut sys = system(&corpus);
        sys.run_workload(Variant::MsMiso, &queries).unwrap()
    };
    let a = run();
    let b = run();
    assert_eq!(result_rows(&a), result_rows(&b));
    assert_eq!(
        a.tti_total(),
        b.tti_total(),
        "fault-free runs must be byte-identical"
    );
    assert!(
        a.reorgs.iter().all(|r| r.recoveries == 0 && !r.rolled_back),
        "no recoveries without injected crashes"
    );
}

#[test]
fn hard_dw_outage_degrades_to_hv_with_correct_answers() {
    let _lock = CHAOS_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    let _guard = ChaosGuard;
    miso::chaos::disable();

    let corpus = tiny_corpus();
    let queries = stream();
    let clean = {
        let mut sys = system(&corpus);
        sys.run_workload(Variant::MsMiso, &queries).unwrap()
    };

    // DW and the transfer path are down for the whole run.
    miso::chaos::install(
        FaultPlan::seeded(7)
            .with_rule(FaultRule::new(
                "dw.execute",
                FaultKind::Error,
                Trigger::Always,
            ))
            .with_rule(FaultRule::new(
                "transfer.ship",
                FaultKind::Error,
                Trigger::Always,
            )),
    );
    let mut sys = system(&corpus);
    let faulted = sys
        .run_workload(Variant::MsMiso, &queries)
        .expect("queries must fall back to HV, not error out");
    let attempts = miso::chaos::hit_count("dw.execute") + miso::chaos::hit_count("transfer.ship");
    miso::chaos::disable();

    assert!(attempts > 0, "the outage was never exercised");
    assert_eq!(
        result_rows(&clean),
        result_rows(&faulted),
        "degraded execution changed query answers"
    );
    assert!(
        faulted.tti_total() >= clean.tti_total(),
        "retries and fallbacks cannot make the stream faster"
    );
    assert_design_consistent(&sys, "hard DW outage");
}

#[test]
fn reorg_crash_at_every_step_is_recoverable() {
    let _lock = CHAOS_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    let _guard = ChaosGuard;
    miso::chaos::disable();

    let corpus = tiny_corpus();
    let queries = stream();
    let clean = {
        let mut sys = system(&corpus);
        sys.run_workload(Variant::MsMiso, &queries).unwrap()
    };
    let clean_rows = result_rows(&clean);

    let mut saw_rollback = false;
    let mut saw_replay = false;
    let mut steps_swept = 0u64;
    for step in 1..=512u64 {
        miso::chaos::install(FaultPlan::seeded(step).with_rule(FaultRule::new(
            "reorg.step",
            FaultKind::Crash,
            Trigger::OnHit(step),
        )));
        let mut sys = system(&corpus);
        let faulted = sys
            .run_workload(Variant::MsMiso, &queries)
            .unwrap_or_else(|e| panic!("crash at reorg step {step} leaked: {e}"));
        let hits = miso::chaos::hit_count("reorg.step");
        miso::chaos::disable();

        if hits < step {
            // Fewer total steps than `step`: the crash never fired and the
            // sweep has covered every crash point.
            break;
        }
        steps_swept = step;
        assert_eq!(
            clean_rows,
            result_rows(&faulted),
            "crash at reorg step {step} changed query answers"
        );
        assert_design_consistent(&sys, &format!("crash at reorg step {step}"));
        for reorg in &faulted.reorgs {
            if reorg.rolled_back {
                saw_rollback = true;
                assert!(
                    reorg.moved_to_dw.is_empty() && reorg.moved_to_hv.is_empty(),
                    "a rolled-back reorg must not move views"
                );
            } else if reorg.recoveries > 0 {
                saw_replay = true;
            }
        }
    }

    assert!(
        steps_swept >= 3,
        "stream produced too few reorg steps to sweep"
    );
    assert!(saw_rollback, "sweep never exercised a pre-commit rollback");
    assert!(saw_replay, "sweep never exercised a post-commit replay");
}

#[test]
fn etl_retries_transient_failures_transparently() {
    let _lock = CHAOS_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    let _guard = ChaosGuard;
    miso::chaos::disable();

    let corpus = tiny_corpus();
    let queries = stream();
    let clean = {
        let mut sys = system(&corpus);
        sys.run_workload(Variant::DwOnly, &queries).unwrap()
    };

    // `UpTo(2)` fails the first two hits of `etl.run`: the first ETL job
    // fails twice, then succeeds on its second retry.
    miso::chaos::install(FaultPlan::seeded(11).with_rule(FaultRule::new(
        "etl.run",
        FaultKind::Error,
        Trigger::UpTo(2),
    )));
    let mut sys = system(&corpus);
    let faulted = sys
        .run_workload(Variant::DwOnly, &queries)
        .expect("transient ETL failures must be retried, not fatal");
    let hits = miso::chaos::hit_count("etl.run");
    miso::chaos::disable();

    assert!(hits >= 2, "the ETL fail point was never exercised");
    assert_eq!(result_rows(&clean), result_rows(&faulted));
    assert!(
        faulted.tti.etl > clean.tti.etl,
        "retry backoff must be charged to the ETL bucket"
    );
    // Waiting is charged once, not as Extract-Transform work: the two
    // backoffs are 2 s and 4 s before jitter, at most 25 % longer after it.
    let ceiling = SimDuration::from_millis(2_500 + 5_000);
    assert!(
        faulted.tti.etl - clean.tti.etl <= ceiling,
        "ETL grew by {}, more than the two backoffs",
        faulted.tti.etl - clean.tti.etl
    );
    assert_eq!(
        clean.tti.dw_exe, faulted.tti.dw_exe,
        "retries only touch ETL"
    );
}

/// MS-OFF's planning pass is not part of the run, so it runs with injection
/// suspended: a transient HV fault lands on the charged pass, which retries
/// it like every other variant does, and the answers are a fault-free
/// run's.
#[test]
fn ms_off_retries_a_transient_hv_fault() {
    let _lock = CHAOS_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    let _guard = ChaosGuard;
    miso::chaos::disable();

    let corpus = tiny_corpus();
    let queries = stream();
    let clean = system(&corpus)
        .run_workload(Variant::MsOff, &queries)
        .unwrap();

    miso::chaos::install(FaultPlan::seeded(5).with_rule(FaultRule::new(
        "hv.execute",
        FaultKind::Error,
        Trigger::UpTo(1),
    )));
    let faulted = system(&corpus)
        .run_workload(Variant::MsOff, &queries)
        .expect("one transient HV fault must be retried, not fatal");
    let hits = miso::chaos::hit_count("hv.execute");
    miso::chaos::disable();

    assert!(hits >= 1, "the HV fail point was never exercised");
    assert_eq!(result_rows(&clean), result_rows(&faulted));
    assert!(
        faulted.tti.hv_exe > clean.tti.hv_exe,
        "the retry's backoff is charged to the run"
    );
}
