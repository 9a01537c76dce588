//! Integrity integration tests: silent corruption of stored view content
//! must be detected, quarantined, re-planned around, and eventually
//! repaired — without ever changing a query answer.
//!
//! The chaos registry and the obs counters are process-global, so every
//! test serializes on `INTEGRITY_LOCK` and switches chaos off before
//! releasing it (including on panic, via `IntegrityGuard`).

use std::sync::Mutex;

use miso::chaos::{FaultKind, FaultPlan, FaultRule, Trigger};
use miso::common::{Budgets, ByteSize};
use miso::core::{AuditConfig, ExperimentResult, MultistoreSystem, SystemConfig, Variant};
use miso::data::logs::{Corpus, LogsConfig};
use miso::lang::compile;
use miso::plan::LogicalPlan;
use miso::workload::{standard_udfs, workload_catalog};

static INTEGRITY_LOCK: Mutex<()> = Mutex::new(());

/// Switches chaos off when dropped, so a panicking test cannot leak its
/// fault plan into the next one.
struct IntegrityGuard;

impl Drop for IntegrityGuard {
    fn drop(&mut self) {
        miso::chaos::disable();
    }
}

fn obs() {
    // Counters must flow for the assertions below; init is idempotent.
    miso_obs::init(miso_obs::ObsConfig::ring(4096));
    miso_obs::reset_metrics();
}

fn counter(name: &str) -> u64 {
    miso_obs::snapshot()
        .counters
        .get(name)
        .copied()
        .unwrap_or(0)
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
    system_with(corpus, SystemConfig::paper_default(budgets()))
}

/// A system that re-verifies every view's checksum on read.
fn verifying_system(corpus: &Corpus) -> MultistoreSystem {
    let mut config = SystemConfig::paper_default(budgets());
    config.verify_on_read = true;
    system_with(corpus, config)
}

fn system_with(corpus: &Corpus, config: SystemConfig) -> MultistoreSystem {
    MultistoreSystem::new(corpus, workload_catalog(), standard_udfs(), config)
}

/// The same evolving stream the chaos tests drive — enough reuse to
/// harvest views, split plans, and trigger reorganizations.
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

/// Quarantine-aware design consistency: every non-quarantined catalog view
/// resident somewhere, quarantined views resident nowhere, B_d holds.
fn assert_design_consistent(sys: &MultistoreSystem, context: &str) {
    for name in sys.catalog.names() {
        let resident = sys.resident(&name);
        if sys.catalog.is_quarantined(&name) {
            assert!(
                !resident,
                "{context}: quarantined view `{name}` still resident"
            );
        } else {
            assert!(
                resident,
                "{context}: catalog view `{name}` lost from both stores"
            );
        }
    }
    assert!(
        sys.dw.views.total_bytes() <= budgets().dw_storage,
        "{context}: DW design exceeds B_d"
    );
}

/// Corrupts one resident catalog view (deterministically the first in
/// sorted order) in whichever store holds it; returns its name.
fn corrupt_one_view(sys: &mut MultistoreSystem) -> String {
    for name in sys.catalog.names() {
        if sys.hv.views.contains(&name) {
            assert!(sys.hv.views.corrupt(&name));
            return name;
        }
        if sys.dw.views.contains(&name) {
            assert!(sys.dw.views.corrupt(&name));
            return name;
        }
    }
    panic!("no resident catalog view to corrupt");
}

#[test]
fn checksums_are_stable_across_system_instances() {
    let _lock = INTEGRITY_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    let _guard = IntegrityGuard;
    miso::chaos::disable();

    let corpus = tiny_corpus();
    let queries = stream();
    let catalog_sums = |sys: &MultistoreSystem| -> Vec<(String, Option<u64>)> {
        sys.catalog
            .names()
            .into_iter()
            .map(|n| {
                let c = sys.catalog.get(&n).unwrap().checksum.map(|c| c.0);
                (n, c)
            })
            .collect()
    };
    let mut a = system(&corpus);
    a.run_workload(Variant::HvOp, &queries).unwrap();
    let mut b = system(&corpus);
    b.run_workload(Variant::HvOp, &queries).unwrap();
    let sums_a = catalog_sums(&a);
    assert!(!sums_a.is_empty(), "HV-OP must harvest views");
    assert!(
        sums_a.iter().all(|(_, c)| c.is_some()),
        "every harvested view carries a materialization checksum"
    );
    assert_eq!(
        sums_a,
        catalog_sums(&b),
        "checksums must be deterministic across system instances"
    );
    // And the stored copies agree with the catalog's record.
    for (name, sum) in sums_a {
        let expected = miso::data::Checksum(sum.unwrap());
        assert_eq!(
            a.hv.views.verify(&name, expected),
            Some(true),
            "stored copy of `{name}` disagrees with its catalog checksum"
        );
    }
}

#[test]
fn injected_read_corruption_never_changes_answers() {
    let _lock = INTEGRITY_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    let _guard = IntegrityGuard;
    miso::chaos::disable();
    obs();

    let corpus = tiny_corpus();
    let queries = stream();
    let clean = {
        let mut sys = system(&corpus);
        sys.run_workload(Variant::MsMiso, &queries).unwrap()
    };
    assert_eq!(
        counter("integrity.checksum_failures"),
        0,
        "clean run must not report corruption"
    );

    miso::chaos::install(
        FaultPlan::seeded(23)
            .with_rule(FaultRule::new(
                "hv.view_read",
                FaultKind::Corrupt,
                Trigger::Prob(0.4),
            ))
            .with_rule(FaultRule::new(
                "dw.view_read",
                FaultKind::Corrupt,
                Trigger::Prob(0.4),
            )),
    );
    let mut sys = verifying_system(&corpus);
    let faulted = sys
        .run_workload(Variant::MsMiso, &queries)
        .expect("corruption must be quarantined, not fatal");
    miso::chaos::disable();

    assert_eq!(
        result_rows(&clean),
        result_rows(&faulted),
        "served answers diverged under read corruption"
    );
    assert!(
        counter("chaos.corruptions_injected") > 0,
        "the corruption points were never exercised"
    );
    assert!(
        counter("integrity.checksum_failures") > 0,
        "injected corruption went undetected"
    );
    assert_eq!(
        counter("integrity.checksum_failures"),
        counter("integrity.quarantined"),
        "every read-time failure must quarantine its view"
    );
    assert!(
        counter("query.view_fallback") > 0,
        "quarantine must force a re-plan"
    );
    assert_design_consistent(&sys, "read corruption");
}

#[test]
fn quarantine_repair_serve_survives_crash_mid_reorg() {
    let _lock = INTEGRITY_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    let _guard = IntegrityGuard;
    miso::chaos::disable();
    obs();

    let corpus = tiny_corpus();
    let queries = stream();
    // Baseline: the same two-phase protocol, fault-free.
    let baseline = {
        let mut sys = system(&corpus);
        sys.run_workload(Variant::MsMiso, &queries).unwrap();
        sys.run_workload(Variant::MsMiso, &queries).unwrap()
    };
    let baseline_rows = result_rows(&baseline);

    let audit = AuditConfig::counting(ByteSize::from_mib(64));
    let mut steps_swept = 0u64;
    for step in 1..=64u64 {
        // Phase 1: populate views, then corrupt one and let the auditor
        // quarantine it.
        let mut sys = verifying_system(&corpus);
        sys.run_workload(Variant::MsMiso, &queries).unwrap();
        // Corrupt a DW-resident view: its subplan is hot enough that the
        // replay rematerializes it, exercising repair rather than drop.
        let victim = sys
            .catalog
            .names()
            .into_iter()
            .find(|n| sys.dw.views.contains(n))
            .expect("MS-MISO keeps views in DW");
        assert!(sys.dw.views.corrupt(&victim));
        let report = sys.audit_pass(&audit).unwrap();
        assert_eq!(
            report.quarantined,
            vec![victim.clone()],
            "scrub must quarantine exactly the corrupted view"
        );

        // Phase 2: re-run the stream with a crash injected at reorg step
        // `step` while the repair is pending.
        miso::chaos::install(FaultPlan::seeded(step).with_rule(FaultRule::new(
            "reorg.step",
            FaultKind::Crash,
            Trigger::OnHit(step),
        )));
        let replay = sys
            .run_workload(Variant::MsMiso, &queries)
            .unwrap_or_else(|e| panic!("crash at reorg step {step} leaked: {e}"));
        let hits = miso::chaos::hit_count("reorg.step");
        miso::chaos::disable();

        assert_eq!(
            baseline_rows,
            result_rows(&replay),
            "crash at reorg step {step} with a pending repair changed answers"
        );
        assert_design_consistent(&sys, &format!("crash at reorg step {step}"));
        assert!(
            sys.catalog.quarantined_names().is_empty(),
            "crash at reorg step {step}: quarantine never resolved (repair or drop)"
        );
        if hits < step {
            // The crash never fired: the sweep has covered every step.
            break;
        }
        steps_swept = step;
    }

    assert!(
        steps_swept >= 3,
        "stream produced too few reorg steps to sweep ({steps_swept})"
    );
    assert!(
        counter("integrity.repaired") > 0,
        "the sweep never exercised a repair"
    );
}

#[test]
fn tuner_drops_quarantined_views_not_worth_recomputing() {
    let _lock = INTEGRITY_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    let _guard = IntegrityGuard;
    miso::chaos::disable();
    obs();

    let corpus = tiny_corpus();
    let catalog = workload_catalog();
    let mut sys = system(&corpus);
    sys.run_workload(Variant::MsMiso, &stream()).unwrap();
    let victim = corrupt_one_view(&mut sys);
    sys.audit_pass(&AuditConfig::counting(ByteSize::from_mib(64)))
        .unwrap();
    assert!(sys.catalog.is_quarantined(&victim));

    // A follow-up stream of unrelated queries: the tuner window gives the
    // quarantined view no benefit, so the next reorganization drops it
    // rather than paying its recompute cost.
    let unrelated = compile(
        "SELECT COUNT(*) AS n FROM landmarks l WHERE l.rating > 0.0",
        &catalog,
    )
    .unwrap();
    let follow_up: Vec<_> = (0..4)
        .map(|i| (format!("u{i}"), unrelated.clone()))
        .collect();
    sys.run_workload(Variant::MsMiso, &follow_up).unwrap();

    assert!(
        !sys.catalog.contains(&victim),
        "worthless quarantined view must be dropped from the catalog"
    );
    assert!(!sys.hv.views.contains(&victim) && !sys.dw.views.contains(&victim));
    assert_design_consistent(&sys, "tuner drop");
}

/// Under MS-LRU a working set shipped to DW is kept there as a view. When
/// that view was quarantined, the next shipment of the same working set
/// restores it: resident again, no longer quarantined, counted as a repair.
#[test]
fn a_reshipped_working_set_restores_its_quarantined_view() {
    let _lock = INTEGRITY_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    let _guard = IntegrityGuard;
    miso::chaos::disable();
    obs();

    let corpus = tiny_corpus();
    let queries = stream();
    let mut sys = verifying_system(&corpus);
    sys.run_workload(Variant::MsLru, &queries).unwrap();
    let victims = sys.dw.views.names();
    assert!(!victims.is_empty(), "MS-LRU keeps working sets in DW");
    for name in &victims {
        assert!(sys.dw.views.corrupt(name));
    }
    sys.run_workload(Variant::MsLru, &queries).unwrap();
    assert!(
        counter("integrity.quarantined") > 0,
        "reads of the corrupt copies must quarantine them"
    );
    assert!(
        counter("integrity.repaired") > 0,
        "a re-shipped working set must lift its view's quarantine"
    );
    assert_design_consistent(&sys, "re-shipped working sets");
    sys.audit_pass(&AuditConfig::strict(ByteSize::ZERO))
        .expect("no quarantined view is resident");
}
