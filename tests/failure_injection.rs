//! Failure-injection and edge-condition tests: the system must degrade
//! gracefully, never corrupt results, and report precise errors.
//!
//! Faults with a registry fail point are injected through `miso::chaos`;
//! the remaining tests hand-shape conditions the registry cannot express
//! (malformed input data, missing logs, misconfigured UDFs).

use std::sync::Mutex;

use miso::chaos::{FaultKind, FaultPlan, FaultRule, Trigger};
use miso::common::{Budgets, ByteSize};
use miso::core::{MultistoreSystem, SystemConfig, Variant};
use miso::data::logs::{Corpus, LogFile, LogKind, LogsConfig};
use miso::exec::engine::execute;
use miso::exec::MemSource;
use miso::lang::compile;
use miso::workload::{standard_udfs, workload_catalog};

/// The chaos registry is process-global, so the injection tests below
/// serialize on this lock and switch it off via `ChaosGuard` (including on
/// panic).
static CHAOS_LOCK: Mutex<()> = Mutex::new(());

struct ChaosGuard;

impl Drop for ChaosGuard {
    fn drop(&mut self) {
        miso::chaos::disable();
    }
}

fn budgets() -> Budgets {
    Budgets::new(
        ByteSize::from_mib(16),
        ByteSize::from_mib(2),
        ByteSize::from_mib(1),
    )
    .with_discretization(ByteSize::from_kib(16))
}

#[test]
fn corrupted_log_lines_are_skipped_not_fatal() {
    let mut corpus = Corpus::generate(&LogsConfig::tiny());
    // Corrupt a third of the tweet log in assorted ways.
    let mut lines = corpus.twitter.lines.to_vec();
    for (i, line) in lines.iter_mut().enumerate() {
        match i % 9 {
            0 => *line = "totally not json".to_string(),
            3 => *line = line[..line.len() / 2].to_string(), // truncated
            6 => line.push_str("}} trailing"),               // trailing garbage
            _ => {}
        }
    }
    let expected_good = lines
        .iter()
        .filter(|l| miso::data::json::parse_json(l).is_ok())
        .count();
    corpus.twitter = LogFile {
        kind: LogKind::Twitter,
        size: corpus.twitter.size,
        lines: lines.into(),
    };

    let catalog = workload_catalog();
    let mut sys = MultistoreSystem::new(
        &corpus,
        catalog.clone(),
        standard_udfs(),
        SystemConfig::paper_default(budgets()),
    );
    let q = compile(
        "SELECT COUNT(*) AS n FROM twitter t WHERE t.tweet_id >= 0",
        &catalog,
    )
    .unwrap();
    let result = sys
        .run_workload(Variant::HvOnly, &[("probe".into(), q)])
        .unwrap();
    assert_eq!(result.records[0].result_rows, 1);
    // The count reflects only parseable records.
    assert!(expected_good < corpus.twitter.len());
}

#[test]
fn missing_log_is_a_store_error_not_a_panic() {
    let corpus = Corpus::generate(&LogsConfig::tiny());
    let mut catalog = workload_catalog();
    catalog.add_log("instagram", [("user_id", miso::data::DataType::Int)]);
    let q = compile(
        "SELECT i.user_id FROM instagram i WHERE i.user_id > 0",
        &catalog,
    )
    .unwrap();
    let mut sys = MultistoreSystem::new(
        &corpus,
        catalog,
        standard_udfs(),
        SystemConfig::paper_default(budgets()),
    );
    let err = sys
        .run_workload(Variant::HvOnly, &[("q".into(), q)])
        .unwrap_err();
    assert_eq!(err.layer(), "store");
    assert!(err.to_string().contains("instagram"));
}

#[test]
fn unknown_udf_at_execution_is_an_error() {
    let corpus = Corpus::generate(&LogsConfig::tiny());
    let mut catalog = workload_catalog();
    catalog.add_udf(
        "phantom",
        miso::data::Schema::new(vec![miso::data::Field::new("x", miso::data::DataType::Int)]),
    );
    let q = compile(
        "SELECT p.x FROM APPLY(phantom, twitter) p WHERE p.x > 0",
        &catalog,
    )
    .unwrap();
    // Registry lacks `phantom`.
    let mut sys = MultistoreSystem::new(
        &corpus,
        catalog,
        standard_udfs(),
        SystemConfig::paper_default(budgets()),
    );
    let err = sys
        .run_workload(Variant::HvOnly, &[("q".into(), q)])
        .unwrap_err();
    assert!(err.to_string().contains("phantom"), "{err}");
}

#[test]
fn empty_workload_is_a_clean_no_op() {
    let corpus = Corpus::generate(&LogsConfig::tiny());
    for variant in Variant::ALL {
        let mut sys = MultistoreSystem::new(
            &corpus,
            workload_catalog(),
            standard_udfs(),
            SystemConfig::paper_default(budgets()),
        );
        let result = sys.run_workload(variant, &[]).unwrap();
        assert!(result.records.is_empty(), "{variant}");
        if variant != Variant::DwOnly {
            assert!(
                result.tti_total().is_zero(),
                "{variant}: {}",
                result.tti_total()
            );
        }
    }
}

#[test]
fn queries_over_empty_logs_work() {
    let empty = Corpus {
        twitter: LogFile {
            kind: LogKind::Twitter,
            lines: Default::default(),
            size: ByteSize::ZERO,
        },
        foursquare: LogFile {
            kind: LogKind::Foursquare,
            lines: Default::default(),
            size: ByteSize::ZERO,
        },
        landmarks: LogFile {
            kind: LogKind::Landmarks,
            lines: Default::default(),
            size: ByteSize::ZERO,
        },
    };
    let catalog = workload_catalog();
    let q = compile(
        "SELECT t.city AS c, COUNT(*) AS n FROM twitter t WHERE t.followers > 1 GROUP BY t.city",
        &catalog,
    )
    .unwrap();
    let mut sys = MultistoreSystem::new(
        &empty,
        catalog,
        standard_udfs(),
        SystemConfig::paper_default(budgets()),
    );
    let result = sys
        .run_workload(Variant::MsMiso, &[("q".into(), q)])
        .unwrap();
    assert_eq!(result.records[0].result_rows, 0);
}

#[test]
fn udf_errors_propagate_with_context() {
    use std::sync::Arc;
    let corpus = Corpus::generate(&LogsConfig::tiny());
    let mut catalog = workload_catalog();
    let schema =
        miso::data::Schema::new(vec![miso::data::Field::new("x", miso::data::DataType::Int)]);
    catalog.add_udf("exploder", schema.clone());
    let mut udfs = standard_udfs();
    udfs.register(miso::exec::Udf::new(
        "exploder",
        schema,
        Arc::new(|_row: &miso::data::Row| Err(miso::common::MisoError::Execution("boom".into()))),
    ));
    let q = compile(
        "SELECT e.x FROM APPLY(exploder, twitter) e WHERE e.x > 0",
        &catalog,
    )
    .unwrap();
    let mut src = MemSource::new();
    src.add_log("twitter", corpus.twitter.lines.to_vec());
    let err = execute(&q, &src, &udfs).unwrap_err();
    assert!(err.to_string().contains("boom"));
}

#[test]
fn degenerate_budgets_still_run() {
    let corpus = Corpus::generate(&LogsConfig::tiny());
    let catalog = workload_catalog();
    let q = compile(
        "SELECT t.city AS c, COUNT(*) AS n FROM twitter t WHERE t.followers > 1 GROUP BY t.city",
        &catalog,
    )
    .unwrap();
    // All budgets zero: the system degrades to MS-BASIC-like behaviour.
    let zero = Budgets::new(ByteSize::ZERO, ByteSize::ZERO, ByteSize::ZERO)
        .with_discretization(ByteSize::from_kib(16));
    let mut sys = MultistoreSystem::new(
        &corpus,
        catalog,
        standard_udfs(),
        SystemConfig::paper_default(zero),
    );
    let queries: Vec<_> = (0..4).map(|i| (format!("q{i}"), q.clone())).collect();
    let result = sys.run_workload(Variant::MsMiso, &queries).unwrap();
    assert_eq!(result.records.len(), 4);
    assert!(sys.dw.view_names().is_empty());
    // HV may hold views created since the *last* reorganization (the budget
    // is only enforced at tuning time, paper §3.1), but every reorg must
    // have enforced B_h = 0 when it ran.
    for reorg in &result.reorgs {
        assert!(reorg.moved_to_dw.is_empty());
    }
}

/// The registry-driven sibling of `missing_log_is_a_store_error_not_a_panic`:
/// where a fail point exists (`hv.execute`), faults are injected through
/// the chaos registry instead of being hand-shaped, and still surface as
/// a precise layered error once retries are exhausted — never a panic.
#[test]
fn injected_hv_outage_is_a_transient_error_not_a_panic() {
    let _lock = CHAOS_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    let _guard = ChaosGuard;
    miso::chaos::disable();

    let corpus = Corpus::generate(&LogsConfig::tiny());
    let catalog = workload_catalog();
    let q = compile(
        "SELECT COUNT(*) AS n FROM twitter t WHERE t.tweet_id >= 0",
        &catalog,
    )
    .unwrap();
    miso::chaos::install(FaultPlan::seeded(11).with_rule(FaultRule::new(
        "hv.execute",
        FaultKind::Error,
        Trigger::Always,
    )));
    let mut sys = MultistoreSystem::new(
        &corpus,
        catalog,
        standard_udfs(),
        SystemConfig::paper_default(budgets()),
    );
    let err = sys
        .run_workload(Variant::HvOnly, &[("q".into(), q)])
        .unwrap_err();
    let attempts = miso::chaos::hit_count("hv.execute");
    assert_eq!(err.layer(), "transient");
    assert_eq!(err.source(), Some("hv"), "{err}");
    assert!(
        attempts > 1,
        "a hard outage must be retried before surfacing ({attempts} attempts)"
    );
}

/// The registry-driven sibling of `corrupted_log_lines_are_skipped_not_fatal`:
/// mangled *input* lines are skipped at parse time, while silent corruption
/// of a *stored view* (injected via the `corrupt` chaos kind) is caught by
/// read-time verification, quarantined, and recomputed — either way every
/// served answer stays correct.
#[test]
fn injected_view_corruption_is_quarantined_and_answers_stay_correct() {
    let _lock = CHAOS_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    let _guard = ChaosGuard;
    miso::chaos::disable();
    miso_obs::init(miso_obs::ObsConfig::ring(4096));
    miso_obs::reset_metrics();

    let corpus = Corpus::generate(&LogsConfig::tiny());
    let catalog = workload_catalog();
    let q = compile(
        "SELECT t.city AS c, COUNT(*) AS n FROM twitter t WHERE t.followers > 1 GROUP BY t.city",
        &catalog,
    )
    .unwrap();
    let queries: Vec<_> = (0..3).map(|i| (format!("q{i}"), q.clone())).collect();
    let system = || {
        let mut config = SystemConfig::paper_default(budgets());
        config.verify_on_read = true;
        MultistoreSystem::new(&corpus, workload_catalog(), standard_udfs(), config)
    };
    let clean = system().run_workload(Variant::HvOp, &queries).unwrap();

    // Corrupt the first stored-view read; q0 harvests the view, q1 trips
    // verification and must fall back to recomputing from the raw logs.
    miso::chaos::install(FaultPlan::seeded(5).with_rule(FaultRule::new(
        "hv.view_read",
        FaultKind::Corrupt,
        Trigger::UpTo(1),
    )));
    let mut sys = system();
    let faulted = sys
        .run_workload(Variant::HvOp, &queries)
        .expect("corruption must be quarantined, not fatal");

    let rows = |r: &miso::core::ExperimentResult| -> Vec<u64> {
        r.records.iter().map(|rec| rec.result_rows).collect()
    };
    assert_eq!(
        rows(&clean),
        rows(&faulted),
        "a corrupted stored view leaked into an answer"
    );
    let snap = miso_obs::snapshot();
    let counter = |k: &str| snap.counters.get(k).copied().unwrap_or(0);
    assert!(
        counter("integrity.checksum_failures") >= 1,
        "the injected corruption went undetected"
    );
    assert_eq!(
        counter("integrity.checksum_failures"),
        counter("integrity.quarantined")
    );
    assert!(
        sys.catalog.quarantined_names().is_empty(),
        "re-running the query must repair or drop the quarantined view"
    );
}

#[test]
fn reorg_with_no_views_and_no_history_is_harmless() {
    let corpus = Corpus::generate(&LogsConfig::tiny());
    let catalog = workload_catalog();
    let q = compile(
        "SELECT COUNT(*) AS n FROM landmarks l WHERE l.rating > 0.0",
        &catalog,
    )
    .unwrap();
    let mut cfg = SystemConfig::paper_default(budgets());
    cfg.reorg_every = 1; // reorganize between every pair of queries
    let mut sys = MultistoreSystem::new(&corpus, catalog, standard_udfs(), cfg);
    let queries: Vec<_> = (0..3).map(|i| (format!("q{i}"), q.clone())).collect();
    let result = sys.run_workload(Variant::MsMiso, &queries).unwrap();
    assert_eq!(result.records.len(), 3);
    assert_eq!(result.reorgs.len(), 2);
}
