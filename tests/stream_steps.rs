//! One stream loop: a [`Stream`] stepped to its end is
//! [`MultistoreSystem::run_workload`] — the same records, failures,
//! reorganizations, maintenance reports and TTI buckets — for all eight
//! variants at pool widths 1 and 8, and for MS-MISO under a `Refresh`
//! growth schedule with guards on. Every step says what it did and how much
//! simulated time it took: the kinds follow the variant's row of the policy
//! table, and the times sum to the run's TTI.

use miso::common::{pool, Budgets, ByteSize, SimDuration};
use miso::core::{
    ExperimentResult, GrowthConfig, GuardConfig, MaintenancePolicy, MultistoreSystem, Prelude,
    StepKind, Stream, SystemConfig, Tuning, Variant,
};
use miso::data::logs::{Corpus, LogKind, LogsConfig};
use miso::plan::LogicalPlan;
use miso::workload::{compile_workload, standard_udfs, workload_catalog};

/// Queries per run: three reorganization boundaries at `reorg_every = 3`.
const QUERIES: usize = 9;

fn budgets() -> Budgets {
    Budgets::new(
        ByteSize::from_mib(32),
        ByteSize::from_mib(4),
        ByteSize::from_mib(2),
    )
    .with_discretization(ByteSize::from_kib(16))
}

fn system(corpus: &Corpus, config: &SystemConfig) -> MultistoreSystem {
    MultistoreSystem::new(corpus, workload_catalog(), standard_udfs(), config.clone())
}

fn queries() -> Vec<(String, LogicalPlan)> {
    let mut all = compile_workload(&workload_catalog()).expect("the workload compiles");
    all.truncate(QUERIES);
    all
}

/// Steps a fresh system's stream to its end: its kinds, the sum of its
/// step times, and what it measured.
fn stepped(
    corpus: &Corpus,
    config: &SystemConfig,
    variant: Variant,
    queries: &[(String, LogicalPlan)],
) -> (Vec<StepKind>, SimDuration, ExperimentResult) {
    let mut sys = system(corpus, config);
    let mut stream = Stream::new(&mut sys, variant, queries).expect("the stream starts");
    let (mut kinds, mut sim) = (Vec::new(), SimDuration::ZERO);
    while let Some(step) = stream.step().expect("the step runs") {
        kinds.push(step.kind);
        sim += step.sim;
    }
    (kinds, sim, stream.finish())
}

/// The kinds the policy table implies: the prelude, then at every boundary
/// a growth step when the system grows and a reorganization when the
/// variant tunes, then the query.
fn expected_kinds(variant: Variant, config: &SystemConfig, n: usize) -> Vec<StepKind> {
    let policy = variant.policy();
    let mut kinds = Vec::new();
    if policy.prelude != Prelude::None {
        kinds.push(StepKind::Prelude);
    }
    for i in 0..n {
        if i > 0 && i % config.reorg_every == 0 {
            if config.growth.is_some() {
                kinds.push(StepKind::Growth);
            }
            if policy.tuning != Tuning::None {
                kinds.push(StepKind::Reorg);
            }
        }
        kinds.push(StepKind::Query);
    }
    kinds
}

/// Checks a stepped stream against one `run_workload` call; returns what
/// the stream measured.
fn check(
    corpus: &Corpus,
    config: &SystemConfig,
    variant: Variant,
    context: &str,
) -> ExperimentResult {
    let queries = queries();
    let one_call = system(corpus, config)
        .run_workload(variant, &queries)
        .expect("the workload runs");
    let (kinds, sim, result) = stepped(corpus, config, variant, &queries);
    // Debug prints every field of every record, failure, reorg and
    // maintenance report, and every TTI bucket.
    assert_eq!(
        format!("{result:?}"),
        format!("{one_call:?}"),
        "{context}: a stepped stream measured what run_workload measured"
    );
    assert_eq!(sim, result.tti_total(), "{context}: step times sum to TTI");
    assert_eq!(
        kinds,
        expected_kinds(variant, config, queries.len()),
        "{context}: step kinds"
    );
    result
}

#[test]
fn stepping_is_one_call_for_every_variant_at_widths_1_and_8() {
    let corpus = Corpus::generate(&LogsConfig::tiny());
    let config = SystemConfig::paper_default(budgets());
    let before = pool::threads();
    for width in [1, 8] {
        pool::set_threads(width);
        for variant in Variant::ALL {
            let context = format!("{variant} at width {width}");
            check(&corpus, &config, variant, &context);
        }
    }
    pool::set_threads(before);
}

#[test]
fn stepping_is_one_call_under_growth_and_guards() {
    let logs = LogsConfig::tiny();
    let corpus = Corpus::generate(&logs);
    let mut config = SystemConfig::paper_default(budgets());
    config.growth = Some(GrowthConfig {
        kind: LogKind::Twitter,
        records_per_epoch: logs.tweets / 50,
        policy: MaintenancePolicy::Refresh,
        logs,
    });
    // A 200 s deadline kills the slowest queries, and kills in a row
    // open the overload breaker: some queries answer, some fail.
    config.guard = GuardConfig {
        enabled: true,
        deadline: Some(SimDuration::from_secs(200)),
        ..GuardConfig::disabled()
    };
    let before = pool::threads();
    for width in [1, 8] {
        pool::set_threads(width);
        let result = check(
            &corpus,
            &config,
            Variant::MsMiso,
            &format!("growth at width {width}"),
        );
        assert!(!result.records.is_empty() && !result.failures.is_empty());
        assert_eq!(result.maintenance.len(), 2, "one growth step per boundary");
    }
    pool::set_threads(before);
    // Q Q Q G R Q Q Q G R Q Q Q: growth before each reorganization.
    use StepKind::{Growth as G, Query as Q, Reorg as R};
    let want = [Q, Q, Q, G, R, Q, Q, Q, G, R, Q, Q, Q];
    assert_eq!(expected_kinds(Variant::MsMiso, &config, QUERIES), want);
}

/// DW-ONLY's ETL'd tables do not follow an append: a growth schedule is
/// refused before anything runs, with a classified error.
#[test]
fn dw_only_refuses_a_growth_schedule() {
    let logs = LogsConfig::tiny();
    let corpus = Corpus::generate(&logs);
    let mut config = SystemConfig::paper_default(budgets());
    config.growth = Some(GrowthConfig {
        kind: LogKind::Twitter,
        records_per_epoch: 10,
        policy: MaintenancePolicy::Refresh,
        logs,
    });
    let mut sys = system(&corpus, &config);
    let queries = queries();
    let err = Stream::new(&mut sys, Variant::DwOnly, &queries)
        .err()
        .expect("DW-ONLY refuses to grow");
    assert_eq!(err.kind(), "config");
    let err = sys.run_workload(Variant::DwOnly, &queries).unwrap_err();
    assert_eq!(err.kind(), "config");
    assert!(sys.dw.views.names().is_empty(), "no ETL ran");
}
