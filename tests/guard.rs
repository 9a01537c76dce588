//! Guard integration tests: cooperative cancellation, deadlines, memory
//! budgets, admission control, and overload shedding.
//!
//! Two layers are covered. Engine-level tests drive
//! [`miso::exec::execute_subset_guarded`] directly and pin down the
//! determinism contract: a guard trip is a *value*, decided only at serial
//! points, so the outcome (success or exact error kind) is invariant under
//! the worker count. System-level tests drive [`MultistoreSystem`] streams
//! and pin down the control plane: every lost query is classified, shed
//! queries carry a `retry_after` hint, and a killed query never
//! half-publishes catalog or view state.

use std::collections::HashMap;
use std::sync::Arc;

use miso::common::ids::NodeId;
use miso::common::{pool, Budgets, ByteSize, MisoError, QueryGuard, SimDuration};
use miso::core::{ExperimentResult, GuardConfig, MultistoreSystem, SystemConfig, Variant};
use miso::data::logs::{Corpus, LogsConfig};
use miso::data::{DataType, Field, Row, Schema, Value};
use miso::exec::{
    execute_serial, execute_subset_guarded, Execution, MemSource, Retention, UdfRegistry,
};
use miso::lang::compile;
use miso::plan::{AggExpr, AggFunc, BinOp, Expr, LogicalPlan, Operator, PlanBuilder};
use miso::workload::{standard_udfs, workload_catalog};

// ---------------------------------------------------------------------------
// Engine level
// ---------------------------------------------------------------------------

fn int_field(name: &str) -> Field {
    Field::new(name, DataType::Int)
}

/// ScanView ×2 → Join → Project → Aggregate over enough rows to span
/// several morsels: every charged structure (join build, accumulator
/// table) and every per-node check fires at least once.
fn join_agg_fixture() -> (LogicalPlan, MemSource) {
    let mut src = MemSource::new();
    src.add_view(
        "facts",
        (0..10_000)
            .map(|i| {
                Row::new(vec![
                    Value::Int(i % 500),
                    Value::Int((i * 31) % 1000),
                    Value::Float((i % 777) as f64 * 0.5),
                ])
            })
            .collect(),
    );
    src.add_view(
        "dims",
        (0..500)
            .map(|i| {
                Row::new(vec![
                    Value::Int(i),
                    Value::str(format!("seg-{:02}", i % 40)),
                ])
            })
            .collect(),
    );
    let mut b = PlanBuilder::new();
    let facts = b
        .add(
            Operator::ScanView {
                view: "facts".into(),
                schema: Schema::new(vec![
                    int_field("uid"),
                    int_field("val"),
                    Field::new("score", DataType::Float),
                ]),
            },
            vec![],
        )
        .unwrap();
    let dims = b
        .add(
            Operator::ScanView {
                view: "dims".into(),
                schema: Schema::new(vec![int_field("uid"), Field::new("seg", DataType::Str)]),
            },
            vec![],
        )
        .unwrap();
    let join = b
        .add(Operator::Join { on: vec![(0, 0)] }, vec![facts, dims])
        .unwrap();
    let proj = b
        .add(
            Operator::Project {
                exprs: vec![("seg".into(), Expr::col(4)), ("val".into(), Expr::col(1))],
            },
            vec![join],
        )
        .unwrap();
    let agg = b
        .add(
            Operator::Aggregate {
                group_by: vec![0],
                aggs: vec![
                    AggExpr::new(AggFunc::Count, None, "n"),
                    AggExpr::new(AggFunc::Sum, Some(Expr::col(1)), "total"),
                ],
            },
            vec![proj],
        )
        .unwrap();
    let filt = b
        .add(
            Operator::Filter {
                predicate: Expr::Binary {
                    op: BinOp::Lt,
                    left: Box::new(Expr::col(1)),
                    right: Box::new(Expr::lit(1_000_000i64)),
                },
            },
            vec![agg],
        )
        .unwrap();
    (b.finish(filt).unwrap(), src)
}

fn run_guarded(
    plan: &LogicalPlan,
    src: &MemSource,
    guard: &QueryGuard,
) -> miso::common::Result<Execution> {
    execute_subset_guarded(
        plan,
        None,
        HashMap::new(),
        src,
        &UdfRegistry::new(),
        Retention::All,
        guard,
        None,
    )
}

/// The observable outcome of a guarded run: the root rows on success, the
/// stable error kind on a kill. This is the value that must not depend on
/// the thread count.
fn outcome(
    plan: &LogicalPlan,
    src: &MemSource,
    guard: &QueryGuard,
) -> std::result::Result<Vec<Row>, &'static str> {
    match run_guarded(plan, src, guard) {
        Ok(exec) => Ok(exec.root_rows().unwrap().to_vec()),
        Err(e) => Err(e.kind()),
    }
}

/// An inert guard is a no-op: the guarded entry point returns exactly what
/// the preserved serial interpreter returns, node for node.
#[test]
fn inert_guard_matches_serial_oracle() {
    let (plan, src) = join_agg_fixture();
    let udfs = UdfRegistry::new();
    let serial = execute_serial(&plan, &src, &udfs).unwrap();
    let guarded = run_guarded(&plan, &src, QueryGuard::inert_ref()).unwrap();
    let mut ids: Vec<_> = serial.executed_nodes().collect();
    ids.sort_unstable();
    for id in ids {
        assert_eq!(serial.try_output(id), guarded.try_output(id), "node {id}");
    }
}

/// A live guard that never trips (no deadline, unlimited budget) must also
/// leave the answer untouched — and every charge it took must have been
/// released by the time the execution is returned.
#[test]
fn non_tripping_guard_is_transparent_and_releases_charges() {
    let (plan, src) = join_agg_fixture();
    let udfs = UdfRegistry::new();
    let serial = execute_serial(&plan, &src, &udfs).unwrap();
    let guard = QueryGuard::new(None, 0);
    let guarded = run_guarded(&plan, &src, &guard).unwrap();
    assert_eq!(
        serial.root_rows().unwrap(),
        guarded.root_rows().unwrap(),
        "guard charging must not change the answer"
    );
    assert!(guard.peak() > 0, "join/agg structures must be charged");
    assert_eq!(guard.used(), 0, "all charges released on completion");
}

/// Cancellation lands at a deterministic point: for any check budget `n`,
/// the outcome — completion or the exact error kind — is identical at 1, 2
/// and 8 workers.
#[test]
fn cancellation_outcome_is_thread_count_invariant() {
    let (plan, src) = join_agg_fixture();
    let before = pool::threads();
    for n in [1u64, 2, 3, 5, 8, 13, 21, 34, 55] {
        let mut outcomes = Vec::new();
        for t in [1usize, 2, 8] {
            pool::set_threads(t);
            let guard = QueryGuard::new(None, 0);
            guard.cancel_after_checks(n);
            outcomes.push((t, outcome(&plan, &src, &guard)));
        }
        let (_, first) = &outcomes[0];
        for (t, o) in &outcomes {
            assert_eq!(
                o, first,
                "cancel after {n} checks: outcome diverged at {t} threads"
            );
        }
    }
    pool::set_threads(before);
}

/// Sweeps the cancellation point across *every* check the plan performs:
/// each mid-flight kill reports `cancelled` (never a wrong answer, never a
/// panic), and once the budget of checks exceeds what the plan needs, the
/// run completes with the oracle's rows.
#[test]
fn cancel_at_every_check_reports_cancelled_then_completes() {
    let (plan, src) = join_agg_fixture();
    let udfs = UdfRegistry::new();
    let clean = execute_serial(&plan, &src, &udfs).unwrap();
    let clean_rows = clean.root_rows().unwrap();
    let mut kills = 0usize;
    let mut completed = false;
    for n in 1..10_000u64 {
        let guard = QueryGuard::new(None, 0);
        guard.cancel_after_checks(n);
        match run_guarded(&plan, &src, &guard) {
            Ok(exec) => {
                assert_eq!(exec.root_rows().unwrap(), clean_rows);
                completed = true;
                break;
            }
            Err(e) => {
                assert_eq!(e.kind(), "cancelled", "unexpected kill: {e}");
                assert!(guard.is_cancelled());
                kills += 1;
            }
        }
    }
    assert!(completed, "plan never completed within the sweep bound");
    assert!(kills > 3, "sweep should cross several check points");
}

/// An explicitly cancelled guard kills the query before any operator runs.
#[test]
fn pre_cancelled_guard_refuses_to_run() {
    let (plan, src) = join_agg_fixture();
    let guard = QueryGuard::new(None, 0);
    guard.cancel();
    let err = run_guarded(&plan, &src, &guard).unwrap_err();
    assert_eq!(err.kind(), "cancelled");
    assert!(matches!(err, MisoError::Cancelled { .. }));
}

/// A budget smaller than the join build table kills the query with
/// `resource_exhausted`, and the refused charge is never recorded: the
/// recorded peak stays at or under the budget.
#[test]
fn tiny_memory_budget_trips_resource_exhausted() {
    let (plan, src) = join_agg_fixture();
    let budget = 4 * 1024; // join build alone needs ~500 rows × 28 B
    let guard = QueryGuard::new(None, budget);
    let err = run_guarded(&plan, &src, &guard).unwrap_err();
    assert_eq!(err.kind(), "resource_exhausted");
    assert!(matches!(err, MisoError::ResourceExhausted { .. }));
    assert!(
        guard.peak() <= budget,
        "refused charges must not be recorded: peak {} > budget {budget}",
        guard.peak()
    );
}

/// ScanView ×2 → Filter → Project of bare column references → Aggregate →
/// Join, over the facts and dims of [`join_agg_fixture`]: one of each kernel
/// with a typed arm. Returns the plan, the source, and the filter's and the
/// projection's ids.
fn typed_kernels_fixture() -> (LogicalPlan, MemSource, NodeId, NodeId) {
    let (_, src) = join_agg_fixture();
    let mut b = PlanBuilder::new();
    let mut scan = |view: &str, fields: Vec<Field>| {
        let op = Operator::ScanView {
            view: view.into(),
            schema: Schema::new(fields),
        };
        b.add(op, vec![]).unwrap()
    };
    let score = Field::new("score", DataType::Float);
    let facts = scan("facts", vec![int_field("uid"), int_field("val"), score]);
    let dims = scan(
        "dims",
        vec![int_field("uid"), Field::new("seg", DataType::Str)],
    );
    let predicate = Expr::Binary {
        op: BinOp::Lt,
        left: Box::new(Expr::col(1)),
        right: Box::new(Expr::lit(900i64)),
    };
    let filt = b.add(Operator::Filter { predicate }, vec![facts]).unwrap();
    let exprs = vec![("uid".into(), Expr::col(0)), ("score".into(), Expr::col(2))];
    let proj = b.add(Operator::Project { exprs }, vec![filt]).unwrap();
    let aggs = vec![
        AggExpr::new(AggFunc::Count, None, "n"),
        AggExpr::new(AggFunc::Max, Some(Expr::col(1)), "top"),
    ];
    let group_by = vec![0];
    let agg = b
        .add(Operator::Aggregate { group_by, aggs }, vec![proj])
        .unwrap();
    let join = b
        .add(Operator::Join { on: vec![(0, 0)] }, vec![agg, dims])
        .unwrap();
    (b.finish(join).unwrap(), src, filt, proj)
}

/// What the typed kernels must not move, pinned to the values recorded
/// before them (PR 24): a projection of bare references hands on its input's
/// own columns and charges the guard the same bytes, and the whole plan
/// peaks at the same charge.
#[test]
fn a_bare_reference_projection_shares_its_input_and_charges_as_before() {
    let (plan, src, filt, proj) = typed_kernels_fixture();
    let guard = QueryGuard::new(None, 0);
    let exec = run_guarded(&plan, &src, &guard).unwrap();
    let (input, output) = (exec.batch(filt).unwrap(), exec.batch(proj).unwrap());
    assert!(Arc::ptr_eq(&output.columns()[0], &input.columns()[0]));
    assert!(Arc::ptr_eq(&output.columns()[1], &input.columns()[2]));
    assert_eq!(exec.profile(proj).unwrap().bytes_out, Some(162_000));
    assert_eq!(guard.peak(), 515_200);
    assert_eq!(exec.root_rows().unwrap().len(), 500);
}

/// The typed kernels check the guard where the per-cell ones did: the
/// smallest check budget the plan completes in is the one recorded before
/// them (PR 24), at one thread and at eight.
#[test]
fn the_typed_kernels_check_the_guard_as_often_as_before() {
    let (plan, src, _, _) = typed_kernels_fixture();
    let before = pool::threads();
    for threads in [1, 8] {
        pool::set_threads(threads);
        let completes = |n: u64| {
            let guard = QueryGuard::new(None, 0);
            guard.cancel_after_checks(n);
            run_guarded(&plan, &src, &guard).is_ok()
        };
        let first = (1..1_000).find(|&n| completes(n));
        assert_eq!(first, Some(12), "{threads} threads");
    }
    pool::set_threads(before);
}

// ---------------------------------------------------------------------------
// System level
// ---------------------------------------------------------------------------

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

fn system_with_guard(corpus: &Corpus, guard: GuardConfig) -> MultistoreSystem {
    let mut config = SystemConfig::paper_default(budgets());
    config.guard = guard;
    MultistoreSystem::new(corpus, workload_catalog(), standard_udfs(), config)
}

/// The same evolving stream the chaos tests drive.
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

/// An observe-only guard (enabled, but no deadline, unlimited budget,
/// unbounded admission) must be invisible: identical rows and identical
/// simulated time to a guards-off run.
#[test]
fn observe_only_guard_changes_nothing() {
    let corpus = tiny_corpus();
    let queries = stream();
    let off = system_with_guard(&corpus, GuardConfig::disabled())
        .run_workload(Variant::MsMiso, &queries)
        .unwrap();
    let on = system_with_guard(
        &corpus,
        GuardConfig {
            enabled: true,
            ..GuardConfig::disabled()
        },
    )
    .run_workload(Variant::MsMiso, &queries)
    .unwrap();
    assert!(on.failures.is_empty(), "observe-only guards kill nothing");
    assert_eq!(result_rows(&off), result_rows(&on));
    assert_eq!(off.tti_total(), on.tti_total(), "guards must not add cost");
}

/// A zero deadline kills every admitted query at its first store call, the
/// overload breaker then opens and sheds the tail — and through all of it
/// the stream keeps running, every loss is classified, and no killed query
/// leaves a view behind.
#[test]
fn zero_deadline_kills_are_classified_and_publish_nothing() {
    let corpus = tiny_corpus();
    let queries = stream();
    let mut sys = system_with_guard(
        &corpus,
        GuardConfig {
            enabled: true,
            deadline: Some(SimDuration::ZERO),
            shed_threshold: 3,
            shed_cooldown: SimDuration::from_secs(1_000_000),
            ..GuardConfig::disabled()
        },
    );
    let views_before: Vec<String> = sys.catalog.names();
    let result = sys.run_workload(Variant::MsMiso, &queries).unwrap();

    assert!(result.records.is_empty(), "nothing outruns a zero deadline");
    assert_eq!(
        result.failures.len(),
        queries.len(),
        "every query must be accounted for"
    );
    let killed: Vec<_> = result.failures.iter().filter(|f| !f.shed).collect();
    let shed: Vec<_> = result.failures.iter().filter(|f| f.shed).collect();
    assert_eq!(killed.len(), 3, "breaker opens after shed_threshold kills");
    assert_eq!(shed.len(), queries.len() - 3, "the tail is shed");
    for f in killed {
        assert_eq!(f.kind, "cancelled", "deadline kills report `cancelled`");
        assert!(f.retry_after.is_none());
    }
    for f in shed {
        assert_eq!(f.kind, "resource_exhausted");
        assert!(f.retry_after.is_some(), "shed queries get a retry hint");
    }
    // No half-publish: killed queries must not have grown the catalog, and
    // the DW staging area must be clean.
    assert_eq!(
        sys.catalog.names(),
        views_before,
        "killed queries must not publish views"
    );
    assert!(
        sys.dw.views.total_bytes() <= budgets().dw_storage,
        "DW design within budget after kills"
    );
}

/// `max_inflight: 0` is drain mode: everything is shed at admission with a
/// `retry_after` hint, nothing executes, the process stays healthy.
#[test]
fn zero_inflight_sheds_everything_at_admission() {
    let corpus = tiny_corpus();
    let queries = stream();
    let mut sys = system_with_guard(
        &corpus,
        GuardConfig {
            enabled: true,
            max_inflight: 0,
            ..GuardConfig::disabled()
        },
    );
    let result = sys.run_workload(Variant::MsMiso, &queries).unwrap();
    assert!(result.records.is_empty());
    assert_eq!(result.failures.len(), queries.len());
    for f in &result.failures {
        assert!(f.shed, "admission-capacity losses are sheds");
        assert_eq!(f.kind, "resource_exhausted");
        assert_eq!(
            f.retry_after,
            Some(GuardConfig::disabled().shed_cooldown),
            "retry hint is the configured cooldown"
        );
    }
}

/// Every variant passes admission, DW-ONLY and MS-OFF too: in drain mode
/// each sheds every query, after its prelude.
#[test]
fn every_variant_sheds_everything_in_drain_mode() {
    let corpus = tiny_corpus();
    let queries = stream();
    for variant in Variant::ALL {
        let drain = GuardConfig {
            enabled: true,
            max_inflight: 0,
            ..GuardConfig::disabled()
        };
        let result = system_with_guard(&corpus, drain)
            .run_workload(variant, &queries)
            .unwrap();
        assert!(result.records.is_empty(), "{variant} answered a query");
        assert_eq!(result.failures.len(), queries.len(), "{variant}");
        assert!(result.failures.iter().all(|f| f.shed), "{variant}");
    }
}

/// Deadlines generous enough for the whole stream change nothing: same
/// rows as guards-off, zero failures — the guard layer only ever *removes*
/// queries, it never perturbs the ones it admits.
#[test]
fn generous_deadline_admits_everything_unchanged() {
    let corpus = tiny_corpus();
    let queries = stream();
    let off = system_with_guard(&corpus, GuardConfig::disabled())
        .run_workload(Variant::MsMiso, &queries)
        .unwrap();
    let guarded = system_with_guard(
        &corpus,
        GuardConfig {
            enabled: true,
            deadline: Some(SimDuration::from_secs(u64::MAX / 1_000_000 / 2)),
            mem_budget: ByteSize::from_mib(512),
            max_inflight: 1,
            ..GuardConfig::disabled()
        },
    )
    .run_workload(Variant::MsMiso, &queries)
    .unwrap();
    assert!(guarded.failures.is_empty());
    assert_eq!(result_rows(&off), result_rows(&guarded));
    assert_eq!(off.tti_total(), guarded.tti_total());
}
