//! Under streaming growth no answer may come from a stale view: at every
//! position of the 32-query MS-MISO stream, with the twitter log growing
//! 2 % under `Refresh` before each reorganization (the `stream_growth`
//! schedule of `benchmark/`), the plan the optimizer picks on the design as
//! it stands — views, split and all — has the row count **and checksum** of
//! the raw plan run in HV over the grown logs with no views at all. Views
//! harvested from rewritten plans scan only other views; they too must
//! follow the log. And no refresh rebuilds a view because its fold state
//! is cold: the state is captured when the view is harvested.

use miso::common::{Budgets, ByteSize, SimClock};
use miso::core::{
    GrowthConfig, MaintAction, MaintenancePolicy, MultistoreSystem, StepKind, Stream, SystemConfig,
    Variant,
};
use miso::data::checksum_rows;
use miso::data::logs::{Corpus, LogKind, LogsConfig};
use miso::data::Delta;
use miso::plan::LogicalPlan;
use miso::views::FullReason;
use miso::workload::{compile_workload, standard_udfs, workload_catalog};
use miso_serve::{EpochSnapshot, SnapExecutor};
use std::collections::BTreeSet;

/// `LogsConfig::experiment()` scaled down to a tier-1 budget.
fn logs() -> LogsConfig {
    let base = LogsConfig::experiment();
    let quarter = |n: u64| n / 4;
    LogsConfig {
        users: quarter(base.users),
        venues: quarter(base.venues),
        tweets: quarter(base.tweets as u64) as usize,
        checkins: quarter(base.checkins as u64) as usize,
        landmarks: quarter(base.landmarks as u64) as usize,
        seed: 7,
    }
}

/// The evaluation harness's budget convention (as `benchmark/` sets it).
fn budgets(corpus: &Corpus) -> Budgets {
    let hv = corpus.total_size();
    Budgets::new(hv.scale(2.0), hv.scale(0.2), hv.scale(0.02))
        .with_discretization(ByteSize::from_kib(8))
}

#[test]
fn every_answer_under_growth_has_the_hv_only_checksum() {
    let logs = logs();
    let corpus = Corpus::generate(&logs);
    let growth = GrowthConfig {
        kind: LogKind::Twitter,
        records_per_epoch: logs.tweets / 50,
        policy: MaintenancePolicy::Refresh,
        logs: logs.clone(),
    };
    let mut config = SystemConfig::paper_default(budgets(&corpus));
    config.growth = Some(growth.clone());
    let (every, history_len) = (config.reorg_every, config.history_len);
    let mut sys = MultistoreSystem::new(&corpus, workload_catalog(), standard_udfs(), config);
    let stream = compile_workload(&workload_catalog()).expect("the standard workload compiles");
    let mut exec = SnapExecutor::new(standard_udfs());
    let mut history: Vec<LogicalPlan> = Vec::new();
    let (mut from_views, mut over_views, mut batches, mut folds) = (0, 0, 0, 0);
    for (q, (label, raw)) in stream.iter().enumerate() {
        // The driver's own steps at a reorganization boundary.
        if q > 0 && q % every == 0 {
            let delta = Delta::generated(
                &growth.logs,
                growth.kind,
                (q / every) as u64,
                growth.records_per_epoch,
            );
            let report = sys
                .grow(&delta, growth.policy, &mut SimClock::new())
                .expect("growth step applies");
            // Fold state is captured when a view is harvested: no view
            // waits for its first growth step to build it.
            for d in &report.decisions {
                assert_ne!(d.reason, Some(FullReason::StateCold), "{}: cold", d.view);
            }
            folds += report
                .decisions
                .iter()
                .filter(|d| d.action == MaintAction::Delta)
                .count();
            let window = &history[history.len().saturating_sub(history_len)..];
            sys.reorg_now(window, &mut SimClock::new())
                .expect("reorganization runs");
            batches += 1;
            over_views += sys
                .catalog
                .defs()
                .iter()
                .filter(|def| !def.plan.scanned_views().is_empty())
                .count();
        }
        let snap = EpochSnapshot {
            epoch: q as u64,
            hv: sys.hv.clone(),
            dw: sys.dw.clone(),
            catalog: sys.catalog.clone(),
            transfer: sys.transfer_model().clone(),
        };
        let run = exec
            .run(&snap, label, raw, &BTreeSet::new(), false)
            .expect("the planned split runs");
        let oracle = sys
            .hv
            .execute(raw, None, sys.udf_registry())
            .expect("HV-only run of the raw plan");
        let want = oracle.execution.root_rows().expect("oracle root");
        assert_eq!(run.result_rows, want.len() as u64, "{label}: rows");
        assert_eq!(
            run.checksum,
            checksum_rows(want),
            "{label} (views used: {:?}): checksum",
            run.used_views
        );
        from_views += usize::from(!run.used_views.is_empty());
        sys.run_workload(Variant::MsMiso, std::slice::from_ref(&stream[q]))
            .expect("the stream advances");
        history.push(raw.clone());
    }
    assert_eq!(batches, 10, "ten growth steps in 32 queries");
    assert!(from_views > 8, "{from_views} answers read a view");
    assert!(over_views > 0, "no view over a view survived a boundary");
    assert!(folds > 20, "{folds} delta folds");
}

/// MS-OFF takes the same growth steps: at every step of its stream, the
/// next query planned on the design as it stands — the static design's
/// views, maintained through each append — has the HV-only checksum over
/// the logs as they have grown.
#[test]
fn ms_off_under_growth_answers_with_the_hv_only_checksum() {
    let logs = logs();
    let corpus = Corpus::generate(&logs);
    let mut config = SystemConfig::paper_default(budgets(&corpus));
    config.growth = Some(GrowthConfig {
        kind: LogKind::Twitter,
        records_per_epoch: logs.tweets / 50,
        policy: MaintenancePolicy::Refresh,
        logs: logs.clone(),
    });
    let mut sys = MultistoreSystem::new(&corpus, workload_catalog(), standard_udfs(), config);
    let queries = compile_workload(&workload_catalog()).expect("the standard workload compiles");
    let mut exec = SnapExecutor::new(standard_udfs());
    let mut stream = Stream::new(&mut sys, Variant::MsOff, &queries).expect("MS-OFF starts");
    let (mut next, mut grown, mut from_views) = (0, 0, 0);
    // The executor memoizes runs by epoch: one epoch per step.
    for epoch in 0.. {
        let Some(step) = stream.step().expect("the step runs") else {
            break;
        };
        match step.kind {
            StepKind::Query => next += 1,
            StepKind::Growth => grown += 1,
            _ => {}
        }
        let sys = stream.system();
        // The planning pass leaves no view behind, in the stores or the
        // catalog: a growth step maintains only views that exist.
        for name in sys.catalog.names() {
            assert!(sys.resident(&name), "`{name}` resident nowhere");
        }
        let Some((label, raw)) = queries.get(next) else {
            continue;
        };
        let snap = EpochSnapshot {
            epoch,
            hv: sys.hv.clone(),
            dw: sys.dw.clone(),
            catalog: sys.catalog.clone(),
            transfer: sys.transfer_model().clone(),
        };
        let run = exec
            .run(&snap, label, raw, &BTreeSet::new(), false)
            .expect("the planned split runs");
        let oracle = sys
            .hv
            .execute(raw, None, sys.udf_registry())
            .expect("HV-only run of the raw plan");
        let want = oracle.execution.root_rows().expect("oracle root");
        assert_eq!(run.result_rows, want.len() as u64, "{label}: rows");
        assert_eq!(run.checksum, checksum_rows(want), "{label}: checksum");
        from_views += usize::from(!run.used_views.is_empty());
    }
    let result = stream.finish();
    assert_eq!(grown, 10, "ten growth steps in 32 queries");
    assert_eq!(result.maintenance.len(), 10);
    assert_eq!(result.records.len(), queries.len());
    assert!(from_views > 0, "no answer read a view");
}
