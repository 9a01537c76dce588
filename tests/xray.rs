//! miso-xray integration tests: per-operator profiles, their thread-count
//! invariance, and the calibration feedback loop's determinism contract.
//!
//! The profiling flag and the worker pool are process-global, so every test
//! that flips either serializes on one lock (and restores the prior state),
//! keeping the default parallel test runner race-free.

use std::collections::BTreeMap;
use std::sync::{Arc, Mutex, MutexGuard, OnceLock};

use miso::common::{pool, Budgets, ByteSize};
use miso::core::{ExperimentResult, MultistoreSystem, SystemConfig, Variant};
use miso::data::logs::{Corpus, LogsConfig};
use miso::data::{DataType, Field, Row, Schema, Value};
use miso::dw::DwCostModel;
use miso::exec::engine::execute;
use miso::exec::{profile, MemSource, Udf, UdfRegistry};
use miso::hv::HvCostModel;
use miso::lang::compile;
use miso::plan::{AggExpr, AggFunc, BinOp, Expr, LogicalPlan, Operator, PlanBuilder};

fn lock() -> MutexGuard<'static, ()> {
    static L: OnceLock<Mutex<()>> = OnceLock::new();
    L.get_or_init(|| Mutex::new(()))
        .lock()
        .unwrap_or_else(|e| e.into_inner())
}

/// Restores the profiling flag (and optionally the pool width) on drop, so
/// assertion failures cannot leak state into later tests.
struct FlagGuard {
    was_profiling: bool,
    threads: usize,
}

impl FlagGuard {
    fn set(profiling: bool) -> FlagGuard {
        let g = FlagGuard {
            was_profiling: profile::enabled(),
            threads: pool::threads(),
        };
        profile::set_enabled(profiling);
        g
    }
}

impl Drop for FlagGuard {
    fn drop(&mut self) {
        profile::set_enabled(self.was_profiling);
        pool::set_threads(self.threads);
    }
}

fn int_field(name: &str) -> Field {
    Field::new(name, DataType::Int)
}

/// ScanLog → Udf → Filter → Sort → Limit over enough rows to span many
/// morsels, with malformed lines mixed in.
fn log_plan() -> (LogicalPlan, MemSource, UdfRegistry) {
    let mut lines = Vec::new();
    for i in 0..20_000u64 {
        if i % 61 == 17 {
            lines.push(format!("not json #{i}"));
        } else {
            lines.push(format!(
                r#"{{"uid": {}, "score": {}}}"#,
                i % 900,
                (i * 13) % 500
            ));
        }
    }
    let mut src = MemSource::new();
    src.add_log("events", lines);

    let mut udfs = UdfRegistry::new();
    let udf_schema = Schema::new(vec![int_field("uid"), int_field("score")]);
    udfs.register(Udf::new(
        "uid_score",
        udf_schema.clone(),
        Arc::new(|row: &Row| {
            let rec = row.get(0);
            match (
                rec.get_field("uid").and_then(Value::as_i64),
                rec.get_field("score").and_then(Value::as_i64),
            ) {
                (Some(uid), Some(score)) if uid % 7 != 3 => {
                    Ok(vec![Row::new(vec![Value::Int(uid), Value::Int(score)])])
                }
                _ => Ok(vec![]),
            }
        }),
    ));

    let mut b = PlanBuilder::new();
    let scan = b
        .add(
            Operator::ScanLog {
                log: "events".into(),
            },
            vec![],
        )
        .unwrap();
    let udf = b
        .add(
            Operator::Udf {
                name: "uid_score".into(),
                output: udf_schema,
            },
            vec![scan],
        )
        .unwrap();
    let filt = b
        .add(
            Operator::Filter {
                predicate: Expr::Binary {
                    op: BinOp::Lt,
                    left: Box::new(Expr::col(1)),
                    right: Box::new(Expr::lit(400i64)),
                },
            },
            vec![udf],
        )
        .unwrap();
    let sort = b
        .add(
            Operator::Sort {
                keys: vec![(1, true), (0, false)],
            },
            vec![filt],
        )
        .unwrap();
    let limit = b.add(Operator::Limit { n: 1000 }, vec![sort]).unwrap();
    (b.finish(limit).unwrap(), src, udfs)
}

/// ScanView ×2 → Join → Project → Aggregate.
fn join_plan() -> (LogicalPlan, MemSource) {
    let mut src = MemSource::new();
    src.add_view(
        "facts",
        (0..30_000)
            .map(|i| Row::new(vec![Value::Int(i % 1500), Value::Int((i * 31) % 1000)]))
            .collect(),
    );
    src.add_view(
        "dims",
        (0..1500)
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
                schema: Schema::new(vec![int_field("uid"), int_field("val")]),
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
                exprs: vec![("seg".into(), Expr::col(3)), ("val".into(), Expr::col(1))],
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
    (b.finish(agg).unwrap(), src)
}

/// Every executed node gets a profile whose row accounting matches the
/// execution's own `rows_out`, and whose `rows_in` is the sum of its inputs'
/// outputs — across every operator kind.
#[test]
fn profiled_rows_match_rows_out_for_every_operator() {
    let _g = lock();
    let _flags = FlagGuard::set(true);

    let (lplan, lsrc, udfs) = log_plan();
    let (jplan, jsrc) = join_plan();

    let runs: Vec<(&str, miso::exec::Execution, &LogicalPlan)> = vec![
        (
            "log pipeline",
            execute(&lplan, &lsrc, &udfs).unwrap(),
            &lplan,
        ),
        (
            "join",
            execute(&jplan, &jsrc, &UdfRegistry::new()).unwrap(),
            &jplan,
        ),
    ];
    for (what, exec, plan) in &runs {
        for node in plan.nodes() {
            let p = exec
                .profile(node.id)
                .unwrap_or_else(|| panic!("{what}: node {} has no profile", node.id));
            assert_eq!(
                p.rows_out,
                exec.rows_out(node.id).unwrap_or(0),
                "{what}: node {} rows_out",
                node.id
            );
            let in_sum: u64 = node.inputs.iter().filter_map(|i| exec.rows_out(*i)).sum();
            assert_eq!(p.rows_in, in_sum, "{what}: node {} rows_in", node.id);
            if p.rows_out > 0 {
                assert!(p.bytes_out > 0, "{what}: node {} bytes_out", node.id);
            }
        }
        assert_eq!(
            exec.profiles().len(),
            plan.len(),
            "{what}: one profile per node"
        );
    }
    // A view scan shares the source's batch: a refcount bump, not a morsel
    // dispatch.
    for node in jplan.nodes() {
        if matches!(node.op, Operator::ScanView { .. }) {
            let scan = runs[1].1.profile(node.id).unwrap();
            assert_eq!((scan.morsels, scan.par_rows), (0, 0), "node {}", node.id);
        }
    }
}

/// All profile fields except wall time are a pure function of the plan and
/// data: byte-identical at 1, 2 and 8 workers.
#[test]
fn profiles_are_thread_count_invariant() {
    let _g = lock();
    let _flags = FlagGuard::set(true);

    let (lplan, lsrc, udfs) = log_plan();
    let (jplan, jsrc) = join_plan();
    for (what, plan, run) in [
        ("log pipeline", &lplan, 0usize),
        ("join pipeline", &jplan, 1),
    ] {
        let mut baseline: Option<BTreeMap<u64, (u64, u64, u64, u64, u64)>> = None;
        for t in [1usize, 2, 8] {
            pool::set_threads(t);
            let exec = if run == 0 {
                execute(plan, &lsrc, &udfs).unwrap()
            } else {
                execute(plan, &jsrc, &UdfRegistry::new()).unwrap()
            };
            let got: BTreeMap<u64, _> = exec
                .profiles()
                .iter()
                .map(|(id, p)| (id.raw(), p.deterministic()))
                .collect();
            match &baseline {
                None => baseline = Some(got),
                Some(want) => assert_eq!(want, &got, "{what} @ {t} threads"),
            }
        }
    }
}

// --- system-level tests over the tiny corpus ---------------------------

fn tiny_corpus() -> Corpus {
    Corpus::generate(&LogsConfig::tiny())
}

fn config() -> SystemConfig {
    SystemConfig::paper_default(
        Budgets::new(
            ByteSize::from_mib(32),
            ByteSize::from_mib(4),
            ByteSize::from_mib(2),
        )
        .with_discretization(ByteSize::from_kib(16)),
    )
}

fn stream() -> Vec<(String, LogicalPlan)> {
    let catalog = miso::workload::workload_catalog();
    [
        "SELECT t.city AS city, COUNT(*) AS n, AVG(t.sentiment) AS mood FROM twitter t \
         WHERE t.followers > 50 GROUP BY t.city",
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
        "SELECT t.city AS city, COUNT(*) AS n FROM twitter t GROUP BY t.city",
    ]
    .iter()
    .enumerate()
    .map(|(i, sql)| (format!("q{i}"), compile(sql, &catalog).unwrap()))
    .collect()
}

fn run_with(config: SystemConfig, corpus: &Corpus) -> (MultistoreSystem, ExperimentResult) {
    let mut sys = MultistoreSystem::new(
        corpus,
        miso::workload::workload_catalog(),
        miso::workload::standard_udfs(),
        config,
    );
    let result = sys.run_workload(Variant::MsMiso, &stream()).unwrap();
    (sys, result)
}

/// Everything a figure binary prints derives from these fields; equality
/// here is what makes fig3/fig5 stdout byte-identical across the flag.
fn assert_results_identical(a: &ExperimentResult, b: &ExperimentResult, what: &str) {
    assert_eq!(a.records.len(), b.records.len(), "{what}: query count");
    for (ra, rb) in a.records.iter().zip(&b.records) {
        assert_eq!(ra.label, rb.label, "{what}: label");
        assert_eq!(ra.result_rows, rb.result_rows, "{what}: {} rows", ra.label);
        assert_eq!(ra.used_views, rb.used_views, "{what}: {} views", ra.label);
        assert_eq!(ra.hv, rb.hv, "{what}: {} hv time", ra.label);
        assert_eq!(ra.dw, rb.dw, "{what}: {} dw time", ra.label);
        assert_eq!(ra.transfer, rb.transfer, "{what}: {} transfer", ra.label);
    }
    assert_eq!(a.reorgs.len(), b.reorgs.len(), "{what}: reorg count");
    for (ra, rb) in a.reorgs.iter().zip(&b.reorgs) {
        assert_eq!(ra.moved_to_dw, rb.moved_to_dw, "{what}: design (to DW)");
        assert_eq!(ra.moved_to_hv, rb.moved_to_hv, "{what}: design (to HV)");
        assert_eq!(ra.dropped, rb.dropped, "{what}: design (dropped)");
    }
}

fn assert_hv_model_eq(a: &HvCostModel, b: &HvCostModel, what: &str) {
    assert_eq!(a.job_startup, b.job_startup, "{what}: hv job_startup");
    assert_eq!(
        a.read_secs_per_byte, b.read_secs_per_byte,
        "{what}: hv read rate"
    );
    assert_eq!(
        a.write_secs_per_byte, b.write_secs_per_byte,
        "{what}: hv write rate"
    );
    assert_eq!(
        a.cpu_secs_per_row, b.cpu_secs_per_row,
        "{what}: hv cpu rate"
    );
    assert_eq!(
        a.dump_secs_per_byte, b.dump_secs_per_byte,
        "{what}: hv dump rate"
    );
}

fn assert_dw_model_eq(a: &DwCostModel, b: &DwCostModel, what: &str) {
    assert_eq!(a.query_startup, b.query_startup, "{what}: dw query_startup");
    assert_eq!(
        a.read_secs_per_byte, b.read_secs_per_byte,
        "{what}: dw read rate"
    );
    assert_eq!(
        a.cpu_secs_per_row, b.cpu_secs_per_row,
        "{what}: dw cpu rate"
    );
    assert_eq!(
        a.load_secs_per_byte, b.load_secs_per_byte,
        "{what}: dw load rate"
    );
}

/// Profiling is observation-only: flipping it changes neither query results
/// nor tuner designs, and off means no xray artifacts at all.
#[test]
fn profiling_flag_does_not_change_results_or_designs() {
    let _g = lock();
    let corpus = tiny_corpus();

    let _flags = FlagGuard::set(false);
    let (sys_off, off) = run_with(config(), &corpus);
    assert!(
        sys_off.xrays().is_empty(),
        "no xray artifacts with profiling off"
    );

    profile::set_enabled(true);
    let (sys_on, on) = run_with(config(), &corpus);
    assert!(
        !sys_on.xrays().is_empty(),
        "profiling on collects an xray per query"
    );
    assert_eq!(sys_on.xrays().len(), on.records.len());

    assert_results_identical(&off, &on, "profiling off vs on");
}

/// With `calibrate_costs` off (the default), a full run — drift accumulation
/// included — leaves the cost models bit-identical to `paper_default`, and
/// per-epoch calibration reports are still emitted.
#[test]
fn calibration_off_leaves_cost_models_untouched() {
    let _g = lock();
    let _flags = FlagGuard::set(true);
    let corpus = tiny_corpus();

    let cfg = config();
    assert!(!cfg.calibrate_costs, "paper default is calibration off");
    let (sys, result) = run_with(cfg, &corpus);

    assert_hv_model_eq(
        &sys.hv.cost_model,
        &HvCostModel::paper_default(),
        "flag off",
    );
    assert_dw_model_eq(
        &sys.dw.cost_model,
        &DwCostModel::paper_default(),
        "flag off",
    );
    assert!(
        !result.calibrations.is_empty(),
        "drift reports are emitted even when feedback is off"
    );
    for report in &result.calibrations {
        assert!(report.hv.samples > 0 || report.dw.samples > 0);
    }
}

/// With `calibrate_costs` on, the fitted scale factors actually move the
/// models — and the whole loop stays deterministic: two identical runs
/// produce identical results, designs, and fitted models.
#[test]
fn calibration_on_adjusts_models_deterministically() {
    let _g = lock();
    let _flags = FlagGuard::set(true);
    let corpus = tiny_corpus();

    let mut cfg = config();
    cfg.calibrate_costs = true;
    let (sys_a, a) = run_with(cfg.clone(), &corpus);
    let (sys_b, b) = run_with(cfg, &corpus);

    assert_results_identical(&a, &b, "calibrated run determinism");
    assert_hv_model_eq(&sys_a.hv.cost_model, &sys_b.hv.cost_model, "determinism");
    assert_dw_model_eq(&sys_a.dw.cost_model, &sys_b.dw.cost_model, "determinism");

    let def = HvCostModel::paper_default();
    let moved = sys_a.hv.cost_model.read_secs_per_byte != def.read_secs_per_byte
        || sys_a.hv.cost_model.cpu_secs_per_row != def.cpu_secs_per_row
        || sys_a.dw.cost_model.read_secs_per_byte
            != DwCostModel::paper_default().read_secs_per_byte;
    assert!(moved, "calibration feedback should rescale the models");
}

/// The drift gauges land in metrics snapshots when observability is on.
#[test]
fn drift_gauges_appear_in_metrics_snapshot() {
    let _g = lock();
    let _flags = FlagGuard::set(true);
    let corpus = tiny_corpus();

    miso_obs::init(miso_obs::ObsConfig::ring(4096));
    miso_obs::reset_metrics();
    let (_sys, result) = run_with(config(), &corpus);
    let snap = miso_obs::snapshot();
    miso_obs::init(miso_obs::ObsConfig::disabled());

    for gauge in [
        "xray.cost_drift_hv",
        "xray.cost_drift_transfer",
        "xray.cost_drift_dw",
    ] {
        assert!(
            snap.gauges.contains_key(gauge),
            "missing gauge {gauge}; have {:?}",
            snap.gauges.keys().collect::<Vec<_>>()
        );
    }
    assert!(!result.calibrations.is_empty());
    let report = &result.calibrations[0];
    let v = report.to_value();
    assert!(v.get_field("hv").is_some());
    assert!(v.get_field("classes").is_some());
}
