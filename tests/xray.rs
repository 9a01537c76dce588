//! miso-xray integration tests: the per-operator records every run keeps,
//! their thread-count invariance, EXPLAIN ANALYZE as a call, "looking changes
//! nothing", the estimates an xray shows, and a run that writes no model.
//!
//! The worker pool, the obs sink and the chaos plan are process-global, so
//! every test serializes on one lock, keeping the default parallel test
//! runner race-free.

use std::collections::{BTreeMap, BTreeSet};
use std::sync::{Arc, Mutex, MutexGuard, OnceLock};

use miso::common::{pool, Budgets, ByteSize, SimDuration};
use miso::core::{split, ExperimentResult, GuardConfig, MultistoreSystem, SystemConfig, Variant};
use miso::data::logs::{Corpus, LogsConfig};
use miso::data::{DataType, Field, Row, Schema, Value};
use miso::dw::DwCostModel;
use miso::exec::engine::execute;
use miso::exec::{execute_serial, MemSource, OpProfile, Udf, UdfRegistry};
use miso::hv::HvCostModel;
use miso::lang::compile;
use miso::plan::estimate::estimate_plan;
use miso::plan::{AggExpr, AggFunc, BinOp, Expr, LogicalPlan, Operator, PlanBuilder};
use miso::workload::{compile_workload, standard_udfs, workload_catalog};
use miso::xray::QueryXray;
use miso_obs::ObsConfig;
use miso_serve::{EpochSnapshot, ServeConfig, ServeEngine, ServeReport, SnapExecutor};

fn lock() -> MutexGuard<'static, ()> {
    static L: OnceLock<Mutex<()>> = OnceLock::new();
    L.get_or_init(|| Mutex::new(()))
        .lock()
        .unwrap_or_else(|e| e.into_inner())
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

/// Every executed node has a record — nothing was switched on — whose row
/// accounting matches the row-at-a-time oracle's node by node, and whose
/// `rows_in` is the sum of its inputs' outputs, across every operator kind.
#[test]
fn profiled_rows_match_rows_out_for_every_operator() {
    let _g = lock();

    let (lplan, lsrc, udfs) = log_plan();
    let (jplan, jsrc) = join_plan();
    let none = UdfRegistry::new();

    let runs = [
        (
            "log pipeline",
            execute(&lplan, &lsrc, &udfs).unwrap(),
            execute_serial(&lplan, &lsrc, &udfs).unwrap(),
            &lplan,
        ),
        (
            "join",
            execute(&jplan, &jsrc, &none).unwrap(),
            execute_serial(&jplan, &jsrc, &none).unwrap(),
            &jplan,
        ),
    ];
    for (what, exec, oracle, plan) in &runs {
        for node in plan.nodes() {
            let p = exec
                .profile(node.id)
                .unwrap_or_else(|| panic!("{what}: node {} has no record", node.id));
            assert_eq!(
                Some(p.rows_out),
                oracle.rows_out(node.id),
                "{what}: node {} rows_out",
                node.id
            );
            assert_eq!(
                p.rows_out,
                exec.output(node.id).len() as u64,
                "{what}: node {}",
                node.id
            );
            let in_sum: u64 = node.inputs.iter().filter_map(|i| oracle.rows_out(*i)).sum();
            assert_eq!(p.rows_in, in_sum, "{what}: node {} rows_in", node.id);
            // Every output is kept here, so no scan fused; and no guard
            // charged, so nothing read an output's bytes.
            assert_eq!((p.fused, p.bytes_out), (None, None), "node {}", node.id);
        }
        assert_eq!(
            exec.profiles().len(),
            plan.len(),
            "{what}: one record per node"
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

/// All record fields except wall time are a pure function of the plan and
/// data: byte-identical at 1, 2 and 8 workers.
#[test]
fn profiles_are_thread_count_invariant() {
    let _g = lock();
    let threads = pool::threads();

    let (lplan, lsrc, udfs) = log_plan();
    let (jplan, jsrc) = join_plan();
    for (what, plan, run) in [
        ("log pipeline", &lplan, 0usize),
        ("join pipeline", &jplan, 1),
    ] {
        let mut baseline: Option<BTreeMap<u64, OpProfile>> = None;
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
    pool::set_threads(threads);
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

fn system(corpus: &Corpus, config: SystemConfig) -> MultistoreSystem {
    MultistoreSystem::new(corpus, workload_catalog(), standard_udfs(), config)
}

fn fresh_system(corpus: &Corpus) -> MultistoreSystem {
    system(corpus, config())
}

fn stream() -> Vec<(String, LogicalPlan)> {
    let catalog = workload_catalog();
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
    let mut sys = system(corpus, config);
    let result = sys.run_workload(Variant::MsMiso, &stream()).unwrap();
    (sys, result)
}

/// Everything a figure binary prints derives from these fields.
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

/// Runs `f` with the in-memory ring sink on, then switches observability
/// back off.
fn observed<T>(f: impl FnOnce() -> T) -> T {
    miso_obs::init(ObsConfig::ring(4096));
    miso_obs::reset_metrics();
    let out = f();
    miso_obs::init(ObsConfig::disabled());
    out
}

/// A guarded stream kills the same queries, charges the same bytes and
/// records the same costs whether or not a sink is attached. The budget is
/// half of what the stream's hungriest query charges, so the comparison
/// includes kills.
#[test]
fn looking_changes_no_record_no_kill_and_no_charge_of_a_guarded_stream() {
    let _g = lock();
    let corpus = tiny_corpus();
    let guarded = |mem_budget: u64| {
        let mut cfg = config();
        cfg.guard = GuardConfig {
            enabled: true,
            mem_budget: ByteSize::from_bytes(mem_budget),
            ..GuardConfig::disabled()
        };
        run_with(cfg, &corpus)
    };
    let metered = guarded(0).0.guard_peak_bytes();
    assert!(metered > 0, "an unlimited guard still meters");

    let (sys_off, off) = guarded(metered / 2);
    let (sys_on, on) = observed(|| guarded(metered / 2));
    assert!(!off.failures.is_empty(), "half the peak kills something");
    assert!(!off.records.is_empty(), "and spares something");
    assert_eq!(format!("{:?}", off.records), format!("{:?}", on.records));
    assert_eq!(format!("{:?}", off.failures), format!("{:?}", on.failures));
    assert_eq!(sys_off.guard_peak_bytes(), sys_on.guard_peak_bytes());
    assert_results_identical(&off, &on, "sink off vs on");
}

/// The storm of the `servebench` figure (`figures::faults::servebench` in
/// `crates/bench`) — its session counts, caps, guard calibrated at twice
/// the metered peak, hog tenant and chaos plan — over the tiny corpus.
fn smoke_storm(corpus: &Corpus) -> ServeReport {
    let workload = compile_workload(&workload_catalog()).unwrap();
    let sys = fresh_system(corpus);
    let boot = EpochSnapshot {
        epoch: 0,
        hv: sys.hv.clone(),
        dw: sys.dw.clone(),
        catalog: sys.catalog.clone(),
        transfer: sys.transfer_model().clone(),
    };
    let mut calib = SnapExecutor::new(standard_udfs());
    let (mut max_service, mut total_service) = (SimDuration::ZERO, SimDuration::ZERO);
    let mut base_peak = 1u64;
    for (label, plan) in &workload {
        let run = calib
            .run(&boot, label, plan, &BTreeSet::new(), false)
            .unwrap();
        max_service = max_service.max(run.service());
        total_service += run.service();
        base_peak = base_peak.max(run.charged_bytes);
    }
    let mean_service = total_service / workload.len() as f64;
    let (workers, sessions) = (8usize, 96u64);
    let cfg = ServeConfig {
        workers,
        sessions,
        tenants: 8,
        queries_per_session: 2,
        seed: 23,
        mean_think: mean_service * (sessions as f64 / (workers as f64 * 0.7)),
        reorg_every: 40,
        drain: max_service * 2.0,
        queue_cap: 16,
        tenant_inflight_cap: 6,
        guard: GuardConfig {
            enabled: true,
            deadline: Some(max_service * 10.0),
            mem_budget: ByteSize::from_bytes(base_peak.saturating_mul(2)),
            max_inflight: 64,
            shed_threshold: 5,
            shed_cooldown: max_service,
        },
        hog_factor: 8.0,
        ..ServeConfig::standard()
    };
    let spec = "seed=2000;dw.execute=error@p0.1;dw.execute=stall@p0.05;\
                dw.execute=hog:4096@p0.1;hv.execute=error@p0.05;hv.execute=delay:1.5@p0.08;\
                hv.execute=stall@p0.04;hv.execute=hog:4096@p0.08;transfer.ship=error@p0.15;\
                transfer.ship=corrupt@p0.1;dw.view_read=corrupt@p0.05;\
                hv.view_read=corrupt@p0.05;reorg.step=crash@p0.1";
    miso::chaos::install(miso::chaos::parse_spec(spec).unwrap());
    let report = ServeEngine::new(cfg, fresh_system(corpus), workload, standard_udfs()).run();
    miso::chaos::disable();
    report
}

/// The serving storm delivers, sheds and kills the same queries, and makes
/// the same base runs, whether or not a sink is attached.
#[test]
fn looking_changes_no_count_of_the_serving_storm() {
    let _g = lock();
    let corpus = tiny_corpus();
    let off = smoke_storm(&corpus);
    let on = observed(|| smoke_storm(&corpus));
    assert!(off.killed > 0 && off.delivered > 0, "a storm: {off:?}");
    assert_eq!(off.wrong_answers, 0);
    let counts = |r: &ServeReport| {
        [
            r.submitted,
            r.delivered,
            r.wrong_answers,
            r.shed,
            r.killed,
            r.drained,
            r.unclassified,
            r.hv_fallbacks,
            r.reorgs,
            r.reorg_failures,
            r.final_epoch,
            r.base_runs as u64,
            r.makespan.as_micros(),
        ]
    };
    assert_eq!(counts(&off), counts(&on));
    assert_eq!(format!("{:?}", off.failures), format!("{:?}", on.failures));
}

/// The workload's `A1v1`: a filtered aggregate over the twitter log.
fn a1v1() -> (String, LogicalPlan) {
    let workload = compile_workload(&workload_catalog()).unwrap();
    let is_a1v1 = |(label, _): &(String, LogicalPlan)| label == "A1v1";
    workload.into_iter().find(is_a1v1).expect("A1v1 exists")
}

/// EXPLAIN ANALYZE is the ordinary walk: the record it returns is the one a
/// stream's first query gets on an identical system, and it leaves the same
/// views behind.
#[test]
fn explain_analyze_returns_the_record_of_a_plain_run() {
    let _g = lock();
    let corpus = tiny_corpus();
    for (label, raw) in stream().into_iter().chain([a1v1()]) {
        let mut plain = fresh_system(&corpus);
        let ran = plain
            .run_workload(Variant::MsMiso, &[(label.clone(), raw.clone())])
            .unwrap();
        let mut looked = fresh_system(&corpus);
        let (record, xray) = looked.explain_analyze(&label, &raw).unwrap();
        assert_eq!(format!("{:?}", ran.records[0]), format!("{record:?}"));
        assert_eq!(xray.used_views, record.used_views);
        assert_eq!(plain.hv.view_names(), looked.hv.view_names(), "{label}");
        assert_eq!(plain.catalog.len(), looked.catalog.len(), "{label}");
    }
}

/// The deterministic half of an xray: every node's record sans wall time.
fn deterministic(x: &QueryXray) -> Vec<(u64, Option<OpProfile>)> {
    let node = |n: &miso::xray::NodeXray| (n.id.raw(), n.profile.map(|p| p.deterministic()));
    x.nodes.iter().map(node).collect()
}

/// An xray shows what ran. For a log-scan query the scan fused into its
/// consumer and the tree says so, with its column counts; no line was parsed
/// into a JSON record to produce it; the HV and the DW run's records merge to
/// one per plan node, a cut's being HV's; and everything but wall time agrees
/// at 1 and 8 threads.
#[test]
fn xray_shows_what_ran() {
    let _g = lock();
    let threads = pool::threads();
    let corpus = tiny_corpus();
    let (label, raw) = a1v1();

    let mut per_width = Vec::new();
    for t in [1usize, 8] {
        pool::set_threads(t);
        let mut sys = fresh_system(&corpus);
        let (record, x) = observed(|| {
            let out = sys.explain_analyze(&label, &raw).unwrap();
            let counters = miso_obs::snapshot().counters;
            let fallback = counters.get("exec.col_fallback_rows").copied();
            assert_eq!(fallback.unwrap_or(0), 0, "a scan built records");
            assert!(counters["exec.ops_executed"] > 0, "the sink saw the run");
            out
        });

        let text = miso::xray::explain_analyze(&x);
        let scans: Vec<&str> = text.lines().filter(|l| l.contains("ScanLog(")).collect();
        assert_eq!(scans.len(), 1, "{text}");
        assert!(scans[0].contains("fused: 0 cols held, "), "{text}");

        assert_eq!(x.nodes.len(), record.hv_ops + record.dw_ops);
        let ids: BTreeSet<u64> = x.nodes.iter().map(|n| n.id.raw()).collect();
        assert_eq!(ids.len(), x.nodes.len(), "one record per plan node");
        for n in &x.nodes {
            let p = n
                .profile
                .unwrap_or_else(|| panic!("node {} did not run", n.id));
            let is_scan = n.label.starts_with("ScanLog(");
            assert_eq!(p.fused.is_some(), is_scan, "{}", n.label);
            if is_scan {
                let (hit, parsed) = p.fused.unwrap();
                assert!(hit == 0 && parsed > 0, "a cold store parses: {p:?}");
            }
            if n.cut {
                // HV ran it and sized what it shipped; DW was only handed it.
                assert!(n.hv && p.rows_in > 0 && p.bytes_out.is_some(), "{p:?}");
            }
            if n.id == x.root {
                assert_eq!(p.rows_out, record.result_rows);
            }
        }
        assert!(record.dw_ops > 0 && x.nodes.iter().any(|n| n.cut), "{text}");
        per_width.push(deterministic(&x));
    }
    pool::set_threads(threads);
    assert_eq!(per_width[0], per_width[1], "1 vs 8 threads");
}

/// A full run leaves the cost models bit-identical to `paper_default`:
/// nothing a run measures is written back into a model.
#[test]
fn a_run_leaves_cost_models_untouched() {
    let _g = lock();
    let corpus = tiny_corpus();

    let (sys, _) = run_with(config(), &corpus);

    assert_hv_model_eq(
        &sys.hv.cost_model,
        &HvCostModel::paper_default(),
        "after a run",
    );
    assert_dw_model_eq(
        &sys.dw.cost_model,
        &DwCostModel::paper_default(),
        "after a run",
    );
}

/// The estimates an xray shows are `estimate_plan` over the stats the
/// placement saw: a fresh system's `split::place` of `A1v1`, estimated by
/// hand, gives every node of another fresh system's EXPLAIN ANALYZE tree its
/// `est_rows` and `est_bytes`, bit for bit.
#[test]
fn xray_estimates_are_those_of_the_placement() {
    let _g = lock();
    let corpus = tiny_corpus();
    let (label, raw) = a1v1();

    let placer = fresh_system(&corpus);
    let (planned, stats) = split::place(placer.stores(), &raw, |_| true, false).unwrap();
    let stats = stats.expect("a split placement estimates");
    let want = estimate_plan(&planned.plan, &stats);

    let mut sys = fresh_system(&corpus);
    let (_, x) = sys.explain_analyze(&label, &raw).unwrap();
    assert_eq!(x.nodes.len(), want.len());
    for n in &x.nodes {
        let est = want[&n.id];
        assert_eq!(n.est_rows.to_bits(), est.rows.to_bits(), "{}", n.label);
        assert_eq!(n.est_bytes.to_bits(), est.bytes.to_bits(), "{}", n.label);
    }
}
