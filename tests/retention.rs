//! Retention-set execution: an engine run that keeps only a named node set
//! must agree with the keep-all run and the serial oracle on everything it
//! still holds, and HV — which keeps only what it harvests — must charge
//! and materialize exactly what a keep-all run would.

use miso::common::ids::NodeId;
use miso::common::QueryGuard;
use miso::common::{pool, Budgets, ByteSize, SimDuration};
use miso::core::{MultistoreSystem, SystemConfig, Variant};
use miso::data::logs::{Corpus, LogsConfig};
use miso::data::{DataType, Field, Row, Schema, Value};
use miso::exec::engine::{execute, execute_subset};
use miso::exec::{
    execute_serial, execute_subset_guarded, Execution, MemSource, Retention, UdfRegistry,
};
use miso::hv::stages::is_boundary;
use miso::hv::HvStore;
use miso::plan::split::enumerate_splits;
use miso::plan::{AggExpr, AggFunc, BinOp, Expr, LogicalPlan, Operator, PlanBuilder};
use miso::views::rewrite_with_catalog;
use miso::workload::{compile_workload, standard_udfs, workload_catalog};
use std::collections::{HashMap, HashSet};
use std::sync::{Mutex, MutexGuard};

#[path = "support/stages.rs"]
mod stages;
use stages::compile_stages;

/// The pool width is process-global; tests that set it take this lock.
fn pool_lock() -> MutexGuard<'static, ()> {
    static LOCK: Mutex<()> = Mutex::new(());
    LOCK.lock().unwrap_or_else(|e| e.into_inner())
}

fn mem_source(corpus: &Corpus) -> MemSource {
    let mut src = MemSource::new();
    src.add_log("twitter", corpus.twitter.lines.to_vec());
    src.add_log("foursquare", corpus.foursquare.lines.to_vec());
    src.add_log("landmarks", corpus.landmarks.lines.to_vec());
    src
}

/// `subset` of `plan` (`None` = all of it), keeping only `keep` and the root.
fn run_keeping(
    plan: &LogicalPlan,
    subset: Option<&HashSet<NodeId>>,
    src: &MemSource,
    udfs: &UdfRegistry,
    keep: &[NodeId],
) -> miso::common::Result<Execution> {
    execute_subset_guarded(
        plan,
        subset,
        HashMap::new(),
        src,
        udfs,
        Retention::Only(keep),
        QueryGuard::inert_ref(),
        None,
    )
}

/// Runs `plan` once per keep-set, keeping only that set (+ root), at 1 and
/// 8 threads, and checks every run against the
/// keep-all run and the serial oracle: the rows of every kept node,
/// whatever else is still held, the `rows_out` of every node, and the skip
/// count.
fn assert_keep_sets_agree(
    plan: &LogicalPlan,
    src: &MemSource,
    udfs: &UdfRegistry,
    keep_sets: &[Vec<NodeId>],
    what: &str,
) {
    let serial = execute_serial(plan, src, udfs).expect("serial run succeeds");
    let all = execute(plan, src, udfs).expect("keep-all run succeeds");
    let before = pool::threads();
    for keep in keep_sets {
        for threads in [1usize, 8] {
            pool::set_threads(threads);
            let what = format!("{what}, keep {keep:?}, {threads} threads");
            let run =
                run_keeping(plan, None, src, udfs, keep).unwrap_or_else(|e| panic!("{what}: {e}"));
            assert_eq!(run.skipped_lines, serial.skipped_lines, "{what}: skips");
            for node in plan.nodes() {
                let id = node.id;
                assert_eq!(
                    run.rows_out(id),
                    serial.rows_out(id),
                    "{what}: rows_out {id}"
                );
                assert_eq!(run.rows_out(id), all.rows_out(id), "{what}: rows_out {id}");
                if keep.contains(&id) || id == plan.root() {
                    let rows = run
                        .retained_output(id)
                        .unwrap_or_else(|e| panic!("{what}: {e}"));
                    assert_eq!(rows, all.output(id), "{what}: kept node {id} vs keep-all");
                }
                if let Some(rows) = run.try_output(id) {
                    assert_eq!(rows, serial.output(id), "{what}: node {id} vs serial");
                }
            }
        }
    }
    pool::set_threads(before);
}

/// Keep-sets worth trying on any plan: nothing, what HV harvests, the
/// leaves plus a scattering of interior nodes, and everything.
fn keep_sets(plan: &LogicalPlan) -> Vec<Vec<NodeId>> {
    let ids = |pred: &dyn Fn(&miso::plan::PlanNode) -> bool| -> Vec<NodeId> {
        plan.nodes()
            .iter()
            .filter(|n| pred(n))
            .map(|n| n.id)
            .collect()
    };
    vec![
        Vec::new(),
        ids(&|n| is_boundary(&n.op) || matches!(n.op, Operator::Filter { .. })),
        ids(&|n| n.op.is_scan() || n.id.raw() % 3 == 1),
        ids(&|_| true),
    ]
}

#[test]
fn keep_set_runs_agree_on_the_workload_templates() {
    let _pool = pool_lock();
    let corpus = Corpus::generate(&LogsConfig::tiny());
    let src = mem_source(&corpus);
    let udfs = standard_udfs();
    let workload = compile_workload(&workload_catalog()).expect("workload compiles");
    assert_eq!(workload.len(), 32);
    for (label, plan) in &workload {
        assert_keep_sets_agree(plan, &src, &udfs, &keep_sets(plan), label);
    }
}

fn int_field(name: &str) -> Field {
    Field::new(name, DataType::Int)
}

fn lt(col: usize, bound: i64) -> Expr {
    Expr::Binary {
        op: BinOp::Lt,
        left: Box::new(Expr::col(col)),
        right: Box::new(Expr::lit(bound)),
    }
}

/// A multi-morsel log with malformed lines: scan → SerDe project → filter
/// → aggregate, the shape whose scan fuses into its projection.
fn log_pipeline() -> (LogicalPlan, MemSource, [NodeId; 4]) {
    let lines = (0..9_000u64)
        .map(|i| {
            if i % 89 == 5 {
                format!("not json #{i}")
            } else {
                format!(r#"{{"uid": {}, "score": {}}}"#, i % 300, (i * 13) % 500)
            }
        })
        .collect();
    let mut src = MemSource::new();
    src.add_log("events", lines);
    let mut b = PlanBuilder::new();
    let scan = b
        .add(
            Operator::ScanLog {
                log: "events".into(),
            },
            vec![],
        )
        .unwrap();
    let proj = b
        .add(
            Operator::Project {
                exprs: vec![
                    ("uid".into(), Expr::col(0).get("uid").cast(DataType::Int)),
                    (
                        "score".into(),
                        Expr::col(0).get("score").cast(DataType::Int),
                    ),
                ],
            },
            vec![scan],
        )
        .unwrap();
    let filt = b
        .add(
            Operator::Filter {
                predicate: lt(1, 400),
            },
            vec![proj],
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
            vec![filt],
        )
        .unwrap();
    (b.finish(agg).unwrap(), src, [scan, proj, filt, agg])
}

/// A log scan that is itself kept (it is a cut, or the root) must still
/// hand out its JSON rows: it cannot fuse into the projection above it.
#[test]
fn a_kept_log_scan_is_not_fused_away() {
    let _pool = pool_lock();
    let (plan, src, [scan, proj, filt, _]) = log_pipeline();
    let udfs = UdfRegistry::new();
    let keeps = [vec![scan], vec![scan, filt], vec![proj], vec![]];
    assert_keep_sets_agree(&plan, &src, &udfs, &keeps, "log pipeline");
    // Scan as the root of a one-node plan, and as the only executed node of
    // a subset (the cut of a split right above the scan).
    let mut b = PlanBuilder::new();
    let only = b
        .add(
            Operator::ScanLog {
                log: "events".into(),
            },
            vec![],
        )
        .unwrap();
    let scan_plan = b.finish(only).unwrap();
    assert_keep_sets_agree(&scan_plan, &src, &udfs, &[vec![]], "scan as root");
    let serial = execute_serial(&plan, &src, &udfs).unwrap();
    let hv_side: HashSet<NodeId> = [scan].into_iter().collect();
    let cut = run_keeping(&plan, Some(&hv_side), &src, &udfs, &[scan]).unwrap();
    assert_eq!(cut.retained_output(scan).unwrap(), serial.output(scan));
    // Unkept and consumed once, the same scan does go (fused or released).
    let lean = run_keeping(&plan, None, &src, &udfs, &[]).unwrap();
    assert!(lean.try_output(scan).is_none());
    assert_eq!(lean.rows_out(scan), serial.rows_out(scan));
}

/// A kept filter feeding a join is read twice — by the join and by whoever
/// harvests it afterwards — and must serve both, never be released.
#[test]
fn a_kept_filter_under_a_join_serves_both() {
    let _pool = pool_lock();
    let mut src = MemSource::new();
    src.add_view(
        "facts",
        (0..9_000)
            .map(|i| Row::new(vec![Value::Int(i % 400), Value::Int((i * 7) % 1000)]))
            .collect(),
    );
    src.add_view(
        "dims",
        (0..400)
            .map(|i| Row::new(vec![Value::Int(i), Value::str(format!("seg-{}", i % 13))]))
            .collect(),
    );
    let mut b = PlanBuilder::new();
    let facts = b
        .add(
            Operator::ScanView {
                view: "facts".into(),
                schema: Schema::new(vec![int_field("k"), int_field("v")]),
            },
            vec![],
        )
        .unwrap();
    let filt = b
        .add(
            Operator::Filter {
                predicate: lt(1, 600),
            },
            vec![facts],
        )
        .unwrap();
    let dims = b
        .add(
            Operator::ScanView {
                view: "dims".into(),
                schema: Schema::new(vec![int_field("dk"), Field::new("seg", DataType::Str)]),
            },
            vec![],
        )
        .unwrap();
    let join = b
        .add(Operator::Join { on: vec![(0, 0)] }, vec![filt, dims])
        .unwrap();
    // A second, later reader: the sort is the filter's last consumer.
    let sorted = b
        .add(
            Operator::Sort {
                keys: vec![(1, true)],
            },
            vec![filt],
        )
        .unwrap();
    let top = b.add(Operator::Limit { n: 50 }, vec![sorted]).unwrap();
    let renamed = b
        .add(
            Operator::Project {
                exprs: vec![("k2".into(), Expr::col(0)), ("v2".into(), Expr::col(1))],
            },
            vec![top],
        )
        .unwrap();
    let both = b
        .add(Operator::Join { on: vec![(0, 0)] }, vec![join, renamed])
        .unwrap();
    let plan = b.finish(both).unwrap();
    let udfs = UdfRegistry::new();
    let keeps = [vec![filt], vec![filt, join], vec![]];
    assert_keep_sets_agree(&plan, &src, &udfs, &keeps, "filter under join");
}

/// A kept view scan — or a plan that is nothing but one, which is most of a
/// steady stream's answers — hands out the source's own batch: the engine
/// copies and pivots nothing, whichever source it reads, and the batch is
/// the one the view was installed with.
#[test]
fn a_kept_view_scan_is_the_sources_own_rows() {
    use miso::data::{ColBatch, StoredView};
    use miso::dw::DwStore;
    use miso::exec::DataSource;
    let schema = Schema::new(vec![int_field("k"), int_field("v")]);
    let rows: Vec<Row> = (0..5_000)
        .map(|i| Row::new(vec![Value::Int(i % 7), Value::Int(i)]))
        .collect();
    let view = StoredView::from_rows("v", schema.clone(), &rows).unwrap();
    let scan_of = |b: &mut PlanBuilder| {
        let op = Operator::ScanView {
            view: "v".into(),
            schema: schema.clone(),
        };
        b.add(op, vec![]).unwrap()
    };
    let mut b = PlanBuilder::new();
    let scan = scan_of(&mut b);
    let scan_plan = b.finish(scan).unwrap();
    let mut b = PlanBuilder::new();
    let scan = scan_of(&mut b);
    let filt = b
        .add(
            Operator::Filter {
                predicate: lt(1, 100),
            },
            vec![scan],
        )
        .unwrap();
    let plan = b.finish(filt).unwrap();
    let udfs = UdfRegistry::new();
    let same = |run: &Execution, source: &dyn DataSource, what: &str| {
        let held = run.batch(scan).expect("the scan is held");
        let theirs = source.view_batch("v").expect("the source has the view");
        assert!(std::sync::Arc::ptr_eq(held, &theirs), "{what}");
        assert_eq!(run.output(scan).as_slice(), rows, "{what}: as rows");
    };

    let mut mem = MemSource::new();
    mem.add_batch("v", ColBatch::clone(&view.batch));
    let kept = run_keeping(&plan, None, &mem, &udfs, &[scan]).unwrap();
    same(&kept, &mem, "MemSource, kept");
    let root = run_keeping(&scan_plan, None, &mem, &udfs, &[]).unwrap();
    same(&root, &mem, "MemSource, root");

    let mut hv = HvStore::new();
    hv.views.put("v", view.clone());
    let guard = QueryGuard::inert_ref();
    let kept = hv
        .execute_guarded(&plan, None, &udfs, guard, &[scan])
        .unwrap();
    same(&kept.execution, &hv, "HvStore, kept");
    let root = hv.execute(&scan_plan, None, &udfs).unwrap();
    same(&root.execution, &hv, "HvStore, root");
    let installed = |run: &Execution| std::sync::Arc::ptr_eq(run.batch(scan).unwrap(), &view.batch);
    assert!(installed(&root.execution));

    let mut dw = DwStore::new();
    dw.views.put("v", view.clone());
    let root = dw.execute(&scan_plan, None, HashMap::new(), &udfs).unwrap();
    same(&root.execution, &dw, "DwStore, root");
    assert!(installed(&root.execution));
}

/// What `HvStore::execute` charged and materialized before retention sets:
/// a keep-all engine run over the same subset, staged and costed here.
struct Harvest {
    cost: SimDuration,
    stage_costs: Vec<SimDuration>,
    materialized: Vec<(NodeId, std::sync::Arc<Vec<Row>>, ByteSize)>,
}

fn keep_all_harvest(
    hv: &HvStore,
    plan: &LogicalPlan,
    subset: &HashSet<NodeId>,
    udfs: &UdfRegistry,
) -> (Harvest, Execution) {
    let exec = execute_subset(plan, Some(subset), HashMap::new(), hv, udfs).unwrap();
    let stages = compile_stages(plan, Some(subset), &HashSet::new());
    let mut stage_costs = Vec::new();
    let mut materialized = Vec::new();
    for stage in &stages {
        let mut bytes_in = ByteSize::ZERO;
        let mut rows = 0u64;
        for &id in &stage.nodes {
            match &plan.node(id).op {
                Operator::ScanLog { log } => bytes_in += hv.log_size(log).expect("log exists"),
                Operator::ScanView { view, .. } => {
                    bytes_in += hv.views.size(view).expect("view exists")
                }
                _ => {}
            }
            rows += exec.output(id).len() as u64;
        }
        for &up in &stage.upstream {
            bytes_in += exec.output_bytes(up);
        }
        let out = stage.output;
        stage_costs.push(
            hv.cost_model
                .stage_cost(bytes_in, exec.output_bytes(out), rows),
        );
        materialized.push((out, exec.output(out).clone(), exec.output_bytes(out)));
    }
    for node in plan.nodes() {
        let spilled = subset.contains(&node.id)
            && matches!(node.op, Operator::Filter { .. })
            && stages.iter().all(|s| s.output != node.id);
        if spilled {
            let id = node.id;
            materialized.push((id, exec.output(id).clone(), exec.output_bytes(id)));
        }
    }
    let harvest = Harvest {
        cost: stage_costs.iter().copied().sum(),
        stage_costs,
        materialized,
    };
    (harvest, exec)
}

/// Runs the HV side of every enumerated split of each plan in `hv` and
/// checks its cost, per-stage costs and harvested outputs against a
/// keep-all run's. Returns how many HV sides ran and how many of them
/// scanned a view.
fn assert_harvests_match(
    hv: &HvStore,
    plans: &[(String, LogicalPlan)],
    udfs: &UdfRegistry,
) -> (usize, usize) {
    let (mut subsets, mut view_scans) = (0usize, 0usize);
    for (label, plan) in plans {
        for split in enumerate_splits(plan) {
            let subset: HashSet<NodeId> = split.hv_nodes().iter().copied().collect();
            if subset.is_empty() {
                continue;
            }
            subsets += 1;
            view_scans += usize::from(
                subset
                    .iter()
                    .any(|&id| matches!(plan.node(id).op, Operator::ScanView { .. })),
            );
            let what = format!("{label}, HV side {:?}", split.hv_nodes());
            let (want, all) = keep_all_harvest(hv, plan, &subset, udfs);
            let run = hv.execute(plan, Some(&subset), udfs).unwrap();
            assert_eq!(run.cost, want.cost, "{what}: cost");
            assert_eq!(run.stage_costs, want.stage_costs, "{what}: stage costs");
            let got: Vec<_> = run
                .materialized
                .iter()
                .map(|m| (m.node, std::sync::Arc::new(m.batch.to_rows()), m.size))
                .collect();
            assert_eq!(got, want.materialized, "{what}: materialized");
            for cut in split.cut_nodes(plan) {
                assert_eq!(
                    run.execution.retained_output(cut).unwrap(),
                    all.output(cut),
                    "{what}: cut {cut}"
                );
            }
            for &id in &subset {
                assert_eq!(run.execution.rows_out(id), all.rows_out(id), "{what}: {id}");
            }
        }
    }
    (subsets, view_scans)
}

/// Over the 32 templates × the HV side of every enumerated split, the HV
/// store's cost, per-stage costs and harvested outputs are those of a
/// keep-all run — which is what pins simulated time and view checksums.
/// The templates are run raw against a fresh store, then rewritten over the
/// HV views a played MS-MISO stream harvested against that system's store,
/// which pins what a stage scanning a view is charged.
#[test]
fn hv_harvest_is_identical_to_keep_all_retention() {
    let corpus = Corpus::generate(&LogsConfig::tiny());
    let mut hv = HvStore::new();
    hv.add_log(corpus.twitter.clone());
    hv.add_log(corpus.foursquare.clone());
    hv.add_log(corpus.landmarks.clone());
    let udfs = standard_udfs();
    let workload = compile_workload(&workload_catalog()).expect("workload compiles");
    let (subsets, _) = assert_harvests_match(&hv, &workload, &udfs);
    assert!(subsets > workload.len(), "splits were enumerated");

    let budgets = Budgets::new(
        ByteSize::from_mib(32),
        ByteSize::from_mib(4),
        ByteSize::from_mib(2),
    )
    .with_discretization(ByteSize::from_kib(16));
    let mut sys = MultistoreSystem::new(
        &corpus,
        workload_catalog(),
        standard_udfs(),
        SystemConfig::paper_default(budgets),
    );
    sys.run_workload(Variant::MsMiso, &workload).unwrap();
    let views: HashSet<String> = sys.hv.views.names().into_iter().collect();
    let rewritten: Vec<(String, LogicalPlan)> = workload
        .iter()
        .filter_map(|(label, raw)| {
            let rewrite = rewrite_with_catalog(raw, &views, &sys.catalog);
            (!rewrite.used.is_empty()).then(|| (format!("{label} over HV views"), rewrite.plan()))
        })
        .collect();
    let (subsets, view_scans) = assert_harvests_match(&sys.hv, &rewritten, &udfs);
    assert!(
        rewritten.len() >= 8 && view_scans >= rewritten.len(),
        "HV views answer templates: {} rewritten, {view_scans} of {subsets} HV sides scan a view",
        rewritten.len()
    );
}
