//! Splits are enumerated and costed as node masks, over what is derived
//! once per plan; this pins every result to the set-based code they
//! replaced, kept here as the oracle: downward-closed `BTreeSet`s of node
//! ids, a `HashSet` per split for `compile_stages`, consumers found by
//! scanning the arena. Over the 32 templates, raw and rewritten over every
//! view a played stream harvested, under the designs {∅, HV-only, DW-only,
//! both}, and over a 16-node plan (the prefix family) and a plan with two
//! UDF branches: the same splits in the same order, the same cut, the same
//! feasibility, a `CostBreakdown` equal field by field, and the same
//! winner, `splits_seen` and `cost_evals`.

use miso::common::ids::NodeId;
use miso::common::{Budgets, ByteSize};
use miso::core::{MultistoreSystem, SystemConfig, Variant};
use miso::data::logs::{Corpus, LogsConfig};
use miso::data::{DataType, Field, Schema};
use miso::dw::DwCostModel;
use miso::hv::HvCostModel;
use miso::optimizer::cost::{estimate_split_cost, CostBreakdown, TransferModel};
use miso::optimizer::optimize::{cheapest_split, split_feasible, Design, OptimizerEnv};
use miso::plan::estimate::{estimate_plan, MapStats, SizeEstimate};
use miso::plan::split::enumerate_splits;
use miso::plan::{AggExpr, AggFunc, Expr, LogicalPlan, Operator, PlanBuilder, Split};
use miso::views::rewrite_with_catalog;
use miso::workload::{compile_workload, standard_udfs, workload_catalog};
use std::collections::{BTreeSet, HashMap, HashSet};

#[path = "support/stages.rs"]
mod stages;
use stages::compile_stages;

/// Every valid split as the set-based enumerator listed them: all
/// downward-closed supersets of the pinned nodes in ascending mask order up
/// to 14 nodes, the valid topological prefixes past that.
fn reference_splits(plan: &LogicalPlan) -> Vec<Split> {
    let n = plan.len();
    if n > 14 {
        let ids: Vec<NodeId> = plan.nodes().iter().map(|node| node.id).collect();
        return (0..=n)
            .map(|k| Split::new(ids[..k].iter().copied().collect()))
            .filter(|split| split.validate(plan).is_ok())
            .collect();
    }
    let mut required: u64 = 0;
    for node in plan.nodes() {
        if node.op.hv_only() {
            for d in plan.descendants(node.id) {
                required |= 1 << d.raw();
            }
        }
        if matches!(node.op, Operator::ScanLog { .. }) {
            required |= 1 << node.id.raw();
        }
    }
    let mut out = Vec::new();
    'mask: for mask in 0u64..(1u64 << n) {
        if mask & required != required {
            continue;
        }
        for node in plan.nodes() {
            if mask & (1 << node.id.raw()) != 0 {
                for input in &node.inputs {
                    if mask & (1 << input.raw()) == 0 {
                        continue 'mask;
                    }
                }
            }
        }
        let hv: BTreeSet<NodeId> = (0..n as u64)
            .filter(|i| mask & (1 << i) != 0)
            .map(NodeId)
            .collect();
        out.push(Split::new(hv));
    }
    out
}

/// The cut, with each node's consumers found by scanning the arena.
fn reference_cut(plan: &LogicalPlan, split: &Split) -> Vec<NodeId> {
    plan.nodes()
        .iter()
        .filter(|node| split.in_hv(node.id))
        .filter(|node| {
            plan.nodes()
                .iter()
                .any(|c| c.inputs.contains(&node.id) && !split.in_hv(c.id))
        })
        .map(|node| node.id)
        .collect()
}

fn reference_feasible(plan: &LogicalPlan, split: &Split, design: &Design) -> bool {
    plan.nodes().iter().all(|node| match &node.op {
        Operator::ScanView { view, .. } if split.in_hv(node.id) => design.hv_views.contains(view),
        Operator::ScanView { view, .. } => design.dw_views.contains(view),
        _ => true,
    })
}

/// The set-based split cost: HV stages from `compile_stages`, then the
/// cut, then the DW remainder.
fn reference_cost(
    plan: &LogicalPlan,
    split: &Split,
    estimates: &HashMap<NodeId, SizeEstimate>,
    env: &OptimizerEnv<'_>,
) -> CostBreakdown {
    let mut breakdown = CostBreakdown::default();
    let hv_set: HashSet<NodeId> = split.hv_nodes().iter().copied().collect();
    if !hv_set.is_empty() {
        for stage in &compile_stages(plan, Some(&hv_set), &HashSet::new()) {
            let mut bytes_in = 0.0f64;
            let mut rows = 0.0f64;
            for &id in &stage.nodes {
                if plan.node(id).op.is_scan() {
                    bytes_in += estimates[&id].bytes;
                }
                rows += estimates[&id].rows;
            }
            for &up in &stage.upstream {
                bytes_in += estimates[&up].bytes;
            }
            breakdown.hv += env.hv.stage_cost(
                ByteSize::from_bytes(bytes_in as u64),
                ByteSize::from_bytes(estimates[&stage.output].bytes as u64),
                rows as u64,
            );
        }
    }
    for cut in reference_cut(plan, split) {
        let bytes = ByteSize::from_bytes(estimates[&cut].bytes as u64);
        breakdown.transfer += env.transfer.ship_cost(env.hv, env.dw, bytes);
    }
    let (mut dw_bytes_in, mut dw_rows, mut any_dw) = (0.0f64, 0.0f64, false);
    for node in plan.nodes() {
        if split.in_hv(node.id) {
            continue;
        }
        any_dw = true;
        match &node.op {
            Operator::ScanView { .. } => dw_bytes_in += estimates[&node.id].bytes,
            _ => {
                for input in &node.inputs {
                    if split.in_hv(*input) {
                        dw_bytes_in += estimates[input].bytes;
                    }
                }
            }
        }
        dw_rows += estimates[&node.id].rows;
    }
    if any_dw {
        breakdown.dw += env
            .dw
            .exec_cost(ByteSize::from_bytes(dw_bytes_in as u64), dw_rows as u64);
    }
    breakdown
}

fn assert_same_cost(what: &str, got: CostBreakdown, want: CostBreakdown) {
    for (part, g, w) in [
        ("hv", got.hv, want.hv),
        ("transfer", got.transfer, want.transfer),
        ("dw", got.dw, want.dw),
    ] {
        assert_eq!(
            g.as_secs_f64().to_bits(),
            w.as_secs_f64().to_bits(),
            "{what}: {part}"
        );
    }
}

/// Checks one plan under one design; returns the splits it enumerated.
fn check(what: &str, plan: &LogicalPlan, design: &Design, env: &OptimizerEnv<'_>) -> usize {
    let splits = reference_splits(plan);
    assert_eq!(enumerate_splits(plan), splits, "{what}: enumeration");
    let estimates = estimate_plan(plan, env.stats);
    let (mut best, mut cost_evals): (Option<(Split, CostBreakdown)>, u64) = (None, 0);
    for split in &splits {
        let label = format!("{what}, HV side {:?}", split.hv_nodes());
        assert_eq!(split.cut_nodes(plan), reference_cut(plan, split), "{label}");
        let want = reference_cost(plan, split, &estimates, env);
        let got = estimate_split_cost(plan, split, &estimates, env.hv, env.dw, env.transfer);
        assert_same_cost(&label, got, want);
        let feasible = reference_feasible(plan, split, design);
        assert_eq!(split_feasible(plan, split, design), feasible, "{label}");
        if feasible {
            cost_evals += 1;
            if best.as_ref().is_none_or(|(_, b)| want.total() < b.total()) {
                best = Some((split.clone(), want));
            }
        }
    }
    let costed = cheapest_split(plan, design, env);
    assert_eq!(
        costed.splits_seen,
        splits.len() as u64,
        "{what}: splits_seen"
    );
    assert_eq!(costed.cost_evals, cost_evals, "{what}: cost_evals");
    match (costed.best, best) {
        (Some((got_split, got)), Some((want_split, want))) => {
            assert_eq!(got_split, want_split, "{what}: winner");
            assert_same_cost(what, got, want);
        }
        (None, None) => {}
        (got, want) => panic!("{what}: winner {got:?}, expected {want:?}"),
    }
    splits.len()
}

fn designs(views: &HashSet<String>) -> [(&'static str, Design); 4] {
    let none = HashSet::new();
    [
        ("no views", Design::new()),
        (
            "HV-only",
            Design {
                hv_views: views.clone(),
                dw_views: none.clone(),
            },
        ),
        (
            "DW-only",
            Design {
                hv_views: none,
                dw_views: views.clone(),
            },
        ),
        (
            "both",
            Design {
                hv_views: views.clone(),
                dw_views: views.clone(),
            },
        ),
    ]
}

#[test]
fn masks_cost_every_template_split_as_the_sets_did() {
    let corpus = Corpus::generate(&LogsConfig::tiny());
    let queries = compile_workload(&workload_catalog()).expect("the standard workload compiles");
    assert_eq!(queries.len(), 32);
    // HV-OP with room for everything: every view the stream harvests stays
    // registered.
    let roomy = Budgets::new(
        ByteSize::from_gib(1),
        ByteSize::from_gib(1),
        ByteSize::from_gib(1),
    );
    let mut sys = MultistoreSystem::new(
        &corpus,
        workload_catalog(),
        standard_udfs(),
        SystemConfig::paper_default(roomy),
    );
    sys.run_workload(Variant::HvOp, &queries).unwrap();
    let views: HashSet<String> = sys.catalog.names().into_iter().collect();
    assert!(
        views.len() >= 20,
        "the stream harvests views: {}",
        views.len()
    );
    let stats = sys.build_stats();
    let env = OptimizerEnv {
        stats: &stats,
        hv: &sys.hv.cost_model,
        dw: &sys.dw.cost_model,
        transfer: sys.transfer_model(),
        catalog: Some(&sys.catalog),
    };
    let (mut rewritten, mut splits) = (0usize, 0usize);
    for (label, raw) in &queries {
        let rewrite = rewrite_with_catalog(raw, &views, &sys.catalog);
        rewritten += usize::from(!rewrite.used.is_empty());
        let plan = rewrite.plan();
        for (name, design) in designs(&views) {
            splits += check(&format!("{label} raw, {name}"), raw, &design, &env);
            splits += check(&format!("{label} rewritten, {name}"), &plan, &design, &env);
        }
    }
    assert!(rewritten >= 16, "views answer templates: {rewritten}");
    assert!(splits > 1_000, "splits compared: {splits}");
}

fn stats() -> MapStats {
    let mut s = MapStats::new();
    s.set_log("twitter", 40_000.0, 40_000.0 * 280.0);
    s.set_log("foursquare", 24_000.0, 24_000.0 * 160.0);
    s
}

fn models() -> (HvCostModel, DwCostModel, TransferModel) {
    (
        HvCostModel::paper_default(),
        DwCostModel::paper_default(),
        TransferModel::paper_default(),
    )
}

fn int_of(field: &str) -> Expr {
    Expr::col(0).get(field).cast(DataType::Int)
}

/// A 16-node plan — an eight- and a seven-node branch joined, so past the
/// exhaustive limit: the prefix family.
#[test]
fn a_sixteen_node_plan_costs_its_prefixes_as_the_sets_did() {
    let branch = |b: &mut PlanBuilder, log: &str, limits: &[u64]| {
        let scan = b
            .add(Operator::ScanLog { log: log.into() }, vec![])
            .unwrap();
        let proj = b
            .add(
                Operator::Project {
                    exprs: vec![("uid".into(), int_of("user_id")), ("n".into(), int_of("n"))],
                },
                vec![scan],
            )
            .unwrap();
        let filt = b
            .add(
                Operator::Filter {
                    predicate: Expr::col(1).eq(Expr::lit(3i64)),
                },
                vec![proj],
            )
            .unwrap();
        let mut top = b
            .add(
                Operator::Aggregate {
                    group_by: vec![0],
                    aggs: vec![AggExpr::new(AggFunc::Count, None, "c")],
                },
                vec![filt],
            )
            .unwrap();
        for &n in limits {
            top = b.add(Operator::Limit { n }, vec![top]).unwrap();
        }
        b.add(
            Operator::Sort {
                keys: vec![(1, true)],
            },
            vec![top],
        )
        .unwrap()
    };
    let mut b = PlanBuilder::new();
    let left = branch(&mut b, "twitter", &[500, 400, 300]);
    let right = branch(&mut b, "foursquare", &[500, 400]);
    let join = b
        .add(Operator::Join { on: vec![(0, 0)] }, vec![left, right])
        .unwrap();
    let plan = b.finish(join).unwrap();
    assert_eq!(plan.len(), 16);
    let s = stats();
    let (hv, dw, transfer) = models();
    let env = OptimizerEnv {
        stats: &s,
        hv: &hv,
        dw: &dw,
        transfer: &transfer,
        catalog: None,
    };
    for (name, design) in designs(&HashSet::new()) {
        // The second scan is node 8: prefixes of 9 to 16 nodes.
        assert_eq!(check(&format!("16 nodes, {name}"), &plan, &design, &env), 8);
    }
    // The left branch as a view, and a 16-node chain over that view, which
    // may also run wholly in DW.
    let view = plan.fingerprint(left).view_name();
    let over_view = plan.replace_with_view(left, &view).unwrap();
    assert_eq!(over_view.len(), 9);
    let mut b = PlanBuilder::new();
    let mut top = b
        .add(
            Operator::ScanView {
                view: view.clone(),
                schema: plan.node(left).schema.clone(),
            },
            vec![],
        )
        .unwrap();
    for n in 0..15 {
        top = b.add(Operator::Limit { n: 900 - n }, vec![top]).unwrap();
    }
    let chain = b.finish(top).unwrap();
    assert_eq!(chain.len(), 16);
    let views: HashSet<String> = [view].into_iter().collect();
    for (name, design) in designs(&views) {
        check(&format!("16-node chain, {name}"), &chain, &design, &env);
        check(
            &format!("left branch, {name}"),
            &plan.subplan(left),
            &design,
            &env,
        );
        check(
            &format!("left branch a view, {name}"),
            &over_view,
            &design,
            &env,
        );
    }
}

/// Two UDF branches joined: both subtrees pinned to HV.
#[test]
fn two_udf_branches_cost_as_the_sets_did() {
    let udf_branch = |b: &mut PlanBuilder, log: &str, udf: &str| {
        let scan = b
            .add(Operator::ScanLog { log: log.into() }, vec![])
            .unwrap();
        let out = Schema::new(vec![
            Field::new("uid", DataType::Int),
            Field::new("score", DataType::Float),
        ]);
        let applied = b
            .add(
                Operator::Udf {
                    name: udf.into(),
                    output: out,
                },
                vec![scan],
            )
            .unwrap();
        b.add(
            Operator::Filter {
                predicate: Expr::col(0).eq(Expr::lit(7i64)),
            },
            vec![applied],
        )
        .unwrap()
    };
    let mut b = PlanBuilder::new();
    let left = udf_branch(&mut b, "twitter", "sentiment");
    let right = udf_branch(&mut b, "foursquare", "mentions");
    let join = b
        .add(Operator::Join { on: vec![(0, 0)] }, vec![left, right])
        .unwrap();
    let agg = b
        .add(
            Operator::Aggregate {
                group_by: vec![0],
                aggs: vec![AggExpr::new(AggFunc::Count, None, "n")],
            },
            vec![join],
        )
        .unwrap();
    let plan = b.finish(agg).unwrap();
    let s = stats();
    let (hv, dw, transfer) = models();
    let env = OptimizerEnv {
        stats: &s,
        hv: &hv,
        dw: &dw,
        transfer: &transfer,
        catalog: None,
    };
    for (name, design) in designs(&HashSet::new()) {
        // Each branch: filter in or out (2 × 2), then the join, then the
        // aggregate.
        assert_eq!(check(&format!("two UDFs, {name}"), &plan, &design, &env), 6);
    }
}

/// A node two consumers read — one extraction filtered two ways and the
/// two joined: the shared projection ends a stage when one of its readers
/// runs in DW and the other in HV.
#[test]
fn a_shared_node_costs_as_the_sets_did() {
    let mut b = PlanBuilder::new();
    let scan = b
        .add(
            Operator::ScanLog {
                log: "twitter".into(),
            },
            vec![],
        )
        .unwrap();
    let proj = b
        .add(
            Operator::Project {
                exprs: vec![("uid".into(), int_of("user_id")), ("n".into(), int_of("n"))],
            },
            vec![scan],
        )
        .unwrap();
    let filter = |b: &mut PlanBuilder, k: i64| {
        b.add(
            Operator::Filter {
                predicate: Expr::col(1).eq(Expr::lit(k)),
            },
            vec![proj],
        )
        .unwrap()
    };
    let (left, right) = (filter(&mut b, 1), filter(&mut b, 2));
    let join = b
        .add(Operator::Join { on: vec![(0, 0)] }, vec![left, right])
        .unwrap();
    let agg = b
        .add(
            Operator::Aggregate {
                group_by: vec![0],
                aggs: vec![AggExpr::new(AggFunc::Count, None, "c")],
            },
            vec![join],
        )
        .unwrap();
    let plan = b.finish(agg).unwrap();
    let s = stats();
    let (hv, dw, transfer) = models();
    let env = OptimizerEnv {
        stats: &s,
        hv: &hv,
        dw: &dw,
        transfer: &transfer,
        catalog: None,
    };
    for (name, design) in designs(&HashSet::new()) {
        // {scan}, then the projection, then either filter or both, the
        // join, the aggregate.
        assert_eq!(
            check(&format!("shared node, {name}"), &plan, &design, &env),
            7
        );
    }
}
