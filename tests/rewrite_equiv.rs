//! The rewriter finds its `used` list in one backward pass over the
//! fingerprints a plan carries and builds the rewritten plan only on
//! request; this pins its result — plan and `used`, in order — to the loop
//! it replaced, which re-fingerprinted and rebuilt the plan after every
//! match, formatted a `v_…` name per node per pass and looked each up in
//! `available`. The old loop is kept here as the oracle. Along the way every
//! plan the stream produces — raw, after each replacement, each subplan,
//! after each containment rewrite, each view definition — must carry the
//! digests a fresh pass over its nodes computes.

use miso::common::ids::{NodeId, QueryId};
use miso::common::{Budgets, ByteSize, DetRng};
use miso::core::{MultistoreSystem, SystemConfig, Variant};
use miso::data::logs::{Corpus, LogsConfig};
use miso::data::DataType;
use miso::plan::fingerprint::{expr_digest, fingerprint_nodes};
use miso::plan::{Expr, LogicalPlan, Operator, PlanBuilder};
use miso::views::containment::{apply_containment, filter_views, find_containment_matches};
use miso::views::rewrite::Rewrite;
use miso::views::{rewrite_with_catalog, rewrite_with_views, ViewCatalog, ViewDef};
use miso::workload::{compile_workload, standard_udfs, workload_catalog};
use std::collections::HashSet;

/// A rewrite as the old loop returned it: the plan built step by step.
struct Naive {
    plan: LogicalPlan,
    used: Vec<String>,
}

/// `plan` carries what a fresh pass over its nodes computes: each node's
/// fingerprint and each filter's conjunct digests.
fn assert_fresh(what: &str, plan: &LogicalPlan) {
    assert_eq!(
        plan.fingerprints(),
        fingerprint_nodes(plan),
        "{what}: fingerprints of\n{plan}"
    );
    for node in plan.nodes() {
        let fresh: Vec<u64> = match &node.op {
            Operator::Filter { predicate } => {
                predicate.conjuncts().into_iter().map(expr_digest).collect()
            }
            _ => Vec::new(),
        };
        assert_eq!(
            plan.conjunct_digests(node.id),
            fresh,
            "{what}: conjunct digests of {}",
            node.id
        );
    }
}

/// The rewriter as it stood before fingerprints were compared as integers:
/// fingerprints recomputed and the plan rebuilt after every match.
fn naive_with_views(plan: &LogicalPlan, available: &HashSet<String>) -> Naive {
    let mut current = plan.clone();
    let mut used = Vec::new();
    loop {
        let fps = fingerprint_nodes(&current);
        let mut replaced = false;
        for node in current.nodes().iter().rev() {
            let name = fps[node.id.raw() as usize].view_name();
            let already = matches!(&node.op, Operator::ScanView { view, .. } if *view == name);
            if !already && available.contains(&name) {
                current = current.replace_with_view(node.id, &name).unwrap();
                assert_fresh("after a replacement", &current);
                used.push(name);
                replaced = true;
                break;
            }
        }
        if !replaced {
            break;
        }
    }
    Naive {
        plan: current,
        used,
    }
}

/// `rewrite_with_catalog`'s alternation of containment and exact passes,
/// over the naive exact pass.
fn naive_with_catalog(
    plan: &LogicalPlan,
    available: &HashSet<String>,
    catalog: &ViewCatalog,
) -> Naive {
    let mut rewrite = naive_with_views(plan, available);
    let fviews = filter_views(catalog, available);
    for _ in 0..32 {
        let matches = find_containment_matches(&rewrite.plan, &fviews);
        let Some(m) = matches.iter().find(|m| m.residual.is_some()) else {
            break;
        };
        let Ok(applied) = apply_containment(&rewrite.plan, m) else {
            break;
        };
        assert_fresh("after a containment rewrite", &applied);
        rewrite.plan = applied;
        rewrite.used.push(m.view.clone());
        let again = naive_with_views(&rewrite.plan, available);
        rewrite.used.extend(again.used);
        rewrite.plan = again.plan;
    }
    rewrite
}

/// For each filter of `q` with several conjuncts, the view an analyst's
/// earlier, looser query would have left: the same input under the first
/// conjunct alone. `q` matches it by containment, never exactly.
fn looser_views(q: &LogicalPlan) -> Vec<ViewDef> {
    let mut out = Vec::new();
    for node in q.nodes() {
        let Operator::Filter { predicate } = &node.op else {
            continue;
        };
        let conjuncts = predicate.conjuncts();
        if conjuncts.len() < 2 {
            continue;
        }
        let sub = q.subplan(node.id);
        let mut b = PlanBuilder::new();
        let mut last = None;
        for n in sub.nodes() {
            let op = if n.id == sub.root() {
                Operator::Filter {
                    predicate: conjuncts[0].clone(),
                }
            } else {
                n.op.clone()
            };
            last = Some(b.add(op, n.inputs.clone()).unwrap());
        }
        let plan = b.finish(last.unwrap()).unwrap();
        out.push(ViewDef::from_plan(
            plan,
            ByteSize::from_kib(64),
            100,
            QueryId(0),
        ));
    }
    out
}

/// The `used` list found without building equals the one the step-by-step
/// rewrite found, and so does the plan built from it.
fn assert_same(label: &str, set: &HashSet<String>, got: Rewrite, want: Naive) {
    assert_eq!(got.used, want.used, "{label} over {set:?}: views used");
    let plan = got.plan();
    assert_eq!(plan, want.plan, "{label} over {set:?}: rewritten plan");
    assert_fresh(label, &plan);
}

#[test]
fn rewrite_matches_the_naive_loop_on_every_template() {
    let corpus = Corpus::generate(&LogsConfig::tiny());
    let queries = compile_workload(&workload_catalog()).expect("the standard workload compiles");
    assert_eq!(queries.len(), 32);
    // Budgets that bind, so the stream ends on a tuned design of a dozen or
    // so views, some of them filter views that match by containment.
    let hv = corpus.total_size();
    let budgets = Budgets::new(hv.scale(0.05), hv.scale(0.02), hv.scale(0.01))
        .with_discretization(ByteSize::from_kib(8));
    let mut sys = MultistoreSystem::new(
        &corpus,
        workload_catalog(),
        standard_udfs(),
        SystemConfig::paper_default(budgets),
    );
    sys.run_workload(Variant::MsMiso, &queries).unwrap();
    let design: Vec<String> = sys.current_design().all_views().into_iter().collect();
    assert!(design.len() >= 4, "the stream should leave a design behind");
    let mut catalog = sys.catalog.clone();
    for (_, q) in &queries {
        for view in looser_views(q) {
            catalog.register(view);
        }
    }
    let harvested = catalog.names();
    for def in catalog.defs() {
        assert_fresh(&def.name, &def.plan);
    }

    let mut rng = DetRng::new(0x5eed);
    let (mut exact, mut nested, mut contained, mut misses) = (0usize, 0usize, 0usize, 0usize);
    for (label, q) in &queries {
        assert_fresh(label, q);
        for node in q.nodes() {
            assert_fresh(label, &q.subplan(node.id));
        }
        // Names of the query's own subtrees: putting a node and one of its
        // ancestors in the same set is a nested match.
        let own: Vec<String> = q.fingerprints().iter().map(|fp| fp.view_name()).collect();
        for round in 0..24 {
            let mut set: HashSet<String> = HashSet::new();
            let pool = if round % 2 == 0 { &design } else { &harvested };
            for name in pool {
                if rng.chance(0.4) {
                    set.insert(name.clone());
                }
            }
            for name in &own {
                if rng.chance(0.15) {
                    set.insert(name.clone());
                }
            }
            // Names nothing can match: an ETL table, a short name, and the
            // same digits as a real subtree in a spelling `view_name` never
            // prints.
            set.insert("etl_twitter".to_string());
            set.insert("v_short".to_string());
            let shouting = format!("v_{}", rng.pick(&own)[2..].to_uppercase());
            if !own.contains(&shouting) {
                set.insert(shouting);
            }

            let want = naive_with_views(q, &set);
            let own_used = want.used.iter().filter(|v| own.contains(v)).count();
            match want.used.len() {
                0 => misses += 1,
                _ => exact += 1,
            }
            if own_used >= 1 && set.iter().filter(|v| own.contains(*v)).count() > own_used {
                nested += 1;
            }
            let exact_used = want.used.len();
            assert_same(label, &set, rewrite_with_views(q, &set), want);

            let want = naive_with_catalog(q, &set, &catalog);
            if want.used.len() > exact_used {
                contained += 1;
            }
            assert_same(label, &set, rewrite_with_catalog(q, &set, &catalog), want);
            // A rewritten plan rewrites to itself.
            let once = rewrite_with_views(q, &set).plan();
            assert_same(
                label,
                &set,
                rewrite_with_views(&once, &set),
                naive_with_views(&once, &set),
            );
        }
    }
    assert!(exact > 100, "exact matches exercised: {exact}");
    assert!(nested > 20, "nested matches exercised: {nested}");
    assert!(
        contained >= 10,
        "containment matches exercised: {contained}"
    );
    assert!(misses > 0, "misses exercised: {misses}");
}

/// The plan a pinned query builds, before and after one replacement.
fn pinned() -> LogicalPlan {
    let mut b = PlanBuilder::new();
    let scan = b
        .add(
            Operator::ScanLog {
                log: "twitter".into(),
            },
            vec![],
        )
        .unwrap();
    let uid = Expr::col(0).get("user_id").cast(DataType::Int);
    let proj = b
        .add(
            Operator::Project {
                exprs: vec![("uid".into(), uid)],
            },
            vec![scan],
        )
        .unwrap();
    let filt = b
        .add(
            Operator::Filter {
                predicate: Expr::col(0).eq(Expr::lit(1i64)),
            },
            vec![proj],
        )
        .unwrap();
    b.finish(filt).unwrap()
}

/// The digests a plan carries are invisible to `==` and `{:?}`: both print
/// and compare what they did before plans carried them, whether a plan's
/// digests were carried over or computed afresh.
#[test]
fn equality_and_debug_ignore_the_digests() {
    let p = pinned();
    assert_eq!(
        format!("{p:?}"),
        "LogicalPlan { nodes: [\
         PlanNode { id: NodeId(0), op: ScanLog { log: \"twitter\" }, inputs: [], \
         schema: Schema { fields: [Field { name: \"record\", ty: Json }] } }, \
         PlanNode { id: NodeId(1), op: Project { exprs: [(\"uid\", Cast { input: FieldGet { \
         input: Column(0), key: \"user_id\" }, ty: Int })] }, inputs: [NodeId(0)], \
         schema: Schema { fields: [Field { name: \"uid\", ty: Int }] } }, \
         PlanNode { id: NodeId(2), op: Filter { predicate: Binary { op: Eq, left: Column(0), \
         right: Literal(Int(1)) } }, inputs: [NodeId(1)], \
         schema: Schema { fields: [Field { name: \"uid\", ty: Int }] } }], root: NodeId(2) }"
    );
    // A name that is not the subtree's own: digests recomputed.
    let other = p
        .replace_with_view(NodeId(1), "v_00000000000000ff")
        .unwrap();
    assert_eq!(
        format!("{other:?}"),
        "LogicalPlan { nodes: [\
         PlanNode { id: NodeId(0), op: ScanView { view: \"v_00000000000000ff\", \
         schema: Schema { fields: [Field { name: \"uid\", ty: Int }] } }, inputs: [], \
         schema: Schema { fields: [Field { name: \"uid\", ty: Int }] } }, \
         PlanNode { id: NodeId(1), op: Filter { predicate: Binary { op: Eq, left: Column(0), \
         right: Literal(Int(1)) } }, inputs: [NodeId(0)], \
         schema: Schema { fields: [Field { name: \"uid\", ty: Int }] } }], root: NodeId(1) }"
    );
    assert_fresh("renamed", &other);
    // The subtree's own name: digests carried. Either way the plan equals
    // the one a builder makes from the same nodes.
    let own = p.fingerprint(NodeId(1)).view_name();
    let carried = p.replace_with_view(NodeId(1), &own).unwrap();
    assert_fresh("carried", &carried);
    assert_eq!(carried.fingerprint(carried.root()), p.fingerprint(p.root()));
    for rewritten in [&other, &carried] {
        let mut b = PlanBuilder::new();
        for node in rewritten.nodes() {
            b.add(node.op.clone(), node.inputs.clone()).unwrap();
        }
        let built = b.finish(rewritten.root()).unwrap();
        assert_eq!(&built, rewritten);
        assert_eq!(format!("{built:?}"), format!("{rewritten:?}"));
    }
    assert_ne!(other, carried);
    assert_eq!(p, pinned());
}
