//! `rewrite_with_views` compares parsed fingerprints and builds no plan until
//! a node matches; this pins its result — plan and `used`, in order — to the
//! loop it replaced, which formatted a `v_…` name per node per pass and
//! looked each up in `available`. The old loop is kept here as the oracle.

use miso::common::ids::QueryId;
use miso::common::{Budgets, ByteSize, DetRng};
use miso::core::{MultistoreSystem, SystemConfig, Variant};
use miso::data::logs::{Corpus, LogsConfig};
use miso::plan::fingerprint::fingerprint_all;
use miso::plan::{LogicalPlan, Operator, PlanBuilder};
use miso::views::containment::{apply_containment, filter_views, find_containment_matches};
use miso::views::rewrite::Rewrite;
use miso::views::{rewrite_with_catalog, rewrite_with_views, ViewCatalog, ViewDef};
use miso::workload::{compile_workload, standard_udfs, workload_catalog};
use std::collections::HashSet;

/// The rewriter as it stood before fingerprints were compared as integers.
fn naive_with_views(plan: &LogicalPlan, available: &HashSet<String>) -> Rewrite {
    let mut current = plan.clone();
    let mut used = Vec::new();
    loop {
        let fps = fingerprint_all(&current);
        let mut replaced = false;
        for node in current.nodes().iter().rev() {
            let name = fps[&node.id].view_name();
            let already = matches!(&node.op, Operator::ScanView { view, .. } if *view == name);
            if !already && available.contains(&name) {
                current = current.replace_with_view(node.id, &name).unwrap();
                used.push(name);
                replaced = true;
                break;
            }
        }
        if !replaced {
            break;
        }
    }
    Rewrite {
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
) -> Rewrite {
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

fn assert_same(label: &str, set: &HashSet<String>, got: Rewrite, want: Rewrite) {
    assert_eq!(got.used, want.used, "{label} over {set:?}: views used");
    assert_eq!(got.plan, want.plan, "{label} over {set:?}: rewritten plan");
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

    let mut rng = DetRng::new(0x5eed);
    let (mut exact, mut nested, mut contained, mut misses) = (0usize, 0usize, 0usize, 0usize);
    for (label, q) in &queries {
        // Names of the query's own subtrees: putting a node and one of its
        // ancestors in the same set is a nested match.
        let fps = fingerprint_all(q);
        let own: Vec<String> = q.nodes().iter().map(|n| fps[&n.id].view_name()).collect();
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
            let once = rewrite_with_views(q, &set);
            assert_same(
                label,
                &set,
                rewrite_with_views(&once.plan, &set),
                naive_with_views(&once.plan, &set),
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
