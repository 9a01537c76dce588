//! Equivalence and invalidation tests for the miso-par what-if engine.
//!
//! The contract under test: threading, the delta probe and its memo are
//! pure performance levers — the tuner's output must be *identical* for
//! any `MISO_THREADS` value and with the cross-epoch memo on or off, every
//! probe must be bit-equal to the optimizer's `what_if_cost`, and a memo
//! entry must never outlive an input its value was computed from (nor be
//! evicted by a change to one it was not).

use miso::common::ids::QueryId;
use miso::common::{pool, Budgets, ByteSize, SimClock};
use miso::core::{
    MisoTuner, MultistoreSystem, NewDesign, SystemConfig, TunerConfig, Variant, WhatIfStats,
    WHATIF_MEMO_CAP,
};
use miso::data::logs::{Corpus, LogsConfig};
use miso::dw::DwCostModel;
use miso::hv::HvCostModel;
use miso::lang::{compile, Catalog};
use miso::optimizer::cost::TransferModel;
use miso::optimizer::optimize::{what_if_cost, Design, OptimizerEnv};
use miso::plan::estimate::MapStats;
use miso::plan::fingerprint::expr_digest;
use miso::plan::{LogicalPlan, Operator};
use miso::views::{rewrite_with_catalog, ViewCatalog, ViewDef};
use miso::workload::{compile_workload, standard_udfs, workload_catalog};
use std::collections::{BTreeSet, HashMap, HashSet};
use std::sync::{Mutex, MutexGuard};

/// The pool width is process-global; tests that set it take this lock, so
/// each runs at the widths it names.
fn pool_lock() -> MutexGuard<'static, ()> {
    static LOCK: Mutex<()> = Mutex::new(());
    LOCK.lock().unwrap_or_else(|e| e.into_inner())
}

fn budgets(gib: u64) -> Budgets {
    Budgets::new(
        ByteSize::from_gib(gib),
        ByteSize::from_gib(gib),
        ByteSize::from_gib(gib),
    )
    .with_discretization(ByteSize::from_kib(64))
}

fn stats() -> MapStats {
    let mut s = MapStats::new();
    s.set_log("twitter", 40_000.0, 40_000.0 * 280.0);
    s.set_log("foursquare", 24_000.0, 24_000.0 * 160.0);
    s.set_log("landmarks", 900.0, 900.0 * 190.0);
    s
}

/// Builds a query plan plus a view over its filter subtree.
fn plan_and_view(sql: &str, size: ByteSize) -> (LogicalPlan, ViewDef) {
    let plan = compile(sql, &Catalog::standard()).unwrap();
    let filt = plan
        .nodes()
        .iter()
        .find(|n| matches!(n.op, Operator::Filter { .. }))
        .unwrap()
        .id;
    let sub = plan.subplan(filt);
    let def = ViewDef::from_plan(sub, size, 1_000, QueryId(0));
    (plan, def)
}

/// A small mixed universe: several beneficial views over two logs.
fn universe() -> (Vec<LogicalPlan>, ViewCatalog, MapStats, BTreeSet<String>) {
    let sqls = [
        "SELECT t.city AS c, COUNT(*) AS n FROM twitter t \
         WHERE t.followers > 1000 GROUP BY t.city",
        "SELECT t.lang AS l, COUNT(*) AS n FROM twitter t \
         WHERE t.retweets > 50 GROUP BY t.lang",
        "SELECT f.city AS c, COUNT(*) AS n FROM foursquare f \
         WHERE f.likes > 10 GROUP BY f.city",
        "SELECT f.city AS c, COUNT(*) AS n FROM foursquare f \
         WHERE f.likes > 200 GROUP BY f.city",
    ];
    let mut catalog = ViewCatalog::new();
    let mut s = stats();
    let mut hv = BTreeSet::new();
    let mut plans = Vec::new();
    for (i, sql) in sqls.iter().enumerate() {
        let (plan, view) = plan_and_view(sql, ByteSize::from_kib(150 + 40 * i as u64));
        s.set_view(view.name.clone(), 1_000.0, view.size.as_bytes() as f64);
        hv.insert(view.name.clone());
        catalog.register(view);
        plans.push(plan);
    }
    (plans, catalog, s, hv)
}

fn tune_once(
    tuner: &MisoTuner,
    hv: &BTreeSet<String>,
    catalog: &ViewCatalog,
    history: &[LogicalPlan],
    s: &MapStats,
) -> NewDesign {
    tuner.tune(
        hv,
        &BTreeSet::new(),
        catalog,
        history,
        s,
        &HvCostModel::paper_default(),
        &DwCostModel::paper_default(),
        &TransferModel::paper_default(),
    )
}

/// The same workload tuned under every (thread count, cache) combination
/// must yield one design, in a first epoch over a window that repeats each
/// query (the memo answers a repeat, a memo-off tuner costs it again) and in
/// a second one after churn: one view dropped, one registered, and the
/// window slid by `epoch_len`. The memo-on tuner carries into the second
/// epoch the probes whose query and views both stayed, so it hits more than
/// a memo-on tuner that starts there.
#[test]
fn designs_identical_across_threads_and_caching() {
    let _pool = pool_lock();
    let (plans, catalog, s, hv) = universe();
    let history: Vec<LogicalPlan> = (0..8).map(|i| plans[i % plans.len()].clone()).collect();
    let config = TunerConfig {
        budgets: budgets(1),
        history_len: history.len(),
        epoch_len: 3,
        decay: 0.5,
        doi_threshold: 1.0,
    };
    // Three unseen queries enter the slid window; the first brings a view.
    let entering = [500, 700, 900].map(|n| {
        let sql = format!(
            "SELECT t.lang AS l, COUNT(*) AS n FROM twitter t \
             WHERE t.retweets > {n} GROUP BY t.lang"
        );
        plan_and_view(&sql, ByteSize::from_kib(120))
    });
    let stream: Vec<LogicalPlan> = history
        .iter()
        .chain(entering.iter().map(|(plan, _)| plan))
        .cloned()
        .collect();
    let (mut catalog2, mut s2, mut hv2) = (catalog.clone(), s.clone(), hv.clone());
    let dropped = hv.iter().next().unwrap();
    catalog2.remove(dropped).expect("a registered view");
    hv2.remove(dropped);
    let added = entering[0].1.clone();
    s2.set_view(added.name.clone(), 1_000.0, added.size.as_bytes() as f64);
    hv2.insert(added.name.clone());
    assert!(catalog2.register(added));
    let slid = &stream[config.epoch_len..config.epoch_len + history.len()];

    let mut designs = Vec::new();
    for threads in [1usize, 4] {
        for cache in [false, true] {
            pool::set_threads(threads);
            let tuner = MisoTuner::new(config.clone()).with_whatif_cache(cache);
            let first = tune_once(&tuner, &hv, &catalog, &history, &s);
            let mut second = None;
            let churned = tally(&tuner, |t| {
                second = Some(tune_once(t, &hv2, &catalog2, slid, &s2))
            });
            if cache {
                assert!(
                    tuner.whatif_cache_len() > 0,
                    "cache-enabled tuning should memoize probes"
                );
                let cold = tally(&MisoTuner::new(config.clone()), |t| {
                    tune_once(t, &hv2, &catalog2, slid, &s2);
                });
                assert!(
                    churned.hits > cold.hits,
                    "{threads} threads: carried {churned:?}, cold {cold:?}"
                );
            } else {
                assert_eq!(tuner.whatif_cache_len(), 0);
            }
            designs.push([first, second.unwrap()]);
        }
    }
    pool::set_threads(1);
    assert!(
        !designs[0][0].hv.is_empty() || !designs[0][0].dw.is_empty(),
        "universe should produce a non-trivial design"
    );
    for d in &designs[1..] {
        assert_eq!(*d, designs[0], "threading/caching changed a design");
    }
}

/// A second epoch over an unchanged workload is served from the memo: the
/// design repeats and the cache gains no new entries (every probe hit).
#[test]
fn unchanged_workload_reuses_the_cache() {
    let (plans, catalog, s, hv) = universe();
    let history: Vec<LogicalPlan> = (0..6).map(|i| plans[i % plans.len()].clone()).collect();
    let config = TunerConfig {
        budgets: budgets(1),
        history_len: history.len(),
        epoch_len: 3,
        decay: 0.5,
        doi_threshold: 1.0,
    };
    let tuner = MisoTuner::new(config);
    let first = tune_once(&tuner, &hv, &catalog, &history, &s);
    let filled = tuner.whatif_cache_len();
    assert!(filled > 0);
    let second = tune_once(&tuner, &hv, &catalog, &history, &s);
    assert_eq!(first, second, "unchanged inputs must repeat the design");
    assert_eq!(
        tuner.whatif_cache_len(),
        filled,
        "second epoch should add no probes — everything hits the memo"
    );
}

/// Changing a probe-relevant input (view statistics) between epochs must
/// miss the memo: the cached tuner's new design matches what a fresh,
/// cache-free tuner computes on the new stats — a stale cache would keep
/// serving the old costs and the old design.
#[test]
fn stats_change_invalidates_the_cache() {
    let (plan, view) = plan_and_view(
        "SELECT t.city AS c, COUNT(*) AS n FROM twitter t \
         WHERE t.followers > 1000 GROUP BY t.city",
        ByteSize::from_kib(200),
    );
    let mut catalog = ViewCatalog::new();
    let name = view.name.clone();
    catalog.register(view);
    let mut s = stats();
    s.set_view(name.clone(), 1_000.0, 200.0 * 1024.0);

    let config = TunerConfig::paper_default(budgets(1));
    let hv: BTreeSet<String> = [name.clone()].into_iter().collect();
    let history = [plan];

    let tuner = MisoTuner::new(config.clone());
    let before = tune_once(&tuner, &hv, &catalog, &history, &s);
    assert!(
        before.dw.contains(&name),
        "small view over a big log starts out beneficial"
    );

    // The view's true size balloons past the log itself: the optimizer's
    // no-views variant wins every probe, so the view stops being relevant.
    s.set_view(name.clone(), 40_000_000.0, 40_000_000.0 * 280.0);
    let after = tune_once(&tuner, &hv, &catalog, &history, &s);
    let fresh = tune_once(
        &MisoTuner::new(config).with_whatif_cache(false),
        &hv,
        &catalog,
        &history,
        &s,
    );
    assert_eq!(
        after, fresh,
        "cached tuner must recompute under the new stats, not serve stale costs"
    );
    assert_ne!(
        before, after,
        "the stats change is drastic enough to flip the design"
    );
}

// ---- The 32 templates and the views a real stream harvests from them ----

/// Budgets that bind on the tiny corpus: about a dozen views survive a
/// reorganization, as on the benchmark's streams.
fn tight_budgets(corpus: &Corpus) -> Budgets {
    let hv = corpus.total_size();
    Budgets::new(hv.scale(0.05), hv.scale(0.02), hv.scale(0.01))
        .with_discretization(ByteSize::from_kib(8))
}

fn tight_system(corpus: &Corpus) -> MultistoreSystem {
    MultistoreSystem::new(
        corpus,
        workload_catalog(),
        standard_udfs(),
        SystemConfig::paper_default(tight_budgets(corpus)),
    )
}

fn templates() -> Vec<(String, LogicalPlan)> {
    compile_workload(&workload_catalog()).expect("the standard workload compiles")
}

fn env_of<'a>(sys: &'a MultistoreSystem, stats: &'a MapStats) -> OptimizerEnv<'a> {
    OptimizerEnv {
        stats,
        hv: &sys.hv.cost_model,
        dw: &sys.dw.cost_model,
        transfer: sys.transfer_model(),
        catalog: Some(&sys.catalog),
    }
}

fn symmetric(set: &BTreeSet<String>) -> Design {
    Design {
        hv_views: set.iter().cloned().collect(),
        dw_views: set.iter().cloned().collect(),
    }
}

/// Over the 32 templates and the views the MS-MISO stream leaves behind:
/// for S ∈ {∅, every singleton, every pair with a member the query can
/// use, all}, the tuner's probe is bit-equal to the optimizer's
/// `what_if_cost(q, design(S))`, and two view sets that rewrite a query by
/// the same ordered `used` list yield the same rewritten plan (what lets
/// one costing serve them all). Pairs neither member of which the query
/// can use are what the tuner's stage 2 skips too.
#[test]
fn delta_probe_is_bit_equal_to_what_if_cost() {
    let corpus = Corpus::generate(&LogsConfig::tiny());
    let queries = templates();
    let mut sys = tight_system(&corpus);
    sys.run_workload(Variant::MsMiso, &queries).unwrap();
    let names = sys.catalog.names();
    assert!(names.len() >= 4, "the stream should leave views behind");
    let set_of =
        |views: &[&String]| -> BTreeSet<String> { views.iter().copied().cloned().collect() };
    let rewrite = |q: &LogicalPlan, set: &BTreeSet<String>| {
        rewrite_with_catalog(q, &set.iter().cloned().collect(), &sys.catalog)
    };

    let stats = sys.build_stats();
    let env = env_of(&sys, &stats);
    let tuner = sys.tuner();
    let mut pairs_checked = 0usize;
    for (label, q) in &queries {
        let usable: Vec<bool> = names
            .iter()
            .map(|v| !rewrite(q, &set_of(&[v])).used.is_empty())
            .collect();
        let mut sets = vec![BTreeSet::new(), names.iter().cloned().collect()];
        for (i, a) in names.iter().enumerate() {
            sets.push(set_of(&[a]));
            for (j, b) in names.iter().enumerate().skip(i + 1) {
                if usable[i] || usable[j] {
                    sets.push(set_of(&[a, b]));
                    pairs_checked += 1;
                }
            }
        }
        let mut by_used: HashMap<Vec<String>, LogicalPlan> = HashMap::new();
        for set in &sets {
            let reference = what_if_cost(q, &symmetric(set), &env).as_secs_f64();
            let probed = tuner.probe(q, set, &env);
            assert_eq!(
                probed.to_bits(),
                reference.to_bits(),
                "{label} over {set:?}: probe {probed} vs what_if_cost {reference}"
            );
            let rewritten = rewrite(q, set);
            let plan = rewritten.plan();
            if let Some(first) = by_used.get(&rewritten.used) {
                assert_eq!(
                    *first, plan,
                    "{label}: used list {:?} reached two rewritten plans",
                    rewritten.used
                );
            } else {
                by_used.insert(rewritten.used, plan);
            }
        }
    }
    assert!(pairs_checked > 0, "some view should answer some template");
    let stats = tuner.whatif_stats();
    assert!(stats.unused > 0 && stats.costed > 0, "{stats:?}");
}

/// The `FilterView` summary a `ViewDef` carries equals the one containment
/// rewriting used to recompute on every call, for every view the 32
/// templates can harvest.
#[test]
fn filter_view_summary_matches_recomputation() {
    let corpus = Corpus::generate(&LogsConfig::tiny());
    let queries = templates();
    // HV-OP with room for everything: every harvested view stays registered.
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
    let mut filter_rooted = 0usize;
    for def in sys.catalog.defs() {
        let root = def.plan.root_node();
        let Operator::Filter { predicate } = &root.op else {
            assert!(def.filter_form.is_none(), "{}: not filter-rooted", def.name);
            continue;
        };
        filter_rooted += 1;
        let form = def.filter_form.as_ref().expect("filter-rooted view");
        assert_eq!(form.name, def.name);
        assert_eq!(
            form.input_fp,
            def.plan.fingerprint(root.inputs[0]).0,
            "{}",
            def.name
        );
        let conjuncts: HashSet<u64> = predicate.conjuncts().into_iter().map(expr_digest).collect();
        assert_eq!(form.conjuncts, conjuncts, "{}", def.name);
    }
    assert!(
        filter_rooted >= 8,
        "the templates harvest filter-rooted views"
    );
}

/// Drives `loops` passes of the 32-template stream one query at a time —
/// `reorg_now(window)` at every boundary, then the query, whose execution
/// harvests new views — and at every boundary tunes the live state with a
/// cache-free reference tuner and two long-lived memoising tuners, at 1 and
/// at 8 threads; the two memoising tuners end with equal counters. Returns
/// how many boundaries were compared.
fn assert_stream_designs_match(loops: usize) -> usize {
    let corpus = Corpus::generate(&LogsConfig::tiny());
    let templates = templates();
    let queries: Vec<&(String, LogicalPlan)> = (0..loops).flat_map(|_| templates.iter()).collect();
    let mut sys = tight_system(&corpus);
    let (every, len) = (sys.config().reorg_every, sys.config().history_len);
    let config = sys.tuner().config.clone();
    let reference = MisoTuner::new(config.clone()).with_whatif_cache(false);
    let memoising = [
        (1usize, MisoTuner::new(config.clone())),
        (8usize, MisoTuner::new(config)),
    ];
    let mut boundaries = 0usize;
    for (i, query) in queries.iter().enumerate() {
        if i > 0 && i % every == 0 {
            let window: Vec<LogicalPlan> = queries[i.saturating_sub(len)..i]
                .iter()
                .map(|(_, p)| p.clone())
                .collect();
            let hv: BTreeSet<String> = sys.hv.view_names().into_iter().collect();
            let dw: BTreeSet<String> = sys.dw.view_names().into_iter().collect();
            let stats = sys.build_stats();
            let tune = |tuner: &MisoTuner| {
                tuner.tune(
                    &hv,
                    &dw,
                    &sys.catalog,
                    &window,
                    &stats,
                    &sys.hv.cost_model,
                    &sys.dw.cost_model,
                    sys.transfer_model(),
                )
            };
            pool::set_threads(1);
            let expected = tune(&reference);
            for (threads, tuner) in &memoising {
                pool::set_threads(*threads);
                assert_eq!(
                    tune(tuner),
                    expected,
                    "boundary {i}, {threads} threads: memoising tuner diverged"
                );
                assert!(
                    tuner.whatif_cache_len() <= WHATIF_MEMO_CAP,
                    "boundary {i}: memo holds {} entries",
                    tuner.whatif_cache_len()
                );
            }
            boundaries += 1;
            sys.reorg_now(&window, &mut SimClock::new()).unwrap();
            assert!(sys.tuner().whatif_cache_len() <= WHATIF_MEMO_CAP);
        }
        sys.run_workload(Variant::MsMiso, std::slice::from_ref(*query))
            .unwrap();
    }
    pool::set_threads(1);
    for (threads, tuner) in &memoising {
        let stats = tuner.whatif_stats();
        assert!(
            stats.hits * 2 > stats.probes,
            "{threads} threads: a looping stream should mostly hit, got {stats:?}"
        );
    }
    assert_eq!(
        memoising[0].1.whatif_stats(),
        memoising[1].1.whatif_stats(),
        "1 and 8 threads probed, hit, rewrote or costed differently"
    );
    boundaries
}

/// Memo on or off, 1 thread or 8: one design per boundary along a whole
/// stream whose catalog changes between epochs, and the memo stays bounded
/// however long the stream runs.
#[test]
fn designs_match_along_a_harvesting_stream_and_the_memo_stays_bounded() {
    let _pool = pool_lock();
    assert_eq!(assert_stream_designs_match(6), 63);
}

/// What one more `tune` call did to a tuner's memo counters.
fn tally(tuner: &MisoTuner, tune: impl FnOnce(&MisoTuner)) -> WhatIfStats {
    let before = tuner.whatif_stats();
    tune(tuner);
    let after = tuner.whatif_stats();
    WhatIfStats {
        probes: after.probes - before.probes,
        hits: after.hits - before.hits,
        unused: after.unused - before.unused,
        costed: after.costed - before.costed,
        evicted: after.evicted - before.evicted,
    }
}

/// A window holding the same query twice probes each distinct plan once,
/// however many workers race for it: the counters repeat exactly at 1 and
/// 8 threads, and so does the design.
#[test]
fn duplicated_window_query_is_probed_once_at_any_thread_count() {
    let _pool = pool_lock();
    let (plans, catalog, s, hv) = universe();
    let history: Vec<LogicalPlan> = [0, 1, 0, 2, 0, 3, 1, 0]
        .iter()
        .map(|&i| plans[i].clone())
        .collect();
    let config = TunerConfig {
        budgets: budgets(1),
        history_len: history.len(),
        epoch_len: 3,
        decay: 0.5,
        doi_threshold: 1.0,
    };
    let mut runs = Vec::new();
    for threads in [1usize, 8, 8, 8] {
        pool::set_threads(threads);
        let tuner = MisoTuner::new(config.clone());
        let mut design = None;
        let stats = tally(&tuner, |t| {
            design = Some(tune_once(t, &hv, &catalog, &history, &s))
        });
        runs.push((stats, design.unwrap(), tuner.whatif_cache_len()));
    }
    pool::set_threads(1);
    let (first, _, _) = &runs[0];
    assert!(
        first.hits > 0,
        "duplicates should read the first occurrence"
    );
    // Four distinct plans: four bases, and never more costings than one
    // per (plan, view) beyond them.
    assert!(first.costed <= (4 + 4 * hv.len()) as u64, "{first:?}");
    for run in &runs[1..] {
        assert_eq!(*run, runs[0], "thread count changed what was probed");
    }
}

/// A memo entry is keyed by what its probe read — nothing else evicts it,
/// and any change to that misses it.
#[test]
fn memo_entries_live_exactly_as_long_as_their_inputs() {
    let (plans, catalog, s, hv) = universe();
    let config = TunerConfig {
        budgets: budgets(1),
        history_len: plans.len(),
        epoch_len: 3,
        decay: 0.5,
        doi_threshold: 1.0,
    };
    let tuner = MisoTuner::new(config.clone());
    let fresh = |catalog: &ViewCatalog, s: &MapStats| {
        tune_once(
            &MisoTuner::new(config.clone()).with_whatif_cache(false),
            &hv,
            catalog,
            &plans,
            s,
        )
    };
    let filled = tally(&tuner, |t| {
        tune_once(t, &hv, &catalog, &plans, &s);
    });
    assert!(filled.costed > 0 && filled.unused > 0, "{filled:?}");

    // Registering an unrelated view (new catalog entry, new statistics)
    // evicts nothing: every probe of the next epoch hits.
    let (_, unrelated) = plan_and_view(
        "SELECT l.category AS c, COUNT(*) AS n FROM landmarks l \
         WHERE l.rating > 3 GROUP BY l.category",
        ByteSize::from_kib(64),
    );
    let mut catalog2 = catalog.clone();
    let mut s2 = s.clone();
    s2.set_view(unrelated.name.clone(), 500.0, 64.0 * 1024.0);
    assert!(catalog2.register(unrelated));
    let after_register = tally(&tuner, |t| {
        tune_once(t, &hv, &catalog2, &plans, &s2);
    });
    assert_eq!(
        after_register.hits, after_register.probes,
        "{after_register:?}"
    );

    // Changing the size of one candidate view misses exactly the probes
    // whose view set holds it; the others still hit.
    let resized = hv.iter().next().unwrap().clone();
    let mut s3 = s2.clone();
    s3.set_view(resized.clone(), 2_000.0, 300.0 * 1024.0);
    let mut design = None;
    let after_resize = tally(&tuner, |t| {
        design = Some(tune_once(t, &hv, &catalog2, &plans, &s3))
    });
    assert!(after_resize.hits > 0, "{after_resize:?}");
    assert!(after_resize.hits < after_resize.probes, "{after_resize:?}");
    assert!(after_resize.costed > 0, "{after_resize:?}");
    assert_eq!(design.unwrap(), fresh(&catalog2, &s3));

    // Growing a log misses only the queries that scan it.
    let hv_cost = HvCostModel::paper_default();
    let dw_cost = DwCostModel::paper_default();
    let transfer = TransferModel::paper_default();
    let env = |stats| OptimizerEnv {
        stats,
        hv: &hv_cost,
        dw: &dw_cost,
        transfer: &transfer,
        catalog: Some(&catalog2),
    };
    // Any singleton was probed against every window query by the last tune.
    let (twitter_q, foursquare_q) = (&plans[0], &plans[2]);
    let one: BTreeSet<String> = [resized].into_iter().collect();
    let mut s4 = s3.clone();
    s4.set_log("foursquare", 30_000.0, 30_000.0 * 160.0);
    let on_twitter = tally(&tuner, |t| {
        t.probe(twitter_q, &one, &env(&s4));
    });
    assert_eq!((on_twitter.hits, on_twitter.costed), (1, 0));
    let on_foursquare = tally(&tuner, |t| {
        let probed = t.probe(foursquare_q, &one, &env(&s4));
        let reference = what_if_cost(foursquare_q, &symmetric(&one), &env(&s4));
        assert_eq!(probed.to_bits(), reference.as_secs_f64().to_bits());
    });
    assert_eq!(on_foursquare.hits, 0, "{on_foursquare:?}");
    assert!(on_foursquare.costed > 0, "{on_foursquare:?}");
}

/// Every constant of the HV, DW and transfer models flushes the memo when
/// it changes.
#[test]
fn any_model_constant_change_flushes_the_memo() {
    let (plans, catalog, s, hv) = universe();
    let tuner = MisoTuner::new(TunerConfig {
        budgets: budgets(1),
        history_len: plans.len(),
        epoch_len: 3,
        decay: 0.5,
        doi_threshold: 1.0,
    });
    type Models = (HvCostModel, DwCostModel, TransferModel);
    type Bump = fn(&mut Models);
    let bumps: Vec<(&str, Bump)> = vec![
        ("hv.nodes", |m| m.0.nodes += 1),
        ("hv.job_startup", |m| {
            m.0.job_startup = m.0.job_startup * 1.5
        }),
        ("hv.read_secs_per_byte", |m| m.0.read_secs_per_byte *= 1.5),
        ("hv.write_secs_per_byte", |m| m.0.write_secs_per_byte *= 1.5),
        ("hv.cpu_secs_per_row", |m| m.0.cpu_secs_per_row *= 1.5),
        ("hv.dump_secs_per_byte", |m| m.0.dump_secs_per_byte *= 1.5),
        ("dw.nodes", |m| m.1.nodes += 1),
        ("dw.query_startup", |m| {
            m.1.query_startup = m.1.query_startup * 1.5
        }),
        ("dw.read_secs_per_byte", |m| m.1.read_secs_per_byte *= 1.5),
        ("dw.cpu_secs_per_row", |m| m.1.cpu_secs_per_row *= 1.5),
        ("dw.load_secs_per_byte", |m| m.1.load_secs_per_byte *= 1.5),
        ("transfer.network_secs_per_byte", |m| {
            m.2.network_secs_per_byte *= 1.5
        }),
    ];
    let mut models: Models = (
        HvCostModel::paper_default(),
        DwCostModel::paper_default(),
        TransferModel::paper_default(),
    );
    let tune = |t: &MisoTuner, m: &Models| {
        t.tune(
            &hv,
            &BTreeSet::new(),
            &catalog,
            &plans,
            &s,
            &m.0,
            &m.1,
            &m.2,
        )
    };
    tune(&tuner, &models);
    for (what, bump) in bumps {
        let warm = tally(&tuner, |t| {
            tune(t, &models);
        });
        assert_eq!(warm.hits, warm.probes, "unchanged models: {warm:?}");
        bump(&mut models);
        let mut design = None;
        let flushed = tally(&tuner, |t| design = Some(tune(t, &models)));
        // The only hits left are within the epoch (none here: the window's
        // plans are distinct and each (query, set) is asked once).
        assert_eq!(flushed.hits, 0, "{what} changed: {flushed:?}");
        let reference = MisoTuner::new(tuner.config.clone()).with_whatif_cache(false);
        assert_eq!(design.unwrap(), tune(&reference, &models), "{what}");
    }
}

/// The system owns its tuner: a second `reorg_now` on the same system
/// reuses the first one's probes. (With a tuner built per call — the parent
/// commit — the second call starts from an empty memo and hits nothing.)
#[test]
fn reorg_now_reuses_probes_across_calls() {
    let corpus = Corpus::generate(&LogsConfig::tiny());
    let queries = templates();
    let mut sys = tight_system(&corpus);
    sys.run_workload(Variant::MsMiso, &queries[..6]).unwrap();
    let window: Vec<LogicalPlan> = queries[..6].iter().map(|(_, p)| p.clone()).collect();
    sys.reorg_now(&window, &mut SimClock::new()).unwrap();
    let before = sys.tuner().whatif_stats();
    sys.reorg_now(&window, &mut SimClock::new()).unwrap();
    let after = sys.tuner().whatif_stats();
    assert!(after.probes > before.probes, "the second reorg probes");
    assert!(
        after.hits > before.hits,
        "the second reorg_now should hit the first one's entries: {before:?} -> {after:?}"
    );
}
