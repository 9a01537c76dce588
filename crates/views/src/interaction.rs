//! View interactions: signed doi, stable partition, sparsification.
//!
//! The knapsack DP requires item benefits to be independent, but views
//! interact (paper §4.1): a pair may be worth *more* together (a join's two
//! inputs) or *less* (two views that each answer the same subexpression —
//! the optimizer will only ever use one). Following §4.3:
//!
//! 1. compute the **signed degree of interaction** between view pairs, the
//!    decay-weighted difference between joint and separate benefits;
//! 2. **partition** views into interacting sets: connected components of the
//!    graph with edges where |doi| exceeds a threshold (\[19\]'s stable
//!    partition — views in different parts don't interact);
//! 3. **sparsify** each part: recursively merge the most strongly
//!    *positively* interacting pair into a single composite item (packed
//!    together or not at all), then among the remaining mutually *negative*
//!    items keep only the best benefit-per-byte representative.
//!
//! The result is a list of independent [`KnapsackItem`]s for M-KNAPSACK.
//!
//! All benefits are probed through a caller-supplied what-if cost function
//! `cost(query_index, view_subset)` — the tuner wires this to the multistore
//! optimizer's what-if mode. Probes are the analysis' scaling wall
//! (O(Q·V + Q·V²) full re-optimizations per epoch), so the [`ProbeEngine`]
//! below (a) memoizes by interned [`ViewSet`] bitset instead of cloned name
//! vectors, and (b) *batches* every independent probe front and fans it out
//! across the miso-par worker pool (`miso_common::pool`, `MISO_THREADS`).
//! Probes are pure, results land keyed by task index, and all selection
//! logic runs serially over the filled memo — so the output is byte-equal
//! for every thread count.

use crate::viewset::ViewSet;
use miso_common::{pool, ByteSize};
use std::collections::{BTreeSet, HashMap};

/// A view the tuner is considering, with current placement.
#[derive(Debug, Clone)]
pub struct ViewInfo {
    /// Canonical view name.
    pub name: String,
    /// Materialized size.
    pub size: ByteSize,
}

/// Tuning parameters for the interaction analysis.
#[derive(Debug, Clone)]
pub struct AnalysisConfig {
    /// Minimum |doi| for an edge to count as a real interaction. System- and
    /// workload-dependent (paper §4.3); expressed in the same simulated-
    /// seconds units as benefits.
    pub doi_threshold: f64,
    /// If set, raise the threshold adaptively until no interacting set has
    /// more than this many views (the paper tunes its threshold "to result
    /// in parts with a small number (e.g., 4) of views").
    pub max_part_size: Option<usize>,
}

impl Default for AnalysisConfig {
    fn default() -> Self {
        AnalysisConfig {
            doi_threshold: 1.0,
            max_part_size: Some(4),
        }
    }
}

/// An independent knapsack item: one view, or a positively-interacting
/// view set merged into an all-or-nothing unit.
#[derive(Debug, Clone, PartialEq)]
pub struct KnapsackItem {
    /// The views packed together by this item.
    pub views: BTreeSet<String>,
    /// Combined size (sum of member sizes).
    pub size: ByteSize,
    /// Decay-weighted benefit of having all members present.
    pub benefit: f64,
}

/// The what-if probe signature: cost of history query `q` under a
/// hypothetical design holding exactly the given views — a subset of the
/// candidates passed to [`analyze_candidates`], bit `i` naming `views[i]`.
/// Must be pure (same inputs ⇒ same cost) and `Sync` so batches can fan
/// out.
pub type CostFn<'c> = dyn Fn(usize, &ViewSet) -> f64 + Sync + 'c;

/// Batched, memoized front-end over the what-if cost probe.
///
/// Lookups are by `(query, ViewSet)` with no allocation on a hit. Misses
/// are collected with [`ProbeEngine::ensure`] and evaluated across the
/// worker pool; [`ProbeEngine::cost`] serves the (by then) warm memo, with
/// a serial fallback so partial prefetches stay correct.
struct ProbeEngine<'a> {
    /// Candidate universe: `names[i]` is view `i`.
    names: Vec<&'a str>,
    f: &'a CostFn<'a>,
    /// Per-query memo, keyed by interned subset.
    memo: Vec<HashMap<ViewSet, f64>>,
}

impl<'a> ProbeEngine<'a> {
    fn new(views: &'a [ViewInfo], n_q: usize, f: &'a CostFn<'a>) -> Self {
        ProbeEngine {
            names: views.iter().map(|v| v.name.as_str()).collect(),
            f,
            memo: (0..n_q).map(|_| HashMap::new()).collect(),
        }
    }

    /// Materializes a subset's view names (for the items returned).
    fn names_of(&self, set: &ViewSet) -> BTreeSet<String> {
        set.iter().map(|i| self.names[i].to_string()).collect()
    }

    /// Ensures every `(q, set)` task is memoized, evaluating the misses in
    /// one parallel batch. Duplicate and already-cached tasks are skipped;
    /// results are inserted in task order (pure probes make insertion order
    /// irrelevant to values, task order keeps it reproducible anyway).
    fn ensure(&mut self, tasks: &[(usize, ViewSet)]) {
        let mut misses: Vec<(usize, ViewSet)> = Vec::new();
        {
            let mut queued: Vec<std::collections::HashSet<&ViewSet>> =
                (0..self.memo.len()).map(|_| Default::default()).collect();
            for (q, set) in tasks {
                if !self.memo[*q].contains_key(set) && queued[*q].insert(set) {
                    misses.push((*q, set.clone()));
                }
            }
        }
        if misses.is_empty() {
            return;
        }
        miso_obs::count("views.cost_probes", misses.len() as u64);
        let f = self.f;
        let costs = pool::run_batch(misses.len(), |k| {
            let (q, set) = &misses[k];
            f(*q, set)
        })
        // What-if probes are pure cost evaluations; a panic here is a bug
        // in the cost model, not a recoverable per-query failure.
        .unwrap_or_else(|e| panic!("what-if probe batch failed: {e}"));
        for ((q, set), c) in misses.into_iter().zip(costs) {
            self.memo[q].insert(set, c);
        }
    }

    /// Memoized probe; computes serially on a (rare) miss.
    fn cost(&mut self, q: usize, set: &ViewSet) -> f64 {
        if let Some(&v) = self.memo[q].get(set) {
            return v;
        }
        miso_obs::count("views.cost_probes", 1);
        let v = (self.f)(q, set);
        self.memo[q].insert(set.clone(), v);
        v
    }
}

/// Runs the full §4.3 pipeline and returns independent knapsack items.
///
/// * `views` — candidate views (with sizes);
/// * `weights` — decay weight per history query (`weights[i]` for query `i`;
///   see [`crate::benefit::decay_weights`]);
/// * `cost_fn` — what-if cost of history query `i` under a hypothetical
///   design containing exactly the given views. Must be pure and `Sync`:
///   independent probes are batched across the miso-par pool. The returned
///   items are identical for every `MISO_THREADS` setting.
pub fn analyze_candidates(
    views: &[ViewInfo],
    weights: &[f64],
    cost_fn: &CostFn<'_>,
    config: &AnalysisConfig,
) -> Vec<KnapsackItem> {
    let mut obs = miso_obs::span("tuner.analyze");
    let n_v = views.len();
    let n_q = weights.len();
    let mut engine = ProbeEngine::new(views, n_q, cost_fn);

    // Stage 0 — base costs: one empty-design probe per history query.
    let empty = ViewSet::empty(n_v);
    let base_tasks: Vec<(usize, ViewSet)> = (0..n_q).map(|q| (q, empty.clone())).collect();
    engine.ensure(&base_tasks);
    let base: Vec<f64> = (0..n_q).map(|q| engine.cost(q, &empty)).collect();

    // Stage 1 — per-query relevance: which views individually reduce each
    // query's cost (their decay-weighted benefits are recomputed during
    // sparsification, so only relevance is kept here). All V·Q singleton
    // probes are independent: one batch.
    let singles: Vec<ViewSet> = (0..n_v).map(|v| ViewSet::singleton(n_v, v)).collect();
    let single_tasks: Vec<(usize, ViewSet)> = (0..n_v)
        .flat_map(|v| (0..n_q).map(move |q| (q, ViewSet::singleton(n_v, v))))
        .collect();
    engine.ensure(&single_tasks);
    let mut relevant: Vec<Vec<bool>> = vec![vec![false; n_v]; n_q];
    for (vi, single) in singles.iter().enumerate() {
        for q in 0..n_q {
            if base[q] - engine.cost(q, single) > 0.0 {
                relevant[q][vi] = true;
            }
        }
    }

    // Stage 2 — signed doi for pairs where at least one member is relevant
    // to the query. (A view with no individual benefit on any query never
    // interacts under exact-match rewriting: each replacement reduces cost
    // on its own; interactions only modulate — super- or sub-additively —
    // benefits that already exist.) Each unordered pair is visited exactly
    // once per query, and the joint probes form one batch.
    let pair_tasks: Vec<(usize, ViewSet)> = (0..n_q)
        .flat_map(|q| {
            let rel = &relevant[q];
            (0..n_v).flat_map(move |a| {
                ((a + 1)..n_v)
                    .filter(move |&b| rel[a] || rel[b])
                    .map(move |b| (q, ViewSet::pair(n_v, a, b)))
            })
        })
        .collect();
    engine.ensure(&pair_tasks);
    let mut doi: HashMap<(usize, usize), f64> = HashMap::new();
    for q in 0..n_q {
        for a in 0..n_v {
            for b in (a + 1)..n_v {
                if !(relevant[q][a] || relevant[q][b]) {
                    continue;
                }
                let joint = (base[q] - engine.cost(q, &ViewSet::pair(n_v, a, b))).max(0.0);
                let ba = (base[q] - engine.cost(q, &singles[a])).max(0.0);
                let bb = (base[q] - engine.cost(q, &singles[b])).max(0.0);
                *doi.entry((a, b)).or_insert(0.0) += weights[q] * (joint - ba - bb);
            }
        }
    }

    // Stage 3 — stable partition: union-find over |doi| >= threshold edges.
    // The threshold adapts upward until every part is small (paper §4.3).
    let threshold = adaptive_threshold(&doi, n_v, config);
    let mut parent: Vec<usize> = (0..n_v).collect();
    fn find(parent: &mut Vec<usize>, x: usize) -> usize {
        if parent[x] != x {
            let root = find(parent, parent[x]);
            parent[x] = root;
        }
        parent[x]
    }
    for (&(a, b), &d) in &doi {
        if d.abs() >= threshold {
            let (ra, rb) = (find(&mut parent, a), find(&mut parent, b));
            if ra != rb {
                parent[ra] = rb;
            }
        }
    }
    let mut parts: HashMap<usize, Vec<usize>> = HashMap::new();
    for v in 0..n_v {
        let root = find(&mut parent, v);
        parts.entry(root).or_default().push(v);
    }
    let config = &AnalysisConfig {
        doi_threshold: threshold,
        max_part_size: config.max_part_size,
    };

    // Stage 4 — sparsify each part.
    let mut items = Vec::new();
    let mut part_roots: Vec<usize> = parts.keys().copied().collect();
    part_roots.sort_unstable();
    for root in part_roots {
        let members = &parts[&root];
        items.extend(sparsify_part(
            members,
            views,
            weights,
            &base,
            &doi,
            &mut engine,
            config,
        ));
    }
    // Drop zero-benefit items: they can never help and only consume budget.
    items.retain(|item| item.benefit > 0.0);
    // Deterministic output order.
    items.sort_by(|a, b| a.views.iter().next().cmp(&b.views.iter().next()));
    if obs.is_active() {
        obs.push_field("candidates", miso_obs::FieldValue::U64(n_v as u64));
        obs.push_field("queries", miso_obs::FieldValue::U64(n_q as u64));
        obs.push_field("items", miso_obs::FieldValue::U64(items.len() as u64));
        let merged = items.iter().filter(|i| i.views.len() > 1).count();
        obs.push_field("merged_items", miso_obs::FieldValue::U64(merged as u64));
    }
    items
}

/// Sparsifies one interacting part into zero or more independent items.
fn sparsify_part(
    members: &[usize],
    views: &[ViewInfo],
    weights: &[f64],
    base: &[f64],
    doi: &HashMap<(usize, usize), f64>,
    engine: &mut ProbeEngine<'_>,
    config: &AnalysisConfig,
) -> Vec<KnapsackItem> {
    let n_v = views.len();
    let n_q = weights.len();
    // Current items: interned member subsets.
    let mut sets: Vec<ViewSet> = members
        .iter()
        .map(|&m| ViewSet::singleton(n_v, m))
        .collect();

    let weighted_benefit = |set: &ViewSet, engine: &mut ProbeEngine<'_>| -> f64 {
        (0..n_q)
            .map(|q| weights[q] * (base[q] - engine.cost(q, set)).max(0.0))
            .sum()
    };
    // doi between two current items: recompute from joint benefits when the
    // items are composite; seed from the pairwise table when singleton.
    let pair_doi = |a: &ViewSet, b: &ViewSet, engine: &mut ProbeEngine<'_>| -> f64 {
        if a.len() == 1 && b.len() == 1 {
            let (x, y) = (a.iter().next().unwrap(), b.iter().next().unwrap());
            return *doi.get(&(x.min(y), x.max(y))).unwrap_or(&0.0);
        }
        let ba = weighted_benefit(a, engine);
        let bb = weighted_benefit(b, engine);
        weighted_benefit(&a.union(b), engine) - ba - bb
    };
    // Batches every probe the next round of pair_doi/benefit evaluations
    // will need (composite pairs only — singleton pairs read the doi table).
    let prefetch_pairs = |sets: &[ViewSet], engine: &mut ProbeEngine<'_>| {
        let mut tasks: Vec<(usize, ViewSet)> = Vec::new();
        for (i, a) in sets.iter().enumerate() {
            for b in &sets[(i + 1)..] {
                if a.len() == 1 && b.len() == 1 {
                    continue;
                }
                for q in 0..n_q {
                    tasks.push((q, a.clone()));
                    tasks.push((q, b.clone()));
                    tasks.push((q, a.union(b)));
                }
            }
        }
        engine.ensure(&tasks);
    };

    // Recursively merge the strongest positive edge.
    loop {
        prefetch_pairs(&sets, engine);
        let mut best: Option<(usize, usize, f64)> = None;
        for i in 0..sets.len() {
            for j in (i + 1)..sets.len() {
                let d = pair_doi(&sets[i], &sets[j], engine);
                if d >= config.doi_threshold && best.is_none_or(|(_, _, bd)| d > bd) {
                    best = Some((i, j, d));
                }
            }
        }
        let Some((i, j, _)) = best else { break };
        miso_obs::count("views.sparsify_merges", 1);
        let merged = sets[i].union(&sets[j]);
        // Remove j first (j > i) to keep indexes valid.
        sets.remove(j);
        sets.remove(i);
        sets.push(merged);
    }

    // Build items. Remaining edges are negative (or weak): greedily select
    // a maximal independent set by decreasing benefit-per-byte, never
    // packing two items with a *strong* negative interaction together —
    // the paper's representative rule, generalized beyond two-view parts
    // (a part may chain A–hub–B where A and B don't interact; both should
    // survive, only the dominated hub is dropped).
    let density_tasks: Vec<(usize, ViewSet)> = sets
        .iter()
        .flat_map(|set| (0..n_q).map(move |q| (q, set.clone())))
        .collect();
    engine.ensure(&density_tasks);
    let mut order: Vec<usize> = (0..sets.len()).collect();
    let densities: Vec<f64> = sets
        .iter()
        .map(|set| {
            let b = weighted_benefit(set, engine);
            let size: ByteSize = set.iter().map(|i| views[i].size).sum();
            b / (size.as_bytes().max(1) as f64)
        })
        .collect();
    order.sort_by(|&a, &b| {
        densities[b]
            .partial_cmp(&densities[a])
            .unwrap_or(std::cmp::Ordering::Equal)
    });
    let mut selected: Vec<usize> = Vec::new();
    for &k in &order {
        let conflicts = selected
            .iter()
            .any(|&s| pair_doi(&sets[s], &sets[k], engine) <= -config.doi_threshold);
        if !conflicts {
            selected.push(k);
        }
    }
    selected.sort_unstable();
    selected
        .iter()
        .map(|&k| {
            let set = &sets[k];
            let benefit = weighted_benefit(set, engine);
            let size: ByteSize = set.iter().map(|i| views[i].size).sum();
            KnapsackItem {
                views: engine.names_of(set),
                size,
                benefit,
            }
        })
        .collect()
}

/// Raises the doi threshold until every connected component has at most
/// `max_part_size` members.
fn adaptive_threshold(
    doi: &HashMap<(usize, usize), f64>,
    n: usize,
    config: &AnalysisConfig,
) -> f64 {
    let Some(max_part) = config.max_part_size else {
        return config.doi_threshold;
    };
    let mut magnitudes: Vec<f64> = doi
        .values()
        .map(|d| d.abs())
        .filter(|&m| m >= config.doi_threshold)
        .collect();
    magnitudes.sort_by(|a, b| a.partial_cmp(b).unwrap_or(std::cmp::Ordering::Equal));
    magnitudes.dedup();
    let part_ok = |threshold: f64| -> bool {
        let mut parent: Vec<usize> = (0..n).collect();
        fn find(parent: &mut Vec<usize>, x: usize) -> usize {
            if parent[x] != x {
                let root = find(parent, parent[x]);
                parent[x] = root;
            }
            parent[x]
        }
        for (&(a, b), &d) in doi {
            if d.abs() >= threshold {
                let (ra, rb) = (find(&mut parent, a), find(&mut parent, b));
                if ra != rb {
                    parent[ra] = rb;
                }
            }
        }
        let mut counts: HashMap<usize, usize> = HashMap::new();
        for v in 0..n {
            let root = find(&mut parent, v);
            *counts.entry(root).or_insert(0) += 1;
        }
        counts.values().all(|&c| c <= max_part)
    };
    let mut threshold = config.doi_threshold;
    for &m in &magnitudes {
        if part_ok(threshold) {
            return threshold;
        }
        // Raise just past the next magnitude, dropping its edges.
        threshold = m * (1.0 + 1e-9) + 1e-12;
    }
    threshold
}

#[cfg(test)]
mod tests {
    use super::*;

    fn views(names_sizes: &[(&str, u64)]) -> Vec<ViewInfo> {
        names_sizes
            .iter()
            .map(|(n, s)| ViewInfo {
                name: n.to_string(),
                size: ByteSize::from_kib(*s),
            })
            .collect()
    }

    /// A cost model where each view independently saves a fixed amount.
    fn independent_cost(q: usize, set: &ViewSet) -> f64 {
        let mut cost = 100.0;
        let _ = q;
        if set.contains(0) {
            cost -= 10.0;
        }
        if set.contains(1) {
            cost -= 20.0;
        }
        cost
    }

    #[test]
    fn independent_views_become_separate_items() {
        let v = views(&[("a", 1), ("b", 1)]);
        let weights = vec![1.0];
        let items = analyze_candidates(&v, &weights, &independent_cost, &AnalysisConfig::default());
        assert_eq!(items.len(), 2);
        let by_name: HashMap<String, f64> = items
            .iter()
            .map(|i| (i.views.iter().next().unwrap().clone(), i.benefit))
            .collect();
        assert_eq!(by_name["a"], 10.0);
        assert_eq!(by_name["b"], 20.0);
    }

    #[test]
    fn positive_interaction_merges() {
        // Super-additive pair (two join inputs): each alone saves 10, both
        // together let the whole join collapse, saving 50.
        let f = |_q: usize, set: &ViewSet| -> f64 {
            match (set.contains(0), set.contains(1)) {
                (true, true) => 50.0,
                (true, false) | (false, true) => 90.0,
                (false, false) => 100.0,
            }
        };
        let v = views(&[("a", 1), ("b", 2)]);
        let items = analyze_candidates(&v, &[1.0], &f, &AnalysisConfig::default());
        assert_eq!(items.len(), 1);
        let item = &items[0];
        assert_eq!(item.views.len(), 2);
        assert_eq!(item.benefit, 50.0);
        assert_eq!(item.size, ByteSize::from_kib(3));
    }

    #[test]
    fn negative_interaction_keeps_representative() {
        // Either view alone answers the query (saves 30); both adds nothing.
        let f = |_q: usize, set: &ViewSet| -> f64 {
            if set.contains(0) || set.contains(1) {
                70.0
            } else {
                100.0
            }
        };
        // b is smaller → better benefit/weight → representative.
        let v = views(&[("a", 10), ("b", 2)]);
        let items = analyze_candidates(&v, &[1.0], &f, &AnalysisConfig::default());
        assert_eq!(items.len(), 1);
        assert_eq!(items[0].views.iter().next().unwrap(), "b");
        assert_eq!(items[0].benefit, 30.0);
    }

    #[test]
    fn weak_interactions_are_ignored() {
        // Tiny sub-threshold interaction: treated as independent.
        let f = |_q: usize, set: &ViewSet| -> f64 {
            let mut c = 100.0;
            if set.contains(0) {
                c -= 10.0;
            }
            if set.contains(1) {
                c -= 10.0;
            }
            if set.contains(0) && set.contains(1) {
                c -= 0.5; // weak positive
            }
            c
        };
        let v = views(&[("a", 1), ("b", 1)]);
        let cfg = AnalysisConfig {
            doi_threshold: 1.0,
            max_part_size: Some(4),
        };
        let items = analyze_candidates(&v, &[1.0], &f, &cfg);
        assert_eq!(items.len(), 2, "below-threshold doi leaves views separate");
    }

    #[test]
    fn zero_benefit_views_are_dropped() {
        let f = |_q: usize, _set: &ViewSet| -> f64 { 100.0 };
        let v = views(&[("a", 1), ("b", 1)]);
        let items = analyze_candidates(&v, &[1.0], &f, &AnalysisConfig::default());
        assert!(items.is_empty());
    }

    #[test]
    fn decay_weights_discount_old_benefits() {
        // View a helps only the old query, b only the new one.
        let f = |q: usize, set: &ViewSet| -> f64 {
            let mut c = 100.0;
            if q == 0 && set.contains(0) {
                c -= 10.0;
            }
            if q == 1 && set.contains(1) {
                c -= 10.0;
            }
            c
        };
        let v = views(&[("a", 1), ("b", 1)]);
        let weights = vec![0.5, 1.0];
        let items = analyze_candidates(&v, &weights, &f, &AnalysisConfig::default());
        let by_name: HashMap<String, f64> = items
            .iter()
            .map(|i| (i.views.iter().next().unwrap().clone(), i.benefit))
            .collect();
        assert_eq!(by_name["a"], 5.0);
        assert_eq!(by_name["b"], 10.0);
    }

    #[test]
    fn three_way_positive_chain_merges_all() {
        // a+b strongly positive; the merged pair then interacts positively
        // with c: recursive merging unites all three.
        let f = |_q: usize, set: &ViewSet| -> f64 {
            let a = set.contains(0);
            let b = set.contains(1);
            let c = set.contains(2);
            let mut cost: f64 = 100.0;
            if a {
                cost -= 5.0;
            }
            if b {
                cost -= 5.0;
            }
            if c {
                cost -= 5.0;
            }
            if a && b {
                cost -= 30.0; // join collapse
            }
            if a && c {
                cost -= 10.0; // pairwise chain linking c into the part
            }
            if a && b && c {
                cost -= 45.0; // whole query answered in DW
            }
            cost
        };
        let v = views(&[("a", 1), ("b", 1), ("c", 1)]);
        let items = analyze_candidates(&v, &[1.0], &f, &AnalysisConfig::default());
        assert_eq!(items.len(), 1);
        assert_eq!(items[0].views.len(), 3);
        assert_eq!(items[0].benefit, 100.0);
    }

    #[test]
    fn empty_inputs() {
        assert!(
            analyze_candidates(&[], &[1.0], &independent_cost, &AnalysisConfig::default())
                .is_empty()
        );
        let v = views(&[("a", 1)]);
        assert!(
            analyze_candidates(&v, &[], &independent_cost, &AnalysisConfig::default()).is_empty()
        );
    }

    #[test]
    fn results_identical_across_thread_counts() {
        // The same analysis, serial and fanned out, must produce identical
        // items (the miso-par determinism contract).
        let f = |q: usize, set: &ViewSet| -> f64 {
            let mut c = 500.0 + q as f64;
            for i in 0..5 {
                if set.contains(i) {
                    c -= 10.0 + (i as f64) * (1.0 + q as f64 * 0.3);
                }
            }
            if set.contains(0) && set.contains(1) {
                c -= 25.0;
            }
            if set.contains(2) && set.contains(3) {
                c += 8.0;
            }
            c
        };
        let v = views(&[("a", 1), ("b", 2), ("c", 3), ("d", 4), ("e", 5)]);
        let weights = vec![1.0, 0.5, 0.25];
        let before = pool::threads();
        pool::set_threads(1);
        let serial = analyze_candidates(&v, &weights, &f, &AnalysisConfig::default());
        pool::set_threads(8);
        let parallel = analyze_candidates(&v, &weights, &f, &AnalysisConfig::default());
        pool::set_threads(before);
        assert_eq!(serial, parallel);
        assert!(!serial.is_empty());
    }
}
