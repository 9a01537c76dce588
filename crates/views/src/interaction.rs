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
//! Every benefit is a what-if probe, asked through a caller-supplied
//! [`CostFn`] — the tuner wires it to the multistore optimizer's what-if
//! mode. Probes are the analysis' scaling wall (O(Q·V + Q·V²) per epoch), so
//! each stage hands over all of its independent probes in one call (the
//! callee fans them out across the worker pool), never the same `(q, set)`
//! twice, and reads the answers back from a per-analysis table by position:
//! base costs `[q]`, singletons `[v][q]`, pairs `[q][tri(a, b)]`, and a small
//! map for sparsification's composite sets. All selection logic runs
//! serially over that table, so the output is the same for every thread
//! count.

use crate::viewset::ViewSet;
use miso_common::ByteSize;
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

/// The what-if probe, asked one batch at a time: `probes[k] = (q, s)` asks
/// for the cost of history query `q` under a hypothetical design holding
/// exactly the views of `sets[s]` — a subset of the candidates passed to
/// [`analyze_candidates`], bit `i` naming `views[i]`. Returns one cost per
/// probe, in order. Must be pure (same probe ⇒ same cost). One analysis
/// never asks the same `(q, set)` twice.
pub type CostFn<'c> = dyn Fn(&[ViewSet], &[(usize, usize)]) -> Vec<f64> + 'c;

/// Index of the pair `a < b` among `n` candidates: pairs in ascending
/// `(a, b)` order are `0, 1, 2, …`.
fn tri(n: usize, a: usize, b: usize) -> usize {
    a * (2 * n - a - 1) / 2 + (b - a - 1)
}

/// Every probe answer of one analysis, read back by position.
struct ProbeTable<'a> {
    cost_fn: &'a CostFn<'a>,
    n_q: usize,
    n_v: usize,
    n_pairs: usize,
    /// `[q]`: the cost with no view.
    base: Vec<f64>,
    /// `[v][q]`: the cost with view `v` alone.
    single: Vec<f64>,
    /// `[q][tri(a, b)]`: the cost with views `a` and `b`; `None` until
    /// probed (stage 2 probes a pair only for the queries it may help).
    pair: Vec<Option<f64>>,
    /// Sparsification's sets of three or more views: the cost per query,
    /// every query probed in the same batch.
    composite: HashMap<ViewSet, Vec<f64>>,
}

impl ProbeTable<'_> {
    /// Asks one batch of probes.
    fn ask(&self, sets: &[ViewSet], probes: &[(usize, usize)]) -> Vec<f64> {
        if probes.is_empty() {
            return Vec::new();
        }
        miso_obs::count("views.cost_probes", probes.len() as u64);
        let costs = (self.cost_fn)(sets, probes);
        assert_eq!(costs.len(), probes.len(), "a cost per what-if probe");
        costs
    }

    fn single(&self, q: usize, v: usize) -> f64 {
        self.single[v * self.n_q + q]
    }

    /// The answer for `(q, set)`, if probed.
    fn get(&self, q: usize, set: &ViewSet) -> Option<f64> {
        let mut members = set.iter();
        match (members.next(), members.next(), members.next()) {
            (None, _, _) => Some(self.base[q]),
            (Some(v), None, _) => Some(self.single(q, v)),
            (Some(a), Some(b), None) => self.pair[q * self.n_pairs + tri(self.n_v, a, b)],
            _ => self.composite.get(set).map(|costs| costs[q]),
        }
    }

    /// The answer for `(q, set)`; every set the analysis reads was probed
    /// by an earlier [`ProbeTable::ensure`].
    fn cost(&self, q: usize, set: &ViewSet) -> f64 {
        self.get(q, set)
            .expect("every set is probed before it is read")
    }

    /// Probes, in one batch, every query under every set of `wanted` (no
    /// two equal) whose answer the table does not hold yet.
    fn ensure<'s>(&mut self, wanted: impl IntoIterator<Item = &'s ViewSet>) {
        let mut sets: Vec<ViewSet> = Vec::new();
        let mut probes: Vec<(usize, usize)> = Vec::new();
        for set in wanted {
            let before = probes.len();
            let s = sets.len();
            probes.extend(
                (0..self.n_q)
                    .filter(|&q| self.get(q, set).is_none())
                    .map(|q| (q, s)),
            );
            if probes.len() > before {
                sets.push(set.clone());
            }
        }
        let costs = self.ask(&sets, &probes);
        for (&(q, s), cost) in probes.iter().zip(costs) {
            let set = &sets[s];
            let mut members = set.iter();
            match (members.next(), members.next(), members.next()) {
                (Some(a), Some(b), None) => {
                    self.pair[q * self.n_pairs + tri(self.n_v, a, b)] = Some(cost)
                }
                // A composite is absent for every query or none, and its
                // probes come in ascending `q`.
                _ => self.composite.entry(set.clone()).or_default().push(cost),
            }
        }
    }

    /// Decay-weighted benefit of `set` over the window.
    fn weighted_benefit(&self, weights: &[f64], set: &ViewSet) -> f64 {
        (0..self.n_q)
            .map(|q| weights[q] * (self.base[q] - self.cost(q, set)).max(0.0))
            .sum()
    }
}

/// Runs the full §4.3 pipeline and returns independent knapsack items.
///
/// * `views` — candidate views (with sizes);
/// * `weights` — decay weight per history query (`weights[i]` for query `i`;
///   see [`crate::benefit::decay_weights`]);
/// * `cost_fn` — what-if cost of history queries under hypothetical designs
///   (see [`CostFn`]), asked once per stage with all of that stage's
///   probes. The returned items depend only on the costs it returns.
pub fn analyze_candidates(
    views: &[ViewInfo],
    weights: &[f64],
    cost_fn: &CostFn<'_>,
    config: &AnalysisConfig,
) -> Vec<KnapsackItem> {
    let mut obs = miso_obs::span("tuner.analyze");
    let n_v = views.len();
    let n_q = weights.len();
    let n_pairs = n_v * n_v.saturating_sub(1) / 2;
    let mut table = ProbeTable {
        cost_fn,
        n_q,
        n_v,
        n_pairs,
        base: Vec::new(),
        single: Vec::new(),
        pair: vec![None; n_q * n_pairs],
        composite: HashMap::new(),
    };

    // Stages 0 and 1 — base costs and per-query relevance: one
    // empty-design probe per history query, and which views individually
    // reduce each query's cost (their decay-weighted benefits are
    // recomputed during sparsification, so only relevance is kept here).
    // All Q + V·Q probes are independent: one batch.
    let mut sets = vec![ViewSet::empty(n_v)];
    sets.extend((0..n_v).map(|v| ViewSet::singleton(n_v, v)));
    let probes: Vec<(usize, usize)> = (0..=n_v)
        .flat_map(|s| (0..n_q).map(move |q| (q, s)))
        .collect();
    let mut costs = table.ask(&sets, &probes);
    table.single = costs.split_off(n_q);
    table.base = costs;
    // Whether view `v` alone makes query `q` cheaper, at `[q * n_v + v]`.
    let relevant: Vec<bool> = (0..n_q * n_v)
        .map(|k| table.base[k / n_v] - table.single(k / n_v, k % n_v) > 0.0)
        .collect();
    let rel = |q: usize, v: usize| relevant[q * n_v + v];
    let relevant_anywhere: Vec<bool> = (0..n_v).map(|v| (0..n_q).any(|q| rel(q, v))).collect();

    // Stage 2 — signed doi for pairs where at least one member is relevant
    // to the query. (A view with no individual benefit on any query never
    // interacts under exact-match rewriting: each replacement reduces cost
    // on its own; interactions only modulate — super- or sub-additively —
    // benefits that already exist.) The pairs some query probes are the
    // interaction graph's only possible edges; the joint probes form one
    // batch, in ascending `(q, a, b)`.
    let edges: Vec<(usize, usize)> = (0..n_v)
        .flat_map(|a| ((a + 1)..n_v).map(move |b| (a, b)))
        .filter(|&(a, b)| relevant_anywhere[a] || relevant_anywhere[b])
        .collect();
    let edge_sets: Vec<ViewSet> = edges
        .iter()
        .map(|&(a, b)| ViewSet::pair(n_v, a, b))
        .collect();
    let pair_probes: Vec<(usize, usize)> = (0..n_q)
        .flat_map(|q| (0..edges.len()).map(move |e| (q, e)))
        .filter(|&(q, e)| rel(q, edges[e].0) || rel(q, edges[e].1))
        .collect();
    let costs = table.ask(&edge_sets, &pair_probes);
    // doi, dense over all pairs, summed over queries in order; a pair no
    // query probed stays 0 and is no edge.
    let mut doi = vec![0.0f64; n_pairs];
    for (&(q, e), cost) in pair_probes.iter().zip(costs) {
        let (a, b) = edges[e];
        let t = tri(n_v, a, b);
        table.pair[q * n_pairs + t] = Some(cost);
        let base = table.base[q];
        let joint = (base - cost).max(0.0);
        let ba = (base - table.single(q, a)).max(0.0);
        let bb = (base - table.single(q, b)).max(0.0);
        doi[t] += weights[q] * (joint - ba - bb);
    }
    let weighted_edges: Vec<(usize, usize, f64)> = edges
        .iter()
        .map(|&(a, b)| (a, b, doi[tri(n_v, a, b)]))
        .collect();

    // Stage 3 — stable partition: union-find over |doi| >= threshold edges.
    // The threshold adapts upward until every part is small (paper §4.3).
    let threshold = adaptive_threshold(&weighted_edges, n_v, config);
    let parts = partition(&weighted_edges, n_v, threshold);
    let config = &AnalysisConfig {
        doi_threshold: threshold,
        max_part_size: config.max_part_size,
    };

    // Stage 4 — sparsify each part.
    let mut items = Vec::new();
    for members in &parts {
        items.extend(sparsify_part(
            members, views, weights, &doi, &mut table, config,
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
    doi: &[f64],
    table: &mut ProbeTable<'_>,
    config: &AnalysisConfig,
) -> Vec<KnapsackItem> {
    let n_v = views.len();
    // Current items as member subsets.
    let mut sets: Vec<ViewSet> = members
        .iter()
        .map(|&m| ViewSet::singleton(n_v, m))
        .collect();

    // doi between items `i` and `j`: the pairwise table when both are
    // singletons, else recomputed from joint benefits.
    let pair_doi =
        |table: &ProbeTable<'_>, sets: &[ViewSet], benefits: &[f64], i: usize, j: usize| {
            let (a, b) = (&sets[i], &sets[j]);
            if a.len() == 1 && b.len() == 1 {
                let (x, y) = (a.iter().next().unwrap(), b.iter().next().unwrap());
                return doi[tri(n_v, x.min(y), x.max(y))];
            }
            table.weighted_benefit(weights, &a.union(b)) - benefits[i] - benefits[j]
        };

    // Recursively merge the strongest positive edge. Each round first
    // probes, in one batch, the items and the unions its composite pairs
    // need: a merged pair was probed in stage 2 only for the queries one of
    // its members helps. Items are disjoint, so none of these sets repeats.
    let benefits = loop {
        let unions: Vec<ViewSet> = sets
            .iter()
            .enumerate()
            .flat_map(|(i, a)| {
                sets[(i + 1)..]
                    .iter()
                    .filter(move |b| a.len() > 1 || b.len() > 1)
                    .map(move |b| a.union(b))
            })
            .collect();
        table.ensure(sets.iter().chain(&unions));
        let benefits: Vec<f64> = sets
            .iter()
            .map(|set| table.weighted_benefit(weights, set))
            .collect();
        let mut best: Option<(usize, usize, f64)> = None;
        for i in 0..sets.len() {
            for j in (i + 1)..sets.len() {
                let d = pair_doi(table, &sets, &benefits, i, j);
                if d >= config.doi_threshold && best.is_none_or(|(_, _, bd)| d > bd) {
                    best = Some((i, j, d));
                }
            }
        }
        let Some((i, j, _)) = best else {
            break benefits;
        };
        miso_obs::count("views.sparsify_merges", 1);
        let merged = sets[i].union(&sets[j]);
        // Remove j first (j > i) to keep indexes valid.
        sets.remove(j);
        sets.remove(i);
        sets.push(merged);
    };

    // Build items. Remaining edges are negative (or weak): greedily select
    // a maximal independent set by decreasing benefit-per-byte, never
    // packing two items with a *strong* negative interaction together —
    // the paper's representative rule, generalized beyond two-view parts
    // (a part may chain A–hub–B where A and B don't interact; both should
    // survive, only the dominated hub is dropped). The merge loop's last
    // round probed every item and pair read here.
    let size_of = |set: &ViewSet| -> ByteSize { set.iter().map(|i| views[i].size).sum() };
    let densities: Vec<f64> = sets
        .iter()
        .zip(&benefits)
        .map(|(set, b)| b / (size_of(set).as_bytes().max(1) as f64))
        .collect();
    let mut order: Vec<usize> = (0..sets.len()).collect();
    order.sort_by(|&a, &b| {
        densities[b]
            .partial_cmp(&densities[a])
            .unwrap_or(std::cmp::Ordering::Equal)
    });
    let mut selected: Vec<usize> = Vec::new();
    for &k in &order {
        let conflicts = selected
            .iter()
            .any(|&s| pair_doi(table, &sets, &benefits, s, k) <= -config.doi_threshold);
        if !conflicts {
            selected.push(k);
        }
    }
    selected.sort_unstable();
    selected
        .iter()
        .map(|&k| KnapsackItem {
            views: sets[k].iter().map(|i| views[i].name.clone()).collect(),
            size: size_of(&sets[k]),
            benefit: benefits[k],
        })
        .collect()
}

/// The component root of each of `n` views under the `|doi| >= threshold`
/// edges.
fn components(edges: &[(usize, usize, f64)], n: usize, threshold: f64) -> Vec<usize> {
    fn find(parent: &mut [usize], x: usize) -> usize {
        if parent[x] != x {
            let root = find(parent, parent[x]);
            parent[x] = root;
        }
        parent[x]
    }
    let mut parent: Vec<usize> = (0..n).collect();
    for &(a, b, d) in edges {
        if d.abs() >= threshold {
            let (ra, rb) = (find(&mut parent, a), find(&mut parent, b));
            if ra != rb {
                parent[ra] = rb;
            }
        }
    }
    (0..n).map(|v| find(&mut parent, v)).collect()
}

/// The connected components of the `|doi| >= threshold` edges over `n`
/// views, each in ascending member order.
fn partition(edges: &[(usize, usize, f64)], n: usize, threshold: f64) -> Vec<Vec<usize>> {
    let mut parts: Vec<Vec<usize>> = Vec::new();
    let mut part_of = vec![usize::MAX; n];
    for (v, root) in components(edges, n, threshold).into_iter().enumerate() {
        if part_of[root] == usize::MAX {
            part_of[root] = parts.len();
            parts.push(Vec::new());
        }
        parts[part_of[root]].push(v);
    }
    parts
}

/// Raises the doi threshold until every connected component has at most
/// `max_part_size` members.
fn adaptive_threshold(edges: &[(usize, usize, f64)], n: usize, config: &AnalysisConfig) -> f64 {
    let Some(max_part) = config.max_part_size else {
        return config.doi_threshold;
    };
    let mut magnitudes: Vec<f64> = edges
        .iter()
        .map(|&(_, _, d)| d.abs())
        .filter(|&m| m >= config.doi_threshold)
        .collect();
    magnitudes.sort_by(|a, b| a.partial_cmp(b).unwrap_or(std::cmp::Ordering::Equal));
    magnitudes.dedup();
    let part_ok = |threshold: f64| {
        let mut size = vec![0usize; n];
        components(edges, n, threshold).into_iter().all(|root| {
            size[root] += 1;
            size[root] <= max_part
        })
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
    use miso_common::pool;
    use std::cell::RefCell;
    use std::collections::HashSet;

    fn views(names_sizes: &[(&str, u64)]) -> Vec<ViewInfo> {
        names_sizes
            .iter()
            .map(|(n, s)| ViewInfo {
                name: n.to_string(),
                size: ByteSize::from_kib(*s),
            })
            .collect()
    }

    /// A per-probe cost function as a [`CostFn`], each batch fanned out
    /// across the worker pool.
    fn batched(
        f: impl Fn(usize, &ViewSet) -> f64 + Sync,
    ) -> impl Fn(&[ViewSet], &[(usize, usize)]) -> Vec<f64> {
        move |sets, probes| {
            pool::run_batch(probes.len(), |k| {
                let (q, s) = probes[k];
                f(q, &sets[s])
            })
            .unwrap()
        }
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
        let items = analyze_candidates(
            &v,
            &weights,
            &batched(independent_cost),
            &AnalysisConfig::default(),
        );
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
        // together let the whole join collapse, saving 50. Neither helps the
        // second query, so the merged pair is probed for it only once merged.
        let f = |q: usize, set: &ViewSet| -> f64 {
            match (q, set.contains(0), set.contains(1)) {
                (1, ..) => 100.0,
                (_, true, true) => 50.0,
                (_, true, false) | (_, false, true) => 90.0,
                (_, false, false) => 100.0,
            }
        };
        let v = views(&[("a", 1), ("b", 2)]);
        let items = analyze_candidates(&v, &[1.0, 1.0], &batched(f), &AnalysisConfig::default());
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
        let items = analyze_candidates(&v, &[1.0], &batched(f), &AnalysisConfig::default());
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
        let items = analyze_candidates(&v, &[1.0], &batched(f), &cfg);
        assert_eq!(items.len(), 2, "below-threshold doi leaves views separate");
    }

    #[test]
    fn zero_benefit_views_are_dropped() {
        let f = |_q: usize, _set: &ViewSet| -> f64 { 100.0 };
        let v = views(&[("a", 1), ("b", 1)]);
        let items = analyze_candidates(&v, &[1.0], &batched(f), &AnalysisConfig::default());
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
        let items = analyze_candidates(&v, &weights, &batched(f), &AnalysisConfig::default());
        let by_name: HashMap<String, f64> = items
            .iter()
            .map(|i| (i.views.iter().next().unwrap().clone(), i.benefit))
            .collect();
        assert_eq!(by_name["a"], 5.0);
        assert_eq!(by_name["b"], 10.0);
    }

    /// a+b strongly positive; the merged pair then interacts positively with
    /// c: recursive merging unites all three.
    fn chain_cost(_q: usize, set: &ViewSet) -> f64 {
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
    }

    #[test]
    fn three_way_positive_chain_merges_all() {
        let v = views(&[("a", 1), ("b", 1), ("c", 1)]);
        let items =
            analyze_candidates(&v, &[1.0], &batched(chain_cost), &AnalysisConfig::default());
        assert_eq!(items.len(), 1);
        assert_eq!(items[0].views.len(), 3);
        assert_eq!(items[0].benefit, 100.0);
    }

    #[test]
    fn empty_inputs() {
        let f = batched(independent_cost);
        assert!(analyze_candidates(&[], &[1.0], &f, &AnalysisConfig::default()).is_empty());
        let v = views(&[("a", 1)]);
        assert!(analyze_candidates(&v, &[], &f, &AnalysisConfig::default()).is_empty());
    }

    /// Five views over three queries: a positive pair, a negative one, and
    /// per-query savings.
    fn mixed_cost(q: usize, set: &ViewSet) -> f64 {
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
    }

    #[test]
    fn results_identical_across_thread_counts() {
        // The same analysis, serial and fanned out, must produce identical
        // items (the miso-par determinism contract).
        let v = views(&[("a", 1), ("b", 2), ("c", 3), ("d", 4), ("e", 5)]);
        let weights = vec![1.0, 0.5, 0.25];
        let f = batched(mixed_cost);
        let before = pool::threads();
        pool::set_threads(1);
        let serial = analyze_candidates(&v, &weights, &f, &AnalysisConfig::default());
        pool::set_threads(8);
        let parallel = analyze_candidates(&v, &weights, &f, &AnalysisConfig::default());
        pool::set_threads(before);
        assert_eq!(serial, parallel);
        assert!(!serial.is_empty());
    }

    /// Analyzes `views` under `f` through a cost function that fails on a
    /// repeated `(q, set)`, checks the items against an uncounted run, and
    /// returns how many composite sets were probed.
    fn probe_once(views: &[ViewInfo], weights: &[f64], f: fn(usize, &ViewSet) -> f64) -> usize {
        let asked: RefCell<HashSet<(usize, ViewSet)>> = RefCell::default();
        let counting = |sets: &[ViewSet], probes: &[(usize, usize)]| -> Vec<f64> {
            let mut asked = asked.borrow_mut();
            probes
                .iter()
                .map(|&(q, s)| {
                    assert!(asked.insert((q, sets[s].clone())), "({q}, {:?})", sets[s]);
                    f(q, &sets[s])
                })
                .collect()
        };
        let config = AnalysisConfig::default();
        let items = analyze_candidates(views, weights, &counting, &config);
        assert!(!items.is_empty());
        assert_eq!(
            items,
            analyze_candidates(views, weights, &batched(f), &config)
        );
        let asked = asked.into_inner();
        asked.iter().filter(|(_, set)| set.len() > 2).count()
    }

    /// The cost function sees each distinct `(q, set)` at most once per
    /// analysis, merges and composites included.
    #[test]
    fn each_probe_is_asked_once() {
        let five = views(&[("a", 1), ("b", 2), ("c", 3), ("d", 4), ("e", 5)]);
        probe_once(&five, &[1.0, 0.5, 0.25], mixed_cost);
        let three = views(&[("a", 1), ("b", 1), ("c", 1)]);
        let composites = probe_once(&three, &[1.0, 1.0], chain_cost);
        assert!(composites > 0, "the chain merges into a composite");
    }
}
