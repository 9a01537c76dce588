//! The MISO tuner — Algorithm 1 of the paper.
//!
//! ```text
//! function MISO_TUNE(⟨Vh, Vd⟩, W, Bh, Bd, Bt)
//!     V       ← Vh ∪ Vd
//!     P       ← COMPUTE-INTERACTING-SETS(V)
//!     Vcands  ← SPARSIFY-SETS(P)
//!     Vd_new  ← M-KNAPSACK(Vcands, Bd, Bt)
//!     Bt_rem  ← Bt − Σ sz(v) for v ∈ Vh ∩ Vd_new
//!     Vh_new  ← M-KNAPSACK(Vcands − Vd_new, Bh, Bt_rem)
//!     return ⟨Vh_new, Vd_new⟩
//! ```
//!
//! DW is packed first ("it can offer superior execution performance when the
//! right views are present"); whatever transfer budget remains pays for
//! moving DW-evicted views back to HV; `V_h ∩ V_d = ∅` by construction.
//!
//! Benefits are probed through the multistore optimizer's what-if mode,
//! decay-weighted over the recent history window (see `miso_views`).

use crate::knapsack::{m_knapsack, PackItem};
use miso_common::pool;
use miso_common::prehash::{fnv1a_str, fnv1a_words, PrehashedMap};
use miso_common::{Budgets, ByteSize};
use miso_dw::DwCostModel;
use miso_hv::HvCostModel;
use miso_optimizer::cost::TransferModel;
use miso_optimizer::optimize::{what_if_cost, what_if_plan_cost, Design, OptimizerEnv};
use miso_plan::estimate::{MapStats, SizeEstimate};
use miso_plan::fingerprint::parse_view_fingerprint;
use miso_plan::LogicalPlan;
use miso_views::containment::FilterView;
use miso_views::rewrite::{rewrite_over, Rewrite};
use miso_views::{
    analyze_candidates, decay_weights, AnalysisConfig, ViewCatalog, ViewInfo, ViewSet,
};
use std::collections::hash_map::Entry;
use std::collections::{BTreeMap, BTreeSet, HashMap, HashSet};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard};

/// Tuner parameters.
#[derive(Debug, Clone)]
pub struct TunerConfig {
    /// View storage and transfer budgets (with discretization).
    pub budgets: Budgets,
    /// History window length in queries (paper experiments: 6).
    pub history_len: usize,
    /// Epoch length in queries for benefit decay (paper experiments: 3).
    pub epoch_len: usize,
    /// Per-epoch decay factor.
    pub decay: f64,
    /// doi significance threshold (simulated seconds).
    pub doi_threshold: f64,
}

impl TunerConfig {
    /// The paper's experiment settings with the given budgets.
    pub fn paper_default(budgets: Budgets) -> Self {
        TunerConfig {
            budgets,
            history_len: 6,
            epoch_len: 3,
            decay: 0.5,
            doi_threshold: 1.0,
        }
    }
}

/// The tuner's output: the new multistore design `M_new = ⟨V_h, V_d⟩`.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct NewDesign {
    /// Views that should reside in HV.
    pub hv: BTreeSet<String>,
    /// Views that should reside in DW.
    pub dw: BTreeSet<String>,
}

/// Chooses a discretization unit keeping a DP dimension small.
fn effective_unit(base: ByteSize, budget: ByteSize) -> ByteSize {
    const MAX_UNITS: u64 = 128;
    let needed = budget.as_bytes().div_ceil(MAX_UNITS).max(1);
    if base.as_bytes() >= needed {
        base
    } else {
        ByteSize::from_bytes(needed)
    }
}

/// Most entries the what-if memo holds once a `tune` call has returned.
/// One reorganization of the 32-template stream adds a few hundred, and a
/// query comes back within a dozen epochs, so half of this is still several
/// times what the stream can reuse; a memo that outgrows it sheds its
/// oldest generations (see `WhatIfMemo::evict`).
pub const WHATIF_MEMO_CAP: usize = 1 << 14;

/// What the what-if memo did, as counts of probes. Every probe asked is
/// exactly one of: a hit, unused, costed, or answered from a costing that
/// another view set of the same query had already paid for.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct WhatIfStats {
    /// Probes asked (`tuner.whatif_calls`).
    pub probes: u64,
    /// Probes answered from the memo, without rewriting or costing
    /// (`tuner.whatif_cache_hits`).
    pub hits: u64,
    /// Probes whose rewrite used no view of the set, so the answer was the
    /// query's no-view cost (`tuner.whatif_unused`).
    pub unused: u64,
    /// Plans costed: rewritten ones, and each query's no-view base
    /// (`tuner.whatif_costed`).
    pub costed: u64,
    /// Entries evicted to keep the memo under [`WHATIF_MEMO_CAP`].
    pub evicted: u64,
}

/// One memoised value.
#[derive(Debug, Clone, Copy)]
struct Slot {
    value: f64,
    /// The generation (`tune` call) that last asked for this entry.
    touched: u64,
}

/// Cross-epoch memo of what-if results, keyed by what a probe reads.
///
/// A probe `(q, S)` — the cost of history query `q` under the hypothetical
/// design holding the views `S` in both stores — equals
/// `min(cost(q), cost(rewrite(q, S)))`: for such a design the optimizer's
/// rewrite variants collapse to {no views, `S`} and every split of either
/// plan is feasible. The memo therefore holds two kinds of entry under one
/// map (the second word of a key is tagged by kind):
///
/// * **costings**, `(query key, ordered used-view list)` → cost of the
///   cheapest split of `q` rewritten that way; the empty list is `q`'s
///   no-view base. Each rewrite step is a function of the plan and the view
///   it consumes, so the ordered list of consumed views pins the rewritten
///   plan, and every `S` that rewrites `q` the same way shares one costing.
/// * **probes**, `(query key, view set)` → the probe's value, so a repeat
///   probe skips the rewrite as well.
///
/// A *query key* digests the plan fingerprint, the (rows, bytes) of each
/// log the plan scans and the version of the models; a view contributes its name, defining fingerprint and
/// the (rows, bytes) the estimator reads for it. Nothing else varies a
/// probe's value except the cost and transfer models, which are compared as
/// a whole: a change there flushes the memo. Registering or dropping an
/// unrelated view, or growing a log a query does not scan, evicts nothing.
#[derive(Debug)]
struct WhatIfMemo {
    /// The models every entry was computed under.
    models: Option<(HvCostModel, DwCostModel, TransferModel)>,
    /// How many times the models have changed. Part of every query key, so
    /// a prober begun under superseded models (a clone tuning concurrently)
    /// can neither read nor feed the entries of the current ones.
    models_version: u64,
    /// Generation counter, bumped by every prober.
    generation: u64,
    slots: PrehashedMap<(u64, u64), Slot>,
    /// Entry bound enforced by [`WhatIfMemo::evict`].
    cap: usize,
    totals: WhatIfStats,
}

impl Default for WhatIfMemo {
    fn default() -> Self {
        WhatIfMemo {
            models: None,
            models_version: 0,
            generation: 0,
            slots: PrehashedMap::default(),
            cap: WHATIF_MEMO_CAP,
            totals: WhatIfStats::default(),
        }
    }
}

impl WhatIfMemo {
    /// Starts a generation under the given models, flushing every entry if
    /// any model constant differs from the one the memo was filled under.
    /// Returns the generation and the models' version.
    fn begin(
        &mut self,
        hv: &HvCostModel,
        dw: &DwCostModel,
        transfer: &TransferModel,
    ) -> (u64, u64) {
        let same = self
            .models
            .as_ref()
            .is_some_and(|(h, d, t)| h == hv && d == dw && t == transfer);
        if !same {
            self.slots.clear();
            self.models = Some((hv.clone(), dw.clone(), transfer.clone()));
            self.models_version += 1;
        }
        self.generation += 1;
        (self.generation, self.models_version)
    }

    /// The value under `key`, if any, marking it as used by `generation`.
    fn get(&mut self, key: (u64, u64), generation: u64) -> Option<f64> {
        let slot = self.slots.get_mut(&key)?;
        slot.touched = generation;
        Some(slot.value)
    }

    /// Once the memo has outgrown its cap, keeps the newest generations
    /// that together fit in half of it and drops the rest (everything, if
    /// the newest alone does not fit) — half, so that the scan is paid once
    /// per `cap / 2` new entries, not once per call. Returns how many
    /// entries went.
    fn evict(&mut self) -> u64 {
        if self.slots.len() <= self.cap {
            return 0;
        }
        let mut per_generation: BTreeMap<u64, usize> = BTreeMap::new();
        for slot in self.slots.values() {
            *per_generation.entry(slot.touched).or_default() += 1;
        }
        let mut kept = 0usize;
        let mut cutoff = self.generation + 1;
        for (&generation, &n) in per_generation.iter().rev() {
            if kept + n > self.cap / 2 {
                break;
            }
            kept += n;
            cutoff = generation;
        }
        let before = self.slots.len();
        self.slots.retain(|_, slot| slot.touched >= cutoff);
        (before - self.slots.len()) as u64
    }
}

/// Key tags: a probe entry and a costing entry of one query never collide.
const PROBE_TAG: u64 = 1;
const COSTING_TAG: u64 = 2;

/// The key words of one size statistic (absent ≠ any present value).
fn stat_words(est: Option<SizeEstimate>) -> [u64; 3] {
    match est {
        Some(e) => [1, e.rows.to_bits(), e.bytes.to_bits()],
        None => [0, 0, 0],
    }
}

/// What a probe reads of one candidate view, looked up once per `tune`.
struct Candidate<'a> {
    name: &'a str,
    /// Its memo-key word: a digest of its name, defining fingerprint, and
    /// the statistics the estimator reads for it.
    key: u64,
    /// The fingerprint its name spells, if canonical.
    fp: Option<u64>,
    /// Its filter-over-base form, for containment rewriting.
    filter: Option<&'a FilterView>,
}

/// Where one probe of a batch finds its value.
#[derive(Clone, Copy)]
enum Answer {
    /// In the memo before the batch.
    Known(f64),
    /// The batch's `c`-th costing.
    Costing(usize),
    /// The batch's `m`-th missed probe.
    Probe(usize),
}

/// A probe of a batch whose key the memo lacked, asked first by
/// `probes[k] = (q, s)`.
struct Miss {
    key: (u64, u64),
    q: usize,
    s: usize,
    /// The no-view cost of `q`.
    base: Answer,
}

/// The distinct costings a batch lacks, in first-asked order. Each is the
/// plan of window query `q`, rewritten as miss `m` rewrote it (`Some(m)`)
/// or not at all (`None`).
#[derive(Default)]
struct Costings {
    missing: Vec<((u64, u64), usize, Option<usize>)>,
    index: PrehashedMap<(u64, u64), usize>,
}

impl Costings {
    /// Finds costing `key` in the memo or among this batch's, adding it to
    /// the batch's when it is in neither. Also returns whether this call
    /// added it, that is, pays for it.
    fn resolve(
        &mut self,
        memo: &mut WhatIfMemo,
        generation: u64,
        key: (u64, u64),
        q: usize,
        rewrite: Option<usize>,
    ) -> (Answer, bool) {
        if let Some(value) = memo.get(key, generation) {
            return (Answer::Known(value), false);
        }
        match self.index.entry(key) {
            Entry::Occupied(c) => (Answer::Costing(*c.get()), false),
            Entry::Vacant(slot) => {
                slot.insert(self.missing.len());
                self.missing.push((key, q, rewrite));
                (Answer::Costing(self.missing.len() - 1), true)
            }
        }
    }
}

/// Runs `f(0..n)` on the worker pool.
fn fan_out<T: Send>(n: usize, f: impl Fn(usize) -> T + Sync) -> Vec<T> {
    pool::run_batch(n, f)
        // What-if probes are pure cost evaluations; a panic here is a bug
        // in the cost model, not a recoverable per-query failure.
        .unwrap_or_else(|e| panic!("what-if probe batch failed: {e}"))
}

/// The what-if probe of one `tune` call (or one [`MisoTuner::probe`]):
/// the window's query keys, the candidate views, the optimizer inputs, and
/// a tally of what the memo did.
struct Prober<'a> {
    /// `None` on the reference path (`with_whatif_cache(false)`).
    memo: Option<&'a Mutex<WhatIfMemo>>,
    generation: u64,
    env: &'a OptimizerEnv<'a>,
    window: &'a [&'a LogicalPlan],
    /// Per window position; equal plans share a key, hence their entries.
    query_keys: Vec<u64>,
    /// The candidate universe, sorted by name: bit `i` of a probed
    /// [`ViewSet`] is `candidates[i]`.
    candidates: Vec<Candidate<'a>>,
    /// The second key word of every query's no-view costing.
    base_key: u64,
    probes: AtomicU64,
    hits: AtomicU64,
    unused: AtomicU64,
    costed: AtomicU64,
}

impl<'a> Prober<'a> {
    fn new(
        tuner: &'a MisoTuner,
        window: &'a [&'a LogicalPlan],
        names: &'a [String],
        env: &'a OptimizerEnv<'a>,
    ) -> Self {
        let memo = tuner.cache_enabled.then_some(&*tuner.whatif);
        let (generation, models_version) =
            memo.map_or((0, 0), |m| lock(m).begin(env.hv, env.dw, env.transfer));
        // The reference path keys nothing.
        let key_of = |plan: &&LogicalPlan| {
            let logs = plan.base_logs();
            fnv1a_words(
                [models_version, plan.fingerprint(plan.root()).0]
                    .into_iter()
                    .chain(logs.iter().flat_map(|log| {
                        let [present, rows, bytes] = stat_words(env.stats.log_stats(log));
                        [fnv1a_str(log), present, rows, bytes]
                    })),
            )
        };
        let query_keys = match memo {
            Some(_) => window.iter().map(key_of).collect(),
            None => Vec::new(),
        };
        let candidates = names
            .iter()
            .map(|name| {
                let def = env.catalog.and_then(|c| c.get(name));
                let [present, rows, bytes] = stat_words(env.stats.view_stats(name));
                Candidate {
                    name,
                    key: fnv1a_words([
                        fnv1a_str(name),
                        def.map_or(0, |def| def.fingerprint.0),
                        present,
                        rows,
                        bytes,
                    ]),
                    fp: parse_view_fingerprint(name),
                    filter: def.and_then(|def| def.filter_form.as_ref()),
                }
            })
            .collect();
        Prober {
            memo,
            generation,
            env,
            window,
            query_keys,
            candidates,
            base_key: views_key(COSTING_TAG, std::iter::empty()),
            probes: AtomicU64::new(0),
            hits: AtomicU64::new(0),
            unused: AtomicU64::new(0),
            costed: AtomicU64::new(0),
        }
    }

    /// The index of candidate `name`.
    fn candidate(&self, name: &str) -> Option<usize> {
        self.candidates.binary_search_by(|c| c.name.cmp(name)).ok()
    }

    /// The names of a candidate subset.
    fn names_of(&self, set: &ViewSet) -> HashSet<String> {
        set.iter()
            .map(|i| self.candidates[i].name.to_string())
            .collect()
    }

    /// What-if costs (simulated seconds) of one batch of probes, as
    /// [`miso_views::CostFn`] asks them: `probes[k] = (q, s)` is window
    /// query `q` under the hypothetical design holding exactly the
    /// candidates in `sets[s]` in both stores.
    ///
    /// With the memo, one lock resolves every probe key; the misses are
    /// rewritten on the pool; a second lock resolves the costing keys their
    /// rewrites name, each distinct one once; the costings neither lock
    /// found run on the pool; and a third lock stores what was computed. A
    /// probe that repeats an earlier one of the batch (a duplicated window
    /// query) counts as a hit, as it would have one probe later.
    fn cost(&self, sets: &[ViewSet], probes: &[(usize, usize)]) -> Vec<f64> {
        self.probes
            .fetch_add(probes.len() as u64, Ordering::Relaxed);
        let Some(memo) = self.memo else {
            return fan_out(probes.len(), |k| {
                let (q, s) = probes[k];
                let views = self.names_of(&sets[s]);
                let design = Design {
                    hv_views: views.clone(),
                    dw_views: views,
                };
                what_if_cost(self.window[q], &design, self.env).as_secs_f64()
            });
        };
        let generation = self.generation;
        let members = |s: usize| sets[s].iter().map(|i| &self.candidates[i]);
        let set_keys: Vec<u64> = (0..sets.len())
            .map(|s| {
                if sets[s].is_empty() {
                    self.base_key
                } else {
                    views_key(PROBE_TAG, members(s).map(|c| c.key))
                }
            })
            .collect();

        // 1. Every probe key, under one lock.
        let mut costings = Costings::default();
        let mut misses: Vec<Miss> = Vec::new();
        let mut miss_of: PrehashedMap<(u64, u64), usize> = PrehashedMap::default();
        let mut hits = 0u64;
        let answers: Vec<Answer> = {
            let mut memo = lock(memo);
            let mut answers = Vec::with_capacity(probes.len());
            for &(q, s) in probes {
                let key = (self.query_keys[q], set_keys[s]);
                let answer = if sets[s].is_empty() {
                    let (answer, pays) = costings.resolve(&mut memo, generation, key, q, None);
                    hits += u64::from(!pays);
                    answer
                } else if let Some(value) = memo.get(key, generation) {
                    hits += 1;
                    Answer::Known(value)
                } else if let Some(&m) = miss_of.get(&key) {
                    hits += 1;
                    Answer::Probe(m)
                } else {
                    let base_key = (self.query_keys[q], self.base_key);
                    let base = costings.resolve(&mut memo, generation, base_key, q, None).0;
                    miss_of.insert(key, misses.len());
                    misses.push(Miss { key, q, s, base });
                    Answer::Probe(misses.len() - 1)
                };
                answers.push(answer);
            }
            answers
        };
        self.hits.fetch_add(hits, Ordering::Relaxed);

        // 2. The misses' rewrites, on the pool. What `rewrite_with_catalog`
        // derives from the names is kept per candidate: sorted
        // fingerprints, filter forms in name order.
        let rewrites: Vec<Rewrite> = fan_out(misses.len(), |m| {
            let Miss { q, s, .. } = misses[m];
            let mut wanted: Vec<u64> = members(s).filter_map(|c| c.fp).collect();
            wanted.sort_unstable();
            let fviews: Vec<&FilterView> = members(s).filter_map(|c| c.filter).collect();
            rewrite_over(self.window[q], &wanted, &fviews)
        });

        // 3. The costings the rewrites name, each distinct key once.
        let rewritten: Vec<Option<Answer>> = if misses.is_empty() {
            Vec::new()
        } else {
            let mut memo = lock(memo);
            rewrites
                .iter()
                .enumerate()
                .map(|(m, rewrite)| {
                    if rewrite.used.is_empty() {
                        return None;
                    }
                    // A rewrite consumes views of the probed set only.
                    let used = rewrite.used.iter().map(|name| {
                        let i = self
                            .candidate(name)
                            .expect("a consumed view is a candidate");
                        self.candidates[i].key
                    });
                    let q = misses[m].q;
                    let key = (self.query_keys[q], views_key(COSTING_TAG, used));
                    Some(costings.resolve(&mut memo, generation, key, q, Some(m)).0)
                })
                .collect()
        };
        let unused = rewritten.iter().filter(|r| r.is_none()).count();
        self.unused.fetch_add(unused as u64, Ordering::Relaxed);

        // 4. The missing costings, on the pool.
        let computed: Vec<f64> = fan_out(costings.missing.len(), |c| {
            let (_, q, rewrite) = costings.missing[c];
            let Some(m) = rewrite else {
                return what_if_plan_cost(self.window[q], &Design::default(), self.env)
                    .as_secs_f64();
            };
            let plan = rewrites[m].plan();
            // Splits are feasible by where the plan's view scans may run,
            // so the design need only hold the scanned views of the set.
            let set = &sets[misses[m].s];
            let scanned: HashSet<String> = plan
                .scanned_views()
                .into_iter()
                .filter(|v| self.candidate(v).is_some_and(|i| set.contains(i)))
                .collect();
            let design = Design {
                hv_views: scanned.clone(),
                dw_views: scanned,
            };
            what_if_plan_cost(&plan, &design, self.env).as_secs_f64()
        });
        self.costed
            .fetch_add(computed.len() as u64, Ordering::Relaxed);
        let known = |answer: Answer| match answer {
            Answer::Known(value) => value,
            Answer::Costing(c) => computed[c],
            Answer::Probe(_) => unreachable!("a costing is never a probe"),
        };
        let values: Vec<f64> = misses
            .iter()
            .zip(&rewritten)
            .map(|(miss, rewritten)| match rewritten {
                None => known(miss.base),
                Some(cost) => known(miss.base).min(known(*cost)),
            })
            .collect();

        // 5. What was computed, under one more lock.
        if !misses.is_empty() || !computed.is_empty() {
            let mut memo = lock(memo);
            let entries = costings
                .missing
                .iter()
                .map(|(key, ..)| *key)
                .zip(&computed)
                .chain(misses.iter().map(|miss| miss.key).zip(&values));
            for (key, &value) in entries {
                let touched = generation;
                memo.slots.insert(key, Slot { value, touched });
            }
        }
        answers
            .into_iter()
            .map(|answer| match answer {
                Answer::Probe(m) => values[m],
                other => known(other),
            })
            .collect()
    }

    /// Closes the generation: bounds the memo, publishes the counters, and
    /// returns this prober's tally with the memo length after eviction.
    fn finish(self) -> (WhatIfStats, usize) {
        let mut stats = WhatIfStats {
            probes: self.probes.into_inner(),
            hits: self.hits.into_inner(),
            unused: self.unused.into_inner(),
            costed: self.costed.into_inner(),
            evicted: 0,
        };
        let mut memo_len = 0;
        if let Some(memo) = self.memo {
            let mut memo = lock(memo);
            stats.evicted = memo.evict();
            memo_len = memo.slots.len();
            let totals = &mut memo.totals;
            totals.probes += stats.probes;
            totals.hits += stats.hits;
            totals.unused += stats.unused;
            totals.costed += stats.costed;
            totals.evicted += stats.evicted;
        }
        miso_obs::count("tuner.whatif_calls", stats.probes);
        miso_obs::count("tuner.whatif_cache_hits", stats.hits);
        miso_obs::count("tuner.whatif_unused", stats.unused);
        miso_obs::count("tuner.whatif_costed", stats.costed);
        (stats, memo_len)
    }
}

/// Digest of a view list under `tag`: per view its key word.
fn views_key(tag: u64, views: impl Iterator<Item = u64>) -> u64 {
    fnv1a_words(std::iter::once(tag).chain(views))
}

/// Locks the memo. Its values are write-once and its bookkeeping is valid
/// after every statement, so a poisoned lock still guards a usable memo.
fn lock(memo: &Mutex<WhatIfMemo>) -> MutexGuard<'_, WhatIfMemo> {
    memo.lock().unwrap_or_else(|poisoned| poisoned.into_inner())
}

/// The MISO tuner.
///
/// Cloning shares the cross-epoch what-if memo (it is a memo of pure probe
/// results, so sharing is always sound). A tuner is meant to live as long
/// as the system it tunes: `MultistoreSystem` owns one, and every
/// reorganization — the stream driver's and the serving layer's alike —
/// probes through it.
#[derive(Debug, Clone)]
pub struct MisoTuner {
    /// Configuration.
    pub config: TunerConfig,
    /// Cross-epoch what-if memo, shared across clones.
    whatif: Arc<Mutex<WhatIfMemo>>,
    /// Off = the reference path: every probe a plain `what_if_cost` (the
    /// per-analysis table inside `analyze_candidates` is always on).
    cache_enabled: bool,
}

impl MisoTuner {
    /// Creates a tuner (cross-epoch what-if memo on).
    pub fn new(config: TunerConfig) -> Self {
        MisoTuner {
            config,
            whatif: Arc::new(Mutex::new(WhatIfMemo::default())),
            cache_enabled: true,
        }
    }

    /// Enables or disables the what-if memo and the delta probe with it
    /// (builder style). Disabled, every probe is a full
    /// `what_if_cost(q, design(S))`: the reference the equivalence tests
    /// compare against.
    pub fn with_whatif_cache(mut self, enabled: bool) -> Self {
        self.cache_enabled = enabled;
        if !enabled {
            lock(&self.whatif).slots.clear();
        }
        self
    }

    /// Number of memoised what-if results, probes and costings together.
    pub fn whatif_cache_len(&self) -> usize {
        lock(&self.whatif).slots.len()
    }

    /// What the memo has done over this tuner's life (shared by clones).
    pub fn whatif_stats(&self) -> WhatIfStats {
        lock(&self.whatif).totals
    }

    /// One what-if probe as `tune` makes it: the cost in simulated seconds
    /// of `query` under the hypothetical design holding exactly `views` in
    /// both stores. Bit-equal to `what_if_cost(query, design(views), env)`.
    pub fn probe(
        &self,
        query: &LogicalPlan,
        views: &BTreeSet<String>,
        env: &OptimizerEnv<'_>,
    ) -> f64 {
        let window = [query];
        let names: Vec<String> = views.iter().cloned().collect();
        let prober = Prober::new(self, &window, &names, env);
        let mut all = ViewSet::empty(names.len());
        (0..names.len()).for_each(|i| all.insert(i));
        let cost = prober.cost(&[all], &[(0, 0)])[0];
        prober.finish();
        cost
    }

    /// Computes a new multistore design.
    ///
    /// * `current_hv`, `current_dw` — the views presently in each store;
    /// * `catalog` — metadata (sizes) for every candidate view;
    /// * `history` — the recent query window `W` (raw, un-rewritten plans),
    ///   oldest first;
    /// * `stats` — true log/view sizes for what-if costing;
    /// * cost models — shared with the execution layer.
    #[allow(clippy::too_many_arguments)]
    pub fn tune(
        &self,
        current_hv: &BTreeSet<String>,
        current_dw: &BTreeSet<String>,
        catalog: &ViewCatalog,
        history: &[LogicalPlan],
        stats: &MapStats,
        hv_cost: &HvCostModel,
        dw_cost: &DwCostModel,
        transfer: &TransferModel,
    ) -> NewDesign {
        self.tune_with_maintenance(
            current_hv,
            current_dw,
            catalog,
            history,
            stats,
            hv_cost,
            dw_cost,
            transfer,
            &HashMap::new(),
        )
    }

    /// [`MisoTuner::tune`], with a per-view *maintenance cost* term
    /// (simulated seconds per history window, estimated by the caller from
    /// its growth schedule). Keeping a view is only worth its benefit
    /// minus what it will cost to keep current, so each candidate item's
    /// benefit is charged the summed maintenance cost of its views before
    /// the knapsack phases — delta-maintainable views (cheap upkeep)
    /// thereby out-compete full-recompute views of equal query benefit.
    /// An empty map reproduces `tune` exactly.
    #[allow(clippy::too_many_arguments)]
    pub fn tune_with_maintenance(
        &self,
        current_hv: &BTreeSet<String>,
        current_dw: &BTreeSet<String>,
        catalog: &ViewCatalog,
        history: &[LogicalPlan],
        stats: &MapStats,
        hv_cost: &HvCostModel,
        dw_cost: &DwCostModel,
        transfer: &TransferModel,
        maint_cost: &HashMap<String, f64>,
    ) -> NewDesign {
        let mut obs = miso_obs::span("tuner.tune");
        let budgets = &self.config.budgets;
        // Per-dimension discretization: at least the configured unit, but
        // coarse enough to keep each DP dimension ≤ MAX_UNITS cells (the
        // paper's d = 1 GB plays the same role against TB-scale budgets).
        let dw_unit = effective_unit(budgets.discretization, budgets.dw_storage);
        let hv_unit = effective_unit(budgets.discretization, budgets.hv_storage);
        let tu_unit = effective_unit(budgets.discretization, budgets.transfer);

        // V = Vh ∪ Vd, with sizes from the catalog.
        let mut names: Vec<String> = current_hv.union(current_dw).cloned().collect();
        names.sort();
        names.retain(|n| catalog.contains(n));
        if names.is_empty() || history.is_empty() {
            return NewDesign {
                hv: current_hv.clone(),
                dw: current_dw.clone(),
            };
        }
        let infos: Vec<ViewInfo> = names
            .iter()
            .map(|n| ViewInfo {
                name: n.clone(),
                size: catalog.get(n).unwrap().size,
            })
            .collect();

        // Decay weights over the history window.
        let window: Vec<&LogicalPlan> = history
            .iter()
            .rev()
            .take(self.config.history_len)
            .rev()
            .collect();
        let weights = decay_weights(window.len(), self.config.epoch_len, self.config.decay);

        // What-if probe: hypothetical design with the subset available in
        // both stores (a view's benefit is dominated by its best placement;
        // the knapsack phases decide the actual store).
        let env = OptimizerEnv {
            stats,
            hv: hv_cost,
            dw: dw_cost,
            transfer,
            catalog: Some(catalog),
        };
        let prober = Prober::new(self, &window, &names, &env);
        let cost_fn = |sets: &[ViewSet], probes: &[(usize, usize)]| prober.cost(sets, probes);
        let analysis_cfg = AnalysisConfig {
            doi_threshold: self.config.doi_threshold,
            max_part_size: Some(4),
        };
        let items = analyze_candidates(&infos, &weights, &cost_fn, &analysis_cfg);

        // Phase 1: pack DW. HV-resident members consume B_t (Case 1).
        let size_of =
            |v: &str| -> ByteSize { catalog.get(v).map(|d| d.size).unwrap_or(ByteSize::ZERO) };
        // Charge each item's benefit with the maintenance cost of keeping
        // its views current over the window. The `> 0.0` guard keeps the
        // no-growth path bit-identical (no float round-trip at all).
        let charged = |views: &BTreeSet<String>, benefit: f64| -> f64 {
            let penalty: f64 = views
                .iter()
                .map(|v| maint_cost.get(v).copied().unwrap_or(0.0))
                .sum();
            if penalty > 0.0 {
                (benefit - penalty).max(0.0)
            } else {
                benefit
            }
        };
        let dw_items: Vec<PackItem> = items
            .iter()
            .map(|item| {
                let storage: ByteSize = item.views.iter().map(|v| size_of(v)).sum();
                let transfer_bytes: ByteSize = item
                    .views
                    .iter()
                    .filter(|v| !current_dw.contains(*v))
                    .map(|v| size_of(v))
                    .sum();
                PackItem {
                    views: item.views.iter().cloned().collect(),
                    storage_units: storage.units_ceil(dw_unit),
                    transfer_units: transfer_bytes.units_ceil(tu_unit),
                    benefit: charged(&item.views, item.benefit),
                }
            })
            .collect();
        let dw_pack = m_knapsack(
            &dw_items,
            budgets.dw_storage.as_bytes() / dw_unit.as_bytes(),
            budgets.transfer.as_bytes() / tu_unit.as_bytes(),
        );
        let dw_new: BTreeSet<String> = dw_pack
            .chosen
            .iter()
            .flat_map(|&k| dw_items[k].views.iter().cloned())
            .collect();

        // Remaining transfer budget after phase 1 (exact bytes consumed by
        // views that actually move HV→DW).
        let moved_to_dw: ByteSize = dw_new
            .iter()
            .filter(|v| !current_dw.contains(*v))
            .map(|v| size_of(v))
            .sum();
        let bt_rem_units = (budgets.transfer.as_bytes() / tu_unit.as_bytes())
            .saturating_sub(moved_to_dw.units_ceil(tu_unit));

        // Phase 2: pack HV from the leftovers. DW-evicted members consume
        // B_t^rem (they must move back); HV-resident members don't.
        let evicted: HashSet<&String> =
            current_dw.iter().filter(|v| !dw_new.contains(*v)).collect();
        let hv_items: Vec<PackItem> = items
            .iter()
            .filter(|item| item.views.iter().all(|v| !dw_new.contains(v)))
            .map(|item| {
                let storage: ByteSize = item.views.iter().map(|v| size_of(v)).sum();
                let transfer_bytes: ByteSize = item
                    .views
                    .iter()
                    .filter(|v| evicted.contains(*v))
                    .map(|v| size_of(v))
                    .sum();
                PackItem {
                    views: item.views.iter().cloned().collect(),
                    storage_units: storage.units_ceil(hv_unit),
                    transfer_units: transfer_bytes.units_ceil(tu_unit),
                    benefit: charged(&item.views, item.benefit),
                }
            })
            .collect();
        let hv_pack = m_knapsack(
            &hv_items,
            budgets.hv_storage.as_bytes() / hv_unit.as_bytes(),
            bt_rem_units,
        );
        let hv_new: BTreeSet<String> = hv_pack
            .chosen
            .iter()
            .flat_map(|&k| hv_items[k].views.iter().cloned())
            .collect();

        debug_assert!(hv_new.is_disjoint(&dw_new), "V_h ∩ V_d must be empty");
        let (whatif, memo_len) = prober.finish();
        if obs.is_active() {
            for (name, value) in [
                ("probes", whatif.probes),
                ("hits", whatif.hits),
                ("unused", whatif.unused),
                ("costed", whatif.costed),
                ("memo_len", memo_len as u64),
                ("evicted", whatif.evicted),
            ] {
                obs.push_field(name, miso_obs::FieldValue::U64(value));
            }
            obs.push_field("candidates", miso_obs::FieldValue::U64(infos.len() as u64));
            obs.push_field("items", miso_obs::FieldValue::U64(items.len() as u64));
            obs.push_field("dw_views", miso_obs::FieldValue::U64(dw_new.len() as u64));
            obs.push_field("hv_views", miso_obs::FieldValue::U64(hv_new.len() as u64));
            obs.push_field("history", miso_obs::FieldValue::U64(window.len() as u64));
        }
        NewDesign {
            hv: hv_new,
            dw: dw_new,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use miso_common::ids::QueryId;
    use miso_lang::{compile, Catalog};
    use miso_plan::Operator;
    use miso_views::ViewDef;

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

    #[test]
    fn beneficial_view_lands_in_dw() {
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

        let tuner = MisoTuner::new(TunerConfig::paper_default(budgets(1)));
        let hv: BTreeSet<String> = [name.clone()].into_iter().collect();
        let dw = BTreeSet::new();
        let design = tuner.tune(
            &hv,
            &dw,
            &catalog,
            &[plan],
            &s,
            &HvCostModel::paper_default(),
            &DwCostModel::paper_default(),
            &TransferModel::paper_default(),
        );
        assert!(design.dw.contains(&name), "useful view should move to DW");
        assert!(!design.hv.contains(&name), "designs must be disjoint");
    }

    #[test]
    fn zero_transfer_budget_freezes_dw() {
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

        let b = Budgets::new(ByteSize::from_gib(1), ByteSize::from_gib(1), ByteSize::ZERO)
            .with_discretization(ByteSize::from_kib(64));
        let tuner = MisoTuner::new(TunerConfig::paper_default(b));
        let hv: BTreeSet<String> = [name.clone()].into_iter().collect();
        let design = tuner.tune(
            &hv,
            &BTreeSet::new(),
            &catalog,
            &[plan],
            &s,
            &HvCostModel::paper_default(),
            &DwCostModel::paper_default(),
            &TransferModel::paper_default(),
        );
        assert!(design.dw.is_empty(), "no transfer budget, nothing moves");
        assert!(design.hv.contains(&name), "view stays in HV");
    }

    #[test]
    fn empty_history_keeps_current_design() {
        let tuner = MisoTuner::new(TunerConfig::paper_default(budgets(1)));
        let hv: BTreeSet<String> = ["v_x".to_string()].into_iter().collect();
        let dw: BTreeSet<String> = ["v_y".to_string()].into_iter().collect();
        let design = tuner.tune(
            &hv,
            &dw,
            &ViewCatalog::new(),
            &[],
            &stats(),
            &HvCostModel::paper_default(),
            &DwCostModel::paper_default(),
            &TransferModel::paper_default(),
        );
        assert_eq!(design.hv, hv);
        assert_eq!(design.dw, dw);
    }

    #[test]
    fn dw_storage_budget_limits_design() {
        // Two beneficial views but DW budget only fits one.
        let (p1, v1) = plan_and_view(
            "SELECT t.city AS c, COUNT(*) AS n FROM twitter t \
             WHERE t.followers > 1000 GROUP BY t.city",
            ByteSize::from_kib(200),
        );
        let (p2, v2) = plan_and_view(
            "SELECT f.city AS c, COUNT(*) AS n FROM foursquare f \
             WHERE f.likes > 10 GROUP BY f.city",
            ByteSize::from_kib(200),
        );
        let mut catalog = ViewCatalog::new();
        let (n1, n2) = (v1.name.clone(), v2.name.clone());
        catalog.register(v1);
        catalog.register(v2);
        let mut s = stats();
        s.set_view(n1.clone(), 1_000.0, 200.0 * 1024.0);
        s.set_view(n2.clone(), 1_000.0, 200.0 * 1024.0);

        // DW budget: 256 KiB (one 200 KiB view, discretized at 64 KiB ->
        // 4 units each... 200KiB = 4 units ceil; budget 4 units).
        let b = Budgets::new(
            ByteSize::from_gib(1),
            ByteSize::from_kib(256),
            ByteSize::from_gib(1),
        )
        .with_discretization(ByteSize::from_kib(64));
        let tuner = MisoTuner::new(TunerConfig::paper_default(b));
        let hv: BTreeSet<String> = [n1.clone(), n2.clone()].into_iter().collect();
        let design = tuner.tune(
            &hv,
            &BTreeSet::new(),
            &catalog,
            &[p1, p2],
            &s,
            &HvCostModel::paper_default(),
            &DwCostModel::paper_default(),
            &TransferModel::paper_default(),
        );
        assert_eq!(design.dw.len(), 1, "storage fits exactly one view");
        assert_eq!(design.hv.len(), 1, "the other stays in HV");
        assert!(design.hv.is_disjoint(&design.dw));
    }

    /// With a cap so small that every epoch evicts, the memo never holds
    /// more than the cap after a `tune`, and the designs are the ones a
    /// memo-free tuner chooses.
    #[test]
    fn eviction_bounds_the_memo_and_never_changes_a_design() {
        let sqls: Vec<String> = (0..6)
            .map(|i| {
                format!(
                    "SELECT t.city AS c, COUNT(*) AS n FROM twitter t \
                     WHERE t.followers > {} GROUP BY t.city",
                    1000 + 100 * i
                )
            })
            .collect();
        let mut catalog = ViewCatalog::new();
        let mut s = stats();
        let mut hv = BTreeSet::new();
        let mut plans = Vec::new();
        for sql in &sqls {
            let (plan, view) = plan_and_view(sql, ByteSize::from_kib(200));
            s.set_view(view.name.clone(), 1_000.0, 200.0 * 1024.0);
            hv.insert(view.name.clone());
            catalog.register(view);
            plans.push(plan);
        }
        let config = TunerConfig {
            history_len: 3,
            ..TunerConfig::paper_default(budgets(1))
        };
        let cap = 16;
        let tuner = MisoTuner::new(config.clone());
        lock(&tuner.whatif).cap = cap;
        let reference = MisoTuner::new(config).with_whatif_cache(false);
        let tune = |tuner: &MisoTuner, window: &[LogicalPlan]| {
            tuner.tune(
                &hv,
                &BTreeSet::new(),
                &catalog,
                window,
                &s,
                &HvCostModel::paper_default(),
                &DwCostModel::paper_default(),
                &TransferModel::paper_default(),
            )
        };
        for epoch in 0..12 {
            let window: Vec<LogicalPlan> = (0..3)
                .map(|k| plans[(epoch + k) % plans.len()].clone())
                .collect();
            assert_eq!(tune(&tuner, &window), tune(&reference, &window));
            assert!(tuner.whatif_cache_len() <= cap, "epoch {epoch}");
        }
        assert!(tuner.whatif_stats().evicted > 0, "the cap should bind");
    }
}
