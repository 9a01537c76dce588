//! Tuner hot-path benchmark: serial baseline vs the miso-par engine.
//!
//! Scales a synthetic candidate universe (V distinct views, each defined by
//! the filter subtree of its own query) and history window (Q queries
//! cycling the bases), then tunes for E consecutive epochs twice per
//! configuration:
//!
//! * **serial** — one worker thread, what-if memo disabled: every probe a
//!   full `what_if_cost`, every epoch (the reference path);
//! * **engine** — the resolved `MISO_THREADS` worker count with the delta
//!   probe and its memo on.
//!
//! in two modes:
//!
//! * **frozen** — the same catalog and window every epoch: after epoch 1
//!   every probe hits (the best case, and all this bench measured before);
//! * **churn** — what a stream does: each epoch one view is dropped and one
//!   registered, and the window slides by the tuner's `epoch_len`, so the
//!   memo serves only the probes whose query and views both carried over.
//!
//! Per epoch and side it reports the hit fraction and the number of full
//! costings (plans costed; on the serial side every probe is one). Both
//! runs must produce identical designs every epoch (the probes are pure, so
//! threading and memoization may change only *when* a probe runs, never
//! its value); any divergence exits non-zero. Timings are printed and land
//! in `results/tunerbench.report.json`; nothing gates on them. `--smoke`
//! runs one small configuration (the CI step).

use miso_bench::row;
use miso_common::ids::QueryId;
use miso_common::{pool, Budgets, ByteSize};
use miso_core::{MisoTuner, NewDesign, TunerConfig};
use miso_data::json::{parse_json, to_json};
use miso_data::Value;
use miso_dw::DwCostModel;
use miso_hv::HvCostModel;
use miso_lang::{compile, Catalog};
use miso_optimizer::cost::TransferModel;
use miso_plan::estimate::MapStats;
use miso_plan::{LogicalPlan, Operator};
use miso_views::{ViewCatalog, ViewDef};
use std::collections::BTreeSet;
use std::time::Instant;

/// One synthetic candidate universe: base queries, one view per query.
struct Universe {
    plans: Vec<LogicalPlan>,
    defs: Vec<ViewDef>,
}

/// What one epoch's `tune` call sees.
struct EpochInputs {
    /// All candidate views sit in HV (the opportunistic pool).
    hv: BTreeSet<String>,
    catalog: ViewCatalog,
    stats: MapStats,
    history: Vec<LogicalPlan>,
}

/// Builds V distinct query/view pairs over the standard log catalog.
/// Predicate constants vary per index so every view has its own
/// fingerprint; tables rotate so relevance stays sparse (a view only ever
/// matches queries over its own log).
fn universe(v: usize) -> Universe {
    let lang = Catalog::standard();
    let mut plans = Vec::with_capacity(v);
    let mut defs = Vec::with_capacity(v);
    for i in 0..v {
        let sql = match i % 3 {
            0 => format!(
                "SELECT t.city AS c, COUNT(*) AS n FROM twitter t \
                 WHERE t.followers > {} GROUP BY t.city",
                1000 + 17 * i
            ),
            1 => format!(
                "SELECT f.city AS c, COUNT(*) AS n FROM foursquare f \
                 WHERE f.likes > {} GROUP BY f.city",
                10 + 3 * i
            ),
            _ => format!(
                "SELECT t.lang AS l, COUNT(*) AS n FROM twitter t \
                 WHERE t.retweets > {} GROUP BY t.lang",
                5 + 2 * i
            ),
        };
        let plan = compile(&sql, &lang).expect("bench query compiles");
        let filt = plan
            .nodes()
            .iter()
            .find(|n| matches!(n.op, Operator::Filter { .. }))
            .expect("bench query has a filter")
            .id;
        let size = ByteSize::from_kib(96 + 16 * i as u64);
        let rows = 800 + 40 * i as u64;
        defs.push(ViewDef::from_plan(
            plan.subplan(filt),
            size,
            rows,
            QueryId(i as u64),
        ));
        plans.push(plan);
    }
    Universe { plans, defs }
}

impl Universe {
    /// The inputs of an epoch whose candidates are the `v` views from
    /// `first` on and whose window is the `q` queries from `start` on
    /// (cycling the bases).
    fn epoch(&self, first: usize, v: usize, start: usize, q: usize) -> EpochInputs {
        let mut catalog = ViewCatalog::new();
        let mut stats = MapStats::new();
        stats.set_log("twitter", 40_000.0, 40_000.0 * 280.0);
        stats.set_log("foursquare", 24_000.0, 24_000.0 * 160.0);
        stats.set_log("landmarks", 900.0, 900.0 * 190.0);
        let mut hv = BTreeSet::new();
        for def in &self.defs[first..first + v] {
            stats.set_view(
                def.name.clone(),
                def.rows as f64,
                def.size.as_bytes() as f64,
            );
            hv.insert(def.name.clone());
            catalog.register(def.clone());
        }
        let history = (0..q)
            .map(|i| self.plans[(start + i) % self.plans.len()].clone())
            .collect();
        EpochInputs {
            hv,
            catalog,
            stats,
            history,
        }
    }
}

/// Wall-clock and probe counters for one multi-epoch tuning run.
struct RunStats {
    epoch_s: Vec<f64>,
    whatif_calls: Vec<u64>,
    cache_hits: Vec<u64>,
    /// Plans costed in full: `tuner.whatif_costed` with the memo on,
    /// `optimizer.calls` (one `optimize` per probe) on the reference path.
    full_costings: Vec<u64>,
    designs: Vec<NewDesign>,
}

impl RunStats {
    fn total_s(&self) -> f64 {
        self.epoch_s.iter().sum()
    }

    fn value(&self) -> Value {
        let floats = |xs: &[f64]| Value::Array(xs.iter().map(|&x| Value::Float(x)).collect());
        let ints = |xs: &[u64]| Value::Array(xs.iter().map(|&x| Value::Int(x as i64)).collect());
        let hit_frac: Vec<f64> = self
            .cache_hits
            .iter()
            .zip(&self.whatif_calls)
            .map(|(&h, &c)| h as f64 / c.max(1) as f64)
            .collect();
        Value::object(vec![
            ("total_s".into(), Value::Float(self.total_s())),
            ("epoch_s".into(), floats(&self.epoch_s)),
            ("whatif_calls".into(), ints(&self.whatif_calls)),
            ("whatif_cache_hits".into(), ints(&self.cache_hits)),
            ("hit_frac".into(), floats(&hit_frac)),
            ("full_costings".into(), ints(&self.full_costings)),
        ])
    }
}

/// Tunes the given epochs in order with one tuner, timing each and diffing
/// the what-if counters around it.
fn run_epochs(tuner: &MisoTuner, epochs: &[EpochInputs]) -> RunStats {
    let hv_cost = HvCostModel::paper_default();
    let dw_cost = DwCostModel::paper_default();
    let transfer = TransferModel::paper_default();
    let counters = || {
        let snapshot = miso_obs::snapshot();
        [
            "tuner.whatif_calls",
            "tuner.whatif_cache_hits",
            "tuner.whatif_costed",
            "optimizer.calls",
        ]
        .map(|name| snapshot.counters.get(name).copied().unwrap_or(0))
    };
    let mut stats = RunStats {
        epoch_s: Vec::with_capacity(epochs.len()),
        whatif_calls: Vec::with_capacity(epochs.len()),
        cache_hits: Vec::with_capacity(epochs.len()),
        full_costings: Vec::with_capacity(epochs.len()),
        designs: Vec::with_capacity(epochs.len()),
    };
    for e in epochs {
        let before = counters();
        let t0 = Instant::now();
        let design = tuner.tune(
            &e.hv,
            &BTreeSet::new(),
            &e.catalog,
            &e.history,
            &e.stats,
            &hv_cost,
            &dw_cost,
            &transfer,
        );
        stats.epoch_s.push(t0.elapsed().as_secs_f64());
        let after = counters();
        let [calls, hits, costed, optimizes] = std::array::from_fn(|k| after[k] - before[k]);
        stats.whatif_calls.push(calls);
        stats.cache_hits.push(hits);
        stats.full_costings.push(costed + optimizes);
        stats.designs.push(design);
    }
    stats
}

fn bench_budgets() -> Budgets {
    Budgets::new(
        ByteSize::from_gib(1),
        ByteSize::from_gib(1),
        ByteSize::from_gib(1),
    )
    .with_discretization(ByteSize::from_kib(64))
}

fn main() {
    if !miso_bench::obs_init() {
        // The speedup accounting below reads the what-if counters, so
        // metrics must flow even when MISO_OBS is unset.
        miso_obs::init(miso_obs::ObsConfig::ring(4096));
    }
    let smoke = std::env::args().any(|a| a == "--smoke");
    // Resolve MISO_THREADS / core count once, before the serial baseline
    // pins the pool to one worker.
    let engine_threads = pool::threads();
    let epochs = if smoke { 2 } else { 3 };
    let configs: &[(usize, usize)] = if smoke {
        &[(16, 32)]
    } else {
        &[
            (16, 32),
            (16, 128),
            (32, 32),
            (32, 128),
            (64, 32),
            (64, 128),
        ]
    };

    let widths = [7usize, 5, 5, 12, 12, 9, 9, 9, 9];
    println!(
        "=== Tuner hot path: serial (1 thread, memo off) vs engine ({engine_threads} threads, memo on), {epochs} epochs ==="
    );
    println!(
        "{}",
        row(
            &[
                "mode", "V", "Q", "serial_s", "engine_s", "speedup", "probes", "e2 hit%",
                "e2 cost",
            ]
            .map(String::from),
            &widths,
        )
    );

    let mut failures = 0usize;
    let mut cfg_values = Vec::new();
    for mode in ["frozen", "churn"] {
        for &(v, q) in configs {
            let tcfg = TunerConfig {
                budgets: bench_budgets(),
                history_len: q,
                epoch_len: 3,
                decay: 0.5,
                doi_threshold: 1.0,
            };
            // Frozen: the same V views and Q-query window every epoch.
            // Churn: each epoch the oldest candidate is dropped and a new
            // one registered, and the window slides by `epoch_len` over
            // distinct queries.
            let churn = mode == "churn";
            // Churn needs enough bases that every window query is distinct
            // and three unseen ones enter per epoch.
            let u = universe(if churn {
                (v + epochs).max(q + epochs * tcfg.epoch_len)
            } else {
                v
            });
            let inputs: Vec<EpochInputs> = (0..epochs)
                .map(|e| {
                    if churn {
                        u.epoch(e, v, e * tcfg.epoch_len, q)
                    } else {
                        u.epoch(0, v, 0, q)
                    }
                })
                .collect();

            pool::set_threads(1);
            let serial = run_epochs(
                &MisoTuner::new(tcfg.clone()).with_whatif_cache(false),
                &inputs,
            );

            pool::set_threads(engine_threads);
            let engine_tuner = MisoTuner::new(tcfg);
            let engine = run_epochs(&engine_tuner, &inputs);

            if serial.designs != engine.designs {
                eprintln!(
                    "tunerbench: {mode} V={v} Q={q}: engine designs diverge from serial baseline"
                );
                failures += 1;
            }
            let e2_hits = engine.cache_hits.get(1).copied().unwrap_or(0);
            let e2_calls = engine.whatif_calls.get(1).copied().unwrap_or(0);
            if e2_hits == 0 {
                eprintln!("tunerbench: {mode} V={v} Q={q}: no cross-epoch memo hits on epoch 2");
                failures += 1;
            }
            let speedup = serial.total_s() / engine.total_s().max(1e-12);
            println!(
                "{}",
                row(
                    &[
                        mode.to_string(),
                        v.to_string(),
                        q.to_string(),
                        format!("{:.4}", serial.total_s()),
                        format!("{:.4}", engine.total_s()),
                        format!("{speedup:.2}x"),
                        serial.whatif_calls.iter().sum::<u64>().to_string(),
                        format!("{:.1}", 100.0 * e2_hits as f64 / e2_calls.max(1) as f64),
                        engine
                            .full_costings
                            .get(1)
                            .copied()
                            .unwrap_or(0)
                            .to_string(),
                    ],
                    &widths,
                )
            );
            cfg_values.push(Value::object(vec![
                ("mode".into(), Value::str(mode)),
                ("views".into(), Value::Int(v as i64)),
                ("queries".into(), Value::Int(q as i64)),
                ("serial".into(), serial.value()),
                ("engine".into(), engine.value()),
                ("speedup".into(), Value::Float(speedup)),
                (
                    "designs_match".into(),
                    Value::Bool(serial.designs == engine.designs),
                ),
                (
                    "engine_memo_len".into(),
                    Value::Int(engine_tuner.whatif_cache_len() as i64),
                ),
            ]));
        }
    }
    // Leave the pool as the environment configured it.
    pool::set_threads(engine_threads);

    let report = Value::object(vec![
        ("bench".into(), Value::str("tunerbench")),
        (
            "mode".into(),
            Value::str(if smoke { "smoke" } else { "full" }),
        ),
        ("threads".into(), Value::Int(engine_threads as i64)),
        ("epochs".into(), Value::Int(epochs as i64)),
        ("pool".into(), miso_bench::pool_value()),
        ("configs".into(), Value::Array(cfg_values)),
    ]);
    if let Err(e) = parse_json(&to_json(&report)) {
        eprintln!("tunerbench: emitted JSON does not round-trip: {e}");
        failures += 1;
    }
    miso_bench::write_report("tunerbench", report);

    if failures > 0 {
        std::process::exit(1);
    }
    println!("tunerbench: designs identical across threading and memoization");
}
