//! Incremental view maintenance benchmark (miso-ivm).
//!
//! For each maintainable view shape — filter, project, aggregate,
//! join+aggregate, float aggregate (`AVG`, float `SUM`) and a view derived
//! through another view — two identical systems ingest the same sequence of
//! append-only tweet batches under the Refresh policy:
//!
//! * **delta** — the production configuration: after one warm-up append
//!   builds fold state, every batch folds into the stored views in
//!   O(|delta|);
//! * **full** — `ivm_max_delta_frac = 0`, which rejects every delta before
//!   the state check and forces the same refreshes through full
//!   recomputation.
//!
//! Both modes maintain the same views over the same data, so after the run
//! every view must be row-count- and **checksum-identical** between the two
//! systems — the incremental digest re-stamp is verified against the full
//! rebuild's from-scratch checksum on every shape; any divergence exits
//! non-zero. The wall-clock speedup (full / delta) at |delta| = 2% of the
//! base log is printed and lands in `results/ivmbench.report.json`; nothing
//! gates on it. `--smoke` runs a tiny corpus with the same identity checks
//! (the CI step).

use miso_common::{Budgets, ByteSize, SimClock};
use miso_core::{MaintAction, MaintenancePolicy, MultistoreSystem, SystemConfig, Variant};
use miso_data::json::{parse_json, to_json};
use miso_data::logs::{Corpus, LogKind, LogsConfig};
use miso_data::{Delta, Value};
use miso_plan::LogicalPlan;
use miso_workload::{standard_udfs, workload_catalog};
use std::time::Instant;

struct Shape {
    name: &'static str,
    /// The queries whose opportunistic run leaves the views, in order.
    sql: &'static [&'static str],
}

const SHAPES: [Shape; 6] = [
    Shape {
        name: "filter",
        sql: &["SELECT t.tweet_id AS id, t.city AS city FROM twitter t WHERE t.followers > 10"],
    },
    Shape {
        name: "project",
        sql: &["SELECT t.user_id AS u, t.followers + 1 AS f1 FROM twitter t WHERE t.tweet_id >= 0"],
    },
    Shape {
        name: "aggregate",
        sql: &[
            "SELECT t.city AS c, COUNT(*) AS n, SUM(t.followers) AS s FROM twitter t \
                WHERE t.followers > 10 GROUP BY t.city",
        ],
    },
    Shape {
        name: "join+aggregate",
        sql: &["SELECT f.city AS c, COUNT(*) AS n FROM twitter t \
                JOIN foursquare f ON t.user_id = f.user_id \
                WHERE t.followers > 1 GROUP BY f.city"],
    },
    Shape {
        name: "float-aggregate",
        sql: &[
            "SELECT t.city AS c, AVG(t.sentiment) AS mood, SUM(t.sentiment) AS s \
                FROM twitter t WHERE t.followers > 10 GROUP BY t.city",
        ],
    },
    // The second query is answered from the first one's filter view, so the
    // aggregate it leaves behind scans that view, not the log.
    Shape {
        name: "derived-view",
        sql: &[
            "SELECT t.city AS c, COUNT(*) AS n FROM twitter t \
             WHERE t.followers > 10 GROUP BY t.city",
            "SELECT t.city AS c, MAX(t.followers) AS top FROM twitter t \
             WHERE t.followers > 10 GROUP BY t.city",
        ],
    },
];

struct ModeRun {
    wall: f64,
    maint_cost: f64,
    delta_applies: u64,
    full_refreshes: u64,
    sys: MultistoreSystem,
}

impl ModeRun {
    /// Whether some maintained view is defined over another view.
    fn derived_views(&self) -> bool {
        let defs = self.sys.catalog.defs();
        defs.iter().any(|d| !d.plan.scanned_views().is_empty())
    }
}

/// Builds a fresh system over `corpus`, materializes the shape's views via
/// one opportunistic-HV run, primes fold state with a warm-up append, then
/// times `batches` further appends under the Refresh policy.
#[allow(clippy::too_many_arguments)]
fn run_mode(
    corpus: &Corpus,
    cfg: &LogsConfig,
    queries: &[(String, LogicalPlan)],
    frac: f64,
    batches: u64,
    batch_rows: usize,
    budgets: Budgets,
) -> ModeRun {
    let mut config = SystemConfig::paper_default(budgets);
    config.ivm_max_delta_frac = frac;
    let mut sys = MultistoreSystem::new(corpus, workload_catalog(), standard_udfs(), config);
    sys.run_workload(Variant::HvOp, queries)
        .expect("shape queries run");
    assert!(
        !sys.catalog.is_empty(),
        "opportunistic run must leave views"
    );
    let mut clock = SimClock::new();
    // Warm-up: builds (or, in full mode, pointlessly rebuilds) fold state.
    let warm = Delta::generated(cfg, LogKind::Twitter, 0, batch_rows);
    sys.grow(&warm, MaintenancePolicy::Refresh, &mut clock)
        .expect("warm-up append");
    let mut wall = 0.0;
    let mut maint_cost = 0.0;
    let mut delta_applies = 0u64;
    let mut full_refreshes = 0u64;
    for batch in 1..=batches {
        let delta = Delta::generated(cfg, LogKind::Twitter, batch, batch_rows);
        let start = Instant::now();
        let report = sys
            .grow(&delta, MaintenancePolicy::Refresh, &mut clock)
            .expect("timed append");
        wall += start.elapsed().as_secs_f64();
        maint_cost += report.cost.as_secs_f64();
        for d in &report.decisions {
            match d.action {
                MaintAction::Delta => delta_applies += 1,
                MaintAction::Full => full_refreshes += 1,
                MaintAction::Invalidated => {}
            }
        }
    }
    ModeRun {
        wall,
        maint_cost,
        delta_applies,
        full_refreshes,
        sys,
    }
}

fn main() {
    miso_bench::obs_init();
    let smoke = std::env::args().any(|a| a == "--smoke");
    let cfg = if smoke {
        LogsConfig::tiny()
    } else {
        LogsConfig::experiment()
    };
    let corpus = Corpus::generate(&cfg);
    let batch_rows = (cfg.tweets / 50).max(20); // |delta| = 2% of base
    let batches: u64 = if smoke { 2 } else { 4 };
    let budgets = Budgets::new(
        corpus.total_size().scale(2.0),
        corpus.total_size().scale(0.2),
        corpus.total_size().scale(0.02),
    )
    .with_discretization(ByteSize::from_kib(8));
    let catalog = workload_catalog();

    println!(
        "Incremental maintenance vs full recompute ({batches} batches x {batch_rows} tweets, \
         {} base)\n",
        if smoke { "tiny" } else { "experiment" }
    );
    println!(
        "{:>15} {:>10} {:>10} {:>9} {:>8} {:>7}",
        "shape", "delta (s)", "full (s)", "speedup", "applies", "fulls"
    );

    let mut failures = 0u32;
    let mut cfg_values = Vec::new();
    for shape in &SHAPES {
        let queries: Vec<(String, LogicalPlan)> = shape
            .sql
            .iter()
            .map(|sql| {
                let plan = miso_lang::compile(sql, &catalog).expect("shape compiles");
                (shape.name.to_string(), plan)
            })
            .collect();
        let delta_run = run_mode(
            &corpus,
            &cfg,
            &queries,
            SystemConfig::paper_default(budgets).ivm_max_delta_frac,
            batches,
            batch_rows,
            budgets,
        );
        let full_run = run_mode(&corpus, &cfg, &queries, 0.0, batches, batch_rows, budgets);
        if shape.sql.len() > 1 && !delta_run.derived_views() {
            eprintln!("ivmbench: {}: no view over a view was left", shape.name);
            failures += 1;
        }

        // The production mode must actually exercise the delta path, and
        // the forced mode must never touch it.
        if delta_run.delta_applies == 0 {
            eprintln!("ivmbench: {}: no delta applies in delta mode", shape.name);
            failures += 1;
        }
        if full_run.delta_applies != 0 {
            eprintln!(
                "ivmbench: {}: delta applies leaked into full mode",
                shape.name
            );
            failures += 1;
        }

        // Identity: both systems maintained the same views over the same
        // appends; every surviving view must agree on row count and
        // content checksum (the incremental re-stamp vs the full rebuild).
        let mut compared = 0usize;
        for def in delta_run.sys.catalog.defs() {
            let Some(other) = full_run.sys.catalog.get(&def.name) else {
                continue;
            };
            compared += 1;
            if def.rows != other.rows || def.checksum != other.checksum {
                eprintln!(
                    "ivmbench: {}: view {} diverged (rows {} vs {}, checksums {:?} vs {:?})",
                    shape.name, def.name, def.rows, other.rows, def.checksum, other.checksum
                );
                failures += 1;
            }
        }
        if compared == 0 {
            eprintln!("ivmbench: {}: no common views to compare", shape.name);
            failures += 1;
        }

        let speedup = if delta_run.wall > 0.0 {
            full_run.wall / delta_run.wall
        } else {
            f64::INFINITY
        };
        println!(
            "{:>15} {:>10.4} {:>10.4} {:>8.2}x {:>8} {:>7}",
            shape.name,
            delta_run.wall,
            full_run.wall,
            speedup,
            delta_run.delta_applies,
            full_run.full_refreshes
        );
        cfg_values.push(Value::object(vec![
            ("name".into(), Value::str(shape.name)),
            ("base_rows".into(), Value::Int(cfg.tweets as i64)),
            ("delta_rows".into(), Value::Int(batch_rows as i64)),
            ("batches".into(), Value::Int(batches as i64)),
            ("delta_wall_s".into(), Value::Float(delta_run.wall)),
            ("full_wall_s".into(), Value::Float(full_run.wall)),
            ("speedup".into(), Value::Float(speedup)),
            (
                "delta_applies".into(),
                Value::Int(delta_run.delta_applies as i64),
            ),
            (
                "full_refreshes".into(),
                Value::Int(full_run.full_refreshes as i64),
            ),
            (
                "delta_sim_cost_s".into(),
                Value::Float(delta_run.maint_cost),
            ),
            ("full_sim_cost_s".into(), Value::Float(full_run.maint_cost)),
        ]));
    }

    let report = Value::object(vec![
        ("bench".into(), Value::str("ivmbench")),
        (
            "mode".into(),
            Value::str(if smoke { "smoke" } else { "full" }),
        ),
        ("configs".into(), Value::Array(cfg_values)),
    ]);
    if let Err(e) = parse_json(&to_json(&report)) {
        eprintln!("ivmbench: emitted JSON does not round-trip: {e}");
        failures += 1;
    }
    miso_bench::write_report("ivmbench", report);

    if failures > 0 {
        std::process::exit(1);
    }
    println!(
        "\nivmbench: delta-maintained views identical to fully recomputed views on every shape"
    );
}
