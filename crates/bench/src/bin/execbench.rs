//! Execution engine benchmark: seed serial interpreter vs miso-vex.
//!
//! Sweeps rows × pipelines (scan, filter, join, aggregate, join+aggregate)
//! and times each plan under two engines:
//!
//! * **serial** — [`miso_exec::execute_serial`], the preserved seed
//!   row-at-a-time interpreter, pinned to one worker;
//! * **lean** — the morsel-parallel engine as the stores run it, at 1, 2
//!   and 8 workers: a retention set (here the empty one,
//!   `Retention::ROOT_ONLY`; HV passes the nodes it harvests), so scans
//!   fuse and intermediates are released.
//!
//! Every engine run must match the serial oracle row-for-row — an untimed
//! `Retention::All` run across *all* node outputs, the lean run at the root
//! plus per-node `rows_out` counts — at every thread count; any divergence
//! exits non-zero. Timings are printed and land in
//! `results/execbench.report.json`; nothing gates on them (`benchmark/` is
//! the performance gate). `--smoke` runs one small configuration (the CI
//! step).

use miso_bench::row;
use miso_common::guard::QueryGuard;
use miso_common::pool;
use miso_data::json::{parse_json, to_json};
use miso_data::{DataType, Field, Row, Schema, Value};
use miso_exec::engine::{execute, MemSource};
use miso_exec::{execute_serial, execute_subset_guarded, Execution, Retention, UdfRegistry};
use miso_plan::{AggExpr, AggFunc, BinOp, Expr, LogicalPlan, Operator, PlanBuilder};
use std::collections::HashMap;
use std::time::Instant;

/// Thread counts every engine configuration is verified (and timed) at.
const THREADS: [usize; 3] = [1, 2, 8];

struct Pipeline {
    name: &'static str,
    plan: LogicalPlan,
    src: MemSource,
}

fn int_field(name: &str) -> Field {
    Field::new(name, DataType::Int)
}

/// ScanLog → Project over synthetic JSON lines (with malformed lines mixed
/// in so `skipped_lines` determinism is exercised under load).
fn scan_pipeline(rows: usize) -> Pipeline {
    let mut lines = Vec::with_capacity(rows);
    for i in 0..rows {
        if i % 97 == 13 {
            lines.push(format!("### malformed line {i} ###"));
        } else {
            lines.push(format!(
                r#"{{"uid": {}, "city": "city-{:02}", "score": {}}}"#,
                i % 5000,
                i % 23,
                (i * 7) % 100
            ));
        }
    }
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
                    ("city".into(), Expr::col(0).get("city").cast(DataType::Str)),
                    (
                        "score".into(),
                        Expr::col(0).get("score").cast(DataType::Int),
                    ),
                ],
            },
            vec![scan],
        )
        .unwrap();
    Pipeline {
        name: "scan",
        plan: b.finish(proj).unwrap(),
        src,
    }
}

/// Wide fact rows (key, measure, ten payload columns) — the shape that
/// makes full-table materialization expensive for the copying engine.
fn fact_rows(rows: usize, dims: usize) -> Vec<Row> {
    (0..rows)
        .map(|i| {
            let i = i as i64;
            Row::new(vec![
                Value::Int(i % dims as i64),
                Value::Int((i * 31) % 10_000),
                Value::Int(i % 97),
                Value::Int((i * 7) % 365),
                Value::Int(i % 24),
                Value::Int((i * 13) % 1000),
                Value::Int(i % 50),
                Value::Int((i * 3) % 512),
                Value::Int(i % 7),
                Value::Int((i * 11) % 100),
                Value::Int(i % 3),
                Value::Int((i * 17) % 256),
            ])
        })
        .collect()
}

fn facts_schema() -> Schema {
    Schema::new(vec![
        int_field("uid"),
        int_field("val"),
        int_field("p2"),
        int_field("p3"),
        int_field("p4"),
        int_field("p5"),
        int_field("p6"),
        int_field("p7"),
        int_field("p8"),
        int_field("p9"),
        int_field("p10"),
        int_field("p11"),
    ])
}

/// ScanView → Filter (about half the rows survive).
fn filter_pipeline(rows: usize) -> Pipeline {
    let mut src = MemSource::new();
    src.add_view("facts", fact_rows(rows, rows.max(1)));
    let mut b = PlanBuilder::new();
    let sv = b
        .add(
            Operator::ScanView {
                view: "facts".into(),
                schema: facts_schema(),
            },
            vec![],
        )
        .unwrap();
    let filt = b
        .add(
            Operator::Filter {
                predicate: Expr::Binary {
                    op: BinOp::Lt,
                    left: Box::new(Expr::col(1)),
                    right: Box::new(Expr::lit(5000i64)),
                },
            },
            vec![sv],
        )
        .unwrap();
    Pipeline {
        name: "filter",
        plan: b.finish(filt).unwrap(),
        src,
    }
}

/// Selective facts ⋈ dims source plus the shared join subplan: only every
/// 32nd fact uid has a dimension row, so probe misses dominate (the
/// filter-by-dimension shape). Dimension rows carry string segment labels so
/// downstream grouping keys are allocation-heavy, as real workloads' are.
fn join_parts(rows: usize, b: &mut PlanBuilder, src: &mut MemSource) -> miso_common::ids::NodeId {
    let span = (rows / 2).max(64);
    let dims = (span / 32).max(8);
    src.add_view("facts", fact_rows(rows, span));
    src.add_view(
        "dims",
        (0..dims)
            .map(|i| {
                Row::new(vec![
                    Value::Int((i * 32) as i64),
                    Value::str(format!("segment-{:03}", i % 200)),
                ])
            })
            .collect(),
    );
    let facts = b
        .add(
            Operator::ScanView {
                view: "facts".into(),
                schema: facts_schema(),
            },
            vec![],
        )
        .unwrap();
    let dim_scan = b
        .add(
            Operator::ScanView {
                view: "dims".into(),
                schema: Schema::new(vec![int_field("uid"), Field::new("segment", DataType::Str)]),
            },
            vec![],
        )
        .unwrap();
    b.add(Operator::Join { on: vec![(0, 0)] }, vec![facts, dim_scan])
        .unwrap()
}

fn join_pipeline(rows: usize) -> Pipeline {
    let mut src = MemSource::new();
    let mut b = PlanBuilder::new();
    let join = join_parts(rows, &mut b, &mut src);
    Pipeline {
        name: "join",
        plan: b.finish(join).unwrap(),
        src,
    }
}

/// ScanView → Aggregate with a string group key and four aggregates. All
/// aggregate inputs are integers, so serial and vex outputs are bit-exact
/// regardless of accumulation order.
fn aggregate_pipeline(rows: usize) -> Pipeline {
    let mut src = MemSource::new();
    src.add_view(
        "events",
        (0..rows)
            .map(|i| {
                Row::new(vec![
                    Value::str(format!("segment-{:03}", i % 200)),
                    Value::Int(((i * 13) % 10_000) as i64),
                ])
            })
            .collect(),
    );
    let mut b = PlanBuilder::new();
    let sv = b
        .add(
            Operator::ScanView {
                view: "events".into(),
                schema: Schema::new(vec![Field::new("segment", DataType::Str), int_field("val")]),
            },
            vec![],
        )
        .unwrap();
    let agg = b
        .add(
            Operator::Aggregate {
                group_by: vec![0],
                aggs: agg_exprs(1),
            },
            vec![sv],
        )
        .unwrap();
    Pipeline {
        name: "aggregate",
        plan: b.finish(agg).unwrap(),
        src,
    }
}

fn agg_exprs(val_col: usize) -> Vec<AggExpr> {
    vec![
        AggExpr::new(AggFunc::Count, None, "n"),
        AggExpr::new(AggFunc::Sum, Some(Expr::col(val_col)), "total"),
        AggExpr::new(AggFunc::Min, Some(Expr::col(val_col)), "lo"),
        AggExpr::new(AggFunc::Max, Some(Expr::col(val_col)), "hi"),
    ]
}

/// The acceptance pipeline: facts ⋈ dims on uid, then group the joined rows
/// by dimension segment with COUNT/SUM/MIN/MAX over integer values.
fn join_aggregate_pipeline(rows: usize) -> Pipeline {
    let mut src = MemSource::new();
    let mut b = PlanBuilder::new();
    let join = join_parts(rows, &mut b, &mut src);
    // Joined schema: facts (12 columns) ++ dims.uid, dims.segment.
    let agg = b
        .add(
            Operator::Aggregate {
                group_by: vec![13],
                aggs: agg_exprs(1),
            },
            vec![join],
        )
        .unwrap();
    Pipeline {
        name: "join+aggregate",
        plan: b.finish(agg).unwrap(),
        src,
    }
}

/// Best-of-`iters` wall time plus the last result.
fn time_best<T>(iters: usize, mut f: impl FnMut() -> T) -> (f64, T) {
    let mut best = f64::INFINITY;
    let mut out = None;
    for _ in 0..iters {
        let t0 = Instant::now();
        let v = f();
        best = best.min(t0.elapsed().as_secs_f64());
        out = Some(v);
    }
    (best, out.expect("iters >= 1"))
}

/// Row-for-row comparison across every node output both executions retain.
fn executions_match(a: &Execution, b: &Execution) -> bool {
    if a.skipped_lines != b.skipped_lines {
        return false;
    }
    let mut ids: Vec<_> = a.executed_nodes().collect();
    ids.sort_unstable();
    let mut ids_b: Vec<_> = b.executed_nodes().collect();
    ids_b.sort_unstable();
    ids == ids_b && ids.iter().all(|&id| a.try_output(id) == b.try_output(id))
}

/// A root-only execution against the serial oracle: identical root rows,
/// identical skipped-line count, identical per-node `rows_out` counts.
fn lean_matches(serial: &Execution, lean: &Execution) -> bool {
    serial.skipped_lines == lean.skipped_lines
        && serial.root_rows().ok() == lean.root_rows().ok()
        && serial
            .executed_nodes()
            .all(|id| serial.rows_out(id) == lean.rows_out(id))
}

/// One root-only-retention run.
fn run_lean(p: &Pipeline, udfs: &UdfRegistry) -> Execution {
    execute_subset_guarded(
        &p.plan,
        None,
        HashMap::new(),
        &p.src,
        udfs,
        Retention::ROOT_ONLY,
        QueryGuard::inert_ref(),
    )
    .expect("lean run succeeds")
}

fn main() {
    miso_bench::obs_init();
    let smoke = std::env::args().any(|a| a == "--smoke");
    let env_threads = pool::threads();
    let iters = if smoke { 1 } else { 5 };
    let rows_list: &[usize] = if smoke { &[20_000] } else { &[50_000, 200_000] };

    let widths = [15usize, 9, 10, 10, 9];
    println!(
        "=== Execution engines: serial (seed interpreter, 1 thread) vs lean \
         (morsel-parallel), best of {iters} ==="
    );
    println!(
        "{}",
        row(
            &["pipeline", "rows", "serial_s", "lean8_s", "speedup"].map(String::from),
            &widths,
        )
    );

    let mut failures = 0usize;
    let mut cfg_values = Vec::new();
    for &rows in rows_list {
        let pipelines = [
            scan_pipeline(rows),
            filter_pipeline(rows),
            join_pipeline(rows),
            aggregate_pipeline(rows),
            join_aggregate_pipeline(rows),
        ];
        for p in &pipelines {
            let udfs = UdfRegistry::new();
            pool::set_threads(1);
            let (serial_s, serial) = time_best(iters, || {
                execute_serial(&p.plan, &p.src, &udfs).expect("serial run succeeds")
            });
            let mut lean_s = Vec::with_capacity(THREADS.len());
            for &t in &THREADS {
                pool::set_threads(t);
                let full = execute(&p.plan, &p.src, &udfs).expect("vex run succeeds");
                if !executions_match(&serial, &full) {
                    eprintln!(
                        "execbench: {} rows={rows} threads={t}: full-retention output \
                         diverges from serial",
                        p.name
                    );
                    failures += 1;
                }
                let (ls, lean) = time_best(iters, || run_lean(p, &udfs));
                if !lean_matches(&serial, &lean) {
                    eprintln!(
                        "execbench: {} rows={rows} threads={t}: lean output diverges \
                         from serial",
                        p.name
                    );
                    failures += 1;
                }
                lean_s.push(ls);
            }
            let last = THREADS.len() - 1;
            let speedup = serial_s / lean_s[last].max(1e-12);
            println!(
                "{}",
                row(
                    &[
                        p.name.to_string(),
                        rows.to_string(),
                        format!("{serial_s:.4}"),
                        format!("{:.4}", lean_s[last]),
                        format!("{speedup:.2}x"),
                    ],
                    &widths,
                )
            );
            cfg_values.push(Value::object(vec![
                ("pipeline".into(), Value::str(p.name)),
                ("rows".into(), Value::Int(rows as i64)),
                ("root_rows".into(), {
                    Value::Int(serial.root_rows().map(|r| r.len() as i64).unwrap_or(-1))
                }),
                ("serial_s".into(), Value::Float(serial_s)),
                (
                    "lean_s".into(),
                    Value::Array(lean_s.iter().map(|&s| Value::Float(s)).collect()),
                ),
                (
                    "vex_threads".into(),
                    Value::Array(THREADS.iter().map(|&t| Value::Int(t as i64)).collect()),
                ),
                ("speedup".into(), Value::Float(speedup)),
            ]));
        }
    }
    // Leave the pool as the environment configured it.
    pool::set_threads(env_threads);

    let report = Value::object(vec![
        ("bench".into(), Value::str("execbench")),
        (
            "mode".into(),
            Value::str(if smoke { "smoke" } else { "full" }),
        ),
        ("env_threads".into(), Value::Int(env_threads as i64)),
        ("iters".into(), Value::Int(iters as i64)),
        ("pool".into(), miso_bench::pool_value()),
        ("configs".into(), Value::Array(cfg_values)),
    ]);
    if let Err(e) = parse_json(&to_json(&report)) {
        eprintln!("execbench: emitted JSON does not round-trip: {e}");
        failures += 1;
    }
    miso_bench::write_report("execbench", report);

    if failures > 0 {
        std::process::exit(1);
    }
    println!("execbench: keep-all and root-only output identical to serial at every thread count");
}
