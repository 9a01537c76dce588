//! Execution engine benchmark: seed serial interpreter vs miso-vex.
//!
//! Sweeps rows × pipelines (scan, filter, join, aggregate, join+aggregate)
//! and times each plan under three engines:
//!
//! * **serial** — [`miso_exec::execute_serial`], the preserved seed
//!   row-at-a-time interpreter, pinned to one worker;
//! * **row** — the morsel-parallel engine in row mode
//!   (`Retention::ROOT_ONLY` with `columnar: false`), at 1, 2 and 8 workers;
//! * **col** — the same engine in its production configuration: a
//!   retention set (here the empty one, `Retention::ROOT_ONLY`; HV passes
//!   the nodes it harvests) with the columnar batch path following the
//!   `MISO_COL` toggle (default on), so `MISO_COL=0 execbench` times row
//!   mode twice and still verifies identity.
//!
//! Every engine run must match the serial oracle row-for-row — the
//! `Retention::All` run across *all* node outputs, the lean runs at the root
//! plus per-node `rows_out` counts — and identical to itself at every
//! thread count; any divergence exits non-zero. A counting global
//! allocator reports bytes allocated by one row-mode vs one columnar run,
//! and the `exec.col_batches` / `exec.col_fallback_rows` counter pair is
//! sampled per pipeline. The full run writes `BENCH_exec.json` at the repo
//! root plus `results/execbench.report.json` and enforces per-pipeline
//! minimum speedups at the largest row count; `--smoke` runs one small
//! configuration, writes the run report only, and leaves the committed
//! baseline untouched (the CI record-only step).

use miso_bench::row;
use miso_common::pool;
use miso_data::json::{parse_json, to_json};
use miso_data::{DataType, Field, Row, Schema, Value};
use miso_exec::engine::{execute, execute_subset_opts, MemSource};
use miso_exec::{execute_serial, ExecOptions, Execution, Retention, UdfRegistry};
use miso_plan::{AggExpr, AggFunc, BinOp, Expr, LogicalPlan, Operator, PlanBuilder};
use std::alloc::{GlobalAlloc, Layout, System};
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering::Relaxed};
use std::time::Instant;

/// Thread counts every engine configuration is verified (and timed) at.
const THREADS: [usize; 3] = [1, 2, 8];

/// Per-pipeline minimum speedups (serial / columnar-at-8-workers) enforced
/// by full runs at the largest row count, when the columnar path is on.
const MIN_SPEEDUP: [(&str, f64); 5] = [
    ("scan", 3.0),
    ("filter", 2.5),
    ("join", 3.0),
    ("aggregate", 2.0),
    ("join+aggregate", 3.0),
];

/// Counting wrapper around the system allocator so row-mode and columnar
/// runs can be compared on allocation volume, not just wall time.
struct CountingAlloc;

static ALLOC_BYTES: AtomicU64 = AtomicU64::new(0);

// SAFETY: delegates every operation to `System`; the counter is a plain
// relaxed atomic with no allocation of its own.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOC_BYTES.fetch_add(layout.size() as u64, Relaxed);
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        ALLOC_BYTES.fetch_add(layout.size() as u64, Relaxed);
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOC_BYTES.fetch_add(new_size as u64, Relaxed);
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

fn alloc_bytes() -> u64 {
    ALLOC_BYTES.load(Relaxed)
}

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

/// One root-only-retention run with the columnar path explicitly on or off.
fn run_lean(p: &Pipeline, udfs: &UdfRegistry, columnar: bool) -> Execution {
    execute_subset_opts(
        &p.plan,
        None,
        HashMap::new(),
        &p.src,
        udfs,
        ExecOptions {
            retain: Retention::ROOT_ONLY,
            columnar,
        },
    )
    .expect("lean run succeeds")
}

fn main() {
    if !miso_bench::obs_init() {
        // Run reports include the exec.* counters, so metrics must flow
        // even when MISO_OBS is unset.
        miso_obs::init(miso_obs::ObsConfig::ring(4096));
    }
    let smoke = std::env::args().any(|a| a == "--smoke");
    let env_threads = pool::threads();
    let col_on = miso_exec::col::enabled();
    let iters = if smoke { 1 } else { 5 };
    let rows_list: &[usize] = if smoke { &[20_000] } else { &[50_000, 200_000] };
    let max_rows = *rows_list.last().expect("rows_list non-empty");

    let widths = [15usize, 9, 10, 10, 10, 9, 8];
    println!(
        "=== Execution engines: serial (seed interpreter, 1 thread) vs row/col \
         (morsel-parallel, columnar {}), best of {iters} ===",
        if col_on { "on" } else { "off" }
    );
    println!(
        "{}",
        row(
            &["pipeline", "rows", "serial_s", "row8_s", "col8_s", "speedup", "allocx"]
                .map(String::from),
            &widths,
        )
    );

    let mut failures = 0usize;
    let mut cfg_values = Vec::new();
    let mut gate: Vec<(&'static str, f64)> = Vec::new();
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
            let mut row_s = Vec::with_capacity(THREADS.len());
            let mut col_s = Vec::with_capacity(THREADS.len());
            for &t in &THREADS {
                pool::set_threads(t);
                // Full retention verifies every node output against serial
                // (the columnar path pivots intermediates back to rows only
                // in root-only mode, so this run also covers the row engine).
                let full = execute(&p.plan, &p.src, &udfs).expect("vex run succeeds");
                if !executions_match(&serial, &full) {
                    eprintln!(
                        "execbench: {} rows={rows} threads={t}: full-retention output \
                         diverges from serial",
                        p.name
                    );
                    failures += 1;
                }
                let (rs, row_exec) = time_best(iters, || run_lean(p, &udfs, false));
                let (cs, col_exec) = time_best(iters, || run_lean(p, &udfs, col_on));
                if !lean_matches(&serial, &row_exec) {
                    eprintln!(
                        "execbench: {} rows={rows} threads={t}: row-mode output diverges \
                         from serial",
                        p.name
                    );
                    failures += 1;
                }
                if !lean_matches(&serial, &col_exec) {
                    eprintln!(
                        "execbench: {} rows={rows} threads={t}: columnar output diverges \
                         from serial",
                        p.name
                    );
                    failures += 1;
                }
                row_s.push(rs);
                col_s.push(cs);
            }
            // Allocation + columnar-counter sample: one run of each engine
            // at the widest worker count.
            miso_obs::reset_metrics();
            let a0 = alloc_bytes();
            let _ = run_lean(p, &udfs, false);
            let alloc_row = alloc_bytes() - a0;
            let a1 = alloc_bytes();
            let _ = run_lean(p, &udfs, col_on);
            let alloc_col = alloc_bytes() - a1;
            let counters = miso_obs::snapshot().counters;
            let col_batches = counters.get("exec.col_batches").copied().unwrap_or(0);
            let col_fallback = counters.get("exec.col_fallback_rows").copied().unwrap_or(0);

            let last = THREADS.len() - 1;
            let speedup = serial_s / col_s[last].max(1e-12);
            let row_speedup = serial_s / row_s[last].max(1e-12);
            let allocx = alloc_row as f64 / (alloc_col.max(1)) as f64;
            if rows == max_rows {
                gate.push((p.name, speedup));
            }
            println!(
                "{}",
                row(
                    &[
                        p.name.to_string(),
                        rows.to_string(),
                        format!("{serial_s:.4}"),
                        format!("{:.4}", row_s[last]),
                        format!("{:.4}", col_s[last]),
                        format!("{speedup:.2}x"),
                        format!("{allocx:.2}x"),
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
                ("columnar".into(), Value::Bool(col_on)),
                ("serial_s".into(), Value::Float(serial_s)),
                (
                    "row_s".into(),
                    Value::Array(row_s.iter().map(|&s| Value::Float(s)).collect()),
                ),
                (
                    "col_s".into(),
                    Value::Array(col_s.iter().map(|&s| Value::Float(s)).collect()),
                ),
                (
                    "vex_threads".into(),
                    Value::Array(THREADS.iter().map(|&t| Value::Int(t as i64)).collect()),
                ),
                ("speedup".into(), Value::Float(speedup)),
                ("row_speedup".into(), Value::Float(row_speedup)),
                ("alloc_row_bytes".into(), Value::Int(alloc_row as i64)),
                ("alloc_col_bytes".into(), Value::Int(alloc_col as i64)),
                ("col_batches".into(), Value::Int(col_batches as i64)),
                ("col_fallback_rows".into(), Value::Int(col_fallback as i64)),
            ]));
        }
    }
    // Leave the pool as the environment configured it.
    pool::set_threads(env_threads);

    // Acceptance gates (full runs with the columnar path on): every
    // pipeline must clear its minimum speedup at the largest row count.
    if !smoke && col_on {
        for (name, floor) in MIN_SPEEDUP {
            match gate.iter().find(|(n, _)| *n == name) {
                Some(&(_, s)) if s >= floor => {}
                Some(&(_, s)) => {
                    eprintln!(
                        "execbench: {name} speedup {s:.2}x below the {floor}x acceptance bar"
                    );
                    failures += 1;
                }
                None => {
                    eprintln!("execbench: {name} pipeline never ran");
                    failures += 1;
                }
            }
        }
    }

    let report = Value::object(vec![
        ("bench".into(), Value::str("execbench")),
        (
            "mode".into(),
            Value::str(if smoke { "smoke" } else { "full" }),
        ),
        ("env_threads".into(), Value::Int(env_threads as i64)),
        ("columnar".into(), Value::Bool(col_on)),
        ("iters".into(), Value::Int(iters as i64)),
        ("configs".into(), Value::Array(cfg_values)),
    ]);
    let text = to_json(&report);
    if let Err(e) = parse_json(&text) {
        eprintln!("execbench: emitted JSON does not round-trip: {e}");
        failures += 1;
    }
    if !smoke {
        if let Err(e) = std::fs::write("BENCH_exec.json", format!("{text}\n")) {
            eprintln!("execbench: cannot write BENCH_exec.json: {e}");
            failures += 1;
        }
    }
    miso_bench::write_report("execbench", report);

    if failures > 0 {
        std::process::exit(1);
    }
    println!("execbench: row and columnar output identical to serial at every thread count");
}
