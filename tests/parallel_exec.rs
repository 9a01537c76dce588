//! Determinism tests for the miso-vex morsel-parallel execution engine.
//!
//! The contract under test: the worker count is a pure performance lever.
//! Every retained node output — not just the root — must be byte-identical
//! for `MISO_THREADS` ∈ {1, 2, 8}, and identical to the preserved seed
//! row-at-a-time interpreter ([`miso::exec::execute_serial`]), across every
//! operator: scans (including malformed-line skipping), filter, project,
//! join (including NULL-key semantics), aggregate (every accumulator
//! variant), UDFs, sort (including ties), and limit.

use miso::common::{pool, QueryGuard};
use miso::data::{ColBatch, DataType, Field, Row, Schema, Value};
use miso::exec::engine::execute;
use miso::exec::{
    execute_serial, execute_subset_guarded, Execution, MemSource, Retention, Udf, UdfRegistry,
};
use miso::plan::{AggExpr, AggFunc, BinOp, Expr, LogicalPlan, Operator, PlanBuilder};
use std::collections::HashMap;
use std::sync::Arc;

/// Asserts two executions retained the same nodes with identical rows and
/// identical skip accounting.
fn assert_executions_eq(a: &Execution, b: &Execution, what: &str) {
    assert_eq!(a.skipped_lines, b.skipped_lines, "{what}: skipped_lines");
    let mut ids_a: Vec<_> = a.executed_nodes().collect();
    ids_a.sort_unstable();
    let mut ids_b: Vec<_> = b.executed_nodes().collect();
    ids_b.sort_unstable();
    assert_eq!(ids_a, ids_b, "{what}: executed node sets");
    for id in ids_a {
        assert_eq!(a.try_output(id), b.try_output(id), "{what}: node {id}");
        assert_eq!(a.rows_out(id), b.rows_out(id), "{what}: rows_out {id}");
    }
}

/// Runs a plan serially and under the vex engine at 1, 2 and 8 workers,
/// asserting all four executions are byte-identical; and at each width a
/// root-only run (scans fused, intermediates released, as DW runs a plan)
/// must match the serial run at the root, on every `rows_out` and on the
/// skip count.
fn assert_thread_invariant(plan: &LogicalPlan, src: &MemSource, udfs: &UdfRegistry, what: &str) {
    let before = pool::threads();
    pool::set_threads(1);
    let serial = execute_serial(plan, src, udfs).expect("serial run succeeds");
    for t in [1usize, 2, 8] {
        pool::set_threads(t);
        let what = format!("{what} @ {t} threads");
        let vex = execute(plan, src, udfs).expect("vex run succeeds");
        assert_executions_eq(&serial, &vex, &what);
        let root_only = execute_subset_guarded(
            plan,
            None,
            HashMap::new(),
            src,
            udfs,
            Retention::ROOT_ONLY,
            QueryGuard::inert_ref(),
            None,
        )
        .expect("root-only run succeeds");
        let root = plan.root();
        assert_eq!(root_only.skipped_lines, serial.skipped_lines, "{what}");
        assert_eq!(
            root_only.try_output(root),
            serial.try_output(root),
            "{what}"
        );
        for node in plan.nodes() {
            let id = node.id;
            assert_eq!(root_only.rows_out(id), serial.rows_out(id), "{what}: {id}");
        }
    }
    pool::set_threads(before);
}

fn int_field(name: &str) -> Field {
    Field::new(name, DataType::Int)
}

/// ScanLog (with malformed lines) → UDF (filters + reshapes) → Filter →
/// Sort → Limit: the log-side operator chain, spanning several morsels.
#[test]
fn log_pipeline_is_thread_invariant() {
    let mut lines = Vec::new();
    for i in 0..20_000u64 {
        if i % 61 == 17 {
            lines.push(format!("not json #{i}"));
        } else {
            lines.push(format!(
                r#"{{"uid": {}, "score": {}}}"#,
                i % 900,
                (i * 13) % 500
            ));
        }
    }
    let mut src = MemSource::new();
    src.add_log("events", lines);

    let mut udfs = UdfRegistry::new();
    let udf_schema = Schema::new(vec![int_field("uid"), int_field("score")]);
    udfs.register(Udf::new(
        "uid_score",
        udf_schema.clone(),
        Arc::new(|row: &Row| {
            let rec = row.get(0);
            match (
                rec.get_field("uid").and_then(Value::as_i64),
                rec.get_field("score").and_then(Value::as_i64),
            ) {
                // Drop a slice of rows so the UDF's 0-or-1 fanout is on show.
                (Some(uid), Some(score)) if uid % 7 != 3 => {
                    Ok(vec![Row::new(vec![Value::Int(uid), Value::Int(score)])])
                }
                _ => Ok(vec![]),
            }
        }),
    ));

    let mut b = PlanBuilder::new();
    let scan = b
        .add(
            Operator::ScanLog {
                log: "events".into(),
            },
            vec![],
        )
        .unwrap();
    let udf = b
        .add(
            Operator::Udf {
                name: "uid_score".into(),
                output: udf_schema,
            },
            vec![scan],
        )
        .unwrap();
    let filt = b
        .add(
            Operator::Filter {
                predicate: Expr::Binary {
                    op: BinOp::Lt,
                    left: Box::new(Expr::col(1)),
                    right: Box::new(Expr::lit(400i64)),
                },
            },
            vec![udf],
        )
        .unwrap();
    // score has heavy ties (500 distinct values over ~16k rows), so the
    // sort exercises the index tiebreak against the serial stable sort.
    let sort = b
        .add(
            Operator::Sort {
                keys: vec![(1, true), (0, false)],
            },
            vec![filt],
        )
        .unwrap();
    let limit = b.add(Operator::Limit { n: 1000 }, vec![sort]).unwrap();
    let plan = b.finish(limit).unwrap();

    assert_thread_invariant(&plan, &src, &udfs, "log pipeline");

    // The scan under a projection of its fields: the root-only run fuses
    // the two, the keep-all run cannot.
    let mut b = PlanBuilder::new();
    let scan = b.add(
        Operator::ScanLog {
            log: "events".into(),
        },
        vec![],
    );
    let field = |name: &str| (name.to_string(), Expr::col(0).get(name).cast(DataType::Int));
    let exprs = vec![field("uid"), field("score")];
    let proj = b.add(Operator::Project { exprs }, vec![scan.unwrap()]);
    let fused = b.finish(proj.unwrap()).unwrap();
    assert_thread_invariant(&fused, &src, &udfs, "fused log scan");

    // The malformed-line count itself is part of the contract.
    pool::set_threads(8);
    let vex = execute(&plan, &src, &udfs).unwrap();
    assert_eq!(
        vex.skipped_lines,
        (0..20_000u64).filter(|i| i % 61 == 17).count() as u64
    );
    pool::set_threads(1);
}

/// ScanView ×2 → Join → Project → Aggregate with every accumulator variant
/// (Count, CountDistinct, Sum over ints, Sum over floats, Avg, Min, Max).
#[test]
fn join_aggregate_pipeline_is_thread_invariant() {
    let mut src = MemSource::new();
    src.add_view(
        "facts",
        (0..30_000)
            .map(|i| {
                Row::new(vec![
                    Value::Int(i % 1500),
                    Value::Int((i * 31) % 1000),
                    Value::Float((i % 777) as f64 * 0.5),
                ])
            })
            .collect(),
    );
    src.add_view(
        "dims",
        (0..1500)
            .map(|i| {
                Row::new(vec![
                    Value::Int(i),
                    Value::str(format!("seg-{:02}", i % 40)),
                ])
            })
            .collect(),
    );
    let mut b = PlanBuilder::new();
    let facts = b
        .add(
            Operator::ScanView {
                view: "facts".into(),
                schema: Schema::new(vec![
                    int_field("uid"),
                    int_field("val"),
                    Field::new("score", DataType::Float),
                ]),
            },
            vec![],
        )
        .unwrap();
    let dims = b
        .add(
            Operator::ScanView {
                view: "dims".into(),
                schema: Schema::new(vec![int_field("uid"), Field::new("seg", DataType::Str)]),
            },
            vec![],
        )
        .unwrap();
    let join = b
        .add(Operator::Join { on: vec![(0, 0)] }, vec![facts, dims])
        .unwrap();
    let proj = b
        .add(
            Operator::Project {
                exprs: vec![
                    ("seg".into(), Expr::col(4)),
                    ("val".into(), Expr::col(1)),
                    ("score".into(), Expr::col(2)),
                ],
            },
            vec![join],
        )
        .unwrap();
    let agg = b
        .add(
            Operator::Aggregate {
                group_by: vec![0],
                aggs: vec![
                    AggExpr::new(AggFunc::Count, None, "n"),
                    AggExpr::new(AggFunc::CountDistinct, Some(Expr::col(1)), "d"),
                    AggExpr::new(AggFunc::Sum, Some(Expr::col(1)), "total"),
                    AggExpr::new(AggFunc::Sum, Some(Expr::col(2)), "ftotal"),
                    AggExpr::new(AggFunc::Avg, Some(Expr::col(2)), "avg"),
                    AggExpr::new(AggFunc::Min, Some(Expr::col(1)), "lo"),
                    AggExpr::new(AggFunc::Max, Some(Expr::col(1)), "hi"),
                ],
            },
            vec![proj],
        )
        .unwrap();
    let plan = b.finish(agg).unwrap();
    assert_thread_invariant(&plan, &src, &UdfRegistry::new(), "join+aggregate");

    // Twelve-column facts, filtered, then a selective join (one uid in 32
    // has a segment, so probe misses dominate), grouped by the string label.
    let wide = (0..20_000i64).map(|i| {
        let cell = |c: i64| match c {
            0 => i % 10_000,
            1 => (i * 31) % 10_000,
            c => (i * c) % (50 + c),
        };
        Row::new((0..12).map(|c| Value::Int(cell(c))).collect())
    });
    src.add_view("wide", wide.collect());
    let labels = (0..313i64).map(|i| {
        Row::new(vec![
            Value::Int(i * 32),
            Value::str(format!("segment-{:03}", i % 200)),
        ])
    });
    src.add_view("segments", labels.collect());
    let mut b = PlanBuilder::new();
    let [facts, segments] = [
        (
            "wide",
            (0..12).map(|c| int_field(&format!("c{c}"))).collect(),
        ),
        (
            "segments",
            vec![int_field("uid"), Field::new("segment", DataType::Str)],
        ),
    ]
    .map(|(view, fields)| {
        let op = Operator::ScanView {
            view: view.into(),
            schema: Schema::new(fields),
        };
        b.add(op, vec![]).unwrap()
    });
    let (left, right) = (Box::new(Expr::col(1)), Box::new(Expr::lit(5000i64)));
    let predicate = Expr::Binary {
        op: BinOp::Lt,
        left,
        right,
    };
    let filt = b.add(Operator::Filter { predicate }, vec![facts]);
    let join = b.add(
        Operator::Join { on: vec![(0, 0)] },
        vec![filt.unwrap(), segments],
    );
    let col1 = |func, name| AggExpr::new(func, Some(Expr::col(1)), name);
    let aggs = vec![
        AggExpr::new(AggFunc::Count, None, "n"),
        col1(AggFunc::Sum, "total"),
        col1(AggFunc::Min, "lo"),
        col1(AggFunc::Max, "hi"),
    ];
    let agg = b.add(
        Operator::Aggregate {
            group_by: vec![13],
            aggs,
        },
        vec![join.unwrap()],
    );
    let plan = b.finish(agg.unwrap()).unwrap();
    let what = "wide selective join+aggregate";
    assert_thread_invariant(&plan, &src, &UdfRegistry::new(), what);
}

/// NULL join keys never match — on either side, at any thread count.
#[test]
fn null_join_keys_never_match() {
    let mut src = MemSource::new();
    src.add_view(
        "left",
        (0..10_000)
            .map(|i| {
                let key = if i % 5 == 0 {
                    Value::Null
                } else {
                    Value::Int(i % 100)
                };
                Row::new(vec![key, Value::Int(i)])
            })
            .collect(),
    );
    src.add_view(
        "right",
        (0..100)
            .map(|i| {
                let key = if i % 4 == 0 {
                    Value::Null
                } else {
                    Value::Int(i)
                };
                Row::new(vec![key, Value::str(format!("r{i}"))])
            })
            .collect(),
    );
    let schema_l = Schema::new(vec![int_field("k"), int_field("v")]);
    let schema_r = Schema::new(vec![int_field("k"), Field::new("tag", DataType::Str)]);
    let mut b = PlanBuilder::new();
    let l = b
        .add(
            Operator::ScanView {
                view: "left".into(),
                schema: schema_l,
            },
            vec![],
        )
        .unwrap();
    let r = b
        .add(
            Operator::ScanView {
                view: "right".into(),
                schema: schema_r,
            },
            vec![],
        )
        .unwrap();
    let join = b
        .add(Operator::Join { on: vec![(0, 0)] }, vec![l, r])
        .unwrap();
    let plan = b.finish(join).unwrap();
    let udfs = UdfRegistry::new();

    assert_thread_invariant(&plan, &src, &udfs, "null-key join");

    pool::set_threads(8);
    let out = execute(&plan, &src, &udfs).unwrap();
    for row in out.root_rows().unwrap() {
        assert!(!row.get(0).is_null(), "null key leaked into join output");
        assert!(!row.get(2).is_null(), "null key leaked into join output");
    }
    pool::set_threads(1);
}

/// A global (no GROUP BY) aggregate over an empty input still yields one
/// row, identically on every engine.
#[test]
fn empty_global_aggregate_is_thread_invariant() {
    let mut src = MemSource::new();
    src.add_batch("empty", ColBatch::empty(1));
    let mut b = PlanBuilder::new();
    let sv = b
        .add(
            Operator::ScanView {
                view: "empty".into(),
                schema: Schema::new(vec![int_field("v")]),
            },
            vec![],
        )
        .unwrap();
    let agg = b
        .add(
            Operator::Aggregate {
                group_by: vec![],
                aggs: vec![
                    AggExpr::new(AggFunc::Count, None, "n"),
                    AggExpr::new(AggFunc::Sum, Some(Expr::col(0)), "total"),
                    AggExpr::new(AggFunc::Avg, Some(Expr::col(0)), "avg"),
                    AggExpr::new(AggFunc::Min, Some(Expr::col(0)), "lo"),
                ],
            },
            vec![sv],
        )
        .unwrap();
    let plan = b.finish(agg).unwrap();
    assert_thread_invariant(&plan, &src, &UdfRegistry::new(), "empty global aggregate");
}

/// Generated plans: the engine agrees with the serial oracle on random
/// inputs — NULL keys, duplicate keys, empty sides — at a random thread
/// count and under every kind of keep-set. Cases are seeded [`DetRng`]
/// streams; a failing assert names the seed.
mod random_plans {
    use super::*;
    use miso::common::ids::NodeId;
    use miso::common::rng::DetRng;

    const CASES: u64 = 48;

    /// A key from a small domain, so duplicates are the rule: an int three
    /// times in five, NULL or a string otherwise.
    fn arb_key(rng: &mut DetRng) -> Value {
        match rng.below(5) {
            0 => Value::Null,
            1 => Value::str(format!("s{}", rng.below(8))),
            _ => Value::Int(rng.below(100) as i64 - 50),
        }
    }

    /// `[key, small int]` rows: usually a few hundred, now and then none,
    /// now and then enough to span two morsels.
    fn arb_rows(rng: &mut DetRng, max: u64) -> Vec<Row> {
        let n = match rng.below(10) {
            0 => 0,
            1 => 4096 + rng.below(max),
            _ => rng.below(max),
        };
        (0..n)
            .map(|_| Row::new(vec![arb_key(rng), Value::Int(rng.below(7) as i64 - 3)]))
            .collect()
    }

    /// [`arb_rows`] as a view of two columns, however many rows it has.
    fn arb_batch(rng: &mut DetRng, max: u64) -> ColBatch {
        ColBatch::of_rows(2, &arb_rows(rng, max)).expect("two columns each")
    }

    fn scan(b: &mut PlanBuilder, view: &str) -> NodeId {
        let schema = Schema::new(vec![int_field("k"), int_field("v")]);
        let op = Operator::ScanView {
            view: view.into(),
            schema,
        };
        b.add(op, vec![]).unwrap()
    }

    fn binary(op: BinOp, left: Expr, right: Expr) -> Expr {
        Expr::Binary {
            op,
            left: Box::new(left),
            right: Box::new(right),
        }
    }

    /// Runs `plan` serially and then through the engine at a random thread
    /// count, once keeping everything, once only the root, once the root
    /// and one random other node: whatever a run still holds is the
    /// oracle's, and it holds at least what it was asked to keep.
    fn assert_matches_serial(plan: &LogicalPlan, src: &MemSource, rng: &mut DetRng, what: &str) {
        let udfs = UdfRegistry::new();
        let before = pool::threads();
        pool::set_threads(1);
        let serial = execute_serial(plan, src, &udfs).expect("serial run succeeds");
        let threads = 1 + rng.below(8) as usize;
        pool::set_threads(threads);
        let what = format!("{what} @ {threads} threads");
        let vex = execute(plan, src, &udfs).expect("keep-all run succeeds");
        assert_executions_eq(&serial, &vex, &what);
        let interior = plan.nodes()[rng.below(plan.len() as u64) as usize].id;
        for keep in [vec![], vec![interior]] {
            let what = format!("{what}, keep {keep:?}");
            let run = execute_subset_guarded(
                plan,
                None,
                HashMap::new(),
                src,
                &udfs,
                Retention::Only(&keep),
                QueryGuard::inert_ref(),
                None,
            )
            .unwrap_or_else(|e| panic!("{what}: {e}"));
            for node in plan.nodes() {
                let id = node.id;
                assert_eq!(run.rows_out(id), serial.rows_out(id), "{what}: {id}");
                if keep.contains(&id) || id == plan.root() {
                    assert_eq!(run.try_output(id), serial.try_output(id), "{what}: {id}");
                } else if let Some(rows) = run.try_output(id) {
                    assert_eq!(rows, serial.output(id), "{what}: {id}");
                }
            }
        }
        pool::set_threads(before);
    }

    /// An aggregate over bare columns and over expressions — one whose
    /// values are ints or NULL by the key's type, one that is a float.
    fn aggregate(b: &mut PlanBuilder, input: NodeId) -> NodeId {
        let key_plus_v = binary(BinOp::Add, Expr::col(0), Expr::col(1));
        let half_v = binary(BinOp::Mul, Expr::col(1), Expr::lit(0.5f64));
        let op = Operator::Aggregate {
            group_by: vec![0],
            aggs: vec![
                AggExpr::new(AggFunc::Count, None, "n"),
                AggExpr::new(AggFunc::Sum, Some(Expr::col(1)), "total"),
                AggExpr::new(AggFunc::Min, Some(Expr::col(1)), "lo"),
                AggExpr::new(AggFunc::Sum, Some(key_plus_v.clone()), "shifted"),
                AggExpr::new(AggFunc::CountDistinct, Some(key_plus_v), "distinct"),
                AggExpr::new(AggFunc::Avg, Some(half_v.clone()), "half"),
                AggExpr::new(AggFunc::Sum, Some(half_v), "halves"),
            ],
        };
        b.add(op, vec![input]).unwrap()
    }

    /// ScanView → Filter → Aggregate → Sort, and ScanView → Filter → Sort →
    /// Limit → Aggregate, over the same random rows.
    #[test]
    fn random_pipeline_matches_serial() {
        for seed in 0..CASES {
            let mut rng = DetRng::new(0x91e1_0000 + seed);
            let mut src = MemSource::new();
            src.add_batch("t", arb_batch(&mut rng, 600));
            let predicate = binary(BinOp::Lt, Expr::col(1), Expr::lit(rng.below(9) as i64 - 4));
            let limit = rng.below(700);

            let mut b = PlanBuilder::new();
            let sv = scan(&mut b, "t");
            let filt = b
                .add(
                    Operator::Filter {
                        predicate: predicate.clone(),
                    },
                    vec![sv],
                )
                .unwrap();
            let agg = aggregate(&mut b, filt);
            let keys = vec![(1, true)];
            let sort = b.add(Operator::Sort { keys }, vec![agg]).unwrap();
            let plan = b.finish(sort).unwrap();
            assert_matches_serial(&plan, &src, &mut rng, &format!("seed {seed}, agg → sort"));

            let mut b = PlanBuilder::new();
            let sv = scan(&mut b, "t");
            let filt = b.add(Operator::Filter { predicate }, vec![sv]).unwrap();
            // Few distinct sort keys: ties must keep input order.
            let keys = vec![(1, true), (0, false)];
            let sort = b.add(Operator::Sort { keys }, vec![filt]).unwrap();
            let top = b.add(Operator::Limit { n: limit }, vec![sort]).unwrap();
            let agg = aggregate(&mut b, top);
            let plan = b.finish(agg).unwrap();
            assert_matches_serial(&plan, &src, &mut rng, &format!("seed {seed}, sort → agg"));
        }
    }

    /// Random join inputs, on the key alone or on both columns.
    #[test]
    fn random_join_matches_serial() {
        for seed in 0..CASES {
            let mut rng = DetRng::new(0x101e_0000 + seed);
            let mut src = MemSource::new();
            src.add_batch("l", arb_batch(&mut rng, 400));
            src.add_batch("r", arb_batch(&mut rng, 100));
            let mut b = PlanBuilder::new();
            let (l, r) = (scan(&mut b, "l"), scan(&mut b, "r"));
            let on = if rng.chance(0.5) {
                vec![(0, 0)]
            } else {
                vec![(0, 0), (1, 1)]
            };
            let what = format!("seed {seed}, join on {on:?}");
            let join = b.add(Operator::Join { on }, vec![l, r]).unwrap();
            let plan = b.finish(join).unwrap();
            assert_matches_serial(&plan, &src, &mut rng, &what);
        }
    }
}
