//! How fast a filter selects: the four predicate shapes of the workload's
//! twitter filters, each a `ScanView → Filter` plan over the scale-1 seed-7
//! twitter columns (40 000 rows) run by the engine on one thread. The shapes
//! are timed in turn, repetition after repetition, in one process, so that a
//! noisy moment is shared; each line prints the median and quartiles in ms.
//!
//! Run: `cargo test --release --test filter_speed -- --ignored --nocapture`.

use miso::common::pool;
use miso::data::logs::{Corpus, LogsConfig};
use miso::data::{DataType, Field, Schema};
use miso::exec::col::{columnize, field_columns};
use miso::exec::engine::execute;
use miso::exec::{FusedField, MemSource, UdfRegistry};
use miso::plan::{BinOp, Expr, LogicalPlan, Operator, PlanBuilder};
use std::hint::black_box;
use std::time::Instant;

const REPS: usize = 31;

/// Median, first and third quartile of `xs`.
fn quartiles(mut xs: Vec<f64>) -> [f64; 3] {
    xs.sort_by(f64::total_cmp);
    let at = |q: f64| xs[((xs.len() - 1) as f64 * q).round() as usize];
    [at(0.5), at(0.25), at(0.75)]
}

fn func(name: &str, args: Vec<Expr>) -> Expr {
    Expr::Func {
        name: name.into(),
        args,
    }
}

fn gt(col: usize, x: i64) -> Expr {
    Expr::Binary {
        op: BinOp::Gt,
        left: Box::new(Expr::col(col)),
        right: Box::new(Expr::lit(x)),
    }
}

/// `ScanView(t) → Filter(predicate)`.
fn plan(predicate: Expr) -> LogicalPlan {
    let mut b = PlanBuilder::new();
    let schema = Schema::new(vec![
        Field::new("hashtags", DataType::Json),
        Field::new("followers", DataType::Int),
        Field::new("text", DataType::Str),
        Field::new("retweets", DataType::Int),
    ]);
    let scan = Operator::ScanView {
        view: "t".into(),
        schema,
    };
    let scan = b.add(scan, vec![]).unwrap();
    let filter = b.add(Operator::Filter { predicate }, vec![scan]).unwrap();
    b.finish(filter).unwrap()
}

#[test]
#[ignore = "a measurement: run with --release -- --ignored --nocapture"]
fn filter_speed() {
    let corpus = Corpus::generate(&LogsConfig {
        seed: 7,
        ..LogsConfig::experiment()
    });
    let field = |key, ty| FusedField { key, ty };
    let fields = [
        field("hashtags", None),
        field("followers", Some(DataType::Int)),
        field("text", Some(DataType::Str)),
        field("retweets", Some(DataType::Int)),
    ];
    let raw = columnize(&corpus.twitter.lines).expect("no guard");
    let mut src = MemSource::new();
    src.add_batch("t", field_columns(&raw, &fields));
    let (hashtags, followers, text, retweets) = (0, 1, 2, 3);
    let pizza = func(
        "array_contains",
        vec![Expr::col(hashtags), Expr::lit("pizza")],
    );
    let coffee = func("contains", vec![Expr::col(text), Expr::lit("coffee")]);
    let shapes = [
        ("A1 array_contains AND >", pizza.and(gt(followers, 1000))),
        ("A5 contains", coffee.clone()),
        ("A5 contains AND >", coffee.and(gt(retweets, 10))),
        ("A4 >", gt(followers, 30000)),
    ];
    let plans: Vec<LogicalPlan> = shapes.iter().map(|(_, e)| plan(e.clone())).collect();
    let udfs = UdfRegistry::new();
    let was = pool::threads();
    pool::set_threads(1);
    let mut ms = vec![Vec::with_capacity(REPS); plans.len()];
    let mut rows = vec![0; plans.len()];
    for _ in 0..REPS {
        for (s, plan) in plans.iter().enumerate() {
            let start = Instant::now();
            let run = black_box(execute(black_box(plan), &src, &udfs).unwrap());
            ms[s].push(start.elapsed().as_secs_f64() * 1e3);
            rows[s] = run.rows_out(plan.root()).unwrap_or(0);
        }
    }
    pool::set_threads(was);
    println!("shape                      rows in  rows out   ms median [q1, q3]");
    for (s, (name, _)) in shapes.iter().enumerate() {
        let [mid, q1, q3] = quartiles(std::mem::take(&mut ms[s]));
        println!(
            "{name:<25} {:>8} {:>9} {mid:>7.3} [{q1:.3}, {q3:.3}]",
            corpus.twitter.lines.len(),
            rows[s],
        );
    }
}
