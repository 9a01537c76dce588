//! Generated-input tests for the IVM delta algebra: folding a random delta
//! into state built from a random base must be indistinguishable from
//! replaying everything at once — against both [`miso_exec::AggState`]'s own
//! full replay and the serial interpreter oracle — for every base/delta
//! split, NULL group keys and NULL agg inputs included. A second pair of
//! properties checks the append path's prefix-stability invariants:
//! per-record plans and hash joins over a fixed build side emit
//! `f(base) ++ f(delta)` for `f(base ++ delta)`.
//!
//! Cases are seeded [`DetRng`] streams; a failing assert names the seed.

use miso_common::rng::DetRng;
use miso_data::{checksum_batch, ColBatch, DataType, Field, Row, RowSetDigest, Schema, Value};
use miso_exec::engine::execute;
use miso_exec::{execute_serial, AggApplied, AggState, MemSource, UdfRegistry};
use miso_plan::{AggExpr, AggFunc, BinOp, Expr, LogicalPlan, Operator, PlanBuilder};

const CASES: u64 = 128;

/// Up to `max` rows `[key, value]`: keys NULL, one of six ints or one of
/// three strings; values NULL or a small int.
fn arb_rows(rng: &mut DetRng, max: u64) -> Vec<Row> {
    (0..rng.below(max + 1))
        .map(|_| {
            let key = match rng.below(3) {
                0 => Value::Null,
                1 => Value::Int(rng.below(6) as i64),
                _ => Value::str(["a", "b", "c"][rng.below(3) as usize]),
            };
            let val = if rng.chance(0.5) {
                Value::Null
            } else {
                Value::Int(rng.below(200) as i64 - 100)
            };
            Row::new(vec![key, val])
        })
        .collect()
}

/// Every accumulator variant whose fold needs no float typing.
fn aggs() -> Vec<AggExpr> {
    vec![
        AggExpr::new(AggFunc::Count, None, "n"),
        AggExpr::new(AggFunc::CountDistinct, Some(Expr::col(1)), "d"),
        AggExpr::new(AggFunc::Sum, Some(Expr::col(1)), "s"),
        AggExpr::new(AggFunc::Min, Some(Expr::col(1)), "lo"),
        AggExpr::new(AggFunc::Max, Some(Expr::col(1)), "hi"),
    ]
}

fn scan(b: &mut PlanBuilder, view: &str) -> miso_common::ids::NodeId {
    let schema = Schema::new(vec![
        Field::new("k", DataType::Str),
        Field::new("v", DataType::Int),
    ]);
    b.add(
        Operator::ScanView {
            view: view.into(),
            schema,
        },
        vec![],
    )
    .unwrap()
}

fn agg_plan() -> LogicalPlan {
    let mut b = PlanBuilder::new();
    let sv = scan(&mut b, "base");
    let agg = b
        .add(
            Operator::Aggregate {
                group_by: vec![0],
                aggs: aggs(),
            },
            vec![sv],
        )
        .unwrap();
    b.finish(agg).unwrap()
}

fn filter_plan() -> LogicalPlan {
    let mut b = PlanBuilder::new();
    let sv = scan(&mut b, "base");
    let predicate = Expr::Binary {
        op: BinOp::Gt,
        left: Box::new(Expr::col(1)),
        right: Box::new(Expr::lit(0i64)),
    };
    let filt = b.add(Operator::Filter { predicate }, vec![sv]).unwrap();
    b.finish(filt).unwrap()
}

fn join_plan() -> LogicalPlan {
    let mut b = PlanBuilder::new();
    let (l, r) = (scan(&mut b, "base"), scan(&mut b, "build"));
    let join = b
        .add(Operator::Join { on: vec![(0, 0)] }, vec![l, r])
        .unwrap();
    b.finish(join).unwrap()
}

fn run_serial(plan: &LogicalPlan, rows: &[Row]) -> Vec<Row> {
    let mut src = MemSource::new();
    src.add_batch("base", batch(rows));
    let exec = execute_serial(plan, &src, &UdfRegistry::new()).unwrap();
    exec.root_rows().unwrap().to_vec()
}

/// `rows` and the split point of its base / delta halves.
/// `[key, value]` rows as the batch a store would hold them in.
fn batch(rows: &[Row]) -> ColBatch {
    ColBatch::of_rows(2, rows).expect("two columns each")
}

/// The stored view `view` patched with a fold's changed groups, as rows;
/// the digest must follow the patch.
fn patch(view: ColBatch, applied: AggApplied) -> Vec<Row> {
    let mut digest = RowSetDigest::from_batch(&view);
    let (patched, _) = applied.patch(&view, &[], &mut digest).unwrap();
    assert_eq!(digest.finish(), checksum_batch(&patched));
    patched.to_rows()
}

fn arb_split(rng: &mut DetRng, max: u64) -> (Vec<Row>, usize) {
    let rows = arb_rows(rng, max);
    let split = rng.below(rows.len() as u64 + 1) as usize;
    (rows, split)
}

/// Fold(base) + delta == replay(base ++ delta) == serial oracle, for every
/// split point — and the `AggApplied` patch list applied to the base output
/// reconstructs the same rows.
#[test]
fn delta_fold_matches_full_replay_and_serial() {
    let a = aggs();
    for seed in 0..CASES {
        let (rows, split) = arb_split(&mut DetRng::new(0x1f01d + seed), 60);
        let (base, delta) = rows.split_at(split);
        let mut state = AggState::build(&batch(base), &[0], &a).unwrap();
        let patched = patch(
            state.output(),
            state.apply(&batch(delta), &[0], &a).unwrap(),
        );

        let what = format!("seed {seed}, split {split}");
        let folded = state.output().to_rows();
        let full = AggState::build(&batch(&rows), &[0], &a)
            .unwrap()
            .output()
            .to_rows();
        assert_eq!(folded, full, "{what}: fold diverged from full replay");
        assert_eq!(patched, full, "{what}: patch list diverged from replay");
        assert_eq!(folded, run_serial(&agg_plan(), &rows), "{what}: vs serial");
    }
}

/// Up to `max` rows `[key, value]` of floats that are equal without being
/// identical — NaN and −NaN, −0.0 and +0.0 — and NULLs, for keys and for the
/// values `MIN` / `MAX` tie on.
fn arb_float_rows(rng: &mut DetRng, max: u64) -> Vec<Row> {
    let pick = |rng: &mut DetRng| match rng.below(6) {
        0 => Value::Null,
        1 => Value::Float(f64::NAN),
        2 => Value::Float(-f64::NAN),
        3 => Value::Float(-0.0),
        4 => Value::Float(0.0),
        _ => Value::Float(rng.below(3) as f64),
    };
    (0..rng.below(max + 1))
        .map(|_| Row::new(vec![pick(rng), pick(rng)]))
        .collect()
}

/// Rows as text with floats by bit pattern: `Value` equality folds NaNs and
/// signed zeros together, and which one a group keeps is the claim.
fn bits(rows: &[Row]) -> Vec<String> {
    let text = |v: &Value| match v {
        Value::Float(f) => format!("f{:016x}", f.to_bits()),
        other => format!("{other:?}"),
    };
    let row = |r: &Row| r.values().iter().map(text).collect::<Vec<_>>().join("|");
    rows.iter().map(row).collect()
}

/// NaN, −0.0 / +0.0 and NULL group keys fold as they replay and as the
/// serial interpreter groups them, bit for bit: a group keeps its first-seen
/// key, and `MIN` / `MAX` the first of tied values, whichever side of the
/// split they were seen on.
#[test]
fn nan_signed_zero_and_null_keys_fold_bit_for_bit() {
    let a = vec![
        AggExpr::new(AggFunc::Count, None, "n"),
        AggExpr::new(AggFunc::Min, Some(Expr::col(1)), "lo"),
        AggExpr::new(AggFunc::Max, Some(Expr::col(1)), "hi"),
        AggExpr::new(AggFunc::CountDistinct, Some(Expr::col(1)), "d"),
    ];
    let mut b = PlanBuilder::new();
    let sv = scan(&mut b, "base");
    let group_by = vec![0];
    let op = Operator::Aggregate {
        group_by: group_by.clone(),
        aggs: a.clone(),
    };
    let agg = b.add(op, vec![sv]).unwrap();
    let plan = b.finish(agg).unwrap();
    for seed in 0..CASES {
        let mut rng = DetRng::new(0xf1a7 + seed);
        let rows = arb_float_rows(&mut rng, 60);
        let split = rng.below(rows.len() as u64 + 1) as usize;
        let (base, delta) = rows.split_at(split);
        let mut state = AggState::build(&batch(base), &group_by, &a).unwrap();
        let patched = patch(
            state.output(),
            state.apply(&batch(delta), &group_by, &a).unwrap(),
        );
        let what = format!("seed {seed}, split {split}");
        let full = AggState::build(&batch(&rows), &group_by, &a).unwrap();
        let serial = bits(&run_serial(&plan, &rows));
        assert_eq!(
            bits(&state.output().to_rows()),
            serial,
            "{what}: fold vs serial"
        );
        assert_eq!(bits(&patched), serial, "{what}: patch list vs serial");
        assert_eq!(
            bits(&full.output().to_rows()),
            serial,
            "{what}: replay vs serial"
        );
    }
}

/// Per-record plans distribute over append: running the plan on
/// `base ++ delta` equals the concatenation of the per-part runs. This is
/// the invariant the IVM append path (and the stored-view prefix it
/// extends) relies on.
#[test]
fn filter_output_is_prefix_stable_under_append() {
    let plan = filter_plan();
    for seed in 0..CASES {
        let (rows, split) = arb_split(&mut DetRng::new(0xf117e4 + seed), 80);
        let mut parts = run_serial(&plan, &rows[..split]);
        parts.extend(run_serial(&plan, &rows[split..]));
        assert_eq!(
            run_serial(&plan, &rows),
            parts,
            "seed {seed}, split {split}"
        );
    }
}

/// Hash joins against a fixed build side are prefix-stable in the probe
/// input, NULL keys included (they never match): probing with
/// `base ++ delta` equals probing each part and concatenating.
#[test]
fn join_probe_is_prefix_stable_under_append() {
    let plan = join_plan();
    for seed in 0..CASES {
        let mut rng = DetRng::new(0x101e + seed);
        let (left, split) = arb_split(&mut rng, 50);
        let right = arb_rows(&mut rng, 30);
        let probe = |left: &[Row]| {
            let mut src = MemSource::new();
            src.add_batch("base", batch(left));
            src.add_batch("build", batch(&right));
            let exec = execute(&plan, &src, &UdfRegistry::new()).unwrap();
            exec.root_rows().unwrap().to_vec()
        };
        let mut parts = probe(&left[..split]);
        parts.extend(probe(&left[split..]));
        assert_eq!(probe(&left), parts, "seed {seed}, split {split}");
    }
}
