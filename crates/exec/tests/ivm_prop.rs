//! Property tests for the IVM delta algebra: folding a random delta into
//! state built from a random base must be indistinguishable from replaying
//! everything at once — against both [`miso_exec::AggState`]'s own full
//! replay and the serial interpreter oracle — for every base/delta split,
//! NULL group keys and NULL agg inputs included. A second pair of
//! properties checks the append path's prefix-stability invariants:
//! per-record plans and hash joins over a fixed build side emit
//! `f(base) ++ f(delta)` for `f(base ++ delta)`.
//!
//! Gated behind the `extern-deps` marker feature: the sanctioned offline
//! crate set has no `proptest`, so the default build compiles this file
//! to nothing. Enable with
//! `cargo test -p miso-exec --features extern-deps` after adding
//! `proptest` as a local dev-dependency. The always-on unit tests in
//! `src/ivm.rs` cover the same properties over hand-built splits.

#[cfg(feature = "extern-deps")]
mod real {
    use miso_data::{DataType, Field, Row, Schema, Value};
    use miso_exec::bench_hooks::hash_join_vex;
    use miso_exec::{execute_serial, AggState, MemSource, UdfRegistry};
    use miso_plan::{AggExpr, AggFunc, BinOp, Expr, LogicalPlan, Operator, PlanBuilder};
    use proptest::prelude::*;

    fn arb_key() -> impl Strategy<Value = Value> {
        prop_oneof![
            Just(Value::Null),
            (0i64..6).prop_map(Value::Int),
            "[a-c]".prop_map(Value::str),
        ]
    }

    fn arb_val() -> impl Strategy<Value = Value> {
        prop_oneof![Just(Value::Null), (-100i64..100).prop_map(Value::Int)]
    }

    fn arb_rows(max: usize) -> impl Strategy<Value = Vec<Row>> {
        prop::collection::vec((arb_key(), arb_val()), 0..max)
            .prop_map(|ps| ps.into_iter().map(|(k, v)| Row::new(vec![k, v])).collect())
    }

    /// Every foldable accumulator variant at once (Avg and float SUM are
    /// rejected at build time by design).
    fn aggs() -> Vec<AggExpr> {
        vec![
            AggExpr::new(AggFunc::Count, None, "n"),
            AggExpr::new(AggFunc::CountDistinct, Some(Expr::col(1)), "d"),
            AggExpr::new(AggFunc::Sum, Some(Expr::col(1)), "s"),
            AggExpr::new(AggFunc::Min, Some(Expr::col(1)), "lo"),
            AggExpr::new(AggFunc::Max, Some(Expr::col(1)), "hi"),
        ]
    }

    fn two_col_schema() -> Schema {
        Schema::new(vec![
            Field::new("k", DataType::Str),
            Field::new("v", DataType::Int),
        ])
    }

    fn agg_plan() -> LogicalPlan {
        let mut b = PlanBuilder::new();
        let sv = b
            .add(
                Operator::ScanView {
                    view: "base".into(),
                    schema: two_col_schema(),
                },
                vec![],
            )
            .unwrap();
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
        let sv = b
            .add(
                Operator::ScanView {
                    view: "base".into(),
                    schema: two_col_schema(),
                },
                vec![],
            )
            .unwrap();
        let filt = b
            .add(
                Operator::Filter {
                    predicate: Expr::Binary {
                        op: BinOp::Gt,
                        left: Box::new(Expr::col(1)),
                        right: Box::new(Expr::lit(0i64)),
                    },
                },
                vec![sv],
            )
            .unwrap();
        b.finish(filt).unwrap()
    }

    fn run_serial(plan: &LogicalPlan, rows: &[Row]) -> Vec<Row> {
        let mut src = MemSource::new();
        src.add_view("base", rows.to_vec());
        let exec = execute_serial(plan, &src, &UdfRegistry::new()).unwrap();
        exec.root_rows().unwrap().to_vec()
    }

    proptest! {
        /// Fold(base) + delta == replay(base ++ delta) == serial oracle,
        /// for every split point — and the `AggApplied` patch list applied
        /// to the base output reconstructs the same rows.
        #[test]
        fn delta_fold_matches_full_replay_and_serial(
            rows in arb_rows(60),
            split_frac in 0.0f64..=1.0,
        ) {
            let split = ((rows.len() as f64) * split_frac) as usize;
            let split = split.min(rows.len());
            let (base, delta) = rows.split_at(split);
            let a = aggs();

            let mut state = AggState::build(base, &[0], &a).unwrap();
            let mut patched = state.output_rows();
            let applied = state.apply(delta, &[0], &a).unwrap();
            for (slot, row) in &applied.updated {
                patched[*slot] = row.clone();
            }
            patched.extend(applied.appended.iter().cloned());

            let folded = state.output_rows();
            let full = AggState::build(&rows, &[0], &a).unwrap().output_rows();
            prop_assert_eq!(&folded, &full, "fold diverged from full replay");
            prop_assert_eq!(&patched, &full, "patch list diverged from full replay");
            prop_assert_eq!(folded, run_serial(&agg_plan(), &rows), "fold diverged from serial");
        }

        /// Per-record plans distribute over append: running the plan on
        /// `base ++ delta` equals the concatenation of the per-part runs.
        /// This is the invariant the IVM append path (and the stored-view
        /// prefix it extends) relies on.
        #[test]
        fn filter_output_is_prefix_stable_under_append(
            rows in arb_rows(80),
            split_frac in 0.0f64..=1.0,
        ) {
            let split = ((rows.len() as f64) * split_frac) as usize;
            let split = split.min(rows.len());
            let plan = filter_plan();
            let mut parts = run_serial(&plan, &rows[..split]);
            parts.extend(run_serial(&plan, &rows[split..]));
            prop_assert_eq!(run_serial(&plan, &rows), parts);
        }

        /// Hash joins against a fixed build side are prefix-stable in the
        /// probe input, NULL keys included (they never match): probing with
        /// `base ++ delta` equals probing each part and concatenating.
        #[test]
        fn join_probe_is_prefix_stable_under_append(
            left in arb_rows(50),
            right in arb_rows(30),
            split_frac in 0.0f64..=1.0,
        ) {
            let split = ((left.len() as f64) * split_frac) as usize;
            let split = split.min(left.len());
            let on = [(0usize, 0usize)];
            let mut parts = hash_join_vex(&left[..split], &right, &on).unwrap();
            parts.extend(hash_join_vex(&left[split..], &right, &on).unwrap());
            prop_assert_eq!(hash_join_vex(&left, &right, &on).unwrap(), parts);
        }
    }
}
