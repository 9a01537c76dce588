//! Property test: `rows → ColBatch → rows` is an identity for arbitrary
//! value matrices, every `Value` variant included (NULLs, NaN, ±0.0,
//! nested containers, type-clashing columns).
//!
//! Gated behind the `extern-deps` marker feature: the sanctioned offline
//! crate set has no `proptest`, so the default build compiles this file
//! to nothing. Enable with
//! `cargo test -p miso-data --features extern-deps` after adding
//! `proptest` as a local dev-dependency. The always-on unit tests in
//! `src/batch.rs` cover the same property over a hand-built matrix.

#[cfg(feature = "extern-deps")]
mod real {
    use miso_data::{ColBatch, Row, Value};
    use proptest::prelude::*;

    fn arb_value() -> impl Strategy<Value = Value> {
        let leaf = prop_oneof![
            Just(Value::Null),
            any::<bool>().prop_map(Value::Bool),
            any::<i64>().prop_map(Value::Int),
            any::<f64>().prop_map(Value::Float),
            Just(Value::Float(f64::NAN)),
            Just(Value::Float(-0.0)),
            ".{0,12}".prop_map(Value::str),
        ];
        leaf.prop_recursive(2, 8, 4, |inner| {
            prop_oneof![
                prop::collection::vec(inner.clone(), 0..4).prop_map(Value::Array),
                prop::collection::vec(("[a-c]{1,2}", inner), 0..4)
                    .prop_map(|fields| { Value::object(fields.into_iter().collect()) }),
            ]
        })
    }

    proptest! {
        #[test]
        fn pivot_round_trip_is_identity(
            (arity, rows) in (0usize..5).prop_flat_map(|arity| {
                (
                    Just(arity),
                    prop::collection::vec(
                        prop::collection::vec(arb_value(), arity..=arity),
                        0..64,
                    ),
                )
            })
        ) {
            let rows: Vec<Row> = rows.into_iter().map(Row::new).collect();
            let batch = ColBatch::from_rows(&rows).expect("uniform arity pivots");
            // Bit-level identity: Value's PartialEq treats NaN as equal and
            // ±0.0 as equal, so compare serialized debug forms too.
            prop_assert_eq!(batch.len(), rows.len());
            let back = batch.clone().into_rows();
            prop_assert_eq!(format!("{:?}", &back), format!("{:?}", &rows));
            prop_assert_eq!(back, rows.clone());
            prop_assert_eq!(batch.to_rows(), rows);
        }
    }
}
