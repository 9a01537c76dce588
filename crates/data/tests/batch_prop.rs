//! Generated-input test: `rows → ColBatch → rows` is an identity for
//! arbitrary value matrices, every `Value` variant included (NULLs, NaN,
//! ±0.0, nested containers, type-clashing columns). Cases are seeded
//! [`DetRng`] streams; a failing assert names the seed.

use miso_common::rng::DetRng;
use miso_data::{ColBatch, Row, Value};

const CASES: u64 = 256;

/// Kinds of value [`arb_value_of`] draws; the last two nest.
const KINDS: u64 = 10;

fn arb_value(rng: &mut DetRng, depth: u32) -> Value {
    let kind = rng.below(if depth == 0 { KINDS - 2 } else { KINDS });
    arb_value_of(rng, kind, depth)
}

fn arb_value_of(rng: &mut DetRng, kind: u64, depth: u32) -> Value {
    match kind {
        0 => Value::Null,
        1 => Value::Bool(rng.chance(0.5)),
        2 => Value::Int(rng.next_u64() as i64),
        3 => Value::Int(rng.below(5) as i64),
        // Any bit pattern: subnormals, infinities and NaN payloads included.
        4 => Value::Float(f64::from_bits(rng.next_u64())),
        5 => Value::Float(f64::NAN),
        6 => Value::Float(-0.0),
        7 => Value::str(
            (0..rng.below(13))
                .filter_map(|_| char::from_u32(rng.below(0x3000) as u32))
                .collect::<String>(),
        ),
        8 => Value::Array(
            (0..rng.below(4))
                .map(|_| arb_value(rng, depth - 1))
                .collect(),
        ),
        _ => Value::object(
            (0..rng.below(4))
                .map(|_| {
                    let key = ["a", "b", "c", "ab"][rng.below(4) as usize];
                    (key.to_string(), arb_value(rng, depth - 1))
                })
                .collect(),
        ),
    }
}

#[test]
fn pivot_round_trip_is_identity() {
    for seed in 0..CASES {
        let mut rng = DetRng::new(0xba7c_0000 + seed);
        // A column with a kind of its own stays typed around its NULLs; the
        // others clash into `Mixed`.
        let kinds: Vec<Option<u64>> = (0..rng.below(5))
            .map(|_| rng.chance(0.6).then(|| rng.below(KINDS)))
            .collect();
        let rows: Vec<Row> = (0..rng.below(64))
            .map(|_| {
                let cell = |kind: &Option<u64>| match kind {
                    _ if rng.chance(0.15) => Value::Null,
                    Some(kind) => arb_value_of(&mut rng, *kind, 2),
                    None => arb_value(&mut rng, 2),
                };
                Row::new(kinds.iter().map(cell).collect())
            })
            .collect();
        let batch = ColBatch::from_rows(&rows).expect("uniform arity pivots");
        assert_eq!(batch.len(), rows.len(), "seed {seed}");
        // Bit-level identity: Value's PartialEq treats NaN as equal and
        // ±0.0 as equal, so compare serialized debug forms too.
        let back = batch.clone().into_rows();
        assert_eq!(format!("{back:?}"), format!("{rows:?}"), "seed {seed}");
        assert_eq!(back, rows, "seed {seed}");
        assert_eq!(batch.to_rows(), rows, "seed {seed}");
        let bytes: u64 = rows.iter().map(Row::approx_bytes).sum();
        assert_eq!(batch.row_bytes(), bytes, "seed {seed}: row_bytes");
    }
}
