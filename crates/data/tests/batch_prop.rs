//! Generated-input tests: `rows → ColBatch → rows` is an identity for
//! arbitrary value matrices, every `Value` variant included (NULLs, NaN,
//! ±0.0, arrays of strings, nested containers, type-clashing columns), and
//! what is recorded
//! about a stored batch — its size, its content checksum, its incremental
//! digest — is what its rows would give, at any thread count. Cases are
//! seeded [`DetRng`] streams; a failing assert names the seed.

use miso_common::pool;
use miso_common::rng::DetRng;
use miso_data::checksum::{checksum_batch, checksum_rows, RowSetDigest};
use miso_data::{ColBatch, ColBuilder, Column, Row, Value};

const CASES: u64 = 256;

/// Kinds of value [`arb_value_of`] draws; the last two nest.
const KINDS: u64 = 11;

/// The kind that is an array of strings: a list column's slot.
const STR_LIST: u64 = 8;

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
        // Empty now and then; items empty, ASCII or multi-byte.
        STR_LIST => Value::Array(
            (0..rng.below(4))
                .map(|_| Value::Str(arb_str(rng)))
                .collect(),
        ),
        9 => Value::Array(
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

/// Up to `max_rows` rows of up to four columns (now and then none). A column
/// with a kind of its own stays typed around its NULLs; the others clash
/// into `Mixed`. A column of string arrays is often one, and now and then
/// meets, mid-column, an array holding a number, which degrades it there.
fn arb_rows(rng: &mut DetRng, max_rows: u64) -> Vec<Row> {
    let kinds: Vec<Option<u64>> = (0..rng.below(5))
        .map(|_| {
            rng.chance(0.6).then(|| {
                if rng.chance(0.2) {
                    STR_LIST
                } else {
                    rng.below(KINDS)
                }
            })
        })
        .collect();
    let n = rng.below(max_rows + 1);
    let clash = rng.chance(0.3).then(|| rng.below(n.max(1)));
    (0..n)
        .map(|i| {
            let cell = |kind: &Option<u64>| match kind {
                _ if rng.chance(0.15) => Value::Null,
                Some(STR_LIST) if clash == Some(i) => {
                    Value::Array(vec![Value::str("x"), Value::Int(1)])
                }
                Some(kind) => arb_value_of(rng, *kind, 2),
                None => arb_value(rng, 2),
            };
            Row::new(kinds.iter().map(cell).collect())
        })
        .collect()
}

/// Which variant `col` is: what the tests count to show each was reached.
fn variant(col: &Column) -> usize {
    match col {
        Column::Int(..) => 0,
        Column::Float(..) => 1,
        Column::Bool(..) => 2,
        Column::Str(..) => 3,
        Column::StrList(..) => 4,
        Column::Mixed(..) => 5,
    }
}

#[test]
fn pivot_round_trip_is_identity() {
    let mut variants = [0usize; 6];
    for seed in 0..CASES {
        let mut rng = DetRng::new(0xba7c_0000 + seed);
        let rows = arb_rows(&mut rng, 63);
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
        batch
            .columns()
            .iter()
            .for_each(|c| variants[variant(c)] += 1);
    }
    assert!(
        variants.iter().all(|&n| n > 0),
        "variants seen: {variants:?}"
    );
}

/// The digest a store records for a batch is the digest of its rows, bit for
/// bit: [`checksum_batch`] against [`checksum_rows`], [`RowSetDigest`] fed
/// batches against one fed rows — appends, and replacements as aggregate
/// maintenance makes them — over every column variant, empty batches and
/// rows of no columns, serial and fanned out over eight workers.
#[test]
fn batch_digests_are_the_row_digests() {
    let before = pool::threads();
    let mut variants = [0usize; 6];
    for seed in 0..CASES {
        let mut rng = DetRng::new(0xd16e_0000 + seed);
        // Every eighth case spans several digest morsels.
        let rows = arb_rows(&mut rng, if seed % 8 == 0 { 20_000 } else { 63 });
        let arity = rows.first().map_or(rng.below(4) as usize, Row::arity);
        let batch = ColBatch::of_rows(arity, &rows).expect("uniform arity pivots");
        batch
            .columns()
            .iter()
            .for_each(|c| variants[variant(c)] += 1);
        let cut = rng.below(rows.len() as u64 + 1) as usize;
        let head = ColBatch::of_rows(arity, &rows[..cut]).unwrap();
        let tail = ColBatch::of_rows(arity, &rows[cut..]).unwrap();
        for threads in [1, 8] {
            pool::set_threads(threads);
            let what = format!("seed {seed}, {threads} threads");
            assert_eq!(checksum_batch(&batch), checksum_rows(&rows), "{what}");
            assert_eq!(checksum_batch(&batch), checksum_rows(&batch.to_rows()));
            // A view grown by an append: base batch, then the delta batch.
            let mut grown = RowSetDigest::from_batch(&head);
            assert_eq!(grown, RowSetDigest::from_rows(&rows[..cut]), "{what}");
            grown.add_batch(&tail);
            assert_eq!(grown, RowSetDigest::from_rows(&rows), "{what}");
            assert_eq!(grown.finish(), checksum_batch(&batch), "{what}");
            assert_eq!(grown.count(), rows.len() as u64, "{what}");
        }
        // A group row replaced in place: the digest follows the patch.
        if let Some(slot) = (!rows.is_empty()).then(|| rng.below(rows.len() as u64) as usize) {
            let new_row = Row::new((0..arity).map(|_| arb_value(&mut rng, 2)).collect());
            let mut digest = RowSetDigest::from_batch(&batch);
            digest.remove_batch(&batch.gather(&[slot as u32]));
            digest.add_batch(&ColBatch::of_rows(arity, std::slice::from_ref(&new_row)).unwrap());
            let mut patched = rows.clone();
            patched[slot] = new_row;
            let patched = ColBatch::of_rows(arity, &patched).unwrap();
            assert_eq!(digest.finish(), checksum_batch(&patched), "seed {seed}");
            assert_eq!(digest, RowSetDigest::from_batch(&patched), "seed {seed}");
        }
    }
    pool::set_threads(before);
    assert!(
        variants.iter().all(|&n| n > 0),
        "variants seen: {variants:?}"
    );
}

/// Empty, ASCII and multi-byte UTF-8 text: 2-, 3- and 4-byte characters.
fn arb_str(rng: &mut DetRng) -> String {
    const PIECES: [&str; 7] = ["", "a", "Zürich", "é", "漢字", "🦀", " "];
    (0..rng.below(4)).map(|_| *rng.pick(&PIECES)).collect()
}

/// Up to `max` string slots with NULLs in runs, some longer than a 64-slot
/// word of the null bitmap, so runs start and end anywhere in a word.
fn arb_strings(rng: &mut DetRng, max: u64) -> Vec<Value> {
    let n = rng.below(max + 1) as usize;
    let mut values = Vec::with_capacity(n);
    while values.len() < n {
        let longest = if rng.chance(0.2) { 150 } else { 6 };
        let run = 1 + rng.below(longest) as usize;
        let null = rng.chance(0.4);
        for _ in 0..run.min(n - values.len()) {
            values.push(if null {
                Value::Null
            } else {
                Value::Str(arb_str(rng))
            });
        }
    }
    values
}

fn one_pass(values: &[Value]) -> Column {
    let mut b = ColBuilder::new();
    values.iter().for_each(|v| b.push_value(v.clone()));
    b.finish()
}

fn values_of(col: &Column) -> Vec<Value> {
    (0..col.len()).map(|i| col.value(i)).collect()
}

/// A string column is one text buffer plus end offsets, and every way of
/// making one out of another — gathers in sorted, shuffled and repeating
/// order, heads, concatenation and in-place appends of parts with other
/// NULL patterns, a builder resumed from a column — reads back as the row
/// path says: same values, same byte charge, same checksum, same rows.
#[test]
fn string_buffer_is_the_row_path() {
    let mut typed = 0;
    for seed in 0..CASES {
        let mut rng = DetRng::new(0x57a1_0000 + seed);
        let values = arb_strings(&mut rng, 300);
        let col = one_pass(&values);
        typed += usize::from(matches!(col, Column::Str(..)));
        let n = values.len();
        let what = format!("seed {seed}");
        assert_eq!(values_of(&col), values, "{what}");
        let charge: u64 = values.iter().map(Value::approx_bytes).sum();
        assert_eq!(col.approx_bytes(), charge, "{what}");

        // A second string column beside it, with its own NULLs.
        let other: Vec<Value> = (0..n)
            .map(|_| {
                if rng.chance(0.3) {
                    Value::Null
                } else {
                    Value::Str(arb_str(&mut rng))
                }
            })
            .collect();
        let rows: Vec<Row> = values
            .iter()
            .zip(&other)
            .map(|(a, b)| Row::new(vec![a.clone(), b.clone()]))
            .collect();
        let batch = ColBatch::of_rows(2, &rows).unwrap();
        assert_eq!(batch.col(0), &col, "{what}");
        assert_eq!(checksum_batch(&batch), checksum_rows(&rows), "{what}");
        let bytes: u64 = rows.iter().map(Row::approx_bytes).sum();
        assert_eq!(batch.row_bytes(), bytes, "{what}");
        assert_eq!(batch.to_rows(), rows, "{what}");
        assert_eq!(batch.clone().into_rows(), rows, "{what}");

        // Gathers: ascending, shuffled, and with repeats.
        let sorted: Vec<u32> = (0..n as u32).filter(|_| rng.chance(0.5)).collect();
        let mut shuffled: Vec<u32> = (0..n as u32).collect();
        for i in (1..shuffled.len()).rev() {
            shuffled.swap(i, rng.below(i as u64 + 1) as usize);
        }
        let repeated: Vec<u32> = (0..rng.below(2 * n as u64 + 1))
            .map(|_| rng.below(n as u64) as u32)
            .collect();
        for sel in [&sorted, &shuffled, &repeated] {
            let picked = batch.gather(sel);
            let want: Vec<Row> = sel.iter().map(|&i| rows[i as usize].clone()).collect();
            assert_eq!(picked.to_rows(), want, "{what}: gather {sel:?}");
            assert_eq!(checksum_batch(&picked), checksum_rows(&want), "{what}");
            let bytes: u64 = want.iter().map(Row::approx_bytes).sum();
            assert_eq!(picked.row_bytes(), bytes, "{what}");
        }

        // Parts cut anywhere, each built on its own, put back together.
        let mut cuts = [rng.below(n as u64 + 1), rng.below(n as u64 + 1)].map(|c| c as usize);
        cuts.sort_unstable();
        let pieces = [
            &values[..cuts[0]],
            &values[cuts[0]..cuts[1]],
            &values[cuts[1]..],
        ];
        let parts: Vec<Column> = pieces.iter().map(|p| one_pass(p)).collect();
        assert_eq!(Column::concat(parts.clone()), col, "{what}: concat");
        let mut appended = parts[0].clone();
        appended.append(parts[1].clone());
        appended.append(parts[2].clone());
        assert_eq!(appended, col, "{what}: append");
        let mut resumed = ColBuilder::resume(parts[0].clone());
        for v in &values[cuts[0]..] {
            resumed.push_value(v.clone());
        }
        assert_eq!(resumed.finish(), col, "{what}: resume");
        let head = col.head(cuts[1]);
        assert_eq!(values_of(&head), values[..cuts[1]], "{what}: head");
        assert_eq!(
            head.approx_bytes(),
            values[..cuts[1]]
                .iter()
                .map(Value::approx_bytes)
                .sum::<u64>(),
            "{what}: head"
        );
    }
    assert!(typed > CASES as usize / 2, "{typed} string columns");
}

/// Column equality with floats by bit pattern: `f64`'s `==` fails on NaN,
/// and `Value`'s folds NaNs and signed zeros together.
fn same(a: &Column, b: &Column) -> bool {
    let bits = |v: &[f64]| v.iter().map(|f| f.to_bits()).collect::<Vec<_>>();
    match (a, b) {
        (Column::Float(x, xn), Column::Float(y, yn)) => xn == yn && bits(x) == bits(y),
        (Column::Mixed(x), Column::Mixed(y)) => x == y && format!("{x:?}") == format!("{y:?}"),
        _ => a == b,
    }
}

/// Column assembly in bulk is the builder a slot at a time: parts cut out of
/// generated columns — gathers of a few rows, which can leave a typed column
/// all NULL or a `Mixed` one of a single scalar type, and heads — concatenate
/// and append to the column one builder pass over all their cells gives; a
/// column is canonical exactly when it is that column; and a head is the
/// gather of the first rows.
#[test]
fn bulk_assembly_is_the_one_pass_builder() {
    let one_pass = |parts: &[Column]| {
        let mut b = ColBuilder::new();
        for part in parts {
            (0..part.len()).for_each(|i| b.push_value(part.value(i)));
        }
        b.finish()
    };
    let mut non_canonical = 0;
    let mut lists = 0;
    for seed in 0..CASES {
        let mut rng = DetRng::new(0xc01_0000 + seed);
        let rows = arb_rows(&mut rng, 63);
        let arity = rows.first().map_or(0, Row::arity);
        let batch = ColBatch::of_rows(arity, &rows).expect("uniform arity pivots");
        for col in batch.columns() {
            lists += usize::from(matches!(**col, Column::StrList(..)));
            let n = col.len() as u64;
            let gather = |rng: &mut DetRng| {
                let picks: Vec<u32> = (0..rng.below(4))
                    .filter(|_| n > 0)
                    .map(|_| rng.below(n) as u32)
                    .collect();
                col.gather(&picks)
            };
            let head = rng.below(n + 1) as usize;
            let parts = [gather(&mut rng), col.head(head), gather(&mut rng)];
            let whole = one_pass(&parts);
            for part in &parts {
                assert_eq!(
                    part.is_canonical(),
                    same(part, &one_pass(std::slice::from_ref(part)))
                );
                non_canonical += usize::from(!part.is_canonical());
            }
            assert!(same(&Column::concat(parts.to_vec()), &whole), "seed {seed}");
            let mut appended = parts[0].clone();
            appended.append(parts[1].clone());
            appended.append(parts[2].clone());
            assert!(same(&appended, &whole), "seed {seed}");
            let first: Vec<u32> = (0..head as u32).collect();
            assert!(same(&col.head(head), &col.gather(&first)), "seed {seed}");
        }
    }
    assert!(non_canonical > 0, "no gather left a column to re-classify");
    assert!(lists > 0, "no list column assembled");
}
