//! Content checksums for materialized row sets.
//!
//! A [`Checksum`] digests the *multiset* of rows in a materialized view —
//! order-insensitive, because a recomputed view is semantically the same
//! set of tuples even when the execution engine emits them in a different
//! order. Each row is digested with [`Fnv`] over a tagged pre-order value
//! encoding ([`digest_value`], which the plan fingerprints fold their
//! literals through too), stable across processes and platforms, and the
//! per-row digests are combined with a commutative wrapping sum before a
//! final mix that binds the row count.
//!
//! The checksum is computed once at materialization time — from the cells
//! of the batch that was materialized ([`checksum_batch`]) — carried next to
//! it, and re-verified on demand (view reads, post-transfer, post-promote,
//! scrubbing). A mismatch means the stored bytes no longer agree with what
//! was materialized — silent corruption. [`checksum_rows`] is the same digest
//! over the same multiset in row form.

use crate::batch::{ColBatch, Column, Nulls, Slots};
use crate::value::{Row, Value};
use miso_common::pool;
use miso_common::prehash::Fnv;
use std::sync::Arc;

/// A 64-bit content digest of a row multiset.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Checksum(pub u64);

impl std::fmt::Display for Checksum {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{:016x}", self.0)
    }
}

/// Digest of one row: FNV-1a over a tagged pre-order value encoding.
pub fn checksum_row(row: &Row) -> u64 {
    let mut h = Fnv::new();
    h.u64(row.arity() as u64);
    for v in row.values() {
        digest_value(v, &mut h);
    }
    h.finish()
}

/// Content checksum of a row multiset: order-insensitive (wrapping sum of
/// per-row digests), row-count-binding (the count is mixed into the final
/// digest, so dropped duplicates are detected).
pub fn checksum_rows(rows: &[Row]) -> Checksum {
    RowSetDigest::from_rows(rows).finish()
}

/// Rows per task of [`batch_sum`]: large enough that a task outweighs waking
/// a parked pool helper to share it.
const DIGEST_MORSEL: usize = 8192;

/// [`checksum_rows`] of the batch's rows, bit for bit, read from its cells.
pub fn checksum_batch(batch: &ColBatch) -> Checksum {
    RowSetDigest::from_batch(batch).finish()
}

/// The wrapping sum of the batch's row digests. Each morsel keeps one FNV
/// state per row and streams the columns through them one at a time, so a
/// typed column is digested in a tight loop over its vector. The sum is
/// commutative, so morsels fan out over the pool and the result is the same
/// at any thread count.
fn batch_sum(batch: &ColBatch) -> u64 {
    let mut seed = Fnv::new();
    seed.u64(batch.arity() as u64);
    let sums = pool::run_batch(batch.len().div_ceil(DIGEST_MORSEL), |m| {
        let start = m * DIGEST_MORSEL;
        let mut rows = vec![seed; DIGEST_MORSEL.min(batch.len() - start)];
        for col in batch.columns() {
            digest_column(col, start, &mut rows);
        }
        rows.iter()
            .fold(0u64, |acc, h| acc.wrapping_add(h.finish()))
    });
    let sums = sums.expect("digesting cells cannot panic");
    sums.into_iter().fold(0, u64::wrapping_add)
}

/// Streams slots `start..start + rows.len()` of `col` into the rows' states,
/// each slot encoded as [`digest_value`] encodes the value it holds.
fn digest_column(col: &Column, start: usize, rows: &mut [Fnv]) {
    fn typed<P: Slots>(
        v: &P,
        nulls: &Nulls,
        start: usize,
        rows: &mut [Fnv],
        f: impl Fn(&P::Slot, &mut Fnv),
    ) {
        for (j, h) in rows.iter_mut().enumerate() {
            if nulls.is_null(start + j) {
                h.byte(0);
            } else {
                f(v.slot(start + j), h);
            }
        }
    }
    match col {
        Column::Int(v, n) => typed(v, n, start, rows, |i, h| digest_int(*i, h)),
        Column::Float(v, n) => typed(v, n, start, rows, |f, h| digest_float(*f, h)),
        Column::Bool(v, n) => typed(v, n, start, rows, |b, h| digest_bool(*b, h)),
        Column::Str(v, n) => typed(v, n, start, rows, digest_str),
        Column::StrList(v, n) => {
            for (j, h) in rows.iter_mut().enumerate() {
                if n.is_null(start + j) {
                    h.byte(0);
                } else {
                    let list = v.get(start + j);
                    digest_array_head(list.len(), h);
                    list.iter().for_each(|s| digest_str(s, h));
                }
            }
        }
        Column::Mixed(v) => {
            for (value, h) in v[start..].iter().zip(rows) {
                digest_value(value, h);
            }
        }
    }
}

/// The incremental state behind [`checksum_rows`]: the commutative wrapping
/// sum of per-row digests plus the row count.
///
/// Because the combiner is a wrapping sum, the multiset digest forms a
/// group: rows can be added *and removed* in any order, and
/// [`RowSetDigest::finish`] always equals [`checksum_rows`] over the
/// resulting multiset. This is what makes incremental view maintenance
/// re-stamp a checksum in O(|delta|) — the maintainer carries the
/// `(sum, count)` state next to the view, folds in appended rows and folds
/// out replaced aggregate rows, and the restamped checksum is bit-identical
/// to a full rebuild's.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct RowSetDigest {
    sum: u64,
    count: u64,
}

impl RowSetDigest {
    /// State for the empty multiset.
    pub fn new() -> RowSetDigest {
        RowSetDigest::default()
    }

    /// State for an existing row set (O(|rows|), paid once at build time).
    pub fn from_rows(rows: &[Row]) -> RowSetDigest {
        let mut d = RowSetDigest::new();
        d.add_rows(rows);
        d
    }

    /// State for the rows of `batch`.
    pub fn from_batch(batch: &ColBatch) -> RowSetDigest {
        let mut d = RowSetDigest::new();
        d.add_batch(batch);
        d
    }

    /// Folds every row of `batch` into the multiset.
    pub fn add_batch(&mut self, batch: &ColBatch) {
        self.sum = self.sum.wrapping_add(batch_sum(batch));
        self.count += batch.len() as u64;
    }

    /// Removes every row of `batch` from the multiset (the caller asserts
    /// they are present; removing an absent row silently corrupts the
    /// digest, which the maintainer's verify-against-catalog check would
    /// then catch).
    pub fn remove_batch(&mut self, batch: &ColBatch) {
        debug_assert!(
            self.count >= batch.len() as u64,
            "removing more rows than the multiset digest holds"
        );
        self.sum = self.sum.wrapping_sub(batch_sum(batch));
        self.count = self.count.wrapping_sub(batch.len() as u64);
    }

    /// Folds one row into the multiset.
    pub fn add_row(&mut self, row: &Row) {
        self.sum = self.sum.wrapping_add(checksum_row(row));
        self.count += 1;
    }

    /// Folds a batch of rows into the multiset.
    pub fn add_rows(&mut self, rows: &[Row]) {
        for row in rows {
            self.add_row(row);
        }
    }

    /// Merges another digest's multiset into this one.
    pub fn merge(&mut self, other: &RowSetDigest) {
        self.sum = self.sum.wrapping_add(other.sum);
        self.count += other.count;
    }

    /// Rows currently in the multiset.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// The checksum of the current multiset — bit-identical to
    /// [`checksum_rows`] over the same rows.
    pub fn finish(&self) -> Checksum {
        let mut h = Fnv::new();
        h.u64(self.sum);
        h.u64(self.count);
        Checksum(h.finish())
    }
}

/// Silently flips the first cell of the first row (simulated bit rot for
/// chaos testing). The mutation is chosen so the multiset checksum is
/// guaranteed to change: booleans invert, ints flip their low bit, strings
/// grow a byte, and every other type degrades to a different type tag.
/// Returns whether anything changed (no row, or no column → `false`).
///
/// Takes the shared `Arc` the stores keep a batch behind and copies one
/// column, which mirrors a corrupted replica diverging from the copy a
/// transfer already shipped: whoever else holds the batch keeps reading the
/// clean cells.
pub fn corrupt_first_cell(batch: &mut Arc<ColBatch>) -> bool {
    if batch.is_empty() || batch.arity() == 0 {
        return false;
    }
    let flipped = flip_value(&batch.col(0).value(0));
    *batch = Arc::new(batch.with_cell(0, 0, flipped));
    true
}

fn flip_value(v: &Value) -> Value {
    match v {
        Value::Null => Value::Int(1),
        Value::Bool(b) => Value::Bool(!b),
        Value::Int(i) => Value::Int(i ^ 1),
        Value::Float(f) => Value::Int(f.to_bits() as i64),
        Value::Str(s) => Value::Str(format!("{s}\u{1a}")),
        Value::Array(_) | Value::Object(_) => Value::Null,
    }
}

fn digest_bool(b: bool, h: &mut Fnv) {
    h.byte(1);
    h.byte(b as u8);
}

fn digest_int(i: i64, h: &mut Fnv) {
    h.byte(2);
    h.u64(i as u64);
}

/// A float as `Value`'s equality sees it: signed zero collapses, and NaN
/// (which equals itself under the total order) gets one bit pattern.
fn digest_float(f: f64, h: &mut Fnv) {
    h.byte(3);
    h.u64(Value::float_bits(f));
}

fn digest_str(s: &str, h: &mut Fnv) {
    h.byte(4);
    h.str(s);
}

/// What an array's items follow: its tag and length.
fn digest_array_head(len: usize, h: &mut Fnv) {
    h.byte(5);
    h.u64(len as u64);
}

/// Folds `v`'s tagged pre-order encoding into `h`: what a row's cells
/// contribute to its checksum, and what a literal contributes to a plan
/// fingerprint. Values that compare equal under `Value::eq` within one type
/// encode equal (±0.0 and every NaN included).
pub fn digest_value(v: &Value, h: &mut Fnv) {
    match v {
        Value::Null => h.byte(0),
        Value::Bool(b) => digest_bool(*b, h),
        Value::Int(i) => digest_int(*i, h),
        Value::Float(f) => digest_float(*f, h),
        Value::Str(s) => digest_str(s, h),
        Value::Array(items) => {
            digest_array_head(items.len(), h);
            for item in items {
                digest_value(item, h);
            }
        }
        Value::Object(fields) => {
            h.byte(6);
            h.u64(fields.len() as u64);
            for (k, val) in fields {
                h.str(k);
                digest_value(val, h);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn row(vals: Vec<Value>) -> Row {
        Row::new(vals)
    }

    #[test]
    fn empty_and_nonempty_differ() {
        let a = checksum_rows(&[]);
        let b = checksum_rows(&[row(vec![Value::Int(1)])]);
        assert_ne!(a, b);
        assert_eq!(a, checksum_rows(&[]));
    }

    #[test]
    fn order_insensitive() {
        let r1 = row(vec![Value::Int(1), Value::str("a")]);
        let r2 = row(vec![Value::Int(2), Value::str("b")]);
        let r3 = row(vec![Value::Null, Value::Float(0.5)]);
        let fwd = checksum_rows(&[r1.clone(), r2.clone(), r3.clone()]);
        let rev = checksum_rows(&[r3, r1, r2]);
        assert_eq!(fwd, rev, "row order must not change the checksum");
    }

    #[test]
    fn single_value_flip_is_detected() {
        let clean = vec![
            row(vec![Value::str("city"), Value::Int(10)]),
            row(vec![Value::str("town"), Value::Int(20)]),
        ];
        let mut bad = clean.clone();
        bad[0] = row(vec![Value::str("city"), Value::Int(11)]);
        assert_ne!(checksum_rows(&clean), checksum_rows(&bad));
    }

    #[test]
    fn multiplicity_matters() {
        let r = row(vec![Value::Int(7)]);
        let once = checksum_rows(std::slice::from_ref(&r));
        let twice = checksum_rows(&[r.clone(), r]);
        assert_ne!(once, twice, "dropped duplicates must be detected");
    }

    #[test]
    fn float_normalization_matches_value_equality() {
        let pos = row(vec![Value::Float(0.0)]);
        let neg = row(vec![Value::Float(-0.0)]);
        assert_eq!(checksum_rows(&[pos]), checksum_rows(&[neg]));
        let nan1 = row(vec![Value::Float(f64::NAN)]);
        let nan2 = row(vec![Value::Float(-f64::NAN)]);
        assert_eq!(checksum_rows(&[nan1]), checksum_rows(&[nan2]));
    }

    #[test]
    fn corrupt_first_cell_always_changes_the_checksum() {
        let cases: Vec<Vec<Row>> = vec![
            vec![row(vec![Value::Null])],
            vec![row(vec![Value::Bool(false)])],
            vec![row(vec![Value::Int(0)])],
            vec![row(vec![Value::Float(2.5)])],
            vec![row(vec![Value::str("abc")])],
            vec![row(vec![Value::Array(vec![Value::Int(1)])])],
            vec![
                row(vec![Value::Int(9), Value::str("x")]),
                row(vec![Value::Null, Value::str("y")]),
            ],
        ];
        for rows in cases {
            let before = checksum_rows(&rows);
            let mut batch = Arc::new(ColBatch::from_rows(&rows).unwrap());
            let shared = batch.clone();
            assert_eq!(checksum_batch(&batch), before);
            assert!(corrupt_first_cell(&mut batch));
            let after = batch.to_rows();
            assert_ne!(checksum_batch(&batch), before, "undetected: {after:?}");
            assert_eq!(checksum_batch(&batch), checksum_rows(&after));
            assert_eq!(after[1..], rows[1..], "only the first row changes");
            assert_eq!(
                checksum_batch(&shared),
                before,
                "copy-on-write must not touch prior readers"
            );
        }
        let mut empty = Arc::new(ColBatch::empty(2));
        assert!(!corrupt_first_cell(&mut empty));
        let mut zero_arity = Arc::new(ColBatch::from_rows(&[row(vec![])]).unwrap());
        assert!(!corrupt_first_cell(&mut zero_arity));
    }

    #[test]
    fn rowset_digest_matches_full_checksum() {
        let rows: Vec<Row> = (0..37)
            .map(|i| {
                row(vec![
                    Value::Int(i),
                    Value::str(format!("r{i}")),
                    if i % 5 == 0 {
                        Value::Null
                    } else {
                        Value::Float(i as f64 / 3.0)
                    },
                ])
            })
            .collect();
        // Build from scratch vs fold one at a time.
        let whole = RowSetDigest::from_rows(&rows);
        assert_eq!(whole.finish(), checksum_rows(&rows));
        assert_eq!(whole.count(), rows.len() as u64);
        // Base + delta fold equals the full digest for every split point.
        for split in [0, 1, 17, rows.len()] {
            let mut d = RowSetDigest::from_rows(&rows[..split]);
            d.add_rows(&rows[split..]);
            assert_eq!(d.finish(), checksum_rows(&rows), "split {split}");
        }
        // Merge of two halves equals the whole.
        let mut left = RowSetDigest::from_rows(&rows[..20]);
        left.merge(&RowSetDigest::from_rows(&rows[20..]));
        assert_eq!(left.finish(), checksum_rows(&rows));
    }

    #[test]
    fn rowset_digest_remove_and_replace_are_exact_inverses() {
        let a = row(vec![Value::str("austin"), Value::Int(3)]);
        let b = row(vec![Value::str("boston"), Value::Int(5)]);
        let c = row(vec![Value::str("boston"), Value::Int(9)]);
        let batch = |rows: &[Row]| ColBatch::of_rows(2, rows).unwrap();
        let mut d = RowSetDigest::from_rows(&[a.clone(), b.clone()]);
        // Replace b -> c: must equal a fresh digest of {a, c}.
        d.remove_batch(&batch(std::slice::from_ref(&b)));
        d.add_batch(&batch(std::slice::from_ref(&c)));
        assert_eq!(d.finish(), checksum_rows(&[a.clone(), c.clone()]));
        // Remove c: back to just {a}.
        d.remove_batch(&batch(std::slice::from_ref(&c)));
        assert_eq!(d.finish(), checksum_rows(std::slice::from_ref(&a)));
        // Add/remove in a different order than the rebuild would see.
        let mut e = RowSetDigest::new();
        e.add_batch(&batch(&[c.clone(), a.clone()]));
        e.remove_batch(&batch(&[c]));
        assert_eq!(e.finish(), checksum_rows(&[a]));
        assert_eq!(e.count(), 1);
    }

    #[test]
    fn stable_literal_digest() {
        // Pin the digest of a fixed multiset: this value must never change
        // across processes, platforms, or refactors, or persisted checksums
        // would all report corruption after an upgrade.
        let rows = vec![
            row(vec![
                Value::str("austin"),
                Value::Int(42),
                Value::Float(0.25),
            ]),
            row(vec![Value::Null, Value::Bool(true), Value::str("x")]),
        ];
        let c = checksum_rows(&rows);
        assert_eq!(c, checksum_rows(&rows.clone()));
        assert_eq!(format!("{c}").len(), 16);
        assert_eq!(c.0, 0xf73e_b8cd_f37b_530a, "checksum encoding changed");
    }
}
