//! Runtime values and rows.
//!
//! [`Value`] is the single dynamic value type flowing through both simulated
//! stores. It needs three properties that plain `f64`/enum combinations don't
//! give for free:
//!
//! 1. **Total equality and hashing** so values can serve as hash-join and
//!    group-by keys (floats compare by bit pattern after NaN normalization);
//! 2. **Total ordering** so ORDER BY and min/max aggregates are well-defined
//!    across types (type-rank order: null < bool < number < string < array <
//!    object);
//! 3. **Size accounting** so the simulated stores can charge bytes for
//!    materialized intermediates.
//!
//! All three are defined once, on the borrowed view [`Cell`] that every
//! columnar operator reads; `Value`'s impls and accessors read through
//! [`Cell::of`], so an owned value and a column slot cannot disagree.

use crate::batch::Cell;
use std::cmp::Ordering;
use std::fmt;
use std::hash::{Hash, Hasher};

/// A dynamically-typed runtime value.
#[derive(Debug, Clone)]
pub enum Value {
    /// SQL NULL / JSON null.
    Null,
    /// Boolean.
    Bool(bool),
    /// 64-bit signed integer.
    Int(i64),
    /// 64-bit float. NaNs are normalized to a single canonical NaN for
    /// equality and hashing.
    Float(f64),
    /// UTF-8 string.
    Str(String),
    /// Ordered list (JSON array).
    Array(Vec<Value>),
    /// Key-ordered object (JSON object). Keys are kept sorted so two objects
    /// with the same fields compare equal regardless of construction order.
    Object(Vec<(String, Value)>),
}

impl Value {
    /// Builds an object, sorting fields by key (last write wins on
    /// duplicates).
    pub fn object(fields: Vec<(String, Value)>) -> Value {
        let mut fields = fields;
        fields.sort_by(|a, b| a.0.cmp(&b.0));
        fields.dedup_by(|later, earlier| {
            if later.0 == earlier.0 {
                // keep the later entry's value
                earlier.1 = std::mem::replace(&mut later.1, Value::Null);
                true
            } else {
                false
            }
        });
        Value::Object(fields)
    }

    /// Convenience string constructor.
    pub fn str(s: impl Into<String>) -> Value {
        Value::Str(s.into())
    }

    /// True iff this is `Null`.
    pub fn is_null(&self) -> bool {
        matches!(self, Value::Null)
    }

    /// SQL truthiness: `Bool(true)` is true; everything else (including
    /// non-zero numbers) is not. NULL is not true.
    pub fn is_true(&self) -> bool {
        matches!(self, Value::Bool(true))
    }

    /// Numeric view, if this is an Int or Float ([`Cell::as_f64`]).
    pub fn as_f64(&self) -> Option<f64> {
        Cell::of(self).as_f64()
    }

    /// Integer view, if this is an Int ([`Cell::as_i64`]).
    pub fn as_i64(&self) -> Option<i64> {
        Cell::of(self).as_i64()
    }

    /// String view, if this is a Str.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::Str(s) => Some(s),
            _ => None,
        }
    }

    /// Object field lookup (objects keep keys sorted, so binary search).
    pub fn get_field(&self, key: &str) -> Option<&Value> {
        match self {
            Value::Object(fields) => fields
                .binary_search_by(|(k, _)| k.as_str().cmp(key))
                .ok()
                .map(|i| &fields[i].1),
            _ => None,
        }
    }

    /// Approximate in-memory/storage footprint in bytes
    /// ([`Cell::approx_bytes`]).
    ///
    /// This is what the simulated stores charge for materialized
    /// intermediates; it intentionally approximates a compact serialized form
    /// rather than Rust's in-memory layout.
    pub fn approx_bytes(&self) -> u64 {
        Cell::of(self).approx_bytes()
    }

    /// Canonical NaN-normalized bits for float hashing/equality.
    #[inline]
    pub(crate) fn float_bits(f: f64) -> u64 {
        if f.is_nan() {
            f64::NAN.to_bits()
        } else if f == 0.0 {
            // +0.0 and -0.0 compare equal; normalize bits.
            0
        } else {
            f.to_bits()
        }
    }
}

impl PartialEq for Value {
    fn eq(&self, other: &Self) -> bool {
        self.cmp(other) == Ordering::Equal
    }
}

impl Eq for Value {}

impl PartialOrd for Value {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

/// [`Cell::cmp_cell`]'s total order.
impl Ord for Value {
    #[inline]
    fn cmp(&self, other: &Self) -> Ordering {
        Cell::of(self).cmp_cell(&Cell::of(other))
    }
}

/// [`Cell`]'s hash stream, so a cell probes a map keyed by values.
impl Hash for Value {
    #[inline]
    fn hash<H: Hasher>(&self, state: &mut H) {
        Cell::of(self).hash(state)
    }
}

impl fmt::Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Value::Null => write!(f, "NULL"),
            Value::Bool(b) => write!(f, "{b}"),
            Value::Int(i) => write!(f, "{i}"),
            Value::Float(x) => write!(f, "{x}"),
            Value::Str(s) => write!(f, "{s}"),
            Value::Array(_) | Value::Object(_) => {
                write!(f, "{}", crate::json::to_json(self))
            }
        }
    }
}

impl From<i64> for Value {
    fn from(v: i64) -> Self {
        Value::Int(v)
    }
}

impl From<f64> for Value {
    fn from(v: f64) -> Self {
        Value::Float(v)
    }
}

impl From<bool> for Value {
    fn from(v: bool) -> Self {
        Value::Bool(v)
    }
}

impl From<&str> for Value {
    fn from(v: &str) -> Self {
        Value::Str(v.to_string())
    }
}

impl From<String> for Value {
    fn from(v: String) -> Self {
        Value::Str(v)
    }
}

/// A row: a fixed-arity tuple of values positionally aligned with a
/// [`crate::Schema`].
#[derive(Debug, Clone, PartialEq, Eq, Hash, PartialOrd, Ord, Default)]
pub struct Row {
    values: Vec<Value>,
}

impl Row {
    /// Builds a row from values.
    pub fn new(values: Vec<Value>) -> Self {
        Row { values }
    }

    /// The row's arity.
    pub fn arity(&self) -> usize {
        self.values.len()
    }

    /// Positional access.
    pub fn get(&self, idx: usize) -> &Value {
        &self.values[idx]
    }

    /// All values.
    pub fn values(&self) -> &[Value] {
        &self.values
    }

    /// All values, to overwrite in place (the arity is fixed).
    pub fn values_mut(&mut self) -> &mut [Value] {
        &mut self.values
    }

    /// Consumes the row, yielding its values.
    pub fn into_values(self) -> Vec<Value> {
        self.values
    }

    /// Projects the row onto the given column indexes.
    pub fn project(&self, indexes: &[usize]) -> Row {
        Row::new(indexes.iter().map(|&i| self.values[i].clone()).collect())
    }

    /// Concatenates two rows (join output).
    pub fn concat(&self, other: &Row) -> Row {
        let mut values = Vec::with_capacity(self.arity() + other.arity());
        values.extend_from_slice(&self.values);
        values.extend_from_slice(&other.values);
        Row::new(values)
    }

    /// Approximate serialized footprint, matching [`Value::approx_bytes`].
    pub fn approx_bytes(&self) -> u64 {
        2 + self.values.iter().map(Value::approx_bytes).sum::<u64>()
    }
}

impl FromIterator<Value> for Row {
    fn from_iter<I: IntoIterator<Item = Value>>(iter: I) -> Self {
        Row::new(iter.into_iter().collect())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::hash_map::DefaultHasher;

    fn hash_of(v: &Value) -> u64 {
        let mut h = DefaultHasher::new();
        v.hash(&mut h);
        h.finish()
    }

    #[test]
    fn int_float_cross_type_equality_and_hash() {
        assert_eq!(Value::Int(3), Value::Float(3.0));
        assert_eq!(hash_of(&Value::Int(3)), hash_of(&Value::Float(3.0)));
        assert_ne!(Value::Int(3), Value::Float(3.5));
    }

    #[test]
    fn nan_is_self_equal_and_sorts_last() {
        let nan = Value::Float(f64::NAN);
        assert_eq!(nan, nan.clone());
        assert_eq!(hash_of(&nan), hash_of(&nan.clone()));
        assert!(Value::Float(1e300) < nan);
    }

    #[test]
    fn signed_zero_normalizes() {
        assert_eq!(Value::Float(0.0), Value::Float(-0.0));
        assert_eq!(hash_of(&Value::Float(0.0)), hash_of(&Value::Float(-0.0)));
    }

    #[test]
    fn type_rank_order() {
        let vals = [
            Value::Null,
            Value::Bool(false),
            Value::Int(0),
            Value::str("a"),
            Value::Array(vec![]),
            Value::Object(vec![]),
        ];
        for pair in vals.windows(2) {
            assert!(pair[0] < pair[1], "{:?} < {:?}", pair[0], pair[1]);
        }
    }

    #[test]
    fn object_field_order_is_canonical() {
        let a = Value::object(vec![
            ("b".into(), Value::Int(2)),
            ("a".into(), Value::Int(1)),
        ]);
        let b = Value::object(vec![
            ("a".into(), Value::Int(1)),
            ("b".into(), Value::Int(2)),
        ]);
        assert_eq!(a, b);
        assert_eq!(a.get_field("a"), Some(&Value::Int(1)));
        assert_eq!(a.get_field("missing"), None);
    }

    #[test]
    fn object_duplicate_keys_last_wins() {
        let v = Value::object(vec![
            ("k".into(), Value::Int(1)),
            ("k".into(), Value::Int(2)),
        ]);
        assert_eq!(v.get_field("k"), Some(&Value::Int(2)));
        if let Value::Object(fields) = &v {
            assert_eq!(fields.len(), 1);
        } else {
            panic!("not an object");
        }
    }

    #[test]
    fn truthiness_is_strict() {
        assert!(Value::Bool(true).is_true());
        assert!(!Value::Bool(false).is_true());
        assert!(!Value::Int(1).is_true());
        assert!(!Value::Null.is_true());
    }

    #[test]
    fn approx_bytes_monotone_in_content() {
        let small = Value::str("ab");
        let big = Value::str("abcdefgh");
        assert!(big.approx_bytes() > small.approx_bytes());
        let arr = Value::Array(vec![small.clone(), big.clone()]);
        assert!(arr.approx_bytes() > small.approx_bytes() + big.approx_bytes());
    }

    #[test]
    fn row_project_and_concat() {
        let r = Row::new(vec![Value::Int(1), Value::str("x"), Value::Bool(true)]);
        let p = r.project(&[2, 0]);
        assert_eq!(p.values(), &[Value::Bool(true), Value::Int(1)]);
        let joined = r.concat(&p);
        assert_eq!(joined.arity(), 5);
        assert_eq!(joined.get(3), &Value::Bool(true));
    }

    #[test]
    fn row_bytes_include_overhead() {
        let empty = Row::new(vec![]);
        assert_eq!(empty.approx_bytes(), 2);
    }
}
