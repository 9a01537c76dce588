//! Typed columnar batches — the MonetDB/X100-style vectorized
//! representation the morsel engine runs on.
//!
//! A [`ColBatch`] holds one typed vector per column ([`Column`]) plus an
//! explicit row count, so empty-arity batches still know their length.
//! Typed columns (`Int`/`Float`/`Bool`/`Str`) carry a null bitmap
//! ([`Nulls`]); null slots hold a default payload (`0`, `0.0`, `false`,
//! `""`) and are masked out on read. A string column's payload is one UTF-8
//! buffer plus a `u32` end offset per slot ([`Strs`], the Arrow layout), so
//! gathering, slicing or appending strings copies bytes and allocates per
//! column, not per cell. A column of string arrays (a log's `hashtags`) is
//! a list column ([`StrLists`]): every item in one child [`Strs`], plus an
//! end offset per slot into its items. Columns whose values mix types — or
//! hold any other array, or objects — fall back to a [`Column::Mixed`]
//! vector of boxed [`Value`]s, so **every** row set pivots losslessly:
//! `rows → ColBatch → rows` is an identity (see the round-trip tests and
//! the generated matrices of `tests/batch_prop.rs`).
//!
//! Reads go through [`Cell`], a borrowed scalar view and the one home of
//! the scalar semantics — cross-type equality, ordering, hashing, numeric
//! reading and byte charge (Int/Float compare exactly, NaN is self-equal
//! and sorts last, ±0.0 coincide). `Value`'s impls read through
//! [`Cell::of`], so no `Value` is materialized to compare a slot and no
//! second copy of the rules exists. The engine's columnar operators
//! consume cells for the generic path and reach into the typed payloads
//! ([`Slots`]) for the fast paths.

use crate::value::{Row, Value};
use std::cmp::Ordering;
use std::hash::{Hash, Hasher};
use std::sync::Arc;

/// Null bitmap: bit `i` set ⇒ slot `i` is NULL. An empty word vector means
/// "no nulls", so all-valid columns pay nothing.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct Nulls {
    words: Vec<u64>,
}

impl Nulls {
    /// A bitmap with no nulls set.
    pub fn none() -> Nulls {
        Nulls::default()
    }

    /// Is slot `i` null? Out-of-range bits read as valid.
    #[inline]
    pub fn is_null(&self, i: usize) -> bool {
        self.words
            .get(i / 64)
            .is_some_and(|w| (w >> (i % 64)) & 1 == 1)
    }

    /// Marks slot `i` null, growing the word vector as needed.
    pub fn set(&mut self, i: usize) {
        let word = i / 64;
        if self.words.len() <= word {
            self.words.resize(word + 1, 0);
        }
        self.words[word] |= 1u64 << (i % 64);
    }

    /// True iff any slot is null.
    pub fn any(&self) -> bool {
        self.words.iter().any(|w| *w != 0)
    }

    /// How many slots are null.
    pub fn count(&self) -> u64 {
        self.words.iter().map(|w| u64::from(w.count_ones())).sum()
    }

    /// Marks null every slot `other` marks, shifted `offset` slots up: the
    /// bitmap of a column extended at `offset` by `other`'s column.
    fn set_shifted(&mut self, other: &Nulls, offset: usize) {
        for (w, &word) in other.words.iter().enumerate() {
            let mut bits = word;
            while bits != 0 {
                self.set(offset + w * 64 + bits.trailing_zeros() as usize);
                bits &= bits - 1;
            }
        }
    }

    /// Keeps slots `0..n` only, as [`Nulls::set`] would have built them
    /// (no trailing all-valid words).
    fn truncate(&mut self, n: usize) {
        self.words.truncate(n.div_ceil(64));
        if let (Some(last), false) = (self.words.get_mut(n / 64), n.is_multiple_of(64)) {
            *last &= (1u64 << (n % 64)) - 1;
        }
        while self.words.last() == Some(&0) {
            self.words.pop();
        }
    }

    /// The bitmap of slots `0..n`, as [`Nulls::set`] would have built it
    /// (no trailing all-valid words).
    fn head(&self, n: usize) -> Nulls {
        let words = self.words[..n.div_ceil(64).min(self.words.len())].to_vec();
        let mut head = Nulls { words };
        head.truncate(n);
        head
    }
}

/// The payload of a string column: every slot's bytes in one UTF-8 buffer,
/// and where each slot ends in it. Slot `i` is `bytes[end(i − 1)..end(i)]`,
/// with `end(−1) = 0`; a NULL slot is empty. Offsets are `u32`, so a column
/// holds at most 4 GiB of text: past that, a push panics with a message
/// instead of wrapping.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct Strs {
    bytes: String,
    ends: Vec<u32>,
}

/// The end offset of a slot that ends `len` bytes into the buffer.
fn end_offset(len: usize) -> u32 {
    u32::try_from(len).expect("a string column holds at most 4 GiB of text")
}

impl Strs {
    /// Number of slots.
    pub fn len(&self) -> usize {
        self.ends.len()
    }

    /// True iff there are no slots.
    pub fn is_empty(&self) -> bool {
        self.ends.is_empty()
    }

    /// Slot `i`.
    #[inline]
    pub fn get(&self, i: usize) -> &str {
        let start = if i == 0 { 0 } else { self.ends[i - 1] };
        &self.bytes[start as usize..self.ends[i] as usize]
    }

    /// The slots in order.
    fn iter(&self) -> impl Iterator<Item = &str> + '_ {
        (0..self.len()).map(|i| self.get(i))
    }

    /// Appends a slot holding `s`.
    #[inline]
    pub(crate) fn push(&mut self, s: &str) {
        self.bytes.push_str(s);
        self.ends.push(end_offset(self.bytes.len()));
    }

    /// Keeps the first `n` slots.
    fn truncate(&mut self, n: usize) {
        let end = if n == 0 { 0 } else { self.ends[n - 1] };
        self.bytes.truncate(end as usize);
        self.ends.truncate(n);
    }

    /// Room for `slots` more slots holding `bytes` more text.
    fn reserve(&mut self, slots: usize, bytes: usize) {
        self.ends.reserve(slots);
        self.bytes.reserve(bytes);
    }

    /// Appends every slot of `other`: its text, and its offsets shifted by
    /// the text already held.
    fn extend(&mut self, other: &Strs) {
        let base = end_offset(self.bytes.len());
        self.bytes.push_str(&other.bytes);
        // The last shifted offset is the largest: checking it checks them all.
        end_offset(self.bytes.len());
        self.ends.extend(other.ends.iter().map(|end| base + end));
    }

    /// The first `n` slots.
    fn head(&self, n: usize) -> Strs {
        let end = if n == 0 { 0 } else { self.ends[n - 1] };
        Strs {
            bytes: self.bytes[..end as usize].to_string(),
            ends: self.ends[..n].to_vec(),
        }
    }
}

/// The payload of a list column: every slot's strings, in order, in one
/// child [`Strs`], and where each slot's items end in it. Slot `i` is items
/// `end(i − 1)..end(i)`, with `end(−1) = 0`; a NULL slot holds none.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct StrLists {
    items: Strs,
    ends: Vec<u32>,
}

impl StrLists {
    /// Number of slots.
    pub fn len(&self) -> usize {
        self.ends.len()
    }

    /// True iff there are no slots.
    pub fn is_empty(&self) -> bool {
        self.ends.is_empty()
    }

    /// Slot `i`.
    #[inline]
    pub fn get(&self, i: usize) -> StrList<'_> {
        let start = if i == 0 { 0 } else { self.ends[i - 1] };
        StrList {
            items: &self.items,
            start: start as usize,
            end: self.ends[i] as usize,
        }
    }

    /// The slots in order.
    fn iter(&self) -> impl Iterator<Item = StrList<'_>> + '_ {
        (0..self.len()).map(|i| self.get(i))
    }

    /// Appends a slot holding `items`.
    fn push<'a>(&mut self, items: impl IntoIterator<Item = &'a str>) {
        for item in items {
            self.push_item(item);
        }
        self.close();
    }

    /// Appends an item to the slot being built, which [`StrLists::close`]
    /// ends.
    #[inline]
    pub(crate) fn push_item(&mut self, item: &str) {
        self.items.push(item);
    }

    /// Ends the slot being built: it holds the items pushed since the last
    /// slot ended.
    #[inline]
    pub(crate) fn close(&mut self) {
        self.ends.push(item_offset(self.items.len()));
    }

    /// Keeps the first `n` slots, dropping any item pushed after them.
    fn truncate(&mut self, n: usize) {
        let end = if n == 0 { 0 } else { self.ends[n - 1] };
        self.items.truncate(end as usize);
        self.ends.truncate(n);
    }

    /// Appends every slot of `other`: its items, and its ends shifted by the
    /// items already held.
    fn extend(&mut self, other: &StrLists) {
        let base = item_offset(self.items.len());
        self.items.extend(&other.items);
        // The last shifted end is the largest: checking it checks them all.
        item_offset(self.items.len());
        self.ends.extend(other.ends.iter().map(|end| base + end));
    }

    /// The first `n` slots.
    fn head(&self, n: usize) -> StrLists {
        let end = if n == 0 { 0 } else { self.ends[n - 1] };
        StrLists {
            items: self.items.head(end as usize),
            ends: self.ends[..n].to_vec(),
        }
    }
}

/// The end offset of a list slot that ends `n` items into the child.
fn item_offset(n: usize) -> u32 {
    u32::try_from(n).expect("a list column holds at most 2^32 items")
}

/// One slot of a list column, borrowed: the equivalent of a `Value::Array`
/// of `Value::Str`s, read in place.
#[derive(Clone, Copy, Debug)]
pub struct StrList<'a> {
    items: &'a Strs,
    start: usize,
    end: usize,
}

impl<'a> StrList<'a> {
    /// Number of items.
    pub fn len(&self) -> usize {
        self.end - self.start
    }

    /// True iff the list has no items.
    pub fn is_empty(&self) -> bool {
        self.start == self.end
    }

    /// The items in order.
    pub fn iter(&self) -> impl Iterator<Item = &'a str> + 'a {
        let items = self.items;
        (self.start..self.end).map(move |k| items.get(k))
    }

    /// The equivalent owned `Value::Array`.
    pub fn to_value(&self) -> Value {
        Value::Array(self.iter().map(Value::str).collect())
    }
}

/// A typed column's payload, read slot by slot: a vector for the
/// fixed-width variants, [`Strs`] for strings. What lets one typed kernel
/// read any variant's slots by reference, as `&i64` or `&str`.
pub trait Slots {
    type Slot: ?Sized;
    fn slot(&self, i: usize) -> &Self::Slot;
}

impl<T> Slots for Vec<T> {
    type Slot = T;
    #[inline]
    fn slot(&self, i: usize) -> &T {
        &self[i]
    }
}

impl Slots for Strs {
    type Slot = str;
    #[inline]
    fn slot(&self, i: usize) -> &str {
        self.get(i)
    }
}

/// One typed column vector. Null slots in typed variants hold a default
/// payload and are masked by the bitmap; `StrList` holds arrays of strings;
/// `Mixed` stores `Value`s verbatim (including `Value::Null`) for columns
/// that fit neither a single scalar type nor a list of strings.
#[derive(Clone, Debug, PartialEq)]
pub enum Column {
    Int(Vec<i64>, Nulls),
    Float(Vec<f64>, Nulls),
    Bool(Vec<bool>, Nulls),
    Str(Strs, Nulls),
    StrList(StrLists, Nulls),
    Mixed(Vec<Value>),
}

/// A borrowed scalar view of one slot, and the one definition of how
/// values order, compare, hash and size: `Value`'s impls go through
/// [`Cell::of`]. `Val` only ever carries the container types
/// (`Array`/`Object`) — `Cell::of` is its only constructor, and it unwraps
/// scalars into the typed variants so every consumer handles one shape per
/// type. `StrList` is a list column's slot — an array of strings that a
/// `Mixed` column would carry as `Val` — and behaves as that array.
#[derive(Clone, Copy, Debug)]
pub enum Cell<'a> {
    Null,
    Bool(bool),
    Int(i64),
    Float(f64),
    Str(&'a str),
    StrList(StrList<'a>),
    Val(&'a Value),
}

/// Total order on floats: ordinary order, with NaN greater than everything
/// and equal to itself.
#[inline]
fn cmp_f64(a: f64, b: f64) -> Ordering {
    match (a.is_nan(), b.is_nan()) {
        (true, true) => Ordering::Equal,
        (true, false) => Ordering::Greater,
        (false, true) => Ordering::Less,
        (false, false) => a.partial_cmp(&b).expect("non-NaN floats compare"),
    }
}

/// Exact order of an Int against a Float, so that numeric equality stays
/// transitive past 2^53, where `i as f64` rounds. NaN is above every Int;
/// a float at or past 2^63 is above every Int and one below −2^63 below
/// every Int; any other float meets the Int at its integer part, and a tie
/// goes by the sign of its fraction.
#[inline]
fn cmp_int_float(i: i64, f: f64) -> Ordering {
    const TWO_63: f64 = 9_223_372_036_854_775_808.0;
    if f.is_nan() || f >= TWO_63 {
        Ordering::Less
    } else if f < -TWO_63 {
        Ordering::Greater
    } else {
        let whole = f.trunc();
        i.cmp(&(whole as i64)).then_with(|| cmp_f64(whole, f))
    }
}

/// `Vec<Value>`'s lexicographic order over two item sequences.
fn cmp_items<'x, 'y>(
    mut a: impl Iterator<Item = Cell<'x>>,
    mut b: impl Iterator<Item = Cell<'y>>,
) -> Ordering {
    loop {
        match (a.next(), b.next()) {
            (None, None) => return Ordering::Equal,
            (None, Some(_)) => return Ordering::Less,
            (Some(_), None) => return Ordering::Greater,
            (Some(x), Some(y)) => match x.cmp_cell(&y) {
                Ordering::Equal => {}
                ord => return ord,
            },
        }
    }
}

/// An object's fields as one item sequence — each key, then its value —
/// whose [`cmp_items`] order is `Vec<(String, Value)>`'s.
fn field_cells(fields: &[(String, Value)]) -> impl Iterator<Item = Cell<'_>> {
    fields.iter().flat_map(|(k, v)| [Cell::Str(k), Cell::of(v)])
}

impl<'a> Cell<'a> {
    /// Wraps a borrowed `Value`, unwrapping scalars.
    #[inline]
    pub fn of(v: &'a Value) -> Cell<'a> {
        match v {
            Value::Null => Cell::Null,
            Value::Bool(b) => Cell::Bool(*b),
            Value::Int(i) => Cell::Int(*i),
            Value::Float(f) => Cell::Float(*f),
            Value::Str(s) => Cell::Str(s),
            other => Cell::Val(other),
        }
    }

    /// True iff this is the NULL cell.
    #[inline]
    pub fn is_null(&self) -> bool {
        matches!(self, Cell::Null)
    }

    /// Owned `Value` (clones strings/containers).
    pub fn to_value(&self) -> Value {
        match self {
            Cell::Null => Value::Null,
            Cell::Bool(b) => Value::Bool(*b),
            Cell::Int(i) => Value::Int(*i),
            Cell::Float(f) => Value::Float(*f),
            Cell::Str(s) => Value::Str((*s).to_string()),
            Cell::StrList(l) => l.to_value(),
            Cell::Val(v) => (*v).clone(),
        }
    }

    /// Integer view: Int only, no float coercion — lossy casts are
    /// explicit in the expression layer.
    #[inline]
    pub fn as_i64(&self) -> Option<i64> {
        match self {
            Cell::Int(i) => Some(*i),
            _ => None,
        }
    }

    /// Numeric view, if this is an Int or Float.
    #[inline]
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Cell::Int(i) => Some(*i as f64),
            Cell::Float(f) => Some(*f),
            _ => None,
        }
    }

    /// The rank that orders cells of different types.
    fn type_rank(&self) -> u8 {
        match self {
            Cell::Null => 0,
            Cell::Bool(_) => 1,
            Cell::Int(_) | Cell::Float(_) => 2,
            Cell::Str(_) => 3,
            Cell::StrList(_) | Cell::Val(Value::Array(_)) => 4,
            Cell::Val(_) => 5,
        }
    }

    /// The total order on values: numbers compare exactly across Int and
    /// Float, NaN sorts last among numbers and equals itself, arrays and
    /// objects compare as `Vec<Value>` and `Vec<(String, Value)>` do, and
    /// different types by rank: null < bool < number < string < array <
    /// object.
    #[inline]
    pub fn cmp_cell(&self, other: &Cell<'_>) -> Ordering {
        match (self, other) {
            (Cell::Null, Cell::Null) => Ordering::Equal,
            (Cell::Bool(a), Cell::Bool(b)) => a.cmp(b),
            (Cell::Int(a), Cell::Int(b)) => a.cmp(b),
            (Cell::Int(a), Cell::Float(b)) => cmp_int_float(*a, *b),
            (Cell::Float(a), Cell::Int(b)) => cmp_int_float(*b, *a).reverse(),
            (Cell::Float(a), Cell::Float(b)) => cmp_f64(*a, *b),
            (Cell::Str(a), Cell::Str(b)) => a.cmp(b),
            (Cell::StrList(a), Cell::StrList(b)) => a.iter().cmp(b.iter()),
            (Cell::StrList(a), Cell::Val(Value::Array(b))) => {
                cmp_items(a.iter().map(Cell::Str), b.iter().map(Cell::of))
            }
            (Cell::Val(Value::Array(a)), Cell::StrList(b)) => {
                cmp_items(a.iter().map(Cell::of), b.iter().map(Cell::Str))
            }
            (Cell::Val(Value::Array(a)), Cell::Val(Value::Array(b))) => {
                cmp_items(a.iter().map(Cell::of), b.iter().map(Cell::of))
            }
            (Cell::Val(Value::Object(a)), Cell::Val(Value::Object(b))) => {
                cmp_items(field_cells(a), field_cells(b))
            }
            (a, b) => a.type_rank().cmp(&b.type_rank()),
        }
    }

    /// [`Cell::cmp_cell`] against an owned value.
    #[inline]
    pub fn cmp_value(&self, other: &Value) -> Ordering {
        self.cmp_cell(&Cell::of(other))
    }

    /// Equality against an owned value.
    #[inline]
    pub fn eq_value(&self, other: &Value) -> bool {
        self.cmp_value(other) == Ordering::Equal
    }

    /// Footprint charge: what the simulated stores charge for a value.
    pub fn approx_bytes(&self) -> u64 {
        match self {
            Cell::Null | Cell::Bool(_) => 1,
            Cell::Int(_) | Cell::Float(_) => 8,
            Cell::Str(s) => 4 + s.len() as u64,
            Cell::StrList(l) => 4 + l.iter().map(|s| 4 + s.len() as u64).sum::<u64>(),
            Cell::Val(Value::Array(items)) => {
                4 + items
                    .iter()
                    .map(|v| Cell::of(v).approx_bytes())
                    .sum::<u64>()
            }
            Cell::Val(Value::Object(fields)) => {
                4 + fields
                    .iter()
                    .map(|(k, v)| 2 + k.len() as u64 + Cell::of(v).approx_bytes())
                    .sum::<u64>()
            }
            Cell::Val(v) => unreachable!("Cell::of unwraps scalar {v:?}"),
        }
    }
}

impl PartialEq for Cell<'_> {
    fn eq(&self, other: &Self) -> bool {
        self.cmp_cell(other) == Ordering::Equal
    }
}

/// The hash stream join and group keys hash to; an array or object writes
/// what `Vec<Value>` / `Vec<(String, Value)>` would: its length, then each
/// item's stream.
impl Hash for Cell<'_> {
    fn hash<H: Hasher>(&self, state: &mut H) {
        match self {
            Cell::Null => 0u8.hash(state),
            Cell::Bool(b) => {
                1u8.hash(state);
                b.hash(state);
            }
            // An Int hashes as the float nearest it, so an Int and the Float
            // equal to it hash alike; Ints past 2^53 that round to one float
            // share a hash, and equality tells them apart.
            Cell::Int(i) => {
                2u8.hash(state);
                Value::float_bits(*i as f64).hash(state);
            }
            Cell::Float(f) => {
                2u8.hash(state);
                Value::float_bits(*f).hash(state);
            }
            Cell::Str(s) => {
                3u8.hash(state);
                s.hash(state);
            }
            Cell::StrList(l) => {
                4u8.hash(state);
                state.write_usize(l.len());
                l.iter().for_each(|s| Cell::Str(s).hash(state));
            }
            Cell::Val(Value::Array(items)) => {
                4u8.hash(state);
                state.write_usize(items.len());
                items.iter().for_each(|v| Cell::of(v).hash(state));
            }
            Cell::Val(Value::Object(fields)) => {
                5u8.hash(state);
                state.write_usize(fields.len());
                for (k, v) in fields {
                    k.hash(state);
                    Cell::of(v).hash(state);
                }
            }
            Cell::Val(v) => unreachable!("Cell::of unwraps scalar {v:?}"),
        }
    }
}

impl Column {
    /// Number of slots.
    pub fn len(&self) -> usize {
        match self {
            Column::Int(v, _) => v.len(),
            Column::Float(v, _) => v.len(),
            Column::Bool(v, _) => v.len(),
            Column::Str(v, _) => v.len(),
            Column::StrList(v, _) => v.len(),
            Column::Mixed(v) => v.len(),
        }
    }

    /// True iff the column has no slots.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Is slot `i` null?
    #[inline]
    pub fn is_null(&self, i: usize) -> bool {
        match self {
            Column::Int(_, n)
            | Column::Float(_, n)
            | Column::Bool(_, n)
            | Column::Str(_, n)
            | Column::StrList(_, n) => n.is_null(i),
            Column::Mixed(v) => v[i].is_null(),
        }
    }

    /// Borrowed scalar view of slot `i`.
    #[inline]
    pub fn cell(&self, i: usize) -> Cell<'_> {
        match self {
            Column::Int(v, n) => {
                if n.is_null(i) {
                    Cell::Null
                } else {
                    Cell::Int(v[i])
                }
            }
            Column::Float(v, n) => {
                if n.is_null(i) {
                    Cell::Null
                } else {
                    Cell::Float(v[i])
                }
            }
            Column::Bool(v, n) => {
                if n.is_null(i) {
                    Cell::Null
                } else {
                    Cell::Bool(v[i])
                }
            }
            Column::Str(v, n) => {
                if n.is_null(i) {
                    Cell::Null
                } else {
                    Cell::Str(v.get(i))
                }
            }
            Column::StrList(v, n) => {
                if n.is_null(i) {
                    Cell::Null
                } else {
                    Cell::StrList(v.get(i))
                }
            }
            Column::Mixed(v) => Cell::of(&v[i]),
        }
    }

    /// Owned `Value` of slot `i`.
    pub fn value(&self, i: usize) -> Value {
        self.cell(i).to_value()
    }

    /// Copies the slots at `sel` (in order) into a new column.
    pub fn gather(&self, sel: &[u32]) -> Column {
        fn pick<T: Clone + Default>(v: &[T], n: &Nulls, sel: &[u32]) -> (Vec<T>, Nulls) {
            let mut out = Vec::with_capacity(sel.len());
            let mut nulls = Nulls::none();
            for (j, &i) in sel.iter().enumerate() {
                if n.is_null(i as usize) {
                    nulls.set(j);
                    out.push(T::default());
                } else {
                    out.push(v[i as usize].clone());
                }
            }
            (out, nulls)
        }
        match self {
            Column::Int(v, n) => {
                let (out, nulls) = pick(v, n, sel);
                Column::Int(out, nulls)
            }
            Column::Float(v, n) => {
                let (out, nulls) = pick(v, n, sel);
                Column::Float(out, nulls)
            }
            Column::Bool(v, n) => {
                let (out, nulls) = pick(v, n, sel);
                Column::Bool(out, nulls)
            }
            Column::Str(v, n) => {
                let mut out = Strs {
                    bytes: String::with_capacity(v.bytes.len() / v.len().max(1) * sel.len()),
                    ends: Vec::with_capacity(sel.len()),
                };
                let mut nulls = Nulls::none();
                for (j, &i) in sel.iter().enumerate() {
                    if n.is_null(i as usize) {
                        nulls.set(j);
                    }
                    // A NULL slot holds no text: copying it copies nothing.
                    out.push(v.get(i as usize));
                }
                Column::Str(out, nulls)
            }
            Column::StrList(v, n) => {
                // Room for the picked slots at the column's average sizes.
                let slots = v.len().max(1);
                let items = Strs {
                    bytes: String::with_capacity(v.items.bytes.len() / slots * sel.len()),
                    ends: Vec::with_capacity(v.items.len().div_ceil(slots) * sel.len()),
                };
                let mut out = StrLists {
                    items,
                    ends: Vec::with_capacity(sel.len()),
                };
                let mut nulls = Nulls::none();
                for (j, &i) in sel.iter().enumerate() {
                    if n.is_null(i as usize) {
                        nulls.set(j);
                    }
                    out.push(v.get(i as usize).iter());
                }
                Column::StrList(out, nulls)
            }
            Column::Mixed(v) => Column::Mixed(sel.iter().map(|&i| v[i as usize].clone()).collect()),
        }
    }

    /// Copies the first `n` slots into a new column: a slice of the payload
    /// and of the bitmap.
    pub fn head(&self, n: usize) -> Column {
        let n = n.min(self.len());
        match self {
            Column::Int(v, nulls) => Column::Int(v[..n].to_vec(), nulls.head(n)),
            Column::Float(v, nulls) => Column::Float(v[..n].to_vec(), nulls.head(n)),
            Column::Bool(v, nulls) => Column::Bool(v[..n].to_vec(), nulls.head(n)),
            Column::Str(v, nulls) => Column::Str(v.head(n), nulls.head(n)),
            Column::StrList(v, nulls) => Column::StrList(v.head(n), nulls.head(n)),
            Column::Mixed(v) => Column::Mixed(v[..n].to_vec()),
        }
    }

    /// Whether this is the column a [`ColBuilder`] makes of its own cells: a
    /// typed column with a non-NULL slot, or a `Mixed` one that is all NULL or
    /// that a builder would have degraded. (A gather can leave a typed column
    /// all NULL, or a `Mixed` one of a single scalar type.) A column passed on
    /// only when this holds is exactly the column rebuilding it would give.
    pub fn is_canonical(&self) -> bool {
        let typed = |len: usize, nulls: &Nulls| nulls.count() < len as u64;
        match self {
            Column::Int(v, n) => typed(v.len(), n),
            Column::Float(v, n) => typed(v.len(), n),
            Column::Bool(v, n) => typed(v.len(), n),
            Column::Str(v, n) => typed(v.len(), n),
            Column::StrList(v, n) => typed(v.len(), n),
            Column::Mixed(v) => degrades_builder(v) || v.iter().all(Value::is_null),
        }
    }

    /// Concatenates parts in order. Parts that classified differently
    /// (possible when producers chunk independently) degrade to `Mixed`.
    /// The result is the column one builder would have produced from the
    /// parts' values pushed in order; parts of the builder's variant extend
    /// it in bulk.
    pub fn concat(mut parts: Vec<Column>) -> Column {
        if parts.len() == 1 {
            return parts.pop().expect("one part");
        }
        let mut parts = parts.into_iter();
        let mut b = parts
            .next()
            .map_or_else(ColBuilder::new, ColBuilder::resume);
        b.reserve_parts(parts.as_slice());
        for part in parts {
            b.push_column(part);
        }
        b.finish()
    }

    /// Extends this column in place with `part`; the result equals
    /// `Column::concat(vec![self, part])` without copying the typed prefix.
    pub fn append(&mut self, part: Column) {
        let mut b = ColBuilder::resume(std::mem::replace(self, Column::Mixed(Vec::new())));
        b.reserve_parts(std::slice::from_ref(&part));
        b.push_column(part);
        *self = b.finish();
    }

    /// Footprint of the column's cells, summing [`Cell::approx_bytes`]: a
    /// NULL is 1 byte and a typed payload a fixed width (a string 4 bytes
    /// plus its text, a list 4 bytes plus its strings', and a NULL slot
    /// holds none), so a typed column is summed from its null count and its
    /// buffers' sizes without visiting the cells.
    pub fn approx_bytes(&self) -> u64 {
        let fixed = |len: usize, nulls: &Nulls| 8 * len as u64 - 7 * nulls.count();
        match self {
            Column::Int(v, n) => fixed(v.len(), n),
            Column::Float(v, n) => fixed(v.len(), n),
            Column::Bool(v, _) => v.len() as u64,
            Column::Str(v, n) => 4 * v.len() as u64 + v.bytes.len() as u64 - 3 * n.count(),
            Column::StrList(v, n) => {
                let items = 4 * v.items.len() as u64 + v.items.bytes.len() as u64;
                4 * v.len() as u64 + items - 3 * n.count()
            }
            Column::Mixed(v) => v.iter().map(Value::approx_bytes).sum(),
        }
    }
}

/// Incremental column builder. Starts untyped, commits to the variant of
/// the first non-null push — `StrList` for an array whose items are all
/// strings — and degrades to `Mixed` on a type clash or any other container
/// — never lossy.
#[derive(Debug)]
pub enum ColBuilder {
    /// Only nulls pushed so far.
    Unknown(usize),
    Int(Vec<i64>, Nulls),
    Float(Vec<f64>, Nulls),
    Bool(Vec<bool>, Nulls),
    Str(Strs, Nulls),
    StrList(StrLists, Nulls),
    Mixed(Vec<Value>),
}

impl Default for ColBuilder {
    fn default() -> Self {
        ColBuilder::new()
    }
}

impl ColBuilder {
    pub fn new() -> ColBuilder {
        ColBuilder::Unknown(0)
    }

    /// Slots pushed so far.
    pub fn len(&self) -> usize {
        match self {
            ColBuilder::Unknown(n) => *n,
            ColBuilder::Int(v, _) => v.len(),
            ColBuilder::Float(v, _) => v.len(),
            ColBuilder::Bool(v, _) => v.len(),
            ColBuilder::Str(v, _) => v.len(),
            ColBuilder::StrList(v, _) => v.len(),
            ColBuilder::Mixed(v) => v.len(),
        }
    }

    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Reserves capacity for `extra` more slots.
    pub fn reserve(&mut self, extra: usize) {
        match self {
            ColBuilder::Unknown(_) => {}
            ColBuilder::Int(v, _) => v.reserve(extra),
            ColBuilder::Float(v, _) => v.reserve(extra),
            ColBuilder::Bool(v, _) => v.reserve(extra),
            ColBuilder::Str(v, _) => v.ends.reserve(extra),
            ColBuilder::StrList(v, _) => v.ends.reserve(extra),
            ColBuilder::Mixed(v) => v.reserve(extra),
        }
    }

    /// Reserves room for `parts` pushed after what the builder holds: their
    /// slots, and — for a string or list builder — exactly their text and
    /// items, so that pushing them moves no buffer.
    fn reserve_parts(&mut self, parts: &[Column]) {
        let slots = parts.iter().map(Column::len).sum();
        let (mut items, mut text) = (0, 0);
        for part in parts {
            match part {
                Column::Str(s, _) => text += s.bytes.len(),
                Column::StrList(l, _) => {
                    items += l.items.len();
                    text += l.items.bytes.len();
                }
                _ => {}
            }
        }
        match self {
            ColBuilder::Str(v, _) => v.reserve(slots, text),
            ColBuilder::StrList(v, _) => {
                v.ends.reserve(slots);
                v.items.reserve(items, text);
            }
            _ => self.reserve(slots),
        }
    }

    /// Drops every slot pushed after the first `n`: the builder as it stood
    /// then, provided no push since changed its variant.
    pub(crate) fn truncate(&mut self, n: usize) {
        match self {
            ColBuilder::Unknown(len) => *len = (*len).min(n),
            ColBuilder::Int(v, nulls) => {
                v.truncate(n);
                nulls.truncate(n);
            }
            ColBuilder::Float(v, nulls) => {
                v.truncate(n);
                nulls.truncate(n);
            }
            ColBuilder::Bool(v, nulls) => {
                v.truncate(n);
                nulls.truncate(n);
            }
            ColBuilder::Str(v, nulls) => {
                v.truncate(n);
                nulls.truncate(n);
            }
            ColBuilder::StrList(v, nulls) => {
                v.truncate(n);
                nulls.truncate(n);
            }
            ColBuilder::Mixed(v) => v.truncate(n),
        }
    }

    /// Rewrites the accumulated prefix as boxed `Value`s (type clash).
    fn degrade(&mut self) -> &mut Vec<Value> {
        let values: Vec<Value> = match std::mem::replace(self, ColBuilder::Unknown(0)) {
            ColBuilder::Unknown(n) => vec![Value::Null; n],
            ColBuilder::Int(v, n) => materialize(v, n, Value::Int),
            ColBuilder::Float(v, n) => materialize(v, n, Value::Float),
            ColBuilder::Bool(v, n) => materialize(v, n, Value::Bool),
            ColBuilder::Str(v, n) => materialize(v.iter(), n, Value::str),
            ColBuilder::StrList(v, n) => materialize(v.iter(), n, |l| l.to_value()),
            ColBuilder::Mixed(v) => v,
        };
        *self = ColBuilder::Mixed(values);
        match self {
            ColBuilder::Mixed(v) => v,
            _ => unreachable!("just assigned Mixed"),
        }
    }

    pub fn push_null(&mut self) {
        match self {
            ColBuilder::Unknown(n) => *n += 1,
            ColBuilder::Int(v, n) => {
                n.set(v.len());
                v.push(0);
            }
            ColBuilder::Float(v, n) => {
                n.set(v.len());
                v.push(0.0);
            }
            ColBuilder::Bool(v, n) => {
                n.set(v.len());
                v.push(false);
            }
            ColBuilder::Str(v, n) => {
                n.set(v.len());
                v.push("");
            }
            ColBuilder::StrList(v, n) => {
                n.set(v.len());
                v.push([]);
            }
            ColBuilder::Mixed(v) => v.push(Value::Null),
        }
    }

    pub fn push_i64(&mut self, x: i64) {
        match self {
            ColBuilder::Unknown(n) => {
                let mut v = Vec::with_capacity(*n + 1);
                let mut nulls = Nulls::none();
                for i in 0..*n {
                    nulls.set(i);
                    v.push(0);
                }
                v.push(x);
                *self = ColBuilder::Int(v, nulls);
            }
            ColBuilder::Int(v, _) => v.push(x),
            _ => self.degrade().push(Value::Int(x)),
        }
    }

    pub fn push_f64(&mut self, x: f64) {
        match self {
            ColBuilder::Unknown(n) => {
                let mut v = Vec::with_capacity(*n + 1);
                let mut nulls = Nulls::none();
                for i in 0..*n {
                    nulls.set(i);
                    v.push(0.0);
                }
                v.push(x);
                *self = ColBuilder::Float(v, nulls);
            }
            ColBuilder::Float(v, _) => v.push(x),
            _ => self.degrade().push(Value::Float(x)),
        }
    }

    pub fn push_bool(&mut self, x: bool) {
        match self {
            ColBuilder::Unknown(n) => {
                let mut v = Vec::with_capacity(*n + 1);
                let mut nulls = Nulls::none();
                for i in 0..*n {
                    nulls.set(i);
                    v.push(false);
                }
                v.push(x);
                *self = ColBuilder::Bool(v, nulls);
            }
            ColBuilder::Bool(v, _) => v.push(x),
            _ => self.degrade().push(Value::Bool(x)),
        }
    }

    /// Copies `x` into the column's text buffer.
    pub fn push_str(&mut self, x: &str) {
        match self {
            ColBuilder::Unknown(n) => {
                let mut v = Strs {
                    bytes: String::new(),
                    ends: vec![0; *n],
                };
                let mut nulls = Nulls::none();
                for i in 0..*n {
                    nulls.set(i);
                }
                v.push(x);
                *self = ColBuilder::Str(v, nulls);
            }
            ColBuilder::Str(v, _) => v.push(x),
            _ => self.degrade().push(Value::str(x)),
        }
    }

    /// Copies `items` into the column's child buffer: the slot an array of
    /// these strings is.
    pub fn push_strs<'a>(&mut self, items: impl IntoIterator<Item = &'a str>) {
        match self {
            ColBuilder::Unknown(n) => {
                let mut v = StrLists {
                    items: Strs::default(),
                    ends: vec![0; *n],
                };
                let mut nulls = Nulls::none();
                for i in 0..*n {
                    nulls.set(i);
                }
                v.push(items);
                *self = ColBuilder::StrList(v, nulls);
            }
            ColBuilder::StrList(v, _) => v.push(items),
            _ => {
                let array = Value::Array(items.into_iter().map(Value::str).collect());
                self.degrade().push(array)
            }
        }
    }

    /// Pushes any `Value`, classifying or degrading as needed.
    pub fn push_value(&mut self, x: Value) {
        match x {
            Value::Null => self.push_null(),
            Value::Int(i) => self.push_i64(i),
            Value::Float(f) => self.push_f64(f),
            Value::Bool(b) => self.push_bool(b),
            // Copied into a text buffer; moved into the `Mixed` column any
            // other builder is, or degrades to.
            Value::Str(s) if matches!(self, ColBuilder::Unknown(_) | ColBuilder::Str(..)) => {
                self.push_str(&s)
            }
            Value::Array(items)
                if matches!(self, ColBuilder::Unknown(_) | ColBuilder::StrList(..))
                    && all_strs(&items) =>
            {
                self.push_strs(items.iter().filter_map(Value::as_str))
            }
            other => self.degrade().push(other),
        }
    }

    /// The builder that has been pushed `col`'s slots, in order, taking over
    /// `col`'s vectors where they are already what it would hold: so resuming
    /// costs nothing for a typed column or a degraded `Mixed` one.
    pub fn resume(col: Column) -> ColBuilder {
        match col {
            col if !col.is_canonical() => {
                // All NULL, or a `Mixed` column of one scalar type: re-pushing
                // (moves, no clones) classifies it as a builder would have.
                let mut b = ColBuilder::new();
                b.push_column(col);
                b
            }
            Column::Int(v, n) => ColBuilder::Int(v, n),
            Column::Float(v, n) => ColBuilder::Float(v, n),
            Column::Bool(v, n) => ColBuilder::Bool(v, n),
            Column::Str(v, n) => ColBuilder::Str(v, n),
            Column::StrList(v, n) => ColBuilder::StrList(v, n),
            // What an `Unknown` builder finishes to.
            Column::Mixed(v) if v.iter().all(Value::is_null) => ColBuilder::Unknown(v.len()),
            // A builder that degraded never leaves `Mixed`.
            Column::Mixed(v) => ColBuilder::Mixed(v),
        }
    }

    /// Pushes every slot of `part`, in order. A part of the builder's own
    /// variant extends it in bulk: payload appended, bitmap shifted in.
    pub fn push_column(&mut self, part: Column) {
        match (&mut *self, part) {
            (ColBuilder::Int(v, n), Column::Int(pv, pn)) => {
                n.set_shifted(&pn, v.len());
                v.extend(pv);
            }
            (ColBuilder::Float(v, n), Column::Float(pv, pn)) => {
                n.set_shifted(&pn, v.len());
                v.extend(pv);
            }
            (ColBuilder::Bool(v, n), Column::Bool(pv, pn)) => {
                n.set_shifted(&pn, v.len());
                v.extend(pv);
            }
            (ColBuilder::Str(v, n), Column::Str(pv, pn)) => {
                n.set_shifted(&pn, v.len());
                v.extend(&pv);
            }
            (ColBuilder::StrList(v, n), Column::StrList(pv, pn)) => {
                n.set_shifted(&pn, v.len());
                v.extend(&pv);
            }
            (_, part) => self.push_slots(part),
        }
    }

    /// [`ColBuilder::push_column`] a slot at a time.
    fn push_slots(&mut self, part: Column) {
        match part {
            Column::Int(v, n) => {
                for (i, x) in v.into_iter().enumerate() {
                    if n.is_null(i) {
                        self.push_null();
                    } else {
                        self.push_i64(x);
                    }
                }
            }
            Column::Float(v, n) => {
                for (i, x) in v.into_iter().enumerate() {
                    if n.is_null(i) {
                        self.push_null();
                    } else {
                        self.push_f64(x);
                    }
                }
            }
            Column::Bool(v, n) => {
                for (i, x) in v.into_iter().enumerate() {
                    if n.is_null(i) {
                        self.push_null();
                    } else {
                        self.push_bool(x);
                    }
                }
            }
            Column::Str(v, n) => {
                for (i, x) in v.iter().enumerate() {
                    if n.is_null(i) {
                        self.push_null();
                    } else {
                        self.push_str(x);
                    }
                }
            }
            Column::StrList(v, n) => {
                for (i, x) in v.iter().enumerate() {
                    if n.is_null(i) {
                        self.push_null();
                    } else {
                        self.push_strs(x.iter());
                    }
                }
            }
            Column::Mixed(v) => {
                for x in v {
                    self.push_value(x);
                }
            }
        }
    }

    pub fn finish(self) -> Column {
        match self {
            // All-null columns have no scalar type; store the nulls verbatim.
            ColBuilder::Unknown(n) => Column::Mixed(vec![Value::Null; n]),
            ColBuilder::Int(v, n) => Column::Int(v, n),
            ColBuilder::Float(v, n) => Column::Float(v, n),
            ColBuilder::Bool(v, n) => Column::Bool(v, n),
            ColBuilder::Str(v, n) => Column::Str(v, n),
            ColBuilder::StrList(v, n) => Column::StrList(v, n),
            ColBuilder::Mixed(v) => Column::Mixed(v),
        }
    }
}

fn materialize<T>(
    v: impl IntoIterator<Item = T>,
    nulls: Nulls,
    wrap: impl Fn(T) -> Value,
) -> Vec<Value> {
    v.into_iter()
        .enumerate()
        .map(|(i, x)| {
            if nulls.is_null(i) {
                Value::Null
            } else {
                wrap(x)
            }
        })
        .collect()
}

/// Whether an array of `items` is a list column's slot: all strings.
fn all_strs(items: &[Value]) -> bool {
    items.iter().all(|v| matches!(v, Value::Str(_)))
}

/// Whether a [`ColBuilder`] fed `values` in order ends up `Mixed`: some value
/// is neither a scalar nor an array of strings, or two non-null values
/// differ in kind. Stops at the first such value.
fn degrades_builder(values: &[Value]) -> bool {
    let mut seen = None;
    for v in values {
        let typed = match v {
            Value::Null => continue,
            Value::Array(items) => all_strs(items),
            Value::Object(_) => false,
            _ => true,
        };
        let kind = std::mem::discriminant(v);
        if !typed || seen.is_some_and(|s| s != kind) {
            return true;
        }
        seen = Some(kind);
    }
    false
}

/// A columnar batch: one [`Column`] per output column plus an explicit row
/// count (columns may be absent entirely for arity-0 rows). Columns are
/// `Arc`-held so a batch can be assembled from columns a store already
/// owns ([`ColBatch::from_shared`]) without copying them; cloning a batch
/// is a refcount bump per column.
#[derive(Clone, Debug, PartialEq)]
pub struct ColBatch {
    columns: Vec<Arc<Column>>,
    len: usize,
}

impl ColBatch {
    /// Builds a batch from columns; all columns must share `len`.
    pub fn from_columns(columns: Vec<Column>, len: usize) -> ColBatch {
        ColBatch::from_shared(columns.into_iter().map(Arc::new).collect(), len)
    }

    /// Builds a batch over columns owned elsewhere; all must share `len`.
    pub fn from_shared(columns: Vec<Arc<Column>>, len: usize) -> ColBatch {
        debug_assert!(columns.iter().all(|c| c.len() == len));
        ColBatch { columns, len }
    }

    /// A batch of `arity` columns and no rows — what an empty row set of a
    /// known schema pivots to ([`ColBatch::from_rows`] cannot know the arity).
    pub fn empty(arity: usize) -> ColBatch {
        ColBatch::from_columns(vec![Column::Mixed(Vec::new()); arity], 0)
    }

    /// Number of rows.
    pub fn len(&self) -> usize {
        self.len
    }

    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Number of columns.
    pub fn arity(&self) -> usize {
        self.columns.len()
    }

    /// The column vectors.
    pub fn columns(&self) -> &[Arc<Column>] {
        &self.columns
    }

    /// The column vectors, consuming the batch.
    pub fn into_columns(self) -> Vec<Arc<Column>> {
        self.columns
    }

    /// Column `c` (panics when out of range — callers gate on arity).
    pub fn col(&self, c: usize) -> &Column {
        &self.columns[c]
    }

    /// Borrowed scalar at (`row`, `col`).
    #[inline]
    pub fn cell(&self, row: usize, col: usize) -> Cell<'_> {
        self.columns[col].cell(row)
    }

    /// Why a boundary refuses the rows [`ColBatch::from_rows`] returns `None`
    /// for.
    pub const RAGGED: &'static str = "rows of differing arity have no columnar form";

    /// Pivots rows into columns. Returns `None` when arities are ragged —
    /// a batch is rectangular by construction, so such inputs stay rows.
    pub fn from_rows(rows: &[Row]) -> Option<ColBatch> {
        let Some(first) = rows.first() else {
            return Some(ColBatch {
                columns: Vec::new(),
                len: 0,
            });
        };
        let arity = first.arity();
        if rows.iter().any(|r| r.arity() != arity) {
            return None;
        }
        let mut builders: Vec<ColBuilder> = (0..arity).map(|_| ColBuilder::new()).collect();
        for b in &mut builders {
            b.reserve(rows.len());
        }
        for row in rows {
            for (b, v) in builders.iter_mut().zip(row.values()) {
                b.push_value(v.clone());
            }
        }
        Some(ColBatch::from_columns(
            builders.into_iter().map(ColBuilder::finish).collect(),
            rows.len(),
        ))
    }

    /// [`ColBatch::from_rows`] for rows of a known arity: no rows pivot to
    /// the empty batch of `arity` columns, not of none.
    pub fn of_rows(arity: usize, rows: &[Row]) -> Option<ColBatch> {
        if rows.is_empty() {
            return Some(ColBatch::empty(arity));
        }
        ColBatch::from_rows(rows)
    }

    /// Row `i`, cloning cell payloads.
    pub fn row(&self, i: usize) -> Row {
        Row::new(self.columns.iter().map(|c| c.value(i)).collect())
    }

    /// Pivots back to rows, cloning cell payloads.
    pub fn to_rows(&self) -> Vec<Row> {
        (0..self.len).map(|i| self.row(i)).collect()
    }

    /// Pivots back to rows, consuming the batch so container payloads of
    /// `Mixed` columns it solely owns move instead of cloning.
    pub fn into_rows(self) -> Vec<Row> {
        let len = self.len;
        let mut cols: Vec<std::vec::IntoIter<Value>> = self
            .columns
            .into_iter()
            .map(|c| {
                let vals: Vec<Value> = match Arc::try_unwrap(c) {
                    Ok(Column::Int(v, n)) => materialize(v, n, Value::Int),
                    Ok(Column::Float(v, n)) => materialize(v, n, Value::Float),
                    Ok(Column::Bool(v, n)) => materialize(v, n, Value::Bool),
                    Ok(Column::Str(v, n)) => materialize(v.iter(), n, Value::str),
                    Ok(Column::StrList(v, n)) => materialize(v.iter(), n, |l| l.to_value()),
                    Ok(Column::Mixed(v)) => v,
                    Err(shared) => (0..len).map(|i| shared.value(i)).collect(),
                };
                vals.into_iter()
            })
            .collect();
        (0..len)
            .map(|_| {
                Row::new(
                    cols.iter_mut()
                        .map(|it| it.next().expect("column length matches batch len"))
                        .collect(),
                )
            })
            .collect()
    }

    /// Copies the rows at `sel` (in order) into a new batch.
    pub fn gather(&self, sel: &[u32]) -> ColBatch {
        ColBatch::from_columns(
            self.columns.iter().map(|c| c.gather(sel)).collect(),
            sel.len(),
        )
    }

    /// Copies the first `n` rows into a new batch.
    pub fn head(&self, n: usize) -> ColBatch {
        let n = n.min(self.len);
        ColBatch::from_columns(self.columns.iter().map(|c| c.head(n)).collect(), n)
    }

    /// Concatenates batches of equal arity in order.
    pub fn concat(parts: Vec<ColBatch>) -> ColBatch {
        if parts.len() == 1 {
            return parts.into_iter().next().expect("one part");
        }
        let len = parts.iter().map(|p| p.len).sum();
        let arity = parts.first().map_or(0, ColBatch::arity);
        debug_assert!(parts.iter().all(|p| p.arity() == arity));
        let mut per_col: Vec<Vec<Column>> = (0..arity).map(|_| Vec::new()).collect();
        for part in parts {
            for (i, col) in part.columns.into_iter().enumerate() {
                per_col[i].push(Arc::unwrap_or_clone(col));
            }
        }
        ColBatch::from_columns(per_col.into_iter().map(Column::concat).collect(), len)
    }

    /// Extends every column in place with `part`'s ([`Column::append`]): the
    /// result is what [`ColBatch::concat`] of the two gives, in O(|part|) for
    /// every column this batch alone holds (a shared one is copied first).
    pub fn append(&mut self, part: ColBatch) {
        assert_eq!(
            self.arity(),
            part.arity(),
            "appending a batch of another arity"
        );
        self.len += part.len;
        for (kept, col) in self.columns.iter_mut().zip(part.columns) {
            Arc::make_mut(kept).append(Arc::unwrap_or_clone(col));
        }
    }

    /// A copy of the batch with the cell at (`row`, `col`) replaced. Only
    /// column `col` is rebuilt — by one builder pass, so it classifies as its
    /// new values do — and the others stay shared.
    pub fn with_cell(&self, row: usize, col: usize, value: Value) -> ColBatch {
        let mut b = ColBuilder::new();
        b.reserve(self.len);
        let mut value = Some(value);
        for i in 0..self.len {
            let replaced = if i == row { value.take() } else { None };
            b.push_value(replaced.unwrap_or_else(|| self.columns[col].value(i)));
        }
        let mut columns = self.columns.clone();
        columns[col] = Arc::new(b.finish());
        ColBatch::from_shared(columns, self.len)
    }

    /// Footprint charge identical to summing [`Row::approx_bytes`] over the
    /// pivoted rows — the guard's ledger must see the same bytes whichever
    /// representation a node produced.
    pub fn row_bytes(&self) -> u64 {
        let cells: u64 = self.columns.iter().map(|c| c.approx_bytes()).sum();
        2 * self.len as u64 + cells
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::hash_map::DefaultHasher;

    fn value_matrix() -> Vec<Value> {
        let mut matrix = vec![
            Value::Null,
            Value::Bool(true),
            Value::Bool(false),
            Value::Int(0),
            Value::Int(i64::MIN),
            Value::Int(i64::MAX),
            Value::Float(0.0),
            Value::Float(-0.0),
            Value::Float(f64::NAN),
            Value::Float(f64::INFINITY),
            Value::Float(3.5),
            Value::str(""),
            Value::str("héllo"),
            Value::Array(vec![Value::Int(1), Value::Null]),
            Value::Array(vec![]),
            Value::Array(vec![Value::str("a")]),
            Value::Array(vec![Value::str("a"), Value::str("héllo")]),
            Value::Array(vec![Value::str("a"), Value::Int(1)]),
            Value::Array(vec![Value::str("b")]),
            Value::object(vec![("k".into(), Value::str("v"))]),
            Value::Float(f64::NEG_INFINITY),
        ];
        // Where `i as f64` rounds: Ints at the edges of the exact floats and
        // of `i64`, and the floats at them, half off them and next to them.
        for edge in [1i64 << 53, -(1i64 << 53), (1 << 53) + 1, i64::MIN, i64::MAX] {
            let f = edge as f64;
            matrix.push(Value::Int(edge));
            matrix.extend([f, f + 0.5, f - 0.5, f.next_up(), f.next_down()].map(Value::Float));
        }
        matrix
    }

    fn hash_of<T: Hash>(v: &T) -> u64 {
        let mut h = DefaultHasher::new();
        v.hash(&mut h);
        h.finish()
    }

    /// The FNV streams join and group keys hash to: `Value`'s and `Cell`'s
    /// `Hash` through the shared FNV hasher, pinned so that neither the
    /// hasher nor the encodings moves unnoticed.
    #[test]
    fn fnv_key_hashes_are_pinned() {
        use miso_common::prehash::fnv1a_hash_one;
        let list = Value::Array(vec![Value::str("a"), Value::str("bc")]);
        let pins = [
            (Value::Null, 0xaf72_e84c_8601_b7df),
            (Value::Bool(true), 0x3b88_5a07_b4e8_8e77),
            (Value::Int(3), 0x3fc7_ddf5_4dae_8fdd),
            (Value::Float(2.5), 0x40a9_5df5_4dba_f601),
            (Value::Float(f64::NAN), 0x50c5_edf5_4e95_8e60),
            (Value::Float(-0.0), 0x417e_ddf5_4dc6_15e5),
            (Value::str("miso"), 0x0a21_6bef_9cc7_70fb),
            (list.clone(), 0xe651_ccb6_b097_f931),
        ];
        for (v, pin) in &pins {
            assert_eq!(fnv1a_hash_one(v), *pin, "{v:?}");
            assert_eq!(fnv1a_hash_one(&Cell::of(v)), *pin, "cell of {v:?}");
        }
        let batch = ColBatch::from_rows(&[Row::new(vec![list])]).unwrap();
        let cell = batch.cell(0, 0);
        assert!(matches!(cell, Cell::StrList(_)), "{cell:?}");
        assert_eq!(fnv1a_hash_one(&cell), 0xe651_ccb6_b097_f931);
        // Values that compare equal hash equal.
        let eq = |a: Value, b: Value| assert_eq!(fnv1a_hash_one(&a), fnv1a_hash_one(&b));
        eq(Value::Int(3), Value::Float(3.0));
        eq(Value::Float(0.0), Value::Float(-0.0));
        eq(Value::Float(f64::NAN), Value::Float(-f64::NAN));
    }

    /// The order is total across the matrix, numbers where `i as f64`
    /// rounds included: for every triple, `cmp` is antisymmetric and
    /// transitive (so equality is), and values that are equal hash alike.
    #[test]
    fn value_order_is_total_and_equal_values_hash_alike() {
        use miso_common::prehash::fnv1a_hash_one;
        let matrix = value_matrix();
        for a in &matrix {
            for b in &matrix {
                let ab = a.cmp(b);
                assert_eq!(ab, b.cmp(a).reverse(), "antisymmetry: {a:?} vs {b:?}");
                if ab.is_eq() {
                    assert_eq!(hash_of(a), hash_of(b), "{a:?} == {b:?}");
                    assert_eq!(fnv1a_hash_one(a), fnv1a_hash_one(b), "{a:?} == {b:?}");
                }
                for c in &matrix {
                    if a == b && b == c {
                        assert_eq!(a, c, "transitivity: {a:?} == {b:?} == {c:?}");
                    }
                    if ab == b.cmp(c) {
                        assert_eq!(a.cmp(c), ab, "transitivity: {a:?}, {b:?}, {c:?}");
                    }
                }
            }
        }
    }

    /// An Int meets a Float exactly: past 2^53 and at the ends of `i64`,
    /// with a fraction breaking a tie of integer parts, NaN above all.
    #[test]
    fn int_float_order_is_exact() {
        use Ordering::*;
        let (i, f) = (Value::Int, Value::Float);
        let two_53 = 1i64 << 53;
        let two_63 = -(i64::MIN as f64);
        for (a, b, want) in [
            (i(two_53 + 1), f(two_53 as f64), Greater),
            (i(two_53), f(two_53 as f64), Equal),
            (i(two_53 - 1), f(two_53 as f64), Less),
            (i(i64::MAX), f(two_63), Less),
            (i(i64::MAX), f(two_63.next_down()), Greater),
            (i(i64::MIN), f(-two_63), Equal),
            (i(i64::MIN), f((-two_63).next_down()), Greater),
            (i(i64::MAX), f(f64::INFINITY), Less),
            (i(i64::MIN), f(f64::NEG_INFINITY), Greater),
            (i(i64::MAX), f(f64::NAN), Less),
            (i(2), f(2.5), Less),
            (i(-2), f(-2.5), Greater),
            (i(0), f(-0.5), Greater),
            (i(0), f(-0.0), Equal),
        ] {
            assert_eq!(a.cmp(&b), want, "{a:?} vs {b:?}");
            assert_eq!(b.cmp(&a), want.reverse(), "{b:?} vs {a:?}");
        }
    }

    /// rows → ColBatch → rows is identity for every Value variant,
    /// including NULLs, in homogeneous and deliberately clashing columns.
    #[test]
    fn round_trip_is_identity() {
        let matrix = value_matrix();
        // One row per value (single column), plus rows that force clashes.
        let mut rows: Vec<Row> = matrix.iter().map(|v| Row::new(vec![v.clone()])).collect();
        rows.push(Row::new(vec![Value::Int(7)]));
        let batch = ColBatch::from_rows(&rows).expect("rectangular");
        assert_eq!(batch.len(), rows.len());
        assert_eq!(batch.to_rows(), rows);
        assert_eq!(batch.clone().into_rows(), rows);
    }

    #[test]
    fn round_trip_typed_columns_with_nulls() {
        let rows: Vec<Row> = (0..200)
            .map(|i| {
                Row::new(vec![
                    if i % 7 == 0 {
                        Value::Null
                    } else {
                        Value::Int(i)
                    },
                    if i % 5 == 0 {
                        Value::Null
                    } else {
                        Value::str(format!("s{i}"))
                    },
                    Value::Float(i as f64 / 3.0),
                    Value::Bool(i % 2 == 0),
                ])
            })
            .collect();
        let batch = ColBatch::from_rows(&rows).expect("rectangular");
        // Typed classification happened (not a Mixed fallback).
        assert!(matches!(batch.col(0), Column::Int(..)));
        assert!(matches!(batch.col(1), Column::Str(..)));
        assert!(matches!(batch.col(2), Column::Float(..)));
        assert!(matches!(batch.col(3), Column::Bool(..)));
        assert_eq!(batch.to_rows(), rows);
        assert_eq!(batch.into_rows(), rows);
    }

    #[test]
    fn all_null_and_empty_and_zero_arity_round_trip() {
        let empty: Vec<Row> = Vec::new();
        assert_eq!(ColBatch::from_rows(&empty).unwrap().to_rows(), empty);

        let nulls: Vec<Row> = (0..5).map(|_| Row::new(vec![Value::Null])).collect();
        assert_eq!(ColBatch::from_rows(&nulls).unwrap().to_rows(), nulls);

        let zero_arity: Vec<Row> = (0..4).map(|_| Row::new(vec![])).collect();
        let b = ColBatch::from_rows(&zero_arity).unwrap();
        assert_eq!(b.len(), 4);
        assert_eq!(b.arity(), 0);
        assert_eq!(b.to_rows(), zero_arity);
    }

    #[test]
    fn ragged_rows_stay_rows() {
        let rows = vec![
            Row::new(vec![Value::Int(1)]),
            Row::new(vec![Value::Int(1), Value::Int(2)]),
        ];
        assert!(ColBatch::from_rows(&rows).is_none());
    }

    /// A type clash mid-column converts the typed prefix to Mixed without
    /// losing any value.
    #[test]
    fn type_clash_degrades_losslessly() {
        let rows = vec![
            Row::new(vec![Value::Int(1)]),
            Row::new(vec![Value::Null]),
            Row::new(vec![Value::str("x")]),
            Row::new(vec![Value::Float(2.5)]),
        ];
        let batch = ColBatch::from_rows(&rows).unwrap();
        assert!(matches!(batch.col(0), Column::Mixed(_)));
        assert_eq!(batch.to_rows(), rows);
    }

    #[test]
    fn gather_head_and_concat() {
        let rows: Vec<Row> = (0..10)
            .map(|i| Row::new(vec![Value::Int(i), Value::str(format!("r{i}"))]))
            .collect();
        let batch = ColBatch::from_rows(&rows).unwrap();
        let picked = batch.gather(&[9, 0, 3]);
        assert_eq!(
            picked.to_rows(),
            vec![rows[9].clone(), rows[0].clone(), rows[3].clone()]
        );
        assert_eq!(batch.head(3).to_rows(), rows[..3].to_vec());
        let joined = ColBatch::concat(vec![batch.head(2), batch.gather(&[5])]);
        assert_eq!(
            joined.to_rows(),
            vec![rows[0].clone(), rows[1].clone(), rows[5].clone()]
        );
    }

    /// Concatenating chunks that classified differently degrades to Mixed
    /// but keeps values exact.
    #[test]
    fn concat_heterogeneous_chunks() {
        let a = ColBatch::from_rows(&[Row::new(vec![Value::Int(1)])]).unwrap();
        let b = ColBatch::from_rows(&[Row::new(vec![Value::str("x")])]).unwrap();
        let joined = ColBatch::concat(vec![a, b]);
        assert_eq!(
            joined.to_rows(),
            vec![
                Row::new(vec![Value::Int(1)]),
                Row::new(vec![Value::str("x")])
            ]
        );
    }

    /// Extending a column in place gives exactly the column one builder
    /// pass over all the values gives — same variant, same null bitmap —
    /// wherever the sequence is cut: an all-NULL prefix takes its type from
    /// the suffix, a clash degrades at the same value, `Mixed` stays `Mixed`;
    /// and a builder truncated back to the cut is the prefix's builder.
    #[test]
    fn append_equals_one_pass_over_all_values() {
        fn build(values: &[Value]) -> Column {
            let mut b = ColBuilder::new();
            for v in values {
                b.push_value(v.clone());
            }
            b.finish()
        }
        let int = |i: i64| Value::Int(i);
        let sequences: Vec<Vec<Value>> = vec![
            vec![Value::Null, Value::Null, int(1), Value::Null, int(2)],
            vec![int(1), int(2), Value::Null, Value::str("x"), int(3)],
            vec![
                Value::Null,
                Value::Float(1.5),
                Value::Null,
                Value::Float(2.5),
            ],
            vec![Value::str("a"), Value::Null, Value::str("b")],
            vec![Value::Bool(true), Value::Null, Value::Bool(false)],
            vec![Value::Null, Value::Array(vec![int(1)]), Value::Null, int(4)],
            vec![Value::Null, Value::Null, Value::Null],
            // The `hashtags` shape: lists of strings, NULLs among them.
            vec![
                Value::Null,
                Value::Array(vec![Value::str("coffee"), Value::str("é")]),
                Value::Array(vec![]),
                Value::Null,
                Value::Array(vec![Value::str("pizza")]),
            ],
            // A list column that meets another array degrades there.
            vec![
                Value::Array(vec![Value::str("coffee")]),
                Value::Array(vec![]),
                Value::Null,
                Value::Array(vec![int(1), Value::Null]),
            ],
            vec![
                Value::Null,
                Value::object(vec![("city".into(), Value::str("nowhere"))]),
                Value::str("x"),
                Value::object(vec![]),
            ],
            // A late clash: the prefix stays typed until it.
            vec![int(1), Value::Null, int(2), Value::Float(2.5), int(3)],
            // NULLs over three bitmap words.
            (0..150)
                .map(|i| if i % 3 == 1 { Value::Null } else { int(i) })
                .collect(),
            value_matrix(),
        ];
        let builder = |values: &[Value]| {
            let mut b = ColBuilder::new();
            values.iter().for_each(|v| b.push_value(v.clone()));
            b
        };
        for values in &sequences {
            let whole = build(values);
            for cut in 0..=values.len() {
                // Taken back to `cut` slots, a builder that kept its variant
                // is the one that stopped there.
                let (mut back, head) = (builder(values), builder(&values[..cut]));
                if std::mem::discriminant(&back) == std::mem::discriminant(&head) {
                    back.truncate(cut);
                    assert_eq!(back.finish(), head.finish(), "truncated to {cut}");
                }
                let mut kept = build(&values[..cut]);
                kept.append(build(&values[cut..]));
                assert_eq!(kept, whole, "cut at {cut} of {values:?}");
                let parts = vec![build(&values[..cut]), build(&values[cut..])];
                assert_eq!(Column::concat(parts), whole, "concat at {cut}");
            }
            assert_eq!(
                whole.approx_bytes(),
                values.iter().map(Value::approx_bytes).sum::<u64>()
            );
        }
    }

    /// A batch over shared columns pivots to the same rows whether or not
    /// it is the columns' only owner.
    #[test]
    fn shared_columns_pivot_like_owned_ones() {
        let matrix = value_matrix();
        let rows: Vec<Row> = matrix.iter().map(|v| Row::new(vec![v.clone()])).collect();
        let owned = ColBatch::from_rows(&rows).unwrap();
        let shared = ColBatch::from_shared(owned.columns().to_vec(), owned.len());
        assert_eq!(shared.clone().into_rows(), rows);
        assert_eq!(shared.into_columns().len(), 1);
        assert_eq!(owned.into_rows(), rows);
    }

    /// The ledger must charge identical bytes for a batch and its pivoted
    /// rows.
    #[test]
    fn row_bytes_matches_pivoted_rows() {
        let matrix = value_matrix();
        let rows: Vec<Row> = matrix
            .chunks(3)
            .map(|c| Row::new(c.to_vec()))
            .filter(|r| r.arity() == 3)
            .collect();
        let batch = ColBatch::from_rows(&rows).unwrap();
        let expected: u64 = rows.iter().map(Row::approx_bytes).sum();
        assert_eq!(batch.row_bytes(), expected);
    }

    /// Cell comparison, equality, hashing and byte accounting agree with
    /// the equivalent owned `Value` across the full variant matrix.
    #[test]
    fn cell_semantics_match_value_semantics() {
        let matrix = value_matrix();
        let rows: Vec<Row> = matrix.iter().map(|v| Row::new(vec![v.clone()])).collect();
        let batch = ColBatch::from_rows(&rows).unwrap();
        for i in 0..batch.len() {
            let cell = batch.cell(i, 0);
            let owned = cell.to_value();
            assert_eq!(owned, matrix[i].clone());
            assert_eq!(hash_of(&cell), hash_of(&owned), "hash parity at {i}");
            assert_eq!(cell.approx_bytes(), owned.approx_bytes());
            assert_eq!(cell.as_i64(), owned.as_i64());
            assert_eq!(
                cell.as_f64().map(f64::to_bits),
                owned.as_f64().map(f64::to_bits)
            );
            for other in &matrix {
                assert_eq!(
                    cell.cmp_value(other),
                    owned.cmp(other),
                    "cmp parity {owned:?} vs {other:?}"
                );
                assert_eq!(cell.eq_value(other), &owned == other);
                assert_eq!(cell.cmp_cell(&Cell::of(other)), owned.cmp(other));
                assert_eq!(cell == Cell::of(other), &owned == other);
            }
        }
        // Cross-type numeric equality survives the cell view.
        let b = ColBatch::from_rows(&[Row::new(vec![Value::Int(3)])]).unwrap();
        assert!(b.cell(0, 0).eq_value(&Value::Float(3.0)));
        assert_eq!(hash_of(&b.cell(0, 0)), hash_of(&Value::Float(3.0)));
    }

    /// A list column's cells are the arrays of strings they stand for:
    /// same value, hash, byte charge, and order against every value of the
    /// matrix — `Mixed` arrays included, from either side.
    #[test]
    fn list_cells_match_array_values() {
        let matrix = value_matrix();
        let is_list = |v: &&Value| match v {
            Value::Null => true,
            Value::Array(items) => items.iter().all(|i| matches!(i, Value::Str(_))),
            _ => false,
        };
        let lists: Vec<Value> = matrix.iter().filter(is_list).cloned().collect();
        let rows: Vec<Row> = lists.iter().map(|v| Row::new(vec![v.clone()])).collect();
        let batch = ColBatch::from_rows(&rows).unwrap();
        assert!(matches!(batch.col(0), Column::StrList(..)));
        assert_eq!(batch.to_rows(), rows);
        assert_eq!(
            batch.row_bytes(),
            rows.iter().map(Row::approx_bytes).sum::<u64>()
        );
        for (i, want) in lists.iter().enumerate() {
            let cell = batch.cell(i, 0);
            assert_eq!(&cell.to_value(), want);
            assert_eq!(hash_of(&cell), hash_of(want), "hash parity at {i}");
            assert_eq!(cell.approx_bytes(), want.approx_bytes());
            for other in &matrix {
                assert_eq!(
                    cell.cmp_value(other),
                    want.cmp(other),
                    "{want:?} vs {other:?}"
                );
                assert_eq!(Cell::of(other).cmp_cell(&cell), other.cmp(want));
                assert_eq!(cell == Cell::of(other), want == other);
            }
            for (j, other) in lists.iter().enumerate() {
                assert_eq!(cell.cmp_cell(&batch.cell(j, 0)), want.cmp(other));
            }
        }
    }
}
