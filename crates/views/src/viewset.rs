//! View subsets as bitsets over one analysis' candidate universe.
//!
//! The interaction analysis probes the what-if optimizer with *subsets* of
//! the candidate views. Candidates are numbered `0..V` once per analysis,
//! and a [`ViewSet`] is a bitset over those indexes: the first 64
//! candidates live in an inline word, so a set over at most 64 candidates
//! (every universe the benches reach) owns no heap, and larger universes
//! spill the rest into a boxed tail. Set algebra is word arithmetic and
//! iteration is in ascending candidate index, which keeps every consumer
//! deterministic by construction.

/// A subset of a candidate universe, as a fixed-width bitset.
///
/// All sets produced for one universe have the same width; mixing sets
/// from different universes is a logic error (debug-asserted).
#[derive(Clone, PartialEq, Eq, Hash, PartialOrd, Ord, Debug)]
pub struct ViewSet {
    /// Candidates `0..64`.
    first: u64,
    /// Candidates `64..`, one word per 64; empty (no allocation) for a
    /// universe of at most 64.
    rest: Box<[u64]>,
}

impl ViewSet {
    /// The empty subset of an `n`-candidate universe.
    pub fn empty(n: usize) -> Self {
        ViewSet {
            first: 0,
            rest: vec![0u64; n.div_ceil(64).saturating_sub(1)].into_boxed_slice(),
        }
    }

    /// The singleton `{i}` in an `n`-candidate universe.
    pub fn singleton(n: usize, i: usize) -> Self {
        let mut s = Self::empty(n);
        s.insert(i);
        s
    }

    /// The pair `{i, j}` in an `n`-candidate universe.
    pub fn pair(n: usize, i: usize, j: usize) -> Self {
        let mut s = Self::empty(n);
        s.insert(i);
        s.insert(j);
        s
    }

    fn words(&self) -> impl Iterator<Item = u64> + '_ {
        std::iter::once(self.first).chain(self.rest.iter().copied())
    }

    /// Adds candidate `i`.
    pub fn insert(&mut self, i: usize) {
        let bit = 1u64 << (i % 64);
        match i / 64 {
            0 => self.first |= bit,
            w => {
                debug_assert!(w <= self.rest.len(), "index {i} outside universe");
                self.rest[w - 1] |= bit;
            }
        }
    }

    /// Whether candidate `i` is a member.
    pub fn contains(&self, i: usize) -> bool {
        let word = match i / 64 {
            0 => self.first,
            w => self.rest.get(w - 1).copied().unwrap_or(0),
        };
        word & (1u64 << (i % 64)) != 0
    }

    /// Set union (both operands must come from the same universe).
    pub fn union(&self, other: &ViewSet) -> ViewSet {
        debug_assert_eq!(self.rest.len(), other.rest.len(), "universe mismatch");
        ViewSet {
            first: self.first | other.first,
            rest: self
                .rest
                .iter()
                .zip(other.rest.iter())
                .map(|(a, b)| a | b)
                .collect(),
        }
    }

    /// Number of members.
    pub fn len(&self) -> usize {
        self.words().map(|w| w.count_ones() as usize).sum()
    }

    /// True iff no members.
    pub fn is_empty(&self) -> bool {
        self.words().all(|w| w == 0)
    }

    /// Member indexes in ascending order.
    pub fn iter(&self) -> impl Iterator<Item = usize> + '_ {
        self.words().enumerate().flat_map(|(wi, mut w)| {
            std::iter::from_fn(move || {
                if w == 0 {
                    return None;
                }
                let bit = w.trailing_zeros() as usize;
                w &= w - 1;
                Some(wi * 64 + bit)
            })
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn small_universe_is_one_word() {
        assert!(ViewSet::empty(64).rest.is_empty());
        assert_eq!(ViewSet::empty(65).rest.len(), 1);
        assert!(ViewSet::empty(0).rest.is_empty());
    }

    #[test]
    fn membership_and_iteration() {
        let mut s = ViewSet::empty(130);
        for i in [0, 63, 64, 129] {
            s.insert(i);
        }
        assert_eq!(s.len(), 4);
        assert!(!s.is_empty());
        assert!(s.contains(63) && s.contains(64) && !s.contains(65));
        assert!(!s.contains(1000), "outside the universe is not a member");
        assert_eq!(s.iter().collect::<Vec<_>>(), vec![0, 63, 64, 129]);
    }

    #[test]
    fn union_and_equality() {
        let a = ViewSet::pair(100, 3, 70);
        let b = ViewSet::singleton(100, 5);
        let u = a.union(&b);
        assert_eq!(u.iter().collect::<Vec<_>>(), vec![3, 5, 70]);
        assert_eq!(a.union(&a), a);
        assert_ne!(a, b);
        assert_eq!(ViewSet::pair(100, 70, 3), a, "insertion order irrelevant");
    }
}
