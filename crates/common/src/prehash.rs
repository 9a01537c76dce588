//! FNV-1a/64, the workspace's one stable digest, and hash maps keyed by
//! values that are digests already.
//!
//! [`Fnv`] is the digest behind every plan fingerprint, every content
//! checksum and every join, group and memo key: stable across processes
//! and platforms, and free of per-map seed state. A join key's row hash and
//! a what-if memo key are FNV digests: running them through `RandomState`'s
//! SipHash again costs more than the lookup. [`Prehashed`] only spreads
//! them, with a splitmix64 finalizer that mixes FNV's weaker low bits
//! across the table.

use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hash, Hasher};

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
/// The multiplier. FNV-1a/64's published prime is `0x100_0000_01b3`
/// (2^40 + 0x1b3); this one is 2^44 + 0x1b3, and every view name, stored
/// checksum and pinned digest in the workspace was computed with it, so it
/// stays. The digest is FNV-1a in shape, not the published function.
const FNV_PRIME: u64 = 0x1000_0000_01b3;

/// Incremental FNV-1a/64 with the workspace's multiplier, 2^44 + 0x1b3
/// (the published prime is 2^40 + 0x1b3).
///
/// The inherent methods are the tagged encodings the fingerprints and
/// checksums fold (`u64`s little-endian, strings length-prefixed). As a
/// [`Hasher`] it folds whatever a type's `Hash` impl writes, through the
/// trait's default `write_*` methods, so feeding a value through it yields
/// a digest that is consistent with its `Eq` yet deterministic: the engine
/// hashes join and group-by keys (`miso_data::Value` tuples) this way,
/// equal keys always collide, and the probe site checks equality.
#[derive(Clone, Copy)]
pub struct Fnv(u64);

impl Fnv {
    /// The state before any byte: the offset basis.
    #[inline]
    pub fn new() -> Self {
        Fnv(FNV_OFFSET)
    }

    /// Folds one byte.
    #[inline]
    pub fn byte(&mut self, b: u8) {
        self.0 ^= b as u64;
        self.0 = self.0.wrapping_mul(FNV_PRIME);
    }

    /// Folds bytes in order.
    #[inline]
    pub fn bytes(&mut self, bs: &[u8]) {
        for &b in bs {
            self.byte(b);
        }
    }

    /// Folds a word's little-endian bytes.
    #[inline]
    pub fn u64(&mut self, v: u64) {
        self.bytes(&v.to_le_bytes());
    }

    /// Folds a string's length, then its bytes.
    #[inline]
    pub fn str(&mut self, s: &str) {
        self.u64(s.len() as u64);
        self.bytes(s.as_bytes());
    }

    /// The digest of everything folded so far.
    #[inline]
    pub fn finish(&self) -> u64 {
        self.0
    }
}

impl Default for Fnv {
    fn default() -> Self {
        Fnv::new()
    }
}

impl Hasher for Fnv {
    #[inline]
    fn finish(&self) -> u64 {
        self.0
    }

    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        self.bytes(bytes);
    }
}

/// FNV-1a/64 over a stream of `u64` words, for composite keys built from
/// digests (e.g. the tuner's `(plan, view-set)` what-if cache).
pub fn fnv1a_words(words: impl IntoIterator<Item = u64>) -> u64 {
    let mut h = Fnv::new();
    for w in words {
        h.u64(w);
    }
    h.finish()
}

/// FNV-1a/64 of a string, length-prefixed as [`Fnv::str`] folds it.
pub fn fnv1a_str(s: &str) -> u64 {
    let mut h = Fnv::new();
    h.str(s);
    h.finish()
}

/// FNV-1a/64 of any `Hash` value through [`Fnv`]'s [`Hasher`]: equal
/// values hash equal, and the result is stable within a build of the
/// workspace.
#[inline]
pub fn fnv1a_hash_one<T: Hash + ?Sized>(v: &T) -> u64 {
    let mut h = Fnv::new();
    v.hash(&mut h);
    h.finish()
}

/// A hasher for keys made of `u64` digests: each word is folded in and
/// re-mixed; a one-word key hashes to its splitmix64 finalization.
#[derive(Clone, Copy, Default)]
pub struct Prehashed(u64);

impl Hasher for Prehashed {
    fn finish(&self) -> u64 {
        self.0
    }

    fn write(&mut self, _bytes: &[u8]) {
        unreachable!("prehashed maps are keyed by u64 words only");
    }

    fn write_u64(&mut self, v: u64) {
        let mut z = (self.0 ^ v).wrapping_add(0x9e37_79b9_7f4a_7c15);
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        self.0 = z ^ (z >> 31);
    }
}

/// A `HashMap` over [`Prehashed`] keys.
pub type PrehashedMap<K, V> = HashMap<K, V, BuildHasherDefault<Prehashed>>;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fnv_hasher_is_eq_consistent_and_stable() {
        // Equal values hash equal, whatever type holds them (the `Borrow`
        // contract `str` and `String` keep).
        assert_eq!(fnv1a_hash_one("key"), fnv1a_hash_one(&String::from("key")));
        assert_ne!(fnv1a_hash_one("a"), fnv1a_hash_one("b"));
        // Deterministic: two hashers agree (no per-instance seed).
        assert_eq!(fnv1a_hash_one("key"), fnv1a_hash_one("key"));
        // The Hasher's raw byte stream is the incremental fold's.
        let mut h = Fnv::default();
        Hasher::write(&mut h, b"abc");
        let mut f = Fnv::new();
        f.bytes(b"abc");
        assert_eq!(Hasher::finish(&h), f.finish());
        // Pinned: view names and stored checksums are functions of it.
        let mut a = Fnv::new();
        a.byte(b'a');
        assert_eq!(a.finish(), 0xaf74_d84c_8601_ec8c);
        assert_eq!(fnv1a_words([]), FNV_OFFSET);
        assert_eq!(fnv1a_str(""), fnv1a_words([0]));
    }

    #[test]
    fn word_pairs_keep_both_words() {
        let mut map: PrehashedMap<(u64, u64), u32> = PrehashedMap::default();
        map.insert((1, 2), 1);
        map.insert((2, 1), 2);
        map.insert((1, 3), 3);
        assert_eq!(map.len(), 3);
        assert_eq!((map[&(1, 2)], map[&(2, 1)], map[&(1, 3)]), (1, 2, 3));
        let hash = |key: (u64, u64)| {
            let mut h = Prehashed::default();
            h.write_u64(key.0);
            h.write_u64(key.1);
            h.finish()
        };
        assert_ne!(hash((1, 2)), hash((2, 1)), "word order matters");
    }
}
