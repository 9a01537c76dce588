//! Hash maps keyed by values that are hashes already.
//!
//! A join key's row hash and a what-if memo key are FNV digests: running
//! them through `RandomState`'s SipHash again costs more than the lookup.
//! [`Prehashed`] only spreads them, with a splitmix64 finalizer that mixes
//! FNV's weaker low bits across the table.

use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};

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
