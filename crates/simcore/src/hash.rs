//! The hasher behind every keyed table in the model.
//!
//! Every map key in the workspace is a value the model made itself: a
//! pid, a sequence number, a page or frame number, a device name from
//! the node's configuration. None comes from outside the program, so the
//! tables need no defence against keys crafted to collide, and std's
//! per-process-seeded SipHash only costs time on every lookup.
//! [`FastHasher`] is the multiply-rotate hash of rustc-hash 2: each word
//! is added into the state, which is then multiplied by an odd constant,
//! and the finish rotates the product's well-mixed high bits down into
//! the low bits. The rotation matters: hashbrown picks the bucket from
//! the low bits, and without it every page-aligned key (the unified
//! address space's `faulted` map) would land in one bucket. It rotates
//! by 20 where rustc-hash rotates by 26: with this multiplier, 26 spreads
//! 4,096 sequential keys over only 1,998 distinct low-12-bit values, 20
//! over 2,714 (page-aligned keys: 2,505 and 3,379).
//!
//! The hasher is unseeded, so a map iterates in the same order in every
//! process. No output may depend on that order all the same: code that
//! reads a map in order sorts first, or keeps a `BTreeMap`.
//!
//! [`FastMap`] and [`FastSet`] are the only names for a hashed table in
//! the workspace; the root `clippy.toml` rejects std's `HashMap` and
//! `HashSet` everywhere else.

use std::hash::{BuildHasherDefault, Hasher};

/// The multiplier of rustc-hash 2: odd, with its bits spread evenly.
const K: u64 = 0xf135_7aea_2e62_a9c5;

/// Unseeded multiply-rotate hasher (see the module docs).
#[derive(Clone, Debug, Default)]
pub struct FastHasher {
    hash: u64,
}

impl FastHasher {
    #[inline]
    fn add(&mut self, word: u64) {
        self.hash = self.hash.wrapping_add(word).wrapping_mul(K);
    }
}

impl Hasher for FastHasher {
    /// Byte keys (device names) go in as little-endian words, the last
    /// one zero-padded.
    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        for chunk in bytes.chunks(8) {
            let mut word = [0u8; 8];
            word[..chunk.len()].copy_from_slice(chunk);
            self.add(u64::from_le_bytes(word));
        }
    }

    #[inline]
    fn write_u8(&mut self, i: u8) {
        self.add(u64::from(i));
    }

    #[inline]
    fn write_u32(&mut self, i: u32) {
        self.add(u64::from(i));
    }

    #[inline]
    fn write_u64(&mut self, i: u64) {
        self.add(i);
    }

    #[inline]
    fn write_usize(&mut self, i: usize) {
        self.add(i as u64);
    }

    #[inline]
    fn finish(&self) -> u64 {
        self.hash.rotate_left(20)
    }
}

/// std's `HashMap` over [`FastHasher`]. Build one with `default()` or
/// `collect()`; `new()` exists only for the seeded default hasher.
#[allow(clippy::disallowed_types)] // the one definition of the workspace's map
pub type FastMap<K, V> = std::collections::HashMap<K, V, BuildHasherDefault<FastHasher>>;

/// std's `HashSet` over [`FastHasher`].
#[allow(clippy::disallowed_types)] // the one definition of the workspace's set
pub type FastSet<T> = std::collections::HashSet<T, BuildHasherDefault<FastHasher>>;

#[cfg(test)]
mod tests {
    use super::*;
    use std::hash::BuildHasher;

    /// Distinct values of the low 12 bits of each key's hash: the bits
    /// a table of up to 4,096 buckets indexes by.
    fn low_bits_spread(keys: impl Iterator<Item = u64>) -> usize {
        let build = BuildHasherDefault::<FastHasher>::default();
        keys.map(|k| build.hash_one(k) & 0xfff)
            .collect::<FastSet<u64>>()
            .len()
    }

    #[test]
    fn page_aligned_and_sequential_keys_spread_over_low_bits() {
        let pages = low_bits_spread((0..4096u64).map(|i| 0x100_0000 + (i << 12)));
        let sequential = low_bits_spread(0..4096u64);
        assert!(
            pages >= 2048,
            "page-aligned keys: {pages} distinct low-12-bit values"
        );
        assert!(
            sequential >= 2048,
            "sequential keys: {sequential} distinct low-12-bit values"
        );
    }
}
