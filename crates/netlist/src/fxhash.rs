//! A small Fx-style hasher for the synthesiser's memo tables.
//!
//! The planner hashes whole expressions (term lists of `u128` masks or
//! boxed index slices) on every memo probe, and std's SipHash spends
//! several mixing rounds per 8-byte word on that. The Fx step — rotate,
//! xor one word, multiply — is one multiply per word. Its start state is
//! drawn once per process from [`RandomState`], so a set of colliding
//! keys crafted offline (say, variable names in `pd serve` specs) does
//! not carry over to another process. Because that seed varies between
//! processes, only maps that are never iterated may use it: their
//! observable behaviour is then independent of hash values.

use std::collections::HashMap;
use std::hash::{BuildHasher, Hasher, RandomState};
use std::sync::OnceLock;

/// A `HashMap` keyed through [`FxBuildHasher`].
pub(crate) type FxHashMap<K, V> = HashMap<K, V, FxBuildHasher>;

/// Odd multiplier of the Fx step (the one rustc's `FxHasher` uses).
const K: u64 = 0x517c_c1b7_2722_0a95;

/// Builds [`FxHasher`]s from the per-process seed.
#[derive(Clone, Copy, Debug)]
pub(crate) struct FxBuildHasher {
    seed: u64,
}

impl Default for FxBuildHasher {
    fn default() -> Self {
        static SEED: OnceLock<u64> = OnceLock::new();
        let seed = *SEED.get_or_init(|| RandomState::new().build_hasher().finish());
        FxBuildHasher { seed }
    }
}

impl BuildHasher for FxBuildHasher {
    type Hasher = FxHasher;

    fn build_hasher(&self) -> FxHasher {
        FxHasher { hash: self.seed }
    }
}

/// The word-at-a-time hasher state.
#[derive(Clone, Copy, Debug)]
pub(crate) struct FxHasher {
    hash: u64,
}

impl FxHasher {
    #[inline]
    fn add(&mut self, word: u64) {
        self.hash = (self.hash.rotate_left(5) ^ word).wrapping_mul(K);
    }
}

impl Hasher for FxHasher {
    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        let mut chunks = bytes.chunks_exact(8);
        for c in &mut chunks {
            self.add(u64::from_le_bytes(c.try_into().expect("8-byte chunk")));
        }
        let rest = chunks.remainder();
        if !rest.is_empty() {
            let mut buf = [0u8; 8];
            buf[..rest.len()].copy_from_slice(rest);
            self.add(u64::from_le_bytes(buf));
        }
    }

    #[inline]
    fn write_u128(&mut self, i: u128) {
        self.add(i as u64);
        self.add((i >> 64) as u64);
    }

    #[inline]
    fn write_usize(&mut self, i: usize) {
        self.add(i as u64);
    }

    /// The multiply leaves the low bits — which pick the hash-table
    /// bucket — depending on the low input bits only; rotating brings the
    /// well-mixed high product bits down.
    #[inline]
    fn finish(&self) -> u64 {
        self.hash.rotate_left(26)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn high_mask_bits_reach_the_bucket_bits() {
        // `u128` monomial masks that differ only above bit 64 must land
        // in different buckets of a small table (the low bits of the
        // finished hash), or Factor's cones would pile into a few chains.
        for seed in [0, 1, 0xdead_beef] {
            let b = FxBuildHasher { seed };
            let low: Vec<u64> = (64..80u32).map(|i| b.hash_one(1u128 << i) & 0xff).collect();
            let mut distinct = low.clone();
            distinct.sort_unstable();
            distinct.dedup();
            assert!(
                distinct.len() >= 12,
                "seed {seed}: poor low-bit spread {low:?}"
            );
        }
    }
}
