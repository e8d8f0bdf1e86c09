//! One fixed, fast hasher for every simulator-state map.
//!
//! Simulator maps are keyed by small integers and tuples of them: PCIDs,
//! page numbers, core and mm ids. std's default `RandomState` runs SipHash
//! under a per-process random key, which buys resistance to adversarial
//! keys that a closed simulation never sees, costs tens of nanoseconds per
//! TLB lookup, and makes map iteration order differ between processes.
//!
//! [`FastHasher`] folds each written word into the state with one
//! rotate-xor-multiply step (the FxHash step), then runs the MurmurHash3
//! `fmix64` avalanche in [`Hasher::finish`]. The avalanche matters: with
//! the bare Fx step, a page-aligned address keeps its low 12 bits zero
//! through the multiply, so every 4 KB page lands in the same low-bit
//! bucket. The function is fixed: there is no seed, so every process
//! builds the same tables. Nothing may depend on that order anyway (see
//! DESIGN.md §9): iteration order must never reach a digest or an output.

use std::hash::{BuildHasherDefault, Hasher};

/// 2^64 / φ, the odd multiplier of the word step.
const K: u64 = 0x9e37_79b9_7f4a_7c15;

/// A fast, fixed (unseeded) hasher for small integer keys. See the
/// module docs.
#[derive(Clone, Copy, Debug, Default)]
pub struct FastHasher {
    state: u64,
}

impl FastHasher {
    #[inline]
    fn step(&mut self, word: u64) {
        self.state = (self.state.rotate_left(26) ^ word).wrapping_mul(K);
    }
}

impl Hasher for FastHasher {
    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        let mut words = bytes.chunks_exact(8);
        for w in &mut words {
            self.step(u64::from_le_bytes(w.try_into().expect("8-byte chunk")));
        }
        let rest = words.remainder();
        if !rest.is_empty() {
            let mut buf = [0u8; 8];
            buf[..rest.len()].copy_from_slice(rest);
            self.step(u64::from_le_bytes(buf));
        }
    }

    // Signed integers reach these through std's default `write_iN`.
    #[inline]
    fn write_u8(&mut self, i: u8) {
        self.step(u64::from(i));
    }

    #[inline]
    fn write_u16(&mut self, i: u16) {
        self.step(u64::from(i));
    }

    #[inline]
    fn write_u32(&mut self, i: u32) {
        self.step(u64::from(i));
    }

    #[inline]
    fn write_u64(&mut self, i: u64) {
        self.step(i);
    }

    #[inline]
    fn write_usize(&mut self, i: usize) {
        self.step(i as u64);
    }

    /// MurmurHash3's `fmix64`: every input bit reaches every output bit,
    /// so the low bits a table indexes by are well spread.
    #[inline]
    fn finish(&self) -> u64 {
        let mut h = self.state;
        h ^= h >> 33;
        h = h.wrapping_mul(0xff51_afd7_ed55_8ccd);
        h ^= h >> 33;
        h = h.wrapping_mul(0xc4ce_b9fe_1a85_ec53);
        h ^ (h >> 33)
    }
}

/// Builds [`FastHasher`]s; every instance hashes identically.
pub type FastBuildHasher = BuildHasherDefault<FastHasher>;

pub use aliases::{FastMap, FastSet};

#[allow(
    clippy::disallowed_types,
    reason = "the one place the std maps are named: under the fixed hasher"
)]
mod aliases {
    use super::FastBuildHasher;

    /// A `HashMap` under [`FastHasher`](super::FastHasher). Construct with
    /// `FastMap::default()` or
    /// `FastMap::with_capacity_and_hasher(n, Default::default())`.
    pub type FastMap<K, V> = std::collections::HashMap<K, V, FastBuildHasher>;

    /// A `HashSet` under [`FastHasher`](super::FastHasher).
    pub type FastSet<T> = std::collections::HashSet<T, FastBuildHasher>;
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::hash::{BuildHasher, Hash};

    fn hash<T: Hash>(x: &T) -> u64 {
        FastBuildHasher::default().hash_one(x)
    }

    /// The function is part of the simulator's fixed behaviour: a change
    /// here reorders every map and must be a deliberate edit.
    #[test]
    fn output_is_pinned() {
        assert_eq!(hash(&1u64), 0x9ca0_66f1_a4ab_2eea);
        assert_eq!(
            hash(&(1u16, 0x7f00_0000_1000u64, 0u8)),
            0x7f90_78be_42f0_3d84
        );
        assert_eq!(hash(&"shootdown_irq"), 0xbb2c_0b98_2840_f167);
    }

    /// 4096 consecutive 4 KB pages of one PCID, as TLB keys. A random
    /// function fills 1024·(1 − e⁻⁴) ≈ 1005 of 1024 low-bit buckets.
    /// Without the avalanche, a key that ends in the page address keeps
    /// its 12 zero low bits through the multiply: one bucket for all.
    #[test]
    fn page_aligned_keys_spread_over_low_bits() {
        let mut low = FastSet::default();
        let mut low_unmixed = FastSet::default();
        for i in 0..4096u64 {
            let va = 0x7f00_0000_0000u64 + (i << 12);
            low.insert(hash(&(7u16, va, 0u8)) & 0x3ff);
            let mut h = FastHasher::default();
            (7u16, va).hash(&mut h);
            low_unmixed.insert(h.state & 0x3ff);
        }
        assert!(low.len() >= 1000, "{} of 1024 low-bit buckets", low.len());
        assert_eq!(low_unmixed.len(), 1);
    }
}
