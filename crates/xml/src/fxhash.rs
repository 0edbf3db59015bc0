//! A minimal implementation of the Fx hash algorithm (the fast,
//! non-DoS-resistant hasher used inside rustc) plus `HashMap`/`HashSet`
//! aliases built on it.
//!
//! Every hot map in this workspace is keyed by small integers (node ids,
//! label ids, cluster ids) where SipHash dominates lookup cost. The
//! algorithm below is the classic multiply-rotate-xor mix over native
//! words; it is identical in spirit to the `rustc-hash` crate, which is
//! not in the allowed offline dependency set.

use std::collections::{HashMap, HashSet};
use std::hash::{BuildHasherDefault, Hasher};

/// A `HashMap` using [`FxHasher`].
pub type FxHashMap<K, V> = HashMap<K, V, FxBuildHasher>;
/// A `HashSet` using [`FxHasher`].
pub type FxHashSet<T> = HashSet<T, FxBuildHasher>;
/// The `BuildHasher` for [`FxHasher`].
pub type FxBuildHasher = BuildHasherDefault<FxHasher>;

const SEED: u64 = 0x51_7c_c1_b7_27_22_0a_95;
const ROTATE: u32 = 5;

/// Fast non-cryptographic hasher; do not use where HashDoS matters.
#[derive(Debug, Default, Clone)]
pub struct FxHasher {
    hash: u64,
}

impl FxHasher {
    #[inline]
    fn add_to_hash(&mut self, word: u64) {
        self.hash = (self.hash.rotate_left(ROTATE) ^ word).wrapping_mul(SEED);
    }
}

impl Hasher for FxHasher {
    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        let mut chunks = bytes.chunks_exact(8);
        for chunk in &mut chunks {
            let mut buf = [0u8; 8];
            buf.copy_from_slice(chunk);
            self.add_to_hash(u64::from_le_bytes(buf));
        }
        let rem = chunks.remainder();
        if !rem.is_empty() {
            let mut buf = [0u8; 8];
            buf[..rem.len()].copy_from_slice(rem);
            self.add_to_hash(u64::from_le_bytes(buf));
        }
    }

    #[inline]
    fn write_u8(&mut self, n: u8) {
        self.add_to_hash(n as u64);
    }

    #[inline]
    fn write_u16(&mut self, n: u16) {
        self.add_to_hash(n as u64);
    }

    #[inline]
    fn write_u32(&mut self, n: u32) {
        self.add_to_hash(n as u64);
    }

    #[inline]
    fn write_u64(&mut self, n: u64) {
        self.add_to_hash(n);
    }

    #[inline]
    fn write_usize(&mut self, n: usize) {
        self.add_to_hash(n as u64);
    }

    #[inline]
    fn finish(&self) -> u64 {
        self.hash
    }
}

/// Convenience: an empty [`FxHashMap`].
#[inline]
pub fn fx_map<K, V>() -> FxHashMap<K, V> {
    FxHashMap::default()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::hash::Hash;

    fn hash_of<T: Hash + ?Sized>(value: &T) -> u64 {
        let mut hasher = FxHasher::default();
        value.hash(&mut hasher);
        hasher.finish()
    }

    #[test]
    fn deterministic() {
        assert_eq!(hash_of(&42u32), hash_of(&42u32));
        assert_eq!(hash_of(&"twig"), hash_of(&"twig"));
    }

    #[test]
    fn distinguishes_nearby_keys() {
        assert_ne!(hash_of(&1u64), hash_of(&2u64));
        assert_ne!(hash_of(&(1u32, 2u32)), hash_of(&(2u32, 1u32)));
    }

    #[test]
    fn map_roundtrip() {
        let mut map: FxHashMap<u32, &str> = fx_map();
        map.insert(7, "seven");
        map.insert(11, "eleven");
        assert_eq!(map.get(&7), Some(&"seven"));
        assert_eq!(map.get(&11), Some(&"eleven"));
        assert_eq!(map.get(&13), None);
    }

    #[test]
    fn handles_unaligned_byte_tails() {
        // 9 bytes exercises both the 8-byte chunk and the remainder path.
        assert_ne!(hash_of(&[1u8; 9][..]), hash_of(&[1u8; 8][..]));
    }
}
