//! A deterministic multiply-mix hasher for per-packet map lookups.
//!
//! Host state is keyed by flow ids and timer tokens, a router's table by
//! node ids — small, mostly sequential integers the scenario itself
//! assigns. The std `RandomState`/SipHash pair showed up in end-to-end
//! profiles on every packet, timer arm and forwarding hop; one multiply by a
//! 64-bit odd constant distributes sequential keys well enough for these
//! maps. Determinism across processes is a bonus, not a requirement:
//! nothing output-facing iterates these maps (the golden byte-identity
//! tests pass under the per-process random SipHash keys, which proves it).

use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};

const MIX: u64 = 0x9E37_79B9_7F4A_7C15;

/// Multiply-mix hasher for integer-keyed maps.
#[derive(Default)]
pub struct MixHasher(u64);

impl Hasher for MixHasher {
    fn finish(&self) -> u64 {
        self.0
    }
    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 = (self.0 ^ b as u64).wrapping_mul(MIX);
        }
    }
    fn write_u8(&mut self, v: u8) {
        self.write_u64(v as u64);
    }
    fn write_u32(&mut self, v: u32) {
        self.write_u64(v as u64);
    }
    fn write_u64(&mut self, v: u64) {
        self.0 = (self.0 ^ v).wrapping_mul(MIX);
    }
    fn write_usize(&mut self, v: usize) {
        self.write_u64(v as u64);
    }
}

/// A `HashMap` with [`MixHasher`] in place of SipHash.
pub type FastMap<K, V> = HashMap<K, V, BuildHasherDefault<MixHasher>>;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sequential_keys_hash_distinctly() {
        let mut seen = std::collections::HashSet::new();
        for k in 0u64..10_000 {
            let mut h = MixHasher::default();
            h.write_u64(k);
            assert!(seen.insert(h.finish()), "collision at {k}");
        }
    }

    #[test]
    fn map_roundtrip() {
        let mut m: FastMap<u64, u64> = FastMap::default();
        for k in 0..1000u64 {
            m.insert(k, k * 2);
        }
        for k in 0..1000u64 {
            assert_eq!(m.get(&k), Some(&(k * 2)));
        }
    }
}
