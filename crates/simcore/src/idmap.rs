//! Hash maps and sets keyed by `u64` ids: the live pool's session ids and
//! the chaos tap's dropped packet ids. Dense per-packet sequence maps use
//! [`crate::SeqRing`] instead.
//!
//! [`IdHasher`] replaces the default SipHash for these keys for two
//! reasons: it is several times cheaper on a `u64`-only key, and it is
//! *deterministic* — the std `RandomState` seed changes a table's
//! tombstone layout and therefore its resize points, which would make
//! footprint counters non-reproducible across runs. It offers no
//! protection against adversarial keys; use it only for ids the program
//! assigns itself.

use std::collections::{HashMap, HashSet};
use std::hash::BuildHasherDefault;

/// Multiplicative hasher for `u64` ids.
#[derive(Debug, Clone, Copy, Default)]
pub struct IdHasher(u64);

impl std::hash::Hasher for IdHasher {
    fn finish(&self) -> u64 {
        self.0
    }
    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 = (self.0 ^ b as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15);
        }
    }
    fn write_u64(&mut self, i: u64) {
        // Fibonacci-multiply then spread high bits into the low bits the
        // table indexes with.
        let h = i.wrapping_mul(0x9E37_79B9_7F4A_7C15);
        self.0 = h ^ (h >> 29);
    }
}

/// A `HashMap` from `u64` ids, hashed with [`IdHasher`].
pub type IdMap<V> = HashMap<u64, V, BuildHasherDefault<IdHasher>>;

/// A `HashSet` of `u64` ids, hashed with [`IdHasher`].
pub type IdSet = HashSet<u64, BuildHasherDefault<IdHasher>>;
