//! Reproducible RNG stream derivation.
//!
//! A whole experiment is keyed by a single `u64` seed. Each component
//! (channel model, cross-traffic generator, HARQ decoder, path jitter, ...)
//! gets its own *stream* derived from `(seed, stream id)`, so adding a new
//! consumer of randomness never perturbs the draws other components see —
//! a property the regression tests in the workspace rely on.

use rand::rngs::StdRng;
use rand::SeedableRng;

/// Well-known stream identifiers used across the workspace.
///
/// Keeping them in one registry documents every consumer of randomness and
/// prevents accidental stream collisions between crates.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum RngStream {
    /// Wireless channel evolution (shadowing, fades) — uplink.
    ChannelUl,
    /// Wireless channel evolution — downlink.
    ChannelDl,
    /// Cross-traffic arrival process — uplink.
    CrossTrafficUl,
    /// Cross-traffic arrival process — downlink.
    CrossTrafficDl,
    /// HARQ transport-block decode outcomes.
    HarqDecode,
    /// RRC state-transition timing.
    Rrc,
    /// Non-RAN network path jitter/loss (forward direction).
    PathForward,
    /// Non-RAN network path jitter/loss (reverse direction).
    PathReverse,
    /// Media source (frame size variation, keyframes).
    MediaSource,
    /// Synthetic campus-dataset generation.
    CampusDataset,
    /// Free-form stream for tests and tools.
    Custom(u16),
}

impl RngStream {
    fn id(self) -> u64 {
        match self {
            RngStream::ChannelUl => 1,
            RngStream::ChannelDl => 2,
            RngStream::CrossTrafficUl => 3,
            RngStream::CrossTrafficDl => 4,
            RngStream::HarqDecode => 5,
            RngStream::Rrc => 6,
            RngStream::PathForward => 7,
            RngStream::PathReverse => 8,
            RngStream::MediaSource => 9,
            RngStream::CampusDataset => 10,
            RngStream::Custom(n) => 1000 + n as u64,
        }
    }
}

/// Derives an independent, reproducible RNG for (`seed`, `stream`).
///
/// Uses SplitMix64 over the combined key to whiten the seed material before
/// feeding `StdRng`; nearby seeds yield unrelated streams.
pub fn rng_for(seed: u64, stream: RngStream) -> StdRng {
    let mut z = seed ^ stream.id().wrapping_mul(0x9E37_79B9_7F4A_7C15);
    let mut material = [0u8; 32];
    for chunk in material.chunks_mut(8) {
        z = splitmix64(z);
        chunk.copy_from_slice(&z.to_le_bytes());
    }
    StdRng::from_seed(material)
}

/// Derives the `index`-th session seed from a sweep's master seed.
///
/// Sweep grids use this instead of `master + index` so that neighbouring
/// sessions get unrelated RNG streams: a SplitMix64 step over the combined
/// key whitens the material exactly like [`rng_for`] does for streams. The
/// derivation is pure, so a sweep can be partitioned across threads (or
/// machines) in any order and every session still sees the same seed.
pub fn derive_seed(master: u64, index: u64) -> u64 {
    splitmix64(master ^ index.wrapping_mul(0xA076_1D64_78BD_642F))
}

/// The workspace's counter-based hash: SplitMix64's output function
/// applied to `key + 0x9E37_79B9_7F4A_7C15`. Callers fold their inputs
/// (seed, stream, counter, ...) into `key`, so each draw is a pure
/// function of them. Inlined: it runs per slot and per chaos decision.
#[inline]
pub fn splitmix64(key: u64) -> u64 {
    let mut z = key.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::Rng;

    #[test]
    fn same_key_same_stream() {
        let a: Vec<u64> = rng_for(42, RngStream::HarqDecode)
            .sample_iter(rand::distributions::Standard)
            .take(8)
            .collect();
        let b: Vec<u64> = rng_for(42, RngStream::HarqDecode)
            .sample_iter(rand::distributions::Standard)
            .take(8)
            .collect();
        assert_eq!(a, b);
    }

    #[test]
    fn different_streams_diverge() {
        let a: u64 = rng_for(42, RngStream::ChannelUl).gen();
        let b: u64 = rng_for(42, RngStream::ChannelDl).gen();
        assert_ne!(a, b);
    }

    #[test]
    fn different_seeds_diverge() {
        let a: u64 = rng_for(1, RngStream::Rrc).gen();
        let b: u64 = rng_for(2, RngStream::Rrc).gen();
        assert_ne!(a, b);
    }

    #[test]
    fn derived_seeds_are_stable_and_distinct() {
        let a = derive_seed(42, 0);
        assert_eq!(a, derive_seed(42, 0), "derivation must be pure");
        let seeds: Vec<u64> = (0..100).map(|i| derive_seed(42, i)).collect();
        let mut dedup = seeds.clone();
        dedup.sort_unstable();
        dedup.dedup();
        assert_eq!(dedup.len(), seeds.len(), "collisions in derived seeds");
        assert_ne!(derive_seed(42, 1), derive_seed(43, 1));
    }

    #[test]
    fn custom_streams_do_not_collide_with_builtin() {
        let builtin: u64 = rng_for(7, RngStream::CampusDataset).gen();
        let custom: u64 = rng_for(7, RngStream::Custom(0)).gen();
        assert_ne!(builtin, custom);
    }
}
