//! Host-speed calibration.
//!
//! The benchmark host is a share of a larger machine, and its speed drifts
//! by tens of percent over minutes while neighbours come and go: a whole
//! run can land in a slow spell. A fixed calibration kernel, run on the
//! worker threads between stretches of measured work, reads the host's
//! speed at that moment. The end-to-end metrics are reported at the speed
//! of a reference host (see [`REF_CHUNK_NS`]): a slow spell slows the
//! kernel and the program alike and cancels out, while a change to the
//! program does not touch the kernel and shows in full.
//!
//! The kernel fills and probes a hash map, the kind of hashing, branching,
//! cache-resident integer work the program does. Kernels that sort, chase
//! pointers through 8 MiB or stream 4 MiB were tried as well; they followed
//! the program's slow spells less closely.

use std::collections::HashMap;
use std::hint::black_box;
use std::time::Instant;

use crate::report::median;

/// Keys the kernel inserts into and looks up in the hash map.
const MAP_KEYS: usize = 4096;

/// Nanoseconds of one [`Calibrator::measure`] on the reference host: a
/// 2-vCPU Intel Xeon (Sapphire Rapids) KVM guest in a quiet spell.
pub const REF_CHUNK_NS: f64 = 125_000.0;

/// Measurements in one [`Calibrator::sample`].
const SAMPLE: usize = 16;

/// The calibration kernel and its fixed input, one per thread.
pub struct Calibrator {
    keys: Vec<u64>,
    map: HashMap<u64, u64>,
}

impl Default for Calibrator {
    fn default() -> Self {
        let mut state = 0x5EED_CA1B_u64;
        let keys = (0..MAP_KEYS)
            .map(|_| {
                // splitmix64
                state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
                let mut z = state;
                z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
                z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
                z ^ (z >> 31)
            })
            .collect();
        Calibrator {
            keys,
            map: HashMap::with_capacity(MAP_KEYS),
        }
    }
}

impl Calibrator {
    fn kernel(&mut self) {
        self.map.clear();
        for &k in &self.keys {
            self.map.insert(k, k >> 3);
        }
        let mut s = 0u64;
        for &k in self.keys.iter().rev() {
            s = s.wrapping_add(self.map[&k]);
        }
        black_box(s);
    }

    /// Runs the kernel twice and returns the nanoseconds of the second
    /// run. The first brings the kernel's data back into cache, so what
    /// the program left there does not count.
    pub fn measure(&mut self) -> u64 {
        self.kernel();
        let t = Instant::now();
        self.kernel();
        t.elapsed().as_nanos() as u64
    }

    /// [`Self::measure`]s [`SAMPLE`] times.
    pub fn sample(&mut self) -> Vec<u64> {
        (0..SAMPLE).map(|_| self.measure()).collect()
    }
}

/// The host's speed relative to the reference host, from
/// [`Calibrator::measure`] times: 1 at reference speed, below 1 when
/// slower. A host time `t` measured here is `t * speed` on the reference
/// host, a rate `r` is `r / speed`.
pub fn speed(chunk_ns: &[u64]) -> f64 {
    let mut ns: Vec<f64> = chunk_ns.iter().map(|&n| n as f64).collect();
    REF_CHUNK_NS / median(&mut ns)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn speed_is_reference_over_median_chunk() {
        let ns = [1, 2 * REF_CHUNK_NS as u64, 1_000_000_000];
        assert_eq!(speed(&ns), 0.5);
    }
}
