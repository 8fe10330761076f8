//! Transport Block Size determination per 3GPP TS 38.214 §5.1.3.2.
//!
//! "The Transport Block Size depends on the number of allocated PRBs and the
//! wireless physical-layer bit rate" (paper §5.1). This module implements the
//! standard's four-step procedure: resource-element counting, the
//! intermediate information payload `Ninfo`, quantization, and the TBS table
//! lookup for payloads ≤ 3824 bits (Table 5.1.3.2-1) or the formula above it.

use super::mcs::MCS_TABLE;

/// TS 38.214 Table 5.1.3.2-1: valid TBS values (bits) for Ninfo ≤ 3824.
const TBS_TABLE: [u32; 93] = [
    24, 32, 40, 48, 56, 64, 72, 80, 88, 96, 104, 112, 120, 128, 136, 144, 152, 160, 168, 176, 184,
    192, 208, 224, 240, 256, 272, 288, 304, 320, 336, 352, 368, 384, 408, 432, 456, 480, 504, 528,
    552, 576, 608, 640, 672, 704, 736, 768, 808, 848, 888, 928, 984, 1032, 1064, 1128, 1160, 1192,
    1224, 1256, 1288, 1320, 1352, 1416, 1480, 1544, 1608, 1672, 1736, 1800, 1864, 1928, 2024, 2088,
    2152, 2216, 2280, 2408, 2472, 2536, 2600, 2664, 2728, 2792, 2856, 2976, 3104, 3240, 3368, 3496,
    3624, 3752, 3824,
];

/// Subcarriers per PRB.
const N_SC_RB: u32 = 12;
/// OFDM symbols per slot available for the shared channel.
const N_SYMB: u32 = 14;
/// DMRS resource elements per PRB (one full DMRS symbol, type 1).
const N_DMRS: u32 = 12;
/// Per-PRB RE cap applied by the spec after overhead subtraction.
const N_RE_CAP: u32 = 156;

/// Resource elements available in an allocation of `n_prbs`.
pub fn resource_elements(n_prbs: u16) -> u32 {
    let per_prb = (N_SC_RB * N_SYMB - N_DMRS).min(N_RE_CAP);
    per_prb * n_prbs as u32
}

/// Largest PRB allocation covered by the memoized TBS table (273 PRBs =
/// 100 MHz at 30 kHz SCS, the widest carrier modelled).
const TBS_CACHE_PRBS: usize = 273;

/// Transport block size in bits for `mcs` over `n_prbs` PRBs, single layer.
///
/// Returns 0 for an empty allocation. The full `(mcs, n_prbs)` grid up to
/// 273 PRBs is computed once and memoized — the scheduler reads
/// this several times per slot, and the four-step quantization procedure is
/// all float math.
pub fn tbs_bits(mcs: u8, n_prbs: u16) -> u32 {
    if (n_prbs as usize) <= TBS_CACHE_PRBS {
        static TABLE: std::sync::OnceLock<Vec<u32>> = std::sync::OnceLock::new();
        let table = TABLE.get_or_init(|| {
            let mut t = Vec::with_capacity(MCS_TABLE.len() * (TBS_CACHE_PRBS + 1));
            for mcs in 0..MCS_TABLE.len() as u8 {
                for prbs in 0..=TBS_CACHE_PRBS as u16 {
                    t.push(tbs_bits_uncached(mcs, prbs));
                }
            }
            t
        });
        return table[mcs as usize * (TBS_CACHE_PRBS + 1) + n_prbs as usize];
    }
    tbs_bits_uncached(mcs, n_prbs)
}

fn tbs_bits_uncached(mcs: u8, n_prbs: u16) -> u32 {
    if n_prbs == 0 {
        return 0;
    }
    let entry = MCS_TABLE[mcs as usize];
    let n_re = resource_elements(n_prbs) as f64;
    let n_info = n_re * entry.code_rate() * entry.qm as f64;

    if n_info <= 3824.0 {
        // Step 3: quantize and look up the table.
        let n = ((n_info.log2().floor() as i32) - 6).max(3) as u32;
        let pow = 2u32.pow(n) as f64;
        let n_info_q = (pow * (n_info / pow).floor()).max(24.0) as u32;
        // Smallest table entry ≥ quantized payload.
        *TBS_TABLE
            .iter()
            .find(|&&t| t >= n_info_q)
            .expect("quantized Ninfo ≤ 3824 is covered by the table")
    } else {
        // Step 4: formula-based sizing with code-block segmentation.
        let n = ((n_info - 24.0).log2().floor() as i32 - 5).max(0) as u32;
        let pow = 2u64.pow(n) as f64;
        let n_info_q = (pow * ((n_info - 24.0) / pow).round()).max(3840.0);
        let r = entry.code_rate();
        let c = if r <= 0.25 {
            ((n_info_q + 24.0) / 3816.0).ceil()
        } else if n_info_q > 8424.0 {
            ((n_info_q + 24.0) / 8424.0).ceil()
        } else {
            1.0
        };
        (8.0 * c * ((n_info_q + 24.0) / (8.0 * c)).ceil() - 24.0) as u32
    }
}

/// Number of PRBs needed to carry `bits` at `mcs` (rough inverse of
/// [`tbs_bits`], used by the scheduler to size grants).
pub fn prbs_needed(mcs: u8, bits: u32) -> u16 {
    if bits == 0 {
        return 0;
    }
    let entry = MCS_TABLE[mcs as usize];
    let per_prb = (resource_elements(1) as f64 * entry.code_rate() * entry.qm as f64).max(1.0);
    let est = (bits as f64 / per_prb).ceil() as u16;
    // The quantization can undershoot slightly; fix up by search.
    let mut n = est.max(1);
    while tbs_bits(mcs, n) < bits && n < u16::MAX {
        n += 1;
        if n > est + 8 {
            break; // bits exceed what quantization rounding explains
        }
    }
    n
}

/// Physical-layer bit rate (bits/s) of a sustained allocation, given the slot
/// duration in microseconds.
pub fn phy_rate_bps(mcs: u8, n_prbs: u16, slot_us: u64) -> f64 {
    tbs_bits(mcs, n_prbs) as f64 * 1e6 / slot_us as f64
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn table_is_sorted_and_byte_aligned() {
        for w in TBS_TABLE.windows(2) {
            assert!(w[1] > w[0]);
        }
        assert!(TBS_TABLE.iter().all(|t| t % 8 == 0));
    }

    #[test]
    fn resource_element_counting() {
        // 12*14 - 12 = 156, exactly at the cap.
        assert_eq!(resource_elements(1), 156);
        assert_eq!(resource_elements(10), 1560);
    }

    #[test]
    fn small_allocations_use_table() {
        // MCS 0, 1 PRB: Ninfo = 156 * 0.1172 * 2 ≈ 36.6 → quantized 32 → table 32.
        let t = tbs_bits(0, 1);
        assert!(TBS_TABLE.contains(&t), "got {t}");
        assert!((24..=48).contains(&t));
    }

    #[test]
    fn large_allocation_formula() {
        // MCS 28, 273 PRBs (100 MHz @ 30 kHz): ≈ 236k bits per slot,
        // i.e. ≈ 472 Mbit/s at 0.5 ms slots — the right order for NR.
        let t = tbs_bits(28, 273);
        assert!(t > 200_000 && t < 260_000, "got {t}");
        let rate = phy_rate_bps(28, 273, 500);
        assert!(rate > 4.0e8 && rate < 5.5e8, "rate {rate}");
    }

    #[test]
    fn zero_prbs_zero_bits() {
        assert_eq!(tbs_bits(15, 0), 0);
        assert_eq!(prbs_needed(15, 0), 0);
    }

    #[test]
    fn prbs_needed_is_sufficient() {
        for &bits in &[100u32, 1000, 12_000, 100_000] {
            for &mcs in &[0u8, 5, 10, 20, 28] {
                let n = prbs_needed(mcs, bits);
                assert!(
                    tbs_bits(mcs, n) >= bits || n > 270,
                    "mcs {mcs} bits {bits} → {n} prbs → {} bits",
                    tbs_bits(mcs, n)
                );
            }
        }
    }

    proptest! {
        /// TBS is monotone non-decreasing in PRBs, and in MCS except at the
        /// 16QAM→64QAM table boundary (index 16→17), where the real spec's
        /// spectral efficiency dips slightly.
        #[test]
        fn prop_tbs_monotone(mcs in 0u8..28, prbs in 1u16..270) {
            if mcs != 16 {
                prop_assert!(tbs_bits(mcs + 1, prbs) >= tbs_bits(mcs, prbs));
            } else {
                // Quantization amplifies the SE dip to a few percent.
                let lo = tbs_bits(17, prbs) as f64;
                let hi = tbs_bits(16, prbs) as f64;
                prop_assert!(lo >= hi * 0.95, "16→17 dip larger than spec: {hi} → {lo}");
            }
            prop_assert!(tbs_bits(mcs, prbs + 1) >= tbs_bits(mcs, prbs));
        }

        /// TBS grows roughly linearly with PRBs (within quantization slack).
        #[test]
        fn prop_tbs_roughly_linear(mcs in 0u8..=28, prbs in 4u16..130) {
            let one = tbs_bits(mcs, prbs) as f64;
            let two = tbs_bits(mcs, prbs * 2) as f64;
            prop_assert!(two > one * 1.6, "doubling PRBs should near-double TBS");
            prop_assert!(two < one * 2.4);
        }
    }
}
