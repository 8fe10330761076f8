//! Modulation and Coding Scheme table (3GPP TS 38.214 Table 5.1.3.1-1,
//! 64-QAM table) and MCS selection with outer-loop link adaptation.
//!
//! The achievable physical-layer bit rate of a UE is primarily determined by
//! the MCS, "selected based on the UE's wireless channel conditions" (paper
//! §5.1). We model the gNB's inner-loop selection as a SINR-threshold rule
//! derived from the Shannon capacity with an implementation-efficiency gap,
//! plus an outer loop that trims an offset to hold the block-error-rate
//! target, as production schedulers do.

/// One row of the MCS table: modulation order and code rate.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) struct McsEntry {
    /// Bits per modulation symbol (2 = QPSK, 4 = 16QAM, 6 = 64QAM).
    pub qm: u8,
    /// Code rate × 1024, as specified.
    pub rate_x1024: u16,
}

impl McsEntry {
    /// Code rate as a fraction.
    pub(crate) fn code_rate(&self) -> f64 {
        self.rate_x1024 as f64 / 1024.0
    }

    /// Spectral efficiency in information bits per resource element.
    pub(crate) fn spectral_efficiency(&self) -> f64 {
        self.qm as f64 * self.code_rate()
    }
}

/// TS 38.214 Table 5.1.3.1-1 (MCS index table 1 for PDSCH), indices 0–28.
pub(crate) const MCS_TABLE: [McsEntry; 29] = [
    McsEntry {
        qm: 2,
        rate_x1024: 120,
    },
    McsEntry {
        qm: 2,
        rate_x1024: 157,
    },
    McsEntry {
        qm: 2,
        rate_x1024: 193,
    },
    McsEntry {
        qm: 2,
        rate_x1024: 251,
    },
    McsEntry {
        qm: 2,
        rate_x1024: 308,
    },
    McsEntry {
        qm: 2,
        rate_x1024: 379,
    },
    McsEntry {
        qm: 2,
        rate_x1024: 449,
    },
    McsEntry {
        qm: 2,
        rate_x1024: 526,
    },
    McsEntry {
        qm: 2,
        rate_x1024: 602,
    },
    McsEntry {
        qm: 2,
        rate_x1024: 679,
    },
    McsEntry {
        qm: 4,
        rate_x1024: 340,
    },
    McsEntry {
        qm: 4,
        rate_x1024: 378,
    },
    McsEntry {
        qm: 4,
        rate_x1024: 434,
    },
    McsEntry {
        qm: 4,
        rate_x1024: 490,
    },
    McsEntry {
        qm: 4,
        rate_x1024: 553,
    },
    McsEntry {
        qm: 4,
        rate_x1024: 616,
    },
    McsEntry {
        qm: 4,
        rate_x1024: 658,
    },
    McsEntry {
        qm: 6,
        rate_x1024: 438,
    },
    McsEntry {
        qm: 6,
        rate_x1024: 466,
    },
    McsEntry {
        qm: 6,
        rate_x1024: 517,
    },
    McsEntry {
        qm: 6,
        rate_x1024: 567,
    },
    McsEntry {
        qm: 6,
        rate_x1024: 616,
    },
    McsEntry {
        qm: 6,
        rate_x1024: 666,
    },
    McsEntry {
        qm: 6,
        rate_x1024: 719,
    },
    McsEntry {
        qm: 6,
        rate_x1024: 772,
    },
    McsEntry {
        qm: 6,
        rate_x1024: 822,
    },
    McsEntry {
        qm: 6,
        rate_x1024: 873,
    },
    McsEntry {
        qm: 6,
        rate_x1024: 910,
    },
    McsEntry {
        qm: 6,
        rate_x1024: 948,
    },
];

/// Highest valid MCS index.
pub const MAX_MCS: u8 = 28;

/// Implementation efficiency relative to Shannon capacity used to derive the
/// per-MCS SINR requirement; 0.75 is a common link-level abstraction value.
const SHANNON_EFFICIENCY: f64 = 0.75;

/// SINR (dB) at which MCS `mcs` achieves roughly the 10 % BLER target.
///
/// Derived by inverting `SE = η · log2(1 + SINR)`. The per-index values are
/// computed once and memoized: this sits on the per-slot scheduling path
/// (MCS selection and the BLER abstraction both read it), and the
/// `powf`/`log10` pair dominated the whole slot loop before memoization
/// (~380 ns per `select_mcs` call, ~2000 calls per simulated second).
pub(crate) fn sinr_required_db(mcs: u8) -> f64 {
    sinr_required_table()[mcs as usize]
}

fn sinr_required_table() -> &'static [f64; 29] {
    static TABLE: std::sync::OnceLock<[f64; 29]> = std::sync::OnceLock::new();
    TABLE.get_or_init(|| {
        std::array::from_fn(|mcs| {
            let se = MCS_TABLE[mcs].spectral_efficiency();
            let snr_linear = 2f64.powf(se / SHANNON_EFFICIENCY) - 1.0;
            10.0 * snr_linear.log10()
        })
    })
}

/// Running maximum of [`sinr_required_db`] over indices `0..=mcs`.
///
/// Selection climbs the table until the first requirement the effective
/// SINR misses, so it picks the longest prefix whose *largest* requirement
/// is met. This copy is monotone even across the 16→17 dip, which turns
/// that climb into a binary search with exactly the same answer.
fn select_threshold_table() -> &'static [f64; 29] {
    static TABLE: std::sync::OnceLock<[f64; 29]> = std::sync::OnceLock::new();
    TABLE.get_or_init(|| {
        let mut t = *sinr_required_table();
        for mcs in 1..t.len() {
            t[mcs] = t[mcs].max(t[mcs - 1]);
        }
        t
    })
}

/// Inner-loop MCS selection: the highest MCS whose SINR requirement is met by
/// `sinr_db + olla_offset_db + margin_db`, clamped to `cap`.
///
/// `margin_db` < 0 models the conservative UL selection strategy the paper
/// observes on the Amarisoft cell (§5.1.1: "the cell's conservative UL MCS
/// selection strategy").
pub fn select_mcs(sinr_db: f64, olla_offset_db: f64, margin_db: f64, cap: u8) -> u8 {
    let effective = sinr_db + olla_offset_db + margin_db;
    let cap = cap.min(MAX_MCS) as usize;
    let met = select_threshold_table()[..=cap].partition_point(|&t| t <= effective);
    met.saturating_sub(1) as u8
}

/// Outer-loop link adaptation: walks an SINR offset so that the realised
/// BLER converges to `bler_target`.
#[derive(Debug, Clone)]
pub struct OuterLoop {
    offset_db: f64,
    step_down_db: f64,
    step_up_db: f64,
    min_db: f64,
    max_db: f64,
}

impl OuterLoop {
    /// Creates an outer loop for the given BLER target with the conventional
    /// asymmetric steps (`up = down · target/(1-target)`).
    pub fn new(bler_target: f64, step_down_db: f64) -> Self {
        assert!((0.0..1.0).contains(&bler_target) && bler_target > 0.0);
        OuterLoop {
            offset_db: 0.0,
            step_down_db,
            step_up_db: step_down_db * bler_target / (1.0 - bler_target),
            min_db: -10.0,
            max_db: 3.0,
        }
    }

    /// Current offset applied to the measured SINR.
    pub(crate) fn offset_db(&self) -> f64 {
        self.offset_db
    }

    /// Feeds the outcome of an *initial* HARQ transmission.
    pub fn observe(&mut self, decoded_ok: bool) {
        if decoded_ok {
            self.offset_db = (self.offset_db + self.step_up_db).min(self.max_db);
        } else {
            self.offset_db = (self.offset_db - self.step_down_db).max(self.min_db);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// The linear scan `select_mcs` replaced: climb from MCS 0 and stop at
    /// the first requirement the effective SINR misses.
    fn select_mcs_scan(sinr_db: f64, olla_offset_db: f64, margin_db: f64, cap: u8) -> u8 {
        let effective = sinr_db + olla_offset_db + margin_db;
        let cap = cap.min(MAX_MCS);
        let table = sinr_required_table();
        let mut best = 0u8;
        for mcs in 0..=cap {
            if table[mcs as usize] <= effective {
                best = mcs;
            } else {
                break;
            }
        }
        best
    }

    #[test]
    fn binary_search_matches_linear_scan() {
        let mut probes = vec![f64::INFINITY, f64::NEG_INFINITY, f64::NAN, 0.0, -0.0];
        for &t in sinr_required_table() {
            // Each threshold and its neighbouring floats on both sides.
            probes.extend([
                t,
                f64::from_bits(t.to_bits() - 1),
                f64::from_bits(t.to_bits() + 1),
            ]);
        }
        // Dense sweep past both ends of the table, 0.001 dB apart.
        probes.extend((-15_000..=35_000).map(|i| i as f64 / 1000.0));
        for cap in 0..=30u8 {
            for &s in &probes {
                assert_eq!(
                    select_mcs(s, 0.0, 0.0, cap),
                    select_mcs_scan(s, 0.0, 0.0, cap),
                    "sinr {s:e} cap {cap}"
                );
            }
        }
        // The 16→17 dip: MCS 17 needs slightly less than 16, but the
        // climb stops at 16, so SINR between the two selects 15.
        let mid = (sinr_required_db(17) + sinr_required_db(16)) / 2.0;
        assert!(sinr_required_db(17) < mid && mid < sinr_required_db(16));
        assert_eq!(select_mcs(mid, 0.0, 0.0, MAX_MCS), 15);
    }

    #[test]
    fn table_spot_values() {
        // Spot-check against TS 38.214 Table 5.1.3.1-1.
        assert_eq!(
            MCS_TABLE[0],
            McsEntry {
                qm: 2,
                rate_x1024: 120
            }
        );
        assert_eq!(
            MCS_TABLE[9],
            McsEntry {
                qm: 2,
                rate_x1024: 679
            }
        );
        assert_eq!(
            MCS_TABLE[10],
            McsEntry {
                qm: 4,
                rate_x1024: 340
            }
        );
        assert_eq!(
            MCS_TABLE[16],
            McsEntry {
                qm: 4,
                rate_x1024: 658
            }
        );
        assert_eq!(
            MCS_TABLE[17],
            McsEntry {
                qm: 6,
                rate_x1024: 438
            }
        );
        assert_eq!(
            MCS_TABLE[28],
            McsEntry {
                qm: 6,
                rate_x1024: 948
            }
        );
    }

    #[test]
    fn spectral_efficiency_monotone() {
        // The real table has one known dip at the 16QAM→64QAM boundary
        // (index 16→17: 2.5703 vs 2.5664); everywhere else SE increases.
        for (i, w) in MCS_TABLE.windows(2).enumerate() {
            if i == 16 {
                assert!((w[1].spectral_efficiency() - w[0].spectral_efficiency()).abs() < 0.01);
            } else {
                assert!(
                    w[1].spectral_efficiency() > w[0].spectral_efficiency(),
                    "at {i}"
                );
            }
        }
        assert!((MCS_TABLE[28].spectral_efficiency() - 5.5547).abs() < 0.001);
    }

    #[test]
    fn sinr_requirement_range() {
        // QPSK rate-0.117 decodes well below 0 dB; MCS 28 needs ~20+ dB.
        assert!(sinr_required_db(0) < -4.0);
        assert!(sinr_required_db(28) > 18.0);
        for mcs in 1..=MAX_MCS {
            // Same known non-monotonicity at 16→17 as spectral efficiency.
            if mcs == 17 {
                assert!((sinr_required_db(17) - sinr_required_db(16)).abs() < 0.1);
            } else {
                assert!(
                    sinr_required_db(mcs) > sinr_required_db(mcs - 1),
                    "at {mcs}"
                );
            }
        }
    }

    #[test]
    fn selection_monotone_in_sinr() {
        let mut last = 0;
        for s in -10..30 {
            let m = select_mcs(s as f64, 0.0, 0.0, MAX_MCS);
            assert!(m >= last);
            last = m;
        }
        assert_eq!(select_mcs(100.0, 0.0, 0.0, MAX_MCS), MAX_MCS);
        assert_eq!(select_mcs(-100.0, 0.0, 0.0, MAX_MCS), 0);
    }

    #[test]
    fn selection_respects_cap_and_margin() {
        assert_eq!(select_mcs(40.0, 0.0, 0.0, 12), 12);
        let unmargined = select_mcs(12.0, 0.0, 0.0, MAX_MCS);
        let margined = select_mcs(12.0, 0.0, -4.0, MAX_MCS);
        assert!(margined < unmargined);
    }

    #[test]
    fn outer_loop_tracks_target() {
        let mut ol = OuterLoop::new(0.1, 0.5);
        // 50% NACKs: way above target, offset must fall.
        for i in 0..100 {
            ol.observe(i % 2 == 0);
        }
        assert!(ol.offset_db() < -5.0);
        // All ACKs: offset recovers toward max.
        for _ in 0..2000 {
            ol.observe(true);
        }
        assert!(ol.offset_db() > 2.0);
    }

    proptest! {
        /// The selected MCS never requires more SINR than available.
        #[test]
        fn prop_selection_feasible(sinr in -20.0f64..40.0, margin in -6.0f64..0.0) {
            let m = select_mcs(sinr, 0.0, margin, MAX_MCS);
            if m > 0 {
                prop_assert!(sinr_required_db(m) <= sinr + margin);
            }
        }
    }
}
