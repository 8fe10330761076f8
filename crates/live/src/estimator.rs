//! The online per-stream delay estimator behind
//! [`telemetry::Lateness::Adaptive`].
//!
//! Every record entering the live pipeline carries an observable delay:
//! how far behind the session clock its timestamp was when it arrived
//! (for packets: how long after the send the delivery resolved its fate).
//! This module accumulates those delays into fixed-bin histograms — the
//! same order-free [`HistData`]/[`HistLayout`] machinery the obs crate
//! merges across shards — and answers the two questions the adaptive
//! watermark needs:
//!
//! * `DelayEstimator::bound_ms`: the smallest histogram bucket upper
//!   bound covering at least the target quantile of observed delays — a
//!   *conservative* (rounded-up) quantile, integer-only, so the chosen
//!   bound is identical at any partitioning of the same session.
//! * `DelayEstimator::drop_risk`: the fraction of observed delays a
//!   given bound would have dropped — what an
//!   [`crate::EarlyExit::Slo`] policy compares against its risk budget.
//!
//! All state is integer accumulation keyed only by the record sequence
//! the session emits, so the estimator — and therefore the adaptive
//! bound and everything downstream of it — is deterministic across
//! threads, shards, and multiplex widths.

use domino_obs::{HistData, HistLayout};
use simcore::SimDuration;
use telemetry::TapStream;

/// Delay histogram layout: must match `domino_obs::HistId::LiveDelayMs`
/// so sweep workers can absorb the per-session histograms directly.
pub(crate) const DELAY_LAYOUT: HistLayout = HistLayout::Log2(17);

/// Samples required before an adaptive bound trusts the distribution;
/// below this the bound stays at the policy ceiling (conservative start).
pub(crate) const ADAPTIVE_MIN_SAMPLES: u64 = 64;

/// Online per-stream record-delay distribution for one session.
#[derive(Debug, Clone)]
pub struct DelayEstimator {
    per_stream: [HistData; TapStream::COUNT],
    combined: HistData,
}

impl Default for DelayEstimator {
    fn default() -> Self {
        Self::new()
    }
}

impl DelayEstimator {
    /// An empty estimator.
    pub fn new() -> Self {
        DelayEstimator {
            per_stream: [HistData::EMPTY; TapStream::COUNT],
            combined: HistData::EMPTY,
        }
    }

    /// Records one observed delay on `stream`.
    #[inline]
    pub fn record(&mut self, stream: TapStream, delay: SimDuration) {
        let ms = delay.as_millis();
        self.per_stream[stream.idx()].record(DELAY_LAYOUT, ms);
        self.combined.record(DELAY_LAYOUT, ms);
    }

    /// Total delay samples observed.
    pub fn samples(&self) -> u64 {
        self.combined.count
    }

    /// The merged distribution across all streams.
    pub fn combined(&self) -> &HistData {
        &self.combined
    }

    /// Smallest bucket upper bound (ms) covering at least quantile `q` of
    /// the observed delays — integer-only and conservative (the realised
    /// coverage is ≥ `q`). `u64::MAX` when no samples were observed or
    /// the mass sits in the saturating last bucket.
    pub(crate) fn bound_ms(&self, q: f64) -> u64 {
        let d = &self.combined;
        if d.count == 0 {
            return u64::MAX;
        }
        // Integer target: ceil(q * count) without going through floats on
        // the comparison side (q itself is config, identical everywhere).
        let target = ((q.clamp(0.0, 1.0) * d.count as f64).ceil() as u64).max(1);
        let mut cum = 0u64;
        for (i, &c) in d.counts.iter().enumerate().take(DELAY_LAYOUT.buckets()) {
            cum += c;
            if cum >= target {
                let (_, hi) = DELAY_LAYOUT.bounds(i);
                if i + 1 == DELAY_LAYOUT.buckets() {
                    // Saturating bucket: its upper bound is not a real
                    // delay bound.
                    return u64::MAX;
                }
                return hi;
            }
        }
        u64::MAX
    }

    /// Fraction of observed delays that a lateness bound of `bound_ms`
    /// milliseconds would have dropped (0.0 when empty). Exact when
    /// `bound_ms` is a bucket boundary — which every
    /// [`Self::bound_ms`] result is.
    pub(crate) fn drop_risk(&self, bound_ms: u64) -> f64 {
        let d = &self.combined;
        if d.count == 0 {
            return 0.0;
        }
        let first = if bound_ms == 0 {
            0
        } else {
            DELAY_LAYOUT.index(bound_ms)
        };
        let at_risk: u64 = d
            .counts
            .iter()
            .take(DELAY_LAYOUT.buckets())
            .skip(first)
            .sum();
        at_risk as f64 / d.count as f64
    }

    /// Drop risk as an integer percentage (for `Pct10` histogram export).
    pub fn drop_risk_pct(&self, bound_ms: u64) -> u64 {
        let d = &self.combined;
        if d.count == 0 {
            return 0;
        }
        let first = if bound_ms == 0 {
            0
        } else {
            DELAY_LAYOUT.index(bound_ms)
        };
        let at_risk: u64 = d
            .counts
            .iter()
            .take(DELAY_LAYOUT.buckets())
            .skip(first)
            .sum();
        at_risk * 100 / d.count
    }

    /// Drops all samples (returning to the post-`new` state).
    pub fn clear(&mut self) {
        self.per_stream = [HistData::EMPTY; TapStream::COUNT];
        self.combined = HistData::EMPTY;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ms(v: u64) -> SimDuration {
        SimDuration::from_millis(v)
    }

    #[test]
    fn empty_estimator_is_maximally_conservative() {
        let e = DelayEstimator::new();
        assert_eq!(e.samples(), 0);
        assert_eq!(e.bound_ms(0.99), u64::MAX);
        assert_eq!(e.drop_risk(1000), 0.0);
    }

    #[test]
    fn bound_rounds_up_to_a_bucket_boundary() {
        let mut e = DelayEstimator::new();
        for _ in 0..100 {
            e.record(TapStream::Gnb, ms(90)); // bucket [64, 128)
        }
        // Every sample is < 128 ms, so any quantile bound is 128.
        assert_eq!(e.bound_ms(0.5), 128);
        assert_eq!(e.bound_ms(1.0), 128);
        // The chosen bound drops nothing.
        assert_eq!(e.drop_risk(128), 0.0);
        assert_eq!(e.drop_risk_pct(128), 0);
    }

    #[test]
    fn quantile_splits_bimodal_mass() {
        let mut e = DelayEstimator::new();
        for _ in 0..90 {
            e.record(TapStream::Dci, ms(50)); // [32, 64)
        }
        for _ in 0..10 {
            e.record(TapStream::Gnb, ms(6000)); // [4096, 8192)
        }
        // p90 covered by the small mode's bucket upper bound.
        assert_eq!(e.bound_ms(0.90), 64);
        // Cutting at 64 ms drops exactly the slow 10%.
        assert!((e.drop_risk(64) - 0.10).abs() < 1e-12);
        assert_eq!(e.drop_risk_pct(64), 10);
        // Covering everything needs the slow mode's bucket.
        assert_eq!(e.bound_ms(1.0), 8192);
        assert_eq!(e.drop_risk(8192), 0.0);
    }

    #[test]
    fn per_stream_histograms_partition_the_combined() {
        let mut e = DelayEstimator::new();
        e.record(TapStream::AppLocal, ms(10));
        e.record(TapStream::Packet, ms(20));
        e.record(TapStream::Packet, ms(30));
        assert_eq!(e.per_stream[TapStream::AppLocal.idx()].count, 1);
        assert_eq!(e.per_stream[TapStream::Packet.idx()].count, 2);
        assert_eq!(e.combined().count, 3);
        e.clear();
        assert_eq!(e.samples(), 0);
    }
}
