//! Acknowledged-bitrate estimator: the throughput the receiver demonstrably
//! got, measured from transport feedback (paper §6.2).

use std::collections::VecDeque;

use simcore::{SimDuration, SimTime};

/// Sliding window over acknowledged bytes.
const WINDOW: SimDuration = SimDuration::from_millis(500);
/// Minimum window fill before producing an estimate.
const MIN_SAMPLES: usize = 4;

/// Estimates the delivered bitrate from (arrival time, size) samples.
#[derive(Debug, Clone, Default)]
pub struct AckedBitrateEstimator {
    samples: VecDeque<(SimTime, u32)>,
    total_bytes: u64,
}

impl AckedBitrateEstimator {
    /// Creates an empty estimator.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records one acknowledged packet.
    pub(crate) fn on_acked(&mut self, arrival: SimTime, size_bytes: u32) {
        self.samples.push_back((arrival, size_bytes));
        self.total_bytes += size_bytes as u64;
        let horizon = if arrival.saturating_since(SimTime::ZERO) > WINDOW {
            arrival - WINDOW
        } else {
            SimTime::ZERO
        };
        while let Some(&(t, sz)) = self.samples.front() {
            if t < horizon {
                self.samples.pop_front();
                self.total_bytes -= sz as u64;
            } else {
                break;
            }
        }
    }

    /// Current estimate in bits/s, or `None` before enough samples.
    pub fn bitrate_bps(&self) -> Option<f64> {
        if self.samples.len() < MIN_SAMPLES {
            return None;
        }
        let first = self.samples.front().expect("non-empty").0;
        let last = self.samples.back().expect("non-empty").0;
        let span = last.saturating_since(first).as_secs_f64().max(0.05);
        Some(self.total_bytes as f64 * 8.0 / span)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn steady_stream_estimates_rate() {
        let mut e = AckedBitrateEstimator::new();
        // 1200 bytes every 10 ms = 960 kbit/s.
        for i in 0..100u64 {
            e.on_acked(SimTime::from_millis(1000 + i * 10), 1200);
        }
        let r = e.bitrate_bps().unwrap();
        assert!((r - 960_000.0).abs() < 100_000.0, "rate {r}");
    }

    #[test]
    fn needs_minimum_samples() {
        let mut e = AckedBitrateEstimator::new();
        e.on_acked(SimTime::from_millis(1), 1000);
        e.on_acked(SimTime::from_millis(2), 1000);
        assert!(e.bitrate_bps().is_none());
    }

    #[test]
    fn window_expires_old_samples() {
        let mut e = AckedBitrateEstimator::new();
        for i in 0..50u64 {
            e.on_acked(SimTime::from_millis(i * 10), 5000); // 4 Mbit/s
        }
        // A quiet second, then a slow trickle.
        for i in 0..50u64 {
            e.on_acked(SimTime::from_millis(2000 + i * 10), 250); // 200 kbit/s
        }
        let r = e.bitrate_bps().unwrap();
        assert!(r < 400_000.0, "old fast samples must have expired: {r}");
    }
}
