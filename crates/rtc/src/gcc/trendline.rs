//! GCC delay-based congestion signal: packet grouping, the trendline filter,
//! and the adaptive-threshold overuse detector.
//!
//! Follows the design of Carlucci et al. ("Analysis and design of the Google
//! congestion control for WebRTC") and the libwebrtc implementation the
//! paper instruments: feedback-reported one-way delay *variations* between
//! packet groups are accumulated, exponentially smoothed, and fit with a
//! linear regression whose slope — scaled and compared against an adaptive
//! threshold — classifies the network as underused / normal / overused
//! (paper Fig. 21, subplots 2–3).

use simcore::{SimDuration, SimTime};
use telemetry::GccNetworkState;

/// Burst window for grouping packets by send time (libwebrtc: 5 ms).
const GROUP_WINDOW: SimDuration = SimDuration::from_millis(5);
/// Trendline regression window size in packet groups.
const WINDOW_SIZE: usize = 20;
/// Exponential smoothing coefficient for the accumulated delay.
const SMOOTHING: f64 = 0.9;
/// Gain applied to the regression slope before thresholding.
const THRESHOLD_GAIN: f64 = 4.0;
/// Adaptive threshold: upward adaptation rate (|trend| above threshold).
const K_UP: f64 = 0.0087;
/// Adaptive threshold: downward adaptation rate.
const K_DOWN: f64 = 0.039;
/// Minimum time in overuse before signalling (libwebrtc: 10 ms).
const OVERUSE_TIME_THRESHOLD_MS: f64 = 10.0;
/// Threshold clamp range (ms).
const THRESHOLD_RANGE: (f64, f64) = (6.0, 600.0);

/// One packet's send/arrival observation from transport feedback.
#[derive(Debug, Clone, Copy)]
pub struct PacketTiming {
    /// Send time at the local client.
    pub sent: SimTime,
    /// Arrival time at the remote client (reported via feedback).
    pub arrival: SimTime,
}

#[derive(Debug, Clone, Copy)]
struct Group {
    first_sent: SimTime,
    last_sent: SimTime,
    last_arrival: SimTime,
}

/// Delay-variation trendline estimator with adaptive-threshold detection.
#[derive(Debug, Clone)]
pub struct TrendlineEstimator {
    current: Option<Group>,
    previous: Option<Group>,
    accumulated_delay_ms: f64,
    smoothed_delay_ms: f64,
    history: Vec<(f64, f64)>, // (arrival time ms, smoothed delay ms)
    num_deltas: u32,
    slope: f64,
    threshold: f64,
    last_threshold_update: Option<SimTime>,
    state: GccNetworkState,
    overusing_since: Option<SimTime>,
    overuse_count: u32,
}

impl Default for TrendlineEstimator {
    fn default() -> Self {
        Self::new()
    }
}

impl TrendlineEstimator {
    /// Creates an estimator in the `Normal` state.
    pub fn new() -> Self {
        TrendlineEstimator {
            current: None,
            previous: None,
            accumulated_delay_ms: 0.0,
            smoothed_delay_ms: 0.0,
            history: Vec::with_capacity(WINDOW_SIZE),
            num_deltas: 0,
            slope: 0.0,
            threshold: 12.5,
            last_threshold_update: None,
            state: GccNetworkState::Normal,
            overusing_since: None,
            overuse_count: 0,
        }
    }

    /// Current classified network state.
    pub fn state(&self) -> GccNetworkState {
        self.state
    }

    /// Current modified trend value (slope × gain × deltas), in ms —
    /// the signal plotted in Fig. 21 subplot 2.
    pub(crate) fn modified_trend(&self) -> f64 {
        self.slope * THRESHOLD_GAIN * (self.num_deltas.min(60) as f64)
    }

    /// Current adaptive threshold (ms).
    pub fn threshold(&self) -> f64 {
        self.threshold
    }

    /// Raw regression slope (ms per group).
    pub fn slope(&self) -> f64 {
        self.slope
    }

    /// Feeds one packet timing observation (in feedback order).
    pub fn on_packet(&mut self, timing: PacketTiming) {
        match &mut self.current {
            Some(g) => {
                let burst = timing.sent.saturating_since(g.first_sent) <= GROUP_WINDOW;
                if burst {
                    g.last_sent = g.last_sent.max(timing.sent);
                    g.last_arrival = g.last_arrival.max(timing.arrival);
                } else {
                    // Group complete: compute inter-group delay variation.
                    let completed = *g;
                    if let Some(prev) = self.previous {
                        let send_delta = completed
                            .last_sent
                            .saturating_since(prev.last_sent)
                            .as_millis_f64();
                        let arrival_delta = completed
                            .last_arrival
                            .saturating_since(prev.last_arrival)
                            .as_millis_f64();
                        let delay_variation = arrival_delta - send_delta;
                        self.update_trend(completed.last_arrival, delay_variation);
                    }
                    self.previous = Some(completed);
                    self.current = Some(Group {
                        first_sent: timing.sent,
                        last_sent: timing.sent,
                        last_arrival: timing.arrival,
                    });
                }
            }
            None => {
                self.current = Some(Group {
                    first_sent: timing.sent,
                    last_sent: timing.sent,
                    last_arrival: timing.arrival,
                });
            }
        }
    }

    fn update_trend(&mut self, arrival: SimTime, delay_variation_ms: f64) {
        self.num_deltas += 1;
        self.accumulated_delay_ms += delay_variation_ms;
        self.smoothed_delay_ms =
            SMOOTHING * self.smoothed_delay_ms + (1.0 - SMOOTHING) * self.accumulated_delay_ms;

        self.history
            .push((arrival.as_millis_f64(), self.smoothed_delay_ms));
        if self.history.len() > WINDOW_SIZE {
            self.history.remove(0);
        }
        if self.history.len() >= 2 {
            self.slope = linear_fit_slope(&self.history);
        }
        self.detect(arrival);
    }

    fn detect(&mut self, now: SimTime) {
        let trend = self.modified_trend();
        if trend > self.threshold {
            let over_for = match self.overusing_since {
                Some(t0) => now.saturating_since(t0).as_millis_f64(),
                None => {
                    self.overusing_since = Some(now);
                    self.overuse_count = 0;
                    0.0
                }
            };
            self.overuse_count += 1;
            if over_for >= OVERUSE_TIME_THRESHOLD_MS && self.overuse_count > 1 {
                self.state = GccNetworkState::Overuse;
            }
        } else if trend < -self.threshold {
            self.overusing_since = None;
            self.state = GccNetworkState::Underuse;
        } else {
            self.overusing_since = None;
            self.state = GccNetworkState::Normal;
        }
        self.adapt_threshold(now, trend);
    }

    fn adapt_threshold(&mut self, now: SimTime, trend: f64) {
        // libwebrtc skips adaptation for extreme outliers.
        if trend.abs() > self.threshold + 15.0 {
            self.last_threshold_update = Some(now);
            return;
        }
        let k = if trend.abs() < self.threshold {
            K_DOWN
        } else {
            K_UP
        };
        let dt_ms = self
            .last_threshold_update
            .map(|t| now.saturating_since(t).as_millis_f64().min(100.0))
            .unwrap_or(16.0);
        self.threshold += k * (trend.abs() - self.threshold) * dt_ms;
        self.threshold = self.threshold.clamp(THRESHOLD_RANGE.0, THRESHOLD_RANGE.1);
        self.last_threshold_update = Some(now);
    }
}

/// Ordinary least-squares slope of (x, y) points.
fn linear_fit_slope(points: &[(f64, f64)]) -> f64 {
    let n = points.len() as f64;
    let sx: f64 = points.iter().map(|p| p.0).sum();
    let sy: f64 = points.iter().map(|p| p.1).sum();
    let mx = sx / n;
    let my = sy / n;
    let mut num = 0.0;
    let mut den = 0.0;
    for (x, y) in points {
        num += (x - mx) * (y - my);
        den += (x - mx) * (x - mx);
    }
    if den.abs() < 1e-12 {
        0.0
    } else {
        num / den
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn feed(est: &mut TrendlineEstimator, pairs: &[(u64, u64)]) {
        for &(s, a) in pairs {
            est.on_packet(PacketTiming {
                sent: SimTime::from_millis(s),
                arrival: SimTime::from_millis(a),
            });
        }
    }

    #[test]
    fn stable_delay_stays_normal() {
        let mut est = TrendlineEstimator::new();
        // Packets every 20 ms, constant 30 ms delay.
        let pairs: Vec<(u64, u64)> = (0..100).map(|i| (i * 20, i * 20 + 30)).collect();
        feed(&mut est, &pairs);
        assert_eq!(est.state(), GccNetworkState::Normal);
        assert!(est.modified_trend().abs() < est.threshold());
    }

    #[test]
    fn growing_delay_triggers_overuse() {
        let mut est = TrendlineEstimator::new();
        // Warm up stable, then delay grows 4 ms per group.
        let mut pairs: Vec<(u64, u64)> = (0..30).map(|i| (i * 20, i * 20 + 30)).collect();
        for i in 30..90u64 {
            pairs.push((i * 20, i * 20 + 30 + (i - 30) * 4));
        }
        feed(&mut est, &pairs);
        assert_eq!(est.state(), GccNetworkState::Overuse);
        assert!(est.modified_trend() > est.threshold());
    }

    #[test]
    fn shrinking_delay_triggers_underuse() {
        let mut est = TrendlineEstimator::new();
        // Warm up with a stable delay, then drain steadily; Underuse must
        // be observed at some point during the drain.
        for i in 0..30u64 {
            est.on_packet(PacketTiming {
                sent: SimTime::from_millis(i * 20),
                arrival: SimTime::from_millis(i * 20 + 300),
            });
        }
        let mut saw_underuse = false;
        for i in 30..90u64 {
            let drain = ((i - 30) * 8).min(240);
            est.on_packet(PacketTiming {
                sent: SimTime::from_millis(i * 20),
                arrival: SimTime::from_millis(i * 20 + 300 - drain),
            });
            saw_underuse |= est.state() == GccNetworkState::Underuse;
        }
        assert!(saw_underuse, "drain phase must classify as underuse");
    }

    #[test]
    fn bursts_group_together() {
        let mut est = TrendlineEstimator::new();
        // 5 packets within 5 ms are one group; constant per-group delay.
        let mut pairs = Vec::new();
        for g in 0..50u64 {
            for p in 0..5u64 {
                pairs.push((g * 33 + p, g * 33 + p + 40));
            }
        }
        feed(&mut est, &pairs);
        assert_eq!(est.state(), GccNetworkState::Normal);
    }

    #[test]
    fn threshold_adapts_upward_under_sustained_trend() {
        let mut est = TrendlineEstimator::new();
        let initial = est.threshold();
        // A steady mild ramp (+1.5 ms per 20 ms group) puts the modified
        // trend moderately above the initial threshold without tripping the
        // outlier clause, so the gamma adaptation walks the threshold up.
        let mut pairs: Vec<(u64, u64)> = (0..20).map(|i| (i * 20, i * 20 + 30)).collect();
        for i in 20..200u64 {
            pairs.push((i * 20, i * 20 + 30 + (i - 20) * 3 / 2));
        }
        feed(&mut est, &pairs);
        assert!(
            est.threshold() > initial,
            "threshold {} vs {initial}",
            est.threshold()
        );
    }

    #[test]
    fn slope_fit_on_known_line() {
        let pts: Vec<(f64, f64)> = (0..10).map(|i| (i as f64, 3.0 * i as f64 + 1.0)).collect();
        assert!((linear_fit_slope(&pts) - 3.0).abs() < 1e-9);
        assert_eq!(linear_fit_slope(&[(1.0, 5.0)]), 0.0);
    }
}
