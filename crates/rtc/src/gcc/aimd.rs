//! AIMD rate control: GCC's sender-side bandwidth estimator.
//!
//! Implements the state machine the paper traces in §6.2: *overuse* ⇒
//! multiplicative decrease to β × acknowledged bitrate; *underuse* ⇒ hold
//! while queues drain; *normal* ⇒ probe upward — multiplicatively when far
//! from the estimated link capacity, additively (slowly — the ≈30 s
//! recovery the paper measures) when near it. The increase is capped at
//! 1.5 × acknowledged bitrate + 10 kbit/s, which is the "fast recovery"
//! path: if the acknowledged bitrate stays high through a short overuse
//! episode, the cap lets the rate jump right back (§6.2, "GCC Acknowledged
//! Bit Rate Estimator").

use simcore::{SimDuration, SimTime};
use telemetry::GccNetworkState;

/// Multiplicative-decrease factor on overuse.
const BETA: f64 = 0.85;
/// Multiplicative-increase factor per second when far from capacity.
const ETA: f64 = 1.08;
/// Floor for the target rate (libwebrtc min bitrate).
const MIN_RATE_BPS: f64 = 30_000.0;
/// Assumed response time floor added to the RTT for additive increase.
const RESPONSE_TIME_EXTRA: SimDuration = SimDuration::from_millis(100);
/// Nominal packet size used to size the additive increase step.
const AVG_PACKET_BITS: f64 = 1200.0 * 8.0;

/// Rate-control state (libwebrtc `RateControlState`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RateControlState {
    /// Keep the rate; let queues drain.
    Hold,
    /// Probe for more bandwidth.
    Increase,
    /// Back off.
    Decrease,
}

#[derive(Debug, Clone, Copy)]
struct LinkCapacity {
    mean_bps: f64,
    deviation_bps: f64,
}

/// The AIMD controller.
#[derive(Debug, Clone)]
pub struct AimdRateControl {
    state: RateControlState,
    target_bps: f64,
    max_bps: f64,
    link_capacity: Option<LinkCapacity>,
    last_change: Option<SimTime>,
    rtt: SimDuration,
}

impl AimdRateControl {
    /// Creates the controller with a starting and maximum bitrate.
    pub fn new(start_bps: f64, max_bps: f64) -> Self {
        AimdRateControl {
            state: RateControlState::Hold,
            target_bps: start_bps,
            max_bps,
            link_capacity: None,
            last_change: None,
            rtt: SimDuration::from_millis(100),
        }
    }

    /// Current target bitrate (bits/s).
    pub fn target_bps(&self) -> f64 {
        self.target_bps
    }

    /// Current controller state.
    #[cfg(test)]
    pub(crate) fn state(&self) -> RateControlState {
        self.state
    }

    /// Feeds a smoothed RTT estimate (for additive-increase sizing).
    pub(crate) fn set_rtt(&mut self, rtt: SimDuration) {
        self.rtt = rtt;
    }

    /// Updates the target rate from the detector state and the acknowledged
    /// bitrate. Call on every feedback arrival.
    pub fn update(
        &mut self,
        now: SimTime,
        signal: GccNetworkState,
        acked_bitrate_bps: Option<f64>,
    ) -> f64 {
        // State transition (libwebrtc ChangeState).
        self.state = match signal {
            GccNetworkState::Normal => match self.state {
                RateControlState::Hold => RateControlState::Increase,
                s => s,
            },
            GccNetworkState::Overuse => RateControlState::Decrease,
            GccNetworkState::Underuse => RateControlState::Hold,
        };

        let dt = self
            .last_change
            .map(|t| now.saturating_since(t).as_secs_f64().min(1.0))
            .unwrap_or(0.05);
        self.last_change = Some(now);

        match self.state {
            RateControlState::Hold => {}
            RateControlState::Increase => {
                // An acked bitrate well above the remembered capacity means
                // the congestion episode did not reflect true capacity:
                // forget it and resume multiplicative probing (the fast
                // recovery path of §6.2).
                if let (Some(cap), Some(acked)) = (self.link_capacity, acked_bitrate_bps) {
                    if acked > cap.mean_bps + 3.0 * cap.deviation_bps {
                        self.link_capacity = None;
                    }
                }
                let near = match (self.link_capacity, acked_bitrate_bps) {
                    (Some(cap), Some(acked)) => {
                        (acked - cap.mean_bps).abs() <= 3.0 * cap.deviation_bps
                    }
                    (Some(_), None) => true,
                    (None, _) => false,
                };
                if near {
                    // Additive: roughly one packet per response time.
                    let response = self.rtt + RESPONSE_TIME_EXTRA;
                    let per_second =
                        (AVG_PACKET_BITS / response.as_secs_f64().max(1e-3)).max(4_000.0);
                    self.target_bps += per_second * dt;
                } else {
                    self.target_bps *= ETA.powf(dt);
                }
                // Cap relative to what the path demonstrably delivers.
                if let Some(acked) = acked_bitrate_bps {
                    self.target_bps = self.target_bps.min(1.5 * acked + 10_000.0);
                }
            }
            RateControlState::Decrease => {
                let basis = acked_bitrate_bps.unwrap_or(self.target_bps);
                self.target_bps = self.target_bps.min(BETA * basis);
                // Remember the capacity at the congestion point.
                if let Some(acked) = acked_bitrate_bps {
                    self.update_link_capacity(acked);
                }
                self.state = RateControlState::Hold;
            }
        }
        self.target_bps = self.target_bps.clamp(MIN_RATE_BPS, self.max_bps);
        self.target_bps
    }

    fn update_link_capacity(&mut self, acked_bps: f64) {
        match &mut self.link_capacity {
            Some(cap) => {
                let alpha = 0.05;
                cap.mean_bps = (1.0 - alpha) * cap.mean_bps + alpha * acked_bps;
                let dev = (acked_bps - cap.mean_bps).abs();
                cap.deviation_bps = (1.0 - alpha) * cap.deviation_bps + alpha * dev;
                cap.deviation_bps = cap
                    .deviation_bps
                    .clamp(0.02 * cap.mean_bps, 0.2 * cap.mean_bps);
                // An acked rate far from the estimate invalidates it
                // (enables fast multiplicative recovery — §6.2).
                if (acked_bps - cap.mean_bps).abs() > 3.0 * cap.deviation_bps {
                    self.link_capacity = None;
                }
            }
            None => {
                self.link_capacity = Some(LinkCapacity {
                    mean_bps: acked_bps,
                    deviation_bps: 0.15 * acked_bps,
                })
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(ms: u64) -> SimTime {
        SimTime::from_millis(ms)
    }

    #[test]
    fn overuse_causes_multiplicative_decrease() {
        let mut c = AimdRateControl::new(2_000_000.0, 15_000_000.0);
        c.update(t(0), GccNetworkState::Normal, Some(2_000_000.0));
        let before = c.target_bps();
        c.update(t(100), GccNetworkState::Overuse, Some(2_000_000.0));
        let after = c.target_bps();
        assert!((after - 0.85 * 2_000_000.0).abs() < 1e-6, "after {after}");
        assert!(after < before);
        assert_eq!(c.state(), RateControlState::Hold);
    }

    #[test]
    fn normal_after_hold_probes_up() {
        let mut c = AimdRateControl::new(1_000_000.0, 15_000_000.0);
        let mut now = 0;
        for _ in 0..20 {
            now += 100;
            c.update(t(now), GccNetworkState::Normal, Some(5_000_000.0));
        }
        assert!(c.target_bps() > 1_000_000.0);
        assert_eq!(c.state(), RateControlState::Increase);
    }

    #[test]
    fn underuse_holds() {
        let mut c = AimdRateControl::new(1_000_000.0, 15_000_000.0);
        c.update(t(0), GccNetworkState::Normal, Some(1_000_000.0));
        let r = c.target_bps();
        for i in 1..10 {
            c.update(t(i * 100), GccNetworkState::Underuse, Some(1_000_000.0));
        }
        assert_eq!(c.target_bps(), r);
        assert_eq!(c.state(), RateControlState::Hold);
    }

    #[test]
    fn additive_recovery_is_slow_after_decrease() {
        // Post-overuse recovery at a stable acked bitrate should take tens
        // of seconds to regain a 1 Mbit/s cut (paper: "over 30 seconds").
        let mut c = AimdRateControl::new(3_000_000.0, 15_000_000.0);
        c.set_rtt(SimDuration::from_millis(100));
        c.update(t(0), GccNetworkState::Overuse, Some(3_000_000.0));
        let floor = c.target_bps(); // 2.55 M
                                    // Acked tracks the (reduced) send rate → stays near capacity estimate.
        let mut now = 0;
        let mut reached_at = None;
        for step in 0..1200 {
            now += 50;
            let acked = c.target_bps().min(3_000_000.0);
            c.update(t(now), GccNetworkState::Normal, Some(acked));
            if c.target_bps() >= 3_000_000.0 {
                reached_at = Some(step * 50);
                break;
            }
        }
        let ms = reached_at.expect("should eventually recover");
        assert!(ms > 5_000, "recovery too fast: {ms} ms from {floor}");
    }

    #[test]
    fn fast_recovery_when_acked_stays_high() {
        // Short-lived overuse, after which the acknowledged bitrate comes in
        // well above the remembered link capacity: the capacity estimate is
        // invalidated and multiplicative increase restores the rate within
        // seconds (§6.2 fast recovery, observed in ≈1 % of anomalies).
        let mut c = AimdRateControl::new(3_000_000.0, 15_000_000.0);
        c.update(t(0), GccNetworkState::Overuse, Some(3_000_000.0));
        assert!(c.target_bps() < 2_600_000.0);
        let mut now = 0;
        let mut reached_at = None;
        for step in 0..200 {
            now += 50;
            c.update(t(now), GccNetworkState::Normal, Some(4_500_000.0));
            if c.target_bps() >= 3_000_000.0 {
                reached_at = Some(step * 50);
                break;
            }
        }
        let ms = reached_at.expect("fast recovery should complete");
        assert!(ms <= 4_000, "fast recovery too slow: {ms} ms");
    }

    #[test]
    fn respects_min_and_max() {
        let mut c = AimdRateControl::new(100_000.0, 500_000.0);
        for i in 0..50 {
            c.update(t(i * 20), GccNetworkState::Overuse, Some(10_000.0));
        }
        assert!(c.target_bps() >= 30_000.0);
        let mut c = AimdRateControl::new(400_000.0, 500_000.0);
        for i in 0..500 {
            c.update(t(i * 100), GccNetworkState::Normal, Some(10_000_000.0));
        }
        assert!(c.target_bps() <= 500_000.0);
    }
}
