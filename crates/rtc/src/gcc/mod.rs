//! Google Congestion Control, assembled.
//!
//! [`SenderCc`] is the send-side controller the paper instruments: the
//! delay-based estimator ([`trendline`]) and loss-based bound ([`loss`])
//! produce the *target bitrate*; the congestion-window [`pushback`]
//! controller produces the final *pushback rate* handed to the encoder and
//! pacer (Fig. 23). The acknowledged-bitrate estimator feeds both the AIMD
//! rate control's decrease step and the fast-recovery cap.

pub(crate) mod ack_bitrate;
pub(crate) mod aimd;
pub mod loss;
pub mod pushback;
pub mod trendline;

pub(crate) use ack_bitrate::AckedBitrateEstimator;
pub(crate) use aimd::AimdRateControl;
pub(crate) use loss::LossBasedControl;
pub(crate) use pushback::PushbackController;
pub use trendline::{PacketTiming, TrendlineEstimator};

use simcore::{SimDuration, SimTime};
use telemetry::GccNetworkState;

/// One packet's fate as reported by transport-wide feedback.
#[derive(Debug, Clone, Copy)]
pub struct FeedbackEntry {
    /// Transport-wide sequence number.
    pub transport_seq: u64,
    /// When the sender put it on the wire.
    pub sent: SimTime,
    /// Arrival time at the receiver, or `None` if reported lost.
    pub arrival: Option<SimTime>,
    /// Size on the wire.
    pub size_bytes: u32,
}

/// The complete send-side congestion controller.
#[derive(Debug, Clone)]
pub struct SenderCc {
    trendline: TrendlineEstimator,
    aimd: AimdRateControl,
    loss: LossBasedControl,
    acked: AckedBitrateEstimator,
    pushback: PushbackController,
    rtt: SimDuration,
    target_bps: f64,
}

impl SenderCc {
    /// Creates a controller with a start rate and a cap.
    pub fn new(start_bps: f64, max_bps: f64) -> Self {
        SenderCc {
            trendline: TrendlineEstimator::new(),
            aimd: AimdRateControl::new(start_bps, max_bps),
            loss: LossBasedControl::new(max_bps, max_bps),
            acked: AckedBitrateEstimator::new(),
            pushback: PushbackController::new(),
            rtt: SimDuration::from_millis(100),
            target_bps: start_bps,
        }
    }

    /// Notifies the controller that a media/RTCP packet left the pacer.
    pub fn on_packet_sent(&mut self, _now: SimTime, size_bytes: u32) {
        self.pushback.on_sent(size_bytes);
    }

    /// Processes one transport-wide feedback report. `now` is the feedback's
    /// arrival time at the sender.
    pub fn on_transport_feedback(&mut self, now: SimTime, entries: &[FeedbackEntry]) {
        let mut newest_sent: Option<SimTime> = None;
        for e in entries {
            match e.arrival {
                Some(arrival) => {
                    self.trendline.on_packet(PacketTiming {
                        sent: e.sent,
                        arrival,
                    });
                    self.acked.on_acked(arrival, e.size_bytes);
                    self.pushback.on_acked(e.size_bytes);
                    newest_sent = Some(newest_sent.map_or(e.sent, |t| t.max(e.sent)));
                }
                None => self.pushback.on_lost(e.size_bytes),
            }
        }
        if let Some(sent) = newest_sent {
            // Round trip ≈ send → receiver → feedback back to sender.
            let sample = now.saturating_since(sent);
            let alpha = 0.2;
            self.rtt = SimDuration::from_micros(
                ((1.0 - alpha) * self.rtt.as_micros() as f64 + alpha * sample.as_micros() as f64)
                    as u64,
            );
            self.aimd.set_rtt(self.rtt);
            self.pushback.set_rtt(self.rtt);
        }
        let delay_based = self
            .aimd
            .update(now, self.trendline.state(), self.acked.bitrate_bps());
        self.target_bps = delay_based.min(self.loss.rate_bps());
    }

    /// Processes an RTCP receiver-report loss fraction.
    pub(crate) fn on_loss_report(&mut self, loss_fraction: f64) {
        self.loss
            .on_loss_report(loss_fraction, self.aimd.target_bps());
        self.target_bps = self.aimd.target_bps().min(self.loss.rate_bps());
    }

    /// The bandwidth estimator's target bitrate (bits/s).
    pub fn target_bps(&self) -> f64 {
        self.target_bps
    }

    /// The final rate after congestion-window pushback (bits/s).
    pub fn pushback_rate_bps(&mut self, now: SimTime) -> f64 {
        let target = self.target_bps;
        self.pushback.pushback_rate_bps(now, target)
    }

    /// Delay-based detector state (Fig. 21 subplot 3).
    pub(crate) fn network_state(&self) -> GccNetworkState {
        self.trendline.state()
    }

    /// Trendline modified slope (ms).
    pub fn trend(&self) -> f64 {
        self.trendline.modified_trend()
    }

    /// Adaptive overuse threshold (ms).
    pub(crate) fn trend_threshold(&self) -> f64 {
        self.trendline.threshold()
    }

    /// Bytes in flight.
    pub fn outstanding_bytes(&self) -> u64 {
        self.pushback.outstanding_bytes()
    }

    /// Congestion-window size (bytes).
    pub fn cwnd_bytes(&self) -> u64 {
        self.pushback.cwnd_bytes()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(ms: u64) -> SimTime {
        SimTime::from_millis(ms)
    }

    /// Simulates a steady path, then a delay ramp; the controller must
    /// detect overuse and cut the target (the Fig. 21 causal chain).
    #[test]
    fn delay_ramp_cuts_target() {
        let mut cc = SenderCc::new(2_000_000.0, 15e6);
        let mut seq = 0u64;
        let mut feed = |cc: &mut SenderCc, base_ms: u64, n: u64, delay_of: &dyn Fn(u64) -> u64| {
            for i in 0..n {
                let sent = t(base_ms + i * 20);
                let arrival = t(base_ms + i * 20 + delay_of(i));
                cc.on_packet_sent(sent, 1200);
                cc.on_transport_feedback(
                    arrival + SimDuration::from_millis(20),
                    &[FeedbackEntry {
                        transport_seq: seq,
                        sent,
                        arrival: Some(arrival),
                        size_bytes: 1200,
                    }],
                );
                seq += 1;
            }
        };
        feed(&mut cc, 0, 100, &|_| 40);
        let before = cc.target_bps();
        assert_eq!(cc.network_state(), GccNetworkState::Normal);
        feed(&mut cc, 2000, 60, &|i| 40 + i * 6);
        assert!(
            cc.target_bps() < before,
            "{} -> {}",
            before,
            cc.target_bps()
        );
    }

    #[test]
    fn pushback_reacts_to_missing_acks() {
        let mut cc = SenderCc::new(2_000_000.0, 15e6);
        // Send 200 kB without any feedback: outstanding balloons.
        for i in 0..100 {
            cc.on_packet_sent(t(i * 5), 2_000);
        }
        let pb = cc.pushback_rate_bps(t(600));
        assert!(
            pb < cc.target_bps(),
            "pushback {pb} < target {}",
            cc.target_bps()
        );
    }

    #[test]
    fn loss_report_caps_target() {
        let mut cc = SenderCc::new(5_000_000.0, 15e6);
        cc.on_loss_report(0.5); // 50% loss
        assert!(cc.target_bps() < 5_000_000.0);
    }
}
