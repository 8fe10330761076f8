//! Congestion-window pushback controller (paper §6.3, Appendix E, Fig. 23).
//!
//! GCC maintains a congestion window sized to the bandwidth-delay product
//! plus a queueing budget, and tracks outstanding (sent-but-unacked) bytes.
//! When outstanding bytes exceed the window — which happens when *either*
//! the media path *or* the RTCP feedback path delays inflate (Fig. 22) —
//! the pushback controller scales the encoder rate below the target rate
//! until acknowledgments catch up.

use simcore::{SimDuration, SimTime};

/// Queueing budget added to the RTT when sizing the window (libwebrtc's
/// `queue_time_limit`, default 250 ms in the congestion-window experiment).
const QUEUE_BUDGET: SimDuration = SimDuration::from_millis(250);
/// Floor of the pushback scaling factor.
const MIN_PUSHBACK_FRACTION: f64 = 0.25;
/// Minimum congestion window.
const MIN_CWND_BYTES: u64 = 6_000;

/// Tracks outstanding bytes against the congestion window and computes the
/// pushback rate.
#[derive(Debug, Clone)]
pub struct PushbackController {
    outstanding_bytes: u64,
    cwnd_bytes: u64,
    rtt: SimDuration,
}

impl Default for PushbackController {
    fn default() -> Self {
        Self::new()
    }
}

impl PushbackController {
    /// Creates the controller with a nominal RTT.
    pub fn new() -> Self {
        PushbackController {
            outstanding_bytes: 0,
            cwnd_bytes: MIN_CWND_BYTES,
            rtt: SimDuration::from_millis(100),
        }
    }

    /// Bytes currently in flight.
    pub fn outstanding_bytes(&self) -> u64 {
        self.outstanding_bytes
    }

    /// Current congestion-window size in bytes.
    pub fn cwnd_bytes(&self) -> u64 {
        self.cwnd_bytes
    }

    /// Records a sent media packet.
    pub fn on_sent(&mut self, size_bytes: u32) {
        self.outstanding_bytes += size_bytes as u64;
    }

    /// Records acknowledged bytes (from transport feedback).
    pub(crate) fn on_acked(&mut self, size_bytes: u32) {
        self.outstanding_bytes = self.outstanding_bytes.saturating_sub(size_bytes as u64);
    }

    /// Records bytes declared lost (feedback gap timeout) so they stop
    /// counting against the window.
    pub(crate) fn on_lost(&mut self, size_bytes: u32) {
        self.outstanding_bytes = self.outstanding_bytes.saturating_sub(size_bytes as u64);
    }

    /// Updates the RTT estimate used to size the window.
    pub(crate) fn set_rtt(&mut self, rtt: SimDuration) {
        self.rtt = rtt;
    }

    /// Recomputes the window for the current target rate and returns the
    /// pushback rate: equal to `target_bps` while the window has room,
    /// scaled down proportionally once outstanding bytes exceed it.
    pub fn pushback_rate_bps(&mut self, _now: SimTime, target_bps: f64) -> f64 {
        let horizon = self.rtt + QUEUE_BUDGET;
        self.cwnd_bytes = ((target_bps * horizon.as_secs_f64() / 8.0) as u64).max(MIN_CWND_BYTES);
        if self.outstanding_bytes <= self.cwnd_bytes {
            return target_bps;
        }
        let fill = self.outstanding_bytes as f64 / self.cwnd_bytes as f64;
        let scale = (1.0 / fill).max(MIN_PUSHBACK_FRACTION);
        target_bps * scale
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(ms: u64) -> SimTime {
        SimTime::from_millis(ms)
    }

    #[test]
    fn no_pushback_under_normal_operation() {
        let mut p = PushbackController::new();
        p.set_rtt(SimDuration::from_millis(50));
        // 2 Mbit/s target, small amount outstanding.
        p.on_sent(10_000);
        let rate = p.pushback_rate_bps(t(0), 2_000_000.0);
        assert_eq!(rate, 2_000_000.0);
    }

    #[test]
    fn pushback_when_outstanding_exceeds_window() {
        let mut p = PushbackController::new();
        p.set_rtt(SimDuration::from_millis(50));
        // Window at 2 Mbit/s, 300 ms horizon = 75 kB. Put 150 kB in flight.
        for _ in 0..15 {
            p.on_sent(10_000);
        }
        let rate = p.pushback_rate_bps(t(0), 2_000_000.0);
        assert!(rate < 2_000_000.0, "expected pushback, got {rate}");
        assert!((rate - 1_000_000.0).abs() < 50_000.0, "≈half: {rate}");
    }

    #[test]
    fn acks_release_pushback() {
        let mut p = PushbackController::new();
        p.set_rtt(SimDuration::from_millis(50));
        for _ in 0..15 {
            p.on_sent(10_000);
        }
        assert!(p.pushback_rate_bps(t(0), 2_000_000.0) < 2_000_000.0);
        for _ in 0..15 {
            p.on_acked(10_000);
        }
        assert_eq!(p.outstanding_bytes(), 0);
        assert_eq!(p.pushback_rate_bps(t(1), 2_000_000.0), 2_000_000.0);
    }

    #[test]
    fn pushback_floor() {
        let mut p = PushbackController::new();
        p.set_rtt(SimDuration::from_millis(10));
        for _ in 0..1000 {
            p.on_sent(60_000);
        }
        let rate = p.pushback_rate_bps(t(0), 1_000_000.0);
        assert!((rate - 250_000.0).abs() < 1.0, "floor at 25%: {rate}");
    }

    #[test]
    fn lost_bytes_drain_outstanding() {
        let mut p = PushbackController::new();
        p.on_sent(5_000);
        p.on_lost(5_000);
        assert_eq!(p.outstanding_bytes(), 0);
    }
}
