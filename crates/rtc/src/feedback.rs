//! RTCP feedback: transport-wide arrival reports and receiver reports.
//!
//! The efficacy of GCC "depends on the timely flow of ... RTCP feedback
//! from receiver to sender" (paper §6.3) — feedback packets here are real
//! packets that traverse the reverse network path, which is exactly how the
//! Fig. 22 pushback chain (reverse-path delay → outstanding bytes → rate
//! drop) can happen with a perfectly healthy forward path.

use simcore::{SimDuration, SimTime};

/// Transport-wide feedback interval (libwebrtc sends every ~50–100 ms).
const FEEDBACK_INTERVAL: SimDuration = SimDuration::from_millis(50);
/// Receiver-report interval.
const RR_INTERVAL: SimDuration = SimDuration::from_secs(1);
/// RTCP header/base size.
const RTCP_BASE_BYTES: u32 = 60;
/// Per-entry encoding cost in a transport feedback packet.
const PER_ENTRY_BYTES: u32 = 3;

/// One (transport seq, arrival) pair in a feedback packet.
#[derive(Debug, Clone, Copy)]
pub struct ArrivalEntry {
    /// Transport-wide sequence number of the received packet.
    pub transport_seq: u64,
    /// Arrival time at the receiver.
    pub arrival: SimTime,
}

/// A transport-wide feedback packet (contents + wire size).
#[derive(Debug, Clone)]
pub struct TransportFeedback {
    /// Build/send time at the receiver.
    pub built_at: SimTime,
    /// Arrival entries since the previous feedback.
    pub entries: Vec<ArrivalEntry>,
    /// Wire size.
    pub size_bytes: u32,
}

/// An RTCP receiver report (loss statistics).
#[derive(Debug, Clone, Copy)]
pub struct ReceiverReport {
    /// Build/send time at the receiver.
    pub built_at: SimTime,
    /// Fraction of packets lost since the previous report (0..=1).
    pub loss_fraction: f64,
    /// Interarrival jitter estimate (ms), RFC 3550 style.
    pub jitter_ms: f64,
    /// Wire size.
    pub size_bytes: u32,
}

/// Receiver-side feedback generator.
#[derive(Debug, Clone)]
pub(crate) struct FeedbackBuilder {
    pending: Vec<ArrivalEntry>,
    next_feedback_at: SimTime,
    next_rr_at: SimTime,
    // Receiver-report state.
    highest_seq: Option<u64>,
    received_in_interval: u64,
    expected_base_seq: Option<u64>,
    jitter_ms: f64,
    last_transit_ms: Option<f64>,
}

impl Default for FeedbackBuilder {
    fn default() -> Self {
        Self::new()
    }
}

impl FeedbackBuilder {
    /// Creates a builder; first feedback is due one interval in.
    pub(crate) fn new() -> Self {
        FeedbackBuilder {
            pending: Vec::new(),
            next_feedback_at: SimTime::ZERO + FEEDBACK_INTERVAL,
            next_rr_at: SimTime::ZERO + RR_INTERVAL,
            highest_seq: None,
            received_in_interval: 0,
            expected_base_seq: None,
            jitter_ms: 0.0,
            last_transit_ms: None,
        }
    }

    /// Registers a received media packet.
    pub(crate) fn on_packet(&mut self, now: SimTime, transport_seq: u64, sent: SimTime) {
        self.pending.push(ArrivalEntry {
            transport_seq,
            arrival: now,
        });
        self.received_in_interval += 1;
        self.highest_seq = Some(
            self.highest_seq
                .map_or(transport_seq, |h| h.max(transport_seq)),
        );
        if self.expected_base_seq.is_none() {
            self.expected_base_seq = Some(transport_seq);
        }
        // RFC 3550 interarrival jitter.
        let transit_ms = now.saturating_since(sent).as_millis_f64();
        if let Some(last) = self.last_transit_ms {
            let d = (transit_ms - last).abs();
            self.jitter_ms += (d - self.jitter_ms) / 16.0;
        }
        self.last_transit_ms = Some(transit_ms);
    }

    /// Produces the feedback packets due at or before `now`.
    pub(crate) fn poll(
        &mut self,
        now: SimTime,
    ) -> (Option<TransportFeedback>, Option<ReceiverReport>) {
        let fb = if now >= self.next_feedback_at && !self.pending.is_empty() {
            let entries = std::mem::take(&mut self.pending);
            let size = RTCP_BASE_BYTES + PER_ENTRY_BYTES * entries.len() as u32;
            self.next_feedback_at = now + FEEDBACK_INTERVAL;
            Some(TransportFeedback {
                built_at: now,
                entries,
                size_bytes: size,
            })
        } else {
            None
        };
        let rr = if now >= self.next_rr_at {
            self.next_rr_at = now + RR_INTERVAL;
            let report = self.build_rr(now);
            Some(report)
        } else {
            None
        };
        (fb, rr)
    }

    fn build_rr(&mut self, now: SimTime) -> ReceiverReport {
        let loss = match (self.expected_base_seq, self.highest_seq) {
            // An interval with no media packet above the last report's
            // highest leaves `base == high + 1`: nothing was expected, so
            // nothing was lost.
            (Some(base), Some(high)) => match high.checked_sub(base) {
                Some(span) => {
                    let expected = span + 1;
                    1.0 - (self.received_in_interval as f64 / expected as f64).min(1.0)
                }
                None => 0.0,
            },
            _ => 0.0,
        };
        // Reset interval counters; next interval's base starts after the
        // highest seen seq.
        self.expected_base_seq = self.highest_seq.map(|h| h + 1);
        self.received_in_interval = 0;
        ReceiverReport {
            built_at: now,
            loss_fraction: loss,
            jitter_ms: self.jitter_ms,
            size_bytes: RTCP_BASE_BYTES,
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
    fn feedback_batches_arrivals() {
        let mut b = FeedbackBuilder::new();
        for i in 0..10u64 {
            b.on_packet(t(i * 5), i, t(i * 5));
        }
        let (fb, _) = b.poll(t(60));
        let fb = fb.expect("feedback due");
        assert_eq!(fb.entries.len(), 10);
        assert!(fb.size_bytes >= RTCP_BASE_BYTES);
        // Nothing pending afterwards.
        let (fb2, _) = b.poll(t(61));
        assert!(fb2.is_none());
    }

    #[test]
    fn no_feedback_without_packets() {
        let mut b = FeedbackBuilder::new();
        let (fb, _) = b.poll(t(500));
        assert!(fb.is_none());
    }

    #[test]
    fn rr_reports_loss_fraction() {
        let mut b = FeedbackBuilder::new();
        // Receive seqs 0..10 except 3,4,5 → 30% loss.
        for seq in (0..10u64).filter(|s| !(3..6).contains(s)) {
            b.on_packet(t(seq * 10), seq, t(seq * 10));
        }
        let (_, rr) = b.poll(t(1_000));
        let rr = rr.expect("rr due");
        assert!(
            (rr.loss_fraction - 0.3).abs() < 0.01,
            "loss {}",
            rr.loss_fraction
        );
    }

    /// A report interval that brings no new media packet expects none and
    /// reports no loss; the next interval counts from where the last
    /// report left off.
    #[test]
    fn rr_after_a_silent_interval_reports_no_loss() {
        let mut b = FeedbackBuilder::new();
        for seq in 0..10u64 {
            b.on_packet(t(seq * 10), seq, t(seq * 10));
        }
        let (_, rr) = b.poll(t(1_000));
        assert_eq!(rr.expect("rr due").loss_fraction, 0.0);
        // One second with no arrivals at all.
        let (_, rr) = b.poll(t(2_000));
        assert_eq!(rr.expect("rr due").loss_fraction, 0.0);
        // A late duplicate of an old packet is no new media either.
        b.on_packet(t(2_500), 4, t(40));
        let (_, rr) = b.poll(t(3_000));
        assert_eq!(rr.expect("rr due").loss_fraction, 0.0);
        // Seqs 10..20 with 12..14 missing: 30 % of the next interval.
        for seq in (10..20u64).filter(|s| !(12..15).contains(s)) {
            b.on_packet(t(3_000 + seq), seq, t(3_000 + seq));
        }
        let (_, rr) = b.poll(t(4_000));
        let loss = rr.expect("rr due").loss_fraction;
        assert!((loss - 0.3).abs() < 1e-9, "loss {loss}");
    }

    #[test]
    fn jitter_tracks_variation() {
        let mut stable = FeedbackBuilder::new();
        for seq in 0..100u64 {
            stable.on_packet(t(seq * 20 + 30), seq, t(seq * 20));
        }
        let mut jittery = FeedbackBuilder::new();
        for seq in 0..100u64 {
            jittery.on_packet(t(seq * 20 + 30 + (seq % 5) * 12), seq, t(seq * 20));
        }
        let (_, rs) = stable.poll(t(5_000));
        let (_, rj) = jittery.poll(t(5_000));
        assert!(rj.unwrap().jitter_ms > rs.unwrap().jitter_ms + 1.0);
    }
}
