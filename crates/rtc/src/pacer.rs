//! Packet pacer: spreads each video frame's packet burst onto the wire at a
//! multiple of the target rate, as libwebrtc's `PacingController` does.
//!
//! The burstiness that survives pacing is exactly what interacts with 5G
//! uplink scheduling in Fig. 14: a frame becomes a cluster of packets whose
//! transmission the RAN then serialises into multiple transport blocks.

use std::collections::VecDeque;

use simcore::{SimDuration, SimTime};
use telemetry::StreamKind;

/// Pacing-rate multiplier over the pushback rate (libwebrtc default 2.5).
const PACING_FACTOR: f64 = 2.5;
/// Lower bound on the pacing rate so audio never stalls.
const MIN_PACING_BPS: f64 = 300_000.0;

/// A packet waiting in (or leaving) the pacer.
#[derive(Debug, Clone, Copy)]
pub struct PacedPacket {
    /// Media stream this packet belongs to.
    pub stream: StreamKind,
    /// Wire size in bytes.
    pub size_bytes: u32,
    /// Capture timestamp of the carried media.
    pub capture_ts: SimTime,
    /// Video frame index (0 for audio).
    pub frame_idx: u64,
    /// Index of this packet within its frame.
    pub packet_idx: u32,
    /// Total packets in the frame.
    pub packets_in_frame: u32,
    /// Audio sequence number (0 for video).
    pub audio_seq: u64,
}

/// A packet released by the pacer with its send time.
#[derive(Debug, Clone, Copy)]
pub struct SentPacket {
    /// When the packet leaves the host.
    pub at: SimTime,
    /// The packet.
    pub packet: PacedPacket,
}

/// Budget-based pacer.
#[derive(Debug, Clone, Default)]
pub struct Pacer {
    queue: VecDeque<PacedPacket>,
    next_release_at: SimTime,
}

impl Pacer {
    /// Creates an empty pacer.
    pub fn new() -> Self {
        Self::default()
    }

    /// Queues a packet for transmission.
    pub fn enqueue(&mut self, packet: PacedPacket) {
        self.queue.push_back(packet);
    }

    /// Packets currently queued.
    pub(crate) fn queue_len(&self) -> usize {
        self.queue.len()
    }

    /// Releases the next packet whose paced send time is at or before `now`,
    /// given the current pushback rate, or `None`. Release times never
    /// decrease from one packet to the next.
    pub fn pop_due(&mut self, now: SimTime, pushback_rate_bps: f64) -> Option<SentPacket> {
        let pacing_bps = (pushback_rate_bps * PACING_FACTOR).max(MIN_PACING_BPS);
        let front = self.queue.front()?;
        let release = self.next_release_at.max(
            // Never release media before it was captured.
            front.capture_ts,
        );
        if release > now {
            return None;
        }
        let pkt = self.queue.pop_front().expect("checked front");
        let tx = SimDuration::from_secs_f64(pkt.size_bytes as f64 * 8.0 / pacing_bps);
        self.next_release_at = release + tx;
        Some(SentPacket {
            at: release,
            packet: pkt,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pkt(bytes: u32, capture_ms: u64) -> PacedPacket {
        PacedPacket {
            stream: StreamKind::Video,
            size_bytes: bytes,
            capture_ts: SimTime::from_millis(capture_ms),
            frame_idx: 0,
            packet_idx: 0,
            packets_in_frame: 1,
            audio_seq: 0,
        }
    }

    /// Every packet `p` releases by `now`.
    fn release_due(p: &mut Pacer, now: SimTime, pushback_rate_bps: f64) -> Vec<SentPacket> {
        std::iter::from_fn(|| p.pop_due(now, pushback_rate_bps)).collect()
    }

    #[test]
    fn spreads_burst_at_pacing_rate() {
        let mut p = Pacer::new();
        for _ in 0..10 {
            p.enqueue(pkt(1250, 0)); // 10 kbit each
        }
        // Pushback 1 Mbit/s → pacing 2.5 Mbit/s → 4 ms per packet.
        let sent = release_due(&mut p, SimTime::from_millis(100), 1_000_000.0);
        assert_eq!(sent.len(), 10);
        let gap = sent[1].at.saturating_since(sent[0].at).as_millis_f64();
        assert!((gap - 4.0).abs() < 0.1, "gap {gap}");
    }

    #[test]
    fn respects_now() {
        let mut p = Pacer::new();
        for _ in 0..100 {
            p.enqueue(pkt(12_500, 0)); // 100 kbit each → 40 ms at 2.5 M
        }
        let sent = release_due(&mut p, SimTime::from_millis(100), 1_000_000.0);
        assert!(sent.len() < 100, "only a prefix should be released");
        assert!(p.queue_len() > 0);
        assert!(sent.iter().all(|s| s.at <= SimTime::from_millis(100)));
    }

    #[test]
    fn never_sends_before_capture() {
        let mut p = Pacer::new();
        p.enqueue(pkt(100, 500));
        let sent = release_due(&mut p, SimTime::from_millis(400), 1_000_000.0);
        assert!(sent.is_empty());
        let sent = release_due(&mut p, SimTime::from_millis(600), 1_000_000.0);
        assert_eq!(sent.len(), 1);
        assert_eq!(sent[0].at, SimTime::from_millis(500));
    }

    #[test]
    fn next_release_time_tracks_queue() {
        let mut p = Pacer::new();
        assert!(p.pop_due(SimTime::from_millis(100), 1e6).is_none());
        p.enqueue(pkt(100, 7));
        assert!(p.pop_due(SimTime::from_millis(6), 1e6).is_none());
        let sent = p.pop_due(SimTime::from_millis(7), 1e6).unwrap();
        assert_eq!(sent.at, SimTime::from_millis(7));
    }
}
