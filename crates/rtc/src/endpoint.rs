//! The WebRTC endpoint: media sender (encoder → pacer → congestion
//! controller) and media receiver (jitter buffers → feedback), plus the
//! 50 ms statistics sampler that mirrors the paper's instrumented client.

use rand::rngs::StdRng;
use simcore::{rng_for, RngStream, SeqRing, SimDuration, SimTime};
use telemetry::{AppStatsRecord, Resolution, StreamKind};

use crate::encoder::{AudioSource, EncoderConfig, VideoEncoder};
use crate::feedback::{FeedbackBuilder, ReceiverReport, TransportFeedback};
use crate::gcc::{FeedbackEntry, SenderCc};
use crate::jitter::{AudioJitterBuffer, VideoJitterBuffer};
use crate::pacer::{PacedPacket, Pacer};

/// How long an unacked packet may outlive the newest acked packet's send
/// time before the sender declares it lost.
const LOSS_TIMEOUT: SimDuration = SimDuration::from_millis(500);

/// Content of a packet on the wire.
#[derive(Debug, Clone)]
pub enum PacketPayload {
    /// RTP video.
    Video {
        /// Frame this packet belongs to.
        frame_idx: u64,
        /// Position within the frame.
        packet_idx: u32,
        /// Total packets in the frame.
        packets_in_frame: u32,
        /// Capture timestamp.
        capture_ts: SimTime,
        /// Encoded resolution.
        resolution: Resolution,
    },
    /// RTP audio.
    Audio {
        /// Audio sequence number.
        seq: u64,
        /// Capture timestamp.
        capture_ts: SimTime,
    },
    /// RTCP transport-wide feedback.
    Feedback(TransportFeedback),
    /// RTCP receiver report.
    Report(ReceiverReport),
}

impl PacketPayload {
    /// The stream classification for packet traces.
    pub fn stream(&self) -> StreamKind {
        match self {
            PacketPayload::Video { .. } => StreamKind::Video,
            PacketPayload::Audio { .. } => StreamKind::Audio,
            PacketPayload::Feedback(_) | PacketPayload::Report(_) => StreamKind::Rtcp,
        }
    }
}

/// A packet leaving an endpoint.
#[derive(Debug, Clone)]
pub struct OutgoingPacket {
    /// Exact send time (paced).
    pub at: SimTime,
    /// Transport-wide sequence number (media only; RTCP uses `u64::MAX`).
    pub transport_seq: u64,
    /// Wire size.
    pub size_bytes: u32,
    /// Contents.
    pub payload: PacketPayload,
}

/// Sender configuration.
#[derive(Debug, Clone)]
pub struct SenderConfig {
    /// Initial GCC bitrate.
    pub start_bps: f64,
    /// Maximum bitrate (codec/application cap).
    pub max_bps: f64,
    /// Encoder settings.
    pub encoder: EncoderConfig,
}

impl Default for SenderConfig {
    fn default() -> Self {
        SenderConfig {
            start_bps: 1_000_000.0,
            max_bps: 15_000_000.0,
            encoder: EncoderConfig::default(),
        }
    }
}

/// The sending half of an endpoint.
pub struct MediaSender {
    /// Congestion controller (public for telemetry sampling).
    pub cc: SenderCc,
    encoder: VideoEncoder,
    audio: AudioSource,
    pacer: Pacer,
    transport_seq: u64,
    /// `(sent, size)` of each unacknowledged packet by transport sequence
    /// number. Send times never decrease with the sequence number (the
    /// pacer releases in order), so the oldest entries expire first.
    unacked: SeqRing<(SimTime, u32)>,
    rng: StdRng,
    mtu: u32,
    // Reused scratch so the per-tick poll path and the per-feedback path
    // stay allocation-free at steady state.
    frame_scratch: Vec<crate::encoder::VideoFrame>,
    audio_scratch: Vec<crate::encoder::AudioPacket>,
    fb_scratch: Vec<FeedbackEntry>,
}

impl MediaSender {
    /// Creates a sender; `seed`/`stream_tag` derive its RNG stream.
    pub fn new(cfg: SenderConfig, seed: u64, stream_tag: u16) -> Self {
        MediaSender {
            cc: SenderCc::new(cfg.start_bps, cfg.max_bps),
            encoder: VideoEncoder::new(cfg.encoder.clone()),
            audio: AudioSource::new(),
            pacer: Pacer::new(),
            transport_seq: 0,
            unacked: SeqRing::new(),
            rng: rng_for(seed, RngStream::Custom(stream_tag)),
            mtu: cfg.encoder.mtu_bytes,
            frame_scratch: Vec::new(),
            audio_scratch: Vec::new(),
            fb_scratch: Vec::new(),
        }
    }

    /// Packets sitting in the pacer queue — the send-side backlog the
    /// observability layer samples per tick.
    pub fn pacer_backlog(&self) -> usize {
        self.pacer.queue_len()
    }

    /// Appends every packet due at or before `now` to a caller-owned
    /// buffer (allocation-free once the buffer is warm).
    pub fn poll_into(&mut self, now: SimTime, out: &mut Vec<OutgoingPacket>) {
        let pushback = self.cc.pushback_rate_bps(now);
        // Encode due frames and packetize into the pacer.
        self.frame_scratch.clear();
        self.encoder
            .poll_into(now, pushback, &mut self.rng, &mut self.frame_scratch);
        for frame in self.frame_scratch.drain(..) {
            let n = frame.size_bytes.div_ceil(self.mtu).max(1);
            for i in 0..n {
                let size = if i + 1 == n {
                    frame.size_bytes - self.mtu * (n - 1)
                } else {
                    self.mtu
                };
                self.pacer.enqueue(PacedPacket {
                    stream: StreamKind::Video,
                    size_bytes: size.max(1),
                    capture_ts: frame.capture_ts,
                    frame_idx: frame.frame_idx,
                    packet_idx: i,
                    packets_in_frame: n,
                    audio_seq: 0,
                });
            }
        }
        self.audio_scratch.clear();
        self.audio.poll_into(now, &mut self.audio_scratch);
        for pkt in self.audio_scratch.drain(..) {
            self.pacer.enqueue(PacedPacket {
                stream: StreamKind::Audio,
                size_bytes: pkt.size_bytes,
                capture_ts: pkt.capture_ts,
                frame_idx: 0,
                packet_idx: 0,
                packets_in_frame: 1,
                audio_seq: pkt.seq,
            });
        }
        // Release paced packets.
        while let Some(sent) = self.pacer.pop_due(now, pushback) {
            let seq = self.transport_seq;
            self.transport_seq += 1;
            self.cc.on_packet_sent(sent.at, sent.packet.size_bytes);
            debug_assert!(
                seq.checked_sub(1)
                    .and_then(|prev| self.unacked.get(prev))
                    .is_none_or(|&(prev_sent, _)| prev_sent <= sent.at),
                "pacer release times decrease with the transport sequence number"
            );
            self.unacked.insert(seq, (sent.at, sent.packet.size_bytes));
            let payload = match sent.packet.stream {
                StreamKind::Video => PacketPayload::Video {
                    frame_idx: sent.packet.frame_idx,
                    packet_idx: sent.packet.packet_idx,
                    packets_in_frame: sent.packet.packets_in_frame,
                    capture_ts: sent.packet.capture_ts,
                    resolution: self.encoder.resolution(),
                },
                StreamKind::Audio => PacketPayload::Audio {
                    seq: sent.packet.audio_seq,
                    capture_ts: sent.packet.capture_ts,
                },
                StreamKind::Rtcp => unreachable!("pacer never carries RTCP"),
            };
            out.push(OutgoingPacket {
                at: sent.at,
                transport_seq: seq,
                size_bytes: sent.packet.size_bytes,
                payload,
            });
        }
    }

    /// Processes arrived transport feedback.
    pub fn on_transport_feedback(&mut self, now: SimTime, fb: &TransportFeedback) {
        self.fb_scratch.clear();
        let mut newest_acked_sent: Option<SimTime> = None;
        for e in &fb.entries {
            if let Some((sent, size)) = self.unacked.remove(e.transport_seq) {
                self.fb_scratch.push(FeedbackEntry {
                    transport_seq: e.transport_seq,
                    sent,
                    arrival: Some(e.arrival),
                    size_bytes: size,
                });
                newest_acked_sent = Some(newest_acked_sent.map_or(sent, |t| t.max(sent)));
            }
        }
        // Loss detection: unacked packets sent long before the newest acked
        // one are gone. Send times grow with the sequence number, so the
        // expired packets are the oldest ones.
        if let Some(newest) = newest_acked_sent {
            while let Some((seq, &(sent, size))) = self.unacked.first() {
                if sent + LOSS_TIMEOUT >= newest {
                    break;
                }
                self.unacked.remove(seq);
                self.fb_scratch.push(FeedbackEntry {
                    transport_seq: seq,
                    sent,
                    arrival: None,
                    size_bytes: size,
                });
            }
        }
        self.cc.on_transport_feedback(now, &self.fb_scratch);
    }

    /// Processes an arrived receiver report.
    pub fn on_receiver_report(&mut self, _now: SimTime, rr: &ReceiverReport) {
        self.cc.on_loss_report(rr.loss_fraction);
    }

    /// Encoder's current resolution.
    pub fn resolution(&self) -> Resolution {
        self.encoder.resolution()
    }

    /// Encoder's current frame rate.
    pub fn fps(&self) -> f64 {
        self.encoder.fps()
    }
}

/// The receiving half of an endpoint.
pub struct MediaReceiver {
    /// Video jitter buffer (public for telemetry sampling).
    pub video: VideoJitterBuffer,
    /// Audio jitter buffer.
    pub audio: AudioJitterBuffer,
    feedback: FeedbackBuilder,
    last_resolution: Resolution,
}

impl Default for MediaReceiver {
    fn default() -> Self {
        Self::new()
    }
}

impl MediaReceiver {
    /// Creates an empty receiver.
    pub fn new() -> Self {
        MediaReceiver {
            video: VideoJitterBuffer::new(),
            audio: AudioJitterBuffer::new(),
            feedback: FeedbackBuilder::new(),
            last_resolution: Resolution::R360p,
        }
    }

    /// Processes an arrived media packet. `sent` is the sender timestamp
    /// (transport-wide feedback echoes it for delay-gradient estimation).
    pub fn on_packet(
        &mut self,
        now: SimTime,
        transport_seq: u64,
        sent: SimTime,
        payload: &PacketPayload,
    ) {
        match payload {
            PacketPayload::Video {
                frame_idx,
                packets_in_frame,
                capture_ts,
                resolution,
                ..
            } => {
                self.feedback.on_packet(now, transport_seq, sent);
                self.video
                    .on_packet(now, *frame_idx, *packets_in_frame, *capture_ts);
                self.last_resolution = *resolution;
            }
            PacketPayload::Audio { seq, capture_ts } => {
                self.feedback.on_packet(now, transport_seq, sent);
                self.audio.on_packet(now, *seq, *capture_ts);
            }
            PacketPayload::Feedback(_) | PacketPayload::Report(_) => {
                unreachable!("RTCP is routed to the sender half")
            }
        }
    }

    /// Advances playout and appends the feedback packets due at `now` to a
    /// caller-owned buffer (allocation-free once the buffer is warm).
    pub fn poll_into(&mut self, now: SimTime, out: &mut Vec<OutgoingPacket>) {
        self.video.advance(now);
        self.audio.poll(now);
        let (fb, rr) = self.feedback.poll(now);
        if let Some(fb) = fb {
            out.push(OutgoingPacket {
                at: now,
                transport_seq: u64::MAX,
                size_bytes: fb.size_bytes,
                payload: PacketPayload::Feedback(fb),
            });
        }
        if let Some(rr) = rr {
            out.push(OutgoingPacket {
                at: now,
                transport_seq: u64::MAX,
                size_bytes: rr.size_bytes,
                payload: PacketPayload::Report(rr),
            });
        }
    }

    /// Resolution of the most recently received video packet.
    pub fn inbound_resolution(&self) -> Resolution {
        self.last_resolution
    }
}

/// A full two-way endpoint: one sender, one receiver, one stats stream.
pub struct RtcEndpoint {
    /// Sending half.
    pub sender: MediaSender,
    /// Receiving half.
    pub receiver: MediaReceiver,
}

impl RtcEndpoint {
    /// Creates an endpoint.
    pub fn new(cfg: SenderConfig, seed: u64, stream_tag: u16) -> Self {
        RtcEndpoint {
            sender: MediaSender::new(cfg, seed, stream_tag),
            receiver: MediaReceiver::new(),
        }
    }

    /// Samples the 50 ms statistics record the paper's instrumented client
    /// exports (standard webrtc-stats + GCC internals).
    pub fn sample_stats(&mut self, now: SimTime) -> AppStatsRecord {
        let pushback = self.sender.cc.pushback_rate_bps(now);
        AppStatsRecord {
            ts: now,
            inbound_fps: self.receiver.video.rendered_fps(),
            inbound_resolution: self.receiver.inbound_resolution(),
            video_jitter_buffer_ms: self.receiver.video.current_delay_ms(),
            audio_jitter_buffer_ms: self.receiver.audio.current_delay_ms(),
            min_jitter_buffer_ms: self.receiver.video.target_delay_ms(),
            freeze_active: self.receiver.video.freeze_active(),
            total_freeze_ms: self.receiver.video.total_freeze_ms(),
            concealed_samples: self.receiver.audio.concealed_samples(),
            total_audio_samples: self.receiver.audio.total_samples(),
            outbound_fps: self.sender.fps(),
            outbound_resolution: self.sender.resolution(),
            target_bitrate_bps: self.sender.cc.target_bps(),
            pushback_rate_bps: pushback,
            outstanding_bytes: self.sender.cc.outstanding_bytes(),
            cwnd_bytes: self.sender.cc.cwnd_bytes(),
            gcc_state: self.sender.cc.network_state(),
            trendline_slope: self.sender.cc.trend(),
            trendline_threshold: self.sender.cc.trend_threshold(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(ms: u64) -> SimTime {
        SimTime::from_millis(ms)
    }

    /// Loopback harness: A sends to B over a constant-delay pipe, feedback
    /// returns over the same pipe; everything should be healthy.
    fn run_loopback(delay_ms: u64, duration_ms: u64) -> (RtcEndpoint, RtcEndpoint) {
        let mut a = RtcEndpoint::new(SenderConfig::default(), 1, 1);
        let mut b = RtcEndpoint::new(SenderConfig::default(), 1, 2);
        let mut now_ms = 0u64;
        // In-flight queues: (deliver_at_ms, seq, sent, payload).
        let mut to_b: Vec<(u64, u64, SimTime, PacketPayload)> = Vec::new();
        let mut to_a: Vec<(u64, u64, SimTime, PacketPayload)> = Vec::new();
        let mut out = Vec::new();
        while now_ms < duration_ms {
            now_ms += 5;
            let now = t(now_ms);
            a.sender.poll_into(now, &mut out);
            for p in out.drain(..) {
                to_b.push((
                    p.at.as_millis() + delay_ms,
                    p.transport_seq,
                    p.at,
                    p.payload,
                ));
            }
            b.receiver.poll_into(now, &mut out);
            for p in out.drain(..) {
                to_a.push((now_ms + delay_ms, p.transport_seq, p.at, p.payload));
            }
            to_b.retain(|(at, seq, sent, payload)| {
                if *at <= now_ms {
                    b.receiver.on_packet(t(*at), *seq, *sent, payload);
                    false
                } else {
                    true
                }
            });
            to_a.retain(|(at, _seq, _sent, payload)| {
                if *at <= now_ms {
                    match payload {
                        PacketPayload::Feedback(fb) => a.sender.on_transport_feedback(t(*at), fb),
                        PacketPayload::Report(rr) => a.sender.on_receiver_report(t(*at), rr),
                        _ => unreachable!(),
                    }
                    false
                } else {
                    true
                }
            });
        }
        (a, b)
    }

    #[test]
    fn loopback_session_is_healthy() {
        let (mut a, mut b) = run_loopback(20, 10_000);
        let stats_a = a.sample_stats(t(10_000));
        let stats_b = b.sample_stats(t(10_000));
        // Sender ramped up from the 1 Mbit/s start.
        assert!(
            stats_a.target_bitrate_bps > 1_200_000.0,
            "{}",
            stats_a.target_bitrate_bps
        );
        // No pushback under healthy conditions.
        assert!(stats_a.pushback_rate_bps >= 0.95 * stats_a.target_bitrate_bps);
        // Receiver rendered ~30 fps with no freezes and no concealment.
        assert!(stats_b.inbound_fps > 20.0, "fps {}", stats_b.inbound_fps);
        assert_eq!(stats_b.concealed_samples, 0);
        assert!(
            stats_b.total_freeze_ms < 200.0,
            "{}",
            stats_b.total_freeze_ms
        );
        assert!(stats_b.total_audio_samples > 100_000);
    }

    #[test]
    fn sender_ramps_up_over_time() {
        let (mut a, _) = run_loopback(15, 20_000);
        let s = a.sample_stats(t(20_000));
        assert!(
            s.target_bitrate_bps > 2_000_000.0,
            "{}",
            s.target_bitrate_bps
        );
    }

    #[test]
    fn feedback_starvation_triggers_pushback() {
        let mut a = RtcEndpoint::new(SenderConfig::default(), 3, 1);
        // Send for 2 s without ever delivering feedback.
        let mut now_ms = 0;
        let mut out = Vec::new();
        while now_ms < 2_000 {
            now_ms += 5;
            a.sender.poll_into(t(now_ms), &mut out);
        }
        assert!(!out.is_empty());
        let s = a.sample_stats(t(2_000));
        assert!(
            s.outstanding_bytes > s.cwnd_bytes,
            "{} vs {}",
            s.outstanding_bytes,
            s.cwnd_bytes
        );
        assert!(s.pushback_rate_bps < s.target_bitrate_bps);
    }

    /// One feedback acks the newest packet of 700 ms of sending. Exactly
    /// the packets sent more than `LOSS_TIMEOUT` before it are reported
    /// lost, oldest first; the younger ones stay unacked.
    #[test]
    fn feedback_reports_only_packets_older_than_the_loss_timeout() {
        let mut s = MediaSender::new(SenderConfig::default(), 5, 1);
        let mut out = Vec::new();
        for ms in 0..=700 {
            s.poll_into(t(ms), &mut out);
        }
        let newest = out.last().expect("the sender sent");
        let fb = TransportFeedback {
            built_at: newest.at + SimDuration::from_millis(20),
            entries: vec![crate::feedback::ArrivalEntry {
                transport_seq: newest.transport_seq,
                arrival: newest.at + SimDuration::from_millis(20),
            }],
            size_bytes: 63,
        };
        let (older, younger): (Vec<&OutgoingPacket>, Vec<&OutgoingPacket>) = out[..out.len() - 1]
            .iter()
            .partition(|p| p.at + LOSS_TIMEOUT < newest.at);
        assert!(!older.is_empty() && !younger.is_empty());
        s.on_transport_feedback(fb.built_at, &fb);

        let reported: Vec<(u64, bool)> = s
            .fb_scratch
            .iter()
            .map(|e| (e.transport_seq, e.arrival.is_some()))
            .collect();
        let expected: Vec<(u64, bool)> = std::iter::once((newest.transport_seq, true))
            .chain(older.iter().map(|p| (p.transport_seq, false)))
            .collect();
        assert_eq!(reported, expected);
        let unacked: Vec<u64> = s.unacked.iter().map(|(seq, _)| seq).collect();
        let younger: Vec<u64> = younger.iter().map(|p| p.transport_seq).collect();
        assert_eq!(unacked, younger);
    }

    #[test]
    fn stats_record_is_complete() {
        let (mut a, _) = run_loopback(20, 3_000);
        let s = a.sample_stats(t(3_000));
        assert!(s.trendline_threshold > 0.0);
        assert!(s.cwnd_bytes > 0);
        assert_eq!(s.ts, t(3_000));
    }
}
