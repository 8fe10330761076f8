//! # abr-sim — QUIC/ABR video-streaming endpoint simulator
//!
//! The first non-RTC workload on the session engine: a segment-based video
//! stream (DASH/HLS-over-QUIC shape) between a UE-side player and a wired
//! origin server, reusing the `ran`/`netpath` layers unchanged.
//!
//! Three pieces, all deterministic and tick-driven:
//!
//! * [`AbrClient`] — the player: a playback buffer drained in simulated
//!   time, a segment fetcher that keeps exactly one request in flight while
//!   the buffer sits below its target, and an ABR controller
//!   ([`AbrAlgorithm`]) choosing the ladder rung per request from a smoothed
//!   throughput estimate (throughput rule) or the buffer level (buffer
//!   rule). Stalls (buffer underrun after startup) and ladder switches are
//!   tracked and exposed both as 50 ms [`PlaybackStatsRecord`] samples and
//!   as per-tick [`AbrTickEvents`] for metrics.
//! * [`AbrServer`] — the origin: answers a segment request by pacing the
//!   segment out as MTU-sized chunks at the configured egress rate.
//! * [`AbrPayload`] / [`AbrOutgoing`] — the wire units the session engine
//!   routes through the same access + core + peer path models as RTC
//!   packets. Requests ride the uplink as [`StreamKind::Rtcp`]-class
//!   packets, chunks ride the downlink as [`StreamKind::Video`], so the
//!   detector's forward-delay-trend feature applies unchanged.
//!
//! Everything is integer-microsecond arithmetic plus fixed-order f64 for
//! the throughput EWMA: byte-identical output at any thread/shard/mux
//! partitioning, exactly like the RTC endpoint.

use simcore::{SimDuration, SimTime};
use std::collections::VecDeque;
use telemetry::{PlaybackStatsRecord, Resolution, StreamKind};

/// One rung of the encoding ladder.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LadderRung {
    /// Video resolution of this rung.
    pub resolution: Resolution,
    /// Encoded bitrate in bits/s.
    pub bitrate_bps: u64,
}

/// A typical five-rung ladder (180p → 1080p).
pub fn default_ladder() -> Vec<LadderRung> {
    vec![
        LadderRung {
            resolution: Resolution::R180p,
            bitrate_bps: 400_000,
        },
        LadderRung {
            resolution: Resolution::R360p,
            bitrate_bps: 800_000,
        },
        LadderRung {
            resolution: Resolution::R540p,
            bitrate_bps: 1_500_000,
        },
        LadderRung {
            resolution: Resolution::R720p,
            bitrate_bps: 3_000_000,
        },
        LadderRung {
            resolution: Resolution::R1080p,
            bitrate_bps: 6_000_000,
        },
    ]
}

/// The rung-selection rule the controller runs at each request.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AbrAlgorithm {
    /// Highest rung whose bitrate fits under `safety × estimated
    /// throughput` (the classic throughput rule; rung 0 before the first
    /// estimate).
    ThroughputRule,
    /// Rung proportional to the buffer fill level (a BOLA-shaped buffer
    /// rule): `floor(buffer / target × rungs)`, clamped to the ladder.
    BufferRule,
}

/// Configuration of one streaming session's client + server pair.
#[derive(Debug, Clone)]
pub struct AbrConfig {
    /// Media duration per segment.
    pub segment_duration: SimDuration,
    /// The encoding ladder, ascending bitrate.
    pub ladder: Vec<LadderRung>,
    /// Buffer level the fetcher tries to hold.
    pub buffer_target: SimDuration,
    /// Buffer needed to start playback, and to resume after a stall.
    pub startup_buffer: SimDuration,
    /// Rung-selection rule.
    pub algorithm: AbrAlgorithm,
    /// Chunk size on the wire, bytes.
    pub mtu: u32,
    /// Size of a segment request on the wire, bytes.
    pub request_bytes: u32,
    /// Throughput-rule safety factor (fraction of the estimate a rung may
    /// use).
    pub throughput_safety: f64,
    /// Server egress pacing rate, bits/s (the wired origin's uplink).
    pub server_rate_bps: u64,
    /// EWMA weight of the newest throughput sample.
    pub ewma_alpha: f64,
}

impl Default for AbrConfig {
    fn default() -> Self {
        AbrConfig {
            segment_duration: SimDuration::from_secs(1),
            ladder: default_ladder(),
            buffer_target: SimDuration::from_secs(6),
            startup_buffer: SimDuration::from_secs(1),
            algorithm: AbrAlgorithm::ThroughputRule,
            mtu: 1_200,
            request_bytes: 200,
            throughput_safety: 0.7,
            server_rate_bps: 40_000_000,
            ewma_alpha: 0.7,
        }
    }
}

impl AbrConfig {
    /// Bytes of one segment at `rung` (bitrate × duration).
    pub(crate) fn segment_bytes(&self, rung: u8) -> u64 {
        let bits =
            self.ladder[rung as usize].bitrate_bps * self.segment_duration.as_micros() / 1_000_000;
        (bits / 8).max(1)
    }

    /// Chunks one segment at `rung` is shipped as.
    pub(crate) fn segment_chunks(&self, rung: u8) -> u32 {
        self.segment_bytes(rung).div_ceil(self.mtu as u64) as u32
    }

    /// Serialization time of one MTU chunk at the server egress rate, µs.
    fn chunk_gap_us(&self) -> u64 {
        (self.mtu as u64 * 8 * 1_000_000 / self.server_rate_bps).max(1)
    }
}

/// Application payload of one streaming-session wire unit.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AbrPayload {
    /// Client → server: fetch `segment` at ladder rung `rung`.
    SegmentRequest {
        /// Segment index (0-based).
        segment: u32,
        /// Requested ladder rung.
        rung: u8,
    },
    /// Server → client: one chunk of a segment.
    SegmentChunk {
        /// Segment index.
        segment: u32,
        /// Chunk index within the segment.
        chunk: u32,
        /// Total chunks of this segment.
        chunks_in_segment: u32,
        /// Ladder rung the segment was encoded at.
        rung: u8,
    },
}

impl AbrPayload {
    /// Stream classification for the packet trace: requests are sparse
    /// control traffic (RTCP class), chunks are the media stream (Video
    /// class) — so packet-level features split exactly as for RTC.
    pub fn stream(&self) -> StreamKind {
        match self {
            AbrPayload::SegmentRequest { .. } => StreamKind::Rtcp,
            AbrPayload::SegmentChunk { .. } => StreamKind::Video,
        }
    }
}

/// One wire unit leaving an ABR endpoint.
#[derive(Debug, Clone, Copy)]
pub struct AbrOutgoing {
    /// Departure time.
    pub at: SimTime,
    /// Per-endpoint transport sequence number (emission order).
    pub transport_seq: u64,
    /// Size on the wire, bytes.
    pub size_bytes: u32,
    /// Application payload.
    pub payload: AbrPayload,
}

/// Playback state changes of one engine tick, for metrics wiring.
///
/// Drained by the session engine after each tick via
/// [`AbrClient::take_events`]; all fields reset on read.
#[derive(Debug, Clone, Copy, Default)]
pub struct AbrTickEvents {
    /// Playback entered a stall this tick.
    pub stall_started: bool,
    /// A stall ended this tick; the value is its duration in ms.
    pub stall_ended_ms: Option<u64>,
    /// The controller moved to a different ladder rung this tick.
    pub ladder_switched: bool,
}

#[derive(Debug, Clone, Copy)]
struct InFlight {
    segment: u32,
    rung: u8,
    requested_us: u64,
    bytes: u64,
    chunks: u32,
    chunks_received: u32,
}

/// The UE-side player: playback buffer + segment fetcher + ABR controller.
#[derive(Debug, Clone)]
pub struct AbrClient {
    cfg: AbrConfig,
    buffer_us: u64,
    started: bool,
    stalled: bool,
    total_stall_us: u64,
    cur_stall_us: u64,
    stall_count: u32,
    rung: u8,
    target_rung: u8,
    est_bps: f64,
    next_segment: u32,
    in_flight: Option<InFlight>,
    segments_fetched: u32,
    ladder_switches: u32,
    last_tick_us: u64,
    next_seq: u64,
    events: AbrTickEvents,
}

impl AbrClient {
    /// Creates a player at session start (empty buffer, lowest rung).
    pub fn new(cfg: AbrConfig) -> Self {
        assert!(!cfg.ladder.is_empty(), "ladder must have at least one rung");
        AbrClient {
            cfg,
            buffer_us: 0,
            started: false,
            stalled: false,
            total_stall_us: 0,
            cur_stall_us: 0,
            stall_count: 0,
            rung: 0,
            target_rung: 0,
            est_bps: 0.0,
            next_segment: 0,
            in_flight: None,
            segments_fetched: 0,
            ladder_switches: 0,
            last_tick_us: 0,
            next_seq: 0,
            events: AbrTickEvents::default(),
        }
    }

    /// Advances playback to `now` and emits a segment request if the buffer
    /// sits below target with nothing in flight. Called once per engine
    /// tick with strictly increasing `now`.
    pub fn poll_into(&mut self, now: SimTime, out: &mut Vec<AbrOutgoing>) {
        let now_us = now.as_micros();
        let dt = now_us.saturating_sub(self.last_tick_us);
        self.last_tick_us = now_us;

        // Drain the playback buffer in real time while playing; an
        // underrun becomes a stall.
        if self.started && !self.stalled {
            if self.buffer_us >= dt {
                self.buffer_us -= dt;
            } else {
                let shortfall = dt - self.buffer_us;
                self.buffer_us = 0;
                self.stalled = true;
                self.stall_count += 1;
                self.total_stall_us += shortfall;
                self.cur_stall_us = shortfall;
                self.events.stall_started = true;
            }
        } else if self.stalled {
            self.total_stall_us += dt;
            self.cur_stall_us += dt;
        }

        // One request in flight, issued whenever the buffer is below
        // target (startup included: an empty buffer is below target).
        if self.in_flight.is_none() && self.buffer_us < self.cfg.buffer_target.as_micros() {
            let rung = self.choose_rung();
            if rung != self.target_rung {
                self.ladder_switches += 1;
                self.events.ladder_switched = true;
            }
            self.target_rung = rung;
            let segment = self.next_segment;
            self.next_segment += 1;
            self.in_flight = Some(InFlight {
                segment,
                rung,
                requested_us: now_us,
                bytes: self.cfg.segment_bytes(rung),
                chunks: self.cfg.segment_chunks(rung),
                chunks_received: 0,
            });
            out.push(AbrOutgoing {
                at: now,
                transport_seq: self.next_seq,
                size_bytes: self.cfg.request_bytes,
                payload: AbrPayload::SegmentRequest { segment, rung },
            });
            self.next_seq += 1;
        }
    }

    /// A segment chunk arrived at `at`. Completing a segment credits the
    /// buffer, updates the throughput estimate, and may start or resume
    /// playback.
    pub fn on_chunk(&mut self, at: SimTime, payload: &AbrPayload) {
        let AbrPayload::SegmentChunk { segment, .. } = payload else {
            return;
        };
        let Some(f) = self.in_flight.as_mut() else {
            return;
        };
        if f.segment != *segment {
            return;
        }
        f.chunks_received += 1;
        if f.chunks_received < f.chunks {
            return;
        }
        let f = self.in_flight.take().expect("checked above");
        self.buffer_us += self.cfg.segment_duration.as_micros();
        self.segments_fetched += 1;
        self.rung = f.rung;
        let elapsed_us = at.as_micros().saturating_sub(f.requested_us).max(1);
        let sample_bps = f.bytes as f64 * 8.0 * 1_000_000.0 / elapsed_us as f64;
        self.est_bps = if self.est_bps == 0.0 {
            sample_bps
        } else {
            self.cfg.ewma_alpha * sample_bps + (1.0 - self.cfg.ewma_alpha) * self.est_bps
        };
        let resume_us = self.cfg.startup_buffer.as_micros();
        if !self.started {
            if self.buffer_us >= resume_us {
                self.started = true;
            }
        } else if self.stalled && self.buffer_us >= resume_us {
            self.stalled = false;
            self.events.stall_ended_ms = Some(self.cur_stall_us / 1_000);
            self.cur_stall_us = 0;
        }
    }

    fn choose_rung(&self) -> u8 {
        let ladder = &self.cfg.ladder;
        match self.cfg.algorithm {
            AbrAlgorithm::ThroughputRule => {
                if self.est_bps <= 0.0 {
                    return 0;
                }
                let budget = self.cfg.throughput_safety * self.est_bps;
                let mut best = 0u8;
                for (i, r) in ladder.iter().enumerate() {
                    if (r.bitrate_bps as f64) <= budget {
                        best = i as u8;
                    }
                }
                best
            }
            AbrAlgorithm::BufferRule => {
                let target = self.cfg.buffer_target.as_micros().max(1);
                let idx = self.buffer_us * ladder.len() as u64 / target;
                idx.min(ladder.len() as u64 - 1) as u8
            }
        }
    }

    /// 50 ms playback sample at `now`.
    pub fn sample_stats(&self, now: SimTime) -> PlaybackStatsRecord {
        PlaybackStatsRecord {
            ts: now,
            buffer_ms: self.buffer_us as f64 / 1_000.0,
            started: self.started,
            stalled: self.stalled,
            total_stall_ms: self.total_stall_us as f64 / 1_000.0,
            stall_count: self.stall_count,
            rung: self.rung,
            resolution: self.cfg.ladder[self.rung as usize].resolution,
            target_rung: self.target_rung,
            est_throughput_bps: self.est_bps,
            segments_fetched: self.segments_fetched,
        }
    }

    /// Drains the tick's playback state changes (resets on read).
    pub fn take_events(&mut self) -> AbrTickEvents {
        std::mem::take(&mut self.events)
    }

    /// Total distinct stalls so far.
    pub fn stall_count(&self) -> u32 {
        self.stall_count
    }

    /// Total controller rung changes so far.
    pub fn ladder_switches(&self) -> u32 {
        self.ladder_switches
    }

    /// Segments fully downloaded so far.
    pub fn segments_fetched(&self) -> u32 {
        self.segments_fetched
    }
}

/// The wired origin server: answers requests with paced chunk trains.
#[derive(Debug, Clone)]
pub struct AbrServer {
    cfg: AbrConfig,
    queue: VecDeque<AbrOutgoing>,
    next_seq: u64,
    next_free_us: u64,
}

impl AbrServer {
    /// Creates the origin for one session.
    pub fn new(cfg: AbrConfig) -> Self {
        AbrServer {
            cfg,
            queue: VecDeque::new(),
            next_seq: 0,
            next_free_us: 0,
        }
    }

    /// A segment request arrived at `at`: schedule the segment's chunks,
    /// paced at the egress rate, FIFO across requests.
    pub fn on_request(&mut self, at: SimTime, payload: &AbrPayload) {
        let AbrPayload::SegmentRequest { segment, rung } = payload else {
            return;
        };
        let bytes = self.cfg.segment_bytes(*rung);
        let chunks = self.cfg.segment_chunks(*rung);
        let gap = self.cfg.chunk_gap_us();
        let start = at.as_micros().max(self.next_free_us);
        for i in 0..chunks {
            let size = if i + 1 == chunks {
                (bytes - (chunks as u64 - 1) * self.cfg.mtu as u64) as u32
            } else {
                self.cfg.mtu
            };
            self.queue.push_back(AbrOutgoing {
                at: SimTime::from_micros(start + (i as u64 + 1) * gap),
                transport_seq: self.next_seq,
                size_bytes: size,
                payload: AbrPayload::SegmentChunk {
                    segment: *segment,
                    chunk: i,
                    chunks_in_segment: chunks,
                    rung: *rung,
                },
            });
            self.next_seq += 1;
        }
        self.next_free_us = start + chunks as u64 * gap;
    }

    /// Emits every chunk due by `now`.
    pub fn poll_into(&mut self, now: SimTime, out: &mut Vec<AbrOutgoing>) {
        while self.queue.front().is_some_and(|c| c.at <= now) {
            out.push(self.queue.pop_front().expect("non-empty"));
        }
    }

    /// Chunks scheduled but not yet departed.
    pub fn queued(&self) -> usize {
        self.queue.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tick(client: &mut AbrClient, server: &mut AbrServer, ms: u64, delay_ms: u64) -> u32 {
        // A zero-jitter loopback harness: requests arrive after `delay_ms`,
        // chunks arrive `delay_ms` after departure.
        let now = SimTime::from_millis(ms);
        let mut out = Vec::new();
        client.poll_into(now, &mut out);
        for p in out.drain(..) {
            server.on_request(
                SimTime::from_micros(p.at.as_micros() + delay_ms * 1000),
                &p.payload,
            );
        }
        server.poll_into(now, &mut out);
        let mut delivered = 0;
        for p in out {
            client.on_chunk(
                SimTime::from_micros(p.at.as_micros() + delay_ms * 1000),
                &p.payload,
            );
            delivered += 1;
        }
        delivered
    }

    #[test]
    fn fast_network_reaches_top_rung_without_stalls() {
        let cfg = AbrConfig::default();
        let mut client = AbrClient::new(cfg.clone());
        let mut server = AbrServer::new(cfg);
        for ms in 1..30_000 {
            tick(&mut client, &mut server, ms, 5);
        }
        let s = client.sample_stats(SimTime::from_secs(30));
        assert!(s.started);
        assert_eq!(s.stall_count, 0, "no stalls on a fast clean path");
        assert_eq!(s.rung, 4, "throughput rule climbs to 1080p");
        assert!(s.segments_fetched > 20);
        assert!(s.buffer_ms > 1_000.0);
    }

    #[test]
    fn deterministic_replay_is_identical() {
        let run = || {
            let cfg = AbrConfig::default();
            let mut client = AbrClient::new(cfg.clone());
            let mut server = AbrServer::new(cfg);
            for ms in 1..10_000 {
                tick(&mut client, &mut server, ms, 12);
            }
            let s = client.sample_stats(SimTime::from_secs(10));
            (
                s.segments_fetched,
                s.rung,
                s.stall_count,
                s.buffer_ms.to_bits(),
                s.est_throughput_bps.to_bits(),
            )
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn starved_path_stalls_and_recovers() {
        // Server egress capped below the lowest rung: every segment takes
        // longer than it plays, so the buffer drains into a stall.
        let cfg = AbrConfig {
            server_rate_bps: 300_000,
            ..AbrConfig::default()
        };
        let mut client = AbrClient::new(cfg.clone());
        let mut server = AbrServer::new(cfg);
        for ms in 1..30_000 {
            tick(&mut client, &mut server, ms, 5);
        }
        let s = client.sample_stats(SimTime::from_secs(30));
        assert!(s.started, "startup eventually completes");
        assert!(s.stall_count > 0, "sub-realtime path must stall");
        assert!(s.total_stall_ms > 0.0);
        assert_eq!(s.rung, 0, "starved controller stays at the bottom");
    }

    #[test]
    fn buffer_rule_switches_with_fill_level() {
        let cfg = AbrConfig {
            algorithm: AbrAlgorithm::BufferRule,
            ..AbrConfig::default()
        };
        let mut client = AbrClient::new(cfg.clone());
        let mut server = AbrServer::new(cfg);
        for ms in 1..30_000 {
            tick(&mut client, &mut server, ms, 5);
        }
        let s = client.sample_stats(SimTime::from_secs(30));
        assert!(s.started);
        assert!(
            client.ladder_switches() > 0,
            "buffer rule moves off the bottom rung as the buffer fills"
        );
        assert!(s.rung > 0);
    }

    #[test]
    fn segment_sizing_is_consistent() {
        let cfg = AbrConfig::default();
        for rung in 0..cfg.ladder.len() as u8 {
            let bytes = cfg.segment_bytes(rung);
            let chunks = cfg.segment_chunks(rung);
            assert!(chunks >= 1);
            assert!((chunks as u64 - 1) * (cfg.mtu as u64) < bytes);
            assert!(bytes <= chunks as u64 * cfg.mtu as u64);
        }
        // 6 Mbps × 1 s = 750 kB.
        assert_eq!(cfg.segment_bytes(4), 750_000);
    }

    #[test]
    fn tick_events_fire_on_transitions() {
        let cfg = AbrConfig {
            server_rate_bps: 300_000,
            ..AbrConfig::default()
        };
        let mut client = AbrClient::new(cfg.clone());
        let mut server = AbrServer::new(cfg);
        let mut starts = 0;
        let mut ends = 0;
        for ms in 1..60_000 {
            tick(&mut client, &mut server, ms, 5);
            let ev = client.take_events();
            starts += ev.stall_started as u32;
            if ev.stall_ended_ms.is_some() {
                ends += 1;
            }
        }
        assert_eq!(starts, client.stall_count());
        assert!(ends > 0, "stalls end when a segment lands");
    }
}
