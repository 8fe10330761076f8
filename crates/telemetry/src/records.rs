//! Record types for each telemetry source.
//!
//! Field choices mirror what the paper's tooling captures: NR-Scope DCI
//! decodes (§3: "traffic scheduling information and retransmission events"),
//! Amarisoft gNB logs (RLC buffer status / retransmissions, RRC state), packet
//! traces at both clients, and the instrumented libwebrtc client's 50 ms stats
//! (frame rate, resolution, freezes, jitter-buffer delay, plus GCC internals:
//! delay variation slope, perceived network state, target bitrate, pushback
//! rate).

use simcore::SimTime;

/// Transmission direction relative to the UE: uplink = UE → network.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Direction {
    /// UE → gNB → wired peer.
    Uplink,
    /// Wired peer → gNB → UE.
    Downlink,
}

impl Direction {
    /// The opposite direction.
    pub fn reverse(self) -> Direction {
        match self {
            Direction::Uplink => Direction::Downlink,
            Direction::Downlink => Direction::Uplink,
        }
    }

    /// Short label used in reports ("UL"/"DL").
    pub fn label(self) -> &'static str {
        match self {
            Direction::Uplink => "UL",
            Direction::Downlink => "DL",
        }
    }
}

/// Duplexing mode of a cell.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Duplexing {
    /// Separate UL/DL carriers; every slot carries both directions.
    Fdd,
    /// Shared carrier; a slot pattern alternates DL/special/UL slots.
    Tdd,
}

/// Whether a cell is a public carrier cell or a private CBRS small cell.
///
/// The distinction matters for observability: the paper only had gNB-internal
/// logs (RLC, RRC) on the private cells.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CellClass {
    /// Public carrier network (T-Mobile in the paper).
    Commercial,
    /// Private CBRS deployment (Amarisoft, Mosolabs in the paper).
    Private,
}

/// Media stream classification of a packet.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum StreamKind {
    /// RTP video.
    Video,
    /// RTP audio.
    Audio,
    /// RTCP feedback (transport-wide CC, receiver reports).
    Rtcp,
}

/// One decoded DCI / scheduled transport block.
#[derive(Debug, Clone)]
pub struct DciRecord {
    /// Slot start time of the grant/assignment.
    pub ts: SimTime,
    /// Radio Network Temporary Identifier of the scheduled UE.
    pub rnti: u32,
    /// Whether the TB is on the uplink or downlink.
    pub direction: Direction,
    /// `true` if this TB belongs to the experiment UE (RNTI tracking as in
    /// NR-Scope); cross-traffic UEs are `false`.
    pub is_target_ue: bool,
    /// Number of physical resource blocks allocated.
    pub n_prbs: u16,
    /// Modulation and coding scheme index (0–28, 38.214 table 5.1.3.1-1).
    pub mcs: u8,
    /// Transport block size in bits.
    pub tbs_bits: u32,
    /// HARQ process id.
    pub harq_id: u8,
    /// 0 for an initial transmission, n for the n-th HARQ retransmission.
    pub harq_retx_idx: u8,
    /// Whether decoding of this TB succeeded at the receiver.
    pub decoded_ok: bool,
    /// `true` when the grant was issued proactively (before any BSR), as the
    /// Mosolabs cell does; always `false` on the downlink.
    pub proactive: bool,
    /// Payload bits actually used by RLC data (≤ `tbs_bits`); the gap is the
    /// padding/waste visible as unfilled bars in Fig. 16.
    pub used_bits: u32,
}

/// RRC connection state of the UE.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RrcState {
    /// Active data transfer possible.
    Connected,
    /// Released; no scheduling possible.
    Idle,
    /// Connection (re-)establishment in progress.
    Connecting,
}

/// An entry of the gNB-internal log (private cells only).
#[derive(Debug, Clone, PartialEq)]
pub enum GnbEvent {
    /// RLC ARQ retransmission of sequence number `sn`.
    RlcRetx {
        /// Direction of the retransmitted RLC PDU.
        direction: Direction,
        /// RLC sequence number.
        sn: u32,
    },
    /// Periodic RLC transmit-buffer occupancy sample.
    RlcBuffer {
        /// Direction of the buffer (UL = UE-side buffer, DL = gNB-side).
        direction: Direction,
        /// Queued bytes awaiting first transmission or retransmission.
        bytes: u64,
    },
    /// RRC state change of the experiment UE.
    RrcTransition {
        /// New state.
        state: RrcState,
        /// RNTI after the transition (changes on re-establishment).
        rnti: u32,
    },
}

/// A timestamped gNB log record.
#[derive(Debug, Clone)]
pub struct GnbLogRecord {
    /// Log timestamp.
    pub ts: SimTime,
    /// The logged event.
    pub event: GnbEvent,
}

/// One captured packet, correlated across both capture points.
#[derive(Debug, Clone)]
pub struct PacketRecord {
    /// Transmission time at the sender's capture point.
    pub sent: SimTime,
    /// Arrival time at the receiver's capture point; `None` if lost.
    pub received: Option<SimTime>,
    /// Direction relative to the UE.
    pub direction: Direction,
    /// Media stream classification.
    pub stream: StreamKind,
    /// Transport-wide sequence number (per direction).
    pub seq: u64,
    /// Size on the wire in bytes.
    pub size_bytes: u32,
}

impl PacketRecord {
    /// One-way delay, if the packet arrived.
    pub fn one_way_delay(&self) -> Option<simcore::SimDuration> {
        self.received.map(|r| r.saturating_since(self.sent))
    }
}

/// Video resolution rungs of the encoder ladder (Table 3 categories).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Resolution {
    /// 320×180.
    R180p,
    /// 640×360.
    R360p,
    /// 960×540.
    R540p,
    /// 1280×720.
    R720p,
    /// 1920×1080.
    R1080p,
}

impl Resolution {
    /// Label as printed in Table 3.
    pub fn label(self) -> &'static str {
        match self {
            Resolution::R180p => "180p",
            Resolution::R360p => "360p",
            Resolution::R540p => "540p",
            Resolution::R720p => "720p",
            Resolution::R1080p => "1080p",
        }
    }

    /// All rungs, ascending.
    pub const ALL: [Resolution; 5] = [
        Resolution::R180p,
        Resolution::R360p,
        Resolution::R540p,
        Resolution::R720p,
        Resolution::R1080p,
    ];
}

/// GCC delay-based estimator's perceived network state.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum GccNetworkState {
    /// Delay gradient below threshold band.
    Underuse,
    /// Delay gradient within threshold band.
    Normal,
    /// Delay gradient above threshold band — congestion building.
    Overuse,
}

/// One 50 ms sample of the instrumented WebRTC client.
///
/// Combines the standard `webrtc-stats` fields the paper cites with the GCC
/// internals its custom client exposes. A session yields two streams of
/// these: one per client.
#[derive(Debug, Clone)]
pub struct AppStatsRecord {
    /// Sample time.
    pub ts: SimTime,
    // ---- Receive side ----
    /// Decoded-and-rendered inbound video frame rate (fps).
    pub inbound_fps: f64,
    /// Inbound video resolution currently rendered.
    pub inbound_resolution: Resolution,
    /// Current video jitter-buffer delay (ms).
    pub video_jitter_buffer_ms: f64,
    /// Current audio jitter-buffer delay (ms).
    pub audio_jitter_buffer_ms: f64,
    /// Minimum playout delay the adaptive buffer will shrink to (ms).
    pub min_jitter_buffer_ms: f64,
    /// `true` while the inbound video is in a frozen state.
    pub freeze_active: bool,
    /// Cumulative total freeze duration (ms).
    pub total_freeze_ms: f64,
    /// Cumulative concealed audio samples.
    pub concealed_samples: u64,
    /// Cumulative played-out audio samples (concealed + normal).
    pub total_audio_samples: u64,
    // ---- Send side ----
    /// Outbound encoded video frame rate (fps).
    pub outbound_fps: f64,
    /// Outbound video resolution.
    pub outbound_resolution: Resolution,
    /// GCC target bitrate (bits/s) from the bandwidth estimator.
    pub target_bitrate_bps: f64,
    /// Final pacer/encoder rate after congestion-window pushback (bits/s).
    pub pushback_rate_bps: f64,
    /// Bytes sent but not yet acknowledged via transport feedback.
    pub outstanding_bytes: u64,
    /// GCC congestion-window size (bytes).
    pub cwnd_bytes: u64,
    /// Delay-based estimator state.
    pub gcc_state: GccNetworkState,
    /// Trendline filter slope (ms per packet-group, GCC internal).
    pub trendline_slope: f64,
    /// Adaptive overuse threshold the slope is compared against.
    pub trendline_threshold: f64,
}

/// One 50 ms sample of an ABR streaming client's playback state.
///
/// The streaming analogue of [`AppStatsRecord`]: where the RTC client
/// reports jitter-buffer and GCC internals, the ABR client reports its
/// playback buffer, stall accounting, and ladder position. A streaming
/// session yields exactly one of these streams (the client side); the
/// segment server has no player state to sample.
#[derive(Debug, Clone)]
pub struct PlaybackStatsRecord {
    /// Sample time.
    pub ts: SimTime,
    /// Media buffered ahead of the playhead (ms).
    pub buffer_ms: f64,
    /// `true` once initial startup buffering completed and playback began.
    pub started: bool,
    /// `true` while playback is stalled (rebuffering after start).
    pub stalled: bool,
    /// Cumulative stall (rebuffering) time since start (ms).
    pub total_stall_ms: f64,
    /// Number of distinct stall events so far.
    pub stall_count: u32,
    /// Ladder rung index currently playing (0 = lowest).
    pub rung: u8,
    /// Resolution of the currently playing rung.
    pub resolution: Resolution,
    /// Rung index the controller most recently requested.
    pub target_rung: u8,
    /// Controller's smoothed throughput estimate (bits/s; 0 before the
    /// first segment completes).
    pub est_throughput_bps: f64,
    /// Segments fully downloaded so far.
    pub segments_fetched: u32,
}

impl PlaybackStatsRecord {
    /// A neutral sample at `ts` (session start, before any segment flows).
    pub fn baseline(ts: SimTime) -> Self {
        PlaybackStatsRecord {
            ts,
            buffer_ms: 0.0,
            started: false,
            stalled: false,
            total_stall_ms: 0.0,
            stall_count: 0,
            rung: 0,
            resolution: Resolution::R180p,
            target_rung: 0,
            est_throughput_bps: 0.0,
            segments_fetched: 0,
        }
    }
}

impl AppStatsRecord {
    /// A neutral sample at `ts` (session start, before any media flows).
    pub fn baseline(ts: SimTime) -> Self {
        AppStatsRecord {
            ts,
            inbound_fps: 0.0,
            inbound_resolution: Resolution::R360p,
            video_jitter_buffer_ms: 0.0,
            audio_jitter_buffer_ms: 0.0,
            min_jitter_buffer_ms: 0.0,
            freeze_active: false,
            total_freeze_ms: 0.0,
            concealed_samples: 0,
            total_audio_samples: 0,
            outbound_fps: 0.0,
            outbound_resolution: Resolution::R360p,
            target_bitrate_bps: 300_000.0,
            pushback_rate_bps: 300_000.0,
            outstanding_bytes: 0,
            cwnd_bytes: u64::MAX / 2,
            gcc_state: GccNetworkState::Normal,
            trendline_slope: 0.0,
            trendline_threshold: 12.5,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use simcore::SimDuration;

    #[test]
    fn direction_reverse_is_involution() {
        assert_eq!(Direction::Uplink.reverse(), Direction::Downlink);
        assert_eq!(Direction::Uplink.reverse().reverse(), Direction::Uplink);
        assert_eq!(Direction::Uplink.label(), "UL");
    }

    #[test]
    fn packet_delay() {
        let p = PacketRecord {
            sent: SimTime::from_millis(10),
            received: Some(SimTime::from_millis(45)),
            direction: Direction::Uplink,
            stream: StreamKind::Video,
            seq: 1,
            size_bytes: 1200,
        };
        assert_eq!(p.one_way_delay(), Some(SimDuration::from_millis(35)));
        let lost = PacketRecord {
            received: None,
            ..p
        };
        assert_eq!(lost.one_way_delay(), None);
    }

    #[test]
    fn resolution_order_matches_height() {
        for pair in Resolution::ALL.windows(2) {
            assert!(pair[0] < pair[1]);
            let height = |r: Resolution| r.label().trim_end_matches('p').parse::<u32>().unwrap();
            assert!(height(pair[0]) < height(pair[1]));
        }
        assert_eq!(Resolution::R540p.label(), "540p");
    }
}
