//! The 40-dimensional feature space of Domino's sliding-window detector.
//!
//! Per paper §4.2 / Appendix D: 10 application events extracted from both
//! clients (20 dims), 6 bidirectional 5G events extracted for UL and DL
//! (12 dims), plus forward/reverse packet-delay trends, uplink scheduling,
//! and RRC state change (4 dims) — 2×10 + 6×2 + 4 = 36 — plus 4 ABR
//! playback events for the streaming workload (dims 36–39). RTC bundles
//! carry no playback stream, so the playback dims are identically false
//! there and the original 36-dim semantics are unchanged.

use telemetry::Direction;

/// The ten per-client application events (Table 5, rows 1–10).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum AppEvent {
    /// 1. Inbound frame rate dropped.
    InboundFramerateDown,
    /// 2. Outbound frame rate dropped.
    OutboundFramerateDown,
    /// 3. Outbound resolution stepped down.
    OutboundResolutionDown,
    /// 4. Jitter buffer drained to 0 ms.
    JitterBufferDrain,
    /// 5. Target bitrate decreased.
    TargetBitrateDown,
    /// 6. GCC detected overuse.
    GccOveruse,
    /// 7. Pushback rate decreased.
    PushbackRateDown,
    /// 8. Outstanding bytes exceeded the congestion window.
    CwndFull,
    /// 9. Windowed outstanding bytes trended up.
    OutstandingBytesUp,
    /// 10. Pushback rate diverged from the target bitrate.
    PushbackNeqTarget,
}

impl AppEvent {
    /// All ten, in Table 5 order.
    pub const ALL: [AppEvent; 10] = [
        AppEvent::InboundFramerateDown,
        AppEvent::OutboundFramerateDown,
        AppEvent::OutboundResolutionDown,
        AppEvent::JitterBufferDrain,
        AppEvent::TargetBitrateDown,
        AppEvent::GccOveruse,
        AppEvent::PushbackRateDown,
        AppEvent::CwndFull,
        AppEvent::OutstandingBytesUp,
        AppEvent::PushbackNeqTarget,
    ];

    fn ordinal(self) -> usize {
        Self::ALL.iter().position(|&e| e == self).expect("in ALL")
    }

    /// Canonical snake_case name fragment.
    pub fn name(self) -> &'static str {
        match self {
            AppEvent::InboundFramerateDown => "inbound_framerate_down",
            AppEvent::OutboundFramerateDown => "outbound_framerate_down",
            AppEvent::OutboundResolutionDown => "outbound_resolution_down",
            AppEvent::JitterBufferDrain => "jitter_buffer_drain",
            AppEvent::TargetBitrateDown => "target_bitrate_down",
            AppEvent::GccOveruse => "gcc_overuse",
            AppEvent::PushbackRateDown => "pushback_rate_down",
            AppEvent::CwndFull => "cwnd_full",
            AppEvent::OutstandingBytesUp => "outstanding_bytes_up",
            AppEvent::PushbackNeqTarget => "pushback_neq_target",
        }
    }
}

/// The six bidirectional 5G events (Table 5, rows 13–18).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum RanEvent {
    /// 13. Allocated TBS dropped.
    AllocatedTbsDown,
    /// 14. App bitrate exceeded the allocated TBS.
    AppExceedsTbs,
    /// 15. Cross traffic took PRBs.
    CrossTraffic,
    /// 16. Channel degraded (low MCS).
    ChannelDegrades,
    /// 17. HARQ retransmissions above threshold.
    HarqRetx,
    /// 18. RLC retransmission logged by the gNB.
    RlcRetx,
}

impl RanEvent {
    /// All six, in Table 5 order.
    pub const ALL: [RanEvent; 6] = [
        RanEvent::AllocatedTbsDown,
        RanEvent::AppExceedsTbs,
        RanEvent::CrossTraffic,
        RanEvent::ChannelDegrades,
        RanEvent::HarqRetx,
        RanEvent::RlcRetx,
    ];

    fn ordinal(self) -> usize {
        Self::ALL.iter().position(|&e| e == self).expect("in ALL")
    }

    /// Canonical snake_case name fragment.
    pub fn name(self) -> &'static str {
        match self {
            RanEvent::AllocatedTbsDown => "tbs_down",
            RanEvent::AppExceedsTbs => "app_exceeds_tbs",
            RanEvent::CrossTraffic => "cross_traffic",
            RanEvent::ChannelDegrades => "channel_degrades",
            RanEvent::HarqRetx => "harq_retx",
            RanEvent::RlcRetx => "rlc_retx",
        }
    }
}

/// The four ABR playback events of the streaming workload (dims 36–39).
///
/// Extracted from the bundle's `playback` stream; always false for RTC
/// sessions, whose playback stream is empty.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum PlaybackEvent {
    /// 21. Playback buffer fell below the low-water mark after startup.
    BufferLow,
    /// 22. Playback stalled (rebuffering) within the window.
    Stall,
    /// 23. The ABR controller switched down the bitrate ladder.
    LadderSwitchDown,
    /// 24. The controller hunted up and down the ladder (oscillation).
    LadderOscillation,
}

impl PlaybackEvent {
    /// All four, in index order.
    pub const ALL: [PlaybackEvent; 4] = [
        PlaybackEvent::BufferLow,
        PlaybackEvent::Stall,
        PlaybackEvent::LadderSwitchDown,
        PlaybackEvent::LadderOscillation,
    ];

    fn ordinal(self) -> usize {
        Self::ALL.iter().position(|&e| e == self).expect("in ALL")
    }

    /// Canonical snake_case name.
    pub fn name(self) -> &'static str {
        match self {
            PlaybackEvent::BufferLow => "playback_buffer_low",
            PlaybackEvent::Stall => "playback_stall",
            PlaybackEvent::LadderSwitchDown => "ladder_switch_down",
            PlaybackEvent::LadderOscillation => "ladder_oscillation",
        }
    }
}

/// Which client an application event belongs to.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ClientSide {
    /// The UE-side (cellular) client.
    Local,
    /// The wired peer.
    Remote,
}

impl ClientSide {
    /// Prefix used in feature names.
    pub fn prefix(self) -> &'static str {
        match self {
            ClientSide::Local => "local",
            ClientSide::Remote => "remote",
        }
    }
}

/// One of the 40 features.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Feature {
    /// Application event at one client.
    App(ClientSide, AppEvent),
    /// 5G event in one direction.
    Ran(Direction, RanEvent),
    /// 11. Forward-path (media packets, either direction) delay uptrend.
    ///
    /// §6.3 defines forward as "the forward (media) path" and reverse as
    /// "the reverse (RTCP feedback) path".
    ForwardDelayUp,
    /// 12. Reverse-path (RTCP feedback packets) delay uptrend.
    ReverseDelayUp,
    /// 19. Transmission uses the 5G uplink channel.
    UlScheduling,
    /// 20. The UE's RNTI changed within the window.
    RrcStateChange,
    /// 21–24. ABR playback event (streaming workload).
    Playback(PlaybackEvent),
}

/// Total number of features.
pub(crate) const FEATURE_COUNT: usize = 40;

// Every feature has a bit in a `FeatureVector`'s `u64`.
const _: () = assert!(FEATURE_COUNT <= 64);

impl Feature {
    /// Fixed index of this feature in the vector.
    pub fn index(self) -> usize {
        match self {
            Feature::App(ClientSide::Local, e) => e.ordinal(),
            Feature::App(ClientSide::Remote, e) => 10 + e.ordinal(),
            Feature::ForwardDelayUp => 20,
            Feature::ReverseDelayUp => 21,
            Feature::Ran(Direction::Uplink, e) => 22 + e.ordinal(),
            Feature::Ran(Direction::Downlink, e) => 28 + e.ordinal(),
            Feature::UlScheduling => 34,
            Feature::RrcStateChange => 35,
            Feature::Playback(e) => 36 + e.ordinal(),
        }
    }

    /// This feature's bit in a [`FeatureVector`].
    pub(crate) fn mask(self) -> u64 {
        1 << self.index()
    }

    /// All 40 features in index order.
    pub fn all() -> Vec<Feature> {
        let mut v = Vec::with_capacity(FEATURE_COUNT);
        for e in AppEvent::ALL {
            v.push(Feature::App(ClientSide::Local, e));
        }
        for e in AppEvent::ALL {
            v.push(Feature::App(ClientSide::Remote, e));
        }
        v.push(Feature::ForwardDelayUp);
        v.push(Feature::ReverseDelayUp);
        for e in RanEvent::ALL {
            v.push(Feature::Ran(Direction::Uplink, e));
        }
        for e in RanEvent::ALL {
            v.push(Feature::Ran(Direction::Downlink, e));
        }
        v.push(Feature::UlScheduling);
        v.push(Feature::RrcStateChange);
        for e in PlaybackEvent::ALL {
            v.push(Feature::Playback(e));
        }
        v
    }

    /// Canonical name, e.g. `local_jitter_buffer_drain`, `dl_rlc_retx`.
    pub fn name(self) -> String {
        match self {
            Feature::App(side, e) => format!("{}_{}", side.prefix(), e.name()),
            Feature::Ran(dir, e) => {
                let d = match dir {
                    Direction::Uplink => "ul",
                    Direction::Downlink => "dl",
                };
                format!("{}_{}", d, e.name())
            }
            Feature::ForwardDelayUp => "forward_delay_up".to_string(),
            Feature::ReverseDelayUp => "reverse_delay_up".to_string(),
            Feature::UlScheduling => "ul_scheduling".to_string(),
            Feature::RrcStateChange => "rrc_state_change".to_string(),
            Feature::Playback(e) => e.name().to_string(),
        }
    }

    /// Parses a canonical feature name.
    pub fn parse(name: &str) -> Option<Feature> {
        Feature::all().into_iter().find(|f| f.name() == name)
    }
}

/// A boolean vector over the 40 features for one window: bit `i` is the
/// feature with [`Feature::index`] `i`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct FeatureVector {
    bits: u64,
}

impl FeatureVector {
    /// All-false vector.
    pub fn new() -> Self {
        Self::default()
    }

    /// Sets a feature.
    pub fn set(&mut self, f: Feature, v: bool) {
        if v {
            self.bits |= f.mask();
        } else {
            self.bits &= !f.mask();
        }
    }

    /// Reads a feature.
    pub fn get(&self, f: Feature) -> bool {
        self.any(f.mask())
    }

    /// Whether any feature of `mask` (bits as in [`Feature::index`]) is set.
    pub(crate) fn any(&self, mask: u64) -> bool {
        self.bits & mask != 0
    }

    /// Number of active features.
    pub fn count_active(&self) -> usize {
        self.bits.count_ones() as usize
    }

    /// Active feature names (for reports/debugging).
    pub fn active_names(&self) -> Vec<String> {
        Feature::all()
            .into_iter()
            .filter(|f| self.get(*f))
            .map(|f| f.name())
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn exactly_40_features_with_unique_indices() {
        let all = Feature::all();
        assert_eq!(all.len(), FEATURE_COUNT);
        let mut seen = [false; FEATURE_COUNT];
        for f in &all {
            assert!(!seen[f.index()], "duplicate index {}", f.index());
            seen[f.index()] = true;
        }
        assert!(seen.iter().all(|&b| b));
    }

    #[test]
    fn names_roundtrip() {
        for f in Feature::all() {
            assert_eq!(Feature::parse(&f.name()), Some(f), "{}", f.name());
        }
        assert_eq!(Feature::parse("nonsense"), None);
    }

    #[test]
    fn paper_fig11_names_exist() {
        // The names used in the paper's Fig. 11 example must parse.
        assert!(Feature::parse("dl_rlc_retx").is_some());
        assert!(Feature::parse("dl_harq_retx").is_some());
        assert!(Feature::parse("forward_delay_up").is_some());
        assert!(Feature::parse("local_jitter_buffer_drain").is_some());
    }

    #[test]
    fn playback_features_occupy_the_tail() {
        assert_eq!(Feature::Playback(PlaybackEvent::BufferLow).index(), 36);
        assert_eq!(
            Feature::Playback(PlaybackEvent::LadderOscillation).index(),
            39
        );
        assert!(Feature::parse("playback_stall").is_some());
        assert!(Feature::parse("ladder_oscillation").is_some());
    }

    #[test]
    fn vector_set_get() {
        let mut v = FeatureVector::new();
        assert_eq!(v.count_active(), 0);
        v.set(Feature::RrcStateChange, true);
        v.set(Feature::App(ClientSide::Local, AppEvent::GccOveruse), true);
        assert!(v.get(Feature::RrcStateChange));
        assert_eq!(v.count_active(), 2);
        assert!(v.active_names().contains(&"local_gcc_overuse".to_string()));
        v.set(Feature::RrcStateChange, false);
        assert!(!v.get(Feature::RrcStateChange));
        assert_eq!(v.active_names(), ["local_gcc_overuse"]);
    }
}
