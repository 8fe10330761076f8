//! Video encoder model: resolution/frame-rate ladder and frame production.
//!
//! Produces frames whose sizes track the pushback rate handed down by GCC
//! (Fig. 23), with periodic keyframes, and adapts resolution and frame rate
//! the way libwebrtc's balanced degradation does: frame rate sags first when
//! the rate undershoots the current rung's floor, then the resolution steps
//! down (Fig. 21 subplot 5: "Frame rate/Res. drops"); upswitches are
//! hysteresis-delayed.

use rand::Rng;
use simcore::{SimDuration, SimTime};
use telemetry::Resolution;

/// Encoder configuration.
#[derive(Debug, Clone)]
pub struct EncoderConfig {
    /// Nominal frame rate (fps).
    pub max_fps: f64,
    /// Top rung the source/negotiation allows.
    pub max_resolution: Resolution,
    /// Keyframe period.
    pub keyframe_interval: SimDuration,
    /// Keyframe size multiplier over a delta frame.
    pub keyframe_factor: f64,
    /// RTP payload size for packetization.
    pub mtu_bytes: u32,
}

impl Default for EncoderConfig {
    fn default() -> Self {
        EncoderConfig {
            max_fps: 30.0,
            max_resolution: Resolution::R1080p,
            keyframe_interval: SimDuration::from_secs(3),
            keyframe_factor: 3.5,
            mtu_bytes: 1200,
        }
    }
}

/// Bitrate floor (bits/s) at which a rung is sustainable at full frame rate.
pub(crate) fn resolution_floor_bps(res: Resolution) -> f64 {
    match res {
        Resolution::R180p => 150_000.0,
        Resolution::R360p => 400_000.0,
        Resolution::R540p => 1_100_000.0,
        Resolution::R720p => 3_000_000.0,
        Resolution::R1080p => 5_000_000.0,
    }
}

fn rung_below(res: Resolution) -> Option<Resolution> {
    let all = Resolution::ALL;
    let idx = all.iter().position(|&r| r == res).expect("valid rung");
    idx.checked_sub(1).map(|i| all[i])
}

fn rung_above(res: Resolution) -> Option<Resolution> {
    let all = Resolution::ALL;
    let idx = all.iter().position(|&r| r == res).expect("valid rung");
    all.get(idx + 1).copied()
}

/// One encoded video frame.
#[derive(Debug, Clone, Copy)]
pub(crate) struct VideoFrame {
    /// Capture/encode timestamp.
    pub(crate) capture_ts: SimTime,
    /// Total encoded size in bytes.
    pub(crate) size_bytes: u32,
    /// Monotone frame index.
    pub(crate) frame_idx: u64,
}

/// The adaptive video encoder.
#[derive(Debug, Clone)]
pub(crate) struct VideoEncoder {
    cfg: EncoderConfig,
    resolution: Resolution,
    fps: f64,
    next_frame_at: SimTime,
    next_keyframe_at: SimTime,
    frame_idx: u64,
    undershoot_since: Option<SimTime>,
    overshoot_since: Option<SimTime>,
}

impl VideoEncoder {
    /// Creates the encoder starting at 360p (libwebrtc starts low and
    /// upgrades as the estimate grows).
    pub(crate) fn new(cfg: EncoderConfig) -> Self {
        let start = Resolution::R360p.min(cfg.max_resolution);
        VideoEncoder {
            fps: cfg.max_fps,
            resolution: start,
            next_frame_at: SimTime::ZERO,
            next_keyframe_at: SimTime::ZERO,
            frame_idx: 0,
            undershoot_since: None,
            overshoot_since: None,
            cfg,
        }
    }

    /// Current resolution rung.
    pub(crate) fn resolution(&self) -> Resolution {
        self.resolution
    }

    /// Current encoder frame rate.
    pub(crate) fn fps(&self) -> f64 {
        self.fps
    }

    /// Appends every frame due at or before `now`, sized for `rate_bps`, to
    /// a caller-owned buffer (allocation-free when its capacity is warm).
    pub(crate) fn poll_into<R: Rng + ?Sized>(
        &mut self,
        now: SimTime,
        rate_bps: f64,
        rng: &mut R,
        frames: &mut Vec<VideoFrame>,
    ) {
        while self.next_frame_at <= now {
            let ts = self.next_frame_at;
            self.adapt(ts, rate_bps);
            let keyframe = ts >= self.next_keyframe_at;
            if keyframe {
                self.next_keyframe_at = ts + self.cfg.keyframe_interval;
            }
            let mean_bytes = rate_bps / self.fps / 8.0;
            // Content variation: ±15% around the rate-derived mean.
            let variation = 0.85 + 0.3 * rng.gen::<f64>();
            let factor = if keyframe {
                self.cfg.keyframe_factor
            } else {
                1.0
            };
            let size = (mean_bytes * variation * factor).max(120.0) as u32;
            frames.push(VideoFrame {
                capture_ts: ts,
                size_bytes: size,
                frame_idx: self.frame_idx,
            });
            self.frame_idx += 1;
            self.next_frame_at = ts + SimDuration::from_secs_f64(1.0 / self.fps);
        }
    }

    fn adapt(&mut self, now: SimTime, rate_bps: f64) {
        let floor = resolution_floor_bps(self.resolution);
        // Frame rate sags proportionally once the rate is below the rung floor.
        let fps_scale = (rate_bps / floor).clamp(0.34, 1.0);
        self.fps = (self.cfg.max_fps * fps_scale).max(10.0);

        if rate_bps < 0.75 * floor {
            let since = *self.undershoot_since.get_or_insert(now);
            if now.saturating_since(since) >= SimDuration::from_millis(300) {
                if let Some(lower) = rung_below(self.resolution) {
                    self.resolution = lower;
                    self.undershoot_since = None;
                }
            }
        } else {
            self.undershoot_since = None;
        }

        if let Some(higher) = rung_above(self.resolution) {
            if higher <= self.cfg.max_resolution && rate_bps > 1.15 * resolution_floor_bps(higher) {
                let since = *self.overshoot_since.get_or_insert(now);
                if now.saturating_since(since) >= SimDuration::from_secs(2) {
                    self.resolution = higher;
                    self.overshoot_since = None;
                }
            } else {
                self.overshoot_since = None;
            }
        } else {
            self.overshoot_since = None;
        }
    }
}

/// Audio source: fixed-cadence Opus-like packets.
#[derive(Debug, Clone)]
pub(crate) struct AudioSource {
    /// Packet interval (20 ms).
    ptime: SimDuration,
    /// Payload size per packet (bytes).
    packet_bytes: u32,
    next_at: SimTime,
    seq: u64,
}

impl Default for AudioSource {
    fn default() -> Self {
        AudioSource {
            ptime: SimDuration::from_millis(20),
            packet_bytes: 100, // ≈40 kbit/s including overhead
            next_at: SimTime::ZERO,
            seq: 0,
        }
    }
}

/// One audio packet's metadata.
#[derive(Debug, Clone, Copy)]
pub(crate) struct AudioPacket {
    /// Capture timestamp.
    pub(crate) capture_ts: SimTime,
    /// Audio sequence number.
    pub(crate) seq: u64,
    /// Payload size.
    pub(crate) size_bytes: u32,
}

impl AudioSource {
    /// Creates the default 20 ms source.
    pub(crate) fn new() -> Self {
        Self::default()
    }

    /// Appends every audio packet due at or before `now` to a caller-owned
    /// buffer.
    pub(crate) fn poll_into(&mut self, now: SimTime, out: &mut Vec<AudioPacket>) {
        while self.next_at <= now {
            out.push(AudioPacket {
                capture_ts: self.next_at,
                seq: self.seq,
                size_bytes: self.packet_bytes,
            });
            self.seq += 1;
            self.next_at += self.ptime;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use simcore::{rng_for, RngStream};

    fn rng() -> rand::rngs::StdRng {
        rng_for(21, RngStream::MediaSource)
    }

    /// The frames `enc` produces by `now` at `rate_bps`.
    fn encode<R: Rng + ?Sized>(
        enc: &mut VideoEncoder,
        now: SimTime,
        rate_bps: f64,
        rng: &mut R,
    ) -> Vec<VideoFrame> {
        let mut frames = Vec::new();
        enc.poll_into(now, rate_bps, rng, &mut frames);
        frames
    }

    #[test]
    fn produces_frames_at_nominal_rate() {
        let mut enc = VideoEncoder::new(EncoderConfig::default());
        let mut r = rng();
        let frames = encode(&mut enc, SimTime::from_secs(1), 2_000_000.0, &mut r);
        // ~30 fps over 1 s (inclusive of t=0).
        assert!((28..=32).contains(&frames.len()), "{}", frames.len());
    }

    /// Splits frames into keyframes and delta frames by size: delta frames
    /// vary ±15 % around the rate-derived mean, and keyframes are
    /// `keyframe_factor` (3.5×) larger, so twice the median separates them.
    fn split_keyframes(frames: &[VideoFrame]) -> (Vec<&VideoFrame>, Vec<&VideoFrame>) {
        let mut sizes: Vec<u32> = frames.iter().map(|f| f.size_bytes).collect();
        sizes.sort_unstable();
        let median = sizes[sizes.len() / 2];
        frames.iter().partition(|f| f.size_bytes > 2 * median)
    }

    #[test]
    fn frame_sizes_track_rate() {
        let mut enc = VideoEncoder::new(EncoderConfig::default());
        let mut r = rng();
        let frames = encode(&mut enc, SimTime::from_secs(10), 2_400_000.0, &mut r);
        let (_, delta) = split_keyframes(&frames);
        let mean = delta.iter().map(|f| f.size_bytes as f64).sum::<f64>() / delta.len() as f64;
        // 2.4 Mbit/s at 30 fps = 10 kB/frame.
        assert!((mean - 10_000.0).abs() < 1_500.0, "mean {mean}");
    }

    #[test]
    fn keyframes_are_periodic_and_big() {
        let cfg = EncoderConfig::default();
        let interval = cfg.keyframe_interval;
        let mut enc = VideoEncoder::new(cfg);
        let mut r = rng();
        let frames = encode(&mut enc, SimTime::from_secs(10), 1_500_000.0, &mut r);
        let (kf, _) = split_keyframes(&frames);
        assert!((3..=5).contains(&kf.len()), "{} keyframes", kf.len());
        assert_eq!(
            kf[0].capture_ts,
            SimTime::ZERO,
            "the first frame is a keyframe"
        );
        // Each keyframe is the first frame at least one interval after the
        // previous one.
        for pair in kf.windows(2) {
            let gap = pair[1].capture_ts.saturating_since(pair[0].capture_ts);
            assert!(
                gap >= interval && gap < interval + SimDuration::from_millis(100),
                "keyframe gap {gap:?}"
            );
        }
    }

    #[test]
    fn low_rate_drops_fps_then_resolution() {
        let mut enc = VideoEncoder::new(EncoderConfig::default());
        let mut r = rng();
        // Start healthy at 540p-capable rate.
        encode(&mut enc, SimTime::from_secs(5), 1_500_000.0, &mut r);
        let res_before = enc.resolution();
        // Starve: 300 kbit/s.
        encode(&mut enc, SimTime::from_secs(8), 300_000.0, &mut r);
        assert!(enc.fps() < 29.0, "fps should sag: {}", enc.fps());
        assert!(enc.resolution() < res_before, "resolution should step down");
    }

    #[test]
    fn recovers_resolution_with_hysteresis() {
        let mut enc = VideoEncoder::new(EncoderConfig::default());
        let mut r = rng();
        encode(&mut enc, SimTime::from_secs(3), 250_000.0, &mut r);
        let low = enc.resolution();
        assert_eq!(low, Resolution::R180p);
        // Rich rate for 5 s: should climb back up at least one rung.
        encode(&mut enc, SimTime::from_secs(8), 3_500_000.0, &mut r);
        assert!(enc.resolution() > low);
        assert!((enc.fps() - 30.0).abs() < 1.0);
    }

    #[test]
    fn respects_max_resolution() {
        let cfg = EncoderConfig {
            max_resolution: Resolution::R540p,
            ..Default::default()
        };
        let mut enc = VideoEncoder::new(cfg);
        let mut r = rng();
        encode(&mut enc, SimTime::from_secs(30), 10_000_000.0, &mut r);
        assert_eq!(enc.resolution(), Resolution::R540p);
    }

    #[test]
    fn audio_cadence() {
        let mut a = AudioSource::new();
        let mut pkts = Vec::new();
        a.poll_into(SimTime::from_secs(1), &mut pkts);
        assert_eq!(pkts.len(), 51); // t=0..=1000ms inclusive at 20 ms
        assert_eq!(pkts[1].capture_ts, SimTime::from_millis(20));
        assert_eq!(pkts[50].seq, 50);
    }
}
