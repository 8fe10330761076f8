//! Adaptive jitter buffers: video frame buffer and audio (NetEq-like)
//! buffer, with freeze and concealment accounting.
//!
//! "VCAs use an adaptive jitter buffer to mitigate delay variance ... it
//! expands during poor network conditions and contracts when latency is
//! stable" (paper §6.1). The playout delay target tracks a high percentile
//! of observed delay variation; when network delay outruns the buffer the
//! video freezes (Fig. 20) and audio is concealed (Fig. 4).

use std::collections::VecDeque;

use simcore::{SeqRing, SimDuration, SimTime};

/// Samples kept for the delay-variation percentile.
const JITTER_WINDOW: usize = 200;
/// Multiplier on the p95 delay variation when setting the target.
const JITTER_MULTIPLIER: f64 = 2.2;
/// Lower bound of the adaptive playout delay (ms).
const MIN_TARGET_MS: f64 = 40.0;
/// Upper bound of the adaptive playout delay (ms).
const MAX_TARGET_MS: f64 = 1_000.0;
/// Per-second downward drift of the playout delay when the network is calm.
const DECAY_MS_PER_S: f64 = 15.0;
/// Extra margin added when a late frame forces the buffer to grow (ms).
const LATE_MARGIN_MS: f64 = 20.0;

/// Tracks delay variation and produces the adaptive playout-delay target.
///
/// The last 200 delay variations are held twice: in arrival order,
/// which decides eviction, and sorted, so the p95 is read by index. A
/// sample costs two binary searches and two shifts of at most the window,
/// and never allocates once the window is full.
#[derive(Debug, Clone)]
pub struct PlayoutDelayEstimator {
    variations_ms: VecDeque<f64>,
    /// The same values as `variations_ms`, ascending.
    sorted_ms: Vec<f64>,
    min_delay_ms: f64,
    target_ms: f64,
    last_decay_at: Option<SimTime>,
}

impl Default for PlayoutDelayEstimator {
    fn default() -> Self {
        Self::new()
    }
}

impl PlayoutDelayEstimator {
    /// Creates an estimator at the minimum target.
    pub fn new() -> Self {
        PlayoutDelayEstimator {
            variations_ms: VecDeque::with_capacity(JITTER_WINDOW),
            sorted_ms: Vec::with_capacity(JITTER_WINDOW),
            min_delay_ms: f64::INFINITY,
            target_ms: MIN_TARGET_MS,
            last_decay_at: None,
        }
    }

    /// Feeds one observed network delay (transit time) sample.
    pub fn on_delay(&mut self, now: SimTime, delay_ms: f64) {
        self.min_delay_ms = self.min_delay_ms.min(delay_ms);
        // Never NaN and never -0.0, so equal values have equal bits and the
        // sorted window's order statistics are exact.
        let variation = (delay_ms - self.min_delay_ms).max(0.0);
        if self.variations_ms.len() == JITTER_WINDOW {
            let evicted = self.variations_ms.pop_front().expect("window is full");
            let at = self.sorted_ms.partition_point(|&v| v < evicted);
            self.sorted_ms.remove(at);
        }
        self.variations_ms.push_back(variation);
        let at = self.sorted_ms.partition_point(|&v| v < variation);
        self.sorted_ms.insert(at, variation);
        let p95 = self.sorted_ms[((self.sorted_ms.len() - 1) as f64 * 0.95) as usize];
        let desired = (p95 * JITTER_MULTIPLIER).clamp(MIN_TARGET_MS, MAX_TARGET_MS);

        if desired > self.target_ms {
            self.target_ms = desired; // grow fast
        } else {
            // shrink slowly
            let dt = self
                .last_decay_at
                .map(|t| now.saturating_since(t).as_secs_f64())
                .unwrap_or(0.0);
            self.target_ms = (self.target_ms - DECAY_MS_PER_S * dt)
                .max(desired)
                .max(MIN_TARGET_MS);
        }
        self.last_decay_at = Some(now);
    }

    /// A late media unit arrived `lateness_ms` after its playout deadline:
    /// grow the buffer immediately.
    pub(crate) fn on_late(&mut self, lateness_ms: f64) {
        self.target_ms =
            (self.target_ms + lateness_ms + LATE_MARGIN_MS).clamp(MIN_TARGET_MS, MAX_TARGET_MS);
    }

    /// Current playout-delay target (ms).
    pub fn target_ms(&self) -> f64 {
        self.target_ms
    }
}

// --------------------------------------------------------------------------
// Video
// --------------------------------------------------------------------------

#[derive(Debug, Clone)]
struct FrameAssembly {
    capture_ts: SimTime,
    packets_expected: u32,
    packets_received: u32,
    complete_at: Option<SimTime>,
}

/// Receiver-side adaptive video jitter buffer with freeze accounting.
#[derive(Debug, Clone)]
pub struct VideoJitterBuffer {
    /// Frames not yet rendered or skipped, by frame index; every key is at
    /// least `next_render_idx`.
    frames: SeqRing<FrameAssembly>,
    delay: PlayoutDelayEstimator,
    next_render_idx: u64,
    last_render_at: Option<SimTime>,
    avg_frame_interval_ms: f64,
    /// EWMA of buffer hold times — the "jitter buffer delay" stat; 0 while
    /// the buffer is drained.
    hold_ewma_ms: f64,
    freeze_active: bool,
    total_freeze_ms: f64,
    freeze_count: u64,
    frames_rendered_window: VecDeque<SimTime>,
}

impl Default for VideoJitterBuffer {
    fn default() -> Self {
        Self::new()
    }
}

impl VideoJitterBuffer {
    /// Creates an empty buffer.
    pub fn new() -> Self {
        VideoJitterBuffer {
            frames: SeqRing::new(),
            delay: PlayoutDelayEstimator::new(),
            next_render_idx: 0,
            last_render_at: None,
            avg_frame_interval_ms: 33.3,
            hold_ewma_ms: 0.0,
            freeze_active: false,
            total_freeze_ms: 0.0,
            freeze_count: 0,
            frames_rendered_window: VecDeque::new(),
        }
    }

    /// Registers arrival of one packet of a video frame.
    pub fn on_packet(
        &mut self,
        now: SimTime,
        frame_idx: u64,
        packets_in_frame: u32,
        capture_ts: SimTime,
    ) {
        if frame_idx < self.next_render_idx {
            return; // too late; frame already skipped
        }
        if self.frames.get(frame_idx).is_none() {
            self.frames.insert(
                frame_idx,
                FrameAssembly {
                    capture_ts,
                    packets_expected: packets_in_frame,
                    packets_received: 0,
                    complete_at: None,
                },
            );
        }
        let entry = self.frames.get_mut(frame_idx).expect("inserted above");
        entry.packets_received += 1;
        if entry.packets_received >= entry.packets_expected && entry.complete_at.is_none() {
            entry.complete_at = Some(now);
            let delay_ms = now.saturating_since(capture_ts).as_millis_f64();
            self.delay.on_delay(now, delay_ms);
        }
    }

    /// Advances playout to `now`: freeze accounting, the fps window and
    /// delay tracking see every frame rendered.
    pub fn advance(&mut self, now: SimTime) {
        self.render_due(now, |_| {});
    }

    /// Advances playout to `now`, handing the index of each rendered frame
    /// to `rendered`.
    ///
    /// A frame renders at `capture_ts + playout_target`, or immediately on
    /// completion if that deadline has passed (that lateness is a stall).
    fn render_due(&mut self, now: SimTime, mut rendered: impl FnMut(u64)) {
        loop {
            let Some(assembly) = self.frames.get(self.next_render_idx) else {
                // Next frame has no packets yet. Skip-ahead policy: if a
                // *later* complete frame exists and the missing frame's
                // deadline passed long ago, skip to it (decoder resync).
                let deadline_passed = self
                    .frames
                    .iter()
                    .find(|(_, a)| a.complete_at.is_some())
                    .map(|(idx, a)| {
                        let overdue = now.saturating_since(
                            a.capture_ts + SimDuration::from_secs_f64(self.delay.target_ms() / 1e3),
                        );
                        (idx, overdue > SimDuration::from_millis(120))
                    });
                match deadline_passed {
                    Some((idx, true)) if idx > self.next_render_idx => {
                        // Drop everything before idx.
                        for i in self.next_render_idx..idx {
                            self.frames.remove(i);
                        }
                        self.next_render_idx = idx;
                        continue;
                    }
                    _ => break,
                }
            };
            let Some(complete_at) = assembly.complete_at else {
                break; // head frame still assembling
            };
            let capture_ts = assembly.capture_ts;
            let target = SimDuration::from_secs_f64(self.delay.target_ms() / 1e3);
            let scheduled = capture_ts + target;
            let render_at = scheduled.max(complete_at);
            if render_at > now {
                break;
            }
            // Late completion = the buffer ran dry for this frame.
            if complete_at > scheduled {
                let lateness = complete_at.saturating_since(scheduled).as_millis_f64();
                self.delay.on_late(lateness);
                self.hold_ewma_ms = 0.0; // drained
            } else {
                let hold = render_at.saturating_since(complete_at).as_millis_f64();
                self.hold_ewma_ms = 0.9 * self.hold_ewma_ms + 0.1 * hold;
            }
            self.account_freeze(render_at);
            rendered(self.next_render_idx);
            self.frames.remove(self.next_render_idx);
            self.next_render_idx += 1;
        }
        // Freeze state between polls: if the next frame is overdue past the
        // freeze threshold, we are frozen right now.
        if let Some(last) = self.last_render_at {
            let gap = now.saturating_since(last).as_millis_f64();
            self.freeze_active = gap >= self.freeze_threshold_ms();
        }
    }

    fn freeze_threshold_ms(&self) -> f64 {
        // webrtc-stats freeze definition.
        (3.0 * self.avg_frame_interval_ms).max(self.avg_frame_interval_ms + 150.0)
    }

    fn account_freeze(&mut self, render_at: SimTime) {
        if let Some(last) = self.last_render_at {
            let gap = render_at.saturating_since(last).as_millis_f64();
            let thresh = self.freeze_threshold_ms();
            if gap >= thresh {
                self.freeze_count += 1;
                self.total_freeze_ms += gap - self.avg_frame_interval_ms;
            }
            self.avg_frame_interval_ms = 0.95 * self.avg_frame_interval_ms + 0.05 * gap.min(200.0);
        }
        self.last_render_at = Some(render_at);
        self.frames_rendered_window.push_back(render_at);
        while let Some(&front) = self.frames_rendered_window.front() {
            if render_at.saturating_since(front) > SimDuration::from_secs(1) {
                self.frames_rendered_window.pop_front();
            } else {
                break;
            }
        }
    }

    /// Rendered frame rate over the trailing second.
    pub(crate) fn rendered_fps(&self) -> f64 {
        self.frames_rendered_window.len() as f64
    }

    /// Current jitter-buffer delay stat (ms); 0 indicates a drained buffer.
    pub(crate) fn current_delay_ms(&self) -> f64 {
        self.hold_ewma_ms
    }

    /// The adaptive playout-delay target (the "minimum jitter buffer delay"
    /// the buffer will honour).
    pub(crate) fn target_delay_ms(&self) -> f64 {
        self.delay.target_ms()
    }

    /// Whether video is currently frozen.
    pub fn freeze_active(&self) -> bool {
        self.freeze_active
    }

    /// Cumulative freeze time (ms).
    pub fn total_freeze_ms(&self) -> f64 {
        self.total_freeze_ms
    }
}

// --------------------------------------------------------------------------
// Audio
// --------------------------------------------------------------------------

/// Samples per 20 ms audio frame at 48 kHz.
const SAMPLES_PER_PACKET: u64 = 960;

/// NetEq-like adaptive audio buffer with concealment accounting.
#[derive(Debug, Clone)]
pub struct AudioJitterBuffer {
    /// Arrival time by audio sequence number; every key is at least
    /// `next_play_seq`.
    packets: SeqRing<SimTime>,
    delay: PlayoutDelayEstimator,
    next_play_seq: u64,
    next_tick_at: Option<SimTime>,
    ptime: SimDuration,
    concealed_samples: u64,
    total_samples: u64,
    hold_ewma_ms: f64,
    started: bool,
}

impl Default for AudioJitterBuffer {
    fn default() -> Self {
        Self::new()
    }
}

impl AudioJitterBuffer {
    /// Creates an empty buffer with 20 ms ptime.
    pub fn new() -> Self {
        AudioJitterBuffer {
            packets: SeqRing::new(),
            delay: PlayoutDelayEstimator::new(),
            next_play_seq: 0,
            next_tick_at: None,
            ptime: SimDuration::from_millis(20),
            concealed_samples: 0,
            total_samples: 0,
            hold_ewma_ms: 0.0,
            started: false,
        }
    }

    /// Registers an arrived audio packet.
    pub fn on_packet(&mut self, now: SimTime, seq: u64, capture_ts: SimTime) {
        let delay_ms = now.saturating_since(capture_ts).as_millis_f64();
        self.delay.on_delay(now, delay_ms);
        if seq >= self.next_play_seq {
            self.packets.insert(seq, now);
        }
        if !self.started {
            self.started = true;
            self.next_play_seq = seq;
            self.next_tick_at =
                Some(now + SimDuration::from_secs_f64(self.delay.target_ms() / 1e3));
        }
    }

    /// Advances playout ticks to `now`. Each tick plays the next packet or
    /// conceals.
    pub fn poll(&mut self, now: SimTime) {
        let Some(mut tick) = self.next_tick_at else {
            return;
        };
        while tick <= now {
            self.total_samples += SAMPLES_PER_PACKET;
            match self.packets.remove(self.next_play_seq) {
                Some(arrival) => {
                    let hold = tick.saturating_since(arrival).as_millis_f64();
                    self.hold_ewma_ms = 0.9 * self.hold_ewma_ms + 0.1 * hold;
                }
                None => {
                    self.concealed_samples += SAMPLES_PER_PACKET;
                    self.hold_ewma_ms = 0.0; // drained
                    self.delay.on_late(self.ptime.as_millis_f64());
                }
            }
            self.next_play_seq += 1;
            tick += self.ptime;
        }
        self.next_tick_at = Some(tick);
    }

    /// Cumulative concealed samples.
    pub fn concealed_samples(&self) -> u64 {
        self.concealed_samples
    }

    /// Cumulative played samples (concealed + normal).
    pub(crate) fn total_samples(&self) -> u64 {
        self.total_samples
    }

    /// Current buffer-hold stat (ms); 0 indicates concealment/drain.
    pub(crate) fn current_delay_ms(&self) -> f64 {
        self.hold_ewma_ms
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn t(ms: u64) -> SimTime {
        SimTime::from_millis(ms)
    }

    /// The estimator before the sorted window: it copies the window into a
    /// fresh `Vec` and sorts all of it on every sample. Kept as the oracle
    /// [`PlayoutDelayEstimator`] must match bit for bit.
    struct SortOracle {
        variations_ms: VecDeque<f64>,
        min_delay_ms: f64,
        target_ms: f64,
        last_decay_at: Option<SimTime>,
    }

    impl SortOracle {
        fn new() -> Self {
            SortOracle {
                variations_ms: VecDeque::new(),
                min_delay_ms: f64::INFINITY,
                target_ms: MIN_TARGET_MS,
                last_decay_at: None,
            }
        }

        fn on_delay(&mut self, now: SimTime, delay_ms: f64) {
            self.min_delay_ms = self.min_delay_ms.min(delay_ms);
            let variation = (delay_ms - self.min_delay_ms).max(0.0);
            self.variations_ms.push_back(variation);
            if self.variations_ms.len() > JITTER_WINDOW {
                self.variations_ms.pop_front();
            }
            let mut sorted: Vec<f64> = self.variations_ms.iter().copied().collect();
            sorted.sort_by(|a, b| a.partial_cmp(b).expect("finite"));
            let p95 = sorted[((sorted.len() - 1) as f64 * 0.95) as usize];
            let desired = (p95 * JITTER_MULTIPLIER).clamp(MIN_TARGET_MS, MAX_TARGET_MS);
            if desired > self.target_ms {
                self.target_ms = desired;
            } else {
                let dt = self
                    .last_decay_at
                    .map(|t| now.saturating_since(t).as_secs_f64())
                    .unwrap_or(0.0);
                self.target_ms = (self.target_ms - DECAY_MS_PER_S * dt)
                    .max(desired)
                    .max(MIN_TARGET_MS);
            }
            self.last_decay_at = Some(now);
        }

        fn on_late(&mut self, lateness_ms: f64) {
            self.target_ms =
                (self.target_ms + lateness_ms + LATE_MARGIN_MS).clamp(MIN_TARGET_MS, MAX_TARGET_MS);
        }
    }

    /// Random runs longer than two windows, mixing the shapes that stress
    /// an order-statistic window — repeated values, zero variation,
    /// monotone ramps, new minima, interleaved `on_late` calls and
    /// irregular clock steps — must give the oracle's target to the bit
    /// after every call.
    #[test]
    fn sorted_window_matches_sort_oracle_bit_for_bit() {
        let mut rng = StdRng::seed_from_u64(0x5157_0a7e);
        for case in 0..96 {
            let mut est = PlayoutDelayEstimator::new();
            let mut oracle = SortOracle::new();
            let mut now_us = 0u64;
            let mut ramp_ms = 30.0;
            let calls = rng.gen_range(2 * JITTER_WINDOW + 1..6 * JITTER_WINDOW);
            for call in 0..calls {
                now_us += match rng.gen_range(0u8..4) {
                    0 => 0,
                    1 => 1,
                    2 => 20_000,
                    _ => rng.gen_range(0u64..2_000_000),
                };
                let now = SimTime::from_micros(now_us);
                let delay_ms = match rng.gen_range(0u8..6) {
                    // A handful of exact repeats, one of them the minimum.
                    0 => [20.0, 20.0, 35.5, 80.0][rng.gen_range(0usize..4)],
                    1 => oracle.min_delay_ms.min(20.0),
                    2 => {
                        ramp_ms += 0.25;
                        ramp_ms
                    }
                    3 => {
                        ramp_ms = (ramp_ms - 0.25f64).max(0.0);
                        ramp_ms
                    }
                    4 => rng.gen_range(0.0..400.0),
                    _ => {
                        let lateness = rng.gen_range(0.0..60.0);
                        est.on_late(lateness);
                        oracle.on_late(lateness);
                        assert_eq!(
                            est.target_ms().to_bits(),
                            oracle.target_ms.to_bits(),
                            "case {case} call {call}: on_late({lateness})"
                        );
                        continue;
                    }
                };
                est.on_delay(now, delay_ms);
                oracle.on_delay(now, delay_ms);
                assert_eq!(
                    est.target_ms().to_bits(),
                    oracle.target_ms.to_bits(),
                    "case {case} call {call}: on_delay({now_us} us, {delay_ms})"
                );
            }
        }
    }

    /// `Default` is `new()`: an infinite minimum, so the first sample is
    /// zero variation and the target stays at the floor.
    #[test]
    fn default_estimator_equals_new() {
        let mut def = PlayoutDelayEstimator::default();
        let mut new = PlayoutDelayEstimator::new();
        assert_eq!(def.target_ms(), MIN_TARGET_MS);
        for (i, delay_ms) in [50.0, 62.0, 50.0, 140.0].into_iter().enumerate() {
            def.on_delay(t(i as u64 * 20), delay_ms);
            new.on_delay(t(i as u64 * 20), delay_ms);
            assert_eq!(def.target_ms().to_bits(), new.target_ms().to_bits());
        }
    }

    /// The indices of the frames `jb` renders by `now`.
    fn render(jb: &mut VideoJitterBuffer, now: SimTime) -> Vec<u64> {
        let mut frames = Vec::new();
        jb.render_due(now, |idx| frames.push(idx));
        frames
    }

    #[test]
    fn steady_video_renders_at_source_rate_without_freezes() {
        let mut jb = VideoJitterBuffer::new();
        let mut rendered = 0;
        for i in 0..150u64 {
            let cap = t(i * 33);
            jb.on_packet(t(i * 33 + 40), i, 1, cap);
            rendered += render(&mut jb, t(i * 33 + 41)).len();
        }
        rendered += render(&mut jb, t(6000)).len();
        assert!(rendered >= 145, "rendered {rendered}");
        assert_eq!(jb.freeze_count, 0);
        assert!(jb.total_freeze_ms() == 0.0);
        // ~30 fps over the trailing window while streaming.
        assert!(jb.rendered_fps() >= 1.0);
    }

    #[test]
    fn delay_surge_drains_buffer_and_freezes() {
        let mut jb = VideoJitterBuffer::new();
        // 3 s of healthy delivery with mild (≤12 ms) delay variation, so the
        // adaptive target settles slightly above the delay and frames are
        // held briefly.
        for i in 0..90u64 {
            jb.on_packet(t(i * 33 + 40 + (i % 5) * 3), i, 1, t(i * 33));
            jb.advance(t(i * 33 + 60));
        }
        assert!(jb.current_delay_ms() > 0.0);
        // Delay surge: frames 90..105 arrive 400 ms late.
        for i in 90..105u64 {
            jb.on_packet(t(i * 33 + 400), i, 1, t(i * 33));
            jb.advance(t(i * 33 + 401));
        }
        jb.advance(t(105 * 33 + 500));
        assert!(jb.freeze_count > 0, "surge must freeze video");
        assert!(jb.total_freeze_ms() > 100.0);
        // Buffer target grew to absorb the new delay level.
        assert!(jb.target_delay_ms() > 100.0);
    }

    #[test]
    fn multi_packet_frames_need_all_packets() {
        let mut jb = VideoJitterBuffer::new();
        jb.on_packet(t(40), 0, 3, t(0));
        jb.on_packet(t(42), 0, 3, t(0));
        assert!(
            render(&mut jb, t(200)).is_empty(),
            "incomplete frame must not render"
        );
        jb.on_packet(t(250), 0, 3, t(0));
        assert_eq!(render(&mut jb, t(260)), [0]);
    }

    #[test]
    fn skips_missing_frame_after_timeout() {
        let mut jb = VideoJitterBuffer::new();
        // Frame 0 never arrives; frame 1 complete.
        jb.on_packet(t(40), 1, 1, t(33));
        assert_eq!(render(&mut jb, t(400)), [1], "must eventually skip ahead");
    }

    /// A late frame that completes after the buffer skipped past several
    /// missing ones: the skip drops every assembling frame below the
    /// complete one, and packets of dropped frames are ignored afterwards.
    #[test]
    fn skip_ahead_drops_every_earlier_frame() {
        let mut jb = VideoJitterBuffer::new();
        jb.on_packet(t(40), 1, 2, t(33)); // frame 1 never completes
        jb.on_packet(t(80), 3, 1, t(66));
        assert_eq!(render(&mut jb, t(500)), [3]);
        assert!(jb.frames.first().is_none());
        jb.on_packet(t(510), 1, 2, t(33));
        jb.on_packet(t(511), 2, 1, t(50));
        assert!(
            jb.frames.first().is_none(),
            "frames behind the playout point"
        );
        jb.on_packet(t(520), 4, 1, t(99));
        assert_eq!(render(&mut jb, t(1_000)), [4]);
    }

    #[test]
    fn audio_conceals_gaps() {
        let mut ab = AudioJitterBuffer::new();
        // Deliver 50 packets, drop seq 20..25.
        for seq in 0..50u64 {
            if !(20..25).contains(&seq) {
                ab.on_packet(t(seq * 20 + 30), seq, t(seq * 20));
            }
        }
        ab.poll(t(2_000));
        assert!(
            ab.concealed_samples() >= 5 * 960,
            "{}",
            ab.concealed_samples()
        );
        assert!(ab.total_samples() > ab.concealed_samples());
    }

    #[test]
    fn audio_target_grows_under_jitter() {
        let mut ab = AudioJitterBuffer::new();
        let calm_target = {
            let mut calm = AudioJitterBuffer::new();
            for seq in 0..200u64 {
                calm.on_packet(t(seq * 20 + 10), seq, t(seq * 20));
                calm.poll(t(seq * 20 + 11));
            }
            calm.delay.target_ms()
        };
        for seq in 0..200u64 {
            let jitter = (seq % 7) * 25; // up to 150 ms swing
            ab.on_packet(t(seq * 20 + 10 + jitter), seq, t(seq * 20));
            ab.poll(t(seq * 20 + 11 + jitter));
        }
        assert!(
            ab.delay.target_ms() > calm_target + 30.0,
            "jittery {} vs calm {}",
            ab.delay.target_ms(),
            calm_target
        );
    }

    #[test]
    fn playout_estimator_decays_slowly() {
        let mut est = PlayoutDelayEstimator::new();
        // A burst of high-variation samples, then calm.
        est.on_delay(t(0), 20.0);
        for i in 0..20 {
            est.on_delay(t(10 + i * 10), 200.0);
        }
        let high = est.target_ms();
        assert!(high > 100.0, "high {high}");
        // Enough calm samples to expire the spike from the percentile
        // window; the target then drifts down at the slow decay rate.
        for i in 0..400u64 {
            est.on_delay(t(1000 + i * 20), 20.0);
        }
        let later = est.target_ms();
        assert!(later < high, "target should decay: {later} < {high}");
        assert!(later >= MIN_TARGET_MS);
    }
}
