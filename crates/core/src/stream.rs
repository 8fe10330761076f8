//! The sliding-window analysis engine.
//!
//! The [`StreamingAnalyzer`] ingests records once, in timestamp order, and
//! maintains rolling window state — monotonic min/max deques for the
//! frame-rate conditions, rolling counters and adjacent-pair counts for the
//! other app and playback conditions, rolling 100 ms packet bins — so each
//! step costs O(records entering/leaving the window) plus a small
//! evaluation pass over pre-filtered per-feature series. It is the only
//! engine: [`Domino::analyze`](crate::Domino::analyze) runs it over a
//! recorded bundle, and `domino-live` feeds it during a call.
//!
//! The DCI stream's state (Table 5 rows 13–20) lives in one ring of 100 ms
//! bins. Each bin keeps its PRB sums, its HARQ, first-transmission and
//! uplink counts, its first-transmission TBS sum and first-occurrence
//! extrema, and its RNTI changes; a pushed record touches one bin, window
//! totals are added on push and subtracted per expired bin, and rows 13, 14
//! and 20 fold or read the bins. Row 16's MCS group medians come from
//! counts over the `u8` MCS values: each finished group keeps its median,
//! the open group its value counts, and the window's p90 and low-MCS count
//! walk the medians' counts in value order, with no sort.
//!
//! Its reference is the batch oracle, which rescans all five telemetry
//! streams for each window position (≈ W/Δt times the necessary work) and
//! exists only for tests. Output is **bit-identical to the oracle**: the
//! tests in this module and `tests/streaming_equivalence.rs` enforce it
//! window by window.
//!
//! Exactness contract: the binned conditions (Table 5 rows 14 and 16) bin
//! time relative to the window start, and the DCI ring expires whole bins,
//! so rolling bins reproduce the oracle only when every window start falls
//! on a bin boundary. [`StreamingAnalyzer::new`] and
//! [`Domino::try_new`](crate::Domino::try_new) therefore reject a
//! configuration unless `warmup`, `step` and `window` are multiples of the
//! bin granule (the LCM of the 100 ms rate bin and the configured MCS
//! group), the step is positive, and the MCS group is positive, and
//! [`StreamingAnalyzer::emit`] checks each window start against the granule
//! in debug builds. The paper's configuration (W = 5 s, Δt = 0.5 s, warmup
//! 3 s, 50 ms MCS groups) conforms. The binned sums stay exact because
//! integer sums do not depend on order, each bin's `f64` TBS sum adds in
//! push order as the oracle's does, and counting orders the integer MCS
//! values exactly.

use std::collections::VecDeque;

use simcore::{SimDuration, SimTime};
use telemetry::{
    AppStatsRecord, DciRecord, Direction, GccNetworkState, GnbEvent, GnbLogRecord, PacketRecord,
    PlaybackStatsRecord, Resolution, StreamKind, TraceBundle,
};

use crate::codegen::{compile, DetectionProgram};
use crate::detect::{Analysis, DominoConfig, Thresholds, WindowAnalysis};
use crate::features::RanEvent;
use crate::features::{AppEvent, ClientSide, Feature, FeatureVector, PlaybackEvent};
use crate::graph::CausalGraph;

/// Width of the rate-comparison bins of Table 5 row 14, µs.
const BIN_US: u64 = 100_000;

/// Which rule of the [`DominoConfig`] contract a configuration breaks.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum UnsupportedConfig {
    /// `thresholds.mcs_group_ms` is zero: MCS groups would have no width.
    ZeroMcsGroup,
    /// `step` is zero: the window would never advance.
    ZeroStep,
    /// `warmup`, `step` or `window` is not a multiple of the bin granule.
    Unaligned {
        /// The field that breaks the rule: `"warmup"`, `"step"` or `"window"`.
        field: &'static str,
        /// Its value, µs.
        value_us: u64,
        /// The granule it must be a multiple of (the LCM of the 100 ms rate
        /// bin and the MCS group), µs.
        granule_us: u64,
    },
}

impl std::fmt::Display for UnsupportedConfig {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            UnsupportedConfig::ZeroMcsGroup => {
                write!(f, "thresholds.mcs_group_ms must be positive, got 0")
            }
            UnsupportedConfig::ZeroStep => write!(f, "step must be positive, got 0 µs"),
            UnsupportedConfig::Unaligned {
                field,
                value_us,
                granule_us,
            } => write!(
                f,
                "{field} must be a multiple of the {granule_us} µs bin granule, got {value_us} µs"
            ),
        }
    }
}

impl std::error::Error for UnsupportedConfig {}

/// The granule every window start and length must be a multiple of: the
/// LCM of the 100 ms rate bin and the `group_us` MCS group, µs.
fn granule_us(group_us: u64) -> u64 {
    let (mut a, mut b) = (BIN_US, group_us);
    while b != 0 {
        (a, b) = (b, a % b);
    }
    BIN_US / a * group_us
}

/// The one check of the [`DominoConfig`] contract, shared by
/// [`StreamingAnalyzer::new`] and [`Domino::try_new`](crate::Domino::try_new).
pub(crate) fn check_config(cfg: &DominoConfig) -> Result<(), UnsupportedConfig> {
    let group_ms = cfg.thresholds.mcs_group_ms;
    if group_ms == 0 {
        return Err(UnsupportedConfig::ZeroMcsGroup);
    }
    if cfg.step == SimDuration::ZERO {
        return Err(UnsupportedConfig::ZeroStep);
    }
    let granule_us = granule_us(group_ms * 1000);
    for (field, d) in [
        ("warmup", cfg.warmup),
        ("step", cfg.step),
        ("window", cfg.window),
    ] {
        let value_us = d.as_micros();
        if !value_us.is_multiple_of(granule_us) {
            return Err(UnsupportedConfig::Unaligned {
                field,
                value_us,
                granule_us,
            });
        }
    }
    Ok(())
}

// ---------------------------------------------------------------------------
// Rolling building blocks
// ---------------------------------------------------------------------------

/// Sliding min/max with first-occurrence order, via monotonic deques.
///
/// `push` keeps the max deque non-increasing and the min deque
/// non-decreasing while preserving the earliest occurrence of each extreme,
/// which is exactly the "first index attaining the extreme" the oracle's
/// frame-rate conditions (Table 5 rows 1–2) compute.
#[derive(Debug, Clone, Default)]
struct MinMaxWindow {
    max: VecDeque<(u64, SimTime, f64)>,
    min: VecDeque<(u64, SimTime, f64)>,
    next_seq: u64,
}

impl MinMaxWindow {
    fn push(&mut self, ts: SimTime, v: f64) {
        let seq = self.next_seq;
        self.next_seq += 1;
        while self.max.back().is_some_and(|&(_, _, b)| b < v) {
            self.max.pop_back();
        }
        self.max.push_back((seq, ts, v));
        while self.min.back().is_some_and(|&(_, _, b)| b > v) {
            self.min.pop_back();
        }
        self.min.push_back((seq, ts, v));
    }

    fn expire(&mut self, from: SimTime) {
        while self.max.front().is_some_and(|&(_, ts, _)| ts < from) {
            self.max.pop_front();
        }
        while self.min.front().is_some_and(|&(_, ts, _)| ts < from) {
            self.min.pop_front();
        }
    }

    /// `(first_max_seq, max, first_min_seq, min)` of the live window.
    fn extrema(&self) -> Option<(u64, f64, u64, f64)> {
        let &(max_seq, _, max_v) = self.max.front()?;
        let &(min_seq, _, min_v) = self.min.front()?;
        Some((max_seq, max_v, min_seq, min_v))
    }

    fn clear(&mut self) {
        self.max.clear();
        self.min.clear();
        self.next_seq = 0;
    }
}

/// Rolling per-bin `f64` sums keyed by absolute bin index.
#[derive(Debug, Clone, Default)]
struct RollingBins {
    base: u64,
    bins: VecDeque<f64>,
}

impl RollingBins {
    fn add(&mut self, bin: u64, v: f64) {
        if self.bins.is_empty() {
            self.base = bin;
        }
        debug_assert!(bin >= self.base, "bins must fill in time order");
        while self.base + self.bins.len() as u64 <= bin {
            self.bins.push_back(0.0);
        }
        self.bins[(bin - self.base) as usize] += v;
    }

    fn expire(&mut self, first_kept: u64) {
        while self.base < first_kept && !self.bins.is_empty() {
            self.bins.pop_front();
            self.base += 1;
        }
        if self.bins.is_empty() && self.base < first_kept {
            self.base = first_kept;
        }
    }

    fn get(&self, bin: u64) -> f64 {
        if bin < self.base {
            return 0.0;
        }
        self.bins
            .get((bin - self.base) as usize)
            .copied()
            .unwrap_or(0.0)
    }

    fn clear(&mut self) {
        self.base = 0;
        self.bins.clear();
    }
}

/// The value at 0-based `rank` of the sorted multiset of MCS values whose
/// counts `count` gives per value; `u8::MAX` if the multiset is smaller.
fn mcs_at_rank(rank: usize, count: impl Fn(u8) -> usize) -> u8 {
    let mut seen = 0;
    for v in 0..=u8::MAX {
        seen += count(v);
        if seen > rank {
            return v;
        }
    }
    u8::MAX
}

/// Row 16's state for one direction: the median of every finished MCS
/// group in the window, and the value counts of the open (newest) group.
///
/// A group is a run of `mcs_group_ms` of target-UE DCI. Its median is the
/// value at rank `len / 2`, which counting over the `u8` MCS values finds
/// exactly as the oracle's sort does. A group is finished once a record of
/// a later group arrives; its median never changes after that, so only the
/// open group keeps counts.
#[derive(Debug, Clone)]
struct McsGroups {
    /// `(group index, median)` of each finished non-empty group, oldest first.
    medians: VecDeque<(u64, u8)>,
    /// How many of `medians` hold each MCS value.
    median_counts: [usize; 256],
    /// Index of the open group; it holds `open_len` records.
    open: u64,
    open_len: usize,
    /// How many of the open group's records hold each MCS value. Only
    /// `lo..=hi` can be non-zero.
    open_counts: [usize; 256],
    lo: u8,
    hi: u8,
}

impl Default for McsGroups {
    fn default() -> Self {
        McsGroups {
            medians: VecDeque::new(),
            median_counts: [0; 256],
            open: 0,
            open_len: 0,
            open_counts: [0; 256],
            lo: 0,
            hi: 0,
        }
    }
}

impl McsGroups {
    /// Counts one target-UE record of `group`. A record behind the open
    /// group breaks the push-order contract; its group is already
    /// finished, so the record is dropped.
    fn push(&mut self, group: u64, mcs: u8) {
        if self.open_len > 0 && group != self.open {
            debug_assert!(
                group > self.open,
                "DCI record of MCS group {group} behind the open group {}",
                self.open
            );
            if group < self.open {
                return;
            }
            let median = self.open_median();
            self.medians.push_back((self.open, median));
            self.median_counts[median as usize] += 1;
            self.discard_open();
        }
        if self.open_len == 0 {
            self.open = group;
            (self.lo, self.hi) = (mcs, mcs);
        }
        self.open_counts[mcs as usize] += 1;
        self.open_len += 1;
        self.lo = self.lo.min(mcs);
        self.hi = self.hi.max(mcs);
    }

    /// The open group's median; meaningful while `open_len > 0`.
    fn open_median(&self) -> u8 {
        mcs_at_rank(self.open_len / 2, |v| self.open_counts[v as usize])
    }

    fn discard_open(&mut self) {
        self.open_counts[self.lo as usize..=self.hi as usize].fill(0);
        self.open_len = 0;
    }

    fn expire(&mut self, first_kept: u64) {
        while let Some(&(g, m)) = self.medians.front() {
            if g >= first_kept {
                break;
            }
            self.medians.pop_front();
            self.median_counts[m as usize] -= 1;
        }
        if self.open_len > 0 && self.open < first_kept {
            self.discard_open();
        }
    }

    /// Row 16 over the window's group medians, the open group's included:
    /// their p90 is below `mcs_p90_below` and more than `mcs_low_count` of
    /// them are below `mcs_low_value`. Walks the median counts in value
    /// order, which is the oracle's sort.
    fn channel_degrades(&self, th: &Thresholds) -> bool {
        let open = (self.open_len > 0).then(|| self.open_median());
        let n = self.medians.len() + open.is_some() as usize;
        if n < 4 {
            return false;
        }
        let count = |v: u8| self.median_counts[v as usize] + (open == Some(v)) as usize;
        let p90 = mcs_at_rank(((n - 1) as f64 * 0.9) as usize, count);
        let low: usize = (0..=u8::MAX)
            .take_while(|&v| (v as f64) < th.mcs_low_value)
            .map(count)
            .sum();
        (p90 as f64) < th.mcs_p90_below && low > th.mcs_low_count
    }

    fn clear(&mut self) {
        self.medians.clear();
        self.median_counts = [0; 256];
        self.discard_open();
    }
}

/// The per-sample facts the app-event conditions need, precomputed at ingest.
#[derive(Debug, Clone, Copy)]
struct AppEntry {
    ts: SimTime,
    drain: bool,
    overuse: bool,
    cwnd_full: bool,
    pushback_neq_target: bool,
    resolution: Resolution,
    target_bitrate_bps: f64,
    pushback_rate_bps: f64,
    outstanding: f64,
}

/// Rolling state for one client's app-stats stream.
#[derive(Debug, Clone, Default)]
struct AppWindow {
    entries: VecDeque<AppEntry>,
    drain_count: usize,
    overuse_count: usize,
    cwnd_full_count: usize,
    neq_count: usize,
    res_down_pairs: usize,
    target_down_pairs: usize,
    pushback_down_pairs: usize,
    inbound_fps: MinMaxWindow,
    outbound_fps: MinMaxWindow,
}

fn target_drops(prev: &AppEntry, next: &AppEntry, eps: f64) -> bool {
    next.target_bitrate_bps < prev.target_bitrate_bps * (1.0 - eps)
}

fn pushback_drops(prev: &AppEntry, next: &AppEntry, eps: f64) -> bool {
    next.pushback_rate_bps < prev.pushback_rate_bps * (1.0 - eps)
}

impl AppWindow {
    fn push(&mut self, s: &AppStatsRecord, th: &Thresholds) {
        let e = AppEntry {
            ts: s.ts,
            drain: s.video_jitter_buffer_ms <= th.drain_level_ms && s.inbound_fps > 0.0,
            overuse: s.gcc_state == GccNetworkState::Overuse,
            cwnd_full: s.outstanding_bytes > s.cwnd_bytes,
            pushback_neq_target: (s.pushback_rate_bps - s.target_bitrate_bps).abs()
                > th.rate_drop_epsilon * s.target_bitrate_bps,
            resolution: s.outbound_resolution,
            target_bitrate_bps: s.target_bitrate_bps,
            pushback_rate_bps: s.pushback_rate_bps,
            outstanding: s.outstanding_bytes as f64,
        };
        self.drain_count += e.drain as usize;
        self.overuse_count += e.overuse as usize;
        self.cwnd_full_count += e.cwnd_full as usize;
        self.neq_count += e.pushback_neq_target as usize;
        if let Some(prev) = self.entries.back() {
            self.res_down_pairs += (e.resolution < prev.resolution) as usize;
            self.target_down_pairs += target_drops(prev, &e, th.rate_drop_epsilon) as usize;
            self.pushback_down_pairs += pushback_drops(prev, &e, th.rate_drop_epsilon) as usize;
        }
        self.inbound_fps.push(s.ts, s.inbound_fps);
        self.outbound_fps.push(s.ts, s.outbound_fps);
        self.entries.push_back(e);
    }

    fn expire(&mut self, from: SimTime, th: &Thresholds) {
        while self.entries.front().is_some_and(|e| e.ts < from) {
            let e = self.entries.pop_front().expect("non-empty");
            self.drain_count -= e.drain as usize;
            self.overuse_count -= e.overuse as usize;
            self.cwnd_full_count -= e.cwnd_full as usize;
            self.neq_count -= e.pushback_neq_target as usize;
            if let Some(next) = self.entries.front() {
                self.res_down_pairs -= (next.resolution < e.resolution) as usize;
                self.target_down_pairs -= target_drops(&e, next, th.rate_drop_epsilon) as usize;
                self.pushback_down_pairs -= pushback_drops(&e, next, th.rate_drop_epsilon) as usize;
            }
        }
        self.inbound_fps.expire(from);
        self.outbound_fps.expire(from);
    }

    /// Evaluates one app event exactly as the oracle's `app_event` does.
    fn event(&self, e: AppEvent, th: &Thresholds) -> bool {
        if self.entries.len() < 2 {
            return false;
        }
        match e {
            AppEvent::InboundFramerateDown => framerate_down(&self.inbound_fps, th),
            AppEvent::OutboundFramerateDown => framerate_down(&self.outbound_fps, th),
            AppEvent::OutboundResolutionDown => self.res_down_pairs > 0,
            AppEvent::JitterBufferDrain => self.drain_count > 0,
            AppEvent::TargetBitrateDown => self.target_down_pairs > 0,
            AppEvent::GccOveruse => self.overuse_count > 0,
            AppEvent::PushbackRateDown => self.pushback_down_pairs > 0,
            AppEvent::CwndFull => self.cwnd_full_count > 0,
            AppEvent::OutstandingBytesUp => rising_windowed_means(
                self.entries.iter().map(|e| e.outstanding),
                th.trend_subwindow,
                |prev, mean| mean > prev * 1.05 && mean > 1000.0,
            ),
            AppEvent::PushbackNeqTarget => self.neq_count > 0,
        }
    }

    fn clear(&mut self) {
        self.entries.clear();
        self.drain_count = 0;
        self.overuse_count = 0;
        self.cwnd_full_count = 0;
        self.neq_count = 0;
        self.res_down_pairs = 0;
        self.target_down_pairs = 0;
        self.pushback_down_pairs = 0;
        self.inbound_fps.clear();
        self.outbound_fps.clear();
    }
}

/// The per-sample facts the playback conditions need, precomputed at ingest.
#[derive(Debug, Clone, Copy)]
struct PlaybackEntry {
    ts: SimTime,
    buffer_low: bool,
    stalled: bool,
    target_rung: u8,
}

/// Rolling state for the ABR playback stream (rows 21–24), mirroring
/// [`AppWindow`]'s counter/pair-count discipline so the streaming path stays
/// bit-identical to the oracle's `playback_event` conditions.
#[derive(Debug, Clone, Default)]
struct PlaybackWindow {
    entries: VecDeque<PlaybackEntry>,
    buffer_low_count: usize,
    stall_count: usize,
    rung_down_pairs: usize,
    rung_change_pairs: usize,
}

impl PlaybackWindow {
    fn push(&mut self, s: &PlaybackStatsRecord, th: &Thresholds) {
        let e = PlaybackEntry {
            ts: s.ts,
            buffer_low: s.started && s.buffer_ms < th.playback_buffer_low_ms,
            stalled: s.stalled,
            target_rung: s.target_rung,
        };
        self.buffer_low_count += e.buffer_low as usize;
        self.stall_count += e.stalled as usize;
        if let Some(prev) = self.entries.back() {
            self.rung_down_pairs += (e.target_rung < prev.target_rung) as usize;
            self.rung_change_pairs += (e.target_rung != prev.target_rung) as usize;
        }
        self.entries.push_back(e);
    }

    fn expire(&mut self, from: SimTime) {
        while self.entries.front().is_some_and(|e| e.ts < from) {
            let e = self.entries.pop_front().expect("non-empty");
            self.buffer_low_count -= e.buffer_low as usize;
            self.stall_count -= e.stalled as usize;
            if let Some(next) = self.entries.front() {
                self.rung_down_pairs -= (next.target_rung < e.target_rung) as usize;
                self.rung_change_pairs -= (next.target_rung != e.target_rung) as usize;
            }
        }
    }

    /// Evaluates one playback event exactly as the oracle's
    /// `playback_event` does.
    fn event(&self, e: PlaybackEvent, th: &Thresholds) -> bool {
        if self.entries.len() < 2 {
            return false;
        }
        match e {
            PlaybackEvent::BufferLow => self.buffer_low_count > 0,
            PlaybackEvent::Stall => self.stall_count > 0,
            PlaybackEvent::LadderSwitchDown => self.rung_down_pairs > 0,
            PlaybackEvent::LadderOscillation => self.rung_change_pairs > th.ladder_switch_count,
        }
    }

    fn clear(&mut self) {
        self.entries.clear();
        self.buffer_low_count = 0;
        self.stall_count = 0;
        self.rung_down_pairs = 0;
        self.rung_change_pairs = 0;
    }
}

/// Rows 1–2 on rolling extrema: max > high, min < low, max strictly first.
fn framerate_down(w: &MinMaxWindow, th: &Thresholds) -> bool {
    match w.extrema() {
        Some((max_seq, max_v, min_seq, min_v)) => {
            max_v > th.framerate_high && min_v < th.framerate_low && max_seq < min_seq
        }
        None => false,
    }
}

/// Streaming equivalent of `windowed_means(values, sub).windows(2).any(pred)`:
/// one pass, no allocation, identical f64 accumulation order.
fn rising_windowed_means(
    values: impl Iterator<Item = f64>,
    sub: usize,
    pred: impl Fn(f64, f64) -> bool,
) -> bool {
    let sub = sub.max(1);
    let mut prev: Option<f64> = None;
    let mut acc = 0.0;
    let mut n = 0usize;
    for v in values {
        acc += v;
        n += 1;
        if n == sub {
            let mean = acc / sub as f64;
            if let Some(p) = prev {
                if pred(p, mean) {
                    return true;
                }
            }
            prev = Some(mean);
            acc = 0.0;
            n = 0;
        }
    }
    false
}

/// The chunk predicate of the oracle's `delay_uptrend` (rows 11–12): a later
/// sub-window mean exceeding the previous one by 5 %.
fn delay_pair_rises(prev: f64, mean: f64) -> bool {
    mean > prev * 1.05
}

/// One chunk-phase of a [`DelaySeries`]: the rolling means of the partition
/// whose chunk starts are ≡ `p` (mod `sub`) in global record index.
#[derive(Debug, Clone, Default)]
struct DelayPhase {
    /// Completed chunk means in partition order: `(start_index, mean)`.
    /// Consecutive entries' starts differ by exactly `sub`.
    means: VecDeque<(u64, f64)>,
    /// Adjacent pairs in `means` satisfying [`delay_pair_rises`].
    rising_pairs: usize,
}

impl DelayPhase {
    fn push_mean(&mut self, start: u64, mean: f64) {
        if let Some(&(_, prev)) = self.means.back() {
            self.rising_pairs += delay_pair_rises(prev, mean) as usize;
        }
        self.means.push_back((start, mean));
    }

    fn expire(&mut self, first_kept: u64) {
        while self.means.front().is_some_and(|&(s, _)| s < first_kept) {
            let (_, old) = self.means.pop_front().expect("non-empty");
            if let Some(&(_, next)) = self.means.front() {
                self.rising_pairs -= delay_pair_rises(old, next) as usize;
            }
        }
    }

    fn clear(&mut self) {
        self.means.clear();
        self.rising_pairs = 0;
    }
}

/// Rolling state for one of the four delay series (direction × RTCP-or-media).
///
/// The uptrend condition partitions the window's delays into chunks of
/// `trend_subwindow` **records** anchored at the window's first record, so
/// the chunk boundaries shift with every expiry — a naive incremental cache
/// keyed on one anchor is useless. Instead the series maintains all `sub`
/// possible partitions ("phases") at once: each pushed delay feeds every
/// phase's open-chunk accumulator (O(sub) per record, amortized constant),
/// completed chunk means land in per-phase deques with a rolling count of
/// rising adjacent pairs, and evaluating a window is O(1) — pick the phase
/// the current front index selects and read its pair count. Chunk means are
/// accumulated in exactly the oracle's order (sequential adds from 0.0, one
/// division by `sub`), so the equivalence with `delay_uptrend` is
/// bit-exact; `tests/streaming_equivalence.rs` fuzzes precisely the
/// boundary-shift cases.
#[derive(Debug, Clone, Default)]
struct DelaySeries {
    /// `(sent, delay_ms)` of delivered packets, in send order.
    delays: VecDeque<(SimTime, f64)>,
    above_floor: usize,
    /// Chunk length (`trend_subwindow.max(1)`), fixed at analyzer creation.
    sub: usize,
    /// Global index of `delays.front()`.
    base_idx: u64,
    /// One partition per chunk-start residue (`sub` entries).
    phases: Vec<DelayPhase>,
}

impl DelaySeries {
    /// Sets the chunk length and allocates the phase partitions.
    fn configure(&mut self, sub: usize) {
        self.sub = sub.max(1);
        self.phases = vec![DelayPhase::default(); self.sub];
    }

    fn push(&mut self, sent: SimTime, delay_ms: f64, th: &Thresholds) {
        self.above_floor += (delay_ms > th.delay_floor_ms) as usize;
        let g = self.base_idx + self.delays.len() as u64;
        self.delays.push_back((sent, delay_ms));
        // This record completes exactly one chunk across all `sub`
        // partitions: the one ending at g, belonging to the phase
        // `(g+1) mod sub`. Sum its values off the deque tail in push order
        // (sequential f64 adds from 0.0, matching the oracle's
        // `Iterator::sum` bit for bit). If the chunk would reach behind
        // the current window front, its early values are expired — and a
        // chunk starting before the front can never be evaluated, so it is
        // simply not materialised.
        if self.delays.len() >= self.sub {
            let sub = self.sub as u64;
            let start = g + 1 - sub;
            // Sum the last `sub` values via the deque's raw slices — this
            // runs for every delivered packet, and the slice loops compile
            // tighter than a `range()` iterator.
            let (head, tail) = self.delays.as_slices();
            let mut acc = 0.0;
            if tail.len() >= self.sub {
                for &(_, d) in &tail[tail.len() - self.sub..] {
                    acc += d;
                }
            } else {
                for &(_, d) in &head[head.len() - (self.sub - tail.len())..] {
                    acc += d;
                }
                for &(_, d) in tail {
                    acc += d;
                }
            }
            let mean = acc / self.sub as f64;
            self.phases[((g + 1) % sub) as usize].push_mean(start, mean);
        }
    }

    fn expire(&mut self, from: SimTime, th: &Thresholds) {
        while self.delays.front().is_some_and(|&(ts, _)| ts < from) {
            let (_, d) = self.delays.pop_front().expect("non-empty");
            self.above_floor -= (d > th.delay_floor_ms) as usize;
            self.base_idx += 1;
        }
        for phase in &mut self.phases {
            phase.expire(self.base_idx);
        }
    }

    /// Rows 11–12, exactly as the oracle's `delay_uptrend`, in O(1): the
    /// partition anchored at the window front is the phase whose residue
    /// the front index selects, and its rising-pair count is maintained
    /// incrementally.
    fn uptrend(&self, th: &Thresholds) -> bool {
        if self.delays.len() < 2 * th.trend_subwindow || self.above_floor == 0 {
            return false;
        }
        let p = (self.base_idx % self.sub as u64) as usize;
        self.phases[p].rising_pairs > 0
    }

    fn clear(&mut self) {
        self.delays.clear();
        self.above_floor = 0;
        self.base_idx = 0;
        for phase in &mut self.phases {
            phase.clear();
        }
    }
}

fn dir_idx(d: Direction) -> usize {
    match d {
        Direction::Uplink => 0,
        Direction::Downlink => 1,
    }
}

/// The additive DCI facts: kept per 100 ms bin, and once for the whole
/// window, where they are added on push and subtracted per expired bin.
#[derive(Debug, Clone, Copy, Default)]
struct DciCounts {
    /// PRBs granted to the target UE and to other UEs, per direction (row 15).
    prbs_ours: [u64; 2],
    prbs_others: [u64; 2],
    /// Target-UE HARQ retransmissions and first transmissions, per
    /// direction (rows 17 and 13).
    harq_retx: [usize; 2],
    first_tx: [usize; 2],
    /// Target-UE uplink records (row 19).
    ul_sched: usize,
    /// Target-UE records whose RNTI differs from the previous target-UE
    /// record's (row 20).
    rnti_changes: usize,
}

impl DciCounts {
    fn add(&mut self, d: &DciRecord, rnti_changed: bool) {
        let i = dir_idx(d.direction);
        if d.is_target_ue {
            self.prbs_ours[i] += d.n_prbs as u64;
            if d.harq_retx_idx > 0 {
                self.harq_retx[i] += 1;
            } else {
                self.first_tx[i] += 1;
            }
            self.ul_sched += (d.direction == Direction::Uplink) as usize;
            self.rnti_changes += rnti_changed as usize;
        } else {
            self.prbs_others[i] += d.n_prbs as u64;
        }
    }

    fn subtract(&mut self, c: &DciCounts) {
        for i in 0..2 {
            self.prbs_ours[i] -= c.prbs_ours[i];
            self.prbs_others[i] -= c.prbs_others[i];
            self.harq_retx[i] -= c.harq_retx[i];
            self.first_tx[i] -= c.first_tx[i];
        }
        self.ul_sched -= c.ul_sched;
        self.rnti_changes -= c.rnti_changes;
    }
}

/// One bin's first-transmission TBS in one direction.
#[derive(Debug, Clone, Copy, Default)]
struct BinTbs {
    /// TBS bits summed in push order, as the oracle sums a window's bin
    /// (row 14).
    sum: f64,
    /// `(bits, push sequence)` of the first largest and the first smallest
    /// TBS (row 13); meaningful once the bin counts a first transmission.
    max: (u32, u64),
    min: (u32, u64),
}

/// One 100 ms bin of the DCI stream.
#[derive(Debug, Clone, Copy, Default)]
struct DciBin {
    counts: DciCounts,
    tbs: [BinTbs; 2],
    /// Whether the bin's first target-UE record changed RNTI; `None` while
    /// the bin holds no target-UE record.
    lead_change: Option<bool>,
}

/// Rolling state for the DCI stream: one ring of 100 ms bins from the
/// window start to the newest record, their summed counts, and the MCS
/// groups of each direction.
///
/// Window starts fall on bin edges (the [`DominoConfig`] contract), so the
/// window is a whole number of bins and expiry drops whole bins.
#[derive(Debug, Clone, Default)]
struct DciWindow {
    /// MCS group width, µs.
    group_us: u64,
    bins: VecDeque<DciBin>,
    /// Absolute index (`ts / BIN_US`) of `bins.front()`.
    base: u64,
    /// The sum of every bin's counts.
    totals: DciCounts,
    /// RNTI of the last target-UE record pushed.
    last_rnti: Option<u32>,
    /// Push sequence of the next first transmission.
    next_seq: u64,
    mcs: [McsGroups; 2],
}

impl DciWindow {
    /// Counts one record into its bin. A record behind the first bin breaks
    /// the push-order contract and belongs to no window the analyzer can
    /// still emit, so it is dropped.
    fn push(&mut self, d: &DciRecord) {
        let us = d.ts.as_micros();
        let bin = us / BIN_US;
        if self.bins.is_empty() {
            self.base = bin;
        }
        debug_assert!(
            bin >= self.base,
            "DCI record at {:?} behind the first bin, which starts at {} µs",
            d.ts,
            self.base * BIN_US
        );
        if bin < self.base {
            return;
        }
        let k = (bin - self.base) as usize;
        if k >= self.bins.len() {
            self.bins.resize(k + 1, DciBin::default());
        }
        let b = &mut self.bins[k];
        let i = dir_idx(d.direction);
        let mut rnti_changed = false;
        if d.is_target_ue {
            rnti_changed = self.last_rnti.is_some_and(|r| r != d.rnti);
            self.last_rnti = Some(d.rnti);
            b.lead_change.get_or_insert(rnti_changed);
            if d.harq_retx_idx == 0 {
                let v = (d.tbs_bits, self.next_seq);
                self.next_seq += 1;
                let t = &mut b.tbs[i];
                t.sum += d.tbs_bits as f64;
                if b.counts.first_tx[i] == 0 {
                    (t.max, t.min) = (v, v);
                } else if v.0 > t.max.0 {
                    t.max = v;
                } else if v.0 < t.min.0 {
                    t.min = v;
                }
            }
            self.mcs[i].push(us / self.group_us, d.mcs);
        }
        b.counts.add(d, rnti_changed);
        self.totals.add(d, rnti_changed);
    }

    /// Drops every bin and MCS group before `from`, a bin edge.
    fn expire(&mut self, from: SimTime) {
        let from_bin = from.as_micros() / BIN_US;
        while self.base < from_bin {
            let Some(b) = self.bins.pop_front() else {
                break;
            };
            self.totals.subtract(&b.counts);
            self.base += 1;
        }
        let from_group = from.as_micros() / self.group_us;
        for g in &mut self.mcs {
            g.expire(from_group);
        }
    }

    /// Row 13: peak-then-drop with ≥ 4 first transmissions. Folds the bins'
    /// extrema in time order, keeping the first occurrence on ties.
    fn tbs_down(&self, dir: Direction, th: &Thresholds) -> bool {
        let i = dir_idx(dir);
        if self.totals.first_tx[i] < 4 {
            return false;
        }
        let mut bins = self
            .bins
            .iter()
            .filter(|b| b.counts.first_tx[i] > 0)
            .map(|b| &b.tbs[i]);
        let Some(first) = bins.next() else {
            return false;
        };
        let (mut max, mut min) = (first.max, first.min);
        for t in bins {
            if t.max.0 > max.0 {
                max = t.max;
            }
            if t.min.0 < min.0 {
                min = t.min;
            }
        }
        (min.0 as f64) < th.tbs_drop_fraction * max.0 as f64 && max.1 < min.1
    }

    /// The first-transmission TBS bits of absolute bin `bin` (row 14).
    fn tbs_sum(&self, bin: u64, i: usize) -> f64 {
        bin.checked_sub(self.base)
            .and_then(|k| self.bins.get(k as usize))
            .map_or(0.0, |b| b.tbs[i].sum)
    }

    /// Row 15 on the window's PRB sums.
    fn cross_traffic(&self, dir: Direction, th: &Thresholds) -> bool {
        let i = dir_idx(dir);
        let (ours, others) = (self.totals.prbs_ours[i], self.totals.prbs_others[i]);
        ours > 0 && others as f64 > th.cross_traffic_fraction * ours as f64
    }

    /// Row 20: the window's RNTI changes, less the change of its first
    /// target-UE record, whose predecessor lies before the window.
    fn rnti_changed(&self) -> bool {
        let lead = self.bins.iter().find_map(|b| b.lead_change);
        self.totals.rnti_changes > lead.unwrap_or(false) as usize
    }

    fn clear(&mut self) {
        self.bins.clear();
        self.base = 0;
        self.totals = DciCounts::default();
        self.last_rnti = None;
        self.next_seq = 0;
        for g in &mut self.mcs {
            g.clear();
        }
    }
}

// ---------------------------------------------------------------------------
// The analyzer
// ---------------------------------------------------------------------------

/// The incremental sliding-window engine: O(records entering/leaving) per
/// step, one [`WindowAnalysis`] per window position.
///
/// Records are pushed in per-stream timestamp order (any interleaving across
/// streams); [`Self::emit`] then produces the analysis for one window. The
/// caller must have pushed every record with timestamp below the window end
/// before emitting — [`Self::analyze`] drives exactly that schedule over a
/// recorded [`TraceBundle`] via the telemetry crate's incremental cursor.
///
/// DCI state lives per 100 ms bin, and MCS group medians come from value
/// counts (see the module doc), so a warm analyzer allocates nothing per
/// record: its rings keep their capacity across [`Self::reset`]. A DCI
/// record behind the ring's first bin breaks the push order: debug builds
/// panic on it, release builds drop it. A target-UE record behind the open
/// MCS group breaks it too: debug builds panic, release builds leave its
/// MCS uncounted.
#[derive(Debug, Clone)]
pub struct StreamingAnalyzer {
    /// The causal graph's chain table.
    program: DetectionProgram,
    cfg: DominoConfig,
    /// The window-start granule, µs (see [`granule_us`]).
    granule_us: u64,
    app: [AppWindow; 2],
    playback: PlaybackWindow,
    /// Indexed `[dir][rtcp]`.
    delays: [[DelaySeries; 2]; 2],
    app_bins: [RollingBins; 2],
    dci: DciWindow,
    rlc: VecDeque<(SimTime, Direction)>,
    rlc_count: [usize; 2],
    /// Highest record timestamp ingested, `None` before the first record.
    /// Tracked in debug builds only, where [`Self::emit`] checks it against
    /// the window end so live callers can't silently evaluate a window with
    /// future records already folded into the rolling counters.
    watermark: Option<SimTime>,
}

impl StreamingAnalyzer {
    /// Creates a streaming analyzer, or reports which rule of the
    /// [`DominoConfig`] contract `cfg` breaks.
    pub fn new(graph: CausalGraph, cfg: DominoConfig) -> Result<Self, UnsupportedConfig> {
        check_config(&cfg)?;
        let group_us = cfg.thresholds.mcs_group_ms * 1000;
        let mut delays: [[DelaySeries; 2]; 2] = Default::default();
        for row in &mut delays {
            for s in row {
                s.configure(cfg.thresholds.trend_subwindow);
            }
        }
        Ok(StreamingAnalyzer {
            program: compile(&graph),
            cfg,
            granule_us: granule_us(group_us),
            app: Default::default(),
            playback: Default::default(),
            delays,
            app_bins: Default::default(),
            dci: DciWindow {
                group_us,
                ..Default::default()
            },
            rlc: VecDeque::new(),
            rlc_count: [0; 2],
            watermark: None,
        })
    }

    /// The paper's default configuration.
    pub fn with_defaults() -> Self {
        Self::new(crate::dsl::default_graph(), DominoConfig::default())
            .expect("default config is aligned")
    }

    /// The engine configuration.
    pub fn config(&self) -> &DominoConfig {
        &self.cfg
    }

    /// Drops all window state (allocations are kept for reuse).
    pub fn reset(&mut self) {
        for a in &mut self.app {
            a.clear();
        }
        self.playback.clear();
        for row in &mut self.delays {
            for s in row {
                s.clear();
            }
        }
        for b in &mut self.app_bins {
            b.clear();
        }
        self.dci.clear();
        self.rlc.clear();
        self.rlc_count = [0; 2];
        self.watermark = None;
    }

    /// Notes an ingested record's timestamp for [`Self::emit`]'s debug check.
    fn saw(&mut self, ts: SimTime) {
        if cfg!(debug_assertions) {
            self.watermark = self.watermark.max(Some(ts));
        }
    }

    /// Ingests one app-stats sample for one client.
    pub fn push_app(&mut self, side: ClientSide, s: &AppStatsRecord) {
        self.saw(s.ts);
        let i = match side {
            ClientSide::Local => 0,
            ClientSide::Remote => 1,
        };
        self.app[i].push(s, &self.cfg.thresholds);
    }

    /// Ingests one ABR playback sample.
    pub fn push_playback(&mut self, s: &PlaybackStatsRecord) {
        self.saw(s.ts);
        self.playback.push(s, &self.cfg.thresholds);
    }

    /// Ingests one packet record. The record's `received` field must be
    /// final (this is a trace-analysis API, not an in-flight packet hook).
    pub fn push_packet(&mut self, p: &PacketRecord) {
        self.saw(p.sent);
        let di = dir_idx(p.direction);
        self.app_bins[di].add(p.sent.as_micros() / BIN_US, p.size_bytes as f64 * 8.0);
        if let Some(d) = p.one_way_delay() {
            let rtcp = (p.stream == StreamKind::Rtcp) as usize;
            self.delays[di][rtcp].push(p.sent, d.as_millis_f64(), &self.cfg.thresholds);
        }
    }

    /// Ingests one DCI record.
    pub fn push_dci(&mut self, d: &DciRecord) {
        self.saw(d.ts);
        self.dci.push(d);
    }

    /// Ingests one gNB log record.
    pub fn push_gnb(&mut self, g: &GnbLogRecord) {
        self.saw(g.ts);
        if let GnbEvent::RlcRetx { direction, .. } = g.event {
            self.rlc_count[dir_idx(direction)] += 1;
            self.rlc.push_back((g.ts, direction));
        }
    }

    /// Ingests one batch of records surfaced by the telemetry cursor.
    pub fn push_slices(&mut self, s: &telemetry::StreamSlices<'_>) {
        for r in s.app_local {
            self.push_app(ClientSide::Local, r);
        }
        for r in s.app_remote {
            self.push_app(ClientSide::Remote, r);
        }
        for r in s.packets {
            self.push_packet(r);
        }
        for r in s.dci {
            self.push_dci(r);
        }
        for r in s.gnb {
            self.push_gnb(r);
        }
        for r in s.playback {
            self.push_playback(r);
        }
    }

    fn expire(&mut self, from: SimTime) {
        let th = &self.cfg.thresholds;
        for a in &mut self.app {
            a.expire(from, th);
        }
        self.playback.expire(from);
        for row in &mut self.delays {
            for s in row {
                s.expire(from, th);
            }
        }
        let from_bin = from.as_micros() / BIN_US;
        for b in &mut self.app_bins {
            b.expire(from_bin);
        }
        self.dci.expire(from);
        while self.rlc.front().is_some_and(|&(ts, _)| ts < from) {
            let (_, dir) = self.rlc.pop_front().expect("non-empty");
            self.rlc_count[dir_idx(dir)] -= 1;
        }
    }

    /// Emits the analysis for the window starting at `start`, expiring all
    /// state older than the window.
    ///
    /// `start` must be a multiple of the bin granule, as every window start
    /// of an accepted configuration is; checked in debug builds.
    ///
    /// Ingestion must sit exactly at the window end: every record with
    /// timestamp below `start + window` pushed, and none at or beyond it
    /// (the rolling counters have no upper clamp, so a future record would
    /// silently leak into this window). Checked in debug builds. Live
    /// consumers that receive records ahead of the analysis frontier must
    /// buffer them and release per window — which is exactly what
    /// [`TraceBundle::advance_until`] does for recorded traces.
    pub fn emit(&mut self, start: SimTime) -> WindowAnalysis {
        debug_assert!(
            start.as_micros().is_multiple_of(self.granule_us),
            "emit({start:?}): the start is not a multiple of the {} µs bin granule",
            self.granule_us
        );
        self.expire(start);
        let end = start + self.cfg.window;
        debug_assert!(
            self.watermark.is_none_or(|w| w < end),
            "emit({start:?}): records up to {:?} already ingested past the window end {end:?}",
            self.watermark
        );
        let features = self.features(start, end);
        let (chains, unknown_consequences) = self.program.trace_chains(&features);
        WindowAnalysis {
            start,
            features,
            chains,
            unknown_consequences,
        }
    }

    /// Assembles the 40-dim feature vector from the rolling state.
    fn features(&self, from: SimTime, to: SimTime) -> FeatureVector {
        let th = &self.cfg.thresholds;
        let mut v = FeatureVector::new();

        // Application events (rows 1–10), both clients.
        for (i, side) in [(0usize, ClientSide::Local), (1, ClientSide::Remote)] {
            for e in AppEvent::ALL {
                v.set(Feature::App(side, e), self.app[i].event(e, th));
            }
        }

        // Packet-delay trends (rows 11–12).
        let media_up = self.delays[0][0].uptrend(th) || self.delays[1][0].uptrend(th);
        let rtcp_up = self.delays[0][1].uptrend(th) || self.delays[1][1].uptrend(th);
        v.set(Feature::ForwardDelayUp, media_up);
        v.set(Feature::ReverseDelayUp, rtcp_up);

        // 5G events per direction (rows 13–18).
        for dir in [Direction::Uplink, Direction::Downlink] {
            let i = dir_idx(dir);
            v.set(
                Feature::Ran(dir, RanEvent::AllocatedTbsDown),
                self.dci.tbs_down(dir, th),
            );
            v.set(
                Feature::Ran(dir, RanEvent::AppExceedsTbs),
                self.app_exceeds_tbs(dir, from, to, th),
            );
            v.set(
                Feature::Ran(dir, RanEvent::CrossTraffic),
                self.dci.cross_traffic(dir, th),
            );
            v.set(
                Feature::Ran(dir, RanEvent::ChannelDegrades),
                self.dci.mcs[i].channel_degrades(th),
            );
            v.set(
                Feature::Ran(dir, RanEvent::HarqRetx),
                self.dci.totals.harq_retx[i] > th.harq_retx_count,
            );
            v.set(Feature::Ran(dir, RanEvent::RlcRetx), self.rlc_count[i] > 0);
        }

        // Rows 19–20.
        v.set(Feature::UlScheduling, self.dci.totals.ul_sched > 0);
        v.set(Feature::RrcStateChange, self.dci.rnti_changed());

        // Rows 21–24: ABR playback events.
        for e in PlaybackEvent::ALL {
            v.set(Feature::Playback(e), self.playback.event(e, th));
        }
        v
    }

    /// Row 14 over the packet and DCI bins.
    fn app_exceeds_tbs(&self, dir: Direction, from: SimTime, to: SimTime, th: &Thresholds) -> bool {
        let i = dir_idx(dir);
        let n_bins = ((to.as_micros() - from.as_micros()) / BIN_US).max(1);
        let from_bin = from.as_micros() / BIN_US;
        let mut exceeding = 0u64;
        for b in from_bin..from_bin + n_bins {
            let a = self.app_bins[i].get(b);
            let t = self.dci.tbs_sum(b, i);
            if a > 0.0 && a > t {
                exceeding += 1;
            }
        }
        exceeding as f64 > th.rate_exceed_fraction * n_bins as f64
    }

    /// Runs the full sliding-window sweep over a recorded bundle in one
    /// incremental pass (what [`Domino::analyze`](crate::Domino::analyze)
    /// runs).
    pub fn analyze(&mut self, bundle: &TraceBundle) -> Analysis {
        self.reset();
        let horizon = bundle.horizon();
        let mut cur = bundle.cursor();
        let mut windows = Vec::new();
        let mut start = SimTime::ZERO + self.cfg.warmup;
        while start + self.cfg.window <= horizon {
            let end = start + self.cfg.window;
            let slices = bundle.advance_until(&mut cur, end);
            self.push_slices(&slices);
            windows.push(self.emit(start));
            start += self.cfg.step;
        }
        Analysis {
            windows,
            duration: bundle.meta.duration,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{oracle, Domino};
    use telemetry::SessionMeta;

    fn t(ms: u64) -> SimTime {
        SimTime::from_millis(ms)
    }

    fn assert_equivalent(bundle: &TraceBundle) {
        assert_equivalent_with(DominoConfig::default(), bundle);
    }

    /// Checks the analyzer against the oracle window by window under `cfg`
    /// and returns the oracle's windows.
    fn assert_equivalent_with(cfg: DominoConfig, bundle: &TraceBundle) -> Vec<WindowAnalysis> {
        let domino = Domino::new(crate::dsl::default_graph(), cfg);
        let batch = oracle::analyze(&domino, bundle);
        let mut streaming =
            StreamingAnalyzer::new(domino.graph().clone(), domino.config().clone()).unwrap();
        let inc = streaming.analyze(bundle);
        assert_eq!(batch.windows.len(), inc.windows.len());
        for (b, s) in batch.windows.iter().zip(&inc.windows) {
            assert_eq!(b.start, s.start);
            assert_eq!(
                b.features,
                s.features,
                "window at {:?}: batch {:?} vs streaming {:?}",
                b.start,
                b.features.active_names(),
                s.features.active_names()
            );
            assert_eq!(b.chains, s.chains, "window at {:?}", b.start);
            assert_eq!(b.unknown_consequences, s.unknown_consequences);
        }
        batch.windows
    }

    /// A deterministic pseudo-random bundle touching every feature family.
    fn synthetic_bundle(seed: u64, secs: u64) -> TraceBundle {
        use rand_like::Lcg;
        let mut b = TraceBundle::new(SessionMeta::baseline(
            "synthetic",
            SimDuration::from_secs(secs),
            seed,
        ));
        let mut rng = Lcg::new(seed);
        // App samples at 50 ms on both sides with occasional anomalies.
        for i in 0..(secs * 20) {
            let ts = t(i * 50);
            for side in 0..2 {
                let mut s = AppStatsRecord::baseline(ts);
                s.inbound_fps = 30.0
                    - (rng.next_f64() * 12.0) * ((rng.next_u64().is_multiple_of(7)) as u64 as f64);
                s.outbound_fps = 28.0 + rng.next_f64() * 4.0
                    - ((rng.next_u64().is_multiple_of(11)) as u64 as f64) * 8.0;
                s.video_jitter_buffer_ms = if rng.next_u64().is_multiple_of(37) {
                    0.0
                } else {
                    40.0 + rng.next_f64() * 80.0
                };
                s.target_bitrate_bps = 1.0e6 + rng.next_f64() * 2.0e6;
                s.pushback_rate_bps = s.target_bitrate_bps * (0.9 + rng.next_f64() * 0.2);
                s.outstanding_bytes = (rng.next_f64() * 40_000.0) as u64;
                s.cwnd_bytes = 30_000;
                s.outbound_resolution = match rng.next_u64() % 3 {
                    0 => Resolution::R360p,
                    1 => Resolution::R540p,
                    _ => Resolution::R720p,
                };
                if rng.next_u64().is_multiple_of(13) {
                    s.gcc_state = GccNetworkState::Overuse;
                }
                if side == 0 {
                    b.app_local.push(s);
                } else {
                    b.app_remote.push(s);
                }
            }
        }
        // Packets: media + RTCP, both directions, drifting delay, some loss.
        for i in 0..(secs * 100) {
            let sent = t(i * 10);
            let dir = if i.is_multiple_of(2) {
                Direction::Uplink
            } else {
                Direction::Downlink
            };
            let stream = if i.is_multiple_of(9) {
                StreamKind::Rtcp
            } else {
                StreamKind::Video
            };
            let lost = rng.next_u64().is_multiple_of(41);
            let base = 20.0 + (i as f64 / (secs * 100) as f64) * 90.0;
            let delay_ms = base + rng.next_f64() * 15.0;
            b.packets.push(PacketRecord {
                sent,
                received: if lost {
                    None
                } else {
                    Some(sent + SimDuration::from_micros((delay_ms * 1000.0) as u64))
                },
                direction: dir,
                stream,
                seq: i,
                size_bytes: 400 + (rng.next_u64() % 900) as u32,
            });
        }
        // DCI: target + cross-traffic, occasional retx and RNTI churn.
        for i in 0..(secs * 50) {
            let ts = t(i * 20);
            let dir = if i.is_multiple_of(2) {
                Direction::Uplink
            } else {
                Direction::Downlink
            };
            let ours = !rng.next_u64().is_multiple_of(4);
            let retx = (rng.next_u64().is_multiple_of(17)) as u8;
            b.dci.push(DciRecord {
                ts,
                rnti: if ours {
                    if i > secs * 25 && rng.next_u64().is_multiple_of(211) {
                        101
                    } else {
                        100
                    }
                } else {
                    900 + (rng.next_u64() % 50) as u32
                },
                direction: dir,
                is_target_ue: ours,
                n_prbs: 5 + (rng.next_u64() % 40) as u16,
                mcs: (3 + rng.next_u64() % 25) as u8,
                tbs_bits: 10_000 + (rng.next_u64() % 90_000) as u32,
                harq_id: 0,
                harq_retx_idx: retx,
                decoded_ok: true,
                proactive: false,
                used_bits: 0,
            });
            if ours && rng.next_u64().is_multiple_of(97) {
                b.gnb.push(GnbLogRecord {
                    ts,
                    event: GnbEvent::RlcRetx {
                        direction: dir,
                        sn: i as u32,
                    },
                });
            }
        }
        b.sort();
        b
    }

    /// Tiny deterministic generator for the synthetic bundles (keeps the
    /// test independent of the workspace RNG crate).
    mod rand_like {
        pub(crate) struct Lcg(u64);
        impl Lcg {
            pub fn new(seed: u64) -> Self {
                Lcg(seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1)
            }
            pub fn next_u64(&mut self) -> u64 {
                self.0 = self
                    .0
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                self.0 >> 11
            }
            pub(crate) fn next_f64(&mut self) -> f64 {
                (self.next_u64() & ((1 << 53) - 1)) as f64 / (1u64 << 53) as f64
            }
        }
    }

    /// The amortized delay-trend state must agree with a literal
    /// re-implementation of the batch condition for every window position —
    /// especially when the expiry count per slide is *not* a multiple of
    /// `trend_subwindow`, which shifts every chunk boundary.
    #[test]
    fn delay_series_matches_batch_oracle_under_arbitrary_slides() {
        use rand_like::Lcg;
        let th = Thresholds::default();
        let oracle = |win: &[(SimTime, f64)]| -> bool {
            let delays: Vec<f64> = win.iter().map(|&(_, d)| d).collect();
            if delays.len() < 2 * th.trend_subwindow {
                return false;
            }
            if !delays.iter().any(|&d| d > th.delay_floor_ms) {
                return false;
            }
            let sub = th.trend_subwindow.max(1);
            let means: Vec<f64> = delays
                .chunks(sub)
                .filter(|c| c.len() == sub)
                .map(|c| c.iter().sum::<f64>() / c.len() as f64)
                .collect();
            means.windows(2).any(|w| w[1] > w[0] * 1.05)
        };
        for seed in [1u64, 5, 23] {
            let mut rng = Lcg::new(seed);
            let mut series = DelaySeries::default();
            series.configure(th.trend_subwindow);
            let mut shadow: Vec<(SimTime, f64)> = Vec::new();
            let mut ts = 0u64;
            let mut front = 0usize;
            for _ in 0..300 {
                // Push a burst of 0..12 delays with drifting magnitudes so
                // uptrends appear and disappear.
                for _ in 0..rng.next_u64() % 12 {
                    ts += 1 + rng.next_u64() % 40;
                    let d = 3.0 + rng.next_f64() * 40.0 + (ts as f64 / 200.0) % 35.0;
                    let t = SimTime::from_millis(ts);
                    series.push(t, d, &th);
                    shadow.push((t, d));
                }
                // Slide the window forward by an arbitrary number of records
                // (hits every chunk-boundary phase).
                let keep_from = if shadow.len() > front {
                    let max_expire = (shadow.len() - front) as u64;
                    front + (rng.next_u64() % (max_expire + 1)) as usize
                } else {
                    front
                };
                if keep_from > front {
                    let from = SimTime::from_micros(shadow[keep_from - 1].0.as_micros() + 1);
                    series.expire(from, &th);
                    front = keep_from;
                }
                assert_eq!(
                    series.uptrend(&th),
                    oracle(&shadow[front..]),
                    "seed {seed}: divergence with {} records in window",
                    shadow.len() - front
                );
            }
        }
    }

    #[test]
    fn empty_bundle_matches_batch() {
        let b = TraceBundle::new(SessionMeta::baseline(
            "empty",
            SimDuration::from_secs(10),
            0,
        ));
        assert_equivalent(&b);
    }

    #[test]
    fn synthetic_bundles_match_batch_bit_for_bit() {
        for seed in [1u64, 7, 42] {
            let b = synthetic_bundle(seed, 25);
            // The synthetic trace must actually exercise detections, or the
            // equivalence claim is vacuous.
            let domino = Domino::with_defaults();
            let analysis = oracle::analyze(&domino, &b);
            if seed == 1 {
                let active: usize = analysis
                    .windows
                    .iter()
                    .map(|w| w.features.count_active())
                    .sum();
                assert!(active > 0, "synthetic trace produced no active features");
            }
            assert_equivalent(&b);
        }
    }

    #[test]
    fn analyzer_reset_reuses_cleanly() {
        let b1 = synthetic_bundle(3, 15);
        let b2 = synthetic_bundle(4, 15);
        let domino = Domino::with_defaults();
        let mut s = StreamingAnalyzer::with_defaults();
        // Same analyzer across bundles: reset must drop all carryover.
        let first = s.analyze(&b1);
        let second = s.analyze(&b2);
        let batch2 = oracle::analyze(&domino, &b2);
        assert_eq!(second.windows.len(), batch2.windows.len());
        for (a, e) in second.windows.iter().zip(&batch2.windows) {
            assert_eq!(a.features, e.features);
        }
        // And re-analyzing the first bundle reproduces the original result.
        let again = s.analyze(&b1);
        for (a, e) in again.windows.iter().zip(&first.windows) {
            assert_eq!(a.features, e.features);
        }
    }

    // -----------------------------------------------------------------------
    // Edges of the DCI bin ring and the counted MCS medians
    // -----------------------------------------------------------------------

    /// A first transmission of the target UE (RNTI 100) at `us` µs.
    fn dci_at(us: u64, direction: Direction) -> DciRecord {
        DciRecord {
            ts: SimTime::from_micros(us),
            rnti: 100,
            direction,
            is_target_ue: true,
            n_prbs: 10,
            mcs: 20,
            tbs_bits: 90_000,
            harq_id: 0,
            harq_retx_idx: 0,
            decoded_ok: true,
            proactive: false,
            used_bits: 0,
        }
    }

    /// A bundle holding only `dci`.
    fn dci_bundle(dci: Vec<DciRecord>) -> TraceBundle {
        let mut b = TraceBundle::new(SessionMeta::baseline(
            "dci-edges",
            SimDuration::from_secs(20),
            0,
        ));
        b.dci = dci;
        b.sort();
        b
    }

    /// The paper's windows, and 1 s windows starting on every bin edge.
    fn edge_configs() -> [DominoConfig; 2] {
        [
            DominoConfig::default(),
            DominoConfig {
                window: SimDuration::from_secs(1),
                step: SimDuration::from_millis(100),
                warmup: SimDuration::ZERO,
                ..Default::default()
            },
        ]
    }

    /// Checks `bundle` under both [`edge_configs`]; returns the oracle's
    /// windows of the 1 s grid.
    fn check_edges(bundle: &TraceBundle) -> Vec<WindowAnalysis> {
        let [paper, fine] = edge_configs();
        assert_equivalent_with(paper, bundle);
        assert_equivalent_with(fine, bundle)
    }

    /// Whether `f` is active in the window starting at `ms`.
    fn active_at(windows: &[WindowAnalysis], ms: u64, f: Feature) -> bool {
        windows
            .iter()
            .find(|w| w.start == t(ms))
            .expect("a window starts there")
            .features
            .get(f)
    }

    /// How many of `windows` have `f` active.
    fn windows_with(windows: &[WindowAnalysis], f: Feature) -> usize {
        windows.iter().filter(|w| w.features.get(f)).count()
    }

    #[test]
    fn equal_tbs_peaks_and_troughs_keep_their_first_occurrence() {
        let (hi, lo) = (100_000, 50_000);
        let mut dci = Vec::new();
        for k in 0..200u64 {
            for dir in [Direction::Uplink, Direction::Downlink] {
                dci.push(dci_at(k * 100_000 + 50_000, dir));
            }
        }
        // Uplink ties fall in different bins, downlink ties in one bin.
        let (up, down) = (Direction::Uplink, Direction::Downlink);
        for (dir, us, tbs_bits) in [
            // Peak, trough, peak, trough.
            (up, 4_210_000, hi),
            (up, 4_410_000, lo),
            (up, 4_610_000, hi),
            (up, 4_810_000, lo),
            (down, 7_010_000, hi),
            (down, 7_020_000, lo),
            (down, 7_030_000, hi),
            (down, 7_040_000, lo),
            // Trough, peak, trough.
            (up, 12_210_000, lo),
            (up, 12_410_000, hi),
            (up, 12_610_000, lo),
            (down, 15_010_000, lo),
            (down, 15_020_000, hi),
            (down, 15_030_000, lo),
        ] {
            dci.push(DciRecord {
                tbs_bits,
                ..dci_at(us, dir)
            });
        }
        let fine = check_edges(&dci_bundle(dci));
        let ul = Feature::Ran(Direction::Uplink, RanEvent::AllocatedTbsDown);
        let dl = Feature::Ran(Direction::Downlink, RanEvent::AllocatedTbsDown);
        // The first peak comes before the first trough.
        assert!(active_at(&fine, 4_000, ul));
        assert!(active_at(&fine, 7_000, dl));
        // The first trough comes before the first peak.
        assert!(!active_at(&fine, 12_000, ul));
        assert!(!active_at(&fine, 15_000, dl));
        // Once the first peak has left, the trough before the second peak is
        // the first trough.
        assert!(!active_at(&fine, 4_300, ul));
        assert!(windows_with(&fine, ul) > 0 && windows_with(&fine, dl) > 0);
    }

    #[test]
    fn rnti_changes_on_bin_edges_window_starts_and_after_non_target_bins() {
        let mut dci = Vec::new();
        for k in 0..1000u64 {
            let ms = k * 20;
            // The target UE pauses over 13.00–13.35 s, so windows starting
            // there lead with bins of other UEs' DCI only.
            if !(13_000..13_350).contains(&ms) {
                let rnti = match ms {
                    ..6_200 => 100,       // a change on the 6.2 s bin edge
                    6_200..10_000 => 101, // a change on the 10 s window start
                    10_000..13_000 => 102,
                    _ => 103, // a change after the pause
                };
                dci.push(DciRecord {
                    rnti,
                    ..dci_at(ms * 1000, Direction::Uplink)
                });
                dci.push(DciRecord {
                    rnti,
                    ..dci_at(ms * 1000 + 10_000, Direction::Downlink)
                });
            }
        }
        for k in 0..667u64 {
            dci.push(DciRecord {
                is_target_ue: false,
                rnti: 900,
                ..dci_at(k * 30_000, Direction::Downlink)
            });
        }
        let fine = check_edges(&dci_bundle(dci));
        let rrc = Feature::RrcStateChange;
        for (ms, active) in [
            (6_100, true),
            (6_200, false),
            (9_900, true),
            (10_000, false),
            (12_900, true),
            (13_000, false),
            (13_300, false),
            (15_000, false),
        ] {
            assert_eq!(active_at(&fine, ms, rrc), active, "window at {ms} ms");
        }
    }

    #[test]
    fn a_dci_gap_longer_than_the_window_empties_the_ring() {
        let mut dci = Vec::new();
        for k in 0..1000u64 {
            let ms = k * 20;
            if (6_000..13_000).contains(&ms) {
                continue;
            }
            let after = ms >= 13_000;
            for (j, dir) in [Direction::Uplink, Direction::Downlink]
                .into_iter()
                .enumerate()
            {
                dci.push(DciRecord {
                    rnti: if after { 200 } else { 100 },
                    mcs: if after { 4 + (k % 5) as u8 } else { 22 },
                    tbs_bits: 40_000 + ((k * 7_919 + j as u64 * 31) % 60_000) as u32,
                    harq_retx_idx: (k % 9 == 0) as u8,
                    ..dci_at(ms * 1000 + j as u64 * 5_000, dir)
                });
            }
            dci.push(DciRecord {
                is_target_ue: false,
                rnti: 900,
                n_prbs: 40,
                ..dci_at(ms * 1000 + 15_000, Direction::Uplink)
            });
        }
        let fine = check_edges(&dci_bundle(dci));
        assert!(fine
            .iter()
            .filter(|w| (6_000..12_000).contains(&w.start.as_millis()))
            .all(|w| w.features.count_active() == 0));
        let low_mcs = Feature::Ran(Direction::Uplink, RanEvent::ChannelDegrades);
        assert!(active_at(&fine, 14_000, low_mcs));
        assert!(!active_at(&fine, 4_000, low_mcs));
        // The first RNTI after the gap changed, but its predecessor is
        // long gone.
        assert!(!active_at(&fine, 13_000, Feature::RrcStateChange));
    }

    /// The MCS value of record `j` of group `g`, from `palette`.
    fn pick(palette: &[u8], g: u64, j: u64) -> u8 {
        let h = (g * 0x9E37_79B9 + j * 0x85EB_CA6B) ^ (g >> 3);
        palette[(h % palette.len() as u64) as usize]
    }

    /// Target-UE uplink DCI with `size(g)` records in 50 ms group `g` whose
    /// MCS values `mcs(g, j)` gives.
    fn mcs_bundle(size: impl Fn(u64) -> u64, mcs: impl Fn(u64, u64) -> u8) -> TraceBundle {
        let mut dci = Vec::new();
        for g in 0..400u64 {
            for j in 0..size(g) {
                dci.push(DciRecord {
                    mcs: mcs(g, j),
                    ..dci_at(g * 50_000 + j * 7_000, Direction::Uplink)
                });
            }
        }
        dci_bundle(dci)
    }

    /// `edge_configs` with row 16's thresholds replaced.
    fn mcs_configs(p90_below: f64, low_value: f64, low_count: usize) -> [DominoConfig; 2] {
        edge_configs().map(|mut c| {
            c.thresholds.mcs_p90_below = p90_below;
            c.thresholds.mcs_low_value = low_value;
            c.thresholds.mcs_low_count = low_count;
            c
        })
    }

    #[test]
    fn odd_and_even_groups_take_the_upper_median_across_mcs_0_31_32_255() {
        // Groups of one to six records; phases that favour low values, a
        // mix, and 255, so the rule's verdict turns over the call.
        let b = mcs_bundle(
            |g| 1 + g % 6,
            |g, j| match g / 134 {
                0 => pick(&[0, 31, 31, 32, 5], g, j),
                1 => pick(&[0, 31, 32, 32, 255], g, j),
                _ => pick(&[32, 255, 255, 31], g, j),
            },
        );
        check_edges(&b);
        let low_mcs = Feature::Ran(Direction::Uplink, RanEvent::ChannelDegrades);
        for cfg in mcs_configs(255.0, 32.0, 3) {
            let windows = assert_equivalent_with(cfg, &b);
            let on = windows_with(&windows, low_mcs);
            assert!(on > 0 && on < windows.len(), "{on} of {}", windows.len());
        }
        // Even groups of a low and a high value have the high median.
        let pairs = mcs_bundle(|_| 2, |g, j| if j == 0 { 0 } else { 31 + (g % 2) as u8 });
        for cfg in mcs_configs(255.0, 32.0, 3) {
            let windows = assert_equivalent_with(cfg, &pairs);
            assert!(windows.iter().all(|w| w.features.get(low_mcs)));
        }
    }

    #[test]
    fn mcs_medians_are_exact_over_all_256_values() {
        // The first half spreads every MCS value over the groups; the
        // second keeps to 128..=255.
        let b = mcs_bundle(
            |g| 3 + g % 2,
            |g, j| {
                let v = (g * 7 + j * 85 + g / 37) % 256;
                if g < 200 {
                    v as u8
                } else {
                    128 + (v % 128) as u8
                }
            },
        );
        let mut seen = [false; 256];
        for d in &b.dci {
            seen[d.mcs as usize] = true;
        }
        assert!(seen.iter().all(|&s| s), "every value occurs");
        check_edges(&b);
        let low_mcs = Feature::Ran(Direction::Uplink, RanEvent::ChannelDegrades);
        for cfg in mcs_configs(250.0, 128.0, 5) {
            let windows = assert_equivalent_with(cfg, &b);
            let on = windows_with(&windows, low_mcs);
            assert!(on > 0 && on < windows.len(), "{on} of {}", windows.len());
        }
    }

    #[test]
    fn a_bin_of_more_than_1000_records_matches_the_oracle() {
        let mut b = synthetic_bundle(11, 20);
        for i in 0..1_500u64 {
            let h = i * 0x9E37_79B9 % 1_000_003;
            b.dci.push(DciRecord {
                rnti: if (i / 200) % 2 == 0 { 100 } else { 101 },
                is_target_ue: i % 3 != 0,
                n_prbs: (1 + h % 50) as u16,
                mcs: (h % 29) as u8,
                tbs_bits: (1_000 + h % 100_000) as u32,
                harq_retx_idx: (i % 7 == 0) as u8,
                ..dci_at(
                    8_000_000 + i * 66,
                    if i % 2 == 0 {
                        Direction::Uplink
                    } else {
                        Direction::Downlink
                    },
                )
            });
        }
        b.sort();
        let in_bin = b
            .dci
            .iter()
            .filter(|d| d.ts.as_micros() / BIN_US == 80)
            .count();
        assert!(in_bin > 1_000);
        check_edges(&b);
    }

    #[test]
    #[cfg_attr(debug_assertions, should_panic(expected = "behind the first bin"))]
    fn a_dci_record_behind_the_first_bin_is_dropped() {
        let bundle = synthetic_bundle(5, 12);
        let expected = oracle::analyze(&Domino::with_defaults(), &bundle);
        let mut s = StreamingAnalyzer::with_defaults();
        let cfg = s.config().clone();
        let mut cur = bundle.cursor();
        let mut windows = Vec::new();
        let mut start = SimTime::ZERO + cfg.warmup;
        while start + cfg.window <= bundle.horizon() {
            s.push_slices(&bundle.advance_until(&mut cur, start + cfg.window));
            if let Some(prev) = windows.last().map(|w: &WindowAnalysis| w.start) {
                // A target-UE first transmission with a new RNTI and an
                // extreme TBS and MCS, behind the last expiry.
                s.push_dci(&DciRecord {
                    rnti: 7,
                    mcs: 255,
                    tbs_bits: 1,
                    ..dci_at(prev.as_micros() - 1, Direction::Uplink)
                });
            }
            windows.push(s.emit(start));
            start += cfg.step;
        }
        assert_eq!(windows, expected.windows);
    }

    #[test]
    #[cfg_attr(debug_assertions, should_panic(expected = "behind the open group"))]
    fn an_mcs_record_behind_the_open_group_is_dropped() {
        let mut g = McsGroups::default();
        for (group, mcs) in [(1, 5), (1, 7), (2, 9), (3, 200), (3, 11), (3, 12)] {
            g.push(group, mcs);
        }
        g.push(2, 0);
        assert_eq!(Vec::from(g.medians.clone()), [(1, 7), (2, 9)]);
        assert_eq!((g.open, g.open_len, g.open_median()), (3, 3, 12));
    }

    #[test]
    #[cfg_attr(debug_assertions, should_panic(expected = "bin granule"))]
    fn emit_checks_that_the_start_is_on_the_bin_granule() {
        // 40 ms MCS groups make the granule 200 ms.
        let mut cfg = DominoConfig {
            warmup: SimDuration::from_millis(400),
            window: SimDuration::from_secs(2),
            step: SimDuration::from_millis(200),
            ..Default::default()
        };
        cfg.thresholds.mcs_group_ms = 40;
        let mut s = StreamingAnalyzer::new(crate::dsl::default_graph(), cfg).unwrap();
        s.emit(t(400));
        s.emit(t(600));
        s.emit(t(700));
    }
}
