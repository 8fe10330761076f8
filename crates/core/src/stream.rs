//! The sliding-window analysis engine.
//!
//! The [`StreamingAnalyzer`] ingests records once, in timestamp order, and
//! maintains rolling window state — monotonic min/max deques for the
//! peak-then-drop conditions, rolling counters and adjacent-pair counts for
//! the existence conditions, rolling 100 ms rate bins and MCS groups for the
//! binned conditions — so each step costs O(records entering/leaving the
//! window) plus a small evaluation pass over pre-filtered per-feature
//! series. It is the only engine: [`Domino::analyze`](crate::Domino::analyze)
//! runs it over a recorded bundle, and `domino-live` feeds it during a call.
//!
//! Its reference is the batch oracle, which rescans all five telemetry
//! streams for each window position (≈ W/Δt times the necessary work) and
//! exists only for tests. Output is **bit-identical to the oracle**: the
//! tests in this module and `tests/streaming_equivalence.rs` enforce it
//! window by window.
//!
//! Exactness contract: the binned conditions (Table 5 rows 14 and 16) bin
//! time relative to the window start, so rolling bins reproduce them only
//! when every window start falls on a bin boundary. [`StreamingAnalyzer::new`]
//! and [`Domino::try_new`](crate::Domino::try_new) therefore reject a
//! configuration unless `warmup`, `step` and `window` are multiples of the
//! bin granule (the LCM of the 100 ms rate bin and the configured MCS
//! group), the step is positive, and the MCS group is positive. The paper's
//! configuration (W = 5 s, Δt = 0.5 s, warmup 3 s, 50 ms MCS groups)
//! conforms.

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
    let group_us = group_ms * 1000;
    let (mut a, mut b) = (BIN_US, group_us);
    while b != 0 {
        (a, b) = (b, a % b);
    }
    let granule_us = BIN_US / a * group_us;
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
/// peak-then-drop conditions (Table 5 rows 1–2 and 13) compute.
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

/// One 50 ms MCS group: values in arrival order plus a lazily cached median.
#[derive(Debug, Clone, Default)]
struct McsGroup {
    values: Vec<f64>,
    median: Option<f64>,
}

/// Rolling MCS groups keyed by absolute group index.
#[derive(Debug, Clone, Default)]
struct RollingGroups {
    base: u64,
    groups: VecDeque<McsGroup>,
}

impl RollingGroups {
    fn add(&mut self, group: u64, mcs: f64) {
        if self.groups.is_empty() {
            self.base = group;
        }
        debug_assert!(group >= self.base, "groups must fill in time order");
        while self.base + self.groups.len() as u64 <= group {
            self.groups.push_back(McsGroup::default());
        }
        let g = &mut self.groups[(group - self.base) as usize];
        g.values.push(mcs);
        g.median = None;
    }

    fn expire(&mut self, first_kept: u64) {
        while self.base < first_kept && !self.groups.is_empty() {
            self.groups.pop_front();
            self.base += 1;
        }
        if self.groups.is_empty() && self.base < first_kept {
            self.base = first_kept;
        }
    }

    /// Pushes the medians of all non-empty groups in `[from_g, to_g)` onto
    /// `out`, in group order — the exact sequence the oracle's condition sorts.
    fn medians_into(&mut self, from_g: u64, to_g: u64, out: &mut Vec<f64>) {
        for g in from_g.max(self.base)..to_g.min(self.base + self.groups.len() as u64) {
            let slot = &mut self.groups[(g - self.base) as usize];
            if slot.values.is_empty() {
                continue;
            }
            let m = *slot.median.get_or_insert_with(|| {
                let mut s = slot.values.clone();
                s.sort_by(|a, b| a.partial_cmp(b).expect("finite"));
                s[s.len() / 2]
            });
            out.push(m);
        }
    }

    fn clear(&mut self) {
        self.base = 0;
        self.groups.clear();
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

/// The compact DCI facts needed to reverse counters on expiry.
#[derive(Debug, Clone, Copy)]
struct DciEntry {
    ts: SimTime,
    direction: Direction,
    target: bool,
    first_tx: bool,
    retx: bool,
    prbs: u64,
}

fn dir_idx(d: Direction) -> usize {
    match d {
        Direction::Uplink => 0,
        Direction::Downlink => 1,
    }
}

/// Rolling state for the DCI stream, per direction where applicable.
#[derive(Debug, Clone, Default)]
struct DciWindow {
    entries: VecDeque<DciEntry>,
    prbs_ours: [u64; 2],
    prbs_others: [u64; 2],
    harq_retx: [usize; 2],
    first_tx_count: [usize; 2],
    ul_sched_count: usize,
    tbs: [MinMaxWindow; 2],
    tbs_bins: [RollingBins; 2],
    mcs_groups: [RollingGroups; 2],
    /// Target-UE RNTI sequence with rolling adjacent-difference count.
    rntis: VecDeque<(SimTime, u32)>,
    rnti_change_pairs: usize,
}

impl DciWindow {
    fn expire(&mut self, from: SimTime) {
        while self.entries.front().is_some_and(|e| e.ts < from) {
            let e = self.entries.pop_front().expect("non-empty");
            let i = dir_idx(e.direction);
            if e.target {
                self.prbs_ours[i] -= e.prbs;
                if e.direction == Direction::Uplink {
                    self.ul_sched_count -= 1;
                }
            } else {
                self.prbs_others[i] -= e.prbs;
            }
            if e.retx {
                self.harq_retx[i] -= 1;
            }
            if e.first_tx {
                self.first_tx_count[i] -= 1;
            }
        }
        while self.rntis.front().is_some_and(|&(ts, _)| ts < from) {
            let (_, old) = self.rntis.pop_front().expect("non-empty");
            if let Some(&(_, next)) = self.rntis.front() {
                self.rnti_change_pairs -= (next != old) as usize;
            }
        }
        for i in 0..2 {
            self.tbs[i].expire(from);
            self.tbs_bins[i].expire(from.as_micros() / BIN_US);
        }
    }

    /// Row 13 on rolling extrema: peak-then-drop with ≥ 4 first transmissions.
    fn tbs_down(&self, dir: Direction, th: &Thresholds) -> bool {
        let i = dir_idx(dir);
        if self.first_tx_count[i] < 4 {
            return false;
        }
        match self.tbs[i].extrema() {
            Some((max_seq, max_v, min_seq, min_v)) => {
                min_v < th.tbs_drop_fraction * max_v && max_seq < min_seq
            }
            None => false,
        }
    }

    /// Row 15 on rolling PRB sums.
    fn cross_traffic(&self, dir: Direction, th: &Thresholds) -> bool {
        let i = dir_idx(dir);
        self.prbs_ours[i] > 0
            && self.prbs_others[i] as f64 > th.cross_traffic_fraction * self.prbs_ours[i] as f64
    }

    fn clear(&mut self) {
        self.entries.clear();
        self.prbs_ours = [0; 2];
        self.prbs_others = [0; 2];
        self.harq_retx = [0; 2];
        self.first_tx_count = [0; 2];
        self.ul_sched_count = 0;
        for i in 0..2 {
            self.tbs[i].clear();
            self.tbs_bins[i].clear();
            self.mcs_groups[i].clear();
        }
        self.rntis.clear();
        self.rnti_change_pairs = 0;
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
#[derive(Debug, Clone)]
pub struct StreamingAnalyzer {
    /// The causal graph's chain table.
    program: DetectionProgram,
    cfg: DominoConfig,
    group_us: u64,
    app: [AppWindow; 2],
    playback: PlaybackWindow,
    /// Indexed `[dir][rtcp]`.
    delays: [[DelaySeries; 2]; 2],
    app_bins: [RollingBins; 2],
    dci: DciWindow,
    rlc: VecDeque<(SimTime, Direction)>,
    rlc_count: [usize; 2],
    median_scratch: Vec<f64>,
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
            group_us,
            app: Default::default(),
            playback: Default::default(),
            delays,
            app_bins: Default::default(),
            dci: Default::default(),
            rlc: VecDeque::new(),
            rlc_count: [0; 2],
            median_scratch: Vec::new(),
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
        // The per-direction group index uses the configured MCS granule.
        let group = d.ts.as_micros() / self.group_us;
        let i = dir_idx(d.direction);
        if d.is_target_ue {
            self.dci.mcs_groups[i].add(group, d.mcs as f64);
        }
        self.push_dci_inner(d);
    }

    fn push_dci_inner(&mut self, d: &DciRecord) {
        let i = dir_idx(d.direction);
        let e = DciEntry {
            ts: d.ts,
            direction: d.direction,
            target: d.is_target_ue,
            first_tx: d.is_target_ue && d.harq_retx_idx == 0,
            retx: d.is_target_ue && d.harq_retx_idx > 0,
            prbs: d.n_prbs as u64,
        };
        if e.target {
            self.dci.prbs_ours[i] += e.prbs;
            if d.direction == Direction::Uplink {
                self.dci.ul_sched_count += 1;
            }
            if let Some(&(_, last)) = self.dci.rntis.back() {
                self.dci.rnti_change_pairs += (last != d.rnti) as usize;
            }
            self.dci.rntis.push_back((d.ts, d.rnti));
        } else {
            self.dci.prbs_others[i] += e.prbs;
        }
        if e.retx {
            self.dci.harq_retx[i] += 1;
        }
        if e.first_tx {
            self.dci.first_tx_count[i] += 1;
            self.dci.tbs[i].push(d.ts, d.tbs_bits as f64);
            self.dci.tbs_bins[i].add(d.ts.as_micros() / BIN_US, d.tbs_bits as f64);
        }
        self.dci.entries.push_back(e);
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
        let th = self.cfg.thresholds.clone();
        for a in &mut self.app {
            a.expire(from, &th);
        }
        self.playback.expire(from);
        for row in &mut self.delays {
            for s in row {
                s.expire(from, &th);
            }
        }
        let from_bin = from.as_micros() / BIN_US;
        for b in &mut self.app_bins {
            b.expire(from_bin);
        }
        self.dci.expire(from);
        let from_group = from.as_micros() / self.group_us;
        for i in 0..2 {
            self.dci.mcs_groups[i].expire(from_group);
        }
        while self.rlc.front().is_some_and(|&(ts, _)| ts < from) {
            let (_, dir) = self.rlc.pop_front().expect("non-empty");
            self.rlc_count[dir_idx(dir)] -= 1;
        }
    }

    /// Emits the analysis for the window starting at `start`, expiring all
    /// state older than the window.
    ///
    /// Ingestion must sit exactly at the window end: every record with
    /// timestamp below `start + window` pushed, and none at or beyond it
    /// (the rolling counters have no upper clamp, so a future record would
    /// silently leak into this window). Checked in debug builds. Live
    /// consumers that receive records ahead of the analysis frontier must
    /// buffer them and release per window — which is exactly what
    /// [`TraceBundle::advance_until`] does for recorded traces.
    pub fn emit(&mut self, start: SimTime) -> WindowAnalysis {
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
    fn features(&mut self, from: SimTime, to: SimTime) -> FeatureVector {
        // All-scalar struct; cloning sidesteps a borrow conflict with the
        // `&mut self` median cache below.
        let th = self.cfg.thresholds.clone();
        let th = &th;
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
                self.channel_degrades(i, from, to),
            );
            v.set(
                Feature::Ran(dir, RanEvent::HarqRetx),
                self.dci.harq_retx[i] > th.harq_retx_count,
            );
            v.set(Feature::Ran(dir, RanEvent::RlcRetx), self.rlc_count[i] > 0);
        }

        // Rows 19–20.
        v.set(Feature::UlScheduling, self.dci.ul_sched_count > 0);
        v.set(Feature::RrcStateChange, self.dci.rnti_change_pairs > 0);

        // Rows 21–24: ABR playback events.
        for e in PlaybackEvent::ALL {
            v.set(Feature::Playback(e), self.playback.event(e, th));
        }
        v
    }

    /// Row 14 over the rolling absolute-index bins.
    fn app_exceeds_tbs(&self, dir: Direction, from: SimTime, to: SimTime, th: &Thresholds) -> bool {
        let i = dir_idx(dir);
        let n_bins = ((to.as_micros() - from.as_micros()) / BIN_US).max(1);
        let from_bin = from.as_micros() / BIN_US;
        let mut exceeding = 0u64;
        for b in from_bin..from_bin + n_bins {
            let a = self.app_bins[i].get(b);
            let t = self.dci.tbs_bins[i].get(b);
            if a > 0.0 && a > t {
                exceeding += 1;
            }
        }
        exceeding as f64 > th.rate_exceed_fraction * n_bins as f64
    }

    /// Row 16 over the rolling MCS groups (medians cached once per group).
    fn channel_degrades(&mut self, i: usize, from: SimTime, to: SimTime) -> bool {
        let th = &self.cfg.thresholds;
        let from_g = from.as_micros() / self.group_us;
        let to_g = to.as_micros() / self.group_us;
        self.median_scratch.clear();
        let mut scratch = std::mem::take(&mut self.median_scratch);
        self.dci.mcs_groups[i].medians_into(from_g, to_g, &mut scratch);
        let result = if scratch.len() < 4 {
            false
        } else {
            scratch.sort_by(|a, b| a.partial_cmp(b).expect("finite"));
            let p90 = scratch[((scratch.len() - 1) as f64 * 0.9) as usize];
            let low = scratch.iter().filter(|&&m| m < th.mcs_low_value).count();
            p90 < th.mcs_p90_below && low > th.mcs_low_count
        };
        self.median_scratch = scratch;
        result
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
        let domino = Domino::with_defaults();
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
}
