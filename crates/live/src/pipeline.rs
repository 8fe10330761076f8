//! The [`LivePipeline`]: an emission-time [`LiveTap`] that runs Domino's
//! incremental window analysis *during* the session and produces
//! [`LiveVerdict`]s with bounded memory. See the crate docs for the stage
//! diagram and the equivalence contract.

use std::collections::VecDeque;

use simcore::{SimDuration, SimTime};
use telemetry::{
    AppStatsRecord, DciRecord, GnbLogRecord, Lateness, LiveTap, PacketRecord, PlaybackStatsRecord,
    TapStream,
};

use domino_core::detect::{Analysis, ChainHit, DominoConfig, VerdictCoverage, WindowAnalysis};
use domino_core::features::ClientSide;
use domino_core::graph::{CausalGraph, NodeId};
use domino_core::stream::{StreamingAnalyzer, UnsupportedConfig};
use domino_obs::{HistData, HistLayout};

use crate::estimator::{DelayEstimator, ADAPTIVE_MIN_SAMPLES, DELAY_LAYOUT};
use crate::reorder::Reorder;

/// When the live pipeline may abort the session it is watching.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub enum EarlyExit {
    /// Run to the end of the session (required for post-hoc equivalence).
    #[default]
    Never,
    /// Stop once `n` chain hits have been confirmed across all emitted
    /// windows (`n = 0` is treated as 1). Overlapping windows re-confirm a
    /// persisting chain, so small `n` stops at the first incident while
    /// larger `n` waits for either a long-lived or a recurring one.
    AfterChains(usize),
    /// Stop once the verdict — the window's chain set plus unattributed
    /// consequences — has been identical for `k` consecutive windows
    /// (`k = 0` is treated as 1). Note the healthy (empty) verdict counts
    /// as stable too: on a clean call this exits ~`k` windows after warmup,
    /// which is exactly the fleet-scale triage behaviour (don't keep
    /// watching healthy calls).
    StableFor(usize),
    /// SLO-aware graceful degradation: cap the effective lateness bound so
    /// every verdict lands within `verdict_within` of its window's end,
    /// and give up on the session (stop watching, `early_exited` set) once
    /// the delay estimator shows that honouring the cap would drop more
    /// than `max_drop_risk` (a fraction in `[0, 1]`) of the telemetry.
    /// Verdicts emitted up to that point carry their
    /// [`VerdictCoverage`] so consumers know what they were worth.
    Slo {
        /// Maximum verdict latency after a window's end.
        verdict_within: SimDuration,
        /// Tolerated late-drop risk before the session is abandoned.
        max_drop_risk: f64,
    },
}

/// Configuration of the live stages (the analysis itself is configured by
/// the [`DominoConfig`] passed to [`LivePipeline::new`]).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LiveConfig {
    /// Watermark lateness policy: a record with timestamp `t` is expected
    /// to reach the tap by session time `t + bound`. Larger bounds
    /// tolerate slower telemetry (packets are only final at delivery, so
    /// the bound must cover the longest one-way delay for exact post-hoc
    /// equivalence) at the cost of diagnosis latency and retained memory,
    /// both O(bound). [`Lateness::Static`] fixes the bound;
    /// [`Lateness::Adaptive`] tracks a quantile of the observed delay
    /// distribution per session.
    pub lateness: Lateness,
    /// Early-exit policy.
    pub early_exit: EarlyExit,
}

impl Default for LiveConfig {
    fn default() -> Self {
        LiveConfig {
            lateness: Lateness::Static(SimDuration::from_secs(5)),
            early_exit: EarlyExit::Never,
        }
    }
}

/// Callback type for [`LivePipeline::set_verdict_hook`].
type VerdictHook = Box<dyn FnMut(&LiveVerdict)>;

/// One incremental diagnosis event: the verdict of a just-closed window.
#[derive(Debug, Clone, PartialEq)]
pub struct LiveVerdict {
    /// Start of the window this verdict covers.
    pub window_start: SimTime,
    /// Session time at which the verdict was emitted (window end + lateness
    /// during the call; the session end for windows flushed at finish).
    pub emitted_at: SimTime,
    /// Complete causal chains active in the window.
    pub chains: Vec<ChainHit>,
    /// Active consequences with no complete chain to a root cause.
    pub unknown_consequences: Vec<NodeId>,
    /// Whether this verdict differs from the previous window's.
    pub changed: bool,
    /// How much of the telemetry this window was actually analysed with —
    /// full coverage unless records were late-dropped or a stream gapped.
    pub coverage: VerdictCoverage,
}

/// Counters the pipeline maintains while it runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct LiveStats {
    /// Records that entered the tap (all six streams, packets once).
    pub records_seen: usize,
    /// Records dropped for arriving behind the released watermark frontier
    /// (lateness-bound violations; each one may cost verdict fidelity).
    pub late_records_dropped: usize,
    /// Packet deliveries that arrived after their packet's fate was frozen
    /// as lost — the packet-stream flavour of a lateness violation.
    pub late_deliveries: usize,
    /// Windows emitted so far.
    pub windows_emitted: usize,
    /// High-water mark of retained records (reorder buffers + in-flight
    /// packets), read after every tick and at each window close just
    /// before the close releases the window's records into the analyzer.
    /// Bounded by O(window + lateness) for any session length — asserted
    /// by `tests/live_equivalence.rs`.
    pub peak_retained_records: usize,
    /// Whether an [`EarlyExit`] policy stopped the session.
    pub early_exited: bool,
    /// [`Self::late_records_dropped`] broken out per telemetry stream,
    /// indexed by [`TapStream::idx`] (the packet slot counts late sends).
    pub late_drops_by_stream: [usize; TapStream::COUNT],
    /// Windows whose verdict carried degraded coverage (late drops or
    /// gapped streams).
    pub degraded_windows: usize,
}

/// Tracks the packet contribution to the bundle horizon: the record with
/// the greatest `(sent, emission id)`, and its receive time once known —
/// reproducing exactly what `TraceBundle::horizon()` reads from the last
/// element of the sorted packet vector.
#[derive(Debug, Clone, Copy, Default)]
struct PacketHorizon {
    sent: SimTime,
    id: u64,
    contrib: SimTime,
    any: bool,
}

impl PacketHorizon {
    fn on_sent(&mut self, id: u64, sent: SimTime) {
        if !self.any || sent >= self.sent {
            *self = PacketHorizon {
                sent,
                id,
                contrib: sent,
                any: true,
            };
        }
    }

    fn on_delivered(&mut self, id: u64, at: SimTime) {
        if self.any && id == self.id {
            self.contrib = self.contrib.max(at);
        }
    }
}

/// In-flight packet staging, indexed by send id.
///
/// `ids` holds the sorted send ids of every slot still in the ring. The
/// engine hands out ids in increasing order, so a send appends and a
/// delivery finds its slot at `id − ids[0]`; only gapped ids (sends
/// dropped upstream) and out-of-order ids fall back to a binary search,
/// over the 8-byte ids rather than the records. A released slot is emptied
/// and leaves the ring once it reaches the front.
///
/// The release order, `(sent, id)`, lives in the compact `order` ring: an
/// append for a send in order, a stable insert for the small within-tick
/// inversions. It holds one key per pending record.
#[derive(Debug, Clone, Default)]
struct PendingPackets {
    ids: VecDeque<u64>,
    slots: VecDeque<Option<PacketRecord>>,
    order: VecDeque<(SimTime, u64)>,
    released: usize,
}

impl PendingPackets {
    /// Stages the record announced as `id`. Ids name one packet: a second
    /// send for an id that is still pending is ignored.
    fn insert(&mut self, id: u64, record: PacketRecord) {
        let key = (record.sent, id);
        if self.ids.back().is_none_or(|&last| last < id) {
            self.ids.push_back(id);
            self.slots.push_back(Some(record));
        } else {
            match self.ids.binary_search(&id) {
                Ok(at) if self.slots[at].is_some() => return,
                Ok(at) => self.slots[at] = Some(record),
                Err(at) => {
                    self.ids.insert(at, id);
                    self.slots.insert(at, Some(record));
                }
            }
        }
        if self.order.back().is_none_or(|&last| last <= key) {
            self.order.push_back(key);
        } else {
            let at = self.order.partition_point(|&k| k <= key);
            self.order.insert(at, key);
        }
    }

    /// The ring position of `id`, if it is still in the ring.
    fn slot_of(&self, id: u64) -> Option<usize> {
        let first = *self.ids.front()?;
        let at = usize::try_from(id.checked_sub(first)?).ok()?;
        if self.ids.get(at) == Some(&id) {
            return Some(at);
        }
        self.ids.binary_search(&id).ok()
    }

    /// Patches the record announced as `id` with its delivery time,
    /// returning its send time; `None` if no record with that id is
    /// pending (its fate was already frozen, or it was never sent).
    fn deliver(&mut self, id: u64, at: SimTime) -> Option<SimTime> {
        let slot = self.slot_of(id)?;
        let record = self.slots[slot].as_mut()?;
        record.received = Some(at);
        Some(record.sent)
    }

    /// Releases every packet with `sent < t` to `sink` in `(sent, id)`
    /// order, freezing its fate.
    fn release_below(&mut self, t: SimTime, mut sink: impl FnMut(PacketRecord)) {
        while let Some(&(sent, id)) = self.order.front() {
            if sent >= t {
                break;
            }
            self.order.pop_front();
            let record = self.slot_of(id).and_then(|slot| self.slots[slot].take());
            if let Some(record) = record {
                self.released += 1;
                sink(record);
            }
        }
        while self.slots.front().is_some_and(Option::is_none) {
            self.slots.pop_front();
            self.ids.pop_front();
        }
    }

    /// Records pending (not ring slots).
    fn len(&self) -> usize {
        self.order.len()
    }

    fn released_count(&self) -> usize {
        self.released
    }

    fn clear(&mut self) {
        self.ids.clear();
        self.slots.clear();
        self.order.clear();
        self.released = 0;
    }
}

/// Online diagnosis pipeline for one session; implements [`LiveTap`].
///
/// Drive it through a tapped session run and collect the results:
///
/// ```no_run
/// use domino_live::{LiveConfig, LivePipeline};
/// # let cfg = scenarios::SessionConfig::default();
/// let mut pipe = LivePipeline::with_defaults(LiveConfig::default()).unwrap();
/// let bundle = scenarios::SessionSpec::cell(scenarios::amarisoft(), cfg).run_with_tap(&mut pipe);
/// let analysis = pipe.take_analysis(bundle.meta.duration);
/// ```
pub struct LivePipeline {
    analyzer: StreamingAnalyzer,
    live_cfg: LiveConfig,

    // Reorder stage, one buffer per out-of-band stream; packets are staged
    // in `pending` until their fate resolves or their window closes.
    app_local: Reorder<AppStatsRecord>,
    app_remote: Reorder<AppStatsRecord>,
    dci: Reorder<DciRecord>,
    gnb: Reorder<GnbLogRecord>,
    playback: Reorder<PlaybackStatsRecord>,
    pending: PendingPackets,
    packet_frontier: SimTime,
    late_sends: usize,
    late_deliveries: usize,

    // Adaptive lateness: observed delay distribution and the bound
    // currently in effect (fixed for `Lateness::Static`).
    estimator: DelayEstimator,
    effective_lateness: SimDuration,
    bound_hist: HistData,
    risk_hist: HistData,

    // Per-window coverage bookkeeping: released/late counts at the
    // previous window close, so each close sees only its own delta.
    cov_released_base: [usize; TapStream::COUNT],
    cov_late_base: usize,
    degraded_windows: usize,

    // Window schedule and horizon tracking.
    next_start: SimTime,
    now: SimTime,
    horizon_lb: SimTime,
    packet_horizon: PacketHorizon,

    // Outputs.
    windows: Vec<WindowAnalysis>,
    verdicts: Vec<LiveVerdict>,
    hook: Option<VerdictHook>,
    records_seen: usize,
    peak_retained: usize,
    windows_emitted: usize,
    chain_total: usize,
    stable_run: usize,
    stopped: bool,
    finished: bool,
}

impl LivePipeline {
    /// Creates a pipeline over `graph` with the given engine and live
    /// configurations, or reports which rule of the [`DominoConfig`]
    /// contract `cfg` breaks (the check [`StreamingAnalyzer::new`] makes).
    pub fn new(
        graph: CausalGraph,
        cfg: DominoConfig,
        live_cfg: LiveConfig,
    ) -> Result<Self, UnsupportedConfig> {
        let warmup = cfg.warmup;
        let analyzer = StreamingAnalyzer::new(graph, cfg)?;
        let effective_lateness = Self::initial_bound(&live_cfg);
        Ok(LivePipeline {
            analyzer,
            live_cfg,
            app_local: Reorder::new(),
            app_remote: Reorder::new(),
            dci: Reorder::new(),
            gnb: Reorder::new(),
            playback: Reorder::new(),
            pending: PendingPackets::default(),
            packet_frontier: SimTime::ZERO,
            late_sends: 0,
            late_deliveries: 0,
            estimator: DelayEstimator::new(),
            effective_lateness,
            bound_hist: HistData::EMPTY,
            risk_hist: HistData::EMPTY,
            cov_released_base: [0; TapStream::COUNT],
            cov_late_base: 0,
            degraded_windows: 0,
            next_start: SimTime::ZERO + warmup,
            now: SimTime::ZERO,
            horizon_lb: SimTime::ZERO,
            packet_horizon: PacketHorizon::default(),
            windows: Vec::new(),
            verdicts: Vec::new(),
            hook: None,
            records_seen: 0,
            peak_retained: 0,
            windows_emitted: 0,
            chain_total: 0,
            stable_run: 0,
            stopped: false,
            finished: false,
        })
    }

    /// A pipeline over the paper's default graph and engine configuration.
    pub fn with_defaults(live_cfg: LiveConfig) -> Result<Self, UnsupportedConfig> {
        Self::new(
            domino_core::dsl::default_graph(),
            DominoConfig::default(),
            live_cfg,
        )
    }

    /// The engine configuration.
    pub fn config(&self) -> &DominoConfig {
        self.analyzer.config()
    }

    /// Replaces the live-stage configuration. Call right after
    /// [`Self::reset`] when a pooled pipeline is reused for a session with
    /// a different lateness or exit policy; the effective bound restarts
    /// from the new policy's cold-start value.
    pub fn set_live_config(&mut self, cfg: LiveConfig) {
        self.live_cfg = cfg;
        self.effective_lateness = Self::initial_bound(&self.live_cfg);
    }

    /// The observed per-record delay distribution, combined across
    /// streams (milliseconds, in 17 power-of-two buckets).
    pub fn delay_hist(&self) -> &HistData {
        self.estimator.combined()
    }

    /// The effective lateness bound sampled at each window close
    /// (milliseconds, in the same buckets as [`Self::delay_hist`]).
    pub fn bound_hist(&self) -> &HistData {
        &self.bound_hist
    }

    /// The estimated late-drop risk sampled at each window close
    /// (percent; layout [`HistLayout::Pct10`]).
    pub fn risk_hist(&self) -> &HistData {
        &self.risk_hist
    }

    /// The online delay estimator feeding adaptive lateness and SLO
    /// verdicts.
    pub fn estimator(&self) -> &DelayEstimator {
        &self.estimator
    }

    /// Installs a callback invoked synchronously for every emitted verdict
    /// (in addition to the retained stream drained by
    /// [`Self::drain_verdicts`]).
    pub fn set_verdict_hook(&mut self, hook: impl FnMut(&LiveVerdict) + 'static) {
        self.hook = Some(Box::new(hook));
    }

    /// Counters so far (final after the session's `on_finish`).
    pub fn stats(&self) -> LiveStats {
        let late_drops_by_stream = [
            self.app_local.late_count(),
            self.app_remote.late_count(),
            self.playback.late_count(),
            self.dci.late_count(),
            self.gnb.late_count(),
            self.late_sends,
        ];
        LiveStats {
            records_seen: self.records_seen,
            late_records_dropped: late_drops_by_stream.iter().sum(),
            late_deliveries: self.late_deliveries,
            windows_emitted: self.windows_emitted,
            peak_retained_records: self.peak_retained,
            early_exited: self.stopped,
            late_drops_by_stream,
            degraded_windows: self.degraded_windows,
        }
    }

    /// Takes the verdicts emitted since the last drain.
    pub fn drain_verdicts(&mut self) -> Vec<LiveVerdict> {
        std::mem::take(&mut self.verdicts)
    }

    /// The verdicts retained since the last drain, without taking them —
    /// the allocation-free read path ([`Self::drain_verdicts`] gives up the
    /// vector's capacity; observers that only need to look, e.g. sweep
    /// metric rollups, must not).
    pub fn verdicts(&self) -> &[LiveVerdict] {
        &self.verdicts
    }

    /// Takes the accumulated per-window results as a batch-shaped
    /// [`Analysis`] (`duration` is the session duration, used for
    /// per-minute normalisation — pass `bundle.meta.duration`).
    pub fn take_analysis(&mut self, duration: SimDuration) -> Analysis {
        Analysis {
            windows: std::mem::take(&mut self.windows),
            duration,
        }
    }

    /// Clears all per-session state so the pipeline can watch another
    /// session (allocations and the verdict hook are kept).
    pub fn reset(&mut self) {
        let warmup = self.analyzer.config().warmup;
        self.analyzer.reset();
        self.app_local.clear();
        self.app_remote.clear();
        self.dci.clear();
        self.gnb.clear();
        self.playback.clear();
        self.pending.clear();
        self.packet_frontier = SimTime::ZERO;
        self.late_sends = 0;
        self.late_deliveries = 0;
        self.estimator.clear();
        self.effective_lateness = Self::initial_bound(&self.live_cfg);
        self.bound_hist = HistData::EMPTY;
        self.risk_hist = HistData::EMPTY;
        self.cov_released_base = [0; TapStream::COUNT];
        self.cov_late_base = 0;
        self.degraded_windows = 0;
        self.next_start = SimTime::ZERO + warmup;
        self.now = SimTime::ZERO;
        self.horizon_lb = SimTime::ZERO;
        self.packet_horizon = PacketHorizon::default();
        self.windows.clear();
        self.verdicts.clear();
        self.records_seen = 0;
        self.peak_retained = 0;
        self.windows_emitted = 0;
        self.chain_total = 0;
        self.stable_run = 0;
        self.stopped = false;
        self.finished = false;
    }

    /// Records retained right now across all live stages.
    pub fn retained_records(&self) -> usize {
        self.pending.len()
            + self.app_local.len()
            + self.app_remote.len()
            + self.dci.len()
            + self.gnb.len()
            + self.playback.len()
    }

    fn note_retained(&mut self) {
        self.peak_retained = self.peak_retained.max(self.retained_records());
    }

    /// The cold-start bound for a configuration: the policy's maximum,
    /// capped by the verdict-latency SLO if one is set.
    fn initial_bound(cfg: &LiveConfig) -> SimDuration {
        let mut b = cfg.lateness.max_bound();
        if let EarlyExit::Slo { verdict_within, .. } = cfg.early_exit {
            b = b.min(verdict_within);
        }
        b
    }

    /// Re-derives the effective lateness bound from the policy and the
    /// estimator. Called once per tick; deterministic because the
    /// estimator state is a pure function of the session's event sequence.
    fn refresh_lateness(&mut self) {
        let mut bound = match self.live_cfg.lateness {
            Lateness::Static(s) => s,
            Lateness::Adaptive {
                target_quantile,
                floor,
                ceil,
            } => {
                if self.estimator.samples() < ADAPTIVE_MIN_SAMPLES {
                    ceil
                } else {
                    // Cap in ms space before converting: `bound_ms` is
                    // u64::MAX on an empty/saturated histogram and
                    // `from_millis` would overflow.
                    let ms = self
                        .estimator
                        .bound_ms(target_quantile)
                        .min(ceil.as_millis());
                    SimDuration::from_millis(ms).max(floor).min(ceil)
                }
            }
        };
        if let EarlyExit::Slo { verdict_within, .. } = self.live_cfg.early_exit {
            bound = bound.min(verdict_within);
        }
        self.effective_lateness = bound;
    }

    /// The watermark: session time minus the effective lateness bound.
    fn watermark(&self) -> SimTime {
        SimTime::from_micros(
            self.now
                .as_micros()
                .saturating_sub(self.effective_lateness.as_micros()),
        )
    }

    /// Closes every window whose end the watermark (and the horizon lower
    /// bound — a window must not outrun the records that prove the session
    /// actually extends past its end) has passed.
    fn close_ready(&mut self) {
        let window = self.analyzer.config().window;
        while !self.stopped {
            let end = self.next_start + window;
            if self.watermark() < end || end > self.horizon_lb {
                break;
            }
            self.close_one(end);
        }
    }

    /// The coverage annotation for a window just released: which streams
    /// contributed nothing to the newly released span despite having
    /// produced records, and how many records were late-dropped since the
    /// previous close. Pure integer bookkeeping over per-stream counters,
    /// so byte-identical across partitionings.
    fn window_coverage(&mut self) -> VerdictCoverage {
        let released = [
            self.app_local.released_count(),
            self.app_remote.released_count(),
            self.playback.released_count(),
            self.dci.released_count(),
            self.gnb.released_count(),
            self.pending.released_count(),
        ];
        let buffered = [
            self.app_local.len(),
            self.app_remote.len(),
            self.playback.len(),
            self.dci.len(),
            self.gnb.len(),
            self.pending.len(),
        ];
        let late = [
            self.app_local.late_count(),
            self.app_remote.late_count(),
            self.playback.late_count(),
            self.dci.late_count(),
            self.gnb.late_count(),
            self.late_sends,
        ];
        let mut gapped = 0u8;
        for i in 0..TapStream::COUNT {
            let delta = released[i] - self.cov_released_base[i];
            // A stream that never produced anything (e.g. playback on an
            // RTC session) is absent, not gapped.
            let pushed_ever = released[i] + buffered[i] + late[i];
            if delta == 0 && pushed_ever > 0 {
                gapped |= 1 << i;
            }
        }
        let late_now: usize = late.iter().sum();
        let late_drops = late_now - self.cov_late_base;
        self.cov_released_base = released;
        self.cov_late_base = late_now;
        let confidence =
            (1.0 - 0.2 * f64::from(gapped.count_ones()) - (0.02 * late_drops as f64).min(0.5))
                .max(0.0);
        VerdictCoverage {
            late_drops,
            gapped_streams: gapped,
            confidence,
        }
    }

    /// Releases everything the window `[next_start, end)` still needs
    /// straight into the analyzer and emits the window.
    fn close_one(&mut self, end: SimTime) {
        // The high-water mark counts the records this close releases, so
        // read it while they are still retained.
        self.note_retained();
        let analyzer = &mut self.analyzer;
        self.app_local
            .release_below(end, |r| analyzer.push_app(ClientSide::Local, &r));
        self.app_remote
            .release_below(end, |r| analyzer.push_app(ClientSide::Remote, &r));
        // Packets sent before the window end: their fate is frozen now —
        // a delivery that arrives later is counted as late.
        self.pending
            .release_below(end, |r| analyzer.push_packet(&r));
        self.dci.release_below(end, |r| analyzer.push_dci(&r));
        self.gnb.release_below(end, |r| analyzer.push_gnb(&r));
        self.playback
            .release_below(end, |r| analyzer.push_playback(&r));
        self.packet_frontier = self.packet_frontier.max(end);

        let coverage = self.window_coverage();
        let bound_ms = self.effective_lateness.as_millis();
        self.bound_hist.record(DELAY_LAYOUT, bound_ms);
        self.risk_hist
            .record(HistLayout::Pct10, self.estimator.drop_risk_pct(bound_ms));

        let analysis = self.analyzer.emit(self.next_start);
        self.next_start += self.analyzer.config().step;
        self.record_window(analysis, coverage);
    }

    /// Appends one window's verdict to the output streams and applies the
    /// early-exit policy.
    fn record_window(&mut self, w: WindowAnalysis, coverage: VerdictCoverage) {
        let changed = self.windows.last().is_none_or(|prev| {
            prev.chains != w.chains || prev.unknown_consequences != w.unknown_consequences
        });
        self.stable_run = if changed { 1 } else { self.stable_run + 1 };
        self.chain_total += w.chains.len();
        if coverage.is_degraded() {
            self.degraded_windows += 1;
        }
        let verdict = LiveVerdict {
            window_start: w.start,
            emitted_at: self.now,
            chains: w.chains.clone(),
            unknown_consequences: w.unknown_consequences.clone(),
            changed,
            coverage,
        };
        if let Some(hook) = &mut self.hook {
            hook(&verdict);
        }
        self.verdicts.push(verdict);
        self.windows.push(w);
        self.windows_emitted += 1;
        // A bound of 0 would stop unconditionally at the first (possibly
        // empty) window; treat it as 1 so dynamically computed bounds
        // degrade to "first confirmation" instead of "never look".
        match self.live_cfg.early_exit {
            EarlyExit::Never => {}
            EarlyExit::AfterChains(n) => self.stopped = self.chain_total >= n.max(1),
            EarlyExit::StableFor(k) => self.stopped = self.stable_run >= k.max(1),
            EarlyExit::Slo { max_drop_risk, .. } => {
                // Give up once the observed delay distribution shows the
                // SLO-capped bound drops more telemetry than tolerated.
                self.stopped = self.estimator.samples() >= ADAPTIVE_MIN_SAMPLES
                    && self
                        .estimator
                        .drop_risk(self.effective_lateness.as_millis())
                        > max_drop_risk;
            }
        }
    }

    /// The exact post-hoc horizon: max last-record time over all six streams,
    /// with the packet term read from the greatest-`(sent, id)` record just
    /// like `TraceBundle::horizon()` reads the sorted vector's last element.
    fn horizon(&self) -> SimTime {
        let mut h = self.horizon_lb;
        if self.packet_horizon.any {
            h = h.max(self.packet_horizon.contrib);
        }
        h
    }
}

impl LiveTap for LivePipeline {
    fn on_app_local(&mut self, r: &AppStatsRecord) {
        self.records_seen += 1;
        self.estimator
            .record(TapStream::AppLocal, self.now.saturating_since(r.ts));
        self.horizon_lb = self.horizon_lb.max(r.ts);
        self.app_local.push(r.ts, r.clone());
    }

    fn on_app_remote(&mut self, r: &AppStatsRecord) {
        self.records_seen += 1;
        self.estimator
            .record(TapStream::AppRemote, self.now.saturating_since(r.ts));
        self.horizon_lb = self.horizon_lb.max(r.ts);
        self.app_remote.push(r.ts, r.clone());
    }

    fn on_dci(&mut self, r: &DciRecord) {
        self.records_seen += 1;
        self.estimator
            .record(TapStream::Dci, self.now.saturating_since(r.ts));
        self.horizon_lb = self.horizon_lb.max(r.ts);
        self.dci.push(r.ts, r.clone());
    }

    fn on_gnb(&mut self, r: &GnbLogRecord) {
        self.records_seen += 1;
        self.estimator
            .record(TapStream::Gnb, self.now.saturating_since(r.ts));
        self.horizon_lb = self.horizon_lb.max(r.ts);
        self.gnb.push(r.ts, r.clone());
    }

    fn on_playback(&mut self, r: &PlaybackStatsRecord) {
        self.records_seen += 1;
        self.estimator
            .record(TapStream::Playback, self.now.saturating_since(r.ts));
        self.horizon_lb = self.horizon_lb.max(r.ts);
        self.playback.push(r.ts, r.clone());
    }

    fn on_packet_sent(&mut self, id: u64, r: &PacketRecord) {
        self.records_seen += 1;
        self.packet_horizon.on_sent(id, r.sent);
        if r.sent < self.packet_frontier {
            // Can only happen when the lateness bound is violated at the
            // source; the windows covering it have already closed.
            self.late_sends += 1;
            return;
        }
        self.pending.insert(id, r.clone());
    }

    fn on_packet_delivered(&mut self, id: u64, at: SimTime) {
        self.packet_horizon.on_delivered(id, at);
        match self.pending.deliver(id, at) {
            // A packet's observable delay is how long its fate stayed
            // open: delivery time minus send time.
            Some(sent) => self
                .estimator
                .record(TapStream::Packet, at.saturating_since(sent)),
            None => {
                // Fate already frozen as lost when its window closed.
                self.late_deliveries += 1;
            }
        }
    }

    fn on_tick(&mut self, now: SimTime) {
        self.now = now;
        self.refresh_lateness();
        self.close_ready();
        self.note_retained();
    }

    fn on_finish(&mut self, now: SimTime) {
        self.now = now;
        if self.finished {
            return;
        }
        self.finished = true;
        if self.stopped {
            return;
        }
        // Every record is now final, so the watermark no longer gates the
        // closes: close the remaining windows incrementally against the
        // exact post-hoc horizon. Each close releases exactly what its window
        // needs, keeping the retained high-water mark at its in-flight
        // level instead of spiking on a whole-tail flush.
        let horizon = self.horizon();
        let window = self.analyzer.config().window;
        while !self.stopped && self.next_start + window <= horizon {
            self.close_one(self.next_start + window);
        }
        // Discard the tail past the last window — nothing further will be
        // analysed. Late counters survive; they feed the final stats.
        let flush_to = SimTime::from_micros(u64::MAX);
        self.app_local.release_below(flush_to, |_| {});
        self.app_remote.release_below(flush_to, |_| {});
        self.dci.release_below(flush_to, |_| {});
        self.gnb.release_below(flush_to, |_| {});
        self.playback.release_below(flush_to, |_| {});
        self.pending.release_below(flush_to, |_| {});
        self.packet_frontier = flush_to;
    }

    fn should_stop(&self) -> bool {
        self.stopped
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use domino_core::{oracle, Domino};
    use scenarios::{amarisoft, tmobile_fdd_15mhz_quiet, ScriptAction, SessionConfig, SessionSpec};
    use telemetry::Direction;

    fn cfg(seed: u64, secs: u64) -> SessionConfig {
        SessionConfig {
            duration: SimDuration::from_secs(secs),
            seed,
            ..Default::default()
        }
    }

    fn static_cfg(lateness: SimDuration, early_exit: EarlyExit) -> LiveConfig {
        LiveConfig {
            lateness: Lateness::Static(lateness),
            early_exit,
        }
    }

    fn generous() -> LiveConfig {
        // Covers any in-network delay these short sessions can produce.
        static_cfg(SimDuration::from_secs(30), EarlyExit::Never)
    }

    fn assert_identical(batch: &Analysis, live: &Analysis) {
        assert_eq!(
            batch.windows.len(),
            live.windows.len(),
            "window counts differ"
        );
        assert_eq!(batch.duration, live.duration);
        for (b, l) in batch.windows.iter().zip(&live.windows) {
            assert_eq!(b.start, l.start);
            assert_eq!(
                b.features,
                l.features,
                "features diverge at {:?}: batch {:?} vs live {:?}",
                b.start,
                b.features.active_names(),
                l.features.active_names()
            );
            assert_eq!(b.chains, l.chains, "chains diverge at {:?}", b.start);
            assert_eq!(b.unknown_consequences, l.unknown_consequences);
        }
    }

    #[test]
    fn live_matches_batch_on_healthy_session() {
        let domino = Domino::with_defaults();
        let mut pipe = LivePipeline::with_defaults(generous()).unwrap();
        let bundle = SessionSpec::cell(amarisoft(), cfg(41, 20)).run_with_tap(&mut pipe);
        let live = pipe.take_analysis(bundle.meta.duration);
        let batch = oracle::analyze(&domino, &bundle);
        assert_identical(&batch, &live);
        let stats = pipe.stats();
        assert_eq!(stats.late_records_dropped, 0);
        assert_eq!(stats.late_deliveries, 0);
        assert_eq!(stats.degraded_windows, 0);
        assert!(!stats.early_exited);
    }

    #[test]
    fn live_matches_batch_on_impaired_session() {
        let domino = Domino::with_defaults();
        let spec = SessionSpec::cell(tmobile_fdd_15mhz_quiet(), cfg(42, 25))
            .with_script(ScriptAction::CrossTraffic {
                dir: Direction::Downlink,
                from: SimTime::from_secs(8),
                to: SimTime::from_secs(12),
                prb_fraction: 0.97,
            })
            .with_script(ScriptAction::RrcRelease {
                at: SimTime::from_secs(16),
            });
        let mut pipe = LivePipeline::with_defaults(generous()).unwrap();
        let bundle = spec.run_with_tap(&mut pipe);
        let live = pipe.take_analysis(bundle.meta.duration);
        let batch = oracle::analyze(&domino, &bundle);
        assert!(
            batch.windows.iter().any(|w| !w.chains.is_empty()),
            "impairments must produce chains or the equivalence claim is weak"
        );
        assert_identical(&batch, &live);
    }

    #[test]
    fn verdicts_arrive_during_the_call_not_after() {
        let mut pipe =
            LivePipeline::with_defaults(static_cfg(SimDuration::from_secs(2), EarlyExit::Never))
                .unwrap();
        let bundle = SessionSpec::cell(amarisoft(), cfg(43, 20)).run_with_tap(&mut pipe);
        let verdicts = pipe.drain_verdicts();
        assert!(!verdicts.is_empty());
        // With a 2 s bound, a window's verdict lands ~2 s after its end —
        // not at the session end like a post-hoc pass. Windows whose
        // watermark deadline falls past the session end are flushed at the
        // finish instant instead.
        let window = pipe.config().window;
        let lateness = pipe.effective_lateness;
        let session_end = SimTime::ZERO + bundle.meta.duration;
        for v in &verdicts {
            let due = (v.window_start + window + lateness).min(session_end);
            assert!(
                v.emitted_at >= due && v.emitted_at <= due + SimDuration::from_millis(10),
                "verdict for {:?} emitted at {:?}, expected ~{due:?}",
                v.window_start,
                v.emitted_at
            );
        }
        // The first verdicts must predate the session end by a wide margin.
        assert!(verdicts[0].emitted_at < SimTime::from_secs(12));
    }

    #[test]
    fn early_exit_stops_the_simulation() {
        let impaired = |seed| {
            SessionSpec::cell(tmobile_fdd_15mhz_quiet(), cfg(seed, 30)).with_script(
                ScriptAction::CrossTraffic {
                    dir: Direction::Downlink,
                    from: SimTime::from_secs(6),
                    to: SimTime::from_secs(26),
                    prb_fraction: 0.97,
                },
            )
        };
        let mut pipe = LivePipeline::with_defaults(static_cfg(
            SimDuration::from_secs(1),
            EarlyExit::AfterChains(1),
        ))
        .unwrap();
        let truncated = impaired(44).run_with_tap(&mut pipe);
        let full = impaired(44).run();
        assert!(pipe.stats().early_exited);
        assert!(pipe.stats().windows_emitted > 0);
        assert!(
            truncated.packets.len() < full.packets.len(),
            "early exit must abort the simulation itself"
        );
        assert!(pipe
            .take_analysis(truncated.meta.duration)
            .windows
            .iter()
            .any(|w| !w.chains.is_empty()));
    }

    #[test]
    fn stable_verdict_exits_quickly_on_healthy_call() {
        let mut pipe = LivePipeline::with_defaults(static_cfg(
            SimDuration::from_secs(1),
            EarlyExit::StableFor(4),
        ))
        .unwrap();
        let bundle = SessionSpec::cell(amarisoft(), cfg(45, 60)).run_with_tap(&mut pipe);
        let stats = pipe.stats();
        assert!(stats.early_exited);
        assert!(
            stats.windows_emitted >= 4,
            "needs at least the stability run"
        );
        // 60 s were requested; the triage verdict should land in well under
        // a third of that.
        assert!(bundle.horizon() < SimTime::from_secs(20));
    }

    #[test]
    fn reset_reuses_pipeline_across_sessions() {
        let domino = Domino::with_defaults();
        let mut pipe = LivePipeline::with_defaults(generous()).unwrap();
        let b1 = SessionSpec::cell(amarisoft(), cfg(46, 15)).run_with_tap(&mut pipe);
        let first = pipe.take_analysis(b1.meta.duration);
        pipe.reset();
        let b2 = SessionSpec::cell(amarisoft(), cfg(47, 15)).run_with_tap(&mut pipe);
        let second = pipe.take_analysis(b2.meta.duration);
        assert_identical(&oracle::analyze(&domino, &b1), &first);
        assert_identical(&oracle::analyze(&domino, &b2), &second);
    }

    #[test]
    fn late_records_are_counted_not_crashing() {
        let mut pipe = LivePipeline::with_defaults(static_cfg(
            SimDuration::from_millis(500),
            EarlyExit::Never,
        ))
        .unwrap();
        // Drive the tap by hand: advance far enough that windows close,
        // then inject a record from the deep past.
        for i in 0..400u64 {
            let mut s = AppStatsRecord::baseline(SimTime::from_millis(i * 50));
            s.inbound_fps = 30.0;
            pipe.on_app_local(&s);
            pipe.on_app_remote(&s);
            pipe.on_tick(SimTime::from_millis(i * 50));
        }
        assert!(pipe.stats().windows_emitted > 0);
        let stale = AppStatsRecord::baseline(SimTime::from_millis(100));
        pipe.on_app_local(&stale);
        let stats = pipe.stats();
        assert_eq!(stats.late_records_dropped, 1);
        // The per-stream breakout attributes the drop to its stream.
        assert_eq!(stats.late_drops_by_stream[TapStream::AppLocal.idx()], 1);
        assert_eq!(stats.late_drops_by_stream[TapStream::AppRemote.idx()], 0);
        // A delivery for an unknown (already-frozen) packet is late too.
        pipe.on_packet_delivered(999, SimTime::from_secs(21));
        assert_eq!(pipe.stats().late_deliveries, 1);
    }

    #[test]
    fn verdict_hook_fires_per_window() {
        use std::cell::RefCell;
        use std::rc::Rc;
        let seen = Rc::new(RefCell::new(0usize));
        let seen2 = Rc::clone(&seen);
        let mut pipe = LivePipeline::with_defaults(generous()).unwrap();
        pipe.set_verdict_hook(move |_| *seen2.borrow_mut() += 1);
        SessionSpec::cell(amarisoft(), cfg(48, 15)).run_with_tap(&mut pipe);
        assert_eq!(*seen.borrow(), pipe.stats().windows_emitted);
        assert!(*seen.borrow() > 0);
    }

    #[test]
    fn unaligned_config_is_rejected() {
        // One configuration per rule of the contract: both live
        // constructors report what `Domino::try_new` reports.
        let with = |edit: fn(&mut DominoConfig)| {
            let mut cfg = DominoConfig::default();
            edit(&mut cfg);
            cfg
        };
        let off_contract = [
            with(|c| c.step = SimDuration::from_millis(333)),
            with(|c| c.warmup = SimDuration::from_millis(150)),
            with(|c| c.window = SimDuration::from_millis(2_050)),
            with(|c| c.step = SimDuration::ZERO),
            with(|c| c.thresholds.mcs_group_ms = 0),
        ];
        let graph = domino_core::dsl::default_graph();
        for cfg in off_contract {
            let want = Domino::try_new(graph.clone(), cfg.clone()).map(|_| ());
            assert!(want.is_err(), "{cfg:?}");
            let live = LiveConfig::default();
            let pipe = LivePipeline::new(graph.clone(), cfg.clone(), live);
            assert_eq!(pipe.map(|_| ()), want, "{cfg:?}");
            let pool = crate::PipelinePool::new(graph.clone(), cfg.clone(), live);
            assert_eq!(pool.map(|_| ()), want, "{cfg:?}");
        }
    }

    #[test]
    fn memory_stays_bounded_while_running() {
        let mut pipe =
            LivePipeline::with_defaults(static_cfg(SimDuration::from_secs(2), EarlyExit::Never))
                .unwrap();
        let bundle = SessionSpec::cell(amarisoft(), cfg(49, 30)).run_with_tap(&mut pipe);
        let stats = pipe.stats();
        assert!(stats.records_seen as f64 >= bundle.total_records() as f64 * 0.99);
        assert!(
            stats.peak_retained_records < bundle.total_records() / 2,
            "peak {} vs total {}",
            stats.peak_retained_records,
            bundle.total_records()
        );
        // Everything was drained by the finish flush.
        assert_eq!(pipe.retained_records(), 0);
    }

    #[test]
    fn verdicts_match_windows() {
        let mut pipe = LivePipeline::with_defaults(generous()).unwrap();
        let bundle = SessionSpec::cell(amarisoft(), cfg(50, 15)).run_with_tap(&mut pipe);
        let verdicts = pipe.drain_verdicts();
        let analysis = pipe.take_analysis(bundle.meta.duration);
        assert_eq!(verdicts.len(), analysis.windows.len());
        for (v, w) in verdicts.iter().zip(&analysis.windows) {
            assert_eq!(v.window_start, w.start);
            assert_eq!(v.chains, w.chains);
            assert_eq!(v.unknown_consequences, w.unknown_consequences);
        }
        // `changed` marks transitions: the first verdict always counts as a
        // change, and consecutive equal verdicts must not.
        assert!(verdicts[0].changed);
        for pair in verdicts.windows(2) {
            let same = pair[0].chains == pair[1].chains
                && pair[0].unknown_consequences == pair[1].unknown_consequences;
            assert_eq!(pair[1].changed, !same);
        }
    }

    #[test]
    fn adaptive_pinned_to_clamp_matches_static() {
        let s = SimDuration::from_secs(2);
        let run = |lateness| {
            let mut pipe = LivePipeline::with_defaults(LiveConfig {
                lateness,
                early_exit: EarlyExit::Never,
            })
            .unwrap();
            let bundle = SessionSpec::cell(amarisoft(), cfg(51, 20)).run_with_tap(&mut pipe);
            let stats = pipe.stats();
            let verdicts = pipe.drain_verdicts();
            (pipe.take_analysis(bundle.meta.duration), stats, verdicts)
        };
        let (a1, s1, v1) = run(Lateness::Static(s));
        let (a2, s2, v2) = run(Lateness::Adaptive {
            target_quantile: 0.5,
            floor: s,
            ceil: s,
        });
        // floor == ceil pins the adaptive bound: everything downstream is
        // identical to the static configuration, bit for bit.
        assert_identical(&a1, &a2);
        assert_eq!(s1, s2);
        assert_eq!(v1, v2);
    }

    #[test]
    fn adaptive_bound_comes_off_the_ceiling() {
        let mut pipe = LivePipeline::with_defaults(LiveConfig {
            lateness: Lateness::Adaptive {
                target_quantile: 0.99,
                floor: SimDuration::from_millis(250),
                ceil: SimDuration::from_secs(10),
            },
            early_exit: EarlyExit::Never,
        })
        .unwrap();
        SessionSpec::cell(amarisoft(), cfg(52, 20)).run_with_tap(&mut pipe);
        assert!(pipe.estimator().samples() >= ADAPTIVE_MIN_SAMPLES);
        let bound = pipe.effective_lateness;
        assert!(bound >= SimDuration::from_millis(250));
        assert!(
            bound < SimDuration::from_secs(10),
            "bound stuck at ceiling: {bound:?}"
        );
        assert!(pipe.stats().windows_emitted > 0);
    }

    #[test]
    fn slo_exit_gives_up_when_risk_exceeds_budget() {
        let mut pipe = LivePipeline::with_defaults(LiveConfig {
            lateness: Lateness::Static(SimDuration::from_secs(5)),
            early_exit: EarlyExit::Slo {
                verdict_within: SimDuration::from_millis(100),
                max_drop_risk: 0.25,
            },
        })
        .unwrap();
        // The SLO caps the effective bound below the static setting.
        assert_eq!(pipe.effective_lateness, SimDuration::from_millis(100));
        // Telemetry running 600 ms behind the clock: honouring a 100 ms
        // bound would drop nearly everything, so the pipeline must give up.
        for i in 0..400u64 {
            let now = SimTime::from_millis(i * 50);
            let ts = SimTime::from_micros(now.as_micros().saturating_sub(600_000));
            let mut s = AppStatsRecord::baseline(ts);
            s.inbound_fps = 30.0;
            pipe.on_app_local(&s);
            pipe.on_app_remote(&s);
            pipe.on_tick(now);
            if pipe.should_stop() {
                break;
            }
        }
        let stats = pipe.stats();
        assert!(stats.early_exited, "{stats:?}");
        assert!(stats.windows_emitted >= 1);
    }

    #[test]
    fn coverage_flags_gapped_stream() {
        let mut pipe = LivePipeline::with_defaults(static_cfg(
            SimDuration::from_millis(500),
            EarlyExit::Never,
        ))
        .unwrap();
        // app_remote goes dark for 9 s..15 s of a 20 s hand-driven feed.
        for i in 0..400u64 {
            let ts = SimTime::from_millis(i * 50);
            let mut s = AppStatsRecord::baseline(ts);
            s.inbound_fps = 30.0;
            pipe.on_app_local(&s);
            if !(180..300).contains(&i) {
                pipe.on_app_remote(&s);
            }
            pipe.on_tick(ts);
        }
        pipe.on_finish(SimTime::from_secs(20));
        let verdicts = pipe.drain_verdicts();
        assert!(!verdicts.is_empty());
        assert!(!verdicts[0].coverage.is_degraded(), "gap starts later");
        let bit = 1u8 << TapStream::AppRemote.idx();
        let gapped: Vec<&LiveVerdict> = verdicts
            .iter()
            .filter(|v| v.coverage.gapped_streams & bit != 0)
            .collect();
        assert!(!gapped.is_empty(), "blackout must surface as gap coverage");
        assert!(gapped.iter().all(|v| v.coverage.confidence < 1.0));
        assert_eq!(pipe.stats().degraded_windows, gapped.len());
    }

    /// The packet staging before the id ring: records in a ring sorted by
    /// `(sent, id)`, found through an `id → sent` hash map and a binary
    /// search over the records. Kept as the oracle [`PendingPackets`] must
    /// match for any sequence without a duplicate pending id.
    #[derive(Default)]
    struct MapOracle {
        buf: VecDeque<(SimTime, u64, PacketRecord)>,
        in_flight: std::collections::HashMap<u64, SimTime>,
        released: usize,
    }

    impl MapOracle {
        fn insert(&mut self, id: u64, record: PacketRecord) {
            let sent = record.sent;
            let at = self.buf.partition_point(|&(s, i, _)| (s, i) <= (sent, id));
            self.buf.insert(at, (sent, id, record));
            self.in_flight.insert(id, sent);
        }

        fn deliver(&mut self, id: u64, at: SimTime) -> Option<SimTime> {
            let &sent = self.in_flight.get(&id)?;
            let start = self.buf.partition_point(|&(s, _, _)| s < sent);
            let slot = self
                .buf
                .range_mut(start..)
                .find(|slot| slot.1 == id)
                .expect("in_flight and buf are updated together");
            slot.2.received = Some(at);
            Some(sent)
        }

        fn release_below(&mut self, t: SimTime, mut sink: impl FnMut(PacketRecord)) {
            while self.buf.front().is_some_and(|&(sent, _, _)| sent < t) {
                let (_, id, record) = self.buf.pop_front().expect("checked non-empty");
                self.in_flight.remove(&id);
                self.released += 1;
                sink(record);
            }
        }
    }

    /// A deterministic `u64` stream for the hostile-feed tests.
    struct Rolls(u64);

    impl Rolls {
        fn next(&mut self) -> u64 {
            self.0 = self.0.wrapping_add(1);
            simcore::splitmix64(self.0)
        }

        fn below(&mut self, n: u64) -> u64 {
            self.next() % n
        }
    }

    fn packet(id: u64, sent_us: u64) -> PacketRecord {
        PacketRecord {
            sent: SimTime::from_micros(sent_us),
            received: None,
            direction: Direction::Uplink,
            stream: telemetry::StreamKind::Video,
            seq: id,
            size_bytes: 1200,
        }
    }

    /// The next send id of a hostile feed: dense, gapped, decreasing, far
    /// jumps, and both ends of the id space.
    fn hostile_id(rolls: &mut Rolls, last: u64) -> u64 {
        match rolls.below(10) {
            0..=3 => last.wrapping_add(1),
            4 => last.saturating_add(2 + rolls.below(40)),
            5 => last.saturating_sub(1 + rolls.below(30)),
            6 => 0,
            7 => u64::MAX - rolls.below(3),
            8 => rolls.next(),
            _ => last.saturating_add(1 << (1 + rolls.below(62))),
        }
    }

    type Seen = (SimTime, Option<SimTime>, u64);

    fn seen(r: &PacketRecord) -> Seen {
        (r.sent, r.received, r.seq)
    }

    /// Random sends (dense, gapped, decreasing and far-jumping ids, send
    /// times with inversions and steps behind earlier releases),
    /// deliveries of pending, released and never-sent ids, and releases at
    /// random times: after every step the ring and the map oracle agree on
    /// the delivery result, the released records (order and fate), `len`
    /// and `released_count`.
    #[test]
    fn id_ring_matches_map_oracle() {
        let mut rolls = Rolls(0x9AC7_0001);
        for case in 0..300 {
            let mut ring = PendingPackets::default();
            let mut oracle = MapOracle::default();
            let mut history: Vec<u64> = Vec::new();
            let mut last = rolls.below(4) * (u64::MAX / 3);
            let mut now_us = 0u64;
            for step in 0..rolls.below(400) + 1 {
                let ctx = format!("case {case} step {step}");
                match rolls.below(8) {
                    0..=3 => {
                        let id = hostile_id(&mut rolls, last);
                        if oracle.in_flight.contains_key(&id) {
                            continue;
                        }
                        last = id;
                        now_us += rolls.below(3) * 1000;
                        let sent_us = match rolls.below(6) {
                            0 => now_us.saturating_sub(rolls.below(3000)),
                            1 => now_us.saturating_sub(rolls.below(60_000)),
                            _ => now_us,
                        };
                        ring.insert(id, packet(id, sent_us));
                        oracle.insert(id, packet(id, sent_us));
                        history.push(id);
                    }
                    4 | 5 => {
                        let id = match rolls.below(3) {
                            0 if !history.is_empty() => {
                                history[rolls.below(history.len() as u64) as usize]
                            }
                            1 => last.wrapping_add(1 + rolls.below(5)),
                            _ => rolls.next(),
                        };
                        let at = SimTime::from_micros(now_us + rolls.below(50_000));
                        assert_eq!(ring.deliver(id, at), oracle.deliver(id, at), "{ctx}");
                    }
                    6 => {
                        let t = SimTime::from_micros(now_us.saturating_sub(rolls.below(40_000)));
                        let (mut a, mut b) = (Vec::new(), Vec::new());
                        ring.release_below(t, |r| a.push(seen(&r)));
                        oracle.release_below(t, |r| b.push(seen(&r)));
                        assert_eq!(a, b, "{ctx}");
                    }
                    _ => now_us += rolls.below(20_000),
                }
                assert_eq!(ring.len(), oracle.buf.len(), "{ctx}");
                assert_eq!(ring.released_count(), oracle.released, "{ctx}");
            }
            let (mut a, mut b) = (Vec::new(), Vec::new());
            ring.release_below(SimTime::from_micros(u64::MAX), |r| a.push(seen(&r)));
            oracle.release_below(SimTime::from_micros(u64::MAX), |r| b.push(seen(&r)));
            assert_eq!(a, b, "case {case}: final flush");
            assert_eq!((ring.len(), ring.ids.len()), (0, 0), "case {case}");
        }
    }

    /// Duplicate pending ids (which the engine never sends) keep the first
    /// record: no panic, and `len`, deliveries and `released_count` follow
    /// the set of pending ids exactly.
    #[test]
    fn duplicate_send_ids_keep_counts_consistent() {
        let mut rolls = Rolls(0xD0B1_E000);
        for case in 0..100 {
            let mut ring = PendingPackets::default();
            let mut pending = std::collections::BTreeSet::new();
            let mut sunk = 0;
            let mut now_us = 0u64;
            for step in 0..300 {
                let id = rolls.below(24) * (u64::MAX / 23);
                now_us += rolls.below(2000);
                match rolls.below(4) {
                    0 | 1 => {
                        ring.insert(id, packet(id, now_us));
                        pending.insert(id);
                    }
                    2 => {
                        let got = ring.deliver(id, SimTime::from_micros(now_us));
                        assert_eq!(got.is_some(), pending.contains(&id), "case {case}");
                    }
                    _ => {
                        let t = SimTime::from_micros(now_us.saturating_sub(rolls.below(5000)));
                        ring.release_below(t, |r| {
                            assert!(pending.remove(&r.seq), "case {case} step {step}");
                            sunk += 1;
                        });
                    }
                }
                assert_eq!(ring.len(), pending.len(), "case {case} step {step}");
                assert_eq!(ring.released_count(), sunk, "case {case} step {step}");
            }
            ring.release_below(SimTime::from_micros(u64::MAX), |r| {
                assert!(pending.remove(&r.seq));
                sunk += 1;
            });
            assert!(pending.is_empty());
            assert_eq!((ring.len(), ring.released_count()), (0, sunk));
        }
    }

    /// A pipeline fed a hostile packet stream through its tap — duplicate,
    /// gapped, decreasing and extreme send ids, deliveries of unknown and
    /// frozen ids — closes its windows and finishes without a panic.
    #[test]
    fn hostile_send_ids_through_the_tap_do_not_panic() {
        let mut rolls = Rolls(0x7A9_0000);
        let mut pipe = LivePipeline::with_defaults(static_cfg(
            SimDuration::from_millis(300),
            EarlyExit::Never,
        ))
        .unwrap();
        let mut last = 0;
        let mut sends = 0;
        for ms in 0..20_000u64 {
            let now = SimTime::from_millis(ms);
            for _ in 0..rolls.below(3) {
                let id = if rolls.below(8) == 0 {
                    last
                } else {
                    hostile_id(&mut rolls, last)
                };
                last = id;
                let sent_us = (ms * 1000).saturating_sub(rolls.below(1500));
                pipe.on_packet_sent(id, &packet(id, sent_us));
                sends += 1;
                let id = match rolls.below(3) {
                    0 => id,
                    1 => id.wrapping_sub(rolls.below(50)),
                    _ => rolls.next(),
                };
                pipe.on_packet_delivered(id, now + SimDuration::from_millis(rolls.below(400)));
            }
            let mut s = AppStatsRecord::baseline(now);
            s.inbound_fps = 30.0;
            pipe.on_app_local(&s);
            pipe.on_tick(now);
        }
        pipe.on_finish(SimTime::from_secs(20));
        let stats = pipe.stats();
        assert_eq!(stats.records_seen, sends + 20_000);
        assert!(stats.windows_emitted > 0);
        assert_eq!(pipe.retained_records(), 0);
    }
}
