//! `domino-obs`: a no-deps metrics + span-tracing layer for the Domino
//! engines, built around three hard properties:
//!
//! 1. **Zero-cost when disabled.** A [`Recorder`] is a single
//!    `Option<Box<MetricSink>>`; every record method is `#[inline]` and
//!    early-returns on `None`, so a disabled recorder costs one predicted
//!    branch per site and never touches the clock.
//! 2. **Output-invisible when enabled.** Recording only *reads* engine
//!    state; nothing in this crate feeds back into simulation, analysis,
//!    or report encoding. `tests/obs_invisibility.rs` byte-diffs
//!    `ShardReport`s with the recorder off vs on.
//! 3. **Deterministic snapshots.** Metrics are split into two classes:
//!    [`Class::Sim`] metrics are derived purely from simulation state and
//!    accumulate in order-free integer form (u64 counters, fixed-layout
//!    histogram buckets, u128 sums, min/max), so per-worker shards merge
//!    to byte-identical totals at any thread count, shard count, or
//!    multiplex width. [`Class::Runtime`] metrics (wall-clock spans,
//!    allocation counts, pool/arena occupancy) are machine- and
//!    schedule-dependent and are kept out of the deterministic section of
//!    the [`snapshot::MetricsSnapshot`] wire format.
//!
//! Identifiers are fixed enums indexing flat arrays — no string hashing
//! and no heap allocation anywhere on the record path (the sink is one
//! up-front `Box`), which is what keeps the enabled recorder inside the
//! steady-state allocation budgets of `tests/allocation_steady_state.rs`.

pub mod snapshot;
pub mod wire;

use std::time::Instant;

pub use snapshot::MetricsSnapshot;
pub use wire::WireError;

/// Determinism class of a metric.
///
/// `Sim` metrics depend only on simulation inputs and are byte-identical
/// across partitionings; `Runtime` metrics describe the machine that ran
/// the simulation (wall time, allocator traffic, occupancy) and are
/// excluded from the deterministic section of the snapshot encoding.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Class {
    Sim,
    Runtime,
}

macro_rules! metric_enum {
    ($(#[$doc:meta])* $vis:vis enum $name:ident {
        $($variant:ident => ($text:expr, $class:expr)),+ $(,)?
    }) => {
        $(#[$doc])*
        #[derive(Clone, Copy, Debug, PartialEq, Eq)]
        $vis enum $name {
            $($variant),+
        }
        impl $name {
            pub const COUNT: usize = [$(Self::$variant),+].len();
            pub const ALL: [Self; Self::COUNT] = [$(Self::$variant),+];
            /// Stable wire name (sorted within each class — see the
            /// `names_are_sorted_per_class` test).
            #[inline]
            pub fn name(self) -> &'static str {
                match self { $(Self::$variant => $text),+ }
            }
            #[inline]
            pub fn class(self) -> Class {
                match self { $(Self::$variant => $class),+ }
            }
            #[inline]
            pub(crate) fn idx(self) -> usize {
                self as usize
            }
        }
    };
}

metric_enum! {
    /// Monotone counters (sum-merged).
    pub enum Counter {
        // -- deterministic (declaration order == sorted wire order) --
        // Telemetry-chaos families: injected faults are seeded per spec, so
        // the counts depend only on (spec, seed) and stay Sim-class.
        ChaosBlackoutDrops => ("chaos/blackout_drops", Class::Sim),
        ChaosRecordsDelayed => ("chaos/records_delayed", Class::Sim),
        ChaosRecordsDropped => ("chaos/records_dropped", Class::Sim),
        ChaosRecordsDuplicated => ("chaos/records_duplicated", Class::Sim),
        ChaosRecordsSkewed => ("chaos/records_skewed", Class::Sim),
        EngineEarlyExits => ("engine/early_exits", Class::Sim),
        EngineRouteEvents => ("engine/route_events", Class::Sim),
        EngineSessions => ("engine/sessions", Class::Sim),
        EngineSimTimeUs => ("engine/sim_time_us", Class::Sim),
        EngineTicks => ("engine/ticks", Class::Sim),
        LiveDegradedWindows => ("live/degraded_windows", Class::Sim),
        LiveLateDeliveries => ("live/late_deliveries", Class::Sim),
        LiveLateDrops => ("live/late_drops", Class::Sim),
        LiveRecordsSeen => ("live/records_seen", Class::Sim),
        LiveVerdicts => ("live/verdicts", Class::Sim),
        LiveWindows => ("live/windows", Class::Sim),
        NetJitterInversions => ("net/jitter_inversions", Class::Sim),
        NetLost => ("net/lost", Class::Sim),
        NetPackets => ("net/packets", Class::Sim),
        PlaybackLadderSwitches => ("playback/ladder_switches", Class::Sim),
        PlaybackStalls => ("playback/stalls", Class::Sim),
        RanDataSlots => ("ran/data_slots", Class::Sim),
        RanHarqRetx => ("ran/harq_retx", Class::Sim),
        RanPrbBudget => ("ran/prb_budget", Class::Sim),
        RanPrbGranted => ("ran/prb_granted", Class::Sim),
        // -- runtime --
        // Coordinator families: retry/steal/straggler traffic depends on
        // real-world failure timing (which workers died when), so the whole
        // family is Runtime — a chaos run and a clean run of the same grid
        // share identical Sim sections and differ only here.
        CoordCorruptReports => ("coord/corrupt_reports", Class::Runtime),
        CoordDispatches => ("coord/dispatches", Class::Runtime),
        CoordDuplicates => ("coord/duplicates_discarded", Class::Runtime),
        CoordRangesCompleted => ("coord/ranges_completed", Class::Runtime),
        CoordRetries => ("coord/retries", Class::Runtime),
        CoordSteals => ("coord/steals", Class::Runtime),
        CoordStragglerReissues => ("coord/straggler_reissues", Class::Runtime),
        CoordWorkerDeaths => ("coord/worker_deaths", Class::Runtime),
        CoordWorkerLiveMs => ("coord/worker_live_ms", Class::Runtime),
        MuxStaleDrops => ("mux/stale_drops", Class::Runtime),
        PoolCreated => ("pool/created", Class::Runtime),
        PoolEvicted => ("pool/evicted", Class::Runtime),
        PoolReused => ("pool/reused", Class::Runtime),
        ProcAllocs => ("proc/allocs", Class::Runtime),
        SweepWallNs => ("sweep/wall_ns", Class::Runtime),
    }
}

metric_enum! {
    /// Integer high-water gauges (max-merged, with an update count).
    pub enum Gauge {
        LivePeakRetained => ("live/peak_retained_records", Class::Sim),
        ArenaFootprint => ("arena/footprint_elems", Class::Runtime),
        CoordWorkersPeak => ("coord/workers_peak", Class::Runtime),
        MuxInFlightPeak => ("mux/in_flight_peak", Class::Runtime),
    }
}

metric_enum! {
    /// Floating-point high-water gauges (max-merged; `f64::NEG_INFINITY`
    /// until first update; encoded as hex IEEE-754 bit patterns).
    pub enum FGauge {
        RanPrbUtilPeak => ("ran/prb_util_peak", Class::Sim),
        AllocsPerTickPeak => ("proc/allocs_per_tick_peak", Class::Runtime),
    }
}

metric_enum! {
    /// Fixed-layout histograms (bucket-wise sum-merged). All `Sim`.
    pub enum HistId {
        LiveAdaptiveBoundMs => ("live/adaptive_bound_ms", Class::Sim),
        LiveDelayMs => ("live/delay_ms", Class::Sim),
        LiveDropRiskPct => ("live/drop_risk_pct", Class::Sim),
        LiveVerdictLatencyMs => ("live/verdict_latency_ms", Class::Sim),
        PlaybackBufferMs => ("playback/buffer_ms", Class::Sim),
        PlaybackStallMs => ("playback/stall_ms", Class::Sim),
        RanPrbUtilPct => ("ran/prb_util_pct", Class::Sim),
        RanRlcQueueBytes => ("ran/rlc_queue_bytes", Class::Sim),
        RtcPacerBacklog => ("rtc/pacer_backlog_pkts", Class::Sim),
    }
}

metric_enum! {
    /// Phase spans: deterministic sim progress is counted separately
    /// (`engine/ticks`, `engine/sim_time_us`, `engine/route_events`);
    /// span call/wall tallies depend on drivers and widths, so the whole
    /// span family is `Runtime`.
    pub enum SpanId {
        BeginTick => ("engine/begin_tick", Class::Runtime),
        EndTick => ("engine/end_tick", Class::Runtime),
        RouteDrain => ("engine/route_drain", Class::Runtime),
    }
}

impl HistId {
    /// The compiled-in bucket layout for this histogram.
    #[inline]
    pub fn layout(self) -> HistLayout {
        match self {
            HistId::LiveAdaptiveBoundMs => HistLayout::Log2(17),
            HistId::LiveDelayMs => HistLayout::Log2(17),
            HistId::LiveDropRiskPct => HistLayout::Pct10,
            HistId::LiveVerdictLatencyMs => HistLayout::Log2(17),
            HistId::PlaybackBufferMs => HistLayout::Log2(17),
            HistId::PlaybackStallMs => HistLayout::Log2(17),
            HistId::RanPrbUtilPct => HistLayout::Pct10,
            HistId::RanRlcQueueBytes => HistLayout::Log2(22),
            HistId::RtcPacerBacklog => HistLayout::Log2(12),
        }
    }
}

/// Histogram bucket layouts. Fixed at compile time so bucket counts merge
/// without negotiation and the snapshot format never carries boundaries.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum HistLayout {
    /// Eleven buckets over a percentage: `[0,10) [10,20) … [90,100) [100]`.
    Pct10,
    /// `n` power-of-two buckets: bucket 0 holds zero, bucket `i ≥ 1` holds
    /// `[2^(i-1), 2^i)`, the last bucket saturates.
    Log2(u32),
}

impl HistLayout {
    #[inline]
    pub fn buckets(self) -> usize {
        match self {
            HistLayout::Pct10 => 11,
            HistLayout::Log2(n) => n as usize,
        }
    }

    /// Bucket index for a value — O(1), integer-only.
    #[inline]
    pub fn index(self, v: u64) -> usize {
        match self {
            HistLayout::Pct10 => ((v / 10) as usize).min(10),
            HistLayout::Log2(n) => {
                if v == 0 {
                    0
                } else {
                    ((64 - v.leading_zeros()) as usize).min(n as usize - 1)
                }
            }
        }
    }

    /// Inclusive-lower / exclusive-upper value bounds of bucket `i`,
    /// used for quantile interpolation and dashboard rendering.
    pub fn bounds(self, i: usize) -> (u64, u64) {
        match self {
            HistLayout::Pct10 => {
                if i >= 10 {
                    (100, 101)
                } else {
                    (10 * i as u64, 10 * (i as u64 + 1))
                }
            }
            HistLayout::Log2(_) => {
                if i == 0 {
                    (0, 1)
                } else {
                    (
                        1u64 << (i - 1),
                        1u64.checked_shl(i as u32).unwrap_or(u64::MAX),
                    )
                }
            }
        }
    }
}

/// Widest layout — sizes the flat bucket arrays.
pub(crate) const MAX_BUCKETS: usize = 24;

/// One histogram's accumulated state. All fields are order-free integer
/// aggregates, so any partition of the observations merges to identical
/// bytes.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct HistData {
    pub counts: [u64; MAX_BUCKETS],
    pub count: u64,
    pub sum: u128,
    /// `u64::MAX` until the first observation.
    pub min: u64,
    pub max: u64,
}

impl HistData {
    pub const EMPTY: HistData = HistData {
        counts: [0; MAX_BUCKETS],
        count: 0,
        sum: 0,
        min: u64::MAX,
        max: 0,
    };

    #[inline]
    pub fn record(&mut self, layout: HistLayout, v: u64) {
        self.counts[layout.index(v)] += 1;
        self.count += 1;
        self.sum += u128::from(v);
        self.min = self.min.min(v);
        self.max = self.max.max(v);
    }

    /// Adds `other` bucket-wise; sums saturate (see
    /// `MetricsSnapshot::merge`).
    pub fn merge(&mut self, other: &HistData) {
        for (a, b) in self.counts.iter_mut().zip(other.counts.iter()) {
            *a = a.saturating_add(*b);
        }
        self.count = self.count.saturating_add(other.count);
        self.sum = self.sum.saturating_add(other.sum);
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
    }

    /// Mean of the observed values (0 when empty).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }
}

impl Default for HistData {
    fn default() -> Self {
        Self::EMPTY
    }
}

/// One wall-clock span's accumulated state (`Runtime` class).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct SpanData {
    pub calls: u64,
    /// Calls on which the wall clock was actually read (every
    /// `wall_sample_every`-th call).
    pub sampled: u64,
    pub wall_ns: u64,
    since: u32,
}

/// Opaque token returned by [`Recorder::span_enter`]; `None` inside means
/// either the recorder is off or this call was not wall-sampled.
#[must_use]
pub struct SpanToken(Option<Instant>);

/// Recorder configuration, carried by `SweepOptions`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ObsConfig {
    pub enabled: bool,
    /// Read the wall clock on every Nth span entry (1 = every entry).
    /// Sampling bounds `Instant::now` traffic on the per-tick hot path;
    /// it never affects `Sim`-class metrics.
    pub wall_sample_every: u32,
}

impl Default for ObsConfig {
    fn default() -> Self {
        ObsConfig {
            enabled: false,
            wall_sample_every: 64,
        }
    }
}

impl ObsConfig {
    /// Enabled, with default wall sampling.
    pub fn on() -> Self {
        ObsConfig {
            enabled: true,
            ..Default::default()
        }
    }

    /// Enabled at full sampling: every span entry reads the wall clock.
    pub fn full() -> Self {
        ObsConfig {
            enabled: true,
            wall_sample_every: 1,
        }
    }
}

/// Flat per-worker metric storage: one slot per compiled metric id.
/// Allocated once (boxed) when a recorder is enabled; never grows.
#[derive(Clone, Debug)]
pub(crate) struct MetricSink {
    counters: [u64; Counter::COUNT],
    gauges: [(u64, u64); Gauge::COUNT],
    fgauges: [(f64, u64); FGauge::COUNT],
    hists: [HistData; HistId::COUNT],
    spans: [SpanData; SpanId::COUNT],
    wall_every: u32,
}

impl MetricSink {
    fn new(wall_every: u32) -> Self {
        MetricSink {
            counters: [0; Counter::COUNT],
            gauges: [(0, 0); Gauge::COUNT],
            fgauges: [(f64::NEG_INFINITY, 0); FGauge::COUNT],
            hists: [HistData::EMPTY; HistId::COUNT],
            spans: [SpanData::default(); SpanId::COUNT],
            wall_every: wall_every.max(1),
        }
    }
}

/// The instrumentation handle threaded through engine scratch state.
///
/// Disabled (`Recorder::off`, also `Default`) it is a null pointer-sized
/// option; every method is an inlined early return.
#[derive(Debug, Default)]
pub struct Recorder {
    sink: Option<Box<MetricSink>>,
}

impl Recorder {
    /// A disabled recorder: every record call is a no-op.
    pub fn off() -> Self {
        Recorder { sink: None }
    }

    pub fn new(cfg: ObsConfig) -> Self {
        Recorder {
            sink: cfg
                .enabled
                .then(|| Box::new(MetricSink::new(cfg.wall_sample_every))),
        }
    }

    #[inline]
    pub fn is_on(&self) -> bool {
        self.sink.is_some()
    }

    #[inline]
    pub fn add(&mut self, c: Counter, n: u64) {
        if let Some(s) = &mut self.sink {
            s.counters[c.idx()] += n;
        }
    }

    #[inline]
    pub fn gauge_max(&mut self, g: Gauge, v: u64) {
        if let Some(s) = &mut self.sink {
            let slot = &mut s.gauges[g.idx()];
            slot.0 = slot.0.max(v);
            slot.1 += 1;
        }
    }

    #[inline]
    pub fn fgauge_max(&mut self, g: FGauge, v: f64) {
        if let Some(s) = &mut self.sink {
            let slot = &mut s.fgauges[g.idx()];
            if v > slot.0 {
                slot.0 = v;
            }
            slot.1 += 1;
        }
    }

    #[inline]
    pub fn observe(&mut self, h: HistId, v: u64) {
        if let Some(s) = &mut self.sink {
            s.hists[h.idx()].record(h.layout(), v);
        }
    }

    /// Enters a span: counts the call and — every Nth call — captures the
    /// wall clock. Pair with [`Self::span_exit`].
    #[inline]
    pub fn span_enter(&mut self, id: SpanId) -> SpanToken {
        let Some(s) = &mut self.sink else {
            return SpanToken(None);
        };
        let d = &mut s.spans[id.idx()];
        d.calls += 1;
        d.since += 1;
        if d.since >= s.wall_every {
            d.since = 0;
            d.sampled += 1;
            SpanToken(Some(Instant::now()))
        } else {
            SpanToken(None)
        }
    }

    #[inline]
    pub fn span_exit(&mut self, id: SpanId, token: SpanToken) {
        if let Some(start) = token.0 {
            if let Some(s) = &mut self.sink {
                s.spans[id.idx()].wall_ns += start.elapsed().as_nanos() as u64;
            }
        }
    }

    /// Merges an externally accumulated histogram (e.g. the live delay
    /// estimator's per-session [`HistData`]) into this recorder's slot for
    /// `h`. The caller must have recorded with the same [`HistLayout`] as
    /// `h.layout()` for the bucket counts to be meaningful.
    #[inline]
    pub fn absorb_hist(&mut self, h: HistId, d: &HistData) {
        if let Some(s) = &mut self.sink {
            s.hists[h.idx()].merge(d);
        }
    }

    /// Folds a cell's per-slot accumulator into this recorder.
    pub fn absorb_ran(&mut self, o: &RanCellObs) {
        if let Some(s) = &mut self.sink {
            s.counters[Counter::RanDataSlots.idx()] += o.data_slots;
            s.counters[Counter::RanHarqRetx.idx()] += o.harq_retx;
            s.counters[Counter::RanPrbGranted.idx()] += o.prb_granted;
            s.counters[Counter::RanPrbBudget.idx()] += o.prb_budget;
            s.hists[HistId::RanPrbUtilPct.idx()].merge(&o.prb_util);
            s.hists[HistId::RanRlcQueueBytes.idx()].merge(&o.rlc_queue);
        }
        // The fgauge update must count even distinct workers equally, so
        // route it through the public path (no-op when off).
        if o.prb_util.count > 0 {
            self.fgauge_max(FGauge::RanPrbUtilPeak, o.prb_util_peak);
        }
    }

    // -- read-side accessors (progress reporting, tests) -----------------

    pub fn counter(&self, c: Counter) -> u64 {
        self.sink.as_ref().map_or(0, |s| s.counters[c.idx()])
    }

    pub fn gauge(&self, g: Gauge) -> u64 {
        self.sink.as_ref().map_or(0, |s| s.gauges[g.idx()].0)
    }

    /// A deterministic-plus-runtime snapshot of everything recorded so
    /// far; `None` when the recorder is off.
    pub fn snapshot(&self) -> Option<MetricsSnapshot> {
        self.sink.as_deref().map(MetricsSnapshot::from_sink)
    }

    /// Takes a snapshot and clears the sink (the recorder stays enabled).
    pub fn take_snapshot(&mut self) -> Option<MetricsSnapshot> {
        let snap = self.snapshot();
        if let Some(s) = &mut self.sink {
            **s = MetricSink::new(s.wall_every);
        }
        snap
    }
}

/// Borrowed views of a sink's metric families, in declaration order.
pub(crate) type SinkParts<'a> = (
    &'a [u64; Counter::COUNT],
    &'a [(u64, u64); Gauge::COUNT],
    &'a [(f64, u64); FGauge::COUNT],
    &'a [HistData; HistId::COUNT],
    &'a [SpanData; SpanId::COUNT],
);

pub(crate) fn sink_parts(s: &MetricSink) -> SinkParts<'_> {
    (&s.counters, &s.gauges, &s.fgauges, &s.hists, &s.spans)
}

/// Per-cell slot-granularity accumulator, owned by `ran::CellSim` while
/// observability is on (the cell's inner loop stays free of recorder
/// plumbing; the session absorbs this into its worker recorder at
/// finish). All integer, all sim-deterministic.
#[derive(Clone, Debug)]
pub struct RanCellObs {
    pub data_slots: u64,
    pub harq_retx: u64,
    pub prb_granted: u64,
    pub prb_budget: u64,
    pub prb_util_peak: f64,
    prb_util: HistData,
    rlc_queue: HistData,
}

impl RanCellObs {
    #[allow(clippy::new_ret_no_self)]
    pub fn boxed() -> Box<Self> {
        Box::new(RanCellObs {
            data_slots: 0,
            harq_retx: 0,
            prb_granted: 0,
            prb_budget: 0,
            prb_util_peak: 0.0,
            prb_util: HistData::EMPTY,
            rlc_queue: HistData::EMPTY,
        })
    }

    /// One data-capable slot processed.
    #[inline]
    pub fn on_slot(&mut self) {
        self.data_slots += 1;
    }

    /// One scheduler direction pass: `used` of `budget` PRBs granted.
    #[inline]
    pub fn on_direction_pass(&mut self, used: u32, budget: u32) {
        self.prb_granted += u64::from(used);
        self.prb_budget += u64::from(budget);
        if budget > 0 {
            let pct = u64::from(used) * 100 / u64::from(budget);
            self.prb_util.record(HistLayout::Pct10, pct);
            let frac = f64::from(used) / f64::from(budget);
            if frac > self.prb_util_peak {
                self.prb_util_peak = frac;
            }
        }
    }

    #[inline]
    pub fn on_harq_retx(&mut self, n: u64) {
        self.harq_retx += n;
    }

    /// Samples one RLC queue depth (bytes) — called per UE per sampled
    /// slot, so the histogram is a per-UE queue-depth distribution.
    #[inline]
    pub fn sample_queue(&mut self, bytes: u64) {
        self.rlc_queue.record(HistLayout::Log2(22), bytes);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn assert_sorted(names: &[&str], what: &str) {
        for w in names.windows(2) {
            assert!(w[0] < w[1], "{what}: {:?} !< {:?}", w[0], w[1]);
        }
    }

    /// The snapshot wire format emits declaration order per class; the
    /// sorted-keys discipline therefore requires sorted declarations.
    #[test]
    fn names_are_sorted_per_class() {
        for class in [Class::Sim, Class::Runtime] {
            let c: Vec<_> = Counter::ALL
                .iter()
                .filter(|c| c.class() == class)
                .map(|c| c.name())
                .collect();
            assert_sorted(&c, "counters");
            let g: Vec<_> = Gauge::ALL
                .iter()
                .filter(|g| g.class() == class)
                .map(|g| g.name())
                .collect();
            assert_sorted(&g, "gauges");
            let f: Vec<_> = FGauge::ALL
                .iter()
                .filter(|f| f.class() == class)
                .map(|f| f.name())
                .collect();
            assert_sorted(&f, "fgauges");
        }
        let h: Vec<_> = HistId::ALL.iter().map(|h| h.name()).collect();
        assert_sorted(&h, "hists");
        let s: Vec<_> = SpanId::ALL.iter().map(|s| s.name()).collect();
        assert_sorted(&s, "spans");
    }

    #[test]
    fn layouts_fit_max_buckets() {
        for h in HistId::ALL {
            assert!(h.layout().buckets() <= MAX_BUCKETS, "{}", h.name());
        }
    }

    #[test]
    fn log2_layout_indexes_boundaries() {
        let l = HistLayout::Log2(12);
        assert_eq!(l.index(0), 0);
        assert_eq!(l.index(1), 1);
        assert_eq!(l.index(2), 2);
        assert_eq!(l.index(3), 2);
        assert_eq!(l.index(4), 3);
        assert_eq!(l.index(u64::MAX), 11);
        for i in 0..l.buckets() {
            let (lo, hi) = l.bounds(i);
            assert_eq!(l.index(lo), i);
            if i + 1 < l.buckets() {
                assert_eq!(l.index(hi - 1), i);
                assert_eq!(l.index(hi), i + 1);
            }
        }
    }

    #[test]
    fn pct10_layout_clamps() {
        let l = HistLayout::Pct10;
        assert_eq!(l.index(0), 0);
        assert_eq!(l.index(9), 0);
        assert_eq!(l.index(10), 1);
        assert_eq!(l.index(99), 9);
        assert_eq!(l.index(100), 10);
        assert_eq!(l.index(400), 10);
    }

    #[test]
    fn disabled_recorder_reads_zero_and_never_allocates_spans() {
        let mut r = Recorder::off();
        r.add(Counter::EngineTicks, 5);
        r.observe(HistId::RanPrbUtilPct, 50);
        let t = r.span_enter(SpanId::BeginTick);
        r.span_exit(SpanId::BeginTick, t);
        assert!(!r.is_on());
        assert_eq!(r.counter(Counter::EngineTicks), 0);
        assert!(r.snapshot().is_none());
    }

    #[test]
    fn merge_is_partition_invariant() {
        let feed = |r: &mut Recorder, vals: &[u64]| {
            for &v in vals {
                r.add(Counter::EngineTicks, 1);
                r.observe(HistId::RanRlcQueueBytes, v);
                r.gauge_max(Gauge::LivePeakRetained, v);
                r.fgauge_max(FGauge::RanPrbUtilPeak, v as f64 / 100.0);
            }
        };
        let vals: Vec<u64> = (0..257u64).map(|i| i * i % 1013).collect();

        let mut whole = Recorder::new(ObsConfig::full());
        feed(&mut whole, &vals);
        let whole = whole.snapshot().unwrap();

        let (a, b) = vals.split_at(71);
        let mut ra = Recorder::new(ObsConfig::full());
        let mut rb = Recorder::new(ObsConfig::full());
        feed(&mut ra, b); // reversed order on purpose
        feed(&mut rb, a);
        let mut merged = rb.snapshot().unwrap();
        merged.merge(&ra.snapshot().unwrap());

        assert_eq!(whole.encode(), merged.encode());
    }
}
