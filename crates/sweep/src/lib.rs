//! # domino-sweep — the parallel multi-session sweep engine
//!
//! Fans a grid of [`SessionSpec`]s across OS threads, runs each session's
//! simulator, analyses the resulting trace with Domino's streaming analyzer
//! (after the session, or inline *during* it with [`AnalysisMode::Live`]),
//! and folds everything into a deterministic [`SweepReport`].
//! [`run_sweep_with_progress`] reports sessions/sec and ETA while
//! operator-scale grids drain.
//!
//! Determinism is the design constraint: sessions are claimed from a shared
//! atomic work index (so threads never idle while work remains), each session
//! derives all randomness from its own spec seed, and aggregation happens
//! *after* the join in spec order — so the report is byte-identical whether
//! the sweep ran on 1 thread or 64. `tests/sweep_determinism.rs` enforces
//! this.
//!
//! This crate is the shared driver for the benchmark harness's
//! `longitudinal`, `domino_eval`, and `ablations` experiments (previously
//! hand-rolled sequential loops), and the scaling substrate the ROADMAP's
//! operator-scale ambitions build on: a sweep over seeds × scenarios ×
//! durations is exactly the "many sessions, one report" shape a fleet-wide
//! diagnoser runs continuously.
//!
//! Past one machine, the [`shard`] module splits a grid into contiguous
//! spec-index ranges ([`ShardPlan`]), runs each range anywhere
//! ([`run_shard`]), serialises the results as versioned plain text
//! ([`ShardReport`]), and folds the shard files back together
//! ([`merge_shards`]) into a report byte-identical to a single-machine
//! [`run_sweep`] — at any shard count and any per-shard thread count.

pub mod chaos;
pub mod coordinator;
pub mod multiplex;
pub mod shard;
pub mod transport;
pub mod worker;

pub use chaos::{Fault, FaultLog, FaultPlan, InProcFleet};
pub use coordinator::{
    run_coordinator, CoordinatorConfig, CoordinatorError, CoordinatorProgress, CoordinatorRun,
    CoordinatorStats,
};
pub use multiplex::{ExecutionMode, MuxWorker};
pub use shard::{
    merge_shards, run_shard, run_shard_with_metrics, LiveTotals, MergeError, Shard, ShardPlan,
    ShardReport, SpecOutcome,
};
pub use transport::{
    DispatchSpec, Frame, FrameKind, TcpLink, TcpTransport, Transport, TransportEvent, WorkerId,
};
pub use worker::{run_worker, WorkerExit, WorkerFaults};

use std::collections::VecDeque;
use std::num::NonZeroUsize;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::Instant;

use domino_core::{Analysis, ChainStats, Domino};
use domino_live::LiveStats;
use domino_obs::Counter;
use scenarios::SessionSpec;
use telemetry::{SessionMeta, TraceBundle};

pub use domino_live::{EarlyExit, LiveConfig};
pub use domino_obs::{MetricsSnapshot, ObsConfig};
pub use telemetry::{Lateness, TapChaosSpec, TapFault, TapStream};

/// What each sweep worker does with a finished session's bundle.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum AnalysisMode {
    /// Keep only the bundle; no Domino pass.
    None,
    /// Analysis of the finished bundle on the worker's
    /// [`domino_core::StreamingAnalyzer`], what [`Domino::analyze`] runs.
    #[default]
    Streaming,
    /// Online analysis *during* the simulation: each session runs with a
    /// [`domino_live::LivePipeline`] tapped into the engine,
    /// configured by [`SweepOptions::live`]. With [`EarlyExit::Never`] and a
    /// sufficient lateness bound the aggregate is identical to the other
    /// modes; with an early-exit policy, sessions abort once their verdict
    /// is in, trading trace completeness for simulation time.
    Live,
}

/// Sweep-wide options.
#[derive(Debug, Clone)]
pub struct SweepOptions {
    /// Worker threads; 0 means all available cores.
    pub threads: usize,
    /// How each worker schedules its claimed sessions: one at a time
    /// ([`ExecutionMode::PerWorker`], width 1) or up to `width` interleaved
    /// through one shared calendar queue, arena, and pipeline pool
    /// ([`ExecutionMode::Multiplexed`]). Both run the one driver in
    /// [`multiplex`]; per-session outputs (and thus the whole report) are
    /// byte-identical across modes and widths.
    pub execution: ExecutionMode,
    /// Per-session analysis mode.
    pub analysis: AnalysisMode,
    /// Live-stage configuration (lateness bound and early-exit policy),
    /// used by [`AnalysisMode::Live`] only.
    pub live: LiveConfig,
    /// Retain each session's [`TraceBundle`] in the outcome. Sweeps that
    /// only need aggregates should leave this off: bundles dominate memory.
    pub keep_bundles: bool,
    /// Retain each session's full per-window [`Analysis`].
    pub keep_analyses: bool,
    /// Observability recorder configuration. Disabled by default — every
    /// record site is then a single predicted branch. When enabled, each
    /// worker carries a [`domino_obs::Recorder`] in its arena and the merged
    /// [`MetricsSnapshot`] lands in [`SweepReport::metrics`]. Recording
    /// never affects report bytes (`tests/obs_invisibility.rs`).
    pub obs: ObsConfig,
}

impl Default for SweepOptions {
    fn default() -> Self {
        SweepOptions {
            threads: 0,
            execution: ExecutionMode::PerWorker,
            analysis: AnalysisMode::Streaming,
            live: LiveConfig::default(),
            keep_bundles: false,
            keep_analyses: false,
            obs: ObsConfig::default(),
        }
    }
}

impl SweepOptions {
    /// Options for sweeps that need the raw bundles (figure experiments).
    pub(crate) fn bundles_only() -> Self {
        SweepOptions {
            analysis: AnalysisMode::None,
            keep_bundles: true,
            ..Default::default()
        }
    }

    /// Options for sweeps that need bundles *and* analyses.
    pub fn full() -> Self {
        SweepOptions {
            keep_bundles: true,
            keep_analyses: true,
            ..Default::default()
        }
    }

    /// Sets the worker-thread count (0 = all available cores).
    pub fn threads(mut self, threads: usize) -> Self {
        self.threads = threads;
        self
    }

    /// Sets the per-worker execution mode (sequential or multiplexed).
    pub fn mode(mut self, execution: ExecutionMode) -> Self {
        self.execution = execution;
        self
    }

    /// Sets the per-session analysis mode.
    pub fn analysis(mut self, analysis: AnalysisMode) -> Self {
        self.analysis = analysis;
        self
    }

    /// Sets the live-stage configuration used by [`AnalysisMode::Live`].
    pub fn live(mut self, live: LiveConfig) -> Self {
        self.live = live;
        self
    }

    /// Sets the observability recorder configuration.
    pub fn obs(mut self, obs: ObsConfig) -> Self {
        self.obs = obs;
        self
    }

    /// Retains each session's [`TraceBundle`] in its outcome.
    pub fn keep_bundles(mut self, keep: bool) -> Self {
        self.keep_bundles = keep;
        self
    }

    /// Retains each session's full per-window [`Analysis`].
    pub fn keep_analyses(mut self, keep: bool) -> Self {
        self.keep_analyses = keep;
        self
    }

    fn resolved_threads(&self, jobs: usize) -> usize {
        let hw = std::thread::available_parallelism()
            .map(NonZeroUsize::get)
            .unwrap_or(1);
        let n = if self.threads == 0 { hw } else { self.threads };
        n.clamp(1, jobs.max(1))
    }
}

/// One session's results.
#[derive(Debug, Clone)]
pub struct SessionOutcome {
    /// Position in the input spec list.
    pub index: usize,
    /// Spec label.
    pub label: String,
    /// Session metadata (always retained; cheap).
    pub meta: SessionMeta,
    /// The raw bundle, if `keep_bundles` was set.
    pub bundle: Option<TraceBundle>,
    /// The per-window analysis, if `keep_analyses` was set.
    pub analysis: Option<Analysis>,
    /// Chain statistics of the analysis (present unless mode was `None`).
    pub stats: Option<ChainStats>,
    /// Live-pipeline counters (late drops, peak retained records, early
    /// exit), present when the session ran under [`AnalysisMode::Live`].
    pub live: Option<LiveStats>,
}

/// A progress snapshot delivered to the [`run_sweep_with_progress`]
/// callback after every completed session.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SweepProgress {
    /// Sessions finished so far (including this one).
    pub completed: usize,
    /// Sessions claimed and currently executing. Per-worker execution holds
    /// this at (up to) the thread count; multiplexed execution reports
    /// every interleaved in-flight session individually, which is why it is
    /// surfaced separately from the completion rate — a wide batch of
    /// co-started sessions finishing together moves `completed` in a burst
    /// without meaning the steady-state rate changed.
    pub in_flight: usize,
    /// Total sessions in the sweep.
    pub total: usize,
    /// Completion throughput over a sliding window of the most recent
    /// completions (up to 32), falling back to the lifetime
    /// average while the window fills. A long sweep whose early sessions
    /// were slow (cold caches) or fast (short specs first) therefore
    /// reports the *current* rate, and the ETA stays stable instead of
    /// drifting with the lifetime mean.
    pub sessions_per_sec: f64,
    /// Estimated seconds until the sweep drains, extrapolated from the
    /// windowed throughput (`f64::INFINITY` until one session completes).
    pub eta_secs: f64,
    /// High-water mark of any worker arena's retained-storage footprint in
    /// elements ([`scenarios::SessionArena::footprint`]), sampled at session
    /// completion. A fleet operator watches this next to `in_flight`: it is
    /// the memory the sweep will *keep* using at this width.
    pub arena_footprint_peak: u64,
}

/// Completions the windowed sessions/sec estimate looks back over.
pub(crate) const RATE_WINDOW: usize = 32;

/// Sliding window of completion instants behind the progress rate.
struct RateWindow {
    started: Instant,
    recent: VecDeque<Instant>,
}

impl RateWindow {
    fn new(started: Instant) -> Self {
        RateWindow {
            started,
            recent: VecDeque::with_capacity(RATE_WINDOW + 1),
        }
    }

    /// Records a completion at `now` and returns the windowed rate.
    ///
    /// The rate counts completions *strictly after* the window's first
    /// instant over the window span. Counting both endpoints'
    /// contributions (the old `(len - 1) / span`) overstates the rate when
    /// completions arrive in bursts — a multiplexed worker finishing a
    /// co-started batch at one instant would double the reported rate and
    /// halve the ETA until the batch left the window. With same-instant
    /// completions collapsed onto the window's start, a batch of K counts
    /// as one arrival event per span unit, so the ETA stays put.
    fn on_completion(&mut self, now: Instant, completed: usize) -> f64 {
        self.recent.push_back(now);
        while self.recent.len() > RATE_WINDOW {
            self.recent.pop_front();
        }
        let first = *self.recent.front().expect("just pushed");
        let window_secs = now.duration_since(first).as_secs_f64();
        let after_first = self.recent.iter().filter(|&&t| t > first).count();
        if after_first >= 1 && window_secs > 0.0 {
            after_first as f64 / window_secs
        } else {
            // Window not yet meaningful: lifetime average.
            let elapsed = now.duration_since(self.started).as_secs_f64();
            if elapsed > 0.0 {
                completed as f64 / elapsed
            } else {
                0.0
            }
        }
    }
}

/// Aggregated results of one sweep.
#[derive(Debug, Clone)]
pub struct SweepReport {
    /// Per-session outcomes, in spec order.
    pub outcomes: Vec<SessionOutcome>,
    /// All sessions' chain statistics merged in spec order.
    pub aggregate: ChainStats,
    /// Per-worker metric snapshots merged in worker order, present when
    /// [`SweepOptions::obs`] was enabled. The `Sim` section is
    /// byte-identical at any thread count, execution mode, or multiplex
    /// width ([`MetricsSnapshot::encode_sim`]).
    pub metrics: Option<MetricsSnapshot>,
}

impl SweepReport {
    /// Merged chain statistics of the outcomes selected by `pred`, folded in
    /// spec order (deterministic regardless of execution interleaving).
    pub fn aggregate_where(&self, pred: impl Fn(&SessionOutcome) -> bool) -> ChainStats {
        let mut agg = ChainStats::default();
        for o in self.outcomes.iter().filter(|o| pred(o)) {
            if let Some(s) = &o.stats {
                agg.merge(s);
            }
        }
        agg
    }
}

/// Runs every spec, fanning sessions across `opts.threads` OS threads, and
/// folds the results in spec order.
pub fn run_sweep(specs: &[SessionSpec], domino: &Domino, opts: &SweepOptions) -> SweepReport {
    run_sweep_with_progress(specs, domino, opts, &|_| {})
}

/// [`run_sweep`] with a progress callback, invoked from worker threads
/// after every completed session (so it must be `Sync`; keep it cheap —
/// e.g. a line to stderr or an atomic store a UI thread reads).
pub fn run_sweep_with_progress(
    specs: &[SessionSpec],
    domino: &Domino,
    opts: &SweepOptions,
    progress: &(dyn Fn(SweepProgress) + Sync),
) -> SweepReport {
    let threads = opts.resolved_threads(specs.len());
    let mut slots: Vec<Option<SessionOutcome>> = Vec::new();
    slots.resize_with(specs.len(), || None);
    let slots = Mutex::new(slots);
    let next = AtomicUsize::new(0);
    let started = AtomicUsize::new(0);
    let done = AtomicUsize::new(0);
    let rate = Mutex::new(RateWindow::new(Instant::now()));
    let footprint_peak = AtomicU64::new(0);
    let mut snaps: Vec<Option<MetricsSnapshot>> = Vec::new();
    snaps.resize_with(threads, || None);
    let snaps = Mutex::new(snaps);

    // Claim the next spec index (tracking the in-flight count) and record a
    // finished outcome + progress snapshot.
    let claim = || {
        let i = next.fetch_add(1, Ordering::Relaxed);
        if i < specs.len() {
            started.fetch_add(1, Ordering::Relaxed);
            Some(i)
        } else {
            None
        }
    };
    let complete = |outcome: SessionOutcome| {
        let index = outcome.index;
        slots.lock().expect("sweep worker panicked")[index] = Some(outcome);
        let completed = done.fetch_add(1, Ordering::Relaxed) + 1;
        let sessions_per_sec = rate
            .lock()
            .expect("sweep worker panicked")
            .on_completion(Instant::now(), completed);
        progress(SweepProgress {
            completed,
            in_flight: started.load(Ordering::Relaxed).saturating_sub(completed),
            total: specs.len(),
            sessions_per_sec,
            eta_secs: if sessions_per_sec > 0.0 {
                (specs.len() - completed) as f64 / sessions_per_sec
            } else {
                f64::INFINITY
            },
            arena_footprint_peak: footprint_peak.load(Ordering::Relaxed),
        });
    };

    std::thread::scope(|scope| {
        for w in 0..threads {
            let (claim, complete) = (&claim, &complete);
            let (snaps, footprint_peak) = (&snaps, &footprint_peak);
            scope.spawn(move || {
                let wall = Instant::now();
                // Up to `width` sessions interleaved through one arena (route
                // queue, scratch, leased sub-state) and one analyzer or
                // pipeline pool, reused across every session the worker
                // claims.
                let mut worker = MuxWorker::new(domino, opts);
                worker.run(
                    opts.execution.width(),
                    specs,
                    domino,
                    opts,
                    &mut { claim },
                    &mut { complete },
                    Some(footprint_peak),
                );
                // Stamp the worker's wall time and park its snapshot in the
                // worker-indexed slot the post-join merge folds in order.
                let rec = worker.recorder_mut();
                rec.add(Counter::SweepWallNs, wall.elapsed().as_nanos() as u64);
                if let Some(snap) = rec.snapshot() {
                    snaps.lock().expect("sweep worker panicked")[w] = Some(snap);
                }
            });
        }
    });

    let outcomes: Vec<SessionOutcome> = slots
        .into_inner()
        .expect("sweep worker panicked")
        .into_iter()
        .map(|s| s.expect("every slot filled"))
        .collect();

    // Worker snapshots fold in worker-index order. The `Sim` section is
    // order-free integer aggregation, so the fold order only matters for
    // reproducible `Runtime`-section bytes on one machine.
    let mut metrics: Option<MetricsSnapshot> = None;
    for snap in snaps
        .into_inner()
        .expect("sweep worker panicked")
        .into_iter()
        .flatten()
    {
        match &mut metrics {
            None => metrics = Some(snap),
            Some(m) => m.merge(&snap),
        }
    }

    let mut report = SweepReport {
        outcomes,
        aggregate: ChainStats::default(),
        metrics,
    };
    report.aggregate = report.aggregate_where(|_| true);
    report
}

/// Convenience: run the specs and return only the bundles, in spec order.
/// The figure experiments that post-process raw traces use this.
pub fn run_bundles(specs: &[SessionSpec], threads: usize) -> Vec<TraceBundle> {
    let domino = Domino::with_defaults();
    let opts = SweepOptions {
        threads,
        ..SweepOptions::bundles_only()
    };
    run_sweep(specs, &domino, &opts)
        .outcomes
        .into_iter()
        .map(|o| o.bundle.expect("keep_bundles set"))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use scenarios::{all_cells_grid, SessionGrid};
    use simcore::{SimDuration, SimTime};
    use telemetry::Direction;

    fn small_grid() -> Vec<SessionSpec> {
        SessionGrid::new()
            .cells(scenarios::all_cells())
            .durations([SimDuration::from_secs(12)])
            .master_seed(11)
            .build()
    }

    #[test]
    fn parallel_matches_sequential() {
        let specs = small_grid();
        let domino = Domino::with_defaults();
        let seq = run_sweep(
            &specs,
            &domino,
            &SweepOptions {
                threads: 1,
                ..Default::default()
            },
        );
        let par = run_sweep(
            &specs,
            &domino,
            &SweepOptions {
                threads: 4,
                ..Default::default()
            },
        );
        assert_eq!(seq.outcomes.len(), par.outcomes.len());
        for (a, b) in seq.outcomes.iter().zip(&par.outcomes) {
            assert_eq!(a.index, b.index);
            assert_eq!(a.label, b.label);
            assert_eq!(a.meta.seed, b.meta.seed);
        }
        assert_eq!(
            seq.aggregate.total_chain_windows,
            par.aggregate.total_chain_windows
        );
        assert_eq!(seq.aggregate.cause_onsets, par.aggregate.cause_onsets);
        assert_eq!(
            seq.aggregate.consequence_onsets,
            par.aggregate.consequence_onsets
        );
    }

    /// Checks every session of a sweep that kept its bundles and analyses
    /// against the batch oracle, window by window, and the aggregate
    /// against the oracle's statistics folded in spec order.
    fn assert_matches_oracle(report: &SweepReport, domino: &Domino) {
        let mut aggregate = ChainStats::default();
        for o in &report.outcomes {
            let bundle = o.bundle.as_ref().expect("sweep kept its bundles");
            let batch = domino_core::oracle::analyze(domino, bundle);
            assert_eq!(o.analysis.as_ref(), Some(&batch), "{}", o.label);
            aggregate.merge(&ChainStats::compute(domino.graph(), &batch));
        }
        assert_eq!(report.aggregate, aggregate);
    }

    #[test]
    fn streaming_and_batch_modes_agree() {
        let specs = all_cells_grid(3, SimDuration::from_secs(12));
        let domino = Domino::with_defaults();
        let opts = SweepOptions {
            analysis: AnalysisMode::Streaming,
            ..SweepOptions::full()
        };
        let streaming = run_sweep(&specs, &domino, &opts);
        assert_matches_oracle(&streaming, &domino);
        assert!(streaming.outcomes.iter().all(|o| o.live.is_none()));
    }

    /// An ABR stream, whose uplink carries only segment requests, with every
    /// first uplink HARQ attempt failing over 6–9 s: unlike the RTC calls,
    /// whose windows hold dozens of retransmissions, its windows hold
    /// between 1 and 10, where the HARQ threshold decides the feature.
    fn harq_threshold_spec() -> SessionSpec {
        let cfg = scenarios::SessionConfig {
            duration: SimDuration::from_secs(12),
            seed: 5,
            ..Default::default()
        };
        SessionSpec::cell(scenarios::amarisoft(), cfg)
            .abr(Default::default())
            .with_script(scenarios::ScriptAction::HarqFailures {
                dir: Direction::Uplink,
                from: SimTime::from_secs(6),
                to: SimTime::from_secs(9),
                fail_attempts: 1,
            })
    }

    /// Whether some window of `o` holds between 1 and 10 target-UE uplink
    /// HARQ retransmissions.
    fn has_harq_threshold_window(o: &SessionOutcome, domino: &Domino) -> bool {
        let bundle = o.bundle.as_ref().expect("sweep kept its bundles");
        let analysis = o.analysis.as_ref().expect("sweep kept its analyses");
        analysis.windows.iter().any(|w| {
            let retx = bundle
                .dci_window(w.start, w.start + domino.config().window)
                .iter()
                .filter(|d| d.is_target_ue && d.direction == Direction::Uplink)
                .filter(|d| d.harq_retx_idx > 0)
                .count();
            (1..=domino.config().thresholds.harq_retx_count).contains(&retx)
        })
    }

    #[test]
    fn live_mode_agrees_with_batch() {
        let mut specs = all_cells_grid(5, SimDuration::from_secs(12));
        specs.push(harq_threshold_spec());
        let domino = Domino::with_defaults();
        // A lateness bound far beyond any in-network delay in these short
        // sessions: the equivalence contract's precondition.
        let live = run_sweep(
            &specs,
            &domino,
            &SweepOptions {
                analysis: AnalysisMode::Live,
                live: LiveConfig {
                    lateness: Lateness::Static(SimDuration::from_secs(30)),
                    early_exit: EarlyExit::Never,
                },
                ..SweepOptions::full()
            },
        );
        assert_matches_oracle(&live, &domino);
        let last = live.outcomes.last().expect("outcomes");
        assert!(has_harq_threshold_window(last, &domino));
        for o in &live.outcomes {
            let stats = o.live.expect("live mode reports pipeline stats");
            assert_eq!(stats.late_records_dropped, 0);
            assert!(!stats.early_exited);
            assert!(stats.windows_emitted > 0);
        }
    }

    #[test]
    fn rate_window_tracks_recent_throughput_not_lifetime() {
        use std::time::Duration;
        let t0 = Instant::now();
        let mut w = RateWindow::new(t0);
        // One completion: no window yet, lifetime fallback.
        let r1 = w.on_completion(t0 + Duration::from_secs(1), 1);
        assert!((r1 - 1.0).abs() < 0.05, "lifetime fallback, got {r1}");
        // A slow first phase (1 session/s)…
        for i in 2..=5u32 {
            w.on_completion(t0 + Duration::from_secs(i as u64), i as usize);
        }
        // …then a fast phase at 10 sessions/s. After RATE_WINDOW fast
        // completions the slow phase has left the window entirely: the
        // reported rate must be ~10/s, not the lifetime mean (~6/s).
        let mut now = t0 + Duration::from_secs(5);
        let mut rate = 0.0;
        for i in 0..(RATE_WINDOW as u32 + 4) {
            now += Duration::from_millis(100);
            rate = w.on_completion(now, 5 + i as usize + 1);
        }
        assert!(
            (rate - 10.0).abs() < 0.5,
            "windowed rate should track the recent 10/s phase, got {rate}"
        );
    }

    #[test]
    fn rate_window_is_stable_under_batched_completions() {
        // A multiplexed worker finishing a co-started batch reports many
        // completions at (essentially) one instant. The windowed rate must
        // track the batch cadence (8 sessions per second here), not spike
        // because a burst compressed the window span — the old
        // `(len - 1) / span` estimate reported ~15/s on the second batch,
        // halving the ETA until the burst left the window.
        use std::time::Duration;
        let t0 = Instant::now();
        let mut w = RateWindow::new(t0);
        let mut rates = Vec::new();
        for batch in 1..=5u64 {
            let at = t0 + Duration::from_secs(batch);
            for k in 0..8u64 {
                rates.push(w.on_completion(at, ((batch - 1) * 8 + k + 1) as usize));
            }
        }
        // From the second batch on: the snapshot delivered by a batch's
        // last completion — the one a consumer actually observes, since all
        // of a batch's callbacks share one instant — sits at the true
        // cadence, and *no* intermediate snapshot ever spikes above it
        // (the spike is what halved ETAs under the old estimator; the
        // partial undercount while a same-instant burst drains lasts zero
        // wall time).
        for batch in 2..=5usize {
            let r = rates[batch * 8 - 1];
            assert!(
                (r - 8.0).abs() < 0.5,
                "batch {batch} settled at {r}/s, expected the 8/s cadence"
            );
        }
        for (i, r) in rates.iter().enumerate().skip(8) {
            assert!(*r <= 8.5, "completion {i}: rate {r} spiked above cadence");
        }
    }

    #[test]
    fn multiplexed_mode_matches_per_worker() {
        // The byte-level contract lives in tests/multiplex_determinism.rs;
        // this is the in-crate smoke check that the mode wires through
        // SweepOptions and produces identical per-session statistics.
        let specs = small_grid();
        let domino = Domino::with_defaults();
        let base = run_sweep(
            &specs,
            &domino,
            &SweepOptions {
                threads: 1,
                ..Default::default()
            },
        );
        let mux = run_sweep(
            &specs,
            &domino,
            &SweepOptions {
                threads: 1,
                execution: ExecutionMode::Multiplexed { width: 3 },
                ..Default::default()
            },
        );
        assert_eq!(base.outcomes.len(), mux.outcomes.len());
        for (a, b) in base.outcomes.iter().zip(&mux.outcomes) {
            assert_eq!(a.index, b.index);
            assert_eq!(a.label, b.label);
            assert_eq!(a.meta.seed, b.meta.seed);
            assert_eq!(a.stats, b.stats, "stats diverged for {}", a.label);
        }
        assert_eq!(base.aggregate, mux.aggregate);
    }

    #[test]
    fn huge_multiplex_width_matches_width_one() {
        // The driver sizes its active set by `min(width, specs)`: widths
        // whose slot vector would overflow its capacity computation or ask
        // for petabytes must run like any other width.
        let specs = all_cells_grid(13, SimDuration::from_secs(3));
        let domino = Domino::with_defaults();
        let encode = |execution| {
            let opts = SweepOptions {
                threads: 1,
                execution,
                ..Default::default()
            };
            ShardReport::from_sweep(&run_sweep(&specs, &domino, &opts)).encode()
        };
        let width1 = encode(ExecutionMode::Multiplexed { width: 1 });
        for width in [usize::MAX, 1 << 40] {
            assert_eq!(
                encode(ExecutionMode::Multiplexed { width }),
                width1,
                "width {width}"
            );
        }
    }

    #[test]
    fn progress_reports_every_session() {
        use std::sync::atomic::{AtomicUsize, Ordering};
        let specs = small_grid();
        let domino = Domino::with_defaults();
        let calls = AtomicUsize::new(0);
        let max_completed = AtomicUsize::new(0);
        let report = run_sweep_with_progress(
            &specs,
            &domino,
            &SweepOptions {
                threads: 2,
                ..Default::default()
            },
            &|p| {
                calls.fetch_add(1, Ordering::Relaxed);
                max_completed.fetch_max(p.completed, Ordering::Relaxed);
                assert_eq!(p.total, 4);
                assert!(p.completed >= 1 && p.completed <= p.total);
                assert!(p.sessions_per_sec >= 0.0);
                assert!(p.eta_secs >= 0.0);
            },
        );
        assert_eq!(report.outcomes.len(), 4);
        assert_eq!(calls.load(Ordering::Relaxed), 4, "one callback per session");
        assert_eq!(max_completed.load(Ordering::Relaxed), 4);
    }

    #[test]
    fn multiplexed_progress_reports_footprint_with_obs_off() {
        let specs = all_cells_grid(11, SimDuration::from_secs(3));
        let domino = Domino::with_defaults();
        let opts = SweepOptions {
            threads: 1,
            execution: ExecutionMode::Multiplexed { width: 4 },
            ..Default::default()
        };
        assert!(!opts.obs.enabled, "the fix under test is the obs-off path");
        let peaks = Mutex::new(Vec::new());
        run_sweep_with_progress(&specs, &domino, &opts, &|p| {
            peaks.lock().unwrap().push(p.arena_footprint_peak);
        });
        let peaks = peaks.into_inner().unwrap();
        assert_eq!(peaks.len(), specs.len());
        // Sampled before each outcome is delivered, so even the first
        // callback sees the finished session's retained storage.
        assert!(peaks.iter().all(|&p| p > 0), "peaks {peaks:?}");
    }

    #[test]
    fn aggregate_where_filters_by_class() {
        let specs = small_grid();
        let domino = Domino::with_defaults();
        let report = run_sweep(&specs, &domino, &SweepOptions::default());
        let commercial =
            report.aggregate_where(|o| o.meta.cell_class == telemetry::CellClass::Commercial);
        let private =
            report.aggregate_where(|o| o.meta.cell_class == telemetry::CellClass::Private);
        assert!((commercial.minutes + private.minutes - report.aggregate.minutes).abs() < 1e-9);
    }
}
