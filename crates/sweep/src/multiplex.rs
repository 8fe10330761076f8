//! The multiplexed many-call engine: one worker advances N concurrent
//! sessions through **one shared [`SessionArena`]** (whose tagged route
//! queue all of them schedule into) and, in live mode, **one session-keyed
//! [`PipelinePool`]** — the operator deployment shape, where a thread
//! watches a fleet of interleaved calls instead of running one call to
//! completion at a time.
//!
//! # Scheduling
//!
//! All co-scheduled sessions share the engine tick, and the driver steps
//! them on one global tick lattice. Each global tick runs three sweeps over
//! the active set, preserving every session's solo phase order:
//!
//! 1. [`SessionState::begin_tick`] for every active session (endpoints
//!    emit, access network advances); route events land in the arena's
//!    [`SharedRouteQueue`](scenarios::SharedRouteQueue) tagged with the
//!    session's spec index and shifted to global time by its start offset.
//! 2. One global drain of the shared queue in `(time, session, seq)` order;
//!    each popped event is dispatched to its session at session-local time.
//!    Route handlers never schedule further route events, so the drain is
//!    closed within the tick — and restricted to one session it replays
//!    exactly the `(time, seq)` pop order of a private queue.
//! 3. [`SessionState::end_tick`] for every active session; finished
//!    sessions (duration reached, or live early-exit) are finalised, their
//!    slot immediately refilled from the work queue with a session whose
//!    clock starts at the *current* global tick — so long sweeps run with
//!    staggered start offsets as a matter of course.
//!
//! # Determinism
//!
//! Sessions never interact: all randomness is per-session (derived from the
//! spec seed), per-session sub-state is leased from the arena and cleared
//! at lease time, and the shared queue's tag keeps per-session event order
//! identical to a private queue's. Per-session outputs are therefore
//! **byte-identical** to solo runs at any multiplex width and any
//! interleaving of start offsets — `tests/multiplex_determinism.rs`
//! enforces this the same way the PR 3/4 contracts are enforced.
//!
//! Stale events are harmless by construction: a session that ends (or
//! aborts) may leave already-scheduled route events in the shared queue;
//! their tag no longer matches an active session when they pop, so they are
//! dropped — exactly as the solo driver's `queue.clear()` would have
//! discarded them. Whenever the active set drains, the driver clears the
//! queue and restarts the lattice at time zero.
//!
//! # One driver
//!
//! This loop is the only sweep driver: [`ExecutionMode::PerWorker`] runs it
//! at width 1, where it degenerates to one session run to completion at a
//! time. All co-scheduled sessions must share the engine tick; a claimed
//! spec whose tick differs from the lattice's is *parked* — no further spec
//! is claimed — until the active set drains, and then starts and fixes the
//! lattice's tick anew.

use std::sync::atomic::{AtomicU64, Ordering};

use domino_core::{ChainStats, Domino, StreamingAnalyzer};
use domino_live::{ChaosState, ChaosTap, LiveConfig, LivePipeline, PipelinePool, TapFaultLog};
use domino_obs::{Counter, FGauge, Gauge, HistId, Recorder, SpanId};
use scenarios::{SessionArena, SessionSpec, SessionState};
use simcore::{alloc_count, SimDuration, SimTime};
use telemetry::{LiveTap, NullTap};

use crate::{AnalysisMode, SessionOutcome, SweepOptions};

/// How each sweep worker schedules the sessions it claims.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ExecutionMode {
    /// One session at a time per worker, run to completion: the
    /// multiplexed driver at width 1.
    #[default]
    PerWorker,
    /// Up to `width` sessions interleaved per worker through one shared
    /// calendar queue, arena, and pipeline pool (see the
    /// [module docs](crate::multiplex)). `width` ≤ 1 behaves like
    /// [`ExecutionMode::PerWorker`].
    Multiplexed {
        /// Concurrent sessions per worker.
        width: usize,
    },
}

impl ExecutionMode {
    /// Sessions each worker keeps in flight.
    pub(crate) fn width(self) -> usize {
        match self {
            ExecutionMode::PerWorker => 1,
            ExecutionMode::Multiplexed { width } => width,
        }
    }
}

/// One interleaved session in flight.
struct Active {
    /// Global spec index — the shared-queue tag and pipeline-pool key.
    index: usize,
    state: SessionState,
    /// Global time at which this session's local clock started (a multiple
    /// of the group tick: sessions start on the lattice).
    offset: SimDuration,
    /// Telemetry-chaos state for a degraded cell in live mode. Sessions
    /// with no chaos plan (or a plan that cannot fire) have none, and their
    /// taps bypass the wrapper entirely.
    chaos: Option<ChaosState>,
}

/// Everything one sweep worker owns: the arena (route-event queue, scratch,
/// and free-listed per-session sub-state) and the analyzer or pipeline pool
/// for the configured [`AnalysisMode`].
///
/// `run_sweep` spawns one per worker thread; embedders (and the throughput
/// microbenches) that already own a thread can drive one directly through
/// [`MuxWorker::run_batch`], reusing its warm arena, queue, and pool across
/// batches.
pub struct MuxWorker {
    arena: SessionArena,
    pool: Option<PipelinePool>,
    analyzer: Option<StreamingAnalyzer>,
}

impl MuxWorker {
    /// Creates the worker state `opts.analysis` needs under `domino`'s
    /// configuration.
    pub fn new(domino: &Domino, opts: &SweepOptions) -> Self {
        let (graph, cfg) = (domino.graph(), domino.config());
        let analyzer = (opts.analysis == AnalysisMode::Streaming).then(|| {
            StreamingAnalyzer::new(graph.clone(), cfg.clone())
                .expect("checked when the Domino was built")
        });
        let pool = (opts.analysis == AnalysisMode::Live).then(|| {
            PipelinePool::new(graph.clone(), cfg.clone(), opts.live)
                .expect("checked when the Domino was built")
        });
        let mut arena = SessionArena::new();
        *arena.recorder_mut() = Recorder::new(opts.obs);
        MuxWorker {
            arena,
            pool,
            analyzer,
        }
    }

    /// The worker's metrics recorder (disabled unless
    /// [`SweepOptions::obs`] enabled it at construction).
    pub fn recorder_mut(&mut self) -> &mut Recorder {
        self.arena.recorder_mut()
    }

    /// The arena's retained-storage footprint, route queue included (see
    /// [`SessionArena::footprint`]).
    pub fn footprint(&self) -> usize {
        self.arena.footprint()
    }

    /// Drives every spec through this worker at up to `width` in flight
    /// (no threads spawned; claims indices in order) and returns the
    /// outcomes in spec order. Arena, route queue, and pipeline pool stay
    /// warm across calls. When `opts.keep_bundles` is off, each bundle's
    /// record buffers are recycled into the arena for the next session.
    pub fn run_batch(
        &mut self,
        specs: &[SessionSpec],
        width: usize,
        domino: &Domino,
        opts: &SweepOptions,
    ) -> Vec<SessionOutcome> {
        let mut next = 0usize;
        let mut slots: Vec<Option<SessionOutcome>> = Vec::new();
        slots.resize_with(specs.len(), || None);
        let mut claim = || {
            let i = next;
            next += 1;
            (i < specs.len()).then_some(i)
        };
        let mut complete = |o: SessionOutcome| {
            let index = o.index;
            slots[index] = Some(o);
        };
        self.run(width, specs, domino, opts, &mut claim, &mut complete, None);
        slots
            .into_iter()
            .map(|s| s.expect("every spec completed"))
            .collect()
    }

    /// Runs sessions claimed from `claim` at up to `width` in flight,
    /// delivering each finished [`SessionOutcome`] to `complete` (in
    /// completion order; the caller slots them by index).
    /// `footprint_peak`, when given, receives a `fetch_max` of the arena
    /// footprint after every completed session, before `complete` sees it
    /// (the sweep's shared high-water the progress callback reports).
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn run(
        &mut self,
        width: usize,
        specs: &[SessionSpec],
        domino: &Domino,
        opts: &SweepOptions,
        claim: &mut dyn FnMut() -> Option<usize>,
        complete: &mut dyn FnMut(SessionOutcome),
        footprint_peak: Option<&AtomicU64>,
    ) {
        let width = width.max(1);
        let live = opts.analysis == AnalysisMode::Live;
        let obs_on = self.arena.recorder_mut().is_on();
        // Batch-level baselines: the recorder outlives run() calls (warm
        // worker reuse), so allocator and pool rollups record deltas.
        let (allocs_before, ticks_before) = if obs_on {
            (
                alloc_count::allocations(),
                self.arena.recorder_mut().counter(Counter::EngineTicks),
            )
        } else {
            (0, 0)
        };
        let pool_before = self.pool.as_ref().map(|p| p.stats()).unwrap_or_default();
        // No more sessions than specs can ever be in flight, so a huge width
        // reserves nothing extra.
        let mut active: Vec<Active> = Vec::with_capacity(width.min(specs.len()));
        let mut null = NullTap;
        // Global driver clock, the lattice tick, and the mismatched-tick
        // spec (if any) waiting for the active set to drain.
        let mut global = SimTime::ZERO;
        let mut tick = SimDuration::ZERO;
        let mut parked: Option<usize> = None;

        loop {
            if active.is_empty() {
                // Nothing in flight, so every queued event is stale: restart
                // the lattice at zero on a clean queue.
                self.arena.route_parts().0.clear();
                global = SimTime::ZERO;
            }
            // Refill free slots; new sessions start at the current tick. The
            // first spec started on an empty lattice fixes its tick.
            while active.len() < width {
                let Some(index) = parked.take().or_else(&mut *claim) else {
                    break;
                };
                let spec = &specs[index];
                if active.is_empty() {
                    tick = spec.cfg.tick;
                } else if spec.cfg.tick != tick {
                    parked = Some(index);
                    break;
                }
                let mut chaos = None;
                if live {
                    let pipe = self
                        .pool
                        .as_mut()
                        .expect("live implies pool")
                        .checkout(index as u64);
                    pipe.set_live_config(LiveConfig {
                        lateness: spec.lateness.unwrap_or(opts.live.lateness),
                        early_exit: opts.live.early_exit,
                    });
                    chaos = spec
                        .chaos
                        .as_ref()
                        .map(ChaosState::new)
                        .filter(|state| !state.is_noop());
                }
                let s = Active {
                    index,
                    state: spec.start_in(live, &mut self.arena),
                    offset: global - SimTime::ZERO,
                    chaos,
                };
                if s.state.is_done() {
                    // Degenerate spec (duration shorter than its tick): no
                    // tick may be begun — retire it straight away, exactly
                    // like the solo driver's `while !is_done()` guard.
                    self.retire(s, specs, domino, opts, footprint_peak, complete);
                } else {
                    active.push(s);
                }
            }
            if active.is_empty() {
                break;
            }
            self.arena
                .recorder_mut()
                .gauge_max(Gauge::MuxInFlightPeak, active.len() as u64);
            global += tick;

            // Phase 1–2 for every active session, in slot order.
            let (queue, scratch) = self.arena.route_parts();
            let pool = &mut self.pool;
            for s in active.iter_mut() {
                let mut sink = queue.sink(s.index as u64, s.offset);
                with_tap(live, pool, &mut null, s.index, &mut s.chaos, |tap| {
                    s.state.begin_tick(tap, scratch, &mut sink)
                });
            }

            // Phase 3: one global drain in (time, session, seq) order.
            let span = scratch.recorder.span_enter(SpanId::RouteDrain);
            let (mut routed, mut stale) = (0u64, 0u64);
            while let Some((at, tag, ev)) = queue.pop_due(global) {
                let Some(s) = active.iter_mut().find(|s| s.index as u64 == tag) else {
                    stale += 1;
                    continue; // stale event of a finished session
                };
                let local = at - s.offset;
                with_tap(live, pool, &mut null, s.index, &mut s.chaos, |tap| {
                    s.state.route_event(local, ev, tap)
                });
                routed += 1;
            }
            let rec = &mut scratch.recorder;
            rec.span_exit(SpanId::RouteDrain, span);
            // Dispatched events are per-session and width-invariant (`Sim`);
            // stale drops exist only because sessions share the queue, so
            // their count varies with width (`Runtime`).
            rec.add(Counter::EngineRouteEvents, routed);
            rec.add(Counter::MuxStaleDrops, stale);

            // Phase 4–5; retire finished sessions and free their slots.
            let mut i = 0;
            while i < active.len() {
                let s = &mut active[i];
                let (pool, arena) = (&mut self.pool, &mut self.arena);
                let done = with_tap(live, pool, &mut null, s.index, &mut s.chaos, |tap| {
                    s.state.end_tick(tap, arena.scratch_mut())
                });
                if done {
                    let s = active.swap_remove(i);
                    self.retire(s, specs, domino, opts, footprint_peak, complete);
                } else {
                    i += 1;
                }
            }
        }

        if obs_on {
            let allocs = alloc_count::allocations() - allocs_before;
            let pool_now = self.pool.as_ref().map(|p| p.stats());
            let rec = self.arena.recorder_mut();
            let ticks = rec.counter(Counter::EngineTicks) - ticks_before;
            rec.add(Counter::ProcAllocs, allocs);
            if ticks > 0 {
                // One batch-wide figure over all engine ticks: interleaved
                // sessions share the allocator, so a per-session
                // attribution does not exist.
                rec.fgauge_max(FGauge::AllocsPerTickPeak, allocs as f64 / ticks as f64);
            }
            if let Some(st) = pool_now {
                rec.add(
                    Counter::PoolCreated,
                    (st.created - pool_before.created) as u64,
                );
                rec.add(Counter::PoolReused, (st.reused - pool_before.reused) as u64);
                rec.add(
                    Counter::PoolEvicted,
                    (st.evicted - pool_before.evicted) as u64,
                );
            }
        }
    }

    /// The one retire path, for sessions that finished a tick and for
    /// degenerate ones that never began one. Live sessions flush their
    /// pipeline via `on_finish` (through the chaos wrapper, if any), take
    /// the accumulated analysis, and release the pipeline back to the pool,
    /// warm for the next call; in streaming mode the worker's analyzer runs
    /// over the finished bundle. The outcome then goes to `complete`, after
    /// the arena footprint is sampled into the recorder and into
    /// `footprint_peak`.
    fn retire(
        &mut self,
        s: Active,
        specs: &[SessionSpec],
        domino: &Domino,
        opts: &SweepOptions,
        footprint_peak: Option<&AtomicU64>,
        complete: &mut dyn FnMut(SessionOutcome),
    ) {
        let Active {
            index,
            state,
            mut chaos,
            ..
        } = s;
        let key = index as u64;
        let (bundle, analysis, live) = match opts.analysis {
            AnalysisMode::Live => {
                let pool = self.pool.as_mut().expect("live implies pool");
                let tap = pool.get_mut(key).expect("leased at claim");
                // `finish` drives the tap's `on_finish`; with chaos in flight
                // it must route through the wrapper so delayed records still
                // in the chaos stash flush into the pipeline before the
                // final windows.
                let bundle = match &mut chaos {
                    Some(st) => state.finish(&mut ChaosTap::new(st, tap), &mut self.arena),
                    None => state.finish(tap, &mut self.arena),
                };
                let pipe = pool.get_mut(key).expect("leased at claim");
                let analysis = pipe.take_analysis(bundle.meta.duration);
                record_live_obs(self.arena.recorder_mut(), pipe);
                (bundle, Some(analysis), pool.release(key))
            }
            mode => {
                let bundle = state.finish(&mut NullTap, &mut self.arena);
                let analysis = (mode == AnalysisMode::Streaming).then(|| {
                    let analyzer = self.analyzer.as_mut().expect("streaming implies analyzer");
                    analyzer.analyze(&bundle)
                });
                (bundle, analysis, None)
            }
        };
        let rec = self.arena.recorder_mut();
        if let Some(st) = &chaos {
            debug_assert!(st.log.reconciled(), "chaos log must balance");
            record_chaos_obs(rec, &st.log);
        }
        rec.add(Counter::EngineSessions, 1);
        let stats = analysis
            .as_ref()
            .map(|a| ChainStats::compute(domino.graph(), a));
        let meta = bundle.meta.clone();
        let bundle = if opts.keep_bundles {
            Some(bundle)
        } else {
            self.arena.recycle(bundle);
            None
        };
        // Sampled whether or not observability is on: the sweep-wide
        // progress peak needs it either way.
        let fp = self.arena.footprint() as u64;
        self.arena
            .recorder_mut()
            .gauge_max(Gauge::ArenaFootprint, fp);
        if let Some(peak) = footprint_peak {
            peak.fetch_max(fp, Ordering::Relaxed);
        }
        complete(SessionOutcome {
            index,
            label: specs[index].label.clone(),
            meta,
            bundle,
            analysis: if opts.keep_analyses { analysis } else { None },
            stats,
            live,
        });
    }
}

/// Resolves the tap a session's step methods receive — its leased pipeline
/// in live mode, the worker's shared null tap otherwise — wraps it in the
/// session's [`ChaosTap`] when a chaos plan is in flight, and hands it to
/// `f`. The wrapper is built per call (it borrows both the per-session
/// chaos state and the pipeline), which is free: it is two reborrows.
fn with_tap<R>(
    live: bool,
    pool: &mut Option<PipelinePool>,
    null: &mut NullTap,
    index: usize,
    chaos: &mut Option<ChaosState>,
    f: impl FnOnce(&mut dyn LiveTap) -> R,
) -> R {
    let inner: &mut dyn LiveTap = if live {
        pool.as_mut()
            .expect("live implies pool")
            .get_mut(index as u64)
            .expect("leased at claim")
    } else {
        null
    };
    match chaos {
        Some(state) => f(&mut ChaosTap::new(state, inner)),
        None => f(inner),
    }
}

/// Folds one finished live session's pipeline counters and verdict
/// latencies into `rec`. Latency is *simulated* milliseconds past the
/// window's nominal due time (`window_start + window`): the lateness the
/// watermark actually charged, which the adaptive-lateness SLO work needs
/// measured per ROADMAP. All inputs are per-session and deterministic, so
/// every metric here is `Sim`-class.
fn record_live_obs(rec: &mut Recorder, p: &LivePipeline) {
    if !rec.is_on() {
        return;
    }
    let window = p.config().window;
    for v in p.verdicts() {
        let due = v.window_start + window;
        rec.observe(
            HistId::LiveVerdictLatencyMs,
            v.emitted_at.saturating_since(due).as_millis(),
        );
    }
    rec.add(Counter::LiveVerdicts, p.verdicts().len() as u64);
    let st = p.stats();
    rec.add(Counter::LiveRecordsSeen, st.records_seen as u64);
    rec.add(Counter::LiveLateDrops, st.late_records_dropped as u64);
    rec.add(Counter::LiveLateDeliveries, st.late_deliveries as u64);
    rec.add(Counter::LiveWindows, st.windows_emitted as u64);
    rec.add(Counter::LiveDegradedWindows, st.degraded_windows as u64);
    rec.gauge_max(Gauge::LivePeakRetained, st.peak_retained_records as u64);
    rec.absorb_hist(HistId::LiveDelayMs, p.delay_hist());
    rec.absorb_hist(HistId::LiveAdaptiveBoundMs, p.bound_hist());
    rec.absorb_hist(HistId::LiveDropRiskPct, p.risk_hist());
}

/// Folds one finished session's telemetry-chaos ground truth into `rec`:
/// every fault the [`ChaosTap`] injected becomes a `Sim`-class counter, so
/// an operator can reconcile injected faults against the live pipeline's
/// late-drop/coverage stats straight from the metrics artifact.
fn record_chaos_obs(rec: &mut Recorder, log: &TapFaultLog) {
    if !rec.is_on() {
        return;
    }
    rec.add(Counter::ChaosRecordsDropped, log.total_dropped());
    rec.add(Counter::ChaosBlackoutDrops, log.total_blackout_dropped());
    rec.add(Counter::ChaosRecordsDuplicated, log.total_duplicated());
    rec.add(Counter::ChaosRecordsDelayed, log.total_delayed());
    rec.add(Counter::ChaosRecordsSkewed, log.total_skewed());
}
