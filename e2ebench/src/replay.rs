//! `live_replay_chaos`: Domino deployed on captured telemetry.
//!
//! Set-up runs each call of the degraded-telemetry grid once through the
//! session engine with a [`RecordingTap`] between the engine and the live
//! stack, capturing every tap call in the exact order the engine made it
//! (so the gNB log keeps its out-of-order retransmission records), while
//! the live stack behind it produces the reference verdicts inline.
//!
//! The measured run replays those recordings with no simulation on the
//! clock: each worker thread owns one [`PipelinePool`] and interleaves
//! several calls tick by tick, every degraded call behind a fresh
//! [`ChaosTap`]. A worker claims its next call only when one of its calls
//! has finished (closed loop), and every finished replay's verdict stream
//! and counters must equal the ones produced inline during set-up.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

use domino_core::{default_graph, CausalGraph, DominoConfig, StreamingAnalyzer};
use domino_live::{
    ChaosState, ChaosTap, EarlyExit, LiveConfig, LivePipeline, LiveStats, LiveVerdict,
    PipelinePool, TapFaultLog,
};
use scenarios::{SessionArena, SessionSpec};
use simcore::SimTime;
use telemetry::{
    AppStatsRecord, DciRecord, GnbLogRecord, LiveTap, NullTap, PacketRecord, PlaybackStatsRecord,
    TapChaosSpec, TraceBundle,
};

use crate::calib::{self, Calibrator};
use crate::sweeps::THREADS;

/// Calls each worker interleaves through its pipeline pool.
pub const WIDTH: usize = 6;

/// One tap call, as the engine made it.
#[derive(Debug, Clone)]
pub enum TapEvent {
    /// `on_app_local`.
    AppLocal(Box<AppStatsRecord>),
    /// `on_app_remote`.
    AppRemote(Box<AppStatsRecord>),
    /// `on_playback`.
    Playback(Box<PlaybackStatsRecord>),
    /// `on_dci`.
    Dci(DciRecord),
    /// `on_gnb`.
    Gnb(GnbLogRecord),
    /// `on_packet_sent`.
    Sent(u64, PacketRecord),
    /// `on_packet_delivered`.
    Delivered(u64, SimTime),
    /// `on_tick`.
    Tick(SimTime),
    /// `on_finish`.
    Finish(SimTime),
}

impl TapEvent {
    /// Forwards a record event to `tap`; returns `false` for the clock
    /// events (`Tick`, `Finish`), which the caller handles.
    #[inline]
    fn forward_record(&self, tap: &mut dyn LiveTap) -> bool {
        match self {
            TapEvent::AppLocal(r) => tap.on_app_local(r),
            TapEvent::AppRemote(r) => tap.on_app_remote(r),
            TapEvent::Playback(r) => tap.on_playback(r),
            TapEvent::Dci(r) => tap.on_dci(r),
            TapEvent::Gnb(r) => tap.on_gnb(r),
            TapEvent::Sent(id, r) => tap.on_packet_sent(*id, r),
            TapEvent::Delivered(id, at) => tap.on_packet_delivered(*id, *at),
            TapEvent::Tick(_) | TapEvent::Finish(_) => return false,
        }
        true
    }
}

/// Records every call into `inner` before forwarding it.
pub struct RecordingTap<'a> {
    /// The calls so far, in order.
    pub events: Vec<TapEvent>,
    inner: &'a mut dyn LiveTap,
}

impl<'a> RecordingTap<'a> {
    /// Records in front of `inner`.
    pub fn new(inner: &'a mut dyn LiveTap) -> Self {
        RecordingTap {
            events: Vec::new(),
            inner,
        }
    }
}

impl LiveTap for RecordingTap<'_> {
    fn on_app_local(&mut self, r: &AppStatsRecord) {
        self.events.push(TapEvent::AppLocal(Box::new(r.clone())));
        self.inner.on_app_local(r);
    }
    fn on_app_remote(&mut self, r: &AppStatsRecord) {
        self.events.push(TapEvent::AppRemote(Box::new(r.clone())));
        self.inner.on_app_remote(r);
    }
    fn on_playback(&mut self, r: &PlaybackStatsRecord) {
        self.events.push(TapEvent::Playback(Box::new(r.clone())));
        self.inner.on_playback(r);
    }
    fn on_dci(&mut self, r: &DciRecord) {
        self.events.push(TapEvent::Dci(r.clone()));
        self.inner.on_dci(r);
    }
    fn on_gnb(&mut self, r: &GnbLogRecord) {
        self.events.push(TapEvent::Gnb(r.clone()));
        self.inner.on_gnb(r);
    }
    fn on_packet_sent(&mut self, id: u64, r: &PacketRecord) {
        self.events.push(TapEvent::Sent(id, r.clone()));
        self.inner.on_packet_sent(id, r);
    }
    fn on_packet_delivered(&mut self, id: u64, at: SimTime) {
        self.events.push(TapEvent::Delivered(id, at));
        self.inner.on_packet_delivered(id, at);
    }
    fn on_tick(&mut self, now: SimTime) {
        self.events.push(TapEvent::Tick(now));
        self.inner.on_tick(now);
    }
    fn on_finish(&mut self, now: SimTime) {
        self.events.push(TapEvent::Finish(now));
        self.inner.on_finish(now);
    }
    fn should_stop(&self) -> bool {
        self.inner.should_stop()
    }
    fn is_active(&self) -> bool {
        true
    }
}

/// One call recorded in set-up, with the verdicts its inline live stack
/// produced.
pub struct RecordedCall {
    /// Live-stage configuration of the call (its lateness policy).
    pub live: LiveConfig,
    /// Telemetry-chaos plan, if the call is degraded.
    pub chaos: Option<TapChaosSpec>,
    /// Every tap call the engine made, in order.
    pub events: Vec<TapEvent>,
    /// For a degraded call recorded for the traced run: every call its
    /// chaos tap made into the pipeline, in order.
    pub piped: Option<Vec<TapEvent>>,
    /// Verdicts produced inline.
    pub verdicts: Vec<LiveVerdict>,
    /// Pipeline counters produced inline.
    pub stats: LiveStats,
    /// Sorted session times of the ticks at which inline verdicts were
    /// emitted: the replay reads the clock around exactly those `on_tick`
    /// calls.
    pub verdict_ticks: Vec<SimTime>,
    /// Simulated milliseconds of the call (its tick count).
    pub ticks: u64,
    /// The call's finished trace, kept for the traced analyzer pass.
    pub bundle: Option<TraceBundle>,
}

fn chaos_state(spec: Option<&TapChaosSpec>) -> Option<ChaosState> {
    // Like the sweep engine: a plan that cannot fire skips the wrapper.
    spec.map(ChaosState::new).filter(|s| !s.is_noop())
}

/// Records one call: the engine drives a [`RecordingTap`] in front of the
/// call's chaos tap (if any) and a fresh [`LivePipeline`]. With `traced`,
/// a second recorder between the chaos tap and the pipeline captures what
/// the pipeline receives, and the finished trace is kept.
fn record(
    spec: &SessionSpec,
    graph: &CausalGraph,
    arena: &mut SessionArena,
    traced: bool,
) -> RecordedCall {
    let live = LiveConfig {
        lateness: spec.lateness.unwrap_or(LiveConfig::default().lateness),
        early_exit: EarlyExit::Never,
    };
    let mut pipe = LivePipeline::new(graph.clone(), DominoConfig::default(), live)
        .expect("default analysis configuration is streaming-aligned");
    let mut chaos = chaos_state(spec.chaos.as_ref());
    let (events, piped, bundle) = match &mut chaos {
        Some(state) if traced => {
            let mut piped = RecordingTap::new(&mut pipe);
            let mut tap = ChaosTap::new(state, &mut piped);
            let mut rec = RecordingTap::new(&mut tap);
            let bundle = spec.run_with_tap_in(&mut rec, arena);
            let events = rec.events;
            (events, Some(piped.events), bundle)
        }
        Some(state) => {
            let mut tap = ChaosTap::new(state, &mut pipe);
            let mut rec = RecordingTap::new(&mut tap);
            let bundle = spec.run_with_tap_in(&mut rec, arena);
            (rec.events, None, bundle)
        }
        None => {
            let mut rec = RecordingTap::new(&mut pipe);
            let bundle = spec.run_with_tap_in(&mut rec, arena);
            (rec.events, None, bundle)
        }
    };
    let verdicts = pipe.verdicts().to_vec();
    let end = match events.last() {
        Some(TapEvent::Finish(at)) => *at,
        _ => panic!("a recorded call ends with on_finish"),
    };
    let mut verdict_ticks: Vec<SimTime> = verdicts
        .iter()
        .map(|v| v.emitted_at)
        .filter(|&at| at < end)
        .collect();
    verdict_ticks.dedup();
    let ticks = events
        .iter()
        .filter(|e| matches!(e, TapEvent::Tick(_)))
        .count() as u64;
    let bundle = if traced {
        Some(bundle)
    } else {
        arena.recycle(bundle);
        None
    };
    RecordedCall {
        live,
        chaos: spec.chaos.clone(),
        events,
        piped,
        stats: pipe.stats(),
        verdicts,
        verdict_ticks,
        ticks,
        bundle,
    }
}

/// Everything the replay needs, built in set-up.
pub struct ReplaySetup {
    /// The RTC causal graph (parsed from the DSL in set-up).
    pub graph: CausalGraph,
    /// The recorded calls, in grid order.
    pub calls: Vec<RecordedCall>,
    /// Calls of the grid whose recording panicked: they have no reference,
    /// so they are left out of the replay and count as failed.
    pub failed: u64,
}

impl ReplaySetup {
    /// Builds the grid, parses the graph, and records every call on
    /// [`THREADS`] threads (with the extra streams the traced run needs
    /// when `traced`). A call whose recording panics is counted in
    /// [`ReplaySetup::failed`] and left out.
    pub fn new(seed: u64, traced: bool) -> ReplaySetup {
        let specs = crate::workloads::live_replay_chaos(seed);
        let graph = default_graph();
        let next = AtomicUsize::new(0);
        let slots: Mutex<Vec<Option<RecordedCall>>> =
            Mutex::new((0..specs.len()).map(|_| None).collect());
        std::thread::scope(|scope| {
            for _ in 0..THREADS {
                scope.spawn(|| {
                    let mut arena = SessionArena::new();
                    loop {
                        let i = next.fetch_add(1, Ordering::Relaxed);
                        let Some(spec) = specs.get(i) else { break };
                        let call = catch_unwind(AssertUnwindSafe(|| {
                            record(spec, &graph, &mut arena, traced)
                        }));
                        if call.is_err() {
                            // The arena may be mid-session; start afresh.
                            arena = SessionArena::new();
                        }
                        slots.lock().expect("recorder slots poisoned")[i] = call.ok();
                    }
                });
            }
        });
        let slots = slots.into_inner().expect("recorder slots poisoned");
        let failed = slots.iter().filter(|c| c.is_none()).count() as u64;
        let calls = slots.into_iter().flatten().collect();
        ReplaySetup {
            graph,
            calls,
            failed,
        }
    }

    /// Simulated latency of every inline verdict past its window's end, in
    /// milliseconds.
    pub fn verdict_sim_ms(&self) -> Vec<f64> {
        let window = DominoConfig::default().window;
        self.calls
            .iter()
            .flat_map(|c| c.verdicts.iter())
            .map(|v| {
                v.emitted_at
                    .saturating_since(v.window_start + window)
                    .as_millis() as f64
            })
            .collect()
    }
}

/// Host nanoseconds and work counts of the traced replay, per layer.
#[derive(Debug, Default, Clone)]
pub struct LiveLedger {
    /// `ChaosTap` time, with a no-op tap behind it.
    pub chaos: u64,
    /// `LivePipeline` record calls, timed per tick batch.
    pub ingest: u64,
    /// `LivePipeline::on_tick`.
    pub tick: u64,
    /// `LivePipeline::on_finish`.
    pub finish: u64,
    /// `PipelinePool::checkout` + `set_live_config` + `release`.
    pub pool: u64,
    /// Wall time of every worker's replay loop.
    pub total: u64,
    /// Records that entered a chaos tap.
    pub chaos_records: u64,
    /// Faults the chaos taps injected.
    pub chaos_faults: u64,
    /// `on_tick` calls.
    pub ticks: u64,
    /// Pool leases.
    pub leases: u64,
    /// `on_tick` calls that emitted at least one verdict, in ns.
    pub verdict_tick_ns: Vec<f64>,
}

impl LiveLedger {
    /// Every timed layer with its nanoseconds, in report order.
    pub fn layers(&self) -> [(&'static str, u64); 5] {
        [
            ("live.chaos", self.chaos),
            ("live.ingest", self.ingest),
            ("live.tick", self.tick),
            ("live.finish", self.finish),
            ("live.pool", self.pool),
        ]
    }

    fn add(&mut self, o: LiveLedger) {
        self.chaos += o.chaos;
        self.ingest += o.ingest;
        self.tick += o.tick;
        self.finish += o.finish;
        self.pool += o.pool;
        self.total += o.total;
        self.chaos_records += o.chaos_records;
        self.chaos_faults += o.chaos_faults;
        self.ticks += o.ticks;
        self.leases += o.leases;
        self.verdict_tick_ns.extend(o.verdict_tick_ns);
    }
}

fn since(t: &mut Instant) -> u64 {
    let now = Instant::now();
    let ns = now.duration_since(*t).as_nanos() as u64;
    *t = now;
    ns
}

/// A call in flight on a worker.
struct Slot {
    call: usize,
    session: u64,
    pos: usize,
    /// Position in the call's `piped` stream (traced degraded calls).
    pos_piped: usize,
    next_verdict: usize,
    chaos: Option<ChaosState>,
}

/// Replay time of one measured segment of an untraced worker.
const SEGMENT: Duration = Duration::from_millis(250);

/// Steps an untraced worker takes between looks at the clock.
const POLL_TICKS: u64 = 64;

/// One measured segment of an untraced worker and the calibration chunk
/// run right after it.
struct Segment {
    ns: u64,
    ticks: u64,
    /// The worker's verdict-tick samples up to the segment's end.
    verdicts_end: usize,
    calib_ns: u64,
}

/// An untraced worker's replay, cut into [`SEGMENT`]s with a calibration
/// chunk after each, so that each segment is scaled to reference host
/// speed by the host speed around it (see [`crate::calib`]).
struct Segments {
    calib: Calibrator,
    start: Instant,
    /// Steps (ticks and finishes, one simulated millisecond each) in the
    /// open segment.
    ticks: u64,
    polled: u64,
    done: Vec<Segment>,
}

impl Segments {
    fn new(start: Instant) -> Segments {
        Segments {
            calib: Calibrator::default(),
            start,
            ticks: 0,
            polled: 0,
            done: Vec::new(),
        }
    }

    /// Closes the open segment once it is [`SEGMENT`] long.
    fn poll(&mut self, verdicts: usize) {
        if self.ticks - self.polled >= POLL_TICKS {
            self.polled = self.ticks;
            if self.start.elapsed() >= SEGMENT {
                self.close(verdicts);
            }
        }
    }

    /// Ends the open segment and calibrates.
    fn close(&mut self, verdicts: usize) {
        let ns = self.start.elapsed().as_nanos() as u64;
        if self.ticks > 0 {
            self.done.push(Segment {
                ns,
                ticks: self.ticks,
                verdicts_end: verdicts,
                calib_ns: self.calib.measure(),
            });
        }
        self.ticks = 0;
        self.polled = 0;
        self.start = Instant::now();
    }

    /// Fills `out.rates` with each segment's replay rate and scales the
    /// verdict-tick samples, both to reference host speed. A segment's host
    /// speed comes from the chunks just before and after it.
    fn scale(&self, out: &mut ReplayRun) {
        let chunks: Vec<u64> = self.done.iter().map(|s| s.calib_ns).collect();
        let mut from = 0;
        for (i, seg) in self.done.iter().enumerate() {
            let speed = calib::speed(&chunks[i.saturating_sub(1)..(i + 2).min(chunks.len())]);
            out.rates
                .push(seg.ticks as f64 * 1e6 / seg.ns as f64 / speed);
            for ns in &mut out.verdict_tick_ns[from..seg.verdicts_end] {
                *ns *= speed;
            }
            from = seg.verdicts_end;
        }
        out.calib_ns.extend(chunks);
    }
}

struct ReplayCtx<'a> {
    setup: &'a ReplaySetup,
    next: AtomicU64,
    stop: AtomicBool,
}

impl ReplayCtx<'_> {
    fn claim(&self, pool: &mut PipelinePool, l: &mut LiveLedger, traced: bool) -> Option<Slot> {
        if self.stop.load(Ordering::Relaxed) || self.setup.calls.is_empty() {
            return None;
        }
        let session = self.next.fetch_add(1, Ordering::Relaxed);
        let call_idx = (session % self.setup.calls.len() as u64) as usize;
        let call = &self.setup.calls[call_idx];
        let t = Instant::now();
        let pipe = pool.checkout(session);
        pipe.set_live_config(call.live);
        if traced {
            l.pool += t.elapsed().as_nanos() as u64;
            l.leases += 1;
        }
        Some(Slot {
            call: call_idx,
            session,
            pos: 0,
            pos_piped: 0,
            next_verdict: 0,
            chaos: chaos_state(call.chaos.as_ref()),
        })
    }

    /// Replays one tick of `slot` (its record calls, then `on_tick`), or
    /// the call's `on_finish`; returns whether the call finished.
    fn step_plain(&self, slot: &mut Slot, pool: &mut PipelinePool, out: &mut ReplayRun) -> bool {
        let call = &self.setup.calls[slot.call];
        let pipe = pool.get_mut(slot.session).expect("leased");
        let before = pipe.verdicts().len();
        let mut chaos_tap;
        let tap: &mut dyn LiveTap = match &mut slot.chaos {
            Some(state) => {
                chaos_tap = ChaosTap::new(state, pipe);
                &mut chaos_tap
            }
            None => pipe,
        };
        let mut timed_ns = None;
        let mut finished = false;
        for ev in &call.events[slot.pos..] {
            slot.pos += 1;
            if ev.forward_record(tap) {
                continue;
            }
            match *ev {
                TapEvent::Tick(now) => {
                    if call.verdict_ticks.get(slot.next_verdict) == Some(&now) {
                        slot.next_verdict += 1;
                        let t = Instant::now();
                        tap.on_tick(now);
                        timed_ns = Some(t.elapsed().as_nanos() as f64);
                    } else {
                        tap.on_tick(now);
                    }
                }
                TapEvent::Finish(at) => {
                    tap.on_finish(at);
                    finished = true;
                }
                _ => unreachable!("record events were forwarded"),
            }
            break;
        }
        if let Some(ns) = timed_ns {
            let pipe = pool.get_mut(slot.session).expect("leased");
            if pipe.verdicts().len() > before {
                out.verdict_tick_ns.push(ns);
            }
        }
        finished
    }

    /// [`Self::step_plain`] with every layer call timed. A degraded call's
    /// tick first runs through its chaos tap with a no-op tap behind it
    /// (the chaos layer's own time), then the pipeline replays what the
    /// chaos tap forwarded during set-up: the same call sequence it gets
    /// behind the real chaos tap, so its verdicts must still match.
    fn step_traced(&self, slot: &mut Slot, pool: &mut PipelinePool, l: &mut LiveLedger) -> bool {
        let call = &self.setup.calls[slot.call];
        let mut t = Instant::now();
        let (stream, pos) = match &mut slot.chaos {
            Some(state) => {
                let mut null = NullTap;
                let mut tap = ChaosTap::new(state, &mut null);
                for ev in &call.events[slot.pos..] {
                    slot.pos += 1;
                    if ev.forward_record(&mut tap) {
                        continue;
                    }
                    match *ev {
                        TapEvent::Tick(now) => tap.on_tick(now),
                        TapEvent::Finish(at) => tap.on_finish(at),
                        _ => unreachable!("record events were forwarded"),
                    }
                    break;
                }
                l.chaos += since(&mut t);
                let piped = call
                    .piped
                    .as_deref()
                    .expect("traced set-up records piped streams");
                (piped, &mut slot.pos_piped)
            }
            None => (call.events.as_slice(), &mut slot.pos),
        };
        let pipe = pool.get_mut(slot.session).expect("leased");
        for ev in &stream[*pos..] {
            *pos += 1;
            if ev.forward_record(&mut *pipe) {
                continue;
            }
            l.ingest += since(&mut t);
            return match *ev {
                TapEvent::Tick(now) => {
                    let before = pipe.verdicts().len();
                    pipe.on_tick(now);
                    let ns = since(&mut t);
                    l.tick += ns;
                    l.ticks += 1;
                    if pipe.verdicts().len() > before {
                        l.verdict_tick_ns.push(ns as f64);
                    }
                    false
                }
                TapEvent::Finish(at) => {
                    pipe.on_finish(at);
                    l.finish += since(&mut t);
                    true
                }
                _ => unreachable!("record events were forwarded"),
            };
        }
        unreachable!("a recorded call ends with on_finish")
    }

    fn worker(&self, traced: bool) -> ReplayRun {
        let started = Instant::now();
        let mut out = ReplayRun::default();
        let mut segments = Segments::new(started);
        let mut pool = PipelinePool::new(
            self.setup.graph.clone(),
            DominoConfig::default(),
            LiveConfig::default(),
        )
        .expect("default analysis configuration is streaming-aligned");
        let mut slots: Vec<Slot> = (0..WIDTH)
            .filter_map(|_| self.claim(&mut pool, &mut out.ledger, traced))
            .collect();
        while !slots.is_empty() {
            let mut i = 0;
            while i < slots.len() {
                let stepped = catch_unwind(AssertUnwindSafe(|| {
                    if traced {
                        self.step_traced(&mut slots[i], &mut pool, &mut out.ledger)
                    } else {
                        self.step_plain(&mut slots[i], &mut pool, &mut out)
                    }
                }));
                segments.ticks += 1;
                let slot = &slots[i];
                match stepped {
                    Ok(false) => {
                        i += 1;
                        continue;
                    }
                    Ok(true) => self.check(slot, &mut pool, &mut out),
                    // A call whose replay panics fails; its pipeline is
                    // reset when the pool leases it again.
                    Err(_) => {
                        out.calls += 1;
                        out.failed += 1;
                    }
                }
                let t = Instant::now();
                pool.release(slot.session);
                if traced {
                    out.ledger.pool += t.elapsed().as_nanos() as u64;
                }
                match self.claim(&mut pool, &mut out.ledger, traced) {
                    Some(s) => slots[i] = s,
                    None => {
                        slots.swap_remove(i);
                    }
                }
            }
            if !traced {
                segments.poll(out.verdict_tick_ns.len());
            }
        }
        out.ledger.total = started.elapsed().as_nanos() as u64;
        if !traced {
            segments.close(out.verdict_tick_ns.len());
            segments.scale(&mut out);
        }
        out
    }

    /// Compares a finished replay with its inline reference.
    fn check(&self, slot: &Slot, pool: &mut PipelinePool, out: &mut ReplayRun) {
        let call = &self.setup.calls[slot.call];
        let pipe = pool.get_mut(slot.session).expect("leased");
        let stats = pipe.stats();
        let ok = pipe.verdicts() == call.verdicts.as_slice() && stats == call.stats;
        out.calls += 1;
        out.failed += u64::from(!ok);
        out.sim_secs += call.ticks as f64 / 1000.0;
        out.retained_peak = out.retained_peak.max(stats.peak_retained_records as u64);
        out.records_seen += stats.records_seen as u64;
        out.late_drops += stats.late_records_dropped as u64;
        out.windows += stats.windows_emitted as u64;
        out.verdicts += pipe.verdicts().len() as u64;
        if let Some(state) = &slot.chaos {
            out.ledger.chaos_records += state.log.total_records_in();
            out.ledger.chaos_faults += faults(&state.log);
        }
    }
}

fn faults(log: &TapFaultLog) -> u64 {
    log.total_dropped()
        + log.total_blackout_dropped()
        + log.total_duplicated()
        + log.total_delayed()
        + log.total_skewed()
}

/// What one replay run (or one of its workers) measured.
#[derive(Default)]
pub struct ReplayRun {
    /// Wall time from the first claim until every worker finished.
    pub wall: Duration,
    /// Simulated call-seconds one worker replayed per host second, one
    /// value per measured segment, at reference host speed (untraced run).
    pub rates: Vec<f64>,
    /// Simulated call-seconds replayed to the end of their calls.
    pub sim_secs: f64,
    /// Host ns of the verdict-emitting `on_tick` calls, at reference host
    /// speed (untraced run).
    pub verdict_tick_ns: Vec<f64>,
    /// Calls replayed to the end.
    pub calls: u64,
    /// Of those, calls whose verdicts or counters differed from set-up's.
    pub failed: u64,
    /// Largest `LiveStats::peak_retained_records` of any replayed call.
    pub retained_peak: u64,
    /// Records the pipelines saw.
    pub records_seen: u64,
    /// Records dropped as late.
    pub late_drops: u64,
    /// Windows emitted.
    pub windows: u64,
    /// Verdicts emitted.
    pub verdicts: u64,
    /// Per-layer ledger (traced run only).
    pub ledger: LiveLedger,
    /// Host-speed calibration times measured after each segment
    /// (untraced run).
    pub calib_ns: Vec<u64>,
}

impl ReplayRun {
    /// Adds a worker's figures.
    fn absorb(&mut self, o: ReplayRun) {
        self.sim_secs += o.sim_secs;
        self.verdict_tick_ns.extend(o.verdict_tick_ns);
        self.calls += o.calls;
        self.failed += o.failed;
        self.retained_peak = self.retained_peak.max(o.retained_peak);
        self.records_seen += o.records_seen;
        self.late_drops += o.late_drops;
        self.windows += o.windows;
        self.verdicts += o.verdicts;
        self.rates.extend(o.rates);
        self.calib_ns.extend(o.calib_ns);
        self.ledger.add(o.ledger);
    }
}

/// Replays recorded calls on [`THREADS`] workers for `seconds`.
pub fn replay(setup: &ReplaySetup, seconds: f64, traced: bool) -> ReplayRun {
    let ctx = ReplayCtx {
        setup,
        next: AtomicU64::new(0),
        stop: AtomicBool::new(false),
    };
    let started = Instant::now();
    let outs: Vec<ReplayRun> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..THREADS)
            .map(|_| {
                let ctx = &ctx;
                scope.spawn(move || ctx.worker(traced))
            })
            .collect();
        std::thread::sleep(Duration::from_secs_f64(seconds));
        ctx.stop.store(true, Ordering::Relaxed);
        handles
            .into_iter()
            .map(|h| h.join().expect("replay worker panicked"))
            .collect()
    });
    let mut run = ReplayRun {
        wall: started.elapsed(),
        ..Default::default()
    };
    for o in outs {
        run.absorb(o);
    }
    run
}

/// Times the streaming analyzer's `push_slices` + `emit` over every
/// window of every recorded call (the same windows the replay's pipelines
/// emit), `reps` times; returns `(ns, windows)`.
pub fn time_core_emit(setup: &ReplaySetup, reps: usize) -> (u64, u64) {
    let cfg = DominoConfig::default();
    let mut analyzer = StreamingAnalyzer::new(setup.graph.clone(), cfg.clone())
        .expect("default analysis configuration is streaming-aligned");
    let (mut ns, mut windows) = (0u64, 0u64);
    for _ in 0..reps {
        for call in &setup.calls {
            let bundle = call
                .bundle
                .as_ref()
                .expect("traced set-up keeps the traces");
            analyzer.reset();
            let horizon = bundle.horizon();
            let mut cur = bundle.cursor();
            let mut start = SimTime::ZERO + cfg.warmup;
            while start + cfg.window <= horizon {
                let t = Instant::now();
                let slices = bundle.advance_until(&mut cur, start + cfg.window);
                analyzer.push_slices(&slices);
                std::hint::black_box(analyzer.emit(start));
                ns += t.elapsed().as_nanos() as u64;
                windows += 1;
                start += cfg.step;
            }
        }
    }
    (ns, windows)
}
