//! The traced run of the two sweep workloads: every session is driven
//! through the engine's public stepping API from this file, with a clock
//! read between consecutive calls into each layer, and the analysis, the
//! chain statistics, and the shard codec timed around their calls.
//!
//! Tick structure (one clock read at each `|`, so the spans tile the tick
//! and the tracing costs five clock reads per simulated millisecond):
//!
//! ```text
//! | emit_tick | collect_access | flush schedules + pop_due | route_event* | end_tick |
//! ```
//!
//! Route events scheduled during `emit_tick` / `collect_access` land in a
//! buffering [`RouteSink`] and enter the calendar queue in schedule order
//! before the tick's pops. Route handlers never schedule further events, so
//! this is the order the solo driver produces, and popping every due event
//! before routing them is too: the bundle is byte-identical to the
//! untraced run's, which the caller checks.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::Instant;

use domino_core::{ChainStats, Domino, StreamingAnalyzer};
use domino_obs::{Counter, ObsConfig, Recorder};
use domino_sweep::{SessionOutcome, ShardPlan, ShardReport, SweepReport};
use scenarios::{RouteEvent, RouteSink, SessionArena, SessionSpec};
use simcore::{EventQueue, SimTime};
use telemetry::NullTap;

use crate::sweeps::{shard_report, SweepKind, SHARDS, THREADS};

/// Host nanoseconds and work counts of one traced run, per layer.
#[derive(Debug, Default, Clone, Copy)]
pub struct SweepLedger {
    /// `SessionSpec::start_in`.
    pub start_in: u64,
    /// `SessionState::emit_tick` (sender/receiver emit, downlink path).
    pub emit: u64,
    /// `SessionState::collect_access` (cell poll, uplink path).
    pub collect: u64,
    /// Calendar-queue `schedule` + `pop_due`.
    pub queue: u64,
    /// `SessionState::route_event`.
    pub route: u64,
    /// `SessionState::end_tick`.
    pub end_tick: u64,
    /// `SessionState::finish`.
    pub finish: u64,
    /// `StreamingAnalyzer::analyze`.
    pub analyze: u64,
    /// `ChainStats::compute`.
    pub chain_stats: u64,
    /// `ShardReport::encode`.
    pub encode: u64,
    /// `ShardReport::parse`.
    pub parse: u64,
    /// `merge_shards`.
    pub merge: u64,
    /// Encoded report bytes.
    pub report_bytes: u64,
    /// Wall time of every worker's session loop plus the main thread's
    /// report handling: the total the layer times are shares of.
    pub total: u64,
    /// Traced passes over the grid.
    pub passes: u64,
    /// Sessions traced.
    pub sessions: u64,
    /// Simulated seconds traced.
    pub sim_secs: f64,
    /// Route events routed.
    pub route_events: u64,
    /// Engine ticks (obs counter).
    pub ticks: u64,
    /// Packets through the path models (obs counter).
    pub net_packets: u64,
    /// Packets the path models lost (obs counter).
    pub net_lost: u64,
    /// Cell data slots (obs counter).
    pub data_slots: u64,
    /// HARQ retransmissions (obs counter).
    pub harq_retx: u64,
    /// PRBs offered (obs counter).
    pub prb_budget: u64,
    /// PRBs granted (obs counter).
    pub prb_granted: u64,
}

impl SweepLedger {
    fn add(&mut self, o: &SweepLedger) {
        self.start_in += o.start_in;
        self.emit += o.emit;
        self.collect += o.collect;
        self.queue += o.queue;
        self.route += o.route;
        self.end_tick += o.end_tick;
        self.finish += o.finish;
        self.analyze += o.analyze;
        self.chain_stats += o.chain_stats;
        self.encode += o.encode;
        self.parse += o.parse;
        self.merge += o.merge;
        self.report_bytes += o.report_bytes;
        self.total += o.total;
        self.passes += o.passes;
        self.sessions += o.sessions;
        self.sim_secs += o.sim_secs;
        self.route_events += o.route_events;
        self.ticks += o.ticks;
        self.net_packets += o.net_packets;
        self.net_lost += o.net_lost;
        self.data_slots += o.data_slots;
        self.harq_retx += o.harq_retx;
        self.prb_budget += o.prb_budget;
        self.prb_granted += o.prb_granted;
    }

    /// Every timed layer with its nanoseconds, in report order.
    pub fn layers(&self) -> [(&'static str, u64); 12] {
        [
            ("scenarios.start_in", self.start_in),
            ("scenarios.emit_tick", self.emit),
            ("ran.collect_access", self.collect),
            ("simcore.queue", self.queue),
            ("scenarios.route_event", self.route),
            ("scenarios.end_tick", self.end_tick),
            ("scenarios.finish", self.finish),
            ("core.analyze", self.analyze),
            ("core.chain_stats", self.chain_stats),
            ("sweep.codec.encode", self.encode),
            ("sweep.codec.parse", self.parse),
            ("sweep.merge", self.merge),
        ]
    }
}

fn since(t: &mut Instant) -> u64 {
    let now = Instant::now();
    let ns = now.duration_since(*t).as_nanos() as u64;
    *t = now;
    ns
}

/// Holds a tick's route events until the traced loop moves them into the
/// calendar queue, in schedule order, under the queue's own clock span.
#[derive(Default)]
struct BufferSink {
    pending: Vec<(SimTime, RouteEvent)>,
}

impl RouteSink for BufferSink {
    fn schedule(&mut self, at: SimTime, ev: RouteEvent) {
        self.pending.push((at, ev));
    }
}

/// One worker's reusable state for the traced loop.
struct TracedWorker {
    arena: SessionArena,
    queue: EventQueue<RouteEvent>,
    sink: BufferSink,
    due: Vec<(SimTime, RouteEvent)>,
    analyzer: StreamingAnalyzer,
    ledger: SweepLedger,
}

impl TracedWorker {
    fn new(domino: &Domino) -> Self {
        let mut arena = SessionArena::new();
        // Work counts come from the engine's own recorder; its span clock
        // is never sampled.
        *arena.recorder_mut() = Recorder::new(ObsConfig {
            enabled: true,
            wall_sample_every: u32::MAX,
        });
        TracedWorker {
            arena,
            queue: EventQueue::calendar(),
            sink: BufferSink::default(),
            due: Vec::new(),
            analyzer: StreamingAnalyzer::new(domino.graph().clone(), domino.config().clone())
                .expect("default analysis configuration is streaming-aligned"),
            ledger: SweepLedger::default(),
        }
    }

    /// Drives one session to completion, then analyses it.
    fn session(&mut self, spec: &SessionSpec, index: usize, domino: &Domino) -> SessionOutcome {
        let l = &mut self.ledger;
        let mut tap = NullTap;
        let mut t = Instant::now();
        let mut state = spec.start_in(false, &mut self.arena);
        l.start_in += since(&mut t);
        self.queue.clear();
        while !state.is_done() {
            let scratch = self.arena.scratch_mut();
            state.emit_tick(&mut tap, scratch, &mut self.sink);
            l.emit += since(&mut t);
            state.collect_access(scratch, &mut self.sink);
            l.collect += since(&mut t);
            for (at, ev) in self.sink.pending.drain(..) {
                self.queue.schedule(at, ev);
            }
            while let Some(ev) = self.queue.pop_due(state.now()) {
                self.due.push((ev.at, ev.event));
            }
            l.queue += since(&mut t);
            l.route_events += self.due.len() as u64;
            for (at, ev) in self.due.drain(..) {
                state.route_event(at, ev, &mut tap);
            }
            l.route += since(&mut t);
            let done = state.end_tick(&mut tap, scratch);
            l.end_tick += since(&mut t);
            if done {
                break;
            }
        }
        let bundle = state.finish(&mut tap, &mut self.arena);
        l.finish += since(&mut t);
        let analysis = self.analyzer.analyze(&bundle);
        l.analyze += since(&mut t);
        let stats = ChainStats::compute(domino.graph(), &analysis);
        l.chain_stats += since(&mut t);
        l.sessions += 1;
        l.sim_secs += spec.cfg.duration.as_secs_f64();
        let meta = bundle.meta.clone();
        self.arena.recycle(bundle);
        SessionOutcome {
            index,
            label: spec.label.clone(),
            meta,
            bundle: None,
            analysis: None,
            stats: Some(stats),
            live: None,
        }
    }

    fn finish(mut self) -> SweepLedger {
        let rec = self.arena.recorder_mut();
        let mut l = self.ledger;
        l.ticks = rec.counter(Counter::EngineTicks);
        l.net_packets = rec.counter(Counter::NetPackets);
        l.net_lost = rec.counter(Counter::NetLost);
        l.data_slots = rec.counter(Counter::RanDataSlots);
        l.harq_retx = rec.counter(Counter::RanHarqRetx);
        l.prb_budget = rec.counter(Counter::RanPrbBudget);
        l.prb_granted = rec.counter(Counter::RanPrbGranted);
        l
    }
}

/// Traces one pass over `specs` on [`THREADS`] workers, each claiming its
/// next session when its previous one is done, and returns the pass's
/// whole-grid report with the pass's ledger.
pub fn traced_pass(
    kind: SweepKind,
    specs: &[SessionSpec],
    domino: &Domino,
) -> (ShardReport, SweepLedger) {
    let next = AtomicUsize::new(0);
    let slots: Mutex<Vec<Option<SessionOutcome>>> = Mutex::new(vec![None; specs.len()]);
    let mut ledger = SweepLedger::default();
    let workers: Vec<SweepLedger> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..THREADS)
            .map(|_| {
                let (next, slots) = (&next, &slots);
                scope.spawn(move || {
                    let started = Instant::now();
                    let mut w = TracedWorker::new(domino);
                    loop {
                        let i = next.fetch_add(1, Ordering::Relaxed);
                        if i >= specs.len() {
                            break;
                        }
                        let o = w.session(&specs[i], i, domino);
                        slots.lock().expect("traced worker panicked")[i] = Some(o);
                    }
                    let mut l = w.finish();
                    l.total = started.elapsed().as_nanos() as u64;
                    l
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("traced worker panicked"))
            .collect()
    });
    for w in &workers {
        ledger.add(w);
    }
    let outcomes: Vec<SessionOutcome> = slots
        .into_inner()
        .expect("traced worker panicked")
        .into_iter()
        .map(|o| o.expect("every session traced"))
        .collect();

    let main_start = Instant::now();
    let mut t = Instant::now();
    let report = match kind {
        SweepKind::RtcTable1 => {
            let plan = ShardPlan::new(specs.len(), SHARDS);
            let mut texts = Vec::new();
            for shard in plan.shards() {
                let sweep = SweepReport {
                    outcomes: outcomes[shard.range.clone()]
                        .iter()
                        .map(|o| SessionOutcome {
                            index: o.index - shard.range.start,
                            ..o.clone()
                        })
                        .collect(),
                    aggregate: ChainStats::default(),
                    metrics: None,
                };
                let report = shard_report(sweep, &shard, specs.len());
                let _ = since(&mut t);
                let text = report.encode();
                ledger.encode += since(&mut t);
                ledger.report_bytes += text.len() as u64;
                texts.push(text);
            }
            let mut parsed = Vec::new();
            for text in &texts {
                let _ = since(&mut t);
                parsed.push(ShardReport::parse(text).expect("own encoding parses"));
                ledger.parse += since(&mut t);
            }
            let merged = domino_sweep::merge_shards(&parsed).expect("shards tile the grid");
            ledger.merge += since(&mut t);
            merged
        }
        SweepKind::AbrMux => {
            let report = ShardReport::from_sweep(&SweepReport {
                outcomes,
                aggregate: ChainStats::default(),
                metrics: None,
            });
            let _ = since(&mut t);
            let text = report.encode();
            ledger.encode += since(&mut t);
            ledger.report_bytes += text.len() as u64;
            report
        }
    };
    ledger.total += main_start.elapsed().as_nanos() as u64;
    ledger.passes = 1;
    (report, ledger)
}

/// Sums ledgers of several traced passes.
pub fn sum(ledgers: &[SweepLedger]) -> SweepLedger {
    let mut total = SweepLedger::default();
    for l in ledgers {
        total.add(l);
    }
    total
}
