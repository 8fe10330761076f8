//! Deterministic fault injection for the coordinator: a declarative,
//! seedable [`FaultPlan`] and an in-process fleet ([`InProcFleet`]) that
//! implements [`Transport`] over a **virtual clock**.
//!
//! The fleet simulates worker processes: a dispatch runs the real
//! worker-side range executor synchronously (same bytes a
//! remote worker would produce), then schedules its result frame on a
//! [`simcore::EventQueue`] at `now + cost`, where cost is a synthetic
//! per-spec latency.
//! Faults rewrite that schedule — kill the worker before delivery, delay
//! the frame, flip a byte, deliver it twice, or drop it. Because time only
//! advances through [`Transport::recv`] and every event is ordered by
//! `(virtual time, sequence)`, a given `(grid, plan, config)` triple
//! replays the exact same interleaving on every run — which is what lets
//! the chaos matrix assert *byte-identical* merged output rather than
//! merely "eventually consistent".

use std::collections::BTreeMap;

use domino_core::Domino;
use rand::{rngs::StdRng, Rng, SeedableRng};
use scenarios::SessionSpec;
use simcore::{EventQueue, SimTime};

use crate::transport::{
    DispatchSpec, Frame, FrameKind, SendError, Transport, TransportEvent, WorkerId,
};
use crate::worker::{corrupt_in_place, SweepWorker};
use crate::SweepOptions;

/// One scripted failure. Worker indices refer to the *initial* fleet
/// (respawned workers are fresh and fault-free); range indices refer to
/// the coordinator's sub-range ids.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Fault {
    /// Kill initial worker `worker` once it has started more than
    /// `after_specs` specs — the crossing range is computed but never
    /// delivered (a crash mid-range). Optionally respawn a replacement
    /// after `respawn_after_ms` of virtual time.
    KillWorker {
        worker: usize,
        after_specs: usize,
        respawn_after_ms: Option<u64>,
    },
    /// Add `delay_ms` of virtual latency to every delivery of range
    /// `range`'s result (straggler).
    DelayRange { range: usize, delay_ms: u64 },
    /// Flip a byte in the next `times` deliveries of range `range`'s
    /// result; the coordinator's checksum must catch each one.
    CorruptResult { range: usize, times: u32 },
    /// Deliver every result of range `range` twice (duplicate delivery;
    /// the coordinator must discard by range id).
    DuplicateResult { range: usize },
    /// Silently drop the next `times` deliveries of range `range`'s
    /// result (the worker did the work; the bytes never arrive), forcing
    /// a deadline expiry + retry.
    DropResult { range: usize, times: u32 },
}

/// A seeded, declarative failure schedule.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct FaultPlan {
    /// Seed recorded for reproduction (informational for hand-written
    /// plans; the generator seed for [`FaultPlan::random`]).
    pub seed: u64,
    /// The scripted faults.
    pub faults: Vec<Fault>,
}

impl FaultPlan {
    /// No faults: a clean fleet.
    pub fn none() -> FaultPlan {
        FaultPlan::default()
    }

    /// A random-but-reproducible plan for a fleet of `workers` and a sweep
    /// of `ranges` sub-ranges: each fault family is included with some
    /// probability and aimed at a random target. Kills always respawn, so
    /// any plan terminates on any fleet size.
    pub fn random(seed: u64, workers: usize, ranges: usize) -> FaultPlan {
        let mut rng = StdRng::seed_from_u64(seed ^ 0x00c0_ffee_d15c_0bad);
        let mut faults = Vec::new();
        if rng.gen_bool(0.6) {
            faults.push(Fault::KillWorker {
                worker: rng.gen_range(0..workers.max(1)),
                after_specs: rng.gen_range(0..6),
                respawn_after_ms: Some(rng.gen_range(10..80)),
            });
        }
        if rng.gen_bool(0.6) {
            faults.push(Fault::DelayRange {
                range: rng.gen_range(0..ranges.max(1)),
                delay_ms: rng.gen_range(40..120),
            });
        }
        if rng.gen_bool(0.6) {
            faults.push(Fault::CorruptResult {
                range: rng.gen_range(0..ranges.max(1)),
                times: rng.gen_range(1..=2),
            });
        }
        if rng.gen_bool(0.5) {
            faults.push(Fault::DuplicateResult {
                range: rng.gen_range(0..ranges.max(1)),
            });
        }
        if rng.gen_bool(0.5) {
            faults.push(Fault::DropResult {
                range: rng.gen_range(0..ranges.max(1)),
                times: rng.gen_range(1..=2),
            });
        }
        FaultPlan { seed, faults }
    }
}

/// What the fleet actually injected, for asserting that nothing was
/// swallowed (e.g. every corrupted delivery must surface in
/// `CoordinatorStats::corrupt_reports`).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FaultLog {
    /// Workers killed.
    pub kills: u32,
    /// Replacement workers spawned.
    pub respawns: u32,
    /// Result deliveries with a flipped byte.
    pub corruptions: u32,
    /// Extra (duplicate) deliveries scheduled.
    pub duplicates: u32,
    /// Result deliveries silently dropped.
    pub drops: u32,
    /// Result deliveries delayed.
    pub delays: u32,
}

enum EvKind {
    Connect { id: u64, fresh: bool },
    Frame(u64, Frame),
    Disconnect(u64),
}

struct SimWorker<'a> {
    exec: SweepWorker<'a>,
    /// Index into the kill table; `None` for respawned workers.
    kill_slot: Option<usize>,
    /// Virtual instant the worker becomes free to start the next range.
    free_at: u64,
    /// Scheduled death, if a kill has fired.
    dead_at: Option<u64>,
}

struct KillState {
    after_specs: usize,
    respawn_after_ms: Option<u64>,
    fired: bool,
}

/// Virtual-clock [`Transport`] running real sweep workers in-process under
/// a scripted [`FaultPlan`]. Synthetic latency: a range of `n` specs costs
/// `base_ms + n * per_spec_ms` of virtual time on its worker.
pub struct InProcFleet<'a> {
    specs: &'a [SessionSpec],
    domino: &'a Domino,
    opts: &'a SweepOptions,
    now: u64,
    /// Pending fleet events at virtual milliseconds, popped by time and
    /// then by insertion.
    events: EventQueue<EvKind>,
    workers: BTreeMap<u64, SimWorker<'a>>,
    next_id: u64,
    kills: Vec<(usize, KillState)>,
    delays: Vec<(usize, u64)>,
    corrupts: Vec<(usize, u32)>,
    duplicates: Vec<usize>,
    drops: Vec<(usize, u32)>,
    /// Tally of injected faults, for post-run assertions.
    pub log: FaultLog,
    base_ms: u64,
    per_spec_ms: u64,
}

impl<'a> InProcFleet<'a> {
    /// A fleet of `workers` initial workers under `plan`. Worker `i`
    /// connects at virtual time `i` ms.
    pub fn new(
        specs: &'a [SessionSpec],
        domino: &'a Domino,
        opts: &'a SweepOptions,
        workers: usize,
        plan: &FaultPlan,
    ) -> InProcFleet<'a> {
        let mut fleet = InProcFleet {
            specs,
            domino,
            opts,
            now: 0,
            events: EventQueue::calendar(),
            workers: BTreeMap::new(),
            next_id: 0,
            kills: Vec::new(),
            delays: Vec::new(),
            corrupts: Vec::new(),
            duplicates: Vec::new(),
            drops: Vec::new(),
            log: FaultLog::default(),
            base_ms: 4,
            per_spec_ms: 3,
        };
        for f in &plan.faults {
            match *f {
                Fault::KillWorker {
                    worker,
                    after_specs,
                    respawn_after_ms,
                } => fleet.kills.push((
                    worker,
                    KillState {
                        after_specs,
                        respawn_after_ms,
                        fired: false,
                    },
                )),
                Fault::DelayRange { range, delay_ms } => fleet.delays.push((range, delay_ms)),
                Fault::CorruptResult { range, times } => fleet.corrupts.push((range, times)),
                Fault::DuplicateResult { range } => fleet.duplicates.push(range),
                Fault::DropResult { range, times } => fleet.drops.push((range, times)),
            }
        }
        for i in 0..workers {
            let at = i as u64;
            fleet.push_ev(
                at,
                EvKind::Connect {
                    id: i as u64,
                    fresh: false,
                },
            );
        }
        fleet.next_id = workers as u64;
        fleet
    }

    fn push_ev(&mut self, at: u64, kind: EvKind) {
        self.events.schedule(SimTime::from_millis(at), kind);
    }

    /// Total virtual latency for a range of `len` specs.
    fn cost_ms(&self, len: usize) -> u64 {
        self.base_ms + self.per_spec_ms * len as u64
    }
}

impl Transport for InProcFleet<'_> {
    fn now_ms(&self) -> u64 {
        self.now
    }

    fn send(&mut self, to: WorkerId, frame: &Frame) -> Result<(), SendError> {
        let now = self.now;
        match frame.kind {
            // Drains to already-gone workers are fine to drop on the floor.
            FrameKind::Drain => Ok(()),
            FrameKind::Dispatch => {
                let d = DispatchSpec::parse(&frame.payload).map_err(|_| SendError)?;
                let cost = self.cost_ms(d.len);
                // Run the real worker executor for this range.
                let (start_at, result, kill_slot, specs_started) = {
                    let w = self.workers.get_mut(&to.0).ok_or(SendError)?;
                    if w.dead_at.is_some_and(|t| t <= now) {
                        return Err(SendError);
                    }
                    // A worker whose death is already scheduled accepts
                    // the dispatch (the coordinator can't know yet) but
                    // never delivers: the specs vanish with the process.
                    if w.dead_at.is_some() {
                        return Ok(());
                    }
                    let start_at = w.free_at.max(now);
                    let result = w.exec.run_dispatch(&d).map_err(|_| SendError)?;
                    (start_at, result, w.kill_slot, w.exec.specs_started())
                };
                // Does a scripted kill fire on this range?
                let kill = kill_slot.and_then(|slot| {
                    let ks = &mut self.kills[slot].1;
                    if !ks.fired && specs_started > ks.after_specs {
                        ks.fired = true;
                        Some(ks.respawn_after_ms)
                    } else {
                        None
                    }
                });
                if let Some(respawn_after) = kill {
                    // Dies partway through this range: after half its
                    // share of the work, before the result goes out.
                    let die_at = start_at + cost / 2;
                    if let Some(w) = self.workers.get_mut(&to.0) {
                        w.dead_at = Some(die_at);
                    }
                    self.log.kills += 1;
                    self.push_ev(die_at, EvKind::Disconnect(to.0));
                    if let Some(wait) = respawn_after {
                        let id = self.next_id;
                        self.next_id += 1;
                        self.log.respawns += 1;
                        self.push_ev(die_at + wait, EvKind::Connect { id, fresh: true });
                    }
                    return Ok(());
                }
                let done_at = start_at + cost;
                if let Some(w) = self.workers.get_mut(&to.0) {
                    w.free_at = done_at;
                }
                // The fleet scripts faults itself, so the executor always
                // yields a result frame (no worker-level kill configured).
                let Some(mut result) = result else {
                    return Ok(());
                };
                let mut deliver_at = done_at;
                if let Some(&(_, delay)) = self.delays.iter().find(|(r, _)| *r == d.range_id) {
                    deliver_at += delay;
                    self.log.delays += 1;
                }
                // Drop before corrupt: a dropped delivery never hits the
                // wire, so it must not count as an injected corruption
                // (the determinism fuzz asserts every logged corruption
                // surfaces in `CoordinatorStats::corrupt_reports`).
                if let Some((_, times)) = self
                    .drops
                    .iter_mut()
                    .find(|(r, times)| *r == d.range_id && *times > 0)
                {
                    *times -= 1;
                    self.log.drops += 1;
                    return Ok(());
                }
                let mut corrupted = false;
                if let Some((_, times)) = self
                    .corrupts
                    .iter_mut()
                    .find(|(r, times)| *r == d.range_id && *times > 0)
                {
                    *times -= 1;
                    let (id, body) = Frame::parse_result(&result.payload).map_err(|_| SendError)?;
                    let mut text = body.to_string();
                    corrupt_in_place(&mut text);
                    result = Frame::result(id, &text);
                    self.log.corruptions += 1;
                    corrupted = true;
                }
                let dup = self.duplicates.contains(&d.range_id);
                self.push_ev(deliver_at, EvKind::Frame(to.0, result.clone()));
                if dup {
                    self.log.duplicates += 1;
                    if corrupted {
                        // The duplicate of a corrupted delivery carries
                        // the same corrupted bytes.
                        self.log.corruptions += 1;
                    }
                    self.push_ev(deliver_at + 2, EvKind::Frame(to.0, result));
                }
                Ok(())
            }
            // The coordinator never sends hello/result.
            FrameKind::Hello | FrameKind::Result => Ok(()),
        }
    }

    fn recv(&mut self, timeout_ms: u64) -> Option<TransportEvent> {
        // Compared in milliseconds: the horizon of a huge timeout does not
        // fit a `SimTime`.
        let horizon = self.now.saturating_add(timeout_ms.max(1));
        let due = self
            .events
            .peek_time()
            .is_some_and(|at| at.as_millis() <= horizon);
        if !due {
            self.now = horizon;
            return None;
        }
        let ev = self.events.pop().expect("peeked");
        self.now = self.now.max(ev.at.as_millis());
        match ev.event {
            EvKind::Connect { id, fresh } => {
                let kill_slot = if fresh {
                    None
                } else {
                    self.kills
                        .iter()
                        .position(|(w, ks)| *w == id as usize && !ks.fired)
                };
                self.workers.insert(
                    id,
                    SimWorker {
                        exec: SweepWorker::new(self.specs, self.domino, self.opts),
                        kill_slot,
                        free_at: self.now,
                        dead_at: None,
                    },
                );
                Some(TransportEvent::Connected(WorkerId(id)))
            }
            EvKind::Frame(id, frame) => {
                // A dead worker's undelivered frames never reach here (they
                // are simply not scheduled), so anything on the heap is a
                // legitimate delivery.
                Some(TransportEvent::Frame(WorkerId(id), frame))
            }
            EvKind::Disconnect(id) => {
                self.workers.remove(&id);
                Some(TransportEvent::Disconnected(WorkerId(id)))
            }
        }
    }
}
