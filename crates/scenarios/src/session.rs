//! The two-party session engine: couples two WebRTC endpoints through an
//! access network (5G cell or wired/Wi-Fi baseline) and the non-RAN path
//! segments, collecting the full cross-layer [`TraceBundle`].
//!
//! Mirrors the paper's experimental setup (Fig. 7): the UE-side client "A"
//! reaches the peer through the access network, a core segment, and a
//! transit segment; the peer "B" is a wired host behind a WAN path
//! ([`SessionConfig::peer_path`], `PathConfig::wired_wan()` for every cell,
//! private ones included). Both media and RTCP feedback traverse the network
//! in both directions, so feedback-path impairments (Fig. 22) arise
//! naturally.
//!
//! A session is described by one [`SessionSpec`]: its access, its workload
//! ([`AppSpec`]), the impairments scripted into its cell as
//! [`ScriptAction`]s, and its [`SessionConfig`]. The spec runs it
//! ([`SessionSpec::run`], [`SessionSpec::run_with_tap`],
//! [`SessionSpec::run_with_tap_in`]) or starts it in steppable form for a
//! driver that interleaves sessions ([`SessionSpec::start_in`], then the
//! [`SessionState`] phases).
//!
//! Send path: each tick, the UE-side endpoint emits and then the wired one,
//! and every packet of either workload takes one path per direction. A
//! UE-side packet enters the access network; a wired-side one crosses the
//! peer and core paths and is scheduled to reach the access ingress.
//!
//! In-flight state: every packet a session sends gets the next packet id,
//! counting up from 0, and its record is pushed to the bundle at that same
//! index, so the record holds its send time and size. Until it is
//! delivered or lost, only its payload waits, in a [`SeqRing`] keyed by
//! the id: a lookup is one subtraction, and nothing is hashed or allocated
//! per packet. Every path that loses a packet removes its entry, so the
//! ring spans only the ids still in flight.
//!
//! [`SessionSpec`]: crate::grid::SessionSpec
//! [`SessionSpec::run`]: crate::grid::SessionSpec::run
//! [`SessionSpec::run_with_tap`]: crate::grid::SessionSpec::run_with_tap
//! [`SessionSpec::run_with_tap_in`]: crate::grid::SessionSpec::run_with_tap_in
//! [`SessionSpec::start_in`]: crate::grid::SessionSpec::start_in

use domino_obs::{Counter, HistId, RanCellObs, Recorder, SpanId};
use rand::rngs::StdRng;
use simcore::{rng_for, EventQueue, RngStream, SeqRing, SimDuration, SimTime};
use telemetry::{Direction, LiveTap, PacketRecord, SessionMeta, StreamKind, TraceBundle};

use abr_sim::{AbrClient, AbrConfig, AbrOutgoing, AbrPayload, AbrServer};
use netpath::{PathConfig, PathModel};
use ran_sim::{CellConfig, CellSim, CellUeTable, Delivery};
use rtc_sim::{OutgoingPacket, PacketPayload, RtcEndpoint, SenderConfig};

use crate::grid::ScriptAction;

/// Session-level configuration.
#[derive(Debug, Clone)]
pub struct SessionConfig {
    /// Call duration.
    pub duration: SimDuration,
    /// Master seed; all component streams derive from it.
    pub seed: u64,
    /// UE-side sender configuration.
    pub ue_sender: SenderConfig,
    /// Wired-side sender configuration.
    pub wired_sender: SenderConfig,
    /// App-stats sampling interval (the paper's client: 50 ms).
    pub stats_interval: SimDuration,
    /// Engine tick granularity.
    pub tick: SimDuration,
    /// Path between the core/access egress and the peer. The default is
    /// `PathConfig::wired_wan()`, and every preset and grid keeps it, so
    /// private cells reach their peer over the same WAN as commercial ones.
    pub peer_path: PathConfig,
}

impl Default for SessionConfig {
    fn default() -> Self {
        SessionConfig {
            duration: SimDuration::from_secs(60),
            seed: 42,
            ue_sender: SenderConfig::default(),
            wired_sender: SenderConfig::default(),
            stats_interval: SimDuration::from_millis(50),
            tick: SimDuration::from_millis(1),
            peer_path: PathConfig::wired_wan(),
        }
    }
}

/// Which application workload a session runs over the two-party transport.
///
/// The session engine is application-generic: every workload shares the
/// access/core/peer path plumbing, the in-flight packet ring, the
/// [`telemetry::LiveTap`] contract, and the [`SessionArena`] leases — only
/// the endpoint pair differs. An [`AppSpec::Rtc`] session is byte-identical
/// to the engine before this abstraction existed.
#[derive(Debug, Clone, Default)]
pub enum AppSpec {
    /// Two-party WebRTC video call (the paper's workload).
    #[default]
    Rtc,
    /// QUIC/ABR video streaming: a UE-side player fetching segments from a
    /// wired origin through the same access + path models (see [`abr_sim`]).
    Abr(AbrConfig),
}

/// The live endpoint pair realising an [`AppSpec`]. `a` always sits behind
/// the access network (the UE side), `b` on the wired side.
///
/// RTC endpoints stay inline (not boxed): the pre-`AppSpec` engine held
/// them by value, and keeping that layout preserves its allocation profile
/// exactly.
#[allow(clippy::large_enum_variant)]
enum AppPair {
    Rtc { a: RtcEndpoint, b: RtcEndpoint },
    Abr(Box<AbrPair>),
}

struct AbrPair {
    client: AbrClient,
    server: AbrServer,
}

/// Baseline (non-cellular) access types for the §2 comparisons.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BaselineAccess {
    /// Campus wired Ethernet.
    Wired,
    /// Campus Wi-Fi.
    Wifi,
}

enum AccessSim {
    Cell(Box<CellSim>),
    Direct(Box<DirectAccess>),
    /// This session's UE pair rides a [`CellSim`] owned by an external
    /// driver (see [`crate::shared::SharedCellDriver`]): packets leave
    /// through `outbox` and the driver feeds deliveries/telemetry back
    /// through the inboxes between the emit and collect phases of each
    /// tick.
    Shared(Box<SharedAccess>),
}

struct DirectAccess {
    ul: PathModel,
    dl: PathModel,
    rng_ul: StdRng,
    rng_dl: StdRng,
    out: Vec<Delivery>,
}

/// Mailbox access for a session whose cell lives in a shared-cell driver.
struct SharedAccess {
    /// Experiment-UE index inside the shared cell.
    ue: u32,
    /// Packets handed to the RAN edge this tick, awaiting the driver's
    /// flush into the cell: `(handover time, direction, id, size)`.
    outbox: Vec<(SimTime, Direction, u64, u32)>,
    /// Deliveries the driver fanned out to this UE.
    inbox: Vec<Delivery>,
    /// This UE's view of the cell's DCI stream (whole control channel,
    /// `is_target_ue` stamped for this UE).
    dci_inbox: Vec<telemetry::DciRecord>,
    /// This UE's gNB log records.
    gnb_inbox: Vec<telemetry::GnbLogRecord>,
}

impl AccessSim {
    /// Hands a packet to the access network. Returns `false` when the
    /// network lost it on the spot (only a baseline path loses packets), so
    /// it will never come out.
    fn enqueue(&mut self, now: SimTime, dir: Direction, id: u64, size: u32) -> bool {
        match self {
            AccessSim::Cell(cell) => cell.enqueue(now, dir, id, size),
            AccessSim::Direct(direct) => {
                let arrival = match dir {
                    Direction::Uplink => direct.ul.traverse(now, size, &mut direct.rng_ul),
                    Direction::Downlink => direct.dl.traverse(now, size, &mut direct.rng_dl),
                };
                let Some(at) = arrival else {
                    return false;
                };
                direct.out.push(Delivery {
                    id,
                    direction: dir,
                    delivered_at: at,
                });
            }
            AccessSim::Shared(shared) => shared.outbox.push((now, dir, id, size)),
        }
        true
    }

    fn poll(&mut self, now: SimTime) {
        if let AccessSim::Cell(cell) = self {
            cell.poll(now);
        }
        // Shared: the driver polls the cell once for all riding sessions.
    }

    fn drain_deliveries_into(&mut self, out: &mut Vec<Delivery>) {
        match self {
            AccessSim::Cell(cell) => cell.drain_deliveries_into(0, out),
            AccessSim::Direct(direct) => out.append(&mut direct.out),
            AccessSim::Shared(shared) => out.append(&mut shared.inbox),
        }
    }
}

/// One routing step of an in-flight packet on the non-RAN path. Route
/// events are scheduled on a session's route-event queue and consumed by
/// [`SessionState::route_event`]. Public (but otherwise opaque) so a
/// multiplexing driver can carry tagged events through a
/// [`SharedRouteQueue`] shared by many interleaved sessions.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RouteEvent {
    /// Reached the wired peer's NIC.
    ArriveAtPeer(u64),
    /// Reached the UE client's stack.
    ArriveAtUe(u64),
    /// Reached the gNB / access ingress for the downlink.
    EnqueueDownlink(u64),
}

/// Where a session schedules its route events. Every driver in this crate
/// passes a [`TaggedSink`] that stamps each event with the session's id and
/// start offset before it lands in the arena's [`SharedRouteQueue`] (the
/// solo driver uses tag 0 and offset 0).
pub trait RouteSink {
    /// Schedules `ev` to fire at session-local time `at`.
    fn schedule(&mut self, at: SimTime, ev: RouteEvent);
}

/// The route-event queue a [`SessionArena`] owns, shared by every session
/// the arena's driver runs: a calendar [`EventQueue`] whose events are
/// tagged with a session id and popped in global `(time, session, seq)`
/// order. Restricted to any one session, that order is exactly the
/// `(time, seq)` order the session would observe from a private queue (the
/// simcore property test `prop_tagged_pop_matches_private_queues` enforces
/// it), which is what makes multiplexed per-session output byte-identical
/// to solo runs.
///
/// Events are stored at *global* (driver) time: a [`TaggedSink`] adds the
/// session's start offset on schedule, and the driver subtracts it again
/// when dispatching a popped event back to the session.
#[derive(Debug, Clone)]
pub struct SharedRouteQueue {
    q: EventQueue<RouteEvent, u64>,
}

impl SharedRouteQueue {
    fn new() -> Self {
        SharedRouteQueue {
            q: EventQueue::calendar_keyed(),
        }
    }

    /// Drops all pending events but keeps allocations; the tie-break
    /// sequence restarts.
    pub fn clear(&mut self) {
        self.q.clear();
    }

    /// Pops the earliest event due at or before the global instant `now`,
    /// as `(global time, session id, event)`.
    pub fn pop_due(&mut self, now: SimTime) -> Option<(SimTime, u64, RouteEvent)> {
        self.q.pop_due(now).map(|s| (s.at, s.key, s.event))
    }

    /// Pending events.
    pub fn len(&self) -> usize {
        self.q.len()
    }

    /// Whether no events are pending.
    pub fn is_empty(&self) -> bool {
        self.q.is_empty()
    }

    /// Total retained storage (events) — capacity, not occupancy.
    pub fn capacity(&self) -> usize {
        self.q.capacity()
    }

    /// A [`RouteSink`] that stamps `session` and shifts session-local times
    /// by `offset` (the global time at which the session's clock started).
    pub fn sink(&mut self, session: u64, offset: SimDuration) -> TaggedSink<'_> {
        TaggedSink {
            q: &mut self.q,
            session,
            offset,
        }
    }
}

/// Borrowed scheduling handle for one session of a [`SharedRouteQueue`].
pub struct TaggedSink<'a> {
    q: &'a mut EventQueue<RouteEvent, u64>,
    session: u64,
    offset: SimDuration,
}

impl RouteSink for TaggedSink<'_> {
    fn schedule(&mut self, at: SimTime, ev: RouteEvent) {
        self.q.schedule_keyed(at + self.offset, self.session, ev);
    }
}

/// In-flight application payload, one variant per [`AppSpec`] workload.
/// Its packet id indexes the session bundle's packet records, which hold
/// the send time and size.
enum AppPayload {
    Rtc(PacketPayload),
    Abr(AbrPayload),
}

/// Per-tick scratch buffers every session a worker drives shares: the
/// endpoint emission buffer, the access-network delivery buffer, and the
/// RAN telemetry drain buffers. Each is cleared before use within a single
/// tick phase, so one scratch serves any number of interleaved sessions —
/// it carries no per-session state between phases.
#[derive(Default)]
pub struct EngineScratch {
    emit: Vec<OutgoingPacket>,
    abr_emit: Vec<AbrOutgoing>,
    deliveries: Vec<Delivery>,
    ran: RanScratch,
    /// The worker's observability recorder. Defaults to off (a no-op);
    /// sweep workers install an enabled recorder via
    /// [`SessionArena::recorder_mut`]. Living in the per-tick scratch puts
    /// it in every engine phase's hands without new parameters.
    pub recorder: Recorder,
}

impl EngineScratch {
    fn footprint(&self) -> (usize, usize, usize) {
        (
            self.emit.capacity() + self.abr_emit.capacity(),
            self.deliveries.capacity(),
            self.ran.dci.capacity() + self.ran.gnb.capacity(),
        )
    }
}

/// Reusable per-worker storage for the session engine: the shared
/// route-event queue, the per-tick scratch buffers, and free lists of
/// per-session sub-state (in-flight packet rings, recycled [`TraceBundle`]s)
/// that sessions lease at start and return at finish. A sweep worker keeps one
/// arena and threads it through every session it runs — sequentially or
/// multiplexed — so a 1000-session sweep performs O(1) large allocations
/// per worker instead of O(sessions). A multiplexed worker's arena holds
/// one leased ring/bundle pair per concurrently active session, then stays
/// flat.
///
/// Arenas carry **no cross-session state** — every leased buffer is
/// cleared (not shrunk) before reuse, and a driver clears the route queue
/// (restarting its tie-break sequence) whenever no session is in flight —
/// so a session run in a warm arena is byte-identical to one run in a
/// fresh arena. The determinism suites cover this.
pub struct SessionArena {
    queue: SharedRouteQueue,
    scratch: EngineScratch,
    /// Recycled in-flight rings.
    free_pending: Vec<SeqRing<AppPayload>>,
    free_bundles: Vec<TraceBundle>,
    free_ue_tables: Vec<CellUeTable>,
}

impl Default for SessionArena {
    fn default() -> Self {
        Self::new()
    }
}

impl SessionArena {
    /// An empty arena.
    pub fn new() -> Self {
        SessionArena {
            queue: SharedRouteQueue::new(),
            scratch: EngineScratch::default(),
            free_pending: Vec::new(),
            free_bundles: Vec::new(),
            free_ue_tables: Vec::new(),
        }
    }

    /// Hands a finished session's bundle back for buffer reuse. Sweeps that
    /// do not retain bundles call this after analysis; the next session run
    /// through this arena fills the same record vectors.
    pub fn recycle(&mut self, bundle: TraceBundle) {
        self.free_bundles.push(bundle);
    }

    /// The per-tick scratch buffers a driver lends each session phase.
    pub fn scratch_mut(&mut self) -> &mut EngineScratch {
        &mut self.scratch
    }

    /// Split borrow for a driver's tick loop: the route-event queue plus the
    /// per-tick scratch.
    pub fn route_parts(&mut self) -> (&mut SharedRouteQueue, &mut EngineScratch) {
        (&mut self.queue, &mut self.scratch)
    }

    /// The worker recorder carried by this arena's scratch. Install an
    /// enabled recorder before running sessions to collect metrics; take a
    /// snapshot from it afterwards.
    pub fn recorder_mut(&mut self) -> &mut Recorder {
        &mut self.scratch.recorder
    }

    /// Approximate retained storage in *elements* across all arena buffers
    /// (capacities, not occupancy), counting idle free-list entries but not
    /// sub-state currently leased by in-flight sessions. After the first
    /// session (or, multiplexed, the first full-width generation) warms the
    /// arena, this must stay flat across further sessions — asserted by the
    /// heap-peak regression test in `tests/live_equivalence.rs`.
    pub fn footprint(&self) -> usize {
        let bundle: usize = self
            .free_bundles
            .iter()
            .map(|b| {
                b.dci.capacity()
                    + b.gnb.capacity()
                    + b.packets.capacity()
                    + b.app_local.capacity()
                    + b.app_remote.capacity()
            })
            .sum();
        let pending: usize = self.free_pending.iter().map(SeqRing::capacity).sum();
        let ue_tables: usize = self
            .free_ue_tables
            .iter()
            .map(CellUeTable::footprint_elems)
            .sum();
        let (emit, deliveries, ran) = self.scratch.footprint();
        self.queue.capacity() + pending + emit + deliveries + ran + bundle + ue_tables
    }

    fn take_bundle(&mut self, meta: SessionMeta) -> TraceBundle {
        match self.free_bundles.pop() {
            Some(mut b) => {
                b.reset(meta);
                b
            }
            None => TraceBundle::new(meta),
        }
    }

    fn take_pending(&mut self) -> SeqRing<AppPayload> {
        let mut ring = self.free_pending.pop().unwrap_or_default();
        ring.clear();
        ring
    }

    fn return_pending(&mut self, ring: SeqRing<AppPayload>) {
        self.free_pending.push(ring);
    }

    /// Leases a scripted-UE table for a new cell; `CellSim::new_in` clears
    /// and refills it, so a recycled table behaves identically to a fresh
    /// one while keeping its column capacities.
    pub(crate) fn take_ue_table(&mut self) -> CellUeTable {
        self.free_ue_tables.pop().unwrap_or_default()
    }

    /// Hands a finished cell's scripted-UE table back for reuse.
    pub(crate) fn return_ue_table(&mut self, table: CellUeTable) {
        self.free_ue_tables.push(table);
    }
}

/// A two-party session extracted into a steppable state machine: the
/// access simulator, both endpoints, the non-RAN path models, the
/// in-flight packet ring, and the growing [`TraceBundle`].
///
/// A [`SessionSpec`]'s run methods drive one state to completion in a
/// tight loop; a multiplexing driver instead starts many
/// ([`SessionSpec::start_in`]) and *interleaves* them, advancing each one
/// engine tick at a time:
///
/// 1. [`SessionState::begin_tick`] — endpoints emit, the access network
///    advances, and finished deliveries schedule route events into the
///    provided [`RouteSink`].
/// 2. [`SessionState::route_event`] for every event the driver's queue
///    popped due at (or before) this session's clock, in `(time, seq)`
///    order.
/// 3. [`SessionState::end_tick`] — app-stats sampling, the live tap's
///    per-tick drain/clock/early-exit poll; returns `true` when the
///    session is done (duration reached or tap abort).
/// 4. [`SessionState::finish`] — final telemetry drain, bundle sort, and
///    lease returns to the arena.
///
/// A session stepped this way — parked between ticks, resumed in any
/// interleaving with other sessions — produces a bundle byte-identical to
/// a solo run, provided its route events come back in per-session
/// `(time, seq)` order (which [`SharedRouteQueue`] guarantees).
///
/// [`SessionSpec`]: crate::grid::SessionSpec
/// [`SessionSpec::start_in`]: crate::grid::SessionSpec::start_in
pub struct SessionState {
    access: AccessSim,
    app: AppPair,
    core_ul: Option<PathModel>,
    core_dl: Option<PathModel>,
    peer_ul: PathModel,
    peer_dl: PathModel,
    rng_fwd: StdRng,
    rng_rev: StdRng,
    /// Payloads of the packets in flight, by packet id. Ids count up from 0
    /// and index `bundle.packets`, so a packet's send time and size are
    /// read from its record.
    pending: SeqRing<AppPayload>,
    bundle: TraceBundle,
    next_id: u64,
    next_stats: SimTime,
    tick_len: SimDuration,
    stats_interval: SimDuration,
    ticks: u64,
    cur: u64,
    now: SimTime,
    end_time: SimTime,
    aborted: bool,
    tapped: bool,
}

impl SessionState {
    fn new(
        access: AccessSim,
        core_path: Option<PathConfig>,
        meta: SessionMeta,
        app: &AppSpec,
        cfg: &SessionConfig,
        tapped: bool,
        arena: &mut SessionArena,
    ) -> Self {
        let bundle = arena.take_bundle(meta);
        let ticks = cfg.duration / cfg.tick;
        let app = match app {
            AppSpec::Rtc => AppPair::Rtc {
                a: RtcEndpoint::new(cfg.ue_sender.clone(), cfg.seed, 11),
                b: RtcEndpoint::new(cfg.wired_sender.clone(), cfg.seed, 12),
            },
            AppSpec::Abr(abr) => AppPair::Abr(Box::new(AbrPair {
                client: AbrClient::new(abr.clone()),
                server: AbrServer::new(abr.clone()),
            })),
        };
        SessionState {
            access,
            app,
            core_ul: core_path.clone().map(PathModel::new),
            core_dl: core_path.map(PathModel::new),
            peer_ul: PathModel::new(cfg.peer_path.clone()), // egress → peer
            peer_dl: PathModel::new(cfg.peer_path.clone()), // peer → ingress
            rng_fwd: rng_for(cfg.seed, RngStream::PathForward),
            rng_rev: rng_for(cfg.seed, RngStream::PathReverse),
            pending: arena.take_pending(),
            bundle,
            next_id: 0,
            next_stats: SimTime::ZERO + cfg.stats_interval,
            tick_len: cfg.tick,
            stats_interval: cfg.stats_interval,
            ticks,
            cur: 0,
            now: SimTime::ZERO,
            end_time: SimTime::ZERO + cfg.tick * ticks,
            aborted: false,
            tapped,
        }
    }

    /// Starts a cell session in steppable form. `scripts` are applied to the
    /// cell, in order, before the call starts; `tapped` mirrors
    /// [`telemetry::LiveTap::is_active`] for the tap the driver will pass
    /// to the step methods (pass `false` to skip all tap work).
    pub(crate) fn start_cell(
        cell_cfg: CellConfig,
        app: &AppSpec,
        cfg: &SessionConfig,
        scripts: &[ScriptAction],
        tapped: bool,
        arena: &mut SessionArena,
    ) -> Self {
        let meta = cell_meta(&cell_cfg, cfg);
        let mut cell = CellSim::new_in(cell_cfg, cfg.seed, arena.take_ue_table());
        for action in scripts {
            action.apply(&mut cell);
        }
        if arena.scratch.recorder.is_on() {
            // Installed after the scripts so scripted overrides are observed
            // too; the accumulator is absorbed back in `finish`.
            cell.set_obs(Some(RanCellObs::boxed()));
        }
        let access = AccessSim::Cell(Box::new(cell));
        Self::new(
            access,
            Some(PathConfig::core_network()),
            meta,
            app,
            cfg,
            tapped,
            arena,
        )
    }

    /// Starts an untapped RTC session whose UE pair rides a cell owned by an
    /// external [`crate::shared::SharedCellDriver`]. `ue` is the
    /// experiment-UE index this pair occupies inside the shared cell; the
    /// meta mirrors the cell's config, but the cell simulator itself lives
    /// in the driver, which shuttles packets and telemetry through the
    /// session's shared-access mailboxes each tick.
    pub(crate) fn start_shared(
        cell_cfg: &CellConfig,
        cfg: &SessionConfig,
        ue: u32,
        arena: &mut SessionArena,
    ) -> Self {
        let access = AccessSim::Shared(Box::new(SharedAccess {
            ue,
            outbox: Vec::new(),
            inbox: Vec::new(),
            dci_inbox: Vec::new(),
            gnb_inbox: Vec::new(),
        }));
        Self::new(
            access,
            Some(PathConfig::core_network()),
            cell_meta(cell_cfg, cfg),
            &AppSpec::Rtc,
            cfg,
            false,
            arena,
        )
    }

    /// Moves this tick's emitted packets from the shared-access outbox into
    /// the driver-owned cell, addressed to this session's experiment UE.
    pub(crate) fn flush_shared_outbox(&mut self, cell: &mut CellSim) {
        let AccessSim::Shared(s) = &mut self.access else {
            panic!("flush_shared_outbox on a non-shared session");
        };
        for (at, dir, id, size) in s.outbox.drain(..) {
            cell.enqueue_for(s.ue, at, dir, id, size);
        }
    }

    /// The shared-access mailboxes the driver fans cell output into:
    /// `(deliveries, dci, gnb)`.
    pub(crate) fn shared_inboxes(
        &mut self,
    ) -> (
        &mut Vec<Delivery>,
        &mut Vec<telemetry::DciRecord>,
        &mut Vec<telemetry::GnbLogRecord>,
    ) {
        let AccessSim::Shared(s) = &mut self.access else {
            panic!("shared_inboxes on a non-shared session");
        };
        (&mut s.inbox, &mut s.dci_inbox, &mut s.gnb_inbox)
    }

    /// Starts a baseline (wired or Wi-Fi) session in steppable form.
    pub(crate) fn start_baseline(
        access: BaselineAccess,
        app: &AppSpec,
        cfg: &SessionConfig,
        tapped: bool,
        arena: &mut SessionArena,
    ) -> Self {
        let (name, path) = match access {
            BaselineAccess::Wired => ("Wired baseline", PathConfig::wired_lan()),
            BaselineAccess::Wifi => ("Wi-Fi baseline", PathConfig::wifi()),
        };
        let meta = SessionMeta::baseline(name, cfg.duration, cfg.seed);
        let sim = AccessSim::Direct(Box::new(DirectAccess {
            ul: PathModel::new(path.clone()),
            dl: PathModel::new(path),
            rng_ul: rng_for(cfg.seed, RngStream::Custom(101)),
            rng_dl: rng_for(cfg.seed, RngStream::Custom(102)),
            out: Vec::new(),
        }));
        Self::new(sim, None, meta, app, cfg, tapped, arena)
    }

    /// Session-local time of the tick currently in progress (the instant
    /// [`Self::begin_tick`] advanced to).
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Whether the session has run its full duration or was aborted by the
    /// tap. Once done, only [`Self::finish`] may be called.
    pub fn is_done(&self) -> bool {
        self.aborted || self.cur >= self.ticks
    }

    /// Phases 1–2 of one engine tick: both endpoints emit (media from
    /// senders, RTCP from receivers), new packets enter the access network
    /// or the reverse path, the access network advances, and completed
    /// access deliveries continue along the path as route events scheduled
    /// into `sink` (at session-local times).
    pub fn begin_tick(
        &mut self,
        tap: &mut dyn LiveTap,
        scratch: &mut EngineScratch,
        sink: &mut impl RouteSink,
    ) {
        let span = scratch.recorder.span_enter(SpanId::BeginTick);
        self.emit_tick(tap, scratch, sink);
        self.collect_access(scratch, sink);
        scratch.recorder.span_exit(SpanId::BeginTick, span);
    }

    /// Phase 1 only (endpoint emission). A shared-cell driver calls this for
    /// every riding session, then flushes their outboxes into the one cell,
    /// polls it, fans deliveries back out, and calls
    /// [`Self::collect_access`]; the solo and multiplexing drivers use
    /// [`Self::begin_tick`], which runs both phases back to back.
    pub fn emit_tick(
        &mut self,
        tap: &mut dyn LiveTap,
        scratch: &mut EngineScratch,
        sink: &mut impl RouteSink,
    ) {
        debug_assert!(!self.is_done(), "emit_tick on a finished session");
        self.cur += 1;
        let now = SimTime::ZERO + self.tick_len * self.cur;
        self.now = now;
        scratch.recorder.add(Counter::EngineTicks, 1);
        scratch
            .recorder
            .add(Counter::EngineSimTimeUs, self.tick_len.as_micros());

        // 1. Endpoints emit, the UE side first, then the wired side; both
        // workloads send through the same path.
        match &mut self.app {
            AppPair::Rtc { a, b } => {
                // Media from senders, RTCP from receivers.
                let emit = &mut scratch.emit;
                emit.clear();
                a.sender.poll_into(now, emit);
                a.receiver.poll_into(now, emit);
                let ue_side = emit.len();
                b.sender.poll_into(now, emit);
                b.receiver.poll_into(now, emit);
                self.send_all(emit, ue_side, tap, sink);
            }
            AppPair::Abr(pair) => {
                // Segment requests from the player, paced chunks from the
                // origin.
                let emit = &mut scratch.abr_emit;
                emit.clear();
                pair.client.poll_into(now, emit);
                let ue_side = emit.len();
                pair.server.poll_into(now, emit);
                self.send_all(emit, ue_side, tap, sink);
            }
        }
    }

    /// Sends one tick's emitted packets in emission order: the first
    /// `ue_side` left the UE client, the rest the wired peer.
    fn send_all<P: Outgoing>(
        &mut self,
        emitted: &mut Vec<P>,
        ue_side: usize,
        tap: &mut dyn LiveTap,
        sink: &mut impl RouteSink,
    ) {
        let mut packets = emitted.drain(..);
        for p in packets.by_ref().take(ue_side) {
            self.send(p, Direction::Uplink, tap, sink);
        }
        for p in packets {
            self.send(p, Direction::Downlink, tap, sink);
        }
    }

    /// Sends one packet: it takes the next id, its record is pushed to the
    /// bundle (and announced to the tap), and it leaves its side. A UE-side
    /// packet enters the access network; a wired-side one crosses the peer
    /// and core paths and is scheduled to reach the access ingress. Its
    /// payload waits in the in-flight ring unless it was lost on the way.
    fn send(
        &mut self,
        p: impl Outgoing,
        dir: Direction,
        tap: &mut dyn LiveTap,
        sink: &mut impl RouteSink,
    ) {
        let (record, payload) = p.split(dir);
        let (at, size) = (record.sent, record.size_bytes);
        let id = self.next_id;
        self.next_id += 1;
        debug_assert_eq!(self.bundle.packets.len() as u64, id);
        self.bundle.packets.push(record);
        if self.tapped {
            tap.on_packet_sent(id, &self.bundle.packets[id as usize]);
        }
        let in_flight = match dir {
            Direction::Uplink => self.access.enqueue(at, dir, id, size),
            Direction::Downlink => {
                // Peer → (transit, core) → access ingress. A `None` arrival
                // is a loss before the access network; the packet record
                // simply stays unreceived.
                let hop1 = self.peer_dl.traverse(at, size, &mut self.rng_rev);
                let arrival = hop1.and_then(|t| match &mut self.core_dl {
                    Some(core) => core.traverse(t, size, &mut self.rng_rev),
                    None => Some(t),
                });
                if let Some(at) = arrival {
                    sink.schedule(at, RouteEvent::EnqueueDownlink(id));
                }
                arrival.is_some()
            }
        };
        if in_flight {
            self.pending.insert(id, payload);
        }
    }

    /// Phase 2 only (access-network advance + delivery collection). For
    /// cell/baseline access this polls the access simulator; for shared
    /// access the driver has already polled the cell and filled the
    /// session's delivery inbox between [`Self::emit_tick`] and this call.
    pub fn collect_access(&mut self, scratch: &mut EngineScratch, sink: &mut impl RouteSink) {
        let now = self.now;

        // 2. Access network advances; deliveries continue along the path.
        self.access.poll(now);
        let deliveries = &mut scratch.deliveries;
        deliveries.clear();
        self.access.drain_deliveries_into(deliveries);
        for d in deliveries.iter() {
            let (id, t_out) = (d.id, d.delivered_at);
            match d.direction {
                Direction::Uplink => {
                    if self.pending.get(id).is_none() {
                        continue;
                    }
                    let size = self.bundle.packets[id as usize].size_bytes;
                    let hop1 = match &mut self.core_ul {
                        Some(core) => core.traverse(t_out, size, &mut self.rng_fwd),
                        None => Some(t_out),
                    };
                    let arrival =
                        hop1.and_then(|t| self.peer_ul.traverse(t, size, &mut self.rng_fwd));
                    match arrival {
                        Some(at) => sink.schedule(at, RouteEvent::ArriveAtPeer(id)),
                        None => {
                            self.pending.remove(id); // lost in transit
                        }
                    }
                }
                Direction::Downlink => {
                    sink.schedule(t_out, RouteEvent::ArriveAtUe(id));
                }
            }
        }
    }

    /// Phase 3 of one engine tick: consumes one route event popped due at
    /// (or before) this session's clock. The driver must deliver a
    /// session's events in `(time, seq)` schedule order — exactly what
    /// [`SharedRouteQueue::pop_due`] yields for one tag.
    pub fn route_event(&mut self, at: SimTime, ev: RouteEvent, tap: &mut dyn LiveTap) {
        match ev {
            RouteEvent::EnqueueDownlink(id) => {
                if self.pending.get(id).is_some() {
                    let size = self.bundle.packets[id as usize].size_bytes;
                    if !self.access.enqueue(at, Direction::Downlink, id, size) {
                        self.pending.remove(id);
                    }
                }
            }
            RouteEvent::ArriveAtPeer(id) => {
                if deliver(
                    &mut self.pending,
                    &mut self.bundle,
                    id,
                    at,
                    &mut self.app,
                    false,
                ) && self.tapped
                {
                    tap.on_packet_delivered(id, at);
                }
            }
            RouteEvent::ArriveAtUe(id) => {
                if deliver(
                    &mut self.pending,
                    &mut self.bundle,
                    id,
                    at,
                    &mut self.app,
                    true,
                ) && self.tapped
                {
                    tap.on_packet_delivered(id, at);
                }
            }
        }
    }

    /// Phases 4–5 of one engine tick: 50 ms app-stats sampling on both
    /// clients, then (when tapped) the RAN telemetry drain, the tap clock,
    /// and the early-exit poll. Returns `true` when the session is done —
    /// either this was its final tick or the tap aborted it.
    pub fn end_tick(&mut self, tap: &mut dyn LiveTap, scratch: &mut EngineScratch) -> bool {
        let span = scratch.recorder.span_enter(SpanId::EndTick);
        let done = self.end_tick_inner(tap, scratch);
        scratch.recorder.span_exit(SpanId::EndTick, span);
        done
    }

    fn end_tick_inner(&mut self, tap: &mut dyn LiveTap, scratch: &mut EngineScratch) -> bool {
        let now = self.now;

        // 4. 50 ms app-stats sampling on both clients. The sorted-append
        // hooks double as a debug-build check that sampling stays monotone.
        if now >= self.next_stats {
            match &mut self.app {
                AppPair::Rtc { a, b } => {
                    // Pacer backlog is sampled on the app-stats cadence, not
                    // every tick, so the histogram tracks the same 50 ms
                    // lattice as the client stats it sits beside.
                    scratch
                        .recorder
                        .observe(HistId::RtcPacerBacklog, a.sender.pacer_backlog() as u64);
                    scratch
                        .recorder
                        .observe(HistId::RtcPacerBacklog, b.sender.pacer_backlog() as u64);
                    let sa = a.sample_stats(now);
                    let sb = b.sample_stats(now);
                    if self.tapped {
                        tap.on_app_local(&sa);
                        tap.on_app_remote(&sb);
                    }
                    self.bundle.append_app_local(sa);
                    self.bundle.append_app_remote(sb);
                }
                AppPair::Abr(pair) => {
                    let s = pair.client.sample_stats(now);
                    scratch
                        .recorder
                        .observe(HistId::PlaybackBufferMs, s.buffer_ms as u64);
                    if self.tapped {
                        tap.on_playback(&s);
                    }
                    self.bundle.append_playback(s);
                }
            }
            self.next_stats += self.stats_interval;
        }

        // Playback transitions count on the tick they happen, not on the
        // 50 ms sampling lattice, so short stalls are never missed.
        if let AppPair::Abr(pair) = &mut self.app {
            let ev = pair.client.take_events();
            if ev.stall_started {
                scratch.recorder.add(Counter::PlaybackStalls, 1);
            }
            if let Some(ms) = ev.stall_ended_ms {
                scratch.recorder.observe(HistId::PlaybackStallMs, ms);
            }
            if ev.ladder_switched {
                scratch.recorder.add(Counter::PlaybackLadderSwitches, 1);
            }
        }

        // 5. Live taps see RAN telemetry and the clock every tick, and may
        // abort the session (early-exit diagnosis).
        if self.tapped {
            drain_ran_telemetry(&mut self.access, &mut self.bundle, tap, &mut scratch.ran);
            tap.on_tick(now);
            if tap.should_stop() {
                self.end_time = now;
                self.aborted = true;
                return true;
            }
        }
        self.cur >= self.ticks
    }

    /// Finalises the session: collects any remaining RAN telemetry (the
    /// tapped path has drained all but the final tick's worth; the untapped
    /// path moves the whole log in one O(1) bulk transfer and lets the
    /// final sort order the gNB records), fires `on_finish`, sorts the
    /// bundle, and returns the leased in-flight ring to the arena.
    pub fn finish(self, tap: &mut dyn LiveTap, arena: &mut SessionArena) -> TraceBundle {
        let SessionState {
            mut access,
            mut bundle,
            pending,
            tapped,
            aborted,
            end_time,
            core_ul,
            core_dl,
            peer_ul,
            peer_dl,
            ..
        } = self;
        if arena.scratch.recorder.is_on() {
            let rec = &mut arena.scratch.recorder;
            let mut net = peer_ul.stats();
            net.merge(peer_dl.stats());
            if let Some(p) = &core_ul {
                net.merge(p.stats());
            }
            if let Some(p) = &core_dl {
                net.merge(p.stats());
            }
            if let AccessSim::Direct(d) = &access {
                net.merge(d.ul.stats());
                net.merge(d.dl.stats());
            }
            rec.add(Counter::NetPackets, net.sent);
            rec.add(Counter::NetLost, net.lost);
            rec.add(Counter::NetJitterInversions, net.jitter_inversions);
            if aborted {
                rec.add(Counter::EngineEarlyExits, 1);
            }
            if let AccessSim::Cell(cell) = &mut access {
                if let Some(obs) = cell.take_obs() {
                    rec.absorb_ran(&obs);
                }
            }
        }
        if tapped {
            drain_ran_telemetry(&mut access, &mut bundle, tap, &mut arena.scratch.ran);
            if aborted {
                // An early exit truncates the session: record how much
                // actually ran, so per-minute normalisation (event rates,
                // chain stats) divides by simulated time, not by the
                // configured duration.
                bundle.meta.duration = end_time.saturating_since(SimTime::ZERO);
            }
            tap.on_finish(end_time);
        } else if let AccessSim::Cell(cell) = &mut access {
            // The same debug-build time-order check as the sorted-append
            // hook, without staging the session's DCI log in a second buffer.
            let first = bundle.dci.len();
            cell.drain_dci_into(0, &mut bundle.dci);
            debug_assert!(
                bundle.dci[first.saturating_sub(1)..].is_sorted_by_key(|r| r.ts),
                "unsorted DCI append"
            );
            cell.drain_gnb_into(0, &mut bundle.gnb);
        } else if let AccessSim::Shared(shared) = &mut access {
            for r in shared.dci_inbox.drain(..) {
                bundle.append_dci(r);
            }
            bundle.gnb.append(&mut shared.gnb_inbox);
        }
        if let AccessSim::Cell(cell) = &mut access {
            arena.return_ue_table(cell.take_ue_table());
        }
        bundle.sort();
        // The lease boundary (`take_pending`) owns the no-cross-session
        // clearing; leftovers (packets still in transit at session end) ride
        // along in the free list until then.
        arena.return_pending(pending);
        bundle
    }
}

/// The solo driver: advances one [`SessionState`] to completion through the
/// arena's route-event queue, as session 0 at offset 0. All hot-loop
/// storage comes from the arena (the queue's `clear()` resets the tie-break
/// sequence, so a recycled queue replays identically to a fresh one); at
/// steady state no step of the tick loop allocates.
pub(crate) fn drive(
    mut state: SessionState,
    tap: &mut dyn LiveTap,
    arena: &mut SessionArena,
) -> TraceBundle {
    let (queue, scratch) = arena.route_parts();
    queue.clear();
    while !state.is_done() {
        state.begin_tick(tap, scratch, &mut queue.sink(0, SimDuration::ZERO));
        // 3. Due route events. (Route handlers never schedule new route
        // events, so this drain is closed within the tick.)
        let span = scratch.recorder.span_enter(SpanId::RouteDrain);
        let mut routed = 0u64;
        while let Some((at, _, ev)) = queue.pop_due(state.now()) {
            state.route_event(at, ev, tap);
            routed += 1;
        }
        scratch.recorder.span_exit(SpanId::RouteDrain, span);
        scratch.recorder.add(Counter::EngineRouteEvents, routed);
        if state.end_tick(tap, scratch) {
            break;
        }
    }
    state.finish(tap, arena)
}

/// Per-tick scratch buffers for the tapped telemetry drain, reused across
/// ticks so the hot loop stays allocation-free at steady state.
#[derive(Default)]
struct RanScratch {
    dci: Vec<telemetry::DciRecord>,
    gnb: Vec<telemetry::GnbLogRecord>,
}

/// Moves the cell simulator's accumulated DCI/gNB records into the tap and
/// the bundle. DCI goes through the sorted-append hook, which verifies (in
/// debug builds) that the cell simulator emits in time order; gNB records
/// are emitted out of order — RLC retransmissions are logged with their
/// scheduled (future) timestamps and interleave with same-slot buffer
/// samples — so they go through [`TraceBundle::append_gnb`]'s stable
/// insert-at-sorted-position policy. Only a private cell has RAN telemetry
/// to drain: direct access has none, and shared-cell sessions are never
/// tapped.
fn drain_ran_telemetry(
    access: &mut AccessSim,
    bundle: &mut TraceBundle,
    tap: &mut dyn LiveTap,
    scratch: &mut RanScratch,
) {
    let AccessSim::Cell(cell) = access else {
        return;
    };
    cell.drain_dci_into(0, &mut scratch.dci);
    cell.drain_gnb_into(0, &mut scratch.gnb);
    for r in scratch.dci.drain(..) {
        tap.on_dci(&r);
        bundle.append_dci(r);
    }
    for r in scratch.gnb.drain(..) {
        tap.on_gnb(&r);
        bundle.append_gnb(r);
    }
}

fn deliver(
    pending: &mut SeqRing<AppPayload>,
    bundle: &mut TraceBundle,
    id: u64,
    at: SimTime,
    app: &mut AppPair,
    to_ue: bool,
) -> bool {
    let Some(payload) = pending.remove(id) else {
        return false;
    };
    let record = &mut bundle.packets[id as usize];
    record.received = Some(at);
    match (&payload, app) {
        (AppPayload::Rtc(payload), AppPair::Rtc { a, b }) => {
            let endpoint = if to_ue { a } else { b };
            match payload {
                PacketPayload::Video { .. } | PacketPayload::Audio { .. } => {
                    endpoint
                        .receiver
                        .on_packet(at, record.seq, record.sent, payload);
                }
                PacketPayload::Feedback(fb) => endpoint.sender.on_transport_feedback(at, fb),
                PacketPayload::Report(rr) => endpoint.sender.on_receiver_report(at, rr),
            }
        }
        (AppPayload::Abr(payload), AppPair::Abr(pair)) => {
            if to_ue {
                pair.client.on_chunk(at, payload);
            } else {
                pair.server.on_request(at, payload);
            }
        }
        _ => debug_assert!(
            false,
            "in-flight payload kind must match the session workload"
        ),
    }
    true
}

/// What the send path needs of an endpoint's outgoing packet: RTC and ABR
/// packets carry the same header fields and differ only in their payload.
trait Outgoing {
    /// The packet's record (not yet received) and its in-flight payload.
    fn split(self, dir: Direction) -> (PacketRecord, AppPayload);
}

impl Outgoing for OutgoingPacket {
    fn split(self, dir: Direction) -> (PacketRecord, AppPayload) {
        let stream = self.payload.stream();
        let record = packet_record(self.at, stream, self.transport_seq, self.size_bytes, dir);
        (record, AppPayload::Rtc(self.payload))
    }
}

impl Outgoing for AbrOutgoing {
    fn split(self, dir: Direction) -> (PacketRecord, AppPayload) {
        let stream = self.payload.stream();
        let record = packet_record(self.at, stream, self.transport_seq, self.size_bytes, dir);
        (record, AppPayload::Abr(self.payload))
    }
}

/// A sent packet's record; RTCP carries no transport sequence number.
fn packet_record(
    at: SimTime,
    stream: StreamKind,
    transport_seq: u64,
    size_bytes: u32,
    dir: Direction,
) -> PacketRecord {
    PacketRecord {
        sent: at,
        received: None,
        direction: dir,
        stream,
        seq: if stream == StreamKind::Rtcp {
            0
        } else {
            transport_seq
        },
        size_bytes,
    }
}

/// The metadata of a session over a 5G cell.
fn cell_meta(cell: &CellConfig, cfg: &SessionConfig) -> SessionMeta {
    SessionMeta {
        cell_name: cell.name.clone(),
        cell_class: cell.class,
        carrier_mhz: cell.carrier_mhz,
        bandwidth_mhz: cell.bandwidth_mhz,
        duplexing: cell.frame.duplexing,
        duration: cfg.duration,
        seed: cfg.seed,
        has_gnb_log: cell.has_gnb_log,
    }
}

/// Cross-module test helpers (also used by the shared-cell driver's suite).
#[cfg(test)]
pub(crate) mod tests_support {
    use telemetry::TraceBundle;

    /// Field-by-field equality over every record type a bundle carries.
    pub(crate) fn assert_bundles_identical(a: &TraceBundle, b: &TraceBundle) {
        assert_eq!(a.packets.len(), b.packets.len());
        for (x, y) in a.packets.iter().zip(&b.packets) {
            assert_eq!(
                (x.sent, x.received, x.seq, x.size_bytes),
                (y.sent, y.received, y.seq, y.size_bytes)
            );
        }
        assert_eq!(a.dci.len(), b.dci.len());
        for (x, y) in a.dci.iter().zip(&b.dci) {
            assert_eq!((x.ts, x.rnti, x.tbs_bits), (y.ts, y.rnti, y.tbs_bits));
        }
        assert_eq!(a.gnb.len(), b.gnb.len());
        for (x, y) in a.gnb.iter().zip(&b.gnb) {
            assert_eq!((x.ts, &x.event), (y.ts, &y.event));
        }
        assert_eq!(a.app_local.len(), b.app_local.len());
        assert_eq!(a.app_remote.len(), b.app_remote.len());
        assert_eq!(a.playback.len(), b.playback.len());
        for (x, y) in a.playback.iter().zip(&b.playback) {
            assert_eq!(
                (x.ts, x.stall_count, x.rung, x.buffer_ms.to_bits()),
                (y.ts, y.stall_count, y.rung, y.buffer_ms.to_bits())
            );
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cells;
    use crate::grid::SessionSpec;

    fn short_cfg(seed: u64) -> SessionConfig {
        SessionConfig {
            duration: SimDuration::from_secs(15),
            seed,
            ..Default::default()
        }
    }

    #[test]
    fn baseline_wired_session_is_clean() {
        let b = SessionSpec::baseline(BaselineAccess::Wired, short_cfg(1)).run();
        assert!(b.is_sorted());
        assert!(b.packets.len() > 1_000, "packets {}", b.packets.len());
        assert!(b.dci.is_empty());
        // Media should flow with sub-5 ms one-way delay on wired LAN.
        let delays: Vec<f64> = b
            .packets
            .iter()
            .filter(|p| p.direction == Direction::Uplink && p.stream == StreamKind::Video)
            .filter_map(|p| p.one_way_delay())
            .map(|d| d.as_millis_f64())
            .collect();
        assert!(!delays.is_empty());
        // LAN access (~0.4 ms) + WAN transit (~3 ms) + jitter.
        let cdf = telemetry::Cdf::from_samples(delays);
        assert!(cdf.median().unwrap() < 8.0, "median {:?}", cdf.median());
        // Both clients produced stats at 50 ms cadence.
        assert!(b.app_local.len() > 250);
        let last = b.app_local.last().unwrap();
        assert!(last.total_audio_samples > 0);
    }

    #[test]
    fn cell_session_produces_full_bundle() {
        let b = SessionSpec::cell(cells::amarisoft(), short_cfg(2)).run();
        assert!(b.is_sorted());
        assert!(!b.dci.is_empty(), "cell sessions must emit DCI telemetry");
        assert!(!b.gnb.is_empty(), "Amarisoft emits gNB logs");
        assert!(b.meta.has_gnb_log);
        // Media flows in both directions.
        let ul_media = b
            .packets
            .iter()
            .filter(|p| p.direction == Direction::Uplink && p.stream != StreamKind::Rtcp)
            .count();
        let dl_media = b
            .packets
            .iter()
            .filter(|p| p.direction == Direction::Downlink && p.stream != StreamKind::Rtcp)
            .count();
        assert!(ul_media > 500, "ul {ul_media}");
        assert!(dl_media > 500, "dl {dl_media}");
        // Most packets get delivered (RLC is reliable; only path loss drops).
        let delivered = b.packets.iter().filter(|p| p.received.is_some()).count();
        assert!(delivered as f64 > 0.95 * b.packets.len() as f64);
    }

    #[test]
    fn commercial_cell_hides_gnb_log() {
        let b = SessionSpec::cell(cells::tmobile_tdd_100mhz(), short_cfg(3)).run();
        assert!(b.gnb.is_empty());
        assert!(!b.meta.has_gnb_log);
    }

    #[test]
    fn cellular_delay_exceeds_wired() {
        let cfg = short_cfg(4);
        let cell = SessionSpec::cell(cells::tmobile_fdd_15mhz(), cfg.clone()).run();
        let wired = SessionSpec::baseline(BaselineAccess::Wired, cfg).run();
        let med = |b: &TraceBundle, dir| {
            let d: Vec<f64> = b
                .packets
                .iter()
                .filter(|p| p.direction == dir && p.stream != StreamKind::Rtcp)
                .filter_map(|p| p.one_way_delay())
                .map(|d| d.as_millis_f64())
                .collect();
            telemetry::Cdf::from_samples(d).median().unwrap()
        };
        let cell_ul = med(&cell, Direction::Uplink);
        let wired_ul = med(&wired, Direction::Uplink);
        assert!(
            cell_ul > 3.0 * wired_ul,
            "5G UL {cell_ul} ms should dominate wired {wired_ul} ms"
        );
    }

    /// Rebuilds a bundle purely from tap events, exercising the documented
    /// [`LiveTap`] contract: packets announced at send time and patched at
    /// delivery, app/DCI in order, gNB out of order through `append_gnb`.
    struct RecordingTap {
        rebuilt: TraceBundle,
        index_of: std::collections::HashMap<u64, usize>,
        ticks: usize,
        finished_at: Option<SimTime>,
        stop_after: Option<SimTime>,
        now: SimTime,
    }

    impl RecordingTap {
        fn new() -> Self {
            RecordingTap {
                rebuilt: TraceBundle::new(SessionMeta::baseline("rebuilt", SimDuration::ZERO, 0)),
                index_of: std::collections::HashMap::new(),
                ticks: 0,
                finished_at: None,
                stop_after: None,
                now: SimTime::ZERO,
            }
        }
    }

    impl telemetry::LiveTap for RecordingTap {
        fn on_app_local(&mut self, r: &telemetry::AppStatsRecord) {
            self.rebuilt.append_app_local(r.clone());
        }
        fn on_playback(&mut self, r: &telemetry::PlaybackStatsRecord) {
            self.rebuilt.append_playback(r.clone());
        }
        fn on_app_remote(&mut self, r: &telemetry::AppStatsRecord) {
            self.rebuilt.append_app_remote(r.clone());
        }
        fn on_dci(&mut self, r: &telemetry::DciRecord) {
            self.rebuilt.append_dci(r.clone());
        }
        fn on_gnb(&mut self, r: &telemetry::GnbLogRecord) {
            self.rebuilt.append_gnb(r.clone());
        }
        fn on_packet_sent(&mut self, id: u64, r: &PacketRecord) {
            assert!(r.received.is_none(), "fate must be unknown at send time");
            self.index_of.insert(id, self.rebuilt.packets.len());
            self.rebuilt.packets.push(r.clone());
        }
        fn on_packet_delivered(&mut self, id: u64, at: SimTime) {
            let idx = self.index_of[&id];
            self.rebuilt.packets[idx].received = Some(at);
        }
        fn on_tick(&mut self, now: SimTime) {
            self.ticks += 1;
            self.now = now;
        }
        fn on_finish(&mut self, now: SimTime) {
            self.finished_at = Some(now);
        }
        fn should_stop(&self) -> bool {
            self.stop_after.is_some_and(|t| self.now >= t)
        }
    }

    use super::tests_support::assert_bundles_identical;

    #[test]
    fn tapped_session_matches_untapped_and_rebuilds_bundle() {
        let cfg = short_cfg(8);
        let spec = SessionSpec::cell(cells::amarisoft(), cfg.clone());
        let untapped = spec.run();
        let mut tap = RecordingTap::new();
        let tapped = spec.run_with_tap(&mut tap);
        // The tap must not perturb the simulation.
        assert_bundles_identical(&untapped, &tapped);
        // Rebuilding from tap events reproduces the bundle after one sort
        // (packet records are announced in emission order, like the engine's).
        tap.rebuilt.sort();
        assert_bundles_identical(&tapped, &tap.rebuilt);
        assert!(
            tap.ticks > 10_000,
            "one tick per ms expected, got {}",
            tap.ticks
        );
        assert_eq!(tap.finished_at, Some(SimTime::ZERO + cfg.duration));
    }

    #[test]
    fn tap_can_abort_session_early() {
        let cfg = short_cfg(9);
        let mut tap = RecordingTap::new();
        tap.stop_after = Some(SimTime::from_secs(5));
        let spec = SessionSpec::cell(cells::amarisoft(), cfg.clone());
        let truncated = spec.run_with_tap(&mut tap);
        let full = spec.run();
        assert!(truncated.packets.len() < full.packets.len() / 2);
        assert!(truncated.horizon() < SimTime::from_secs(6));
        // Early exit reports the abort instant, not the configured duration.
        let finished = tap.finished_at.unwrap();
        assert!(finished >= SimTime::from_secs(5) && finished < SimTime::from_secs(6));
        // And the bundle's metadata reflects the time that actually ran, so
        // per-minute normalisation doesn't divide by unsimulated time.
        assert_eq!(
            truncated.meta.duration,
            finished.saturating_since(SimTime::ZERO)
        );
        assert!(full.meta.duration == cfg.duration);
    }

    #[test]
    fn sessions_are_deterministic() {
        let spec = SessionSpec::cell(cells::mosolabs(), short_cfg(7));
        let x = spec.run();
        let y = spec.run();
        assert_eq!(x.packets.len(), y.packets.len());
        assert_eq!(x.dci.len(), y.dci.len());
        for (p, q) in x.packets.iter().zip(&y.packets) {
            assert_eq!(p.sent, q.sent);
            assert_eq!(p.received, q.received);
        }
    }

    #[test]
    fn abr_session_streams_over_a_cell() {
        let b = SessionSpec::cell(cells::amarisoft(), short_cfg(31))
            .abr(AbrConfig::default())
            .run();
        assert!(b.is_sorted());
        assert!(!b.dci.is_empty(), "cell telemetry flows for ABR too");
        // Playback samples on the 50 ms lattice; RTC app stats absent.
        assert!(b.playback.len() > 250, "playback {}", b.playback.len());
        assert!(b.app_local.is_empty() && b.app_remote.is_empty());
        let last = b.playback.last().unwrap();
        assert!(last.started, "playback must start on a healthy cell");
        assert!(last.segments_fetched > 5);
        // Segment requests ride the uplink, chunks ride the downlink.
        let ul = b
            .packets
            .iter()
            .filter(|p| p.direction == Direction::Uplink)
            .count();
        let dl = b
            .packets
            .iter()
            .filter(|p| p.direction == Direction::Downlink && p.stream == StreamKind::Video)
            .count();
        assert!(ul > 5, "requests {ul}");
        assert!(dl > 500, "chunks {dl}");
    }

    #[test]
    fn abr_sessions_are_deterministic_and_tap_invisible() {
        let spec = SessionSpec::cell(cells::mosolabs(), short_cfg(32)).abr(AbrConfig::default());
        let x = spec.run();
        let y = spec.run();
        assert_bundles_identical(&x, &y);
        assert_eq!(x.playback.len(), y.playback.len());
        for (p, q) in x.playback.iter().zip(&y.playback) {
            assert_eq!((p.ts, p.stall_count, p.rung), (q.ts, q.stall_count, q.rung));
            assert_eq!(p.buffer_ms.to_bits(), q.buffer_ms.to_bits());
        }
        // A recording tap neither perturbs the run nor misses records.
        let mut tap = RecordingTap::new();
        let tapped = spec.run_with_tap(&mut tap);
        assert_bundles_identical(&x, &tapped);
        assert_eq!(tap.rebuilt.playback.len(), tapped.playback.len());
    }
}
