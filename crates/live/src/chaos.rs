//! Telemetry chaos injection: a [`ChaosTap`] wrapper that sits between a
//! session engine and any [`LiveTap`], injecting the faults a real capture
//! pipeline suffers — dropped records, duplicates, reorder bursts
//! (delays), capture-clock skew, and whole-stream blackouts — exactly as
//! scripted by a [`telemetry::TapChaosSpec`].
//!
//! The mirror of `sweep::chaos` one layer down: where the coordinator's
//! fleet corrupts *result frames*, this corrupts the *telemetry feed*
//! itself, so the live pipeline's degradation handling (adaptive
//! lateness, verdict coverage, SLO exits) can be exercised and swept.
//!
//! Determinism contract: every fault decision comes from a counter-based
//! hash of `(spec seed, stream, decision kind, per-stream counter)` — no
//! shared RNG state, no wall clock. Given the same spec and the same
//! session event sequence, the injected faults (and therefore every byte
//! downstream) are identical regardless of thread count, shard count, or
//! multiplex width.
//!
//! Every injected fault is tallied in a [`TapFaultLog`] ground truth; the
//! chaos fuzz suite asserts the log reconciles exactly against what the
//! wrapped pipeline observed — nothing injected may vanish unaccounted.

use std::collections::{HashSet, VecDeque};

use simcore::{splitmix64, SimTime};
use telemetry::{
    AppStatsRecord, DciRecord, GnbLogRecord, LiveTap, PacketRecord, PlaybackStatsRecord,
    TapChaosSpec, TapFault, TapStream,
};

const N: usize = TapStream::COUNT;

// Decision-kind salts for the per-record rolls.
const SALT_DROP: u64 = 1;
const SALT_DUP: u64 = 2;
const SALT_DELAY: u64 = 3;
const SALT_DELAY_AMOUNT: u64 = 4;

/// [`splitmix64`] of the fault seed, stream, decision kind, and the
/// stream's roll counter. Stateless per decision: the only evolving input
/// is the counter, which advances with the (deterministic) record
/// sequence.
fn mix(seed: u64, stream: u64, salt: u64, counter: u64) -> u64 {
    splitmix64(
        seed ^ stream.wrapping_mul(0x9E37_79B9_7F4A_7C15)
            ^ salt.wrapping_mul(0xBF58_476D_1CE4_E5B9)
            ^ counter.wrapping_mul(0x94D0_49BB_1331_11EB),
    )
}

/// Ground truth of what a [`ChaosTap`] injected, per stream (indexed by
/// [`TapStream::idx`]). After the session finishes (delay stash flushed),
/// the per-stream identity
///
/// `forwarded = records_in − dropped − blackout_dropped + duplicated`
///
/// holds exactly — [`TapFaultLog::reconciled`] checks it — and
/// `Σ forwarded` must equal the wrapped consumer's records-seen count.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct TapFaultLog {
    /// Records the engine emitted into the tap.
    pub records_in: [u64; N],
    /// Record emissions forwarded to the wrapped tap (duplicates count
    /// each forwarding; delayed records count when released).
    pub forwarded: [u64; N],
    /// Records swallowed by a seeded drop roll.
    pub dropped: [u64; N],
    /// Records swallowed by a blackout span (checked against the record's
    /// *true* timestamp, before any skew).
    pub blackout_dropped: [u64; N],
    /// Extra copies forwarded by duplicate rolls.
    pub duplicated: [u64; N],
    /// Records held back by a delay roll (re-emitted later).
    pub delayed: [u64; N],
    /// Records whose timestamp was shifted behind by clock skew.
    pub skewed: [u64; N],
    /// Packet delivery events the engine emitted.
    pub deliveries_in: u64,
    /// Delivery events suppressed because their send was dropped.
    pub deliveries_suppressed: u64,
}

impl TapFaultLog {
    /// Total records the engine emitted across all streams.
    pub fn total_records_in(&self) -> u64 {
        self.records_in.iter().sum()
    }

    /// Total emissions forwarded to the wrapped tap.
    pub fn total_forwarded(&self) -> u64 {
        self.forwarded.iter().sum()
    }

    /// Total drop-roll swallows.
    pub fn total_dropped(&self) -> u64 {
        self.dropped.iter().sum()
    }

    /// Total blackout swallows.
    pub fn total_blackout_dropped(&self) -> u64 {
        self.blackout_dropped.iter().sum()
    }

    /// Total duplicate copies forwarded.
    pub fn total_duplicated(&self) -> u64 {
        self.duplicated.iter().sum()
    }

    /// Total records delayed.
    pub fn total_delayed(&self) -> u64 {
        self.delayed.iter().sum()
    }

    /// Total records clock-skewed.
    pub fn total_skewed(&self) -> u64 {
        self.skewed.iter().sum()
    }

    /// Whether any fault fired at all.
    pub fn any_fault(&self) -> bool {
        self.total_dropped() > 0
            || self.total_blackout_dropped() > 0
            || self.total_duplicated() > 0
            || self.total_delayed() > 0
            || self.total_skewed() > 0
            || self.deliveries_suppressed > 0
    }

    /// Checks the per-stream conservation identity (valid once the
    /// session has finished and the delay stash is flushed): every record
    /// in is either forwarded, dropped, or blacked out, and every
    /// duplicate adds exactly one forwarding.
    pub fn reconciled(&self) -> bool {
        TapStream::ALL.iter().all(|s| {
            let i = s.idx();
            self.forwarded[i] + self.dropped[i] + self.blackout_dropped[i]
                == self.records_in[i] + self.duplicated[i]
        }) && self.deliveries_suppressed <= self.deliveries_in
    }
}

/// A record held back by a delay fault, owned until release.
#[derive(Debug, Clone)]
enum Stashed {
    AppLocal(AppStatsRecord),
    AppRemote(AppStatsRecord),
    Playback(PlaybackStatsRecord),
    Dci(DciRecord),
    Gnb(GnbLogRecord),
}

/// Compiled per-session chaos state: the fault script flattened into
/// per-stream tables, the roll counters, the delay stash, and the
/// [`TapFaultLog`]. One per session; create fresh from the spec (cheap)
/// rather than reusing across sessions.
#[derive(Debug, Clone)]
pub struct ChaosState {
    seed: u64,
    drop_pct: [u8; N],
    dup_pct: [u8; N],
    delay_pct: [u8; N],
    delay_max_us: [u64; N],
    skew_us: [u64; N],
    blackouts: [Vec<(SimTime, SimTime)>; N],
    /// One roll counter per stream; every seeded decision consumes one.
    rolls: [u64; N],
    /// Delayed records, sorted by `(release time, stash sequence)`.
    stash: VecDeque<(SimTime, u64, Stashed)>,
    seq: u64,
    now: SimTime,
    /// Send ids whose packet was dropped: their delivery events must be
    /// suppressed too (a capture that missed the send missed the fate).
    dropped_packets: HashSet<u64>,
    /// Ground-truth tally of everything injected.
    pub log: TapFaultLog,
}

impl ChaosState {
    /// Compiles a fault script. Percentages accumulate saturating at 100;
    /// duplicate/delay/skew faults aimed at [`TapStream::Packet`] are
    /// ignored (documented non-applicable in [`TapFault`]).
    pub fn new(spec: &TapChaosSpec) -> Self {
        let mut st = ChaosState {
            seed: spec.seed,
            drop_pct: [0; N],
            dup_pct: [0; N],
            delay_pct: [0; N],
            delay_max_us: [0; N],
            skew_us: [0; N],
            blackouts: std::array::from_fn(|_| Vec::new()),
            rolls: [0; N],
            stash: VecDeque::new(),
            seq: 0,
            now: SimTime::ZERO,
            dropped_packets: HashSet::new(),
            log: TapFaultLog::default(),
        };
        for f in &spec.faults {
            let i = f.stream().idx();
            let packet = f.stream() == TapStream::Packet;
            match *f {
                TapFault::Drop { pct, .. } => {
                    st.drop_pct[i] = st.drop_pct[i].saturating_add(pct).min(100);
                }
                TapFault::Duplicate { pct, .. } if !packet => {
                    st.dup_pct[i] = st.dup_pct[i].saturating_add(pct).min(100);
                }
                TapFault::Delay { pct, max_delay, .. } if !packet => {
                    st.delay_pct[i] = st.delay_pct[i].saturating_add(pct).min(100);
                    st.delay_max_us[i] = st.delay_max_us[i].max(max_delay.as_micros());
                }
                TapFault::SkewBehind { skew, .. } if !packet => {
                    st.skew_us[i] = st.skew_us[i].saturating_add(skew.as_micros());
                }
                TapFault::Blackout { from, to, .. } => st.blackouts[i].push((from, to)),
                // Non-applicable packet faults fall through here.
                TapFault::Duplicate { .. }
                | TapFault::Delay { .. }
                | TapFault::SkewBehind { .. } => {}
            }
        }
        st
    }

    /// Whether `spec` would compile to a no-op state (no faults can fire).
    pub fn is_noop(&self) -> bool {
        self.drop_pct == [0; N]
            && self.dup_pct == [0; N]
            && self.delay_pct == [0; N]
            && self.skew_us == [0; N]
            && self.blackouts.iter().all(Vec::is_empty)
    }

    fn roll(&mut self, s: usize, salt: u64) -> u64 {
        let c = self.rolls[s];
        self.rolls[s] += 1;
        mix(self.seed, s as u64, salt, c)
    }

    fn hit(&mut self, s: usize, salt: u64, pct: u8) -> bool {
        if pct == 0 {
            return false;
        }
        self.roll(s, salt) % 100 < pct as u64
    }

    fn in_blackout(&self, s: usize, ts: SimTime) -> bool {
        self.blackouts[s]
            .iter()
            .any(|&(from, to)| ts >= from && ts < to)
    }

    fn stash_push(&mut self, at: SimTime, rec: Stashed) {
        let seq = self.seq;
        self.seq += 1;
        // seq is strictly increasing, so ties on release time already sit
        // in order; only an earlier release time forces an insert.
        if self.stash.back().is_none_or(|e| e.0 <= at) {
            self.stash.push_back((at, seq, rec));
        } else {
            let i = self.stash.partition_point(|e| e.0 <= at);
            self.stash.insert(i, (at, seq, rec));
        }
    }
}

fn forward_stashed<T: LiveTap + ?Sized>(log: &mut TapFaultLog, inner: &mut T, rec: Stashed) {
    match rec {
        Stashed::AppLocal(r) => {
            log.forwarded[TapStream::AppLocal.idx()] += 1;
            inner.on_app_local(&r);
        }
        Stashed::AppRemote(r) => {
            log.forwarded[TapStream::AppRemote.idx()] += 1;
            inner.on_app_remote(&r);
        }
        Stashed::Playback(r) => {
            log.forwarded[TapStream::Playback.idx()] += 1;
            inner.on_playback(&r);
        }
        Stashed::Dci(r) => {
            log.forwarded[TapStream::Dci.idx()] += 1;
            inner.on_dci(&r);
        }
        Stashed::Gnb(r) => {
            log.forwarded[TapStream::Gnb.idx()] += 1;
            inner.on_gnb(&r);
        }
    }
}

/// The fault-injecting tap wrapper. Borrows its [`ChaosState`] so callers
/// (sweep workers, the multiplexer) can keep per-session state across the
/// short-lived wrapper borrows a session phase hands out.
pub struct ChaosTap<'a, T: LiveTap + ?Sized> {
    state: &'a mut ChaosState,
    inner: &'a mut T,
}

impl<'a, T: LiveTap + ?Sized> ChaosTap<'a, T> {
    /// Wraps `inner`, injecting faults from `state`.
    pub fn new(state: &'a mut ChaosState, inner: &'a mut T) -> Self {
        ChaosTap { state, inner }
    }
}

macro_rules! chaos_record {
    ($method:ident, $rec:ty, $stream:expr, $variant:ident) => {
        fn $method(&mut self, r: &$rec) {
            let st = &mut *self.state;
            let s = $stream.idx();
            st.log.records_in[s] += 1;
            // Blackout is checked against the true timestamp: a dead
            // capture process misses the record no matter what its clock
            // would have stamped.
            if st.in_blackout(s, r.ts) {
                st.log.blackout_dropped[s] += 1;
                return;
            }
            if st.hit(s, SALT_DROP, st.drop_pct[s]) {
                st.log.dropped[s] += 1;
                return;
            }
            let dup = st.hit(s, SALT_DUP, st.dup_pct[s]);
            if dup {
                st.log.duplicated[s] += 1;
            }
            let delay_us = if st.hit(s, SALT_DELAY, st.delay_pct[s]) {
                st.log.delayed[s] += 1;
                let max = st.delay_max_us[s].max(1);
                Some(1 + st.roll(s, SALT_DELAY_AMOUNT) % max)
            } else {
                None
            };
            let mut rec = r.clone();
            if st.skew_us[s] > 0 {
                st.log.skewed[s] += 1;
                rec.ts = SimTime::from_micros(rec.ts.as_micros().saturating_sub(st.skew_us[s]));
            }
            match delay_us {
                Some(us) => {
                    let at = SimTime::from_micros(st.now.as_micros().saturating_add(us));
                    if dup {
                        st.stash_push(at, Stashed::$variant(rec.clone()));
                    }
                    st.stash_push(at, Stashed::$variant(rec));
                }
                None => {
                    st.log.forwarded[s] += 1;
                    self.inner.$method(&rec);
                    if dup {
                        st.log.forwarded[s] += 1;
                        self.inner.$method(&rec);
                    }
                }
            }
        }
    };
}

impl<T: LiveTap + ?Sized> LiveTap for ChaosTap<'_, T> {
    chaos_record!(on_app_local, AppStatsRecord, TapStream::AppLocal, AppLocal);
    chaos_record!(
        on_app_remote,
        AppStatsRecord,
        TapStream::AppRemote,
        AppRemote
    );
    chaos_record!(
        on_playback,
        PlaybackStatsRecord,
        TapStream::Playback,
        Playback
    );
    chaos_record!(on_dci, DciRecord, TapStream::Dci, Dci);
    chaos_record!(on_gnb, GnbLogRecord, TapStream::Gnb, Gnb);

    fn on_packet_sent(&mut self, id: u64, r: &PacketRecord) {
        let st = &mut *self.state;
        let s = TapStream::Packet.idx();
        st.log.records_in[s] += 1;
        if st.in_blackout(s, r.sent) {
            st.log.blackout_dropped[s] += 1;
            st.dropped_packets.insert(id);
            return;
        }
        if st.hit(s, SALT_DROP, st.drop_pct[s]) {
            st.log.dropped[s] += 1;
            st.dropped_packets.insert(id);
            return;
        }
        st.log.forwarded[s] += 1;
        self.inner.on_packet_sent(id, r);
    }

    fn on_packet_delivered(&mut self, id: u64, at: SimTime) {
        let st = &mut *self.state;
        st.log.deliveries_in += 1;
        if st.dropped_packets.remove(&id) {
            st.log.deliveries_suppressed += 1;
            return;
        }
        self.inner.on_packet_delivered(id, at);
    }

    fn on_tick(&mut self, now: SimTime) {
        let st = &mut *self.state;
        st.now = now;
        while st.stash.front().is_some_and(|e| e.0 <= now) {
            let (_, _, rec) = st.stash.pop_front().expect("checked non-empty");
            forward_stashed(&mut st.log, self.inner, rec);
        }
        self.inner.on_tick(now);
    }

    fn on_finish(&mut self, now: SimTime) {
        let st = &mut *self.state;
        st.now = st.now.max(now);
        // Flush the whole stash: a finished session's capture pipeline
        // drains its queues, however late.
        while let Some((_, _, rec)) = st.stash.pop_front() {
            forward_stashed(&mut st.log, self.inner, rec);
        }
        self.inner.on_finish(now);
    }

    fn should_stop(&self) -> bool {
        self.inner.should_stop()
    }

    fn is_active(&self) -> bool {
        self.inner.is_active()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use simcore::SimDuration;

    /// A tap that records what it sees, for asserting against the log.
    #[derive(Debug, Default)]
    struct RecTap {
        gnb: Vec<SimTime>,
        dci: Vec<SimTime>,
        packets: Vec<u64>,
        deliveries: Vec<u64>,
        finished: bool,
    }

    impl LiveTap for RecTap {
        fn on_gnb(&mut self, r: &GnbLogRecord) {
            self.gnb.push(r.ts);
        }
        fn on_dci(&mut self, r: &DciRecord) {
            self.dci.push(r.ts);
        }
        fn on_packet_sent(&mut self, id: u64, _r: &PacketRecord) {
            self.packets.push(id);
        }
        fn on_packet_delivered(&mut self, id: u64, _at: SimTime) {
            self.deliveries.push(id);
        }
        fn on_finish(&mut self, _now: SimTime) {
            self.finished = true;
        }
    }

    fn gnb(ms: u64) -> GnbLogRecord {
        GnbLogRecord {
            ts: SimTime::from_millis(ms),
            event: telemetry::GnbEvent::RlcBuffer {
                direction: telemetry::Direction::Uplink,
                bytes: 100,
            },
        }
    }

    fn dci(ms: u64) -> DciRecord {
        DciRecord {
            ts: SimTime::from_millis(ms),
            rnti: 1,
            direction: telemetry::Direction::Downlink,
            is_target_ue: true,
            n_prbs: 10,
            mcs: 10,
            tbs_bits: 1000,
            harq_id: 0,
            harq_retx_idx: 0,
            decoded_ok: true,
            proactive: false,
            used_bits: 900,
        }
    }

    fn pkt(ms: u64) -> PacketRecord {
        PacketRecord {
            sent: SimTime::from_millis(ms),
            received: None,
            direction: telemetry::Direction::Uplink,
            stream: telemetry::StreamKind::Video,
            seq: 0,
            size_bytes: 1200,
        }
    }

    fn drive_gnb(spec: &TapChaosSpec, n: u64) -> (ChaosState, RecTap) {
        let mut st = ChaosState::new(spec);
        let mut tap = RecTap::default();
        {
            let mut chaos = ChaosTap::new(&mut st, &mut tap);
            for i in 0..n {
                chaos.on_gnb(&gnb(i * 10));
                chaos.on_tick(SimTime::from_millis(i * 10));
            }
            chaos.on_finish(SimTime::from_millis(n * 10));
        }
        (st, tap)
    }

    #[test]
    fn same_spec_injects_identical_faults() {
        let spec = TapChaosSpec::new(42)
            .fault(TapFault::Drop {
                stream: TapStream::Gnb,
                pct: 30,
            })
            .fault(TapFault::Duplicate {
                stream: TapStream::Gnb,
                pct: 20,
            });
        let (a, ta) = drive_gnb(&spec, 200);
        let (b, tb) = drive_gnb(&spec, 200);
        assert_eq!(a.log, b.log);
        assert_eq!(ta.gnb, tb.gnb);
        assert!(a.log.total_dropped() > 0, "30% over 200 records must fire");
        assert!(a.log.total_duplicated() > 0);
        assert!(a.log.reconciled(), "{:?}", a.log);
        assert_eq!(ta.gnb.len() as u64, a.log.total_forwarded());
    }

    #[test]
    fn different_seed_changes_the_rolls() {
        let base = TapChaosSpec::new(1).fault(TapFault::Drop {
            stream: TapStream::Gnb,
            pct: 50,
        });
        let other = TapChaosSpec {
            seed: 2,
            ..base.clone()
        };
        let (a, ta) = drive_gnb(&base, 200);
        let (b, tb) = drive_gnb(&other, 200);
        assert!(a.log.reconciled() && b.log.reconciled());
        assert_ne!(ta.gnb, tb.gnb, "different seeds must drop differently");
    }

    #[test]
    fn blackout_swallows_exactly_the_span() {
        let spec = TapChaosSpec::new(0).fault(TapFault::Blackout {
            stream: TapStream::Dci,
            from: SimTime::from_millis(100),
            to: SimTime::from_millis(300),
        });
        let mut st = ChaosState::new(&spec);
        let mut tap = RecTap::default();
        {
            let mut chaos = ChaosTap::new(&mut st, &mut tap);
            for i in 0..50 {
                chaos.on_dci(&dci(i * 10));
            }
            chaos.on_finish(SimTime::from_millis(500));
        }
        // Records at 100..290 ms inclusive are swallowed (20 of 50).
        assert_eq!(st.log.blackout_dropped[TapStream::Dci.idx()], 20);
        assert_eq!(tap.dci.len(), 30);
        assert!(tap
            .dci
            .iter()
            .all(|&t| t < SimTime::from_millis(100) || t >= SimTime::from_millis(300)));
        assert!(st.log.reconciled());
    }

    #[test]
    fn delay_restashes_and_flushes_in_order() {
        let spec = TapChaosSpec::new(9).fault(TapFault::Delay {
            stream: TapStream::Gnb,
            pct: 100,
            max_delay: SimDuration::from_millis(40),
        });
        let mut st = ChaosState::new(&spec);
        let mut tap = RecTap::default();
        {
            let mut chaos = ChaosTap::new(&mut st, &mut tap);
            for i in 0..20 {
                chaos.on_gnb(&gnb(i * 10));
                chaos.on_tick(SimTime::from_millis(i * 10));
            }
            // Not all released yet: the last few are still stashed.
            chaos.on_finish(SimTime::from_millis(200));
        }
        assert_eq!(st.log.total_delayed(), 20);
        assert_eq!(st.log.total_forwarded(), 20, "finish must flush the stash");
        assert_eq!(tap.gnb.len(), 20);
        assert!(tap.finished);
        assert!(st.log.reconciled());
        assert!(st.stash.is_empty());
    }

    #[test]
    fn skew_shifts_timestamps_behind() {
        let spec = TapChaosSpec::new(0).fault(TapFault::SkewBehind {
            stream: TapStream::Gnb,
            skew: SimDuration::from_millis(25),
        });
        let mut st = ChaosState::new(&spec);
        let mut tap = RecTap::default();
        {
            let mut chaos = ChaosTap::new(&mut st, &mut tap);
            chaos.on_gnb(&gnb(100));
            chaos.on_finish(SimTime::from_millis(200));
        }
        assert_eq!(tap.gnb, vec![SimTime::from_millis(75)]);
        assert_eq!(st.log.total_skewed(), 1);
        assert!(st.log.reconciled());
    }

    #[test]
    fn dropped_packet_suppresses_its_delivery() {
        let spec = TapChaosSpec::new(3).fault(TapFault::Drop {
            stream: TapStream::Packet,
            pct: 50,
        });
        let mut st = ChaosState::new(&spec);
        let mut tap = RecTap::default();
        {
            let mut chaos = ChaosTap::new(&mut st, &mut tap);
            for id in 0..100u64 {
                chaos.on_packet_sent(id, &pkt(id * 5));
                chaos.on_packet_delivered(id, SimTime::from_millis(id * 5 + 30));
            }
            chaos.on_finish(SimTime::from_secs(1));
        }
        let dropped = st.log.dropped[TapStream::Packet.idx()];
        assert!(dropped > 0);
        assert_eq!(st.log.deliveries_suppressed, dropped);
        assert_eq!(tap.packets.len() as u64, 100 - dropped);
        // Every delivery the inner tap saw had a matching send.
        assert_eq!(tap.deliveries, tap.packets);
        assert!(st.log.reconciled());
        assert!(st.dropped_packets.is_empty());
    }

    #[test]
    fn packet_only_faults_compile_to_noop_for_non_applicable_kinds() {
        let spec = TapChaosSpec::new(0)
            .fault(TapFault::Duplicate {
                stream: TapStream::Packet,
                pct: 100,
            })
            .fault(TapFault::Delay {
                stream: TapStream::Packet,
                pct: 100,
                max_delay: SimDuration::from_secs(1),
            })
            .fault(TapFault::SkewBehind {
                stream: TapStream::Packet,
                skew: SimDuration::from_secs(1),
            });
        let st = ChaosState::new(&spec);
        assert!(st.is_noop());
    }

    #[test]
    fn empty_spec_forwards_everything_untouched() {
        let (st, tap) = drive_gnb(&TapChaosSpec::new(7), 50);
        assert!(st.is_noop());
        assert!(!st.log.any_fault());
        assert_eq!(tap.gnb.len(), 50);
        assert_eq!(st.log.total_forwarded(), 50);
        assert!(st.log.reconciled());
    }
}
