//! The [`TraceBundle`]: one session's worth of correlated cross-layer
//! telemetry, the interchange format between the simulators and Domino.
//!
//! All record vectors are kept sorted by timestamp; windowed access used by
//! the sliding-window detector is `O(log n + k)` via binary search.

use simcore::{SimDuration, SimTime};

use crate::records::{
    AppStatsRecord, CellClass, DciRecord, Duplexing, GnbLogRecord, PacketRecord,
    PlaybackStatsRecord,
};

/// Descriptive metadata of a capture session (one row of Table 1).
#[derive(Debug, Clone, PartialEq)]
pub struct SessionMeta {
    /// Human-readable cell name, e.g. "T-Mobile 15 MHz FDD".
    pub cell_name: String,
    /// Public carrier or private CBRS.
    pub cell_class: CellClass,
    /// Carrier frequency in MHz.
    pub carrier_mhz: f64,
    /// Channel bandwidth in MHz.
    pub bandwidth_mhz: f64,
    /// FDD or TDD.
    pub duplexing: Duplexing,
    /// Session duration.
    pub duration: SimDuration,
    /// Seed the session was generated from (0 for real captures).
    pub seed: u64,
    /// Whether gNB-internal logs are part of the bundle (private cells).
    pub has_gnb_log: bool,
}

impl SessionMeta {
    /// Metadata for a non-cellular (wired/Wi-Fi) baseline session.
    pub fn baseline(name: &str, duration: SimDuration, seed: u64) -> Self {
        SessionMeta {
            cell_name: name.to_string(),
            cell_class: CellClass::Private,
            carrier_mhz: 0.0,
            bandwidth_mhz: 0.0,
            duplexing: Duplexing::Fdd,
            duration,
            seed,
            has_gnb_log: false,
        }
    }
}

/// Event counts of a bundle normalised to per-minute rates (Table 1 columns).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EventRates {
    /// DCI records per minute.
    pub dci_per_min: f64,
    /// gNB log records per minute.
    pub gnb_per_min: f64,
    /// Packet records per minute.
    pub packets_per_min: f64,
    /// WebRTC stats samples per minute (both clients).
    pub webrtc_per_min: f64,
}

/// One session's correlated cross-layer telemetry.
///
/// `app_local` is the cellular (UE-side) client; `app_remote` the wired peer.
#[derive(Debug, Clone)]
pub struct TraceBundle {
    /// Session description.
    pub meta: SessionMeta,
    /// PHY/MAC scheduling records, sorted by time.
    pub dci: Vec<DciRecord>,
    /// gNB log records (empty for commercial cells), sorted by time.
    pub gnb: Vec<GnbLogRecord>,
    /// Packet records, sorted by send time.
    pub packets: Vec<PacketRecord>,
    /// 50 ms app stats of the UE-side client, sorted by time.
    pub app_local: Vec<AppStatsRecord>,
    /// 50 ms app stats of the wired client, sorted by time.
    pub app_remote: Vec<AppStatsRecord>,
    /// 50 ms playback samples of an ABR streaming client, sorted by time
    /// (empty for RTC sessions).
    pub playback: Vec<PlaybackStatsRecord>,
}

impl TraceBundle {
    /// Creates an empty bundle with the given metadata.
    pub fn new(meta: SessionMeta) -> Self {
        TraceBundle {
            meta,
            dci: Vec::new(),
            gnb: Vec::new(),
            packets: Vec::new(),
            app_local: Vec::new(),
            app_remote: Vec::new(),
            playback: Vec::new(),
        }
    }

    /// Re-initialises the bundle for a new session described by `meta`,
    /// keeping every record vector's allocation. This is the
    /// arena-recycling half of the sweep engine's allocation contract: a
    /// worker hands its previous session's bundle back to its
    /// `SessionArena`, and the next session fills the same buffers.
    pub fn reset(&mut self, meta: SessionMeta) {
        self.meta = meta;
        self.dci.clear();
        self.gnb.clear();
        self.packets.clear();
        self.app_local.clear();
        self.app_remote.clear();
        self.playback.clear();
    }

    /// Sorts every record vector by timestamp. Simulators append records in
    /// emission order which is already time-sorted, but scripted scenarios or
    /// merged bundles may not be; detectors require sortedness.
    pub fn sort(&mut self) {
        self.dci.sort_by_key(|r| r.ts);
        self.gnb.sort_by_key(|r| r.ts);
        self.packets.sort_by_key(|r| r.sent);
        self.app_local.sort_by_key(|r| r.ts);
        self.app_remote.sort_by_key(|r| r.ts);
        self.playback.sort_by_key(|r| r.ts);
    }

    /// Verifies all record vectors are time-sorted.
    pub fn is_sorted(&self) -> bool {
        self.dci.windows(2).all(|w| w[0].ts <= w[1].ts)
            && self.gnb.windows(2).all(|w| w[0].ts <= w[1].ts)
            && self.packets.windows(2).all(|w| w[0].sent <= w[1].sent)
            && self.app_local.windows(2).all(|w| w[0].ts <= w[1].ts)
            && self.app_remote.windows(2).all(|w| w[0].ts <= w[1].ts)
            && self.playback.windows(2).all(|w| w[0].ts <= w[1].ts)
    }

    /// End of the last record in any stream (bundle horizon).
    pub fn horizon(&self) -> SimTime {
        let mut t = SimTime::ZERO;
        if let Some(r) = self.dci.last() {
            t = t.max(r.ts);
        }
        if let Some(r) = self.gnb.last() {
            t = t.max(r.ts);
        }
        if let Some(r) = self.packets.last() {
            t = t.max(r.received.unwrap_or(r.sent).max(r.sent));
        }
        if let Some(r) = self.app_local.last() {
            t = t.max(r.ts);
        }
        if let Some(r) = self.app_remote.last() {
            t = t.max(r.ts);
        }
        if let Some(r) = self.playback.last() {
            t = t.max(r.ts);
        }
        t
    }

    /// DCI records with `ts` in `[from, to)`.
    pub fn dci_window(&self, from: SimTime, to: SimTime) -> &[DciRecord] {
        window_by(&self.dci, from, to, |r| r.ts)
    }

    /// gNB records with `ts` in `[from, to)`.
    pub fn gnb_window(&self, from: SimTime, to: SimTime) -> &[GnbLogRecord] {
        window_by(&self.gnb, from, to, |r| r.ts)
    }

    /// Packets *sent* in `[from, to)`.
    pub fn packets_window(&self, from: SimTime, to: SimTime) -> &[PacketRecord] {
        window_by(&self.packets, from, to, |r| r.sent)
    }

    /// UE-client app samples in `[from, to)`.
    pub fn app_local_window(&self, from: SimTime, to: SimTime) -> &[AppStatsRecord] {
        window_by(&self.app_local, from, to, |r| r.ts)
    }

    /// Wired-client app samples in `[from, to)`.
    pub fn app_remote_window(&self, from: SimTime, to: SimTime) -> &[AppStatsRecord] {
        window_by(&self.app_remote, from, to, |r| r.ts)
    }

    /// ABR playback samples in `[from, to)`.
    pub fn playback_window(&self, from: SimTime, to: SimTime) -> &[PlaybackStatsRecord] {
        window_by(&self.playback, from, to, |r| r.ts)
    }

    /// Appends a DCI record, keeping the time-sorted invariant.
    ///
    /// Streaming producers (live captures, incremental simulators) use these
    /// hooks instead of pushing to the raw vectors and re-sorting: appends
    /// must be in non-decreasing timestamp order, which is checked in debug
    /// builds.
    pub fn append_dci(&mut self, r: DciRecord) {
        debug_assert!(
            self.dci.last().is_none_or(|l| l.ts <= r.ts),
            "unsorted DCI append"
        );
        self.dci.push(r);
    }

    /// Appends a gNB log record, tolerating out-of-order arrivals.
    ///
    /// Unlike the other streams, gNB logs are *not* emitted in timestamp
    /// order: RLC retransmissions are logged with their scheduled (future)
    /// timestamps and interleave out of order with same-slot buffer samples.
    /// Policy: an in-order record is pushed (`true`, O(1)); an out-of-order
    /// record is inserted at its stable sorted position — after all records
    /// with an equal timestamp, so a sequence of appends produces exactly
    /// what a stable [`Self::sort`] of the emission order would (`false`,
    /// O(n) worst case, O(displacement) memmove in practice). Records are
    /// never rejected here; consumers that need bounded-lateness *rejection*
    /// (with drop accounting) should use the `domino-live` reorder stage
    /// instead of the bundle.
    pub fn append_gnb(&mut self, r: GnbLogRecord) -> bool {
        if self.gnb.last().is_none_or(|l| l.ts <= r.ts) {
            self.gnb.push(r);
            true
        } else {
            let at = self.gnb.partition_point(|x| x.ts <= r.ts);
            self.gnb.insert(at, r);
            false
        }
    }

    /// Appends a UE-client stats sample in timestamp order.
    pub fn append_app_local(&mut self, r: AppStatsRecord) {
        debug_assert!(
            self.app_local.last().is_none_or(|l| l.ts <= r.ts),
            "unsorted app_local append"
        );
        self.app_local.push(r);
    }

    /// Appends a wired-client stats sample in timestamp order.
    pub fn append_app_remote(&mut self, r: AppStatsRecord) {
        debug_assert!(
            self.app_remote.last().is_none_or(|l| l.ts <= r.ts),
            "unsorted app_remote append"
        );
        self.app_remote.push(r);
    }

    /// Appends an ABR playback sample in timestamp order.
    pub fn append_playback(&mut self, r: PlaybackStatsRecord) {
        debug_assert!(
            self.playback.last().is_none_or(|l| l.ts <= r.ts),
            "unsorted playback append"
        );
        self.playback.push(r);
    }

    /// Starts an incremental read cursor at the beginning of every stream.
    pub fn cursor(&self) -> TraceCursor {
        TraceCursor::default()
    }

    /// All records that arrived since `cur`, restricted to timestamps before
    /// `t`, as one slice per stream; advances the cursor past them.
    ///
    /// This is the incremental-ingestion hook the streaming analyzer drives:
    /// calling it with a monotonically increasing `t` visits every record of
    /// each stream exactly once, in that stream's time order, in `O(log n)`
    /// per call plus `O(1)` per record returned.
    pub fn advance_until<'a>(&'a self, cur: &mut TraceCursor, t: SimTime) -> StreamSlices<'a> {
        fn take<'v, T>(
            v: &'v [T],
            pos: &mut usize,
            t: SimTime,
            key: impl Fn(&T) -> SimTime,
        ) -> &'v [T] {
            let start = *pos;
            let hi = start + v[start..].partition_point(|r| key(r) < t);
            *pos = hi;
            &v[start..hi]
        }
        StreamSlices {
            dci: take(&self.dci, &mut cur.dci, t, |r| r.ts),
            gnb: take(&self.gnb, &mut cur.gnb, t, |r| r.ts),
            packets: take(&self.packets, &mut cur.packets, t, |r| r.sent),
            app_local: take(&self.app_local, &mut cur.app_local, t, |r| r.ts),
            app_remote: take(&self.app_remote, &mut cur.app_remote, t, |r| r.ts),
            playback: take(&self.playback, &mut cur.playback, t, |r| r.ts),
        }
    }

    /// Total records across all six streams.
    pub fn total_records(&self) -> usize {
        self.dci.len()
            + self.gnb.len()
            + self.packets.len()
            + self.app_local.len()
            + self.app_remote.len()
            + self.playback.len()
    }

    /// Per-minute event rates (Table 1 columns).
    pub fn event_rates(&self) -> EventRates {
        let minutes = (self.meta.duration.as_secs_f64() / 60.0).max(1e-9);
        EventRates {
            dci_per_min: self.dci.len() as f64 / minutes,
            gnb_per_min: self.gnb.len() as f64 / minutes,
            packets_per_min: self.packets.len() as f64 / minutes,
            webrtc_per_min: (self.app_local.len() + self.app_remote.len()) as f64 / minutes,
        }
    }
}

/// Read position into each stream of a [`TraceBundle`], for incremental
/// consumption via [`TraceBundle::advance_until`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TraceCursor {
    dci: usize,
    gnb: usize,
    packets: usize,
    app_local: usize,
    app_remote: usize,
    playback: usize,
}

/// One batch of newly visible records, one slice per stream.
#[derive(Debug, Clone, Copy)]
pub struct StreamSlices<'a> {
    /// New DCI records.
    pub dci: &'a [DciRecord],
    /// New gNB log records.
    pub gnb: &'a [GnbLogRecord],
    /// New packet records (by send time).
    pub packets: &'a [PacketRecord],
    /// New UE-client stats samples.
    pub app_local: &'a [AppStatsRecord],
    /// New wired-client stats samples.
    pub app_remote: &'a [AppStatsRecord],
    /// New ABR playback samples.
    pub playback: &'a [PlaybackStatsRecord],
}

impl StreamSlices<'_> {
    /// Total records across all six streams.
    pub fn len(&self) -> usize {
        self.dci.len()
            + self.gnb.len()
            + self.packets.len()
            + self.app_local.len()
            + self.app_remote.len()
            + self.playback.len()
    }

    /// Whether no stream produced a record.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

/// Half-open time-window slice of a sorted vector via binary search.
fn window_by<T>(v: &[T], from: SimTime, to: SimTime, key: impl Fn(&T) -> SimTime) -> &[T] {
    let lo = v.partition_point(|r| key(r) < from);
    let hi = v.partition_point(|r| key(r) < to);
    &v[lo..hi]
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::records::{Direction, StreamKind};

    fn meta() -> SessionMeta {
        SessionMeta::baseline("test", SimDuration::from_secs(60), 1)
    }

    fn pkt(ms: u64) -> PacketRecord {
        PacketRecord {
            sent: SimTime::from_millis(ms),
            received: Some(SimTime::from_millis(ms + 20)),
            direction: Direction::Uplink,
            stream: StreamKind::Video,
            seq: ms,
            size_bytes: 1000,
        }
    }

    #[test]
    fn windowing_is_half_open() {
        let mut b = TraceBundle::new(meta());
        for ms in [0, 100, 200, 300, 400] {
            b.packets.push(pkt(ms));
        }
        let w = b.packets_window(SimTime::from_millis(100), SimTime::from_millis(300));
        assert_eq!(w.len(), 2);
        assert_eq!(w[0].seq, 100);
        assert_eq!(w[1].seq, 200);
    }

    #[test]
    fn sort_restores_invariant() {
        let mut b = TraceBundle::new(meta());
        b.packets.push(pkt(500));
        b.packets.push(pkt(100));
        assert!(!b.is_sorted());
        b.sort();
        assert!(b.is_sorted());
    }

    #[test]
    fn horizon_covers_receive_times() {
        let mut b = TraceBundle::new(meta());
        b.packets.push(pkt(100));
        assert_eq!(b.horizon(), SimTime::from_millis(120));
    }

    #[test]
    fn event_rates_normalised_per_minute() {
        let mut b = TraceBundle::new(meta());
        for ms in 0..120 {
            b.packets.push(pkt(ms));
        }
        let r = b.event_rates();
        assert!((r.packets_per_min - 120.0).abs() < 1e-9);
        assert_eq!(r.gnb_per_min, 0.0);
    }

    #[test]
    fn cursor_visits_each_record_once_in_order() {
        let mut b = TraceBundle::new(meta());
        for ms in [0, 100, 200, 300, 400] {
            b.packets.push(pkt(ms));
        }
        let mut cur = b.cursor();
        let first = b.advance_until(&mut cur, SimTime::from_millis(250));
        assert_eq!(first.packets.len(), 3);
        assert_eq!(first.len(), 3);
        // Same horizon again: nothing new.
        let again = b.advance_until(&mut cur, SimTime::from_millis(250));
        assert!(again.is_empty());
        // Advance to the end: exactly the remaining two.
        let rest = b.advance_until(&mut cur, SimTime::from_secs(10));
        assert_eq!(rest.packets.len(), 2);
        assert_eq!(rest.packets[0].seq, 300);
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "unsorted DCI append")]
    fn append_rejects_time_travel() {
        let dci = |ms: u64| DciRecord {
            ts: SimTime::from_millis(ms),
            rnti: 1,
            direction: Direction::Uplink,
            is_target_ue: true,
            n_prbs: 4,
            mcs: 10,
            tbs_bits: 1000,
            harq_id: 0,
            harq_retx_idx: 0,
            decoded_ok: true,
            proactive: false,
            used_bits: 1000,
        };
        let mut b = TraceBundle::new(meta());
        b.append_dci(dci(500));
        b.append_dci(dci(100));
    }

    #[test]
    fn append_gnb_tolerates_out_of_order() {
        use crate::records::GnbEvent;
        let gnb = |ms: u64, sn: u32| GnbLogRecord {
            ts: SimTime::from_millis(ms),
            event: GnbEvent::RlcRetx {
                direction: Direction::Uplink,
                sn,
            },
        };
        // Emission order with future timestamps and equal-ts interleaving,
        // as the cell simulator produces them.
        let emitted = [
            gnb(10, 0),
            gnb(30, 1),
            gnb(20, 2),
            gnb(20, 3),
            gnb(5, 4),
            gnb(30, 5),
        ];
        let mut appended = TraceBundle::new(meta());
        let mut in_order = Vec::new();
        for r in emitted.clone() {
            in_order.push(appended.append_gnb(r));
        }
        assert_eq!(in_order, [true, true, false, false, false, true]);
        assert!(appended.is_sorted());
        // Must match a stable sort of the emission order exactly.
        let mut sorted = TraceBundle::new(meta());
        sorted.gnb = emitted.to_vec();
        sorted.sort();
        let sns = |b: &TraceBundle| -> Vec<u32> {
            b.gnb
                .iter()
                .map(|r| match r.event {
                    GnbEvent::RlcRetx { sn, .. } => sn,
                    _ => unreachable!(),
                })
                .collect()
        };
        assert_eq!(sns(&appended), sns(&sorted));
        assert_eq!(sns(&appended), vec![4, 0, 2, 3, 1, 5]);
    }

    #[test]
    fn empty_window_on_empty_bundle() {
        let b = TraceBundle::new(meta());
        assert!(b
            .packets_window(SimTime::ZERO, SimTime::from_secs(10))
            .is_empty());
        assert_eq!(b.horizon(), SimTime::ZERO);
    }
}
