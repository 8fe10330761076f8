//! Radio Link Control, Acknowledged Mode.
//!
//! Models the three RLC behaviours the paper traces (§5.2.3, Fig. 15c):
//!
//! 1. **Buffering** — IP packets (RLC SDUs) queue at the transmitter while
//!    the physical layer is the bottleneck; buffer growth is what turns a
//!    capacity drop into one-way delay (Fig. 12).
//! 2. **ARQ retransmission** — when MAC-layer HARQ exhausts its attempts,
//!    recovery falls to RLC, which retransmits after a status-report delay
//!    an order of magnitude larger than a HARQ round (≈105 ms vs ≈10 ms).
//! 3. **In-order delivery** — RLC AM releases SDUs to upper layers strictly
//!    in sequence, so one missing PDU holds back everything behind it
//!    (head-of-line blocking) and its eventual arrival releases a burst of
//!    packets with nearly identical delivery times (Fig. 18).
//!
//! Granularity: one RLC PDU = one transport block payload, identified by a
//! sequence number. SDUs are segmented across PDUs as grants allow;
//! a retransmitted PDU carries its original payload (RLC resegmentation is
//! not modelled — grants are sized to fit, which the paper's cells also do).

use std::collections::VecDeque;

use simcore::{SeqRing, SimTime};

/// An upper-layer packet handed to RLC (an RLC SDU).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct Sdu {
    /// Opaque packet identity assigned by the caller.
    pub id: u64,
    /// Size in bytes.
    pub size_bytes: u32,
}

/// A contiguous piece of one SDU carried inside a PDU.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Segment {
    /// SDU this segment belongs to.
    pub sdu_id: u64,
    /// Bytes of the SDU carried here.
    pub bytes: u32,
    /// Whether this is the final segment of the SDU.
    pub last_of_sdu: bool,
}

/// One RLC PDU: the payload of one transport block.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) struct Pdu {
    /// RLC sequence number (strictly increasing per direction).
    pub sn: u32,
    /// Carried SDU segments, in order.
    pub segments: Vec<Segment>,
    /// Total payload bytes.
    pub bytes: u32,
    /// Whether this PDU is an RLC ARQ retransmission.
    pub is_retx: bool,
}

/// A free list of spent `Vec<Segment>` buffers, recycled between the PDU
/// builder ([`RlcTx::build_pdu_pooled`]) and the in-order release path
/// ([`RlcRx::receive_into`]) so steady-state PDU traffic performs no heap
/// allocation. One pool per link direction lives in the MAC's `LinkDir`.
#[derive(Debug, Clone, Default)]
pub(crate) struct SegmentPool {
    free: Vec<Vec<Segment>>,
}

impl SegmentPool {
    /// Takes an empty segment buffer from the pool (or a fresh one).
    pub(crate) fn get(&mut self) -> Vec<Segment> {
        self.free.pop().unwrap_or_default()
    }

    /// Returns a spent buffer to the pool.
    pub(crate) fn put(&mut self, mut v: Vec<Segment>) {
        v.clear();
        self.free.push(v);
    }
}

/// Transmitter-side RLC AM entity.
#[derive(Debug, Clone, Default)]
pub(crate) struct RlcTx {
    queue: VecDeque<SduProgress>,
    retx: VecDeque<(SimTime, Pdu)>,
    next_sn: u32,
    new_data_bytes: u64,
}

#[derive(Debug, Clone, Copy)]
struct SduProgress {
    sdu: Sdu,
    sent_bytes: u32,
}

impl RlcTx {
    /// Creates an empty entity.
    pub(crate) fn new() -> Self {
        Self::default()
    }

    /// Queues an SDU for transmission.
    pub(crate) fn enqueue(&mut self, sdu: Sdu) {
        self.new_data_bytes += sdu.size_bytes as u64;
        self.queue.push_back(SduProgress { sdu, sent_bytes: 0 });
    }

    /// Bytes awaiting transmission, including pending ARQ retransmissions —
    /// the quantity a Buffer Status Report carries.
    pub(crate) fn buffer_bytes(&self) -> u64 {
        self.new_data_bytes + self.retx.iter().map(|(_, p)| p.bytes as u64).sum::<u64>()
    }

    /// Whether an ARQ retransmission is ready to go at `now`.
    pub(crate) fn retx_due(&self, now: SimTime) -> bool {
        self.retx.front().is_some_and(|(at, _)| *at <= now)
    }

    /// Schedules an ARQ retransmission of `pdu` once the status report has
    /// made it back, i.e. not before `available_at`.
    pub(crate) fn schedule_retx(&mut self, available_at: SimTime, mut pdu: Pdu) {
        pdu.is_retx = true;
        // Keep the retx queue sorted by availability (insertions are nearly
        // ordered already; linear scan from the back is cheap).
        let at = available_at;
        let pos = self
            .retx
            .iter()
            .rposition(|(t, _)| *t <= at)
            .map_or(0, |p| p + 1);
        self.retx.insert(pos, (at, pdu));
    }

    /// Builds the next PDU of at most `max_bytes`, drawing its segment
    /// buffer from `pool`, or `None` if there is nothing to send at `now`.
    ///
    /// ARQ retransmissions take absolute priority, as RLC control/retx PDUs
    /// do; a retransmitted PDU keeps its original sequence number and is
    /// *not* truncated to `max_bytes` (the grant is assumed sized for it).
    pub(crate) fn build_pdu_pooled(
        &mut self,
        now: SimTime,
        max_bytes: u32,
        pool: &mut SegmentPool,
    ) -> Option<Pdu> {
        if self.retx_due(now) {
            let (_, pdu) = self.retx.pop_front().expect("checked retx_due");
            return Some(pdu);
        }
        if max_bytes == 0 || self.new_data_bytes == 0 {
            return None;
        }
        let mut segments = pool.get();
        let mut remaining = max_bytes;
        while remaining > 0 {
            let Some(front) = self.queue.front_mut() else {
                break;
            };
            let left = front.sdu.size_bytes - front.sent_bytes;
            let take = left.min(remaining);
            let last = take == left;
            segments.push(Segment {
                sdu_id: front.sdu.id,
                bytes: take,
                last_of_sdu: last,
            });
            front.sent_bytes += take;
            remaining -= take;
            self.new_data_bytes -= take as u64;
            if last {
                self.queue.pop_front();
            }
        }
        if segments.is_empty() {
            pool.put(segments);
            return None;
        }
        let bytes = max_bytes - remaining;
        let sn = self.next_sn;
        self.next_sn += 1;
        Some(Pdu {
            sn,
            segments,
            bytes,
            is_retx: false,
        })
    }
}

/// A completed SDU released to upper layers.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct SduDelivery {
    /// Identity of the delivered packet.
    pub sdu_id: u64,
    /// Release time (equals the in-order release of its last segment).
    pub released_at: SimTime,
}

/// Receiver-side RLC AM entity: reorders PDUs and releases SDUs in order.
#[derive(Debug, Clone, Default)]
pub(crate) struct RlcRx {
    next_expected_sn: u32,
    /// PDUs received ahead of a gap, by SN; every key is above
    /// `next_expected_sn`.
    held: SeqRing<Pdu>,
}

impl RlcRx {
    /// Creates an empty entity expecting SN 0.
    pub(crate) fn new() -> Self {
        Self::default()
    }

    /// Accepts a successfully decoded PDU at `now`, appending to `out` the
    /// SDUs completed by in-order release (possibly many at once after a gap
    /// fills — the HoL release burst of Fig. 18) and recycling the released
    /// PDUs' segment buffers into `pool`.
    pub(crate) fn receive_into(
        &mut self,
        now: SimTime,
        pdu: Pdu,
        out: &mut Vec<SduDelivery>,
        pool: &mut SegmentPool,
    ) {
        if pdu.sn < self.next_expected_sn {
            pool.put(pdu.segments); // duplicate of something already released
            return;
        }
        if let Some(stale) = self.held.insert(u64::from(pdu.sn), pdu) {
            pool.put(stale.segments); // a second copy of a held PDU
        }
        while let Some(pdu) = self.held.remove(u64::from(self.next_expected_sn)) {
            self.next_expected_sn += 1;
            for seg in &pdu.segments {
                if seg.last_of_sdu {
                    out.push(SduDelivery {
                        sdu_id: seg.sdu_id,
                        released_at: now,
                    });
                }
            }
            pool.put(pdu.segments);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn t(ms: u64) -> SimTime {
        SimTime::from_millis(ms)
    }

    #[test]
    fn segmentation_across_pdus() {
        let mut tx = RlcTx::new();
        let mut pool = SegmentPool::default();
        tx.enqueue(Sdu {
            id: 1,
            size_bytes: 2500,
        });
        assert_eq!(tx.buffer_bytes(), 2500);
        let p1 = tx.build_pdu_pooled(t(0), 1000, &mut pool).unwrap();
        let p2 = tx.build_pdu_pooled(t(0), 1000, &mut pool).unwrap();
        let p3 = tx.build_pdu_pooled(t(0), 1000, &mut pool).unwrap();
        assert_eq!(p1.bytes, 1000);
        assert!(!p1.segments[0].last_of_sdu);
        assert_eq!(p3.bytes, 500);
        assert!(p3.segments[0].last_of_sdu);
        assert_eq!(tx.buffer_bytes(), 0);
        assert!(tx.build_pdu_pooled(t(0), 1000, &mut pool).is_none());
        assert_eq!((p1.sn, p2.sn, p3.sn), (0, 1, 2));
    }

    #[test]
    fn multiple_sdus_share_a_pdu() {
        let mut tx = RlcTx::new();
        let mut pool = SegmentPool::default();
        tx.enqueue(Sdu {
            id: 1,
            size_bytes: 300,
        });
        tx.enqueue(Sdu {
            id: 2,
            size_bytes: 300,
        });
        let p = tx.build_pdu_pooled(t(0), 1000, &mut pool).unwrap();
        assert_eq!(p.segments.len(), 2);
        assert_eq!(p.bytes, 600);
        assert!(p.segments.iter().all(|s| s.last_of_sdu));
    }

    #[test]
    fn in_order_release() {
        let mut tx = RlcTx::new();
        let mut pool = SegmentPool::default();
        for id in 0..3 {
            tx.enqueue(Sdu {
                id,
                size_bytes: 100,
            });
        }
        let p0 = tx.build_pdu_pooled(t(0), 100, &mut pool).unwrap();
        let p1 = tx.build_pdu_pooled(t(0), 100, &mut pool).unwrap();
        let p2 = tx.build_pdu_pooled(t(0), 100, &mut pool).unwrap();
        let mut rx = RlcRx::new();
        // Deliver out of order: 1, 2 held; 0 releases everything.
        let mut released = Vec::new();
        rx.receive_into(t(10), p1, &mut released, &mut pool);
        rx.receive_into(t(12), p2, &mut released, &mut pool);
        assert!(released.is_empty());
        assert_eq!(rx.held.iter().count(), 2);
        rx.receive_into(t(50), p0, &mut released, &mut pool);
        assert_eq!(released.len(), 3);
        // HoL burst: all three released at the same instant.
        assert!(released.iter().all(|d| d.released_at == t(50)));
        assert_eq!(rx.held.iter().count(), 0);
    }

    #[test]
    fn retx_has_priority_and_keeps_sn() {
        let mut tx = RlcTx::new();
        let mut pool = SegmentPool::default();
        tx.enqueue(Sdu {
            id: 1,
            size_bytes: 100,
        });
        let lost = tx.build_pdu_pooled(t(0), 100, &mut pool).unwrap();
        tx.enqueue(Sdu {
            id: 2,
            size_bytes: 100,
        });
        tx.schedule_retx(t(60), lost.clone());
        // Before the status delay elapses the retx is not eligible.
        let p = tx.build_pdu_pooled(t(10), 100, &mut pool).unwrap();
        assert!(!p.is_retx);
        assert_eq!(p.segments[0].sdu_id, 2);
        // After: retx goes first, original SN preserved, flag set.
        tx.enqueue(Sdu {
            id: 3,
            size_bytes: 100,
        });
        let r = tx.build_pdu_pooled(t(70), 100, &mut pool).unwrap();
        assert!(r.is_retx);
        assert_eq!(r.sn, lost.sn);
    }

    #[test]
    fn buffer_accounts_retx() {
        let mut tx = RlcTx::new();
        let mut pool = SegmentPool::default();
        tx.enqueue(Sdu {
            id: 1,
            size_bytes: 500,
        });
        let pdu = tx.build_pdu_pooled(t(0), 500, &mut pool).unwrap();
        assert_eq!(tx.buffer_bytes(), 0);
        tx.schedule_retx(t(50), pdu);
        assert_eq!(tx.buffer_bytes(), 500);
        assert_eq!(tx.new_data_bytes, 0);
    }

    #[test]
    fn duplicate_pdu_ignored() {
        let mut tx = RlcTx::new();
        let mut pool = SegmentPool::default();
        tx.enqueue(Sdu {
            id: 7,
            size_bytes: 100,
        });
        let p = tx.build_pdu_pooled(t(0), 100, &mut pool).unwrap();
        let mut rx = RlcRx::new();
        let mut released = Vec::new();
        rx.receive_into(t(1), p.clone(), &mut released, &mut pool);
        assert_eq!(released.len(), 1);
        rx.receive_into(t(2), p, &mut released, &mut pool);
        assert_eq!(released.len(), 1);
    }

    proptest! {
        /// Under arbitrary PDU sizes, losses and retransmission delays,
        /// the receiver releases every SDU exactly once, in order.
        #[test]
        fn prop_in_order_exactly_once(
            sizes in proptest::collection::vec(1u32..3000, 1..40),
            grant in 50u32..2000,
            lose_mask in proptest::collection::vec(any::<bool>(), 0..200),
        ) {
            let mut tx = RlcTx::new();
            let mut pool = SegmentPool::default();
            for (i, &s) in sizes.iter().enumerate() {
                tx.enqueue(Sdu { id: i as u64, size_bytes: s });
            }
            let mut rx = RlcRx::new();
            let mut released = Vec::new();
            let mut delivered: Vec<u64> = Vec::new();
            let mut now_ms = 0u64;
            let mut loses = lose_mask.iter().copied().chain(std::iter::repeat(false));
            // Drain: lost PDUs are re-scheduled 100 ms later; time advances 1 ms per PDU.
            let mut guard = 0;
            loop {
                guard += 1;
                prop_assert!(guard < 100_000, "drain did not terminate");
                now_ms += 1;
                match tx.build_pdu_pooled(t(now_ms), grant, &mut pool) {
                    Some(pdu) => {
                        if loses.next().unwrap() && !pdu.is_retx {
                            tx.schedule_retx(t(now_ms + 100), pdu);
                        } else {
                            rx.receive_into(t(now_ms), pdu, &mut released, &mut pool);
                            delivered.extend(released.drain(..).map(|d| d.sdu_id));
                        }
                    }
                    None => {
                        if tx.buffer_bytes() == 0 { break; }
                        // Otherwise a retx is pending but not yet due; jump ahead.
                        now_ms += 100;
                    }
                }
            }
            let expected: Vec<u64> = (0..sizes.len() as u64).collect();
            prop_assert_eq!(delivered, expected);
        }
    }
}
