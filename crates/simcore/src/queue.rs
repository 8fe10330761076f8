//! The deterministic event queue.
//!
//! [`EventQueue`] pops events in strict `(time, key, sequence)` order, where
//! the sequence is assigned at scheduling time, so same-instant events pop in
//! insertion order. This is the property that makes whole-session
//! simulations replay byte-identically from a seed: a bare [`BinaryHeap`]
//! gives no stable order for ties.
//!
//! The `key` is an optional secondary order component between the timestamp
//! and the tie-break sequence, defaulting to `()` (in which case the
//! contract degenerates to the classic `(time, sequence)` order). A
//! multiplexing driver uses it to tag events with a session id
//! ([`EventQueue::schedule_keyed`]): N interleaved sessions share one queue,
//! and the global pop order `(time, session, seq)` restricted to any one
//! session is exactly the `(time, seq)` order that session would observe
//! from a private queue — the contract `prop_tagged_pop_matches_private_queues`
//! below enforces.
//!
//! The queue is a calendar (bucket) queue in the ns-3 tradition: time is
//! tiled into fixed-width buckets arranged in a ring, events land in their
//! bucket in `O(1)`, and the pop cursor sweeps the ring in time order,
//! sorting one small bucket at a time. Far-future events sit in a sorted
//! overflow tier until the ring window reaches them. The session engine's
//! workload is near-monotonic (schedule a few milliseconds ahead, pop every
//! tick), which suits cache-friendly bucket pushes. The pop sequence is
//! exactly that of a binary heap ordered by `(time, key, sequence)`; a
//! property test below checks it against such a heap.

use std::cmp::Ordering;
use std::collections::BinaryHeap;

use crate::time::SimTime;

/// An event of type `E` scheduled for a particular instant, optionally
/// tagged with a secondary order key `K` (session id for multiplexed
/// queues; `()` for plain single-session queues).
#[derive(Debug, Clone)]
pub struct Scheduled<E, K = ()> {
    /// When the event fires.
    pub at: SimTime,
    /// Secondary order key, compared between `at` and the tie-break
    /// sequence. `()` for untagged queues.
    pub key: K,
    seq: u64,
    /// The event payload.
    pub event: E,
}

impl<E, K: Ord> PartialEq for Scheduled<E, K> {
    fn eq(&self, other: &Self) -> bool {
        self.at == other.at && self.key == other.key && self.seq == other.seq
    }
}
impl<E, K: Ord> Eq for Scheduled<E, K> {}

impl<E, K: Ord> PartialOrd for Scheduled<E, K> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl<E, K: Ord> Ord for Scheduled<E, K> {
    // Reversed: BinaryHeap is a max-heap, we want earliest-first.
    fn cmp(&self, other: &Self) -> Ordering {
        other
            .at
            .cmp(&self.at)
            .then_with(|| other.key.cmp(&self.key))
            .then_with(|| other.seq.cmp(&self.seq))
    }
}

/// Log2 of the default calendar bucket width in µs (1024 µs ≈ one engine
/// tick / one 15 kHz slot).
const DEFAULT_BUCKET_SHIFT: u32 = 10;
/// Default ring size (buckets); must be a power of two. With the default
/// width the ring covers ≈ 262 ms — comfortably past the in-flight horizon
/// of a two-party call, so overflow migration is rare.
const DEFAULT_RING_BUCKETS: usize = 256;

/// A deterministic min-queue of timestamped events on calendar buckets
/// (see the [module docs](self)).
///
/// The second type parameter is the secondary order key; it defaults to
/// `()`, in which case [`EventQueue::schedule`] and the classic
/// `(time, seq)` contract apply unchanged. Multiplexed drivers instantiate
/// e.g. `EventQueue<RouteEvent, u64>` and tag every event with its session
/// via [`EventQueue::schedule_keyed`].
///
/// ```
/// use simcore::{EventQueue, SimTime};
///
/// let mut q = EventQueue::calendar();
/// q.schedule(SimTime::from_millis(2), "b");
/// q.schedule(SimTime::from_millis(1), "a");
/// q.schedule(SimTime::from_millis(2), "c");
/// let order: Vec<_> = std::iter::from_fn(|| q.pop()).map(|s| s.event).collect();
/// assert_eq!(order, vec!["a", "b", "c"]); // FIFO among equal times
/// ```
///
/// Geometry: bucket width `1 << shift` µs, a power-of-two ring of buckets
/// covering `[base, base + ring)` in absolute bucket indices, and a binary
/// heap holding everything beyond the ring window. The pop cursor drains the
/// `base` bucket (sorted on first touch, descending so pops come off the
/// tail) and advances; events scheduled behind the cursor are clamped into
/// the base bucket, which preserves the heap contract — pop returns the
/// minimum `(time, key, seq)` among *currently pending* events, not a
/// globally sorted sequence.
#[derive(Debug, Clone)]
pub struct EventQueue<E, K = ()> {
    buckets: Vec<Vec<Scheduled<E, K>>>,
    /// Absolute index of the bucket the cursor currently drains.
    base: u64,
    shift: u32,
    mask: u64,
    /// Events stored in the ring (excludes overflow).
    ring_len: usize,
    /// Whether the base bucket is sorted (descending) and pop-ready.
    base_sorted: bool,
    overflow: BinaryHeap<Scheduled<E, K>>,
    next_seq: u64,
    len: usize,
}

impl<E, K: Ord + Copy> Default for EventQueue<E, K> {
    fn default() -> Self {
        Self::calendar_keyed()
    }
}

impl<E> EventQueue<E> {
    /// Creates an empty untagged queue with the default geometry (1 ms
    /// buckets, 256-bucket ring).
    pub fn calendar() -> Self {
        Self::calendar_keyed()
    }

    /// Schedules `event` to fire at `at`. Untagged queues only — keyed
    /// queues must say which session an event belongs to
    /// ([`EventQueue::schedule_keyed`]), so a shared multiplexed queue
    /// cannot silently tag an event with a default session id.
    pub fn schedule(&mut self, at: SimTime, event: E) {
        self.schedule_keyed(at, (), event);
    }
}

impl<E, K: Ord + Copy> EventQueue<E, K> {
    /// Creates an empty keyed queue with the default geometry — the queue a
    /// multiplexed session driver shares across its interleaved sessions.
    /// (Separate from [`EventQueue::calendar`] so `K` stays inferable for
    /// the untagged common case.)
    pub fn calendar_keyed() -> Self {
        Self::calendar_keyed_with_geometry(DEFAULT_BUCKET_SHIFT, DEFAULT_RING_BUCKETS)
    }

    /// Creates an empty keyed queue with `1 << shift` µs buckets and a ring
    /// of `ring_buckets` (rounded up to a power of two, minimum 2).
    pub(crate) fn calendar_keyed_with_geometry(shift: u32, ring_buckets: usize) -> Self {
        let n = ring_buckets.next_power_of_two().max(2);
        let mut buckets = Vec::with_capacity(n);
        buckets.resize_with(n, Vec::new);
        EventQueue {
            buckets,
            base: 0,
            shift,
            mask: n as u64 - 1,
            ring_len: 0,
            base_sorted: false,
            overflow: BinaryHeap::new(),
            next_seq: 0,
            len: 0,
        }
    }

    fn abs_bucket(&self, at: SimTime) -> u64 {
        at.as_micros() >> self.shift
    }

    fn ring_size(&self) -> u64 {
        self.mask + 1
    }

    /// Drops all pending events but keeps every allocation; the tie-break
    /// sequence restarts, so a cleared queue replays identically to a fresh
    /// one.
    pub fn clear(&mut self) {
        for b in &mut self.buckets {
            b.clear();
        }
        self.base = 0;
        self.ring_len = 0;
        self.base_sorted = false;
        self.overflow.clear();
        self.next_seq = 0;
        self.len = 0;
    }

    /// Schedules `event` to fire at `at`, tagged with the secondary order
    /// key `key` (e.g. a session id in a multiplexed queue).
    pub fn schedule_keyed(&mut self, at: SimTime, key: K, event: E) {
        let seq = self.next_seq;
        self.next_seq += 1;
        self.push_scheduled(Scheduled {
            at,
            key,
            seq,
            event,
        });
    }

    fn push_scheduled(&mut self, s: Scheduled<E, K>) {
        self.len += 1;
        let ab = self.abs_bucket(s.at);
        if ab >= self.base + self.ring_size() {
            self.overflow.push(s);
            return;
        }
        // Late events (behind the cursor) clamp into the base bucket: they
        // must pop before anything still pending, and the within-bucket sort
        // key is the full `(at, seq)`, so ordering stays exact.
        let ab = ab.max(self.base);
        let idx = (ab & self.mask) as usize;
        if ab == self.base && self.base_sorted {
            // The base bucket is mid-drain: keep it descending-sorted.
            let b = &mut self.buckets[idx];
            let key = (s.at, s.key, s.seq);
            let pos = b.partition_point(|x| (x.at, x.key, x.seq) > key);
            b.insert(pos, s);
        } else {
            self.buckets[idx].push(s);
        }
        self.ring_len += 1;
    }

    /// Advances the cursor to the bucket holding the earliest pending event
    /// and sorts it. After this, if `len > 0`, the base bucket is non-empty,
    /// sorted descending, and its tail is the global minimum.
    fn settle(&mut self) {
        if self.len == 0 {
            return;
        }
        if self.ring_len == 0 {
            // Ring empty: jump the window to the overflow head.
            let head_at = self.overflow.peek().expect("len > 0").at;
            self.base = self.abs_bucket(head_at);
            self.base_sorted = false;
            self.migrate_overflow();
        }
        while self.buckets[(self.base & self.mask) as usize].is_empty() {
            self.base += 1;
            self.base_sorted = false;
            self.migrate_overflow();
            if self.ring_len == 0 {
                // Everything between here and the overflow head is empty.
                let head_at = self.overflow.peek().expect("ring empty, len > 0").at;
                self.base = self.abs_bucket(head_at);
                self.migrate_overflow();
            }
        }
        if !self.base_sorted {
            let b = &mut self.buckets[(self.base & self.mask) as usize];
            // Keys are unique (seq strictly increases), so unstable is safe.
            b.sort_unstable_by_key(|s| std::cmp::Reverse((s.at, s.key, s.seq)));
            self.base_sorted = true;
        }
    }

    /// Moves overflow events that now fall inside the ring window into it.
    fn migrate_overflow(&mut self) {
        let horizon = self.base + self.ring_size();
        while self
            .overflow
            .peek()
            .is_some_and(|s| self.abs_bucket(s.at) < horizon)
        {
            let s = self.overflow.pop().expect("peeked");
            let ab = self.abs_bucket(s.at);
            debug_assert!(ab >= self.base);
            self.buckets[(ab & self.mask) as usize].push(s);
            self.ring_len += 1;
            if ab == self.base {
                self.base_sorted = false;
            }
        }
    }

    /// Removes and returns the earliest event, or `None` if empty.
    pub fn pop(&mut self) -> Option<Scheduled<E, K>> {
        if self.len == 0 {
            return None;
        }
        self.settle();
        let b = &mut self.buckets[(self.base & self.mask) as usize];
        let s = b.pop().expect("settle leaves base bucket non-empty");
        self.ring_len -= 1;
        self.len -= 1;
        Some(s)
    }

    /// Pops the earliest event only if it fires at or before `now`.
    pub fn pop_due(&mut self, now: SimTime) -> Option<Scheduled<E, K>> {
        if self.len == 0 {
            return None;
        }
        self.settle();
        let b = &mut self.buckets[(self.base & self.mask) as usize];
        if b.last().expect("non-empty after settle").at <= now {
            self.ring_len -= 1;
            self.len -= 1;
            b.pop()
        } else {
            None
        }
    }

    /// Time of the earliest pending event.
    ///
    /// Takes `&self`, so it cannot advance the cursor: the ring is scanned
    /// from the cursor position (`O(ring + bucket)` worst case). Hot loops
    /// should prefer [`Self::pop_due`], which settles first and then reads
    /// the sorted bucket tail in `O(1)`.
    pub fn peek_time(&self) -> Option<SimTime> {
        if self.len == 0 {
            return None;
        }
        if self.ring_len == 0 {
            return self.overflow.peek().map(|s| s.at);
        }
        let mut ab = self.base;
        loop {
            let b = &self.buckets[(ab & self.mask) as usize];
            if !b.is_empty() {
                return b.iter().map(|s| s.at).min();
            }
            ab += 1;
        }
    }

    /// Number of pending events.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether no events are pending.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Total retained storage (events) across buckets and overflow —
    /// capacity, not occupancy. Arena-reuse regression tests watch this.
    pub fn capacity(&self) -> usize {
        self.buckets.iter().map(Vec::capacity).sum::<usize>() + self.overflow.capacity()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// The reference the calendar must match: a binary heap ordered by
    /// `(time, key, seq)`, exactly as `Scheduled`'s `Ord` defines it.
    struct HeapOracle<E> {
        heap: BinaryHeap<Scheduled<E>>,
        next_seq: u64,
    }

    impl<E> HeapOracle<E> {
        fn new() -> Self {
            HeapOracle {
                heap: BinaryHeap::new(),
                next_seq: 0,
            }
        }

        fn schedule(&mut self, at: SimTime, event: E) {
            let seq = self.next_seq;
            self.next_seq += 1;
            self.heap.push(Scheduled {
                at,
                key: (),
                seq,
                event,
            });
        }

        fn pop(&mut self) -> Option<Scheduled<E>> {
            self.heap.pop()
        }
    }

    /// An untagged queue with `1 << shift` µs buckets and `ring` of them.
    fn small<E>(shift: u32, ring: usize) -> EventQueue<E> {
        EventQueue::calendar_keyed_with_geometry(shift, ring)
    }

    /// The default geometry and a tiny ring that forces overflow churn.
    fn geometries<E>() -> [EventQueue<E>; 2] {
        [EventQueue::calendar(), small(6, 4)]
    }

    #[test]
    fn pops_in_time_order() {
        for mut q in geometries() {
            q.schedule(SimTime::from_millis(30), 3);
            q.schedule(SimTime::from_millis(10), 1);
            q.schedule(SimTime::from_millis(20), 2);
            assert_eq!(q.len(), 3);
            assert_eq!(q.pop().unwrap().event, 1);
            assert_eq!(q.pop().unwrap().event, 2);
            assert_eq!(q.pop().unwrap().event, 3);
            assert!(q.pop().is_none());
        }
    }

    #[test]
    fn fifo_among_ties() {
        for mut q in geometries() {
            for i in 0..100 {
                q.schedule(SimTime::from_millis(7), i);
            }
            for i in 0..100 {
                assert_eq!(q.pop().unwrap().event, i);
            }
        }
    }

    #[test]
    fn pop_due_respects_now() {
        for mut q in geometries() {
            q.schedule(SimTime::from_millis(5), "early");
            q.schedule(SimTime::from_millis(15), "late");
            assert_eq!(q.pop_due(SimTime::from_millis(10)).unwrap().event, "early");
            assert!(q.pop_due(SimTime::from_millis(10)).is_none());
            assert_eq!(q.pop_due(SimTime::from_millis(20)).unwrap().event, "late");
        }
    }

    #[test]
    fn clear_keeps_capacity_and_resets_ties() {
        for mut q in geometries() {
            for i in 0..10 {
                q.schedule(SimTime::from_millis(1), i);
            }
            let capacity = q.capacity();
            q.clear();
            assert!(q.is_empty());
            assert_eq!(q.capacity(), capacity);
            // After clear, tie order restarts from scratch like a fresh queue.
            q.schedule(SimTime::from_millis(2), 100);
            q.schedule(SimTime::from_millis(2), 200);
            assert_eq!(q.pop().unwrap().event, 100);
            assert_eq!(q.pop().unwrap().event, 200);
        }
    }

    #[test]
    fn peek_time_matches_pop() {
        for mut q in geometries::<()>() {
            assert!(q.peek_time().is_none());
            q.schedule(SimTime::from_millis(9), ());
            assert_eq!(q.peek_time(), Some(SimTime::from_millis(9)));
        }
    }

    #[test]
    fn calendar_handles_far_future_overflow_and_late_inserts() {
        // Tiny ring (4 buckets × 1.024 ms) to force overflow migration.
        let mut q = small(10, 4);
        q.schedule(SimTime::from_millis(500), 500); // deep overflow
        q.schedule(SimTime::from_millis(1), 1);
        q.schedule(SimTime::from_millis(100), 100); // overflow
        assert_eq!(q.pop().unwrap().event, 1);
        // Behind-the-cursor insert after draining t=1: must pop immediately.
        q.schedule(SimTime::from_micros(500), 0);
        assert_eq!(q.pop().unwrap().event, 0);
        assert_eq!(q.pop().unwrap().event, 100);
        assert_eq!(q.pop().unwrap().event, 500);
        assert!(q.pop().is_none());
    }

    proptest! {
        /// Popping everything always yields a non-decreasing time sequence,
        /// and among equal times the original insertion order — at the
        /// default geometry and on a tiny ring.
        #[test]
        fn prop_pop_order(times in proptest::collection::vec(0u64..1000, 1..200)) {
            for mut q in [EventQueue::calendar(), small(6, 8)] {
                for (i, &t) in times.iter().enumerate() {
                    q.schedule(SimTime::from_micros(t), i);
                }
                let mut last: Option<(SimTime, usize)> = None;
                while let Some(s) = q.pop() {
                    if let Some((lt, li)) = last {
                        prop_assert!(s.at >= lt);
                        if s.at == lt {
                            prop_assert!(s.event > li, "FIFO violated among ties");
                        }
                    }
                    last = Some((s.at, s.event));
                }
            }
        }

        /// Tie-order equivalence with the heap oracle: an arbitrary
        /// interleaving of schedules and pops produces identical `(time,
        /// seq, payload)` sequences — the contract every determinism suite
        /// rests on. Times include far-future outliers (overflow tier) and
        /// behind-the-cursor values (clamped inserts).
        #[test]
        fn prop_heap_calendar_equivalence(
            ops in proptest::collection::vec((0u64..50_000, proptest::any::<bool>()), 1..300),
        ) {
            let mut heap = HeapOracle::new();
            let mut cal = small(8, 8);
            for (payload, &(t, pop_after)) in ops.iter().enumerate() {
                heap.schedule(SimTime::from_micros(t), payload);
                cal.schedule(SimTime::from_micros(t), payload);
                if pop_after {
                    let a = heap.pop();
                    let b = cal.pop();
                    match (a, b) {
                        (Some(x), Some(y)) => {
                            prop_assert_eq!(x.at, y.at);
                            prop_assert_eq!(x.event, y.event);
                        }
                        (None, None) => {}
                        _ => prop_assert!(false, "one queue emptied early"),
                    }
                }
            }
            prop_assert_eq!(heap.heap.len(), cal.len());
            loop {
                match (heap.pop(), cal.pop()) {
                    (Some(x), Some(y)) => {
                        prop_assert_eq!(x.at, y.at);
                        prop_assert_eq!(x.event, y.event);
                    }
                    (None, None) => break,
                    _ => prop_assert!(false, "length mismatch while draining"),
                }
            }
        }

        /// The multiplexing contract: N sessions interleave schedules into
        /// ONE tagged calendar queue (key = session id) while each session
        /// mirrors its schedules into a private untagged queue. Drained by
        /// increasing `pop_due` deadlines (the multiplexed driver's global
        /// tick loop), the shared stream demultiplexed by tag must observe
        /// exactly the `(time, payload)` sequence each private queue pops —
        /// and the global stream itself must be sorted by `(time, session)`
        /// within a deadline batch. Times include far-future outliers
        /// (overflow tier) and a tiny ring to force bucket churn.
        #[test]
        fn prop_tagged_pop_matches_private_queues(
            ops in proptest::collection::vec((0u64..4, 0u64..50_000), 1..300),
        ) {
            const SESSIONS: usize = 4;
            let mut shared: EventQueue<usize, u64> =
                EventQueue::calendar_keyed_with_geometry(8, 8);
            let mut private: Vec<EventQueue<usize>> =
                (0..SESSIONS).map(|_| small(8, 8)).collect();
            for (payload, &(session, t)) in ops.iter().enumerate() {
                shared.schedule_keyed(SimTime::from_micros(t), session, payload);
                private[session as usize].schedule(SimTime::from_micros(t), payload);
            }
            // Drain through the same pop_due cadence the mux driver uses.
            let mut demuxed: Vec<Vec<(SimTime, usize)>> = vec![Vec::new(); SESSIONS];
            let mut deadline = 0u64;
            while !shared.is_empty() {
                deadline += 1_000;
                let now = SimTime::from_micros(deadline);
                let mut prev: Option<(SimTime, u64)> = None;
                while let Some(s) = shared.pop_due(now) {
                    if let Some((pt, pk)) = prev {
                        prop_assert!(
                            (pt, pk) <= (s.at, s.key),
                            "global order violated: ({pt:?},{pk}) then ({:?},{})",
                            s.at, s.key
                        );
                    }
                    prev = Some((s.at, s.key));
                    demuxed[s.key as usize].push((s.at, s.event));
                }
            }
            for (k, q) in private.iter_mut().enumerate() {
                let solo: Vec<(SimTime, usize)> =
                    std::iter::from_fn(|| q.pop()).map(|s| (s.at, s.event)).collect();
                prop_assert_eq!(&demuxed[k], &solo, "session {} order diverged", k);
            }
        }
    }
}
