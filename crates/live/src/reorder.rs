//! The watermark reorder stage: a bounded buffer that turns records arriving
//! in emission order into records released in timestamp order.
//!
//! Records are keyed by `(timestamp, emission sequence)`; the sequence
//! tie-break makes the release order exactly the order a *stable* sort of
//! the emission sequence by timestamp would produce — which is how
//! [`telemetry::TraceBundle::sort`] orders a finished trace, so downstream
//! consumers see the same tie order as a batch analysis would.
//!
//! The buffer is a sorted ring: records arriving in order (the overwhelming
//! majority — only gNB retransmission logs run ahead of their neighbours)
//! append in O(1); an out-of-order record is inserted at its stable sorted
//! position, paying O(displacement). A record whose timestamp is behind the
//! released frontier violated the lateness bound the caller promised; it is
//! dropped and counted rather than inserted out of order (the alternative —
//! rewinding the analysis — would make memory unbounded).

use std::collections::VecDeque;

use simcore::SimTime;

/// Watermark reorder buffer for one telemetry stream.
#[derive(Debug, Clone, Default)]
pub(crate) struct Reorder<T> {
    buf: VecDeque<(SimTime, T)>,
    frontier: SimTime,
    late: usize,
    released: usize,
}

impl<T> Reorder<T> {
    /// An empty buffer with the frontier at the epoch.
    pub(crate) fn new() -> Self {
        Reorder {
            buf: VecDeque::new(),
            frontier: SimTime::ZERO,
            late: 0,
            released: 0,
        }
    }

    /// Buffers one record keyed by `ts`. Returns `false` — and drops the
    /// record, counting it as late — if `ts` is behind the released
    /// frontier.
    pub(crate) fn push(&mut self, ts: SimTime, record: T) -> bool {
        if ts < self.frontier {
            self.late += 1;
            return false;
        }
        if self.buf.back().is_none_or(|&(last, _)| last <= ts) {
            self.buf.push_back((ts, record));
        } else {
            // Out-of-order arrival: stable insert — after every record with
            // an equal or earlier timestamp.
            let at = self.buf.partition_point(|&(t, _)| t <= ts);
            self.buf.insert(at, (ts, record));
        }
        true
    }

    /// Releases every buffered record with `ts < t` to `sink`, in
    /// `(ts, emission sequence)` order, and advances the frontier to `t`.
    pub(crate) fn release_below(&mut self, t: SimTime, mut sink: impl FnMut(T)) {
        while let Some(&(ts, _)) = self.buf.front() {
            if ts >= t {
                break;
            }
            let (_, record) = self.buf.pop_front().expect("checked non-empty");
            self.released += 1;
            sink(record);
        }
        self.frontier = self.frontier.max(t);
    }

    /// Records currently buffered.
    pub(crate) fn len(&self) -> usize {
        self.buf.len()
    }

    /// Records dropped for arriving behind the frontier.
    pub(crate) fn late_count(&self) -> usize {
        self.late
    }

    /// Records released to a sink so far — with [`Self::len`] and
    /// [`Self::late_count`], gives the total ever pushed. Window-close
    /// deltas of this counter drive the live pipeline's per-window
    /// coverage (gap/blackout) annotations.
    pub(crate) fn released_count(&self) -> usize {
        self.released
    }

    /// Drops all state (retaining the allocation), returning the buffer to
    /// its post-`new` state.
    pub(crate) fn clear(&mut self) {
        self.buf.clear();
        self.frontier = SimTime::ZERO;
        self.late = 0;
        self.released = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(ms: u64) -> SimTime {
        SimTime::from_millis(ms)
    }

    #[test]
    fn releases_in_stable_timestamp_order() {
        let mut r = Reorder::new();
        // Emission order: future-stamped record first, then equal-ts pair.
        r.push(t(30), "a");
        r.push(t(10), "b");
        r.push(t(20), "c1");
        r.push(t(20), "c2");
        let mut out = Vec::new();
        r.release_below(t(25), |x| out.push(x));
        assert_eq!(out, ["b", "c1", "c2"]);
        assert_eq!(r.len(), 1);
        let mut rest = Vec::new();
        r.release_below(t(100), |x| rest.push(x));
        assert_eq!(rest, ["a"]);
        assert!(r.buf.is_empty());
    }

    #[test]
    fn stable_insert_lands_after_equal_timestamps() {
        let mut r = Reorder::new();
        r.push(t(10), "x1");
        r.push(t(20), "y");
        r.push(t(10), "x2"); // out of order, ties with x1
        let mut out = Vec::new();
        r.release_below(t(100), |x| out.push(x));
        assert_eq!(out, ["x1", "x2", "y"]);
    }

    #[test]
    fn late_records_are_dropped_and_counted() {
        let mut r = Reorder::new();
        r.push(t(10), 1);
        r.release_below(t(20), |_| {});
        assert!(!r.push(t(15), 2), "behind the frontier");
        assert!(r.push(t(20), 3), "exactly at the frontier is on time");
        assert_eq!(r.late_count(), 1);
        assert_eq!(r.len(), 1);
        assert_eq!(r.frontier, t(20));
    }

    #[test]
    fn frontier_never_regresses() {
        let mut r: Reorder<u8> = Reorder::new();
        r.release_below(t(50), |_| {});
        r.release_below(t(30), |_| {});
        assert_eq!(r.frontier, t(50));
    }
}
