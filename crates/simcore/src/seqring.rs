//! A map keyed by dense sequence numbers, stored as a ring of slots.
//!
//! The simulators keep several per-packet maps whose keys are sequence
//! numbers the program assigns itself and releases roughly in order: a
//! sender's unacknowledged transport sequence numbers, RLC's held PDUs,
//! the jitter buffers' frames and audio packets, and the session engine's
//! in-flight packets. [`SeqRing`] stores such a map as a [`VecDeque`] of
//! slots indexed by `seq − base`: a lookup is one subtraction, an insert at
//! the newest end is one push, and a removal that empties the oldest slot
//! trims every empty slot off the front. Nothing is hashed or allocated per
//! entry, and iteration is in ascending key order.
//!
//! Memory is proportional to the span between the oldest and the newest
//! key held, not to the number of entries, so use it only for keys that
//! stay dense: an entry that is never removed keeps every later slot
//! alive.

use std::collections::VecDeque;

/// A map from `u64` sequence numbers to values, stored as a ring of slots
/// indexed by `seq − base`.
///
/// Invariant: the ring is empty, or its front slot is occupied and holds
/// the smallest key, `base`.
#[derive(Debug, Clone)]
pub struct SeqRing<T> {
    base: u64,
    slots: VecDeque<Option<T>>,
}

impl<T> Default for SeqRing<T> {
    fn default() -> Self {
        Self::new()
    }
}

impl<T> SeqRing<T> {
    /// An empty ring; it allocates on the first insert.
    pub fn new() -> Self {
        SeqRing {
            base: 0,
            slots: VecDeque::new(),
        }
    }

    /// Slots the ring can hold without reallocating (retained storage, in
    /// elements).
    pub fn capacity(&self) -> usize {
        self.slots.capacity()
    }

    /// The slot index of `seq`, if it lies inside the ring.
    fn slot(&self, seq: u64) -> Option<usize> {
        let at = usize::try_from(seq.checked_sub(self.base)?).ok()?;
        (at < self.slots.len()).then_some(at)
    }

    /// The value stored under `seq`.
    pub fn get(&self, seq: u64) -> Option<&T> {
        self.slots[self.slot(seq)?].as_ref()
    }

    /// The value stored under `seq`, mutably.
    pub fn get_mut(&mut self, seq: u64) -> Option<&mut T> {
        let at = self.slot(seq)?;
        self.slots[at].as_mut()
    }

    /// The entry with the smallest key.
    pub fn first(&self) -> Option<(u64, &T)> {
        let value = self.slots.front()?.as_ref();
        debug_assert!(value.is_some(), "the front slot is occupied");
        value.map(|v| (self.base, v))
    }

    /// Stores `value` under `seq`, returning the value it replaces. A key
    /// below the oldest one grows the ring at the front; a key past the
    /// newest one grows it at the back, with empty slots for the gap.
    pub fn insert(&mut self, seq: u64, value: T) -> Option<T> {
        if self.slots.is_empty() {
            self.base = seq;
        } else if seq < self.base {
            for _ in seq..self.base {
                self.slots.push_front(None);
            }
            self.base = seq;
        }
        let at = usize::try_from(seq - self.base).expect("sequence span fits in memory");
        if at >= self.slots.len() {
            self.slots.resize_with(at + 1, || None);
        }
        self.slots[at].replace(value)
    }

    /// Removes and returns the value stored under `seq`. Emptying the
    /// oldest slot trims every empty slot off the front.
    pub fn remove(&mut self, seq: u64) -> Option<T> {
        let at = self.slot(seq)?;
        let value = self.slots[at].take()?;
        if at == 0 {
            while matches!(self.slots.front(), Some(None)) {
                self.slots.pop_front();
                self.base += 1;
            }
        }
        Some(value)
    }

    /// Entries in ascending key order.
    pub fn iter(&self) -> impl Iterator<Item = (u64, &T)> + '_ {
        let base = self.base;
        self.slots
            .iter()
            .enumerate()
            .filter_map(move |(i, slot)| slot.as_ref().map(|v| (base + i as u64, v)))
    }

    /// Removes every entry but keeps the allocation.
    pub fn clear(&mut self) {
        self.slots.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use std::collections::BTreeMap;

    #[test]
    fn dense_inserts_and_in_order_removes_keep_the_ring_short() {
        let mut ring = SeqRing::new();
        for seq in 100..110u64 {
            assert_eq!(ring.insert(seq, seq * 2), None);
        }
        assert_eq!(ring.remove(100), Some(200));
        assert_eq!(ring.slots.len(), 9);
        // A hole in the middle stays until the front reaches it.
        assert_eq!(ring.remove(102), Some(204));
        assert_eq!(ring.slots.len(), 9);
        assert_eq!(ring.remove(101), Some(202));
        assert_eq!((ring.base, ring.slots.len()), (103, 7));
        let keys: Vec<u64> = ring.iter().map(|(k, _)| k).collect();
        assert_eq!(keys, (103..110).collect::<Vec<_>>());
    }

    #[test]
    fn insert_below_base_grows_the_front() {
        let mut ring = SeqRing::new();
        ring.insert(50, 'c');
        ring.insert(47, 'a');
        assert_eq!((ring.base, ring.slots.len()), (47, 4));
        assert_eq!(ring.get(47), Some(&'a'));
        assert_eq!(ring.get(48), None);
        assert_eq!(ring.iter().collect::<Vec<_>>(), [(47, &'a'), (50, &'c')]);
        assert_eq!(ring.remove(47), Some('a'));
        assert_eq!((ring.base, ring.slots.len()), (50, 1));
    }

    #[test]
    fn clear_keeps_capacity_and_rebases_on_reuse() {
        let mut ring = SeqRing::new();
        for seq in 0..64u64 {
            ring.insert(seq, ());
        }
        let cap = ring.capacity();
        ring.clear();
        assert_eq!(ring.first(), None);
        assert_eq!(ring.capacity(), cap);
        ring.insert(1_000_000, ());
        assert_eq!((ring.base, ring.slots.len()), (1_000_000, 1));
        assert_eq!(ring.capacity(), cap);
    }

    /// Keys near a moving cursor: mostly the next few sequence numbers,
    /// sometimes a gap ahead or a key behind the oldest one held.
    fn key(cursor: u64, op: u8, offset: u64) -> u64 {
        match op % 4 {
            0 | 1 => cursor + offset % 4,
            2 => cursor + offset % 64,
            _ => cursor.saturating_sub(offset % 24),
        }
    }

    proptest! {
        /// Random runs of inserts (dense, gapped, below the oldest key and
        /// duplicates that return the old value), removes (held, absent and
        /// far-off keys), `get`, `get_mut` and `clear` with reuse: after every
        /// step the ring and a `BTreeMap` agree on the result, on `first` and
        /// on the ascending iteration, and the ring never holds an empty
        /// front slot.
        #[test]
        fn seq_ring_matches_btree_oracle(
            start in 0u64..1_000,
            steps in proptest::collection::vec((0u8..16, 0u64..1_000, 0u32..1_000), 1..400),
        ) {
            let mut ring: SeqRing<u32> = SeqRing::new();
            let mut oracle: BTreeMap<u64, u32> = BTreeMap::new();
            let mut cursor = start + 24;
            for (i, &(op, offset, value)) in steps.iter().enumerate() {
                let seq = key(cursor, op, offset);
                match op {
                    0..=5 => {
                        prop_assert_eq!(ring.insert(seq, value), oracle.insert(seq, value), "step {}", i);
                        cursor = cursor.max(seq + 1);
                    }
                    6..=9 => {
                        // Mostly the oldest held key, as the simulators do.
                        let seq = match oracle.keys().next() {
                            Some(&first) if op < 8 => first,
                            _ => seq,
                        };
                        prop_assert_eq!(ring.remove(seq), oracle.remove(&seq), "step {}", i);
                    }
                    10 | 11 => prop_assert_eq!(ring.get(seq), oracle.get(&seq), "step {}", i),
                    12 | 13 => {
                        let got = ring.get_mut(seq).map(|v| {
                            *v ^= value;
                            *v
                        });
                        let want = oracle.get_mut(&seq).map(|v| {
                            *v ^= value;
                            *v
                        });
                        prop_assert_eq!(got, want, "step {}", i);
                    }
                    14 => {
                        prop_assert_eq!(ring.remove(u64::MAX - offset), None);
                        prop_assert_eq!(ring.get(seq + 1_000_000), None);
                    }
                    _ => {
                        if offset % 8 == 0 {
                            ring.clear();
                            oracle.clear();
                            cursor += offset;
                        }
                    }
                }
                prop_assert!(
                    ring.iter().map(|(k, &v)| (k, v)).eq(oracle.iter().map(|(&k, &v)| (k, v))),
                    "step {}: iteration differs",
                    i
                );
                prop_assert!(!matches!(ring.slots.front(), Some(None)), "step {}", i);
                prop_assert_eq!(ring.first(), oracle.iter().next().map(|(&k, v)| (k, v)), "step {}", i);
            }
        }
    }
}
