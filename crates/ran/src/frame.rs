//! 5G NR frame structure: slot timing and TDD/FDD slot patterns.
//!
//! TDD shares time slots between downlink and uplink; FDD uses separate
//! bands so every slot serves both directions (paper §5.2.1, Fig. 15).
//! Uplink latency depends directly on this structure: in TDD a UE must wait
//! for the next U slot, in FDD only for the grant pipeline.

use simcore::{SimDuration, SimTime};
use telemetry::{Direction, Duplexing};

/// Role of one slot in the TDD pattern.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum SlotKind {
    /// Downlink-only slot.
    Downlink,
    /// Uplink-only slot.
    Uplink,
    /// Special slot (DL symbols + guard + few UL symbols); treated as
    /// downlink-capable here.
    Special,
}

/// Slot-level frame structure of a cell.
#[derive(Debug, Clone)]
pub struct FrameStructure {
    /// FDD or TDD.
    pub duplexing: Duplexing,
    /// Slot duration (1 ms at 15 kHz SCS, 0.5 ms at 30 kHz).
    pub slot_duration: SimDuration,
    /// TDD pattern, e.g. "DDDSU"; ignored for FDD.
    pattern: Vec<SlotKind>,
}

impl FrameStructure {
    /// FDD structure with the given slot duration.
    pub fn fdd(slot_duration: SimDuration) -> Self {
        FrameStructure {
            duplexing: Duplexing::Fdd,
            slot_duration,
            pattern: Vec::new(),
        }
    }

    /// TDD structure from a pattern string of `D`/`S`/`U` characters.
    ///
    /// # Panics
    /// On an empty pattern or unknown characters.
    pub fn tdd(slot_duration: SimDuration, pattern: &str) -> Self {
        let pattern: Vec<SlotKind> = pattern
            .chars()
            .map(|c| match c {
                'D' => SlotKind::Downlink,
                'U' => SlotKind::Uplink,
                'S' => SlotKind::Special,
                other => panic!("unknown TDD pattern character {other:?}"),
            })
            .collect();
        assert!(!pattern.is_empty(), "empty TDD pattern");
        assert!(
            pattern.contains(&SlotKind::Uplink),
            "TDD pattern must contain at least one U slot"
        );
        FrameStructure {
            duplexing: Duplexing::Tdd,
            slot_duration,
            pattern,
        }
    }

    /// Start time of slot `idx`.
    pub(crate) fn slot_start(&self, idx: u64) -> SimTime {
        SimTime::ZERO + self.slot_duration * idx
    }

    /// Whether slot `idx` can carry traffic in `dir`.
    pub fn serves(&self, idx: u64, dir: Direction) -> bool {
        match self.duplexing {
            Duplexing::Fdd => true,
            Duplexing::Tdd => {
                let kind = self.pattern[(idx % self.pattern.len() as u64) as usize];
                match dir {
                    Direction::Uplink => kind == SlotKind::Uplink,
                    Direction::Downlink => kind == SlotKind::Downlink || kind == SlotKind::Special,
                }
            }
        }
    }

    /// First slot index ≥ `from` that serves `dir`.
    pub(crate) fn next_serving_slot(&self, from: u64, dir: Direction) -> u64 {
        match self.duplexing {
            Duplexing::Fdd => from,
            Duplexing::Tdd => {
                let len = self.pattern.len() as u64;
                (from..from + len)
                    .find(|&s| self.serves(s, dir))
                    .expect("pattern contains both D and U slots")
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fdd_serves_everything() {
        let f = FrameStructure::fdd(SimDuration::from_millis(1));
        assert!(f.serves(0, Direction::Uplink));
        assert!(f.serves(0, Direction::Downlink));
        assert_eq!(f.next_serving_slot(7, Direction::Uplink), 7);
    }

    #[test]
    fn tdd_dddsu_pattern() {
        let f = FrameStructure::tdd(SimDuration::from_micros(500), "DDDSU");
        // Slots 0,1,2 D; 3 S; 4 U; repeating.
        assert!(f.serves(0, Direction::Downlink));
        assert!(!f.serves(0, Direction::Uplink));
        assert!(f.serves(3, Direction::Downlink)); // special counts as DL
        assert!(f.serves(4, Direction::Uplink));
        assert!(f.serves(9, Direction::Uplink));
        assert_eq!(f.next_serving_slot(0, Direction::Uplink), 4);
        assert_eq!(f.next_serving_slot(5, Direction::Uplink), 9);
        assert_eq!(f.next_serving_slot(4, Direction::Uplink), 4);
    }

    #[test]
    fn slot_timing() {
        let f = FrameStructure::tdd(SimDuration::from_micros(500), "DDDSU");
        assert_eq!(f.slot_start(4), SimTime::from_millis(2));
    }

    #[test]
    #[should_panic(expected = "must contain at least one U slot")]
    fn all_dl_pattern_rejected() {
        let _ = FrameStructure::tdd(SimDuration::from_micros(500), "DDDD");
    }
}
