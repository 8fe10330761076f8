//! # telemetry — cross-layer trace records and time-series utilities
//!
//! The paper's measurement pipeline correlates four telemetry sources:
//!
//! 1. **5G PHY/MAC scheduling** — per-transport-block DCI decodes (NR-Scope),
//!    here [`DciRecord`].
//! 2. **gNB logs** — RLC buffer/retransmission and RRC state events, available
//!    only on the private cells, here [`GnbLogRecord`].
//! 3. **Packet traces** — per-packet send/receive timestamps at both clients,
//!    here [`PacketRecord`].
//! 4. **Instrumented WebRTC stats** at 50 ms granularity including GCC
//!    internals, here [`AppStatsRecord`].
//!
//! A complete two-party session's worth of all four sources is a
//! [`TraceBundle`], the interchange format between the simulators
//! (`ran-sim`, `rtc-sim`, `scenarios`) and the Domino detector
//! (`domino-core`). The [`series`] module provides the CDF/quantile helpers
//! the benchmark harness uses to print paper-shaped figures.

pub mod bundle;
pub mod csv;
pub mod degrade;
pub(crate) mod livetap;
pub mod records;
pub mod series;

pub use bundle::{SessionMeta, StreamSlices, TraceBundle, TraceCursor};
pub use degrade::{Lateness, TapChaosSpec, TapFault, TapStream};
pub use livetap::{LiveTap, NullTap};
pub use records::{
    AppStatsRecord, CellClass, DciRecord, Direction, Duplexing, GccNetworkState, GnbEvent,
    GnbLogRecord, PacketRecord, PlaybackStatsRecord, Resolution, RrcState, StreamKind,
};
pub use series::{Cdf, CDF_GRID};
