//! # ran-sim — a slot-accurate 5G RAN simulator
//!
//! Implements every Radio Access Network mechanism the paper traces VCA
//! quality degradation to:
//!
//! | Paper cause (§4.1, Fig. 9)   | Module |
//! |------------------------------|--------|
//! | Poor channel (§5.1.1)        | [`channel`] (SINR process) + [`phy`] (MCS/TBS) |
//! | Cross traffic (§5.1.2)       | [`CrossTraffic`] + scheduler in [`mac`] |
//! | UL scheduling delay (§5.2.1) | SR/BSR/grant pipeline in [`mac`], [`frame`] |
//! | HARQ ReTX (§5.2.2)           | HARQ processes in [`mac`], BLER in [`phy`] |
//! | RLC ReTX + HoL (§5.2.3)      | [`rlc`] acknowledged mode |
//! | RRC state transitions (§5.3) | [`rrc`] |
//!
//! The public entry point is [`CellSim`]: enqueue packets at the RAN edge,
//! `poll` the slot clock forward, drain in-order deliveries plus the two
//! telemetry taps the paper's measurement setup has (NR-Scope-style DCI
//! records for all cells; gNB-internal logs for private cells only).

pub mod cell;
pub mod channel;
pub(crate) mod crosstraffic;
pub mod frame;
pub mod mac;
pub mod phy;
pub mod rlc;
pub mod rrc;
pub mod ue;

pub use cell::{CellConfig, CellSim, Delivery};
pub use channel::{Channel, ChannelConfig};
pub use crosstraffic::{CrossTraffic, CrossTrafficConfig};
pub use frame::FrameStructure;
pub use mac::{MacConfig, ProactiveGrantConfig};
pub use rlc::Segment;
pub use rrc::{RrcConfig, RrcMachine, RrcTransition};
pub use ue::{traffic_mix, CellUeTable, TrafficPattern, TrafficUeConfig, TRAFFIC_RNTI_BASE};
