//! Physical-layer abstractions: MCS table, TBS determination, BLER model.

pub(crate) mod bler;
pub mod mcs;
pub mod tbs;

pub(crate) use bler::fail_probability;
pub use mcs::select_mcs;
pub(crate) use mcs::{OuterLoop, MAX_MCS};
pub(crate) use tbs::prbs_needed;
pub use tbs::tbs_bits;
