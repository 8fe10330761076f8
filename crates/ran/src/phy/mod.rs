//! Physical-layer abstractions: MCS table, TBS determination, BLER model.

pub(crate) mod bler;
pub mod mcs;
pub mod tbs;

pub use bler::fail_probability;
pub use mcs::{select_mcs, OuterLoop, MAX_MCS};
pub use tbs::{prbs_needed, tbs_bits};
