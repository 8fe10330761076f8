//! # simcore — deterministic discrete-event simulation core
//!
//! The substrate every simulator crate in this workspace builds on:
//!
//! * [`SimTime`] / [`SimDuration`] — microsecond-resolution virtual clock types.
//! * [`EventQueue`] — a deterministic calendar queue of timestamped events
//!   (FIFO among equal timestamps, so identical inputs replay identically).
//! * [`rng_for`] — derivation of independent, reproducible RNG streams from a
//!   single session seed.
//! * [`dist`] — the handful of distributions the simulators need (normal,
//!   log-normal, exponential), implemented directly so the workspace carries no
//!   extra dependency.
//!
//! The design follows the smoltcp idiom: event-driven, poll-based, simple and
//! robust, no macro or type tricks. There is deliberately no async runtime —
//! the workload is CPU-bound deterministic simulation, which async executors
//! are explicitly not meant for.

pub mod alloc_count;
pub mod dist;
pub mod queue;
pub mod rng;
pub mod time;

pub use queue::{EventQueue, Scheduled};
pub use rng::{derive_seed, rng_for, splitmix64, RngStream};
pub use time::{SimDuration, SimTime};
