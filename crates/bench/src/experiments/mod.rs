//! Experiment implementations, grouped by paper section.

pub mod ablations;
pub mod consequences;
pub mod domino_eval;
pub mod longitudinal;
pub mod mechanisms;
pub(crate) mod motivation;
