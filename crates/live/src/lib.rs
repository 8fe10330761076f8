//! # domino-live — online, in-session root-cause diagnosis
//!
//! The streaming analyzer in `domino-core` analyses a *completed*
//! [`telemetry::TraceBundle`]. This crate diagnoses the call **while it is
//! running**: the [`LivePipeline`] implements [`telemetry::LiveTap`], plugs
//! into the session engine's emission-time hooks
//! (`scenarios::SessionSpec::run_with_tap`), and produces incremental
//! [`LiveVerdict`]s with bounded memory — the online spine the ROADMAP's
//! operator-scale diagnoser needs (one pipeline per watched call, millions
//! of concurrent calls).
//!
//! Stages, in record order:
//!
//! 1. **Watermark reordering**. Telemetry does not
//!    arrive in timestamp order: gNB logs interleave RLC retransmissions
//!    (stamped with scheduled, *future* times) with same-slot buffer
//!    samples, and a packet's fate is only known at delivery. Every stream
//!    is buffered until the watermark — session time minus the configured
//!    [`LiveConfig::lateness`] bound — passes it, then released in exact
//!    `(timestamp, emission sequence)` order, which reproduces the stable
//!    sort order of the finished bundle bit for bit. Records that show up
//!    *behind* the released frontier are dropped and counted
//!    ([`LiveStats::late_records_dropped`]); packet deliveries that arrive
//!    after their record was frozen are counted as
//!    [`LiveStats::late_deliveries`].
//! 2. **Bounded in-flight staging and direct release**. A packet is staged
//!    from its send until its window closes, in a ring ordered by send id:
//!    a send appends, and a delivery patches its record at
//!    `id − oldest id` (a binary search over the ids when sends were
//!    dropped or ids arrive out of order). At each window close, the
//!    reorder buffers and the packet ring release their records straight
//!    into the [`domino_core::StreamingAnalyzer`]'s `push_*` methods, with
//!    no intermediate copy — so retained trace stays O(window + lateness),
//!    never O(session) ([`LiveStats::peak_retained_records`]).
//! 3. **Early-exit verdicts** ([`EarlyExit`]). Each closed window yields a
//!    [`LiveVerdict`]; a policy can stop the session once enough chains are
//!    confirmed or the verdict has been stable long enough, aborting the
//!    simulation itself through [`telemetry::LiveTap::should_stop`].
//!
//! Two resilience layers wrap the healthy-path stages:
//!
//! * **Degraded telemetry** ([`chaos`]). A [`ChaosTap`] sits between the
//!   engine and any [`telemetry::LiveTap`], injecting seeded, scripted
//!   faults — drops, duplicates, delays, clock skew, blackouts — from a
//!   [`telemetry::TapChaosSpec`], and keeps a [`TapFaultLog`] ground truth
//!   so every injected fault is accountable in the downstream stats.
//! * **Adaptive lateness & SLO verdicts** ([`estimator`]). A
//!   [`DelayEstimator`] tracks the observed per-record delay distribution;
//!   [`telemetry::Lateness::Adaptive`] derives the watermark bound from a
//!   target quantile of it, and [`EarlyExit::Slo`] caps verdict latency
//!   while bounding the implied late-drop risk. Every verdict carries a
//!   [`domino_core::detect::VerdictCoverage`] annotation saying how much
//!   telemetry it actually saw.
//!
//! **Equivalence contract:** with [`EarlyExit::Never`] and a static
//! lateness bound that covers the longest in-network packet delay (so no
//! late drops or late deliveries occur), [`LivePipeline::take_analysis`]
//! is bit-identical to [`domino_core::Domino::analyze`] over the same
//! session's bundle — enforced against the batch oracle by
//! `tests/live_equivalence.rs` at the workspace root and the unit tests
//! here. Like the streaming analyzer it builds on, the pipeline requires a
//! configuration that meets the [`domino_core::DominoConfig`] contract;
//! [`LivePipeline::new`] reports [`domino_core::UnsupportedConfig`]
//! otherwise.

pub mod chaos;
pub mod estimator;
pub mod pipeline;
pub mod pool;
pub(crate) mod reorder;

pub use chaos::{ChaosState, ChaosTap, TapFaultLog};
pub use estimator::DelayEstimator;
pub use pipeline::{EarlyExit, LiveConfig, LivePipeline, LiveStats, LiveVerdict};
pub use pool::{PipelinePool, PoolStats};

// Re-exported so callers configuring a pipeline need only this crate.
pub use domino_core::UnsupportedConfig;
