//! # domino-core — automated, cross-layer causal-chain detection
//!
//! The paper's primary contribution: given cross-layer trace data
//! (a [`telemetry::TraceBundle`]), Domino detects WebRTC quality
//! degradations and traces each back to its 5G root cause.
//!
//! Pipeline (paper §4):
//!
//! 1. [`features`] — the 40-dimension event space (2×10 app events +
//!    6×2 directional 5G events + 4 singletons + 4 ABR playback events).
//! 2. [`stream`] — the 20 detection conditions of Table 5 / Appendix D
//!    (plus 4 ABR playback conditions), evaluated incrementally over a
//!    sliding window (W = 5 s, Δt = 0.5 s) by the [`StreamingAnalyzer`],
//!    the one analysis engine.
//! 3. [`graph`] — the user-reconfigurable causal DAG of Fig. 9
//!    (6 causes → delay intermediates → 3 consequences, 24 chains).
//! 4. [`dsl`] — the text configuration language (`a --> b --> c`,
//!    Fig. 11) with parse/emit round-tripping.
//! 5. [`detect`] — the detector: [`DominoConfig`] and its contract,
//!    checked once when a [`Domino`] is built, and the window results.
//! 6. `codegen` — [`compile`] of a graph into its chain table, the one
//!    chain evaluator every window runs, and Python and Rust source
//!    emission from the same table (Fig. 11).
//! 7. [`stats`] — occurrence frequencies (Fig. 10), conditional
//!    probabilities (Table 2), and chain ratios (Table 4).
//!
//! A hidden `oracle` module holds the batch reference the streaming
//! analyzer and its chain table are tested against: each window rescanned
//! from the bundle, and its chains found by the recursive backward trace.
//! Only tests call it.
//!
//! ```
//! use domino_core::{Domino, ChainStats};
//! # use telemetry::{TraceBundle, SessionMeta};
//! # use simcore::SimDuration;
//! let domino = Domino::with_defaults();
//! # let bundle = TraceBundle::new(SessionMeta::baseline("x", SimDuration::from_secs(10), 0));
//! let analysis = domino.analyze(&bundle);
//! let stats = ChainStats::compute(domino.graph(), &analysis);
//! println!("{}", domino_core::stats::render_conditional_table(domino.graph(), &stats));
//! ```

pub(crate) mod codegen;
pub mod detect;
pub mod dsl;
pub mod features;
pub mod graph;
#[doc(hidden)]
pub mod oracle;
pub mod stats;
pub mod stream;

pub use codegen::{compile, DetectionProgram};
pub use detect::{
    Analysis, ChainHit, Domino, DominoConfig, Thresholds, VerdictCoverage, WindowAnalysis,
};
pub use dsl::{abr_graph, default_graph, emit, parse, ParseError, ABR_CONFIG, DEFAULT_CONFIG};
pub use features::{AppEvent, ClientSide, Feature, FeatureVector, PlaybackEvent, RanEvent};
pub use graph::{CausalGraph, NodeId};
pub use stats::{
    render_chain_ratio_table, render_conditional_table, render_frequency_table, ChainStats,
};
pub use stream::{StreamingAnalyzer, UnsupportedConfig};
