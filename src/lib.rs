//! Facade crate re-exporting the full Domino workspace API.
pub use abr_sim as abr;
pub use domino_core as core;
pub use domino_live as live;
pub use domino_obs as obs;
pub use domino_sweep as sweep;
pub use netpath;
pub use ran_sim as ran;
pub use rtc_sim as rtc;
pub use scenarios;
pub use simcore;
pub use telemetry;

// One-stop entry points, so binaries and examples don't have to reach into
// submodules for the common run-a-sweep / run-a-session path.
pub use domino_core::Domino;
pub use domino_sweep::{
    run_sweep, run_sweep_with_progress, AnalysisMode, EarlyExit, ExecutionMode, Lateness,
    LiveConfig, ObsConfig, SweepOptions, SweepReport, TapChaosSpec, TapFault, TapStream,
};
pub use scenarios::{SessionGrid, SessionSpec};
