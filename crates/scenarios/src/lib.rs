//! # scenarios — testbed configurations and the session engine
//!
//! Reconstructs the paper's experimental setups:
//!
//! * [`cells`] — the four 5G cells of Table 1 as `ran-sim` configurations.
//! * [`grid`] — [`SessionSpec`], the one description of a session (access,
//!   workload, scripted impairments as [`ScriptAction`]s, config) and the
//!   entry point that runs it, plus the [`SessionGrid`] sweep builder.
//! * [`session`] — the two-party session engine (Fig. 7): UE client ↔
//!   access network ↔ core ↔ transit ↔ wired peer, with full cross-layer
//!   trace collection into a [`telemetry::TraceBundle`].
//! * [`shared`] — [`SharedCellDriver`]: several calls contending for one
//!   cell.
//! * `zoom_campus` — the synthetic stand-in for the proprietary campus
//!   Zoom QSS dataset (§2.2, Figs. 5–6): [`generate_campus_dataset`].
//! * [`axis`] — declarative [`ScenarioAxis`] parameter sweeps over
//!   cell/session fields, expanded standalone or by the grid builder.

pub mod axis;
pub mod cells;
pub mod grid;
pub mod session;
pub mod shared;
pub(crate) mod zoom_campus;

pub use axis::{apply_patches, expand_product, AxisPatch, AxisPoint, ScenarioAxis, SeedPolicy};
pub use cells::{
    all_cells, amarisoft, amarisoft_ideal, mosolabs, tmobile_fdd_15mhz, tmobile_fdd_15mhz_quiet,
    tmobile_tdd_100mhz,
};
pub use grid::{all_cells_grid, AccessSpec, ScriptAction, SessionGrid, SessionSpec};
pub use session::{
    AppSpec, BaselineAccess, EngineScratch, RouteEvent, RouteSink, SessionArena, SessionConfig,
    SessionState, SharedRouteQueue, TaggedSink,
};
pub use shared::SharedCellDriver;
pub use zoom_campus::{
    generate as generate_campus_dataset, AccessType, CampusDatasetSize, ZoomQosRecord,
};
