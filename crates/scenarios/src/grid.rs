//! Session specifications and the sweep grids built from them.
//!
//! A [`SessionSpec`] describes every session, solo or swept: it is plain
//! data — cell (or baseline access), workload, scripted impairments as
//! [`ScriptAction`]s, and a [`SessionConfig`] — and it is also the entry
//! point that runs the session. A grid can be built once, cloned,
//! partitioned across threads in any order, and every session still runs
//! identically, with every scripted cause readable from its spec. Seeds
//! come from [`simcore::derive_seed`], keyed by `(master, index)` in build
//! order: appending sessions to the end of a grid never perturbs the ones
//! already in it (inserting or reordering earlier axes shifts indices and
//! therefore seeds).

use simcore::{derive_seed, SimDuration, SimTime};
use telemetry::{Direction, Lateness, TapChaosSpec, TraceBundle};

use ran_sim::{CellConfig, CellSim};

use crate::cells::all_cells;
use crate::session::{drive, AppSpec, BaselineAccess, SessionArena, SessionConfig, SessionState};

/// Which access network a session runs over.
#[derive(Debug, Clone)]
pub enum AccessSpec {
    /// A 5G cell (boxed: `CellConfig` dwarfs the baseline variant).
    Cell(Box<CellConfig>),
    /// A wired/Wi-Fi baseline.
    Baseline(BaselineAccess),
}

/// A scripted impairment, as data (mirrors the `CellSim::script_*` hooks so
/// specs stay `Clone + Send` for the parallel sweep).
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum ScriptAction {
    /// Force the SINR of a direction during a window.
    Sinr {
        /// Affected direction.
        dir: Direction,
        /// Window start.
        from: SimTime,
        /// Window end.
        to: SimTime,
        /// Forced SINR in dB.
        sinr_db: f64,
    },
    /// Force cross-traffic PRB load during a window.
    CrossTraffic {
        /// Affected direction.
        dir: Direction,
        /// Window start.
        from: SimTime,
        /// Window end.
        to: SimTime,
        /// Fraction of PRBs taken by other UEs.
        prb_fraction: f64,
    },
    /// Force HARQ attempts below an index to fail during a window.
    HarqFailures {
        /// Affected direction.
        dir: Direction,
        /// Window start.
        from: SimTime,
        /// Window end.
        to: SimTime,
        /// Attempts with index below this fail.
        fail_attempts: u8,
    },
    /// Force an RRC release.
    RrcRelease {
        /// Release instant.
        at: SimTime,
    },
}

impl ScriptAction {
    /// Applies this action to a cell simulator before the call starts.
    pub fn apply(&self, cell: &mut CellSim) {
        match *self {
            ScriptAction::Sinr {
                dir,
                from,
                to,
                sinr_db,
            } => cell.script_sinr(dir, from, to, sinr_db),
            ScriptAction::CrossTraffic {
                dir,
                from,
                to,
                prb_fraction,
            } => cell.script_cross_traffic(dir, from, to, prb_fraction),
            ScriptAction::HarqFailures {
                dir,
                from,
                to,
                fail_attempts,
            } => cell.script_harq_failures(dir, from, to, fail_attempts),
            ScriptAction::RrcRelease { at } => cell.script_rrc_release(at),
        }
    }
}

/// One fully specified session, and the one way to run it.
///
/// ```
/// use scenarios::{cells, ScriptAction, SessionConfig, SessionSpec};
/// use simcore::{SimDuration, SimTime};
/// use telemetry::Direction;
///
/// let cfg = SessionConfig {
///     duration: SimDuration::from_secs(2),
///     ..Default::default()
/// };
/// let spec = SessionSpec::cell(cells::amarisoft(), cfg).with_script(ScriptAction::Sinr {
///     dir: Direction::Uplink,
///     from: SimTime::from_secs(1),
///     to: SimTime::from_millis(1500),
///     sinr_db: -2.0,
/// });
/// let bundle = spec.run();
/// assert!(!bundle.packets.is_empty());
/// ```
///
/// [`Self::run_with_tap`] streams telemetry at emission time,
/// [`Self::run_with_tap_in`] reuses a caller-owned [`SessionArena`], and
/// [`Self::start_in`] hands a driver the steppable [`SessionState`]. No tap
/// or arena perturbs the simulation: every way of running a spec gives a
/// byte-identical bundle unless a tap stops the session early.
#[derive(Debug, Clone)]
pub struct SessionSpec {
    /// Label for reports (defaults to the cell/baseline name).
    pub label: String,
    /// Access network.
    pub access: AccessSpec,
    /// Application workload (RTC call or ABR stream) riding the access.
    pub app: AppSpec,
    /// Scripted impairments (applied to cells; ignored for baselines).
    pub scripts: Vec<ScriptAction>,
    /// Session configuration, including the derived seed.
    pub cfg: SessionConfig,
    /// Telemetry-chaos plan for live-tap consumers (`None` = clean
    /// telemetry). The session engine itself ignores this: it is honoured
    /// by drivers that wrap the tap (the sweep engine, chaos tests).
    pub chaos: Option<TapChaosSpec>,
    /// Per-spec watermark lateness override for live-tap consumers
    /// (`None` = the sweep's configured default).
    pub lateness: Option<Lateness>,
}

impl SessionSpec {
    /// A cell session spec with no scripts.
    pub fn cell(cell: CellConfig, cfg: SessionConfig) -> Self {
        SessionSpec {
            label: cell.name.clone(),
            access: AccessSpec::Cell(Box::new(cell)),
            app: AppSpec::Rtc,
            scripts: Vec::new(),
            cfg,
            chaos: None,
            lateness: None,
        }
    }

    /// A baseline session spec.
    pub fn baseline(access: BaselineAccess, cfg: SessionConfig) -> Self {
        let label = match access {
            BaselineAccess::Wired => "Wired baseline",
            BaselineAccess::Wifi => "Wi-Fi baseline",
        };
        SessionSpec {
            label: label.to_string(),
            access: AccessSpec::Baseline(access),
            app: AppSpec::Rtc,
            scripts: Vec::new(),
            cfg,
            chaos: None,
            lateness: None,
        }
    }

    /// Switches the session to the QUIC/ABR streaming workload.
    pub fn abr(mut self, cfg: abr_sim::AbrConfig) -> Self {
        self.app = AppSpec::Abr(cfg);
        self
    }

    /// Adds a scripted impairment. A cell applies its scripts in the order
    /// they were added, before the call starts; a baseline ignores them.
    pub fn with_script(mut self, action: ScriptAction) -> Self {
        self.scripts.push(action);
        self
    }

    /// Sets the telemetry-chaos plan for live-tap consumers.
    pub fn with_chaos(mut self, chaos: TapChaosSpec) -> Self {
        self.chaos = Some(chaos);
        self
    }

    /// Replaces the label.
    pub fn labelled(mut self, label: impl Into<String>) -> Self {
        self.label = label.into();
        self
    }

    /// Runs the session, producing its trace bundle.
    pub fn run(&self) -> TraceBundle {
        self.run_with_tap(&mut telemetry::NullTap)
    }

    /// Runs the session while streaming telemetry into `tap` at emission
    /// time (see [`telemetry::LiveTap`]). The returned bundle matches
    /// [`Self::run`] unless the tap aborts the session early.
    pub fn run_with_tap(&self, tap: &mut dyn telemetry::LiveTap) -> TraceBundle {
        self.run_with_tap_in(tap, &mut SessionArena::new())
    }

    /// Starts the session in steppable form (see [`SessionState`]): the
    /// multiplexing entry point. `tapped` mirrors `LiveTap::is_active` for
    /// the tap the driver will pass to the step methods; per-session
    /// sub-state (the in-flight ring, the bundle) is leased from `arena` and
    /// returned at `finish`.
    pub fn start_in(&self, tapped: bool, arena: &mut SessionArena) -> SessionState {
        match &self.access {
            AccessSpec::Cell(cell) => SessionState::start_cell(
                (**cell).clone(),
                &self.app,
                &self.cfg,
                &self.scripts,
                tapped,
                arena,
            ),
            AccessSpec::Baseline(access) => {
                SessionState::start_baseline(*access, &self.app, &self.cfg, tapped, arena)
            }
        }
    }

    /// [`Self::run_with_tap`] inside a caller-owned [`SessionArena`],
    /// reusing its buffers: the mode sweep workers use. A warm arena and a
    /// fresh one give byte-identical bundles.
    pub fn run_with_tap_in(
        &self,
        tap: &mut dyn telemetry::LiveTap,
        arena: &mut SessionArena,
    ) -> TraceBundle {
        drive(self.start_in(tap.is_active(), arena), tap, arena)
    }
}

/// Builder for grids of sessions: cells × durations × scenario axes × seeds.
#[derive(Debug, Clone)]
pub struct SessionGrid {
    cells: Vec<CellConfig>,
    durations: Vec<SimDuration>,
    axes: Vec<crate::axis::ScenarioAxis>,
    master_seed: u64,
    sessions_per_point: usize,
}

impl Default for SessionGrid {
    fn default() -> Self {
        Self::new()
    }
}

impl SessionGrid {
    /// An empty grid with the default session configuration.
    pub fn new() -> Self {
        SessionGrid {
            cells: Vec::new(),
            durations: vec![SessionConfig::default().duration],
            axes: Vec::new(),
            master_seed: 0,
            sessions_per_point: 1,
        }
    }

    /// Sets the cells to sweep.
    pub fn cells(mut self, cells: impl IntoIterator<Item = CellConfig>) -> Self {
        self.cells = cells.into_iter().collect();
        self
    }

    /// Sets the session durations to sweep.
    pub fn durations(mut self, durations: impl IntoIterator<Item = SimDuration>) -> Self {
        self.durations = durations.into_iter().collect();
        self
    }

    /// Appends a [`ScenarioAxis`](crate::axis::ScenarioAxis): the grid
    /// product gains one dimension per axis (the last added varies fastest,
    /// just before repetitions). Each spec gets every active point's patches
    /// applied in axis order and a `name=label` segment in its label.
    pub fn axis(mut self, axis: crate::axis::ScenarioAxis) -> Self {
        self.axes.push(axis);
        self
    }

    /// Sets the master seed; per-session seeds derive from it.
    pub fn master_seed(mut self, seed: u64) -> Self {
        self.master_seed = seed;
        self
    }

    /// Number of seed repetitions per (cell, duration) point.
    pub fn sessions_per_point(mut self, n: usize) -> Self {
        self.sessions_per_point = n.max(1);
        self
    }

    /// Materialises the grid in deterministic order: cell-major, then
    /// duration, then axis points (row-major, last axis fastest), then
    /// repetition. Seeds derive from `(master_seed, build index)`: appending
    /// **cells** (the outermost dimension) extends the spec list without
    /// perturbing existing sessions, but growing an inner dimension
    /// (durations, axes, repetitions) shifts later build indices and
    /// therefore reseeds them.
    pub fn build(&self) -> Vec<SessionSpec> {
        let combos: usize = self.axes.iter().map(|a| a.len().max(1)).product();
        let mut specs = Vec::new();
        for cell in &self.cells {
            for &duration in &self.durations {
                for combo in 0..combos {
                    for rep in 0..self.sessions_per_point {
                        let index = specs.len() as u64;
                        let cfg = SessionConfig {
                            duration,
                            seed: derive_seed(self.master_seed, index),
                            ..SessionConfig::default()
                        };
                        let mut label = format!("{} / {:.0}s", cell.name, duration.as_secs_f64());
                        let mut spec = SessionSpec::cell(cell.clone(), cfg);
                        // Decompose the combo index right-to-left so the
                        // last axis varies fastest.
                        let mut indices = vec![0usize; self.axes.len()];
                        let mut rem = combo;
                        for (k, axis) in self.axes.iter().enumerate().rev() {
                            let n = axis.len().max(1);
                            indices[k] = rem % n;
                            rem /= n;
                        }
                        for (axis, &idx) in self.axes.iter().zip(&indices) {
                            if axis.is_empty() {
                                continue;
                            }
                            let point = &axis.points[idx];
                            crate::axis::apply_patches(&mut spec, &point.patches);
                            label.push_str(&format!(" / {}={}", axis.name, point.label));
                        }
                        label.push_str(&format!(" / rep{rep}"));
                        specs.push(spec.labelled(label));
                    }
                }
            }
        }
        specs
    }
}

/// The standard four-cell grid of Table 1, one session per cell.
pub fn all_cells_grid(master_seed: u64, duration: SimDuration) -> Vec<SessionSpec> {
    SessionGrid::new()
        .cells(all_cells())
        .durations([duration])
        .master_seed(master_seed)
        .build()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn grid_is_deterministic_and_covers_product() {
        let g = SessionGrid::new()
            .cells(all_cells())
            .durations([SimDuration::from_secs(30), SimDuration::from_secs(60)])
            .sessions_per_point(3)
            .master_seed(7);
        let a = g.build();
        let b = g.build();
        assert_eq!(a.len(), 4 * 2 * 3);
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(x.cfg.seed, y.cfg.seed);
            assert_eq!(x.label, y.label);
        }
        // All seeds distinct.
        let mut seeds: Vec<u64> = a.iter().map(|s| s.cfg.seed).collect();
        seeds.sort_unstable();
        seeds.dedup();
        assert_eq!(seeds.len(), a.len());
    }

    #[test]
    fn grid_axes_multiply_the_product_with_stable_seeds() {
        use crate::axis::{AxisPatch, ScenarioAxis};
        let plain = SessionGrid::new()
            .cells([crate::cells::mosolabs()])
            .durations([SimDuration::from_secs(20)])
            .master_seed(13);
        let with_axis = plain.clone().axis(ScenarioAxis::toggle(
            "grants",
            "on",
            "off",
            vec![],
            vec![AxisPatch::ProactiveGrant(None)],
        ));
        let a = with_axis.build();
        assert_eq!(a.len(), 2);
        assert_eq!(a[0].label, "Mosolabs / 20s / grants=on / rep0");
        assert_eq!(a[1].label, "Mosolabs / 20s / grants=off / rep0");
        // Seeds key off the build index, exactly like the plain grid.
        let p = plain.build();
        assert_eq!(a[0].cfg.seed, p[0].cfg.seed);
        assert_eq!(a[1].cfg.seed, derive_seed(13, 1));
        // The axis patch landed.
        let cell = |s: &SessionSpec| match &s.access {
            AccessSpec::Cell(c) => c.mac.proactive_grant.is_some(),
            AccessSpec::Baseline(_) => panic!("cell expected"),
        };
        assert!(cell(&a[0]));
        assert!(!cell(&a[1]));
    }

    #[test]
    fn baseline_spec_runs() {
        let cfg = SessionConfig {
            duration: SimDuration::from_secs(5),
            seed: 1,
            ..Default::default()
        };
        let b = SessionSpec::baseline(BaselineAccess::Wired, cfg).run();
        assert!(b.dci.is_empty());
        assert!(!b.packets.is_empty());
    }
}
