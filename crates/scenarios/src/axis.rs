//! Declarative scenario axes: parameter sweeps over [`CellConfig`] /
//! [`SessionSpec`] fields, as data.
//!
//! The experiment harness used to build ablation variants by hand — clone a
//! cell, flip a field, repeat. A [`ScenarioAxis`] expresses the same sweep
//! declaratively: a named list of [`AxisPoint`]s, each a label plus the
//! [`AxisPatch`]es that turn the base session into that variant. Axes can be
//! expanded against a single base spec ([`ScenarioAxis::expand`]) for paired
//! A/B comparisons, crossed with other axes ([`expand_product`]), or handed
//! to [`SessionGrid::axis`](crate::grid::SessionGrid::axis) so the grid
//! builder multiplies them into the cells × durations × repetitions product
//! with stable derived seeds.
//!
//! Seeds are governed by [`SeedPolicy`]: `Shared` keeps the base seed on
//! every point (ablation A/B runs, where variants must differ *only* in the
//! patched field), `Sequential` numbers points from a base seed (the
//! longitudinal per-cell harness), and `Derived` uses
//! [`simcore::derive_seed`] keyed by expansion index like the grid builder.

use std::fmt::Display;

use abr_sim::LadderRung;
use ran_sim::{CellConfig, CrossTrafficConfig, ProactiveGrantConfig, TrafficUeConfig};
use simcore::{derive_seed, SimDuration};

use crate::grid::{AccessSpec, ScriptAction, SessionSpec};
use crate::session::AppSpec;

/// One field edit applied to a [`SessionSpec`] during axis expansion.
///
/// Cell-level patches (everything except [`AxisPatch::Duration`] and
/// [`AxisPatch::Script`]) apply to [`AccessSpec::Cell`] sessions and are
/// ignored for baseline (wired/Wi-Fi) specs, which have no cell to edit.
#[derive(Debug, Clone)]
pub enum AxisPatch {
    /// Replace the whole access cell (and the spec label with its name).
    Cell(Box<CellConfig>),
    /// Session duration.
    Duration(SimDuration),
    /// `mac.max_harq_attempts`.
    MaxHarqAttempts(u8),
    /// `mac.proactive_grant` (`None` = BSR-only scheduling).
    ProactiveGrant(Option<ProactiveGrantConfig>),
    /// `mac.mcs_cap_ul`.
    McsCapUl(u8),
    /// `mac.margin_db_ul`.
    MarginDbUl(f64),
    /// `mac.olla_step_db`.
    OllaStepDb(f64),
    /// `ul_channel.base_sinr_db`.
    UlSinrDb(f64),
    /// `dl_channel.base_sinr_db`.
    DlSinrDb(f64),
    /// Uplink cross-traffic process.
    UlCross(CrossTrafficConfig),
    /// Downlink cross-traffic process.
    DlCross(CrossTrafficConfig),
    /// `rrc.random_release_every` (`None` = standard-conforming cell).
    RrcReleaseEvery(Option<SimDuration>),
    /// Replace the cell's scripted-UE population (`traffic_ues`) — the UE
    ///-count × traffic-mix axes of shared-cell sweeps.
    TrafficUes(Vec<TrafficUeConfig>),
    /// Append a scripted impairment.
    Script(ScriptAction),
    /// ABR `segment_duration` (applies to [`AppSpec::Abr`] specs only;
    /// ignored for RTC sessions, which have no playback pipeline).
    AbrSegmentDuration(SimDuration),
    /// ABR encoding ladder (ascending bitrate).
    AbrLadder(Vec<LadderRung>),
    /// ABR playback `buffer_target`.
    AbrBufferTarget(SimDuration),
    /// Telemetry-chaos plan for live-tap consumers (`None` = clean
    /// telemetry) — the degraded-telemetry axis of resilience sweeps.
    TapChaos(Option<telemetry::TapChaosSpec>),
    /// Live watermark lateness override (applies to any access).
    Lateness(telemetry::Lateness),
}

impl AxisPatch {
    /// Applies this patch to a spec.
    pub fn apply(&self, spec: &mut SessionSpec) {
        match self {
            AxisPatch::Cell(cell) => {
                spec.label = cell.name.clone();
                spec.access = AccessSpec::Cell(cell.clone());
            }
            AxisPatch::Duration(d) => spec.cfg.duration = *d,
            AxisPatch::Script(a) => spec.scripts.push(*a),
            AxisPatch::AbrSegmentDuration(d) => {
                let AppSpec::Abr(abr) = &mut spec.app else {
                    return; // RTC sessions have no playback pipeline
                };
                abr.segment_duration = *d;
            }
            AxisPatch::AbrLadder(ladder) => {
                let AppSpec::Abr(abr) = &mut spec.app else {
                    return;
                };
                abr.ladder = ladder.clone();
            }
            AxisPatch::AbrBufferTarget(t) => {
                let AppSpec::Abr(abr) = &mut spec.app else {
                    return;
                };
                abr.buffer_target = *t;
            }
            AxisPatch::TapChaos(chaos) => spec.chaos = chaos.clone(),
            AxisPatch::Lateness(l) => spec.lateness = Some(*l),
            _ => {
                let AccessSpec::Cell(cell) = &mut spec.access else {
                    return; // baseline access has no cell to patch
                };
                match self {
                    AxisPatch::MaxHarqAttempts(n) => cell.mac.max_harq_attempts = *n,
                    AxisPatch::ProactiveGrant(g) => cell.mac.proactive_grant = g.clone(),
                    AxisPatch::McsCapUl(m) => cell.mac.mcs_cap_ul = *m,
                    AxisPatch::MarginDbUl(db) => cell.mac.margin_db_ul = *db,
                    AxisPatch::OllaStepDb(db) => cell.mac.olla_step_db = *db,
                    AxisPatch::UlSinrDb(db) => cell.ul_channel.base_sinr_db = *db,
                    AxisPatch::DlSinrDb(db) => cell.dl_channel.base_sinr_db = *db,
                    AxisPatch::UlCross(c) => cell.ul_cross = c.clone(),
                    AxisPatch::DlCross(c) => cell.dl_cross = c.clone(),
                    AxisPatch::RrcReleaseEvery(e) => cell.rrc.random_release_every = *e,
                    AxisPatch::TrafficUes(ues) => cell.traffic_ues = ues.clone(),
                    AxisPatch::Cell(_)
                    | AxisPatch::Duration(_)
                    | AxisPatch::Script(_)
                    | AxisPatch::AbrSegmentDuration(_)
                    | AxisPatch::AbrLadder(_)
                    | AxisPatch::AbrBufferTarget(_)
                    | AxisPatch::TapChaos(_)
                    | AxisPatch::Lateness(_) => {
                        unreachable!("handled above")
                    }
                }
            }
        }
    }
}

/// Applies a patch list to a spec in order.
pub fn apply_patches(spec: &mut SessionSpec, patches: &[AxisPatch]) {
    for p in patches {
        p.apply(spec);
    }
}

/// One point on an axis: a label and the patches that realise it.
#[derive(Debug, Clone)]
pub struct AxisPoint {
    /// Point label (becomes the spec label on [`ScenarioAxis::expand`], or
    /// a `name=label` suffix in grid expansion).
    pub label: String,
    /// Field edits, applied in order.
    pub patches: Vec<AxisPatch>,
}

/// How expanded specs get their seeds.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SeedPolicy {
    /// Every point keeps the base spec's seed: variants differ only in the
    /// patched fields (paired A/B ablations).
    Shared,
    /// Point `i` gets seed `base + i` (the longitudinal harness numbering).
    Sequential(u64),
    /// Point `i` gets `derive_seed(master, i)` like the grid builder.
    Derived(u64),
}

impl SeedPolicy {
    fn seed(&self, base: u64, index: usize) -> u64 {
        match *self {
            SeedPolicy::Shared => base,
            SeedPolicy::Sequential(start) => start + index as u64,
            SeedPolicy::Derived(master) => derive_seed(master, index as u64),
        }
    }
}

/// A named, ordered set of scenario variants.
#[derive(Debug, Clone)]
pub struct ScenarioAxis {
    /// Axis name, used in grid labels (`name=point`).
    pub name: String,
    /// The points, in sweep order.
    pub points: Vec<AxisPoint>,
}

impl ScenarioAxis {
    /// An empty axis.
    pub fn new(name: impl Into<String>) -> Self {
        ScenarioAxis {
            name: name.into(),
            points: Vec::new(),
        }
    }

    /// Appends one point.
    pub fn point(mut self, label: impl Into<String>, patches: Vec<AxisPatch>) -> Self {
        self.points.push(AxisPoint {
            label: label.into(),
            patches,
        });
        self
    }

    /// A value sweep: one point per value, labelled by `Display`, patched by
    /// `patch(value)`.
    pub fn values<T, I, F>(name: impl Into<String>, values: I, patch: F) -> Self
    where
        T: Display,
        I: IntoIterator<Item = T>,
        F: Fn(&T) -> Vec<AxisPatch>,
    {
        let mut axis = ScenarioAxis::new(name);
        for v in values {
            let patches = patch(&v);
            axis.points.push(AxisPoint {
                label: v.to_string(),
                patches,
            });
        }
        axis
    }

    /// A two-point toggle (on first, matching the hand-built ablations).
    pub fn toggle(
        name: impl Into<String>,
        on_label: impl Into<String>,
        off_label: impl Into<String>,
        on: Vec<AxisPatch>,
        off: Vec<AxisPatch>,
    ) -> Self {
        ScenarioAxis::new(name)
            .point(on_label, on)
            .point(off_label, off)
    }

    /// A cell sweep: one point per cell, labelled by cell name.
    pub fn cells(name: impl Into<String>, cells: impl IntoIterator<Item = CellConfig>) -> Self {
        let mut axis = ScenarioAxis::new(name);
        for cell in cells {
            axis.points.push(AxisPoint {
                label: cell.name.clone(),
                patches: vec![AxisPatch::Cell(Box::new(cell))],
            });
        }
        axis
    }

    /// Number of points.
    pub fn len(&self) -> usize {
        self.points.len()
    }

    /// Whether the axis has no points.
    pub fn is_empty(&self) -> bool {
        self.points.is_empty()
    }

    /// Expands the axis against a base spec: one spec per point, patched in
    /// point order, labelled with the point label, seeded per `seeds`.
    pub fn expand(&self, base: &SessionSpec, seeds: SeedPolicy) -> Vec<SessionSpec> {
        self.points
            .iter()
            .enumerate()
            .map(|(i, point)| {
                let mut spec = base.clone();
                apply_patches(&mut spec, &point.patches);
                if !point.label.is_empty() {
                    spec.label = point.label.clone();
                }
                spec.cfg.seed = seeds.seed(base.cfg.seed, i);
                spec
            })
            .collect()
    }
}

/// Expands the cross product of several axes against a base spec, row-major
/// (the last axis varies fastest). Labels join the point labels with
/// `" / "`; seeds follow `seeds` over the flattened product index.
pub fn expand_product(
    base: &SessionSpec,
    axes: &[ScenarioAxis],
    seeds: SeedPolicy,
) -> Vec<SessionSpec> {
    let total: usize = axes.iter().map(|a| a.len().max(1)).product();
    let mut specs = Vec::with_capacity(total);
    for flat in 0..total {
        let mut spec = base.clone();
        let mut labels: Vec<&str> = Vec::with_capacity(axes.len());
        let mut rem = flat;
        // Decompose the flat index right-to-left so the last axis is fastest.
        let mut indices = vec![0usize; axes.len()];
        for (k, axis) in axes.iter().enumerate().rev() {
            let n = axis.len().max(1);
            indices[k] = rem % n;
            rem /= n;
        }
        for (axis, &idx) in axes.iter().zip(&indices) {
            if axis.is_empty() {
                continue;
            }
            let point = &axis.points[idx];
            apply_patches(&mut spec, &point.patches);
            if !point.label.is_empty() {
                labels.push(&point.label);
            }
        }
        if !labels.is_empty() {
            spec.label = labels.join(" / ");
        }
        spec.cfg.seed = seeds.seed(base.cfg.seed, flat);
        specs.push(spec);
    }
    specs
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cells::{all_cells, amarisoft, mosolabs};
    use crate::session::SessionConfig;

    fn base(seed: u64) -> SessionSpec {
        let cfg = SessionConfig {
            duration: SimDuration::from_secs(10),
            seed,
            ..Default::default()
        };
        SessionSpec::cell(mosolabs(), cfg)
    }

    fn cell_of(spec: &SessionSpec) -> &CellConfig {
        match &spec.access {
            AccessSpec::Cell(c) => c,
            AccessSpec::Baseline(_) => panic!("expected cell access"),
        }
    }

    #[test]
    fn toggle_expands_to_paired_variants() {
        let axis = ScenarioAxis::toggle(
            "grants",
            "proactive",
            "bsr-only",
            vec![],
            vec![AxisPatch::ProactiveGrant(None)],
        );
        let specs = axis.expand(&base(7), SeedPolicy::Shared);
        assert_eq!(specs.len(), 2);
        assert_eq!(specs[0].label, "proactive");
        assert_eq!(specs[1].label, "bsr-only");
        assert!(cell_of(&specs[0]).mac.proactive_grant.is_some());
        assert!(cell_of(&specs[1]).mac.proactive_grant.is_none());
        // Shared seeds: the variants differ only in the patched field.
        assert_eq!(specs[0].cfg.seed, 7);
        assert_eq!(specs[1].cfg.seed, 7);
    }

    #[test]
    fn values_axis_sweeps_a_field() {
        let axis = ScenarioAxis::values("attempts", [1u8, 2, 4, 6], |&a| {
            vec![AxisPatch::MaxHarqAttempts(a)]
        });
        let specs = axis.expand(&base(3), SeedPolicy::Shared);
        assert_eq!(specs.len(), 4);
        assert_eq!(specs[2].label, "4");
        let attempts: Vec<u8> = specs
            .iter()
            .map(|s| cell_of(s).mac.max_harq_attempts)
            .collect();
        assert_eq!(attempts, vec![1, 2, 4, 6]);
    }

    #[test]
    fn cells_axis_with_sequential_seeds_matches_hand_numbering() {
        let axis = ScenarioAxis::cells("cell", all_cells());
        let specs = axis.expand(&base(0), SeedPolicy::Sequential(3000));
        assert_eq!(specs.len(), 4);
        for (i, (spec, cell)) in specs.iter().zip(all_cells()).enumerate() {
            assert_eq!(spec.label, cell.name);
            assert_eq!(cell_of(spec).name, cell.name);
            assert_eq!(spec.cfg.seed, 3000 + i as u64);
        }
    }

    #[test]
    fn product_expansion_is_row_major_and_patches_compose() {
        let cells = ScenarioAxis::cells("cell", vec![mosolabs(), amarisoft()]);
        let harq = ScenarioAxis::values("attempts", [2u8, 4], |&a| {
            vec![AxisPatch::MaxHarqAttempts(a)]
        });
        let specs = expand_product(&base(11), &[cells, harq], SeedPolicy::Derived(11));
        assert_eq!(specs.len(), 4);
        // Last axis fastest: (moso,2), (moso,4), (amari,2), (amari,4).
        assert_eq!(specs[0].label, "Mosolabs / 2");
        assert_eq!(specs[1].label, "Mosolabs / 4");
        assert_eq!(specs[2].label, "Amarisoft / 2");
        assert_eq!(specs[3].label, "Amarisoft / 4");
        assert_eq!(cell_of(&specs[3]).mac.max_harq_attempts, 4);
        assert_eq!(cell_of(&specs[3]).name, "Amarisoft");
        // Cell replacement happens before the field patch, so the patch
        // lands on the replaced cell.
        assert_eq!(cell_of(&specs[2]).mac.max_harq_attempts, 2);
        // Derived seeds are distinct and reproducible.
        assert_eq!(specs[0].cfg.seed, derive_seed(11, 0));
        assert_eq!(specs[3].cfg.seed, derive_seed(11, 3));
        let mut seeds: Vec<u64> = specs.iter().map(|s| s.cfg.seed).collect();
        seeds.sort_unstable();
        seeds.dedup();
        assert_eq!(seeds.len(), 4);
    }

    #[test]
    fn cell_patches_ignore_baseline_specs() {
        let cfg = SessionConfig {
            duration: SimDuration::from_secs(5),
            seed: 2,
            ..Default::default()
        };
        let b = SessionSpec::baseline(crate::session::BaselineAccess::Wired, cfg);
        let axis = ScenarioAxis::values("sinr", [5.0f64], |&db| vec![AxisPatch::UlSinrDb(db)]);
        let specs = axis.expand(&b, SeedPolicy::Shared);
        assert_eq!(specs.len(), 1);
        assert!(matches!(specs[0].access, AccessSpec::Baseline(_)));
        // The same patch lands on a cell spec.
        let specs = axis.expand(&base(1), SeedPolicy::Shared);
        assert_eq!(cell_of(&specs[0]).ul_channel.base_sinr_db, 5.0);
    }

    #[test]
    fn script_and_duration_patches_apply_to_any_access() {
        let axis = ScenarioAxis::new("scripted").point(
            "burst",
            vec![
                AxisPatch::Duration(SimDuration::from_secs(20)),
                AxisPatch::Script(ScriptAction::RrcRelease {
                    at: simcore::SimTime::from_secs(5),
                }),
            ],
        );
        let specs = axis.expand(&base(4), SeedPolicy::Shared);
        assert_eq!(specs[0].cfg.duration, SimDuration::from_secs(20));
        assert_eq!(specs[0].scripts.len(), 1);
    }
}
