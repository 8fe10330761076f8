//! The session grids each workload runs, built from the benchmark's seed.
//!
//! Every grid is plain data ([`SessionSpec`]s): the seed picks each
//! session's channel, traffic and fault randomness through the grid
//! builders' derived per-spec seeds, and nothing else about the grid.

use abr_sim::AbrConfig;
use ran_sim::{traffic_mix, CellConfig};
use scenarios::{
    all_cells, amarisoft, expand_product, mosolabs, AxisPatch, ScenarioAxis, ScriptAction,
    SeedPolicy, SessionConfig, SessionGrid, SessionSpec,
};
use simcore::{SimDuration, SimTime};
use telemetry::{Direction, Lateness, TapChaosSpec, TapFault, TapStream};

/// Simulated length of every call and stream: long enough for GCC to leave
/// its start-up ramp, so per-second costs are the steady-state ones.
pub const CALL_SECS: u64 = 30;

fn secs(s: u64) -> SimTime {
    SimTime::from_secs(s)
}

/// `rtc_table1`: the four Table-1 cells × proactive grants on/off × the
/// paper's scripted root causes, two-party RTC calls.
pub fn rtc_table1(seed: u64) -> Vec<SessionSpec> {
    let script = |a: ScriptAction| vec![AxisPatch::Script(a)];
    SessionGrid::new()
        .cells(all_cells())
        .durations([SimDuration::from_secs(CALL_SECS)])
        .axis(ScenarioAxis::toggle(
            "grants",
            "on",
            "off",
            vec![],
            vec![AxisPatch::ProactiveGrant(None)],
        ))
        .axis(
            ScenarioAxis::new("cause")
                .point("none", vec![])
                .point(
                    "ul_sinr_dip",
                    script(ScriptAction::Sinr {
                        dir: Direction::Uplink,
                        from: secs(12),
                        to: secs(18),
                        sinr_db: -2.0,
                    }),
                )
                .point(
                    "dl_cross_surge",
                    script(ScriptAction::CrossTraffic {
                        dir: Direction::Downlink,
                        from: secs(12),
                        to: secs(18),
                        prb_fraction: 0.95,
                    }),
                )
                .point(
                    "ul_harq_fail",
                    script(ScriptAction::HarqFailures {
                        dir: Direction::Uplink,
                        from: secs(12),
                        to: secs(18),
                        fail_attempts: 2,
                    }),
                )
                .point(
                    "rrc_release",
                    script(ScriptAction::RrcRelease { at: secs(15) }),
                ),
        )
        .master_seed(seed)
        .build()
}

/// Scripted traffic UEs sharing the cell with each diagnosed ABR stream.
pub const ABR_TRAFFIC_UES: usize = 32;

/// ABR streams per (cell, segment duration) point: 16 streams in all, so
/// each of the two multiplexed workers claims one batch of eight. The
/// workers claim one spec at a time, so which cells and segment durations
/// a worker gets depends on how their claims interleave; the count does
/// not. The four (cell, segment) classes cost within 5 % of each other per
/// stream, well inside one class's own run-to-run spread (see README.md).
pub const ABR_REPS: usize = 4;

fn contended(mut cell: CellConfig) -> CellConfig {
    cell.traffic_ues = traffic_mix(ABR_TRAFFIC_UES);
    cell
}

/// `abr_contended_mux`: ABR streams on two private cells, each shared with
/// [`ABR_TRAFFIC_UES`] scripted UEs, through a downlink cross-traffic
/// surge and a downlink SINR dip.
pub fn abr_contended_mux(seed: u64) -> Vec<SessionSpec> {
    let base = SessionSpec::cell(
        contended(amarisoft()),
        SessionConfig {
            duration: SimDuration::from_secs(CALL_SECS),
            ..Default::default()
        },
    )
    .abr(AbrConfig::default())
    .with_script(ScriptAction::CrossTraffic {
        dir: Direction::Downlink,
        from: secs(8),
        to: secs(16),
        prb_fraction: 0.95,
    })
    .with_script(ScriptAction::Sinr {
        dir: Direction::Downlink,
        from: secs(20),
        to: secs(24),
        sinr_db: -2.0,
    });
    let axes = [
        ScenarioAxis::cells("cell", [contended(amarisoft()), contended(mosolabs())]),
        ScenarioAxis::values("segment", [1u64, 2], |&s| {
            vec![AxisPatch::AbrSegmentDuration(SimDuration::from_secs(s))]
        }),
        ScenarioAxis::values("rep", 0..ABR_REPS, |_| vec![]),
    ];
    expand_product(&base, &axes, SeedPolicy::Derived(seed))
}

/// `live_replay_chaos`: RTC calls on two private cells × {clean, lossy,
/// dark} telemetry chaos × {static 2 s, adaptive q0.99} lateness — the
/// degraded-telemetry grid, at full call length.
pub fn live_replay_chaos(seed: u64) -> Vec<SessionSpec> {
    let lossy = TapChaosSpec::new(0xD06E)
        .fault(TapFault::Drop {
            stream: TapStream::Gnb,
            pct: 20,
        })
        .fault(TapFault::Duplicate {
            stream: TapStream::Dci,
            pct: 10,
        })
        .fault(TapFault::Delay {
            stream: TapStream::AppLocal,
            pct: 15,
            max_delay: SimDuration::from_millis(800),
        });
    let dark = TapChaosSpec::new(0xDA4C)
        .fault(TapFault::Blackout {
            stream: TapStream::AppRemote,
            from: secs(10),
            to: secs(16),
        })
        .fault(TapFault::SkewBehind {
            stream: TapStream::Gnb,
            skew: SimDuration::from_millis(350),
        });
    SessionGrid::new()
        .cells([amarisoft(), mosolabs()])
        .durations([SimDuration::from_secs(CALL_SECS)])
        .axis(
            ScenarioAxis::new("chaos")
                .point("clean", vec![])
                .point("lossy", vec![AxisPatch::TapChaos(Some(lossy))])
                .point("dark", vec![AxisPatch::TapChaos(Some(dark))]),
        )
        .axis(
            ScenarioAxis::new("lateness")
                .point(
                    "static2s",
                    vec![AxisPatch::Lateness(Lateness::Static(
                        SimDuration::from_secs(2),
                    ))],
                )
                .point(
                    "adaptive",
                    vec![AxisPatch::Lateness(Lateness::Adaptive {
                        target_quantile: 0.99,
                        floor: SimDuration::from_millis(250),
                        ceil: SimDuration::from_secs(5),
                    })],
                ),
        )
        .master_seed(seed)
        .build()
}

/// Simulated seconds of one pass over `specs`.
pub fn sim_secs(specs: &[SessionSpec]) -> f64 {
    specs.iter().map(|s| s.cfg.duration.as_secs_f64()).sum()
}
