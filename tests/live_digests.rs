//! Golden digests of the live pipeline's outputs.
//!
//! The equivalence suites compare live diagnosis with batch analysis, and
//! the chaos suites compare partitions of one build against each other.
//! Neither pins what the live pipeline emits against an earlier version.
//! These tests do: each runs one 12 s RTC call through a `LivePipeline`
//! (behind a `ChaosTap` where the cell has a fault script) and hashes every
//! field of every `LiveVerdict`, every field of the final `LiveStats`, and
//! the feature bits of every analysed window.
//!
//! The grid is two private cells × four telemetry chaos points × two
//! lateness policies, plus one call under an SLO early exit. The chaos
//! points are a clean feed, the `lossy` and `dark` scripts of the e2ebench
//! `live_replay_chaos` workload, and a packet script whose drops and
//! blackout leave gaps in the send ids the pipeline sees. One test per
//! cell, so the cells run in parallel.

use domino::core::features::Feature;
use domino::live::{
    ChaosState, ChaosTap, EarlyExit, LiveConfig, LivePipeline, LiveStats, LiveVerdict,
};
use domino::obs::wire::fnv1a64;
use domino::ran::CellConfig;
use domino::scenarios::{amarisoft, mosolabs, SessionConfig, SessionSpec};
use domino::simcore::{SimDuration, SimTime};
use domino::telemetry::{Lateness, TapChaosSpec, TapFault, TapStream};

fn secs(s: u64) -> SimTime {
    SimTime::from_secs(s)
}

fn clean() -> Option<TapChaosSpec> {
    None
}

/// The `lossy` script of the `live_replay_chaos` workload.
fn lossy() -> Option<TapChaosSpec> {
    Some(
        TapChaosSpec::new(0xD06E)
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
            }),
    )
}

/// The `dark` script of the `live_replay_chaos` workload.
fn dark() -> Option<TapChaosSpec> {
    Some(
        TapChaosSpec::new(0xDA4C)
            .fault(TapFault::Blackout {
                stream: TapStream::AppRemote,
                from: secs(10),
                to: secs(16),
            })
            .fault(TapFault::SkewBehind {
                stream: TapStream::Gnb,
                skew: SimDuration::from_millis(350),
            }),
    )
}

/// Packet drops and a packet blackout: the pipeline sees send ids with
/// gaps, and the deliveries of the missing sends never reach it.
fn gappy() -> Option<TapChaosSpec> {
    Some(
        TapChaosSpec::new(0x6A99)
            .fault(TapFault::Drop {
                stream: TapStream::Packet,
                pct: 10,
            })
            .fault(TapFault::Blackout {
                stream: TapStream::Packet,
                from: secs(6),
                to: secs(7),
            }),
    )
}

fn static2s() -> Lateness {
    Lateness::Static(SimDuration::from_secs(2))
}

fn adaptive() -> Lateness {
    Lateness::Adaptive {
        target_quantile: 0.99,
        floor: SimDuration::from_millis(250),
        ceil: SimDuration::from_secs(5),
    }
}

/// Hashes every field of every verdict, every field of `stats`, and the
/// feature bits of every window: f64s by bit pattern, vectors prefixed by
/// their length.
fn live_digest(
    verdicts: &[LiveVerdict],
    stats: &LiveStats,
    windows: &[domino::core::detect::WindowAnalysis],
) -> u64 {
    fn u64s(buf: &mut Vec<u8>, vals: &[u64]) {
        for v in vals {
            buf.extend_from_slice(&v.to_le_bytes());
        }
    }
    fn ids(buf: &mut Vec<u8>, v: &[usize]) {
        u64s(buf, &[v.len() as u64]);
        for &id in v {
            u64s(buf, &[id as u64]);
        }
    }
    let mut buf = Vec::new();
    u64s(&mut buf, &[verdicts.len() as u64]);
    for v in verdicts {
        u64s(
            &mut buf,
            &[
                v.window_start.as_micros(),
                v.emitted_at.as_micros(),
                v.chains.len() as u64,
            ],
        );
        for c in &v.chains {
            u64s(&mut buf, &[c.cause as u64, c.consequence as u64]);
            ids(&mut buf, &c.path);
        }
        ids(&mut buf, &v.unknown_consequences);
        u64s(
            &mut buf,
            &[
                v.changed as u64,
                v.coverage.late_drops as u64,
                u64::from(v.coverage.gapped_streams),
                v.coverage.confidence.to_bits(),
            ],
        );
    }
    u64s(
        &mut buf,
        &[
            stats.records_seen as u64,
            stats.late_records_dropped as u64,
            stats.late_deliveries as u64,
            stats.windows_emitted as u64,
            stats.peak_retained_records as u64,
            stats.early_exited as u64,
            stats.degraded_windows as u64,
        ],
    );
    for &n in &stats.late_drops_by_stream {
        u64s(&mut buf, &[n as u64]);
    }
    let features = Feature::all();
    u64s(&mut buf, &[windows.len() as u64]);
    for w in windows {
        u64s(&mut buf, &[w.start.as_micros()]);
        buf.extend(features.iter().map(|&f| w.features.get(f) as u8));
    }
    fnv1a64(&buf)
}

/// Runs a 12 s call on `cell` through a live pipeline, behind a chaos tap
/// when `chaos` is set, and digests what the pipeline produced.
fn run(
    cell: CellConfig,
    chaos: Option<TapChaosSpec>,
    lateness: Lateness,
    early_exit: EarlyExit,
) -> u64 {
    let spec = SessionSpec::cell(
        cell,
        SessionConfig {
            duration: SimDuration::from_secs(12),
            seed: 19,
            ..Default::default()
        },
    );
    let mut pipe = LivePipeline::with_defaults(LiveConfig {
        lateness,
        early_exit,
    })
    .expect("default configuration is streaming-aligned");
    let bundle = match chaos {
        Some(script) => {
            let mut state = ChaosState::new(&script);
            let mut tap = ChaosTap::new(&mut state, &mut pipe);
            spec.run_with_tap(&mut tap)
        }
        None => spec.run_with_tap(&mut pipe),
    };
    let verdicts = pipe.drain_verdicts();
    let stats = pipe.stats();
    let analysis = pipe.take_analysis(bundle.meta.duration);
    live_digest(&verdicts, &stats, &analysis.windows)
}

macro_rules! golden {
    ($($name:ident: $cell:ident, $chaos:ident, $lateness:ident => $digest:expr;)*) => {
        $(
            #[test]
            fn $name() {
                let got = run($cell(), $chaos(), $lateness(), EarlyExit::Never);
                assert_eq!(got, $digest, "{got:#018x}");
            }
        )*
    };
}

golden! {
    amarisoft_clean_static2s: amarisoft, clean, static2s => 0xa9ce_296a_6efc_02d9;
    amarisoft_clean_adaptive: amarisoft, clean, adaptive => 0x58ce_f88b_9fb5_11dc;
    amarisoft_lossy_static2s: amarisoft, lossy, static2s => 0xfff7_a623_d5ae_3f02;
    amarisoft_lossy_adaptive: amarisoft, lossy, adaptive => 0xc35e_fea4_d787_fe23;
    amarisoft_dark_static2s: amarisoft, dark, static2s => 0x159f_69b0_7d9c_3e7f;
    amarisoft_dark_adaptive: amarisoft, dark, adaptive => 0x0599_0b3b_fdd9_b31f;
    amarisoft_gappy_static2s: amarisoft, gappy, static2s => 0xe9ca_90b9_c47e_c2f3;
    amarisoft_gappy_adaptive: amarisoft, gappy, adaptive => 0xd9d4_1773_383a_6b5f;
    mosolabs_clean_static2s: mosolabs, clean, static2s => 0xb90d_cd40_ef37_ba42;
    mosolabs_clean_adaptive: mosolabs, clean, adaptive => 0x8606_d006_7ed0_4824;
    mosolabs_lossy_static2s: mosolabs, lossy, static2s => 0xf82b_ada1_e25f_c884;
    mosolabs_lossy_adaptive: mosolabs, lossy, adaptive => 0xce1e_5d91_90ab_b79c;
    mosolabs_dark_static2s: mosolabs, dark, static2s => 0x5651_368d_0ff9_903a;
    mosolabs_dark_adaptive: mosolabs, dark, adaptive => 0x8ee2_3868_77a0_9209;
    mosolabs_gappy_static2s: mosolabs, gappy, static2s => 0xda40_46e8_5600_3969;
    mosolabs_gappy_adaptive: mosolabs, gappy, adaptive => 0xed6a_ce80_d9ae_7ed0;
}

/// A 100 ms verdict SLO on the lossy feed: the delayed app samples put
/// the drop risk over budget at the first window, and the pipeline stops
/// the call there.
#[test]
fn amarisoft_lossy_slo_exit() {
    let slo = EarlyExit::Slo {
        verdict_within: SimDuration::from_millis(100),
        max_drop_risk: 0.01,
    };
    let got = run(amarisoft(), lossy(), static2s(), slo);
    assert_eq!(got, 0x95d9_7f42_8790_488f, "{got:#018x}");
}
