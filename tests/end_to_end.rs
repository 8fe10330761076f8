//! End-to-end integration: simulate sessions with scripted 5G impairments
//! and assert Domino attributes the resulting QoE degradations to the right
//! root cause — the paper's headline capability.

use domino::core::{ChainStats, Domino};
use domino::scenarios::{BaselineAccess, ScriptAction, SessionConfig, SessionSpec};
use domino::simcore::{SimDuration, SimTime};
use domino::telemetry::Direction;

fn cfg(seed: u64, secs: u64) -> SessionConfig {
    SessionConfig {
        duration: SimDuration::from_secs(secs),
        seed,
        ..Default::default()
    }
}

fn t(s: f64) -> SimTime {
    SimTime::from_micros((s * 1e6) as u64)
}

/// Which causes Domino names for a session, as (cause, count) pairs.
fn attributed_causes(domino: &Domino, bundle: &domino::telemetry::TraceBundle) -> Vec<String> {
    let analysis = domino.analyze(bundle);
    let mut causes = Vec::new();
    for w in &analysis.windows {
        for c in &w.chains {
            causes.push(domino.graph().name(c.cause).to_string());
        }
    }
    causes
}

#[test]
fn wired_baseline_produces_no_degradation_chains() {
    let domino = Domino::with_defaults();
    let bundle = SessionSpec::baseline(BaselineAccess::Wired, cfg(60, 20)).run();
    let causes = attributed_causes(&domino, &bundle);
    assert!(
        causes.is_empty(),
        "wired call should be clean, got {causes:?}"
    );
}

#[test]
fn scripted_deep_fade_attributed_to_poor_channel() {
    let domino = Domino::with_defaults();
    let mut session = cfg(61, 20);
    session.ue_sender.start_bps = 2_000_000.0;
    let bundle = SessionSpec::cell(domino::scenarios::amarisoft(), session)
        .with_script(ScriptAction::Sinr {
            dir: Direction::Uplink,
            from: t(10.0),
            to: t(13.0),
            sinr_db: -2.0,
        })
        .run();
    let causes = attributed_causes(&domino, &bundle);
    assert!(
        causes.iter().any(|c| c == "poor_channel"),
        "deep fade must be attributed to poor_channel, got {causes:?}"
    );
}

#[test]
fn scripted_cross_traffic_attributed() {
    let domino = Domino::with_defaults();
    let mut session = cfg(62, 20);
    session.wired_sender.start_bps = 3_000_000.0;
    let bundle = SessionSpec::cell(domino::scenarios::tmobile_fdd_15mhz_quiet(), session)
        .with_script(ScriptAction::CrossTraffic {
            dir: Direction::Downlink,
            from: t(10.0),
            to: t(13.0),
            prb_fraction: 0.97,
        })
        .run();
    let causes = attributed_causes(&domino, &bundle);
    assert!(
        causes.iter().any(|c| c == "cross_traffic"),
        "cross-traffic burst must be attributed, got {causes:?}"
    );
}

#[test]
fn scripted_rrc_release_attributed() {
    let domino = Domino::with_defaults();
    let bundle = SessionSpec::cell(domino::scenarios::tmobile_fdd_15mhz_quiet(), cfg(63, 20))
        .with_script(ScriptAction::RrcRelease { at: t(10.0) })
        .run();
    let causes = attributed_causes(&domino, &bundle);
    assert!(
        causes.iter().any(|c| c == "rrc_state_change"),
        "RRC release must be attributed, got {causes:?}"
    );
}

#[test]
fn forced_harq_storm_attributed() {
    let domino = Domino::with_defaults();
    let bundle = SessionSpec::cell(domino::scenarios::amarisoft_ideal(), cfg(64, 20))
        // Enough failures to cross the >10-retx window threshold and
        // inflate delay via serialization.
        .with_script(ScriptAction::HarqFailures {
            dir: Direction::Uplink,
            from: t(9.0),
            to: t(13.0),
            fail_attempts: 1,
        })
        .run();
    let analysis = domino.analyze(&bundle);
    // The HARQ feature itself must fire even if delay stays tame.
    let harq = domino.graph().id("harq_retx").expect("node exists");
    let active = analysis
        .windows
        .iter()
        .any(|w| domino.graph().is_active(harq, &w.features));
    assert!(
        active,
        "forced HARQ failures must activate the harq_retx cause"
    );
}

#[test]
fn consequence_frequencies_are_plausible() {
    // The paper reports ≈5 degradation events/session-minute over
    // commercial 5G; our simulator should land within an order of
    // magnitude, and far above the wired baseline (≈0).
    let domino = Domino::with_defaults();
    let bundle = SessionSpec::cell(domino::scenarios::tmobile_fdd_15mhz(), cfg(65, 60)).run();
    let analysis = domino.analyze(&bundle);
    let stats = ChainStats::compute(domino.graph(), &analysis);
    let total: f64 = [
        "jitter_buffer_drain",
        "target_bitrate_down",
        "pushback_rate_down",
    ]
    .iter()
    .map(|c| stats.consequence_frequency_per_min(c))
    .sum();
    assert!(
        (0.5..=50.0).contains(&total),
        "expected a plausible degradation rate, got {total}/min"
    );
}
