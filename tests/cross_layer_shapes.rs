//! Shape assertions for the paper's key quantitative findings, one per
//! reproduced mechanism. These encode the "who wins, by what factor" facts
//! the `repro` experiments print; each test names the figure it checks.

use domino::scenarios::{BaselineAccess, ScriptAction, SessionConfig, SessionSpec};
use domino::simcore::{SimDuration, SimTime};
use domino::telemetry::{Cdf, Direction, StreamKind, TraceBundle};

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

fn media_delays(bundle: &TraceBundle, dir: Direction) -> Cdf {
    Cdf::from_samples(
        bundle
            .packets
            .iter()
            .filter(|p| p.direction == dir && p.stream != StreamKind::Rtcp)
            .filter_map(|p| p.one_way_delay())
            .map(|d| d.as_millis_f64())
            .collect(),
    )
}

/// Fig. 2: 5G inflates one-way delay well beyond the wired baseline.
#[test]
fn fig2_shape_cellular_dominates_wired() {
    let cell = SessionSpec::cell(domino::scenarios::tmobile_fdd_15mhz(), cfg(70, 30)).run();
    let wired = SessionSpec::baseline(BaselineAccess::Wired, cfg(70, 30)).run();
    for dir in [Direction::Uplink, Direction::Downlink] {
        let c = media_delays(&cell, dir).median().unwrap();
        let w = media_delays(&wired, dir).median().unwrap();
        assert!(c > 2.0 * w, "{dir:?}: cellular {c} ms vs wired {w} ms");
    }
    // And the tail is far heavier.
    let c99 = media_delays(&cell, Direction::Uplink)
        .quantile(0.99)
        .unwrap();
    let w99 = media_delays(&wired, Direction::Uplink)
        .quantile(0.99)
        .unwrap();
    assert!(c99 > 5.0 * w99, "p99 {c99} vs {w99}");
}

/// Fig. 8a–d: UL delay exceeds DL across cells (UL scheduling overhead).
#[test]
fn fig8_shape_ul_delay_exceeds_dl() {
    for (cell, seed) in [
        (domino::scenarios::tmobile_tdd_100mhz(), 71u64),
        (domino::scenarios::amarisoft(), 72),
    ] {
        let name = cell.name.clone();
        let b = SessionSpec::cell(cell, cfg(seed, 30)).run();
        let ul = media_delays(&b, Direction::Uplink).median().unwrap();
        let dl = media_delays(&b, Direction::Downlink).median().unwrap();
        assert!(ul > dl, "{name}: UL median {ul} must exceed DL {dl}");
    }
}

/// Fig. 8g: the Amarisoft cell's poor UL channel caps the UL bitrate well
/// below the DL bitrate.
#[test]
fn fig8_shape_amarisoft_ul_bitrate_gap() {
    let b = SessionSpec::cell(domino::scenarios::amarisoft(), cfg(73, 45)).run();
    let ul_target: f64 = b
        .app_local
        .iter()
        .map(|s| s.target_bitrate_bps)
        .sum::<f64>()
        / b.app_local.len() as f64;
    let dl_target: f64 = b
        .app_remote
        .iter()
        .map(|s| s.target_bitrate_bps)
        .sum::<f64>()
        / b.app_remote.len() as f64;
    assert!(
        ul_target < 0.8 * dl_target,
        "UL {ul_target} should sit well below DL {dl_target}"
    );
}

/// Fig. 17: one HARQ retransmission inflates delay by ≈ one HARQ RTT.
#[test]
fn fig17_shape_harq_adds_one_rtt() {
    let clean = SessionSpec::cell(domino::scenarios::amarisoft_ideal(), cfg(74, 16)).run();
    let harq = SessionSpec::cell(domino::scenarios::amarisoft_ideal(), cfg(74, 16))
        .with_script(ScriptAction::HarqFailures {
            dir: Direction::Uplink,
            from: t(10.0),
            to: t(12.0),
            fail_attempts: 1,
        })
        .run();
    let window = |b: &TraceBundle| {
        let d: Vec<f64> = b
            .packets_window(t(10.0), t(12.0))
            .iter()
            .filter(|p| p.direction == Direction::Uplink && p.stream != StreamKind::Rtcp)
            .filter_map(|p| p.one_way_delay())
            .map(|d| d.as_millis_f64())
            .collect();
        d.iter().sum::<f64>() / d.len() as f64
    };
    let inflation = window(&harq) - window(&clean);
    assert!(
        (6.0..=20.0).contains(&inflation),
        "HARQ inflation should be ≈10 ms, got {inflation}"
    );
}

/// Fig. 18: HARQ exhaustion falls back to RLC ARQ, ≈105 ms delay, with an
/// in-order release burst.
#[test]
fn fig18_shape_rlc_retx_delay_and_hol() {
    let b = SessionSpec::cell(domino::scenarios::amarisoft_ideal(), cfg(75, 16))
        .with_script(ScriptAction::HarqFailures {
            dir: Direction::Uplink,
            from: t(10.0),
            to: t(10.035),
            fail_attempts: 4,
        })
        .run();
    let max_delay = b
        .packets_window(t(9.9), t(10.4))
        .iter()
        .filter(|p| p.direction == Direction::Uplink && p.stream != StreamKind::Rtcp)
        .filter_map(|p| p.one_way_delay())
        .map(|d| d.as_millis_f64())
        .fold(0.0f64, f64::max);
    assert!(
        (80.0..=140.0).contains(&max_delay),
        "RLC recovery should take ≈105 ms, got {max_delay}"
    );
    // The gNB log must carry the RLC retransmission event (private cell).
    let rlc_logged = b
        .gnb
        .iter()
        .any(|g| matches!(g.event, domino::telemetry::GnbEvent::RlcRetx { .. }));
    assert!(rlc_logged, "RLC ReTX must appear in the gNB log");
}

/// Fig. 19: an RRC release halts transmission ≈300 ms and changes the RNTI.
#[test]
fn fig19_shape_rrc_outage() {
    let b = SessionSpec::cell(domino::scenarios::tmobile_fdd_15mhz_quiet(), cfg(76, 16))
        .with_script(ScriptAction::RrcRelease { at: t(10.0) })
        .run();
    let mut rntis: Vec<u32> = b
        .dci
        .iter()
        .filter(|d| d.is_target_ue)
        .map(|d| d.rnti)
        .collect();
    rntis.dedup();
    assert_eq!(rntis.len(), 2, "exactly one RNTI change, got {rntis:?}");
    // Gap in target-UE scheduling around the release.
    let mut last_before = SimTime::ZERO;
    let mut first_after = None;
    for d in b.dci.iter().filter(|d| d.is_target_ue) {
        if d.ts < t(10.0) {
            last_before = last_before.max(d.ts);
        } else if first_after.is_none() {
            first_after = Some(d.ts);
        }
    }
    let gap = first_after
        .expect("transmissions resume")
        .saturating_since(last_before)
        .as_millis_f64();
    assert!((250.0..=400.0).contains(&gap), "outage {gap} ms");
    // Packets that waited out the outage show heavily inflated delay.
    let max_delay = b
        .packets_window(t(9.8), t(10.5))
        .iter()
        .filter(|p| p.direction == Direction::Uplink)
        .filter_map(|p| p.one_way_delay())
        .map(|d| d.as_millis_f64())
        .fold(0.0f64, f64::max);
    assert!(max_delay > 200.0, "delay spike expected, got {max_delay}");
}

/// Fig. 16: proactive grants waste capacity (unused grants exist).
#[test]
fn fig16_shape_proactive_waste() {
    let b = SessionSpec::cell(domino::scenarios::mosolabs(), cfg(77, 15)).run();
    let wasted = b
        .dci
        .iter()
        .filter(|d| d.is_target_ue && d.proactive && d.used_bits == 0)
        .count();
    assert!(wasted > 5, "unused proactive grants expected, got {wasted}");
}

/// Fig. 22: a reverse-path (RTCP) delay episode triggers pushback while the
/// target bitrate holds.
#[test]
fn fig22_shape_pushback_without_target_drop() {
    let mut session = cfg(78, 20);
    session.wired_sender.start_bps = 2_000_000.0;
    let b = SessionSpec::cell(domino::scenarios::tmobile_fdd_15mhz_quiet(), session)
        .with_script(ScriptAction::CrossTraffic {
            dir: Direction::Downlink,
            from: t(10.0),
            to: t(12.5),
            prb_fraction: 0.99,
        })
        .run();
    // During the episode the local sender's pushback must dip below target.
    let episode = b.app_local_window(t(10.2), t(12.5));
    let pushback_hit = episode
        .iter()
        .any(|s| s.pushback_rate_bps < 0.95 * s.target_bitrate_bps);
    assert!(
        pushback_hit,
        "pushback must dip below target during RTCP starvation"
    );
    // While the UL media path stayed calm.
    let ul_median = media_delays(&b, Direction::Uplink).median().unwrap();
    assert!(
        ul_median < 60.0,
        "UL media path should stay calm, median {ul_median}"
    );
}
