//! Ablation studies for the design choices DESIGN.md calls out.
//!
//! * `ablation-proactive` — proactive UL grants on/off (the paper's §5.2.1
//!   discussion: lower first-packet latency, but wasted capacity and little
//!   help for frame-level delay).
//! * `ablation-harq` — maximum HARQ attempts: trade per-packet delay
//!   inflation (more HARQ rounds) against expensive RLC ARQ recoveries.
//! * `ablation-window` — Domino's sliding-window length W: detection counts
//!   and attribution coverage as the window shrinks/grows around the
//!   paper's 5 s choice.

use std::fmt::Write as _;

use domino_core::{ChainStats, Domino, DominoConfig};
use simcore::{SimDuration, SimTime};
use telemetry::{Direction, StreamKind};

use domino_sweep::run_bundles;
use scenarios::{AxisPatch, ScenarioAxis, ScriptAction, SeedPolicy, SessionSpec};

use crate::util::{session_cfg, short_session_cfg};

fn t(secs: f64) -> SimTime {
    SimTime::from_micros((secs * 1e6) as u64)
}

/// Proactive grants on vs off on the Mosolabs cell.
pub(crate) fn proactive_grants() -> String {
    let mut out = String::from("Ablation — proactive UL grants (Mosolabs)\n");
    let _ = writeln!(
        out,
        "{:<12} {:>14} {:>14} {:>14} {:>16}",
        "mode", "UL p50 [ms]", "UL p90 [ms]", "UL p99 [ms]", "grant waste [%]"
    );
    // Declarative A/B: the toggle axis expands the base spec into the two
    // variants (shared seed, so they differ only in the patched field), and
    // the sweep engine runs them concurrently.
    let base = SessionSpec::cell(scenarios::mosolabs(), short_session_cfg(6001, 45));
    let specs = ScenarioAxis::toggle(
        "grants",
        "proactive",
        "bsr-only",
        vec![],
        vec![AxisPatch::ProactiveGrant(None)],
    )
    .expand(&base, SeedPolicy::Shared);
    let bundles = run_bundles(&specs, 0);
    for (spec, bundle) in specs.iter().zip(&bundles) {
        let delays = telemetry::Cdf::from_samples(
            bundle
                .packets
                .iter()
                .filter(|p| p.direction == Direction::Uplink && p.stream != StreamKind::Rtcp)
                .filter_map(|p| p.one_way_delay())
                .map(|d| d.as_millis_f64())
                .collect(),
        );
        let (mut used, mut nominal) = (0u64, 0u64);
        for d in bundle
            .dci
            .iter()
            .filter(|d| d.is_target_ue && d.direction == Direction::Uplink && d.harq_retx_idx == 0)
        {
            used += d.used_bits as u64;
            nominal += d.tbs_bits.max(d.used_bits) as u64;
        }
        let waste = if nominal == 0 {
            0.0
        } else {
            100.0 * (nominal - used) as f64 / nominal as f64
        };
        let _ = writeln!(
            out,
            "{:<12} {:>14.2} {:>14.2} {:>14.2} {:>16.1}",
            spec.label,
            delays.quantile(0.5).unwrap_or(f64::NAN),
            delays.quantile(0.9).unwrap_or(f64::NAN),
            delays.quantile(0.99).unwrap_or(f64::NAN),
            waste
        );
    }
    out.push_str(
        "\nExpectation (paper §5.2.1): proactive grants shave first-packet latency\n\
         (lower median) at the cost of wasted capacity; tail latency barely moves\n\
         because the last packet of a burst still waits for BSR-driven grants.\n",
    );
    out
}

/// Maximum HARQ attempts: delay inflation vs RLC ARQ recoveries.
pub fn harq_attempts() -> String {
    let mut out =
        String::from("Ablation — max HARQ attempts (Amarisoft, aggressive UL MCS selection)\n");
    let _ = writeln!(
        out,
        "{:<10} {:>12} {:>12} {:>14} {:>12}",
        "attempts", "p50 [ms]", "p99 [ms]", "RLC retx/min", "max [ms]"
    );
    const ATTEMPTS: [u8; 4] = [1, 2, 4, 6];
    // Aggressive MCS selection ("prioritizing rate over robustness", §5.2.2)
    // so initial transmissions fail often enough for the HARQ budget to
    // matter — patched into the base once; the axis sweeps only the budget.
    let mut base = SessionSpec::cell(scenarios::amarisoft(), short_session_cfg(6002, 45));
    scenarios::apply_patches(
        &mut base,
        &[
            AxisPatch::MarginDbUl(2.5),
            AxisPatch::McsCapUl(28),
            AxisPatch::OllaStepDb(0.0), // hold the aggressive operating point
        ],
    );
    let specs = ScenarioAxis::values("attempts", ATTEMPTS, |&a| {
        vec![AxisPatch::MaxHarqAttempts(a)]
    })
    .expand(&base, SeedPolicy::Shared);
    let bundles = run_bundles(&specs, 0);
    for (attempts, bundle) in ATTEMPTS.into_iter().zip(&bundles) {
        let delays = telemetry::Cdf::from_samples(
            bundle
                .packets
                .iter()
                .filter(|p| p.direction == Direction::Uplink && p.stream != StreamKind::Rtcp)
                .filter_map(|p| p.one_way_delay())
                .map(|d| d.as_millis_f64())
                .collect(),
        );
        let rlc_retx = bundle
            .gnb
            .iter()
            .filter(|g| matches!(g.event, telemetry::GnbEvent::RlcRetx { .. }))
            .count();
        let minutes = bundle.meta.duration.as_secs_f64() / 60.0;
        let _ = writeln!(
            out,
            "{:<10} {:>12.2} {:>12.2} {:>14.2} {:>12.2}",
            attempts,
            delays.quantile(0.5).unwrap_or(f64::NAN),
            delays.quantile(0.99).unwrap_or(f64::NAN),
            rlc_retx as f64 / minutes,
            delays.max().unwrap_or(f64::NAN),
        );
    }
    out.push_str(
        "\nExpectation: fewer HARQ attempts push recovery to RLC ARQ (≈105 ms each);\n\
         more attempts keep recoveries at the ≈10 ms HARQ timescale.\n",
    );
    out
}

/// Domino window length W around the paper's 5 s choice.
pub(crate) fn window_length() -> String {
    let mut out =
        String::from("Ablation — Domino sliding-window length W (T-Mobile FDD session)\n");
    // Both sessions (the main sweep trace and the scripted check) run as one
    // parallel sweep, then are analysed once per window length.
    let specs = [
        SessionSpec::cell(scenarios::tmobile_fdd_15mhz(), session_cfg(6003)),
        SessionSpec::cell(
            scenarios::tmobile_fdd_15mhz_quiet(),
            short_session_cfg(6004, 20),
        )
        .with_script(ScriptAction::CrossTraffic {
            dir: Direction::Downlink,
            from: t(10.0),
            to: t(13.0),
            prb_fraction: 0.97,
        }),
    ];
    let mut bundles = run_bundles(&specs, 0);
    let scripted = bundles.pop().expect("two specs");
    let bundle = bundles.pop().expect("two specs");
    let _ = writeln!(
        out,
        "{:<8} {:>10} {:>14} {:>18} {:>16}",
        "W [s]", "windows", "chain windows", "consequence wins", "unknown frac"
    );
    for w_secs in [2u64, 5, 10, 20] {
        let domino = Domino::new(
            domino_core::default_graph(),
            DominoConfig {
                window: SimDuration::from_secs(w_secs),
                ..Default::default()
            },
        );
        let analysis = domino.analyze(&bundle);
        let stats = ChainStats::compute(domino.graph(), &analysis);
        let cons_windows: usize = stats.consequence_windows.values().sum();
        let unknown: usize = stats.unknown_windows.values().sum();
        let frac = if cons_windows == 0 {
            0.0
        } else {
            unknown as f64 / cons_windows as f64
        };
        let _ = writeln!(
            out,
            "{:<8} {:>10} {:>14} {:>18} {:>16.2}",
            w_secs,
            analysis.windows.len(),
            stats.total_chain_windows,
            cons_windows,
            frac
        );
    }
    out.push_str(
        "\nExpectation: short windows miss the cause-to-consequence lag (higher\n\
         unknown fraction); very long windows blur distinct events together\n\
         (attribution inflates). The paper's W = 5 s balances the two.\n",
    );
    let _ = writeln!(
        out,
        "\n(scripted check at W = 5 s: cause at t≈10 s is attributed)"
    );
    let domino = Domino::with_defaults();
    let analysis = domino.analyze(&scripted);
    let attributed = analysis.windows.iter().flat_map(|w| &w.chains).count();
    let _ = writeln!(out, "chains detected: {attributed}");
    out
}
