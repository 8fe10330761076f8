//! Longitudinal experiments (paper §3): Fig. 8 and Table 3 (Appendix B).

use std::fmt::Write as _;

use domino_core::Domino;
use telemetry::{Direction, Resolution, TraceBundle};

use domino_sweep::{run_sweep_with_progress, AnalysisMode, SweepOptions, SweepProgress};
use scenarios::{all_cells, ScenarioAxis, SeedPolicy, SessionSpec};

use crate::util::{delay_samples, print_cdf, session_cfg};

fn run_all_cells() -> Vec<TraceBundle> {
    // One spec per cell, declared as a cell axis (sequential seeds preserve
    // the sequential harness's 3000+i numbering), fanned across cores by the
    // sweep engine; bundles come back in spec order. These are the longest
    // sessions the harness runs, so they exercise the operator-scale path:
    // Domino analysis runs *inline* during each simulation
    // (`AnalysisMode::Live`; no early exit, so the bundles the figures read
    // are untouched) and throughput/ETA goes to stderr, keeping the figure
    // text on stdout byte-stable.
    let base = SessionSpec::cell(all_cells().remove(0), session_cfg(3000));
    let specs =
        ScenarioAxis::cells("cell", all_cells()).expand(&base, SeedPolicy::Sequential(3000));
    let domino = Domino::with_defaults();
    let opts = SweepOptions {
        analysis: AnalysisMode::Live,
        keep_bundles: true,
        ..Default::default()
    };
    let progress = |p: SweepProgress| {
        eprintln!(
            "[longitudinal] {}/{} sessions, {} in flight ({:.2}/s, ETA {:.0} s, \
             arena peak {} elems)",
            p.completed,
            p.total,
            p.in_flight,
            p.sessions_per_sec,
            p.eta_secs,
            p.arena_footprint_peak
        );
    };
    run_sweep_with_progress(&specs, &domino, &opts, &progress)
        .outcomes
        .into_iter()
        .map(|o| o.bundle.expect("keep_bundles set"))
        .collect()
}

/// Fig. 8 — per-cell CDFs: one-way delay, target bitrate, frame rate,
/// jitter-buffer delay (UL and DL streams).
pub(crate) fn fig8() -> String {
    let bundles = run_all_cells();
    let mut out = String::from("Fig. 8 — WebRTC performance metrics across four 5G cells\n");
    for b in &bundles {
        let cell = &b.meta.cell_name;
        let _ = writeln!(out, "==== {cell} ====");
        // (a)-(d) one-way delay.
        print_cdf(
            &mut out,
            &format!("{cell} / delay UL [ms]"),
            delay_samples(b, Direction::Uplink, true),
        );
        print_cdf(
            &mut out,
            &format!("{cell} / delay DL [ms]"),
            delay_samples(b, Direction::Downlink, true),
        );
        // (e)-(h) target bitrate: UL stream = local sender, DL = remote.
        print_cdf(
            &mut out,
            &format!("{cell} / target bitrate UL [Mbps]"),
            b.app_local
                .iter()
                .map(|s| s.target_bitrate_bps / 1e6)
                .collect(),
        );
        print_cdf(
            &mut out,
            &format!("{cell} / target bitrate DL [Mbps]"),
            b.app_remote
                .iter()
                .map(|s| s.target_bitrate_bps / 1e6)
                .collect(),
        );
        // (i)-(l) receiver-side frame rate: UL stream rendered at remote.
        print_cdf(
            &mut out,
            &format!("{cell} / framerate UL [fps]"),
            b.app_remote.iter().map(|s| s.inbound_fps).collect(),
        );
        print_cdf(
            &mut out,
            &format!("{cell} / framerate DL [fps]"),
            b.app_local.iter().map(|s| s.inbound_fps).collect(),
        );
        // (m)-(p) jitter-buffer delay at the receiver.
        print_cdf(
            &mut out,
            &format!("{cell} / jitter buffer UL video [ms]"),
            b.app_remote
                .iter()
                .map(|s| s.min_jitter_buffer_ms)
                .collect(),
        );
        print_cdf(
            &mut out,
            &format!("{cell} / jitter buffer DL video [ms]"),
            b.app_local.iter().map(|s| s.min_jitter_buffer_ms).collect(),
        );
        print_cdf(
            &mut out,
            &format!("{cell} / jitter buffer UL audio [ms]"),
            b.app_remote
                .iter()
                .map(|s| s.audio_jitter_buffer_ms)
                .collect(),
        );
        print_cdf(
            &mut out,
            &format!("{cell} / jitter buffer DL audio [ms]"),
            b.app_local
                .iter()
                .map(|s| s.audio_jitter_buffer_ms)
                .collect(),
        );
    }
    out
}

/// Table 3 — video resolution distribution of UL and DL streams per cell.
pub(crate) fn table3() -> String {
    let bundles = run_all_cells();
    let mut out = String::from("Table 3 — video resolution distribution (UL | DL)\n");
    let _ = write!(out, "{:<8}", "res");
    for b in &bundles {
        let _ = write!(out, " {:>26}", b.meta.cell_name);
    }
    out.push('\n');
    for res in Resolution::ALL {
        let _ = write!(out, "{:<8}", res.label());
        for b in &bundles {
            // UL stream resolution = local sender's outbound; DL = remote's.
            let frac = |samples: &[telemetry::AppStatsRecord]| {
                if samples.is_empty() {
                    return 0.0;
                }
                samples
                    .iter()
                    .filter(|s| s.outbound_resolution == res)
                    .count() as f64
                    / samples.len() as f64
            };
            let _ = write!(
                out,
                " {:>12.1}% {:>11.1}%",
                100.0 * frac(&b.app_local),
                100.0 * frac(&b.app_remote)
            );
        }
        out.push('\n');
    }
    out
}
