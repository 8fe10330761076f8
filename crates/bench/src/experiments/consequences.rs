//! Consequence trace figures (paper §6): Figs. 20–22.

use std::fmt::Write as _;

use simcore::{SimDuration, SimTime};
use telemetry::Direction;

use scenarios::{ScriptAction, SessionSpec};

use crate::util::{mean_delay_in, short_session_cfg, time_bins};

fn t(secs: f64) -> SimTime {
    SimTime::from_micros((secs * 1e6) as u64)
}

/// Fig. 20 — a delay surge drains the jitter buffer, freezing video and
/// dropping the rendered frame rate.
pub(crate) fn fig20() -> String {
    let mut cfg = short_session_cfg(5020, 22);
    cfg.wired_sender.start_bps = 2_500_000.0;
    let bundle = SessionSpec::cell(scenarios::tmobile_fdd_15mhz_quiet(), cfg)
        // Severe DL capacity loss for ~2 s → a delay surge (paper: ≈280 ms)
        // on the media the local client receives.
        .with_script(ScriptAction::CrossTraffic {
            dir: Direction::Downlink,
            from: t(10.0),
            to: t(12.0),
            prb_fraction: 0.985,
        })
        .run();
    let mut out = String::from(
        "Fig. 20 — delay surge → jitter buffer drains → freeze → fps drop (local client)\n\
         t[s]  dl_delay[ms]  jb[ms]  min_jb[ms]  frozen  freeze_total[ms]  in_fps\n",
    );
    for (center, _) in time_bins(t(8.0), t(18.0), SimDuration::from_millis(500), |_, _| 0.0) {
        let from = t(center - 0.25);
        let to = t(center + 0.25);
        let delay = mean_delay_in(&bundle, Direction::Downlink, from, to);
        let s = bundle.app_local_window(from, to).last().cloned();
        match s {
            Some(s) => {
                let _ = writeln!(
                    out,
                    "{center:>5.2} {delay:>12.1} {:>7.1} {:>10.1} {:>7} {:>16.1} {:>7.1}",
                    s.video_jitter_buffer_ms,
                    s.min_jitter_buffer_ms,
                    if s.freeze_active { "yes" } else { "no" },
                    s.total_freeze_ms,
                    s.inbound_fps
                );
            }
            None => {
                let _ = writeln!(out, "{center:>5.2} {delay:>12.1}  (no stats)");
            }
        }
    }
    out
}

/// Figs. 21 & 22 — GCC's two rate controls reacting to delay:
///
/// * Fig. 21: forward (media) delay rise → trendline slope crosses the
///   adaptive threshold → overuse → multiplicative target-rate decrease →
///   frame-rate/resolution drop.
/// * Fig. 22: stable forward path but delayed RTCP feedback → outstanding
///   bytes exceed the congestion window → pushback-rate drop with the
///   target rate intact.
pub(crate) fn fig21_22() -> String {
    let mut out = String::new();

    // ---- Fig. 21: UL media path delay (affects the local sender's GCC).
    let cfg = short_session_cfg(5021, 25);
    let bundle = SessionSpec::cell(scenarios::tmobile_fdd_15mhz_quiet(), cfg)
        .with_script(ScriptAction::CrossTraffic {
            dir: Direction::Uplink,
            from: t(10.0),
            to: t(12.0),
            prb_fraction: 0.95,
        })
        .run();
    out.push_str(
        "Fig. 21 — media-path delay → GCC overuse → target-rate drop (local sender)\n\
         t[s]  ul_delay[ms]  slope[ms]  threshold  state     target[Mbps]  pushback[Mbps]  out_fps  res\n",
    );
    for (center, _) in time_bins(t(8.0), t(20.0), SimDuration::from_millis(500), |_, _| 0.0) {
        let from = t(center - 0.25);
        let to = t(center + 0.25);
        let delay = mean_delay_in(&bundle, Direction::Uplink, from, to);
        if let Some(s) = bundle.app_local_window(from, to).last() {
            let _ = writeln!(
                out,
                "{center:>5.2} {delay:>12.1} {:>10.2} {:>10.2} {:>9} {:>13.2} {:>15.2} {:>8.1} {:>5}",
                s.trendline_slope,
                s.trendline_threshold,
                format!("{:?}", s.gcc_state),
                s.target_bitrate_bps / 1e6,
                s.pushback_rate_bps / 1e6,
                s.outbound_fps,
                s.outbound_resolution.label()
            );
        }
    }

    // ---- Fig. 22: RTCP reverse-path delay only (remote sender's view:
    // its media flows DL intact? No — we need the *local* sender with its
    // feedback path (DL) impaired while its media path (UL) is clean).
    let mut cfg = short_session_cfg(5022, 25);
    cfg.wired_sender.start_bps = 2_000_000.0;
    let bundle = SessionSpec::cell(scenarios::tmobile_fdd_15mhz_quiet(), cfg)
        .with_script(ScriptAction::CrossTraffic {
            dir: Direction::Downlink,
            from: t(10.0),
            to: t(12.5),
            prb_fraction: 0.99,
        })
        .run();
    out.push_str(
        "\nFig. 22 — RTCP (reverse-path) delay → outstanding > cwnd → pushback drop (local sender)\n\
         t[s]  ul_media_delay[ms]  dl_rtcp_delay[ms]  outstanding[kB]  cwnd[kB]  target[Mbps]  pushback[Mbps]  out_fps\n",
    );
    for (center, _) in time_bins(t(8.0), t(20.0), SimDuration::from_millis(500), |_, _| 0.0) {
        let from = t(center - 0.25);
        let to = t(center + 0.25);
        let media = mean_delay_in(&bundle, Direction::Uplink, from, to);
        // RTCP toward the local sender travels on the downlink.
        let rtcp: Vec<f64> = bundle
            .packets_window(from, to)
            .iter()
            .filter(|p| {
                p.direction == Direction::Downlink && p.stream == telemetry::StreamKind::Rtcp
            })
            .filter_map(|p| p.one_way_delay())
            .map(|d| d.as_millis_f64())
            .collect();
        let rtcp = if rtcp.is_empty() {
            f64::NAN
        } else {
            rtcp.iter().sum::<f64>() / rtcp.len() as f64
        };
        if let Some(s) = bundle.app_local_window(from, to).last() {
            let _ = writeln!(
                out,
                "{center:>5.2} {media:>18.1} {rtcp:>18.1} {:>16.1} {:>9.1} {:>13.2} {:>15.2} {:>8.1}",
                s.outstanding_bytes as f64 / 1e3,
                s.cwnd_bytes as f64 / 1e3,
                s.target_bitrate_bps / 1e6,
                s.pushback_rate_bps / 1e6,
                s.outbound_fps
            );
        }
    }
    out
}
