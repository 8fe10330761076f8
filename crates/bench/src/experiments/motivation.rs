//! Motivation experiments (paper §2): Figs. 2–6 and Table 1.

use std::fmt::Write as _;

use telemetry::Direction;

use scenarios::{
    all_cells, generate_campus_dataset, AccessType, BaselineAccess, CampusDatasetSize, SessionSpec,
    ZoomQosRecord,
};

use crate::util::{delay_samples, print_cdf, session_cfg};

/// Fig. 2 — one-way packet delay, 5G vs wired, UL and DL.
pub(crate) fn fig2() -> String {
    let cfg = session_cfg(2001);
    let cell = SessionSpec::cell(scenarios::tmobile_fdd_15mhz(), cfg.clone()).run();
    let wired = SessionSpec::baseline(BaselineAccess::Wired, cfg).run();
    let mut out = String::from("Fig. 2 — one-way delay [ms] CDF: 5G vs wired\n");
    print_cdf(
        &mut out,
        "Uplink / Cellular",
        delay_samples(&cell, Direction::Uplink, true),
    );
    print_cdf(
        &mut out,
        "Uplink / Wired",
        delay_samples(&wired, Direction::Uplink, true),
    );
    print_cdf(
        &mut out,
        "Downlink / Cellular",
        delay_samples(&cell, Direction::Downlink, true),
    );
    print_cdf(
        &mut out,
        "Downlink / Wired",
        delay_samples(&wired, Direction::Downlink, true),
    );
    out
}

/// Fig. 3 — minimum jitter-buffer delay CDFs with the ITU-T interactivity
/// thresholds (150 ms / 400 ms).
pub(crate) fn fig3() -> String {
    let cfg = session_cfg(2003);
    let cell = SessionSpec::cell(scenarios::tmobile_fdd_15mhz(), cfg.clone()).run();
    let wired = SessionSpec::baseline(BaselineAccess::Wired, cfg).run();
    let mut out = String::from(
        "Fig. 3 — minimum jitter-buffer delay [ms] CDF (interactivity: >150 ms impacts, >400 ms unacceptable)\n",
    );
    // Uplink stream is received by the wired peer (remote); downlink by the
    // UE client (local).
    for (bundle, label) in [(&cell, "Cellular"), (&wired, "Wired")] {
        print_cdf(
            &mut out,
            &format!("Video / Uplink / {label}"),
            bundle
                .app_remote
                .iter()
                .map(|s| s.min_jitter_buffer_ms)
                .collect(),
        );
        print_cdf(
            &mut out,
            &format!("Video / Downlink / {label}"),
            bundle
                .app_local
                .iter()
                .map(|s| s.min_jitter_buffer_ms)
                .collect(),
        );
        print_cdf(
            &mut out,
            &format!("Audio / Uplink / {label}"),
            bundle
                .app_remote
                .iter()
                .map(|s| s.audio_jitter_buffer_ms)
                .collect(),
        );
        print_cdf(
            &mut out,
            &format!("Audio / Downlink / {label}"),
            bundle
                .app_local
                .iter()
                .map(|s| s.audio_jitter_buffer_ms)
                .collect(),
        );
    }
    out
}

/// Fig. 4 — fraction of concealed audio samples and video freeze time.
pub(crate) fn fig4() -> String {
    let cfg = session_cfg(2004);
    let cell = SessionSpec::cell(scenarios::tmobile_fdd_15mhz(), cfg.clone()).run();
    let wired = SessionSpec::baseline(BaselineAccess::Wired, cfg).run();
    let mut out = String::from("Fig. 4 — concealed audio samples & video freeze fraction\n");
    let _ = writeln!(
        out,
        "{:<10} {:>12} {:>12} {:>12} {:>12}",
        "network", "UL conceal", "UL freeze", "DL conceal", "DL freeze"
    );
    for (bundle, label) in [(&cell, "Cellular"), (&wired, "Wired")] {
        let duration_ms = bundle.meta.duration.as_millis_f64();
        let frac = |s: &telemetry::AppStatsRecord| {
            if s.total_audio_samples == 0 {
                0.0
            } else {
                s.concealed_samples as f64 / s.total_audio_samples as f64
            }
        };
        let ul = bundle.app_remote.last().expect("stats present");
        let dl = bundle.app_local.last().expect("stats present");
        let _ = writeln!(
            out,
            "{:<10} {:>12.4} {:>12.4} {:>12.4} {:>12.4}",
            label,
            frac(ul),
            ul.total_freeze_ms / duration_ms,
            frac(dl),
            dl.total_freeze_ms / duration_ms,
        );
    }
    out
}

fn campus() -> Vec<ZoomQosRecord> {
    generate_campus_dataset(500, CampusDatasetSize::large())
}

/// Fig. 5 — campus Zoom dataset: network jitter per access type.
pub(crate) fn fig5() -> String {
    let data = campus();
    let mut out = String::from("Fig. 5 — campus Zoom dataset: network jitter [ms] CDF\n");
    for access in [AccessType::Wired, AccessType::Wifi, AccessType::Cellular] {
        print_cdf(
            &mut out,
            &format!("Outbound / {}", access.label()),
            data.iter()
                .filter(|r| r.access == access)
                .map(|r| r.outbound_jitter_ms)
                .collect(),
        );
        print_cdf(
            &mut out,
            &format!("Inbound / {}", access.label()),
            data.iter()
                .filter(|r| r.access == access)
                .map(|r| r.inbound_jitter_ms)
                .collect(),
        );
    }
    out
}

/// Fig. 6 — campus Zoom dataset: packet loss per access type.
pub(crate) fn fig6() -> String {
    let data = campus();
    let mut out = String::from("Fig. 6 — campus Zoom dataset: avg packet loss [%] CDF\n");
    for access in [AccessType::Wired, AccessType::Wifi, AccessType::Cellular] {
        print_cdf(
            &mut out,
            &format!("Outbound / {}", access.label()),
            data.iter()
                .filter(|r| r.access == access)
                .map(|r| r.outbound_loss_pct)
                .collect(),
        );
        print_cdf(
            &mut out,
            &format!("Inbound / {}", access.label()),
            data.iter()
                .filter(|r| r.access == access)
                .map(|r| r.inbound_loss_pct)
                .collect(),
        );
    }
    out
}

/// Table 1 — dataset overview: per-minute event rates per cell.
pub(crate) fn table1() -> String {
    let mut out = String::from("Table 1 — datasets: event rates per minute\n");
    let _ = writeln!(
        out,
        "{:<24} {:>6} {:>10} {:>6} {:>10} {:>10} {:>10} {:>10}",
        "cell", "type", "BW[MHz]", "duplex", "DCI/min", "gNB/min", "pkt/min", "WebRTC/min"
    );
    for cell in all_cells() {
        let cfg = session_cfg(2010 + cell.mac.n_prbs as u64);
        let name = cell.name.clone();
        let class = format!("{:?}", cell.class);
        let bw = cell.bandwidth_mhz;
        let duplex = format!("{:?}", cell.frame.duplexing);
        let bundle = SessionSpec::cell(cell, cfg).run();
        let r = bundle.event_rates();
        let _ = writeln!(
            out,
            "{:<24} {:>6} {:>10.2} {:>6} {:>10.0} {:>10.0} {:>10.0} {:>10.0}",
            name,
            class,
            bw,
            duplex,
            r.dci_per_min,
            r.gnb_per_min,
            r.packets_per_min,
            r.webrtc_per_min
        );
    }
    let campus = generate_campus_dataset(500, CampusDatasetSize::default());
    let _ = writeln!(
        out,
        "{:<24} {:>6} {:>10} {:>6} {:>10} {:>10} {:>10} {:>10}  ({} synthetic minutes)",
        "Zoom API (campus)",
        "org",
        "-",
        "-",
        "-",
        "-",
        "-",
        "1/min",
        campus.len()
    );
    out
}
