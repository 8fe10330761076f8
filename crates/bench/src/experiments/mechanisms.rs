//! 5G mechanism trace figures (paper §5): Figs. 12–14, 16–19.
//!
//! Each experiment scripts the exact condition the paper's trace captured
//! (deep fade, cross-traffic burst, forced HARQ/RLC failures, RRC release)
//! and prints the same time-series columns.

use std::fmt::Write as _;

use simcore::{SimDuration, SimTime};
use telemetry::{Direction, GnbEvent, StreamKind};

use scenarios::{ScriptAction, SessionSpec};

use crate::util::{app_rate_in, mean_delay_in, phy_rate_in, prbs_in, short_session_cfg, time_bins};

fn t(secs: f64) -> SimTime {
    SimTime::from_micros((secs * 1e6) as u64)
}

/// Fig. 12 — channel degradation causes RLC buffer build-up and delay.
pub(crate) fn fig12() -> String {
    let cfg = short_session_cfg(5012, 20);
    let bundle = SessionSpec::cell(scenarios::amarisoft(), cfg)
        // ① channel degrades at 8 s, ④ recovers at 11 s.
        .with_script(ScriptAction::Sinr {
            dir: Direction::Uplink,
            from: t(8.0),
            to: t(11.0),
            sinr_db: -1.0,
        })
        .run();
    let mut out = String::from(
        "Fig. 12 — UL channel degradation (scripted SINR drop 8–11 s)\n\
         t[s]  prb_ue/s  prb_oth/s  mcs  rate_gap[Mbps]  rlc_buf[kB]  delay[ms]\n",
    );
    let bin = SimDuration::from_millis(250);
    for (center, _) in time_bins(t(6.0), t(16.0), bin, |_, _| 0.0) {
        let from = t(center - 0.125);
        let to = t(center + 0.125);
        let (prb_ue, prb_oth) = prbs_in(&bundle, Direction::Uplink, from, to);
        let mcs = bundle
            .dci_window(from, to)
            .iter()
            .filter(|d| d.is_target_ue && d.direction == Direction::Uplink)
            .map(|d| d.mcs as f64)
            .fold((0.0, 0usize), |(s, n), m| (s + m, n + 1));
        let mcs = if mcs.1 > 0 {
            mcs.0 / mcs.1 as f64
        } else {
            f64::NAN
        };
        let gap = (app_rate_in(&bundle, Direction::Uplink, from, to)
            - phy_rate_in(&bundle, Direction::Uplink, from, to))
            / 1e6;
        let buf = bundle
            .gnb_window(from, to)
            .iter()
            .filter_map(|g| match g.event {
                GnbEvent::RlcBuffer {
                    direction: Direction::Uplink,
                    bytes,
                } => Some(bytes as f64),
                _ => None,
            })
            .fold((0.0, 0usize), |(s, n), b| (s + b, n + 1));
        let buf = if buf.1 > 0 {
            buf.0 / buf.1 as f64 / 1e3
        } else {
            0.0
        };
        let delay = mean_delay_in(&bundle, Direction::Uplink, from, to);
        let _ = writeln!(
            out,
            "{center:>5.2} {prb_ue:>9.0} {prb_oth:>10.0} {mcs:>4.1} {gap:>15.2} {buf:>12.1} {delay:>10.1}"
        );
    }
    out
}

/// Fig. 13 — DL cross traffic increases delay and degrades the GCC target.
pub(crate) fn fig13() -> String {
    let mut cfg = short_session_cfg(5013, 22);
    // The paper's DL flow was already running at a few Mbit/s when the
    // burst hit; start the wired sender high so the burst bites.
    cfg.wired_sender.start_bps = 3_500_000.0;
    let bundle = SessionSpec::cell(scenarios::tmobile_fdd_15mhz_quiet(), cfg)
        // ① cross traffic 8–11 s eats 96 % of PRBs.
        .with_script(ScriptAction::CrossTraffic {
            dir: Direction::Downlink,
            from: t(8.0),
            to: t(11.0),
            prb_fraction: 0.96,
        })
        .run();
    let mut out = String::from(
        "Fig. 13 — DL cross-traffic burst (scripted 8–11 s)\n\
         t[s]  prb_ue/s  prb_oth/s  rate_gap[Mbps]  delay[ms]  gcc_state  target[Mbps]\n",
    );
    let bin = SimDuration::from_millis(250);
    for (center, _) in time_bins(t(6.0), t(18.0), bin, |_, _| 0.0) {
        let from = t(center - 0.125);
        let to = t(center + 0.125);
        let (prb_ue, prb_oth) = prbs_in(&bundle, Direction::Downlink, from, to);
        let gap = (app_rate_in(&bundle, Direction::Downlink, from, to)
            - phy_rate_in(&bundle, Direction::Downlink, from, to))
            / 1e6;
        let delay = mean_delay_in(&bundle, Direction::Downlink, from, to);
        // The DL sender is the remote (wired) client; a bin is "overuse"
        // if any sample inside it saw the overuse state.
        let stats = bundle.app_remote_window(from, to);
        let state = if stats
            .iter()
            .any(|s| s.gcc_state == telemetry::GccNetworkState::Overuse)
        {
            "Overuse".to_string()
        } else {
            stats
                .last()
                .map(|s| format!("{:?}", s.gcc_state))
                .unwrap_or_default()
        };
        let target = stats
            .last()
            .map(|s| s.target_bitrate_bps / 1e6)
            .unwrap_or(f64::NAN);
        let _ = writeln!(
            out,
            "{center:>5.2} {prb_ue:>9.0} {prb_oth:>10.0} {gap:>15.2} {delay:>10.1} {state:>10} {target:>13.2}"
        );
    }
    out
}

/// Fig. 14 — packet↔transport-block timelines showing UL delay spread.
pub(crate) fn fig14() -> String {
    let mut out =
        String::from("Fig. 14 — WebRTC packets vs PHY transport blocks (UL, 150 ms excerpts)\n");
    for (cell, seed) in [
        (scenarios::tmobile_tdd_100mhz(), 5141u64),
        (scenarios::tmobile_fdd_15mhz_quiet(), 5142),
        (scenarios::amarisoft(), 5143),
    ] {
        let name = cell.name.clone();
        let cfg = short_session_cfg(seed, 12);
        let bundle = SessionSpec::cell(cell, cfg).run();
        let from = t(10.0);
        let to = t(10.15);
        let _ = writeln!(out, "==== {name} ====");
        let _ = writeln!(out, "packets (send→recv, ms since excerpt start):");
        for p in bundle
            .packets_window(from, to)
            .iter()
            .filter(|p| p.direction == Direction::Uplink && p.stream != StreamKind::Rtcp)
        {
            let s = p.sent.saturating_since(from).as_millis_f64();
            let r = p
                .received
                .map(|x| x.saturating_since(from).as_millis_f64())
                .unwrap_or(f64::NAN);
            let kind = match p.stream {
                StreamKind::Video => "V",
                StreamKind::Audio => "A",
                StreamKind::Rtcp => "C",
            };
            let _ = writeln!(
                out,
                "  {kind} seq={:<6} {s:>7.2} -> {r:>7.2}  owd={:>6.2}",
                p.seq,
                r - s
            );
        }
        let _ = writeln!(out, "transport blocks:");
        for d in bundle
            .dci_window(from, to)
            .iter()
            .filter(|d| d.is_target_ue && d.direction == Direction::Uplink)
        {
            let _ = writeln!(
                out,
                "  TB t={:>7.2}ms tbs={:>7} bits mcs={:>2} retx={}",
                d.ts.saturating_since(from).as_millis_f64(),
                d.tbs_bits,
                d.mcs,
                d.harq_retx_idx
            );
        }
    }
    out
}

/// Fig. 16 — proactive UL grants: used vs wasted capacity (Mosolabs).
pub(crate) fn fig16() -> String {
    let cfg = short_session_cfg(5016, 15);
    let bundle = SessionSpec::cell(scenarios::mosolabs(), cfg).run();
    let mut out = String::from("Fig. 16 — Mosolabs proactive UL grants\n");
    let dci: Vec<_> = bundle
        .dci
        .iter()
        .filter(|d| d.is_target_ue && d.direction == Direction::Uplink && d.harq_retx_idx == 0)
        .collect();
    let (mut pro_used, mut pro_waste, mut req_used, mut req_waste) = (0u64, 0u64, 0u64, 0u64);
    for d in &dci {
        let used = d.used_bits.min(d.tbs_bits) as u64;
        let waste = d.tbs_bits.saturating_sub(d.used_bits) as u64;
        if d.proactive {
            pro_used += used;
            pro_waste += waste;
        } else {
            req_used += used;
            req_waste += waste;
        }
    }
    let pct = |u: u64, w: u64| {
        if u + w == 0 {
            0.0
        } else {
            100.0 * w as f64 / (u + w) as f64
        }
    };
    let _ = writeln!(
        out,
        "proactive grants: used {pro_used} bits, wasted {pro_waste} bits ({:.1}% waste)",
        pct(pro_used, pro_waste)
    );
    let _ = writeln!(
        out,
        "requested grants: used {req_used} bits, wasted {req_waste} bits ({:.1}% waste)",
        pct(req_used, req_waste)
    );
    let _ = writeln!(out, "example 80 ms window of grants:");
    let from = t(10.0);
    let to = t(10.08);
    for d in bundle
        .dci_window(from, to)
        .iter()
        .filter(|d| d.is_target_ue && d.direction == Direction::Uplink)
    {
        let _ = writeln!(
            out,
            "  t={:>6.2}ms {} tbs={:>6} used={:>6}",
            d.ts.saturating_since(from).as_millis_f64(),
            if d.proactive {
                "proactive"
            } else {
                "requested"
            },
            d.tbs_bits,
            d.used_bits
        );
    }
    out
}

/// Fig. 17 — HARQ retransmissions inflate packet delay by ≈ one HARQ RTT.
pub(crate) fn fig17() -> String {
    let cfg = short_session_cfg(5017, 16);
    let clean = SessionSpec::cell(scenarios::amarisoft_ideal(), cfg.clone()).run();
    let harq = SessionSpec::cell(scenarios::amarisoft_ideal(), cfg)
        // Initial attempts fail in 10–12 s; first retransmission succeeds.
        .with_script(ScriptAction::HarqFailures {
            dir: Direction::Uplink,
            from: t(10.0),
            to: t(12.0),
            fail_attempts: 1,
        })
        .run();
    let base = mean_delay_in(&clean, Direction::Uplink, t(10.0), t(12.0));
    let with = mean_delay_in(&harq, Direction::Uplink, t(10.0), t(12.0));
    let retx_count = harq
        .dci_window(t(10.0), t(12.0))
        .iter()
        .filter(|d| d.is_target_ue && d.direction == Direction::Uplink && d.harq_retx_idx > 0)
        .count();
    let mut out =
        String::from("Fig. 17 — HARQ retransmission delay inflation (Amarisoft, RTT = 10 ms)\n");
    let _ = writeln!(out, "mean UL delay without failures : {base:>7.2} ms");
    let _ = writeln!(out, "mean UL delay with forced HARQ : {with:>7.2} ms");
    let _ = writeln!(
        out,
        "inflation                      : {:>7.2} ms (expect ≈ +10 ms)",
        with - base
    );
    let _ = writeln!(out, "HARQ retransmissions in window : {retx_count}");
    out
}

/// Fig. 18 — RLC retransmission: ≈105 ms inflation and an HoL burst.
pub(crate) fn fig18() -> String {
    let cfg = short_session_cfg(5018, 16);
    let bundle = SessionSpec::cell(scenarios::amarisoft_ideal(), cfg)
        // One TB dies through all 4 HARQ attempts starting at 10 s.
        .with_script(ScriptAction::HarqFailures {
            dir: Direction::Uplink,
            from: t(10.0),
            to: t(10.035),
            fail_attempts: 4,
        })
        .run();
    let mut out = String::from("Fig. 18 — RLC retransmission and head-of-line blocking\n");
    // Find the RLC retx event.
    let rlc: Vec<_> = bundle
        .gnb
        .iter()
        .filter(|g| matches!(g.event, GnbEvent::RlcRetx { .. }))
        .collect();
    let _ = writeln!(out, "gNB log RLC retransmissions: {}", rlc.len());
    // Delay profile around the event: packets sent 9.9–10.4 s.
    let mut blocked = 0usize;
    let mut max_delay: f64 = 0.0;
    let mut release_cluster: Vec<f64> = Vec::new();
    for p in bundle
        .packets_window(t(9.9), t(10.4))
        .iter()
        .filter(|p| p.direction == Direction::Uplink && p.stream != StreamKind::Rtcp)
    {
        if let Some(d) = p.one_way_delay() {
            let ms = d.as_millis_f64();
            max_delay = max_delay.max(ms);
            if ms > 60.0 {
                blocked += 1;
                if let Some(r) = p.received {
                    release_cluster.push(r.as_millis_f64());
                }
            }
        }
    }
    release_cluster.sort_by(|a, b| a.partial_cmp(b).expect("finite"));
    let cluster_span = release_cluster
        .last()
        .zip(release_cluster.first())
        .map(|(l, f)| l - f)
        .unwrap_or(0.0);
    let _ = writeln!(
        out,
        "max packet delay near event  : {max_delay:>7.1} ms (expect ≈ 105 ms)"
    );
    let _ = writeln!(out, "HoL-blocked packets (>60 ms) : {blocked}");
    let _ = writeln!(
        out,
        "release-burst span           : {cluster_span:>7.1} ms (near-identical receive times)"
    );
    out
}

/// Fig. 19 — RRC release halts transmission for ≈300 ms; delay spikes.
pub(crate) fn fig19() -> String {
    let cfg = short_session_cfg(5019, 18);
    let bundle = SessionSpec::cell(scenarios::tmobile_fdd_15mhz_quiet(), cfg)
        .with_script(ScriptAction::RrcRelease { at: t(10.0) })
        .run();
    let mut out = String::from("Fig. 19 — RRC state transition (scripted release at 10 s)\n");
    // RNTI change visible in DCI.
    let rntis: Vec<u32> = {
        let mut seen = Vec::new();
        for d in bundle.dci.iter().filter(|d| d.is_target_ue) {
            if seen.last() != Some(&d.rnti) {
                seen.push(d.rnti);
            }
        }
        seen
    };
    let _ = writeln!(out, "observed RNTIs: {rntis:?}");
    // Scheduling gap around the release.
    let mut last_before = SimTime::ZERO;
    let mut first_after: Option<SimTime> = None;
    for d in bundle.dci.iter().filter(|d| d.is_target_ue) {
        if d.ts < t(10.0) {
            last_before = last_before.max(d.ts);
        } else if first_after.is_none() {
            first_after = Some(d.ts);
        }
    }
    if let Some(fa) = first_after {
        let _ = writeln!(
            out,
            "PHY transmission gap: {:.0} ms (expect ≈ 300 ms)",
            fa.saturating_since(last_before).as_millis_f64()
        );
    }
    let _ = writeln!(out, "t[s]  ul_delay[ms]");
    for (center, _) in time_bins(t(9.0), t(13.0), SimDuration::from_millis(250), |_, _| 0.0) {
        let d = mean_delay_in(
            &bundle,
            Direction::Uplink,
            t(center - 0.125),
            t(center + 0.125),
        );
        let _ = writeln!(out, "{center:>5.2} {d:>10.1}");
    }
    out
}
