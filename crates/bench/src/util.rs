//! Shared helpers for the experiment harness: sample extraction from trace
//! bundles and text formatting of CDFs / time series.

use std::fmt::Write as _;

use simcore::{SimDuration, SimTime};
use telemetry::{Cdf, Direction, StreamKind, TraceBundle, CDF_GRID};

use scenarios::SessionConfig;

/// Standard session length used by the CDF experiments.
pub fn session_cfg(seed: u64) -> SessionConfig {
    SessionConfig {
        duration: SimDuration::from_secs(120),
        seed,
        ..Default::default()
    }
}

/// A shorter session for scripted trace figures.
pub(crate) fn short_session_cfg(seed: u64, secs: u64) -> SessionConfig {
    SessionConfig {
        duration: SimDuration::from_secs(secs),
        seed,
        ..Default::default()
    }
}

/// One-way delay samples (ms) for one direction.
pub(crate) fn delay_samples(bundle: &TraceBundle, dir: Direction, media_only: bool) -> Vec<f64> {
    bundle
        .packets
        .iter()
        .filter(|p| p.direction == dir && (!media_only || p.stream != StreamKind::Rtcp))
        .filter_map(|p| p.one_way_delay())
        .map(|d| d.as_millis_f64())
        .collect()
}

/// Prints a labelled CDF as `value p` rows on the standard quantile grid.
pub(crate) fn print_cdf(out: &mut String, label: &str, samples: Vec<f64>) {
    let cdf = Cdf::from_samples(samples);
    let _ = writeln!(out, "-- {label} (n={})", cdf.len());
    if cdf.is_empty() {
        let _ = writeln!(out, "   (no samples)");
        return;
    }
    for (v, p) in cdf.series(&CDF_GRID) {
        let _ = writeln!(out, "   {v:>10.2}  p{:<6}", format_p(p));
    }
}

fn format_p(p: f64) -> String {
    if p >= 1.0 {
        "100".to_string()
    } else {
        format!("{:.4}", p * 100.0)
            .trim_end_matches('0')
            .trim_end_matches('.')
            .to_string()
    }
}

/// Fraction of packet loss (no receive timestamp) for a direction.
pub fn loss_fraction(bundle: &TraceBundle, dir: Direction) -> f64 {
    let (mut total, mut lost) = (0usize, 0usize);
    for p in bundle.packets.iter().filter(|p| p.direction == dir) {
        total += 1;
        if p.received.is_none() {
            lost += 1;
        }
    }
    if total == 0 {
        0.0
    } else {
        lost as f64 / total as f64
    }
}

/// Bins a quantity over time for time-series printouts: returns
/// (bin_center_s, value) rows.
pub(crate) fn time_bins(
    from: SimTime,
    to: SimTime,
    bin: SimDuration,
    mut f: impl FnMut(SimTime, SimTime) -> f64,
) -> Vec<(f64, f64)> {
    let mut rows = Vec::new();
    let mut start = from;
    while start + bin <= to {
        let end = start + bin;
        let center = (start.as_secs_f64() + end.as_secs_f64()) / 2.0;
        rows.push((center, f(start, end)));
        start = end;
    }
    rows
}

/// Mean one-way delay (ms) of media packets sent in a window.
pub(crate) fn mean_delay_in(
    bundle: &TraceBundle,
    dir: Direction,
    from: SimTime,
    to: SimTime,
) -> f64 {
    let w = bundle.packets_window(from, to);
    let d: Vec<f64> = w
        .iter()
        .filter(|p| p.direction == dir && p.stream != StreamKind::Rtcp)
        .filter_map(|p| p.one_way_delay())
        .map(|d| d.as_millis_f64())
        .collect();
    if d.is_empty() {
        f64::NAN
    } else {
        d.iter().sum::<f64>() / d.len() as f64
    }
}

/// Application send rate (bits/s) in a window for one direction.
pub(crate) fn app_rate_in(bundle: &TraceBundle, dir: Direction, from: SimTime, to: SimTime) -> f64 {
    let w = bundle.packets_window(from, to);
    let bits: f64 = w
        .iter()
        .filter(|p| p.direction == dir)
        .map(|p| p.size_bytes as f64 * 8.0)
        .sum();
    bits / (to.saturating_since(from)).as_secs_f64().max(1e-9)
}

/// PHY allocated rate (bits/s) for the target UE in a window/direction.
pub(crate) fn phy_rate_in(bundle: &TraceBundle, dir: Direction, from: SimTime, to: SimTime) -> f64 {
    let w = bundle.dci_window(from, to);
    let bits: f64 = w
        .iter()
        .filter(|d| d.is_target_ue && d.direction == dir && d.harq_retx_idx == 0)
        .map(|d| d.tbs_bits as f64)
        .sum();
    bits / (to.saturating_since(from)).as_secs_f64().max(1e-9)
}

/// Mean PRBs per slot in a window for target UE / other UEs.
pub(crate) fn prbs_in(
    bundle: &TraceBundle,
    dir: Direction,
    from: SimTime,
    to: SimTime,
) -> (f64, f64) {
    let w = bundle.dci_window(from, to);
    let (mut ours, mut others) = (0u64, 0u64);
    for d in w.iter().filter(|d| d.direction == dir) {
        if d.is_target_ue {
            ours += d.n_prbs as u64;
        } else {
            others += d.n_prbs as u64;
        }
    }
    let secs = (to.saturating_since(from)).as_secs_f64().max(1e-9);
    (ours as f64 / secs, others as f64 / secs)
}

#[cfg(test)]
mod tests {
    use super::*;
    use telemetry::{PacketRecord, SessionMeta};

    #[test]
    fn cdf_printing_has_grid_rows() {
        let mut s = String::new();
        print_cdf(&mut s, "test", (0..100).map(|i| i as f64).collect());
        assert!(s.contains("-- test (n=100)"));
        assert!(s.contains("p50"));
        assert!(s.contains("p99"));
        let mut empty = String::new();
        print_cdf(&mut empty, "none", vec![]);
        assert!(empty.contains("no samples"));
    }

    #[test]
    fn loss_fraction_counts_unreceived() {
        let mut b = TraceBundle::new(SessionMeta::baseline("x", SimDuration::from_secs(1), 0));
        for i in 0..10u64 {
            b.packets.push(PacketRecord {
                sent: SimTime::from_millis(i),
                received: if i < 8 {
                    Some(SimTime::from_millis(i + 5))
                } else {
                    None
                },
                direction: Direction::Uplink,
                stream: StreamKind::Video,
                seq: i,
                size_bytes: 100,
            });
        }
        assert!((loss_fraction(&b, Direction::Uplink) - 0.2).abs() < 1e-9);
        assert_eq!(loss_fraction(&b, Direction::Downlink), 0.0);
    }

    #[test]
    fn time_bins_cover_range() {
        let rows = time_bins(
            SimTime::ZERO,
            SimTime::from_secs(2),
            SimDuration::from_millis(500),
            |_, _| 1.0,
        );
        assert_eq!(rows.len(), 4);
        assert!((rows[0].0 - 0.25).abs() < 1e-9);
    }
}
