//! The batch oracle: the detector written the obvious way, for tests only.
//!
//! `extract_features` applies the twenty event-detection conditions of
//! Table 5 (Appendix D), plus the four ABR playback conditions of the
//! streaming workload, to one window by rescanning the bundle's records in
//! it; [`trace_chains`] finds a window's chains by the paper's §4.2
//! backward trace, walking back from each active consequence through active
//! parents; [`analyze`] slides that window over a whole bundle. Nothing here
//! keeps rolling state or a compiled table, so each condition reads as its
//! row of the table and each chain as a path of the graph. The
//! [`StreamingAnalyzer`](crate::stream::StreamingAnalyzer) and its chain
//! table ([`DetectionProgram`](crate::codegen::DetectionProgram)), the one
//! engine production runs, must match it bit for bit, window by window.
//!
//! The module is public but hidden from the docs, not `#[cfg(test)]`: the
//! equivalence suites under `tests/` and the unit tests of `domino-live`
//! and `domino-sweep` call it, and a `#[cfg(test)]` item is invisible to
//! other crates.

use simcore::SimTime;
use telemetry::{
    AppStatsRecord, DciRecord, Direction, GccNetworkState, GnbEvent, PacketRecord,
    PlaybackStatsRecord, StreamKind, TraceBundle,
};

use crate::detect::{Analysis, ChainHit, Domino, Thresholds, WindowAnalysis};
use crate::features::{AppEvent, ClientSide, Feature, FeatureVector, PlaybackEvent, RanEvent};
use crate::graph::{CausalGraph, NodeId};

/// The batch sliding-window loop: extracts every window of `bundle` from
/// scratch under `domino`'s configuration and backward-traces its chains.
pub fn analyze(domino: &Domino, bundle: &TraceBundle) -> Analysis {
    let cfg = domino.config();
    let horizon = bundle.horizon();
    let mut windows = Vec::new();
    let mut start = SimTime::ZERO + cfg.warmup;
    while start + cfg.window <= horizon {
        let features = extract_features(bundle, start, start + cfg.window, &cfg.thresholds);
        let (chains, unknown_consequences) = trace_chains(domino.graph(), &features);
        windows.push(WindowAnalysis {
            start,
            features,
            chains,
            unknown_consequences,
        });
        start += cfg.step;
    }
    Analysis {
        windows,
        duration: bundle.meta.duration,
    }
}

/// Backward-traces every active consequence of `features` in `graph`, leaves
/// by ascending id: the chains found, and the active consequences with none.
pub fn trace_chains(graph: &CausalGraph, features: &FeatureVector) -> (Vec<ChainHit>, Vec<NodeId>) {
    let mut chains = Vec::new();
    let mut unknown = Vec::new();
    for leaf in graph.leaves() {
        if !active(graph, leaf, features) {
            continue;
        }
        let paths = backward_trace(graph, leaf, features);
        if paths.is_empty() {
            unknown.push(leaf);
        }
        for path in paths {
            chains.push(ChainHit {
                cause: path[0],
                consequence: leaf,
                path,
            });
        }
    }
    (chains, unknown)
}

/// Backward trace (paper §4.2): starting from an *active* consequence, walk
/// edges backward through active nodes, parents in edge order; returns every
/// complete active path root→…→consequence, as paths in forward order.
fn backward_trace(
    graph: &CausalGraph,
    consequence: NodeId,
    features: &FeatureVector,
) -> Vec<Vec<NodeId>> {
    let mut results = Vec::new();
    if active(graph, consequence, features) {
        backward_dfs(graph, features, &mut vec![consequence], &mut results);
    }
    results
}

fn backward_dfs(
    graph: &CausalGraph,
    features: &FeatureVector,
    path: &mut Vec<NodeId>,
    out: &mut Vec<Vec<NodeId>>,
) {
    let at = *path.last().expect("non-empty path");
    if graph.parents(at).is_empty() {
        // Reached a root: a complete chain.
        out.push(path.iter().rev().copied().collect());
        return;
    }
    for &p in graph.parents(at) {
        if active(graph, p, features) {
            path.push(p);
            backward_dfs(graph, features, path, out);
            path.pop();
        }
    }
}

/// Whether a node's predicate holds, read feature by feature rather than
/// through the node's mask, so a wrong mask cannot agree with itself.
fn active(graph: &CausalGraph, id: NodeId, features: &FeatureVector) -> bool {
    graph.predicate(id).iter().any(|&f| features.get(f))
}

/// Extracts the full 40-dim feature vector for the window `[from, to)`.
pub(crate) fn extract_features(
    bundle: &TraceBundle,
    from: SimTime,
    to: SimTime,
    th: &Thresholds,
) -> FeatureVector {
    let mut v = FeatureVector::new();

    // Application events, both clients (rows 1–10).
    for (side, samples) in [
        (ClientSide::Local, bundle.app_local_window(from, to)),
        (ClientSide::Remote, bundle.app_remote_window(from, to)),
    ] {
        for e in AppEvent::ALL {
            v.set(Feature::App(side, e), app_event(samples, e, th));
        }
    }

    // Packet-delay trends (rows 11–12). Forward = media packets, reverse =
    // RTCP feedback packets (§6.3's forward/reverse path terminology);
    // either direction's trend raises the flag.
    let packets = bundle.packets_window(from, to);
    let media_up = delay_uptrend(packets, Direction::Uplink, false, th)
        || delay_uptrend(packets, Direction::Downlink, false, th);
    let rtcp_up = delay_uptrend(packets, Direction::Uplink, true, th)
        || delay_uptrend(packets, Direction::Downlink, true, th);
    v.set(Feature::ForwardDelayUp, media_up);
    v.set(Feature::ReverseDelayUp, rtcp_up);

    // 5G events per direction (rows 13–18).
    let dci = bundle.dci_window(from, to);
    let gnb = bundle.gnb_window(from, to);
    for dir in [Direction::Uplink, Direction::Downlink] {
        v.set(
            Feature::Ran(dir, RanEvent::AllocatedTbsDown),
            tbs_down(dci, dir, th),
        );
        v.set(
            Feature::Ran(dir, RanEvent::AppExceedsTbs),
            app_exceeds_tbs(packets, dci, dir, from, to, th),
        );
        v.set(
            Feature::Ran(dir, RanEvent::CrossTraffic),
            cross_traffic(dci, dir, th),
        );
        v.set(
            Feature::Ran(dir, RanEvent::ChannelDegrades),
            channel_degrades(dci, dir, from, th),
        );
        v.set(
            Feature::Ran(dir, RanEvent::HarqRetx),
            harq_retx(dci, dir, th),
        );
        v.set(
            Feature::Ran(dir, RanEvent::RlcRetx),
            gnb.iter().any(
                |g| matches!(g.event, GnbEvent::RlcRetx { direction, .. } if direction == dir),
            ),
        );
    }

    // Row 19: transmission uses the 5G uplink channel.
    v.set(
        Feature::UlScheduling,
        dci.iter()
            .any(|d| d.is_target_ue && d.direction == Direction::Uplink),
    );
    // Row 20: RNTI change within the window.
    v.set(Feature::RrcStateChange, rnti_changed(dci));

    // Rows 21–24: ABR playback events (streaming sessions only; the
    // playback stream is empty for RTC bundles).
    let playback = bundle.playback_window(from, to);
    for e in PlaybackEvent::ALL {
        v.set(Feature::Playback(e), playback_event(playback, e, th));
    }

    v
}

/// Rows 21–24: playback conditions over one window of 50 ms samples.
fn playback_event(samples: &[PlaybackStatsRecord], e: PlaybackEvent, th: &Thresholds) -> bool {
    if samples.len() < 2 {
        return false;
    }
    match e {
        PlaybackEvent::BufferLow => samples
            .iter()
            .any(|s| s.started && s.buffer_ms < th.playback_buffer_low_ms),
        PlaybackEvent::Stall => samples.iter().any(|s| s.stalled),
        PlaybackEvent::LadderSwitchDown => samples
            .windows(2)
            .any(|w| w[1].target_rung < w[0].target_rung),
        PlaybackEvent::LadderOscillation => {
            samples
                .windows(2)
                .filter(|w| w[1].target_rung != w[0].target_rung)
                .count()
                > th.ladder_switch_count
        }
    }
}

fn app_event(samples: &[AppStatsRecord], e: AppEvent, th: &Thresholds) -> bool {
    if samples.len() < 2 {
        return false;
    }
    match e {
        AppEvent::InboundFramerateDown => framerate_down(samples.iter().map(|s| s.inbound_fps), th),
        AppEvent::OutboundFramerateDown => {
            framerate_down(samples.iter().map(|s| s.outbound_fps), th)
        }
        AppEvent::OutboundResolutionDown => samples
            .windows(2)
            .any(|w| w[1].outbound_resolution < w[0].outbound_resolution),
        AppEvent::JitterBufferDrain => samples
            .iter()
            .any(|s| s.video_jitter_buffer_ms <= th.drain_level_ms && s.inbound_fps > 0.0),
        AppEvent::TargetBitrateDown => samples.windows(2).any(|w| {
            w[1].target_bitrate_bps < w[0].target_bitrate_bps * (1.0 - th.rate_drop_epsilon)
        }),
        AppEvent::GccOveruse => samples
            .iter()
            .any(|s| s.gcc_state == GccNetworkState::Overuse),
        AppEvent::PushbackRateDown => samples.windows(2).any(|w| {
            w[1].pushback_rate_bps < w[0].pushback_rate_bps * (1.0 - th.rate_drop_epsilon)
        }),
        AppEvent::CwndFull => samples.iter().any(|s| s.outstanding_bytes > s.cwnd_bytes),
        AppEvent::OutstandingBytesUp => {
            let means = windowed_means(
                samples.iter().map(|s| s.outstanding_bytes as f64),
                th.trend_subwindow,
            );
            means
                .windows(2)
                .any(|w| w[1] > w[0] * 1.05 && w[1] > 1000.0)
        }
        AppEvent::PushbackNeqTarget => samples.iter().any(|s| {
            (s.pushback_rate_bps - s.target_bitrate_bps).abs()
                > th.rate_drop_epsilon * s.target_bitrate_bps
        }),
    }
}

/// Rows 1–2: max fps > high, min fps < low, and the max occurs before the
/// min (a genuine downward move).
fn framerate_down(fps: impl Iterator<Item = f64>, th: &Thresholds) -> bool {
    let vals: Vec<f64> = fps.collect();
    let (mut max_i, mut max_v) = (0usize, f64::NEG_INFINITY);
    let (mut min_i, mut min_v) = (0usize, f64::INFINITY);
    for (i, &x) in vals.iter().enumerate() {
        if x > max_v {
            max_v = x;
            max_i = i;
        }
        if x < min_v {
            min_v = x;
            min_i = i;
        }
    }
    max_v > th.framerate_high && min_v < th.framerate_low && max_i < min_i
}

fn windowed_means(values: impl Iterator<Item = f64>, sub: usize) -> Vec<f64> {
    let vals: Vec<f64> = values.collect();
    vals.chunks(sub.max(1))
        .filter(|c| c.len() == sub.max(1))
        .map(|c| c.iter().sum::<f64>() / c.len() as f64)
        .collect()
}

/// Rows 11–12: uptrend in windowed packet delay plus a sample above the
/// floor. `rtcp` selects the feedback path; otherwise media packets.
fn delay_uptrend(packets: &[PacketRecord], dir: Direction, rtcp: bool, th: &Thresholds) -> bool {
    let delays: Vec<f64> = packets
        .iter()
        .filter(|p| p.direction == dir && (p.stream == StreamKind::Rtcp) == rtcp)
        .filter_map(|p| p.one_way_delay())
        .map(|d| d.as_millis_f64())
        .collect();
    if delays.len() < 2 * th.trend_subwindow {
        return false;
    }
    let any_high = delays.iter().any(|&d| d > th.delay_floor_ms);
    if !any_high {
        return false;
    }
    let means = windowed_means(delays.into_iter(), th.trend_subwindow);
    means.windows(2).any(|w| w[1] > w[0] * 1.05)
}

/// Row 13: min TBS < fraction × max TBS, drop happening after the peak.
fn tbs_down(dci: &[DciRecord], dir: Direction, th: &Thresholds) -> bool {
    let tbs: Vec<f64> = dci
        .iter()
        .filter(|d| d.is_target_ue && d.direction == dir && d.harq_retx_idx == 0)
        .map(|d| d.tbs_bits as f64)
        .collect();
    if tbs.len() < 4 {
        return false;
    }
    let (mut max_i, mut max_v) = (0usize, f64::NEG_INFINITY);
    let (mut min_i, mut min_v) = (0usize, f64::INFINITY);
    for (i, &x) in tbs.iter().enumerate() {
        if x > max_v {
            max_v = x;
            max_i = i;
        }
        if x < min_v {
            min_v = x;
            min_i = i;
        }
    }
    min_v < th.tbs_drop_fraction * max_v && max_i < min_i
}

/// Row 14: the app's send rate exceeds the PHY-allocated rate for more than
/// a fraction of the window (computed over 100 ms bins).
fn app_exceeds_tbs(
    packets: &[PacketRecord],
    dci: &[DciRecord],
    dir: Direction,
    from: SimTime,
    to: SimTime,
    th: &Thresholds,
) -> bool {
    const BIN_US: u64 = 100_000;
    let n_bins = ((to.as_micros() - from.as_micros()) / BIN_US).max(1) as usize;
    let mut app_bits = vec![0f64; n_bins];
    let mut tbs_bits = vec![0f64; n_bins];
    for p in packets.iter().filter(|p| p.direction == dir) {
        let bin = ((p.sent.as_micros() - from.as_micros()) / BIN_US) as usize;
        if bin < n_bins {
            app_bits[bin] += p.size_bytes as f64 * 8.0;
        }
    }
    for d in dci
        .iter()
        .filter(|d| d.is_target_ue && d.direction == dir && d.harq_retx_idx == 0)
    {
        let bin = ((d.ts.as_micros() - from.as_micros()) / BIN_US) as usize;
        if bin < n_bins {
            tbs_bits[bin] += d.tbs_bits as f64;
        }
    }
    let exceeding = app_bits
        .iter()
        .zip(&tbs_bits)
        .filter(|(a, t)| **a > 0.0 && **a > **t)
        .count();
    exceeding as f64 > th.rate_exceed_fraction * n_bins as f64
}

/// Row 15: other UEs' PRB sum exceeds a fraction of ours.
fn cross_traffic(dci: &[DciRecord], dir: Direction, th: &Thresholds) -> bool {
    let mut ours = 0u64;
    let mut others = 0u64;
    for d in dci.iter().filter(|d| d.direction == dir) {
        if d.is_target_ue {
            ours += d.n_prbs as u64;
        } else {
            others += d.n_prbs as u64;
        }
    }
    ours > 0 && others as f64 > th.cross_traffic_fraction * ours as f64
}

/// Row 16: grouped-MCS statistics indicate a degraded channel.
fn channel_degrades(dci: &[DciRecord], dir: Direction, from: SimTime, th: &Thresholds) -> bool {
    let group_us = th.mcs_group_ms * 1000;
    let mut groups: Vec<Vec<f64>> = Vec::new();
    for d in dci.iter().filter(|d| d.is_target_ue && d.direction == dir) {
        let g = ((d.ts.as_micros() - from.as_micros()) / group_us) as usize;
        if groups.len() <= g {
            groups.resize(g + 1, Vec::new());
        }
        groups[g].push(d.mcs as f64);
    }
    let mut medians: Vec<f64> = groups
        .iter()
        .filter(|g| !g.is_empty())
        .map(|g| {
            let mut s = g.clone();
            s.sort_by(|a, b| a.partial_cmp(b).expect("finite"));
            s[s.len() / 2]
        })
        .collect();
    if medians.len() < 4 {
        return false;
    }
    medians.sort_by(|a, b| a.partial_cmp(b).expect("finite"));
    let p90 = medians[((medians.len() - 1) as f64 * 0.9) as usize];
    let low_count = medians.iter().filter(|&&m| m < th.mcs_low_value).count();
    p90 < th.mcs_p90_below && low_count > th.mcs_low_count
}

/// Row 17: enough HARQ retransmissions in the window.
fn harq_retx(dci: &[DciRecord], dir: Direction, th: &Thresholds) -> bool {
    dci.iter()
        .filter(|d| d.is_target_ue && d.direction == dir && d.harq_retx_idx > 0)
        .count()
        > th.harq_retx_count
}

/// Row 20: the target UE's RNTI changed within the window.
fn rnti_changed(dci: &[DciRecord]) -> bool {
    let mut rntis = dci.iter().filter(|d| d.is_target_ue).map(|d| d.rnti);
    match rntis.next() {
        Some(first) => rntis.any(|r| r != first),
        None => false,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use simcore::SimDuration;
    use telemetry::{Resolution, SessionMeta};

    fn t(ms: u64) -> SimTime {
        SimTime::from_millis(ms)
    }

    fn sample(ms: u64) -> AppStatsRecord {
        let mut s = AppStatsRecord::baseline(t(ms));
        s.inbound_fps = 30.0;
        s.outbound_fps = 30.0;
        s.video_jitter_buffer_ms = 120.0;
        s.cwnd_bytes = 100_000;
        s
    }

    fn dci(ms: u64, dir: Direction, ours: bool, prbs: u16, mcs: u8, retx: u8) -> DciRecord {
        DciRecord {
            ts: t(ms),
            rnti: if ours { 100 } else { 999 },
            direction: dir,
            is_target_ue: ours,
            n_prbs: prbs,
            mcs,
            tbs_bits: (prbs as u32) * 1500,
            harq_id: 0,
            harq_retx_idx: retx,
            decoded_ok: true,
            proactive: false,
            used_bits: 0,
        }
    }

    fn bundle_with(
        app: Vec<AppStatsRecord>,
        packets: Vec<PacketRecord>,
        dci: Vec<DciRecord>,
    ) -> TraceBundle {
        let mut b = TraceBundle::new(SessionMeta::baseline("test", SimDuration::from_secs(5), 0));
        b.app_local = app;
        b.packets = packets;
        b.dci = dci;
        b.sort();
        b
    }

    #[test]
    fn framerate_drop_requires_order() {
        let th = Thresholds::default();
        // 30 → 20: drop.
        assert!(framerate_down([30.0, 29.0, 24.0, 20.0].into_iter(), &th));
        // 20 → 30: recovery, not a drop.
        assert!(!framerate_down([20.0, 24.0, 29.0, 30.0].into_iter(), &th));
        // Steady high: no.
        assert!(!framerate_down([30.0, 30.0, 29.0].into_iter(), &th));
    }

    #[test]
    fn jitter_buffer_drain_detected() {
        let th = Thresholds::default();
        let mut app: Vec<AppStatsRecord> = (0..100).map(|i| sample(i * 50)).collect();
        app[50].video_jitter_buffer_ms = 0.0;
        app[50].inbound_fps = 12.0;
        let b = bundle_with(app, vec![], vec![]);
        let v = extract_features(&b, t(0), t(5000), &th);
        assert!(v.get(Feature::App(ClientSide::Local, AppEvent::JitterBufferDrain)));
        assert!(!v.get(Feature::App(
            ClientSide::Remote,
            AppEvent::JitterBufferDrain
        )));
    }

    #[test]
    fn target_and_pushback_drops() {
        let th = Thresholds::default();
        let mut app: Vec<AppStatsRecord> = (0..100).map(|i| sample(i * 50)).collect();
        for s in app.iter_mut().skip(60) {
            s.target_bitrate_bps = 1_000_000.0;
            s.pushback_rate_bps = 600_000.0;
        }
        for s in app.iter_mut().take(60) {
            s.target_bitrate_bps = 2_000_000.0;
            s.pushback_rate_bps = 2_000_000.0;
        }
        let b = bundle_with(app, vec![], vec![]);
        let v = extract_features(&b, t(0), t(5000), &th);
        assert!(v.get(Feature::App(ClientSide::Local, AppEvent::TargetBitrateDown)));
        assert!(v.get(Feature::App(ClientSide::Local, AppEvent::PushbackRateDown)));
        assert!(v.get(Feature::App(ClientSide::Local, AppEvent::PushbackNeqTarget)));
    }

    #[test]
    fn delay_uptrend_needs_floor_and_trend() {
        let th = Thresholds::default();
        let mk = |ms: u64, delay: u64, stream: StreamKind| PacketRecord {
            sent: t(ms),
            received: Some(t(ms + delay)),
            direction: Direction::Uplink,
            stream,
            seq: ms,
            size_bytes: 1200,
        };
        // Rising media delay crossing 80 ms → forward path trend.
        let rising: Vec<PacketRecord> = (0..60)
            .map(|i| mk(i * 50, 20 + i * 3, StreamKind::Video))
            .collect();
        let b = bundle_with(vec![], rising, vec![]);
        let v = extract_features(&b, t(0), t(5000), &th);
        assert!(v.get(Feature::ForwardDelayUp));
        assert!(!v.get(Feature::ReverseDelayUp));
        // Rising RTCP delay, flat media → reverse path trend only.
        let mut mixed: Vec<PacketRecord> = (0..60)
            .map(|i| mk(i * 50, 20 + i * 3, StreamKind::Rtcp))
            .collect();
        mixed.extend((0..60).map(|i| mk(i * 50 + 5, 30, StreamKind::Video)));
        let b = bundle_with(vec![], mixed, vec![]);
        let v = extract_features(&b, t(0), t(5000), &th);
        assert!(v.get(Feature::ReverseDelayUp));
        assert!(!v.get(Feature::ForwardDelayUp));
        // Flat low delay: neither.
        let flat: Vec<PacketRecord> = (0..60).map(|i| mk(i * 50, 30, StreamKind::Video)).collect();
        let b = bundle_with(vec![], flat, vec![]);
        let v = extract_features(&b, t(0), t(5000), &th);
        assert!(!v.get(Feature::ForwardDelayUp));
    }

    #[test]
    fn cross_traffic_threshold() {
        let th = Thresholds::default();
        let mut recs = vec![dci(0, Direction::Downlink, true, 50, 20, 0)];
        // 5 PRBs of cross traffic: 10% of ours — below threshold.
        recs.push(dci(10, Direction::Downlink, false, 5, 16, 0));
        let b = bundle_with(vec![], vec![], recs.clone());
        let v = extract_features(&b, t(0), t(5000), &th);
        assert!(!v.get(Feature::Ran(Direction::Downlink, RanEvent::CrossTraffic)));
        // 30 PRBs: 60% — above.
        recs.push(dci(20, Direction::Downlink, false, 30, 16, 0));
        let b = bundle_with(vec![], vec![], recs);
        let v = extract_features(&b, t(0), t(5000), &th);
        assert!(v.get(Feature::Ran(Direction::Downlink, RanEvent::CrossTraffic)));
    }

    #[test]
    fn harq_and_rnti_conditions() {
        let th = Thresholds::default();
        let mut recs: Vec<DciRecord> = (0..12)
            .map(|i| dci(i * 100, Direction::Uplink, true, 20, 15, 1))
            .collect();
        let b = bundle_with(vec![], vec![], recs.clone());
        let v = extract_features(&b, t(0), t(5000), &th);
        assert!(v.get(Feature::Ran(Direction::Uplink, RanEvent::HarqRetx)));
        assert!(v.get(Feature::UlScheduling));
        assert!(!v.get(Feature::RrcStateChange));
        // RNTI change.
        let mut changed = dci(4900, Direction::Uplink, true, 20, 15, 0);
        changed.rnti = 777;
        recs.push(changed);
        let b = bundle_with(vec![], vec![], recs);
        let v = extract_features(&b, t(0), t(5000), &th);
        assert!(v.get(Feature::RrcStateChange));
    }

    #[test]
    fn channel_degrades_needs_sustained_low_mcs() {
        let th = Thresholds::default();
        // 100 groups of 50 ms with MCS 4: p90 < 20 and low-count > 10.
        let recs: Vec<DciRecord> = (0..100)
            .map(|i| dci(i * 50, Direction::Uplink, true, 20, 4, 0))
            .collect();
        let b = bundle_with(vec![], vec![], recs);
        let v = extract_features(&b, t(0), t(5000), &th);
        assert!(v.get(Feature::Ran(Direction::Uplink, RanEvent::ChannelDegrades)));
        // Healthy MCS 25: no.
        let recs: Vec<DciRecord> = (0..100)
            .map(|i| dci(i * 50, Direction::Uplink, true, 20, 25, 0))
            .collect();
        let b = bundle_with(vec![], vec![], recs);
        let v = extract_features(&b, t(0), t(5000), &th);
        assert!(!v.get(Feature::Ran(Direction::Uplink, RanEvent::ChannelDegrades)));
    }

    #[test]
    fn tbs_down_requires_peak_then_drop() {
        let th = Thresholds::default();
        let mk = |ms: u64, prbs: u16| dci(ms, Direction::Downlink, true, prbs, 20, 0);
        // High then low.
        let recs = vec![mk(0, 50), mk(100, 50), mk(200, 20), mk(300, 10)];
        let b = bundle_with(vec![], vec![], recs);
        let v = extract_features(&b, t(0), t(5000), &th);
        assert!(v.get(Feature::Ran(
            Direction::Downlink,
            RanEvent::AllocatedTbsDown
        )));
        // Low then high (recovery): no.
        let recs = vec![mk(0, 10), mk(100, 20), mk(200, 50), mk(300, 50)];
        let b = bundle_with(vec![], vec![], recs);
        let v = extract_features(&b, t(0), t(5000), &th);
        assert!(!v.get(Feature::Ran(
            Direction::Downlink,
            RanEvent::AllocatedTbsDown
        )));
    }

    #[test]
    fn resolution_drop() {
        let th = Thresholds::default();
        let mut app: Vec<AppStatsRecord> = (0..100).map(|i| sample(i * 50)).collect();
        for s in app.iter_mut().take(50) {
            s.outbound_resolution = Resolution::R540p;
        }
        for s in app.iter_mut().skip(50) {
            s.outbound_resolution = Resolution::R360p;
        }
        let b = bundle_with(app, vec![], vec![]);
        let v = extract_features(&b, t(0), t(5000), &th);
        assert!(v.get(Feature::App(
            ClientSide::Local,
            AppEvent::OutboundResolutionDown
        )));
    }

    #[test]
    fn playback_conditions() {
        let th = Thresholds::default();
        let pb = |ms: u64| {
            let mut s = telemetry::PlaybackStatsRecord::baseline(t(ms));
            s.started = true;
            s.buffer_ms = 5_000.0;
            s
        };
        // Healthy buffer, fixed rung: nothing fires.
        let mut b = bundle_with(vec![], vec![], vec![]);
        b.playback = (0..100).map(|i| pb(i * 50)).collect();
        let v = extract_features(&b, t(0), t(5000), &th);
        assert_eq!(v.count_active(), 0);
        // Draining buffer into a stall: buffer-low then stall.
        let mut b = bundle_with(vec![], vec![], vec![]);
        b.playback = (0..100)
            .map(|i| {
                let mut s = pb(i * 50);
                s.buffer_ms = (4_000.0 - i as f64 * 50.0).max(0.0);
                s.stalled = s.buffer_ms == 0.0;
                s
            })
            .collect();
        let v = extract_features(&b, t(0), t(5000), &th);
        assert!(v.get(Feature::Playback(PlaybackEvent::BufferLow)));
        assert!(v.get(Feature::Playback(PlaybackEvent::Stall)));
        assert!(!v.get(Feature::Playback(PlaybackEvent::LadderSwitchDown)));
        // Rung hunting: switch-down and oscillation.
        let mut b = bundle_with(vec![], vec![], vec![]);
        b.playback = (0..100)
            .map(|i| {
                let mut s = pb(i * 50);
                s.target_rung = if (i / 10) % 2 == 0 { 2 } else { 1 };
                s
            })
            .collect();
        let v = extract_features(&b, t(0), t(5000), &th);
        assert!(v.get(Feature::Playback(PlaybackEvent::LadderSwitchDown)));
        assert!(v.get(Feature::Playback(PlaybackEvent::LadderOscillation)));
        // A single clean down-switch is not oscillation.
        let mut b = bundle_with(vec![], vec![], vec![]);
        b.playback = (0..100)
            .map(|i| {
                let mut s = pb(i * 50);
                s.target_rung = if i < 50 { 3 } else { 2 };
                s
            })
            .collect();
        let v = extract_features(&b, t(0), t(5000), &th);
        assert!(v.get(Feature::Playback(PlaybackEvent::LadderSwitchDown)));
        assert!(!v.get(Feature::Playback(PlaybackEvent::LadderOscillation)));
    }

    #[test]
    fn empty_window_is_all_false() {
        let th = Thresholds::default();
        let b = bundle_with(vec![], vec![], vec![]);
        let v = extract_features(&b, t(0), t(5000), &th);
        assert_eq!(v.count_active(), 0);
    }

    #[test]
    fn backward_trace_finds_only_active_paths() {
        // a → m → c1 ; a → m → c2 ; b → m → c1/c2
        let g = crate::dsl::parse(
            "ul_harq_retx --> forward_delay_up\n\
             dl_harq_retx --> forward_delay_up\n\
             forward_delay_up --> local_jitter_buffer_drain\n\
             forward_delay_up --> local_target_bitrate_down\n",
        )
        .unwrap();
        let c1 = g.id("local_jitter_buffer_drain").unwrap();
        let mut fv = FeatureVector::new();
        // Nothing active: no chains.
        assert!(backward_trace(&g, c1, &fv).is_empty());
        // Consequence + intermediate + one cause: one chain.
        fv.set(Feature::parse("local_jitter_buffer_drain").unwrap(), true);
        fv.set(Feature::parse("forward_delay_up").unwrap(), true);
        fv.set(Feature::parse("ul_harq_retx").unwrap(), true);
        let chains = backward_trace(&g, c1, &fv);
        assert_eq!(chains.len(), 1);
        assert_eq!(g.name(chains[0][0]), "ul_harq_retx");
        assert_eq!(g.name(chains[0][2]), "local_jitter_buffer_drain");
        // Both causes active: two chains.
        fv.set(Feature::parse("dl_harq_retx").unwrap(), true);
        assert_eq!(backward_trace(&g, c1, &fv).len(), 2);
        // Consequence active but intermediate not: no *complete* chain.
        let mut fv2 = FeatureVector::new();
        fv2.set(Feature::parse("local_jitter_buffer_drain").unwrap(), true);
        fv2.set(Feature::parse("ul_harq_retx").unwrap(), true);
        assert!(backward_trace(&g, c1, &fv2).is_empty());
        assert_eq!(trace_chains(&g, &fv2), (vec![], vec![c1]));
    }
}
