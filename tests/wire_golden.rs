//! Wire-format goldens: fixed inputs, encoded by each plain-text format,
//! compared byte for byte against the fixtures under `tests/wire/`.
//!
//! Every determinism suite compares two runs of the *same* encoder, so a
//! change that altered every encoding the same way would pass them all.
//! These fixtures pin the bytes themselves. They are never regenerated: a
//! format that must change gets a new version line, and old fixtures keep
//! parsing. Each case checks `encode(input) == fixture` and, where the
//! format has a parser, `encode(parse(fixture)) == fixture`. None of the
//! inputs runs the simulator.

use domino::core::ChainStats;
use domino::live::LiveStats;
use domino::obs::{Counter, FGauge, Gauge, HistId, MetricsSnapshot, ObsConfig, Recorder, SpanId};
use domino::simcore::SimDuration;
use domino::sweep::{
    merge_shards, CoordinatorStats, DispatchSpec, Frame, LiveTotals, ShardReport, SpecOutcome,
};
use domino::telemetry::{CellClass, Duplexing, SessionMeta, TapStream};

const SHARD_REPORT: &str = include_str!("wire/shard_report.txt");
const METRICS_SIM: &str = include_str!("wire/metrics_sim.txt");
const METRICS_RUNTIME: &str = include_str!("wire/metrics_runtime.txt");
const COORDINATOR_STATS: &str = include_str!("wire/coordinator_stats.txt");
const FRAME_HELLO: &str = include_str!("wire/frame_hello.txt");
const FRAME_DISPATCH: &str = include_str!("wire/frame_dispatch.txt");
const FRAME_RESULT: &str = include_str!("wire/frame_result.txt");
const FRAME_DRAIN: &str = include_str!("wire/frame_drain.txt");

/// A label, cell name, and map key carrying every escaped separator.
const AWKWARD: &str = "tab\there, newline\nthere, back\\slash, cr\r";

fn chain_stats(minutes: f64, n: usize) -> ChainStats {
    let mut s = ChainStats {
        minutes,
        ..Default::default()
    };
    s.cause_onsets.insert("harq_retx".to_string(), n);
    s.cause_onsets.insert(AWKWARD.to_string(), 1);
    s.consequence_onsets
        .insert("jitter_buffer_drain".to_string(), n + 1);
    s.consequence_windows
        .insert("jitter_buffer_drain".to_string(), 3 * n);
    s.consequence_windows
        .insert("target_bitrate_down".to_string(), 2);
    s.unknown_windows
        .insert("target_bitrate_down".to_string(), 1);
    s.chain_windows.insert(
        ("harq_retx".to_string(), "jitter_buffer_drain".to_string()),
        n,
    );
    s.chain_windows
        .insert((AWKWARD.to_string(), "target_bitrate_down".to_string()), 1);
    s.total_chain_windows = n + 1;
    s
}

fn meta(cell_name: &str, commercial: bool, seed: u64) -> SessionMeta {
    SessionMeta {
        cell_name: cell_name.to_string(),
        cell_class: if commercial {
            CellClass::Commercial
        } else {
            CellClass::Private
        },
        carrier_mhz: if commercial { 1930.1 } else { 3547.2 },
        bandwidth_mhz: if commercial { 15.0 } else { 20.0 },
        duplexing: if commercial {
            Duplexing::Fdd
        } else {
            Duplexing::Tdd
        },
        duration: SimDuration::from_micros(12_345_678),
        seed,
        has_gnb_log: !commercial,
    }
}

/// Three outcomes: stats without live, live (with a per-stream breakout)
/// without stats, and both (healthy live, so no breakout line). The
/// aggregate and live totals are re-folded by `merge_shards`.
fn shard_report() -> ShardReport {
    let mut drops = [0usize; TapStream::COUNT];
    drops[TapStream::Dci.idx()] = 3;
    drops[TapStream::Packet.idx()] = 1;
    let outcomes = vec![
        SpecOutcome {
            index: 0,
            label: format!("call 0 / {AWKWARD}"),
            meta: meta(AWKWARD, true, u64::MAX - 7),
            stats: Some(chain_stats(0.1 + 0.2, 4)),
            live: None,
        },
        SpecOutcome {
            index: 1,
            label: "call 1".to_string(),
            meta: meta("Amarisoft 20 MHz TDD", false, 42),
            stats: None,
            live: Some(LiveStats {
                records_seen: 90_210,
                late_records_dropped: 4,
                late_deliveries: 2,
                windows_emitted: 110,
                peak_retained_records: 1_733,
                early_exited: false,
                late_drops_by_stream: drops,
                degraded_windows: 5,
            }),
        },
        SpecOutcome {
            index: 2,
            label: "call 2".to_string(),
            meta: meta("T-Mobile 15 MHz FDD", true, 0),
            stats: Some(chain_stats(1.25, 7)),
            live: Some(LiveStats {
                records_seen: 501,
                windows_emitted: 9,
                peak_retained_records: 480,
                early_exited: true,
                ..Default::default()
            }),
        },
    ];
    let unfolded = ShardReport {
        shard_index: 0,
        shard_count: 1,
        start: 0,
        grid_total: outcomes.len(),
        outcomes,
        aggregate: ChainStats::default(),
        live_totals: LiveTotals::default(),
    };
    merge_shards(&[unfolded]).expect("one report tiles its grid")
}

fn recorder() -> Recorder {
    let mut r = Recorder::new(ObsConfig::full());
    r.add(Counter::EngineTicks, 1000);
    r.add(Counter::EngineSimTimeUs, 12_000_000);
    r.add(Counter::NetPackets, 77);
    r.add(Counter::ChaosRecordsDropped, 3);
    r.add(Counter::PoolReused, 5);
    r.gauge_max(Gauge::LivePeakRetained, 1_733);
    r.gauge_max(Gauge::ArenaFootprint, 4096);
    r.fgauge_max(FGauge::RanPrbUtilPeak, 0.1 + 0.2);
    for v in [12, 250, 250, 9_000] {
        r.observe(HistId::LiveVerdictLatencyMs, v);
    }
    r.observe(HistId::RanPrbUtilPct, 0);
    r
}

fn coordinator_stats() -> CoordinatorStats {
    CoordinatorStats {
        workers_connected: 4,
        workers_peak: 3,
        worker_deaths: 1,
        dispatches: 9,
        ranges_completed: 6,
        retries: 2,
        straggler_reissues: 5,
        steals: 7,
        duplicates_discarded: 8,
        corrupt_reports: 11,
        worker_live_ms: 1_234,
        wall_ms: 567,
    }
}

fn assert_bytes(what: &str, got: &str, fixture: &str) {
    assert!(
        got == fixture,
        "{what}: encoding differs from tests/wire fixture\n--- fixture\n{fixture}\n--- encoded\n{got}"
    );
}

/// Decodes exactly one frame from `fixture` and re-encodes it.
fn decode_one(fixture: &str) -> Frame {
    let mut buf = fixture.as_bytes().to_vec();
    let frame = Frame::decode(&mut buf)
        .expect("fixture frame decodes")
        .expect("fixture frame is complete");
    assert!(buf.is_empty(), "fixture holds exactly one frame");
    assert_bytes(
        "frame re-encode",
        std::str::from_utf8(&frame.encode()).expect("frames are text"),
        fixture,
    );
    frame
}

#[test]
fn shard_report_bytes_are_pinned() {
    let report = shard_report();
    assert_bytes("ShardReport::encode", &report.encode(), SHARD_REPORT);
    let parsed = ShardReport::parse(SHARD_REPORT).expect("fixture parses");
    assert_eq!(parsed, report);
    assert_bytes("ShardReport re-encode", &parsed.encode(), SHARD_REPORT);
}

#[test]
fn metrics_snapshot_bytes_are_pinned() {
    let snap = recorder().snapshot().expect("recorder is on");
    assert_bytes(
        "MetricsSnapshot::encode_sim",
        &snap.encode_sim(),
        METRICS_SIM,
    );
    let parsed = MetricsSnapshot::parse(METRICS_SIM).expect("fixture parses");
    assert!(!parsed.has_runtime);
    assert_bytes("MetricsSnapshot re-encode", &parsed.encode(), METRICS_SIM);
}

#[test]
fn metrics_snapshot_runtime_section_round_trips() {
    // Span walls are clock reads, so this fixture pins the format only
    // through the round trip.
    let parsed = MetricsSnapshot::parse(METRICS_RUNTIME).expect("fixture parses");
    assert!(parsed.has_runtime);
    assert!(parsed.span(SpanId::BeginTick).calls > 0);
    assert_bytes(
        "MetricsSnapshot re-encode",
        &parsed.encode(),
        METRICS_RUNTIME,
    );
}

#[test]
fn coordinator_stats_bytes_are_pinned() {
    assert_bytes(
        "CoordinatorStats::encode",
        &coordinator_stats().encode(),
        COORDINATOR_STATS,
    );
}

#[test]
fn frame_bytes_are_pinned() {
    let dispatch = DispatchSpec {
        range_id: 3,
        start: 6,
        len: 2,
        total: 12,
        ranges: 6,
    };
    for (frame, fixture) in [
        (Frame::hello("worker-7"), FRAME_HELLO),
        (Frame::dispatch(&dispatch), FRAME_DISPATCH),
        (Frame::result(3, SHARD_REPORT), FRAME_RESULT),
        (Frame::drain(), FRAME_DRAIN),
    ] {
        let encoded = frame.encode();
        assert_bytes(
            "Frame::encode",
            std::str::from_utf8(&encoded).expect("frames are text"),
            fixture,
        );
        assert_eq!(decode_one(fixture), frame);
    }

    let frame = decode_one(FRAME_DISPATCH);
    let parsed = DispatchSpec::parse(&frame.payload).expect("dispatch payload parses");
    assert_eq!(parsed, dispatch);
    assert_eq!(Frame::dispatch(&parsed), frame);

    let frame = decode_one(FRAME_RESULT);
    let (range_id, body) = Frame::parse_result(&frame.payload).expect("result payload parses");
    let report = ShardReport::parse(body).expect("embedded report parses");
    assert_eq!(Frame::result(range_id, &report.encode()), frame);
}
