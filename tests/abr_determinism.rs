//! The ABR streaming workload carries the same determinism contract as the
//! RTC one: golden stall/oscillation verdicts on a scripted degradation,
//! byte-identical sweep reports across thread counts, shard counts, and
//! multiplex widths over a `segment × ladder × buffer` axis grid, and
//! streaming ≡ batch analysis over the ABR causal graph.

use std::collections::BTreeSet;

use domino::abr::{default_ladder, AbrConfig};
use domino::core::{abr_graph, oracle, ChainStats, Domino, DominoConfig};
use domino::scenarios::{
    expand_product, AxisPatch, ScenarioAxis, ScriptAction, SeedPolicy, SessionConfig, SessionSpec,
};
use domino::simcore::{SimDuration, SimTime};
use domino::sweep::{
    merge_shards, run_shard, run_sweep, AnalysisMode, ExecutionMode, ShardPlan, ShardReport,
    SweepOptions,
};
use domino::telemetry::Direction;

/// A streaming session squeezed hard enough mid-call that the buffer
/// drains into a stall and the controller hunts the ladder.
fn degraded_spec(seed: u64) -> SessionSpec {
    let mut cell = domino::scenarios::tmobile_fdd_15mhz_quiet();
    cell.traffic_ues = domino::ran::traffic_mix(12);
    SessionSpec::cell(
        cell,
        SessionConfig {
            duration: SimDuration::from_secs(60),
            seed,
            ..Default::default()
        },
    )
    .abr(AbrConfig::default())
    .with_script(ScriptAction::CrossTraffic {
        dir: Direction::Downlink,
        from: SimTime::from_secs(18),
        to: SimTime::from_secs(30),
        prb_fraction: 0.95,
    })
    .with_script(ScriptAction::Sinr {
        dir: Direction::Downlink,
        from: SimTime::from_secs(42),
        to: SimTime::from_secs(48),
        sinr_db: -2.0,
    })
}

/// The `segment duration × ladder × buffer target` grid the CI byte-diff
/// jobs run (same shape as `examples/sharded_sweep.rs --grid abr`).
fn abr_grid() -> Vec<SessionSpec> {
    let base = SessionSpec::cell(
        domino::scenarios::amarisoft(),
        SessionConfig {
            duration: SimDuration::from_secs(12),
            seed: 7,
            ..Default::default()
        },
    )
    .abr(AbrConfig::default())
    .with_script(ScriptAction::CrossTraffic {
        dir: Direction::Downlink,
        from: SimTime::from_secs(3),
        to: SimTime::from_secs(9),
        prb_fraction: 0.97,
    });
    let axes = [
        ScenarioAxis::values("segment", [1u64, 2], |&s| {
            vec![AxisPatch::AbrSegmentDuration(SimDuration::from_secs(s))]
        }),
        ScenarioAxis::new("ladder")
            .point("full", vec![AxisPatch::AbrLadder(default_ladder())])
            .point(
                "low3",
                vec![AxisPatch::AbrLadder(default_ladder()[..3].to_vec())],
            ),
        ScenarioAxis::values("buffer", [4u64, 8], |&s| {
            vec![AxisPatch::AbrBufferTarget(SimDuration::from_secs(s))]
        }),
    ];
    expand_product(&base, &axes, SeedPolicy::Derived(1907))
}

fn abr_domino() -> Domino {
    Domino::new(abr_graph(), DominoConfig::default())
}

/// The golden verdicts: the scripted degradation must be attributed through
/// *both* playback consequences — buffer drain into a stall, and capacity
/// oscillation into ladder hunting — with the scripted cross-traffic among
/// the confirmed roots.
#[test]
fn degraded_stream_yields_stall_and_oscillation_verdicts() {
    let spec = degraded_spec(1907);
    let bundle = spec.run();

    // The playback trace itself records the damage.
    let last = bundle.playback.last().expect("playback stats recorded");
    assert!(last.stall_count >= 1, "the squeeze must stall playback");
    assert!(last.total_stall_ms > 0.0);
    assert!(last.segments_fetched > 20);

    let domino = abr_domino();
    let analysis = domino.analyze(&bundle);
    let mut verdicts: BTreeSet<(String, String)> = BTreeSet::new();
    for w in &analysis.windows {
        for chain in &w.chains {
            let root = domino.graph().name(chain.path[0]).to_string();
            let leaf = domino
                .graph()
                .name(*chain.path.last().expect("non-empty path"))
                .to_string();
            verdicts.insert((root, leaf));
        }
    }
    assert!(
        verdicts
            .iter()
            .any(|(r, l)| r == "cross_traffic" && l == "playback_stall"),
        "cross-traffic -> stall chain missing; got {verdicts:?}"
    );
    assert!(
        verdicts.iter().any(|(_, l)| l == "ladder_oscillation"),
        "ladder-oscillation chain missing; got {verdicts:?}"
    );
}

/// Same spec, same bytes: the whole verdict set (and the trace beneath it)
/// reproduces run over run.
#[test]
fn degraded_stream_verdicts_reproduce_exactly() {
    let a = degraded_spec(1907).run();
    let b = degraded_spec(1907).run();
    assert_eq!(a.playback.len(), b.playback.len());
    for (x, y) in a.playback.iter().zip(&b.playback) {
        assert_eq!(x.ts, y.ts);
        assert_eq!(x.stall_count, y.stall_count);
        assert_eq!(x.rung, y.rung);
        assert_eq!(x.buffer_ms.to_bits(), y.buffer_ms.to_bits());
    }
    let domino = abr_domino();
    let (wa, wb) = (domino.analyze(&a).windows, domino.analyze(&b).windows);
    assert_eq!(wa.len(), wb.len());
    for (x, y) in wa.iter().zip(&wb) {
        assert_eq!(x.features, y.features);
        assert_eq!(x.chains, y.chains);
    }
}

#[test]
fn abr_grid_is_thread_count_invariant() {
    let specs = abr_grid();
    let domino = abr_domino();
    let one = run_sweep(&specs, &domino, &SweepOptions::default().threads(1));
    let four = run_sweep(&specs, &domino, &SweepOptions::default().threads(4));
    assert_eq!(
        ShardReport::from_sweep(&one).encode(),
        ShardReport::from_sweep(&four).encode(),
        "ABR sweep report diverged across thread counts"
    );
}

#[test]
fn abr_grid_shards_merge_byte_identically() {
    let specs = abr_grid();
    let domino = abr_domino();
    let single = ShardReport::from_sweep(&run_sweep(
        &specs,
        &domino,
        &SweepOptions::default().threads(2),
    ));
    let plan = ShardPlan::new(specs.len(), 3);
    let reports: Vec<ShardReport> = plan
        .shards()
        .iter()
        .map(|s| {
            let r = run_shard(&specs, s, &domino, &SweepOptions::default().threads(1));
            ShardReport::parse(&r.encode()).expect("shard report parses")
        })
        .collect();
    let merged = merge_shards(&reports).expect("shards tile the grid");
    assert_eq!(
        single.encode(),
        merged.encode(),
        "3-shard merge diverged from the single-machine ABR sweep"
    );
}

#[test]
fn abr_grid_is_multiplex_width_invariant() {
    let specs = abr_grid();
    let domino = abr_domino();
    let encode = |opts: &SweepOptions| {
        let plan = ShardPlan::new(specs.len(), 1);
        run_shard(&specs, &plan.shard(0), &domino, opts).encode()
    };
    let reference = encode(&SweepOptions::default().threads(1));
    for width in [2usize, 8] {
        let mux = encode(
            &SweepOptions::default()
                .threads(1)
                .mode(ExecutionMode::Multiplexed { width }),
        );
        assert_eq!(
            reference, mux,
            "width-{width} multiplexed ABR report diverged from per-worker"
        );
    }
}

/// A stream with every first uplink HARQ attempt failing over 6–9 s. Its
/// uplink carries only segment requests, so its windows hold between 1 and
/// 10 target-UE retransmissions, where the HARQ threshold decides the
/// feature; the grid's windows hold none or dozens.
fn harq_threshold_spec() -> SessionSpec {
    let cfg = SessionConfig {
        duration: SimDuration::from_secs(12),
        seed: 5,
        ..Default::default()
    };
    SessionSpec::cell(domino::scenarios::amarisoft(), cfg)
        .abr(AbrConfig::default())
        .with_script(ScriptAction::HarqFailures {
            dir: Direction::Uplink,
            from: SimTime::from_secs(6),
            to: SimTime::from_secs(9),
            fail_attempts: 1,
        })
}

#[test]
fn abr_streaming_analysis_equals_batch() {
    let mut specs = abr_grid();
    specs.push(harq_threshold_spec());
    let domino = abr_domino();
    let opts = SweepOptions::full()
        .threads(1)
        .analysis(AnalysisMode::Streaming);
    let streaming = run_sweep(&specs, &domino, &opts);
    // The same report with every session's analysis and statistics
    // recomputed by the batch oracle from its kept bundle.
    let mut batch = streaming.clone();
    for o in &mut batch.outcomes {
        let analysis = oracle::analyze(&domino, o.bundle.as_ref().expect("kept"));
        o.stats = Some(ChainStats::compute(domino.graph(), &analysis));
        o.analysis = Some(analysis);
    }
    for (b, s) in batch.outcomes.iter().zip(&streaming.outcomes) {
        assert_eq!(b.analysis, s.analysis, "{}", s.label);
    }
    // The appended stream has a window with 1..=10 uplink retransmissions.
    let last = streaming.outcomes.last().expect("outcomes");
    let bundle = last.bundle.as_ref().expect("kept");
    let cfg = domino.config();
    let threshold_window = last
        .analysis
        .as_ref()
        .expect("kept")
        .windows
        .iter()
        .any(|w| {
            let retx = bundle
                .dci_window(w.start, w.start + cfg.window)
                .iter()
                .filter(|d| d.is_target_ue && d.direction == Direction::Uplink)
                .filter(|d| d.harq_retx_idx > 0)
                .count();
            (1..=cfg.thresholds.harq_retx_count).contains(&retx)
        });
    assert!(threshold_window, "no window near the HARQ threshold");
    batch.aggregate = batch.aggregate_where(|_| true);
    assert_eq!(
        ShardReport::from_sweep(&batch).encode(),
        ShardReport::from_sweep(&streaming).encode(),
        "streaming ABR analysis diverged from batch"
    );
}
