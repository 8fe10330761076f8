//! The multiplexed-execution determinism contract.
//!
//! `ExecutionMode::Multiplexed { width }` advances N interleaved sessions
//! through one shared calendar queue, one shared `SessionArena`, and (live
//! mode) one session-keyed `PipelinePool` per worker; `PerWorker` is the
//! same driver at width 1. The contract: every per-session output —
//! verdicts, `ChainStats`, `LiveStats`, metadata — is **byte-identical** to
//! running each session alone, at any multiplex width and any interleaving
//! of session start offsets. Every width, 1 included, is compared against
//! an independent reference that never touches `MuxWorker`: each spec run
//! alone through the solo loop of `SessionSpec::run` with its own `LivePipeline`
//! (and `ChaosTap`), folded into the versioned plain-text
//! `ShardReport::encode` (floats as hex bit patterns), so equality is
//! byte-for-byte, not approximate.
//!
//! Interleavings are varied two ways: (a) the width itself changes which
//! sessions are co-scheduled, and (b) mixed session durations make slots
//! free at different global ticks, so refilled sessions start at staggered
//! offsets (a width-4 run over mixed durations schedules a completely
//! different offset pattern than a width-8 run). Thread count is crossed in
//! as a third axis for the live-mode case.

use domino::core::{ChainStats, Domino};
use domino::live::{ChaosState, ChaosTap, LivePipeline};
use domino::scenarios::{all_cells, ScriptAction, SessionConfig, SessionGrid, SessionSpec};
use domino::simcore::{SimDuration, SimTime};
use domino::sweep::{
    run_shard, AnalysisMode, EarlyExit, ExecutionMode, LiveConfig, SessionOutcome, ShardPlan,
    ShardReport, SweepOptions, SweepReport,
};
use domino::telemetry::{Direction, Lateness, TapChaosSpec, TapFault, TapStream};

/// A grid with deliberately mixed durations: sessions end at different
/// global ticks, so multiplexed slot refills start at staggered offsets.
fn mixed_duration_grid() -> Vec<SessionSpec> {
    SessionGrid::new()
        .cells(all_cells())
        .durations([
            SimDuration::from_secs(8),
            SimDuration::from_secs(13),
            SimDuration::from_secs(11),
        ])
        .master_seed(505)
        .build()
}

/// Encodes a whole-grid run as the versioned shard report text.
fn encode_run(specs: &[SessionSpec], opts: &SweepOptions) -> String {
    let domino = Domino::with_defaults();
    let plan = ShardPlan::new(specs.len(), 1);
    run_shard(specs, &plan.shard(0), &domino, opts).encode()
}

/// The independent reference for the one sweep driver: every spec run alone
/// through the solo loop of `SessionSpec::run` — its own arena and queue, no
/// `MuxWorker` — and, in live mode, into its own `LivePipeline` behind its
/// own `ChaosTap` where the spec carries chaos. The outcomes fold into the
/// same `ShardReport` encoding `encode_run` produces.
fn solo_reference(specs: &[SessionSpec], opts: &SweepOptions) -> String {
    let domino = Domino::with_defaults();
    let outcomes = specs
        .iter()
        .enumerate()
        .map(|(index, spec)| {
            let (bundle, analysis, live) = match opts.analysis {
                AnalysisMode::Live => {
                    let cfg = LiveConfig {
                        lateness: spec.lateness.unwrap_or(opts.live.lateness),
                        early_exit: opts.live.early_exit,
                    };
                    let mut pipe =
                        LivePipeline::new(domino.graph().clone(), domino.config().clone(), cfg)
                            .expect("streaming-aligned config");
                    let bundle = match &spec.chaos {
                        Some(plan) => {
                            let mut state = ChaosState::new(plan);
                            let mut tap = ChaosTap::new(&mut state, &mut pipe);
                            let bundle = spec.run_with_tap(&mut tap);
                            assert!(state.log.reconciled(), "chaos log must balance");
                            bundle
                        }
                        None => spec.run_with_tap(&mut pipe),
                    };
                    let analysis = pipe.take_analysis(bundle.meta.duration);
                    (bundle, Some(analysis), Some(pipe.stats()))
                }
                mode => {
                    let bundle = spec.run();
                    let analysis =
                        (mode == AnalysisMode::Streaming).then(|| domino.analyze(&bundle));
                    (bundle, analysis, None)
                }
            };
            SessionOutcome {
                index,
                label: spec.label.clone(),
                meta: bundle.meta.clone(),
                bundle: None,
                analysis: None,
                stats: analysis.map(|a| ChainStats::compute(domino.graph(), &a)),
                live,
            }
        })
        .collect();
    let report = SweepReport {
        outcomes,
        aggregate: ChainStats::default(),
        metrics: None,
    };
    ShardReport::from_sweep(&report).encode()
}

#[test]
fn multiplexed_widths_are_byte_identical_to_per_worker() {
    let specs = mixed_duration_grid();
    let sweep = |execution| SweepOptions {
        threads: 1,
        execution,
        ..Default::default()
    };
    let reference = solo_reference(&specs, &sweep(ExecutionMode::PerWorker));
    assert_eq!(
        reference,
        encode_run(&specs, &sweep(ExecutionMode::PerWorker)),
        "per-worker report diverged from the solo reference"
    );
    // Width 1 (the per-worker degenerate interleaving), then three real
    // widths whose co-scheduling (and therefore refill offsets over the
    // mixed-duration grid) all differ.
    for width in [1usize, 2, 4, 8] {
        let mux = encode_run(&specs, &sweep(ExecutionMode::Multiplexed { width }));
        assert_eq!(
            reference, mux,
            "width-{width} multiplexed report diverged from the solo reference"
        );
    }
}

#[test]
fn multiplexed_live_mode_is_byte_identical_across_widths_and_threads() {
    // Live mode: each interleaved session is fed by a pipeline leased from
    // the worker's pool; reorder buffers, packet rings, and analyzers
    // are recycled across call starts/ends. A lateness bound beyond any
    // in-network delay keeps the live = batch precondition intact, so any
    // divergence here is the pool's or the scheduler's fault. Every third
    // session also runs behind a seeded telemetry-chaos tap.
    let specs: Vec<SessionSpec> = mixed_duration_grid()
        .into_iter()
        .enumerate()
        .map(|(i, spec)| {
            if i % 3 == 0 {
                spec.with_chaos(
                    TapChaosSpec::new(0xC4A0 + i as u64)
                        .fault(TapFault::Drop {
                            stream: TapStream::Gnb,
                            pct: 15,
                        })
                        .fault(TapFault::Delay {
                            stream: TapStream::AppLocal,
                            pct: 20,
                            max_delay: SimDuration::from_millis(700),
                        }),
                )
            } else {
                spec
            }
        })
        .collect();
    let live_opts = |execution, threads| SweepOptions {
        threads,
        execution,
        analysis: AnalysisMode::Live,
        live: LiveConfig {
            lateness: Lateness::Static(SimDuration::from_secs(30)),
            early_exit: EarlyExit::Never,
        },
        ..Default::default()
    };
    let reference = solo_reference(&specs, &live_opts(ExecutionMode::PerWorker, 1));
    for width in [1usize, 2, 5, 8] {
        for threads in [1usize, 2] {
            let mux = encode_run(
                &specs,
                &live_opts(ExecutionMode::Multiplexed { width }, threads),
            );
            assert_eq!(
                reference, mux,
                "live width-{width}/threads-{threads} report diverged"
            );
        }
    }
}

#[test]
fn mixed_tick_specs_park_without_perturbing_the_lattice() {
    // Specs whose engine tick differs from the group lattice cannot be
    // interleaved; the driver parks them until the active set drains, then
    // starts them on a fresh lattice. Claim order matters here: the first
    // session is short, so its slot frees mid-flight and the mismatched-tick
    // spec is claimed while other sessions still hold future route events
    // in the shared queue — starting it on its own clock then would destroy
    // those events and corrupt the in-flight sessions.
    let cells = all_cells();
    let mk = |i: usize, secs: u64, tick_ms: u64| {
        SessionSpec::cell(
            cells[i % cells.len()].clone(),
            SessionConfig {
                duration: SimDuration::from_secs(secs),
                seed: 11_000 + i as u64,
                tick: SimDuration::from_millis(tick_ms),
                ..Default::default()
            },
        )
        .labelled(format!("mixed-{i}"))
    };
    // A degenerate spec whose duration is shorter than its tick: zero
    // engine ticks may run, so the driver must finalise it without ever
    // beginning one (the solo driver's `while !is_done()` guard).
    let micro = SessionSpec::cell(
        cells[0].clone(),
        SessionConfig {
            duration: SimDuration::from_micros(500),
            seed: 11_900,
            ..Default::default()
        },
    )
    .labelled("mixed-micro");
    let specs = vec![
        mk(0, 6, 1), // short: frees its slot first
        mk(1, 14, 1),
        mk(2, 12, 2), // mismatched tick, claimed mid-flight at width 2
        micro,
        mk(3, 10, 1),
        mk(4, 9, 2), // another mismatch
        mk(5, 12, 1),
    ];
    let sweep = SweepOptions {
        threads: 1,
        ..Default::default()
    };
    let reference = solo_reference(&specs, &sweep);
    for width in [1usize, 2, 4] {
        let mux = encode_run(
            &specs,
            &SweepOptions {
                threads: 1,
                execution: ExecutionMode::Multiplexed { width },
                ..Default::default()
            },
        );
        assert_eq!(reference, mux, "mixed-tick width-{width} report diverged");
    }

    // Atypical tick claimed FIRST: it must not pin the lattice for the
    // whole sweep (the driver re-fixes the group tick when the active set
    // drains), and the output stays byte-identical either way.
    let mut atypical_first = specs;
    atypical_first.swap(0, 2); // the 2 ms-tick spec leads the claim order
    let reference = solo_reference(&atypical_first, &sweep);
    let mux = encode_run(
        &atypical_first,
        &SweepOptions {
            threads: 1,
            execution: ExecutionMode::Multiplexed { width: 3 },
            ..Default::default()
        },
    );
    assert_eq!(reference, mux, "atypical-first-tick report diverged");
}

#[test]
fn early_exit_refills_keep_staggered_sessions_identical() {
    // Early-exit triage is the operator configuration: sessions abort as
    // soon as their verdict is in, so multiplexed slots refill at highly
    // irregular offsets (abort ticks differ per session). Each session's
    // truncated output must still match its solo run exactly.
    let mut specs = Vec::new();
    for (i, cell) in all_cells().into_iter().cycle().take(10).enumerate() {
        let mut spec = SessionSpec::cell(
            cell,
            SessionConfig {
                duration: SimDuration::from_secs(20),
                seed: 9_000 + i as u64,
                ..Default::default()
            },
        );
        if i % 3 == 0 {
            spec = spec.with_script(ScriptAction::CrossTraffic {
                dir: Direction::Downlink,
                from: SimTime::from_secs(5),
                to: SimTime::from_secs(9),
                prb_fraction: 0.95,
            });
        }
        specs.push(spec.labelled(format!("triage-{i}")));
    }
    let triage = |execution| SweepOptions {
        threads: 1,
        execution,
        analysis: AnalysisMode::Live,
        live: LiveConfig {
            lateness: Lateness::Static(SimDuration::from_secs(1)),
            early_exit: EarlyExit::StableFor(3),
        },
        ..Default::default()
    };
    let reference = solo_reference(&specs, &triage(ExecutionMode::PerWorker));
    for width in [1usize, 3, 7] {
        let mux = encode_run(&specs, &triage(ExecutionMode::Multiplexed { width }));
        assert_eq!(
            reference, mux,
            "early-exit width-{width} report diverged from the solo reference"
        );
    }
}
