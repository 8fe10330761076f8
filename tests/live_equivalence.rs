//! Live ↔ batch equivalence and the constant-memory contract.
//!
//! The `domino-live` pipeline's promise (ISSUE 2): with early exit disabled
//! and a lateness bound that covers the longest in-network delay, verdicts
//! produced *during* the session are bit-identical to the batch oracle
//! over the finished bundle — while retaining only O(window + lateness)
//! trace, not O(session).
//!
//! The first half is a fuzz-style property test over randomized sessions
//! (cell, duration, seed, scripted impairment all drawn from the vendored
//! proptest shim's strategies); the second half measures the retained-record
//! high-water mark against session length.

use domino::core::{oracle, Analysis, ChainStats, Domino};
use domino::live::{EarlyExit, LiveConfig, LivePipeline};
use domino::scenarios::{all_cells, ScriptAction, SessionConfig, SessionSpec};
use domino::simcore::{SimDuration, SimTime};
use domino::telemetry::{Direction, Lateness};

use proptest::strategy::Strategy;

fn assert_identical(batch: &Analysis, live: &Analysis, label: &str) {
    assert_eq!(
        batch.windows.len(),
        live.windows.len(),
        "{label}: window counts differ"
    );
    assert_eq!(batch.duration, live.duration, "{label}");
    for (b, l) in batch.windows.iter().zip(&live.windows) {
        assert_eq!(b.start, l.start, "{label}");
        assert_eq!(
            b.features,
            l.features,
            "{label}: features diverge at {:?}: batch {:?} vs live {:?}",
            b.start,
            b.features.active_names(),
            l.features.active_names()
        );
        assert_eq!(
            b.chains, l.chains,
            "{label}: chains diverge at {:?}",
            b.start
        );
        assert_eq!(b.unknown_consequences, l.unknown_consequences, "{label}");
    }
}

/// Runs one spec through the live pipeline and the oracle, asserts
/// bit-identical output, and returns the oracle's analysis.
fn assert_live_matches_batch(spec: &SessionSpec, lateness: SimDuration, label: &str) -> Analysis {
    let domino = Domino::with_defaults();
    let mut pipe = LivePipeline::with_defaults(LiveConfig {
        lateness: Lateness::Static(lateness),
        early_exit: EarlyExit::Never,
    })
    .expect("default config is aligned");
    let bundle = spec.run_with_tap(&mut pipe);
    let live = pipe.take_analysis(bundle.meta.duration);
    let stats = pipe.stats();
    assert_eq!(
        stats.late_records_dropped, 0,
        "{label}: lateness bound too small for test"
    );
    assert_eq!(
        stats.late_deliveries, 0,
        "{label}: lateness bound too small for test"
    );
    let batch = oracle::analyze(&domino, &bundle);
    assert_identical(&batch, &live, label);
    batch
}

#[test]
fn randomized_sessions_are_bit_identical() {
    // Fuzz-style: strategies from the proptest shim, explicit case count
    // (each case simulates a full session twice-analysed, so the shim's
    // default 96 cases would dominate the suite's runtime).
    let mut rng = proptest::test_rng("randomized_sessions_are_bit_identical");
    let cells = all_cells();
    let mut any_chain = false;
    for case in 0..6 {
        let cell = cells[(0..cells.len()).generate(&mut rng)].clone();
        let secs = (10u64..=16).generate(&mut rng);
        let seed = proptest::any::<u64>().generate(&mut rng);
        let cfg = SessionConfig {
            duration: SimDuration::from_secs(secs),
            seed,
            ..Default::default()
        };
        let mut spec = SessionSpec::cell(cell, cfg);
        let script = (0u8..4).generate(&mut rng);
        let from = (4.0f64..6.0).generate(&mut rng);
        let until = from + (1.0f64..4.0).generate(&mut rng);
        let t = |s: f64| SimTime::from_micros((s * 1e6) as u64);
        let dir = if proptest::any::<bool>().generate(&mut rng) {
            Direction::Uplink
        } else {
            Direction::Downlink
        };
        spec = match script {
            0 => spec, // healthy
            1 => spec.with_script(ScriptAction::CrossTraffic {
                dir,
                from: t(from),
                to: t(until),
                prb_fraction: (0.85f64..0.98).generate(&mut rng),
            }),
            2 => spec.with_script(ScriptAction::HarqFailures {
                dir,
                from: t(from),
                to: t(until),
                fail_attempts: 1,
            }),
            _ => spec.with_script(ScriptAction::RrcRelease { at: t(from) }),
        };
        let label = format!(
            "case {case}: {} seed {seed} {secs}s script {script}",
            spec.label
        );
        // Lateness covers the whole session: the contract's precondition
        // holds by construction, so equality must be exact.
        let analysis = assert_live_matches_batch(&spec, SimDuration::from_secs(30), &label);
        any_chain |= analysis.windows.iter().any(|w| !w.chains.is_empty());
    }
    assert!(
        any_chain,
        "randomized cases never produced a chain; the fuzz is too tame"
    );
}

#[test]
fn retained_trace_is_bounded_by_window_plus_lateness_not_session() {
    // Same cell, same lateness, 3× the session length: the retained-record
    // high-water mark must stay put while the trace triples.
    let lateness = SimDuration::from_secs(2);
    let peak_and_total = |secs: u64| {
        let cfg = SessionConfig {
            duration: SimDuration::from_secs(secs),
            seed: 77,
            ..Default::default()
        };
        let mut pipe = LivePipeline::with_defaults(LiveConfig {
            lateness: Lateness::Static(lateness),
            early_exit: EarlyExit::Never,
        })
        .expect("default config is aligned");
        let bundle = domino::scenarios::SessionSpec::cell(domino::scenarios::amarisoft(), cfg)
            .run_with_tap(&mut pipe);
        let stats = pipe.stats();
        assert!(stats.windows_emitted > 0);
        assert_eq!(pipe.retained_records(), 0, "everything drained at finish");
        (stats.peak_retained_records, bundle.total_records())
    };
    let (peak_short, total_short) = peak_and_total(30);
    let (peak_long, total_long) = peak_and_total(90);
    assert!(
        total_long > 2 * total_short,
        "the long trace must actually be bigger"
    );
    assert!(
        peak_long < total_long / 4,
        "peak {} should be far below the {}-record session",
        peak_long,
        total_long
    );
    // O(window + lateness): session length must not move the peak by more
    // than noise (record rates vary a little between the two runs).
    assert!(
        (peak_long as f64) < peak_short as f64 * 1.5,
        "peak grew with session length: {peak_short} -> {peak_long}"
    );
}

#[test]
fn arena_reuse_keeps_worker_footprint_flat() {
    // The PR-4 allocation contract: a sweep worker's `SessionArena` (route
    // queue, in-flight map, scratch, recycled bundle buffers) warms up on
    // the first session and then stays byte-for-byte the same size — the
    // second and later sessions in a worker must not grow it. This is the
    // arena flavour of the flat-memory assertion above.
    use domino::sweep::{AnalysisMode, MuxWorker, SessionOutcome, SweepOptions};
    let domino = Domino::with_defaults();
    let opts = SweepOptions {
        analysis: AnalysisMode::Streaming,
        ..Default::default()
    };
    let spec = |seed: u64| {
        SessionSpec::cell(
            domino::scenarios::amarisoft(),
            SessionConfig {
                duration: SimDuration::from_secs(15),
                seed,
                ..Default::default()
            },
        )
    };
    let seeds = [61u64, 62, 63, 64];
    // One session at a time through the sweep driver, at width 1.
    let run = |worker: &mut MuxWorker, seed: u64| -> SessionOutcome {
        let mut outcomes = worker.run_batch(&[spec(seed)], 1, &domino, &opts);
        outcomes.pop().expect("one outcome")
    };
    let mut worker = MuxWorker::new(&domino, &opts);
    let fresh = worker.footprint();

    // Pass 1 warms the arena: buffer capacities rise to the workload's
    // high-water marks (different seeds have different record counts and
    // in-flight populations, so growth during this pass is expected).
    for &seed in &seeds {
        let outcome = run(&mut worker, seed);
        assert!(outcome.stats.is_some());
        assert!(outcome.bundle.is_none(), "bundle recycled into the arena");
    }
    let warm = worker.footprint();
    assert!(
        warm > fresh,
        "the first pass must warm the arena ({fresh} -> {warm})"
    );

    // Pass 2 replays the exact same workload: every session now fits the
    // warmed buffers, so the arena must not grow by a single element —
    // in particular the second run of each spec is allocation-flat.
    for &seed in &seeds {
        let outcome = run(&mut worker, seed);
        assert_eq!(
            worker.footprint(),
            warm,
            "replaying seed {seed} grew the warm arena"
        );
        assert!(outcome.stats.is_some());
    }

    // And reuse must not change results: a warm-arena session is
    // byte-identical to a fresh-arena one.
    let warm_again = run(&mut worker, 61);
    let fresh_run = run(&mut MuxWorker::new(&domino, &opts), 61);
    assert_eq!(warm_again.meta.seed, fresh_run.meta.seed);
    assert_eq!(warm_again.stats, fresh_run.stats);
}

#[test]
fn pool_reuse_and_eviction_are_output_invisible() {
    // The PipelinePool contract (ISSUE 5): a call ending and a new call
    // reusing its slot must produce output identical to a fresh pipeline —
    // whatever mix of reuse (warm buffers off the LRU free list) and
    // eviction (pipeline dropped, next checkout builds fresh) the pool's
    // bound produces.
    use domino::live::PipelinePool;
    let lateness = SimDuration::from_secs(30);
    let cfg = LiveConfig {
        lateness: Lateness::Static(lateness),
        early_exit: EarlyExit::Never,
    };
    let specs: Vec<SessionSpec> = (0..4)
        .map(|i| {
            let mut spec = SessionSpec::cell(
                domino::scenarios::all_cells()[i % 4].clone(),
                SessionConfig {
                    duration: SimDuration::from_secs(12),
                    seed: 7_100 + i as u64,
                    ..Default::default()
                },
            );
            if i % 2 == 0 {
                spec = spec.with_script(ScriptAction::CrossTraffic {
                    dir: Direction::Downlink,
                    from: SimTime::from_secs(4),
                    to: SimTime::from_secs(8),
                    prb_fraction: 0.95,
                });
            }
            spec
        })
        .collect();

    // Reference: each spec through its own fresh pipeline.
    let fresh: Vec<Analysis> = specs
        .iter()
        .map(|spec| {
            let mut pipe = LivePipeline::with_defaults(cfg).expect("aligned");
            let bundle = spec.run_with_tap(&mut pipe);
            pipe.take_analysis(bundle.meta.duration)
        })
        .collect();

    // Sequential reuse: every session rides the same pooled pipeline (the
    // pool never holds more than one idle pipeline, so each checkout is a
    // free-list reuse of the previous call's slot).
    let mut pool = PipelinePool::with_defaults(cfg).expect("aligned");
    for (i, spec) in specs.iter().enumerate() {
        let pipe = pool.checkout(i as u64);
        let bundle = spec.run_with_tap(pipe);
        let live = pipe.take_analysis(bundle.meta.duration);
        assert_identical(&fresh[i], &live, &format!("pooled reuse, spec {i}"));
        assert!(pool.release(i as u64).is_some());
    }
    assert_eq!(
        pool.stats().created,
        0,
        "all checkouts reused the free list"
    );
    assert!(pool.stats().reused >= specs.len());

    // Eviction: a zero free-list bound drops every released pipeline, so
    // each checkout constructs from scratch — output must not care.
    let mut pool = PipelinePool::with_defaults(cfg)
        .expect("aligned")
        .max_free(0);
    for (i, spec) in specs.iter().enumerate() {
        let pipe = pool.checkout(i as u64);
        let bundle = spec.run_with_tap(pipe);
        let live = pipe.take_analysis(bundle.meta.duration);
        assert_identical(&fresh[i], &live, &format!("post-eviction, spec {i}"));
        pool.release(i as u64);
    }
    assert_eq!(
        pool.stats().evicted,
        specs.len() + 1,
        "probe + each release"
    );

    // Interleaved width-2 lease pattern (checkout 2, finish one, refill its
    // slot): the reused slot's next session still matches its fresh run.
    let mut pool = PipelinePool::with_defaults(cfg).expect("aligned");
    let run = |pool: &mut PipelinePool, sid: u64, spec: &SessionSpec| -> Analysis {
        let pipe = pool.get_mut(sid).expect("leased");
        let bundle = spec.run_with_tap(pipe);
        let a = pipe.take_analysis(bundle.meta.duration);
        pool.release(sid);
        a
    };
    pool.checkout(0);
    pool.checkout(1);
    let a0 = run(&mut pool, 0, &specs[0]);
    pool.checkout(2); // reuses session 0's pipeline while 1 is still leased
    let a1 = run(&mut pool, 1, &specs[1]);
    let a2 = run(&mut pool, 2, &specs[2]);
    assert_identical(&fresh[0], &a0, "interleaved slot 0");
    assert_identical(&fresh[1], &a1, "interleaved slot 1");
    assert_identical(&fresh[2], &a2, "interleaved slot 2 (reused slot 0)");
}

#[test]
fn live_sweep_mode_matches_batch_sweep() {
    use domino::sweep::{run_sweep, AnalysisMode, SweepOptions};
    let specs: Vec<SessionSpec> = all_cells()
        .into_iter()
        .map(|cell| {
            SessionSpec::cell(
                cell,
                SessionConfig {
                    duration: SimDuration::from_secs(12),
                    seed: 2024,
                    ..Default::default()
                },
            )
        })
        .collect();
    let domino = Domino::with_defaults();
    let live = run_sweep(
        &specs,
        &domino,
        &SweepOptions {
            analysis: AnalysisMode::Live,
            live: LiveConfig {
                lateness: Lateness::Static(SimDuration::from_secs(30)),
                early_exit: EarlyExit::Never,
            },
            keep_bundles: true,
            keep_analyses: true,
            ..Default::default()
        },
    );
    let mut aggregate = ChainStats::default();
    for o in &live.outcomes {
        let batch = oracle::analyze(&domino, o.bundle.as_ref().unwrap());
        assert_identical(&batch, o.analysis.as_ref().unwrap(), &o.label);
        aggregate.merge(&ChainStats::compute(domino.graph(), &batch));
    }
    assert_eq!(live.aggregate, aggregate);
}
