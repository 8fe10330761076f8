//! Allocation budget of the simulate-then-analyze hot path (PR 4).
//!
//! Installs `simcore::alloc_count::CountingAlloc` as this binary's global
//! allocator and meters whole sessions run one at a time through a warm
//! [`MuxWorker`] (the sweep driver at width 1). The budgets are
//! deliberately loose (×2-ish headroom) so they survive compiler/std drift,
//! while still being far below the pre-arena baseline (~6 allocations per
//! engine tick; the scrubbed path runs at under a third of one per tick).
//!
//! Counters are process-global, so every test here serializes on one mutex
//! and tolerates nothing else running — keep this binary free of
//! unrelated tests.

use std::sync::Mutex;

use domino::core::{Domino, StreamingAnalyzer};
use domino::obs::{Counter, FGauge};
use domino::scenarios::{SessionConfig, SessionSpec};
use domino::simcore::alloc_count::{self, CountingAlloc};
use domino::simcore::SimDuration;
use domino::sweep::{MuxWorker, ObsConfig, SessionOutcome, SweepOptions};

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

static SERIAL: Mutex<()> = Mutex::new(());

/// Runs `spec` alone through `worker`'s sweep driver (width 1).
fn run_one(
    worker: &mut MuxWorker,
    spec: &SessionSpec,
    domino: &Domino,
    opts: &SweepOptions,
) -> SessionOutcome {
    let mut outcomes = worker.run_batch(std::slice::from_ref(spec), 1, domino, opts);
    outcomes.pop().expect("one outcome")
}

fn spec(seed: u64, secs: u64) -> SessionSpec {
    SessionSpec::cell(
        domino::scenarios::amarisoft(),
        SessionConfig {
            duration: SimDuration::from_secs(secs),
            seed,
            ..Default::default()
        },
    )
}

fn many_ue_spec(seed: u64, secs: u64, ues: usize) -> SessionSpec {
    let mut cell = domino::scenarios::amarisoft();
    cell.traffic_ues = domino::ran::traffic_mix(ues);
    SessionSpec::cell(
        cell,
        SessionConfig {
            duration: SimDuration::from_secs(secs),
            seed,
            ..Default::default()
        },
    )
}

#[test]
fn warm_worker_sessions_stay_within_allocation_budget() {
    let _guard = SERIAL.lock().unwrap();
    let secs = 15u64;
    let ticks = secs * 1000; // 1 ms engine tick
    let domino = Domino::with_defaults();
    let opts = SweepOptions::default();
    let mut worker = MuxWorker::new(&domino, &opts);

    // Session 1 warms the arena (bundle growth, queue buckets, map).
    let (_, cold) = alloc_count::measure(|| run_one(&mut worker, &spec(31, secs), &domino, &opts));

    // Sessions 2+: simulation + streaming analysis in warmed buffers.
    let mut per_session = Vec::new();
    for _ in 1..4 {
        let (outcome, warm) =
            alloc_count::measure(|| run_one(&mut worker, &spec(31, secs), &domino, &opts));
        assert!(outcome.stats.is_some());
        per_session.push(warm.allocations);
    }
    let worst = *per_session.iter().max().unwrap();
    eprintln!(
        "cold session: {} allocs; warm sessions: {per_session:?} ({ticks} ticks)",
        cold.allocations
    );

    // The budget: about twice the 2 197 allocations a warm session makes,
    // under 0.3 per engine tick (the seed path performed ~6/tick). This is
    // the regression tripwire for a stray per-tick `collect()`/`Vec::new`
    // or a per-packet map that allocates nodes.
    assert!(
        worst < 4_400,
        "warm session allocates {worst}× for {ticks} ticks — hot path regressed"
    );
    // And warming must not cost more than the cold session (sanity).
    assert!(worst <= cold.allocations);
}

#[test]
fn session_simulation_alone_is_allocation_light() {
    let _guard = SERIAL.lock().unwrap();
    let secs = 12u64;
    let domino = Domino::with_defaults();
    let opts = SweepOptions {
        analysis: domino::sweep::AnalysisMode::None,
        ..Default::default()
    };
    let mut worker = MuxWorker::new(&domino, &opts);
    run_one(&mut worker, &spec(32, secs), &domino, &opts); // warm
    let (outcome, stats) =
        alloc_count::measure(|| run_one(&mut worker, &spec(32, secs), &domino, &opts));
    assert!(outcome.stats.is_none());
    eprintln!(
        "sim-only warm session: {} allocs / {} ticks",
        stats.allocations,
        secs * 1000
    );
    // Simulation without analysis: about twice the 1 438 allocations it
    // makes, a quarter of one per tick.
    assert!(stats.allocations < 3_000);
}

/// The enabled recorder must not reopen the allocation faucet either: its
/// hot path (counter adds, histogram observes, span enter/exit, per-slot
/// RAN accumulation) is arithmetic on preallocated arrays. The only
/// per-session allocation observability may add is the boxed `RanCellObs`
/// handed to the cell at session start.
#[test]
fn enabled_recorder_stays_within_allocation_budget() {
    let _guard = SERIAL.lock().unwrap();
    let secs = 12u64;
    let ticks = secs * 1000;
    let domino = Domino::with_defaults();

    // Baseline: warm session with the recorder off.
    let plain_opts = SweepOptions::default();
    let mut plain = MuxWorker::new(&domino, &plain_opts);
    run_one(&mut plain, &spec(33, secs), &domino, &plain_opts);
    let (_, base) =
        alloc_count::measure(|| run_one(&mut plain, &spec(33, secs), &domino, &plain_opts));

    // Same session with the recorder at full sampling.
    let obs_opts = SweepOptions {
        obs: ObsConfig::full(),
        ..Default::default()
    };
    let mut worker = MuxWorker::new(&domino, &obs_opts);
    run_one(&mut worker, &spec(33, secs), &domino, &obs_opts);
    let (_, on) =
        alloc_count::measure(|| run_one(&mut worker, &spec(33, secs), &domino, &obs_opts));

    eprintln!(
        "warm session allocs: {} recorder-off, {} recorder-on ({ticks} ticks)",
        base.allocations, on.allocations
    );
    // About twice the 1 664 allocations the warm recorder-on session
    // makes, under 0.3 per engine tick.
    assert!(
        on.allocations < 3_400,
        "obs-on session allocates {} for {ticks} ticks — the recorder path regressed",
        on.allocations
    );
    assert!(
        on.allocations <= base.allocations + 32,
        "recorder added {} allocations over the {} baseline",
        on.allocations - base.allocations,
        base.allocations
    );

    // And it actually recorded: this binary has `CountingAlloc` installed,
    // so the snapshot carries live per-session allocation accounting.
    let snap = worker
        .recorder_mut()
        .take_snapshot()
        .expect("recorder was on");
    assert_eq!(snap.counter(Counter::EngineSessions), 2);
    assert_eq!(snap.counter(Counter::EngineTicks), 2 * ticks);
    assert!(snap.counter(Counter::ProcAllocs) > 0);
    let (allocs_per_tick, updates) = snap.fgauge(FGauge::AllocsPerTickPeak);
    assert!(updates == 2 && allocs_per_tick.is_finite() && allocs_per_tick >= 0.0);
}

/// Many-UE cells must not reopen the allocation faucet: once the arena's
/// leased [`domino::ran::CellUeTable`] columns are grown, steady-state
/// allocations per *slot* stay below 0.5 regardless of how many scripted
/// UEs share the cell. (The SoA slot loop touches only flat arrays; the
/// budget is per slot — 2 000 slots/s on this TDD cell — because that is
/// the unit the per-UE sweep multiplies.)
#[test]
fn many_ue_cell_stays_allocation_flat() {
    let _guard = SERIAL.lock().unwrap();
    let secs = 10u64;
    let slots = secs * 2000; // 0.5 ms TDD slots
    let domino = Domino::with_defaults();
    let opts = SweepOptions {
        analysis: domino::sweep::AnalysisMode::None,
        ..Default::default()
    };
    let mut worker = MuxWorker::new(&domino, &opts);
    for ues in [1usize, 8, 32, 64] {
        // First run at this population warms the table columns…
        run_one(&mut worker, &many_ue_spec(40, secs, ues), &domino, &opts);
        // …then the warm run must be allocation-flat.
        let (_, stats) = alloc_count::measure(|| {
            run_one(&mut worker, &many_ue_spec(40, secs, ues), &domino, &opts)
        });
        let per_slot = stats.allocations as f64 / slots as f64;
        eprintln!(
            "{ues} traffic UEs: {} allocs / {slots} slots = {per_slot:.4}/slot",
            stats.allocations
        );
        assert!(
            per_slot < 0.5,
            "{ues}-UE warm session allocates {per_slot:.3}/slot — SoA loop regressed"
        );
    }
}

/// The ABR playback endpoint must lease from the [`SessionArena`] like the
/// RTC one: after a cold session grows the client/server buffers and the
/// engine worker, warm streaming sessions stay within a budget of about
/// twice what they make today. This is the tripwire for the streaming
/// workload quietly re-opening the allocation faucet the arena closed.
#[test]
fn abr_sessions_stay_within_allocation_budget() {
    let _guard = SERIAL.lock().unwrap();
    let secs = 12u64;
    let ticks = secs * 1000;
    let abr_spec = |seed: u64| {
        SessionSpec::cell(
            domino::scenarios::amarisoft(),
            SessionConfig {
                duration: SimDuration::from_secs(secs),
                seed,
                ..Default::default()
            },
        )
        .abr(domino::abr::AbrConfig::default())
    };
    let domino = Domino::with_defaults();
    let opts = SweepOptions::default();
    let mut worker = MuxWorker::new(&domino, &opts);

    // Cold run: arena growth, playback buffer, chunk queue capacity.
    let (_, cold) = alloc_count::measure(|| run_one(&mut worker, &abr_spec(51), &domino, &opts));

    let mut per_session = Vec::new();
    for _ in 1..4 {
        let (outcome, warm) =
            alloc_count::measure(|| run_one(&mut worker, &abr_spec(51), &domino, &opts));
        assert!(outcome.stats.is_some());
        per_session.push(warm.allocations);
    }
    let worst = *per_session.iter().max().unwrap();
    eprintln!(
        "cold ABR session: {} allocs; warm sessions: {per_session:?} ({ticks} ticks)",
        cold.allocations
    );
    // About twice the 151 allocations a warm streaming session makes,
    // under 0.03 per engine tick.
    assert!(
        worst < 300,
        "warm ABR session allocates {worst}× for {ticks} ticks — playback endpoint is not leasing"
    );
    assert!(worst <= cold.allocations);
}

/// The analyzer's rolling state lives in rings and fixed tables that keep
/// their capacity across [`StreamingAnalyzer::reset`], so once a first pass
/// over a call has grown them, analyzing the call again allocates only the
/// output: each window's chain and unknown-consequence lists, and the
/// growth of the window list.
#[test]
fn warm_streaming_analysis_allocates_only_its_output() {
    let _guard = SERIAL.lock().unwrap();
    let bundle = spec(34, 20).run();
    let mut analyzer = StreamingAnalyzer::with_defaults();
    let cold = analyzer.analyze(&bundle);
    let (warm, stats) = alloc_count::measure(|| analyzer.analyze(&bundle));
    assert_eq!(warm, cold);
    let windows = warm.windows.len() as u64;
    assert_eq!(windows, 25);
    let per_window = stats.allocations as f64 / windows as f64;
    eprintln!(
        "warm analysis of a 20 s call: {} allocs / {windows} windows = {per_window:.2}/window",
        stats.allocations
    );
    // About twice the 2.16 allocations a warm pass makes per window.
    assert!(
        per_window < 4.5,
        "warm analysis allocates {per_window:.2}× per window — the rolling state regressed"
    );
}

/// The playout-delay estimator runs once per audio packet and once per
/// completed video frame on both receivers. Once its window is full, a
/// sample must not allocate: the p95 is read from a window kept sorted in
/// place, not from a sorted copy.
///
/// The counters are process-global and a test thread the harness is just
/// starting may allocate before it blocks on `SERIAL`, so the check takes
/// the best of a few 10 000-sample runs. A per-sample allocation would
/// show in every run.
#[test]
fn warm_playout_estimator_never_allocates() {
    use domino::rtc::PlayoutDelayEstimator;
    use domino::simcore::SimTime;
    let _guard = SERIAL.lock().unwrap();
    // A delay that wanders over 0–150 ms of variation, so inserts and
    // evictions land all over the sorted window.
    let delay_ms = |i: u64| 20.0 + ((i * 7_919) % 151) as f64;
    let mut est = PlayoutDelayEstimator::new();
    let mut i = 0u64;
    let mut feed = |est: &mut PlayoutDelayEstimator, n: u64| {
        for _ in 0..n {
            est.on_delay(SimTime::from_millis(i * 20), delay_ms(i));
            i += 1;
        }
    };
    feed(&mut est, 400);
    let runs: Vec<u64> = (0..5)
        .map(|_| {
            alloc_count::measure(|| feed(&mut est, 10_000))
                .1
                .allocations
        })
        .collect();
    eprintln!("warm estimator: {runs:?} allocs per 10 000 samples");
    assert!(est.target_ms() > 40.0, "the window saw jitter");
    assert_eq!(
        runs.iter().min(),
        Some(&0),
        "warm estimator allocates while sampling"
    );
}
