//! The parallel sweep engine must be schedule-independent: the same grid
//! yields byte-identical aggregates whether it runs on one thread or many,
//! and repeated runs reproduce each other exactly.

use domino::core::{oracle, ChainStats, Domino};
use domino::scenarios::{SessionGrid, SessionSpec};
use domino::simcore::{derive_seed, SimDuration};
use domino::sweep::{run_sweep, AnalysisMode, SweepOptions};

fn grid() -> Vec<SessionSpec> {
    SessionGrid::new()
        .cells(domino::scenarios::all_cells())
        .durations([SimDuration::from_secs(15)])
        .sessions_per_point(2)
        .master_seed(77)
        .build()
}

#[test]
fn parallel_sweep_matches_sequential_order() {
    let specs = grid();
    let domino = Domino::with_defaults();
    let sequential = run_sweep(
        &specs,
        &domino,
        &SweepOptions {
            threads: 1,
            keep_analyses: true,
            ..Default::default()
        },
    );
    let parallel = run_sweep(
        &specs,
        &domino,
        &SweepOptions {
            threads: 8,
            keep_analyses: true,
            ..Default::default()
        },
    );

    assert_eq!(sequential.outcomes.len(), parallel.outcomes.len());
    for (s, p) in sequential.outcomes.iter().zip(&parallel.outcomes) {
        assert_eq!(s.index, p.index, "outcomes must come back in spec order");
        assert_eq!(s.label, p.label);
        assert_eq!(s.meta.seed, p.meta.seed);
        let (sa, pa) = (s.analysis.as_ref().unwrap(), p.analysis.as_ref().unwrap());
        assert_eq!(sa.windows.len(), pa.windows.len());
        for (x, y) in sa.windows.iter().zip(&pa.windows) {
            assert_eq!(x.features, y.features);
            assert_eq!(x.chains, y.chains);
        }
    }

    // Aggregates fold in spec order, so they are identical, not just close.
    assert_eq!(
        sequential.aggregate.total_chain_windows,
        parallel.aggregate.total_chain_windows
    );
    assert_eq!(
        sequential.aggregate.cause_onsets,
        parallel.aggregate.cause_onsets
    );
    assert_eq!(
        sequential.aggregate.consequence_onsets,
        parallel.aggregate.consequence_onsets
    );
    assert_eq!(
        sequential.aggregate.chain_windows,
        parallel.aggregate.chain_windows
    );
    assert_eq!(
        sequential.aggregate.unknown_windows,
        parallel.aggregate.unknown_windows
    );
    assert!((sequential.aggregate.minutes - parallel.aggregate.minutes).abs() < 1e-12);
}

#[test]
fn streaming_mode_equals_batch_mode_across_a_sweep() {
    let specs = grid();
    let domino = Domino::with_defaults();
    let opts = SweepOptions {
        analysis: AnalysisMode::Streaming,
        ..SweepOptions::full()
    };
    let streaming = run_sweep(&specs, &domino, &opts);
    // Every session against the batch oracle over its kept bundle, and the
    // aggregate against the oracle's statistics folded in spec order.
    let mut batch = ChainStats::default();
    for o in &streaming.outcomes {
        let analysis = oracle::analyze(&domino, o.bundle.as_ref().expect("kept"));
        assert_eq!(o.analysis.as_ref(), Some(&analysis), "{}", o.label);
        batch.merge(&ChainStats::compute(domino.graph(), &analysis));
    }
    assert_eq!(streaming.aggregate, batch);
}

#[test]
fn derived_seeds_make_grid_extension_stable() {
    // Growing the grid must not change the sessions already in it: seeds key
    // off (master, index), not off the grid shape.
    let small = SessionGrid::new()
        .cells(domino::scenarios::all_cells())
        .durations([SimDuration::from_secs(15)])
        .sessions_per_point(1)
        .master_seed(5)
        .build();
    let large = SessionGrid::new()
        .cells(domino::scenarios::all_cells())
        .durations([SimDuration::from_secs(15), SimDuration::from_secs(30)])
        .sessions_per_point(1)
        .master_seed(5)
        .build();
    // The first session of each cell block keeps its derivation function.
    assert_eq!(small[0].cfg.seed, derive_seed(5, 0));
    assert_eq!(large[0].cfg.seed, derive_seed(5, 0));
}
