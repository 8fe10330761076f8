//! The two sweep workloads, untraced: `rtc_table1` (per-worker driver, two
//! shards through the report codec and merge) and `abr_contended_mux`
//! (multiplexed driver, width 8). Each pass sweeps the whole grid once;
//! passes run back to back (closed loop) until the measurement time is up.

use std::cell::RefCell;
use std::collections::HashMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::thread::ThreadId;
use std::time::{Duration, Instant};

use domino_core::Domino;
use domino_sweep::{
    merge_shards, run_sweep, run_sweep_with_progress, ExecutionMode, Shard, ShardPlan, ShardReport,
    SweepOptions, SweepReport,
};
use scenarios::SessionSpec;

use crate::calib::Calibrator;

/// Worker threads for every workload: the benchmark host's core count.
pub const THREADS: usize = 2;

/// Sessions each multiplexed worker interleaves.
pub const MUX_WIDTH: usize = 8;

/// Shards the `rtc_table1` grid is split into.
pub const SHARDS: usize = 2;

/// Which sweep workload a [`SweepSetup`] runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SweepKind {
    /// Per-worker driver, sharded through the report codec.
    RtcTable1,
    /// Multiplexed driver, one report.
    AbrMux,
}

/// Everything a sweep pass needs, built in set-up.
pub struct SweepSetup {
    /// The workload.
    pub kind: SweepKind,
    /// The grid.
    pub specs: Vec<SessionSpec>,
    /// The analyser (the RTC or the ABR causal graph).
    pub domino: Domino,
    /// Sweep options of the measured path.
    pub opts: SweepOptions,
}

impl SweepSetup {
    /// Builds the grid and the analyser and warms the measured path up with
    /// one pass over the grid truncated to 3 s sessions.
    ///
    /// The multiplexed grid must fit the workers' slots, so that every
    /// session is claimed when a pass starts and each worker holds one
    /// batch of [`MUX_WIDTH`] for the whole pass.
    pub fn new(kind: SweepKind, seed: u64) -> SweepSetup {
        let (specs, domino, execution) = match kind {
            SweepKind::RtcTable1 => (
                crate::workloads::rtc_table1(seed),
                Domino::with_defaults(),
                ExecutionMode::PerWorker,
            ),
            SweepKind::AbrMux => (
                crate::workloads::abr_contended_mux(seed),
                Domino::new(
                    domino_core::abr_graph(),
                    domino_core::DominoConfig::default(),
                ),
                ExecutionMode::Multiplexed { width: MUX_WIDTH },
            ),
        };
        assert!(
            kind != SweepKind::AbrMux || specs.len() == THREADS * MUX_WIDTH,
            "the multiplexed grid fills every worker slot once"
        );
        let opts = SweepOptions::default().threads(THREADS).mode(execution);
        let setup = SweepSetup {
            kind,
            specs,
            domino,
            opts,
        };
        let mut warm = setup.specs.clone();
        for s in &mut warm {
            s.cfg.duration = simcore::SimDuration::from_secs(3);
        }
        std::hint::black_box(run_sweep(&warm, &setup.domino, &setup.opts));
        setup
    }

    /// The reference report bytes, from an independent path: the whole grid
    /// on one thread, run to completion one session at a time, no shards.
    pub fn reference(&self) -> ShardReport {
        let opts = SweepOptions::default()
            .threads(1)
            .mode(ExecutionMode::PerWorker);
        ShardReport::from_sweep(&run_sweep(&self.specs, &self.domino, &opts))
    }

    /// One measured pass over the grid.
    pub fn pass(&self) -> Pass {
        let started = Instant::now();
        let mut log = PassLog::default();
        let report = catch_unwind(AssertUnwindSafe(|| match self.kind {
            SweepKind::RtcTable1 => {
                let plan = ShardPlan::new(self.specs.len(), SHARDS);
                let shards: Vec<String> = plan
                    .shards()
                    .iter()
                    .map(|shard| {
                        let specs = &self.specs[shard.range.clone()];
                        let report = self.sweep(specs, &mut log);
                        shard_report(report, shard, self.specs.len()).encode()
                    })
                    .collect();
                // The shard files cross the codec like they would between
                // machines, then fold back into the whole-grid report.
                let parsed: Vec<ShardReport> = shards
                    .iter()
                    .map(|text| ShardReport::parse(text).expect("own encoding parses"))
                    .collect();
                merge_shards(&parsed).expect("shards tile the grid")
            }
            SweepKind::AbrMux => ShardReport::from_sweep(&self.sweep(&self.specs, &mut log)),
        }))
        .ok();
        let wall = started.elapsed();
        Pass {
            calib_ns: log.calib_ns,
            wall,
            verdict_latency: log.verdict_latency,
            tail_idle_share: crate::report::ratio(log.idle.as_secs_f64(), wall.as_secs_f64()),
            footprint_peak: log.footprint_peak,
            report,
        }
    }

    /// One `run_sweep_with_progress` call, logging each session's verdict
    /// latency, how long workers idled at its tail, and the arena footprint
    /// high-water mark. After each session the worker that ran it measures
    /// the host's speed in the progress callback (see [`crate::calib`]).
    ///
    /// A session's verdict latency is the host time from its claim to its
    /// outcome. The per-worker driver claims a worker's next spec right
    /// after delivering its previous outcome, so the latency is the gap
    /// between consecutive completions on one thread (the first measured
    /// from the sweep start), less the calibration in between. The
    /// multiplexed grid fits the workers' slots (see [`SweepSetup::new`]),
    /// so every session is claimed at the sweep start.
    fn sweep(&self, specs: &[SessionSpec], log: &mut PassLog) -> SweepReport {
        let sweep_start = Instant::now();
        // (worker, outcome delivered, calibrated and back to work)
        let completions: Mutex<Vec<(ThreadId, Instant, Instant)>> =
            Mutex::new(Vec::with_capacity(specs.len()));
        let calib_ns = Mutex::new(Vec::with_capacity(specs.len()));
        let footprint = AtomicU64::new(0);
        let report = run_sweep_with_progress(specs, &self.domino, &self.opts, &|p| {
            let now = Instant::now();
            footprint.fetch_max(p.arena_footprint_peak, Ordering::Relaxed);
            let ns = CALIBRATOR.with(|c| c.borrow_mut().measure());
            calib_ns.lock().expect("progress log poisoned").push(ns);
            let resumed = Instant::now();
            completions.lock().expect("progress log poisoned").push((
                std::thread::current().id(),
                now,
                resumed,
            ));
        });
        let sweep_end = Instant::now();
        log.calib_ns
            .extend(calib_ns.into_inner().expect("progress log poisoned"));
        let mut by_thread: HashMap<ThreadId, Vec<(Instant, Instant)>> = HashMap::new();
        for (t, at, resumed) in completions.into_inner().expect("progress log poisoned") {
            by_thread.entry(t).or_default().push((at, resumed));
        }
        for times in by_thread.values_mut() {
            times.sort_unstable();
        }
        // Tail idle: from the moment the first worker ran out of sessions
        // to the end of the sweep, one core had nothing to do.
        let earliest_last = if by_thread.len() < THREADS.min(specs.len()) {
            sweep_start
        } else {
            by_thread
                .values()
                .filter_map(|times| times.last().map(|&(at, _)| at))
                .min()
                .unwrap_or(sweep_start)
        };
        log.idle += sweep_end.saturating_duration_since(earliest_last);
        for times in by_thread.values() {
            let mut claimed = sweep_start;
            for &(at, resumed) in times {
                log.verdict_latency
                    .push(at.saturating_duration_since(claimed));
                if self.kind == SweepKind::RtcTable1 {
                    claimed = resumed;
                }
            }
        }
        log.footprint_peak = log.footprint_peak.max(footprint.into_inner());
        report
    }
}

/// [`domino_sweep::run_shard`]'s report for `shard`, from a sweep over the
/// shard's specs: the same outcomes with global indices and the same
/// spec-order refold. (`run_shard` itself takes no progress callback.)
pub fn shard_report(report: SweepReport, shard: &Shard, grid_total: usize) -> ShardReport {
    let mut r = ShardReport::from_sweep(&report);
    r.shard_index = shard.index;
    r.shard_count = shard.count;
    r.start = shard.range.start;
    r.grid_total = grid_total;
    for o in &mut r.outcomes {
        o.index += shard.range.start;
    }
    r
}

thread_local! {
    /// The calibration kernel of a sweep worker thread.
    static CALIBRATOR: RefCell<Calibrator> = RefCell::default();
}

#[derive(Default)]
struct PassLog {
    calib_ns: Vec<u64>,
    verdict_latency: Vec<Duration>,
    idle: Duration,
    footprint_peak: u64,
}

/// What one pass measured and produced.
pub struct Pass {
    /// Host-speed calibration times the workers measured after each
    /// session.
    pub calib_ns: Vec<u64>,
    /// Wall time of the pass, grid submitted to merged report.
    pub wall: Duration,
    /// Each session's host time from its claim to its verdict (its
    /// outcome).
    pub verdict_latency: Vec<Duration>,
    /// Share of the pass during which at least one worker had run out of
    /// sessions while another still worked.
    pub tail_idle_share: f64,
    /// Largest worker-arena footprint the progress callback reported.
    pub footprint_peak: u64,
    /// The pass's whole-grid report; `None` if the pass panicked.
    pub report: Option<ShardReport>,
}

/// Sessions of `got` that differ from `reference` (every session when the
/// pass produced no report; one when only the aggregate differs).
pub fn failed_sessions(got: Option<&ShardReport>, reference: &ShardReport) -> u64 {
    let Some(got) = got else {
        return reference.outcomes.len() as u64;
    };
    if got.encode() == reference.encode() {
        return 0;
    }
    let differing = reference
        .outcomes
        .iter()
        .enumerate()
        .filter(|(i, r)| got.outcomes.get(*i) != Some(*r))
        .count() as u64;
    differing.max(1)
}
