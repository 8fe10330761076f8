//! The fault-tolerant shard coordinator: a single-threaded event-loop
//! state machine that owns a sweep's sub-range plan, dispatches ranges to
//! workers over a [`Transport`], and survives crashes, stragglers,
//! corrupted reports, and duplicate deliveries — while producing a merged
//! [`ShardReport`] **byte-identical** to single-machine
//! [`run_sweep`](crate::run_sweep).
//!
//! Why byte-identity is cheap to guarantee here: workers run the ordinary
//! [`run_shard`](crate::shard::run_shard) path, whose outcome bytes depend
//! only on `(specs, range)` — never on which worker ran it, how many times
//! it was retried, or when it finished. The coordinator keeps *at most one
//! accepted report per range id* (first complete result wins; duplicates
//! are discarded by id), and [`merge_shards`] re-folds aggregates in
//! global spec order. So any schedule of failures and retries converges on
//! the same byte string, and the chaos matrix in
//! `tests/coordinator_determinism.rs` proves it.
//!
//! Robustness machinery, all driven off [`Transport::now_ms`] so it is
//! deterministic under the virtual-clock chaos harness:
//!
//! - **Deadlines + backoff**: each dispatch gets `dispatch_timeout_ms`; an
//!   expired range is requeued with exponential backoff (base doubling,
//!   capped) and a bounded attempt budget.
//! - **Straggler re-issue**: a range in flight on exactly one worker for
//!   longer than `straggler_after_ms` is re-issued to an idle worker;
//!   whichever copy finishes first wins.
//! - **Work-stealing**: when a worker dies, its in-flight ranges requeue
//!   immediately (no backoff — the worker failed, not the range).
//! - **Corruption containment**: results are parsed through
//!   [`ShardReport::parse`], whose fnv1a64 trailer rejects flipped bytes
//!   before any aggregate math; a corrupt result counts against the
//!   range's attempt budget and requeues it.

use std::collections::BTreeMap;

use domino_obs::wire::Writer;

use crate::shard::{merge_shards, ShardPlan, ShardReport};
use crate::transport::{DispatchSpec, Frame, FrameKind, Transport, TransportEvent, WorkerId};

/// Tuning knobs for [`run_coordinator`]. All times are in transport
/// milliseconds (wall clock on TCP, virtual under the chaos harness).
#[derive(Debug, Clone)]
pub struct CoordinatorConfig {
    /// Specs per dispatched sub-range (the work-stealing granularity).
    pub chunk_specs: usize,
    /// Outstanding dispatches allowed per worker.
    pub prefetch: usize,
    /// Hold the first dispatch until this many workers are connected, so
    /// work spreads across a known fleet instead of racing the earliest
    /// connections. Applies only until the threshold is first met; later
    /// deaths never re-gate dispatch. `0` dispatches eagerly. If the
    /// threshold is not met within `worker_wait_ms`, the run fails with
    /// [`CoordinatorError::WorkersLost`].
    pub min_workers: usize,
    /// Deadline for one dispatch before it is declared lost.
    pub dispatch_timeout_ms: u64,
    /// First retry backoff; doubles per attempt.
    pub backoff_base_ms: u64,
    /// Backoff cap.
    pub backoff_max_ms: u64,
    /// Attempts (dispatches) allowed per range before the run fails.
    pub max_attempts: u32,
    /// A range in flight on a single worker this long is re-issued to an
    /// idle worker (straggler hedge).
    pub straggler_after_ms: u64,
    /// How long the coordinator tolerates having work pending and zero
    /// connected workers before giving up.
    pub worker_wait_ms: u64,
    /// After the last range completes, how long to keep reading late
    /// results (hedge losers, duplicate deliveries, delayed originals) so
    /// they are accounted in the stats instead of left unread. The drain
    /// ends early once no worker has outstanding work.
    pub drain_grace_ms: u64,
}

impl Default for CoordinatorConfig {
    fn default() -> Self {
        CoordinatorConfig {
            chunk_specs: 1,
            prefetch: 2,
            min_workers: 0,
            dispatch_timeout_ms: 120_000,
            backoff_base_ms: 50,
            backoff_max_ms: 5_000,
            max_attempts: 5,
            straggler_after_ms: 30_000,
            worker_wait_ms: 60_000,
            drain_grace_ms: 250,
        }
    }
}

/// What the coordinator counted while it ran. Plain data, encoded for the
/// CI artifact with [`CoordinatorStats::encode`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CoordinatorStats {
    /// Workers that ever connected (including respawns).
    pub workers_connected: u64,
    /// Peak simultaneously-connected workers.
    pub workers_peak: u64,
    /// Worker connections that died before drain.
    pub worker_deaths: u64,
    /// Dispatch frames sent (includes retries and straggler re-issues).
    pub dispatches: u64,
    /// Ranges completed with an accepted report.
    pub ranges_completed: u64,
    /// Dispatches that expired their deadline and were requeued.
    pub retries: u64,
    /// Hedge dispatches issued against slow single-copy ranges.
    pub straggler_reissues: u64,
    /// Ranges reclaimed from dead workers and requeued.
    pub steals: u64,
    /// Result frames discarded because their range was already done.
    pub duplicates_discarded: u64,
    /// Result frames whose report failed to parse (checksum or structure)
    /// — every injected corruption must land here.
    pub corrupt_reports: u64,
    /// Total connected-time across all worker connections.
    pub worker_live_ms: u64,
    /// Transport time from start to merged report.
    pub wall_ms: u64,
}

impl CoordinatorStats {
    /// Plain-text encoding (one `key\tvalue` per line, fixed order) for
    /// the CI artifact.
    pub fn encode(&self) -> String {
        let mut w = Writer::new("domino-coordinator-stats\tv1");
        for (k, v) in [
            ("workers_connected", self.workers_connected),
            ("workers_peak", self.workers_peak),
            ("worker_deaths", self.worker_deaths),
            ("dispatches", self.dispatches),
            ("ranges_completed", self.ranges_completed),
            ("retries", self.retries),
            ("straggler_reissues", self.straggler_reissues),
            ("steals", self.steals),
            ("duplicates_discarded", self.duplicates_discarded),
            ("corrupt_reports", self.corrupt_reports),
            ("worker_live_ms", self.worker_live_ms),
            ("wall_ms", self.wall_ms),
        ] {
            w.line(k).uint(v);
        }
        w.finish()
    }
}

/// A progress snapshot streamed to the caller after every state change
/// that completes a range or changes the fleet.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CoordinatorProgress {
    /// Sub-ranges with an accepted report.
    pub ranges_done: usize,
    /// Total sub-ranges in the plan.
    pub ranges_total: usize,
    /// Specs covered by accepted reports.
    pub specs_done: usize,
    /// Total specs in the grid.
    pub specs_total: usize,
    /// Currently connected workers.
    pub workers: usize,
    /// Dispatches currently in flight.
    pub in_flight: usize,
    /// Running merged chain-window count over accepted ranges (merged in
    /// completion order — display only; the final merge is spec-ordered).
    pub chain_windows: u64,
}

/// Why a coordinated sweep failed. The merged-output cases can only be
/// internal bugs (workers run the same deterministic code), so they carry
/// enough context to debug.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CoordinatorError {
    /// A range exhausted its attempt budget.
    RangeFailed { range: usize, attempts: u32 },
    /// No workers were connected for longer than
    /// [`CoordinatorConfig::worker_wait_ms`] with work still pending.
    WorkersLost { pending_ranges: usize },
    /// The accepted per-range reports did not merge (internal bug).
    Merge(crate::shard::MergeError),
}

impl std::fmt::Display for CoordinatorError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CoordinatorError::RangeFailed { range, attempts } => {
                write!(f, "range {range} failed after {attempts} attempts")
            }
            CoordinatorError::WorkersLost { pending_ranges } => {
                write!(f, "no workers left with {pending_ranges} ranges pending")
            }
            CoordinatorError::Merge(e) => write!(f, "accepted reports failed to merge: {e}"),
        }
    }
}

impl std::error::Error for CoordinatorError {}

/// A finished coordinated sweep: the merged report (byte-identical to
/// single-machine [`run_sweep`](crate::run_sweep) on the same grid) plus
/// the robustness counters.
#[derive(Debug, Clone)]
pub struct CoordinatorRun {
    /// Merged full-grid report (`shard 0/1`).
    pub report: ShardReport,
    /// What it took to get there.
    pub stats: CoordinatorStats,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum RangeStatus {
    /// Waiting for a worker slot; not dispatched before `not_before_ms`.
    Pending { not_before_ms: u64 },
    /// At least one copy is in flight.
    InFlight,
    /// An accepted report exists.
    Done,
}

/// One live dispatch of a range on a worker.
#[derive(Debug, Clone, Copy)]
struct InFlightCopy {
    worker: WorkerId,
    issued_ms: u64,
    deadline_ms: u64,
    /// Set once this copy has triggered a straggler hedge, so a slow range
    /// gets at most one extra copy per dispatch.
    hedged: bool,
}

struct RangeState {
    start: usize,
    len: usize,
    status: RangeStatus,
    attempts: u32,
    copies: Vec<InFlightCopy>,
    report: Option<ShardReport>,
}

struct WorkerState {
    connected_at_ms: u64,
    /// Range ids this worker is believed to be computing.
    outstanding: Vec<usize>,
}

/// Runs a coordinated sweep over `total_specs` specs: builds the sub-range
/// plan from `cfg.chunk_specs`, then drives the event loop until every
/// range has an accepted report or the run fails. `progress` is invoked
/// on fleet changes and range completions.
pub fn run_coordinator<T: Transport>(
    total_specs: usize,
    transport: &mut T,
    cfg: &CoordinatorConfig,
    mut progress: impl FnMut(&CoordinatorProgress),
) -> Result<CoordinatorRun, CoordinatorError> {
    let chunk = cfg.chunk_specs.max(1);
    let n_ranges = total_specs.div_ceil(chunk);
    let plan = ShardPlan::new(total_specs, n_ranges.max(1));
    let mut ranges: Vec<RangeState> = plan
        .shards()
        .iter()
        .take(n_ranges)
        .map(|s| RangeState {
            start: s.range.start,
            len: s.range.len(),
            status: RangeStatus::Pending { not_before_ms: 0 },
            attempts: 0,
            copies: Vec::new(),
            report: None,
        })
        .collect();

    let mut workers: BTreeMap<u64, WorkerState> = BTreeMap::new();
    let mut stats = CoordinatorStats::default();
    let mut ranges_done = 0usize;
    let mut specs_done = 0usize;
    let mut chain_windows = 0u64;
    let mut in_flight = 0usize;
    let start_ms = transport.now_ms();
    let mut workers_empty_since = Some(start_ms);
    let mut fleet_assembled = cfg.min_workers == 0;

    let emit = |progress: &mut dyn FnMut(&CoordinatorProgress),
                ranges_done: usize,
                specs_done: usize,
                chain_windows: u64,
                workers: usize,
                in_flight: usize| {
        progress(&CoordinatorProgress {
            ranges_done,
            ranges_total: n_ranges,
            specs_done,
            specs_total: total_specs,
            workers,
            in_flight,
            chain_windows,
        });
    };

    'main: loop {
        let now = transport.now_ms();

        // 1. Expire copies whose deadline passed: drop the copy, count a
        //    retry, and requeue the range with exponential backoff once no
        //    copies remain. A range out of attempts fails the run.
        for (id, r) in ranges.iter_mut().enumerate() {
            if r.status != RangeStatus::InFlight {
                continue;
            }
            let before = r.copies.len();
            r.copies.retain(|c| c.deadline_ms > now);
            let expired = before - r.copies.len();
            if expired > 0 {
                stats.retries += expired as u64;
                in_flight -= expired;
            }
            if r.copies.is_empty() && before > 0 {
                if r.attempts >= cfg.max_attempts {
                    return Err(CoordinatorError::RangeFailed {
                        range: id,
                        attempts: r.attempts,
                    });
                }
                let backoff = (cfg.backoff_base_ms << (r.attempts.saturating_sub(1)).min(16))
                    .min(cfg.backoff_max_ms);
                r.status = RangeStatus::Pending {
                    not_before_ms: now + backoff,
                };
            }
        }

        // 2. Fill idle worker capacity with pending ranges, lowest range
        //    id first, workers in id order — a deterministic schedule for
        //    a deterministic transport.
        let mut dispatch_queue: Vec<usize> = ranges
            .iter()
            .enumerate()
            .filter(|(_, r)| {
                matches!(r.status, RangeStatus::Pending { not_before_ms } if not_before_ms <= now)
            })
            .map(|(id, _)| id)
            .collect();
        dispatch_queue.reverse(); // pop() takes the lowest id
        if !fleet_assembled && workers.len() >= cfg.min_workers {
            fleet_assembled = true;
        }
        if fleet_assembled && !dispatch_queue.is_empty() {
            let ids: Vec<u64> = workers.keys().copied().collect();
            'workers: for wid in ids {
                loop {
                    let capacity = {
                        let w = workers.get(&wid).expect("listed");
                        cfg.prefetch.saturating_sub(w.outstanding.len())
                    };
                    if capacity == 0 {
                        continue 'workers;
                    }
                    let Some(range_id) = dispatch_queue.pop() else {
                        break 'workers;
                    };
                    dispatch_range(
                        range_id,
                        WorkerId(wid),
                        now,
                        cfg,
                        total_specs,
                        n_ranges,
                        transport,
                        &mut ranges,
                        &mut workers,
                        &mut stats,
                        &mut in_flight,
                    );
                }
            }
        }

        // 3. Straggler hedge: a range in flight on exactly one worker for
        //    too long gets a second copy on a fully idle worker.
        let hedge_due: Vec<usize> = ranges
            .iter()
            .enumerate()
            .filter(|(_, r)| {
                r.status == RangeStatus::InFlight
                    && r.copies.len() == 1
                    && !r.copies[0].hedged
                    && now.saturating_sub(r.copies[0].issued_ms) >= cfg.straggler_after_ms
            })
            .map(|(id, _)| id)
            .collect();
        for range_id in hedge_due {
            let Some(idle) = workers
                .iter()
                .find(|(_, w)| w.outstanding.is_empty())
                .map(|(&id, _)| id)
            else {
                break;
            };
            ranges[range_id].copies[0].hedged = true;
            stats.straggler_reissues += 1;
            dispatch_range(
                range_id,
                WorkerId(idle),
                now,
                cfg,
                total_specs,
                n_ranges,
                transport,
                &mut ranges,
                &mut workers,
                &mut stats,
                &mut in_flight,
            );
        }

        // 4. Done?
        if ranges_done == n_ranges {
            break 'main;
        }

        // 5. Fleet watchdog: pending work but nobody to run it — or a
        //    `min_workers` gate that never released.
        if workers.is_empty() {
            let since = *workers_empty_since.get_or_insert(now);
            if now.saturating_sub(since) >= cfg.worker_wait_ms {
                return Err(CoordinatorError::WorkersLost {
                    pending_ranges: n_ranges - ranges_done,
                });
            }
        } else if !fleet_assembled && now.saturating_sub(start_ms) >= cfg.worker_wait_ms {
            return Err(CoordinatorError::WorkersLost {
                pending_ranges: n_ranges - ranges_done,
            });
        }

        // 6. Sleep until the next deadline (copy expiry, backoff release,
        //    straggler check, watchdog) and handle one event.
        let mut wake = now + 100;
        for r in &ranges {
            match r.status {
                RangeStatus::Pending { not_before_ms } if not_before_ms > now => {
                    wake = wake.min(not_before_ms);
                }
                RangeStatus::InFlight => {
                    for c in &r.copies {
                        wake = wake.min(c.deadline_ms);
                        if r.copies.len() == 1 && !c.hedged {
                            wake = wake.min(c.issued_ms + cfg.straggler_after_ms);
                        }
                    }
                }
                _ => {}
            }
        }
        if let Some(since) = workers_empty_since {
            if workers.is_empty() {
                wake = wake.min(since + cfg.worker_wait_ms);
            }
        }
        if !fleet_assembled {
            wake = wake.min(start_ms + cfg.worker_wait_ms);
        }
        let timeout = wake.saturating_sub(now).clamp(1, 30_000);

        match transport.recv(timeout) {
            None => continue,
            Some(TransportEvent::Connected(wid)) => {
                workers.insert(
                    wid.0,
                    WorkerState {
                        connected_at_ms: transport.now_ms(),
                        outstanding: Vec::new(),
                    },
                );
                workers_empty_since = None;
                stats.workers_connected += 1;
                stats.workers_peak = stats.workers_peak.max(workers.len() as u64);
                emit(
                    &mut progress,
                    ranges_done,
                    specs_done,
                    chain_windows,
                    workers.len(),
                    in_flight,
                );
            }
            Some(TransportEvent::Disconnected(wid)) => {
                let now = transport.now_ms();
                if let Some(w) = workers.remove(&wid.0) {
                    stats.worker_deaths += 1;
                    stats.worker_live_ms += now.saturating_sub(w.connected_at_ms);
                    for range_id in w.outstanding {
                        let r = &mut ranges[range_id];
                        let before = r.copies.len();
                        r.copies.retain(|c| c.worker != wid);
                        in_flight -= before - r.copies.len();
                        if r.status == RangeStatus::InFlight && r.copies.is_empty() {
                            // Steal: requeue immediately — the worker
                            // failed, not the range.
                            stats.steals += 1;
                            r.status = RangeStatus::Pending { not_before_ms: now };
                        }
                    }
                    if workers.is_empty() {
                        workers_empty_since = Some(now);
                    }
                    emit(
                        &mut progress,
                        ranges_done,
                        specs_done,
                        chain_windows,
                        workers.len(),
                        in_flight,
                    );
                }
            }
            Some(TransportEvent::Frame(wid, frame)) => {
                if frame.kind != FrameKind::Result {
                    // Hello frames (and anything unexpected) carry no
                    // coordinator state.
                    continue;
                }
                let Ok((range_id, body)) = Frame::parse_result(&frame.payload) else {
                    stats.corrupt_reports += 1;
                    continue;
                };
                if range_id >= n_ranges {
                    stats.corrupt_reports += 1;
                    continue;
                }
                // This worker is no longer computing the range, whatever
                // the outcome.
                if let Some(w) = workers.get_mut(&wid.0) {
                    w.outstanding.retain(|&id| id != range_id);
                }
                let r = &mut ranges[range_id];
                let before = r.copies.len();
                r.copies.retain(|c| c.worker != wid);
                in_flight -= before - r.copies.len();

                // Parse BEFORE the duplicate check: a corrupted delivery
                // must surface in `corrupt_reports` even when a healthy
                // copy already completed the range.
                let parsed = ShardReport::parse(body).ok().filter(|rep| {
                    rep.start == r.start
                        && rep.outcomes.len() == r.len
                        && rep.grid_total == total_specs
                });
                let Some(report) = parsed else {
                    stats.corrupt_reports += 1;
                    if r.status == RangeStatus::InFlight && r.copies.is_empty() {
                        if r.attempts >= cfg.max_attempts {
                            return Err(CoordinatorError::RangeFailed {
                                range: range_id,
                                attempts: r.attempts,
                            });
                        }
                        let now = transport.now_ms();
                        let backoff = (cfg.backoff_base_ms
                            << (r.attempts.saturating_sub(1)).min(16))
                        .min(cfg.backoff_max_ms);
                        r.status = RangeStatus::Pending {
                            not_before_ms: now + backoff,
                        };
                    }
                    continue;
                };
                if r.status == RangeStatus::Done {
                    stats.duplicates_discarded += 1;
                    continue;
                }
                // First complete result wins. The aggregate's total is the
                // saturating sum of the outcomes' totals.
                chain_windows =
                    chain_windows.saturating_add(report.aggregate.total_chain_windows as u64);
                r.report = Some(report);
                r.status = RangeStatus::Done;
                in_flight -= r.copies.len();
                r.copies.clear();
                ranges_done += 1;
                specs_done += r.len;
                stats.ranges_completed += 1;
                emit(
                    &mut progress,
                    ranges_done,
                    specs_done,
                    chain_windows,
                    workers.len(),
                    in_flight,
                );
            }
        }
    }

    // All ranges accepted. Wall time stops at the merged result; the
    // grace drain below is shutdown accounting, not sweep time.
    stats.wall_ms = transport.now_ms();

    // Post-completion drain: copies that lost a race (straggler hedges,
    // duplicate deliveries, delayed originals) may still be in flight.
    // Read them for a bounded grace window so they land in the stats
    // (`duplicates_discarded`, `corrupt_reports`) instead of vanishing
    // with the connection. Ends early once no worker owes a result.
    let drain_until = stats.wall_ms + cfg.drain_grace_ms;
    while workers.values().any(|w| !w.outstanding.is_empty()) {
        let now = transport.now_ms();
        if now >= drain_until {
            break;
        }
        match transport.recv((drain_until - now).clamp(1, 1_000)) {
            None => {}
            Some(TransportEvent::Connected(wid)) => {
                workers.insert(
                    wid.0,
                    WorkerState {
                        connected_at_ms: transport.now_ms(),
                        outstanding: Vec::new(),
                    },
                );
                stats.workers_connected += 1;
            }
            Some(TransportEvent::Disconnected(wid)) => {
                if let Some(w) = workers.remove(&wid.0) {
                    stats.worker_deaths += 1;
                    stats.worker_live_ms += transport.now_ms().saturating_sub(w.connected_at_ms);
                }
            }
            Some(TransportEvent::Frame(wid, frame)) => {
                if frame.kind != FrameKind::Result {
                    continue;
                }
                let Ok((range_id, body)) = Frame::parse_result(&frame.payload) else {
                    stats.corrupt_reports += 1;
                    continue;
                };
                if let Some(w) = workers.get_mut(&wid.0) {
                    w.outstanding.retain(|&id| id != range_id);
                }
                if ShardReport::parse(body).is_ok() {
                    stats.duplicates_discarded += 1;
                } else {
                    stats.corrupt_reports += 1;
                }
            }
        }
    }

    let now = transport.now_ms();
    for (&wid, w) in &workers {
        stats.worker_live_ms += now.saturating_sub(w.connected_at_ms);
        let _ = transport.send(WorkerId(wid), &Frame::drain());
    }
    let reports: Vec<ShardReport> = ranges
        .iter_mut()
        .map(|r| r.report.take().expect("all ranges done"))
        .collect();
    let report = if reports.is_empty() {
        ShardReport::from_spec_outcomes(0, 1, 0, 0, Vec::new())
    } else {
        merge_shards(&reports).map_err(CoordinatorError::Merge)?
    };
    Ok(CoordinatorRun { report, stats })
}

/// Sends one dispatch frame and records the new in-flight copy. A failed
/// send means the worker died between events: it is dropped here and its
/// other in-flight ranges requeue when the transport's `Disconnected`
/// event arrives (sends to an already-dropped worker just fail the same
/// way again, harmlessly).
#[allow(clippy::too_many_arguments)]
fn dispatch_range<T: Transport>(
    range_id: usize,
    wid: WorkerId,
    now: u64,
    cfg: &CoordinatorConfig,
    total_specs: usize,
    n_ranges: usize,
    transport: &mut T,
    ranges: &mut [RangeState],
    workers: &mut BTreeMap<u64, WorkerState>,
    stats: &mut CoordinatorStats,
    in_flight: &mut usize,
) {
    let r = &mut ranges[range_id];
    let d = DispatchSpec {
        range_id,
        start: r.start,
        len: r.len,
        total: total_specs,
        ranges: n_ranges,
    };
    if transport.send(wid, &Frame::dispatch(&d)).is_err() {
        // Worker is gone; leave the range as-is (pending, or hedge-less
        // in-flight). The Disconnected event does the bookkeeping.
        return;
    }
    r.attempts += 1;
    r.status = RangeStatus::InFlight;
    r.copies.push(InFlightCopy {
        worker: wid,
        issued_ms: now,
        deadline_ms: now + cfg.dispatch_timeout_ms,
        hedged: false,
    });
    *in_flight += 1;
    stats.dispatches += 1;
    if let Some(w) = workers.get_mut(&wid.0) {
        w.outstanding.push(range_id);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::chaos::{Fault, FaultPlan, InProcFleet};
    use crate::SweepOptions;
    use domino_core::Domino;
    use scenarios::all_cells_grid;
    use simcore::SimDuration;

    fn tight_config() -> CoordinatorConfig {
        CoordinatorConfig {
            chunk_specs: 4,
            dispatch_timeout_ms: 500,
            backoff_base_ms: 5,
            backoff_max_ms: 20,
            max_attempts: 3,
            straggler_after_ms: 1_000_000,
            worker_wait_ms: 200,
            drain_grace_ms: 100,
            ..Default::default()
        }
    }

    #[test]
    fn empty_grid_completes_without_workers() {
        let specs = [];
        let domino = Domino::with_defaults();
        let opts = SweepOptions::default().threads(1);
        let mut fleet = InProcFleet::new(&specs, &domino, &opts, 0, &FaultPlan::none());
        let run = run_coordinator(0, &mut fleet, &tight_config(), |_| {}).expect("empty sweep");
        assert_eq!(run.report.outcomes.len(), 0);
        assert_eq!(run.report.grid_total, 0);
        assert_eq!(run.stats.dispatches, 0);
    }

    #[test]
    fn no_workers_times_out_with_typed_error() {
        let specs = all_cells_grid(3, SimDuration::from_secs(2));
        let domino = Domino::with_defaults();
        let opts = SweepOptions::default().threads(1);
        let mut fleet = InProcFleet::new(&specs, &domino, &opts, 0, &FaultPlan::none());
        let err = run_coordinator(specs.len(), &mut fleet, &tight_config(), |_| {})
            .expect_err("no fleet");
        assert_eq!(err, CoordinatorError::WorkersLost { pending_ranges: 1 });
    }

    #[test]
    fn min_workers_gate_spreads_work_then_times_out_when_unmet() {
        let specs = all_cells_grid(3, SimDuration::from_secs(2));
        let domino = Domino::with_defaults();
        let opts = SweepOptions::default().threads(1);

        // Met threshold: the gate releases once 3 workers connect, work
        // spreads one range per worker (prefetch 1), and the run merges
        // with exactly one dispatch per range — no retries, no hedges.
        let mut cfg = tight_config();
        cfg.chunk_specs = 1;
        cfg.prefetch = 1;
        cfg.min_workers = 3;
        cfg.worker_wait_ms = 2_000;
        let mut fleet = InProcFleet::new(&specs, &domino, &opts, 3, &FaultPlan::none());
        let run = run_coordinator(specs.len(), &mut fleet, &cfg, |_| {}).expect("gated sweep");
        assert_eq!(run.stats.workers_peak, 3);
        assert_eq!(run.stats.dispatches, specs.len() as u64);

        // Unmet threshold: two connected workers never satisfy
        // min_workers=3, so nothing dispatches and the watchdog fires.
        cfg.worker_wait_ms = 200;
        let mut fleet = InProcFleet::new(&specs, &domino, &opts, 2, &FaultPlan::none());
        let err =
            run_coordinator(specs.len(), &mut fleet, &cfg, |_| {}).expect_err("gate never met");
        assert_eq!(
            err,
            CoordinatorError::WorkersLost {
                pending_ranges: specs.len()
            }
        );
    }

    #[test]
    fn unending_corruption_exhausts_the_attempt_budget() {
        let specs = all_cells_grid(3, SimDuration::from_secs(2));
        let domino = Domino::with_defaults();
        let opts = SweepOptions::default().threads(1);
        let plan = FaultPlan {
            seed: 0,
            faults: vec![Fault::CorruptResult {
                range: 0,
                times: u32::MAX,
            }],
        };
        let mut fleet = InProcFleet::new(&specs, &domino, &opts, 2, &plan);
        let err = run_coordinator(specs.len(), &mut fleet, &tight_config(), |_| {})
            .expect_err("every result corrupted");
        match err {
            CoordinatorError::RangeFailed { range: 0, attempts } => {
                assert_eq!(attempts, 3, "bounded by max_attempts")
            }
            other => panic!("expected RangeFailed, got {other:?}"),
        }
    }

    #[test]
    fn stats_encode_one_line_per_key() {
        let stats = CoordinatorStats {
            workers_connected: 4,
            workers_peak: 3,
            worker_deaths: 1,
            dispatches: 9,
            ranges_completed: 6,
            retries: 2,
            straggler_reissues: 1,
            steals: 2,
            duplicates_discarded: 1,
            corrupt_reports: 2,
            worker_live_ms: 1234,
            wall_ms: 500,
        };
        // Encoded stats artifact is stable, line-per-key.
        let encoded = stats.encode();
        assert!(encoded.starts_with("domino-coordinator-stats\tv1\n"));
        assert!(encoded.contains("straggler_reissues\t1\n"));
    }

    #[test]
    fn tcp_coordinator_disconnects_peers_declaring_oversized_frames() {
        use crate::transport::{TcpLink, TcpTransport};
        use crate::worker::{run_worker, WorkerExit, WorkerFaults};
        use std::io::{ErrorKind, Read, Write};
        use std::net::TcpStream;
        use std::time::Duration;

        let specs = all_cells_grid(7, SimDuration::from_secs(3));
        let domino = Domino::with_defaults();
        let opts = SweepOptions::default().threads(1);
        let mut transport = TcpTransport::bind().expect("bind loopback");
        let addr = format!("127.0.0.1:{}", transport.port());
        let cfg = CoordinatorConfig {
            chunk_specs: 2,
            ..Default::default()
        };
        let (run, hung_up, exit) = std::thread::scope(|scope| {
            let peers = scope.spawn(|| {
                // Two hostile peers, one after the other: a length whose
                // end offset wraps `usize`, and one of 10^12 bytes that
                // would have the coordinator buffer forever. Each waits
                // for the coordinator to hang up.
                let mut hung_up = Vec::new();
                for header in [
                    &b"frame\thello\t18446744073709551615\n"[..],
                    &b"frame\thello\t1000000000000\n"[..],
                ] {
                    let mut peer = TcpStream::connect(&addr).expect("connect");
                    peer.set_read_timeout(Some(Duration::from_secs(30)))
                        .expect("read timeout");
                    peer.write_all(header).expect("send header");
                    let mut sink = [0u8; 1024];
                    let end = loop {
                        match peer.read(&mut sink) {
                            Ok(0) => break Ok(()),
                            Ok(_) => continue, // a dispatch sent before the header was read
                            Err(e) => break Err(e.kind()),
                        }
                    };
                    hung_up.push(end.is_ok() || end == Err(ErrorKind::ConnectionReset));
                }
                // Only then an honest worker joins and runs the whole grid.
                let mut link = TcpLink::connect(&addr).expect("connect");
                let exit = run_worker(
                    &mut link,
                    "honest",
                    &specs,
                    &domino,
                    &opts,
                    WorkerFaults::default(),
                );
                (hung_up, exit)
            });
            let run = run_coordinator(specs.len(), &mut transport, &cfg, |_| {});
            drop(transport);
            let (hung_up, exit) = peers.join().expect("peer thread");
            (run, hung_up, exit)
        });
        assert_eq!(hung_up, [true, true], "each hostile peer is disconnected");
        assert!(matches!(exit, WorkerExit::Drained), "{exit:?}");
        let run = run.expect("the sweep completes despite the hostile peers");
        assert_eq!(run.report.outcomes.len(), specs.len());
        assert_eq!(run.stats.workers_connected, 3);
        assert!(run.stats.worker_deaths >= 2, "{:?}", run.stats);
    }
}
