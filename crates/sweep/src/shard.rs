//! Shard-and-merge: the distributed execution layer of the sweep engine.
//!
//! A grid too large for one machine is split by a [`ShardPlan`] into
//! contiguous spec-index ranges. Each worker machine runs its range with
//! [`run_shard`] (any per-shard thread count — the underlying
//! [`run_sweep`] is already schedule-independent) and serialises the
//! resulting [`ShardReport`] to versioned plain text
//! ([`ShardReport::encode`] / [`ShardReport::parse`], written and read with
//! the shared [`domino_obs::wire`] codec). A coordinator collects the files
//! and folds them with [`merge_shards`].
//!
//! **Determinism contract.** The merged report is *byte-identical* to a
//! single-machine [`run_sweep`] over the whole grid, at
//! any shard count and any per-shard thread count. Two mechanisms make the
//! bytes exact:
//!
//! * every float crosses the wire as the hex of its IEEE-754 bits, so
//!   parsing reproduces the producing machine's values bit for bit;
//! * [`merge_shards`] does **not** fold the shards' aggregate
//!   [`ChainStats`] into each other (float addition is not associative, so
//!   grouping by shard could perturb the last bit of `minutes`) — it
//!   re-folds the *per-spec* stats in global spec order, replaying exactly
//!   the operation sequence the single-machine sweep performs.
//!
//! `tests/shard_determinism.rs` at the workspace root enforces the
//! contract across shard counts × thread counts, and CI runs
//! `examples/sharded_sweep.rs` as one shard and as three, then byte-diffs
//! the merged outputs.

use std::collections::HashMap;
use std::ops::Range;

use domino_core::{ChainStats, Domino};
use domino_live::LiveStats;
use domino_obs::wire::{Fields, Reader, WireError, Writer};
use domino_obs::MetricsSnapshot;
use scenarios::SessionSpec;
use telemetry::{CellClass, Duplexing, SessionMeta, TapStream};

use crate::{run_sweep, SessionOutcome, SweepOptions, SweepReport};

/// Splits `total` specs into `count` contiguous index ranges whose sizes
/// differ by at most one (earlier shards take the remainder).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ShardPlan {
    total: usize,
    count: usize,
}

/// One shard of a plan: a contiguous, possibly empty spec-index range.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Shard {
    /// Shard position in the plan.
    pub index: usize,
    /// Total shards in the plan.
    pub count: usize,
    /// Global spec indices this shard runs.
    pub range: Range<usize>,
}

impl ShardPlan {
    /// A plan over `total` specs in `count` shards (`count` is clamped to
    /// at least 1; more shards than specs yields empty tail shards).
    pub fn new(total: usize, count: usize) -> ShardPlan {
        ShardPlan {
            total,
            count: count.max(1),
        }
    }

    /// Total specs covered by the plan.
    pub fn total(&self) -> usize {
        self.total
    }

    /// Number of shards.
    pub fn count(&self) -> usize {
        self.count
    }

    /// The `i`-th shard's range. Panics if `i >= count()`.
    pub fn shard(&self, i: usize) -> Shard {
        assert!(i < self.count, "shard {i} out of {}", self.count);
        let base = self.total / self.count;
        let rem = self.total % self.count;
        let start = i * base + i.min(rem);
        let len = base + usize::from(i < rem);
        Shard {
            index: i,
            count: self.count,
            range: start..start + len,
        }
    }

    /// All shards in plan order.
    pub fn shards(&self) -> Vec<Shard> {
        (0..self.count).map(|i| self.shard(i)).collect()
    }
}

/// The serialisable subset of a [`SessionOutcome`]: everything a shard
/// report carries per spec (bundles and per-window analyses stay on the
/// machine that produced them).
#[derive(Debug, Clone, PartialEq)]
pub struct SpecOutcome {
    /// Global position in the grid's spec list.
    pub index: usize,
    /// Spec label.
    pub label: String,
    /// Session metadata.
    pub meta: SessionMeta,
    /// Chain statistics (absent when the shard ran `AnalysisMode::None`).
    pub stats: Option<ChainStats>,
    /// Live-pipeline counters (present under `AnalysisMode::Live`).
    pub live: Option<LiveStats>,
}

impl SpecOutcome {
    fn from_outcome(o: &SessionOutcome, offset: usize) -> SpecOutcome {
        SpecOutcome {
            index: o.index + offset,
            label: o.label.clone(),
            meta: o.meta.clone(),
            stats: o.stats.clone(),
            live: o.live,
        }
    }
}

/// Merged [`LiveStats`] across a report's sessions: counter sums, peak
/// maxima, and the number of early-exited sessions. All-integer, so
/// merging is exact and grouping-insensitive.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct LiveTotals {
    /// Sessions that ran with a live pipeline.
    pub sessions: usize,
    /// Sum of [`LiveStats::records_seen`].
    pub records_seen: usize,
    /// Sum of [`LiveStats::late_records_dropped`].
    pub late_records_dropped: usize,
    /// Sum of [`LiveStats::late_deliveries`].
    pub late_deliveries: usize,
    /// Sum of [`LiveStats::windows_emitted`].
    pub windows_emitted: usize,
    /// Maximum of [`LiveStats::peak_retained_records`].
    pub peak_retained_records: usize,
    /// Sessions an [`EarlyExit`](crate::EarlyExit) policy aborted.
    pub early_exits: usize,
    /// Sum of [`LiveStats::late_drops_by_stream`], indexed by
    /// [`TapStream`]. Serialised on an *optional* `livetotalsdetail` line
    /// emitted only when some entry is nonzero, so reports from healthy
    /// (chaos-free, generous-lateness) sweeps are byte-identical to the
    /// pre-breakout format.
    pub late_drops_by_stream: [usize; TapStream::COUNT],
    /// Sum of [`LiveStats::degraded_windows`]. Rides the same optional
    /// detail line as the per-stream drop breakout.
    pub degraded_windows: usize,
}

impl LiveTotals {
    /// Folds one session's live counters in. Sums saturate, like
    /// [`ChainStats::merge`]: counters parsed from a forged report must not
    /// overflow a fold.
    pub fn add(&mut self, s: &LiveStats) {
        let sum = |total: &mut usize, n: usize| *total = total.saturating_add(n);
        sum(&mut self.sessions, 1);
        sum(&mut self.records_seen, s.records_seen);
        sum(&mut self.late_records_dropped, s.late_records_dropped);
        sum(&mut self.late_deliveries, s.late_deliveries);
        sum(&mut self.windows_emitted, s.windows_emitted);
        self.peak_retained_records = self.peak_retained_records.max(s.peak_retained_records);
        sum(&mut self.early_exits, usize::from(s.early_exited));
        for (total, per) in self
            .late_drops_by_stream
            .iter_mut()
            .zip(s.late_drops_by_stream)
        {
            sum(total, per);
        }
        sum(&mut self.degraded_windows, s.degraded_windows);
    }
}

/// One shard's results: per-spec outcomes plus the shard-local merged
/// [`ChainStats`] and [`LiveTotals`].
#[derive(Debug, Clone, PartialEq)]
pub struct ShardReport {
    /// Shard position in its plan (0 for a merged or single-machine report).
    pub shard_index: usize,
    /// Shards in the plan (1 for a merged or single-machine report).
    pub shard_count: usize,
    /// First global spec index of the shard's range.
    pub start: usize,
    /// Specs in the full grid (for coverage validation at merge time).
    pub grid_total: usize,
    /// Per-spec outcomes, in global spec order.
    pub outcomes: Vec<SpecOutcome>,
    /// This report's per-spec stats folded in spec order.
    pub aggregate: ChainStats,
    /// This report's live counters folded in spec order.
    pub live_totals: LiveTotals,
}

/// Format version. v2 added the FNV-1a checksum trailer (the `end` line
/// carries the checksum of every byte above it), which rejects a report
/// corrupted in transit into something that still parses, such as a bit
/// flip inside a label or a hex float, which no refold can catch.
const FORMAT_HEADER: &str = "domino-shard-report\tv2";
const END_TAG: &str = "domino-shard-report";

impl ShardReport {
    /// Builds a report from sweep outcomes whose `index` fields are
    /// *global* spec indices. The aggregate is re-folded here so it always
    /// matches the outcome list.
    pub(crate) fn from_spec_outcomes(
        shard_index: usize,
        shard_count: usize,
        start: usize,
        grid_total: usize,
        outcomes: Vec<SpecOutcome>,
    ) -> ShardReport {
        let (aggregate, live_totals) = fold_outcomes(&outcomes);
        ShardReport {
            shard_index,
            shard_count,
            start,
            grid_total,
            outcomes,
            aggregate,
            live_totals,
        }
    }

    /// Summarises a whole-grid [`SweepReport`] as the single-shard report
    /// the merge contract compares against.
    pub fn from_sweep(report: &SweepReport) -> ShardReport {
        let outcomes: Vec<SpecOutcome> = report
            .outcomes
            .iter()
            .map(|o| SpecOutcome::from_outcome(o, 0))
            .collect();
        let total = outcomes.len();
        ShardReport::from_spec_outcomes(0, 1, 0, total, outcomes)
    }

    /// Spec indices this report covers.
    pub fn range(&self) -> Range<usize> {
        self.start..self.start + self.outcomes.len()
    }

    /// Serialises the report as versioned plain text with the shared
    /// [`domino_obs::wire`] codec. Equal reports encode to identical bytes:
    /// map keys are sorted, floats are written as the hex of their IEEE-754
    /// bits, and strings are tab/newline-escaped.
    pub fn encode(&self) -> String {
        let mut w = Writer::new(FORMAT_HEADER);
        w.line("shard")
            .uint(self.shard_index)
            .uint(self.shard_count);
        w.line("range").uint(self.start).uint(self.outcomes.len());
        w.line("grid").uint(self.grid_total);
        w.line("outcomes").uint(self.outcomes.len());
        for o in &self.outcomes {
            w.line("outcome").uint(o.index).str(&o.label);
            let m = &o.meta;
            w.line("meta")
                .str(&m.cell_name)
                .word(match m.cell_class {
                    CellClass::Commercial => "commercial",
                    CellClass::Private => "private",
                })
                .f64(m.carrier_mhz)
                .f64(m.bandwidth_mhz)
                .word(match m.duplexing {
                    Duplexing::Fdd => "fdd",
                    Duplexing::Tdd => "tdd",
                })
                .uint(m.duration.as_micros())
                .uint(m.seed)
                .flag(m.has_gnb_log);
            w.line("stats").flag(o.stats.is_some());
            if let Some(s) = &o.stats {
                encode_chain_stats(&mut w, s);
            }
            w.line("live").flag(o.live.is_some());
            if let Some(l) = &o.live {
                w.uint(l.records_seen)
                    .uint(l.late_records_dropped)
                    .uint(l.late_deliveries)
                    .uint(l.windows_emitted)
                    .uint(l.peak_retained_records)
                    .flag(l.early_exited);
                encode_detail(
                    &mut w,
                    "livedetail",
                    &l.late_drops_by_stream,
                    l.degraded_windows,
                );
            }
        }
        w.line("aggregate");
        encode_chain_stats(&mut w, &self.aggregate);
        let t = &self.live_totals;
        w.line("livetotals")
            .uint(t.sessions)
            .uint(t.records_seen)
            .uint(t.late_records_dropped)
            .uint(t.late_deliveries)
            .uint(t.windows_emitted)
            .uint(t.peak_retained_records)
            .uint(t.early_exits);
        encode_detail(
            &mut w,
            "livetotalsdetail",
            &t.late_drops_by_stream,
            t.degraded_windows,
        );
        w.seal(END_TAG)
    }

    /// Parses text written by [`Self::encode`], accepting only that
    /// canonical form. Validates the line structure, the outcome count and
    /// indices against the declared range, the FNV-1a trailer (so any
    /// in-transit corruption that still parses is rejected), and finally
    /// that the aggregate block re-folds from the per-spec outcomes.
    pub fn parse(text: &str) -> Result<ShardReport, WireError> {
        let mut r = Reader::open(text, FORMAT_HEADER)?;
        let (shard_index, shard_count) = r.line("shard", |f| Ok((f.uint()?, f.uint()?)))?;
        let (start, len): (usize, usize) = r.line("range", |f| Ok((f.uint()?, f.uint()?)))?;
        let grid_total = r.line("grid", Fields::uint)?;
        let count: usize = r.line("outcomes", Fields::uint)?;
        let end =
            start
                .checked_add(len)
                .filter(|_| count == len)
                .ok_or(WireError::Inconsistent {
                    line: r.line_no(),
                    what: "outcome range",
                })?;

        // Grows with the outcomes actually read, never with the declared
        // count: a forged count cannot make the parser allocate.
        let mut outcomes = Vec::new();
        for index in start..end {
            let label = r.line("outcome", |f| {
                if f.uint::<usize>()? != index {
                    return Err(f.inconsistent("outcome index"));
                }
                f.string()
            })?;
            let meta = r.line("meta", parse_meta)?;
            let stats = if r.line("stats", Fields::flag)? {
                Some(parse_chain_stats(&mut r)?)
            } else {
                None
            };
            let live = parse_live(&mut r)?;
            outcomes.push(SpecOutcome {
                index,
                label,
                meta,
                stats,
                live,
            });
        }

        r.exact("aggregate")?;
        let aggregate_line = r.line_no();
        let aggregate = parse_chain_stats(&mut r)?;
        let mut live_totals = r.line("livetotals", |f| {
            Ok(LiveTotals {
                sessions: f.uint()?,
                records_seen: f.uint()?,
                late_records_dropped: f.uint()?,
                late_deliveries: f.uint()?,
                windows_emitted: f.uint()?,
                peak_retained_records: f.uint()?,
                early_exits: f.uint()?,
                ..LiveTotals::default()
            })
        })?;
        if let Some((drops, degraded)) = parse_detail(&mut r, "livetotalsdetail")? {
            live_totals.late_drops_by_stream = drops;
            live_totals.degraded_windows = degraded;
        }
        r.finish(END_TAG)?;

        let report = ShardReport {
            shard_index,
            shard_count,
            start,
            grid_total,
            outcomes,
            aggregate,
            live_totals,
        };
        // The aggregate must be what the per-spec stats fold to; a mismatch
        // means the file was hand-edited and re-sealed.
        let (refold, retotals) = fold_outcomes(&report.outcomes);
        if refold != report.aggregate
            || refold.minutes.to_bits() != report.aggregate.minutes.to_bits()
            || retotals != report.live_totals
        {
            return Err(WireError::Inconsistent {
                line: aggregate_line,
                what: "aggregate re-fold from per-spec outcomes",
            });
        }
        Ok(report)
    }
}

/// Folds per-spec stats and live counters in outcome (= spec) order.
fn fold_outcomes(outcomes: &[SpecOutcome]) -> (ChainStats, LiveTotals) {
    let mut agg = ChainStats::default();
    let mut totals = LiveTotals::default();
    for o in outcomes {
        if let Some(s) = &o.stats {
            agg.merge(s);
        }
        if let Some(l) = &o.live {
            totals.add(l);
        }
    }
    (agg, totals)
}

fn parse_meta(f: &mut Fields<'_>) -> Result<SessionMeta, WireError> {
    Ok(SessionMeta {
        cell_name: f.string()?,
        cell_class: match f.field()? {
            "commercial" => CellClass::Commercial,
            "private" => CellClass::Private,
            _ => return Err(f.malformed("cell class")),
        },
        carrier_mhz: f.f64()?,
        bandwidth_mhz: f.f64()?,
        duplexing: match f.field()? {
            "fdd" => Duplexing::Fdd,
            "tdd" => Duplexing::Tdd,
            _ => return Err(f.malformed("duplexing")),
        },
        duration: simcore::SimDuration::from_micros(f.uint()?),
        seed: f.uint()?,
        has_gnb_log: f.flag()?,
    })
}

/// A `live` line (`live\t0`, or `live\t1` and six counters) and its
/// optional `livedetail` line.
fn parse_live(r: &mut Reader<'_>) -> Result<Option<LiveStats>, WireError> {
    let Some(mut l) = r.line("live", |f| {
        if !f.flag()? {
            return Ok(None);
        }
        Ok(Some(LiveStats {
            records_seen: f.uint()?,
            late_records_dropped: f.uint()?,
            late_deliveries: f.uint()?,
            windows_emitted: f.uint()?,
            peak_retained_records: f.uint()?,
            early_exited: f.flag()?,
            ..LiveStats::default()
        }))
    })?
    else {
        return Ok(None);
    };
    if let Some((drops, degraded)) = parse_detail(r, "livedetail")? {
        l.late_drops_by_stream = drops;
        l.degraded_windows = degraded;
    }
    Ok(Some(l))
}

/// The degraded-telemetry breakout: one late-drop count per [`TapStream`]
/// and the degraded-window count. The line is written only when one of
/// them is nonzero, so healthy-sweep reports keep their pre-breakout bytes.
fn encode_detail(w: &mut Writer, tag: &str, drops: &[usize; TapStream::COUNT], degraded: usize) {
    if drops.iter().any(|&d| d != 0) || degraded != 0 {
        w.line(tag);
        for &d in drops {
            w.uint(d);
        }
        w.uint(degraded);
    }
}

/// Reads the optional line [`encode_detail`] writes; absent means all zero.
fn parse_detail(
    r: &mut Reader<'_>,
    tag: &'static str,
) -> Result<Option<([usize; TapStream::COUNT], usize)>, WireError> {
    if !r.peek(tag) {
        return Ok(None);
    }
    r.line(tag, |f| {
        let mut drops = [0usize; TapStream::COUNT];
        for d in &mut drops {
            *d = f.uint()?;
        }
        let degraded = f.uint()?;
        if drops.iter().all(|&d| d == 0) && degraded == 0 {
            return Err(f.inconsistent("detail line of zeros"));
        }
        Ok(Some((drops, degraded)))
    })
}

/// Writes one `chainstats v1` block: the statistics behind Fig. 10 and
/// Tables 2/4, with `minutes` as the hex of its bits and every map sorted
/// by key, so equal stats encode to identical bytes.
fn encode_chain_stats(w: &mut Writer, s: &ChainStats) {
    w.line("chainstats").word("v1");
    w.line("minutes").f64(s.minutes);
    for (tag, map) in [
        ("cause_onsets", &s.cause_onsets),
        ("consequence_onsets", &s.consequence_onsets),
        ("consequence_windows", &s.consequence_windows),
        ("unknown_windows", &s.unknown_windows),
    ] {
        encode_map(w, tag, "kv", map, |w, k| {
            w.str(k);
        });
    }
    encode_map(
        w,
        "chain_windows",
        "kv2",
        &s.chain_windows,
        |w, (cause, cons)| {
            w.str(cause).str(cons);
        },
    );
    w.line("total_chain_windows").uint(s.total_chain_windows);
    w.line("end").word("chainstats");
}

fn encode_map<K: Ord>(
    w: &mut Writer,
    tag: &str,
    entry: &str,
    map: &HashMap<K, usize>,
    key: impl Fn(&mut Writer, &K),
) {
    let mut entries: Vec<(&K, &usize)> = map.iter().collect();
    entries.sort_unstable_by(|a, b| a.0.cmp(b.0));
    w.line("map").word(tag).uint(entries.len());
    for (k, &v) in entries {
        key(w.line(entry), k);
        w.uint(v);
    }
}

/// Reads one block written by [`encode_chain_stats`].
fn parse_chain_stats(r: &mut Reader<'_>) -> Result<ChainStats, WireError> {
    r.exact("chainstats\tv1")?;
    let mut s = ChainStats {
        minutes: r.line("minutes", Fields::f64)?,
        ..ChainStats::default()
    };
    for (tag, map) in [
        ("cause_onsets", &mut s.cause_onsets),
        ("consequence_onsets", &mut s.consequence_onsets),
        ("consequence_windows", &mut s.consequence_windows),
        ("unknown_windows", &mut s.unknown_windows),
    ] {
        *map = parse_map(r, tag, "kv", Fields::string)?;
    }
    s.chain_windows = parse_map(r, "chain_windows", "kv2", |f| {
        Ok((f.string()?, f.string()?))
    })?;
    s.total_chain_windows = r.line("total_chain_windows", Fields::uint)?;
    r.exact("end\tchainstats")?;
    Ok(s)
}

/// Reads one map written by [`encode_map`]. Its keys must strictly
/// increase, which is the order the encoder sorts them in.
fn parse_map<'a, K: Ord + std::hash::Hash>(
    r: &mut Reader<'a>,
    tag: &'static str,
    entry: &'static str,
    key: impl Fn(&mut Fields<'a>) -> Result<K, WireError>,
) -> Result<HashMap<K, usize>, WireError> {
    let n: usize = r.line("map", |f| {
        f.literal(tag)?;
        f.uint()
    })?;
    let mut entries: Vec<(K, usize)> = Vec::new();
    for _ in 0..n {
        let kv = r.line(entry, |f| {
            let (k, v) = (key(f)?, f.uint()?);
            if entries.last().is_some_and(|(prev, _)| *prev >= k) {
                return Err(f.inconsistent("map key order"));
            }
            Ok((k, v))
        })?;
        entries.push(kv);
    }
    Ok(entries.into_iter().collect())
}

/// Runs one shard of a grid: the specs in `shard.range`, fanned across
/// `opts.threads` like any sweep, with outcome indices mapped back to the
/// *global* spec positions so shard reports concatenate into the
/// single-machine report.
pub fn run_shard(
    specs: &[SessionSpec],
    shard: &Shard,
    domino: &Domino,
    opts: &SweepOptions,
) -> ShardReport {
    run_shard_with_metrics(specs, shard, domino, opts).0
}

/// [`run_shard`] returning the shard's merged [`MetricsSnapshot`] alongside
/// the report (present when [`SweepOptions::obs`] is enabled). The
/// snapshot's `Sim` section merges across shards exactly like the report
/// itself: [`MetricsSnapshot::merge`] over the per-shard snapshots equals
/// the single-machine sweep's, byte for byte, at any shard count.
pub fn run_shard_with_metrics(
    specs: &[SessionSpec],
    shard: &Shard,
    domino: &Domino,
    opts: &SweepOptions,
) -> (ShardReport, Option<MetricsSnapshot>) {
    assert!(
        shard.range.end <= specs.len(),
        "shard range {:?} exceeds grid of {}",
        shard.range,
        specs.len()
    );
    let report = run_sweep(&specs[shard.range.clone()], domino, opts);
    let outcomes: Vec<SpecOutcome> = report
        .outcomes
        .iter()
        .map(|o| SpecOutcome::from_outcome(o, shard.range.start))
        .collect();
    (
        ShardReport::from_spec_outcomes(
            shard.index,
            shard.count,
            shard.range.start,
            specs.len(),
            outcomes,
        ),
        report.metrics,
    )
}

/// Error from [`merge_shards`]. Each way a shard set can fail to tile the
/// grid gets its own variant, so a coordinator can distinguish "a shard is
/// missing" (retry it) from "two shards claim the same specs" (a duplicate
/// slipped past range-id dedup — a bug worth alerting on) from "a report
/// belongs to a different grid entirely".
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum MergeError {
    /// No reports were given.
    Empty,
    /// Reports disagree on the grid size.
    GridMismatch {
        /// Grid size of the first report.
        expected: usize,
        /// The disagreeing size.
        found: usize,
    },
    /// Two reports cover overlapping spec ranges.
    Overlap {
        /// Start of the report that re-covers already-covered specs.
        start: usize,
        /// End (exclusive) of the coverage so far — `start` is below it.
        prior_end: usize,
    },
    /// After sorting by range start, a gap separates two reports.
    Gap {
        /// First uncovered spec index.
        expected: usize,
        /// The next range start actually found.
        found: usize,
    },
    /// Contiguous coverage from 0, but it stops short of (or is
    /// inconsistent with) the declared grid total.
    WrongTotal {
        /// Specs actually covered.
        covered: usize,
        /// Grid size every report declared.
        declared: usize,
    },
}

impl std::fmt::Display for MergeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            MergeError::Empty => write!(f, "no shard reports to merge"),
            MergeError::GridMismatch { expected, found } => {
                write!(
                    f,
                    "shard reports disagree on grid size: {expected} vs {found}"
                )
            }
            MergeError::Overlap { start, prior_end } => write!(
                f,
                "shard ranges overlap: a shard starting at {start} re-covers specs below {prior_end}"
            ),
            MergeError::Gap { expected, found } => write!(
                f,
                "shard ranges leave a gap: expected index {expected}, next shard starts at {found}"
            ),
            MergeError::WrongTotal { covered, declared } => write!(
                f,
                "shard ranges cover {covered} specs but the grid declares {declared}"
            ),
        }
    }
}

impl std::error::Error for MergeError {}

/// Folds shard reports — in shard (range) order — into the whole-grid
/// report. Outcomes concatenate in global spec order and the aggregate is
/// re-folded from per-spec stats, so the result is byte-identical
/// (via [`ShardReport::encode`]) to a single-machine sweep of the grid.
pub fn merge_shards(reports: &[ShardReport]) -> Result<ShardReport, MergeError> {
    if reports.is_empty() {
        return Err(MergeError::Empty);
    }
    let grid_total = reports[0].grid_total;
    for r in reports {
        if r.grid_total != grid_total {
            return Err(MergeError::GridMismatch {
                expected: grid_total,
                found: r.grid_total,
            });
        }
    }
    let mut ordered: Vec<&ShardReport> = reports.iter().collect();
    ordered.sort_by_key(|r| r.start);
    // Sized by the outcomes at hand, not by `grid_total`, which a report
    // parsed from outside declares.
    let mut outcomes: Vec<SpecOutcome> =
        Vec::with_capacity(reports.iter().map(|r| r.outcomes.len()).sum());
    for r in ordered {
        // Empty reports (tail shards of an over-split plan) tile trivially
        // and can share a start with a non-empty one.
        if r.outcomes.is_empty() {
            continue;
        }
        if r.start < outcomes.len() {
            return Err(MergeError::Overlap {
                start: r.start,
                prior_end: outcomes.len(),
            });
        }
        if r.start > outcomes.len() {
            return Err(MergeError::Gap {
                expected: outcomes.len(),
                found: r.start,
            });
        }
        outcomes.extend(r.outcomes.iter().cloned());
    }
    if outcomes.len() != grid_total {
        return Err(MergeError::WrongTotal {
            covered: outcomes.len(),
            declared: grid_total,
        });
    }
    Ok(ShardReport::from_spec_outcomes(
        0, 1, 0, grid_total, outcomes,
    ))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn meta(seed: u64) -> SessionMeta {
        SessionMeta {
            cell_name: "Test cell / tab\ttricky".to_string(),
            cell_class: CellClass::Private,
            carrier_mhz: 3547.2,
            bandwidth_mhz: 20.0,
            duplexing: Duplexing::Tdd,
            duration: simcore::SimDuration::from_secs(12),
            seed,
            has_gnb_log: true,
        }
    }

    fn stats(n: usize) -> ChainStats {
        let mut s = ChainStats {
            minutes: n as f64 * 0.2 + 0.01,
            ..Default::default()
        };
        s.cause_onsets.insert("harq_retx".to_string(), n);
        s.consequence_windows
            .insert("jitter_buffer_drain".to_string(), 2 * n + 1);
        s.chain_windows.insert(
            ("harq_retx".to_string(), "jitter_buffer_drain".to_string()),
            n,
        );
        s.total_chain_windows = n;
        s
    }

    fn outcome(index: usize, with_live: bool) -> SpecOutcome {
        SpecOutcome {
            index,
            label: format!("spec {index} / rep0"),
            meta: meta(index as u64),
            stats: Some(stats(index + 1)),
            live: with_live.then_some(LiveStats {
                records_seen: 100 * index + 7,
                late_records_dropped: index,
                late_deliveries: 0,
                windows_emitted: 10 + index,
                peak_retained_records: 500 - index,
                early_exited: index % 2 == 1,
                late_drops_by_stream: {
                    // Attribute the drops to the gNB stream so the detail
                    // line round-trips whenever any spec dropped records.
                    let mut per = [0usize; TapStream::COUNT];
                    per[TapStream::Gnb.idx()] = index;
                    per
                },
                degraded_windows: index / 2,
            }),
        }
    }

    fn report_over(range: Range<usize>, shard: (usize, usize), total: usize) -> ShardReport {
        let outcomes: Vec<SpecOutcome> = range.clone().map(|i| outcome(i, true)).collect();
        ShardReport::from_spec_outcomes(shard.0, shard.1, range.start, total, outcomes)
    }

    #[test]
    fn plan_tiles_the_grid_contiguously() {
        for total in [0usize, 1, 5, 8, 17] {
            for count in [1usize, 2, 3, 5, 9] {
                let plan = ShardPlan::new(total, count);
                let mut covered = 0usize;
                for s in plan.shards() {
                    assert_eq!(s.range.start, covered, "contiguous");
                    covered = s.range.end;
                }
                assert_eq!(covered, total, "full coverage");
                let sizes: Vec<usize> = plan.shards().iter().map(|s| s.range.len()).collect();
                let (min, max) = (
                    sizes.iter().min().copied().unwrap_or(0),
                    sizes.iter().max().copied().unwrap_or(0),
                );
                assert!(max - min <= 1, "balanced: {sizes:?}");
            }
        }
    }

    #[test]
    fn encode_parse_round_trips() {
        let r = report_over(3..7, (1, 3), 10);
        let text = r.encode();
        let parsed = ShardReport::parse(&text).expect("parses");
        assert_eq!(parsed, r);
        assert_eq!(parsed.encode(), text, "canonical encode");
    }

    #[test]
    fn parse_rejects_tampering() {
        let r = report_over(0..3, (0, 1), 3);
        let text = r.encode();
        assert!(ShardReport::parse(&text.replace("v2", "v3")).is_err());
        // Dropping an outcome breaks the declared count (and the checksum).
        let mut truncated: Vec<&str> = text.lines().collect();
        truncated.truncate(8);
        assert!(ShardReport::parse(&(truncated.join("\n") + "\n")).is_err());
        // Editing a per-spec counter trips the checksum trailer.
        let tampered = text.replacen("kv\tharq_retx\t1", "kv\tharq_retx\t9", 1);
        assert_ne!(tampered, text);
        assert!(ShardReport::parse(&tampered).is_err());
    }

    #[test]
    fn checksum_trailer_catches_corrupted_but_parseable_bytes() {
        let r = report_over(0..3, (0, 1), 3);
        let text = r.encode();
        // A flipped character inside a *label* parses fine structurally and
        // perturbs nothing the aggregate refold can see — only the checksum
        // trailer rejects it.
        let corrupted = text.replacen("rep0", "rep1", 1);
        assert_ne!(corrupted, text);
        let e = ShardReport::parse(&corrupted).expect_err("must reject");
        assert_eq!(e, WireError::Checksum);
        // A forger who recomputes the checksum after editing a per-spec
        // counter still fails: the aggregate no longer re-folds.
        let forged = reseal(&text, &[("kv\tharq_retx\t1\n", "kv\tharq_retx\t9\n")]);
        let e = ShardReport::parse(&forged).expect_err("must reject");
        assert!(matches!(e, WireError::Inconsistent { .. }), "got {e:?}");
        // Trailing garbage after the end line is rejected.
        assert!(ShardReport::parse(&format!("{text}x\n")).is_err());
        assert!(ShardReport::parse(text.trim_end()).is_err(), "no newline");
    }

    /// `text` with each `(from, to)` replaced everywhere and the trailer
    /// recomputed, as any sender can: the checksum has no key.
    fn reseal(text: &str, edits: &[(&str, &str)]) -> String {
        let trailer = format!("end\t{END_TAG}\t");
        let mut body = text.rsplit_once(&trailer).expect("trailer").0.to_string();
        for (from, to) in edits {
            assert!(body.contains(from), "{from:?} not in report");
            body = body.replace(from, to);
        }
        let sum = domino_obs::wire::fnv1a64(body.as_bytes());
        format!("{body}{trailer}{sum:016x}\n")
    }

    #[test]
    fn forged_counts_and_ranges_are_errors_not_panics() {
        let max = usize::MAX.to_string();
        // A declared outcome count of usize::MAX used to size an allocation.
        let text = report_over(0..3, (0, 1), 3).encode();
        let huge = reseal(
            &text,
            &[
                ("range\t0\t3\n", &format!("range\t0\t{max}\n")),
                ("outcomes\t3\n", &format!("outcomes\t{max}\n")),
            ],
        );
        assert!(matches!(
            ShardReport::parse(&huge),
            Err(WireError::Malformed { .. })
        ));
        // A range whose end overflows used to overflow `start + k`.
        let text = report_over(0..2, (0, 1), 2).encode();
        let wrapping = reseal(
            &text,
            &[
                ("range\t0\t2\n", &format!("range\t{max}\t2\n")),
                ("outcome\t0\t", &format!("outcome\t{max}\t")),
            ],
        );
        assert!(matches!(
            ShardReport::parse(&wrapping),
            Err(WireError::Inconsistent { .. })
        ));
        // Counters whose fold overflows saturate; the refold check then
        // rejects the report.
        let text = report_over(0..3, (0, 1), 3).encode();
        let overflow = reseal(
            &text,
            &[("kv\tharq_retx\t1\n", &format!("kv\tharq_retx\t{max}\n"))],
        );
        assert!(matches!(
            ShardReport::parse(&overflow),
            Err(WireError::Inconsistent { .. })
        ));
    }

    #[test]
    fn resealed_non_canonical_text_is_rejected() {
        let text = report_over(0..3, (0, 1), 3).encode();
        let carrier = format!("{:016x}", 3547.2f64.to_bits());
        for (from, to) in [
            ("grid\t3\n".to_string(), "grid\t+3\n".to_string()),
            ("grid\t3\n".to_string(), "grid\t03\n".to_string()),
            (carrier.clone(), carrier.to_uppercase()),
            (carrier.clone(), carrier[1..].to_string()),
        ] {
            assert!(
                matches!(
                    ShardReport::parse(&reseal(&text, &[(&from, &to)])),
                    Err(WireError::Malformed { .. })
                ),
                "{to:?}"
            );
        }

        // The encoder never writes an all-zero detail line.
        let healthy = report_over(0..1, (0, 1), 1).encode();
        assert!(!healthy.contains("detail"));
        let live = healthy.lines().find(|l| l.starts_with("live\t1")).unwrap();
        let totals = healthy
            .lines()
            .find(|l| l.starts_with("livetotals"))
            .unwrap();
        for (line, tag) in [(live, "livedetail"), (totals, "livetotalsdetail")] {
            let zeros = format!("{line}\n{tag}{}\n", "\t0".repeat(TapStream::COUNT + 1));
            let forged = reseal(&healthy, &[(&format!("{line}\n"), &zeros)]);
            assert!(matches!(
                ShardReport::parse(&forged),
                Err(WireError::Inconsistent { .. })
            ));
        }

        // Map keys must strictly increase, in both the outcome's block and
        // the aggregate (each edit hits both, so the refold still holds).
        let mut o = outcome(0, true);
        let s = o.stats.as_mut().unwrap();
        s.cause_onsets.insert("zzz".to_string(), 1);
        let two_keys = ShardReport::from_spec_outcomes(0, 1, 0, 1, vec![o]).encode();
        let sorted = "kv\tharq_retx\t1\nkv\tzzz\t1\n";
        for edit in [
            "kv\tzzz\t1\nkv\tharq_retx\t1\n",
            "kv\tharq_retx\t1\nkv\tharq_retx\t1\n",
        ] {
            let forged = reseal(&two_keys, &[(sorted, edit)]);
            assert!(matches!(
                ShardReport::parse(&forged),
                Err(WireError::Inconsistent { .. })
            ));
        }
    }

    fn chain_stats_text(s: &ChainStats) -> String {
        let mut w = Writer::new("block");
        encode_chain_stats(&mut w, s);
        w.finish()
    }

    fn parse_chain_stats_text(text: &str) -> Result<ChainStats, WireError> {
        parse_chain_stats(&mut Reader::open(text, "block")?)
    }

    #[test]
    fn chain_stats_encode_parse_round_trips_exactly() {
        let mut s = stats(13);
        // Keys with wire-format separators must survive the trip.
        s.cause_onsets
            .insert("weird\tname\\with\nescapes".to_string(), 4);
        // Escaping reverses the order of these two keys; the parser checks
        // the unescaped order, which is the order the encoder sorts by.
        s.cause_onsets.insert("a\tb".to_string(), 1);
        s.cause_onsets.insert("a!".to_string(), 2);
        s.minutes = 0.1 + 0.2; // not exactly representable; bits must survive
        let text = chain_stats_text(&s);
        let parsed = parse_chain_stats_text(&text).expect("parses");
        assert_eq!(parsed, s);
        assert_eq!(parsed.minutes.to_bits(), s.minutes.to_bits());
        assert_eq!(chain_stats_text(&parsed), text, "encode must be canonical");
    }

    #[test]
    fn chain_stats_parse_rejects_corrupt_input() {
        let text = chain_stats_text(&stats(3));
        let bad_version = text.replace("chainstats\tv1", "chainstats\tv9");
        assert!(parse_chain_stats_text(&bad_version).is_err());
        let truncated: String = text.lines().take(3).map(|l| format!("{l}\n")).collect();
        assert!(parse_chain_stats_text(&truncated).is_err());
    }

    #[test]
    fn merge_requires_full_coverage() {
        let a = report_over(0..4, (0, 3), 10);
        let b = report_over(4..7, (1, 3), 10);
        let c = report_over(7..10, (2, 3), 10);
        assert!(matches!(merge_shards(&[]), Err(MergeError::Empty)));
        assert!(matches!(
            merge_shards(&[a.clone(), c.clone()]),
            Err(MergeError::Gap {
                expected: 4,
                found: 7
            })
        ));
        let merged = merge_shards(&[c.clone(), a.clone(), b.clone()]).expect("out of order ok");
        assert_eq!(merged.range(), 0..10);
        assert_eq!(merged.shard_count, 1);
        // Merged == the whole-range report, byte for byte.
        let whole = report_over(0..10, (0, 1), 10);
        assert_eq!(merged.encode(), whole.encode());
        // Grid-size disagreement is rejected.
        let wrong = report_over(4..7, (1, 3), 11);
        assert!(matches!(
            merge_shards(&[a, wrong, c]),
            Err(MergeError::GridMismatch { .. })
        ));
    }

    #[test]
    fn merge_rejects_overlapping_shards() {
        // 0..4 and 2..7 double-cover specs 2 and 3: a duplicate delivery
        // that slipped past range-id dedup must not silently mis-fold.
        let a = report_over(0..4, (0, 3), 10);
        let dup = report_over(2..7, (1, 3), 10);
        let c = report_over(7..10, (2, 3), 10);
        assert!(matches!(
            merge_shards(&[a, dup, c]),
            Err(MergeError::Overlap {
                start: 2,
                prior_end: 4
            })
        ));
    }

    #[test]
    fn merge_rejects_wrong_total() {
        // Contiguous from 0 but every report agrees on a grid of 12 while
        // only 10 specs are covered: the tail shard never reported.
        let a = report_over(0..4, (0, 3), 12);
        let b = report_over(4..10, (1, 3), 12);
        assert!(matches!(
            merge_shards(&[a, b]),
            Err(MergeError::WrongTotal {
                covered: 10,
                declared: 12
            })
        ));
        // Over-coverage relative to the declared total is WrongTotal too.
        let a = report_over(0..4, (0, 2), 3);
        assert!(matches!(
            merge_shards(&[a]),
            Err(MergeError::WrongTotal {
                covered: 4,
                declared: 3
            })
        ));
        // So is a total no report could cover, as a forged file may
        // declare; it must not size an allocation.
        let a = report_over(0..4, (0, 1), usize::MAX);
        assert!(matches!(
            merge_shards(&[a]),
            Err(MergeError::WrongTotal {
                covered: 4,
                declared: usize::MAX
            })
        ));
    }

    #[test]
    fn empty_shards_merge_cleanly() {
        let plan = ShardPlan::new(2, 4);
        assert_eq!(plan.shard(3).range.len(), 0);
        let reports: Vec<ShardReport> = plan
            .shards()
            .iter()
            .map(|s| report_over(s.range.clone(), (s.index, s.count), 2))
            .collect();
        let merged = merge_shards(&reports).expect("merges");
        assert_eq!(merged.encode(), report_over(0..2, (0, 1), 2).encode());
    }

    #[test]
    fn live_totals_fold_counters_and_peaks() {
        let r = report_over(0..4, (0, 1), 4);
        let t = r.live_totals;
        assert_eq!(t.sessions, 4);
        assert_eq!(t.records_seen, 7 + 107 + 207 + 307);
        assert_eq!(t.late_records_dropped, 6);
        assert_eq!(t.peak_retained_records, 500);
        assert_eq!(t.early_exits, 2);
        assert_eq!(t.late_drops_by_stream[TapStream::Gnb.idx()], 6);
        assert_eq!(t.late_drops_by_stream[TapStream::Packet.idx()], 0);
        // index/2 per outcome: 0 + 0 + 1 + 1.
        assert_eq!(t.degraded_windows, 2);
    }

    #[test]
    fn detail_lines_are_omitted_when_healthy() {
        // All-zero breakout: the encoded bytes must not contain the
        // optional detail lines, so pre-breakout goldens stay stable.
        let outcomes: Vec<SpecOutcome> = (0..3)
            .map(|i| {
                let mut o = outcome(i, true);
                let l = o.live.as_mut().unwrap();
                l.late_records_dropped = 0;
                l.late_drops_by_stream = [0; TapStream::COUNT];
                l.degraded_windows = 0;
                o
            })
            .collect();
        let r = ShardReport::from_spec_outcomes(0, 1, 0, 3, outcomes);
        let text = r.encode();
        assert!(!text.contains("livedetail"), "healthy report has no detail");
        let parsed = ShardReport::parse(&text).expect("parses");
        assert_eq!(parsed, r);
        assert_eq!(parsed.encode(), text);
    }
}
