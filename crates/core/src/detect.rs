//! The detector (paper §4.2): its configuration, the contract that
//! configuration must meet, and the sliding-window results.
//!
//! Domino maintains a window of length W = 5 s, extracts the 40-dim feature
//! vector, finds the active causal chains in the graph's compiled chain
//! table ([`DetectionProgram`]), then slides the window forward by
//! Δt = 0.5 s. The [`StreamingAnalyzer`] is the one engine that does this;
//! [`Domino::analyze`] runs it over a recorded bundle.

use simcore::{SimDuration, SimTime};
use telemetry::TraceBundle;

use crate::codegen::{compile, DetectionProgram};
use crate::features::FeatureVector;
use crate::graph::{CausalGraph, NodeId};
use crate::stream::{check_config, StreamingAnalyzer, UnsupportedConfig};

/// All tunable constants of the Table 5 conditions. Defaults are the
/// paper's values.
#[derive(Debug, Clone)]
pub struct Thresholds {
    /// Frame-rate drop: max must exceed this (rows 1–2).
    pub framerate_high: f64,
    /// Frame-rate drop: min must fall below this.
    pub framerate_low: f64,
    /// Packet-delay uptrend requires a sample above this (rows 11–12), ms.
    pub delay_floor_ms: f64,
    /// Sub-window length for windowed means (rows 9, 11, 12), samples.
    pub trend_subwindow: usize,
    /// TBS drop: min below this fraction of max (row 13).
    pub tbs_drop_fraction: f64,
    /// App-exceeds-TBS: fraction of bins required (row 14).
    pub rate_exceed_fraction: f64,
    /// Cross traffic: other-UE PRB sum over ours (row 15).
    pub cross_traffic_fraction: f64,
    /// Channel degraded: p90 of grouped MCS below this (row 16).
    pub mcs_p90_below: f64,
    /// Channel degraded: groups with median MCS below this...
    pub mcs_low_value: f64,
    /// ...must appear more than this many times.
    pub mcs_low_count: usize,
    /// MCS grouping window (row 16), ms. Must be positive; with the 100 ms
    /// rate bin it sets the granule the window grid aligns to (see
    /// [`DominoConfig`]).
    pub mcs_group_ms: u64,
    /// HARQ retransmissions needed in the window (row 17).
    pub harq_retx_count: usize,
    /// Relative tolerance for "decrease" comparisons on rates.
    pub rate_drop_epsilon: f64,
    /// Jitter-buffer drain level (ms at or below counts as drained).
    pub drain_level_ms: f64,
    /// Playback buffer low-water mark (ms; below counts as buffer-low).
    pub playback_buffer_low_ms: f64,
    /// Ladder oscillation: rung changes in the window must exceed this.
    pub ladder_switch_count: usize,
}

impl Default for Thresholds {
    fn default() -> Self {
        Thresholds {
            framerate_high: 27.0,
            framerate_low: 25.0,
            delay_floor_ms: 80.0,
            trend_subwindow: 10,
            tbs_drop_fraction: 0.8,
            rate_exceed_fraction: 0.1,
            cross_traffic_fraction: 0.2,
            mcs_p90_below: 20.0,
            mcs_low_value: 10.0,
            mcs_low_count: 10,
            mcs_group_ms: 50,
            harq_retx_count: 10,
            rate_drop_epsilon: 0.01,
            drain_level_ms: 0.5,
            playback_buffer_low_ms: 2_000.0,
            ladder_switch_count: 3,
        }
    }
}

/// Engine configuration.
///
/// The analyzer bins time relative to each window start (Table 5 rows 14
/// and 16), so every window start must fall on a bin boundary. The
/// contract, checked once when a [`Domino`] or a
/// [`StreamingAnalyzer`] is built: `warmup`, `step` and `window` are
/// multiples of the granule (the LCM of the 100 ms rate bin and
/// `thresholds.mcs_group_ms`), `step` is positive, and so is
/// `thresholds.mcs_group_ms`. A configuration that breaks it is rejected
/// with an [`UnsupportedConfig`] naming the rule. The paper's configuration
/// (granule 100 ms) meets it.
#[derive(Debug, Clone)]
pub struct DominoConfig {
    /// Sliding-window length (paper: 5 s). A multiple of the granule.
    pub window: SimDuration,
    /// Step between windows (paper: 0.5 s). Positive and a multiple of the
    /// granule.
    pub step: SimDuration,
    /// Leading portion of the trace to skip (session ramp-up). A multiple
    /// of the granule.
    pub warmup: SimDuration,
    /// Detection thresholds (Table 5 constants).
    pub thresholds: Thresholds,
}

impl Default for DominoConfig {
    fn default() -> Self {
        DominoConfig {
            window: SimDuration::from_secs(5),
            step: SimDuration::from_millis(500),
            warmup: SimDuration::from_secs(3),
            thresholds: Thresholds::default(),
        }
    }
}

/// One detected causal chain inside one window.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ChainHit {
    /// Root cause node.
    pub cause: NodeId,
    /// Full path, cause first, consequence last.
    pub path: Vec<NodeId>,
    /// Consequence node.
    pub consequence: NodeId,
}

/// How much of the telemetry a verdict's window was actually analysed
/// with — the live pipeline's honesty annotation for degraded feeds.
///
/// A window analysed over gapped or late-dropped telemetry can report a
/// silently wrong cause; instead of hiding that, the live pipeline stamps
/// each verdict with what was missing. Derived purely from simulation
/// state, so it is byte-identical across partitionings like every other
/// live output.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct VerdictCoverage {
    /// Records dropped for lateness since the previous window closed.
    pub late_drops: usize,
    /// Bitmask of telemetry streams (bit = `telemetry::TapStream::idx()`)
    /// that had produced records before but contributed none to this
    /// window's span — a gap or blackout, not a stream that never existed.
    pub gapped_streams: u8,
    /// `1.0` for a fully covered window, reduced per gapped stream and per
    /// late drop; floor 0.0.
    pub confidence: f64,
}

impl VerdictCoverage {
    /// Full coverage: nothing dropped, nothing gapped.
    pub fn full() -> Self {
        VerdictCoverage {
            late_drops: 0,
            gapped_streams: 0,
            confidence: 1.0,
        }
    }

    /// Whether anything was missing from this window's telemetry.
    pub fn is_degraded(&self) -> bool {
        self.late_drops > 0 || self.gapped_streams != 0
    }
}

impl Default for VerdictCoverage {
    fn default() -> Self {
        Self::full()
    }
}

/// Analysis result for one window position.
#[derive(Debug, Clone, PartialEq)]
pub struct WindowAnalysis {
    /// Window start time.
    pub start: SimTime,
    /// Extracted features.
    pub features: FeatureVector,
    /// Complete chains, in chain-table order.
    pub chains: Vec<ChainHit>,
    /// Active consequences with no complete chain to any root cause.
    pub unknown_consequences: Vec<NodeId>,
}

/// A full trace analysis: one entry per window position.
#[derive(Debug, Clone, PartialEq)]
pub struct Analysis {
    /// Per-window results, in time order.
    pub windows: Vec<WindowAnalysis>,
    /// Trace duration analysed (for per-minute normalisation).
    pub duration: SimDuration,
}

/// The Domino detector: a causal graph, its chain table, and a
/// configuration that meets the contract of [`DominoConfig`].
#[derive(Debug, Clone)]
pub struct Domino {
    graph: CausalGraph,
    program: DetectionProgram,
    cfg: DominoConfig,
}

impl Domino {
    /// Creates a detector over a custom graph, or reports which rule of the
    /// [`DominoConfig`] contract `cfg` breaks.
    pub fn try_new(graph: CausalGraph, cfg: DominoConfig) -> Result<Self, UnsupportedConfig> {
        check_config(&cfg)?;
        Ok(Domino {
            program: compile(&graph),
            graph,
            cfg,
        })
    }

    /// Creates a detector over a custom graph.
    ///
    /// # Panics
    ///
    /// If `cfg` breaks the [`DominoConfig`] contract, with the message of
    /// the [`UnsupportedConfig`] that [`Domino::try_new`] returns.
    #[track_caller]
    pub fn new(graph: CausalGraph, cfg: DominoConfig) -> Self {
        Self::try_new(graph, cfg).unwrap_or_else(|e| panic!("{e}"))
    }

    /// The paper's default configuration: Fig. 9 graph, W = 5 s, Δt = 0.5 s.
    pub fn with_defaults() -> Self {
        Domino::new(crate::dsl::default_graph(), DominoConfig::default())
    }

    /// The underlying graph.
    pub fn graph(&self) -> &CausalGraph {
        &self.graph
    }

    /// The engine configuration.
    pub fn config(&self) -> &DominoConfig {
        &self.cfg
    }

    /// Runs the sliding-window analysis over a trace bundle, on a
    /// [`StreamingAnalyzer`] built from this detector's graph and
    /// configuration.
    pub fn analyze(&self, bundle: &TraceBundle) -> Analysis {
        StreamingAnalyzer::new(self.graph.clone(), self.cfg.clone())
            .expect("checked when the Domino was built")
            .analyze(bundle)
    }

    /// A feature vector's complete chains and unexplained consequences,
    /// from the graph's chain table ([`DetectionProgram::trace_chains`]).
    pub fn trace_chains(&self, features: &FeatureVector) -> (Vec<ChainHit>, Vec<NodeId>) {
        self.program.trace_chains(features)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dsl::default_graph;
    use crate::features::Feature;
    use telemetry::{AppStatsRecord, SessionMeta};

    fn t(ms: u64) -> SimTime {
        SimTime::from_millis(ms)
    }

    fn bundle_seconds(secs: u64) -> TraceBundle {
        let mut b = TraceBundle::new(SessionMeta::baseline("t", SimDuration::from_secs(secs), 0));
        // 50 ms cadence healthy samples so windows exist.
        for i in 0..(secs * 20) {
            let mut s = AppStatsRecord::baseline(t(i * 50));
            s.inbound_fps = 30.0;
            s.video_jitter_buffer_ms = 100.0;
            b.app_local.push(s.clone());
            b.app_remote.push(s);
        }
        b
    }

    /// One configuration per rule of the contract, each breaking only that
    /// rule, with the error it must produce.
    fn off_contract() -> Vec<(DominoConfig, UnsupportedConfig)> {
        let with = |edit: fn(&mut DominoConfig)| {
            let mut cfg = DominoConfig::default();
            edit(&mut cfg);
            cfg
        };
        let unaligned = |field, value_us| UnsupportedConfig::Unaligned {
            field,
            value_us,
            granule_us: 100_000,
        };
        vec![
            (
                with(|c| c.step = SimDuration::from_millis(333)),
                unaligned("step", 333_000),
            ),
            (
                with(|c| c.warmup = SimDuration::from_millis(150)),
                unaligned("warmup", 150_000),
            ),
            (
                with(|c| c.window = SimDuration::from_millis(2_050)),
                unaligned("window", 2_050_000),
            ),
            (
                with(|c| c.step = SimDuration::ZERO),
                UnsupportedConfig::ZeroStep,
            ),
            (
                with(|c| c.thresholds.mcs_group_ms = 0),
                UnsupportedConfig::ZeroMcsGroup,
            ),
        ]
    }

    #[test]
    fn try_new_enforces_the_config_contract() {
        assert!(Domino::try_new(default_graph(), DominoConfig::default()).is_ok());
        // A 40 ms MCS group makes the granule 200 ms: the default 0.5 s
        // step is then off it.
        let mut coarse = DominoConfig::default();
        coarse.thresholds.mcs_group_ms = 40;
        assert_eq!(
            Domino::try_new(default_graph(), coarse).unwrap_err(),
            UnsupportedConfig::Unaligned {
                field: "step",
                value_us: 500_000,
                granule_us: 200_000
            }
        );
        for (cfg, want) in off_contract() {
            let got = Domino::try_new(default_graph(), cfg.clone()).map(|_| ());
            assert_eq!(got, Err(want), "{cfg:?}");
            let got = StreamingAnalyzer::new(default_graph(), cfg.clone()).map(|_| ());
            assert_eq!(got, Err(want), "{cfg:?}");
            let panic = std::panic::catch_unwind(|| Domino::new(default_graph(), cfg.clone()))
                .expect_err("Domino::new must panic off the contract");
            assert_eq!(
                panic.downcast_ref::<String>(),
                Some(&want.to_string()),
                "{cfg:?}"
            );
        }
        // Each message names the rule that failed.
        let messages: Vec<String> = off_contract()
            .into_iter()
            .map(|(_, e)| e.to_string())
            .collect();
        assert_eq!(
            messages,
            [
                "step must be a multiple of the 100000 µs bin granule, got 333000 µs",
                "warmup must be a multiple of the 100000 µs bin granule, got 150000 µs",
                "window must be a multiple of the 100000 µs bin granule, got 2050000 µs",
                "step must be positive, got 0 µs",
                "thresholds.mcs_group_ms must be positive, got 0",
            ]
        );
    }

    #[test]
    fn window_count_matches_step() {
        let d = Domino::with_defaults();
        let b = bundle_seconds(20);
        let a = d.analyze(&b);
        // Horizon ≈ 20 s; warmup 3 s, window 5 s, step 0.5 s:
        // starts at 3.0 .. 15.0 → ≈ 24 windows.
        assert!((20..=26).contains(&a.windows.len()), "{}", a.windows.len());
        // Healthy trace: no chains anywhere.
        assert!(a.windows.iter().all(|w| w.chains.is_empty()));
    }

    #[test]
    fn drain_without_cause_is_unknown() {
        let d = Domino::with_defaults();
        let mut b = bundle_seconds(20);
        // Inject a jitter-buffer drain at 10 s with no 5G events at all.
        let idx = 200;
        b.app_local[idx].video_jitter_buffer_ms = 0.0;
        b.app_local[idx].inbound_fps = 10.0;
        let a = d.analyze(&b);
        let jb = d.graph().id("jitter_buffer_drain").unwrap();
        let affected: Vec<&WindowAnalysis> = a
            .windows
            .iter()
            .filter(|w| w.unknown_consequences.contains(&jb))
            .collect();
        assert!(
            !affected.is_empty(),
            "drain must be detected and unattributed"
        );
    }

    #[test]
    fn full_chain_detected_from_features() {
        let d = Domino::with_defaults();
        let mut fv = FeatureVector::new();
        fv.set(Feature::parse("dl_harq_retx").unwrap(), true);
        fv.set(Feature::parse("forward_delay_up").unwrap(), true);
        fv.set(Feature::parse("local_jitter_buffer_drain").unwrap(), true);
        let (chains, unknown) = d.trace_chains(&fv);
        assert!(unknown.is_empty());
        assert_eq!(chains.len(), 1);
        let g = d.graph();
        assert_eq!(g.name(chains[0].cause), "harq_retx");
        assert_eq!(g.name(chains[0].consequence), "jitter_buffer_drain");
        assert_eq!(chains[0].path.len(), 3);
    }

    #[test]
    fn pushback_reachable_via_both_paths() {
        let d = Domino::with_defaults();
        let mut fv = FeatureVector::new();
        fv.set(Feature::parse("ul_cross_traffic").unwrap(), true);
        fv.set(Feature::parse("forward_delay_up").unwrap(), true);
        fv.set(Feature::parse("reverse_delay_up").unwrap(), true);
        fv.set(Feature::parse("local_pushback_rate_down").unwrap(), true);
        let (chains, _) = d.trace_chains(&fv);
        // cross_traffic → fwd → pushback AND cross_traffic → rev → pushback.
        assert_eq!(chains.len(), 2);
        let mut mids: Vec<&str> = chains.iter().map(|c| d.graph().name(c.path[1])).collect();
        mids.sort();
        assert_eq!(mids, vec!["forward_delay_up", "reverse_delay_up"]);
    }
}
