//! Streaming ↔ batch equivalence over real simulated sessions: the
//! incremental analyzer must reproduce the batch oracle, which rescans every
//! window, bit-for-bit across a full sweep of a solo session bundle.

use domino::core::stream::StreamingAnalyzer;
use domino::core::{oracle, Analysis, Domino, DominoConfig};
use domino::scenarios::{all_cells, ScriptAction, SessionConfig, SessionSpec};
use domino::simcore::{SimDuration, SimTime};
use domino::telemetry::{Direction, TraceBundle};

use proptest::strategy::Strategy;

fn cfg(seed: u64, secs: u64) -> SessionConfig {
    SessionConfig {
        duration: SimDuration::from_secs(secs),
        seed,
        ..Default::default()
    }
}

fn assert_identical(batch: &Analysis, streaming: &Analysis) {
    assert_eq!(
        batch.windows.len(),
        streaming.windows.len(),
        "window counts differ"
    );
    assert_eq!(batch.duration, streaming.duration);
    for (b, s) in batch.windows.iter().zip(&streaming.windows) {
        assert_eq!(b.start, s.start);
        assert_eq!(
            b.features,
            s.features,
            "features diverge at {:?}: batch {:?} vs streaming {:?}",
            b.start,
            b.features.active_names(),
            s.features.active_names()
        );
        assert_eq!(b.chains, s.chains, "chains diverge at {:?}", b.start);
        assert_eq!(b.unknown_consequences, s.unknown_consequences);
    }
}

/// Asserts the streaming analyzer reproduces the oracle on `bundle` and
/// returns the oracle's analysis.
fn assert_equivalent_on(bundle: &TraceBundle, domino: &Domino) -> Analysis {
    let batch = oracle::analyze(domino, bundle);
    let mut streaming = StreamingAnalyzer::new(domino.graph().clone(), domino.config().clone())
        .expect("a Domino's config meets the contract");
    let incremental = streaming.analyze(bundle);
    assert_identical(&batch, &incremental);
    batch
}

#[test]
fn healthy_cell_session_is_bit_identical() {
    let domino = Domino::with_defaults();
    let bundle = SessionSpec::cell(domino::scenarios::amarisoft(), cfg(901, 30)).run();
    assert_equivalent_on(&bundle, &domino);
}

#[test]
fn impaired_sessions_are_bit_identical() {
    // Scripted impairments light up the RAN feature families (cross traffic,
    // HARQ, RRC), so the equivalence claim covers active detections, not just
    // all-false vectors.
    let domino = Domino::with_defaults();
    let t = |s: f64| SimTime::from_micros((s * 1e6) as u64);
    let specs = [
        SessionSpec::cell(domino::scenarios::tmobile_fdd_15mhz_quiet(), cfg(902, 25)).with_script(
            ScriptAction::CrossTraffic {
                dir: Direction::Downlink,
                from: t(8.0),
                to: t(12.0),
                prb_fraction: 0.97,
            },
        ),
        SessionSpec::cell(domino::scenarios::amarisoft_ideal(), cfg(903, 25)).with_script(
            ScriptAction::HarqFailures {
                dir: Direction::Uplink,
                from: t(10.0),
                to: t(12.0),
                fail_attempts: 1,
            },
        ),
        SessionSpec::cell(domino::scenarios::tmobile_fdd_15mhz_quiet(), cfg(904, 25))
            .with_script(ScriptAction::RrcRelease { at: t(10.0) }),
    ];
    let mut any_chain = false;
    for spec in &specs {
        let analysis = assert_equivalent_on(&spec.run(), &domino);
        any_chain |= analysis.windows.iter().any(|w| !w.chains.is_empty());
    }
    assert!(
        any_chain,
        "impaired sessions must produce at least one chain"
    );
}

#[test]
fn one_second_step_window_grid_is_bit_identical() {
    // The microbench configuration (1 s step), then variants that move every
    // knob the rolling state depends on: the trend chunk length, the count
    // thresholds, the window, the step and the MCS group. Each runs over the
    // four cells with a scripted UL fade or DL HARQ failures, plus a healthy
    // 30 s MoSoLabs call.
    let one_sec = DominoConfig {
        step: SimDuration::from_secs(1),
        ..Default::default()
    };
    let with = |edit: &dyn Fn(&mut DominoConfig)| {
        let mut c = one_sec.clone();
        edit(&mut c);
        c
    };
    let configs = [
        ("1 s step", one_sec.clone()),
        (
            "trend_subwindow 0",
            with(&|c| c.thresholds.trend_subwindow = 0),
        ),
        (
            "trend_subwindow 1",
            with(&|c| c.thresholds.trend_subwindow = 1),
        ),
        (
            "trend_subwindow 7",
            with(&|c| c.thresholds.trend_subwindow = 7),
        ),
        (
            "zero counts",
            with(&|c| {
                c.thresholds.harq_retx_count = 0;
                c.thresholds.mcs_low_count = 0;
                c.thresholds.ladder_switch_count = 0;
            }),
        ),
        (
            "W 0 s, no warmup",
            with(&|c| {
                c.window = SimDuration::ZERO;
                c.warmup = SimDuration::ZERO;
            }),
        ),
        ("W 3 s", with(&|c| c.window = SimDuration::from_secs(3))),
        ("W 4 s", with(&|c| c.window = SimDuration::from_secs(4))),
        (
            "step 200 ms",
            with(&|c| {
                c.step = SimDuration::from_millis(200);
                c.warmup = SimDuration::from_secs(2);
            }),
        ),
        (
            "step 400 ms",
            with(&|c| {
                c.step = SimDuration::from_millis(400);
                c.warmup = SimDuration::from_secs(2);
            }),
        ),
        ("MCS 25 ms", with(&|c| c.thresholds.mcs_group_ms = 25)),
        ("MCS 40 ms", with(&|c| c.thresholds.mcs_group_ms = 40)),
        ("MCS 100 ms", with(&|c| c.thresholds.mcs_group_ms = 100)),
    ];
    let t = |s: u64| SimTime::from_secs(s);
    let mut bundles: Vec<TraceBundle> = all_cells()
        .into_iter()
        .enumerate()
        .map(|(i, cell)| {
            let script = if i % 2 == 0 {
                ScriptAction::Sinr {
                    dir: Direction::Uplink,
                    from: t(8),
                    to: t(13),
                    sinr_db: -2.0,
                }
            } else {
                ScriptAction::HarqFailures {
                    dir: Direction::Downlink,
                    from: t(8),
                    to: t(12),
                    fail_attempts: 1,
                }
            };
            SessionSpec::cell(cell, cfg(910 + i as u64, 20))
                .with_script(script)
                .run()
        })
        .collect();
    bundles.push(SessionSpec::cell(domino::scenarios::mosolabs(), cfg(905, 30)).run());
    for (name, config) in configs {
        // An empty window is all-false; any other must see detections.
        let empty = config.window == SimDuration::ZERO;
        let domino = Domino::try_new(domino::core::default_graph(), config)
            .unwrap_or_else(|e| panic!("{name}: {e}"));
        let mut active = 0;
        for bundle in &bundles {
            let batch = assert_equivalent_on(bundle, &domino);
            active += batch
                .windows
                .iter()
                .map(|w| w.features.count_active())
                .sum::<usize>();
        }
        assert_eq!(active == 0, empty, "{name}: {active} active features");
    }
}

#[test]
fn busy_window_delay_trends_are_bit_identical() {
    // Fuzz aimed at the amortized delay-trend state (PR 4): dense,
    // irregular packet streams where the number of delay records expiring
    // per step is never a multiple of `trend_subwindow`, so every chunk
    // boundary shifts on every slide. Delays drift up and down across the
    // session to flip the uptrend verdict many times per run.
    use domino::telemetry::{PacketRecord, SessionMeta, StreamKind};
    let mut rng = proptest::test_rng("busy_window_delay_trends_are_bit_identical");
    for case in 0..4u32 {
        let mut bundle = TraceBundle::new(SessionMeta::baseline(
            "busy",
            SimDuration::from_secs(30),
            case as u64,
        ));
        let mut ts_us: u64 = 0;
        let mut seq = 0u64;
        while ts_us < 30_000_000 {
            // Bursty interarrivals: 37 µs to ~20 ms, prime-ish so window
            // populations vary mod trend_subwindow.
            ts_us += (37u64..20_011).generate(&mut rng);
            let phase = (ts_us as f64 / 3.7e6).sin();
            let base = 18.0 + 30.0 * phase.max(0.0);
            let delay_ms = base + (0.0f64..14.0).generate(&mut rng);
            let lost = (0u8..50).generate(&mut rng) == 0;
            let dir = if seq.is_multiple_of(2) {
                Direction::Uplink
            } else {
                Direction::Downlink
            };
            let stream = if seq.is_multiple_of(11) {
                StreamKind::Rtcp
            } else {
                StreamKind::Video
            };
            bundle.packets.push(PacketRecord {
                sent: SimTime::from_micros(ts_us),
                received: (!lost).then(|| SimTime::from_micros(ts_us + (delay_ms * 1000.0) as u64)),
                direction: dir,
                stream,
                seq,
                size_bytes: 200 + (0u32..1200).generate(&mut rng),
            });
            seq += 1;
        }
        bundle.sort();
        let batch = assert_equivalent_on(&bundle, &Domino::with_defaults());
        let trends: usize = batch
            .windows
            .iter()
            .map(|w| w.features.count_active())
            .sum();
        assert!(
            trends > 0,
            "case {case}: busy fuzz produced no active features — too tame"
        );
        // Same trace under the 1 s step grid (different expiry cadence).
        let one_sec = Domino::new(
            domino::core::default_graph(),
            DominoConfig {
                step: SimDuration::from_secs(1),
                ..Default::default()
            },
        );
        assert_equivalent_on(&bundle, &one_sec);
    }
}

#[test]
fn push_api_in_irregular_batches_matches_batch() {
    // Drive the push API with awkward 73 ms ingestion batches instead of the
    // per-window schedule `analyze` uses: emission must only depend on what
    // has been pushed, not on the batching.
    let domino = Domino::with_defaults();
    let bundle = SessionSpec::cell(domino::scenarios::amarisoft(), cfg(906, 20)).run();
    let batch = oracle::analyze(&domino, &bundle);

    let mut streaming =
        StreamingAnalyzer::new(domino.graph().clone(), domino.config().clone()).unwrap();
    let step = domino.config().step;
    let window = domino.config().window;
    let horizon = bundle.horizon();
    let mut cursor = bundle.cursor();
    let mut ingested_to = SimTime::ZERO;
    let mut windows = Vec::new();
    let mut start = SimTime::ZERO + domino.config().warmup;
    while start + window <= horizon {
        let end = start + window;
        while ingested_to < end {
            ingested_to = (ingested_to + SimDuration::from_millis(73)).min(end);
            let slices = bundle.advance_until(&mut cursor, ingested_to);
            streaming.push_slices(&slices);
        }
        windows.push(streaming.emit(start));
        start += step;
    }
    let incremental = Analysis {
        windows,
        duration: bundle.meta.duration,
    };
    assert_identical(&batch, &incremental);
}
