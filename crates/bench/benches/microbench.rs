//! Criterion micro-benchmarks for the performance-critical paths:
//! Domino's streaming analyzer and chain search (the "continuous,
//! near real-time" requirement of §1), the RAN simulator's slot loop, and
//! the GCC building blocks.

use criterion::{criterion_group, criterion_main, Criterion};
use std::collections::BTreeMap;
use std::hint::black_box;

use domino_core::{default_graph, Domino, DominoConfig, Feature, FeatureVector, StreamingAnalyzer};
use domino_sweep::{
    merge_shards, run_coordinator, run_shard, CoordinatorConfig, ExecutionMode, FaultPlan,
    InProcFleet, MuxWorker, ShardPlan, SweepOptions,
};
use ran_sim::phy;
use rtc_sim::gcc::trendline::{PacketTiming, TrendlineEstimator};
use rtc_sim::{OutgoingPacket, PacketPayload, PlayoutDelayEstimator, RtcEndpoint, SenderConfig};
use scenarios::{SessionArena, SessionConfig, SessionSpec};
use simcore::{EventQueue, SimDuration, SimTime};

fn session_bundle() -> telemetry::TraceBundle {
    let cfg = SessionConfig {
        duration: SimDuration::from_secs(20),
        seed: 999,
        ..Default::default()
    };
    SessionSpec::cell(scenarios::amarisoft(), cfg).run()
}

/// Per-step cost of the analyzer at 1 s step / 5 s window: each iteration
/// ingests one step's worth of records and emits one window.
fn bench_streaming_step(c: &mut Criterion) {
    let bundle = session_bundle();
    let cfg = DominoConfig {
        step: SimDuration::from_secs(1),
        ..Default::default()
    };
    let warmup = cfg.warmup;
    let window = cfg.window;
    let step = cfg.step;
    let horizon = bundle.horizon();
    let mut analyzer = StreamingAnalyzer::new(default_graph(), cfg).expect("aligned");
    let mut cursor = bundle.cursor();
    let mut start = SimTime::ZERO + warmup;
    c.bench_function("domino/streaming_step", |b| {
        b.iter(|| {
            if start + window > horizon {
                // Wrapped past the trace end: restart the sweep. Amortised
                // over the ~13 steps per sweep this is noise.
                analyzer.reset();
                cursor = bundle.cursor();
                start = SimTime::ZERO + warmup;
            }
            let slices = bundle.advance_until(&mut cursor, start + window);
            analyzer.push_slices(&slices);
            let w = analyzer.emit(start);
            start += step;
            w
        })
    });
}

/// Per-step cost of the full live pipeline at 1 s step / 5 s window: replay
/// a recorded session's telemetry as emission-time tap events (packet sends
/// at `sent`, deliveries at `received`, gNB logs at their out-of-order
/// timestamps), one second of session time per iteration. The delta over
/// `domino/streaming_step` is the price of the watermark reorder stage and
/// the in-flight packet staging.
enum Ev {
    AppL(usize),
    AppR(usize),
    Dci(usize),
    Gnb(usize),
    Sent(usize),
    Del(usize),
}

/// Flattens a recorded bundle into the emission-time tap event stream
/// (packet sends at `sent` fate-unknown, deliveries at `received`, gNB logs
/// at their out-of-order timestamps) the live-stack benches replay.
fn tap_replay(
    bundle: &telemetry::TraceBundle,
) -> (Vec<(SimTime, Ev)>, Vec<telemetry::PacketRecord>) {
    let mut events: Vec<(SimTime, Ev)> = Vec::new();
    for (i, r) in bundle.app_local.iter().enumerate() {
        events.push((r.ts, Ev::AppL(i)));
    }
    for (i, r) in bundle.app_remote.iter().enumerate() {
        events.push((r.ts, Ev::AppR(i)));
    }
    for (i, r) in bundle.dci.iter().enumerate() {
        events.push((r.ts, Ev::Dci(i)));
    }
    for (i, r) in bundle.gnb.iter().enumerate() {
        events.push((r.ts, Ev::Gnb(i)));
    }
    let mut unsent = Vec::new();
    for (i, p) in bundle.packets.iter().enumerate() {
        // Packets are announced fate-unknown at send time...
        let mut record = p.clone();
        record.received = None;
        unsent.push(record);
        events.push((p.sent, Ev::Sent(i)));
        // ...and patched at delivery.
        if let Some(at) = p.received {
            events.push((at, Ev::Del(i)));
        }
    }
    // Stable: packet sends keep their (sent, id) emission order on ties.
    events.sort_by_key(|e| e.0);
    (events, unsent)
}

/// Replays one second of session time into `tap`.
fn replay_second(
    tap: &mut impl telemetry::LiveTap,
    bundle: &telemetry::TraceBundle,
    events: &[(SimTime, Ev)],
    unsent: &[telemetry::PacketRecord],
    idx: &mut usize,
    now: &mut SimTime,
) {
    *now += SimDuration::from_secs(1);
    while *idx < events.len() && events[*idx].0 < *now {
        match events[*idx].1 {
            Ev::AppL(i) => tap.on_app_local(&bundle.app_local[i]),
            Ev::AppR(i) => tap.on_app_remote(&bundle.app_remote[i]),
            Ev::Dci(i) => tap.on_dci(&bundle.dci[i]),
            Ev::Gnb(i) => tap.on_gnb(&bundle.gnb[i]),
            Ev::Sent(i) => tap.on_packet_sent(i as u64, &unsent[i]),
            Ev::Del(i) => {
                tap.on_packet_delivered(
                    i as u64,
                    bundle.packets[i]
                        .received
                        .expect("delivery implies received"),
                );
            }
        }
        *idx += 1;
    }
    tap.on_tick(*now);
}

fn bench_live_step(c: &mut Criterion) {
    use domino_live::{EarlyExit, LiveConfig, LivePipeline};
    use telemetry::Lateness;

    let bundle = session_bundle();
    let (events, unsent) = tap_replay(&bundle);

    let cfg = DominoConfig {
        step: SimDuration::from_secs(1),
        ..Default::default()
    };
    let mut pipe = LivePipeline::new(
        default_graph(),
        cfg,
        LiveConfig {
            lateness: Lateness::Static(SimDuration::from_secs(1)),
            early_exit: EarlyExit::Never,
        },
    )
    .expect("aligned");
    let mut idx = 0usize;
    let mut now = SimTime::ZERO;
    c.bench_function("domino/live_step", |b| {
        b.iter(|| {
            if idx >= events.len() {
                // Replayed the whole session: start over.
                pipe.reset();
                idx = 0;
                now = SimTime::ZERO;
            }
            replay_second(&mut pipe, &bundle, &events, &unsent, &mut idx, &mut now);
            black_box(pipe.stats())
        })
    });
}

/// The same per-step workload as `domino/live_step` with the adaptive
/// lateness bound: every record additionally feeds the per-stream delay
/// histograms and every tick re-derives the watermark bound from the target
/// quantile. The delta over `domino/live_step` is the whole price of
/// adaptivity.
fn bench_adaptive_step(c: &mut Criterion) {
    use domino_live::{EarlyExit, LiveConfig, LivePipeline};
    use telemetry::Lateness;

    let bundle = session_bundle();
    let (events, unsent) = tap_replay(&bundle);
    let cfg = DominoConfig {
        step: SimDuration::from_secs(1),
        ..Default::default()
    };
    let mut pipe = LivePipeline::new(
        default_graph(),
        cfg,
        LiveConfig {
            lateness: Lateness::Adaptive {
                target_quantile: 0.99,
                floor: SimDuration::from_millis(100),
                ceil: SimDuration::from_secs(5),
            },
            early_exit: EarlyExit::Never,
        },
    )
    .expect("aligned");
    let mut idx = 0usize;
    let mut now = SimTime::ZERO;
    c.bench_function("live/adaptive_step", |b| {
        b.iter(|| {
            if idx >= events.len() {
                pipe.reset();
                idx = 0;
                now = SimTime::ZERO;
            }
            replay_second(&mut pipe, &bundle, &events, &unsent, &mut idx, &mut now);
            black_box(pipe.stats())
        })
    });
}

/// Tap-layer tax of chaos injection: `domino/live_step`'s replay pushed
/// through a [`ChaosTap`](domino_live::ChaosTap) whose script rolls a drop
/// and a delay fault on the gNB stream — so every record pays the seeded
/// fault rolls, the fault log, and (for the delayed few) the stash
/// round-trip. Compare against `domino/live_step` for the per-record
/// overhead; production sweeps without a chaos spec skip the wrapper
/// entirely.
fn bench_chaos_tap_overhead(c: &mut Criterion) {
    use domino_live::{ChaosState, ChaosTap, EarlyExit, LiveConfig, LivePipeline};
    use telemetry::{Lateness, TapChaosSpec, TapFault, TapStream};

    let bundle = session_bundle();
    let (events, unsent) = tap_replay(&bundle);
    let cfg = DominoConfig {
        step: SimDuration::from_secs(1),
        ..Default::default()
    };
    let mut pipe = LivePipeline::new(
        default_graph(),
        cfg,
        LiveConfig {
            lateness: Lateness::Static(SimDuration::from_secs(1)),
            early_exit: EarlyExit::Never,
        },
    )
    .expect("aligned");
    let spec = TapChaosSpec::new(0xC4A0)
        .fault(TapFault::Drop {
            stream: TapStream::Gnb,
            pct: 5,
        })
        .fault(TapFault::Delay {
            stream: TapStream::Gnb,
            pct: 5,
            max_delay: SimDuration::from_millis(400),
        });
    let mut state = ChaosState::new(&spec);
    let mut idx = 0usize;
    let mut now = SimTime::ZERO;
    c.bench_function("live/chaos_tap_overhead", |b| {
        b.iter(|| {
            if idx >= events.len() {
                pipe.reset();
                state = ChaosState::new(&spec);
                idx = 0;
                now = SimTime::ZERO;
            }
            let mut tap = ChaosTap::new(&mut state, &mut pipe);
            replay_second(&mut tap, &bundle, &events, &unsent, &mut idx, &mut now);
            black_box(pipe.stats())
        })
    });
}

/// The same per-step workload as `domino/live_step`, but through a
/// session-keyed [`domino_live::PipelinePool`]: each full-session replay
/// checks a pipeline out (reset of a warm free-list entry) and releases it
/// back at the end, so the number prices exactly what the multiplexed
/// sweep's live mode pays per step — pool indirection plus the periodic
/// lease cycle — over a dedicated per-worker pipeline.
fn bench_pool_step(c: &mut Criterion) {
    use domino_live::{EarlyExit, LiveConfig, PipelinePool};
    use telemetry::Lateness;

    let bundle = session_bundle();
    let (events, unsent) = tap_replay(&bundle);
    let cfg = DominoConfig {
        step: SimDuration::from_secs(1),
        ..Default::default()
    };
    let mut pool = PipelinePool::new(
        default_graph(),
        cfg,
        LiveConfig {
            lateness: Lateness::Static(SimDuration::from_secs(1)),
            early_exit: EarlyExit::Never,
        },
    )
    .expect("aligned");
    let mut session = 0u64;
    pool.checkout(session);
    let mut idx = 0usize;
    let mut now = SimTime::ZERO;
    c.bench_function("live/pool_step", |b| {
        b.iter(|| {
            if idx >= events.len() {
                // Replayed the whole session: the "call" ends — release the
                // pipeline and lease one for the next call, like a
                // multiplexed slot refill.
                pool.release(session);
                session += 1;
                pool.checkout(session);
                idx = 0;
                now = SimTime::ZERO;
            }
            let pipe = pool.get_mut(session).expect("leased");
            replay_second(pipe, &bundle, &events, &unsent, &mut idx, &mut now);
            black_box(pipe.stats())
        })
    });
}

/// A full sweep of the 20 s session at the same configuration, on a reused
/// analyzer.
fn bench_full_sweep(c: &mut Criterion) {
    let bundle = session_bundle();
    let cfg = DominoConfig {
        step: SimDuration::from_secs(1),
        ..Default::default()
    };
    let mut analyzer = StreamingAnalyzer::new(default_graph(), cfg).expect("aligned");
    c.bench_function("domino/streaming_full_sweep_20s", |b| {
        b.iter(|| analyzer.analyze(black_box(&bundle)))
    });
}

/// One busy window's chain search on the default graph's chain table: 8 of
/// its 24 chains hit. The bench keeps the name it had when the recursive
/// backward trace did this, so its baseline series continues.
fn bench_chain_search(c: &mut Criterion) {
    let domino = Domino::with_defaults();
    let mut fv = FeatureVector::new();
    for name in [
        "ul_harq_retx",
        "dl_cross_traffic",
        "forward_delay_up",
        "reverse_delay_up",
        "local_jitter_buffer_drain",
        "local_target_bitrate_down",
        "local_pushback_rate_down",
    ] {
        fv.set(Feature::parse(name).expect("feature"), true);
    }
    c.bench_function("domino/backward_trace_busy_window", |b| {
        b.iter(|| domino.trace_chains(black_box(&fv)))
    });
}

fn bench_dsl_parse(c: &mut Criterion) {
    c.bench_function("domino/dsl_parse_default_config", |b| {
        b.iter(|| domino_core::parse(black_box(domino_core::DEFAULT_CONFIG)).expect("parses"))
    });
}

fn bench_ran_session(c: &mut Criterion) {
    c.bench_function("ran/two_party_session_per_sim_second", |b| {
        let cfg = SessionConfig {
            duration: SimDuration::from_secs(1),
            seed: 5,
            ..Default::default()
        };
        b.iter(|| SessionSpec::cell(scenarios::amarisoft(), black_box(&cfg).clone()).run())
    });
    // The same session with the domino-obs recorder enabled (default wall
    // sampling): prices the whole per-slot/per-tick recording surface —
    // counters, RAN accumulators, phase spans — against the number above.
    // The README's observability table documents the ratio.
    // The ABR streaming workload on the same cell: one player + segment
    // server instead of two RTC endpoints, everything else identical.
    // Prices the application-generic session engine's second workload.
    c.bench_function("ran/abr_session_per_sim_second", |b| {
        let cfg = SessionConfig {
            duration: SimDuration::from_secs(1),
            seed: 5,
            ..Default::default()
        };
        b.iter(|| {
            SessionSpec::cell(scenarios::amarisoft(), black_box(&cfg).clone())
                .abr(abr_sim::AbrConfig::default())
                .run()
        })
    });
    c.bench_function("ran/two_party_session_per_sim_second_obs", |b| {
        use domino_obs::{ObsConfig, Recorder};
        let cfg = SessionConfig {
            duration: SimDuration::from_secs(1),
            seed: 5,
            ..Default::default()
        };
        b.iter(|| {
            let mut arena = SessionArena::new();
            *arena.recorder_mut() = Recorder::new(ObsConfig::on());
            SessionSpec::cell(scenarios::amarisoft(), black_box(&cfg).clone())
                .run_with_tap_in(&mut telemetry::NullTap, &mut arena)
        })
    });
}

/// The recorder's record-site primitives, disabled and enabled. Disabled is
/// the number that must be free: every instrumentation point in the engine
/// compiles to one predicted branch on a `None` discriminant. The loop
/// interleaves a counter add and a histogram observe (the two hot-path
/// shapes the slot loop emits); spans get their own pair since they
/// additionally carry the sampled wall clock.
fn bench_obs_primitives(c: &mut Criterion) {
    use domino_obs::{Counter, HistId, ObsConfig, Recorder, SpanId};
    const OPS: u64 = 1024;

    let mut off = Recorder::off();
    c.bench_function("obs/counter_hot_path_off", |b| {
        b.iter(|| {
            for i in 0..OPS {
                off.add(Counter::RanDataSlots, 1);
                off.observe(HistId::RanRlcQueueBytes, black_box(i));
            }
        })
    });
    let mut on = Recorder::new(ObsConfig::on());
    c.bench_function("obs/counter_hot_path", |b| {
        b.iter(|| {
            for i in 0..OPS {
                on.add(Counter::RanDataSlots, 1);
                on.observe(HistId::RanRlcQueueBytes, black_box(i));
            }
        })
    });

    let mut off = Recorder::off();
    c.bench_function("obs/span_enter_exit_off", |b| {
        b.iter(|| {
            for _ in 0..OPS {
                let t = off.span_enter(SpanId::BeginTick);
                off.span_exit(SpanId::BeginTick, t);
            }
        })
    });
    // Default wall sampling (every 64th entry reads the clock), i.e. what
    // `ObsConfig::on()` sweeps pay per span.
    let mut on = Recorder::new(ObsConfig::on());
    c.bench_function("obs/span_enter_exit", |b| {
        b.iter(|| {
            for _ in 0..OPS {
                let t = on.span_enter(SpanId::BeginTick);
                on.span_exit(SpanId::BeginTick, t);
            }
        })
    });
}

/// The calendar event queue on the session engine's workload shape:
/// near-monotonic schedules a few milliseconds ahead, `pop_due` draining
/// per 1 ms tick, ~128 events in flight. The name predates the removal of
/// the binary-heap backend it was once compared against; it is kept so the
/// baseline series stays continuous.
fn bench_calendar_vs_heap(c: &mut Criterion) {
    fn churn(q: &mut EventQueue<u64>) -> u64 {
        q.clear();
        let mut acc = 0u64;
        let mut seq = 0u64;
        for tick in 0..1_000u64 {
            let now = SimTime::from_millis(tick);
            for k in 0..4u64 {
                // Mostly near-future (2–40 ms ahead), occasionally far out
                // (RLC status-delay scale) to exercise the overflow tier.
                let ahead = if seq.is_multiple_of(61) {
                    300 + k
                } else {
                    2 + (seq % 38)
                };
                q.schedule(SimTime::from_millis(tick + ahead), seq);
                seq += 1;
            }
            while let Some(s) = q.pop_due(now) {
                acc = acc.wrapping_add(s.event);
            }
        }
        while let Some(s) = q.pop() {
            acc = acc.wrapping_add(s.event);
        }
        acc
    }
    let mut cal = EventQueue::calendar();
    c.bench_function("simcore/calendar_vs_heap", |b| {
        b.iter(|| churn(black_box(&mut cal)))
    });
}

/// End-to-end sweep-worker throughput: one 3 s simulate-then-analyze
/// session per iteration, run through the sweep driver at width 1 on a
/// persistent worker (warm arena and route queue, recycled bundles). The
/// PR-4 acceptance ratio against the seed tree is tracked by
/// `ran/two_party_session_per_sim_second` in BENCH_baseline.json.
fn bench_sweep_sessions(c: &mut Criterion) {
    let spec = SessionSpec::cell(
        scenarios::amarisoft(),
        SessionConfig {
            duration: SimDuration::from_secs(3),
            seed: 77,
            ..Default::default()
        },
    );
    let domino = Domino::with_defaults();
    let opts = SweepOptions::default();
    let mut worker = MuxWorker::new(&domino, &opts);
    c.bench_function("sweep/sessions_per_sec", |b| {
        b.iter(|| worker.run_batch(std::slice::from_ref(black_box(&spec)), 1, &domino, &opts))
    });
}

/// Marginal cost of one more UE in a shared cell's slot loop. Each probe
/// polls one simulated second (2 000 TDD slots) of an Amarisoft cell whose
/// SoA table carries N scripted traffic UEs; the headline number is the
/// differential `(t(64 UEs) − t(16 UEs)) / 48` — wall time per additional
/// UE per simulated second, with the fixed slot-loop overhead (cross
/// process, frame bookkeeping, experiment UE 0) subtracted out. The ISSUE's
/// acceptance bar compares it to `sweep/shared_cell_sessions_per_sec`: a UE
/// added to an existing cell must be ≥5× cheaper than a whole new session.
fn bench_cell_slot_marginal_ue(c: &mut Criterion) {
    use std::time::{Duration, Instant};

    fn time_poll(n_ues: usize, iters: u64) -> Duration {
        let mut cell_cfg = scenarios::amarisoft();
        cell_cfg.traffic_ues = ran_sim::traffic_mix(n_ues);
        let mut total = Duration::ZERO;
        for _ in 0..iters {
            // Construction (config clone, table fill) stays outside the
            // timer: the sweep pays it once per session, not per slot.
            let mut cell = ran_sim::CellSim::new(cell_cfg.clone(), 7);
            let start = Instant::now();
            cell.poll(SimTime::from_secs(1));
            total += start.elapsed();
            black_box(cell.n_traffic_ues());
        }
        total
    }

    for n in [2usize, 16, 64] {
        c.bench_function(&format!("ran/cell_slot_1s_n{n}"), |b| {
            b.iter_custom(|iters| time_poll(n, iters))
        });
    }
    c.bench_function("ran/cell_slot_marginal_ue", |b| {
        b.iter_custom(|iters| {
            let t64 = time_poll(64, iters);
            let t16 = time_poll(16, iters);
            t64.saturating_sub(t16) / 48
        })
    });
}

/// Sweep-worker throughput on a *contended* cell: the same 3 s
/// simulate-then-analyze session as `sweep/sessions_per_sec`, but the cell
/// carries 46 scripted traffic UEs (the contended-cell example's
/// population). The gap between the two numbers is the whole-cell
/// simulation surcharge; divided by 46 it should approach
/// `ran/cell_slot_marginal_ue`.
fn bench_shared_cell_sweep(c: &mut Criterion) {
    let mut cell = scenarios::amarisoft();
    cell.traffic_ues = ran_sim::traffic_mix(46);
    let spec = SessionSpec::cell(
        cell,
        SessionConfig {
            duration: SimDuration::from_secs(3),
            seed: 77,
            ..Default::default()
        },
    );
    let domino = Domino::with_defaults();
    let opts = SweepOptions::default();
    let mut worker = MuxWorker::new(&domino, &opts);
    c.bench_function("sweep/shared_cell_sessions_per_sec", |b| {
        b.iter(|| worker.run_batch(std::slice::from_ref(black_box(&spec)), 1, &domino, &opts))
    });
}

/// Per-session wall time of the multiplexed many-call engine: one worker
/// drives a batch of 8 three-second sessions at width 8 — one shared
/// calendar queue, one shared arena, sessions interleaved tick by tick —
/// and the measured batch time is divided by the batch size, so the number
/// is directly comparable to `sweep/sessions_per_sec` (the same session
/// shape run to completion one at a time on the same warm-arena worker).
fn bench_multiplexed_sweep(c: &mut Criterion) {
    const WIDTH: usize = 8;
    let specs: Vec<SessionSpec> = (0..WIDTH)
        .map(|i| {
            SessionSpec::cell(
                scenarios::amarisoft(),
                SessionConfig {
                    duration: SimDuration::from_secs(3),
                    seed: 77 + i as u64,
                    ..Default::default()
                },
            )
        })
        .collect();
    let domino = Domino::with_defaults();
    let opts = SweepOptions {
        threads: 1,
        execution: ExecutionMode::Multiplexed { width: WIDTH },
        ..Default::default()
    };
    let mut worker = MuxWorker::new(&domino, &opts);
    c.bench_function("sweep/multiplexed_sessions_per_sec", |b| {
        b.iter_custom(|iters| {
            let start = std::time::Instant::now();
            for _ in 0..iters {
                black_box(worker.run_batch(&specs, WIDTH, &domino, &opts));
            }
            start.elapsed() / WIDTH as u32
        })
    });
}

/// Per-step streaming cost on *busy* windows — dense delay series where the
/// old per-step delay-trend evaluation was O(window records). The two
/// numbers run the identical dense trace at a 5 s and a 15 s window: with
/// the amortized chunk means the per-step cost must stay ~flat instead of
/// tripling with the window (each step still ingests one step's worth of
/// records either way).
fn bench_streaming_step_busy(c: &mut Criterion) {
    use telemetry::{PacketRecord, SessionMeta, StreamKind, TraceBundle};
    let secs = 60u64;
    let mut bundle = TraceBundle::new(SessionMeta::baseline(
        "busy",
        SimDuration::from_secs(secs),
        0,
    ));
    // ~2000 delivered packets per second, drifting delays → live trends.
    for i in 0..(secs * 2000) {
        let sent = SimTime::from_micros(i * 500);
        let delay_us = 15_000 + ((i * 37) % 9_000) + ((i / 5_000) % 7) * 4_000;
        bundle.packets.push(PacketRecord {
            sent,
            received: Some(sent + SimDuration::from_micros(delay_us)),
            direction: if i % 2 == 0 {
                telemetry::Direction::Uplink
            } else {
                telemetry::Direction::Downlink
            },
            stream: if i % 13 == 0 {
                StreamKind::Rtcp
            } else {
                StreamKind::Video
            },
            seq: i,
            size_bytes: 900,
        });
    }
    bundle.sort();
    for (name, window_secs) in [
        ("domino/streaming_step_busy", 5u64),
        ("domino/streaming_step_busy_15s_window", 15),
    ] {
        let cfg = DominoConfig {
            step: SimDuration::from_secs(1),
            window: SimDuration::from_secs(window_secs),
            ..Default::default()
        };
        let warmup = cfg.warmup;
        let window = cfg.window;
        let step = cfg.step;
        let horizon = bundle.horizon();
        let mut analyzer = StreamingAnalyzer::new(default_graph(), cfg).expect("aligned");
        let mut cursor = bundle.cursor();
        let mut start = SimTime::ZERO + warmup;
        c.bench_function(name, |b| {
            b.iter(|| {
                if start + window > horizon {
                    analyzer.reset();
                    cursor = bundle.cursor();
                    start = SimTime::ZERO + warmup;
                }
                let slices = bundle.advance_until(&mut cursor, start + window);
                analyzer.push_slices(&slices);
                let w = analyzer.emit(start);
                start += step;
                w
            })
        });
    }
}

fn bench_phy(c: &mut Criterion) {
    c.bench_function("phy/tbs_bits_full_carrier", |b| {
        b.iter(|| phy::tbs_bits(black_box(27), black_box(273)))
    });
    c.bench_function("phy/select_mcs", |b| {
        b.iter(|| phy::select_mcs(black_box(17.3), 0.0, -1.0, 28))
    });
}

fn bench_trendline(c: &mut Criterion) {
    c.bench_function("gcc/trendline_1000_packets", |b| {
        b.iter(|| {
            let mut est = TrendlineEstimator::new();
            for i in 0..1000u64 {
                est.on_packet(PacketTiming {
                    sent: SimTime::from_millis(i * 20),
                    arrival: SimTime::from_millis(i * 20 + 30 + (i % 7)),
                });
            }
            black_box(est.state())
        })
    });
}

/// A two-party call between two RTC endpoints over a 20 ms pipe with up to
/// 3 ms of deterministic jitter, stepped in 1 ms ticks as the session
/// engine steps its endpoints, with no RAN or netpath underneath. The
/// `rtc/*` callee benches below run on it.
struct Loopback {
    ends: [RtcEndpoint; 2],
    /// (arrival time, destination endpoint, packet).
    in_flight: Vec<(SimTime, usize, OutgoingPacket)>,
    now: SimTime,
    emit: Vec<OutgoingPacket>,
}

impl Loopback {
    fn new() -> Self {
        Loopback {
            ends: [1, 2].map(|tag| RtcEndpoint::new(SenderConfig::default(), 5, tag)),
            in_flight: Vec::new(),
            now: SimTime::ZERO,
            emit: Vec::new(),
        }
    }

    /// Advances one tick: both endpoints emit, then every packet due by
    /// the tick's end is handed to `arrive` with its destination.
    fn tick(&mut self, mut arrive: impl FnMut(usize, &mut RtcEndpoint, SimTime, &OutgoingPacket)) {
        self.now += SimDuration::from_millis(1);
        let now = self.now;
        for (from, end) in self.ends.iter_mut().enumerate() {
            end.sender.poll_into(now, &mut self.emit);
            end.receiver.poll_into(now, &mut self.emit);
            for p in self.emit.drain(..) {
                let jitter = SimDuration::from_micros(p.at.as_micros().wrapping_mul(7_919) % 3_000);
                let at = p.at + SimDuration::from_millis(20) + jitter;
                self.in_flight.push((at, 1 - from, p));
            }
        }
        let ends = &mut self.ends;
        self.in_flight.retain(|(at, to, p)| {
            if *at > now {
                return true;
            }
            arrive(*to, &mut ends[*to], *at, p);
            false
        });
    }
}

/// What the session engine does with an arrival at an RTC endpoint.
fn deliver(end: &mut RtcEndpoint, at: SimTime, p: &OutgoingPacket) {
    match &p.payload {
        PacketPayload::Video { .. } | PacketPayload::Audio { .. } => {
            end.receiver
                .on_packet(at, p.transport_seq, p.at, &p.payload)
        }
        PacketPayload::Feedback(fb) => end.sender.on_transport_feedback(at, fb),
        PacketPayload::Report(rr) => end.sender.on_receiver_report(at, rr),
    }
}

/// `p` moved `k` spans later: times by `k` seconds, and the transport
/// sequence, frame index and audio sequence by `k` times their span in
/// the recording, so each replay continues the previous one.
fn shifted(p: &OutgoingPacket, k: u64, spans: [u64; 3]) -> OutgoingPacket {
    let dt = SimDuration::from_secs(k);
    let payload = match p.payload {
        PacketPayload::Video {
            frame_idx,
            packet_idx,
            packets_in_frame,
            capture_ts,
            resolution,
        } => PacketPayload::Video {
            frame_idx: frame_idx + k * spans[1],
            packet_idx,
            packets_in_frame,
            capture_ts: capture_ts + dt,
            resolution,
        },
        PacketPayload::Audio { seq, capture_ts } => PacketPayload::Audio {
            seq: seq + k * spans[2],
            capture_ts: capture_ts + dt,
        },
        _ => unreachable!("only media is recorded"),
    };
    OutgoingPacket {
        at: p.at + dt,
        transport_seq: p.transport_seq + k * spans[0],
        size_bytes: p.size_bytes,
        payload,
    }
}

/// The three RTC callees of the session engine's packet-arrival path.
///
/// - `rtc/playout_on_delay`: one `PlayoutDelayEstimator::on_delay` on a
///   full 200-sample window.
/// - `rtc/receiver_on_packet`: one simulated second of media arrivals at
///   both receivers of the loopback call (its 9th second, whole frames
///   only), replayed through `MediaReceiver::on_packet`. The receivers are
///   polled every 50 ms of replayed time, the feedback interval, so their
///   buffers stay at steady-state depth; each replay continues the last,
///   so every estimator window stays full.
/// - `rtc/sender_on_transport_feedback`: one 50 ms transport feedback
///   reaching a sender of the running loopback call; only that call is
///   timed.
fn bench_rtc_callees(c: &mut Criterion) {
    c.bench_function("rtc/playout_on_delay", |b| {
        let mut est = PlayoutDelayEstimator::new();
        let mut i = 0u64;
        let mut sample = |est: &mut PlayoutDelayEstimator| {
            i += 1;
            let delay_ms = 20.0 + ((i * 7_919) % 151) as f64;
            est.on_delay(SimTime::from_millis(i * 20), black_box(delay_ms));
            est.target_ms()
        };
        for _ in 0..200 {
            sample(&mut est);
        }
        b.iter(|| sample(&mut est))
    });

    let mut call = Loopback::new();
    for _ in 0..8_000 {
        call.tick(|_, end, at, p| deliver(end, at, p));
    }
    let mut second: Vec<(usize, SimTime, OutgoingPacket)> = Vec::new();
    for _ in 0..1_000 {
        call.tick(|to, end, at, p| {
            if !matches!(
                p.payload,
                PacketPayload::Feedback(_) | PacketPayload::Report(_)
            ) {
                second.push((to, at, p.clone()));
            }
            deliver(end, at, p);
        });
    }
    // Drop the frames cut by the recording's edges, then measure how far
    // each numbering (transport sequence, frame index, audio sequence)
    // advanced per destination.
    let mut frame_pkts: BTreeMap<(usize, u64), u32> = BTreeMap::new();
    for (to, _, p) in &second {
        if let PacketPayload::Video { frame_idx, .. } = p.payload {
            *frame_pkts.entry((*to, frame_idx)).or_default() += 1;
        }
    }
    second.retain(|(to, _, p)| match p.payload {
        PacketPayload::Video {
            frame_idx,
            packets_in_frame,
            ..
        } => frame_pkts[&(*to, frame_idx)] == packets_in_frame,
        _ => true,
    });
    let spans = [0, 1].map(|to| {
        let (mut lo, mut hi) = ([u64::MAX; 3], [0; 3]);
        for (_, _, p) in second.iter().filter(|(t, ..)| *t == to) {
            let numbering = match p.payload {
                PacketPayload::Video { frame_idx, .. } => (1, frame_idx),
                PacketPayload::Audio { seq, .. } => (2, seq),
                _ => unreachable!("only media is recorded"),
            };
            for (i, n) in [(0, p.transport_seq), numbering] {
                lo[i] = lo[i].min(n);
                hi[i] = hi[i].max(n);
            }
        }
        [0, 1, 2].map(|i| hi[i] - lo[i] + 1)
    });
    c.bench_function("rtc/receiver_on_packet", |b| {
        let mut rx = [rtc_sim::MediaReceiver::new(), rtc_sim::MediaReceiver::new()];
        let mut polled = Vec::new();
        let mut k = 0u64;
        let mut replay = |rx: &mut [rtc_sim::MediaReceiver; 2]| {
            let start = std::time::Instant::now();
            let mut next_poll = second[0].1 + SimDuration::from_secs(k);
            for (to, at, p) in &second {
                let at = *at + SimDuration::from_secs(k);
                if at >= next_poll {
                    for r in rx.iter_mut() {
                        r.poll_into(at, &mut polled);
                    }
                    polled.clear();
                    next_poll = at + SimDuration::from_millis(50);
                }
                let p = shifted(p, k, spans[*to]);
                rx[*to].on_packet(at, p.transport_seq, p.at, &p.payload);
            }
            k += 1;
            start.elapsed()
        };
        // Three replays fill every estimator window before timing starts.
        for _ in 0..3 {
            replay(&mut rx);
        }
        b.iter_custom(|iters| (0..iters).map(|_| replay(&mut rx)).sum())
    });

    c.bench_function("rtc/sender_on_transport_feedback", |b| {
        b.iter_custom(|iters| {
            let mut timed = std::time::Duration::ZERO;
            let mut n = 0;
            while n < iters {
                call.tick(|_, end, at, p| match &p.payload {
                    PacketPayload::Feedback(fb) if n < iters => {
                        let start = std::time::Instant::now();
                        end.sender.on_transport_feedback(at, black_box(fb));
                        timed += start.elapsed();
                        n += 1;
                    }
                    _ => deliver(end, at, p),
                });
            }
            timed
        })
    });
}

/// Coordinator machinery tax: the same 8-spec grid swept once through the
/// fault-tolerant coordinator (in-process transport, no faults, 2-spec
/// ranges — so framing, report encode/parse/checksum, dispatch/deadline
/// bookkeeping, and the final merge are all on the clock) and once through
/// the bare `run_shard` + `merge_shards` file path it wraps. Sweep compute
/// dominates both; the coordinator number must stay within noise of the
/// direct one.
fn bench_coordinator_overhead(c: &mut Criterion) {
    let specs: Vec<SessionSpec> = scenarios::all_cells_grid(42, SimDuration::from_secs(2));
    let domino = Domino::with_defaults();
    let opts = SweepOptions::default().threads(1);
    let cfg = CoordinatorConfig {
        chunk_specs: 2,
        ..Default::default()
    };
    c.bench_function("sweep/coordinator_overhead", |b| {
        b.iter(|| {
            let mut fleet =
                InProcFleet::new(black_box(&specs), &domino, &opts, 2, &FaultPlan::none());
            run_coordinator(specs.len(), &mut fleet, &cfg, |_| {})
                .expect("clean fleet")
                .report
        })
    });
    c.bench_function("sweep/shard_merge_direct", |b| {
        b.iter(|| {
            let plan = ShardPlan::new(black_box(&specs).len(), specs.len().div_ceil(2));
            let reports: Vec<_> = plan
                .shards()
                .iter()
                .map(|s| run_shard(&specs, s, &domino, &opts))
                .collect();
            merge_shards(&reports).expect("tiles")
        })
    });
}

criterion_group!(
    name = benches;
    config = Criterion::default().sample_size(20);
    targets =
        bench_streaming_step,
        bench_live_step,
        bench_adaptive_step,
        bench_chaos_tap_overhead,
        bench_pool_step,
        bench_full_sweep,
        bench_chain_search,
        bench_dsl_parse,
        bench_ran_session,
        bench_obs_primitives,
        bench_calendar_vs_heap,
        bench_sweep_sessions,
        bench_cell_slot_marginal_ue,
        bench_shared_cell_sweep,
        bench_multiplexed_sweep,
        bench_coordinator_overhead,
        bench_streaming_step_busy,
        bench_phy,
        bench_trendline,
        bench_rtc_callees
);
criterion_main!(benches);
