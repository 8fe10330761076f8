//! Shard-and-merge sweep driver: run a fixed demo grid as N shards on
//! (potentially) N machines, write one plain-text shard report per shard,
//! then merge the files into the whole-grid report.
//!
//! The merged report is byte-identical to running the grid as a single
//! shard on one machine — at any shard count and any per-shard thread
//! count. CI exercises exactly that:
//!
//! ```sh
//! # one machine
//! cargo run --release --example sharded_sweep -- run --shards 1 --shard 0 \
//!     --threads 2 --out single.txt
//! # three "machines"
//! for i in 0 1 2; do
//!     cargo run --release --example sharded_sweep -- run --shards 3 \
//!         --shard $i --threads 1 --out shard$i.txt
//! done
//! cargo run --release --example sharded_sweep -- merge --out merged.txt \
//!     shard0.txt shard1.txt shard2.txt
//! diff single.txt merged.txt        # byte-for-byte
//! ```

use std::process::ExitCode;
use std::sync::{Arc, Mutex};

use domino::obs::MetricsSnapshot;
use domino::scenarios::{all_cells, AxisPatch, ScenarioAxis};
use domino::simcore::SimDuration;
use domino::sweep::{
    merge_shards, run_coordinator, run_shard_with_metrics, run_worker, CoordinatorConfig,
    ShardPlan, ShardReport, TcpLink, TcpTransport, WorkerExit, WorkerFaults,
};
use domino::{
    AnalysisMode, Domino, ExecutionMode, ObsConfig, SessionGrid, SessionSpec, SweepOptions,
};

/// The demo grid every invocation agrees on: the four Table 1 cells × a
/// proactive-grant scenario axis, 20 s per session. Eight specs — small
/// enough for CI, wide enough that every shard carries several cells and
/// most specs contribute non-empty chain statistics to the merge.
fn demo_grid() -> Vec<SessionSpec> {
    SessionGrid::new()
        .cells(all_cells())
        .durations([SimDuration::from_secs(20)])
        .axis(ScenarioAxis::toggle(
            "grants",
            "on",
            "off",
            vec![],
            vec![AxisPatch::ProactiveGrant(None)],
        ))
        .master_seed(42)
        .build()
}

/// The shared-cell grid (`--grid shared`): two private cells × a UE-count
/// axis over the scripted traffic population. Exercises the SoA slot loop
/// at 0/8/32 cohabiting UEs; CI byte-diffs this grid at 1-vs-3 shards and
/// mux width 1-vs-8, so the many-UE path carries the same determinism
/// contract as the empty-cell path.
fn shared_grid() -> Vec<SessionSpec> {
    use domino::ran::traffic_mix;
    use domino::scenarios::{amarisoft, mosolabs};
    SessionGrid::new()
        .cells(vec![amarisoft(), mosolabs()])
        .durations([SimDuration::from_secs(15)])
        .axis(ScenarioAxis::values("ues", [0usize, 8, 32], |&n| {
            vec![AxisPatch::TrafficUes(traffic_mix(n))]
        }))
        .master_seed(77)
        .build()
}

/// The ABR streaming grid (`--grid abr`): one cell, an `AppSpec::Abr` base
/// spec expanded over `segment duration × ladder × buffer target`. Eight
/// playback-driven sessions; CI byte-diffs this grid at 1-vs-3 shards and
/// mux width 1-vs-8, extending the determinism contract to the streaming
/// workload.
fn abr_grid() -> Vec<SessionSpec> {
    use domino::abr::{default_ladder, AbrConfig};
    use domino::scenarios::{amarisoft, expand_product, ScriptAction, SeedPolicy, SessionConfig};
    use domino::simcore::SimTime;
    use domino::telemetry::Direction;
    let base = SessionSpec::cell(
        amarisoft(),
        SessionConfig {
            duration: SimDuration::from_secs(15),
            seed: 7,
            ..Default::default()
        },
    )
    .abr(AbrConfig::default())
    .with_script(ScriptAction::CrossTraffic {
        dir: Direction::Downlink,
        from: SimTime::from_secs(3),
        to: SimTime::from_secs(9),
        prb_fraction: 0.97,
    });
    let axes = [
        ScenarioAxis::values("segment", [1u64, 2], |&s| {
            vec![AxisPatch::AbrSegmentDuration(SimDuration::from_secs(s))]
        }),
        ScenarioAxis::new("ladder")
            .point("full", vec![AxisPatch::AbrLadder(default_ladder())])
            .point(
                "low3",
                vec![AxisPatch::AbrLadder(default_ladder()[..3].to_vec())],
            ),
        ScenarioAxis::values("buffer", [4u64, 8], |&s| {
            vec![AxisPatch::AbrBufferTarget(SimDuration::from_secs(s))]
        }),
    ];
    expand_product(&base, &axes, SeedPolicy::Derived(1907))
}

/// The degraded-telemetry grid (`--grid chaos`): two cells × a chaos axis
/// (clean, a lossy tap, a dark tap, and a gappy tap whose packet drops and
/// packet blackout leave gaps in the send ids the live pipeline sees and
/// suppress the missing sends' deliveries) × a lateness axis (static 2 s
/// vs the adaptive quantile bound), analysed live. Every fault is seeded from the
/// spec, so the grid carries the full determinism contract: CI byte-diffs
/// the merged report *and* the obs metrics (which count every injected
/// drop/duplicate/delay/skew/blackout) at 1-vs-3 shards and mux width
/// 1-vs-8, then asserts the counters are nonzero — injected chaos must be
/// observable, not just survivable.
fn chaos_grid() -> Vec<SessionSpec> {
    use domino::scenarios::{amarisoft, mosolabs};
    use domino::simcore::SimTime;
    use domino::{Lateness, TapChaosSpec, TapFault, TapStream};
    let lossy = TapChaosSpec::new(0xD06E)
        .fault(TapFault::Drop {
            stream: TapStream::Gnb,
            pct: 20,
        })
        .fault(TapFault::Duplicate {
            stream: TapStream::Dci,
            pct: 10,
        })
        .fault(TapFault::Delay {
            stream: TapStream::AppLocal,
            pct: 15,
            max_delay: SimDuration::from_millis(800),
        });
    let dark = TapChaosSpec::new(0xDA4C)
        .fault(TapFault::Blackout {
            stream: TapStream::AppRemote,
            from: SimTime::from_secs(4),
            to: SimTime::from_secs(7),
        })
        .fault(TapFault::SkewBehind {
            stream: TapStream::Gnb,
            skew: SimDuration::from_millis(350),
        });
    let gappy = TapChaosSpec::new(0x6A99)
        .fault(TapFault::Drop {
            stream: TapStream::Packet,
            pct: 10,
        })
        .fault(TapFault::Blackout {
            stream: TapStream::Packet,
            from: SimTime::from_secs(6),
            to: SimTime::from_secs(7),
        });
    SessionGrid::new()
        .cells(vec![amarisoft(), mosolabs()])
        .durations([SimDuration::from_secs(12)])
        .axis(
            ScenarioAxis::new("chaos")
                .point("clean", vec![])
                .point("lossy", vec![AxisPatch::TapChaos(Some(lossy))])
                .point("dark", vec![AxisPatch::TapChaos(Some(dark))])
                .point("gappy", vec![AxisPatch::TapChaos(Some(gappy))]),
        )
        .axis(
            ScenarioAxis::new("lateness")
                .point(
                    "static2s",
                    vec![AxisPatch::Lateness(Lateness::Static(
                        SimDuration::from_secs(2),
                    ))],
                )
                .point(
                    "adaptive",
                    vec![AxisPatch::Lateness(Lateness::Adaptive {
                        target_quantile: 0.99,
                        floor: SimDuration::from_millis(250),
                        ceil: SimDuration::from_secs(5),
                    })],
                ),
        )
        .master_seed(909)
        .build()
}

fn usage() -> ExitCode {
    eprintln!(
        "usage:\n  sharded_sweep run [--grid demo|shared|abr|chaos] [--shards N] [--shard I] [--threads T] \
         [--mux-width W] [--obs] --out FILE\n  sharded_sweep merge --out FILE \
         <shard-report-files...>\n  sharded_sweep coordinator [--grid G] [--workers N] [--chunk C] \
         [--threads T] [--mux-width W] [--chaos kill-retry] [--stats FILE] --out FILE\n  \
         sharded_sweep worker --connect HOST:PORT [--grid G] [--threads T] [--mux-width W] \
         [--exit-after-specs N] [--corrupt-first-result]\n\nWith --obs, `run` also writes the \
         deterministic metrics section to FILE.metrics, and `merge` folds any INPUT.metrics files \
         into OUT.metrics.\n`coordinator` serves the grid to worker subprocesses over TCP and \
         writes the merged report (byte-identical to a single-machine run) to --out; \
         `--chaos kill-retry` spawns one worker that crashes mid-range and one that corrupts its \
         first report.\n`worker` connects to a coordinator and serves dispatches until drained."
    );
    ExitCode::from(2)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some(mode) = args.first() else {
        return usage();
    };

    let mut grid = "demo".to_string();
    let mut shards = 1usize;
    let mut shard = 0usize;
    let mut threads = 0usize;
    let mut mux_width = 1usize;
    let mut obs = false;
    let mut out: Option<String> = None;
    let mut inputs: Vec<String> = Vec::new();
    let mut workers = 3usize;
    let mut chunk = 2usize;
    let mut chaos: Option<String> = None;
    let mut stats_out: Option<String> = None;
    let mut connect: Option<String> = None;
    let mut exit_after_specs: Option<usize> = None;
    let mut corrupt_first_result = false;

    let mut it = args[1..].iter();
    while let Some(arg) = it.next() {
        let mut take = |name: &str| -> Option<String> {
            let v = it.next();
            if v.is_none() {
                eprintln!("{name} needs a value");
            }
            v.cloned()
        };
        match arg.as_str() {
            "--grid" => match take("--grid") {
                Some(v) if ["demo", "shared", "abr", "chaos"].contains(&v.as_str()) => grid = v,
                _ => return usage(),
            },
            "--shards" => match take("--shards").and_then(|v| v.parse().ok()) {
                Some(v) => shards = v,
                None => return usage(),
            },
            "--shard" => match take("--shard").and_then(|v| v.parse().ok()) {
                Some(v) => shard = v,
                None => return usage(),
            },
            "--threads" => match take("--threads").and_then(|v| v.parse().ok()) {
                Some(v) => threads = v,
                None => return usage(),
            },
            "--mux-width" => match take("--mux-width").and_then(|v| v.parse().ok()) {
                Some(v) => mux_width = v,
                None => return usage(),
            },
            "--obs" => obs = true,
            "--out" => match take("--out") {
                Some(v) => out = Some(v),
                None => return usage(),
            },
            "--workers" => match take("--workers").and_then(|v| v.parse().ok()) {
                Some(v) if v > 0 => workers = v,
                _ => return usage(),
            },
            "--chunk" => match take("--chunk").and_then(|v| v.parse().ok()) {
                Some(v) if v > 0 => chunk = v,
                _ => return usage(),
            },
            "--chaos" => match take("--chaos") {
                Some(v) if v == "kill-retry" => chaos = Some(v),
                _ => return usage(),
            },
            "--stats" => match take("--stats") {
                Some(v) => stats_out = Some(v),
                None => return usage(),
            },
            "--connect" => match take("--connect") {
                Some(v) => connect = Some(v),
                None => return usage(),
            },
            "--exit-after-specs" => match take("--exit-after-specs").and_then(|v| v.parse().ok()) {
                Some(v) => exit_after_specs = Some(v),
                None => return usage(),
            },
            "--corrupt-first-result" => corrupt_first_result = true,
            other if other.starts_with("--") || mode != "merge" => {
                eprintln!("unknown argument {other:?}");
                return usage();
            }
            other => inputs.push(other.to_string()),
        }
    }
    if mode != "worker" && out.is_none() {
        return usage();
    }
    let out = out.unwrap_or_default();

    match mode.as_str() {
        "run" => {
            if shard >= shards {
                eprintln!("--shard {shard} out of range for --shards {shards}");
                return usage();
            }
            let specs = match grid.as_str() {
                "shared" => shared_grid(),
                "abr" => abr_grid(),
                "chaos" => chaos_grid(),
                _ => demo_grid(),
            };
            let plan = ShardPlan::new(specs.len(), shards);
            let my = plan.shard(shard);
            eprintln!(
                "[sharded_sweep] shard {}/{} runs specs {:?} of {} on {} thread(s)",
                my.index,
                my.count,
                my.range,
                specs.len(),
                if threads == 0 {
                    "all".to_string()
                } else {
                    threads.to_string()
                }
            );
            let domino = Domino::with_defaults();
            // --mux-width W > 1 interleaves W sessions per worker through
            // one shared arena and route queue; the report is byte-identical
            // to width 1 (`PerWorker`) — CI diffs width 1 and width 8 against
            // the single-machine run.
            let opts = SweepOptions::default()
                .threads(threads)
                .mode(if mux_width > 1 {
                    ExecutionMode::Multiplexed { width: mux_width }
                } else {
                    ExecutionMode::PerWorker
                })
                .obs(if obs {
                    ObsConfig::full()
                } else {
                    ObsConfig::default()
                });
            // The chaos grid's fault scripts ride the live tap, so it runs
            // in live analysis mode; the other grids keep the default.
            let opts = if grid == "chaos" {
                opts.analysis(AnalysisMode::Live)
            } else {
                opts
            };
            let (report, metrics) = run_shard_with_metrics(&specs, &my, &domino, &opts);
            if let Err(e) = std::fs::write(&out, report.encode()) {
                eprintln!("cannot write {out}: {e}");
                return ExitCode::FAILURE;
            }
            if let Some(m) = metrics {
                // Only the deterministic section goes to disk: CI plain-
                // diffs these files across shard counts, thread counts, and
                // multiplex widths.
                let path = format!("{out}.metrics");
                if let Err(e) = std::fs::write(&path, m.encode_sim()) {
                    eprintln!("cannot write {path}: {e}");
                    return ExitCode::FAILURE;
                }
                eprintln!("[sharded_sweep] wrote {path}");
            }
            eprintln!(
                "[sharded_sweep] wrote {out}: {} specs, {} chain windows, {:.1} min of calls",
                report.outcomes.len(),
                report.aggregate.total_chain_windows,
                report.aggregate.minutes
            );
        }
        "merge" => {
            if inputs.is_empty() {
                return usage();
            }
            let mut reports = Vec::with_capacity(inputs.len());
            for path in &inputs {
                let text = match std::fs::read_to_string(path) {
                    Ok(t) => t,
                    Err(e) => {
                        eprintln!("cannot read {path}: {e}");
                        return ExitCode::FAILURE;
                    }
                };
                match ShardReport::parse(&text) {
                    Ok(r) => reports.push(r),
                    Err(e) => {
                        eprintln!("{path}: {e}");
                        return ExitCode::FAILURE;
                    }
                }
            }
            let merged = match merge_shards(&reports) {
                Ok(m) => m,
                Err(e) => {
                    eprintln!("merge failed: {e}");
                    return ExitCode::FAILURE;
                }
            };
            if let Err(e) = std::fs::write(&out, merged.encode()) {
                eprintln!("cannot write {out}: {e}");
                return ExitCode::FAILURE;
            }
            // Fold sibling metrics files (written by `run --obs`) into one
            // snapshot. Sim-section merging is order-free, so the merged
            // file is byte-identical to a single-shard run's.
            let mut metrics: Option<MetricsSnapshot> = None;
            for path in &inputs {
                let mpath = format!("{path}.metrics");
                let Ok(text) = std::fs::read_to_string(&mpath) else {
                    continue;
                };
                let snap = match MetricsSnapshot::parse(&text) {
                    Ok(s) => s,
                    Err(e) => {
                        eprintln!("{mpath}: {e}");
                        return ExitCode::FAILURE;
                    }
                };
                metrics = Some(match metrics.take() {
                    Some(mut acc) => {
                        acc.merge(&snap);
                        acc
                    }
                    None => snap,
                });
            }
            if let Some(m) = metrics {
                let path = format!("{out}.metrics");
                if let Err(e) = std::fs::write(&path, m.encode_sim()) {
                    eprintln!("cannot write {path}: {e}");
                    return ExitCode::FAILURE;
                }
                eprintln!("[sharded_sweep] wrote {path}");
            }
            eprintln!(
                "[sharded_sweep] merged {} shard(s) into {out}: {} specs, {} chain windows",
                reports.len(),
                merged.outcomes.len(),
                merged.aggregate.total_chain_windows
            );
        }
        // A long-running sweep service: bind a TCP transport, spawn worker
        // subprocesses against it, and survive their failures. The merged
        // report is byte-identical to `run --shards 1` on the same grid —
        // CI's coordinator-chaos job diffs exactly that, with one worker
        // scripted to crash mid-range and one to corrupt its first report.
        "coordinator" => {
            let specs = match grid.as_str() {
                "shared" => shared_grid(),
                "abr" => abr_grid(),
                "chaos" => chaos_grid(),
                _ => demo_grid(),
            };
            let mut transport = match TcpTransport::bind() {
                Ok(t) => t,
                Err(e) => {
                    eprintln!("cannot bind coordinator socket: {e}");
                    return ExitCode::FAILURE;
                }
            };
            let port = transport.port();
            let exe = match std::env::current_exe() {
                Ok(p) => p,
                Err(e) => {
                    eprintln!("cannot locate own binary: {e}");
                    return ExitCode::FAILURE;
                }
            };
            let spawn = {
                let exe = exe.clone();
                let grid = grid.clone();
                move |faults: &[&str]| {
                    let mut cmd = std::process::Command::new(&exe);
                    cmd.arg("worker")
                        .arg("--connect")
                        .arg(format!("127.0.0.1:{port}"))
                        .arg("--grid")
                        .arg(&grid)
                        .arg("--threads")
                        .arg(threads.to_string())
                        .arg("--mux-width")
                        .arg(mux_width.to_string());
                    for f in faults {
                        cmd.arg(f);
                    }
                    cmd.spawn()
                }
            };
            let children = Arc::new(Mutex::new(Vec::new()));
            for i in 0..workers {
                // The kill-retry chaos preset scripts worker 0 to crash on
                // the first spec it starts and worker 1 to flip a byte in
                // its first report. Paired with min_workers + prefetch 1
                // below, every worker is guaranteed a dispatch, so the
                // death, the steal, and the corruption all happen on every
                // run regardless of TCP connection order.
                let faults: Vec<&str> = match chaos.as_deref() {
                    Some("kill-retry") if i == 0 => vec!["--exit-after-specs", "0"],
                    Some("kill-retry") if i == 1 => vec!["--corrupt-first-result"],
                    _ => vec![],
                };
                match spawn(&faults) {
                    Ok(c) => children.lock().unwrap().push(c),
                    Err(e) => {
                        eprintln!("cannot spawn worker {i}: {e}");
                        return ExitCode::FAILURE;
                    }
                }
            }
            // Crashed workers get fault-free replacements, so the sweep
            // finishes even if every scripted worker dies. Capped so a
            // misbehaving fleet can't fork-bomb the host.
            {
                let children = Arc::clone(&children);
                let spawn = spawn.clone();
                let mut respawned = 0usize;
                transport.set_on_disconnect(move |_deaths| {
                    if respawned >= 4 {
                        return;
                    }
                    respawned += 1;
                    if let Ok(c) = spawn(&[]) {
                        children.lock().unwrap().push(c);
                    }
                });
            }
            let cfg = CoordinatorConfig {
                chunk_specs: chunk,
                // Wait for the whole spawned fleet before dispatching, and
                // under chaos keep prefetch at 1 so the scripted workers
                // are guaranteed to receive work (see the preset above).
                min_workers: workers,
                prefetch: if chaos.is_some() { 1 } else { 2 },
                ..Default::default()
            };
            let outcome = run_coordinator(specs.len(), &mut transport, &cfg, |p| {
                eprintln!(
                    "[coordinator] {}/{} ranges ({}/{} specs) done, {} worker(s), {} in flight, {} chain windows",
                    p.ranges_done,
                    p.ranges_total,
                    p.specs_done,
                    p.specs_total,
                    p.workers,
                    p.in_flight,
                    p.chain_windows,
                );
            });
            drop(transport); // close worker links before reaping
            let mut kids = children.lock().unwrap();
            for c in kids.iter_mut() {
                let _ = c.kill();
                let _ = c.wait();
            }
            let run = match outcome {
                Ok(r) => r,
                Err(e) => {
                    eprintln!("coordinated sweep failed: {e}");
                    return ExitCode::FAILURE;
                }
            };
            if let Err(e) = std::fs::write(&out, run.report.encode()) {
                eprintln!("cannot write {out}: {e}");
                return ExitCode::FAILURE;
            }
            if let Some(path) = stats_out {
                if let Err(e) = std::fs::write(&path, run.stats.encode()) {
                    eprintln!("cannot write {path}: {e}");
                    return ExitCode::FAILURE;
                }
                eprintln!("[coordinator] wrote {path}");
            }
            eprintln!(
                "[coordinator] wrote {out}: {} specs, {} chain windows; {} dispatches, \
                 {} deaths, {} steals, {} corrupt, {} duplicates, {} retries",
                run.report.outcomes.len(),
                run.report.aggregate.total_chain_windows,
                run.stats.dispatches,
                run.stats.worker_deaths,
                run.stats.steals,
                run.stats.corrupt_reports,
                run.stats.duplicates_discarded,
                run.stats.retries,
            );
        }
        "worker" => {
            let Some(addr) = connect else {
                return usage();
            };
            let specs = match grid.as_str() {
                "shared" => shared_grid(),
                "abr" => abr_grid(),
                "chaos" => chaos_grid(),
                _ => demo_grid(),
            };
            let domino = Domino::with_defaults();
            let opts = SweepOptions::default()
                .threads(threads)
                .mode(if mux_width > 1 {
                    ExecutionMode::Multiplexed { width: mux_width }
                } else {
                    ExecutionMode::PerWorker
                });
            let opts = if grid == "chaos" {
                opts.analysis(AnalysisMode::Live)
            } else {
                opts
            };
            let mut link = match TcpLink::connect(&addr) {
                Ok(l) => l,
                Err(e) => {
                    eprintln!("cannot connect to coordinator at {addr}: {e}");
                    return ExitCode::FAILURE;
                }
            };
            let faults = WorkerFaults {
                exit_after_specs,
                corrupt_first_result,
            };
            let name = format!("worker-{}", std::process::id());
            match run_worker(&mut link, &name, &specs, &domino, &opts, faults) {
                WorkerExit::Drained => {
                    eprintln!("[{name}] drained, exiting");
                }
                WorkerExit::Killed => {
                    // Scripted crash: die abruptly, result unsent.
                    eprintln!("[{name}] scripted kill fired");
                    std::process::exit(3);
                }
                WorkerExit::Link(e) => {
                    eprintln!("[{name}] link failed: {e}");
                    return ExitCode::FAILURE;
                }
            }
        }
        _ => return usage(),
    }
    ExitCode::SUCCESS
}
