//! Domino's end-to-end benchmark.
//!
//! ```text
//! e2ebench --workload <rtc_table1|abr_contended_mux|live_replay_chaos>
//!          --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Builds its inputs from `--seed`, measures for `--seconds`, checks every
//! output against an independent reference, and prints one JSON object as
//! the last line of stdout: the end-to-end metrics with `--trace 0`, the
//! per-layer metrics of a traced run with `--trace 1`. Progress and a
//! readable table go to stderr. See `README.md` next to this crate.

mod calib;
mod replay;
mod report;
mod stepped;
mod sweeps;
mod workloads;

use std::process::ExitCode;
use std::time::{Duration, Instant};

use report::{median, quantile, ratio, Metrics, RunResult};
use stepped::SweepLedger;
use sweeps::{failed_sessions, Pass, SweepKind, SweepSetup, THREADS};

/// Set-up runs this many times per invocation; `setup_s` is the median.
const SETUP_REPS: usize = 5;

/// Share of `--seconds` a traced invocation spends on untraced passes (the
/// bytes and overhead baseline); the rest is traced.
const TRACE_BASELINE_SHARE: f64 = 1.0 / 3.0;

const WORKLOADS: [&str; 3] = ["rtc_table1", "abr_contended_mux", "live_replay_chaos"];

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" if WORKLOADS.contains(&value.as_str()) => workload = Some(value),
            "--seed" => seed = Some(value.parse().map_err(|_| "bad --seed")?),
            "--seconds" => {
                let s: f64 = value.parse().map_err(|_| "bad --seconds")?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err("--seconds must be in (0, 600]".into());
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                })
            }
            _ => return Err(format!("unknown argument {flag} {value}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload <name> is required")?,
        seed: seed.ok_or("--seed <n> is required")?,
        seconds: seconds.ok_or("--seconds <s> is required")?,
        trace: trace.unwrap_or(false),
    })
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!(
                "e2ebench: {e}\nusage: e2ebench --workload <{}> --seed <n> --seconds <s> --trace <0|1>",
                WORKLOADS.join("|")
            );
            return ExitCode::from(2);
        }
    };
    eprintln!(
        "[e2ebench] workload {} seed {} seconds {} trace {}; {THREADS} worker threads, {} available",
        args.workload,
        args.seed,
        args.seconds,
        args.trace as u8,
        std::thread::available_parallelism().map_or(0, |n| n.get())
    );
    let result = match args.workload.as_str() {
        "rtc_table1" => sweep_workload(SweepKind::RtcTable1, &args),
        "abr_contended_mux" => sweep_workload(SweepKind::AbrMux, &args),
        _ => replay_workload(&args),
    };
    result.metrics.log();
    eprintln!(
        "[e2ebench] correct {} attempted {} failed {}",
        result.correct, result.attempted, result.failed
    );
    println!("{}", result.to_json());
    ExitCode::SUCCESS
}

/// Runs set-up [`SETUP_REPS`] times, keeping the last result; returns it
/// with the median set-up time in seconds at reference host speed. The
/// calling thread calibrates before each set-up and after the last, and
/// each set-up is scaled by the host speed on both sides of it (see
/// [`calib`]).
fn timed_setup<T>(mut build: impl FnMut() -> T) -> (T, f64) {
    let mut calibrator = calib::Calibrator::default();
    let mut before = calibrator.sample();
    let mut raw = Vec::with_capacity(SETUP_REPS);
    let mut times = Vec::with_capacity(SETUP_REPS);
    let mut kept = None;
    for _ in 0..SETUP_REPS {
        drop(kept.take());
        let t = Instant::now();
        kept = Some(build());
        let secs = t.elapsed().as_secs_f64();
        let after = calibrator.sample();
        raw.push(secs);
        times.push(secs * calib::speed(&[&before[..], &after[..]].concat()));
        before = after;
    }
    eprintln!("[e2ebench] set-up times {raw:.3?} s, at reference speed {times:.3?} s");
    (kept.expect("at least one set-up"), median(&mut times))
}

/// Passes back to back until `seconds` have elapsed (at least one).
fn passes_for(seconds: f64, mut pass: impl FnMut() -> Pass) -> Vec<Pass> {
    let deadline = Instant::now() + Duration::from_secs_f64(seconds);
    let mut passes = Vec::new();
    loop {
        passes.push(pass());
        if Instant::now() >= deadline {
            return passes;
        }
    }
}

fn sweep_workload(kind: SweepKind, args: &Args) -> RunResult {
    let (setup, setup_s) = timed_setup(|| SweepSetup::new(kind, args.seed));
    let sim_per_pass = workloads::sim_secs(&setup.specs);
    let sessions = setup.specs.len() as u64;
    let untraced_secs = if args.trace {
        args.seconds * TRACE_BASELINE_SHARE
    } else {
        args.seconds
    };
    let passes = passes_for(untraced_secs, || setup.pass());
    let speeds: Vec<f64> = passes.iter().map(|p| calib::speed(&p.calib_ns)).collect();
    let raw_rates: Vec<f64> = passes
        .iter()
        .map(|p| sim_per_pass / p.wall.as_secs_f64())
        .collect();
    eprintln!("[e2ebench] pass rates {raw_rates:.0?} at host speeds {speeds:.3?}");
    // Each pass's rate at reference host speed.
    let mut rates: Vec<f64> = raw_rates.iter().zip(&speeds).map(|(r, s)| r / s).collect();
    let reference = setup.reference();
    let mut failed: u64 = passes
        .iter()
        .map(|p| failed_sessions(p.report.as_ref(), &reference))
        .sum();
    let mut attempted = passes.len() as u64 * sessions;

    let mut m = Metrics::default();
    if !args.trace {
        let verdict_us = |q: f64| {
            let mut per_pass: Vec<f64> = passes
                .iter()
                .zip(&speeds)
                .map(|(p, speed)| {
                    let mut us: Vec<f64> = p
                        .verdict_latency
                        .iter()
                        .map(|d| d.as_secs_f64() * 1e6 * speed)
                        .collect();
                    quantile(&mut us, q)
                })
                .collect();
            median(&mut per_pass)
        };
        m.put("setup_s", setup_s, "s");
        m.put("sim_s_per_s", median(&mut rates), "sim_s/s");
        m.put("verdict_host_us_p50", verdict_us(0.5), "us");
        m.put("verdict_host_us_p90", verdict_us(0.9), "us");
        return finish(m, attempted, failed);
    }

    // Traced: the stepped driver over the same grid, same closed loop.
    let traced_secs = args.seconds - untraced_secs;
    let deadline = Instant::now() + Duration::from_secs_f64(traced_secs);
    let mut ledgers = Vec::new();
    loop {
        let traced =
            std::panic::catch_unwind(|| stepped::traced_pass(kind, &setup.specs, &setup.domino));
        attempted += sessions;
        match traced {
            Ok((report, ledger)) => {
                // The traced output must be the untraced output, byte for
                // byte.
                failed += failed_sessions(Some(&report), &reference);
                ledgers.push(ledger);
            }
            Err(_) => failed += sessions,
        }
        if Instant::now() >= deadline {
            break;
        }
    }
    eprintln!("[e2ebench] {} traced passes", ledgers.len());
    let l = stepped::sum(&ledgers);
    let untraced_ns_per_sim_s = passes.iter().map(|p| p.wall.as_nanos() as f64).sum::<f64>()
        * THREADS as f64
        / (passes.len() as f64 * sim_per_pass);
    let mut tail: Vec<f64> = passes.iter().map(|p| p.tail_idle_share).collect();
    let footprint = passes.iter().map(|p| p.footprint_peak).max().unwrap_or(0) as f64;
    m.extend(sweep_layer_metrics(&l, median(&mut tail), footprint));
    let idle = replay::ReplayRun::default();
    m.extend(live_layer_metrics(&idle, 0.0, &[]));
    m.extend(trace_metrics(
        ratio(l.total as f64, l.sim_secs),
        untraced_ns_per_sim_s,
    ));
    m.extend(shares(
        &[&l.layers()[..], &idle.ledger.layers()].concat(),
        l.total,
    ));
    finish(m, attempted, failed)
}

fn replay_workload(args: &Args) -> RunResult {
    let (setup, setup_s) = timed_setup(|| replay::ReplaySetup::new(args.seed, args.trace));
    let untraced_secs = if args.trace {
        args.seconds * TRACE_BASELINE_SHARE
    } else {
        args.seconds
    };
    let run = replay::replay(&setup, untraced_secs, false);
    eprintln!(
        "[e2ebench] replayed {} calls ({:.0} sim s) in {:.3} s",
        run.calls,
        run.sim_secs,
        run.wall.as_secs_f64()
    );
    let mut m = Metrics::default();
    if !args.trace {
        let mut rates = run.rates.clone();
        let mut ticks = run.verdict_tick_ns.clone();
        let speed = calib::speed(&run.calib_ns);
        eprintln!(
            "[e2ebench] {} segments at host speed {speed:.3} (median); rate per worker at reference speed, q1/median/q3 {:.0}/{:.0}/{:.0} sim_s/s",
            rates.len(),
            quantile(&mut rates, 0.25),
            quantile(&mut rates, 0.5),
            quantile(&mut rates, 0.75)
        );
        m.put("setup_s", setup_s, "s");
        // The workers replay side by side: their rates add up.
        m.put(
            "sim_s_per_s",
            median(&mut rates) * THREADS as f64,
            "sim_s/s",
        );
        m.put("verdict_host_us_p50", quantile(&mut ticks, 0.5) / 1e3, "us");
        m.put("verdict_host_us_p90", quantile(&mut ticks, 0.9) / 1e3, "us");
        return finish(m, run.calls + setup.failed, run.failed + setup.failed);
    }

    let traced = replay::replay(&setup, args.seconds - untraced_secs, true);
    let untraced_ns_per_sim_s = run.wall.as_nanos() as f64 * THREADS as f64 / run.sim_secs;
    // The engine layers are idle here; the traced total is the replay's.
    let idle = SweepLedger::default();
    m.extend(sweep_layer_metrics(&idle, 0.0, 0.0));
    let l = &traced.ledger;
    let (emit_ns, windows) = replay::time_core_emit(&setup, 2);
    m.extend(live_layer_metrics(
        &traced,
        ratio(emit_ns as f64, windows as f64),
        &setup.verdict_sim_ms(),
    ));
    m.extend(trace_metrics(
        ratio(l.total as f64, traced.sim_secs),
        untraced_ns_per_sim_s,
    ));
    m.extend(shares(&[&idle.layers()[..], &l.layers()].concat(), l.total));
    finish(
        m,
        run.calls + traced.calls + setup.failed,
        run.failed + traced.failed + setup.failed,
    )
}

fn finish(metrics: Metrics, attempted: u64, failed: u64) -> RunResult {
    RunResult {
        correct: failed == 0 && attempted > 0,
        attempted: attempted.max(1),
        failed,
        metrics,
    }
}

/// Engine, queue, RAN, analysis and sweep-codec metrics of a traced run
/// (all zero when the workload never calls those layers).
fn sweep_layer_metrics(l: &SweepLedger, tail_idle_share: f64, footprint_peak: f64) -> Metrics {
    let mut m = Metrics::default();
    let per_sim = |ns: u64| ratio(ns as f64, l.sim_secs);
    let kb = l.report_bytes as f64 / 1024.0;
    m.put(
        "scenarios.start_in.ns_per_sim_s",
        per_sim(l.start_in),
        "ns/sim_s",
    );
    m.put(
        "scenarios.emit_tick.ns_per_sim_s",
        per_sim(l.emit),
        "ns/sim_s",
    );
    m.put(
        "scenarios.route_event.ns_per_sim_s",
        per_sim(l.route),
        "ns/sim_s",
    );
    m.put(
        "scenarios.route_event.ns_per_event",
        ratio(l.route as f64, l.route_events as f64),
        "ns",
    );
    m.put("simcore.queue.ns_per_sim_s", per_sim(l.queue), "ns/sim_s");
    m.put(
        "simcore.queue.ns_per_event",
        ratio(l.queue as f64, l.route_events as f64),
        "ns",
    );
    m.put(
        "ran.collect_access.ns_per_sim_s",
        per_sim(l.collect),
        "ns/sim_s",
    );
    m.put(
        "ran.ns_per_data_slot",
        ratio(l.collect as f64, l.data_slots as f64),
        "ns",
    );
    m.put(
        "scenarios.end_tick.ns_per_sim_s",
        per_sim(l.end_tick),
        "ns/sim_s",
    );
    m.put(
        "scenarios.finish.ns_per_sim_s",
        per_sim(l.finish),
        "ns/sim_s",
    );
    m.put("core.analyze.ns_per_sim_s", per_sim(l.analyze), "ns/sim_s");
    m.put(
        "core.chain_stats.ns_per_session",
        ratio(l.chain_stats as f64, l.sessions as f64),
        "ns",
    );
    m.put(
        "sweep.codec.encode_ns_per_kb",
        ratio(l.encode as f64, kb),
        "ns/KiB",
    );
    m.put(
        "sweep.codec.parse_ns_per_kb",
        ratio(l.parse as f64, kb),
        "ns/KiB",
    );
    let passes = l.passes as f64;
    let per_pass = |n: u64| ratio(n as f64, passes);
    m.put("sweep.merge.ns", per_pass(l.merge), "ns");
    m.put("sweep.report_bytes", per_pass(l.report_bytes), "bytes");
    m.put("sweep.tail_idle_share", tail_idle_share, "share");
    m.put("sweep.arena_footprint_peak", footprint_peak, "elements");
    m.put("engine.ticks", per_pass(l.ticks), "count/pass");
    m.put(
        "engine.route_events",
        per_pass(l.route_events),
        "count/pass",
    );
    m.put("net.packets", per_pass(l.net_packets), "count/pass");
    m.put("ran.data_slots", per_pass(l.data_slots), "count/pass");
    m.put(
        "ran.harq_retx_ratio",
        ratio(l.harq_retx as f64, l.data_slots as f64),
        "ratio",
    );
    m.put(
        "ran.prb_util",
        ratio(l.prb_granted as f64, l.prb_budget as f64),
        "ratio",
    );
    m.put(
        "net.loss_ratio",
        ratio(l.net_lost as f64, l.net_packets as f64),
        "ratio",
    );
    m
}

/// Live-stack metrics of a traced replay (all zero for the empty replay the
/// sweep workloads pass, which never run the live stack). `verdict_sim_ms`
/// are the replayed verdicts' simulated latencies, `emit_ns_per_window`
/// the analyzer's own cost per window.
fn live_layer_metrics(
    run: &replay::ReplayRun,
    emit_ns_per_window: f64,
    verdict_sim_ms: &[f64],
) -> Metrics {
    let mut m = Metrics::default();
    let l = &run.ledger;
    let mut verdict_ticks = l.verdict_tick_ns.clone();
    let mut sim_ms = verdict_sim_ms.to_vec();
    let per_call = |n: u64| ratio(n as f64, run.calls as f64);
    m.put("core.emit.ns_per_window", emit_ns_per_window, "ns");
    m.put(
        "live.ingest.ns_per_record",
        ratio(l.ingest as f64, run.records_seen as f64),
        "ns",
    );
    m.put("live.tick.ns", ratio(l.tick as f64, l.ticks as f64), "ns");
    m.put(
        "live.verdict_tick.us",
        median(&mut verdict_ticks) / 1e3,
        "us",
    );
    m.put(
        "live.chaos.ns_per_record",
        ratio(l.chaos as f64, l.chaos_records as f64),
        "ns",
    );
    m.put(
        "live.pool.ns_per_lease",
        ratio(l.pool as f64, l.leases as f64),
        "ns",
    );
    m.put(
        "live.records_seen",
        per_call(run.records_seen),
        "count/call",
    );
    m.put("live.windows", per_call(run.windows), "count/call");
    m.put("live.verdicts", per_call(run.verdicts), "count/call");
    m.put(
        "live.late_drop_ratio",
        ratio(run.late_drops as f64, run.records_seen as f64),
        "ratio",
    );
    m.put(
        "chaos.fault_ratio",
        ratio(l.chaos_faults as f64, l.chaos_records as f64),
        "ratio",
    );
    m.put(
        "live.verdict_sim_ms_p95",
        quantile(&mut sim_ms, 0.95),
        "sim_ms",
    );
    m.put("live.retained_peak", run.retained_peak as f64, "records");
    m
}

/// Host time of the traced run per simulated second (all workers), and
/// its ratio to the untraced run's: the tracing overhead.
fn trace_metrics(traced_ns_per_sim_s: f64, untraced_ns_per_sim_s: f64) -> Metrics {
    let mut m = Metrics::default();
    m.put("trace.ns_per_sim_s", traced_ns_per_sim_s, "ns/sim_s");
    m.put(
        "trace.overhead_ratio",
        ratio(traced_ns_per_sim_s, untraced_ns_per_sim_s),
        "ratio",
    );
    m
}

/// Each layer's share of the traced total, plus the residual: the shares
/// sum to 1.
fn shares(layers: &[(&'static str, u64)], total: u64) -> Metrics {
    let mut m = Metrics::default();
    let mut covered = 0u64;
    for &(name, ns) in layers {
        covered += ns;
        m.put(
            format!("{name}.share"),
            ratio(ns as f64, total as f64),
            "share",
        );
    }
    m.put(
        "residual.share",
        ratio(total.saturating_sub(covered) as f64, total as f64),
        "share",
    );
    m
}
