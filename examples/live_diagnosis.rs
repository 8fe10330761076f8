//! In-session diagnosis: the `domino-live` pipeline taps the session engine
//! and attributes degradations *while the call is running* — each verdict is
//! printed from inside the simulation, stamped with the session time at
//! which an operator would have seen it (window end + watermark lateness),
//! not at the end of a post-hoc pass.
//!
//! Two runs over the same degrading call (an RRC outage at 20 s, then a deep
//! uplink fade at 40 s):
//!
//! 1. **Full watch** — every window's verdict, live, plus the pipeline's
//!    constant-memory accounting (peak retained records vs. session total).
//! 2. **Triage with early exit** — the same call watched under
//!    `EarlyExit::AfterChains(3)`: the session is aborted the moment the
//!    diagnosis is in, which is how a fleet-scale diagnoser frees capacity.
//!
//! ```text
//! cargo run --release --example live_diagnosis
//! ```

use domino::live::{EarlyExit, LiveConfig, LivePipeline};
use domino::scenarios::{tmobile_fdd_15mhz_quiet, ScriptAction, SessionConfig, SessionSpec};
use domino::simcore::{SimDuration, SimTime};
use domino::telemetry::{Direction, Lateness};

/// A 60 s call on the quiet FDD cell with two incidents scripted in.
fn degrading_call() -> SessionSpec {
    let cfg = SessionConfig {
        duration: SimDuration::from_secs(60),
        seed: 31,
        ..Default::default()
    };
    SessionSpec::cell(tmobile_fdd_15mhz_quiet(), cfg)
        .with_script(ScriptAction::RrcRelease {
            at: SimTime::from_secs(20),
        })
        .with_script(ScriptAction::Sinr {
            dir: Direction::Uplink,
            from: SimTime::from_secs(40),
            to: SimTime::from_secs(43),
            sinr_db: -2.0,
        })
}

fn main() {
    let graph = domino::core::default_graph();

    // ---- Run 1: watch the whole call, verdict by verdict -----------------
    let live_cfg = LiveConfig {
        lateness: Lateness::Static(SimDuration::from_secs(2)),
        early_exit: EarlyExit::Never,
    };
    let mut pipe = LivePipeline::with_defaults(live_cfg).expect("default config is aligned");
    {
        let graph = graph.clone();
        let mut last: Option<String> = None;
        pipe.set_verdict_hook(move |v| {
            let mut lines: Vec<String> = v
                .chains
                .iter()
                .map(|c| {
                    c.path
                        .iter()
                        .map(|&n| graph.name(n))
                        .collect::<Vec<_>>()
                        .join(" --> ")
                })
                .chain(
                    v.unknown_consequences
                        .iter()
                        .map(|&u| format!("{} (cause unknown)", graph.name(u))),
                )
                .collect();
            if lines.is_empty() {
                return;
            }
            lines.sort();
            lines.dedup();
            let report = lines.join("; ");
            // Only print when the diagnosis changes (operators hate spam).
            if last.as_deref() != Some(&report) {
                println!(
                    "[seen {:>6} | window {:>6}] {report}",
                    v.emitted_at, v.window_start
                );
                last = Some(report);
            }
        });
    }

    println!("== live diagnosis feed (lateness bound: 2 s) ==");
    let call = degrading_call();
    let bundle = call.run_with_tap(&mut pipe);

    let stats = pipe.stats();
    let analysis = pipe.take_analysis(bundle.meta.duration);
    println!("\n== session summary ==");
    println!("  windows analysed      {}", stats.windows_emitted);
    println!("  records tapped        {}", stats.records_seen);
    println!(
        "  peak retained records {} ({:.1}% of the trace — O(window + lateness), not O(session))",
        stats.peak_retained_records,
        100.0 * stats.peak_retained_records as f64 / bundle.total_records() as f64
    );
    println!(
        "  late drops / deliveries {} / {}",
        stats.late_records_dropped, stats.late_deliveries
    );
    let chain_stats = domino::core::ChainStats::compute(&graph, &analysis);
    for root in graph.roots() {
        let name = graph.name(root);
        let f = chain_stats.cause_frequency_per_min(name);
        if f > 0.0 {
            println!("  {name:<22} {f:.2} events/min");
        }
    }

    // ---- Run 2: triage mode — stop simulating once the verdict is in ----
    let mut triage = LivePipeline::with_defaults(LiveConfig {
        lateness: Lateness::Static(SimDuration::from_secs(2)),
        early_exit: EarlyExit::AfterChains(3),
    })
    .expect("default config is aligned");
    let truncated = call.run_with_tap(&mut triage);
    let tstats = triage.stats();
    println!("\n== triage run (early exit after 3 confirmed chains) ==");
    println!(
        "  stopped early: {} — simulated {:.1} s of {:.0} s (saved {:.0}% of the session)",
        tstats.early_exited,
        truncated.horizon().as_secs_f64(),
        call.cfg.duration.as_secs_f64(),
        100.0 * (1.0 - truncated.horizon().as_secs_f64() / call.cfg.duration.as_secs_f64())
    );
    for v in triage
        .drain_verdicts()
        .iter()
        .filter(|v| !v.chains.is_empty())
    {
        for c in &v.chains {
            println!(
                "  [seen {:>6}] {}",
                v.emitted_at,
                c.path
                    .iter()
                    .map(|&n| graph.name(n))
                    .collect::<Vec<_>>()
                    .join(" --> ")
            );
        }
    }
}
