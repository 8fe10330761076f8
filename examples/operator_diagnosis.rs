//! Operator workflow: near-real-time diagnosis of a degrading call
//! (paper §1: "network operators can provide [trace data] on a continuous,
//! near real-time basis").
//!
//! Simulates a call that degrades mid-way through an RRC outage plus a deep
//! uplink fade, then walks the trace window-by-window like a live pipeline,
//! printing a diagnosis the moment each degradation is attributed.
//!
//! ```text
//! cargo run --release --example operator_diagnosis
//! ```

use domino::core::{ChainStats, Domino};
use domino::scenarios::{tmobile_fdd_15mhz_quiet, ScriptAction, SessionConfig, SessionSpec};
use domino::simcore::{SimDuration, SimTime};
use domino::telemetry::Direction;

fn main() {
    let cfg = SessionConfig {
        duration: SimDuration::from_secs(60),
        seed: 31,
        ..Default::default()
    };
    let bundle = SessionSpec::cell(tmobile_fdd_15mhz_quiet(), cfg)
        // Two incidents an operator would want attributed:
        .with_script(ScriptAction::RrcRelease {
            at: SimTime::from_secs(20),
        })
        .with_script(ScriptAction::Sinr {
            dir: Direction::Uplink,
            from: SimTime::from_secs(40),
            to: SimTime::from_secs(43),
            sinr_db: -2.0,
        })
        .run();

    let domino = Domino::with_defaults();
    let analysis = domino.analyze(&bundle);

    println!("live diagnosis feed:");
    let mut last_report: Option<String> = None;
    for w in &analysis.windows {
        let mut lines: Vec<String> = Vec::new();
        for chain in &w.chains {
            let path: Vec<&str> = chain.path.iter().map(|&n| domino.graph().name(n)).collect();
            lines.push(path.join(" --> "));
        }
        for &u in &w.unknown_consequences {
            lines.push(format!("{} (cause unknown)", domino.graph().name(u)));
        }
        if lines.is_empty() {
            continue;
        }
        lines.sort();
        lines.dedup();
        let report = lines.join("; ");
        // Only print when the diagnosis changes (operators hate spam).
        if last_report.as_deref() != Some(&report) {
            println!("[t={:>6}] {report}", w.start);
            last_report = Some(report);
        }
    }

    let stats = ChainStats::compute(domino.graph(), &analysis);
    println!("\nsession summary:");
    for root in domino.graph().roots() {
        let name = domino.graph().name(root);
        let f = stats.cause_frequency_per_min(name);
        if f > 0.0 {
            println!("  {name:<20} {f:.2} events/min");
        }
    }
}
