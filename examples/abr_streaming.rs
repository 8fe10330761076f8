//! Streaming workload diagnosis: a QUIC/ABR video player riding a cell it
//! shares with scripted traffic UEs, degraded mid-session by a downlink
//! cross-traffic surge and a deep fade. The ABR controller hunts the
//! bitrate ladder and the playback buffer drains into a stall; Domino's
//! streaming causal graph attributes both back to the RAN.
//!
//! ```text
//! cargo run --release --example abr_streaming
//! ```

use std::collections::HashMap;

use domino::abr::AbrConfig;
use domino::core::{abr_graph, ChainStats, Domino, DominoConfig};
use domino::ran::traffic_mix;
use domino::scenarios::{tmobile_fdd_15mhz_quiet, ScriptAction, SessionConfig, SessionSpec};
use domino::simcore::{SimDuration, SimTime};
use domino::telemetry::Direction;

fn main() {
    // A busy cell: 12 scripted traffic UEs contend for the same PRB budget
    // as the streaming session's experiment UE.
    let mut cell = tmobile_fdd_15mhz_quiet();
    cell.traffic_ues = traffic_mix(12);

    let cfg = SessionConfig {
        duration: SimDuration::from_secs(60),
        seed: 1907,
        ..Default::default()
    };

    let bundle = SessionSpec::cell(cell, cfg)
        .abr(AbrConfig::default())
        // A downlink cross-traffic surge squeezes the segment download
        // path, then a deep downlink fade collapses the link rate.
        .with_script(ScriptAction::CrossTraffic {
            dir: Direction::Downlink,
            from: SimTime::from_secs(18),
            to: SimTime::from_secs(30),
            prb_fraction: 0.95,
        })
        .with_script(ScriptAction::Sinr {
            dir: Direction::Downlink,
            from: SimTime::from_secs(42),
            to: SimTime::from_secs(48),
            sinr_db: -2.0,
        })
        .run();

    // Playback-side view of the damage, straight from the trace.
    let last = bundle.playback.last().expect("playback stats recorded");
    println!("playback summary ({} traffic UEs sharing the cell):", 12);
    println!("  segments fetched       {}", last.segments_fetched);
    println!(
        "  stalls                 {} ({} ms total)",
        last.stall_count, last.total_stall_ms
    );
    println!(
        "  final rung             {} ({:?})",
        last.rung, last.resolution
    );

    // Cross-layer diagnosis over the ABR causal graph.
    let domino = Domino::new(abr_graph(), DominoConfig::default());
    let analysis = domino.analyze(&bundle);

    // Rank (root cause -> playback consequence) attributions by how many
    // windows confirmed the full chain.
    let mut ranked: HashMap<String, usize> = HashMap::new();
    for w in &analysis.windows {
        for chain in &w.chains {
            let root = domino.graph().name(chain.path[0]);
            let leaf = domino.graph().name(*chain.path.last().expect("non-empty"));
            *ranked.entry(format!("{root:<20} --> {leaf}")).or_default() += 1;
        }
    }
    let mut ranked: Vec<(String, usize)> = ranked.into_iter().collect();
    ranked.sort_by(|a, b| b.1.cmp(&a.1).then_with(|| a.0.cmp(&b.0)));

    println!("\nranked root-cause verdicts (windows confirming the chain):");
    if ranked.is_empty() {
        println!("  (no complete chains — healthy session)");
    }
    for (chain, windows) in &ranked {
        println!("  {windows:>3}  {chain}");
    }

    let stats = ChainStats::compute(domino.graph(), &analysis);
    println!("\nroot-cause event rates:");
    for root in domino.graph().roots() {
        let name = domino.graph().name(root);
        let f = stats.cause_frequency_per_min(name);
        if f > 0.0 {
            println!("  {name:<20} {f:.2} events/min");
        }
    }
}
