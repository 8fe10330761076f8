//! Extensibility demo (paper §4.2 "Extensibility of Domino", Fig. 11):
//! define new causal chains in the text DSL, compile them to the chain table
//! the analyzer runs, and emit the generated Python/Rust source.
//!
//! ```text
//! cargo run --release --example custom_chains
//! ```

use domino::core::{compile, parse, Domino, DominoConfig};
use domino::scenarios::{tmobile_fdd_15mhz_quiet, ScriptAction, SessionConfig, SessionSpec};
use domino::simcore::{SimDuration, SimTime};
use domino::telemetry::Direction;

// Exactly the paper's Fig. 11 input, plus one chain of our own that traces
// congestion-window exhaustion to downlink cross traffic.
const CONFIG: &str = "
dl_rlc_retx --> forward_delay_up --> local_jitter_buffer_drain
dl_harq_retx --> forward_delay_up --> local_jitter_buffer_drain
dl_cross_traffic --> reverse_delay_up --> local_cwnd_full
";

fn main() {
    let graph = parse(CONFIG).expect("config parses");
    let program = compile(&graph);
    println!(
        "parsed graph: {} nodes, {} chains",
        graph.node_count(),
        program.chains().len()
    );

    // Generate code from the definition, as Fig. 11 does.
    println!(
        "---- generated Python ----\n{}",
        program.emit_python(&graph)
    );
    println!("---- generated Rust  ----\n{}", program.emit_rust(&graph));

    // Run the custom detector on a session with a scripted DL cross-traffic
    // episode that should trip the new chain.
    let cfg = SessionConfig {
        duration: SimDuration::from_secs(30),
        seed: 99,
        ..Default::default()
    };
    let bundle = SessionSpec::cell(tmobile_fdd_15mhz_quiet(), cfg)
        .with_script(ScriptAction::CrossTraffic {
            dir: Direction::Downlink,
            from: SimTime::from_secs(12),
            to: SimTime::from_secs(15),
            prb_fraction: 0.99,
        })
        .run();

    let domino = Domino::new(graph, DominoConfig::default());
    let analysis = domino.analyze(&bundle);
    let mut hits = 0;
    for w in &analysis.windows {
        for chain in &w.chains {
            let path: Vec<&str> = chain.path.iter().map(|&n| domino.graph().name(n)).collect();
            println!("t={:>7} detected: {}", w.start, path.join(" --> "));
            hits += 1;
        }
    }
    println!(
        "{hits} chain detections in {} windows",
        analysis.windows.len()
    );
}
