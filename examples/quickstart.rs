//! Quickstart: simulate a 5G video-conferencing session, run Domino on the
//! collected cross-layer trace, and print the root-cause report.
//!
//! ```text
//! cargo run --release --example quickstart
//! ```

use domino::core::{render_conditional_table, render_frequency_table, ChainStats, Domino};
use domino::scenarios::{amarisoft, SessionConfig, SessionSpec};
use domino::simcore::SimDuration;

fn main() {
    // 1. A two-minute two-party WebRTC call over the Amarisoft private cell
    //    (poor uplink channel, conservative UL MCS — paper §5.1.1).
    let cfg = SessionConfig {
        duration: SimDuration::from_secs(120),
        seed: 7,
        ..Default::default()
    };
    println!("simulating 120 s call over {} ...", amarisoft().name);
    let bundle = SessionSpec::cell(amarisoft(), cfg).run();
    let rates = bundle.event_rates();
    println!(
        "collected {} DCI/min, {} gNB/min, {} packets/min, {} WebRTC samples/min",
        rates.dci_per_min as u64,
        rates.gnb_per_min as u64,
        rates.packets_per_min as u64,
        rates.webrtc_per_min as u64
    );

    // 2. Domino with the paper's default Fig. 9 graph (24 chains),
    //    W = 5 s sliding window, Δt = 0.5 s.
    let domino = Domino::with_defaults();
    let analysis = domino.analyze(&bundle);
    println!("analysed {} windows", analysis.windows.len());

    // 3. Statistics: Fig. 10-style frequencies and the Table 2 matrix.
    let stats = ChainStats::compute(domino.graph(), &analysis);
    println!("\n{}", render_frequency_table(domino.graph(), &stats));
    println!("{}", render_conditional_table(domino.graph(), &stats));

    // 4. Show a few concrete detections.
    let mut shown = 0;
    for w in &analysis.windows {
        for chain in &w.chains {
            let path: Vec<&str> = chain.path.iter().map(|&n| domino.graph().name(n)).collect();
            println!("t={:>7} chain: {}", w.start, path.join(" --> "));
            shown += 1;
            if shown >= 10 {
                return;
            }
        }
    }
}
