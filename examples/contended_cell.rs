//! Contended cell: 48 UEs on one 20 MHz TDD carrier — two diagnosed WebRTC
//! call pairs plus 46 scripted cross-traffic UEs — with a neighbor-load
//! spike mid-call. Domino diagnoses each pair independently from its own
//! viewpoint on the shared control channel and attributes the mid-call
//! degradation to scheduler starvation (cross traffic → delay → quality).
//!
//! ```text
//! cargo run --release --example contended_cell
//! ```

use domino::core::{ChainStats, Domino};
use domino::ran::traffic_mix;
use domino::scenarios::{amarisoft, ScriptAction, SessionConfig, SharedCellDriver};
use domino::simcore::{SimDuration, SimTime};
use domino::telemetry::Direction;

fn main() {
    // 1. One Amarisoft cell with 46 scripted traffic UEs camped on it —
    //    streaming, bursty, and idle profiles from the deterministic mix.
    let mut cell = amarisoft();
    cell.traffic_ues = traffic_mix(46);

    let cfg = SessionConfig {
        duration: SimDuration::from_secs(60),
        seed: 4242,
        ..Default::default()
    };

    // 2. Two diagnosed RTC pairs share the cell with the scripted crowd:
    //    48 UEs total contending for the same 51-PRB budget. A neighbor
    //    load spike (an unmodelled heavy user, e.g. a handover burst)
    //    saturates the downlink between t=25 s and t=35 s.
    let spike = ScriptAction::CrossTraffic {
        dir: Direction::Downlink,
        from: SimTime::from_secs(25),
        to: SimTime::from_secs(35),
        prb_fraction: 0.9,
    };
    let driver = SharedCellDriver::new(cell, &cfg, 2, &[spike]);
    println!(
        "simulating 60 s: 2 diagnosed pairs + {} scripted traffic UEs on one cell ...",
        driver.n_traffic_ues()
    );
    let bundles = driver.run();

    // 3. Diagnose each pair from its own bundle: same control channel, its
    //    own packets/app stats, `is_target_ue` stamped per viewpoint.
    let domino = Domino::with_defaults();
    for (pair, bundle) in bundles.iter().enumerate() {
        let analysis = domino.analyze(bundle);
        let stats = ChainStats::compute(domino.graph(), &analysis);

        // Windows whose causal chain starts at cross traffic = scheduler
        // starvation verdicts; compare inside vs. outside the spike.
        let mut starved_in_spike = 0usize;
        let mut starved_outside = 0usize;
        let mut windows_with_chains = 0usize;
        for w in &analysis.windows {
            let starved = w
                .chains
                .iter()
                .any(|c| domino.graph().name(c.cause).contains("cross_traffic"));
            if !w.chains.is_empty() {
                windows_with_chains += 1;
            }
            if starved {
                let in_spike =
                    w.start >= SimTime::from_secs(23) && w.start <= SimTime::from_secs(35);
                if in_spike {
                    starved_in_spike += 1;
                } else {
                    starved_outside += 1;
                }
            }
        }

        let own_dci = bundle.dci.iter().filter(|d| d.is_target_ue).count();
        println!(
            "\npair {pair}: {} packets, {} DCI seen ({} own), {} gNB records",
            bundle.packets.len(),
            bundle.dci.len(),
            own_dci,
            bundle.gnb.len()
        );
        println!(
            "  {} windows with causal chains; {} cross-traffic (starvation) verdicts \
             during the spike, {} elsewhere",
            windows_with_chains, starved_in_spike, starved_outside
        );
        println!(
            "  verdict: {}",
            if starved_in_spike > 0 {
                "mid-call degradation attributed to scheduler starvation \
                 (cross traffic from the other 47 UEs)"
            } else {
                "no starvation chains found — raise the spike or UE count"
            }
        );

        // Top-3 chain frequencies for this pair.
        let mut freq: Vec<(usize, String)> = stats
            .chain_windows
            .iter()
            .map(|((cause, cons), &n)| (n, format!("{cause} --> {cons}")))
            .collect();
        freq.sort_by(|a, b| b.0.cmp(&a.0).then(a.1.cmp(&b.1)));
        for (n, label) in freq.iter().take(3) {
            println!("  {n:>4} windows: {label}");
        }
    }
}
