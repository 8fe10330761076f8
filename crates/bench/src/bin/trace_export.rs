//! `trace-export` — run a session on any of the Table 1 cells and dump the
//! full cross-layer trace bundle as CSV files (packets, DCI, gNB log, and
//! both clients' app stats), for analysis outside this workspace.
//!
//! ```text
//! trace-export <cell> <seconds> <seed> <outdir>
//! cells: tmobile-fdd | tmobile-tdd | amarisoft | mosolabs | wired | wifi
//! ```

use std::fs;
use std::path::Path;

use scenarios::{BaselineAccess, SessionConfig, SessionSpec};
use simcore::SimDuration;
use telemetry::csv;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.len() != 4 {
        eprintln!("usage: trace-export <cell> <seconds> <seed> <outdir>");
        eprintln!("cells: tmobile-fdd | tmobile-tdd | amarisoft | mosolabs | wired | wifi");
        std::process::exit(2);
    }
    let seconds: u64 = args[1].parse().expect("seconds must be an integer");
    let seed: u64 = args[2].parse().expect("seed must be an integer");
    let outdir = Path::new(&args[3]);
    fs::create_dir_all(outdir).expect("create output directory");

    let cfg = SessionConfig {
        duration: SimDuration::from_secs(seconds),
        seed,
        ..Default::default()
    };
    let bundle = match args[0].as_str() {
        "tmobile-fdd" => SessionSpec::cell(scenarios::tmobile_fdd_15mhz(), cfg).run(),
        "tmobile-tdd" => SessionSpec::cell(scenarios::tmobile_tdd_100mhz(), cfg).run(),
        "amarisoft" => SessionSpec::cell(scenarios::amarisoft(), cfg).run(),
        "mosolabs" => SessionSpec::cell(scenarios::mosolabs(), cfg).run(),
        "wired" => SessionSpec::baseline(BaselineAccess::Wired, cfg).run(),
        "wifi" => SessionSpec::baseline(BaselineAccess::Wifi, cfg).run(),
        other => {
            eprintln!("unknown cell {other:?}");
            std::process::exit(1);
        }
    };

    let write = |name: &str, content: String| {
        let path = outdir.join(name);
        fs::write(&path, content).expect("write CSV");
        println!("wrote {}", path.display());
    };
    write("packets.csv", csv::packets_to_csv(&bundle));
    write("dci.csv", csv::dci_to_csv(&bundle));
    write("gnb.csv", csv::gnb_to_csv(&bundle));
    write("app_local.csv", csv::app_to_csv(&bundle.app_local));
    write("app_remote.csv", csv::app_to_csv(&bundle.app_remote));
    println!(
        "session: {} | {} packets, {} DCI, {} gNB records",
        bundle.meta.cell_name,
        bundle.packets.len(),
        bundle.dci.len(),
        bundle.gnb.len()
    );
}
