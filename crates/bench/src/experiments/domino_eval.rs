//! Domino evaluation experiments (paper §4.2): Fig. 10, Table 2, Table 4.
//!
//! Runs Domino over commercial-cell and private-cell sessions separately —
//! the paper reports each statistic "distinguishing between commercial
//! (blue) and private (red) 5G cells".

use std::fmt::Write as _;

use domino_core::{
    render_chain_ratio_table, render_conditional_table, render_frequency_table, ChainStats, Domino,
};
use telemetry::CellClass;

use domino_sweep::{run_sweep, SweepOptions};
use scenarios::{all_cells, SessionSpec};

use crate::util::session_cfg;

/// Analyses all four cells in parallel (streaming analyzer per worker) and
/// aggregates stats per cell class, in spec order.
fn class_stats() -> (Domino, ChainStats, ChainStats) {
    let domino = Domino::with_defaults();
    let specs: Vec<SessionSpec> = all_cells()
        .into_iter()
        .enumerate()
        .map(|(i, cell)| SessionSpec::cell(cell, session_cfg(4000 + i as u64)))
        .collect();
    let report = run_sweep(&specs, &domino, &SweepOptions::default());
    let commercial = report.aggregate_where(|o| o.meta.cell_class == CellClass::Commercial);
    let private = report.aggregate_where(|o| o.meta.cell_class == CellClass::Private);
    (domino, commercial, private)
}

/// Fig. 10 — absolute occurrence frequency of causes and consequences.
pub(crate) fn fig10() -> String {
    let (domino, commercial, private) = class_stats();
    let mut out =
        String::from("Fig. 10 — 5G cause and VCA consequence occurrence frequency (per minute)\n");
    let _ = writeln!(out, "### Commercial 5G");
    out.push_str(&render_frequency_table(domino.graph(), &commercial));
    let _ = writeln!(out, "### Private 5G");
    out.push_str(&render_frequency_table(domino.graph(), &private));
    out
}

/// Table 2 — conditional probability of causes given each consequence.
pub(crate) fn table2() -> String {
    let (domino, commercial, private) = class_stats();
    let mut out = String::from("Table 2 — P(cause | consequence)\n");
    let _ = writeln!(out, "### Commercial 5G");
    out.push_str(&render_conditional_table(domino.graph(), &commercial));
    let _ = writeln!(out, "### Private 5G");
    out.push_str(&render_conditional_table(domino.graph(), &private));
    out
}

/// Table 4 — each chain's ratio over all detected chains.
pub(crate) fn table4() -> String {
    let (domino, commercial, private) = class_stats();
    let mut out = String::from("Table 4 — chain ratio over all detected chains\n");
    let _ = writeln!(out, "### Commercial 5G");
    out.push_str(&render_chain_ratio_table(domino.graph(), &commercial));
    let _ = writeln!(out, "### Private 5G");
    out.push_str(&render_chain_ratio_table(domino.graph(), &private));
    out
}
