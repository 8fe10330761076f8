//! # domino-bench — the figure/table regeneration harness
//!
//! One experiment per figure and table of the paper's evaluation. Each
//! experiment runs the simulators, applies Domino where relevant, and
//! prints the same rows/series the paper reports (CDF quantile series for
//! CDF figures, time-series columns for trace figures, matrices for the
//! tables). Run via the `repro` binary:
//!
//! ```text
//! repro list        # all experiment ids
//! repro fig2        # one experiment
//! repro all         # everything
//! ```
//!
//! Absolute numbers come from a simulator, not the authors' testbed; the
//! *shape* (orderings, crossovers, rough factors) is what is compared, and
//! `tests/cross_layer_shapes.rs` asserts it for each reproduced mechanism.

pub mod experiments;
pub mod util;

/// All experiment ids in paper order.
pub const EXPERIMENTS: [&str; 23] = [
    "fig2",
    "fig3",
    "fig4",
    "fig5",
    "fig6",
    "table1",
    "fig8",
    "fig10",
    "table2",
    "table3",
    "table4",
    "fig12",
    "fig13",
    "fig14",
    "fig16",
    "fig17",
    "fig18",
    "fig19",
    "fig20",
    "fig21-22",
    "ablation-proactive",
    "ablation-harq",
    "ablation-window",
];

/// Runs one experiment by id; `None` for an unknown id.
pub fn run(id: &str) -> Option<String> {
    let out = match id {
        "fig2" => experiments::motivation::fig2(),
        "fig3" => experiments::motivation::fig3(),
        "fig4" => experiments::motivation::fig4(),
        "fig5" => experiments::motivation::fig5(),
        "fig6" => experiments::motivation::fig6(),
        "table1" => experiments::motivation::table1(),
        "fig8" => experiments::longitudinal::fig8(),
        "table3" => experiments::longitudinal::table3(),
        "fig10" => experiments::domino_eval::fig10(),
        "table2" => experiments::domino_eval::table2(),
        "table4" => experiments::domino_eval::table4(),
        "fig12" => experiments::mechanisms::fig12(),
        "fig13" => experiments::mechanisms::fig13(),
        "fig14" => experiments::mechanisms::fig14(),
        "fig16" => experiments::mechanisms::fig16(),
        "fig17" => experiments::mechanisms::fig17(),
        "fig18" => experiments::mechanisms::fig18(),
        "fig19" => experiments::mechanisms::fig19(),
        "fig20" => experiments::consequences::fig20(),
        "fig21-22" | "fig21" | "fig22" => experiments::consequences::fig21_22(),
        "ablation-proactive" => experiments::ablations::proactive_grants(),
        "ablation-harq" => experiments::ablations::harq_attempts(),
        "ablation-window" => experiments::ablations::window_length(),
        _ => return None,
    };
    Some(out)
}
