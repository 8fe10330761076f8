//! The text configuration language for causal chains (paper Fig. 11).
//!
//! Two statement forms, one per line:
//!
//! ```text
//! # comments and blank lines are ignored
//! alias harq_retx = ul_harq_retx | dl_harq_retx
//! dl_rlc_retx --> forward_delay_up --> local_jitter_buffer_drain
//! ```
//!
//! `alias` binds a mechanism-level name to a disjunction of feature names;
//! a chain line adds edges between consecutive elements. Elements that are
//! not aliases must be canonical feature names. [`DEFAULT_CONFIG`] encodes
//! the paper's Fig. 9 graph, whose root→leaf paths are the 24 default
//! chains (§4.2).

use crate::features::Feature;
use crate::graph::{CausalGraph, GraphBuilder, GraphError};

/// The paper's default causal graph (Fig. 9) in DSL form.
pub const DEFAULT_CONFIG: &str = r#"
# ---- Domino default causal graph (paper Fig. 9) ----
# Six root causes in the 5G stack, two delay intermediates, three WebRTC
# consequences; 24 root-to-leaf chains in total.

# Mechanism-level causes cover both link directions.
alias poor_channel = ul_channel_degrades | dl_channel_degrades
alias cross_traffic = ul_cross_traffic | dl_cross_traffic
alias harq_retx = ul_harq_retx | dl_harq_retx
alias rlc_retx = ul_rlc_retx | dl_rlc_retx

# Consequences can appear at either client.
alias jitter_buffer_drain = local_jitter_buffer_drain | remote_jitter_buffer_drain
alias target_bitrate_down = local_target_bitrate_down | remote_target_bitrate_down
alias pushback_rate_down = local_pushback_rate_down | remote_pushback_rate_down

# Causes inflate the forward (media) path delay...
poor_channel --> forward_delay_up
cross_traffic --> forward_delay_up
ul_scheduling --> forward_delay_up
harq_retx --> forward_delay_up
rlc_retx --> forward_delay_up
rrc_state_change --> forward_delay_up

# ...and the reverse (RTCP feedback) path delay.
poor_channel --> reverse_delay_up
cross_traffic --> reverse_delay_up
ul_scheduling --> reverse_delay_up
harq_retx --> reverse_delay_up
rlc_retx --> reverse_delay_up
rrc_state_change --> reverse_delay_up

# Forward-path delay reaches all three consequences (§6.1, §6.2, §6.3).
forward_delay_up --> jitter_buffer_drain
forward_delay_up --> target_bitrate_down
forward_delay_up --> pushback_rate_down

# Reverse-path delay only starves acknowledgments: pushback (Fig. 22).
reverse_delay_up --> pushback_rate_down
"#;

/// The causal graph for the ABR streaming workload in DSL form.
///
/// Same six 5G root causes as [`DEFAULT_CONFIG`], but the consequences are
/// playback-side: RAN starvation inflates the forward (segment) path delay,
/// which drains the playback buffer into a stall, and capacity oscillation
/// makes the ABR controller hunt the ladder. 12 root-to-leaf chains.
pub const ABR_CONFIG: &str = r#"
# ---- Domino ABR streaming causal graph ----
# Six root causes in the 5G stack, one delay intermediate, two playback
# consequences; 12 root-to-leaf chains in total.

alias poor_channel = ul_channel_degrades | dl_channel_degrades
alias cross_traffic = ul_cross_traffic | dl_cross_traffic
alias harq_retx = ul_harq_retx | dl_harq_retx
alias rlc_retx = ul_rlc_retx | dl_rlc_retx

# Causes inflate the forward (segment download) path delay.
poor_channel --> forward_delay_up
cross_traffic --> forward_delay_up
ul_scheduling --> forward_delay_up
harq_retx --> forward_delay_up
rlc_retx --> forward_delay_up
rrc_state_change --> forward_delay_up

# RAN starvation drains the playback buffer into a stall...
forward_delay_up --> playback_buffer_low --> playback_stall

# ...and capacity oscillation makes the controller hunt the ladder.
forward_delay_up --> ladder_switch_down --> ladder_oscillation
"#;

/// A parse failure with its source line (1-based).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseError {
    /// 1-based line number.
    pub line: usize,
    /// What went wrong.
    pub message: String,
}

impl std::fmt::Display for ParseError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "line {}: {}", self.line, self.message)
    }
}

impl std::error::Error for ParseError {}

fn graph_err(line: usize, e: GraphError) -> ParseError {
    ParseError {
        line,
        message: e.to_string(),
    }
}

/// Parses DSL text into a validated causal graph.
pub fn parse(text: &str) -> Result<CausalGraph, ParseError> {
    let mut b = GraphBuilder::new();
    for (i, raw) in text.lines().enumerate() {
        let lineno = i + 1;
        let line = raw.split('#').next().unwrap_or("").trim();
        if line.is_empty() {
            continue;
        }
        if let Some(rest) = line.strip_prefix("alias ") {
            let (name, def) = rest.split_once('=').ok_or(ParseError {
                line: lineno,
                message: "alias must be `alias name = f1 | f2 | ...`".to_string(),
            })?;
            let name = name.trim();
            // Names are printed in reports, emitted DSL and generated code,
            // where a control character is invisible or corrupts the text.
            if name.is_empty() || name.contains(|c: char| c.is_whitespace() || c.is_control()) {
                return Err(ParseError {
                    line: lineno,
                    message: format!("invalid alias name {name:?}"),
                });
            }
            // An edge line naming it would start `alias ` and read back as
            // an alias statement.
            if name == "alias" {
                return Err(ParseError {
                    line: lineno,
                    message: "`alias` is reserved and cannot name an alias".to_string(),
                });
            }
            let mut features = Vec::new();
            for part in def.split('|') {
                let part = part.trim();
                let f = Feature::parse(part).ok_or(ParseError {
                    line: lineno,
                    message: format!("unknown feature {part:?} in alias {name:?}"),
                })?;
                features.push(f);
            }
            if features.is_empty() {
                return Err(ParseError {
                    line: lineno,
                    message: format!("alias {name:?} has no features"),
                });
            }
            b.define(name, features).map_err(|e| graph_err(lineno, e))?;
            continue;
        }
        if line.contains("-->") {
            let parts: Vec<&str> = line.split("-->").map(str::trim).collect();
            if parts.iter().any(|p| p.is_empty()) || parts.len() < 2 {
                return Err(ParseError {
                    line: lineno,
                    message: "chain must be `a --> b [--> c ...]`".to_string(),
                });
            }
            let mut prev = b.node(parts[0]).map_err(|e| graph_err(lineno, e))?;
            for part in &parts[1..] {
                let next = b.node(part).map_err(|e| graph_err(lineno, e))?;
                b.edge(prev, next);
                prev = next;
            }
            continue;
        }
        return Err(ParseError {
            line: lineno,
            message: format!("unrecognised statement {line:?}"),
        });
    }
    b.build().map_err(|e| graph_err(0, e))
}

/// Emits a graph back as DSL text (aliases first, then one edge per line).
/// `parse(emit(g))` reproduces the same nodes and edges.
pub fn emit(g: &CausalGraph) -> String {
    let mut out = String::new();
    for id in 0..g.node_count() {
        let name = g.name(id);
        let pred = g.predicate(id);
        // A node whose name is just its single feature needs no alias when
        // an edge line names it; an isolated one exists only by its alias.
        let trivial = pred.len() == 1 && pred[0].name() == name;
        let isolated = g.parents(id).is_empty() && g.children(id).is_empty();
        if !trivial || isolated {
            let feats: Vec<String> = pred.iter().map(|f| f.name()).collect();
            out.push_str(&format!("alias {} = {}\n", name, feats.join(" | ")));
        }
    }
    for (a, b) in g.edges() {
        out.push_str(&format!("{} --> {}\n", g.name(a), g.name(b)));
    }
    out
}

/// Parses the paper's default Fig. 9 configuration.
pub fn default_graph() -> CausalGraph {
    parse(DEFAULT_CONFIG).expect("default config is valid")
}

/// Parses the ABR streaming configuration ([`ABR_CONFIG`]).
pub fn abr_graph() -> CausalGraph {
    parse(ABR_CONFIG).expect("abr config is valid")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::codegen::compile;

    #[test]
    fn default_graph_has_24_chains() {
        let g = default_graph();
        assert_eq!(g.roots().len(), 6, "six root causes");
        assert_eq!(g.leaves().len(), 3, "three consequences");
        let chains = compile(&g).chains().len();
        assert_eq!(chains, 24, "Fig. 9 yields 24 chains");
    }

    #[test]
    fn abr_graph_has_12_chains() {
        let g = abr_graph();
        assert_eq!(g.roots().len(), 6, "same six root causes");
        assert_eq!(g.leaves().len(), 2, "stall and oscillation");
        let program = compile(&g);
        assert_eq!(program.chains().len(), 12, "6 roots x 2 leaves");
        for chain in program.chains() {
            assert_eq!(chain.len(), 4, "root -> delay -> precursor -> leaf");
        }
    }

    /// `layers` layers of two aliases over the HARQ features, each alias
    /// linked to both of the next layer's: 2^layers root-to-leaf chains
    /// in a config of a few KB.
    fn layered_config(layers: usize) -> String {
        let mut text = String::new();
        for l in 0..layers {
            for a in 0..2 {
                text.push_str(&format!("alias l{l}_{a} = ul_harq_retx | dl_harq_retx\n"));
            }
        }
        for l in 1..layers {
            for a in 0..2 {
                for b in 0..2 {
                    text.push_str(&format!("l{}_{a} --> l{l}_{b}\n", l - 1));
                }
            }
        }
        text
    }

    #[test]
    fn chain_count_is_bounded_at_build() {
        let g = parse(&layered_config(12)).expect("4 096 chains are within the limit");
        let chains = compile(&g).chains().len();
        assert_eq!(chains as u64, crate::graph::MAX_CHAINS);
        for (layers, chains) in [(13, 1u64 << 13), (20, 1 << 20)] {
            let err = parse(&layered_config(layers)).expect_err("too many chains");
            let want = GraphError::TooManyChains {
                chains,
                limit: crate::graph::MAX_CHAINS,
            };
            assert_eq!(err, graph_err(0, want), "{layers} layers");
        }
    }

    /// A fan-out config of `2n + 1` lines: one root alias, `n` leaf
    /// aliases, and `n` edges from the root to each leaf.
    fn fan_out_config(n: usize) -> String {
        let mut text = String::from("alias r = ul_harq_retx\n");
        for i in 0..n {
            text.push_str(&format!("alias c{i} = ul_cross_traffic\n"));
        }
        for i in 0..n {
            text.push_str(&format!("r --> c{i}\n"));
        }
        text
    }

    #[test]
    fn many_edge_lines_parse_in_linear_time() {
        // 7.3 MB. Deduplicating edges with a list scan made this parse
        // quadratic (13.5 s in release); the edge set keeps it linear.
        let err = parse(&fan_out_config(160_000)).expect_err("too many chains");
        let want = GraphError::TooManyChains {
            chains: 160_000,
            limit: crate::graph::MAX_CHAINS,
        };
        assert_eq!(err, graph_err(0, want));
        // Repeated edges still collapse, in first-insertion order.
        let g = parse(
            "ul_harq_retx --> forward_delay_up\n\
             dl_harq_retx --> forward_delay_up\n\
             ul_harq_retx --> forward_delay_up\n",
        )
        .unwrap();
        let names: Vec<(&str, &str)> = g
            .edges()
            .into_iter()
            .map(|(a, b)| (g.name(a), g.name(b)))
            .collect();
        assert_eq!(
            names,
            [
                ("ul_harq_retx", "forward_delay_up"),
                ("dl_harq_retx", "forward_delay_up")
            ]
        );
    }

    #[test]
    fn fig11_example_parses() {
        let g = parse(
            "dl_rlc_retx --> forward_delay_up --> local_jitter_buffer_drain\n\
             dl_harq_retx --> forward_delay_up --> local_jitter_buffer_drain\n",
        )
        .unwrap();
        assert_eq!(compile(&g).chains().len(), 2);
        assert_eq!(g.roots().len(), 2);
        assert_eq!(g.leaves().len(), 1);
    }

    #[test]
    fn comments_and_blanks_ignored() {
        let g =
            parse("# hello\n\n  # indented comment\nul_harq_retx --> forward_delay_up # tail\n")
                .unwrap();
        assert_eq!(g.node_count(), 2);
    }

    #[test]
    fn errors_carry_line_numbers() {
        let err = parse("ul_harq_retx --> forward_delay_up\nbogus_feature --> forward_delay_up\n")
            .unwrap_err();
        assert_eq!(err.line, 2);
        assert!(err.message.contains("bogus_feature"));

        let err = parse("alias x = \n").unwrap_err();
        assert_eq!(err.line, 1);

        let err = parse("this is not a statement\n").unwrap_err();
        assert!(err.message.contains("unrecognised"));

        // An edge line naming an alias called `alias` would read back as
        // an alias statement, so the name is reserved.
        let err = parse(
            "ul_harq_retx --> forward_delay_up\n\
             alias alias = ul_harq_retx\n\
             ul_cross_traffic --> alias --> forward_delay_up\n",
        )
        .unwrap_err();
        assert_eq!(err.line, 2);
        assert!(err.message.contains("reserved"), "{err}");

        // Control characters are rejected like whitespace.
        for name in ["a\u{7f}b", "a\u{0}b", "a\u{1b}b", "a\u{9b}b"] {
            let err = parse(&format!(
                "ul_harq_retx --> forward_delay_up\nalias {name} = ul_harq_retx\n"
            ))
            .unwrap_err();
            assert_eq!(err.line, 2, "{name:?}");
            assert!(err.message.contains("invalid alias name"), "{err}");
        }
    }

    #[test]
    fn round_trip() {
        let g = default_graph();
        let text = emit(&g);
        let g2 = parse(&text).unwrap();
        assert_eq!(g.node_count(), g2.node_count());
        let names = |g: &CausalGraph| {
            let mut v: Vec<(String, String)> = g
                .edges()
                .into_iter()
                .map(|(a, b)| (g.name(a).to_string(), g.name(b).to_string()))
                .collect();
            v.sort();
            v
        };
        assert_eq!(names(&g), names(&g2));
        assert_eq!(compile(&g2).chains().len(), 24);

        // A node on no edge exists only by its alias line, even when the
        // alias is just its own feature; on an edge that line is redundant.
        let isolated = "alias ul_harq_retx = ul_harq_retx\n";
        assert_eq!(emit(&parse(isolated).unwrap()), isolated);
        let linked = format!("{isolated}ul_harq_retx --> forward_delay_up\n");
        assert_eq!(
            emit(&parse(&linked).unwrap()),
            "ul_harq_retx --> forward_delay_up\n"
        );
    }

    #[test]
    fn multi_hop_chain_line() {
        let g = parse("ul_harq_retx --> reverse_delay_up --> local_pushback_rate_down").unwrap();
        let program = compile(&g);
        assert_eq!(program.chains().len(), 1);
        assert_eq!(program.chains()[0].len(), 3);
    }
}
