//! The chain table: a causal graph compiled for detection (paper §4.2,
//! Fig. 11).
//!
//! The paper's Domino "generates Python detection code directly from a
//! user's textual causal chain definition", so the chains a user writes are
//! the chains that run. Here [`compile`] lists every root→leaf chain of a
//! graph once, in the order windows report them, and the resulting
//! [`DetectionProgram`] is the one chain evaluator: the
//! [`StreamingAnalyzer`](crate::StreamingAnalyzer) and
//! [`Domino::trace_chains`](crate::Domino::trace_chains) run
//! [`DetectionProgram::trace_chains`], and [`DetectionProgram::emit_python`]
//! and [`DetectionProgram::emit_rust`] print the same table as Fig. 11's
//! nested tests. The recursive backward trace in the hidden `oracle` module
//! is the table's independent reference, and `tests/dsl_codegen.rs` runs the
//! generated source with `python3` and `rustc` against the table.

use std::fmt::Write as _;

use crate::detect::ChainHit;
use crate::features::FeatureVector;
use crate::graph::{CausalGraph, NodeId};

/// A causal graph compiled into its chain table.
///
/// The table holds every root→leaf chain, cause first, grouped by
/// consequence: leaves by ascending id, and each leaf's chains in the order
/// of a depth-first walk back over every node's parents in edge order. That
/// is the order in which a window reports its [`ChainHit`]s, and a chain's
/// id is its index.
#[derive(Debug, Clone)]
pub struct DetectionProgram {
    /// Each node's feature mask, by node id.
    masks: Vec<u64>,
    /// The chains, cause first.
    chains: Vec<Vec<NodeId>>,
}

/// Compiles a causal graph into its chain table.
pub fn compile(graph: &CausalGraph) -> DetectionProgram {
    let mut chains = Vec::new();
    for leaf in graph.leaves() {
        // The path back from `leaf`, each node with the index of the next
        // parent to visit. An explicit stack: paths are as long as the
        // graph is deep, and aliases make that unbounded.
        let mut stack = vec![(leaf, 0)];
        while let Some(&(at, next)) = stack.last() {
            let parents = graph.parents(at);
            if parents.is_empty() {
                chains.push(stack.iter().rev().map(|&(n, _)| n).collect());
            }
            match parents.get(next) {
                Some(&p) => {
                    stack.last_mut().expect("non-empty").1 += 1;
                    stack.push((p, 0));
                }
                None => {
                    stack.pop();
                }
            }
        }
    }
    DetectionProgram {
        masks: (0..graph.node_count()).map(|id| graph.mask(id)).collect(),
        chains,
    }
}

/// How many nodes, counted from the consequence, `a` and `b` share.
fn shared_tail(a: &[NodeId], b: &[NodeId]) -> usize {
    a.iter()
        .rev()
        .zip(b.iter().rev())
        .take_while(|(x, y)| x == y)
        .count()
}

/// `s` as a Python string literal: Rust's `{:?}` form, except that Python
/// spells a `\u{…}` escape as `\U` and eight hex digits.
fn py_str(s: &str) -> String {
    let mut lit = String::from("\"");
    for c in s.chars() {
        let rust = format!("{:?}", String::from(c));
        let escaped = &rust[1..rust.len() - 1];
        if escaped.starts_with("\\u{") {
            let _ = write!(lit, "\\U{:08x}", u32::from(c));
        } else {
            lit.push_str(escaped);
        }
    }
    lit.push('"');
    lit
}

impl DetectionProgram {
    /// The chains, cause first; a chain's id is its index.
    pub fn chains(&self) -> &[Vec<NodeId>] {
        &self.chains
    }

    /// A window's complete chains and its unexplained consequences.
    ///
    /// A chain hits when all of its nodes are active; hits come in table
    /// order. An active consequence with no hit is unknown; unknowns come in
    /// ascending id.
    pub fn trace_chains(&self, features: &FeatureVector) -> (Vec<ChainHit>, Vec<NodeId>) {
        let active: Vec<bool> = self.masks.iter().map(|&m| features.any(m)).collect();
        let mut hits = Vec::new();
        let mut unknown = Vec::new();
        for group in self.chains.chunk_by(|a, b| a.last() == b.last()) {
            let consequence = *group[0].last().expect("chains are non-empty");
            if !active[consequence] {
                continue;
            }
            let before = hits.len();
            for path in group.iter().filter(|p| p.iter().all(|&n| active[n])) {
                hits.push(ChainHit {
                    cause: path[0],
                    path: path.clone(),
                    consequence,
                });
            }
            if hits.len() == before {
                unknown.push(consequence);
            }
        }
        (hits, unknown)
    }

    /// Emits Python source in the shape of the paper's Fig. 11 listing: a
    /// nested test per node of each chain, consequence outermost, shared
    /// with the previous chain as far as their paths back from the
    /// consequence agree. `features` maps every node name to whether the
    /// node is active.
    pub fn emit_python(&self, graph: &CausalGraph) -> String {
        let mut src = String::from("def backward_trace(features):\n");
        src.push_str("    chains = []; causes = set(); consequences = set()\n");
        let mut prev: &[NodeId] = &[];
        for (id, chain) in self.chains.iter().enumerate() {
            let shared = shared_tail(prev, chain);
            for (depth, &node) in chain.iter().rev().enumerate().skip(shared) {
                let pad = "    ".repeat(depth + 1);
                let name = py_str(graph.name(node));
                let _ = writeln!(src, "{pad}if features[{name}]:");
                if depth == 0 {
                    let _ = writeln!(src, "{pad}    consequences.add({name})  # consequence");
                }
            }
            let pad = "    ".repeat(chain.len() + 1);
            let cause = py_str(graph.name(chain[0]));
            let _ = writeln!(src, "{pad}chains.append({id})  # Chain {id}");
            let _ = writeln!(src, "{pad}causes.add({cause})  # cause");
            prev = chain;
        }
        src.push_str("    return [consequences, causes, chains]\n");
        src
    }

    /// Emits the same nested tests as Rust source (for embedding in
    /// downstream tools). `active` says whether the named node is active.
    pub fn emit_rust(&self, graph: &CausalGraph) -> String {
        let mut src = String::from(
            "pub fn backward_trace(active: impl Fn(&str) -> bool) -> (Vec<&'static str>, Vec<&'static str>, Vec<usize>) {\n",
        );
        src.push_str("    let mut chains = Vec::new();\n");
        src.push_str("    let mut causes: Vec<&'static str> = Vec::new();\n");
        src.push_str("    let mut consequences: Vec<&'static str> = Vec::new();\n");
        // Closes the tests of the previous chain deeper than `keep`.
        let close = |src: &mut String, open: usize, keep: usize| {
            for depth in (keep..open).rev() {
                let _ = writeln!(src, "{}}}", "    ".repeat(depth + 1));
            }
        };
        let mut prev: &[NodeId] = &[];
        for (id, chain) in self.chains.iter().enumerate() {
            let shared = shared_tail(prev, chain);
            close(&mut src, prev.len(), shared);
            for (depth, &node) in chain.iter().rev().enumerate().skip(shared) {
                let pad = "    ".repeat(depth + 1);
                let name = graph.name(node);
                let _ = writeln!(src, "{pad}if active({name:?}) {{");
                if depth == 0 {
                    let _ = writeln!(src, "{pad}    consequences.push({name:?});");
                }
            }
            let pad = "    ".repeat(chain.len() + 1);
            let cause = graph.name(chain[0]);
            let _ = writeln!(src, "{pad}chains.push({id});");
            let _ = writeln!(
                src,
                "{pad}if !causes.contains(&{cause:?}) {{ causes.push({cause:?}); }}"
            );
            prev = chain;
        }
        close(&mut src, prev.len(), 0);
        src.push_str("    (consequences, causes, chains)\n}\n");
        src
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dsl::{default_graph, parse};
    use crate::features::Feature;

    const FIG11: &str = "dl_rlc_retx --> forward_delay_up --> local_jitter_buffer_drain\n\
                         dl_harq_retx --> forward_delay_up --> local_jitter_buffer_drain\n";

    #[test]
    fn fig11_example_compiles_and_runs() {
        let g = parse(FIG11).unwrap();
        let prog = compile(&g);
        assert_eq!(prog.chains().len(), 2);

        let mut fv = FeatureVector::new();
        fv.set(Feature::parse("local_jitter_buffer_drain").unwrap(), true);
        let (hits, unknown) = prog.trace_chains(&fv);
        assert!(hits.is_empty());
        assert_eq!(unknown, [g.id("local_jitter_buffer_drain").unwrap()]);

        fv.set(Feature::parse("forward_delay_up").unwrap(), true);
        fv.set(Feature::parse("dl_rlc_retx").unwrap(), true);
        let (hits, unknown) = prog.trace_chains(&fv);
        assert!(unknown.is_empty());
        assert_eq!(hits.len(), 1);
        assert_eq!(g.name(hits[0].cause), "dl_rlc_retx");
        assert_eq!(hits[0].path, prog.chains()[0]);

        // Both causes active → both chains, in table order.
        fv.set(Feature::parse("dl_harq_retx").unwrap(), true);
        let (hits, _) = prog.trace_chains(&fv);
        let paths: Vec<&Vec<NodeId>> = hits.iter().map(|h| &h.path).collect();
        assert_eq!(paths, [&prog.chains()[0], &prog.chains()[1]]);
    }

    #[test]
    fn a_node_that_is_root_and_leaf_is_a_one_node_chain() {
        let g = parse(&format!("{FIG11}alias lone = ul_harq_retx\n")).unwrap();
        let lone = g.id("lone").unwrap();
        let prog = compile(&g);
        // `lone` has the highest id, so its chain comes last.
        assert_eq!(prog.chains().last(), Some(&vec![lone]));
        let mut fv = FeatureVector::new();
        fv.set(Feature::parse("ul_harq_retx").unwrap(), true);
        let (hits, unknown) = prog.trace_chains(&fv);
        assert!(unknown.is_empty());
        assert_eq!(
            hits,
            [ChainHit {
                cause: lone,
                path: vec![lone],
                consequence: lone,
            }]
        );
        // The generated code reports it too.
        let py = prog.emit_python(&g);
        assert!(py.contains("        chains.append(2)  # Chain 2\n"), "{py}");
        let rs = prog.emit_rust(&g);
        assert!(rs.contains("        chains.push(2);\n"), "{rs}");
    }

    #[test]
    fn python_emission_matches_fig11_shape() {
        let g = parse(FIG11).unwrap();
        let py = compile(&g).emit_python(&g);
        assert_eq!(
            py,
            "def backward_trace(features):\n    \
             chains = []; causes = set(); consequences = set()\n    \
             if features[\"local_jitter_buffer_drain\"]:\n        \
             consequences.add(\"local_jitter_buffer_drain\")  # consequence\n        \
             if features[\"forward_delay_up\"]:\n            \
             if features[\"dl_rlc_retx\"]:\n                \
             chains.append(0)  # Chain 0\n                \
             causes.add(\"dl_rlc_retx\")  # cause\n            \
             if features[\"dl_harq_retx\"]:\n                \
             chains.append(1)  # Chain 1\n                \
             causes.add(\"dl_harq_retx\")  # cause\n    \
             return [consequences, causes, chains]\n"
        );
    }

    #[test]
    fn rust_emission_compilable_shape() {
        let g = default_graph();
        let rs = compile(&g).emit_rust(&g);
        assert!(rs.contains("pub fn backward_trace"));
        assert!(rs.contains("active(\"jitter_buffer_drain\")"));
        // Balanced braces.
        let open = rs.matches('{').count();
        let close = rs.matches('}').count();
        assert_eq!(open, close);
    }

    #[test]
    fn python_literals_spell_escapes_the_python_way() {
        assert_eq!(py_str("plain"), "\"plain\"");
        assert_eq!(py_str("a\"b\\c"), "\"a\\\"b\\\\c\"");
        assert_eq!(py_str("añ"), "\"añ\"");
        // A combining mark: Rust writes `\u{301}`, which Python rejects.
        assert_eq!(format!("{:?}", "e\u{301}"), "\"e\\u{301}\"");
        assert_eq!(py_str("e\u{301}"), "\"e\\U00000301\"");
    }

    #[test]
    fn default_graph_program_has_24_chains() {
        let g = default_graph();
        let prog = compile(&g);
        assert_eq!(prog.chains().len(), 24);
    }
}
