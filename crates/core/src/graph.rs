//! The user-reconfigurable causal DAG (paper §4, Fig. 9).
//!
//! Nodes are named events whose *predicate* is a disjunction of features
//! from the 40-dim vector (so a mechanism-level node like `harq_retx` can
//! cover both the UL and DL features). Edges point from cause toward
//! consequence. Roots of the DAG are root causes, leaves are user-visible
//! consequences; every root→leaf path is a candidate causal chain — the
//! default Fig. 9 graph yields exactly 24. [`compile`](crate::codegen::compile)
//! lists them in a chain table, the one evaluator of a graph.

use std::collections::{HashMap, HashSet};
use std::fmt;

use crate::features::{Feature, FeatureVector};

/// Index of a node in the graph.
pub type NodeId = usize;

/// Most root→leaf chains a graph may have. Compiling a graph lists every
/// chain and each analysed window checks every listed chain, so chains
/// bound the work a configuration can demand; with unbounded aliases a
/// layered graph has 2^layers of them. The default graph has 24 chains
/// and the ABR graph 12.
pub(crate) const MAX_CHAINS: u64 = 4096;

/// Graph construction / validation errors.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) enum GraphError {
    /// An edge references an unknown node and the name is not a feature.
    UnknownNode(String),
    /// The graph contains a directed cycle through the named node.
    Cycle(String),
    /// A node has an empty predicate.
    EmptyPredicate(String),
    /// Duplicate alias definition.
    DuplicateAlias(String),
    /// The graph has more root→leaf chains than the 4 096 a graph may hold.
    TooManyChains {
        /// Chains counted, saturating at `u64::MAX`.
        chains: u64,
        /// The limit, 4 096.
        limit: u64,
    },
}

impl fmt::Display for GraphError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            GraphError::UnknownNode(n) => {
                write!(f, "node {n:?} is neither an alias nor a feature name")
            }
            GraphError::Cycle(n) => write!(f, "causal graph has a cycle through {n:?}"),
            GraphError::EmptyPredicate(n) => write!(f, "node {n:?} has no features"),
            GraphError::DuplicateAlias(n) => write!(f, "alias {n:?} defined twice"),
            GraphError::TooManyChains { chains, limit } => write!(
                f,
                "causal graph has {chains} root-to-leaf chains, more than the limit of {limit}"
            ),
        }
    }
}

impl std::error::Error for GraphError {}

#[derive(Debug, Clone)]
struct Node {
    name: String,
    predicate: Vec<Feature>,
}

/// The causal DAG.
#[derive(Debug, Clone)]
pub struct CausalGraph {
    nodes: Vec<Node>,
    /// Each node's predicate as [`FeatureVector`] bits.
    masks: Vec<u64>,
    name_to_id: HashMap<String, NodeId>,
    children: Vec<Vec<NodeId>>,
    parents: Vec<Vec<NodeId>>,
}

/// Incremental builder for [`CausalGraph`].
#[derive(Debug, Clone, Default)]
pub(crate) struct GraphBuilder {
    nodes: Vec<Node>,
    name_to_id: HashMap<String, NodeId>,
    /// Edges in first-insertion order, which `CausalGraph::edges`, DSL
    /// emission and chain enumeration follow.
    edges: Vec<(NodeId, NodeId)>,
    /// The same edges as a set, so deduplication is O(1) per edge.
    edge_set: HashSet<(NodeId, NodeId)>,
}

impl GraphBuilder {
    /// Creates an empty builder.
    pub(crate) fn new() -> Self {
        Self::default()
    }

    /// Defines a named node with an explicit feature disjunction (an alias).
    pub(crate) fn define(
        &mut self,
        name: &str,
        features: Vec<Feature>,
    ) -> Result<NodeId, GraphError> {
        if let Some(&id) = self.name_to_id.get(name) {
            if !self.nodes[id].predicate.is_empty() {
                return Err(GraphError::DuplicateAlias(name.to_string()));
            }
            self.nodes[id].predicate = features;
            return Ok(id);
        }
        let id = self.nodes.len();
        self.nodes.push(Node {
            name: name.to_string(),
            predicate: features,
        });
        self.name_to_id.insert(name.to_string(), id);
        Ok(id)
    }

    /// Looks a node up by name, creating it implicitly if the name is a
    /// canonical feature name.
    pub(crate) fn node(&mut self, name: &str) -> Result<NodeId, GraphError> {
        if let Some(&id) = self.name_to_id.get(name) {
            return Ok(id);
        }
        match Feature::parse(name) {
            Some(f) => {
                let id = self.nodes.len();
                self.nodes.push(Node {
                    name: name.to_string(),
                    predicate: vec![f],
                });
                self.name_to_id.insert(name.to_string(), id);
                Ok(id)
            }
            None => Err(GraphError::UnknownNode(name.to_string())),
        }
    }

    /// Adds a directed edge `from → to` (idempotent).
    pub(crate) fn edge(&mut self, from: NodeId, to: NodeId) {
        if self.edge_set.insert((from, to)) {
            self.edges.push((from, to));
        }
    }

    /// Validates (DAG, non-empty predicates, at most 4 096 root→leaf
    /// chains) and produces the graph.
    pub(crate) fn build(self) -> Result<CausalGraph, GraphError> {
        for n in &self.nodes {
            if n.predicate.is_empty() {
                return Err(GraphError::EmptyPredicate(n.name.clone()));
            }
        }
        let n = self.nodes.len();
        let mut children = vec![Vec::new(); n];
        let mut parents = vec![Vec::new(); n];
        for &(a, b) in &self.edges {
            children[a].push(b);
            parents[b].push(a);
        }
        // Cycle check: Kahn's algorithm. Its order also counts chains
        // without enumerating them: `paths[u]`, the number of root→u paths,
        // is final once `u` is popped, since all of `u`'s parents were.
        let mut indeg: Vec<usize> = parents.iter().map(Vec::len).collect();
        let mut queue: Vec<NodeId> = (0..n).filter(|&i| indeg[i] == 0).collect();
        let mut paths: Vec<u64> = indeg.iter().map(|&d| u64::from(d == 0)).collect();
        let mut chains = 0u64;
        let mut seen = 0;
        while let Some(u) = queue.pop() {
            seen += 1;
            if children[u].is_empty() {
                chains = chains.saturating_add(paths[u]);
            }
            for &v in &children[u] {
                paths[v] = paths[v].saturating_add(paths[u]);
                indeg[v] -= 1;
                if indeg[v] == 0 {
                    queue.push(v);
                }
            }
        }
        if seen != n {
            let cyclic = (0..n).find(|&i| indeg[i] > 0).expect("cycle member exists");
            return Err(GraphError::Cycle(self.nodes[cyclic].name.clone()));
        }
        if chains > MAX_CHAINS {
            return Err(GraphError::TooManyChains {
                chains,
                limit: MAX_CHAINS,
            });
        }
        let masks = self
            .nodes
            .iter()
            .map(|n| n.predicate.iter().fold(0, |m, f| m | f.mask()))
            .collect();
        Ok(CausalGraph {
            masks,
            nodes: self.nodes,
            name_to_id: self.name_to_id,
            children,
            parents,
        })
    }
}

impl CausalGraph {
    /// Number of nodes.
    pub fn node_count(&self) -> usize {
        self.nodes.len()
    }

    /// Node name.
    pub fn name(&self, id: NodeId) -> &str {
        &self.nodes[id].name
    }

    /// Node id by name.
    pub fn id(&self, name: &str) -> Option<NodeId> {
        self.name_to_id.get(name).copied()
    }

    /// The node's feature disjunction.
    pub fn predicate(&self, id: NodeId) -> &[Feature] {
        &self.nodes[id].predicate
    }

    /// Direct causes of `id`.
    pub fn parents(&self, id: NodeId) -> &[NodeId] {
        &self.parents[id]
    }

    /// Direct effects of `id`.
    pub fn children(&self, id: NodeId) -> &[NodeId] {
        &self.children[id]
    }

    /// All edges.
    pub fn edges(&self) -> Vec<(NodeId, NodeId)> {
        let mut v = Vec::new();
        for (a, ch) in self.children.iter().enumerate() {
            for &b in ch {
                v.push((a, b));
            }
        }
        v
    }

    /// Root causes: nodes with no parents.
    pub fn roots(&self) -> Vec<NodeId> {
        (0..self.nodes.len())
            .filter(|&i| self.parents[i].is_empty())
            .collect()
    }

    /// Consequences: nodes with no children.
    pub fn leaves(&self) -> Vec<NodeId> {
        (0..self.nodes.len())
            .filter(|&i| self.children[i].is_empty())
            .collect()
    }

    /// The node's predicate as [`FeatureVector`] bits.
    pub(crate) fn mask(&self, id: NodeId) -> u64 {
        self.masks[id]
    }

    /// Whether the node's predicate holds under a feature vector.
    pub fn is_active(&self, id: NodeId, fv: &FeatureVector) -> bool {
        fv.any(self.masks[id])
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::features::{AppEvent, ClientSide};

    fn diamond() -> CausalGraph {
        // a → m → c1 ; a → m → c2 ; b → m → c1/c2
        let mut g = GraphBuilder::new();
        let a = g.node("ul_harq_retx").unwrap();
        let b = g.node("dl_harq_retx").unwrap();
        let m = g.node("forward_delay_up").unwrap();
        let c1 = g.node("local_jitter_buffer_drain").unwrap();
        let c2 = g.node("local_target_bitrate_down").unwrap();
        g.edge(a, m);
        g.edge(b, m);
        g.edge(m, c1);
        g.edge(m, c2);
        g.build().unwrap()
    }

    #[test]
    fn roots_leaves_chains() {
        let g = diamond();
        assert_eq!(g.roots().len(), 2);
        assert_eq!(g.leaves().len(), 2);
        let program = crate::codegen::compile(&g);
        assert_eq!(program.chains().len(), 4);
        for c in program.chains() {
            assert_eq!(c.len(), 3);
        }
    }

    #[test]
    fn cycle_detection() {
        let mut g = GraphBuilder::new();
        let a = g.node("forward_delay_up").unwrap();
        let b = g.node("reverse_delay_up").unwrap();
        g.edge(a, b);
        g.edge(b, a);
        assert!(matches!(g.build(), Err(GraphError::Cycle(_))));
    }

    #[test]
    fn unknown_node_rejected() {
        let mut g = GraphBuilder::new();
        assert!(matches!(
            g.node("not_a_feature"),
            Err(GraphError::UnknownNode(_))
        ));
    }

    #[test]
    fn alias_predicate_is_disjunction() {
        let mut g = GraphBuilder::new();
        let jb = g
            .define(
                "jitter_buffer_drain",
                vec![
                    Feature::App(ClientSide::Local, AppEvent::JitterBufferDrain),
                    Feature::App(ClientSide::Remote, AppEvent::JitterBufferDrain),
                ],
            )
            .unwrap();
        let m = g.node("forward_delay_up").unwrap();
        g.edge(m, jb);
        let g = g.build().unwrap();
        let mut fv = FeatureVector::new();
        assert!(!g.is_active(jb, &fv));
        fv.set(
            Feature::App(ClientSide::Remote, AppEvent::JitterBufferDrain),
            true,
        );
        assert!(g.is_active(jb, &fv));
    }

    #[test]
    fn duplicate_alias_rejected() {
        let mut g = GraphBuilder::new();
        g.define("x", vec![Feature::parse("forward_delay_up").unwrap()])
            .unwrap();
        assert!(matches!(
            g.define("x", vec![Feature::parse("reverse_delay_up").unwrap()]),
            Err(GraphError::DuplicateAlias(_))
        ));
    }
}
