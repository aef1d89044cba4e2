//! Wire-path extraction.
//!
//! A *wire path* (paper Definition 1) runs from the net's source to one
//! target sink. On tree nets the path is unique; on non-tree nets the paper
//! defines it as the resistance-weighted shortest path (§II-B), with the
//! remaining nodes and edges regarded as branches.

use crate::{EdgeId, NodeId, Ohms, RcNet};

/// One source → sink timing path through the RC network.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WirePath {
    /// The target sink.
    pub sink: NodeId,
    /// Visited nodes, ordered source → sink (source and sink included).
    pub nodes: Vec<NodeId>,
    /// Traversed edges, ordered source-side first; `edges.len() == nodes.len() - 1`.
    pub edges: Vec<EdgeId>,
}

impl WirePath {
    /// Number of nodes on the path.
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// Whether the path is degenerate (source == sink; cannot happen on a
    /// validated net, kept for API completeness).
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// Total resistance along the path.
    pub fn total_res(&self, net: &RcNet) -> Ohms {
        self.edges.iter().map(|&e| net.edge(e).res).sum()
    }

    /// Whether `node` lies on the path.
    pub fn contains(&self, node: NodeId) -> bool {
        self.nodes.contains(&node)
    }
}

/// Extracts the wire path for every sink of the net, in sink order, from
/// the shortest-path tree [`RcNet::shortest_path_parents`] keeps.
pub(crate) fn extract_paths(net: &RcNet) -> Vec<WirePath> {
    net.sinks()
        .iter()
        .map(|&sink| {
            let (nodes, edges) = crate::topology::trace(net.shortest_path_parents(), sink);
            WirePath { sink, nodes, edges }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Farads, RcNetBuilder};

    #[test]
    fn tree_paths_are_unique_traversals() {
        let mut b = RcNetBuilder::new("t");
        let s = b.source("s", Farads(1e-15));
        let m = b.internal("m", Farads(1e-15));
        let k1 = b.sink("k1", Farads(1e-15));
        let k2 = b.sink("k2", Farads(1e-15));
        b.resistor(s, m, Ohms(5.0));
        b.resistor(m, k1, Ohms(7.0));
        b.resistor(m, k2, Ohms(9.0));
        let net = b.build().unwrap();

        let paths = net.paths();
        assert_eq!(paths.len(), 2);
        assert_eq!(paths[0].nodes, vec![s, m, k1]);
        assert_eq!(paths[1].nodes, vec![s, m, k2]);
        assert_eq!(paths[0].total_res(&net), Ohms(12.0));
        assert_eq!(paths[1].total_res(&net), Ohms(14.0));
        assert_eq!(paths[0].edges.len(), paths[0].nodes.len() - 1);
    }

    #[test]
    fn nontree_path_takes_shortest_branch() {
        let mut b = RcNetBuilder::new("d");
        let s = b.source("s", Farads(1e-15));
        let a = b.internal("a", Farads(1e-15));
        let c = b.internal("c", Farads(1e-15));
        let k = b.sink("k", Farads(1e-15));
        b.resistor(s, a, Ohms(100.0));
        b.resistor(a, k, Ohms(100.0));
        b.resistor(s, c, Ohms(1.0));
        b.resistor(c, k, Ohms(1.0));
        let net = b.build().unwrap();

        let p = &net.paths()[0];
        assert_eq!(p.sink, k);
        assert_eq!(p.nodes, vec![s, c, k]);
        assert_eq!(p.total_res(&net), Ohms(2.0));
        assert!(p.contains(c));
        assert!(!p.contains(a));
    }

    #[test]
    fn path_starts_at_source_ends_at_sink() {
        let mut b = RcNetBuilder::new("x");
        let s = b.source("s", Farads(1e-15));
        let k = b.sink("k", Farads(1e-15));
        b.resistor(s, k, Ohms(3.0));
        let net = b.build().unwrap();
        let p = &net.paths()[0];
        assert_eq!(p.nodes.first(), Some(&s));
        assert_eq!(p.nodes.last(), Some(&k));
        assert_eq!(p.len(), 2);
        assert!(!p.is_empty());
    }
}
