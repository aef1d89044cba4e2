//! Topology queries on an [`RcNet`]: shortest paths and source-rooted
//! tree orientations.

use crate::{EdgeId, NodeId, Ohms, RcNet};
use std::collections::BinaryHeap;

/// Result of a single-source shortest-path run (weights = resistance).
#[derive(Debug, Clone)]
pub struct ShortestPaths {
    /// Total path resistance from the source to each node.
    pub dist: Vec<Ohms>,
    /// For each node, the `(parent, edge)` on its shortest path;
    /// `None` for the source.
    pub parent: Vec<Option<(NodeId, EdgeId)>>,
}

impl ShortestPaths {
    /// Reconstructs the node/edge sequence from the source to `target`.
    /// Nodes are ordered source → target.
    pub fn path_to(&self, target: NodeId) -> (Vec<NodeId>, Vec<EdgeId>) {
        trace(&self.parent, target)
    }
}

/// The tree path from the root to `target` along `parent` links, as
/// `(nodes, edges)` with nodes ordered root → target.
pub(crate) fn trace(
    parent: &[Option<(NodeId, EdgeId)>],
    target: NodeId,
) -> (Vec<NodeId>, Vec<EdgeId>) {
    let mut len = 0;
    let mut cur = target;
    while let Some((p, _)) = parent[cur.index()] {
        len += 1;
        cur = p;
    }
    let mut nodes = vec![target; len + 1];
    let mut edges = vec![EdgeId(0); len];
    let mut cur = target;
    for k in (0..len).rev() {
        if let Some((p, e)) = parent[cur.index()] {
            (nodes[k], edges[k]) = (p, e);
            cur = p;
        }
    }
    (nodes, edges)
}

/// Dijkstra from the net source with resistance edge weights.
///
/// Defines wire paths on non-tree nets ("the wire path is the shortest
/// path from the source to the target sink", paper §II-B).
/// [`crate::RcNetBuilder::build`] runs it once per non-tree net and keeps
/// the parents and distances as [`RcNet::shortest_path_parents`] and
/// [`RcNet::shortest_path_distances`].
pub fn shortest_paths(net: &RcNet) -> ShortestPaths {
    let n = net.node_count();
    let mut dist = vec![Ohms(f64::INFINITY); n];
    let mut parent: Vec<Option<(NodeId, EdgeId)>> = vec![None; n];
    let mut done = vec![false; n];
    dist[net.source().index()] = Ohms(0.0);

    // Max-heap on reversed order => min-heap on distance.
    #[derive(PartialEq)]
    struct Entry(f64, NodeId);
    impl Eq for Entry {}
    impl PartialOrd for Entry {
        fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
            Some(self.cmp(other))
        }
    }
    impl Ord for Entry {
        fn cmp(&self, other: &Self) -> std::cmp::Ordering {
            other
                .0
                .partial_cmp(&self.0)
                .unwrap_or(std::cmp::Ordering::Equal)
                .then_with(|| other.1.cmp(&self.1))
        }
    }

    let mut heap = BinaryHeap::new();
    heap.push(Entry(0.0, net.source()));
    while let Some(Entry(d, u)) = heap.pop() {
        if done[u.index()] {
            continue;
        }
        done[u.index()] = true;
        for &(v, e) in net.neighbors(u) {
            let nd = d + net.edge(e).res.value();
            if nd < dist[v.index()].value() {
                dist[v.index()] = Ohms(nd);
                parent[v.index()] = Some((u, e));
                heap.push(Entry(nd, v));
            }
        }
    }
    ShortestPaths { dist, parent }
}

/// A tree orientation of the net rooted at the source.
///
/// On a tree net this covers every edge. On a non-tree net it is a
/// spanning tree, and each of the [`RcNet::loop_count`] edges it leaves
/// out closes one independent loop.
#[derive(Debug, Clone)]
pub struct Orientation {
    /// `(parent, connecting edge)` per node; `None` for the source.
    pub parent: Vec<Option<(NodeId, EdgeId)>>,
    /// Nodes in topological (parent-before-child) order; starts at the source.
    pub order: Vec<NodeId>,
}

impl Orientation {
    /// Reconstructs the tree path from the root to `target` as
    /// `(nodes, edges)`, nodes ordered root → target.
    pub fn path_to(&self, target: NodeId) -> (Vec<NodeId>, Vec<EdgeId>) {
        trace(&self.parent, target)
    }
}

/// Parent-before-child order of the tree that `links` (`(parent, child)`
/// pairs) describe: breadth first from `root`, each node's children in
/// the order `links` lists them.
fn bfs_order(
    n: usize,
    root: NodeId,
    links: impl Iterator<Item = (NodeId, NodeId)> + Clone,
) -> Vec<NodeId> {
    let (start, children) = crate::net::csr(n, links.map(|(p, c)| (p.index(), c)));
    let mut order = Vec::with_capacity(n);
    order.push(root);
    let mut next = 0;
    while let Some(&u) = order.get(next) {
        next += 1;
        let (lo, hi) = (start[u.index()] as usize, start[u.index() + 1] as usize);
        order.extend_from_slice(&children[lo..hi]);
    }
    order
}

/// Orients the net as a depth-first spanning tree rooted at the source —
/// a crude loop-breaking that keeps whichever edge is discovered first,
/// as naive non-tree-to-tree conversions do.
pub fn orient_dfs(net: &RcNet) -> Orientation {
    let n = net.node_count();
    let mut parent: Vec<Option<(NodeId, EdgeId)>> = vec![None; n];
    let mut links = Vec::with_capacity(n.saturating_sub(1));
    let mut seen = vec![false; n];
    let mut stack = vec![net.source()];
    seen[net.source().index()] = true;
    while let Some(u) = stack.pop() {
        for &(v, e) in net.neighbors(u) {
            if !seen[v.index()] {
                seen[v.index()] = true;
                parent[v.index()] = Some((u, e));
                links.push((u, v));
                stack.push(v);
            }
        }
    }
    // DFS discovery order is not parent-before-child when revisiting the
    // stack; the order is a BFS over the tree children, in discovery order.
    let order = bfs_order(n, net.source(), links.into_iter());
    Orientation { parent, order }
}

/// Orients the net as its shortest-path tree rooted at the source: the
/// tree [`RcNet::shortest_path_parents`] keeps, with each node's children
/// in node order.
pub fn orient(net: &RcNet) -> Orientation {
    let parent = net.shortest_path_parents().to_vec();
    let links = parent
        .iter()
        .enumerate()
        .filter_map(|(i, p)| p.map(|(q, _)| (q, NodeId(i as u32))));
    let order = bfs_order(net.node_count(), net.source(), links);
    Orientation { parent, order }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Farads, RcNetBuilder};

    fn diamond() -> RcNet {
        // s - a - k and s - b - k: one loop.
        let mut b = RcNetBuilder::new("d");
        let s = b.source("s", Farads(1e-15));
        let a = b.internal("a", Farads(1e-15));
        let bb = b.internal("b", Farads(1e-15));
        let k = b.sink("k", Farads(1e-15));
        b.resistor(s, a, Ohms(10.0));
        b.resistor(a, k, Ohms(10.0));
        b.resistor(s, bb, Ohms(1.0));
        b.resistor(bb, k, Ohms(1.0));
        b.build().unwrap()
    }

    #[test]
    fn dijkstra_prefers_low_resistance_branch() {
        let net = diamond();
        let sp = shortest_paths(&net);
        let k = net.node_by_name("k").unwrap();
        assert!((sp.dist[k.index()].value() - 2.0).abs() < 1e-12);
        let (nodes, edges) = sp.path_to(k);
        assert_eq!(nodes.len(), 3);
        assert_eq!(edges.len(), 2);
        let b = net.node_by_name("b").unwrap();
        assert_eq!(nodes[1], b);
    }

    /// Edges no parent link uses: the loop-closing chords.
    fn chords(net: &RcNet, o: &Orientation) -> usize {
        let mut in_tree = vec![false; net.edge_count()];
        for &(_, e) in o.parent.iter().flatten() {
            in_tree[e.index()] = true;
        }
        in_tree.iter().filter(|&&t| !t).count()
    }

    #[test]
    fn orientation_of_tree_has_no_chords() {
        let mut b = RcNetBuilder::new("t");
        let s = b.source("s", Farads(1e-15));
        let m = b.internal("m", Farads(1e-15));
        let k = b.sink("k", Farads(1e-15));
        b.resistor(s, m, Ohms(1.0));
        b.resistor(m, k, Ohms(1.0));
        let net = b.build().unwrap();
        let o = orient(&net);
        assert_eq!(chords(&net, &o), 0);
        assert_eq!(o.order[0], net.source());
        assert_eq!(o.order.len(), 3);
    }

    #[test]
    fn orientation_of_diamond_has_one_chord() {
        let net = diamond();
        let o = orient(&net);
        assert_eq!(chords(&net, &o), net.loop_count());
        assert_eq!(net.loop_count(), 1);
        // Every non-source node has a parent.
        for (i, p) in o.parent.iter().enumerate() {
            if NodeId(i as u32) == net.source() {
                assert!(p.is_none());
            } else {
                assert!(p.is_some());
            }
        }
    }

    #[test]
    fn dfs_orientation_spans_and_may_differ_from_shortest() {
        let net = diamond();
        let o = orient_dfs(&net);
        assert_eq!(chords(&net, &o), net.loop_count());
        assert_eq!(o.order.len(), 4);
        assert_eq!(o.order[0], net.source());
        // Every non-source node has a parent; the spanning tree covers all.
        for (i, p) in o.parent.iter().enumerate() {
            assert_eq!(p.is_none(), NodeId(i as u32) == net.source());
        }
        // Tree path reconstruction reaches the sink through tree edges only.
        let k = net.node_by_name("k").unwrap();
        let (nodes, edges) = o.path_to(k);
        assert_eq!(nodes.first(), Some(&net.source()));
        assert_eq!(nodes.last(), Some(&k));
        assert_eq!(edges.len(), nodes.len() - 1);
    }

    #[test]
    fn dfs_orientation_on_tree_matches_structure() {
        let mut b = RcNetBuilder::new("t");
        let s = b.source("s", Farads(1e-15));
        let m = b.internal("m", Farads(1e-15));
        let k = b.sink("k", Farads(1e-15));
        b.resistor(s, m, Ohms(1.0));
        b.resistor(m, k, Ohms(1.0));
        let net = b.build().unwrap();
        let o = orient_dfs(&net);
        assert_eq!(chords(&net, &o), 0);
        let (nodes, _) = o.path_to(k);
        assert_eq!(nodes, vec![s, m, k]);
    }

    #[test]
    fn shortest_path_to_source_is_empty() {
        let net = diamond();
        let sp = shortest_paths(&net);
        let (nodes, edges) = sp.path_to(net.source());
        assert_eq!(nodes, vec![net.source()]);
        assert!(edges.is_empty());
    }

    #[test]
    fn orders_visit_children_in_node_or_discovery_order() {
        // The source's edges run to k, a, c in that order; the nodes were
        // added c, a, k.
        let mut b = RcNetBuilder::new("o");
        let s = b.source("s", Farads(1e-15));
        let c = b.internal("c", Farads(1e-15));
        let a = b.internal("a", Farads(1e-15));
        let k = b.sink("k", Farads(1e-15));
        b.resistor(s, k, Ohms(1.0));
        b.resistor(s, a, Ohms(1.0));
        b.resistor(s, c, Ohms(1.0));
        let net = b.build().unwrap();
        assert_eq!(orient(&net).order, vec![s, c, a, k]);
        assert_eq!(orient_dfs(&net).order, vec![s, k, a, c]);
    }
}
