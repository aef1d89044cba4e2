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
        let mut nodes = vec![target];
        let mut edges = Vec::new();
        let mut cur = target;
        while let Some((p, e)) = self.parent[cur.index()] {
            nodes.push(p);
            edges.push(e);
            cur = p;
        }
        nodes.reverse();
        edges.reverse();
        (nodes, edges)
    }
}

/// Dijkstra from the net source with resistance edge weights.
///
/// Used to define wire paths on non-tree nets ("the wire path is the
/// shortest path from the source to the target sink", paper §II-B).
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
/// On a tree net this covers every edge. On a non-tree net it is the
/// shortest-path tree; the remaining edges are returned as `chords`
/// (each chord closes one independent loop).
#[derive(Debug, Clone)]
pub struct Orientation {
    /// `(parent, connecting edge)` per node; `None` for the source.
    pub parent: Vec<Option<(NodeId, EdgeId)>>,
    /// Children per node, in discovery order.
    pub children: Vec<Vec<(NodeId, EdgeId)>>,
    /// Nodes in topological (parent-before-child) order; starts at the source.
    pub order: Vec<NodeId>,
    /// Edges not in the tree (loop-closing chords).
    pub chords: Vec<EdgeId>,
}

impl Orientation {
    /// Reconstructs the tree path from the root to `target` as
    /// `(nodes, edges)`, nodes ordered root → target.
    pub fn path_to(&self, target: NodeId) -> (Vec<NodeId>, Vec<EdgeId>) {
        let mut nodes = vec![target];
        let mut edges = Vec::new();
        let mut cur = target;
        while let Some((p, e)) = self.parent[cur.index()] {
            nodes.push(p);
            edges.push(e);
            cur = p;
        }
        nodes.reverse();
        edges.reverse();
        (nodes, edges)
    }
}

/// Orients the net as a depth-first spanning tree rooted at the source —
/// a crude loop-breaking that keeps whichever edge is discovered first,
/// as naive non-tree-to-tree conversions do.
pub fn orient_dfs(net: &RcNet) -> Orientation {
    let n = net.node_count();
    let mut parent: Vec<Option<(NodeId, EdgeId)>> = vec![None; n];
    let mut children: Vec<Vec<(NodeId, EdgeId)>> = vec![Vec::new(); n];
    let mut tree_edge = vec![false; net.edge_count()];
    let mut seen = vec![false; n];
    let mut order = Vec::with_capacity(n);
    let mut stack = vec![net.source()];
    seen[net.source().index()] = true;
    while let Some(u) = stack.pop() {
        order.push(u);
        for &(v, e) in net.neighbors(u) {
            if !seen[v.index()] {
                seen[v.index()] = true;
                parent[v.index()] = Some((u, e));
                children[u.index()].push((v, e));
                tree_edge[e.index()] = true;
                stack.push(v);
            }
        }
    }
    // DFS discovery order is not parent-before-child when revisiting the
    // stack; rebuild a BFS order over the tree children.
    let mut topo = Vec::with_capacity(n);
    let mut queue = std::collections::VecDeque::new();
    queue.push_back(net.source());
    while let Some(u) = queue.pop_front() {
        topo.push(u);
        for &(v, _) in &children[u.index()] {
            queue.push_back(v);
        }
    }
    let chords = (0..net.edge_count())
        .filter(|&i| !tree_edge[i])
        .map(|i| EdgeId(i as u32))
        .collect();
    Orientation {
        parent,
        children,
        order: topo,
        chords,
    }
}

/// Orients the net as a shortest-path tree rooted at the source.
pub fn orient(net: &RcNet) -> Orientation {
    let sp = shortest_paths(net);
    let n = net.node_count();
    let mut children: Vec<Vec<(NodeId, EdgeId)>> = vec![Vec::new(); n];
    let mut tree_edge = vec![false; net.edge_count()];
    for (i, p) in sp.parent.iter().enumerate() {
        if let Some((parent, e)) = p {
            children[parent.index()].push((NodeId(i as u32), *e));
            tree_edge[e.index()] = true;
        }
    }
    // Parent-before-child order via BFS over tree children.
    let mut order = Vec::with_capacity(n);
    let mut queue = std::collections::VecDeque::new();
    queue.push_back(net.source());
    while let Some(u) = queue.pop_front() {
        order.push(u);
        for &(v, _) in &children[u.index()] {
            queue.push_back(v);
        }
    }
    let chords = (0..net.edge_count())
        .filter(|&i| !tree_edge[i])
        .map(|i| EdgeId(i as u32))
        .collect();
    Orientation {
        parent: sp.parent,
        children,
        order,
        chords,
    }
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
        assert!(o.chords.is_empty());
        assert_eq!(o.order[0], net.source());
        assert_eq!(o.order.len(), 3);
    }

    #[test]
    fn orientation_of_diamond_has_one_chord() {
        let net = diamond();
        let o = orient(&net);
        assert_eq!(o.chords.len(), 1);
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
        assert_eq!(o.chords.len(), 1);
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
        assert!(o.chords.is_empty());
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
}
