//! The RC network itself: nodes (capacitances), edges (resistances),
//! coupling capacitors, and the validating builder.

use crate::{Farads, Ohms, RcNetError, WirePath};
use std::collections::hash_map::RandomState;
use std::fmt;
use std::hash::BuildHasher;

/// Identifier of a node (capacitance) within one [`RcNet`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct NodeId(pub(crate) u32);

impl NodeId {
    /// Index into [`RcNet::nodes`].
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for NodeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "n{}", self.0)
    }
}

/// Identifier of an edge (resistance) within one [`RcNet`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct EdgeId(pub(crate) u32);

impl EdgeId {
    /// Index into [`RcNet::edges`].
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for EdgeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "e{}", self.0)
    }
}

/// Role of a node on the net.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum NodeKind {
    /// The unique driver pin of the net.
    Source,
    /// A load pin; every sink terminates one wire path.
    Sink,
    /// A parasitic-only internal node.
    Internal,
}

/// A node of the RC graph: a named circuit node with its ground capacitance.
#[derive(Debug, Clone, PartialEq)]
pub struct RcNode {
    /// Circuit node name (e.g. `U12:A` or `net5:3`).
    pub name: String,
    /// Role on the net.
    pub kind: NodeKind,
    /// Capacitance to ground.
    pub cap: Farads,
}

/// An edge of the RC graph: a resistance between two nodes.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RcEdge {
    /// One endpoint.
    pub a: NodeId,
    /// Other endpoint.
    pub b: NodeId,
    /// Resistance value.
    pub res: Ohms,
}

impl RcEdge {
    /// The endpoint opposite to `n`, or `None` when `n` is not an endpoint.
    pub fn other(&self, n: NodeId) -> Option<NodeId> {
        if self.a == n {
            Some(self.b)
        } else if self.b == n {
            Some(self.a)
        } else {
            None
        }
    }
}

/// A coupling capacitor from a net node to a node of another (aggressor) net.
#[derive(Debug, Clone, PartialEq)]
pub struct CouplingCap {
    /// Victim-side node.
    pub node: NodeId,
    /// Name of the aggressor-net node on the far side.
    pub aggressor: String,
    /// Coupling capacitance.
    pub cap: Farads,
}

/// A validated parasitic RC network with one driver and one or more sinks.
///
/// Construct via [`RcNetBuilder`] or [`crate::spef::parse`]. The structure is
/// immutable after `build`, so derived data (adjacency, the shortest-path
/// tree and distances, wire paths) is computed once and shared.
#[derive(Debug, Clone, PartialEq)]
pub struct RcNet {
    name: String,
    nodes: Vec<RcNode>,
    edges: Vec<RcEdge>,
    couplings: Vec<CouplingCap>,
    source: NodeId,
    sinks: Vec<NodeId>,
    /// CSR adjacency: node `i`'s `(neighbor, edge)` pairs are
    /// `adjacency[adj_start[i]..adj_start[i + 1]]`, in edge order.
    adj_start: Vec<u32>,
    adjacency: Vec<(NodeId, EdgeId)>,
    /// `(parent, edge)` per node on its wire path; `None` for the source.
    parents: Vec<Option<(NodeId, EdgeId)>>,
    /// Resistance of each node's wire path from the source.
    dist: Vec<Ohms>,
    paths: Vec<WirePath>,
}

impl RcNet {
    /// Net name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// All nodes, indexable by [`NodeId::index`].
    pub fn nodes(&self) -> &[RcNode] {
        &self.nodes
    }

    /// All resistive edges, indexable by [`EdgeId::index`].
    pub fn edges(&self) -> &[RcEdge] {
        &self.edges
    }

    /// All coupling capacitors to other nets.
    pub fn couplings(&self) -> &[CouplingCap] {
        &self.couplings
    }

    /// The driver node.
    pub fn source(&self) -> NodeId {
        self.source
    }

    /// The sink nodes, in insertion order.
    pub fn sinks(&self) -> &[NodeId] {
        &self.sinks
    }

    /// Number of nodes.
    pub fn node_count(&self) -> usize {
        self.nodes.len()
    }

    /// Number of resistive edges.
    pub fn edge_count(&self) -> usize {
        self.edges.len()
    }

    /// One node by id.
    pub fn node(&self, id: NodeId) -> &RcNode {
        &self.nodes[id.index()]
    }

    /// One edge by id.
    pub fn edge(&self, id: EdgeId) -> &RcEdge {
        &self.edges[id.index()]
    }

    /// Neighbors of `n` as `(neighbor, edge)` pairs, in edge order.
    pub fn neighbors(&self, n: NodeId) -> &[(NodeId, EdgeId)] {
        let i = n.index();
        &self.adjacency[self.adj_start[i] as usize..self.adj_start[i + 1] as usize]
    }

    /// Degree (number of incident resistors) of `n`.
    pub fn degree(&self, n: NodeId) -> usize {
        self.neighbors(n).len()
    }

    /// The wire paths from the source to every sink (paper Definition 1),
    /// in sink order. Extracted once at build time; on non-tree nets each
    /// path is the resistance-weighted shortest path.
    pub fn paths(&self) -> &[WirePath] {
        &self.paths
    }

    /// The shortest-path tree the wire paths follow: each node's
    /// `(parent, edge)` on its resistance-weighted shortest path from the
    /// source, as [`crate::topology::shortest_paths`] finds it; `None`
    /// for the source. On a tree net this is the net itself.
    pub fn shortest_path_parents(&self) -> &[Option<(NodeId, EdgeId)>] {
        &self.parents
    }

    /// Each node's resistance-weighted distance from the source, bit for
    /// bit what [`crate::topology::shortest_paths`] returns as `dist`:
    /// infinite where the sum overflows.
    pub fn shortest_path_distances(&self) -> &[Ohms] {
        &self.dist
    }

    /// Whether the net is a tree (no resistive loops).
    pub fn is_tree(&self) -> bool {
        self.edges.len() + 1 == self.nodes.len()
    }

    /// Number of independent resistive loops (`|E| - |V| + 1`).
    pub fn loop_count(&self) -> usize {
        self.edges.len() + 1 - self.nodes.len()
    }

    /// Sum of all ground capacitances.
    pub fn total_cap(&self) -> Farads {
        self.nodes.iter().map(|n| n.cap).sum()
    }

    /// Sum of all coupling capacitances.
    pub fn total_coupling_cap(&self) -> Farads {
        self.couplings.iter().map(|c| c.cap).sum()
    }

    /// Sum of all resistances.
    pub fn total_res(&self) -> Ohms {
        self.edges.iter().map(|e| e.res).sum()
    }

    /// Finds a node id by name.
    pub fn node_by_name(&self, name: &str) -> Option<NodeId> {
        self.nodes
            .iter()
            .position(|n| n.name == name)
            .map(|i| NodeId(i as u32))
    }

    /// Iterates over `(NodeId, &RcNode)` pairs.
    pub fn iter_nodes(&self) -> impl Iterator<Item = (NodeId, &RcNode)> {
        self.nodes
            .iter()
            .enumerate()
            .map(|(i, n)| (NodeId(i as u32), n))
    }

    /// Iterates over `(EdgeId, &RcEdge)` pairs.
    pub fn iter_edges(&self) -> impl Iterator<Item = (EdgeId, &RcEdge)> {
        self.edges
            .iter()
            .enumerate()
            .map(|(i, e)| (EdgeId(i as u32), e))
    }
}

/// Builder assembling and validating an [`RcNet`].
///
/// # Examples
///
/// ```
/// use rcnet::{Farads, Ohms, RcNetBuilder};
///
/// # fn main() -> Result<(), rcnet::RcNetError> {
/// let mut b = RcNetBuilder::new("clk_leaf");
/// let s = b.source("BUF3:Z", Farads(0.8e-15));
/// let t = b.sink("FF7:CK", Farads(1.2e-15));
/// b.resistor(s, t, Ohms(42.0));
/// let net = b.build()?;
/// assert_eq!(net.node_count(), 2);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, Default)]
pub struct RcNetBuilder {
    name: String,
    nodes: Vec<RcNode>,
    edges: Vec<RcEdge>,
    couplings: Vec<CouplingCap>,
    names: NameIndex,
}

/// Marks a free slot of a [`NameIndex`].
const FREE: u32 = u32::MAX;

/// The builder's node-name index: an open-addressing table of node ids
/// that compares names against the builder's own nodes, so it stores no
/// string. A name is hashed once per lookup, with std's `RandomState`:
/// names come from untrusted SPEF, and its per-process keyed SipHash
/// keeps a client from choosing names that collide.
#[derive(Debug, Clone, Default)]
struct NameIndex {
    state: RandomState,
    /// Node id per slot or [`FREE`]; the length is 0 or a power of two,
    /// at least twice the node count.
    slots: Vec<u32>,
    /// Name hash per node id, so growing rehashes no name.
    hashes: Vec<u64>,
}

impl NameIndex {
    /// The node called `name`, or the name's hash and the free slot to
    /// [`NameIndex::insert`] it at.
    fn find(&self, name: &str, nodes: &[RcNode]) -> Result<NodeId, (u64, usize)> {
        let hash = self.state.hash_one(name);
        if self.slots.is_empty() {
            return Err((hash, 0));
        }
        let mask = self.slots.len() - 1;
        let mut slot = hash as usize & mask;
        loop {
            match self.slots[slot] {
                FREE => return Err((hash, slot)),
                id if self.hashes[id as usize] == hash && nodes[id as usize].name == name => {
                    return Ok(NodeId(id))
                }
                _ => slot = (slot + 1) & mask,
            }
        }
    }

    /// Records the next node id at the slot a failed [`NameIndex::find`]
    /// returned.
    fn insert(&mut self, (hash, slot): (u64, usize)) {
        let id = self.hashes.len() as u32;
        self.hashes.push(hash);
        if self.hashes.len() * 2 <= self.slots.len() {
            self.slots[slot] = id;
            return;
        }
        let len = (self.slots.len() * 2).max(64);
        self.hashes.reserve(len / 2 - self.hashes.len());
        self.slots.clear();
        self.slots.resize(len, FREE);
        for (id, &hash) in self.hashes.iter().enumerate() {
            let mut slot = hash as usize & (len - 1);
            while self.slots[slot] != FREE {
                slot = (slot + 1) & (len - 1);
            }
            self.slots[slot] = id as u32;
        }
    }
}

/// Groups `(row, value)` pairs by row in CSR form: row `r`'s values are
/// `values[start[r]..start[r + 1]]`, in the order the pairs come.
pub(crate) fn csr<T: Copy>(
    rows: usize,
    pairs: impl Iterator<Item = (usize, T)> + Clone,
) -> (Vec<u32>, Vec<T>) {
    let mut start = vec![0u32; rows + 1];
    for (r, _) in pairs.clone() {
        start[r + 1] += 1;
    }
    for r in 0..rows {
        start[r + 1] += start[r];
    }
    let Some((_, first)) = pairs.clone().next() else {
        return (start, Vec::new());
    };
    let mut values = vec![first; start[rows] as usize];
    // `start[r]` is row r's fill cursor, which ends at row r + 1's start.
    for (r, v) in pairs {
        values[start[r] as usize] = v;
        start[r] += 1;
    }
    start.copy_within(0..rows, 1);
    start[0] = 0;
    (start, values)
}

impl RcNetBuilder {
    /// Starts a new builder for a net called `name`.
    pub fn new(name: impl Into<String>) -> Self {
        RcNetBuilder {
            name: name.into(),
            ..Default::default()
        }
    }

    /// The node called `name`, added with `kind` and `cap` when new; the
    /// name is hashed once and turned into a `String` only for a new node.
    fn add_node<N: AsRef<str> + Into<String>>(
        &mut self,
        name: N,
        kind: NodeKind,
        cap: Farads,
    ) -> NodeId {
        match self.names.find(name.as_ref(), &self.nodes) {
            Ok(id) => {
                // Re-declaring an existing node refreshes its role/cap; SPEF
                // emits *CONN before *CAP so this upgrade path is required.
                let node = &mut self.nodes[id.index()];
                if kind != NodeKind::Internal {
                    node.kind = kind;
                }
                if cap.value() != 0.0 {
                    node.cap = cap;
                }
                id
            }
            Err(free) => {
                let id = NodeId(self.nodes.len() as u32);
                self.nodes.push(RcNode {
                    name: name.into(),
                    kind,
                    cap,
                });
                self.names.insert(free);
                id
            }
        }
    }

    /// Adds (or re-labels) the driver node.
    pub fn source(&mut self, name: impl Into<String>, cap: Farads) -> NodeId {
        self.add_node(name.into(), NodeKind::Source, cap)
    }

    /// Adds (or re-labels) a sink node.
    pub fn sink(&mut self, name: impl Into<String>, cap: Farads) -> NodeId {
        self.add_node(name.into(), NodeKind::Sink, cap)
    }

    /// Adds an internal parasitic node.
    pub fn internal(&mut self, name: impl Into<String>, cap: Farads) -> NodeId {
        self.add_node(name.into(), NodeKind::Internal, cap)
    }

    /// The node called `name`, added as an internal node with zero
    /// capacitance when the builder has not seen the name. `name` is
    /// hashed once and copied only for a new node, so the SPEF parser can
    /// pass the tokens it borrows from its input.
    pub(crate) fn node_or_insert(&mut self, name: &str) -> NodeId {
        self.add_node(name, NodeKind::Internal, Farads(0.0))
    }

    /// Looks up an already-added node by name.
    pub fn node_by_name(&self, name: &str) -> Option<NodeId> {
        self.names.find(name, &self.nodes).ok()
    }

    /// Sets the ground capacitance of an existing node.
    pub fn set_cap(&mut self, node: NodeId, cap: Farads) {
        self.nodes[node.index()].cap = cap;
    }

    /// Promotes an existing node to a sink, adding `pin_cap` to its
    /// ground capacitance (the load pin's input capacitance).
    pub fn promote_to_sink(&mut self, node: NodeId, pin_cap: Farads) {
        let n = &mut self.nodes[node.index()];
        n.kind = NodeKind::Sink;
        n.cap += pin_cap;
    }

    /// Adds a resistor between two nodes.
    pub fn resistor(&mut self, a: NodeId, b: NodeId, res: Ohms) -> EdgeId {
        let id = EdgeId(self.edges.len() as u32);
        self.edges.push(RcEdge { a, b, res });
        id
    }

    /// Adds a coupling capacitor from `node` to an aggressor-net node.
    pub fn coupling(&mut self, node: NodeId, aggressor: impl Into<String>, cap: Farads) {
        self.couplings.push(CouplingCap {
            node,
            aggressor: aggressor.into(),
            cap,
        });
    }

    /// Validates and finalizes the net.
    ///
    /// # Errors
    ///
    /// Returns [`RcNetError::InvalidNet`] when the net has no or multiple
    /// sources, no sinks, non-positive or non-finite resistances,
    /// negative or non-finite capacitances, self-loop resistors, or is
    /// not connected.
    pub fn build(self) -> Result<RcNet, RcNetError> {
        let n = self.nodes.len();
        if n == 0 {
            return Err(RcNetError::InvalidNet("net has no nodes".into()));
        }
        let sources: Vec<NodeId> = self
            .nodes
            .iter()
            .enumerate()
            .filter(|(_, nd)| nd.kind == NodeKind::Source)
            .map(|(i, _)| NodeId(i as u32))
            .collect();
        if sources.len() != 1 {
            return Err(RcNetError::InvalidNet(format!(
                "net `{}` must have exactly one source, found {}",
                self.name,
                sources.len()
            )));
        }
        let source = sources[0];
        let sinks: Vec<NodeId> = self
            .nodes
            .iter()
            .enumerate()
            .filter(|(_, nd)| nd.kind == NodeKind::Sink)
            .map(|(i, _)| NodeId(i as u32))
            .collect();
        if sinks.is_empty() {
            return Err(RcNetError::InvalidNet(format!(
                "net `{}` has no sinks",
                self.name
            )));
        }
        for (i, nd) in self.nodes.iter().enumerate() {
            if !(nd.cap.value() >= 0.0 && nd.cap.value().is_finite()) {
                return Err(RcNetError::InvalidNet(format!(
                    "node {i} (`{}`) has invalid capacitance {}",
                    nd.name, nd.cap
                )));
            }
        }
        for (i, e) in self.edges.iter().enumerate() {
            if e.a == e.b {
                return Err(RcNetError::InvalidNet(format!(
                    "edge {i} is a self-loop on node {}",
                    e.a
                )));
            }
            if !(e.res.value() > 0.0 && e.res.value().is_finite()) {
                return Err(RcNetError::InvalidNet(format!(
                    "edge {i} has invalid resistance {}",
                    e.res
                )));
            }
        }
        for c in &self.couplings {
            if !(c.cap.value() >= 0.0 && c.cap.value().is_finite()) {
                return Err(RcNetError::InvalidNet(format!(
                    "coupling cap at node {} is invalid: {}",
                    c.node, c.cap
                )));
            }
        }
        let (adj_start, adjacency) = csr(
            n,
            self.edges.iter().enumerate().flat_map(|(i, e)| {
                let id = EdgeId(i as u32);
                [(e.a.index(), (e.b, id)), (e.b.index(), (e.a, id))]
            }),
        );
        let mut net = RcNet {
            name: self.name,
            nodes: self.nodes,
            edges: self.edges,
            couplings: self.couplings,
            source,
            sinks,
            adj_start,
            adjacency,
            parents: Vec::new(),
            dist: Vec::new(),
            paths: Vec::new(),
        };
        // Connectivity from the source. On a tree the walk's parent links
        // are the wire paths and its resistance sums the distances. The
        // sums repeat Dijkstra's additions, and like Dijkstra the walk
        // leaves a node whose sum overflows to infinity without a parent.
        let mut parents = vec![None; n];
        let mut dist = vec![Ohms(0.0); n];
        let mut seen = vec![false; n];
        let mut stack = vec![source];
        seen[source.index()] = true;
        let mut reached = 1usize;
        while let Some(u) = stack.pop() {
            for &(v, e) in net.neighbors(u) {
                if !seen[v.index()] {
                    seen[v.index()] = true;
                    reached += 1;
                    stack.push(v);
                    dist[v.index()] = dist[u.index()] + net.edge(e).res;
                    if dist[v.index()].value() < f64::INFINITY {
                        parents[v.index()] = Some((u, e));
                    }
                }
            }
        }
        if reached != n {
            return Err(RcNetError::InvalidNet(format!(
                "net `{}` is disconnected: only {reached} of {n} nodes reachable from the source",
                net.name
            )));
        }
        (net.parents, net.dist) = if net.is_tree() {
            (parents, dist)
        } else {
            let sp = crate::topology::shortest_paths(&net);
            (sp.parent, sp.dist)
        };
        net.paths = crate::path::extract_paths(&net);
        Ok(net)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn simple_net() -> RcNet {
        let mut b = RcNetBuilder::new("t");
        let s = b.source("s", Farads(1e-15));
        let m = b.internal("m", Farads(1e-15));
        let k1 = b.sink("k1", Farads(2e-15));
        let k2 = b.sink("k2", Farads(2e-15));
        b.resistor(s, m, Ohms(10.0));
        b.resistor(m, k1, Ohms(20.0));
        b.resistor(m, k2, Ohms(30.0));
        b.build().unwrap()
    }

    #[test]
    fn builds_and_reports_structure() {
        let net = simple_net();
        assert_eq!(net.node_count(), 4);
        assert_eq!(net.edge_count(), 3);
        assert!(net.is_tree());
        assert_eq!(net.loop_count(), 0);
        assert_eq!(net.sinks().len(), 2);
        assert_eq!(net.degree(net.node_by_name("m").unwrap()), 3);
        assert!((net.total_cap().value() - 6e-15).abs() < 1e-27);
        assert_eq!(net.total_res(), Ohms(60.0));
    }

    #[test]
    fn rejects_missing_source() {
        let mut b = RcNetBuilder::new("x");
        let a = b.internal("a", Farads(1e-15));
        let k = b.sink("k", Farads(1e-15));
        b.resistor(a, k, Ohms(1.0));
        assert!(matches!(b.build(), Err(RcNetError::InvalidNet(_))));
    }

    #[test]
    fn rejects_two_sources() {
        let mut b = RcNetBuilder::new("x");
        let s1 = b.source("s1", Farads(1e-15));
        let s2 = b.source("s2", Farads(1e-15));
        let k = b.sink("k", Farads(1e-15));
        b.resistor(s1, k, Ohms(1.0));
        b.resistor(s2, k, Ohms(1.0));
        assert!(b.build().is_err());
    }

    #[test]
    fn rejects_no_sink() {
        let mut b = RcNetBuilder::new("x");
        let s = b.source("s", Farads(1e-15));
        let a = b.internal("a", Farads(1e-15));
        b.resistor(s, a, Ohms(1.0));
        assert!(b.build().is_err());
    }

    #[test]
    fn rejects_disconnected() {
        let mut b = RcNetBuilder::new("x");
        let s = b.source("s", Farads(1e-15));
        let k = b.sink("k", Farads(1e-15));
        b.resistor(s, k, Ohms(1.0));
        b.internal("island", Farads(1e-15));
        assert!(b.build().is_err());
    }

    #[test]
    fn rejects_self_loop_and_bad_values() {
        let mut b = RcNetBuilder::new("x");
        let s = b.source("s", Farads(1e-15));
        let k = b.sink("k", Farads(1e-15));
        b.resistor(s, k, Ohms(1.0));
        b.resistor(k, k, Ohms(1.0));
        assert!(b.build().is_err());

        let mut b = RcNetBuilder::new("x");
        let s = b.source("s", Farads(1e-15));
        let k = b.sink("k", Farads(1e-15));
        b.resistor(s, k, Ohms(0.0));
        assert!(b.build().is_err());

        let mut b = RcNetBuilder::new("x");
        let s = b.source("s", Farads(-1e-15));
        let k = b.sink("k", Farads(1e-15));
        b.resistor(s, k, Ohms(1.0));
        assert!(b.build().is_err());
    }

    #[test]
    fn duplicate_name_merges_and_upgrades() {
        let mut b = RcNetBuilder::new("x");
        let a = b.internal("p", Farads(0.0));
        let a2 = b.sink("p", Farads(2e-15));
        assert_eq!(a, a2);
        let s = b.source("s", Farads(1e-15));
        b.resistor(s, a, Ohms(5.0));
        let net = b.build().unwrap();
        assert_eq!(net.node(a).kind, NodeKind::Sink);
        assert_eq!(net.node(a).cap, Farads(2e-15));
    }

    #[test]
    fn nontree_loop_count() {
        let mut b = RcNetBuilder::new("x");
        let s = b.source("s", Farads(1e-15));
        let a = b.internal("a", Farads(1e-15));
        let k = b.sink("k", Farads(1e-15));
        b.resistor(s, a, Ohms(1.0));
        b.resistor(a, k, Ohms(1.0));
        b.resistor(s, k, Ohms(1.0));
        let net = b.build().unwrap();
        assert!(!net.is_tree());
        assert_eq!(net.loop_count(), 1);
    }

    #[test]
    fn edge_other_endpoint() {
        let net = simple_net();
        let e = net.edge(EdgeId(0));
        assert_eq!(e.other(e.a), Some(e.b));
        assert_eq!(e.other(e.b), Some(e.a));
        assert_eq!(e.other(NodeId(99)), None);
    }

    #[test]
    fn coupling_caps_tracked() {
        let mut b = RcNetBuilder::new("x");
        let s = b.source("s", Farads(1e-15));
        let k = b.sink("k", Farads(1e-15));
        b.resistor(s, k, Ohms(1.0));
        b.coupling(k, "agg:3", Farads(0.5e-15));
        let net = b.build().unwrap();
        assert_eq!(net.couplings().len(), 1);
        assert_eq!(net.total_coupling_cap(), Farads(0.5e-15));
    }

    #[test]
    fn neighbors_keep_edge_order() {
        let mut b = RcNetBuilder::new("x");
        let k = b.sink("k", Farads(1e-15));
        let s = b.source("s", Farads(1e-15));
        let m = b.internal("m", Farads(1e-15));
        b.resistor(m, k, Ohms(1.0));
        b.resistor(s, m, Ohms(1.0));
        b.resistor(k, s, Ohms(1.0));
        let net = b.build().unwrap();
        assert_eq!(net.neighbors(k), &[(m, EdgeId(0)), (s, EdgeId(2))]);
        assert_eq!(net.neighbors(s), &[(m, EdgeId(1)), (k, EdgeId(2))]);
        assert_eq!(net.neighbors(m), &[(k, EdgeId(0)), (s, EdgeId(1))]);
        assert_eq!(net.degree(m), 2);
    }

    #[test]
    fn tree_paths_stop_where_dijkstra_stops() {
        // The resistance sum to k overflows: Dijkstra leaves k without a
        // parent, and so must the tree walk.
        let mut b = RcNetBuilder::new("x");
        let s = b.source("s", Farads(1e-15));
        let a = b.internal("a", Farads(1e-15));
        let k = b.sink("k", Farads(1e-15));
        b.resistor(s, a, Ohms(1e308));
        b.resistor(a, k, Ohms(1e308));
        let net = b.build().unwrap();
        let sp = crate::topology::shortest_paths(&net);
        assert_eq!(net.shortest_path_parents(), &sp.parent[..]);
        assert_eq!(net.shortest_path_distances(), &sp.dist[..]);
        assert_eq!(
            net.shortest_path_distances()[k.index()],
            Ohms(f64::INFINITY)
        );
        assert_eq!(net.shortest_path_parents()[a.index()], Some((s, EdgeId(0))));
        assert_eq!(net.shortest_path_parents()[k.index()], None);
        assert_eq!(net.paths()[0].nodes, vec![k]);
    }

    #[test]
    fn name_index_survives_growth() {
        let mut b = RcNetBuilder::new("x");
        let ids: Vec<NodeId> = (0..100)
            .map(|i| b.node_or_insert(&format!("n{i}")))
            .collect();
        for (i, &id) in ids.iter().enumerate() {
            assert_eq!(b.node_by_name(&format!("n{i}")), Some(id));
            assert_eq!(b.node_or_insert(&format!("n{i}")), id);
        }
        assert_eq!(b.node_by_name("n100"), None);
        assert_eq!(b.nodes.len(), 100);
    }
}
