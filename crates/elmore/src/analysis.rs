//! One-stop per-net analytical bundle.

use crate::{metrics, tree, ElmoreError};
use rcnet::topology::{orient, orient_dfs, Orientation};
use rcnet::{Farads, NodeId, RcNet, Seconds, WirePath};

/// How non-tree nets are projected onto a spanning tree for the
/// tree-recurrence quantities.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum LoopBreaking {
    /// Resistance-weighted shortest-path tree — the wire-path definition
    /// of the paper, and a near-optimal electrical surrogate.
    #[default]
    ShortestPath,
    /// Depth-first spanning tree — the crude "keep the first edge found"
    /// loop-breaking that naive non-tree-to-tree conversions (the DAC'20
    /// baseline recipe) apply.
    DepthFirst,
}

/// Everything the feature extractor and the DAC'20 baseline need, computed
/// once per net over a source-rooted spanning tree: the tree orientation,
/// downstream capacitances, stage delays, and the tree Elmore delay and
/// second moment behind the path features.
///
/// These are the loop-broken quantities the TABLE I features prescribe
/// ("calculated through the Elmore delay calculation"): exact on trees,
/// blind to loop chords on non-tree nets. The exact moments of any
/// topology, the reference the tests hold these to, are in
/// [`crate::moments`].
///
/// # Examples
///
/// ```
/// use rcnet::{Farads, Ohms, RcNetBuilder};
/// use elmore::WireAnalysis;
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let mut b = RcNetBuilder::new("n");
/// let s = b.source("d:Z", Farads(1e-15));
/// let m = b.internal("m", Farads(2e-15));
/// let k = b.sink("l:A", Farads(3e-15));
/// b.resistor(s, m, Ohms(10.0));
/// b.resistor(m, k, Ohms(10.0));
/// let net = b.build()?;
/// let wa = WireAnalysis::new(&net)?;
/// let p = &net.paths()[0];
/// assert!(wa.tree_path_elmore(p) > rcnet::Seconds(0.0));
/// assert!(wa.tree_path_d2m(p) <= wa.tree_path_elmore(p));
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct WireAnalysis {
    orientation: Orientation,
    downstream: Vec<Farads>,
    stages: Vec<Seconds>,
    tree_elmore: Vec<Seconds>,
    tree_m2: Vec<f64>,
}

impl WireAnalysis {
    /// Analyzes `net` with the default (shortest-path) loop breaking.
    ///
    /// # Errors
    ///
    /// None on a net [`rcnet::RcNetBuilder`] accepts: the tree
    /// recurrences are total. Callers propagate the `Result` like any
    /// other per-net stage.
    pub fn new(net: &RcNet) -> Result<Self, ElmoreError> {
        Self::with_policy(net, LoopBreaking::ShortestPath)
    }

    /// Analyzes `net` with an explicit loop-breaking policy.
    ///
    /// # Errors
    ///
    /// None, as for [`WireAnalysis::new`].
    pub fn with_policy(net: &RcNet, policy: LoopBreaking) -> Result<Self, ElmoreError> {
        let orientation = match policy {
            LoopBreaking::ShortestPath => orient(net),
            LoopBreaking::DepthFirst => orient_dfs(net),
        };
        let downstream = tree::downstream_caps(net, &orientation);
        let stages = tree::stage_delays(net, &orientation, &downstream);
        let tree_elmore = tree::tree_elmore(net, &orientation, &stages);
        let tree_m2 = tree::tree_m2(net, &orientation, &tree_elmore);
        Ok(WireAnalysis {
            orientation,
            downstream,
            stages,
            tree_elmore,
            tree_m2,
        })
    }

    /// The source-rooted spanning-tree orientation used internally.
    pub fn orientation(&self) -> &Orientation {
        &self.orientation
    }

    /// Downstream capacitance of a node (TABLE I node feature).
    pub fn downstream_cap(&self, node: NodeId) -> Farads {
        self.downstream[node.index()]
    }

    /// Stage delay of a node (TABLE I node feature).
    pub fn stage_delay(&self, node: NodeId) -> Seconds {
        self.stages[node.index()]
    }

    /// Loop-broken wire-path Elmore delay: the tree Elmore delay of the
    /// path's sink (TABLE I path feature).
    pub fn tree_path_elmore(&self, path: &WirePath) -> Seconds {
        self.tree_elmore[path.sink.index()]
    }

    /// Loop-broken wire-path D2M delay (TABLE I path feature).
    pub fn tree_path_d2m(&self, path: &WirePath) -> Seconds {
        let i = path.sink.index();
        metrics::d2m(-self.tree_elmore[i].value(), self.tree_m2[i])
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rcnet::{Ohms, RcNetBuilder};

    fn ladder(n_stages: usize, r: f64, c: f64) -> RcNet {
        let mut b = RcNetBuilder::new("ladder");
        let mut prev = b.source("s", Farads(0.0));
        for i in 0..n_stages {
            let node = if i + 1 == n_stages {
                b.sink("k", Farads(c))
            } else {
                b.internal(format!("m{i}"), Farads(c))
            };
            b.resistor(prev, node, Ohms(r));
            prev = node;
        }
        b.build().unwrap()
    }

    #[test]
    fn ladder_elmore_closed_form() {
        // Elmore of stage i in a uniform ladder: sum_{j<=i} R*j... the sink
        // of an n-stage ladder has delay R*C * n(n+1)/2.
        let n = 6;
        let net = ladder(n, 10.0, 1e-15);
        let wa = WireAnalysis::new(&net).unwrap();
        let expected = 10.0 * 1e-15 * (n * (n + 1) / 2) as f64;
        assert!((wa.tree_path_elmore(&net.paths()[0]).value() - expected).abs() < 1e-24);
    }

    #[test]
    fn path_metrics_consistent() {
        let net = ladder(5, 20.0, 2e-15);
        let wa = WireAnalysis::new(&net).unwrap();
        let p = &net.paths()[0];
        assert!(wa.tree_path_d2m(p).value() > 0.0);
        // A multi-pole ladder has m2 > m1², so D2M stays below ln2 times
        // the Elmore delay, hence below the Elmore delay itself.
        assert!(wa.tree_path_d2m(p).value() <= wa.tree_path_elmore(p).value());
    }

    #[test]
    fn single_pole_tree_m2_is_tau_squared() {
        let mut b = RcNetBuilder::new("n");
        let s = b.source("s", Farads(0.0));
        let k = b.sink("k", Farads(10e-15));
        b.resistor(s, k, Ohms(100.0));
        let net = b.build().unwrap();
        let wa = WireAnalysis::new(&net).unwrap();
        let p = &net.paths()[0];
        let tau = 100.0 * 10e-15;
        // For a single pole D2M = ln2 * tau, and both metrics agree.
        assert!((wa.tree_path_d2m(p).value() - crate::metrics::LN2 * tau).abs() < 1e-24);
    }

    #[test]
    fn works_on_nontree() {
        let mut b = RcNetBuilder::new("d");
        let s = b.source("s", Farads(1e-15));
        let a = b.internal("a", Farads(2e-15));
        let c = b.internal("c", Farads(2e-15));
        let k = b.sink("k", Farads(3e-15));
        b.resistor(s, a, Ohms(10.0));
        b.resistor(a, k, Ohms(10.0));
        b.resistor(s, c, Ohms(10.0));
        b.resistor(c, k, Ohms(10.0));
        let net = b.build().unwrap();
        let wa = WireAnalysis::new(&net).unwrap();
        let p = &net.paths()[0];
        assert!(wa.tree_path_elmore(p).value() > 0.0);
        assert!(wa.tree_path_d2m(p).value() > 0.0);
        // Downstream caps on the shortest-path tree still cover all nodes from s.
        assert!(wa.downstream_cap(net.source()).value() >= net.total_cap().value() - 1e-27);
    }
}
