//! One-stop per-net analytical bundle.

use crate::{metrics, moments::Moments, tree, ElmoreError};
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
/// once per net: the tree orientation, downstream capacitances, stage
/// delays, and exact moments.
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
/// assert!(wa.path_elmore(p) > rcnet::Seconds(0.0));
/// assert!(wa.path_d2m(p) <= wa.path_elmore(p));
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct WireAnalysis {
    orientation: Orientation,
    downstream: Vec<Farads>,
    stages: Vec<Seconds>,
    moments: Moments,
    tree_elmore: Vec<Seconds>,
    tree_m2: Vec<f64>,
}

impl WireAnalysis {
    /// Analyzes `net` with the default (shortest-path) loop breaking.
    ///
    /// # Errors
    ///
    /// Propagates [`ElmoreError::Numeric`] from the moment solver.
    pub fn new(net: &RcNet) -> Result<Self, ElmoreError> {
        Self::with_policy(net, LoopBreaking::ShortestPath)
    }

    /// Analyzes `net` with an explicit loop-breaking policy.
    ///
    /// # Errors
    ///
    /// Propagates [`ElmoreError::Numeric`] from the moment solver.
    pub fn with_policy(net: &RcNet, policy: LoopBreaking) -> Result<Self, ElmoreError> {
        let orientation = match policy {
            LoopBreaking::ShortestPath => orient(net),
            LoopBreaking::DepthFirst => orient_dfs(net),
        };
        let downstream = tree::downstream_caps(net, &orientation);
        let stages = tree::stage_delays(net, &orientation, &downstream);
        let moments = Moments::with_tree(net, &orientation)?;
        let tree_elmore = tree::tree_elmore(net, &orientation, &stages);

        // Tree second moment: m2(i) = sum_k R_shared(i,k) * C_k * m1(k),
        // computed like the Elmore pass but with capacitances weighted by
        // their own first moment. Exact on trees (single pole: m2 = tau²),
        // loop-broken approximation on non-tree nets — the fidelity level
        // the TABLE I features prescribe.
        let n = net.node_count();
        let mut weighted: Vec<f64> = (0..n)
            .map(|i| net.nodes()[i].cap.value() * tree_elmore[i].value())
            .collect();
        for c in net.couplings() {
            weighted[c.node.index()] += c.cap.value() * tree_elmore[c.node.index()].value();
        }
        for &node in orientation.order.iter().rev() {
            if let Some((parent, _)) = orientation.parent[node.index()] {
                let w = weighted[node.index()];
                weighted[parent.index()] += w;
            }
        }
        let mut tree_m2 = vec![0.0f64; n];
        for &node in &orientation.order {
            if let Some((parent, e)) = orientation.parent[node.index()] {
                tree_m2[node.index()] =
                    tree_m2[parent.index()] + net.edge(e).res.value() * weighted[node.index()];
            }
        }
        Ok(WireAnalysis {
            orientation,
            downstream,
            stages,
            moments,
            tree_elmore,
            tree_m2,
        })
    }

    /// The source-rooted (shortest-path) tree orientation used internally.
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

    /// Exact (MNA first-moment) Elmore delay of a node; handles loops.
    pub fn elmore_delay(&self, node: NodeId) -> Seconds {
        self.moments.elmore_delay(node)
    }

    /// The raw moments.
    pub fn moments(&self) -> &Moments {
        &self.moments
    }

    /// Wire-path Elmore delay: the Elmore delay of the path's sink
    /// (TABLE I path feature).
    pub fn path_elmore(&self, path: &WirePath) -> Seconds {
        self.elmore_delay(path.sink)
    }

    /// Wire-path D2M delay (TABLE I path feature).
    pub fn path_d2m(&self, path: &WirePath) -> Seconds {
        let i = path.sink.index();
        metrics::d2m(self.moments.m1[i], self.moments.m2[i])
    }

    /// Moment-matched step slew at the path's sink.
    pub fn path_step_slew(&self, path: &WirePath) -> Seconds {
        let i = path.sink.index();
        metrics::step_slew(self.moments.m1[i], self.moments.m2[i])
    }

    /// Output slew estimate at the sink given the driver's input slew
    /// (PERI combination of driver slew and wire step slew).
    pub fn path_slew(&self, path: &WirePath, input_slew: Seconds) -> Seconds {
        metrics::peri_slew(input_slew, self.path_step_slew(path))
    }

    /// Loop-broken (tree-recurrence) Elmore delay of a node — the
    /// fidelity the TABLE I features prescribe ("calculated through the
    /// Elmore delay calculation"); exact on trees, blind to loop chords.
    pub fn tree_elmore_delay(&self, node: NodeId) -> Seconds {
        self.tree_elmore[node.index()]
    }

    /// Loop-broken wire-path Elmore delay (TABLE I path feature).
    pub fn tree_path_elmore(&self, path: &WirePath) -> Seconds {
        self.tree_elmore_delay(path.sink)
    }

    /// Loop-broken wire-path D2M delay (TABLE I path feature).
    pub fn tree_path_d2m(&self, path: &WirePath) -> Seconds {
        let i = path.sink.index();
        metrics::d2m(-self.tree_elmore[i].value(), self.tree_m2[i])
    }

    /// Loop-broken moment-matched step slew at the path's sink.
    pub fn tree_path_step_slew(&self, path: &WirePath) -> Seconds {
        let i = path.sink.index();
        metrics::step_slew(-self.tree_elmore[i].value(), self.tree_m2[i])
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
        let k = net.node_by_name("k").unwrap();
        let expected = 10.0 * 1e-15 * (n * (n + 1) / 2) as f64;
        assert!((wa.elmore_delay(k).value() - expected).abs() < 1e-24);
    }

    #[test]
    fn path_metrics_consistent() {
        let net = ladder(5, 20.0, 2e-15);
        let wa = WireAnalysis::new(&net).unwrap();
        let p = &net.paths()[0];
        assert!(wa.path_d2m(p).value() > 0.0);
        // D2M never exceeds the mean-based bound ln2*(-m1) ... both scaled by
        // ln2, so compare directly against elmore via the metric ordering.
        assert!(wa.path_d2m(p).value() <= wa.path_elmore(p).value());
        assert!(wa.path_step_slew(p).value() > 0.0);
        let with_input = wa.path_slew(p, Seconds(10e-12));
        assert!(with_input >= wa.path_step_slew(p));
        assert!(with_input >= Seconds(10e-12));
    }

    #[test]
    fn tree_metrics_match_exact_on_trees() {
        let net = ladder(5, 20.0, 2e-15);
        let wa = WireAnalysis::new(&net).unwrap();
        let p = &net.paths()[0];
        // On a tree the loop-broken metrics equal the exact ones.
        assert!(
            (wa.tree_path_elmore(p).value() - wa.path_elmore(p).value()).abs()
                < 1e-12 * wa.path_elmore(p).value().abs() + 1e-27
        );
        assert!(
            (wa.tree_path_d2m(p).value() - wa.path_d2m(p).value()).abs()
                < 1e-9 * wa.path_d2m(p).value().abs() + 1e-24
        );
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
    fn loop_broken_elmore_overestimates_on_loops() {
        // Parallel routes reduce the true delay; the loop-broken view
        // cannot see that, so tree elmore >= exact elmore on the diamond.
        let mut b = RcNetBuilder::new("d");
        let s = b.source("s", Farads(1e-15));
        let a = b.internal("a", Farads(5e-15));
        let c = b.internal("c", Farads(5e-15));
        let k = b.sink("k", Farads(5e-15));
        b.resistor(s, a, Ohms(100.0));
        b.resistor(a, k, Ohms(100.0));
        b.resistor(s, c, Ohms(120.0));
        b.resistor(c, k, Ohms(120.0));
        let net = b.build().unwrap();
        let wa = WireAnalysis::new(&net).unwrap();
        let p = &net.paths()[0];
        assert!(wa.tree_path_elmore(p).value() > wa.path_elmore(p).value());
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
        assert!(wa.path_elmore(p).value() > 0.0);
        assert!(wa.path_d2m(p).value() > 0.0);
        // Downstream caps on the shortest-path tree still cover all nodes from s.
        assert!(wa.downstream_cap(net.source()).value() >= net.total_cap().value() - 1e-27);
    }
}
