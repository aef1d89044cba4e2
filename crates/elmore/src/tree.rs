//! Downstream-capacitance and stage-delay recurrences over a source-rooted
//! tree orientation.
//!
//! On tree nets these are the textbook Elmore quantities. On non-tree nets
//! the recurrences run over the resistance-weighted shortest-path tree
//! (loop-closing chords are ignored), which is exactly the feature
//! semantics the paper inherits from the DAC'20 loop-breaking recipe. The
//! *exact* moments of any topology are [`crate::Moments`], the reference
//! the tests hold these recurrences to on trees.

use rcnet::topology::Orientation;
use rcnet::{Farads, RcNet, Seconds};

/// Downstream capacitance per node: the total ground capacitance in the
/// node's subtree (the capacitance "reachable through resistance on the
/// path", paper TABLE I), computed over `orientation`.
///
/// Coupling capacitors are counted at their victim node (grounded-aggressor
/// assumption, the standard pessimistic lumping).
pub fn downstream_caps(net: &RcNet, orientation: &Orientation) -> Vec<Farads> {
    let mut down: Vec<Farads> = net.nodes().iter().map(|n| n.cap).collect();
    for c in net.couplings() {
        down[c.node.index()] += c.cap;
    }
    // Children accumulate into parents in reverse topological order.
    for &node in orientation.order.iter().rev() {
        if let Some((parent, _)) = orientation.parent[node.index()] {
            let d = down[node.index()];
            down[parent.index()] += d;
        }
    }
    down
}

/// Stage delay per node: `R(parent -> node) * downstream_cap(node)`
/// (the Elmore delay contribution of the stage feeding each node).
/// The source has stage delay zero.
pub fn stage_delays(net: &RcNet, orientation: &Orientation, downstream: &[Farads]) -> Vec<Seconds> {
    let mut stages = vec![Seconds(0.0); net.node_count()];
    for (i, p) in orientation.parent.iter().enumerate() {
        if let Some((_, e)) = p {
            stages[i] = net.edge(*e).res * downstream[i];
        }
    }
    stages
}

/// Tree-recurrence Elmore delay per node: the prefix sum of stage delays
/// from the source. Exact on trees; a shortest-path-tree approximation on
/// non-tree nets (see [`crate::moments`] for the exact version).
pub fn tree_elmore(net: &RcNet, orientation: &Orientation, stages: &[Seconds]) -> Vec<Seconds> {
    let mut delay = vec![Seconds(0.0); net.node_count()];
    for &node in &orientation.order {
        if let Some((parent, _)) = orientation.parent[node.index()] {
            delay[node.index()] = delay[parent.index()] + stages[node.index()];
        }
    }
    delay
}

/// Tree-recurrence second moment per node:
/// `m2(i) = sum_k R_shared(i,k) * C_k * elmore(k)`, computed like the
/// Elmore pass but with every capacitance weighted by its own Elmore
/// delay `elmore` (from [`tree_elmore`]). Exact on trees (single pole:
/// `m2 = tau²`); a shortest-path-tree approximation on non-tree nets,
/// the fidelity the TABLE I D2M feature prescribes.
pub fn tree_m2(net: &RcNet, orientation: &Orientation, elmore: &[Seconds]) -> Vec<f64> {
    let mut weighted: Vec<f64> = net
        .nodes()
        .iter()
        .zip(elmore)
        .map(|(node, t)| node.cap.value() * t.value())
        .collect();
    for c in net.couplings() {
        weighted[c.node.index()] += c.cap.value() * elmore[c.node.index()].value();
    }
    for &node in orientation.order.iter().rev() {
        if let Some((parent, _)) = orientation.parent[node.index()] {
            let w = weighted[node.index()];
            weighted[parent.index()] += w;
        }
    }
    let mut m2 = vec![0.0f64; net.node_count()];
    for &node in &orientation.order {
        if let Some((parent, e)) = orientation.parent[node.index()] {
            m2[node.index()] =
                m2[parent.index()] + net.edge(e).res.value() * weighted[node.index()];
        }
    }
    m2
}

#[cfg(test)]
mod tests {
    use super::*;
    use rcnet::topology::orient;
    use rcnet::{Ohms, RcNetBuilder};

    /// s --R1-- a --R2-- k1
    ///          \--R3-- k2
    fn branched() -> RcNet {
        let mut b = RcNetBuilder::new("t");
        let s = b.source("s", Farads(1e-15));
        let a = b.internal("a", Farads(2e-15));
        let k1 = b.sink("k1", Farads(3e-15));
        let k2 = b.sink("k2", Farads(4e-15));
        b.resistor(s, a, Ohms(10.0));
        b.resistor(a, k1, Ohms(20.0));
        b.resistor(a, k2, Ohms(30.0));
        b.build().unwrap()
    }

    #[test]
    fn downstream_caps_accumulate_subtrees() {
        let net = branched();
        let o = orient(&net);
        let d = downstream_caps(&net, &o);
        let get = |n: &str| d[net.node_by_name(n).unwrap().index()].femto_farads();
        assert!((get("k1") - 3.0).abs() < 1e-9);
        assert!((get("k2") - 4.0).abs() < 1e-9);
        assert!((get("a") - 9.0).abs() < 1e-9);
        assert!((get("s") - 10.0).abs() < 1e-9);
    }

    #[test]
    fn stage_and_elmore_delays_match_hand_calc() {
        let net = branched();
        let o = orient(&net);
        let d = downstream_caps(&net, &o);
        let st = stage_delays(&net, &o, &d);
        let el = tree_elmore(&net, &o, &st);
        let a = net.node_by_name("a").unwrap();
        let k1 = net.node_by_name("k1").unwrap();
        // stage(a) = 10 * 9fF = 90e-15 s; stage(k1) = 20 * 3fF = 60e-15 s.
        assert!((st[a.index()].value() - 90e-15).abs() < 1e-24);
        assert!((st[k1.index()].value() - 60e-15).abs() < 1e-24);
        // elmore(k1) = 90 + 60 = 150e-15 s.
        assert!((el[k1.index()].value() - 150e-15).abs() < 1e-24);
        // source has zero stage delay and zero elmore delay.
        assert_eq!(st[net.source().index()], Seconds(0.0));
        assert_eq!(el[net.source().index()], Seconds(0.0));
    }

    #[test]
    fn coupling_counts_toward_downstream() {
        let mut b = RcNetBuilder::new("c");
        let s = b.source("s", Farads(1e-15));
        let k = b.sink("k", Farads(1e-15));
        b.resistor(s, k, Ohms(10.0));
        b.coupling(k, "agg:1", Farads(0.5e-15));
        let net = b.build().unwrap();
        let o = orient(&net);
        let d = downstream_caps(&net, &o);
        assert!((d[k.index()].femto_farads() - 1.5).abs() < 1e-9);
    }
}
