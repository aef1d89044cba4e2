//! Exact circuit moments of the RC network driven by an ideal step source.
//!
//! With the source node held by an ideal voltage source and the remaining
//! nodes governed by `C dv/dt + G v = G_s * u(t)`, the node voltages expand
//! as `V_i(s) = 1/s * (1 + m1_i s + m2_i s^2 + ...)` and the moments obey
//! the recurrence
//!
//! ```text
//! G * w_k = -C * w_{k-1},   w_0 = 1 (DC solution)
//! ```
//!
//! where `G` is the reduced conductance matrix (source row/column folded
//! into the right-hand side). `-m1_i` is the Elmore delay of node `i`,
//! exact for *any* RC topology including resistive loops.
//!
//! These moments are the exact reference, not a feature source: the
//! TABLE I features read the loop-broken recurrences of [`crate::tree`]
//! through [`crate::WireAnalysis`], and the tests hold those to these
//! moments on tree nets.
//!
//! # Solver
//!
//! `G` has one off-diagonal pair per resistor, so it is assembled sparse
//! and factored once with the sparse LDLᵀ of [`numeric::sparse`], then
//! the three moments are three triangular solves. The elimination order
//! is leaf-first over the net's shortest-path tree: every node is
//! eliminated after its tree children, so a tree factors with no fill at
//! all and each loop chord adds fill only along its tree cycle. One path
//! serves every net size; the dense [`numeric::LuFactor`] remains only as
//! the test oracle.

use crate::ElmoreError;
use numeric::sparse::{LdlSymbolic, TripletBuilder};
use rcnet::topology::orient;
use rcnet::{NodeId, RcNet, Seconds};

/// First three voltage moments per node, plus derived delay metrics.
#[derive(Debug, Clone)]
pub struct Moments {
    /// `m1` per node (seconds; negative of the Elmore delay). Source entry is 0.
    pub m1: Vec<f64>,
    /// `m2` per node (seconds²). Source entry is 0.
    pub m2: Vec<f64>,
    /// `m3` per node (seconds³). Source entry is 0.
    pub m3: Vec<f64>,
}

impl Moments {
    /// Computes the first three moments of every node of `net`,
    /// eliminating leaf-first over `net`'s shortest-path tree.
    ///
    /// Coupling capacitors are lumped to ground at the victim node (the
    /// grounded-aggressor approximation used by every moment-based metric).
    ///
    /// # Errors
    ///
    /// Returns [`ElmoreError::Numeric`] when the factor meets a pivot
    /// below its roundoff tolerance, which scales with the node count and
    /// the largest conductance: a valid net whose resistances span many
    /// decades (a 1 pΩ segment ahead of a 1 kΩ ladder) can trip it.
    pub fn new(net: &RcNet) -> Result<Self, ElmoreError> {
        let n = net.node_count();
        let src = net.source().index();

        // Map full node index -> reduced index (source removed).
        let mut reduced = vec![usize::MAX; n];
        let mut r = 0usize;
        for (i, slot) in reduced.iter_mut().enumerate() {
            if i != src {
                *slot = r;
                r += 1;
            }
        }
        let m = n - 1;
        if m == 0 {
            return Ok(Moments {
                m1: vec![0.0],
                m2: vec![0.0],
                m3: vec![0.0],
            });
        }

        // Reduced conductance matrix.
        let mut g = TripletBuilder::new(m, m);
        for (_, e) in net.iter_edges() {
            let cond = 1.0 / e.res.value();
            let (a, b) = (e.a.index(), e.b.index());
            if a != src {
                g.add(reduced[a], reduced[a], cond);
            }
            if b != src {
                g.add(reduced[b], reduced[b], cond);
            }
            if a != src && b != src {
                let (ra, rb) = (reduced[a], reduced[b]);
                g.add(ra, rb, -cond);
                g.add(rb, ra, -cond);
            }
        }
        let g = g.build();

        // Leaf-first: the reverse of the tree's parent-before-child
        // order, source excluded.
        let leaf_first = orient(net)
            .order
            .iter()
            .rev()
            .filter(|v| v.index() != src)
            .map(|v| reduced[v.index()])
            .collect();
        let ldl = LdlSymbolic::analyze_with(&g, leaf_first)?.factor(&g)?;

        // Node capacitances (ground + coupling lumped).
        let mut caps = vec![0.0; n];
        for (id, node) in net.iter_nodes() {
            caps[id.index()] = node.cap.value();
        }
        for c in net.couplings() {
            caps[c.node.index()] += c.cap.value();
        }

        // w0 = DC solution = all ones (every node settles at the source
        // value). rhs = -C * w_prev (reduced; the source row contributes
        // nothing because its voltage moment beyond order 0 is zero).
        let mut full = [vec![0.0; n], vec![0.0; n], vec![0.0; n]];
        let mut w = vec![1.0; m];
        let mut rhs = vec![0.0; m];
        let mut work = vec![0.0; m];
        for moment in &mut full {
            for (i, &ri) in reduced.iter().enumerate() {
                if i != src {
                    rhs[ri] = -caps[i] * w[ri];
                }
            }
            ldl.solve_into(&rhs, &mut w, &mut work);
            for (i, &ri) in reduced.iter().enumerate() {
                if i != src {
                    moment[i] = w[ri];
                }
            }
        }
        let [m1, m2, m3] = full;
        Ok(Moments { m1, m2, m3 })
    }

    /// Elmore delay of `node` (`-m1`), exact for any topology.
    pub fn elmore_delay(&self, node: NodeId) -> Seconds {
        Seconds(-self.m1[node.index()])
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rcnet::{Farads, Ohms, RcNetBuilder};

    #[test]
    fn single_stage_elmore_is_rc() {
        let mut b = RcNetBuilder::new("n");
        let s = b.source("s", Farads(0.0));
        let k = b.sink("k", Farads(2e-15));
        b.resistor(s, k, Ohms(50.0));
        let net = b.build().unwrap();
        let mom = Moments::new(&net).unwrap();
        assert!((mom.elmore_delay(k).value() - 100e-15).abs() < 1e-24);
    }

    #[test]
    fn mna_matches_tree_recurrence_on_trees() {
        // Ladder: s - a - b - k.
        let mut bld = RcNetBuilder::new("ladder");
        let s = bld.source("s", Farads(1e-15));
        let a = bld.internal("a", Farads(2e-15));
        let b2 = bld.internal("b", Farads(3e-15));
        let k = bld.sink("k", Farads(4e-15));
        bld.resistor(s, a, Ohms(10.0));
        bld.resistor(a, b2, Ohms(20.0));
        bld.resistor(b2, k, Ohms(30.0));
        let net = bld.build().unwrap();

        let o = orient(&net);
        let down = crate::tree::downstream_caps(&net, &o);
        let st = crate::tree::stage_delays(&net, &o, &down);
        let el = crate::tree::tree_elmore(&net, &o, &st);
        let m2 = crate::tree::tree_m2(&net, &o, &el);
        let mom = Moments::new(&net).unwrap();
        for (id, _) in net.iter_nodes() {
            let tree_val = el[id.index()].value();
            let mna_val = mom.elmore_delay(id).value();
            assert!(
                (tree_val - mna_val).abs() < 1e-24 + 1e-9 * tree_val.abs(),
                "node {id}: tree {tree_val} vs MNA {mna_val}"
            );
            let (tree_m2, mna_m2) = (m2[id.index()], mom.m2[id.index()]);
            assert!(
                (tree_m2 - mna_m2).abs() < 1e-48 + 1e-9 * tree_m2.abs(),
                "node {id}: tree m2 {tree_m2} vs MNA {mna_m2}"
            );
        }
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
        let wa = crate::WireAnalysis::new(&net).unwrap();
        let exact = Moments::new(&net).unwrap();
        assert!(wa.tree_path_elmore(&net.paths()[0]) > exact.elmore_delay(k));
    }

    #[test]
    fn loop_reduces_delay_versus_broken_loop() {
        // Diamond where the loop gives a second parallel route: the exact
        // (MNA) Elmore delay at the sink must be smaller than the delay of
        // the same net with the chord removed.
        let build = |with_chord: bool| {
            let mut b = RcNetBuilder::new("d");
            let s = b.source("s", Farads(1e-15));
            let a = b.internal("a", Farads(5e-15));
            let c = b.internal("c", Farads(5e-15));
            let k = b.sink("k", Farads(5e-15));
            b.resistor(s, a, Ohms(100.0));
            b.resistor(a, k, Ohms(100.0));
            b.resistor(s, c, Ohms(100.0));
            if with_chord {
                b.resistor(c, k, Ohms(100.0));
            } else {
                // keep c connected with a stub so the net stays valid
                b.resistor(c, a, Ohms(100.0));
            }
            b.build().unwrap()
        };
        let looped = Moments::new(&build(true)).unwrap();
        let chained = Moments::new(&build(false)).unwrap();
        let k_l = build(true).node_by_name("k").unwrap();
        let k_c = build(false).node_by_name("k").unwrap();
        assert!(looped.elmore_delay(k_l) < chained.elmore_delay(k_c));
    }

    #[test]
    fn moments_alternate_in_sign() {
        let mut b = RcNetBuilder::new("n");
        let s = b.source("s", Farads(1e-15));
        let m = b.internal("m", Farads(2e-15));
        let k = b.sink("k", Farads(2e-15));
        b.resistor(s, m, Ohms(100.0));
        b.resistor(m, k, Ohms(100.0));
        let net = b.build().unwrap();
        let mom = Moments::new(&net).unwrap();
        // For an RC circuit m1 < 0, m2 > 0, m3 < 0 at every non-source node.
        assert!(mom.m1[k.index()] < 0.0);
        assert!(mom.m2[k.index()] > 0.0);
        assert!(mom.m3[k.index()] < 0.0);
    }

    #[test]
    fn degenerate_two_node_net() {
        let mut b = RcNetBuilder::new("n");
        let s = b.source("s", Farads(0.0));
        let k = b.sink("k", Farads(0.0));
        b.resistor(s, k, Ohms(1.0));
        let net = b.build().unwrap();
        let mom = Moments::new(&net).unwrap();
        assert_eq!(mom.elmore_delay(k), Seconds(0.0));
        assert_eq!(mom.elmore_delay(net.source()), Seconds(0.0));
    }
}
