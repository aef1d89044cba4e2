//! The sparse moment solver against a dense oracle: on random tree and
//! non-tree nets of 2–1000 nodes, each with a pair of parallel
//! resistors and some coupling caps, `Moments::new` (sparse LDLᵀ,
//! leaf-first over the shortest-path tree) must match a dense
//! `LuFactor` solve of the same reduced system to 1e-9 relative, moment
//! by moment and node by node.

use elmore::Moments;
use numeric::{LuFactor, Matrix, Vector};
use proptest::prelude::*;
use rcnet::{Farads, NodeId, Ohms, RcNet, RcNetBuilder};

/// SplitMix64 stream for the net's shape and values.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }

    fn range(&mut self, lo: f64, hi: f64) -> f64 {
        lo + (hi - lo) * (self.next() >> 11) as f64 / (1u64 << 53) as f64
    }
}

/// A random connected net: a random tree (chain-biased, like routed
/// wires), one parallel resistor, `chords` loop-closing resistors, and
/// coupling caps on about a tenth of the nodes. Leaves are sinks.
fn random_net(seed: u64, nodes: usize, chords: usize) -> RcNet {
    let mut rng = Rng(seed);
    let parent: Vec<usize> = (1..nodes)
        .map(|i| {
            if rng.below(3) > 0 {
                i - 1
            } else {
                rng.below(i)
            }
        })
        .collect();
    let mut has_child = vec![false; nodes];
    for &p in &parent {
        has_child[p] = true;
    }
    let mut b = RcNetBuilder::new("oracle");
    let mut ids: Vec<NodeId> = vec![b.source("s", Farads(rng.range(0.1e-15, 2e-15)))];
    for (i, &child) in has_child.iter().enumerate().skip(1) {
        let cap = Farads(rng.range(0.1e-15, 5e-15));
        ids.push(if child {
            b.internal(format!("n{i}"), cap)
        } else {
            b.sink(format!("k{i}"), cap)
        });
    }
    for (i, &p) in parent.iter().enumerate() {
        b.resistor(ids[p], ids[i + 1], Ohms(rng.range(1.0, 200.0)));
    }
    // A parallel pair on a random tree edge.
    let e = rng.below(parent.len());
    b.resistor(ids[parent[e]], ids[e + 1], Ohms(rng.range(1.0, 200.0)));
    for _ in 0..chords {
        let (x, y) = (rng.below(nodes), rng.below(nodes));
        if x != y {
            b.resistor(ids[x], ids[y], Ohms(rng.range(5.0, 400.0)));
        }
    }
    for (i, &id) in ids.iter().enumerate() {
        if rng.below(10) == 0 {
            b.coupling(id, format!("agg{i}"), Farads(rng.range(0.1e-15, 1e-15)));
        }
    }
    b.build().expect("random net is valid")
}

/// `m1..m3` per node from a dense LU solve of the reduced system.
fn dense_moments(net: &RcNet) -> [Vec<f64>; 3] {
    let n = net.node_count();
    let src = net.source().index();
    let reduced: Vec<usize> = (0..n)
        .map(|i| if i < src { i } else { i.wrapping_sub(1) })
        .collect();
    let m = n - 1;
    let mut g = Matrix::zeros(m, m);
    for (_, e) in net.iter_edges() {
        let cond = 1.0 / e.res.value();
        let (a, b) = (e.a.index(), e.b.index());
        if a != src {
            g[(reduced[a], reduced[a])] += cond;
        }
        if b != src {
            g[(reduced[b], reduced[b])] += cond;
        }
        if a != src && b != src {
            g[(reduced[a], reduced[b])] -= cond;
            g[(reduced[b], reduced[a])] -= cond;
        }
    }
    let lu = LuFactor::new(&g).expect("reduced conductance is nonsingular");
    let mut caps = vec![0.0; n];
    for (id, node) in net.iter_nodes() {
        caps[id.index()] = node.cap.value();
    }
    for c in net.couplings() {
        caps[c.node.index()] += c.cap.value();
    }
    let mut w = vec![1.0; m];
    let mut out = [vec![0.0; n], vec![0.0; n], vec![0.0; n]];
    for moment in &mut out {
        let rhs: Vector = (0..n)
            .filter(|&i| i != src)
            .map(|i| -caps[i] * w[reduced[i]])
            .collect();
        w = lu.solve(&rhs).expect("solve").into_inner();
        for i in (0..n).filter(|&i| i != src) {
            moment[i] = w[reduced[i]];
        }
    }
    out
}

fn check(got: &Moments, want: &[Vec<f64>; 3]) -> Result<(), TestCaseError> {
    for (k, (g, w)) in [&got.m1, &got.m2, &got.m3]
        .into_iter()
        .zip(want)
        .enumerate()
    {
        prop_assert_eq!(g.len(), w.len());
        for (i, (&gv, &wv)) in g.iter().zip(w).enumerate() {
            prop_assert!(
                (gv - wv).abs() <= 1e-9 * wv.abs(),
                "m{} of node {}: sparse {} vs dense {}",
                k + 1,
                i,
                gv,
                wv
            );
        }
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    #[test]
    fn sparse_moments_match_dense_lu(
        seed in 0u64..1_000_000,
        nodes in 2usize..1001,
        nontree in any::<bool>(),
    ) {
        let chords = if nontree { 1 + nodes / 50 } else { 0 };
        let net = random_net(seed, nodes, chords);
        let want = dense_moments(&net);
        check(&Moments::new(&net).expect("sparse moments"), &want)?;
    }
}

#[test]
fn smallest_and_largest_nets_match_dense_lu() {
    for (seed, nodes, chords) in [(1, 2, 0), (2, 3, 1), (3, 1000, 0), (4, 1000, 20)] {
        let net = random_net(seed, nodes, chords);
        check(
            &Moments::new(&net).expect("sparse moments"),
            &dense_moments(&net),
        )
        .unwrap_or_else(|e| panic!("{nodes}-node net: {e:?}"));
    }
}
