//! Property-based invariants over randomly generated RC networks,
//! spanning `rcnet`, `elmore`, `netgen` and the SPEF round-trip.

use elmore::metrics::d2m;
use elmore::{Moments, WireAnalysis};
use netgen::nets::{NetConfig, NetGenerator};
use proptest::prelude::*;
use rcnet::spef::{parse, write, SpefHeader};

fn generated_net(seed: u64, nontree: bool) -> rcnet::RcNet {
    let cfg = NetConfig {
        nodes_min: 4,
        nodes_max: 28,
        ..Default::default()
    };
    NetGenerator::new(seed, cfg).net(format!("pp{seed}"), nontree)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn every_generated_net_is_structurally_sound(seed in 0u64..10_000, nontree in any::<bool>()) {
        let net = generated_net(seed, nontree);
        // Exactly one source, >= 1 sink, connectivity enforced by build().
        prop_assert_eq!(net.is_tree(), !nontree);
        prop_assert!(net.node_count() >= 4);
        prop_assert!(!net.sinks().is_empty());
        // Every path starts at the source and ends at its own sink.
        for p in net.paths() {
            prop_assert_eq!(p.nodes.first().copied(), Some(net.source()));
            prop_assert_eq!(p.nodes.last().copied(), Some(p.sink));
            prop_assert_eq!(p.edges.len() + 1, p.nodes.len());
            // No repeated nodes on a shortest path.
            let mut seen = p.nodes.clone();
            seen.sort();
            seen.dedup();
            prop_assert_eq!(seen.len(), p.nodes.len());
        }
    }

    #[test]
    fn spef_round_trip_is_lossless_enough(seed in 0u64..10_000, nontree in any::<bool>()) {
        let net = generated_net(seed, nontree);
        let text = write(&SpefHeader::default(), std::slice::from_ref(&net));
        let doc = parse(&text).expect("writer output must parse");
        prop_assert_eq!(doc.nets.len(), 1);
        let rt = &doc.nets[0];
        prop_assert_eq!(rt.node_count(), net.node_count());
        prop_assert_eq!(rt.edge_count(), net.edge_count());
        prop_assert_eq!(rt.sinks().len(), net.sinks().len());
        prop_assert!((rt.total_cap().value() - net.total_cap().value()).abs() < 1e-22);
        prop_assert!((rt.total_res().value() - net.total_res().value()).abs() < 1e-6);
        // Wire-path delays derived from the round-tripped net agree.
        let m_a = Moments::new(&net).expect("moments");
        let m_b = Moments::new(rt).expect("moments");
        for (pa, pb) in net.paths().iter().zip(rt.paths()) {
            let da = m_a.elmore_delay(pa.sink).value();
            let db = m_b.elmore_delay(pb.sink).value();
            prop_assert!((da - db).abs() <= 1e-6 * da.abs() + 1e-24);
        }
    }

    #[test]
    fn moment_invariants_hold(seed in 0u64..10_000, nontree in any::<bool>()) {
        let net = generated_net(seed, nontree);
        let wa = WireAnalysis::new(&net).expect("analysis");
        let m = Moments::new(&net).expect("moments");
        for (id, _) in net.iter_nodes() {
            let i = id.index();
            if id == net.source() {
                continue;
            }
            // RC impulse responses: m1 <= 0, m2 >= 0, variance >= 0.
            prop_assert!(m.m1[i] <= 1e-24, "m1 must be non-positive");
            prop_assert!(m.m2[i] >= -1e-40, "m2 must be non-negative");
            prop_assert!(2.0 * m.m2[i] - m.m1[i] * m.m1[i] >= -1e-30);
        }
        for path in net.paths() {
            // D2M never exceeds the Elmore bound; all metrics non-negative.
            let i = path.sink.index();
            let elmore = m.elmore_delay(path.sink).value();
            let d2m_delay = d2m(m.m1[i], m.m2[i]).value();
            prop_assert!(elmore >= 0.0 && d2m_delay >= 0.0);
            prop_assert!(d2m_delay <= elmore * (1.0 + 1e-9) + 1e-24);
            prop_assert!(wa.tree_path_elmore(path).value() >= 0.0);
            prop_assert!(wa.tree_path_d2m(path).value() >= 0.0);
        }
    }

    #[test]
    fn downstream_caps_are_monotone_along_paths(seed in 0u64..10_000) {
        // Walking from any node toward the source, downstream capacitance
        // can only grow (subtrees nest).
        let net = generated_net(seed, false);
        let wa = WireAnalysis::new(&net).expect("analysis");
        for path in net.paths() {
            for w in path.nodes.windows(2) {
                prop_assert!(
                    wa.downstream_cap(w[0]).value() >= wa.downstream_cap(w[1]).value() - 1e-25
                );
            }
        }
    }
}
