//! Cross-crate physics checks: the golden simulator, the analytical
//! metrics and the generated nets must agree on circuit-theory facts.

use elmore::metrics::d2m;
use elmore::{LoopBreaking, Moments, WireAnalysis};
use netgen::nets::{NetConfig, NetGenerator};
use rcnet::{Farads, Ohms, RcNet, RcNetBuilder, Seconds};
use rcsim::{GoldenTimer, SiMode};

fn random_nets(count: usize, seed: u64) -> Vec<RcNet> {
    let cfg = NetConfig {
        nodes_min: 5,
        nodes_max: 24,
        ..Default::default()
    };
    let mut g = NetGenerator::new(seed, cfg);
    (0..count)
        .map(|i| g.net(format!("p{i}"), i % 2 == 0))
        .collect()
}

#[test]
fn golden_delay_bracketed_by_moment_metrics() {
    // For every random net and sink: D2M is a reasonable lower-side
    // estimate and raw Elmore an upper bound of the 50% delay; the golden
    // number must land within a generous bracket of the Elmore bound,
    // and D2M within 0.2–5x of the golden number.
    let timer = GoldenTimer::new(0.8, Ohms(140.0));
    for net in random_nets(12, 3) {
        let m = Moments::new(&net).expect("moments");
        let timing = timer
            .time_net(&net, Seconds::from_ps(20.0), SiMode::Off)
            .expect("simulation");
        for (t, path) in timing.iter().zip(net.paths()) {
            let i = path.sink.index();
            let elmore = m.elmore_delay(path.sink).value();
            let d2m_delay = d2m(m.m1[i], m.m2[i]).value();
            assert!(
                t.delay.value() <= elmore * 1.3 + 2e-13,
                "net {} sink {}: golden {} vs elmore {}",
                net.name(),
                t.sink,
                t.delay.value(),
                elmore
            );
            let ratio = d2m_delay / t.delay.value();
            assert!(
                (0.2..5.0).contains(&ratio),
                "net {} sink {}: D2M {} vs golden {}",
                net.name(),
                t.sink,
                d2m_delay,
                t.delay.value()
            );
        }
    }
}

#[test]
fn scaling_all_capacitance_scales_delay() {
    // Doubling every capacitance of a linear RC network doubles every
    // time constant: golden delays must grow accordingly (with the driver
    // ramp adding a sub-linear floor).
    let build = |scale: f64| {
        let mut b = RcNetBuilder::new("s");
        let s = b.source("s", Farads(1e-15 * scale));
        let m = b.internal("m", Farads(6e-15 * scale));
        let k = b.sink("k", Farads(6e-15 * scale));
        b.resistor(s, m, Ohms(400.0));
        b.resistor(m, k, Ohms(400.0));
        b.build().expect("valid")
    };
    let timer = GoldenTimer::new(0.8, Ohms(140.0));
    let base = timer
        .time_net(&build(1.0), Seconds::from_ps(10.0), SiMode::Off)
        .expect("base")[0]
        .delay
        .value();
    let doubled = timer
        .time_net(&build(2.0), Seconds::from_ps(10.0), SiMode::Off)
        .expect("doubled")[0]
        .delay
        .value();
    assert!(
        doubled > base * 1.6 && doubled < base * 2.4,
        "base {base}, doubled {doubled}"
    );
}

#[test]
fn si_noise_never_speeds_up_the_victim() {
    let timer = GoldenTimer::new(0.8, Ohms(140.0));
    for net in random_nets(10, 7) {
        if net.couplings().is_empty() {
            continue;
        }
        let quiet = timer
            .time_net(&net, Seconds::from_ps(20.0), SiMode::Off)
            .expect("quiet");
        let noisy = timer
            .time_net(
                &net,
                Seconds::from_ps(20.0),
                SiMode::WorstCase {
                    aggressor_ramp: Seconds::from_ps(20.0),
                },
            )
            .expect("noisy");
        for (q, n) in quiet.iter().zip(&noisy) {
            assert!(
                n.delay.value() >= q.delay.value() - 1e-13,
                "net {}: opposite aggressor must not speed up the victim",
                net.name()
            );
        }
    }
}

#[test]
fn sink_order_matches_path_order_everywhere() {
    let timer = GoldenTimer::new(0.8, Ohms(140.0));
    for net in random_nets(8, 11) {
        let timing = timer
            .time_net(&net, Seconds::from_ps(15.0), SiMode::Off)
            .expect("simulation");
        assert_eq!(timing.len(), net.paths().len());
        for (t, p) in timing.iter().zip(net.paths()) {
            assert_eq!(t.sink, p.sink);
        }
    }
}

#[test]
fn exact_elmore_equals_tree_elmore_on_generated_trees() {
    // On a tree every spanning tree is the net itself, so under either
    // loop-breaking policy the tree recurrences behind the path features
    // must equal the exact moments: Elmore from m1, D2M from m1 and m2.
    let cfg = NetConfig {
        nodes_min: 5,
        nodes_max: 30,
        ..Default::default()
    };
    let mut g = NetGenerator::new(19, cfg);
    for i in 0..10 {
        let net = g.tree_net(format!("t{i}"));
        let m = Moments::new(&net).expect("moments");
        for policy in [LoopBreaking::ShortestPath, LoopBreaking::DepthFirst] {
            let wa = WireAnalysis::with_policy(&net, policy).expect("analysis");
            for path in net.paths() {
                let s = path.sink.index();
                let pairs = [
                    ("Elmore", -m.m1[s], wa.tree_path_elmore(path).value()),
                    (
                        "D2M",
                        d2m(m.m1[s], m.m2[s]).value(),
                        wa.tree_path_d2m(path).value(),
                    ),
                ];
                for (metric, exact, tree) in pairs {
                    assert!(
                        (exact - tree).abs() <= 1e-9 * exact.abs() + 1e-25,
                        "net {i} {policy:?} {metric}: exact {exact} vs tree {tree}"
                    );
                }
            }
        }
    }
}
