//! The incremental-timing oracle: a session that re-times only its
//! dirty cone after a random edit sequence must agree *exactly* (≤1e-9 s)
//! with a cold full re-time of the same final design state, and two
//! identically-constructed sessions must report identical dirty sets.
//! Also proves a model-generation change can never serve stale cached
//! predictions.

use eco::design::from_netgen;
use eco::{DesignSession, EcoEdit, PredictionCache};
use gnntrans::WireTimingEstimator;
use proptest::prelude::*;
use rcnet::Seconds;
use sta::netlist::Netlist;
use std::sync::OnceLock;

/// Splitmix64 so the test owns its randomness.
fn mix(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

fn train(seed: u64) -> WireTimingEstimator {
    use gnntrans::{DatasetBuilder, EstimatorConfig};
    use netgen::nets::{NetConfig, NetGenerator};
    let cfg = NetConfig {
        nodes_min: 4,
        nodes_max: 12,
        ..Default::default()
    };
    let mut g = NetGenerator::new(seed, cfg);
    let nets: Vec<_> = (0..24).map(|i| g.net(format!("d{i}"), i % 3 == 0)).collect();
    let data = DatasetBuilder::new(seed.wrapping_add(1))
        .build(&nets)
        .expect("featurize");
    let mut est = WireTimingEstimator::new(
        &EstimatorConfig {
            gnn_layers: 2,
            attn_layers: 1,
            hidden: 8,
            heads: 2,
            mlp_hidden: 8,
            epochs: 4,
            lr: 5e-3,
        },
        seed,
    );
    est.train(&data).expect("train");
    est
}

fn estimator() -> &'static WireTimingEstimator {
    static EST: OnceLock<WireTimingEstimator> = OnceLock::new();
    EST.get_or_init(|| train(17))
}

/// One random, *valid* edit against the current design state.
fn random_edit(nl: &Netlist, rng: &mut u64) -> EcoEdit {
    const CELLS: [&str; 5] = ["BUF_X1", "BUF_X2", "BUF_X4", "INV_X1", "INV_X2"];
    loop {
        let i = (mix(rng) % nl.nets().len() as u64) as usize;
        let ni = &nl.nets()[i];
        let net = ni.rc.name().to_string();
        match mix(rng) % 5 {
            0 => {
                if ni.driver.is_none() {
                    continue;
                }
                let cell = CELLS[(mix(rng) % CELLS.len() as u64) as usize];
                return EcoEdit::ResizeDriver { net, cell: cell.into() };
            }
            1 => {
                let sinks = ni.rc.sinks();
                let sid = sinks[(mix(rng) % sinks.len() as u64) as usize];
                return EcoEdit::SetSinkLoad {
                    net,
                    sink: ni.rc.node(sid).name.clone(),
                    ceff_ff: 0.5 + (mix(rng) % 50) as f64 / 10.0,
                };
            }
            2 => {
                let sinks = ni.rc.sinks();
                let sid = sinks[(mix(rng) % sinks.len() as u64) as usize];
                return EcoEdit::InsertBuffer {
                    net,
                    sink: ni.rc.node(sid).name.clone(),
                    cell: "BUF_X2".into(),
                };
            }
            3 => {
                let edges: Vec<_> = ni.rc.iter_edges().collect();
                let (_, e) = edges[(mix(rng) % edges.len() as u64) as usize];
                return EcoEdit::SetResistance {
                    a: ni.rc.node(e.a).name.clone(),
                    b: ni.rc.node(e.b).name.clone(),
                    net,
                    ohms: 1.0 + (mix(rng) % 200) as f64,
                };
            }
            _ => {
                let nodes: Vec<_> = ni.rc.iter_nodes().collect();
                let (_, node) = nodes[(mix(rng) % nodes.len() as u64) as usize];
                return EcoEdit::SetCap {
                    net,
                    node: node.name.clone(),
                    ff: 0.1 + (mix(rng) % 80) as f64 / 10.0,
                };
            }
        }
    }
}

fn assert_timing_agrees(a: &DesignSession, b: &DesignSession) {
    let (ta, tb) = (a.all_timing(), b.all_timing());
    assert_eq!(ta.len(), tb.len());
    for (x, y) in ta.iter().zip(tb) {
        assert_eq!(x.at_sinks.len(), y.at_sinks.len());
        for (&(at_x, sl_x), &(at_y, sl_y)) in x.at_sinks.iter().zip(&y.at_sinks) {
            assert!(
                (at_x.value() - at_y.value()).abs() <= 1e-9,
                "arrival mismatch: {} vs {}",
                at_x.value(),
                at_y.value()
            );
            assert!((sl_x.value() - sl_y.value()).abs() <= 1e-9);
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// After a random edit sequence, incremental timing equals a cold
    /// full re-time of the same final design, and two identical
    /// sessions dirty identical net sets.
    #[test]
    fn incremental_retime_matches_cold_full_retime(seed in 0u64..10_000) {
        let est = estimator();
        let nl = from_netgen("PCI_BRIDGE", 0.02, seed ^ 0xabc).unwrap();
        let slew = Seconds::from_ps(20.0);
        let cache_a = PredictionCache::new(4, 1 << 20);
        let cache_b = PredictionCache::new(4, 1 << 20);
        let mut a = DesignSession::new("a", nl.clone(), slew);
        let mut b = DesignSession::new("b", nl, slew);
        a.full_retime(est, 1, &cache_a).unwrap();
        b.full_retime(est, 1, &cache_b).unwrap();

        let mut rng = seed.wrapping_mul(0x9e37_79b9_7f4a_7c15) | 1;
        for _ in 0..3 {
            let n_edits = 1 + (mix(&mut rng) % 2) as usize;
            let mut snap = rng; // both sessions draw the same edits
            let edits_a: Vec<_> =
                (0..n_edits).map(|_| random_edit(a.netlist(), &mut rng)).collect();
            let edits_b: Vec<_> =
                (0..n_edits).map(|_| random_edit(b.netlist(), &mut snap)).collect();
            prop_assert_eq!(&edits_a, &edits_b);

            let ra = a.apply(&edits_a, est, 1, &cache_a).unwrap();
            let rb = b.apply(&edits_b, est, 1, &cache_b).unwrap();
            // Identical sessions must dirty identical net sets.
            prop_assert_eq!(&ra.dirty_nets, &rb.dirty_nets);
            assert_timing_agrees(&a, &b);
        }

        // The oracle: a cold full re-time of the final design state,
        // through a fresh cache, agrees with the incremental solution.
        let fresh = PredictionCache::new(4, 1 << 20);
        b.full_retime(est, 1, &fresh).unwrap();
        assert_timing_agrees(&a, &b);
        prop_assert_eq!(a.epoch(), b.epoch());

        // Cache keys are (net_hash, ctx_hash, generation) only, so a
        // warm re-time over the cache the cold re-time just filled
        // must hit on every net.
        let warm = b.full_retime(est, 1, &fresh).unwrap();
        prop_assert_eq!(warm.cache_misses, 0, "re-timing perturbed cache keys");
        prop_assert_eq!(warm.cache_hits, warm.nets_retimed as u64);
        assert_timing_agrees(&a, &b);
    }
}

/// A generation bump escalates to a full re-time under the *new* model:
/// the shared cache still holds every old-generation entry, yet none of
/// them can be served because the generation is part of the key.
#[test]
fn model_generation_change_never_serves_stale_predictions() {
    let old = estimator();
    let new = train(99); // different weights entirely
    let slew = Seconds::from_ps(20.0);
    let cache = PredictionCache::new(4, 1 << 20);
    let nl = from_netgen("PCI_BRIDGE", 0.02, 5).unwrap();

    let mut s = DesignSession::new("s", nl.clone(), slew);
    s.full_retime(old, 1, &cache).unwrap();
    let edit = EcoEdit::SetSinkLoad {
        net: s.netlist().nets()[0].rc.name().to_string(),
        sink: s.netlist().nets()[0].rc.node(s.netlist().nets()[0].rc.sinks()[0]).name.clone(),
        ceff_ff: 3.0,
    };
    let r1 = s.apply(std::slice::from_ref(&edit), old, 1, &cache).unwrap();
    assert!(!r1.full_retime);
    let t1 = s.all_timing().to_vec();

    // Same design, same edit, same (warm!) cache — new generation.
    let mut s2 = DesignSession::new("s2", nl, slew);
    s2.full_retime(old, 1, &cache).unwrap();
    let r2 = s2.apply(&[edit], &new, 2, &cache).unwrap();
    assert!(r2.full_retime, "generation change must escalate to full re-time");
    assert_eq!(s2.model_generation(), 2);
    let t2 = s2.all_timing().to_vec();

    // And the numbers come from the new model, not the old cache.
    let reference = {
        let fresh = PredictionCache::new(4, 1 << 20);
        let mut cold = DesignSession::new("c", s2.netlist().clone(), slew);
        cold.full_retime(&new, 2, &fresh).unwrap();
        cold.all_timing().to_vec()
    };
    for (x, y) in t2.iter().zip(&reference) {
        for (&(ax, _), &(ay, _)) in x.at_sinks.iter().zip(&y.at_sinks) {
            assert!((ax.value() - ay.value()).abs() <= 1e-9);
        }
    }
    let differs = t1
        .iter()
        .zip(&t2)
        .any(|(x, y)| {
            x.at_sinks
                .iter()
                .zip(&y.at_sinks)
                .any(|(&(ax, _), &(ay, _))| (ax.value() - ay.value()).abs() > 1e-15)
        });
    assert!(differs, "two different models should not time identically");
}

/// Rollback restores the exact pre-edit state (timing, hashes, epoch).
#[test]
fn rollback_restores_exact_pre_edit_state() {
    let est = estimator();
    let cache = PredictionCache::new(4, 1 << 20);
    let slew = Seconds::from_ps(20.0);
    let nl = from_netgen("DMA", 0.02, 3).unwrap();
    let mut s = DesignSession::new("s", nl, slew);
    s.full_retime(est, 1, &cache).unwrap();
    let before = s.all_timing().to_vec();
    let nets_before = s.netlist().nets().len();

    let net = s.netlist().nets()[1].rc.name().to_string();
    let sink = {
        let rc = &s.netlist().nets()[1].rc;
        rc.node(rc.sinks()[0]).name.clone()
    };
    s.apply(
        &[EcoEdit::InsertBuffer { net, sink, cell: "BUF_X4".into() }],
        est,
        1,
        &cache,
    )
    .unwrap();
    assert_eq!(s.epoch(), 1);
    assert_eq!(s.netlist().nets().len(), nets_before + 1);

    s.rollback(0).unwrap();
    assert_eq!(s.epoch(), 0);
    assert_eq!(s.netlist().nets().len(), nets_before);
    let after = s.all_timing().to_vec();
    assert_eq!(before.len(), after.len());
    for (x, y) in before.iter().zip(&after) {
        assert_eq!(x.at_sinks, y.at_sinks);
    }
    assert!(matches!(s.rollback(7), Err(eco::EcoError::UnknownEpoch(7))));
}
