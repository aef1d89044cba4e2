//! The predict path's ±8σ input clamp is counted: a net whose scaled
//! inputs leave that range adds exactly the number of values the clamp
//! changed to `infer.inputs_clamped`, and a net whose inputs stay inside
//! it adds nothing.
//!
//! The metrics registry is process-global, so this file holds a single
//! test: no other test in its process predicts concurrently.

use gnntrans::features::extract;
use gnntrans::{Dataset, DatasetBuilder, EstimatorConfig, NetContext, WireTimingEstimator};
use netgen::nets::{NetConfig, NetGenerator};
use rcnet::{Farads, Ohms, RcNet, RcNetBuilder};

fn nets(n: usize, seed: u64) -> Vec<RcNet> {
    let cfg = NetConfig {
        nodes_min: 4,
        nodes_max: 10,
        ..Default::default()
    };
    let mut g = NetGenerator::new(seed, cfg);
    (0..n).map(|i| g.net(format!("c{i}"), i % 2 == 0)).collect()
}

/// A 7-node chain whose middle node holds 1 nF, about a million times
/// any capacitance in the training set.
fn outlier() -> RcNet {
    let mut b = RcNetBuilder::new("outlier");
    let mut prev = b.source("drv:Z", Farads::from_ff(1.0));
    for i in 0..6 {
        let cap = Farads::from_ff(if i == 2 { 1e6 } else { 2.0 });
        let node = if i == 5 {
            b.sink("load:A", cap)
        } else {
            b.internal(format!("outlier:{i}"), cap)
        };
        b.resistor(prev, node, Ohms(80.0));
        prev = node;
    }
    b.build().unwrap()
}

/// Scaled inputs of `net` outside ±8, counted from the raw features.
fn out_of_range(ds: &Dataset, net: &RcNet, ctx: &NetContext) -> u64 {
    let (x, pf) = extract(net, ctx).unwrap();
    let sc = &ds.scalers;
    std::iter::once(sc.node.transform(&x))
        .chain(pf.iter().map(|f| sc.path.transform(f)))
        .map(|m| m.as_slice().iter().filter(|v| v.abs() > 8.0).count() as u64)
        .sum()
}

#[test]
fn out_of_distribution_inputs_are_counted_once_clamped() {
    let train_nets = nets(8, 3);
    let ds = DatasetBuilder::new(1).build(&train_nets).unwrap();
    let cfg = EstimatorConfig {
        gnn_layers: 1,
        attn_layers: 1,
        hidden: 8,
        heads: 2,
        mlp_hidden: 8,
        epochs: 2,
        lr: 5e-3,
    };
    let mut est = WireTimingEstimator::new(&cfg, 5);
    est.train(&ds).unwrap();
    let counter = obs::counter("infer.inputs_clamped");

    // A training net's inputs stay inside the range.
    let s = &ds.samples[0];
    assert_eq!(out_of_range(&ds, &s.net, &s.ctx), 0);
    let before = counter.get();
    est.predict_net(&s.net, &s.ctx).unwrap();
    assert_eq!(counter.get(), before);

    let far = outlier();
    let ctx = NetContext::generic(&far);
    let want = out_of_range(&ds, &far, &ctx);
    assert!(want > 0);
    let before = counter.get();
    let pred = est.predict_net(&far, &ctx).unwrap();
    assert_eq!(counter.get() - before, want);
    assert!(pred
        .iter()
        .all(|p| p.slew.value().is_finite() && p.delay.value().is_finite()));

    // A pack of both nets counts the outlier's values once.
    let before = counter.get();
    est.predict_many([(&far, &ctx), (&s.net, &s.ctx)]).unwrap();
    assert_eq!(counter.get() - before, want);
}
