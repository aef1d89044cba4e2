//! Bit-identity fingerprint of the path from a net to a prediction.
//!
//! Labels a fixed netgen set of tree and non-tree nets, trains a 2-epoch
//! `plan_b_small` estimator on it, and hashes six things by exact bit
//! pattern: the raw node features, the raw path features, the golden
//! labels, the saved checkpoint's bytes, the estimator's predictions on
//! the set, and its predictions on a net far outside the set, whose
//! inputs the ±8σ clamp saturates. A change to feature extraction,
//! scaling, clamping, labelling, training or the checkpoint format that
//! moves any value by one bit changes a hash. The pinned values are
//! x86-64 Linux results.

use gnntrans::{DatasetBuilder, EstimatorConfig, NetContext, PathEstimate, WireTimingEstimator};
use netgen::nets::{NetConfig, NetGenerator};
use rcnet::{Farads, Fnv1a, Ohms, RcNet, RcNetBuilder};
use tensor::Mat;

fn nets() -> Vec<RcNet> {
    let cfg = NetConfig {
        nodes_min: 4,
        nodes_max: 40,
        ..Default::default()
    };
    let mut g = NetGenerator::new(17, cfg);
    (0..24)
        .map(|i| g.net(format!("fp{i}"), i % 3 != 0))
        .collect()
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

fn write_estimates(h: &mut Fnv1a, per_net: &[PathEstimate]) {
    h.write_u64(per_net.len() as u64);
    for p in per_net {
        h.write_u64(p.sink.index() as u64)
            .write_f64(p.slew.value())
            .write_f64(p.delay.value());
    }
}

fn write_mat(h: &mut Fnv1a, m: &Mat) {
    h.write_u64(m.rows() as u64).write_u64(m.cols() as u64);
    for v in m.as_slice() {
        h.write(&v.to_bits().to_le_bytes());
    }
}

#[test]
fn features_labels_checkpoint_and_predictions_are_pinned() {
    let nets = nets();
    assert!(nets.iter().any(|n| n.is_tree()) && nets.iter().any(|n| !n.is_tree()));
    let ds = DatasetBuilder::new(5)
        .with_sim_steps(200)
        .build(&nets)
        .unwrap();

    let (mut node, mut path, mut label) = (Fnv1a::new(), Fnv1a::new(), Fnv1a::new());
    for s in &ds.samples {
        write_mat(&mut node, &s.node_feats);
        for f in &s.path_feats {
            write_mat(&mut path, f);
        }
        write_mat(&mut label, &s.targets_ps);
    }

    let cfg = EstimatorConfig {
        epochs: 2,
        ..EstimatorConfig::plan_b_small()
    };
    let mut est = WireTimingEstimator::new(&cfg, 11);
    est.train(&ds).unwrap();
    let file =
        std::env::temp_dir().join(format!("gnntrans_fingerprint_{}.bin", std::process::id()));
    est.save(&file).unwrap();
    let bytes = std::fs::read(&file).unwrap();
    let _ = std::fs::remove_file(&file);
    let checkpoint = Fnv1a::new().write(&bytes).finish();

    let mut pred = Fnv1a::new();
    let preds = est
        .predict_many(ds.samples.iter().map(|s| (&s.net, &s.ctx)))
        .unwrap();
    for per_net in &preds {
        write_estimates(&mut pred, per_net);
    }
    let far = outlier();
    let mut clamped = Fnv1a::new();
    write_estimates(
        &mut clamped,
        &est.predict_net(&far, &NetContext::generic(&far)).unwrap(),
    );

    let got = [
        ("node features", node.finish()),
        ("path features", path.finish()),
        ("golden labels", label.finish()),
        ("checkpoint", checkpoint),
        ("predictions", pred.finish()),
        ("clamped predictions", clamped.finish()),
    ];
    let want = [
        ("node features", 0xa1e67a2b969d56d6),
        ("path features", 0x515b7e0dd750c4c3),
        ("golden labels", 0x4bbae2a370c34584),
        ("checkpoint", 0x3638eb5181c1fc99),
        ("predictions", 0x84c0fdb16ba3679a),
        ("clamped predictions", 0xb23d62a46ca0392b),
    ];
    assert_eq!(got, want);
}
