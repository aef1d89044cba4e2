//! The predict-stage timers: one `predict_many` call observes each of
//! `infer.features_seconds`, `infer.pack_seconds`,
//! `infer.forward_seconds` and `infer.unscale_seconds` once per pack.
//!
//! The metrics registry is process-global, so this file holds a single
//! test: no other test in its process predicts concurrently.

use gnntrans::{DatasetBuilder, EstimatorConfig, NetContext, WireTimingEstimator};
use netgen::nets::{NetConfig, NetGenerator};
use rcnet::RcNet;

const STAGES: [&str; 4] = [
    "infer.features_seconds",
    "infer.pack_seconds",
    "infer.forward_seconds",
    "infer.unscale_seconds",
];

fn nets(n: usize, seed: u64) -> Vec<RcNet> {
    let cfg = NetConfig {
        nodes_min: 4,
        nodes_max: 10,
        ..Default::default()
    };
    let mut g = NetGenerator::new(seed, cfg);
    (0..n).map(|i| g.net(format!("t{i}"), i % 2 == 0)).collect()
}

fn counts() -> Vec<u64> {
    STAGES.iter().map(|s| obs::histogram(s).count()).collect()
}

#[test]
fn predict_many_times_every_stage_once_per_pack() {
    let mut builder = DatasetBuilder::new(1);
    let ds = builder.build(&nets(8, 3)).unwrap();
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

    // 70 nets of at most 10 nodes: two packs under the 64-net cap.
    let probes = nets(70, 9);
    let ctxs: Vec<NetContext> = probes.iter().map(|n| builder.context_for(n)).collect();
    let before = counts();
    let out = est.predict_many(probes.iter().zip(ctxs.iter())).unwrap();
    let after = counts();
    assert_eq!(out.len(), probes.len());
    for ((stage, b), a) in STAGES.iter().zip(&before).zip(&after) {
        assert_eq!(a - b, 2, "{stage}");
    }
}
