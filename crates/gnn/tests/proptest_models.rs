//! Property tests over the model zoo: every architecture must produce
//! finite, deterministic, correctly shaped predictions for arbitrary
//! generated nets.

use gnn::batch::GraphBatch;
use gnn::models::{
    BaselineConfig, GatNet, Gcn2Net, GnnTrans, GnnTransConfig, GraphModel, GraphSageNet,
    GraphTransformerNet,
};
use netgen::nets::{NetConfig, NetGenerator};
use proptest::prelude::*;
use tensor::Mat;

const NODE_DIM: usize = 5;
const PATH_DIM: usize = 3;

fn batch_for(seed: u64, nontree: bool) -> GraphBatch {
    let cfg = NetConfig {
        nodes_min: 4,
        nodes_max: 20,
        ..Default::default()
    };
    let net = NetGenerator::new(seed, cfg).net(format!("m{seed}"), nontree);
    let n = net.node_count();
    // Deterministic pseudo-features derived from the seed.
    let x = Mat::from_vec(
        n,
        NODE_DIM,
        (0..n * NODE_DIM)
            .map(|i| ((i as f32 + seed as f32) * 0.37).sin() * 0.5)
            .collect(),
    )
    .expect("sized");
    let pf = net
        .paths()
        .iter()
        .enumerate()
        .map(|(i, _)| Mat::row_vector(vec![i as f32 * 0.1, 0.2, -0.3]))
        .collect();
    GraphBatch::build(&net, x, pf, None).expect("valid batch")
}

fn zoo(seed: u64) -> Vec<Box<dyn GraphModel>> {
    let b = BaselineConfig {
        node_dim: NODE_DIM,
        hidden: 8,
        layers: 2,
        heads: 2,
        mlp_hidden: 8,
    };
    let g = GnnTransConfig {
        node_dim: NODE_DIM,
        path_dim: PATH_DIM,
        hidden: 8,
        gnn_layers: 2,
        attn_layers: 1,
        heads: 2,
        mlp_hidden: 8,
        ..Default::default()
    };
    vec![
        Box::new(GnnTrans::new(&g, seed)),
        Box::new(GraphSageNet::new(&b, seed)),
        Box::new(GatNet::new(&b, seed)),
        Box::new(Gcn2Net::new(&b, seed)),
        Box::new(GraphTransformerNet::new(&b, seed)),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    #[test]
    fn all_models_produce_finite_p_by_2(seed in 0u64..5_000, nontree in any::<bool>()) {
        let batch = batch_for(seed, nontree);
        for model in zoo(seed ^ 0x5a) {
            let out = model.predict(&batch);
            prop_assert_eq!(out.shape(), (batch.path_count(), 2), "{}", model.name());
            prop_assert!(
                out.as_slice().iter().all(|v| v.is_finite()),
                "{} produced non-finite output",
                model.name()
            );
        }
    }

    #[test]
    fn predictions_are_deterministic(seed in 0u64..5_000) {
        let batch = batch_for(seed, true);
        for (a, b) in zoo(seed).into_iter().zip(zoo(seed)) {
            prop_assert_eq!(a.predict(&batch), b.predict(&batch), "{}", a.name());
        }
    }

    #[test]
    fn batch_adjacencies_are_consistent(seed in 0u64..5_000, nontree in any::<bool>()) {
        let batch = batch_for(seed, nontree);
        let n = batch.node_count();
        let (res, mean, mask) = (batch.adj.dense_res(), batch.adj.dense_mean(), batch.adj.dense_mask());
        for r in 0..n {
            let mut row_sum = 0.0f32;
            for c in 0..n {
                // Weighted adjacency is symmetric and non-negative.
                prop_assert!(res.get(r, c) >= 0.0);
                prop_assert!((res.get(r, c) - res.get(c, r)).abs() < 1e-6);
                row_sum += mean.get(r, c);
                // Mask opens exactly where the binary adjacency or the
                // diagonal is set.
                let open = mask.get(r, c) == 0.0;
                let connected = res.get(r, c) > 0.0 || r == c;
                prop_assert_eq!(open, connected);
            }
            // Mean-aggregation rows are stochastic (all nodes have degree
            // >= 1 on a connected net).
            prop_assert!((row_sum - 1.0).abs() < 1e-4);
        }
    }
}
