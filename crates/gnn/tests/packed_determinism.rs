//! Thread-count determinism gate for packed training: an epoch whose
//! chunks split into multiple packs (accum 16 over 20 nets → two
//! 8-graph packs plus a 4-graph pack per chunk, fanned out on
//! the `par` pool) must produce bit-identical weights at one and four
//! threads. The pack split is computed from the chunk alone — never
//! from the pool size — and pack results reduce in fixed chunk order,
//! so packed training keeps the tape's reproducibility contract.
//! `check.sh` runs this with `PAR_THREADS=4 PAR_FORCE_POOL=1` so the
//! four-thread leg exercises a real pool even on 1-core hosts.
//!
//! Single test function on purpose: `par::set_threads` is
//! process-global, so concurrent test functions flipping it would race.

use gnn::batch::GraphBatch;
use gnn::models::{GnnTrans, GnnTransConfig, GraphModel};
use gnn::train::{train, TrainConfig};
use netgen::nets::{NetConfig, NetGenerator};
use tensor::Mat;

const NODE_DIM: usize = 5;
const PATH_DIM: usize = 3;

fn labelled_batch(seed: u64) -> GraphBatch {
    let cfg = NetConfig {
        nodes_min: 4,
        nodes_max: 16,
        ..Default::default()
    };
    let net = NetGenerator::new(seed, cfg).net(format!("g{seed}"), seed.is_multiple_of(3));
    let n = net.node_count();
    let x = Mat::from_vec(
        n,
        NODE_DIM,
        (0..n * NODE_DIM)
            .map(|i| ((i as f32 + seed as f32) * 0.37).sin() * 0.5)
            .collect(),
    )
    .unwrap();
    let paths = net.paths().len();
    let pf = (0..paths)
        .map(|i| Mat::row_vector(vec![i as f32 * 0.1, 0.4, -0.2]))
        .collect();
    let t = Mat::from_vec(
        paths,
        2,
        (0..paths * 2)
            .map(|i| ((i as f32 + seed as f32) * 0.19).cos() * 0.4 + 0.5)
            .collect(),
    )
    .unwrap();
    GraphBatch::build(&net, x, pf, Some(t)).unwrap()
}

fn model() -> GnnTrans {
    GnnTrans::new(
        &GnnTransConfig {
            node_dim: NODE_DIM,
            path_dim: PATH_DIM,
            hidden: 8,
            gnn_layers: 2,
            attn_layers: 1,
            heads: 2,
            mlp_hidden: 8,
            ..Default::default()
        },
        42,
    )
}

fn weight_bits(m: &GnnTrans) -> Vec<Vec<u32>> {
    m.param_set()
        .iter()
        .map(|(_, mat)| mat.as_slice().iter().map(|v| v.to_bits()).collect())
        .collect()
}

#[test]
fn packed_epoch_is_bit_identical_across_thread_counts() {
    let batches: Vec<GraphBatch> = (0..20).map(|i| labelled_batch(300 + i)).collect();
    let cfg = TrainConfig {
        epochs: 2,
        accum: 16, // each chunk splits into multiple packs that fan out
        ..Default::default()
    };

    par::set_threads(1);
    let mut serial = model();
    let rs = train(&mut serial, &batches, &cfg).unwrap();

    par::set_threads(4);
    let mut parallel = model();
    let rp = train(&mut parallel, &batches, &cfg).unwrap();
    par::set_threads(1);

    assert_eq!(rs.epoch_losses, rp.epoch_losses);
    assert_eq!(rs.final_grad_norm.to_bits(), rp.final_grad_norm.to_bits());
    assert_eq!(
        weight_bits(&serial),
        weight_bits(&parallel),
        "packed pack fan-out diverged across thread counts"
    );
}
