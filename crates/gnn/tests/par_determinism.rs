//! The parallel-training determinism gate: one epoch of gradient
//! accumulation (`accum > 1`, per-graph passes fanned out on the `par`
//! pool) must produce bit-identical weights whether the pool runs one
//! thread or four — the fixed-order reduction in `train` is what the
//! ISSUE calls "bit-reproducible regardless of thread count".
//!
//! Single test function on purpose: `par::set_threads` is
//! process-global, so concurrent test functions flipping it would race.

use gnn::models::{GnnTrans, GnnTransConfig, GraphModel};
use gnn::train::{train, TrainConfig};
use gnn::GraphBatch;
use rcnet::{Farads, Ohms, RcNetBuilder};
use tensor::Mat;

fn labelled_batch(r: f64, target: f32) -> GraphBatch {
    let mut b = RcNetBuilder::new("n");
    let s = b.source("s", Farads(1e-15));
    let k = b.sink("k", Farads(1e-15));
    b.resistor(s, k, Ohms(r));
    let net = b.build().unwrap();
    let x = Mat::from_vec(2, 3, vec![0.1, 0.2, 0.3, 0.4, 0.5, (r as f32) / 100.0]).unwrap();
    let pf = vec![Mat::row_vector(vec![(r as f32) / 100.0, 1.0])];
    let t = Mat::from_vec(1, 2, vec![target, target * 2.0]).unwrap();
    GraphBatch::build(&net, x, pf, Some(t)).unwrap()
}

fn tiny_model() -> GnnTrans {
    GnnTrans::new(
        &GnnTransConfig {
            node_dim: 3,
            path_dim: 2,
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
fn accumulated_training_is_bit_identical_across_thread_counts() {
    let batches: Vec<GraphBatch> = (0..9)
        .map(|i| labelled_batch(10.0 + 10.0 * i as f64, 0.1 * (i + 1) as f32))
        .collect();
    let cfg = TrainConfig {
        epochs: 1,
        accum: 4,
        ..Default::default()
    };

    par::set_threads(1);
    let mut serial = tiny_model();
    let rs = train(&mut serial, &batches, &cfg).unwrap();

    par::set_threads(4);
    let mut parallel = tiny_model();
    let rp = train(&mut parallel, &batches, &cfg).unwrap();
    par::set_threads(1);

    assert_eq!(rs.epoch_losses, rp.epoch_losses);
    assert_eq!(rs.final_grad_norm.to_bits(), rp.final_grad_norm.to_bits());
    assert_eq!(
        weight_bits(&serial),
        weight_bits(&parallel),
        "parallel accumulation diverged from serial"
    );

    // accum = 1 stays bit-identical to the seed per-graph loop
    // semantics regardless of the pool size (chunks of one never fan
    // out), so the default path is untouched by parallelism.
    par::set_threads(4);
    let mut chunked_one = tiny_model();
    let r1 = train(&mut chunked_one, &batches, &TrainConfig { epochs: 1, ..Default::default() })
        .unwrap();
    par::set_threads(1);
    let mut baseline = tiny_model();
    let r2 = train(&mut baseline, &batches, &TrainConfig { epochs: 1, ..Default::default() })
        .unwrap();
    assert_eq!(r1.epoch_losses, r2.epoch_losses);
    assert_eq!(weight_bits(&chunked_one), weight_bits(&baseline));
}
