//! Property tests pinning the packed-batch training engine to the
//! autograd tape, the gradient oracle: on arbitrary generated nets
//! (tree and non-tree) and arbitrary architecture variants, a
//! single-graph pack must reproduce the tape gradients exactly, and a
//! multi-graph pack must match the summed per-graph tape gradients
//! within 1e-6 relative error (the tall weight-grad GEMM regroups the
//! same terms). The single-graph tests also run the estimator's shipped
//! shape. Plus behavioral pins: a short packed training run
//! reaches the same loss as tape training, and a poisoned pack stops
//! training before its backward and before any optimizer step.

use gnn::batch::GraphBatch;
use gnn::infer::Arena;
use gnn::models::{GnnTrans, GnnTransConfig, GraphModel};
use gnn::train::{train, TrainConfig};
use gnn::GnnError;
use netgen::nets::{NetConfig, NetGenerator};
use proptest::prelude::*;
use tensor::{Mat, ParamSet, Tape, Var};

const NODE_DIM: usize = 5;
const PATH_DIM: usize = 3;

fn batch_for(seed: u64, nontree: bool) -> GraphBatch {
    sized_batch(seed, nontree, 4, 20)
}

fn sized_batch(seed: u64, nontree: bool, nodes_min: usize, nodes_max: usize) -> GraphBatch {
    let cfg = NetConfig {
        nodes_min,
        nodes_max,
        ..Default::default()
    };
    let net = NetGenerator::new(seed, cfg).net(format!("g{seed}"), nontree);
    let n = net.node_count();
    let x = Mat::from_vec(
        n,
        NODE_DIM,
        (0..n * NODE_DIM)
            .map(|i| ((i as f32 + seed as f32) * 0.41).sin() * 0.5)
            .collect(),
    )
    .expect("sized");
    let paths = net.paths().len();
    let pf = (0..paths)
        .map(|i| Mat::row_vector(vec![i as f32 * 0.1, -0.2, 0.3]))
        .collect();
    let t = Mat::from_vec(
        paths,
        2,
        (0..paths * 2)
            .map(|i| ((i as f32 + seed as f32) * 0.23).cos() * 0.4 + 0.5)
            .collect(),
    )
    .expect("targets");
    GraphBatch::build(&net, x, pf, Some(t)).expect("valid batch")
}

fn model_for(
    seed: u64,
    gnn_layers: usize,
    attn_layers: usize,
    weighted: bool,
    norm: bool,
    pathfeat: bool,
) -> GnnTrans {
    let cfg = GnnTransConfig {
        node_dim: NODE_DIM,
        path_dim: PATH_DIM,
        hidden: 8,
        gnn_layers,
        attn_layers,
        heads: 2,
        mlp_hidden: 8,
        weighted_aggregation: weighted,
        attn_norm: norm,
        path_features: pathfeat,
    };
    GnnTrans::new(&cfg, seed)
}

/// The estimator's shipped `plan_b_small` shape: hidden 24, 4 heads,
/// 4 WSAGE + 2 attention layers, MLP 32, whose 72-column fused Q/K/V
/// product spans five GEMM tiles (the models above fuse 24 columns).
fn shipped_model(seed: u64, weighted: bool, norm: bool, pathfeat: bool) -> GnnTrans {
    let cfg = GnnTransConfig {
        node_dim: NODE_DIM,
        path_dim: PATH_DIM,
        hidden: 24,
        gnn_layers: 4,
        attn_layers: 2,
        heads: 4,
        mlp_hidden: 32,
        weighted_aggregation: weighted,
        attn_norm: norm,
        path_features: pathfeat,
    };
    GnnTrans::new(&cfg, seed)
}

/// GNNTrans without its packed layout, so `train` runs the tape.
struct TapeOnly(GnnTrans);

impl GraphModel for TapeOnly {
    fn name(&self) -> &str {
        "GNNTrans (tape)"
    }
    fn param_set(&self) -> &ParamSet {
        self.0.param_set()
    }
    fn param_set_mut(&mut self) -> &mut ParamSet {
        self.0.param_set_mut()
    }
    fn forward(&self, tape: &mut Tape, batch: &GraphBatch) -> Var {
        self.0.forward(tape, batch)
    }
}

/// The oracle: one graph's loss and gradients off a fresh tape.
fn tape_grads(model: &GnnTrans, batch: &GraphBatch) -> (f32, Vec<(usize, Mat)>) {
    let mut tape = Tape::new();
    let pred = model.forward(&mut tape, batch);
    let loss = tape.mse_loss(pred, batch.targets.as_ref().expect("labelled"));
    tape.backward(loss);
    (tape.value(loss).get(0, 0), tape.param_grads())
}

/// Infinity-norm relative deviation between two matrices.
fn rel_err(a: &Mat, b: &Mat) -> f32 {
    let mut num = 0.0f32;
    let mut den = 1e-9f32;
    for (x, y) in a.as_slice().iter().zip(b.as_slice()) {
        num = num.max((x - y).abs());
        den = den.max(x.abs()).max(y.abs());
    }
    num / den
}

proptest! {
    // Half the cases (on average) run the shipped shape, so this test
    // runs twice the multi-graph test's case count.
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// A pack of one graph is the tape, value for value: same losses,
    /// same gradient matrices (plain `f32` equality), same id order.
    #[test]
    fn single_graph_pack_reproduces_tape_exactly(
        seed in 0u64..10_000,
        nontree in any::<bool>(),
        gnn_layers in 1usize..3,
        attn_layers in 1usize..3,
        weighted in any::<bool>(),
        norm in any::<bool>(),
        pathfeat in any::<bool>(),
        shipped in any::<bool>(),
    ) {
        let model = if shipped {
            shipped_model(seed, weighted, norm, pathfeat)
        } else {
            model_for(seed, gnn_layers, attn_layers, weighted, norm, pathfeat)
        };
        let layout = model.packed_layout().expect("GnnTrans packs");
        let batch = batch_for(seed, nontree);
        let (tape_loss, oracle) = tape_grads(&model, &batch);
        let mut arena = Arena::new();
        let step = layout.step(model.param_set(), &[&batch], &mut arena).expect("step");
        prop_assert_eq!(step.losses, vec![tape_loss]);
        prop_assert_eq!(step.grads.len(), oracle.len());
        for ((id_p, g_p), (id_t, g_t)) in step.grads.iter().zip(&oracle) {
            prop_assert_eq!(id_p, id_t, "gradient order diverged from tape");
            prop_assert_eq!(g_p, g_t, "param {} diverged", model.param_set().name(*id_p));
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// A multi-graph pack matches the tape sum within 1e-6 relative
    /// (weight grads regroup into one tall GEMM); per-graph losses stay
    /// bit-identical regardless of pack composition.
    #[test]
    fn multi_graph_pack_is_pinned_to_tape_sum(
        seed in 0u64..10_000,
        k in 2usize..6,
        weighted in any::<bool>(),
        norm in any::<bool>(),
    ) {
        let model = model_for(seed, 2, 1, weighted, norm, true);
        let layout = model.packed_layout().expect("GnnTrans packs");
        let batches: Vec<GraphBatch> =
            (0..k).map(|i| batch_for(seed + i as u64, i % 2 == 1)).collect();
        let refs: Vec<&GraphBatch> = batches.iter().collect();
        let mut arena = Arena::new();
        let step = layout.step(model.param_set(), &refs, &mut arena).expect("step");

        let mut tape_losses = Vec::with_capacity(k);
        let mut oracle: Vec<(usize, Mat)> = Vec::new();
        for b in &batches {
            let (loss, grads) = tape_grads(&model, b);
            tape_losses.push(loss);
            for (id, g) in grads {
                match oracle.iter_mut().find(|(i, _)| *i == id) {
                    Some((_, acc)) => acc.axpy(1.0, &g),
                    None => oracle.push((id, g)),
                }
            }
        }
        prop_assert_eq!(step.losses, tape_losses);
        for ((id_p, g_p), (id_t, g_t)) in step.grads.iter().zip(&oracle) {
            prop_assert_eq!(id_p, id_t);
            let rel = rel_err(g_p, g_t);
            prop_assert!(
                rel <= 1e-6,
                "param {} rel err {} exceeds 1e-6",
                model.param_set().name(*id_p),
                rel
            );
        }
    }
}

/// Single-graph packs of 150–400-node nets — neighbours on both sides
/// of the GEMM's 128-column `KC` block — reproduce the tape's loss and
/// every gradient bit for bit: tree and non-tree, weighted and mean
/// aggregation, and the shipped shape. The sparse `A_sᵀ` scatter must
/// add rows in the order the tape's dense `gemm_tn` does.
#[test]
fn large_net_gradients_match_tape_bit_for_bit() {
    let mut arena = Arena::new();
    let cases = [
        (false, true, false),
        (true, true, false),
        (false, false, false),
        (true, false, false),
        (true, true, true),
    ];
    for (i, &(nontree, weighted, shipped)) in cases.iter().enumerate() {
        let seed = 6_000 + i as u64;
        let model = if shipped {
            shipped_model(seed, weighted, i % 2 == 0, true)
        } else {
            model_for(seed, 2, 1, weighted, i % 2 == 0, true)
        };
        let layout = model.packed_layout().expect("GnnTrans packs");
        let batch = sized_batch(seed, nontree, 150, 400);
        assert!(batch.node_count() > 128, "{} nodes", batch.node_count());
        let (tape_loss, oracle) = tape_grads(&model, &batch);
        let step = layout
            .step(model.param_set(), &[&batch], &mut arena)
            .expect("step");
        assert_eq!(step.losses[0].to_bits(), tape_loss.to_bits());
        assert_eq!(step.grads.len(), oracle.len());
        let bits = |m: &Mat| m.as_slice().iter().map(|v| v.to_bits()).collect::<Vec<_>>();
        for ((id_p, g_p), (id_t, g_t)) in step.grads.iter().zip(&oracle) {
            assert_eq!(id_p, id_t, "gradient order diverged from tape");
            assert_eq!(
                bits(g_p),
                bits(g_t),
                "{}-node net (nontree {nontree}, weighted {weighted}, shipped {shipped}): \
                 param {} diverged",
                batch.node_count(),
                model.param_set().name(*id_p)
            );
        }
    }
}

/// Trained-model quality is unchanged: at `accum = 1` packed training
/// IS the tape run bit for bit; at `accum > 1` the regrouped weight-grad
/// sums keep the loss within noise of tape training.
#[test]
fn packed_training_reaches_tape_loss() {
    let batches: Vec<GraphBatch> = (0..8).map(|i| batch_for(100 + i, i.is_multiple_of(3))).collect();
    let cfg_for = |accum: usize| TrainConfig {
        epochs: 6,
        seed: 7,
        accum,
        ..Default::default()
    };

    // accum = 1: single-graph packs are exact, so the whole training
    // trajectory is bit-identical.
    let mut tape_model = TapeOnly(model_for(3, 2, 1, true, true, true));
    let tape = train(&mut tape_model, &batches, &cfg_for(1)).unwrap();
    let mut packed_model = model_for(3, 2, 1, true, true, true);
    let packed = train(&mut packed_model, &batches, &cfg_for(1)).unwrap();
    assert_eq!(tape.epoch_losses, packed.epoch_losses);
    assert_eq!(
        tape_model.0.predict(&batches[0]),
        packed_model.predict(&batches[0])
    );
    assert_eq!(tape.arena_bytes_peak, 0, "the tape wrapper must not pack");
    assert!(packed.arena_bytes_peak > 0);
    assert!(packed.graphs_per_s > 0.0);

    // accum = 4: trajectories may differ in the last bits; final loss
    // must agree within noise and both must actually learn.
    let mut tape_model = TapeOnly(model_for(3, 2, 1, true, true, true));
    let tape = train(&mut tape_model, &batches, &cfg_for(4)).unwrap();
    let mut packed_model = model_for(3, 2, 1, true, true, true);
    let packed = train(&mut packed_model, &batches, &cfg_for(4)).unwrap();
    let (lt, lp) = (tape.final_loss(), packed.final_loss());
    assert!(
        (lt - lp).abs() <= 1e-4 * lt.abs().max(lp.abs()).max(1e-3),
        "packed final loss {lp} drifted from tape {lp} vs {lt}"
    );
    assert!(lt < tape.epoch_losses[0], "tape training must learn");
    assert!(lp < packed.epoch_losses[0], "packed training must learn");
}

/// A poisoned batch (non-finite features) makes its pack's loss
/// non-finite: training stops with `Diverged` before that pack's
/// backward and before the chunk's optimizer step, so the weights are
/// untouched — and tape training diverges at the same epoch.
#[test]
fn poisoned_pack_diverges_before_any_weight_update() {
    let mut batches: Vec<GraphBatch> = (0..4).map(|i| batch_for(200 + i, false)).collect();
    let rows = batches[1].x.rows();
    batches[1].x = Mat::full(rows, NODE_DIM, f32::NAN);
    let cfg = TrainConfig {
        epochs: 1,
        seed: 0,
        accum: 4, // one chunk = one pack holding the poisoned graph
        ..Default::default()
    };

    let mut model = model_for(5, 2, 1, true, true, true);
    let before = model.param_set().clone();
    let err = train(&mut model, &batches, &cfg).unwrap_err();
    assert!(
        matches!(err, GnnError::Diverged { epoch: 0 }),
        "poisoned data must surface as divergence, got {err:?}"
    );
    for (id, (_, w)) in before.iter().enumerate() {
        assert_eq!(
            w,
            model.param_set().get(id),
            "a diverged chunk changed weights"
        );
    }

    let mut tape_model = TapeOnly(model_for(5, 2, 1, true, true, true));
    let tape_err = train(&mut tape_model, &batches, &cfg).unwrap_err();
    assert!(matches!(tape_err, GnnError::Diverged { epoch: 0 }));
}
