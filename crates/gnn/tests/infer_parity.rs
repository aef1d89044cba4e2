//! Property tests pinning the tape-free inference engine to the tape
//! forward: on arbitrary generated nets (tree and non-tree) the
//! compiled [`InferenceModel`] must reproduce `GnnTrans::predict`
//! within 1e-6 relative error (in practice bit-exactly), and packing a
//! graph together with neighbors must not change its rows at all. Each
//! test runs the small parity model and the estimator's shipped shape.

use gnn::batch::GraphBatch;
use gnn::infer::{Arena, InferenceModel, PackedBatch};
use gnn::models::{GnnTrans, GnnTransConfig, GraphModel};
use netgen::nets::{NetConfig, NetGenerator};
use proptest::prelude::*;
use tensor::Mat;

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
    let net = NetGenerator::new(seed, cfg).net(format!("i{seed}"), nontree);
    let n = net.node_count();
    let x = Mat::from_vec(
        n,
        NODE_DIM,
        (0..n * NODE_DIM)
            .map(|i| ((i as f32 + seed as f32) * 0.41).sin() * 0.5)
            .collect(),
    )
    .expect("sized");
    let pf = net
        .paths()
        .iter()
        .enumerate()
        .map(|(i, _)| Mat::row_vector(vec![i as f32 * 0.1, -0.2, 0.3]))
        .collect();
    GraphBatch::build(&net, x, pf, None).expect("valid batch")
}

/// The small parity model (hidden 8, 2 heads: a 24-column fused Q/K/V
/// product), or with `shipped` the estimator's `plan_b_small` shape
/// (hidden 24, 4 heads, 4 WSAGE + 2 attention layers, MLP 32), whose
/// 72-column product spans five 16-wide GEMM tiles, the last ragged.
fn model_for(seed: u64, shipped: bool, weighted: bool, norm: bool) -> GnnTrans {
    let (hidden, gnn_layers, attn_layers, heads, mlp_hidden) = if shipped {
        (24, 4, 2, 4, 32)
    } else {
        (8, 2, 1, 2, 8)
    };
    let cfg = GnnTransConfig {
        node_dim: NODE_DIM,
        path_dim: PATH_DIM,
        hidden,
        gnn_layers,
        attn_layers,
        heads,
        mlp_hidden,
        weighted_aggregation: weighted,
        attn_norm: norm,
        ..Default::default()
    };
    GnnTrans::new(&cfg, seed)
}

/// Maximum relative error between two equally shaped matrices, with an
/// absolute floor so near-zero entries do not blow the ratio up.
fn max_rel_err(a: &Mat, b: &Mat) -> f32 {
    a.as_slice()
        .iter()
        .zip(b.as_slice())
        .map(|(x, y)| (x - y).abs() / x.abs().max(y.abs()).max(1e-3))
        .fold(0.0f32, f32::max)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn tape_free_forward_matches_tape(
        seed in 0u64..5_000,
        nontree in any::<bool>(),
        weighted in any::<bool>(),
        norm in any::<bool>(),
        shipped in any::<bool>(),
    ) {
        let model = model_for(seed ^ 0x77, shipped, weighted, norm);
        let compiled = InferenceModel::compile(&model);
        let mut arena = Arena::new();
        let batch = batch_for(seed, nontree);
        let tape = model.predict(&batch);
        let packed = PackedBatch::pack(&[&batch]).expect("pack");
        let fast = compiled.forward_packed(&packed, &mut arena).expect("forward");
        prop_assert_eq!(fast.shape(), tape.shape());
        prop_assert!(
            max_rel_err(&fast, &tape) <= 1e-6,
            "rel err {} exceeds 1e-6",
            max_rel_err(&fast, &tape)
        );
        // The implementation mirrors the tape's accumulation order, so
        // parity is in fact exact — pin that stronger property too.
        prop_assert_eq!(fast, tape);
    }

    #[test]
    fn packed_rows_are_bit_identical_to_solo(
        seed in 0u64..5_000,
        nontree in any::<bool>(),
        shipped in any::<bool>(),
    ) {
        let model = model_for(seed ^ 0x2b, shipped, true, true);
        let compiled = InferenceModel::compile(&model);
        let mut arena = Arena::new();
        // The graph under test plus two arbitrary neighbors on each side.
        let batches: Vec<GraphBatch> = (0..5)
            .map(|k| batch_for(seed.wrapping_add(k * 131), nontree ^ (k % 2 == 0)))
            .collect();
        let refs: Vec<&GraphBatch> = batches.iter().collect();
        let packed = PackedBatch::pack(&refs).expect("pack");
        let joint = compiled.forward_packed(&packed, &mut arena).expect("forward");
        for (g, batch) in batches.iter().enumerate() {
            let alone = PackedBatch::pack(&[batch]).expect("pack");
            let solo = compiled.forward_packed(&alone, &mut arena).expect("forward");
            let (p0, p1) = packed.path_range(g);
            prop_assert_eq!(p1 - p0, solo.rows());
            for p in 0..solo.rows() {
                for c in 0..2 {
                    // Bit-identical: packing must not perturb a single ULP.
                    prop_assert_eq!(
                        joint.get(p0 + p, c).to_bits(),
                        solo.get(p, c).to_bits(),
                        "graph {} path {} col {} differs packed vs solo",
                        g, p, c
                    );
                }
            }
        }
    }
}

/// Nets of 150–400 nodes put neighbours on both sides of the GEMM's
/// 128-column `KC` block, where the sparse aggregation must flush its
/// accumulators exactly as the tape's dense `A · X` does, and run their
/// queries in several attention strips. Tree and non-tree nets,
/// weighted and mean aggregation, both model shapes, compared bit for
/// bit; then the same nets packed with small neighbours, which must not
/// move a bit either.
#[test]
fn large_nets_match_tape_bit_for_bit() {
    let mut arena = Arena::new();
    let cases = [
        (false, true, false),
        (true, true, false),
        (false, false, false),
        (true, false, false),
        (false, true, true),
        (true, false, true),
    ];
    let mut larges = Vec::new();
    for (i, &(nontree, weighted, shipped)) in cases.iter().enumerate() {
        let seed = 4_000 + i as u64;
        let model = model_for(seed, shipped, weighted, i % 2 == 0);
        let compiled = InferenceModel::compile(&model);
        let batch = sized_batch(seed, nontree, 150, 400);
        assert!(batch.node_count() > 128, "{} nodes", batch.node_count());
        let tape = model.predict(&batch);
        let packed = PackedBatch::pack(&[&batch]).expect("pack");
        let fast = compiled
            .forward_packed(&packed, &mut arena)
            .expect("forward");
        let bits = |m: &Mat| m.as_slice().iter().map(|v| v.to_bits()).collect::<Vec<_>>();
        assert_eq!(
            bits(&fast),
            bits(&tape),
            "{}-node net (nontree {nontree}, weighted {weighted}, shipped {shipped}) \
             drifted from the tape",
            batch.node_count()
        );
        larges.push(batch);
    }

    let small = batch_for(78, true);
    let refs = [&larges[0], &small, &larges[1]];
    for shipped in [false, true] {
        let model = model_for(77, shipped, true, true);
        let compiled = InferenceModel::compile(&model);
        let packed = PackedBatch::pack(&refs).expect("pack");
        let joint = compiled
            .forward_packed(&packed, &mut arena)
            .expect("forward");
        for (g, batch) in refs.iter().enumerate() {
            let solo = model.predict(batch);
            let (p0, p1) = packed.path_range(g);
            assert_eq!(p1 - p0, solo.rows());
            for p in 0..solo.rows() {
                for c in 0..2 {
                    assert_eq!(
                        joint.get(p0 + p, c).to_bits(),
                        solo.get(p, c).to_bits(),
                        "shipped {shipped}: graph {g} path {p} col {c} differs packed vs tape"
                    );
                }
            }
        }
    }
}
