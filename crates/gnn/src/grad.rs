//! Packed-batch training: analytic backward through the segment-packed
//! kernels.
//!
//! [`Layout::step`] packs a whole accumulation chunk with
//! [`PackedBatch::pack`], runs the one packed forward of
//! [`crate::infer`] with its activations kept, and then the
//! hand-derived backward pass of the full stack (WSAGE layers,
//! multi-head attention with per-segment masked softmax, pooling, layer
//! norm, slew/delay heads) using the [`tensor::grad`] kernels — one
//! tall GEMM per layer in both directions, no tape construction, no
//! per-graph allocation after warm-up.
//!
//! # Accumulation-order contract
//!
//! [`crate::train`] promises bit-reproducible training at any thread
//! count, and keeps the tape as the gradient oracle. Both hinge on
//! *where* floating-point sums happen, so the backward here mirrors the
//! tape's reverse node walk exactly:
//!
//! * per attention layer: residual grad first, then heads in **reverse**
//!   order, and within a head the inner-input contributions in `V`, `K`,
//!   `Q` order — the reverse of the forward's `Q`, `K`, `V` node
//!   creation;
//! * per WSAGE layer: the aggregation path `A_sᵀ · dAgg` lands in the
//!   input gradient **before** the self-term `dPre · W1ᵀ`; the sparse
//!   `A_sᵀ` scatter adds rows of `dAgg` in ascending order, the order
//!   the tape's dense `gemm_tn` adds them in;
//! * pooling scatters path gradients in **reverse** global path order,
//!   node indices ascending within a path;
//! * per-graph loss seeds use the tape's exact `2/n · (pred − target)`
//!   expression, so a pack of one graph reproduces the tape gradient
//!   value-for-value, and the per-graph losses are bit-identical to the
//!   tape for any pack composition.
//!
//! The one place a multi-graph pack departs from per-graph tapes is the
//! weight gradients: the tape sums K per-graph `Xᵀ·G` products, while
//! the packed backward computes one tall `Xᵀ·G` over all K graphs'
//! rows. The sums contain identical terms in a different grouping, so
//! they agree to ~1e-7 relative — pinned ≤ 1e-6 by proptest, with the
//! tape kept as the oracle.

use crate::batch::GraphBatch;
use crate::infer::{count_bounds, AffineIds, Layout, PackedBatch};
use crate::GnnError;
use std::time::Instant;
use tensor::grad as tg;
use tensor::infer::{self as ops, Arena};
use tensor::{Mat, ParamSet};

/// Result of one packed forward/backward pass over K graphs.
#[derive(Debug, Clone)]
pub struct PackedStep {
    /// Per-graph MSE losses, in pack order — bit-identical to the
    /// per-graph tape losses.
    pub losses: Vec<f32>,
    /// Summed parameter gradients in tape `param_grads` order (forward
    /// usage order), ready for the fixed-order chunk reduction. Empty
    /// when a loss is non-finite: the backward is skipped and no
    /// optimizer step may be taken on the pack.
    pub grads: Vec<(usize, Mat)>,
    /// Arena footprint after the step, bytes.
    pub arena_bytes: usize,
}

/// Mutable gradient matrix for a parameter id.
///
/// Linear scan: the grads vector holds a few dozen entries and is built
/// in forward usage order, exactly like the tape's `param_grads`.
fn grad_of(grads: &mut [(usize, Mat)], id: usize) -> &mut Mat {
    &mut grads
        .iter_mut()
        .find(|(i, _)| *i == id)
        .expect("parameter registered in grads vector")
        .1
}

impl Layout {
    /// One packed forward + analytic backward over `graphs`, returning
    /// per-graph losses and the summed parameter gradients. The
    /// backward is skipped when any loss is non-finite.
    ///
    /// # Errors
    ///
    /// Returns [`GnnError::BadBatch`] when `graphs` is empty, a graph
    /// lacks targets, feature widths disagree with the compiled
    /// configuration, or a path references an out-of-range node. All
    /// validation happens before any arena buffer is taken, so a failed
    /// call never grows the workspace.
    ///
    /// # Panics
    ///
    /// Panics when `params` is not the parameter set of a model with
    /// this layout.
    pub fn step(
        &self,
        params: &ParamSet,
        graphs: &[&GraphBatch],
        arena: &mut Arena,
    ) -> Result<PackedStep, GnnError> {
        for (i, g) in graphs.iter().enumerate() {
            let targets = g
                .targets
                .as_ref()
                .ok_or_else(|| GnnError::BadBatch(format!("graph {i} has no targets")))?;
            if targets.shape() != (g.path_count(), 2) {
                return Err(GnnError::BadBatch(format!(
                    "graph {i} target shape {:?} != ({}, 2)",
                    targets.shape(),
                    g.path_count()
                )));
            }
        }

        let fwd_start = Instant::now();
        let packed = PackedBatch::pack(graphs)?;
        let (out, acts) = self.run(params, &packed, arena, true)?;
        let k_graphs = packed.graph_count();
        let n = packed.node_count();
        let p = packed.path_count();
        let hidden = self.cfg.hidden;
        let pd = hidden + if self.cfg.path_features { self.cfg.path_dim } else { 0 };
        let targets = |s: usize| graphs[s].targets.as_ref().expect("validated above");

        // ---- Per-graph losses + loss seeds (the tape's exact MSE
        // ---- backward expression, per graph). ----
        let losses: Vec<f32> = (0..k_graphs)
            .map(|s| {
                let (p0, p1) = packed.path_range(s);
                let t = targets(s);
                let mut acc = 0.0f32;
                for (r_local, r) in (p0..p1).enumerate() {
                    let ds = out.get(r, 0) - t.get(r_local, 0);
                    acc += ds * ds;
                    let dd = out.get(r, 1) - t.get(r_local, 1);
                    acc += dd * dd;
                }
                acc / ((p1 - p0) * 2) as f32
            })
            .collect();
        if !losses.iter().all(|l| l.is_finite()) {
            acts.recycle(arena);
            return Ok(PackedStep {
                losses,
                grads: Vec::new(),
                arena_bytes: arena.bytes(),
            });
        }
        let mut d_slew = arena.take(p, 1);
        let mut d_delay = arena.take(p, 1);
        for s in 0..k_graphs {
            let (p0, p1) = packed.path_range(s);
            let t = targets(s);
            let seed_scale = 2.0 / ((p1 - p0) * 2) as f32;
            for (r_local, r) in (p0..p1).enumerate() {
                d_slew.set(r, 0, seed_scale * (out.get(r, 0) - t.get(r_local, 0)));
                d_delay.set(r, 0, seed_scale * (out.get(r, 1) - t.get(r_local, 1)));
            }
        }
        let fwd_seconds = fwd_start.elapsed().as_secs_f64();

        // ---- Backward (reverse of the forward walk; see module docs
        // ---- for the accumulation-order contract). ----
        let bwd_start = Instant::now();

        // Gradient matrices in tape param_grads order = forward usage
        // order (Q/K/V biases never enter the forward, so no entries).
        let mut grads: Vec<(usize, Mat)> = Vec::new();
        let mut reg = |id: usize| {
            let (r, c) = params.get(id).shape();
            grads.push((id, Mat::zeros(r, c)));
        };
        reg(self.input.w);
        reg(self.input.b);
        for layer in &self.gnn {
            reg(layer.w1.w);
            reg(layer.w1.b);
            reg(layer.w2);
        }
        for layer in &self.attn {
            for k in 0..layer.wq.len() {
                reg(layer.wq[k]);
                reg(layer.wk[k]);
                reg(layer.wv[k]);
            }
            reg(layer.w3.w);
            reg(layer.w3.b);
        }
        for l in &self.slew {
            reg(l.w);
            reg(l.b);
        }
        for l in &self.delay {
            reg(l.w);
            reg(l.b);
        }

        // Delay head backward; its input grad splits into dF and the
        // slew-seed addition (the tape's concat backward order: the
        // delay head's nodes come last, so they unwind first).
        let mut d_delay_in = arena.take(p, pd + 1);
        d_delay_in.as_mut_slice().fill(0.0);
        mlp_backward(
            params,
            &self.delay,
            &acts.delay,
            d_delay,
            &mut d_delay_in,
            &mut grads,
            arena,
        );
        let mut d_f = arena.take(p, pd);
        tg::slice_cols_into(&d_delay_in, 0, &mut d_f);
        tg::slice_cols_acc(&d_delay_in, pd, &mut d_slew);
        arena.give(d_delay_in);

        // Slew head backward accumulates its input grad onto dF, which
        // already holds the delay-head slice — the tape's order.
        mlp_backward(
            params, &self.slew, &acts.slew, d_slew, &mut d_f, &mut grads, arena,
        );

        // Pooling backward: reverse global path order, ascending node
        // indices within a path (the tape's reverse node walk).
        let d_pooled_holder;
        let d_pooled: &Mat = if self.cfg.path_features {
            let mut buf = arena.take(p, hidden);
            tg::slice_cols_into(&d_f, 0, &mut buf);
            arena.give(std::mem::replace(&mut d_f, Mat::zeros(0, 0)));
            d_pooled_holder = buf;
            &d_pooled_holder
        } else {
            d_pooled_holder = d_f;
            &d_pooled_holder
        };
        let mut g_cur = arena.take(n, hidden);
        g_cur.as_mut_slice().fill(0.0);
        for j in (0..p).rev() {
            tg::mean_rows_backward_acc(d_pooled, j, packed.path_nodes(j), &mut g_cur);
        }
        arena.give(d_pooled_holder);

        // Attention layers, reverse.
        for (j, layer) in self.attn.iter().enumerate().rev() {
            let stash = &acts.attn[j];
            let h_in = &acts.hs[self.gnn.len() + j];
            let inner: &Mat = stash.inner.as_ref().unwrap_or(h_in);
            let scale = 1.0 / (layer.head_dim as f32).sqrt();

            // Residual: g_cur already holds the output grad, which is
            // also the input grad's first contribution — leave it in
            // place and accumulate the attention path on top.
            tg::add_bias_backward(&g_cur, grad_of(&mut grads, layer.w3.b));
            let mut d_concat = arena.take(n, hidden);
            d_concat.as_mut_slice().fill(0.0);
            tg::matmul_nt_acc(&g_cur, params.get(layer.w3.w), &mut d_concat);
            tg::matmul_tn_acc(&stash.concat, &g_cur, grad_of(&mut grads, layer.w3.w));

            // With norm, inner-input grads collect separately and flow
            // through the layer-norm backward at the end; without it,
            // they accumulate straight onto g_cur after the residual —
            // both exactly the tape's ordering.
            let mut d_inner_buf = if layer.norm {
                let mut buf = arena.take(n, hidden);
                buf.as_mut_slice().fill(0.0);
                Some(buf)
            } else {
                None
            };

            for k in (0..layer.wq.len()).rev() {
                let head = &stash.heads[k];
                let hd = layer.head_dim;
                let mut d_head = arena.take(n, hd);
                tg::slice_cols_into(&d_concat, k * hd, &mut d_head);
                let mut d_q = arena.take(n, hd);
                let mut d_key = arena.take(n, hd);
                let mut d_v = arena.take(n, hd);
                for s in 0..k_graphs {
                    let (n0, ns) = packed.node_window(s);
                    let probs = &head.probs[s];
                    // dP = dHeadOut_s · V_sᵀ ; dV_s = P_sᵀ · dHeadOut_s.
                    let mut d_p = arena.take(ns, ns);
                    tg::matmul_nt_win_into(&d_head, &head.v, n0, ns, &mut d_p);
                    tg::matmul_tn_seg_into(probs, &d_head, n0, &mut d_v, n0);
                    // Masked-softmax + scale backward on the segment.
                    tg::softmax_rows_backward_inplace(&mut d_p, probs);
                    ops::scale_inplace(&mut d_p, scale);
                    // dQ_s = dScores · Ktᵀ with Kt recomputed, exactly
                    // as the tape consumes its transpose node.
                    let mut kt = arena.take(hd, ns);
                    ops::transpose_rows_into(&head.key, n0, ns, &mut kt);
                    tg::matmul_nt_seg_into(&d_p, &kt, &mut d_q, n0);
                    // dKt = Q_sᵀ · dScores, scattered back through the
                    // transpose into the tall dK.
                    let mut d_kt = arena.take(hd, ns);
                    tg::matmul_tn_win_into(&head.q, n0, ns, &d_p, &mut d_kt);
                    ops::transpose_seg_into(&d_kt, &mut d_key, n0);
                    arena.give(d_kt);
                    arena.give(kt);
                    arena.give(d_p);
                }
                // Inner-input contributions in V, K, Q order (reverse
                // of the forward's Q, K, V creation).
                let d_inner: &mut Mat = d_inner_buf.as_mut().unwrap_or(&mut g_cur);
                tg::matmul_nt_acc(&d_v, params.get(layer.wv[k]), d_inner);
                tg::matmul_nt_acc(&d_key, params.get(layer.wk[k]), d_inner);
                tg::matmul_nt_acc(&d_q, params.get(layer.wq[k]), d_inner);
                tg::matmul_tn_acc(inner, &d_v, grad_of(&mut grads, layer.wv[k]));
                tg::matmul_tn_acc(inner, &d_key, grad_of(&mut grads, layer.wk[k]));
                tg::matmul_tn_acc(inner, &d_q, grad_of(&mut grads, layer.wq[k]));
                arena.give(d_v);
                arena.give(d_key);
                arena.give(d_q);
                arena.give(d_head);
            }
            arena.give(d_concat);
            if let Some(d_inner) = d_inner_buf.take() {
                tg::layer_norm_rows_backward_acc(h_in, inner, &d_inner, 1e-5, &mut g_cur);
                arena.give(d_inner);
            }
        }

        // GNN layers, reverse.
        for (i, layer) in self.gnn.iter().enumerate().rev() {
            let h_in = &acts.hs[i];
            let h_out = &acts.hs[i + 1];
            tg::relu_backward_inplace(&mut g_cur, h_out);
            // Neighbor term: dAgg = G · W2ᵀ, then the aggregation
            // backward A_sᵀ · dAgg_s lands in the input grad first.
            let mut d_agg = arena.take(n, hidden);
            d_agg.as_mut_slice().fill(0.0);
            tg::matmul_nt_acc(&g_cur, params.get(layer.w2), &mut d_agg);
            tg::matmul_tn_acc(&acts.aggs[i], &g_cur, grad_of(&mut grads, layer.w2));
            let mut g_next = arena.take(n, hidden);
            for s in 0..k_graphs {
                let (n0, _) = packed.node_window(s);
                let adj = packed.adj(s, self.cfg.weighted_aggregation);
                tg::spmm_tn_seg_into(adj, &d_agg, n0, &mut g_next, n0);
            }
            arena.give(d_agg);
            // Self term: bias column sums, then dPre · W1ᵀ on top of
            // the aggregation contribution.
            tg::add_bias_backward(&g_cur, grad_of(&mut grads, layer.w1.b));
            tg::matmul_nt_acc(&g_cur, params.get(layer.w1.w), &mut g_next);
            tg::matmul_tn_acc(h_in, &g_cur, grad_of(&mut grads, layer.w1.w));
            arena.give(std::mem::replace(&mut g_cur, g_next));
        }

        // Input projection backward.
        tg::relu_backward_inplace(&mut g_cur, &acts.hs[0]);
        tg::add_bias_backward(&g_cur, grad_of(&mut grads, self.input.b));
        tg::matmul_tn_acc(&packed.x, &g_cur, grad_of(&mut grads, self.input.w));
        arena.give(g_cur);

        acts.recycle(arena);

        let arena_bytes = arena.bytes();
        obs::histogram_with("train.batch_graphs", None, count_bounds).observe(k_graphs as f64);
        obs::histogram_with("train.batch_nodes", None, count_bounds).observe(n as f64);
        obs::histogram("train.forward_seconds").observe(fwd_seconds);
        obs::histogram("train.backward_seconds").observe(bwd_start.elapsed().as_secs_f64());
        obs::gauge("train.arena_bytes").set(arena_bytes as f64);
        Ok(PackedStep {
            losses,
            grads,
            arena_bytes,
        })
    }
}

/// Backward of one MLP head whose input and layer outputs are `io`.
/// Consumes the output gradient `g_out` (returned to the arena) and
/// **accumulates** the input gradient onto `d_input`.
fn mlp_backward(
    params: &ParamSet,
    layers: &[AffineIds],
    io: &[Mat],
    g_out: Mat,
    d_input: &mut Mat,
    grads: &mut [(usize, Mat)],
    arena: &mut Arena,
) {
    let mut g_cur = g_out;
    for (i, l) in layers.iter().enumerate().rev() {
        let layer_in = &io[i];
        tg::add_bias_backward(&g_cur, grad_of(grads, l.b));
        tg::matmul_tn_acc(layer_in, &g_cur, grad_of(grads, l.w));
        if i == 0 {
            tg::matmul_nt_acc(&g_cur, params.get(l.w), d_input);
        } else {
            let w = params.get(l.w);
            let mut d_prev = arena.take(g_cur.rows(), w.rows());
            d_prev.as_mut_slice().fill(0.0);
            tg::matmul_nt_acc(&g_cur, w, &mut d_prev);
            tg::relu_backward_inplace(&mut d_prev, layer_in);
            arena.give(std::mem::replace(&mut g_cur, d_prev));
        }
    }
    arena.give(g_cur);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::infer::tests::{cfg, chain_batch};
    use crate::models::{GnnTrans, GnnTransConfig, GraphModel};
    use crate::train::tape_graph_grads;

    /// Largest elementwise deviation relative to the matrices'
    /// infinity norms.
    fn rel_err(a: &Mat, b: &Mat) -> f32 {
        let mut num = 0.0f32;
        let mut den = 1e-12f32;
        for (x, y) in a.as_slice().iter().zip(b.as_slice()) {
            num = num.max((x - y).abs());
            den = den.max(x.abs()).max(y.abs());
        }
        num / den
    }

    #[test]
    fn single_graph_pack_matches_tape_exactly() {
        let model = GnnTrans::new(&cfg(), 17);
        let layout = Layout::compile(&model);
        let mut arena = Arena::new();
        for nodes in [3usize, 5, 9] {
            let batch = chain_batch(nodes as f32, nodes);
            let (tape_loss, tape_grads) = tape_graph_grads(&model, &batch);
            let step = layout
                .step(model.param_set(), &[&batch], &mut arena)
                .unwrap();
            assert_eq!(step.losses, vec![tape_loss], "{nodes}-node loss drifted");
            assert_eq!(step.grads.len(), tape_grads.len());
            for ((id_p, g_p), (id_t, g_t)) in step.grads.iter().zip(&tape_grads) {
                assert_eq!(id_p, id_t, "grad order drifted");
                assert_eq!(
                    g_p,
                    g_t,
                    "{nodes}-node grads for param {} drifted",
                    model.param_set().name(*id_p)
                );
            }
        }
    }

    #[test]
    fn variant_configs_match_tape_exactly() {
        let variant = GnnTransConfig {
            weighted_aggregation: false,
            attn_norm: false,
            path_features: false,
            ..cfg()
        };
        let model = GnnTrans::new(&variant, 23);
        let layout = Layout::compile(&model);
        let mut arena = Arena::new();
        let batch = chain_batch(2.0, 6);
        let (tape_loss, tape_grads) = tape_graph_grads(&model, &batch);
        let step = layout
            .step(model.param_set(), &[&batch], &mut arena)
            .unwrap();
        assert_eq!(step.losses, vec![tape_loss]);
        for ((id_p, g_p), (_, g_t)) in step.grads.iter().zip(&tape_grads) {
            assert_eq!(g_p, g_t, "param {} drifted", model.param_set().name(*id_p));
        }
    }

    #[test]
    fn multi_graph_pack_matches_tape_sum_to_1e6() {
        let model = GnnTrans::new(&cfg(), 5);
        let layout = Layout::compile(&model);
        let mut arena = Arena::new();
        let batches: Vec<GraphBatch> = (0..4).map(|i| chain_batch(i as f32, 3 + i * 2)).collect();
        let refs: Vec<&GraphBatch> = batches.iter().collect();
        let step = layout
            .step(model.param_set(), &refs, &mut arena)
            .unwrap();

        // Tape oracle: per-graph grads summed in pack order.
        let mut tape_sum: Vec<(usize, Mat)> = Vec::new();
        let mut tape_losses = Vec::new();
        for b in &batches {
            let (loss, grads) = tape_graph_grads(&model, b);
            tape_losses.push(loss);
            for (id, g) in grads {
                match tape_sum.iter_mut().find(|(i, _)| *i == id) {
                    Some((_, acc)) => acc.axpy(1.0, &g),
                    None => tape_sum.push((id, g)),
                }
            }
        }
        // Losses are bit-identical regardless of pack composition.
        assert_eq!(step.losses, tape_losses);
        // Weight grads regroup K per-graph sums into one tall GEMM:
        // equal to 1e-6 relative, the documented contract.
        for ((id_p, g_p), (id_t, g_t)) in step.grads.iter().zip(&tape_sum) {
            assert_eq!(id_p, id_t);
            let rel = rel_err(g_p, g_t);
            assert!(
                rel <= 1e-6,
                "param {} rel err {rel}",
                model.param_set().name(*id_p)
            );
        }
    }

    #[test]
    fn step_is_allocation_free_when_warm() {
        let model = GnnTrans::new(&cfg(), 9);
        let layout = Layout::compile(&model);
        let mut arena = Arena::new();
        let batches: Vec<GraphBatch> = (0..3).map(|i| chain_batch(i as f32, 4 + i)).collect();
        let refs: Vec<&GraphBatch> = batches.iter().collect();
        // Warm up until the footprint stops moving: the best-fit
        // free list takes a few steps to settle into a steady buffer
        // pairing (it regrows the largest pooled buffer on a miss).
        let mut warm = 0usize;
        for _ in 0..10 {
            layout.step(model.param_set(), &refs, &mut arena).unwrap();
            let b = arena.bytes();
            if b == warm {
                break;
            }
            warm = b;
        }
        for _ in 0..3 {
            layout.step(model.param_set(), &refs, &mut arena).unwrap();
        }
        assert_eq!(arena.bytes(), warm, "arena grew after warm-up");
    }

    #[test]
    fn step_validates_before_taking_buffers() {
        let model = GnnTrans::new(&cfg(), 3);
        let layout = Layout::compile(&model);
        let mut arena = Arena::new();
        assert!(matches!(
            layout.step(model.param_set(), &[], &mut arena),
            Err(GnnError::BadBatch(_))
        ));
        let mut unlabelled = chain_batch(0.0, 4);
        unlabelled.targets = None;
        assert!(matches!(
            layout.step(model.param_set(), &[&unlabelled], &mut arena),
            Err(GnnError::BadBatch(_))
        ));
        let mut poisoned = chain_batch(0.0, 4);
        poisoned.x = Mat::zeros(4, 7); // wrong node width
        assert!(layout
            .step(model.param_set(), &[&poisoned], &mut arena)
            .is_err());
        assert_eq!(arena.bytes(), 0, "failed validation must not touch the arena");
    }

    #[test]
    fn non_finite_loss_skips_the_backward() {
        let model = GnnTrans::new(&cfg(), 3);
        let layout = Layout::compile(&model);
        let mut arena = Arena::new();
        let mut poisoned = chain_batch(0.0, 4);
        poisoned.targets = Some(Mat::full(1, 2, f32::NAN));
        let step = layout
            .step(model.param_set(), &[&poisoned], &mut arena)
            .unwrap();
        assert!(step.losses[0].is_nan());
        assert!(step.grads.is_empty(), "no gradients from a non-finite loss");
    }
}
