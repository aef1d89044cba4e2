//! Graph attention layer (Veličković et al., 2018) — baseline.
//!
//! Attention coefficients are computed only over graph edges (plus self),
//! using the standard additive form
//! `e_ij = LeakyReLU( a1·(W x_i) + a2·(W x_j) )` with a masked softmax.

use crate::layers::Linear;
use tensor::init::InitRng;
use tensor::{ParamSet, Tape, Var};

/// One single-head GAT layer.
#[derive(Debug, Clone)]
pub struct GatLayer {
    w: Linear,
    a_src: Linear,
    a_dst: Linear,
}

impl GatLayer {
    /// Registers the projection `W` and the two halves of the attention
    /// vector.
    pub fn new(
        params: &mut ParamSet,
        rng: &mut InitRng,
        name: &str,
        in_dim: usize,
        out_dim: usize,
    ) -> Self {
        GatLayer {
            w: Linear::new_xavier(params, rng, &format!("{name}/w"), in_dim, out_dim),
            a_src: Linear::new_xavier(params, rng, &format!("{name}/asrc"), out_dim, 1),
            a_dst: Linear::new_xavier(params, rng, &format!("{name}/adst"), out_dim, 1),
        }
    }

    /// Applies the layer. `adj_mask` is 0 on edges/self and a large
    /// negative number elsewhere (see
    /// [`crate::batch::Adjacency::dense_mask`]).
    pub fn forward(&self, tape: &mut Tape, params: &ParamSet, x: Var, adj_mask: Var) -> Var {
        let h = self.w.forward_no_bias(tape, params, x); // n x d
        let f_src = self.a_src.forward_no_bias(tape, params, h); // n x 1
        let f_dst = self.a_dst.forward_no_bias(tape, params, h); // n x 1
        // scores[i][j] = f_src[i] + f_dst[j]: broadcast col + broadcast row.
        let f_dst_row = tape.transpose(f_dst); // 1 x n
        let n = tape.value(h).rows();
        let zeros = tape.constant(tensor::Mat::zeros(n, n));
        let scores = tape.add_bias_cols(zeros, f_src);
        let scores = tape.add_bias_rows(scores, f_dst_row);
        let scores = tape.leaky_relu(scores, 0.2);
        let masked = tape.add(scores, adj_mask);
        let attn = tape.softmax_rows(masked);
        let agg = tape.matmul(attn, h);
        tape.relu(agg)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tensor::Mat;

    fn chain_mask(n: usize) -> Mat {
        let mut m = Mat::full(n, n, -1e9);
        for i in 0..n {
            m.set(i, i, 0.0);
            if i + 1 < n {
                m.set(i, i + 1, 0.0);
                m.set(i + 1, i, 0.0);
            }
        }
        m
    }

    #[test]
    fn shape_preserved() {
        let mut params = ParamSet::new();
        let mut rng = InitRng::new(4);
        let layer = GatLayer::new(&mut params, &mut rng, "g0", 3, 5);
        let mut tape = Tape::new();
        let x = tape.constant(Mat::full(4, 3, 0.5));
        let mask = tape.constant(chain_mask(4));
        let y = layer.forward(&mut tape, &params, x, mask);
        assert_eq!(tape.value(y).shape(), (4, 5));
    }

    #[test]
    fn attention_is_local() {
        // Perturbing a node outside the mask neighborhood must not change
        // the output of node 0 (unlike global self-attention).
        let mut params = ParamSet::new();
        let mut rng = InitRng::new(8);
        let layer = GatLayer::new(&mut params, &mut rng, "g0", 3, 3);
        let run = |x: Mat| {
            let mut tape = Tape::new();
            let xv = tape.constant(x);
            let mask = tape.constant(chain_mask(4));
            let y = layer.forward(&mut tape, &params, xv, mask);
            tape.value(y).clone()
        };
        let mut a = Mat::full(4, 3, 0.2);
        let base = run(a.clone());
        a.set(3, 1, 7.0); // node 3 is two hops from node 0
        let pert = run(a);
        assert_eq!(base.row(0), pert.row(0), "GAT must stay local");
        assert_ne!(base.row(2), pert.row(2), "neighbors must react");
    }
}
