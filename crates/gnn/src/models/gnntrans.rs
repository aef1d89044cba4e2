//! GNNTrans — the paper's architecture (Fig. 4).
//!
//! `L1` edge-weighted GNN layers learn local structure (eq. 1), `L2`
//! multi-head self-attention layers learn global relationships
//! (eqs. 2–3), the pooling module forms per-path representations by
//! concatenating mean node embeddings with the raw path features
//! (eq. 4), and two MLP heads predict slew (eq. 5) and then delay
//! conditioned on the predicted slew (eq. 6).

use crate::batch::GraphBatch;
use crate::layers::{Linear, MhsaLayer, Mlp, WSageLayer};
use crate::models::{mean_pool_paths, stack_path_features, GraphModel};
use tensor::init::InitRng;
use tensor::{ParamSet, Tape, Var};

/// Hyper-parameters of [`GnnTrans`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct GnnTransConfig {
    /// Node feature width `d_x`.
    pub node_dim: usize,
    /// Path feature width `d_h`.
    pub path_dim: usize,
    /// Hidden width of node representations.
    pub hidden: usize,
    /// `L1`: number of GNN layers.
    pub gnn_layers: usize,
    /// `L2`: number of graph-transformer layers.
    pub attn_layers: usize,
    /// Attention heads per transformer layer.
    pub heads: usize,
    /// Hidden width of the two MLP heads.
    pub mlp_hidden: usize,
    /// Concatenate raw path features into the path representation
    /// (eq. 4). Disabling this is the paper's key ablation: the model
    /// degrades to baseline-style pooling.
    pub path_features: bool,
    /// Weight neighbor aggregation by resistance (eq. 1). When disabled
    /// the layer degenerates to vanilla mean aggregation.
    pub weighted_aggregation: bool,
    /// Apply (non-affine) layer norm inside attention blocks for deep-
    /// stack stability.
    pub attn_norm: bool,
}

impl Default for GnnTransConfig {
    /// The paper's PlanB shape (`L1=20, L2=10`) at a CPU-sized hidden
    /// width.
    fn default() -> Self {
        GnnTransConfig {
            node_dim: 10,
            path_dim: 10,
            hidden: 16,
            gnn_layers: 20,
            attn_layers: 10,
            heads: 4,
            mlp_hidden: 32,
            path_features: true,
            weighted_aggregation: true,
            attn_norm: true,
        }
    }
}

/// The GNNTrans model.
///
/// # Examples
///
/// ```
/// use gnn::models::{GnnTrans, GnnTransConfig};
/// use gnn::GraphModel;
///
/// let cfg = GnnTransConfig { node_dim: 4, path_dim: 2, hidden: 8,
///                            gnn_layers: 2, attn_layers: 1, heads: 2,
///                            ..Default::default() };
/// let model = GnnTrans::new(&cfg, 1);
/// assert_eq!(model.name(), "GNNTrans");
/// ```
#[derive(Debug, Clone)]
pub struct GnnTrans {
    cfg: GnnTransConfig,
    params: ParamSet,
    input_proj: Linear,
    gnn: Vec<WSageLayer>,
    attn: Vec<MhsaLayer>,
    slew_head: Mlp,
    delay_head: Mlp,
}

impl GnnTrans {
    /// Builds the model with deterministic initialization from `seed`.
    ///
    /// # Panics
    ///
    /// Panics when `hidden` is not divisible by `heads`.
    pub fn new(cfg: &GnnTransConfig, seed: u64) -> Self {
        let mut params = ParamSet::new();
        let mut rng = InitRng::new(seed);
        let input_proj = Linear::new(&mut params, &mut rng, "input", cfg.node_dim, cfg.hidden);
        let gnn = (0..cfg.gnn_layers)
            .map(|i| WSageLayer::new(&mut params, &mut rng, &format!("gnn{i}"), cfg.hidden, cfg.hidden))
            .collect();
        let attn = (0..cfg.attn_layers)
            .map(|i| {
                MhsaLayer::new(
                    &mut params,
                    &mut rng,
                    &format!("attn{i}"),
                    cfg.hidden,
                    cfg.heads,
                    cfg.attn_norm,
                )
            })
            .collect();
        let pooled_dim = cfg.hidden + if cfg.path_features { cfg.path_dim } else { 0 };
        let slew_head = Mlp::new(
            &mut params,
            &mut rng,
            "slew",
            &[pooled_dim, cfg.mlp_hidden, 1],
        );
        let delay_head = Mlp::new(
            &mut params,
            &mut rng,
            "delay",
            &[pooled_dim + 1, cfg.mlp_hidden, 1],
        );
        GnnTrans {
            cfg: cfg.clone(),
            params,
            input_proj,
            gnn,
            attn,
            slew_head,
            delay_head,
        }
    }

    /// The configuration.
    pub fn config(&self) -> &GnnTransConfig {
        &self.cfg
    }

    /// Input projection (for tape-free compilation).
    pub(crate) fn input_proj(&self) -> &Linear {
        &self.input_proj
    }

    /// GNN layer stack (for tape-free compilation).
    pub(crate) fn gnn_stack(&self) -> &[WSageLayer] {
        &self.gnn
    }

    /// Attention layer stack (for tape-free compilation).
    pub(crate) fn attn_stack(&self) -> &[MhsaLayer] {
        &self.attn
    }

    /// Slew head (for tape-free compilation).
    pub(crate) fn slew_head(&self) -> &Mlp {
        &self.slew_head
    }

    /// Delay head (for tape-free compilation).
    pub(crate) fn delay_head(&self) -> &Mlp {
        &self.delay_head
    }
}

impl GraphModel for GnnTrans {
    fn name(&self) -> &str {
        "GNNTrans"
    }

    fn param_set(&self) -> &ParamSet {
        &self.params
    }

    fn packed_layout(&self) -> Option<crate::infer::Layout> {
        Some(crate::infer::Layout::compile(self))
    }

    fn param_set_mut(&mut self) -> &mut ParamSet {
        &mut self.params
    }

    fn forward(&self, tape: &mut Tape, batch: &GraphBatch) -> Var {
        let x0 = tape.constant(batch.x.clone());
        let adj = if self.cfg.weighted_aggregation {
            tape.constant(batch.adj.dense_res())
        } else {
            tape.constant(batch.adj.dense_mean())
        };
        let mut x = self.input_proj.forward(tape, &self.params, x0);
        x = tape.relu(x);
        for layer in &self.gnn {
            x = layer.forward(tape, &self.params, x, adj);
        }
        for layer in &self.attn {
            x = layer.forward(tape, &self.params, x);
        }
        // Pooling (eq. 4): mean node reps per path, concat path features.
        let pooled = mean_pool_paths(tape, x, batch);
        let f = if self.cfg.path_features {
            let h = stack_path_features(tape, batch);
            tape.concat_cols(pooled, h)
        } else {
            pooled
        };
        // Eq. (5): slew from the path representation.
        let slew = self.slew_head.forward(tape, &self.params, f);
        // Eq. (6): delay from the representation plus the predicted slew.
        let delay_in = tape.concat_cols(f, slew);
        let delay = self.delay_head.forward(tape, &self.params, delay_in);
        tape.concat_cols(slew, delay)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rcnet::{Farads, Ohms, RcNetBuilder};
    use tensor::Mat;

    fn tiny_cfg() -> GnnTransConfig {
        GnnTransConfig {
            node_dim: 3,
            path_dim: 2,
            hidden: 8,
            gnn_layers: 2,
            attn_layers: 1,
            heads: 2,
            mlp_hidden: 8,
            ..Default::default()
        }
    }

    fn batch() -> GraphBatch {
        let mut b = RcNetBuilder::new("n");
        let s = b.source("s", Farads(1e-15));
        let m = b.internal("m", Farads(1e-15));
        let k1 = b.sink("k1", Farads(1e-15));
        let k2 = b.sink("k2", Farads(1e-15));
        b.resistor(s, m, Ohms(30.0));
        b.resistor(m, k1, Ohms(40.0));
        b.resistor(m, k2, Ohms(50.0));
        let net = b.build().unwrap();
        let x = Mat::full(4, 3, 0.25);
        let pf = vec![
            Mat::row_vector(vec![0.1, 0.2]),
            Mat::row_vector(vec![0.3, 0.4]),
        ];
        GraphBatch::build(&net, x, pf, None).unwrap()
    }

    #[test]
    fn forward_produces_one_row_per_path() {
        let model = GnnTrans::new(&tiny_cfg(), 3);
        let out = model.predict(&batch());
        assert_eq!(out.shape(), (2, 2));
        assert!(out.as_slice().iter().all(|v| v.is_finite()));
    }

    #[test]
    fn deterministic_from_seed() {
        let a = GnnTrans::new(&tiny_cfg(), 5).predict(&batch());
        let b = GnnTrans::new(&tiny_cfg(), 5).predict(&batch());
        assert_eq!(a, b);
        let c = GnnTrans::new(&tiny_cfg(), 6).predict(&batch());
        assert_ne!(a, c);
    }

    #[test]
    fn path_features_matter() {
        let with = GnnTrans::new(&tiny_cfg(), 5);
        let cfg_no = GnnTransConfig {
            path_features: false,
            ..tiny_cfg()
        };
        let without = GnnTrans::new(&cfg_no, 5);
        // With path features off, identical paths through identical node
        // sets would collapse; here the two paths share all but the last
        // node, so both still differ, but the parameter count must shrink.
        assert!(without.param_set().scalar_count() < with.param_set().scalar_count());
        let out = without.predict(&batch());
        assert_eq!(out.shape(), (2, 2));
    }

    #[test]
    fn deep_paper_shape_stays_finite() {
        // The paper's PlanB depth (L1=20, L2=10) at small width: the
        // forward pass must not explode or vanish to NaN.
        let cfg = GnnTransConfig {
            node_dim: 3,
            path_dim: 2,
            hidden: 8,
            heads: 2,
            mlp_hidden: 8,
            ..Default::default()
        };
        assert_eq!(cfg.gnn_layers, 20);
        assert_eq!(cfg.attn_layers, 10);
        let model = GnnTrans::new(&cfg, 11);
        let out = model.predict(&batch());
        assert!(out.as_slice().iter().all(|v| v.is_finite()));
    }
}
