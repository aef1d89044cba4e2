//! The TABLE III/IV baseline models.
//!
//! Per the paper's evaluation protocol (§IV-A), every baseline generates
//! node representations with its own layer type, mean-pools them over the
//! wire path's nodes, and predicts slew/delay with an MLP — *without* the
//! path-feature concatenation that is GNNTrans's distinguishing pooling
//! module.

use crate::batch::GraphBatch;
use crate::layers::{GatLayer, Gcn2Layer, Linear, Mlp, TransformerLayer, WSageLayer};
use crate::models::{mean_pool_paths, GraphModel};
use tensor::init::InitRng;
use tensor::{ParamSet, Tape, Var};

/// Shared hyper-parameters for the baselines.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BaselineConfig {
    /// Node feature width `d_x`.
    pub node_dim: usize,
    /// Hidden width.
    pub hidden: usize,
    /// Search depth `L` (the paper uses 20).
    pub layers: usize,
    /// Attention heads (graph transformer only).
    pub heads: usize,
    /// MLP head hidden width.
    pub mlp_hidden: usize,
}

impl Default for BaselineConfig {
    fn default() -> Self {
        BaselineConfig {
            node_dim: 10,
            hidden: 16,
            layers: 20,
            heads: 4,
            mlp_hidden: 32,
        }
    }
}

macro_rules! impl_graph_model {
    ($ty:ident, $name:literal) => {
        impl GraphModel for $ty {
            fn name(&self) -> &str {
                $name
            }
            fn param_set(&self) -> &ParamSet {
                &self.params
            }
            fn param_set_mut(&mut self) -> &mut ParamSet {
                &mut self.params
            }
            fn forward(&self, tape: &mut Tape, batch: &GraphBatch) -> Var {
                let x = self.encode(tape, batch);
                let pooled = mean_pool_paths(tape, x, batch);
                self.head.forward(tape, &self.params, pooled)
            }
        }
    };
}

/// GraphSage (Hamilton et al., 2017): mean aggregation over neighbors.
#[derive(Debug)]
pub struct GraphSageNet {
    params: ParamSet,
    proj: Linear,
    layers: Vec<WSageLayer>,
    head: Mlp,
}

impl GraphSageNet {
    /// Builds the model.
    pub fn new(cfg: &BaselineConfig, seed: u64) -> Self {
        let mut params = ParamSet::new();
        let mut rng = InitRng::new(seed);
        let proj = Linear::new(&mut params, &mut rng, "input", cfg.node_dim, cfg.hidden);
        let layers = (0..cfg.layers)
            .map(|i| WSageLayer::new(&mut params, &mut rng, &format!("sage{i}"), cfg.hidden, cfg.hidden))
            .collect();
        let head = Mlp::new(&mut params, &mut rng, "head", &[cfg.hidden, cfg.mlp_hidden, 2]);
        GraphSageNet {
            params,
            proj,
            layers,
            head,
        }
    }

    fn encode(&self, tape: &mut Tape, batch: &GraphBatch) -> Var {
        let x0 = tape.constant(batch.x.clone());
        // Mean aggregation: binary row-normalized adjacency.
        let adj = tape.constant(batch.adj.dense_mean());
        let mut x = self.proj.forward(tape, &self.params, x0);
        x = tape.relu(x);
        for layer in &self.layers {
            x = layer.forward(tape, &self.params, x, adj);
        }
        x
    }
}
impl_graph_model!(GraphSageNet, "GraphSage");

/// GAT (Veličković et al., 2018): edge-masked attention aggregation.
#[derive(Debug)]
pub struct GatNet {
    params: ParamSet,
    proj: Linear,
    layers: Vec<GatLayer>,
    head: Mlp,
}

impl GatNet {
    /// Builds the model.
    pub fn new(cfg: &BaselineConfig, seed: u64) -> Self {
        let mut params = ParamSet::new();
        let mut rng = InitRng::new(seed);
        let proj = Linear::new(&mut params, &mut rng, "input", cfg.node_dim, cfg.hidden);
        let layers = (0..cfg.layers)
            .map(|i| GatLayer::new(&mut params, &mut rng, &format!("gat{i}"), cfg.hidden, cfg.hidden))
            .collect();
        let head = Mlp::new(&mut params, &mut rng, "head", &[cfg.hidden, cfg.mlp_hidden, 2]);
        GatNet {
            params,
            proj,
            layers,
            head,
        }
    }

    fn encode(&self, tape: &mut Tape, batch: &GraphBatch) -> Var {
        let x0 = tape.constant(batch.x.clone());
        let mask = tape.constant(batch.adj.dense_mask());
        let mut x = self.proj.forward(tape, &self.params, x0);
        x = tape.relu(x);
        for layer in &self.layers {
            x = layer.forward(tape, &self.params, x, mask);
        }
        x
    }
}
impl_graph_model!(GatNet, "GAT");

/// GCNII (Chen et al., 2020): initial residual + identity mapping, the
/// anti-over-smoothing deep GCN.
#[derive(Debug)]
pub struct Gcn2Net {
    params: ParamSet,
    proj: Linear,
    layers: Vec<Gcn2Layer>,
    head: Mlp,
}

impl Gcn2Net {
    /// Builds the model with `alpha = 0.1`, `lambda = 0.5`.
    pub fn new(cfg: &BaselineConfig, seed: u64) -> Self {
        let mut params = ParamSet::new();
        let mut rng = InitRng::new(seed);
        let proj = Linear::new(&mut params, &mut rng, "input", cfg.node_dim, cfg.hidden);
        let layers = (0..cfg.layers)
            .map(|i| {
                Gcn2Layer::new(
                    &mut params,
                    &mut rng,
                    &format!("gcn2_{i}"),
                    cfg.hidden,
                    i + 1,
                    0.1,
                    0.5,
                )
            })
            .collect();
        let head = Mlp::new(&mut params, &mut rng, "head", &[cfg.hidden, cfg.mlp_hidden, 2]);
        Gcn2Net {
            params,
            proj,
            layers,
            head,
        }
    }

    fn encode(&self, tape: &mut Tape, batch: &GraphBatch) -> Var {
        let xin = tape.constant(batch.x.clone());
        let adj = tape.constant(batch.adj.dense_gcn());
        let mut x0 = self.proj.forward(tape, &self.params, xin);
        x0 = tape.relu(x0);
        let mut x = x0;
        for layer in &self.layers {
            x = layer.forward(tape, &self.params, x, x0, adj);
        }
        x
    }
}
impl_graph_model!(Gcn2Net, "GCNII");

/// Graph transformer (Dwivedi & Bresson, 2020): pure attention, no
/// message passing.
#[derive(Debug)]
pub struct GraphTransformerNet {
    params: ParamSet,
    proj: Linear,
    layers: Vec<TransformerLayer>,
    head: Mlp,
}

impl GraphTransformerNet {
    /// Builds the model.
    ///
    /// # Panics
    ///
    /// Panics when `hidden` is not divisible by `heads`.
    pub fn new(cfg: &BaselineConfig, seed: u64) -> Self {
        let mut params = ParamSet::new();
        let mut rng = InitRng::new(seed);
        let proj = Linear::new(&mut params, &mut rng, "input", cfg.node_dim, cfg.hidden);
        let layers = (0..cfg.layers)
            .map(|i| {
                TransformerLayer::new(&mut params, &mut rng, &format!("tr{i}"), cfg.hidden, cfg.heads)
            })
            .collect();
        let head = Mlp::new(&mut params, &mut rng, "head", &[cfg.hidden, cfg.mlp_hidden, 2]);
        GraphTransformerNet {
            params,
            proj,
            layers,
            head,
        }
    }

    fn encode(&self, tape: &mut Tape, batch: &GraphBatch) -> Var {
        let x0 = tape.constant(batch.x.clone());
        let mut x = self.proj.forward(tape, &self.params, x0);
        x = tape.relu(x);
        for layer in &self.layers {
            x = layer.forward(tape, &self.params, x);
        }
        x
    }
}
impl_graph_model!(GraphTransformerNet, "Trans.");

#[cfg(test)]
mod tests {
    use super::*;
    use rcnet::{Farads, Ohms, RcNetBuilder};
    use tensor::Mat;

    fn batch() -> GraphBatch {
        let mut b = RcNetBuilder::new("n");
        let s = b.source("s", Farads(1e-15));
        let k = b.sink("k", Farads(1e-15));
        let k2 = b.sink("k2", Farads(1e-15));
        b.resistor(s, k, Ohms(30.0));
        b.resistor(s, k2, Ohms(60.0));
        let net = b.build().unwrap();
        let x = Mat::full(3, 4, 0.2);
        let pf = vec![Mat::row_vector(vec![1.0]), Mat::row_vector(vec![2.0])];
        GraphBatch::build(&net, x, pf, None).unwrap()
    }

    fn cfg() -> BaselineConfig {
        BaselineConfig {
            node_dim: 4,
            hidden: 8,
            layers: 2,
            heads: 2,
            mlp_hidden: 8,
        }
    }

    #[test]
    fn all_baselines_produce_p_by_2() {
        let b = batch();
        let models: Vec<Box<dyn GraphModel>> = vec![
            Box::new(GraphSageNet::new(&cfg(), 1)),
            Box::new(GatNet::new(&cfg(), 1)),
            Box::new(Gcn2Net::new(&cfg(), 1)),
            Box::new(GraphTransformerNet::new(&cfg(), 1)),
        ];
        for m in &models {
            let out = m.predict(&b);
            assert_eq!(out.shape(), (2, 2), "{} shape", m.name());
            assert!(
                out.as_slice().iter().all(|v| v.is_finite()),
                "{} finite",
                m.name()
            );
        }
    }

    #[test]
    fn names_are_distinct() {
        let names = [
            GraphSageNet::new(&cfg(), 1).name().to_string(),
            GatNet::new(&cfg(), 1).name().to_string(),
            Gcn2Net::new(&cfg(), 1).name().to_string(),
            GraphTransformerNet::new(&cfg(), 1).name().to_string(),
        ];
        let mut sorted = names.to_vec();
        sorted.sort();
        sorted.dedup();
        assert_eq!(sorted.len(), names.len());
    }

    #[test]
    fn paper_depth_20_stays_finite() {
        let deep = BaselineConfig {
            node_dim: 4,
            hidden: 8,
            layers: 20,
            heads: 2,
            mlp_hidden: 8,
        };
        let b = batch();
        let out = Gcn2Net::new(&deep, 2).predict(&b);
        assert!(out.as_slice().iter().all(|v| v.is_finite()));
        let out = GraphSageNet::new(&deep, 2).predict(&b);
        assert!(out.as_slice().iter().all(|v| v.is_finite()));
    }
}
