//! Graph-learning models for wire timing.
//!
//! Implements the paper's **GNNTrans** architecture and every baseline it
//! compares against, all on top of the [`tensor`] autograd crate:
//!
//! * [`batch`] — packs one RC net into the tensors the models consume
//!   (node features, four adjacency variants, per-path node lists and
//!   path features);
//! * [`layers`] — the building blocks: the edge-weighted GraphSage-style
//!   layer of eq. (1), the multi-head self-attention layer of
//!   eqs. (2)–(3), plus GAT, GCNII and Dwivedi–Bresson transformer layers
//!   for the baselines;
//! * [`models`] — [`models::GnnTrans`] (GNN → graph transformer → path
//!   pooling with path features → slew MLP → delay MLP conditioned on
//!   slew) and the GraphSage / GAT / GCNII / Graph-Transformer baselines
//!   with plain mean pooling;
//! * [`gbdt`] — gradient-boosted regression trees, the ML engine behind
//!   the DAC'20 \[5\] baseline;
//! * [`infer`] — the packed GNNTrans engine: one forward over K nets
//!   stacked into tall matrices, shared by serving and training;
//! * [`grad`] — its training step: analytic backward through the
//!   segment-packed kernels, one tall GEMM per layer in both directions;
//! * [`train`] — the MSE training loop (Adam) shared by all graph models:
//!   packed for GNNTrans, one autograd tape per graph (the gradient
//!   oracle) for the baselines.
//!
//! # Examples
//!
//! ```
//! use gnn::models::{GnnTrans, GnnTransConfig};
//! use gnn::GraphModel;
//!
//! let cfg = GnnTransConfig { node_dim: 4, path_dim: 3, hidden: 8, gnn_layers: 2,
//!                            attn_layers: 1, heads: 2, ..Default::default() };
//! let model = GnnTrans::new(&cfg, 42);
//! assert!(model.param_set().scalar_count() > 0);
//! ```

pub mod batch;
pub mod gbdt;
pub mod grad;
pub mod infer;
pub mod layers;
pub mod models;
pub mod train;

pub use batch::{Adjacency, GraphBatch, PathSpec};
pub use models::GraphModel;

use std::error::Error;
use std::fmt;

/// Errors from model construction and training.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum GnnError {
    /// A batch was inconsistent (shape mismatch, empty paths…).
    BadBatch(String),
    /// A model configuration was invalid.
    BadConfig(String),
    /// Training diverged (non-finite loss).
    Diverged {
        /// Epoch at which the loss became non-finite.
        epoch: usize,
    },
}

impl fmt::Display for GnnError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            GnnError::BadBatch(m) => write!(f, "bad batch: {m}"),
            GnnError::BadConfig(m) => write!(f, "bad config: {m}"),
            GnnError::Diverged { epoch } => write!(f, "training diverged at epoch {epoch}"),
        }
    }
}

impl Error for GnnError {}
