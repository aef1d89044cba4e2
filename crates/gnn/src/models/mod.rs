//! Wire-timing prediction models.
//!
//! [`GnnTrans`] is the paper's architecture; [`GraphSageNet`],
//! [`GatNet`], [`Gcn2Net`] and [`GraphTransformerNet`] are the TABLE
//! III/IV baselines. All implement [`GraphModel`], predict a `p x 2`
//! matrix (column 0 = slew, column 1 = delay, normalized units) per net,
//! and train through [`crate::train`].

mod baselines;
mod gnntrans;

pub use baselines::{BaselineConfig, GatNet, Gcn2Net, GraphSageNet, GraphTransformerNet};
pub use gnntrans::{GnnTrans, GnnTransConfig};

use crate::batch::GraphBatch;
use tensor::{Mat, ParamSet, Tape, Var};

/// A trainable per-net wire-timing model.
///
/// `Sync` is a supertrait because the training and inference loops run
/// [`GraphModel::forward`] on shared references from multiple threads
/// (see [`crate::train`]); every model here is plain parameter data, so
/// the bound is free.
pub trait GraphModel: Sync {
    /// Human-readable model name (used in result tables).
    fn name(&self) -> &str;

    /// The model's parameters.
    fn param_set(&self) -> &ParamSet;

    /// The model's parameters, mutably (for the optimizer).
    fn param_set_mut(&mut self) -> &mut ParamSet;

    /// Builds the forward pass for one net on `tape`, returning the
    /// `p x 2` prediction node (slew column 0, delay column 1).
    fn forward(&self, tape: &mut Tape, batch: &GraphBatch) -> Var;

    /// Convenience inference: runs [`GraphModel::forward`] on a fresh tape
    /// and returns the prediction values.
    fn predict(&self, batch: &GraphBatch) -> Mat {
        let mut tape = Tape::new();
        let out = self.forward(&mut tape, batch);
        tape.value(out).clone()
    }

    /// This model's layout for the packed engine, when it has one
    /// ([`GnnTrans`] does; baselines return `None` and train on the
    /// tape).
    fn packed_layout(&self) -> Option<crate::infer::Layout> {
        None
    }
}

/// Mean-pools the final node representations over each wire path's nodes,
/// producing one `1 x d` row per path, stacked to `p x d` — the pooling
/// module of eq. (4) without the path-feature concatenation.
pub(crate) fn mean_pool_paths(tape: &mut Tape, x_final: Var, batch: &GraphBatch) -> Var {
    let rows: Vec<Var> = batch
        .paths
        .iter()
        .map(|p| {
            let gathered = tape.gather_rows(x_final, &p.nodes);
            tape.mean_rows(gathered)
        })
        .collect();
    tape.stack_rows(&rows)
}

/// Stacks the raw path features into a `p x d_h` constant.
pub(crate) fn stack_path_features(tape: &mut Tape, batch: &GraphBatch) -> Var {
    let rows: Vec<Var> = batch
        .paths
        .iter()
        .map(|p| tape.constant(p.features.clone()))
        .collect();
    tape.stack_rows(&rows)
}
