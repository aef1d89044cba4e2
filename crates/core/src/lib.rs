//! GNNTrans wire-timing estimator — the paper's contribution, end to end.
//!
//! Given a routed net's parasitic RC network, estimate the **wire slew**
//! and **wire delay** of every wire path (source → sink) without invoking
//! a sign-off timer. The estimator is a [`models`](gnn::models) GNNTrans
//! network trained against the golden transient simulator:
//!
//! * [`features`] — the TABLE I node and path features, extracted from
//!   the RC graph and its [`elmore`] analysis;
//! * [`scaler`] — per-column standardization fitted on the training set;
//! * [`dataset`] — labelled sample building: assign driver/load cells,
//!   run the golden timer, pack [`gnn::GraphBatch`]es;
//! * [`estimator`] — [`WireTimingEstimator`]: train / predict / save /
//!   load, plans A/B/C, the one SPEF → timing pipeline
//!   ([`WireTimingEstimator::predict_spef`]), and an [`sta::WireTimer`]
//!   implementation so the estimator drops into arrival-time computation;
//! * [`dac20`] — the DAC'20 baseline \[5\]: loop-breaking manual features
//!   plus gradient-boosted trees, also an [`sta::WireTimer`];
//! * [`timers`] — the golden simulator as an [`sta::WireTimer`];
//! * [`metrics`] — R² / max-error evaluation over whole designs.
//!
//! # Examples
//!
//! Train on a handful of nets and predict an unseen one:
//!
//! ```no_run
//! use gnntrans::{dataset::DatasetBuilder, estimator::{EstimatorConfig, WireTimingEstimator}};
//! use netgen::nets::{NetConfig, NetGenerator};
//!
//! # fn main() -> Result<(), gnntrans::CoreError> {
//! let mut g = NetGenerator::new(1, NetConfig::default());
//! let train: Vec<_> = (0..50).map(|i| g.net(format!("n{i}"), i % 3 == 0)).collect();
//! let mut builder = DatasetBuilder::new(7);
//! let data = builder.build(&train)?;
//! let mut est = WireTimingEstimator::new(&EstimatorConfig::plan_b_small(), 42);
//! est.train(&data)?;
//! let unseen = g.net("probe", true);
//! let pred = est.predict_net(&unseen, &builder.context_for(&unseen))?;
//! assert_eq!(pred.len(), unseen.paths().len());
//! # Ok(())
//! # }
//! ```

pub mod dac20;
pub mod dataset;
pub mod estimator;
pub mod features;
pub mod metrics;
pub mod scaler;
pub mod timers;

pub use dataset::{Dataset, DatasetBuilder, Sample};
pub use estimator::{EstimatorConfig, NetPrediction, PathEstimate, WireTimingEstimator};
pub use features::NetContext;

use std::error::Error;
use std::fmt;

/// Errors from the estimator pipeline.
#[derive(Debug)]
#[non_exhaustive]
pub enum CoreError {
    /// Golden simulation failed for a net.
    Sim(rcsim::SimError),
    /// Analytical feature extraction failed.
    Elmore(elmore::ElmoreError),
    /// Model-side failure (bad batch, divergence).
    Gnn(gnn::GnnError),
    /// Serialization failure.
    Tensor(tensor::TensorError),
    /// The estimator was used before training.
    NotTrained,
    /// Inconsistent inputs (message explains).
    BadInput(String),
    /// A saved-estimator checkpoint is corrupt, truncated, or
    /// structurally inconsistent (message explains what was wrong).
    Checkpoint(String),
    /// The model predicted a non-finite slew or delay for a net.
    NonFinitePrediction {
        /// The net's name.
        net: String,
    },
}

impl fmt::Display for CoreError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CoreError::Sim(e) => write!(f, "golden simulation failed: {e}"),
            CoreError::Elmore(e) => write!(f, "feature analysis failed: {e}"),
            CoreError::Gnn(e) => write!(f, "model failure: {e}"),
            CoreError::Tensor(e) => write!(f, "serialization failure: {e}"),
            CoreError::NotTrained => write!(f, "estimator has not been trained"),
            CoreError::BadInput(m) => write!(f, "bad input: {m}"),
            CoreError::Checkpoint(m) => write!(f, "bad checkpoint: {m}"),
            CoreError::NonFinitePrediction { net } => {
                write!(f, "model predicted a non-finite value for net `{net}`")
            }
        }
    }
}

impl Error for CoreError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            CoreError::Sim(e) => Some(e),
            CoreError::Elmore(e) => Some(e),
            CoreError::Gnn(e) => Some(e),
            CoreError::Tensor(e) => Some(e),
            _ => None,
        }
    }
}

impl From<rcsim::SimError> for CoreError {
    fn from(e: rcsim::SimError) -> Self {
        CoreError::Sim(e)
    }
}

impl From<elmore::ElmoreError> for CoreError {
    fn from(e: elmore::ElmoreError) -> Self {
        CoreError::Elmore(e)
    }
}

impl From<gnn::GnnError> for CoreError {
    fn from(e: gnn::GnnError) -> Self {
        CoreError::Gnn(e)
    }
}

impl From<tensor::TensorError> for CoreError {
    fn from(e: tensor::TensorError) -> Self {
        CoreError::Tensor(e)
    }
}
