//! Minimal reverse-mode automatic differentiation over dense `f32`
//! matrices.
//!
//! The paper trains its models in PyTorch; no comparable Rust stack is
//! available offline, so this crate implements the small slice of a deep
//! learning framework that the GNNTrans equations (1)–(6) and the baseline
//! models actually need:
//!
//! * [`Mat`] — a dense `f32` matrix with the usual kernels;
//! * [`Tape`] — a gradient tape: build a computation with matmuls,
//!   activations, softmax attention, row gathers, concatenations and an
//!   MSE loss, then call [`Tape::backward`] to populate gradients;
//! * [`optim`] — SGD and Adam over a named [`ParamSet`];
//! * [`init`] — deterministic Xavier/He initialization (internal
//!   SplitMix64 stream, no external RNG dependency);
//! * [`serialize`] — a little-endian binary save/load format for
//!   parameter sets;
//! * [`infer`] — tape-free forward-only ops over a reusable buffer
//!   [`infer::Arena`] for the serving hot path (bit-identical to the
//!   tape forward);
//! * [`kernels`] — the blocked GEMM, the CSR aggregation kernels and the
//!   column-wise attention softmax, whose vector `expf` is glibc's bit
//!   for bit;
//! * [`sparse`] — an `f32` CSR matrix, the adjacency operand of the
//!   packed aggregation kernels ([`infer::spmm_seg_into`],
//!   [`grad::spmm_tn_seg_into`]), which sum exactly like the dense GEMM;
//! * [`grad`] — tape-free backward kernels (matmul grads via fused
//!   `gemm_tn`/`gemm_nt`, segment-masked softmax backward, layer-norm
//!   backward, segment mean-rows backward) so packed training runs
//!   without tape construction, pinned to [`Tape`] gradients.
//!
//! Every differentiable operation is verified against finite differences
//! in the test suite.
//!
//! # Examples
//!
//! Fit `y = 2x` with one weight:
//!
//! ```
//! use tensor::{Mat, Tape, optim::Sgd, ParamSet};
//!
//! let mut params = ParamSet::new();
//! let w = params.add("w", Mat::zeros(1, 1));
//! let mut sgd = Sgd::new(0.1);
//! for _ in 0..100 {
//!     let mut tape = Tape::new();
//!     let wv = tape.param(w, params.get(w).clone());
//!     let x = tape.constant(Mat::from_vec(4, 1, vec![1.0, 2.0, 3.0, 4.0]).unwrap());
//!     let pred = tape.matmul(x, wv);
//!     let target = Mat::from_vec(4, 1, vec![2.0, 4.0, 6.0, 8.0]).unwrap();
//!     let loss = tape.mse_loss(pred, &target);
//!     tape.backward(loss);
//!     sgd.step(&mut params, &tape.param_grads());
//! }
//! assert!((params.get(w).get(0, 0) - 2.0).abs() < 1e-3);
//! ```

pub mod grad;
pub mod infer;
pub mod init;
pub mod kernels;
pub mod mat;
pub mod optim;
pub mod serialize;
pub mod sparse;
pub mod tape;

pub use mat::Mat;
pub use optim::ParamSet;
pub use tape::{Tape, Var};

use std::error::Error;
use std::fmt;

/// Errors from tensor construction and serialization.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum TensorError {
    /// Operand shapes are incompatible.
    ShapeMismatch {
        /// Description of the failed operation and shapes.
        message: String,
    },
    /// Construction input was inconsistent.
    InvalidInput(String),
    /// A serialized parameter file was malformed.
    BadFormat(String),
    /// Underlying I/O failure.
    Io(String),
}

impl fmt::Display for TensorError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TensorError::ShapeMismatch { message } => write!(f, "shape mismatch: {message}"),
            TensorError::InvalidInput(m) => write!(f, "invalid input: {m}"),
            TensorError::BadFormat(m) => write!(f, "bad format: {m}"),
            TensorError::Io(m) => write!(f, "I/O error: {m}"),
        }
    }
}

impl Error for TensorError {}

impl From<std::io::Error> for TensorError {
    fn from(e: std::io::Error) -> Self {
        TensorError::Io(e.to_string())
    }
}
