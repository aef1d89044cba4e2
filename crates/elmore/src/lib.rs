//! Analytical wire delay metrics.
//!
//! These closed-form metrics serve two roles in the reproduction:
//!
//! 1. **Features** — the paper's TABLE I node features include the *Elmore
//!    downstream capacitance* and *Elmore stage delay*, and its path
//!    features include the *wire path Elmore delay* and *D2M delay*.
//! 2. **Baseline inputs** — the DAC'20 baseline \[5\] feeds manually selected
//!    analytical features into a tree ensemble.
//!
//! Both read [`WireAnalysis`], computed once per net from the [`tree`]
//! recurrences — downstream capacitance, stage delay, Elmore delay and
//! second moment over a source-rooted tree orientation (the shortest-path
//! tree on non-tree nets, loop chords ignored) — with the path D2M delay
//! from [`metrics::d2m`].
//!
//! [`Moments`] is the exact reference: circuit moments `m1..m3` from the
//! MNA system, valid on any topology including resistive loops. The tests
//! hold the tree recurrences to it on tree nets; no feature reads it.
//!
//! # Examples
//!
//! ```
//! use rcnet::{Farads, Ohms, RcNetBuilder};
//! use elmore::{Moments, WireAnalysis};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let mut b = RcNetBuilder::new("n");
//! let s = b.source("d:Z", Farads(1e-15));
//! let k = b.sink("l:A", Farads(10e-15));
//! b.resistor(s, k, Ohms(100.0));
//! let net = b.build()?;
//! // Single RC stage: Elmore delay = R * C_sink, on the tree and exactly.
//! let wa = WireAnalysis::new(&net)?;
//! let d = wa.tree_path_elmore(&net.paths()[0]);
//! assert!((d.value() - 100.0 * 10e-15).abs() < 1e-18);
//! let exact = Moments::new(&net)?;
//! assert!((exact.elmore_delay(k).value() - 100.0 * 10e-15).abs() < 1e-18);
//! # Ok(())
//! # }
//! ```

pub mod analysis;
pub mod metrics;
pub mod moments;
pub mod tree;

pub use analysis::{LoopBreaking, WireAnalysis};
pub use moments::Moments;

use std::error::Error;
use std::fmt;

/// Errors from the analytical engines.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum ElmoreError {
    /// The MNA conductance matrix could not be factorized (degenerate
    /// resistances; see [`Moments::new`]).
    Numeric(String),
}

impl fmt::Display for ElmoreError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ElmoreError::Numeric(m) => write!(f, "numeric failure: {m}"),
        }
    }
}

impl Error for ElmoreError {}

impl From<numeric::NumericError> for ElmoreError {
    fn from(e: numeric::NumericError) -> Self {
        ElmoreError::Numeric(e.to_string())
    }
}
