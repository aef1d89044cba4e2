//! Parasitic RC network model for wire timing estimation.
//!
//! A routed net's parasitics form an *RC graph* `G = (V, E, P)` (paper §II-B):
//! every node carries a ground capacitance, every edge is a resistance, and
//! every *wire path* in `P` runs from the unique driver (source) to one of
//! the sinks. This crate provides:
//!
//! * [`RcNet`] / [`RcNetBuilder`] — the network itself, with validation,
//!   CSR adjacency, and the shortest-path tree its wire paths follow with
//!   each node's distance from the source;
//! * [`topology`] — resistance-weighted shortest paths (Dijkstra) and
//!   source-rooted tree orientations (shortest-path or depth-first);
//! * [`path`] — wire paths (tree traversal, or shortest path on non-tree
//!   nets per Definition 1 of the paper);
//! * [`spef`] — a from-scratch SPEF (IEEE 1481) subset parser and writer so
//!   externally extracted parasitics can be ingested and round-tripped.
//!
//! # Examples
//!
//! ```
//! use rcnet::{Farads, Ohms, RcNetBuilder};
//!
//! # fn main() -> Result<(), rcnet::RcNetError> {
//! let mut b = RcNetBuilder::new("net0");
//! let s = b.source("drv:Z", Farads(1e-15));
//! let m = b.internal("net0:1", Farads(2e-15));
//! let k = b.sink("load:A", Farads(3e-15));
//! b.resistor(s, m, Ohms(10.0));
//! b.resistor(m, k, Ohms(20.0));
//! let net = b.build()?;
//! assert!(net.is_tree());
//! assert_eq!(net.paths().len(), 1);
//! # Ok(())
//! # }
//! ```

pub mod hash;
pub mod net;
pub mod path;
pub mod spef;
pub mod topology;
mod units;

pub use hash::{content_hash, Fnv1a};
pub use net::{CouplingCap, EdgeId, NodeId, NodeKind, RcEdge, RcNet, RcNetBuilder, RcNode};
pub use path::WirePath;
pub use units::{Farads, Ohms, Seconds, Volts};

use std::error::Error;
use std::fmt;

/// Errors produced while constructing or parsing RC networks.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum RcNetError {
    /// The net failed structural validation (message explains the violation).
    InvalidNet(String),
    /// A SPEF document could not be parsed; carries line number and message.
    SpefParse {
        /// 1-based line where the parse failed.
        line: usize,
        /// What went wrong.
        message: String,
    },
    /// I/O failure while reading or writing SPEF.
    Io(String),
}

impl fmt::Display for RcNetError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RcNetError::InvalidNet(msg) => write!(f, "invalid RC net: {msg}"),
            RcNetError::SpefParse { line, message } => {
                write!(f, "SPEF parse error at line {line}: {message}")
            }
            RcNetError::Io(msg) => write!(f, "I/O error: {msg}"),
        }
    }
}

impl Error for RcNetError {}

impl From<std::io::Error> for RcNetError {
    fn from(e: std::io::Error) -> Self {
        RcNetError::Io(e.to_string())
    }
}
