//! Static timing analysis substrate.
//!
//! The paper composes circuit path arrival times as the cumulative sum of
//! *gate* delays — interpolated from NLDM lookup tables in the cell
//! library — and *wire* delays from its estimator (§III-A, TABLE V). This
//! crate provides that scaffolding:
//!
//! * [`liberty`] — NLDM-style 2-D lookup tables (input slew × load
//!   capacitance) with bilinear interpolation and clamped extrapolation;
//! * [`cells`] — a built-in parametric cell library (inverters, buffers,
//!   NAND/NOR, DFF end-points) with per-drive-strength tables;
//! * [`wire`] — the per-net [`wire::WireTimer`] abstraction that plugs
//!   any wire timing engine (golden simulator, GNNTrans estimator,
//!   DAC'20…) into arrival-time computation;
//! * [`path`] — multi-stage timing paths (gate → wire → gate → …) and the
//!   arrival-time engine with a per-stage breakdown;
//! * [`netlist`] — a combinational gate netlist with topological
//!   arrival-time propagation.
//!
//! # Examples
//!
//! ```
//! use sta::cells::CellLibrary;
//! use rcnet::{Farads, Seconds};
//!
//! let lib = CellLibrary::builtin();
//! let inv = lib.cell("INV_X1").unwrap();
//! let (delay, slew) = inv.arc().eval(Seconds::from_ps(20.0), Farads::from_ff(4.0));
//! assert!(delay.value() > 0.0 && slew.value() > 0.0);
//! ```

pub mod cells;
pub mod liberty;
pub mod netlist;
pub mod path;
pub mod wire;

pub use cells::{Cell, CellLibrary};
pub use liberty::{Nldm2d, TimingArc};
pub use path::{Stage, TimingPath};
pub use wire::WireTimer;

use std::error::Error;
use std::fmt;

/// Errors from the STA engines.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum StaError {
    /// A lookup table was malformed.
    BadTable(String),
    /// A referenced cell does not exist in the library.
    UnknownCell(String),
    /// The wire timer failed for a net.
    Wire(String),
    /// The netlist is malformed (cycle, dangling reference).
    BadNetlist(String),
}

impl fmt::Display for StaError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            StaError::BadTable(m) => write!(f, "bad lookup table: {m}"),
            StaError::UnknownCell(m) => write!(f, "unknown cell `{m}`"),
            StaError::Wire(m) => write!(f, "wire timing failed: {m}"),
            StaError::BadNetlist(m) => write!(f, "bad netlist: {m}"),
        }
    }
}

impl Error for StaError {}
