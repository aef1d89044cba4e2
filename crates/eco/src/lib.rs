//! Incremental ECO timing engine.
//!
//! The paper's target workload is an optimizer *inside* the timing loop:
//! resize a driver, insert a buffer, tweak a wire — and re-time only what
//! changed, thousands of times per design. The stateless `/v1/predict`
//! path re-featurizes and re-infers the whole input every call; this
//! crate keeps the design resident instead:
//!
//! * [`session::DesignSession`] — a loaded design (gate netlist + per-net
//!   parasitics) with its current arrival-time solution. Edits
//!   ([`edit::EcoEdit`]) dirty the touched nets plus their downstream
//!   cone ([`sta::netlist::Netlist::downstream_nets`]); only that cone is
//!   re-leveled.
//! * [`cache::PredictionCache`] — a sharded LRU keyed by the canonical
//!   net content hash ([`rcnet::hash::content_hash`]) combined with the
//!   driver/load context hash and the model generation, so unchanged
//!   nets cost a hash probe instead of a model inference, and a model
//!   hot-reload can never serve stale predictions.
//! * [`manager::SessionManager`] — named concurrent sessions under a
//!   byte budget. Each session keeps an epoch-tagged undo log per
//!   applied batch, so a rejected ECO rolls back exactly, at the cost of
//!   what the batch changed.
//!
//! The `serve` crate exposes this as `POST /v1/session`,
//! `POST /v1/session/{id}/eco`, `GET /v1/session/{id}/timing` and
//! `DELETE /v1/session/{id}`.

pub mod cache;
pub mod design;
pub mod edit;
pub mod manager;
pub mod session;

pub use cache::{CacheStats, PredictionCache};
pub use edit::EcoEdit;
pub use manager::{ManagerStats, SessionManager};
pub use session::{DesignSession, EcoReport, RetimeStats, TimingSummary};

use std::error::Error;
use std::fmt;

/// Errors produced by the ECO engine.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum EcoError {
    /// The design could not be built (bad spec, bad SPEF, cyclic netlist).
    BadDesign(String),
    /// An edit referenced a net name the design does not have.
    UnknownNet(String),
    /// An edit referenced a node name the named net does not have.
    UnknownNode {
        /// The net searched.
        net: String,
        /// The missing node.
        node: String,
    },
    /// An edit referenced a cell the library does not have.
    UnknownCell(String),
    /// The session id does not exist (or was evicted).
    UnknownSession(String),
    /// A rollback targeted an epoch with no retained rollback point.
    UnknownEpoch(u64),
    /// The edit is structurally invalid for this design.
    BadEdit(String),
    /// Netlist-level failure (cycle, disconnected pin).
    Sta(String),
    /// Model-level failure (untrained, feature extraction).
    Model(String),
    /// RC-network rebuild failure after an edit.
    Net(String),
}

impl fmt::Display for EcoError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            EcoError::BadDesign(m) => write!(f, "bad design: {m}"),
            EcoError::UnknownNet(n) => write!(f, "unknown net `{n}`"),
            EcoError::UnknownNode { net, node } => {
                write!(f, "net `{net}` has no node `{node}`")
            }
            EcoError::UnknownCell(c) => write!(f, "unknown cell `{c}`"),
            EcoError::UnknownSession(s) => write!(f, "unknown session `{s}`"),
            EcoError::UnknownEpoch(e) => write!(f, "no snapshot retained for epoch {e}"),
            EcoError::BadEdit(m) => write!(f, "bad edit: {m}"),
            EcoError::Sta(m) => write!(f, "netlist error: {m}"),
            EcoError::Model(m) => write!(f, "model error: {m}"),
            EcoError::Net(m) => write!(f, "RC edit error: {m}"),
        }
    }
}

impl Error for EcoError {}

impl From<sta::StaError> for EcoError {
    fn from(e: sta::StaError) -> Self {
        EcoError::Sta(e.to_string())
    }
}

impl From<gnntrans::CoreError> for EcoError {
    fn from(e: gnntrans::CoreError) -> Self {
        EcoError::Model(e.to_string())
    }
}

impl From<rcnet::RcNetError> for EcoError {
    fn from(e: rcnet::RcNetError) -> Self {
        EcoError::Net(e.to_string())
    }
}
