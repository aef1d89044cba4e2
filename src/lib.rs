//! Facade crate for the GNNTrans wire-timing reproduction.
//!
//! Re-exports every workspace crate under one roof so examples and
//! integration tests can say `use wire_timing::...`. See the individual
//! crates for the real APIs:
//!
//! * [`rcnet`] — parasitic RC networks, wire paths, SPEF I/O
//! * [`elmore`] — analytical delay metrics (tree Elmore/D2M, exact moments)
//! * [`rcsim`] — golden transient simulator with SI coupling
//! * [`tensor`] — minimal reverse-mode autograd
//! * [`gnn`] — GNNTrans and the baseline graph-learning models
//! * [`netgen`] — synthetic parasitics and benchmark designs
//! * [`sta`] — NLDM cell library and arrival-time propagation
//! * [`gnntrans`] — the end-to-end wire-timing estimator (the paper's
//!   contribution)
//! * [`numeric`] — linear algebra and statistics substrate

pub use elmore;
pub use gnn;
pub use gnntrans;
pub use netgen;
pub use numeric;
pub use par;
pub use rcnet;
pub use rcsim;
pub use sta;
pub use tensor;
