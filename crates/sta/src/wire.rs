//! The wire-timing abstraction arrival-time computation plugs into.
//!
//! The whole point of the paper is swapping the slow sign-off wire timer
//! for a learned one *without touching the rest of the STA flow*; this
//! trait is that seam. It is per net because every engine behind it —
//! the golden simulator, the GNNTrans estimator, the DAC'20 baseline —
//! times all wire paths of a net in one call. They implement it in the
//! crates that own them, and [`crate::path`] / [`crate::netlist`] are
//! generic over it.

use crate::cells::Cell;
use crate::StaError;
use rcnet::{RcNet, Seconds};

/// Produces the delay and sink slew of every wire path of a net, given
/// the slew at the net's driver pin and, when there is one, the cell
/// that drives it.
pub trait WireTimer {
    /// Returns `(wire delay, sink slew)` for each of `net.paths()`, in
    /// that order. `driver` is `None` for a primary input; engines that
    /// model the driver (simulators, learned estimators) then fall back
    /// to a generic one.
    ///
    /// # Errors
    ///
    /// Returns [`StaError::Wire`] when the engine fails on this net (e.g.
    /// a simulation that does not settle).
    fn time_net(
        &self,
        net: &RcNet,
        input_slew: Seconds,
        driver: Option<&Cell>,
    ) -> Result<Vec<(Seconds, Seconds)>, StaError>;
}

/// The ideal-wire timer: zero delay, slew passes through unchanged.
/// Useful for tests and for isolating gate-only arrival times.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct IdealWire;

impl WireTimer for IdealWire {
    fn time_net(
        &self,
        net: &RcNet,
        input_slew: Seconds,
        _driver: Option<&Cell>,
    ) -> Result<Vec<(Seconds, Seconds)>, StaError> {
        Ok(vec![(Seconds(0.0), input_slew); net.paths().len()])
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rcnet::{Farads, Ohms, RcNetBuilder};

    #[test]
    fn ideal_wire_passes_slew() {
        let mut b = RcNetBuilder::new("n");
        let s = b.source("s", Farads(1e-15));
        let k = b.sink("k", Farads(1e-15));
        b.resistor(s, k, Ohms(1.0));
        let net = b.build().unwrap();
        let rows = IdealWire
            .time_net(&net, Seconds::from_ps(12.0), None)
            .unwrap();
        assert_eq!(rows, [(Seconds(0.0), Seconds::from_ps(12.0))]);
        // A trait object answers the same.
        let dyn_timer: &dyn WireTimer = &IdealWire;
        assert_eq!(
            dyn_timer
                .time_net(&net, Seconds::from_ps(12.0), None)
                .unwrap(),
            rows
        );
    }
}
