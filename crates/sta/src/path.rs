//! Multi-stage timing paths and arrival-time computation.
//!
//! A circuit timing path alternates gates and wires:
//! `FF/input → cell → wire → cell → wire → … → FF/output`. The paper
//! obtains the path arrival time by "cumulative addition of our estimated
//! wire delay and cell delay from the timing library" (§III-A); this
//! module is that adder, generic over the [`WireTimer`] supplying wire
//! numbers.

use crate::cells::Cell;
use crate::wire::WireTimer;
use crate::StaError;
use rcnet::{Farads, RcNet, Seconds};

/// One stage of a timing path: a driving cell and the net it drives,
/// continued through one selected wire path (sink) of that net.
#[derive(Debug, Clone)]
pub struct Stage {
    /// The driving cell.
    pub cell: Cell,
    /// The driven parasitic net.
    pub net: RcNet,
    /// Index into `net.paths()` selecting which sink the path continues
    /// through.
    pub sink_path: usize,
}

impl Stage {
    /// The capacitive load the driving cell sees: all ground capacitance
    /// of the net plus its coupling capacitance (grounded-aggressor
    /// lumping).
    pub fn load(&self) -> Farads {
        self.net.total_cap() + self.net.total_coupling_cap()
    }
}

/// Per-stage timing breakdown produced by [`TimingPath::arrival`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct StageTiming {
    /// NLDM gate delay of the stage's cell.
    pub gate_delay: Seconds,
    /// Wire delay of the selected wire path.
    pub wire_delay: Seconds,
    /// Slew at the wire path's sink (next stage's input slew).
    pub slew_out: Seconds,
}

/// The result of timing a path.
#[derive(Debug, Clone, PartialEq)]
pub struct PathArrival {
    /// Total arrival time at the path end-point.
    pub arrival: Seconds,
    /// Sum of gate delays.
    pub gate_total: Seconds,
    /// Sum of wire delays.
    pub wire_total: Seconds,
    /// Per-stage breakdown.
    pub stages: Vec<StageTiming>,
}

/// A gate/wire timing path.
///
/// # Examples
///
/// See the crate-level integration tests; constructing a stage needs a
/// cell library and a parasitic net.
#[derive(Debug, Clone, Default)]
pub struct TimingPath {
    stages: Vec<Stage>,
}

impl TimingPath {
    /// Creates a path from its stages.
    pub fn new(stages: Vec<Stage>) -> Self {
        TimingPath { stages }
    }

    /// The stages.
    pub fn stages(&self) -> &[Stage] {
        &self.stages
    }

    /// Number of stages.
    pub fn len(&self) -> usize {
        self.stages.len()
    }

    /// Whether the path has no stages.
    pub fn is_empty(&self) -> bool {
        self.stages.is_empty()
    }

    /// Computes the arrival time at the path end-point starting from the
    /// given input slew, using `timer` for every wire: one
    /// [`WireTimer::time_net`] call per stage, read at its `sink_path`.
    ///
    /// # Errors
    ///
    /// Propagates [`StaError::Wire`] from the wire timer, returns it too
    /// when the timer yields no row for `sink_path`, and returns
    /// [`StaError::BadNetlist`] when a stage's `sink_path` is out of
    /// range.
    pub fn arrival<T: WireTimer + ?Sized>(
        &self,
        timer: &T,
        input_slew: Seconds,
    ) -> Result<PathArrival, StaError> {
        let mut slew = input_slew;
        let mut arrival = Seconds(0.0);
        let mut gate_total = Seconds(0.0);
        let mut wire_total = Seconds(0.0);
        let mut stages = Vec::with_capacity(self.stages.len());
        for (i, stage) in self.stages.iter().enumerate() {
            if stage.sink_path >= stage.net.paths().len() {
                return Err(StaError::BadNetlist(format!(
                    "stage {i}: sink path {} out of range ({} paths)",
                    stage.sink_path,
                    stage.net.paths().len()
                )));
            }
            let (gate_delay, drv_slew) = stage.cell.arc().eval(slew, stage.load());
            let rows = timer.time_net(&stage.net, drv_slew, Some(&stage.cell))?;
            let &(wire_delay, sink_slew) = rows.get(stage.sink_path).ok_or_else(|| {
                StaError::Wire(format!(
                    "stage {i}: {} timing rows, no sink path {}",
                    rows.len(),
                    stage.sink_path
                ))
            })?;
            arrival += gate_delay + wire_delay;
            gate_total += gate_delay;
            wire_total += wire_delay;
            slew = sink_slew;
            stages.push(StageTiming {
                gate_delay,
                wire_delay,
                slew_out: sink_slew,
            });
        }
        Ok(PathArrival {
            arrival,
            gate_total,
            wire_total,
            stages,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cells::CellLibrary;
    use crate::wire::IdealWire;
    use rcnet::{Ohms, RcNetBuilder};

    fn small_net(name: &str, r: f64, c_ff: f64) -> RcNet {
        let mut b = RcNetBuilder::new(name);
        let s = b.source(format!("{name}:drv"), Farads::from_ff(0.3));
        let k = b.sink(format!("{name}:load"), Farads::from_ff(c_ff));
        b.resistor(s, k, Ohms(r));
        b.build().unwrap()
    }

    fn two_stage_path() -> TimingPath {
        let lib = CellLibrary::builtin();
        TimingPath::new(vec![
            Stage {
                cell: lib.cell("BUF_X2").unwrap().clone(),
                net: small_net("n1", 80.0, 2.0),
                sink_path: 0,
            },
            Stage {
                cell: lib.cell("INV_X1").unwrap().clone(),
                net: small_net("n2", 120.0, 3.0),
                sink_path: 0,
            },
        ])
    }

    #[test]
    fn arrival_sums_gate_delays_with_ideal_wire() {
        let p = two_stage_path();
        let out = p.arrival(&IdealWire, Seconds::from_ps(15.0)).unwrap();
        assert_eq!(out.stages.len(), 2);
        assert_eq!(out.wire_total, Seconds(0.0));
        assert!(out.gate_total.value() > 0.0);
        let sum: f64 = out.stages.iter().map(|s| s.gate_delay.value()).sum();
        assert!((out.arrival.value() - sum).abs() < 1e-18);
    }

    #[test]
    fn slew_propagates_between_stages() {
        let p = two_stage_path();
        let fast = p.arrival(&IdealWire, Seconds::from_ps(5.0)).unwrap();
        let slow = p.arrival(&IdealWire, Seconds::from_ps(150.0)).unwrap();
        // A slower input slew slows the first gate, whose larger output
        // slew slows the second gate too.
        assert!(slow.arrival > fast.arrival);
        assert!(slow.stages[1].gate_delay > fast.stages[1].gate_delay);
    }

    #[test]
    fn rejects_out_of_range_sink() {
        let lib = CellLibrary::builtin();
        let p = TimingPath::new(vec![Stage {
            cell: lib.cell("BUF_X1").unwrap().clone(),
            net: small_net("n", 10.0, 1.0),
            sink_path: 5,
        }]);
        assert!(matches!(
            p.arrival(&IdealWire, Seconds::from_ps(10.0)),
            Err(StaError::BadNetlist(_))
        ));
    }

    #[test]
    fn empty_path_has_zero_arrival() {
        let p = TimingPath::default();
        assert!(p.is_empty());
        assert_eq!(p.len(), 0);
        let out = p.arrival(&IdealWire, Seconds::from_ps(10.0)).unwrap();
        assert_eq!(out.arrival, Seconds(0.0));
    }

    #[test]
    fn stage_load_includes_coupling() {
        let mut b = RcNetBuilder::new("n");
        let s = b.source("s", Farads::from_ff(1.0));
        let k = b.sink("k", Farads::from_ff(1.0));
        b.resistor(s, k, Ohms(10.0));
        b.coupling(k, "agg", Farads::from_ff(2.0));
        let net = b.build().unwrap();
        let lib = CellLibrary::builtin();
        let stage = Stage {
            cell: lib.cell("BUF_X1").unwrap().clone(),
            net,
            sink_path: 0,
        };
        assert!((stage.load().femto_farads() - 4.0).abs() < 1e-9);
    }
}
