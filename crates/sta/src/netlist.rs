//! Combinational gate netlist with topological arrival-time propagation.
//!
//! Nets are logical here; each carries its parasitic [`RcNet`] whose sinks
//! align position-wise with the net's fanout pins. Arrival propagation
//! walks a Kahn topological order: a gate's output arrival is the max over
//! its input pins of `input arrival + NLDM gate delay`, and each fanout
//! pin adds its wire-path delay from the pluggable [`WireTimer`], which
//! times each net once.

use crate::cells::Cell;
use crate::wire::WireTimer;
use crate::StaError;
use rcnet::{RcNet, Seconds};

/// Identifier of a logical net within a [`Netlist`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct NetId(pub usize);

/// Identifier of a gate instance within a [`Netlist`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct GateId(pub usize);

/// A gate instance.
#[derive(Debug, Clone)]
pub struct GateInst {
    /// The library cell.
    pub cell: Cell,
    /// Input nets (the gate is a sink of each).
    pub inputs: Vec<NetId>,
    /// Output net (the gate drives it).
    pub output: NetId,
}

/// A logical net with its parasitics.
#[derive(Debug, Clone)]
pub struct NetInst {
    /// Parasitic network; `rc.sinks()[i]` is fanout pin `i`.
    pub rc: RcNet,
    /// Driving gate (`None` for primary inputs).
    pub driver: Option<GateId>,
    /// Fanout gates, aligned with `rc.sinks()` (missing entries are
    /// primary outputs).
    pub fanout: Vec<Option<GateId>>,
}

/// Per-net timing produced by [`Netlist::propagate`].
#[derive(Debug, Clone, PartialEq)]
pub struct NetTiming {
    /// Arrival time and slew at the net's driver pin.
    pub at_driver: (Seconds, Seconds),
    /// Arrival time and slew at each sink, aligned with `rc.sinks()`.
    pub at_sinks: Vec<(Seconds, Seconds)>,
}

/// A combinational netlist.
#[derive(Debug, Clone, Default)]
pub struct Netlist {
    gates: Vec<GateInst>,
    nets: Vec<NetInst>,
    primary_inputs: Vec<NetId>,
}

impl Netlist {
    /// Creates an empty netlist.
    pub fn new() -> Self {
        Netlist::default()
    }

    /// Adds a primary-input net.
    pub fn add_primary_input(&mut self, rc: RcNet) -> NetId {
        let id = NetId(self.nets.len());
        let fanout = vec![None; rc.sinks().len()];
        self.nets.push(NetInst {
            rc,
            driver: None,
            fanout,
        });
        self.primary_inputs.push(id);
        id
    }

    /// Adds a gate driving a new net; `inputs` are `(net, sink position)`
    /// pairs wiring each input pin to one sink of an existing net.
    ///
    /// # Errors
    ///
    /// Returns [`StaError::BadNetlist`] when a referenced net or sink
    /// position does not exist or the sink is already connected.
    pub fn add_gate(
        &mut self,
        cell: Cell,
        inputs: &[(NetId, usize)],
        output_rc: RcNet,
    ) -> Result<(GateId, NetId), StaError> {
        let gid = GateId(self.gates.len());
        for &(net, pos) in inputs {
            let ni = self
                .nets
                .get_mut(net.0)
                .ok_or_else(|| StaError::BadNetlist(format!("no net {net:?}")))?;
            let slot = ni.fanout.get_mut(pos).ok_or_else(|| {
                StaError::BadNetlist(format!("net {net:?} has no sink position {pos}"))
            })?;
            if slot.is_some() {
                return Err(StaError::BadNetlist(format!(
                    "net {net:?} sink {pos} already connected"
                )));
            }
            *slot = Some(gid);
        }
        let out_id = NetId(self.nets.len());
        let fanout = vec![None; output_rc.sinks().len()];
        self.nets.push(NetInst {
            rc: output_rc,
            driver: Some(gid),
            fanout,
        });
        self.gates.push(GateInst {
            cell,
            inputs: inputs.iter().map(|&(n, _)| n).collect(),
            output: out_id,
        });
        Ok((gid, out_id))
    }

    /// Gates in insertion order.
    pub fn gates(&self) -> &[GateInst] {
        &self.gates
    }

    /// Nets in insertion order.
    pub fn nets(&self) -> &[NetInst] {
        &self.nets
    }

    /// Primary-input nets.
    pub fn primary_inputs(&self) -> &[NetId] {
        &self.primary_inputs
    }

    /// Kahn topological order over gates.
    ///
    /// # Errors
    ///
    /// Returns [`StaError::BadNetlist`] when the netlist contains a cycle.
    pub fn topo_order(&self) -> Result<Vec<GateId>, StaError> {
        let mut indegree: Vec<usize> = self
            .gates
            .iter()
            .map(|g| {
                g.inputs
                    .iter()
                    .filter(|n| self.nets[n.0].driver.is_some())
                    .count()
            })
            .collect();
        let mut queue: std::collections::VecDeque<usize> = indegree
            .iter()
            .enumerate()
            .filter(|&(_, &d)| d == 0)
            .map(|(i, _)| i)
            .collect();
        let mut order = Vec::with_capacity(self.gates.len());
        while let Some(g) = queue.pop_front() {
            order.push(GateId(g));
            let out = self.gates[g].output;
            for fo in self.nets[out.0].fanout.iter().flatten() {
                indegree[fo.0] -= 1;
                if indegree[fo.0] == 0 {
                    queue.push_back(fo.0);
                }
            }
        }
        if order.len() != self.gates.len() {
            return Err(StaError::BadNetlist("netlist contains a cycle".into()));
        }
        Ok(order)
    }

    /// Propagates arrival times from all primary inputs (arrival 0 with
    /// the given slew) to every net, using `timer` for wires: one
    /// [`WireTimer::time_net`] call per net.
    ///
    /// # Errors
    ///
    /// Propagates wire-timer failures and cycle detection, and returns
    /// [`StaError::Wire`] when the timer's row count differs from a
    /// net's sink count.
    pub fn propagate<T: WireTimer + ?Sized>(
        &self,
        timer: &T,
        input_slew: Seconds,
    ) -> Result<Vec<NetTiming>, StaError> {
        let order = self.topo_order()?;
        let mut timing: Vec<Option<NetTiming>> = vec![None; self.nets.len()];

        let compute_net =
            |net: &NetInst, at_driver: (Seconds, Seconds)| -> Result<NetTiming, StaError> {
                let driver_cell = net.driver.map(|g| &self.gates[g.0].cell);
                let rows = timer.time_net(&net.rc, at_driver.1, driver_cell)?;
                if rows.len() != net.rc.sinks().len() {
                    return Err(StaError::Wire(format!(
                        "net `{}`: {} timing rows for {} sinks",
                        net.rc.name(),
                        rows.len(),
                        net.rc.sinks().len()
                    )));
                }
                let at_sinks = rows
                    .into_iter()
                    .map(|(d, s)| (at_driver.0 + d, s))
                    .collect();
                Ok(NetTiming {
                    at_driver,
                    at_sinks,
                })
            };

        for &pi in &self.primary_inputs {
            timing[pi.0] = Some(compute_net(&self.nets[pi.0], (Seconds(0.0), input_slew))?);
        }
        for gid in order {
            let gate = &self.gates[gid.0];
            let at_driver = self.gate_output_arrival(gid, |net| {
                timing[net.0].as_ref().map(|nt| nt.at_sinks.as_slice())
            })?;
            timing[gate.output.0] = Some(compute_net(&self.nets[gate.output.0], at_driver)?);
        }
        timing
            .into_iter()
            .enumerate()
            .map(|(i, t)| {
                t.ok_or_else(|| StaError::BadNetlist(format!("net {i} unreachable from inputs")))
            })
            .collect()
    }

    /// Arrival time and slew at `gate`'s output (driver) pin: the max
    /// over its connected input pins of `input arrival + NLDM delay`,
    /// where the gate's load is its output net's total ground + coupling
    /// capacitance. `sink_timing(net)` supplies each input net's
    /// per-sink `(arrival, slew)` pairs (aligned with `rc.sinks()`);
    /// returning `None` means that net is not timed yet.
    ///
    /// [`Netlist::propagate`] and the incremental ECO engine share this
    /// so a dirty-cone re-time is arithmetically identical to a full one.
    ///
    /// # Errors
    ///
    /// Returns [`StaError::BadNetlist`] when an input net is untimed or
    /// the gate has no connected inputs.
    pub fn gate_output_arrival<'a, F>(
        &self,
        gid: GateId,
        sink_timing: F,
    ) -> Result<(Seconds, Seconds), StaError>
    where
        F: Fn(NetId) -> Option<&'a [(Seconds, Seconds)]>,
    {
        let gate = self
            .gates
            .get(gid.0)
            .ok_or_else(|| StaError::BadNetlist(format!("no gate {gid:?}")))?;
        let out_net = &self.nets[gate.output.0];
        let load = out_net.rc.total_cap() + out_net.rc.total_coupling_cap();
        let mut best: Option<(Seconds, Seconds)> = None;
        for &in_net in &gate.inputs {
            let at_sinks = sink_timing(in_net).ok_or_else(|| {
                StaError::BadNetlist(format!("net {in_net:?} timed before its driver"))
            })?;
            // Which sink of in_net feeds this gate?
            for (pos, fo) in self.nets[in_net.0].fanout.iter().enumerate() {
                if *fo == Some(gid) {
                    let (at, slew) = at_sinks[pos];
                    let (gd, out_slew) = gate.cell.arc().eval(slew, load);
                    let cand = (at + gd, out_slew);
                    if best.is_none_or(|b| cand.0 > b.0) {
                        best = Some(cand);
                    }
                }
            }
        }
        best.ok_or_else(|| StaError::BadNetlist(format!("gate {gid:?} has no connected inputs")))
    }

    /// Replaces a net's parasitic RC network in place, returning the old
    /// one (so an ECO can be rolled back). The replacement must preserve
    /// the sink count — fanout pins are positional.
    ///
    /// # Errors
    ///
    /// Returns [`StaError::BadNetlist`] on an unknown net or a sink-count
    /// mismatch.
    pub fn replace_net_rc(&mut self, net: NetId, rc: RcNet) -> Result<RcNet, StaError> {
        let ni = self
            .nets
            .get_mut(net.0)
            .ok_or_else(|| StaError::BadNetlist(format!("no net {net:?}")))?;
        if rc.sinks().len() != ni.fanout.len() {
            return Err(StaError::BadNetlist(format!(
                "net {net:?} replacement has {} sinks, existing fanout expects {}",
                rc.sinks().len(),
                ni.fanout.len()
            )));
        }
        Ok(std::mem::replace(&mut ni.rc, rc))
    }

    /// Swaps a gate's library cell (driver resize ECO), returning the
    /// old cell.
    ///
    /// # Errors
    ///
    /// Returns [`StaError::BadNetlist`] on an unknown gate.
    pub fn set_gate_cell(&mut self, gate: GateId, cell: Cell) -> Result<Cell, StaError> {
        let g = self
            .gates
            .get_mut(gate.0)
            .ok_or_else(|| StaError::BadNetlist(format!("no gate {gate:?}")))?;
        Ok(std::mem::replace(&mut g.cell, cell))
    }

    /// All nets whose timing can depend on `start`'s: `start` itself plus
    /// every net reachable downstream through fanout gates (the dirty
    /// cone of an edit on `start`). Returned in discovery (BFS) order.
    pub fn downstream_nets(&self, start: NetId) -> Vec<NetId> {
        let mut seen = vec![false; self.nets.len()];
        let mut queue = std::collections::VecDeque::new();
        let mut cone = Vec::new();
        if start.0 >= self.nets.len() {
            return cone;
        }
        seen[start.0] = true;
        queue.push_back(start);
        while let Some(n) = queue.pop_front() {
            cone.push(n);
            for fo in self.nets[n.0].fanout.iter().flatten() {
                let out = self.gates[fo.0].output;
                if !seen[out.0] {
                    seen[out.0] = true;
                    queue.push_back(out);
                }
            }
        }
        cone
    }

    /// All nets in dependency order: primary inputs first, then gate
    /// output nets following the gate topological order. Re-timing nets
    /// in this order guarantees every net's driver inputs are ready.
    ///
    /// # Errors
    ///
    /// Returns [`StaError::BadNetlist`] on cycles.
    pub fn net_topo_order(&self) -> Result<Vec<NetId>, StaError> {
        let mut order = Vec::with_capacity(self.nets.len());
        order.extend_from_slice(&self.primary_inputs);
        for gid in self.topo_order()? {
            order.push(self.gates[gid.0].output);
        }
        Ok(order)
    }

    /// Which input of `gate` (if it is a gate) listens to `net`.
    fn input_pin(
        &self,
        gate: Option<GateId>,
        net: NetId,
    ) -> Result<Option<(GateId, usize)>, StaError> {
        let Some(g) = gate else { return Ok(None) };
        let pin = self.gates[g.0]
            .inputs
            .iter()
            .position(|&n| n == net)
            .ok_or_else(|| StaError::BadNetlist(format!("gate {g:?} lost input {net:?}")))?;
        Ok(Some((g, pin)))
    }

    /// Inserts a buffer on one fanout pin of `net` (the buffer-insertion
    /// ECO): the pin at `sink_pos` is rewired to go through a new `cell`
    /// gate driving `stub_rc`, whose single sink takes over whatever the
    /// original pin fed (a gate, or a primary output). Returns the new
    /// gate and net ids.
    ///
    /// # Errors
    ///
    /// Returns [`StaError::BadNetlist`] on an unknown net/pin or when
    /// `stub_rc` does not have exactly one sink. Every check runs before
    /// the first write, so a failed insertion leaves the netlist as it was.
    pub fn insert_buffer(
        &mut self,
        net: NetId,
        sink_pos: usize,
        cell: Cell,
        stub_rc: RcNet,
    ) -> Result<(GateId, NetId), StaError> {
        if stub_rc.sinks().len() != 1 {
            return Err(StaError::BadNetlist(format!(
                "buffer stub net must have exactly one sink, got {}",
                stub_rc.sinks().len()
            )));
        }
        let downstream = *self
            .nets
            .get(net.0)
            .ok_or_else(|| StaError::BadNetlist(format!("no net {net:?}")))?
            .fanout
            .get(sink_pos)
            .ok_or_else(|| {
                StaError::BadNetlist(format!("net {net:?} has no sink position {sink_pos}"))
            })?;
        // The downstream gate will listen to the stub net instead. With
        // multiple pins on `net` any one occurrence works: pin matching
        // during propagation goes through fanout positions.
        let pin = self.input_pin(downstream, net)?;
        let gid = GateId(self.gates.len());
        let out_id = NetId(self.nets.len());
        self.nets[net.0].fanout[sink_pos] = Some(gid);
        if let Some((g, pin)) = pin {
            self.gates[g.0].inputs[pin] = out_id;
        }
        self.nets.push(NetInst {
            rc: stub_rc,
            driver: Some(gid),
            fanout: vec![downstream],
        });
        self.gates.push(GateInst {
            cell,
            inputs: vec![net],
            output: out_id,
        });
        Ok((gid, out_id))
    }

    /// The exact inverse of the latest [`Netlist::insert_buffer`] on
    /// `net`'s pin `sink_pos`: pops the buffer gate and its stub net,
    /// hands the pin back to whatever the stub fed, and points that
    /// gate's input back at `net`. Insertions undone newest-first
    /// restore the netlist exactly.
    ///
    /// # Errors
    ///
    /// Returns [`StaError::BadNetlist`], changing nothing, when the last
    /// gate is not a buffer on that pin driving the last net.
    pub fn remove_last_buffer(&mut self, net: NetId, sink_pos: usize) -> Result<(), StaError> {
        let not_a_buffer =
            || StaError::BadNetlist(format!("last gate is not a buffer on {net:?} pin {sink_pos}"));
        let (Some(buffer), Some(stub)) = (self.gates.last(), self.nets.last()) else {
            return Err(not_a_buffer());
        };
        let (gid, out_id) = (GateId(self.gates.len() - 1), NetId(self.nets.len() - 1));
        let on_pin = self
            .nets
            .get(net.0)
            .and_then(|ni| ni.fanout.get(sink_pos))
            .is_some_and(|&fo| fo == Some(gid));
        if !on_pin
            || buffer.inputs != [net]
            || buffer.output != out_id
            || stub.driver != Some(gid)
            || stub.fanout.len() != 1
        {
            return Err(not_a_buffer());
        }
        let downstream = stub.fanout[0];
        let pin = self.input_pin(downstream, out_id)?;
        self.gates.pop();
        self.nets.pop();
        self.nets[net.0].fanout[sink_pos] = downstream;
        if let Some((g, pin)) = pin {
            self.gates[g.0].inputs[pin] = net;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cells::CellLibrary;
    use crate::wire::IdealWire;
    use rcnet::{Farads, Ohms, RcNetBuilder};

    fn net(name: &str, sinks: usize) -> RcNet {
        let mut b = RcNetBuilder::new(name);
        let s = b.source(format!("{name}:z"), Farads::from_ff(0.5));
        let mut prev = s;
        for i in 0..sinks {
            let k = b.sink(format!("{name}:s{i}"), Farads::from_ff(1.0));
            b.resistor(prev, k, Ohms(50.0));
            prev = k;
        }
        b.build().unwrap()
    }

    fn chain(depth: usize) -> Netlist {
        let lib = CellLibrary::builtin();
        let mut nl = Netlist::new();
        let mut cur = nl.add_primary_input(net("pi", 1));
        for i in 0..depth {
            let (_, out) = nl
                .add_gate(
                    lib.cell("BUF_X1").unwrap().clone(),
                    &[(cur, 0)],
                    net(&format!("n{i}"), 1),
                )
                .unwrap();
            cur = out;
        }
        nl
    }

    #[test]
    fn chain_propagates_monotonically() {
        let nl = chain(4);
        let t = nl.propagate(&IdealWire, Seconds::from_ps(10.0)).unwrap();
        // Arrival increases along the chain.
        let mut prev = Seconds(0.0);
        for nt in &t {
            assert!(nt.at_driver.0 >= prev);
            prev = nt.at_driver.0;
        }
    }

    #[test]
    fn reconvergent_fanout_propagates_through_both_branches() {
        // pi fans out to two gates, both feed a NAND.
        let lib = CellLibrary::builtin();
        let mut nl = Netlist::new();
        let pi = nl.add_primary_input(net("pi", 2));
        let (_, a) = nl
            .add_gate(lib.cell("INV_X1").unwrap().clone(), &[(pi, 0)], net("a", 1))
            .unwrap();
        let (_, b) = nl
            .add_gate(lib.cell("INV_X1").unwrap().clone(), &[(pi, 1)], net("b", 1))
            .unwrap();
        let (_, o) = nl
            .add_gate(
                lib.cell("NAND2_X1").unwrap().clone(),
                &[(a, 0), (b, 0)],
                net("o", 1),
            )
            .unwrap();
        let t = nl.propagate(&IdealWire, Seconds::from_ps(10.0)).unwrap();
        assert_eq!(t.len(), nl.nets().len());
        assert!(t[o.0].at_driver.0 > t[a.0].at_driver.0.max(t[b.0].at_driver.0));
    }

    #[test]
    fn rejects_double_connection() {
        let lib = CellLibrary::builtin();
        let mut nl = Netlist::new();
        let pi = nl.add_primary_input(net("pi", 1));
        nl.add_gate(lib.cell("INV_X1").unwrap().clone(), &[(pi, 0)], net("a", 1))
            .unwrap();
        let err = nl.add_gate(lib.cell("INV_X1").unwrap().clone(), &[(pi, 0)], net("b", 1));
        assert!(matches!(err, Err(StaError::BadNetlist(_))));
    }

    #[test]
    fn rejects_missing_sink_position() {
        let lib = CellLibrary::builtin();
        let mut nl = Netlist::new();
        let pi = nl.add_primary_input(net("pi", 1));
        let err = nl.add_gate(lib.cell("INV_X1").unwrap().clone(), &[(pi, 7)], net("a", 1));
        assert!(err.is_err());
    }

    #[test]
    fn replace_net_rc_swaps_parasitics_and_checks_sinks() {
        let mut nl = chain(2);
        let old_cap = nl.nets()[1].rc.total_cap();
        let fatter = {
            let mut b = RcNetBuilder::new("n0");
            let s = b.source("n0:z", Farads::from_ff(0.5));
            let k = b.sink("n0:s0", Farads::from_ff(9.0));
            b.resistor(s, k, Ohms(80.0));
            b.build().unwrap()
        };
        let old = nl.replace_net_rc(NetId(1), fatter).unwrap();
        assert_eq!(old.total_cap(), old_cap);
        assert!(nl.nets()[1].rc.total_cap() > old_cap);
        // Sink-count mismatch is rejected.
        assert!(nl.replace_net_rc(NetId(1), net("two", 2)).is_err());
        assert!(nl.replace_net_rc(NetId(99), net("x", 1)).is_err());
    }

    #[test]
    fn set_gate_cell_resizes_driver() {
        let lib = CellLibrary::builtin();
        let mut nl = chain(2);
        let old = nl
            .set_gate_cell(GateId(0), lib.cell("BUF_X4").unwrap().clone())
            .unwrap();
        assert_eq!(old.name(), "BUF_X1");
        assert_eq!(nl.gates()[0].cell.name(), "BUF_X4");
        assert!(nl.set_gate_cell(GateId(9), old).is_err());
    }

    #[test]
    fn downstream_cone_and_net_topo_order() {
        // pi -> inv_a -> nand, pi -> inv_b -> nand (reconvergent).
        let lib = CellLibrary::builtin();
        let mut nl = Netlist::new();
        let pi = nl.add_primary_input(net("pi", 2));
        let (_, a) = nl
            .add_gate(lib.cell("INV_X1").unwrap().clone(), &[(pi, 0)], net("a", 1))
            .unwrap();
        let (_, b) = nl
            .add_gate(lib.cell("INV_X1").unwrap().clone(), &[(pi, 1)], net("b", 1))
            .unwrap();
        let (_, o) = nl
            .add_gate(
                lib.cell("NAND2_X1").unwrap().clone(),
                &[(a, 0), (b, 0)],
                net("o", 1),
            )
            .unwrap();
        let cone = nl.downstream_nets(a);
        assert_eq!(cone, vec![a, o]);
        let full = nl.downstream_nets(pi);
        assert_eq!(full.len(), 4);
        let order = nl.net_topo_order().unwrap();
        assert_eq!(order.len(), nl.nets().len());
        let pos = |n: NetId| order.iter().position(|&x| x == n).unwrap();
        assert!(pos(pi) < pos(a) && pos(a) < pos(o) && pos(b) < pos(o));
    }

    #[test]
    fn insert_buffer_preserves_connectivity_and_adds_delay() {
        let lib = CellLibrary::builtin();
        let slew = Seconds::from_ps(10.0);
        let mut nl = chain(3);
        let before = nl.propagate(&IdealWire, slew).unwrap();
        let last_before = before.last().unwrap().at_driver.0;

        let stub = {
            let mut b = RcNetBuilder::new("stub");
            let s = b.source("stub:z", Farads::from_ff(0.2));
            let k = b.sink("stub:s0", Farads::from_ff(0.5));
            b.resistor(s, k, Ohms(10.0));
            b.build().unwrap()
        };
        let (gid, stub_net) = nl
            .insert_buffer(NetId(1), 0, lib.cell("BUF_X2").unwrap().clone(), stub)
            .unwrap();
        // The buffered pin now feeds the buffer; the stub feeds the old gate.
        assert_eq!(nl.nets()[1].fanout[0], Some(gid));
        assert_eq!(nl.gates()[gid.0].output, stub_net);
        let after = nl.propagate(&IdealWire, slew).unwrap();
        assert_eq!(after.len(), nl.nets().len());
        // The original terminal net is still timed, later than before.
        assert!(after[3].at_driver.0 > last_before * 0.0 + before[3].at_driver.0);

        // A stub with two sinks is rejected.
        let bad = net("bad", 2);
        assert!(nl
            .insert_buffer(NetId(2), 0, lib.cell("BUF_X2").unwrap().clone(), bad)
            .is_err());
    }

    /// `pi`'s pin 0 feeds an inverter driving `a`, whose one sink is a
    /// primary output; pins 1 and 2 feed both inputs of one NAND.
    fn shared_pin_netlist() -> (Netlist, NetId, NetId) {
        let lib = CellLibrary::builtin();
        let mut nl = Netlist::new();
        let pi = nl.add_primary_input(net("pi", 3));
        let (_, a) = nl
            .add_gate(lib.cell("INV_X1").unwrap().clone(), &[(pi, 0)], net("a", 1))
            .unwrap();
        nl.add_gate(
            lib.cell("NAND2_X1").unwrap().clone(),
            &[(pi, 1), (pi, 2)],
            net("o", 1),
        )
        .unwrap();
        (nl, pi, a)
    }

    fn buf() -> Cell {
        CellLibrary::builtin().cell("BUF_X2").unwrap().clone()
    }

    #[test]
    fn remove_last_buffer_inverts_insert_buffer() {
        let (mut nl, pi, a) = shared_pin_netlist();
        let plain = format!("{nl:?}");
        // A pin feeding a gate, a primary output, and each pin of a gate
        // with two pins on the same net.
        for (n, pos) in [(pi, 0), (a, 0), (pi, 1), (pi, 2)] {
            nl.insert_buffer(n, pos, buf(), net("stub", 1)).unwrap();
            assert_ne!(format!("{nl:?}"), plain);
            nl.remove_last_buffer(n, pos).unwrap();
            assert_eq!(format!("{nl:?}"), plain, "pin {pos} of {n:?}");
        }
        // Stacked insertions — both NAND pins, then the first buffer's
        // own stub — undone newest-first pass back through every state.
        let stub0 = NetId(nl.nets().len());
        let pins = [(pi, 1), (pi, 2), (stub0, 0)];
        let mut states = vec![plain];
        for (i, &(n, pos)) in pins.iter().enumerate() {
            nl.insert_buffer(n, pos, buf(), net(&format!("b{i}"), 1)).unwrap();
            states.push(format!("{nl:?}"));
        }
        nl.propagate(&IdealWire, Seconds::from_ps(10.0)).unwrap();
        for &(n, pos) in pins.iter().rev() {
            states.pop();
            nl.remove_last_buffer(n, pos).unwrap();
            assert_eq!(&format!("{nl:?}"), states.last().unwrap());
        }
    }

    #[test]
    fn remove_last_buffer_rejects_other_pins_and_changes_nothing() {
        let (mut nl, pi, a) = shared_pin_netlist();
        let plain = format!("{nl:?}");
        // No buffer at all: the last gate is the NAND on pins 1 and 2.
        for (n, pos) in [(pi, 1), (pi, 2)] {
            assert!(matches!(nl.remove_last_buffer(n, pos), Err(StaError::BadNetlist(_))));
            assert_eq!(format!("{nl:?}"), plain);
        }
        nl.insert_buffer(pi, 0, buf(), net("b0", 1)).unwrap();
        nl.insert_buffer(a, 0, buf(), net("b1", 1)).unwrap();
        let buffered = format!("{nl:?}");
        // (pi, 0) holds a buffer, but not the last one.
        for (n, pos) in [(pi, 0), (pi, 1), (a, 1), (NetId(99), 0)] {
            assert!(matches!(nl.remove_last_buffer(n, pos), Err(StaError::BadNetlist(_))));
            assert_eq!(format!("{nl:?}"), buffered);
        }
        nl.remove_last_buffer(a, 0).unwrap();
        nl.remove_last_buffer(pi, 0).unwrap();
        assert_eq!(format!("{nl:?}"), plain);
    }

    #[test]
    fn failed_insert_buffer_changes_nothing() {
        let (mut nl, pi, a) = shared_pin_netlist();
        // A fanout slot whose gate no longer lists the net: only the
        // last of insert_buffer's checks can see it.
        nl.gates[1].inputs = vec![a, a];
        let state = format!("{nl:?}");
        for (n, pos, sinks) in [(pi, 1, 1), (pi, 3, 1), (NetId(99), 0, 1), (pi, 0, 2)] {
            assert!(matches!(
                nl.insert_buffer(n, pos, buf(), net("stub", sinks)),
                Err(StaError::BadNetlist(_))
            ));
            assert_eq!(format!("{nl:?}"), state, "pin {pos} of {n:?}");
        }
    }

    #[test]
    fn deeper_chain_has_larger_arrival() {
        let shallow = chain(2);
        let deep = chain(6);
        let slew = Seconds::from_ps(10.0);
        let t_s = shallow.propagate(&IdealWire, slew).unwrap();
        let t_d = deep.propagate(&IdealWire, slew).unwrap();
        let last_s = t_s.last().unwrap().at_driver.0;
        let last_d = t_d.last().unwrap().at_driver.0;
        assert!(last_d > last_s);
    }
}
