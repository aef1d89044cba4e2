//! The per-net wire seam: `Netlist::propagate` and `TimingPath::arrival`
//! time each net with one `WireTimer::time_net` call and reject a timer
//! whose rows do not cover the net's sinks.

use rcnet::{Farads, Ohms, RcNet, RcNetBuilder, Seconds};
use sta::cells::{Cell, CellLibrary};
use sta::netlist::Netlist;
use sta::path::{Stage, TimingPath};
use sta::wire::IdealWire;
use sta::{StaError, WireTimer};
use std::cell::Cell as Counter;

/// Ideal wires, counting calls; `drop_rows` rows are cut from the end of
/// every answer.
#[derive(Default)]
struct Counting {
    calls: Counter<usize>,
    drop_rows: usize,
}

impl WireTimer for Counting {
    fn time_net(
        &self,
        net: &RcNet,
        input_slew: Seconds,
        driver: Option<&Cell>,
    ) -> Result<Vec<(Seconds, Seconds)>, StaError> {
        self.calls.set(self.calls.get() + 1);
        let mut rows = IdealWire.time_net(net, input_slew, driver)?;
        rows.truncate(rows.len().saturating_sub(self.drop_rows));
        Ok(rows)
    }
}

fn net(name: &str, sinks: usize) -> RcNet {
    let mut b = RcNetBuilder::new(name);
    let mut prev = b.source(format!("{name}:z"), Farads::from_ff(0.5));
    for i in 0..sinks {
        let k = b.sink(format!("{name}:s{i}"), Farads::from_ff(1.0));
        b.resistor(prev, k, Ohms(50.0));
        prev = k;
    }
    b.build().unwrap()
}

fn cell(name: &str) -> Cell {
    CellLibrary::builtin().cell(name).unwrap().clone()
}

/// A 3-sink primary input fanning out to two inverters and a NAND that
/// takes both of their outputs: five nets, eight sinks.
fn netlist() -> Netlist {
    let mut nl = Netlist::new();
    let pi = nl.add_primary_input(net("pi", 3));
    let (_, a) = nl
        .add_gate(cell("INV_X1"), &[(pi, 0)], net("a", 2))
        .unwrap();
    let (_, b) = nl
        .add_gate(cell("INV_X2"), &[(pi, 1)], net("b", 1))
        .unwrap();
    nl.add_gate(cell("NAND2_X1"), &[(a, 0), (b, 0)], net("o", 1))
        .unwrap();
    nl.add_gate(cell("BUF_X1"), &[(pi, 2)], net("c", 1))
        .unwrap();
    nl
}

fn path() -> TimingPath {
    TimingPath::new(
        [("BUF_X2", 2, 1), ("INV_X1", 3, 2), ("BUF_X4", 1, 0)]
            .iter()
            .map(|&(c, sinks, sink_path)| Stage {
                cell: cell(c),
                net: net(c, sinks),
                sink_path,
            })
            .collect(),
    )
}

#[test]
fn propagate_and_arrival_time_each_net_once() {
    let slew = Seconds::from_ps(10.0);
    let nl = netlist();
    let timer = Counting::default();
    let timing = nl.propagate(&timer, slew).unwrap();
    assert_eq!(timer.calls.get(), nl.nets().len());
    assert_eq!(timing, nl.propagate(&IdealWire, slew).unwrap());

    let timer = Counting::default();
    let arrival = path().arrival(&timer, slew).unwrap();
    assert_eq!(timer.calls.get(), path().len());
    assert_eq!(arrival, path().arrival(&IdealWire, slew).unwrap());
}

#[test]
fn short_timer_rows_fail_as_wire_errors() {
    let slew = Seconds::from_ps(10.0);
    let short = Counting {
        drop_rows: 1,
        ..Counting::default()
    };
    assert!(matches!(
        netlist().propagate(&short, slew),
        Err(StaError::Wire(_))
    ));
    // Stage 0 reads row 1 of 2, which the short timer drops.
    assert!(matches!(
        path().arrival(&short, slew),
        Err(StaError::Wire(_))
    ));
    // Through a trait object too.
    let dyn_timer: &dyn WireTimer = &short;
    assert!(matches!(
        netlist().propagate(dyn_timer, slew),
        Err(StaError::Wire(_))
    ));
}
