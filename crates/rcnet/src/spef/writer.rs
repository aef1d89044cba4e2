//! SPEF subset writer (the inverse of [`super::parse`]).

use super::SpefHeader;
use crate::{NodeKind, RcNet};
use std::fmt::{self, Write as _};

/// An R or C value in header units, printed `{:.9}`; a nonzero value
/// that would print as zero there (under 0.5e-9) is printed `{:e}`, so
/// it parses back nonzero.
struct Value(f64);

impl fmt::Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.0 != 0.0 && self.0.abs() < 0.5e-9 {
            write!(f, "{:e}", self.0)
        } else {
            write!(f, "{:.9}", self.0)
        }
    }
}

/// Serializes nets into a SPEF document using the given header.
///
/// Values are written in the header's units (`time_scale` is currently
/// unused because the subset carries no delays), with nine decimals, or
/// in exponent form when nine decimals would round a nonzero value to
/// zero. The output round-trips through [`super::parse`].
///
/// # Examples
///
/// ```
/// use rcnet::spef::{parse, write, SpefHeader};
/// # fn main() -> Result<(), rcnet::RcNetError> {
/// # let mut b = rcnet::RcNetBuilder::new("n");
/// # let s = b.source("d:Z", rcnet::Farads(1e-15));
/// # let k = b.sink("l:A", rcnet::Farads(1e-15));
/// # b.resistor(s, k, rcnet::Ohms(5.0));
/// # let net = b.build()?;
/// let text = write(&SpefHeader::default(), std::slice::from_ref(&net));
/// let doc = parse(&text)?;
/// assert_eq!(doc.nets[0].name(), net.name());
/// # Ok(())
/// # }
/// ```
pub fn write(header: &SpefHeader, nets: &[RcNet]) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "*SPEF \"IEEE 1481-1998\"");
    let _ = writeln!(out, "*DESIGN \"{}\"", header.design);
    let _ = writeln!(out, "*DATE \"\"");
    let _ = writeln!(out, "*VENDOR \"wire-timing\"");
    let _ = writeln!(out, "*PROGRAM \"rcnet\"");
    let _ = writeln!(out, "*VERSION \"1.0\"");
    let _ = writeln!(out, "*DESIGN_FLOW \"\"");
    let _ = writeln!(out, "*DIVIDER {}", header.divider);
    let _ = writeln!(out, "*DELIMITER {}", header.delimiter);
    let _ = writeln!(out, "*BUS_DELIMITER [ ]");
    let _ = writeln!(out, "*T_UNIT {} S", header.time_scale);
    let _ = writeln!(out, "*C_UNIT {} F", header.cap_scale);
    let _ = writeln!(out, "*R_UNIT {} OHM", header.res_scale);
    let _ = writeln!(out);

    for net in nets {
        let total_cap = net.total_cap().value() / header.cap_scale;
        let _ = writeln!(out, "*D_NET {} {:.6}", net.name(), total_cap);
        let _ = writeln!(out, "*CONN");
        for (_, node) in net.iter_nodes() {
            match node.kind {
                NodeKind::Source => {
                    let _ = writeln!(out, "*I {} O", node.name);
                }
                NodeKind::Sink => {
                    let _ = writeln!(out, "*I {} I", node.name);
                }
                NodeKind::Internal => {}
            }
        }
        let _ = writeln!(out, "*CAP");
        let mut cap_id = 1usize;
        for (_, node) in net.iter_nodes() {
            if node.cap.value() != 0.0 {
                let _ = writeln!(
                    out,
                    "{cap_id} {} {}",
                    node.name,
                    Value(node.cap.value() / header.cap_scale)
                );
                cap_id += 1;
            }
        }
        for c in net.couplings() {
            let _ = writeln!(
                out,
                "{cap_id} {} {} {}",
                net.node(c.node).name,
                c.aggressor,
                Value(c.cap.value() / header.cap_scale)
            );
            cap_id += 1;
        }
        let _ = writeln!(out, "*RES");
        for (i, (_, e)) in net.iter_edges().enumerate() {
            let _ = writeln!(
                out,
                "{} {} {} {}",
                i + 1,
                net.node(e.a).name,
                net.node(e.b).name,
                Value(e.res.value() / header.res_scale)
            );
        }
        let _ = writeln!(out, "*END");
        let _ = writeln!(out);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::super::parse;
    use super::*;
    use crate::{EdgeId, Farads, Ohms, RcNetBuilder};

    fn build_net() -> RcNet {
        let mut b = RcNetBuilder::new("nx");
        let s = b.source("drv:Z", Farads(0.5e-15));
        let m = b.internal("nx:1", Farads(1.5e-15));
        let k1 = b.sink("l1:A", Farads(2e-15));
        let k2 = b.sink("l2:B", Farads(2.5e-15));
        b.resistor(s, m, Ohms(11.0));
        b.resistor(m, k1, Ohms(13.0));
        b.resistor(m, k2, Ohms(17.0));
        b.coupling(m, "victim2:7", Farads(0.3e-15));
        b.build().unwrap()
    }

    #[test]
    fn round_trip_preserves_structure() {
        let net = build_net();
        let header = SpefHeader {
            design: "rt".into(),
            ..Default::default()
        };
        let text = write(&header, std::slice::from_ref(&net));
        let doc = parse(&text).unwrap();
        assert_eq!(doc.header.design, "rt");
        assert_eq!(doc.nets.len(), 1);
        let rt = &doc.nets[0];
        assert_eq!(rt.name(), net.name());
        assert_eq!(rt.node_count(), net.node_count());
        assert_eq!(rt.edge_count(), net.edge_count());
        assert_eq!(rt.sinks().len(), net.sinks().len());
        assert_eq!(rt.couplings().len(), 1);
        assert!((rt.total_cap().value() - net.total_cap().value()).abs() < 1e-24);
        assert!((rt.total_res().value() - net.total_res().value()).abs() < 1e-9);
    }

    #[test]
    fn round_trip_preserves_path_resistances() {
        let net = build_net();
        let text = write(&SpefHeader::default(), std::slice::from_ref(&net));
        let doc = parse(&text).unwrap();
        let rt = &doc.nets[0];
        let orig: Vec<f64> = net
            .paths()
            .iter()
            .map(|p| p.total_res(&net).value())
            .collect();
        let round: Vec<f64> = rt.paths().iter().map(|p| p.total_res(rt).value()).collect();
        assert_eq!(orig.len(), round.len());
        for (a, b) in orig.iter().zip(&round) {
            assert!((a - b).abs() < 1e-9);
        }
    }

    #[test]
    fn round_trip_keeps_tiny_values() {
        // 1 pΩ and 1e-10 fF print as zero with nine decimals.
        let mut b = RcNetBuilder::new("tiny");
        let s = b.source("drv:Z", Farads(1e-15));
        let m = b.internal("tiny:1", Farads(1e-25));
        let k = b.sink("l1:A", Farads(2e-15));
        b.resistor(s, m, Ohms(1e-12));
        b.resistor(m, k, Ohms(13.0));
        b.coupling(m, "agg:1", Farads(3e-25));
        let net = b.build().unwrap();
        let text = write(&SpefHeader::default(), std::slice::from_ref(&net));
        assert!(
            text.contains(" 13.000000000\n"),
            "ordinary values keep nine decimals"
        );
        let rt = parse(&text)
            .expect("a 1 pΩ segment parses back")
            .nets
            .remove(0);
        let close = |a: f64, b: f64| (a - b).abs() <= 1e-15 * b.abs();
        assert_eq!(rt.edge(EdgeId(0)).res, Ohms(1e-12));
        let node = rt.node_by_name("tiny:1").unwrap();
        assert!(close(rt.node(node).cap.value(), 1e-25));
        assert!(close(rt.couplings()[0].cap.value(), 3e-25));
    }
}
