//! TABLE I feature extraction.
//!
//! Node features (one row per capacitance):
//!
//! | # | feature | source |
//! |---|---------|--------|
//! | 0 | capacitance value | net |
//! | 1 | num of input nodes | neighbors nearer the source |
//! | 2 | num of output nodes | neighbors farther from the source |
//! | 3 | tot input cap | sum over input neighbors |
//! | 4 | tot output cap | sum over output neighbors |
//! | 5 | num of connect. res | node degree |
//! | 6 | tot input res | resistance to input neighbors |
//! | 7 | tot output res | resistance to output neighbors |
//! | 8 | downstream cap | Elmore downstream capacitance |
//! | 9 | stage delay | Elmore stage delay |
//!
//! Two additional node features carry the design-constraint context on
//! the driver pin node only (zero elsewhere): the input slew and the
//! drive strength. Real pin nodes carry cell attributes the same way, and
//! without them no message-passing baseline could know how fast the net
//! is being switched.
//!
//! Path features (one row per wire path): input slew, drive-cell strength
//! and function, load-cell strength and function, load ceff, the wire
//! path's Elmore delay and its D2M delay.
//!
//! Raw units here are fF / kΩ / ps so magnitudes are O(1) before the
//! [`crate::scaler`] standardization. [`extract`] is the one way from a
//! net to these raw features, for labelling and prediction alike.

use crate::CoreError;
use elmore::WireAnalysis;
use rcnet::{RcNet, Seconds, WirePath};
use tensor::Mat;

/// Number of node features (`d_x`): the ten TABLE I features plus the
/// two driver-pin context features.
pub const NODE_DIM: usize = 12;
/// Number of path features (`d_h`).
pub const PATH_DIM: usize = 8;

/// Per-sink load-cell description.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LoadInfo {
    /// Drive strength of the load cell.
    pub drive: f64,
    /// Function code of the load cell (see
    /// [`sta::cells::CellFunc::encode`]).
    pub func: f64,
    /// Effective (pin) capacitance of the load cell, farads.
    pub ceff: f64,
}

impl Default for LoadInfo {
    fn default() -> Self {
        LoadInfo {
            drive: 1.0,
            func: 1.0,
            ceff: 1e-15,
        }
    }
}

/// The circuit context a net is timed in: who drives it, what it drives,
/// and how fast the input switches. (TABLE I's design-constraint
/// features.)
#[derive(Debug, Clone, PartialEq)]
pub struct NetContext {
    /// 10–90 % input slew at the driver.
    pub input_slew: Seconds,
    /// Drive strength of the driving cell.
    pub drive_strength: f64,
    /// Function code of the driving cell.
    pub drive_func: f64,
    /// Thevenin drive resistance of the driving cell (for the golden
    /// simulator).
    pub drive_res: rcnet::Ohms,
    /// Load info per sink, aligned with `net.sinks()`.
    pub loads: Vec<LoadInfo>,
}

impl NetContext {
    /// The context arrival-time flows time a net under (see
    /// [`sta::WireTimer::time_net`]): the driving cell when there is one,
    /// else [`NetContext::generic`]'s driver, with `input_slew` and
    /// default loads.
    pub fn for_driver(net: &RcNet, driver: Option<&sta::cells::Cell>, input_slew: Seconds) -> Self {
        let mut ctx = NetContext::generic(net);
        ctx.input_slew = input_slew;
        if let Some(cell) = driver {
            ctx.drive_strength = cell.drive();
            ctx.drive_func = cell.func().encode();
            ctx.drive_res = cell.drive_res();
        }
        ctx
    }

    /// A generic context: 20 ps input slew, X2 buffer-class driver,
    /// default loads for every sink of `net`.
    pub fn generic(net: &RcNet) -> Self {
        NetContext {
            input_slew: Seconds::from_ps(20.0),
            drive_strength: 2.0,
            drive_func: 1.0,
            drive_res: rcnet::Ohms(120.0),
            loads: vec![LoadInfo::default(); net.sinks().len()],
        }
    }
}

/// A net's raw features under `ctx`: the [`node_features`] matrix and
/// the [`all_path_features`] rows, over one [`WireAnalysis`].
///
/// # Errors
///
/// Propagates [`WireAnalysis::new`] failures.
pub fn extract(net: &RcNet, ctx: &NetContext) -> Result<(Mat, Vec<Mat>), CoreError> {
    let wa = WireAnalysis::new(net)?;
    Ok((
        node_features(net, &wa, ctx),
        all_path_features(net, &wa, ctx),
    ))
}

/// Extracts the `n x NODE_DIM` node feature matrix. A neighbour is an
/// input when it is no farther from the source than the node, by the
/// distances the net keeps ([`RcNet::shortest_path_distances`]).
pub fn node_features(net: &RcNet, analysis: &WireAnalysis, ctx: &NetContext) -> Mat {
    let n = net.node_count();
    let dist = net.shortest_path_distances();
    // "Capacitance value" is the lumped node capacitance: ground plus
    // coupling, as extraction reports it — this is the only channel
    // through which per-node crosstalk exposure reaches the models.
    let mut lumped = vec![0.0f64; n];
    for (id, node) in net.iter_nodes() {
        lumped[id.index()] = node.cap.value();
    }
    for c in net.couplings() {
        lumped[c.node.index()] += c.cap.value();
    }
    let mut x = Mat::zeros(n, NODE_DIM);
    for (id, _node) in net.iter_nodes() {
        let i = id.index();
        let my_dist = dist[i].value();
        let mut n_in = 0.0f32;
        let mut n_out = 0.0f32;
        let mut cap_in = 0.0f64;
        let mut cap_out = 0.0f64;
        let mut res_in = 0.0f64;
        let mut res_out = 0.0f64;
        for &(nb, e) in net.neighbors(id) {
            let r = net.edge(e).res.value();
            let c = lumped[nb.index()];
            if dist[nb.index()].value() <= my_dist {
                n_in += 1.0;
                cap_in += c;
                res_in += r;
            } else {
                n_out += 1.0;
                cap_out += c;
                res_out += r;
            }
        }
        x.set(i, 0, (lumped[i] / 1e-15) as f32);
        x.set(i, 1, n_in);
        x.set(i, 2, n_out);
        x.set(i, 3, (cap_in / 1e-15) as f32);
        x.set(i, 4, (cap_out / 1e-15) as f32);
        x.set(i, 5, net.degree(id) as f32);
        x.set(i, 6, (res_in / 1e3) as f32);
        x.set(i, 7, (res_out / 1e3) as f32);
        x.set(i, 8, (analysis.downstream_cap(id).value() / 1e-15) as f32);
        x.set(i, 9, (analysis.stage_delay(id).value() / 1e-12) as f32);
        if id == net.source() {
            x.set(i, 10, ctx.input_slew.pico_seconds() as f32);
            x.set(i, 11, ctx.drive_strength as f32);
        }
    }
    x
}

/// Extracts one `1 x PATH_DIM` path feature row.
///
/// # Panics
///
/// Panics when `sink_idx` is out of range of `ctx.loads`.
pub fn path_features(
    net: &RcNet,
    analysis: &WireAnalysis,
    path: &WirePath,
    sink_idx: usize,
    ctx: &NetContext,
) -> Mat {
    let load = &ctx.loads[sink_idx];
    let _ = net;
    Mat::row_vector(vec![
        ctx.input_slew.pico_seconds() as f32,
        ctx.drive_strength as f32,
        ctx.drive_func as f32,
        load.drive as f32,
        load.func as f32,
        (load.ceff / 1e-15) as f32,
        analysis.tree_path_elmore(path).pico_seconds() as f32,
        analysis.tree_path_d2m(path).pico_seconds() as f32,
    ])
}

/// Extracts all path feature rows of a net, in `net.paths()` order.
pub fn all_path_features(net: &RcNet, analysis: &WireAnalysis, ctx: &NetContext) -> Vec<Mat> {
    net.paths()
        .iter()
        .enumerate()
        .map(|(i, p)| path_features(net, analysis, p, i, ctx))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use rcnet::{Farads, Ohms, RcNetBuilder};

    fn ladder() -> RcNet {
        let mut b = RcNetBuilder::new("n");
        let s = b.source("s", Farads::from_ff(1.0));
        let m = b.internal("m", Farads::from_ff(2.0));
        let k = b.sink("k", Farads::from_ff(3.0));
        b.resistor(s, m, Ohms(100.0));
        b.resistor(m, k, Ohms(200.0));
        b.build().unwrap()
    }

    #[test]
    fn node_feature_values_match_structure() {
        let net = ladder();
        let wa = WireAnalysis::new(&net).unwrap();
        let x = node_features(&net, &wa, &NetContext::generic(&net));
        assert_eq!(x.shape(), (3, NODE_DIM));
        let m = net.node_by_name("m").unwrap().index();
        // cap value 2 fF.
        assert!((x.get(m, 0) - 2.0).abs() < 1e-6);
        // one input (s), one output (k).
        assert_eq!(x.get(m, 1), 1.0);
        assert_eq!(x.get(m, 2), 1.0);
        // input cap 1 fF, output cap 3 fF.
        assert!((x.get(m, 3) - 1.0).abs() < 1e-6);
        assert!((x.get(m, 4) - 3.0).abs() < 1e-6);
        // degree 2; input res 0.1 kΩ, output res 0.2 kΩ.
        assert_eq!(x.get(m, 5), 2.0);
        assert!((x.get(m, 6) - 0.1).abs() < 1e-6);
        assert!((x.get(m, 7) - 0.2).abs() < 1e-6);
        // downstream cap at m = 2 + 3 = 5 fF.
        assert!((x.get(m, 8) - 5.0).abs() < 1e-6);
        // stage delay at m = 100 * 5fF = 0.5 ps.
        assert!((x.get(m, 9) - 0.5).abs() < 1e-5);
    }

    #[test]
    fn neighbours_at_equal_distance_are_inputs_of_each_other() {
        // a and b both sit 100 Ω from the source and share a resistor.
        let mut bld = RcNetBuilder::new("tie");
        let s = bld.source("s", Farads::from_ff(1.0));
        let a = bld.internal("a", Farads::from_ff(1.0));
        let b = bld.internal("b", Farads::from_ff(1.0));
        let k = bld.sink("k", Farads::from_ff(1.0));
        bld.resistor(s, a, Ohms(100.0));
        bld.resistor(s, b, Ohms(100.0));
        bld.resistor(a, b, Ohms(50.0));
        bld.resistor(b, k, Ohms(100.0));
        let net = bld.build().unwrap();
        let wa = WireAnalysis::new(&net).unwrap();
        let x = node_features(&net, &wa, &NetContext::generic(&net));
        // a: inputs s and b, no output; b: inputs s and a, output k.
        assert_eq!((x.get(a.index(), 1), x.get(a.index(), 2)), (2.0, 0.0));
        assert_eq!((x.get(b.index(), 1), x.get(b.index(), 2)), (2.0, 1.0));
    }

    #[test]
    fn source_has_no_inputs() {
        let net = ladder();
        let wa = WireAnalysis::new(&net).unwrap();
        let ctx = NetContext::generic(&net);
        let x = node_features(&net, &wa, &ctx);
        let s = net.source().index();
        assert_eq!(x.get(s, 1), 0.0);
        assert_eq!(x.get(s, 2), 1.0);
        // Downstream cap at source = total cap = 6 fF.
        assert!((x.get(s, 8) - 6.0).abs() < 1e-6);
        // Driver-pin context features live on the source node only.
        assert!((x.get(s, 10) - 20.0).abs() < 1e-6);
        assert_eq!(x.get(s, 11), 2.0);
        let m = net.node_by_name("m").unwrap().index();
        assert_eq!(x.get(m, 10), 0.0);
        assert_eq!(x.get(m, 11), 0.0);
    }

    #[test]
    fn path_features_have_right_width_and_content() {
        let net = ladder();
        let wa = WireAnalysis::new(&net).unwrap();
        let ctx = NetContext::generic(&net);
        let pf = all_path_features(&net, &wa, &ctx);
        assert_eq!(pf.len(), 1);
        assert_eq!(pf[0].shape(), (1, PATH_DIM));
        // input slew 20 ps.
        assert!((pf[0].get(0, 0) - 20.0).abs() < 1e-6);
        // Elmore delay positive and >= D2M.
        assert!(pf[0].get(0, 6) > 0.0);
        assert!(pf[0].get(0, 7) <= pf[0].get(0, 6) + 1e-6);
    }

    #[test]
    fn generic_context_covers_all_sinks() {
        let mut b = RcNetBuilder::new("multi");
        let s = b.source("s", Farads::from_ff(1.0));
        for i in 0..4 {
            let k = b.sink(format!("k{i}"), Farads::from_ff(1.0));
            b.resistor(s, k, Ohms(50.0));
        }
        let net = b.build().unwrap();
        let ctx = NetContext::generic(&net);
        assert_eq!(ctx.loads.len(), 4);
        let wa = WireAnalysis::new(&net).unwrap();
        assert_eq!(all_path_features(&net, &wa, &ctx).len(), 4);
    }
}
