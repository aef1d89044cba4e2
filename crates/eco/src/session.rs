//! Stateful design sessions with incremental re-timing.
//!
//! A session owns a [`sta::netlist::Netlist`] plus its current
//! arrival-time solution. Applying a batch of [`EcoEdit`]s:
//!
//! 1. mutates the netlist (driver resize / buffer insertion / RC
//!    rebuild), logging the exact inverse of each change — the value it
//!    displaced — as soon as the change succeeds, and collecting the
//!    *seed* nets each edit touches, including upstream nets whose
//!    driver/load context changed (a resized gate presents a different
//!    pin capacitance to the nets feeding it);
//! 2. expands seeds to the dirty cone (seeds plus everything downstream
//!    through fanout gates);
//! 3. re-times only dirty nets, in net topological order, reusing the
//!    stored timing of clean nets and logging the timing each dirty net
//!    replaces. Per-net wire predictions go through the
//!    content-addressed [`PredictionCache`]; arrival arithmetic is
//!    [`sta::netlist::Netlist::gate_output_arrival`] — the same code
//!    `propagate` uses, so an incremental solution is arithmetically
//!    identical to a cold full re-time of the same design.
//!
//! The batch's undo log, tagged with the pre-batch epoch, is its
//! rollback point. Every field a batch changes is restored by an entry
//! in its log, so reverting logs newest-first returns the session to
//! the tagged epoch exactly, at the cost of what the batches changed
//! rather than what the design holds. A failed batch reverts its own
//! log the same way.
//!
//! A re-time under a *different* model generation escalates to a full
//! re-time: every stored number was produced by the old weights.

use crate::cache::{cache_key, CachedPaths, PredictionCache};
use crate::edit::{rebuild_net, EcoEdit};
use crate::EcoError;
use gnntrans::features::LoadInfo;
use gnntrans::{NetContext, WireTimingEstimator};
use rcnet::{content_hash, Farads, Fnv1a, Ohms, RcNet, RcNetBuilder, Seconds};
use sta::cells::{Cell, CellLibrary};
use sta::netlist::{GateId, NetId, NetTiming, Netlist};
use std::collections::{HashMap, VecDeque};
use std::sync::Arc;
use std::time::Instant;

/// Per-retime effort breakdown, in seconds and cache events. The four
/// durations map onto the `dirty_set` / `cache_lookup` / `predict` /
/// `propagate` trace stages.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct RetimeStats {
    /// Seconds computing the dirty cone.
    pub dirty_set_s: f64,
    /// Seconds probing the prediction cache.
    pub cache_lookup_s: f64,
    /// Seconds inside the model for cache misses.
    pub predict_s: f64,
    /// Seconds of arrival-time arithmetic (re-leveling the cone).
    pub propagate_s: f64,
    /// Cache hits during this re-time.
    pub cache_hits: u64,
    /// Cache misses during this re-time.
    pub cache_misses: u64,
    /// Nets actually re-timed.
    pub nets_retimed: usize,
}

/// Outcome of one applied ECO batch.
#[derive(Debug, Clone, PartialEq)]
pub struct EcoReport {
    /// The session epoch after the batch (monotonic; rollback tag).
    pub epoch: u64,
    /// Names of the nets the batch dirtied, in netlist index order.
    pub dirty_nets: Vec<String>,
    /// Effort breakdown.
    pub stats: RetimeStats,
    /// The model generation the re-time ran under.
    pub model_generation: u64,
    /// Whether a generation change escalated this batch to a full re-time.
    pub full_retime: bool,
}

/// The worst (latest-arriving) endpoint of the design.
#[derive(Debug, Clone, PartialEq)]
pub struct CriticalEndpoint {
    /// Net carrying the endpoint.
    pub net: String,
    /// Sink pin name.
    pub sink: String,
    /// Arrival time, seconds.
    pub arrival: f64,
    /// Slew, seconds.
    pub slew: f64,
}

/// A point-in-time timing summary for `GET /v1/session/{id}/timing`.
#[derive(Debug, Clone, PartialEq)]
pub struct TimingSummary {
    /// Net count.
    pub nets: usize,
    /// Gate count.
    pub gates: usize,
    /// Current epoch.
    pub epoch: u64,
    /// Model generation the stored timing was computed with.
    pub model_generation: u64,
    /// Worst endpoint (absent only for a design with no open pins).
    pub critical: Option<CriticalEndpoint>,
}

/// The inverse of one change a batch made: the value it displaced.
enum Undo {
    /// A gate's previous cell.
    Cell(GateId, Cell),
    /// A sink's previous load override, or none.
    Load((usize, usize), Option<f64>),
    /// A net's previous parasitics, content hash and sink names.
    Rc(usize, RcNet, u64, Vec<String>),
    /// A buffer inserted on that net and sink position, with its stub
    /// net's name.
    Buffer(NetId, usize, String),
    /// A net's previous timing.
    Timing(usize, NetTiming),
}

/// One applied batch's rollback point: the state at `epoch` is the
/// state after the batch with `undo` reverted newest-first.
struct UndoLog {
    epoch: u64,
    model_generation: u64,
    undo: Vec<Undo>,
}

/// How many rejected-ECO rollback points a session retains.
const MAX_SNAPSHOTS: usize = 8;

/// A loaded design with its current incremental timing solution.
pub struct DesignSession {
    name: String,
    netlist: Netlist,
    lib: CellLibrary,
    input_slew: Seconds,
    /// `(net index, sink pos)` → overridden effective load, farads.
    load_overrides: HashMap<(usize, usize), f64>,
    /// Canonical content hash per net (recomputed on RC change).
    net_hash: Vec<u64>,
    /// Sink node names per net (cache-entry validation + reports).
    sink_names: Vec<Vec<String>>,
    net_index: HashMap<String, usize>,
    timing: Vec<NetTiming>,
    epoch: u64,
    model_generation: u64,
    /// Rollback points of the latest batches, oldest first.
    logs: VecDeque<UndoLog>,
    /// Inverses of the changes made so far by the batch being applied;
    /// empty between batches.
    in_flight: Vec<Undo>,
    /// Net topological order, kept until an edit changes the gate graph
    /// (only buffer insertion does).
    topo: Option<Vec<NetId>>,
    /// Monotonic counter naming inserted buffer stubs.
    buf_counter: u64,
}

fn empty_timing() -> NetTiming {
    NetTiming {
        at_driver: (Seconds(0.0), Seconds(0.0)),
        at_sinks: Vec::new(),
    }
}

fn sink_names_of(rc: &rcnet::RcNet) -> Vec<String> {
    rc.sinks().iter().map(|&s| rc.node(s).name.clone()).collect()
}

/// Hashes the driver/load context a net is predicted under. Combined
/// with the net content hash and model generation this forms the cache
/// key, so *any* context change (upstream slew, driver resize, load
/// override) re-predicts instead of reusing a stale entry.
fn ctx_hash(ctx: &NetContext) -> u64 {
    let mut h = Fnv1a::new();
    h.write(b"eco.ctx.v1")
        .write_f64(ctx.input_slew.value())
        .write_f64(ctx.drive_strength)
        .write_f64(ctx.drive_func)
        .write_f64(ctx.drive_res.value())
        .write_u64(ctx.loads.len() as u64);
    for l in &ctx.loads {
        h.write_f64(l.drive).write_f64(l.func).write_f64(l.ceff);
    }
    h.finish()
}

impl DesignSession {
    /// Wraps a netlist into an *untimed* session; call
    /// [`DesignSession::full_retime`] before reading timing.
    pub fn new(name: impl Into<String>, netlist: Netlist, input_slew: Seconds) -> Self {
        let net_hash: Vec<u64> = netlist.nets().iter().map(|n| content_hash(&n.rc)).collect();
        let sink_names: Vec<Vec<String>> =
            netlist.nets().iter().map(|n| sink_names_of(&n.rc)).collect();
        let net_index: HashMap<String, usize> = netlist
            .nets()
            .iter()
            .enumerate()
            .map(|(i, n)| (n.rc.name().to_string(), i))
            .collect();
        let timing = vec![empty_timing(); netlist.nets().len()];
        DesignSession {
            name: name.into(),
            netlist,
            lib: CellLibrary::builtin(),
            input_slew,
            load_overrides: HashMap::new(),
            net_hash,
            sink_names,
            net_index,
            timing,
            epoch: 0,
            model_generation: 0,
            logs: VecDeque::new(),
            in_flight: Vec::new(),
            topo: None,
            buf_counter: 0,
        }
    }

    /// The session's name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The current epoch (bumped by every applied batch).
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// The model generation the stored timing was computed under.
    pub fn model_generation(&self) -> u64 {
        self.model_generation
    }

    /// The underlying netlist (read-only).
    pub fn netlist(&self) -> &Netlist {
        &self.netlist
    }

    /// Rough resident size: netlist + timing, plus the nets and timings
    /// the retained undo logs hold.
    pub fn approx_bytes(&self) -> usize {
        let net_bytes = |rc: &RcNet| rc.node_count() * 96 + rc.edge_count() * 32;
        let timing_bytes = |t: &NetTiming| 48 + t.at_sinks.len() * 32;
        let nets: usize = self.netlist.nets().iter().map(|n| net_bytes(&n.rc)).sum();
        let timing: usize = self.timing.iter().map(timing_bytes).sum();
        let gates = self.netlist.gates().len() * 160;
        let logs: usize = self
            .logs
            .iter()
            .flat_map(|log| &log.undo)
            .map(|undo| {
                std::mem::size_of::<Undo>()
                    + match undo {
                        Undo::Rc(_, rc, _, _) => net_bytes(rc),
                        Undo::Timing(_, t) => timing_bytes(t),
                        Undo::Cell(..) | Undo::Load(..) | Undo::Buffer(..) => 0,
                    }
            })
            .sum();
        nets + timing + gates + logs
    }

    /// The driver/load context net `i` is currently timed under.
    fn ctx_for(&self, i: usize, slew: Seconds) -> NetContext {
        let ni = &self.netlist.nets()[i];
        let driver = ni.driver.map(|g| &self.netlist.gates()[g.0].cell);
        let mut ctx = NetContext::for_driver(&ni.rc, driver, slew);
        for (pos, fo) in ni.fanout.iter().enumerate() {
            if let Some(g) = fo {
                let cell = &self.netlist.gates()[g.0].cell;
                ctx.loads[pos] = LoadInfo {
                    drive: cell.drive(),
                    func: cell.func().encode(),
                    ceff: cell.pin_cap().value(),
                };
            }
            if let Some(&ov) = self.load_overrides.get(&(i, pos)) {
                ctx.loads[pos].ceff = ov;
            }
        }
        ctx
    }

    /// Re-times the nets marked in `dirty`, in net topological order,
    /// logging the timing each replaces.
    fn retime(
        &mut self,
        dirty: &[bool],
        est: &WireTimingEstimator,
        generation: u64,
        cache: &PredictionCache,
    ) -> Result<RetimeStats, EcoError> {
        let loop_start = Instant::now();
        let mut stats = RetimeStats::default();
        let order = match self.topo.take() {
            Some(order) => order,
            None => self.netlist.net_topo_order()?,
        };
        for &n in &order {
            if !dirty[n.0] {
                continue;
            }
            let at_driver = match self.netlist.nets()[n.0].driver {
                None => (Seconds(0.0), self.input_slew),
                Some(g) => {
                    let timing = &self.timing;
                    self.netlist
                        .gate_output_arrival(g, |net| Some(timing[net.0].at_sinks.as_slice()))?
                }
            };
            let ctx = self.ctx_for(n.0, at_driver.1);
            let key = cache_key(self.net_hash[n.0], ctx_hash(&ctx), generation);

            let t_probe = Instant::now();
            let cached = cache.get(key, &self.sink_names[n.0]);
            stats.cache_lookup_s += t_probe.elapsed().as_secs_f64();

            let paths: Vec<(Seconds, Seconds)> = match cached {
                Some(v) => {
                    stats.cache_hits += 1;
                    v.timings().collect()
                }
                None => {
                    stats.cache_misses += 1;
                    let t_pred = Instant::now();
                    let ests = est.predict_net(&self.netlist.nets()[n.0].rc, &ctx)?;
                    stats.predict_s += t_pred.elapsed().as_secs_f64();
                    cache.insert(key, Arc::new(CachedPaths::new(&self.sink_names[n.0], &ests)));
                    ests.iter().map(|e| (e.slew, e.delay)).collect()
                }
            };
            let timing = NetTiming {
                at_driver,
                at_sinks: paths
                    .iter()
                    .map(|&(slew, delay)| (at_driver.0 + delay, slew))
                    .collect(),
            };
            let old = std::mem::replace(&mut self.timing[n.0], timing);
            self.in_flight.push(Undo::Timing(n.0, old));
            stats.nets_retimed += 1;
        }
        self.topo = Some(order);
        stats.propagate_s = (loop_start.elapsed().as_secs_f64()
            - stats.cache_lookup_s
            - stats.predict_s)
            .max(0.0);
        self.model_generation = generation;
        Ok(stats)
    }

    /// Times (or re-times) the whole design under `generation`.
    pub fn full_retime(
        &mut self,
        est: &WireTimingEstimator,
        generation: u64,
        cache: &PredictionCache,
    ) -> Result<RetimeStats, EcoError> {
        let dirty = vec![true; self.netlist.nets().len()];
        let stats = self.retime(&dirty, est, generation, cache);
        // A full re-time opens no epoch of its own. It may run under
        // another generation, so the timings it displaced join the
        // newest rollback point: rolling back past it stays exact.
        let displaced = std::mem::take(&mut self.in_flight);
        if let Some(newest) = self.logs.back_mut() {
            newest.undo.extend(displaced);
        }
        stats
    }

    /// Reverts `log`'s changes newest-first, returning the session to
    /// the state it had at `log.epoch`.
    fn revert(&mut self, log: UndoLog) {
        const EXACT: &str = "an undo entry restores a state the netlist held";
        for undo in log.undo.into_iter().rev() {
            match undo {
                Undo::Cell(gate, cell) => {
                    self.netlist.set_gate_cell(gate, cell).expect(EXACT);
                }
                Undo::Load(key, Some(ceff)) => {
                    self.load_overrides.insert(key, ceff);
                }
                Undo::Load(key, None) => {
                    self.load_overrides.remove(&key);
                }
                Undo::Rc(i, rc, hash, sinks) => {
                    self.netlist.replace_net_rc(NetId(i), rc).expect(EXACT);
                    self.net_hash[i] = hash;
                    self.sink_names[i] = sinks;
                }
                Undo::Buffer(net, pos, stub) => {
                    self.netlist.remove_last_buffer(net, pos).expect(EXACT);
                    self.net_hash.pop();
                    self.sink_names.pop();
                    self.timing.pop();
                    self.net_index.remove(&stub);
                    self.topo = None;
                }
                Undo::Timing(i, timing) => self.timing[i] = timing,
            }
        }
        self.epoch = log.epoch;
        self.model_generation = log.model_generation;
    }

    fn net_idx(&self, name: &str) -> Result<usize, EcoError> {
        self.net_index
            .get(name)
            .copied()
            .ok_or_else(|| EcoError::UnknownNet(name.to_string()))
    }

    fn sink_pos(&self, net_idx: usize, sink: &str) -> Result<usize, EcoError> {
        self.sink_names[net_idx]
            .iter()
            .position(|n| n == sink)
            .ok_or_else(|| EcoError::UnknownNode {
                net: self.netlist.nets()[net_idx].rc.name().to_string(),
                node: sink.to_string(),
            })
    }

    fn cell(&self, name: &str) -> Result<sta::cells::Cell, EcoError> {
        self.lib
            .cell(name)
            .cloned()
            .ok_or_else(|| EcoError::UnknownCell(name.to_string()))
    }

    /// Mutates the design for one edit; returns the seed nets whose
    /// timing inputs changed.
    fn apply_edit(&mut self, edit: &EcoEdit) -> Result<Vec<NetId>, EcoError> {
        let idx = self.net_idx(edit.net())?;
        match edit {
            EcoEdit::ResizeDriver { cell, .. } => {
                let gid = self.netlist.nets()[idx].driver.ok_or_else(|| {
                    EcoError::BadEdit(format!(
                        "net `{}` is a primary input; nothing to resize",
                        edit.net()
                    ))
                })?;
                let new_cell = self.cell(cell)?;
                let old = self.netlist.set_gate_cell(gid, new_cell)?;
                self.in_flight.push(Undo::Cell(gid, old));
                // The resized gate changes its output net's drive *and*
                // the pin capacitance its input nets see.
                let mut seeds = vec![NetId(idx)];
                seeds.extend(self.netlist.gates()[gid.0].inputs.iter().copied());
                Ok(seeds)
            }
            EcoEdit::SetSinkLoad { sink, ceff_ff, .. } => {
                if !(ceff_ff.is_finite() && *ceff_ff >= 0.0) {
                    return Err(EcoError::BadEdit(format!("bad ceff_ff {ceff_ff}")));
                }
                let pos = self.sink_pos(idx, sink)?;
                let old = self.load_overrides.insert((idx, pos), ceff_ff * 1e-15);
                self.in_flight.push(Undo::Load((idx, pos), old));
                Ok(vec![NetId(idx)])
            }
            EcoEdit::InsertBuffer { sink, cell, .. } => {
                let pos = self.sink_pos(idx, sink)?;
                let buf_cell = self.cell(cell)?;
                // A name no net has, so reverting the insertion only has
                // to remove it from the index.
                let stub_name = loop {
                    self.buf_counter += 1;
                    let name = format!("eco_buf{}", self.buf_counter);
                    if !self.net_index.contains_key(&name) {
                        break name;
                    }
                };
                let mut b = RcNetBuilder::new(stub_name.clone());
                let s = b.source(format!("{stub_name}:Z"), Farads(0.1e-15));
                let k = b.sink(format!("{stub_name}:A"), Farads(0.5e-15));
                b.resistor(s, k, Ohms(15.0));
                let stub = b.build()?;
                let (_, stub_net) = self.netlist.insert_buffer(NetId(idx), pos, buf_cell, stub)?;
                self.in_flight.push(Undo::Buffer(NetId(idx), pos, stub_name.clone()));
                self.topo = None;
                let rc = &self.netlist.nets()[stub_net.0].rc;
                self.net_hash.push(content_hash(rc));
                self.sink_names.push(sink_names_of(rc));
                self.net_index.insert(stub_name, stub_net.0);
                self.timing.push(empty_timing());
                Ok(vec![NetId(idx), stub_net])
            }
            EcoEdit::SetResistance { a, b, ohms, .. } => {
                if !(ohms.is_finite() && *ohms > 0.0) {
                    return Err(EcoError::BadEdit(format!("bad resistance {ohms}")));
                }
                let mut matched = false;
                let rc = &self.netlist.nets()[idx].rc;
                let rebuilt = rebuild_net(
                    rc,
                    |_, _| None,
                    |x, y, _| {
                        if (x == a && y == b) || (x == b && y == a) {
                            matched = true;
                            Some(Ohms(*ohms))
                        } else {
                            None
                        }
                    },
                    &[],
                )?;
                if !matched {
                    return Err(EcoError::BadEdit(format!(
                        "net `{}` has no resistor between `{a}` and `{b}`",
                        edit.net()
                    )));
                }
                self.replace_rc(idx, rebuilt)?;
                Ok(vec![NetId(idx)])
            }
            EcoEdit::SetCap { node, ff, .. } => {
                if !(ff.is_finite() && *ff >= 0.0) {
                    return Err(EcoError::BadEdit(format!("bad capacitance {ff}")));
                }
                let mut matched = false;
                let rc = &self.netlist.nets()[idx].rc;
                let rebuilt = rebuild_net(
                    rc,
                    |name, _| {
                        if name == node {
                            matched = true;
                            Some(Farads(ff * 1e-15))
                        } else {
                            None
                        }
                    },
                    |_, _, _| None,
                    &[],
                )?;
                if !matched {
                    return Err(EcoError::UnknownNode {
                        net: edit.net().to_string(),
                        node: node.clone(),
                    });
                }
                self.replace_rc(idx, rebuilt)?;
                Ok(vec![NetId(idx)])
            }
            EcoEdit::AddResistor { a, b, ohms, .. } => {
                if !(ohms.is_finite() && *ohms > 0.0) {
                    return Err(EcoError::BadEdit(format!("bad resistance {ohms}")));
                }
                let rc = &self.netlist.nets()[idx].rc;
                let rebuilt = rebuild_net(
                    rc,
                    |_, _| None,
                    |_, _, _| None,
                    &[(a.clone(), b.clone(), Ohms(*ohms))],
                )?;
                self.replace_rc(idx, rebuilt)?;
                Ok(vec![NetId(idx)])
            }
        }
    }

    fn replace_rc(&mut self, idx: usize, rc: RcNet) -> Result<(), EcoError> {
        let old = self.netlist.replace_net_rc(NetId(idx), rc)?;
        let rc = &self.netlist.nets()[idx].rc;
        let old_hash = std::mem::replace(&mut self.net_hash[idx], content_hash(rc));
        let old_sinks = std::mem::replace(&mut self.sink_names[idx], sink_names_of(rc));
        self.in_flight.push(Undo::Rc(idx, old, old_hash, old_sinks));
        Ok(())
    }

    /// Applies a batch of edits atomically: on any failure the session
    /// is exactly as before. On success the epoch advances and the
    /// batch's undo log is retained as the pre-edit epoch's rollback
    /// point.
    pub fn apply(
        &mut self,
        edits: &[EcoEdit],
        est: &WireTimingEstimator,
        generation: u64,
        cache: &PredictionCache,
    ) -> Result<EcoReport, EcoError> {
        if edits.is_empty() {
            return Err(EcoError::BadEdit("empty edit batch".into()));
        }
        let (epoch, model_generation) = (self.epoch, self.model_generation);
        let result = self.apply_inner(edits, est, generation, cache);
        let log = UndoLog {
            epoch,
            model_generation,
            undo: std::mem::take(&mut self.in_flight),
        };
        if result.is_ok() {
            self.logs.push_back(log);
            if self.logs.len() > MAX_SNAPSHOTS {
                self.logs.pop_front();
            }
        } else {
            self.revert(log);
        }
        result
    }

    fn apply_inner(
        &mut self,
        edits: &[EcoEdit],
        est: &WireTimingEstimator,
        generation: u64,
        cache: &PredictionCache,
    ) -> Result<EcoReport, EcoError> {
        let t_dirty = Instant::now();
        let mut seeds = Vec::new();
        for edit in edits {
            seeds.extend(self.apply_edit(edit)?);
        }
        let full_retime = generation != self.model_generation;
        let mut dirty = vec![full_retime; self.netlist.nets().len()];
        if !full_retime {
            for seed in seeds {
                for n in self.netlist.downstream_nets(seed) {
                    dirty[n.0] = true;
                }
            }
        }
        let dirty_set_s = t_dirty.elapsed().as_secs_f64();

        let mut stats = self.retime(&dirty, est, generation, cache)?;
        stats.dirty_set_s = dirty_set_s;
        self.epoch += 1;
        let dirty_nets: Vec<String> = dirty
            .iter()
            .enumerate()
            .filter(|&(_, &d)| d)
            .map(|(i, _)| self.netlist.nets()[i].rc.name().to_string())
            .collect();
        Ok(EcoReport {
            epoch: self.epoch,
            dirty_nets,
            stats,
            model_generation: generation,
            full_retime,
        })
    }

    /// Rolls the session back to the state it had at `epoch` (a rejected
    /// ECO), reverting the undo logs of that epoch's batch and every
    /// later one, newest first.
    ///
    /// # Errors
    ///
    /// [`EcoError::UnknownEpoch`] when no rollback point for `epoch` is
    /// retained (too old, or never existed).
    pub fn rollback(&mut self, epoch: u64) -> Result<(), EcoError> {
        let pos = self
            .logs
            .iter()
            .position(|log| log.epoch == epoch)
            .ok_or(EcoError::UnknownEpoch(epoch))?;
        for log in self.logs.split_off(pos).into_iter().rev() {
            self.revert(log);
        }
        Ok(())
    }

    /// Epochs with retained rollback points, oldest first.
    pub fn snapshot_epochs(&self) -> Vec<u64> {
        self.logs.iter().map(|log| log.epoch).collect()
    }

    /// The worst endpoint and design-level counts.
    pub fn timing_summary(&self) -> TimingSummary {
        let mut critical: Option<CriticalEndpoint> = None;
        for (i, ni) in self.netlist.nets().iter().enumerate() {
            let nt = &self.timing[i];
            for (pos, fo) in ni.fanout.iter().enumerate() {
                if fo.is_some() {
                    continue;
                }
                let Some(&(at, slew)) = nt.at_sinks.get(pos) else {
                    continue;
                };
                if critical.as_ref().is_none_or(|c| at.value() > c.arrival) {
                    critical = Some(CriticalEndpoint {
                        net: ni.rc.name().to_string(),
                        sink: self.sink_names[i][pos].clone(),
                        arrival: at.value(),
                        slew: slew.value(),
                    });
                }
            }
        }
        TimingSummary {
            nets: self.netlist.nets().len(),
            gates: self.netlist.gates().len(),
            epoch: self.epoch,
            model_generation: self.model_generation,
            critical,
        }
    }

    /// Per-sink `(pin name, arrival seconds, slew seconds)` for a net.
    pub fn net_timing(&self, net: &str) -> Result<Vec<(String, f64, f64)>, EcoError> {
        let idx = self.net_idx(net)?;
        Ok(self.sink_names[idx]
            .iter()
            .zip(&self.timing[idx].at_sinks)
            .map(|(n, &(at, slew))| (n.clone(), at.value(), slew.value()))
            .collect())
    }

    /// The complete stored per-net timing (oracle tests compare this).
    pub fn all_timing(&self) -> &[NetTiming] {
        &self.timing
    }
}

// Manual impl to avoid dumping whole netlists into logs.
impl std::fmt::Debug for DesignSession {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("DesignSession")
            .field("name", &self.name)
            .field("nets", &self.netlist.nets().len())
            .field("gates", &self.netlist.gates().len())
            .field("epoch", &self.epoch)
            .field("model_generation", &self.model_generation)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::design::{from_netgen, mix};
    use std::sync::OnceLock;

    fn train(seed: u64) -> WireTimingEstimator {
        use gnntrans::{DatasetBuilder, EstimatorConfig};
        use netgen::nets::{NetConfig, NetGenerator};
        let cfg = NetConfig {
            nodes_min: 4,
            nodes_max: 12,
            ..Default::default()
        };
        let mut g = NetGenerator::new(seed, cfg);
        let nets: Vec<_> = (0..24).map(|i| g.net(format!("d{i}"), i % 3 == 0)).collect();
        let data = DatasetBuilder::new(seed.wrapping_add(1))
            .build(&nets)
            .expect("featurize");
        let mut est = WireTimingEstimator::new(
            &EstimatorConfig {
                gnn_layers: 2,
                attn_layers: 1,
                hidden: 8,
                heads: 2,
                mlp_hidden: 8,
                epochs: 2,
                lr: 5e-3,
            },
            seed,
        );
        est.train(&data).expect("train");
        est
    }

    /// Two models with different weights (generations 1 and 2).
    fn models() -> &'static (WireTimingEstimator, WireTimingEstimator) {
        static MODELS: OnceLock<(WireTimingEstimator, WireTimingEstimator)> = OnceLock::new();
        MODELS.get_or_init(|| (train(17), train(99)))
    }

    fn pick(len: usize, rng: &mut u64) -> usize {
        (mix(rng) % len as u64) as usize
    }

    /// One random valid edit of any of the six kinds.
    fn random_edit(nl: &Netlist, rng: &mut u64) -> EcoEdit {
        loop {
            let ni = &nl.nets()[pick(nl.nets().len(), rng)];
            let rc = &ni.rc;
            let net = rc.name().to_string();
            let node = |rng: &mut u64| rc.nodes()[pick(rc.node_count(), rng)].name.clone();
            let sink = |rng: &mut u64| rc.node(rc.sinks()[pick(rc.sinks().len(), rng)]).name.clone();
            let value = |rng: &mut u64| 0.5 + pick(50, rng) as f64 / 10.0;
            return match pick(6, rng) {
                0 if ni.driver.is_none() => continue,
                0 => EcoEdit::ResizeDriver {
                    net,
                    cell: ["BUF_X1", "BUF_X4", "INV_X2"][pick(3, rng)].into(),
                },
                1 => EcoEdit::SetSinkLoad {
                    sink: sink(rng),
                    net,
                    ceff_ff: value(rng),
                },
                2 => EcoEdit::InsertBuffer {
                    sink: sink(rng),
                    net,
                    cell: "BUF_X2".into(),
                },
                3 => {
                    let e = &rc.edges()[pick(rc.edge_count(), rng)];
                    EcoEdit::SetResistance {
                        a: rc.node(e.a).name.clone(),
                        b: rc.node(e.b).name.clone(),
                        net,
                        ohms: 10.0 * value(rng),
                    }
                }
                4 => EcoEdit::SetCap {
                    node: node(rng),
                    net,
                    ff: value(rng),
                },
                _ => {
                    let (a, b) = (node(rng), node(rng));
                    if a == b {
                        continue;
                    }
                    EcoEdit::AddResistor {
                        net,
                        a,
                        b,
                        ohms: 10.0 * value(rng),
                    }
                }
            };
        }
    }

    /// Every field a batch can change, comparable bit for bit.
    #[derive(Debug, PartialEq)]
    struct State {
        netlist: String,
        load_overrides: Vec<((usize, usize), u64)>,
        net_hash: Vec<u64>,
        sink_names: Vec<Vec<String>>,
        net_index: Vec<(String, usize)>,
        timing: Vec<Vec<u64>>,
        epoch: u64,
        model_generation: u64,
    }

    fn state(s: &DesignSession) -> State {
        assert!(s.in_flight.is_empty(), "undo entries left between batches");
        if let Some(order) = &s.topo {
            assert_eq!(order, &s.netlist.net_topo_order().unwrap(), "stale net order");
        }
        let mut load_overrides: Vec<_> =
            s.load_overrides.iter().map(|(&k, v)| (k, v.to_bits())).collect();
        load_overrides.sort_unstable();
        let mut net_index: Vec<_> = s.net_index.iter().map(|(k, &v)| (k.clone(), v)).collect();
        net_index.sort_unstable();
        let timing = s
            .timing
            .iter()
            .map(|t| {
                std::iter::once(&t.at_driver)
                    .chain(&t.at_sinks)
                    .flat_map(|&(at, slew)| [at.value().to_bits(), slew.value().to_bits()])
                    .collect()
            })
            .collect();
        State {
            netlist: format!("{:?}", s.netlist),
            load_overrides,
            net_hash: s.net_hash.clone(),
            sink_names: s.sink_names.clone(),
            net_index,
            timing,
            epoch: s.epoch,
            model_generation: s.model_generation,
        }
    }

    fn timed_session(design: &str, seed: u64, cache: &PredictionCache) -> DesignSession {
        let nl = from_netgen(design, 0.02, seed).unwrap();
        let mut s = DesignSession::new("s", nl, Seconds::from_ps(20.0));
        s.full_retime(&models().0, 1, cache).unwrap();
        s
    }

    /// Random batches of all six edit kinds with random rollbacks: each
    /// rollback returns every field to the state recorded at its epoch,
    /// a batch failing on its last edit leaves no trace, and a
    /// generation change rolls back bit for bit.
    #[test]
    fn rollback_restores_every_field_exactly() {
        let (old, new) = models();
        let cache = PredictionCache::new(4, 1 << 20);
        let mut s = timed_session("PCI_BRIDGE", 5, &cache);
        // history[e] is the state at epoch e along the current history.
        let mut history = vec![state(&s)];
        let mut rng = 0x5eed_u64;
        for _ in 0..40 {
            let edits: Vec<_> = (0..1 + pick(3, &mut rng))
                .map(|_| random_edit(s.netlist(), &mut rng))
                .collect();
            let report = s.apply(&edits, old, 1, &cache).unwrap();
            assert_eq!(report.epoch, history.len() as u64);
            history.push(state(&s));
            let epochs = s.snapshot_epochs();
            assert!(epochs.len() <= MAX_SNAPSHOTS);
            assert_eq!(epochs.last(), Some(&(s.epoch() - 1)));
            assert!(epochs.windows(2).all(|w| w[1] == w[0] + 1));
            if pick(3, &mut rng) == 0 {
                let to = epochs[pick(epochs.len(), &mut rng)];
                s.rollback(to).unwrap();
                history.truncate(to as usize + 1);
                assert_eq!(state(&s), history[to as usize], "rollback to epoch {to}");
            }
        }
        let current = state(&s);
        let oldest = s.snapshot_epochs()[0];
        for epoch in [s.epoch(), oldest.wrapping_sub(1)] {
            assert!(matches!(s.rollback(epoch), Err(EcoError::UnknownEpoch(e)) if e == epoch));
            assert_eq!(state(&s), current);
        }

        // Valid edits first, then one that fails: nothing changes.
        let epochs = s.snapshot_epochs();
        let rc = &s.netlist().nets()[3].rc;
        let edge = &rc.edges()[0];
        let bad = [
            EcoEdit::InsertBuffer {
                net: rc.name().into(),
                sink: rc.node(rc.sinks()[0]).name.clone(),
                cell: "BUF_X2".into(),
            },
            EcoEdit::SetResistance {
                net: rc.name().into(),
                a: rc.node(edge.a).name.clone(),
                b: rc.node(edge.b).name.clone(),
                ohms: 42.0,
            },
            EcoEdit::SetCap {
                net: rc.name().into(),
                node: "no_such_node".into(),
                ff: 1.0,
            },
        ];
        assert!(matches!(
            s.apply(&bad, old, 1, &cache),
            Err(EcoError::UnknownNode { .. })
        ));
        assert_eq!(state(&s), current);
        assert_eq!(s.snapshot_epochs(), epochs);

        // A generation change re-times every net; rolling it back
        // restores the generation and every timing.
        let edit = random_edit(s.netlist(), &mut rng);
        let report = s.apply(&[edit], new, 2, &cache).unwrap();
        assert!(report.full_retime);
        assert_eq!(s.model_generation(), 2);
        assert_ne!(state(&s).timing, current.timing);
        s.rollback(current.epoch).unwrap();
        assert_eq!(state(&s), current);

        // A full re-time opens no epoch, yet rolling back past one under
        // another generation is exact too.
        let edit = random_edit(s.netlist(), &mut rng);
        s.apply(&[edit], old, 1, &cache).unwrap();
        s.full_retime(new, 2, &cache).unwrap();
        assert_eq!(s.epoch(), current.epoch + 1);
        s.rollback(current.epoch).unwrap();
        assert_eq!(state(&s), current);
    }

    /// A buffer stub never takes a name the design already uses, so the
    /// net keeps its name and rolling the insertion back restores the
    /// index exactly.
    #[test]
    fn buffer_stub_skips_names_in_use() {
        let wire = |name: &str| {
            let mut b = RcNetBuilder::new(name);
            let src = b.source(format!("{name}:Z"), Farads(0.2e-15));
            let sink = b.sink(format!("{name}_load:A"), Farads(0.5e-15));
            b.resistor(src, sink, Ohms(20.0));
            b.build().unwrap()
        };
        let mut nl = Netlist::new();
        let pi = nl.add_primary_input(wire("eco_buf1"));
        let buf = CellLibrary::builtin().cell("BUF_X1").unwrap().clone();
        nl.add_gate(buf, &[(pi, 0)], wire("out")).unwrap();
        let cache = PredictionCache::new(4, 1 << 20);
        let mut s = DesignSession::new("s", nl, Seconds::from_ps(20.0));
        s.full_retime(&models().0, 1, &cache).unwrap();
        let before = state(&s);
        let edit = EcoEdit::InsertBuffer {
            net: "eco_buf1".into(),
            sink: "eco_buf1_load:A".into(),
            cell: "BUF_X2".into(),
        };
        let report = s.apply(&[edit], &models().0, 1, &cache).unwrap();
        assert_eq!(report.dirty_nets, ["eco_buf1", "out", "eco_buf2"]);
        assert_eq!(s.net_index["eco_buf1"], 0);
        s.rollback(0).unwrap();
        assert_eq!(state(&s), before);
    }

    /// Retained rollback points cost what their batches changed: eight
    /// single-net edits hold well under a tenth of the design again.
    #[test]
    fn approx_bytes_counts_what_the_logs_hold() {
        let cache = PredictionCache::new(4, 1 << 20);
        let mut s = timed_session("DMA", 3, &cache);
        let fresh = s.approx_bytes();
        let mut rng = 7_u64;
        for _ in 0..MAX_SNAPSHOTS {
            let edit = random_edit(s.netlist(), &mut rng);
            s.apply(&[edit], &models().0, 1, &cache).unwrap();
        }
        assert_eq!(s.snapshot_epochs().len(), MAX_SNAPSHOTS);
        let held = s.approx_bytes();
        assert!(held > fresh, "logs not counted: {held} vs {fresh}");
        assert!((held as f64) < 1.1 * fresh as f64, "{held} vs fresh {fresh}");
    }
}
