//! The user-facing wire-timing estimator.

use crate::features::{self, NetContext, NODE_DIM, PATH_DIM};
use crate::scaler::{Scaler, Scalers};
use crate::{CoreError, Dataset};
use gnn::infer::{split_packs, Arena, Layout, PackedBatch};
use gnn::models::{GnnTrans, GnnTransConfig, GraphModel};
use gnn::train::{train, TrainConfig, TrainReport};
use gnn::GraphBatch;
use rcnet::{NodeId, RcNet, Seconds};
use std::cell::RefCell;
use std::time::Instant;
use tensor::{Mat, ParamSet};

/// Graph-count cap per packed chunk; the node budget is
/// [`gnn::infer::PACK_MAX_NODES`].
const PACK_MAX_GRAPHS: usize = 64;

thread_local! {
    /// Per-thread buffer arena for packed forwards. Thread-local so
    /// serve workers and `par` lanes each reuse their own warm pool
    /// without locking.
    static ARENA: RefCell<Arena> = RefCell::new(Arena::new());
}

/// Estimator hyper-parameters (architecture + training).
#[derive(Debug, Clone, PartialEq)]
pub struct EstimatorConfig {
    /// `L1` GNN layers.
    pub gnn_layers: usize,
    /// `L2` attention layers.
    pub attn_layers: usize,
    /// Hidden width.
    pub hidden: usize,
    /// Attention heads.
    pub heads: usize,
    /// MLP head hidden width.
    pub mlp_hidden: usize,
    /// Training epochs.
    pub epochs: usize,
    /// Adam learning rate.
    pub lr: f32,
}

impl EstimatorConfig {
    fn with_split((gnn_layers, attn_layers): (usize, usize)) -> Self {
        EstimatorConfig {
            gnn_layers,
            attn_layers,
            hidden: 24,
            heads: 4,
            mlp_hidden: 32,
            epochs: 40,
            lr: 3e-3,
        }
    }

    /// PlanA at full paper depth (TABLE V: `L1=25, L2=5`, GNN-heavy,
    /// best on small designs).
    pub fn plan_a() -> Self {
        Self::with_split((25, 5))
    }

    /// PlanB at full paper depth (`L1=20, L2=10`, the default).
    pub fn plan_b() -> Self {
        Self::with_split((20, 10))
    }

    /// PlanC at full paper depth (`L1=15, L2=15`, transformer-heavy,
    /// best on large designs).
    pub fn plan_c() -> Self {
        Self::with_split((15, 15))
    }

    /// PlanA scaled 1/5 for CPU runs (`L1=5, L2=1`).
    pub fn plan_a_small() -> Self {
        Self::with_split((5, 1))
    }

    /// PlanB scaled 1/5 for CPU runs (`L1=4, L2=2`).
    pub fn plan_b_small() -> Self {
        Self::with_split((4, 2))
    }

    /// PlanC scaled 1/5 for CPU runs (`L1=3, L2=3`).
    pub fn plan_c_small() -> Self {
        Self::with_split((3, 3))
    }

    fn to_model_config(&self) -> GnnTransConfig {
        GnnTransConfig {
            node_dim: NODE_DIM,
            path_dim: PATH_DIM,
            hidden: self.hidden,
            gnn_layers: self.gnn_layers,
            attn_layers: self.attn_layers,
            heads: self.heads,
            mlp_hidden: self.mlp_hidden,
            path_features: true,
            weighted_aggregation: true,
            attn_norm: true,
        }
    }

    fn to_mat(&self) -> Mat {
        Mat::row_vector(vec![
            self.gnn_layers as f32,
            self.attn_layers as f32,
            self.hidden as f32,
            self.heads as f32,
            self.mlp_hidden as f32,
            self.epochs as f32,
            self.lr,
        ])
    }

    fn from_mat(m: &Mat) -> Result<Self, CoreError> {
        if m.shape() != (1, 7) {
            return Err(CoreError::Checkpoint(format!(
                "config matrix must be 1 x 7, got {} x {}",
                m.rows(),
                m.cols()
            )));
        }
        // Checkpoint data is untrusted: a corrupt config would otherwise
        // drive model construction into absurd allocations or panics.
        let dim = |col: usize, name: &str, lo: f32, hi: f32| -> Result<usize, CoreError> {
            let v = m.get(0, col);
            if !v.is_finite() || v < lo || v > hi || v.fract() != 0.0 {
                return Err(CoreError::Checkpoint(format!(
                    "config field `{name}` is {v}, expected an integer in [{lo}, {hi}]"
                )));
            }
            Ok(v as usize)
        };
        let lr = m.get(0, 6);
        if !lr.is_finite() || lr <= 0.0 || lr > 1.0 {
            return Err(CoreError::Checkpoint(format!(
                "config field `lr` is {lr}, expected in (0, 1]"
            )));
        }
        let cfg = EstimatorConfig {
            gnn_layers: dim(0, "gnn_layers", 0.0, 1024.0)?,
            attn_layers: dim(1, "attn_layers", 0.0, 1024.0)?,
            hidden: dim(2, "hidden", 1.0, 65536.0)?,
            heads: dim(3, "heads", 1.0, 1024.0)?,
            mlp_hidden: dim(4, "mlp_hidden", 1.0, 65536.0)?,
            epochs: dim(5, "epochs", 0.0, 1e9)?,
            lr,
        };
        // The attention layer asserts this; fail with a typed error first.
        if !cfg.hidden.is_multiple_of(cfg.heads) {
            return Err(CoreError::Checkpoint(format!(
                "config hidden ({}) is not divisible by heads ({})",
                cfg.hidden, cfg.heads
            )));
        }
        Ok(cfg)
    }
}

impl Default for EstimatorConfig {
    fn default() -> Self {
        Self::plan_b_small()
    }
}

/// One predicted wire path.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PathEstimate {
    /// The path's sink node.
    pub sink: NodeId,
    /// Predicted sink slew.
    pub slew: Seconds,
    /// Predicted wire delay.
    pub delay: Seconds,
}

/// Per-net result of [`WireTimingEstimator::predict_spef`].
#[derive(Debug, Clone, PartialEq)]
pub struct NetPrediction {
    /// Net name from the SPEF `*D_NET` section.
    pub net: String,
    /// Sink pin name per path, aligned with `estimates`.
    pub sinks: Vec<String>,
    /// Path estimates in [`RcNet::paths`] order.
    pub estimates: Vec<PathEstimate>,
}

/// The trained GNNTrans wire-timing estimator.
///
/// Implements [`sta::WireTimer`], so it plugs directly into
/// [`sta::TimingPath::arrival`] and [`sta::netlist::Netlist::propagate`].
#[derive(Debug, Clone)]
pub struct WireTimingEstimator {
    cfg: EstimatorConfig,
    model: GnnTrans,
    /// `model`'s packed layout; forwards read `model`'s own weights.
    layout: Layout,
    /// A copy of the training set's scalers; `None` until trained.
    scalers: Option<Scalers>,
}

impl WireTimingEstimator {
    /// Creates an untrained estimator.
    pub fn new(cfg: &EstimatorConfig, seed: u64) -> Self {
        let model = GnnTrans::new(&cfg.to_model_config(), seed);
        WireTimingEstimator {
            cfg: cfg.clone(),
            layout: Layout::compile(&model),
            model,
            scalers: None,
        }
    }

    /// Runs `f` on a copy of the model and keeps the copy only when `f`
    /// succeeds, so a failed training call changes nothing.
    fn train_copy<R>(
        &mut self,
        f: impl FnOnce(&mut GnnTrans) -> Result<R, gnn::GnnError>,
    ) -> Result<R, CoreError> {
        let mut model = self.model.clone();
        let result = f(&mut model)?;
        self.model = model;
        Ok(result)
    }

    /// The configuration.
    pub fn config(&self) -> &EstimatorConfig {
        &self.cfg
    }

    /// Whether [`WireTimingEstimator::train`] has completed.
    pub fn is_trained(&self) -> bool {
        self.scalers.is_some()
    }

    /// Number of scalar weights.
    pub fn weight_count(&self) -> usize {
        self.model.param_set().scalar_count()
    }

    /// Trains end to end on a labelled dataset. On failure the
    /// estimator is left unchanged.
    ///
    /// # Errors
    ///
    /// Propagates batch packing and training failures.
    pub fn train(&mut self, data: &Dataset) -> Result<TrainReport, CoreError> {
        let batches = data.batches()?;
        let cfg = train_config(self.cfg.epochs, self.cfg.lr, 1);
        let report = self.train_copy(|m| train(m, &batches, &cfg))?;
        self.scalers = Some(data.scalers.clone());
        Ok(report)
    }

    fn scalers(&self) -> Result<&Scalers, CoreError> {
        self.scalers.as_ref().ok_or(CoreError::NotTrained)
    }

    /// Continues training an already-trained estimator on new labelled
    /// samples (e.g. a freshly routed design), reusing the original
    /// feature/target scalers so representations stay consistent — the
    /// incremental-adaptation flow for the paper's "inductive model
    /// shared across designs". On failure the estimator is left
    /// unchanged.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::NotTrained`] before initial training and
    /// propagates training failures.
    pub fn fine_tune(
        &mut self,
        samples: &[crate::dataset::Sample],
        epochs: usize,
        lr: f32,
    ) -> Result<TrainReport, CoreError> {
        let batches = self.scalers()?.batches(samples)?;
        self.train_copy(|m| train(m, &batches, &train_config(epochs, lr, 2)))
    }

    /// Predicts the slew and delay of every wire path of `net`.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::NotTrained`] before training and
    /// [`CoreError::NonFinitePrediction`] when the model's output is
    /// not finite; propagates feature-analysis failures.
    pub fn predict_net(
        &self,
        net: &RcNet,
        ctx: &NetContext,
    ) -> Result<Vec<PathEstimate>, CoreError> {
        let mut one = self.predict_pack(&[(net, ctx)])?;
        Ok(one.pop().expect("one net in, one estimate out"))
    }

    /// Extracts, scales and clamps the features of one net into a
    /// model-ready batch; also returns how many inputs the clamp changed.
    fn prepare_batch(
        &self,
        net: &RcNet,
        ctx: &NetContext,
    ) -> Result<(GraphBatch, u64), CoreError> {
        let sc = self.scalers()?;
        let (x, pf) = features::extract(net, ctx)?;
        let mut batch = sc.batch(net, &x, &pf, None)?;
        let clamped = clamp_inputs(&mut batch);
        Ok((batch, clamped))
    }

    /// Un-scales a raw `p x 2` prediction into per-path estimates.
    fn estimates_from(&self, net: &RcNet, pred: Mat) -> Result<Vec<PathEstimate>, CoreError> {
        let sc = self.scalers()?;
        // Clamping and `max(0.0)` below would turn NaN into a silent
        // 0 s, so a non-finite output fails the net instead.
        if pred.as_slice().iter().any(|v| !v.is_finite()) {
            return Err(CoreError::NonFinitePrediction {
                net: net.name().to_string(),
            });
        }
        // Predictions are clamped at ±10 sigma of the training targets
        // before un-scaling.
        let raw = sc.target.inverse(&clamp_pred(pred));
        Ok(net
            .paths()
            .iter()
            .enumerate()
            .map(|(i, p)| PathEstimate {
                sink: p.sink,
                slew: Seconds::from_ps(raw.get(i, 0).max(0.0) as f64),
                delay: Seconds::from_ps(raw.get(i, 1).max(0.0) as f64),
            })
            .collect())
    }

    /// Batch inference over many nets (the paper's 200 k-net use case).
    ///
    /// The nets are cut into packs of at most
    /// [`gnn::infer::PACK_MAX_NODES`] nodes and 64 nets (`PACK_MAX_GRAPHS`),
    /// each forwarded as one packed batch straight from the model's own
    /// weights — which is where the serve micro-batch and ECO
    /// dirty-cone throughput comes from. Results (and the first-failure
    /// error) are identical to calling
    /// [`WireTimingEstimator::predict_net`] in a loop.
    ///
    /// # Errors
    ///
    /// Fails on the first net whose features cannot be extracted or
    /// whose prediction is not finite.
    pub fn predict_many<'a, I>(&self, nets: I) -> Result<Vec<Vec<PathEstimate>>, CoreError>
    where
        I: IntoIterator<Item = (&'a RcNet, &'a NetContext)>,
    {
        // Packs split by node counts alone and the in-order try_par_map
        // keep both the result order and the first-failing-net error
        // identical to the serial loop for any `PAR_THREADS` setting.
        let pairs: Vec<(&RcNet, &NetContext)> = nets.into_iter().collect();
        let packs = split_packs(&pairs, |(net, _)| net.node_count(), PACK_MAX_GRAPHS);
        let per_pack = par::try_par_map("predict.pack", &packs, |pack| self.predict_pack(pack))?;
        Ok(per_pack.into_iter().flatten().collect())
    }

    /// Extracts features for one pack of nets, forwards them as one
    /// packed batch, and un-scales each net's rows.
    ///
    /// Each stage records one observation per pack, beside the
    /// forward's `infer.forward_seconds`: `infer.features_seconds`
    /// (wire analysis, features, scaling and [`GraphBatch::build`]),
    /// `infer.pack_seconds` and `infer.unscale_seconds`. The pack's
    /// clamped inputs, if any, are added to `infer.inputs_clamped`.
    fn predict_pack(
        &self,
        pack: &[(&RcNet, &NetContext)],
    ) -> Result<Vec<Vec<PathEstimate>>, CoreError> {
        // Several packs already fill the pool, so inside one of their
        // lanes this map runs serially and the forward reads adjacency
        // its own core just wrote (on a 2-vCPU host, reading adjacency
        // another core built made 100–1000-node nets ~10% slower); a
        // lone pack spreads its nets' features over the pool instead.
        let started = Instant::now();
        let prepared = par::try_par_map("predict.features", pack, |&(net, ctx)| {
            self.prepare_batch(net, ctx)
        })?;
        obs::histogram("infer.features_seconds").observe(started.elapsed().as_secs_f64());
        let clamped: u64 = prepared.iter().map(|(_, c)| c).sum();
        if clamped > 0 {
            obs::counter("infer.inputs_clamped").add(clamped);
        }
        let started = Instant::now();
        let refs: Vec<&GraphBatch> = prepared.iter().map(|(b, _)| b).collect();
        let packed = PackedBatch::pack(&refs)?;
        obs::histogram("infer.pack_seconds").observe(started.elapsed().as_secs_f64());
        let params = self.model.param_set();
        let out = ARENA.with(|a| self.layout.forward(params, &packed, &mut a.borrow_mut()))?;
        let started = Instant::now();
        let estimates = pack
            .iter()
            .enumerate()
            .map(|(s, &(net, _))| {
                let (p0, p1) = packed.path_range(s);
                let mut pred = Mat::zeros(p1 - p0, 2);
                pred.as_mut_slice()
                    .copy_from_slice(&out.as_slice()[p0 * 2..p1 * 2]);
                self.estimates_from(net, pred)
            })
            .collect();
        obs::histogram("infer.unscale_seconds").observe(started.elapsed().as_secs_f64());
        estimates
    }

    /// Parses a SPEF document and predicts every wire path of every net
    /// in one call, using a [`NetContext::generic`] driving context per
    /// net — the serving-layer convenience. Callers that know the real
    /// driver and loads should build a [`NetContext`] and use
    /// [`WireTimingEstimator::predict_net`] instead.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::BadInput`] on malformed SPEF,
    /// [`CoreError::NotTrained`] before training, and propagates
    /// feature-analysis failures.
    pub fn predict_spef(&self, spef_text: &str) -> Result<Vec<NetPrediction>, CoreError> {
        let doc =
            rcnet::spef::parse(spef_text).map_err(|e| CoreError::BadInput(e.to_string()))?;
        // One predict_many over the whole document so the nets share
        // packed forward chunks; the lowest-index-error contract keeps
        // failures identical to the per-net loop.
        let ctxs: Vec<NetContext> = doc.nets.iter().map(NetContext::generic).collect();
        let many = self.predict_many(doc.nets.iter().zip(ctxs.iter()))?;
        Ok(doc
            .nets
            .iter()
            .zip(many)
            .map(|(net, estimates)| NetPrediction {
                sinks: estimates
                    .iter()
                    .map(|p| net.node(p.sink).name.clone())
                    .collect(),
                net: net.name().to_string(),
                estimates,
            })
            .collect())
    }

    /// Saves weights, scalers and configuration to a file.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::NotTrained`] before training and propagates
    /// I/O failures.
    pub fn save(&self, path: impl AsRef<std::path::Path>) -> Result<(), CoreError> {
        let sc = self.scalers()?;
        let mut out = ParamSet::new();
        for (name, mat) in self.model.param_set().iter() {
            out.add(name, mat.clone());
        }
        out.add("__config", self.cfg.to_mat());
        out.add("__scaler_node", sc.node.to_mat());
        out.add("__scaler_path", sc.path.to_mat());
        out.add("__scaler_target", sc.target.to_mat());
        tensor::serialize::save_file(&out, path)?;
        Ok(())
    }

    /// Loads an estimator previously written by
    /// [`WireTimingEstimator::save`].
    ///
    /// Checkpoint files are treated as untrusted input (a serving layer
    /// hot-reloads them at runtime): every failure mode — unreadable or
    /// truncated file, wrong magic, corrupt configuration, scaler or
    /// parameter shape mismatch, non-finite weights — is reported as
    /// [`CoreError::Checkpoint`]; this function never panics.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::Checkpoint`] as described above.
    pub fn load(path: impl AsRef<std::path::Path>) -> Result<Self, CoreError> {
        let loaded = tensor::serialize::load_file(path)
            .map_err(|e| CoreError::Checkpoint(format!("unreadable checkpoint: {e}")))?;
        let find = |name: &str| -> Result<&Mat, CoreError> {
            loaded
                .iter()
                .find(|(n, _)| *n == name)
                .map(|(_, m)| m)
                .ok_or_else(|| CoreError::Checkpoint(format!("missing entry `{name}`")))
        };
        let cfg = EstimatorConfig::from_mat(find("__config")?)?;
        let scaler = |name: &str| -> Result<Scaler, CoreError> {
            Scaler::try_from_mat(find(name)?)
                .map_err(|e| CoreError::Checkpoint(format!("entry `{name}`: {e}")))
        };
        let scalers = Scalers {
            node: scaler("__scaler_node")?,
            path: scaler("__scaler_path")?,
            target: scaler("__scaler_target")?,
        };
        if scalers.node.width() != NODE_DIM
            || scalers.path.width() != PATH_DIM
            || scalers.target.width() != 2
        {
            return Err(CoreError::Checkpoint(format!(
                "scaler widths {}/{}/{} do not match feature dims {NODE_DIM}/{PATH_DIM}/2",
                scalers.node.width(),
                scalers.path.width(),
                scalers.target.width()
            )));
        }
        let mut est = WireTimingEstimator::new(&cfg, 0);
        let n_model = est.model.param_set().len();
        if loaded.len() < n_model {
            return Err(CoreError::Checkpoint(format!(
                "file has {} parameters, model needs {n_model}",
                loaded.len()
            )));
        }
        for i in 0..n_model {
            let expect = est.model.param_set().name(i).to_string();
            if loaded.name(i) != expect {
                return Err(CoreError::Checkpoint(format!(
                    "parameter {i} is `{}`, expected `{expect}`",
                    loaded.name(i)
                )));
            }
            if loaded.get(i).shape() != est.model.param_set().get(i).shape() {
                return Err(CoreError::Checkpoint(format!(
                    "parameter `{expect}` has shape {:?}, expected {:?}",
                    loaded.get(i).shape(),
                    est.model.param_set().get(i).shape()
                )));
            }
            if loaded.get(i).as_slice().iter().any(|v| !v.is_finite()) {
                return Err(CoreError::Checkpoint(format!(
                    "parameter `{expect}` has a non-finite value"
                )));
            }
            *est.model.param_set_mut().get_mut(i) = loaded.get(i).clone();
        }
        est.scalers = Some(scalers);
        Ok(est)
    }
}

/// Clamps a scaled input batch at ±8 sigma in place and returns how many
/// values changed. A deep ReLU stack extrapolates multiplicatively, so an
/// input far outside the training distribution would produce absurd
/// timing instead of a saturated estimate.
fn clamp_inputs(batch: &mut GraphBatch) -> u64 {
    let mut changed = 0;
    let paths = batch.paths.iter_mut().map(|p| &mut p.features);
    for m in std::iter::once(&mut batch.x).chain(paths) {
        for v in m.as_mut_slice() {
            if v.abs() > 8.0 {
                *v = v.clamp(-8.0, 8.0);
                changed += 1;
            }
        }
    }
    changed
}

/// The estimator's training recipe.
fn train_config(epochs: usize, lr: f32, seed: u64) -> TrainConfig {
    TrainConfig {
        epochs,
        lr,
        seed,
        grad_clip: Some(5.0),
        accum: 1,
    }
}

fn clamp_pred(mut m: Mat) -> Mat {
    for v in m.as_mut_slice() {
        *v = v.clamp(-10.0, 10.0);
    }
    m
}

impl sta::WireTimer for WireTimingEstimator {
    /// One [`WireTimingEstimator::predict_net`] under
    /// [`NetContext::for_driver`].
    fn time_net(
        &self,
        net: &RcNet,
        input_slew: Seconds,
        driver: Option<&sta::cells::Cell>,
    ) -> Result<Vec<(Seconds, Seconds)>, sta::StaError> {
        let ctx = NetContext::for_driver(net, driver, input_slew);
        let est = self
            .predict_net(net, &ctx)
            .map_err(|e| sta::StaError::Wire(e.to_string()))?;
        Ok(est.iter().map(|p| (p.delay, p.slew)).collect())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dataset::DatasetBuilder;
    use netgen::nets::{NetConfig, NetGenerator};

    fn nets(n: usize, seed: u64) -> Vec<RcNet> {
        let cfg = NetConfig {
            nodes_min: 4,
            nodes_max: 10,
            ..Default::default()
        };
        let mut g = NetGenerator::new(seed, cfg);
        (0..n).map(|i| g.net(format!("n{i}"), i % 2 == 0)).collect()
    }

    fn quick_cfg() -> EstimatorConfig {
        EstimatorConfig {
            gnn_layers: 2,
            attn_layers: 1,
            hidden: 8,
            heads: 2,
            mlp_hidden: 8,
            epochs: 15,
            lr: 5e-3,
        }
    }

    #[test]
    fn untrained_estimator_refuses_to_predict() {
        let est = WireTimingEstimator::new(&quick_cfg(), 1);
        assert!(!est.is_trained());
        let n = nets(1, 2);
        let ctx = NetContext::generic(&n[0]);
        assert!(matches!(
            est.predict_net(&n[0], &ctx),
            Err(CoreError::NotTrained)
        ));
        assert!(matches!(
            est.save("/tmp/never.bin"),
            Err(CoreError::NotTrained)
        ));
    }

    #[test]
    fn train_then_predict_in_physical_range() {
        let train_nets = nets(12, 3);
        let mut b = DatasetBuilder::new(1);
        let ds = b.build(&train_nets).unwrap();
        let mut est = WireTimingEstimator::new(&quick_cfg(), 7);
        let report = est.train(&ds).unwrap();
        assert!(report.final_loss().is_finite());
        assert!(est.is_trained());

        let probe = &nets(14, 3)[13];
        let ctx = b.context_for(probe);
        let pred = est.predict_net(probe, &ctx).unwrap();
        assert_eq!(pred.len(), probe.paths().len());
        for p in &pred {
            assert!(p.slew.value() >= 0.0 && p.slew.pico_seconds() < 1000.0);
            assert!(p.delay.value() >= 0.0 && p.delay.pico_seconds() < 1000.0);
        }
    }

    #[test]
    fn times_a_ladder_behind_a_picohm_segment() {
        // A valid net whose resistances span fifteen decades: a 1 pΩ
        // segment at the driver feeding ten 1 kΩ segments, 12 nodes. The
        // features read tree recurrences only, so nothing on the predict
        // path factors a conductance matrix that such a net makes
        // numerically singular.
        use rcnet::{Farads, Ohms, RcNetBuilder};
        let train_nets = nets(8, 4);
        let ds = DatasetBuilder::new(1).build(&train_nets).unwrap();
        let mut est = WireTimingEstimator::new(&quick_cfg(), 7);
        est.train(&ds).unwrap();

        let mut b = RcNetBuilder::new("picohm");
        let mut prev = b.source("drv:Z", Farads::from_ff(1.0));
        let first = b.internal("picohm:0", Farads::from_ff(1.0));
        b.resistor(prev, first, Ohms(1e-12));
        prev = first;
        for i in 1..=10 {
            let node = if i == 10 {
                b.sink("load:A", Farads::from_ff(2.0))
            } else {
                b.internal(format!("picohm:{i}"), Farads::from_ff(1.0))
            };
            b.resistor(prev, node, Ohms(1e3));
            prev = node;
        }
        let net = b.build().unwrap();
        assert_eq!(net.node_count(), 12);

        let pred = est.predict_net(&net, &NetContext::generic(&net)).unwrap();
        assert_eq!(pred.len(), net.paths().len());
        for p in &pred {
            assert!(p.slew.value().is_finite() && p.delay.value().is_finite());
        }
    }

    #[test]
    fn save_load_round_trip_preserves_predictions() {
        let train_nets = nets(8, 5);
        let mut b = DatasetBuilder::new(1);
        let ds = b.build(&train_nets).unwrap();
        let mut est = WireTimingEstimator::new(&quick_cfg(), 7);
        est.train(&ds).unwrap();

        let dir = std::env::temp_dir().join("gnntrans_test_model.bin");
        est.save(&dir).unwrap();
        let loaded = WireTimingEstimator::load(&dir).unwrap();
        let probe = &train_nets[0];
        let ctx = b.context_for(probe);
        let a = est.predict_net(probe, &ctx).unwrap();
        let c = loaded.predict_net(probe, &ctx).unwrap();
        assert_eq!(a, c);
        let _ = std::fs::remove_file(dir);
    }

    #[test]
    fn wire_timer_impl_works() {
        use sta::WireTimer;
        let train_nets = nets(8, 6);
        let mut b = DatasetBuilder::new(1);
        let ds = b.build(&train_nets).unwrap();
        let mut est = WireTimingEstimator::new(&quick_cfg(), 7);
        est.train(&ds).unwrap();
        let rows = est
            .time_net(&train_nets[0], Seconds::from_ps(20.0), None)
            .unwrap();
        assert_eq!(rows.len(), train_nets[0].paths().len());
        assert!(rows
            .iter()
            .all(|(d, s)| d.value() >= 0.0 && s.value() >= 0.0));

        // Per sink, propagation adds the driver arrival to `predict_net`
        // under the context the seam builds, with and without a driver.
        let mut nl = sta::netlist::Netlist::new();
        let pi = nl.add_primary_input(train_nets[1].clone());
        let buf = sta::CellLibrary::builtin().cell("BUF_X2").unwrap().clone();
        nl.add_gate(buf, &[(pi, 0)], train_nets[2].clone()).unwrap();
        let timing = nl.propagate(&est, Seconds::from_ps(20.0)).unwrap();
        for (ni, nt) in nl.nets().iter().zip(&timing) {
            let driver = ni.driver.map(|g| &nl.gates()[g.0].cell);
            let ctx = NetContext::for_driver(&ni.rc, driver, nt.at_driver.1);
            let pred = est.predict_net(&ni.rc, &ctx).unwrap();
            let want: Vec<_> = pred
                .iter()
                .map(|p| (nt.at_driver.0 + p.delay, p.slew))
                .collect();
            assert_eq!(nt.at_sinks, want);
        }
    }

    #[test]
    fn fine_tune_improves_on_shifted_data() {
        // Train on small nets, fine-tune on a batch of larger nets;
        // the loss on the new distribution must drop.
        let small = nets(10, 21);
        let mut b = DatasetBuilder::new(1);
        let ds = b.build(&small).unwrap();
        let mut est = WireTimingEstimator::new(&quick_cfg(), 7);
        est.train(&ds).unwrap();

        let big_cfg = netgen::nets::NetConfig {
            nodes_min: 20,
            nodes_max: 30,
            ..Default::default()
        };
        let mut g = NetGenerator::new(77, big_cfg);
        let big: Vec<RcNet> = (0..8).map(|i| g.net(format!("big{i}"), i % 2 == 0)).collect();
        let big_samples: Vec<_> = big.iter().map(|n| b.sample_for(n).unwrap()).collect();

        let report = est.fine_tune(&big_samples, 10, 2e-3).unwrap();
        assert!(report.final_loss() < report.epoch_losses[0]);
        // Untrained estimators refuse to fine-tune.
        let mut fresh = WireTimingEstimator::new(&quick_cfg(), 7);
        assert!(matches!(
            fresh.fine_tune(&big_samples, 2, 1e-3),
            Err(CoreError::NotTrained)
        ));
    }

    #[test]
    fn predict_spef_parses_and_predicts_every_net() {
        let train_nets = nets(10, 9);
        let mut b = DatasetBuilder::new(1);
        let ds = b.build(&train_nets).unwrap();
        let mut est = WireTimingEstimator::new(&quick_cfg(), 7);
        est.train(&ds).unwrap();

        let probe = nets(3, 41);
        let text = rcnet::spef::write(&rcnet::spef::SpefHeader::default(), &probe);
        let preds = est.predict_spef(&text).unwrap();
        assert_eq!(preds.len(), probe.len());
        // Sink names refer to the round-tripped document's nets (node
        // ordering is not preserved through SPEF), so compare there.
        let doc = rcnet::spef::parse(&text).unwrap();
        for (pred, net) in preds.iter().zip(&doc.nets) {
            assert_eq!(pred.net, net.name());
            assert_eq!(pred.estimates.len(), net.paths().len());
            assert_eq!(pred.sinks.len(), pred.estimates.len());
            for (sink, p) in pred.sinks.iter().zip(&pred.estimates) {
                assert_eq!(sink, &net.node(p.sink).name);
                assert!(p.slew.value().is_finite() && p.slew.value() >= 0.0);
                assert!(p.delay.value().is_finite() && p.delay.value() >= 0.0);
            }
        }
        // Malformed SPEF is a typed error, not a panic.
        assert!(matches!(
            est.predict_spef("*D_NET oops"),
            Err(CoreError::BadInput(_))
        ));
        // Untrained estimators still refuse.
        let fresh = WireTimingEstimator::new(&quick_cfg(), 7);
        assert!(matches!(
            fresh.predict_spef(&text),
            Err(CoreError::NotTrained)
        ));
    }

    /// A trained estimator saved to a temp file, for corruption tests.
    fn saved_checkpoint(tag: &str) -> std::path::PathBuf {
        let train_nets = nets(8, 5);
        let mut b = DatasetBuilder::new(1);
        let ds = b.build(&train_nets).unwrap();
        let mut est = WireTimingEstimator::new(&quick_cfg(), 7);
        est.train(&ds).unwrap();
        let path = std::env::temp_dir().join(format!("gnntrans_corrupt_{tag}.bin"));
        est.save(&path).unwrap();
        path
    }

    #[test]
    fn load_rejects_truncated_checkpoint() {
        let path = saved_checkpoint("trunc");
        let bytes = std::fs::read(&path).unwrap();
        for keep in [0, 3, 8, bytes.len() / 2, bytes.len() - 1] {
            std::fs::write(&path, &bytes[..keep]).unwrap();
            assert!(
                matches!(
                    WireTimingEstimator::load(&path),
                    Err(CoreError::Checkpoint(_))
                ),
                "truncation at {keep} must be a Checkpoint error"
            );
        }
        let _ = std::fs::remove_file(path);
    }

    #[test]
    fn load_rejects_bad_magic_and_missing_file() {
        let path = saved_checkpoint("magic");
        let mut bytes = std::fs::read(&path).unwrap();
        bytes[..4].copy_from_slice(b"NOPE");
        std::fs::write(&path, &bytes).unwrap();
        assert!(matches!(
            WireTimingEstimator::load(&path),
            Err(CoreError::Checkpoint(_))
        ));
        let _ = std::fs::remove_file(&path);
        assert!(matches!(
            WireTimingEstimator::load(&path),
            Err(CoreError::Checkpoint(_))
        ));
    }

    #[test]
    fn load_rejects_shape_and_config_corruption() {
        use tensor::ParamSet;
        let path = saved_checkpoint("shape");
        let loaded = tensor::serialize::load_file(&path).unwrap();

        // Rewrite the checkpoint with one corruption at a time.
        let rewrite = |mutate: &dyn Fn(&str, &Mat) -> Mat| {
            let mut out = ParamSet::new();
            for (name, mat) in loaded.iter() {
                out.add(name, mutate(name, mat));
            }
            tensor::serialize::save_file(&out, &path).unwrap();
        };

        // A weight matrix with the wrong shape.
        rewrite(&|name, mat| {
            if name == "__config" || name.starts_with("__scaler") {
                mat.clone()
            } else {
                Mat::zeros(mat.rows() + 1, mat.cols())
            }
        });
        assert!(matches!(
            WireTimingEstimator::load(&path),
            Err(CoreError::Checkpoint(_))
        ));

        // A config whose dimensions are garbage.
        rewrite(&|name, mat| {
            if name == "__config" {
                Mat::row_vector(vec![f32::NAN, 1.0, 8.0, 2.0, 8.0, 15.0, 5e-3])
            } else {
                mat.clone()
            }
        });
        assert!(matches!(
            WireTimingEstimator::load(&path),
            Err(CoreError::Checkpoint(_))
        ));

        // heads not dividing hidden.
        rewrite(&|name, mat| {
            if name == "__config" {
                Mat::row_vector(vec![2.0, 1.0, 8.0, 3.0, 8.0, 15.0, 5e-3])
            } else {
                mat.clone()
            }
        });
        assert!(matches!(
            WireTimingEstimator::load(&path),
            Err(CoreError::Checkpoint(_))
        ));

        // One non-finite weight.
        rewrite(&|name, mat| {
            let mut m = mat.clone();
            if name == "delay/l1/b" {
                m.as_mut_slice()[0] = f32::NAN;
            }
            m
        });
        assert!(matches!(
            WireTimingEstimator::load(&path),
            Err(CoreError::Checkpoint(_))
        ));

        // A scaler with a zero std column.
        rewrite(&|name, mat| {
            if name == "__scaler_node" {
                let mut m = mat.clone();
                m.set(1, 0, 0.0);
                m
            } else {
                mat.clone()
            }
        });
        assert!(matches!(
            WireTimingEstimator::load(&path),
            Err(CoreError::Checkpoint(_))
        ));
        let _ = std::fs::remove_file(path);
    }

    #[test]
    fn packed_predictions_match_the_tape_oracle() {
        let train_nets = nets(10, 13);
        let mut b = DatasetBuilder::new(1);
        let ds = b.build(&train_nets).unwrap();
        let mut est = WireTimingEstimator::new(&quick_cfg(), 7);
        est.train(&ds).unwrap();

        let probes = nets(6, 99);
        let ctxs: Vec<NetContext> = probes.iter().map(|n| b.context_for(n)).collect();
        let pairs: Vec<(&RcNet, &NetContext)> = probes.iter().zip(ctxs.iter()).collect();
        let packed = est.predict_many(pairs.iter().copied()).unwrap();
        for ((net, ctx), got) in pairs.iter().zip(&packed) {
            // The packed ops mirror the tape's accumulation order, so
            // the estimates match the tape forward exactly.
            let (batch, _) = est.prepare_batch(net, ctx).unwrap();
            let tape = est.estimates_from(net, est.model.predict(&batch)).unwrap();
            assert_eq!(got, &tape);
            // And packed predict_many equals the per-net call.
            assert_eq!(&est.predict_net(net, ctx).unwrap(), got);
        }
    }

    #[test]
    fn non_finite_output_fails_instead_of_reading_zero() {
        let train_nets = nets(8, 17);
        let mut b = DatasetBuilder::new(1);
        let ds = b.build(&train_nets).unwrap();
        let mut est = WireTimingEstimator::new(&quick_cfg(), 7);
        est.train(&ds).unwrap();
        est.model.param_set_mut().get_mut(0).as_mut_slice()[0] = f32::NAN;
        let ctx = b.context_for(&train_nets[0]);
        assert!(matches!(
            est.predict_net(&train_nets[0], &ctx),
            Err(CoreError::NonFinitePrediction { .. })
        ));
    }

    #[test]
    fn failed_fine_tune_changes_nothing() {
        let train_nets = nets(8, 23);
        let mut b = DatasetBuilder::new(1);
        let ds = b.build(&train_nets).unwrap();
        let mut est = WireTimingEstimator::new(&quick_cfg(), 7);
        est.train(&ds).unwrap();
        let probe = &train_nets[0];
        let ctx = b.context_for(probe);
        let before = est.predict_net(probe, &ctx).unwrap();

        // Healthy samples first take optimizer steps; the poisoned one
        // then diverges the run.
        let mut samples: Vec<_> = train_nets[1..5]
            .iter()
            .map(|n| b.sample_for(n).unwrap())
            .collect();
        let mut poisoned = b.sample_for(&train_nets[5]).unwrap();
        poisoned.targets_ps = Mat::full(poisoned.targets_ps.rows(), 2, f32::NAN);
        samples.push(poisoned);
        assert!(est.fine_tune(&samples, 2, 1e-2).is_err());
        assert_eq!(est.predict_net(probe, &ctx).unwrap(), before);

        let path = std::env::temp_dir().join("gnntrans_failed_fine_tune.bin");
        est.save(&path).unwrap();
        let reloaded = WireTimingEstimator::load(&path).unwrap();
        let _ = std::fs::remove_file(path);
        assert_eq!(reloaded.predict_net(probe, &ctx).unwrap(), before);
    }

    #[test]
    fn plans_have_expected_depths() {
        let split = |c: EstimatorConfig| (c.gnn_layers, c.attn_layers);
        assert_eq!(split(EstimatorConfig::plan_a()), (25, 5));
        assert_eq!(split(EstimatorConfig::plan_b()), (20, 10));
        assert_eq!(split(EstimatorConfig::plan_c()), (15, 15));
        assert_eq!(split(EstimatorConfig::plan_a_small()), (5, 1));
        assert_eq!(split(EstimatorConfig::plan_b_small()), (4, 2));
        assert_eq!(split(EstimatorConfig::plan_c_small()), (3, 3));
    }
}
