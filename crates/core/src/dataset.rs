//! Labelled dataset construction: contexts, golden labels, batches.
//!
//! For every net the builder (deterministically, from the net's name)
//! assigns a driving cell, load cells and an input slew, extracts the
//! TABLE I features, and runs the golden transient simulator — in SI mode
//! whenever the net has coupling capacitors — to obtain the slew/delay
//! labels. Scalers are fitted over the whole set and applied when the
//! packed [`GraphBatch`]es are produced.

use crate::features::{self, LoadInfo, NetContext, NODE_DIM, PATH_DIM};
use crate::scaler::Scaler;
use crate::CoreError;
use elmore::WireAnalysis;
use gnn::GraphBatch;
use rcnet::{RcNet, Seconds};
use rcsim::{GoldenTimer, SiMode};
use sta::cells::CellLibrary;
use tensor::init::InitRng;
use tensor::Mat;

/// One labelled net.
#[derive(Debug, Clone)]
pub struct Sample {
    /// The parasitic network (owned; adjacency is rebuilt per batch).
    pub net: RcNet,
    /// The circuit context the labels were generated under.
    pub ctx: NetContext,
    /// Raw (unscaled) node features.
    pub node_feats: Mat,
    /// Raw path feature rows.
    pub path_feats: Vec<Mat>,
    /// Golden labels, `p x 2`, in picoseconds (slew, delay).
    pub targets_ps: Mat,
    /// Manual feature rows for the DAC'20 baseline, one per path.
    pub dac20_rows: Vec<Vec<f64>>,
}

impl Sample {
    /// Whether the underlying net is a tree.
    pub fn is_tree(&self) -> bool {
        self.net.is_tree()
    }
}

/// A labelled dataset with fitted scalers.
#[derive(Debug, Clone)]
pub struct Dataset {
    /// The samples.
    pub samples: Vec<Sample>,
    /// Node-feature scaler.
    pub node_scaler: Scaler,
    /// Path-feature scaler.
    pub path_scaler: Scaler,
    /// Target scaler (over the `p x 2` picosecond labels).
    pub target_scaler: Scaler,
}

impl Dataset {
    /// Fits scalers over `samples` and assembles the dataset.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::BadInput`] when `samples` is empty.
    pub fn from_samples(samples: Vec<Sample>) -> Result<Self, CoreError> {
        if samples.is_empty() {
            return Err(CoreError::BadInput("no samples".into()));
        }
        let node_scaler = Scaler::fit(samples.iter().map(|s| &s.node_feats));
        let path_mats: Vec<&Mat> = samples.iter().flat_map(|s| s.path_feats.iter()).collect();
        let path_scaler = Scaler::fit(path_mats.iter().copied());
        let target_scaler = Scaler::fit(samples.iter().map(|s| &s.targets_ps));
        Ok(Dataset {
            samples,
            node_scaler,
            path_scaler,
            target_scaler,
        })
    }

    /// Packs every sample into a scaled, labelled [`GraphBatch`].
    ///
    /// # Errors
    ///
    /// Propagates batch-validation failures.
    pub fn batches(&self) -> Result<Vec<GraphBatch>, CoreError> {
        self.samples
            .iter()
            .map(|s| {
                let x = self.node_scaler.transform(&s.node_feats);
                let pf = s
                    .path_feats
                    .iter()
                    .map(|f| self.path_scaler.transform(f))
                    .collect();
                let t = self.target_scaler.transform(&s.targets_ps);
                GraphBatch::build(&s.net, x, pf, Some(t)).map_err(CoreError::from)
            })
            .collect()
    }

    /// Packs a single (possibly unseen) net into a scaled, unlabelled
    /// batch using this dataset's scalers.
    ///
    /// # Errors
    ///
    /// Propagates feature-analysis and batch-validation failures.
    pub fn batch_for(&self, net: &RcNet, ctx: &NetContext) -> Result<GraphBatch, CoreError> {
        let wa = WireAnalysis::new(net)?;
        let x = self.node_scaler.transform(&features::node_features(net, &wa, ctx));
        let pf = features::all_path_features(net, &wa, ctx)
            .iter()
            .map(|f| self.path_scaler.transform(f))
            .collect();
        GraphBatch::build(net, x, pf, None).map_err(CoreError::from)
    }
}

/// Builds labelled samples from raw nets.
#[derive(Debug)]
pub struct DatasetBuilder {
    seed: u64,
    lib: CellLibrary,
    vdd: f64,
    sim_steps: usize,
}

impl DatasetBuilder {
    /// Creates a builder; `seed` controls the per-net context assignment.
    pub fn new(seed: u64) -> Self {
        DatasetBuilder {
            seed,
            lib: CellLibrary::builtin(),
            vdd: 0.8,
            sim_steps: 2500,
        }
    }

    /// Overrides the golden-simulation step count (accuracy vs speed).
    pub fn with_sim_steps(mut self, steps: usize) -> Self {
        self.sim_steps = steps;
        self
    }

    /// The cell library used for context assignment.
    pub fn library(&self) -> &CellLibrary {
        &self.lib
    }

    fn rng_for(&self, name: &str) -> InitRng {
        let mut h: u64 = 0xcbf29ce484222325 ^ self.seed.wrapping_mul(0x100000001b3);
        for b in name.bytes() {
            h ^= b as u64;
            h = h.wrapping_mul(0x100000001b3);
        }
        InitRng::new(h)
    }

    /// The deterministic circuit context assigned to `net` (same result
    /// at dataset build time and at inference time).
    pub fn context_for(&self, net: &RcNet) -> NetContext {
        let mut rng = self.rng_for(net.name());
        let drivers = ["INV_X2", "INV_X4", "BUF_X2", "BUF_X4"];
        let drive = self
            .lib
            .cell(drivers[(rng.next_u64() % drivers.len() as u64) as usize])
            .expect("builtin cell");
        let input_slew = Seconds::from_ps(8.0 + 80.0 * (rng.uniform() * 0.5 + 0.5) as f64);
        let load_cells = ["INV_X1", "BUF_X1", "NAND2_X1", "NOR2_X1", "DFF_X1"];
        let loads = net
            .sinks()
            .iter()
            .map(|_| {
                let cell = self
                    .lib
                    .cell(load_cells[(rng.next_u64() % load_cells.len() as u64) as usize])
                    .expect("builtin cell");
                LoadInfo {
                    drive: cell.drive(),
                    func: cell.func().encode(),
                    ceff: cell.pin_cap().value(),
                }
            })
            .collect();
        NetContext {
            input_slew,
            drive_strength: drive.drive(),
            drive_func: drive.func().encode(),
            drive_res: drive.drive_res(),
            loads,
        }
    }

    /// Builds one labelled sample (features + golden labels).
    ///
    /// # Errors
    ///
    /// Propagates golden-simulation and analysis failures.
    pub fn sample_for(&self, net: &RcNet) -> Result<Sample, CoreError> {
        let _span = obs::span("sample");
        let ctx = self.context_for(net);
        let (node_feats, path_feats) = {
            let _s = obs::span("features");
            let wa = WireAnalysis::new(net)?;
            let node_feats = features::node_features(net, &wa, &ctx);
            let path_feats = features::all_path_features(net, &wa, &ctx);
            (node_feats, path_feats)
        };
        debug_assert_eq!(node_feats.cols(), NODE_DIM);
        debug_assert!(path_feats.iter().all(|f| f.cols() == PATH_DIM));

        // Golden labels: SI mode when the net is coupled.
        let si = if net.couplings().is_empty() {
            SiMode::Off
        } else {
            SiMode::WorstCase {
                aggressor_ramp: ctx.input_slew,
            }
        };
        let timer = GoldenTimer::new(self.vdd, ctx.drive_res).with_steps(self.sim_steps);
        let timing = {
            let _s = obs::span("golden");
            timer.time_net(net, ctx.input_slew, si)?
        };
        obs::counter("gnntrans.dataset.samples").inc();
        let mut targets = Mat::zeros(timing.len(), 2);
        for (i, t) in timing.iter().enumerate() {
            targets.set(i, 0, t.slew.pico_seconds() as f32);
            targets.set(i, 1, t.delay.pico_seconds() as f32);
        }

        // The DAC'20 baseline sees the net through its own crude
        // (depth-first) loop-breaking, as the original recipe does.
        let wa_dac =
            elmore::WireAnalysis::with_policy(net, elmore::LoopBreaking::DepthFirst)?;
        let dac20_rows = crate::dac20::feature_rows(net, &wa_dac, &ctx);
        Ok(Sample {
            net: net.clone(),
            ctx,
            node_feats,
            path_feats,
            targets_ps: targets,
            dac20_rows,
        })
    }

    /// Builds a full dataset over `nets` and fits the scalers.
    ///
    /// # Errors
    ///
    /// Propagates per-net failures and empty-input rejection.
    pub fn build(&mut self, nets: &[RcNet]) -> Result<Dataset, CoreError> {
        let _span = obs::span("dataset_build");
        // Each net's golden simulation is independent; try_par_map
        // returns samples in input order (and the lowest-index error),
        // so the built dataset — scalers included — is byte-identical
        // to a serial build for any `PAR_THREADS` setting.
        let builder = &*self;
        let samples = par::try_par_map("dataset.sample", nets, |n| builder.sample_for(n))?;
        let ds = Dataset::from_samples(samples)?;
        obs::event!(
            obs::Level::Info,
            "gnntrans.dataset",
            "dataset built",
            nets = nets.len(),
            samples = ds.samples.len(),
        );
        Ok(ds)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use netgen::nets::{NetConfig, NetGenerator};

    fn small_nets(n: usize) -> Vec<RcNet> {
        let cfg = NetConfig {
            nodes_min: 4,
            nodes_max: 10,
            ..Default::default()
        };
        let mut g = NetGenerator::new(3, cfg);
        (0..n).map(|i| g.net(format!("n{i}"), i % 2 == 0)).collect()
    }

    #[test]
    fn builds_labelled_dataset() {
        let nets = small_nets(6);
        let mut b = DatasetBuilder::new(1);
        let ds = b.build(&nets).unwrap();
        assert_eq!(ds.samples.len(), 6);
        for s in &ds.samples {
            assert_eq!(s.targets_ps.rows(), s.net.paths().len());
            assert_eq!(s.targets_ps.cols(), 2);
            // Labels are physically sensible: positive, sub-ns.
            for v in s.targets_ps.as_slice() {
                assert!(*v > 0.0 && *v < 1000.0, "label {v} ps out of range");
            }
            assert_eq!(s.dac20_rows.len(), s.net.paths().len());
        }
    }

    #[test]
    fn batches_are_scaled_and_labelled() {
        let nets = small_nets(5);
        let mut b = DatasetBuilder::new(1);
        let ds = b.build(&nets).unwrap();
        let batches = ds.batches().unwrap();
        assert_eq!(batches.len(), 5);
        for batch in &batches {
            assert!(batch.targets.is_some());
            // Z-scored features should be O(1).
            assert!(batch.x.max_abs() < 20.0);
        }
    }

    #[test]
    fn context_is_deterministic_and_name_dependent() {
        let nets = small_nets(2);
        let b = DatasetBuilder::new(9);
        let c1 = b.context_for(&nets[0]);
        let c2 = b.context_for(&nets[0]);
        assert_eq!(c1, c2);
        let c3 = b.context_for(&nets[1]);
        assert!(c1 != c3 || nets[0].name() == nets[1].name());
    }

    #[test]
    fn batch_for_unseen_net_has_no_targets() {
        let nets = small_nets(4);
        let mut b = DatasetBuilder::new(1);
        let ds = b.build(&nets[..3]).unwrap();
        let ctx = b.context_for(&nets[3]);
        let batch = ds.batch_for(&nets[3], &ctx).unwrap();
        assert!(batch.targets.is_none());
        assert_eq!(batch.path_count(), nets[3].paths().len());
    }

    #[test]
    fn empty_dataset_rejected() {
        assert!(matches!(
            Dataset::from_samples(vec![]),
            Err(CoreError::BadInput(_))
        ));
    }

    #[test]
    fn farther_sinks_get_larger_delay_labels() {
        // Sanity: on a long chain, the label grows with distance.
        use rcnet::{Farads, Ohms, RcNetBuilder};
        let mut bld = RcNetBuilder::new("chain");
        let s = bld.source("s", Farads::from_ff(1.0));
        let near = bld.sink("near", Farads::from_ff(2.0));
        bld.resistor(s, near, Ohms(50.0));
        let mut prev = near;
        for i in 0..6 {
            let m = bld.internal(format!("m{i}"), Farads::from_ff(2.0));
            bld.resistor(prev, m, Ohms(100.0));
            prev = m;
        }
        let far = bld.sink("far", Farads::from_ff(2.0));
        bld.resistor(prev, far, Ohms(100.0));
        let net = bld.build().unwrap();

        let b = DatasetBuilder::new(1);
        let s = b.sample_for(&net).unwrap();
        // paths() order matches sinks() order: near first.
        assert!(s.targets_ps.get(1, 1) > s.targets_ps.get(0, 1));
    }
}
