//! Labelled dataset construction: contexts, golden labels, batches.
//!
//! For every net the builder (deterministically, from the net's name)
//! assigns a driving cell, load cells and an input slew, extracts the
//! TABLE I features, and runs the golden transient simulator — in SI mode
//! whenever the net has coupling capacitors — to obtain the slew/delay
//! labels. Scalers are fitted over the whole set and applied when the
//! packed [`GraphBatch`]es are produced.

use crate::features::{self, LoadInfo, NetContext, NODE_DIM, PATH_DIM};
use crate::scaler::Scalers;
use crate::CoreError;
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
    /// The scalers fitted over `samples`.
    pub scalers: Scalers,
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
        let scalers = Scalers::fit(&samples);
        Ok(Dataset { samples, scalers })
    }

    /// Packs every sample into a scaled, labelled [`GraphBatch`].
    ///
    /// # Errors
    ///
    /// Propagates batch-validation failures.
    pub fn batches(&self) -> Result<Vec<GraphBatch>, CoreError> {
        self.scalers.batches(&self.samples)
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
            features::extract(net, &ctx)?
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
        Ok(Sample {
            net: net.clone(),
            ctx,
            node_feats,
            path_feats,
            targets_ps: targets,
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
    fn unlabelled_batch_of_an_unseen_net_has_no_targets() {
        let nets = small_nets(4);
        let mut b = DatasetBuilder::new(1);
        let ds = b.build(&nets[..3]).unwrap();
        let (x, pf) = features::extract(&nets[3], &b.context_for(&nets[3])).unwrap();
        let batch = ds.scalers.batch(&nets[3], &x, &pf, None).unwrap();
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
