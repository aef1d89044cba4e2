//! Dataset assembly and model-zoo helpers for the experiment binaries.

use gnn::models::{BaselineConfig, GatNet, Gcn2Net, GraphModel, GraphSageNet, GraphTransformerNet};
use gnn::train::{train, TrainConfig};
use gnntrans::dataset::{Dataset, DatasetBuilder, Sample};
use gnntrans::metrics::{EvalResult, Evaluator};
use gnntrans::CoreError;
use netgen::designs::{generate_design, paper_roster, DesignSpec};
use netgen::nets::NetConfig;

use crate::flags::Flags;

/// Knobs shared by every experiment binary, overridable from the command
/// line (`--scale`, `--seed`, `--epochs`, `--layers`, `--quick`,
/// `--obs-json`).
#[derive(Debug, Clone, PartialEq)]
pub struct ExperimentConfig {
    /// Fraction of each paper design's net count to generate.
    pub scale: f64,
    /// Global seed.
    pub seed: u64,
    /// Training epochs for all neural models.
    pub epochs: usize,
    /// Baseline search depth `L` (the paper uses 20).
    pub baseline_layers: usize,
    /// Where to write the observability run report (`--obs-json <path>`;
    /// `None` disables the report).
    pub obs_json: Option<String>,
}

impl Default for ExperimentConfig {
    fn default() -> Self {
        ExperimentConfig {
            scale: 4e-4,
            seed: 2023,
            epochs: 40,
            baseline_layers: 6,
            obs_json: None,
        }
    }
}

impl ExperimentConfig {
    /// Parses the shared experiment flags (see [`crate::flags`]).
    /// `--quick` lowers the defaults of `--scale`, `--epochs` and
    /// `--layers`, so a value given for one of them wins in either
    /// order. An unknown flag or a malformed value prints the usage and
    /// exits 2.
    pub fn from_args<I: IntoIterator<Item = String>>(args: I) -> Self {
        let mut flags = Flags::new("regenerates one table or figure of the paper", args);
        let quick = flags.switch(
            "--quick",
            "small, fast run: scale 2e-4, 10 epochs, 3 layers",
        );
        let d = ExperimentConfig::default();
        let (scale, epochs, layers) = if quick {
            (2e-4, 10, 3)
        } else {
            (d.scale, d.epochs, d.baseline_layers)
        };
        let cfg = ExperimentConfig {
            scale: flags.value("--scale", scale, "fraction of each paper design's nets"),
            seed: flags.value("--seed", d.seed, "global seed"),
            epochs: flags.value("--epochs", epochs, "training epochs of every neural model"),
            baseline_layers: flags.value("--layers", layers, "baseline search depth L"),
            obs_json: flags.optional("--obs-json", "write the obs run report to this path"),
        };
        flags.finish();
        cfg
    }

    /// The net-shape configuration used across all experiments.
    pub fn net_config(&self) -> NetConfig {
        NetConfig {
            nodes_min: 6,
            nodes_max: 36,
            ..Default::default()
        }
    }
}

/// Runs an experiment body inside a root span named `name`, publishing
/// the shared knobs as gauges, then writes the observability run report
/// when `--obs-json` was given.
pub fn run_experiment(name: &str, cfg: &ExperimentConfig, body: impl FnOnce()) {
    obs::gauge("bench.experiment.scale").set(cfg.scale);
    obs::gauge("bench.experiment.seed").set(cfg.seed as f64);
    obs::gauge("bench.experiment.epochs").set(cfg.epochs as f64);
    obs::gauge("bench.experiment.baseline_layers").set(cfg.baseline_layers as f64);
    let wall = std::time::Instant::now();
    obs::with_span(name, body);
    obs::gauge_labeled("bench.experiment.wall_seconds", Some(name))
        .set(wall.elapsed().as_secs_f64());
    write_obs_report(cfg);
}

/// Captures the global span/metric state and writes it to the path
/// configured by `--obs-json` (no-op when unset).
pub fn write_obs_report(cfg: &ExperimentConfig) {
    let Some(path) = &cfg.obs_json else {
        return;
    };
    let report = obs::RunReport::capture();
    match report.write_file(path) {
        Ok(()) => obs::event!(
            obs::Level::Info,
            "bench.harness",
            "obs run report written",
            path = path.as_str(),
        ),
        // A requested report that cannot be written is a real failure;
        // report it regardless of the obs level.
        Err(e) => eprintln!("failed to write obs run report to {path}: {e}"),
    }
}

/// Generates the training roster and builds the labelled dataset.
///
/// # Errors
///
/// Propagates golden-simulation failures.
pub fn build_train_dataset(cfg: &ExperimentConfig) -> Result<Dataset, CoreError> {
    let _span = obs::span("train_data");
    let mut nets = Vec::new();
    for spec in paper_roster().iter().filter(|d| d.train) {
        let design = generate_design(spec, cfg.scale, cfg.seed, cfg.net_config());
        nets.extend(design.nets);
    }
    obs::counter("bench.harness.train_nets").add(nets.len() as u64);
    DatasetBuilder::new(cfg.seed).build(&nets)
}

/// Generates and labels the test designs, keeping them per design (the
/// tables report per-design rows).
///
/// # Errors
///
/// Propagates golden-simulation failures.
pub fn build_test_samples(
    cfg: &ExperimentConfig,
) -> Result<Vec<(DesignSpec, Vec<Sample>)>, CoreError> {
    let _span = obs::span("test_data");
    let builder = DatasetBuilder::new(cfg.seed);
    // Test rows are cheap (no training), so generate 3x the training
    // scale to stabilize the per-design R² estimates.
    let test_scale = cfg.scale * 3.0;
    paper_roster()
        .into_iter()
        .filter(|d| !d.train)
        .map(|spec| {
            let design = generate_design(&spec, test_scale, cfg.seed, cfg.net_config());
            let samples: Result<Vec<Sample>, CoreError> =
                design.nets.iter().map(|n| builder.sample_for(n)).collect();
            Ok((spec, samples?))
        })
        .collect()
}

/// The four graph-learning baselines, trained on the dataset's batches.
///
/// # Errors
///
/// Propagates training failures.
pub fn train_baselines(
    data: &Dataset,
    cfg: &ExperimentConfig,
) -> Result<Vec<Box<dyn GraphModel>>, CoreError> {
    let bcfg = BaselineConfig {
        node_dim: gnntrans::features::NODE_DIM,
        hidden: 16,
        layers: cfg.baseline_layers,
        heads: 4,
        mlp_hidden: 32,
    };
    let mut models: Vec<Box<dyn GraphModel>> = vec![
        Box::new(Gcn2Net::new(&bcfg, cfg.seed)),
        Box::new(GraphSageNet::new(&bcfg, cfg.seed)),
        Box::new(GatNet::new(&bcfg, cfg.seed)),
        Box::new(GraphTransformerNet::new(&bcfg, cfg.seed)),
    ];
    let _span = obs::span("baselines");
    let batches = data.batches()?;
    for m in &mut models {
        // The pure transformer is the most sensitive to learning rate
        // (layer norm + global attention, no graph prior); give it a
        // gentler schedule, as the original Dwivedi-Bresson recipe does.
        let lr = if m.name() == "Trans." { 7e-4 } else { 3e-3 };
        let tcfg = TrainConfig {
            epochs: cfg.epochs,
            lr,
            seed: cfg.seed,
            grad_clip: Some(5.0),
            accum: 1,
        };
        train(m.as_mut(), &batches, &tcfg)?;
    }
    Ok(models)
}

/// Evaluates one graph model on labelled samples: each sample's stored
/// raw features go through the training dataset's scalers.
///
/// # Errors
///
/// Propagates batch packing failures and empty-selection rejection.
pub fn eval_baseline(
    model: &dyn GraphModel,
    train_data: &Dataset,
    samples: &[Sample],
    nontree_only: bool,
) -> Result<EvalResult, CoreError> {
    let sc = &train_data.scalers;
    let mut ev = Evaluator::new();
    for s in samples {
        if nontree_only && s.is_tree() {
            continue;
        }
        let batch = sc.batch(&s.net, &s.node_feats, &s.path_feats, None)?;
        let pred = sc.target.inverse(&model.predict(&batch));
        for i in 0..pred.rows() {
            ev.push(
                (
                    s.targets_ps.get(i, 0) as f64,
                    s.targets_ps.get(i, 1) as f64,
                ),
                (
                    pred.get(i, 0).max(0.0) as f64,
                    pred.get(i, 1).max(0.0) as f64,
                ),
            );
        }
    }
    ev.finish()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn args_parse_and_default() {
        let cfg = ExperimentConfig::from_args(
            ["--scale", "0.001", "--seed", "5", "--epochs", "3"]
                .iter()
                .map(|s| s.to_string()),
        );
        assert_eq!(cfg.scale, 0.001);
        assert_eq!(cfg.seed, 5);
        assert_eq!(cfg.epochs, 3);
        let q = ExperimentConfig::from_args(["--quick".to_string()]);
        assert!(q.scale < ExperimentConfig::default().scale);
    }

    #[test]
    fn obs_json_flag_parses() {
        let cfg = ExperimentConfig::from_args(
            ["--obs-json", "/tmp/report.json", "--quick"]
                .iter()
                .map(|s| s.to_string()),
        );
        assert_eq!(cfg.obs_json.as_deref(), Some("/tmp/report.json"));
    }

    #[test]
    fn an_explicit_flag_wins_over_quick_in_either_order() {
        let parse = |args: &[&str]| ExperimentConfig::from_args(args.iter().map(|s| s.to_string()));
        for args in [
            ["--scale", "0.001", "--quick"],
            ["--quick", "--scale", "0.001"],
        ] {
            let cfg = parse(&args);
            assert_eq!(cfg.scale, 0.001, "{args:?}");
            assert_eq!((cfg.epochs, cfg.baseline_layers), (10, 3), "{args:?}");
        }
        assert_eq!(parse(&["--quick"]).scale, 2e-4);
        assert_eq!(parse(&["--epochs", "7", "--quick"]).epochs, 7);
    }
}
