//! Ablation study over the design choices DESIGN.md calls out:
//!
//! * path-feature concatenation in the pooling module (eq. 4) on/off;
//! * resistance-weighted vs mean neighbor aggregation (eq. 1);
//! * attention depth `L2 = 0` (GNN only) vs GNN depth `L1 = 0`
//!   (attention only) vs the combined stack.
//!
//! ```text
//! cargo run -p bench --release --bin ablation \
//!     [-- --scale X --seed N --epochs E --quick]
//! ```

use bench::harness::{build_test_samples, build_train_dataset, eval_baseline, ExperimentConfig};
use bench::tables::TableWriter;
use gnn::models::{GnnTrans, GnnTransConfig, GraphModel};
use gnn::train::{train, TrainConfig};
use gnntrans::features::{NODE_DIM, PATH_DIM};
use gnntrans::Sample;

fn main() {
    let cfg = ExperimentConfig::from_args(std::env::args().skip(1));
    let report_cfg = cfg.clone();
    bench::run_experiment("ablation", &report_cfg, move || run(cfg));
}

fn run(cfg: ExperimentConfig) {
    eprintln!("[ablation] building datasets (scale {})...", cfg.scale);
    let train_data = build_train_dataset(&cfg).expect("train data");
    // Every test design's nets, scored as one set.
    let tests: Vec<Sample> = build_test_samples(&cfg)
        .expect("test data")
        .into_iter()
        .flat_map(|(_, samples)| samples)
        .collect();
    let batches = train_data.batches().expect("batches");

    let base = GnnTransConfig {
        node_dim: NODE_DIM,
        path_dim: PATH_DIM,
        hidden: 16,
        gnn_layers: 4,
        attn_layers: 2,
        heads: 4,
        mlp_hidden: 32,
        path_features: true,
        weighted_aggregation: true,
        attn_norm: true,
    };
    let variants: Vec<(&str, GnnTransConfig)> = vec![
        ("full GNNTrans (L1=4, L2=2)", base.clone()),
        (
            "no path features (baseline-style pooling)",
            GnnTransConfig {
                path_features: false,
                ..base.clone()
            },
        ),
        (
            "unweighted aggregation (ignore resistance)",
            GnnTransConfig {
                weighted_aggregation: false,
                ..base.clone()
            },
        ),
        (
            "GNN only (L2=0)",
            GnnTransConfig {
                gnn_layers: 6,
                attn_layers: 0,
                ..base.clone()
            },
        ),
        (
            "attention only (L1=0)",
            GnnTransConfig {
                gnn_layers: 0,
                attn_layers: 6,
                ..base.clone()
            },
        ),
    ];

    let mut table = TableWriter::new(
        format!("Ablation — test-set R² (slew/delay), scale={}", cfg.scale),
        &["Variant", "R² slew", "R² delay", "#params"],
    );
    let tcfg = TrainConfig {
        epochs: cfg.epochs,
        lr: 3e-3,
        seed: cfg.seed,
        grad_clip: Some(5.0),
        accum: 1,
    };
    for (name, vcfg) in variants {
        eprint!("[ablation] training `{name}`... ");
        let mut model = GnnTrans::new(&vcfg, cfg.seed);
        train(&mut model, &batches, &tcfg).expect("training");
        let r = eval_baseline(&model, &train_data, &tests, false).expect("evaluation");
        eprintln!("R² delay {:.3}", r.r2_delay);
        table.row(vec![
            name.to_string(),
            format!("{:.3}", r.r2_slew),
            format!("{:.3}", r.r2_delay),
            model.param_set().scalar_count().to_string(),
        ]);
    }
    println!("{table}");
    println!(
        "Expected shape: the full model leads; dropping path features \
         costs the most (they carry the Elmore/D2M physics); unweighted \
         aggregation and single-family stacks land in between."
    );
}
