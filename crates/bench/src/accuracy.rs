//! Shared driver for TABLE III (non-tree nets) and TABLE IV (all nets):
//! train every estimator once, evaluate per test design, print the
//! paper's row/column layout.

use crate::harness::{
    build_test_samples, build_train_dataset, eval_baseline, train_baselines, ExperimentConfig,
};
use crate::tables::TableWriter;
use gnn::gbdt::GbdtConfig;
use gnntrans::dac20::{feature_rows, Dac20Estimator};
use gnntrans::estimator::{EstimatorConfig, WireTimingEstimator};
use gnntrans::metrics::{evaluate_estimator, EvalResult, Evaluator};
use gnntrans::{CoreError, Dataset, Sample};

/// Evaluates the DAC'20 GBDT on samples.
fn eval_dac20(
    model: &Dac20Estimator,
    samples: &[Sample],
    nontree_only: bool,
) -> Result<EvalResult, CoreError> {
    let mut ev = Evaluator::new();
    for s in samples {
        if nontree_only && s.is_tree() {
            continue;
        }
        let rows = feature_rows(&s.net, &s.ctx)?;
        for (i, (slew, delay)) in model.predict_rows(&rows).iter().enumerate() {
            ev.push(
                (
                    s.targets_ps.get(i, 0) as f64,
                    s.targets_ps.get(i, 1) as f64,
                ),
                (*slew, *delay),
            );
        }
    }
    ev.finish()
}

/// Everything trained once for the accuracy tables.
pub struct TrainedZoo {
    /// The training dataset (scalers are reused for baseline inference).
    pub train_data: Dataset,
    /// The GNNTrans estimator.
    pub gnntrans: WireTimingEstimator,
    /// The DAC'20 GBDT baseline.
    pub dac20: Dac20Estimator,
    /// GCNII, GraphSage, GAT, graph transformer (in that order).
    pub baselines: Vec<Box<dyn gnn::models::GraphModel>>,
}

/// Trains the full model zoo on the scaled training roster.
///
/// # Errors
///
/// Propagates dataset-building and training failures.
pub fn train_zoo(cfg: &ExperimentConfig) -> Result<TrainedZoo, CoreError> {
    eprintln!(
        "[accuracy] generating + labelling training roster (scale {})...",
        cfg.scale
    );
    let train_data = build_train_dataset(cfg)?;
    eprintln!(
        "[accuracy] {} training nets; training GNNTrans...",
        train_data.samples.len()
    );
    let mut est_cfg = EstimatorConfig::plan_b_small();
    // The paper trains GNNTrans to convergence (19 GPU-hours); give it
    // twice the baseline epoch budget and a wider hidden state here.
    est_cfg.epochs = cfg.epochs * 2;
    est_cfg.hidden = 32;
    let mut gnntrans = WireTimingEstimator::new(&est_cfg, cfg.seed);
    gnntrans.train(&train_data)?;
    eprintln!("[accuracy] training DAC'20 GBDT...");
    let dac20 = Dac20Estimator::fit(&train_data, &GbdtConfig::default())?;
    eprintln!("[accuracy] training graph-learning baselines...");
    let baselines = train_baselines(&train_data, cfg)?;
    Ok(TrainedZoo {
        train_data,
        gnntrans,
        dac20,
        baselines,
    })
}

/// Runs the TABLE III/IV protocol and renders the table.
///
/// # Errors
///
/// Propagates evaluation failures.
pub fn run_accuracy_table(
    cfg: &ExperimentConfig,
    nontree_only: bool,
) -> Result<TableWriter, CoreError> {
    let zoo = train_zoo(cfg)?;
    let tests = build_test_samples(cfg)?;
    let which = if nontree_only { "Non-tree" } else { "All" };
    let mut table = TableWriter::new(
        format!(
            "{which}-net wire slew/delay estimation accuracy (R² score), scale={}",
            cfg.scale
        ),
        &[
            "Benchmark", "DAC20", "GCNII", "GraphSage", "GAT", "Trans.", "GNNTrans",
        ],
    );

    let fmt = |r: &Result<EvalResult, CoreError>| match r {
        Ok(r) => format!("{:.3}/{:.3}", r.r2_slew, r.r2_delay),
        Err(_) => "--/--".to_string(),
    };
    let acc = |avg: &mut (f64, f64, f64), r: &Result<EvalResult, CoreError>| {
        if let Ok(r) = r {
            avg.0 += r.r2_slew;
            avg.1 += r.r2_delay;
            avg.2 += 1.0;
        }
    };
    let mut avg: Vec<(f64, f64, f64)> = vec![(0.0, 0.0, 0.0); 6];
    for (spec, samples) in &tests {
        let mut cells = vec![spec.name.to_string()];
        let dac = eval_dac20(&zoo.dac20, samples, nontree_only);
        cells.push(fmt(&dac));
        acc(&mut avg[0], &dac);
        for (bi, model) in zoo.baselines.iter().enumerate() {
            let r = eval_baseline(model.as_ref(), &zoo.train_data, samples, nontree_only);
            cells.push(fmt(&r));
            acc(&mut avg[1 + bi], &r);
        }
        let ours = evaluate_estimator(&zoo.gnntrans, samples, nontree_only);
        cells.push(fmt(&ours));
        acc(&mut avg[5], &ours);
        table.row(cells);
    }
    let mut cells = vec!["Average".to_string()];
    for (s, d, n) in &avg {
        if *n > 0.0 {
            cells.push(format!("{:.3}/{:.3}", s / n, d / n));
        } else {
            cells.push("--/--".to_string());
        }
    }
    table.row(cells);
    Ok(table)
}
