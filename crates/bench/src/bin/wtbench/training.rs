//! `train_model`: the write side. Each op labels 16 raw DMA nets with
//! the golden simulator (`DatasetBuilder::build`) and trains a fresh
//! `plan_b_small` on them for 4 epochs. Small ops keep enough
//! samples in a run for a steady p90. The accuracy check retrains the
//! shared model's fixed recipe (`common::shared_model`) through the
//! same pipeline: a small model's R² swings by several percent with
//! which nets it saw, while the recipe, like the held-out sample, does
//! not change with the seed.

use crate::common::{
    accuracy, design, fail, labeller, ms_p50_p99, shared_model, spef, timed_setup, Params,
};
use crate::metrics::Outcome;
use crate::probe;
use crate::spans::{span, Spans};
use gnn::train::TrainReport;
use gnntrans::{EstimatorConfig, WireTimingEstimator};
use rcnet::RcNet;
use std::time::Instant;

/// Training epochs of one op.
fn op_epochs(p: &Params) -> usize {
    p.pick(4, 1)
}

/// One op: label `nets`, train a fresh model; returns the training
/// report and the labelling and training seconds.
fn label_and_train(
    nets: &[RcNet],
    p: &Params,
    traced: Option<&Spans>,
    op: u64,
) -> Result<(TrainReport, f64, f64), String> {
    let cfg = EstimatorConfig {
        epochs: op_epochs(p),
        ..EstimatorConfig::plan_b_small()
    };
    let t0 = Instant::now();
    let data = {
        let _s = span(traced, "core.dataset_build", op);
        labeller(p, p.seed).build(nets)
    }
    .map_err(fail("label"))?;
    let t1 = Instant::now();
    let mut est = WireTimingEstimator::new(&cfg, p.seed);
    let report = {
        let _s = span(traced, "gnn.train", op);
        est.train(&data)
    }
    .map_err(fail("train"))?;
    if !report.final_loss().is_finite() || report.fallbacks != 0 {
        return Err(format!(
            "loss {}, {} packed-training fallbacks",
            report.final_loss(),
            report.fallbacks
        ));
    }
    Ok((report, (t1 - t0).as_secs_f64(), t1.elapsed().as_secs_f64()))
}

pub fn run(workload: &str, p: &Params) -> Outcome {
    let mut out = Outcome::default();
    let setup = timed_setup(p, || Ok(design("DMA", p.pick(0.25, 0.005), p.seed)));
    let (nets, setup_times) = match setup {
        Ok(s) => s,
        Err(e) => {
            out.gate(false, || e);
            return out;
        }
    };
    let per_op: usize = p.pick(16, 8).min(nets.len());
    let (mut label_s, mut train_s, mut epochs_s, mut arena) =
        (Vec::new(), Vec::new(), Vec::new(), 0usize);
    let spans = p.trace.then(Spans::new);
    let samples = crate::common::closed_loop(
        p,
        spans.as_ref(),
        |k, traced| {
            // Ops 2j and 2j+1 take the same nets, so a traced run's traced
            // and untraced halves see the same mix.
            let start = (k as usize / 2 * per_op) % nets.len();
            let slice: Vec<RcNet> = nets
                .iter()
                .cycle()
                .skip(start)
                .take(per_op)
                .cloned()
                .collect();
            let (report, label, train) = label_and_train(&slice, p, traced, k)?;
            if p.trace {
                label_s.push(label);
                train_s.push(train);
                epochs_s.extend(&report.epoch_seconds);
                arena = arena.max(report.arena_bytes_peak);
            }
            Ok(())
        },
        |_| {},
    );
    out.gate(samples.failed == 0, || {
        format!("{} training ops failed", samples.failed)
    });
    if p.trace {
        let per_s = |s: &[f64]| per_op as f64 / (ms_p50_p99(s).0 / 1e3);
        out.detail("train.label_nets_per_s", per_s(&label_s));
        out.detail("train.graphs_per_s", per_s(&train_s) * op_epochs(p) as f64);
        out.detail(
            "gnn.train.epoch_s_mean",
            epochs_s.iter().sum::<f64>() / epochs_s.len().max(1) as f64,
        );
        out.detail(
            "gnn.train.arena_mb_peak",
            arena as f64 / (1u64 << 20) as f64,
        );
    }
    // Tail p90: a 16 s window holds 300 or more ops.
    samples.report(workload, &setup_times, 0.90, &mut out);

    match shared_model(p) {
        Ok(est) => {
            accuracy(&est, p, 0.9, &mut out);
            if p.trace {
                probe::run(&est, &[spef(&nets[..per_op])], p, &mut out);
            }
        }
        Err(e) => out.gate(false, || format!("accuracy model: {e}")),
    }
    if p.trace {
        crate::write_spans(spans.as_ref(), workload, p, &mut out);
    }
    out
}
