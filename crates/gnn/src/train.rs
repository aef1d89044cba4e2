//! Shared training loop: Adam on per-net MSE, matching the paper's
//! end-to-end training objective (minimize MSE between estimated and
//! golden slew/delay, §IV).
//!
//! A model with a packed layout ([`GraphModel::packed_layout`], i.e.
//! GNNTrans) trains a whole pack of graphs as one tall node matrix
//! through [`Layout::step`]; any other model (the baselines) runs one
//! autograd tape per graph, which is also the gradient oracle. Packs are
//! split from each accumulation chunk by a deterministic rule (never by
//! thread count) and reduced in chunk order, so the trained weights are
//! bit-identical for any `PAR_THREADS` setting.

use crate::batch::GraphBatch;
use crate::infer::{split_packs, Arena, Layout};
use crate::models::GraphModel;
use crate::GnnError;
use std::cell::RefCell;
use tensor::init::InitRng;
use tensor::optim::Adam;
use tensor::{Mat, Tape};

/// Training-loop knobs.
#[derive(Debug, Clone, PartialEq)]
pub struct TrainConfig {
    /// Number of passes over the training set.
    pub epochs: usize,
    /// Adam learning rate.
    pub lr: f32,
    /// Shuffling seed (nets are visited in a new order each epoch).
    pub seed: u64,
    /// Global gradient-norm clip (`None` = unclipped).
    pub grad_clip: Option<f32>,
    /// Graphs per optimizer step. `1` (the default) reproduces the
    /// classic per-graph SGD loop bit for bit. Larger values average
    /// gradients over each chunk of the shuffled visit order and take
    /// one step per chunk; the per-graph (or per-pack) passes inside a
    /// chunk run on the [`par`] pool, and because the accumulation is
    /// reduced in fixed chunk order the trained weights are identical
    /// for any `PAR_THREADS` setting.
    pub accum: usize,
}

impl Default for TrainConfig {
    fn default() -> Self {
        TrainConfig {
            epochs: 30,
            lr: 3e-3,
            seed: 0,
            grad_clip: Some(5.0),
            accum: 1,
        }
    }
}

/// Per-epoch training record.
#[derive(Debug, Clone, PartialEq)]
pub struct TrainReport {
    /// Mean per-net loss of each epoch.
    pub epoch_losses: Vec<f32>,
    /// Wall-clock duration of each epoch, seconds.
    pub epoch_seconds: Vec<f64>,
    /// Pre-clip global gradient norm of the last optimizer step
    /// (`NaN` when no step ran).
    pub final_grad_norm: f32,
    /// Training throughput over the whole run, graphs per second.
    pub graphs_per_s: f64,
    /// Peak packed-step arena footprint observed on any lane, bytes (0
    /// when training ran on the tape).
    pub arena_bytes_peak: usize,
    /// Always 0: training has no fallback path. Kept so existing
    /// readers of the report keep compiling.
    pub fallbacks: u64,
}

impl TrainReport {
    /// Loss of the final epoch.
    pub fn final_loss(&self) -> f32 {
        self.epoch_losses.last().copied().unwrap_or(f32::NAN)
    }

    /// Total wall-clock training time, seconds.
    pub fn total_seconds(&self) -> f64 {
        self.epoch_seconds.iter().sum()
    }
}

/// One graph's tape forward/backward: `(loss, param grads)` — the
/// gradient oracle, and the trainer of models without a packed layout.
///
/// # Panics
///
/// Panics when `batch` has no targets.
pub(crate) fn tape_graph_grads<M: GraphModel + ?Sized>(
    model: &M,
    batch: &GraphBatch,
) -> (f32, Vec<(usize, Mat)>) {
    let targets = batch.targets.as_ref().expect("batch has targets");
    let mut tape = Tape::new();
    let loss = {
        let _s = obs::span("forward");
        let pred = model.forward(&mut tape, batch);
        tape.mse_loss(pred, targets)
    };
    let grads = {
        let _s = obs::span("backward");
        tape.backward(loss);
        tape.param_grads()
    };
    (tape.value(loss).get(0, 0), grads)
}

/// Graph budget of one training pack.
const PACK_MAX_GRAPHS: usize = 8;

thread_local! {
    /// Per-lane arena for packed training steps.
    static ARENA: RefCell<Arena> = RefCell::new(Arena::new());
}

/// Trains `model` on labelled batches.
///
/// # Errors
///
/// Returns [`GnnError::BadBatch`] when a batch lacks targets and
/// [`GnnError::Diverged`] as soon as a loss becomes non-finite, before
/// the optimizer step of that chunk.
pub fn train<M: GraphModel + ?Sized>(
    model: &mut M,
    batches: &[GraphBatch],
    cfg: &TrainConfig,
) -> Result<TrainReport, GnnError> {
    for (i, b) in batches.iter().enumerate() {
        if b.targets.is_none() {
            return Err(GnnError::BadBatch(format!("batch {i} has no targets")));
        }
    }
    let _train_span = obs::span("train");
    let loss_gauge = obs::gauge("gnn.train.loss");
    let grad_gauge = obs::gauge("gnn.train.grad_norm");
    obs::gauge("gnn.train.lr").set(cfg.lr as f64);
    let layout: Option<Layout> = model.packed_layout();
    let mut opt = Adam::new(cfg.lr);
    let mut order: Vec<usize> = (0..batches.len()).collect();
    let mut rng = InitRng::new(cfg.seed);
    let mut epoch_losses = Vec::with_capacity(cfg.epochs);
    let mut epoch_seconds = Vec::with_capacity(cfg.epochs);
    let mut final_grad_norm = f32::NAN;
    let mut arena_bytes_peak = 0usize;

    for epoch in 0..cfg.epochs {
        let epoch_span = obs::span("epoch");
        let epoch_start = std::time::Instant::now();
        {
            // Fisher-Yates shuffle.
            let _s = obs::span("shuffle");
            for i in (1..order.len()).rev() {
                let j = (rng.next_u64() % (i as u64 + 1)) as usize;
                order.swap(i, j);
            }
        }
        let mut total = 0.0f32;
        for chunk in order.chunks(cfg.accum.max(1)) {
            // Fixed-order reduction target: gradients summed by
            // parameter id in chunk order, then mean-scaled (a chunk of
            // one keeps the raw per-graph gradient — the seed loop's
            // semantics). Work fans out on the par pool, and the
            // in-order result contract makes the reduction — and
            // therefore the trained weights — independent of the
            // thread count.
            let outcomes = match &layout {
                // A chunk splits into packs by a deterministic budget
                // rule; each pack trains as one tall matrix on its
                // lane's arena.
                Some(layout) => {
                    let params = model.param_set();
                    let packs = split_packs(chunk, |&bi| batches[bi].node_count(), PACK_MAX_GRAPHS);
                    par::try_par_map("train.pack", &packs, |pack: &&[usize]| {
                        let refs: Vec<&GraphBatch> = pack.iter().map(|&bi| &batches[bi]).collect();
                        let step =
                            ARENA.with(|a| layout.step(params, &refs, &mut a.borrow_mut()))?;
                        Ok::<_, GnnError>((step.losses, step.grads, step.arena_bytes))
                    })?
                }
                None => par::par_map("train.graph", chunk, |&bi| {
                    let (loss, grads) = tape_graph_grads(model, &batches[bi]);
                    (vec![loss], grads, 0)
                }),
            };
            let mut grads: Vec<(usize, Mat)> = Vec::new();
            for (losses, g, bytes) in outcomes {
                for loss in losses {
                    total += loss;
                }
                arena_bytes_peak = arena_bytes_peak.max(bytes);
                for (id, mat) in g {
                    match grads.iter_mut().find(|(i, _)| *i == id) {
                        Some((_, acc)) => acc.axpy(1.0, &mat),
                        None => grads.push((id, mat)),
                    }
                }
            }
            if !total.is_finite() {
                obs::event!(
                    obs::Level::Error,
                    "gnn.train",
                    "training diverged",
                    epoch = epoch,
                    loss = total,
                );
                return Err(GnnError::Diverged { epoch });
            }
            if chunk.len() > 1 {
                let inv = 1.0 / chunk.len() as f32;
                for (_, g) in &mut grads {
                    *g = g.scale(inv);
                }
            }

            let norm: f32 = grads
                .iter()
                .map(|(_, g)| g.norm() * g.norm())
                .sum::<f32>()
                .sqrt();
            final_grad_norm = norm;
            if let Some(clip) = cfg.grad_clip {
                if norm > clip {
                    let s = clip / norm;
                    for (_, g) in &mut grads {
                        *g = g.scale(s);
                    }
                }
            }
            opt.step(model.param_set_mut(), &grads);
        }
        let mean = total / batches.len().max(1) as f32;
        drop(epoch_span);
        epoch_seconds.push(epoch_start.elapsed().as_secs_f64());
        loss_gauge.set(mean as f64);
        grad_gauge.set(final_grad_norm as f64);
        obs::event!(
            obs::Level::Debug,
            "gnn.train",
            "epoch done",
            epoch = epoch,
            loss = mean,
            grad_norm = final_grad_norm,
        );
        epoch_losses.push(mean);
    }
    let total_seconds: f64 = epoch_seconds.iter().sum();
    let graphs_trained = cfg.epochs * batches.len();
    let graphs_per_s = if graphs_trained > 0 && total_seconds > 0.0 {
        graphs_trained as f64 / total_seconds
    } else {
        0.0
    };
    Ok(TrainReport {
        epoch_losses,
        epoch_seconds,
        final_grad_norm,
        graphs_per_s,
        arena_bytes_peak,
        fallbacks: 0,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::models::{GnnTrans, GnnTransConfig};
    use rcnet::{Farads, Ohms, RcNetBuilder};
    use tensor::Mat;

    fn labelled_batch(r: f64, target: f32) -> GraphBatch {
        let mut b = RcNetBuilder::new("n");
        let s = b.source("s", Farads(1e-15));
        let k = b.sink("k", Farads(1e-15));
        b.resistor(s, k, Ohms(r));
        let net = b.build().unwrap();
        let x = Mat::from_vec(2, 3, vec![0.1, 0.2, 0.3, 0.4, 0.5, (r as f32) / 100.0]).unwrap();
        let pf = vec![Mat::row_vector(vec![(r as f32) / 100.0, 1.0])];
        let t = Mat::from_vec(1, 2, vec![target, target * 2.0]).unwrap();
        GraphBatch::build(&net, x, pf, Some(t)).unwrap()
    }

    fn tiny_model() -> GnnTrans {
        GnnTrans::new(
            &GnnTransConfig {
                node_dim: 3,
                path_dim: 2,
                hidden: 8,
                gnn_layers: 2,
                attn_layers: 1,
                heads: 2,
                mlp_hidden: 8,
                ..Default::default()
            },
            42,
        )
    }

    #[test]
    fn loss_decreases_on_learnable_task() {
        let batches = vec![
            labelled_batch(10.0, 0.1),
            labelled_batch(50.0, 0.5),
            labelled_batch(90.0, 0.9),
        ];
        let mut model = tiny_model();
        let report = train(
            &mut model,
            &batches,
            &TrainConfig {
                epochs: 60,
                lr: 5e-3,
                ..Default::default()
            },
        )
        .unwrap();
        let first = report.epoch_losses[0];
        let last = report.final_loss();
        assert!(last < first * 0.2, "loss must drop: {first} -> {last}");
    }

    #[test]
    fn rejects_unlabelled_batches() {
        let mut b = labelled_batch(10.0, 0.1);
        b.targets = None;
        let mut model = tiny_model();
        assert!(matches!(
            train(&mut model, &[b], &TrainConfig::default()),
            Err(GnnError::BadBatch(_))
        ));
    }

    #[test]
    fn empty_training_set_is_noop() {
        let mut model = tiny_model();
        let report = train(
            &mut model,
            &[],
            &TrainConfig {
                epochs: 2,
                ..Default::default()
            },
        )
        .unwrap();
        assert_eq!(report.epoch_losses.len(), 2);
        assert_eq!(report.epoch_losses[0], 0.0);
    }

    #[test]
    fn training_is_deterministic() {
        let batches = vec![labelled_batch(10.0, 0.1), labelled_batch(90.0, 0.9)];
        let cfg = TrainConfig {
            epochs: 5,
            ..Default::default()
        };
        let mut m1 = tiny_model();
        let r1 = train(&mut m1, &batches, &cfg).unwrap();
        let mut m2 = tiny_model();
        let r2 = train(&mut m2, &batches, &cfg).unwrap();
        // Wall-clock fields differ between runs; the numerics must not.
        assert_eq!(r1.epoch_losses, r2.epoch_losses);
        assert_eq!(r1.final_grad_norm, r2.final_grad_norm);
        assert_eq!(m1.predict(&batches[0]), m2.predict(&batches[0]));
    }

    #[test]
    fn report_tracks_epoch_seconds_and_grad_norm() {
        let batches = vec![labelled_batch(10.0, 0.1), labelled_batch(90.0, 0.9)];
        let cfg = TrainConfig {
            epochs: 3,
            ..Default::default()
        };
        let mut model = tiny_model();
        let report = train(&mut model, &batches, &cfg).unwrap();
        assert_eq!(report.epoch_seconds.len(), report.epoch_losses.len());
        assert!(report.epoch_seconds.iter().all(|&s| s > 0.0 && s.is_finite()));
        assert!(report.total_seconds() >= *report.epoch_seconds.last().unwrap());
        assert!(report.final_grad_norm.is_finite());
        assert!(report.final_grad_norm >= 0.0);
        // No optimizer step -> no gradient norm.
        let empty = train(&mut tiny_model(), &[], &cfg).unwrap();
        assert!(empty.final_grad_norm.is_nan());
        assert_eq!(empty.epoch_seconds.len(), cfg.epochs);
    }
}
