//! Training-engine benchmark: tape vs packed-batch backward.
//!
//! Measures the stage the packed trainer changed — single-thread epoch
//! throughput of autograd-tape training vs tape-free packed training
//! at accumulation 1/8/32 — plus packed-vs-tape gradient
//! parity, and writes `BENCH_train.json`. All timing is single-thread
//! (`PAR` pool sized 1): the engine's win must come from the backward
//! itself, not lane count. At each accumulation size the two trainers
//! are timed in `--reps` interleaved rounds, each measurement spanning
//! at least 100 ms of training runs ([`bench::timing`]); a run trains a
//! fresh identically-seeded model, built outside the timed part, and
//! the speedup is the median of per-round ratios.
//!
//! ```text
//! cargo run -p bench --release --bin train [-- --nets N --epochs E \
//!     --reps R --seed S --out PATH --smoke]
//! ```
//!
//! `--smoke` shrinks the workload and additionally asserts parity:
//! packed gradients must match the tape within 1e-6 relative error on
//! every parameter, both for a single-graph pack and a full
//! multi-graph pack (the check script runs this gate).

use bench::flags::Flags;
use bench::report::{report, Obj};
use bench::timing;
use gnn::batch::GraphBatch;
use gnn::infer::Arena;
use gnn::models::{GnnTrans, GnnTransConfig, GraphModel};
use gnn::train::{train, TrainConfig};
use gnntrans::features::{NODE_DIM, PATH_DIM};
use netgen::nets::{NetConfig, NetGenerator};
use tensor::{Mat, ParamSet, Tape, Var};

const ACCUM_SIZES: [usize; 3] = [1, 8, 32];

struct Args {
    nets: usize,
    epochs: usize,
    reps: usize,
    seed: u64,
    out: String,
    smoke: bool,
}

fn parse_args() -> Args {
    let mut flags = Flags::from_env("tape vs packed-batch training");
    let mut args = Args {
        nets: flags.value("--nets", 128, "training-set size"),
        epochs: flags.value("--epochs", 2, "epochs per timed run"),
        reps: flags.value("--reps", 3, "interleaved timing rounds"),
        seed: flags.value("--seed", 2023, "net-generation seed"),
        out: flags.value("--out", "BENCH_train.json".to_string(), "result file"),
        smoke: flags.switch("--smoke", "small workload + gradient-parity assertion"),
    };
    flags.finish();
    if args.smoke {
        args.nets = args.nets.min(32);
        args.epochs = args.epochs.min(1);
        args.reps = args.reps.min(1);
    }
    args.nets = args.nets.max(ACCUM_SIZES[ACCUM_SIZES.len() - 1]);
    args.epochs = args.epochs.max(1);
    args.reps = args.reps.max(1);
    args
}

/// Labelled nets at the production feature widths, on the serve/ECO
/// node-count profile (4-14 nodes) the inference bench uses — training
/// is per technology/corner over the same net population. Targets are
/// deterministic pseudo-labels; the loss surface doesn't affect timing.
fn make_batches(seed: u64, count: usize) -> Vec<GraphBatch> {
    let cfg = NetConfig {
        nodes_min: 4,
        nodes_max: 14,
        ..Default::default()
    };
    let mut g = NetGenerator::new(seed, cfg);
    (0..count)
        .map(|i| {
            let net = g.net(format!("b{i}"), i % 3 == 0);
            let n = net.node_count();
            let x = Mat::from_vec(
                n,
                NODE_DIM,
                (0..n * NODE_DIM)
                    .map(|j| ((j as f32 + i as f32) * 0.29).sin() * 0.6)
                    .collect(),
            )
            .expect("node features");
            let paths = net.paths().len();
            let pf = (0..paths)
                .map(|p| {
                    Mat::from_vec(
                        1,
                        PATH_DIM,
                        (0..PATH_DIM).map(|j| ((p + j) as f32 * 0.17).cos()).collect(),
                    )
                    .expect("path features")
                })
                .collect();
            let t = Mat::from_vec(
                paths,
                2,
                (0..paths * 2)
                    .map(|j| ((j as f32 + i as f32) * 0.31).cos() * 0.4 + 0.5)
                    .collect(),
            )
            .expect("targets");
            GraphBatch::build(&net, x, pf, Some(t)).expect("batch")
        })
        .collect()
}

/// GNNTrans without its packed layout, so `train` runs the tape.
struct TapeOnly(GnnTrans);

impl GraphModel for TapeOnly {
    fn name(&self) -> &str {
        "GNNTrans (tape)"
    }
    fn param_set(&self) -> &ParamSet {
        self.0.param_set()
    }
    fn param_set_mut(&mut self) -> &mut ParamSet {
        self.0.param_set_mut()
    }
    fn forward(&self, tape: &mut Tape, batch: &GraphBatch) -> Var {
        self.0.forward(tape, batch)
    }
}

/// One graph's tape gradients — the oracle the packed backward is
/// pinned to.
fn tape_grads(model: &GnnTrans, batch: &GraphBatch) -> Vec<(usize, Mat)> {
    let mut tape = Tape::new();
    let pred = model.forward(&mut tape, batch);
    let loss = tape.mse_loss(pred, batch.targets.as_ref().expect("labelled"));
    tape.backward(loss);
    tape.param_grads()
}

/// Worst per-parameter relative deviation (infinity norms) between two
/// gradient vectors in matching id order.
fn grads_rel_err(a: &[(usize, Mat)], b: &[(usize, Mat)]) -> f32 {
    assert_eq!(a.len(), b.len(), "gradient vectors must align");
    let mut worst = 0.0f32;
    for ((id_a, ga), (id_b, gb)) in a.iter().zip(b) {
        assert_eq!(id_a, id_b, "gradient order must align");
        let mut num = 0.0f32;
        let mut den = 1e-3f32;
        for (x, y) in ga.as_slice().iter().zip(gb.as_slice()) {
            num = num.max((x - y).abs());
            den = den.max(x.abs()).max(y.abs());
        }
        worst = worst.max(num / den);
    }
    worst
}

fn main() {
    let args = parse_args();
    par::set_threads(1); // single-thread by design: measure the backward, not the pool.

    let model_cfg = GnnTransConfig {
        node_dim: NODE_DIM,
        path_dim: PATH_DIM,
        hidden: 24,
        gnn_layers: 2,
        attn_layers: 1,
        heads: 3,
        mlp_hidden: 24,
        ..Default::default()
    };
    let model = GnnTrans::new(&model_cfg, args.seed);
    let layout = model.packed_layout().expect("GnnTrans has a packed layout");

    eprintln!("train: generating {} labelled nets...", args.nets);
    let batches = make_batches(args.seed, args.nets);
    let total_paths: usize = batches.iter().map(|b| b.path_count()).sum();

    // Parity first — a fast wrong gradient is worthless (and --smoke
    // gates the check script on this). Single-graph packs must match
    // the tape exactly; a full pack regroups the weight-grad sums, so
    // it is pinned at 1e-6 relative.
    let mut arena = Arena::new();
    let mut worst_single = 0.0f32;
    for b in batches.iter().take(16) {
        let step = layout
            .step(model.param_set(), &[b], &mut arena)
            .expect("packed step");
        worst_single = worst_single.max(grads_rel_err(&step.grads, &tape_grads(&model, b)));
    }
    let pack: Vec<&GraphBatch> = batches.iter().take(8).collect();
    let pack_step = layout
        .step(model.param_set(), &pack, &mut arena)
        .expect("packed step");
    let mut tape_sum: Vec<(usize, Mat)> = Vec::new();
    for b in &pack {
        for (id, g) in tape_grads(&model, b) {
            match tape_sum.iter_mut().find(|(i, _)| *i == id) {
                Some((_, acc)) => acc.axpy(1.0, &g),
                None => tape_sum.push((id, g)),
            }
        }
    }
    let worst_pack = grads_rel_err(&pack_step.grads, &tape_sum);
    eprintln!(
        "train: grad parity vs tape: single {worst_single:.3e}, 8-graph pack {worst_pack:.3e}"
    );
    assert!(
        worst_single <= 1e-6,
        "single-graph packed gradients diverged from tape: {worst_single:.3e} > 1e-6"
    );
    assert!(
        worst_pack <= 1e-6,
        "packed-batch gradients diverged from tape sum: {worst_pack:.3e} > 1e-6"
    );

    // --- epoch throughput: tape vs packed training at each accumulation
    // size, a fresh identically-seeded model per timed run.
    let graphs_per_run = (args.epochs * batches.len()) as f64;
    let per_s = |secs: f64| graphs_per_run / secs.max(1e-12);
    let batched: Vec<Obj> = ACCUM_SIZES
        .iter()
        .map(|&accum| {
            let cfg = TrainConfig {
                epochs: args.epochs,
                seed: args.seed,
                accum,
                ..TrainConfig::default()
            };
            let mut arena_bytes_peak = 0usize;
            let t = timing::interleaved(
                args.reps,
                &mut [
                    &mut || {
                        let mut m = TapeOnly(GnnTrans::new(&model_cfg, args.seed));
                        timing::time(|| {
                            train(&mut m, &batches, &cfg).expect("tape training");
                        })
                    },
                    &mut || {
                        let mut m = GnnTrans::new(&model_cfg, args.seed);
                        let mut peak = 0;
                        let secs = timing::time(|| {
                            peak = train(&mut m, &batches, &cfg)
                                .expect("packed training")
                                .arena_bytes_peak;
                        });
                        arena_bytes_peak = arena_bytes_peak.max(peak);
                        secs
                    },
                ],
            );
            let (tape_s, packed_s, speedup) = (t.secs(0), t.secs(1), t.ratio(0, 1));
            eprintln!(
                "train: accum {accum}: tape {:.1} graphs/s, packed {:.1} graphs/s ({speedup:.2}x)",
                per_s(tape_s),
                per_s(packed_s),
            );
            Obj::new()
                .put("accum", accum)
                .put("tape_graphs_per_s", per_s(tape_s))
                .put("packed_graphs_per_s", per_s(packed_s))
                .put("packed_us_per_graph", packed_s / graphs_per_run * 1e6)
                .put("speedup", speedup)
                .put("arena_bytes_peak", arena_bytes_peak)
        })
        .collect();

    report("bench.train.v1", args.smoke)
        .put("min_span_ms", timing::MIN_SPAN.as_millis())
        .put("nets", args.nets)
        .put("total_paths", total_paths)
        .put("epochs", args.epochs)
        .put("reps", args.reps)
        .put("grad_parity_single", f64::from(worst_single))
        .put("grad_parity_pack", f64::from(worst_pack))
        .put("batched", batched)
        .write_to(&args.out);
}
