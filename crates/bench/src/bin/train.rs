//! Training-engine benchmark: tape vs packed-batch backward.
//!
//! Measures the stage the packed trainer changed — single-thread epoch
//! throughput of autograd-tape training vs tape-free packed training
//! at accumulation 1/8/32 — plus packed-vs-tape gradient
//! parity, and writes `BENCH_train.json`. All timing is single-thread
//! (`PAR` pool sized 1): the engine's win must come from the backward
//! itself, not lane count.
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

use gnn::batch::GraphBatch;
use gnn::infer::Arena;
use gnn::models::{GnnTrans, GnnTransConfig, GraphModel};
use gnn::train::{train, TrainConfig};
use gnntrans::features::{NODE_DIM, PATH_DIM};
use netgen::nets::{NetConfig, NetGenerator};
use std::fmt::Write as _;
use std::time::Instant;
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
    let mut args = Args {
        nets: 128,
        epochs: 2,
        reps: 3,
        seed: 2023,
        out: "BENCH_train.json".into(),
        smoke: false,
    };
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let mut i = 0;
    while i < argv.len() {
        let value = argv.get(i + 1);
        match argv[i].as_str() {
            "--nets" => {
                if let Some(v) = value.and_then(|v| v.parse().ok()) {
                    args.nets = v;
                    i += 1;
                }
            }
            "--epochs" => {
                if let Some(v) = value.and_then(|v| v.parse().ok()) {
                    args.epochs = v;
                    i += 1;
                }
            }
            "--reps" => {
                if let Some(v) = value.and_then(|v| v.parse().ok()) {
                    args.reps = v;
                    i += 1;
                }
            }
            "--seed" => {
                if let Some(v) = value.and_then(|v| v.parse().ok()) {
                    args.seed = v;
                    i += 1;
                }
            }
            "--out" => {
                if let Some(v) = value {
                    args.out = v.clone();
                    i += 1;
                }
            }
            "--smoke" => args.smoke = true,
            other => {
                eprintln!(
                    "train: unknown flag `{other}`\
                     \n  --nets N     training-set size (default 128)\
                     \n  --epochs E   epochs per timed run (default 2)\
                     \n  --reps R     best-of repetitions (default 3)\
                     \n  --seed S     net-generation seed\
                     \n  --out PATH   result file (default BENCH_train.json)\
                     \n  --smoke      small workload + gradient-parity assertion"
                );
                std::process::exit(2);
            }
        }
        i += 1;
    }
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

/// Best-of-reps seconds for one full pass over the workload.
fn best_of<F: FnMut()>(reps: usize, mut f: F) -> f64 {
    (0..reps)
        .map(|_| {
            let t0 = Instant::now();
            f();
            t0.elapsed().as_secs_f64()
        })
        .fold(f64::INFINITY, f64::min)
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
    // size, fresh identically-seeded model per timed run.
    struct Row {
        accum: usize,
        tape_s: f64,
        packed_s: f64,
        arena_bytes_peak: usize,
        fallbacks: u64,
    }
    let graphs_per_run = (args.epochs * batches.len()) as f64;
    let rows: Vec<Row> = ACCUM_SIZES
        .iter()
        .map(|&accum| {
            let cfg = TrainConfig {
                epochs: args.epochs,
                seed: args.seed,
                accum,
                ..TrainConfig::default()
            };
            let tape_s = best_of(args.reps, || {
                let mut m = TapeOnly(GnnTrans::new(&model_cfg, args.seed));
                train(&mut m, &batches, &cfg).expect("tape training");
            });
            let mut arena_bytes_peak = 0usize;
            let mut fallbacks = 0u64;
            let packed_s = best_of(args.reps, || {
                let mut m = GnnTrans::new(&model_cfg, args.seed);
                let report = train(&mut m, &batches, &cfg).expect("packed training");
                arena_bytes_peak = arena_bytes_peak.max(report.arena_bytes_peak);
                fallbacks = report.fallbacks;
            });
            eprintln!(
                "train: accum {accum}: tape {:.1} graphs/s, packed {:.1} graphs/s ({:.2}x)",
                graphs_per_run / tape_s,
                graphs_per_run / packed_s,
                tape_s / packed_s.max(1e-12),
            );
            Row { accum, tape_s, packed_s, arena_bytes_peak, fallbacks }
        })
        .collect();

    // --- report.
    let mut out = String::with_capacity(2048);
    out.push_str("{\"schema\":\"bench.train.v1\"");
    let _ = write!(out, ",\"nets\":{}", args.nets);
    let _ = write!(out, ",\"total_paths\":{total_paths}");
    let _ = write!(out, ",\"epochs\":{}", args.epochs);
    let _ = write!(out, ",\"reps\":{}", args.reps);
    out.push_str(",\"grad_parity_single\":");
    obs::json::push_f64(&mut out, worst_single as f64);
    out.push_str(",\"grad_parity_pack\":");
    obs::json::push_f64(&mut out, worst_pack as f64);
    out.push_str(",\"batched\":[");
    for (i, r) in rows.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let _ = write!(out, "{{\"accum\":{},\"tape_graphs_per_s\":", r.accum);
        obs::json::push_f64(&mut out, graphs_per_run / r.tape_s.max(1e-12));
        out.push_str(",\"packed_graphs_per_s\":");
        obs::json::push_f64(&mut out, graphs_per_run / r.packed_s.max(1e-12));
        out.push_str(",\"packed_us_per_graph\":");
        obs::json::push_f64(&mut out, r.packed_s / graphs_per_run * 1e6);
        out.push_str(",\"speedup\":");
        obs::json::push_f64(&mut out, r.tape_s / r.packed_s.max(1e-12));
        let _ = write!(out, ",\"arena_bytes_peak\":{}", r.arena_bytes_peak);
        let _ = write!(out, ",\"fallbacks\":{}", r.fallbacks);
        out.push('}');
    }
    out.push_str("]}");

    std::fs::write(&args.out, format!("{out}\n")).expect("write report");
    eprintln!("train: wrote {}", args.out);
}
