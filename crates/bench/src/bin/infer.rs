//! Inference-engine benchmark: tape vs tape-free forward, packed vs
//! per-graph batching.
//!
//! Measures the serve/ECO hot path the tape-free engine changed —
//! single-net forward latency (autograd tape vs arena-backed
//! [`InferenceModel`]) and batched throughput (cross-net packed GEMMs
//! vs one forward per graph) at batch sizes 1/8/32/128 — and writes
//! `BENCH_infer.json`. All timing is single-thread (`PAR` pool unused):
//! the engine's win must come from the forward itself, not lane count.
//! The variants each row compares are timed in `--reps` interleaved
//! rounds, each measurement spanning at least 100 ms of passes over the
//! nets ([`bench::timing`]), and the report names the kernel tier
//! (`tensor::kernels::tier`) that ran.
//!
//! ```text
//! cargo run -p bench --release --bin infer [-- --nets N --reps R \
//!     --seed S --out PATH --smoke]
//! ```
//!
//! `--smoke` shrinks the workload and additionally asserts parity:
//! packed tape-free output must match the tape forward within 1e-6
//! relative error on every path (the check script runs this gate).

use bench::flags::Flags;
use bench::report::{report, Obj};
use bench::timing;
use gnn::batch::GraphBatch;
use gnn::infer::{Arena, InferenceModel, PackedBatch};
use gnn::models::{GnnTrans, GnnTransConfig, GraphModel};
use gnntrans::features::{NODE_DIM, PATH_DIM};
use netgen::nets::{NetConfig, NetGenerator};
use tensor::{kernels, Mat};

const BATCH_SIZES: [usize; 4] = [1, 8, 32, 128];

struct Args {
    nets: usize,
    reps: usize,
    seed: u64,
    out: String,
    smoke: bool,
}

fn parse_args() -> Args {
    let mut flags = Flags::from_env("tape vs tape-free forward, packed vs per-graph batching");
    let mut args = Args {
        nets: flags.value("--nets", 256, "net pool size"),
        reps: flags.value("--reps", 5, "interleaved timing rounds"),
        seed: flags.value("--seed", 2023, "net-generation seed"),
        out: flags.value("--out", "BENCH_infer.json".to_string(), "result file"),
        smoke: flags.switch("--smoke", "small workload + parity assertion"),
    };
    flags.finish();
    if args.smoke {
        args.nets = args.nets.min(32);
        args.reps = args.reps.min(2);
    }
    args.nets = args.nets.max(BATCH_SIZES[BATCH_SIZES.len() - 1].min(args.nets).max(8));
    args.reps = args.reps.max(1);
    args
}

/// Generated nets with deterministic pseudo-features at the production
/// feature widths; weights don't affect timing, so the model is random.
/// Node counts follow the serve loadgen / ECO session profile (4-14
/// nodes) — the hot path this engine serves — not the larger
/// dataset-build distribution.
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
            let pf = net
                .paths()
                .iter()
                .enumerate()
                .map(|(p, _)| {
                    Mat::from_vec(
                        1,
                        PATH_DIM,
                        (0..PATH_DIM).map(|j| ((p + j) as f32 * 0.17).cos()).collect(),
                    )
                    .expect("path features")
                })
                .collect();
            GraphBatch::build(&net, x, pf, None).expect("batch")
        })
        .collect()
}

fn max_rel_err(a: &Mat, b: &Mat) -> f32 {
    a.as_slice()
        .iter()
        .zip(b.as_slice())
        .map(|(x, y)| (x - y).abs() / x.abs().max(y.abs()).max(1e-3))
        .fold(0.0f32, f32::max)
}

fn main() {
    let args = parse_args();
    par::set_threads(1); // single-thread by design: measure the forward, not the pool.

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
    let compiled = InferenceModel::compile(&model);
    let mut arena = Arena::new();

    eprintln!("infer: generating {} nets...", args.nets);
    let batches = make_batches(args.seed, args.nets);
    let total_paths: usize = batches.iter().map(|b| b.path_count()).sum();

    // Parity first — a fast wrong answer is worthless (and --smoke gates
    // the check script on this).
    let mut worst = 0.0f32;
    for b in &batches {
        let tape = model.predict(b);
        let one = PackedBatch::pack(&[b]).expect("pack");
        let fast = compiled.forward_packed(&one, &mut arena).expect("forward");
        worst = worst.max(max_rel_err(&fast, &tape));
    }
    eprintln!("infer: parity max rel err {worst:.3e} over {total_paths} paths");
    assert!(
        worst <= 1e-6,
        "tape-free forward diverged from tape: {worst:.3e} > 1e-6"
    );

    // One pass over every net: a forward per graph on the tape, or
    // tape-free with its own arena (each timed variant keeps its own).
    let mut tape_pass = || {
        timing::time(|| {
            for b in &batches {
                let out = model.predict(b);
                assert!(out.get(0, 0).is_finite());
            }
        })
    };
    let solo_pass = |arena: &mut Arena| {
        timing::time(|| {
            for b in &batches {
                let one = PackedBatch::pack(&[b]).expect("pack");
                let out = compiled.forward_packed(&one, arena).expect("forward");
                assert!(out.get(0, 0).is_finite());
            }
        })
    };
    let mut solo_arena = Arena::new();

    // --- single-net latency: tape vs tape-free, one forward per graph.
    let tier = kernels::tier();
    eprintln!(
        "infer: single-net forward ({} interleaved rounds, kernel tier {})...",
        args.reps,
        tier.name()
    );
    let t = timing::interleaved(
        args.reps,
        &mut [&mut tape_pass, &mut || solo_pass(&mut solo_arena)],
    );
    let (tape_s, free_s, speedup) = (t.secs(0), t.secs(1), t.ratio(0, 1));
    let n = batches.len() as f64;
    let per_s = |secs: f64| n / secs.max(1e-12);
    eprintln!(
        "infer: tape {:.1} nets/s, tape-free {:.1} nets/s ({speedup:.2}x)",
        per_s(tape_s),
        per_s(free_s),
    );
    let single_net = Obj::new()
        .put("tape_nets_per_s", per_s(tape_s))
        .put("tape_free_nets_per_s", per_s(free_s))
        .put("tape_free_us_per_net", free_s / n * 1e6)
        .put("speedup", speedup);

    // --- batched throughput: packed tape-free vs per-graph tape-free
    // vs per-graph tape, at each batch size.
    let batched: Vec<Obj> = BATCH_SIZES
        .iter()
        .filter(|&&bs| bs <= batches.len())
        .map(|&bs| {
            let groups: Vec<Vec<&GraphBatch>> = batches
                .chunks(bs)
                .map(|c| c.iter().collect())
                .collect();
            let packed: Vec<PackedBatch> = groups
                .iter()
                .map(|g| PackedBatch::pack(g).expect("pack"))
                .collect();
            let mut packed_pass = || {
                timing::time(|| {
                    for p in &packed {
                        let out = compiled.forward_packed(p, &mut arena).expect("forward");
                        assert!(out.get(0, 0).is_finite());
                    }
                })
            };
            let t = timing::interleaved(
                args.reps,
                &mut [
                    &mut packed_pass,
                    &mut || solo_pass(&mut solo_arena),
                    &mut tape_pass,
                ],
            );
            let (packed_s, packed_vs_tape) = (t.secs(0), t.ratio(2, 0));
            eprintln!(
                "infer: batch {bs}: packed {:.1} nets/s ({:.1} us/net), \
                 unpacked {:.1} nets/s, tape {:.1} nets/s ({packed_vs_tape:.2}x packed vs tape)",
                per_s(packed_s),
                packed_s / n * 1e6,
                per_s(t.secs(1)),
                per_s(t.secs(2)),
            );
            Obj::new()
                .put("batch", bs)
                .put("packed_nets_per_s", per_s(packed_s))
                .put("packed_us_per_net", packed_s / n * 1e6)
                .put("unpacked_nets_per_s", per_s(t.secs(1)))
                .put("tape_nets_per_s", per_s(t.secs(2)))
                .put("packed_vs_tape", packed_vs_tape)
                .put("packed_vs_unpacked", t.ratio(1, 0))
        })
        .collect();

    report("bench.infer.v1", args.smoke)
        .put("min_span_ms", timing::MIN_SPAN.as_millis())
        .put("nets", args.nets)
        .put("total_paths", total_paths)
        .put("reps", args.reps)
        .put("parity_max_rel_err", f64::from(worst))
        .put("arena_bytes", arena.bytes())
        .put("single_net", single_net)
        .put("batched", batched)
        .write_to(&args.out);
}
