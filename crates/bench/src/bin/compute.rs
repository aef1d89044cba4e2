//! Compute-layer benchmark: blocked matmul kernels and `par` scaling.
//!
//! Measures the two things the parallel compute layer changed —
//! single-thread matmul throughput (blocked/dispatched kernel vs the
//! seed scalar kernel kept as [`Mat::matmul_reference`]) and
//! dataset-build nets/sec at 1 thread vs `N` threads on the `par` pool
//! — and writes `BENCH_compute.json`. Training throughput has its own
//! benchmark (`bench --bin train`, `BENCH_train.json`), which measures
//! tape vs packed training rather than pool scaling.
//!
//! ```text
//! cargo run -p bench --release --bin compute [-- --steps N --threads T \
//!     --seed S --out PATH]
//! ```
//!
//! `--steps` scales every workload (reps, net counts); the
//! check-script smoke uses `--steps 2`. Like the serve loadgen, the
//! report records `host_cores`: on a single-core host the 1-vs-N runs
//! validate determinism under concurrency, not parallel speedup, and a
//! caveat is printed.

use gnntrans::dataset::DatasetBuilder;
use netgen::nets::{NetConfig, NetGenerator};
use std::fmt::Write as _;
use std::time::Instant;
use tensor::Mat;

struct Args {
    steps: usize,
    threads: usize,
    seed: u64,
    out: String,
}

fn parse_args() -> Args {
    let mut args = Args {
        steps: 30,
        threads: par::resolve_threads(None).max(2),
        seed: 2023,
        out: "BENCH_compute.json".into(),
    };
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let mut i = 0;
    while i < argv.len() {
        let value = argv.get(i + 1);
        match argv[i].as_str() {
            "--steps" => {
                if let Some(v) = value.and_then(|v| v.parse().ok()) {
                    args.steps = v;
                    i += 1;
                }
            }
            "--threads" => {
                if let Some(v) = value.and_then(|v| v.parse().ok()) {
                    args.threads = v;
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
            other => {
                eprintln!(
                    "compute: unknown flag `{other}`\
                     \n  --steps N     workload scale (default 30; smoke: 2)\
                     \n  --threads T   parallel lane count for the 1-vs-N runs\
                     \n  --seed S      net-generation seed\
                     \n  --out PATH    result file (default BENCH_compute.json)"
                );
                std::process::exit(2);
            }
        }
        i += 1;
    }
    args.steps = args.steps.max(1);
    args.threads = args.threads.max(2);
    args
}

fn host_cores() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}

fn fill(rows: usize, cols: usize, seed: f32) -> Mat {
    let data = (0..rows * cols)
        .map(|i| ((i as f32 * 0.37 + seed).sin()) * 0.8)
        .collect();
    Mat::from_vec(rows, cols, data).expect("bench matrix")
}

/// Best-of-reps GFLOP/s of `f` for an `m x k x n` product. Best-of is
/// the robust throughput estimator on a shared host: every slowdown is
/// external (scheduler preemption, cold pages), so the fastest rep is
/// the closest observation of the kernel itself.
fn gflops(m: usize, k: usize, n: usize, reps: usize, f: &dyn Fn() -> Mat) -> f64 {
    let flops = 2.0 * (m * k * n) as f64;
    let best = (0..reps)
        .map(|_| {
            let t0 = Instant::now();
            let out = f();
            let dt = t0.elapsed().as_secs_f64();
            assert!(out.get(0, 0).is_finite());
            dt
        })
        .fold(f64::INFINITY, f64::min);
    flops / best / 1e9
}

struct MatmulRow {
    shape: (usize, usize, usize),
    gflops_blocked: f64,
    gflops_seed: f64,
}

/// 1-vs-N timing of one closure, with the pool reset in between.
struct Scaling {
    serial_s: f64,
    parallel_s: f64,
}

fn time_at<F: FnMut()>(threads: usize, mut f: F) -> f64 {
    par::set_threads(threads);
    let t0 = Instant::now();
    f();
    let dt = t0.elapsed().as_secs_f64();
    par::set_threads(1);
    dt
}

fn main() {
    let args = parse_args();

    // --- matmul throughput (single thread; the kernel itself is serial).
    // Square shapes exercise the cache blocking; the skinny shapes are
    // the products GNNTrans actually runs: hidden-dim projections (hidden
    // 24, node counts tens to a full 2048-row pack), the per-head
    // projections of hidden 24 over 4 heads (6 columns), and a 1000-node
    // net's attention P·V (1000 x 1000 x 6).
    eprintln!("compute: matmul kernels ({} reps)...", args.steps);
    let shapes = [
        (64, 64, 64),
        (128, 128, 128),
        (256, 256, 256),
        (64, 24, 24),
        (200, 13, 24),
        (2048, 24, 6),
        (1000, 1000, 6),
    ];
    let reps = args.steps.clamp(3, 60);
    let matmul: Vec<MatmulRow> = shapes
        .iter()
        .map(|&(m, k, n)| {
            let a = fill(m, k, 1.0);
            let b = fill(k, n, 2.0);
            let row = MatmulRow {
                shape: (m, k, n),
                gflops_blocked: gflops(m, k, n, reps, &|| a.matmul(&b)),
                gflops_seed: gflops(m, k, n, reps, &|| a.matmul_reference(&b)),
            };
            eprintln!(
                "compute: {m}x{k}x{n}: blocked {:.2} GF/s, seed {:.2} GF/s ({:.2}x)",
                row.gflops_blocked,
                row.gflops_seed,
                row.gflops_blocked / row.gflops_seed.max(1e-12),
            );
            row
        })
        .collect();

    // --- dataset build nets/sec, 1 vs N threads.
    let net_count = (4 * args.steps).max(6);
    eprintln!(
        "compute: dataset build over {net_count} nets, 1 vs {} threads...",
        args.threads
    );
    let net_cfg = NetConfig {
        nodes_min: 6,
        nodes_max: 24,
        ..Default::default()
    };
    let mut g = NetGenerator::new(args.seed, net_cfg);
    let nets: Vec<_> = (0..net_count)
        .map(|i| g.net(format!("c{i}"), i % 3 == 0))
        .collect();
    let build = |_: &mut ()| {
        DatasetBuilder::new(1)
            .with_sim_steps(600)
            .build(&nets)
            .expect("dataset build")
    };
    let ds_serial = time_at(1, || {
        build(&mut ());
    });
    let ds_parallel = time_at(args.threads, || {
        build(&mut ());
    });
    let dataset_scaling = Scaling {
        serial_s: ds_serial,
        parallel_s: ds_parallel,
    };

    // --- report.
    let cores = host_cores();
    let mut out = String::with_capacity(2048);
    out.push_str("{\"schema\":\"bench.compute.v1\"");
    let _ = write!(out, ",\"host_cores\":{cores}");
    let _ = write!(out, ",\"steps\":{}", args.steps);
    let _ = write!(out, ",\"threads_n\":{}", args.threads);
    let _ = write!(out, ",\"pool_workers\":{}", par::workers());
    out.push_str(",\"matmul\":[");
    for (i, row) in matmul.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let (m, k, n) = row.shape;
        let _ = write!(out, "{{\"shape\":\"{m}x{k}x{n}\",\"gflops_blocked\":");
        obs::json::push_f64(&mut out, row.gflops_blocked);
        out.push_str(",\"gflops_seed\":");
        obs::json::push_f64(&mut out, row.gflops_seed);
        out.push_str(",\"speedup\":");
        obs::json::push_f64(&mut out, row.gflops_blocked / row.gflops_seed.max(1e-12));
        out.push('}');
    }
    out.push(']');
    let push_scaling = |out: &mut String, name: &str, s: &Scaling, unit_per_s: Option<f64>| {
        let _ = write!(out, ",\"{name}\":{{\"serial_s\":");
        obs::json::push_f64(out, s.serial_s);
        out.push_str(",\"parallel_s\":");
        obs::json::push_f64(out, s.parallel_s);
        out.push_str(",\"speedup\":");
        obs::json::push_f64(out, s.serial_s / s.parallel_s.max(1e-12));
        if let Some(units) = unit_per_s {
            out.push_str(",\"serial_nets_per_s\":");
            obs::json::push_f64(out, units / s.serial_s.max(1e-12));
            out.push_str(",\"parallel_nets_per_s\":");
            obs::json::push_f64(out, units / s.parallel_s.max(1e-12));
        }
        out.push('}');
    };
    push_scaling(&mut out, "dataset_build", &dataset_scaling, Some(net_count as f64));
    out.push('}');

    std::fs::write(&args.out, format!("{out}\n")).expect("write report");
    eprintln!("compute: wrote {}", args.out);

    if cores < args.threads {
        eprintln!(
            "compute: note: host has {cores} core(s) — the par pool is \
             compute-bound, so parallel speedup requires >= {} cores; \
             this run validates determinism under concurrency, not scaling",
            args.threads
        );
    }
}
