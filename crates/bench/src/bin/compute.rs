//! Compute-layer benchmark: blocked matmul kernels and `par` scaling.
//!
//! Measures single-thread matmul throughput (blocked/dispatched kernel,
//! through `Mat::matmul` and through the forward's overwrite-store
//! `matmul_into`, vs the seed scalar kernel kept as
//! [`Mat::matmul_reference`]), the
//! attention softmax (ns per score of the vectorized column kernel vs
//! a row softmax over libm `f32::exp`), and dataset-build nets/sec at 1
//! thread vs `N` threads on the `par` pool, and writes
//! `BENCH_compute.json`. Training throughput has its own
//! benchmark (`bench --bin train`, `BENCH_train.json`), which measures
//! tape vs packed training rather than pool scaling.
//!
//! The variants of each kernel row, and the dataset build's 1 and `N`
//! threads, are timed in interleaved rounds, each measurement spanning
//! at least 100 ms ([`bench::timing`]); every speedup is the median of
//! per-round ratios. The report names the kernel tier
//! (`tensor::kernels::tier`) that ran.
//!
//! ```text
//! cargo run -p bench --release --bin compute [-- --steps N --threads T \
//!     --seed S --out PATH]
//! ```
//!
//! `--steps` scales every workload (rounds, up to 7; net counts); the
//! check-script smoke uses `--steps 2`. Like the serve loadgen, the
//! report records `host_cores`: on a single-core host the 1-vs-N runs
//! validate determinism under concurrency, not parallel speedup, and a
//! caveat is printed.

use bench::timing;
use gnntrans::dataset::DatasetBuilder;
use netgen::nets::{NetConfig, NetGenerator};
use std::fmt::Write as _;
use tensor::{kernels, Mat};

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

/// Scale, then a softmax over each row with libm `f32::exp`: the
/// tape's `scale` + `softmax_rows`, the baseline of the column kernel.
fn softmax_rows_libm(cols: usize, scale: f32, v: &mut [f32]) {
    for row in v.chunks_exact_mut(cols) {
        let mut max = f32::NEG_INFINITY;
        for x in row.iter_mut() {
            *x *= scale;
            max = max.max(*x);
        }
        let mut sum = 0.0;
        for x in row.iter_mut() {
            *x = (*x - max).exp();
            sum += *x;
        }
        for x in row.iter_mut() {
            *x /= sum;
        }
    }
}

/// A [`timing::interleaved`] variant: refills its own copy of `src`
/// (untimed), then times `f` on it.
fn on_copy<'a>(src: &'a [f32], f: impl Fn(&mut [f32]) + 'a) -> impl FnMut() -> f64 + 'a {
    let mut buf = src.to_vec();
    move || {
        buf.copy_from_slice(src);
        timing::time(|| f(&mut buf))
    }
}

/// One `n x n` attention score matrix through both softmax layouts.
struct SoftmaxRow {
    n: usize,
    ns_cols: f64,
    ns_rows_libm: f64,
    ns_exp: f64,
    ns_exp_libm: f64,
    /// Libm row time over column time, the median of per-round ratios.
    speedup: f64,
    bit_identical: bool,
}

struct MatmulRow {
    shape: (usize, usize, usize),
    gflops_blocked: f64,
    gflops_set: f64,
    gflops_seed: f64,
    /// Seed time over blocked time, the median of per-round ratios.
    speedup: f64,
}

/// 1-vs-N timing of one closure.
struct Scaling {
    serial_s: f64,
    parallel_s: f64,
    /// Serial time over parallel time, the median of per-round ratios.
    speedup: f64,
}

fn main() {
    let args = parse_args();

    // --- matmul throughput (single thread; the kernel itself is serial).
    // Square shapes exercise the cache blocking; the skinny shapes are
    // the products GNNTrans actually runs: hidden-dim projections (hidden
    // 24, node counts tens to a full 2048-row pack), one head's
    // projection of hidden 24 over 4 heads (6 columns) beside the fused
    // Q/K/V projection of all 4 heads the engine runs (72 columns), and
    // a 1000-node net's attention products: the row-layout P·V (1000 x
    // 1000 x 6) and the transposed forms the engine runs, Vᵀ·Pᵀ (6 x
    // 1000 x 1000) and K·Qᵀ (1000 x 6 x 1000). `blocked` is
    // `Mat::matmul` (a zeroed allocation, then the accumulating GEMM);
    // `set` is the forward's `matmul_into`, the overwrite store into a
    // reused output.
    let tier = kernels::tier();
    let rounds = args.steps.clamp(1, 7);
    eprintln!("compute: kernel tier {}", tier.name());
    eprintln!("compute: matmul kernels ({rounds} interleaved rounds)...");
    let shapes = [
        (64, 64, 64),
        (128, 128, 128),
        (256, 256, 256),
        (64, 24, 24),
        (200, 13, 24),
        (2048, 24, 6),
        (2048, 24, 72),
        (1000, 1000, 6),
        (6, 1000, 1000),
        (1000, 6, 1000),
    ];
    let matmul: Vec<MatmulRow> = shapes
        .iter()
        .map(|&(m, k, n)| {
            let a = fill(m, k, 1.0);
            let b = fill(k, n, 2.0);
            let mut c = Mat::zeros(m, n);
            let t = timing::interleaved(
                rounds,
                &mut [
                    &mut || timing::time(|| assert!(a.matmul(&b).get(0, 0).is_finite())),
                    &mut || timing::time(|| tensor::infer::matmul_into(&a, &b, &mut c)),
                    &mut || timing::time(|| assert!(a.matmul_reference(&b).get(0, 0).is_finite())),
                ],
            );
            assert!(c.get(0, 0).is_finite());
            let gflops = |s: f64| 2.0 * (m * k * n) as f64 / s / 1e9;
            let row = MatmulRow {
                shape: (m, k, n),
                gflops_blocked: gflops(t.secs(0)),
                gflops_set: gflops(t.secs(1)),
                gflops_seed: gflops(t.secs(2)),
                speedup: t.ratio(2, 0),
            };
            eprintln!(
                "compute: {m}x{k}x{n}: blocked {:.2} GF/s, set {:.2} GF/s, seed {:.2} GF/s ({:.2}x)",
                row.gflops_blocked,
                row.gflops_set,
                row.gflops_seed,
                row.speedup,
            );
            row
        })
        .collect();

    // --- attention softmax at a 100- and a 1000-node net's scores (head
    // width 6): the column kernel on Sᵀ against the libm row softmax on
    // S, and the exp alone, vectorized against libm.
    eprintln!("compute: attention softmax ({rounds} interleaved rounds)...");
    let scale = 1.0 / 6f32.sqrt();
    let softmax: Vec<SoftmaxRow> = [100usize, 1000]
        .iter()
        .map(|&n| {
            let st = fill(n, n, 3.0);
            let s = st.transpose();
            let t = timing::interleaved(
                rounds,
                &mut [
                    &mut on_copy(st.as_slice(), |v| kernels::softmax_cols(n, n, scale, v)),
                    &mut on_copy(s.as_slice(), |v| softmax_rows_libm(n, scale, v)),
                    &mut on_copy(st.as_slice(), kernels::exp_inplace),
                    &mut on_copy(st.as_slice(), |v| v.iter_mut().for_each(|x| *x = x.exp())),
                ],
            );
            let ns = |i: usize| t.secs(i) * 1e9 / (n * n) as f64;
            let row = SoftmaxRow {
                n,
                ns_cols: ns(0),
                ns_rows_libm: ns(1),
                ns_exp: ns(2),
                ns_exp_libm: ns(3),
                speedup: t.ratio(1, 0),
                bit_identical: {
                    let mut pt = st.as_slice().to_vec();
                    kernels::softmax_cols(n, n, scale, &mut pt);
                    let mut p = s.as_slice().to_vec();
                    softmax_rows_libm(n, scale, &mut p);
                    (0..n * n).all(|e| pt[e].to_bits() == p[(e % n) * n + e / n].to_bits())
                },
            };
            eprintln!(
                "compute: softmax {n}x{n}: columns {:.2} ns/score, libm rows {:.2} ns/score \
                 ({:.2}x); exp {:.2} ns, libm {:.2} ns; bit-identical: {}",
                row.ns_cols,
                row.ns_rows_libm,
                row.speedup,
                row.ns_exp,
                row.ns_exp_libm,
                row.bit_identical,
            );
            row
        })
        .collect();

    // --- dataset build nets/sec, 1 vs N threads, each variant setting
    // the pool size before its timed build.
    let net_count = (4 * args.steps).max(6);
    eprintln!(
        "compute: dataset build over {net_count} nets, 1 vs {} threads \
         ({rounds} interleaved rounds)...",
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
    let build_at = |threads: usize| {
        par::set_threads(threads);
        timing::time(|| {
            DatasetBuilder::new(1)
                .with_sim_steps(600)
                .build(&nets)
                .expect("dataset build");
        })
    };
    let t = timing::interleaved(
        rounds,
        &mut [&mut || build_at(1), &mut || build_at(args.threads)],
    );
    par::set_threads(1);
    let dataset_scaling = Scaling {
        serial_s: t.secs(0),
        parallel_s: t.secs(1),
        speedup: t.ratio(0, 1),
    };
    eprintln!(
        "compute: dataset build: {:.1} ms serial, {:.1} ms at {} threads ({:.2}x)",
        dataset_scaling.serial_s * 1e3,
        dataset_scaling.parallel_s * 1e3,
        args.threads,
        dataset_scaling.speedup,
    );

    // --- report.
    let cores = host_cores();
    let mut out = String::with_capacity(2048);
    out.push_str("{\"schema\":\"bench.compute.v1\"");
    let _ = write!(out, ",\"host_cores\":{cores}");
    let _ = write!(out, ",\"kernel_tier\":\"{}\"", tier.name());
    let _ = write!(out, ",\"steps\":{}", args.steps);
    let _ = write!(out, ",\"rounds\":{rounds}");
    let _ = write!(out, ",\"min_span_ms\":{}", timing::MIN_SPAN.as_millis());
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
        out.push_str(",\"gflops_set\":");
        obs::json::push_f64(&mut out, row.gflops_set);
        out.push_str(",\"gflops_seed\":");
        obs::json::push_f64(&mut out, row.gflops_seed);
        out.push_str(",\"speedup\":");
        obs::json::push_f64(&mut out, row.speedup);
        out.push('}');
    }
    out.push(']');
    out.push_str(",\"softmax\":[");
    for (i, row) in softmax.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let _ = write!(out, "{{\"n\":{},\"ns_per_score_cols\":", row.n);
        obs::json::push_f64(&mut out, row.ns_cols);
        out.push_str(",\"ns_per_score_rows_libm\":");
        obs::json::push_f64(&mut out, row.ns_rows_libm);
        out.push_str(",\"speedup\":");
        obs::json::push_f64(&mut out, row.speedup);
        out.push_str(",\"ns_per_exp\":");
        obs::json::push_f64(&mut out, row.ns_exp);
        out.push_str(",\"ns_per_exp_libm\":");
        obs::json::push_f64(&mut out, row.ns_exp_libm);
        let _ = write!(out, ",\"bit_identical\":{}}}", row.bit_identical);
    }
    out.push(']');
    let push_scaling = |out: &mut String, name: &str, s: &Scaling, unit_per_s: Option<f64>| {
        let _ = write!(out, ",\"{name}\":{{\"serial_s\":");
        obs::json::push_f64(out, s.serial_s);
        out.push_str(",\"parallel_s\":");
        obs::json::push_f64(out, s.parallel_s);
        out.push_str(",\"speedup\":");
        obs::json::push_f64(out, s.speedup);
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
