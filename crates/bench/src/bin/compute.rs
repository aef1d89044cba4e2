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
//! check-script smoke uses `--steps 2`. Like every `BENCH_*.json`, the
//! report records `host_cores`: on a single-core host the 1-vs-N runs
//! validate determinism under concurrency, not parallel speedup, and a
//! caveat is printed.

use bench::flags::Flags;
use bench::report::{report, Obj};
use bench::timing;
use gnntrans::dataset::DatasetBuilder;
use netgen::nets::{NetConfig, NetGenerator};
use tensor::{kernels, Mat};

struct Args {
    steps: usize,
    threads: usize,
    seed: u64,
    out: String,
}

fn parse_args() -> Args {
    let mut flags = Flags::from_env("matmul kernels, attention softmax and pool scaling");
    let args = Args {
        steps: flags
            .value(
                "--steps",
                30,
                "workload scale; the check-script smoke uses 2",
            )
            .max(1),
        threads: flags
            .value(
                "--threads",
                par::resolve_threads(None).max(2),
                "lane count of the 1-vs-N runs",
            )
            .max(2),
        seed: flags.value("--seed", 2023, "net-generation seed"),
        out: flags.value("--out", "BENCH_compute.json".to_string(), "result file"),
    };
    flags.finish();
    args
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
    let matmul: Vec<Obj> = shapes
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
            let gflops = |v: usize| 2.0 * (m * k * n) as f64 / t.secs(v) / 1e9;
            // Seed time over blocked time, the median of per-round ratios.
            let speedup = t.ratio(2, 0);
            eprintln!(
                "compute: {m}x{k}x{n}: blocked {:.2} GF/s, set {:.2} GF/s, seed {:.2} GF/s ({speedup:.2}x)",
                gflops(0),
                gflops(1),
                gflops(2),
            );
            Obj::new()
                .put("shape", format!("{m}x{k}x{n}"))
                .put("gflops_blocked", gflops(0))
                .put("gflops_set", gflops(1))
                .put("gflops_seed", gflops(2))
                .put("speedup", speedup)
        })
        .collect();

    // --- attention softmax at a 100- and a 1000-node net's scores (head
    // width 6): the column kernel on Sᵀ against the libm row softmax on
    // S, and the exp alone, vectorized against libm.
    eprintln!("compute: attention softmax ({rounds} interleaved rounds)...");
    let scale = 1.0 / 6f32.sqrt();
    let softmax: Vec<Obj> = [100usize, 1000]
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
            // Libm row time over column time, the median of per-round ratios.
            let speedup = t.ratio(1, 0);
            let bit_identical = {
                let mut pt = st.as_slice().to_vec();
                kernels::softmax_cols(n, n, scale, &mut pt);
                let mut p = s.as_slice().to_vec();
                softmax_rows_libm(n, scale, &mut p);
                (0..n * n).all(|e| pt[e].to_bits() == p[(e % n) * n + e / n].to_bits())
            };
            eprintln!(
                "compute: softmax {n}x{n}: columns {:.2} ns/score, libm rows {:.2} ns/score \
                 ({speedup:.2}x); exp {:.2} ns, libm {:.2} ns; bit-identical: {bit_identical}",
                ns(0),
                ns(1),
                ns(2),
                ns(3),
            );
            Obj::new()
                .put("n", n)
                .put("ns_per_score_cols", ns(0))
                .put("ns_per_score_rows_libm", ns(1))
                .put("speedup", speedup)
                .put("ns_per_exp", ns(2))
                .put("ns_per_exp_libm", ns(3))
                .put("bit_identical", bit_identical)
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
    let (serial_s, parallel_s) = (t.secs(0), t.secs(1));
    // Serial time over parallel time, the median of per-round ratios.
    let speedup = t.ratio(0, 1);
    eprintln!(
        "compute: dataset build: {:.1} ms serial, {:.1} ms at {} threads ({speedup:.2}x)",
        serial_s * 1e3,
        parallel_s * 1e3,
        args.threads,
    );
    let dataset_build = Obj::new()
        .put("serial_s", serial_s)
        .put("parallel_s", parallel_s)
        .put("speedup", speedup)
        .put("serial_nets_per_s", net_count as f64 / serial_s.max(1e-12))
        .put(
            "parallel_nets_per_s",
            net_count as f64 / parallel_s.max(1e-12),
        );

    report("bench.compute.v1", false)
        .put("steps", args.steps)
        .put("rounds", rounds)
        .put("min_span_ms", timing::MIN_SPAN.as_millis())
        .put("threads_n", args.threads)
        .put("pool_workers", par::workers())
        .put("matmul", matmul)
        .put("softmax", softmax)
        .put("dataset_build", dataset_build)
        .write_to(&args.out);

    let cores = par::host_parallelism();
    if cores < args.threads {
        eprintln!(
            "compute: note: host has {cores} core(s) — the par pool is \
             compute-bound, so parallel speedup requires >= {} cores; \
             this run validates determinism under concurrency, not scaling",
            args.threads
        );
    }
}
