//! Golden-timer solver benchmark: sparse LDLᵀ vs the dense LU oracle.
//!
//! Times end-to-end golden wire timing (assembly, factorization,
//! trapezoidal integration, measurement) per net size, topology (tree vs
//! loops) and SI mode, for both solver backends, and writes
//! `BENCH_rcsim.json`. The dense oracle is skipped above
//! `--dense-max` nodes (its per-step solve is O(n²); at n = 2000 a
//! single net takes a minute).
//!
//! ```text
//! cargo run -p bench --release --bin rcsim [-- --reps N --steps N \
//!     --seed S --out PATH --smoke]
//! ```
//!
//! Each row's backends are timed in interleaved rounds (five, one in
//! `--smoke`), each measurement spanning at least 100 ms of passes over
//! the row's nets ([`bench::timing`]): `total_s` is a pass's median
//! seconds and the speedup the median of per-round ratios. The
//! factor/solve split is the mean per pass of the `rcsim.factor_seconds`
//! / `rcsim.solve_seconds` histogram deltas around each pass. Every
//! measurement is single-threaded, so the report's `host_cores` only
//! matters for comparing absolute numbers across hosts.

use bench::flags::Flags;
use bench::report::{report, Obj};
use bench::timing;
use netgen::nets::{NetConfig, NetGenerator};
use rcnet::{RcNet, Seconds};
use rcsim::{GoldenTimer, PathTiming, SiMode, SolverKind};

/// Interleaved timing rounds per row (one in `--smoke`).
const ROUNDS: usize = 5;

struct Args {
    reps: usize,
    steps: usize,
    seed: u64,
    dense_max: usize,
    out: String,
    smoke: bool,
}

fn parse_args() -> Args {
    let mut flags = Flags::from_env("golden timing, sparse LDLT vs the dense LU oracle");
    let args = Args {
        reps: flags.value("--reps", 3, "nets per configuration").max(1),
        steps: flags
            .value("--steps", 1000, "integration steps per net")
            .max(50),
        seed: flags.value("--seed", 2023, "net-generation seed"),
        dense_max: flags.value("--dense-max", 500, "largest size the dense oracle runs at"),
        out: flags.value("--out", "BENCH_rcsim.json".to_string(), "result file"),
        smoke: flags.switch("--smoke", "tiny sizes for CI"),
    };
    flags.finish();
    args
}

/// One (size, topology, SI) configuration's nets.
fn nets_for(seed: u64, nodes: usize, nontree: bool, si_on: bool, count: usize) -> Vec<RcNet> {
    let cfg = NetConfig {
        nodes_min: nodes,
        nodes_max: nodes,
        // SI rows need coupled nets; quiet rows stay uncoupled so the
        // two rows measure distinct RHS work.
        coupling_prob: if si_on { 0.5 } else { 0.0 },
        ..Default::default()
    };
    let mut g = NetGenerator::new(seed ^ (nodes as u64) << 2 | u64::from(si_on), cfg);
    (0..count)
        .map(|i| g.net(format!("b{nodes}_{i}"), nontree))
        .collect()
}

/// One backend's timed passes over a row's nets: the factor and solve
/// seconds summed from the `rcsim.*_seconds` histogram deltas, and the
/// last pass's timings for the agreement check.
struct Backend {
    solver: SolverKind,
    passes: u32,
    factor_s: f64,
    solve_s: f64,
    timings: Vec<Vec<PathTiming>>,
}

impl Backend {
    fn new(solver: SolverKind) -> Backend {
        Backend {
            solver,
            passes: 0,
            factor_s: 0.0,
            solve_s: 0.0,
            timings: Vec::new(),
        }
    }

    /// Golden-times every net once; returns the pass's seconds.
    fn pass(&mut self, nets: &[RcNet], steps: usize, si_on: bool) -> f64 {
        let factor_h = obs::histogram("rcsim.factor_seconds");
        let solve_h = obs::histogram("rcsim.solve_seconds");
        let (f0, s0) = (factor_h.sum(), solve_h.sum());
        let timer = GoldenTimer::default()
            .with_steps(steps)
            .with_solver(self.solver);
        let secs = timing::time(|| {
            self.timings = nets
                .iter()
                .map(|net| {
                    let si = if si_on && !net.couplings().is_empty() {
                        SiMode::WorstCase {
                            aggressor_ramp: Seconds::from_ps(20.0),
                        }
                    } else {
                        SiMode::Off
                    };
                    timer
                        .time_net(net, Seconds::from_ps(20.0), si)
                        .expect("golden timing")
                })
                .collect();
        });
        self.passes += 1;
        self.factor_s += factor_h.sum() - f0;
        self.solve_s += solve_h.sum() - s0;
        secs
    }

    /// The row entry: `total_s`, a pass's median seconds, beside the
    /// mean factor and solve seconds per pass.
    fn json(&self, nets: usize, total_s: f64) -> Obj {
        let passes = f64::from(self.passes.max(1));
        Obj::new()
            .put("total_s", total_s)
            .put("nets_per_s", nets as f64 / total_s.max(1e-12))
            .put("factor_s", self.factor_s / passes)
            .put("solve_s", self.solve_s / passes)
    }
}

/// Largest |sparse - dense| over every path's slew and delay, seconds.
fn max_abs_diff(a: &[Vec<PathTiming>], b: &[Vec<PathTiming>]) -> f64 {
    let mut worst = 0.0_f64;
    for (ta, tb) in a.iter().zip(b) {
        for (pa, pb) in ta.iter().zip(tb) {
            worst = worst
                .max((pa.delay.value() - pb.delay.value()).abs())
                .max((pa.slew.value() - pb.slew.value()).abs());
        }
    }
    worst
}

fn main() {
    let args = parse_args();
    let sizes: &[usize] = if args.smoke { &[20, 100] } else { &[20, 100, 500, 2000] };
    let steps = if args.smoke { 300 } else { args.steps };
    let dense_max = if args.smoke { 100 } else { args.dense_max };
    let rounds = if args.smoke { 1 } else { ROUNDS };

    // Warm-up so the first measured row doesn't absorb one-time costs
    // (lazy metric registration, allocator growth, page faults).
    let warmup = nets_for(args.seed ^ 0xdead, 20, true, true, 1);
    Backend::new(SolverKind::SparseLdl).pass(&warmup, 200, true);
    Backend::new(SolverKind::DenseLu).pass(&warmup, 200, true);

    let mut rows = Vec::new();
    // (nodes, agreement) of every row where both backends ran.
    let mut agreements = Vec::new();
    for &nodes in sizes {
        for nontree in [false, true] {
            for si_on in [false, true] {
                let nets = nets_for(args.seed, nodes, nontree, si_on, args.reps);
                let mut sparse = Backend::new(SolverKind::SparseLdl);
                let mut dense = (nodes <= dense_max).then(|| Backend::new(SolverKind::DenseLu));
                let t = match &mut dense {
                    Some(dense) => timing::interleaved(
                        rounds,
                        &mut [&mut || sparse.pass(&nets, steps, si_on), &mut || {
                            dense.pass(&nets, steps, si_on)
                        }],
                    ),
                    None => {
                        timing::interleaved(rounds, &mut [&mut || sparse.pass(&nets, steps, si_on)])
                    }
                };
                let n = nets.len();
                let mut row = Obj::new()
                    .put("nodes", nodes)
                    .put("topology", if nontree { "loops" } else { "tree" })
                    .put("si", si_on)
                    .put("nets", n)
                    .put("sparse", sparse.json(n, t.secs(0)));
                let mut note = String::new();
                if let Some(dense) = &dense {
                    // Dense time over sparse time, the median of per-round ratios.
                    let speedup = t.ratio(1, 0);
                    let agreement = max_abs_diff(&sparse.timings, &dense.timings);
                    agreements.push((nodes, agreement));
                    note = format!(", {speedup:.1}x vs dense, agree {agreement:.2e} s");
                    row = row
                        .put("dense", dense.json(n, t.secs(1)))
                        .put("speedup", speedup)
                        .put("agreement_max_abs_s", agreement);
                }
                eprintln!(
                    "rcsim: n={nodes} {} si={}: sparse {:.1} nets/s{note}",
                    if nontree { "loops" } else { "tree " },
                    u8::from(si_on),
                    n as f64 / t.secs(0).max(1e-12),
                );
                rows.push(row);
            }
        }
    }

    report("bench.rcsim.v1", args.smoke)
        .put("reps", args.reps)
        .put("steps", steps)
        .put("dense_max_nodes", dense_max)
        .put("rounds", rounds)
        .put("min_span_ms", timing::MIN_SPAN.as_millis())
        .put("rows", rows)
        .write_to(&args.out);

    // Gate on physics, not just speed: where both backends ran they
    // must agree to sub-nanosecond-in-seconds precision.
    for (nodes, d) in agreements {
        assert!(
            d <= 1e-9,
            "solver disagreement {d:.3e} s at n={nodes} (tolerance 1e-9 s)"
        );
    }
}
