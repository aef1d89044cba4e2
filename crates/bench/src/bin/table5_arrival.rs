//! TABLE V: path arrival-time accuracy (R² / max abs error in ps)
//! against the golden flow for DAC'20 and the three GNNTrans depth plans,
//! plus the runtime split (gate vs wire) that backs the paper's
//! ">200k nets in <100s" claim.
//!
//! Arrival times compose NLDM gate delays with wire delays from the
//! timer under test; the reference uses the golden transient simulator
//! for wires (the PrimeTime-SI stand-in).
//!
//! ```text
//! cargo run -p bench --release --bin table5_arrival \
//!     [-- --scale X --seed N --epochs E --quick]
//! ```

use bench::harness::{build_train_dataset, ExperimentConfig};
use bench::tables::TableWriter;
use gnn::gbdt::GbdtConfig;
use gnntrans::dac20::Dac20Estimator;
use gnntrans::estimator::{EstimatorConfig, WireTimingEstimator};
use gnntrans::timers::GoldenWireTimer;
use netgen::designs::{generate_design, paper_roster, Design};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use rcnet::Seconds;
use rcsim::GoldenTimer;
use sta::cells::CellLibrary;
use sta::path::{Stage, TimingPath};
use sta::WireTimer;
use std::time::Instant;

/// Builds deterministic multi-stage timing paths through a design's nets.
fn make_paths(design: &Design, lib: &CellLibrary, count: usize, seed: u64) -> Vec<TimingPath> {
    let mut rng = StdRng::seed_from_u64(seed);
    let cells = ["BUF_X1", "BUF_X2", "BUF_X4", "INV_X1", "INV_X2", "INV_X4"];
    (0..count)
        .map(|_| {
            let depth = rng.gen_range(3..=8usize);
            let stages = (0..depth)
                .map(|_| {
                    let net = design.nets[rng.gen_range(0..design.nets.len())].clone();
                    let sink_path = rng.gen_range(0..net.paths().len());
                    let cell = lib
                        .cell(cells[rng.gen_range(0..cells.len())])
                        .expect("builtin cell")
                        .clone();
                    Stage {
                        cell,
                        net,
                        sink_path,
                    }
                })
                .collect();
            TimingPath::new(stages)
        })
        .collect()
}

/// Each path's arrival in ps, and the seconds spent computing them.
fn arrivals_ps<T: WireTimer>(
    paths: &[TimingPath],
    timer: &T,
    input_slew: Seconds,
) -> Result<(Vec<f64>, f64), sta::StaError> {
    let start = Instant::now();
    let out = paths
        .iter()
        .map(|p| Ok(p.arrival(timer, input_slew)?.arrival.pico_seconds()))
        .collect::<Result<_, sta::StaError>>()?;
    Ok((out, start.elapsed().as_secs_f64()))
}

fn main() {
    let cfg = ExperimentConfig::from_args(std::env::args().skip(1));
    let report_cfg = cfg.clone();
    bench::run_experiment("table5", &report_cfg, move || run(cfg));
}

fn run(cfg: ExperimentConfig) {
    let lib = CellLibrary::builtin();
    let input_slew = Seconds::from_ps(25.0);

    eprintln!("[table5] training estimators...");
    let train_data = match build_train_dataset(&cfg) {
        Ok(d) => d,
        Err(e) => {
            eprintln!("dataset build failed: {e}");
            std::process::exit(1);
        }
    };
    let mut plans = Vec::new();
    for (name, mut ecfg) in [
        ("PlanA", EstimatorConfig::plan_a_small()),
        ("PlanB", EstimatorConfig::plan_b_small()),
        ("PlanC", EstimatorConfig::plan_c_small()),
    ] {
        // The paper trains each plan to convergence; double the harness
        // epoch budget for the arrival study.
        ecfg.epochs = cfg.epochs * 2;
        let mut est = WireTimingEstimator::new(&ecfg, cfg.seed);
        est.train(&train_data).expect("training must converge");
        plans.push((name, est));
    }
    let dac20 = Dac20Estimator::fit(&train_data, &GbdtConfig::default()).expect("gbdt fit");

    let mut table = TableWriter::new(
        format!(
            "TABLE V — path arrival accuracy (R²/max-err ps) and wire runtime, scale={}",
            cfg.scale
        ),
        &[
            "Benchmark",
            "#nets",
            "DAC20",
            "PlanA",
            "PlanB",
            "PlanC",
            "GoldenWire(s)",
            "EstWire(s)",
            "Est us/net",
        ],
    );

    let mut sums = vec![(0.0f64, 0.0f64); 4];
    let mut n_rows = 0.0f64;
    for spec in paper_roster().into_iter().filter(|d| !d.train) {
        let design = generate_design(&spec, cfg.scale, cfg.seed, cfg.net_config());
        let paths = make_paths(&design, &lib, 40, cfg.seed ^ 0xab);

        // Golden reference arrivals (NLDM gates + golden wire sim) at the
        // labels' supply (vdd 0.8). Each stage's wire is driven through
        // its own cell's resistance, which `TimingPath::arrival` always
        // passes, so the 140 ohm fallback is unused here.
        let golden_timer = GoldenWireTimer::new(
            GoldenTimer::new(0.8, rcnet::Ohms(140.0)).with_steps(2500),
            true,
        );
        let (golden, golden_wire_s) =
            arrivals_ps(&paths, &golden_timer, input_slew).expect("golden arrival");

        let mut cells = vec![spec.name.to_string(), design.net_count().to_string()];
        let mut est_wire_s = 0.0;
        let (dac_arr, t) = arrivals_ps(&paths, &dac20, input_slew).expect("dac20 arrival");
        est_wire_s += t;
        let score = |pred: &[f64]| -> (f64, f64) {
            (
                numeric::stats::r2_score(&golden, pred).unwrap_or(f64::NAN),
                numeric::stats::max_abs_err(&golden, pred).unwrap_or(f64::NAN),
            )
        };
        let (r2, me) = score(&dac_arr);
        sums[0].0 += r2;
        sums[0].1 += me;
        cells.push(format!("{r2:.3}/{me:.1}"));
        for (pi, (_, est)) in plans.iter().enumerate() {
            let (arr, t) = arrivals_ps(&paths, est, input_slew).expect("plan arrival");
            est_wire_s += t;
            let (r2, me) = score(&arr);
            sums[1 + pi].0 += r2;
            sums[1 + pi].1 += me;
            cells.push(format!("{r2:.3}/{me:.1}"));
        }

        // Wire-only inference throughput over every net of the design
        // (the paper's ">200k nets in <100s" claim, measured per net).
        let builder = gnntrans::dataset::DatasetBuilder::new(cfg.seed);
        let contexts: Vec<_> = design.nets.iter().map(|n| builder.context_for(n)).collect();
        let pairs: Vec<_> = design.nets.iter().zip(contexts.iter()).collect();
        let start = Instant::now();
        let _ = plans[1]
            .1
            .predict_many(pairs.iter().map(|(n, c)| (*n, *c)))
            .expect("batch inference");
        let batch_s = start.elapsed().as_secs_f64();
        let us_per_net = 1e6 * batch_s / design.net_count().max(1) as f64;

        cells.push(format!("{golden_wire_s:.2}"));
        cells.push(format!("{est_wire_s:.2}"));
        cells.push(format!("{us_per_net:.0}"));
        table.row(cells);
        n_rows += 1.0;
    }
    let mut cells = vec!["Average".to_string(), "".to_string()];
    for (r2, me) in &sums {
        cells.push(format!("{:.3}/{:.1}", r2 / n_rows, me / n_rows));
    }
    table.row(cells);
    println!("{table}");
    println!(
        "Shape check vs paper TABLE V: plan R² near 1 with ps-scale max \
         errors; DAC20 with tens-of-ps max errors; estimator wire runtime \
         orders of magnitude below the golden wire simulation.\n\
         Extrapolation: at the printed us/net, 200k nets take \
         (us/net * 0.2) seconds."
    );
}
