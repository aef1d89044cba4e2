//! What the workloads share: run parameters, the shared model, input
//! generation, the timed set-up, the closed measurement loop, and the
//! accuracy gate.

use crate::host;
use crate::metrics::{median, peak_rss_mb, percentile, reset_peak_rss, Outcome};
use crate::spans::{span, Spans};
use gnntrans::{DatasetBuilder, EstimatorConfig, WireTimingEstimator};
use netgen::NetConfig;
use rcnet::RcNet;
use std::path::PathBuf;
use std::time::{Duration, Instant};

/// One workload run's settings.
#[derive(Debug, Clone)]
pub struct Params {
    /// Seed for every generated input and move stream.
    pub seed: u64,
    /// Length of the measured window, seconds.
    pub seconds: f64,
    /// Traced run: per-layer metrics instead of end-to-end ones.
    pub trace: bool,
    /// Shrunken inputs for a quick check that every gate still runs.
    pub smoke: bool,
    /// Where a traced run writes its spans, details and probe model.
    pub run_dir: PathBuf,
}

impl Params {
    /// The measured window (capped at half a second in smoke mode).
    pub fn window(&self) -> Duration {
        let s = if self.smoke {
            self.seconds.min(0.5)
        } else {
            self.seconds
        };
        Duration::from_secs_f64(s.max(0.01))
    }

    /// `full` normally, `smoke` in smoke mode.
    pub fn pick<T>(&self, full: T, smoke: T) -> T {
        if self.smoke {
            smoke
        } else {
            full
        }
    }
}

/// The golden labeller. Smoke mode integrates with fewer steps: it
/// checks that labelling runs, not how accurate the labels are.
pub fn labeller(p: &Params, seed: u64) -> DatasetBuilder {
    let b = DatasetBuilder::new(seed);
    if p.smoke {
        b.with_sim_steps(200)
    } else {
        b
    }
}

/// Formats an error from any library call for a gate message.
pub fn fail<E: std::fmt::Display>(what: &'static str) -> impl Fn(E) -> String {
    move |e| format!("{what}: {e}")
}

/// Net shapes of the bulk, training and accuracy inputs (6–36 nodes).
pub fn small_nets() -> NetConfig {
    NetConfig {
        nodes_min: 6,
        nodes_max: 36,
        ..Default::default()
    }
}

/// Seed of the shared model's training nets and initial weights.
const MODEL_SEED: u64 = 2023;

/// The shared model: `plan_b_small` trained on 300 netgen nets for 10
/// epochs. Its seed is fixed rather than taken from `--seed`: packed
/// training is bit-deterministic, so every run serves the same weights
/// and only the workload inputs change with the seed.
pub fn shared_model(p: &Params) -> Result<WireTimingEstimator, String> {
    let (count, epochs) = p.pick((300, 10), (12, 1));
    let mut g = netgen::NetGenerator::new(MODEL_SEED, small_nets());
    let nets: Vec<RcNet> = (0..count)
        .map(|i| g.net(format!("train{i}"), i % 2 == 0))
        .collect();
    let data = labeller(p, MODEL_SEED)
        .build(&nets)
        .map_err(fail("label model nets"))?;
    let cfg = EstimatorConfig {
        epochs,
        ..EstimatorConfig::plan_b_small()
    };
    let mut est = WireTimingEstimator::new(&cfg, MODEL_SEED);
    est.train(&data).map_err(fail("train shared model"))?;
    Ok(est)
}

/// The seed of a run's `i`-th input of a kind: distinct for every run
/// seed, so runs at neighbouring seeds share no input.
pub fn sub_seed(seed: u64, i: usize) -> u64 {
    seed.wrapping_mul(0x9e37_79b9_7f4a_7c15) ^ i as u64
}

/// The nets of a paper-roster design at `scale`.
pub fn design(name: &str, scale: f64, seed: u64) -> Vec<RcNet> {
    let spec = netgen::paper_roster()
        .into_iter()
        .find(|d| d.name == name)
        .expect("design is in the paper roster");
    netgen::generate_design(&spec, scale, seed, small_nets()).nets
}

/// `nets` rendered as one SPEF document.
pub fn spef(nets: &[RcNet]) -> String {
    rcnet::spef::write(&rcnet::spef::SpefHeader::default(), nets)
}

/// The shared model saved as a checkpoint in the run directory; the
/// file is removed (and the directory, if that leaves it empty) on drop.
struct Checkpoint(PathBuf);

impl Checkpoint {
    fn save(est: &WireTimingEstimator, p: &Params, workload: &str) -> Result<Self, String> {
        std::fs::create_dir_all(&p.run_dir).map_err(fail("create run dir"))?;
        let path = p.run_dir.join(format!("model-{workload}.bin"));
        est.save(&path).map_err(fail("save shared model"))?;
        Ok(Checkpoint(path))
    }

    fn load(&self) -> Result<WireTimingEstimator, String> {
        WireTimingEstimator::load(&self.0).map_err(fail("load shared model"))
    }
}

impl Drop for Checkpoint {
    fn drop(&mut self) {
        let _ = std::fs::remove_file(&self.0);
        if let Some(dir) = self.0.parent() {
            let _ = std::fs::remove_dir(dir);
        }
    }
}

/// [`timed_setup`] for the workloads that serve the shared model: the
/// model is trained once, untimed, and saved; every set-up starts by
/// loading it (which compiles its inference form), as a deployment
/// loads a trained model. Training speed is `train_model`'s to measure.
pub fn setup_with_model<S>(
    p: &Params,
    workload: &str,
    mut setup: impl FnMut(WireTimingEstimator) -> Result<S, String>,
) -> Result<(S, SetupTimes), String> {
    let t0 = Instant::now();
    let checkpoint = Checkpoint::save(&shared_model(p)?, p, workload)?;
    eprintln!(
        "wtbench: {workload}: shared model trained and saved in {:.3} s (not set-up time)",
        t0.elapsed().as_secs_f64()
    );
    timed_setup(p, || setup(checkpoint.load()?))
}

/// The raw and the calibrated seconds of each set-up.
#[derive(Debug, Default)]
pub struct SetupTimes {
    pub raw: Vec<f64>,
    pub calibrated: Vec<f64>,
}

/// Runs the workload's set-up and keeps the last result. An untraced
/// full run sets up at least `SETUP_MIN` times, and keeps going while
/// the set-ups add up to under a second (at most 31). Earlier results
/// are dropped before the next set-up starts.
///
/// A block of host-speed probes runs before each set-up and after the
/// last, an eighth of the previous set-up long (10–100 ms); each set-up
/// is calibrated by the median of the blocks on either side of it.
pub fn timed_setup<S>(
    p: &Params,
    mut setup: impl FnMut() -> Result<S, String>,
) -> Result<(S, SetupTimes), String> {
    let (min, max) = if p.trace || p.smoke {
        (1, 1)
    } else {
        (SETUP_MIN, 31)
    };
    let block = |last: f64| Duration::from_secs_f64((last / 8.0).clamp(0.01, 0.1));
    let mut before = host::probe_block(block(p.pick(1.0, 0.0)));
    let mut times = SetupTimes::default();
    let mut state = None;
    while times.raw.len() < min || (times.raw.len() < max && times.raw.iter().sum::<f64>() < 1.0) {
        drop(state.take());
        let t0 = Instant::now();
        state = Some(setup()?);
        let raw = t0.elapsed().as_secs_f64();
        let after = host::probe_block(block(raw));
        let speed = median(&[&before[..], &after[..]].concat());
        times.raw.push(raw);
        times.calibrated.push(raw * host::NOMINAL_S / speed);
        before = after;
    }
    let state = state.expect("at least one set-up ran");
    Ok((state, times))
}

/// Fewest set-ups of an untraced full run.
const SETUP_MIN: usize = 3;

/// Latencies and counts from a measured window.
#[derive(Debug, Default)]
pub struct Samples {
    /// Start and seconds of each successful op, untraced ops only.
    pub untraced: Vec<(Instant, f64)>,
    /// Seconds per successful op recorded under a span (traced runs
    /// trace half the ops, so the two halves interleave).
    pub traced: Vec<f64>,
    /// Closed loops, traced: untraced ÷ traced seconds of each pair of
    /// ops 2j, 2j+1 that both succeeded.
    pub pair_ratios: Vec<f64>,
    /// Start and seconds of each host-speed probe, interleaved with the
    /// ops.
    pub probes: Vec<(Instant, f64)>,
    pub attempted: u64,
    pub failed: u64,
    /// First error message, if any op failed.
    pub first_error: Option<String>,
    /// Peak resident set size over the measured window, MiB. The loop
    /// lowers the peak to the current size as it starts, so set-up's
    /// transient peak does not count; what set-up keeps resident does.
    pub peak_rss_mb: f64,
    /// The open loop's achieved rate; a closed loop's is one op per
    /// calibrated op time.
    pub rate: Option<f64>,
}

impl Samples {
    pub fn record(
        &mut self,
        traced: bool,
        start: Instant,
        seconds: f64,
        result: Result<(), String>,
    ) {
        self.attempted += 1;
        match result {
            Ok(()) if traced => self.traced.push(seconds),
            Ok(()) => self.untraced.push((start, seconds)),
            Err(e) => {
                self.failed += 1;
                self.first_error.get_or_insert(e);
            }
        }
    }

    /// Runs a host-speed probe now.
    pub fn probe(&mut self) {
        let start = Instant::now();
        self.probes.push((start, host::probe()));
    }

    /// The untraced ops' seconds, each calibrated by the host-speed
    /// probes around it (see `host.rs`).
    pub fn calibrated(&self) -> Vec<f64> {
        let mut probes = self.probes.clone();
        if probes.is_empty() {
            // A window too short to reach a probe gap.
            probes.push((Instant::now(), host::probe()));
        }
        probes.sort_by_key(|p| p.0);
        host::calibrate(&self.untraced, &probes)
    }

    /// Adds the loop's metrics to `out`. Untraced: set-up time, the
    /// rate, the median and the `tail` percentile of the calibrated op
    /// latencies, and peak memory. Traced: the tracing overhead.
    pub fn report(self, workload: &str, setup: &SetupTimes, tail: f64, out: &mut Outcome) {
        out.attempted += self.attempted;
        out.failed += self.failed;
        if let Some(e) = &self.first_error {
            eprintln!(
                "wtbench: {workload}: {} of {} ops failed; first: {e}",
                self.failed, self.attempted
            );
        }
        let raw: Vec<f64> = self.untraced.iter().map(|op| op.1).collect();
        if !self.traced.is_empty() {
            // Throughput is the inverse of the op time, so 1 - traced /
            // untraced throughput = 1 - untraced / traced time. The pairs
            // of a closed loop share their input and the host's state.
            let ratio = if self.pair_ratios.is_empty() {
                median(&raw) / median(&self.traced)
            } else {
                median(&self.pair_ratios)
            };
            out.set("trace_overhead_share", 1.0 - ratio);
            return;
        }
        let mut lat = self.calibrated();
        let mean = lat.iter().sum::<f64>() / lat.len() as f64;
        lat.sort_by(f64::total_cmp);
        out.set("setup_s", median(&setup.calibrated));
        out.set("ops_per_s", self.rate.unwrap_or(1.0 / mean));
        out.set("latency_ms_p50", percentile(&lat, 0.5) * 1e3);
        out.set("latency_ms_tail", percentile(&lat, tail) * 1e3);
        out.set("peak_rss_mb", self.peak_rss_mb);

        let speed = median(&self.probes.iter().map(|p| p.1).collect::<Vec<_>>());
        eprintln!(
            "wtbench: {workload}: raw: {} set-ups, median {:.4} s (calibrated {:.4}); \
             {} ops, median {:.4} ms, host {:.2}x nominal; tail p{} with {} samples \
             beyond it; calibrated p90/p95/p99 {:.4}/{:.4}/{:.4} ms",
            setup.raw.len(),
            median(&setup.raw),
            median(&setup.calibrated),
            raw.len(),
            median(&raw) * 1e3,
            speed / host::NOMINAL_S,
            tail * 100.0,
            lat.len() - (tail * lat.len() as f64).ceil() as usize,
            percentile(&lat, 0.90) * 1e3,
            percentile(&lat, 0.95) * 1e3,
            percentile(&lat, 0.99) * 1e3,
        );
    }
}

/// Closed loop, one caller: runs `op` back to back for the window (at
/// least once, and twice when traced), with a host-speed probe and then
/// `between` (untimed) after each op. A traced run puts one op of each
/// pair 2j, 2j+1 (and the spans `op` opens) under an `op` span: the
/// second in even pairs, the first in odd ones, so neither half always
/// finds the caches its partner warmed.
pub fn closed_loop(
    p: &Params,
    spans: Option<&Spans>,
    mut op: impl FnMut(u64, Option<&Spans>) -> Result<(), String>,
    mut between: impl FnMut(u64),
) -> Samples {
    let window = p.window();
    let min_ops = if spans.is_some() { 2 } else { 1 };
    let mut s = Samples::default();
    reset_peak_rss();
    let start = Instant::now();
    let mut k = 0u64;
    // Seconds of op 2j, while op 2j+1 runs.
    let mut first: Option<f64> = None;
    while k < min_ops || start.elapsed() < window {
        let traced = spans.filter(|_| (k ^ (k >> 1)) & 1 == 1);
        let t0 = Instant::now();
        let result = {
            let _op = span(traced, "op", k);
            op(k, traced)
        };
        let seconds = t0.elapsed().as_secs_f64();
        if spans.is_some() {
            let ok = result.is_ok().then_some(seconds);
            if k.is_multiple_of(2) {
                first = ok;
            } else if let (Some(a), Some(b)) = (first.take(), ok) {
                // b is traced exactly when a is not.
                s.pair_ratios
                    .push(if traced.is_some() { a / b } else { b / a });
            }
        }
        s.record(traced.is_some(), t0, seconds, result);
        s.probe();
        between(k);
        k += 1;
    }
    s.peak_rss_mb = peak_rss_mb();
    s
}

/// Accuracy of `est` on a golden-labelled, held-out sample of 512
/// AES-128 nets (the model never trains on AES-128): sets `slew_r2` and
/// `delay_r2` and gates both at `floor` outside smoke mode. Like the
/// shared model, the sample does not change with `--seed`, so a change
/// to either R² is a change to the program, not to the sample.
pub fn accuracy(est: &WireTimingEstimator, p: &Params, floor: f64, out: &mut Outcome) {
    let (scale, count) = p.pick((0.006, 512), (0.001, 6));
    let nets = design("AES-128", scale, MODEL_SEED);
    let builder = labeller(p, MODEL_SEED);
    let scored = par::try_par_map("wtbench.label", &nets[..count.min(nets.len())], |n| {
        builder.sample_for(n)
    })
    .and_then(|samples| gnntrans::metrics::evaluate_estimator(est, &samples, false));
    match scored {
        Ok(r) => {
            out.set("slew_r2", r.r2_slew);
            out.set("delay_r2", r.r2_delay);
            let floor = p.pick(floor, f64::NEG_INFINITY);
            out.gate(r.r2_slew >= floor && r.r2_delay >= floor, || {
                format!(
                    "accuracy below R2 {floor}: slew {:.4}, delay {:.4}",
                    r.r2_slew, r.r2_delay
                )
            });
        }
        Err(e) => out.gate(false, || format!("accuracy sample: {e}")),
    }
}

/// Checks one `predict_spef` answer: one prediction per net and one
/// finite, non-negative slew and delay per path (`paths[i]` of net i).
pub fn check_predictions(preds: &[gnntrans::NetPrediction], paths: &[usize]) -> Result<(), String> {
    if preds.len() != paths.len() {
        return Err(format!(
            "{} predictions for {} nets",
            preds.len(),
            paths.len()
        ));
    }
    for (pred, &want) in preds.iter().zip(paths) {
        if pred.estimates.len() != want {
            return Err(format!(
                "net {}: {} estimates for {want} paths",
                pred.net,
                pred.estimates.len()
            ));
        }
        for e in &pred.estimates {
            let (s, d) = (e.slew.value(), e.delay.value());
            if !(s.is_finite() && d.is_finite() && s >= 0.0 && d >= 0.0) {
                return Err(format!("net {}: bad estimate slew {s} delay {d}", pred.net));
            }
        }
    }
    Ok(())
}

/// Median and nearest-rank p99 of a list of seconds, in ms, for the
/// workload details of a traced run.
pub fn ms_p50_p99(values: &[f64]) -> (f64, f64) {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    (percentile(&v, 0.5) * 1e3, percentile(&v, 0.99) * 1e3)
}
