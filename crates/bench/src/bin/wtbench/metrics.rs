//! The metric tables, summary statistics, and the one-line result.
//!
//! `BENCHMARK.json` at the repository root repeats these tables; the
//! `benchmark_json_matches_tables` test keeps the two in step.

use std::collections::BTreeMap;
use std::fmt::Write as _;

/// Which direction of a metric is an improvement.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    pub fn name(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

/// One metric: name, unit, direction, and (end-to-end only) the bound
/// by which it may worsen before a change counts as a regression: a
/// share of the parent's median, or, when `absolute`, a difference in
/// the metric's own unit.
#[derive(Debug, Clone, Copy)]
pub struct Metric {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    pub bound: Option<f64>,
    pub absolute: bool,
}

const fn e2e(name: &'static str, unit: &'static str, better: Better, bound: f64) -> Metric {
    Metric {
        name,
        unit,
        better,
        bound: Some(bound),
        absolute: false,
    }
}

/// An end-to-end metric near 1 whose bound is absolute. As a share of
/// a median near 1 the same number bounds it almost alike, which is how
/// `BENCHMARK.json` states it.
const fn e2e_abs(name: &'static str, unit: &'static str, better: Better, bound: f64) -> Metric {
    Metric {
        absolute: true,
        ..e2e(name, unit, better, bound)
    }
}

const fn layer(name: &'static str, unit: &'static str, better: Better) -> Metric {
    Metric {
        name,
        unit,
        better,
        bound: None,
        absolute: false,
    }
}

use Better::{Higher, Lower};

/// Printed by every untraced run, for every workload. Op and set-up
/// times (and so the rates) are calibrated to the reference host's
/// speed (`host.rs`).
pub const END_TO_END: [Metric; 7] = [
    e2e("setup_s", "s", Lower, 0.25),
    e2e("ops_per_s", "1/s", Higher, 0.20),
    e2e("latency_ms_p50", "ms", Lower, 0.20),
    e2e("latency_ms_tail", "ms", Lower, 0.20),
    e2e("peak_rss_mb", "MiB", Lower, 0.10),
    e2e_abs("slew_r2", "R2", Higher, 0.002),
    e2e_abs("delay_r2", "R2", Higher, 0.002),
];

/// Printed by every traced run, for every workload. All but the last
/// come from the layer probe over the workload's own input nets.
pub const PER_LAYER: [Metric; 24] = [
    layer("rcnet.spef_parse.busy_s", "s", Lower),
    layer("rcnet.spef_parse.mb_per_s", "MB/s", Higher),
    layer("elmore.wire_analysis.busy_s", "s", Lower),
    layer("core.features.busy_s", "s", Lower),
    layer("gnn.batch_build.busy_s", "s", Lower),
    layer("gnn.batch.adj_mb", "MiB", Lower),
    layer("gnn.pack.busy_s", "s", Lower),
    layer("gnn.pack.count", "count", Lower),
    layer("gnn.pack.graphs_mean", "graphs", Higher),
    layer("gnn.forward.busy_s", "s", Lower),
    layer("gnn.forward.gflop", "GFLOP", Lower),
    layer("gnn.forward.gflop_per_s", "GFLOP/s", Higher),
    layer("core.unscale.busy_s", "s", Lower),
    layer("core.predict_spef.serial_s", "s", Lower),
    layer("par.speedup", "x", Higher),
    layer("replica.unattributed_share", "ratio", Lower),
    layer("rcsim.golden.busy_s", "s", Lower),
    layer("core.label.busy_s", "s", Lower),
    layer("gnn.train.epoch_s", "s", Lower),
    layer("gnn.train.forward_s", "s", Lower),
    layer("gnn.train.backward_s", "s", Lower),
    layer("gnn.train.graphs_per_s", "graphs/s", Higher),
    layer("gnn.train.arena_mb_peak", "MiB", Lower),
    layer("trace_overhead_share", "ratio", Lower),
];

/// The table a run prints: end-to-end untraced, per-layer traced.
pub fn table(trace: bool) -> &'static [Metric] {
    if trace {
        &PER_LAYER
    } else {
        &END_TO_END
    }
}

/// What one workload run produced.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Correctness gates that failed, one line each.
    pub gate_failures: Vec<String>,
    /// Measured operations attempted.
    pub attempted: u64,
    /// Measured operations that returned an error or a bad response.
    pub failed: u64,
    /// Metric values by name.
    pub values: BTreeMap<&'static str, f64>,
    /// Workload-specific numbers of a traced run (serve stages, ECO
    /// re-time stats, training reports) that only one workload has;
    /// written beside the spans, not into the result line.
    pub detail: BTreeMap<String, f64>,
}

impl Outcome {
    pub fn correct(&self) -> bool {
        self.gate_failures.is_empty()
    }

    /// Records a failed gate unless `ok`.
    pub fn gate(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok {
            self.gate_failures.push(what());
        }
    }

    pub fn set(&mut self, name: &'static str, value: f64) {
        self.values.insert(name, value);
    }

    pub fn detail(&mut self, name: &str, value: f64) {
        self.detail.insert(name.to_string(), value);
    }

    /// The result line: `correct`, `attempted`, `failed`, and every
    /// metric of `table` with its unit. A metric the run did not
    /// produce (or produced as a non-finite number) fails the run.
    pub fn result_line(&mut self, table: &[Metric]) -> String {
        for m in table {
            let ok = self.values.get(m.name).is_some_and(|v| v.is_finite());
            self.gate(ok, || format!("metric {} was not measured", m.name));
        }
        let mut out = String::with_capacity(96 * table.len());
        let _ = write!(
            out,
            "{{\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{{",
            self.correct(),
            self.attempted.max(1),
            self.failed
        );
        for (i, m) in table.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(out, "\"{}\":{{\"value\":", m.name);
            obs::json::push_f64(&mut out, self.values.get(m.name).copied().unwrap_or(0.0));
            let _ = write!(out, ",\"unit\":\"{}\"}}", m.unit);
        }
        out.push_str("}}");
        out
    }
}

/// Nearest-rank percentile of an ascending slice (`q` in `[0, 1]`).
pub fn percentile(sorted: &[f64], q: f64) -> f64 {
    if sorted.is_empty() {
        return f64::NAN;
    }
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Median of unsorted values (mean of the middle pair for even counts).
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    match n {
        0 => f64::NAN,
        _ if n % 2 == 1 => v[n / 2],
        _ => 0.5 * (v[n / 2 - 1] + v[n / 2]),
    }
}

/// First and third quartile of unsorted values, by the method of
/// Python's `statistics.quantiles(values, n=4)` (exclusive).
pub fn quartiles(values: &[f64]) -> (f64, f64) {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n < 2 {
        let x = v.first().copied().unwrap_or(f64::NAN);
        return (x, x);
    }
    let m = n + 1;
    let q = |i: usize| {
        let j = (i * m / 4).clamp(1, n - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
    };
    (q(1), q(3))
}

/// Peak resident set size of this process (`VmHWM`), MiB, since it
/// started or since the last [`reset_peak_rss`], less what the
/// host-speed probe keeps resident (all the time, so it adds its size
/// to the peak).
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(f64::NAN, |kb| {
            (kb * 1024.0 - crate::host::resident_bytes() as f64) / (1024.0 * 1024.0)
        })
}

/// Lowers this process's peak resident set size to its current one
/// (Linux: `5` written to `/proc/self/clear_refs`). Where that fails,
/// [`peak_rss_mb`] keeps counting from the start of the process.
pub fn reset_peak_rss() {
    let _ = std::fs::write("/proc/self/clear_refs", "5");
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), (2.75, 8.25));
        // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
        assert_eq!(quartiles(&[3.0, 1.0, 2.0]), (1.0, 3.0));
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
    }

    #[test]
    fn percentile_is_nearest_rank() {
        let v: Vec<f64> = (1..=200).map(f64::from).collect();
        assert_eq!(percentile(&v, 0.5), 100.0);
        assert_eq!(percentile(&v, 0.95), 190.0);
        assert_eq!(percentile(&v[..10], 0.99), 10.0);
    }

    #[test]
    fn result_line_fails_on_a_missing_metric() {
        let mut o = Outcome::default();
        for m in &END_TO_END[1..] {
            o.set(m.name, 1.5);
        }
        let line = o.result_line(&END_TO_END);
        assert!(line.starts_with("{\"correct\":false,"), "{line}");
        assert!(
            line.contains("\"ops_per_s\":{\"value\":1.5,\"unit\":\"1/s\"}"),
            "{line}"
        );
    }
}
