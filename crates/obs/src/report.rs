//! `RunReport`: a JSON snapshot of the span tree and metrics registry.
//!
//! Experiment binaries capture one report at exit (see `--obs-json` in
//! the bench harness) so a run's timing breakdown and counters are
//! machine-readable without a metrics server.

use crate::json;
use crate::metrics::{self, MetricsSnapshot};
use crate::span::{self, SpanEntry};
use std::io::Write as _;
use std::time::{SystemTime, UNIX_EPOCH};

/// Schema identifier stamped into every report.
pub const SCHEMA: &str = "obs.run_report.v1";

const NS_PER_SEC: f64 = 1e9;

/// Point-in-time snapshot of all spans and metrics.
#[derive(Debug, Clone)]
pub struct RunReport {
    /// Milliseconds since the Unix epoch at capture time.
    pub captured_unix_ms: u128,
    /// Every recorded span path with its aggregates, sorted by path.
    pub spans: Vec<SpanEntry>,
    /// Every registered counter, gauge and histogram.
    pub metrics: MetricsSnapshot,
}

impl RunReport {
    /// Captures the current global span and metric state.
    pub fn capture() -> Self {
        RunReport {
            captured_unix_ms: SystemTime::now()
                .duration_since(UNIX_EPOCH)
                .map(|d| d.as_millis())
                .unwrap_or(0),
            spans: span::snapshot(),
            metrics: metrics::snapshot(),
        }
    }

    /// Serializes the report as a single JSON object.
    pub fn to_json(&self) -> String {
        let mut out = String::with_capacity(4096);
        out.push_str("{\"schema\":");
        json::push_string(&mut out, SCHEMA);
        out.push_str(",\"captured_unix_ms\":");
        let _ = std::fmt::Write::write_fmt(&mut out, format_args!("{}", self.captured_unix_ms));

        out.push_str(",\"spans\":[");
        for (i, row) in self.spans.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str("{\"path\":");
            json::push_string(&mut out, &row.path);
            out.push_str(",\"count\":");
            let _ = std::fmt::Write::write_fmt(&mut out, format_args!("{}", row.stats.count));
            out.push_str(",\"total_s\":");
            json::push_f64(&mut out, row.stats.total_ns as f64 / NS_PER_SEC);
            out.push_str(",\"self_s\":");
            json::push_f64(&mut out, row.stats.self_ns as f64 / NS_PER_SEC);
            out.push('}');
        }
        out.push(']');

        out.push_str(",\"counters\":[");
        for (i, (key, value)) in self.metrics.counters.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            push_key(&mut out, &key.name, key.label.as_deref());
            out.push_str(",\"value\":");
            let _ = std::fmt::Write::write_fmt(&mut out, format_args!("{value}"));
            out.push('}');
        }
        out.push(']');

        out.push_str(",\"gauges\":[");
        for (i, (key, value)) in self.metrics.gauges.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            push_key(&mut out, &key.name, key.label.as_deref());
            out.push_str(",\"value\":");
            json::push_f64(&mut out, *value);
            out.push('}');
        }
        out.push(']');

        out.push_str(",\"histograms\":[");
        for (i, (key, hist)) in self.metrics.histograms.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            push_key(&mut out, &key.name, key.label.as_deref());
            out.push_str(",\"count\":");
            let _ = std::fmt::Write::write_fmt(&mut out, format_args!("{}", hist.count()));
            out.push_str(",\"sum\":");
            json::push_f64(&mut out, hist.sum());
            out.push_str(",\"min\":");
            json::push_f64(&mut out, hist.min());
            out.push_str(",\"max\":");
            json::push_f64(&mut out, hist.max());
            out.push_str(",\"mean\":");
            json::push_f64(&mut out, hist.mean());
            out.push_str(",\"p50\":");
            json::push_f64(&mut out, hist.quantile(0.50));
            out.push_str(",\"p95\":");
            json::push_f64(&mut out, hist.quantile(0.95));
            out.push_str(",\"p99\":");
            json::push_f64(&mut out, hist.quantile(0.99));
            out.push('}');
        }
        out.push(']');

        self.push_par_section(&mut out);
        self.push_solver_section(&mut out);
        self.push_engine_section(
            &mut out,
            "infer",
            &["features", "pack", "forward", "unscale"],
        );
        self.push_engine_section(&mut out, "train", &["forward", "backward"]);
        out.push('}');
        out
    }

    /// Emits a derived `"par"` section summarizing the parallel-compute
    /// metrics (`par.threads` / `par.queue_depth` gauges and the
    /// per-task-kind `par.tasks` / `par.task_seconds` series), so run
    /// reports answer "how parallel was this run" without grepping the
    /// raw metric arrays. Empty-but-present when nothing ran on the
    /// pool.
    fn push_par_section(&self, out: &mut String) {
        let gauge = |name: &str| {
            self.metrics
                .gauges
                .iter()
                .find(|(k, _)| k.name == name && k.label.is_none())
                .map(|(_, v)| *v)
        };
        out.push_str(",\"par\":{\"threads\":");
        json::push_f64(out, gauge("par.threads").unwrap_or(0.0));
        out.push_str(",\"queue_depth\":");
        json::push_f64(out, gauge("par.queue_depth").unwrap_or(0.0));
        out.push_str(",\"task_kinds\":[");
        let mut first = true;
        for (key, count) in &self.metrics.counters {
            if key.name != "par.tasks" {
                continue;
            }
            let Some(kind) = key.label.as_deref() else {
                continue;
            };
            if !first {
                out.push(',');
            }
            first = false;
            out.push_str("{\"kind\":");
            json::push_string(out, kind);
            out.push_str(",\"tasks\":");
            let _ = std::fmt::Write::write_fmt(out, format_args!("{count}"));
            let hist = self
                .metrics
                .histograms
                .iter()
                .find(|(k, _)| k.name == "par.task_seconds" && k.label.as_deref() == Some(kind))
                .map(|(_, h)| h);
            out.push_str(",\"total_s\":");
            json::push_f64(out, hist.map(|h| h.sum()).unwrap_or(0.0));
            out.push_str(",\"p95_s\":");
            json::push_f64(out, hist.map(|h| h.quantile(0.95)).unwrap_or(0.0));
            out.push('}');
        }
        out.push_str("]}");
    }

    /// Emits a derived `"solver"` section summarizing the golden
    /// simulator's linear-solver metrics: nets factorized per backend
    /// (the `rcsim.solver.nets` labelled counter), aggregate sparse
    /// pattern size and fill-in (`rcsim.sparse.nnz` / `rcsim.sparse.fill`)
    /// and the factor/solve time split (`rcsim.factor_seconds` /
    /// `rcsim.solve_seconds` histograms). Empty-but-present when no
    /// simulation ran.
    fn push_solver_section(&self, out: &mut String) {
        let counter = |name: &str| {
            self.metrics
                .counters
                .iter()
                .find(|(k, _)| k.name == name && k.label.is_none())
                .map(|(_, v)| *v)
                .unwrap_or(0)
        };
        out.push_str(",\"solver\":{\"backends\":[");
        let mut first = true;
        for (key, count) in &self.metrics.counters {
            if key.name != "rcsim.solver.nets" {
                continue;
            }
            let Some(kind) = key.label.as_deref() else {
                continue;
            };
            if !first {
                out.push(',');
            }
            first = false;
            out.push_str("{\"kind\":");
            json::push_string(out, kind);
            out.push_str(",\"nets\":");
            let _ = std::fmt::Write::write_fmt(out, format_args!("{count}"));
            out.push('}');
        }
        out.push_str("],\"sparse_nnz\":");
        let _ = std::fmt::Write::write_fmt(out, format_args!("{}", counter("rcsim.sparse.nnz")));
        out.push_str(",\"sparse_fill\":");
        let _ = std::fmt::Write::write_fmt(out, format_args!("{}", counter("rcsim.sparse.fill")));
        for (field, name) in [
            ("factor", "rcsim.factor_seconds"),
            ("solve", "rcsim.solve_seconds"),
        ] {
            let hist = self
                .metrics
                .histograms
                .iter()
                .find(|(k, _)| k.name == name && k.label.is_none())
                .map(|(_, h)| h);
            let _ = std::fmt::Write::write_fmt(out, format_args!(",\"{field}\":{{\"count\":"));
            let _ = std::fmt::Write::write_fmt(
                out,
                format_args!("{}", hist.map(|h| h.count()).unwrap_or(0)),
            );
            out.push_str(",\"total_s\":");
            json::push_f64(out, hist.map(|h| h.sum()).unwrap_or(0.0));
            out.push_str(",\"p95_s\":");
            json::push_f64(out, hist.map(|h| h.quantile(0.95)).unwrap_or(0.0));
            out.push('}');
        }
        out.push('}');
    }

    /// Emits a derived `"infer"` or `"train"` section summarizing the
    /// packed engine: the `{section}.arena_bytes` gauge, pack shapes
    /// (`{section}.batch_graphs` / `{section}.batch_nodes` histograms)
    /// and the time spent in each pass (`{section}.{pass}_seconds`), so
    /// one glance at a run report answers "did serving or training run
    /// the packed engine, how big were its packs, and where did the
    /// time go". Empty-but-present when the engine did not run.
    fn push_engine_section(&self, out: &mut String, section: &str, passes: &[&str]) {
        let gauge = self
            .metrics
            .gauges
            .iter()
            .find(|(k, _)| k.name == format!("{section}.arena_bytes") && k.label.is_none())
            .map(|(_, v)| *v)
            .unwrap_or(0.0);
        let _ = std::fmt::Write::write_fmt(out, format_args!(",\"{section}\":{{\"arena_bytes\":"));
        json::push_f64(out, gauge);
        let fields = ["batch_graphs", "batch_nodes"]
            .iter()
            .map(|f| (*f, format!("{section}.{f}")));
        let timers = passes
            .iter()
            .map(|p| (*p, format!("{section}.{p}_seconds")));
        for (field, name) in fields.chain(timers) {
            let hist = self
                .metrics
                .histograms
                .iter()
                .find(|(k, _)| k.name == name && k.label.is_none())
                .map(|(_, h)| h);
            let _ = std::fmt::Write::write_fmt(out, format_args!(",\"{field}\":{{\"count\":"));
            let _ = std::fmt::Write::write_fmt(
                out,
                format_args!("{}", hist.map(|h| h.count()).unwrap_or(0)),
            );
            out.push_str(",\"sum\":");
            json::push_f64(out, hist.map(|h| h.sum()).unwrap_or(0.0));
            out.push_str(",\"mean\":");
            json::push_f64(out, hist.map(|h| h.mean()).unwrap_or(0.0));
            out.push_str(",\"p95\":");
            json::push_f64(out, hist.map(|h| h.quantile(0.95)).unwrap_or(0.0));
            out.push('}');
        }
        out.push('}');
    }

    /// Writes the JSON report to `path` (plus a trailing newline).
    pub fn write_file(&self, path: &str) -> std::io::Result<()> {
        let mut file = std::fs::File::create(path)?;
        file.write_all(self.to_json().as_bytes())?;
        file.write_all(b"\n")?;
        file.flush()
    }
}

fn push_key(out: &mut String, name: &str, label: Option<&str>) {
    out.push_str("{\"name\":");
    json::push_string(out, name);
    if let Some(label) = label {
        out.push_str(",\"label\":");
        json::push_string(out, label);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Minimal structural JSON validator: object/array/string/number
    /// nesting balance with strings skipped. Enough to catch emitter
    /// bugs (unbalanced braces, stray commas inside strings are legal).
    fn assert_balanced_json(s: &str) {
        let mut depth = 0i64;
        let mut chars = s.chars();
        while let Some(c) = chars.next() {
            match c {
                '{' | '[' => depth += 1,
                '}' | ']' => {
                    depth -= 1;
                    assert!(depth >= 0, "unbalanced close in {s}");
                }
                '"' => loop {
                    match chars.next() {
                        Some('\\') => {
                            chars.next();
                        }
                        Some('"') => break,
                        Some(_) => {}
                        None => panic!("unterminated string in {s}"),
                    }
                },
                _ => {}
            }
        }
        assert_eq!(depth, 0, "unbalanced JSON: {s}");
    }

    #[test]
    fn report_contains_schema_spans_and_metrics() {
        crate::metrics::counter("obs.test.report_counter").add(7);
        crate::metrics::gauge_labeled("obs.test.report_gauge", Some("tag\"x")).set(1.5);
        let h = crate::metrics::histogram_with("obs.test.report_hist", None, || vec![1.0, 2.0]);
        h.observe(0.5);
        h.observe(1.5);
        {
            let _root = crate::span::span("report_root");
            let _child = crate::span::span("child");
        }

        let report = RunReport::capture();
        let json = report.to_json();
        assert_balanced_json(&json);
        assert!(json.starts_with("{\"schema\":\"obs.run_report.v1\""));
        assert!(json.contains("\"path\":\"report_root.child\""));
        assert!(json.contains("\"name\":\"obs.test.report_counter\",\"value\":7"));
        // Label with a quote survives escaping.
        assert!(json.contains(r#""label":"tag\"x""#));
        assert!(json.contains("\"name\":\"obs.test.report_hist\",\"count\":2"));
        assert!(json.contains("\"p50\":"));
        assert!(json.contains("\"p99\":"));
    }

    #[test]
    fn report_has_derived_par_section() {
        crate::metrics::gauge("par.threads").set(4.0);
        crate::metrics::counter_labeled("par.tasks", Some("test.kind")).add(12);
        let h = crate::metrics::histogram_with("par.task_seconds", Some("test.kind"), || {
            vec![0.001, 0.01, 0.1]
        });
        h.observe(0.005);
        let json = RunReport::capture().to_json();
        assert_balanced_json(&json);
        assert!(json.contains("\"par\":{\"threads\":4"));
        assert!(json.contains("\"kind\":\"test.kind\",\"tasks\":12"));
        assert!(json.contains("\"total_s\":"));
    }

    #[test]
    fn report_has_derived_solver_section() {
        crate::metrics::counter_labeled("rcsim.solver.nets", Some("sparse_ldl")).add(3);
        crate::metrics::counter("rcsim.sparse.nnz").add(42);
        crate::metrics::counter("rcsim.sparse.fill").add(2);
        let h = crate::metrics::histogram("rcsim.factor_seconds");
        h.observe(0.002);
        let json = RunReport::capture().to_json();
        assert_balanced_json(&json);
        assert!(json.contains("\"solver\":{\"backends\":["));
        assert!(json.contains("\"kind\":\"sparse_ldl\",\"nets\":3"));
        assert!(json.contains("\"sparse_nnz\":42"));
        assert!(json.contains("\"sparse_fill\":2"));
        assert!(json.contains("\"factor\":{\"count\":1"));
        assert!(json.contains("\"solve\":{\"count\":0"));
    }

    #[test]
    fn report_has_derived_infer_section() {
        crate::metrics::gauge("infer.arena_bytes").set(4096.0);
        let h = crate::metrics::histogram_with("infer.batch_graphs", None, || vec![1.0, 8.0, 64.0]);
        h.observe(4.0);
        h.observe(16.0);
        let t = crate::metrics::histogram("infer.forward_seconds");
        t.observe(0.003);
        let u = crate::metrics::histogram("infer.unscale_seconds");
        u.observe(0.001);
        u.observe(0.002);
        let json = RunReport::capture().to_json();
        assert_balanced_json(&json);
        let infer = &json[json.find("\"infer\":").unwrap()..json.find("\"train\":").unwrap()];
        assert!(infer.starts_with("\"infer\":{\"arena_bytes\":4096"));
        assert!(infer.contains("\"batch_graphs\":{\"count\":2"));
        // Every predict stage in pipeline order, observed or not.
        let stages = ["\"features\":", "\"pack\":", "\"forward\":", "\"unscale\":"];
        let at: Vec<usize> = stages.iter().map(|k| infer.find(k).unwrap()).collect();
        assert!(at.windows(2).all(|w| w[0] < w[1]), "{infer}");
        assert!(infer.contains("\"forward\":{\"count\":1"));
        assert!(infer.contains("\"unscale\":{\"count\":2"));
        assert!(!infer.contains("\"backward\""));
    }

    #[test]
    fn report_has_derived_train_section() {
        crate::metrics::gauge("train.arena_bytes").set(8192.0);
        let h = crate::metrics::histogram_with("train.batch_graphs", None, || vec![1.0, 8.0, 64.0]);
        h.observe(8.0);
        h.observe(2.0);
        let t = crate::metrics::histogram("train.backward_seconds");
        t.observe(0.004);
        let json = RunReport::capture().to_json();
        assert_balanced_json(&json);
        let train = &json[json.find("\"train\":").unwrap()..];
        assert!(train.starts_with("\"train\":{\"arena_bytes\":8192"));
        assert!(train.contains("\"batch_graphs\":{\"count\":2"));
        assert!(train.contains("\"backward\":{\"count\":1"));
        assert!(train.contains("\"forward\":{\"count\":0"));
    }

    #[test]
    fn write_file_round_trips() {
        let dir = std::env::temp_dir();
        let path = dir.join("obs_report_test.json");
        let path = path.to_str().unwrap();
        let report = RunReport::capture();
        report.write_file(path).unwrap();
        let on_disk = std::fs::read_to_string(path).unwrap();
        assert_eq!(on_disk.trim_end(), report.to_json());
        let _ = std::fs::remove_file(path);
    }
}
