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
        out.push_str("]}");
        out
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

    /// The text of the report row `{"name":name[,"label":label],...}`.
    fn row<'a>(json: &'a str, name: &str, label: Option<&str>) -> &'a str {
        let mut key = format!("{{\"name\":\"{name}\",");
        if let Some(label) = label {
            key.push_str(&format!("\"label\":\"{label}\","));
        }
        let start = json
            .find(&key)
            .unwrap_or_else(|| panic!("no row {key} in {json}"));
        let end = start + json[start..].find('}').unwrap();
        &json[start..=end]
    }

    /// The keys of the outermost object, in order.
    fn top_level_keys(json: &str) -> Vec<&str> {
        let mut keys = Vec::new();
        let (mut depth, mut at) = (0, 0);
        let bytes = json.as_bytes();
        while at < bytes.len() {
            match bytes[at] {
                b'{' | b'[' => depth += 1,
                b'}' | b']' => depth -= 1,
                b'"' => {
                    let start = at + 1;
                    at = start;
                    while bytes[at] != b'"' {
                        at += if bytes[at] == b'\\' { 2 } else { 1 };
                    }
                    if depth == 1 && bytes.get(at + 1) == Some(&b':') {
                        keys.push(&json[start..at]);
                    }
                }
                _ => {}
            }
            at += 1;
        }
        keys
    }

    /// The series the engines register sit in the raw arrays, each
    /// under its own name and label, and the report has no other
    /// top-level key.
    #[test]
    fn engine_series_are_raw_rows_and_the_report_has_six_keys() {
        use crate::metrics::{counter, counter_labeled, gauge, histogram, histogram_with};
        gauge("par.threads").set(4.0);
        counter_labeled("par.tasks", Some("test.kind")).add(12);
        let task = histogram_with("par.task_seconds", Some("test.kind"), || {
            vec![0.001, 0.01, 0.1]
        });
        task.observe(0.005);
        counter_labeled("rcsim.solver.nets", Some("sparse_ldl")).add(3);
        counter("rcsim.sparse.nnz").add(42);
        counter("rcsim.sparse.fill").add(2);
        let factor = histogram("rcsim.factor_seconds");
        factor.observe(0.002);
        gauge("infer.arena_bytes").set(4096.0);
        let graphs = histogram_with("infer.batch_graphs", None, || vec![1.0, 8.0, 64.0]);
        graphs.observe(4.0);
        graphs.observe(16.0);
        let forward = histogram("infer.forward_seconds");
        forward.observe(0.003);
        let unscale = histogram("infer.unscale_seconds");
        unscale.observe(0.001);
        unscale.observe(0.002);
        gauge("train.arena_bytes").set(8192.0);
        let train_graphs = histogram_with("train.batch_graphs", None, || vec![1.0, 8.0, 64.0]);
        train_graphs.observe(8.0);
        train_graphs.observe(2.0);
        let backward = histogram("train.backward_seconds");
        backward.observe(0.004);

        let json = RunReport::capture().to_json();
        assert_balanced_json(&json);
        for (name, label, value) in [
            ("par.threads", None, 4),
            ("par.tasks", Some("test.kind"), 12),
            ("rcsim.solver.nets", Some("sparse_ldl"), 3),
            ("rcsim.sparse.nnz", None, 42),
            ("rcsim.sparse.fill", None, 2),
            ("infer.arena_bytes", None, 4096),
            ("train.arena_bytes", None, 8192),
        ] {
            let row = row(&json, name, label);
            assert!(row.ends_with(&format!(",\"value\":{value}}}")), "{row}");
        }
        for (name, label, hist) in [
            ("par.task_seconds", Some("test.kind"), &task),
            ("rcsim.factor_seconds", None, &factor),
            ("infer.batch_graphs", None, &graphs),
            ("infer.forward_seconds", None, &forward),
            ("infer.unscale_seconds", None, &unscale),
            ("train.batch_graphs", None, &train_graphs),
            ("train.backward_seconds", None, &backward),
        ] {
            let row = row(&json, name, label);
            assert!(
                row.contains(&format!("\"count\":{},", hist.count())),
                "{row}"
            );
            let mut p95 = String::from("\"p95\":");
            json::push_f64(&mut p95, hist.quantile(0.95));
            assert!(row.contains(&p95), "{row} lacks {p95}");
        }
        assert_eq!(
            top_level_keys(&json),
            [
                "schema",
                "captured_unix_ms",
                "spans",
                "counters",
                "gauges",
                "histograms"
            ]
        );
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
