//! `wtbench compare PARENT_DIR CHANGE_DIR`: the verdict on a change.
//!
//! Each directory holds the `wtbench run` reports of one commit, one
//! file per run; runs pair up in file-name order (run them alternating
//! parent and change). For every (workload, end-to-end metric):
//!
//! * **improved** — the change wins at least 9 of 10 pairs (ties count
//!   for neither side) and the medians differ by more than the parent's
//!   interquartile range;
//! * **unresolved** — otherwise, when either side's run-to-run spread
//!   (IQR over median) is wider than the metric's bound, unless every
//!   change run reads better than every parent run;
//! * **worse** — the change's median is worse than the parent's by more
//!   than the bound (a share of the parent's median; for R², an
//!   absolute difference);
//! * **unchanged** — otherwise.
//!
//! Exits 1 when any pair is worse, or when a workload's share of failed
//! ops rose.

use crate::metrics::{median, quartiles, Better, Metric, END_TO_END};
use serve::json::{self, Json};
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::Path;

/// Per workload: metric name → one value per run, plus (failed,
/// attempted) summed over the runs.
#[derive(Default)]
struct Side {
    values: BTreeMap<(String, String), Vec<f64>>,
    ops: BTreeMap<String, (f64, f64)>,
}

fn load(dir: &Path) -> Result<Side, String> {
    let mut files: Vec<_> = std::fs::read_dir(dir)
        .map_err(|e| format!("{}: {e}", dir.display()))?
        .filter_map(|e| e.ok().map(|e| e.path()))
        .filter(|p| p.extension().is_some_and(|x| x == "json"))
        .collect();
    files.sort();
    if files.is_empty() {
        return Err(format!("{}: no run reports (*.json)", dir.display()));
    }
    let mut side = Side::default();
    for file in files {
        let text =
            std::fs::read_to_string(&file).map_err(|e| format!("{}: {e}", file.display()))?;
        let report = json::parse(&text).map_err(|e| format!("{}: {e}", file.display()))?;
        let Some(Json::Obj(workloads)) = report.get("workloads") else {
            return Err(format!("{}: no `workloads` object", file.display()));
        };
        for (name, run) in workloads {
            let count = |key: &str| run.get(key).and_then(Json::as_f64).unwrap_or(0.0);
            let ops = side.ops.entry(name.clone()).or_default();
            ops.0 += count("failed");
            ops.1 += count("attempted");
            if let Some(Json::Obj(metrics)) = run.get("metrics") {
                for (metric, m) in metrics {
                    if let Some(v) = m.get("value").and_then(Json::as_f64) {
                        side.values
                            .entry((name.clone(), metric.clone()))
                            .or_default()
                            .push(v);
                    }
                }
            }
        }
    }
    Ok(side)
}

/// One (workload, metric) comparison.
struct Row {
    workload: String,
    metric: &'static Metric,
    parent: Vec<f64>,
    change: Vec<f64>,
    wins: f64,
    verdict: &'static str,
}

/// `a` reads better than `b` for `metric`.
fn better(metric: &Metric, a: f64, b: f64) -> bool {
    match metric.better {
        Better::Lower => a < b,
        Better::Higher => a > b,
    }
}

fn judge(workload: &str, metric: &'static Metric, parent: Vec<f64>, change: Vec<f64>) -> Row {
    let pairs = parent.len().min(change.len());
    let won = (0..pairs)
        .filter(|&i| better(metric, change[i], parent[i]))
        .count();
    let wins = won as f64 / pairs.max(1) as f64;
    let (mp, mc) = (median(&parent), median(&change));
    // Differences are shares of a median, or absolute.
    let scale = |m: f64| {
        if metric.absolute {
            1.0
        } else {
            m.abs().max(1e-300)
        }
    };
    let spread = |v: &[f64]| {
        let (q1, q3) = quartiles(v);
        (q3 - q1) / scale(median(v))
    };
    let (p1, p3) = quartiles(&parent);
    let bound = metric.bound.unwrap_or(0.0);
    // Positive when the change is worse.
    let worse_by = match metric.better {
        Better::Lower => (mc - mp) / scale(mp),
        Better::Higher => (mp - mc) / scale(mp),
    };
    let all_better = change
        .iter()
        .all(|&c| parent.iter().all(|&p| better(metric, c, p)));
    let verdict = if wins >= 0.9 && better(metric, mc, mp) && (mc - mp).abs() > p3 - p1 {
        "improved"
    } else if (spread(&parent) > bound || spread(&change) > bound) && !all_better {
        "unresolved"
    } else if worse_by > bound {
        "worse"
    } else {
        "unchanged"
    };
    Row {
        workload: workload.to_string(),
        metric,
        parent,
        change,
        wins,
        verdict,
    }
}

fn push_side(out: &mut String, v: &[f64]) {
    let (q1, q3) = quartiles(v);
    out.push_str("{\"median\":");
    obs::json::push_f64(out, median(v));
    out.push_str(",\"q1\":");
    obs::json::push_f64(out, q1);
    out.push_str(",\"q3\":");
    obs::json::push_f64(out, q3);
    let _ = write!(out, ",\"runs\":{}}}", v.len());
}

/// Runs the comparison; returns the process exit code.
pub fn run(parent_dir: &Path, change_dir: &Path, out_path: &Path) -> Result<i32, String> {
    let (parent, change) = (load(parent_dir)?, load(change_dir)?);
    let mut rows = Vec::new();
    for workload in parent.ops.keys() {
        for metric in &END_TO_END {
            let key = (workload.clone(), metric.name.to_string());
            if let (Some(p), Some(c)) = (parent.values.get(&key), change.values.get(&key)) {
                rows.push(judge(workload, metric, p.clone(), c.clone()));
            }
        }
    }
    let mut failed_more = Vec::new();
    for (workload, &(pf, pa)) in &parent.ops {
        let (cf, ca) = change.ops.get(workload).copied().unwrap_or((0.0, 0.0));
        if cf / ca.max(1.0) > pf / pa.max(1.0) {
            failed_more.push(workload.clone());
        }
    }

    println!(
        "{:<14} {:<16} {:>14} {:>14} {:>14} {:>14} {:>6}  verdict",
        "workload", "metric", "parent_median", "parent_iqr", "change_median", "change_iqr", "wins"
    );
    let mut out = String::from("{\"schema\":\"wtbench.compare.v1\",\"rows\":[");
    for (i, r) in rows.iter().enumerate() {
        let iqr = |v: &[f64]| {
            let (q1, q3) = quartiles(v);
            q3 - q1
        };
        println!(
            "{:<14} {:<16} {:>14.6} {:>14.6} {:>14.6} {:>14.6} {:>6.2}  {}",
            r.workload,
            r.metric.name,
            median(&r.parent),
            iqr(&r.parent),
            median(&r.change),
            iqr(&r.change),
            r.wins,
            r.verdict
        );
        if i > 0 {
            out.push(',');
        }
        let _ = write!(
            out,
            "{{\"workload\":\"{}\",\"metric\":\"{}\",\"unit\":\"{}\",\"better\":\"{}\",\"bound\":",
            r.workload,
            r.metric.name,
            r.metric.unit,
            r.metric.better.name()
        );
        obs::json::push_f64(&mut out, r.metric.bound.unwrap_or(0.0));
        out.push_str(",\"parent\":");
        push_side(&mut out, &r.parent);
        out.push_str(",\"change\":");
        push_side(&mut out, &r.change);
        out.push_str(",\"change_win_share\":");
        obs::json::push_f64(&mut out, r.wins);
        let _ = write!(out, ",\"verdict\":\"{}\"}}", r.verdict);
    }
    out.push_str("],\"failed_share_rose\":[");
    for (i, w) in failed_more.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        obs::json::push_string(&mut out, w);
    }
    out.push_str("]}\n");
    if let Some(dir) = out_path.parent() {
        std::fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    }
    std::fs::write(out_path, out).map_err(|e| format!("{}: {e}", out_path.display()))?;
    eprintln!("wtbench: wrote {}", out_path.display());

    let worse = rows.iter().filter(|r| r.verdict == "worse").count();
    if !failed_more.is_empty() {
        eprintln!(
            "wtbench: failed-op share rose on {}",
            failed_more.join(", ")
        );
    }
    Ok(if worse > 0 || !failed_more.is_empty() {
        1
    } else {
        0
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn metric(name: &str) -> &'static Metric {
        END_TO_END.iter().find(|m| m.name == name).expect("metric")
    }

    #[test]
    fn verdicts_follow_the_rules() {
        let ops = metric("ops_per_s"); // higher is better
        let base: Vec<f64> = (0..10).map(|i| 100.0 + i as f64 * 0.2).collect();
        let up: Vec<f64> = base.iter().map(|v| v * 1.2).collect();
        let down: Vec<f64> = base.iter().map(|v| v * 0.6).collect();
        let same: Vec<f64> = base.iter().rev().copied().collect();
        assert_eq!(judge("w", ops, base.clone(), up).verdict, "improved");
        assert_eq!(judge("w", ops, base.clone(), down).verdict, "worse");
        assert_eq!(judge("w", ops, base.clone(), same).verdict, "unchanged");
        let noisy: Vec<f64> = (0..10)
            .map(|i| if i % 2 == 0 { 60.0 } else { 140.0 })
            .collect();
        assert_eq!(judge("w", ops, base, noisy).verdict, "unresolved");
        // Lower is better for latency.
        let lat = metric("latency_ms_p50");
        let fast: Vec<f64> = (0..10).map(|i| 5.0 + i as f64 * 0.01).collect();
        let slow: Vec<f64> = fast.iter().map(|v| v * 1.5).collect();
        assert_eq!(
            judge("w", lat, slow.clone(), fast.clone()).verdict,
            "improved"
        );
        assert_eq!(judge("w", lat, fast, slow).verdict, "worse");
        // R² bounds are absolute: 0.003 lower is worse, 0.001 is not.
        let r2 = metric("slew_r2");
        let at = |v: f64| vec![v; 10];
        assert_eq!(judge("w", r2, at(0.97), at(0.967)).verdict, "worse");
        assert_eq!(judge("w", r2, at(0.97), at(0.969)).verdict, "unchanged");
        assert_eq!(judge("w", r2, at(0.97), at(0.975)).verdict, "improved");
    }
}
