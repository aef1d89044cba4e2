//! `wtbench` — the repository's benchmark: SPEF → timing, serving, ECO
//! and training, end to end and layer by layer. See `README.md` beside
//! this file for the workloads, metrics and how to make a claim.
//!
//! ```text
//! wtbench --workload NAME --seed N --seconds S --trace 0|1 [--smoke]
//! wtbench run [--workload NAME|all] [--seed N] [--seconds S] [--out FILE] [--trace] [--smoke]
//! wtbench compare PARENT_DIR CHANGE_DIR [--out FILE]
//! ```
//!
//! The first form runs one workload in this process and prints, as the
//! last line of stdout, `{"correct", "attempted", "failed", "metrics"}`
//! with every end-to-end metric (or, traced, every per-layer metric);
//! it exits 1 when a correctness gate failed. `run` runs workloads one
//! child process each and writes a report; `compare` judges two sets of
//! reports.

mod bulk;
mod common;
mod compare;
mod eco_stream;
mod host;
mod metrics;
mod probe;
mod serving;
mod spans;
mod training;

use common::Params;
use metrics::Outcome;
use spans::Spans;
use std::fmt::Write as _;
use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode, Stdio};

/// The workloads (why each was chosen: `README.md`, `BENCHMARK.json`).
const WORKLOADS: [&str; 5] = [
    "design_spef",
    "large_nets",
    "serve_predict",
    "eco_stream",
    "train_model",
];

fn run_workload(name: &str, p: &Params) -> Option<Outcome> {
    Some(match name {
        "design_spef" => bulk::run(name, bulk::Input::Design, p),
        "large_nets" => bulk::run(name, bulk::Input::Large, p),
        "serve_predict" => serving::run(name, p),
        "eco_stream" => eco_stream::run(name, p),
        "train_model" => training::run(name, p),
        _ => return None,
    })
}

/// Writes a traced run's spans, self-time table and workload details
/// into the run directory, and echoes the table and details to stderr.
fn write_spans(spans: Option<&Spans>, workload: &str, p: &Params, out: &mut Outcome) {
    let Some(spans) = spans else { return };
    let mut detail = String::from("{");
    for (i, (k, v)) in out.detail.iter().enumerate() {
        if i > 0 {
            detail.push(',');
        }
        obs::json::push_string(&mut detail, k);
        detail.push(':');
        obs::json::push_f64(&mut detail, *v);
        eprintln!("wtbench: {workload}: {k} = {v:.6}");
    }
    detail.push_str("}\n");
    let written = spans
        .write(&p.run_dir, workload)
        .and_then(|()| std::fs::write(p.run_dir.join(format!("detail-{workload}.json")), detail));
    if let Err(e) = written {
        out.gate(false, || format!("write trace files: {e}"));
    }
    eprint!(
        "wtbench: {workload}: span self times\n{}",
        spans.self_time_table()
    );
}

fn default_run_dir(seed: u64) -> PathBuf {
    let ms = std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .map_or(0, |d| d.as_millis());
    Path::new("target")
        .join("wtbench")
        .join(format!("s{seed}-{ms}"))
}

/// Command-line flags shared by the single-workload form and `run`.
struct Flags {
    workload: Option<String>,
    seed: u64,
    seconds: f64,
    trace: bool,
    smoke: bool,
    out: Option<PathBuf>,
    run_dir: Option<PathBuf>,
    positional: Vec<String>,
}

fn parse_flags(args: &[String]) -> Result<Flags, String> {
    let mut f = Flags {
        workload: None,
        seed: 2023,
        seconds: 16.0,
        trace: false,
        smoke: false,
        out: None,
        run_dir: None,
        positional: Vec::new(),
    };
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        let mut value = |flag: &str| it.next().cloned().ok_or(format!("{flag} needs a value"));
        match arg.as_str() {
            "--workload" => f.workload = Some(value(arg)?),
            "--seed" => f.seed = value(arg)?.parse().map_err(|_| "--seed takes an integer")?,
            "--seconds" => {
                let s: f64 = value(arg)?
                    .parse()
                    .map_err(|_| "--seconds takes a number")?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err("--seconds must be in (0, 600]".into());
                }
                f.seconds = s;
            }
            "--trace" => {
                // `--trace 0|1` in the single-workload form, a bare
                // switch for `run`.
                f.trace = match it.as_slice().first().map(String::as_str) {
                    Some("0") => {
                        it.next();
                        false
                    }
                    Some("1") => {
                        it.next();
                        true
                    }
                    _ => true,
                };
            }
            "--smoke" => f.smoke = true,
            "--out" => f.out = Some(PathBuf::from(value(arg)?)),
            "--run-dir" => f.run_dir = Some(PathBuf::from(value(arg)?)),
            s if s.starts_with("--") => return Err(format!("unknown flag {s}")),
            s => f.positional.push(s.to_string()),
        }
    }
    Ok(f)
}

impl Flags {
    /// Rejects stray arguments (only `compare` takes positional ones).
    fn no_positional(&self) -> Result<(), String> {
        match self.positional.first() {
            Some(arg) => Err(format!("unexpected argument `{arg}`")),
            None => Ok(()),
        }
    }

    fn params(&self) -> Params {
        Params {
            seed: self.seed,
            seconds: self.seconds,
            trace: self.trace,
            smoke: self.smoke,
            run_dir: self
                .run_dir
                .clone()
                .unwrap_or_else(|| default_run_dir(self.seed)),
        }
    }
}

/// Runs one workload in-process and prints the result line.
fn single(f: &Flags) -> Result<ExitCode, String> {
    f.no_positional()?;
    let name = f.workload.as_deref().ok_or("--workload NAME is required")?;
    let p = f.params();
    let mut out = run_workload(name, &p).ok_or_else(|| format!("unknown workload `{name}`"))?;
    let line = out.result_line(metrics::table(p.trace));
    for failure in &out.gate_failures {
        eprintln!("wtbench: {name}: GATE FAILED: {failure}");
    }
    println!("{line}");
    Ok(if out.correct() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}

fn git_sha() -> String {
    Command::new("git")
        .args(["rev-parse", "HEAD"])
        .stderr(Stdio::null())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map_or_else(
            || "unknown".into(),
            |o| String::from_utf8_lossy(&o.stdout).trim().to_string(),
        )
}

/// `wtbench run`: each workload in its own child process, so set-up
/// time and peak memory are per workload; prints every metric with its
/// unit and writes one report.
fn run_all(f: &Flags) -> Result<ExitCode, String> {
    f.no_positional()?;
    let names: Vec<&str> = match f.workload.as_deref() {
        None | Some("all") => WORKLOADS.to_vec(),
        Some(w) if WORKLOADS.contains(&w) => vec![w],
        Some(w) => return Err(format!("unknown workload `{w}`")),
    };
    let p = f.params();
    let exe = std::env::current_exe().map_err(|e| format!("own executable: {e}"))?;
    let mut ok = true;
    let mut report = String::new();
    let _ = write!(
        report,
        "{{\"schema\":\"wtbench.run.v1\",\"git_sha\":\"{}\",\"host_cores\":{},\"seed\":{},\"smoke\":{},\"trace\":{},\"seconds\":",
        git_sha(),
        par::host_parallelism(),
        p.seed,
        p.smoke,
        p.trace
    );
    obs::json::push_f64(&mut report, p.window().as_secs_f64());
    report.push_str(",\"workloads\":{");
    for (i, name) in names.iter().enumerate() {
        let mut cmd = Command::new(&exe);
        cmd.args(["--workload", name, "--seed", &p.seed.to_string()])
            .args(["--seconds", &p.seconds.to_string()])
            .args(["--trace", if p.trace { "1" } else { "0" }])
            .arg("--run-dir")
            .arg(&p.run_dir)
            .stderr(Stdio::inherit());
        if p.smoke {
            cmd.arg("--smoke");
        }
        let child = cmd.output().map_err(|e| format!("spawn {name}: {e}"))?;
        let stdout = String::from_utf8_lossy(&child.stdout);
        let line = stdout.lines().last().unwrap_or("").to_string();
        let parsed =
            serve::json::parse(&line).map_err(|e| format!("{name}: no result line ({e})"))?;
        let correct = parsed.get("correct").and_then(|c| c.as_bool()) == Some(true);
        ok &= correct && child.status.success();
        println!(
            "{name}: correct={correct} attempted={} failed={}",
            parsed
                .get("attempted")
                .and_then(|v| v.as_u64())
                .unwrap_or(0),
            parsed.get("failed").and_then(|v| v.as_u64()).unwrap_or(0)
        );
        for m in metrics::table(p.trace) {
            let v = parsed
                .get("metrics")
                .and_then(|ms| ms.get(m.name))
                .and_then(|x| x.get("value"))
                .and_then(|x| x.as_f64())
                .unwrap_or(f64::NAN);
            println!("  {:<30} {:>16.6} {}", m.name, v, m.unit);
        }
        if i > 0 {
            report.push(',');
        }
        let _ = write!(report, "\"{name}\":{line}");
    }
    report.push_str("}}\n");
    let out_path = f.out.clone().unwrap_or_else(|| p.run_dir.join("run.json"));
    if let Some(dir) = out_path.parent() {
        std::fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    }
    std::fs::write(&out_path, report).map_err(|e| format!("{}: {e}", out_path.display()))?;
    eprintln!("wtbench: wrote {}", out_path.display());
    Ok(if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let result = match args.first().map(String::as_str) {
        Some("run") => parse_flags(&args[1..]).and_then(|f| run_all(&f)),
        Some("compare") => parse_flags(&args[1..]).and_then(|f| match f.positional.as_slice() {
            [parent, change] => {
                let out = f
                    .out
                    .clone()
                    .unwrap_or_else(|| Path::new("target/wtbench/compare.json").into());
                compare::run(Path::new(parent), Path::new(change), &out)
                    .map(|code| ExitCode::from(code as u8))
            }
            _ => Err("compare takes PARENT_DIR CHANGE_DIR".into()),
        }),
        _ => parse_flags(&args).and_then(|f| single(&f)),
    };
    result.unwrap_or_else(|e| {
        eprintln!("wtbench: {e}");
        ExitCode::from(2)
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Every workload, untraced and traced, at smoke size: every gate
    /// and every metric of both tables.
    #[test]
    fn smoke_runs_every_workload_and_gate() {
        let dir = std::env::temp_dir().join(format!("wtbench-smoke-{}", std::process::id()));
        for trace in [false, true] {
            for name in WORKLOADS {
                let p = Params {
                    seed: 7,
                    seconds: 0.1,
                    trace,
                    smoke: true,
                    run_dir: dir.clone(),
                };
                let mut out = run_workload(name, &p).expect("known workload");
                let line = out.result_line(metrics::table(trace));
                assert!(
                    out.correct(),
                    "{name} (trace {trace}): {:?}",
                    out.gate_failures
                );
                assert!(line.starts_with("{\"correct\":true,"), "{line}");
            }
        }
        let _ = std::fs::remove_dir_all(dir);
    }

    /// `BENCHMARK.json` at the repository root lists exactly these
    /// workloads and metrics.
    #[test]
    fn benchmark_json_matches_tables() {
        let manifest = Path::new(env!("CARGO_MANIFEST_DIR"));
        let Some(path) = manifest
            .ancestors()
            .map(|d| d.join("BENCHMARK.json"))
            .find(|p| p.exists())
        else {
            panic!("BENCHMARK.json not found above {}", manifest.display());
        };
        let text = std::fs::read_to_string(&path).expect("read BENCHMARK.json");
        let json = serve::json::parse(&text).expect("BENCHMARK.json parses");
        let list = |key: &str| match json.get(key) {
            Some(serve::json::Json::Arr(items)) => items.clone(),
            _ => panic!("BENCHMARK.json has no `{key}` list"),
        };
        let names: Vec<String> = list("workloads")
            .iter()
            .map(|w| {
                w.get("name")
                    .and_then(|n| n.as_str())
                    .expect("workload name")
                    .to_string()
            })
            .collect();
        assert_eq!(names, WORKLOADS);
        for (key, table) in [
            ("end_to_end", &metrics::END_TO_END[..]),
            ("per_layer", &metrics::PER_LAYER[..]),
        ] {
            let items = list(key);
            assert_eq!(items.len(), table.len(), "{key}");
            for (item, m) in items.iter().zip(table) {
                let field = |k: &str| item.get(k).and_then(|v| v.as_str()).map(str::to_string);
                assert_eq!(field("name").as_deref(), Some(m.name), "{key}");
                assert_eq!(field("unit").as_deref(), Some(m.unit), "{}", m.name);
                assert_eq!(
                    field("better").as_deref(),
                    Some(m.better.name()),
                    "{}",
                    m.name
                );
                assert_eq!(
                    item.get("bound").and_then(|b| b.as_f64()),
                    m.bound,
                    "{}",
                    m.name
                );
            }
        }
    }
}
