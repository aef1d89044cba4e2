//! `obs-trace`: critical-path analyzer for serve request traces.
//!
//! Reads per-request stage breakdowns — either a JSONL dump (one
//! [`obs::TraceRecord`] per line, as written by `loadgen --traces-out`)
//! or live from a running server's `GET /v1/traces` — and prints a
//! stage-attribution report: per-stage latency percentiles, where wall
//! time goes (queue vs model vs overhead), and the slowest requests
//! with their dominant stage.
//!
//! ```text
//! # from a dump
//! cargo run -p bench --release --bin obs-trace -- --input traces.jsonl
//!
//! # live, newest 256 traces, slow requests only
//! cargo run -p bench --release --bin obs-trace -- --url 127.0.0.1:8080 --n 256 --min-ms 5
//!
//! # self-contained smoke (scripts/check.sh)
//! cargo run -p bench --release --bin obs-trace -- --smoke
//! ```

use bench::flags::Flags;
use bench::timing::percentile;
use bench::traces;
use obs::{Stage, TraceRecord};
use std::net::SocketAddr;

struct Args {
    input: Option<String>,
    url: Option<SocketAddr>,
    n: usize,
    min_ms: f64,
    slowest: usize,
    smoke: bool,
}

fn parse_args() -> Args {
    let mut flags = Flags::from_env("stage-attribution report for serve request traces");
    let args = Args {
        input: flags.optional("--input", "trace JSONL dump (from `loadgen --traces-out`)"),
        url: flags.optional("--url", "fetch live traces from HOST:PORT instead"),
        n: flags
            .value("--n", 512, "traces to fetch in --url mode")
            .max(1),
        min_ms: flags
            .value(
                "--min-ms",
                0.0_f64,
                "ignore traces faster than this many ms",
            )
            .max(0.0),
        slowest: flags.value("--slowest", 5, "slowest traces to list"),
        smoke: flags.switch("--smoke", "run the self-contained smoke test and exit"),
    };
    let sources = usize::from(args.input.is_some()) + usize::from(args.url.is_some());
    flags.require(
        args.smoke || sources > 0,
        "supply --input PATH or --url HOST:PORT",
    );
    flags.require(sources < 2, "--input and --url are mutually exclusive");
    flags.finish();
    args
}

/// The stage holding the largest share of a trace's wall time.
fn dominant_stage(t: &TraceRecord) -> Stage {
    Stage::ALL
        .into_iter()
        .max_by(|a, b| {
            t.stage(*a)
                .partial_cmp(&t.stage(*b))
                .expect("finite stage times")
        })
        .expect("Stage::ALL is non-empty")
}

/// Prints the stage-attribution report; returns the fraction of total
/// wall time that the six stages fail to account for (used by --smoke).
fn report(traces: &[TraceRecord], slowest: usize) -> f64 {
    let n = traces.len();
    let total_s: f64 = traces.iter().map(|t| t.total_s).sum();
    println!("obs-trace: {n} trace(s), {:.1} ms total wall time", total_s * 1e3);
    println!();

    // Per-stage latency table.
    println!("{:<12} {:>10} {:>10} {:>10} {:>10} {:>8}", "stage", "p50 ms", "p95 ms", "p99 ms", "mean ms", "share");
    let mut attributed_s = 0.0;
    for stage in Stage::ALL {
        let v: Vec<f64> = traces.iter().map(|t| t.stage(stage)).collect();
        let sum: f64 = v.iter().sum();
        attributed_s += sum;
        println!(
            "{:<12} {:>10.3} {:>10.3} {:>10.3} {:>10.3} {:>7.1}%",
            stage.name(),
            percentile(&v, 0.50) * 1e3,
            percentile(&v, 0.95) * 1e3,
            percentile(&v, 0.99) * 1e3,
            sum / n as f64 * 1e3,
            if total_s > 0.0 { sum / total_s * 100.0 } else { 0.0 },
        );
    }
    println!();

    // Where does a request's life go?
    let queue_s: f64 = traces
        .iter()
        .map(|t| t.stage(Stage::QueueWait) + t.stage(Stage::BatchWait))
        .sum();
    let model_s: f64 = traces.iter().map(|t| t.stage(Stage::Inference)).sum();
    let other_s = (attributed_s - queue_s - model_s).max(0.0);
    let unattributed = if total_s > 0.0 {
        ((total_s - attributed_s) / total_s).abs()
    } else {
        0.0
    };
    if total_s > 0.0 {
        println!(
            "time in queue {:.1}%  |  time in model {:.1}%  |  http/parse/respond {:.1}%  (unattributed {:.2}%)",
            queue_s / total_s * 100.0,
            model_s / total_s * 100.0,
            other_s / total_s * 100.0,
            unattributed * 100.0,
        );
    }

    // Slowest traces with their dominant stage.
    let k = slowest.min(n);
    if k > 0 {
        let mut by_total: Vec<&TraceRecord> = traces.iter().collect();
        by_total.sort_by(|a, b| b.total_s.partial_cmp(&a.total_s).expect("finite totals"));
        println!();
        println!("slowest {k}:");
        for t in &by_total[..k] {
            let dom = dominant_stage(t);
            println!(
                "  {}  {:>9.3} ms  status {}  nets {:>3}  dominant: {} ({:.1}%)",
                t.trace_id.to_hex(),
                t.total_s * 1e3,
                t.status,
                t.nets,
                dom.name(),
                if t.total_s > 0.0 { t.stage(dom) / t.total_s * 100.0 } else { 0.0 },
            );
        }
    }
    unattributed
}

/// Self-contained smoke: spin up an in-process server, generate
/// traffic, analyze its live traces, and check the attribution adds
/// up. Exercises the same path `scripts/check.sh` gates on.
fn smoke() -> i32 {
    let cfg = serve::ServeConfig {
        addr: "127.0.0.1:0".into(),
        workers: 2,
        ..Default::default()
    };
    let server = match serve::Server::start(cfg, serve::demo_model(3, 12, 10), "obs-trace-smoke") {
        Ok(s) => s,
        Err(e) => {
            eprintln!("obs-trace: SMOKE FAIL: server failed to start: {e}");
            return 1;
        }
    };
    let addr = server.local_addr();
    let mut client = serve::Client::new(addr);
    let body = r#"{"netgen":{"seed":5,"count":2,"nodes_min":4,"nodes_max":8}}"#;
    for _ in 0..20 {
        match client.request("POST", "/v1/predict", Some(body)) {
            Ok(r) if r.status == 200 => {}
            Ok(r) => {
                eprintln!("obs-trace: SMOKE FAIL: predict returned {}: {}", r.status, r.body);
                return 1;
            }
            Err(e) => {
                eprintln!("obs-trace: SMOKE FAIL: predict failed: {e}");
                return 1;
            }
        }
    }
    let traces = match traces::fetch(addr, 64) {
        Ok(t) => t,
        Err(e) => {
            eprintln!("obs-trace: SMOKE FAIL: {e}");
            return 1;
        }
    };
    server.shutdown();
    if traces.len() < 20 {
        eprintln!("obs-trace: SMOKE FAIL: expected >= 20 traces, got {}", traces.len());
        return 1;
    }
    let unattributed = report(&traces, 3);
    // The respond stage is the clamped remainder, so the stage sum can
    // only undershoot the wall time; 5% matches the integration gate.
    if unattributed > 0.05 {
        eprintln!(
            "obs-trace: SMOKE FAIL: {:.2}% of wall time unattributed (> 5%)",
            unattributed * 100.0
        );
        return 1;
    }
    println!("obs-trace: SMOKE PASS");
    0
}

fn main() {
    let args = parse_args();
    if args.smoke {
        std::process::exit(smoke());
    }
    let loaded = match (&args.input, args.url) {
        (Some(path), _) => std::fs::read_to_string(path)
            .map_err(|e| format!("cannot read {path}: {e}"))
            .and_then(|text| traces::from_jsonl(&text).map_err(|e| format!("{path}: {e}"))),
        (None, Some(addr)) => traces::fetch(addr, args.n),
        (None, None) => unreachable!("parse_args requires a source"),
    };
    let mut traces = match loaded {
        Ok(t) => t,
        Err(e) => {
            eprintln!("obs-trace: {e}");
            std::process::exit(1);
        }
    };
    traces.retain(|t| t.total_s * 1e3 >= args.min_ms);
    if traces.is_empty() {
        eprintln!("obs-trace: no traces to analyze (after --min-ms filter)");
        std::process::exit(1);
    }
    report(&traces, args.slowest);
}
