//! Load generator + benchmark driver for the inference server.
//!
//! ```text
//! # default: in-process worker sweep (1 vs 8 workers), writes BENCH_serve.json
//! cargo run -p bench --release --bin loadgen
//!
//! # fixed-rate mode against the in-process sweep
//! cargo run -p bench --release --bin loadgen -- --rate 200
//!
//! # closed-loop against an already-running server (single run)
//! cargo run -p bench --release --bin loadgen -- --url 127.0.0.1:8080
//!
//! # additionally measure the incremental ECO session path
//! cargo run -p bench --release --bin loadgen -- --eco
//! ```
//!
//! Closed-loop mode: each connection sends the next request the moment
//! the previous response arrives (measures capacity). Fixed-rate mode:
//! each connection paces requests at `rate / connections` per second
//! (measures latency under a target offered load). With `--eco` the
//! report additionally gains an incremental-traffic row: resident
//! design sessions driven closed-loop with single-edit ECO batches
//! (edit, re-time, read — the optimizer-in-the-loop shape).

use bench::flags::Flags;
use bench::report::{report, Obj};
use bench::timing::{median, percentile};
use rcnet::spef::SpefHeader;
use serve::{Client, ServeConfig, Server};
use std::fmt;
use std::net::SocketAddr;
use std::str::FromStr;
use std::time::{Duration, Instant};

#[derive(Clone)]
struct Args {
    url: Option<SocketAddr>,
    duration: Duration,
    connections: usize,
    rate: Option<f64>,
    sweep: Sweep,
    nets_per_request: usize,
    out: String,
    traces_out: Option<String>,
    /// Additionally drive the incremental ECO session endpoints and
    /// add the `eco` row to the report.
    eco: bool,
}

fn parse_args() -> Args {
    let mut flags = Flags::from_env("benchmark driver for the serve crate");
    let args = Args {
        url: flags.optional(
            "--url",
            "target a running server HOST:PORT (default: in-process sweep)",
        ),
        duration: Duration::from_secs_f64(
            flags
                .value("--duration-s", 5.0_f64, "measurement window per run, s")
                .max(0.1),
        ),
        connections: flags
            .value("--connections", 16, "concurrent connections")
            .max(1),
        rate: flags
            .optional::<f64>(
                "--rate",
                "fixed-rate mode at RPS total (default: closed-loop)",
            )
            .map(|r| r.max(0.1)),
        sweep: flags.value(
            "--workers-sweep",
            Sweep(vec![1, 8]),
            "in-process worker counts, e.g. 1,8",
        ),
        nets_per_request: flags
            .value("--nets-per-request", 4, "nets per predict request")
            .max(1),
        out: flags.value("--out", "BENCH_serve.json".to_string(), "result file"),
        traces_out: flags.optional(
            "--traces-out",
            "dump sampled request traces as JSONL (for obs-trace)",
        ),
        eco: flags.switch(
            "--eco",
            "also drive incremental ECO sessions (adds an `eco` row)",
        ),
    };
    flags.finish();
    args
}

/// `--workers-sweep`'s comma-separated worker counts, each at least 1.
#[derive(Clone)]
struct Sweep(Vec<usize>);

impl FromStr for Sweep {
    type Err = std::num::ParseIntError;

    fn from_str(s: &str) -> Result<Sweep, Self::Err> {
        let counts = s
            .split(',')
            .map(|w| w.trim().parse::<usize>().map(|w| w.max(1)));
        counts.collect::<Result<_, _>>().map(Sweep)
    }
}

impl fmt::Display for Sweep {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let counts: Vec<String> = self.0.iter().map(usize::to_string).collect();
        f.write_str(&counts.join(","))
    }
}

/// Trains the benchmark model: paper-shaped (hidden 24, heads 4) so
/// per-net inference cost is representative and the worker sweep
/// measures inference scaling rather than HTTP overhead. Heavier than
/// [`serve::demo_model`], which favours startup speed for tests.
fn bench_model() -> gnntrans::WireTimingEstimator {
    use gnntrans::{DatasetBuilder, EstimatorConfig};
    use netgen::nets::{NetConfig, NetGenerator};
    let mut g = NetGenerator::new(
        7,
        NetConfig {
            nodes_min: 4,
            nodes_max: 14,
            ..Default::default()
        },
    );
    let nets: Vec<_> = (0..24).map(|i| g.net(format!("bm{i}"), i % 3 == 0)).collect();
    let data = DatasetBuilder::new(8).build(&nets).expect("bench nets featurize");
    let mut est = gnntrans::WireTimingEstimator::new(
        &EstimatorConfig {
            gnn_layers: 3,
            attn_layers: 2,
            hidden: 24,
            heads: 4,
            mlp_hidden: 32,
            epochs: 12,
            lr: 3e-3,
        },
        7,
    );
    est.train(&data).expect("bench training converges");
    est
}

/// Pre-renders a pool of predict request bodies from generated nets so
/// the hot loop does no net generation or SPEF writing.
fn request_pool(nets_per_request: usize) -> Vec<String> {
    use netgen::nets::{NetConfig, NetGenerator};
    let mut g = NetGenerator::new(
        99,
        NetConfig {
            nodes_min: 4,
            nodes_max: 12,
            ..Default::default()
        },
    );
    let header = SpefHeader::default();
    (0..32)
        .map(|i| {
            let nets: Vec<_> = (0..nets_per_request)
                .map(|j| g.net(format!("lg{i}_{j}"), (i + j) % 3 == 0))
                .collect();
            let spef = rcnet::spef::write(&header, &nets);
            let mut body = String::from("{\"spef\":");
            obs::json::push_string(&mut body, &spef);
            body.push('}');
            body
        })
        .collect()
}

#[derive(Debug)]
struct RunResult {
    workers: Option<usize>,
    ok: u64,
    errors: u64,
    elapsed: Duration,
    /// Latencies in seconds.
    latencies: Vec<f64>,
    /// Per-request stage traces sampled from `/v1/traces` after the
    /// run (empty when the server does not expose them).
    traces: Vec<obs::TraceRecord>,
}

impl RunResult {
    fn throughput(&self) -> f64 {
        self.ok as f64 / self.elapsed.as_secs_f64().max(1e-9)
    }

    /// Median milliseconds spent in `stage` across the sampled traces.
    fn stage_median_ms(&self, stage: obs::Stage) -> f64 {
        let v: Vec<f64> = self.traces.iter().map(|t| t.stage(stage) * 1e3).collect();
        median(&v)
    }
}

/// Samples recent request traces from the server after a run. Returns
/// an empty vec (with a note) when the endpoint is unavailable — e.g.
/// `--url` mode against an older server build.
fn fetch_traces(addr: SocketAddr) -> Vec<obs::TraceRecord> {
    bench::traces::fetch(addr, 512).unwrap_or_else(|e| {
        eprintln!("loadgen: note: {e}; no stage breakdown");
        Vec::new()
    })
}

/// One measurement run against `addr`.
fn drive(addr: SocketAddr, bodies: &[String], args: &Args, workers: Option<usize>) -> RunResult {
    let started = Instant::now();
    let deadline = started + args.duration;
    let per_conn_interval = args
        .rate
        .map(|r| Duration::from_secs_f64(args.connections as f64 / r));
    let handles: Vec<_> = (0..args.connections)
        .map(|c| {
            let bodies = bodies.to_vec();
            let rate_tick = per_conn_interval;
            std::thread::spawn(move || {
                let mut client = Client::new(addr).with_timeout(Duration::from_secs(30));
                let mut ok = 0u64;
                let mut errors = 0u64;
                let mut latencies = Vec::with_capacity(4096);
                let mut i = c; // offset so connections do not sync on one body
                let mut next_send = Instant::now();
                while Instant::now() < deadline {
                    if let Some(tick) = rate_tick {
                        let now = Instant::now();
                        if now < next_send {
                            std::thread::sleep(next_send - now);
                        }
                        next_send += tick;
                    }
                    let body = &bodies[i % bodies.len()];
                    i += 1;
                    let sent = Instant::now();
                    match client.request("POST", "/v1/predict", Some(body)) {
                        Ok(r) if r.status == 200 => {
                            ok += 1;
                            latencies.push(sent.elapsed().as_secs_f64());
                        }
                        Ok(_) | Err(_) => errors += 1,
                    }
                }
                (ok, errors, latencies)
            })
        })
        .collect();
    let mut ok = 0u64;
    let mut errors = 0u64;
    let mut latencies = Vec::new();
    for h in handles {
        let (o, e, l) = h.join().expect("loadgen connection thread panicked");
        ok += o;
        errors += e;
        latencies.extend(l);
    }
    RunResult {
        workers,
        ok,
        errors,
        elapsed: started.elapsed(),
        latencies,
        traces: fetch_traces(addr),
    }
}

/// One incremental-traffic (ECO session) run.
struct EcoRun {
    ok: u64,
    errors: u64,
    elapsed: Duration,
    /// Per-edit round-trip latencies, seconds.
    latencies: Vec<f64>,
    sessions: usize,
    cache_hits: u64,
    cache_misses: u64,
    cache_hit_rate: f64,
}

impl EcoRun {
    fn edits_per_s(&self) -> f64 {
        self.ok as f64 / self.elapsed.as_secs_f64().max(1e-9)
    }
}

/// Drives the session endpoints: each connection owns one resident
/// design session and streams single-edit ECO batches at it closed-loop
/// (the realistic optimizer-in-the-loop shape: edit, re-time, read).
fn drive_eco(addr: SocketAddr, args: &Args) -> EcoRun {
    use serve::json::Json;
    let conns = args.connections.clamp(1, 8);
    // The connections and this thread: the window starts when every
    // session is set up, and each early return still waits here.
    let barrier = std::sync::Arc::new(std::sync::Barrier::new(conns + 1));
    let duration = args.duration;
    let handles: Vec<_> = (0..conns)
        .map(|c| {
            let barrier = std::sync::Arc::clone(&barrier);
            std::thread::spawn(move || {
                let mut client = Client::new(addr).with_timeout(Duration::from_secs(30));
                let sid = format!("lg_eco_{c}");
                let create = format!(
                    "{{\"name\":\"{sid}\",\"netgen\":{{\"design\":\"PCI_BRIDGE\",\
                     \"scale\":0.02,\"seed\":{seed}}}}}",
                    seed = c + 1
                );
                let Ok(r) = client.request("POST", "/v1/session", Some(&create)) else {
                    barrier.wait();
                    return (0u64, 1u64, Vec::new());
                };
                if r.status != 201 {
                    eprintln!("loadgen: eco session create failed: {}", r.body);
                    barrier.wait();
                    return (0, 1, Vec::new());
                }
                let (net, sink) = match serve::json::parse(&r.body).ok().and_then(|v| {
                    let c = v.get("timing")?.get("critical")?.clone();
                    Some((
                        c.get("net")?.as_str()?.to_string(),
                        c.get("sink")?.as_str()?.to_string(),
                    ))
                }) {
                    Some(pair) => pair,
                    None => {
                        barrier.wait();
                        return (0, 1, Vec::new());
                    }
                };
                // A small cyclic pool of edit bodies: repeated contexts
                // let the prediction cache show its hit rate.
                let bodies: Vec<String> = (0..16)
                    .map(|i| {
                        let mut b = String::from("{\"edits\":[{\"op\":\"set_sink_load\",\"net\":");
                        obs::json::push_string(&mut b, &net);
                        b.push_str(",\"sink\":");
                        obs::json::push_string(&mut b, &sink);
                        b.push_str(&format!(",\"ceff_ff\":{}}}]}}", 1.0 + i as f64 * 0.25));
                        b
                    })
                    .collect();
                let path = format!("/v1/session/{sid}/eco");
                barrier.wait();
                let deadline = Instant::now() + duration;
                let mut ok = 0u64;
                let mut errors = 0u64;
                let mut latencies = Vec::with_capacity(4096);
                let mut i = c;
                while Instant::now() < deadline {
                    let body = &bodies[i % bodies.len()];
                    i += 1;
                    let sent = Instant::now();
                    match client.request("POST", &path, Some(body)) {
                        Ok(r) if r.status == 200 => {
                            ok += 1;
                            latencies.push(sent.elapsed().as_secs_f64());
                        }
                        Ok(r) => {
                            errors += 1;
                            if errors == 1 {
                                eprintln!("loadgen: eco edit failed ({}): {}", r.status, r.body);
                            }
                        }
                        Err(_) => errors += 1,
                    }
                    // Read back timing every few edits, as an optimizer would.
                    if i % 8 == 0 {
                        let _ = client.request("GET", &format!("/v1/session/{sid}/timing"), None);
                    }
                }
                (ok, errors, latencies)
            })
        })
        .collect();
    barrier.wait();
    let started = Instant::now();
    let mut ok = 0u64;
    let mut errors = 0u64;
    let mut latencies = Vec::new();
    for h in handles {
        let (o, e, l) = h.join().expect("eco connection thread panicked");
        ok += o;
        errors += e;
        latencies.extend(l);
    }
    let elapsed = started.elapsed().min(duration.mul_f64(1.5)).max(duration);

    // Cache + session counters from the manager.
    let mut client = Client::new(addr).with_timeout(Duration::from_secs(10));
    let (sessions, cache_hits, cache_misses, cache_hit_rate) = client
        .request("GET", "/v1/session", None)
        .ok()
        .filter(|r| r.status == 200)
        .and_then(|r| serve::json::parse(&r.body).ok())
        .map(|v| {
            let n = match v.get("sessions") {
                Some(Json::Arr(ids)) => ids.len(),
                _ => 0,
            };
            let cache = v.get("cache").cloned().unwrap_or(Json::Null);
            (
                n,
                cache.get("hits").and_then(Json::as_u64).unwrap_or(0),
                cache.get("misses").and_then(Json::as_u64).unwrap_or(0),
                cache.get("hit_rate").and_then(Json::as_f64).unwrap_or(f64::NAN),
            )
        })
        .unwrap_or((0, 0, 0, f64::NAN));
    EcoRun {
        ok,
        errors,
        elapsed,
        latencies,
        sessions,
        cache_hits,
        cache_misses,
        cache_hit_rate,
    }
}

/// Milliseconds at each named quantile of `latencies` (seconds).
fn latency_ms(latencies: &[f64], quantiles: &[(&str, f64)]) -> Obj {
    let put = |obj: Obj, &(name, p): &(&str, f64)| obj.put(name, percentile(latencies, p) * 1e3);
    quantiles.iter().fold(Obj::new(), put)
}

fn eco_json(e: &EcoRun) -> Obj {
    Obj::new()
        .put("edits_ok", e.ok)
        .put("edits_err", e.errors)
        .put("elapsed_s", e.elapsed.as_secs_f64())
        .put("edits_per_s", e.edits_per_s())
        .put("sessions", e.sessions)
        .put(
            "latency_ms",
            latency_ms(&e.latencies, &[("p50", 0.5), ("p95", 0.95), ("p99", 0.99)]),
        )
        .put(
            "cache",
            Obj::new()
                .put("hits", e.cache_hits)
                .put("misses", e.cache_misses)
                .put("hit_rate", e.cache_hit_rate),
        )
}

fn run_json(r: &RunResult) -> Obj {
    let quantiles = [("p50", 0.5), ("p95", 0.95), ("p99", 0.99), ("max", 1.0)];
    let stages = [
        obs::Stage::QueueWait,
        obs::Stage::BatchWait,
        obs::Stage::Inference,
    ];
    let stage_ms = stages.iter().fold(Obj::new(), |obj, &s| {
        obj.put(s.name(), r.stage_median_ms(s))
    });
    let traced = !r.traces.is_empty();
    Obj::new()
        .put_some("workers", r.workers)
        .put("requests_ok", r.ok)
        .put("requests_err", r.errors)
        .put("elapsed_s", r.elapsed.as_secs_f64())
        .put("throughput_rps", r.throughput())
        .put("latency_ms", latency_ms(&r.latencies, &quantiles))
        .put_some("traced_requests", traced.then_some(r.traces.len()))
        .put_some("stage_ms_median", traced.then_some(stage_ms))
}

fn summarize(r: &RunResult) {
    let who = match r.workers {
        Some(w) => format!("{w} workers"),
        None => "remote target".to_string(),
    };
    eprintln!(
        "loadgen: {who}: {:.1} req/s ({} ok, {} err), latency p50 {:.2} ms, p95 {:.2} ms, p99 {:.2} ms",
        r.throughput(),
        r.ok,
        r.errors,
        percentile(&r.latencies, 0.5) * 1e3,
        percentile(&r.latencies, 0.95) * 1e3,
        percentile(&r.latencies, 0.99) * 1e3,
    );
    if !r.traces.is_empty() {
        eprintln!(
            "loadgen: {who}: stage medians over {} traces: queue_wait {:.2} ms, batch_wait {:.2} ms, inference {:.2} ms",
            r.traces.len(),
            r.stage_median_ms(obs::Stage::QueueWait),
            r.stage_median_ms(obs::Stage::BatchWait),
            r.stage_median_ms(obs::Stage::Inference),
        );
    }
}

fn main() {
    let args = parse_args();
    let bodies = request_pool(args.nets_per_request);
    let mut runs = Vec::new();
    let mut eco_run: Option<EcoRun> = None;

    // `--eco` is additive: the standard predict workload runs first
    // (remote drive or in-process sweep), then the incremental-traffic
    // row is measured, so one report carries both.
    let mut eco_addr: Option<SocketAddr> = None;
    let mut eco_server = None;

    if let Some(addr) = args.url {
        eprintln!("loadgen: driving {addr} for {:?}", args.duration);
        let run = drive(addr, &bodies, &args, None);
        summarize(&run);
        runs.push(run);
        if args.eco {
            eco_addr = Some(addr);
        }
    } else {
        // In-process sweep: train once, save, and load the same
        // checkpoint into each server so every run serves identical
        // weights.
        eprintln!("loadgen: training benchmark model for the sweep");
        let ckpt =
            std::env::temp_dir().join(format!("serve_loadgen_model_{}.bin", std::process::id()));
        bench_model().save(&ckpt).expect("save bench model");
        for &workers in &args.sweep.0 {
            let estimator =
                gnntrans::WireTimingEstimator::load(&ckpt).expect("reload demo model");
            let cfg = ServeConfig {
                addr: "127.0.0.1:0".into(),
                workers,
                queue_capacity: 1024,
                ..Default::default()
            };
            let server = Server::start(cfg, estimator, "loadgen-demo").expect("start server");
            let addr = server.local_addr();
            // Short warmup so thread spawn + first-touch costs stay out
            // of the measured window.
            let warm = Args {
                duration: Duration::from_millis(300),
                rate: None,
                ..args.clone()
            };
            drive(addr, &bodies, &warm, None);
            // The trace ring is process-global here (server runs
            // in-process): clear it so the sampled stage breakdown
            // covers only this run's measured window.
            obs::trace::ring().clear();
            eprintln!("loadgen: measuring {workers} worker(s) for {:?}", args.duration);
            let run = drive(addr, &bodies, &args, Some(workers));
            summarize(&run);
            runs.push(run);
            server.shutdown();
        }
        if args.eco {
            // One more server from the same checkpoint hosts the
            // resident sessions, so the eco row is measured against
            // the exact weights the sweep served.
            let estimator =
                gnntrans::WireTimingEstimator::load(&ckpt).expect("reload demo model");
            let cfg = ServeConfig {
                addr: "127.0.0.1:0".into(),
                workers: 2,
                queue_capacity: 1024,
                ..Default::default()
            };
            let server = Server::start(cfg, estimator, "loadgen-eco").expect("start server");
            eco_addr = Some(server.local_addr());
            eco_server = Some(server);
        }
        let _ = std::fs::remove_file(&ckpt);
    }

    if let Some(addr) = eco_addr {
        eprintln!("loadgen: driving eco sessions at {addr} for {:?}", args.duration);
        let run = drive_eco(addr, &args);
        eprintln!(
            "loadgen: eco: {:.1} edits/s ({} ok, {} err), p50 {:.2} ms, cache hit rate {:.1}%",
            run.edits_per_s(),
            run.ok,
            run.errors,
            percentile(&run.latencies, 0.5) * 1e3,
            run.cache_hit_rate * 100.0,
        );
        eco_run = Some(run);
    }
    if let Some(server) = eco_server {
        server.shutdown();
    }

    let (first, last) = (&runs[0], &runs[runs.len() - 1]);
    let speedup = match (first.workers, last.workers) {
        (Some(a), Some(b)) if runs.len() >= 2 => {
            let ratio = last.throughput() / first.throughput().max(1e-9);
            Some(
                Obj::new()
                    .put("label", format!("{b}v{a}"))
                    .put("throughput", ratio),
            )
        }
        _ => None,
    };
    let mode = match args.rate {
        Some(_) => "fixed-rate",
        None => "closed-loop",
    };
    report("serve.loadgen.v1", false)
        .put("mode", mode)
        .put_some("target_rps", args.rate)
        .put("duration_s", args.duration.as_secs_f64())
        .put("connections", args.connections)
        .put("nets_per_request", args.nets_per_request)
        .put("runs", runs.iter().map(run_json).collect::<Vec<_>>())
        .put_some("eco", eco_run.as_ref().map(eco_json))
        .put_some("speedup", speedup)
        .write_to(&args.out);
    if let Some(path) = &args.traces_out {
        let mut jsonl = String::new();
        for run in &runs {
            for t in &run.traces {
                t.push_json(&mut jsonl);
                jsonl.push('\n');
            }
        }
        match std::fs::write(path, &jsonl) {
            Ok(()) => eprintln!(
                "loadgen: wrote {} trace(s) to {path}",
                runs.iter().map(|r| r.traces.len()).sum::<usize>()
            ),
            Err(e) => {
                eprintln!("loadgen: cannot write {path}: {e}");
                std::process::exit(1);
            }
        }
    }
    if runs.len() >= 2 {
        let speedup = runs[runs.len() - 1].throughput() / runs[0].throughput().max(1e-9);
        eprintln!(
            "loadgen: throughput speedup {} -> {} workers: {speedup:.2}x",
            runs[0].workers.unwrap_or(0),
            runs[runs.len() - 1].workers.unwrap_or(0),
        );
        let cores = par::host_parallelism();
        let top = runs.iter().filter_map(|r| r.workers).max().unwrap_or(1);
        if cores < top {
            eprintln!(
                "loadgen: note: host has {cores} core(s) — the worker pool is \
                 compute-bound, so parallel speedup requires >= {top} cores; \
                 this run validates correctness under concurrency, not scaling"
            );
        }
    }
    if let Some(e) = &eco_run {
        if e.ok == 0 {
            eprintln!("loadgen: FAIL: no successful eco edits (errors: {})", e.errors);
            std::process::exit(1);
        }
    }
    let total_errors: u64 = runs.iter().map(|r| r.errors).sum();
    if runs.iter().all(|r| r.ok == 0) {
        eprintln!("loadgen: FAIL: no successful requests (errors: {total_errors})");
        std::process::exit(1);
    }
}
