//! `serve_predict`: an in-process `serve::Server` under an open-loop
//! load of small SPEF predict requests.
//!
//! Two client threads, one keep-alive connection each, send on a fixed
//! schedule (500 req/s in total) whether or not earlier replies came
//! back, so a stall delays every later request. Latency is timed from
//! each request's scheduled send time; how late the generator sent is
//! reported with the traced run's details.
//!
//! Every 16th slot of the schedule both connections leave out their
//! request (so 468.75 req/s are offered), and the host-speed probe runs
//! in that gap once the server has answered everything: like the
//! closed loops' probes between ops, it never competes with the
//! program for a core. Only the reference kernel fits the gap
//! (`host::probe_compute`).
//!
//! The measured window is made of 1 s windows. It lasts until `--seconds`
//! of them were quiet (the hypervisor stole at most `host::QUIET_STEAL`
//! of the CPU time), or until it has stretched to `MAX_WINDOW_S`
//! (`MAX_WAIT_S` while fewer than `MIN_QUIET` were quiet). The latencies
//! come from the quiet windows only (see `host.rs`), or from the
//! `MIN_QUIET` least-stolen ones when fewer were quiet.
//!
//! `ops_per_s` is the achieved rate: replies over the time from the
//! first measured send to the last reply. It reads the offered rate
//! while the server keeps up and falls once a backlog spills past the
//! window; the server's capacity is not measured (README).

use crate::common::{accuracy, fail, ms_p50_p99, setup_with_model, spef, Params, Samples};
use crate::host;
use crate::metrics::{peak_rss_mb, reset_peak_rss, Outcome};
use crate::probe;
use crate::spans::{span, Spans};
use netgen::{NetConfig, NetGenerator};
use serve::{Client, ServeConfig, Server};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::time::{Duration, Instant};

const CONNECTIONS: usize = 2;
/// Request bodies, enough that the mean request's cost barely moves
/// with the seed.
const POOL: usize = 256;
const NETS_PER_REQUEST: usize = 4;
/// Slots per connection from one probe gap to the next.
const PROBE_EVERY: u64 = 16;
/// Longest the measured window may stretch to, seconds, once it holds
/// `MIN_QUIET` quiet windows.
const MAX_WINDOW_S: f64 = 30.0;
/// Longest it may stretch to while it holds fewer.
const MAX_WAIT_S: f64 = 45.0;
/// Fewest 1 s windows the latencies come from (~1900 requests).
const MIN_QUIET: usize = 4;

/// Shuts the server down (and joins its workers) when dropped.
struct Running(Option<Server>);

impl Drop for Running {
    fn drop(&mut self) {
        if let Some(server) = self.0.take() {
            server.shutdown();
        }
    }
}

/// The request pool: SPEF documents of 4 nets (4–12 nodes, a third
/// non-tree), the bodies wrapping them, and each body's path count.
struct Pool {
    texts: Vec<String>,
    bodies: Vec<String>,
    paths: Vec<usize>,
}

fn pool(seed: u64) -> Pool {
    let cfg = NetConfig {
        nodes_min: 4,
        nodes_max: 12,
        ..Default::default()
    };
    let mut g = NetGenerator::new(seed ^ 0x5e7e, cfg);
    let mut pool = Pool {
        texts: Vec::new(),
        bodies: Vec::new(),
        paths: Vec::new(),
    };
    for i in 0..POOL {
        let nets: Vec<_> = (0..NETS_PER_REQUEST)
            .map(|j| g.net(format!("rq{i}_{j}"), (i + j) % 3 == 0))
            .collect();
        let text = spef(&nets);
        let mut body = String::from("{\"spef\":");
        obs::json::push_string(&mut body, &text);
        body.push('}');
        pool.paths.push(nets.iter().map(|n| n.paths().len()).sum());
        pool.texts.push(text);
        pool.bodies.push(body);
    }
    pool
}

/// What one connection saw in the measured window.
#[derive(Default)]
struct ConnResult {
    samples: Samples,
    late: Vec<f64>,
    /// When the last measured reply arrived.
    last_done: Option<Instant>,
    /// First 200 body per pool index, for the in-process comparison.
    kept: Vec<(usize, String)>,
}

/// Compares one response body against in-process `predict_spef` on the
/// same SPEF text: same nets, sinks and paths, values within 1e-6
/// relative.
fn matches_in_process(body: &str, want: &[gnntrans::NetPrediction]) -> Result<(), String> {
    let json = serve::json::parse(body).map_err(fail("response body"))?;
    let Some(serve::json::Json::Arr(nets)) = json.get("nets") else {
        return Err("response has no `nets` array".into());
    };
    if nets.len() != want.len() {
        return Err(format!(
            "{} nets in response, {} in process",
            nets.len(),
            want.len()
        ));
    }
    let close = |got: Option<f64>, want: f64| {
        got.is_some_and(|g| (g - want).abs() <= 1e-6 * want.abs().max(1e-9))
    };
    for (got, w) in nets.iter().zip(want) {
        let Some(serve::json::Json::Arr(paths)) = got.get("paths") else {
            return Err(format!("net {} has no `paths` array", w.net));
        };
        if got.get("net").and_then(|n| n.as_str()) != Some(w.net.as_str())
            || paths.len() != w.estimates.len()
        {
            return Err(format!("net {} differs in name or path count", w.net));
        }
        for ((path, sink), e) in paths.iter().zip(&w.sinks).zip(&w.estimates) {
            let ok = path.get("sink").and_then(|s| s.as_str()) == Some(sink.as_str())
                && close(
                    path.get("slew_ps").and_then(|v| v.as_f64()),
                    e.slew.pico_seconds(),
                )
                && close(
                    path.get("delay_ps").and_then(|v| v.as_f64()),
                    e.delay.pico_seconds(),
                );
            if !ok {
                return Err(format!(
                    "net {} sink {sink}: response differs from predict_spef",
                    w.net
                ));
            }
        }
    }
    Ok(())
}

/// Sends pool body `i` and checks the reply's status and path count.
fn send(client: &mut Client, pool: &Pool, i: usize) -> Result<String, String> {
    let resp = client
        .request("POST", "/v1/predict", Some(&pool.bodies[i]))
        .map_err(fail("request"))?;
    if resp.status != 200 {
        return Err(format!("status {}", resp.status));
    }
    let paths = resp.body.matches("\"slew_ps\":").count();
    if paths != pool.paths[i] {
        return Err(format!("{paths} estimates for {} paths", pool.paths[i]));
    }
    Ok(resp.body)
}

pub fn run(workload: &str, p: &Params) -> Outcome {
    let mut out = Outcome::default();
    if p.trace && std::env::var_os("OBS_TRACE_RING_CAPACITY").is_none() {
        // The ring is sized on first use; make it hold the whole window.
        std::env::set_var("OBS_TRACE_RING_CAPACITY", "65536");
    }
    let setup = setup_with_model(p, workload, |est| {
        let pool = pool(p.seed);
        let server = Server::start(ServeConfig::default(), est.clone(), "wtbench")
            .map_err(fail("start server"))?;
        Ok((est, pool, Running(Some(server))))
    });
    let ((est, pool, server), setup_times) = match setup {
        Ok(s) => s,
        Err(e) => {
            out.gate(false, || e);
            return out;
        }
    };
    let addr = server.0.as_ref().expect("server is running").local_addr();

    let rate: f64 = p.pick(500.0, 100.0);
    let warmup = Duration::from_secs_f64(p.pick(1.0, 0.2));
    let interval = Duration::from_secs_f64(CONNECTIONS as f64 / rate);
    let spans = p.trace.then(Spans::new);
    let batch_jobs = obs::histogram("serve.predict.batch_jobs");
    let rejected = obs::counter("serve.queue.rejected_full");
    let expired = obs::counter("serve.predict.deadline_expired");

    let t0 = Instant::now() + Duration::from_millis(20);
    let measure_from = t0 + warmup;
    // 1 s windows (one shorter window in smoke mode).
    let slot = p.window().min(Duration::from_secs(1));
    let wanted = (p.window().as_secs_f64() / slot.as_secs_f64()).round() as usize;
    // Smoke mode checks the gates; it does not wait for quiet windows.
    let windows = |s: f64| p.pick(wanted.max((s / slot.as_secs_f64()) as usize), wanted);
    let (most, longest) = (windows(MAX_WINDOW_S), windows(MAX_WAIT_S));
    let min_quiet = MIN_QUIET.min(wanted);
    // Set once the measured window is over. Requests sent and not yet
    // answered: a hint for when to probe the host. Neither publishes
    // data, so relaxed ordering suffices.
    let stop = AtomicBool::new(false);
    let in_flight = AtomicUsize::new(0);
    let (results, before, stolen, rss) = std::thread::scope(|s| {
        let handles: Vec<_> = (0..CONNECTIONS)
            .map(|c| {
                let (pool, spans, in_flight, stop) = (&pool, spans.as_ref(), &in_flight, &stop);
                s.spawn(move || {
                    let mut client = Client::new(addr).with_timeout(Duration::from_secs(10));
                    let mut r = ConnResult::default();
                    let offset = interval.mul_f64(c as f64 / CONNECTIONS as f64);
                    let mut sent_count = 0u64;
                    for k in 0u64.. {
                        let due = t0 + offset + interval.mul_f64(k as f64);
                        let now = Instant::now();
                        if due > now {
                            std::thread::sleep(due - now);
                        }
                        if stop.load(Ordering::Relaxed) {
                            break;
                        }
                        let measured = due >= measure_from;
                        if k % PROBE_EVERY == PROBE_EVERY - 1 {
                            // The probe gap: connection 1 leaves out the
                            // slot after this one too, so nothing is sent
                            // until `due + interval`. The probe waits (at
                            // most half of that) for the last reply.
                            if c == 0 && measured {
                                let quiet = due + interval / CONNECTIONS as u32;
                                while in_flight.load(Ordering::Relaxed) > 0
                                    && Instant::now() < quiet
                                {
                                    std::thread::sleep(Duration::from_micros(20));
                                }
                                let start = Instant::now();
                                r.samples.probes.push((start, host::probe_compute()));
                            }
                            continue;
                        }
                        let id = sent_count * CONNECTIONS as u64 + c as u64;
                        sent_count += 1;
                        let i = (id % POOL as u64) as usize;
                        let traced = spans.filter(|_| measured && k % 2 == 1);
                        let sent = Instant::now();
                        in_flight.fetch_add(1, Ordering::Relaxed);
                        let response = {
                            let _s = span(traced, "serve.client.request", id);
                            send(&mut client, pool, i)
                        };
                        in_flight.fetch_sub(1, Ordering::Relaxed);
                        if !measured {
                            continue;
                        }
                        let done = Instant::now();
                        r.last_done = Some(done);
                        let latency = (done - due).as_secs_f64();
                        r.late.push((sent - due).as_secs_f64());
                        let result = response.map(|body| {
                            if !r.kept.iter().any(|(j, _)| *j == i) {
                                r.kept.push((i, body));
                            }
                        });
                        r.samples.record(traced.is_some(), due, latency, result);
                    }
                    r
                })
            })
            .collect();
        // Server-side traces and counters from here on cover the
        // measured window only.
        std::thread::sleep(measure_from.saturating_duration_since(Instant::now()));
        obs::trace::reset();
        let before = (
            batch_jobs.count(),
            batch_jobs.sum(),
            rejected.get(),
            expired.get(),
        );
        reset_peak_rss();
        // The steal share of each window, until enough were quiet.
        let mut stolen: Vec<f64> = Vec::new();
        let mut ticks = host::cpu_ticks();
        loop {
            let quiet = stolen.iter().filter(|&&s| s <= host::QUIET_STEAL).count();
            let cap = if quiet < min_quiet { longest } else { most };
            if quiet >= wanted || stolen.len() >= cap {
                break;
            }
            let boundary = measure_from + slot * (stolen.len() as u32 + 1);
            std::thread::sleep(boundary.saturating_duration_since(Instant::now()));
            let now = host::cpu_ticks();
            stolen.push(host::steal_share(ticks, now));
            ticks = now;
        }
        stop.store(true, Ordering::Relaxed);
        let results: Vec<ConnResult> = handles
            .into_iter()
            .map(|h| h.join().expect("client thread"))
            .collect();
        (results, before, stolen, peak_rss_mb())
    });
    let traces = obs::trace::ring().snapshot();
    let (jobs0, jobs_sum0, rejected0, expired0) = before;
    let mut samples = Samples {
        peak_rss_mb: rss,
        ..Samples::default()
    };
    let mut late = Vec::new();
    let mut kept = Vec::new();
    let mut last_done = None;
    for r in results {
        last_done = last_done.max(r.last_done);
        samples.attempted += r.samples.attempted;
        samples.failed += r.samples.failed;
        samples.traced.extend(r.samples.traced);
        samples.untraced.extend(r.samples.untraced);
        samples.probes.extend(r.samples.probes);
        if samples.first_error.is_none() {
            samples.first_error = r.samples.first_error;
        }
        late.extend(r.late);
        kept.extend(r.kept);
    }
    drop(server);
    // Achieved throughput: replies over the time from the first
    // scheduled send to the last reply, so a backlog that spills past
    // the window lowers it.
    let last_done = last_done.unwrap_or(measure_from + slot * stolen.len() as u32);
    samples.rate = Some(samples.untraced.len() as f64 / (last_done - measure_from).as_secs_f64());

    // Latencies count from the quiet windows only; from the `MIN_QUIET`
    // least-stolen ones when fewer were quiet.
    let mut by_steal: Vec<usize> = (0..stolen.len()).collect();
    by_steal.sort_by(|&a, &b| stolen[a].total_cmp(&stolen[b]));
    let quiet = stolen.iter().filter(|&&s| s <= host::QUIET_STEAL).count();
    let chosen = &by_steal[..quiet.max(min_quiet).min(wanted).min(by_steal.len())];
    samples.untraced.retain(|op| {
        let w = (op.0.saturating_duration_since(measure_from).as_secs_f64() / slot.as_secs_f64())
            as usize;
        chosen.contains(&w)
    });
    eprintln!(
        "wtbench: {workload}: {quiet} of {} windows quiet (steal share ≤ {}), {} kept, largest share kept {:.3}",
        stolen.len(),
        host::QUIET_STEAL,
        chosen.len(),
        chosen.last().map_or(0.0, |&w| stolen[w]),
    );
    out.gate(samples.failed == 0, || {
        format!("{} requests failed", samples.failed)
    });

    // Sampled bodies must match in-process prediction of the same SPEF.
    kept.sort_by_key(|(i, _)| *i);
    kept.dedup_by_key(|(i, _)| *i);
    let compared = kept.iter().try_for_each(|(i, body)| {
        let want = est
            .predict_spef(&pool.texts[*i])
            .map_err(fail("predict_spef"))?;
        matches_in_process(body, &want)
    });
    if let Err(e) = compared {
        out.gate(false, || format!("served bodies: {e}"));
    }
    out.gate(kept.len() == POOL.min(samples.attempted as usize), || {
        format!("only {} of {POOL} pool bodies were answered", kept.len())
    });

    if p.trace {
        let ok: Vec<_> = traces
            .iter()
            .filter(|t| t.status == 200 && t.nets > 0)
            .collect();
        for stage in [
            "accept",
            "parse",
            "queue_wait",
            "batch_wait",
            "inference",
            "respond",
        ] {
            let st = obs::Stage::from_name(stage).expect("serve stage");
            let (p50, p99) = ms_p50_p99(&ok.iter().map(|t| t.stage(st)).collect::<Vec<_>>());
            out.detail(&format!("serve.{stage}_ms_p50"), p50);
            if stage == "queue_wait" || stage == "inference" {
                out.detail(&format!("serve.{stage}_ms_p99"), p99);
            }
        }
        out.detail("serve.traces", ok.len() as f64);
        let jobs = batch_jobs.count() - jobs0;
        out.detail(
            "serve.batch_jobs_mean",
            (batch_jobs.sum() - jobs_sum0) / jobs.max(1) as f64,
        );
        out.detail("serve.rejected", (rejected.get() - rejected0) as f64);
        out.detail("serve.expired", (expired.get() - expired0) as f64);
        out.detail("client.late_ms_p99", ms_p50_p99(&late).1);
    }
    // Tail p95: the p99 of the kept windows' requests did not repeat
    // from run to run (README, Repeatability).
    samples.report(workload, &setup_times, 0.95, &mut out);
    accuracy(&est, p, 0.9, &mut out);
    if p.trace {
        probe::run(&est, &pool.texts[..p.pick(POOL, 2)], p, &mut out);
        crate::write_spans(spans.as_ref(), workload, p, &mut out);
    }
    out
}
