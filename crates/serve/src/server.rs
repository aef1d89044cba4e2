//! The inference server: accept loop, connection handling, request
//! routing, worker pool, and graceful shutdown.
//!
//! ```text
//! accept loop ──► connection threads ──► bounded queue ──► worker pool
//!                  (parse HTTP+JSON,      (backpressure:     (micro-batch
//!                   validate SPEF,         503 when full)     drain, one
//!                   wait for reply)                           predict_many
//!                                                             per batch)
//! ```
//!
//! Non-predict endpoints (`/healthz`, `/metrics`, `/v1/model/reload`)
//! are answered inline on the connection thread: they must stay
//! responsive even when the predict queue is saturated.

use crate::http::{read_request, HttpError, Request, Response};
use crate::json::{self, Json};
use crate::model::{LoadedModel, ModelSlot, ReloadError};
use crate::queue::{BoundedQueue, PushError};
use crate::trace::RequestTrace;
use gnntrans::{NetContext, PathEstimate};
use obs::trace::Stage;
use netgen::nets::{NetConfig, NetGenerator};
use rcnet::{RcNet, Seconds};
use std::io::BufReader;
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{mpsc, Arc};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Server tuning knobs.
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Bind address; port 0 picks an ephemeral port.
    pub addr: String,
    /// Worker threads draining the predict queue. `0` is allowed (and
    /// only useful) in tests that exercise queue backpressure.
    pub workers: usize,
    /// Bounded queue capacity; beyond it requests get 503.
    pub queue_capacity: usize,
    /// Most jobs one worker drains per micro-batch.
    pub batch_max: usize,
    /// Default per-request deadline.
    pub deadline: Duration,
    /// Largest accepted request body.
    pub max_body_bytes: usize,
    /// Most nets accepted in one predict request.
    pub max_nets_per_request: usize,
    /// Idle read timeout on keep-alive connections.
    pub idle_timeout: Duration,
    /// Requests slower than this emit a structured warn event with
    /// their stage breakdown (and count into `serve.trace.slow`).
    pub slow_request: Duration,
    /// Most nets accepted in one design session.
    pub max_session_nets: usize,
    /// Most edits accepted in one `POST /v1/session/{id}/eco` batch.
    pub max_edits_per_request: usize,
    /// Byte budget across resident design sessions (LRU-evicted past it).
    pub session_byte_budget: usize,
    /// Byte budget of the shared ECO prediction cache.
    pub session_cache_bytes: usize,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            addr: "127.0.0.1:0".into(),
            workers: std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(4),
            queue_capacity: 256,
            batch_max: 16,
            deadline: Duration::from_secs(5),
            max_body_bytes: 8 * 1024 * 1024,
            max_nets_per_request: 512,
            idle_timeout: Duration::from_secs(30),
            slow_request: Duration::from_millis(250),
            max_session_nets: 20_000,
            max_edits_per_request: 64,
            session_byte_budget: 256 << 20,
            session_cache_bytes: 64 << 20,
        }
    }
}

/// Why a queued job did not produce predictions.
enum JobError {
    /// The deadline passed before a worker got to it (504).
    Expired,
    /// Prediction failed (500; message included).
    Predict(String),
}

/// One queued predict request.
struct PredictJob {
    nets: Vec<RcNet>,
    ctxs: Vec<NetContext>,
    reply: mpsc::Sender<Result<String, JobError>>,
    deadline: Instant,
    /// The request's trace, carried across the queue handoff so the
    /// worker can close `queue_wait`/`batch_wait` and attribute
    /// inference time.
    trace: RequestTrace,
}

pub(crate) struct Shared {
    pub(crate) cfg: ServeConfig,
    pub(crate) slot: ModelSlot,
    /// Live ECO design sessions + their shared prediction cache.
    pub(crate) sessions: eco::SessionManager,
    queue: BoundedQueue<PredictJob>,
    shutdown: AtomicBool,
    started: Instant,
}

/// A running server. Dropping it without [`Server::shutdown`] leaves
/// threads running; call shutdown for a clean drain.
pub struct Server {
    addr: SocketAddr,
    shared: Arc<Shared>,
    acceptor: Option<JoinHandle<()>>,
    workers: Vec<JoinHandle<()>>,
}

impl Server {
    /// Binds, spawns the worker pool and accept loop, and returns.
    ///
    /// # Errors
    ///
    /// Propagates bind failures; rejects models that fail canary
    /// validation (see [`ModelSlot::new`]) as `InvalidInput`.
    pub fn start(
        cfg: ServeConfig,
        estimator: gnntrans::WireTimingEstimator,
        source: &str,
    ) -> std::io::Result<Server> {
        let slot = ModelSlot::new(estimator, source).map_err(|e| {
            std::io::Error::new(std::io::ErrorKind::InvalidInput, e.to_string())
        })?;
        let listener = TcpListener::bind(&cfg.addr)?;
        listener.set_nonblocking(true)?;
        let addr = listener.local_addr()?;
        let shared = Arc::new(Shared {
            queue: BoundedQueue::new(cfg.queue_capacity, obs::gauge("serve.queue.depth")),
            sessions: eco::SessionManager::new(cfg.session_byte_budget, cfg.session_cache_bytes),
            cfg,
            slot,
            shutdown: AtomicBool::new(false),
            started: Instant::now(),
        });

        let workers = (0..shared.cfg.workers)
            .map(|i| {
                let shared = Arc::clone(&shared);
                std::thread::Builder::new()
                    .name(format!("serve-worker-{i}"))
                    .spawn(move || worker_loop(&shared))
                    .expect("spawn worker")
            })
            .collect();

        let acceptor = {
            let shared = Arc::clone(&shared);
            std::thread::Builder::new()
                .name("serve-acceptor".into())
                .spawn(move || accept_loop(&listener, &shared))
                .expect("spawn acceptor")
        };

        obs::event!(
            obs::Level::Info,
            "serve.server",
            "listening",
            addr = addr.to_string(),
            workers = shared.cfg.workers,
            queue_capacity = shared.cfg.queue_capacity,
            batch_max = shared.cfg.batch_max,
        );
        Ok(Server {
            addr,
            shared,
            acceptor: Some(acceptor),
            workers,
        })
    }

    /// The bound address (with the resolved ephemeral port).
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    /// Whether `POST /admin/shutdown` (or a signal handler calling
    /// [`Server::request_shutdown`]) asked the server to stop.
    pub fn shutdown_requested(&self) -> bool {
        self.shared.shutdown.load(Ordering::SeqCst)
    }

    /// Flags the server to stop; [`Server::shutdown`] performs the
    /// actual drain and join.
    pub fn request_shutdown(&self) {
        self.shared.shutdown.store(true, Ordering::SeqCst);
    }

    /// Graceful shutdown: stop accepting, let workers drain every job
    /// already queued, then join all threads.
    pub fn shutdown(mut self) {
        self.request_shutdown();
        if let Some(a) = self.acceptor.take() {
            let _ = a.join();
        }
        // Closing after the acceptor stops means no request accepted
        // before the flag flipped is dropped: it either enqueued (and
        // will be drained) or gets a clean 503.
        self.shared.queue.close();
        for w in self.workers.drain(..) {
            let _ = w.join();
        }
        obs::event!(obs::Level::Info, "serve.server", "drained and stopped");
    }
}

fn accept_loop(listener: &TcpListener, shared: &Arc<Shared>) {
    loop {
        if shared.shutdown.load(Ordering::SeqCst) {
            return;
        }
        match listener.accept() {
            Ok((stream, _peer)) => {
                obs::counter("serve.http.connections").inc();
                let shared = Arc::clone(shared);
                let _ = std::thread::Builder::new()
                    .name("serve-conn".into())
                    .spawn(move || connection_loop(stream, &shared));
            }
            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                std::thread::sleep(Duration::from_millis(5));
            }
            Err(_) => std::thread::sleep(Duration::from_millis(5)),
        }
    }
}

fn connection_loop(stream: TcpStream, shared: &Arc<Shared>) {
    let _ = stream.set_read_timeout(Some(shared.cfg.idle_timeout));
    let _ = stream.set_nodelay(true);
    let mut write_half = match stream.try_clone() {
        Ok(s) => s,
        Err(_) => return,
    };
    let mut reader = BufReader::new(stream);
    loop {
        let request = match read_request(&mut reader, shared.cfg.max_body_bytes) {
            Ok(r) => r,
            Err(HttpError::ConnectionClosed) => return,
            Err(HttpError::Bad(m)) => {
                let _ = Response::error(400, &m).write_to(&mut write_half, false);
                record_response(400);
                return;
            }
            Err(HttpError::BodyTooLarge(n)) => {
                let _ = Response::error(413, &format!("body of {n} bytes exceeds limit"))
                    .write_to(&mut write_half, false);
                record_response(413);
                return;
            }
            Err(HttpError::Io(_)) => return,
        };
        // The trace honors a parseable `x-trace-id` header and starts
        // at the request line; everything read so far is `accept`.
        let trace = RequestTrace::begin(request.header("x-trace-id"), request.read_started);
        trace.record(Stage::Accept, request.read_started.elapsed());

        let keep_alive = request.keep_alive && !shared.shutdown.load(Ordering::SeqCst);
        let (endpoint, response) = route(&request, shared, &trace);
        obs::counter_labeled("serve.http.requests", Some(endpoint)).inc();
        let response = response.with_header("x-trace-id", &trace.id_hex());
        record_response(response.status);
        obs::histogram("serve.request.seconds").observe_traced(
            request.read_started.elapsed().as_secs_f64(),
            Some(trace.id()),
        );
        let write_ok = response.write_to(&mut write_half, keep_alive).is_ok();
        trace.finish(response.status, shared.cfg.slow_request);
        if !write_ok || !keep_alive {
            return;
        }
    }
}

fn record_response(status: u16) {
    obs::counter_labeled("serve.http.responses", Some(&status.to_string())).inc();
}

/// The `endpoint` label of every request that matches no route (each
/// 404 and 405), so no request line can add a `serve.http.requests`
/// series.
pub(crate) const OTHER: &str = "other";

/// Answers `request` and names the route pattern it matched: the
/// `endpoint` label of `serve.http.requests`.
fn route(
    request: &Request,
    shared: &Arc<Shared>,
    trace: &RequestTrace,
) -> (&'static str, Response) {
    if let Some(routed) = crate::session_api::route(request, shared, trace) {
        return routed;
    }
    match (request.method.as_str(), request.path.as_str()) {
        ("GET", "/healthz") => ("GET /healthz", healthz(shared)),
        ("GET", "/metrics") => ("GET /metrics", metrics(request)),
        ("GET", "/v1/traces") => ("GET /v1/traces", traces(request)),
        ("POST", "/v1/predict") => ("POST /v1/predict", predict(request, shared, trace)),
        ("POST", "/v1/model/reload") => ("POST /v1/model/reload", reload(request, shared)),
        ("POST", "/admin/shutdown") => {
            shared.shutdown.store(true, Ordering::SeqCst);
            (
                "POST /admin/shutdown",
                Response::json(200, "{\"draining\":true}"),
            )
        }
        ("GET" | "POST", _) => (OTHER, Response::error(404, "unknown path")),
        _ => (OTHER, Response::error(405, "method not allowed")),
    }
}

/// `GET /metrics`: the obs registry — JSON `RunReport` by default,
/// Prometheus text exposition with `?format=prometheus`.
fn metrics(request: &Request) -> Response {
    match request.query_param("format") {
        Some("prometheus") => Response::text(200, obs::prometheus::render_current()),
        Some(other) if other != "json" => {
            Response::error(400, &format!("unknown metrics format `{other}`"))
        }
        _ => Response::json(200, obs::RunReport::capture().to_json()),
    }
}

/// `GET /v1/traces?n=K&min_ms=X`: the most recent completed predict
/// traces, newest first.
fn traces(request: &Request) -> Response {
    let ring = obs::trace::ring();
    let n = request
        .query_param("n")
        .and_then(|v| v.parse::<usize>().ok())
        .unwrap_or(32)
        .min(ring.capacity());
    let min_ms = request
        .query_param("min_ms")
        .and_then(|v| v.parse::<f64>().ok())
        .unwrap_or(0.0);
    let rows = ring.snapshot();
    let mut body = String::with_capacity(256 * n.min(rows.len()) + 64);
    body.push_str("{\"capacity\":");
    body.push_str(&ring.capacity().to_string());
    body.push_str(",\"recorded\":");
    body.push_str(&ring.recorded().to_string());
    body.push_str(",\"traces\":[");
    // snapshot() is oldest-first; serve the newest n above the cutoff.
    for (i, rec) in rows
        .iter()
        .rev()
        .filter(|r| r.total_s * 1e3 >= min_ms)
        .take(n)
        .enumerate()
    {
        if i > 0 {
            body.push(',');
        }
        rec.push_json(&mut body);
    }
    body.push_str("]}");
    Response::json(200, body)
}

fn healthz(shared: &Arc<Shared>) -> Response {
    let model = shared.slot.current();
    let mut body = String::with_capacity(256);
    body.push_str("{\"status\":\"ok\",\"model\":{\"generation\":");
    body.push_str(&model.generation.to_string());
    body.push_str(",\"source\":");
    obs::json::push_string(&mut body, &model.source);
    body.push_str(",\"weights\":");
    body.push_str(&model.estimator.weight_count().to_string());
    body.push_str(",\"activated_unix_ms\":");
    body.push_str(&model.activated_unix_ms.to_string());
    body.push_str("},\"queue_depth\":");
    body.push_str(&shared.queue.depth().to_string());
    body.push_str(",\"uptime_s\":");
    obs::json::push_f64(&mut body, shared.started.elapsed().as_secs_f64());
    body.push('}');
    Response::json(200, body)
}

fn reload(request: &Request, shared: &Arc<Shared>) -> Response {
    let body = match request.body_utf8() {
        Ok(b) => b,
        Err(_) => return Response::error(400, "body is not valid UTF-8"),
    };
    let parsed = match json::parse(body) {
        Ok(v) => v,
        Err(e) => return Response::error(400, &e.to_string()),
    };
    let Some(path) = parsed.get("path").and_then(Json::as_str) else {
        return Response::error(400, "missing string field `path`");
    };
    match shared.slot.reload_from(path) {
        Ok(model) => {
            // New weights invalidate every cached ECO prediction. The
            // generation is part of the cache key, so this is about
            // reclaiming bytes dead to the old generation, not
            // correctness — but both properties are load-bearing.
            shared.sessions.invalidate_prediction_cache();
            let mut out = String::from("{\"reloaded\":true,\"generation\":");
            out.push_str(&model.generation.to_string());
            out.push_str(",\"source\":");
            obs::json::push_string(&mut out, &model.source);
            out.push('}');
            Response::json(200, out)
        }
        Err(e @ ReloadError::Load(_)) => Response::error(400, &e.to_string()),
        Err(e @ ReloadError::Canary(_)) => Response::error(400, &e.to_string()),
    }
}

/// Parses the predict request body into nets + contexts.
fn parse_predict_body(
    body: &Json,
    cfg: &ServeConfig,
) -> Result<(Vec<RcNet>, Vec<NetContext>), String> {
    let nets: Vec<RcNet> = match (body.get("spef"), body.get("netgen")) {
        (Some(spef), None) => {
            let text = spef.as_str().ok_or("field `spef` must be a string")?;
            let doc = rcnet::spef::parse(text).map_err(|e| e.to_string())?;
            if doc.nets.is_empty() {
                return Err("SPEF document contains no nets".into());
            }
            doc.nets
        }
        (None, Some(spec)) => {
            let seed = spec.get("seed").and_then(Json::as_u64).unwrap_or(1);
            let count = spec.get("count").and_then(Json::as_u64).unwrap_or(1) as usize;
            if count == 0 {
                return Err("netgen `count` must be at least 1".into());
            }
            let nontree = spec.get("nontree").and_then(Json::as_bool).unwrap_or(false);
            let mut net_cfg = NetConfig::default();
            if let Some(v) = spec.get("nodes_min").and_then(Json::as_u64) {
                net_cfg.nodes_min = (v as usize).max(2);
            }
            if let Some(v) = spec.get("nodes_max").and_then(Json::as_u64) {
                net_cfg.nodes_max = (v as usize).max(net_cfg.nodes_min);
            }
            if count > cfg.max_nets_per_request {
                return Err(format!(
                    "netgen `count` {count} exceeds per-request limit {}",
                    cfg.max_nets_per_request
                ));
            }
            let mut g = NetGenerator::new(seed, net_cfg);
            (0..count)
                .map(|i| g.net(format!("gen{seed}_{i}"), nontree))
                .collect()
        }
        (Some(_), Some(_)) => return Err("supply either `spef` or `netgen`, not both".into()),
        (None, None) => return Err("missing `spef` or `netgen` field".into()),
    };
    if nets.len() > cfg.max_nets_per_request {
        return Err(format!(
            "{} nets exceeds per-request limit {}",
            nets.len(),
            cfg.max_nets_per_request
        ));
    }
    let input_slew = body
        .get("input_slew_ps")
        .and_then(Json::as_f64)
        .filter(|v| v.is_finite() && *v > 0.0 && *v < 1e6);
    let drive_strength = body
        .get("drive_strength")
        .and_then(Json::as_f64)
        .filter(|v| v.is_finite() && *v > 0.0 && *v < 1e6);
    let ctxs = nets
        .iter()
        .map(|net| {
            let mut ctx = NetContext::generic(net);
            if let Some(s) = input_slew {
                ctx.input_slew = Seconds::from_ps(s);
            }
            if let Some(d) = drive_strength {
                ctx.drive_strength = d;
            }
            ctx
        })
        .collect();
    Ok((nets, ctxs))
}

fn predict(request: &Request, shared: &Arc<Shared>, trace: &RequestTrace) -> Response {
    let started = Instant::now();
    trace.mark_pipeline();
    let body = match request.body_utf8() {
        Ok(b) => b,
        Err(_) => return Response::error(400, "body is not valid UTF-8"),
    };
    let parsed = match json::parse(body) {
        Ok(v) => v,
        Err(e) => {
            trace.record(Stage::Parse, started.elapsed());
            return Response::error(400, &e.to_string());
        }
    };
    let (nets, ctxs) = match parse_predict_body(&parsed, &shared.cfg) {
        Ok(v) => v,
        Err(m) => {
            trace.record(Stage::Parse, started.elapsed());
            return Response::error(400, &m);
        }
    };
    trace.record(Stage::Parse, started.elapsed());
    trace.set_nets(nets.len());
    // Per-request deadlines may only tighten the server default.
    let deadline_ms = parsed
        .get("deadline_ms")
        .and_then(Json::as_u64)
        .map(|ms| Duration::from_millis(ms.max(1)))
        .filter(|d| *d < shared.cfg.deadline)
        .unwrap_or(shared.cfg.deadline);
    let deadline = started + deadline_ms;

    let (tx, rx) = mpsc::channel();
    let job = PredictJob {
        nets,
        ctxs,
        reply: tx,
        deadline,
        trace: trace.clone(),
    };
    // Marked before the push: a worker may pop (and close queue_wait)
    // before try_push even returns.
    trace.mark_enqueued();
    if let Err((why, _job)) = shared.queue.try_push(job) {
        return match why {
            PushError::Full => {
                obs::counter("serve.queue.rejected_full").inc();
                Response::error(503, "request queue is full")
                    .with_header("Retry-After", "1")
            }
            PushError::Closed => {
                Response::error(503, "server is draining").with_header("Retry-After", "5")
            }
        };
    }

    // Wait slightly past the deadline so the worker's own Expired
    // verdict (sent at pop time) wins the race when possible.
    let wait = deadline
        .saturating_duration_since(Instant::now())
        .saturating_add(Duration::from_millis(50));
    let outcome = rx.recv_timeout(wait);
    obs::histogram("serve.predict.seconds").observe(started.elapsed().as_secs_f64());
    match outcome {
        Ok(Ok(json_body)) => Response::json(200, json_body),
        Ok(Err(JobError::Expired)) => {
            Response::error(504, "deadline expired before a worker picked the request up")
        }
        Ok(Err(JobError::Predict(m))) => Response::error(500, &m),
        Err(_) => {
            obs::counter("serve.predict.deadline_expired").inc();
            Response::error(504, "deadline expired")
        }
    }
}

/// Renders one job's predictions as the response body.
fn render_predictions(
    model: &LoadedModel,
    nets: &[RcNet],
    per_net: &[Vec<PathEstimate>],
) -> String {
    let mut out = String::with_capacity(256 * nets.len());
    out.push_str("{\"model_generation\":");
    out.push_str(&model.generation.to_string());
    out.push_str(",\"nets\":[");
    for (i, (net, estimates)) in nets.iter().zip(per_net).enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str("{\"net\":");
        obs::json::push_string(&mut out, net.name());
        out.push_str(",\"paths\":[");
        for (j, p) in estimates.iter().enumerate() {
            if j > 0 {
                out.push(',');
            }
            out.push_str("{\"sink\":");
            obs::json::push_string(&mut out, &net.node(p.sink).name);
            out.push_str(",\"slew_ps\":");
            obs::json::push_f64(&mut out, p.slew.pico_seconds());
            out.push_str(",\"delay_ps\":");
            obs::json::push_f64(&mut out, p.delay.pico_seconds());
            out.push('}');
        }
        out.push_str("]}");
    }
    out.push_str("]}");
    out
}

/// Predicts one job's nets, returning the rendered body.
fn predict_job(model: &LoadedModel, nets: &[RcNet], ctxs: &[NetContext]) -> Result<String, JobError> {
    let pairs = nets.iter().zip(ctxs.iter());
    match model.estimator.predict_many(pairs) {
        Ok(per_net) => Ok(render_predictions(model, nets, &per_net)),
        Err(e) => Err(JobError::Predict(e.to_string())),
    }
}

fn worker_loop(shared: &Arc<Shared>) {
    let batch_jobs = obs::histogram_with("serve.predict.batch_jobs", None, || {
        vec![1.0, 2.0, 4.0, 8.0, 16.0, 32.0, 64.0]
    });
    let batch_nets = obs::histogram_with("serve.predict.batch_nets", None, || {
        vec![1.0, 2.0, 4.0, 8.0, 16.0, 32.0, 64.0, 128.0, 256.0, 512.0]
    });
    let expired = obs::counter("serve.predict.deadline_expired");
    let nets_served = obs::counter("serve.predict.nets");
    let paths_served = obs::counter("serve.predict.paths");

    while let Some(batch) = shared.queue.pop_batch(shared.cfg.batch_max) {
        let _span = obs::span("serve_batch");
        // Every popped job — live or expired — closes its queue_wait.
        for job in &batch {
            job.trace.mark_popped();
        }
        // One Arc clone per batch: every job in it sees one model
        // generation, and a concurrent hot-reload cannot disturb it.
        let model = shared.slot.current();
        let now = Instant::now();
        let (live, dead): (Vec<_>, Vec<_>) =
            batch.into_iter().partition(|j| j.deadline > now);
        for job in dead {
            expired.inc();
            let _ = job.reply.send(Err(JobError::Expired));
        }
        if live.is_empty() {
            continue;
        }
        batch_jobs.observe(live.len() as f64);
        batch_nets.observe(live.iter().map(|j| j.nets.len()).sum::<usize>() as f64);

        // Coalesce every live job's nets into one predict_many call;
        // fall back to per-job prediction when the batch fails so one
        // poisoned net cannot fail its neighbours' requests.
        let pairs: Vec<(&RcNet, &NetContext)> = live
            .iter()
            .flat_map(|j| j.nets.iter().zip(j.ctxs.iter()))
            .collect();
        for job in &live {
            job.trace.mark_inference_start();
        }
        // The wall time is attributed to every co-batched job (each
        // waited that long).
        let t0 = Instant::now();
        let coalesced = model.estimator.predict_many(pairs);
        let spent = t0.elapsed();
        match coalesced {
            Ok(all) => {
                let mut offset = 0usize;
                for job in &live {
                    job.trace.record_inference(spent);
                    let per_net = &all[offset..offset + job.nets.len()];
                    offset += job.nets.len();
                    nets_served.add(job.nets.len() as u64);
                    paths_served.add(per_net.iter().map(Vec::len).sum::<usize>() as u64);
                    let body = render_predictions(&model, &job.nets, per_net);
                    let _ = job.reply.send(Ok(body));
                }
            }
            Err(_) => {
                // Re-predict each job separately so one poisoned net
                // cannot fail its neighbours' requests. The loop over
                // jobs stays serial so every reply goes out the moment
                // its own prediction finishes — one slow job must not
                // sit on its neighbours' responses (or push them past
                // their deadlines). Each job still fans out per net on
                // the par pool inside `predict_many`.
                for job in &live {
                    let t0 = Instant::now();
                    let outcome = predict_job(&model, &job.nets, &job.ctxs);
                    job.trace.record_inference(t0.elapsed());
                    if outcome.is_ok() {
                        nets_served.add(job.nets.len() as u64);
                    }
                    let _ = job.reply.send(outcome);
                }
            }
        }
    }
}
