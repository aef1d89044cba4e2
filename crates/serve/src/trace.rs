//! Per-request trace assembly for the serving pipeline.
//!
//! A [`RequestTrace`] is created when a request's HTTP head has been
//! read, travels with the job through the bounded queue and worker
//! pool (it is a cheap `Arc` clone), accumulates per-stage durations
//! from whichever thread is doing the work, and is finished on the
//! connection thread after the response bytes hit the socket. Finished
//! predict traces are frozen into [`obs::TraceRecord`]s, pushed into
//! the global trace ring (`GET /v1/traces`), and mirrored into the
//! `serve.stage_seconds{stage=...}` histograms with the trace id as a
//! tail exemplar.
//!
//! Stage semantics (see `obs::trace::Stage`):
//!
//! * `accept` — reading the HTTP head and body off the socket, from
//!   the moment the request line arrived (keep-alive idle time is
//!   excluded) until routing starts.
//! * `parse` — JSON body parse + SPEF parse / net generation.
//! * `queue_wait` — enqueue into the bounded queue until a worker pops
//!   the micro-batch.
//! * `batch_wait` — popped until the batch enters `predict_many`
//!   (dead-job partitioning, model acquisition, head-of-line
//!   neighbours on the fallback path).
//! * `inference` — inside `predict_many`. Co-batched jobs share one
//!   call; its full duration is attributed to every job in the batch,
//!   because each job's request did wall-clock wait that long.
//! * `respond` — everything after inference: rendering, the reply
//!   channel, the socket write, plus any unattributed scheduling gaps
//!   (computed as `total - other stages`, clamped at zero, so the
//!   stage sum always reconstructs the request wall time).
//!
//! All mutation is on relaxed atomics (nanosecond integers): the
//! connection thread and a worker can legitimately race — e.g. a
//! request that times out with 504 while its job is still queued — and
//! late writes after [`RequestTrace::finish`] are harmless.

use obs::trace::{Stage, STAGE_COUNT};
use obs::{TraceId, TraceRecord};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant, SystemTime, UNIX_EPOCH};

struct Inner {
    id: TraceId,
    started: Instant,
    started_unix_ms: u64,
    /// Per-stage accumulated nanoseconds, indexed by `Stage::index`.
    stages: [AtomicU64; STAGE_COUNT],
    /// Offsets since `started` in nanoseconds; 0 = not reached yet
    /// (a real offset is never 0: marking takes nonzero time).
    enqueued_ns: AtomicU64,
    popped_ns: AtomicU64,
    inference_started: AtomicBool,
    nets: AtomicU64,
    /// Set for predict requests: only they are recorded into the ring
    /// and stage histograms; other endpoints still echo `x-trace-id`.
    pipeline: AtomicBool,
}

/// A shareable handle to one request's in-flight trace.
#[derive(Clone)]
pub struct RequestTrace {
    inner: Arc<Inner>,
}

impl RequestTrace {
    /// Starts a trace for a request whose first line arrived at
    /// `started`. A parseable `x-trace-id` header value is honored
    /// (so callers and upstream proxies can correlate); anything else
    /// gets a fresh random id.
    pub fn begin(header: Option<&str>, started: Instant) -> RequestTrace {
        let id = header
            .and_then(TraceId::parse)
            .unwrap_or_else(TraceId::generate);
        RequestTrace {
            inner: Arc::new(Inner {
                id,
                started,
                started_unix_ms: SystemTime::now()
                    .duration_since(UNIX_EPOCH)
                    .map(|d| d.as_millis() as u64)
                    .unwrap_or(0),
                stages: Default::default(),
                enqueued_ns: AtomicU64::new(0),
                popped_ns: AtomicU64::new(0),
                inference_started: AtomicBool::new(false),
                nets: AtomicU64::new(0),
                pipeline: AtomicBool::new(false),
            }),
        }
    }

    /// The request's trace id (the exemplar on its histograms).
    pub fn id(&self) -> TraceId {
        self.inner.id
    }

    /// The trace id as 32 hex digits (the `x-trace-id` echo value).
    pub fn id_hex(&self) -> String {
        self.inner.id.to_hex()
    }

    fn offset_ns(&self) -> u64 {
        (self.inner.started.elapsed().as_nanos() as u64).max(1)
    }

    /// Adds `d` to `stage`.
    pub fn record(&self, stage: Stage, d: Duration) {
        self.inner.stages[stage.index()].fetch_add(d.as_nanos() as u64, Ordering::Relaxed);
    }

    /// Marks this as a predict-pipeline request (recorded on finish).
    pub fn mark_pipeline(&self) {
        self.inner.pipeline.store(true, Ordering::Relaxed);
    }

    /// Records how many nets the request carries.
    pub fn set_nets(&self, n: usize) {
        self.inner.nets.store(n as u64, Ordering::Relaxed);
    }

    /// The job is about to enter the bounded queue. Called *before*
    /// the push so a worker cannot pop the job first and compute
    /// `queue_wait` from an unset mark.
    pub fn mark_enqueued(&self) {
        self.inner.enqueued_ns.store(self.offset_ns(), Ordering::Relaxed);
    }

    /// A worker popped the job: closes `queue_wait`.
    pub fn mark_popped(&self) {
        let now = self.offset_ns();
        let enqueued = self.inner.enqueued_ns.load(Ordering::Relaxed);
        if enqueued != 0 {
            self.inner.stages[Stage::QueueWait.index()]
                .fetch_add(now.saturating_sub(enqueued), Ordering::Relaxed);
        }
        self.inner.popped_ns.store(now, Ordering::Relaxed);
    }

    /// The job's batch is entering `predict_many`: closes
    /// `batch_wait`. Idempotent — the fallback path re-enters
    /// inference per job, but only the first entry defines the wait.
    pub fn mark_inference_start(&self) {
        if self.inner.inference_started.swap(true, Ordering::Relaxed) {
            return;
        }
        let now = self.offset_ns();
        let popped = self.inner.popped_ns.load(Ordering::Relaxed);
        if popped != 0 {
            self.inner.stages[Stage::BatchWait.index()]
                .fetch_add(now.saturating_sub(popped), Ordering::Relaxed);
        }
    }

    /// Adds `d` of `predict_many` time (additive: the fallback path
    /// may run inference more than once for a job).
    pub fn record_inference(&self, d: Duration) {
        self.record(Stage::Inference, d);
    }

    /// Freezes the trace after the response was written. `respond` is
    /// computed as the unattributed remainder of the wall time, so the
    /// six stages always sum to the request's total. Predict traces
    /// are pushed to the global ring, observed into the per-stage
    /// histograms (trace id attached as a tail exemplar), and — above
    /// `slow` — reported via a structured warn event. Recording is
    /// skipped entirely when `OBS_TRACE` disables tracing.
    pub fn finish(&self, status: u16, slow: Duration) -> TraceRecord {
        let total_ns = self.offset_ns();
        let mut stages_ns = [0u64; STAGE_COUNT];
        for (slot, stage) in stages_ns.iter_mut().zip(&self.inner.stages) {
            *slot = stage.load(Ordering::Relaxed);
        }
        let attributed: u64 = stages_ns.iter().sum();
        stages_ns[Stage::Respond.index()] += total_ns.saturating_sub(attributed);
        let mut stages = [0f64; STAGE_COUNT];
        for (s, ns) in stages.iter_mut().zip(stages_ns) {
            *s = ns as f64 / 1e9;
        }
        let record = TraceRecord {
            trace_id: self.inner.id,
            started_unix_ms: self.inner.started_unix_ms,
            total_s: total_ns as f64 / 1e9,
            status,
            nets: self.inner.nets.load(Ordering::Relaxed) as u32,
            stages,
        };
        let pipeline = self.inner.pipeline.load(Ordering::Relaxed);
        if pipeline && obs::trace::tracing_enabled() {
            obs::counter("serve.trace.requests").inc();
            for stage in Stage::ALL {
                obs::histogram_labeled("serve.stage_seconds", Some(stage.name()))
                    .observe_traced(record.stage(stage), Some(record.trace_id));
            }
            obs::trace::ring().push(record.clone());
            if record.total_s >= slow.as_secs_f64() {
                obs::counter("serve.trace.slow").inc();
                obs::event!(
                    obs::Level::Warn,
                    "serve.trace",
                    "slow request",
                    trace_id = record.trace_id.to_hex(),
                    status = u64::from(status),
                    nets = self.inner.nets.load(Ordering::Relaxed),
                    total_ms = record.total_s * 1e3,
                    queue_wait_ms = record.stage(Stage::QueueWait) * 1e3,
                    batch_wait_ms = record.stage(Stage::BatchWait) * 1e3,
                    inference_ms = record.stage(Stage::Inference) * 1e3,
                );
            }
        }
        record
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    // The tracing toggle and the ring are process-global; serialize
    // the tests that touch them.
    fn lock() -> std::sync::MutexGuard<'static, ()> {
        static GUARD: std::sync::Mutex<()> = std::sync::Mutex::new(());
        GUARD.lock().unwrap_or_else(|e| e.into_inner())
    }

    #[test]
    fn honors_parseable_header_and_generates_otherwise() {
        let t = RequestTrace::begin(Some("deadbeef"), Instant::now());
        assert_eq!(t.id_hex(), format!("{:032x}", 0xdead_beefu64));
        let bad = RequestTrace::begin(Some("not hex!"), Instant::now());
        assert_ne!(bad.id_hex(), t.id_hex());
        assert_eq!(bad.id_hex().len(), 32);
        let none = RequestTrace::begin(None, Instant::now());
        assert_ne!(none.id_hex(), bad.id_hex());
    }

    #[test]
    fn stages_sum_to_total_and_queue_marks_work() {
        let _g = lock();
        obs::trace::set_tracing(true);
        let t = RequestTrace::begin(None, Instant::now());
        t.mark_pipeline();
        t.set_nets(3);
        t.record(Stage::Accept, Duration::from_millis(1));
        t.record(Stage::Parse, Duration::from_millis(2));
        t.mark_enqueued();
        std::thread::sleep(Duration::from_millis(5));
        t.mark_popped();
        std::thread::sleep(Duration::from_millis(2));
        t.mark_inference_start();
        // A second start must not extend batch_wait.
        t.mark_inference_start();
        t.record_inference(Duration::from_millis(4));
        let record = t.finish(200, Duration::from_secs(1));
        assert_eq!(record.status, 200);
        assert_eq!(record.nets, 3);
        assert!(record.stage(Stage::QueueWait) >= 0.004);
        assert!(record.stage(Stage::BatchWait) >= 0.001);
        assert!(record.stage(Stage::BatchWait) < 0.1);
        assert_eq!(record.stage(Stage::Inference), 0.004);
        // Respond absorbs the remainder, so the sum reconstructs the
        // total — except that this test *injects* 7 ms of synthetic
        // stage time that took no wall clock, which the respond clamp
        // cannot subtract back out. The sum may exceed the total by at
        // most that injected amount, and never undershoots.
        let sum = record.stage_sum();
        let injected = 0.001 + 0.002 + 0.004;
        assert!(sum + 1e-9 >= record.total_s, "sum {sum} < total {}", record.total_s);
        assert!(
            sum - record.total_s <= injected + 1e-9,
            "sum {sum} vs total {}",
            record.total_s
        );
    }

    #[test]
    fn stage_sum_is_exact_without_synthetic_time() {
        let _g = lock();
        obs::trace::set_tracing(true);
        let t = RequestTrace::begin(None, Instant::now());
        t.mark_pipeline();
        t.mark_enqueued();
        std::thread::sleep(Duration::from_millis(3));
        t.mark_popped();
        t.mark_inference_start();
        std::thread::sleep(Duration::from_millis(1));
        let record = t.finish(200, Duration::from_secs(1));
        let sum = record.stage_sum();
        assert!(
            (sum - record.total_s).abs() <= 1e-9,
            "sum {sum} vs total {}",
            record.total_s
        );
        assert!(record.stage(Stage::QueueWait) >= 0.002);
        assert!(record.stage(Stage::Respond) >= 0.0005);
    }

    #[test]
    fn non_pipeline_traces_stay_out_of_the_ring() {
        let _g = lock();
        obs::trace::set_tracing(true);
        let before = obs::trace::ring().recorded();
        let t = RequestTrace::begin(None, Instant::now());
        t.finish(200, Duration::from_secs(1));
        assert_eq!(obs::trace::ring().recorded(), before);
    }

    #[test]
    fn disabled_tracing_skips_recording() {
        let _g = lock();
        obs::trace::set_tracing(false);
        let before = obs::trace::ring().recorded();
        let t = RequestTrace::begin(None, Instant::now());
        t.mark_pipeline();
        t.finish(200, Duration::from_secs(1));
        assert_eq!(obs::trace::ring().recorded(), before);
        obs::trace::set_tracing(true);
    }
}
