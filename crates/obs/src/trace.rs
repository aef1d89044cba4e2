//! Request traces: trace identifiers, the tracing toggle, and a
//! lock-light ring buffer of completed request traces.
//!
//! The serving pipeline (crates/serve) generates one [`TraceId`] per
//! request — or honors an `x-trace-id` header — and carries it in its
//! per-request trace through the bounded queue and the worker pool.
//! When the request completes, its per-stage latency breakdown is
//! frozen into a [`TraceRecord`] and pushed into the global
//! [`TraceRing`], where `GET /v1/traces` and the `obs-trace` analyzer
//! can read it back.
//!
//! Design notes:
//!
//! * **Ids** are random 128-bit values from a per-thread splitmix64
//!   generator — no external RNG crate, no coordination between
//!   threads after seeding.
//! * **The ring is lock-light**: one `Mutex<Option<_>>` per slot plus
//!   an atomic sequence counter. Writers contend only when two pushes
//!   land `capacity` apart simultaneously; a snapshot locks each slot
//!   for a clone, never the whole ring. Eviction is oldest-first by
//!   construction (slot index = sequence mod capacity).
//! * **Tracing can be disabled** (`OBS_TRACE=off` or
//!   [`set_tracing`]) for overhead experiments; id generation and
//!   header echo stay on, only recording stops.

use crate::json;
use std::cell::Cell;
use std::fmt;
use std::sync::atomic::{AtomicU64, AtomicU8, Ordering};
use std::sync::{Mutex, OnceLock};
use std::time::{SystemTime, UNIX_EPOCH};

// ---------------------------------------------------------------------------
// Identifiers
// ---------------------------------------------------------------------------

/// A 128-bit trace identifier (non-zero), rendered as 32 hex digits.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct TraceId(pub u128);

fn splitmix64(state: &mut u64) {
    *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
}

fn mix64(mut z: u64) -> u64 {
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Global entropy pump: every thread folds one draw from this counter
/// into its seed, so two threads spawned in the same nanosecond still
/// diverge.
static SEED_COUNTER: AtomicU64 = AtomicU64::new(0x243f_6a88_85a3_08d3);

fn thread_seed() -> u64 {
    let nanos = SystemTime::now()
        .duration_since(UNIX_EPOCH)
        .map(|d| d.subsec_nanos() as u64 ^ d.as_secs())
        .unwrap_or(0);
    let unique = SEED_COUNTER.fetch_add(0x9e37_79b9, Ordering::Relaxed);
    let local = 0u8;
    let addr = &local as *const u8 as u64;
    mix64(nanos ^ unique.rotate_left(17) ^ addr ^ std::process::id() as u64)
}

thread_local! {
    static RNG: Cell<u64> = Cell::new(thread_seed());
}

fn next_random() -> u64 {
    RNG.with(|cell| {
        let mut s = cell.get();
        splitmix64(&mut s);
        cell.set(s);
        mix64(s)
    })
}

impl TraceId {
    /// A fresh random id (never zero).
    pub fn generate() -> TraceId {
        let v = ((next_random() as u128) << 64) | next_random() as u128;
        TraceId(if v == 0 { 1 } else { v })
    }

    /// Parses up to 32 hex digits (as produced by [`TraceId::to_hex`]
    /// or sent in an `x-trace-id` header). Zero and malformed input
    /// return `None`.
    pub fn parse(s: &str) -> Option<TraceId> {
        let s = s.trim();
        if s.is_empty() || s.len() > 32 {
            return None;
        }
        let mut v: u128 = 0;
        for c in s.chars() {
            v = (v << 4) | c.to_digit(16)? as u128;
        }
        if v == 0 {
            None
        } else {
            Some(TraceId(v))
        }
    }

    /// 32 lowercase hex digits.
    pub fn to_hex(self) -> String {
        format!("{:032x}", self.0)
    }
}

impl fmt::Display for TraceId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:032x}", self.0)
    }
}

// ---------------------------------------------------------------------------
// Enable/disable
// ---------------------------------------------------------------------------

const TRACE_UNSET: u8 = u8::MAX;
const TRACE_ON: u8 = 1;
const TRACE_OFF: u8 = 0;
static TRACING: AtomicU8 = AtomicU8::new(TRACE_UNSET);

#[cold]
fn init_tracing_from_env() -> bool {
    let on = match std::env::var("OBS_TRACE") {
        Ok(v) => !matches!(
            v.trim().to_ascii_lowercase().as_str(),
            "off" | "0" | "false" | "no"
        ),
        Err(_) => true,
    };
    TRACING.store(if on { TRACE_ON } else { TRACE_OFF }, Ordering::Relaxed);
    on
}

/// Whether trace *recording* is enabled (`OBS_TRACE`, default on).
/// Id generation and header propagation are always on — disabling
/// tracing only stops ring/metric recording, which is what the
/// overhead experiment toggles.
#[inline]
pub fn tracing_enabled() -> bool {
    match TRACING.load(Ordering::Relaxed) {
        TRACE_UNSET => init_tracing_from_env(),
        v => v == TRACE_ON,
    }
}

/// Overrides the tracing toggle programmatically (wins over the
/// `OBS_TRACE` environment variable).
pub fn set_tracing(on: bool) {
    TRACING.store(if on { TRACE_ON } else { TRACE_OFF }, Ordering::Relaxed);
}

// ---------------------------------------------------------------------------
// Pipeline stages and completed records
// ---------------------------------------------------------------------------

/// The canonical serving-pipeline stages, in request order. The serve
/// crate records one duration per stage; the analyzer and the
/// `serve.stage_seconds{stage=...}` histograms share this taxonomy.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[repr(usize)]
pub enum Stage {
    /// Reading + parsing the HTTP request off the socket.
    Accept = 0,
    /// JSON body parse, SPEF parse / net generation, validation.
    Parse = 1,
    /// Enqueued, waiting for a worker to pop the micro-batch.
    QueueWait = 2,
    /// Popped, waiting for the batch to reach the model (dead-job
    /// partitioning, model acquisition, head-of-line neighbours).
    BatchWait = 3,
    /// Inside `predict_many` (the whole co-batched call).
    Inference = 4,
    /// ECO sessions: mapping an edit to the dirty nets + downstream cone.
    DirtySet = 5,
    /// ECO sessions: prediction-cache probes for the dirty nets.
    CacheLookup = 6,
    /// ECO sessions: model predictions for cache misses.
    Predict = 7,
    /// ECO sessions: incremental arrival-time propagation over the cone.
    Propagate = 8,
    /// Rendering, the reply channel, and the socket write. Kept last:
    /// serve computes it as the clamped remainder of the wall clock, so
    /// every other stage must precede it.
    Respond = 9,
}

/// Number of pipeline stages.
pub const STAGE_COUNT: usize = 10;

impl Stage {
    /// All stages in pipeline order.
    pub const ALL: [Stage; STAGE_COUNT] = [
        Stage::Accept,
        Stage::Parse,
        Stage::QueueWait,
        Stage::BatchWait,
        Stage::Inference,
        Stage::DirtySet,
        Stage::CacheLookup,
        Stage::Predict,
        Stage::Propagate,
        Stage::Respond,
    ];

    /// Stable snake_case name (used as the `stage` label and in JSON).
    pub fn name(self) -> &'static str {
        match self {
            Stage::Accept => "accept",
            Stage::Parse => "parse",
            Stage::QueueWait => "queue_wait",
            Stage::BatchWait => "batch_wait",
            Stage::Inference => "inference",
            Stage::DirtySet => "dirty_set",
            Stage::CacheLookup => "cache_lookup",
            Stage::Predict => "predict",
            Stage::Propagate => "propagate",
            Stage::Respond => "respond",
        }
    }

    /// Index into a per-stage array.
    pub fn index(self) -> usize {
        self as usize
    }

    /// The stage with `name`, if any.
    pub fn from_name(name: &str) -> Option<Stage> {
        Stage::ALL.into_iter().find(|s| s.name() == name)
    }
}

/// One completed request trace: identity, outcome, and the per-stage
/// wall-clock breakdown in seconds.
#[derive(Debug, Clone, PartialEq)]
pub struct TraceRecord {
    /// The request's trace id.
    pub trace_id: TraceId,
    /// Milliseconds since the Unix epoch when the request arrived.
    pub started_unix_ms: u64,
    /// Total wall time from request read to response written, seconds.
    pub total_s: f64,
    /// HTTP status of the response.
    pub status: u16,
    /// Nets carried by the request (0 for non-predict requests).
    pub nets: u32,
    /// Seconds spent in each [`Stage`], indexed by [`Stage::index`].
    pub stages: [f64; STAGE_COUNT],
}

impl TraceRecord {
    /// Seconds spent in `stage`.
    pub fn stage(&self, stage: Stage) -> f64 {
        self.stages[stage.index()]
    }

    /// Sum of all stage durations (should track `total_s` closely;
    /// the integration tests pin the gap under 5%).
    pub fn stage_sum(&self) -> f64 {
        self.stages.iter().sum()
    }

    /// Appends the record as one JSON object: durations in
    /// milliseconds, stages keyed by [`Stage::name`]. This is the wire
    /// format of `GET /v1/traces` and of trace JSONL dumps.
    pub fn push_json(&self, out: &mut String) {
        out.push_str("{\"trace_id\":");
        json::push_string(out, &self.trace_id.to_hex());
        out.push_str(",\"started_unix_ms\":");
        out.push_str(&self.started_unix_ms.to_string());
        out.push_str(",\"total_ms\":");
        json::push_f64(out, self.total_s * 1e3);
        out.push_str(",\"status\":");
        out.push_str(&self.status.to_string());
        out.push_str(",\"nets\":");
        out.push_str(&self.nets.to_string());
        out.push_str(",\"stages\":{");
        for (i, stage) in Stage::ALL.into_iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            json::push_string(out, stage.name());
            out.push(':');
            json::push_f64(out, self.stage(stage) * 1e3);
        }
        out.push_str("}}");
    }

    /// The record as one JSON line (no trailing newline).
    pub fn to_json(&self) -> String {
        let mut s = String::with_capacity(256);
        self.push_json(&mut s);
        s
    }
}

// ---------------------------------------------------------------------------
// The ring buffer
// ---------------------------------------------------------------------------

type Slot = Mutex<Option<(u64, TraceRecord)>>;

/// A fixed-capacity ring of completed traces with oldest-first
/// eviction. Push cost is one `fetch_add` plus one per-slot lock;
/// concurrent writers touch the same slot only when their sequence
/// numbers collide modulo the capacity.
pub struct TraceRing {
    slots: Box<[Slot]>,
    next: AtomicU64,
}

impl TraceRing {
    /// A ring holding at most `capacity` records (minimum 1).
    pub fn new(capacity: usize) -> TraceRing {
        let capacity = capacity.max(1);
        TraceRing {
            slots: (0..capacity).map(|_| Mutex::new(None)).collect(),
            next: AtomicU64::new(0),
        }
    }

    /// The fixed capacity.
    pub fn capacity(&self) -> usize {
        self.slots.len()
    }

    /// Total records ever pushed (monotonic; `recorded - capacity`
    /// records have been evicted when it exceeds the capacity).
    pub fn recorded(&self) -> u64 {
        self.next.load(Ordering::Relaxed)
    }

    /// Stores `record`, evicting the oldest record once full.
    pub fn push(&self, record: TraceRecord) {
        let seq = self.next.fetch_add(1, Ordering::Relaxed);
        let slot = &self.slots[(seq % self.slots.len() as u64) as usize];
        *slot.lock().expect("trace ring slot poisoned") = Some((seq, record));
    }

    /// Every live record, oldest first.
    pub fn snapshot(&self) -> Vec<TraceRecord> {
        let mut rows: Vec<(u64, TraceRecord)> = self
            .slots
            .iter()
            .filter_map(|slot| slot.lock().expect("trace ring slot poisoned").clone())
            .collect();
        rows.sort_by_key(|(seq, _)| *seq);
        rows.into_iter().map(|(_, rec)| rec).collect()
    }

    /// Clears every slot (test isolation; the sequence counter keeps
    /// advancing so in-flight pushes stay ordered).
    pub fn clear(&self) {
        for slot in self.slots.iter() {
            *slot.lock().expect("trace ring slot poisoned") = None;
        }
    }
}

/// Default capacity of the global ring; override with the
/// `OBS_TRACE_RING_CAPACITY` environment variable.
pub const DEFAULT_RING_CAPACITY: usize = 512;

/// The process-global trace ring, sized once on first use from
/// `OBS_TRACE_RING_CAPACITY` (default [`DEFAULT_RING_CAPACITY`]).
pub fn ring() -> &'static TraceRing {
    static RING: OnceLock<TraceRing> = OnceLock::new();
    RING.get_or_init(|| {
        let capacity = std::env::var("OBS_TRACE_RING_CAPACITY")
            .ok()
            .and_then(|v| v.trim().parse::<usize>().ok())
            .filter(|&n| n >= 1)
            .unwrap_or(DEFAULT_RING_CAPACITY);
        TraceRing::new(capacity)
    })
}

/// Clears the global ring (test isolation).
pub fn reset() {
    ring().clear();
}

#[cfg(test)]
mod tests {
    use super::*;

    fn record(id: u128, total_ms: f64) -> TraceRecord {
        TraceRecord {
            trace_id: TraceId(id),
            started_unix_ms: 1,
            total_s: total_ms / 1e3,
            status: 200,
            nets: 1,
            stages: [0.0; STAGE_COUNT],
        }
    }

    #[test]
    fn trace_ids_are_unique_nonzero_and_round_trip() {
        let a = TraceId::generate();
        let b = TraceId::generate();
        assert_ne!(a, b);
        assert_ne!(a.0, 0);
        let hex = a.to_hex();
        assert_eq!(hex.len(), 32);
        assert_eq!(TraceId::parse(&hex), Some(a));
        assert_eq!(TraceId::parse("0"), None);
        assert_eq!(TraceId::parse(""), None);
        assert_eq!(TraceId::parse("zz"), None);
        assert_eq!(TraceId::parse(&"f".repeat(33)), None);
        assert_eq!(TraceId::parse("deadbeef"), Some(TraceId(0xdead_beef)));
    }

    #[test]
    fn ids_diverge_across_threads() {
        let handles: Vec<_> = (0..4)
            .map(|_| std::thread::spawn(|| (0..64).map(|_| TraceId::generate()).collect::<Vec<_>>()))
            .collect();
        let mut all: Vec<TraceId> = handles
            .into_iter()
            .flat_map(|h| h.join().unwrap())
            .collect();
        let n = all.len();
        all.sort();
        all.dedup();
        assert_eq!(all.len(), n, "duplicate trace ids across threads");
    }

    #[test]
    fn ring_evicts_oldest_first_under_overflow() {
        let ring = TraceRing::new(4);
        assert_eq!(ring.capacity(), 4);
        for i in 1..=6u128 {
            ring.push(record(i, i as f64));
        }
        assert_eq!(ring.recorded(), 6);
        let live = ring.snapshot();
        // 1 and 2 were evicted; 3..=6 survive in push order.
        let ids: Vec<u128> = live.iter().map(|r| r.trace_id.0).collect();
        assert_eq!(ids, vec![3, 4, 5, 6]);
        ring.clear();
        assert!(ring.snapshot().is_empty());
    }

    #[test]
    fn ring_survives_concurrent_pushes() {
        let ring = std::sync::Arc::new(TraceRing::new(32));
        let handles: Vec<_> = (0..4)
            .map(|t| {
                let ring = std::sync::Arc::clone(&ring);
                std::thread::spawn(move || {
                    for i in 0..256u128 {
                        ring.push(record(t as u128 * 1000 + i + 1, 1.0));
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(ring.recorded(), 1024);
        let live = ring.snapshot();
        assert_eq!(live.len(), 32, "ring holds exactly its capacity");
    }

    #[test]
    fn record_json_has_all_stages_in_ms() {
        let mut rec = record(0xabc, 10.0);
        rec.stages[Stage::Inference.index()] = 0.004;
        let json = rec.to_json();
        assert!(json.contains("\"trace_id\":\"00000000000000000000000000000abc\""));
        assert!(json.contains("\"total_ms\":10"));
        for stage in Stage::ALL {
            assert!(json.contains(&format!("\"{}\":", stage.name())), "{json}");
        }
        assert!(json.contains("\"inference\":4"), "{json}");
        assert_eq!(rec.stage_sum(), 0.004);
        assert_eq!(Stage::from_name("queue_wait"), Some(Stage::QueueWait));
        assert_eq!(Stage::from_name("bogus"), None);
    }

    #[test]
    fn tracing_toggle_round_trips() {
        set_tracing(false);
        assert!(!tracing_enabled());
        set_tracing(true);
        assert!(tracing_enabled());
    }
}
