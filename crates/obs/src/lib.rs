//! Zero-dependency observability for the wire-timing workspace.
//!
//! Four pieces, all std-only (the build environment is offline):
//!
//! * **Spans** — RAII wall-clock timers with per-thread nesting.
//!   [`span("epoch")`](fn@span) inside a `train` span aggregates under the
//!   dotted path `train.epoch`, tracking count, total and *self* time.
//!   [`RunReport::capture()`] snapshots the span tree and the metrics
//!   registry into a single JSON document; experiment binaries expose
//!   it via `--obs-json <path>`.
//! * **Metrics** — a global registry of [`Counter`]s, [`Gauge`]s and
//!   fixed-bucket [`Histogram`]s (p50/p95/p99 readout), addressed by
//!   `crate.module.op` names plus an optional label, and rendered as
//!   Prometheus text by [`prometheus::render_current`].
//! * **Events** — leveled structured lines on stderr via the [`event!`]
//!   macro, filtered by `OBS_LEVEL` (off/error/warn/info/debug/trace;
//!   default warn). The disabled path is one relaxed atomic load: no
//!   locks, no allocation.
//! * **Request traces** — a [`TraceId`] per served request, its
//!   per-stage times frozen into a [`TraceRecord`], a lock-light ring of
//!   completed records, and histogram exemplars carrying trace ids.
//!
//! ```
//! let _run = obs::span("example");
//! obs::counter("obs.doc.items").add(3);
//! obs::event!(obs::Level::Info, "obs.doc", "processed", items = 3usize);
//! let json = obs::RunReport::capture().to_json();
//! assert!(json.contains("obs.doc.items"));
//! ```

pub mod event;
pub mod json;
pub mod metrics;
pub mod prometheus;
pub mod report;
pub mod span;
pub mod trace;

pub use event::{emit, enabled, set_level, Level, Value};
pub use metrics::{
    counter, counter_labeled, duration_bounds, exponential_bounds, gauge, gauge_labeled, histogram,
    histogram_labeled, histogram_with, Counter, Exemplar, Gauge, Histogram, HistogramInner, Key,
    MetricsSnapshot,
};
pub use report::RunReport;
pub use span::{span, with_span, Span, SpanEntry, SpanStats};
pub use trace::{Stage, TraceId, TraceRecord, TraceRing};
