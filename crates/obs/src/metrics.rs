//! Global metrics registry: counters, gauges and fixed-bucket
//! histograms, addressed by static name plus optional label.
//!
//! Handle types ([`Counter`], [`Gauge`], [`Histogram`]) are cheap `Arc`
//! clones over atomics: look a handle up once outside a hot loop, then
//! update it lock-free. Names follow the `crate.module.op` convention
//! (see the Observability section of DESIGN.md).

use crate::trace::TraceId;
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};
use std::time::{SystemTime, UNIX_EPOCH};

/// Registry key: metric name plus optional label value.
#[derive(Debug, Clone, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Key {
    /// Metric name, `crate.module.op`.
    pub name: String,
    /// Optional label (e.g. a design or model name).
    pub label: Option<String>,
}

impl Key {
    fn new(name: &str, label: Option<&str>) -> Self {
        Key {
            name: name.to_string(),
            label: label.map(str::to_string),
        }
    }
}

/// Monotonically increasing counter.
#[derive(Debug, Clone)]
pub struct Counter(Arc<AtomicU64>);

impl Counter {
    /// Adds 1.
    pub fn inc(&self) {
        self.add(1);
    }

    /// Adds `n`.
    pub fn add(&self, n: u64) {
        self.0.fetch_add(n, Ordering::Relaxed);
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// Last-value-wins gauge (an `f64` stored as atomic bits).
#[derive(Debug, Clone)]
pub struct Gauge(Arc<AtomicU64>);

impl Gauge {
    /// Sets the gauge.
    pub fn set(&self, v: f64) {
        self.0.store(v.to_bits(), Ordering::Relaxed);
    }

    /// Current value.
    pub fn get(&self) -> f64 {
        f64::from_bits(self.0.load(Ordering::Relaxed))
    }
}

/// A sample observation annotated with the trace it came from —
/// rendered on the Prometheus `+Inf` bucket line (OpenMetrics style) so
/// a p99+ latency spike links straight to its `/v1/traces` entry.
#[derive(Debug, Clone, PartialEq)]
pub struct Exemplar {
    /// The observed value.
    pub value: f64,
    /// Trace id of the request that produced it.
    pub trace_id: TraceId,
    /// Milliseconds since the Unix epoch when it was observed.
    pub unix_ms: u64,
}

/// Fixed-bucket histogram with lock-free observation.
///
/// `bounds` are the ascending bucket upper edges; an observation lands
/// in the first bucket whose bound is `>= v`, or the overflow bucket.
#[derive(Debug)]
pub struct HistogramInner {
    bounds: Box<[f64]>,
    counts: Box<[AtomicU64]>,
    count: AtomicU64,
    sum_bits: AtomicU64,
    min_bits: AtomicU64,
    max_bits: AtomicU64,
    exemplar: Mutex<Option<Exemplar>>,
}

/// Shared handle to a registered histogram.
pub type Histogram = Arc<HistogramInner>;

impl HistogramInner {
    fn new(bounds: Vec<f64>) -> Self {
        debug_assert!(bounds.windows(2).all(|w| w[0] < w[1]), "bounds ascending");
        let n = bounds.len() + 1; // + overflow bucket
        HistogramInner {
            bounds: bounds.into_boxed_slice(),
            counts: (0..n).map(|_| AtomicU64::new(0)).collect(),
            count: AtomicU64::new(0),
            sum_bits: AtomicU64::new(0f64.to_bits()),
            min_bits: AtomicU64::new(f64::INFINITY.to_bits()),
            max_bits: AtomicU64::new(f64::NEG_INFINITY.to_bits()),
            exemplar: Mutex::new(None),
        }
    }

    /// Records one observation.
    pub fn observe(&self, v: f64) {
        if !v.is_finite() {
            return;
        }
        let idx = self.bounds.partition_point(|b| *b < v);
        self.counts[idx].fetch_add(1, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
        // CAS loops for the f64 aggregates.
        let _ = self
            .sum_bits
            .fetch_update(Ordering::Relaxed, Ordering::Relaxed, |bits| {
                Some((f64::from_bits(bits) + v).to_bits())
            });
        let _ = self
            .min_bits
            .fetch_update(Ordering::Relaxed, Ordering::Relaxed, |bits| {
                (v < f64::from_bits(bits)).then(|| v.to_bits())
            });
        let _ = self
            .max_bits
            .fetch_update(Ordering::Relaxed, Ordering::Relaxed, |bits| {
                (v > f64::from_bits(bits)).then(|| v.to_bits())
            });
    }

    /// Records one observation, attaching `trace` as an exemplar when
    /// the observation is tail-worthy: the exemplar slot is empty, or
    /// `v` reaches the current p99 estimate. The plain [`observe`]
    /// fast path is untouched — exemplar upkeep costs one quantile
    /// scan plus a short mutex hold, only on traced observations.
    ///
    /// [`observe`]: HistogramInner::observe
    pub fn observe_traced(&self, v: f64, trace: Option<TraceId>) {
        self.observe(v);
        let Some(trace_id) = trace else { return };
        if !v.is_finite() {
            return;
        }
        let mut slot = self.exemplar.lock().expect("exemplar slot poisoned");
        let p99 = self.quantile(0.99);
        if slot.is_none() || !p99.is_finite() || v >= p99 {
            *slot = Some(Exemplar {
                value: v,
                trace_id,
                unix_ms: SystemTime::now()
                    .duration_since(UNIX_EPOCH)
                    .map(|d| d.as_millis() as u64)
                    .unwrap_or(0),
            });
        }
    }

    /// The most recent tail exemplar, if any traced observation landed.
    pub fn exemplar(&self) -> Option<Exemplar> {
        self.exemplar.lock().expect("exemplar slot poisoned").clone()
    }

    /// Number of observations.
    pub fn count(&self) -> u64 {
        self.count.load(Ordering::Relaxed)
    }

    /// Sum of observations.
    pub fn sum(&self) -> f64 {
        f64::from_bits(self.sum_bits.load(Ordering::Relaxed))
    }

    /// Smallest observation (`NaN` when empty).
    pub fn min(&self) -> f64 {
        let v = f64::from_bits(self.min_bits.load(Ordering::Relaxed));
        if v.is_finite() {
            v
        } else {
            f64::NAN
        }
    }

    /// Largest observation (`NaN` when empty).
    pub fn max(&self) -> f64 {
        let v = f64::from_bits(self.max_bits.load(Ordering::Relaxed));
        if v.is_finite() {
            v
        } else {
            f64::NAN
        }
    }

    /// Mean observation (`NaN` when empty).
    pub fn mean(&self) -> f64 {
        let n = self.count();
        if n == 0 {
            f64::NAN
        } else {
            self.sum() / n as f64
        }
    }

    /// Quantile estimate by linear interpolation inside the target
    /// bucket, clamped to the observed min/max. `q` in `[0, 1]`;
    /// returns `NaN` when empty.
    pub fn quantile(&self, q: f64) -> f64 {
        let total = self.count();
        if total == 0 {
            return f64::NAN;
        }
        let q = q.clamp(0.0, 1.0);
        let target = q * total as f64;
        let mut cumulative = 0u64;
        for (i, c) in self.counts.iter().enumerate() {
            let c = c.load(Ordering::Relaxed);
            if c == 0 {
                continue;
            }
            let next = cumulative + c;
            if (next as f64) >= target {
                // Interpolate within bucket i between its edges.
                let lo = if i == 0 {
                    self.min()
                } else {
                    self.bounds[i - 1].max(self.min())
                };
                let hi = if i < self.bounds.len() {
                    self.bounds[i].min(self.max())
                } else {
                    self.max()
                };
                let (lo, hi) = (lo.min(hi), hi.max(lo));
                let frac = ((target - cumulative as f64) / c as f64).clamp(0.0, 1.0);
                return lo + frac * (hi - lo);
            }
            cumulative = next;
        }
        self.max()
    }

    /// Per-bucket `(upper_bound, count)` rows; the overflow bucket
    /// reports `f64::INFINITY` as its bound.
    pub fn buckets(&self) -> Vec<(f64, u64)> {
        self.counts
            .iter()
            .enumerate()
            .map(|(i, c)| {
                let bound = self.bounds.get(i).copied().unwrap_or(f64::INFINITY);
                (bound, c.load(Ordering::Relaxed))
            })
            .collect()
    }
}

/// Ascending exponential bucket bounds: `start * factor^k`, `count`
/// edges. The default timing histograms use
/// `exponential_bounds(1e-6, 4.0, 16)` — 1 µs up to ~4.3 s.
pub fn exponential_bounds(start: f64, factor: f64, count: usize) -> Vec<f64> {
    assert!(start > 0.0 && factor > 1.0, "bounds must ascend");
    let mut v = Vec::with_capacity(count);
    let mut b = start;
    for _ in 0..count {
        v.push(b);
        b *= factor;
    }
    v
}

/// Bucket bounds for duration histograms: factor-2 exponential from
/// 1 µs to ~33.6 s (26 edges). Fine enough that sub-millisecond stage
/// timings (queue_wait, parse) resolve distinct percentiles instead of
/// saturating one coarse bucket.
pub fn duration_bounds() -> Vec<f64> {
    exponential_bounds(1e-6, 2.0, 26)
}

fn default_bounds_for(name: &str) -> Vec<f64> {
    if name.ends_with("_seconds") {
        duration_bounds()
    } else {
        exponential_bounds(1e-6, 4.0, 16)
    }
}

#[derive(Default)]
struct Registry {
    counters: Mutex<HashMap<Key, Counter>>,
    gauges: Mutex<HashMap<Key, Gauge>>,
    histograms: Mutex<HashMap<Key, Histogram>>,
}

fn registry() -> &'static Registry {
    static REGISTRY: OnceLock<Registry> = OnceLock::new();
    REGISTRY.get_or_init(Registry::default)
}

/// The counter registered under `name` (creating it on first use).
pub fn counter(name: &str) -> Counter {
    counter_labeled(name, None)
}

/// The counter registered under `name` + `label`.
pub fn counter_labeled(name: &str, label: Option<&str>) -> Counter {
    registry()
        .counters
        .lock()
        .expect("counter registry poisoned")
        .entry(Key::new(name, label))
        .or_insert_with(|| Counter(Arc::new(AtomicU64::new(0))))
        .clone()
}

/// The gauge registered under `name` (creating it on first use).
pub fn gauge(name: &str) -> Gauge {
    gauge_labeled(name, None)
}

/// The gauge registered under `name` + `label`.
pub fn gauge_labeled(name: &str, label: Option<&str>) -> Gauge {
    registry()
        .gauges
        .lock()
        .expect("gauge registry poisoned")
        .entry(Key::new(name, label))
        .or_insert_with(|| Gauge(Arc::new(AtomicU64::new(f64::NAN.to_bits()))))
        .clone()
}

/// The histogram registered under `name`, with default bounds chosen
/// by name when first created: `*_seconds` histograms get the fine
/// factor-2 [`duration_bounds`] (1 µs .. ~33.6 s), everything else the
/// coarser factor-4 exponential (1 µs .. ~4.3 s).
pub fn histogram(name: &str) -> Histogram {
    histogram_labeled(name, None)
}

/// The histogram under `name` + `label`, with the same name-aware
/// default bounds as [`histogram`].
pub fn histogram_labeled(name: &str, label: Option<&str>) -> Histogram {
    histogram_with(name, label, || default_bounds_for(name))
}

/// The histogram under `name` + `label`; `bounds` supplies the bucket
/// edges if this call creates it (ignored when it already exists).
pub fn histogram_with(
    name: &str,
    label: Option<&str>,
    bounds: impl FnOnce() -> Vec<f64>,
) -> Histogram {
    registry()
        .histograms
        .lock()
        .expect("histogram registry poisoned")
        .entry(Key::new(name, label))
        .or_insert_with(|| Arc::new(HistogramInner::new(bounds())))
        .clone()
}

/// A point-in-time copy of every registered metric, sorted by key.
#[derive(Debug, Clone)]
pub struct MetricsSnapshot {
    /// Counter rows.
    pub counters: Vec<(Key, u64)>,
    /// Gauge rows.
    pub gauges: Vec<(Key, f64)>,
    /// Histogram rows (handles; cheap clones).
    pub histograms: Vec<(Key, Histogram)>,
}

/// Snapshots the whole registry.
pub fn snapshot() -> MetricsSnapshot {
    let reg = registry();
    let mut counters: Vec<(Key, u64)> = reg
        .counters
        .lock()
        .expect("counter registry poisoned")
        .iter()
        .map(|(k, c)| (k.clone(), c.get()))
        .collect();
    counters.sort_by(|a, b| a.0.cmp(&b.0));
    let mut gauges: Vec<(Key, f64)> = reg
        .gauges
        .lock()
        .expect("gauge registry poisoned")
        .iter()
        .map(|(k, g)| (k.clone(), g.get()))
        .collect();
    gauges.sort_by(|a, b| a.0.cmp(&b.0));
    let mut histograms: Vec<(Key, Histogram)> = reg
        .histograms
        .lock()
        .expect("histogram registry poisoned")
        .iter()
        .map(|(k, h)| (k.clone(), h.clone()))
        .collect();
    histograms.sort_by(|a, b| a.0.cmp(&b.0));
    MetricsSnapshot {
        counters,
        gauges,
        histograms,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_are_shared_and_concurrent() {
        let name = "obs.test.concurrent_counter";
        let handles: Vec<_> = (0..8)
            .map(|_| {
                std::thread::spawn(move || {
                    let c = counter(name);
                    for _ in 0..10_000 {
                        c.inc();
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(counter(name).get(), 80_000);
    }

    #[test]
    fn labeled_counters_are_distinct() {
        let a = counter_labeled("obs.test.labeled", Some("a"));
        let b = counter_labeled("obs.test.labeled", Some("b"));
        a.add(3);
        b.add(5);
        assert_eq!(counter_labeled("obs.test.labeled", Some("a")).get(), 3);
        assert_eq!(counter_labeled("obs.test.labeled", Some("b")).get(), 5);
    }

    #[test]
    fn gauges_hold_last_value() {
        let g = gauge("obs.test.gauge");
        assert!(g.get().is_nan());
        g.set(2.5);
        g.set(-1.25);
        assert_eq!(gauge("obs.test.gauge").get(), -1.25);
    }

    #[test]
    fn histogram_bucket_and_quantile_math() {
        let h = histogram_with("obs.test.hist_quant", None, || {
            vec![10.0, 20.0, 30.0, 40.0]
        });
        for v in 1..=100 {
            h.observe(v as f64 * 0.4); // 0.4 .. 40.0 uniformly
        }
        assert_eq!(h.count(), 100);
        assert!((h.mean() - 20.2).abs() < 1e-9);
        assert_eq!(h.min(), 0.4);
        assert_eq!(h.max(), 40.0);
        // Uniform 0.4..40: p50 ~ 20, p95 ~ 38, p99 ~ 39.6; bucket
        // interpolation is exact to within one bucket width.
        assert!((h.quantile(0.5) - 20.0).abs() <= 2.0, "{}", h.quantile(0.5));
        assert!((h.quantile(0.95) - 38.0).abs() <= 2.0, "{}", h.quantile(0.95));
        assert!((h.quantile(0.99) - 39.6).abs() <= 2.0, "{}", h.quantile(0.99));
        // Buckets: 25 observations each in (..10], (10..20], (20..30], (30..40].
        let buckets = h.buckets();
        assert_eq!(buckets.len(), 5);
        for (_, c) in &buckets[..4] {
            assert_eq!(*c, 25);
        }
        assert_eq!(buckets[4], (f64::INFINITY, 0));
    }

    #[test]
    fn histogram_overflow_and_extremes() {
        let h = histogram_with("obs.test.hist_overflow", None, || vec![1.0]);
        h.observe(0.5);
        h.observe(100.0);
        h.observe(f64::NAN); // dropped
        assert_eq!(h.count(), 2);
        assert_eq!(h.buckets()[1], (f64::INFINITY, 1));
        // p100 is the max; p0 the min.
        assert_eq!(h.quantile(1.0), 100.0);
        assert_eq!(h.quantile(0.0), 0.5);
        let empty = histogram_with("obs.test.hist_empty", None, || vec![1.0]);
        assert!(empty.quantile(0.5).is_nan());
        assert!(empty.mean().is_nan());
    }

    #[test]
    fn seconds_histograms_get_fine_duration_bounds() {
        let h = histogram("obs.test.duration_seconds");
        let bounds: Vec<f64> = h.buckets().iter().map(|(b, _)| *b).collect();
        // 26 finite factor-2 edges + overflow.
        assert_eq!(bounds.len(), 27);
        assert!((bounds[0] - 1e-6).abs() < 1e-18);
        assert!((bounds[1] / bounds[0] - 2.0).abs() < 1e-9);
        let coarse = histogram("obs.test.duration_other");
        assert_eq!(coarse.buckets().len(), 17);
    }

    #[test]
    fn exemplar_tracks_tail_observations() {
        let h = histogram_with("obs.test.hist_exemplar", None, || {
            exponential_bounds(1e-3, 2.0, 10)
        });
        assert_eq!(h.exemplar(), None);
        h.observe(0.5); // untraced: never creates an exemplar
        assert_eq!(h.exemplar(), None);
        let slow = TraceId(7);
        let fast = TraceId(9);
        h.observe_traced(0.010, Some(slow));
        let first = h.exemplar().expect("first traced observation sticks");
        assert_eq!(first.trace_id, slow);
        assert_eq!(first.value, 0.010);
        // A small observation must not displace a tail exemplar...
        for _ in 0..100 {
            h.observe(0.5);
        }
        h.observe_traced(0.001, Some(fast));
        assert_eq!(h.exemplar().unwrap().trace_id, slow);
        // ...but a p99+ one does.
        h.observe_traced(0.9, Some(fast));
        let tail = h.exemplar().unwrap();
        assert_eq!(tail.trace_id, fast);
        assert_eq!(tail.value, 0.9);
    }

    #[test]
    fn exponential_bounds_ascend() {
        let b = exponential_bounds(1e-6, 4.0, 16);
        assert_eq!(b.len(), 16);
        assert!(b.windows(2).all(|w| w[0] < w[1]));
        assert!((b[0] - 1e-6).abs() < 1e-18);
    }

    #[test]
    fn concurrent_histogram_observations() {
        let h = histogram_with("obs.test.hist_concurrent", None, || {
            exponential_bounds(1.0, 2.0, 8)
        });
        let handles: Vec<_> = (0..4)
            .map(|t| {
                let h = h.clone();
                std::thread::spawn(move || {
                    for i in 0..1000 {
                        h.observe((t * 1000 + i) as f64 % 97.0);
                    }
                })
            })
            .collect();
        for hnd in handles {
            hnd.join().unwrap();
        }
        assert_eq!(h.count(), 4000);
        let total: u64 = h.buckets().iter().map(|(_, c)| c).sum();
        assert_eq!(total, 4000);
    }
}
