//! RAII span timers with hierarchical nesting and thread-safe
//! aggregation.
//!
//! A span is entered with [`span`] and recorded when the guard drops.
//! Nesting is tracked per thread: entering `"epoch"` inside a `"train"`
//! span records under the dotted path `train.epoch`. For every path the
//! global registry aggregates call count, total wall time and *self*
//! time (total minus time spent in child spans), so a run report can
//! show where time actually goes rather than double-counting parents.
//!
//! Guards must drop in LIFO order (the natural scoping order); dropping
//! a parent before its children corrupts the accounting of the paths
//! involved, not of the process.

use std::cell::RefCell;
use std::collections::HashMap;
use std::marker::PhantomData;
use std::sync::{Mutex, OnceLock};
use std::time::Instant;

/// Aggregated statistics of one span path.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SpanStats {
    /// Number of completed spans at this path.
    pub count: u64,
    /// Total wall time, nanoseconds.
    pub total_ns: u64,
    /// Wall time not attributed to child spans, nanoseconds.
    pub self_ns: u64,
}

/// One row of a span snapshot.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SpanEntry {
    /// Dotted path, e.g. `train.epoch.forward`.
    pub path: String,
    /// Aggregates for that path.
    pub stats: SpanStats,
}

struct Frame {
    path: String,
    child_ns: u64,
}

thread_local! {
    static STACK: RefCell<Vec<Frame>> = const { RefCell::new(Vec::new()) };
}

fn registry() -> &'static Mutex<HashMap<String, SpanStats>> {
    static SPANS: OnceLock<Mutex<HashMap<String, SpanStats>>> = OnceLock::new();
    SPANS.get_or_init(|| Mutex::new(HashMap::new()))
}

/// A running span; records itself into the global registry on drop.
#[must_use = "a span measures the scope it is bound to; binding it to _ drops it immediately"]
#[derive(Debug)]
pub struct Span {
    start: Instant,
    // Spans are tied to the entering thread's stack.
    _not_send: PhantomData<*const ()>,
}

/// Enters a span named `name` nested under the thread's current span
/// (if any). `name` should be a short segment (`epoch`, `forward`);
/// nesting builds the dotted path.
pub fn span(name: &str) -> Span {
    STACK.with(|stack| {
        let mut stack = stack.borrow_mut();
        let path = match stack.last() {
            Some(parent) => {
                let mut p = String::with_capacity(parent.path.len() + 1 + name.len());
                p.push_str(&parent.path);
                p.push('.');
                p.push_str(name);
                p
            }
            None => name.to_string(),
        };
        stack.push(Frame { path, child_ns: 0 });
    });
    Span {
        start: Instant::now(),
        _not_send: PhantomData,
    }
}

impl Drop for Span {
    fn drop(&mut self) {
        let elapsed = self.start.elapsed().as_nanos() as u64;
        let popped = STACK.with(|stack| {
            let mut stack = stack.borrow_mut();
            let frame = stack.pop();
            if frame.is_some() {
                if let Some(parent) = stack.last_mut() {
                    parent.child_ns += elapsed;
                }
            }
            frame
        });
        let Some(frame) = popped else {
            // Guard dropped after its thread stack was cleared; nothing
            // sensible to record.
            return;
        };
        let self_ns = elapsed.saturating_sub(frame.child_ns);
        let mut map = registry().lock().expect("span registry poisoned");
        let stats = map.entry(frame.path).or_default();
        stats.count += 1;
        stats.total_ns += elapsed;
        stats.self_ns += self_ns;
    }
}

/// Runs `f` inside a span named `name` and returns its result.
pub fn with_span<R>(name: &str, f: impl FnOnce() -> R) -> R {
    let _guard = span(name);
    f()
}

/// A snapshot of every recorded span path, sorted by path.
pub fn snapshot() -> Vec<SpanEntry> {
    let map = registry().lock().expect("span registry poisoned");
    let mut rows: Vec<SpanEntry> = map
        .iter()
        .map(|(path, stats)| SpanEntry {
            path: path.clone(),
            stats: *stats,
        })
        .collect();
    rows.sort_by(|a, b| a.path.cmp(&b.path));
    rows
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    fn stats_for(rows: &[SpanEntry], path: &str) -> SpanStats {
        rows.iter()
            .find(|r| r.path == path)
            .unwrap_or_else(|| panic!("missing span path {path}"))
            .stats
    }

    #[test]
    fn nesting_builds_dotted_paths_and_self_time() {
        // Unique root name: tests in this binary share the registry.
        let root = "nest_root";
        {
            let _t = span(root);
            std::thread::sleep(Duration::from_millis(4));
            for _ in 0..2 {
                let _e = span("epoch");
                std::thread::sleep(Duration::from_millis(6));
                {
                    let _f = span("forward");
                    std::thread::sleep(Duration::from_millis(3));
                }
            }
        }
        let rows = snapshot();
        let t = stats_for(&rows, root);
        let e = stats_for(&rows, &format!("{root}.epoch"));
        let f = stats_for(&rows, &format!("{root}.epoch.forward"));
        assert_eq!(t.count, 1);
        assert_eq!(e.count, 2);
        assert_eq!(f.count, 2);
        // Parent total covers children.
        assert!(t.total_ns >= e.total_ns);
        assert!(e.total_ns >= f.total_ns);
        // Self time excludes children: the root slept ~4ms itself but
        // ~22ms total; its self time must be well under its total.
        assert!(t.self_ns < t.total_ns);
        assert!(t.self_ns >= Duration::from_millis(3).as_nanos() as u64);
        assert!(
            t.total_ns - t.self_ns >= Duration::from_millis(15).as_nanos() as u64,
            "child time must be attributed away from self: {t:?}"
        );
        // Leaf self time equals its total.
        assert_eq!(f.self_ns, f.total_ns);
    }

    #[test]
    fn sibling_threads_do_not_nest_into_each_other() {
        let handles: Vec<_> = (0..4)
            .map(|i| {
                std::thread::spawn(move || {
                    let _s = span("thread_root");
                    let _c = span(&format!("worker{i}"));
                    std::thread::sleep(Duration::from_millis(2));
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        let rows = snapshot();
        let roots = stats_for(&rows, "thread_root");
        assert_eq!(roots.count, 4);
        for i in 0..4 {
            assert_eq!(stats_for(&rows, &format!("thread_root.worker{i}")).count, 1);
        }
        // No cross-thread nesting: paths never contain two worker segments.
        assert!(rows
            .iter()
            .all(|r| r.path.matches("worker").count() <= 1));
    }

    #[test]
    fn with_span_passes_result_through() {
        let v = with_span("with_span_root", || 41 + 1);
        assert_eq!(v, 42);
        assert_eq!(stats_for(&snapshot(), "with_span_root").count, 1);
    }
}
