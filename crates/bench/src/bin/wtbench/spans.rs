//! Benchmark-side spans for the traced run.
//!
//! A span wraps one of the benchmark's own calls into a crate's public
//! API: name, start and end (ns since the recorder was made), the span
//! that encloses it on the same thread, and the id of the measured
//! operation it belongs to. Spans stay in memory and are written out
//! when the workload ends, with a self-time table (a span's duration
//! minus the time its child spans cover).

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

#[derive(Debug, Clone)]
struct Rec {
    id: u64,
    parent: Option<u64>,
    op: u64,
    name: &'static str,
    start_ns: u64,
    end_ns: u64,
}

/// In-memory span recorder, shared by the workload's threads.
#[derive(Debug)]
pub struct Spans {
    t0: Instant,
    next: AtomicU64,
    recs: Mutex<Vec<Rec>>,
}

thread_local! {
    /// Ids of the spans open on this thread, innermost last.
    static OPEN: RefCell<Vec<u64>> = const { RefCell::new(Vec::new()) };
}

/// An open span; recorded when dropped.
pub struct Guard<'a> {
    spans: &'a Spans,
    id: u64,
    parent: Option<u64>,
    op: u64,
    name: &'static str,
    start_ns: u64,
}

impl Spans {
    pub fn new() -> Self {
        Spans {
            t0: Instant::now(),
            next: AtomicU64::new(1),
            recs: Mutex::new(Vec::with_capacity(1 << 14)),
        }
    }

    fn now_ns(&self) -> u64 {
        self.t0.elapsed().as_nanos() as u64
    }

    /// Opens a span named `name` for operation `op`.
    pub fn enter(&self, name: &'static str, op: u64) -> Guard<'_> {
        let id = self.next.fetch_add(1, Ordering::Relaxed);
        let parent = OPEN.with(|s| {
            let mut s = s.borrow_mut();
            let parent = s.last().copied();
            s.push(id);
            parent
        });
        Guard {
            spans: self,
            id,
            parent,
            op,
            name,
            start_ns: self.now_ns(),
        }
    }

    fn records(&self) -> Vec<Rec> {
        self.recs.lock().expect("span list lock").clone()
    }

    /// `(name, count, total seconds, self seconds)` per span name.
    pub fn self_times(&self) -> Vec<(&'static str, u64, f64, f64)> {
        let recs = self.records();
        let mut child_ns: BTreeMap<u64, u64> = BTreeMap::new();
        for r in &recs {
            if let Some(p) = r.parent {
                *child_ns.entry(p).or_default() += r.end_ns - r.start_ns;
            }
        }
        let mut by_name: BTreeMap<&'static str, (u64, u64, u64)> = BTreeMap::new();
        for r in &recs {
            let dur = r.end_ns - r.start_ns;
            let e = by_name.entry(r.name).or_default();
            e.0 += 1;
            e.1 += dur;
            e.2 += dur.saturating_sub(child_ns.get(&r.id).copied().unwrap_or(0));
        }
        by_name
            .into_iter()
            .map(|(name, (n, total, own))| (name, n, total as f64 * 1e-9, own as f64 * 1e-9))
            .collect()
    }

    /// Writes `spans-<workload>.jsonl` and `selftime-<workload>.tsv`
    /// into `dir`.
    pub fn write(&self, dir: &Path, workload: &str) -> std::io::Result<()> {
        std::fs::create_dir_all(dir)?;
        let recs = self.records();
        let mut out = String::with_capacity(96 * recs.len());
        for r in &recs {
            let _ = write!(out, "{{\"id\":{},\"parent\":", r.id);
            match r.parent {
                Some(p) => {
                    let _ = write!(out, "{p}");
                }
                None => out.push_str("null"),
            }
            let _ = writeln!(
                out,
                ",\"op\":{},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{}}}",
                r.op, r.name, r.start_ns, r.end_ns
            );
        }
        std::fs::write(dir.join(format!("spans-{workload}.jsonl")), out)?;
        std::fs::write(
            dir.join(format!("selftime-{workload}.tsv")),
            self.self_time_table(),
        )
    }

    /// The self-time table as tab-separated text, busiest first.
    pub fn self_time_table(&self) -> String {
        let mut rows = self.self_times();
        rows.sort_by(|a, b| b.3.total_cmp(&a.3));
        let mut out = String::from("span\tcount\ttotal_s\tself_s\n");
        for (name, n, total, own) in rows {
            let _ = writeln!(out, "{name}\t{n}\t{total:.6}\t{own:.6}");
        }
        out
    }
}

impl Drop for Guard<'_> {
    fn drop(&mut self) {
        OPEN.with(|s| {
            let mut s = s.borrow_mut();
            if let Some(pos) = s.iter().rposition(|&id| id == self.id) {
                s.remove(pos);
            }
        });
        let rec = Rec {
            id: self.id,
            parent: self.parent,
            op: self.op,
            name: self.name,
            start_ns: self.start_ns,
            end_ns: self.spans.now_ns(),
        };
        // Never panic in drop: a poisoned list only loses this span.
        if let Ok(mut recs) = self.spans.recs.lock() {
            recs.push(rec);
        }
    }
}

/// Opens a span when the run is traced; a no-op otherwise.
pub fn span<'a>(spans: Option<&'a Spans>, name: &'static str, op: u64) -> Option<Guard<'a>> {
    spans.map(|s| s.enter(name, op))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_children() {
        let spans = Spans::new();
        {
            let _outer = spans.enter("outer", 1);
            std::thread::sleep(std::time::Duration::from_millis(4));
            let _inner = spans.enter("inner", 1);
            std::thread::sleep(std::time::Duration::from_millis(4));
        }
        let rows = spans.self_times();
        let outer = rows.iter().find(|r| r.0 == "outer").expect("outer span");
        let inner = rows.iter().find(|r| r.0 == "inner").expect("inner span");
        assert_eq!(outer.1, 1);
        assert!(outer.2 >= inner.2, "outer covers inner");
        assert!((outer.3 - (outer.2 - inner.2)).abs() < 1e-9);
        let recs = spans.records();
        let inner_rec = recs.iter().find(|r| r.name == "inner").expect("inner rec");
        let outer_rec = recs.iter().find(|r| r.name == "outer").expect("outer rec");
        assert_eq!(inner_rec.parent, Some(outer_rec.id));
    }
}
