//! Deterministic parallel map over slices.
//!
//! Work distribution is a single atomic index counter (self-balancing:
//! fast lanes claim more items), but every result is written to the
//! slot of its *input index*, so the output order — and therefore any
//! downstream reduction order — is identical to the serial map no
//! matter how many threads ran or how the OS scheduled them. That
//! in-order contract is what makes dataset builds and training
//! bit-reproducible under `PAR_THREADS`.
//!
//! Nested calls are safe but serial: there is one global pool with no
//! work-stealing, so a `par_map` issued from inside a lane would queue
//! its jobs behind (and wait on a latch held up by) its own ancestors —
//! with every worker already occupied by outer lanes, that is a
//! permanent deadlock. A thread-local lane flag detects nesting and
//! routes the inner call to the serial path instead.

use crate::pool::{Job, Pool};
use crate::threads;
use std::cell::Cell;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Condvar, Mutex};
use std::time::Instant;

thread_local! {
    /// True while this thread is executing a `par_map` lane. See the
    /// module docs: a nested map on the single global pool would
    /// deadlock, so nested calls fall back to the serial path.
    static IN_LANE: Cell<bool> = const { Cell::new(false) };
}

/// RAII lane marker; restores the previous flag value even on panic.
struct LaneGuard(bool);

impl LaneGuard {
    fn enter() -> Self {
        LaneGuard(IN_LANE.with(|c| c.replace(true)))
    }
}

impl Drop for LaneGuard {
    fn drop(&mut self) {
        let prev = self.0;
        IN_LANE.with(|c| c.set(prev));
    }
}

/// Latency buckets for `par.task_seconds`: 10 µs .. ~160 s, factor 4.
fn task_bounds() -> Vec<f64> {
    obs::exponential_bounds(1e-5, 4.0, 12)
}

/// Counts outstanding lanes and stores the first panic payload.
struct Latch {
    remaining: Mutex<usize>,
    done: Condvar,
    panic: Mutex<Option<Box<dyn std::any::Any + Send>>>,
}

impl Latch {
    fn new(lanes: usize) -> Self {
        Latch {
            remaining: Mutex::new(lanes),
            done: Condvar::new(),
            panic: Mutex::new(None),
        }
    }

    fn complete(&self, panic: Option<Box<dyn std::any::Any + Send>>) {
        if let Some(p) = panic {
            let mut slot = self.panic.lock().expect("latch poisoned");
            slot.get_or_insert(p);
        }
        let mut left = self.remaining.lock().expect("latch poisoned");
        *left -= 1;
        if *left == 0 {
            self.done.notify_all();
        }
    }

    fn wait(&self) {
        let mut left = self.remaining.lock().expect("latch poisoned");
        while *left > 0 {
            left = self.done.wait(left).expect("latch poisoned");
        }
    }

    fn take_panic(&self) -> Option<Box<dyn std::any::Any + Send>> {
        self.panic.lock().expect("latch poisoned").take()
    }
}

/// Shared lane state: claims indices, writes results to their slots.
struct Lanes<'a, T, R, F, S> {
    items: &'a [T],
    /// Base pointer of the `Option<R>` result slots. Lanes write
    /// disjoint slots (each index is claimed exactly once), which is
    /// why the raw-pointer aliasing here is sound.
    results: *mut Option<R>,
    f: &'a F,
    /// When `should_stop` flags a result, no lane claims further
    /// indices. Because `fetch_add` hands out indices in order, the
    /// claimed set is always a prefix `0..m` — skipped slots can only
    /// trail every computed one.
    should_stop: &'a S,
    stop: AtomicBool,
    next: AtomicUsize,
    hist: &'a obs::Histogram,
}

// SAFETY: lanes only read `items` (`T: Sync`), call `f` and
// `should_stop` concurrently (`F: Sync`, `S: Sync`) and write disjoint
// `results` slots whose `R` values are produced on one thread and
// consumed after the latch (`R: Send`).
unsafe impl<T: Sync, R: Send, F: Sync, S: Sync> Sync for Lanes<'_, T, R, F, S> {}

impl<T, R, F: Fn(&T) -> R, S: Fn(&R) -> bool> Lanes<'_, T, R, F, S> {
    fn run(&self) {
        let _lane = LaneGuard::enter();
        loop {
            if self.stop.load(Ordering::Relaxed) {
                break;
            }
            let i = self.next.fetch_add(1, Ordering::Relaxed);
            if i >= self.items.len() {
                break;
            }
            let t0 = Instant::now();
            let r = (self.f)(&self.items[i]);
            self.hist.observe(t0.elapsed().as_secs_f64());
            if (self.should_stop)(&r) {
                self.stop.store(true, Ordering::Relaxed);
            }
            // SAFETY: index `i` was claimed exactly once (fetch_add),
            // so no other lane touches this slot; the slot outlives
            // the lane because `par_map_slots` waits on the latch.
            unsafe { *self.results.add(i) = Some(r) };
        }
    }
}

/// The engine behind [`par_map`] / [`try_par_map`]: maps `f` over
/// `items` and returns per-index slots. A slot is `None` only when
/// `should_stop` flagged an earlier-claimed result (indices are
/// claimed in order, so skipped slots strictly trail a flagged one) or
/// a lane panicked (in which case the panic is re-raised instead of
/// returning).
fn par_map_slots<T, R, F, S>(kind: &str, items: &[T], f: F, should_stop: S) -> Vec<Option<R>>
where
    T: Sync,
    R: Send,
    F: Fn(&T) -> R + Sync,
    S: Fn(&R) -> bool + Sync,
{
    let n = items.len();
    let nested = IN_LANE.with(Cell::get);
    let lanes = if nested {
        1
    } else {
        let want = threads().min(n).max(1);
        // On a single-core host lanes cannot physically overlap, so
        // pool fan-out is pure overhead (the 0.89x dataset_build /
        // train_epoch regression in BENCH_compute.json). Clamp to the
        // serial path unless PAR_FORCE_POOL / set_force_pool insists —
        // the determinism gates do, to keep pool scheduling itself
        // under test on 1-core CI hosts.
        if want > 1 && crate::host_parallelism() == 1 && !crate::force_pool() {
            1
        } else {
            want
        }
    };
    let hist = obs::histogram_with("par.task_seconds", Some(kind), task_bounds);
    obs::counter_labeled("par.tasks", Some(kind)).add(n as u64);
    if lanes == 1 {
        let mut slots: Vec<Option<R>> = Vec::with_capacity(n);
        slots.resize_with(n, || None);
        for (it, slot) in items.iter().zip(slots.iter_mut()) {
            let t0 = Instant::now();
            let r = f(it);
            hist.observe(t0.elapsed().as_secs_f64());
            let stop = should_stop(&r);
            *slot = Some(r);
            if stop {
                break;
            }
        }
        return slots;
    }

    let pool = Pool::global();
    pool.ensure_workers(lanes - 1);

    let mut results: Vec<Option<R>> = Vec::with_capacity(n);
    results.resize_with(n, || None);
    let shared = Lanes {
        items,
        results: results.as_mut_ptr(),
        f: &f,
        should_stop: &should_stop,
        stop: AtomicBool::new(false),
        next: AtomicUsize::new(0),
        hist: &hist,
    };
    let latch = Latch::new(lanes);
    {
        let shared_ref = &shared;
        let latch_ref = &latch;
        for _ in 0..lanes - 1 {
            let job: Box<dyn FnOnce() + Send + '_> = Box::new(move || {
                let outcome = catch_unwind(AssertUnwindSafe(|| shared_ref.run()));
                latch_ref.complete(outcome.err());
            });
            // SAFETY: the borrows erased here (`items`, `f`, `results`,
            // the latch) all outlive the job: `latch.wait()` below does
            // not return until every submitted job has completed, and
            // it runs before any of them drop.
            let job: Job = unsafe {
                std::mem::transmute::<Box<dyn FnOnce() + Send + '_>, Job>(job)
            };
            pool.submit(job);
        }
        // The caller is the final lane; a panic in it must still wait
        // for the workers before unwinding can free the borrows.
        let own = catch_unwind(AssertUnwindSafe(|| shared_ref.run()));
        latch_ref.complete(own.err());
        latch.wait();
    }
    if let Some(p) = latch.take_panic() {
        resume_unwind(p);
    }
    results
}

/// Maps `f` over `items` on the global pool, returning results in input
/// order. `kind` labels the per-task latency histogram
/// (`par.task_seconds{kind}`) and the `par.tasks{kind}` counter.
///
/// Runs serially (no pool involvement) when the resolved thread count
/// is 1 — the `PAR_THREADS=1` escape hatch — when `items` has fewer
/// than two elements, when the host has a single core (lanes cannot
/// overlap, so fan-out is pure overhead; override with
/// `PAR_FORCE_POOL=1` / [`crate::set_force_pool`]), or when called
/// from inside another `par_map` lane (nested maps on the single
/// global pool would deadlock; see the module docs). Output is
/// bit-identical either way.
///
/// # Panics
///
/// Re-raises the first panic from `f` after every lane has finished
/// (so borrows stay sound).
pub fn par_map<T, R, F>(kind: &str, items: &[T], f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(&T) -> R + Sync,
{
    par_map_slots(kind, items, f, |_| false)
        .into_iter()
        .map(|slot| slot.expect("every index was claimed"))
        .collect()
}

/// Fallible [`par_map`]: returns the *lowest-index* error, regardless
/// of which lane hit an error first in wall-clock time — the same error
/// a serial `.map(...).collect::<Result<_, _>>()` would surface.
///
/// Short-circuits: once any lane observes an `Err`, no new indices are
/// claimed (in-flight items finish). Indices are claimed in order, so
/// every skipped item has a higher index than some computed error, and
/// the lowest-index-error contract is unaffected.
///
/// # Errors
///
/// The error of the lowest-index failing item.
pub fn try_par_map<T, R, E, F>(kind: &str, items: &[T], f: F) -> Result<Vec<R>, E>
where
    T: Sync,
    R: Send,
    E: Send,
    F: Fn(&T) -> Result<R, E> + Sync,
{
    let slots = par_map_slots(kind, items, f, Result::is_err);
    let mut out = Vec::with_capacity(slots.len());
    for slot in slots {
        match slot {
            Some(Ok(r)) => out.push(r),
            Some(Err(e)) => return Err(e),
            // Skipped slots strictly trail the error that set the stop
            // flag, and the in-order scan returns at that error first.
            None => unreachable!("slot skipped without a preceding error"),
        }
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{set_force_pool, set_threads, test_threads_lock, workers};

    #[test]
    fn results_are_in_input_order() {
        let _g = test_threads_lock();
        set_threads(4);
        set_force_pool(true);
        let items: Vec<usize> = (0..257).collect();
        let out = par_map("test.order", &items, |&i| i * 2);
        assert_eq!(out, items.iter().map(|i| i * 2).collect::<Vec<_>>());
        set_threads(1);
        let serial = par_map("test.order", &items, |&i| i * 2);
        assert_eq!(out, serial);
    }

    #[test]
    fn empty_and_single_item_inputs() {
        let empty: Vec<u32> = vec![];
        assert!(par_map("test.empty", &empty, |&x| x).is_empty());
        assert_eq!(par_map("test.one", &[7u32], |&x| x + 1), vec![8]);
    }

    #[test]
    fn par_threads_one_never_touches_pool() {
        // The PAR_THREADS=1 regression contract: the serial path must
        // involve no pool at all — no worker spawns, no job submission,
        // no latch — so a 1-thread par_map has no overhead beyond the
        // plain loop. Worker count not growing is the observable proxy
        // (workers never exit, so any fan-out would raise it).
        let _g = test_threads_lock();
        set_threads(1);
        let before = workers();
        let items: Vec<usize> = (0..512).collect();
        let out = par_map("test.serial", &items, |&i| i + 1);
        assert_eq!(out[511], 512);
        assert_eq!(workers(), before, "PAR_THREADS=1 must stay off the pool");
    }

    #[test]
    fn one_core_host_clamps_to_serial() {
        // The BENCH_compute 0.89x fix: threads > 1 on a 1-core host must
        // take the serial path (lanes cannot overlap, fan-out is pure
        // overhead) unless the pool is explicitly forced. Only
        // observable on an actual 1-core host.
        if crate::host_parallelism() != 1 {
            return;
        }
        let _g = test_threads_lock();
        set_force_pool(false);
        set_threads(4);
        let before = workers();
        let items: Vec<usize> = (0..64).collect();
        let out = par_map("test.clamp", &items, |&i| i * 2);
        assert_eq!(out[63], 126);
        assert_eq!(workers(), before, "1-core host must clamp to serial");
        // Forcing the pool re-enables fan-out (the determinism gates
        // rely on this to exercise pool scheduling on 1-core CI).
        set_force_pool(true);
        let out = par_map("test.clamp.forced", &items, |&i| i * 2);
        assert_eq!(out[63], 126);
        assert!(workers() >= 3, "forced pool must spawn workers");
    }

    #[test]
    fn nested_maps_run_serially_without_deadlock() {
        let _g = test_threads_lock();
        set_threads(4);
        set_force_pool(true);
        // Before the lane flag, every worker plus the caller blocked in
        // an outer lane's latch while the inner jobs sat queued behind
        // them — a permanent pool-wide deadlock. Nested maps now take
        // the serial path, so this completes (and stays in input order).
        let items: Vec<usize> = (0..16).collect();
        let out = par_map("test.nest.outer", &items, |&i| {
            let inner: Vec<usize> = (0..8).collect();
            par_map("test.nest.inner", &inner, |&j| i * 100 + j)
                .into_iter()
                .sum::<usize>()
        });
        let want: Vec<usize> = (0..16).map(|i| 8 * 100 * i + 28).collect();
        assert_eq!(out, want);
        // The flag is scoped to lanes: a later top-level map still
        // fans out on the pool.
        let again = par_map("test.nest.after", &items, |&i| i + 1);
        assert_eq!(again[15], 16);
    }

    #[test]
    fn try_map_returns_lowest_index_error() {
        let _g = test_threads_lock();
        set_threads(4);
        set_force_pool(true);
        let items: Vec<usize> = (0..100).collect();
        // Items 30 and 70 fail; the error must always be 30's.
        let r = try_par_map("test.err", &items, |&i| {
            if i == 30 || i == 70 {
                Err(format!("bad {i}"))
            } else {
                Ok(i)
            }
        });
        assert_eq!(r.unwrap_err(), "bad 30");
        let ok: Result<Vec<usize>, String> =
            try_par_map("test.err", &items[..20], |&i| Ok(i));
        assert_eq!(ok.unwrap(), (0..20).collect::<Vec<_>>());
    }

    #[test]
    fn try_map_short_circuits_after_error() {
        let _g = test_threads_lock();
        // Serial path: deterministic call count — items past the first
        // error are never evaluated.
        set_threads(1);
        let calls = AtomicUsize::new(0);
        let items: Vec<usize> = (0..100).collect();
        let r = try_par_map("test.stop", &items, |&i| {
            calls.fetch_add(1, Ordering::Relaxed);
            if i == 3 { Err("boom") } else { Ok(i) }
        });
        assert_eq!(r.unwrap_err(), "boom");
        assert_eq!(calls.load(Ordering::Relaxed), 4);
        // Parallel path: in-flight items may still finish, but lanes
        // stop claiming once the error is seen, so with an error at
        // index 0 not all 100 items get evaluated.
        set_threads(4);
        let calls = AtomicUsize::new(0);
        let r = try_par_map("test.stop", &items, |&i| {
            calls.fetch_add(1, Ordering::Relaxed);
            if i == 0 { Err("first") } else { Ok(i) }
        });
        assert_eq!(r.unwrap_err(), "first");
        assert!(calls.load(Ordering::Relaxed) <= 100);
    }

    #[test]
    fn panics_propagate_to_caller() {
        let _g = test_threads_lock();
        set_threads(4);
        set_force_pool(true);
        let items: Vec<usize> = (0..64).collect();
        let caught = catch_unwind(AssertUnwindSafe(|| {
            par_map("test.panic", &items, |&i| {
                assert!(i != 40, "lane panic");
                i
            })
        }));
        assert!(caught.is_err());
        // The pool survives a panicking map and keeps working.
        let out = par_map("test.panic", &items, |&i| i + 1);
        assert_eq!(out[63], 64);
    }
}
