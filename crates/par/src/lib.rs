//! Std-only data parallelism for the wire-timing workspace.
//!
//! The four hot loops of the stack — per-net golden simulation in
//! dataset building, per-graph forward/backward in training, per-net
//! inference in serving, and the `*D_NET` shards of a large SPEF
//! document in parsing — are all *embarrassingly parallel over
//! independent graphs*. This crate gives them one shared substrate:
//!
//! * a **process-global worker pool** (plain `std::thread` + condvar,
//!   lazily spawned, reused across calls) sized by
//!   `available_parallelism`, overridable with the `PAR_THREADS`
//!   environment variable (`PAR_THREADS=1` forces the fully serial
//!   code path: no pool, no worker threads, no atomics in the loop);
//! * [`par_map`] / [`try_par_map`], whose results come back **in input
//!   order** regardless of scheduling, so every downstream reduction
//!   (scaler fitting, gradient accumulation, response rendering) is
//!   bit-identical to the serial run — the determinism contract the
//!   dataset and training tests pin down;
//! * obs wiring: `par.threads` and `par.queue_depth` gauges, a
//!   `par.tasks{kind}` counter and a `par.task_seconds{kind}` latency
//!   histogram per task kind, all visible in run reports and the serve
//!   `/metrics` endpoint.
//!
//! ```
//! par::set_threads(2);
//! let squares = par::par_map("doc.square", &[1, 2, 3], |x| x * x);
//! assert_eq!(squares, vec![1, 4, 9]);
//! ```
//!
//! Why std-only: the build environment is offline (no rayon), and the
//! workloads are coarse-grained — one task is an entire MNA transient
//! simulation or a full forward/backward pass — so a simple injector
//! queue with an atomic claim counter already keeps every core busy;
//! a work-stealing deque would add complexity without measurable win.

mod map;
mod pool;

pub use map::{par_map, try_par_map};

use std::sync::atomic::{AtomicUsize, Ordering};

/// 0 = not yet resolved; otherwise the effective thread count.
static THREADS: AtomicUsize = AtomicUsize::new(0);

/// Parses a `PAR_THREADS` value; `None`/malformed/`0` fall back to
/// `available_parallelism`.
pub fn resolve_threads(env: Option<&str>) -> usize {
    if let Some(raw) = env {
        match raw.trim().parse::<usize>() {
            Ok(n) if n >= 1 => return n,
            _ => {
                obs::event!(
                    obs::Level::Warn,
                    "par",
                    "ignoring malformed PAR_THREADS",
                    value = raw,
                );
            }
        }
    }
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}

/// The effective parallelism: the `PAR_THREADS` environment variable
/// when set and valid, otherwise `available_parallelism`, resolved once
/// on first call (later [`set_threads`] calls override it).
pub fn threads() -> usize {
    let cur = THREADS.load(Ordering::Acquire);
    if cur != 0 {
        return cur;
    }
    let n = resolve_threads(std::env::var("PAR_THREADS").ok().as_deref());
    // On a racing first call the winner's value sticks; both racers
    // resolved the same inputs, so the loser's value is identical.
    let _ = THREADS.compare_exchange(0, n, Ordering::AcqRel, Ordering::Acquire);
    let eff = THREADS.load(Ordering::Acquire);
    obs::gauge("par.threads").set(eff as f64);
    eff
}

/// Number of pool worker threads spawned so far (the calling thread of
/// a `par_map` always participates as one extra lane on top of these).
/// Benchmarks and run reports record it alongside `par.threads`.
pub fn workers() -> usize {
    pool::Pool::global().worker_count()
}

/// Overrides the effective parallelism for this process (minimum 1).
/// Used by benchmarks and determinism tests to compare `1` against `N`
/// without re-execing; production code should prefer `PAR_THREADS`.
pub fn set_threads(n: usize) {
    let n = n.max(1);
    THREADS.store(n, Ordering::Release);
    obs::gauge("par.threads").set(n as f64);
}

/// The machine's actual core count (`available_parallelism`), resolved
/// once. Unlike [`threads`] this ignores `PAR_THREADS`/[`set_threads`]:
/// it answers "can lanes physically overlap?", which gates the 1-core
/// serial clamp in `par_map`.
pub fn host_parallelism() -> usize {
    static HOST: std::sync::OnceLock<usize> = std::sync::OnceLock::new();
    *HOST.get_or_init(|| {
        std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1)
    })
}

/// 0 = not yet resolved; 1 = clamp active (default); 2 = pool forced.
static FORCE_POOL: AtomicUsize = AtomicUsize::new(0);

/// Parses a `PAR_FORCE_POOL` value: `1`/`true` (any case) force the
/// pool, anything else leaves the 1-core clamp active.
pub fn resolve_force_pool(env: Option<&str>) -> bool {
    env.map(|v| {
        let t = v.trim();
        t == "1" || t.eq_ignore_ascii_case("true")
    })
    .unwrap_or(false)
}

/// Whether `par_map` must fan out on the pool even when the host has a
/// single core. Defaults to the `PAR_FORCE_POOL` environment variable
/// (resolved once); determinism tests flip it with [`set_force_pool`]
/// so pool scheduling stays exercised on 1-core CI hosts.
pub fn force_pool() -> bool {
    let cur = FORCE_POOL.load(Ordering::Acquire);
    if cur != 0 {
        return cur == 2;
    }
    let on = resolve_force_pool(std::env::var("PAR_FORCE_POOL").ok().as_deref());
    let _ = FORCE_POOL.compare_exchange(
        0,
        if on { 2 } else { 1 },
        Ordering::AcqRel,
        Ordering::Acquire,
    );
    FORCE_POOL.load(Ordering::Acquire) == 2
}

/// Overrides the [`force_pool`] flag for this process (tests and
/// benchmarks that must exercise pool scheduling on a 1-core host).
pub fn set_force_pool(on: bool) {
    FORCE_POOL.store(if on { 2 } else { 1 }, Ordering::Release);
}

/// Serializes tests (within this crate) that change the global thread
/// count, so parallel test threads cannot interleave overrides.
#[cfg(test)]
pub(crate) static TEST_THREADS_GUARD: std::sync::Mutex<()> = std::sync::Mutex::new(());

#[cfg(test)]
pub(crate) fn test_threads_lock() -> std::sync::MutexGuard<'static, ()> {
    TEST_THREADS_GUARD
        .lock()
        .unwrap_or_else(|e| e.into_inner())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn resolve_prefers_valid_env() {
        assert_eq!(resolve_threads(Some("3")), 3);
        assert_eq!(resolve_threads(Some(" 7 ")), 7);
        let hw = std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1);
        assert_eq!(resolve_threads(None), hw);
        assert_eq!(resolve_threads(Some("0")), hw);
        assert_eq!(resolve_threads(Some("lots")), hw);
        assert_eq!(resolve_threads(Some("-2")), hw);
    }

    #[test]
    fn resolve_force_pool_parses_truthy_values() {
        assert!(resolve_force_pool(Some("1")));
        assert!(resolve_force_pool(Some(" true ")));
        assert!(resolve_force_pool(Some("TRUE")));
        assert!(!resolve_force_pool(Some("0")));
        assert!(!resolve_force_pool(Some("yes")));
        assert!(!resolve_force_pool(None));
    }

    #[test]
    fn set_threads_clamps_to_one() {
        let _g = test_threads_lock();
        set_threads(0);
        assert_eq!(threads(), 1);
        set_threads(2);
        assert_eq!(threads(), 2);
    }
}
