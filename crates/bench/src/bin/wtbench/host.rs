//! Host-speed calibration of the end-to-end times.
//!
//! Each core of the reference host (2 vCPUs of a shared Xeon VM) flips
//! between a fast phase and one about 1.4x slower every few tens of
//! milliseconds, independently of the other core. The slow share of
//! the time drifts from under 10% to over 70% from one minute to the
//! next. So raw wall times of one input swing by up to 45% between runs,
//! and no statistic of a 12 s window removes a drift that outlasts it.
//!
//! Each run therefore interleaves a probe, fixed kernels of this
//! benchmark (never of the program under test), with its measured ops:
//! [`probe`] after every op of a closed loop and back to back for
//! 10–100 ms before each set-up and after the last, and the shorter
//! [`probe_compute`] in a gap of the open loop's schedule every 64 ms.
//! [`probe`] times two kernels, a small matrix product in L1 and a
//! matrix-vector product streamed from beyond L2: the host slows them
//! by different amounts, and calibrating by both left less spread than
//! by the small one alone. A probe times one thread per
//! core, even for ops that run on one thread: those tracked the
//! two-core probe and not a probe of their own core. The probes run
//! while the program is idle, so they time the host, not the program's
//! load. Each
//! op's time is scaled by [`NOMINAL_S`] over the median of the three
//! probes nearest it in time, and each set-up's time by [`NOMINAL_S`]
//! over the median of the probe blocks on either side of it. The result reads as time on the
//! reference host while quiet. A change to the program moves the op
//! times but not the probes, so it moves the calibrated times in full.
//!
//! The probes cannot see the hypervisor taking a core away for
//! milliseconds at a time (steal time): a 0.25 ms probe rarely lands in
//! such a gap. A busy closed loop barely notices, but an open loop's
//! requests queue behind each gap, and its p90 in a 1 s window with 5%
//! steal reads 2–6x the quiet value. So the open loop also reads the
//! machine's steal counter ([`cpu_ticks`]) once a second, and keeps only
//! windows with at most [`QUIET_STEAL`] of the CPU time stolen.

use crate::metrics::median;
use std::hint::black_box;
use std::sync::OnceLock;
use std::time::{Duration, Instant};

/// Median of [`probe_compute`] (and so of [`probe`]) on the reference
/// host while quiet (slow share under 10%), seconds.
pub const NOMINAL_S: f64 = 0.000_25;

/// `(start, seconds)` of each op, scaled to the reference host's typical
/// speed by the probes (ascending by start) nearest each op: the last
/// one before it and the two after it.
pub fn calibrate(ops: &[(Instant, f64)], probes: &[(Instant, f64)]) -> Vec<f64> {
    ops.iter()
        .map(|&(start, seconds)| {
            let i = probes.partition_point(|p| p.0 < start);
            let near: Vec<f64> = probes[i.saturating_sub(1)..(i + 2).min(probes.len())]
                .iter()
                .map(|p| p.1)
                .collect();
            seconds * NOMINAL_S / median(&near)
        })
        .collect()
}

/// Median of the wide kernel ([`time_wide`]) on the reference host while
/// quiet, seconds: [`NOMINAL_S`] times the median ratio of the two
/// kernels' times on that host (1.8).
const NOMINAL_WIDE_S: f64 = 0.000_45;

const N: usize = 48;

/// `reps` rounds of `c += a * a` (N x N, f32) each followed by an FNV
/// hash of `c`'s bits into `h`.
fn kernel(a: &[f32], c: &mut [f32], h: &mut u64, reps: u64) {
    for rep in 0..reps {
        for i in 0..N {
            for k in 0..N {
                let aik = a[i * N + k];
                for j in 0..N {
                    c[i * N + j] += aik * a[k * N + j];
                }
            }
        }
        for (i, v) in c.iter().enumerate() {
            *h = (*h ^ (u64::from(v.to_bits()) + i as u64 + rep)).wrapping_mul(0x100_0000_01b3);
        }
    }
}

/// Runs the reference kernel (about 0.25 ms) and returns its wall time
/// in seconds. One untimed round first brings code and data into the
/// caches, so the time does not depend on what the op before it left
/// there.
fn time_kernel() -> f64 {
    let a: Vec<f32> = black_box((0..N * N).map(|i| (i % 7) as f32 * 0.1).collect());
    let mut c = vec![0f32; N * N];
    let mut h = 0xcbf2_9ce4_8422_2325_u64;
    kernel(&a, &mut c, &mut h, 1);
    let t0 = Instant::now();
    kernel(&a, &mut c, &mut h, 8);
    let t = t0.elapsed().as_secs_f64();
    black_box((c, h));
    t
}

/// Rows (and columns) of the wide kernel's matrix: 2.25 MiB of f32,
/// more than a core's L2 cache.
const WIDE: usize = 768;
/// Columns of the vectors it multiplies.
const WIDE_COLS: usize = 8;

fn cores() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

static WIDE_MATRICES: OnceLock<Vec<Vec<f32>>> = OnceLock::new();

/// One `WIDE` x `WIDE` matrix per core, written once, so its pages are
/// resident before any probe times it.
fn wide_matrices() -> &'static [Vec<f32>] {
    WIDE_MATRICES.get_or_init(|| {
        (0..cores())
            .map(|c| {
                (0..WIDE * WIDE)
                    .map(|i| ((i + c) % 13) as f32 * 0.01)
                    .collect()
            })
            .collect()
    })
}

/// Bytes the probe keeps resident: the wide kernel's matrices, once a
/// probe has run. `peak_rss_mb` leaves them out.
pub fn resident_bytes() -> usize {
    WIDE_MATRICES.get().map_or(0, |m| {
        m.iter().map(|a| a.len() * std::mem::size_of::<f32>()).sum()
    })
}

/// `y = A x` with core `core`'s matrix `A` and `WIDE_COLS` columns, the
/// shape of a dense aggregation over a large net; returns its wall time
/// in seconds. It streams the matrix from beyond L2, where the
/// reference kernel stays in L1.
fn time_wide(core: usize) -> f64 {
    let a = &wide_matrices()[core];
    let x: Vec<[f32; WIDE_COLS]> = (0..WIDE)
        .map(|k| std::array::from_fn(|j| ((k * WIDE_COLS + j) % 5) as f32))
        .collect();
    let mut y = vec![[0f32; WIDE_COLS]; WIDE];
    let t0 = Instant::now();
    for (yi, row) in y.iter_mut().zip(a.chunks_exact(WIDE)) {
        // A local accumulator stays in registers; summing into `yi`
        // itself compiled to a loop 3x slower, through memory.
        let mut acc = [0f32; WIDE_COLS];
        for (aik, xk) in row.iter().zip(&x) {
            for (s, xj) in acc.iter_mut().zip(xk) {
                *s += aik * xj;
            }
        }
        *yi = acc;
    }
    let t = t0.elapsed().as_secs_f64();
    black_box(y);
    t
}

/// Runs `time(core)` on every core at once; the calling thread is core
/// 0. The cores change phase independently, so this returns the time at
/// their combined rate: the harmonic mean of the times.
fn on_every_core(time: fn(usize) -> f64) -> f64 {
    let times: Vec<f64> = std::thread::scope(|s| {
        let others: Vec<_> = (1..cores()).map(|c| s.spawn(move || time(c))).collect();
        let mine = time(0);
        let others = others
            .into_iter()
            .map(|h| h.join().expect("probe thread panicked"));
        std::iter::once(mine).chain(others).collect()
    });
    times.len() as f64 / times.iter().map(|t| 1.0 / t).sum::<f64>()
}

/// The host's speed: the reference kernel and then the wide kernel on
/// every core, combined as the geometric mean of their slowdowns and
/// stated in the reference kernel's seconds (so [`NOMINAL_S`] is its
/// quiet value). The two slow down by different amounts as the host
/// changes; the programs' ops mix both kinds of work.
pub fn probe() -> f64 {
    let compute = probe_compute();
    let wide = on_every_core(time_wide);
    (compute * wide * NOMINAL_S / NOMINAL_WIDE_S).sqrt()
}

/// The reference kernel alone on every core (about 0.25 ms): short
/// enough for the gaps of `serve_predict`'s schedule.
pub fn probe_compute() -> f64 {
    on_every_core(|_| time_kernel())
}

/// Largest share of the machine's CPU time stolen by the hypervisor in
/// a quiet 1 s window. Quiet stretches of the reference host read 0–2%.
pub const QUIET_STEAL: f64 = 0.02;

/// The machine's CPU time counters, summed over its CPUs, from the first
/// line of `/proc/stat`: `(steal, total)` in clock ticks. `None` where
/// the file is missing or malformed; then no time counts as stolen.
pub fn cpu_ticks() -> Option<(u64, u64)> {
    let stat = std::fs::read_to_string("/proc/stat").ok()?;
    let ticks: Vec<u64> = stat
        .lines()
        .next()?
        .split_whitespace()
        .skip(1)
        .take(8)
        .map(|t| t.parse().ok())
        .collect::<Option<_>>()?;
    (ticks.len() == 8).then(|| (ticks[7], ticks.iter().sum()))
}

/// Share of the CPU time between two [`cpu_ticks`] readings that the
/// hypervisor gave to other guests.
pub fn steal_share(from: Option<(u64, u64)>, to: Option<(u64, u64)>) -> f64 {
    match (from, to) {
        (Some((s0, t0)), Some((s1, t1))) if t1 > t0 => {
            s1.saturating_sub(s0) as f64 / (t1 - t0) as f64
        }
        _ => 0.0,
    }
}

/// Probes on every core back to back for `d` (at least once).
pub fn probe_block(d: Duration) -> Vec<f64> {
    let t0 = Instant::now();
    let mut times = vec![probe()];
    while t0.elapsed() < d {
        times.push(probe());
    }
    times
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn each_op_is_scaled_by_the_probes_around_it() {
        let t0 = Instant::now();
        let at = |ms: u64| t0 + Duration::from_millis(ms);
        // The host runs at nominal speed, then half as fast.
        let probes =
            [0, 10, 20, 30].map(|ms| (at(ms), NOMINAL_S * if ms < 20 { 1.0 } else { 2.0 }));
        let ops = [(at(5), 1.0), (at(15), 1.0), (at(40), 1.0)];
        // Probes 0, 10, 20 ms; then 10, 20, 30 ms; then only 30 ms.
        let want = [1.0, 0.5, 0.5];
        for (got, want) in calibrate(&ops, &probes).iter().zip(want) {
            assert!((got - want).abs() < 1e-12, "{got} vs {want}");
        }
    }
}
