//! `eco_stream`: one optimizer driving a resident `eco::DesignSession`.
//!
//! Each op is one random move (driver resize, sink-load change, buffer
//! insertion, wire R or C tweak) applied as a single-edit batch, then a
//! `timing_summary()`. A seeded half of the moves are rejected and
//! rolled back to the previous epoch, as an optimizer does.
//!
//! Every `RESTART_EVERY` moves the optimizer restarts, untimed, from the
//! next of `DESIGNS` designs as generated in set-up, through a fresh
//! cache. Without restarts a move slowed by a third over a 12 s window,
//! as kept buffer insertions grew the design and the cache filled: a
//! faster program would make more moves, reach a larger state, and read
//! slower per move. Four designs rather than one halve how much the
//! move cost moves with the seed.

use crate::common::{accuracy, fail, ms_p50_p99, setup_with_model, spef, sub_seed, Params};
use crate::metrics::Outcome;
use crate::probe;
use crate::spans::{span, Spans};
use eco::design::from_netgen;
use eco::{CacheStats, DesignSession, EcoEdit, PredictionCache, RetimeStats};
use gnntrans::WireTimingEstimator;
use rcnet::{RcNet, Seconds};
use sta::netlist::{NetTiming, Netlist};
use std::cell::RefCell;
use std::time::Instant;

/// Moves from one restart of the optimizer to the next.
const RESTART_EVERY: u64 = 256;
/// DMA instances the restarts cycle through.
const DESIGNS: usize = 4;

/// Splitmix64: the workload owns its randomness.
fn mix(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

fn pick<T: Copy>(items: &[T], rng: &mut u64) -> T {
    items[(mix(rng) % items.len() as u64) as usize]
}

/// One random, valid single-net edit against the current design (the
/// move set of the `eco` bench bin).
fn random_edit(nl: &Netlist, rng: &mut u64) -> EcoEdit {
    const CELLS: [&str; 5] = ["BUF_X1", "BUF_X2", "BUF_X4", "INV_X1", "INV_X2"];
    loop {
        let ni = &nl.nets()[(mix(rng) % nl.nets().len() as u64) as usize];
        let net = ni.rc.name().to_string();
        let sink = |rng: &mut u64| ni.rc.node(pick(ni.rc.sinks(), rng)).name.clone();
        return match mix(rng) % 8 {
            0..=1 if ni.driver.is_none() => continue,
            0..=1 => EcoEdit::ResizeDriver {
                net,
                cell: pick(&CELLS, rng).into(),
            },
            2..=4 => EcoEdit::SetSinkLoad {
                sink: sink(rng),
                net,
                ceff_ff: 0.5 + (mix(rng) % 50) as f64 / 10.0,
            },
            5 => EcoEdit::InsertBuffer {
                sink: sink(rng),
                net,
                cell: "BUF_X2".into(),
            },
            6 => {
                let edges: Vec<_> = ni.rc.iter_edges().collect();
                let (_, e) = pick(&edges, rng);
                EcoEdit::SetResistance {
                    a: ni.rc.node(e.a).name.clone(),
                    b: ni.rc.node(e.b).name.clone(),
                    net,
                    ohms: 1.0 + (mix(rng) % 200) as f64,
                }
            }
            _ => {
                let nodes: Vec<_> = ni.rc.iter_nodes().collect();
                let (_, node) = pick(&nodes, rng);
                EcoEdit::SetCap {
                    node: node.name.clone(),
                    net,
                    ff: 0.1 + (mix(rng) % 80) as f64 / 10.0,
                }
            }
        };
    }
}

/// Largest |a - b| over every sink arrival and slew, seconds.
fn max_abs_diff(a: &[NetTiming], b: &[NetTiming]) -> f64 {
    if a.len() != b.len() {
        return f64::INFINITY;
    }
    let mut worst = 0.0_f64;
    for (x, y) in a.iter().zip(b) {
        if x.at_sinks.len() != y.at_sinks.len() {
            return f64::INFINITY;
        }
        for (&(at_x, sl_x), &(at_y, sl_y)) in x.at_sinks.iter().zip(&y.at_sinks) {
            worst = worst
                .max((at_x.value() - at_y.value()).abs())
                .max((sl_x.value() - sl_y.value()).abs());
        }
    }
    worst
}

/// The optimizer's state since its last (re)start.
struct Live {
    session: DesignSession,
    cache: PredictionCache,
    /// The cache's counters once the load's full re-time was done.
    loaded: CacheStats,
}

impl Live {
    /// `nl` in a new session with a new cache, timed in full.
    fn load(nl: Netlist, est: &WireTimingEstimator) -> Result<Self, String> {
        let cache = PredictionCache::new(8, 32 << 20);
        let mut session = DesignSession::new("wtbench", nl, Seconds::from_ps(20.0));
        session
            .full_retime(est, 1, &cache)
            .map_err(fail("full re-time"))?;
        Ok(Live {
            loaded: cache.stats(),
            session,
            cache,
        })
    }

    /// Cache hits and misses of the moves since the load.
    fn cache_counts(&self) -> (u64, u64) {
        let now = self.cache.stats();
        (now.hits - self.loaded.hits, now.misses - self.loaded.misses)
    }
}

/// Per-op numbers a traced run reports as details.
#[derive(Default)]
struct Effort {
    stats: Vec<RetimeStats>,
    dirty: Vec<f64>,
    summary_s: Vec<f64>,
    rollback_s: Vec<f64>,
}

pub fn run(workload: &str, p: &Params) -> Outcome {
    let mut out = Outcome::default();
    let setup = setup_with_model(p, workload, |est| {
        let designs = (0..p.pick(DESIGNS, 1))
            .map(|i| from_netgen("DMA", p.pick(0.05, 0.002), sub_seed(p.seed, i)))
            .collect::<Result<Vec<_>, _>>()
            .map_err(fail("build design"))?;
        let live = Live::load(designs[0].clone(), &est)?;
        Ok((est, designs, live))
    });
    let ((est, designs, live), setup_times) = match setup {
        Ok(s) => s,
        Err(e) => {
            out.gate(false, || e);
            return out;
        }
    };
    let probe_nets: Vec<RcNet> = designs[0].nets().iter().map(|n| n.rc.clone()).collect();

    let mut rng = p.seed.wrapping_mul(0x9e37_79b9_7f4a_7c15) | 1;
    let mut verdicts = p.seed ^ 0xec0_5eed;
    let mut effort = Effort::default();
    let mut restart_error = None;
    // Cache hits and misses of the moves before the last restart.
    let mut counted = (0, 0);
    let spans = p.trace.then(Spans::new);
    // The moves change the state; the restarts between them replace it.
    let live = RefCell::new(live);
    let samples = crate::common::closed_loop(
        p,
        spans.as_ref(),
        |k, traced| {
            let Live { session, cache, .. } = &mut *live.borrow_mut();
            let edit = random_edit(session.netlist(), &mut rng);
            let prev = session.epoch();
            let report = {
                let _s = span(traced, "eco.apply", k);
                session.apply(std::slice::from_ref(&edit), &est, 1, cache)
            }
            .map_err(fail("apply"))?;
            let t0 = Instant::now();
            let summary = {
                let _s = span(traced, "eco.timing_summary", k);
                session.timing_summary()
            };
            let summary_s = t0.elapsed().as_secs_f64();
            if summary.epoch != prev + 1 || summary.critical.is_none() {
                return Err(format!("summary after move {k}: epoch {}", summary.epoch));
            }
            if mix(&mut verdicts).is_multiple_of(2) {
                let t0 = Instant::now();
                {
                    let _s = span(traced, "eco.rollback", k);
                    session.rollback(prev)
                }
                .map_err(fail("rollback"))?;
                if p.trace {
                    effort.rollback_s.push(t0.elapsed().as_secs_f64());
                }
            }
            if p.trace {
                effort.stats.push(report.stats);
                effort.dirty.push(report.dirty_nets.len() as f64);
                effort.summary_s.push(summary_s);
            }
            Ok(())
        },
        |k| {
            if (k + 1) % RESTART_EVERY == 0 {
                let next = &designs[((k + 1) / RESTART_EVERY) as usize % designs.len()];
                match Live::load(next.clone(), &est) {
                    Ok(fresh) => {
                        let (hits, misses) = live.replace(fresh).cache_counts();
                        counted = (counted.0 + hits, counted.1 + misses);
                    }
                    Err(e) => restart_error = Some(e),
                }
            }
        },
    );
    out.gate(samples.failed == 0, || {
        format!("{} moves failed", samples.failed)
    });
    if let Some(e) = restart_error {
        out.gate(false, || format!("restart: {e}"));
    }
    // Tail p90, as the other closed loops: p95 and p99 moved with the
    // seed's move mix (README, Repeatability).
    samples.report(workload, &setup_times, 0.90, &mut out);
    let live = live.into_inner();
    let (hits, misses) = live.cache_counts();
    let (hits, misses) = (counted.0 + hits, counted.1 + misses);

    // Oracle: a cold re-time of the final design through a fresh cache
    // must reproduce the incrementally maintained timing.
    let mut session = live.session;
    let incremental = session.all_timing().to_vec();
    match session.full_retime(&est, 1, &PredictionCache::new(8, 32 << 20)) {
        Ok(_) => {
            let gap = max_abs_diff(&incremental, session.all_timing());
            out.gate(gap <= 1e-9, || {
                format!("incremental vs cold re-time differ by {gap:.3e} s")
            });
        }
        Err(e) => out.gate(false, || format!("cold re-time: {e}")),
    }

    if p.trace {
        let ms = |f: fn(&RetimeStats) -> f64| {
            ms_p50_p99(&effort.stats.iter().map(f).collect::<Vec<_>>())
        };
        let (predict_p50, predict_p99) = ms(|s| s.predict_s);
        out.detail("eco.dirty_set_ms_p50", ms(|s| s.dirty_set_s).0);
        out.detail("eco.cache_lookup_ms_p50", ms(|s| s.cache_lookup_s).0);
        out.detail("eco.predict_ms_p50", predict_p50);
        out.detail("eco.predict_ms_p99", predict_p99);
        out.detail("eco.propagate_ms_p50", ms(|s| s.propagate_s).0);
        let mean = |v: &[f64]| v.iter().sum::<f64>() / v.len().max(1) as f64;
        out.detail("eco.dirty_nets_mean", mean(&effort.dirty));
        let retimed: Vec<f64> = effort.stats.iter().map(|s| s.nets_retimed as f64).collect();
        out.detail("eco.nets_retimed_mean", mean(&retimed));
        out.detail(
            "eco.cache_hit_share",
            hits as f64 / (hits + misses).max(1) as f64,
        );
        out.detail("eco.rollback_ms_p50", ms_p50_p99(&effort.rollback_s).0);
        out.detail("eco.summary_ms_p50", ms_p50_p99(&effort.summary_s).0);
    }
    accuracy(&est, p, 0.9, &mut out);
    if p.trace {
        probe::run(&est, &[spef(&probe_nets)], p, &mut out);
        crate::write_spans(spans.as_ref(), workload, p, &mut out);
    }
    out
}
