//! Incremental ECO engine benchmark: resident sessions vs cold re-times.
//!
//! For each design size, loads a netgen design into an
//! [`eco::DesignSession`], measures the median *cold* full re-time
//! (fresh session, fresh prediction cache), then streams single-edit
//! ECO batches through a warm session and measures the median
//! *incremental* apply. Every second edit is rejected, as an optimizer
//! rejects moves, and rolled back to its pre-edit epoch. Writes
//! `BENCH_eco.json` with edits/sec, the median apply and rollback, cache
//! hit rate and the incremental-vs-full speedup per size.
//!
//! ```text
//! cargo run -p bench --release --bin eco [-- --edits N --seed S \
//!     --out PATH --smoke]
//! ```
//!
//! Correctness gates (both modes): after each rollback the session's
//! timing must equal its pre-edit timing bit for bit; after the whole
//! stream, a cold full re-time of a fresh session that replayed only
//! the kept edits must agree with the incrementally-maintained solution
//! to ≤1e-9 s. Performance gate (full mode): the medium design's
//! speedup must be ≥5x — the acceptance bar for an optimizer-in-the-loop
//! workload.

use bench::flags::Flags;
use bench::report::{report, Obj};
use bench::timing::{median, percentile};
use eco::design::from_netgen;
use eco::{DesignSession, EcoEdit, PredictionCache};
use rcnet::Seconds;
use sta::netlist::{NetTiming, Netlist};
use std::collections::HashMap;
use std::time::Instant;

struct Args {
    edits: usize,
    seed: u64,
    out: String,
    smoke: bool,
}

fn parse_args() -> Args {
    let mut flags = Flags::from_env("incremental ECO sessions vs cold re-times");
    let args = Args {
        edits: flags
            .value("--edits", 64, "single-edit ECO batches per size")
            .max(4),
        seed: flags.value("--seed", 2023, "design + edit-stream seed"),
        out: flags.value("--out", "BENCH_eco.json".to_string(), "result file"),
        smoke: flags.switch("--smoke", "small sizes + agreement gate only, for CI"),
    };
    flags.finish();
    args
}

/// Splitmix64 so the bench owns its randomness.
fn mix(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// One random, valid single-net edit against the current design state.
/// Mirrors the optimizer move set: driver resize, load change, buffer
/// insertion, wire RC tweaks.
fn random_edit(nl: &Netlist, rng: &mut u64) -> EcoEdit {
    const CELLS: [&str; 5] = ["BUF_X1", "BUF_X2", "BUF_X4", "INV_X1", "INV_X2"];
    loop {
        let i = (mix(rng) % nl.nets().len() as u64) as usize;
        let ni = &nl.nets()[i];
        let net = ni.rc.name().to_string();
        match mix(rng) % 8 {
            0..=1 => {
                if ni.driver.is_none() {
                    continue;
                }
                let cell = CELLS[(mix(rng) % CELLS.len() as u64) as usize];
                return EcoEdit::ResizeDriver { net, cell: cell.into() };
            }
            2..=4 => {
                let sinks = ni.rc.sinks();
                let sid = sinks[(mix(rng) % sinks.len() as u64) as usize];
                return EcoEdit::SetSinkLoad {
                    net,
                    sink: ni.rc.node(sid).name.clone(),
                    ceff_ff: 0.5 + (mix(rng) % 50) as f64 / 10.0,
                };
            }
            5 => {
                let sinks = ni.rc.sinks();
                let sid = sinks[(mix(rng) % sinks.len() as u64) as usize];
                return EcoEdit::InsertBuffer {
                    net,
                    sink: ni.rc.node(sid).name.clone(),
                    cell: "BUF_X2".into(),
                };
            }
            6 => {
                let edges: Vec<_> = ni.rc.iter_edges().collect();
                let (_, e) = edges[(mix(rng) % edges.len() as u64) as usize];
                return EcoEdit::SetResistance {
                    a: ni.rc.node(e.a).name.clone(),
                    b: ni.rc.node(e.b).name.clone(),
                    net,
                    ohms: 1.0 + (mix(rng) % 200) as f64,
                };
            }
            _ => {
                let nodes: Vec<_> = ni.rc.iter_nodes().collect();
                let (_, node) = nodes[(mix(rng) % nodes.len() as u64) as usize];
                return EcoEdit::SetCap {
                    net,
                    node: node.name.clone(),
                    ff: 0.1 + (mix(rng) % 80) as f64 / 10.0,
                };
            }
        }
    }
}

/// Largest |a - b| over every sink's arrival and slew, seconds.
fn max_abs_diff(a: &DesignSession, b: &DesignSession) -> f64 {
    let (ta, tb) = (a.all_timing(), b.all_timing());
    assert_eq!(ta.len(), tb.len(), "net-count mismatch between sessions");
    let mut worst = 0.0_f64;
    for (x, y) in ta.iter().zip(tb) {
        assert_eq!(x.at_sinks.len(), y.at_sinks.len());
        for (&(at_x, sl_x), &(at_y, sl_y)) in x.at_sinks.iter().zip(&y.at_sinks) {
            worst = worst
                .max((at_x.value() - at_y.value()).abs())
                .max((sl_x.value() - sl_y.value()).abs());
        }
    }
    worst
}

/// Whether two timings are equal bit for bit, driver and every sink.
fn same_bits(a: &[NetTiming], b: &[NetTiming]) -> bool {
    let bits = |(at, slew): (Seconds, Seconds)| (at.value().to_bits(), slew.value().to_bits());
    a.len() == b.len()
        && a.iter().zip(b).all(|(x, y)| {
            bits(x.at_driver) == bits(y.at_driver)
                && x.at_sinks.len() == y.at_sinks.len()
                && x.at_sinks.iter().zip(&y.at_sinks).all(|(&p, &q)| bits(p) == bits(q))
        })
}

/// `edit` with every buffer stub net (and pin) named in `stubs` renamed:
/// a session that never saw the rejected buffer insertions numbers its
/// stubs differently.
fn renamed(edit: &EcoEdit, stubs: &HashMap<String, String>) -> EcoEdit {
    let fix = |name: &mut String| {
        let (net, pin) = match name.split_once(':') {
            Some((net, pin)) => (net, Some(pin)),
            None => (name.as_str(), None),
        };
        if let Some(to) = stubs.get(net) {
            *name = pin.map_or_else(|| to.clone(), |pin| format!("{to}:{pin}"));
        }
    };
    let mut edit = edit.clone();
    match &mut edit {
        EcoEdit::ResizeDriver { net, .. } => fix(net),
        EcoEdit::SetSinkLoad { net, sink, .. } | EcoEdit::InsertBuffer { net, sink, .. } => {
            fix(net);
            fix(sink);
        }
        EcoEdit::SetResistance { net, a, b, .. } | EcoEdit::AddResistor { net, a, b, .. } => {
            fix(net);
            fix(a);
            fix(b);
        }
        EcoEdit::SetCap { net, node, .. } => {
            fix(net);
            fix(node);
        }
    }
    edit
}

/// The name of the session's newest net: the stub a buffer insertion
/// just added.
fn newest_net(s: &DesignSession) -> String {
    let nets = s.netlist().nets();
    nets[nets.len() - 1].rc.name().to_string()
}

/// One design size's report row, with the figures the gates read.
struct Row {
    label: &'static str,
    json: Obj,
    speedup: f64,
    agreement_s: f64,
}

fn bench_size(
    label: &'static str,
    design: &'static str,
    scale: f64,
    est: &gnntrans::WireTimingEstimator,
    args: &Args,
    cold_reps: usize,
) -> Row {
    let slew = Seconds::from_ps(20.0);
    let nl = from_netgen(design, scale, args.seed).expect("build design");

    // Cold baseline: fresh session, fresh cache, full re-time.
    let cold_times: Vec<f64> = (0..cold_reps)
        .map(|_| {
            let cache = PredictionCache::new(8, 32 << 20);
            let mut s = DesignSession::new("cold", nl.clone(), slew);
            let t0 = Instant::now();
            s.full_retime(est, 1, &cache).expect("cold full retime");
            t0.elapsed().as_secs_f64()
        })
        .collect();
    let cold_full_s = median(&cold_times);

    // Warm session: one full re-time seeds the prediction cache, then
    // the edit stream exercises the incremental path.
    let cache = PredictionCache::new(8, 32 << 20);
    let mut warm = DesignSession::new("warm", nl.clone(), slew);
    warm.full_retime(est, 1, &cache).expect("warm full retime");

    let mut rng = args.seed.wrapping_mul(0x9e37_79b9_7f4a_7c15) | 1;
    // Kept edits, each with the stub net it added if it inserted a buffer.
    let mut kept: Vec<(EcoEdit, Option<String>)> = Vec::with_capacity(args.edits);
    let mut incr_times: Vec<f64> = Vec::with_capacity(args.edits);
    let mut rollback_times: Vec<f64> = Vec::with_capacity(args.edits / 2);
    let mut dirty_total = 0usize;
    // Apply and rollback time only: edit generation and the rollback
    // gate's timing copies are left out.
    let mut stream_s = 0.0;
    for i in 0..args.edits {
        let edit = random_edit(warm.netlist(), &mut rng);
        let rejected = i % 2 == 1;
        let before = rejected.then(|| warm.all_timing().to_vec());
        let epoch = warm.epoch();
        let t0 = Instant::now();
        let report = warm
            .apply(std::slice::from_ref(&edit), est, 1, &cache)
            .expect("apply edit");
        let apply_s = t0.elapsed().as_secs_f64();
        incr_times.push(apply_s);
        stream_s += apply_s;
        assert!(!report.full_retime, "single edit must stay incremental");
        dirty_total += report.dirty_nets.len();
        match before {
            Some(before) => {
                let t0 = Instant::now();
                warm.rollback(epoch).expect("rollback edit");
                let rollback_s = t0.elapsed().as_secs_f64();
                rollback_times.push(rollback_s);
                stream_s += rollback_s;
                assert!(
                    same_bits(&before, warm.all_timing()),
                    "rolling back edit {i} at {label} did not restore the pre-edit timing bit for bit"
                );
            }
            None => {
                let stub = matches!(edit, EcoEdit::InsertBuffer { .. }).then(|| newest_net(&warm));
                kept.push((edit, stub));
            }
        }
    }
    let stats = cache.stats();

    // Oracle: replay only the kept edits on a fresh session (design
    // mutations only matter), then cold full re-time through a fresh
    // cache — the incrementally-maintained solution must agree, so the
    // rejected edits left no trace.
    let fresh = PredictionCache::new(8, 32 << 20);
    let mut oracle = DesignSession::new("oracle", nl, slew);
    oracle.full_retime(est, 1, &fresh).expect("oracle warm");
    let mut stubs = HashMap::new();
    for (edit, stub) in &kept {
        oracle
            .apply(&[renamed(edit, &stubs)], est, 1, &fresh)
            .expect("oracle replay");
        if let Some(stub) = stub {
            stubs.insert(stub.clone(), newest_net(&oracle));
        }
    }
    let fresh2 = PredictionCache::new(8, 32 << 20);
    oracle.full_retime(est, 1, &fresh2).expect("oracle cold");
    let agreement_s = max_abs_diff(&warm, &oracle);

    let summary = warm.timing_summary();
    let incr_median_s = median(&incr_times);
    let rollback_median_s = median(&rollback_times);
    let edits_per_s = args.edits as f64 / stream_s.max(1e-12);
    let speedup = cold_full_s / incr_median_s.max(1e-12);
    eprintln!(
        "eco: {label} ({design} x{scale}, {} nets): cold {:.1} ms, incr median {:.2} ms, \
         rollback median {:.3} ms, {edits_per_s:.0} edits/s, {speedup:.1}x speedup, \
         hit rate {:.1}%, agree {agreement_s:.2e} s",
        summary.nets,
        cold_full_s * 1e3,
        incr_median_s * 1e3,
        rollback_median_s * 1e3,
        stats.hit_rate() * 100.0,
    );
    let json = Obj::new()
        .put("label", label)
        .put("design", design)
        .put("scale", scale)
        .put("nets", summary.nets)
        .put("gates", summary.gates)
        .put("cold_full_s", cold_full_s)
        .put("incr_median_s", incr_median_s)
        .put("incr_p95_s", percentile(&incr_times, 0.95))
        .put("rollback_median_s", rollback_median_s)
        .put("edits_per_s", edits_per_s)
        .put("speedup", speedup)
        .put("cache_hit_rate", stats.hit_rate())
        .put("dirty_nets_mean", dirty_total as f64 / args.edits as f64)
        .put("agreement_max_abs_s", agreement_s);
    Row {
        label,
        json,
        speedup,
        agreement_s,
    }
}

fn main() {
    let args = parse_args();
    // Same quick demo model the serve smoke path trains: the bench
    // measures engine overhead and cone sizes, not model quality.
    let est = serve::demo_model(7, 16, 8);

    let sizes: &[(&str, &str, f64)] = if args.smoke {
        &[("S", "PCI_BRIDGE", 0.02), ("M", "DMA", 0.01)]
    } else {
        &[("S", "PCI_BRIDGE", 0.05), ("M", "DMA", 0.05), ("L", "B19", 0.05)]
    };
    let cold_reps = if args.smoke { 2 } else { 3 };

    let rows: Vec<Row> = sizes
        .iter()
        .map(|&(label, design, scale)| bench_size(label, design, scale, &est, &args, cold_reps))
        .collect();

    report("bench.eco.v1", args.smoke)
        .put("edits_per_size", args.edits)
        .put("cold_reps", cold_reps)
        .put("rows", rows.iter().map(|r| &r.json).collect::<Vec<_>>())
        .write_to(&args.out);

    // Gate on correctness everywhere: the incremental solution must
    // match a cold full re-time of the same final design exactly.
    for row in &rows {
        assert!(
            row.agreement_s <= 1e-9,
            "incremental/full disagreement {:.3e} s at {} (tolerance 1e-9 s)",
            row.agreement_s,
            row.label
        );
    }
    // Gate on speed in full mode: a single-edit re-time on the medium
    // design must beat the cold full re-time by ≥5x (the acceptance
    // bar for an optimizer-in-the-loop workload).
    if !args.smoke {
        let medium = rows.iter().find(|r| r.label == "M").expect("medium row");
        assert!(
            medium.speedup >= 5.0,
            "medium incremental speedup {:.2}x below the 5x acceptance bar",
            medium.speedup
        );
    }
}
