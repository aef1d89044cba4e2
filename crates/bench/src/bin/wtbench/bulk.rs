//! `design_spef` and `large_nets`: SPEF documents through
//! `WireTimingEstimator::predict_spef`, one caller, closed loop.

use crate::common::{
    accuracy, check_predictions, closed_loop, design, fail, setup_with_model, spef, sub_seed,
    Params,
};
use crate::metrics::Outcome;
use crate::probe;
use crate::spans::{span, Spans};
use netgen::{NetConfig, NetGenerator};
use rcnet::RcNet;

#[derive(Debug, Clone, Copy)]
pub enum Input {
    /// Four AES-128 instances at scale 0.004, each ~370 nets of 6–36
    /// nodes, ~47% non-tree, in a document of its own. Four rather than
    /// one halve how much the op cost moves with the seed.
    Design,
    /// 64 nets whose node counts step evenly from 100 to 1000, every
    /// third one non-tree, in 16 documents of 4 nets with equal node
    /// totals. Fixed sizes keep the superlinear per-net cost from
    /// varying with the seed, and 64 nets average out what the seed
    /// still changes (sinks, loops).
    Large,
}

/// Nets of the `large_nets` ladder (a multiple of 4).
const LADDER: usize = 64;

/// The input documents' nets.
fn documents(input: Input, p: &Params) -> Vec<Vec<RcNet>> {
    match input {
        Input::Design => (0..p.pick(4, 1))
            .map(|i| design("AES-128", p.pick(0.004, 0.0003), sub_seed(p.seed, i)))
            .collect(),
        Input::Large => {
            let count: usize = p.pick(LADDER, 2);
            let nets: Vec<RcNet> = (0..count)
                .map(|i| {
                    let n = 100 + 900 * i / (LADDER - 1);
                    let cfg = NetConfig {
                        nodes_min: n,
                        nodes_max: n,
                        ..Default::default()
                    };
                    NetGenerator::new(sub_seed(p.seed, i), cfg).net(format!("big{i}"), i % 3 == 0)
                })
                .collect();
            // Of d documents, document g holds ladder steps g, 2d-1-g,
            // 2d+g and 4d-1-g: about 2200 nodes, two packs, so both pool
            // lanes run a forward. (Two nets per document would halve
            // the op, but a pair fits one pack and fills one lane.)
            let docs = count.div_ceil(4);
            (0..docs)
                .map(|g| {
                    let mut idx = [g, 2 * docs - 1 - g, 2 * docs + g, 4 * docs - 1 - g];
                    idx.sort_unstable();
                    idx.iter().filter_map(|&i| nets.get(i).cloned()).collect()
                })
                .collect()
        }
    }
}

pub fn run(workload: &str, input: Input, p: &Params) -> Outcome {
    let mut out = Outcome::default();
    let setup = setup_with_model(p, workload, |est| {
        let docs = documents(input, p);
        let texts: Vec<String> = docs.iter().map(|d| spef(d)).collect();
        let paths: Vec<Vec<usize>> = docs
            .iter()
            .map(|d| d.iter().map(|n| n.paths().len()).collect())
            .collect();
        Ok((est, texts, paths))
    });
    let ((est, texts, paths), setup_times) = match setup {
        Ok(s) => s,
        Err(e) => {
            out.gate(false, || e);
            return out;
        }
    };
    // Ops 2j and 2j+1 predict the same document, so a traced run's
    // traced and untraced halves see the same mix.
    let predict = |traced: Option<&Spans>, op: u64| {
        let doc = (op / 2) as usize % texts.len();
        let _s = span(traced, "core.predict_spef", op);
        let preds = est
            .predict_spef(&texts[doc])
            .map_err(fail("predict_spef"))?;
        check_predictions(&preds, &paths[doc])
    };
    // One warm-up call per document: thread-local arenas and the pool
    // are lazy.
    for doc in 0..texts.len() {
        if let Err(e) = predict(None, 2 * doc as u64) {
            out.gate(false, || format!("warm-up: {e}"));
            return out;
        }
    }
    let spans = p.trace.then(Spans::new);
    let samples = closed_loop(p, spans.as_ref(), |k, traced| predict(traced, k), |_| {});
    out.gate(samples.failed == 0, || {
        format!("{} predict_spef calls failed", samples.failed)
    });
    // Tail p90 where a 16 s window holds 400 ops. `large_nets` makes
    // 90–170, and its p90 followed which ops the host slowed, not the
    // program (README, Repeatability): p80, 18 or more beyond it.
    let tail = match input {
        Input::Design => 0.90,
        Input::Large => 0.80,
    };
    samples.report(workload, &setup_times, tail, &mut out);
    accuracy(&est, p, 0.9, &mut out);
    if p.trace {
        // The probe's passes take seconds per large document; the first
        // four documents keep a traced run within its time.
        probe::run(&est, &texts[..texts.len().min(4)], p, &mut out);
        crate::write_spans(spans.as_ref(), workload, p, &mut out);
    }
    out
}
