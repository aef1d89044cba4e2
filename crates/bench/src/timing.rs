//! The one timing rule and the one set of order statistics of the
//! bench bins.
//!
//! Every comparison of variants runs through [`interleaved`]: the
//! kernel, softmax and pool rows of `compute`, tape vs tape-free and
//! packed vs per-graph in `infer`, tape vs packed training in `train`,
//! and sparse vs dense golden timing in `rcsim`. The reference host's
//! speed changes in phases of 15–25 ms and drifts over seconds, so a
//! best-of over reps shorter than a phase reads whichever phase each
//! variant happened to land in. Here every round times each variant
//! once, each over at least [`MIN_SPAN`] of calls, and a comparison of
//! two variants is the median of their ratios within a round, which a
//! drift between rounds does not move.
//!
//! [`median`] and [`percentile`] summarize latency samples: `eco`'s
//! per-edit applies and rollbacks, `loadgen`'s requests and stage
//! times, and `obs-trace`'s per-stage tables.

use std::time::{Duration, Instant};

/// The least total time one measurement spends in the timed code:
/// several of the host's speed phases.
pub const MIN_SPAN: Duration = Duration::from_millis(100);

/// Seconds `f` takes.
pub fn time(f: impl FnOnce()) -> f64 {
    let t0 = Instant::now();
    f();
    t0.elapsed().as_secs_f64()
}

/// Seconds per call of each variant in each round.
pub struct Rounds(Vec<Vec<f64>>);

impl Rounds {
    /// Variant `v`'s median seconds per call.
    pub fn secs(&self, v: usize) -> f64 {
        median(&self.0[v])
    }

    /// The median over the rounds of variant `a`'s seconds over
    /// variant `b`'s in the same round.
    pub fn ratio(&self, a: usize, b: usize) -> f64 {
        let ratios: Vec<f64> = self.0[a]
            .iter()
            .zip(&self.0[b])
            .map(|(x, y)| x / y)
            .collect();
        median(&ratios)
    }
}

/// Times the variants round by round. A variant runs one call and
/// returns the seconds of its timed part (see [`time`]), so untimed
/// set-up such as refilling an input stays out. Each of `rounds` rounds
/// calls every variant until its timed seconds reach [`MIN_SPAN`],
/// starting one variant later each round.
pub fn interleaved(rounds: usize, variants: &mut [&mut dyn FnMut() -> f64]) -> Rounds {
    let count = variants.len();
    let mut per_round = vec![Vec::new(); count];
    for round in 0..rounds.max(1) {
        for i in 0..count {
            let v = (round + i) % count;
            let (mut spent, mut calls) = (0.0, 0u32);
            while spent < MIN_SPAN.as_secs_f64() {
                spent += (variants[v])();
                calls += 1;
            }
            per_round[v].push(spent / f64::from(calls));
        }
    }
    Rounds(per_round)
}

/// The median of `xs`, the mean of the middle pair for an even count;
/// NaN when empty.
pub fn median(xs: &[f64]) -> f64 {
    let v = sorted(xs);
    let mid = v.len() / 2;
    match v.len() {
        0 => f64::NAN,
        n if n % 2 == 1 => v[mid],
        _ => (v[mid - 1] + v[mid]) / 2.0,
    }
}

/// The nearest-rank `p` quantile of `xs` (`p` in 0..=1): the smallest
/// sample with at least a share `p` of the samples at or below it; NaN
/// when empty.
pub fn percentile(xs: &[f64], p: f64) -> f64 {
    let v = sorted(xs);
    let rank = (p * v.len() as f64).ceil() as usize;
    match v.len() {
        0 => f64::NAN,
        n => v[rank.clamp(1, n) - 1],
    }
}

fn sorted(xs: &[f64]) -> Vec<f64> {
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert!(median(&[]).is_nan());
    }

    #[test]
    fn percentile_is_nearest_rank() {
        let v: Vec<f64> = (1..=200).rev().map(f64::from).collect();
        assert_eq!(percentile(&v, 0.5), 100.0);
        assert_eq!(percentile(&v, 0.95), 190.0);
        assert_eq!(percentile(&v, 1.0), 200.0);
        assert_eq!(percentile(&v, 0.0), 1.0);
        assert_eq!(percentile(&v[..10], 0.99), 200.0);
        assert!(percentile(&[], 0.5).is_nan());
    }

    #[test]
    fn every_variant_runs_for_the_span_each_round() {
        let (mut a, mut b) = (0u32, 0u32);
        let rounds = interleaved(
            2,
            &mut [
                &mut || {
                    a += 1;
                    1.0 / 32.0
                },
                &mut || {
                    b += 1;
                    1.0 / 8.0
                },
            ],
        );
        // 100 ms takes four calls of 1/32 s and one of 1/8 s.
        assert_eq!((a, b), (8, 2));
        assert_eq!((rounds.secs(0), rounds.secs(1)), (1.0 / 32.0, 1.0 / 8.0));
        assert_eq!(rounds.ratio(1, 0), 4.0);
    }

    #[test]
    fn ratios_are_taken_within_rounds() {
        // The host slows down round by round; within-round ratios are
        // 3, 3.5 and 3, where the ratio of the medians reads 3.5.
        let rounds = Rounds(vec![vec![1.0, 2.0, 4.0], vec![3.0, 7.0, 12.0]]);
        assert_eq!(rounds.ratio(1, 0), 3.0);
        assert_eq!(rounds.secs(1) / rounds.secs(0), 3.5);
    }
}
