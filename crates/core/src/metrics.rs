//! Evaluation over whole test sets: the R² / max-error numbers the
//! paper's TABLE III-V report.

use crate::dataset::Sample;
use crate::estimator::WireTimingEstimator;
use crate::CoreError;

/// Accuracy summary for one model on one test set.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EvalResult {
    /// R² of wire slew.
    pub r2_slew: f64,
    /// R² of wire delay.
    pub r2_delay: f64,
    /// Mean absolute delay error, picoseconds.
    pub mae_delay_ps: f64,
    /// Maximum absolute delay error, picoseconds.
    pub max_err_delay_ps: f64,
    /// Maximum absolute slew error, picoseconds.
    pub max_err_slew_ps: f64,
    /// Number of wire paths evaluated.
    pub paths: usize,
}

/// Accumulates `(truth, prediction)` pairs and computes [`EvalResult`].
#[derive(Debug, Clone, Default)]
pub struct Evaluator {
    slew_truth: Vec<f64>,
    slew_pred: Vec<f64>,
    delay_truth: Vec<f64>,
    delay_pred: Vec<f64>,
}

impl Evaluator {
    /// Creates an empty accumulator.
    pub fn new() -> Self {
        Evaluator::default()
    }

    /// Adds one path's picosecond truth/prediction pair.
    pub fn push(&mut self, truth_ps: (f64, f64), pred_ps: (f64, f64)) {
        self.slew_truth.push(truth_ps.0);
        self.slew_pred.push(pred_ps.0);
        self.delay_truth.push(truth_ps.1);
        self.delay_pred.push(pred_ps.1);
    }

    /// Number of accumulated paths.
    pub fn len(&self) -> usize {
        self.delay_truth.len()
    }

    /// Whether nothing was accumulated.
    pub fn is_empty(&self) -> bool {
        self.delay_truth.is_empty()
    }

    /// Finalizes the metrics.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::BadInput`] when no paths were accumulated or
    /// the truth is degenerate (constant).
    pub fn finish(&self) -> Result<EvalResult, CoreError> {
        let r2_slew = numeric::stats::r2_score(&self.slew_truth, &self.slew_pred)
            .ok_or_else(|| CoreError::BadInput("slew R² undefined".into()))?;
        let r2_delay = numeric::stats::r2_score(&self.delay_truth, &self.delay_pred)
            .ok_or_else(|| CoreError::BadInput("delay R² undefined".into()))?;
        let mae_delay_ps = numeric::stats::mean_abs_err(&self.delay_truth, &self.delay_pred)
            .expect("non-empty by r2 check");
        let max_err_delay_ps = numeric::stats::max_abs_err(&self.delay_truth, &self.delay_pred)
            .expect("non-empty by r2 check");
        let max_err_slew_ps = numeric::stats::max_abs_err(&self.slew_truth, &self.slew_pred)
            .expect("non-empty by r2 check");
        Ok(EvalResult {
            r2_slew,
            r2_delay,
            mae_delay_ps,
            max_err_delay_ps,
            max_err_slew_ps,
            paths: self.len(),
        })
    }
}

/// Evaluates a trained estimator against the golden labels of `samples`
/// (optionally restricted to non-tree nets, the TABLE III protocol).
///
/// # Errors
///
/// Propagates prediction failures and empty-selection rejection.
pub fn evaluate_estimator(
    est: &WireTimingEstimator,
    samples: &[Sample],
    nontree_only: bool,
) -> Result<EvalResult, CoreError> {
    let selected: Vec<&Sample> = samples
        .iter()
        .filter(|s| !(nontree_only && s.is_tree()))
        .collect();
    // One predict_many over the whole test set: the nets share packed
    // forward chunks, so evaluation cost scales with total nodes rather
    // than per-net dispatch.
    let preds = est.predict_many(selected.iter().map(|s| (&s.net, &s.ctx)))?;
    let mut ev = Evaluator::new();
    for (s, pred) in selected.iter().zip(&preds) {
        for (i, p) in pred.iter().enumerate() {
            ev.push(
                (
                    s.targets_ps.get(i, 0) as f64,
                    s.targets_ps.get(i, 1) as f64,
                ),
                (p.slew.pico_seconds(), p.delay.pico_seconds()),
            );
        }
    }
    ev.finish()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn perfect_predictions_score_one() {
        let mut ev = Evaluator::new();
        for i in 0..10 {
            let v = i as f64;
            ev.push((v, 2.0 * v), (v, 2.0 * v));
        }
        let r = ev.finish().unwrap();
        assert_eq!(r.r2_slew, 1.0);
        assert_eq!(r.r2_delay, 1.0);
        assert_eq!(r.max_err_delay_ps, 0.0);
        assert_eq!(r.paths, 10);
    }

    #[test]
    fn errors_reflected_in_metrics() {
        let mut ev = Evaluator::new();
        ev.push((10.0, 20.0), (11.0, 25.0));
        ev.push((20.0, 40.0), (19.0, 38.0));
        ev.push((30.0, 60.0), (30.0, 61.0));
        let r = ev.finish().unwrap();
        assert!(r.r2_delay < 1.0);
        assert_eq!(r.max_err_delay_ps, 5.0);
        assert_eq!(r.max_err_slew_ps, 1.0);
        assert!((r.mae_delay_ps - 8.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn empty_evaluator_errors() {
        let ev = Evaluator::new();
        assert!(ev.is_empty());
        assert!(ev.finish().is_err());
    }
}
