//! Per-column standardization fitted on the training set.
//!
//! Features and targets are z-scored (`(x - mean) / std`) column by
//! column; constant columns get unit scale so they pass through centered.
//! The fitted scalers ride along with the saved model so inference applies
//! the identical transform, and [`Scalers::batch`] is the one place raw
//! features become model input.

use crate::dataset::Sample;
use crate::CoreError;
use gnn::GraphBatch;
use rcnet::RcNet;
use tensor::Mat;

/// The node-feature, path-feature and target scalers of one training
/// set, fitted, saved and applied together.
#[derive(Debug, Clone, PartialEq)]
pub struct Scalers {
    /// Node-feature scaler.
    pub node: Scaler,
    /// Path-feature scaler.
    pub path: Scaler,
    /// Target scaler (over the `p x 2` picosecond labels).
    pub target: Scaler,
}

impl Scalers {
    /// Fits each scaler over every row of `samples`.
    ///
    /// # Panics
    ///
    /// Panics when `samples` is empty.
    pub fn fit(samples: &[Sample]) -> Self {
        Scalers {
            node: Scaler::fit(samples.iter().map(|s| &s.node_feats)),
            path: Scaler::fit(samples.iter().flat_map(|s| &s.path_feats)),
            target: Scaler::fit(samples.iter().map(|s| &s.targets_ps)),
        }
    }

    /// Scales a net's raw features, and its picosecond labels when
    /// given, into a [`GraphBatch`].
    ///
    /// # Errors
    ///
    /// Propagates batch-validation failures.
    pub fn batch(
        &self,
        net: &RcNet,
        node_feats: &Mat,
        path_feats: &[Mat],
        targets_ps: Option<&Mat>,
    ) -> Result<GraphBatch, CoreError> {
        let x = self.node.transform(node_feats);
        let pf = path_feats.iter().map(|f| self.path.transform(f)).collect();
        let t = targets_ps.map(|t| self.target.transform(t));
        Ok(GraphBatch::build(net, x, pf, t)?)
    }

    /// One labelled [`Scalers::batch`] per sample.
    ///
    /// # Errors
    ///
    /// Propagates batch-validation failures.
    pub fn batches(&self, samples: &[Sample]) -> Result<Vec<GraphBatch>, CoreError> {
        samples
            .iter()
            .map(|s| self.batch(&s.net, &s.node_feats, &s.path_feats, Some(&s.targets_ps)))
            .collect()
    }
}

/// A fitted per-column standardizer.
#[derive(Debug, Clone, PartialEq)]
pub struct Scaler {
    mean: Vec<f32>,
    std: Vec<f32>,
}

impl Scaler {
    /// Fits on a set of matrices with identical column counts, pooling
    /// all rows.
    ///
    /// # Panics
    ///
    /// Panics when `mats` is empty or the column counts differ.
    pub fn fit<'a, I>(mats: I) -> Self
    where
        I: IntoIterator<Item = &'a Mat> + Clone,
    {
        let cols = mats
            .clone()
            .into_iter()
            .next()
            .expect("scaler needs at least one matrix")
            .cols();
        let mut sum = vec![0.0f64; cols];
        let mut sum_sq = vec![0.0f64; cols];
        let mut count = 0usize;
        for m in mats {
            assert_eq!(m.cols(), cols, "ragged scaler input");
            for r in 0..m.rows() {
                for c in 0..cols {
                    let v = m.get(r, c) as f64;
                    sum[c] += v;
                    sum_sq[c] += v * v;
                }
                count += 1;
            }
        }
        let n = count.max(1) as f64;
        let mean: Vec<f32> = sum.iter().map(|s| (s / n) as f32).collect();
        let std: Vec<f32> = sum_sq
            .iter()
            .zip(&mean)
            .map(|(sq, m)| {
                let var = (sq / n - (*m as f64) * (*m as f64)).max(0.0);
                let s = var.sqrt() as f32;
                if s < 1e-8 {
                    1.0
                } else {
                    s
                }
            })
            .collect();
        Scaler { mean, std }
    }

    /// Number of columns this scaler was fitted for.
    pub fn width(&self) -> usize {
        self.mean.len()
    }

    /// Applies the transform.
    ///
    /// # Panics
    ///
    /// Panics on column-count mismatch.
    pub fn transform(&self, m: &Mat) -> Mat {
        assert_eq!(m.cols(), self.width(), "scaler width mismatch");
        let mut out = m.clone();
        for r in 0..m.rows() {
            for c in 0..m.cols() {
                out.set(r, c, (m.get(r, c) - self.mean[c]) / self.std[c]);
            }
        }
        out
    }

    /// Inverts the transform (for reading predictions back in raw units).
    ///
    /// # Panics
    ///
    /// Panics on column-count mismatch.
    pub fn inverse(&self, m: &Mat) -> Mat {
        assert_eq!(m.cols(), self.width(), "scaler width mismatch");
        let mut out = m.clone();
        for r in 0..m.rows() {
            for c in 0..m.cols() {
                out.set(r, c, m.get(r, c) * self.std[c] + self.mean[c]);
            }
        }
        out
    }

    /// Packs `(mean; std)` into a `2 x width` matrix for serialization.
    pub fn to_mat(&self) -> Mat {
        let mut m = Mat::zeros(2, self.width());
        for c in 0..self.width() {
            m.set(0, c, self.mean[c]);
            m.set(1, c, self.std[c]);
        }
        m
    }

    /// Unpacks a matrix produced by [`Scaler::to_mat`].
    ///
    /// # Panics
    ///
    /// Panics when `m` does not have exactly two rows.
    pub fn from_mat(m: &Mat) -> Self {
        Self::try_from_mat(m).expect("scaler matrix must be 2 x width with finite mean, std > 0")
    }

    /// Fallible [`Scaler::from_mat`] for untrusted checkpoint data:
    /// rejects wrong shapes, non-finite entries and non-positive stds
    /// (which would turn inference into division by zero) instead of
    /// panicking.
    pub fn try_from_mat(m: &Mat) -> Result<Self, String> {
        if m.rows() != 2 || m.cols() == 0 {
            return Err(format!(
                "scaler matrix must be 2 x width, got {} x {}",
                m.rows(),
                m.cols()
            ));
        }
        let mean: Vec<f32> = (0..m.cols()).map(|c| m.get(0, c)).collect();
        let std: Vec<f32> = (0..m.cols()).map(|c| m.get(1, c)).collect();
        if mean.iter().any(|v| !v.is_finite()) {
            return Err("scaler mean contains a non-finite value".into());
        }
        if std.iter().any(|v| !v.is_finite() || *v <= 0.0) {
            return Err("scaler std contains a non-finite or non-positive value".into());
        }
        Ok(Scaler { mean, std })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fit_transform_standardizes() {
        let a = Mat::from_vec(2, 2, vec![0.0, 10.0, 2.0, 30.0]).unwrap();
        let b = Mat::from_vec(2, 2, vec![4.0, 50.0, 6.0, 70.0]).unwrap();
        let s = Scaler::fit([&a, &b]);
        let t = s.transform(&a);
        // Column 0: values 0,2,4,6 -> mean 3, std sqrt(5).
        assert!((t.get(0, 0) + 3.0 / 5.0f32.sqrt()).abs() < 1e-5);
        // Round trip.
        let back = s.inverse(&t);
        for i in 0..4 {
            assert!((back.as_slice()[i] - a.as_slice()[i]).abs() < 1e-4);
        }
    }

    #[test]
    fn constant_column_passes_through_centered() {
        let a = Mat::from_vec(3, 1, vec![5.0, 5.0, 5.0]).unwrap();
        let s = Scaler::fit([&a]);
        let t = s.transform(&a);
        assert!(t.as_slice().iter().all(|&v| v.abs() < 1e-6));
        let back = s.inverse(&t);
        assert!(back.as_slice().iter().all(|&v| (v - 5.0).abs() < 1e-6));
    }

    #[test]
    fn serialization_round_trip() {
        let a = Mat::from_vec(2, 3, vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0]).unwrap();
        let s = Scaler::fit([&a]);
        let s2 = Scaler::from_mat(&s.to_mat());
        assert_eq!(s, s2);
        assert_eq!(s.width(), 3);
    }

    #[test]
    fn try_from_mat_rejects_corrupt_shapes_and_values() {
        assert!(Scaler::try_from_mat(&Mat::zeros(3, 2)).is_err());
        assert!(Scaler::try_from_mat(&Mat::zeros(2, 0)).is_err());
        // std of zero would divide by zero at inference time.
        let mut zero_std = Mat::zeros(2, 1);
        zero_std.set(0, 0, 1.0);
        assert!(Scaler::try_from_mat(&zero_std).is_err());
        let mut nan_mean = Mat::from_vec(2, 1, vec![f32::NAN, 1.0]).unwrap();
        assert!(Scaler::try_from_mat(&nan_mean).is_err());
        nan_mean.set(0, 0, 0.5);
        assert!(Scaler::try_from_mat(&nan_mean).is_ok());
    }

    #[test]
    #[should_panic]
    fn transform_rejects_wrong_width() {
        let a = Mat::zeros(1, 2);
        let s = Scaler::fit([&a]);
        let _ = s.transform(&Mat::zeros(1, 3));
    }
}
