//! The DAC'20 baseline \[5\]: manual features + loop breaking + GBDT.
//!
//! Cheng, Jiang & Ou ("Fast and accurate wire timing estimation on tree
//! and non-tree net structures", DAC 2020) hand-pick RC-structure
//! features, convert non-tree nets to trees with a loop-breaking step,
//! and fit an XGBoost regressor. This module reproduces that recipe:
//! the loop-breaking is the depth-first spanning tree
//! ([`LoopBreaking::DepthFirst`]: whichever edge the walk finds first
//! stays, the rest are dropped), the features below are tree-structural
//! quantities of that tree, and the regressor is [`gnn::gbdt::Gbdt`].
//! Its characteristic failure — accuracy collapse on non-tree nets,
//! whose loops the features cannot see — is exactly what TABLE III
//! measures.

use crate::features::NetContext;
use crate::{CoreError, Dataset};
use elmore::{LoopBreaking, WireAnalysis};
use gnn::gbdt::{Gbdt, GbdtConfig};
use rcnet::{RcNet, Seconds};

/// Width of the manual feature vector.
pub const DAC20_DIM: usize = 14;

/// Extracts the manual feature rows of every path of a net.
///
/// Tree-structural quantities come from the *loop-broken* view, a
/// [`WireAnalysis`] over the depth-first spanning tree that this function
/// builds itself, which is the source of the baseline's non-tree error.
///
/// # Errors
///
/// Propagates [`WireAnalysis::with_policy`] failures.
pub fn feature_rows(net: &RcNet, ctx: &NetContext) -> Result<Vec<Vec<f64>>, CoreError> {
    let wa = WireAnalysis::with_policy(net, LoopBreaking::DepthFirst)?;
    Ok(net
        .paths()
        .iter()
        .enumerate()
        .map(|(i, path)| {
            let load = &ctx.loads[i];
            // Path-structural quantities come from the loop-broken tree's
            // own root→sink path, not the electrical shortest path — the
            // baseline has no other view of the net.
            let (tree_nodes, tree_edges) = wa.orientation().path_to(path.sink);
            let tree_path_res: f64 = tree_edges
                .iter()
                .map(|&e| net.edge(e).res.value())
                .sum();
            vec![
                ctx.input_slew.pico_seconds(),
                ctx.drive_strength,
                ctx.drive_func,
                load.drive,
                load.func,
                load.ceff / 1e-15,
                tree_path_res / 1e3,
                tree_nodes.len() as f64,
                wa.downstream_cap(net.source()).value() / 1e-15,
                wa.downstream_cap(path.sink).value() / 1e-15,
                wa.tree_path_elmore(path).pico_seconds(),
                wa.tree_path_d2m(path).pico_seconds(),
                net.total_res().value() / 1e3,
                net.total_cap().value() / 1e-15,
            ]
        })
        .collect())
}

/// The trained DAC'20 estimator: one GBDT for slew, one for delay.
#[derive(Debug, Clone)]
pub struct Dac20Estimator {
    slew_model: Gbdt,
    delay_model: Gbdt,
}

impl Dac20Estimator {
    /// Fits both ensembles on the [`feature_rows`] of a dataset's nets.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::BadInput`] when the dataset has no paths and
    /// propagates analysis failures.
    pub fn fit(data: &Dataset, cfg: &GbdtConfig) -> Result<Self, CoreError> {
        let mut rows = Vec::new();
        let mut slews = Vec::new();
        let mut delays = Vec::new();
        for s in &data.samples {
            for (i, row) in feature_rows(&s.net, &s.ctx)?.into_iter().enumerate() {
                rows.push(row);
                slews.push(s.targets_ps.get(i, 0) as f64);
                delays.push(s.targets_ps.get(i, 1) as f64);
            }
        }
        if rows.is_empty() {
            return Err(CoreError::BadInput("dataset has no paths".into()));
        }
        let slew_model = Gbdt::fit(&rows, &slews, cfg)?;
        let delay_model = Gbdt::fit(&rows, &delays, cfg)?;
        Ok(Dac20Estimator {
            slew_model,
            delay_model,
        })
    }

    /// Predicts `(slew, delay)` for every path of `net`.
    ///
    /// # Errors
    ///
    /// Propagates analysis failures.
    pub fn predict_net(
        &self,
        net: &RcNet,
        ctx: &NetContext,
    ) -> Result<Vec<(Seconds, Seconds)>, CoreError> {
        Ok(self
            .predict_rows(&feature_rows(net, ctx)?)
            .into_iter()
            .map(|(slew, delay)| (Seconds::from_ps(slew), Seconds::from_ps(delay)))
            .collect())
    }

    /// Predicts `(slew, delay)` in picoseconds from [`feature_rows`].
    pub fn predict_rows(&self, rows: &[Vec<f64>]) -> Vec<(f64, f64)> {
        rows.iter()
            .map(|r| {
                (
                    self.slew_model.predict(r).max(0.0),
                    self.delay_model.predict(r).max(0.0),
                )
            })
            .collect()
    }
}

impl sta::WireTimer for Dac20Estimator {
    /// One [`Dac20Estimator::predict_net`] under
    /// [`NetContext::for_driver`].
    fn time_net(
        &self,
        net: &RcNet,
        input_slew: Seconds,
        driver: Option<&sta::cells::Cell>,
    ) -> Result<Vec<(Seconds, Seconds)>, sta::StaError> {
        let ctx = NetContext::for_driver(net, driver, input_slew);
        let est = self
            .predict_net(net, &ctx)
            .map_err(|e| sta::StaError::Wire(e.to_string()))?;
        Ok(est.into_iter().map(|(slew, delay)| (delay, slew)).collect())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dataset::DatasetBuilder;
    use netgen::nets::{NetConfig, NetGenerator};

    fn dataset(n: usize, seed: u64) -> Dataset {
        let cfg = NetConfig {
            nodes_min: 4,
            nodes_max: 12,
            ..Default::default()
        };
        let mut g = NetGenerator::new(seed, cfg);
        let nets: Vec<RcNet> = (0..n).map(|i| g.net(format!("n{i}"), i % 2 == 0)).collect();
        DatasetBuilder::new(1).build(&nets).unwrap()
    }

    #[test]
    fn feature_rows_have_fixed_width() {
        let ds = dataset(3, 5);
        for s in &ds.samples {
            let rows = feature_rows(&s.net, &s.ctx).unwrap();
            assert_eq!(rows.len(), s.net.paths().len());
            for r in &rows {
                assert_eq!(r.len(), DAC20_DIM);
            }
        }
    }

    #[test]
    fn feature_rows_read_the_depth_first_tree() {
        // s-b-k costs 2 Ω and is the wire path; the depth-first walk
        // reaches k through a first, over 20 Ω.
        use rcnet::{Farads, Ohms, RcNetBuilder};
        let mut b = RcNetBuilder::new("d");
        let s = b.source("s", Farads(1e-15));
        let nb = b.internal("b", Farads(1e-15));
        let a = b.internal("a", Farads(1e-15));
        let k = b.sink("k", Farads(1e-15));
        b.resistor(s, nb, Ohms(1.0));
        b.resistor(s, a, Ohms(10.0));
        b.resistor(a, k, Ohms(10.0));
        b.resistor(nb, k, Ohms(1.0));
        let net = b.build().unwrap();
        assert_eq!(net.paths()[0].nodes, vec![s, nb, k]);
        let rows = feature_rows(&net, &NetContext::generic(&net)).unwrap();
        // Column 6: the tree path's resistance in kΩ.
        assert_eq!(rows[0][6], 20.0 / 1e3);
    }

    #[test]
    fn fits_and_predicts_sensibly() {
        let ds = dataset(20, 7);
        let model = Dac20Estimator::fit(&ds, &GbdtConfig::default()).unwrap();
        // In-sample predictions should correlate strongly with the labels.
        let mut truth = Vec::new();
        let mut pred = Vec::new();
        for s in &ds.samples {
            let rows = feature_rows(&s.net, &s.ctx).unwrap();
            for (i, (ps, pd)) in model.predict_rows(&rows).iter().enumerate() {
                truth.push(s.targets_ps.get(i, 1) as f64);
                pred.push(*pd);
                assert!(*ps >= 0.0 && *pd >= 0.0);
            }
        }
        let r2 = numeric::stats::r2_score(&truth, &pred).unwrap();
        assert!(r2 > 0.8, "in-sample delay r2 {r2}");
    }

    #[test]
    fn predict_net_matches_predict_rows() {
        let ds = dataset(10, 9);
        let model = Dac20Estimator::fit(&ds, &GbdtConfig::default()).unwrap();
        let s = &ds.samples[0];
        let from_net = model.predict_net(&s.net, &s.ctx).unwrap();
        let from_rows = model.predict_rows(&feature_rows(&s.net, &s.ctx).unwrap());
        assert_eq!(from_net.len(), from_rows.len());
        for (a, b) in from_net.iter().zip(&from_rows) {
            assert!((a.0.pico_seconds() - b.0).abs() < 1e-9);
            assert!((a.1.pico_seconds() - b.1).abs() < 1e-9);
        }
    }
}
