//! Packing one RC net into model-ready tensors.
//!
//! Following the paper's data representation (§III-B, Fig. 5), each net
//! becomes a node feature matrix `X`, a weighted adjacency matrix `A`
//! whose entries are (normalized) resistance values, and a path feature
//! matrix `H` with one row per wire path. RC nets have about one edge
//! per node, so `A` is stored once, sparse: an [`Adjacency`] holds one
//! CSR pattern with the resistance weights and the mean-aggregation
//! weights `1/deg` as two value sets. The packed engine aggregates with
//! it directly; the tape models and the baselines expand the dense
//! matrices they need (weighted, mean, the GCN normalization with
//! self-loops, the GAT mask) on demand.

use crate::GnnError;
use rcnet::RcNet;
use tensor::sparse::{Csr, CsrRef};
use tensor::Mat;

/// Resistance normalization constant: adjacency weights are
/// `R / R_SCALE` so typical segment resistances land near 0.05–1.
pub const R_SCALE: f32 = 120.0;

/// One wire path: the node indices it visits and its raw path features.
#[derive(Debug, Clone, PartialEq)]
pub struct PathSpec {
    /// Indices (into the net's node list) of the path's nodes, source →
    /// sink.
    pub nodes: Vec<usize>,
    /// `1 x d_h` path feature row (TABLE I path features).
    pub features: Mat,
}

/// A net's symmetric adjacency in CSR form: neighbours ascending per
/// row, one entry per connected node pair.
#[derive(Debug, Clone, PartialEq)]
pub struct Adjacency {
    /// `R / R_SCALE` per entry, parallel resistors summed in edge order
    /// (eq. (1) aggregation).
    res: Csr,
    /// `1 / deg(row)` per entry: GraphSage mean aggregation.
    mean: Vec<f32>,
}

impl Adjacency {
    /// Builds the adjacency of `net`'s resistor graph.
    pub(crate) fn of(net: &RcNet) -> Self {
        let n = net.node_count();
        let triplets: Vec<(usize, usize, f32)> = net
            .iter_edges()
            .flat_map(|(_, e)| {
                let (a, b) = (e.a.index(), e.b.index());
                let w = e.res.value() as f32 / R_SCALE;
                [(a, b, w), (b, a, w)]
            })
            .collect();
        let res = Csr::from_triplets(n, n, &triplets);
        let mean = (0..n)
            .flat_map(|r| {
                let deg = res.row(r).0.len();
                std::iter::repeat_n(1.0 / deg as f32, deg)
            })
            .collect();
        Adjacency { res, mean }
    }

    /// The eq.-(1) aggregation operand: resistance-weighted, or the
    /// mean aggregation of the ablation.
    pub(crate) fn csr(&self, weighted: bool) -> CsrRef<'_> {
        if weighted {
            self.res.view()
        } else {
            self.res.view_with(&self.mean)
        }
    }

    /// Dense `n x n` resistance-weighted adjacency.
    pub fn dense_res(&self) -> Mat {
        self.res.to_dense()
    }

    /// Dense `n x n` row-normalized binary adjacency.
    pub fn dense_mean(&self) -> Mat {
        self.res.with_values(self.mean.clone()).to_dense()
    }

    /// Dense `n x n` symmetrically normalized adjacency with self-loops,
    /// `D^-1/2 (A + I) D^-1/2` (GCN/GCNII propagation).
    pub fn dense_gcn(&self) -> Mat {
        let n = self.res.rows();
        // Degree with the self-loop (nets have no self-edges).
        let deg: Vec<f32> = (0..n)
            .map(|r| (self.res.row(r).0.len() + 1) as f32)
            .collect();
        let mut m = Mat::zeros(n, n);
        for r in 0..n {
            for c in self.res.row(r).0.iter().copied().chain([r]) {
                m.set(r, c, 1.0 / (deg[r] * deg[c]).sqrt());
            }
        }
        m
    }

    /// Dense `n x n` attention mask: 0 on edges and the diagonal, a
    /// large negative value elsewhere (GAT masked softmax).
    pub fn dense_mask(&self) -> Mat {
        let n = self.res.rows();
        let mut m = Mat::full(n, n, -1e9);
        for r in 0..n {
            m.set(r, r, 0.0);
            for &c in self.res.row(r).0 {
                m.set(r, c, 0.0);
            }
        }
        m
    }
}

/// A net packed for the graph models.
#[derive(Debug, Clone, PartialEq)]
pub struct GraphBatch {
    /// `n x d_x` node features.
    pub x: Mat,
    /// The net's adjacency, sparse.
    pub adj: Adjacency,
    /// Wire paths, aligned with `net.paths()`.
    pub paths: Vec<PathSpec>,
    /// Optional `p x 2` training targets: column 0 = slew, column 1 =
    /// delay (normalized units).
    pub targets: Option<Mat>,
}

impl GraphBatch {
    /// Builds a batch from a net's connectivity plus externally computed
    /// node features, path features, and optional targets.
    ///
    /// # Errors
    ///
    /// Returns [`GnnError::BadBatch`] when dimensions are inconsistent
    /// with the net (wrong node count, path count, or target shape).
    pub fn build(
        net: &RcNet,
        x: Mat,
        path_features: Vec<Mat>,
        targets: Option<Mat>,
    ) -> Result<Self, GnnError> {
        let n = net.node_count();
        if x.rows() != n {
            return Err(GnnError::BadBatch(format!(
                "node features have {} rows, net has {n} nodes",
                x.rows()
            )));
        }
        let p = net.paths().len();
        if path_features.len() != p {
            return Err(GnnError::BadBatch(format!(
                "{} path feature rows for {p} paths",
                path_features.len()
            )));
        }
        for (i, f) in path_features.iter().enumerate() {
            if f.rows() != 1 {
                return Err(GnnError::BadBatch(format!(
                    "path {i} features must be a single row"
                )));
            }
            if f.cols() != path_features[0].cols() {
                return Err(GnnError::BadBatch("ragged path features".into()));
            }
        }
        if let Some(t) = &targets {
            if t.shape() != (p, 2) {
                return Err(GnnError::BadBatch(format!(
                    "targets must be {p}x2, got {}x{}",
                    t.rows(),
                    t.cols()
                )));
            }
        }

        let paths = net
            .paths()
            .iter()
            .zip(path_features)
            .map(|(p, features)| PathSpec {
                nodes: p.nodes.iter().map(|n| n.index()).collect(),
                features,
            })
            .collect();

        Ok(GraphBatch {
            x,
            adj: Adjacency::of(net),
            paths,
            targets,
        })
    }

    /// Number of nodes.
    pub fn node_count(&self) -> usize {
        self.x.rows()
    }

    /// Node feature dimension.
    pub fn node_dim(&self) -> usize {
        self.x.cols()
    }

    /// Path feature dimension.
    pub fn path_dim(&self) -> usize {
        self.paths.first().map_or(0, |p| p.features.cols())
    }

    /// Number of wire paths.
    pub fn path_count(&self) -> usize {
        self.paths.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rcnet::{Farads, Ohms, RcNetBuilder};

    fn diamond() -> RcNet {
        let mut b = RcNetBuilder::new("d");
        let s = b.source("s", Farads(1e-15));
        let a = b.internal("a", Farads(1e-15));
        let k = b.sink("k", Farads(1e-15));
        b.resistor(s, a, Ohms(60.0));
        b.resistor(a, k, Ohms(60.0));
        b.resistor(s, k, Ohms(120.0));
        b.build().unwrap()
    }

    fn build_ok(net: &RcNet) -> GraphBatch {
        let n = net.node_count();
        let x = Mat::full(n, 3, 0.5);
        let pf = net
            .paths()
            .iter()
            .map(|_| Mat::row_vector(vec![1.0, 2.0]))
            .collect();
        GraphBatch::build(net, x, pf, None).unwrap()
    }

    #[test]
    fn adjacency_variants_consistent() {
        let net = diamond();
        let b = build_ok(&net);
        let n = net.node_count();
        assert_eq!(b.node_count(), n);
        assert_eq!(b.node_dim(), 3);
        assert_eq!(b.path_dim(), 2);
        assert_eq!(b.path_count(), 1);

        assert_eq!(b.adj.res.nnz(), 6);

        // Weighted adjacency symmetric, weighted by normalized resistance.
        let res = b.adj.dense_res();
        for r in 0..n {
            for c in 0..n {
                assert_eq!(res.get(r, c), res.get(c, r));
            }
        }
        let s = net.source().index();
        let k = net.node_by_name("k").unwrap().index();
        assert!((res.get(s, k) - 1.0).abs() < 1e-6); // 120/120

        // Mean-aggregation rows sum to 1 for connected nodes.
        let mean = b.adj.dense_mean();
        for r in 0..n {
            let sum: f32 = (0..n).map(|c| mean.get(r, c)).sum();
            assert!((sum - 1.0).abs() < 1e-5);
        }

        // GCN normalization symmetric with self-loops.
        let gcn = b.adj.dense_gcn();
        for r in 0..n {
            assert!(gcn.get(r, r) > 0.0);
            for c in 0..n {
                assert_eq!(gcn.get(r, c), gcn.get(c, r));
            }
        }

        // mask: diagonal open, edges open, everything in a diamond is
        // connected so check an explicit non-edge in a path graph instead.
        let mask = b.adj.dense_mask();
        assert_eq!(mask.get(s, s), 0.0);
        assert_eq!(mask.get(s, k), 0.0);
    }

    #[test]
    fn mask_blocks_non_edges() {
        let mut bld = RcNetBuilder::new("chain");
        let s = bld.source("s", Farads(1e-15));
        let m = bld.internal("m", Farads(1e-15));
        let k = bld.sink("k", Farads(1e-15));
        bld.resistor(s, m, Ohms(10.0));
        bld.resistor(m, k, Ohms(10.0));
        let net = bld.build().unwrap();
        let b = build_ok(&net);
        let mask = b.adj.dense_mask();
        assert!(mask.get(s.index(), k.index()) < -1e8);
        assert_eq!(mask.get(s.index(), m.index()), 0.0);
    }

    #[test]
    fn parallel_resistors_sum_in_edge_order() {
        let mut bld = RcNetBuilder::new("par");
        let s = bld.source("s", Farads(1e-15));
        let k = bld.sink("k", Farads(1e-15));
        let rs = [13.0, 29.0, 71.0];
        for r in rs {
            bld.resistor(s, k, Ohms(r));
        }
        let net = bld.build().unwrap();
        let b = build_ok(&net);
        assert_eq!(b.adj.res.nnz(), 2, "one entry per connected pair");
        let want = rs.iter().fold(0.0f32, |acc, &r| acc + r as f32 / R_SCALE);
        assert_eq!(b.adj.dense_res().get(s.index(), k.index()), want);
        assert_eq!(b.adj.dense_mean().get(k.index(), s.index()), 1.0);
    }

    #[test]
    fn validation_rejects_inconsistency() {
        let net = diamond();
        let bad_x = Mat::zeros(net.node_count() + 1, 3);
        assert!(GraphBatch::build(&net, bad_x, vec![Mat::row_vector(vec![1.0])], None).is_err());

        let x = Mat::zeros(net.node_count(), 3);
        assert!(GraphBatch::build(&net, x.clone(), vec![], None).is_err());

        let pf = vec![Mat::zeros(2, 2)];
        assert!(GraphBatch::build(&net, x.clone(), pf, None).is_err());

        let pf = vec![Mat::row_vector(vec![1.0])];
        let bad_t = Some(Mat::zeros(3, 2));
        assert!(GraphBatch::build(&net, x, pf, bad_t).is_err());
    }

    #[test]
    fn paths_record_node_indices() {
        let net = diamond();
        let b = build_ok(&net);
        let p = &b.paths[0];
        assert_eq!(p.nodes.first(), Some(&net.source().index()));
        assert_eq!(
            p.nodes.last(),
            Some(&net.node_by_name("k").unwrap().index())
        );
    }
}
