//! The packed GNNTrans engine: one forward for serving and training.
//!
//! Serving and ECO re-timing never backprop, and training needs only
//! one analytic backward per layer, so neither builds an autograd
//! [`tensor::Tape`]. This module holds the one GNNTrans forward both
//! run:
//!
//! * [`Layout`] — the GNNTrans layer stack compiled to parameter ids.
//!   It reads weights from whichever [`ParamSet`] it is handed: the
//!   live one while training, an estimator's own, or the snapshot an
//!   [`InferenceModel`] owns.
//! * [`PackedBatch`] — K nets' node-feature matrices stacked into one
//!   tall matrix with node and path offset tables, so the dense
//!   projections (input, W1/W2, the fused Q/K/V of all heads, W3, both
//!   MLP heads) run as a handful of large GEMMs across all K graphs at
//!   once.
//! * [`split_packs`] — the greedy rule that cuts a run of graphs into
//!   packs under a node and a graph budget.
//!
//! [`Layout::forward`] runs the stack with the forward-only ops of
//! [`tensor::infer`] over a reusable [`Arena`] (no tape nodes, no
//! gradient buffers, allocation-free once the arena is warm), handing
//! each buffer back as soon as it is dead. The training step of
//! [`crate::grad`] runs the same forward but keeps the activations its
//! backward reads.
//!
//! # Packing layout and masking
//!
//! Node rows of graph `s` occupy rows `node_offsets[s]..node_offsets[s+1]`
//! of the packed `x`; path rows likewise via `path_offsets`. Row-wise ops
//! (bias, ReLU, softmax, layer norm) and per-row GEMMs are oblivious to
//! the stacking. The two places where graphs must not mix are handled
//! per segment on row windows of the tall matrix, which is equivalent to
//! a block-diagonal operator without ever materializing the `N x N`
//! block-diagonal matrix:
//!
//! * neighbor aggregation `A_s · X_s` (eq. 1) multiplies each graph's
//!   own sparse adjacency against its own row window, at a cost that
//!   follows the graph's edge count;
//! * attention scores (eq. 2) are formed per segment, so a query's
//!   softmax only ever sees the graph's own nodes — exactly the
//!   per-graph mask, with the `-inf` entries never computed at all.
//!
//! Because the blocked GEMM produces every output row with a per-row
//! accumulator whose accumulation order is independent of the row's
//! position and of the total row count, a net's prediction is
//! **bit-identical** whether it is packed alone or with neighbors, and
//! matches the tape forward (pinned by tests here and in
//! `tensor::infer`). The sparse aggregation keeps that: the CSR kernel
//! skips only the dense product's zero terms and flushes its
//! accumulators at the GEMM's `KC` block boundaries, so it sums every
//! output element exactly as the tape's dense `A_s · X_s` does.
//!
//! # Fused Q/K/V
//!
//! Each attention layer projects all heads at once: the forward
//! assembles `W_qkv = [Wq_0 … Wq_{H−1} | Wk_0 … | Wv_0 …]` (`hidden x
//! 3·hidden`) from the [`ParamSet`] it is handed, every call (training
//! moves the weights between steps, so nothing is cached), and runs
//! one tall GEMM `inner · W_qkv` where the tape runs 3·H. A column of
//! the blocked GEMM depends only on its column of `B`, so each head's
//! window of the fused product is the tape's per-head product bit for
//! bit. The product replaces the per-head buffers rather than joining
//! them: an inference forward gives the layer-norm output back as soon
//! as the product exists and writes each head's output straight into
//! its columns of the concatenation; a training forward copies each
//! head's Q/K/V windows out for the backward.
//!
//! # Transposed attention
//!
//! Each segment's attention runs in the transposed layout, where the
//! wide dimension is the node count `ns` and the narrow one the head
//! width: the scores are formed as `Sᵀ = K_s·Q_sᵀ`, the column softmax
//! (`1/√d_k` folded in) turns them into `Pᵀ` with 8 queries per vector,
//! and `Oᵀ = V_sᵀ·Pᵀ` has the head width as its `m`, which fills the
//! GEMM's 6-row tiles, where `P·V` padded 6 columns to 16. `Q_sᵀ` and
//! `V_sᵀ` are transposed straight out of the fused product's windows;
//! `K_s` is copied out once per segment and head, so every strip's
//! GEMM reads it contiguous, and `Oᵀ` is transposed straight into the
//! head's columns of the concatenation. Queries go
//! in strips of `ATTN_STRIP` = 64, so the score buffer is `ns x 64`, not
//! `ns x ns`. It is still the tape's arithmetic, bit for bit: `fma(a,
//! b, c)` is symmetric in `a` and `b`, so each score and each output
//! element sums the same terms in the same ascending order within the
//! same `KC` blocks whatever the strip width, and each query's max,
//! exp, sum and divide are the tape's row loop (the exp reproduces
//! libm's `expf`; see `tensor::kernels`). A training forward stashes `P`
//! transposed back, the layout the backward reads.

use crate::batch::GraphBatch;
use crate::layers::Linear;
use crate::models::{GnnTrans, GnnTransConfig, GraphModel};
use crate::GnnError;
use std::time::Instant;
use tensor::infer::{self as ops};
use tensor::sparse::CsrRef;
use tensor::{Mat, ParamSet};

pub use tensor::infer::Arena;

/// Node budget of one pack: large enough that the shared projections
/// run as GEMM-friendly tall matrices, small enough that a pack's
/// attention score buffers stay cache-resident.
pub const PACK_MAX_NODES: usize = 2048;

/// Queries per attention strip. A segment's attention runs over blocks
/// of this many queries, so its score buffer is `ns x ATTN_STRIP`
/// (250 KiB at 1000 nodes) rather than `ns x ns`. Every score and
/// output element sums the same terms either way, so the width changes
/// no bit.
const ATTN_STRIP: usize = 64;

/// Cuts `items` into contiguous packs: a pack closes before the item
/// that would take it past [`PACK_MAX_NODES`] nodes or past
/// `max_graphs` graphs, and an item larger than the node budget gets a
/// pack of its own. The split depends only on the items — never on
/// the thread count — so a pack-order reduction stays bit-reproducible
/// under any parallelism.
pub fn split_packs<T>(items: &[T], nodes: impl Fn(&T) -> usize, max_graphs: usize) -> Vec<&[T]> {
    let mut packs = Vec::new();
    let mut start = 0;
    let mut total = 0;
    for (i, item) in items.iter().enumerate() {
        let n = nodes(item);
        if i > start && (total + n > PACK_MAX_NODES || i - start >= max_graphs) {
            packs.push(&items[start..i]);
            start = i;
            total = 0;
        }
        total += n;
    }
    if start < items.len() {
        packs.push(&items[start..]);
    }
    packs
}

/// K graphs stacked for one batched forward pass.
///
/// Built by [`PackedBatch::pack`]; consumed by [`Layout::forward`].
/// Holds copies of the stacked node and path features and the
/// offset tables; adjacencies (and training targets) are read in place
/// from the borrowed graphs, so the block-diagonal structure is
/// exploited and never materialized.
#[derive(Debug, Clone)]
pub struct PackedBatch<'a> {
    /// The packed graphs, in pack order.
    graphs: Vec<&'a GraphBatch>,
    /// `N x d_x` node features, graphs stacked top to bottom.
    pub(crate) x: Mat,
    /// `P x d_h` stacked raw path features (zero-width when d_h = 0).
    path_features: Mat,
    /// `node_offsets[s]` = first node row of graph `s`; last entry = N.
    node_offsets: Vec<usize>,
    /// `path_offsets[s]` = first path row of graph `s`; last entry = P.
    path_offsets: Vec<usize>,
    /// Path `j` visits packed node rows
    /// `path_nodes[path_node_offsets[j]..path_node_offsets[j + 1]]`.
    path_node_offsets: Vec<usize>,
    path_nodes: Vec<usize>,
}

impl<'a> PackedBatch<'a> {
    /// Stacks `graphs` into one packed batch.
    ///
    /// # Errors
    ///
    /// Returns [`GnnError::BadBatch`] when `graphs` is empty, node or
    /// path feature widths disagree across graphs, a graph has no
    /// paths or no nodes, or a path references an out-of-range node.
    pub fn pack(graphs: &[&'a GraphBatch]) -> Result<Self, GnnError> {
        let first = graphs
            .first()
            .ok_or_else(|| GnnError::BadBatch("cannot pack zero graphs".into()))?;
        let node_dim = first.node_dim();
        let path_dim = first.path_dim();
        let mut node_offsets = Vec::with_capacity(graphs.len() + 1);
        let mut path_offsets = Vec::with_capacity(graphs.len() + 1);
        let mut total_nodes = 0usize;
        let mut total_paths = 0usize;
        for (i, g) in graphs.iter().enumerate() {
            if g.node_count() == 0 {
                return Err(GnnError::BadBatch(format!("graph {i} has no nodes")));
            }
            if g.path_count() == 0 {
                return Err(GnnError::BadBatch(format!("graph {i} has no paths")));
            }
            if g.node_dim() != node_dim {
                return Err(GnnError::BadBatch(format!(
                    "graph {i} node dim {} != {node_dim}",
                    g.node_dim()
                )));
            }
            if g.path_dim() != path_dim {
                return Err(GnnError::BadBatch(format!(
                    "graph {i} path dim {} != {path_dim}",
                    g.path_dim()
                )));
            }
            node_offsets.push(total_nodes);
            path_offsets.push(total_paths);
            total_nodes += g.node_count();
            total_paths += g.path_count();
        }
        node_offsets.push(total_nodes);
        path_offsets.push(total_paths);

        let mut x = Mat::zeros(total_nodes, node_dim);
        let mut path_features = Mat::zeros(total_paths, path_dim);
        let mut path_node_offsets = Vec::with_capacity(total_paths + 1);
        let mut path_nodes = Vec::new();
        for (s, g) in graphs.iter().enumerate() {
            let n0 = node_offsets[s];
            x.as_mut_slice()[n0 * node_dim..(n0 + g.node_count()) * node_dim]
                .copy_from_slice(g.x.as_slice());
            for (j, p) in g.paths.iter().enumerate() {
                if let Some(&idx) = p.nodes.iter().find(|&&idx| idx >= g.node_count()) {
                    return Err(GnnError::BadBatch(format!(
                        "graph {s} path {j} references node {idx} of {}",
                        g.node_count()
                    )));
                }
                path_node_offsets.push(path_nodes.len());
                path_nodes.extend(p.nodes.iter().map(|&idx| n0 + idx));
                if path_dim > 0 {
                    let r = path_offsets[s] + j;
                    path_features.as_mut_slice()[r * path_dim..(r + 1) * path_dim]
                        .copy_from_slice(p.features.row(0));
                }
            }
        }
        path_node_offsets.push(path_nodes.len());

        Ok(PackedBatch {
            graphs: graphs.to_vec(),
            x,
            path_features,
            node_offsets,
            path_offsets,
            path_node_offsets,
            path_nodes,
        })
    }

    /// Number of packed graphs.
    pub fn graph_count(&self) -> usize {
        self.graphs.len()
    }

    /// Total node rows across all graphs.
    pub fn node_count(&self) -> usize {
        self.x.rows()
    }

    /// Total path rows across all graphs.
    pub fn path_count(&self) -> usize {
        self.path_offsets[self.graphs.len()]
    }

    /// Path-row range `[start, end)` of graph `s` in the packed output,
    /// for slicing per-graph predictions back out.
    pub fn path_range(&self, s: usize) -> (usize, usize) {
        (self.path_offsets[s], self.path_offsets[s + 1])
    }

    /// First node row of graph `s` and its node count.
    pub(crate) fn node_window(&self, s: usize) -> (usize, usize) {
        let n0 = self.node_offsets[s];
        (n0, self.node_offsets[s + 1] - n0)
    }

    /// Packed node rows visited by path `j` (global path order).
    pub(crate) fn path_nodes(&self, j: usize) -> &[usize] {
        &self.path_nodes[self.path_node_offsets[j]..self.path_node_offsets[j + 1]]
    }

    /// Graph `s`'s eq.-(1) adjacency: resistance-weighted, or the mean
    /// aggregation of the ablation.
    pub(crate) fn adj(&self, s: usize, weighted: bool) -> CsrRef<'a> {
        self.graphs[s].adj.csr(weighted)
    }
}

/// Parameter ids of one affine layer.
#[derive(Debug, Clone, Copy)]
pub(crate) struct AffineIds {
    pub(crate) w: usize,
    pub(crate) b: usize,
}

impl AffineIds {
    fn of(l: &Linear) -> Self {
        AffineIds {
            w: l.w_id(),
            b: l.b_id(),
        }
    }
}

/// Parameter ids of one eq.-(1) layer (`W2`'s bias is unused, matching
/// the tape forward).
#[derive(Debug, Clone, Copy)]
pub(crate) struct SageIds {
    pub(crate) w1: AffineIds,
    pub(crate) w2: usize,
}

/// Parameter ids of one eqs.-(2)–(3) layer, one Q/K/V id per head (the
/// forward fuses them per call). Q/K/V biases are registered by the
/// model but never used (`forward_no_bias`), so they carry no gradient
/// and are absent here.
#[derive(Debug, Clone)]
pub(crate) struct AttnIds {
    pub(crate) wq: Vec<usize>,
    pub(crate) wk: Vec<usize>,
    pub(crate) wv: Vec<usize>,
    pub(crate) w3: AffineIds,
    pub(crate) head_dim: usize,
    pub(crate) norm: bool,
}

/// The GNNTrans layer stack compiled to parameter *ids*.
///
/// A layout stores no weights: every forward reads them from the
/// [`ParamSet`] it is given, which must be the parameter set of a model
/// with this layout. So one layout serves a whole training run while
/// the optimizer mutates the weights between steps, and an estimator
/// forwards straight from its own model's parameters.
#[derive(Debug, Clone)]
pub struct Layout {
    pub(crate) cfg: GnnTransConfig,
    pub(crate) input: AffineIds,
    pub(crate) gnn: Vec<SageIds>,
    pub(crate) attn: Vec<AttnIds>,
    pub(crate) slew: Vec<AffineIds>,
    pub(crate) delay: Vec<AffineIds>,
}

/// Per-head activations of one attention layer: `q`, `key` and `v`
/// are the head's `n x d_k` windows of the fused Q/K/V product.
#[derive(Debug)]
pub(crate) struct HeadActs {
    pub(crate) q: Mat,
    pub(crate) key: Mat,
    pub(crate) v: Mat,
    /// Post-softmax attention probabilities, one `ns x ns` matrix per
    /// segment.
    pub(crate) probs: Vec<Mat>,
}

/// Activations of one attention layer.
#[derive(Debug)]
pub(crate) struct AttnActs {
    /// Layer-norm output when `norm` is on (`None` = input used raw).
    pub(crate) inner: Option<Mat>,
    pub(crate) concat: Mat,
    pub(crate) heads: Vec<HeadActs>,
}

/// The activations a training forward keeps for the backward pass.
#[derive(Debug, Default)]
pub(crate) struct Acts {
    /// `hs[i]` = activation entering layer `i` of the combined stack:
    /// `hs[0]` after the input projection, `hs[1..=L1]` after each GNN
    /// layer, `hs[L1+1..=L1+L2]` after each attention layer.
    pub(crate) hs: Vec<Mat>,
    /// Each GNN layer's aggregation `A_s · H_s`, all segments.
    pub(crate) aggs: Vec<Mat>,
    pub(crate) attn: Vec<AttnActs>,
    /// The slew head's input `f` (eq. 4), then each layer's output
    /// (post-ReLU for hidden layers).
    pub(crate) slew: Vec<Mat>,
    /// The delay head's input `[f, slew]`, then each layer's output.
    pub(crate) delay: Vec<Mat>,
}

impl Acts {
    /// Returns every kept matrix to `arena`.
    pub(crate) fn recycle(self, arena: &mut Arena) {
        let attn = self.attn.into_iter().flat_map(|a| {
            let heads = a
                .heads
                .into_iter()
                .flat_map(|h| [h.q, h.key, h.v].into_iter().chain(h.probs));
            a.inner.into_iter().chain([a.concat]).chain(heads)
        });
        for m in self
            .hs
            .into_iter()
            .chain(self.aggs)
            .chain(attn)
            .chain(self.slew)
            .chain(self.delay)
        {
            arena.give(m);
        }
    }
}

impl Layout {
    /// Compiles `model`'s layer structure (parameter ids only).
    pub fn compile(model: &GnnTrans) -> Self {
        Layout {
            cfg: model.config().clone(),
            input: AffineIds::of(model.input_proj()),
            gnn: model
                .gnn_stack()
                .iter()
                .map(|l| SageIds {
                    w1: AffineIds::of(l.w1()),
                    w2: l.w2().w_id(),
                })
                .collect(),
            attn: model
                .attn_stack()
                .iter()
                .map(|l| AttnIds {
                    wq: l.wq().iter().map(|p| p.w_id()).collect(),
                    wk: l.wk().iter().map(|p| p.w_id()).collect(),
                    wv: l.wv().iter().map(|p| p.w_id()).collect(),
                    w3: AffineIds::of(l.w3()),
                    head_dim: l.head_dim(),
                    norm: l.norm(),
                })
                .collect(),
            slew: model
                .slew_head()
                .layers()
                .iter()
                .map(AffineIds::of)
                .collect(),
            delay: model
                .delay_head()
                .layers()
                .iter()
                .map(AffineIds::of)
                .collect(),
        }
    }

    /// Runs the stack over a packed batch with weights from `params`,
    /// returning the `P x 2` predictions (column 0 = slew, column 1 =
    /// delay) with path rows in packed order — slice per graph with
    /// [`PackedBatch::path_range`].
    ///
    /// Bit-identical to running the tape forward per graph.
    ///
    /// # Errors
    ///
    /// Returns [`GnnError::BadBatch`] when the packed feature widths do
    /// not match the compiled configuration.
    ///
    /// # Panics
    ///
    /// Panics when `params` is not the parameter set of a model with
    /// this layout.
    pub fn forward(
        &self,
        params: &ParamSet,
        packed: &PackedBatch,
        arena: &mut Arena,
    ) -> Result<Mat, GnnError> {
        let started = Instant::now();
        let (out, _) = self.run(params, packed, arena, false)?;
        obs::histogram_with("infer.batch_graphs", None, count_bounds)
            .observe(packed.graph_count() as f64);
        obs::histogram_with("infer.batch_nodes", None, count_bounds)
            .observe(packed.node_count() as f64);
        obs::histogram("infer.forward_seconds").observe(started.elapsed().as_secs_f64());
        obs::gauge("infer.arena_bytes").set(arena.bytes() as f64);
        Ok(out)
    }

    /// The GNNTrans forward (eqs. 1–6) over a packed batch. With `keep`
    /// every activation the backward reads is returned in [`Acts`];
    /// without it each buffer goes back to `arena` once dead and the
    /// returned [`Acts`] is empty. The kernel calls are the same either
    /// way, so training and inference compute identical values.
    pub(crate) fn run(
        &self,
        params: &ParamSet,
        packed: &PackedBatch,
        arena: &mut Arena,
        keep: bool,
    ) -> Result<(Mat, Acts), GnnError> {
        if packed.x.cols() != self.cfg.node_dim {
            return Err(GnnError::BadBatch(format!(
                "packed node dim {} != model node dim {}",
                packed.x.cols(),
                self.cfg.node_dim
            )));
        }
        if self.cfg.path_features && packed.path_features.cols() != self.cfg.path_dim {
            return Err(GnnError::BadBatch(format!(
                "packed path dim {} != model path dim {}",
                packed.path_features.cols(),
                self.cfg.path_dim
            )));
        }
        let stash = |list: &mut Vec<Mat>, m: Mat, arena: &mut Arena| {
            if keep {
                list.push(m);
            } else {
                arena.give(m);
            }
        };
        let mut acts = Acts::default();
        let n = packed.node_count();
        let p = packed.path_count();
        let hidden = self.cfg.hidden;

        // Input projection + ReLU.
        let mut h = arena.take(n, hidden);
        ops::matmul_into(&packed.x, params.get(self.input.w), &mut h);
        ops::add_bias_rows(&mut h, params.get(self.input.b));
        ops::relu_inplace(&mut h);

        // L1 edge-weighted GNN layers (eq. 1): the two projections are
        // one tall GEMM each; only A_s · X_s is per-segment.
        for layer in &self.gnn {
            let mut self_term = arena.take(n, hidden);
            ops::matmul_into(&h, params.get(layer.w1.w), &mut self_term);
            ops::add_bias_rows(&mut self_term, params.get(layer.w1.b));
            let mut agg = arena.take(n, hidden);
            for s in 0..packed.graph_count() {
                let (n0, _) = packed.node_window(s);
                let adj = packed.adj(s, self.cfg.weighted_aggregation);
                ops::spmm_seg_into(adj, &h, n0, &mut agg, n0);
            }
            let mut neigh = arena.take(n, hidden);
            ops::matmul_into(&agg, params.get(layer.w2), &mut neigh);
            ops::add_assign(&mut self_term, &neigh);
            ops::relu_inplace(&mut self_term);
            arena.give(neigh);
            stash(&mut acts.aggs, agg, arena);
            stash(&mut acts.hs, std::mem::replace(&mut h, self_term), arena);
        }

        // L2 self-attention layers (eqs. 2-3): Q/K/V of every head come
        // out of one tall GEMM, W3 is another; scores + softmax +
        // weighted sum run per segment, which *is* the per-graph
        // attention mask.
        for layer in &self.attn {
            let hd = layer.head_dim;
            let heads = layer.wq.len();
            // Q, K and V each span `hidden` = heads · hd columns of the
            // fused product: [Q_0 … Q_{H−1} | K_0 … | V_0 …].
            let (q0, k0, v0) = (0, hidden, 2 * hidden);
            let mut w_qkv = arena.take(hidden, 3 * hidden);
            for (col0, ids) in [(q0, &layer.wq), (k0, &layer.wk), (v0, &layer.wv)] {
                for (k, &id) in ids.iter().enumerate() {
                    ops::copy_cols(&mut w_qkv, col0 + k * hd, params.get(id));
                }
            }
            let inner_mat = layer.norm.then(|| {
                let mut buf = arena.take(n, hidden);
                ops::layer_norm_rows_into(&h, 1e-5, &mut buf);
                buf
            });
            let mut qkv = arena.take(n, 3 * hidden);
            ops::matmul_into(inner_mat.as_ref().unwrap_or(&h), &w_qkv, &mut qkv);
            arena.give(w_qkv);
            // Only the backward reads the layer-norm output again.
            let inner_mat = match inner_mat {
                Some(m) if !keep => {
                    arena.give(m);
                    None
                }
                other => other,
            };
            let mut heads_acts: Vec<HeadActs> = Vec::new();
            if keep {
                for k in 0..heads {
                    let mut window = |col0: usize| {
                        let mut m = arena.take(n, hd);
                        ops::copy_window_into(&qkv, 0, col0 + k * hd, &mut m);
                        m
                    };
                    let (q, key, v) = (window(q0), window(k0), window(v0));
                    heads_acts.push(HeadActs {
                        q,
                        key,
                        v,
                        probs: Vec::with_capacity(packed.graph_count()),
                    });
                }
            }
            let scale = 1.0 / (hd as f32).sqrt();
            let mut concat = arena.take(n, hidden);
            for s in 0..packed.graph_count() {
                let (n0, ns) = packed.node_window(s);
                for k in 0..heads {
                    // K_s contiguous, so every strip's A-pack reads it
                    // from L1; V_sᵀ as the A operand of Oᵀ = V_sᵀ·Pᵀ.
                    let mut key = arena.take(ns, hd);
                    ops::copy_window_into(&qkv, n0, k0 + k * hd, &mut key);
                    let mut vt = arena.take(hd, ns);
                    ops::transpose_window_into(&qkv, n0, v0 + k * hd, &mut vt);
                    let mut p_s = keep.then(|| arena.take(ns, ns));
                    for i0 in (0..ns).step_by(ATTN_STRIP) {
                        let w = ATTN_STRIP.min(ns - i0);
                        // Transposed scores of queries i0..i0+w,
                        // Sᵀ = K_s·Q_sᵀ: one query per column, so the
                        // softmax runs across queries at vector width.
                        let mut seg_t = arena.take(hd, w);
                        let mut probs_t = arena.take(ns, w);
                        ops::transpose_window_into(&qkv, n0 + i0, q0 + k * hd, &mut seg_t);
                        ops::matmul_into(&key, &seg_t, &mut probs_t);
                        ops::softmax_cols_inplace(&mut probs_t, scale);
                        // Oᵀ = V_sᵀ·Pᵀ (hd rows: full GEMM tiles),
                        // straight into the head's columns of concat.
                        ops::matmul_into(&vt, &probs_t, &mut seg_t);
                        ops::transpose_into_window(&seg_t, &mut concat, n0 + i0, k * hd);
                        if let Some(p_s) = p_s.as_mut() {
                            ops::transpose_seg_into(&probs_t, p_s, i0);
                        }
                        arena.give(seg_t);
                        arena.give(probs_t);
                    }
                    arena.give(key);
                    arena.give(vt);
                    if let Some(head) = heads_acts.get_mut(k) {
                        head.probs.extend(p_s);
                    }
                }
            }
            arena.give(qkv);
            let mut projected = arena.take(n, hidden);
            ops::matmul_into(&concat, params.get(layer.w3.w), &mut projected);
            ops::add_bias_rows(&mut projected, params.get(layer.w3.b));
            // Residual (eq. 3): x + projected.
            ops::add_assign(&mut projected, &h);
            if keep {
                acts.attn.push(AttnActs {
                    inner: inner_mat,
                    concat,
                    heads: heads_acts,
                });
            } else {
                arena.give(concat);
            }
            stash(&mut acts.hs, std::mem::replace(&mut h, projected), arena);
        }

        // Pooling (eq. 4): mean node reps per path, concat path features.
        let pooled_dim = hidden + if self.cfg.path_features { self.cfg.path_dim } else { 0 };
        let mut f = arena.take(p, pooled_dim);
        let mut pooled = arena.take(p, hidden);
        for j in 0..p {
            ops::mean_rows_into(&h, packed.path_nodes(j), &mut pooled, j);
        }
        ops::copy_cols(&mut f, 0, &pooled);
        if self.cfg.path_features {
            ops::copy_cols(&mut f, hidden, &packed.path_features);
        }
        arena.give(pooled);
        stash(&mut acts.hs, h, arena);

        // Eq. (5): slew head; eq. (6): delay head conditioned on slew.
        let mut slew = vec![f];
        mlp(params, &self.slew, &mut slew, arena);
        let mut delay_in = arena.take(p, pooled_dim + 1);
        ops::copy_cols(&mut delay_in, 0, &slew[0]);
        ops::copy_cols(
            &mut delay_in,
            pooled_dim,
            slew.last().expect("slew head ran"),
        );
        let mut delay = vec![delay_in];
        mlp(params, &self.delay, &mut delay, arena);

        let mut out = Mat::zeros(p, 2);
        ops::copy_cols(&mut out, 0, slew.last().expect("slew head ran"));
        ops::copy_cols(&mut out, 1, delay.last().expect("delay head ran"));
        for m in slew {
            stash(&mut acts.slew, m, arena);
        }
        for m in delay {
            stash(&mut acts.delay, m, arena);
        }
        Ok((out, acts))
    }
}

/// Runs a ReLU MLP with linear output over `io[0]`, appending each
/// layer's output (post-ReLU for hidden layers) to `io`.
fn mlp(params: &ParamSet, layers: &[AffineIds], io: &mut Vec<Mat>, arena: &mut Arena) {
    for (i, l) in layers.iter().enumerate() {
        let w = params.get(l.w);
        let input = io.last().expect("MLP input present");
        let mut out = arena.take(input.rows(), w.cols());
        ops::matmul_into(input, w, &mut out);
        ops::add_bias_rows(&mut out, params.get(l.b));
        if i + 1 < layers.len() {
            ops::relu_inplace(&mut out);
        }
        io.push(out);
    }
}

/// A trained model frozen for serving: its [`Layout`] plus its own
/// snapshot of the weights.
///
/// Compile once after training (or loading) with
/// [`InferenceModel::compile`]; run with
/// [`InferenceModel::forward_packed`]. The struct is immutable and
/// `Sync` — share it behind an `Arc` across threads, with one [`Arena`]
/// per thread.
#[derive(Debug, Clone)]
pub struct InferenceModel {
    layout: Layout,
    params: ParamSet,
}

impl InferenceModel {
    /// Snapshots `model`'s current parameters into an executable form.
    pub fn compile(model: &GnnTrans) -> Self {
        InferenceModel {
            layout: Layout::compile(model),
            params: model.param_set().clone(),
        }
    }

    /// [`Layout::forward`] with the snapshot weights.
    ///
    /// # Errors
    ///
    /// Returns [`GnnError::BadBatch`] when the packed feature widths do
    /// not match the compiled configuration.
    pub fn forward_packed(&self, packed: &PackedBatch, arena: &mut Arena) -> Result<Mat, GnnError> {
        self.layout.forward(&self.params, packed, arena)
    }
}

/// Bucket bounds for small-count histograms (batch graphs/nodes):
/// factor-2 from 1 to 2048.
pub(crate) fn count_bounds() -> Vec<f64> {
    obs::exponential_bounds(1.0, 2.0, 12)
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use rcnet::{Farads, Ohms, RcNetBuilder};

    pub(crate) fn cfg() -> GnnTransConfig {
        GnnTransConfig {
            node_dim: 3,
            path_dim: 2,
            hidden: 8,
            gnn_layers: 2,
            attn_layers: 2,
            heads: 2,
            mlp_hidden: 8,
            ..Default::default()
        }
    }

    /// A labelled `nodes`-node chain net with pseudo-random features.
    pub(crate) fn chain_batch(seed: f32, nodes: usize) -> GraphBatch {
        let mut b = RcNetBuilder::new("n");
        let mut prev = b.source("s", Farads(1e-15));
        for i in 1..nodes - 1 {
            let node = b.internal(format!("m{i}"), Farads(1e-15));
            b.resistor(prev, node, Ohms(20.0 + i as f64));
            prev = node;
        }
        let k = b.sink("k", Farads(2e-15));
        b.resistor(prev, k, Ohms(35.0));
        let net = b.build().unwrap();
        let mut x = Mat::zeros(nodes, 3);
        for (i, v) in x.as_mut_slice().iter_mut().enumerate() {
            *v = ((i as f32 * 0.7 + seed).sin()) * 0.5;
        }
        let paths = net.paths().len();
        let pf = (0..paths)
            .map(|i| Mat::row_vector(vec![0.1 * seed, 0.2 + i as f32]))
            .collect();
        let mut t = Mat::zeros(paths, 2);
        for (i, v) in t.as_mut_slice().iter_mut().enumerate() {
            *v = ((i as f32 * 0.3 + seed).cos()) * 0.4;
        }
        GraphBatch::build(&net, x, pf, Some(t)).unwrap()
    }

    fn solo(model: &InferenceModel, batch: &GraphBatch, arena: &mut Arena) -> Mat {
        let packed = PackedBatch::pack(&[batch]).unwrap();
        model.forward_packed(&packed, arena).unwrap()
    }

    #[test]
    fn single_graph_matches_tape_bit_for_bit() {
        let model = GnnTrans::new(&cfg(), 17);
        let compiled = InferenceModel::compile(&model);
        let mut arena = Arena::new();
        for nodes in [3usize, 5, 9] {
            let batch = chain_batch(nodes as f32, nodes);
            let tape_out = model.predict(&batch);
            assert_eq!(
                solo(&compiled, &batch, &mut arena),
                tape_out,
                "{nodes}-node graph drifted"
            );
        }
    }

    #[test]
    fn unweighted_and_unnormed_variants_match_tape() {
        let variant = GnnTransConfig {
            weighted_aggregation: false,
            attn_norm: false,
            path_features: false,
            ..cfg()
        };
        let model = GnnTrans::new(&variant, 23);
        let compiled = InferenceModel::compile(&model);
        let mut arena = Arena::new();
        let batch = chain_batch(2.0, 6);
        assert_eq!(solo(&compiled, &batch, &mut arena), model.predict(&batch));
    }

    #[test]
    fn packing_is_composition_independent() {
        let model = GnnTrans::new(&cfg(), 5);
        let compiled = InferenceModel::compile(&model);
        let mut arena = Arena::new();
        let batches: Vec<GraphBatch> =
            (0..4).map(|i| chain_batch(i as f32, 3 + i * 2)).collect();
        let refs: Vec<&GraphBatch> = batches.iter().collect();
        let packed = PackedBatch::pack(&refs).unwrap();
        assert_eq!(packed.graph_count(), 4);
        let joint = compiled.forward_packed(&packed, &mut arena).unwrap();
        for (s, b) in batches.iter().enumerate() {
            let alone = solo(&compiled, b, &mut arena);
            let (p0, p1) = packed.path_range(s);
            assert_eq!(p1 - p0, alone.rows());
            for (r, pr) in (p0..p1).enumerate() {
                assert_eq!(joint.row(pr), alone.row(r), "graph {s} path {r} drifted");
            }
        }
    }

    #[test]
    fn forward_is_allocation_free_when_warm() {
        let model = GnnTrans::new(&cfg(), 9);
        let compiled = InferenceModel::compile(&model);
        let mut arena = Arena::new();
        let batch = chain_batch(1.0, 7);
        let packed = PackedBatch::pack(&[&batch]).unwrap();
        compiled.forward_packed(&packed, &mut arena).unwrap();
        let warm_bytes = arena.bytes();
        let warm_pooled = arena.pooled();
        for _ in 0..3 {
            compiled.forward_packed(&packed, &mut arena).unwrap();
        }
        assert_eq!(arena.bytes(), warm_bytes, "arena grew after warm-up");
        assert_eq!(arena.pooled(), warm_pooled);
    }

    #[test]
    fn pack_rejects_inconsistent_graphs() {
        assert!(matches!(
            PackedBatch::pack(&[]),
            Err(GnnError::BadBatch(_))
        ));
        let a = chain_batch(0.0, 4);
        let mut b = chain_batch(1.0, 4);
        b.x = Mat::zeros(4, 5); // width mismatch
        assert!(PackedBatch::pack(&[&a, &b]).is_err());
    }

    #[test]
    fn split_packs_respects_both_budgets() {
        let sizes = [1000usize, 1000, 100, 3000, 5, 5, 5];
        let packs = split_packs(&sizes, |&n| n, 2);
        assert_eq!(
            packs,
            vec![
                &sizes[0..2],
                &sizes[2..3],
                &sizes[3..4],
                &sizes[4..6],
                &sizes[6..7]
            ]
        );
        assert!(split_packs(&sizes[..0], |&n| n, 2).is_empty());
    }

    #[test]
    fn forward_rejects_wrong_widths() {
        let model = GnnTrans::new(&cfg(), 3);
        let compiled = InferenceModel::compile(&model);
        let mut arena = Arena::new();
        let mut batch = chain_batch(0.0, 4);
        batch.x = Mat::zeros(4, 7); // poison: wrong node dim
        let packed = PackedBatch::pack(&[&batch]).unwrap();
        assert!(matches!(
            compiled.forward_packed(&packed, &mut arena),
            Err(GnnError::BadBatch(_))
        ));
    }
}
