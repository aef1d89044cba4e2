//! Tape-free backward primitives for packed-batch training.
//!
//! The training twin of [`crate::infer`]: free functions that compute
//! the hand-derived gradients of every op the GNNTrans forward pass
//! uses, writing into caller-provided [`Mat`]s backed by an
//! [`crate::infer::Arena`]. No tape nodes, no per-op allocation — a
//! whole mini-batch of K graphs backpropagates as one tall node matrix
//! with segment windows, one blocked GEMM per layer.
//!
//! # Gradient identities
//!
//! For `C = A·B` with upstream gradient `G`: `dA = G·Bᵀ` and
//! `dB = Aᵀ·G`, computed by the fused [`crate::kernels::gemm_nt`] /
//! [`crate::kernels::gemm_tn`] kernels without materializing a
//! transpose — exactly the kernels [`crate::Tape`] uses in
//! `Op::Matmul`'s backward, so the results are bit-identical to the
//! tape's gradients when accumulated in the same order.
//!
//! # Accumulation-order contract
//!
//! Bit parity with the tape depends on mirroring *where sums happen*:
//!
//! * `gemm` and `gemm_nt` compute each output element into a private
//!   accumulator and issue **one** `+=` per element, so calling them on
//!   a non-zero target is bitwise the same as computing a fresh product
//!   and element-adding it — the tape's `grad.axpy(1.0, &fresh)`.
//!   [`matmul_nt_acc`] therefore accumulates safely.
//! * `gemm_tn` applies rank-1 updates **term by term** into the target,
//!   which only reproduces a fresh product when the target starts at
//!   zero. Every `*_tn_*` entry point here zeroes its output window
//!   first; weight-gradient targets must be freshly zeroed matrices
//!   (each parameter is used once per step, so one write suffices).
//!
//! Row-window (`*_win_*`) and segment (`*_seg_*`) variants address a
//! contiguous row range of a tall packed matrix in place, mirroring the
//! forward-side ops of [`crate::infer`]: the blocked kernels produce
//! every output row with a position-independent accumulation order, so
//! a graph's gradients are bit-identical whether it is packed alone or
//! with neighbours.

use crate::kernels;
use crate::sparse::CsrRef;
use crate::Mat;

/// `out += a * bᵀ` for `a` (`m x k`), `b` (`n x k`), `out` (`m x n`).
///
/// The matmul input-gradient `dA = G·Bᵀ` (and, via operand swap, the
/// projection input-gradient `dX = G·Wᵀ`). One `+=` per output element
/// — bitwise equal to adding a fresh product, so it may target a
/// gradient buffer that already holds earlier contributions.
///
/// # Panics
///
/// Panics on shape mismatch.
pub fn matmul_nt_acc(a: &Mat, b: &Mat, out: &mut Mat) {
    assert_eq!(a.cols(), b.cols(), "matmul_nt_acc inner dim");
    assert_eq!(out.shape(), (a.rows(), b.rows()), "matmul_nt_acc out shape");
    kernels::gemm_nt(
        a.rows(),
        a.cols(),
        b.rows(),
        a.as_slice(),
        b.as_slice(),
        out.as_mut_slice(),
    );
}

/// `out += aᵀ * b` for `a` (`k x m`), `b` (`k x n`), `out` (`m x n`).
///
/// The matmul weight-gradient `dW = Xᵀ·G`. `gemm_tn` accumulates term
/// by term, so this is only bitwise-equal to a fresh product when
/// `out` starts zeroed — which every weight-gradient matrix does (one
/// parameter, one use, one write per step).
///
/// # Panics
///
/// Panics on shape mismatch.
pub fn matmul_tn_acc(a: &Mat, b: &Mat, out: &mut Mat) {
    assert_eq!(a.rows(), b.rows(), "matmul_tn_acc inner dim");
    assert_eq!(out.shape(), (a.cols(), b.cols()), "matmul_tn_acc out shape");
    kernels::gemm_tn(
        a.rows(),
        a.cols(),
        b.cols(),
        a.as_slice(),
        b.as_slice(),
        out.as_mut_slice(),
    );
}

/// `out = a[row0..row0+rows]ᵀ * b`: the weight-gradient kernel on a row
/// window of a tall activation matrix (`b.rows()` must equal `rows`).
/// `out` is fully overwritten.
///
/// Used for the attention `dKᵀ = Q_sᵀ·dScores` scratch (window) and,
/// with `row0 = 0, rows = a.rows()`, any full-matrix `Xᵀ·G`.
///
/// # Panics
///
/// Panics on shape or bounds mismatch.
pub fn matmul_tn_win_into(a: &Mat, row0: usize, rows: usize, b: &Mat, out: &mut Mat) {
    assert!(row0 + rows <= a.rows(), "matmul_tn_win_into a bounds");
    assert_eq!(b.rows(), rows, "matmul_tn_win_into inner dim");
    assert_eq!(out.shape(), (a.cols(), b.cols()), "matmul_tn_win_into out");
    let m = a.cols();
    let a_view = &a.as_slice()[row0 * m..(row0 + rows) * m];
    out.as_mut_slice().fill(0.0);
    kernels::gemm_tn(rows, m, b.cols(), a_view, b.as_slice(), out.as_mut_slice());
}

/// `out = a[row0..row0+rows] * b[row0..row0+rows]ᵀ` for two tall
/// matrices sharing the same segment window. `out`
/// (`rows x rows`) is fully overwritten.
///
/// The attention-probability gradient `dP_s = dHeadOut_s · V_sᵀ`.
///
/// # Panics
///
/// Panics on shape or bounds mismatch.
pub fn matmul_nt_win_into(a: &Mat, b: &Mat, row0: usize, rows: usize, out: &mut Mat) {
    assert_eq!(a.cols(), b.cols(), "matmul_nt_win_into inner dim");
    assert!(row0 + rows <= a.rows(), "matmul_nt_win_into a bounds");
    assert!(row0 + rows <= b.rows(), "matmul_nt_win_into b bounds");
    assert_eq!(out.shape(), (rows, rows), "matmul_nt_win_into out");
    let k = a.cols();
    let a_view = &a.as_slice()[row0 * k..(row0 + rows) * k];
    let b_view = &b.as_slice()[row0 * k..(row0 + rows) * k];
    out.as_mut_slice().fill(0.0);
    kernels::gemm_nt(rows, k, rows, a_view, b_view, out.as_mut_slice());
}

/// `out[out_row0..][..a.rows()] = a * bᵀ`: a small `a` (`m x k`) times
/// `bᵀ` (`b` stored `n x k`) written into a row window of a tall `out`.
/// The window is fully overwritten.
///
/// The attention query gradient `dQ_s = dScores · Kᵀᵀ` (with the `hd x
/// ns` transposed key recomputed per segment, exactly as the tape's
/// `matmul_nt(g, kt)` consumes it).
///
/// # Panics
///
/// Panics on shape or bounds mismatch.
pub fn matmul_nt_seg_into(a: &Mat, b: &Mat, out: &mut Mat, out_row0: usize) {
    assert_eq!(a.cols(), b.cols(), "matmul_nt_seg_into inner dim");
    assert_eq!(out.cols(), b.rows(), "matmul_nt_seg_into out width");
    assert!(out_row0 + a.rows() <= out.rows(), "matmul_nt_seg_into out bounds");
    let n = b.rows();
    let c_view = &mut out.as_mut_slice()[out_row0 * n..(out_row0 + a.rows()) * n];
    c_view.fill(0.0);
    kernels::gemm_nt(a.rows(), a.cols(), n, a.as_slice(), b.as_slice(), c_view);
}

/// `out[out_row0..][..a.cols()] = aᵀ * b[b_row0..][..a.rows()]`: a small
/// `a` (`k x m`) transposed against a row window of a tall `b`, written
/// into a row window of a tall `out`. The window is fully overwritten.
///
/// The per-segment attention value gradient `dV_s = P_sᵀ · dHeadOut_s`.
///
/// # Panics
///
/// Panics on shape or bounds mismatch.
pub fn matmul_tn_seg_into(a: &Mat, b: &Mat, b_row0: usize, out: &mut Mat, out_row0: usize) {
    let k = a.rows();
    assert!(b_row0 + k <= b.rows(), "matmul_tn_seg_into b bounds");
    assert_eq!(out.cols(), b.cols(), "matmul_tn_seg_into out width");
    assert!(out_row0 + a.cols() <= out.rows(), "matmul_tn_seg_into out bounds");
    let n = b.cols();
    let b_view = &b.as_slice()[b_row0 * n..(b_row0 + k) * n];
    let c_view = &mut out.as_mut_slice()[out_row0 * n..(out_row0 + a.cols()) * n];
    c_view.fill(0.0);
    kernels::gemm_tn(k, a.cols(), n, a.as_slice(), b_view, c_view);
}

/// `out[out_row0..][..rows] = aᵀ * b[b_row0..][..rows]` for a square
/// sparse `a` (CSR, `rows x rows`) against a row window of a tall `b`:
/// the aggregation input-gradient `A_sᵀ · dAgg_s` at `O(nnz · cols)`.
/// Rows of `b` scatter in ascending order, so the result is
/// bit-identical to [`matmul_tn_seg_into`] with the dense `a` whenever
/// `b` is finite. The output window is fully overwritten.
///
/// # Panics
///
/// Panics on shape or bounds mismatch, or a column index of `a` past
/// `rows`.
pub fn spmm_tn_seg_into(a: CsrRef<'_>, b: &Mat, b_row0: usize, out: &mut Mat, out_row0: usize) {
    let (rows, n) = (a.rows(), b.cols());
    assert!(b_row0 + rows <= b.rows(), "spmm_tn_seg_into b bounds");
    assert_eq!(out.cols(), n, "spmm_tn_seg_into out width");
    assert!(out_row0 + rows <= out.rows(), "spmm_tn_seg_into out bounds");
    let b_view = &b.as_slice()[b_row0 * n..(b_row0 + rows) * n];
    let c_view = &mut out.as_mut_slice()[out_row0 * n..(out_row0 + rows) * n];
    c_view.fill(0.0);
    kernels::csr_gemm_tn(a, n, b_view, c_view);
}

/// Column sums of `g` into the `1 x cols` bias gradient `db`,
/// accumulating rows in ascending order exactly as the tape's
/// `AddBiasRows` backward does. `db` is fully overwritten.
///
/// # Panics
///
/// Panics on shape mismatch.
pub fn add_bias_backward(g: &Mat, db: &mut Mat) {
    assert_eq!(db.shape(), (1, g.cols()), "add_bias_backward db shape");
    db.as_mut_slice().fill(0.0);
    for r in 0..g.rows() {
        let row = g.row(r);
        for (c, &v) in row.iter().enumerate() {
            db.as_mut_slice()[c] += v;
        }
    }
}

/// Masks the upstream gradient `d` in place where the ReLU output `act`
/// is `<= 0`.
///
/// The tape masks on the ReLU *input* `x <= 0`; since the forward sets
/// `y = 0` exactly when `x < 0` and passes `x` through otherwise
/// (including `-0.0` and `NaN`), `y <= 0` selects the same elements —
/// so stashing post-activation outputs suffices for backward.
///
/// # Panics
///
/// Panics on shape mismatch.
pub fn relu_backward_inplace(d: &mut Mat, act: &Mat) {
    assert_eq!(d.shape(), act.shape(), "relu_backward shape mismatch");
    for (dv, &y) in d.as_mut_slice().iter_mut().zip(act.as_slice()) {
        if y <= 0.0 {
            *dv = 0.0;
        }
    }
}

/// Row-wise softmax backward in place: with output `y` and upstream
/// gradient `d`, each row becomes `y ∘ (d - <d, y>)` — the per-row dot
/// product accumulated left to right exactly as the tape's
/// `SoftmaxRows` backward.
///
/// # Panics
///
/// Panics on shape mismatch.
pub fn softmax_rows_backward_inplace(d: &mut Mat, y: &Mat) {
    assert_eq!(d.shape(), y.shape(), "softmax_backward shape mismatch");
    let cols = d.cols();
    for r in 0..d.rows() {
        let yr = y.row(r);
        let dr = &mut d.as_mut_slice()[r * cols..(r + 1) * cols];
        let dot: f32 = (0..cols).map(|c| dr[c] * yr[c]).sum();
        for (dv, &yv) in dr.iter_mut().zip(yr) {
            *dv = yv * (*dv - dot);
        }
    }
}

/// Layer-norm backward: accumulates
/// `dx += inv_sigma * (g - mean(g) - y * mean(g ∘ y))` per row into
/// `dx`, with the row statistics recomputed from the pre-norm input `x`
/// in the same order as the tape's `LayerNormRows` backward (`y` is
/// the stashed normalized output).
///
/// # Panics
///
/// Panics on shape mismatch.
pub fn layer_norm_rows_backward_acc(x: &Mat, y: &Mat, g: &Mat, eps: f32, dx: &mut Mat) {
    assert_eq!(x.shape(), g.shape(), "layer_norm_backward g shape");
    assert_eq!(x.shape(), y.shape(), "layer_norm_backward y shape");
    assert_eq!(x.shape(), dx.shape(), "layer_norm_backward dx shape");
    let n = x.cols() as f32;
    let cols = x.cols();
    for r in 0..x.rows() {
        let xr = x.row(r);
        let yr = y.row(r);
        let gr = g.row(r);
        let mean: f32 = xr.iter().sum::<f32>() / n;
        let var: f32 = xr.iter().map(|v| (v - mean) * (v - mean)).sum::<f32>() / n;
        let inv_sigma = 1.0 / (var + eps).sqrt();
        let g_mean: f32 = gr.iter().sum::<f32>() / n;
        let gy_mean: f32 = (0..cols).map(|c| gr[c] * yr[c]).sum::<f32>() / n;
        let dxr = &mut dx.as_mut_slice()[r * cols..(r + 1) * cols];
        for c in 0..cols {
            let d = inv_sigma * (gr[c] - g_mean - yr[c] * gy_mean);
            dxr[c] += d;
        }
    }
}

/// Copies columns `col0..col0+dst.cols()` of `src` into `dst`,
/// overwriting it — the backward of a column concatenation, splitting
/// the upstream gradient.
///
/// # Panics
///
/// Panics on bounds mismatch.
pub fn slice_cols_into(src: &Mat, col0: usize, dst: &mut Mat) {
    assert_eq!(src.rows(), dst.rows(), "slice_cols_into row mismatch");
    assert!(col0 + dst.cols() <= src.cols(), "slice_cols_into bounds");
    let sc = src.cols();
    let dc = dst.cols();
    for r in 0..src.rows() {
        let s = &src.as_slice()[r * sc + col0..r * sc + col0 + dc];
        dst.as_mut_slice()[r * dc..(r + 1) * dc].copy_from_slice(s);
    }
}

/// Adds columns `col0..col0+dst.cols()` of `src` into `dst` — the
/// accumulating variant of [`slice_cols_into`] for gradient targets
/// that already hold earlier contributions.
///
/// # Panics
///
/// Panics on bounds mismatch.
pub fn slice_cols_acc(src: &Mat, col0: usize, dst: &mut Mat) {
    assert_eq!(src.rows(), dst.rows(), "slice_cols_acc row mismatch");
    assert!(col0 + dst.cols() <= src.cols(), "slice_cols_acc bounds");
    let sc = src.cols();
    let dc = dst.cols();
    for r in 0..src.rows() {
        let s = &src.as_slice()[r * sc + col0..r * sc + col0 + dc];
        let d = &mut dst.as_mut_slice()[r * dc..(r + 1) * dc];
        for (dv, &sv) in d.iter_mut().zip(s) {
            *dv += sv;
        }
    }
}

/// Backward of the gather-then-mean path pooling: scatters row `g_row`
/// of the pooled gradient `g`, scaled by `1 / indices.len()`, into the
/// node rows of `dx` selected by `indices` (in index order — the
/// tape's `GatherRows` backward order).
///
/// # Panics
///
/// Panics when `indices` is empty or out of range.
pub fn mean_rows_backward_acc(g: &Mat, g_row: usize, indices: &[usize], dx: &mut Mat) {
    assert!(!indices.is_empty(), "mean_rows_backward over zero rows");
    assert_eq!(g.cols(), dx.cols(), "mean_rows_backward width mismatch");
    let inv = 1.0 / indices.len() as f32;
    let cols = dx.cols();
    let grow = g.row(g_row);
    for &i in indices {
        let d = &mut dx.as_mut_slice()[i * cols..(i + 1) * cols];
        for (dv, &gv) in d.iter_mut().zip(grow) {
            *dv += gv * inv;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Tape;

    fn sample(rows: usize, cols: usize, seed: f32) -> Mat {
        let mut m = Mat::zeros(rows, cols);
        for (i, v) in m.as_mut_slice().iter_mut().enumerate() {
            *v = ((i as f32 * 0.61 + seed).sin()) * 0.9;
        }
        m
    }

    /// Tape gradients of `loss = mse(f(inputs), target)` for a one-op
    /// graph, used to pin each kernel against the autograd oracle.
    fn tape_matmul_grads(a: &Mat, b: &Mat, t: &Mat) -> (Mat, Mat, Mat) {
        let mut tape = Tape::new();
        let av = tape.constant(a.clone());
        let bv = tape.constant(b.clone());
        let z = tape.matmul(av, bv);
        let loss = tape.mse_loss(z, t);
        tape.backward(loss);
        (
            tape.grad(av).clone(),
            tape.grad(bv).clone(),
            tape.grad(z).clone(),
        )
    }

    #[test]
    fn matmul_grads_match_tape_bitwise() {
        let a = sample(5, 7, 0.3);
        let b = sample(7, 4, 1.1);
        let t = sample(5, 4, 2.2);
        let (da_tape, db_tape, g) = tape_matmul_grads(&a, &b, &t);

        let mut da = Mat::zeros(5, 7);
        matmul_nt_acc(&g, &b, &mut da);
        assert_eq!(da, da_tape);

        let mut db = Mat::zeros(7, 4);
        matmul_tn_acc(&a, &g, &mut db);
        assert_eq!(db, db_tape);

        // Accumulating a second contribution equals fresh-then-add for
        // the nt kernel (one += per element).
        let mut acc = da_tape.clone();
        matmul_nt_acc(&g, &b, &mut acc);
        let mut twice = da_tape.clone();
        twice.axpy(1.0, &da_tape);
        assert_eq!(acc, twice);
    }

    #[test]
    fn window_kernels_match_full_kernels_on_copied_segments() {
        let tall_a = sample(12, 5, 0.7);
        let tall_b = sample(12, 5, 1.9);
        let (row0, rows) = (4usize, 3usize);
        let mut seg_a = Mat::zeros(rows, 5);
        let mut seg_b = Mat::zeros(rows, 5);
        for r in 0..rows {
            for c in 0..5 {
                seg_a.set(r, c, tall_a.get(row0 + r, c));
                seg_b.set(r, c, tall_b.get(row0 + r, c));
            }
        }

        // nt over a shared window == nt over the copied segments.
        let mut want = Mat::zeros(rows, rows);
        matmul_nt_acc(&seg_a, &seg_b, &mut want);
        let mut got = Mat::zeros(rows, rows);
        matmul_nt_win_into(&tall_a, &tall_b, row0, rows, &mut got);
        assert_eq!(got, want);

        // tn with a windowed left operand == tn over the copied segment.
        let small = sample(rows, 6, 3.0);
        let mut want_tn = Mat::zeros(5, 6);
        matmul_tn_acc(&seg_a, &small, &mut want_tn);
        let mut got_tn = Mat::zeros(5, 6);
        matmul_tn_win_into(&tall_a, row0, rows, &small, &mut got_tn);
        assert_eq!(got_tn, want_tn);

        // seg write targets: small · smallᵀ into a tall window.
        let sq = sample(rows, rows, 0.2);
        let wide = sample(5, rows, 4.4); // n x k with k = rows
        let mut want_seg = Mat::zeros(rows, 5);
        matmul_nt_acc(&sq, &wide, &mut want_seg);
        let mut tall_out = sample(12, 5, 9.9); // stale values must be cleared
        matmul_nt_seg_into(&sq, &wide, &mut tall_out, row0);
        for r in 0..rows {
            assert_eq!(tall_out.row(row0 + r), want_seg.row(r));
        }

        // smallᵀ · tall-window into a tall window.
        let mut want_tnseg = Mat::zeros(rows, 5);
        matmul_tn_acc(&sq, &seg_b, &mut want_tnseg);
        let mut tall_out2 = sample(12, 5, 7.7);
        matmul_tn_seg_into(&sq, &tall_b, row0, &mut tall_out2, row0);
        for r in 0..rows {
            assert_eq!(tall_out2.row(row0 + r), want_tnseg.row(r));
        }
    }

    #[test]
    fn bias_relu_softmax_backwards_match_tape() {
        let x = sample(5, 6, 0.4);
        let bias = sample(1, 6, 1.3);
        let t = sample(5, 6, 2.6);

        // z = softmax(relu(x + bias)); loss = mse(z, t).
        let mut tape = Tape::new();
        let xv = tape.constant(x.clone());
        let bv = tape.constant(bias.clone());
        let biased = tape.add_bias_rows(xv, bv);
        let relued = tape.relu(biased);
        let soft = tape.softmax_rows(relued);
        let loss = tape.mse_loss(soft, &t);
        tape.backward(loss);

        // Upstream gradient at the softmax output, straight off the tape.
        let g_soft = tape.grad(soft).clone();
        let y_soft = tape.value(soft).clone();
        let y_relu = tape.value(relued).clone();

        let mut d = g_soft.clone();
        softmax_rows_backward_inplace(&mut d, &y_soft);
        assert_eq!(&d, tape.grad(relued));

        relu_backward_inplace(&mut d, &y_relu);
        assert_eq!(&d, tape.grad(biased));

        let mut db = Mat::zeros(1, 6);
        add_bias_backward(&d, &mut db);
        assert_eq!(&db, tape.grad(bv));
        assert_eq!(&d, tape.grad(xv));
    }

    #[test]
    fn layer_norm_backward_matches_tape() {
        let x = sample(4, 8, 0.9);
        let t = sample(4, 8, 3.1);
        let mut tape = Tape::new();
        let xv = tape.constant(x.clone());
        let y = tape.layer_norm_rows(xv, 1e-5);
        let loss = tape.mse_loss(y, &t);
        tape.backward(loss);

        let mut dx = Mat::zeros(4, 8);
        layer_norm_rows_backward_acc(&x, tape.value(y), tape.grad(y), 1e-5, &mut dx);
        assert_eq!(&dx, tape.grad(xv));
    }

    #[test]
    fn layer_norm_backward_matches_finite_differences() {
        // d/dx of <G, layer_norm(x)> by central differences.
        let x = sample(3, 5, 1.7);
        let g = sample(3, 5, 0.2);
        let eps = 1e-5f32;
        let mut y = Mat::zeros(3, 5);
        crate::infer::layer_norm_rows_into(&x, eps, &mut y);
        let mut dx = Mat::zeros(3, 5);
        layer_norm_rows_backward_acc(&x, &y, &g, eps, &mut dx);

        let objective = |x: &Mat| -> f64 {
            let mut y = Mat::zeros(3, 5);
            crate::infer::layer_norm_rows_into(x, eps, &mut y);
            y.as_slice()
                .iter()
                .zip(g.as_slice())
                .map(|(&yv, &gv)| yv as f64 * gv as f64)
                .sum()
        };
        let h = 1e-3f32;
        for i in [0usize, 4, 7, 12] {
            let mut xp = x.clone();
            xp.as_mut_slice()[i] += h;
            let mut xm = x.clone();
            xm.as_mut_slice()[i] -= h;
            let numeric = (objective(&xp) - objective(&xm)) / (2.0 * h as f64);
            let analytic = dx.as_slice()[i] as f64;
            assert!(
                (analytic - numeric).abs() < 1e-2 * (1.0 + numeric.abs()),
                "dx[{i}]: analytic {analytic} vs numeric {numeric}"
            );
        }
    }

    #[test]
    fn softmax_backward_matches_finite_differences() {
        let softmax = |x: &Mat| -> Mat {
            let mut tape = Tape::new();
            let xv = tape.constant(x.clone());
            let y = tape.softmax_rows(xv);
            tape.value(y).clone()
        };
        let x = sample(2, 6, 0.8);
        let g = sample(2, 6, 2.9);
        let y = softmax(&x);
        let mut d = g.clone();
        softmax_rows_backward_inplace(&mut d, &y);

        let objective = |x: &Mat| -> f64 {
            softmax(x)
                .as_slice()
                .iter()
                .zip(g.as_slice())
                .map(|(&yv, &gv)| yv as f64 * gv as f64)
                .sum()
        };
        let h = 1e-3f32;
        for i in [0usize, 3, 8, 11] {
            let mut xp = x.clone();
            xp.as_mut_slice()[i] += h;
            let mut xm = x.clone();
            xm.as_mut_slice()[i] -= h;
            let numeric = (objective(&xp) - objective(&xm)) / (2.0 * h as f64);
            let analytic = d.as_slice()[i] as f64;
            assert!(
                (analytic - numeric).abs() < 1e-2 * (1.0 + numeric.abs()),
                "d[{i}]: analytic {analytic} vs numeric {numeric}"
            );
        }
    }

    #[test]
    fn pooling_backward_matches_tape() {
        // mean over gathered rows, stacked — the eq. (4) pooling module.
        let x = sample(7, 4, 0.6);
        let paths = [vec![2usize, 0, 5], vec![1, 6]];
        let t = sample(2, 4, 1.5);
        let mut tape = Tape::new();
        let xv = tape.constant(x.clone());
        let rows: Vec<_> = paths
            .iter()
            .map(|p| {
                let gth = tape.gather_rows(xv, p);
                tape.mean_rows(gth)
            })
            .collect();
        let stacked = tape.stack_rows(&rows);
        let loss = tape.mse_loss(stacked, &t);
        tape.backward(loss);

        let g = tape.grad(stacked).clone();
        let mut dx = Mat::zeros(7, 4);
        // Reverse path order mirrors the tape's reverse node walk.
        for (j, p) in paths.iter().enumerate().rev() {
            mean_rows_backward_acc(&g, j, p, &mut dx);
        }
        assert_eq!(&dx, tape.grad(xv));
    }

    #[test]
    fn col_slicing_matches_concat_backward() {
        let a = sample(4, 3, 0.1);
        let b = sample(4, 2, 1.8);
        let t = sample(4, 5, 2.4);
        let mut tape = Tape::new();
        let av = tape.constant(a.clone());
        let bv = tape.constant(b.clone());
        let cat = tape.concat_cols(av, bv);
        let loss = tape.mse_loss(cat, &t);
        tape.backward(loss);

        let g = tape.grad(cat).clone();
        let mut da = Mat::zeros(4, 3);
        slice_cols_into(&g, 0, &mut da);
        assert_eq!(&da, tape.grad(av));
        let mut db = Mat::zeros(4, 2);
        slice_cols_into(&g, 3, &mut db);
        assert_eq!(&db, tape.grad(bv));

        // The accumulating variant adds instead of overwriting.
        let mut acc = da.clone();
        slice_cols_acc(&g, 0, &mut acc);
        let mut twice = da.clone();
        twice.axpy(1.0, &da);
        assert_eq!(acc, twice);
    }
}
