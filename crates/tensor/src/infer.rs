//! Tape-free inference primitives.
//!
//! Serving never backprops, yet [`crate::Tape`] pays for gradients on
//! every op: a zero-filled gradient matrix per node, a fresh output
//! allocation per op, and op bookkeeping. This module provides the
//! inference-only counterparts: an [`Arena`] that recycles `f32`
//! buffers across forward passes (allocation-free once warm) and a set
//! of free functions that write into caller-provided [`Mat`]s using the
//! same kernels — and, crucially, the *same accumulation order* — as
//! the tape ops, so a tape-free forward pass reproduces the tape
//! forward bit for bit.
//!
//! Row-range variants ([`matmul_rows_into`], [`spmm_seg_into`],
//! [`transpose_rows_into`], [`transpose_seg_into`]) operate on
//! contiguous row windows of a tall matrix without copying. They exist
//! for cross-graph packing: K graphs' node matrices stacked into one
//! tall operand share the big GEMMs, while per-graph ops (adjacency
//! aggregation, attention) address only their own row segment. The
//! blocked GEMM computes every output row with a per-row accumulator in
//! ascending-`k` order regardless of the row's position or the total
//! row count, so a segment's results are bit-identical whether it is
//! packed alone or with neighbours (pinned by
//! `gemm_rows_are_position_independent`).
//!
//! Attention runs transposed: [`softmax_cols_inplace`] takes the scores
//! `Sᵀ` with one query per column, so the per-query softmax runs at
//! vector width through [`kernels::softmax_cols`]. Its exp reproduces
//! libm's `expf` bit for bit, and its per-column order is the tape's
//! per-row order, so the result is the tape's `scale` + `softmax_rows`
//! on `S`, transposed.

use crate::kernels;
use crate::sparse::CsrRef;
use crate::Mat;

/// A pool of reusable `f32` buffers for tape-free forward passes.
///
/// [`Arena::take`] hands out a `rows x cols` [`Mat`] with *unspecified*
/// contents (stale values from a previous loan — every consumer in the
/// forward pass fully overwrites its buffer, so zeroing here would be a
/// second memset per buffer per pass). It reuses the capacity of a
/// previously [`Arena::give`]n buffer when one fits (the smallest
/// sufficient one, else the largest is grown in place). After a warm-up
/// pass over the largest batch shape, steady-state forwards allocate
/// nothing.
///
/// # Examples
///
/// ```
/// use tensor::infer::Arena;
///
/// let mut arena = Arena::new();
/// let a = arena.take(4, 4);
/// arena.give(a);
/// let warm = arena.bytes();
/// let b = arena.take(2, 3); // reuses the 4x4 buffer's storage
/// arena.give(b);
/// assert_eq!(arena.bytes(), warm);
/// ```
#[derive(Debug, Default)]
pub struct Arena {
    free: Vec<Vec<f32>>,
    /// Bytes currently loaned out through [`Arena::take`].
    loaned_bytes: usize,
}

impl Arena {
    /// Creates an empty arena.
    pub fn new() -> Self {
        Arena::default()
    }

    /// A `rows x cols` matrix of unspecified contents backed by
    /// recycled storage when a pooled buffer fits. Callers must fully
    /// overwrite the buffer before reading it (all `tensor::infer` ops
    /// that produce a matrix do).
    pub fn take(&mut self, rows: usize, cols: usize) -> Mat {
        let need = rows * cols;
        // Best fit: the smallest pooled buffer that already holds
        // `need`; otherwise the largest, which `resize` grows in place.
        let mut pick: Option<usize> = None;
        for (i, buf) in self.free.iter().enumerate() {
            let cap = buf.capacity();
            let better = match pick {
                None => true,
                Some(j) => {
                    let best = self.free[j].capacity();
                    if best >= need {
                        cap >= need && cap < best
                    } else {
                        cap > best
                    }
                }
            };
            if better {
                pick = Some(i);
            }
        }
        let mut data = match pick {
            Some(i) => self.free.swap_remove(i),
            None => Vec::new(),
        };
        // Only the length delta is written (zeros); existing elements
        // keep their stale values — no full memset on the hot path.
        data.resize(need, 0.0);
        self.loaned_bytes += data.capacity() * std::mem::size_of::<f32>();
        Mat::from_vec(rows, cols, data).expect("arena sizes its own buffers")
    }

    /// Returns a matrix's storage to the pool.
    pub fn give(&mut self, m: Mat) {
        let data = m.into_vec();
        let bytes = data.capacity() * std::mem::size_of::<f32>();
        self.loaned_bytes = self.loaned_bytes.saturating_sub(bytes);
        self.free.push(data);
    }

    /// Total bytes held: pooled buffer capacity plus outstanding loans.
    /// Exported as the `infer.arena_bytes` gauge.
    pub fn bytes(&self) -> usize {
        self.free
            .iter()
            .map(|b| b.capacity() * std::mem::size_of::<f32>())
            .sum::<usize>()
            + self.loaned_bytes
    }

    /// Number of pooled (idle) buffers.
    pub fn pooled(&self) -> usize {
        self.free.len()
    }
}

/// `out = a * b` via the blocked GEMM. `out` is fully overwritten.
///
/// # Panics
///
/// Panics on shape mismatch.
pub fn matmul_into(a: &Mat, b: &Mat, out: &mut Mat) {
    assert_eq!(a.cols(), b.rows(), "matmul_into inner dim");
    assert_eq!(out.shape(), (a.rows(), b.cols()), "matmul_into out shape");
    out.as_mut_slice().fill(0.0);
    kernels::gemm(
        a.rows(),
        a.cols(),
        b.cols(),
        a.as_slice(),
        b.as_slice(),
        out.as_mut_slice(),
    );
}

/// `out[out_row0..][..rows] = a[a_row0..][..rows] * b`: multiplies a
/// contiguous row window of `a` by `b`, writing into a row window of
/// `out`. No copies — the windows are used in place.
///
/// # Panics
///
/// Panics on shape or bounds mismatch.
pub fn matmul_rows_into(
    a: &Mat,
    a_row0: usize,
    rows: usize,
    b: &Mat,
    out: &mut Mat,
    out_row0: usize,
) {
    assert_eq!(a.cols(), b.rows(), "matmul_rows_into inner dim");
    assert_eq!(out.cols(), b.cols(), "matmul_rows_into out width");
    assert!(a_row0 + rows <= a.rows(), "matmul_rows_into a bounds");
    assert!(out_row0 + rows <= out.rows(), "matmul_rows_into out bounds");
    let k = a.cols();
    let n = b.cols();
    let a_view = &a.as_slice()[a_row0 * k..(a_row0 + rows) * k];
    let c_view = &mut out.as_mut_slice()[out_row0 * n..(out_row0 + rows) * n];
    c_view.fill(0.0);
    kernels::gemm(rows, k, n, a_view, b.as_slice(), c_view);
}

/// `out[out_row0..][..rows] = a * b[b_row0..][..rows]` for a square
/// sparse `a` (CSR, `rows x rows`) against a row window of a tall `b`:
/// the per-segment neighbour aggregation `A_s · X_s` at `O(nnz · cols)`.
/// Bit-identical to the blocked GEMM with the dense `a` whenever `b` is
/// finite (see [`kernels::csr_gemm`]). The output window is fully
/// overwritten.
///
/// # Panics
///
/// Panics on shape or bounds mismatch, or a column index of `a` past
/// `rows`.
pub fn spmm_seg_into(a: CsrRef<'_>, b: &Mat, b_row0: usize, out: &mut Mat, out_row0: usize) {
    let n = b.cols();
    assert_eq!(out.cols(), n, "spmm_seg_into out width");
    assert!(
        out_row0 + a.rows() <= out.rows(),
        "spmm_seg_into out bounds"
    );
    assert!(b_row0 + a.rows() <= b.rows(), "spmm_seg_into b bounds");
    let b_view = &b.as_slice()[b_row0 * n..(b_row0 + a.rows()) * n];
    let c_view = &mut out.as_mut_slice()[out_row0 * n..(out_row0 + a.rows()) * n];
    c_view.fill(0.0);
    kernels::csr_gemm(a, n, b_view, c_view);
}

/// `dst += src` element-wise.
///
/// # Panics
///
/// Panics on shape mismatch.
pub fn add_assign(dst: &mut Mat, src: &Mat) {
    assert_eq!(dst.shape(), src.shape(), "add_assign shape mismatch");
    for (d, s) in dst.as_mut_slice().iter_mut().zip(src.as_slice()) {
        *d += s;
    }
}

/// Adds a `1 x cols` bias row to every row of `dst`.
///
/// # Panics
///
/// Panics when `bias` is not `1 x dst.cols`.
pub fn add_bias_rows(dst: &mut Mat, bias: &Mat) {
    assert_eq!(bias.rows(), 1, "bias must be a row vector");
    assert_eq!(bias.cols(), dst.cols(), "bias width mismatch");
    let cols = dst.cols();
    for (i, d) in dst.as_mut_slice().iter_mut().enumerate() {
        *d += bias.as_slice()[i % cols];
    }
}

/// In-place ReLU.
pub fn relu_inplace(m: &mut Mat) {
    for x in m.as_mut_slice() {
        if *x < 0.0 {
            *x = 0.0;
        }
    }
}

/// In-place scalar multiply.
pub fn scale_inplace(m: &mut Mat, s: f32) {
    for x in m.as_mut_slice() {
        *x *= s;
    }
}

/// In-place column-wise softmax of `scale · m`: each column becomes one
/// softmax over its rows. Column `i` is, bit for bit,
/// [`crate::Tape::scale`] then [`crate::Tape::softmax_rows`] on row `i`
/// of `mᵀ` (see [`kernels::softmax_cols`]).
pub fn softmax_cols_inplace(m: &mut Mat, scale: f32) {
    let (rows, cols) = m.shape();
    kernels::softmax_cols(rows, cols, scale, m.as_mut_slice());
}

/// Per-row layer norm of `src` written to `out` (same accumulation
/// order as [`crate::Tape::layer_norm_rows`]). `src` stays intact for
/// the residual connection.
///
/// # Panics
///
/// Panics on shape mismatch.
pub fn layer_norm_rows_into(src: &Mat, eps: f32, out: &mut Mat) {
    assert_eq!(src.shape(), out.shape(), "layer_norm shape mismatch");
    let n = src.cols() as f32;
    let cols = src.cols();
    for r in 0..src.rows() {
        let row = src.row(r);
        let mean: f32 = row.iter().sum::<f32>() / n;
        let var: f32 = row.iter().map(|x| (x - mean) * (x - mean)).sum::<f32>() / n;
        let inv_sigma = 1.0 / (var + eps).sqrt();
        let out_row = &mut out.as_mut_slice()[r * cols..(r + 1) * cols];
        for (o, &x) in out_row.iter_mut().zip(row) {
            *o = (x - mean) * inv_sigma;
        }
    }
}

/// Transposes a contiguous row window `src[row0..row0+rows]` into `out`
/// (`src_cols x rows`) — a segment's `Q_sᵀ` or `V_sᵀ` without touching
/// other segments.
///
/// # Panics
///
/// Panics on shape or bounds mismatch.
pub fn transpose_rows_into(src: &Mat, row0: usize, rows: usize, out: &mut Mat) {
    assert!(row0 + rows <= src.rows(), "transpose_rows_into bounds");
    assert_eq!(out.shape(), (src.cols(), rows), "transpose_rows_into out");
    for i in 0..rows {
        let s = src.row(row0 + i);
        for (j, &v) in s.iter().enumerate() {
            out.as_mut_slice()[j * rows + i] = v;
        }
    }
}

/// Transposes a small `src` (`c x rows`) into a row window of a tall
/// `out` (`rows` rows of width `c` starting at `out_row0`): a segment's
/// attention output `Oᵀ` back into the head's rows, and in the backward
/// `dK_sᵀ` into the tall `dK`. The window is fully overwritten.
///
/// # Panics
///
/// Panics on shape or bounds mismatch.
pub fn transpose_seg_into(src: &Mat, out: &mut Mat, out_row0: usize) {
    let rows = src.cols();
    let c = src.rows();
    assert_eq!(out.cols(), c, "transpose_seg_into out width");
    assert!(
        out_row0 + rows <= out.rows(),
        "transpose_seg_into out bounds"
    );
    for j in 0..c {
        let s = src.row(j);
        for (i, &v) in s.iter().enumerate() {
            out.as_mut_slice()[(out_row0 + i) * c + j] = v;
        }
    }
}

/// Copies `src` into `dst` starting at column `col0` (row counts must
/// match) — the concatenation primitive.
///
/// # Panics
///
/// Panics on bounds mismatch.
pub fn copy_cols(dst: &mut Mat, col0: usize, src: &Mat) {
    assert_eq!(dst.rows(), src.rows(), "copy_cols row mismatch");
    assert!(col0 + src.cols() <= dst.cols(), "copy_cols bounds");
    let dc = dst.cols();
    let sc = src.cols();
    for r in 0..src.rows() {
        let d = &mut dst.as_mut_slice()[r * dc + col0..r * dc + col0 + sc];
        d.copy_from_slice(src.row(r));
    }
}

/// Writes the mean of `src`'s rows selected by `indices` (in order, as
/// the tape's gather-then-mean does) into row `out_row` of `out`.
///
/// # Panics
///
/// Panics when `indices` is empty or out of range.
pub fn mean_rows_into(src: &Mat, indices: &[usize], out: &mut Mat, out_row: usize) {
    assert!(!indices.is_empty(), "mean over zero rows");
    assert_eq!(src.cols(), out.cols(), "mean_rows_into width mismatch");
    let cols = out.cols();
    let acc = &mut out.as_mut_slice()[out_row * cols..(out_row + 1) * cols];
    acc.fill(0.0);
    for &i in indices {
        for (a, &v) in acc.iter_mut().zip(src.row(i)) {
            *a += v;
        }
    }
    let inv = 1.0 / indices.len() as f32;
    for a in acc.iter_mut() {
        *a *= inv;
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

    #[test]
    fn arena_recycles_buffers() {
        let mut a = Arena::new();
        let m = a.take(8, 8);
        assert_eq!(m.shape(), (8, 8));
        assert!(m.as_slice().iter().all(|&v| v == 0.0));
        a.give(m);
        let warm = a.bytes();
        assert!(warm >= 64 * 4);
        // A smaller take reuses the same storage; contents are
        // unspecified (stale values are allowed — consumers overwrite).
        let mut m2 = a.take(3, 5);
        assert_eq!(m2.shape(), (3, 5));
        m2.set(0, 0, 7.0);
        a.give(m2);
        assert_eq!(a.bytes(), warm);
        let m3 = a.take(3, 5);
        assert_eq!(m3.shape(), (3, 5));
        a.give(m3);
        assert_eq!(a.pooled(), 1);
    }

    #[test]
    fn arena_best_fit_prefers_smallest_sufficient() {
        let mut a = Arena::new();
        let big = a.take(100, 1);
        let small = a.take(10, 1);
        a.give(big);
        a.give(small);
        let before = a.bytes();
        let m = a.take(2, 3); // must pick the 10-capacity buffer
        assert!(m.as_slice().len() == 6);
        a.give(m);
        assert_eq!(a.bytes(), before, "no growth when a fit exists");
    }

    #[test]
    fn matmul_into_matches_mat_matmul() {
        let a = sample(5, 7, 0.1);
        let b = sample(7, 4, 0.7);
        let mut out = Mat::full(5, 4, 9.0); // stale values must be cleared
        matmul_into(&a, &b, &mut out);
        assert_eq!(out, a.matmul(&b));
    }

    #[test]
    fn gemm_rows_are_position_independent() {
        // The packing bit-identity contract: a row's GEMM result must not
        // depend on which rows surround it or on the total row count.
        let b = sample(9, 13, 0.5);
        let solo = sample(3, 9, 1.2);
        // Embed `solo` as rows 17..20 of a 40-row matrix.
        let mut tall = sample(40, 9, 3.3);
        for r in 0..3 {
            for c in 0..9 {
                tall.set(17 + r, c, solo.get(r, c));
            }
        }
        let want = solo.matmul(&b);
        let got_tall = tall.matmul(&b);
        for r in 0..3 {
            assert_eq!(got_tall.row(17 + r), want.row(r), "row {r} drifted");
        }
        // And the row-window entry point agrees bit for bit too.
        let mut out = Mat::zeros(40, 13);
        matmul_rows_into(&tall, 17, 3, &b, &mut out, 17);
        for r in 0..3 {
            assert_eq!(out.row(17 + r), want.row(r));
        }
    }

    #[test]
    fn elementwise_ops_match_tape() {
        let x = sample(4, 6, 0.9);
        let bias = sample(1, 6, 4.0);
        let mut tape = Tape::new();
        let xv = tape.constant(x.clone());
        let bv = tape.constant(bias.clone());
        let biased = tape.add_bias_rows(xv, bv);
        let relued = tape.relu(biased);
        let scaled = tape.scale(relued, 0.37);
        let soft = tape.softmax_rows(scaled);
        let normed = tape.layer_norm_rows(xv, 1e-5);

        let mut m = x.clone();
        add_bias_rows(&mut m, &bias);
        assert_eq!(&m, tape.value(biased));
        relu_inplace(&mut m);
        assert_eq!(&m, tape.value(relued));
        let mut mt = m.transpose();
        scale_inplace(&mut m, 0.37);
        assert_eq!(&m, tape.value(scaled));
        softmax_cols_inplace(&mut mt, 0.37);
        assert_eq!(mt.transpose(), *tape.value(soft));

        let mut ln = Mat::zeros(4, 6);
        layer_norm_rows_into(&x, 1e-5, &mut ln);
        assert_eq!(&ln, tape.value(normed));

        let y = sample(4, 6, 7.0);
        let yv = tape.constant(y.clone());
        let sum = tape.add(xv, yv);
        let mut s = x.clone();
        add_assign(&mut s, &y);
        assert_eq!(&s, tape.value(sum));
    }

    #[test]
    fn pooling_and_concat_match_tape() {
        let x = sample(7, 5, 1.4);
        let idx = vec![2usize, 0, 5, 5];
        let mut tape = Tape::new();
        let xv = tape.constant(x.clone());
        let gathered = tape.gather_rows(xv, &idx);
        let mean = tape.mean_rows(gathered);
        let mut out = Mat::full(3, 5, 2.0);
        mean_rows_into(&x, &idx, &mut out, 1);
        assert_eq!(out.row(1), tape.value(mean).row(0));

        let a = sample(3, 2, 0.2);
        let b = sample(3, 4, 0.8);
        let av = tape.constant(a.clone());
        let bv = tape.constant(b.clone());
        let cat = tape.concat_cols(av, bv);
        let mut dst = Mat::zeros(3, 6);
        copy_cols(&mut dst, 0, &a);
        copy_cols(&mut dst, 2, &b);
        assert_eq!(&dst, tape.value(cat));
    }

    #[test]
    fn transpose_window_matches_tape_transpose() {
        let x = sample(9, 4, 0.6);
        let mut seg = Mat::zeros(3, 4);
        for r in 0..3 {
            for c in 0..4 {
                seg.set(r, c, x.get(5 + r, c));
            }
        }
        let mut tape = Tape::new();
        let sv = tape.constant(seg.clone());
        let t = tape.transpose(sv);
        let mut out = Mat::zeros(4, 3);
        transpose_rows_into(&x, 5, 3, &mut out);
        assert_eq!(&out, tape.value(t));
    }

    #[test]
    fn transpose_seg_scatters_back() {
        let small = sample(4, 3, 0.5); // c x rows
        let mut tall = sample(10, 4, 8.8);
        transpose_seg_into(&small, &mut tall, 6);
        for i in 0..3 {
            for j in 0..4 {
                assert_eq!(tall.get(6 + i, j), small.get(j, i));
            }
        }
    }
}
