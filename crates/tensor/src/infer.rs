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
//! Every GEMM here runs through [`kernels::gemm_set`], the overwrite
//! store: the output is written, never read, so no op zero-fills its
//! output first, and each element's bits are those of zero-fill then
//! accumulate, as [`Mat::matmul`] and the tape compute them. The row
//! ops ([`add_bias_rows`], [`relu_inplace`], [`copy_cols`]) walk rows
//! as slices with no per-element index arithmetic, branch or `memcpy`
//! call, so they vectorize; each makes the tape op's additions and
//! comparisons element for element.
//!
//! Window variants ([`spmm_seg_into`], [`transpose_window_into`],
//! [`copy_window_into`], [`transpose_into_window`], and the backward's
//! [`transpose_rows_into`] and [`transpose_seg_into`]) address a block
//! of rows (and columns) of a tall matrix in place. They exist for
//! cross-graph packing: K graphs' node matrices stacked into one tall
//! operand share the big GEMMs, while per-graph ops (adjacency
//! aggregation, attention) address only their own row segment, and
//! each attention head only its own columns of the fused Q/K/V
//! product. The blocked GEMM computes every output row with a per-row
//! accumulator in ascending-`k` order regardless of the row's position
//! or the total row count, and every output column independently of
//! the others, so a segment's results are bit-identical whether it is
//! packed alone or with neighbours, and a head's columns whether its
//! projection runs alone or fused with the other heads' (pinned by
//! `gemm_rows_are_position_independent` and
//! `gemm_columns_are_width_independent`).
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
/// sufficient one, else the largest is replaced by one of exactly the
/// size asked for). After a warm-up pass over the largest batch shape,
/// steady-state forwards allocate nothing.
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
        if data.capacity() < need {
            // Grow to exactly `need`, into a fresh allocation: the
            // contents are unspecified, so nothing is worth copying,
            // and `Vec`'s doubling would leave up to `need` floats of
            // slack in every grown buffer, which the arena keeps.
            data = Vec::new();
            data.reserve_exact(need);
        }
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

/// `out = a * b` via the blocked GEMM's overwrite store
/// ([`kernels::gemm_set`]): `out` is fully overwritten and never read,
/// so it needs no zero-fill, and the bits are those of zero-fill then
/// accumulate, which is what [`Mat::matmul`] and the tape compute.
///
/// # Panics
///
/// Panics on shape mismatch.
pub fn matmul_into(a: &Mat, b: &Mat, out: &mut Mat) {
    assert_eq!(a.cols(), b.rows(), "matmul_into inner dim");
    assert_eq!(out.shape(), (a.rows(), b.cols()), "matmul_into out shape");
    kernels::gemm_set(
        a.rows(),
        a.cols(),
        b.cols(),
        a.as_slice(),
        b.as_slice(),
        out.as_mut_slice(),
    );
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

/// Adds a `1 x cols` bias row to every row of `dst`, row by row, so the
/// inner loop is one vector add per row with no index arithmetic.
///
/// # Panics
///
/// Panics when `bias` is not `1 x dst.cols`.
pub fn add_bias_rows(dst: &mut Mat, bias: &Mat) {
    assert_eq!(bias.rows(), 1, "bias must be a row vector");
    assert_eq!(bias.cols(), dst.cols(), "bias width mismatch");
    let cols = dst.cols();
    if cols == 0 {
        return;
    }
    for row in dst.as_mut_slice().chunks_exact_mut(cols) {
        for (d, &b) in row.iter_mut().zip(bias.as_slice()) {
            *d += b;
        }
    }
}

/// In-place ReLU as a select, which vectorizes: `x < 0` becomes `0`,
/// everything else (NaN and `−0` included) is kept, exactly as the
/// tape's branch does.
pub fn relu_inplace(m: &mut Mat) {
    for x in m.as_mut_slice() {
        *x = if *x < 0.0 { 0.0 } else { *x };
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
/// (`src_cols x rows`) — a segment's `Kᵀ` in the backward without
/// touching other segments.
///
/// # Panics
///
/// Panics on shape or bounds mismatch.
pub fn transpose_rows_into(src: &Mat, row0: usize, rows: usize, out: &mut Mat) {
    assert_eq!(out.shape(), (src.cols(), rows), "transpose_rows_into out");
    transpose_window_into(src, row0, 0, out);
}

/// Transposes the window of `src` at rows `row0..row0 + out.cols()` and
/// columns `col0..col0 + out.rows()` into `out`: one head's `Q` strip or
/// `V_sᵀ` straight out of the fused Q/K/V product.
///
/// # Panics
///
/// Panics when the window leaves `src`.
pub fn transpose_window_into(src: &Mat, row0: usize, col0: usize, out: &mut Mat) {
    let (c, rows) = out.shape();
    assert!(
        row0 + rows <= src.rows(),
        "transpose_window_into row bounds"
    );
    assert!(col0 + c <= src.cols(), "transpose_window_into col bounds");
    if c == 0 {
        return;
    }
    let sc = src.cols();
    let s = &src.as_slice()[row0 * sc..(row0 + rows) * sc];
    let o = out.as_mut_slice();
    for (i, srow) in s.chunks_exact(sc).enumerate() {
        for (j, &v) in srow[col0..col0 + c].iter().enumerate() {
            o[j * rows + i] = v;
        }
    }
}

/// Copies the window of `src` at rows `row0..row0 + out.rows()` and
/// columns `col0..col0 + out.cols()` into `out`: one head's `K_s` (or,
/// for the backward, its whole `Q`/`K`/`V`) out of the fused product.
///
/// # Panics
///
/// Panics when the window leaves `src`.
pub fn copy_window_into(src: &Mat, row0: usize, col0: usize, out: &mut Mat) {
    let (rows, c) = out.shape();
    assert!(row0 + rows <= src.rows(), "copy_window_into row bounds");
    assert!(col0 + c <= src.cols(), "copy_window_into col bounds");
    let sc = src.cols();
    copy_block(
        out.as_mut_slice(),
        c,
        0,
        &src.as_slice()[row0 * sc..],
        sc,
        col0,
        rows,
        c,
    );
}

/// Transposes a small `src` (`c x rows`) into a row window of a tall
/// `out` (`rows` rows of width `c` starting at `out_row0`): a strip's
/// `Pᵀ` back into the segment's `P` in a training forward, and in the
/// backward a segment's `dK_sᵀ` into the tall `dK`. The window is fully
/// overwritten.
///
/// # Panics
///
/// Panics on shape or bounds mismatch.
pub fn transpose_seg_into(src: &Mat, out: &mut Mat, out_row0: usize) {
    assert_eq!(out.cols(), src.rows(), "transpose_seg_into out width");
    transpose_into_window(src, out, out_row0, 0);
}

/// Transposes a small `src` (`c x rows`) into the window of `out` at
/// rows `row0..row0 + rows` and columns `col0..col0 + c`: a segment's
/// attention output `Oᵀ` straight into its head's columns of the
/// concatenated heads.
///
/// # Panics
///
/// Panics when the window leaves `out`.
pub fn transpose_into_window(src: &Mat, out: &mut Mat, row0: usize, col0: usize) {
    let (c, rows) = src.shape();
    assert!(
        row0 + rows <= out.rows(),
        "transpose_into_window row bounds"
    );
    assert!(col0 + c <= out.cols(), "transpose_into_window col bounds");
    if c == 0 || rows == 0 {
        return;
    }
    let oc = out.cols();
    let o = &mut out.as_mut_slice()[row0 * oc..(row0 + rows) * oc];
    for (j, srow) in src.as_slice().chunks_exact(rows).enumerate() {
        for (orow, &v) in o.chunks_exact_mut(oc).zip(srow) {
            orow[col0 + j] = v;
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
    let (rows, dc, sc) = (src.rows(), dst.cols(), src.cols());
    copy_block(
        dst.as_mut_slice(),
        dc,
        col0,
        src.as_slice(),
        sc,
        0,
        rows,
        sc,
    );
}

/// Copies a `rows x c` block from `src` (row stride `src_stride`,
/// starting at column `src_col0`) into `dst` (row stride `dst_stride`,
/// starting at column `dst_col0`). It walks column by column: the rows
/// here are a few floats wide, and a loop along each row compiles to a
/// `memcpy` call per row, which costs more than the copy.
#[allow(clippy::too_many_arguments)]
fn copy_block(
    dst: &mut [f32],
    dst_stride: usize,
    dst_col0: usize,
    src: &[f32],
    src_stride: usize,
    src_col0: usize,
    rows: usize,
    c: usize,
) {
    if rows == 0 {
        return;
    }
    let (dst, src) = (
        &mut dst[..(rows - 1) * dst_stride + dst_col0 + c],
        &src[..(rows - 1) * src_stride + src_col0 + c],
    );
    for j in 0..c {
        for i in 0..rows {
            dst[i * dst_stride + dst_col0 + j] = src[i * src_stride + src_col0 + j];
        }
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
        // And a copied-out row window agrees bit for bit too.
        let mut window = Mat::full(3, 9, f32::NAN);
        copy_window_into(&tall, 17, 0, &mut window);
        let mut out = Mat::full(3, 13, f32::NAN);
        matmul_into(&window, &b, &mut out);
        assert_eq!(out, want);
    }

    /// Bit patterns of `m`, so NaN payloads and the sign of zero count.
    fn bits(m: &Mat) -> Vec<u32> {
        m.as_slice().iter().map(|v| v.to_bits()).collect()
    }

    /// NaN, ±∞, ±0, the extremes and ordinary values.
    const SPECIALS: [f32; 9] = [
        f32::NAN,
        f32::INFINITY,
        f32::NEG_INFINITY,
        0.0,
        -0.0,
        1.5,
        -2.25,
        f32::MIN_POSITIVE,
        f32::MIN,
    ];

    #[test]
    fn windows_move_bits_exactly() {
        let mut src = sample(11, 9, 2.5);
        src.set(4, 3, f32::NAN);
        src.set(5, 4, -0.0);
        src.set(6, 5, f32::NEG_INFINITY);
        // Rows 3..8, columns 2..6 of `src`, copied and transposed.
        let mut win = Mat::full(5, 4, 1.0);
        copy_window_into(&src, 3, 2, &mut win);
        let mut win_t = Mat::full(4, 5, 1.0);
        transpose_window_into(&src, 3, 2, &mut win_t);
        for i in 0..5 {
            for j in 0..4 {
                let want = src.get(3 + i, 2 + j).to_bits();
                assert_eq!(win.get(i, j).to_bits(), want);
                assert_eq!(win_t.get(j, i).to_bits(), want);
            }
        }
        // And transposed back into a window of a wider matrix, leaving
        // every other element alone.
        let mut dst = Mat::full(12, 10, 3.0);
        transpose_into_window(&win_t, &mut dst, 6, 5);
        for r in 0..12 {
            for c in 0..10 {
                let want = if (6..11).contains(&r) && (5..9).contains(&c) {
                    win.get(r - 6, c - 5).to_bits()
                } else {
                    3.0f32.to_bits()
                };
                assert_eq!(dst.get(r, c).to_bits(), want, "({r}, {c})");
            }
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

        // Every (element, bias) pair of SPECIALS meets in some column,
        // at widths below, at and past one 8-lane vector.
        let k = SPECIALS.len();
        for cols in [1, 2, 8, 9, 19] {
            let x = Mat::from_vec(
                k,
                cols,
                (0..k * cols)
                    .map(|i| SPECIALS[(i / cols + i % cols) % k])
                    .collect(),
            )
            .unwrap();
            let bias = Mat::row_vector((0..cols).map(|c| SPECIALS[(4 * c) % k]).collect());
            let mut tape = Tape::new();
            let xv = tape.constant(x.clone());
            let bv = tape.constant(bias.clone());
            let biased = tape.add_bias_rows(xv, bv);
            let relued = tape.relu(biased);
            let raw_relu = tape.relu(xv);
            let cat = tape.concat_cols(biased, xv);

            let mut m = x.clone();
            add_bias_rows(&mut m, &bias);
            assert_eq!(bits(&m), bits(tape.value(biased)), "bias, {cols} cols");
            let mut dst = Mat::full(k, 2 * cols, 7.0);
            copy_cols(&mut dst, 0, &m);
            copy_cols(&mut dst, cols, &x);
            assert_eq!(bits(&dst), bits(tape.value(cat)), "concat, {cols} cols");
            relu_inplace(&mut m);
            assert_eq!(bits(&m), bits(tape.value(relued)), "relu, {cols} cols");
            let mut r = x.clone();
            relu_inplace(&mut r);
            assert_eq!(
                bits(&r),
                bits(tape.value(raw_relu)),
                "relu of x, {cols} cols"
            );
            // ReLU keeps NaN and −0 and clamps −∞.
            assert!(r.get(0, 0).is_nan());
            assert_eq!(r.get(4, 0).to_bits(), (-0.0f32).to_bits());
            assert_eq!(r.get(2, 0).to_bits(), 0);
        }
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
