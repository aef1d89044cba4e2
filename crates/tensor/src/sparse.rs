//! Sparse `f32` matrices in compressed-sparse-row form.
//!
//! The adjacency of an RC net has about one entry per resistor, so the
//! packed GNN aggregation multiplies a [`Csr`] against the dense node
//! matrix ([`crate::infer::spmm_seg_into`], and
//! [`crate::grad::spmm_tn_seg_into`] for its backward) instead of a
//! dense `n x n` matrix. Those kernels sum in exactly the dense GEMM's
//! order (see [`crate::kernels::csr_gemm`]), so [`Csr::to_dense`] is the
//! oracle's operand: a dense product with it is bit-identical.

use crate::Mat;

/// A borrowed CSR operand of the aggregation kernels: a [`Csr`]'s
/// pattern with its own or another value set. Row `r` holds the entries
/// `row_ptr[r]..row_ptr[r + 1]` of `col_idx` / `vals`, column indices
/// strictly ascending within each row — only [`Csr`] makes one.
#[derive(Debug, Clone, Copy)]
pub struct CsrRef<'a> {
    pub(crate) row_ptr: &'a [usize],
    pub(crate) col_idx: &'a [usize],
    pub(crate) vals: &'a [f32],
}

impl CsrRef<'_> {
    /// Number of rows.
    pub fn rows(&self) -> usize {
        self.row_ptr.len().saturating_sub(1)
    }
}

/// An owned `rows x cols` sparse matrix in CSR form: column indices
/// strictly ascending within each row, no duplicates.
///
/// # Examples
///
/// ```
/// use tensor::sparse::Csr;
///
/// // Duplicate coordinates are summed, in input order.
/// let a = Csr::from_triplets(2, 2, &[(1, 0, 0.5), (0, 1, 2.0), (1, 0, 0.25)]);
/// assert_eq!(a.nnz(), 2);
/// assert_eq!(a.row(1), (&[0usize][..], &[0.75f32][..]));
/// assert_eq!(a.to_dense().get(0, 1), 2.0);
/// ```
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Csr {
    cols: usize,
    row_ptr: Vec<usize>,
    col_idx: Vec<usize>,
    vals: Vec<f32>,
}

impl Csr {
    /// Compresses `(row, col, value)` triplets. Duplicate coordinates
    /// are summed from zero in input order — the same value a dense
    /// matrix gets from `m[r][c] += v` over the triplets.
    ///
    /// # Panics
    ///
    /// Panics when a coordinate is out of bounds.
    pub fn from_triplets(rows: usize, cols: usize, triplets: &[(usize, usize, f32)]) -> Self {
        let mut order: Vec<usize> = (0..triplets.len()).collect();
        // Stable: duplicates keep their input order for the summation.
        order.sort_by_key(|&t| (triplets[t].0, triplets[t].1));
        let mut row_ptr = vec![0usize; rows + 1];
        let mut col_idx = Vec::with_capacity(triplets.len());
        let mut vals: Vec<f32> = Vec::with_capacity(triplets.len());
        let mut last = None;
        for t in order {
            let (r, c, v) = triplets[t];
            assert!(
                r < rows && c < cols,
                "triplet ({r}, {c}) out of bounds for {rows}x{cols}"
            );
            if last != Some((r, c)) {
                last = Some((r, c));
                col_idx.push(c);
                vals.push(0.0);
                row_ptr[r + 1] += 1;
            }
            *vals.last_mut().expect("entry pushed above") += v;
        }
        for r in 0..rows {
            row_ptr[r + 1] += row_ptr[r];
        }
        Csr {
            cols,
            row_ptr,
            col_idx,
            vals,
        }
    }

    /// Number of rows.
    pub fn rows(&self) -> usize {
        self.row_ptr.len().saturating_sub(1)
    }

    /// Number of stored entries.
    pub fn nnz(&self) -> usize {
        self.col_idx.len()
    }

    /// Column indices and values of row `r`.
    pub fn row(&self, r: usize) -> (&[usize], &[f32]) {
        let span = self.row_ptr[r]..self.row_ptr[r + 1];
        (&self.col_idx[span.clone()], &self.vals[span])
    }

    /// The kernel operand with this matrix's own values.
    pub fn view(&self) -> CsrRef<'_> {
        self.view_with(&self.vals)
    }

    /// The kernel operand with this pattern and other values (one per
    /// stored entry, in entry order).
    ///
    /// # Panics
    ///
    /// Panics when `vals` has the wrong length.
    pub fn view_with<'a>(&'a self, vals: &'a [f32]) -> CsrRef<'a> {
        assert_eq!(vals.len(), self.nnz(), "one value per stored entry");
        CsrRef {
            row_ptr: &self.row_ptr,
            col_idx: &self.col_idx,
            vals,
        }
    }

    /// The same pattern with other values.
    ///
    /// # Panics
    ///
    /// Panics when `vals` has the wrong length.
    pub fn with_values(&self, vals: Vec<f32>) -> Csr {
        assert_eq!(vals.len(), self.nnz(), "one value per stored entry");
        Csr {
            vals,
            ..self.clone()
        }
    }

    /// The dense matrix: stored entries in place, zeros elsewhere.
    pub fn to_dense(&self) -> Mat {
        let mut m = Mat::zeros(self.rows(), self.cols);
        for r in 0..self.rows() {
            let (cols, vals) = self.row(r);
            for (&c, &v) in cols.iter().zip(vals) {
                m.set(r, c, v);
            }
        }
        m
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn triplets_sort_and_sum_in_input_order() {
        let a = Csr::from_triplets(
            3,
            4,
            &[
                (2, 3, 1.0),
                (0, 2, 0.1),
                (2, 0, 4.0),
                (0, 2, 0.2),
                (0, 2, 0.3),
            ],
        );
        assert_eq!(a.rows(), 3);
        assert_eq!(a.nnz(), 3);
        assert_eq!(a.row(0).0, &[2]);
        // ((0 + 0.1) + 0.2) + 0.3, as a dense `+=` would sum it.
        assert_eq!(a.row(0).1, &[((0.0f32 + 0.1) + 0.2) + 0.3]);
        assert_eq!(a.row(1), (&[][..], &[][..]));
        assert_eq!(a.row(2), (&[0usize, 3][..], &[4.0f32, 1.0][..]));
        let d = a.to_dense();
        assert_eq!(d.get(2, 3), 1.0);
        assert_eq!(d.get(1, 1), 0.0);
    }

    /// SplitMix64-driven uniform in `[-1, 1)`.
    struct Rng(u64);
    impl Rng {
        fn next(&mut self) -> u64 {
            self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = self.0;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^ (z >> 31)
        }
        fn below(&mut self, n: usize) -> usize {
            (self.next() % n as u64) as usize
        }
        fn unit(&mut self) -> f32 {
            (self.next() >> 40) as f32 / (1u64 << 23) as f32 - 1.0
        }
    }

    fn bits(m: &Mat) -> Vec<u32> {
        m.as_slice().iter().map(|v| v.to_bits()).collect()
    }

    /// A random `rows x rows` pattern of about `per_row` entries a row,
    /// a tenth of them repeated coordinates that must sum.
    fn random_csr(rng: &mut Rng, rows: usize, per_row: usize) -> Csr {
        let mut t = Vec::new();
        for _ in 0..rows * per_row {
            let (r, c) = (rng.below(rows), rng.below(rows));
            t.push((r, c, rng.unit()));
            if rng.below(10) == 0 {
                t.push((r, c, rng.unit()));
            }
        }
        Csr::from_triplets(rows, rows, &t)
    }

    #[test]
    fn csr_kernels_match_dense_seg_kernels_bit_for_bit() {
        let mut rng = Rng(2023);
        for &(rows, per_row) in &[
            (1, 1),
            (7, 2),
            (127, 3),
            (128, 3),
            (129, 2),
            (200, 3),
            (260, 40),
            (300, 3),
        ] {
            for &width in &[1usize, 6, 16, 24, 40] {
                let a = random_csr(&mut rng, rows, per_row);
                let dense = a.to_dense();
                // A tall operand with the segment at an offset; some
                // exact zeros, as ReLU outputs have.
                let (row0, tall) = (5, rows + 9);
                let mut b = Mat::zeros(tall, width);
                for v in b.as_mut_slice() {
                    let u = rng.unit();
                    *v = if u < -0.6 { 0.0 } else { u };
                }

                // The dense product on the segment's window, through
                // the blocked GEMM.
                let mut want = Mat::full(tall, width, 3.0);
                let window = row0 * width..(row0 + rows) * width;
                let want_seg = &mut want.as_mut_slice()[window.clone()];
                want_seg.fill(0.0);
                let b_seg = &b.as_slice()[window];
                crate::kernels::gemm(rows, rows, width, dense.as_slice(), b_seg, want_seg);
                let mut got = Mat::full(tall, width, 3.0);
                crate::infer::spmm_seg_into(a.view(), &b, row0, &mut got, row0);
                assert_eq!(bits(&got), bits(&want), "forward {rows}x{width}");

                let mut want = Mat::full(tall, width, 3.0);
                crate::grad::matmul_tn_seg_into(&dense, &b, row0, &mut want, row0);
                let mut got = Mat::full(tall, width, 3.0);
                crate::grad::spmm_tn_seg_into(a.view(), &b, row0, &mut got, row0);
                assert_eq!(bits(&got), bits(&want), "backward {rows}x{width}");
            }
        }
    }

    #[test]
    fn views_share_the_pattern() {
        let a = Csr::from_triplets(2, 2, &[(0, 1, 3.0), (1, 0, 5.0)]);
        let other = [7.0f32, 9.0];
        let v = a.view_with(&other);
        assert_eq!(v.rows(), 2);
        assert_eq!(v.vals, &other);
        assert_eq!(a.with_values(other.to_vec()).to_dense().get(1, 0), 9.0);
        assert_eq!(a.view().vals, &[3.0, 5.0]);
    }
}
