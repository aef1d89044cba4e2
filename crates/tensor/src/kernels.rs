//! Cache-blocked, register-tiled `f32` GEMM kernels, the CSR
//! aggregation kernels that sum exactly like them, and the attention
//! softmax with a bit-exact vector `expf`.
//!
//! Row-major entry points, all accumulating in ascending-`k` order per
//! output element (so repeated calls are bit-identical and the
//! parallel/serial determinism contract upstream holds):
//!
//! * [`gemm`] — `C += A * B`, the workhorse behind [`crate::Mat::matmul`].
//! * [`gemm_set`] — `C = A * B`, the same kernel storing its first `KC`
//!   block instead of adding it, so the output needs no zero-fill.
//! * [`gemm_tn`] — `C += Aᵀ * B` with `A` stored untransposed.
//! * [`gemm_nt`] — `C += A * Bᵀ` with `B` stored untransposed.
//! * [`csr_gemm`] / [`csr_gemm_tn`] — the same `A * B` / `Aᵀ * B` with
//!   a sparse `A` in CSR form, summing every output element in exactly
//!   the order [`gemm`] / [`gemm_tn`] would on the dense `A`.
//! * [`softmax_cols`] — one scaled softmax per column, each column term
//!   for term the tape's `scale` + `softmax_rows` on a row.
//! * [`exp_inplace`] — glibc's `expf`, bit for bit, at vector width.
//!
//! The `_tn` / `_nt` variants exist for the autograd backward pass:
//! `d(A*B)` needs `G*Bᵀ` and `Aᵀ*G`, and materializing the transposes
//! first costs an extra allocation + copy per matmul gradient.
//!
//! # Blocking scheme
//!
//! [`gemm`] follows the classic three-level GotoBLAS decomposition.
//! Operands range from hidden-width weight panels (24 x 72 at most) to
//! a 1000-node net's attention products (`K·Qᵀ`, 1000 x 6 x 1000, and
//! `Vᵀ·Pᵀ`, 6 x 1000 x 1000):
//!
//! * the `j` dimension is split into panels of `NC` columns and the `k`
//!   dimension into blocks of `KC` rows; each `KC x NC` block of `B` is
//!   **packed** into a contiguous scratch buffer, zero-padded to a
//!   multiple of `NR` columns, so the micro-kernel streams it linearly
//!   regardless of `B`'s row stride and every tile is full width;
//! * the micro-kernel computes an `MR x NR` (6 x 16) tile of `C` held
//!   entirely in registers — 12 8-lane accumulators plus the two `B`
//!   vectors and the `A` broadcast fill the 16 AVX registers. Only the
//!   store is bounded to the tile's real width; the padded columns are
//!   computed and dropped, so a 6-wide attention product runs the same
//!   vector loop as a 16-wide one;
//! * the packing buffers are per-thread scratch that only ever grows,
//!   so a warm call allocates nothing;
//! * there is no per-element zero test (the seed kernel branched on
//!   `a == 0.0` for every scalar, which costs more than the multiply
//!   it occasionally saves, breaks vectorization, and breaks IEEE
//!   semantics for non-finite operands).
//!
//! Per output element the blocked kernel therefore computes, for each
//! `KC` block in ascending order, a private accumulator started at zero
//! and summed over the block's `k` ascending, then one `c += acc`.
//! [`csr_gemm`] reproduces that order on the stored entries alone.
//!
//! [`gemm_set`] is the overwrite store of the same body: its first `KC`
//! block stores `c = 0.0 + acc`, later blocks add as above, and `k = 0`
//! stores zeros. That is exactly what zero-filling `C` and running
//! [`gemm`] computes (the `0.0 +` turns a `−0` sum into `+0`, as the
//! zero-filled `+=` does), without the fill pass or the first block's
//! loads of `C`; on a `k ≤ KC` product such as the attention's `K·Qᵀ`
//! (`k` = 6) those cost as much as the multiply-adds. The store is a
//! const parameter of the micro-kernel, so each instance compiles to
//! its own straight-line tile store, and the choice is made once per
//! tile, outside the `k` loop.
//!
//! # Dispatch
//!
//! The portable build targets baseline x86-64 (SSE2), which leaves
//! half the lanes and all fused multiply-adds on the table. Each entry
//! point therefore runtime-dispatches once per call to an
//! AVX2+FMA-compiled clone of the same body (`#[target_feature]` +
//! `#[inline(always)]` body, the std-only equivalent of function
//! multi-versioning) when the CPU supports it. The FMA path contracts
//! `mul`+`add` into one rounding; both paths keep the ascending-`k`
//! order, so each path is individually deterministic. Everything the
//! body needs (the scratch borrow included) is set up before entering
//! the `#[target_feature]` clone: a closure created inside it is not
//! compiled with the clone's features, and its `mul_add` would fall back
//! to the libm routine.
//!
//! # Exact `expf`
//!
//! The attention softmax spends most of its time in `exp`, and libm's
//! `expf` is an opaque scalar call. The tape's softmax calls it
//! (`f32::exp`), and the packed forward must match the tape bit for bit:
//! training runs through this softmax too, so a 1-ulp difference in
//! `exp` trains a different model. The private `expf`
//! replicates glibc's `expf` (the ARM optimized-routines algorithm,
//! shipped since glibc 2.27) operation for operation: `x·32/ln 2 = k + r`
//! in `f64`, `2^(k/32)` from glibc's 32-entry table, a cubic for
//! `2^(r/32)`, one rounding to `f32`. glibc's x86-64 ifunc runs a
//! variant compiled with FMA on AVX2+FMA CPUs (`__expf_fma`, which
//! fuses five of the steps) and a generic one otherwise; the AVX2+FMA
//! clone fuses the same five and the portable body none, on the same
//! CPU test, so the dispatched kernel equals the `f32::exp` of the same
//! machine. An in-module test sweeps all 2³² inputs against `f32::exp`
//! (`scripts/check.sh` runs it in release) and the debug suite checks a
//! strided sample and the edges. The special cases (`±∞`, NaN, the
//! underflow and overflow thresholds) are selects, not early returns,
//! which would keep the loop scalar. The `f64` steps are the price of
//! exactness, yet the vector loop still runs about 2.5x faster than
//! libm's scalar call (`BENCH_compute.json`).
//!
//! The replica is exact against glibc only. On another libm the tape's
//! `f32::exp` can differ by an ulp, and the bit-exact parity gates
//! would flag it.

use crate::sparse::CsrRef;
use std::cell::RefCell;

/// Micro-tile rows (of `A` / `C`).
const MR: usize = 6;
/// Micro-tile columns (of `B` / `C`); two 8-lane `f32` vectors.
const NR: usize = 16;
/// `k`-dimension cache block: `KC x NR` of packed `B` stays in L1. The
/// CSR kernels flush their accumulators at the same boundaries.
const KC: usize = 128;
/// `j`-dimension cache block (columns of one packed `B` panel).
const NC: usize = 512;

/// Fused or separate multiply-accumulate, selected at monomorphization
/// time. `mul_add` only reaches hardware FMA inside the
/// `#[target_feature(enable = "fma")]` clone — in the portable clone it
/// would call the (slow) libm fallback, hence the flag.
#[inline(always)]
fn madd<const FMA: bool>(acc: f32, a: f32, b: f32) -> f32 {
    if FMA {
        a.mul_add(b, acc)
    } else {
        acc + a * b
    }
}

/// Whether the AVX2+FMA clones may run on this CPU.
#[cfg(target_arch = "x86_64")]
#[inline]
fn has_avx2_fma() -> bool {
    std::arch::is_x86_feature_detected!("avx2") && std::arch::is_x86_feature_detected!("fma")
}

/// Per-thread scratch: [`gemm`]'s packed `B` panel and `A` micro-panel,
/// and [`softmax_cols`]'s per-column max and sum. Grows to the largest
/// shape seen and is never shrunk; the blocking caps the GEMM's part at
/// `KC x NC` + `MR x KC` floats (259 KiB), the softmax's is two floats
/// per column.
#[derive(Default)]
struct Scratch {
    panel: Vec<f32>,
    apack: Vec<f32>,
    colmax: Vec<f32>,
    colsum: Vec<f32>,
}

thread_local! {
    static SCRATCH: RefCell<Scratch> = RefCell::new(Scratch::default());
}

/// `C += A * B` for row-major `A` (`m x k`), `B` (`k x n`), `C` (`m x n`).
///
/// Shape agreement is the caller's contract (the `Mat` wrappers assert
/// it); slice lengths are debug-asserted. Allocation-free once the
/// calling thread has run a shape at least this large.
pub fn gemm(m: usize, k: usize, n: usize, a: &[f32], b: &[f32], c: &mut [f32]) {
    gemm_dispatch::<false>(m, k, n, a, b, c);
}

/// `C = A * B`: [`gemm`] with the overwrite store, so `C`'s prior
/// contents are never read. Bit for bit what zero-filling `C` and then
/// calling [`gemm`] computes, including `+0` for a `−0` sum and zeros
/// when `k = 0`.
pub fn gemm_set(m: usize, k: usize, n: usize, a: &[f32], b: &[f32], c: &mut [f32]) {
    gemm_dispatch::<true>(m, k, n, a, b, c);
}

/// The shared entry of [`gemm`] (`SET = false`) and [`gemm_set`].
fn gemm_dispatch<const SET: bool>(
    m: usize,
    k: usize,
    n: usize,
    a: &[f32],
    b: &[f32],
    c: &mut [f32],
) {
    debug_assert_eq!(a.len(), m * k);
    debug_assert_eq!(b.len(), k * n);
    debug_assert_eq!(c.len(), m * n);
    if m == 0 || n == 0 {
        return;
    }
    if k == 0 {
        if SET {
            c.fill(0.0);
        }
        return;
    }
    SCRATCH.with(|cell| {
        let mut scratch = cell.borrow_mut();
        let Scratch { panel, apack, .. } = &mut *scratch;
        let panel_len = KC.min(k) * NC.min(n).next_multiple_of(NR);
        if panel.len() < panel_len {
            panel.resize(panel_len, 0.0);
        }
        if apack.len() < MR * KC.min(k) {
            apack.resize(MR * KC.min(k), 0.0);
        }
        #[cfg(target_arch = "x86_64")]
        if has_avx2_fma() {
            // SAFETY: the required target features were just detected.
            unsafe { gemm_avx2::<SET>(m, k, n, a, b, c, panel, apack) };
            return;
        }
        gemm_body::<false, SET>(m, k, n, a, b, c, panel, apack);
    });
}

/// # Safety
///
/// The CPU must support AVX2 and FMA.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2,fma")]
#[allow(clippy::too_many_arguments)]
unsafe fn gemm_avx2<const SET: bool>(
    m: usize,
    k: usize,
    n: usize,
    a: &[f32],
    b: &[f32],
    c: &mut [f32],
    panel: &mut [f32],
    apack: &mut [f32],
) {
    gemm_body::<true, SET>(m, k, n, a, b, c, panel, apack);
}

#[allow(clippy::too_many_arguments)]
#[inline(always)]
fn gemm_body<const FMA: bool, const SET: bool>(
    m: usize,
    k: usize,
    n: usize,
    a: &[f32],
    b: &[f32],
    c: &mut [f32],
    panel: &mut [f32],
    apack: &mut [f32],
) {
    // `panel` holds one KC x NC block of B, its rows padded with zeros
    // to `ncp` (a multiple of NR) columns; `apack` one MR x KC
    // micro-panel of A (p-major, MR-interleaved, zero-padded on the row
    // edge so the micro-kernel never branches on `mr`).
    for jj in (0..n).step_by(NC) {
        let nc = NC.min(n - jj);
        let ncp = nc.next_multiple_of(NR);
        for kk in (0..k).step_by(KC) {
            let kc = KC.min(k - kk);
            // Pack B[kk..kk+kc, jj..jj+nc] row-contiguous, zero-padded.
            for p in 0..kc {
                let src = (kk + p) * n + jj;
                let row = &mut panel[p * ncp..(p + 1) * ncp];
                row[..nc].copy_from_slice(&b[src..src + nc]);
                row[nc..].fill(0.0);
            }
            for ii in (0..m).step_by(MR) {
                let mr = MR.min(m - ii);
                // Pack A[ii..ii+mr, kk..kk+kc] as apack[p*MR + r].
                apack[..MR * kc].fill(0.0);
                for (r, row) in (ii..ii + mr).enumerate() {
                    for p in 0..kc {
                        apack[p * MR + r] = a[row * k + kk + p];
                    }
                }
                for jt in (0..nc).step_by(NR) {
                    let nr = NR.min(nc - jt);
                    // The first block of the overwrite store stores,
                    // every other block adds: two instances, picked
                    // per tile.
                    if SET && kk == 0 {
                        micro_kernel::<FMA, true>(
                            apack,
                            panel,
                            c,
                            n,
                            ncp,
                            ii,
                            jj + jt,
                            jt,
                            kc,
                            mr,
                            nr,
                        );
                    } else {
                        micro_kernel::<FMA, false>(
                            apack,
                            panel,
                            c,
                            n,
                            ncp,
                            ii,
                            jj + jt,
                            jt,
                            kc,
                            mr,
                            nr,
                        );
                    }
                }
            }
        }
    }
}

/// Computes one `MR x NR` tile of `C` from the packed A micro-panel
/// (`apack[p * MR + r]`, zero-padded rows) and the packed, zero-padded B
/// panel (`kc x ncp`, tile starting at column `jt`), and adds its
/// leading `mr x nr` corner into `C` (with `SET`, stores `0.0 + acc`
/// there instead). The loops have fixed bounds, so the compiler unrolls
/// and vectorizes them; `k` ascends, so per-element summation order is
/// deterministic.
#[allow(clippy::too_many_arguments)]
#[inline(always)]
fn micro_kernel<const FMA: bool, const SET: bool>(
    apack: &[f32],
    panel: &[f32],
    c: &mut [f32],
    n: usize,
    ncp: usize,
    ii: usize,
    j0: usize,
    jt: usize,
    kc: usize,
    mr: usize,
    nr: usize,
) {
    let mut acc = [[0.0f32; NR]; MR];
    for p in 0..kc {
        let brow: &[f32; NR] = panel[p * ncp + jt..p * ncp + jt + NR]
            .try_into()
            .expect("packed tile row");
        let acol: &[f32; MR] = apack[p * MR..(p + 1) * MR]
            .try_into()
            .expect("packed A column");
        for (acc_row, &av) in acc.iter_mut().zip(acol) {
            for (s, &bv) in acc_row.iter_mut().zip(brow) {
                *s = madd::<FMA>(*s, av, bv);
            }
        }
    }
    for (r, acc_row) in acc.iter().take(mr).enumerate() {
        let dst = &mut c[(ii + r) * n + j0..(ii + r) * n + j0 + nr];
        for (d, s) in dst.iter_mut().zip(acc_row) {
            if SET {
                *d = 0.0 + s;
            } else {
                *d += s;
            }
        }
    }
}

/// `C += A * B` for a sparse `A` (`m x k`, CSR), row-major `B`
/// (`k x n`) and `C` (`m x n`), summed exactly as [`gemm`] sums the
/// dense `A`: per output element, one accumulator per `KC` block of
/// `k`, started at zero, `k` ascending, then one `c += acc`. The dense
/// kernel's terms for unstored (zero) entries of `A` add `0 * b`, which
/// leaves a finite accumulator unchanged, so the results are
/// bit-identical whenever `B` is finite.
///
/// # Panics
///
/// Panics when a column index is out of range for `B`.
pub fn csr_gemm(a: CsrRef<'_>, n: usize, b: &[f32], c: &mut [f32]) {
    debug_assert_eq!(c.len(), a.rows() * n);
    if n == 0 {
        return;
    }
    #[cfg(target_arch = "x86_64")]
    if has_avx2_fma() {
        // SAFETY: the required target features were just detected.
        unsafe { csr_gemm_avx2(a, n, b, c) };
        return;
    }
    csr_gemm_body::<false>(a, n, b, c);
}

/// # Safety
///
/// The CPU must support AVX2 and FMA.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2,fma")]
unsafe fn csr_gemm_avx2(a: CsrRef<'_>, n: usize, b: &[f32], c: &mut [f32]) {
    csr_gemm_body::<true>(a, n, b, c);
}

#[inline(always)]
fn csr_gemm_body<const FMA: bool>(a: CsrRef<'_>, n: usize, b: &[f32], c: &mut [f32]) {
    for (i, crow) in c.chunks_exact_mut(n).enumerate() {
        let entries = a.row_ptr[i]..a.row_ptr[i + 1];
        // NR-wide column strips keep the accumulator in registers.
        for j0 in (0..n).step_by(NR) {
            let w = NR.min(n - j0);
            let dst = &mut crow[j0..j0 + w];
            let mut acc = [0.0f32; NR];
            let mut block = usize::MAX;
            for e in entries.clone() {
                let p = a.col_idx[e];
                if p / KC != block {
                    if block != usize::MAX {
                        flush(dst, &mut acc);
                    }
                    block = p / KC;
                }
                let v = a.vals[e];
                for (s, &bv) in acc.iter_mut().zip(&b[p * n + j0..p * n + j0 + w]) {
                    *s = madd::<FMA>(*s, v, bv);
                }
            }
            if block != usize::MAX {
                flush(dst, &mut acc);
            }
        }
    }
}

/// `dst += acc` (the blocked GEMM's tile store), then zeroes `acc` for
/// the next `KC` block.
#[inline(always)]
fn flush(dst: &mut [f32], acc: &mut [f32; NR]) {
    for (d, s) in dst.iter_mut().zip(acc.iter()) {
        *d += s;
    }
    *acc = [0.0; NR];
}

/// `C += Aᵀ * B` for a sparse `A` (`k x m`, CSR), row-major `B`
/// (`k x n`) and `C` (`m x n`): row `p` of `B`, scaled by each stored
/// `A[p, i]`, is added into row `i` of `C`, rows `p` ascending — the
/// term-by-term order of [`gemm_tn`], without its zero terms.
///
/// # Panics
///
/// Panics when a column index is out of range for `C`.
pub fn csr_gemm_tn(a: CsrRef<'_>, n: usize, b: &[f32], c: &mut [f32]) {
    debug_assert_eq!(b.len(), a.rows() * n);
    #[cfg(target_arch = "x86_64")]
    if has_avx2_fma() {
        // SAFETY: the required target features were just detected.
        unsafe { csr_gemm_tn_avx2(a, n, b, c) };
        return;
    }
    csr_gemm_tn_body::<false>(a, n, b, c);
}

/// # Safety
///
/// The CPU must support AVX2 and FMA.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2,fma")]
unsafe fn csr_gemm_tn_avx2(a: CsrRef<'_>, n: usize, b: &[f32], c: &mut [f32]) {
    csr_gemm_tn_body::<true>(a, n, b, c);
}

#[inline(always)]
fn csr_gemm_tn_body<const FMA: bool>(a: CsrRef<'_>, n: usize, b: &[f32], c: &mut [f32]) {
    for p in 0..a.rows() {
        let brow = &b[p * n..(p + 1) * n];
        for e in a.row_ptr[p]..a.row_ptr[p + 1] {
            let i = a.col_idx[e];
            let v = a.vals[e];
            for (d, &bv) in c[i * n..(i + 1) * n].iter_mut().zip(brow) {
                *d = madd::<FMA>(*d, v, bv);
            }
        }
    }
}

/// `C += Aᵀ * B` for row-major `A` (`k x m`), `B` (`k x n`), `C` (`m x n`),
/// without materializing `Aᵀ`.
///
/// Walks `A` and `B` a row at a time (both contiguous) and applies
/// rank-1 updates to `C`; per output element `k` ascends.
pub fn gemm_tn(k: usize, m: usize, n: usize, a: &[f32], b: &[f32], c: &mut [f32]) {
    debug_assert_eq!(a.len(), k * m);
    debug_assert_eq!(b.len(), k * n);
    debug_assert_eq!(c.len(), m * n);
    #[cfg(target_arch = "x86_64")]
    if has_avx2_fma() {
        // SAFETY: the required target features were just detected.
        unsafe { gemm_tn_avx2(k, m, n, a, b, c) };
        return;
    }
    gemm_tn_body::<false>(k, m, n, a, b, c);
}

#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2,fma")]
unsafe fn gemm_tn_avx2(k: usize, m: usize, n: usize, a: &[f32], b: &[f32], c: &mut [f32]) {
    gemm_tn_body::<true>(k, m, n, a, b, c);
}

#[inline(always)]
fn gemm_tn_body<const FMA: bool>(
    k: usize,
    m: usize,
    n: usize,
    a: &[f32],
    b: &[f32],
    c: &mut [f32],
) {
    for p in 0..k {
        let arow = &a[p * m..(p + 1) * m];
        let brow = &b[p * n..(p + 1) * n];
        for (i, &av) in arow.iter().enumerate() {
            let crow = &mut c[i * n..(i + 1) * n];
            for (d, &bv) in crow.iter_mut().zip(brow) {
                *d = madd::<FMA>(*d, av, bv);
            }
        }
    }
}

/// `C += A * Bᵀ` for row-major `A` (`m x k`), `B` (`n x k`), `C` (`m x n`),
/// without materializing `Bᵀ`.
///
/// Each output element is a dot product of two contiguous rows.
pub fn gemm_nt(m: usize, k: usize, n: usize, a: &[f32], b: &[f32], c: &mut [f32]) {
    debug_assert_eq!(a.len(), m * k);
    debug_assert_eq!(b.len(), n * k);
    debug_assert_eq!(c.len(), m * n);
    #[cfg(target_arch = "x86_64")]
    if has_avx2_fma() {
        // SAFETY: the required target features were just detected.
        unsafe { gemm_nt_avx2(m, k, n, a, b, c) };
        return;
    }
    gemm_nt_body::<false>(m, k, n, a, b, c);
}

#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2,fma")]
unsafe fn gemm_nt_avx2(m: usize, k: usize, n: usize, a: &[f32], b: &[f32], c: &mut [f32]) {
    gemm_nt_body::<true>(m, k, n, a, b, c);
}

#[inline(always)]
fn gemm_nt_body<const FMA: bool>(
    m: usize,
    k: usize,
    n: usize,
    a: &[f32],
    b: &[f32],
    c: &mut [f32],
) {
    for i in 0..m {
        let arow = &a[i * k..(i + 1) * k];
        let crow = &mut c[i * n..(i + 1) * n];
        for (j, d) in crow.iter_mut().enumerate() {
            let brow = &b[j * k..(j + 1) * k];
            // Four partial sums break the serial FMA dependency chain;
            // the lane-merge order is fixed, so results stay
            // deterministic for a given build/CPU.
            let mut s = [0.0f32; 4];
            let mut chunks_a = arow.chunks_exact(4);
            let mut chunks_b = brow.chunks_exact(4);
            for (ca, cb) in (&mut chunks_a).zip(&mut chunks_b) {
                for l in 0..4 {
                    s[l] = madd::<FMA>(s[l], ca[l], cb[l]);
                }
            }
            let mut tail = 0.0f32;
            for (&x, &y) in chunks_a.remainder().iter().zip(chunks_b.remainder()) {
                tail = madd::<FMA>(tail, x, y);
            }
            *d += ((s[0] + s[1]) + (s[2] + s[3])) + tail;
        }
    }
}

/// `1/ln 2 · 32` (`0x1.71547652b82fep+5`): `x·32/ln 2 = k + r`.
const EXPF_INV_LN2_N: f64 = f64::from_bits(0x4047_1547_652b_82fe);
/// `0x1.8p52`: adding it rounds to an integer held in the low mantissa
/// bits.
const EXPF_SHIFT: f64 = f64::from_bits(0x4338_0000_0000_0000);
/// The cubic for `2^(r/32)`: `C0·r³ + C1·r² + C2·r + 1`.
const EXPF_C0: f64 = f64::from_bits(0x3ebc_6af8_4b91_2394);
const EXPF_C1: f64 = f64::from_bits(0x3f2e_bfce_50fa_c4f3);
const EXPF_C2: f64 = f64::from_bits(0x3f96_2e42_ff0c_52d6);
/// Below `−0x1.9fe368p6` (≈ log 2⁻¹⁵⁰) the result rounds to `+0`.
const EXPF_LO: f32 = f32::from_bits(0xc2cf_f1b4);
/// Above `0x1.62e42ep6` (≈ log 2¹²⁸) the result overflows to `+∞`.
const EXPF_HI: f32 = f32::from_bits(0x42b1_7217);
/// `EXPF_TAB[i] = bits(2^(i/32)) − (i << 47)`, glibc's `__exp2f_data.tab`:
/// adding `k << 47` puts `⌊k/32⌋` into the exponent field.
const EXPF_TAB: [u64; 32] = [
    0x3ff0000000000000,
    0x3fefd9b0d3158574,
    0x3fefb5586cf9890f,
    0x3fef9301d0125b51,
    0x3fef72b83c7d517b,
    0x3fef54873168b9aa,
    0x3fef387a6e756238,
    0x3fef1e9df51fdee1,
    0x3fef06fe0a31b715,
    0x3feef1a7373aa9cb,
    0x3feedea64c123422,
    0x3feece086061892d,
    0x3feebfdad5362a27,
    0x3feeb42b569d4f82,
    0x3feeab07dd485429,
    0x3feea47eb03a5585,
    0x3feea09e667f3bcd,
    0x3fee9f75e8ec5f74,
    0x3feea11473eb0187,
    0x3feea589994cce13,
    0x3feeace5422aa0db,
    0x3feeb737b0cdc5e5,
    0x3feec49182a3f090,
    0x3feed503b23e255d,
    0x3feee89f995ad3ad,
    0x3feeff76f2fb5e47,
    0x3fef199bdd85529c,
    0x3fef3720dcef9069,
    0x3fef5818dcfba487,
    0x3fef7c97337b9b5f,
    0x3fefa4afa2a490da,
    0x3fefd0765b6e4540,
];

/// glibc's `expf`, bit for bit, as a branch-free body the loop
/// vectorizer can widen. `FMA` picks glibc's AVX2+FMA variant
/// (`__expf_fma`, which fuses `kd`, `r`, the two linear terms and the
/// final Horner step) or its generic one (separate mul and add); glibc's
/// ifunc chooses between them on the condition of [`has_avx2_fma`].
/// The special cases are selects, not early returns: a branchy clamp
/// keeps the loop scalar.
#[inline(always)]
fn expf<const FMA: bool>(x: f32) -> f32 {
    let xd = f64::from(x);
    // x·32/ln 2 = k + r with r in [−1/2, 1/2] and integer k.
    let (kd, r) = if FMA {
        let kd = EXPF_INV_LN2_N.mul_add(xd, EXPF_SHIFT);
        (kd, EXPF_INV_LN2_N.mul_add(xd, -(kd - EXPF_SHIFT)))
    } else {
        let z = EXPF_INV_LN2_N * xd;
        let kd = z + EXPF_SHIFT;
        (kd, z - (kd - EXPF_SHIFT))
    };
    // exp(x) = 2^(k/32) · 2^(r/32), the first from the table.
    let ki = kd.to_bits();
    let s = f64::from_bits(EXPF_TAB[(ki & 31) as usize].wrapping_add(ki << 47));
    let r2 = r * r;
    let y = if FMA {
        let z = EXPF_C0.mul_add(r, EXPF_C1);
        z.mul_add(r2, EXPF_C2.mul_add(r, 1.0))
    } else {
        (EXPF_C0 * r + EXPF_C1) * r2 + (EXPF_C2 * r + 1.0)
    };
    let e = (y * s) as f32;
    let e = if x > EXPF_HI { f32::INFINITY } else { e };
    let e = if x < EXPF_LO { 0.0 } else { e };
    if x.is_nan() {
        x + x
    } else {
        e
    }
}

/// `x = expf(x)` for every element: glibc's `expf` bit for bit (the
/// libm behind `f32::exp` on x86-64 GNU/Linux), at vector width.
pub fn exp_inplace(xs: &mut [f32]) {
    #[cfg(target_arch = "x86_64")]
    if has_avx2_fma() {
        // SAFETY: the required target features were just detected.
        unsafe { exp_inplace_avx2(xs) };
        return;
    }
    exp_inplace_body::<false>(xs);
}

/// # Safety
///
/// The CPU must support AVX2 and FMA.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2,fma")]
unsafe fn exp_inplace_avx2(xs: &mut [f32]) {
    exp_inplace_body::<true>(xs);
}

#[inline(always)]
fn exp_inplace_body<const FMA: bool>(xs: &mut [f32]) {
    for x in xs {
        *x = expf::<FMA>(*x);
    }
}

/// Column-wise softmax of `scale · v` for row-major `v` (`rows x
/// cols`), in place: each column becomes one softmax over its rows.
///
/// Per column, term for term, this is [`crate::Tape::scale`] followed
/// by [`crate::Tape::softmax_rows`] on that column as a row: scale,
/// the running `max` from `−∞` with rows ascending, `expf(v − max)`
/// summed from zero with rows ascending, then `v / sum`. The vectors
/// run across columns, so no reduction is reordered. A column holding
/// a NaN or `+∞` comes out all NaN, as the tape's row does.
///
/// The per-column max and sum live in per-thread scratch, so a warm
/// call allocates nothing.
pub fn softmax_cols(rows: usize, cols: usize, scale: f32, v: &mut [f32]) {
    debug_assert_eq!(v.len(), rows * cols);
    if rows == 0 || cols == 0 {
        return;
    }
    SCRATCH.with(|cell| {
        let mut scratch = cell.borrow_mut();
        let Scratch { colmax, colsum, .. } = &mut *scratch;
        if colmax.len() < cols {
            colmax.resize(cols, 0.0);
            colsum.resize(cols, 0.0);
        }
        let (max, sum) = (&mut colmax[..cols], &mut colsum[..cols]);
        #[cfg(target_arch = "x86_64")]
        if has_avx2_fma() {
            // SAFETY: the required target features were just detected.
            unsafe { softmax_cols_avx2(cols, scale, v, max, sum) };
            return;
        }
        softmax_cols_body::<false>(cols, scale, v, max, sum);
    });
}

/// # Safety
///
/// The CPU must support AVX2 and FMA.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2,fma")]
unsafe fn softmax_cols_avx2(
    cols: usize,
    scale: f32,
    v: &mut [f32],
    max: &mut [f32],
    sum: &mut [f32],
) {
    softmax_cols_body::<true>(cols, scale, v, max, sum);
}

#[inline(always)]
fn softmax_cols_body<const FMA: bool>(
    cols: usize,
    scale: f32,
    v: &mut [f32],
    max: &mut [f32],
    sum: &mut [f32],
) {
    max.fill(f32::NEG_INFINITY);
    for row in v.chunks_exact_mut(cols) {
        for (x, m) in row.iter_mut().zip(max.iter_mut()) {
            *x *= scale;
            *m = m.max(*x);
        }
    }
    sum.fill(0.0);
    for row in v.chunks_exact_mut(cols) {
        for ((x, &m), s) in row.iter_mut().zip(&*max).zip(sum.iter_mut()) {
            let e = expf::<FMA>(*x - m);
            *x = e;
            *s += e;
        }
    }
    for row in v.chunks_exact_mut(cols) {
        for (x, &s) in row.iter_mut().zip(&*sum) {
            *x /= s;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Scalar reference: plain triple loop, `k` ascending.
    fn gemm_ref(m: usize, k: usize, n: usize, a: &[f32], b: &[f32]) -> Vec<f32> {
        let mut c = vec![0.0f32; m * n];
        for i in 0..m {
            for j in 0..n {
                let mut s = 0.0f32;
                for p in 0..k {
                    s += a[i * k + p] * b[p * n + j];
                }
                c[i * n + j] += s;
            }
        }
        c
    }

    fn fill(len: usize, seed: f32) -> Vec<f32> {
        (0..len)
            .map(|i| ((i as f32 * 0.61 + seed).sin()) * 0.9)
            .collect()
    }

    fn assert_close(got: &[f32], want: &[f32], what: &str) {
        assert_eq!(got.len(), want.len());
        for (i, (&g, &w)) in got.iter().zip(want).enumerate() {
            assert!(
                (g - w).abs() <= 1e-4 * (1.0 + w.abs()),
                "{what} element {i}: {g} vs {w}"
            );
        }
    }

    /// Shapes straddling every blocking boundary: MR/NR edges, the KC
    /// block edge, and the NC panel edge.
    const EDGE_SHAPES: [(usize, usize, usize); 9] = [
        (1, 1, 1),
        (3, 5, 7),
        (6, 16, 16),
        (5, 9, 17),
        (13, 130, 9),
        (7, 127, 129),
        (2, 256, 3),
        (33, 24, 33),
        (64, 64, 64),
    ];

    #[test]
    fn gemm_matches_reference_across_edge_shapes() {
        for &(m, k, n) in &EDGE_SHAPES {
            let a = fill(m * k, 1.0);
            let b = fill(k * n, 2.0);
            let mut c = vec![0.0f32; m * n];
            gemm(m, k, n, &a, &b, &mut c);
            assert_close(&c, &gemm_ref(m, k, n, &a, &b), &format!("{m}x{k}x{n}"));
        }
    }

    #[test]
    fn gemm_set_equals_zero_fill_then_accumulate() {
        // The overwrite store on the edge shapes, plus `k` past two KC
        // blocks with `n` past an NC panel and `k = 0`, bit for bit
        // against zero-fill + `gemm`, over a `C` of stale NaNs it must
        // never read.
        for &(m, k, n) in EDGE_SHAPES
            .iter()
            .chain(&[(9, 2 * KC + 5, NC + 3), (4, 0, 5)])
        {
            let a = fill(m * k, 1.5);
            let b = fill(k * n, 2.5);
            let mut want = vec![0.0f32; m * n];
            gemm(m, k, n, &a, &b, &mut want);
            let mut got = vec![f32::NAN; m * n];
            gemm_set(m, k, n, &a, &b, &mut got);
            assert_eq!(
                got.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
                want.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
                "{m}x{k}x{n}"
            );
        }
    }

    #[test]
    fn gemm_set_stores_positive_zero_for_a_negative_zero_sum() {
        // A negative product that underflows: the fused multiply-add
        // rounds it to −0, the separate multiply's −0 plus the +0
        // accumulator to +0. Either way zero-fill then `+=` gives +0,
        // and so must the overwrite store.
        let (a, b) = ([-1e-30f32], [1e-30f32]);
        let mut set = [f32::NAN];
        gemm_set(1, 1, 1, &a, &b, &mut set);
        let mut acc = [0.0f32];
        gemm(1, 1, 1, &a, &b, &mut acc);
        assert_eq!(set[0].to_bits(), 0);
        assert_eq!(acc[0].to_bits(), 0);
    }

    #[test]
    fn gemm_columns_are_width_independent() {
        // Every tile is full width: column j of A·B is bit-identical to
        // A times column j of B alone, for every j across the NR edges
        // and with `k` crossing a KC block.
        let (m, k) = (7, KC + 22);
        for n in [1, 5, NR - 1, NR, NR + 1, 2 * NR + 3] {
            let a = fill(m * k, 9.0);
            let b = fill(k * n, 10.0);
            let mut full = vec![0.0f32; m * n];
            gemm(m, k, n, &a, &b, &mut full);
            for j in 0..n {
                let col: Vec<f32> = (0..k).map(|p| b[p * n + j]).collect();
                let mut one = vec![0.0f32; m];
                gemm(m, k, 1, &a, &col, &mut one);
                for i in 0..m {
                    assert_eq!(
                        full[i * n + j].to_bits(),
                        one[i].to_bits(),
                        "n = {n}, element ({i}, {j})"
                    );
                }
            }
        }
    }

    #[test]
    fn gemm_is_bitwise_repeatable() {
        // Determinism contract: the kernel sums in a fixed order, so
        // repeated invocations on the same inputs agree bit for bit.
        let (m, k, n) = (23, 300, 37);
        let a = fill(m * k, 3.0);
        let b = fill(k * n, 4.0);
        let mut c1 = vec![0.0f32; m * n];
        let mut c2 = vec![0.0f32; m * n];
        gemm(m, k, n, &a, &b, &mut c1);
        gemm(m, k, n, &a, &b, &mut c2);
        assert_eq!(
            c1.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
            c2.iter().map(|v| v.to_bits()).collect::<Vec<_>>()
        );
    }

    #[test]
    fn tn_and_nt_match_explicit_transpose() {
        let (m, k, n) = (6, 11, 5);
        // A stored k x m, B stored k x n.
        let a = fill(k * m, 5.0);
        let b = fill(k * n, 6.0);
        let mut at = vec![0.0f32; m * k];
        for p in 0..k {
            for i in 0..m {
                at[i * k + p] = a[p * m + i];
            }
        }
        let mut c_tn = vec![0.0f32; m * n];
        gemm_tn(k, m, n, &a, &b, &mut c_tn);
        assert_close(&c_tn, &gemm_ref(m, k, n, &at, &b), "tn");

        // A stored m x k, B stored n x k.
        let a2 = fill(m * k, 7.0);
        let b2 = fill(n * k, 8.0);
        let mut bt = vec![0.0f32; k * n];
        for j in 0..n {
            for p in 0..k {
                bt[p * n + j] = b2[j * k + p];
            }
        }
        let mut c_nt = vec![0.0f32; m * n];
        gemm_nt(m, k, n, &a2, &b2, &mut c_nt);
        assert_close(&c_nt, &gemm_ref(m, k, n, &a2, &bt), "nt");
    }

    #[test]
    fn gemm_accumulates_into_c() {
        let (m, k, n) = (2, 3, 2);
        let a = fill(m * k, 0.2);
        let b = fill(k * n, 0.4);
        let mut c = vec![1.0f32; m * n];
        gemm(m, k, n, &a, &b, &mut c);
        let base = gemm_ref(m, k, n, &a, &b);
        for (got, exp) in c.iter().zip(&base) {
            assert!((got - (exp + 1.0)).abs() < 1e-5);
        }
    }

    #[test]
    fn degenerate_dims_are_noops() {
        let mut c = vec![0.0f32; 0];
        gemm(0, 4, 0, &[], &[], &mut c);
        let mut c2 = vec![5.0f32; 4];
        gemm(2, 0, 2, &[], &[], &mut c2);
        assert_eq!(c2, vec![5.0; 4]);
    }

    /// Oracles for [`expf`] and [`softmax_cols`]: `f32::exp` is glibc's
    /// `expf` only on GNU/Linux.
    #[cfg(all(target_os = "linux", target_env = "gnu"))]
    mod libm_oracle {
        use super::*;
        use crate::{Mat, Tape};

        /// Bit equality, with every NaN equal to every NaN.
        fn same(a: f32, b: f32) -> bool {
            a.to_bits() == b.to_bits() || (a.is_nan() && b.is_nan())
        }

        /// Asserts that both scalar bodies and the dispatched vector
        /// loop reproduce `f32::exp` on `xs`.
        fn check_expf(xs: &[f32]) {
            let mut vector = xs.to_vec();
            exp_inplace(&mut vector);
            for (&x, &got) in xs.iter().zip(&vector) {
                let want = x.exp();
                assert!(
                    same(got, want),
                    "vector expf({x:e} = {:#010x}) = {got:e}, libm {want:e}",
                    x.to_bits()
                );
                for (fma, got) in [(true, expf::<true>(x)), (false, expf::<false>(x))] {
                    assert!(
                        same(got, want),
                        "scalar expf (fma {fma}) ({x:e} = {:#010x}) = {got:e}, libm {want:e}",
                        x.to_bits()
                    );
                }
            }
        }

        #[test]
        fn expf_table_is_two_to_the_i_over_32() {
            for (i, &t) in EXPF_TAB.iter().enumerate() {
                let want = (i as f64 / 32.0).exp2().to_bits();
                assert_eq!(t.wrapping_add((i as u64) << 47), want, "entry {i}");
            }
        }

        #[test]
        fn expf_matches_libm_at_the_edges() {
            // The neighbours of x away from and toward zero.
            let outward = |x: f32| f32::from_bits(x.to_bits() + 1);
            let inward = |x: f32| f32::from_bits(x.to_bits() - 1);
            let mut xs = vec![
                f32::NEG_INFINITY,
                f32::INFINITY,
                f32::NAN,
                -f32::NAN,
                f32::from_bits(0x7f80_0001), // signalling NaN
                f32::from_bits(0xffc1_2345),
                0.0,
                -0.0,
                f32::MIN_POSITIVE,
                -f32::MIN_POSITIVE,
                f32::from_bits(1),
                f32::from_bits(0x8000_0001),
                f32::MAX,
                f32::MIN,
                EXPF_LO,
                outward(EXPF_LO),
                inward(EXPF_LO),
                EXPF_HI,
                outward(EXPF_HI),
                inward(EXPF_HI),
                88.0,
                -88.0,
                // −0x1.9d1d9ep6 ≈ log 2⁻¹⁴⁹, where glibc may flag underflow.
                f32::from_bits(0xc2ce_8ecf),
                1.0,
                -1.0,
                0.5,
            ];
            // Every pattern whose result is subnormal or the first
            // normals: x from log 2⁻¹²⁶ ≈ −87.34 down past EXPF_LO.
            let first = (-87.0f32).to_bits();
            let last = (-104.5f32).to_bits();
            xs.extend((first..=last).step_by(7).map(f32::from_bits));
            check_expf(&xs);
        }

        #[test]
        fn expf_matches_libm_on_a_strided_sample() {
            let xs: Vec<f32> = (0..=u32::MAX).step_by(4093).map(f32::from_bits).collect();
            check_expf(&xs);
        }

        /// Every `f32` bit pattern through the vector loop (about 20 s
        /// in release on two cores; `scripts/check.sh` runs it).
        #[test]
        #[ignore = "exhaustive: run in release"]
        fn expf_matches_libm_on_every_f32() {
            const CHUNK: u64 = 1 << 16;
            let threads = std::thread::available_parallelism().map_or(1, |n| n.get()) as u64;
            let chunks = (1u64 << 32) / CHUNK;
            std::thread::scope(|scope| {
                for t in 0..threads {
                    scope.spawn(move || {
                        let mut xs = vec![0.0f32; CHUNK as usize];
                        let mut ys = vec![0.0f32; CHUNK as usize];
                        for c in (t..chunks).step_by(threads as usize) {
                            for (i, x) in xs.iter_mut().enumerate() {
                                *x = f32::from_bits((c * CHUNK + i as u64) as u32);
                            }
                            ys.copy_from_slice(&xs);
                            exp_inplace(&mut ys);
                            for (&x, &got) in xs.iter().zip(&ys) {
                                assert!(
                                    same(got, x.exp()),
                                    "expf({x:e} = {:#010x}) = {got:e}, libm {:e}",
                                    x.to_bits(),
                                    x.exp()
                                );
                            }
                        }
                    });
                }
            });
        }

        /// The tape's `scale` then `softmax_rows` on `vᵀ`, transposed
        /// back: what [`softmax_cols`] must reproduce.
        fn tape_softmax_cols(rows: usize, cols: usize, scale: f32, v: &[f32]) -> Vec<f32> {
            let m = Mat::from_vec(rows, cols, v.to_vec()).unwrap().transpose();
            let mut tape = Tape::new();
            let x = tape.constant(m);
            let scaled = tape.scale(x, scale);
            let soft = tape.softmax_rows(scaled);
            tape.value(soft).transpose().into_vec()
        }

        fn assert_same(got: &[f32], want: &[f32], what: &str) {
            for (i, (&g, &w)) in got.iter().zip(want).enumerate() {
                assert!(same(g, w), "{what} element {i}: {g:e} vs {w:e}");
            }
        }

        fn scores(len: usize, seed: f32) -> Vec<f32> {
            (0..len)
                .map(|i| ((i as f32 * 0.37 + seed).sin()) * 9.0)
                .collect()
        }

        #[test]
        fn softmax_cols_matches_tape_on_the_transpose() {
            let scale = 1.0 / 6f32.sqrt();
            let shapes = (1..=40)
                .flat_map(|r| (1..=40).map(move |c| (r, c)))
                .chain([(129, 300), (1000, 7)]);
            for (rows, cols) in shapes {
                let v = scores(rows * cols, rows as f32 + 0.1 * cols as f32);
                let mut got = v.clone();
                softmax_cols(rows, cols, scale, &mut got);
                let want = tape_softmax_cols(rows, cols, scale, &v);
                assert_same(&got, &want, &format!("{rows}x{cols}"));
            }
        }

        #[test]
        fn softmax_cols_poisons_only_the_columns_it_must() {
            let (rows, cols, scale) = (5, 6, 0.75);
            let clean = scores(rows * cols, 0.3);
            let mut v = clean.clone();
            v[2 * cols + 1] = f32::NAN; // query 1: NaN score
            v[3] = f32::INFINITY; // query 3: +∞ score
            v[4 * cols + 4] = f32::NEG_INFINITY; // query 4: −∞ score
            for r in 0..rows {
                v[r * cols + 5] = 1.5; // query 5: all equal
            }
            let mut got = v.clone();
            softmax_cols(rows, cols, scale, &mut got);
            assert_same(&got, &tape_softmax_cols(rows, cols, scale, &v), "poisoned");

            let mut base = clean.clone();
            softmax_cols(rows, cols, scale, &mut base);
            for r in 0..rows {
                for c in 0..cols {
                    let g = got[r * cols + c];
                    match c {
                        1 | 3 => assert!(g.is_nan(), "query {c} row {r}: {g}"),
                        4 if r == 4 => assert_eq!(g.to_bits(), 0),
                        4 => assert!(g > 0.0 && g < 1.0),
                        5 => assert_eq!(g, 0.2),
                        _ => assert_eq!(g.to_bits(), base[r * cols + c].to_bits()),
                    }
                }
            }
        }
    }
}
