//! Warm kernel calls allocate nothing.
//!
//! A counting global allocator tallies the allocations made by the
//! current thread. After one warm-up call per shape (which may grow the
//! per-thread GEMM packing or softmax column scratch), further calls of
//! `kernels::gemm` and its overwrite store `kernels::gemm_set`, of the
//! CSR aggregation kernels and of the column softmax must not allocate
//! at all.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use tensor::kernels;
use tensor::sparse::{Csr, CsrRef};

struct Counting;

thread_local! {
    static ALLOCS: Cell<usize> = const { Cell::new(0) };
}

// SAFETY: forwards to the system allocator; the counter is a
// const-initialized thread-local `Cell`, which never allocates.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.with(|n| n.set(n.get() + 1));
        // SAFETY: the caller's contract, passed through.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: the caller's contract, passed through.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCS.with(|n| n.set(n.get() + 1));
        // SAFETY: the caller's contract, passed through.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Allocations made by `f` on this thread.
fn allocations(f: impl FnOnce()) -> usize {
    let before = ALLOCS.with(Cell::get);
    f();
    ALLOCS.with(Cell::get) - before
}

fn fill(len: usize, seed: f32) -> Vec<f32> {
    (0..len)
        .map(|i| ((i as f32 * 0.61 + seed).sin()) * 0.9)
        .collect()
}

#[test]
fn warm_gemm_calls_allocate_nothing() {
    let shapes = [(1000, 1000, 6), (2048, 24, 24), (20, 20, 6)];
    let operands: Vec<_> = shapes
        .iter()
        .map(|&(m, k, n)| (fill(m * k, 1.0), fill(k * n, 2.0), vec![0.0f32; m * n]))
        .collect();
    let mut operands = operands;
    for (&(m, k, n), (a, b, c)) in shapes.iter().zip(&mut operands) {
        kernels::gemm(m, k, n, a, b, c);
    }
    for (&(m, k, n), (a, b, c)) in shapes.iter().zip(&mut operands) {
        let count = allocations(|| kernels::gemm(m, k, n, a, b, c));
        assert_eq!(count, 0, "warm gemm {m}x{k}x{n} allocated");
    }
}

#[test]
fn warm_overwrite_gemm_calls_allocate_nothing() {
    // The attention's K·Qᵀ and Vᵀ·Pᵀ, the fused Q/K/V projection and
    // a WSAGE projection.
    let shapes = [(1000, 6, 64), (6, 1000, 64), (2048, 24, 72), (2048, 24, 24)];
    let mut operands: Vec<_> = shapes
        .iter()
        .map(|&(m, k, n)| (fill(m * k, 5.0), fill(k * n, 6.0), vec![0.0f32; m * n]))
        .collect();
    for (&(m, k, n), (a, b, c)) in shapes.iter().zip(&mut operands) {
        kernels::gemm_set(m, k, n, a, b, c);
    }
    for (&(m, k, n), (a, b, c)) in shapes.iter().zip(&mut operands) {
        let count = allocations(|| kernels::gemm_set(m, k, n, a, b, c));
        assert_eq!(count, 0, "warm gemm_set {m}x{k}x{n} allocated");
    }
}

#[test]
fn csr_kernels_allocate_nothing() {
    let n = 1000;
    let triplets: Vec<(usize, usize, f32)> = (1..n)
        .flat_map(|i| {
            let w = 0.1 + (i % 7) as f32 * 0.05;
            [(i, i / 2, w), (i / 2, i, w)]
        })
        .collect();
    let adj = Csr::from_triplets(n, n, &triplets);
    let a: CsrRef<'_> = adj.view();
    let width = 24;
    let b = fill(n * width, 3.0);
    let mut c = vec![0.0f32; n * width];
    // The CSR kernels have no scratch, so even their first call must
    // not allocate; only the process's tier detection, which registers
    // the `tensor.kernel_tier` gauge once, is left out of the count.
    kernels::tier();
    let count = allocations(|| {
        kernels::csr_gemm(a, width, &b, &mut c);
        kernels::csr_gemm_tn(a, width, &b, &mut c);
    });
    assert_eq!(count, 0, "CSR kernels allocated");
    assert!(c.iter().all(|v| v.is_finite()));
}

#[test]
fn warm_softmax_cols_allocates_nothing() {
    let shapes = [(1000, 1000), (129, 300), (7, 5)];
    let mut scores: Vec<_> = shapes.iter().map(|&(r, c)| fill(r * c, 4.0)).collect();
    for (&(rows, cols), v) in shapes.iter().zip(&mut scores) {
        kernels::softmax_cols(rows, cols, 0.4, v);
    }
    for (&(rows, cols), v) in shapes.iter().zip(&mut scores) {
        let count = allocations(|| kernels::softmax_cols(rows, cols, 0.4, v));
        assert_eq!(count, 0, "warm softmax_cols {rows}x{cols} allocated");
    }
}
