#!/usr/bin/env bash
# Full local gate: release build, tests, and warning-free clippy.
set -euo pipefail
cd "$(dirname "$0")/.."

# --workspace: the root package is only the facade — without it the
# bench/serve binaries the smoke steps below run would go stale.
cargo build --release --workspace
cargo test -q --workspace

# Parallel-determinism gates: dataset builds and accumulated training
# must be bit-identical to serial no matter the pool size. The tests
# flip the in-process thread count themselves; PAR_THREADS=4 also
# exercises env resolution on the way in, and PAR_FORCE_POOL=1 keeps
# pool scheduling exercised even on 1-core CI hosts (where par_map
# otherwise clamps to the serial path).
PAR_THREADS=4 PAR_FORCE_POOL=1 cargo test -q -p gnntrans --test par_determinism
PAR_THREADS=4 PAR_FORCE_POOL=1 cargo test -q -p gnn --test par_determinism

# Packed-training determinism gate: an epoch whose chunks split into
# multiple packs must be bit-identical at 1 vs 4 pool threads.
PAR_THREADS=4 PAR_FORCE_POOL=1 cargo test -q -p gnn --test packed_determinism

# Release-mode parity gate: the packed engine must match the tape
# oracle bit for bit (single graphs) and within 1e-6 (multi-graph
# weight gradients) in the optimized build that serves and trains too,
# not only under the debug `cargo test` above — at the small parity
# shape and at the estimator's shipped plan_b_small shape.
cargo test -q --release -p gnn --test infer_parity --test grad_parity

# The kernel and op oracles under that parity (the overwrite-store
# GEMM against zero-fill + accumulate, the row ops against the tape on
# NaN, ±∞ and ±0, and on an AVX-512 host the AVX2+FMA and AVX-512
# clones of every kernel with the AVX-512 tier against each other) in
# the same optimized build, where the vectorized paths they pin
# actually run.
cargo test -q --release -p tensor --lib

# Exact-expf gate: the vectorized glibc `expf` replica behind the packed
# attention softmax must equal libm's `f32::exp`, which the tape runs,
# on every one of the 2³² f32 bit patterns (NaN counted equal to NaN),
# on every vector tier the host supports (AVX2+FMA, and AVX-512 where
# present); the parity gate above only sees the scores its nets
# produce. About 23 s for both tiers in release on two cores (libm's
# side runs once per input); the debug suite checks a strided sample.
cargo test -q --release -p tensor --lib expf_matches_libm_on_every_f32 -- --ignored

# Release-mode moments gate: the sparse LDLᵀ moment solver must match a
# dense LU solve to 1e-9 relative on random tree and non-tree nets of
# 2–1000 nodes.
cargo test -q --release -p elmore --test moments_oracle

cargo clippy --workspace --all-targets -- -D warnings

# Compute-layer smoke: kernels + 1-vs-N pool runs at a reduced step
# count; writes a throwaway report and fails on any kernel/pool panic.
# Its first line names the dispatched kernel tier, so the log says
# which clones the gates above ran.
cargo run -q -p bench --release --bin compute -- --steps 2 \
    --out target/BENCH_compute_smoke.json

# Inference-engine smoke: tape vs tape-free and packed vs per-graph at
# reduced sizes; asserts the tape-free/packed output matches the tape
# forward within 1e-6 relative error on every path.
cargo run -q -p bench --release --bin infer -- --smoke \
    --out target/BENCH_infer_smoke.json

# Training-engine smoke: packed-vs-tape gradient parity (asserted at
# 1e-6) plus a short packed-training run at reduced sizes — the 2-step
# epoch exercise of the analytic backward through the packed kernels.
cargo run -q -p bench --release --bin train -- --smoke \
    --out target/BENCH_train_smoke.json

# Sparse-solver gates: the dense-vs-sparse golden agreement tests, then
# the rcsim bench smoke (small sizes, both backends), which asserts the
# backends agree within 1e-9 s on every measured net.
cargo test -q -p rcsim --release --test sparse_vs_dense
cargo run -q -p bench --release --bin rcsim -- --smoke \
    --out target/BENCH_rcsim_smoke.json

# Loopback smoke test of the inference server: ephemeral port, one SPEF
# predict (200 + finite slew/delay), /healthz + /metrics, the tracing
# round-trip (predict's x-trace-id findable in /v1/traces with all six
# stages) + validated /metrics?format=prometheus exposition, a
# hot-reload under concurrent load, and a clean drain. Exit code is the
# verdict.
./target/release/serve --smoke

# Trace-analyzer smoke: in-process server under traffic, live /v1/traces
# fetch, and the stage-attribution report; fails if more than 5% of
# request wall time is unattributed to a stage.
./target/release/obs-trace --smoke

# Incremental ECO engine smoke: small designs, a random single-edit
# stream through a warm session, then the correctness gate — the
# incrementally-maintained timing must equal a cold full re-time of the
# same final design to 1e-9 s.
cargo run -q -p bench --release --bin eco -- --smoke \
    --out target/BENCH_eco_smoke.json
