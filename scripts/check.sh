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

# Release-mode moments gate: `elmore::Moments`, the exact reference the
# tree-recurrence Elmore/D2M features are tested against, must match a
# dense LU solve to 1e-9 relative on random tree and non-tree nets of
# 2–1000 nodes.
cargo test -q --release -p elmore --test moments_oracle

# Release-mode SPEF parser gate: holds `rcnet::spef::parse` to the
# reference line parser in `crates/rcnet/tests/reference/` (the same
# document, header by bits, or the same error) in the optimized build
# that serves, on the hostile mutation corpora, Unicode, CRLF and
# comment respellings, and the wtbench `design_spef` and `large_nets`
# documents, and checks every accepted net's adjacency and wire paths
# against its edge list and Dijkstra.
cargo test -q --release -p rcnet --test proptest_spef

# SPEF shard gate: a document with over 64 KiB of `*D_NET` sections
# parses in shards on the `par` pool. The oracle above, with every
# multi-shard corpus swept over 1, 2 and 4 lanes by the tests
# themselves, and the `rcnet.spef.*` counters of multi-shard documents
# (valid, failing in a middle shard, finished serially after a state
# change) at 4 lanes; PAR_FORCE_POOL=1 keeps the shards running
# concurrently on the pool on a 1-core host too.
PAR_THREADS=4 PAR_FORCE_POOL=1 cargo test -q --release -p rcnet \
    --test proptest_spef --test spef_counters

# Quickstart smoke: exact Elmore/D2M of a hand-built net, its golden
# timing, a small estimator trained and asked to predict an unseen net;
# fails on any error. Examples otherwise only compile under `cargo
# test`, and this one is the only non-test caller of `Moments::new`.
# About 1.5 s on two cores.
cargo run -q --release --example quickstart

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

# Wire-seam smoke: TABLE V at quick scale drives the golden simulator,
# DAC'20 and the three GNNTrans plans through `TimingPath::arrival`,
# one `WireTimer::time_net` call per stage, and fails on any wire-timer
# error. About 12 s on two cores.
./target/release/table5_arrival --quick

# Accuracy-table smoke: TABLE IV at quick scale fits the DAC'20 GBDT
# and scores it through `bench::accuracy`'s DAC'20 evaluation, and
# scores the four graph-learning baselines through
# `bench::harness::eval_baseline` and GNNTrans through
# `evaluate_estimator`; fails on any error. No other step runs the
# DAC'20 evaluation or `eval_baseline`. About 11 s on two cores.
./target/release/table4_allnets --quick

# Ablation smoke: five GNNTrans variants trained and scored through
# `eval_baseline`, the only run of the ablation loop; fails on any
# error. About 8 s on two cores.
./target/release/ablation --quick

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

# Serving-benchmark smoke: a 1 s closed-loop window at one worker, the
# ECO session drive and the JSONL trace dump; fails when no request or
# no ECO edit succeeds. No other step runs loadgen. About 2.5 s on two
# cores.
./target/release/loadgen --duration-s 1 --workers-sweep 1 --eco \
    --traces-out target/traces_smoke.jsonl --out target/BENCH_serve_smoke.json

# Trace-file smoke: the stage-attribution report over that dump, read
# through the decoder the live `/v1/traces` fetch shares; fails on a
# line that is not a trace record.
./target/release/obs-trace --input target/traces_smoke.jsonl

# Incremental ECO engine smoke: small designs, a random single-edit
# stream through a warm session, then the correctness gate — the
# incrementally-maintained timing must equal a cold full re-time of the
# same final design to 1e-9 s.
cargo run -q -p bench --release --bin eco -- --smoke \
    --out target/BENCH_eco_smoke.json
