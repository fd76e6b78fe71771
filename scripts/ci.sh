#!/usr/bin/env bash
# Tier-1 gate. Must pass with an EMPTY cargo registry: the workspace has
# zero external dependencies by policy (see DESIGN.md), so --offline is
# both a speedup and an enforcement mechanism — any reintroduced
# crates.io dependency fails the build here before it fails review.
set -euo pipefail
cd "$(dirname "$0")/.."

cargo build --release --offline
cargo test -q --offline
# Float-kernel gate: the tensor crate's bitwise oracles (window-gathered
# conv forward, weight and input gradients against im2col + GEMM +
# col2im; the unfold and fold against their per-element loops), the
# GEMM edge-tile and parallel-split tests, and the conv gradchecks.
cargo test -q --offline -p tqt-tensor
# Integer-kernel gates: the fused i8 GEMM against its i64 scalar oracle,
# and serial-vs-parallel bit-identity of the full integer engine across
# the zoo (the guarantee that lets sanitizer results carry to parallel
# deployment runs).
cargo test -q --offline -p tqt-fixedpoint --test gemm_i8_oracle
cargo test -q --offline --test int_pool_parity
# Fusion + packed-panel gates, under the sanitize feature so the
# happens-before sanitizer (TQT-V022) audits every shared-panel read:
# the differential fusion harness (fused vs unfused plans bit-identical
# zoo-wide) and the pre-packed weight-panel memoization oracle,
# including concurrent executor sessions borrowing one plan arena.
cargo test -q --offline --features tqt-fixedpoint/sanitize --test fusion_parity
cargo test -q --offline -p tqt-fixedpoint --features sanitize --test pack_cache_oracle
# Bit-accuracy gate, also sanitized. Fused and unfused graphs now run
# every requant/relu/leaky/add step through one shared per-element tail,
# so fusion_parity no longer compares two implementations of a step; this
# test (the float emulation of the baked graph vs the integer engine) is
# the gate that checks the standalone nodes against an oracle outside the
# engine.
cargo test -q --offline --features tqt-fixedpoint/sanitize --test bit_accuracy
# Grid-type / rebalance gate, also sanitized: unmerged-lowered graphs
# repaired by the rebalance pass must be well-typed (TQT-V031..V034),
# re-certify end-to-end, fuse through the inserted coercions, and match
# the exact dyadic reference bit-for-bit across random operand grids,
# serially and on 4 worker threads.
cargo test -q --offline --features tqt-fixedpoint/sanitize --test rebalance_parity
# Concurrency gates: exhaustive bounded model check of the pool's
# claim/complete protocol (TQT-V019/V020; every interleaving of the
# pinned configuration suite, no state budget), and the proof that
# forcing a single thread takes the pure serial path without spawning
# or waking any worker.
cargo test -q --offline -p tqt-rt --test sched_model
cargo test -q --offline -p tqt-rt --test serial_no_spawn
# Serving gates: exhaustive bounded model check of the admission queue's
# batching protocol (TQT-V024; no lost/double-dispatched request, no
# stranded deadline, clean drain — plus refutation of seeded bugs), and
# zoo-wide batching bit-identity under the sanitize feature: a coalesced
# batch-k dispatch must match k batch-1 runs bit-for-bit (values and
# sat/ovf counters), and a full serve() scope must route every client
# exactly the batch-1 logits with zero steady-state executor allocations.
cargo test -q --offline -p tqt-rt --test batch_model
cargo test -q --offline --features tqt-fixedpoint/sanitize --test serve_parity
# Float-engine gate, also under sanitize so the happens-before
# sanitizer audits the pooled optimizer's and planned executor's parallel
# regions: full train() runs (training steps on the training plan,
# validation on forward-only plans, pooled Adam) must be bit-identical
# (losses, thresholds, checkpointed parameters) at 1 and 4 threads to the
# same schedule run in test code over the test-only tqt-reference crate:
# its allocating interpreter (with its own calibrate pass) and its
# per-Param Adam. The executor and the reference's per-layer
# forward/backward call one slice kernel per float op (conv, dense,
# quantizer, pooling, batch norm, concat, per-channel bias add/sum), so
# this gate and planned_parity (training step, calibration and
# evaluation) do not compare two implementations of an op's arithmetic:
# they check what the executor owns (slot liveness, gradient fan-in
# order, arena plumbing, quantized-weight staging, calibration order).
# The kernels' arithmetic is checked by the tqt-nn unit tests and the
# tqt-reference value tests (hand-computed values, padded pooling
# included) and finite-difference gradchecks, run here together with the
# pooled-Adam and planned parity tests.
cargo test -q --offline -p tqt --features tqt-fixedpoint/sanitize --test train_parity
cargo test -q --offline -p tqt-nn -p tqt-reference
cargo test -q --offline -p tqt-graph --test planned_parity
# Verifier gate: the tqt-verify unit tests (lint, grid typer, interval,
# plan checker) and its negative suite — one malformed graph per
# diagnostic code, including each refusal of the lowering — plus the
# cross-IR check that the float grid typer and the integer plan give
# every zoo node the same grid.
cargo test -q --offline -p tqt-verify
# Oracle-isolation gate: tqt-reference is a test-only oracle and may only
# be a dev-dependency. As a normal dependency of any crate, production
# code could call the allocating interpreter again.
oracle_users="$(cargo tree --offline -e normal -i tqt-reference --workspace --prefix none \
  | grep -v '^tqt-reference ' || true)"
if [[ -n "$oracle_users" ]]; then
  echo "tqt-reference is a normal dependency of:"
  echo "$oracle_users"
  exit 1
fi
# Rounding gate: every quantizer rounds through the branch-free
# `tqt_quant::round_half_even`. Its ignored test sweeps all 2^32 f32 bit
# patterns against `f32::round_ties_even`, bit for bit (any NaN matches
# any NaN); tier-1 runs only an edge-case set and a strided sweep.
cargo test -q --release --offline -p tqt-quant -- --ignored
# Quantizer end-to-end pin: regenerate the TQT and FakeQuant transfer
# curves, the toy-model Adam runs and the PACT comparison into a temp dir
# and diff them byte-for-byte against the recorded files in results/
# (about 3 s). Any change to a quantizer's forward or gradient formula,
# or to the order its gradients are summed in, shows here.
pin_dir="$(mktemp -d)"
for b in figure1 figure2 figure3 figure9 table4 pact_comparison; do
  TQT_RESULTS_DIR="$pin_dir" cargo run --release --offline -q -p tqt-bench --bin "$b" >/dev/null
  diff "results/$b.csv" "$pin_dir/$b.csv"
done
rm -rf "$pin_dir"
cargo clippy --offline --workspace --all-targets -- -D warnings
# Docs gate: the rendered docs carry no dead or ambiguous intra-doc links.
RUSTDOCFLAGS="-D warnings" cargo doc --offline --workspace --no-deps
# Forbidden-pattern gate: unwrap/expect in the numeric substrates,
# narrowing casts in requant, float equality outside tests, and thread
# spawns / raw atomics outside crates/rt (the only crate the schedule
# model checker covers). Its self-test first proves on two fixtures that
# only #[cfg(test)] items are exempt, not the code below them.
scripts/check_forbidden.sh --self-test
scripts/check_forbidden.sh
# Static verification gate: every zoo model at every supported weight
# bit-width must pass the full tqt-verify analysis suite (shape inference
# over the float and the lowered, unfused and fused, graphs from one
# per-op rule, quantization lints, overflow proof, the translation-validation
# certifier proving every lowered node — fused and unfused — bit-exact
# against the exact rational fake-quant reference (TQT-V025..V030),
# grid-type inference over the float, lowered, and fused graphs plus
# certified rebalancing of an unmerged lowering (TQT-V031..V034),
# observed-vs-proven cross-check,
# executor-plan alias-freedom across the serving batch ladder {1,2,4,8}).
# The binary also runs the schedule and batching-protocol model checkers
# in smoke mode and the fold-partition determinism check up front, and
# drains happens-before sanitizer findings (TQT-V022) at the end. Built with the sanitize feature, so the sweep executes over
# kernels that assert no i64 accumulator ever wrapped AND over
# instrumented parallel regions / scratch checkouts.
cargo run --release --offline -q -p tqt-bench --bin verify --features tqt-fixedpoint/sanitize
# Smoke-run the bench binaries (1 sample, tiny shapes, output under
# target/) so JSON emission and the bench harness can never rot.
scripts/bench.sh --smoke
