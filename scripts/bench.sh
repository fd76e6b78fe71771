#!/usr/bin/env bash
# Runs the kernel and training-step benches and persists machine-readable
# results. Full runs write the repo-root trajectory files that every perf
# PR is measured against:
#
#   BENCH_gemm.json        blocked GEMM vs retained naive baseline
#   BENCH_conv.json        conv2d forward/backward + depthwise
#   BENCH_train_step.json  one full QAT training step on a zoo model
#   BENCH_quant.json       TQT quantizer forward/backward and in-place weight STE
#   BENCH_int_infer.json   blocked+fused i8 GEMM vs naive, zoo int8 forward
#   BENCH_serve.json       closed-loop dynamic-batching serving throughput/latency
#
# `--smoke` is the CI mode: one sample, tiny shapes, and output under the
# gitignored results/local/ so the committed baselines are never
# overwritten by a throwaway run (the guard_knob rule for reduced runs).
# It exists to keep the bench binaries and their JSON emission compiling
# and running — not to produce meaningful timings.
set -euo pipefail
cd "$(dirname "$0")/.."

# Absolute output dir: cargo runs bench binaries from the package
# directory, so relative --json paths would land in crates/bench/.
SMOKE=""
OUTDIR="$(pwd)"
if [[ "${1:-}" == "--smoke" ]]; then
  SMOKE="--smoke"
  OUTDIR="$(pwd)/results/local"
  mkdir -p "$OUTDIR"
elif [[ -n "${1:-}" ]]; then
  echo "usage: $0 [--smoke]" >&2
  exit 2
fi

declare -A OUT=(
  [gemm_kernels]="BENCH_gemm.json"
  [conv_kernels]="BENCH_conv.json"
  [train_step]="BENCH_train_step.json"
  [quantizer_kernels]="BENCH_quant.json"
  [int_infer]="BENCH_int_infer.json"
  [serve_bench]="BENCH_serve.json"
)

for bench in gemm_kernels conv_kernels train_step quantizer_kernels int_infer serve_bench; do
  out="$OUTDIR/${OUT[$bench]}"
  # shellcheck disable=SC2086  # $SMOKE is intentionally word-split ('' or '--smoke')
  cargo bench --offline -p tqt-bench --bench "$bench" -- --json "$out" $SMOKE
  [[ -s "$out" ]] || { echo "bench $bench produced no $out" >&2; exit 1; }
done

echo "bench results written to $OUTDIR/{BENCH_gemm,BENCH_conv,BENCH_train_step,BENCH_quant,BENCH_int_infer,BENCH_serve}.json"
