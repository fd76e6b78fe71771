#!/usr/bin/env bash
# The repository's benchmark. Builds offline, then runs every workload in
# a process of its own, or only the one named by --workload.
#
#   benchmark/run.sh [--trace] [--smoke] [--seed N] [--seconds S] [--order fwd|rev]
#   benchmark/run.sh --workload <name> [--seed N] [--seconds S] [--trace 0|1] [--smoke]
#
# Prints `workload metric value unit` for every metric and writes each
# run's JSON under <target>/benchmark/ (--smoke: <target>/benchmark/reduced/).
# With --workload the last line of output is the run's JSON result.
# Exits non-zero if any output was wrong or an invariant broke: nonzero
# steady-state slot allocations, wrapped accumulators or lost requests.
# The target directory is $CARGO_TARGET_DIR, else benchmark/target.
set -euo pipefail

here="$(cd "$(dirname "$0")" && pwd)"
target="${CARGO_TARGET_DIR:-$here/target}"
cargo build --release --offline --quiet --manifest-path "$here/Cargo.toml" \
  --target-dir "$target" >&2
bin="$target/release/tqt-benchmark"
out="$target/benchmark"

for a in "$@"; do
  if [ "$a" = "--workload" ]; then
    exec "$bin" --out "$out" "$@"
  fi
done

trace=0
seed=11
order=fwd
extra=()
while [ $# -gt 0 ]; do
  case "$1" in
    --trace)
      if [[ "${2:-}" =~ ^[01]$ ]]; then trace=$2; shift; else trace=1; fi ;;
    --smoke) extra+=(--smoke) ;;
    --seed) seed=$2; shift ;;
    --seconds) extra+=(--seconds "$2"); shift ;;
    --order) order=$2; shift ;;
    *) echo "unknown argument: $1" >&2; exit 2 ;;
  esac
  shift
done

mapfile -t workloads < <("$bin" --list)
case "$order" in
  fwd) ;;
  rev) for ((i = ${#workloads[@]} - 1; i >= 0; i--)); do rev+=("${workloads[i]}"); done
       workloads=("${rev[@]}") ;;
  *) echo "--order takes fwd or rev, not $order" >&2; exit 2 ;;
esac

status=0
for w in "${workloads[@]}"; do
  "$bin" --workload "$w" --seed "$seed" --trace "$trace" --out "$out" "${extra[@]}" \
    | grep -v '^{' || status=1
done
exit "$status"
