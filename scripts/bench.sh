#!/usr/bin/env bash
# Records the layer baselines (BENCH_baselines.json, schema
# tradefl-bench/v2) with the one `baseline` binary: GEMM kernels,
# solvers, FedAvg and the market engine, every pool-gated row timed
# serially and at 1 and 2 workers. The binary re-validates what it
# wrote with its own --check and exits non-zero on a malformed file
# or, in full mode, a broken acceptance bound.
#
# Full mode writes the committed file at the repo root; --fast skips
# the N >= 1000 rows and writes under target/ so CI never clobbers the
# recorded file.
#
# Usage: scripts/bench.sh [--fast]
set -euo pipefail
cd "$(dirname "$0")/.."

case "${1:-}" in
  "") args=(--out BENCH_baselines.json) ;;
  --fast) args=(--fast --out target/BENCH_baselines.fast.json) ;;
  *) echo "bench.sh: unknown argument '$1'" >&2; exit 2 ;;
esac

cargo build --release -q -p tradefl-bench --bin baseline
target/release/baseline "${args[@]}"
