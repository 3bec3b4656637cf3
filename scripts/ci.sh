#!/usr/bin/env bash
# Tier-1 gate for the TradeFL workspace.
#
# Must pass with the crates.io registry unreachable: the workspace is
# zero-dependency by policy (every dependency is a path dependency into
# crates/, enforced by tests/no_external_deps.rs). See DESIGN.md §6.
#
# Usage: scripts/ci.sh
set -euo pipefail
cd "$(dirname "$0")/.."

echo "==> tier-1: cargo build --release"
cargo build --release

echo "==> static analysis: tradefl-lint --workspace --json (DESIGN.md §7)"
cargo build -p tradefl-lint --release -q
lint_json="$(mktemp -t tradefl-lint.XXXXXX.json)"
# The runtime budget times the analysis itself (the binary is already
# built above), keeping the gate cheap enough to run on every push.
lint_start_ms=$(($(date +%s%N) / 1000000))
target/release/tradefl-lint --workspace --json > "$lint_json"
lint_elapsed_ms=$((($(date +%s%N) / 1000000) - lint_start_ms))
echo "  lint runtime: ${lint_elapsed_ms}ms (budget 5000ms, release)"
if [ "$lint_elapsed_ms" -ge 5000 ]; then
  echo "ci.sh: lint runtime budget exceeded (${lint_elapsed_ms}ms >= 5000ms)" >&2
  exit 1
fi
# The emitted report must satisfy the tradefl-lint/v2 schema contract
# (in-tree checker, no external tooling).
target/release/tradefl-lint --check-json "$lint_json"
rm -f "$lint_json"

echo "==> rustc warnings: none in any workspace target"
# Dead private code a refactor leaves behind (an unused helper, a field
# nothing reads) fails here instead of accumulating. The one tolerated
# warning is the `-prefer-256-bit` target-feature note that
# .cargo/config.toml documents; cargo's per-crate "generated N
# warnings" summaries only count the lines this gate already reads.
# The test and example steps below reuse this dev-profile build, and
# cargo replays cached warnings for units it does not recompile.
build_log="$(mktemp -t tradefl-build.XXXXXX.log)"
if ! cargo build --workspace --all-targets --message-format short 2> "$build_log"; then
  cat "$build_log" >&2
  exit 1
fi
warnings="$(grep -E 'warning:' "$build_log" \
  | grep -vE '`-Ctarget-feature`: `prefer-256-bit`|^warning: `[^`]+` \(.+\) generated [0-9]+ warnings?' \
  || true)"
rm -f "$build_log"
if [ -n "$warnings" ]; then
  echo "ci.sh: rustc warnings in the workspace:" >&2
  echo "$warnings" >&2
  exit 1
fi

echo "==> tier-1: cargo test -q"
cargo test -q

echo "==> workspace tests (all crates, property suites included)"
cargo test -q --workspace

echo "==> rustdoc: no broken or private intra-doc links"
# A doc link to a deleted or private item fails here instead of
# rotting into a dead reference in the rendered docs.
RUSTDOCFLAGS="-D rustdoc::broken_intra_doc_links -D rustdoc::private_intra_doc_links" \
  cargo doc --workspace --no-deps --offline

echo "==> examples build"
cargo build --examples

echo "==> benchmark build: tradebench compiles against the workspace crates"
# tradebench is its own workspace (path deps into crates/), so the
# workspace build above never compiles it; an engine or ledger API
# change that breaks it must fail here.
cargo build --release --offline --manifest-path tradebench/Cargo.toml

echo "==> benchmark self-tests: tradebench's unit tests (metric registry vs BENCHMARK.json)"
cargo test --release --offline --manifest-path tradebench/Cargo.toml

echo "==> benchmark cycle: one tradebench cycle per workload is correct"
# tradebench does not set its exit code from `correct`, so this step
# reads the JSON result line it prints last. sessions_faulty runs
# traced, so its engine.replication_overhead (engine time over one
# node's replay of the same chain, both timed in one process, so host
# speed largely cancels) can be gated: a per-batch scan of chain
# history pushes it past the bound. tune_n10000's setup_s (building the
# sparse 10,000-org market) is gated against its wall_s (the tuning on
# it), both timed in one process: a build that sorts all stored
# entries at once or binary-searches each transpose reads ~3, the
# linear-pass build ~0.7.
max_replication_overhead=10
max_setup_over_wall=1.5
for w in pipeline_n64 sessions_faulty tune_n10000; do
  trace=0
  [ "$w" = sessions_faulty ] && trace=1
  result="$(cargo run --quiet --release --offline --manifest-path tradebench/Cargo.toml -- \
    --workload "$w" --seed 1 --seconds 0 --trace "$trace" | tail -n 1)"
  if ! grep -q '"correct": true' <<<"$result" || ! grep -q '"failed": 0,' <<<"$result"; then
    echo "ci.sh: tradebench $w cycle failed: $result" >&2
    exit 1
  fi
  echo "  $w: correct, 0 failed"
  if [ "$trace" = 1 ]; then
    overhead="$(grep -o '"engine.replication_overhead": {"value": [^,}]*' <<<"$result" \
      | sed 's/.*"value": //')"
    if [ -z "$overhead" ] \
      || ! awk -v x="$overhead" -v max="$max_replication_overhead" 'BEGIN { exit !(x <= max) }'; then
      echo "ci.sh: $w engine.replication_overhead ${overhead:-missing} exceeds $max_replication_overhead" >&2
      exit 1
    fi
    echo "  $w: engine.replication_overhead $overhead (bound $max_replication_overhead)"
  fi
  if [ "$w" = tune_n10000 ]; then
    setup="$(grep -o '"setup_s": {"value": [^,}]*' <<<"$result" | sed 's/.*"value": //')"
    wall="$(grep -o '"wall_s": {"value": [^,}]*' <<<"$result" | sed 's/.*"value": //')"
    if [ -z "$setup" ] || [ -z "$wall" ] \
      || ! awk -v s="$setup" -v w="$wall" -v max="$max_setup_over_wall" 'BEGIN { exit !(s <= max * w) }'; then
      echo "ci.sh: $w setup_s ${setup:-missing} exceeds $max_setup_over_wall x wall_s ${wall:-missing}" >&2
      exit 1
    fi
    echo "  $w: setup_s $setup, wall_s $wall (bound setup_s <= $max_setup_over_wall x wall_s)"
  fi
done

echo "==> perf smoke: scripts/bench.sh --fast (every row but the N >= 1000 ones)"
scripts/bench.sh --fast

echo "==> committed BENCH_baselines.json is well-formed and meets its bounds"
# --check re-enforces the acceptance bounds recorded in the committed
# file: dbr_solve_n1000 within 20x dbr_solve_n100, dbr_solve_n10000
# within 25x dbr_solve_n1000 with its resident sparse-rho bytes under
# 100 MB, the sparse-vs-dense agreement row bit-identical, and the
# blocked GEMM at least 3x naive on the eval shape.
target/release/baseline --check BENCH_baselines.json

echo "==> bench-regression gate: smoke medians vs the committed file (3x tolerance)"
# The smoke keeps every instance size and repeat count, so the rows
# both files carry compare like-for-like.
target/release/baseline --gate target/BENCH_baselines.fast.json BENCH_baselines.json

echo "==> DST smoke: market_daemon under three seeded fault schedules"
# Each run injects dropped/duplicated/delayed/corrupted gossip plus
# kill-and-restart from the seed's schedule — and, with --byzantine,
# proposers that tamper with their own blocks in flight. Exits non-zero
# unless every surviving validator converges to bit-identical state and
# every session settles (the full 100-seed adversarial sweep lives in
# crates/engine/tests/sim_engine.rs).
cargo build --release -q --example market_daemon
for dst_seed in 7 19 83; do
  target/release/examples/market_daemon --seed "$dst_seed" --faults > /dev/null
  echo "  seed $dst_seed: converged"
done
for dst_seed in 7 19 83; do
  target/release/examples/market_daemon --seed "$dst_seed" --faults --byzantine > /dev/null
  echo "  seed $dst_seed (byzantine): converged"
done

echo "==> DST shrinker smoke: a known-bad schedule minimizes strictly"
# Seed 7's drawn schedule forces ledger repairs; the structural
# shrinker must cut the failing draw tape strictly smaller and print
# the minimal fault + crash + Byzantine schedule (exit 1 otherwise).
target/release/examples/market_daemon --shrink-demo 7 | sed 's/^/  /'

echo "==> observability: end_to_end --trace emits a valid tradefl-trace/v1 stream"
trace_file="$(mktemp -t tradefl-trace.XXXXXX.jsonl)"
trap 'rm -f "$trace_file"' EXIT
cargo build --release --example end_to_end
target/release/examples/end_to_end --trace "$trace_file" > /dev/null
cargo run -q --release -p tradefl-bench --bin trace_check -- "$trace_file"

echo "ci.sh: all gates passed"
