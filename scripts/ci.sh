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

echo "==> preflight: this host runs the x86-64-v4 code .cargo/config.toml asks for"
# On x86_64 the committed rustflags build every binary for x86-64-v4
# (AVX-512), so a host without it would die of SIGILL mid-suite; fail
# up front instead. A tree switched to the v3 line skips the check.
if [ "$(uname -m)" = x86_64 ] \
  && grep -q '^rustflags.*target-cpu=x86-64-v4' .cargo/config.toml; then
  missing=""
  for flag in avx512f avx512bw avx512cd avx512dq avx512vl; do
    grep -qw "$flag" /proc/cpuinfo || missing="$missing $flag"
  done
  if [ -n "$missing" ]; then
    echo "ci.sh: this CPU lacks${missing}, which the x86-64-v4 target in" \
      ".cargo/config.toml needs; switch its rustflags to the documented" \
      "\"-C target-cpu=x86-64-v3\" fallback line" >&2
    exit 1
  fi
fi

echo "==> tier-1: cargo build --release"
cargo build --release

echo "==> static analysis: tradefl-lint --workspace (DESIGN.md §7)"
cargo build -p tradefl-lint --release -q
# The runtime budget times the analysis itself (the binary is already
# built above), keeping the gate cheap enough to run on every push. The
# exit code is the gate: 1 on any finding, each printed as
# `file:line: [rule] message`.
lint_start_ms=$(($(date +%s%N) / 1000000))
target/release/tradefl-lint --workspace
lint_elapsed_ms=$((($(date +%s%N) / 1000000) - lint_start_ms))
echo "  lint runtime: ${lint_elapsed_ms}ms (budget 5000ms, release)"
if [ "$lint_elapsed_ms" -ge 5000 ]; then
  echo "ci.sh: lint runtime budget exceeded (${lint_elapsed_ms}ms >= 5000ms)" >&2
  exit 1
fi

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

echo "==> release tests: fl-sim and the determinism suite on the benchmark's codegen"
# The dev-profile runs above do not vectorise the GEMM kernels, so the
# bit-identity of the SIMD loops (every path's FMA chain vs the naive
# references, the training goldens) is only checked on an optimised build here.
cargo test --release -q -p tradefl-fl-sim
cargo test --release -q --test determinism

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
# entries at once or binary-searches each transpose reads ~3, one that
# sorts all drawn pairs at once and re-sorts every row ~0.7-0.8, and
# the bucketed build that skips sorted rows and looks up one transpose
# per pair 0.49-0.58 against serial tuning (seeds 1 and 7, 2-core
# x86-64-v4 host). Tuning with its grid pass and golden-section pair
# solved on the pool shortens wall_s by about a third, so the same build
# reads 0.63-0.88 there (20 runs, same seeds and host), under a bound of
# 1.0. Best responses through one per-mover view (a copied tree path
# and shared per-d terms) then halved wall_s with the build unchanged,
# so every ratio rose: the bucketed build reads 1.14-1.57 at seed 1
# (22 runs) and 1.36-1.67 at seed 7 (6 runs), and the build that sorts
# all drawn pairs at once and re-sorts every row, on the same solver,
# 1.82-2.43 (22 runs) and 1.92-2.08 (6 runs; runs alternated, same
# host). The bound, 1.0 before, sat between the two ranges at 1.7.
# Summing each rho row once per market, not once per gamma candidate,
# then cut wall_s by about a third with the build unchanged: the
# bucketed build reads 1.82-2.33 at seed 1 and 1.80-2.32 at seed 7,
# and the sort-all build on the same solver 2.46-3.27 and 2.50-3.25
# (32 runs each, alternated, same host, no CPU steal; under ~20% steal
# the two ranges overlapped). The bound sits between them.
max_replication_overhead=10
max_setup_over_wall=2.4
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
# --check rejects any row the registry does not list and re-enforces
# the acceptance bounds recorded in the committed file: dbr_solve_n1000
# within 20x dbr_solve_n100, dbr_solve_n10000 within 25x
# dbr_solve_n1000 with its resident sparse-rho bytes under 100 MB, a
# gamma rebuild within 0.25x the n10000 solve, the blocked GEMM at
# least 3x naive on the eval shape, the narrow ReLU-sparse weight
# gradient at least 2x naive on the training shape, dW0 within 1.25x
# the same-work forward GEMM, the output layer's 32x32x10 forward GEMM
# within 1.25x the 32x36x32 one, and the ReLU-sparse 64x32x96 weight
# gradient within 1.25x its dense twin.
target/release/baseline --check BENCH_baselines.json

echo "==> bench-regression gate: smoke medians vs the committed file (3x tolerance)"
# The smoke keeps every instance size and repeat count, so the rows
# both files carry compare like-for-like.
target/release/baseline --gate target/BENCH_baselines.fast.json BENCH_baselines.json

echo "==> settlement smoke: every Engine::settle consumer outside the experiment bins runs clean"
# Each settles a solved game through Engine::settle (a one-validator
# engine session), reads the chain it mined, and exits non-zero when
# one of its own checks fails.
cargo build --release -q --example arbitration --example pharma_consortium
for consumer in examples/arbitration examples/pharma_consortium; do
  target/release/"$consumer" > /dev/null
  echo "  $consumer: ok"
done
target/release/tradefl settle --attested > /dev/null
echo "  tradefl settle --attested: ok"

echo "==> experiment smoke: every passing paper and extension binary"
# Each prints its figure's series and exits non-zero when one of its
# shape checks fails (~8 s in all on a 2-core host). fig03 and table1
# also settle on-chain. fig10, fig12, fig13, fig14, ext_async and
# ext_poa fail checks at seed 42 (EXPERIMENTS.md, ROADMAP "Known
# defects") and join this list once fixed.
experiments=(table1 table2 fig02 fig03 fig04 fig05 fig06 fig07 fig08 fig09 fig11 fig15
  ext_ablation ext_quality ext_tuning ext_shapley)
cargo build --release -q -p tradefl-bench $(printf -- '--bin %s ' "${experiments[@]}")
for exp in "${experiments[@]}"; do
  target/release/"$exp" > /dev/null
  echo "  $exp: ok"
done

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

echo "==> observability: end_to_end --trace emits a valid tradefl-trace/v1 stream, same results"
# Recording must not change the work (DESIGN.md §9): the traced run
# prints what the untraced one does, but for its `trace written to`
# line.
trace_file="$(mktemp -t tradefl-trace.XXXXXX.jsonl)"
trap 'rm -f "$trace_file"' EXIT
cargo build --release --example end_to_end
plain="$(target/release/examples/end_to_end)"
traced="$(target/release/examples/end_to_end --trace "$trace_file" | grep -v '^trace written to ')"
if ! diff <(echo "$plain") <(echo "$traced"); then
  echo "ci.sh: end_to_end prints differently with --trace" >&2
  exit 1
fi
cargo run -q --release -p tradefl-bench --bin trace_check -- "$trace_file"

echo "ci.sh: all gates passed"
