#!/usr/bin/env bash
# Full gate: CI runs exactly this script, so a local run checks the
# same commands with the same arguments, in the same order.
# Usage: scripts/check.sh [--quick]
#   --quick  stop after the tests (skips the release build, the
#            perfbench mirror and the load storms)
# The BENCH_*.json reports and flight-recorder dumps go to the
# gitignored reports/ directory, so a run never overwrites the
# committed BENCH_load.json snapshot; CI uploads them from there.
set -euo pipefail
cd "$(dirname "$0")/.."

quick=0
[[ "${1:-}" == "--quick" ]] && quick=1
out=reports
mkdir -p "$out"

run() {
  echo "==> $*"
  "$@"
}

run cargo fmt --all --check
run cargo clippy --workspace --all-targets -- -D warnings
# Every test in the workspace: unit, integration, property and fuzz
# suites, the golden equivalence suite against the test-only naive
# oracle, the city-10k sparse Q-table ceiling, the store fault sweeps,
# the serve chaos/cache/framing/TCP/tracing/self-healing suites (cached
# answers bit-identical to cold ones among them), and the real-binary
# daemon and load-harness smokes.
run cargo test --workspace --no-fail-fast
if [[ $quick -eq 1 ]]; then
  echo "Quick checks passed."
  exit 0
fi
run cargo build --release -p rl-planner-cli
# perfbench's SARSA mirror must replay the planner call for call and
# measure every per-layer metric (structure only, no timings).
run scripts/perfbench_mirror.sh
# Open-loop TCP load smoke: mixed hot/cold/malformed/slow-client storm
# under chaos. Exits 1 on any connection closed without a terminal
# response, or on a daemon not accepting after the storm.
run ./target/release/rl-planner bench --load --rate 300 --duration-s 3 \
  --episodes 60 --deadline-ms 250 --workers 4 --capacity 128 \
  --chaos 'panic@20,stall@40:100,flaky@60,panic@80,stall@120:100' \
  --seed 7 -q --out "$out/BENCH_load.json"
# Hot-heavy batching storm, run unbatched then batched: must form real
# batches and amortize policy resolutions, or exit 1; the report carries
# before/after p99 under a `batching` object.
run ./target/release/rl-planner bench --load --rate 600 --duration-s 2 \
  --episodes 400 --deadline-ms 500 --workers 2 --capacity 128 \
  --profile hot-heavy --seed 7 -q \
  --require-batching --compare-batching \
  --out "$out/BENCH_batching.json"
# Worker-killing storm: must report >=1 supervisor respawn and a
# breaker that tripped open and closed again, or exit 1. Worker deaths
# leave flight-recorder post-mortems in $out/flight-dumps.
run ./target/release/rl-planner bench --load --rate 120 --duration-s 3 \
  --episodes 20 --deadline-ms 150 --workers 4 --capacity 128 \
  --chaos 'kill@10,kill@40,wedge@25:300,flaky@70:40' \
  --profile 'hot=30,cold=10,recommend=40,malformed=10,slow=10' \
  --require-restarts --require-breaker-recovered --seed 11 -q \
  --flight-dir "$out/flight-dumps" \
  --out "$out/BENCH_selfheal.json"
echo "All checks passed (reports in $out)."
