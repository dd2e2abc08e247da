#!/usr/bin/env bash
# Full local gate: everything CI runs, in the same order.
# Usage: scripts/check.sh [--quick]   (--quick skips the release build)
set -euo pipefail
cd "$(dirname "$0")/.."

quick=0
[[ "${1:-}" == "--quick" ]] && quick=1

run() {
  echo "==> $*"
  "$@"
}

run cargo fmt --all --check
run cargo clippy --workspace --all-targets -- -D warnings
# Every test in the workspace: unit, integration, property, fuzz, the
# golden equivalence suite, and the serve and daemon smoke suites.
run cargo test --workspace --no-fail-fast
if [[ $quick -eq 0 ]]; then
  run cargo build --release -p rl-planner-cli
  # perfbench's SARSA mirror must replay the planner call for call and
  # measure every per-layer metric (structure only, no timings).
  run scripts/perfbench_mirror.sh
  run ./target/release/rl-planner bench --load --rate 200 --duration-s 2 \
    --episodes 40 --deadline-ms 250 --workers 4 --capacity 128 \
    --chaos 'panic@10,stall@25:100,flaky@40' --seed 7 -q \
    --out /tmp/BENCH_load_check.json
  # Worker-killing storm: must report >=1 supervisor respawn and a
  # breaker that tripped open and closed again, or exit 1.
  run ./target/release/rl-planner bench --load --rate 120 --duration-s 3 \
    --episodes 20 --deadline-ms 150 --workers 4 --capacity 128 \
    --chaos 'kill@10,kill@40,wedge@25:300,flaky@70:40' \
    --profile 'hot=30,cold=10,recommend=40,malformed=10,slow=10' \
    --require-restarts --require-breaker-recovered --seed 11 -q \
    --flight-dir /tmp/tpp-flight-check \
    --out /tmp/BENCH_selfheal_check.json
  # Hot-heavy batching storm, run unbatched then batched: must form
  # real batches and amortize policy resolutions, or exit 1; the
  # report carries before/after p99 under a `batching` object.
  run ./target/release/rl-planner bench --load --rate 600 --duration-s 2 \
    --episodes 400 --deadline-ms 500 --workers 2 --capacity 128 \
    --profile hot-heavy --seed 7 -q \
    --require-batching --compare-batching \
    --out /tmp/BENCH_batching_check.json
fi
echo "All checks passed."
