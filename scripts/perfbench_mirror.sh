#!/usr/bin/env bash
# Gate on perfbench's SARSA mirror: a short traced train-paper run must
# replay every catalog's `RlPlanner::learn` call for call ("replay
# matches the planner") and measure every declared per-layer metric (no
# `missing:` line). perfbench's own exit code does not fail on a
# missing metric, so the output is checked here. Structure only: no
# timing is gated. The perfbench build rewrites perfbench/Cargo.lock, so
# the committed lockfile is copied aside and restored on exit: the
# script leaves the tree as it found it.
# Usage: scripts/perfbench_mirror.sh
set -euo pipefail
cd "$(dirname "$0")/.."

out=$(mktemp)
lock=$(mktemp)
cp perfbench/Cargo.lock "$lock"
trap 'cp "$lock" perfbench/Cargo.lock; rm -f "$out" "$lock"' EXIT
python3 perfbench/run.py --workload train-paper --seed 0 --seconds 5 --trace 1 | tee "$out"
if grep -q 'DIFFERS from the planner' "$out"; then
  echo "perfbench mirror: the SARSA replay differs from the planner" >&2
  exit 1
fi
if grep -q '^missing:' "$out"; then
  echo "perfbench mirror: per-layer metrics missing:" >&2
  grep '^missing:' "$out" >&2
  exit 1
fi
echo "perfbench mirror: replay matches the planner, no metric missing"
