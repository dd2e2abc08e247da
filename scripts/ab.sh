#!/usr/bin/env bash
# Alternated parent/change A/B of one perfbench workload.
# Usage: scripts/ab.sh WORKLOAD PAIRS SECONDS SEEDBASE [PARENT_REV]
#   WORKLOAD    a perfbench workload (train-paper, serve-cold, ...)
#   PAIRS       number of parent/change pairs
#   SECONDS     run length of each side
#   SEEDBASE    pair i runs both sides with seed SEEDBASE + i
#   PARENT_REV  the baseline revision (default HEAD)
# The change is this working tree; the parent is PARENT_REV, exported
# with `git archive` into the gitignored .bench_build/ and built there.
# Each pair runs `perfbench/run.py --trace 0` on both sides, parent
# first in odd pairs and change first in even ones. Prints each
# end-to-end metric's parent and change medians, the change's median
# delta, the parent's IQR, the pairs the change won and the pairs that
# tied, then the failed-op counts. Raw results are kept in
# .bench_build/ab-<workload>-<time>/.
# A manual step for a quiet machine; scripts/check.sh does not run it.
set -euo pipefail
cd "$(dirname "$0")/.."

if [[ $# -lt 4 || $# -gt 5 ]]; then
  sed -n '3,8p' "$0" >&2
  exit 2
fi
workload=$1 pairs=$2 seconds=$3 seedbase=$4
rev=$(git rev-parse --verify "${5:-HEAD}^{commit}")
parent=.bench_build/parent-$rev
out=$PWD/.bench_build/ab-$workload-$(date +%Y%m%d-%H%M%S)
mkdir -p "$out"
if [[ ! -d $parent ]]; then
  mkdir -p "$parent.tmp"
  git archive "$rev" | tar -x -C "$parent.tmp"
  mv "$parent.tmp" "$parent"
fi

# perfbench builds rewrite the committed perfbench/Cargo.lock.
lock=$(mktemp)
cp perfbench/Cargo.lock "$lock"
trap 'cp "$lock" perfbench/Cargo.lock; rm -f "$lock"' EXIT

# side DIR NAME SEED: one run, its JSON result line appended to NAME.jsonl
# (a run whose checks fail still reports; one with no result stops here)
side() {
  local line
  line=$(cd "$1" && python3 perfbench/run.py --workload "$workload" \
    --seed "$3" --seconds "$seconds" --trace 0 2>>"$out/build.log" | tail -n 1) || true
  if [[ $line != "{"* ]]; then
    echo "ab: $2 run (seed $3) gave no result; see $out/build.log" >&2
    exit 1
  fi
  echo "$line" >>"$out/$2.jsonl"
  echo "  $2 seed $3: $line" | cut -c1-160
}
for ((i = 0; i < pairs; i++)); do
  seed=$((seedbase + i))
  echo "pair $((i + 1))/$pairs (seed $seed)"
  if ((i % 2 == 0)); then
    side "$parent" parent "$seed"
    side . change "$seed"
  else
    side . change "$seed"
    side "$parent" parent "$seed"
  fi
done

python3 - "$out" <<'PY'
import json, statistics, sys
out = sys.argv[1]
bench = json.load(open("BENCHMARK.json"))
runs = {s: [json.loads(l) for l in open(f"{out}/{s}.jsonl")] for s in ("parent", "change")}

def quartiles(xs):
    xs = sorted(xs)
    if len(xs) < 2:
        return xs[0], xs[0]
    q = statistics.quantiles(xs, n=4, method="inclusive")
    return q[0], q[2]

print(f"\n{'metric':<18}{'parent':>12}{'change':>12}{'delta':>9}{'parent IQR':>12}  won  tied")
for m in bench["end_to_end"]:
    name, higher = m["name"], m["better"] == "higher"
    pairs = [(p["metrics"][name]["value"], c["metrics"][name]["value"])
             for p, c in zip(runs["parent"], runs["change"])
             if name in p["metrics"] and name in c["metrics"]]
    if not pairs:
        print(f"{name:<18}  (not reported)")
        continue
    ps, cs = [p for p, _ in pairs], [c for _, c in pairs]
    pm, cm = statistics.median(ps), statistics.median(cs)
    lo, hi = quartiles(ps)
    won = sum((c > p) if higher else (c < p) for p, c in pairs)
    tied = sum(c == p for p, c in pairs)
    delta = f"{(cm - pm) / pm:+.1%}" if pm else "n/a"
    print(f"{name:<18}{pm:>12.6g}{cm:>12.6g}{delta:>9}{hi - lo:>12.4g}  {won}/{len(pairs)}  {tied}")
for s in ("parent", "change"):
    failed = [r["failed"] for r in runs[s]]
    wrong = sum(not r["correct"] for r in runs[s])
    print(f"{s}: failed ops per run {failed}, runs with failed checks {wrong}")
PY
