#!/usr/bin/env bash
# Paired wfbench runs of two source checkouts, for a speed claim on a
# noisy host.
#
#   tools/pair_bench.sh DIR_A DIR_B WORKLOAD PAIRS SECONDS [SEED]
#
# Builds bench/wfbench/wfbench.exe in each checkout (DIR_A is the
# baseline, e.g. a parent commit extracted with `git archive`), then
# runs PAIRS pairs of untraced `wfbench --workload WORKLOAD --seed SEED
# --seconds SECONDS`, alternating which side runs first.  For each
# end-to-end metric it prints both sides' medians and quartiles, the
# relative change of the medians, and how many pairs B won (ties count
# for neither side), using each metric's direction from BENCHMARK.json.
# SEED defaults to 1.  Per-run results go to stderr as they come.
set -euo pipefail
if [ $# -lt 5 ] || [ $# -gt 6 ]; then
  echo "usage: $0 DIR_A DIR_B WORKLOAD PAIRS SECONDS [SEED]" >&2
  exit 2
fi
a="$(cd "$1" && pwd)" b="$(cd "$2" && pwd)"
workload=$3 pairs=$4 seconds=$5 seed=${6:-1}
here="$(cd "$(dirname "$0")/.." && pwd)"
for dir in "$a" "$b"; do
  dune build --root "$dir" ./bench/wfbench/wfbench.exe 1>&2
done
out="$(mktemp)"
trap 'rm -f "$out"' EXIT
run() {
  local side=$1 dir=$2 pair=$3 line
  line="$("$dir/_build/default/bench/wfbench/wfbench.exe" --workload "$workload" \
    --seed "$seed" --seconds "$seconds" --trace 0 | tail -n 1)"
  printf '%s %s %s\n' "$pair" "$side" "$line" >> "$out"
  printf 'pair %s %s %s\n' "$pair" "$side" "$line" >&2
}
for ((i = 1; i <= pairs; i++)); do
  if ((i % 2)); then run A "$a" "$i"; run B "$b" "$i"
  else run B "$b" "$i"; run A "$a" "$i"; fi
done
python3 - "$out" "$here/BENCHMARK.json" "$workload" "$seed" "$seconds" <<'EOF'
import json, statistics, sys

path, bench, workload, seed, seconds = sys.argv[1:]
better = {m["name"]: m["better"] for m in json.load(open(bench))["end_to_end"]}
runs = {}
for line in open(path):
    pair, side, doc = line.split(" ", 2)
    runs.setdefault(int(pair), {})[side] = json.loads(doc)["metrics"]

def quartiles(xs):
    xs = sorted(xs)
    if len(xs) < 2:
        return xs[0], xs[0], xs[0]
    q1, med, q3 = statistics.quantiles(xs, n=4, method="inclusive")
    return q1, med, q3

pairs = [runs[p] for p in sorted(runs) if set(runs[p]) == {"A", "B"}]
print(f"{workload}, seed {seed}, {len(pairs)} pairs of {seconds} s (A baseline, B change)")
print(f"  {'metric':<14} {'A median':>12} {'A q1..q3':>25} {'B median':>12} {'B q1..q3':>25} {'B-A':>8}  B won")
for name in better:
    xa = [p["A"][name]["value"] for p in pairs if name in p["A"]]
    xb = [p["B"][name]["value"] for p in pairs if name in p["B"]]
    if not xa or len(xa) != len(xb):
        continue
    sign = 1 if better[name] == "higher" else -1
    won = sum(1 for va, vb in zip(xa, xb) if sign * (vb - va) > 0)
    a1, am, a3 = quartiles(xa)
    b1, bm, b3 = quartiles(xb)
    rel = (bm - am) / am * 100 if am else float("nan")
    print(f"  {name:<14} {am:>12.6g} {a1:>12.6g}..{a3:<12.6g} {bm:>12.6g} "
          f"{b1:>12.6g}..{b3:<12.6g} {rel:>+7.1f}%  {won}/{len(xa)}")
EOF
