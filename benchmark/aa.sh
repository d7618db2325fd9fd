#!/usr/bin/env bash
# A/A check: run every workload's untraced pass twice on the same code,
# the second time in reverse order, and print for each (metric, workload)
# the relative difference beside its bound from BENCHMARK.json. Exits
# non-zero if any end-to-end metric disagrees by more than its bound.
#
#   benchmark/aa.sh [--seed N] [--seconds S]
set -euo pipefail
cd "$(dirname "$0")/.."
out="${CARGO_TARGET_DIR:-target/benchmark}"
mkdir -p "$out"

order="direct_study slice_512 served_open clustered_closed"
reversed="clustered_closed served_open slice_512 direct_study"
: > "$out/aa_first.txt"
: > "$out/aa_second.txt"
for w in $order; do
    benchmark/run.sh --workload "$w" --trace 0 "$@" | tail -n 1 | sed "s/^/$w /" >> "$out/aa_first.txt"
done
for w in $reversed; do
    benchmark/run.sh --workload "$w" --trace 0 "$@" | tail -n 1 | sed "s/^/$w /" >> "$out/aa_second.txt"
done

python3 - "$out/aa_first.txt" "$out/aa_second.txt" <<'PY'
import json, sys

spec = {m["name"]: m for m in json.load(open("BENCHMARK.json"))["end_to_end"]}

def load(path):
    runs = {}
    for line in open(path):
        workload, result = line.split(" ", 1)
        runs[workload] = json.loads(result)
    return runs

first, second = load(sys.argv[1]), load(sys.argv[2])
bad = 0
print(f"{'workload':18} {'metric':18} {'first':>14} {'second':>14} {'rel diff':>9} {'bound':>6}")
for workload, a in first.items():
    b = second[workload]
    if not (a["correct"] and b["correct"]):
        print(f"{workload}: a run was not correct")
        bad += 1
    for name, m in a["metrics"].items():
        x, y = m["value"], b["metrics"][name]["value"]
        diff = abs(y - x) / x
        over = diff > spec[name]["bound"]
        bad += over
        print(f"{workload:18} {name:18} {x:14.4f} {y:14.4f} {diff:9.4f} {spec[name]['bound']:6.2f}{'  OVER' if over else ''}")
sys.exit(1 if bad else 0)
PY
