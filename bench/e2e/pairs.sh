#!/usr/bin/env bash
# Run N alternating parent/change pairs of the benchmark and compare them.
#
#   bench/e2e/pairs.sh PARENT_CHECKOUT CHANGE_CHECKOUT OUTDIR N [SECONDS] [WORKLOAD...]
#
# Builds ei_bench in both checkouts, then for seeds 1..N runs every
# workload once on each side, alternating which side goes first, and
# writes each run's output to OUTDIR/{parent,change}/<seed>.<workload>.
# Finally prints the compare table (bounds from the change's
# BENCHMARK.json).  SECONDS defaults to the run_seconds of that file.
set -euo pipefail

if [ $# -lt 4 ]; then
  sed -n '2,11p' "$0"
  exit 2
fi
parent=$(cd "$1" && pwd)
change=$(cd "$2" && pwd)
out=$3
n=$4
shift 4
secs=${1:-$(python3 -c 'import json,sys; print(json.load(open(sys.argv[1]))["run_seconds"])' "$change/BENCHMARK.json")}
[ $# -gt 0 ] && shift
workloads=("$@")
[ ${#workloads[@]} -eq 0 ] && workloads=(read-dram scan-cached churn-wal net-open)

mkdir -p "$out/parent" "$out/change"
out=$(cd "$out" && pwd)
for side in "$parent" "$change"; do
  (cd "$side" && dune build --root . bench/e2e/ei_bench.exe bench/e2e/compare.exe)
done

run() { # side-name checkout seed workload
  (cd "$2" && ./_build/default/bench/e2e/ei_bench.exe --workload "$4" --seed "$3" \
     --seconds "$secs" --trace 0) > "$out/$1/$(printf %03d "$3").$4"
}

for seed in $(seq 1 "$n"); do
  for w in "${workloads[@]}"; do
    if [ $((seed % 2)) -eq 1 ]; then
      run parent "$parent" "$seed" "$w"; run change "$change" "$seed" "$w"
    else
      run change "$change" "$seed" "$w"; run parent "$parent" "$seed" "$w"
    fi
  done
done

"$change/_build/default/bench/e2e/compare.exe" --bench "$change/BENCHMARK.json" \
  "$out/parent" "$out/change"
