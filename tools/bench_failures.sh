#!/usr/bin/env bash
# Failure ledger for a directory of benchmark pair runs.
#
#   tools/bench_failures.sh OUTDIR
#
# OUTDIR is what bench/e2e/pairs.sh wrote: OUTDIR/{parent,change}/<seed>.<workload>,
# each file ending in the run's summary line
#   {"correct":...,"attempted":N,"failed":M,"metrics":{...}}
# For each side and workload this prints the number of runs, the runs
# whose summary says "correct": false (a file without a readable summary
# counts as one), and the attempted and failed operations with the
# failed share.  Exits 1 when the change side has an incorrect run, or a
# larger failed share than the parent on some workload; 2 on bad usage.
set -euo pipefail

if [ $# -ne 1 ] || [ ! -d "$1/parent" ] || [ ! -d "$1/change" ]; then
  sed -n '2,13p' "$0"
  exit 2
fi

exec python3 - "$1" <<'EOF'
import json, os, sys

out = sys.argv[1]

def ledger(side):
    rows = {}
    d = os.path.join(out, side)
    for name in sorted(os.listdir(d)):
        if "." not in name:
            continue
        workload = name.split(".", 1)[1]
        r = rows.setdefault(workload, {"runs": 0, "incorrect": 0, "attempted": 0,
                                       "failed": 0, "failed_runs": []})
        r["runs"] += 1
        summary = None
        with open(os.path.join(d, name)) as f:
            lines = [l for l in f.read().splitlines() if l.strip()]
        if lines:
            try:
                summary = json.loads(lines[-1])
            except ValueError:
                summary = None
        if not isinstance(summary, dict) or "correct" not in summary:
            r["incorrect"] += 1
            r["failed_runs"].append(name + " (no summary)")
            continue
        if summary["correct"] is not True:
            r["incorrect"] += 1
        r["attempted"] += int(summary.get("attempted", 0))
        failed = int(summary.get("failed", 0))
        r["failed"] += failed
        if failed > 0 or summary["correct"] is not True:
            r["failed_runs"].append("%s: failed %d%s" % (
                name, failed, "" if summary["correct"] is True else ", correct false"))
    return rows

def share(r):
    return r["failed"] / r["attempted"] if r["attempted"] > 0 else 0.0

sides = {s: ledger(s) for s in ("parent", "change")}
print("%-7s %-12s %5s %10s %12s %9s %13s" %
      ("side", "workload", "runs", "incorrect", "attempted", "failed", "failed_share"))
workloads = sorted(set(sides["parent"]) | set(sides["change"]))
for w in workloads:
    for s in ("parent", "change"):
        r = sides[s].get(w)
        if r is None:
            continue
        print("%-7s %-12s %5d %10d %12d %9d %13.7f" %
              (s, w, r["runs"], r["incorrect"], r["attempted"], r["failed"], share(r)))
print()
for w in workloads:
    for s in ("parent", "change"):
        for line in sides[s].get(w, {"failed_runs": []})["failed_runs"]:
            print("%s/%s" % (s, line))

bad = []
for w in workloads:
    c = sides["change"].get(w)
    p = sides["parent"].get(w)
    if c is None:
        continue
    if c["incorrect"] > 0:
        bad.append("%s: %d change run(s) not correct" % (w, c["incorrect"]))
    if share(c) > (share(p) if p else 0.0):
        bad.append("%s: change failed share %.7f > parent %.7f" %
                   (w, share(c), share(p) if p else 0.0))
for b in bad:
    print("FAIL " + b)
print("ledger: " + ("FAIL" if bad else "ok"))
sys.exit(1 if bad else 0)
EOF
