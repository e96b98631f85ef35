"""Compare two result sets of the dualpairs benchmark.

    python3 perfbench/compare.py BASE CHANGE

BASE and CHANGE are each a file or a directory of files holding the captured
standard output of untraced runs (run.py --trace 0); a file may hold several
runs.  For every workload and end-to-end metric it prints each side's median
and quartiles, the spread (quartile distance over median) and a verdict,
using the bounds in BENCHMARK.json:

  regression  CHANGE's median is worse than BASE's by more than the bound
  unresolved  a side's spread exceeds the bound, unless every CHANGE run is
              better than every BASE run
  gain        CHANGE wins at least nine in ten pairs and the medians differ
              by more than BASE's quartile distance
  same        none of the above

Runs pair up by workload and seed.  Two runs of one workload and seed whose
output digests differ are reported as a failure, within a side or across.
Exit status 1 when any regression, unresolved metric or digest mismatch
is found.
"""

from __future__ import annotations

import json
import statistics
import sys
from collections import defaultdict
from pathlib import Path

BENCHMARK = Path(__file__).resolve().parent.parent / "BENCHMARK.json"


def load_runs(path: Path) -> list:
    """(record, result) for every run in a file or a directory of files."""
    files = sorted(p for p in path.rglob("*") if p.is_file()) \
        if path.is_dir() else [path]
    runs = []
    for f in files:
        record = None
        for line in f.read_text().splitlines():
            if line.startswith("record "):
                record = json.loads(line[len("record "):])
            elif line.startswith("{") and record is not None:
                result = json.loads(line)
                if record["trace"] == 0:
                    runs.append((record, result))
                record = None
    return runs


def quartiles(values) -> tuple:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def spread(values) -> float:
    q1, q2, q3 = quartiles(values)
    return (q3 - q1) / q2 if q2 else 0.0


def verdict(base, change, better: str, bound: float, pairs) -> str:
    sign = 1 if better == "higher" else -1
    b1, bm, b3 = quartiles(base)
    cm = quartiles(change)[1]
    every_run_better = all(sign * (c - b) > 0 for b in base for c in change)
    if max(spread(base), spread(change)) > bound and not every_run_better:
        return "unresolved"
    if sign * (cm - bm) < -bound * abs(bm):
        return "regression"
    wins = sum(1 for b, c in pairs if sign * (c - b) > 0)
    if pairs and wins >= 0.9 * len(pairs) and abs(cm - bm) > b3 - b1:
        return "gain"
    return "same"


def digest_mismatches(runs_a, runs_b) -> list:
    seen = defaultdict(set)
    for rec, _ in runs_a + runs_b:
        seen[(rec["workload"], rec["seed"])].add(rec["digest"])
    return sorted(k for k, v in seen.items() if len(v) > 1)


def compare(runs_a, runs_b, spec) -> int:
    bad = 0
    workloads = sorted({r["workload"] for r, _ in runs_a + runs_b})
    print(f"{'workload':14} {'metric':12} {'base median [q1, q3]':>34} "
          f"{'change median [q1, q3]':>34} {'change':>8} {'spread':>13} "
          f"{'bound':>5}  verdict")
    for wl in workloads:
        a = [(r["seed"], res) for r, res in runs_a if r["workload"] == wl]
        b = [(r["seed"], res) for r, res in runs_b if r["workload"] == wl]
        for m in spec["end_to_end"]:
            name = m["name"]
            va = [res["metrics"][name]["value"] for _, res in a]
            vb = [res["metrics"][name]["value"] for _, res in b]
            if not va or not vb:
                print(f"{wl:14} {name:12} missing runs")
                bad += 1
                continue
            pairs = [(ra["metrics"][name]["value"], rb["metrics"][name]["value"])
                     for sa, ra in a for sb, rb in b if sa == sb]
            v = verdict(va, vb, m["better"], m["bound"], pairs)
            bad += v in ("regression", "unresolved")
            qa, qb = quartiles(va), quartiles(vb)
            change = (qb[1] - qa[1]) / qa[1] if qa[1] else 0.0
            print(f"{wl:14} {name:12} "
                  f"{qa[1]:10.4g} [{qa[0]:9.4g}, {qa[2]:9.4g}] "
                  f"{qb[1]:10.4g} [{qb[0]:9.4g}, {qb[2]:9.4g}] "
                  f"{change:+8.1%} {spread(va):6.1%}/{spread(vb):6.1%} "
                  f"{m['bound']:5.2f}  {v} (n={len(va)}/{len(vb)}, "
                  f"{len(pairs)} pairs)")
        fa, fb = ([res["failed"] / res["attempted"] for _, res in side]
                  for side in (a, b))
        if fa and fb:
            print(f"{wl:14} failed_frac  base {statistics.median(fa):.4f}  "
                  f"change {statistics.median(fb):.4f}")
    for wl, seed in digest_mismatches(runs_a, runs_b):
        print(f"OUTPUT DIFFERS: {wl} seed {seed} has more than one digest")
        bad += 1
    return 1 if bad else 0


def main(argv) -> int:
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    spec = json.loads(BENCHMARK.read_text())
    return compare(load_runs(Path(argv[0])), load_runs(Path(argv[1])), spec)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
