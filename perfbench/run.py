"""Run one dualpairs benchmark workload and print its metrics.

    python3 perfbench/run.py --workload lift-sweep --seed 0 --seconds 25 --trace 0

--workload all runs every workload, each in a fresh interpreter, one after
the other.  With --trace 0 the run is untraced and reports the end-to-end metrics; with
--trace 1 it runs one pass untraced, one with spans and one under cProfile,
and reports the per-layer metrics.  Spans go to perfbench/out/.  The last
line of output is one JSON object: correct, attempted, failed, metrics.
The line before it, starting with "record ", carries what compare.py needs.
End-to-end timings are scaled to the machine's reference speed
(harness.at_reference_speed); the "as measured" line gives them unscaled.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

import harness
from workloads import WORKLOADS

OUT_DIR = Path(__file__).resolve().parent / "out"


def run_all(args) -> int:
    """Run each workload in its own interpreter; nonzero if any run failed."""
    status = 0
    for name in WORKLOADS:
        proc = subprocess.run(
            [sys.executable, __file__, "--workload", name, "--seed",
             str(args.seed), "--seconds", str(args.seconds), "--trace",
             str(args.trace)], check=False)
        status = status or proc.returncode
    return status


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True,
                    choices=sorted(WORKLOADS) + ["all"])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = ap.parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    wl = WORKLOADS[args.workload]

    if args.trace:
        t = harness.trace(wl, args.seed, OUT_DIR)
        metrics = harness.layer_metrics(t)
        statuses, attempted = t["statuses"], t["attempted"]
        extra = {}
    else:
        m = harness.measure(wl, args.seed, args.seconds)
        metrics = harness.end_to_end_metrics(m)
        statuses, attempted = m["statuses"], m["attempted"]
        n = m["pass_items"]
        tail = harness.tail_percentile(n)
        if tail is None or tail < 90:
            raise SystemExit(f"only {n} items: too few for a p90")
        extra = {"passes": m["passes"], "wall_s": m["wall_s"],
                 "as_measured": {k: v for k, (v, _) in
                                 harness.latency_metrics(m["wall"]).items()},
                 "setups": m["setups"], "pass_failed": m["pass_failed"],
                 "tail": tail}
        t = m
    failed = sum(statuses[s] for s in harness.FAILED)
    correct = statuses["wrong"] == 0 and statuses["differs"] == 0

    print(f"{wl.name} seed={args.seed} trace={args.trace}: {attempted} items "
          f"({dict(statuses)}), {t['pass_items']} per pass")
    if not args.trace:
        print(f"  {extra['passes']} passes in {extra['wall_s']:.2f} s; "
              f"{extra['pass_failed']}/{t['pass_items']} failed in the first; "
              f"p{tail:g} is the highest percentile with ten of "
              f"{n} items beyond it")
        print("  as measured, not scaled to reference speed: " + ", ".join(
            f"{k} {v:.6g}" for k, v in extra["as_measured"].items()))
    print(f"  failed_frac {failed / attempted:.4f} ({failed}/{attempted})")
    for name, (value, unit) in metrics.items():
        print(f"  {name} {value:.6g} {unit}")
    print(f"  digest {t['digest']}")
    for line in t["first_failures"]:
        print(f"  first failure: {line}")
    record = {"workload": wl.name, "seed": args.seed, "trace": args.trace,
              "digest": t["digest"], "failed_frac": failed / attempted,
              **extra}
    print("record " + json.dumps(record))
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed,
                      "metrics": {k: {"value": v, "unit": u}
                                  for k, (v, u) in metrics.items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
