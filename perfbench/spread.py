#!/usr/bin/env python3
"""Run-to-run spread of the end-to-end metrics.

    python3 perfbench/spread.py [--runs 10] [--first-seed 1]
        [--workloads a,b] [--out FILE] [--compare FILE]

Runs each workload --runs times, each with another seed, through run.py
with BENCHMARK.json's run_seconds, and prints for every end-to-end metric
the median and the quartile spread (Q3 - Q1, from
statistics.quantiles(n=4)) as a share of the median, next to the metric's
bound.  --out saves the values; --compare reads an earlier --out file and
reports, per metric, how far this median moved from that one, in the
metric's worse direction.  Exit status 1 when a spread (setup_s excepted)
or a median move exceeds its bound, or a run fails.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--workloads")
    ap.add_argument("--out")
    ap.add_argument("--compare")
    args = ap.parse_args()
    with open("BENCHMARK.json") as fh:
        bench = json.load(fh)
    metrics = {m["name"]: m for m in bench["end_to_end"]}
    workloads = (args.workloads.split(",") if args.workloads
                 else [w["name"] for w in bench["workloads"]])
    earlier = json.load(open(args.compare)) if args.compare else {}
    values = {}
    bad = 0
    for w in workloads:
        rows = []
        for k in range(args.runs):
            seed = args.first_seed + k
            proc = subprocess.run(
                [sys.executable, os.path.join(HERE, "run.py"), "--workload", w,
                 "--seed", str(seed), "--seconds", str(bench["run_seconds"]),
                 "--trace", "0"], capture_output=True, text=True)
            lines = proc.stdout.strip().splitlines()
            result = json.loads(lines[-1]) if lines else None
            if proc.returncode != 0 or not result or not result["correct"]:
                print(f"{w} seed {seed}: run failed (exit {proc.returncode})")
                bad += 1
            if result:
                rows.append(result["metrics"])
        values[w] = {m: [r[m]["value"] for r in rows] for m in metrics}
        for m, spec in metrics.items():
            vals = values[w][m]
            med = statistics.median(vals)
            q = statistics.quantiles(vals, n=4)
            spread = (q[2] - q[0]) / med
            line = (f"{w:20s} {m:22s} median {med:12.4f} spread {spread:6.3f} "
                    f"bound {spec['bound']:.2f}")
            if m != "setup_s" and spread > spec["bound"]:
                line += "  SPREAD OVER BOUND"
                bad += 1
            elif spread > spec["bound"] / 3:
                line += "  (above a third of the bound)"
            if w in earlier:
                before = statistics.median(earlier[w][m])
                worse = (med - before) / before
                if spec["better"] == "higher":
                    worse = -worse
                line += f"  moved {worse:+.3f}"
                if worse > spec["bound"]:
                    line += "  MEDIAN OVER BOUND"
                    bad += 1
            print(line, flush=True)
    if args.out:
        with open(args.out, "w") as fh:
            json.dump(values, fh)
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
