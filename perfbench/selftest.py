#!/usr/bin/env python3
"""Seeded-defect tests for the benchmark's own output checks.

    python3 perfbench/selftest.py

For each workload, one clean short run must pass, and each seeded defect
must make the run fail (exit status not 0, "correct": false, failed > 0):

  digest       the first measured pass's decision digest is corrupted
  leak         one wavelength is taken that no connection owns
  fingerprint  the input generator's output drifts (sparser wavelength sets)

Exit status 0 when every case behaves as expected, 1 otherwise.
"""

import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ["admit-rand200-w64", "serve-nsfnet-w64", "batch-nsfnet-w16"]
DEFECTS = ["digest", "leak", "fingerprint"]


def run(workload, trace, inject):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
           "--seed", "1", "--seconds", "1", "--trace", str(trace)]
    if inject:
        cmd += ["--inject", inject]
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=600)
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1]) if lines else None
    return proc.returncode, result


def main():
    bad = 0
    for workload in WORKLOADS:
        for trace in (0, 1):
            for inject in [None] + (DEFECTS if trace == 0 else ["digest"]):
                code, result = run(workload, trace, inject)
                if inject is None:
                    ok = code == 0 and result and result["correct"] \
                        and result["failed"] == 0
                else:
                    ok = code != 0 and result and not result["correct"] \
                        and result["failed"] > 0
                bad += not ok
                print(f"{'ok  ' if ok else 'FAIL'} {workload} trace={trace} "
                      f"defect={inject or 'none'} exit={code}")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
