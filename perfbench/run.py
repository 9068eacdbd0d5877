#!/usr/bin/env python3
"""Build the benchmark from source and run one workload.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout.  The program and the benchmark are built
with dune into .bench_build/ (release profile, shared dune cache off, so
nothing is read or written outside the checkout), then
perfbench/rrbench.exe measures the workload.  Its standard output is
passed through: the last line is the JSON result.  The exit status is the
benchmark's: 0 when every output check passed, 1 when one failed, 2 on bad
usage or when the build fails (no result is printed then).
"""

import hashlib
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.getcwd()
BUILD_DIR = os.path.join(ROOT, ".bench_build")
EXE = os.path.join(BUILD_DIR, "dune", "default", "perfbench", "rrbench.exe")
RUN_TIMEOUT_S = 170


def build(env):
    cmd = [
        "dune", "build", "--root", ROOT, "--profile", "release",
        "--build-dir", os.path.join(BUILD_DIR, "dune"),
        "./perfbench/rrbench.exe",
    ]
    try:
        proc = subprocess.run(cmd, env=env, stdout=sys.stderr, stderr=sys.stderr,
                              timeout=840)
    except (OSError, subprocess.TimeoutExpired) as exc:
        print(f"run.py: build failed: {exc}", file=sys.stderr)
        return False
    if proc.returncode != 0 or not os.path.exists(EXE):
        print("run.py: build failed", file=sys.stderr)
        return False
    return True


def commit_id():
    """The git commit when there is one, else a digest of the sources."""
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True, timeout=10)
        if out.returncode == 0 and out.stdout.strip():
            return out.stdout.strip()
    except (OSError, subprocess.TimeoutExpired):
        pass
    h = hashlib.md5()
    for top in ("lib", "bin", "dune-project"):
        path = os.path.join(ROOT, top)
        files = [path] if os.path.isfile(path) else sorted(
            os.path.join(d, f) for d, _, fs in os.walk(path) for f in fs)
        for f in files:
            h.update(os.path.relpath(f, ROOT).encode())
            with open(f, "rb") as fh:
                h.update(fh.read())
    return "tree-" + h.hexdigest()


def main(argv):
    env = dict(os.environ, DUNE_CACHE="disabled")
    os.makedirs(BUILD_DIR, exist_ok=True)
    if not build(env):
        return 2
    os.makedirs(os.path.join(BUILD_DIR, "spans"), exist_ok=True)
    env["RRBENCH_NPROC"] = str(len(os.sched_getaffinity(0)))
    cmd = [EXE] + argv + [
        "--expected", os.path.join(HERE, "expected.txt"),
        "--spans-dir", os.path.join(BUILD_DIR, "spans"),
        "--commit", commit_id(),
    ]
    try:
        proc = subprocess.run(cmd, env=env, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print("run.py: benchmark timed out", file=sys.stderr)
        return 1
    return proc.returncode


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
