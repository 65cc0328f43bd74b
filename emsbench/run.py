#!/usr/bin/env python3
"""Runs one EMSentry benchmark workload.

    python3 emsbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Builds emsbench (emsbench/CMakeLists.txt, Release, into .bench_build/ at the
root of the source tree) if it is missing or stale, runs one workload, and
prints the run's readable figures followed, as the last line, by one JSON
object {"correct", "attempted", "failed", "metrics"}. With --trace 0 the
metrics are the end_to_end metrics of BENCHMARK.json, with --trace 1 its
per_layer metrics (a layer a workload does not touch reads 0). Spans of a
traced run are written under .bench_build/out/.

Exit status: 0 when every output checked correct; 1 when a correctness check
failed (the result line is still printed, with "correct": false); 2 when the
benchmark could not build or run (no result line).
"""

import argparse
import fcntl
import hashlib
import json
import os
import shutil
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_ROOT = os.path.join(ROOT, ".bench_build")
BUILD_DIR = os.path.join(BUILD_ROOT, "emsbench")
OUT_DIR = os.path.join(BUILD_ROOT, "out")
BINARY = os.path.join(BUILD_DIR, "emsbench")
BUILD_TIMEOUT_S = 840
RUN_TIMEOUT_S = 170
BUILD_JOBS = "4"


def fail(message):
    print("emsbench: " + message, file=sys.stderr)
    sys.exit(2)


def run_logged(cmd, timeout):
    """Runs a build step with its output on stderr; fails on error."""
    try:
        done = subprocess.run(cmd, cwd=ROOT, stdout=sys.stderr, stderr=sys.stderr,
                              timeout=timeout, check=False)
    except subprocess.TimeoutExpired:
        fail("timed out: " + " ".join(cmd))
    if done.returncode != 0:
        fail("failed (%d): %s" % (done.returncode, " ".join(cmd)))


def build():
    """Configures once and builds; cmake --build is a no-op when up to date.
    A lock keeps concurrent runs in one checkout from building at once."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("no EMSentry source tree next to " + HERE)
    if shutil.which("cmake") is None:
        fail("cmake not found")
    os.makedirs(BUILD_ROOT, exist_ok=True)
    deadline = time.monotonic() + BUILD_TIMEOUT_S
    with open(os.path.join(BUILD_ROOT, "build.lock"), "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        if not os.path.isfile(os.path.join(BUILD_DIR, "CMakeCache.txt")):
            generator = ["-G", "Ninja"] if shutil.which("ninja") else []
            run_logged(["cmake", "-S", HERE, "-B", BUILD_DIR, "-DCMAKE_BUILD_TYPE=Release"]
                       + generator, max(1, deadline - time.monotonic()))
        run_logged(["cmake", "--build", BUILD_DIR, "--target", "emsbench", "-j", BUILD_JOBS],
                   max(1, deadline - time.monotonic()))
    if not os.access(BINARY, os.X_OK):
        fail("build produced no executable at " + BINARY)


def source_revision():
    """git revision when the tree is a git checkout, else 'none'; plus a
    digest of the library sources, which identifies the code either way."""
    rev = "none"
    if os.path.isdir(os.path.join(ROOT, ".git")) and shutil.which("git"):
        done = subprocess.run(["git", "rev-parse", "--short=12", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True, check=False)
        if done.returncode == 0:
            rev = done.stdout.strip()
    digest = hashlib.sha256()
    for base, dirs, files in os.walk(os.path.join(ROOT, "src")):
        dirs.sort()
        for name in sorted(files):
            path = os.path.join(base, name)
            digest.update(os.path.relpath(path, ROOT).encode())
            with open(path, "rb") as f:
                digest.update(f.read())
    return "%s+src.%s" % (rev, digest.hexdigest()[:12])


def load_spec():
    path = os.path.join(ROOT, "BENCHMARK.json")
    try:
        with open(path) as f:
            spec = json.load(f)
    except (OSError, ValueError) as e:
        fail("cannot read %s: %s" % (path, e))
    return spec


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    spec = load_spec()
    if args.workload not in [w["name"] for w in spec["workloads"]]:
        fail("unknown workload " + args.workload)
    wanted = spec["per_layer" if args.trace else "end_to_end"]

    build()
    os.makedirs(OUT_DIR, exist_ok=True)
    cmd = [BINARY, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", str(args.trace),
           "--out-dir", OUT_DIR, "--git-rev", source_revision()]
    try:
        done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                              timeout=RUN_TIMEOUT_S, check=False)
    except subprocess.TimeoutExpired:
        fail("workload %s did not finish within %d s" % (args.workload, RUN_TIMEOUT_S))
    sys.stderr.write(done.stderr)
    lines = done.stdout.splitlines()
    if done.returncode not in (0, 1) or not lines:
        sys.stdout.write(done.stdout)
        fail("workload %s exited with %d" % (args.workload, done.returncode))
    try:
        raw = json.loads(lines[-1])
    except ValueError:
        fail("workload %s printed no result line" % args.workload)

    metrics = {}
    for metric in wanted:
        name, unit = metric["name"], metric["unit"]
        got = raw["metrics"].get(name)
        if got is None:
            if not args.trace:
                fail("workload %s did not report %s" % (args.workload, name))
            got = {"value": 0, "unit": unit}
        if got["unit"] != unit:
            fail("%s reported in %s, BENCHMARK.json says %s" % (name, got["unit"], unit))
        metrics[name] = {"value": got["value"], "unit": unit}

    for line in lines[:-1]:
        print(line)
    result = {"correct": bool(raw["correct"]) and done.returncode == 0,
              "attempted": int(raw["attempted"]), "failed": int(raw["failed"]),
              "metrics": metrics}
    print(json.dumps(result))
    sys.exit(0 if result["correct"] else 1)


if __name__ == "__main__":
    main()
