#!/usr/bin/env python3
"""Builds perfbench and runs one of its workloads.

    python3 perfbench/run.py --workload paper-xmark --seed 42 \
        --seconds 30 --trace 0

Run from the root of a checkout. The program and the library it measures
are built from source into .bench_build/ (optimized, RelWithDebInfo). The
readable report goes to standard output; its last line is one JSON object
with the keys correct, attempted, failed and metrics, where metrics holds
every end_to_end metric of BENCHMARK.json (--trace 0) or every per_layer
metric (--trace 1). Exits non-zero, without that line, if the build or the
run fails, and with it if any answer was wrong.
"""

import argparse
import hashlib
import json
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BUILD_DIR = os.path.join(ROOT, ".bench_build", "perfbench")
RUN_TIMEOUT_S = 170
RESULT_PREFIX = "PERFBENCH_RESULT "


def fail(message):
    print("perfbench: " + message, file=sys.stderr)
    sys.exit(2)


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("library sources (src/) not found next to perfbench/")
    steps = []
    if not os.path.isfile(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        steps.append(["cmake", "-S", os.path.join(ROOT, "perfbench"),
                      "-B", BUILD_DIR, "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    jobs = str(min(4, os.cpu_count() or 1))
    steps.append(["cmake", "--build", BUILD_DIR, "-j", jobs])
    for step in steps:
        # Build logs go to stderr so standard output stays the report.
        proc = subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr)
        if proc.returncode:
            fail("build step failed: " + " ".join(step))
    return os.path.join(BUILD_DIR, "perfbench")


def git_sha():
    if not os.path.isdir(os.path.join(ROOT, ".git")):
        return "unavailable (not a git checkout)"
    proc = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                          capture_output=True, text=True)
    return proc.stdout.strip() if proc.returncode == 0 else "unavailable"


def source_digest():
    """SHA-256 over the measured sources, for checkouts without git."""
    digest = hashlib.sha256()
    for top in ("src", "perfbench"):
        for directory, dirs, files in sorted(os.walk(os.path.join(ROOT, top))):
            dirs.sort()
            for name in sorted(files):
                path = os.path.join(directory, name)
                digest.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    digest.update(f.read())
    return digest.hexdigest()[:16]


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    if args.workload not in [w["name"] for w in spec["workloads"]]:
        fail("unknown workload " + args.workload)
    wanted = spec["per_layer" if args.trace else "end_to_end"]

    binary = build()
    run_dir = os.path.join(ROOT, ".bench_build", "runs",
                           "%s-seed%d-trace%d" % (args.workload, args.seed,
                                                  args.trace))
    os.makedirs(run_dir, exist_ok=True)
    print("seed=%d git_sha=%s source_digest=%s" %
          (args.seed, git_sha(), source_digest()), flush=True)
    try:
        proc = subprocess.run(
            [binary, "--workload", args.workload, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace),
             "--run_dir", run_dir],
            stdout=subprocess.PIPE, text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail("run exceeded %d s" % RUN_TIMEOUT_S)

    result = None
    for line in proc.stdout.splitlines():
        if line.startswith(RESULT_PREFIX):
            result = json.loads(line[len(RESULT_PREFIX):])
        else:
            print(line)
    if result is None:
        fail("the run printed no result (exit code %d)" % proc.returncode)

    metrics = {}
    for metric in wanted:
        measured = result["metrics"].get(metric["name"])
        if measured is None:
            fail("the run did not report " + metric["name"])
        if measured["unit"] != metric["unit"]:
            fail("%s reported in %s, BENCHMARK.json says %s" %
                 (metric["name"], measured["unit"], metric["unit"]))
        metrics[metric["name"]] = {"value": measured["value"],
                                   "unit": metric["unit"]}
    print(json.dumps({"correct": result["correct"],
                      "attempted": result["attempted"],
                      "failed": result["failed"],
                      "metrics": metrics}), flush=True)
    sys.exit(0 if result["correct"] and proc.returncode == 0 else 1)


if __name__ == "__main__":
    main()
