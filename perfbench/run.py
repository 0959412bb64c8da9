#!/usr/bin/env python3
"""bwpart benchmark runner.

    python3 perfbench/run.py --workload table4|portfolio64|advisor \
        --seed N --seconds S --trace 0|1

Run from the repository root. Builds perfbench/ (which pulls in the
repository's own CMakeLists) into $CARGO_TARGET_DIR/perfbench (default
.bench_build/perfbench), repeats the workload's set-up in fresh processes
to take a median set-up time, runs the workload once, and prints its report
lines followed by one JSON result line:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With --trace 0 the metrics are BENCHMARK.json's end_to_end list, with
--trace 1 its per_layer list. Exits nonzero, printing no result line, when
the repository sources are missing, the build fails or the run fails.
"""
import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys

SETUP_REPEATS = 10  # fresh set-up-only processes per run for the set-up median
RUN_TIMEOUT_S = 150


def fail(msg):
    print(f"run.py: {msg}", file=sys.stderr)
    sys.exit(2)


def build(build_dir):
    here = os.path.dirname(os.path.abspath(__file__))
    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        cmd = ["cmake", "-S", here, "-B", build_dir]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
            shutil.rmtree(build_dir, ignore_errors=True)
            fail("cmake configure failed")
    jobs = str(min(4, os.cpu_count() or 1))
    cmd = ["cmake", "--build", build_dir, "--target", "bwpart_perfbench",
           "-j", jobs]
    if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
        fail("build failed")
    return os.path.join(build_dir, "bwpart_perfbench")


def run_binary(args):
    try:
        proc = subprocess.run(args, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"timed out: {' '.join(args)}")
    if proc.returncode != 0:
        fail(f"exit {proc.returncode}: {' '.join(args)}")
    lines = proc.stdout.strip().splitlines()
    if not lines:
        fail(f"no output: {' '.join(args)}")
    return lines[:-1], json.loads(lines[-1])


def main():
    for need in ("CMakeLists.txt", "src", "BENCHMARK.json"):
        if not os.path.exists(need):
            fail(f"run from the repository root: {need} is missing")
    with open("BENCHMARK.json") as f:
        spec = json.load(f)

    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True,
                    choices=[w["name"] for w in spec["workloads"]])
    ap.add_argument("--seed", type=int, default=42)
    ap.add_argument("--seconds", type=int, default=spec["run_seconds"])
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    opt = ap.parse_args()
    wanted = spec["per_layer" if opt.trace else "end_to_end"]

    build_root = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    build_dir = os.path.join(build_root, "perfbench")
    binary = build(build_dir)
    scratch = os.path.join(build_dir, "tmp")
    common = [binary, "--workload", opt.workload, "--seed", str(opt.seed),
              "--scratch", scratch]

    setups = [run_binary(common + ["--setup-only"])[1]["setup_s"]
              for _ in range(SETUP_REPEATS)]
    report, out = run_binary(common + ["--seconds", str(opt.seconds),
                                       "--trace", str(opt.trace)])
    setups.append(out["setup_s"])
    metrics = out["metrics"]
    metrics["setup_s"] = {"value": statistics.median(setups), "unit": "s"}

    result = {}
    for m in wanted:
        got = metrics.get(m["name"])
        if got is None or got["value"] is None:
            fail(f"workload {opt.workload} did not report {m['name']}")
        result[m["name"]] = {"value": got["value"], "unit": m["unit"]}

    for line in report:
        print(line)
    print(f"{'setup_s_samples':<28} {json.dumps(setups)}")
    print(json.dumps({"correct": bool(out["correct"]),
                      "attempted": int(out["attempted"]),
                      "failed": int(out["failed"]),
                      "metrics": result}))


if __name__ == "__main__":
    main()
