#!/usr/bin/env python3
"""Runs the repo benchmark: one workload, or all of them, each in its own process.

    python3 e2ebench/run.py --serve-rate R --serve-window-ms W --serve-cap C
                            --serve-p99-limit-ms L [--workload NAME|all]
                            [--seed N] [--seconds S] [--trace 0|1]

The four serving numbers are required; BENCHMARK.json's command fixes them.
--seconds defaults to BENCHMARK.json's run_seconds, the seed to 1 and the
workload to all. Builds the workload runner (e2ebench/CMakeLists.txt, which
links the root project's library) into .bench_build/e2ebench, then runs each
workload with the library's thread pool pinned through DMS_THREADS. --trace 0
measures the end-to-end metrics with tracing off; --trace 1 is the traced
run, which prints the per-layer metrics and writes its spans as Chrome
trace-event JSON under .bench_build/traces/. A workload's last line of output
is its result object, whose metric names and units are checked against
BENCHMARK.json. The exit code is nonzero when the build fails, an output
check fails or a result does not match BENCHMARK.json.
"""

import argparse
import fcntl
import json
import os
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
BUILD_DIR = ROOT / ".bench_build" / "e2ebench"
RUNNER = BUILD_DIR / "e2ebench"
# The workload process must end well inside the 180 s a run may take.
RUN_TIMEOUT_S = 170
# Library threads per workload process (capped at nproc). At 2 threads the
# simulated epoch of train-node2vec-walk varied 0.0115-0.0198 s between runs
# against 0.0077-0.0078 s at 1: the sim clock bills measured compute, and
# two threads on a shared host measure it unevenly.
THREADS = 1
SERVE_ARGS = ["serve_rate", "serve_window_ms", "serve_cap", "serve_p99_limit_ms"]


def build():
    if not (ROOT / "CMakeLists.txt").is_file():
        sys.exit(f"e2ebench: no root project at {ROOT}")
    BUILD_DIR.mkdir(parents=True, exist_ok=True)
    jobs = str(min(4, os.cpu_count() or 1))
    # One build at a time per checkout, even if runs overlap.
    with open(BUILD_DIR.parent / "e2ebench.lock", "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        try:
            if not (BUILD_DIR / "CMakeCache.txt").exists():
                subprocess.run(["cmake", "-S", str(BENCH_DIR), "-B", str(BUILD_DIR),
                                "-DCMAKE_BUILD_TYPE=Release"],
                               stdout=sys.stderr, check=True)
            subprocess.run(["cmake", "--build", str(BUILD_DIR), "--target", "e2ebench",
                            "-j", jobs],
                           stdout=sys.stderr, check=True)
        except (OSError, subprocess.CalledProcessError) as e:
            sys.exit(f"e2ebench: build failed: {e}")


def run_workload(workload, args, spec):
    """Runs one workload; prints its output; returns its exit code."""
    cmd = [str(RUNNER), "--workload", workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds)]
    for name in SERVE_ARGS:
        cmd += ["--" + name.replace("_", "-"), f"{getattr(args, name):g}"]
    if args.trace:
        traces = ROOT / ".bench_build" / "traces"
        traces.mkdir(parents=True, exist_ok=True)
        cmd += ["--trace-out", str(traces / f"{workload}-seed{args.seed}.json")]
    env = dict(os.environ, DMS_THREADS=str(min(THREADS, os.cpu_count() or 1)))
    try:
        proc = subprocess.run(cmd, env=env, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print(f"e2ebench: {workload} did not finish in {RUN_TIMEOUT_S} s", file=sys.stderr)
        return 1

    lines = proc.stdout.splitlines()
    for line in lines[:-1]:
        print(line)
    try:
        result = json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        print(f"e2ebench: {workload} printed no result (exit {proc.returncode})",
              file=sys.stderr)
        return proc.returncode or 1
    if proc.returncode == 0:
        want = {m["name"]: m["unit"] for m in
                spec["per_layer" if args.trace else "end_to_end"]}
        got = {name: m["unit"] for name, m in result["metrics"].items()}
        if got != want:
            print(f"e2ebench: {workload} metrics disagree with BENCHMARK.json: missing "
                  f"{sorted(set(want) - set(got))}, unlisted {sorted(set(got) - set(want))}, "
                  f"unit mismatch {sorted(n for n in set(got) & set(want) if got[n] != want[n])}",
                  file=sys.stderr)
            return 3
    print(lines[-1], flush=True)
    return proc.returncode


def main():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", default="all")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=spec["run_seconds"])
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    for name in SERVE_ARGS:
        ap.add_argument("--" + name.replace("_", "-"), type=float, required=True)
    args = ap.parse_args()

    names = [w["name"] for w in spec["workloads"]]
    workloads = names if args.workload == "all" else [args.workload]
    if not set(workloads) <= set(names):
        sys.exit(f"e2ebench: unknown workload {args.workload}; choose from {names}")
    build()
    codes = [run_workload(w, args, spec) for w in workloads]
    sys.exit(next((c for c in codes if c != 0), 0))


if __name__ == "__main__":
    main()
