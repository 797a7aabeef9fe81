#!/usr/bin/env python3
"""Builds aplus_bench from source and runs one workload.

    python3 benchmark/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the repository root. The build lives in $CARGO_TARGET_DIR
(default .bench_build) under the root; the first run configures and
compiles it, later runs only check that it is up to date. The last line
of standard output is one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

holding the `end_to_end` metrics of BENCHMARK.json (or, with --trace 1,
its `per_layer` metrics). Every other line is the binary's own
`name value unit` report. The exit code is 0 when every answer was
correct; when the build fails or the run cannot produce a result, no
JSON line is printed and the exit code is 1.
"""

import argparse
import fcntl
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

BUILD_TIMEOUT_S = 840
RUN_TIMEOUT_S = 170


def fail(message):
    print(f"run.py: {message}", file=sys.stderr)
    sys.exit(1)


def git_sha(root):
    try:
        top = subprocess.run(["git", "-C", str(root), "rev-parse", "--show-toplevel", "HEAD"],
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    lines = top.stdout.split()
    if top.returncode != 0 or len(lines) != 2 or Path(lines[0]).resolve() != root:
        return "unknown"
    return lines[1]


def build(root, build_dir):
    """Configures (once) and builds aplus_bench; returns the binary path."""
    build_dir.mkdir(parents=True, exist_ok=True)
    log_path = build_dir / "build.log"
    # One build at a time per build directory.
    with open(build_dir / "build.lock", "w") as lock, open(log_path, "w") as log:
        fcntl.flock(lock, fcntl.LOCK_EX)
        cmake_dir = build_dir / "cmake"
        steps = []
        if not any((cmake_dir / f).exists() for f in ("build.ninja", "Makefile")):
            configure = ["cmake", "-S", str(root / "benchmark"), "-B", str(cmake_dir),
                         "-DCMAKE_BUILD_TYPE=Release"]
            if shutil.which("ninja"):
                configure += ["-G", "Ninja"]
            steps.append(configure)
        jobs = str(min(os.cpu_count() or 1, 4))
        steps.append(["cmake", "--build", str(cmake_dir), "--target", "aplus_bench", "-j", jobs])
        for step in steps:
            try:
                done = subprocess.run(step, stdout=log, stderr=subprocess.STDOUT,
                                      timeout=BUILD_TIMEOUT_S)
            except subprocess.TimeoutExpired:
                fail(f"build timed out; see {log_path}")
            if done.returncode != 0:
                log.flush()
                tail = log_path.read_text(errors="replace").splitlines()[-30:]
                print("\n".join(tail), file=sys.stderr)
                fail(f"build failed; see {log_path}")
    binary = cmake_dir / "aplus_bench"
    if not binary.exists():
        fail(f"build produced no {binary}")
    return binary


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    root = Path(__file__).resolve().parent.parent
    spec_path = root / "BENCHMARK.json"
    if not spec_path.exists():
        fail(f"{spec_path} not found")
    spec = json.loads(spec_path.read_text())
    if args.workload not in [w["name"] for w in spec["workloads"]]:
        fail(f"unknown workload {args.workload}")
    wanted = spec["per_layer" if args.trace else "end_to_end"]

    build_dir = root / os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    binary = build(root, build_dir)

    work = build_dir / "work"
    work.mkdir(parents=True, exist_ok=True)
    stem = f"{args.workload}_{args.seed}{'_trace' if args.trace else ''}"
    result_path = work / f"result_{stem}.json"
    result_path.unlink(missing_ok=True)
    command = [str(binary), f"--workload={args.workload}", f"--seed={args.seed}",
               f"--seconds={args.seconds}", f"--workdir={work}", f"--out={result_path}",
               f"--git-sha={git_sha(root)}"]
    if args.trace:
        command.append(f"--trace={work / f'trace_{stem}.json'}")
    try:
        run = subprocess.run(command, cwd=root, stdout=subprocess.PIPE, text=True,
                             timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"{args.workload} did not finish within {RUN_TIMEOUT_S} s")
    sys.stdout.write(run.stdout)
    if not result_path.exists():
        fail(f"{args.workload} exited with {run.returncode} and wrote no result")
    result = json.loads(result_path.read_text())

    metrics = {}
    for metric in wanted:
        got = result["metrics"].get(metric["name"])
        if got is None:
            fail(f"{args.workload} did not report {metric['name']}")
        if got["unit"] != metric["unit"]:
            fail(f"{metric['name']} is in {got['unit']}, BENCHMARK.json says {metric['unit']}")
        metrics[metric["name"]] = {"value": got["value"], "unit": metric["unit"]}
    print(json.dumps({"correct": bool(result["correct"]), "attempted": int(result["attempted"]),
                      "failed": int(result["failed"]), "metrics": metrics}))
    sys.exit(0 if result["correct"] and run.returncode == 0 else 1)


if __name__ == "__main__":
    main()
