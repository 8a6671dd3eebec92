#!/usr/bin/env python3
"""Repository benchmark entry point.

Builds the benchmark executable (perfbench/CMakeLists.txt, which compiles the
repository's `topick` library from source in a Release build) and runs one
workload:

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> \
        --trace <0|1>

Workloads: serve_poisson, decode_long_ctx, serve_overload, accel_ooo, or
`all` to run the four in turn (each prints its own result line).
With --trace 0 the run reports the end-to-end metrics; with --trace 1 it
reports the per-layer metrics of a traced run. The last line of standard
output is one JSON object {"correct", "attempted", "failed", "metrics"}.
The build directory is $CARGO_TARGET_DIR (default .bench_build) under the
repository root. See perfbench/README.md for every metric and workload.
"""

import argparse
import hashlib
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("serve_poisson", "decode_long_ctx", "serve_overload", "accel_ooo")
RUN_TIMEOUT_S = 175


def fail(message, code=2):
    print(f"perfbench: {message}", file=sys.stderr, flush=True)
    sys.exit(code)


def build_dir():
    target = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    if not os.path.isabs(target):
        target = os.path.join(ROOT, target)
    return os.path.join(target, "perfbench")


def build(out_dir):
    if not (os.path.isfile(os.path.join(ROOT, "CMakeLists.txt"))
            and os.path.isdir(os.path.join(ROOT, "src"))):
        fail(f"no repository sources to build under {ROOT}")
    for tool in ("cmake", "c++"):
        if shutil.which(tool) is None:
            fail(f"{tool} not found")
    if not os.path.isfile(os.path.join(out_dir, "CMakeCache.txt")):
        configure = ["cmake", "-S", HERE, "-B", out_dir,
                     "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            configure += ["-G", "Ninja"]
        run_build_step(configure)
    jobs = str(min(4, os.cpu_count() or 1))
    run_build_step(["cmake", "--build", out_dir, "--target", "perfbench",
                    "-j", jobs])
    return os.path.join(out_dir, "perfbench")


def run_build_step(cmd):
    # Build output goes to stderr so stdout ends with the result line.
    proc = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr)
    if proc.returncode != 0:
        fail(f"build step failed: {' '.join(cmd)}")


def commit_id():
    """The git commit when the tree is a checkout, else a source digest."""
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True, timeout=10)
        if proc.returncode == 0 and proc.stdout.strip():
            return proc.stdout.strip()
    except (OSError, subprocess.SubprocessError):
        pass
    digest = hashlib.sha256()
    for top in ("src", "perfbench"):
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, top)):
            dirnames.sort()
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                digest.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    digest.update(f.read())
    return "src-sha256:" + digest.hexdigest()[:16]


def expected_metrics(trace):
    """{name: unit} BENCHMARK.json declares for this mode, if it is present."""
    path = os.path.join(ROOT, "BENCHMARK.json")
    if not os.path.isfile(path):
        return None
    with open(path) as f:
        spec = json.load(f)
    return {m["name"]: m["unit"]
            for m in spec["per_layer" if trace else "end_to_end"]}


def run_workload(binary, workload, args):
    """Runs one workload; prints its output; returns the exit code."""
    cmd = [binary, "--workload", workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--commit", commit_id()]
    try:
        proc = subprocess.run(cmd, capture_output=True, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"{workload}: run exceeded {RUN_TIMEOUT_S} s", 3)
    sys.stderr.write(proc.stderr)
    lines = proc.stdout.rstrip("\n").split("\n")
    try:
        result = json.loads(lines[-1])
    except (json.JSONDecodeError, IndexError):
        sys.stdout.write(proc.stdout)
        fail(f"{workload}: perfbench printed no result "
             f"(exit code {proc.returncode})", 3)

    expected = expected_metrics(args.trace)
    reported = {k: v["unit"] for k, v in result["metrics"].items()}
    if expected is not None and reported != expected:
        differ = sorted(set(expected.items()) ^ set(reported.items()))
        sys.stdout.write("\n".join(lines[:-1]) + "\n")
        fail(f"{workload}: metrics differ from BENCHMARK.json: {differ}", 3)
    sys.stdout.write(proc.stdout)
    sys.stdout.flush()
    if proc.returncode != 0 or not result["correct"]:
        return proc.returncode or 1
    return 0


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    binary = build(build_dir())
    workloads = WORKLOADS if args.workload == "all" else (args.workload,)
    codes = [run_workload(binary, w, args) for w in workloads]
    sys.exit(max(codes))


if __name__ == "__main__":
    main()
