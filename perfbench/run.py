#!/usr/bin/env python3
"""Build and run the end-to-end benchmark for one workload.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
        [--scale full|small] [--inject CHECK] [--out RUNS.jsonl]

Builds perfbench/ (which pulls in the library from the repository root)
into $CARGO_TARGET_DIR, default .bench_build, then runs rge_e2e. Its stdout
is passed through; the {"meta": ...} line gains the source version and the
workload's rationale and layer map from perfbench/workloads.json. The last
line is the result object. --out appends {"meta", "result"} as one JSON
line, the input perfbench/compare.py reads.

Exit codes: the benchmark's own (0 ok, 1 a correctness check failed,
2 bad arguments), 3 when the build fails, 4 on timeout.
"""
import argparse
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN_TIMEOUT_S = 170


def build(build_dir):
    """Configures (once) and builds rge_e2e; build output goes to stderr."""
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        cmd = ["cmake", "-S", HERE, "-B", build_dir,
               "-DCMAKE_BUILD_TYPE=RelWithDebInfo"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
            shutil.rmtree(build_dir, ignore_errors=True)
            return False
    cmd = ["cmake", "--build", build_dir, "--target", "rge_e2e",
           "-j", str(os.cpu_count() or 1)]
    return subprocess.run(cmd, stdout=sys.stderr).returncode == 0


def describe():
    """`git describe` of the sources, or why there is none."""
    try:
        out = subprocess.run(
            ["git", "-C", ROOT, "describe", "--always", "--dirty", "--tags"],
            capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown (git unavailable)"
    if out.returncode != 0:
        return "unknown (not a git checkout)"
    return out.stdout.strip()


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", choices=["0", "1"], required=True)
    ap.add_argument("--scale", choices=["full", "small"], default="full")
    ap.add_argument("--inject", default="")
    ap.add_argument("--out", default="")
    args = ap.parse_args()

    with open(os.path.join(HERE, "workloads.json")) as f:
        catalogue = json.load(f)
    if args.workload not in catalogue["workloads"]:
        print(f"run.py: unknown workload {args.workload!r}", file=sys.stderr)
        return 2

    build_dir = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    if not build(build_dir):
        print("run.py: build failed", file=sys.stderr)
        return 3

    cmd = [os.path.join(build_dir, "rge_e2e"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", args.trace,
           "--scale", args.scale]
    if args.inject:
        cmd += ["--inject", args.inject]
    if args.trace == "1":
        trace_dir = os.path.join(build_dir, "traces")
        os.makedirs(trace_dir, exist_ok=True)
        cmd += ["--trace-out", os.path.join(trace_dir, args.workload + ".json")]
    try:
        proc = subprocess.run(cmd, capture_output=True, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print("run.py: benchmark timed out", file=sys.stderr)
        return 4
    sys.stderr.write(proc.stderr)

    lines = proc.stdout.splitlines()
    meta, result = None, None
    for i, line in enumerate(lines):
        if line.startswith('{"meta"'):
            meta = json.loads(line)["meta"]
            meta["git_describe"] = describe()
            meta.update(catalogue["workloads"][args.workload])
            meta["layers"] = catalogue["layers"]
            line = json.dumps({"meta": meta})
        elif i == len(lines) - 1 and line.startswith('{"correct"'):
            result = json.loads(line)
        print(line)
    sys.stdout.flush()
    if args.out and meta is not None and result is not None:
        with open(args.out, "a") as f:
            f.write(json.dumps({"meta": meta, "result": result}) + "\n")
    return proc.returncode


if __name__ == "__main__":
    sys.exit(main())
