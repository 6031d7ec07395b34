#!/usr/bin/env python3
"""Builds and runs the repository benchmark described by BENCHMARK.json.

Usage (from the repository root):

    python3 perfbench/run.py --workload kv-read|kv-write|ptm-bank \
        --seed N --seconds S --trace 0|1

The first call configures and builds perfbench/ (the C++ benchmark binary
plus the libraries it links, compiled from src/) into
$CARGO_TARGET_DIR/perfbench, default .bench_build/perfbench. Later calls rebuild only what changed.
Build output goes to stderr; stdout carries the binary's '#' stamp and
sample-count lines and, last, one JSON result line. A traced run also
writes its spans to <build dir>/traces/<workload>-seed<N>.csv.

Exits nonzero, printing no result, when the build fails, the binary
crashes or times out, or its result line is malformed; exits 1 with a
result whose "correct" is false when an audit fails.
"""

import argparse
import hashlib
import json
import os
import subprocess
import sys

WORKLOADS = ("kv-read", "kv-write", "ptm-bank")
RUN_TIMEOUT_S = 170
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}


def log(msg):
    print(f"run.py: {msg}", file=sys.stderr, flush=True)


def source_digest(root):
    """SHA-256 over the sources the benchmark builds (src/ and perfbench/)."""
    h = hashlib.sha256()
    for top in ("src", "perfbench"):
        base = os.path.join(root, top)
        for dirpath, dirnames, filenames in os.walk(base):
            dirnames.sort()
            for name in sorted(filenames):
                if name.endswith(".pyc"):
                    continue
                path = os.path.join(dirpath, name)
                h.update(os.path.relpath(path, root).encode())
                with open(path, "rb") as f:
                    h.update(f.read())
    return h.hexdigest()[:16]


def git_sha(root):
    if not os.path.exists(os.path.join(root, ".git")):
        return "unavailable"
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root,
                             capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return "unavailable"
    return out.stdout.strip() if out.returncode == 0 else "unavailable"


def build(src_dir, build_dir):
    configure = ["cmake", "-S", src_dir, "-B", build_dir,
                 "-DCMAKE_BUILD_TYPE=RelWithDebInfo"]
    for cmd in (configure,
                ["cmake", "--build", build_dir, "-j", "4",
                 "--target", "perfbench"]):
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            return False
    return True


def valid_result(line):
    try:
        res = json.loads(line)
    except ValueError:
        return False
    return (isinstance(res, dict) and set(res) == RESULT_KEYS
            and isinstance(res["metrics"], dict) and res["metrics"])


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    root = os.getcwd()
    src_dir = os.path.dirname(os.path.abspath(__file__))
    build_dir = os.path.join(root, os.environ.get("CARGO_TARGET_DIR",
                                                  ".bench_build"), "perfbench")
    if not build(src_dir, build_dir):
        log("build failed")
        return 3

    trace_dir = os.path.join(build_dir, "traces")
    os.makedirs(trace_dir, exist_ok=True)
    cmd = [os.path.join(build_dir, "perfbench"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--trace-out",
           os.path.join(trace_dir, f"{args.workload}-seed{args.seed}.csv"),
           "--git-sha", git_sha(root), "--src-digest", source_digest(root)]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log(f"perfbench exceeded {RUN_TIMEOUT_S} s and was killed")
        return 4
    lines = proc.stdout.rstrip("\n").split("\n")
    if proc.returncode not in (0, 1) or not valid_result(lines[-1]):
        sys.stderr.write(proc.stdout)
        log(f"perfbench exited {proc.returncode} without a valid result line")
        return proc.returncode or 5
    sys.stdout.write("\n".join(lines) + "\n")
    return proc.returncode


if __name__ == "__main__":
    sys.exit(main())
