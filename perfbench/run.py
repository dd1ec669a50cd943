#!/usr/bin/env python3
"""Builds and runs the TraceSafe benchmark (see perfbench/README.md).

Run from the root of a checkout:

    python3 perfbench/run.py --workload serve_cold --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --selftest

The first run configures and builds a Release tree of the libraries and
the tsbench binary in $CARGO_TARGET_DIR (default .bench_build). The last
line of standard output is the result object printed by tsbench; build
output goes to standard error. The exit code is tsbench's: 0 when every
verdict matched its reference, 1 on a mismatch, 2 on a usage, build or
run error (then no result is printed).
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
WORKLOADS = ["serve_cold", "serve_repeat", "campaign_burst",
             "relaxed_sweep", "racelog_scan"]
RUN_TIMEOUT_S = 170


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    if not os.path.isabs(base):
        base = os.path.join(ROOT, base)
    return os.path.join(base, "perfbench")


def build(target):
    out = build_dir()
    if not os.path.exists(os.path.join(out, "CMakeCache.txt")):
        cmd = ["cmake", "-S", HERE, "-B", out, "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
            shutil.rmtree(out, ignore_errors=True)
            return None
    jobs = str(os.cpu_count() or 1)
    if subprocess.run(["cmake", "--build", out, "-j", jobs, "--target", target],
                      stdout=sys.stderr).returncode != 0:
        return None
    return os.path.join(out, target)


def git_revision():
    if not os.path.exists(os.path.join(ROOT, ".git")):
        return "unknown"  # not a git checkout; never ask an enclosing repo
    try:
        r = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                           capture_output=True, text=True, timeout=10)
        if r.returncode == 0:
            return r.stdout.strip()
    except (OSError, subprocess.TimeoutExpired):
        pass
    return "unknown"


def source_digest():
    """SHA-256 over the sources the binary is built from, so a result from
    a checkout without git history still names what it measured."""
    h = hashlib.sha256()
    for top in ("src", "perfbench"):
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, top)):
            dirnames.sort()
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                h.update(os.path.relpath(path, ROOT).encode() + b"\0")
                with open(path, "rb") as f:
                    h.update(f.read())
    return h.hexdigest()


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", choices=WORKLOADS)
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=10)
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    p.add_argument("--selftest", action="store_true",
                   help="build and run the tests of the benchmark's helpers")
    args = p.parse_args()
    os.chdir(ROOT)

    if args.selftest:
        exe = build("tsbench_selftest")
        return 2 if exe is None else subprocess.run([exe]).returncode
    if args.workload is None:
        p.error("--workload is required")

    exe = build("tsbench")
    if exe is None:
        print("run.py: build failed", file=sys.stderr)
        return 2
    run_dir = os.path.join(".bench_run", f"{args.workload}-{os.getpid()}")
    cmd = [exe, "run", "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--run-dir", run_dir, "--out-dir", ".bench_out",
           "--stamp", "git_revision=" + git_revision(),
           "--stamp", "source_sha256=" + source_digest()]
    try:
        r = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                           timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print(f"run.py: {args.workload} exceeded {RUN_TIMEOUT_S} s",
              file=sys.stderr)
        return 2
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)
        if os.path.isdir(".bench_run") and not os.listdir(".bench_run"):
            os.rmdir(".bench_run")
    lines = r.stdout.rstrip("\n").splitlines()
    try:
        result = json.loads(lines[-1])
        ok = set(result) == {"correct", "attempted", "failed", "metrics"}
    except (IndexError, ValueError):
        ok = False
    if not ok:
        sys.stderr.write(r.stdout)
        print("run.py: tsbench printed no result", file=sys.stderr)
        return 2
    sys.stdout.write(r.stdout)
    return r.returncode


if __name__ == "__main__":
    sys.exit(main())
