#!/usr/bin/env python3
"""Builds the end-to-end benchmark from source and runs one workload.

Usage (from the root of a checkout):

    python3 perfbench/run.py --workload oltp|olap|htap --seed N \
        --seconds S --trace 0|1

The build goes to .bench_build/ and results (provenance, metric bases,
spans) to .bench_out/, both under the checkout root. Build output goes to
stderr; stdout is the benchmark's own, ending in one JSON line.
"""

import hashlib
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
OUT = os.path.join(ROOT, ".bench_out")
BUILD_TIMEOUT_S = 700
RUN_TIMEOUT_S = 170


def run_quiet(cmd, timeout):
    """Runs cmd with its output on stderr; returns the exit code."""
    try:
        return subprocess.run(cmd, cwd=ROOT, stdout=sys.stderr,
                              timeout=timeout).returncode
    except (OSError, subprocess.TimeoutExpired) as e:
        print(f"run.py: {cmd[0]}: {e}", file=sys.stderr)
        return 1


def build():
    # Configuring every time is cheap and recovers from a failed one.
    if run_quiet(["cmake", "-S", os.path.join(ROOT, "perfbench"), "-B", BUILD,
                  "-DCMAKE_BUILD_TYPE=Release"], BUILD_TIMEOUT_S) != 0:
        return False
    return run_quiet(["cmake", "--build", BUILD, "--target", "perfbench",
                      "-j", str(os.cpu_count() or 1)], BUILD_TIMEOUT_S) == 0


def git_sha():
    """HEAD of the checkout, or "none" when it is not a git work tree of
    its own (git would otherwise report an enclosing repository)."""
    try:
        r = subprocess.run(
            ["git", "-C", ROOT, "rev-parse", "--show-toplevel", "HEAD"],
            capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "none"
    lines = r.stdout.split()
    if r.returncode != 0 or len(lines) != 2:
        return "none"
    if os.path.realpath(lines[0]) != os.path.realpath(ROOT):
        return "none"
    return lines[1]


def source_id():
    """Content hash of the sources the benchmark builds and runs."""
    h = hashlib.sha256()
    for top in ("src", "perfbench"):
        for d, dirs, files in os.walk(os.path.join(ROOT, top)):
            dirs.sort()
            for name in sorted(files):
                path = os.path.join(d, name)
                h.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    h.update(f.read())
    return h.hexdigest()[:16]


def main():
    if not build():
        print("run.py: build failed", file=sys.stderr)
        return 1
    cmd = [os.path.join(BUILD, "perfbench"), *sys.argv[1:], "--out", OUT,
           "--git-sha", git_sha(), "--source-id", source_id()]
    try:
        return subprocess.run(cmd, cwd=ROOT, timeout=RUN_TIMEOUT_S).returncode
    except subprocess.TimeoutExpired:
        print(f"run.py: no result within {RUN_TIMEOUT_S} s", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
