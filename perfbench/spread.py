#!/usr/bin/env python3
"""Runs one workload on several seeds and reports how steady each
end-to-end metric is.

Usage (from the root of a checkout):

    python3 perfbench/spread.py --workload olap --seeds 1-10 \
        [--save set1.json] [--compare set0.json]

Each seed runs the command of BENCHMARK.json with its run_seconds and
--trace 0. For every metric it prints the median, the spread (the
interquartile range of statistics.quantiles(values, n=4) over the
median) and the bound. --save writes the values of every seed as JSON;
--compare reads such a file and also prints how far each median moved
from that set's, as a share of that set's median.
"""

import argparse
import json
import statistics
import subprocess
import sys


def seeds_of(text):
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seeds", required=True, help="first-last, e.g. 1-10")
    ap.add_argument("--save")
    ap.add_argument("--compare")
    args = ap.parse_args()
    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    values = {}
    for seed in seeds_of(args.seeds):
        cmd = bench["command"] + [
            "--workload", args.workload, "--seed", str(seed),
            "--seconds", str(bench["run_seconds"]), "--trace", "0"]
        out = subprocess.run(cmd, capture_output=True, text=True)
        lines = out.stdout.strip().splitlines()
        if out.returncode != 0 or not lines:
            print(f"seed {seed}: exit {out.returncode}", file=sys.stderr)
            return 1
        result = json.loads(lines[-1])
        print(f"seed {seed}: correct={result['correct']} "
              f"attempted={result['attempted']} failed={result['failed']}",
              flush=True)
        for name, m in result["metrics"].items():
            values.setdefault(name, []).append(m["value"])
    before = {}
    if args.compare:
        with open(args.compare) as f:
            before = json.load(f)
    for name, vals in values.items():
        med = statistics.median(vals)
        q = statistics.quantiles(vals, n=4)
        line = (f"{args.workload} {name:14s} median {med:10.4f} "
                f"spread {(q[2] - q[0]) / med:.3f} bound {bounds[name]}")
        if name in before:
            old = statistics.median(before[name])
            line += f" median_change {(med - old) / old:+.3f}"
        print(line)
    if args.save:
        with open(args.save, "w") as f:
            json.dump(values, f)
    return 0


if __name__ == "__main__":
    sys.exit(main())
