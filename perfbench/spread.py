#!/usr/bin/env python3
"""Runs the benchmark on several seeds and prints each metric's spread.

    python3 perfbench/spread.py --workload em-decode --runs 10 --seconds 38

For every metric of the final JSON line it prints the median and the
distance between the first and third quartile (statistics.quantiles,
n=4) as a share of the median. Run from the root of the repository.
"""
import argparse
import json
import statistics
import subprocess
import sys
import time


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--runs", type=int, default=5)
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=38)
    ap.add_argument("--trace", type=int, default=0)
    a = ap.parse_args()

    values = {}
    for seed in range(a.first_seed, a.first_seed + a.runs):
        t0 = time.time()
        p = subprocess.run(
            ["bash", "perfbench/run.sh", "--workload", a.workload, "--seed", str(seed),
             "--seconds", str(a.seconds), "--trace", str(a.trace)],
            capture_output=True, text=True)
        wall = time.time() - t0
        if p.returncode != 0:
            sys.exit(f"seed {seed}: exit {p.returncode}\n{p.stderr}")
        res = json.loads(p.stdout.strip().splitlines()[-1])
        if not res["correct"] or res["failed"]:
            sys.exit(f"seed {seed}: incorrect run: {res}")
        print(f"seed {seed}: {wall:.1f}s wall, attempted {res['attempted']}", flush=True)
        for name, m in res["metrics"].items():
            values.setdefault(name, []).append(m["value"])

    print(f"{'metric':42} {'median':>14} {'iqr/median':>10}  values")
    for name, vs in sorted(values.items()):
        med = statistics.median(vs)
        q = statistics.quantiles(vs, n=4) if len(vs) > 1 else [vs[0]] * 3
        share = (q[2] - q[0]) / med if med else 0.0
        print(f"{name:42} {med:14.6g} {share:10.4f}  " + " ".join(f"{v:.6g}" for v in vs))


if __name__ == "__main__":
    main()
