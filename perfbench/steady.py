#!/usr/bin/env python3
"""Runs one workload repeatedly, each time with another seed, and prints
every end-to-end metric's median and quartiles beside its bound.

    python3 perfbench/steady.py --workload serve [--save FILE] [--compare FILE]

Run from the repository root. A set is always 10 runs, seeds 1-10, each
for `run_seconds` of BENCHMARK.json. `spread` is the distance between the
first and third quartile as a share of the median (`statistics.quantiles`,
n=4); a steady metric keeps it well below its bound. `--save` writes the
measured values; `--compare` reads values saved from another commit and
shows, per metric, how far the median moved against that set's spread
and whether it got worse by more than the bound. The failed share of
operations is printed for both.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUNS = 10


def spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def run_once(workload, seed, seconds):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    out = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
                         text=True, cwd=ROOT)
    if out.returncode != 0:
        sys.exit(f"seed {seed}: exit code {out.returncode}")
    return json.loads(out.stdout.strip().splitlines()[-1])


def summary(values):
    q1, med, q3 = statistics.quantiles(values, n=4)
    return med, q1, q3, (q3 - q1) / med if med else float("inf")


def main():
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--save")
    p.add_argument("--compare")
    a = p.parse_args()
    bench = spec()
    metrics = {m["name"]: m for m in bench["end_to_end"]}
    values = {name: [] for name in metrics}
    shares = []
    for seed in range(1, RUNS + 1):
        r = run_once(a.workload, seed, bench["run_seconds"])
        shares.append(r["failed"] / r["attempted"])
        for name in metrics:
            values[name].append(r["metrics"][name]["value"])
        print(f"seed {seed}: correct={r['correct']} attempted={r['attempted']} "
              f"failed={r['failed']}", flush=True)
    if a.save:
        with open(a.save, "w") as f:
            json.dump({"workload": a.workload, "values": values, "failed_share": shares}, f)
    old = None
    if a.compare:
        with open(a.compare) as f:
            old = json.load(f)
    print(f"{'metric':<18} {'median':>12} {'q1':>12} {'q3':>12} {'spread':>8} {'bound':>6}"
          + ("   old median  change  old spread  verdict" if old else ""))
    for name, m in metrics.items():
        med, q1, q3, spread = summary(values[name])
        line = f"{name:<18} {med:>12.5g} {q1:>12.5g} {q3:>12.5g} {spread:>8.3f} {m['bound']:>6}"
        if old:
            omed, _, _, ospread = summary(old["values"][name])
            change = (med - omed) / omed
            worse = change if m["better"] == "lower" else -change
            verdict = ("worse beyond bound" if worse > m["bound"]
                       else "moved" if abs(change) > ospread else "within spread")
            line += f"   {omed:>10.5g} {change:>+7.3f} {ospread:>10.3f}  {verdict}"
        print(line)
    print(f"failed share: {sorted(set(shares))}"
          + (f"  (compared set: {sorted(set(old['failed_share']))})" if old else ""))


if __name__ == "__main__":
    main()
