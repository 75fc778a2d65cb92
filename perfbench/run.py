#!/usr/bin/env python3
"""Builds the benchmark and runs one workload in its own process.

    python3 perfbench/run.py --workload compile|serve|net --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --faults

Run from the repository root. The last line of standard output is the
workload's JSON result; with `--workload all` each workload runs in a
process of its own and its result line is printed after its name.
The build honours CARGO_TARGET_DIR (default: perfbench/target).
"""

import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ["compile", "serve", "net"]


def build():
    cmd = ["cargo", "build", "--release", "--offline", "--quiet",
           "--manifest-path", os.path.join(HERE, "Cargo.toml")]
    # Cargo's own output goes to stderr, keeping stdout for results.
    if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
        sys.exit("perfbench: build failed")
    target = os.environ.get("CARGO_TARGET_DIR") or os.path.join(HERE, "target")
    return os.path.join(os.path.abspath(target), "release", "mpq-perfbench")


def main(argv):
    binary = build()
    if "--workload" in argv and argv[argv.index("--workload") + 1:][:1] == ["all"]:
        i = argv.index("--workload")
        for w in WORKLOADS:
            args = argv[:i + 1] + [w] + argv[i + 2:]
            out = subprocess.run([binary] + args, stdout=subprocess.PIPE, text=True)
            if out.returncode != 0:
                return out.returncode
            print(w)
            print(out.stdout.strip().splitlines()[-1], flush=True)
        return 0
    return subprocess.run([binary] + argv).returncode


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
