#!/usr/bin/env python3
"""Builds and runs the SSB end-to-end benchmark for one workload.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the repository root. Builds perfbench/ (and the engine sources it
links) in Release mode under .bench_build/, runs ssb_bench, and passes its
output through. The last line of stdout is ssb_bench's result object; this
script also checks that its metric names are exactly the ones BENCHMARK.json
declares for the mode (end_to_end for --trace 0, per_layer for --trace 1).
Build logs go to stderr. Exits non-zero, printing no result, when the build
or the run fails.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def build(build_dir):
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        subprocess.run(["cmake", "-S", HERE, "-B", build_dir,
                        "-DCMAKE_BUILD_TYPE=Release"],
                       check=True, stdout=sys.stderr)
    subprocess.run(["cmake", "--build", build_dir, "--target", "ssb_bench",
                    "-j", str(os.cpu_count() or 1)],
                   check=True, stdout=sys.stderr)


def declared_metrics(trace):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    return {m["name"] for m in bench["per_layer" if trace else "end_to_end"]}


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, choices=["0", "1"])
    args = parser.parse_args()

    build_dir = os.path.join(ROOT, ".bench_build", "perfbench")
    try:
        build(build_dir)
    except (OSError, subprocess.CalledProcessError) as e:
        print(f"run.py: build failed: {e}", file=sys.stderr)
        return 1

    run = subprocess.run(
        [os.path.join(build_dir, "ssb_bench"), "--workload", args.workload,
         "--seed", str(args.seed), "--seconds", str(args.seconds),
         "--trace", args.trace],
        stdout=subprocess.PIPE, text=True)
    lines = run.stdout.rstrip("\n").split("\n")
    if run.returncode != 0 or not lines[-1].startswith("{"):
        sys.stdout.write("\n".join(lines[:-1]) + "\n")
        print(f"run.py: ssb_bench exited with {run.returncode}", file=sys.stderr)
        return 1
    result = json.loads(lines[-1])
    names = set(result["metrics"])
    expected = declared_metrics(args.trace == "1")
    if names != expected:
        sys.stdout.write("\n".join(lines[:-1]) + "\n")
        print(f"run.py: metrics differ from BENCHMARK.json: missing "
              f"{sorted(expected - names)}, extra {sorted(names - expected)}",
              file=sys.stderr)
        return 1
    sys.stdout.write(run.stdout)
    return 0


if __name__ == "__main__":
    sys.exit(main())
