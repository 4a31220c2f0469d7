#!/usr/bin/env python3
"""Run the benchmark once per seed and report each metric's spread.

    python3 perfbench/spread.py --workload sweep-paper --seeds 1 2 3 4 5

Spread is the distance between the first and third quartile of the runs'
values (``statistics.quantiles(values, n=4)``) as a share of their
median -- the figure every end-to-end bound in BENCHMARK.json must
exceed.  The same is shown for the times as measured, before scaling to
the reference host speed (see ``hostspeed.py``).  Runs are serial: two
benchmark processes at once would share the host's cores and measure
each other.
"""

from __future__ import annotations

import argparse
import json
import re
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent


def spread(values):
    q1, median, q3 = statistics.quantiles(values, n=4)
    return median, ((q3 - q1) / median if median else 0.0)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", type=int, nargs="+", required=True)
    parser.add_argument("--seconds", type=int, default=None)
    args = parser.parse_args()
    seconds = args.seconds or json.loads(
        (HERE.parent / "BENCHMARK.json").read_text()
    )["run_seconds"]

    values, raw = {}, {}
    for seed in args.seeds:
        out = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--workload", args.workload,
             "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
            capture_output=True, text=True, check=True, cwd=HERE.parent,
        ).stdout.splitlines()
        result = json.loads(out[-1])
        measured = next(line for line in out if line.startswith("# as measured"))
        for name, value in re.findall(r"(\w+) ([\d.]+)[,;]", measured):
            raw.setdefault(name, []).append(float(value))
        for name, metric in result["metrics"].items():
            values.setdefault(name, []).append(metric["value"])
        summary = {k: round(v["value"], 4) for k, v in result["metrics"].items()}
        print(f"seed {seed}: correct={result['correct']} {summary}")
        print(f"  {measured[2:]}")

    print(f"\n{args.workload}: {len(args.seeds)} runs of {seconds} s")
    for label, table in (("", values), ("as measured: ", raw)):
        for name, series in table.items():
            if len(series) < 2:
                continue
            median, share = spread(series)
            print(
                f"  {label + name:<34s} median {median:12.4f}  "
                f"spread {share * 100:6.2f}%"
            )
    return 0


if __name__ == "__main__":
    sys.exit(main())
