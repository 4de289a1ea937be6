"""Run-to-run spread of the end-to-end metrics over several seeds.

    python3 perfbench/spread.py --workload sat-kernel --runs 10 --seconds 20

Runs perfbench/run.py once per seed, one run at a time, and prints each
metric's median and its spread: the distance between the first and third
quartile (statistics.quantiles(values, n=4)) as a share of the median,
next to the bound BENCHMARK.json fixes for it.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

from stats import quartile_spread

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=None,
                        help="default: run_seconds from BENCHMARK.json")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = args.seconds or spec["run_seconds"]
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    values: dict[str, list[float]] = {}
    walls, failures = [], 0
    for seed in range(args.first_seed, args.first_seed + args.runs):
        cmd = [*spec["command"], "--workload", args.workload, "--seed", str(seed),
               "--seconds", str(seconds), "--trace", str(args.trace)]
        start = time.monotonic()
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=200)
        walls.append(time.monotonic() - start)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            failures += 1
            print(f"seed {seed}: exit {proc.returncode} {proc.stderr.strip()[-300:]}")
            continue
        result = json.loads(lines[-1])
        if not result["correct"]:
            failures += 1
        for name, metric in result["metrics"].items():
            values.setdefault(name, []).append(metric["value"])
        shown = ", ".join(f"{k}={m['value']:.4g}" for k, m in result["metrics"].items()
                          if k in bounds or args.trace == 0)
        print(f"seed {seed}: {walls[-1]:.1f}s wall, correct={result['correct']}, "
              f"failed={result['failed']}/{result['attempted']}, {shown}", flush=True)
    print(f"{args.workload}: {len(walls)} runs, wall median {statistics.median(walls):.1f}s "
          f"max {max(walls):.1f}s, {failures} failed or incorrect")
    for name, vals in values.items():
        if len(vals) < 2:
            continue
        spread = quartile_spread(vals)
        bound = bounds.get(name)
        verdict = "" if bound is None else (
            f" bound {bound}: {'ok' if spread <= bound / 3 else 'WIDE' if spread <= bound else 'OVER'}")
        print(f"  {name:<14} median {statistics.median(vals):.5g}  spread {spread:.4f}{verdict}")
    return 0 if failures == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
