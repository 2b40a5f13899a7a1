"""Steadiness report: run one workload k times and print each metric's spread.

Usage (from the root of a checkout)::

    python3 perfbench/steady.py --workload cold_read --runs 10 [--seconds 20]

Runs ``perfbench/run.py`` once per seed (``--first-seed`` upwards), one
after another, and prints for every end-to-end metric the median, the
quartiles and the spread (quartile distance over median, as
``statistics.quantiles(values, n=4)`` gives them), both against the
reference speed and raw.  Use it to prove the benchmark steady, and to
check the box's state before trusting a comparison.  ``--json PATH``
also writes every run's values.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys

from stats import spread

HERE = os.path.dirname(os.path.abspath(__file__))


def one_run(workload: str, seed: int, seconds: float) -> dict:
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload",
         workload, "--seed", str(seed), "--seconds", str(seconds),
         "--trace", "0"],
        capture_output=True, text=True, cwd=os.path.dirname(HERE))
    lines = proc.stdout.splitlines()
    if proc.returncode != 0 or not lines:
        raise SystemExit(f"run with seed {seed} failed "
                         f"(exit {proc.returncode}):\n{proc.stderr[-2000:]}")
    result = json.loads(lines[-1])
    detail = next(json.loads(line[len("detail "):]) for line in lines
                  if line.startswith("detail "))
    env = next(json.loads(line[len("env "):]) for line in lines
               if line.startswith("env "))
    return {"seed": seed, "result": result, "raw": detail["raw"],
            "ref_speed": env["ref_speed"]}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--first-seed", type=int, default=1)
    args = parser.parse_args(argv)

    runs = []
    for seed in range(args.first_seed, args.first_seed + args.runs):
        run = one_run(args.workload, seed, args.seconds)
        runs.append(run)
        values = {name: round(entry["value"], 4)
                  for name, entry in run["result"]["metrics"].items()}
        print(f"seed {seed}: correct={run['result']['correct']} "
              f"ref_speed={run['ref_speed']} {values}", flush=True)

    print(f"\n{args.workload}: {len(runs)} runs, spread = (q3 - q1) / median")
    print(f"{'metric':<10} {'unit':<13} {'median':>10} {'q1':>10} "
          f"{'q3':>10} {'spread':>7} {'raw spread':>10}")
    for name, entry in runs[0]["result"]["metrics"].items():
        ref = [run["result"]["metrics"][name]["value"] for run in runs]
        raw = [run["raw"][name] for run in runs]
        q1, median, q3, ref_spread = spread(ref)
        raw_spread = spread(raw)[3]
        print(f"{name:<10} {entry['unit']:<13} {median:>10.4g} {q1:>10.4g} "
              f"{q3:>10.4g} {ref_spread:>7.3f} {raw_spread:>10.3f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
