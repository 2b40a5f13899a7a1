"""Served benchmark for ``repro``: one command, one workload per run.

Usage (from the root of a checkout)::

    python3 perfbench/run.py --workload hot_read --seed 1 --seconds 20 --trace 0

Starts real ``python -m repro serve`` nodes, drives them closed-loop
from this process with every process pinned to one CPU, checks every
answer byte for byte against a local session, and prints each metric by
name with its unit, raw value and sample count.  The last line of
standard output is one JSON object: ``correct``, ``attempted``,
``failed`` and ``metrics`` (the end-to-end metrics with ``--trace 0``,
the per-layer ones with ``--trace 1``).  A wrong answer exits 1.
See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import signal
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
CHECKOUT = os.path.dirname(HERE)
WORKLOADS = ("hot_read", "cold_read", "edit_replicated")


def pin_one_cpu() -> int:
    """Pin this process (and every node it spawns) to one CPU."""
    cpu = max(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {cpu})
    return cpu


def git_state() -> dict:
    try:
        sha = subprocess.run(["git", "rev-parse", "HEAD"], cwd=CHECKOUT,
                             capture_output=True, text=True, timeout=10)
        dirty = subprocess.run(["git", "status", "--porcelain"],
                               cwd=CHECKOUT, capture_output=True, text=True,
                               timeout=10)
    except OSError:
        return {"git_sha": "unknown", "git_dirty": None}
    if sha.returncode != 0:
        return {"git_sha": "unknown", "git_dirty": None}
    return {"git_sha": sha.stdout.strip(),
            "git_dirty": bool(dirty.stdout.strip())}


def environment(args, cpu: int, bench) -> dict:
    from nodes import HASH_SEED
    from refspeed import S0

    return {
        "nproc": os.cpu_count(),
        "pinned_cpu": cpu,
        "python": platform.python_version(),
        **git_state(),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "PYTHONHASHSEED": HASH_SEED,
        "bytecode_cache": "PYTHONPYCACHEPREFIX=.perfbench/pycache "
                          "(warmed by an untimed spawn)",
        "node_flags": list(bench.node_flags),
        "connections_per_node": 1,
        "outstanding_per_connection": 1,
        "S0": S0,
        "ref_speed": round(bench.pacer.mean_speed(), 1),
        "ref_slices": len(bench.pacer.speeds),
        "rounds": bench.tally.rounds,
        "latency_samples": bench.pacer.ops(),
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isdir(os.path.join(CHECKOUT, "src", "repro")):
        print(f"error: no repro sources under {CHECKOUT}/src",
              file=sys.stderr)
        return 2
    sys.path[:0] = [os.path.join(CHECKOUT, "src"), HERE]
    cpu = pin_one_cpu()
    # SIGTERM unwinds like an error, so every node is stopped on the way out
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))

    import report
    import workloads

    bench = workloads.make(args.workload, CHECKOUT, args.seed, args.seconds)
    if args.trace:
        import layers

        tally, metrics, lines = layers.run(bench)
    else:
        tally = bench.run(bench.one_round)
        metrics, lines = report.end_to_end(bench)
    env = environment(args, cpu, bench)
    print("env " + json.dumps(env, sort_keys=True))
    for line in lines:
        print(line)
    for problem in tally.mismatches[:5]:
        print(f"MISMATCH {problem}")
    result = {"correct": not tally.mismatches,
              "attempted": tally.attempted,
              "failed": tally.failed,
              "metrics": {name: {"value": value, "unit": unit}
                          for name, (value, unit) in metrics.items()}}
    print(json.dumps(result), flush=True)
    return 1 if tally.mismatches else 0


if __name__ == "__main__":
    sys.exit(main())
