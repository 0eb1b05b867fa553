#!/usr/bin/env python3
"""Steadiness check: run one workload on ten seeds and report spreads.

    python3 perfbench/steady.py --workload segment_large
    python3 perfbench/steady.py --workload train_desk --held-out

Each run is a fresh ``perfbench/run.py`` process with its own seed and the
``run_seconds`` of ``BENCHMARK.json``. For every end-to-end metric it prints
the median and the spread, the distance between the first and third
quartile (``statistics.quantiles(values, n=4)``) as a share of the median,
next to the metric's bound. A spread above a third of the bound is
flagged.

Seeds 1 to 999 are for everyday runs. ``--held-out`` uses seeds from
900001 on, which nothing else uses, so that a claim made on everyday seeds
can be confirmed on inputs it was not tuned on.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
HELD_OUT_SEED = 900001
RUNS = 10


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=[w["name"] for w in spec["workloads"]])
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--held-out", action="store_true",
                        help=f"use seeds from {HELD_OUT_SEED} on")
    args = parser.parse_args(argv)

    first = HELD_OUT_SEED if args.held_out else args.first_seed
    values: dict[str, list[float]] = {}
    failures = 0
    for seed in range(first, first + RUNS):
        cmd = spec["command"] + ["--workload", args.workload, "--seed", str(seed),
                                 "--seconds", str(spec["run_seconds"]), "--trace", "0"]
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
        if proc.returncode != 0:
            print(f"seed {seed}: exit {proc.returncode}\n{proc.stderr}", file=sys.stderr)
            failures += 1
            continue
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        failures += not result["correct"]
        for name, metric in result["metrics"].items():
            values.setdefault(name, []).append(metric["value"])
        print(f"seed {seed}: correct={result['correct']} "
              + " ".join(f"{k}={v[-1]:.4g}" for k, v in values.items()), flush=True)

    unsteady = 0
    print(f"\n{args.workload}: {RUNS} runs from seed {first}")
    print(f"{'metric':20s} {'median':>12s} {'spread':>8s} {'bound':>6s}  verdict")
    for m in spec["end_to_end"]:
        vals = values.get(m["name"], [])
        if len(vals) < 2:
            print(f"{m['name']:20s} missing")
            unsteady += 1
            continue
        q1, _, q3 = statistics.quantiles(vals, n=4)
        med = statistics.median(vals)
        spread = (q3 - q1) / med
        if spread <= m["bound"] / 3:
            verdict = "steady"
        else:
            verdict = "UNSTEADY"
            unsteady += 1
        print(f"{m['name']:20s} {med:12.5g} {spread:8.3f} {m['bound']:6.2f}  {verdict}")
    print(f"failed runs: {failures}")
    return 1 if unsteady or failures else 0


if __name__ == "__main__":
    sys.exit(main())
