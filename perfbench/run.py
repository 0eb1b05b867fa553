#!/usr/bin/env python3
"""Run one dnet benchmark workload and print its metrics.

    python3 perfbench/run.py --workload train_desk --seed 1 --seconds 30 --trace 0

Run from the repository root; dnet is imported from ``src/``. With
``--trace 0`` the run measures the end-to-end metrics with nothing traced;
with ``--trace 1`` it reports the per-layer metrics of the outside-in
tracer. Human-readable lines come first, each metric with its unit; the
last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``. The same result,
with the environment and run details, is written to
``perfbench/results/<workload>-s<seed>-t<trace>.json``.

Workloads and metrics are described in ``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import contextlib
import ctypes
import io
import json
import os
import platform
import shutil
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("train_desk", "train_full", "segment_large")


def blas_threads(np) -> int | None:
    """Thread count reported by the OpenBLAS that numpy loaded, if it is one."""
    libs = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for lib in sorted(libs.glob("*openblas*")):
        dll = ctypes.CDLL(str(lib))
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                    "openblas_get_num_threads"):
            fn = getattr(dll, sym, None)
            if fn is not None:
                return int(fn())
    return None


def environment(np, seed: int) -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": blas_threads(np),
        "numpy": np.__version__,
        "python": platform.python_version(),
        "machine": platform.machine(),
        "seed": seed,
    }


def prepare() -> bool:
    """Put ``src/`` on the import path and fix BLAS threads, before numpy loads."""
    src = ROOT / "src"
    if not (src / "dnet" / "__init__.py").is_file():
        print(f"perfbench: no dnet package under {src}", file=sys.stderr)
        return False
    # BLAS reads its thread count when numpy loads: one closed-loop client
    # may use every core it is given, and no more.
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = str(len(os.sched_getaffinity(0)))
    sys.path.insert(0, str(src))
    return True


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not prepare():
        return 2
    import numpy as np
    import workloads

    workdir = HERE / "work" / f"{args.workload}-{os.getpid()}"
    run = workloads.Run(workloads.WORKLOADS[args.workload], args.seed, args.seconds, workdir)
    try:
        # dnet's commands print progress lines; keep stdout for the result.
        with contextlib.redirect_stdout(io.StringIO()):
            if args.trace:
                metrics, details = workloads.run_traced(run)
            else:
                metrics, details = workloads.run_end_to_end(run)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    env = environment(np, args.seed)
    error_rate = run.failed / run.attempted
    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}  "
          + "  ".join(f"{k}={v}" for k, v in env.items() if k != "seed"))
    for name, (value, unit) in metrics.items():
        print(f"{name:34s} {value:14.6g} {unit}")
    if "step_ms_tail_percentile" in details:
        print(f"step_ms_tail is p{details['step_ms_tail_percentile']:.1f} of {details['ops']} "
              f"samples, {details['step_ms_tail_beyond']} beyond it")
    if "wall_medians" in details:
        print("wall-clock medians, unscaled: "
              + "  ".join(f"{k}={v:.6g}" for k, v in details["wall_medians"].items()))
    probes = run.speed.probes_ms
    print(f"speed probe: median {sorted(probes)[len(probes) // 2]:.3f} ms over {len(probes)} "
          f"probes; times above are at the {run.speed.reference_ms} ms reference")
    print(f"error_rate {error_rate:.6g} ({run.failed} of {run.attempted} operations failed)")
    for note in run.notes:
        print(f"FAILED: {note}")

    result = {
        "correct": run.failed == 0,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    results = HERE / "results"
    results.mkdir(exist_ok=True)
    record = dict(result, error_rate=error_rate, environment=env, details=details,
                  failures=run.notes, workload=args.workload, seconds=args.seconds,
                  trace=args.trace)
    out = results / f"{args.workload}-s{args.seed}-t{args.trace}.json"
    out.write_text(json.dumps(record, indent=1) + "\n")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
