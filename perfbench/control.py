#!/usr/bin/env python3
"""Control for the machine-speed probe: doubled dnet work must read as doubled.

    python3 perfbench/control.py

End-to-end times are scaled by a probe timed around each operation (see
``workloads.Speedometer``). The probe calls nothing in dnet, but it runs in
the same process right after dnet's work, so whatever that work leaves
behind (BLAS threads still spinning, evicted caches) could slow the probe
and hide a change in dnet's speed. Each workload is set up once; then
short chunks of its loop run in rounds, one plain and one doubled chunk a
round, in an order that flips every round. In a doubled chunk every timed
operation holds exactly twice the dnet work (two ``train`` steps per timed
step on ``train_*``, two forwards per ``predict_probs`` call on
``segment_large``). The two training workloads share their rounds;
``segment_large`` runs after them, on its own. Checks, each within
``TOLERANCE``:

* doubling: the median step time at reference speed doubles;
* the probe's median is the same in the plain and the doubled arm;
* exact vs GEMM: the probe's median is the same on ``train_desk`` (exact
  mode, no BLAS call) as on ``train_full`` (GEMM mode), whose chunks
  alternate with it.

The exit code is 1 if a check fails.
"""

from __future__ import annotations

import contextlib
import io
import os
import shutil
import statistics
import sys
from contextlib import contextmanager, nullcontext
from pathlib import Path

import run as bench

if not bench.prepare():
    sys.exit(2)
import workloads  # noqa: E402  (needs src/ on the path and BLAS threads fixed first)

HERE = Path(__file__).resolve().parent
SEED = 1
TOLERANCE = 0.1  # allowed relative error of each check
ROUNDS = 6  # rounds of one plain and one doubled chunk, alternated against drift
CHUNK_S = 4.0  # seconds of train steps per chunk
SEGMENT_CHUNK = 2  # predict calls per chunk on segment_large


@contextmanager
def patched(owner, name: str, make):
    """Replace ``owner.name`` by ``make(original)`` inside the block."""
    original = getattr(owner, name)
    setattr(owner, name, make(original))
    try:
        yield
    finally:
        setattr(owner, name, original)


def two_steps_per_callback(train):
    """``train`` whose callback sees every second step: each timed step is two."""

    def doubled(dataset, net, cfg, on_step):
        return train(dataset, net, cfg,
                     lambda step, loss: step % 2 == 1 and on_step(step // 2, loss))

    return doubled


def two_forwards(predict_probs):
    def doubled(net, image):
        predict_probs(net, image)
        return predict_probs(net, image)

    return doubled


def chunk(run, train_set, net, doubled: bool):
    """(step seconds, scales) of one chunk, plain or doubled."""
    if run.w.segment:
        forwards, scales = [], []
        double = patched(workloads.cli, "predict_probs", two_forwards) if doubled else nullcontext()
        with double, workloads.stopwatch(workloads.cli, "predict_probs", forwards):
            for _ in range(SEGMENT_CHUNK):
                scales.append(run.predict(0)[1])
        return forwards, scales
    double = patched(workloads.training, "train", two_steps_per_callback) if doubled else nullcontext()
    with double:
        wall, scales, _ = run.train_steps(train_set, net, seconds=CHUNK_S)
    return wall[1:], scales[1:]  # the first step of a train call allocates Adam's state


def control() -> tuple[list[str], bool]:
    """Run the checks on every workload; returns (report lines, ok)."""
    arms, runs = {}, {}
    # The training workloads alternate with each other, so that their probe
    # medians can be compared; segment_large runs in a phase of its own, as
    # in a benchmark run nothing else runs between its predicts. The order
    # of the two arms flips every round, so neither always comes first.
    phases = [[n for n, w in workloads.WORKLOADS.items() if not w.segment],
              [n for n, w in workloads.WORKLOADS.items() if w.segment]]
    try:
        with contextlib.redirect_stdout(io.StringIO()):
            for phase in phases:
                setups = {}
                for name in phase:
                    workdir = HERE / "work" / f"control-{name}-{os.getpid()}"
                    runs[name] = workloads.Run(workloads.WORKLOADS[name], SEED, CHUNK_S, workdir)
                    _, _, train_set, net, _ = runs[name].setup(traced_last=False)
                    setups[name] = (train_set, net)
                    # doubled -> (step walls, scales, probes)
                    arms[name] = {False: ([], [], []), True: ([], [], [])}
                for r in range(ROUNDS):
                    for name in phase:
                        run = runs[name]
                        for doubled in (False, True) if r % 2 == 0 else (True, False):
                            walls, scales, probes = arms[name][doubled]
                            first_probe = len(run.speed.probes_ms)
                            wall, scale = chunk(run, *setups[name], doubled)
                            walls += wall
                            scales += scale
                            probes += run.speed.probes_ms[first_probe:]
                del setups
    finally:
        for run in runs.values():
            shutil.rmtree(run.images.parent, ignore_errors=True)

    def step(name, doubled, scaled=True):
        walls, scales, _ = arms[name][doubled]
        return statistics.median(workloads.at_reference(walls, scales) if scaled else walls)

    def probe(name, doubled=False):
        return statistics.median(arms[name][doubled][2])

    lines, ok = [], True

    def check(what, value, expected):
        nonlocal ok
        good = abs(value / expected - 1.0) <= TOLERANCE
        ok = ok and good
        lines.append(f"  {what:44s} {value:7.3f}  expected {expected:.1f} "
                     f"± {TOLERANCE:.0%}  {'ok' if good else 'FAILED'}")

    for name, run in runs.items():
        lines.append(f"{name}: seed {SEED}, {len(arms[name][False][0])} plain and "
                     f"{len(arms[name][True][0])} doubled steps; wall-clock doubled/plain "
                     f"{step(name, True, scaled=False) / step(name, False, scaled=False):.3f}")
        lines += [f"  failed: {note}" for note in run.notes]
        ok = ok and run.failed == 0
        check("doubled/plain step at reference speed", step(name, True) / step(name, False), 2.0)
        check("doubled/plain probe median", probe(name, True) / probe(name), 1.0)
    lines.append(f"probe median: train_desk {probe('train_desk'):.3f} ms (exact), "
                 f"train_full {probe('train_full'):.3f} ms (GEMM)")
    check("train_full/train_desk probe median", probe("train_full") / probe("train_desk"), 1.0)
    return lines, ok


def main() -> int:
    lines, ok = control()
    print("\n".join(lines))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
