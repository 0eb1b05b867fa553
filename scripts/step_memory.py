#!/usr/bin/env python3
"""Memory of the training step, as the library's ``train`` runs it.

Trains a seed-0 DNet for a few steps on synthetic images and prints what
a step holds: the parameters, Adam's moments (m and v), the tape of one
recorded forward (its node count and the bytes of the node outputs), the
tracemalloc peak of each step (everything numpy holds, parameters
included), and the growth of the process's ru_maxrss over the run.
Tracing starts before the model is built, so a step's traced peak is the
live total at its high-water mark. Step 0 also allocates Adam's moments;
later steps show what one step holds on top of the last.

    PYTHONPATH=src python scripts/step_memory.py --channels-scale 1.0 --conv gemm
"""

import argparse
import resource
import sys
import tracemalloc

import numpy as np

from dnet.convops import using_deterministic
from dnet.losses import total_loss
from dnet.model import DNet, DNetConfig
from dnet.tensor import Tensor, default_dtype, recording
from dnet.training import TrainConfig, synth_vessels, train

MB = 1e6


def rss_mb() -> float:
    """ru_maxrss of this process, in MB (Linux reports kilobytes)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / MB


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--channels-scale", type=float, default=1.0)
    ap.add_argument("--size", type=int, default=64, help="square image side, a multiple of 16")
    ap.add_argument("--batch", type=int, default=4)
    ap.add_argument("--steps", type=int, default=3)
    ap.add_argument("--conv", choices=("exact", "gemm"), default="gemm")
    args = ap.parse_args()

    tracemalloc.start()
    data = synth_vessels(0, args.batch, args.size, args.size)
    model = DNet(DNetConfig(channels_scale=args.channels_scale), seed=0)
    cfg = TrainConfig(max_iter=args.steps, batch=args.batch, lr=1e-3)
    params = list(model.parameters().values())
    param_bytes = sum(p.data.nbytes for p in params)
    peaks = []

    def on_step(step, loss):
        peaks.append(tracemalloc.get_traced_memory()[1])
        tracemalloc.reset_peak()
        return False

    rss_before = rss_mb()
    tracemalloc.reset_peak()
    with using_deterministic(args.conv == "exact"):
        train(data, model, cfg, on_step)
        rss_after = rss_mb()
        x, y = (Tensor(np.stack(arrays).astype(default_dtype())) for arrays in zip(*data))
        with recording() as graph:
            total_loss(model.forward(x), y, model.kernel_parameters(), cfg.lam, cfg.beta)
    tape_bytes = sum(node.output.data.nbytes for node in graph.nodes)

    print(f"config: channels_scale={args.channels_scale} size={args.size} "
          f"batch={args.batch} conv={args.conv} steps={args.steps}")
    print(f"parameters: {len(params)} tensors, {param_bytes / MB:.1f} MB")
    print(f"adam state (m, v): {2 * param_bytes / MB:.1f} MB")
    print(f"tape: {len(graph.nodes)} nodes, {tape_bytes / MB:.1f} MB of outputs")
    for step, peak in enumerate(peaks):
        print(f"step {step}: traced peak {peak / MB:.1f} MB")
    print(f"ru_maxrss: {rss_before:.1f} MB before training, {rss_after:.1f} MB after "
          f"{len(peaks)} steps (+{rss_after - rss_before:.1f} MB)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
