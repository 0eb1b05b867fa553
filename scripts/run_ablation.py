#!/usr/bin/env python3
"""Dilation / fusion ablation on synthetic vessel data.

Trains the configured grid of (dilation triple, fusion on/off) variants over
several seeds, evaluates held-out F1, and prints one CSV row per run plus
per-config means. Distractor blobs make brightness alone insufficient, so
context (receptive field, multi-scale fusion) has something to contribute.
"""

import argparse
import sys
import time

import numpy as np

from dnet.convops import using_deterministic
from dnet.model import DNet, DNetConfig
from dnet.training import TrainConfig, evaluate, synth_vessels, train

GRID = [
    ((1, 1, 1), False),
    ((1, 1, 1), True),
    ((1, 2, 3), True),
    ((1, 2, 4), False),
    ((1, 2, 4), True),
]


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--seeds", type=int, default=3)
    ap.add_argument("--images", type=int, default=32)
    ap.add_argument("--holdout", type=int, default=8)
    ap.add_argument("--size", type=int, default=64)
    ap.add_argument("--steps", type=int, default=300)
    ap.add_argument("--lr", type=float, default=3e-3)
    ap.add_argument("--scale", type=float, default=0.125)
    ap.add_argument("--distractors", type=int, default=6)
    ap.add_argument("--out", help="optional CSV path for the per-run rows")
    args = ap.parse_args()

    rows = [("dilations", "msif", "seed", "holdout_f1", "seconds")]
    means = {}
    with using_deterministic(False):
        for dilations, msif in GRID:
            scores = []
            for seed in range(args.seeds):
                data = synth_vessels(
                    100 + seed, args.images, args.size, args.size,
                    distractors=args.distractors,
                )
                split = args.images - args.holdout
                cfg = DNetConfig(
                    dilations=dilations, msif_enabled=msif, channels_scale=args.scale
                )
                model = DNet(cfg, seed=seed)
                t0 = time.time()
                train(
                    data[:split], model,
                    TrainConfig(lr=args.lr, max_iter=args.steps, seed=seed),
                )
                rep, _ = evaluate(model, data[split:])
                dt = time.time() - t0
                scores.append(rep.f1)
                rows.append((dilations, msif, seed, f"{rep.f1:.4f}", f"{dt:.0f}"))
                print(f"{dilations} msif={msif} seed={seed}: held-out F1 {rep.f1:.4f} ({dt:.0f}s)")
            means[(dilations, msif)] = float(np.mean(scores))

    print("\nmean held-out F1 over seeds:")
    for (dilations, msif), value in means.items():
        print(f"  {dilations} msif={msif}: {value:.4f}")

    if args.out:
        with open(args.out, "w") as fh:
            for row in rows:
                fh.write(",".join(str(v) for v in row) + "\n")
        print(f"wrote {args.out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
