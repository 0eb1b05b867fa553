#!/usr/bin/env python3
"""Micro-benchmark: conv2d forward and backward per shape, in both modes.

The deterministic (tap-ordered) forward is the correctness reference,
bit-identical to the naive loop; the GEMM forward trades that guarantee for
BLAS throughput. The backward rule is the same GEMM-shaped code in both
modes, so its two columns should agree; a gap between them, or a jump in
either against an earlier run, is a shape-level regression. Times are
medians in ms; ``gemm MB`` is the peak that ``tracemalloc`` sees during one
GEMM forward, which lowers bounded bands of output rows, so a jump there is
a shape-level memory regression; ``max diff`` is the largest forward
difference between the modes. Run from the repository root:

    PYTHONPATH=src python scripts/bench_conv.py
"""

import sys
import time
import tracemalloc

import numpy as np

from dnet.convops import ConvKernel, conv2d, same_pads, using_deterministic
from dnet.tensor import recording, tensor

CASES = [
    # (batch, height, width, cin, cout, k, dilation)
    (1, 64, 64, 8, 8, 3, 1),
    (1, 32, 32, 32, 32, 3, 1),
    (1, 16, 16, 64, 64, 3, 1),
    (1, 4, 4, 256, 256, 3, 2),
    (1, 64, 64, 3, 32, 3, 1),
    (4, 32, 32, 128, 64, 3, 1),  # full-width decoder, 1/2 resolution
    (4, 64, 64, 32, 32, 3, 1),  # full-width decoder, full resolution
    (4, 4, 4, 1024, 256, 1, 1),  # full-width 1x1 reduce at 1/16
    (1, 128, 128, 64, 64, 3, 1),  # whole column matrix 36 MB in float32
]


def median_ms(fn, budget_s: float = 0.5, min_repeats: int = 3) -> float:
    """Median wall time of fn() after one warm-up call."""
    fn()
    times = []
    start = time.perf_counter()
    while len(times) < min_repeats or time.perf_counter() - start < budget_s:
        t0 = time.perf_counter()
        fn()
        times.append(time.perf_counter() - t0)
    return float(np.median(times)) * 1e3


def time_case(x, kern, upstream, deterministic: bool) -> tuple[float, float, np.ndarray]:
    """Forward ms, backward-rule ms and the forward output in one mode."""
    with using_deterministic(deterministic):
        fwd = median_ms(lambda: conv2d(x, kern))
        with recording() as graph:
            y = conv2d(x, kern)
        rule = graph.nodes[-1].backward
        bwd = median_ms(lambda: rule(upstream))
    return fwd, bwd, y.data


def gemm_peak_mb(x, kern) -> float:
    """Peak traced allocation of one GEMM forward, in MB."""
    with using_deterministic(False):
        tracemalloc.start()
        try:
            conv2d(x, kern)
            return tracemalloc.get_traced_memory()[1] / 2**20
        finally:
            tracemalloc.stop()


def main() -> int:
    rng = np.random.default_rng(0)
    print(
        f"{'case':>30} {'det fwd':>9} {'gemm fwd':>9} {'speedup':>8} "
        f"{'det bwd':>9} {'gemm bwd':>9} {'gemm MB':>8} {'max diff':>10}"
    )
    for n, h, w, cin, cout, k, d in CASES:
        x = tensor(rng.normal(size=(n, h, w, cin)), requires_grad=True)
        kern = ConvKernel(
            tensor(rng.normal(size=(k, k, cin, cout)), requires_grad=True),
            tensor(rng.normal(size=(1, 1, 1, cout)), requires_grad=True),
            1, d, same_pads(k, d),
        )
        upstream = rng.normal(size=(n, h, w, cout)).astype(x.dtype)
        det_fwd, det_bwd, ref = time_case(x, kern, upstream, True)
        gemm_fwd, gemm_bwd, fast = time_case(x, kern, upstream, False)
        peak = gemm_peak_mb(x, kern)
        diff = float(np.abs(ref - fast).max())
        label = f"{n}x{h}x{w}x{cin}->{cout} k{k} d{d}"
        print(
            f"{label:>30} {det_fwd:9.2f} {gemm_fwd:9.2f} {det_fwd / gemm_fwd:8.1f} "
            f"{det_bwd:9.2f} {gemm_bwd:9.2f} {peak:8.1f} {diff:10.2e}"
        )
    return 0


if __name__ == "__main__":
    sys.exit(main())
