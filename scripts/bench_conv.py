#!/usr/bin/env python3
"""Micro-benchmark: conv2d forward and backward per shape, in both modes.

The deterministic (tap-ordered) forward is the correctness reference,
bit-identical to the naive loop; the GEMM forward trades that guarantee for
BLAS throughput. Each forward has two helpers, timed on their own from the
padded input so that conv2d's shape rule can be checked on every case:

* ``stacked`` and ``c-first`` are the tap-ordered helpers; ``det fwd`` is
  the one conv2d picks (channel-first when ``cout < wo``) and should track
  the smaller of the two. They must give the same bytes on every case; the
  script exits 1 if they do not, so it doubles as a smoke check of the
  exact forward.
* ``shifted`` (one GEMM per tap on shifted row slices, stride 1 only; ``-``
  otherwise) and ``banded`` (one im2col GEMM per band of output rows) are
  the GEMM helpers; ``gemm fwd`` is the one conv2d picks (shifted when the
  stride is 1 and the padded grid is at most 1.25x the output grid, and
  one GEMM without either helper for an unpadded unit-stride 1x1 kernel)
  and should track the smaller of the two.

The backward rule is the same GEMM-shaped code in both modes, with two
helpers of its own, also timed on their own:

* ``sh bwd`` (one GEMM pair per tap on shifted row slices of the flat
  padded input, stride 1 only; ``-`` otherwise) and ``i2c bwd`` (the
  input gradient scattered tap by tap, the weight gradient one GEMM over
  the whole im2col column matrix); ``bwd`` is conv2d's recorded rule,
  which picks by the forward's shape rule (shifted when the stride is 1
  and the padded grid is at most 1.25x the output grid) and should track
  the smaller of the two. Both helpers must give the same gradients to
  ``100 * eps`` of the sum of absolute products each element adds up, the
  tolerance of the per-tap oracle in the tests; the script exits 1 if they
  do not.

Times are medians in ms; a jump in one against an earlier run is a
shape-level regression. ``gemm MB`` is the peak that ``tracemalloc`` sees
during one GEMM forward, whose helpers work in bounded bands of output
rows, so a jump there is a shape-level memory regression; ``max diff`` is
the largest forward difference between the modes. Run from the repository
root:

    PYTHONPATH=src python scripts/bench_conv.py
"""

import sys
import time
import tracemalloc

import numpy as np

from dnet import convops
from dnet.convops import ConvKernel, conv2d, same_pads, using_deterministic
from dnet.tensor import recording, tensor

CASES = [
    # (batch, height, width, cin, cout, k, dilation, stride)
    (1, 64, 64, 8, 8, 3, 1, 1),
    (1, 32, 32, 32, 32, 3, 1, 1),
    (1, 16, 16, 64, 64, 3, 1, 1),
    (1, 4, 4, 256, 256, 3, 2, 1),
    (1, 64, 64, 3, 32, 3, 1, 1),
    (4, 32, 32, 128, 64, 3, 1, 1),  # full-width decoder, 1/2 resolution
    (4, 32, 32, 32, 64, 3, 1, 1),  # full-width decoder, 1/2 resolution, second conv
    (4, 64, 64, 32, 32, 3, 1, 1),  # full-width decoder, full resolution
    (4, 4, 4, 1024, 256, 1, 1, 1),  # full-width 1x1 reduce at 1/16
    (1, 128, 128, 64, 64, 3, 1, 1),  # whole column matrix 36 MB in float32
    # around the GEMM forward's shape rule: padded grid / output grid
    (1, 36, 36, 128, 128, 3, 2, 1),  # full-width block 4, unit 2, at 576x576: 1.23
    (1, 36, 36, 256, 256, 3, 4, 1),  # full-width block 5, unit 3, at 576x576: 1.49
    (4, 16, 16, 64, 64, 3, 1, 1),  # full-width block 2 at 64x64: 1.27
    # desk scale (channels_scale 0.125, 64x64, batch 4), the exact forward's
    # shapes on both sides of the shape rule
    (4, 64, 64, 3, 4, 3, 1, 2),  # root.conv1
    (4, 64, 64, 4, 4, 3, 1, 1),  # decoder, full resolution
    (4, 32, 32, 16, 8, 3, 1, 1),  # decoder, 1/2 resolution
    (4, 16, 16, 8, 8, 3, 1, 1),  # block 1 spatial
    (4, 8, 8, 32, 16, 3, 1, 1),  # decoder, 1/8 resolution
    (4, 4, 4, 32, 32, 3, 4, 1),  # block 5 spatial
    (4, 4, 4, 128, 32, 1, 1, 1),  # MSIF mix at 1/16
    (4, 4, 4, 16, 32, 1, 1, 1),  # bottleneck expand at 1/16
    (4, 1, 1, 128, 32, 1, 1, 1),  # MSIF image-pool branch
    (4, 16, 16, 8, 16, 1, 1, 1),  # bottleneck expand at 1/4
    (4, 64, 64, 4, 1, 1, 1, 1),  # head
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


def helper_run(x, kern, helper) -> tuple[float, bytes]:
    """Median ms of one forward helper, called as helper(xp, w, d, s, out)
    on the padded input, and the bytes of its output."""
    w = kern.weight.data
    xp, ho, wo = convops._gather_frame("conv2d", x, kern)
    shape = (x.shape[0], ho, wo, w.shape[3])
    ms = median_ms(lambda: helper(xp, w, kern.dilation, kern.stride, np.zeros(shape, x.dtype)))
    out = np.zeros(shape, x.dtype)
    helper(xp, w, kern.dilation, kern.stride, out)
    return ms, out.tobytes()


def shifted_gemm(xp, w, d, s, out) -> None:
    convops._shifted_gemm(xp, w, d, out)


def time_case(x, kern, deterministic: bool) -> tuple[float, np.ndarray]:
    """Forward ms and the forward output in one mode."""
    with using_deterministic(deterministic):
        return median_ms(lambda: conv2d(x, kern)), conv2d(x, kern).data


def rule_ms(x, kern, upstream) -> float:
    """Median ms of conv2d's recorded backward rule."""
    with recording() as graph:
        conv2d(x, kern)
    rule = graph.nodes[-1].backward
    return median_ms(lambda: rule(upstream))


def backward_runs(x, kern, upstream) -> tuple[float | None, float, bool]:
    """Median ms of the shifted backward helper (None unless the stride is 1)
    and of the im2col one, and whether their input and weight gradients
    agree to the per-tap oracle's tolerance."""
    w, d, s, pads = kern.weight.data, kern.dilation, kern.stride, kern.padding
    xp, _, _ = convops._gather_frame("conv2d", x, kern)
    i2c = median_ms(lambda: convops._im2col_grads(xp, w, d, s, upstream, x.shape, pads))
    if s != 1:
        return None, i2c, True
    shifted = median_ms(lambda: convops._shifted_grads(xp, w, d, upstream, x.shape, pads))
    got = convops._shifted_grads(xp, w, d, upstream, x.shape, pads)
    want = convops._im2col_grads(xp, w, d, s, upstream, x.shape, pads)
    scale = convops._im2col_grads(np.abs(xp), np.abs(w), d, s, np.abs(upstream), x.shape, pads)
    tol = 100 * np.finfo(x.dtype).eps
    agree = all(np.all(np.abs(a - b) <= tol * c) for a, b, c in zip(got, want, scale))
    return shifted, i2c, agree


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
    mismatched, disagreeing = [], []
    print(
        f"{'case':>34} {'stacked':>8} {'c-first':>8} {'det fwd':>9} {'shifted':>8} "
        f"{'banded':>8} {'gemm fwd':>9} {'speedup':>8} "
        f"{'sh bwd':>8} {'i2c bwd':>8} {'bwd':>8} {'gemm MB':>8} {'max diff':>10}"
    )
    for n, h, w, cin, cout, k, d, s in CASES:
        x = tensor(rng.normal(size=(n, h, w, cin)), requires_grad=True)
        kern = ConvKernel(
            tensor(rng.normal(size=(k, k, cin, cout)), requires_grad=True),
            tensor(rng.normal(size=(1, 1, 1, cout)), requires_grad=True),
            s, d, same_pads(k, d, s),
        )
        stacked, stacked_bytes = helper_run(x, kern, convops._exact_stacked)
        cfirst, cfirst_bytes = helper_run(x, kern, convops._exact_channel_first)
        shifted = f"{helper_run(x, kern, shifted_gemm)[0]:8.2f}" if s == 1 else f"{'-':>8}"
        banded = helper_run(x, kern, convops._banded_gemm)[0]
        ho, wo = conv2d(x, kern).shape[1:3]
        upstream = rng.normal(size=(n, ho, wo, cout)).astype(x.dtype)
        det_fwd, ref = time_case(x, kern, True)
        gemm_fwd, fast = time_case(x, kern, False)
        sh_bwd, i2c_bwd, agree = backward_runs(x, kern, upstream)
        sh_bwd = f"{sh_bwd:8.2f}" if sh_bwd is not None else f"{'-':>8}"
        bwd = rule_ms(x, kern, upstream)
        peak = gemm_peak_mb(x, kern)
        diff = float(np.abs(ref - fast).max())
        label = f"{n}x{h}x{w}x{cin}->{cout} k{k} d{d} s{s}"
        if stacked_bytes != cfirst_bytes:
            mismatched.append(label)
        if not agree:
            disagreeing.append(label)
        print(
            f"{label:>34} {stacked:8.2f} {cfirst:8.2f} {det_fwd:9.2f} {shifted} "
            f"{banded:8.2f} {gemm_fwd:9.2f} {det_fwd / gemm_fwd:8.1f} "
            f"{sh_bwd} {i2c_bwd:8.2f} {bwd:8.2f} {peak:8.1f} {diff:10.2e}"
        )
    for label in mismatched:
        print(f"error: the two exact forward helpers differ on {label}", file=sys.stderr)
    for label in disagreeing:
        print(f"error: the two backward helpers' gradients differ on {label}", file=sys.stderr)
    return 1 if mismatched or disagreeing else 0


if __name__ == "__main__":
    sys.exit(main())
