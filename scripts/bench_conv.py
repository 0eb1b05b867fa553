#!/usr/bin/env python3
"""Micro-benchmark: conv2d forward and backward per shape, in both modes.

The deterministic (tap-ordered) forward is the correctness reference,
bit-identical to the naive loop; the GEMM forward trades that guarantee for
BLAS throughput. Each forward has two helpers, timed on their own so that
conv2d's shape rule can be checked on every case, from the unpadded
input:

* ``stacked`` and ``c-first`` are the tap-ordered helpers (``stacked``
  folds each tap's products for all input channels in a bounded stack;
  ``c-first`` adds one (tap, input channel) product at a time as one flat
  slice over the whole batch of a channel-first copy of the input split
  into the stride phases of its padded grid); ``det fwd`` is conv2d's
  forward, which runs the helper named by ``det pick`` (channel-first
  from ``convops._CHANNEL_FIRST_PIXELS`` output pixels, n * ho * wo, on)
  and should track the smaller of the two. They must give the same bytes
  on every case; the script exits 1 if they do not, so it doubles as a
  smoke check of the exact forward.
* ``shifted`` (one GEMM per tap on shifted row slices of bands of padded
  rows that it fills from the unpadded input, stride 1 only; ``-``
  otherwise) and ``i2c fwd`` (one GEMM over the whole im2col column
  matrix, filled from each tap's window of the unpadded input) are the
  GEMM lowerings; ``gemm fwd`` is the one conv2d picks (shifted when the
  stride is 1 and the padded grid is at most 1.25x the output grid, and
  one GEMM without either lowering for an unpadded unit-stride 1x1
  kernel) and should track the smaller of the two.

The backward rule is the same GEMM-shaped code in both modes, with two
helpers of its own, also timed on their own:

* ``sh bwd`` (one GEMM pair per tap on shifted row slices of the flat
  padded input, stride 1 only; ``-`` otherwise) and ``i2c bwd`` (the
  input gradient added tap by tap over each tap's window, the weight
  gradient one GEMM over the whole im2col column matrix); ``bwd`` is
  conv2d's recorded rule, which picks by the forward's shape rule
  (shifted when the stride is 1 and the padded grid is at most 1.25x the
  output grid) and should track the smaller of the two. Both helpers must give the same gradients to
  ``100 * eps`` of the sum of absolute products each element adds up, the
  tolerance of the per-tap oracle in the tests; the script exits 1 if they
  do not.

The helper columns run the whole kernel; ``det fwd``, ``gemm fwd`` and
``bwd`` go through conv2d, which runs only the taps that read the input.
On a dilated kernel whose outer taps read only padding, such as the
dilation-4 cases on 4x4 maps, those columns therefore time the trimmed
kernel beside the helpers' whole one.

Times are medians in ms; a jump in one against an earlier run is a
shape-level regression. ``gemm MB`` is the peak that ``tracemalloc`` sees
during one GEMM forward: bounded bands on shifted slices, the whole column
matrix on im2col, so a jump there is a shape-level memory regression;
``max diff`` is the largest forward difference between the modes.

A second table times conv2d over a tuple of parts, which it reads in
place, beside concatenating the parts first and running conv2d on the
copy, in GEMM mode: ``parts`` and ``concat`` are median ms, the ``MB``
columns ``tracemalloc``'s peak of each, the inputs excluded. The two must
give the same bytes; the script exits 1 if they do not.

A third table times the depthwise convolution on MSIF's shapes at
576x576 (the three deep stage outputs as parts, at each branch's rate):
``windowed``, the forward, which adds each tap's product over the window
of the input it reads, in row bands and in place, beside ``padded``, the
same sum over a whole padded copy of the input, with each one's
``tracemalloc`` peak, the inputs excluded. The two must give the same
bytes; the script exits 1 if they do not. Run from the repository root:

    PYTHONPATH=src python scripts/bench_conv.py
"""

import sys
import time
import tracemalloc

import numpy as np

from dnet import convops
from dnet.convops import ConvKernel, conv2d, depthwise_conv2d, same_pads, using_deterministic
from dnet.tensor import Tensor, recording

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
    (4, 4, 4, 256, 256, 3, 4, 1),  # full-width block 4, unit 3, at 64x64: trims to its centre tap
    (4, 4, 4, 128, 32, 1, 1, 1),  # MSIF mix at 1/16
    (4, 4, 4, 16, 32, 1, 1, 1),  # bottleneck expand at 1/16
    (4, 1, 1, 128, 32, 1, 1, 1),  # MSIF image-pool branch
    (4, 16, 16, 8, 16, 1, 1, 1),  # bottleneck expand at 1/4
    (4, 64, 64, 4, 1, 1, 1, 1),  # head
]

PARTS_CASES = [
    # (batch, height, width, channels per part, cout, k)
    (1, 288, 288, (64, 64), 64, 3),  # full-width decoder fuse3 at 576x576: up3 and skip2
]

DEPTHWISE_CASES = [
    # (batch, height, width, channels per part, dilation)
    (1, 36, 36, (256, 512, 256), 3),  # MSIF branches 1-3 at 576x576, over b3, b4, b5
    (1, 36, 36, (256, 512, 256), 6),
    (1, 36, 36, (256, 512, 256), 12),
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
    """Median ms of one forward helper, called as helper(x, kern, out) with
    the unpadded input and a zero output, and the bytes of its output."""
    ho, wo = convops._gather_frame("conv2d", x.shape, kern)
    shape = (x.shape[0], ho, wo, kern.out_channels)
    ms = median_ms(lambda: helper(x.data, kern, np.zeros(shape, x.dtype)))
    out = np.zeros(shape, x.dtype)
    helper(x.data, kern, out)
    return ms, out.tobytes()


def exact_helper(exact):
    """A tap-ordered helper, which adds the taps into ``out``."""
    return lambda x, kern, out: exact((x,), kern.weight.data, kern.dilation, kern.stride,
                                      kern.padding, out)


def exact_pick(x, kern) -> str:
    """The column label of the tap-ordered helper that conv2d runs on the
    case, ``-`` when it runs neither (no kernel tap reads the input)."""
    helpers = {"stacked": convops._exact_stacked, "c-first": convops._exact_channel_first}
    taken = []
    for label, helper in helpers.items():
        setattr(convops, helper.__name__,
                lambda *args, _h=helper, _l=label: taken.append(_l) or _h(*args))
    try:
        with using_deterministic(True):
            conv2d(x, kern)
    finally:
        for helper in helpers.values():
            setattr(convops, helper.__name__, helper)
    return taken[0] if taken else "-"


def shifted_gemm(x, kern, out) -> None:
    """The stride-1 GEMM forward, which fills its padded rows from ``x``."""
    convops._shifted_gemm((x,), kern.weight.data, kern.dilation, kern.padding, out)


def im2col_gemm(x, kern, out) -> None:
    """The GEMM forward's whole-matrix branch in ``convops._dense``."""
    w = kern.weight.data
    kh, kw, _, cout = w.shape
    _, ho, wo, _ = out.shape
    cols = convops._im2col((x,), kh, kw, kern.dilation, kern.stride, kern.padding, ho, wo)
    np.matmul(cols, w.reshape(-1, cout), out=out.reshape(-1, cout))


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
    xs = (x.data,)
    i2c = median_ms(lambda: convops._im2col_grads(xs, w, d, s, upstream, x.shape, pads))
    if s != 1:
        return None, i2c, True
    xp = convops._pad_input(x.data, pads)
    shifted = median_ms(lambda: convops._shifted_grads(xp, w, d, upstream, x.shape, pads))
    got = convops._shifted_grads(xp, w, d, upstream, x.shape, pads)
    want = convops._im2col_grads(xs, w, d, s, upstream, x.shape, pads)
    scale = convops._im2col_grads((np.abs(x.data),), np.abs(w), d, s, np.abs(upstream),
                                  x.shape, pads)
    tol = 100 * np.finfo(x.dtype).eps
    agree = all(np.all(np.abs(a - b) <= tol * c) for a, b, c in zip(got, want, scale))
    return shifted, i2c, agree


def gemm_peak_mb(forward) -> float:
    """Peak traced allocation of one GEMM forward, in MB."""
    with using_deterministic(False):
        tracemalloc.start()
        try:
            forward()
            return tracemalloc.get_traced_memory()[1] / 2**20
        finally:
            tracemalloc.stop()


def parts_table(rng) -> list[str]:
    """Print conv2d over parts beside concat + conv2d; return the labels of
    the cases whose outputs differ."""
    print(f"\n{'case':>34} {'parts':>8} {'concat':>8} {'parts MB':>9} {'concat MB':>10}")
    differing = []
    for n, h, w, widths, cout, k in PARTS_CASES:
        parts = tuple(Tensor(rng.normal(size=(n, h, w, c)).astype(np.float32)) for c in widths)
        kern = ConvKernel(
            Tensor(rng.normal(size=(k, k, sum(widths), cout)).astype(np.float32)),
            Tensor(rng.normal(size=(1, 1, 1, cout)).astype(np.float32)),
            padding=same_pads(k), relu=True,
        )

        def concat_conv():
            return conv2d(Tensor(np.concatenate([p.data for p in parts], axis=3)), kern)

        with using_deterministic(False):
            ms = median_ms(lambda: conv2d(parts, kern)), median_ms(concat_conv)
            same = conv2d(parts, kern).data.tobytes() == concat_conv().data.tobytes()
        peaks = gemm_peak_mb(lambda: conv2d(parts, kern)), gemm_peak_mb(concat_conv)
        label = f"{n}x{h}x{w}x({'+'.join(map(str, widths))})->{cout} k{k}"
        if not same:
            differing.append(label)
        print(f"{label:>34} {ms[0]:8.2f} {ms[1]:8.2f} {peaks[0]:9.1f} {peaks[1]:10.1f}")
    return differing


def padded_depthwise(parts, kern) -> np.ndarray:
    """The depthwise forward over a whole padded copy of the joined parts:
    the bias, then each tap's product with its view of the copy."""
    xp = convops._pad_input(tuple(p.data for p in parts), kern.padding)
    w, d = kern.weight.data[..., 0], kern.dilation
    ho, wo = xp.shape[1] - 2 * d, xp.shape[2] - 2 * d
    out = np.empty((xp.shape[0], ho, wo, xp.shape[3]), dtype=xp.dtype)
    out[...] = kern.bias.data
    for a, b in np.ndindex(*w.shape[:2]):
        out += xp[:, a * d : a * d + ho, b * d : b * d + wo] * w[a, b]
    return out


def depthwise_table(rng) -> list[str]:
    """Print the windowed depthwise forward beside the padded one; return
    the labels of the cases whose outputs differ."""
    print(f"\n{'case':>34} {'windowed':>9} {'padded':>8} {'win MB':>7} {'pad MB':>7}")
    differing = []
    for n, h, w, widths, d in DEPTHWISE_CASES:
        parts = tuple(Tensor(rng.normal(size=(n, h, w, c)).astype(np.float32)) for c in widths)
        c = sum(widths)
        kern = ConvKernel(Tensor(rng.normal(size=(3, 3, c, 1)).astype(np.float32)),
                          Tensor(rng.normal(size=(1, 1, 1, c)).astype(np.float32)),
                          1, d, same_pads(3, d))
        ms = (median_ms(lambda: depthwise_conv2d(parts, kern)),
              median_ms(lambda: padded_depthwise(parts, kern)))
        peaks = (gemm_peak_mb(lambda: depthwise_conv2d(parts, kern)),
                 gemm_peak_mb(lambda: padded_depthwise(parts, kern)))
        label = f"{n}x{h}x{w}x({'+'.join(map(str, widths))}) dw k3 d{d}"
        if depthwise_conv2d(parts, kern).data.tobytes() != padded_depthwise(parts, kern).tobytes():
            differing.append(label)
        print(f"{label:>34} {ms[0]:9.2f} {ms[1]:8.2f} {peaks[0]:7.1f} {peaks[1]:7.1f}")
    return differing


def main() -> int:
    rng = np.random.default_rng(0)
    mismatched, disagreeing = [], []
    print(
        f"{'case':>34} {'stacked':>8} {'c-first':>8} {'det pick':>8} {'det fwd':>9} "
        f"{'shifted':>8} {'i2c fwd':>8} {'gemm fwd':>9} {'speedup':>8} "
        f"{'sh bwd':>8} {'i2c bwd':>8} {'bwd':>8} {'gemm MB':>8} {'max diff':>10}"
    )
    for n, h, w, cin, cout, k, d, s in CASES:
        x = Tensor(rng.normal(size=(n, h, w, cin)).astype(np.float32), requires_grad=True)
        kern = ConvKernel(
            Tensor(rng.normal(size=(k, k, cin, cout)).astype(np.float32), requires_grad=True),
            Tensor(rng.normal(size=(1, 1, 1, cout)).astype(np.float32), requires_grad=True),
            s, d, same_pads(k, d, s),
        )
        stacked, stacked_bytes = helper_run(x, kern, exact_helper(convops._exact_stacked))
        cfirst, cfirst_bytes = helper_run(x, kern, exact_helper(convops._exact_channel_first))
        shifted = f"{helper_run(x, kern, shifted_gemm)[0]:8.2f}" if s == 1 else f"{'-':>8}"
        i2c_fwd = helper_run(x, kern, im2col_gemm)[0]
        ho, wo = conv2d(x, kern).shape[1:3]
        upstream = rng.normal(size=(n, ho, wo, cout)).astype(x.dtype)
        pick = exact_pick(x, kern)
        det_fwd, ref = time_case(x, kern, True)
        gemm_fwd, fast = time_case(x, kern, False)
        sh_bwd, i2c_bwd, agree = backward_runs(x, kern, upstream)
        sh_bwd = f"{sh_bwd:8.2f}" if sh_bwd is not None else f"{'-':>8}"
        bwd = rule_ms(x, kern, upstream)
        peak = gemm_peak_mb(lambda: conv2d(x, kern))
        diff = float(np.abs(ref - fast).max())
        label = f"{n}x{h}x{w}x{cin}->{cout} k{k} d{d} s{s}"
        if stacked_bytes != cfirst_bytes:
            mismatched.append(label)
        if not agree:
            disagreeing.append(label)
        print(
            f"{label:>34} {stacked:8.2f} {cfirst:8.2f} {pick:>8} {det_fwd:9.2f} {shifted} "
            f"{i2c_fwd:8.2f} {gemm_fwd:9.2f} {det_fwd / gemm_fwd:8.1f} "
            f"{sh_bwd} {i2c_bwd:8.2f} {bwd:8.2f} {peak:8.1f} {diff:10.2e}"
        )
    differing = parts_table(rng)
    dw_differing = depthwise_table(rng)
    for label in mismatched:
        print(f"error: the two exact forward helpers differ on {label}", file=sys.stderr)
    for label in disagreeing:
        print(f"error: the two backward helpers' gradients differ on {label}", file=sys.stderr)
    for label in differing:
        print(f"error: conv2d over parts and over their concatenation differ on {label}",
              file=sys.stderr)
    for label in dw_differing:
        print(f"error: the windowed and padded depthwise forwards differ on {label}",
              file=sys.stderr)
    return 1 if mismatched or disagreeing or differing or dw_differing else 0


if __name__ == "__main__":
    sys.exit(main())
