"""Convolution-family operators: standard/dilated and depthwise
convolution, max pooling, transposed convolution and global average
pooling, each with a reverse-mode rule.

All operators use the (batch, height, width, channels) layout and zero
padding; out-of-range taps contribute nothing. The strided operators share
one tap engine, ``_windows``: kernel tap (a, b) reads the unpadded input in
place over the rectangle of outputs at which it reaches it (``_reach``),
so no product with the padding is formed. ``_im2col`` lays the taps'
windows side by side in a zero column matrix; ``_spread`` adds one 2-D
``g @ w[a, b].T`` product per tap into zeros of the input's shape, which
is the input gradient of a conv2d that does not run on shifted row slices
(below) and, for a kernel with its channel axes swapped, the whole
transposed-convolution forward; ``_dense`` is the dense convolution
forward. Only that forward has two execution strategies:

* tap-ordered accumulation (default, ``deterministic`` mode): the output is
  built by adding one (kernel row, kernel col, input channel) tap at a time,
  which reproduces, element for element, the arithmetic of a naive
  sliding-window loop. Inserting explicit zeros between kernel taps then
  changes nothing, so dilation equals zero-insertion exactly, not just to
  tolerance. One of two helpers is picked by the output's pixel count
  over the batch (``_CHANNEL_FIRST_PIXELS``). On large outputs,
  ``_exact_channel_first`` copies the unpadded input once, channel first,
  into the s x s stride phases of its padded grid (polyphase, as in
  sub-pixel convolution), each (phase, channel) plane of the whole batch
  one flat contiguous run. Every tap then reads one phase at one offset,
  so each (tap, channel) product is one contiguous multiply and add over
  the whole batch, the shifted-slice idea of the stride-1 GEMM below
  carried over to any stride; the products that land past a row's end or
  between images are discarded. On small ones, where Python dispatch is
  the cost, ``_exact_stacked`` pads the input and writes each tap's
  products for all input channels with one multiply into a bounded stack
  that one reduce over its leading axis folds, row by row as numpy runs
  it: O(taps) numpy calls instead of O(taps x channels).
  Either way each output element sees the same multiplies and adds in the
  same order, so the result stays bit-identical to the naive loop.
* GEMM fast path (``using_deterministic(False)``): same math, BLAS
  reduction order, so results agree with the tap-ordered path only to
  floating-point tolerance. It is therefore gated out of deterministic mode
  rather than offered as a bit-exact replacement. One of two lowerings is
  picked by shape (``_shifts``). A stride-1 kernel whose padded input grid
  is at most 1.25x its output grid runs ``_shifted_gemm``, band by band of
  whole output rows: it fills the band's padded input rows from the
  unpadded input into one reusable zero-bordered buffer, flattened to a
  (pixels, channels) matrix in which every tap reads one contiguous row
  slice, so the band is one GEMM per tap with no column copy and no padded
  copy of the input, in buffers of bounded size. Any other kernel is one
  GEMM over the whole ``_im2col`` column matrix, which grows with the image
  area: up to 11.9 MB in a full-width 576x576 forward. A 1x1 unit-stride
  kernel on an unpadded input needs neither and stays one GEMM on a
  reshape. Each GEMM writes the output itself.

Every forward writes its output through one epilogue, ``_epilogue``: the
bias is added, then a residual, then the ReLU is applied, each in place, once
per band on shifted slices and once over the map otherwise. The tap-ordered
forward and the depthwise convolution start from the bias instead, so it
is the first term of their sums, and skip the epilogue's bias.

conv2d and the depthwise convolution run only the window of kernel taps
that read the input (``_live_window``), forward and backward; the weight
gradient is written into zeros of the weight's shape. A dropped tap reads
only padding, so for finite weights outputs and gradients keep their bytes
(but for the sign of an all-zero sum from a bias of -0.0), and a NaN or
infinite weight on it contributes nothing. On a 64x64 crop, whose 1/16 map
is 4x4, that cuts the dilation-4 spatial convolutions of blocks 4 and 5
(unit 3) and the MSIF depthwise convolutions at rates 6 and 12 to their
centre tap, an unpadded 1x1 kernel; at 576x576 nothing is cut.

The backward rules are GEMM-shaped and the same in both modes. conv2d's
picks by the forward's shape rule. Where the forward's shifted row slices
serve, ``_shifted_grads`` reads the same slices, with the padded inputs
of the whole batch as one flat matrix, and runs one weight-gradient and
one input-gradient GEMM per tap: no column copy. That covers every
unit-stride 1x1 kernel, whose padded grid is its output grid, with one
GEMM each. Any other conv2d runs ``_im2col_grads``: the
weight gradient is one ``_im2col(...).T @ g`` product and the input
gradient is ``_spread``. Only the shifted rule pads the input again, when
it runs, so the tape holds no padded copy; every other rule, and every
forward but the small outputs' stacked exact pass, reads the unpadded
input in place through its tap windows.

conv2d, the depthwise convolution and transposed_conv take their input as
one tensor or as a tuple of parts whose channels they read in order: the
bytes of the parts' concatenation, without its copy. ``_pad_input`` writes
each part into its channel slice of the stacked exact pass's and the
shifted rule's padded copy; the tap windows, the exact stride phases and
the shifted GEMM's band buffer are filled from each part; only the 1x1
GEMM on an unpadded map and transposed_conv join the parts, for the call.
``_parts`` hands the helpers every part as an array over the whole map: a
pooled (n, 1, 1, c) part as a zero-copy broadcast view, its bilinear
upsample, whose gradient ``_split`` sums back; no helper tests a part's
shape.

A kernel with ``relu`` set fuses its ReLU into the operator's one tape
node: the output is rectified in place, so the pre-activation is never
held, and the rule masks the upstream gradient by ``out > 0`` first.
conv2d also takes a residual, added into its output in place before the
ReLU, so a residual unit's restore conv, shortcut sum and ReLU are one
node; the residual's gradient is the masked upstream gradient.
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import dataclass
from functools import lru_cache
from itertools import accumulate

import numpy as np

from .errors import ShapeError
from .tensor import Tensor, record_op

__all__ = [
    "ConvKernel",
    "deterministic_mode",
    "using_deterministic",
    "dilated_kernel_extent",
    "same_pads",
    "conv2d",
    "depthwise_conv2d",
    "max_pool",
    "transposed_conv",
    "global_avg_pool",
]

_deterministic = True

# Element budget of the bounded buffers of the conv2d forwards (4 MB in
# float32). The stride-1 GEMM forward's band buffers (its padded input rows,
# accumulator and temporary) get three eighths of it together, a band size
# that stays in a 2 MB L2 cache. Interleaved medians, ms, 2-core host,
# OpenBLAS, against 150.5 and 143.3 ms when the accumulator and temporary
# got a quarter each over a whole padded copy of the input: at 576x576
# 32->32, totals of 1, 1.5 and 2 MB ran 142.0, 136.4 and 132.9 ms; at
# 288x288 128->64, 136.7, 126.8 and 128.0 ms. The stacked exact pass's
# product stack gets a quarter: stacks of 2^16 to 2^20 elements ran the
# desk-scale shapes at about the same speed, 2^12 up to 4x slower, and the
# whole budget raised a desk step's traced peak from 6.25 to 7.08 MB. The
# im2col GEMM forward has no budget: it holds its whole column matrix.
_BAND_ELEMENTS = 1 << 20

# Output pixels (n * ho * wo) from which the exact forward runs
# ``_exact_channel_first``, not ``_exact_stacked``. Any value in (256, 1024]
# picks the faster on each desk shape of scripts/bench_conv.py; against
# ``cout < wo``, 2-core host, OpenBLAS, a full-width 4x64x64 exact forward
# went 1.07-1.48 -> 0.80-0.86 s and the desk one 18.6-19.2 -> 17.4-18.3 ms.
_CHANNEL_FIRST_PIXELS = 1024


def deterministic_mode() -> bool:
    return _deterministic


@contextmanager
def using_deterministic(flag: bool):
    """Select the tap-ordered convolution path (True) or the GEMM path."""
    global _deterministic
    previous, _deterministic = _deterministic, bool(flag)
    try:
        yield
    finally:
        _deterministic = previous


def dilated_kernel_extent(k: int, d: int) -> int:
    """Spatial extent of a k-tap kernel dilated by d: k + (k - 1)(d - 1)."""
    if k < 1 or d < 1:
        raise ShapeError(f"dilated_kernel_extent: need k, d >= 1, got k={k} d={d}")
    return k + (k - 1) * (d - 1)


def same_pads(k: int, dilation: int = 1, stride: int = 1) -> tuple[int, int, int, int]:
    """Per-side padding (top, bottom, left, right) for a square kernel.

    stride 1 preserves resolution exactly; stride s > 1 yields ceil(n/s)
    whenever the input extent is divisible by s (the only case the network
    uses, enforced by its divisible-by-16 input contract). Total padding is
    split floor/ceil between the leading and trailing side.
    """
    kd = dilated_kernel_extent(k, dilation)
    total = max(kd - stride, 0)
    lead, trail = total // 2, total - total // 2
    return (lead, trail, lead, trail)


@dataclass
class ConvKernel:
    """Learnable convolution parameters plus their geometry.

    ``weight`` is (kh, kw, in_channels, out_channels); ``bias`` is an
    optional (1, 1, 1, out_channels) tensor. ``padding`` is explicit
    per-side (top, bottom, left, right). With ``relu`` set, the operator
    that applies the kernel returns max(0, op(x)), and conv2d with a
    residual r max(0, r + conv2d(x)), from one tape node. ``name`` is the
    layer's checkpoint prefix, if any, which shape errors then name.
    """

    weight: Tensor
    bias: Tensor | None = None
    stride: int = 1
    dilation: int = 1
    padding: tuple[int, int, int, int] = (0, 0, 0, 0)
    relu: bool = False
    name: str = ""

    def __post_init__(self) -> None:
        kh, kw, cin, cout = self.weight.shape
        if kh < 1 or kw < 1:
            raise ShapeError(f"kernel spatial dims must be >= 1, got {kh}x{kw}")
        if self.stride < 1 or self.dilation < 1:
            raise ShapeError(
                f"stride and dilation must be >= 1, got s={self.stride} d={self.dilation}"
            )
        if any(p < 0 for p in self.padding):
            raise ShapeError(f"padding must be non-negative, got {self.padding}")
        # The bias dimension depends on the consuming operator (out_channels
        # for dense/transposed, in_channels for depthwise), so only its
        # layout is validated here.
        if self.bias is not None and self.bias.shape[:3] != (1, 1, 1):
            raise ShapeError(f"bias must be laid out (1,1,1,C), got {self.bias.shape}")

    @property
    def in_channels(self) -> int:
        return self.weight.shape[2]

    @property
    def out_channels(self) -> int:
        return self.weight.shape[3]


def _frame(parts) -> tuple[int, int, int, int]:
    """(n, h, w, c) map of a tuple of parts: their channels over the widest (h, w)."""
    if len(parts) == 1:
        return parts[0].shape
    return (parts[0].shape[0], max(p.shape[1] for p in parts),
            max(p.shape[2] for p in parts), sum(p.shape[3] for p in parts))


def _slices(parts):
    """(part, first channel, end channel) of each part in the map."""
    ends = accumulate([p.shape[3] for p in parts])
    return [(p, end - p.shape[3], end) for p, end in zip(parts, ends)]


def _pad_input(x, padding) -> np.ndarray:
    """``x`` grown by (top, bottom, left, right) ``padding`` rows and columns
    of zeros: the bytes of ``np.pad``'s constant mode, from one allocation
    whose every element is written once. ``x`` is an array or a tuple of
    parts (``_frame``), each written into its channel slice; one array is
    returned itself when no side is padded.
    """
    parts = x if isinstance(x, tuple) else (x,)
    pt, pb, pl, pr = padding
    if len(parts) == 1 and pt == pb == pl == pr == 0:
        return parts[0]
    n, h, w, c = _frame(parts)
    xp = np.empty((n, h + pt + pb, w + pl + pr, c), dtype=parts[0].dtype)
    xp[:, :pt] = 0.0
    xp[:, pt + h :] = 0.0
    xp[:, pt : pt + h, :pl] = 0.0
    xp[:, pt : pt + h, pl + w :] = 0.0
    for p, c0, c1 in _slices(parts):
        xp[:, pt : pt + h, pl : pl + w, c0:c1] = p
    return xp


def _epilogue(band: np.ndarray, out: np.ndarray, bias=None, residual=None,
              relu: bool = False) -> None:
    """Write ``band`` into ``out`` once as the operator's output: ``bias +
    band``, then ``residual + out``, then ``max(out, 0)``, each in place.

    ``band`` may be ``out`` itself; without a bias it is copied in as it is.
    Every convolution-family forward ends here, whole map or band by band.
    """
    if bias is not None:
        np.add(bias, band, out=out)
    elif band is not out:
        out[...] = band
    if residual is not None:
        np.add(residual, out, out=out)
    if relu:
        np.maximum(out, 0, out=out)


def _out_extent(op: str, padded: int, k_eff: int, stride: int) -> int:
    out = (padded - k_eff) // stride + 1
    if out < 1:
        raise ShapeError(
            f"{op}: non-positive output size (padded extent {padded}, "
            f"effective kernel {k_eff}, stride {stride})"
        )
    return out


def _spread(g: np.ndarray, w: np.ndarray, shape, pads, d: int, s: int) -> np.ndarray:
    """Input gradient of a dense tap gather with weight ``w`` whose output
    gradient is ``g``: tap (a, b) computes the 2-D product g @ w[a, b].T
    over the whole output grid and adds it, at the outputs of its window
    (``_windows``), into zeros of the (n, h, w, cin) ``shape`` at the input
    positions they read.
    """
    kh, kw, cin, cout = w.shape
    _, ho, wo, _ = g.shape
    g2 = g.reshape(-1, cout)
    gx = np.zeros(shape, dtype=g.dtype)
    for a, b, o, i in _windows(shape, pads, (kh, kw), d, s, 0, ho, wo):
        gx[i] += (g2 @ w[a, b].T).reshape(-1, ho, wo, cin)[o]
    return gx


def _im2col(xs: tuple, kh: int, kw: int, d: int, s: int, pads, ho: int, wo: int) -> np.ndarray:
    """Column matrix of the tap gather over the map of the unpadded parts
    ``xs`` grown by ``pads``: row (n, i, j), column (a, b, channel), zero
    where the tap reads padding."""
    n, _, _, c = shape = _frame(xs)
    cols = np.zeros((n, ho, wo, kh, kw, c), dtype=xs[0].dtype)
    for a, b, o, i in _windows(shape, pads, (kh, kw), d, s, 0, ho, wo):
        for p, c0, c1 in _slices(xs):
            cols[o][..., a, b, c0:c1] = p[i]
    return cols.reshape(n * ho * wo, -1)


def _exact_stacked(xs: tuple, w: np.ndarray, d: int, s: int, pads, out: np.ndarray) -> None:
    """Tap-ordered forward in O(taps) numpy calls over a padded copy of
    the map of the unpadded parts ``xs`` grown by ``pads``: one multiply
    writes a tap's ``cin`` product planes into rows of a stack whose row 0
    is the running output; one reduce over the leading axis folds it.

    numpy reduces a leading axis row by row, so every output element gets
    ``((out + p0) + p1) + ...`` in (kernel row, kernel col, input channel)
    order; ``initial=-0.0`` is the exact additive identity, so even a
    negative zero keeps its sign. A one-element row would be reduced along a
    contiguous axis, which numpy sums pairwise, so rows hold at least two
    elements (the second one a zero). The stack holds at most a quarter of
    ``_BAND_ELEMENTS`` elements, but at least two rows: when it is full it
    is folded into row 0 and filling resumes (a few long rows fold slowly,
    so ``_dense`` runs it on small outputs only).
    """
    kh, kw, cin, _ = w.shape
    xp, size = _pad_input(xs, pads), out.size
    width = max(size, 2)
    rows = max(2, min(1 + kh * kw * cin, _BAND_ELEMENTS // 4 // width))
    buf = np.empty((rows, width), dtype=out.dtype)
    buf[:, size:] = 0.0
    stack = buf[:, :size].reshape(rows, *out.shape)
    stack[0] = out
    r = 1
    for a, b in np.ndindex(kh, kw):
        tap = xp[:, a * d :: s, b * d :: s][:, : out.shape[1], : out.shape[2]]
        xt = tap.transpose(3, 0, 1, 2)[..., None]
        ws = w[a, b, :, None, None, None, :]  # w[a, b, m] broadcast over (n, ho, wo)
        m = 0
        while m < cin:
            k = min(cin - m, rows - r)
            np.multiply(xt[m : m + k], ws[m : m + k], out=stack[r : r + k])
            m, r = m + k, r + k
            if r == rows:
                np.add.reduce(buf, axis=0, out=buf[0], initial=-0.0)
                r = 1
    np.add.reduce(buf[:r], axis=0, out=buf[0], initial=-0.0)
    out[...] = stack[0]


def _exact_channel_first(xs: tuple, w: np.ndarray, d: int, s: int, pads,
                         out: np.ndarray) -> None:
    """The naive loop's multiplies and adds, one (kernel row, kernel col,
    input channel) tap at a time in that order, each one contiguous loop
    over the whole batch; ``out`` is written once.

    The map ``xp`` of the unpadded parts ``xs`` grown by ``pads`` is copied
    once, channel first, into its s x s stride phases: ``planes[pa, pb, c]``
    is ``xp[:, pa::s, pb::s, c]`` on a zero-filled (n, hq, wq) grid, hq and
    wq the padded extents over ``s`` rounded up, one flat contiguous run per
    (phase, channel). Phase (pa, pb) is tap (pa, pb) of an s x s, stride-s
    gather, so each part fills its window (``_windows``) and no padding is
    copied. The accumulator, seeded with ``out``, is one contiguous (cout,
    n*hq*wq) matrix on the same grid. Tap (a, b) reads phase (pa, pb) from
    qa*wq + qb on, where (qa, pa) = divmod(a*d, s) and (qb, pb) =
    divmod(b*d, s), so accumulator pixel (k, i, j) meets the input pixel the
    naive loop reads for output (k, i, j). Each run ends in a zero tail as
    long as the largest such offset, so every tap's products with one
    channel are one multiply over the whole accumulator and one add into it;
    the grid's columns past an output row, its rows below an image's output
    and any NaN formed there are discarded. Both must be contiguous: an add
    into a column slice of the accumulator ran ≈ 3x slower (8 x 1122
    elements, 3.9 against 1.2 us), and a transposed reshape of ``xp`` is a
    view whose elements lie a pixel's channels apart, which multiplies no
    faster than the strided tap view.
    """
    kh, kw, cin, cout = w.shape
    _, ho, wo, _ = out.shape
    n, h, wd, _ = shape = _frame(xs)
    hq, wq = -(-(h + pads[0] + pads[1]) // s), -(-(wd + pads[2] + pads[3]) // s)
    size = n * hq * wq
    tail = (kh - 1) * d // s * wq + (kw - 1) * d // s
    planes = np.zeros((s, s, cin, size + tail), dtype=out.dtype)
    grid = planes[..., :size].reshape(s, s, cin, n, hq, wq).transpose(0, 1, 3, 4, 5, 2)
    for pa, pb, o, i in _windows(shape, pads, (s, s), 1, s, 0, hq, wq):
        for p, c0, c1 in _slices(xs):
            grid[pa, pb][o][..., c0:c1] = p[i]
    acc = np.zeros((cout, n, hq, wq), dtype=out.dtype)
    acc[:, :, :ho, :wo] = out.transpose(3, 0, 1, 2)
    flat = acc.reshape(cout, size)
    for a, b in np.ndindex(kh, kw):
        (qa, pa), (qb, pb) = divmod(a * d, s), divmod(b * d, s)
        run = planes[pa, pb, :, qa * wq + qb : qa * wq + qb + size]
        for c in range(cin):
            flat += run[c] * w[a, b, c, :, None]
    out[...] = acc[:, :, :ho, :wo].transpose(1, 2, 3, 0)


def _row_blocks(height: int, rows: int) -> list[tuple[int, int]]:
    """(first, end) of the fewest blocks of at most ``rows`` rows that cover
    ``height`` rows, as even as can be: the later ones may be one row
    shorter, and none is under half of ``rows`` tall."""
    count = -(-height // rows)
    size, longer = divmod(height, count)
    ends = [k * size + min(k, longer) for k in range(count + 1)]
    return list(zip(ends, ends[1:]))


def _shifts(s: int, padded, ho: int, wo: int) -> bool:
    """Whether a stride-``s`` tap gather from the (hp, wp) ``padded`` grid
    onto an ho x wo output runs on shifted row slices of the flat padded
    input: stride 1, and the padded grid at most 1.25x the output grid, as
    the slices also cover the padding columns and rows the output skips.
    """
    hp, wp = padded
    return s == 1 and 4 * hp * wp <= 5 * ho * wo


def _shifted_gemm(xs: tuple, w: np.ndarray, d: int, pads, out: np.ndarray,
                  bias=None, residual=None, relu: bool = False) -> None:
    """Stride-1 GEMM forward with no column copy and no padded copy: one GEMM
    per tap and band of output rows, then the band's ``_epilogue``.

    A band of output rows [i0, i1) of an image reads its padded rows [i0, i1
    + (kh - 1)*d). They are filled from the unpadded parts ``xs``, each into
    its channels, in one zero-bordered buffer over the padded width, which
    every band reuses: its padding columns stay zero, and a band at an
    image's top or bottom zeroes the rows it takes from the padding.
    Flattened to a (pixels, channels) matrix, tap (a, b) reads its
    contiguous rows of the buffer from a*d*wp + b*d on, (i1 - i0 - 1)*wp +
    wo of them, so never past it: the products land in a band accumulator
    laid out over the padded width, whose first ``wo`` columns go into
    ``out`` and whose other columns, which mix taps across a row end, are
    discarded. The input buffer, the accumulator and the temporary that
    takes each later tap's product hold three eighths of ``_BAND_ELEMENTS``
    together, but at least one output row.
    """
    kh, kw, cin, cout = w.shape
    n, h, wd, _ = _frame(xs)
    _, ho, wo, _ = out.shape
    pt, _, pl, _ = pads
    wp, halo = wo + (kw - 1) * d, (kh - 1) * d
    rows = (_BAND_ELEMENTS * 3 // 8 - halo * wp * cin) // (wp * (cin + 2 * cout))
    rows = min(ho, max(1, rows))
    xb = np.zeros((rows + halo, wp, cin), dtype=out.dtype)
    flat = xb.reshape(-1, cin)
    acc = np.empty((rows * wp, cout), dtype=out.dtype)
    tmp = np.empty_like(acc)
    for k in range(n):
        for i0, i1 in _row_blocks(ho, rows):
            # Buffer row r is padded row i0 + r, which is input row i0 + r - pt.
            nb = i1 - i0 + halo
            lo = min(max(pt - i0, 0), nb)
            hi = min(max(pt + h - i0, lo), nb)
            xb[:lo] = 0.0
            for p, c0, c1 in _slices(xs):
                xb[lo:hi, pl : pl + wd, c0:c1] = p[k, i0 + lo - pt : i0 + hi - pt]
            xb[hi:nb] = 0.0
            m = (i1 - i0 - 1) * wp + wo
            for t, (a, b) in enumerate(np.ndindex(kh, kw)):
                start = a * d * wp + b * d
                np.matmul(flat[start : start + m], w[a, b], out=tmp[:m] if t else acc[:m])
                if t:
                    acc[:m] += tmp[:m]
            band = acc[: (i1 - i0) * wp].reshape(1, i1 - i0, wp, cout)[:, :, :wo]
            _epilogue(band, out[k : k + 1, i0:i1], bias,
                      None if residual is None else residual[k : k + 1, i0:i1], relu)


def _shifted_grads(xp: np.ndarray, w: np.ndarray, d: int, g: np.ndarray, shape, pads):
    """Input and weight gradients of a stride-1 dense tap gather on shifted
    row slices: one pair of GEMMs per tap over the whole batch.

    The padded input of the batch is one flat (n * hp * wp, cin) matrix, and
    ``g`` is laid into a zero (n, hp, wp, cout) grid, so row r of both is
    the same pixel. Tap (a, b) reads rows start + r, start = a*d*wp + b*d,
    for the first ``m`` rows r of the grid, up to its last output pixel: a
    row r past an output row's end, or in the rows below an image's output,
    reaches across a row end or into the next image, but its upstream row
    is zero and adds nothing. ``gw[a, b]`` is the product of the input rows
    and ``g``; the input gradient adds ``g @ w[a, b].T`` onto the same rows
    of the padded input's gradient, which is then cropped to the (n, h, w,
    cin) ``shape``. Tap (0, 0) starts at row 0, so it writes the gradient's
    first ``m`` rows in place of adding to zeros. A grid with no padding
    rows or columns, such as every 1x1 kernel's, needs no zero copy of
    ``g``. The input gradient is None when ``shape`` is.
    """
    kh, kw, cin, cout = w.shape
    n, hp, wp, _ = xp.shape
    _, ho, wo, _ = g.shape
    if (hp, wp) == (ho, wo):
        gflat = g.reshape(-1, cout)
    else:
        gp = np.zeros((n, hp, wp, cout), dtype=g.dtype)
        gp[:, :ho, :wo] = g
        gflat = gp.reshape(-1, cout)
    m = (n - 1) * hp * wp + (ho - 1) * wp + wo
    gflat = gflat[:m]
    xflat = xp.reshape(-1, cin)
    taps = [(a, b, a * d * wp + b * d) for a in range(kh) for b in range(kw)]
    gw = np.empty(w.shape, dtype=g.dtype)
    for a, b, start in taps:
        np.matmul(xflat[start : start + m].T, gflat, out=gw[a, b])
    if shape is None:
        return None, gw
    gxp = np.empty((n, hp, wp, cin), dtype=g.dtype)
    gxflat = gxp.reshape(-1, cin)
    gxflat[m:] = 0.0
    np.matmul(gflat, w[0, 0].T, out=gxflat[:m])
    if len(taps) > 1:
        tmp = np.empty((m, cin), dtype=g.dtype)
        for a, b, start in taps[1:]:
            np.matmul(gflat, w[a, b].T, out=tmp)
            gxflat[start : start + m] += tmp
    pt, _, pl, _ = pads
    return gxp[:, pt : pt + shape[1], pl : pl + shape[2]], gw


def _im2col_grads(xs: tuple, w: np.ndarray, d: int, s: int, g: np.ndarray, shape, pads):
    """Input and weight gradients of any dense tap gather: ``_spread``, and
    one GEMM over the whole im2col column matrix. The input gradient is None
    when ``shape`` is.
    """
    kh, kw, _, cout = w.shape
    _, ho, wo, _ = g.shape
    gx = None if shape is None else _spread(g, w, shape, pads, d, s)
    return gx, (_im2col(xs, kh, kw, d, s, pads, ho, wo).T @ g.reshape(-1, cout)).reshape(w.shape)


def _dense(xs: tuple, w: np.ndarray, d: int, s: int, pads, out: np.ndarray,
           bias=None, residual=None, relu: bool = False) -> None:
    """Dense tap gather of the (kh, kw, cin, cout) weight ``w`` over the map
    of the unpadded parts ``xs`` grown by ``pads``, written into ``out``
    through ``_epilogue``: sum over taps (a, b) of tap(a, b) @ w[a, b], then
    the bias, ``residual`` and the ReLU, by the route the module docstring
    names for the mode and shape. The output grid is ``out``'s spatial
    extent; a weight with no taps gives the epilogue's terms alone.
    """
    kh, kw, cin, cout = w.shape
    n, ho, wo, _ = out.shape
    _, h, wd, _ = _frame(xs)
    padded = (h + pads[0] + pads[1], wd + pads[2] + pads[3])
    if not w.size:
        out[...] = 0.0
    elif _deterministic:
        # The bias first, then the taps; the epilogue adds no bias.
        out[...] = 0.0 if bias is None else bias
        bias = None
        exact = _exact_channel_first if n * ho * wo >= _CHANNEL_FIRST_PIXELS else _exact_stacked
        exact(xs, w, d, s, pads, out)
    elif kh == kw == 1 and padded == (ho, wo):
        np.matmul(_pad_input(xs, pads).reshape(-1, cin), w.reshape(cin, cout),
                  out=out.reshape(-1, cout))
    # The shifted GEMMs also compute the padded columns (and rows) that the
    # output discards, and add each later tap's product into the band, in
    # place of the column copy. ms im2col (in row bands) -> shifted
    # (padded/output area), 2-core host, OpenBLAS: 576^2 32->32 157.8 ->
    # 101.8 (1.01), 288^2 128->64 172.1 -> 113.1 (1.01), 4x64^2 32->32
    # 7.78 -> 4.86 (1.06), 36^2 128->128 d2 3.36 -> 3.22 (1.23); but 4x16^2
    # 64->64 1.01 -> 1.18 (1.27), 36^2 256->256 d4 10.56 -> 12.52 (1.49),
    # 4x8^2 64->64 0.31 -> 0.48 (1.56). Inside the bound, 36^2 256->256 d2
    # (10.48 -> 11.39) and 4x32^2 32->64 (2.30 -> 2.56) still lose a little.
    elif _shifts(s, padded, ho, wo):
        _shifted_gemm(xs, w, d, pads, out, bias, residual, relu)
        return
    else:
        np.matmul(_im2col(xs, kh, kw, d, s, pads, ho, wo), w.reshape(-1, cout),
                  out=out.reshape(-1, cout))
    _epilogue(out, out, bias, residual, relu)


def _reach(a: int, d: int, s: int, lead: int, n: int, lo: int, hi: int) -> tuple[slice, slice]:
    """(outputs, inputs) along one axis: the outputs i in [lo, hi) at which
    tap ``a`` reads the input, 0 <= i*s + a*d - lead < n, and the input
    positions they read. Both slices are empty when there are none."""
    off = a * d - lead
    i0 = max(lo, -(off // s))
    i1 = max(i0, min(hi, (n - 1 - off) // s + 1))
    if i0 == i1:
        return slice(0, 0), slice(0, 0)
    return slice(i0, i1), slice(i0 * s + off, (i1 - 1) * s + off + 1, s)


def _windows(shape, pads, taps, d: int, s: int, lo: int, hi: int, wo: int):
    """(a, b, outputs, inputs) of each tap (a, b) of a (kh, kw) = ``taps``
    kernel in row-major order, over the (n, h, w, c) ``shape`` grown by
    ``pads``: the outputs in rows [lo, hi) of a ``wo`` wide grid at which
    the tap reads the input (``_reach`` along each axis; empty if none) and
    the input positions they read, as indices over the whole batch."""
    _, h, w, _ = shape
    pt, _, pl, _ = pads
    cols = [_reach(b, d, s, pl, w, 0, wo) for b in range(taps[1])]
    for a in range(taps[0]):
        oi, xi = _reach(a, d, s, pt, h, lo, hi)
        for b, (oj, xj) in enumerate(cols):
            yield a, b, (slice(None), oi, oj), (slice(None), xi, xj)


def _depthwise(xs: tuple, w: np.ndarray, d: int, s: int, pads, out: np.ndarray) -> None:
    """Add each tap's products, ``w[a, b]`` times the input window it reads,
    into ``out`` in (kernel row, kernel col) order, with no padded copy.

    Each tap takes only the rectangle of outputs at which it reads the
    unpadded parts (``_windows``): a product with the padding is a zero, so
    leaving it out keeps the bytes for finite weights, and a NaN or
    infinite weight on a partly padded tap contributes nothing at the
    outputs where it reads padding. The output is run in bands of whole
    rows whose product temporary holds at most an eighth of
    ``_BAND_ELEMENTS`` elements, but one row, so that it and the band of
    ``out`` stay in cache. Interleaved medians, ms, 2-core host, OpenBLAS,
    of MSIF's 1x36x36x(256+512+256) at rates 3, 6 and 12: 7.8, 6.8 and 5.9
    at an eighth, 9.9, 8.9 and 7.4 at the whole budget, and 10.4, 10.4 and
    10.8 over a padded copy.
    """
    n, ho, wo, c = out.shape
    shape, slices = _frame(xs), _slices(xs)
    rows = min(ho, max(1, _BAND_ELEMENTS // 8 // (n * wo * c)))
    tmp = np.empty((n, rows, wo, c), dtype=out.dtype)
    for i0, i1 in _row_blocks(ho, rows):
        for a, b, o, i in _windows(shape, pads, w.shape[:2], d, s, i0, i1, wo):
            view = out[o]
            t = tmp[:, : view.shape[1], : view.shape[2]]
            for p, c0, c1 in slices:
                np.multiply(p[i], w[a, b, c0:c1], out=t[..., c0:c1])
            np.add(view, t, out=view)


def _parts(op: str, x, kernel: ConvKernel, cin: int, bias_channels: int):
    """(parts, arrays, (n, h, w, c) map) of the input ``x``, a Tensor or a
    tuple of parts (``_frame``), checked against the kernel. Parts share the
    batch and dtype; each spans the map or is a broadcast (n, 1, 1, c) one.
    ``arrays`` are what the helpers read: each part's data over the whole
    map, a broadcast part's as a zero-copy ``np.broadcast_to`` view."""
    parts = (x,) if isinstance(x, Tensor) else tuple(x)
    if not parts:
        raise ShapeError(f"{op}: the input has no parts")
    frame = _frame(parts)
    if len(parts) > 1 and any([p.shape[0] != frame[0] or p.dtype != parts[0].dtype
                               or p.shape[1:3] not in (frame[1:3], (1, 1)) for p in parts]):
        raise ShapeError(f"{op}: parts {[(p.shape, str(p.dtype)) for p in parts]} "
                         f"do not fit one map")
    if frame[3] != cin:
        raise ShapeError(f"{op}: input has {frame[3]} channels but kernel expects {cin}")
    if kernel.bias is not None and kernel.bias.channels != bias_channels:
        raise ShapeError(
            f"{op}: bias has {kernel.bias.channels} channels, expected {bias_channels}"
        )
    xs = tuple([p.data if p.shape[1:3] == frame[1:3]
                else np.broadcast_to(p.data, (*frame[:3], p.shape[3])) for p in parts])
    return parts, xs, frame


def _gather_frame(op: str, shape, kernel: ConvKernel) -> tuple[int, int]:
    """Output extent (ho, wo) of a strided, dilated tap gather on ``shape``."""
    kh, kw = kernel.weight.shape[:2]
    s, d = kernel.stride, kernel.dilation
    pt, pb, pl, pr = kernel.padding
    ho = _out_extent(op, shape[1] + pt + pb, dilated_kernel_extent(kh, d), s)
    wo = _out_extent(op, shape[2] + pl + pr, dilated_kernel_extent(kw, d), s)
    return ho, wo


def _live_window(h: int, w: int, kernel: ConvKernel) -> tuple[slice, slice, tuple]:
    """(rows, cols, pads): the kernel rows and columns from the first to the
    last tap that reads at least one pixel of an h x w input, and the
    per-side padding under which that window has the kernel's output grid.

    A tap outside the window reads only padding, so its products are exact
    zeros and the window's gather is the kernel's. Along each axis, tap a
    is live when some output reads the input through it (``_reach``, the
    arithmetic of ``_windows``). An axis keeps
    all its taps and its padding when its window would need a negative pad;
    the slices are empty, with the kernel's padding, when no tap is live.
    Without padding every tap reads the input: tap a reads position a*d at
    output 0, inside the input, as the kernel's extent fits in it.
    """
    return _window(h, w, *kernel.weight.shape[:2], kernel.stride, kernel.dilation,
                   tuple(kernel.padding))


@lru_cache(maxsize=256)
def _window(h: int, w: int, kh: int, kw: int, s: int, d: int, padding: tuple):
    """``_live_window`` on plain ints, memoized: every conv asks for it."""
    if not any(padding):
        return slice(None), slice(None), padding
    window, pads = [], []
    for n, k, lead, trail in ((h, kh, *padding[:2]), (w, kw, *padding[2:])):
        out = (n + lead + trail - (k - 1) * d - 1) // s + 1
        live = [a for a in range(k) if _reach(a, d, s, lead, n, 0, out)[0] != slice(0, 0)]
        if not live:
            return slice(0, 0), slice(0, 0), padding
        a0, a1 = live[0], live[-1] + 1
        lo = lead - a0 * d
        hi = (out - 1) * s + (a1 - a0 - 1) * d + 1 - n - lo
        if a1 - a0 == k or lo < 0 or hi < 0:
            a0, a1, lo, hi = 0, k, lead, trail
        window.append(slice(a0, a1))
        pads += [lo, hi]
    return window[0], window[1], tuple(pads)


def _split(gx: np.ndarray | None, parts) -> tuple:
    """Each part's gradient from ``gx``, the gradient of their map: a view
    of its channels, or for a broadcast part those channels summed over the
    map one position at a time in row-major order, from zero."""
    if gx is None or len(parts) == 1:
        return (gx,) * len(parts)
    grads = [gx[..., c0:c1] for _, c0, c1 in _slices(parts)]
    for k, (p, view) in enumerate(zip(parts, grads)):
        if p.shape != view.shape:
            grads[k] = np.zeros(p.shape, dtype=gx.dtype)
            for i, j in np.ndindex(*view.shape[1:3]):
                grads[k] += view[:, i : i + 1, j : j + 1]
    return tuple(grads)


def _record(op: str, parts: tuple, kernel: ConvKernel, out: np.ndarray, grads,
            residual: Tensor | None = None, window=(slice(None), slice(None))) -> Tensor:
    """Record ``op`` over (*parts, weight[, bias][, residual]), whose ``out``
    has been through ``_epilogue``; ``grads(g)`` yields gx over the parts'
    map (``_split``) and gw over the (rows, cols) ``window`` of taps.

    A ``relu`` kernel's rule masks ``g`` by ``out > 0`` first. A ``gw``
    smaller than the weight is written into zeros of the weight's shape. The
    bias receives ``g`` summed per channel, the residual ``g`` itself.
    """
    relu, bias, weight = kernel.relu, kernel.bias, kernel.weight
    extra = ([] if bias is None else [bias]) + ([] if residual is None else [residual])

    def rule(g: np.ndarray):
        if relu:
            g = g * (out > 0)
        gx, gw = grads(g)
        if gw.shape != weight.shape:
            full = np.zeros(weight.shape, dtype=gw.dtype)
            full[window] = gw
            gw = full
        gb = () if bias is None else (g.sum(axis=(0, 1, 2)).reshape(bias.shape),)
        gr = () if residual is None else (g,)
        return (*_split(gx, parts), gw, *gb, *gr)

    return record_op(op, (*parts, weight, *extra), out, rule)


def conv2d(x: Tensor | tuple[Tensor, ...], kernel: ConvKernel,
           residual: Tensor | None = None) -> Tensor:
    """Dense 2-D convolution (cross-correlation), dilation-aware.

    out[n,i,j,c] = bias[c]
                 + sum_{a,b,m} x[n, i*s + a*d - pad_top, j*s + b*d - pad_left, m]
                               * w[a,b,m,c]
    with zero contribution from out-of-range positions: only the taps that
    read the input run (``_live_window``), so a non-finite weight on a tap
    that reads only padding contributes nothing either. A ``residual`` of
    the output's shape is added to it before the kernel's ReLU. ``x`` may be
    a tuple of parts, their channels in order, (n, 1, 1, c) ones broadcast.
    """
    _, _, cin, cout = kernel.weight.shape
    op = f"conv2d {kernel.name}".rstrip()  # for errors
    parts, xs, frame = _parts(op, x, kernel, cin, cout)
    ho, wo = _gather_frame(op, frame, kernel)
    shape = (frame[0], ho, wo, cout)
    if residual is not None and residual.shape != shape:
        raise ShapeError(f"{op}: residual shape {residual.shape} differs from "
                         f"the output's {shape}")
    s, d = kernel.stride, kernel.dilation
    rows, cols, pads = _live_window(frame[1], frame[2], kernel)
    w = kernel.weight.data[rows, cols]
    out = np.empty(shape, dtype=xs[0].dtype)
    _dense(xs, w, d, s, pads, out, None if kernel.bias is None else kernel.bias.data,
           None if residual is None else residual.data, kernel.relu)
    # No input gradient for a constant input, such as the network's image.
    x_shape = frame if any([p.requires_grad for p in parts]) else None
    padded = (frame[1] + pads[0] + pads[1], frame[2] + pads[2] + pads[3])
    shifted = _shifts(s, padded, ho, wo)

    def grads(g: np.ndarray):
        if not w.size:  # no tap reads the input
            return None if x_shape is None else np.zeros(x_shape, g.dtype), np.zeros_like(w)
        if shifted:  # the padded input is rebuilt here, not held from the forward
            return _shifted_grads(_pad_input(xs, pads), w, d, g, x_shape, pads)
        return _im2col_grads(xs, w, d, s, g, x_shape, pads)

    return _record("conv2d", parts, kernel, out, grads, residual, (rows, cols))


def depthwise_conv2d(x: Tensor | tuple[Tensor, ...], kernel: ConvKernel) -> Tensor:
    """Per-channel spatial convolution (channel multiplier 1).

    The kernel weight is (kh, kw, C, 1): one spatial filter per input
    channel, producing the same channel count. Like conv2d, it runs only
    the taps that read the input, and takes a tuple of parts as input.
    """
    _, _, cin, mult = kernel.weight.shape
    op = f"depthwise_conv2d {kernel.name}".rstrip()
    if mult != 1:
        raise ShapeError(f"{op}: channel multiplier must be 1, got {mult}")
    parts, xs, frame = _parts(op, x, kernel, cin, cin)
    ho, wo = _gather_frame(op, frame, kernel)
    s, d = kernel.stride, kernel.dilation
    rows, cols, pads = _live_window(frame[1], frame[2], kernel)
    w = kernel.weight.data[rows, cols, :, 0]  # (kh, kw, C) over the window
    taps = w.shape[:2]
    out = np.empty((frame[0], ho, wo, cin), dtype=xs[0].dtype)
    out[...] = 0.0 if kernel.bias is None else kernel.bias.data  # the bias first
    _depthwise(xs, w, d, s, pads, out)
    _epilogue(out, out, relu=kernel.relu)

    def grads(g: np.ndarray):
        gx = np.zeros(frame, dtype=g.dtype)
        gw = np.empty((*taps, cin, 1), dtype=g.dtype)
        for a, b, o, i in _windows(frame, pads, taps, d, s, 0, ho, wo):
            gx[i] += g[o] * w[a, b]
            prod = np.zeros_like(g)  # summed over the whole grid: the padded sum's order
            for p, c0, c1 in _slices(xs):
                np.multiply(p[i], g[o][..., c0:c1], out=prod[o][..., c0:c1])
            gw[a, b, :, 0] = prod.sum(axis=(0, 1, 2))
        return gx, gw

    return _record("depthwise_conv2d", parts, kernel, out, grads, window=(rows, cols))


def max_pool(
    x: Tensor,
    k: int,
    stride: int,
    padding: tuple[int, int, int, int] = (0, 0, 0, 0),
) -> Tensor:
    """Max over k x k windows; padded positions are excluded from the max.

    Windows clip to the data extent on an axis shorter than k (a 1 x W row
    pools 1-D). Ties route the gradient to the first maximum in row-major
    window order.
    """
    if k < 1 or stride < 1:
        raise ShapeError(f"max_pool: need k, stride >= 1, got k={k} stride={stride}")
    x_data = x.data
    n, h, w, c = x.shape
    pt, pb, pl, pr = padding
    kh = min(k, h + pt + pb)
    kw = min(k, w + pl + pr)
    ho = _out_extent("max_pool", h + pt + pb, kh, stride)
    wo = _out_extent("max_pool", w + pl + pr, kw, stride)
    # Windows start at multiples of stride, so one lies wholly in padding
    # iff the first ends in the leading pad or the last starts in the trailing.
    if (kh <= pt or (ho - 1) * stride >= pt + h
            or kw <= pl or (wo - 1) * stride >= pl + w):
        raise ShapeError("max_pool: window contains no valid input positions")

    # Each tap is taken over the outputs at which it reads the input
    # (``_windows``), into an output that starts at -inf, which the padding
    # would have given. np.maximum returns its second operand on a tie, so
    # the earlier tap is kept: the same bits as taking the first maximum in
    # row-major order.
    out = np.full((n, ho, wo, c), -np.inf, dtype=x_data.dtype)
    windows = list(_windows(x.shape, padding, (kh, kw), 1, stride, 0, ho, wo))
    for _, _, o, i in windows:
        view = out[o]
        np.maximum(x_data[i], view, out=view)

    def rule(g: np.ndarray):
        # Taps claim windows in row-major order: a tap equal to the window's
        # maximum (or NaN where it is NaN) takes ``g`` unless an earlier tap
        # did, which routes it as the first argmax of the window's input
        # positions would. Padding never claims.
        free, nan = np.ones(out.shape, dtype=bool), np.isnan(out)
        gx = np.zeros(x_data.shape, dtype=g.dtype)
        for _, _, o, i in windows:
            tap, unclaimed = x_data[i], free[o]
            hit = unclaimed & ((tap == out[o]) | (nan[o] & np.isnan(tap)))
            np.logical_xor(unclaimed, hit, out=unclaimed)
            gx[i] += g[o] * hit
        return (gx,)

    return record_op("max_pool", (x,), out, rule)


def transposed_conv(x: Tensor | tuple[Tensor, ...], kernel: ConvKernel) -> Tensor:
    """Transposed (fractionally strided) convolution; adjoint of conv2d.

    The forward is ``_spread``, conv2d's input gradient, for a kernel with
    its channel axes swapped: each input pixel scatters weight * value into a
    stride-spaced grid, which ``kernel.padding`` then crops. With kernel
    size 2, stride 2, no padding the spatial dims double exactly for every
    input size, which is how the decoder uses it. Parts are joined for the
    forward and again in the rule, held joined by neither.
    """
    kh, kw, cin, cout = kernel.weight.shape
    op = f"transposed_conv {kernel.name}".rstrip()
    parts, xs, (n, h, wdt, _) = _parts(op, x, kernel, cin, cout)
    s, d = kernel.stride, kernel.dilation
    pt, pb, pl, pr = kernel.padding
    ho = (h - 1) * s + dilated_kernel_extent(kh, d) - pt - pb
    wo = (wdt - 1) * s + dilated_kernel_extent(kw, d) - pl - pr
    if ho < 1 or wo < 1:
        raise ShapeError(f"transposed_conv: non-positive output size {ho}x{wo}")

    w, unpadded = kernel.weight.data, (0, 0, 0, 0)
    out = _spread(_pad_input(xs, unpadded), w.swapaxes(2, 3), (n, ho, wo, cout),
                  kernel.padding, d, s)
    _epilogue(out, out, None if kernel.bias is None else kernel.bias.data, relu=kernel.relu)

    def grads(g: np.ndarray):
        cols = _im2col((g,), kh, kw, d, s, kernel.padding, h, wdt)
        gx = (cols @ w.swapaxes(2, 3).reshape(-1, cin)).reshape(n, h, wdt, cin)
        gw = (cols.T @ _pad_input(xs, unpadded).reshape(-1, cin)).reshape(kh, kw, cout, cin)
        return gx, gw.swapaxes(2, 3)

    return _record("transposed_conv", parts, kernel, out, grads)


def global_avg_pool(x: Tensor) -> Tensor:
    """Spatial mean per channel, keeping singleton spatial dims (N,1,1,C)."""
    n, h, w, c = x.shape
    out = x.data.mean(axis=(1, 2), keepdims=True)
    area = h * w

    def rule(g: np.ndarray):
        return (np.broadcast_to(g / area, (n, h, w, c)).copy(),)

    return record_op("global_avg_pool", (x,), out, rule)

