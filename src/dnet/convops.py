"""Convolution-family operators: standard/dilated and depthwise
convolution, max pooling, transposed convolution, global average pooling,
and bilinear upsampling of a pooled map, each with a reverse-mode rule.

All operators use the (batch, height, width, channels) layout and zero
padding; out-of-range taps contribute nothing. The strided operators share
one tap engine over ``_tap_view``, the view of the padded input that kernel
tap (a, b) reads: ``_scatter`` is its adjoint and yields every strided
input gradient; ``_spread`` sends one 2-D ``g @ w[a, b].T`` product per
tap through it, which is the input gradient of a conv2d that does not run
on shifted row slices (below) and, for a kernel with its channel axes
swapped, the whole transposed-convolution forward; ``_im2col`` lays the
taps side by side as one column matrix; ``_dense`` is the dense
convolution forward. Only that forward has two execution strategies:

* tap-ordered accumulation (default, ``deterministic`` mode): the output is
  built by adding one (kernel row, kernel col, input channel) tap at a time,
  which reproduces, element for element, the arithmetic of a naive
  sliding-window loop. Inserting explicit zeros between kernel taps then
  changes nothing, so dilation equals zero-insertion exactly, not just to
  tolerance. One of two helpers is picked by shape. When the output row is
  longer than the output channel count, ``_exact_channel_first`` adds one
  product plane at a time over channel-first copies, so numpy's inner loops
  run along long rows. Otherwise, which covers the small low-resolution
  layers where Python dispatch is the cost, ``_exact_stacked`` writes each
  tap's products for all input channels with one multiply into a bounded
  stack and folds it with one reduce over its leading axis, which numpy
  performs row by row: O(taps) numpy calls per band of output rows instead
  of O(taps x channels).
  Either way each output element sees the same multiplies and adds in the
  same order, so the result stays bit-identical to the naive loop.
* GEMM fast path (``using_deterministic(False)``): same math, BLAS
  reduction order, so results agree with the tap-ordered path only to
  floating-point tolerance. It is therefore gated out of deterministic mode
  rather than offered as a bit-exact replacement. It works one band of
  whole output rows at a time in buffers of bounded size, so a large image
  never needs the whole im2col column matrix (hundreds of MB for a 3x3
  layer at 576x576). One of two helpers is picked by shape (``_shifts``).
  A stride-1 kernel whose padded input grid is at most 1.25x its output
  grid runs ``_shifted_gemm``: in each image's padded input, flattened to a
  (pixels, channels) matrix, every tap of a band reads one contiguous row
  slice, so the band is one GEMM per tap with no column copy. Any other
  runs ``_banded_gemm``, which lowers each band into an im2col buffer and
  runs one GEMM. A 1x1 unit-stride kernel on an unpadded input needs
  neither and stays one GEMM.

The backward rules are GEMM-shaped and the same in both modes. conv2d's
picks by the forward's shape rule. Where the forward's shifted row slices
serve, ``_shifted_grads`` reads the same slices, with the padded inputs
of the whole batch as one flat matrix, and runs one weight-gradient and
one input-gradient GEMM per tap: no column copy, no strided scatter. That
covers every unit-stride 1x1 kernel, whose padded grid is its output
grid, with one GEMM each. Any other conv2d runs ``_im2col_grads``: the
weight gradient is one ``_im2col(...).T @ g`` product and the input
gradient is ``_spread``. Bilinear upsampling serves only the pooled
(n, 1, 1, c) map, so it is a broadcast and its backward a sum.
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import dataclass

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
    "bilinear_upsample",
]

_deterministic = True

# Element budget of one band's im2col column matrix in the GEMM forward
# (4 MB in float32): the whole matrix of a full-resolution 3x3 layer at
# 576x576 would be hundreds of MB. Bands of 1, 4 and 16 MB ran a 576x576
# full-width predict at the same speed within noise on a 2-core host. The
# stride-1 GEMM forward's band accumulator and temporary get a quarter of
# it each: at 576x576 32->32, budgets of 1, 4 and 16 MB in all ran within
# 7% of each other (135, 129 and 127 ms). The
# exact forward's product stack shares the budget: stacks of 2^16 to 2^20
# elements ran the desk-scale shapes at about the same speed, 2^12 up to 4x
# slower.
_BAND_ELEMENTS = 1 << 20


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
    per-side (top, bottom, left, right).
    """

    weight: Tensor
    bias: Tensor | None = None
    stride: int = 1
    dilation: int = 1
    padding: tuple[int, int, int, int] = (0, 0, 0, 0)

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


def _pad_input(x: np.ndarray, padding, fill: float = 0.0) -> np.ndarray:
    pt, pb, pl, pr = padding
    if pt == pb == pl == pr == 0:
        return x
    return np.pad(
        x, ((0, 0), (pt, pb), (pl, pr), (0, 0)), mode="constant", constant_values=fill
    )


def _out_extent(op: str, padded: int, k_eff: int, stride: int) -> int:
    out = (padded - k_eff) // stride + 1
    if out < 1:
        raise ShapeError(
            f"{op}: non-positive output size (padded extent {padded}, "
            f"effective kernel {k_eff}, stride {stride})"
        )
    return out


def _tap_view(xp: np.ndarray, a: int, b: int, d: int, s: int, ho: int, wo: int) -> np.ndarray:
    """Strided view of the padded input aligned with kernel tap (a, b)."""
    return xp[:, a * d : a * d + (ho - 1) * s + 1 : s, b * d : b * d + (wo - 1) * s + 1 : s, :]


def _scatter(shape, pads, taps, d: int, s: int, ho: int, wo: int, contrib, dtype) -> np.ndarray:
    """Adjoint of the tap gather: buf[tap (a, b)] += contrib(a, b), then crop.

    ``buf`` is the (n, h, w, c) ``shape`` grown by ``pads``; the taps of a
    (kh, kw) = ``taps`` kernel accumulate in row-major order, each over an
    ho x wo grid. Returns the (h, w) window of ``buf`` inside the padding.
    """
    n, h, w, c = shape
    pt, pb, pl, pr = pads
    buf = np.zeros((n, h + pt + pb, w + pl + pr, c), dtype=dtype)
    for a, b in np.ndindex(*taps):
        _tap_view(buf, a, b, d, s, ho, wo)[...] += contrib(a, b)
    return buf[:, pt : pt + h, pl : pl + w, :]


def _spread(g: np.ndarray, w: np.ndarray, shape, pads, d: int, s: int) -> np.ndarray:
    """Input gradient of a dense tap gather with weight ``w`` whose output
    gradient is ``g``: tap (a, b) sends the 2-D product g @ w[a, b].T back
    through ``_scatter`` onto the (n, h, w, cin) ``shape``.
    """
    kh, kw, cin, cout = w.shape
    _, ho, wo, _ = g.shape
    g2 = g.reshape(-1, cout)
    return _scatter(shape, pads, (kh, kw), d, s, ho, wo,
                    lambda a, b: (g2 @ w[a, b].T).reshape(-1, ho, wo, cin), g.dtype)


def _im2col(
    xp: np.ndarray, kh: int, kw: int, d: int, s: int, ho: int, wo: int,
    buf: np.ndarray | None = None,
) -> np.ndarray:
    """Column matrix of the tap gather: row (n, i, j), column (a, b, channel).

    The matrix is written into the leading elements of the flat array
    ``buf`` when one is given, or into a new array.
    """
    n, _, _, c = xp.shape
    k = kh * kw * c
    if buf is None:
        cols = np.empty((n, ho, wo, k), dtype=xp.dtype)
    else:
        cols = buf[: n * ho * wo * k].reshape(n, ho, wo, k)
    for a, b in np.ndindex(kh, kw):
        base = (a * kw + b) * c
        cols[..., base : base + c] = _tap_view(xp, a, b, d, s, ho, wo)
    return cols.reshape(-1, k)


def _exact_stacked(xp: np.ndarray, w: np.ndarray, d: int, s: int, out: np.ndarray) -> None:
    """Tap-ordered forward in O(taps) numpy calls per band of output rows.

    The output is cut into evenly sized bands of whole rows across the
    batch, each as tall as lets its product stack hold every product at
    once within ``_BAND_ELEMENTS`` elements, but at least one row. numpy's
    reduce over a few long stack rows costs more than in-place adds, so a
    stack over the whole of a large output ran full-width forwards slower
    than a loop of one multiply and one add per input channel.
    """
    kh, kw, cin, _ = w.shape
    n, ho, wo, cout = out.shape
    band = max(1, _BAND_ELEMENTS // ((1 + kh * kw * cin) * n * wo * cout))
    bands = -(-ho // band)
    band = -(-ho // bands)  # the same number of bands, evenly sized
    for i0 in range(0, ho, band):
        i1 = min(i0 + band, ho)
        _stack_band(xp[:, i0 * s : (i1 - 1) * s + (kh - 1) * d + 1], w, d, s, out[:, i0:i1])


def _stack_band(xp: np.ndarray, w: np.ndarray, d: int, s: int, out: np.ndarray) -> None:
    """One multiply writes a tap's ``cin`` product planes into rows of a
    stack whose row 0 is the running output; one reduce over the leading
    axis folds the stack.

    numpy reduces a leading axis row by row, so every output element gets
    ``((out + p0) + p1) + ...`` in (kernel row, kernel col, input channel)
    order; ``initial=-0.0`` is the exact additive identity, so even a
    negative zero keeps its sign. A one-element row would be reduced along a
    contiguous axis, which numpy sums pairwise, so rows hold at least two
    elements (the second one a zero). The stack holds at most
    ``_BAND_ELEMENTS`` elements, but at least two rows: when it is full it
    is folded into row 0 and filling resumes.
    """
    kh, kw, cin, _ = w.shape
    size = out.size
    width = max(size, 2)
    rows = max(2, min(1 + kh * kw * cin, _BAND_ELEMENTS // width))
    buf = np.empty((rows, width), dtype=out.dtype)
    buf[:, size:] = 0.0
    stack = buf[:, :size].reshape(rows, *out.shape)
    stack[0] = out
    r = 1
    for a, b in np.ndindex(kh, kw):
        xs = _tap_view(xp, a, b, d, s, *out.shape[1:3]).transpose(3, 0, 1, 2)[..., None]
        ws = w[a, b, :, None, None, None, :]  # w[a, b, m] broadcast over (n, ho, wo)
        m = 0
        while m < cin:
            k = min(cin - m, rows - r)
            np.multiply(xs[m : m + k], ws[m : m + k], out=stack[r : r + k])
            m, r = m + k, r + k
            if r == rows:
                np.add.reduce(buf, axis=0, out=buf[0], initial=-0.0)
                r = 1
    np.add.reduce(buf[:r], axis=0, out=buf[0], initial=-0.0)
    out[...] = stack[0]


def _exact_channel_first(xp: np.ndarray, w: np.ndarray, d: int, s: int, out: np.ndarray) -> None:
    """The naive loop's multiplies and adds, one (kernel row, kernel col,
    input channel) tap at a time in that order, over channel-first copies
    whose innermost run is an output row; ``out`` is written once.
    """
    kh, kw, cin, _ = w.shape
    _, ho, wo, _ = out.shape
    xc = xp.transpose(3, 0, 1, 2).copy()
    oc = out.transpose(3, 0, 1, 2).copy()
    wc = w[..., None, None, None]  # w[a, b, m] broadcast over (n, ho, wo)
    for a, b in np.ndindex(kh, kw):
        i, j = a * d, b * d
        xs = xc[:, :, i : i + (ho - 1) * s + 1 : s, j : j + (wo - 1) * s + 1 : s]
        for m in range(cin):
            oc += xs[m] * wc[a, b, m]
    out[...] = oc.transpose(1, 2, 3, 0)


def _row_bands(ho: int, rows: int):
    """(first, end) of each band of ``rows`` output rows; the last may be short."""
    for i0 in range(0, ho, rows):
        yield i0, min(i0 + rows, ho)


def _banded_gemm(xp: np.ndarray, w: np.ndarray, d: int, s: int, out: np.ndarray) -> None:
    """GEMM forward through im2col, one band of whole output rows at a time.

    Each band spans the batch; its column matrix holds at most
    ``_BAND_ELEMENTS`` elements (but at least one row) in one buffer that
    every band reuses, and one GEMM adds the band into ``out``.
    """
    kh, kw, _, cout = w.shape
    n, ho, wo, _ = out.shape
    wm = w.reshape(-1, cout)
    row = n * wo * wm.shape[0]
    rows = max(1, _BAND_ELEMENTS // row)
    buf = np.empty(min(rows, ho) * row, dtype=xp.dtype)
    for i0, i1 in _row_bands(ho, rows):
        xs = xp[:, i0 * s : (i1 - 1) * s + (kh - 1) * d + 1]
        cols = _im2col(xs, kh, kw, d, s, i1 - i0, wo, buf)
        out[:, i0:i1] += (cols @ wm).reshape(n, i1 - i0, wo, cout)


def _shifts(s: int, padded, ho: int, wo: int) -> bool:
    """Whether a stride-``s`` tap gather from the (hp, wp) ``padded`` grid
    onto an ho x wo output runs on shifted row slices of the flat padded
    input: stride 1, and the padded grid at most 1.25x the output grid, as
    the slices also cover the padding columns and rows the output skips.
    """
    hp, wp = padded
    return s == 1 and 4 * hp * wp <= 5 * ho * wo


def _shifted_gemm(xp: np.ndarray, w: np.ndarray, d: int, out: np.ndarray) -> None:
    """Stride-1 GEMM forward with no column copy: one GEMM per tap and band.

    Each image's padded input is a flat (hp * wp, cin) matrix. For a band of
    output rows [i0, i1), tap (a, b) reads its contiguous rows from
    (i0 + a*d)*wp + b*d on, (i1 - i0 - 1)*wp + wo of them, so never past
    the image: the products land in a band accumulator laid out over the
    padded width, whose first ``wo`` columns are added into ``out`` and
    whose other columns, which mix taps across a row end, are discarded.
    The accumulator and the temporary that takes each later tap's product
    hold a quarter of ``_BAND_ELEMENTS`` each (but at least one row).
    """
    kh, kw, cin, cout = w.shape
    _, ho, wo, _ = out.shape
    wp = xp.shape[2]
    rows = min(ho, max(1, _BAND_ELEMENTS // (4 * wp * cout)))
    acc = np.empty((rows * wp, cout), dtype=out.dtype)
    tmp = np.empty_like(acc)
    for img, dst in zip(xp, out):
        flat = img.reshape(-1, cin)
        for i0, i1 in _row_bands(ho, rows):
            m = (i1 - i0 - 1) * wp + wo
            for t, (a, b) in enumerate(np.ndindex(kh, kw)):
                start = (i0 + a * d) * wp + b * d
                np.matmul(flat[start : start + m], w[a, b], out=tmp[:m] if t else acc[:m])
                if t:
                    acc[:m] += tmp[:m]
            dst[i0:i1] += acc[: (i1 - i0) * wp].reshape(i1 - i0, wp, cout)[:, :wo]


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


def _im2col_grads(xp: np.ndarray, w: np.ndarray, d: int, s: int, g: np.ndarray, shape, pads):
    """Input and weight gradients of any dense tap gather: ``_spread``, and
    one GEMM over the whole im2col column matrix. The input gradient is None
    when ``shape`` is.
    """
    kh, kw, _, cout = w.shape
    _, ho, wo, _ = g.shape
    gx = None if shape is None else _spread(g, w, shape, pads, d, s)
    return gx, (_im2col(xp, kh, kw, d, s, ho, wo).T @ g.reshape(-1, cout)).reshape(w.shape)


def _dense(xp: np.ndarray, w: np.ndarray, d: int, s: int, out: np.ndarray) -> None:
    """Dense tap gather: out += sum over taps (a, b) of tap(a, b) @ w[a, b].

    The output grid is ``out``'s spatial extent. Deterministic mode adds one
    (kernel row, kernel col, input channel) tap at a time: channel-first when
    the output row outruns the output channels, else by stacking each tap's
    products and folding the stack with one sequential reduce. Otherwise a
    1x1 kernel whose one tap reads all of ``xp`` is one GEMM on a reshape; a
    stride-1 kernel whose padded grid is at most 1.25x its output grid
    (``_shifts``) runs ``_shifted_gemm``, one GEMM per tap on shifted row
    slices of ``xp``; any other runs ``_banded_gemm``, one im2col GEMM per
    band of output rows.
    """
    kh, kw, cin, cout = w.shape
    _, ho, wo, _ = out.shape
    if _deterministic:
        (_exact_channel_first if cout < wo else _exact_stacked)(xp, w, d, s, out)
    elif kh == kw == 1 and xp.shape[1:3] == (ho, wo):
        out += (xp.reshape(-1, cin) @ w.reshape(cin, cout)).reshape(out.shape)
    # The shifted GEMMs also compute the padded columns (and rows) that the
    # output discards, and add each later tap's product into the band, in
    # place of the column copy. ms banded -> shifted (padded/output area),
    # 2-core host, OpenBLAS: 576^2 32->32 157.8 -> 101.8 (1.01), 288^2
    # 128->64 172.1 -> 113.1 (1.01), 4x64^2 32->32 7.78 -> 4.86 (1.06),
    # 36^2 128->128 d2 3.36 -> 3.22 (1.23); but 4x16^2 64->64 1.01 -> 1.18
    # (1.27), 36^2 256->256 d4 10.56 -> 12.52 (1.49), 4x8^2 64->64
    # 0.31 -> 0.48 (1.56). Inside the bound, 36^2 256->256 d2 (10.48 ->
    # 11.39) and 4x32^2 32->64 (2.30 -> 2.56) still lose a little.
    elif _shifts(s, xp.shape[1:3], ho, wo):
        _shifted_gemm(xp, w, d, out)
    else:
        _banded_gemm(xp, w, d, s, out)


def _check_channels(op: str, x: Tensor, kernel: ConvKernel, cin: int, bias_channels: int) -> None:
    if x.channels != cin:
        raise ShapeError(f"{op}: input has {x.channels} channels but kernel expects {cin}")
    if kernel.bias is not None and kernel.bias.channels != bias_channels:
        raise ShapeError(
            f"{op}: bias has {kernel.bias.channels} channels, expected {bias_channels}"
        )


def _gather_frame(op: str, x: Tensor, kernel: ConvKernel) -> tuple[np.ndarray, int, int]:
    """Padded input and output extent of a strided, dilated tap gather."""
    kh, kw = kernel.weight.shape[:2]
    s, d = kernel.stride, kernel.dilation
    xp = _pad_input(x.data, kernel.padding)
    ho = _out_extent(op, xp.shape[1], dilated_kernel_extent(kh, d), s)
    wo = _out_extent(op, xp.shape[2], dilated_kernel_extent(kw, d), s)
    return xp, ho, wo


def _bias_filled(kernel: ConvKernel, shape, dtype) -> np.ndarray:
    out = np.empty(shape, dtype=dtype)
    if kernel.bias is not None:
        out[...] = kernel.bias.data
    else:
        out.fill(0.0)
    return out


def _record(op: str, x: Tensor, kernel: ConvKernel, out: np.ndarray, grads) -> Tensor:
    """Record ``op`` over (x, weight[, bias]); ``grads(g)`` yields (gx, gw).

    The optional bias receives the upstream gradient summed per channel.
    """
    if kernel.bias is None:
        return record_op(op, (x, kernel.weight), out, grads)
    bias_shape = kernel.bias.shape

    def rule(g: np.ndarray):
        return (*grads(g), g.sum(axis=(0, 1, 2)).reshape(bias_shape))

    return record_op(op, (x, kernel.weight, kernel.bias), out, rule)


def conv2d(x: Tensor, kernel: ConvKernel) -> Tensor:
    """Dense 2-D convolution (cross-correlation), dilation-aware.

    out[n,i,j,c] = bias[c]
                 + sum_{a,b,m} x[n, i*s + a*d - pad_top, j*s + b*d - pad_left, m]
                               * w[a,b,m,c]
    with zero contribution from out-of-range positions.
    """
    _, _, cin, cout = kernel.weight.shape
    _check_channels("conv2d", x, kernel, cin, cout)
    s, d = kernel.stride, kernel.dilation
    xp, ho, wo = _gather_frame("conv2d", x, kernel)
    w = kernel.weight.data
    out = _bias_filled(kernel, (x.shape[0], ho, wo, cout), x.dtype)
    _dense(xp, w, d, s, out)
    # No input gradient for a constant input, such as the network's image.
    x_shape = x.shape if x.requires_grad else None
    shifted = _shifts(s, xp.shape[1:3], ho, wo)

    def grads(g: np.ndarray):
        if shifted:
            return _shifted_grads(xp, w, d, g, x_shape, kernel.padding)
        return _im2col_grads(xp, w, d, s, g, x_shape, kernel.padding)

    return _record("conv2d", x, kernel, out, grads)


def depthwise_conv2d(x: Tensor, kernel: ConvKernel) -> Tensor:
    """Per-channel spatial convolution (channel multiplier 1).

    The kernel weight is (kh, kw, C, 1): one spatial filter per input
    channel, producing the same channel count.
    """
    kh, kw, cin, mult = kernel.weight.shape
    if mult != 1:
        raise ShapeError(f"depthwise_conv2d: channel multiplier must be 1, got {mult}")
    _check_channels("depthwise_conv2d", x, kernel, cin, cin)
    s, d = kernel.stride, kernel.dilation
    xp, ho, wo = _gather_frame("depthwise_conv2d", x, kernel)
    w = kernel.weight.data[:, :, :, 0]  # (kh, kw, C)
    out = _bias_filled(kernel, (x.shape[0], ho, wo, cin), x.dtype)
    for a in range(kh):
        for b in range(kw):
            out += _tap_view(xp, a, b, d, s, ho, wo) * w[a, b]
    x_shape = x.shape

    def grads(g: np.ndarray):
        gx = _scatter(x_shape, kernel.padding, (kh, kw), d, s, ho, wo,
                      lambda a, b: g * w[a, b], g.dtype)
        gw = np.empty((kh, kw, cin, 1), dtype=g.dtype)
        for a in range(kh):
            for b in range(kw):
                gw[a, b, :, 0] = (_tap_view(xp, a, b, d, s, ho, wo) * g).sum(axis=(0, 1, 2))
        return gx, gw

    return _record("depthwise_conv2d", x, kernel, out, grads)


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
    xp = _pad_input(x.data, padding, fill=-np.inf)
    n, hp, wp, c = xp.shape
    kh = min(k, hp)
    kw = min(k, wp)
    ho = _out_extent("max_pool", hp, kh, stride)
    wo = _out_extent("max_pool", wp, kw, stride)
    # Windows start at multiples of stride, so one lies wholly in padding
    # iff the first ends in the leading pad or the last starts in the trailing.
    pt, _, pl, _ = padding
    if (kh <= pt or (ho - 1) * stride >= pt + x.shape[1]
            or kw <= pl or (wo - 1) * stride >= pl + x.shape[2]):
        raise ShapeError("max_pool: window contains no valid input positions")

    # np.maximum returns its second operand on a tie, so the earlier tap is
    # kept: the same bits as taking the first maximum in row-major order.
    taps = [(a, b) for a in range(kh) for b in range(kw)]
    out = _tap_view(xp, 0, 0, 1, stride, ho, wo).copy()
    for a, b in taps[1:]:
        np.maximum(_tap_view(xp, a, b, 1, stride, ho, wo), out, out=out)

    x_data = x.data

    def rule(g: np.ndarray):
        xp = _pad_input(x_data, padding, fill=-np.inf)
        # (n, ho, wo, c, kh*kw), row-major window order
        argmax = np.stack([_tap_view(xp, a, b, 1, stride, ho, wo) for a, b in taps],
                          axis=-1).argmax(axis=-1)
        gx = _scatter(x_data.shape, padding, (kh, kw), 1, stride, ho, wo,
                      lambda a, b: g * (argmax == a * kw + b), g.dtype)
        return (gx,)

    return record_op("max_pool", (x,), out, rule)


def transposed_conv(x: Tensor, kernel: ConvKernel) -> Tensor:
    """Transposed (fractionally strided) convolution; adjoint of conv2d.

    The forward is ``_spread``, conv2d's input gradient, for a kernel with
    its channel axes swapped: each input pixel scatters weight * value into a
    stride-spaced grid, which ``kernel.padding`` then crops. With kernel
    size 2, stride 2, no padding the spatial dims double exactly for every
    input size, which is how the decoder uses it.
    """
    kh, kw, cin, cout = kernel.weight.shape
    _check_channels("transposed_conv", x, kernel, cin, cout)
    s, d = kernel.stride, kernel.dilation
    pt, pb, pl, pr = kernel.padding
    n, h, wdt, _ = x.shape
    ho = (h - 1) * s + dilated_kernel_extent(kh, d) - pt - pb
    wo = (wdt - 1) * s + dilated_kernel_extent(kw, d) - pl - pr
    if ho < 1 or wo < 1:
        raise ShapeError(f"transposed_conv: non-positive output size {ho}x{wo}")

    x_data, w = x.data, kernel.weight.data
    out = _spread(x_data, w.swapaxes(2, 3), (n, ho, wo, cout), kernel.padding, d, s)
    if kernel.bias is not None:
        out += kernel.bias.data

    def grads(g: np.ndarray):
        cols = _im2col(_pad_input(g, kernel.padding), kh, kw, d, s, h, wdt)
        gx = (cols @ w.swapaxes(2, 3).reshape(-1, cin)).reshape(x_data.shape)
        gw = (cols.T @ x_data.reshape(-1, cin)).reshape(kh, kw, cout, cin)
        return gx, gw.swapaxes(2, 3)

    return _record("transposed_conv", x, kernel, out, grads)


def global_avg_pool(x: Tensor) -> Tensor:
    """Spatial mean per channel, keeping singleton spatial dims (N,1,1,C)."""
    n, h, w, c = x.shape
    out = x.data.mean(axis=(1, 2), keepdims=True)
    area = h * w

    def rule(g: np.ndarray):
        return (np.broadcast_to(g / area, (n, h, w, c)).copy(),)

    return record_op("global_avg_pool", (x,), out, rule)


def bilinear_upsample(x: Tensor, out_h: int, out_w: int) -> Tensor:
    """Corner-aligned bilinear upsampling of a pooled (n, 1, 1, c) map to
    (out_h, out_w).

    Every output position interpolates the one input pixel with weight 1, so
    the forward is a broadcast. The backward adds the upstream gradient over
    the output positions one at a time in row-major order, starting from
    zero: one sequential sum per element, as a four-corner scatter gives.
    """
    n, h, w, c = x.shape
    if (h, w) != (1, 1):
        raise ShapeError(f"bilinear_upsample: input must be a pooled (n, 1, 1, c) map, "
                         f"got {x.shape}")
    if out_h < 1 or out_w < 1:
        raise ShapeError(f"bilinear_upsample: bad target size {out_h}x{out_w}")
    out = np.broadcast_to(x.data, (n, out_h, out_w, c)).copy()

    def rule(g: np.ndarray):
        gx = np.zeros((n, 1, 1, c), dtype=g.dtype)
        for i, j in np.ndindex(out_h, out_w):
            gx += g[:, i : i + 1, j : j + 1]
        return (gx,)

    return record_op("bilinear_upsample", (x,), out, rule)
