"""Shared test utilities: tensor builders, autodiff probes,
finite-difference gradients and reference oracles.

``multiply``, ``sum_all``, ``elementwise_add`` and ``relu`` are recorded
operators that the package does not need; tests use them to turn any tensor
into a scalar loss with a known upstream gradient, and as the separate-node
references that the convolutions' fused ReLU and residual sum must match.
``concat_channels`` and ``bilinear_upsample`` are the separate-node
references for the convolutions' input parts: a tuple of parts must give
the bytes of one concatenated input, a broadcast (n, 1, 1, c) part those of
its upsample.
``depthwise_padded`` and ``max_pool_padded`` are the depthwise and
max-pool forwards over a whole padded copy of the input, the references
for the forwards that read each tap's in-range window in place.
The finite-difference helper perturbs raw parameter entries and re-runs the
forward function, so it is independent of every backward rule it checks.
The naive convolution oracle is a plain scalar loop accumulating in the same
dtype as the production code, which lets tests assert bit-identical
agreement in deterministic mode.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np
import pytest

from dnet.errors import ShapeError
from dnet.tensor import Tensor, default_dtype, record_op


def tensor(data, shape: Sequence[int] | None = None, requires_grad: bool = False) -> Tensor:
    """Build a tensor, optionally reshaping flat data into an explicit 4-D shape."""
    arr = np.asarray(data, dtype=default_dtype())
    if shape is not None:
        arr = arr.reshape(tuple(shape))
    return Tensor(arr, requires_grad=requires_grad)


def zeros(shape: Sequence[int], requires_grad: bool = False) -> Tensor:
    return Tensor(np.zeros(tuple(shape), dtype=default_dtype()), requires_grad=requires_grad)


def multiply(a: Tensor, b: Tensor) -> Tensor:
    """Elementwise product (Hadamard), recorded."""
    if a.shape != b.shape:
        raise ShapeError(f"multiply: shape mismatch {a.shape} vs {b.shape}")
    a_data, b_data = a.data, b.data

    def rule(g: np.ndarray):
        return g * b_data, g * a_data

    return record_op("mul", (a, b), a_data * b_data, rule)


def sum_all(x: Tensor) -> Tensor:
    """Sum of every element, as a recorded (1, 1, 1, 1) scalar tensor."""
    out = x.data.sum(dtype=x.dtype).reshape(1, 1, 1, 1)
    shape = x.shape

    def rule(g: np.ndarray):
        return (np.broadcast_to(g.reshape(()), shape).copy(),)

    return record_op("sum_all", (x,), out, rule)


def elementwise_add(a: Tensor, b: Tensor) -> Tensor:
    """Elementwise sum; both inputs receive the upstream gradient unchanged."""
    if a.shape != b.shape:
        raise ShapeError(f"elementwise_add: shape mismatch {a.shape} vs {b.shape}")
    out = a.data + b.data

    def rule(g: np.ndarray):
        return g, g

    return record_op("add", (a, b), out, rule)


def relu(x: Tensor) -> Tensor:
    """max(0, x); gradient passes where x > 0 and is zero elsewhere."""
    out = np.maximum(x.data, 0)

    def rule(g: np.ndarray):
        return (g * (out > 0),)  # out > 0 exactly where x > 0, NaN included

    return record_op("relu", (x,), out, rule)


def concat_channels(parts: Sequence[Tensor]) -> Tensor:
    """Concatenate along the channel axis, preserving argument order.

    The backward rule splits the upstream gradient back into the original
    channel ranges, so concat followed by the matching channel slices is an
    exact round trip.
    """
    if len(parts) == 0:
        raise ShapeError("concat_channels: need at least one part")
    first = parts[0].shape[:3]
    for p in parts[1:]:
        if p.shape[:3] != first:
            raise ShapeError(
                f"concat_channels: batch/spatial mismatch {p.shape[:3]} vs {first}"
            )
    out = np.concatenate([p.data for p in parts], axis=3)
    widths = [p.channels for p in parts]

    def rule(g: np.ndarray):
        grads = []
        start = 0
        for w in widths:
            grads.append(g[:, :, :, start : start + w])
            start += w
        return grads

    return record_op("concat", tuple(parts), out, rule)


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


def depthwise_padded(x, w, bias, stride, dilation, pads):
    """Depthwise forward over a zero-padded copy of ``x``: the bias, then
    each tap's product with its strided view of the copy added in row-major
    tap order. ``w`` is (kh, kw, c, 1) and runs whole."""
    pt, pb, pl, pr = pads
    xp = np.pad(x, ((0, 0), (pt, pb), (pl, pr), (0, 0)))
    kh, kw = w.shape[:2]
    ho = (xp.shape[1] - (kh - 1) * dilation - 1) // stride + 1
    wo = (xp.shape[2] - (kw - 1) * dilation - 1) // stride + 1
    out = np.empty((x.shape[0], ho, wo, x.shape[3]), dtype=x.dtype)
    out[...] = 0.0 if bias is None else bias
    for a, b in np.ndindex(kh, kw):
        i, j = a * dilation, b * dilation
        out += xp[:, i : i + (ho - 1) * stride + 1 : stride,
                  j : j + (wo - 1) * stride + 1 : stride] * w[a, b, :, 0]
    return out


def max_pool_padded(x, k, stride, pads):
    """Max-pool forward over a -inf-padded copy of ``x``: the first tap's
    view copied, then a running ``np.maximum(tap, out)`` over the others in
    row-major order; windows clip to the padded extent."""
    pt, pb, pl, pr = pads
    xp = np.pad(x, ((0, 0), (pt, pb), (pl, pr), (0, 0)), constant_values=-np.inf)
    kh, kw = min(k, xp.shape[1]), min(k, xp.shape[2])
    ho = (xp.shape[1] - kh) // stride + 1
    wo = (xp.shape[2] - kw) // stride + 1

    def tap(a, b):
        return xp[:, a : a + (ho - 1) * stride + 1 : stride, b : b + (wo - 1) * stride + 1 : stride]

    out = tap(0, 0).copy()
    for a, b in list(np.ndindex(kh, kw))[1:]:
        np.maximum(tap(a, b), out, out=out)
    return out


def fd_grad_entries(loss_fn, t: Tensor, entries, eps: float = 1e-4) -> np.ndarray:
    """Central finite differences of loss_fn() w.r.t. selected entries of t."""
    out = np.empty(len(entries), dtype=np.float64)
    flat = t.data.reshape(-1)
    for row, idx in enumerate(entries):
        original = flat[idx]
        flat[idx] = original + eps
        lp = loss_fn()
        flat[idx] = original - eps
        lm = loss_fn()
        flat[idx] = original
        out[row] = (lp - lm) / (2.0 * eps)
    return out


def fd_full_grad(loss_fn, t: Tensor, eps: float = 1e-4) -> np.ndarray:
    grad = fd_grad_entries(loss_fn, t, range(t.data.size), eps)
    return grad.reshape(t.shape)


def max_rel_err(analytic: np.ndarray, numeric: np.ndarray, floor: float = 1e-3) -> float:
    a = np.asarray(analytic, dtype=np.float64)
    f = np.asarray(numeric, dtype=np.float64)
    denom = np.maximum(np.maximum(np.abs(a), np.abs(f)), floor)
    return float((np.abs(a - f) / denom).max())


def conv2d_naive(x, w, bias, stride, dilation, pads):
    """Direct sliding-window convolution with scalar tap-ordered accumulation.

    Operates on raw arrays; every multiply and add happens one tap at a time
    in (kernel row, kernel col, input channel) order and in the input dtype,
    mirroring the arithmetic order of the deterministic production path.
    """
    x = np.asarray(x)
    w = np.asarray(w)
    n, h, width, cin = x.shape
    kh, kw, cin2, cout = w.shape
    assert cin == cin2
    pt, pb, pl, pr = pads
    kdh = kh + (kh - 1) * (dilation - 1)
    kdw = kw + (kw - 1) * (dilation - 1)
    hp, wp = h + pt + pb, width + pl + pr
    ho = (hp - kdh) // stride + 1
    wo = (wp - kdw) // stride + 1
    out = np.zeros((n, ho, wo, cout), dtype=x.dtype)
    zero = x.dtype.type(0)
    for nn in range(n):
        for i in range(ho):
            for j in range(wo):
                for c in range(cout):
                    acc = bias[0, 0, 0, c] if bias is not None else zero
                    for a in range(kh):
                        for b in range(kw):
                            for m in range(cin):
                                ii = i * stride + a * dilation - pt
                                jj = j * stride + b * dilation - pl
                                if 0 <= ii < h and 0 <= jj < width:
                                    acc = acc + x[nn, ii, jj, m] * w[a, b, m, c]
                                else:
                                    acc = acc + zero * w[a, b, m, c]
                    out[nn, i, j, c] = acc
    return out


def zero_insert_kernel(w: np.ndarray, dilation: int) -> np.ndarray:
    """Insert dilation-1 zeros between kernel taps along both spatial axes."""
    kh, kw, cin, cout = w.shape
    kdh = kh + (kh - 1) * (dilation - 1)
    kdw = kw + (kw - 1) * (dilation - 1)
    out = np.zeros((kdh, kdw, cin, cout), dtype=w.dtype)
    out[::dilation, ::dilation] = w
    return out


@pytest.fixture
def rng():
    return np.random.default_rng(1234)
