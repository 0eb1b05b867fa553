"""Training objective: L2 weight regularization plus per-pixel data terms.

Over the decoder head's per-pixel logits z, the total loss is

    lambda * sum_k ||W_k||_2^2  +  mean_ce(z, target)
                                +  beta * mean((sigmoid(z) - target)^2)

where mean_ce is the binary cross entropy of sigmoid(z) against the {0,1}
target, computed as max(z, 0) - t*z + log1p(exp(-|z|)) and averaged over
all pixels; its gradient sigmoid(z) - t does not vanish when z saturates.
The objective is one tape node, differentiable in z and in every weight.
Its rule returns each weight's L2 term, 2 * lambda * W, deferred (see
``tensor``): the term is formed only when the sweep first sums it with the
weight's convolution gradient or yields it, and it reads the weight's buffer
before anything updates it. So the loss node, which runs first in the
backward, does not hold every weight's gradient at once, and each sum is
still the L2 term plus the convolution gradient, in that order.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from .errors import ShapeError
from .tensor import Tensor, record_op

__all__ = ["sigmoid", "total_loss", "LOSS_FORMULA"]

LOSS_FORMULA = ("loss = lambda * sum||W||^2 + mean_ce(logits, target)"
                " + beta * mean((sigmoid(logits) - target)^2)")


def sigmoid(z: np.ndarray) -> np.ndarray:
    """Logistic function 1 / (1 + exp(-z)), computed overflow-free."""
    out = np.empty_like(z)
    pos = z >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-z[pos]))
    ex = np.exp(z[~pos])
    out[~pos] = ex / (1.0 + ex)
    return out


def total_loss(
    logits: Tensor,
    target: Tensor,
    params: Sequence[Tensor],
    lam: float,
    beta: float,
) -> Tensor:
    """Scalar training loss over a batch; see module docstring for the formula.

    The weights are inputs only when ``lam`` is nonzero. Terms are summed,
    and their gradients formed, in a fixed order: CE, then MSE, then the
    per-kernel sums of squares left to right.
    """
    if logits.shape != target.shape:
        raise ShapeError(f"total_loss: shape mismatch {logits.shape} vs {target.shape}")
    weights = tuple(params) if lam != 0.0 else ()
    z = logits.data
    t = target.data
    m = z.size
    p = sigmoid(z)
    ce = np.maximum(z, 0) - t * z + np.log1p(np.exp(-np.abs(z)))
    out = ce.mean(dtype=logits.dtype).reshape(1, 1, 1, 1)
    diff = p - t
    if beta != 0.0:
        out = out + (diff * diff).mean(dtype=logits.dtype).reshape(1, 1, 1, 1) * beta
    data = [w.data for w in weights]
    if data:
        reg = sum((d * d).sum(dtype=d.dtype).reshape(1, 1, 1, 1) for d in data)
        out = out + reg * lam

    def rule(g: np.ndarray):
        gz = g.reshape(()) * diff / m
        if beta != 0.0:
            gz = (g * beta).reshape(()) * 2.0 * diff * (p * (1.0 - p)) / m + gz
        g_lam = (g * lam).reshape(())
        return (gz, None, *(lambda d=d: g_lam * 2.0 * d for d in data))

    return record_op("total_loss", (logits, target, *weights), out, rule)
