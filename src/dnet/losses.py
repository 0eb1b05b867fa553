"""Training objective: L2 weight regularization plus per-pixel data terms.

The total loss is

    lambda * sum_k ||W_k||_2^2  +  mean_ce(pred, target)
                                +  beta * mean((pred - target)^2)

where mean_ce is the per-pixel binary cross entropy against the {0,1}
target, averaged over all pixels, with predictions clamped away from 0 and
1 before the logs. The whole objective is one node on the autodiff tape,
differentiable in the prediction and in every weight tensor.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from .errors import ShapeError
from .tensor import Tensor, record_op

__all__ = ["total_loss", "LOSS_FORMULA"]

LOSS_FORMULA = (
    "loss = lambda * sum||W||^2 + mean_ce(pred, target) + beta * mean((pred - target)^2)"
)

EPS = 1e-7  # predictions are clamped to [EPS, 1 - EPS] before the logs


def total_loss(
    pred: Tensor,
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
    if pred.shape != target.shape:
        raise ShapeError(f"total_loss: shape mismatch {pred.shape} vs {target.shape}")
    weights = tuple(params) if lam != 0.0 else ()
    p = np.clip(pred.data, EPS, 1.0 - EPS)
    t = target.data
    m = p.size
    active = (pred.data > EPS) & (pred.data < 1.0 - EPS)
    ce = -(t * np.log(p) + (1.0 - t) * np.log1p(-p))
    out = ce.mean(dtype=pred.dtype).reshape(1, 1, 1, 1)
    diff = pred.data - target.data
    if beta != 0.0:
        out = out + (diff * diff).mean(dtype=pred.dtype).reshape(1, 1, 1, 1) * beta
    data = [w.data for w in weights]
    if data:
        reg = sum((d * d).sum(dtype=d.dtype).reshape(1, 1, 1, 1) for d in data)
        out = out + reg * lam

    def rule(g: np.ndarray):
        gp = g.reshape(()) * active * (p - t) / (p * (1.0 - p)) / m
        if beta != 0.0:
            gp = (g * beta).reshape(()) * 2.0 * diff / m + gp
        g_lam = (g * lam).reshape(())
        return (gp, None, *(g_lam * 2.0 * d for d in data))

    return record_op("total_loss", (pred, target, *weights), out, rule)
