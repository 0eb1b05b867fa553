"""Training objective: L2 weight regularization plus per-pixel data terms.

The total loss is

    lambda * sum_k ||W_k||_2^2  +  ce_weight * mean_ce(pred, target)
                                +  beta * mean((pred - target)^2)

where mean_ce is the per-pixel binary cross entropy against the {0,1}
target, averaged over all pixels, with predictions clamped away from 0 and
1 before the logs. All three terms are recorded on the autodiff tape, so
the loss is differentiable in the prediction and in every weight tensor.
``ce_weight`` exists as a test hook for isolating individual terms.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import ConfigError, ShapeError
from .tensor import Tensor, elementwise_add, record_op, scale

__all__ = ["LossConfig", "total_loss", "bce_mean", "mse_mean", "sumsq", "LOSS_FORMULA"]

LOSS_FORMULA = (
    "loss = lambda * sum||W||^2 + mean_ce(pred, target) + beta * mean((pred - target)^2)"
)

EPS = 1e-7  # predictions are clamped to [EPS, 1 - EPS] before the logs


@dataclass(frozen=True)
class LossConfig:
    """Weights of the loss terms; all must be non-negative."""

    lam: float = 1e-4
    beta: float = 1.0
    ce_weight: float = 1.0

    def __post_init__(self) -> None:
        if self.lam < 0 or self.beta < 0 or self.ce_weight < 0:
            raise ConfigError(
                f"loss weights must be non-negative, got lambda={self.lam} "
                f"beta={self.beta} ce_weight={self.ce_weight}"
            )


def bce_mean(pred: Tensor, target: Tensor) -> Tensor:
    """Mean binary cross entropy with predictions clamped to [EPS, 1-EPS]."""
    if pred.shape != target.shape:
        raise ShapeError(f"bce_mean: shape mismatch {pred.shape} vs {target.shape}")
    p = np.clip(pred.data, EPS, 1.0 - EPS)
    t = target.data
    m = p.size
    ce = -(t * np.log(p) + (1.0 - t) * np.log1p(-p))
    out = ce.mean(dtype=pred.dtype).reshape(1, 1, 1, 1)
    active = (pred.data > EPS) & (pred.data < 1.0 - EPS)

    def rule(g: np.ndarray):
        gp = g.reshape(()) * active * (p - t) / (p * (1.0 - p)) / m
        return gp, None

    return record_op("bce_mean", (pred, target), out, rule)


def mse_mean(pred: Tensor, target: Tensor) -> Tensor:
    """Mean squared distance between prediction and target."""
    if pred.shape != target.shape:
        raise ShapeError(f"mse_mean: shape mismatch {pred.shape} vs {target.shape}")
    diff = pred.data - target.data
    m = diff.size
    out = (diff * diff).mean(dtype=pred.dtype).reshape(1, 1, 1, 1)

    def rule(g: np.ndarray):
        gp = g.reshape(()) * 2.0 * diff / m
        return gp, None

    return record_op("mse_mean", (pred, target), out, rule)


def sumsq(t: Tensor) -> Tensor:
    """Sum of squared entries, the squared L2 norm of one weight tensor."""
    out = (t.data * t.data).sum(dtype=t.dtype).reshape(1, 1, 1, 1)
    data = t.data

    def rule(g: np.ndarray):
        return (g.reshape(()) * 2.0 * data,)

    return record_op("sumsq", (t,), out, rule)


def total_loss(
    pred: Tensor,
    target: Tensor,
    params: Sequence[Tensor],
    cfg: LossConfig,
) -> Tensor:
    """Scalar training loss over a batch; see module docstring for the formula."""
    if pred.shape != target.shape:
        raise ShapeError(f"total_loss: shape mismatch {pred.shape} vs {target.shape}")
    loss = scale(bce_mean(pred, target), cfg.ce_weight)
    if cfg.beta != 0.0:
        loss = elementwise_add(loss, scale(mse_mean(pred, target), cfg.beta))
    if cfg.lam != 0.0 and params:
        reg = sumsq(params[0])
        for p in params[1:]:
            reg = elementwise_add(reg, sumsq(p))
        loss = elementwise_add(loss, scale(reg, cfg.lam))
    return loss
