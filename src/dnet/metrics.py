"""Segmentation evaluation: confusion counts, threshold metrics, ROC/PR curves.

Positives are vessel pixels. Metrics can be restricted to a field-of-view
mask so that the black border of a fundus image does not inflate the true
negative count. The curve sweep is rank-based over the unique scores in
descending order, which makes every derived quantity invariant under
strictly monotone transforms of the scores; ROC area by the trapezoidal
rule then equals the probability that a random positive outranks a random
negative, counting ties as one half.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ShapeError

__all__ = [
    "ConfusionCounts",
    "MetricsReport",
    "CurveReport",
    "confusion",
    "metrics",
    "roc_pr_curves",
]

MASK_THRESHOLD = 0.5  # a probability at or above this is predicted vessel


@dataclass(frozen=True)
class ConfusionCounts:
    tp: int
    tn: int
    fp: int
    fn: int

    @property
    def total(self) -> int:
        return self.tp + self.tn + self.fp + self.fn

    def __add__(self, other: "ConfusionCounts") -> "ConfusionCounts":
        return ConfusionCounts(
            self.tp + other.tp, self.tn + other.tn, self.fp + other.fp, self.fn + other.fn
        )


@dataclass(frozen=True)
class MetricsReport:
    accuracy: float
    precision: float
    recall: float
    specificity: float
    f1: float
    degenerate: frozenset[str] = frozenset()

    def rows(self) -> list[tuple[str, float]]:
        return [
            ("accuracy", self.accuracy),
            ("precision", self.precision),
            ("recall", self.recall),
            ("specificity", self.specificity),
            ("f1", self.f1),
        ]


def confusion(pred_bin, gt, fov=None) -> ConfusionCounts:
    """Pixel confusion counts between binary prediction and ground truth.

    ``fov``, when given, restricts counting to its nonzero pixels.
    """
    p = np.asarray(pred_bin)
    g = np.asarray(gt)
    if p.shape != g.shape:
        raise ShapeError(f"confusion: shape mismatch {p.shape} vs {g.shape}")
    p = p > 0.5
    g = g > 0.5
    if fov is not None:
        f = np.asarray(fov)
        if f.shape != p.shape:
            raise ShapeError(f"confusion: fov shape {f.shape} does not match {p.shape}")
        keep = f > 0.5
        p, g = p[keep], g[keep]
    tp = int(np.count_nonzero(p & g))
    tn = int(np.count_nonzero(~p & ~g))
    fp = int(np.count_nonzero(p & ~g))
    fn = int(np.count_nonzero(~p & g))
    return ConfusionCounts(tp, tn, fp, fn)


def _safe_div(num: float, den: float, name: str, degenerate: set[str]) -> float:
    if den == 0:
        degenerate.add(name)
        return 0.0
    return num / den


def metrics(c: ConfusionCounts) -> MetricsReport:
    """Accuracy, precision, recall, specificity and F1 from confusion counts.

    Zero-denominator cases yield 0.0 and are flagged in ``degenerate``; an
    entirely empty count is an error.
    """
    if c.total == 0:
        raise ShapeError("metrics: confusion counts are all zero")
    degenerate: set[str] = set()
    accuracy = (c.tp + c.tn) / c.total
    precision = _safe_div(c.tp, c.tp + c.fp, "precision", degenerate)
    recall = _safe_div(c.tp, c.tp + c.fn, "recall", degenerate)
    specificity = _safe_div(c.tn, c.tn + c.fp, "specificity", degenerate)
    f1 = _safe_div(2.0 * precision * recall, precision + recall, "f1", degenerate)
    return MetricsReport(accuracy, precision, recall, specificity, f1, frozenset(degenerate))


@dataclass(frozen=True)
class CurveReport:
    """ROC and PR curves from a descending threshold sweep.

    Both curves share ``thresholds``, and recall is ``tpr``. The first row
    is the sweep start (threshold +inf): (0, 0) for ROC and recall 0 at
    precision 1 for PR. ``auc_roc`` and ``auc_pr`` are trapezoidal areas
    over FPR and recall respectively.
    """

    thresholds: np.ndarray
    fpr: np.ndarray
    tpr: np.ndarray
    precision: np.ndarray
    auc_roc: float
    auc_pr: float


def roc_pr_curves(scores, labels) -> CurveReport:
    s = np.asarray(scores, dtype=np.float64).ravel()
    y = np.asarray(labels).ravel() > 0.5
    if s.shape != y.shape:
        raise ShapeError(f"roc_pr_curves: {s.size} scores vs {y.size} labels")
    n_pos = int(y.sum())
    n_neg = int(y.size - n_pos)
    if n_pos == 0 or n_neg == 0:
        raise ShapeError("roc_pr_curves: need at least one positive and one negative label")
    if np.isnan(s).any():
        raise ShapeError("roc_pr_curves: scores contain NaN, which has no rank")

    # Counts are read only at the last index of each tied group, so the order
    # inside a tie is irrelevant and the sort need not be stable.
    order = np.argsort(-s)
    s_sorted = s[order]
    y_sorted = y[order]
    # Last index of every tied group of equal scores. Compared, not
    # differenced: inf - inf is NaN, which would split a tie of infinities.
    distinct = np.nonzero(s_sorted[1:] != s_sorted[:-1])[0]
    ends = np.r_[distinct, s_sorted.size - 1]
    cum_tp = np.cumsum(y_sorted)[ends].astype(np.float64)
    cum_fp = (ends + 1) - cum_tp
    thresholds = s_sorted[ends] + 0.0  # a tie of -0.0 and 0.0 reads 0.0 in any order

    tpr = np.r_[0.0, cum_tp / n_pos]
    fpr = np.r_[0.0, cum_fp / n_neg]
    precision = np.r_[1.0, cum_tp / (cum_tp + cum_fp)]
    auc_roc = float(np.trapezoid(tpr, fpr))
    auc_pr = float(np.trapezoid(precision, tpr))
    return CurveReport(np.r_[np.inf, thresholds], fpr, tpr, precision, auc_roc, auc_pr)
