"""Adam optimizer, poly learning-rate schedule, the mini-batch training
loop, and a synthetic vessel-image generator for desk-scale experiments.

The generator draws bright quadratic Bezier polylines (widths 1 to 4 px,
with optional side branches) on a dark noisy background and returns the
exact rasterized support as the binary mask, so ground truth is perfect by
construction. Everything is a pure function of its seed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Iterable, Sequence

import numpy as np

from .errors import ConfigError, GraphError, ShapeError
from .tensor import Tensor, default_dtype, leaf_gradients, recording
from .losses import sigmoid, total_loss
from .metrics import MASK_THRESHOLD, ConfusionCounts, MetricsReport, confusion, metrics
from .model import DOWNSAMPLE_FACTOR

__all__ = [
    "TrainConfig",
    "AdamState",
    "poly_lr",
    "adam_step",
    "train",
    "evaluate",
    "predict_probs",
    "synth_vessels",
]


@dataclass(frozen=True)
class TrainConfig:
    """Optimization hyperparameters.

    ``lr`` is the initial learning rate of the poly schedule
    lr * (1 - iter/max_iter)^power. A zero ``lr`` is accepted and freezes
    the model, which is occasionally useful in tests. ``lam`` and ``beta``
    weight the L2 regularizer and the squared-distance term of
    :func:`total_loss`. All four must be finite.
    """

    lr: float = 1e-4
    power: float = 0.9
    max_iter: int = 1000
    batch: int = 4
    seed: int = 0
    lam: float = 1e-4
    beta: float = 1.0

    def __post_init__(self) -> None:
        for name, value in (("lr", self.lr), ("power", self.power),
                            ("lambda", self.lam), ("beta", self.beta)):
            if not math.isfinite(value):
                raise ConfigError(f"{name} must be finite, got {value}")
        if self.lr < 0:
            raise ConfigError(f"lr must be >= 0, got {self.lr}")
        if self.power <= 0:
            raise ConfigError(f"power must be > 0, got {self.power}")
        if self.max_iter < 1:
            raise ConfigError(f"max_iter must be >= 1, got {self.max_iter}")
        if self.batch < 1:
            raise ConfigError(f"batch must be >= 1, got {self.batch}")
        if self.lam < 0 or self.beta < 0:
            raise ConfigError(
                f"loss weights must be non-negative, got lambda={self.lam} beta={self.beta}"
            )


def poly_lr(iteration: int, cfg: TrainConfig) -> float:
    """lr * (1 - iter/max_iter)^power; defined on 0 <= iter <= max_iter."""
    if iteration < 0 or iteration > cfg.max_iter:
        raise ConfigError(
            f"poly_lr: iteration {iteration} outside [0, {cfg.max_iter}]"
        )
    return cfg.lr * (1.0 - iteration / cfg.max_iter) ** cfg.power


# Adam's moment decay rates and the denominator's eps, the standard values.
BETA1 = 0.9
BETA2 = 0.999
EPS = 1e-8


class AdamState:
    """Adam's state over a fixed set of parameters: the (m, v) moments of
    each, keyed by the parameter, the shared step count ``t``, and two work
    buffers per dtype, sized to the largest parameter and shared by all of
    them, allocated on first use and kept across steps."""

    def __init__(self, params: Sequence[Tensor]):
        self.moments = {p: (np.zeros_like(p.data), np.zeros_like(p.data)) for p in params}
        self.t = 0
        self._size = max((p.data.size for p in params), default=0)
        self._buffers: dict[tuple[int, np.dtype], np.ndarray] = {}

    def _buffer(self, slot: int, like: np.ndarray) -> np.ndarray:
        """Work buffer ``slot`` (0 or 1) shaped and typed like ``like``."""
        key = (slot, like.dtype)
        if key not in self._buffers:
            self._buffers[key] = np.empty(self._size, dtype=like.dtype)
        return self._buffers[key][: like.size].reshape(like.shape)


def adam_step(pairs: Iterable[tuple[Tensor, np.ndarray]], state: AdamState, lr: float) -> None:
    """One Adam step over the (parameter, gradient) ``pairs``, each
    parameter updated in place as its pair arrives.

    The step count increments first, then bias-corrected moments drive
    p -= lr * m_hat / (sqrt(v_hat) + eps), with eps added outside the root.
    Every intermediate is written into the state's two work buffers, in the
    operation order of the plain array expression, so the result is
    bit-identical to it. A gradient is dropped before the next pair is
    asked for, so a stream such as :func:`leaf_gradients` holds one at a
    time. Raises ShapeError for a parameter the state does not hold or a
    gradient of another shape, and GraphError unless every parameter of
    the state came exactly once; the pairs before the error are applied.
    """
    state.t += 1
    bc1, bc2 = 1.0 - BETA1 ** state.t, 1.0 - BETA2 ** state.t
    temp = state._buffer
    seen: set[int] = set()
    for p, g in pairs:
        if p not in state.moments:
            raise ShapeError(f"adam_step: a parameter of shape {p.shape} is not in the state")
        if id(p) in seen:
            raise GraphError(f"adam_step: a parameter of shape {p.shape} came twice")
        if g.shape != p.data.shape:
            raise ShapeError(f"adam_step: gradient shape {g.shape} does not match "
                             f"parameter shape {p.data.shape}")
        seen.add(id(p))
        m, v = state.moments[p]
        m *= BETA1
        m += np.multiply(g, 1.0 - BETA1, out=temp(0, g))
        v *= BETA2
        gg = np.multiply(g, g, out=temp(0, g))
        gg *= 1.0 - BETA2
        v += gg
        step = np.divide(m, bc1, out=temp(0, m))
        step *= lr
        denom = np.divide(v, bc2, out=temp(1, v))
        np.sqrt(denom, out=denom)
        denom += EPS
        step /= denom
        p.data -= step
        del g
    if len(seen) != len(state.moments):
        raise GraphError(f"adam_step: {len(state.moments) - len(seen)} of "
                         f"{len(state.moments)} parameters got no gradient")


class _BatchSampler:
    """Seeded epoch-shuffled index stream; reshuffles when exhausted."""

    def __init__(self, n: int, rng: np.random.Generator):
        self.n = n
        self.rng = rng
        self.queue: list[int] = []

    def take(self, count: int) -> list[int]:
        out: list[int] = []
        while len(out) < count:
            if not self.queue:
                self.queue = list(self.rng.permutation(self.n))
            out.append(self.queue.pop(0))
        return out


def _stack_batch(dataset, indices):
    x = np.stack([dataset[i][0] for i in indices]).astype(default_dtype())
    y = np.stack([dataset[i][1] for i in indices]).astype(default_dtype())
    return Tensor(x), Tensor(y)


def train(
    dataset,
    model,
    cfg: TrainConfig,
    on_step: Callable[[int, float], bool] | None = None,
) -> list[tuple[int, float, float]]:
    """Run max_iter optimization steps and return the (step, lr, loss) trace.

    Each step streams the backward sweep, :func:`leaf_gradients`, into
    :func:`adam_step`, so a parameter is updated as soon as its gradient is
    final and one parameter gradient is held at a time; the one
    :class:`AdamState` keeps the moments and work buffers across steps.
    ``on_step(step, loss)`` may return True to stop early (the trace keeps
    whatever was run); the step's tape and gradients are gone by then.
    Deterministic given the seed: batch order and arithmetic both derive
    from it. The parameters end bit-identical to ``backward`` followed by
    ``adam_step`` on each batch.
    """
    if len(dataset) == 0:
        raise ConfigError("train: dataset is empty")
    state = AdamState(list(model.parameters().values()))
    reg_params = model.kernel_parameters()
    rng = np.random.default_rng(cfg.seed)
    sampler = _BatchSampler(len(dataset), rng)
    trace: list[tuple[int, float, float]] = []

    for step in range(cfg.max_iter):
        lr = poly_lr(step, cfg)
        batch = _stack_batch(dataset, sampler.take(cfg.batch))
        loss_value = _train_step(model, batch, reg_params, cfg, lr, state)
        trace.append((step, lr, loss_value))
        if on_step is not None and on_step(step, loss_value):
            break
    return trace


def _train_step(model, batch, reg_params, cfg: TrainConfig, lr: float, state: AdamState) -> float:
    """One recorded forward, then its backward sweep streamed into
    :func:`adam_step`; returns the loss. The tape is a local here, released
    when the step returns."""
    xb, yb = batch
    with recording() as graph:
        loss = total_loss(model.forward(xb), yb, reg_params, cfg.lam, cfg.beta)
        adam_step(leaf_gradients(loss, graph), state, lr)
    return loss.item()


def predict_probs(model, image: np.ndarray) -> np.ndarray:
    """Probability map (H, W) for one (H, W, C) image, without recording.

    An image whose sides are not multiples of the network's downsampling
    factor (16) is zero-padded at the bottom and right up to the next ones,
    as dark as a fundus background, and its map is cropped back.
    """
    x = np.asarray(image, dtype=default_dtype())
    h, w = x.shape[:2]
    if h % DOWNSAMPLE_FACTOR or w % DOWNSAMPLE_FACTOR:
        x = np.pad(x, ((0, -h % DOWNSAMPLE_FACTOR), (0, -w % DOWNSAMPLE_FACTOR), (0, 0)))
    return sigmoid(model.forward(Tensor(x[None])).data)[0, :h, :w, 0]


def evaluate(model, dataset) -> tuple[MetricsReport, ConfusionCounts]:
    """Metrics at ``MASK_THRESHOLD`` over a dataset, confusion summed across images."""
    if len(dataset) == 0:
        raise ConfigError("evaluate: dataset is empty")
    counts = ConfusionCounts(0, 0, 0, 0)
    for sample in dataset:
        img, mask = sample[0], sample[1]
        probs = predict_probs(model, img)
        counts = counts + confusion(probs >= MASK_THRESHOLD, np.asarray(mask).squeeze())
    return metrics(counts), counts


# --- synthetic vessel images -------------------------------------------------

_CHANNEL_GAINS = np.array([1.0, 0.82, 0.70])  # reddish tint, fundus-like
BACKGROUND = 0.15  # intensity of non-vessel pixels before the channel gains
FOREGROUND = 0.75  # intensity of vessel (and distractor) pixels


def _raster_bezier(mask: np.ndarray, p0, p1, p2, width: int) -> None:
    """Mark the support of a quadratic Bezier stroke of the given width."""
    h, w = mask.shape
    approx_len = np.hypot(*(p1 - p0)) + np.hypot(*(p2 - p1))
    steps = max(8, int(3 * approx_len))
    pts = _bezier_point(p0, p1, p2, np.linspace(0.0, 1.0, steps)[:, None])
    radius = width / 2.0
    r_int = int(np.ceil(radius))
    # One (2r+1)² window per sample point, centred on the rounded point.
    offsets = np.arange(-r_int, r_int + 1)
    y, x = pts[:, 0, None, None], pts[:, 1, None, None]
    yy = np.rint(y).astype(np.int64) + offsets[:, None]
    xx = np.rint(x).astype(np.int64) + offsets[None, :]
    hit = (yy - y) ** 2 + (xx - x) ** 2 <= radius * radius
    hit &= (yy >= 0) & (yy < h) & (xx >= 0) & (xx < w)
    rows, cols = np.broadcast_arrays(yy, xx)
    mask[rows[hit], cols[hit]] = True


def _random_curve(rng: np.random.Generator, h: int, w: int):
    """Endpoints near opposite borders with a random interior control point."""
    side = rng.integers(0, 2)
    if side == 0:  # roughly top to bottom
        p0 = np.array([rng.uniform(0, 0.15 * h), rng.uniform(0, w - 1)])
        p2 = np.array([rng.uniform(0.85 * h, h - 1), rng.uniform(0, w - 1)])
    else:  # roughly left to right
        p0 = np.array([rng.uniform(0, h - 1), rng.uniform(0, 0.15 * w)])
        p2 = np.array([rng.uniform(0, h - 1), rng.uniform(0.85 * w, w - 1)])
    p1 = np.array([rng.uniform(0, h - 1), rng.uniform(0, w - 1)])
    return p0, p1, p2


def _bezier_point(p0, p1, p2, t):
    """Point(s) of the quadratic Bezier curve at t, a scalar or an (m, 1) column."""
    return (1 - t) ** 2 * p0 + 2 * (1 - t) * t * p1 + t**2 * p2


def synth_vessels(
    seed: int,
    n: int,
    h: int,
    w: int,
    noise: float = 0.05,
    distractors: int = 0,
) -> list[tuple[np.ndarray, np.ndarray]]:
    """Generate n (image, mask) pairs of bright curves on a dark background.

    Images are (h, w, 3) floats in [0, 1]; masks are (h, w, 1) exact binary
    supports of the drawn curves. ``distractors`` adds that many bright
    blobs per image to the image only, so telling vessel from blob requires
    shape context rather than brightness. The vessel-pixel fraction is kept
    within a few percent to a quarter of the image by adding or withholding
    curves.
    """
    if h < 16 or w < 16:
        raise ConfigError(f"synth_vessels: image size must be at least 16, got {h}x{w}")
    rng = np.random.default_rng(seed)
    dataset = []
    area = h * w
    base_curves = max(2, round(area / 1800))
    for _ in range(n):
        mask = np.zeros((h, w), dtype=bool)
        curves = 0
        while curves < base_curves + 3:
            p0, p1, p2 = _random_curve(rng, h, w)
            width = int(rng.integers(1, 5))
            _raster_bezier(mask, p0, p1, p2, width)
            for _ in range(int(rng.integers(0, 3))):
                if np.count_nonzero(mask) / area > 0.18:
                    break
                t0 = rng.uniform(0.2, 0.8)
                start = _bezier_point(p0, p1, p2, t0)
                end = np.array([rng.uniform(0, h - 1), rng.uniform(0, w - 1)])
                ctrl = (start + end) / 2 + rng.uniform(-0.2, 0.2, 2) * [h, w]
                _raster_bezier(mask, start, ctrl, end, max(1, width - int(rng.integers(0, 2))))
            curves += 1
            if curves >= base_curves and np.count_nonzero(mask) / area > 0.06:
                break
            if np.count_nonzero(mask) / area > 0.20:
                break

        level = np.where(mask, FOREGROUND, BACKGROUND)
        image = level[:, :, None] * _CHANNEL_GAINS
        if distractors > 0:
            blob = np.zeros((h, w), dtype=bool)
            for _ in range(distractors):
                cy, cx = rng.uniform(0, h - 1), rng.uniform(0, w - 1)
                r = rng.uniform(2.0, 5.0)
                yy, xx = np.mgrid[0:h, 0:w]
                blob |= (yy - cy) ** 2 + (xx - cx) ** 2 <= r * r
            blob &= ~mask  # vessels keep their own intensity
            image = np.where(blob[:, :, None], FOREGROUND * _CHANNEL_GAINS, image)
        if noise > 0:
            image = image + noise * rng.standard_normal((h, w, 3))
        image = np.clip(image, 0.0, 1.0)
        dataset.append((image, mask.astype(np.float64)[:, :, None]))
    return dataset
