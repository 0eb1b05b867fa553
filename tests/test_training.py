import os
import subprocess
import sys
import weakref
from pathlib import Path

import numpy as np
import pytest

import dnet
from dnet import tensor as tensor_module
from dnet.convops import using_deterministic
from dnet.errors import ConfigError, ShapeError
from dnet.losses import total_loss
from dnet.model import DNet, DNetConfig
from dnet.tensor import Tensor, backward, recording, using_dtype
from dnet.training import (
    BETA1,
    BETA2,
    EPS,
    AdamState,
    TrainConfig,
    _BatchSampler,
    _bezier_point,
    _raster_bezier,
    _stack_batch,
    adam_step,
    evaluate,
    poly_lr,
    predict_probs,
    synth_vessels,
    train,
)

from conftest import tensor

MICRO = dict(channels_scale=0.03125)  # 1/32 of the full widths


def reference_adam(params, grad_steps, lr, beta1=0.9, beta2=0.999, eps=1e-8):
    """Straight-line transcription of the standard Adam update rule."""
    params = [p.copy() for p in params]
    m = [np.zeros_like(p) for p in params]
    v = [np.zeros_like(p) for p in params]
    for t, grads in enumerate(grad_steps, start=1):
        for i, g in enumerate(grads):
            m[i] = beta1 * m[i] + (1 - beta1) * g
            v[i] = beta2 * v[i] + (1 - beta2) * g * g
            m_hat = m[i] / (1 - beta1**t)
            v_hat = v[i] / (1 - beta2**t)
            params[i] = params[i] - lr * m_hat / (np.sqrt(v_hat) + eps)
    return params


def expression_adam(params, grads, state, lr):
    """The plain-array Adam update that ``adam_step`` computes in place."""
    state.t += 1
    bc1 = 1.0 - BETA1 ** state.t
    bc2 = 1.0 - BETA2 ** state.t
    for p, g, m, v in zip(params, grads, state.m, state.v):
        m *= BETA1
        m += (1.0 - BETA1) * g
        v *= BETA2
        v += (1.0 - BETA2) * (g * g)
        p.data = p.data - lr * (m / bc1) / (np.sqrt(v / bc2) + EPS)


class TestPolyLR:
    def test_endpoints(self):
        cfg = TrainConfig(lr=1e-4, power=0.9, max_iter=100)
        assert poly_lr(0, cfg) == 1e-4
        assert poly_lr(100, cfg) == 0.0

    def test_midpoint_closed_form(self):
        cfg = TrainConfig(lr=1e-4, power=0.9, max_iter=100)
        assert poly_lr(50, cfg) == pytest.approx(1e-4 * 0.5**0.9, abs=1e-12)

    def test_strictly_decreasing(self):
        cfg = TrainConfig(lr=1e-3, power=0.5, max_iter=37)
        values = [poly_lr(i, cfg) for i in range(38)]
        assert all(a > b for a, b in zip(values, values[1:]))

    def test_out_of_range_rejected(self):
        cfg = TrainConfig(max_iter=10)
        with pytest.raises(ConfigError):
            poly_lr(11, cfg)
        with pytest.raises(ConfigError):
            poly_lr(-1, cfg)


class TestAdam:
    def test_zero_gradient_fresh_state_no_motion(self, rng):
        p = tensor(rng.normal(size=(2, 2, 2, 2)), requires_grad=True)
        before = p.data.copy()
        state = AdamState.for_params([p])
        adam_step([p], [np.zeros_like(p.data)], state, lr=0.1)
        assert np.array_equal(p.data, before)

    def test_one_step_magnitude_about_lr(self):
        with using_dtype(np.float64):
            p = tensor(np.zeros((1, 1, 1, 1)), requires_grad=True)
            state = AdamState.for_params([p])
            adam_step([p], [np.full((1, 1, 1, 1), 7.0)], state, lr=0.01)
            # bias corrections cancel at t=1: step = lr * g / (|g| + eps')
            assert abs(abs(p.data.ravel()[0]) - 0.01) < 1e-6

    def test_three_steps_match_reference_oracle(self, rng):
        with using_dtype(np.float64):
            shapes = [(1, 2, 2, 3), (1, 1, 1, 4)]
            params = [tensor(rng.normal(size=s), requires_grad=True) for s in shapes]
            initial = [p.data.copy() for p in params]
            grad_steps = [
                [rng.normal(size=s) for s in shapes] for _ in range(3)
            ]
            state = AdamState.for_params(params)
            for grads in grad_steps:
                adam_step(params, grads, state, lr=1e-3)
            expected = reference_adam(initial, grad_steps, lr=1e-3)
            for p, e in zip(params, expected):
                assert np.abs(p.data - e).max() < 1e-10

    @pytest.mark.parametrize(
        "param_dtype, grad_dtype",
        [(np.float32, np.float32), (np.float64, np.float64), (np.float32, np.float64)],
    )
    def test_bit_identical_to_array_expression(self, param_dtype, grad_dtype, rng):
        shapes = [(3, 3, 4, 5), (1, 1, 1, 5), (1, 1, 5, 2), (2, 2, 2, 2)]
        initial = [rng.normal(size=s).astype(param_dtype) for s in shapes]
        ours = [Tensor(p.copy(), requires_grad=True) for p in initial]
        theirs = [Tensor(p.copy(), requires_grad=True) for p in initial]
        ours_state, theirs_state = AdamState.for_params(ours), AdamState.for_params(theirs)
        for step in range(6):
            grads = [(rng.normal(size=s) * 10.0 ** -step).astype(grad_dtype) for s in shapes]
            lr = 1e-3 * (1.0 - step / 6) ** 0.9
            adam_step(ours, grads, ours_state, lr)
            expression_adam(theirs, grads, theirs_state, lr)
            for a, b in zip([p.data for p in ours] + ours_state.m + ours_state.v,
                            [p.data for p in theirs] + theirs_state.m + theirs_state.v):
                assert a.dtype == b.dtype == param_dtype
                assert np.array_equal(a, b)

    def test_gradient_rescaling_near_invariance(self):
        with using_dtype(np.float64):
            g = np.full((1, 1, 1, 3), 0.25)
            p1 = tensor(np.ones((1, 1, 1, 3)), requires_grad=True)
            p2 = tensor(np.ones((1, 1, 1, 3)), requires_grad=True)
            adam_step([p1], [g], AdamState.for_params([p1]), lr=0.01)
            adam_step([p2], [2.0 * g], AdamState.for_params([p2]), lr=0.01)
            d1 = p1.data - 1.0
            d2 = p2.data - 1.0
            assert np.abs(d1 - d2).max() / np.abs(d1).max() < 1e-6

    def test_shape_mismatch_rejected(self, rng):
        p = tensor(rng.normal(size=(1, 1, 1, 2)), requires_grad=True)
        state = AdamState.for_params([p])
        with pytest.raises(ShapeError):
            adam_step([p], [np.zeros((1, 1, 1, 3))], state, lr=0.1)

    @pytest.mark.parametrize("short", ["m", "v"])
    def test_short_state_rejected(self, short, rng):
        params = [tensor(rng.normal(size=(1, 1, 1, 2)), requires_grad=True) for _ in range(2)]
        before = [p.data.copy() for p in params]
        state = AdamState.for_params(params)
        getattr(state, short).pop()
        with pytest.raises(ShapeError, match="state slots"):
            adam_step(params, [np.ones((1, 1, 1, 2))] * 2, state, lr=0.1)
        assert all(np.array_equal(p.data, b) for p, b in zip(params, before))

    def test_step_counter_increments(self, rng):
        p = tensor(rng.normal(size=(1, 1, 1, 1)), requires_grad=True)
        state = AdamState.for_params([p])
        for expected in (1, 2, 3):
            adam_step([p], [np.ones_like(p.data)], state, lr=0.0)
            assert state.t == expected


def reference_raster_bezier(mask, p0, p1, p2, width):
    """One disc window per sample point, marked in a Python loop."""
    h, w = mask.shape
    approx_len = np.hypot(*(p1 - p0)) + np.hypot(*(p2 - p1))
    steps = max(8, int(3 * approx_len))
    pts = _bezier_point(p0, p1, p2, np.linspace(0.0, 1.0, steps)[:, None])
    radius = width / 2.0
    r_int = int(np.ceil(radius))
    for y, x in pts:
        yi, xi = int(round(y)), int(round(x))
        y0, y1 = max(0, yi - r_int), min(h, yi + r_int + 1)
        x0, x1 = max(0, xi - r_int), min(w, xi + r_int + 1)
        if y0 >= y1 or x0 >= x1:
            continue
        yy, xx = np.mgrid[y0:y1, x0:x1]
        mask[y0:y1, x0:x1] |= (yy - y) ** 2 + (xx - x) ** 2 <= radius * radius


class TestSynthVessels:
    def test_raster_matches_reference_loop(self):
        rng = np.random.default_rng(0)
        for i in range(400):
            h, w = (int(v) for v in rng.integers(1, 24, size=2))
            # Control points up to 6 px past every edge. Every other stroke
            # has them on the half-pixel grid, so pixels at its exactly
            # sampled end points lie on the disc boundary.
            lo, hi = np.array([-6.0, -6.0]), np.array([h + 6.0, w + 6.0])
            points = [rng.uniform(lo, hi) for _ in range(3)]
            if i % 2 == 0:
                points = [np.round(p * 2) / 2 for p in points]
            width = int(rng.integers(1, 5))
            start = rng.random((h, w)) < 0.1
            ours, ref = start.copy(), start.copy()
            _raster_bezier(ours, *points, width)
            reference_raster_bezier(ref, *points, width)
            assert ours.tobytes() == ref.tobytes(), (h, w, points, width)

    def test_same_seed_identical(self):
        a = synth_vessels(11, 3, 32, 32)
        b = synth_vessels(11, 3, 32, 32)
        for (ia, ma), (ib, mb) in zip(a, b):
            assert np.array_equal(ia, ib)
            assert np.array_equal(ma, mb)

    def test_shapes_and_binary_mask(self):
        ds = synth_vessels(0, 2, 48, 32)
        for img, mask in ds:
            assert img.shape == (48, 32, 3)
            assert mask.shape == (48, 32, 1)
            assert set(np.unique(mask)).issubset({0.0, 1.0})
            assert img.min() >= 0.0 and img.max() <= 1.0

    def test_mask_equals_rasterized_support_without_noise(self):
        # With noise off the image is exactly two-level: bright pixels are
        # precisely the rasterized curve support the mask reports.
        ds = synth_vessels(5, 3, 32, 32, noise=0.0)
        for img, mask in ds:
            bright = img[:, :, 0] > 0.5
            assert np.array_equal(bright, mask[:, :, 0] > 0.5)

    def test_vessel_fraction_bounds_over_100_seeds(self):
        fractions = [synth_vessels(seed, 1, 64, 64)[0][1].mean() for seed in range(100)]
        assert min(fractions) >= 0.02
        assert max(fractions) <= 0.25

    def test_vessels_brighter_than_background(self):
        img, mask = synth_vessels(2, 1, 64, 64)[0]
        m = mask[:, :, 0] > 0.5
        assert img[m].mean() > img[~m].mean() + 0.3

    def test_distractors_touch_image_not_mask(self):
        plain = synth_vessels(9, 1, 64, 64, noise=0.0)
        spotted = synth_vessels(9, 1, 64, 64, noise=0.0, distractors=5)
        assert np.array_equal(plain[0][1], spotted[0][1])
        assert (spotted[0][0] > 0.5).sum() > (plain[0][0] > 0.5).sum()

    def test_too_small_rejected(self):
        with pytest.raises(ConfigError):
            synth_vessels(0, 1, 8, 8)


class TestTrainLoop:
    def test_zero_lr_freezes_parameters(self):
        ds = synth_vessels(1, 2, 32, 32)
        model = DNet(DNetConfig(**MICRO), seed=0)
        before = {k: v.data.copy() for k, v in model.parameters().items()}
        train(ds, model, TrainConfig(lr=0.0, max_iter=3, batch=2, seed=0))
        for k, v in model.parameters().items():
            assert np.array_equal(before[k], v.data), k

    def test_same_seed_identical_traces(self):
        ds = synth_vessels(1, 2, 32, 32)
        traces = []
        for _ in range(2):
            model = DNet(DNetConfig(**MICRO), seed=2)
            traces.append(train(ds, model, TrainConfig(lr=1e-3, max_iter=4, batch=2, seed=2)))
        assert traces[0] == traces[1]

    def test_empty_dataset_rejected(self):
        model = DNet(DNetConfig(**MICRO), seed=0)
        with pytest.raises(ConfigError):
            train([], model, TrainConfig(max_iter=1))

    def test_loss_finite_at_step_zero_for_acceptance_configs(self):
        ds = synth_vessels(0, 2, 32, 32)
        for dil, rates, msif in (
            ((1, 2, 4), (3, 6, 12), True),
            ((1, 1, 1), (1, 1, 1), False),
        ):
            model = DNet(
                DNetConfig(dilations=dil, msif_rates=rates, msif_enabled=msif, **MICRO),
                seed=0,
            )
            trace = train(ds, model, TrainConfig(lr=1e-3, max_iter=1, batch=2, seed=0))
            assert np.isfinite(trace[0][2])

    def test_regularization_only_shrinks_weights_monotonically(self):
        model = DNet(DNetConfig(**MICRO), seed=0)
        weights = model.kernel_parameters()
        state = AdamState.for_params(weights)
        cfg = TrainConfig(lr=1e-3, max_iter=20, lam=1e-2, beta=0.0)
        # A constant prediction: the weights' gradients are the L2 term's alone.
        pred = tensor(np.zeros((1, 32, 32, 1)))  # logit 0: probability 0.5
        target = tensor(synth_vessels(0, 1, 32, 32)[0][1][None])

        def weight_norm():
            return float(sum((p.data**2).sum() for p in weights))

        norms = [weight_norm()]
        for step in range(cfg.max_iter):
            with recording() as g:
                grads = backward(total_loss(pred, target, weights, cfg.lam, cfg.beta), g)
            adam_step(weights, [grads[w] for w in weights], state, poly_lr(step, cfg))
            norms.append(weight_norm())
        assert all(a > b for a, b in zip(norms, norms[1:]))

    def test_early_stop_callback(self):
        ds = synth_vessels(1, 2, 32, 32)
        model = DNet(DNetConfig(**MICRO), seed=0)
        trace = train(
            ds, model, TrainConfig(lr=1e-3, max_iter=50, batch=2, seed=0),
            on_step=lambda step, loss: step >= 2,
        )
        assert len(trace) == 3

    def test_on_step_sees_no_state_of_its_step(self, monkeypatch):
        graphs = []
        init = tensor_module.Graph.__init__

        def tracked_init(graph):
            init(graph)
            graphs.append(weakref.ref(graph))

        monkeypatch.setattr(tensor_module.Graph, "__init__", tracked_init)
        alive = []

        def on_step(step, loss):
            alive.append(graphs[-1]() is not None)
            return False

        model = DNet(DNetConfig(**MICRO), seed=0)
        train(synth_vessels(1, 2, 32, 32), model, TrainConfig(max_iter=2, batch=2), on_step)
        assert len(graphs) == 2 and alive == [False, False]

    @pytest.mark.parametrize("exact", [True, False], ids=["exact", "gemm"])
    def test_train_equals_backward_then_adam_step(self, exact):
        ds = synth_vessels(7, 6, 64, 64)
        cfg = TrainConfig(lr=1e-3, max_iter=3, batch=4, seed=5)
        ours, theirs = (DNet(DNetConfig(channels_scale=0.125), seed=3) for _ in range(2))
        params = list(theirs.parameters().values())
        state = AdamState.for_params(params)
        sampler = _BatchSampler(len(ds), np.random.default_rng(cfg.seed))
        expected = []
        with using_deterministic(exact):
            trace = train(ds, ours, cfg)
            for step in range(cfg.max_iter):
                xb, yb = _stack_batch(ds, sampler.take(cfg.batch))
                with recording() as g:
                    loss = total_loss(theirs.forward(xb), yb, theirs.kernel_parameters(),
                                      cfg.lam, cfg.beta)
                    grads = backward(loss, g)
                lr = poly_lr(step, cfg)
                adam_step(params, [grads[p] for p in params], state, lr)
                expected.append((step, lr, loss.item()))
        assert trace == expected
        for (name, p), q in zip(ours.parameters().items(), params):
            assert p.data.tobytes() == q.data.tobytes(), name

    def test_loss_halves_in_300_steps_tiny_config(self):
        ds = synth_vessels(42, 4, 64, 64)
        model = DNet(DNetConfig(channels_scale=0.125), seed=1)
        cfg = TrainConfig(lr=1e-3, max_iter=300, batch=4, seed=1)
        trace = train(ds, model, cfg)
        assert trace[-1][2] < 0.5 * trace[0][2]

    def test_evaluate_returns_metrics(self):
        ds = synth_vessels(3, 2, 32, 32)
        model = DNet(DNetConfig(**MICRO), seed=0)
        report, counts = evaluate(model, ds)
        assert counts.total == 2 * 32 * 32
        assert 0.0 <= report.accuracy <= 1.0


class TestPredictProbs:
    def test_any_size_is_padded_to_sixteen_and_cropped_back(self):
        # DRIVE's 584x565 runs as 592x576, zero-padded at the bottom and right.
        image = np.random.default_rng(0).uniform(size=(584, 565, 3)).astype(np.float32)
        model = DNet(DNetConfig(channels_scale=0.125), seed=0)
        probs = predict_probs(model, image)
        padded = predict_probs(model, np.pad(image, ((0, 8), (0, 11), (0, 0))))
        assert probs.shape == (584, 565)
        assert probs.tobytes() == padded[:584, :565].tobytes()
        assert 0.0 < probs.min() and probs.max() < 1.0


# One exact desk step's gradients, one line per parameter: name and SHA-256.
GRADIENT_HASHES = """
import hashlib
from dnet.losses import total_loss
from dnet.model import DNet, DNetConfig
from dnet.tensor import backward, recording
from dnet.training import _stack_batch, synth_vessels

model = DNet(DNetConfig(channels_scale=0.25), seed=0)
x, y = _stack_batch(synth_vessels(3, 4, 64, 64), range(4))
with recording() as graph:
    loss = total_loss(model.forward(x), y, model.kernel_parameters(), 1e-4, 1.0)
    grads = backward(loss, graph)
for name, p in model.parameters().items():
    print(name, hashlib.sha256(grads[p].tobytes()).hexdigest())
"""


@pytest.mark.skipif(len(os.sched_getaffinity(0)) < 2, reason="needs 2 CPUs for 2 BLAS threads")
@pytest.mark.xfail(strict=True, raises=AssertionError,
                   reason="conv2d's weight-gradient GEMMs reduce over pixels in an order "
                   "that depends on the BLAS thread count (ROADMAP item 2)")
def test_exact_gradients_do_not_depend_on_blas_threads():
    src = str(Path(dnet.__file__).resolve().parents[1])
    runs = []
    for threads in ("1", "2"):
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads,
                   PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
        out = subprocess.run([sys.executable, "-c", GRADIENT_HASHES], env=env, check=True,
                             capture_output=True, text=True).stdout
        runs.append(dict(line.split() for line in out.splitlines()))
    expected = len(DNet(DNetConfig(channels_scale=0.25), seed=0).parameters())
    if not len(runs[0]) == len(runs[1]) == expected:  # a broken run is no expected failure
        pytest.fail(f"expected {expected} gradient hashes, got {len(runs[0])} and {len(runs[1])}")
    differing = [name for name in runs[0] if runs[0][name] != runs[1][name]]
    assert not differing, f"gradients that differ between 1 and 2 threads: {differing}"
