import math

import numpy as np
import pytest

from dnet.errors import ShapeError
from dnet.losses import sigmoid, total_loss
from dnet.model import DNet, DNetConfig
from dnet.tensor import Tensor, backward, record_op, recording, using_dtype

from conftest import elementwise_add, fd_full_grad, max_rel_err, tensor


def test_sigmoid_values():
    assert sigmoid(np.array([0.0])).item() == pytest.approx(0.5, abs=1e-12)
    assert abs(sigmoid(np.array([100.0])).item() - 1.0) < 1e-12
    assert np.isfinite(sigmoid(np.array([1000.0]))).all()
    assert np.isfinite(sigmoid(np.array([-1000.0]))).all()


def test_perfect_prediction_is_near_zero():
    with using_dtype(np.float64):
        target = tensor([1, 0, 1, 1], shape=(1, 2, 2, 1))
        logits = tensor(np.where(target.data > 0.5, 20.0, -20.0))
        loss = total_loss(logits, target, [], 0.0, 1.0)
        assert loss.item() < 1e-5


def test_uniform_half_prediction_is_ln2():
    with using_dtype(np.float64):
        pred = tensor(np.zeros((1, 2, 2, 1)))  # logit 0: probability 0.5
        target = tensor([1, 0, 0, 1], shape=(1, 2, 2, 1))
        loss = total_loss(pred, target, [], 0.0, 0.0)
        assert loss.item() == pytest.approx(math.log(2), abs=1e-12)


def test_regularizer_only_hand_value():
    with using_dtype(np.float64):
        pred = tensor([[0.3]], shape=(1, 1, 1, 1))
        target = tensor([[0.3]], shape=(1, 1, 1, 1))
        w = tensor([2.0], shape=(1, 1, 1, 1), requires_grad=True)
        with_reg = total_loss(pred, target, [w], 1.0, 0.0)
        without = total_loss(pred, target, [], 1.0, 0.0)
        assert with_reg.item() - without.item() == pytest.approx(4.0, abs=1e-12)


def test_shape_mismatch_rejected():
    pred = tensor(np.zeros((1, 2, 2, 1)))
    target = tensor(np.zeros((1, 2, 1, 1)))
    with pytest.raises(ShapeError):
        total_loss(pred, target, [], 1e-4, 1.0)


def test_extreme_predictions_stay_finite():
    pred = tensor([-1000.0, 1000.0], shape=(1, 1, 2, 1), requires_grad=True)
    target = tensor([1.0, 0.0], shape=(1, 1, 2, 1))
    with recording() as g:
        loss = total_loss(pred, target, [], 0.0, 1.0)
        grads = backward(loss, g)
    assert np.isfinite(loss.data).all() and np.isfinite(grads[pred]).all()


def test_gradient_wrt_prediction_matches_finite_differences(rng):
    with using_dtype(np.float64):
        pred = tensor(rng.uniform(-3.0, 3.0, size=(1, 3, 3, 1)), requires_grad=True)
        target = tensor((rng.uniform(size=(1, 3, 3, 1)) > 0.5).astype(np.float64))
        w = tensor(rng.normal(size=(2, 2, 1, 1)), requires_grad=True)

        def loss_fn():
            return total_loss(pred, target, [w], 0.5, 1.5).item()

        with recording() as g:
            grads = backward(total_loss(pred, target, [w], 0.5, 1.5), g)
        assert max_rel_err(grads[pred], fd_full_grad(loss_fn, pred, eps=1e-6)) < 1e-5
        assert max_rel_err(grads[w], fd_full_grad(loss_fn, w, eps=1e-6)) < 1e-5


def test_bce_closed_forms():
    with using_dtype(np.float64):
        pred = tensor([math.log(1 / 3)], shape=(1, 1, 1, 1))  # probability 0.25
        target = tensor([1.0], shape=(1, 1, 1, 1))
        loss = total_loss(pred, target, [], 0.0, 0.0)
        assert loss.item() == pytest.approx(-math.log(0.25), abs=1e-12)


def test_mse_closed_form():
    with using_dtype(np.float64):
        pred = tensor([-1000.0, 1000.0], shape=(1, 1, 2, 1))  # probabilities 0 and 1
        target = tensor([1.0, 1.0], shape=(1, 1, 2, 1))
        with_mse = total_loss(pred, target, [], 0.0, 1.0)
        without = total_loss(pred, target, [], 0.0, 0.0)
        assert with_mse.item() - without.item() == pytest.approx(0.5, abs=1e-12)


def test_sumsq_is_squared_l2_norm(rng):
    with using_dtype(np.float64):
        pred = tensor(np.zeros((1, 2, 2, 1)))
        w = tensor(rng.normal(size=(3, 3, 2, 2)))
        with_reg = total_loss(pred, pred, [w], 1.0, 0.0)
        without = total_loss(pred, pred, [], 1.0, 0.0)
        assert with_reg.item() - without.item() == pytest.approx(
            float((w.data**2).sum()), rel=1e-12
        )


def test_gradients_flow_to_every_term(rng):
    with using_dtype(np.float64):
        pred = tensor(rng.uniform(-2.0, 2.0, size=(1, 2, 2, 1)), requires_grad=True)
        target = tensor(np.ones((1, 2, 2, 1)))
        w1 = tensor(rng.normal(size=(1, 1, 1, 1)), requires_grad=True)
        w2 = tensor(rng.normal(size=(1, 1, 2, 1)), requires_grad=True)
        with recording() as g:
            grads = backward(total_loss(pred, target, [w1, w2], 0.1, 1.0), g)
        assert np.allclose(grads[w1], 0.2 * w1.data)
        assert np.allclose(grads[w2], 0.2 * w2.data)
        assert pred in grads


@pytest.mark.parametrize("z", [10.0, 17.0, 20.0, -10.0, -17.0, -20.0])
def test_saturated_wrong_logit_keeps_its_gradient(z):
    # A confidently wrong pixel: the CE gradient (sigmoid(z) - t) / m stays
    # at full size however far z saturates, and the loss keeps growing.
    logits = Tensor(np.full((1, 2, 2, 1), z, dtype=np.float32), requires_grad=True)
    target = Tensor(np.full(logits.shape, 0.0 if z > 0 else 1.0, dtype=np.float32))
    with recording() as g:
        loss = total_loss(logits, target, [], 0.0, 1.0)
        grads = backward(loss, g)
    m = logits.data.size
    assert np.abs(m * grads[logits] - np.sign(z)).max() < 1e-4
    assert loss.item() == pytest.approx(abs(z) + 1.0, abs=1e-4)


# The objective as it was composed on the tape from one node per term over
# probabilities, with the predictions clamped to [EPS, 1 - EPS] before the
# logs and a recorded sigmoid in front: the reference for the single
# ``total_loss`` node over logits.

EPS = 1e-7


def _sigmoid(z):
    out = sigmoid(z.data)
    return record_op("sigmoid", (z,), out, lambda g: (g * out * (1.0 - out),))


def _bce_mean(pred, target):
    p = np.clip(pred.data, EPS, 1.0 - EPS)
    t = target.data
    m = p.size
    ce = -(t * np.log(p) + (1.0 - t) * np.log1p(-p))
    out = ce.mean(dtype=pred.dtype).reshape(1, 1, 1, 1)
    active = (pred.data > EPS) & (pred.data < 1.0 - EPS)

    def rule(g):
        return g.reshape(()) * active * (p - t) / (p * (1.0 - p)) / m, None

    return record_op("bce_mean", (pred, target), out, rule)


def _mse_mean(pred, target):
    diff = pred.data - target.data
    m = diff.size
    out = (diff * diff).mean(dtype=pred.dtype).reshape(1, 1, 1, 1)

    def rule(g):
        return g.reshape(()) * 2.0 * diff / m, None

    return record_op("mse_mean", (pred, target), out, rule)


def _sumsq(t):
    data = t.data
    out = (data * data).sum(dtype=t.dtype).reshape(1, 1, 1, 1)

    def rule(g):
        return (g.reshape(()) * 2.0 * data,)

    return record_op("sumsq", (t,), out, rule)


def _scale(x, alpha):
    return record_op("scale", (x,), x.data * alpha, lambda g: (g * alpha,))


def composed_total_loss(logits, target, params, lam, beta):
    pred = _sigmoid(logits)
    loss = _bce_mean(pred, target)
    if beta != 0.0:
        loss = elementwise_add(loss, _scale(_mse_mean(pred, target), beta))
    if lam != 0.0 and params:
        reg = _sumsq(params[0])
        for p in params[1:]:
            reg = elementwise_add(reg, _sumsq(p))
        loss = elementwise_add(loss, _scale(reg, lam))
    return loss


@pytest.mark.parametrize("upstream", [1.0, 0.7])
@pytest.mark.parametrize("with_params", [True, False])
@pytest.mark.parametrize("beta", [0.0, 1.5])
@pytest.mark.parametrize("lam", [0.0, 0.3])
@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_one_node_matches_composed_clamped_terms(
    dtype, lam, beta, with_params, upstream, rng
):
    z = rng.uniform(-8.0, 8.0, size=(2, 4, 5, 1))
    z.flat[:2] = [-8.0, 8.0]  # the widest logits the clamp leaves alone
    target = Tensor((rng.uniform(size=z.shape) > 0.6).astype(dtype))
    logits = Tensor(z.astype(dtype), requires_grad=True)
    shapes = ((3, 3, 2, 4), (1, 1, 4, 1), (2, 2, 1, 3), (3, 3, 4, 4), (1, 1, 1, 5))
    params = [
        Tensor((rng.normal(size=shape) * 3.0**i).astype(dtype), requires_grad=True)
        for i, shape in enumerate(shapes)
    ] if with_params else []
    results = []
    for build in (total_loss, composed_total_loss):
        with recording() as g:
            # A downstream scale makes the incoming gradient differ from 1.
            loss = _scale(build(logits, target, params, lam, beta), upstream)
            grads = backward(loss, g)
        results.append((loss.data, [grads[t] for t in (logits, *params) if t in grads]))
    (loss, grads), (ref_loss, ref_grads) = results
    assert loss.dtype == ref_loss.dtype == dtype
    assert len(grads) == len(ref_grads)
    for got, want in zip(grads, ref_grads):
        assert got.dtype == want.dtype == dtype
    # The L2 term is unchanged, so the weights' gradients agree bit for bit.
    for got, want in zip(grads[1:], ref_grads[1:]):
        assert np.array_equal(got, want)
    if dtype == np.float64:
        np.testing.assert_allclose(loss, ref_loss, rtol=1e-10, atol=0)
        np.testing.assert_allclose(grads[0], ref_grads[0], rtol=1e-10, atol=0)


def test_training_step_records_one_loss_node(rng):
    model = DNet(DNetConfig(channels_scale=0.125), seed=0)
    x = Tensor(rng.uniform(size=(1, 32, 32, 3)).astype(np.float32))
    y = Tensor((rng.uniform(size=(1, 32, 32, 1)) > 0.5).astype(np.float32))
    with recording() as g:
        logits = model.forward(x)
        forward_nodes = len(g)
        total_loss(logits, y, model.kernel_parameters(), 1e-4, 1.0)
    ops = [node.op for node in g.nodes]
    assert ops.count("total_loss") == 1
    assert g.nodes[-1].op == "total_loss"
    # Each conv or doubling that a ReLU follows carries it in its own node,
    # and each residual unit's restore conv its shortcut sum. The convs read
    # their concatenations, and MSIF's broadcast pooled map, as parts: no
    # concat or upsample node, and one pooling node per deep stage output.
    assert len(g) == forward_nodes + 1 == 77
    assert ops.count("relu") == ops.count("add") == 0
    assert ops.count("concat") == ops.count("bilinear_upsample") == 0
    assert ops.count("global_avg_pool") == 3
    assert sum(node.output.data.nbytes for node in g.nodes) == 156_036
