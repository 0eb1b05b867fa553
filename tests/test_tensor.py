import pkgutil
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import dnet
from dnet.convops import using_deterministic
from dnet.errors import GraphError, ShapeError
from dnet.losses import sigmoid, total_loss
from dnet.model import DNet, DNetConfig
from dnet.tensor import (
    Graph,
    Node,
    Tensor,
    backward,
    leaf_gradients,
    record_op,
    recording,
    using_dtype,
)

from conftest import (
    concat_channels, elementwise_add, fd_full_grad, max_rel_err, multiply, relu, sum_all, tensor, zeros,
)


def test_tensor_must_be_4d():
    with pytest.raises(ShapeError):
        Tensor(np.zeros((2, 3)))


def test_add_hand_example():
    a = tensor([1, 2], shape=(1, 1, 2, 1))
    b = tensor([3, 4], shape=(1, 1, 2, 1))
    assert elementwise_add(a, b).data.ravel().tolist() == [4.0, 6.0]


def test_add_identity_and_inverse(rng):
    x = tensor(rng.normal(size=(2, 3, 3, 2)))
    zero = zeros(x.shape)
    assert np.array_equal(elementwise_add(x, zero).data, x.data)
    neg = Tensor(-x.data)
    assert np.all(elementwise_add(x, neg).data == 0)


def test_add_shape_mismatch():
    with pytest.raises(ShapeError):
        elementwise_add(zeros((1, 2, 2, 1)), zeros((1, 2, 2, 2)))


def test_add_gradient_is_upstream(rng):
    a = tensor(rng.normal(size=(1, 2, 2, 1)), requires_grad=True)
    b = tensor(rng.normal(size=(1, 2, 2, 1)), requires_grad=True)
    with recording() as g:
        s = sum_all(elementwise_add(a, b))
        grads = backward(s, g)
    assert np.all(grads[a] == 1.0)
    assert np.all(grads[b] == 1.0)


def test_concat_channel_widths():
    parts = [zeros((1, 4, 4, c)) for c in (256, 512, 256)]
    assert concat_channels(parts).shape == (1, 4, 4, 1024)


def test_concat_single_part_identity(rng):
    x = tensor(rng.normal(size=(1, 2, 2, 3)))
    assert np.array_equal(concat_channels([x]).data, x.data)


def test_concat_two_constants_layout():
    a = tensor([1.0], shape=(1, 1, 1, 1))
    b = tensor([2.0], shape=(1, 1, 1, 1))
    assert concat_channels([a, b]).data.ravel().tolist() == [1.0, 2.0]


def test_concat_spatial_mismatch():
    with pytest.raises(ShapeError):
        concat_channels([zeros((1, 2, 2, 1)), zeros((1, 3, 2, 1))])


def test_concat_backward_splits(rng):
    a = tensor(rng.normal(size=(1, 2, 2, 2)), requires_grad=True)
    b = tensor(rng.normal(size=(1, 2, 2, 3)), requires_grad=True)
    weight = tensor(rng.normal(size=(1, 2, 2, 5)))
    with recording() as g:
        cat = concat_channels([a, b])
        loss = sum_all(multiply(cat, weight))
        grads = backward(loss, g)
    assert np.array_equal(grads[a], weight.data[:, :, :, :2])
    assert np.array_equal(grads[b], weight.data[:, :, :, 2:])


@settings(deadline=None, max_examples=30)
@given(
    widths=st.lists(st.integers(1, 4), min_size=1, max_size=4),
    h=st.integers(1, 4),
    w=st.integers(1, 4),
)
def test_concat_slice_round_trip(widths, h, w):
    rng = np.random.default_rng(sum(widths) * 100 + h * 10 + w)
    parts = [tensor(rng.normal(size=(1, h, w, c))) for c in widths]
    cat = concat_channels(parts)
    start = 0
    for part in parts:
        assert np.array_equal(cat.data[..., start : start + part.channels], part.data)
        start += part.channels


def test_relu_definition():
    x = tensor([-1, 0, 2], shape=(1, 1, 3, 1))
    assert relu(x).data.ravel().tolist() == [0.0, 0.0, 2.0]


def test_relu_positive_region_identity(rng):
    x = tensor(rng.uniform(0.5, 2.0, size=(1, 3, 3, 2)))
    assert np.array_equal(relu(x).data, x.data)


def test_relu_gradient_masks():
    x = tensor([-1.0, 2.0], shape=(1, 1, 2, 1), requires_grad=True)
    up = tensor([5.0, 5.0], shape=(1, 1, 2, 1))
    with recording() as g:
        loss = sum_all(multiply(relu(x), up))
        grads = backward(loss, g)
    assert grads[x].ravel().tolist() == [0.0, 5.0]

    with using_dtype(np.float64):
        x64 = tensor([-1.0, 2.0], shape=(1, 1, 2, 1), requires_grad=True)
        up64 = tensor([5.0, 5.0], shape=(1, 1, 2, 1))

        def loss_fn():
            return sum_all(multiply(relu(x64), up64)).item()

        fd = fd_full_grad(loss_fn, x64)
    assert max_rel_err(np.array([0.0, 5.0]), fd.ravel()) < 1e-6


def test_backward_hand_chain_rule():
    w = tensor([2.0], shape=(1, 1, 1, 1), requires_grad=True)
    x = tensor([3.0], shape=(1, 1, 1, 1), requires_grad=True)
    with recording() as g:
        loss = sum_all(multiply(w, x))
        grads = backward(loss, g)
    assert grads[w].ravel()[0] == 3.0
    assert grads[x].ravel()[0] == 2.0


def test_backward_independent_parameter_gets_zero():
    p = tensor([1.0], shape=(1, 1, 1, 1), requires_grad=True)
    x = tensor([2.0], shape=(1, 1, 1, 1), requires_grad=True)
    with recording() as g:
        _unused = relu(p)  # participates in the graph, not in the loss
        loss = sum_all(multiply(x, tensor([3.0], shape=(1, 1, 1, 1))))
        grads = backward(loss, g)
    assert np.all(grads[p] == 0.0)


def test_backward_union_of_independent_subgraphs(rng):
    a = tensor(rng.normal(size=(1, 2, 2, 1)), requires_grad=True)
    b = tensor(rng.normal(size=(1, 2, 2, 1)), requires_grad=True)
    five = tensor(np.full((1, 2, 2, 1), 5.0))

    with recording() as g1:
        ga = backward(sum_all(multiply(a, a)), g1)
    with recording() as g2:
        gb = backward(sum_all(multiply(b, five)), g2)
    with recording() as g:
        loss = elementwise_add(sum_all(multiply(a, a)), sum_all(multiply(b, five)))
        joint = backward(loss, g)
    assert np.allclose(joint[a], ga[a])
    assert np.allclose(joint[b], gb[b])


def test_backward_accumulates_over_fanout():
    x = tensor([1.5], shape=(1, 1, 1, 1), requires_grad=True)
    with recording() as g:
        y = elementwise_add(x, x)
        grads = backward(sum_all(y), g)
    assert grads[x].ravel()[0] == 2.0


def keep_everything_backward(loss, graph):
    """The sweep that kept every gradient until the end, as a reference.

    It stores the gradient of every tensor it reaches, produced or constant,
    in the same accumulation order as :func:`backward`, and returns those of
    the ``requires_grad`` tensors. A deferred gradient is formed where the
    rule returns it.
    """
    grads = {id(loss): np.ones((1, 1, 1, 1), dtype=loss.dtype)}
    by_id = {id(loss): loss}
    for node in reversed(graph.nodes):
        g_out = grads.get(id(node.output))
        if g_out is None:
            continue
        for inp, gi in zip(node.inputs, node.backward(g_out)):
            if gi is None:
                continue
            if callable(gi):
                gi = gi()
            key = id(inp)
            grads[key] = grads[key] + gi if key in grads else gi
            by_id[key] = inp
    return {by_id[k]: g for k, g in grads.items() if by_id[k].requires_grad}


def test_backward_returns_exactly_the_leaves(rng):
    w = tensor(rng.normal(size=(1, 2, 2, 3)), requires_grad=True)
    b = tensor(rng.normal(size=(1, 2, 2, 3)), requires_grad=True)
    unused = tensor(rng.normal(size=(1, 1, 1, 1)), requires_grad=True)
    image = tensor(rng.normal(size=(1, 2, 2, 3)))  # a constant input
    with recording() as g:
        h = relu(elementwise_add(multiply(image, w), b))
        _ = relu(unused)
        loss = sum_all(multiply(h, h))
        grads = backward(loss, g)
    assert set(map(id, grads)) == {id(w), id(b), id(unused)}
    produced = {id(node.output) for node in g.nodes}
    assert not produced & set(map(id, grads))
    assert np.all(grads[unused] == 0.0)


def test_backward_shape_checks_constant_input_gradient():
    x = tensor([1.0], shape=(1, 1, 1, 1), requires_grad=True)
    c = tensor([2.0], shape=(1, 1, 1, 1))
    with recording() as g:
        bad = record_op("bad", (x, c), x.data * c.data, lambda gr: (gr, np.zeros((1, 1, 2, 1))))
        loss = sum_all(bad)
    with pytest.raises(GraphError):
        backward(loss, g)


@pytest.mark.parametrize("deterministic", [True, False])
def test_backward_parameter_gradients_match_keep_everything_sweep(deterministic, rng):
    model = DNet(DNetConfig(channels_scale=0.125), seed=2)
    x = tensor(rng.uniform(size=(2, 32, 32, 3)))
    target = tensor((rng.uniform(size=(2, 32, 32, 1)) > 0.8).astype(np.float32))
    with using_deterministic(deterministic), recording() as g:
        loss = total_loss(model(x), target, model.kernel_parameters(), 1e-4, 1.0)
        grads = backward(loss, g)
        reference = keep_everything_backward(loss, g)
    params = model.parameters()
    assert set(map(id, grads)) == set(map(id, params.values()))
    for name, p in params.items():
        assert np.array_equal(grads[p], reference[p]), name


def scalar(value, requires_grad=False):
    return tensor([value], shape=(1, 1, 1, 1), requires_grad=requires_grad)


def logged_op(log, name, inputs, out_data, rule):
    """``record_op`` whose rule appends ``name`` to ``log`` when it runs."""

    def logged(g):
        log.append(name)
        return rule(g)

    return record_op(name, inputs, out_data, logged)


def test_leaf_is_yielded_before_any_earlier_rule_runs():
    a, b = scalar(2.0, requires_grad=True), scalar(3.0, requires_grad=True)
    log = []
    with recording() as g:
        h = logged_op(log, "scale a", (a,), a.data * 2.0, lambda gr: (gr * 2.0,))
        k = logged_op(log, "h times b", (h, b), h.data * b.data,
                      lambda gr: (gr * b.data, gr * h.data))
        loss = logged_op(log, "loss", (k,), k.data.copy(), lambda gr: (gr,))
    grads = {}
    for leaf, grad in leaf_gradients(loss, g):
        log.append("yield a" if leaf is a else "yield b")
        grads[leaf] = grad
    assert log == ["loss", "h times b", "yield b", "scale a", "yield a"]
    assert grads[a].item() == 6.0 and grads[b].item() == 4.0


def test_deferred_first_term_sums_left_to_right():
    # In float32, (1e8 + -1e8) + 1 is 1 but 1e8 + (-1e8 + 1) is 0: the sum
    # is only right if the deferred term stays first.
    terms = [np.full((1, 1, 1, 1), v, dtype=np.float32) for v in (1e8, -1e8, 1.0)]
    left, right = (terms[0] + terms[1]) + terms[2], terms[0] + (terms[1] + terms[2])
    assert left.tobytes() != right.tobytes()
    w = scalar(0.5, requires_grad=True)
    log = []

    def deferred():
        log.append("deferred")
        return terms[0]

    with recording() as g:
        # The sweep runs these rules last to first: 1e8 deferred, -1e8, 1.
        outs = [logged_op(log, name, (w,), w.data.copy(), rule) for name, rule in (
            ("gives 1", lambda gr: (terms[2],)),
            ("gives -1e8", lambda gr: (terms[1],)),
            ("defers 1e8", lambda gr: (deferred,)),
        )]
        loss = record_op("sum", tuple(outs), sum(o.data for o in outs), lambda gr: (gr, gr, gr))
    grads = dict(leaf_gradients(loss, g))
    assert grads[w].tobytes() == left.tobytes()
    assert log == ["defers 1e8", "gives -1e8", "deferred", "gives 1"]  # called at its first sum


def test_leaf_with_only_a_deferred_gradient_gets_its_value():
    w = scalar(0.5, requires_grad=True)
    c = scalar(1.0)

    def never():
        raise AssertionError("a constant's deferred gradient was formed")

    value = np.full((1, 1, 1, 1), 7.25, dtype=np.float32)
    with recording() as g:
        loss = record_op("deferred", (w, c), w.data * c.data, lambda gr: (lambda: value, never))
    [(leaf, grad)] = leaf_gradients(loss, g)
    assert leaf is w and grad is value


def test_deferred_gradient_is_shape_checked_when_formed():
    w = scalar(0.5, requires_grad=True)
    with recording() as g:
        loss = record_op("bad", (w,), w.data.copy(), lambda gr: (lambda: np.zeros((1, 1, 2, 1)),))
    with pytest.raises(GraphError):
        backward(loss, g)


def test_off_path_leaf_is_yielded_zero_filled_where_its_reader_is_passed():
    on, off = scalar(2.0, requires_grad=True), scalar(3.0, requires_grad=True)
    with recording() as g:
        _ = relu(off)  # node 0, not an ancestor of the loss
        loss = sum_all(multiply(on, on))
    stream = list(leaf_gradients(loss, g))
    assert [leaf for leaf, _ in stream] == [on, off]
    zero = stream[1][1]
    assert zero.shape == off.shape and zero.dtype == loss.dtype and np.all(zero == 0.0)


def test_backward_rejects_non_scalar_loss():
    x = tensor([1.0, 2.0], shape=(1, 1, 2, 1), requires_grad=True)
    with recording() as g:
        y = relu(x)
    with pytest.raises(ShapeError):
        backward(y, g)


def test_backward_rejects_loss_outside_graph():
    x = tensor([1.0], shape=(1, 1, 1, 1), requires_grad=True)
    with recording() as g:
        _ = relu(x)
    stray = tensor([1.0], shape=(1, 1, 1, 1))
    with pytest.raises(GraphError):
        backward(stray, g)


def test_backward_rejects_misordered_graph():
    a = tensor([1.0], shape=(1, 1, 1, 1), requires_grad=True)
    with recording() as g:
        loss = sum_all(relu(a))
    # Splice in a node whose input is produced later: order violation / cycle.
    late_node = g.nodes[-1]
    bad = Node("bad", (late_node.output,), a, lambda grad: (grad,))
    g.nodes.insert(0, bad)
    with pytest.raises(GraphError):
        backward(loss, g)


def test_operations_do_not_record_without_graph():
    x = tensor([1.0], shape=(1, 1, 1, 1), requires_grad=True)
    y = relu(x)
    assert y.requires_grad is False  # inference mode: nothing to track


def test_determinism_bit_identical(rng):
    x = tensor(rng.normal(size=(2, 4, 4, 3)))
    first = sigmoid(relu(x).data)
    second = sigmoid(relu(x).data)
    assert np.array_equal(first, second)


def test_dtype_mode_switch():
    with using_dtype(np.float64):
        x = tensor([1.0], shape=(1, 1, 1, 1))
        assert x.dtype == np.float64
    y = tensor([1.0], shape=(1, 1, 1, 1))
    assert y.dtype == np.float32


def test_forward_outputs_remain_finite(rng):
    x = tensor(rng.normal(size=(1, 4, 4, 2)) * 50)
    assert np.isfinite(relu(x).data).all()
    assert np.isfinite(sigmoid(x.data)).all()


SUBMODULES = sorted(m.name for m in pkgutil.iter_modules(dnet.__path__))


@pytest.mark.parametrize("name", SUBMODULES)
def test_dnet_submodule_is_the_module(name):
    # The package binds no name of its own that could shadow a submodule
    # (it once shadowed ``tensor`` and ``metrics`` with functions).
    scope = {}
    exec(f"from dnet import {name} as via_from\nimport dnet.{name} as via_import", scope)
    module = sys.modules[f"dnet.{name}"]
    assert scope["via_from"] is module
    assert scope["via_import"] is module
    assert getattr(dnet, name) is module
