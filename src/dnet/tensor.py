"""4-D tensors with reverse-mode automatic differentiation.

The value type is a dense (batch, height, width, channels) array backed by a
numpy buffer, always row-major and always 4-D; scalars live in shape
(1, 1, 1, 1). Operations compute eagerly. While a :class:`Graph` is active
(see :func:`recording`), every operation whose inputs participate in
differentiation appends a :class:`Node` holding the input tensors, the
produced output, and a closure mapping the upstream gradient to per-input
gradients. :func:`backward` replays the tape once, in reverse, accumulating
gradients across fan-out, and returns the gradients of the leaves only: the
``requires_grad`` tensors that no recorded operation produced. Each
intermediate gradient is released as soon as the rule that consumes it has
run.

:func:`leaf_gradients` is that sweep, as a stream: it yields
``(leaf, gradient)`` as soon as the earliest node that reads the leaf has
run its rule, since no rule still to run reads the leaf or adds to its
gradient. The consumer may update the leaf in place before resuming the
stream, so that an optimizer holds one leaf gradient at a time rather than
all of them. :func:`backward` is the same stream collected into a map.

A rule may return an input's gradient deferred, as a zero-argument function
instead of an array. The sweep calls it when it first sums or yields that
gradient, so sums keep their operands in arrival order, and a deferred
gradient is formed no earlier than the first gradient it is summed with.
It runs no later than the yield of the leaf it belongs to, so it may read
that leaf's buffer even when the consumer updates leaves in place, but it
must not read a leaf that may be yielded, and so updated, before it runs.

No operator is defined here: the network's are its convolutions (see
``convops``), which read concatenations in place and carry its ReLUs.

Tensors are treated as immutable once produced by an operation; optimizers
may rewrite a leaf's ``.data`` buffer once :func:`leaf_gradients` has
yielded it, or between recorded forward passes. Nothing
here mutates a stored gradient in place, so gradient arrays may be shared.
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import dataclass
from typing import Callable, Iterator, Sequence

import numpy as np

from .errors import GraphError, ShapeError

__all__ = [
    "Tensor",
    "Graph",
    "Node",
    "recording",
    "is_recording",
    "record_op",
    "default_dtype",
    "using_dtype",
    "backward",
    "leaf_gradients",
]

_ALLOWED_DTYPES = (np.dtype(np.float32), np.dtype(np.float64))
_default_dtype = np.dtype(np.float32)


def default_dtype() -> np.dtype:
    return _default_dtype


@contextmanager
def using_dtype(dtype):
    """Temporarily switch the element type used for newly created tensors.

    32-bit floats are the production default; verification runs switch to
    64-bit end to end so finite-difference checks are meaningful.
    """
    global _default_dtype
    dt = np.dtype(dtype)
    if dt not in _ALLOWED_DTYPES:
        raise ShapeError(f"unsupported dtype {dt}; use float32 or float64")
    previous, _default_dtype = _default_dtype, dt
    try:
        yield
    finally:
        _default_dtype = previous


class Tensor:
    """Dense (batch, height, width, channels) value.

    ``requires_grad`` marks leaves that should receive gradients; outputs of
    recorded operations inherit it so gradients can chain. Gradients are not
    stored on the tensor: :func:`backward` returns them.
    """

    __slots__ = ("data", "requires_grad")

    def __init__(self, data, requires_grad: bool = False):
        arr = np.asarray(data)
        if arr.dtype not in _ALLOWED_DTYPES:
            arr = arr.astype(_default_dtype)
        if arr.ndim != 4:
            raise ShapeError(
                f"tensors are 4-D (batch, height, width, channels); got shape {arr.shape}"
            )
        self.data = arr
        self.requires_grad = bool(requires_grad)

    @property
    def shape(self) -> tuple[int, int, int, int]:
        return self.data.shape  # type: ignore[return-value]

    @property
    def dtype(self) -> np.dtype:
        return self.data.dtype

    @property
    def channels(self) -> int:
        return self.data.shape[3]

    def item(self) -> float:
        if self.data.size != 1:
            raise ShapeError(f"item() needs a scalar tensor, got shape {self.shape}")
        return float(self.data.reshape(()))

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        flag = ", requires_grad=True" if self.requires_grad else ""
        return f"Tensor(shape={self.shape}, dtype={self.dtype}{flag})"


# A backward rule receives d(loss)/d(output) and returns one gradient per
# input: an array, a zero-argument function that computes it when the sweep
# first needs it (deferred), or None where an input is a non-differentiable
# constant.
BackwardRule = Callable[
    [np.ndarray], Sequence["np.ndarray | Callable[[], np.ndarray] | None"]
]


@dataclass
class Node:
    op: str
    inputs: tuple[Tensor, ...]
    output: Tensor
    backward: BackwardRule


class Graph:
    """Append-only tape of recorded operations, in execution order."""

    def __init__(self) -> None:
        self.nodes: list[Node] = []

    def record(self, node: Node) -> None:
        self.nodes.append(node)

    def __len__(self) -> int:
        return len(self.nodes)


_graph_stack: list[Graph] = []


@contextmanager
def recording():
    """Activate a new graph; operations executed inside are recorded onto it."""
    g = Graph()
    _graph_stack.append(g)
    try:
        yield g
    finally:
        _graph_stack.pop()


def is_recording() -> bool:
    """Whether a graph is active, so that operations may be recorded."""
    return bool(_graph_stack)


def record_op(
    op: str,
    inputs: Sequence[Tensor],
    out_data: np.ndarray,
    backward_rule: BackwardRule,
) -> Tensor:
    """Wrap an eagerly computed result and register its backward rule.

    This is the extension point composite operators (convolutions, losses)
    use; when no graph is active the result is returned untracked.
    """
    out = Tensor(out_data)
    if _graph_stack and any(t.requires_grad for t in inputs):
        out.requires_grad = True
        _graph_stack[-1].record(Node(op, tuple(inputs), out, backward_rule))
    return out


def _validate_graph(graph: Graph) -> dict[int, int]:
    produced: dict[int, int] = {}
    for idx, node in enumerate(graph.nodes):
        oid = id(node.output)
        if oid in produced:
            raise GraphError(f"tensor produced twice (node {idx}, op {node.op})")
        produced[oid] = idx
    for idx, node in enumerate(graph.nodes):
        for inp in node.inputs:
            j = produced.get(id(inp))
            if j is not None and j >= idx:
                raise GraphError(
                    f"graph is not topologically ordered at node {idx} ({node.op}); cycle?"
                )
    return produced


def leaf_gradients(loss: Tensor, graph: Graph) -> Iterator[tuple[Tensor, np.ndarray]]:
    """Reverse-sweep the tape, yielding ``(leaf, d(loss)/d(leaf))`` per leaf.

    A leaf is a ``requires_grad`` input of some node that no node produced,
    such as a parameter. Each leaf is yielded once, as soon as the earliest
    node that reads it has had its rule run (or has been passed over, off
    the loss's path), so no later rule reads it and its gradient is final;
    zero-filled if the loss does not depend on it. The consumer may then
    update the leaf in place. ``loss`` must be scalar and must have been
    produced by ``graph``; both are checked here, before the sweep starts.
    Gradients accumulate across fan-out in the order the rules run. A
    node's output gradient is dropped once its rule has run, and a gradient
    for an input that does not require one (a constant such as the
    network's input image) is shape-checked and discarded, or discarded
    uncalled if deferred. The tape is only read.
    """
    if loss.shape != (1, 1, 1, 1):
        raise ShapeError(f"backward: loss must be scalar (1,1,1,1), got {loss.shape}")
    produced = _validate_graph(graph)
    if id(loss) not in produced:
        raise GraphError("backward: loss tensor was not produced by this graph")
    due: dict[int, list[Tensor]] = {}  # node index -> leaves it reads first
    seen: set[int] = set()
    for idx, node in enumerate(graph.nodes):
        for inp in node.inputs:
            if inp.requires_grad and id(inp) not in produced and id(inp) not in seen:
                seen.add(id(inp))
                due.setdefault(idx, []).append(inp)
    return _sweep(loss, graph.nodes, due)


def _sweep(loss: Tensor, nodes: list[Node],
           due: dict[int, list[Tensor]]) -> Iterator[tuple[Tensor, np.ndarray]]:
    # Pending gradients by tensor id: an array, or a deferred one as
    # (zero-argument function, node whose rule returned it).
    grads: dict[int, object] = {id(loss): np.ones((1, 1, 1, 1), dtype=loss.dtype)}
    for idx in range(len(nodes) - 1, -1, -1):
        node = nodes[idx]
        if id(node.output) in grads:  # else not on the loss's ancestor path
            _run_rule(node, grads.pop(id(node.output)), grads)
        for leaf in due.get(idx, ()):
            g = grads.pop(id(leaf), None)
            yield leaf, np.zeros(leaf.shape, dtype=loss.dtype) if g is None else _value(g, leaf)
            del g  # hold no gradient while the next rules run


def _run_rule(node: Node, g_out, grads: dict[int, object]) -> None:
    """Run ``node``'s rule and add what it returns into ``grads``, in place;
    its results are released on return, once stored or summed."""
    in_grads = node.backward(_value(g_out, node.output))
    if len(in_grads) != len(node.inputs):
        raise GraphError(f"backward rule of {node.op} returned wrong arity")
    for inp, gi in zip(node.inputs, in_grads):
        if gi is None:
            continue
        if callable(gi):
            gi = (gi, node)  # a constant's deferred gradient is never called
        else:
            _checked(gi, inp, node)
        if not inp.requires_grad:
            continue
        key = id(inp)
        if key in grads:
            grads[key] = _value(grads[key], inp) + _value(gi, inp)
        else:
            grads[key] = gi


def _value(g, inp: Tensor) -> np.ndarray:
    """A pending gradient of ``inp`` as an array, calling it if deferred."""
    if isinstance(g, tuple):
        fn, node = g
        return _checked(fn(), inp, node)
    return g


def _checked(g: np.ndarray, inp: Tensor, node: Node) -> np.ndarray:
    if g.shape != inp.shape:
        raise GraphError(
            f"backward rule of {node.op} produced gradient shape {g.shape} "
            f"for input shape {inp.shape}"
        )
    return g


def backward(loss: Tensor, graph: Graph) -> dict[Tensor, np.ndarray]:
    """d(loss)/d(leaf) for every leaf on the tape: the :func:`leaf_gradients`
    stream collected into a map, keyed in the order it yields."""
    return dict(leaf_gradients(loss, graph))
