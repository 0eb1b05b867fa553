"""Outside-in tracer for the dnet benchmark.

``Tracer`` wraps every public function of dnet's layer modules at each
place it is bound: the module that defines it and every ``dnet`` module
that imported it by name. It also wraps ``DNet.forward`` and the backward
rules that operators hand to ``record_op``. Each wrapper times the call
and passes arguments and results through untouched, so traced arithmetic
is the untraced arithmetic. Leaving the ``with`` block restores every
original binding; nothing in the package is edited.

Spans nest: a span's self time is its duration minus the time of the
traced spans and backward rules it encloses. Backward rules are attributed
at record time to the operator that recorded them (``conv2d_k3``,
``elementwise``, ...), to the model block that owns the convolution
weight, and to ``total_loss`` when recorded inside it.
"""

from __future__ import annotations

import inspect
import os
import sys
from collections import defaultdict
from time import perf_counter

LAYER_MODULES = ("convops", "tensor", "model", "losses", "training", "pnm", "metrics", "cli")
CONV_OPS = (
    "conv2d",
    "depthwise_conv2d",
    "transposed_conv",
    "max_pool",
    "global_avg_pool",
    "bilinear_upsample",
)
ELEMENTWISE = (
    "elementwise_add",
    "multiply",
    "scale",
    "relu",
    "sigmoid",
    "concat_channels",
    "slice_channels",
    "sum_all",
)
# Context-manager factories: a call only builds the manager, so a span
# around it would time nothing of interest.
SKIP = ("recording", "using_dtype", "using_deterministic")
MODEL_BLOCKS = ("root", "block1", "block2", "block3", "block4", "block5", "msif", "decoder")


def _is_wrapper(obj) -> bool:
    return getattr(obj, "_perfbench_wrapper", False)


class Tracer:
    """Context manager that times dnet's public functions from outside."""

    def __init__(self):
        self.total = defaultdict(float)  # span name -> inclusive seconds
        self.self_time = defaultdict(float)  # span name -> seconds minus traced children
        self.calls = defaultdict(int)
        self.counts = defaultdict(float)  # bytes, flops, attributed backward seconds
        self._stack: list[list] = []  # frames: [span name, child seconds, op label, block]
        self._bindings: list[tuple[object, str, object]] = []
        self._block_of: dict[int, str] = {}
        self._deterministic_mode = None

    # -- installation -------------------------------------------------------

    def __enter__(self) -> "Tracer":
        mods = {short: sys.modules[f"dnet.{short}"] for short in LAYER_MODULES}
        self._deterministic_mode = mods["convops"].deterministic_mode
        wrappers = {}
        for short, mod in mods.items():
            for name in mod.__all__:
                fn = getattr(mod, name)
                if inspect.isfunction(fn) and fn.__module__ == mod.__name__ and name not in SKIP:
                    wrappers[id(fn)] = self._wrapper_for(short, name, fn)
        for mod_name, mod in list(sys.modules.items()):
            if mod_name != "dnet" and not mod_name.startswith("dnet."):
                continue
            for attr, value in list(vars(mod).items()):
                wrapper = wrappers.get(id(value))
                if wrapper is not None:
                    self._bindings.append((mod, attr, value))
                    setattr(mod, attr, wrapper)
        dnet_cls = mods["model"].DNet
        forward = dnet_cls.__dict__["forward"]
        self._bindings.append((dnet_cls, "forward", forward))
        setattr(dnet_cls, "forward", self._span("model.forward", forward, before=self._map_blocks))
        return self

    def __exit__(self, *exc) -> None:
        for owner, attr, original in reversed(self._bindings):
            setattr(owner, attr, original)

    def restored(self) -> bool:
        """True when every wrapped name holds its original object again."""
        if any(getattr(owner, attr) is not orig for owner, attr, orig in self._bindings):
            return False
        return not any(
            _is_wrapper(value)
            for mod_name, mod in list(sys.modules.items())
            if mod_name == "dnet" or mod_name.startswith("dnet.")
            for value in vars(mod).values()
        ) and not _is_wrapper(sys.modules["dnet.model"].DNet.__dict__["forward"])

    def _wrapper_for(self, short, name, fn):
        span = f"{short}.{name}"
        if span == "tensor.record_op":
            return self._record_op(fn)
        if span == "tensor.backward":
            return self._span(span, fn, before=self._tape_stats)
        if span == "cli.main":
            return self._span(span, fn, name_of=lambda args: f"cli.{args[0][0]}")
        if span == "convops.conv2d":
            return self._span(span, fn, label=self._conv2d_label, after=self._conv2d_counts)
        if short == "convops" and name in CONV_OPS:
            return self._span(span, fn, label=lambda args: (name, self._block(args)))
        if short == "tensor" and name in ELEMENTWISE:
            return self._span(span, fn, label=lambda args: ("elementwise", None))
        if span == "pnm.read_pnm":
            return self._span(span, fn, before=lambda args: self._add_size("pnm.bytes_read", args[0]))
        if short == "pnm":
            return self._span(span, fn, after=lambda args, out: self._add_size("pnm.bytes_written", args[0]))
        if span == "metrics.roc_pr_curves":
            return self._span(span, fn, before=lambda args: self._add("metrics.scored_px", len(args[0])))
        return self._span(span, fn)

    # -- spans --------------------------------------------------------------

    def _span(self, name, fn, before=None, after=None, label=None, name_of=None):
        tracer = self

        def traced(*args, **kwargs):
            if before is not None:
                before(args)
            span = name_of(args) if name_of is not None else name
            op, block = label(args) if label is not None else (None, None)
            frame = [span, 0.0, op, block]
            stack = tracer._stack
            stack.append(frame)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = perf_counter() - t0
                stack.pop()
                tracer.total[span] += dt
                tracer.self_time[span] += dt - frame[1]
                tracer.calls[span] += 1
                if stack:
                    stack[-1][1] += dt
                if op is not None:
                    counts = tracer.counts
                    counts[f"fwd_s.{op}"] += dt
                    counts[f"calls.{op}"] += 1
                    if block is not None:
                        counts[f"fwd_s.model.{block}"] += dt
            if after is not None:
                after(args, result)
            return result

        traced._perfbench_wrapper = True
        traced.__wrapped__ = fn
        return traced

    def _record_op(self, fn):
        """Wrap each recorded backward rule in a timer with fixed attribution."""
        tracer = self

        def traced(op, inputs, out_data, backward_rule):
            keys = tracer._rule_keys()

            def timed_rule(g):
                t0 = perf_counter()
                try:
                    return backward_rule(g)
                finally:
                    dt = perf_counter() - t0
                    for key in keys:
                        tracer.counts[key] += dt
                    if tracer._stack:
                        tracer._stack[-1][1] += dt

            return fn(op, inputs, out_data, timed_rule)

        traced._perfbench_wrapper = True
        traced.__wrapped__ = fn
        return traced

    def _rule_keys(self) -> tuple[str, ...]:
        keys = ["bwd_s.all"]
        for _, _, op, block in reversed(self._stack):
            if op is not None:
                keys.append(f"bwd_s.{op}")
                if block is not None:
                    keys.append(f"bwd_s.model.{block}")
                break
        if any(frame[0] == "losses.total_loss" for frame in self._stack):
            keys.append("bwd_s.losses")
        return tuple(keys)

    # -- hooks --------------------------------------------------------------

    def _add(self, key, value) -> None:
        self.counts[key] += value

    def _add_size(self, key, path) -> None:
        self.counts[key] += os.path.getsize(path)

    def _map_blocks(self, args) -> None:
        model = args[0]
        self._block_of = {id(t): name.split(".", 1)[0] for name, t in model.parameters().items()}

    def _tape_stats(self, args) -> None:
        nodes = args[1].nodes
        self.counts["tape.nodes"] += len(nodes)
        self.counts["tape.bytes"] += sum(node.output.data.nbytes for node in nodes)

    def _block(self, args) -> str | None:
        """Model block owning a kernel argument's weight, if any."""
        kernel = args[1] if len(args) > 1 else None
        weight = getattr(kernel, "weight", None)
        return self._block_of.get(id(weight)) if weight is not None else None

    def _conv2d_label(self, args):
        return f"conv2d_k{args[1].weight.shape[0]}", self._block(args)

    def _conv2d_counts(self, args, out) -> None:
        """Forward FLOPs and im2col buffer bytes, computed from shapes."""
        kh, kw, cin, _ = args[1].weight.shape
        n, ho, wo, cout = out.shape
        self.counts[f"flop.conv2d_k{kh}"] += 2.0 * n * ho * wo * cout * kh * kw * cin
        if not self._deterministic_mode():
            self.counts["im2col.bytes"] += n * ho * wo * kh * kw * cin * out.data.itemsize
