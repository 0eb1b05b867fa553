"""The dnet benchmark's workloads, correctness checks and metrics.

Every workload drives dnet only through its public functions, one
operation at a time from one process (a closed loop). Inputs come from the
workload seed alone. A run has two phases:

* set-up, repeated in identical rounds: generate images with
  ``synth_vessels``, write them as PPM/PGM, build the model and write its
  checkpoint;
* the timed loop: one ``train`` call (``train_*``) or in-process
  ``dnet predict`` calls (``segment_large``), interleaved with
  ``dnet predict`` and ``dnet eval`` on the workload's images, which give
  the inference metrics on every workload.

Every timed operation is bracketed by a machine-speed probe (see
:class:`Speedometer`), and timings are reported at the probe's reference
speed; the raw wall times are kept in the run details.

An end-to-end run (``trace=False``) measures with no tracer installed. A
traced run executes the loop twice on identical inputs, untraced and then
under :class:`tracer.Tracer`; the difference is the tracing overhead, and
on ``train_desk`` the two loss traces must be bit-identical.
"""

from __future__ import annotations

import csv
import math
import re
import resource
import statistics
from contextlib import contextmanager, nullcontext
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter

import numpy as np

from dnet import cli, convops, model, pnm, training

from tracer import MODEL_BLOCKS, Tracer

BATCH = 4
TRAIN_IMAGES = 4  # training set of the train_* workloads (criterion 9's size)
HELDOUT_IMAGES = 4  # predicted and scored between training blocks
SEGMENT_IMAGES = 1  # 576x576 images of segment_large; each costs ~5 s to generate
# dnet eval calls after each predict pass (each predict on segment_large):
# an eval's time varies more than a predict's, so it gets more samples.
EVALS = 2
MAX_ITER = 1_000_000  # poly schedule horizon; the loop stops on time, lr stays ~flat
WARMUP_STEPS = 2  # first steps allocate buffers; excluded from step statistics
TRAIN_BLOCKS = 5  # train_* loop blocks, each followed by predict and eval
TRAIN_PREDICT_PASSES = 2  # passes over the held-out images per train_* block
TAIL_BEYOND = 10  # the tail percentile keeps at least this many samples beyond it
# The model's initial weights are part of the workload, not of its inputs:
# the seed varies images and batch order only. (The number of distinct
# probabilities, and so the rows eval writes, depends strongly on the init.)
MODEL_SEED = 0


REFERENCE_MS = 6.0  # probe time that defines the reference machine speed
LARGE_BUFFER_MS = 25.0  # reference time of the probe's 64 MB allocate-and-fill


class Speedometer:
    """Machine-speed probe: a fixed numpy kernel timed between operations.

    On a shared host the speed a process gets drifts (by up to 1.5x for
    seconds at a time on a 2-core x86-64 host), and a run's median moves
    with it. The kernel is small-array numpy
    dispatch, what dnet's tap-ordered loops and tape are made of; its time
    tracked desk step times at a correlation of 0.8. With ``large_buffer``
    it also allocates and fills a 64 MB array, as the 576x576 forward does
    with its im2col buffers (mapped fresh, page by page, each time); that
    raised the correlation with 576x576 forward times from 0.75 to 0.9. A
    threaded SGEMM was tried too and only added noise. An operation's time
    at reference speed is its wall time scaled by the reference probe time
    over the mean of the probes just before and after it. The probe calls
    nothing in dnet; ``control.py`` checks that the work dnet leaves behind
    (busy BLAS threads, caches) does not move it either.
    """

    def __init__(self, large_buffer: bool):
        rng = np.random.default_rng(0)
        self.acc = np.zeros((4, 32, 32, 8), np.float32)
        self.x = rng.standard_normal((4, 32, 32, 8)).astype(np.float32)
        self.w = rng.standard_normal((8, 8)).astype(np.float32)
        self.tile = rng.standard_normal(4 << 20).astype(np.float32) if large_buffer else None
        self.reference_ms = REFERENCE_MS + (LARGE_BUFFER_MS if large_buffer else 0.0)
        self.probes_ms: list[float] = []

    def probe(self) -> float:
        """Milliseconds one pass of the reference kernel takes now."""
        t0 = perf_counter()
        self.acc.fill(0.0)
        for _ in range(12):
            for k in range(8):
                self.acc += self.x[:, :, :, k : k + 1] * self.w[k]
        if self.tile is not None:
            np.tile(self.tile, 4)  # 64 MB: above malloc's mmap threshold
        ms = 1e3 * (perf_counter() - t0)
        self.probes_ms.append(ms)
        return ms

    def scale(self, before_ms: float, after_ms: float) -> float:
        """Factor taking a wall time between two probes to reference speed."""
        return 2 * self.reference_ms / (before_ms + after_ms)


def at_reference(seconds: list[float], scales: list[float]) -> list[float]:
    return [s * k for s, k in zip(seconds, scales)]


@dataclass(frozen=True)
class Workload:
    name: str
    channels_scale: float
    deterministic: bool  # tap-ordered exact convolution (True) or im2col/GEMM
    size: int  # square image side, pixels
    segment: bool  # timed loop is predict calls rather than train steps
    setup_rounds: int


WORKLOADS = {
    w.name: w
    for w in (
        Workload("train_desk", 0.125, True, 64, False, 15),
        Workload("train_full", 1.0, False, 64, False, 15),
        Workload("segment_large", 1.0, False, 576, True, 3),
    )
}


class Run:
    """One benchmark run: workspace, seeds, operation counts and checks."""

    def __init__(self, workload: Workload, seed: int, seconds: float, workdir: Path):
        self.w = workload
        self.seconds = seconds
        data_seed, train_seed = np.random.SeedSequence(seed).generate_state(2)
        self.data_seed, self.train_seed = int(data_seed), int(train_seed)
        self.cfg = model.DNetConfig(channels_scale=workload.channels_scale)
        self.images = workdir / "images"
        self.gt = workdir / "gt"
        self.pred = workdir / "pred"
        self.scores = workdir / "scores"
        self.checkpoint = workdir / "checkpoint.dnet"
        for d in (self.images, self.gt, self.pred, self.scores):
            d.mkdir(parents=True, exist_ok=True)
        self.speed = Speedometer(large_buffer=workload.segment)
        self.attempted = 0
        self.failed = 0
        self.notes: list[str] = []  # one line per failed check

    def check(self, ok: bool, what: str) -> bool:
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.notes.append(what)
        return ok

    def measure(self, fn, *args):
        """(result, wall seconds, scale to reference speed) of one call."""
        before = self.speed.probe()
        t0 = perf_counter()
        result = fn(*args)
        seconds = perf_counter() - t0
        after = self.speed.probe()
        return result, seconds, self.speed.scale(before, after)

    # -- set-up -------------------------------------------------------------

    def setup_round(self):
        """Generate the images, write them, build and save the model.

        Every round does the same work on the same inputs: four training
        images plus the held-out images on ``train_*``, the scored images
        on ``segment_large``.
        """
        w = self.w
        if w.segment:
            data = training.synth_vessels(self.data_seed, SEGMENT_IMAGES, w.size, w.size)
            train_set, scored = [], dict(enumerate(data))
        else:
            data = training.synth_vessels(
                self.data_seed, TRAIN_IMAGES + HELDOUT_IMAGES, w.size, w.size
            )
            train_set = data[:TRAIN_IMAGES]
            scored = dict(enumerate(data[TRAIN_IMAGES:]))
        for i, (img, mask) in scored.items():
            pnm.write_ppm(self.images / f"img_{i:03d}.ppm", img)
            pnm.write_mask_pgm(self.gt / f"img_{i:03d}.pgm", mask[:, :, 0])
        net = model.DNet(self.cfg, seed=MODEL_SEED)
        model.save_checkpoint(net, self.checkpoint)
        return train_set, net

    def setup(self, traced_last: bool):
        """All set-up rounds; returns (seconds, scales, train set, model, tracer)."""
        seconds, scales, tracer = [], [], None
        for r in range(self.w.setup_rounds):
            last = r == self.w.setup_rounds - 1
            with Tracer() if traced_last and last else nullcontext() as tracer_or_none:
                (train_set, net), dt, scale = self.measure(self.setup_round)
            seconds.append(dt)
            scales.append(scale)
            if last:
                tracer = tracer_or_none
        return seconds, scales, train_set, net, tracer

    # -- operations -----------------------------------------------------------

    def train_steps(self, train_set, net, seconds=None, steps=None, blocks=1, between=None):
        """One ``train`` call, run for ``seconds`` of steps or ``steps`` steps.

        With ``seconds``, the steps come in ``blocks`` blocks of equal time
        and ``between()`` runs after each block, inside ``on_step`` and
        outside the step times. Returns (wall seconds, scales, losses) per
        step; the speed probe runs between steps, outside the step times.
        """
        cfg = training.TrainConfig(max_iter=MAX_ITER, batch=BATCH, seed=self.train_seed)
        block_s = seconds / blocks if seconds is not None else math.inf
        block_end = perf_counter() + block_s
        blocks_left = blocks
        ends, losses, befores, afters = [], [], [], []
        befores.append(self.speed.probe())
        resumes = [perf_counter()]

        def on_step(step, loss):
            nonlocal block_end, blocks_left
            ends.append(perf_counter())
            losses.append(loss)
            afters.append(self.speed.probe())
            stop = steps is not None and step + 1 >= steps
            if ends[-1] >= block_end:
                if between is not None:
                    between()
                blocks_left -= 1
                stop = stop or blocks_left == 0
                block_end = perf_counter() + block_s
                befores.append(self.speed.probe())
            else:
                befores.append(afters[-1])
            resumes.append(perf_counter())
            return stop

        with convops.using_deterministic(self.w.deterministic):
            training.train(train_set, net, cfg, on_step)
        for step, loss in enumerate(losses):
            self.check(math.isfinite(loss), f"step {step}: loss {loss} is not finite")
        wall = [end - start for start, end in zip(resumes, ends)]
        scales = [self.speed.scale(a, b) for a, b in zip(befores, afters)]
        return wall, scales, losses

    def check_loss_fell(self, losses: list[float]) -> None:
        self.check(losses[-1] < losses[0], f"loss did not fall: {losses[0]} -> {losses[-1]}")

    def predict(self, index: int) -> tuple[float, float]:
        """One in-process ``dnet predict``; returns (wall seconds, scale)."""
        image = self.images / f"img_{index:03d}.ppm"
        argv = ["predict", "--checkpoint", str(self.checkpoint), "--image", str(image),
                "--out", str(self.pred)]
        prob = self.pred / f"img_{index:03d}.prob.pgm"
        prob.unlink(missing_ok=True)  # the check must see this call's output
        with convops.using_deterministic(self.w.deterministic):
            rc, dt, scale = self.measure(cli.main, argv)
        problem = "exit code %d" % rc if rc != 0 else _prob_map_problem(prob, self.w.size)
        self.check(problem is None, f"predict {image.name}: {problem}")
        return dt, scale

    def evaluate(self) -> tuple[float, float]:
        """One in-process ``dnet eval`` over every map; returns (wall seconds, scale)."""
        argv = ["eval", "--pred", str(self.pred), "--gt", str(self.gt), "--out", str(self.scores)]
        rc, dt, scale = self.measure(cli.main, argv)
        problem = "exit code %d" % rc if rc != 0 else _auc_problem(self.scores / "metrics.csv")
        self.check(problem is None, f"eval: {problem}")
        return dt, scale

    def predict_loop(self, seconds=None, count=None) -> tuple[list, list]:
        """Predict the scored images in turn, for ``seconds`` or ``count`` calls."""
        images = self.scored_indices()
        deadline = perf_counter() + seconds if seconds is not None else math.inf
        wall, scales = [], []
        while perf_counter() < deadline and (count is None or len(wall) < count):
            dt, scale = self.predict(images[len(wall) % len(images)])
            wall.append(dt)
            scales.append(scale)
        return wall, scales

    def scored_indices(self) -> list[int]:
        return list(range(SEGMENT_IMAGES if self.w.segment else HELDOUT_IMAGES))


@contextmanager
def stopwatch(owner, name: str, samples: list):
    """Append the wall time of each call of ``owner.name`` to ``samples``."""
    original = getattr(owner, name)

    def timed(*args, **kwargs):
        t0 = perf_counter()
        try:
            return original(*args, **kwargs)
        finally:
            samples.append(perf_counter() - t0)

    setattr(owner, name, timed)
    try:
        yield
    finally:
        setattr(owner, name, original)


def _prob_map_problem(path: Path, size: int) -> str | None:
    """Decode a 16-bit probability PGM independently of dnet's reader."""
    if not path.is_file():
        return f"{path.name} missing"
    data = path.read_bytes()
    m = re.match(rb"P5\s+(\d+)\s+(\d+)\s+(\d+)\s", data)
    if m is None:
        return f"{path.name}: not a binary PGM"
    width, height, maxval = (int(v) for v in m.groups())
    if (height, width) != (size, size):
        return f"{path.name}: shape {height}x{width}, input is {size}x{size}"
    payload = data[m.end():]
    if maxval != 65535 or len(payload) != 2 * width * height:
        return f"{path.name}: maxval {maxval}, {len(payload)} payload bytes"
    values = np.frombuffer(payload, dtype=">u2")
    probs = values / maxval
    if not (np.isfinite(probs).all() and probs.min() >= 0.0 and probs.max() <= 1.0):
        return f"{path.name}: values outside [0, 1]"
    return None


def _auc_problem(path: Path) -> str | None:
    if not path.is_file():
        return f"{path.name} missing"
    with open(path, newline="") as fh:
        rows = {name: value for name, value in csv.reader(fh)}
    for key in ("auc_roc", "auc_pr"):
        value = float(rows.get(key, "nan"))
        if not 0.0 <= value <= 1.0:
            return f"{key} = {value} outside [0, 1]"
    return None


# -- statistics ----------------------------------------------------------------


def tail(samples: list[float]) -> tuple[float, float, int]:
    """(value, percentile, samples beyond) of the highest percentile that keeps
    at least TAIL_BEYOND samples beyond it.

    Below 2 * TAIL_BEYOND + 1 samples no percentile above the median keeps
    that many beyond it, and a maximum over a handful of samples mostly
    measures the machine's noise; the median is returned instead, and the
    percentile beside it says so.
    """
    s = sorted(samples)
    n = len(s)
    if n < 2 * TAIL_BEYOND + 1:
        return statistics.median(s), 50.0, n // 2
    i = n - 1 - TAIL_BEYOND
    return s[i], 100.0 * (i + 1) / n, TAIL_BEYOND


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6


# -- end-to-end run ------------------------------------------------------------


def run_end_to_end(run: Run) -> tuple[dict, dict]:
    """Untraced run; returns (metrics {name: (value, unit)}, details)."""
    w = run.w
    setup_wall, setup_scales, train_set, net, _ = run.setup(traced_last=False)
    details: dict = {"setup_s_wall": setup_wall}
    # Inference samples are spread over the run rather than bunched into
    # one stretch of the machine's drift: train_* pauses its one train call
    # after each of its blocks for predict passes over the held-out images,
    # EVALS evals after each pass; segment_large evals after every predict
    # once each image has a map. Predict loads the set-up checkpoint, never
    # the model being trained: eval's cost grows with the number of
    # distinct probabilities, which would otherwise drift with training.
    step_wall: list[float] = []
    predict_wall, predict_scales, evals = [], [], []
    n_images = len(run.scored_indices())
    if w.segment:
        deadline = perf_counter() + run.seconds
        with stopwatch(cli, "predict_probs", step_wall):
            while perf_counter() < deadline:
                dt, scale = run.predict(len(predict_wall) % n_images)
                predict_wall.append(dt)
                predict_scales.append(scale)
                if len(predict_wall) >= n_images:  # every image has a map
                    evals.extend(run.evaluate() for _ in range(EVALS))
        step_scales, images_per_step = predict_scales, 1
    else:

        def infer():
            for _ in range(TRAIN_PREDICT_PASSES):
                wall, scales = run.predict_loop(count=n_images)
                predict_wall.extend(wall)
                predict_scales.extend(scales)
                evals.extend(run.evaluate() for _ in range(EVALS))

        wall, scales, losses = run.train_steps(
            train_set, net, seconds=run.seconds, blocks=TRAIN_BLOCKS, between=infer
        )
        step_wall, step_scales = wall[WARMUP_STEPS:], scales[WARMUP_STEPS:]
        run.check_loss_fell(losses)
        details["loss_first_last"] = [losses[0], losses[-1]]
        images_per_step = BATCH
    eval_wall, eval_scales = zip(*evals)
    details["wall_medians"] = {
        "step_ms": 1e3 * statistics.median(step_wall),
        "predict_s": statistics.median(predict_wall),
        "eval_s": statistics.median(eval_wall),
        "setup_s": statistics.median(setup_wall),
    }

    steps = at_reference(step_wall, step_scales)
    predicts = at_reference(predict_wall, predict_scales)
    tail_s, tail_pct, beyond = tail(steps)
    details.update(
        ops=len(steps),
        step_ms_tail_percentile=tail_pct,
        step_ms_tail_beyond=beyond,
        step_ms_wall=[1e3 * v for v in step_wall],
        predict_s_wall=predict_wall,
        eval_s_wall=list(eval_wall),
        probe_ms=run.speed.probes_ms,
    )
    pixels = w.size * w.size
    metrics = {
        "step_ms_p50": (1e3 * statistics.median(steps), "ms"),
        "step_ms_tail": (1e3 * tail_s, "ms"),
        "images_per_s": (images_per_step * len(steps) / sum(steps), "1/s"),
        "predict_s_p50": (statistics.median(predicts), "s"),
        "predict_mpx_per_s": (pixels * len(predicts) / sum(predicts) / 1e6, "Mpx/s"),
        "eval_s": (statistics.median(at_reference(eval_wall, eval_scales)), "s"),
        "peak_rss_mb": (peak_rss_mb(), "MB"),
        "setup_s": (statistics.median(at_reference(setup_wall, setup_scales)), "s"),
    }
    return metrics, details


# -- traced run ----------------------------------------------------------------


def run_traced(run: Run) -> tuple[dict, dict]:
    """Loop untraced for half the time, then the same operations traced.

    Returns (per-layer metrics {name: (value, unit)}, details).
    """
    w = run.w
    _, _, train_set, net, setup_tracer = run.setup(traced_last=True)
    half = run.seconds / 2
    details: dict = {}
    if w.segment:
        plain = run.predict_loop(seconds=half)
        with Tracer() as tracer:
            traced = run.predict_loop(count=len(plain[0]))
            evals = len([run.evaluate() for _ in range(EVALS)])
        warm, step_wall = 0, 0.0
    else:
        plain_wall, plain_scales, plain_losses = run.train_steps(train_set, net, seconds=half)
        fresh = model.DNet(run.cfg, seed=MODEL_SEED)
        with Tracer() as tracer:
            wall, scales, traced_losses = run.train_steps(train_set, fresh, steps=len(plain_wall))
        run.check_loss_fell(traced_losses)
        plain, traced = (plain_wall, plain_scales), (wall, scales)
        evals, warm, step_wall = 0, WARMUP_STEPS, sum(wall)
        identical = plain_losses == traced_losses
        details["loss_trace_identical"] = identical
        if w.name == "train_desk":
            run.check(identical, "traced loss trace differs from the untraced one")
    run.check(tracer.restored() and setup_tracer.restored(), "a wrapped name was not restored")
    ops = len(traced[0])
    plain_s = statistics.median(at_reference(*plain)[warm:])
    overhead_s = statistics.median(at_reference(*traced)[warm:]) - plain_s
    metrics = per_layer(tracer, setup_tracer, ops, evals, step_wall)
    if not w.segment:
        other = metrics["training.other_ms"][0]
        run.check(other >= 0.0, f"training.other_ms is negative ({other})")
    metrics["tracer.overhead_ms"] = (1e3 * overhead_s, "ms")
    metrics["tracer.overhead_pct"] = (100.0 * overhead_s / plain_s, "%")
    details.update(ops=ops, eval_calls=evals, spans=_span_table(tracer))
    return metrics, details


def per_layer(tr: Tracer, setup_tr: Tracer, ops: int, evals: int, step_wall: float) -> dict:
    """Layer metrics per loop operation (train step or predicted image).

    ``metrics.*`` and ``cli.eval_self_ms`` are per eval call; set-up metrics
    are per set-up round. ``ms`` is seconds scaled to milliseconds per op.
    """
    total, counts = tr.total, tr.counts

    def ms(seconds):
        return (1e3 * seconds / ops, "ms")

    def per_eval(value, unit):
        return (value / evals if evals else 0.0, unit)

    m = {}
    for k in (1, 3):
        op = f"conv2d_k{k}"
        m[f"convops.{op}.fwd_ms"] = ms(counts[f"fwd_s.{op}"])
        m[f"convops.{op}.bwd_ms"] = ms(counts[f"bwd_s.{op}"])
        m[f"convops.{op}.calls"] = (counts[f"calls.{op}"] / ops, "count")
        m[f"convops.{op}.gflop"] = (counts[f"flop.{op}"] / 1e9 / ops, "GFLOP")
    conv_flop = sum(v for k, v in counts.items() if k.startswith("flop.conv2d_"))
    conv_fwd = sum(v for k, v in counts.items() if k.startswith("fwd_s.conv2d_"))
    m["convops.conv2d.im2col_mb"] = (counts["im2col.bytes"] / 1e6 / ops, "MB")
    m["convops.conv2d.gflops_per_s"] = (conv_flop / conv_fwd / 1e9 if conv_fwd else 0.0, "GFLOP/s")
    for op in ("depthwise_conv2d", "transposed_conv", "max_pool", "global_avg_pool",
               "bilinear_upsample"):
        m[f"convops.{op}.fwd_ms"] = ms(counts[f"fwd_s.{op}"])
        m[f"convops.{op}.bwd_ms"] = ms(counts[f"bwd_s.{op}"])
    m["tensor.backward_ms"] = ms(total["tensor.backward"])
    m["tensor.backward_self_ms"] = ms(tr.self_time["tensor.backward"])
    m["tensor.elementwise.fwd_ms"] = ms(counts["fwd_s.elementwise"])
    m["tensor.elementwise.bwd_ms"] = ms(counts["bwd_s.elementwise"])
    m["tensor.tape_nodes"] = (counts["tape.nodes"] / ops, "count")
    m["tensor.tape_mb"] = (counts["tape.bytes"] / 1e6 / ops, "MB")
    m["model.forward_ms"] = ms(total["model.forward"])
    for block in MODEL_BLOCKS:
        m[f"model.{block}.fwd_ms"] = ms(counts[f"fwd_s.model.{block}"])
        m[f"model.{block}.bwd_ms"] = ms(counts[f"bwd_s.model.{block}"])
    m["model.load_checkpoint_ms"] = ms(total["model.load_checkpoint"])
    m["model.save_checkpoint_ms"] = (1e3 * setup_tr.total["model.save_checkpoint"], "ms")
    m["losses.total_loss.fwd_ms"] = ms(total["losses.total_loss"])
    m["losses.total_loss.bwd_ms"] = ms(counts["bwd_s.losses"])
    m["training.adam_step_ms"] = ms(total["training.adam_step"])
    accounted = sum(
        total[name]
        for name in ("model.forward", "losses.total_loss", "tensor.backward", "training.adam_step")
    )
    m["training.other_ms"] = ms(step_wall - accounted if step_wall else 0.0)
    m["training.synth_vessels_s"] = (setup_tr.total["training.synth_vessels"], "s")
    m["training.predict_probs_ms"] = ms(total["training.predict_probs"])
    m["pnm.read_ms"] = ms(total["pnm.read_pnm"])
    m["pnm.write_ms"] = ms(sum(v for k, v in total.items() if k.startswith("pnm.write_")))
    m["pnm.mb_read"] = (counts["pnm.bytes_read"] / 1e6 / ops, "MB")
    m["pnm.mb_written"] = (counts["pnm.bytes_written"] / 1e6 / ops, "MB")
    m["metrics.confusion_ms"] = per_eval(1e3 * total["metrics.confusion"], "ms")
    m["metrics.roc_pr_curves_ms"] = per_eval(1e3 * total["metrics.roc_pr_curves"], "ms")
    m["metrics.scored_mpx"] = per_eval(counts["metrics.scored_px"] / 1e6, "Mpx")
    m["cli.predict_self_ms"] = ms(tr.self_time["cli.predict"])
    m["cli.eval_self_ms"] = per_eval(1e3 * tr.self_time["cli.eval"], "ms")
    return m


def _span_table(tr: Tracer) -> dict:
    """Every span's calls, inclusive and self milliseconds, for the results file."""
    return {
        name: {"calls": tr.calls[name], "total_ms": 1e3 * tr.total[name],
               "self_ms": 1e3 * tr.self_time[name]}
        for name in sorted(tr.total)
    }
