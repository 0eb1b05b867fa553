"""Acceptance gate: one test per shipping criterion, each printing a
pass/fail line (run with ``pytest tests/test_acceptance.py -v -s``).

Numeric criteria run at their stated tolerances; training criteria are
properties of desk-scale runs on synthetic data, not benchmark figures.
"""

import itertools
import time

import numpy as np
import pytest

from dnet.cli import main as cli_main
from dnet.convops import (
    ConvKernel,
    conv2d,
    depthwise_conv2d,
    global_avg_pool,
    max_pool,
    same_pads,
    transposed_conv,
    using_deterministic,
)
from dnet.losses import sigmoid, total_loss
from dnet.metrics import ConfusionCounts, metrics, roc_pr_curves
from dnet.model import (
    DNet,
    DNetConfig,
    load_checkpoint,
    save_checkpoint,
)
from dnet.receptive import LayerSpec, coverage_map, rf_stack, rf_single
from dnet.convops import dilated_kernel_extent
from dnet.tensor import backward, recording, using_dtype
from dnet.training import AdamState, TrainConfig, adam_step, evaluate, poly_lr, synth_vessels, train

from conftest import (
    bilinear_upsample, concat_channels, fd_full_grad, max_rel_err, multiply, sum_all, tensor,
    zero_insert_kernel,
)
from test_metrics import pairwise_ranking_auc
from test_receptive import coverage_oracle_numeric
from test_training import reference_adam


def report(n: int, text: str) -> None:
    print(f"criterion {n}: PASS - {text}")


def test_criterion_01_receptive_field_worked_examples():
    start = time.monotonic()
    assert rf_single(3, 4) == 9
    stack = rf_stack([LayerSpec("conv", 5), LayerSpec("conv", 9)])
    assert stack.final_rf == 13
    elapsed = time.monotonic() - start
    assert elapsed < 1.0
    report(1, f"rf_single(3,4)=9 and rf_stack(5,9)=13 exactly ({elapsed:.3f}s)")


def test_criterion_02_dilated_kernel_extent():
    assert dilated_kernel_extent(3, 2) == 5
    report(2, "dilated_kernel_extent(3,2)=5 exactly")


def test_criterion_03_dilation_zero_insertion_oracle():
    start = time.monotonic()
    rng = np.random.default_rng(30)
    cases = 0
    for d in (1, 2, 3, 4):
        for _ in range(30):
            h, w = rng.integers(1, 7, size=2)
            cin = int(rng.integers(1, 4))
            cout = int(rng.integers(1, 3))
            k = int(rng.integers(1, 4))
            x = tensor(rng.normal(size=(1, h, w, cin)))
            wk = tensor(rng.normal(size=(k, k, cin, cout)))
            bias = tensor(rng.normal(size=(1, 1, 1, cout)))
            dilated = conv2d(x, ConvKernel(wk, bias, 1, d, same_pads(k, d)))
            inserted = tensor(zero_insert_kernel(wk.data, d))
            plain = conv2d(x, ConvKernel(inserted, bias, 1, 1, same_pads(k, d)))
            assert np.abs(dilated.data - plain.data).max() == 0.0
            cases += 1
    elapsed = time.monotonic() - start
    assert cases >= 100
    assert elapsed < 10.0
    report(3, f"{cases} random inputs, d in 1..4, max abs diff 0 ({elapsed:.2f}s)")


def test_criterion_04_cascade_coverage():
    start = time.monotonic()
    assert coverage_map((2, 2, 2)).dense is False
    assert coverage_map((1, 2, 3)).dense is True
    for triple in itertools.product(range(1, 5), repeat=3):
        got = coverage_map(triple)
        dense, holes = coverage_oracle_numeric(triple)
        assert got.dense == dense and got.holes == holes, triple
    elapsed = time.monotonic() - start
    assert elapsed < 5.0
    report(4, f"(2,2,2) holes, (1,2,3) dense, all 64 triples match oracle ({elapsed:.2f}s)")


def _fd_check(build, params, tol=1e-4, eps=1e-4):
    """FD-check d(sum(out * weigh))/d(param) for every listed parameter."""

    def loss_fn():
        return build().item()

    with recording() as g:
        grads = backward(build(), g)
    for t in params:
        assert max_rel_err(grads[t], fd_full_grad(loss_fn, t, eps=eps)) < tol


def test_criterion_05_gradient_suite():
    start = time.monotonic()
    rng = np.random.default_rng(50)
    with using_dtype(np.float64):
        # conv2d, plain and dilated
        for d in (1, 2):
            x = tensor(rng.normal(size=(1, 5, 6, 2)), requires_grad=True)
            w = tensor(rng.normal(size=(3, 3, 2, 3)), requires_grad=True)
            b = tensor(rng.normal(size=(1, 1, 1, 3)), requires_grad=True)
            weigh = tensor(rng.normal(size=(1, 5, 6, 3)))
            kern = ConvKernel(w, b, 1, d, same_pads(3, d))
            _fd_check(lambda: sum_all(multiply(conv2d(x, kern), weigh)), (x, w, b))

        # depthwise then pointwise
        x = tensor(rng.normal(size=(1, 4, 4, 2)), requires_grad=True)
        dw_w = tensor(rng.normal(size=(3, 3, 2, 1)), requires_grad=True)
        pw_w = tensor(rng.normal(size=(1, 1, 2, 3)), requires_grad=True)
        dw = ConvKernel(dw_w, None, 1, 2, same_pads(3, 2))
        pw = ConvKernel(pw_w, None)
        weigh = tensor(rng.normal(size=(1, 4, 4, 3)))
        _fd_check(
            lambda: sum_all(multiply(conv2d(depthwise_conv2d(x, dw), pw), weigh)),
            (x, dw_w, pw_w),
        )

        # transposed conv
        x = tensor(rng.normal(size=(1, 3, 3, 2)), requires_grad=True)
        w = tensor(rng.normal(size=(2, 2, 2, 2)), requires_grad=True)
        kern = ConvKernel(w, None, stride=2)
        weigh = tensor(rng.normal(size=(1, 6, 6, 2)))
        _fd_check(lambda: sum_all(multiply(transposed_conv(x, kern), weigh)), (x, w))

        # max pool (well-separated values keep the argmax stable)
        vals = rng.permutation(np.arange(36, dtype=np.float64)) * 0.5
        x = tensor(vals.reshape(1, 6, 6, 1), requires_grad=True)
        weigh = tensor(rng.normal(size=(1, 3, 3, 1)))
        _fd_check(
            lambda: sum_all(multiply(max_pool(x, 3, 2, (0, 1, 0, 1)), weigh)),
            (x,), eps=1e-5,
        )

        # global average pool
        x = tensor(rng.normal(size=(1, 4, 5, 3)), requires_grad=True)
        weigh = tensor(rng.normal(size=(1, 1, 1, 3)))
        _fd_check(lambda: sum_all(multiply(global_avg_pool(x), weigh)), (x,))

        # bilinear upsample
        x = tensor(rng.normal(size=(1, 1, 1, 2)), requires_grad=True)
        weigh = tensor(rng.normal(size=(1, 6, 5, 2)))
        _fd_check(lambda: sum_all(multiply(bilinear_upsample(x, 6, 5), weigh)), (x,))

        # conv2d with a residual and its ReLU in one node: the sums (base)
        # stay away from the kink
        fused = np.random.default_rng(51)
        x = tensor(fused.normal(size=(1, 4, 4, 2)), requires_grad=True)
        w = tensor(fused.normal(size=(1, 1, 2, 2)), requires_grad=True)
        base = rng.uniform(0.2, 1.5, size=(1, 4, 4, 2)) * rng.choice([-1, 1], (1, 4, 4, 2))
        r = tensor(base - conv2d(x, ConvKernel(w, None)).data, requires_grad=True)
        kern = ConvKernel(w, None, relu=True)
        weigh = tensor(rng.normal(size=(1, 4, 4, 2)))
        _fd_check(lambda: sum_all(multiply(conv2d(x, kern, r), weigh)), (x, w, r))

        # total loss wrt logits of both signs (through sigmoid) and a weight tensor
        pred = tensor(rng.uniform(-2.0, 2.0, size=(1, 4, 4, 1)), requires_grad=True)
        target = tensor((rng.uniform(size=(1, 4, 4, 1)) > 0.5).astype(np.float64))
        w = tensor(rng.normal(size=(3, 3, 1, 2)), requires_grad=True)
        _fd_check(lambda: total_loss(pred, target, [w], 0.1, 0.7), (pred, w), eps=1e-6)

        # full tiny network, sampled parameters, tolerance 1e-3
        model = DNet(DNetConfig(channels_scale=0.125), seed=5)
        x = tensor(rng.uniform(0.2, 0.8, size=(1, 16, 16, 3)))
        target = tensor((rng.uniform(size=(1, 16, 16, 1)) > 0.7).astype(np.float64))
        reg = model.kernel_parameters()

        def loss_fn():
            return total_loss(model(x), target, reg, 1e-3, 1.0).item()

        with recording() as g:
            grads = backward(total_loss(model(x), target, reg, 1e-3, 1.0), g)
        per_type = {
            "root conv": "root.conv1.w",
            "strided bottleneck": "block3.unit1.spatial.w",
            "dilated bottleneck": "block4.unit3.spatial.w",
            "projection": "block5.unit1.project.w",
            "msif depthwise": "msif.branch3.dw.w",
            "msif pointwise": "msif.branch1.pw.w",
            "msif fuse": "msif.fuse.w",
            "decoder transposed": "decoder.up1.w",
            "decoder fuse": "decoder.fuse2.w",
            "head": "decoder.head.w",
            "bias": "block2.unit2.spatial.b",
        }
        checked = 0
        for label, name in per_type.items():
            p = model.parameters()[name]
            k = min(20, p.data.size)
            entries = rng.choice(p.data.size, size=k, replace=False)
            from conftest import fd_grad_entries

            # eps 1e-5: deep perturbations at 1e-4 occasionally cross a
            # relu/argmax kink, which corrupts the FD oracle, not the model.
            fd = fd_grad_entries(loss_fn, p, entries, eps=1e-5)
            analytic = grads[p].reshape(-1)[entries]
            assert max_rel_err(analytic, fd) < 1e-3, label
            checked += k
    elapsed = time.monotonic() - start
    assert elapsed < 120.0
    report(5, f"all operators < 1e-4, {checked} net parameters < 1e-3 ({elapsed:.1f}s)")


def test_criterion_06_shape_contract():
    rng = np.random.default_rng(60)
    model = DNet(DNetConfig(), seed=0)
    x = tensor(rng.uniform(size=(1, 64, 64, 3)))
    with using_deterministic(False):  # shape contract; tap order irrelevant
        feats = model.encoder(x)
        g = concat_channels(feats.deep)
        u = model.msif(g)
        probs = sigmoid(model(x).data)
    b3, b4, b5 = feats.deep
    assert b3.shape == (1, 4, 4, 256)
    assert b4.shape == (1, 4, 4, 512)
    assert b5.shape == (1, 4, 4, 256)
    assert g.shape == (1, 4, 4, 1024)
    assert u.shape == (1, 4, 4, 256)
    assert probs.shape == (1, 64, 64, 1)
    assert probs.min() > 0.0 and probs.max() < 1.0
    report(6, "64x64 -> blocks at 4x4, G 1024ch, fusion 256ch, output 64x64x1 in (0,1)")


def test_criterion_07_metrics_and_auc_oracle():
    start = time.monotonic()
    m = metrics(ConfusionCounts(tp=2, fp=1, fn=1, tn=6))
    assert abs(m.precision - 2 / 3) < 1e-12
    assert abs(m.recall - 2 / 3) < 1e-12
    assert abs(m.f1 - 2 / 3) < 1e-12
    assert abs(m.accuracy - 0.8) < 1e-12
    assert abs(m.specificity - 6 / 7) < 1e-12

    rng = np.random.default_rng(70)
    for _ in range(50):
        n = int(rng.integers(4, 120))
        scores = np.round(rng.uniform(size=n), 2)
        labels = rng.integers(0, 2, size=n)
        if labels.sum() in (0, n):
            continue
        rep = roc_pr_curves(scores, labels)
        assert abs(rep.auc_roc - pairwise_ranking_auc(scores, labels)) < 1e-12
    elapsed = time.monotonic() - start
    assert elapsed < 5.0
    report(7, f"hand metrics exact, 50 AUC sets match pairwise oracle ({elapsed:.2f}s)")


def test_criterion_08_schedule_and_optimizer():
    start = time.monotonic()
    cfg = TrainConfig(lr=1e-4, power=0.9, max_iter=1000)
    assert poly_lr(0, cfg) == 1e-4
    assert poly_lr(1000, cfg) == 0.0
    assert abs(poly_lr(500, cfg) - 5.3589e-5) < 1e-9

    with using_dtype(np.float64):
        rng = np.random.default_rng(80)
        shapes = [(1, 2, 3, 2), (1, 1, 1, 5)]
        params = [tensor(rng.normal(size=s), requires_grad=True) for s in shapes]
        initial = [p.data.copy() for p in params]
        grad_steps = [[rng.normal(size=s) for s in shapes] for _ in range(3)]
        state = AdamState.for_params(params)
        for grads in grad_steps:
            adam_step(params, grads, state, lr=2e-3)
        expected = reference_adam(initial, grad_steps, lr=2e-3)
        for p, e in zip(params, expected):
            assert np.abs(p.data - e).max() < 1e-10
    elapsed = time.monotonic() - start
    assert elapsed < 1.0
    report(8, f"poly endpoints exact, midpoint to 1e-9, adam matches oracle to 1e-10 ({elapsed:.2f}s)")


def test_criterion_09_desk_scale_training():
    start = time.monotonic()
    dataset = synth_vessels(42, 4, 64, 64)
    cfg = DNetConfig(dilations=(1, 2, 4), msif_rates=(3, 6, 12), channels_scale=0.125)
    model = DNet(cfg, seed=1)
    train_cfg = TrainConfig(lr=3e-3, max_iter=2000, batch=4, seed=1)
    best = {"f1": 0.0, "step": -1}

    def on_step(step, loss):
        if step >= 100 and step % 50 == 0:
            rep, _ = evaluate(model, dataset)
            if rep.f1 > best["f1"]:
                best.update(f1=rep.f1, step=step)
            return rep.f1 > 0.95
        return False

    train(dataset, model, train_cfg, on_step=on_step)
    if best["f1"] <= 0.95:  # no early stop fired: score the final model
        rep, _ = evaluate(model, dataset)
        best.update(f1=rep.f1, step=train_cfg.max_iter)
    elapsed = time.monotonic() - start
    assert best["f1"] > 0.95, f"training-set F1 {best['f1']:.4f} after {best['step']} steps"
    assert elapsed < 15 * 60
    report(9, f"training F1 {best['f1']:.4f} by step {best['step']} ({elapsed:.0f}s)")


def test_criterion_10_ablation_direction():
    start = time.monotonic()

    def run(seed: int, dilations, msif: bool, data):
        cfg = DNetConfig(
            dilations=dilations, msif_rates=(3, 6, 12),
            msif_enabled=msif, channels_scale=0.125,
        )
        model = DNet(cfg, seed=seed)
        train(data[:24], model, TrainConfig(lr=3e-3, max_iter=300, batch=4, seed=seed))
        rep, _ = evaluate(model, data[24:])
        return rep.f1

    full, base = [], []
    with using_deterministic(False):  # speed; no bit-exactness claim here
        for seed in (0, 1, 2):
            data = synth_vessels(100 + seed, 32, 64, 64, distractors=6)
            full.append(run(seed, (1, 2, 4), True, data))
            base.append(run(seed, (1, 1, 1), False, data))
    mean_full = float(np.mean(full))
    mean_base = float(np.mean(base))
    elapsed = time.monotonic() - start
    print(
        f"  held-out F1, mean of 3 seeds: (1,2,4)+fusion {mean_full:.4f} "
        f"vs (1,1,1) plain {mean_base:.4f}"
    )
    assert mean_full >= mean_base
    assert elapsed < 2 * 60 * 60
    report(10, f"direction holds: {mean_full:.4f} >= {mean_base:.4f} ({elapsed:.0f}s)")


def test_criterion_11_round_trips_and_reproducibility(tmp_path):
    rng = np.random.default_rng(110)

    # checkpoint bytes stable over save -> load -> save
    model = DNet(DNetConfig(channels_scale=0.0625), seed=4)
    p1, p2 = tmp_path / "a.dnet", tmp_path / "b.dnet"
    save_checkpoint(model, p1)
    save_checkpoint(load_checkpoint(p1), p2)
    assert p1.read_bytes() == p2.read_bytes()

    # image formats round trip
    from dnet.pnm import read_pnm, write_mask_pgm, write_ppm, write_prob_pgm

    mask = (rng.uniform(size=(16, 16)) > 0.5).astype(float)
    write_mask_pgm(tmp_path / "m.pgm", mask)
    assert np.array_equal(read_pnm(tmp_path / "m.pgm"), mask)
    img = np.round(rng.uniform(size=(16, 16, 3)) * 255) / 255
    write_ppm(tmp_path / "i.ppm", img)
    assert np.abs(read_pnm(tmp_path / "i.ppm") - img).max() < 1e-12
    probs = rng.uniform(size=(16, 16))
    write_prob_pgm(tmp_path / "p.pgm", probs)
    first = (tmp_path / "p.pgm").read_bytes()
    write_prob_pgm(tmp_path / "p.pgm", read_pnm(tmp_path / "p.pgm"))
    assert (tmp_path / "p.pgm").read_bytes() == first

    # the whole seeded CLI pipeline is bit-reproducible in deterministic mode
    cfg = tmp_path / "run.cfg"
    cfg.write_text(
        "max_iter = 8\nbatch = 2\nchannels_scale = 0.0625\nlr = 1e-3\nseed = 12\n"
    )
    outputs = []
    for tag in ("r1", "r2"):
        out = tmp_path / tag
        assert cli_main(
            ["train", "--config", str(cfg), "--synth", "4", "--synth-size", "32",
             "--out", str(out)]
        ) == 0
        data_dir = tmp_path / f"data_{tag}"
        assert cli_main(
            ["synth", "--seed", "12", "--n", "1", "--height", "32", "--width", "32",
             "--out", str(data_dir)]
        ) == 0
        pred_dir = tmp_path / f"pred_{tag}"
        assert cli_main(
            ["predict", "--checkpoint", str(out / "checkpoint.dnet"),
             "--image", str(data_dir / "img_000.ppm"), "--out", str(pred_dir)]
        ) == 0
        outputs.append(
            (
                (out / "checkpoint.dnet").read_bytes(),
                (out / "loss.csv").read_bytes(),
                (pred_dir / "img_000.prob.pgm").read_bytes(),
            )
        )
    assert outputs[0] == outputs[1]
    report(11, "checkpoint/PGM/PPM round trips bit-exact; seeded pipeline bit-reproducible")
