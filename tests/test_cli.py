import csv
import hashlib
import struct

import numpy as np
import pytest

from dnet import cli
from dnet.cli import _CSV_BLOCK_ROWS, _write_csv, main
from dnet.convops import deterministic_mode, using_deterministic
from dnet.manifest import as_rgb
from dnet.model import CHECKPOINT_MAGIC, DNet, DNetConfig, load_checkpoint, save_checkpoint
from dnet.pnm import read_pnm, write_mask_pgm, write_ppm, write_prob_pgm
from dnet.training import predict_probs, train


def run_cli(*args) -> int:
    return main([str(a) for a in args])


def read_csv(path):
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


@pytest.fixture(scope="module")
def workspace(tmp_path_factory):
    """synth -> train -> predict once; several tests inspect the results."""
    root = tmp_path_factory.mktemp("cli")
    data = root / "data"
    assert run_cli("synth", "--seed", 5, "--n", 3, "--height", 32, "--width", 32,
                   "--out", data) == 0
    cfg = root / "run.cfg"
    cfg.write_text(
        "d1 = 1\nd2 = 2\nd3 = 4\nmsif = on\nmsif_rates = 3,6,12\n"
        "lr = 2e-3\nmax_iter = 30\nbatch = 2\nseed = 3\nchannels_scale = 0.0625\n"
    )
    run_dir = root / "run"
    assert run_cli("train", "--config", cfg, "--manifest", data / "manifest.txt",
                   "--out", run_dir) == 0
    preds = root / "preds"
    for i in range(3):
        assert run_cli("predict", "--checkpoint", run_dir / "checkpoint.dnet",
                       "--image", data / f"img_{i:03d}.ppm", "--out", preds) == 0
    return root


class TestPipeline:
    def test_synth_outputs_decode(self, workspace):
        data = workspace / "data"
        img = read_pnm(data / "img_000.ppm")
        mask = read_pnm(data / "img_000.pgm")
        assert img.shape == (32, 32, 3)
        assert mask.shape == (32, 32)

    def test_train_wrote_checkpoint_and_trace(self, workspace):
        run_dir = workspace / "run"
        model = load_checkpoint(run_dir / "checkpoint.dnet")
        assert model.cfg.dilations == (1, 2, 4)
        rows = read_csv(run_dir / "loss.csv")
        assert len(rows) == 30
        assert float(rows[0]["lr"]) == pytest.approx(2e-3)

    def test_predict_outputs(self, workspace):
        preds = workspace / "preds"
        prob = read_pnm(preds / "img_000.prob.pgm")
        mask = read_pnm(preds / "img_000.mask.pgm")
        assert prob.shape == (32, 32)
        assert mask.shape == (32, 32)
        assert set(np.unique(mask)).issubset({0.0, 1.0})

    def test_eval_on_predictions(self, workspace):
        out = workspace / "eval"
        assert run_cli("eval", "--pred", workspace / "preds", "--gt",
                       workspace / "data", "--out", out) == 0
        rows = {r["name"]: float(r["value"]) for r in read_csv(out / "metrics.csv")}
        assert set(rows) == {
            "accuracy", "precision", "recall", "specificity", "f1", "auc_roc", "auc_pr"
        }
        roc = read_csv(out / "roc.csv")
        assert roc[0]["fpr"] == "0" and roc[-1]["tpr"] == "1"

    def test_eval_perfect_when_pred_equals_gt(self, workspace, capsys):
        out = workspace / "eval_self"
        assert run_cli("eval", "--pred", workspace / "data", "--gt",
                       workspace / "data", "--out", out) == 0
        rows = {r["name"]: float(r["value"]) for r in read_csv(out / "metrics.csv")}
        assert rows["accuracy"] == 1.0
        assert rows["f1"] == 1.0

    def test_eval_with_fov_restriction(self, workspace, tmp_path):
        from dnet.pnm import write_mask_pgm

        fov_dir = tmp_path / "fov"
        fov_dir.mkdir()
        fov = np.zeros((32, 32))
        fov[8:24, 8:24] = 1.0
        for i in range(3):
            write_mask_pgm(fov_dir / f"img_{i:03d}.pgm", fov)
        out = tmp_path / "eval_fov"
        assert run_cli("eval", "--pred", workspace / "data", "--gt", workspace / "data",
                       "--fov", fov_dir, "--out", out) == 0
        rows = {r["name"]: float(r["value"]) for r in read_csv(out / "metrics.csv")}
        assert rows["accuracy"] == 1.0  # 16x16 window only, still perfect

    def test_predict_deterministic(self, workspace, tmp_path):
        run_dir = workspace / "run"
        for out in (tmp_path / "a", tmp_path / "b"):
            assert run_cli("predict", "--checkpoint", run_dir / "checkpoint.dnet",
                           "--image", workspace / "data" / "img_001.ppm",
                           "--out", out) == 0
        a = (tmp_path / "a" / "img_001.prob.pgm").read_bytes()
        b = (tmp_path / "b" / "img_001.prob.pgm").read_bytes()
        assert a == b


    def test_predict_graymap_matches_gray_pixmap(self, workspace, tmp_path):
        # A graymap is the pixmap with three equal channels. Multiples of
        # 1/255 store exactly in both the 16-bit P5 and the 8-bit P6.
        gray = np.random.default_rng(0).integers(0, 256, size=(32, 32)) / 255.0
        write_prob_pgm(tmp_path / "g.pgm", gray)
        write_ppm(tmp_path / "g.ppm", np.repeat(gray[:, :, None], 3, axis=2))
        ckpt = workspace / "run" / "checkpoint.dnet"
        for image, out in (("g.pgm", "a"), ("g.ppm", "b")):
            assert run_cli("predict", "--checkpoint", ckpt, "--image", tmp_path / image,
                           "--out", tmp_path / out) == 0
        a = (tmp_path / "a" / "g.prob.pgm").read_bytes()
        assert a == (tmp_path / "b" / "g.prob.pgm").read_bytes()
        assert read_pnm(tmp_path / "a" / "g.prob.pgm").shape == (32, 32)

    def test_predict_takes_any_image_size(self, workspace, tmp_path):
        # 40x40 is not a multiple of 16: it is padded to 48x48 and cropped back.
        image = tmp_path / "odd.ppm"
        write_ppm(image, np.full((40, 40, 3), 0.5))
        assert run_cli("predict", "--checkpoint", workspace / "run" / "checkpoint.dnet",
                       "--image", image, "--out", tmp_path / "o") == 0
        assert read_pnm(tmp_path / "o" / "odd.prob.pgm").shape == (40, 40)
        assert read_pnm(tmp_path / "o" / "odd.mask.pgm").shape == (40, 40)

    def test_train_rejects_mixed_image_sizes(self, tmp_path, capsys):
        data = tmp_path / "data"
        assert run_cli("synth", "--n", 2, "--height", 32, "--width", 32, "--out", data) == 0
        manifest = data / "mixed.txt"
        write_ppm(data / "big.ppm", np.full((48, 48, 3), 0.5))
        write_mask_pgm(data / "big.pgm", np.zeros((48, 48)))
        manifest.write_text((data / "manifest.txt").read_text() + "big.ppm big.pgm\n")
        cfg = tmp_path / "run.cfg"
        cfg.write_text("max_iter = 1\nchannels_scale = 0.0625\n")
        assert run_cli("train", "--config", cfg, "--manifest", manifest,
                       "--out", tmp_path / "o") == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: manifest: {manifest}:4: image {data / 'big.ppm'}")
        assert err.count("\n") == 1

    def test_train_shape_error_names_the_manifest(self, tmp_path, capsys):
        data = tmp_path / "data"
        assert run_cli("synth", "--n", 2, "--height", 40, "--width", 40, "--out", data) == 0
        cfg = tmp_path / "run.cfg"
        cfg.write_text("max_iter = 1\nchannels_scale = 0.0625\n")
        manifest = data / "manifest.txt"
        assert run_cli("train", "--config", cfg, "--manifest", manifest,
                       "--out", tmp_path / "o") == 1
        err = capsys.readouterr().err
        assert err == (f"error: shape: {manifest}: encoder input spatial dims "
                       "must be divisible by 16, got 40x40\n")


class TestConvOption:
    """``--conv`` picks the convolution forward of one ``train`` or
    ``predict``; without it the command runs the mode in effect, so a
    caller's ``using_deterministic(False)`` still holds."""

    def test_predict(self, workspace, tmp_path, monkeypatch):
        ckpt = workspace / "run" / "checkpoint.dnet"
        image = workspace / "data" / "img_000.ppm"
        model, img = load_checkpoint(ckpt), as_rgb(read_pnm(image))
        want = {}
        for mode in ("exact", "gemm"):
            with using_deterministic(mode == "exact"):
                want[mode] = predict_probs(model, img).tobytes()
        assert want["exact"] != want["gemm"]
        got = []  # the probabilities of each predict command

        def spy(*args):
            probs = predict_probs(*args)
            got.append(probs.tobytes())
            return probs

        monkeypatch.setattr(cli, "predict_probs", spy)
        argv = ["predict", "--checkpoint", ckpt, "--image", image, "--out", tmp_path]
        assert run_cli(*argv, "--conv", "gemm") == 0
        with using_deterministic(False):
            assert run_cli(*argv) == 0
            assert run_cli(*argv, "--conv", "exact") == 0
        assert run_cli(*argv) == 0
        assert got == [want["gemm"], want["gemm"], want["exact"], want["exact"]]
        assert deterministic_mode()

    def test_train(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("max_iter = 2\nchannels_scale = 0.03125\nbatch = 2\n")

        def checkpoint(name, *flag):
            out = tmp_path / name
            assert run_cli("train", "--config", cfg, "--synth", 2, "--synth-size", 32,
                           "--out", out, *flag) == 0
            return (out / "checkpoint.dnet").read_bytes()

        gemm = checkpoint("gemm", "--conv", "gemm")
        with using_deterministic(False):
            in_effect = checkpoint("in_effect")
            exact = checkpoint("exact", "--conv", "exact")
        assert gemm == in_effect
        assert checkpoint("default") == exact != gemm

    def test_rejects_other_modes(self, capsys):
        assert run_cli("predict", "--checkpoint", "c", "--image", "i", "--out", "o",
                       "--conv", "fast") == 1
        assert "invalid choice: 'fast'" in capsys.readouterr().err


class TestTrainSynthMode:
    def test_synth_training_writes_loadable_checkpoint(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("max_iter = 3\nchannels_scale = 0.03125\nbatch = 2\n")
        out = tmp_path / "out"
        assert run_cli("train", "--config", cfg, "--synth", 4,
                       "--synth-size", 32, "--out", out) == 0
        model = load_checkpoint(out / "checkpoint.dnet")
        assert model.cfg.msif_enabled

    def test_loss_csv_bytes(self, tmp_path, monkeypatch):
        traces = []
        monkeypatch.setattr(cli, "train", lambda *args: traces.append(train(*args)) or traces[0])
        cfg = tmp_path / "run.cfg"
        cfg.write_text("max_iter = 3\nchannels_scale = 0.03125\nbatch = 2\n")
        out = tmp_path / "out"
        assert run_cli("train", "--config", cfg, "--synth", 2,
                       "--synth-size", 32, "--out", out) == 0
        (trace,) = traces
        rows = "".join(f"{step},{lr:.12g},{loss:.12g}\r\n" for step, lr, loss in trace)
        assert (out / "loss.csv").read_bytes() == ("step,lr,loss\r\n" + rows).encode()
        assert [step for step, _, _ in trace] == [0, 1, 2]

    def test_requires_exactly_one_source(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("max_iter = 1\n")
        assert run_cli("train", "--config", cfg, "--out", tmp_path / "o") == 1
        assert capsys.readouterr().err.startswith("error: config:")

    @pytest.mark.parametrize("n", [0, -2])
    def test_synth_rejects_non_positive_count(self, tmp_path, capsys, n):
        out = tmp_path / "data"
        assert run_cli("synth", "--n", n, "--out", out) == 1
        assert capsys.readouterr().err == f"error: config: --n must be positive, got {n}\n"
        assert not out.exists()

    def test_bad_loss_weight_fails_before_any_output(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("max_iter = 1\nlambda = -1\n")
        out = tmp_path / "out"
        assert run_cli("train", "--config", cfg, "--synth", 2, "--out", out) == 1
        assert capsys.readouterr().err.startswith(f"error: config: {cfg}: loss weights")
        assert not out.exists()

    def test_non_finite_setting_fails_before_any_output(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("max_iter = 1\nlr = nan\n")
        out = tmp_path / "out"
        assert run_cli("train", "--config", cfg, "--synth", 2, "--out", out) == 1
        assert capsys.readouterr().err == f"error: config: {cfg}: lr must be finite, got nan\n"
        assert not (out / "checkpoint.dnet").exists()


class TestRFAnalyze:
    def test_two_layer_stack_file(self, tmp_path, capsys):
        layers = tmp_path / "layers.txt"
        layers.write_text("conv 5 1 1\nconv 9 1 1\n")
        assert run_cli("rf-analyze", "--layers", layers) == 0
        out = capsys.readouterr().out.strip().splitlines()
        assert out[0] == "layer,k_eff,jump,rf"
        assert out[-2].endswith(",13")  # final rf 13
        assert out[-1] == "coverage=dense"

    def test_coverage_holes_reported(self, tmp_path, capsys):
        layers = tmp_path / "layers.txt"
        layers.write_text("conv 3 1 2\nconv 3 1 2\nconv 3 1 2\n")
        assert run_cli("rf-analyze", "--layers", layers) == 0
        verdict = capsys.readouterr().out.strip().splitlines()[-1]
        assert verdict.startswith("coverage=holes:")
        assert "1" in verdict.split(":", 1)[1]

    def test_config_derived_encoder_path(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("d1 = 1\nd2 = 2\nd3 = 4\n")
        out_file = tmp_path / "rf.csv"
        assert run_cli("rf-analyze", "--config", cfg, "--out", out_file) == 0
        lines = out_file.read_text().strip().splitlines()
        assert lines[0] == "layer,k_eff,jump,rf"
        assert lines[-1] == "coverage=dense"
        assert len(lines) == 1 + 49 + 1  # header + layers + verdict

    @pytest.mark.parametrize("dilations, digest", [
        ((1, 2, 4), "9b7b40954cc6dbd3f7fae0c83421d7fcfc35e98d8143a426da2c6915548531ab"),
        ((1, 1, 1), "eee152e07fe0ad3465a2356e03b48af70bc630500cc37d672d2a22f6a8f96484"),
        ((1, 2, 3), "b7f5fd96dbddd17dfe82de5622b1a0e1e26cf3f398d3854770537c39706357a3"),
    ])
    def test_config_table_bytes_are_pinned(self, tmp_path, capsys, dilations, digest):
        # The whole printed table, byte for byte: a change in how the path
        # is derived must not change what the command prints.
        cfg = tmp_path / "run.cfg"
        cfg.write_text("".join(f"d{i} = {d}\n" for i, d in enumerate(dilations, start=1)))
        assert run_cli("rf-analyze", "--config", cfg) == 0
        assert hashlib.sha256(capsys.readouterr().out.encode()).hexdigest() == digest

    @pytest.mark.parametrize("line, reason", [
        ("conv three 1 1", "k, s, r must be integers"),
        ("conv 0 1 1", "layer parameters must be >= 1"),
        ("foo 3 1 1", "unknown layer kind 'foo'"),
    ])
    def test_bad_layers_file(self, tmp_path, capsys, line, reason):
        layers = tmp_path / "layers.txt"
        layers.write_text(f"conv 3 1 1\n{line}\n")
        assert run_cli("rf-analyze", "--layers", layers) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: config: {layers}:2: {reason}") and err.count("\n") == 1


def _csv_module_writer(path, columns: dict) -> None:
    """Reference writer: csv.writer rows, numbers through format(v, ".12g")."""
    arrays = [np.asarray(values) for values in columns.values()]
    specs = ["" if a.dtype.kind == "U" else ".12g" for a in arrays]
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(columns)
        writer.writerows(map(format, row, specs) for row in zip(*arrays))


class TestWriteCsv:
    SPECIAL = np.array([np.inf, -0.0, 0.0, 1.0, 1e-17, 1.23456789012e14])

    @pytest.mark.parametrize(
        "rows", [1, _CSV_BLOCK_ROWS - 1, _CSV_BLOCK_ROWS, _CSV_BLOCK_ROWS + 1]
    )
    def test_bytes_match_csv_module(self, rows, tmp_path):
        rng = np.random.default_rng(rows)
        columns = {
            "name": np.resize(np.array(["accuracy", "auc_roc", "f1"]), rows),
            "special": np.resize(self.SPECIAL, rows),
            "shifted": np.roll(np.resize(self.SPECIAL, rows), 1),
            "random": rng.standard_normal(rows) * 10.0 ** rng.integers(-20, 20, size=rows),
        }
        _write_csv(tmp_path / "new.csv", columns)
        _csv_module_writer(tmp_path / "ref.csv", columns)
        data = (tmp_path / "new.csv").read_bytes()
        assert data == (tmp_path / "ref.csv").read_bytes()
        assert data.count(b"\r\n") == rows + 1

    def test_header_only_without_rows(self, tmp_path):
        _write_csv(tmp_path / "empty.csv", {"threshold": [], "fpr": []})
        assert (tmp_path / "empty.csv").read_bytes() == b"threshold,fpr\r\n"


def _checkpoint(path, first_dims=None):
    """A small model's checkpoint; ``first_dims`` overwrites its first tensor's dims."""
    save_checkpoint(DNet(DNetConfig(channels_scale=0.0625), seed=0), path)
    if first_dims is not None:
        data = bytearray(path.read_bytes())
        off = len(CHECKPOINT_MAGIC) + 11 * 4
        (name_len,) = struct.unpack_from("<I", data, off)
        struct.pack_into("<4I", data, off + 4 + name_len, *first_dims)
        path.write_bytes(bytes(data))
    return path


def _file(path, content: bytes):
    path.write_bytes(content)
    return path


def _dir(path):
    path.mkdir()
    return path


def _train(tmp, manifest=None, config=None):
    config = config or _file(tmp / "run.cfg", b"max_iter = 1\n")
    source = ["--manifest", manifest] if manifest else ["--synth", 1]
    return ["train", "--config", config, *source, "--out", tmp / "o"]


def _predict(tmp, checkpoint=None, image=None):
    checkpoint = checkpoint or _checkpoint(tmp / "m.dnet")
    return ["predict", "--checkpoint", checkpoint, "--image", image or tmp / "x.ppm",
            "--out", tmp / "o"]


# input defect -> (argv, the file at fault, error code), built under tmp
UNREADABLE_INPUTS = {
    "manifest is a directory": lambda tmp: (
        _train(tmp, manifest=_dir(tmp / "data")), tmp / "data", "io"),
    "image is a directory": lambda tmp: (
        _predict(tmp, image=_dir(tmp / "img")), tmp / "img", "io"),
    "checkpoint is a directory": lambda tmp: (
        _predict(tmp, checkpoint=_dir(tmp / "ckpt")), tmp / "ckpt", "io"),
    "eval --pred is a file": lambda tmp: (
        ["eval", "--pred", _file(tmp / "p.pgm", b""), "--gt", tmp, "--out", tmp / "o"],
        tmp / "p.pgm", "io"),
    "manifest is not UTF-8": lambda tmp: (
        _train(tmp, manifest=_file(tmp / "m.txt", b"split train\na\xff.ppm a.pgm\n")),
        tmp / "m.txt", "manifest"),
    "run config is not UTF-8": lambda tmp: (
        _train(tmp, config=_file(tmp / "bad.cfg", b"l\xffr = 1\n")), tmp / "bad.cfg", "config"),
    "layers file is not UTF-8": lambda tmp: (
        ["rf-analyze", "--layers", _file(tmp / "l.txt", b"conv 3 1 \xff\n")],
        tmp / "l.txt", "config"),
    # np.prod of these dims wraps to 0, or overflows
    "checkpoint dims 65536^4": lambda tmp: (
        _predict(tmp, checkpoint=_checkpoint(tmp / "c.dnet", (65536,) * 4)),
        tmp / "c.dnet", "checkpoint"),
    "checkpoint dims 2^31": lambda tmp: (
        _predict(tmp, checkpoint=_checkpoint(tmp / "c.dnet", (2**31, 2**31, 3, 3))),
        tmp / "c.dnet", "checkpoint"),
}


class TestErrorPaths:
    def test_missing_checkpoint(self, tmp_path, capsys):
        code = run_cli("predict", "--checkpoint", tmp_path / "nope.dnet",
                       "--image", tmp_path / "nope.ppm", "--out", tmp_path)
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("error: not-found:")

    def test_truncated_checkpoint_named(self, tmp_path, capsys):
        ckpt = tmp_path / "half.dnet"
        save_checkpoint(DNet(DNetConfig(channels_scale=0.0625), seed=0), ckpt)
        ckpt.write_bytes(ckpt.read_bytes()[:100])
        code = run_cli("predict", "--checkpoint", ckpt,
                       "--image", tmp_path / "nope.ppm", "--out", tmp_path)
        assert code == 1
        err = capsys.readouterr().err.strip()
        assert err.startswith(f"error: checkpoint: {ckpt}: ")
        assert "truncated" in err and "\n" not in err

    @pytest.mark.parametrize("case", sorted(UNREADABLE_INPUTS))
    def test_unreadable_input_named_in_one_line(self, case, tmp_path, capsys):
        args, bad, code = UNREADABLE_INPUTS[case](tmp_path)
        assert run_cli(*args) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {code}: ") and err.count("\n") == 1
        assert str(bad) in err

    def test_bad_arguments_exit_one(self, capsys):
        assert run_cli("train") == 1
        assert capsys.readouterr().err.startswith("error: config: arguments:")

    def test_error_lines_are_single_line(self, tmp_path, capsys):
        bad = tmp_path / "bad.pgm"
        bad.write_bytes(b"P5\n2 2\n255\nxx")  # truncated
        gt = tmp_path / "gt"
        gt.mkdir()
        preds = tmp_path / "p"
        preds.mkdir()
        (preds / "bad.pgm").write_bytes(bad.read_bytes())
        (gt / "bad.pgm").write_bytes(bad.read_bytes())
        assert run_cli("eval", "--pred", preds, "--gt", gt, "--out", tmp_path / "o") == 1
        err = capsys.readouterr().err.strip()
        assert err.startswith("error: pnm:")
        assert "\n" not in err


class TestEvalManifestErrors:
    """Each of eval's input checks exits 1 with one line naming the file."""

    @staticmethod
    def _eval(tmp_path, capsys, fov=False):
        args = ["eval", "--pred", tmp_path / "p", "--gt", tmp_path / "gt",
                "--out", tmp_path / "o"]
        if fov:
            args += ["--fov", tmp_path / "fov"]
        assert run_cli(*args) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: manifest: eval: ") and err.count("\n") == 1
        return err

    @pytest.fixture
    def dirs(self, tmp_path):
        for name in ("p", "gt", "fov"):
            (tmp_path / name).mkdir()
        return tmp_path

    def test_no_prediction_files(self, dirs, capsys):
        write_mask_pgm(dirs / "p" / "a.mask.pgm", np.zeros((4, 4)))  # not a probability map
        assert str(dirs / "p") in self._eval(dirs, capsys)

    def test_missing_ground_truth(self, dirs, capsys):
        write_prob_pgm(dirs / "p" / "a.prob.pgm", np.zeros((4, 4)))
        assert str(dirs / "gt" / "a.pgm") in self._eval(dirs, capsys)

    def test_size_mismatch(self, dirs, capsys):
        write_prob_pgm(dirs / "p" / "a.prob.pgm", np.zeros((4, 4)))
        write_mask_pgm(dirs / "gt" / "a.pgm", np.zeros((4, 6)))
        assert str(dirs / "p" / "a.prob.pgm") in self._eval(dirs, capsys)

    def test_missing_fov_mask(self, dirs, capsys):
        write_prob_pgm(dirs / "p" / "a.prob.pgm", np.zeros((4, 4)))
        write_mask_pgm(dirs / "gt" / "a.pgm", np.zeros((4, 4)))
        assert str(dirs / "fov" / "a.pgm") in self._eval(dirs, capsys, fov=True)

    def test_fov_size_mismatch(self, dirs, capsys):
        write_prob_pgm(dirs / "p" / "a.prob.pgm", np.zeros((4, 4)))
        write_mask_pgm(dirs / "gt" / "a.pgm", np.zeros((4, 4)))
        write_mask_pgm(dirs / "fov" / "a.pgm", np.ones((2, 2)))
        err = self._eval(dirs, capsys, fov=True)
        assert str(dirs / "fov" / "a.pgm") in err and "(2, 2)" in err and "(4, 4)" in err

    def test_fov_masks_select_no_pixels(self, dirs, capsys):
        write_prob_pgm(dirs / "p" / "a.prob.pgm", np.full((4, 4), 0.7))
        write_mask_pgm(dirs / "gt" / "a.pgm", np.eye(4))
        write_mask_pgm(dirs / "fov" / "a.pgm", np.zeros((4, 4)))
        err = self._eval(dirs, capsys, fov=True)
        assert str(dirs / "fov") in err and "select no pixels" in err

    def test_ground_truth_without_vessels(self, dirs, capsys):
        write_prob_pgm(dirs / "p" / "a.prob.pgm", np.full((4, 4), 0.7))
        write_mask_pgm(dirs / "gt" / "a.pgm", np.zeros((4, 4)))
        err = self._eval(dirs, capsys)
        assert str(dirs / "gt") in err and "no vessel pixels" in err
