import math
import re

import numpy as np
import pytest

from dnet.config import parse_run_config
from dnet.errors import ConfigError, ManifestError
from dnet.manifest import load_manifest, write_manifest
from dnet.model import DNetConfig
from dnet.pnm import read_pnm, write_mask_pgm, write_ppm, write_prob_pgm
from dnet.training import TrainConfig, synth_vessels


def write_cfg(tmp_path, text):
    path = tmp_path / "run.cfg"
    path.write_text(text)
    return path


class TestRunConfig:
    def test_defaults_from_empty_file(self, tmp_path):
        model_cfg, train_cfg = parse_run_config(write_cfg(tmp_path, ""))
        assert (model_cfg, train_cfg) == (DNetConfig(), TrainConfig())
        assert model_cfg.dilations == (1, 2, 4)
        assert model_cfg.msif_rates == (3, 6, 12)
        assert model_cfg.msif_enabled
        assert train_cfg.lr == 1e-4
        assert train_cfg.power == 0.9
        assert train_cfg.batch == 4

    def test_overrides_and_comments(self, tmp_path):
        text = """
# ablation run
d1 = 1
d2 = 2
d3 = 3
msif = off
lr = 5e-3
max_iter = 123
channels_scale = 0.25
seed = 9
lambda = 0
"""
        model_cfg, train_cfg = parse_run_config(write_cfg(tmp_path, text))
        assert model_cfg.dilations == (1, 2, 3)
        assert not model_cfg.msif_enabled
        assert model_cfg.channels_scale == 0.25
        assert train_cfg.lr == 5e-3
        assert train_cfg.max_iter == 123
        assert train_cfg.seed == 9
        assert train_cfg.lam == 0.0

    def test_unknown_key_rejected(self, tmp_path):
        with pytest.raises(ConfigError):
            parse_run_config(write_cfg(tmp_path, "learning_rate = 1\n"))

    def test_bad_value_rejected(self, tmp_path):
        with pytest.raises(ConfigError):
            parse_run_config(write_cfg(tmp_path, "max_iter = soon\n"))
        with pytest.raises(ConfigError):
            parse_run_config(write_cfg(tmp_path, "msif = maybe\n"))
        with pytest.raises(ConfigError):
            parse_run_config(write_cfg(tmp_path, "msif_rates = 3,6\n"))

    def test_constraint_violations_propagate(self, tmp_path):
        with pytest.raises(ConfigError):
            parse_run_config(write_cfg(tmp_path, "d1 = 2\nd2 = 2\nd3 = 2\n"))
        with pytest.raises(ConfigError):
            parse_run_config(write_cfg(tmp_path, "batch = 0\n"))

    def test_key_set_twice_rejected(self, tmp_path):
        path = write_cfg(tmp_path, "lr = 1e-3\n# later\nbatch = 2\nlr = 5e-2\n")
        message = f"{path}:4: 'lr' already set on line 1"
        with pytest.raises(ConfigError, match=f"^{re.escape(message)}$"):
            parse_run_config(path)

    def test_missing_equals_rejected(self, tmp_path):
        with pytest.raises(ConfigError):
            parse_run_config(write_cfg(tmp_path, "d1 1\n"))

    @pytest.mark.parametrize("text", [
        "lr = abc", "lr = -1", "lr = nan", "d1 = 3", "lambda = -1", "beta = -2",
        "learning_rate = 1",
    ])
    def test_errors_name_the_file(self, tmp_path, text):
        path = write_cfg(tmp_path, text + "\n")
        with pytest.raises(ConfigError, match=f"^{re.escape(str(path))}:"):
            parse_run_config(path)

    def test_negative_loss_weight_rejected_by_train_config(self):
        with pytest.raises(ConfigError, match="loss weights"):
            TrainConfig(lam=-1.0)
        with pytest.raises(ConfigError, match="loss weights"):
            TrainConfig(beta=-0.5)

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize(
        "field, name", [("lr", "lr"), ("power", "power"), ("lam", "lambda"), ("beta", "beta")]
    )
    def test_non_finite_setting_rejected_by_train_config(self, field, name, value):
        with pytest.raises(ConfigError, match=f"^{name} must be finite, got {value}$"):
            TrainConfig(**{field: value})


def materialize(tmp_path, n=2, h=32, w=32, fov=False):
    ds = synth_vessels(0, n, h, w)
    entries = []
    for i, (img, mask) in enumerate(ds):
        img_name, mask_name = f"img_{i}.ppm", f"img_{i}.pgm"
        write_ppm(tmp_path / img_name, img)
        write_mask_pgm(tmp_path / mask_name, mask[:, :, 0])
        if fov:
            fov_name = f"fov_{i}.pgm"
            write_mask_pgm(tmp_path / fov_name, np.ones((h, w)))
            entries.append((img_name, mask_name, fov_name))
        else:
            entries.append((img_name, mask_name))
    write_manifest(tmp_path / "manifest.txt", "train", entries)
    return ds


class TestManifest:
    def test_round_trip(self, tmp_path):
        original = materialize(tmp_path)
        loaded = load_manifest(tmp_path / "manifest.txt")
        assert len(loaded) == 2
        for (img_a, mask_a), (img_b, mask_b) in zip(original, loaded):
            assert img_a.shape == img_b.shape
            assert np.array_equal(mask_a, mask_b)  # masks are exact binary

    def test_fov_column_loads(self, tmp_path):
        original = materialize(tmp_path, fov=True)
        loaded = load_manifest(tmp_path / "manifest.txt")
        assert len(loaded) == 2
        for (_, mask_a), (_, mask_b) in zip(original, loaded):
            assert np.array_equal(mask_a, mask_b)

    def test_fov_size_mismatch_rejected(self, tmp_path):
        materialize(tmp_path, fov=True)
        write_mask_pgm(tmp_path / "fov_1.pgm", np.ones((8, 8)))
        with pytest.raises(ManifestError, match="fov size"):
            load_manifest(tmp_path / "manifest.txt")

    def test_missing_file_rejected(self, tmp_path):
        materialize(tmp_path)
        (tmp_path / "img_1.pgm").unlink()
        with pytest.raises(ManifestError):
            load_manifest(tmp_path / "manifest.txt")

    def test_dim_mismatch_rejected(self, tmp_path):
        materialize(tmp_path)
        write_mask_pgm(tmp_path / "img_0.pgm", np.zeros((8, 8)))
        with pytest.raises(ManifestError):
            load_manifest(tmp_path / "manifest.txt")

    def test_bad_split_rejected(self, tmp_path):
        materialize(tmp_path)
        text = (tmp_path / "manifest.txt").read_text().replace("split train", "split val")
        (tmp_path / "manifest.txt").write_text(text)
        with pytest.raises(ManifestError):
            load_manifest(tmp_path / "manifest.txt")

    @pytest.mark.parametrize("first", ["splitty train", "splits test", "Split train"])
    def test_split_word_must_be_exact(self, tmp_path, first):
        materialize(tmp_path)
        path = tmp_path / "manifest.txt"
        path.write_text(path.read_text().replace("split train", first))
        says = re.escape("first line must be 'split train|test'")
        with pytest.raises(ManifestError, match=says):
            load_manifest(path)

    def test_empty_manifest_rejected(self, tmp_path):
        (tmp_path / "manifest.txt").write_text("split train\n")
        with pytest.raises(ManifestError):
            load_manifest(tmp_path / "manifest.txt")

    def test_errors_name_the_file_line(self, tmp_path):
        # Comments and blank lines count: the bad record is on line 5.
        materialize(tmp_path, n=1)
        path = tmp_path / "bad.txt"
        path.write_text("split train\n# a comment\n\nimg_0.ppm img_0.pgm\nimg_0.ppm\n")
        with pytest.raises(ManifestError, match=f"^{re.escape(str(path))}:5: expected"):
            load_manifest(path)

    def test_mixed_image_sizes_rejected(self, tmp_path):
        materialize(tmp_path, n=2)
        img, mask = synth_vessels(1, 1, 48, 48)[0]
        write_ppm(tmp_path / "big.ppm", img)
        write_mask_pgm(tmp_path / "big.pgm", mask[:, :, 0])
        path = tmp_path / "manifest.txt"
        path.write_text(path.read_text() + "big.ppm big.pgm\n")
        with pytest.raises(ManifestError, match=f"^{re.escape(str(path))}:4: image .*big.ppm"):
            load_manifest(path)

    def test_graymap_image_repeated_to_three_channels(self, tmp_path):
        original = materialize(tmp_path, n=1)
        gray = original[0][0].mean(axis=2)
        write_prob_pgm(tmp_path / "gray.pgm", gray)
        (tmp_path / "manifest.txt").write_text("split test\ngray.pgm img_0.pgm\n")
        (img, mask), = load_manifest(tmp_path / "manifest.txt")
        assert img.shape == (32, 32, 3)
        stored = read_pnm(tmp_path / "gray.pgm")
        for c in range(3):
            assert np.array_equal(img[:, :, c], stored)
        assert np.array_equal(mask, original[0][1])
